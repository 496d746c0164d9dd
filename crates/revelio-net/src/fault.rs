//! Seeded, deterministic fault injection for the simulated network.
//!
//! The paper's end-user attestation path crosses four unreliable networks
//! (browser → boundary node → VM → AMD KDS), yet a perfectly reliable
//! fabric cannot exercise the retry and verdict logic that separates a
//! dropped packet from a failed attestation. A [`FaultPlan`] installed on
//! an address (via `net.peer(address).fault_plan(..)`) — or on a single
//! route (`.fault_plan_for_route(prefix, ..)`) — injects drops, timeouts,
//! connection resets, fail-N-then-recover windows, and latency jitter —
//! every decision drawn from a [`FaultRng`] seeded from the fabric's fault
//! seed and the stream key (address, or address + route prefix), so equal
//! seeds give byte-identical runs regardless of what other addresses or
//! routes are doing.
//!
//! Faults are injected **before delivery**: the listener's handler never
//! runs for a faulted exchange, so server-side state is untouched and
//! retries are always safe.

/// FNV-1a, used to derive a per-address RNG stream from the fabric seed.
#[must_use]
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic splitmix64 PRNG driving all fault decisions.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `[0, n]` (inclusive); `n` may be 0.
    pub fn below_inclusive(&mut self, n: u64) -> u64 {
        if n == u64::MAX {
            self.next_u64()
        } else {
            self.next_u64() % (n + 1)
        }
    }

    /// A draw in `[0, 1)` for probability comparisons.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits, the standard uniform-double construction.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The kinds of fault the fabric can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The message (or connection attempt) was dropped in flight.
    Dropped,
    /// The peer never answered within the timeout window.
    Timeout,
    /// The connection was reset mid-exchange.
    Reset,
}

impl FaultKind {
    /// Stable lowercase label (for logs and metrics attributes).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Dropped => "dropped",
            FaultKind::Timeout => "timeout",
            FaultKind::Reset => "reset",
        }
    }
}

/// Per-address fault configuration.
///
/// Probabilities apply per exchange; `fail_first` applies per dial. All
/// zeros (the [`Default`]) injects nothing.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability an exchange's request is dropped in flight
    /// ([`crate::NetError::Dropped`] after waiting out `timeout_us`).
    pub drop_probability: f64,
    /// Probability an exchange times out undelivered
    /// ([`crate::NetError::Timeout`] after `timeout_us`).
    pub timeout_probability: f64,
    /// Probability the connection is reset mid-exchange
    /// ([`crate::NetError::ConnectionClosed`], costs one one-way trip).
    pub reset_probability: f64,
    /// Fail the first N dials to this address with a timeout, then
    /// recover — the "service briefly down" window.
    pub fail_first: u32,
    /// Simulated time a client waits before declaring a drop/timeout, µs.
    pub timeout_us: u64,
    /// Maximum extra one-way latency jitter per exchange, µs.
    pub jitter_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_probability: 0.0,
            timeout_probability: 0.0,
            reset_probability: 0.0,
            fail_first: 0,
            timeout_us: 1_000_000,
            jitter_us: 0,
        }
    }
}

impl FaultPlan {
    /// A plan whose only effect is failing the first `n` dials.
    #[must_use]
    pub fn fail_first(n: u32) -> Self {
        FaultPlan {
            fail_first: n,
            ..FaultPlan::default()
        }
    }

    /// A plan dropping every exchange — a hard outage until cleared.
    #[must_use]
    pub fn outage() -> Self {
        FaultPlan {
            drop_probability: 1.0,
            ..FaultPlan::default()
        }
    }

    /// Compact deterministic digest of every plan parameter, used by view
    /// fingerprints to compare routing state across runs. `{:?}`
    /// on the probabilities prints the shortest round-trippable form, so
    /// equal plans always digest identically.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "d{:?}/t{:?}/r{:?}/ff{}/to{}/j{}",
            self.drop_probability,
            self.timeout_probability,
            self.reset_probability,
            self.fail_first,
            self.timeout_us,
            self.jitter_us,
        )
    }
}

/// Derives the RNG stream key for a per-route plan. The `\n` separator
/// cannot appear in addresses or HTTP paths, so `(address, prefix)` pairs
/// never collide with each other or with address-wide streams.
#[must_use]
pub(crate) fn route_stream_key(address: &str, prefix: &str) -> String {
    format!("{address}\n{prefix}")
}

/// Mutable per-stream injection state: the plan, its RNG stream, and the
/// dial counter driving `fail_first`. One entry exists per address-wide
/// plan and one per `(address, route-prefix)` plan; each draws from its
/// own seeded stream, so traffic on one stream cannot perturb another.
#[derive(Debug)]
pub(crate) struct FaultEntry {
    pub(crate) plan: FaultPlan,
    pub(crate) rng: FaultRng,
    pub(crate) dials: u64,
}

impl FaultEntry {
    /// Creates an entry whose decision stream is derived from the fabric
    /// seed and `stream_key` (the address, or [`route_stream_key`] for
    /// per-route plans).
    pub(crate) fn new(plan: FaultPlan, fabric_seed: u64, stream_key: &str) -> Self {
        FaultEntry {
            plan,
            rng: FaultRng::new(fabric_seed ^ fnv1a(stream_key)),
            dials: 0,
        }
    }

    /// Decides the fate of one exchange: extra one-way jitter plus an
    /// optional fault. Consumes a fixed number of RNG draws per call so
    /// the decision stream is reproducible.
    pub(crate) fn exchange_decision(&mut self) -> (u64, Option<FaultKind>) {
        let jitter = if self.plan.jitter_us > 0 {
            self.rng.below_inclusive(self.plan.jitter_us)
        } else {
            0
        };
        let draw = self.rng.next_f64();
        let p_drop = self.plan.drop_probability;
        let p_timeout = p_drop + self.plan.timeout_probability;
        let p_reset = p_timeout + self.plan.reset_probability;
        let fault = if draw < p_drop {
            Some(FaultKind::Dropped)
        } else if draw < p_timeout {
            Some(FaultKind::Timeout)
        } else if draw < p_reset {
            Some(FaultKind::Reset)
        } else {
            None
        };
        (jitter, fault)
    }

    /// Whether this dial falls inside the fail-first window.
    pub(crate) fn dial_fails(&mut self) -> bool {
        let fails = self.dials < u64::from(self.plan.fail_first);
        self.dials += 1;
        fails
    }
}

/// Observer invoked on every injected fault: `(dialed address, kind)`.
/// Installed via [`crate::net::SimNet::set_fault_observer`]; the harness
/// uses it to mirror injections into telemetry counters.
pub type FaultObserver = dyn Fn(&str, FaultKind) + Send + Sync;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_draws_are_in_unit_interval() {
        let mut rng = FaultRng::new(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn per_address_streams_differ() {
        let mut a = FaultEntry::new(FaultPlan::outage(), 1, "kds:443");
        let mut b = FaultEntry::new(FaultPlan::outage(), 1, "node:8080");
        assert_ne!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn fail_first_window_counts_dials() {
        let mut e = FaultEntry::new(FaultPlan::fail_first(2), 0, "a:1");
        assert!(e.dial_fails());
        assert!(e.dial_fails());
        assert!(!e.dial_fails());
        assert!(!e.dial_fails());
    }

    #[test]
    fn outage_plan_always_drops() {
        let mut e = FaultEntry::new(FaultPlan::outage(), 9, "a:1");
        for _ in 0..32 {
            let (_, fault) = e.exchange_decision();
            assert_eq!(fault, Some(FaultKind::Dropped));
        }
    }

    #[test]
    fn default_plan_injects_nothing() {
        let mut e = FaultEntry::new(FaultPlan::default(), 9, "a:1");
        for _ in 0..32 {
            let (jitter, fault) = e.exchange_decision();
            assert_eq!(jitter, 0);
            assert_eq!(fault, None);
            assert!(!e.dial_fails());
        }
    }

    #[test]
    fn jitter_bounded_by_plan() {
        let mut e = FaultEntry::new(
            FaultPlan {
                jitter_us: 500,
                ..FaultPlan::default()
            },
            3,
            "a:1",
        );
        for _ in 0..100 {
            let (jitter, _) = e.exchange_decision();
            assert!(jitter <= 500);
        }
    }

    #[test]
    fn probabilities_partition_in_order() {
        // With drop=timeout=reset=1/3 every kind appears; the cumulative
        // partition means a single draw can only pick one.
        let mut e = FaultEntry::new(
            FaultPlan {
                drop_probability: 1.0 / 3.0,
                timeout_probability: 1.0 / 3.0,
                reset_probability: 1.0 / 3.0,
                ..FaultPlan::default()
            },
            5,
            "a:1",
        );
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let (_, fault) = e.exchange_decision();
            seen.insert(fault.expect("probabilities sum to 1"));
        }
        assert_eq!(seen.len(), 3);
    }
}
