//! Correlated-failure domains: whole-subnet partitions, lossy domains,
//! and scheduled heal times.
//!
//! Per-address [`FaultPlan`]s model independent link loss; real outages
//! are correlated — a rack switch dies and every address behind it goes
//! dark at once. A [`FaultDomain`] captures that: it matches every
//! destination that starts with its prefix, and applies its
//! effect during a sim-time window with a scheduled heal.
//!
//! Domains layer **over** the per-address/per-route plans: a domain is
//! consulted first (it is the lower network layer); only when it injects
//! nothing do the address and route plans get their say. Degraded
//! domains draw from their own splitmix64 streams keyed
//! `(domain name, destination address)` and seeded from the fabric's
//! fault seed, so chaos runs stay byte-identical at any thread count and
//! traffic to one destination cannot perturb another's decision stream.
//! Partitions consume no randomness at all: every matching dial and
//! exchange fails, deterministically.

use crate::fault::FaultPlan;

/// What a matching [`FaultDomain`] does to traffic while active.
#[derive(Debug, Clone)]
pub enum DomainEffect {
    /// Total blackout: every matching dial times out and every matching
    /// exchange is dropped, with no probabilistic draw.
    Partition,
    /// Probabilistic degradation: matching exchanges are governed by this
    /// plan, drawn from a per-destination stream. Dials are unaffected
    /// (the link is up, just lossy).
    Degraded(FaultPlan),
}

/// Derives the RNG stream key for a degraded domain's per-destination
/// stream. The double separator cannot collide with address-wide keys
/// (no `\n`) or route keys (exactly one `\n`).
#[must_use]
pub(crate) fn domain_stream_key(name: &str, dst: &str) -> String {
    format!("{name}\n\n{dst}")
}

/// A correlated-failure domain installed on the fabric via
/// [`crate::net::SimNet::install_fault_domain`].
///
/// ```
/// use revelio_net::{FaultDomain, FaultPlan};
///
/// // Rack 114 goes dark at t=0 and heals two simulated minutes later.
/// let partition = FaultDomain::partition("dc-114", "203.0.114.")
///     .healing_at_us(120_000_000);
/// // Half of the exchanges toward the KDS are lost.
/// let lossy = FaultDomain::degraded(
///     "kds-uplink",
///     "kds.amd.test:",
///     FaultPlan { drop_probability: 0.5, ..FaultPlan::default() },
/// );
/// let _ = (partition, lossy);
/// ```
#[derive(Debug, Clone)]
pub struct FaultDomain {
    /// Unique handle for install/replace/clear.
    pub(crate) name: String,
    /// Destination-address prefix the domain matches.
    pub(crate) dst_prefix: String,
    /// What happens to matching traffic.
    pub effect: DomainEffect,
    /// Sim time the domain activates, µs (0 = immediately).
    pub(crate) from_us: u64,
    /// Scheduled heal: the domain stops matching at this sim time.
    /// `None` lasts until cleared.
    pub(crate) until_us: Option<u64>,
    /// Simulated time a client spends discovering a partitioned peer
    /// (per faulted dial or exchange), µs.
    pub(crate) timeout_us: u64,
}

impl FaultDomain {
    /// A total partition of every destination matching `dst_prefix`,
    /// active immediately and until cleared or a heal is scheduled.
    #[must_use]
    pub fn partition(name: &str, dst_prefix: &str) -> Self {
        FaultDomain {
            name: name.to_owned(),
            dst_prefix: dst_prefix.to_owned(),
            effect: DomainEffect::Partition,
            from_us: 0,
            until_us: None,
            timeout_us: FaultPlan::default().timeout_us,
        }
    }

    /// A lossy (but connected) domain: exchanges toward `dst_prefix`
    /// draw from `plan` on a per-destination stream.
    #[must_use]
    pub fn degraded(name: &str, dst_prefix: &str, plan: FaultPlan) -> Self {
        FaultDomain {
            effect: DomainEffect::Degraded(plan),
            ..FaultDomain::partition(name, dst_prefix)
        }
    }

    /// Delays activation until sim time `from_us`.
    #[must_use]
    pub fn starting_at_us(mut self, from_us: u64) -> Self {
        self.from_us = from_us;
        self
    }

    /// Schedules the heal: the domain stops matching at sim time
    /// `until_us`.
    #[must_use]
    pub fn healing_at_us(mut self, until_us: u64) -> Self {
        self.until_us = Some(until_us);
        self
    }

    /// Overrides the per-fault discovery timeout.
    #[must_use]
    pub fn with_timeout_us(mut self, timeout_us: u64) -> Self {
        self.timeout_us = timeout_us;
        self
    }

    /// Whether the domain's window covers sim time `now_us`.
    #[must_use]
    pub fn is_active_at(&self, now_us: u64) -> bool {
        now_us >= self.from_us && self.until_us.is_none_or(|until| now_us < until)
    }

    /// Whether traffic to `dst` falls inside this domain.
    #[must_use]
    pub fn matches(&self, dst: &str) -> bool {
        dst.starts_with(&self.dst_prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_matches_prefix_and_window() {
        let d = FaultDomain::partition("rack", "10.1.")
            .starting_at_us(100)
            .healing_at_us(200);
        assert!(d.matches("10.1.0.7:443"));
        assert!(!d.matches("10.2.0.7:443"));
        assert!(!d.is_active_at(99));
        assert!(d.is_active_at(100));
        assert!(d.is_active_at(199));
        assert!(!d.is_active_at(200));
    }

    #[test]
    fn stream_keys_cannot_collide_with_route_keys() {
        // Route keys contain exactly one '\n'; domain keys two.
        let key = domain_stream_key("rack", "10.1.0.7:443");
        assert_eq!(key.matches('\n').count(), 2);
    }
}
