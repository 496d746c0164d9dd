//! Bounded, deterministic retry with exponential backoff.
//!
//! A [`RetryPolicy`] retries an operation whose failures are classified
//! *transient* by the caller, sleeping between attempts by advancing the
//! shared [`SimClock`] — never wall time — so retried runs stay
//! reproducible and virtually-timed. Backoff doubles from
//! `base_backoff_us` up to `max_backoff_us`, plus a deterministic jitter
//! drawn from a `FaultRng` seeded by `jitter_seed` (equal seeds give
//! byte-identical schedules).

use crate::clock::SimClock;
use crate::fault::FaultRng;

/// A bounded exponential-backoff retry schedule.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub max_attempts: u32,
    /// Backoff before the first retry, µs; doubles each retry.
    pub base_backoff_us: u64,
    /// Backoff ceiling, µs.
    pub max_backoff_us: u64,
    /// Seed for the deterministic jitter stream added to each backoff.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 50_000,
            max_backoff_us: 2_000_000,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Returns a copy with a different jitter seed (per-component
    /// decorrelation).
    #[must_use]
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The backoff before retry number `retry` (1-based), without jitter.
    #[must_use]
    pub(crate) fn backoff_us(&self, retry: u32) -> u64 {
        let shift = retry.saturating_sub(1).min(32);
        self.base_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us)
    }

    /// Runs `op` until it succeeds, fails durably, or attempts are
    /// exhausted. Between attempts the backoff (plus jitter, capped at
    /// half the backoff) is spent on `clock`. Returns the final result
    /// and the number of attempts actually made.
    ///
    /// `op` receives the 1-based attempt number; `is_transient` decides
    /// whether a failure is worth retrying — durable errors return
    /// immediately.
    pub fn run<T, E>(
        &self,
        clock: &SimClock,
        is_transient: impl Fn(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> (Result<T, E>, u32) {
        let attempts = self.max_attempts.max(1);
        let mut rng = FaultRng::new(self.jitter_seed);
        for attempt in 1..=attempts {
            match op(attempt) {
                Ok(v) => return (Ok(v), attempt),
                Err(e) => {
                    if attempt == attempts || !is_transient(&e) {
                        return (Err(e), attempt);
                    }
                    let backoff = self.backoff_us(attempt);
                    let jitter = if backoff > 0 {
                        rng.below_inclusive(backoff / 2)
                    } else {
                        0
                    };
                    clock.advance_us(backoff + jitter);
                }
            }
        }
        unreachable!("loop always returns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum E {
        Transient,
        Durable,
    }

    fn transient(e: &E) -> bool {
        matches!(e, E::Transient)
    }

    #[test]
    fn first_attempt_success_costs_no_time() {
        let clock = SimClock::new();
        let policy = RetryPolicy::default();
        let (result, attempts) = policy.run(&clock, transient, |_| Ok::<_, E>(7));
        assert_eq!(result, Ok(7));
        assert_eq!(attempts, 1);
        assert_eq!(clock.now_us(), 0);
    }

    #[test]
    fn transient_failures_retry_until_success() {
        let clock = SimClock::new();
        let policy = RetryPolicy::default();
        let (result, attempts) = policy.run(&clock, transient, |attempt| {
            if attempt < 3 {
                Err(E::Transient)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result, Ok(3));
        assert_eq!(attempts, 3);
        // Two backoffs were spent: ≥ 50ms + 100ms of simulated time.
        assert!(clock.now_us() >= 150_000);
    }

    #[test]
    fn durable_failure_returns_immediately() {
        let clock = SimClock::new();
        let policy = RetryPolicy::default();
        let (result, attempts) = policy.run(&clock, transient, |_| Err::<u32, _>(E::Durable));
        assert_eq!(result, Err(E::Durable));
        assert_eq!(attempts, 1);
        assert_eq!(clock.now_us(), 0);
    }

    #[test]
    fn exhaustion_returns_last_error_without_final_backoff() {
        let clock = SimClock::new();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1_000,
            max_backoff_us: 10_000,
            jitter_seed: 0,
        };
        let (result, attempts) = policy.run(&clock, transient, |_| Err::<u32, _>(E::Transient));
        assert_eq!(result, Err(E::Transient));
        assert_eq!(attempts, 3);
        // Backoffs after attempts 1 and 2 only; jitter ≤ backoff/2.
        let max_spend = (1_000 + 500) + (2_000 + 1_000);
        assert!(clock.now_us() >= 3_000 && clock.now_us() <= max_spend);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_us: 100,
            max_backoff_us: 500,
            jitter_seed: 0,
        };
        assert_eq!(policy.backoff_us(1), 100);
        assert_eq!(policy.backoff_us(2), 200);
        assert_eq!(policy.backoff_us(3), 400);
        assert_eq!(policy.backoff_us(4), 500);
        assert_eq!(policy.backoff_us(9), 500);
    }

    #[test]
    fn equal_seeds_give_identical_schedules() {
        let spend = |seed: u64| {
            let clock = SimClock::new();
            let policy = RetryPolicy::default().with_jitter_seed(seed);
            let _ = policy.run(&clock, transient, |_| Err::<u32, _>(E::Transient));
            clock.now_us()
        };
        assert_eq!(spend(11), spend(11));
        assert_ne!(spend(11), spend(12));
    }

    #[test]
    fn one_attempt_policy_never_retries() {
        let clock = SimClock::new();
        let mut calls = 0;
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let (result, attempts) = policy.run(&clock, transient, |_| {
            calls += 1;
            Err::<u32, _>(E::Transient)
        });
        assert_eq!(result, Err(E::Transient));
        assert_eq!(attempts, 1);
        assert_eq!(calls, 1);
        assert_eq!(clock.now_us(), 0);
    }
}
