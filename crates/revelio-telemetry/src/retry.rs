//! Telemetry-aware retry: a [`RetryPolicy`] run that mirrors its attempt
//! accounting into named counters.
//!
//! The pure backoff machinery lives in `revelio_net::retry` (the network
//! crate cannot depend on this one); components that hold a [`Telemetry`]
//! handle call [`retry_with_telemetry`] instead so every retried call
//! feeds the fleet-wide `revelio_retry_attempts_total` plus the
//! per-component `revelio_<component>_retry_attempts_total` and
//! `revelio_<component>_retry_gave_up_total` counters.
//!
//! A first-attempt success records nothing — fault-free runs keep their
//! telemetry exports byte-identical to pre-retry builds.

use revelio_net::retry::RetryPolicy;

use crate::Telemetry;

/// Fleet-wide counter of retry attempts (excludes first attempts).
pub(crate) const RETRY_ATTEMPTS_TOTAL: &str = "revelio_retry_attempts_total";

/// Runs `op` under `policy`, spending backoff on the telemetry clock and
/// recording retry counters for `component` (a short identifier such as
/// `"kds"`, `"sp"`, `"acme"`).
///
/// Counters written (only when at least one retry happened):
/// `revelio_retry_attempts_total`,
/// `revelio_<component>_retry_attempts_total`, and — when the final
/// result is still a transient failure —
/// `revelio_<component>_retry_gave_up_total`.
///
/// # Errors
///
/// Returns the final error when `op` fails durably or the policy's
/// attempts are exhausted.
pub fn retry_with_telemetry<T, E>(
    policy: &RetryPolicy,
    telemetry: &Telemetry,
    component: &str,
    is_transient: impl Fn(&E) -> bool,
    op: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, E> {
    let (result, attempts) = policy.run(telemetry.clock(), &is_transient, op);
    let retries = u64::from(attempts.saturating_sub(1));
    if retries > 0 {
        telemetry.counter_add(RETRY_ATTEMPTS_TOTAL, retries);
        telemetry.counter_add(
            &format!("revelio_{component}_retry_attempts_total"),
            retries,
        );
    }
    if let Err(e) = &result {
        if is_transient(e) {
            telemetry.counter_add(&format!("revelio_{component}_retry_gave_up_total"), 1);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_net::clock::SimClock;

    #[derive(Debug, PartialEq)]
    enum E {
        Transient,
        Durable,
    }

    fn transient(e: &E) -> bool {
        matches!(e, E::Transient)
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1_000,
            max_backoff_us: 4_000,
            jitter_seed: 0,
        }
    }

    #[test]
    fn first_attempt_success_records_nothing() {
        let t = Telemetry::new(SimClock::new());
        let r = retry_with_telemetry(&policy(), &t, "kds", transient, |_| Ok::<_, E>(1));
        assert_eq!(r, Ok(1));
        assert_eq!(t.counter(RETRY_ATTEMPTS_TOTAL), 0);
        assert_eq!(t.counter("revelio_kds_retry_attempts_total"), 0);
        assert_eq!(t.counter("revelio_kds_retry_gave_up_total"), 0);
    }

    #[test]
    fn retries_are_counted_globally_and_per_component() {
        let t = Telemetry::new(SimClock::new());
        let r = retry_with_telemetry(&policy(), &t, "kds", transient, |attempt| {
            if attempt < 3 {
                Err(E::Transient)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(r, Ok(3));
        assert_eq!(t.counter(RETRY_ATTEMPTS_TOTAL), 2);
        assert_eq!(t.counter("revelio_kds_retry_attempts_total"), 2);
        assert_eq!(t.counter("revelio_kds_retry_gave_up_total"), 0);
        assert!(t.clock().now_us() > 0, "backoff spent simulated time");
    }

    #[test]
    fn exhaustion_records_gave_up() {
        let t = Telemetry::new(SimClock::new());
        let r = retry_with_telemetry(&policy(), &t, "sp", transient, |_| {
            Err::<u32, _>(E::Transient)
        });
        assert_eq!(r, Err(E::Transient));
        assert_eq!(t.counter(RETRY_ATTEMPTS_TOTAL), 2);
        assert_eq!(t.counter("revelio_sp_retry_attempts_total"), 2);
        assert_eq!(t.counter("revelio_sp_retry_gave_up_total"), 1);
    }

    #[test]
    fn durable_failure_is_not_a_gave_up() {
        let t = Telemetry::new(SimClock::new());
        let r = retry_with_telemetry(&policy(), &t, "sp", transient, |_| {
            Err::<u32, _>(E::Durable)
        });
        assert_eq!(r, Err(E::Durable));
        assert_eq!(t.counter(RETRY_ATTEMPTS_TOTAL), 0);
        assert_eq!(t.counter("revelio_sp_retry_gave_up_total"), 0);
        assert_eq!(t.clock().now_us(), 0);
    }
}
