//! The shared virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable handle to a virtual clock measured in microseconds.
///
/// The clock only moves when simulated work advances it — wall time never
/// leaks in, so simulations are bit-reproducible across machines.
///
/// Internally the counter is a lock-free atomic: thousands of concurrent
/// connections advancing simulated time from different OS threads never
/// serialize on a mutex, which keeps the clock out of the way when the
/// fabric is benchmarked under heavy thread counts.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current time in microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }

    /// Current time in milliseconds (fractional).
    #[must_use]
    pub fn now_ms(&self) -> f64 {
        self.now_us() as f64 / 1000.0
    }

    /// Advances the clock by `us` microseconds, saturating at the end of
    /// simulated time rather than panicking (long fuzz runs feed this
    /// arbitrary deltas).
    pub fn advance_us(&self, us: u64) {
        if us == 0 {
            return;
        }
        // A CAS loop rather than `fetch_add`, so the saturation guarantee
        // survives concurrent advances near `u64::MAX`.
        let _ = self
            .micros
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
                Some(now.saturating_add(us))
            });
    }

    /// Advances the clock by (fractional) milliseconds.
    ///
    /// The clock cannot run backwards: negative and NaN deltas are clamped
    /// to zero instead of being debug-asserted, so release builds fed
    /// adversarial input behave identically to debug builds.
    pub fn advance_ms(&self, ms: f64) {
        if ms.is_nan() || ms <= 0.0 {
            return;
        }
        self.advance_us((ms * 1000.0) as u64);
    }

    /// Measures the simulated duration of `f` in milliseconds.
    pub fn time_ms<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ms();
        let out = f();
        (out, self.now_ms() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance_us(1500);
        assert_eq!(c.now_us(), 1500);
        assert!((c.now_ms() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_ms(2.0);
        assert_eq!(b.now_us(), 2000);
    }

    #[test]
    fn advance_us_saturates_instead_of_panicking() {
        let c = SimClock::new();
        c.advance_us(u64::MAX - 10);
        c.advance_us(u64::MAX);
        c.advance_us(1);
        assert_eq!(c.now_us(), u64::MAX);
    }

    #[test]
    fn advance_ms_clamps_negative_and_nan() {
        let c = SimClock::new();
        c.advance_ms(3.0);
        c.advance_ms(-250.0);
        c.advance_ms(f64::NAN);
        c.advance_ms(-0.0);
        assert_eq!(c.now_us(), 3000);
    }

    #[test]
    fn time_ms_measures_inner_advances() {
        let c = SimClock::new();
        c.advance_ms(10.0);
        let (val, elapsed) = c.time_ms(|| {
            c.advance_ms(5.25);
            42
        });
        assert_eq!(val, 42);
        assert!((elapsed - 5.25).abs() < 1e-9);
    }

    #[test]
    fn concurrent_advances_all_land() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance_us(3);
                    }
                });
            }
        });
        assert_eq!(c.now_us(), 8 * 1000 * 3);
    }
}
