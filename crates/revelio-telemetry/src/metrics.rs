//! Fixed-bucket histograms.

/// Bucket upper bounds (milliseconds) of every histogram: roughly
/// logarithmic from 10 µs to 100 s. Finite and strictly increasing, as
/// [`Histogram::observe`]'s first-bound-`>=` search needs.
pub(crate) const LATENCY_BOUNDS_MS: [f64; 20] = [
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10_000.0, 100_000.0,
];

/// A histogram over [`LATENCY_BOUNDS_MS`]. `counts` has one slot per
/// bound plus a final overflow (`+Inf`) slot; a value lands in the first
/// bucket whose bound is `>=` the value (Prometheus `le` semantics).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Histogram {
    counts: [u64; LATENCY_BOUNDS_MS.len() + 1],
    sum: f64,
}

impl Histogram {
    /// Records one observation.
    pub(crate) fn observe(&mut self, value: f64) {
        let idx = LATENCY_BOUNDS_MS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.counts[idx] += 1;
        self.sum += value;
    }

    /// Total number of observations.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observations.
    #[must_use]
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket counts including the final overflow slot.
    #[must_use]
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bounds_are_finite_and_strictly_increasing() {
        assert!(LATENCY_BOUNDS_MS.iter().all(|b| b.is_finite()));
        assert!(LATENCY_BOUNDS_MS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::default();
        h.observe(1.0); // lands in the 1.0 bucket (le semantics)
        h.observe(1.000_001); // lands in the 2.5 bucket
        h.observe(100_000.0); // last real bucket
        h.observe(100_000.1); // overflow
        h.observe(2.5); // 2.5 bucket
        let bucket = |bound: f64| LATENCY_BOUNDS_MS.iter().position(|&b| b == bound).unwrap();
        let mut expected = [0; LATENCY_BOUNDS_MS.len() + 1];
        expected[bucket(1.0)] = 1;
        expected[bucket(2.5)] = 2;
        expected[bucket(100_000.0)] = 1;
        expected[LATENCY_BOUNDS_MS.len()] = 1;
        assert_eq!(h.counts(), &expected);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn sum_tracks_observations() {
        let mut h = Histogram::default();
        assert_eq!(h.count(), 0);
        h.observe(2.0);
        h.observe(4.0);
        assert_eq!(h.sum(), 6.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn count_matches_observations(values in proptest::collection::vec(0u64..200_000, 0..50)) {
            let mut h = Histogram::default();
            for v in &values {
                h.observe(*v as f64);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
        }
    }
}
