//! Fixed-bucket histograms with percentile queries.

/// Default bucket upper bounds (milliseconds) for auto-registered latency
/// histograms: roughly logarithmic from 10 µs to 100 s.
pub(crate) const DEFAULT_LATENCY_BOUNDS_MS: &[f64] = &[
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10_000.0, 100_000.0,
];

/// Why [`Telemetry::register_histogram`](crate::Telemetry::register_histogram)
/// rejected a histogram's bucket bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BucketBoundsError {
    /// A bound is NaN or infinite; the `+Inf` overflow bucket is implicit.
    NonFinite { bound: f64 },
    /// Two adjacent bounds are not strictly increasing.
    NotIncreasing { below: f64, above: f64 },
}

impl std::fmt::Display for BucketBoundsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BucketBoundsError::NonFinite { bound } => write!(
                f,
                "non-finite bucket bound {bound} (the +Inf overflow bucket is implicit; every explicit bound must be finite)"
            ),
            BucketBoundsError::NotIncreasing { below, above } => write!(
                f,
                "bucket bounds must be strictly increasing, got {below} followed by {above}"
            ),
        }
    }
}

impl std::error::Error for BucketBoundsError {}

/// A fixed-bucket histogram. `counts` has one slot per bound plus a final
/// overflow (`+Inf`) slot; a value lands in the first bucket whose bound is
/// `>=` the value (Prometheus `le` semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given upper bounds (an implicit
    /// `+Inf` overflow bucket is appended).
    ///
    /// # Panics
    ///
    /// Panics when bounds are non-finite or not strictly increasing:
    /// [`Histogram::observe`] picks the first bound `>=` the value, so
    /// misordered or NaN bounds would silently misbucket forever.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bucket bounds must be finite (the +Inf overflow bucket is implicit), got {bounds:?}"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bucket bounds must be strictly increasing, got {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum / n as f64)
    }

    /// Smallest / largest observation, `None` when empty.
    #[must_use]
    pub fn min_max(&self) -> Option<(f64, f64)> {
        (self.count() > 0).then_some((self.min, self.max))
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts including the final overflow slot.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// containing it — the usual fixed-bucket estimate. Observations in
    /// the overflow bucket report the largest value seen. Empty
    /// histograms return `None`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the target observation, 1-based, ceil semantics.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// 95th percentile estimate.
    #[must_use]
    pub fn p95(&self) -> Option<f64> {
        self.percentile(0.95)
    }

    /// 99th percentile estimate.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(1.0); // lands in the 1.0 bucket (le semantics)
        h.observe(1.000_001); // lands in the 2.0 bucket
        h.observe(4.0); // last real bucket
        h.observe(4.1); // overflow
        h.observe(3.0); // 4.0 bucket
        assert_eq!(h.counts(), &[1, 1, 2, 1]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0, 10.0]);
        for _ in 0..50 {
            h.observe(0.5); // bucket le=1.0
        }
        for _ in 0..45 {
            h.observe(1.5); // bucket le=2.0
        }
        for _ in 0..5 {
            h.observe(4.0); // bucket le=5.0
        }
        assert_eq!(h.p50(), Some(1.0));
        assert_eq!(h.p95(), Some(2.0));
        assert_eq!(h.p99(), Some(5.0));
        assert_eq!(h.percentile(1.0), Some(5.0));
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(250.0);
        h.observe(90.0);
        assert_eq!(h.p99(), Some(250.0));
        assert_eq!(h.p50(), Some(250.0));
        assert_eq!(h.min_max(), Some((90.0, 250.0)));
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min_max(), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(1.0), None);
    }

    #[test]
    fn out_of_range_quantile_rejected() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        assert_eq!(h.percentile(-0.1), None);
        assert_eq!(h.percentile(1.1), None);
        assert_eq!(h.percentile(0.0), Some(1.0));
    }

    #[test]
    fn single_observation_all_percentiles_agree() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.5);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(2.0), "q={q}");
        }
    }

    #[test]
    fn mean_and_sum_track_observations() {
        let mut h = Histogram::new(&[10.0]);
        h.observe(2.0);
        h.observe(4.0);
        assert_eq!(h.sum(), 6.0);
        assert_eq!(h.mean(), Some(3.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn count_matches_observations(values in proptest::collection::vec(0u64..2000, 0..50)) {
            let mut h = Histogram::new(&[1.0, 10.0, 100.0, 1000.0]);
            for v in &values {
                h.observe(*v as f64);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            if !values.is_empty() {
                let p50 = h.p50().unwrap();
                let p99 = h.p99().unwrap();
                prop_assert!(p50 <= p99);
                let max = *values.iter().max().unwrap() as f64;
                prop_assert!(p99 <= 1000.0_f64.max(max));
            }
        }
    }
}
