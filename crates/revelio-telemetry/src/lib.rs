//! Deterministic telemetry for the Revelio simulation.
//!
//! Every duration in this crate comes from the shared [`SimClock`] — wall
//! time never leaks in — so two runs with the same seed produce
//! byte-identical exports. That property is what lets the bench harness
//! publish machine-independent latency breakdowns and lets the tier-1
//! suite assert reproducibility of the whole attestation pipeline.
//!
//! The crate provides:
//!
//! * a span API ([`Telemetry::span`]) for named, nested, attributed spans
//!   whose durations are read off the sim clock, held in a fixed-size
//!   window of recent traces so a long-lived registry stops growing;
//! * counters, gauges, and fixed-bucket histograms with p50/p95/p99
//!   queries ([`Telemetry::observe`], [`Histogram::percentile`]);
//! * three exporters: a JSON-lines event log
//!   ([`Telemetry::export_json_lines`]), Prometheus-style text exposition
//!   ([`Telemetry::export_prometheus`]), and a per-span-tree latency
//!   breakdown table ([`Telemetry::breakdown`]);
//! * [`DeviceProbe`], a hook the storage layer uses to charge simulated
//!   I/O time and record per-device metrics.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![deny(unsafe_code)]

mod export;
pub mod flight;
mod metrics;
mod probe;
pub mod retry;
mod span;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use revelio_net::clock::SimClock;

pub use export::{labeled_metric, prometheus_escape_label};
pub use flight::{
    FlightDirectory, FlightDump, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY,
};
pub use metrics::{BucketBoundsError, Histogram};
pub use probe::DeviceProbe;
pub use retry::retry_with_telemetry;
use span::SpanWindow;
pub use span::{SpanGuard, SpanRecord, TraceContext};
pub use trace::{export_all_traces, TraceAssembler};

// Re-exported so crates that don't otherwise depend on `revelio-net` (e.g.
// `revelio-storage`) can construct a clock-driven registry.
pub use revelio_net::clock::SimClock as TelemetryClock;

/// Interior state behind the shared handle.
#[derive(Debug, Default)]
pub(crate) struct State {
    pub(crate) spans: SpanWindow,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
}

impl State {
    fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(value) => *value = value.saturating_add(delta),
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Counts spans evicted from the window; the counter only appears
    /// once a span has been evicted.
    pub(crate) fn count_dropped(&mut self, dropped: u64) {
        if dropped > 0 {
            self.counter_add(span::SPANS_DROPPED_COUNTER, dropped);
        }
    }
}

#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) clock: SimClock,
    pub(crate) state: Mutex<State>,
}

/// A cloneable handle to a telemetry registry bound to one [`SimClock`].
///
/// Clones share state: `SimWorld` creates one handle and threads clones to
/// every component it constructs, so all spans land in a single tree.
#[derive(Debug, Clone)]
pub struct Telemetry {
    pub(crate) inner: Arc<Inner>,
}

impl Telemetry {
    /// Creates an empty registry driven by `clock`.
    #[must_use]
    pub fn new(clock: SimClock) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                clock,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The clock durations are read from.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Adds `delta` to the named monotonic counter (created on first use).
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.inner.state.lock().counter_add(name, delta);
    }

    /// Sets the named gauge to `value` (created on first use).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner
            .state
            .lock()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Registers a histogram with explicit bucket upper bounds (strictly
    /// increasing and finite, exclusive of the implicit `+Inf` overflow
    /// bucket). Re-registering an existing name keeps the original
    /// buckets.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite bound or bounds that are not strictly
    /// increasing, registering nothing: misordered bounds would silently
    /// misbucket every observation.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) -> Result<(), BucketBoundsError> {
        if let Some(&bound) = bounds.iter().find(|b| !b.is_finite()) {
            return Err(BucketBoundsError::NonFinite { bound });
        }
        if let Some(&[below, above]) = bounds.windows(2).find(|w| w[0] >= w[1]) {
            return Err(BucketBoundsError::NotIncreasing { below, above });
        }
        let mut state = self.inner.state.lock();
        if !state.histograms.contains_key(name) {
            state
                .histograms
                .insert(name.to_string(), Histogram::new(bounds));
        }
        Ok(())
    }

    /// Records `value` into the named histogram, auto-registering it with
    /// the default latency buckets when absent.
    ///
    /// The steady-state path allocates nothing: `name` is only turned
    /// into an owned key on the first observation. (`BTreeMap::entry`
    /// would allocate the `String` on *every* call just to look it up.)
    pub fn observe(&self, name: &str, value: f64) {
        let mut state = self.inner.state.lock();
        match state.histograms.get_mut(name) {
            Some(hist) => hist.observe(value),
            None => {
                let mut hist = Histogram::new(metrics::DEFAULT_LATENCY_BOUNDS_MS);
                hist.observe(value);
                state.histograms.insert(name.to_string(), hist);
            }
        }
    }

    /// Reads a counter (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .state
            .lock()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Reads a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.state.lock().gauges.get(name).copied()
    }

    /// Snapshot of a histogram for percentile queries.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.state.lock().histograms.get(name).cloned()
    }

    /// Durations (ms) of every *finished* span in the window with the
    /// given name, in recording order.
    #[must_use]
    pub fn span_durations_ms(&self, name: &str) -> Vec<f64> {
        let state = self.inner.state.lock();
        state
            .spans
            .by_id()
            .into_iter()
            .filter(|s| s.name == name)
            .filter_map(SpanRecord::duration_ms)
            .collect()
    }

    /// Spans recorded over the registry's life (finished or open),
    /// evicted ones included.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.inner.state.lock().spans.recorded() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let t = Telemetry::new(SimClock::new());
        t.counter_add("revelio_test_ops_total", 2);
        t.counter_add("revelio_test_ops_total", 3);
        t.gauge_set("revelio_test_depth", 4.5);
        assert_eq!(t.counter("revelio_test_ops_total"), 5);
        assert_eq!(t.gauge("revelio_test_depth"), Some(4.5));
        assert_eq!(t.counter("never_touched"), 0);
        assert_eq!(t.gauge("never_touched"), None);
    }

    #[test]
    fn counter_saturates() {
        let t = Telemetry::new(SimClock::new());
        t.counter_add("c", u64::MAX - 1);
        t.counter_add("c", 5);
        assert_eq!(t.counter("c"), u64::MAX);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new(SimClock::new());
        let u = t.clone();
        t.counter_add("shared", 1);
        assert_eq!(u.counter("shared"), 1);
    }

    #[test]
    fn valid_histogram_bounds_accepted() {
        let t = Telemetry::new(SimClock::new());
        t.register_histogram("h", &[0.5, 1.0, 10.0]).unwrap();
        t.observe("h", 0.7);
        assert_eq!(t.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn misordered_histogram_bounds_rejected() {
        let t = Telemetry::new(SimClock::new());
        let err = t.register_histogram("h", &[1.0, 1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            BucketBoundsError::NotIncreasing {
                below: 1.0,
                above: 1.0
            }
        );
        assert!(err.to_string().contains("strictly increasing"), "{err}");
        assert!(t.histogram("h").is_none(), "nothing registered");
    }

    #[test]
    fn non_finite_histogram_bounds_rejected() {
        let t = Telemetry::new(SimClock::new());
        let err = t
            .register_histogram("h", &[1.0, f64::INFINITY])
            .unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        assert!(t.histogram("h").is_none(), "nothing registered");
    }

    #[test]
    fn nan_histogram_bounds_rejected() {
        let t = Telemetry::new(SimClock::new());
        let err = t.register_histogram("h", &[f64::NAN]).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }
}
