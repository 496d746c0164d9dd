//! Fleet-scale fabric benchmark: provisioning, dial throughput and browse
//! latency of the `SimNet` fabric, plus a telemetry-overhead column.
//!
//! The fabric exists so thousands of simulated nodes can be driven from
//! many OS threads without the fabric being the thing we measure. This
//! module provisions a fleet of listeners, hammers it with concurrent
//! dials and browses from N threads, and reports wall-clock dial
//! throughput plus p50/p99 browse latency. A second pass runs the same
//! dial schedule with sampled tracing and the flight recorder enabled,
//! which is the overhead column. The run is one [`BenchReport`] (mode
//! `fleet`); its one gate, `gates`, holds the tracing overhead on the
//! dial p50 to the 10% budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use revelio::extension::WebExtension;
use revelio::world::SimWorld;
use revelio_net::clock::SimClock;
use revelio_net::net::{ConnectionHandler, Listener, NetConfig, SimNet};
use revelio_net::{FaultPlan, NetError, RetryPolicy};
use revelio_telemetry::{FlightRecorder, Telemetry, DEFAULT_FLIGHT_CAPACITY};

use crate::report::{BenchReport, Cmp, Gate};
use crate::{dim_from_env, percentile};

/// Deterministic span-sampling stride tracing uses on the data path:
/// every N-th dial opens a span; the rest pay only the sampling branch.
/// Control-path spans (attestation, provisioning) are never sampled —
/// they are rare and each one matters. The overhead column measures this
/// configuration, recorder enabled (a clean dial records no event, so
/// the recorder's data-path cost is one branch).
pub(crate) const TRACE_SAMPLE_EVERY: usize = 8;

/// Default fleet size (the acceptance bar is ≥100,000 nodes — "for the
/// masses" means provisioning must stay feasible at six figures, which
/// is exactly what the batched, structurally-shared write path buys).
pub(crate) const DEFAULT_FLEET_NODES: usize = 100_000;
/// Default OS thread count driving the fleet.
pub(crate) const DEFAULT_FLEET_THREADS: usize = 16;
/// Default dials per thread in the throughput phase.
pub(crate) const DEFAULT_FLEET_DIALS: usize = 20_000;
/// Default trial count. Wall-clock noise on a shared CI host only ever
/// *adds* time, so the best of N trials converges on the true cost; five
/// keeps run-to-run figures stable without materially lengthening the
/// benchmark.
pub(crate) const DEFAULT_FLEET_TRIALS: usize = 5;

/// Reads the fleet benchmark dimensions `(nodes, threads, dials, trials)`,
/// honouring the `REVELIO_FLEET_NODES` / `REVELIO_FLEET_THREADS` /
/// `REVELIO_FLEET_DIALS` / `REVELIO_FLEET_TRIALS` environment overrides
/// (the CI smoke job runs a reduced fleet).
///
/// # Errors
///
/// Names the first override that is not a positive integer.
pub fn fleet_dimensions_from_env() -> Result<(usize, usize, usize, usize), String> {
    Ok((
        dim_from_env("REVELIO_FLEET_NODES", DEFAULT_FLEET_NODES)?,
        dim_from_env("REVELIO_FLEET_THREADS", DEFAULT_FLEET_THREADS)?,
        dim_from_env("REVELIO_FLEET_DIALS", DEFAULT_FLEET_DIALS)?,
        dim_from_env("REVELIO_FLEET_TRIALS", DEFAULT_FLEET_TRIALS)?,
    ))
}

/// The fleet gate: sampled tracing plus the enabled flight recorder
/// cost at most 10% on the dial p50.
#[must_use]
pub(crate) fn gates() -> Vec<Gate> {
    vec![Gate::value("p50_overhead_percent", Cmp::Le, 10.0)]
}

/// A modelled fleet node: answers any request with a small page.
struct FleetNode;

impl Listener for FleetNode {
    fn accept(&self) -> Box<dyn ConnectionHandler> {
        struct H;
        impl ConnectionHandler for H {
            fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                Ok(b"<html>fleet page</html>".to_vec())
            }
        }
        Box::new(H)
    }
}

/// One trial's provisioning, dial and browse measurements.
struct FleetTrial {
    /// Wall-clock time to bind the whole fleet (inside one
    /// `SimNet::batch` scope, as `deploy_fleet` provisions), ms.
    provision_ms: f64,
    /// Estimated routing-state footprint per node after provisioning,
    /// bytes. Deterministic (structure sizes and string lengths, no
    /// allocator artifacts), so trials agree on it exactly.
    memory_per_node_bytes: u64,
    dials_total: u64,
    dial_throughput_per_sec: f64,
    browses_total: u64,
    browse_throughput_per_sec: f64,
    browse_p50_us: f64,
    browse_p99_us: f64,
}

/// One trial of the telemetry-overhead column: the same dial workload
/// with tracing (sampled spans, [`TRACE_SAMPLE_EVERY`]) and the flight
/// recorder enabled, against the untraced baseline.
struct OverheadTrial {
    /// Spans the traced side recorded (`⌈dials/stride⌉` per thread).
    spans_recorded: u64,
    /// Flight-recorder events the traced side recorded — 0 on a clean
    /// run, because clean dials are not notable events.
    recorder_events: u64,
    dial_p50_off_us: f64,
    dial_p50_on_us: f64,
    dial_mean_off_us: f64,
    /// Unlike the p50 this averages the sampled spans in.
    dial_mean_on_us: f64,
}

/// Tracing overhead, percent (negative = in the noise).
fn overhead_percent(off: f64, on: f64) -> f64 {
    if off > 0.0 {
        (on / off - 1.0) * 100.0
    } else {
        0.0
    }
}

fn node_address(i: usize) -> String {
    format!("node-{i}.fleet.test:443")
}

fn fleet_net() -> SimNet {
    SimNet::new(
        SimClock::new(),
        NetConfig {
            default_one_way_us: 2_600,
        },
    )
}

/// One trial: provision `nodes` listeners, then a dial-throughput phase
/// and a browse-latency phase across `threads` OS threads.
fn run_trial(nodes: usize, threads: usize, dials_per_thread: usize) -> FleetTrial {
    let net = fleet_net();

    // Provision inside one batch scope, exactly as `deploy_fleet` does:
    // the whole fleet coalesces into a single view republish instead of
    // one copy-on-write rebuild per bind.
    let provision_start = Instant::now();
    net.batch(|net| {
        for i in 0..nodes {
            net.bind(&node_address(i), Arc::new(FleetNode))
                .expect("fresh fleet address");
        }
    });
    let provision_ms = provision_start.elapsed().as_secs_f64() * 1000.0;
    let memory_per_node_bytes = (net.routing_memory_bytes() / nodes.max(1)) as u64;

    // Dial phase: pure fabric lookups (no exchange). Each thread walks
    // the fleet at its own stride so concurrent threads mostly hit
    // different addresses.
    let addresses: Vec<String> = (0..nodes).map(node_address).collect();
    let dials_done = AtomicU64::new(0);
    let dial_start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let net = net.clone();
            let dials_done = &dials_done;
            let addresses = &addresses;
            s.spawn(move || {
                let mut local = 0u64;
                for d in 0..dials_per_thread {
                    let i = (d * (2 * t + 1) + t * 7919) % nodes;
                    let conn = net.dial(&addresses[i]).expect("node is bound");
                    drop(conn);
                    local += 1;
                }
                dials_done.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    let dial_elapsed = dial_start.elapsed().as_secs_f64();
    let dials_total = dials_done.load(Ordering::Relaxed);

    // Browse phase: dial + one request/response exchange per browse, with
    // per-browse wall-clock latency recorded for the percentiles.
    let browses_per_thread = (dials_per_thread / 4).max(1);
    let browse_start = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let net = net.clone();
                let addresses = &addresses;
                s.spawn(move || {
                    let mut local = Vec::with_capacity(browses_per_thread);
                    for b in 0..browses_per_thread {
                        let i = (b * (2 * t + 1) + t * 104_729) % nodes;
                        let t0 = Instant::now();
                        let mut conn = net.dial(&addresses[i]).expect("node is bound");
                        let page = conn.exchange(b"GET /").expect("fleet page");
                        local.push(t0.elapsed().as_secs_f64() * 1e6);
                        assert!(!page.is_empty());
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("browse thread"))
            .collect()
    });
    let browse_elapsed = browse_start.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.total_cmp(b));

    FleetTrial {
        provision_ms,
        memory_per_node_bytes,
        dials_total,
        dial_throughput_per_sec: dials_total as f64 / dial_elapsed.max(1e-9),
        browses_total: latencies_us.len() as u64,
        browse_throughput_per_sec: latencies_us.len() as f64 / browse_elapsed.max(1e-9),
        browse_p50_us: percentile(&latencies_us, 0.50),
        browse_p99_us: percentile(&latencies_us, 0.99),
    }
}

/// Runs the identical dial schedule twice on the fabric — once plain,
/// once with sampled tracing plus an enabled flight recorder — and
/// reports per-dial latency for both passes. Traced dials open a
/// `fleet.dial` span every [`TRACE_SAMPLE_EVERY`]-th iteration; every
/// dial pays the sampling branch and the recorder's is-it-notable check
/// (a clean dial records nothing), which is exactly the production
/// data-path configuration DESIGN.md documents.
fn run_overhead_trial(nodes: usize, threads: usize, dials_per_thread: usize) -> OverheadTrial {
    let net = fleet_net();
    let clock = net.clock().clone();
    for i in 0..nodes {
        net.bind(&node_address(i), Arc::new(FleetNode))
            .expect("fresh fleet address");
    }
    let addresses: Vec<String> = (0..nodes).map(node_address).collect();

    let run_dials = |telemetry: Option<&Telemetry>, recorder: Option<&FlightRecorder>| {
        let mut latencies_us: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let net = net.clone();
                    let addresses = &addresses;
                    s.spawn(move || {
                        let mut local = Vec::with_capacity(dials_per_thread);
                        for d in 0..dials_per_thread {
                            let i = (d * (2 * t + 1) + t * 7919) % nodes;
                            let t0 = Instant::now();
                            let span = telemetry.and_then(|telemetry| {
                                (d % TRACE_SAMPLE_EVERY == 0).then(|| {
                                    telemetry.span_with("fleet.dial", &[("node", &addresses[i])])
                                })
                            });
                            let conn = net.dial(&addresses[i]);
                            if conn.is_err() {
                                // The notable-event branch: never taken on
                                // a clean run, always compiled in.
                                if let Some(recorder) = recorder {
                                    recorder.record("fault", "dial failed");
                                }
                            }
                            drop(conn);
                            if let Some(span) = span {
                                span.finish_ms();
                            }
                            local.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("dial thread"))
                .collect()
        });
        latencies_us.sort_by(|a, b| a.total_cmp(b));
        let p50 = latencies_us[(latencies_us.len() - 1) / 2];
        let mean = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
        (p50, mean)
    };

    let (dial_p50_off_us, dial_mean_off_us) = run_dials(None, None);
    let telemetry = Telemetry::new(clock.clone());
    let recorder = FlightRecorder::new(clock, DEFAULT_FLIGHT_CAPACITY);
    let (dial_p50_on_us, dial_mean_on_us) = run_dials(Some(&telemetry), Some(&recorder));

    OverheadTrial {
        spans_recorded: telemetry.span_count() as u64,
        recorder_events: recorder.dump().events.len() as u64,
        dial_p50_off_us,
        dial_p50_on_us,
        dial_mean_off_us,
        dial_mean_on_us,
    }
}

/// The best of `trials` by `pick` (`f64::min` or `f64::max`).
fn best<T>(trials: &[T], figure: impl Fn(&T) -> f64, pick: fn(f64, f64) -> f64) -> f64 {
    trials
        .iter()
        .map(figure)
        .reduce(pick)
        .expect("at least one trial")
}

/// Provisions a `nodes`-listener fleet and measures dial throughput and
/// browse latency across `threads` OS threads, then the telemetry
/// overhead on the same dial schedule. Each of the `trials` rounds runs
/// both. Scheduler noise only ever slows a trial down, so every
/// wall-clock figure reports its best round. The deterministic counters
/// agree across trials and come from the first.
///
/// # Panics
///
/// Panics if a bind collides or a worker thread dies — either is a
/// benchmark-invalidating bug, not a measurement. Also panics if
/// `trials` is zero.
#[must_use]
pub fn run_fabric_bench(
    nodes: usize,
    threads: usize,
    dials_per_thread: usize,
    trials: usize,
) -> BenchReport {
    assert!(trials > 0, "at least one trial");
    let mut fleet = Vec::with_capacity(trials);
    let mut overhead = Vec::with_capacity(trials);
    for _ in 0..trials {
        fleet.push(run_trial(nodes, threads, dials_per_thread));
        overhead.push(run_overhead_trial(nodes, threads, dials_per_thread));
    }
    let (first, first_overhead) = (&fleet[0], &overhead[0]);

    let mut report = BenchReport::new(
        "fleet",
        &[
            ("nodes", nodes as u64),
            ("threads", threads as u64),
            ("dials_per_thread", dials_per_thread as u64),
            ("trials", trials as u64),
            ("trace_sample_every", TRACE_SAMPLE_EVERY as u64),
        ],
    );
    let min = f64::min;
    let max = f64::max;
    report.wall("provision_ms", "ms", best(&fleet, |t| t.provision_ms, min));
    report.count(
        "memory_per_node_bytes",
        "bytes",
        first.memory_per_node_bytes as f64,
    );
    report.count("dials_total", "dials", first.dials_total as f64);
    report.wall(
        "wall_dial_throughput_per_sec",
        "1/s",
        best(&fleet, |t| t.dial_throughput_per_sec, max),
    );
    report.count("browses_total", "browses", first.browses_total as f64);
    report.wall(
        "browse_throughput_per_sec",
        "1/s",
        best(&fleet, |t| t.browse_throughput_per_sec, max),
    );
    report.wall(
        "browse_p50_us",
        "us",
        best(&fleet, |t| t.browse_p50_us, min),
    );
    report.wall(
        "browse_p99_us",
        "us",
        best(&fleet, |t| t.browse_p99_us, min),
    );

    report.count(
        "spans_recorded",
        "spans",
        first_overhead.spans_recorded as f64,
    );
    report.count(
        "recorder_events",
        "events",
        first_overhead.recorder_events as f64,
    );
    let p50_off = best(&overhead, |t| t.dial_p50_off_us, min);
    let p50_on = best(&overhead, |t| t.dial_p50_on_us, min);
    let mean_off = best(&overhead, |t| t.dial_mean_off_us, min);
    let mean_on = best(&overhead, |t| t.dial_mean_on_us, min);
    report.wall("dial_p50_off_us", "us", p50_off);
    report.wall("dial_p50_on_us", "us", p50_on);
    report.wall("dial_mean_off_us", "us", mean_off);
    report.wall("dial_mean_on_us", "us", mean_on);
    report.wall(
        "p50_overhead_percent",
        "%",
        overhead_percent(p50_off, p50_on),
    );
    report.wall(
        "mean_overhead_percent",
        "%",
        overhead_percent(mean_off, mean_on),
    );
    report.gates = gates();
    report
}

/// One point of the retry-budget ablation.
#[derive(Debug, Clone)]
pub struct RetryAblationPoint {
    /// `max_attempts` of the browsing extension's retry policy.
    pub max_attempts: u32,
    /// Cold attested browses that reached a verdict (out of `samples`).
    pub successes: usize,
    /// Total browses attempted.
    pub samples: usize,
    /// Median attestation latency over successful browses, sim-clock ms.
    pub p50_ms: f64,
    /// 95th-percentile attestation latency (the tail the budget buys),
    /// sim-clock ms.
    pub p95_ms: f64,
}

/// Retry budget vs. attestation tail latency under loss: a fleet with a
/// lossy KDS link (`drop_probability`), cold-browsed `samples` times per
/// extension retry budget. Small budgets give up (lower success rate);
/// larger budgets convert losses into tail latency. All timings are
/// sim-clock, so the ablation is deterministic.
///
/// # Panics
///
/// Panics if the fleet fails to deploy (faults only start afterwards).
#[must_use]
pub fn run_retry_ablation(
    budgets: &[u32],
    drop_probability: f64,
    samples: usize,
) -> Vec<RetryAblationPoint> {
    budgets
        .iter()
        .map(|&max_attempts| {
            let mut world = SimWorld::new(9000 + u64::from(max_attempts));
            let fleet = world
                .deploy_fleet("tail.example.org", 1, revelio::node::demo_app())
                .expect("fleet deploys");
            world
                .net
                .set_fault_seed(0xAB1A_7E00 + u64::from(max_attempts));
            let _ = world
                .net
                .peer(revelio::kds_http::KDS_ADDRESS)
                .fault_plan(FaultPlan {
                    drop_probability,
                    ..FaultPlan::default()
                });
            let retry = RetryPolicy {
                max_attempts,
                ..WebExtension::default_retry_policy()
            };
            let mut latencies = Vec::new();
            for _ in 0..samples {
                // A fresh extension per sample: every browse pays the cold
                // KDS fetch the faults are installed on.
                let extension = world.extension().with_retry_policy(retry.clone());
                extension.register_site("tail.example.org", vec![fleet.golden_measurement]);
                if let Ok(outcome) = extension.browse("tail.example.org", "/") {
                    latencies.push(outcome.timing.total_ms);
                }
            }
            latencies.sort_by(|a, b| a.total_cmp(b));
            RetryAblationPoint {
                max_attempts,
                successes: latencies.len(),
                samples,
                p50_ms: percentile(&latencies, 0.50),
                p95_ms: percentile(&latencies, 0.95),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_bench_small_fleet_completes() {
        // Wall-clock figures are never asserted — machines differ. Two
        // trials exercise the best-of fold.
        let report = run_fabric_bench(32, 4, 64, 2);
        let figure = |name: &str| report.metric(name).expect(name);
        assert_eq!(report.dims[0], ("nodes", 32));
        assert_eq!(figure("dials_total"), (4 * 64) as f64);
        assert!(figure("browses_total") > 0.0, "ran no browses");
        assert!(figure("browse_p99_us") >= figure("browse_p50_us"));
        assert!(figure("wall_dial_throughput_per_sec") > 0.0);
        // The memory column is deterministic and never zero for a
        // provisioned fleet.
        assert!(figure("memory_per_node_bytes") > 0.0);
    }

    #[test]
    fn fabric_report_json_carries_the_fleet_and_overhead_figures() {
        let json = run_fabric_bench(8, 2, 16, 1).to_json();
        for key in [
            "\"mode\":\"fleet\"",
            "\"trials\":1",
            "\"provision_ms\"",
            "\"wall_dial_throughput_per_sec\"",
            "\"browse_p99_us\"",
            "\"memory_per_node_bytes\"",
            "\"p50_overhead_percent\"",
            "\"metric\":\"p50_overhead_percent\",\"cmp\":\"<=\",\"bound\":10",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn overhead_column_samples_spans_and_records_nothing_clean() {
        let report = run_fabric_bench(8, 2, 16, 1);
        let figure = |name: &str| report.metric(name).expect(name);
        // The overhead pass dials the same schedule as the dial phase,
        // and every thread samples ⌈16/8⌉ = 2 spans.
        assert_eq!(figure("spans_recorded"), (2 * 2) as f64);
        // A clean run is not notable: the enabled recorder stays empty.
        assert_eq!(figure("recorder_events"), 0.0);
        assert!(figure("dial_p50_off_us") > 0.0);
        assert!(figure("dial_p50_on_us") > 0.0);
    }

    #[test]
    fn retry_ablation_larger_budget_never_hurts_success_rate() {
        let points = run_retry_ablation(&[1, 4], 0.4, 12);
        assert_eq!(points.len(), 2);
        assert!(
            points[1].successes >= points[0].successes,
            "budget 4 ({}) should succeed at least as often as budget 1 ({})",
            points[1].successes,
            points[0].successes,
        );
        // With a meaningful budget under 40% loss, most browses land.
        assert!(points[1].successes * 2 > points[1].samples);
    }
}
