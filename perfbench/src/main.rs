//! perfbench: the Revelio stack's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <attest-cold|revisit|transfer|provision>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! NOTES.md defines every workload and metric.

mod fixture;
mod host;
mod kernels;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fixture::Inputs;
use host::HostProbe;
use stats::{median, percentile, proc_status_kb, samples_beyond};
use workload::{Bench, Counts, OpOutcome, Workload, TRANSFER_MIB};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A traced run is within this share of the untraced `p50_ms` when the
/// layer self-times reconcile with it.
const RECONCILE_BOUND_PCT: f64 = 20.0;
/// The percentile behind `tail_ms`, on every workload. On a shared VM the
/// highest percentile with ten samples beyond it (p99 and up at these op
/// counts) measures host stalls, not the program: attest-cold's p99 moved
/// 5.5 -> 14.3 ms between identical runs while its p90 moved 8%. NOTES.md
/// records the measurements.
const TAIL_PERCENTILE: f64 = 90.0;
/// Windows of consecutive ops a run is split into. Each op's latency is
/// rescaled by the host-probe reading taken before it (see `host`), and
/// `p50_ms`, `tail_ms` and `ops_per_s` come from the slower half of the
/// windows, so a host stall or speed burst shorter than half the run
/// moves no reported value.
const WINDOWS: usize = 20;
/// How often the host probe is sampled between ops.
const PROBE_EVERY: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => trace = Some(value == "1"),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// Metrics in report order: `(name, value, unit)`.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Prints the metrics one per line, then the JSON result line.
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>14.4} {unit}");
        }
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let inputs = Inputs::from_seed(args.seed);
    let probe = HostProbe::new();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut raw_setup_s = Vec::with_capacity(reps);
    let mut bench = None;
    for _ in 0..reps {
        drop(bench.take());
        let before_us = probe.sample_us();
        let start = Instant::now();
        bench = Some(Bench::setup(args.workload, args.seed, &inputs)?);
        let seconds = start.elapsed().as_secs_f64();
        let probe_us = (before_us + probe.sample_us()) / 2.0;
        raw_setup_s.push(seconds);
        setup_s.push(seconds * host::rescale(probe_us, args.workload.host_sensitivity()));
    }
    let mut bench = bench.ok_or("no set-up ran")?;
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        traced_run(&mut bench, budget, &args)?
    } else {
        println!("set-up: median {:.4} s as measured", median(&raw_setup_s));
        end_to_end_run(&mut bench, &probe, budget, median(&setup_s))
    };
    report.print();
    Ok(())
}

/// Untraced ops for `budget`; returns them with the host-probe reading
/// current at each op and the VmHWM at the workload's RSS checkpoint.
fn timed_loop(
    bench: &mut Bench,
    probe: &HostProbe,
    budget: Duration,
) -> (Vec<OpOutcome>, Vec<f64>, u64) {
    let checkpoint = bench.workload.rss_checkpoint();
    let mut ops = Vec::new();
    let mut probe_us = Vec::new();
    let mut hwm_kb = None;
    let (mut reading, mut next_sample) = (0.0, Instant::now());
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if Instant::now() >= next_sample {
            reading = probe.sample_us();
            next_sample = Instant::now() + PROBE_EVERY;
        }
        probe_us.push(reading);
        ops.push(bench.run_op(false));
        if ops.len() == checkpoint {
            hwm_kb = Some(proc_status_kb("VmHWM"));
        }
    }
    if hwm_kb.is_none() {
        println!(
            "note: run ended at {} ops, before the RSS checkpoint of {checkpoint}",
            ops.len()
        );
    }
    let hwm_kb = hwm_kb.unwrap_or_else(|| proc_status_kb("VmHWM"));
    (ops, probe_us, hwm_kb)
}

fn millis(ops: &[OpOutcome], f: impl Fn(&OpOutcome) -> Duration) -> Vec<f64> {
    ops.iter().map(|o| f(o).as_secs_f64() * 1e3).collect()
}

/// The slower half of `WINDOWS` equal windows of consecutive ops, each
/// op's latency rescaled by the probe reading taken just before it.
fn contended(latency: &[f64], probe_us: &[f64], sensitivity: f64) -> Vec<Vec<f64>> {
    let n = latency.len();
    let k = WINDOWS.clamp(1, n.max(1));
    let mut windows: Vec<Vec<f64>> = (0..k)
        .map(|i| {
            let ops = i * n / k..(i + 1) * n / k;
            latency[ops.clone()]
                .iter()
                .zip(&probe_us[ops])
                .map(|(ms, &us)| ms * host::rescale(us, sensitivity))
                .collect()
        })
        .collect();
    windows.sort_by(|a, b| median(a).total_cmp(&median(b)));
    windows.split_off(k / 2)
}

fn end_to_end_run(bench: &mut Bench, probe: &HostProbe, budget: Duration, setup_s: f64) -> Report {
    let workload = bench.workload;
    let (ops, probe_us, hwm_kb) = timed_loop(bench, probe, budget);
    let mut report = Report::default();
    for op in &ops {
        report.count(op.ok);
    }
    let latency = millis(&ops, |o| o.latency);
    let q = TAIL_PERCENTILE;
    let slow_windows = contended(&latency, &probe_us, workload.host_sensitivity());
    let slow = slow_windows.concat();
    // Ops per busy second of each window, then the median window, so one
    // window's stall does not move it the way it moves a pooled mean.
    let rates: Vec<f64> = slow_windows
        .iter()
        .map(|w| w.len() as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect();
    println!(
        "workload {}: {} ops, fail_ratio {}; host probe median {:.2} us (nominal {}); \
         p50/tail/ops_per_s rescaled, over the slower half of {WINDOWS} windows: n={} \
         ({} samples beyond p{q}); all ops as measured: p50 {:.4} ms, p{q} {:.4} ms, \
         p99 {:.4} ms, p99.9 {:.4} ms",
        workload.name(),
        ops.len(),
        report.failed as f64 / ops.len().max(1) as f64,
        median(&probe_us),
        host::NOMINAL_US,
        slow.len(),
        samples_beyond(slow.len(), q),
        median(&latency),
        percentile(&latency, q),
        percentile(&latency, 99.0),
        percentile(&latency, 99.9),
    );
    if workload == Workload::Transfer {
        let post = median(&millis(&ops, |o| o.post));
        let get = median(&millis(&ops, |o| o.get));
        println!(
            "transfer: read_mib_s {:.3} (GET p50 {get:.3} ms), write_mib_s {:.3} (POST p50 {post:.3} ms)",
            TRANSFER_MIB / (get / 1e3),
            TRANSFER_MIB / (post / 1e3),
        );
    }
    let sim_ms: Vec<f64> = ops.iter().map(|o| o.sim_us as f64 / 1e3).collect();
    report.push("setup_s", setup_s, "s");
    report.push("ops_per_s", median(&rates), "1/s");
    report.push("p50_ms", median(&slow), "ms");
    report.push("tail_ms", percentile(&slow, q), "ms");
    report.push("peak_rss_mb", hwm_kb as f64 / 1024.0, "MB");
    report.push("sim_ms_per_op", median(&sim_ms), "sim_ms");
    report
}

/// Median span duration of `name` in µs, preferring the workload's own
/// ops over probe ops.
fn span_us(spans: &[trace::Span], name: &str) -> f64 {
    let pick = |probe: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.probe == probe)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    };
    let own = pick(false);
    median(&if own.is_empty() { pick(true) } else { own })
}

fn traced_run(bench: &mut Bench, budget: Duration, args: &Args) -> Result<Report, String> {
    let workload = bench.workload;
    let start = Instant::now();
    let mut report = Report::default();

    // Exact counts over a fixed number of ops.
    let n = workload.count_ops();
    let mut counts = Counts::default();
    for _ in 0..n {
        let op = bench.run_op(true);
        report.count(op.ok);
        counts = counts.plus(op.counts.unwrap_or_default());
    }

    // Memory retained per op, over a fixed number of untraced ops.
    let rss_before = proc_status_kb("VmRSS");
    for _ in 0..workload.mem_ops() {
        report.count(bench.run_op(false).ok);
    }
    let retained_kb =
        proc_status_kb("VmRSS").saturating_sub(rss_before) as f64 / workload.mem_ops() as f64;

    // Untraced and traced ops alternate, so both see the same host speed:
    // the untraced ones are the baseline the trace is reconciled against.
    let mut untraced_ms = Vec::new();
    let mut traced = 0;
    let deadline = start + budget.mul_f64(0.8);
    while traced < 3 || Instant::now() < deadline {
        let op = bench.run_op(false);
        report.count(op.ok);
        untraced_ms.push(op.latency.as_secs_f64() * 1e3);
        trace::set_enabled(true);
        report.count(bench.run_traced(workload, false));
        trace::set_enabled(false);
        traced += 1;
    }
    let untraced_p50_ms = median(&untraced_ms);

    // A few traced ops of every other workload, so each per-layer metric
    // has samples.
    trace::set_enabled(true);
    for kind in Workload::ALL.into_iter().filter(|&k| k != workload) {
        for _ in 0..kind.probe_ops() {
            report.count(bench.run_traced(kind, true));
        }
    }
    trace::set_enabled(false);
    let spans = trace::spans();
    let (kernels, kernel_failures) = kernels::kernel_metrics(&bench.fx.world.net);
    report.attempted += 1;
    report.failed += u64::from(kernel_failures > 0);

    // Reconciliation: the per-op self time of every span the workload's
    // traced ops recorded, against the untraced p50.
    let by_name = trace::self_time_by_name(&spans);
    let root = format!("op.{}", workload.name().replace('-', "_"));
    let traced_p50_ms = span_us(&spans, &root) / 1e3;
    println!(
        "self time per {} op (median over {traced} traced ops):",
        workload.name()
    );
    let mut attributed_ms = 0.0;
    for (name, per_op) in &by_name {
        let ms = median(&per_op.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>());
        println!("  {name:<28} {ms:>12.4} ms");
        if *name != root {
            attributed_ms += ms;
        }
    }
    let overhead_pct = 100.0 * (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms;
    let unattributed_pct = 100.0 * (untraced_p50_ms - attributed_ms) / untraced_p50_ms;
    println!(
        "untraced p50 {untraced_p50_ms:.4} ms over {} ops; traced p50 {traced_p50_ms:.4} ms; \
         layers account for {attributed_ms:.4} ms; reconciled within {RECONCILE_BOUND_PCT}%: {}",
        untraced_ms.len(),
        unattributed_pct.abs() <= RECONCILE_BOUND_PCT
    );
    if let Some(dir) = &args.trace_out {
        let path = dir.join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("note: spans not written to {}: {e}", path.display()),
        }
    }

    let per_op = |v: u64| v as f64 / n as f64;
    let mib_s = |name: &str| TRANSFER_MIB / (span_us(&spans, name) / 1e6);
    let timed_calls = [
        ("tls.full_handshake_us", "tls.full_handshake"),
        ("tls.resumed_handshake_us", "tls.resumed_handshake"),
        ("http.small_get_us", "http.small_get"),
        ("http.evidence_fetch_us", "http.evidence_fetch"),
        ("kds.vcek_chain_us", "kds.vcek_chain"),
        ("snp.verify_batched_us", "snp.verify_batched"),
        (
            "verifier.verify_connection_us",
            "verifier.verify_connection",
        ),
    ];

    report.push(
        "crypto.scalar_muls_per_op",
        per_op(counts.scalar_muls),
        "count",
    );
    report.push(
        "crypto.point_decompressions_per_op",
        per_op(counts.point_decompressions),
        "count",
    );
    for (name, value) in &kernels {
        let unit = if name.ends_with("_us") { "us" } else { "MiB/s" };
        report.push(name, *value, unit);
    }
    for (metric, span) in timed_calls {
        report.push(metric, span_us(&spans, span), "us");
    }
    let ratio = if counts.handshakes == 0 {
        0.0
    } else {
        counts.resumptions as f64 / counts.handshakes as f64
    };
    report.push("tls.resumption_ratio", ratio, "ratio");
    report.push(
        "verifier.signature_checks_per_op",
        per_op(counts.signature_checks),
        "count",
    );
    report.push("kds.requests_per_op", per_op(counts.kds_requests), "count");
    report.push(
        "node.evidence_requests_per_op",
        per_op(counts.evidence_requests),
        "count",
    );
    report.push(
        "storage.verity_read_mib_s",
        mib_s("storage.verity_read"),
        "MiB/s",
    );
    report.push(
        "storage.crypt_write_mib_s",
        mib_s("storage.crypt_write"),
        "MiB/s",
    );
    report.push(
        "storage.block_reads_per_op",
        per_op(counts.block_reads),
        "count",
    );
    report.push(
        "storage.block_writes_per_op",
        per_op(counts.block_writes),
        "count",
    );
    report.push("build.image_ms", span_us(&spans, "build.image") / 1e3, "ms");
    report.push(
        "boot.deploy_node_ms",
        span_us(&spans, "boot.deploy_node") / 1e3,
        "ms",
    );
    report.push(
        "sp.provision_ms",
        span_us(&spans, "sp.provision") / 1e3,
        "ms",
    );
    report.push("world.new_ms", span_us(&spans, "world.new") / 1e3, "ms");
    report.push("telemetry.spans_per_op", per_op(counts.spans), "count");
    report.push("mem.retained_kb_per_op", retained_kb, "KB");
    report.push("trace.overhead_pct", overhead_pct, "%");
    report.push("trace.unattributed_pct", unattributed_pct, "%");
    println!(
        "traced run took {:.2} s of a {} s budget",
        start.elapsed().as_secs_f64(),
        args.seconds
    );
    Ok(report)
}
