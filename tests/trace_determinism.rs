//! Tier-1 guarantees of the causal-tracing layer: an assembled trace
//! tree is a pure function of the seeds. The `repro --trace` scenarios
//! (and the raw whole-registry trace export underneath them) must come
//! out byte-identical whether the world runs alone or on 4 or 16
//! concurrent threads — the fabric's concurrency must be invisible in
//! the trace bytes.

use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_bench::run_trace_demo;
use revelio_telemetry::export_all_traces;

/// A browse with tracing on, exported via [`export_all_traces`] — the
/// canonical whole-registry rendering (flame summaries + Chrome JSON).
fn traced_browse_export(seed: u64) -> String {
    let mut world = SimWorld::new(seed);
    let fleet = world
        .deploy_fleet("pad.example.org", 2, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    extension.browse("pad.example.org", "/").unwrap();
    export_all_traces(&world.telemetry)
}

/// One `repro --trace` rendering: the three-scenario report as the JSON
/// artifact plus the printed text.
fn trace_demo_bytes() -> String {
    let report = run_trace_demo();
    format!("{}\n{}", report.to_json(), report.render())
}

#[test]
fn trace_exports_are_byte_identical_across_threads_and_fabric_modes() {
    let reference_export = traced_browse_export(7);
    let reference_demo = trace_demo_bytes();
    for threads in [4usize, 16] {
        let runs: Vec<(String, String)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| (traced_browse_export(7), trace_demo_bytes())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trace scenario thread"))
                .collect()
        });
        for (export, demo) in runs {
            assert_eq!(
                export, reference_export,
                "trace export diverged at {threads} threads"
            );
            assert_eq!(
                demo, reference_demo,
                "trace demo diverged at {threads} threads"
            );
        }
    }
    // The bytes are non-trivial: the browse stitched into one tree whose
    // critical path walks the attestation hops.
    assert!(reference_export.contains("critical path: browse > browse.attestation"));
    assert!(reference_export.contains("\"traceEvents\""));
    assert!(reference_demo.contains("dominant hop: kds.fetch"));
    assert!(reference_demo.contains("quarantined nodes: 1"));
}
