//! Tier-1 guarantees of the telemetry layer: exports are a pure function
//! of the seed (same seed ⇒ byte-identical bytes), the span tree covers
//! the whole attestation pipeline, and every node serves a Prometheus
//! `/metrics` endpoint with the end-user-visible attestation latency.

use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_telemetry::Telemetry;

/// Deploys and provisions a two-node fleet, browses it cold, warm and
/// over RA-TLS, sends one monitored request, and returns the world's
/// telemetry registry.
fn run_scenario(seed: u64) -> Telemetry {
    let mut world = SimWorld::new(seed);
    let fleet = world
        .deploy_fleet("pad.example.org", 2, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    extension.browse("pad.example.org", "/").unwrap();
    extension.browse("pad.example.org", "/").unwrap();
    extension.browse_ratls("pad.example.org", "/").unwrap();
    let mut session = extension.open_monitored("pad.example.org").unwrap();
    session.request("/").unwrap();
    world.telemetry.clone()
}

#[test]
fn same_seed_yields_byte_identical_exports() {
    let a = run_scenario(7);
    let b = run_scenario(7);
    assert_eq!(a.export_json_lines(), b.export_json_lines());
    assert_eq!(a.export_prometheus(), b.export_prometheus());
    assert_eq!(a.breakdown(), b.breakdown());
    // And the runs are non-trivial: the whole pipeline was recorded.
    assert!(
        a.span_count() > 20,
        "only {} spans recorded",
        a.span_count()
    );
}

#[test]
fn fault_seed_is_part_of_the_determinism_contract() {
    // Same world seed + same fault seed ⇒ byte-identical exports even
    // though faults and retries fire mid-scenario; a different fault seed
    // reshuffles the injected faults.
    fn run_faulted(fault_seed: u64) -> Telemetry {
        let mut world = SimWorld::new(7);
        let fleet = world
            .deploy_fleet("pad.example.org", 2, demo_app())
            .unwrap();
        world.net.set_fault_seed(fault_seed);
        let _ =
            world
                .net
                .peer(fleet.nodes[0].public_address())
                .fault_plan(revelio_net::FaultPlan {
                    drop_probability: 0.35,
                    jitter_us: 2_000,
                    ..revelio_net::FaultPlan::default()
                });
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
        for _ in 0..3 {
            let _ = extension.browse("pad.example.org", "/");
        }
        world.telemetry.clone()
    }
    let a = run_faulted(99);
    let b = run_faulted(99);
    assert_eq!(a.export_json_lines(), b.export_json_lines());
    assert_eq!(a.export_prometheus(), b.export_prometheus());
    assert!(
        a.export_prometheus()
            .contains("revelio_net_faults_injected_total"),
        "scenario injected no faults"
    );
}

#[test]
fn exports_are_byte_identical_across_concurrent_worlds() {
    // Worlds share no process-global state: the scenario run on 4 or 16
    // threads concurrently exports exactly the bytes of a lone run. This
    // is the multi-threaded leg of the determinism contract the
    // thread-safe fabric has to preserve.
    let reference = run_scenario(7).export_json_lines();
    for threads in [4usize, 16] {
        let exports: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| run_scenario(7).export_json_lines()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scenario thread"))
                .collect()
        });
        for export in exports {
            assert_eq!(export, reference, "export diverged at {threads} threads");
        }
    }
}

#[test]
fn different_seeds_still_record_the_same_span_shape() {
    // Seeds change keys and identities, not the modelled latencies, so the
    // span *tree* (names, counts, durations) is seed-invariant even though
    // the JSON export (which includes attributes) may differ.
    let a = run_scenario(7);
    let b = run_scenario(8);
    assert_eq!(a.breakdown(), b.breakdown());
}

#[test]
fn breakdown_covers_the_attestation_pipeline() {
    let telemetry = run_scenario(9);
    let breakdown = telemetry.breakdown();
    for span in [
        "world.deploy_fleet",
        "boot",
        "kds.fetch",
        "acme.order",
        "tls.handshake",
        "browse",
        "browse.attestation",
        "sp.provision",
        "sp.certificate_generation",
    ] {
        assert!(
            breakdown.contains(span),
            "missing {span} in breakdown:\n{breakdown}"
        );
    }
}

#[test]
fn prometheus_export_carries_pipeline_metrics() {
    let telemetry = run_scenario(10);
    let text = telemetry.export_prometheus();
    for metric in [
        "revelio_boot_boots_total",
        "revelio_kds_client_fetch_ms",
        "revelio_pki_acme_certificates_issued_total",
        "revelio_tls_handshakes_total",
        "revelio_sp_provision_ms",
        "revelio_extension_attestation_latency_ms",
    ] {
        assert!(text.contains(metric), "missing {metric} in export:\n{text}");
    }
}

#[test]
fn nodes_serve_prometheus_metrics_over_attested_tls() {
    let mut world = SimWorld::new(11);
    let fleet = world
        .deploy_fleet("pad.example.org", 1, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    // A first browse records the end-user-visible attestation latency.
    extension.browse("pad.example.org", "/").unwrap();

    let outcome = extension.browse("pad.example.org", "/metrics").unwrap();
    assert!(outcome.response.is_success());
    assert!(
        outcome
            .response
            .header("Content-Type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "prometheus exposition content type"
    );
    let body = String::from_utf8(outcome.response.body.clone()).unwrap();
    assert!(body.contains("revelio_extension_attestation_latency_ms"));
    assert!(body.contains("revelio_node_evidence_requests_total"));
}
