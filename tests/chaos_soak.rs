//! Chaos soak: the attestation pipeline under seeded network faults.
//!
//! Three invariants, per fault seed:
//!
//! 1. **Safety** — while a site is faulted, the extension never reaches a
//!    *positive* attestation verdict, and never misreports the fault as
//!    "attestation failed": every verdict is `TransientNetworkRetry`.
//! 2. **Convergence** — once the fault plan clears, browsing attests
//!    again with no residue.
//! 3. **Determinism** — equal fault seeds give byte-identical telemetry
//!    exports, faults and retries included.
//!
//! The CI chaos job runs this suite once per pinned seed via
//! `REVELIO_CHAOS_SEED`; locally (no env var) all three seeds run.

use revelio::extension::BrowseVerdict;
use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_net::FaultPlan;

/// The pinned seeds the CI chaos job fans out over.
const CHAOS_SEEDS: [u64; 3] = [0xC4A0_5001, 0xC4A0_5002, 0xC4A0_5003];

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("REVELIO_CHAOS_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("REVELIO_CHAOS_SEED must be a u64 seed")],
        Err(_) => CHAOS_SEEDS.to_vec(),
    }
}

/// One full soak run: deploy, browse clean, browse through a total
/// outage, browse through probabilistic faults, clear, browse clean
/// again. Returns the verdict sequence and the full telemetry export.
fn run_soak(fault_seed: u64) -> (Vec<&'static str>, String, u64) {
    let mut world = SimWorld::new(42);
    let fleet = world
        .deploy_fleet("pad.example.org", 2, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    let site = fleet.nodes[0].public_address().to_owned();
    let mut verdicts = Vec::new();

    // Phase A: fault-free baseline.
    let baseline = extension.browse("pad.example.org", "/");
    assert_eq!(BrowseVerdict::classify(&baseline), BrowseVerdict::Attested);
    verdicts.push(BrowseVerdict::classify(&baseline).as_str());

    world.set_fault_seed(fault_seed);

    // Phase B: total outage. Every browse must classify as a transient
    // network problem — never "attested", never "attestation failed".
    world.set_fault_plan(&site, FaultPlan::outage());
    for _ in 0..3 {
        let result = extension.browse("pad.example.org", "/");
        let verdict = BrowseVerdict::classify(&result);
        assert_eq!(
            verdict,
            BrowseVerdict::TransientNetworkRetry,
            "outage produced verdict {verdict:?} (result: {result:?})"
        );
        verdicts.push(verdict.as_str());
    }

    // Phase C: lossy-but-alive link. Each browse either fully attests or
    // reports a transient failure; no third outcome is acceptable.
    world.set_fault_plan(
        &site,
        FaultPlan {
            drop_probability: 0.3,
            timeout_probability: 0.15,
            reset_probability: 0.1,
            jitter_us: 4_000,
            ..FaultPlan::default()
        },
    );
    for _ in 0..4 {
        let result = extension.browse("pad.example.org", "/");
        let verdict = BrowseVerdict::classify(&result);
        assert!(
            matches!(
                verdict,
                BrowseVerdict::Attested | BrowseVerdict::TransientNetworkRetry
            ),
            "lossy link produced verdict {verdict:?} (result: {result:?})"
        );
        verdicts.push(verdict.as_str());
    }

    // Phase D: the fault clears; the pipeline converges.
    world.clear_fault_plan(&site);
    let recovered = extension.browse("pad.example.org", "/");
    assert_eq!(
        BrowseVerdict::classify(&recovered),
        BrowseVerdict::Attested,
        "no convergence after faults cleared: {recovered:?}"
    );
    verdicts.push(BrowseVerdict::classify(&recovered).as_str());

    let faults = world.net.faults_injected();
    (verdicts, world.telemetry.export_prometheus(), faults)
}

#[test]
fn faults_never_produce_attestation_verdicts_and_recovery_converges() {
    for seed in chaos_seeds() {
        let (verdicts, export, faults) = run_soak(seed);
        assert!(faults > 0, "seed {seed:#x} injected no faults");
        // The outage phase exhausted at least one retry budget...
        assert!(
            export.contains("revelio_extension_retry_gave_up_total"),
            "seed {seed:#x}: no gave-up counter in export"
        );
        // ...and the observer mirrored every fault into the registry.
        assert!(
            export.contains("revelio_net_faults_injected_total"),
            "seed {seed:#x}: no fault counter in export"
        );
        assert_eq!(verdicts.first(), Some(&"attested"), "{verdicts:?}");
        assert_eq!(verdicts.last(), Some(&"attested"), "{verdicts:?}");
    }
}

#[test]
fn equal_fault_seeds_give_byte_identical_runs() {
    for seed in chaos_seeds() {
        let (verdicts_a, export_a, faults_a) = run_soak(seed);
        let (verdicts_b, export_b, faults_b) = run_soak(seed);
        assert_eq!(verdicts_a, verdicts_b, "seed {seed:#x}");
        assert_eq!(faults_a, faults_b, "seed {seed:#x}");
        assert_eq!(export_a, export_b, "seed {seed:#x}");
    }
}

#[test]
fn soak_is_byte_identical_when_run_from_many_threads() {
    // The fabric is thread-safe, and the determinism contract survives
    // concurrency: the same seeded soak run on 4 or 16 worker threads at
    // once produces exactly the bytes of a lone sequential run.
    let seed = CHAOS_SEEDS[0];
    let baseline = run_soak(seed);
    for threads in [4usize, 16] {
        let runs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| run_soak(seed))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("soak thread"))
                .collect()
        });
        for run in runs {
            assert_eq!(run.0, baseline.0, "verdicts diverged at {threads} threads");
            assert_eq!(
                run.2, baseline.2,
                "fault count diverged at {threads} threads"
            );
            assert_eq!(run.1, baseline.1, "export diverged at {threads} threads");
        }
    }
}

#[test]
fn route_scoped_kds_faults_spare_sibling_routes() {
    use revelio::kds_http::{KdsHttpClient, KDS_ADDRESS};

    let mut world = SimWorld::new(44);
    let fleet = world
        .deploy_fleet("pad.example.org", 1, demo_app())
        .unwrap();
    world.set_fault_seed(0xC4A0_5010);
    // Outage scoped to the VCEK route only; everything else on the KDS
    // address — the same dial, the same listener — stays healthy.
    let _ = world
        .net
        .peer(KDS_ADDRESS)
        .fault_plan_for_route("/vcek", FaultPlan::outage());

    // The cert-chain route rides through the sibling outage untouched.
    let kds = KdsHttpClient::new(world.net.clone(), KDS_ADDRESS);
    kds.cert_chain()
        .expect("/cert_chain must stay healthy while /vcek is down");

    // A cold attested browse needs the VCEK and must classify the outage
    // as transient — never as an attestation failure.
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    let result = extension.browse("pad.example.org", "/");
    assert_eq!(
        BrowseVerdict::classify(&result),
        BrowseVerdict::TransientNetworkRetry,
        "route-scoped outage misclassified: {result:?}"
    );
    assert!(world.net.faults_injected() > 0);

    // Clearing the address's plans clears route plans too; attestation
    // converges.
    let _ = world.net.peer(KDS_ADDRESS).clear_fault_plan();
    let recovered = extension.browse("pad.example.org", "/");
    assert_eq!(
        BrowseVerdict::classify(&recovered),
        BrowseVerdict::Attested,
        "no convergence after route plan cleared: {recovered:?}"
    );
}

#[test]
fn retry_rides_through_a_brief_kds_outage_end_to_end() {
    let mut world = SimWorld::new(43);
    // KDS drops the first two connections after seeding: the extension's
    // (and SP's) KDS fetches retry through it; the whole deployment and
    // first browse succeed without any caller-visible error.
    world.set_fault_seed(7);
    world.set_fault_plan(revelio::kds_http::KDS_ADDRESS, FaultPlan::fail_first(2));
    let fleet = world
        .deploy_fleet("pad.example.org", 1, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    let outcome = extension.browse("pad.example.org", "/").unwrap();
    assert!(outcome.response.is_success());
    assert!(world.net.faults_injected() >= 2);
    let export = world.telemetry.export_prometheus();
    assert!(
        export.contains("revelio_retry_attempts_total"),
        "retries went unrecorded:\n{export}"
    );
}
