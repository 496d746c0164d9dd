//! Partition tolerance: provisioning under correlated failures.
//!
//! The scenario the ISSUE pins down: a 16-node fleet whose 4-node rack
//! (subnet 203.0.114.) is partitioned during provisioning. The SP must
//! quarantine exactly the partitioned nodes — deterministically, with
//! the same list at any thread count for a fixed fault seed — elect the
//! first *surviving* node as leader, and finish the run. On the
//! end-user side, an outage (a 503 on the well-known URL, a partitioned
//! subnet) must surface as a transient-network condition, never as a
//! "not a Revelio site" or "attestation failed" verdict, and a
//! monitored-session reconnect must re-validate the full evidence
//! bundle, not just the pinned TLS key.
//!
//! The CI chaos job runs this suite once per pinned seed via
//! `REVELIO_CHAOS_SEED`; locally (no env var) the default partition
//! seed runs.

use revelio::extension::BrowseVerdict;
use revelio::node::demo_app;
use revelio::sp::ProvisionPhase;
use revelio::world::SimWorld;
use revelio::RevelioError;
use revelio_http::message::Response;
use revelio_http::router::Router;
use revelio_http::WELL_KNOWN_ATTESTATION_PATH;
use revelio_net::FaultDomain;

/// The pinned partition seed the CI chaos job adds to its matrix.
const PARTITION_SEED: u64 = 0xC4A0_5004;

fn partition_seed() -> u64 {
    match std::env::var("REVELIO_CHAOS_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .expect("REVELIO_CHAOS_SEED must be a u64 seed"),
        Err(_) => PARTITION_SEED,
    }
}

/// Deploys a 16-node fleet (12 nodes in subnet 113, 4 in subnet 114)
/// with subnet 114 partitioned from the start, and returns the
/// provisioning outcome: quarantined `(node, phase)` pairs, the elected
/// leader, every bootstrap address in fleet order, the fault count, and
/// the telemetry export.
type ProvisionOutcome = (
    Vec<(String, &'static str)>, // quarantined (node, phase) pairs
    String,                      // elected leader bootstrap
    Vec<String>,                 // bootstrap addresses in fleet order
    u64,                         // faults injected
    String,                      // Prometheus export
);

fn run_partitioned_provision(fault_seed: u64) -> ProvisionOutcome {
    let mut world = SimWorld::new(42);
    world.set_fault_seed(fault_seed);
    world.install_fault_domain(FaultDomain::partition(
        "rack-114",
        &SimWorld::subnet_prefix(114),
    ));
    let fleet = world
        .deploy_fleet_in_subnets("pad.example.org", &[(113, 12), (114, 4)], demo_app())
        .expect("12 reachable nodes survive the partitioned rack");

    let bootstraps: Vec<String> = fleet
        .nodes
        .iter()
        .map(|n| n.bootstrap_address().to_owned())
        .collect();
    let quarantined: Vec<(String, &'static str)> = fleet
        .provision
        .quarantined
        .iter()
        .map(|q| (q.node.clone(), q.phase.as_str()))
        .collect();

    // The surviving fleet serves: DNS points at the elected leader.
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    let browse = extension.browse("pad.example.org", "/");
    assert_eq!(
        BrowseVerdict::classify(&browse),
        BrowseVerdict::Attested,
        "the certified survivors must serve attested pages: {browse:?}"
    );

    (
        quarantined,
        fleet.provision.leader_bootstrap.clone(),
        bootstraps,
        world.net.faults_injected(),
        world.telemetry.export_prometheus(),
    )
}

#[test]
fn partitioned_rack_is_quarantined_and_first_survivor_leads() {
    let seed = partition_seed();
    let (quarantined, leader, bootstraps, faults, export) = run_partitioned_provision(seed);

    // Exactly the four 203.0.114. nodes are quarantined, in fleet order,
    // all at the retrieval phase (they were never reachable).
    let expected: Vec<(String, &'static str)> = bootstraps
        .iter()
        .filter(|b| b.starts_with(&SimWorld::subnet_prefix(114)))
        .map(|b| (b.clone(), ProvisionPhase::Retrieval.as_str()))
        .collect();
    assert_eq!(expected.len(), 4, "scenario allocates 4 nodes in 114");
    assert_eq!(quarantined, expected, "seed {seed:#x}");

    // The leader is the first *surviving* node — fleet order, subnet 113.
    assert_eq!(leader, bootstraps[0], "seed {seed:#x}");
    assert!(leader.starts_with(&SimWorld::subnet_prefix(113)));

    // The partition injected faults (the SP's retry budget saw them),
    // and the metrics account for the run: one success, 4 quarantined.
    assert!(faults > 0, "seed {seed:#x} injected no faults");
    assert!(export.contains("revelio_sp_provisions_total 1"), "{export}");
    assert!(
        export.contains("revelio_sp_quarantined_nodes 4"),
        "{export}"
    );
}

#[test]
fn quarantine_decisions_are_byte_identical_across_thread_counts() {
    let seed = partition_seed();
    let baseline = run_partitioned_provision(seed);
    for threads in [4usize, 16] {
        let runs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| run_partitioned_provision(seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("provision thread"))
                .collect()
        });
        for run in runs {
            assert_eq!(
                run.0, baseline.0,
                "quarantine list diverged at {threads} threads"
            );
            assert_eq!(run.1, baseline.1, "leader diverged at {threads} threads");
            assert_eq!(
                run.3, baseline.3,
                "fault count diverged at {threads} threads"
            );
            assert_eq!(run.4, baseline.4, "export diverged at {threads} threads");
        }
    }
}

#[test]
fn flight_rings_record_retries_not_first_attempts() {
    let mut world = SimWorld::new(23);
    world.set_fault_seed(partition_seed());
    world.install_fault_domain(FaultDomain::partition(
        "rack-114",
        &SimWorld::subnet_prefix(114),
    ));
    let fleet = world
        .deploy_fleet_in_subnets("pad.example.org", &[(113, 2), (114, 1)], demo_app())
        .expect("two reachable nodes survive the partitioned rack");

    // The partitioned node timed out on every attempt of the SP's budget:
    // its dump holds one retry event per attempt after the first.
    let quarantined = &fleet.provision.quarantined;
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    let dump = quarantined[0]
        .flight
        .as_ref()
        .expect("a fleet node's quarantine carries its flight dump");
    let retries = dump.events.iter().filter(|e| e.kind == "retry").count();
    let max_attempts = world.tuning.retry.sp.max_attempts as usize;
    assert_eq!(retries, max_attempts - 1, "{}", dump.render());

    // A clean browse succeeds on its first attempt: the extension's ring
    // records the verdict and no retry.
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    extension.browse("pad.example.org", "/").unwrap();
    let ring = world
        .flight
        .get("extension")
        .expect("the world registers the extension's ring")
        .dump();
    assert!(
        ring.events.iter().any(|e| e.kind == "verdict"),
        "{}",
        ring.render()
    );
    assert!(
        ring.events.iter().all(|e| e.kind != "retry"),
        "{}",
        ring.render()
    );
}

#[test]
fn fully_partitioned_fleet_errors_instead_of_reporting_success() {
    let mut world = SimWorld::new(42);
    world.set_fault_seed(partition_seed());
    world.install_fault_domain(FaultDomain::partition(
        "everything",
        &SimWorld::subnet_prefix(113),
    ));
    let err = world
        .deploy_fleet("pad.example.org", 2, demo_app())
        .expect_err("no node survives a total partition");
    assert!(
        err.is_transient(),
        "a fully partitioned fleet fails with the first node's transport \
         error, not a fabricated verdict: {err:?}"
    );
    let export = world.telemetry.export_prometheus();
    assert!(
        export.contains("revelio_sp_provision_failures_total 1"),
        "failed runs must be visible in metrics:\n{export}"
    );
}

#[test]
fn partition_heals_on_schedule_and_browsing_recovers() {
    let mut world = SimWorld::new(42);
    let fleet = world
        .deploy_fleet("pad.example.org", 2, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);

    // The whole site's subnet goes dark, healing 30 simulated seconds
    // from now.
    let heal_at = world.clock.now_us() + 30_000_000;
    world.install_fault_domain(
        FaultDomain::partition("site-outage", &SimWorld::subnet_prefix(113)).healing_at_us(heal_at),
    );
    let during = extension.browse("pad.example.org", "/");
    assert_eq!(
        BrowseVerdict::classify(&during),
        BrowseVerdict::TransientNetworkRetry,
        "a partition is a network problem, not a verdict: {during:?}"
    );

    // The retries above already advanced the clock; push past the heal
    // time and the same extension converges with no residue.
    let now = world.clock.now_us();
    world.clock.advance_us(heal_at.saturating_sub(now));
    let after = extension.browse("pad.example.org", "/");
    assert_eq!(
        BrowseVerdict::classify(&after),
        BrowseVerdict::Attested,
        "no convergence after the scheduled heal: {after:?}"
    );
}

/// A plain HTTPS site whose well-known URL answers 503 — a flaky load
/// balancer, or an injected fault — must never be filed as "not a
/// Revelio site". That verdict is reserved for a definitive 404.
#[test]
fn well_known_503_is_transient_never_not_revelio() {
    let world = SimWorld::new(10);
    let key = revelio_crypto::ed25519::SigningKey::from_seed(&[5; 32]);
    let csr =
        revelio_pki::cert::CertificateSigningRequest::new("flaky.example.org", &key, "Org", "CH");
    let chain = world.acme.order_certificate(&csr).unwrap();
    let app = Router::new()
        .get("/", |_| Response::ok(b"up".to_vec()))
        .get(WELL_KNOWN_ATTESTATION_PATH, |_| Response::status(503));
    revelio_http::server::serve_https(
        &world.net,
        "10.0.9.9:443",
        revelio_tls::TlsServerConfig::new(chain, key, [1; 32]),
        app,
    )
    .unwrap();
    world.dns.set_address("flaky.example.org", "10.0.9.9:443");

    let extension = world.extension();
    extension.register_site("flaky.example.org", vec![]);

    // open_monitored: transient, with the 503 named in the error.
    let err = extension
        .open_monitored("flaky.example.org")
        .expect_err("503 cannot open a monitored session");
    assert!(
        matches!(err, RevelioError::TransientNetwork { .. }),
        "open_monitored misclassified a 503: {err:?}"
    );
    assert!(err.to_string().contains("503"), "{err}");

    // discover: an outage is an error — never Ok(None), which would
    // misfile a flaky Revelio site as a non-Revelio one.
    let err = extension
        .discover("flaky.example.org")
        .expect_err("503 is not a discovery verdict");
    assert!(
        matches!(err, RevelioError::TransientNetwork { .. }),
        "discover misclassified a 503: {err:?}"
    );

    // browse: the UI badge says "network problem, retry".
    let browse = extension.browse("flaky.example.org", "/");
    assert_eq!(
        BrowseVerdict::classify(&browse),
        BrowseVerdict::TransientNetworkRetry,
        "browse misclassified a 503: {browse:?}"
    );
}

/// A fleet whose shared ACME certificate ages past `not_after_ms` must
/// earn the *operational* `CertificateExpired` verdict — the signal the
/// reconciler's renewal path watches — never `AttestationFailed` (nothing
/// was tampered with) and never `TransientNetworkRetry` (a retry cannot
/// un-expire a certificate).
#[test]
fn expired_certificate_is_its_own_verdict_not_attestation_failed() {
    let mut world = SimWorld::new(11);
    let fleet = world
        .deploy_fleet("pad.example.org", 1, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    assert_eq!(
        BrowseVerdict::classify(&extension.browse("pad.example.org", "/")),
        BrowseVerdict::Attested
    );

    // Age the world past the ACME leaf's 90-day lifetime: the TLS
    // handshake now rejects the chain with `PkiError::Expired`.
    let not_after_ms = fleet.provision.chain.leaf().not_after_ms;
    let now_ms = world.clock.now_us() / 1000;
    world
        .clock
        .advance_us((not_after_ms - now_ms + 1_000) * 1_000);

    let browse = extension.browse("pad.example.org", "/");
    let err = browse.as_ref().expect_err("expired chain cannot attest");
    assert!(
        err.is_certificate_expired(),
        "expiry lost its identity through the layers: {err:?}"
    );
    assert_eq!(
        BrowseVerdict::classify(&browse),
        BrowseVerdict::CertificateExpired,
        "expiry is an operational state, not a tamper verdict: {browse:?}"
    );
    assert_eq!(
        BrowseVerdict::CertificateExpired.as_str(),
        "certificate_expired"
    );
}

#[test]
fn reconnect_reattests_and_catches_stale_evidence_behind_the_same_key() {
    let mut world = SimWorld::new(21);
    let fleet = world
        .deploy_fleet("pad.example.org", 1, demo_app())
        .unwrap();

    // The endpoint key never changes, but the golden measurement is
    // revoked while the session is parked (an image rollout revoking the
    // old image, §6.1.4). A pin check alone would accept the reconnect.
    let reattesting = world.extension();
    reattesting.register_site("pad.example.org", vec![fleet.golden_measurement]);
    let mut session = reattesting.open_monitored("pad.example.org").unwrap();
    assert!(session.request("/").unwrap().is_success());

    reattesting.revoke_measurement("pad.example.org", fleet.golden_measurement);
    let err = reattesting
        .reconnect(&mut session)
        .expect_err("stale evidence behind the pinned key must fail re-attestation");
    assert!(
        matches!(err, RevelioError::UnknownMeasurement(_)),
        "re-attestation surfaced the wrong failure: {err:?}"
    );
}

#[test]
fn reconnect_through_a_mitm_fails_the_pin_fast_path() {
    let mut world = SimWorld::new(22);
    let fleet = world
        .deploy_fleet("pad.example.org", 1, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    let mut session = extension.open_monitored("pad.example.org").unwrap();

    // A MITM with a *different* key (CA-blessed for the domain — the
    // malicious-provider threat) takes over DNS while the session is
    // parked.
    let attacker_key = revelio_crypto::ed25519::SigningKey::from_seed(&[66; 32]);
    let attacker_csr = revelio_pki::cert::CertificateSigningRequest::new(
        "pad.example.org",
        &attacker_key,
        "Attacker",
        "CH",
    );
    let attacker_chain = world.acme.order_certificate(&attacker_csr).unwrap();
    revelio_http::server::serve_https(
        &world.net,
        "10.66.6.6:443",
        revelio_tls::TlsServerConfig::new(attacker_chain, attacker_key, [7; 32]),
        demo_app(),
    )
    .unwrap();
    world.dns.set_address("pad.example.org", "10.66.6.6:443");

    let err = extension
        .reconnect(&mut session)
        .expect_err("the redirect attack must fail the pin check");
    assert_eq!(err, RevelioError::TlsBindingMismatch);
}
