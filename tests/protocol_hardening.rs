//! Adversarial probing of the Revelio protocol surfaces: the bootstrap
//! endpoints (Fig. 4), evidence replay, and platform lifecycle events
//! (TCB updates, VCEK rotation).

use revelio::appraisal::DecidingCheck;
use revelio::evidence::EvidenceBundle;
use revelio::node::{demo_app, CHECK_HEADER};
use revelio::reconcile::NodeActuator;
use revelio::registry::GoldenSet;
use revelio::world::SimWorld;
use revelio::RevelioError;
use revelio_crypto::ed25519::SigningKey;
use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::ByteWriter;
use revelio_crypto::x25519;
use revelio_http::message::Request;
use revelio_http::server::plain_request;
use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
use sev_snp::platform::SnpPlatform;
use sev_snp::report::SignedReport;
use std::sync::Arc;

fn encode_key_request(report: &SignedReport, box_public: &[u8; 32], nonce: &[u8; 32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_var_bytes(&report.to_bytes());
    w.put_bytes(box_public);
    w.put_bytes(nonce);
    w.into_bytes()
}

fn key_request_binding(box_public: &[u8; 32], nonce: &[u8; 32]) -> [u8; 32] {
    Sha256::digest([&box_public[..], &nonce[..]].concat())
}

/// A non-leader node refuses key requests (it has no key); a leader
/// refuses requests whose report has the wrong measurement or does not
/// bind the encryption key.
#[test]
fn key_request_endpoint_rejects_all_invalid_callers() {
    let mut world = SimWorld::new(60);
    let fleet = world.deploy_fleet("s.example", 2, demo_app()).unwrap();
    let leader = fleet.provision.leader_bootstrap.clone();

    // 1. A differently-measured VM (attacker's own Revelio-like node).
    let evil_spec = world.image_spec("s.example", &["web-service", "exfil"]);
    let (evil_image, _) = world.build(&evil_spec).unwrap();
    let platform = world.new_platform();
    let evil_vm = revelio_boot::loader::Hypervisor::new(
        revelio_boot::firmware::FirmwareKind::MeasuredDirectBoot,
    )
    .boot(
        &platform,
        &evil_image,
        GuestPolicy::default(),
        revelio_boot::loader::BootOptions::default(),
    )
    .unwrap();
    let box_secret = [9u8; 32];
    let box_public = x25519::public_key(&box_secret);
    let nonce = [0x11u8; 32];
    let evil_report = evil_vm.report_with_data(&key_request_binding(&box_public, &nonce));
    let response = plain_request(
        &world.net,
        &leader,
        &Request::post(
            "/revelio/key-request",
            encode_key_request(&evil_report, &box_public, &nonce),
        ),
    )
    .unwrap();
    assert_eq!(response.status, 403);
    assert!(response
        .header("X-Revelio-Error")
        .unwrap()
        .contains("measurement"));

    // 2. A correctly-measured report that does NOT bind the provided
    //    encryption key (stolen report + attacker's key).
    let honest_report = fleet.nodes[1]
        .vm()
        .report_with_data(&Sha256::digest([1u8; 32]));
    let response = plain_request(
        &world.net,
        &leader,
        &Request::post(
            "/revelio/key-request",
            encode_key_request(&honest_report, &box_public, &nonce),
        ),
    )
    .unwrap();
    assert_eq!(response.status, 403);
    assert!(response
        .header("X-Revelio-Error")
        .unwrap()
        .contains("encryption key"));

    // 3. Garbage body.
    let response = plain_request(
        &world.net,
        &leader,
        &Request::post("/revelio/key-request", b"garbage".to_vec()),
    )
    .unwrap();
    assert_eq!(response.status, 403);
}

/// A node that has not been provisioned yet refuses key requests: there is
/// nothing to hand out before the SP ran its protocol.
#[test]
fn unprovisioned_node_holds_no_key() {
    let mut world = SimWorld::new(61);
    let spec = world.image_spec("s.example", &["web-service"]);
    let (image, golden) = world.build(&spec).unwrap();
    let node = world
        .deploy_node("s.example", &image, demo_app(), [3; 32])
        .unwrap();
    assert!(!node.is_serving());
    assert_eq!(node.tls_public_key(), None);

    // Even an honestly-measured peer gets nothing from a keyless node.
    let (peer_image, peer_golden) = world.build(&spec).unwrap();
    assert_eq!(golden, peer_golden);
    let platform = world.new_platform();
    let peer_vm = revelio_boot::loader::Hypervisor::new(
        revelio_boot::firmware::FirmwareKind::MeasuredDirectBoot,
    )
    .boot(
        &platform,
        &peer_image,
        GuestPolicy::default(),
        revelio_boot::loader::BootOptions::default(),
    )
    .unwrap();
    let box_secret = [4u8; 32];
    let box_public = x25519::public_key(&box_secret);
    let nonce = [0x22u8; 32];
    let report = peer_vm.report_with_data(&key_request_binding(&box_public, &nonce));
    let response = plain_request(
        &world.net,
        node.bootstrap_address(),
        &Request::post(
            "/revelio/key-request",
            encode_key_request(&report, &box_public, &nonce),
        ),
    )
    .unwrap();
    assert_eq!(response.status, 403);
}

/// Install-cert with a certificate for the wrong domain is refused.
#[test]
fn install_cert_checks_domain() {
    let mut world = SimWorld::new(62);
    let spec = world.image_spec("s.example", &["web-service"]);
    let (image, _) = world.build(&spec).unwrap();
    let node = world
        .deploy_node("s.example", &image, demo_app(), [5; 32])
        .unwrap();

    let key = SigningKey::from_seed(&[8; 32]);
    let csr = revelio_pki::cert::CertificateSigningRequest::new("other.example", &key, "O", "C");
    let chain = world.acme.order_certificate(&csr).unwrap();
    let mut w = ByteWriter::new();
    w.put_var_bytes(&chain.to_bytes());
    w.put_str(node.bootstrap_address());
    w.put_u32(0); // no approved chips
    let response = plain_request(
        &world.net,
        node.bootstrap_address(),
        &Request::post("/revelio/install-cert", w.into_bytes()),
    )
    .unwrap();
    assert_eq!(response.status, 403);
    assert!(!node.is_serving());
}

/// A same-image clone on an unapproved chip presents a valid report with
/// the right measurement, but the leader's chip allowlist refuses to hand
/// it the fleet's TLS key (the impostor defense of §5.3.1, enforced at key
/// distribution too).
#[test]
fn unapproved_chip_cannot_obtain_fleet_key() {
    let mut world = SimWorld::new(67);
    let fleet = world.deploy_fleet("s.example", 2, demo_app()).unwrap();
    let leader = fleet.provision.leader_bootstrap.clone();

    // Same public image, same measurement — but a chip the SP never
    // approved.
    let spec = world.image_spec("s.example", &["web-service"]);
    let (clone_image, clone_golden) = world.build(&spec).unwrap();
    assert_eq!(clone_golden, fleet.golden_measurement);
    let platform = world.new_platform();
    let clone_vm = revelio_boot::loader::Hypervisor::new(
        revelio_boot::firmware::FirmwareKind::MeasuredDirectBoot,
    )
    .boot(
        &platform,
        &clone_image,
        GuestPolicy::default(),
        revelio_boot::loader::BootOptions::default(),
    )
    .unwrap();
    let box_secret = [7u8; 32];
    let box_public = x25519::public_key(&box_secret);
    let nonce = [0x33u8; 32];
    let report = clone_vm.report_with_data(&key_request_binding(&box_public, &nonce));
    let response = plain_request(
        &world.net,
        &leader,
        &Request::post(
            "/revelio/key-request",
            encode_key_request(&report, &box_public, &nonce),
        ),
    )
    .unwrap();
    assert_eq!(response.status, 403);
    assert!(response
        .header("X-Revelio-Error")
        .unwrap()
        .contains("allowlist"));
    assert_eq!(response.header(CHECK_HEADER), Some("ChipAllowlist"));
}

/// A clone of the image on an unapproved chip, offered the fleet
/// certificate by the SP, is refused the key by the leader; the refusal
/// names the allowlist check at the SP, two hops from where it decided.
#[test]
fn an_unapproved_chip_refusal_reaches_the_sp_with_its_check() {
    let mut world = SimWorld::new(67);
    let fleet = world.deploy_fleet("s.example", 2, demo_app()).unwrap();
    let allowlist = fleet
        .nodes
        .iter()
        .map(|n| (n.vm().guest().chip_id(), n.bootstrap_address().to_owned()))
        .collect();
    let spec = world.image_spec("s.example", &["web-service"]);
    let (clone_image, _) = world.build(&spec).unwrap();
    let clone = world
        .deploy_node("s.example", &clone_image, demo_app(), [0x42; 32])
        .unwrap();
    let sp = world.sp_node_for_domain(
        "s.example",
        GoldenSet::from_measurements([fleet.golden_measurement]),
        allowlist,
    );
    let err = sp
        .install_certificate(
            clone.bootstrap_address(),
            &fleet.provision.chain,
            &fleet.provision.leader_bootstrap,
        )
        .unwrap_err();
    assert!(matches!(err, RevelioError::NodeRejected { .. }), "{err}");
    assert_eq!(err.deciding_check(), Some(DecidingCheck::ChipAllowlist));
    assert!(clone.tls_public_key().is_none());
}

/// Replaying a legitimate fleet's evidence bundle from an attacker-run
/// server fails the TLS binding check: evidence is not portable across
/// endpoints.
#[test]
fn evidence_replay_on_foreign_endpoint_detected() {
    let mut world = SimWorld::new(63);
    let fleet = world.deploy_fleet("s.example", 1, demo_app()).unwrap();

    // Steal the real evidence bundle.
    let extension = world.extension();
    extension.register_site("s.example", vec![fleet.golden_measurement]);
    let stolen = extension
        .browse("s.example", "/")
        .unwrap()
        .evidence
        .to_bytes();

    // Attacker serves it from their own HTTPS endpoint (valid cert for
    // the SAME domain via DNS control, but their own TLS key).
    let attacker_key = SigningKey::from_seed(&[21; 32]);
    let csr =
        revelio_pki::cert::CertificateSigningRequest::new("s.example", &attacker_key, "E", "X");
    let chain = world.acme.order_certificate(&csr).unwrap();
    let router = revelio_http::router::Router::new()
        .get(revelio_http::WELL_KNOWN_ATTESTATION_PATH, move |_req| {
            revelio_http::message::Response::ok(stolen.clone())
        });
    revelio_http::server::serve_https(
        &world.net,
        "10.3.3.3:443",
        revelio_tls::TlsServerConfig::new(chain, attacker_key, [2; 32]),
        router,
    )
    .unwrap();
    world.dns.set_address("s.example", "10.3.3.3:443");

    let ext2 = world.extension();
    ext2.register_site("s.example", vec![fleet.golden_measurement]);
    assert_eq!(
        ext2.browse("s.example", "/").unwrap_err(),
        RevelioError::TlsBindingMismatch
    );
}

/// A TCB (firmware) update rotates the VCEK: reports from the updated
/// platform verify only with the new chain, and stale cached chains fail
/// closed rather than accepting mixed versions.
#[test]
fn tcb_update_rotates_vcek() {
    let world = SimWorld::new(64);
    let chip = ChipId::from_seed(777);
    let old_tcb = TcbVersion::new(1, 0, 8, 115);
    let new_tcb = TcbVersion::new(1, 0, 9, 120);

    let old_platform = SnpPlatform::new(Arc::clone(&world.amd), chip, old_tcb);
    let new_platform = SnpPlatform::new(Arc::clone(&world.amd), chip, new_tcb);

    let old_guest = old_platform.launch(b"fw", GuestPolicy::default()).unwrap();
    let new_guest = new_platform.launch(b"fw", GuestPolicy::default()).unwrap();
    let old_report = old_guest.attestation_report(sev_snp::report::ReportData::default());
    let new_report = new_guest.attestation_report(sev_snp::report::ReportData::default());

    let verifier = sev_snp::verify::ReportVerifier::new(world.amd.ark_public_key());
    let old_chain = world.kds.vcek_chain(&chip, &old_tcb).unwrap();
    let new_chain = world.kds.vcek_chain(&chip, &new_tcb).unwrap();

    // Same-version pairs verify.
    verifier.verify_batched(&old_report, &old_chain).unwrap();
    verifier.verify_batched(&new_report, &new_chain).unwrap();
    // Cross-version pairs are rejected (binding mismatch).
    assert!(verifier.verify_batched(&new_report, &old_chain).is_err());
    assert!(verifier.verify_batched(&old_report, &new_chain).is_err());
    // The endorsement keys really rotated.
    assert_ne!(old_chain.vcek.public_key, new_chain.vcek.public_key);
}

/// Identical launch context on updated firmware still yields the same
/// measurement (TCB is endorsement metadata, not guest state), so golden
/// values survive platform patching — but sealing keys that mix the TCB
/// do not, forcing re-provisioning of sealed data after updates.
#[test]
fn tcb_update_preserves_measurement_but_can_rotate_sealing() {
    let world = SimWorld::new(65);
    let chip = ChipId::from_seed(778);
    let old = SnpPlatform::new(Arc::clone(&world.amd), chip, TcbVersion::new(1, 0, 8, 115));
    let new = SnpPlatform::new(Arc::clone(&world.amd), chip, TcbVersion::new(1, 0, 9, 115));
    let g_old = old.launch(b"fw", GuestPolicy::default()).unwrap();
    let g_new = new.launch(b"fw", GuestPolicy::default()).unwrap();
    assert_eq!(g_old.measurement(), g_new.measurement());

    use sev_snp::sealing::SealingKeyRequest;
    let plain = SealingKeyRequest::default();
    assert_eq!(
        g_old.derive_sealing_key(&plain),
        g_new.derive_sealing_key(&plain)
    );
    let tcb_bound = SealingKeyRequest {
        mix_tcb: true,
        ..SealingKeyRequest::default()
    };
    assert_ne!(
        g_old.derive_sealing_key(&tcb_bound),
        g_new.derive_sealing_key(&tcb_bound)
    );
}

/// The evidence endpoint serves identical bytes to every client — no
/// per-client discrimination is possible without changing the TLS key.
#[test]
fn evidence_is_stable_across_clients_and_sessions() {
    let mut world = SimWorld::new(66);
    let fleet = world.deploy_fleet("s.example", 1, demo_app()).unwrap();
    let mut bundles = Vec::new();
    for seed in 0..3u64 {
        let extension = world.extension();
        extension.register_site("s.example", vec![fleet.golden_measurement]);
        let outcome = extension.browse("s.example", "/").unwrap();
        let _ = seed;
        bundles.push(outcome.evidence);
    }
    assert!(bundles.windows(2).all(|w| w[0] == w[1]));
    // And it parses as a self-consistent bundle.
    let bytes = bundles[0].to_bytes();
    assert_eq!(EvidenceBundle::from_bytes(&bytes).unwrap(), bundles[0]);
}

/// A renewal judges its leader against the golden set: a leader redeployed
/// on a non-golden image is refused by the measurement check, and no
/// certificate is ordered.
#[test]
fn renewal_refuses_a_leader_on_a_non_golden_image() {
    let mut world = SimWorld::new(68);
    let fleet = world.deploy_fleet("renew.example", 2, demo_app()).unwrap();
    let leader = fleet.provision.leader_bootstrap.clone();
    let mut rogue = world.image_spec("renew.example", &["web-service", "backdoor"]);
    rogue.name = "rogue".into();
    let mut upgrader = world.fleet_upgrader(&fleet, demo_app(), rogue);
    upgrader.upgrade(&leader).unwrap();

    let issued = "revelio_pki_acme_certificates_issued_total";
    let issued_before = world.telemetry.counter(issued);
    let err = world
        .fleet_sp(&fleet)
        .renew_certificate(&leader, &fleet.provision.chain)
        .unwrap_err();
    assert!(matches!(err, RevelioError::NodeRejected { .. }), "{err}");
    assert_eq!(err.deciding_check(), Some(DecidingCheck::Measurement));
    assert_eq!(world.telemetry.counter(issued), issued_before);
}
