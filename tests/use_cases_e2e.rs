//! End-to-end integration of the two paper use cases (§4) over the full
//! simulated stack: attested HTTPS fleets, real (simulated) network, real
//! crypto.

use std::sync::Arc;

use revelio::extension::MonitoredSession;
use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_cryptpad::client::PadSecret;
use revelio_cryptpad::server::{decode_fetch_response, pad_router, PadStore};
use revelio_http::message::Request;
use revelio_ic::boundary::{BoundaryNode, API_CALL_PATH, SERVICE_WORKER_PATH};
use revelio_ic::canister::AssetCanister;
use revelio_ic::ic::{IcRequest, InternetComputer};
use revelio_ic::service_worker::{BoundaryTransport, ServiceWorker};
use revelio_ic::IcError;

fn post(session: &mut MonitoredSession, path: &str, body: Vec<u8>) -> Vec<u8> {
    let response = session
        .send(&Request::post(path, body))
        .expect("request succeeds");
    assert!(response.is_success(), "{path} returned {}", response.status);
    response.body
}

#[test]
fn cryptpad_full_lifecycle_over_attested_fleet() {
    let store = PadStore::new();
    let mut world = SimWorld::new(30);
    let fleet = world
        .deploy_fleet("pads.example.org", 2, pad_router(store.clone()))
        .unwrap();
    let extension = world.extension();
    extension.register_site("pads.example.org", vec![fleet.golden_measurement]);
    let mut session = extension.open_monitored("pads.example.org").unwrap();

    let secret = PadSecret::from_fragment("#frag");
    let id_bytes = post(&mut session, "/pad/create", Vec::new());
    let _pad_id = u64::from_le_bytes(id_bytes.clone().try_into().unwrap());

    for (i, doc) in [b"v1".as_slice(), b"v2".as_slice()].iter().enumerate() {
        let mut body = id_bytes.clone();
        body.extend_from_slice(&secret.encrypt_edit(i as u64, doc));
        post(&mut session, "/pad/append", body);
    }

    let history = decode_fetch_response(&post(&mut session, "/pad/fetch", id_bytes)).unwrap();
    assert_eq!(secret.render_document(&history).unwrap(), b"v2");

    // The operator's view holds no plaintext.
    for (_, pad) in store.operator_view() {
        for edit in &pad.edits {
            assert!(!edit.windows(2).any(|w| w == b"v1" || w == b"v2"));
        }
    }
}

#[test]
fn cryptpad_state_survives_reboot_via_sealed_volume() {
    use revelio_boot::firmware::FirmwareKind;
    use revelio_boot::loader::{BootOptions, Hypervisor};
    use sev_snp::ids::GuestPolicy;

    let mut world = SimWorld::new(31);
    let spec = world.image_spec("pads.example.org", &["pad-server"]);
    let (image, _) = world.build(&spec).unwrap();
    let platform = world.new_platform();
    let hv = Hypervisor::new(FirmwareKind::MeasuredDirectBoot);

    let secret = PadSecret::from_fragment("#persist");
    {
        let vm = hv
            .boot(
                &platform,
                &image,
                GuestPolicy::default(),
                BootOptions::default(),
            )
            .unwrap();
        let store = PadStore::new();
        let id = store.create_pad();
        store
            .append(id, secret.encrypt_edit(0, b"survives reboots"))
            .unwrap();
        store.persist(vm.data_volume().unwrap()).unwrap();
    }

    // Reboot the same disk on the same platform: the measurement-derived
    // key re-derives, the volume unseals, the pads reload.
    let vm = hv
        .boot(
            &platform,
            &image,
            GuestPolicy::default(),
            BootOptions::default(),
        )
        .unwrap();
    assert!(!vm.is_first_boot());
    let restored = PadStore::restore(vm.data_volume().unwrap()).unwrap();
    let history = restored.fetch(0).unwrap();
    assert_eq!(
        secret.render_document(&history).unwrap(),
        b"survives reboots"
    );
}

struct HttpsTransport<'a> {
    session: &'a mut MonitoredSession,
}

impl BoundaryTransport for HttpsTransport<'_> {
    fn post(&mut self, path: &str, body: Vec<u8>) -> Result<Vec<u8>, IcError> {
        let response = self
            .session
            .send(&Request::post(path, body))
            .map_err(|e| IcError::CanisterRejected(e.to_string()))?;
        if response.is_success() {
            Ok(response.body)
        } else {
            Err(IcError::CanisterRejected(format!(
                "status {}",
                response.status
            )))
        }
    }
}

#[test]
fn boundary_node_full_stack_with_service_worker() {
    // IC with a dapp.
    let ic = Arc::new(InternetComputer::new(1, 4, 40));
    let mut assets = AssetCanister::new();
    assets.insert("/", "text/html", b"<html>dex</html>".to_vec());
    let canister_id = ic.create_canister(&assets);
    let subnet = ic.subnet_of(canister_id).unwrap();

    // Boundary node inside an attested Revelio fleet.
    let boundary = BoundaryNode::new(Arc::clone(&ic), canister_id);
    let mut world = SimWorld::new(40);
    let fleet = world
        .deploy_fleet("ic.example.org", 2, boundary.router_with_assets(&["/"]))
        .unwrap();
    let extension = world.extension();
    extension.register_site("ic.example.org", vec![fleet.golden_measurement]);

    // Direct translation path over the attested session.
    let outcome = extension.browse("ic.example.org", "/").unwrap();
    assert_eq!(outcome.response.body, b"<html>dex</html>");

    // Service-worker path: fetch the worker, then verified calls.
    let mut session = extension.open_monitored("ic.example.org").unwrap();
    let worker_js = session.request(SERVICE_WORKER_PATH).unwrap();
    assert!(worker_js.is_success());

    let worker = ServiceWorker::new(subnet.public_keys().to_vec(), subnet.threshold());
    let mut transport = HttpsTransport {
        session: &mut session,
    };
    let (content_type, body) = worker
        .fetch_asset(&mut transport, canister_id, "/")
        .unwrap();
    assert_eq!(content_type, "text/html");
    assert_eq!(body, b"<html>dex</html>");
}

#[test]
fn byzantine_replicas_tolerated_through_full_stack() {
    let ic = Arc::new(InternetComputer::new(1, 4, 41));
    let mut assets = AssetCanister::new();
    assets.insert("/", "text/html", b"<html>ok</html>".to_vec());
    let canister_id = ic.create_canister(&assets);
    // One Byzantine replica: within the 2f+1 margin.
    ic.subnet_of(canister_id)
        .unwrap()
        .set_fault(1, revelio_ic::subnet::ReplicaFault::CorruptPayload);

    let boundary = BoundaryNode::new(Arc::clone(&ic), canister_id);
    let mut world = SimWorld::new(41);
    let fleet = world
        .deploy_fleet("ic.example.org", 1, boundary.router_with_assets(&["/"]))
        .unwrap();
    let extension = world.extension();
    extension.register_site("ic.example.org", vec![fleet.golden_measurement]);
    let outcome = extension.browse("ic.example.org", "/").unwrap();
    assert_eq!(outcome.response.body, b"<html>ok</html>");
}

#[test]
fn tampering_boundary_detected_by_worker_over_https() {
    let ic = Arc::new(InternetComputer::new(1, 4, 42));
    let mut assets = AssetCanister::new();
    assets.insert("/", "text/html", b"<html>honest</html>".to_vec());
    let canister_id = ic.create_canister(&assets);
    let subnet = ic.subnet_of(canister_id).unwrap();

    let boundary = BoundaryNode::new(Arc::clone(&ic), canister_id);
    boundary.set_tampering(true);
    let mut world = SimWorld::new(42);
    let fleet = world
        .deploy_fleet("ic.example.org", 1, boundary.router_with_assets(&["/"]))
        .unwrap();
    let extension = world.extension();
    extension.register_site("ic.example.org", vec![fleet.golden_measurement]);

    // The direct path serves tampered content over a perfectly valid,
    // even *attested*, HTTPS connection — attestation proves the code
    // identity, and THIS image's code tampers. (In deployment the
    // tampering build would of course have a different measurement; the
    // test isolates the service-worker defense.)
    let outcome = extension.browse("ic.example.org", "/").unwrap();
    assert!(String::from_utf8_lossy(&outcome.response.body).contains("attacker"));

    // The service worker's certificate check catches it regardless.
    let worker = ServiceWorker::new(subnet.public_keys().to_vec(), subnet.threshold());
    let mut session = extension.open_monitored("ic.example.org").unwrap();
    let mut transport = HttpsTransport {
        session: &mut session,
    };
    assert_eq!(
        worker
            .fetch_asset(&mut transport, canister_id, "/")
            .unwrap_err(),
        IcError::CertificateInvalid
    );
}

#[test]
fn update_calls_go_through_consensus_over_https() {
    use revelio_ic::canister::{encode_put, KeyValueCanister};

    let ic = Arc::new(InternetComputer::new(1, 4, 43));
    let canister_id = ic.create_canister(&KeyValueCanister::new());
    let subnet = ic.subnet_of(canister_id).unwrap();
    let boundary = BoundaryNode::new(Arc::clone(&ic), canister_id);

    let mut world = SimWorld::new(43);
    let fleet = world
        .deploy_fleet("ic.example.org", 1, boundary.router())
        .unwrap();
    let extension = world.extension();
    extension.register_site("ic.example.org", vec![fleet.golden_measurement]);
    let mut session = extension.open_monitored("ic.example.org").unwrap();

    let worker = ServiceWorker::new(subnet.public_keys().to_vec(), subnet.threshold());
    let mut transport = HttpsTransport {
        session: &mut session,
    };
    worker
        .call(
            &mut transport,
            &IcRequest {
                canister_id,
                kind: revelio_ic::canister::CallKind::Update,
                method: "put".into(),
                arg: encode_put(b"balance", b"100"),
            },
        )
        .unwrap();
    let value = worker
        .call(
            &mut transport,
            &IcRequest {
                canister_id,
                kind: revelio_ic::canister::CallKind::Query,
                method: "get".into(),
                arg: b"balance".to_vec(),
            },
        )
        .unwrap();
    assert_eq!(value, b"100");
    let _ = API_CALL_PATH; // referenced for doc purposes
    let _ = demo_app; // silence unused import in some cfgs
}
