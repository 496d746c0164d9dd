//! A **Revelio VM**: a measured, verity-protected, sealed confidential
//! guest serving a web application plus its attestation evidence, and
//! participating in the SP node's certificate/key distribution protocol
//! (paper §5.2, §5.3.1).
//!
//! Each node exposes two network surfaces:
//!
//! * the **bootstrap port** (provider-internal): `GET /revelio/csr-bundle`,
//!   `POST /revelio/install-cert`, `POST /revelio/key-request` — the
//!   endpoints Fig. 4's protocol runs over;
//! * the **public HTTPS port**, bound only after the shared TLS identity is
//!   installed: the application routes plus the well-known evidence URL.
//!
//! No other port accepts connections — dialing the SSH port of a Revelio
//! VM gets `ConnectionRefused`, which is requirement **F4**'s
//! "no inward management connections" made literal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use revelio_boot::vm::BootedVm;
use revelio_crypto::ed25519::{SigningKey, VerifyingKey};
use revelio_crypto::hmac::Hmac;
use revelio_crypto::sealed_box;
use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::{ByteReader, ByteWriter};
use revelio_crypto::x25519;
use revelio_http::message::{Request, Response};
use revelio_http::router::Router;
use revelio_http::server::{plain_request_traced, serve_http, serve_https};
use revelio_http::WELL_KNOWN_ATTESTATION_PATH;
use revelio_net::net::SimNet;
use revelio_net::retry::RetryPolicy;
use revelio_pki::cert::{CertificateChain, CertificateSigningRequest};
use revelio_telemetry::{retry_with_telemetry, FlightRecorder, Telemetry};
use revelio_tls::TlsServerConfig;
use sev_snp::ids::ChipId;
use sev_snp::measurement::Measurement;
use sev_snp::report::SignedReport;
use sev_snp::verify::ReportVerifier;

use crate::evidence::{tls_binding_report_data, EvidenceBundle};
use crate::kds_http::KdsHttpClient;
use crate::RevelioError;

/// Static configuration of one Revelio node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Service domain the shared certificate will cover.
    pub domain: String,
    /// Public HTTPS address, e.g. `"203.0.113.1:443"`.
    pub public_address: String,
    /// Provider-internal bootstrap address, e.g. `"203.0.113.1:8080"`.
    pub bootstrap_address: String,
    /// CSR organisation field.
    pub organization: String,
    /// CSR country field.
    pub country: String,
    /// Modelled server-side work per application request, in ms (drives
    /// the Table 3 "plain GET" row).
    pub page_processing_ms: f64,
    /// Pinned AMD root key for validating peer/leader reports.
    pub trusted_ark: VerifyingKey,
    /// Trusted web-PKI roots: the certificate chain the SP distributes is
    /// validated against these before installation (a forged self-signed
    /// chain from a bootstrap-network attacker must not be served).
    pub trusted_tls_roots: Vec<revelio_pki::cert::Certificate>,
    /// Retry budget for the node's leader-link requests (key retrieval
    /// over the provider-internal network). Start from
    /// [`NodeConfig::default_retry_policy`].
    pub retry: RetryPolicy,
}

impl NodeConfig {
    /// The retry policy node configs should start with: the crate-wide
    /// default budget on the node-specific jitter stream.
    #[must_use]
    pub fn default_retry_policy() -> RetryPolicy {
        RetryPolicy::default().with_jitter_seed(NODE_JITTER_SEED)
    }
}

/// The `{CSR, report}` bundle a node hands the SP (Fig. 4 step 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrBundle {
    /// CSR for the node's unique identity key.
    pub csr: CertificateSigningRequest,
    /// Report with `REPORT_DATA = SHA-256(csr)`.
    pub report: SignedReport,
}

impl CsrBundle {
    /// Serializes the bundle.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_var_bytes(&self.csr.to_bytes());
        w.put_var_bytes(&self.report.to_bytes());
        w.into_bytes()
    }

    /// Decodes the bundle.
    ///
    /// # Errors
    ///
    /// Returns wire/crypto errors for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RevelioError> {
        let mut r = ByteReader::new(bytes);
        let csr = CertificateSigningRequest::from_bytes(r.get_var_bytes()?)?;
        let report = SignedReport::from_bytes(r.get_var_bytes()?)?;
        r.finish()?;
        Ok(CsrBundle { csr, report })
    }
}

pub(crate) fn encode_install_cert(
    chain: &CertificateChain,
    leader_bootstrap: &str,
    approved_chips: &[ChipId],
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_var_bytes(&chain.to_bytes());
    w.put_str(leader_bootstrap);
    w.put_u32(approved_chips.len() as u32);
    for chip in approved_chips {
        w.put_bytes(chip.as_bytes());
    }
    w.into_bytes()
}

fn decode_install_cert(
    bytes: &[u8],
) -> Result<(CertificateChain, String, Vec<ChipId>), RevelioError> {
    let mut r = ByteReader::new(bytes);
    let chain = CertificateChain::from_bytes(r.get_var_bytes()?)?;
    let leader = r.get_str()?;
    let n = r.get_count(ChipId::LEN)?;
    let mut approved_chips = Vec::with_capacity(n);
    for _ in 0..n {
        approved_chips.push(ChipId::from_bytes(r.get_array::<64>()?));
    }
    r.finish()?;
    Ok((chain, leader, approved_chips))
}

fn encode_key_request(report: &SignedReport, box_public: &[u8; 32], nonce: &[u8; 32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_var_bytes(&report.to_bytes());
    w.put_bytes(box_public);
    w.put_bytes(nonce);
    w.into_bytes()
}

fn decode_key_request(bytes: &[u8]) -> Result<(SignedReport, [u8; 32], [u8; 32]), RevelioError> {
    let mut r = ByteReader::new(bytes);
    let report = SignedReport::from_bytes(r.get_var_bytes()?)?;
    let box_public = r.get_array::<32>()?;
    let nonce = r.get_array::<32>()?;
    r.finish()?;
    Ok((report, box_public, nonce))
}

/// The `REPORT_DATA` binding of a key request: the requester's encryption
/// key and the freshness nonce, both attested.
fn key_request_binding(box_public: &[u8; 32], nonce: &[u8; 32]) -> [u8; 32] {
    Sha256::digest([&box_public[..], &nonce[..]].concat())
}

/// The `REPORT_DATA` binding of a key response: the requester's nonce plus
/// the ciphertext — a recorded response cannot be replayed against a
/// different request.
fn key_response_binding(nonce: &[u8; 32], encrypted: &[u8]) -> [u8; 32] {
    Sha256::digest([&nonce[..], encrypted].concat())
}

fn encode_key_response(leader_report: &SignedReport, encrypted_key: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_var_bytes(&leader_report.to_bytes());
    w.put_var_bytes(encrypted_key);
    w.into_bytes()
}

fn decode_key_response(bytes: &[u8]) -> Result<(SignedReport, Vec<u8>), RevelioError> {
    let mut r = ByteReader::new(bytes);
    let report = SignedReport::from_bytes(r.get_var_bytes()?)?;
    let encrypted = r.get_var_bytes()?.to_vec();
    r.finish()?;
    Ok((report, encrypted))
}

struct NodeState {
    chain: Option<CertificateChain>,
    tls_key: Option<SigningKey>,
    evidence: Option<Vec<u8>>,
    approved_chips: Vec<ChipId>,
    serving: bool,
}

/// Decorrelates the node retry jitter stream from other components.
const NODE_JITTER_SEED: u64 = 0x6e6f_6465; // "node"

struct NodeShared {
    vm: BootedVm,
    config: NodeConfig,
    net: SimNet,
    kds: KdsHttpClient,
    retry: RetryPolicy,
    state: Mutex<NodeState>,
    box_secret: [u8; 32],
    eph_counter: AtomicU64,
    /// The application router served behind the well-known endpoint.
    app: Router,
    /// Request counters and the evidence-build span land here; the
    /// public port serves it as `GET /metrics`.
    telemetry: Telemetry,
    /// The node's ring of recent protocol events (key exchanges,
    /// verdicts); the public port serves it as `GET /debug/flight`.
    flight: FlightRecorder,
}

/// A deployed Revelio node.
#[derive(Clone)]
pub struct RevelioNode {
    shared: Arc<NodeShared>,
}

impl std::fmt::Debug for RevelioNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevelioNode")
            .field("domain", &self.shared.config.domain)
            .field("public_address", &self.shared.config.public_address)
            .finish_non_exhaustive()
    }
}

impl NodeShared {
    fn identity(&self) -> &SigningKey {
        self.vm
            .identity()
            .expect("revelio images enable identity creation")
    }

    fn box_public(&self) -> [u8; 32] {
        x25519::public_key(&self.box_secret)
    }

    fn csr(&self) -> CertificateSigningRequest {
        CertificateSigningRequest::new(
            &self.config.domain,
            self.identity(),
            &self.config.organization,
            &self.config.country,
        )
    }

    fn next_ephemeral(&self) -> [u8; 32] {
        let n = self.eph_counter.fetch_add(1, Ordering::Relaxed);
        let mut mac = Hmac::<Sha256>::new(&self.box_secret);
        mac.update(b"node-ephemeral");
        mac.update(&n.to_le_bytes());
        mac.finalize().try_into().expect("32 bytes")
    }

    /// Validates a peer/leader report for mutual attestation: chain to the
    /// pinned ARK, signature, and an *identical* launch measurement.
    fn validate_peer_report(&self, report: &SignedReport) -> Result<(), RevelioError> {
        let chain = self
            .kds
            .vcek_chain(&report.report.chip_id, &report.report.reported_tcb)?;
        ReportVerifier::new(self.config.trusted_ark)
            .verify(report, &chain)
            .map_err(|e| RevelioError::MutualAttestationFailed(e.to_string()))?;
        if report.report.measurement != self.vm.measurement() {
            return Err(RevelioError::MutualAttestationFailed(
                "peer measurement differs from ours".into(),
            ));
        }
        Ok(())
    }

    fn handle_key_request(&self, body: &[u8]) -> Result<Vec<u8>, RevelioError> {
        let (peer_report, peer_box_public, nonce) = decode_key_request(body)?;
        self.validate_peer_report(&peer_report)?;
        // REPORT_DATA must bind the encryption key we are about to use and
        // the requester's freshness nonce.
        let expected = key_request_binding(&peer_box_public, &nonce);
        if !revelio_crypto::ct::eq(&peer_report.report.report_data.as_bytes()[..32], &expected) {
            return Err(RevelioError::MutualAttestationFailed(
                "peer report does not bind its encryption key".into(),
            ));
        }
        let (tls_key, approved_chips) = {
            let state = self.state.lock();
            let key = state.tls_key.clone().ok_or_else(|| {
                RevelioError::MutualAttestationFailed("leader holds no key yet".into())
            })?;
            (key, state.approved_chips.clone())
        };
        // Enforce the SP's chip allowlist at key distribution too (§5.3.1):
        // an extra clone of the public image on an unapproved chip presents
        // a valid report with the right measurement, but must not receive
        // the fleet's TLS key.
        if !approved_chips.is_empty() && !approved_chips.contains(&peer_report.report.chip_id) {
            return Err(RevelioError::MutualAttestationFailed(
                "peer chip is not on the fleet allowlist".into(),
            ));
        }
        // Mix the request nonce into the ephemeral so a leader reboot
        // (which resets the counter) can never reuse a (key, nonce) pair
        // for a different plaintext.
        let mut eph = self.next_ephemeral();
        let mixed = Sha256::digest([&eph[..], &nonce[..]].concat());
        eph.copy_from_slice(&mixed);
        let encrypted = sealed_box::seal(&peer_box_public, tls_key.seed(), &eph);
        // The leader's own report binds nonce and payload (§5.3.1).
        let leader_report = self
            .vm
            .report_with_data(&key_response_binding(&nonce, &encrypted));
        Ok(encode_key_response(&leader_report, &encrypted))
    }

    fn fetch_key_from_leader(
        &self,
        leader_bootstrap: &str,
        chain: &CertificateChain,
    ) -> Result<SigningKey, RevelioError> {
        let box_public = self.box_public();
        // Freshness nonce: binds the leader's response to THIS request, so
        // recorded responses from earlier provisioning rounds cannot be
        // replayed after a key rotation.
        let nonce = self.next_ephemeral();
        let my_report = self
            .vm
            .report_with_data(&key_request_binding(&box_public, &nonce));
        let request = Request::post(
            "/revelio/key-request",
            encode_key_request(&my_report, &box_public, &nonce),
        );
        // Retry transient faults on the leader link: the nonce is reused
        // across attempts of ONE logical request (replay protection binds
        // the response to the request, not to the transport attempt).
        let span = self
            .telemetry
            .span_with("node.key_fetch", &[("leader", leader_bootstrap)]);
        let response = retry_with_telemetry(
            &self.retry,
            &self.telemetry,
            "node",
            revelio_http::HttpError::is_transient,
            |attempt| {
                // Attempts count from 1: only the later ones are retries.
                if attempt > 1 {
                    self.flight
                        .record("retry", &format!("key-fetch attempt {attempt}"));
                }
                plain_request_traced(&self.net, leader_bootstrap, &request, &self.telemetry)
            },
        );
        if response.is_err() {
            span.attr("outcome", "failure");
        }
        span.finish_ms();
        let response = response?;
        if !response.is_success() {
            return Err(RevelioError::MutualAttestationFailed(format!(
                "leader refused key request with status {}",
                response.status
            )));
        }
        let (leader_report, encrypted) = decode_key_response(&response.body)?;
        self.validate_peer_report(&leader_report)?;
        let expected = key_response_binding(&nonce, &encrypted);
        if !revelio_crypto::ct::eq(
            &leader_report.report.report_data.as_bytes()[..32],
            &expected,
        ) {
            return Err(RevelioError::MutualAttestationFailed(
                "leader report does not bind the key payload".into(),
            ));
        }
        let seed: [u8; 32] = sealed_box::open(&self.box_secret, &encrypted)?
            .try_into()
            .map_err(|_| RevelioError::KeyCertificateMismatch)?;
        let key = SigningKey::from_seed(&seed);
        if key.verifying_key() != chain.leaf().public_key {
            return Err(RevelioError::KeyCertificateMismatch);
        }
        Ok(key)
    }

    fn start_https(
        self: &Arc<Self>,
        chain: CertificateChain,
        key: SigningKey,
    ) -> Result<(), RevelioError> {
        // Build the evidence bundle binding the (shared) TLS key to this
        // node's hardware identity.
        let span = self.telemetry.span_with(
            "node.evidence_build",
            &[("node", &self.config.public_address)],
        );
        let binding = tls_binding_report_data(&key.verifying_key());
        let report = self.vm.report_with_data(&binding);
        let vcek_chain = self
            .kds
            .vcek_chain(&report.report.chip_id, &report.report.reported_tcb)?;
        let evidence = EvidenceBundle {
            report,
            chain: vcek_chain,
        }
        .to_bytes();
        let ms = span.finish_ms();
        self.telemetry
            .gauge_set("revelio_node_evidence_build_ms", ms);

        let clock = self.net.clock().clone();
        let processing_ms = self.config.page_processing_ms;
        let app_shared = Arc::clone(self);
        let ratls_evidence = evidence.clone();
        let well_known_evidence = evidence.clone();
        let evidence_telemetry = self.telemetry.clone();
        // `/metrics` is the Prometheus text exposition of the whole
        // (shared) registry — the operator-facing side of the
        // deterministic telemetry. `/debug/flight` is a read-only
        // forensic window: the ring is capacity-bounded, so the response
        // body is too.
        let registry = self.telemetry.clone();
        let ring = self.flight.clone();
        let request_telemetry = self.telemetry.clone();
        let router = Router::new()
            .get(WELL_KNOWN_ATTESTATION_PATH, move |_req| {
                evidence_telemetry.counter_add("revelio_node_evidence_requests_total", 1);
                Response::ok(well_known_evidence.clone())
            })
            .get("/metrics", move |_req| {
                Response::ok(registry.export_prometheus().into_bytes())
                    .with_header("Content-Type", "text/plain; version=0.0.4")
            })
            .get("/debug/flight", move |_req| {
                Response::ok(ring.dump().to_json().into_bytes())
                    .with_header("Content-Type", "application/json")
            })
            .with_fallback(move |req| {
                request_telemetry.counter_add("revelio_node_requests_total", 1);
                clock.advance_ms(processing_ms);
                app_shared.vm_app_dispatch(req)
            })
            .with_tracing(self.telemetry.clone(), "node");

        let mut entropy_seed = [0u8; 32];
        entropy_seed.copy_from_slice(&Sha256::digest(
            [&self.box_secret[..], b"tls-entropy"].concat(),
        ));
        // A certificate renewal re-installs over a live service: release
        // the public binding first so the bind below swaps the TLS config
        // instead of failing with AddressInUse. First-time installs skip
        // this (the address was never bound).
        if self.state.lock().serving {
            self.net.unbind(&self.config.public_address);
        }
        serve_https(
            &self.net,
            &self.config.public_address,
            TlsServerConfig {
                chain: chain.clone(),
                key: key.clone(),
                entropy_seed,
                // RA-TLS (§7): the same evidence bundle also rides inside
                // the handshake so clients can skip the well-known fetch.
                evidence: Some(ratls_evidence),
            },
            router,
        )?;
        // Commit shared state only once the public service is actually up:
        // a failed (or repeated) install must not leave the node answering
        // key requests for a key it never served.
        {
            let mut state = self.state.lock();
            state.evidence = Some(evidence);
            state.tls_key = Some(key);
            state.chain = Some(chain);
            state.serving = true;
        }
        Ok(())
    }

    fn vm_app_dispatch(&self, req: &Request) -> Response {
        self.app.dispatch(req)
    }
}

impl RevelioNode {
    /// Deploys a booted VM as a Revelio node: binds the bootstrap port and
    /// waits (passively) for the SP node's protocol.
    ///
    /// The node records request counters and a `node.evidence_build` span
    /// into `telemetry` and appends key-exchange and verdict events to
    /// `flight`. Once provisioned, its public HTTPS port serves
    /// `GET /metrics` (Prometheus text exposition of the registry) and
    /// `GET /debug/flight` (the bounded ring as JSON) next to the
    /// well-known attestation endpoint. Both routers extract
    /// `traceparent` contexts, stitching the node's server side into the
    /// caller's trace.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::Http`] when an address is already bound.
    pub fn deploy(
        net: SimNet,
        kds: KdsHttpClient,
        vm: BootedVm,
        config: NodeConfig,
        app: Router,
        telemetry: Telemetry,
        flight: FlightRecorder,
    ) -> Result<Self, RevelioError> {
        let identity_seed = *vm.identity().expect("identity enabled").seed();
        let box_secret: [u8; 32] = Hmac::<Sha256>::mac(&identity_seed, b"box-encryption")
            .try_into()
            .expect("32 bytes");
        let retry = config.retry.clone();
        let shared = Arc::new(NodeShared {
            vm,
            config,
            net: net.clone(),
            kds,
            retry,
            state: Mutex::new(NodeState {
                chain: None,
                tls_key: None,
                evidence: None,
                approved_chips: Vec::new(),
                serving: false,
            }),
            box_secret,
            eph_counter: AtomicU64::new(0),
            app,
            telemetry,
            flight,
        });

        let bootstrap_router = {
            let s1 = Arc::clone(&shared);
            let s2 = Arc::clone(&shared);
            let s3 = Arc::clone(&shared);
            let router = Router::new()
                .get("/revelio/csr-bundle", move |_req| {
                    let csr = s1.csr();
                    let report = s1.vm.report_with_data(&csr.digest());
                    Response::ok(CsrBundle { csr, report }.to_bytes())
                })
                .post("/revelio/install-cert", move |req| {
                    match s2.install_cert(&req.body) {
                        Ok(()) => {
                            s2.flight.record("request", "install-cert accepted");
                            Response::ok(Vec::new())
                        }
                        Err(e) => {
                            s2.flight
                                .record("verdict", &format!("install-cert refused: {e}"));
                            Response::status(403).with_header(
                                "X-Revelio-Error",
                                &e.to_string().replace(['\r', '\n'], " "),
                            )
                        }
                    }
                })
                .post("/revelio/key-request", move |req| {
                    match s3.handle_key_request(&req.body) {
                        Ok(body) => {
                            s3.flight.record("request", "key-request served");
                            Response::ok(body)
                        }
                        Err(e) => {
                            s3.flight
                                .record("verdict", &format!("key-request refused: {e}"));
                            Response::status(403).with_header(
                                "X-Revelio-Error",
                                &e.to_string().replace(['\r', '\n'], " "),
                            )
                        }
                    }
                });
            router.with_tracing(shared.telemetry.clone(), "node")
        };
        serve_http(&net, &shared.config.bootstrap_address, bootstrap_router)?;
        Ok(RevelioNode { shared })
    }

    /// This node's launch measurement.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.shared.vm.measurement()
    }

    /// The node's unique identity public key.
    #[must_use]
    pub fn identity_public_key(&self) -> VerifyingKey {
        self.shared.identity().verifying_key()
    }

    /// The installed shared TLS public key, once provisioned.
    #[must_use]
    pub fn tls_public_key(&self) -> Option<VerifyingKey> {
        self.shared
            .state
            .lock()
            .tls_key
            .as_ref()
            .map(SigningKey::verifying_key)
    }

    /// Whether the public HTTPS service is up.
    #[must_use]
    pub fn is_serving(&self) -> bool {
        self.shared.state.lock().serving
    }

    /// The node's public HTTPS address.
    #[must_use]
    pub fn public_address(&self) -> &str {
        &self.shared.config.public_address
    }

    /// The node's bootstrap address.
    #[must_use]
    pub fn bootstrap_address(&self) -> &str {
        &self.shared.config.bootstrap_address
    }

    /// The underlying booted VM (for boot-report inspection in benches).
    #[must_use]
    pub fn vm(&self) -> &BootedVm {
        &self.shared.vm
    }
}

impl NodeShared {
    fn install_cert(self: &Arc<Self>, body: &[u8]) -> Result<(), RevelioError> {
        let (chain, leader_bootstrap, approved_chips) = decode_install_cert(body)?;
        // The chain must validate to the node's pinned web-PKI roots, be
        // within its validity window, and cover the service domain — a
        // bootstrap-network attacker cannot install a self-signed chain.
        let now_ms = self.net.clock().now_us() / 1000;
        chain.validate(&self.config.trusted_tls_roots, now_ms)?;
        chain.leaf().check_domain(&self.config.domain)?;

        // Record the fleet allowlist before any key exchange so the leader
        // enforces it from its very first key request.
        self.state.lock().approved_chips = approved_chips;

        // Renewal fast path: a fresh chain over the key this node already
        // holds needs no leader round trip — the fleet key survives a
        // certificate renewal, only the chain's validity window moves.
        let stored_key = {
            let state = self.state.lock();
            state
                .tls_key
                .clone()
                .filter(|k| k.verifying_key() == chain.leaf().public_key)
        };
        let key = if let Some(key) = stored_key {
            self.flight
                .record("request", "install-cert renewal (key reused)");
            key
        } else if chain.leaf().public_key == self.identity().verifying_key() {
            self.identity().clone()
        } else {
            self.fetch_key_from_leader(&leader_bootstrap, &chain)?
        };
        self.start_https(chain, key)
    }
}

/// A small demo application used by examples and tests.
#[must_use]
pub fn demo_app() -> Router {
    Router::new()
        .get("/", |_| {
            Response::ok(b"<html><body>revelio demo service</body></html>".to_vec())
                .with_header("Content-Type", "text/html")
        })
        .get("/healthz", |_| Response::ok(b"ok".to_vec()))
}
