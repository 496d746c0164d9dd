//! The HTTPS client: DNS resolution, TLS sessions, and the per-connection
//! key introspection the web extension relies on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use revelio_crypto::ed25519::VerifyingKey;
use revelio_crypto::hmac::Hmac;
use revelio_crypto::sha2::Sha256;
use revelio_net::dns::DnsZone;
use revelio_net::net::SimNet;
use revelio_telemetry::Telemetry;
use revelio_tls::{ResumptionState, TlsClient, TlsClientConfig, TlsSession};

use crate::message::{Request, Response};
use crate::HttpError;

/// An HTTPS client bound to a network, a DNS zone and a root store.
///
/// The client's one telemetry registry is its TLS client's: handshakes
/// are recorded there, and every request carries that registry's
/// innermost open span as a `traceparent` header
/// (`crate::router::TRACEPARENT_HEADER`).
pub struct HttpsClient {
    net: SimNet,
    dns: DnsZone,
    tls: TlsClient,
    entropy_seed: [u8; 32],
    connection_counter: Arc<AtomicU64>,
}

impl std::fmt::Debug for HttpsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpsClient").finish_non_exhaustive()
    }
}

impl HttpsClient {
    /// Creates a client. `entropy_seed` drives per-connection ephemeral
    /// keys (deterministic simulation stand-in for the browser CSPRNG).
    #[must_use]
    pub fn new(
        net: SimNet,
        dns: DnsZone,
        tls_config: TlsClientConfig,
        entropy_seed: [u8; 32],
    ) -> Self {
        HttpsClient {
            net,
            dns,
            tls: TlsClient::new(tls_config),
            entropy_seed,
            connection_counter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Replaces the client's registry: handshakes are recorded into
    /// `telemetry`, and its innermost open span's context is injected
    /// into outgoing requests.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.tls = self.tls.with_telemetry(telemetry);
        self
    }

    fn next_ephemeral(&self) -> [u8; 32] {
        let n = self.connection_counter.fetch_add(1, Ordering::Relaxed);
        let mut mac = Hmac::<Sha256>::new(&self.entropy_seed);
        mac.update(b"client-ephemeral");
        mac.update(&n.to_le_bytes());
        mac.finalize_fixed()
    }

    /// Opens an HTTPS session to `host` (resolving via DNS and performing
    /// the TLS handshake).
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] on resolution, transport, or TLS failure.
    pub fn open(&self, host: &str) -> Result<HttpsSession, HttpError> {
        let address = self.dns.resolve(host)?;
        let session = self
            .tls
            .connect(&self.net, &address, host, self.next_ephemeral())?;
        Ok(HttpsSession {
            session,
            host: host.to_owned(),
            telemetry: self.tls.telemetry().clone(),
        })
    }

    /// Like [`HttpsClient::open`], but offers `resumption`'s session
    /// ticket. Check [`HttpsSession::was_resumed`] on the result: the
    /// server may have declined the ticket (rotated key) and completed a
    /// full, freshly validated handshake instead.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] on resolution, transport, or TLS failure.
    pub fn open_resumed(
        &self,
        host: &str,
        resumption: &ResumptionState,
    ) -> Result<HttpsSession, HttpError> {
        let address = self.dns.resolve(host)?;
        let session = self.tls.connect_resumed(
            &self.net,
            &address,
            host,
            self.next_ephemeral(),
            resumption,
        )?;
        Ok(HttpsSession {
            session,
            host: host.to_owned(),
            telemetry: self.tls.telemetry().clone(),
        })
    }
}

/// An open HTTPS session (kept alive across requests, like a browser
/// connection pool entry).
pub struct HttpsSession {
    session: TlsSession,
    host: String,
    telemetry: Telemetry,
}

impl std::fmt::Debug for HttpsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpsSession")
            .field("host", &self.host)
            .finish_non_exhaustive()
    }
}

impl HttpsSession {
    /// Sends one request on this session.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] on transport or parse failure.
    pub fn send(&mut self, request: &Request) -> Result<Response, HttpError> {
        // Client half of context propagation: inject the innermost open
        // span as a `traceparent` header (an explicit header wins).
        let traceparent = match request.header(crate::router::TRACEPARENT_HEADER) {
            Some(_) => None,
            None => self
                .telemetry
                .current_context()
                .map(|context| context.to_traceparent()),
        };
        let mut added = vec![("Host", self.host.as_str())];
        added.extend(
            traceparent
                .as_deref()
                .map(|value| (crate::router::TRACEPARENT_HEADER, value)),
        );
        // The added headers are encoded after the request's own, without
        // copying its body. The path labels the exchange so per-route
        // fault plans apply.
        let bytes = self
            .session
            .request_routed(&request.path, &request.to_bytes_with(&added)?)?;
        Response::from_bytes(&bytes)
    }

    /// The public key the TLS connection terminates at — what the Revelio
    /// extension checks against the attestation report on *every* request
    /// (§5.3.2).
    #[must_use]
    pub fn peer_public_key(&self) -> VerifyingKey {
        self.session.peer_public_key()
    }

    /// RA-TLS evidence delivered in the handshake, if the server sent any.
    #[must_use]
    pub fn peer_evidence(&self) -> Option<&[u8]> {
        self.session.peer_evidence()
    }

    /// Whether the underlying TLS session was established via the
    /// abbreviated resumed handshake.
    #[must_use]
    pub fn was_resumed(&self) -> bool {
        self.session.was_resumed()
    }

    /// The resumption state this session can be resumed with later
    /// (ticket, secret, and the authenticated peer identity).
    #[must_use]
    pub fn resumption_state(&self) -> Option<&ResumptionState> {
        self.session.resumption_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Router;
    use crate::server::serve_https;
    use revelio_crypto::ed25519::SigningKey;
    use revelio_net::clock::SimClock;
    use revelio_net::net::NetConfig;
    use revelio_pki::acme::{AcmeCa, AcmePolicy};
    use revelio_pki::cert::CertificateSigningRequest;
    use revelio_tls::TlsServerConfig;

    struct World {
        net: SimNet,
        dns: DnsZone,
        clock: SimClock,
        ca: AcmeCa,
    }

    fn world() -> World {
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), NetConfig::default());
        let dns = DnsZone::new();
        let ca = AcmeCa::new(
            "SimEncrypt",
            [3; 32],
            AcmePolicy::default(),
            clock.clone(),
            dns.clone(),
        );
        World {
            net,
            dns,
            clock,
            ca,
        }
    }

    fn serve(w: &World, domain: &str, address: &str, key: &SigningKey, router: Router) {
        let csr = CertificateSigningRequest::new(domain, key, "Org", "CH");
        let chain = w.ca.order_certificate(&csr).unwrap();
        serve_https(
            &w.net,
            address,
            TlsServerConfig::new(chain, key.clone(), [8; 32]),
            router,
        )
        .unwrap();
        w.dns.set_address(domain, address);
    }

    /// Sends `request` to `host` over a fresh session.
    fn send(client: &HttpsClient, host: &str, request: &Request) -> Result<Response, HttpError> {
        client.open(host)?.send(request)
    }

    fn client(w: &World) -> HttpsClient {
        HttpsClient::new(
            w.net.clone(),
            w.dns.clone(),
            TlsClientConfig {
                trusted_roots: vec![w.ca.root_certificate()],
                clock: w.clock.clone(),
                telemetry: None,
            },
            [42; 32],
        )
    }

    #[test]
    fn https_get_roundtrip() {
        let w = world();
        let key = SigningKey::from_seed(&[1; 32]);
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &key,
            Router::new().get("/", |_| Response::ok(b"welcome".to_vec())),
        );
        let res = send(&client(&w), "pad.example.org", &Request::get("/")).unwrap();
        assert!(res.is_success());
        assert_eq!(res.body, b"welcome");
    }

    #[test]
    fn session_reuse_and_key_introspection() {
        let w = world();
        let key = SigningKey::from_seed(&[1; 32]);
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &key,
            Router::new().get("/a", |_| Response::ok(b"a".to_vec())),
        );
        let client = client(&w);
        let mut session = client.open("pad.example.org").unwrap();
        assert_eq!(session.send(&Request::get("/a")).unwrap().body, b"a");
        assert_eq!(session.send(&Request::get("/a")).unwrap().body, b"a");
        assert_eq!(session.peer_public_key(), key.verifying_key());
    }

    #[test]
    fn resumed_session_serves_requests() {
        let w = world();
        let key = SigningKey::from_seed(&[1; 32]);
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &key,
            Router::new().get("/a", |_| Response::ok(b"a".to_vec())),
        );
        let client = client(&w);
        let first = client.open("pad.example.org").unwrap();
        assert!(!first.was_resumed());
        let state = first.resumption_state().unwrap().clone();

        let mut resumed = client.open_resumed("pad.example.org", &state).unwrap();
        assert!(resumed.was_resumed());
        assert_eq!(resumed.send(&Request::get("/a")).unwrap().body, b"a");
        assert_eq!(resumed.peer_public_key(), key.verifying_key());
    }

    #[test]
    fn unresolvable_host_fails() {
        let w = world();
        assert!(matches!(
            send(&client(&w), "ghost.example.org", &Request::get("/")),
            Err(HttpError::Net(_))
        ));
    }

    #[test]
    fn post_reaches_handler() {
        let w = world();
        let key = SigningKey::from_seed(&[1; 32]);
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &key,
            Router::new().post("/echo", |req| Response::ok(req.body.clone())),
        );
        let res = send(
            &client(&w),
            "pad.example.org",
            &Request::post("/echo", b"payload".to_vec()),
        )
        .unwrap();
        assert_eq!(res.body, b"payload");
    }

    #[test]
    fn trace_context_propagates_client_to_server() {
        use revelio_telemetry::Telemetry;

        let w = world();
        let key = SigningKey::from_seed(&[1; 32]);
        let telemetry = Telemetry::new(w.clock.clone());
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &key,
            Router::new()
                .get("/", |_| Response::ok(vec![]))
                .with_tracing(telemetry.clone(), "node"),
        );
        let client = client(&w).with_telemetry(telemetry.clone());
        let browse = telemetry.span("client.browse");
        let mut session = client.open("pad.example.org").unwrap();
        assert!(session.send(&Request::get("/")).unwrap().is_success());
        browse.finish_ms();

        // The client's registry is its TLS client's: the handshake and
        // the server span are both children of the client span, one trace.
        let client_span = telemetry.span_record(0).unwrap();
        assert_eq!(client_span.name, "client.browse");
        let handshake_span = telemetry.span_record(1).unwrap();
        assert_eq!(handshake_span.name, "tls.handshake");
        assert_eq!(handshake_span.parent, Some(client_span.id));
        let server_span = telemetry.span_record(2).unwrap();
        assert_eq!(server_span.name, "http.server");
        assert_eq!(server_span.parent, Some(client_span.id));
        assert_eq!(server_span.trace_id, client_span.trace_id);
    }

    #[test]
    fn no_open_span_means_no_traceparent_header() {
        use revelio_telemetry::Telemetry;

        let w = world();
        let key = SigningKey::from_seed(&[1; 32]);
        let telemetry = Telemetry::new(w.clock.clone());
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &key,
            Router::new().get("/tp", |req| {
                Response::ok(
                    req.header(crate::router::TRACEPARENT_HEADER)
                        .unwrap_or("none")
                        .as_bytes()
                        .to_vec(),
                )
            }),
        );
        let client = client(&w).with_telemetry(telemetry);
        let res = send(&client, "pad.example.org", &Request::get("/tp")).unwrap();
        assert_eq!(res.body, b"none");
    }

    #[test]
    fn host_header_is_set() {
        let w = world();
        let key = SigningKey::from_seed(&[1; 32]);
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &key,
            Router::new().get("/host", |req| {
                Response::ok(req.header("Host").unwrap_or("none").as_bytes().to_vec())
            }),
        );
        let res = send(&client(&w), "pad.example.org", &Request::get("/host")).unwrap();
        assert_eq!(res.body, b"pad.example.org");
    }
}
