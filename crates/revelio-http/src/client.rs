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

/// Splits `https://host/path?query` into `(host, path)`.
///
/// The host ends at the first `/`, `?`, or `#`: a query string with no
/// path (`https://h?x=1`) yields path `/?x=1`, and a fragment is
/// client-side state that is never sent on the wire, so it is stripped.
///
/// # Errors
///
/// Returns [`HttpError::BadUrl`] for anything else.
pub fn parse_https_url(url: &str) -> Result<(&str, String), HttpError> {
    let rest = url
        .strip_prefix("https://")
        .ok_or_else(|| HttpError::BadUrl(url.to_owned()))?;
    let rest = &rest[..rest.find('#').unwrap_or(rest.len())];
    let (host, tail) = match rest.find(['/', '?']) {
        Some(idx) => (&rest[..idx], &rest[idx..]),
        None => (rest, ""),
    };
    if host.is_empty() {
        return Err(HttpError::BadUrl(url.to_owned()));
    }
    let path = if tail.starts_with('?') {
        // A query with no path component is rooted at "/".
        format!("/{tail}")
    } else if tail.is_empty() {
        "/".to_owned()
    } else {
        tail.to_owned()
    };
    Ok((host, path))
}

/// An HTTPS client bound to a network, a DNS zone and a root store.
///
/// The client's one telemetry registry is its TLS client's: handshakes
/// are recorded there, and every request carries that registry's
/// innermost open span as a `traceparent` header
/// ([`crate::router::TRACEPARENT_HEADER`]).
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

    /// One-shot GET of `url` over a fresh session.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] on any failure.
    pub fn get(&self, url: &str) -> Result<Response, HttpError> {
        let (host, path) = parse_https_url(url)?;
        let mut session = self.open(host)?;
        session.send(&Request::get(&path))
    }

    /// One-shot POST to `url` over a fresh session.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] on any failure.
    pub fn post(&self, url: &str, body: Vec<u8>) -> Result<Response, HttpError> {
        let (host, path) = parse_https_url(url)?;
        let mut session = self.open(host)?;
        session.send(&Request::post(&path, body))
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

    /// The host this session was opened for.
    #[must_use]
    pub fn host(&self) -> &str {
        &self.host
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
    use proptest::prelude::*;
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
        let res = client(&w).get("https://pad.example.org/").unwrap();
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
            client(&w).get("https://ghost.example.org/"),
            Err(HttpError::Net(_))
        ));
    }

    #[test]
    fn bad_urls_rejected() {
        assert!(parse_https_url("http://insecure.example").is_err());
        assert!(parse_https_url("https://").is_err());
        assert!(parse_https_url("https://?x=1").is_err());
        assert!(parse_https_url("https://#frag").is_err());
        assert_eq!(parse_https_url("https://h").unwrap(), ("h", "/".to_owned()));
        assert_eq!(
            parse_https_url("https://h/p/q").unwrap(),
            ("h", "/p/q".to_owned())
        );
    }

    #[test]
    fn query_string_is_not_part_of_the_host() {
        // Regression: the query used to be folded into the host, so
        // `https://pad.example.org?x=1` failed DNS resolution.
        assert_eq!(
            parse_https_url("https://pad.example.org?x=1").unwrap(),
            ("pad.example.org", "/?x=1".to_owned())
        );
        assert_eq!(
            parse_https_url("https://h/p?q=2&r=3").unwrap(),
            ("h", "/p?q=2&r=3".to_owned())
        );
        assert_eq!(
            parse_https_url("https://h/p#frag").unwrap(),
            ("h", "/p".to_owned())
        );
        assert_eq!(
            parse_https_url("https://h#frag").unwrap(),
            ("h", "/".to_owned())
        );
    }

    proptest! {
        #[test]
        fn parsed_hosts_never_contain_delimiters(url: String) {
            if let Ok((host, path)) = parse_https_url(&url) {
                prop_assert!(!host.is_empty());
                prop_assert!(!host.contains('/'));
                prop_assert!(!host.contains('?'));
                prop_assert!(!host.contains('#'));
                prop_assert!(path.starts_with('/'));
            }
        }

        #[test]
        fn structured_urls_split_exactly(
            host in "[a-z]{1,12}",
            seg in "[a-z]{1,6}",
            query in "[a-z]{1,8}",
            has_path: bool,
            has_query: bool,
            has_fragment: bool,
        ) {
            let path = if has_path { format!("/{seg}") } else { String::new() };
            let mut url = format!("https://{host}{path}");
            if has_query {
                url.push('?');
                url.push_str(&query);
            }
            if has_fragment {
                url.push_str("#frag");
            }
            let (h, p) = parse_https_url(&url).unwrap();
            prop_assert_eq!(h, host.as_str());
            let base = if has_path { path } else { "/".to_owned() };
            let expected = if has_query { format!("{base}?{query}") } else { base };
            prop_assert_eq!(p, expected);
        }
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
        let res = client(&w)
            .post("https://pad.example.org/echo", b"payload".to_vec())
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
        let res = client.get("https://pad.example.org/tp").unwrap();
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
        let res = client(&w).get("https://pad.example.org/host").unwrap();
        assert_eq!(res.body, b"pad.example.org");
    }
}
