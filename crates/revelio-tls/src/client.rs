//! The TLS client and established session.

use revelio_crypto::ed25519::VerifyingKey;
use revelio_crypto::{ct, x25519};
use revelio_net::clock::SimClock;
use revelio_net::net::{Connection, SimNet};
use revelio_pki::cert::{Certificate, CertificateChain};
use revelio_telemetry::Telemetry;

use crate::handshake::{transcript_hash, ClientHello, ResumedServerHello, ServerHello};
use crate::record::{derive_resumption_secret, derive_traffic_keys, TrafficKeys};
use crate::ticket::resumption_confirm;
use crate::TlsError;

/// Everything a client must remember to resume a session later: the
/// opaque ticket, the secret it seals, and the peer identity material
/// the original full handshake authenticated (a resumed handshake
/// carries no chain or evidence on the wire — they are *this* state,
/// vouched for by the server's proof of possession of the secret).
#[derive(Clone)]
pub struct ResumptionState {
    /// The opaque, server-sealed session ticket.
    pub ticket: Vec<u8>,
    /// The resumption secret the ticket seals (client's own copy).
    pub secret: [u8; 32],
    /// The certificate chain validated during the original handshake.
    pub chain: CertificateChain,
    /// RA-TLS evidence delivered in the original handshake, if any.
    pub evidence: Option<Vec<u8>>,
}

impl std::fmt::Debug for ResumptionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumptionState")
            .field("peer", &self.chain.leaf().subject)
            .field("ticket_len", &self.ticket.len())
            .finish_non_exhaustive()
    }
}

/// Client-side trust configuration.
#[derive(Clone)]
pub struct TlsClientConfig {
    /// Trusted root certificates (the browser's root store).
    pub trusted_roots: Vec<Certificate>,
    /// Clock for validity-window checks.
    pub clock: SimClock,
    /// The registry each [`TlsClient::connect`] records its
    /// `tls.handshake` span and handshake counters/latency metrics into.
    /// `None` gives the client a private registry on `clock`.
    pub telemetry: Option<Telemetry>,
}

impl std::fmt::Debug for TlsClientConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsClientConfig")
            .field("trusted_roots", &self.trusted_roots.len())
            .finish_non_exhaustive()
    }
}

/// A TLS client.
#[derive(Debug, Clone)]
pub struct TlsClient {
    config: TlsClientConfig,
    telemetry: Telemetry,
}

impl TlsClient {
    /// Creates a client trusting `config.trusted_roots`.
    #[must_use]
    pub fn new(mut config: TlsClientConfig) -> Self {
        let telemetry = config
            .telemetry
            .take()
            .unwrap_or_else(|| Telemetry::new(config.clock.clone()));
        TlsClient { config, telemetry }
    }

    /// Records handshakes into `telemetry` instead of the current registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The registry handshakes are recorded into.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Connects to `address`, expecting a certificate for `server_name`.
    ///
    /// `ephemeral_seed` supplies the client's handshake entropy
    /// (deterministic for reproducible simulations; a browser uses its
    /// CSPRNG).
    ///
    /// # Errors
    ///
    /// Returns [`TlsError`] on transport failure, malformed flights,
    /// certificate rejection (chain, validity, domain), or a bad
    /// transcript signature.
    pub fn connect(
        &self,
        net: &SimNet,
        address: &str,
        server_name: &str,
        ephemeral_seed: [u8; 32],
    ) -> Result<TlsSession, TlsError> {
        self.connect_instrumented(net, address, server_name, ephemeral_seed, None)
    }

    /// Like [`TlsClient::connect`], but offers `resumption`'s ticket. A
    /// server that accepts it answers abbreviated — zero scalar
    /// multiplications on either side — and the returned session reports
    /// [`TlsSession::was_resumed`]. A server that declines (rotated
    /// ticket key) falls back to the full handshake *in the same round
    /// trip*, with full chain validation; the decline is counted in
    /// `revelio_tls_resumption_rejections_total`.
    ///
    /// # Errors
    ///
    /// As for [`TlsClient::connect`], plus a [`TlsError::Handshake`] when
    /// the server's resumption confirmation fails (a peer that accepted
    /// the ticket without knowing the secret).
    pub fn connect_resumed(
        &self,
        net: &SimNet,
        address: &str,
        server_name: &str,
        ephemeral_seed: [u8; 32],
        resumption: &ResumptionState,
    ) -> Result<TlsSession, TlsError> {
        self.connect_instrumented(net, address, server_name, ephemeral_seed, Some(resumption))
    }

    fn connect_instrumented(
        &self,
        net: &SimNet,
        address: &str,
        server_name: &str,
        ephemeral_seed: [u8; 32],
        offer: Option<&ResumptionState>,
    ) -> Result<TlsSession, TlsError> {
        let telemetry = &self.telemetry;
        // The dialed address identifies the hop in assembled traces (the
        // SNI alone is ambiguous across a multi-node fleet).
        let span = telemetry.span_with(
            "tls.handshake",
            &[("sni", server_name), ("address", address)],
        );
        let result = self.connect_inner(net, address, server_name, ephemeral_seed, offer);
        if result.is_err() {
            span.attr("outcome", "failure");
        }
        let ms = span.finish_ms();
        telemetry.observe("revelio_tls_handshake_ms", ms);
        let outcome = if result.is_ok() {
            "revelio_tls_handshakes_total"
        } else {
            "revelio_tls_handshake_failures_total"
        };
        telemetry.counter_add(outcome, 1);
        if let Ok(session) = &result {
            if session.resumed {
                telemetry.counter_add("revelio_tls_resumptions_total", 1);
                telemetry.observe("revelio_tls_resumed_handshake_ms", ms);
            } else {
                if offer.is_some() {
                    // Offered a ticket, got the full flight back.
                    telemetry.counter_add("revelio_tls_resumption_rejections_total", 1);
                }
                if session.resumption.is_some() {
                    telemetry.counter_add("revelio_tls_tickets_issued_total", 1);
                }
            }
        }
        result
    }

    fn connect_inner(
        &self,
        net: &SimNet,
        address: &str,
        server_name: &str,
        ephemeral_seed: [u8; 32],
        offer: Option<&ResumptionState>,
    ) -> Result<TlsSession, TlsError> {
        let mut conn = net.dial(address)?;

        let eph_secret = ephemeral_seed;
        let mut random = [0u8; 32];
        let pk = x25519::public_key(&eph_secret);
        // Derive the client random from the seed (distinct from the key).
        random.copy_from_slice(&revelio_crypto::sha2::Sha256::digest(pk));

        let hello = ClientHello {
            ephemeral_public: pk,
            random,
            server_name: server_name.to_owned(),
            ticket: offer.map(|s| s.ticket.clone()),
        };
        let reply_bytes = conn.exchange(&hello.to_bytes())?;

        // An abbreviated reply means the server accepted the ticket:
        // authenticate via the confirmation MAC (possession of the
        // resumption secret stands in for the transcript signature) and
        // derive fresh traffic keys. The peer identity is the one the
        // original full handshake validated.
        if let Some(state) = offer {
            if reply_bytes.starts_with(ResumedServerHello::MAGIC) {
                let reply = ResumedServerHello::from_bytes(&reply_bytes)?;
                let expected = resumption_confirm(&state.secret, &hello.random, &reply.random);
                if !ct::eq(&reply.confirm, &expected) {
                    return Err(TlsError::Handshake("bad resumption confirmation".into()));
                }
                let keys = derive_traffic_keys(&state.secret, &hello.random, &reply.random);
                return Ok(TlsSession {
                    conn,
                    keys,
                    peer_chain: state.chain.clone(),
                    peer_evidence: state.evidence.clone(),
                    resumed: true,
                    resumption: Some(state.clone()),
                });
            }
        }
        let reply = ServerHello::from_bytes(&reply_bytes)?;

        // Certificate validation: chain to a trusted root, validity,
        // domain coverage.
        let now_ms = self.config.clock.now_us() / 1000;
        reply.chain.validate(&self.config.trusted_roots, now_ms)?;
        reply.chain.leaf().check_domain(server_name)?;

        // Transcript signature: proves possession of the certified key and
        // binds the ephemerals and any RA-TLS evidence (no signature ⇒
        // MITM could swap them; unsigned evidence could be stripped).
        let transcript = transcript_hash(
            &hello,
            &reply.ephemeral_public,
            &reply.random,
            &reply.chain,
            reply.evidence.as_deref(),
        );
        reply
            .chain
            .leaf()
            .public_key
            .verify(&transcript, &reply.signature)
            .map_err(|_| TlsError::Handshake("bad transcript signature".into()))?;

        let shared = x25519::shared_secret(&eph_secret, &reply.ephemeral_public);
        let keys = derive_traffic_keys(&shared, &hello.random, &reply.random);
        // Harvest the issued ticket (if any) together with our own copy
        // of the resumption secret — the state a later
        // [`TlsClient::connect_resumed`] needs.
        let resumption = reply.ticket.map(|ticket| ResumptionState {
            ticket,
            secret: derive_resumption_secret(&shared, &hello.random, &reply.random),
            chain: reply.chain.clone(),
            evidence: reply.evidence.clone(),
        });
        Ok(TlsSession {
            conn,
            keys,
            peer_chain: reply.chain,
            peer_evidence: reply.evidence,
            resumed: false,
            resumption,
        })
    }
}

/// An established TLS session.
pub struct TlsSession {
    conn: Connection,
    keys: TrafficKeys,
    peer_chain: CertificateChain,
    peer_evidence: Option<Vec<u8>>,
    resumed: bool,
    resumption: Option<ResumptionState>,
}

impl std::fmt::Debug for TlsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsSession")
            .field("peer", &self.peer_chain.leaf().subject)
            .finish_non_exhaustive()
    }
}

impl TlsSession {
    /// Sends one protected request and returns the protected response's
    /// plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::Net`] on transport failure or
    /// [`TlsError::RecordAuthentication`] on tampering.
    pub fn request(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, TlsError> {
        self.request_routed("", plaintext)
    }

    /// Sends one protected request labelled with `route` (the HTTP path,
    /// for callers that have one) and returns the protected response's
    /// plaintext. The label only feeds the fabric's per-route fault
    /// injection; it is never transmitted.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::Net`] on transport failure or
    /// [`TlsError::RecordAuthentication`] on tampering.
    pub fn request_routed(&mut self, route: &str, plaintext: &[u8]) -> Result<Vec<u8>, TlsError> {
        let sealed = self.keys.client_to_server.seal(plaintext);
        let reply = self.conn.exchange_routed(route, &sealed)?;
        self.keys.server_to_client.open(&reply)
    }

    /// The server's certificate chain.
    #[must_use]
    pub fn peer_chain(&self) -> &CertificateChain {
        &self.peer_chain
    }

    /// The public key this connection cryptographically terminates at —
    /// the value the Revelio web extension compares against the
    /// attestation report's `REPORT_DATA` (§5.3.2).
    #[must_use]
    pub fn peer_public_key(&self) -> VerifyingKey {
        self.peer_chain.leaf().public_key
    }

    /// RA-TLS evidence the server delivered inside the handshake, if any
    /// (signature-protected by the transcript; content validation is the
    /// caller's job).
    #[must_use]
    pub fn peer_evidence(&self) -> Option<&[u8]> {
        self.peer_evidence.as_deref()
    }

    /// Whether this session was established via the abbreviated resumed
    /// handshake (zero scalar multiplications) rather than a full one.
    #[must_use]
    pub fn was_resumed(&self) -> bool {
        self.resumed
    }

    /// The state a later [`TlsClient::connect_resumed`] needs: present
    /// after a full handshake that issued a ticket, and carried through
    /// resumed sessions (the same ticket stays valid until the server's
    /// ticket key rotates).
    #[must_use]
    pub fn resumption_state(&self) -> Option<&ResumptionState> {
        self.resumption.as_ref()
    }

    /// Closes the session.
    pub fn close(&mut self) {
        self.conn.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{TlsListener, TlsServerConfig};
    use revelio_crypto::ed25519::SigningKey;
    use revelio_net::dns::DnsZone;
    use revelio_net::net::{NetConfig, SimNet};
    use revelio_pki::acme::{AcmeCa, AcmePolicy};
    use revelio_pki::cert::CertificateSigningRequest;
    use std::sync::Arc;

    struct World {
        net: SimNet,
        clock: SimClock,
        ca: AcmeCa,
        server_key: SigningKey,
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
            dns,
        );
        World {
            net,
            clock,
            ca,
            server_key: SigningKey::from_seed(&[10; 32]),
        }
    }

    fn serve(w: &World, domain: &str, address: &str, key: &SigningKey, body: &'static [u8]) {
        let csr = CertificateSigningRequest::new(domain, key, "Org", "CH");
        let chain = w.ca.order_certificate(&csr).unwrap();
        let listener = TlsListener::new(
            TlsServerConfig::new(chain, key.clone(), [9; 32]),
            Arc::new(move |_req: &[u8]| body.to_vec()),
        );
        w.net.bind(address, Arc::new(listener)).unwrap();
    }

    fn client(w: &World) -> TlsClient {
        TlsClient::new(TlsClientConfig {
            trusted_roots: vec![w.ca.root_certificate()],
            clock: w.clock.clone(),
            telemetry: None,
        })
    }

    #[test]
    fn handshake_and_request_roundtrip() {
        let w = world();
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &w.server_key,
            b"hello end-user",
        );
        let mut session = client(&w)
            .connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32])
            .unwrap();
        assert_eq!(session.request(b"GET /").unwrap(), b"hello end-user");
        assert_eq!(session.request(b"GET /again").unwrap(), b"hello end-user");
        assert_eq!(session.peer_public_key(), w.server_key.verifying_key());
    }

    #[test]
    fn untrusted_ca_rejected() {
        let w = world();
        serve(&w, "pad.example.org", "10.0.0.1:443", &w.server_key, b"x");
        // A client that trusts a *different* root store.
        let rogue_ca = AcmeCa::new(
            "RogueTrust",
            [77; 32],
            AcmePolicy::default(),
            w.clock.clone(),
            DnsZone::new(),
        );
        let client = TlsClient::new(TlsClientConfig {
            trusted_roots: vec![rogue_ca.root_certificate()],
            clock: w.clock.clone(),
            telemetry: None,
        });
        assert!(matches!(
            client.connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32]),
            Err(TlsError::Certificate(_))
        ));
    }

    #[test]
    fn domain_mismatch_rejected() {
        let w = world();
        serve(&w, "other.example.org", "10.0.0.1:443", &w.server_key, b"x");
        assert!(matches!(
            client(&w).connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32]),
            Err(TlsError::Certificate(
                revelio_pki::PkiError::DomainMismatch { .. }
            ))
        ));
    }

    #[test]
    fn expired_certificate_rejected() {
        let w = world();
        serve(&w, "pad.example.org", "10.0.0.1:443", &w.server_key, b"x");
        // Advance past the 90-day lifetime.
        w.clock.advance_ms(91.0 * 24.0 * 3600.0 * 1000.0);
        assert!(matches!(
            client(&w).connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32]),
            Err(TlsError::Certificate(revelio_pki::PkiError::Expired { .. }))
        ));
    }

    #[test]
    fn server_without_matching_private_key_rejected() {
        // An attacker replays the honest chain but holds a different key:
        // the transcript signature fails.
        let w = world();
        let honest_key = w.server_key.clone();
        let csr = CertificateSigningRequest::new("pad.example.org", &honest_key, "O", "C");
        let chain = w.ca.order_certificate(&csr).unwrap();
        let attacker_key = SigningKey::from_seed(&[66; 32]);
        let listener = TlsListener::new(
            TlsServerConfig::new(chain, attacker_key, [9; 32]),
            Arc::new(|_req: &[u8]| b"evil".to_vec()),
        );
        w.net.bind("10.0.0.1:443", Arc::new(listener)).unwrap();
        assert!(matches!(
            client(&w).connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32]),
            Err(TlsError::Handshake(_))
        ));
    }

    #[test]
    fn mitm_with_dns_issued_cert_succeeds_but_key_differs() {
        // §5.3.2's residual threat: the attacker controls DNS, obtains a
        // *valid* certificate for the same domain with their own key, and
        // redirects traffic. TLS accepts — only Revelio's pinning catches
        // the key change.
        let w = world();
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &w.server_key,
            b"honest",
        );
        let attacker_key = SigningKey::from_seed(&[66; 32]);
        serve(
            &w,
            "pad.example.org",
            "10.6.6.6:443",
            &attacker_key,
            b"evil",
        );
        w.net.peer("10.0.0.1:443").redirect_to("10.6.6.6:443");

        let mut session = client(&w)
            .connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32])
            .unwrap();
        assert_eq!(session.request(b"GET /").unwrap(), b"evil");
        // The extension-visible signal: the connection's key changed.
        assert_ne!(session.peer_public_key(), w.server_key.verifying_key());
        assert_eq!(session.peer_public_key(), attacker_key.verifying_key());
    }

    #[test]
    fn tampered_record_detected() {
        let w = world();
        serve(&w, "pad.example.org", "10.0.0.1:443", &w.server_key, b"x");
        // A middlebox that passes the handshake flight untouched but flips
        // a bit in every later (record) message.
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&seen);
        w.net.peer("10.0.0.1:443").tamper(Arc::new(move |m: &[u8]| {
            let n = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut v = m.to_vec();
            if n > 0 {
                v[0] ^= 1;
            }
            v
        }));
        let mut session = client(&w)
            .connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32])
            .unwrap();
        // Tampered request record: server rejects; connection dies.
        assert!(session.request(b"GET /").is_err());
    }

    #[test]
    fn resumed_session_skips_all_scalar_multiplications() {
        use revelio_crypto::metrics;

        let w = world();
        serve(
            &w,
            "pad.example.org",
            "10.0.0.1:443",
            &w.server_key,
            b"resumable",
        );
        let client = client(&w);
        let session = client
            .connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32])
            .unwrap();
        assert!(!session.was_resumed());
        let state = session
            .resumption_state()
            .expect("full handshake issues a ticket")
            .clone();

        let before = metrics::thread_scalar_mul_ops();
        let mut resumed = client
            .connect_resumed(&w.net, "10.0.0.1:443", "pad.example.org", [2; 32], &state)
            .unwrap();
        // One fixed-base multiplication for the client's own (unused
        // fallback) ephemeral; the server-side and agreement kernels —
        // and the server's signing — never run. The server handler runs
        // on this same thread in the simulation, so the thread-local
        // counter covers both ends.
        assert_eq!(
            metrics::thread_scalar_mul_ops() - before,
            1,
            "resumption must not touch the scalar-mul kernels beyond the client fallback ephemeral"
        );
        assert!(resumed.was_resumed());
        assert_eq!(resumed.request(b"GET /").unwrap(), b"resumable");
        assert_eq!(resumed.peer_public_key(), w.server_key.verifying_key());
        assert_eq!(resumed.peer_chain().leaf().subject, "pad.example.org");
    }

    #[test]
    fn ticket_from_rotated_chain_falls_back_to_full_handshake() {
        let w = world();
        serve(&w, "pad.example.org", "10.0.0.1:443", &w.server_key, b"v1");
        let client = client(&w);
        let state = client
            .connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32])
            .unwrap()
            .resumption_state()
            .unwrap()
            .clone();

        // The operator rebinds with a renewed chain: the ticket key
        // rotates, the old ticket no longer opens.
        w.net.unbind("10.0.0.1:443");
        serve(&w, "pad.example.org", "10.0.0.1:443", &w.server_key, b"v2");
        let mut session = client
            .connect_resumed(&w.net, "10.0.0.1:443", "pad.example.org", [2; 32], &state)
            .unwrap();
        assert!(
            !session.was_resumed(),
            "a pre-rotation ticket must be declined"
        );
        // The fallback is a complete, freshly validated handshake…
        assert_eq!(session.request(b"GET /").unwrap(), b"v2");
        // …that issues a new, working ticket.
        let fresh = session.resumption_state().unwrap().clone();
        let resumed = client
            .connect_resumed(&w.net, "10.0.0.1:443", "pad.example.org", [3; 32], &fresh)
            .unwrap();
        assert!(resumed.was_resumed());
    }

    #[test]
    fn forged_resumption_confirmation_rejected() {
        let w = world();
        serve(&w, "pad.example.org", "10.0.0.1:443", &w.server_key, b"x");
        let client = client(&w);
        let mut state = client
            .connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32])
            .unwrap()
            .resumption_state()
            .unwrap()
            .clone();
        // A client whose stored secret diverges from the ticket's (e.g. a
        // swapped cache entry) must not silently establish garbage keys:
        // the server's confirmation fails closed.
        state.secret[0] ^= 1;
        assert!(matches!(
            client.connect_resumed(&w.net, "10.0.0.1:443", "pad.example.org", [2; 32], &state),
            Err(TlsError::Handshake(_))
        ));
    }

    #[test]
    fn resumption_works_across_fleet_nodes_sharing_the_identity() {
        // Revelio fleets share one TLS key and chain (§3.4.6); the ticket
        // key derives from both, so a ticket issued by one node resumes
        // on another — DNS round-robin keeps its resumption rate.
        let w = world();
        let csr = CertificateSigningRequest::new("pad.example.org", &w.server_key, "Org", "CH");
        let chain = w.ca.order_certificate(&csr).unwrap();
        for (address, body) in [("10.0.0.1:443", b"a"), ("10.0.0.2:443", b"b")] {
            let listener = TlsListener::new(
                TlsServerConfig::new(chain.clone(), w.server_key.clone(), [9; 32]),
                Arc::new(move |_req: &[u8]| body.to_vec()),
            );
            w.net.bind(address, Arc::new(listener)).unwrap();
        }
        let client = client(&w);
        let state = client
            .connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32])
            .unwrap()
            .resumption_state()
            .unwrap()
            .clone();
        let mut on_other = client
            .connect_resumed(&w.net, "10.0.0.2:443", "pad.example.org", [2; 32], &state)
            .unwrap();
        assert!(on_other.was_resumed());
        assert_eq!(on_other.request(b"GET /").unwrap(), b"b");
    }

    #[test]
    fn handshake_costs_one_round_trip_requests_one_each() {
        let w = world();
        serve(&w, "pad.example.org", "10.0.0.1:443", &w.server_key, b"x");
        let t0 = w.clock.now_ms();
        let mut session = client(&w)
            .connect(&w.net, "10.0.0.1:443", "pad.example.org", [1; 32])
            .unwrap();
        let after_handshake = w.clock.now_ms();
        session.request(b"GET /").unwrap();
        let after_request = w.clock.now_ms();
        let rtt = 5.2;
        assert!((after_handshake - t0 - rtt).abs() < 0.1);
        assert!((after_request - after_handshake - rtt).abs() < 0.1);
    }
}
