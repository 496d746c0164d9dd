//! The TLS server: a [`revelio_net::net::Listener`] that performs the
//! handshake and forwards decrypted application data to an inner handler.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use revelio_crypto::ed25519::SigningKey;
use revelio_crypto::hmac::Hmac;
use revelio_crypto::sha2::Sha256;
use revelio_crypto::x25519;
use revelio_net::net::{ConnectionHandler, Listener};
use revelio_net::NetError;
use revelio_pki::cert::CertificateChain;

use crate::handshake::{transcript_hash, ClientHello, ResumedServerHello, ServerHello};
use crate::record::{derive_resumption_secret, derive_traffic_keys, TrafficKeys};
use crate::ticket::{derive_ticket_key, open_ticket, resumption_confirm, seal_ticket, SECRET_LEN};

/// The application layer above TLS (HTTP, in this workspace).
pub trait AppHandler: Send + Sync {
    /// Handles one decrypted request, returning the response plaintext.
    fn handle(&self, request: &[u8]) -> Vec<u8>;
}

impl<F> AppHandler for F
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// Server-side TLS identity and entropy.
#[derive(Clone)]
pub struct TlsServerConfig {
    /// Certificate chain presented to clients (leaf first).
    pub chain: CertificateChain,
    /// Private key matching the leaf certificate — Revelio's shared TLS
    /// identity, distributed by the SP node to attested VMs (§3.4.6).
    pub key: SigningKey,
    /// Seed for per-connection ephemeral keys (hardware RNG stand-in).
    pub entropy_seed: [u8; 32],
    /// Optional RA-TLS attestation evidence delivered inside the
    /// handshake (opaque bytes; Revelio serializes its evidence bundle
    /// here).
    pub evidence: Option<Vec<u8>>,
}

impl TlsServerConfig {
    /// A plain (evidence-free) server configuration.
    #[must_use]
    pub fn new(chain: CertificateChain, key: SigningKey, entropy_seed: [u8; 32]) -> Self {
        TlsServerConfig {
            chain,
            key,
            entropy_seed,
            evidence: None,
        }
    }
}

impl std::fmt::Debug for TlsServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsServerConfig")
            .field("subject", &self.chain.leaf().subject)
            .finish_non_exhaustive()
    }
}

/// A TLS-terminating listener wrapping an application handler.
pub struct TlsListener {
    config: TlsServerConfig,
    app: Arc<dyn AppHandler>,
    connection_counter: AtomicU64,
    /// The fleet-shared ticket sealing key, derived once per listener
    /// from the TLS key and certificate chain
    /// ([`crate::ticket::derive_ticket_key`]); rebinding with a renewed
    /// chain rotates it, killing all outstanding tickets.
    ticket_key: [u8; SECRET_LEN],
}

impl std::fmt::Debug for TlsListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsListener")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl TlsListener {
    /// Creates a TLS listener for `app` with the given identity.
    #[must_use]
    pub fn new(config: TlsServerConfig, app: Arc<dyn AppHandler>) -> Self {
        let ticket_key = derive_ticket_key(&config.key, &config.chain);
        TlsListener {
            config,
            app,
            connection_counter: AtomicU64::new(0),
            ticket_key,
        }
    }
}

impl Listener for TlsListener {
    fn accept(&self) -> Box<dyn ConnectionHandler> {
        let conn_id = self.connection_counter.fetch_add(1, Ordering::Relaxed);
        Box::new(TlsServerConnection {
            config: self.config.clone(),
            app: Arc::clone(&self.app),
            conn_id,
            ticket_key: self.ticket_key,
            state: State::AwaitingClientHello,
        })
    }
}

enum State {
    AwaitingClientHello,
    Established(TrafficKeys),
    Failed,
}

struct TlsServerConnection {
    config: TlsServerConfig,
    app: Arc<dyn AppHandler>,
    conn_id: u64,
    ticket_key: [u8; SECRET_LEN],
    state: State,
}

impl TlsServerConnection {
    /// Per-connection deterministic bytes from the entropy seed (hardware
    /// RNG stand-in), domain-separated by `label`.
    fn derive_entropy(&self, label: &[u8]) -> [u8; 32] {
        let mut mac = Hmac::<Sha256>::new(&self.config.entropy_seed);
        mac.update(label);
        mac.update(&self.conn_id.to_le_bytes());
        mac.finalize_fixed()
    }

    fn derive_ephemeral(&self) -> ([u8; 32], [u8; 32]) {
        (
            self.derive_entropy(b"server-ephemeral"),
            self.derive_entropy(b"server-random"),
        )
    }

    /// The resumed path: the offered ticket opened under the current
    /// ticket key, so the original full handshake's trust carries over.
    /// Costs **zero scalar multiplications** on both sides — no X25519,
    /// no signature; fresh traffic keys come from the resumption secret
    /// and the new randoms, and `confirm` proves possession of the
    /// secret (the abbreviated flight's stand-in for the transcript
    /// signature).
    fn resume(&self, hello: &ClientHello, secret: &[u8; SECRET_LEN]) -> (Vec<u8>, TrafficKeys) {
        let server_random = self.derive_entropy(b"server-random-resumed");
        let reply = ResumedServerHello {
            random: server_random,
            confirm: resumption_confirm(secret, &hello.random, &server_random),
        };
        let keys = derive_traffic_keys(secret, &hello.random, &server_random);
        (reply.to_bytes(), keys)
    }
}

impl ConnectionHandler for TlsServerConnection {
    fn on_message(&mut self, message: &[u8]) -> Result<Vec<u8>, NetError> {
        match std::mem::replace(&mut self.state, State::Failed) {
            State::AwaitingClientHello => {
                let hello = ClientHello::from_bytes(message)
                    .map_err(|e| NetError::Protocol(format!("bad client hello: {e}")))?;
                // A ticket that opens under the current key takes the
                // abbreviated path; one that does not (rotated chain,
                // tampering) silently falls through to the full
                // handshake — the client sent the full flight for
                // exactly this case.
                if let Some(ticket) = &hello.ticket {
                    if let Ok(secret) = open_ticket(&self.ticket_key, ticket) {
                        let (reply, keys) = self.resume(&hello, &secret);
                        self.state = State::Established(keys);
                        return Ok(reply);
                    }
                }
                let (eph_secret, server_random) = self.derive_ephemeral();
                let eph_public = x25519::public_key(&eph_secret);
                let shared = x25519::shared_secret(&eph_secret, &hello.ephemeral_public);
                let transcript = transcript_hash(
                    &hello,
                    &eph_public,
                    &server_random,
                    &self.config.chain,
                    self.config.evidence.as_deref(),
                );
                // Issue a ticket for this connection's resumption secret;
                // the nonce is unique per (entropy seed, connection).
                let resumption = derive_resumption_secret(&shared, &hello.random, &server_random);
                let entropy = self.derive_entropy(b"ticket-nonce");
                let nonce: [u8; 12] = std::array::from_fn(|i| entropy[i]);
                let reply = ServerHello {
                    ephemeral_public: eph_public,
                    random: server_random,
                    chain: self.config.chain.clone(),
                    evidence: self.config.evidence.clone(),
                    signature: self.config.key.sign(&transcript),
                    ticket: Some(seal_ticket(&self.ticket_key, &nonce, &resumption)),
                };
                let keys = derive_traffic_keys(&shared, &hello.random, &server_random);
                self.state = State::Established(keys);
                Ok(reply.to_bytes())
            }
            State::Established(mut keys) => {
                let request = keys
                    .client_to_server
                    .open(message)
                    .map_err(|e| NetError::Protocol(format!("record: {e}")))?;
                let response = self.app.handle(&request);
                let sealed = keys.server_to_client.seal(&response);
                self.state = State::Established(keys);
                Ok(sealed)
            }
            State::Failed => Err(NetError::ConnectionClosed),
        }
    }
}
