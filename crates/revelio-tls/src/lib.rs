//! A TLS-1.3-style secure channel over the simulated network.
//!
//! Revelio's end-user story hinges on one TLS property the paper's web
//! extension queries from the browser: *which public key does my current
//! connection terminate at?* (§5.3.2). The extension compares that key to
//! the key hash inside the attestation report's `REPORT_DATA`; a match
//! proves the TLS endpoint lives inside the attested VM (requirement
//! **F3**). This crate therefore implements a real handshake with real
//! key agreement and certificate authentication — not a stub — so that
//! man-in-the-middle attacks behave exactly as they would against TLS:
//!
//! * an attacker without a valid certificate for the domain is rejected by
//!   chain/domain validation;
//! * an attacker who *does* obtain a valid certificate (they control DNS,
//!   §5.3.2) completes the handshake — and is caught only by Revelio's
//!   key pinning, which is the paper's point.
//!
//! Protocol sketch (one [`revelio_net::net::Connection`] exchange per
//! flight): `ClientHello{x25519, random, sni}` →
//! `ServerHello{x25519, random, chain, sig(transcript)}`; traffic keys via
//! HKDF over the shared secret; records are ChaCha20-Poly1305 with
//! direction-separated keys and sequence-number nonces.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod handshake;
pub mod record;
pub mod server;
pub mod ticket;

pub use client::{ResumptionState, TlsClient, TlsClientConfig, TlsSession};
pub use error::TlsError;
pub use server::{AppHandler, TlsListener, TlsServerConfig};
