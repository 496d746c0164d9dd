//! Minimal HTTP/1.1 over the simulated TLS stack.
//!
//! Revelio VMs serve their web application *and* their attestation
//! evidence over HTTPS: the paper assumes "the validated HTTP server
//! provides an attestation report under a well-known URL (e.g., as in the
//! case of robots.txt)" (§5.3.2), and the SP node drives certificate and
//! key distribution with plain HTTP POSTs inside the provider's network
//! (§5.3.1). This crate supplies both sides:
//!
//! * [`message`] — request/response types with a faithful textual
//!   HTTP/1.1 encoding;
//! * [`router`] — a tiny path router;
//! * [`server`] — TLS-terminated (public) and plaintext (provider-internal)
//!   listeners over [`revelio_net`];
//! * [`client`] — an HTTPS client with DNS resolution, session reuse, and
//!   the connection-key introspection the web extension needs.
//!
//! The conventional location for Revelio evidence is
//! [`WELL_KNOWN_ATTESTATION_PATH`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod client;
pub mod error;
pub mod message;
pub mod router;
pub mod server;

pub use error::HttpError;

/// The well-known URL path where a Revelio VM serves its attestation
/// evidence bundle.
pub const WELL_KNOWN_ATTESTATION_PATH: &str = "/.well-known/revelio-attestation";
