//! A deterministic simulated network for the Revelio reproduction.
//!
//! The paper's client-side evaluation (Table 3) is dominated by network
//! round trips: a plain HTTPS GET, the attestation-report fetch, the AMD
//! KDS query for the VCEK, and per-request connection revalidation. To
//! reproduce those *shapes* deterministically on any machine, this crate
//! provides:
//!
//! * [`clock::SimClock`] — a shared virtual clock, advanced only by
//!   simulated work (link latency, modelled server processing);
//! * [`net::SimNet`] — a registry of listeners keyed by address, with a
//!   per-link latency model; a [`net::Connection`] performs synchronous
//!   message exchanges, each advancing the clock by one round trip;
//! * [`dns::DnsZone`] — name resolution that attackers can repoint (the
//!   paper's "malicious service provider controls DNS" threat, §5.3.2);
//! * man-in-the-middle hooks — `net.peer(victim).redirect_to(attacker)`
//!   (see [`net::PeerShaper`]) silently rewires an address to an
//!   attacker's listener; higher layers (TLS, the web extension) must
//!   detect this;
//! * [`fault::FaultPlan`] — seeded, deterministic fault injection per
//!   dialed address or per `(address, route-prefix)` (drops, timeouts,
//!   resets, fail-first windows, latency jitter), installed via
//!   `net.peer(address).fault_plan(..)`;
//! * [`domain::FaultDomain`] — correlated failures layered *under* the
//!   per-address plans: whole-subnet partitions, asymmetric links
//!   (scoped to handles from [`net::SimNet::bound_to`]), and scheduled
//!   heal windows, installed via `net.install_fault_domain(..)`;
//! * [`retry::RetryPolicy`] — bounded exponential backoff whose sleeps
//!   advance the [`clock::SimClock`], never wall time;
//! * a private striped snapshot cell (`snapshot.rs`) giving the dial
//!   path reads of the rarely-republished routing view under one of 16
//!   cache-line mutexes, so handles on distinct stripes never contend.
//!
//! Exchanges are synchronous — protocol state machines remain ordinary
//! sequential code — but the fabric itself is thread-safe: all routing
//! state lives in one copy-on-write view that dials read under their
//! handle's stripe lock, and the determinism contract (per-address
//! seeded fault streams, a lock-free [`clock::SimClock`]) holds under
//! any thread interleaving.
//! See [`net`] for the single-store and determinism story.
//!
//! ```
//! use revelio_net::clock::SimClock;
//! use revelio_net::net::{ConnectionHandler, Listener, NetConfig, SimNet};
//!
//! struct Echo;
//! impl Listener for Echo {
//!     fn accept(&self) -> Box<dyn ConnectionHandler> {
//!         struct H;
//!         impl ConnectionHandler for H {
//!             fn on_message(&mut self, m: &[u8]) -> Result<Vec<u8>, revelio_net::NetError> {
//!                 Ok(m.to_vec())
//!             }
//!         }
//!         Box::new(H)
//!     }
//! }
//!
//! let clock = SimClock::new();
//! let net = SimNet::new(clock.clone(), NetConfig::default());
//! net.bind("203.0.113.1:7", std::sync::Arc::new(Echo))?;
//! let mut conn = net.dial("203.0.113.1:7")?;
//! assert_eq!(conn.exchange(b"ping")?, b"ping");
//! assert!(clock.now_ms() > 0.0); // the exchange cost a round trip
//! # Ok::<(), revelio_net::NetError>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod dns;
pub mod domain;
pub mod error;
pub mod fault;
pub mod net;
pub mod retry;
mod snapshot;
pub(crate) mod view;

pub use domain::{DomainEffect, FaultDomain};
pub use error::NetError;
pub use fault::{FaultKind, FaultPlan};
pub use retry::RetryPolicy;
