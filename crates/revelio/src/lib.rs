//! **Revelio**: trustworthy confidential virtual machines for the masses.
//!
//! This crate is the reproduction's core — the paper's actual contribution
//! (Galanou et al., Middleware 2023), built on the simulated substrates in
//! the sibling crates. It lets a *service provider* deploy web-facing
//! services inside (simulated) SEV-SNP VMs such that even the provider
//! cannot tamper with them, and lets *end-users* verify exactly that from
//! their browser:
//!
//! * [`node`] — a **Revelio VM**: measured-direct-boot guest, verity
//!   rootfs, sealed data volume, no inbound management connections; serves
//!   its application over HTTPS plus its attestation evidence at the
//!   well-known URL.
//! * [`sp`] — the **SP node** (provider premises): attests the fleet,
//!   picks a leader, obtains one ACME certificate for the leader's CSR
//!   (rate limits forbid per-node certificates, §3.4.6), and coordinates
//!   encrypted distribution of the TLS private key to mutually-attested
//!   peers (§5.3.1, Fig. 4).
//! * [`extension`] — the **web extension**: intercepts requests to
//!   registered domains, fetches and validates the evidence (VCEK chain
//!   via the KDS, measurement against golden values, TLS-key binding via
//!   `REPORT_DATA`), and keeps monitoring the connection afterwards
//!   (§5.3.2).
//! * [`reconcile`] — the **control plane**: a declared [`reconcile::FleetSpec`]
//!   and a reconciler loop driving the fleet toward it — canary-first
//!   rolling upgrades with measurement-drift halts, automatic
//!   re-admission of healed quarantined nodes, and certificate renewal
//!   ahead of expiry.
//! * [`appraisal`] — the one appraisal of SEV-SNP evidence every relying
//!   party above runs, naming the check that decided a rejection.
//! * [`registry`] — golden-value distribution: a static set for
//!   self-verifying users and a quorum-voted registry for delegation to a
//!   community (§3.4.7), with revocation for rollback protection (§6.1.4).
//! * [`evidence`] / [`kds_http`] — the evidence bundle served by VMs and
//!   the AMD KDS mounted on the simulated network.
//! * [`world`] — a one-call simulation harness wiring AMD, KDS, CA, DNS
//!   and network together for tests, examples and benches.
//!
//! # End-to-end example
//!
//! ```
//! use revelio::world::SimWorld;
//!
//! // A world with AMD's root of trust, a KDS, an ACME CA, DNS and a
//! // network; then a provider deploys a 2-node fleet for a domain.
//! let mut world = SimWorld::new(7);
//! let fleet = world.deploy_fleet("pad.example.org", 2, revelio::node::demo_app())?;
//!
//! // An end-user with the Revelio extension browses the site: the
//! // extension attests the VM before the page is trusted.
//! let extension = world.extension();
//! extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
//! let outcome = extension.browse("pad.example.org", "/")?;
//! assert!(outcome.response.is_success());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod appraisal;
pub mod error;
pub mod evidence;
pub mod extension;
pub mod kds_http;
pub mod node;
pub mod reconcile;
pub mod registry;
pub mod sp;
pub mod world;

pub use error::RevelioError;
