//! A software simulation of the AMD SEV-SNP confidential-computing platform.
//!
//! Revelio (Galanou et al., Middleware 2023) builds on four SEV-SNP
//! capabilities; this crate reproduces all of them with the same interfaces
//! and trust relationships, in pure Rust:
//!
//! 1. **Launch measurement** — the AMD secure processor (AMD-SP) takes a
//!    SHA-384 digest over the guest's initial memory context (the virtual
//!    firmware under measured direct boot). See [`measurement`].
//! 2. **Remote attestation** — a guest can ask its AMD-SP for an
//!    [`report::AttestationReport`] carrying the measurement, the chip
//!    identity, the TCB version, the guest policy and 64 bytes of
//!    caller-chosen `REPORT_DATA`, signed by the Versioned Chip Endorsement
//!    Key (VCEK). See [`platform::GuestContext::attestation_report`].
//! 3. **VCEK endorsement** — AMD's Key Distribution Service hands out the
//!    ARK → ASK → VCEK certificate chain that roots every report in AMD's
//!    (here: the simulation's) root of trust. See [`kds`].
//! 4. **Sealing keys** — a guest can derive keys bound to its measurement
//!    and platform so only an identically-measured VM on the same chip can
//!    re-derive them. See [`sealing`].
//!
//! # Fidelity and substitutions
//!
//! Report fields mirror the SEV-SNP `ATTESTATION_REPORT` structure (policy,
//! measurement, `REPORT_DATA`, chip id, current/reported TCB). Signatures
//! use Ed25519 instead of ECDSA-P384 and the "hardware" secrets are seeds
//! held by [`platform::AmdRootOfTrust`]; both substitutions are documented
//! in the workspace `DESIGN.md` and preserve every trust relationship the
//! Revelio protocol relies on.
//!
//! # Example: attest a guest and verify the report
//!
//! ```
//! use sev_snp::platform::{AmdRootOfTrust, SnpPlatform};
//! use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
//! use sev_snp::kds::KeyDistributionService;
//! use sev_snp::report::ReportData;
//! use sev_snp::verify::ReportVerifier;
//! use std::sync::Arc;
//!
//! // "AMD" manufactures a chip and the KDS knows its root of trust.
//! let amd = Arc::new(AmdRootOfTrust::from_seed([1; 32]));
//! let platform = SnpPlatform::new(Arc::clone(&amd), ChipId::from_seed(7), TcbVersion::new(1, 0, 8, 115));
//! let kds = KeyDistributionService::new(Arc::clone(&amd));
//!
//! // The hypervisor launches a guest; AMD-SP measures the firmware.
//! let guest = platform.launch(b"firmware image", GuestPolicy::default())?;
//! let report = guest.attestation_report(ReportData::from_slice(b"nonce"));
//!
//! // A remote verifier fetches the VCEK chain and checks everything.
//! let chain = kds.vcek_chain(&platform.chip_id(), &platform.tcb_version())?;
//! let verifier = ReportVerifier::new(amd.ark_public_key());
//! verifier.verify_batched(&report, &chain)?;
//! # Ok::<(), sev_snp::SnpError>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod error;
pub mod ids;
pub mod kds;
pub mod measurement;
pub mod platform;
pub mod report;
pub mod sealing;
pub mod verify;

pub use error::SnpError;
