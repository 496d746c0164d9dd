//! Measured direct boot (paper §2.1.2, §5.2) for simulated SEV-SNP guests.
//!
//! Under plain direct boot, the AMD-SP measures only the virtual firmware —
//! the kernel, initrd and command line a malicious host actually loads are
//! invisible to remote attestation. Measured direct boot closes that hole:
//!
//! 1. the firmware image reserves a **hash table** ([`firmware`]);
//! 2. the hypervisor ([`loader::Hypervisor`], QEMU's role) hashes the
//!    kernel, initrd and command line and injects the hashes into the
//!    table *before* launch, so they are covered by the launch measurement;
//! 3. after launch, the firmware re-hashes the blobs the host really
//!    provided and **refuses to boot** on mismatch.
//!
//! Any host lie is therefore either caught by the firmware (boot fails) or
//! visible in the measurement (attestation fails) — the case analysis of
//! the paper's §6.1.1, reproduced in this crate's tests.
//!
//! The boot then continues inside the guest ([`vm`]): parse the initrd's
//! init configuration, verity-mount the rootfs against the root hash from
//! the measured command line, unseal/create the encrypted data volume with
//! a measurement-derived key, create the unique VM identity, and start
//! services. [`timing`] converts the work performed into the modelled
//! latencies of the paper's Table 1.
//!
//! ```
//! use std::sync::Arc;
//! use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
//! use sev_snp::platform::{AmdRootOfTrust, SnpPlatform};
//! use revelio_build::fstree::FsTree;
//! use revelio_build::image::{build_image, ImageSpec};
//! use revelio_boot::firmware::FirmwareKind;
//! use revelio_boot::loader::{BootOptions, Hypervisor};
//!
//! let amd = Arc::new(AmdRootOfTrust::from_seed([1; 32]));
//! let platform = SnpPlatform::new(amd, ChipId::from_seed(1), TcbVersion::default());
//! let mut rootfs = FsTree::new();
//! rootfs.add_file("/usr/bin/svc", b"svc".to_vec(), 0o755)?;
//! let image = build_image(&ImageSpec::new("demo", rootfs))?;
//!
//! let hypervisor = Hypervisor::new(FirmwareKind::MeasuredDirectBoot);
//! let vm = hypervisor.boot(&platform, &image, GuestPolicy::default(), BootOptions::default())?;
//! assert!(vm.rootfs().get("/usr/bin/svc").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod error;
pub mod firmware;
pub mod loader;
pub mod timing;
pub mod vm;

pub use error::BootError;
