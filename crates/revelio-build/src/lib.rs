//! The Revelio VM image pipeline: reproducible builds as the basis for
//! practical remote attestation (paper §3.4.1, §5.1).
//!
//! End-users can only verify a launch measurement if they can *reproduce*
//! it: the same sources and build scripts must yield bit-identical kernel,
//! initrd and root filesystem, hence an identical SHA-384 launch digest.
//! This crate models the full pipeline the paper describes:
//!
//! * [`fstree`] — a deterministic in-memory filesystem tree whose archive
//!   encoding is canonical (sorted paths, explicit modes and mtimes).
//! * [`scrub`] — removal of the non-determinism sources the paper names:
//!   squashed timestamps, `/var/lib/apt/lists/*`, machine IDs, log files.
//! * [`packages`] — a package registry where "install latest" drifts over
//!   time (the `apt-get` problem) versus pinned base-image layers that make
//!   dependency sets reproducible.
//! * [`hermetic`] — a bazel-style content-addressed build step: outputs are
//!   a pure function of declared inputs; an intentionally non-hermetic
//!   variant demonstrates measurement drift for the tests and ablations.
//! * [`artifacts`] — kernel blobs, initrd construction (init configuration
//!   interpreted by `revelio-boot`), and kernel command lines carrying the
//!   dm-verity root hash.
//! * [`image`] — final disk assembly: partition table, rootfs, verity hash
//!   tree, empty sealed data partition; emits a [`image::VmImage`] the boot
//!   crate consumes.
//!
//! # Example: two builds of the same sources are bit-identical
//!
//! ```
//! use revelio_build::fstree::FsTree;
//! use revelio_build::image::{ImageSpec, build_image};
//!
//! let mut rootfs = FsTree::new();
//! rootfs.add_file("/usr/bin/service", b"service binary".to_vec(), 0o755)?;
//! let spec = ImageSpec::new("demo", rootfs);
//! let a = build_image(&spec)?;
//! let b = build_image(&spec)?;
//! assert_eq!(a.root_hash, b.root_hash);
//! assert_eq!(a.initrd, b.initrd);
//! # Ok::<(), revelio_build::BuildError>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod artifacts;
pub mod error;
pub mod fstree;
pub mod hermetic;
pub mod image;
pub mod packages;
pub mod scrub;

pub use error::BuildError;
