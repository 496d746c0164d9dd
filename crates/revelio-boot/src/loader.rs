//! The hypervisor-side loader (QEMU's role in measured direct boot).
//!
//! The loader is **untrusted**: everything it does is either reflected in
//! the launch measurement (the firmware image with its injected hash
//! table) or re-checked by the measured firmware after launch. The
//! [`BootOptions`] overrides let tests and the attack gauntlet make the
//! host lie in every way §6.1.1 analyses — loading different blobs than it
//! hashed, injecting a bogus table, or booting a different firmware build.

use revelio_telemetry::Telemetry;
use sev_snp::ids::GuestPolicy;
use sev_snp::platform::SnpPlatform;

use revelio_build::image::VmImage;

use crate::firmware::{FirmwareImage, FirmwareKind, HashTable};
use crate::timing::CostModel;
use crate::vm::BootedVm;
use crate::BootError;

/// Knobs for a boot attempt, including hostile overrides.
#[derive(Debug, Clone)]
pub struct BootOptions {
    /// Load this kernel instead of the image's (host lie).
    pub kernel_override: Option<Vec<u8>>,
    /// Load this initrd instead of the image's (host lie).
    pub initrd_override: Option<Vec<u8>>,
    /// Pass this command line instead of the image's (host lie — e.g. a
    /// different verity root hash).
    pub cmdline_override: Option<String>,
    /// Inject this hash table instead of hashing the loaded blobs (host
    /// lie: "fill the expected hashes but pass the wrong kernel").
    pub hash_table_override: Option<HashTable>,
    /// Entropy for the VM's unique identity key (a real guest reads its
    /// hardware RNG; the simulation takes it as input for determinism).
    pub identity_seed: [u8; 32],
    /// Cost model for the boot timeline.
    pub cost_model: CostModel,
    /// When set, the boot timeline is mirrored into this registry as a
    /// `boot` span with one modelled child per [`BootReport`] step.
    ///
    /// [`BootReport`]: crate::timing::BootReport
    pub telemetry: Option<Telemetry>,
}

impl Default for BootOptions {
    fn default() -> Self {
        BootOptions {
            kernel_override: None,
            initrd_override: None,
            cmdline_override: None,
            hash_table_override: None,
            identity_seed: [0x42; 32],
            cost_model: CostModel::default(),
            telemetry: None,
        }
    }
}

/// The simulated hypervisor.
#[derive(Debug, Clone)]
pub struct Hypervisor {
    firmware_kind: FirmwareKind,
}

impl Hypervisor {
    /// Creates a hypervisor that loads the given firmware build.
    #[must_use]
    pub fn new(firmware_kind: FirmwareKind) -> Self {
        Hypervisor { firmware_kind }
    }

    /// The firmware build this hypervisor loads.
    #[must_use]
    pub fn firmware_kind(&self) -> FirmwareKind {
        self.firmware_kind
    }

    /// Boots `image` on `platform`:
    ///
    /// 1. hash the (claimed) kernel/initrd/cmdline into the firmware's
    ///    table,
    /// 2. let the AMD-SP measure the firmware volume and launch,
    /// 3. firmware re-verifies the actually-loaded blobs,
    /// 4. hand off to the in-guest init sequence ([`BootedVm`]).
    ///
    /// # Errors
    ///
    /// Returns [`BootError`] when the platform rejects the launch, the
    /// firmware detects a blob mismatch, or the in-guest bring-up fails
    /// (rootfs integrity, sealed volume, malformed artifacts).
    pub fn boot(
        &self,
        platform: &SnpPlatform,
        image: &VmImage,
        policy: GuestPolicy,
        options: BootOptions,
    ) -> Result<BootedVm, BootError> {
        // What the host *claims* (hashes into the table)…
        let claimed_table = options
            .hash_table_override
            .unwrap_or_else(|| HashTable::of(&image.kernel, &image.initrd, &image.cmdline));
        let firmware = FirmwareImage::assemble(self.firmware_kind, claimed_table);

        // …launch: the AMD-SP measures the firmware volume…
        let guest = platform.launch(&firmware.to_bytes(), policy)?;

        // …and what the host *actually* loads.
        let kernel = options
            .kernel_override
            .clone()
            .unwrap_or_else(|| image.kernel.clone());
        let initrd = options
            .initrd_override
            .clone()
            .unwrap_or_else(|| image.initrd.clone());
        let cmdline = options
            .cmdline_override
            .clone()
            .unwrap_or_else(|| image.cmdline.clone());

        // Firmware-side verification (measured code path).
        firmware.verify_blobs(&kernel, &initrd, &cmdline)?;

        BootedVm::bring_up(guest, firmware, &initrd, &cmdline, image, &options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BootComponent;
    use revelio_build::fstree::FsTree;
    use revelio_build::image::{build_image, ImageSpec};
    use sev_snp::ids::{ChipId, TcbVersion};
    use sev_snp::platform::AmdRootOfTrust;
    use std::sync::Arc;

    fn platform() -> SnpPlatform {
        let amd = Arc::new(AmdRootOfTrust::from_seed([5; 32]));
        SnpPlatform::new(amd, ChipId::from_seed(1), TcbVersion::default())
    }

    fn image() -> VmImage {
        let mut rootfs = FsTree::new();
        rootfs
            .add_file("/usr/bin/svc", b"svc".to_vec(), 0o755)
            .unwrap();
        build_image(&ImageSpec::new("t", rootfs)).unwrap()
    }

    #[test]
    fn honest_boot_succeeds() {
        let vm = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform(),
                &image(),
                GuestPolicy::default(),
                BootOptions::default(),
            )
            .unwrap();
        assert!(vm.rootfs().get("/usr/bin/svc").is_some());
    }

    #[test]
    fn wrong_kernel_fails_boot() {
        // §6.1.1: host hashes the right blobs but loads a different kernel.
        let err = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform(),
                &image(),
                GuestPolicy::default(),
                BootOptions {
                    kernel_override: Some(b"malicious kernel".to_vec()),
                    ..BootOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, BootError::HashMismatch(BootComponent::Kernel));
    }

    #[test]
    fn wrong_cmdline_fails_boot() {
        // Host edits the root hash argument: caught by the cmdline hash.
        let img = image();
        let evil_cmdline = img.cmdline.replace(
            &revelio_crypto::hex::encode(img.root_hash),
            &revelio_crypto::hex::encode([0u8; 32]),
        );
        let err = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform(),
                &img,
                GuestPolicy::default(),
                BootOptions {
                    cmdline_override: Some(evil_cmdline),
                    ..BootOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, BootError::HashMismatch(BootComponent::Cmdline));
    }

    #[test]
    fn lying_hash_table_fails_boot() {
        // Host injects hashes for evil blobs but loads the honest ones —
        // still a mismatch, just in the other direction.
        let err = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform(),
                &image(),
                GuestPolicy::default(),
                BootOptions {
                    hash_table_override: Some(HashTable::of(b"evil", b"evil", "evil")),
                    ..BootOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, BootError::HashMismatch(_)));
    }

    #[test]
    fn consistent_lie_boots_but_changes_measurement() {
        // Host swaps kernel AND its hash consistently: boot succeeds, but
        // the launch measurement differs from the golden value, so remote
        // attestation fails — the other arm of §6.1.1's case analysis.
        // Two independent images (and thus disks): the sealed data volume
        // binds a disk to one measurement, so cross-measurement boots of a
        // shared disk are exercised separately in vm.rs.
        let honest_img = image();
        let evil_img = image();
        let evil_kernel = b"malicious kernel".to_vec();
        let honest_vm = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform(),
                &honest_img,
                GuestPolicy::default(),
                BootOptions::default(),
            )
            .unwrap();
        let evil_vm = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform(),
                &evil_img,
                GuestPolicy::default(),
                BootOptions {
                    kernel_override: Some(evil_kernel.clone()),
                    hash_table_override: Some(HashTable::of(
                        &evil_kernel,
                        &evil_img.initrd,
                        &evil_img.cmdline,
                    )),
                    ..BootOptions::default()
                },
            )
            .unwrap();
        assert_ne!(honest_vm.measurement(), evil_vm.measurement());
    }

    #[test]
    fn malicious_firmware_boots_anything_but_measures_differently() {
        let honest = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform(),
                &image(),
                GuestPolicy::default(),
                BootOptions::default(),
            )
            .unwrap();
        let evil = Hypervisor::new(FirmwareKind::MaliciousSkipVerify)
            .boot(
                &platform(),
                &image(),
                GuestPolicy::default(),
                BootOptions {
                    kernel_override: Some(b"evil".to_vec()),
                    ..BootOptions::default()
                },
            )
            .unwrap();
        assert_ne!(honest.measurement(), evil.measurement());
    }
}
