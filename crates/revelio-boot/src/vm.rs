//! The in-guest bring-up sequence and the resulting running VM.
//!
//! After the firmware hands off, the measured initrd's init process (paper
//! §5.2) performs, in order: verity-mount the rootfs against the root hash
//! from the measured command line, open-or-create the sealed data volume
//! with a measurement-derived key, enforce the baked-in network policy,
//! create the unique VM identity (§5.2.2), and start the image's services.
//! Every step contributes a modelled duration to the boot timeline used by
//! the Table 1 reproduction.

use std::sync::Arc;

use revelio_build::artifacts::{InitConfig, KernelCmdline, NetworkPolicy};
use revelio_build::fstree::{FsEntry, FsTree};
use revelio_build::image::{read_rootfs, VmImage};
use revelio_crypto::ed25519::{SigningKey, VerifyingKey};
use revelio_crypto::sha2::Sha256;
use revelio_storage::block::BlockDevice;
use revelio_storage::crypt::{CryptDevice, CryptParams};
use revelio_storage::partition::{PartitionKind, PartitionTable};
use revelio_storage::verity::{VerityDevice, VerityTree};
use revelio_storage::StorageError;
use sev_snp::platform::GuestContext;
use sev_snp::report::{ReportData, SignedReport};
use sev_snp::sealing::SealingKeyRequest;

use crate::firmware::FirmwareImage;
use crate::loader::BootOptions;
use crate::timing::BootReport;
use crate::BootError;

/// Boot-step name → span-name segment: ASCII alphanumerics kept
/// (lowercased), every other run of characters collapsed to one `_`, so
/// `"kernel+init base"` becomes `"kernel_init_base"`.
fn span_segment(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut gap = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

/// A fully booted Revelio guest.
pub struct BootedVm {
    guest: GuestContext,
    firmware: FirmwareImage,
    rootfs: FsTree,
    rootfs_device: Option<Arc<VerityDevice>>,
    data_volume: Option<Arc<CryptDevice>>,
    identity: Option<SigningKey>,
    network: NetworkPolicy,
    services: Vec<String>,
    report: BootReport,
    first_boot: bool,
}

impl std::fmt::Debug for BootedVm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootedVm")
            .field("measurement", &self.guest.measurement())
            .field("services", &self.services.len())
            .field("first_boot", &self.first_boot)
            .finish_non_exhaustive()
    }
}

impl BootedVm {
    /// Runs the init sequence. Called by
    /// [`crate::loader::Hypervisor::boot`] after firmware verification.
    ///
    /// # Errors
    ///
    /// Returns the [`BootError`] of whichever init step fails.
    pub(crate) fn bring_up(
        guest: GuestContext,
        firmware: FirmwareImage,
        initrd: &[u8],
        cmdline: &str,
        image: &VmImage,
        options: &BootOptions,
    ) -> Result<Self, BootError> {
        let model = &options.cost_model;
        let mut report = BootReport::default();
        report.record("kernel+init base", model.base_boot_ms);

        let init: InitConfig = InitConfig::from_initrd(initrd)?;
        let cmdline = KernelCmdline::parse(cmdline).map_err(|_| BootError::MissingRootHash)?;

        let disk: Arc<dyn BlockDevice> = Arc::clone(&image.disk) as Arc<dyn BlockDevice>;
        let views = PartitionTable::open(disk)?;
        let find = |kind: PartitionKind| views.iter().find(|v| v.partition.kind == kind);

        // 1. Verity-mount the rootfs.
        let (rootfs, rootfs_device) = if init.verity_rootfs {
            let root_hash = cmdline.verity_root_hash.ok_or(BootError::MissingRootHash)?;
            let rootfs_part = find(PartitionKind::RootFs).ok_or_else(|| {
                BootError::Storage(StorageError::BadSuperblock("no rootfs partition".into()))
            })?;
            let meta_part = find(PartitionKind::VerityMeta).ok_or_else(|| {
                BootError::Storage(StorageError::BadSuperblock("no verity partition".into()))
            })?;
            let tree = VerityTree::read_from_device(meta_part.device.as_ref())
                .map_err(BootError::RootfsIntegrity)?;
            report.record("dm-verity setup", model.dm_setup_ms);

            let verity = Arc::new(
                VerityDevice::open(Arc::clone(&rootfs_part.device), tree, &root_hash)
                    .map_err(BootError::RootfsIntegrity)?,
            );
            // Verify the whole volume before mounting (§5.2.1): every data
            // block is read through the verity target once.
            let verified_bytes = verity.len_bytes();
            let rootfs = read_rootfs(verity.as_ref()).map_err(|e| match e {
                revelio_build::BuildError::Storage(s) => BootError::RootfsIntegrity(s),
                other => BootError::Image(other),
            })?;
            let mut buf = vec![0u8; verity.block_size()];
            for i in 0..verity.block_count() {
                verity
                    .read_block(i, &mut buf)
                    .map_err(BootError::RootfsIntegrity)?;
            }
            report.record("dm-verity verify", model.hash_ms(verified_bytes));
            (rootfs, Some(verity))
        } else {
            let rootfs_part = find(PartitionKind::RootFs).ok_or_else(|| {
                BootError::Storage(StorageError::BadSuperblock("no rootfs partition".into()))
            })?;
            (read_rootfs(rootfs_part.device.as_ref())?, None)
        };

        // 2. Sealed data volume.
        let mut first_boot = false;
        let data_volume = if let Some(crypt_cfg) = &init.crypt_volume {
            let part = views
                .iter()
                .find(|v| v.partition.name == crypt_cfg.partition_name)
                .ok_or_else(|| {
                    BootError::Storage(StorageError::BadSuperblock(format!(
                        "no partition named {:?}",
                        crypt_cfg.partition_name
                    )))
                })?;
            let sealing_key = guest.derive_sealing_key(&SealingKeyRequest::for_context(
                format!("disk/{}", crypt_cfg.partition_name).as_bytes(),
            ));
            let mut salt = [0u8; 32];
            salt[..16].copy_from_slice(&part.partition.uuid);
            let params = CryptParams {
                iterations: crypt_cfg.kdf_iterations,
                salt,
            };
            // First boot is a *pristine* (all-zero) superblock region. Any
            // other unreadable superblock means tampering or a foreign
            // volume: fail closed — silently reformatting would destroy
            // sealed data on a host-corrupted superblock.
            let volume = if CryptDevice::is_pristine(part.device.as_ref())? {
                first_boot = true;
                let vol = CryptDevice::format(Arc::clone(&part.device), &sealing_key, &params)?;
                let volume_bytes = part.device.len_bytes();
                report.record(
                    "dm-crypt setup",
                    model.kdf_ms(params.iterations)
                        + model.dm_setup_ms
                        + model.cipher_ms(volume_bytes),
                );
                vol
            } else {
                match CryptDevice::open(Arc::clone(&part.device), &sealing_key, &params) {
                    Ok(vol) => {
                        report.record(
                            "dm-crypt setup",
                            model.kdf_ms(params.iterations) + model.dm_setup_ms,
                        );
                        vol
                    }
                    Err(StorageError::WrongKey) => return Err(BootError::DataVolumeSealed),
                    Err(e) => return Err(BootError::Storage(e)),
                }
            };
            Some(Arc::new(volume))
        } else {
            None
        };

        // 3. Network policy comes from the measured image; nothing to
        //    compute, but its enforcement point is here, before services.
        let network = init.network.clone();

        // 4. Unique VM identity (§5.2.2).
        let identity = if init.create_identity {
            report.record("identity creation", model.identity_creation_ms);
            Some(SigningKey::from_seed(&options.identity_seed))
        } else {
            None
        };

        // 5. Services.
        for service in &init.services {
            report.record(&format!("service:{service}"), model.service_start_ms);
        }

        // Mirror the boot timeline into the telemetry registry: a `boot`
        // root span with one modelled child per recorded step, laid end to
        // end. Boot work is costed by the model, not the sim clock, so the
        // spans are emitted after the fact with modelled durations.
        if let Some(telemetry) = &options.telemetry {
            let span = telemetry.span_with(
                "boot",
                &[("first_boot", if first_boot { "true" } else { "false" })],
            );
            telemetry.modelled_steps(report.steps.iter().map(|step| {
                (
                    format!("boot.{}", span_segment(&step.name)),
                    step.modelled_ms,
                )
            }));
            span.finish_modelled_ms(report.total_ms());
            telemetry.counter_add("revelio_boot_boots_total", 1);
            telemetry.observe("revelio_boot_total_ms", report.total_ms());
        }

        Ok(BootedVm {
            guest,
            firmware,
            rootfs,
            rootfs_device,
            data_volume,
            identity,
            network,
            services: init.services,
            report,
            first_boot,
        })
    }

    /// The guest's launch measurement.
    #[must_use]
    pub fn measurement(&self) -> sev_snp::measurement::Measurement {
        self.guest.measurement()
    }

    /// The guest's AMD-SP interface.
    #[must_use]
    pub fn guest(&self) -> &GuestContext {
        &self.guest
    }

    /// The firmware this VM booted with.
    #[must_use]
    pub fn firmware(&self) -> &FirmwareImage {
        &self.firmware
    }

    /// The mounted (verity-verified) root filesystem.
    #[must_use]
    pub fn rootfs(&self) -> &FsTree {
        &self.rootfs
    }

    /// Reads a file from the mounted rootfs.
    #[must_use]
    pub fn read_file(&self, path: &str) -> Option<&[u8]> {
        match self.rootfs.get(path) {
            Some(FsEntry::File { content, .. }) => Some(content),
            _ => None,
        }
    }

    /// The verity device backing `/`, if the image mandated one.
    #[must_use]
    pub fn rootfs_device(&self) -> Option<&Arc<VerityDevice>> {
        self.rootfs_device.as_ref()
    }

    /// The unlocked sealed data volume, if configured.
    #[must_use]
    pub fn data_volume(&self) -> Option<&Arc<CryptDevice>> {
        self.data_volume.as_ref()
    }

    /// The VM's unique identity key (created at first boot, §5.2.2).
    #[must_use]
    pub fn identity(&self) -> Option<&SigningKey> {
        self.identity.as_ref()
    }

    /// The identity's public key.
    #[must_use]
    pub fn identity_public_key(&self) -> Option<VerifyingKey> {
        self.identity.as_ref().map(SigningKey::verifying_key)
    }

    /// An attestation report binding the VM identity: `REPORT_DATA` is the
    /// SHA-256 of the identity public key (§5.2.2, first report kind).
    /// `None` when the image disabled identity creation.
    #[must_use]
    pub fn identity_report(&self) -> Option<SignedReport> {
        let public = self.identity_public_key()?;
        let digest = Sha256::digest(public.to_bytes());
        Some(
            self.guest
                .attestation_report(ReportData::from_slice(&digest)),
        )
    }

    /// An attestation report over arbitrary `REPORT_DATA` (e.g. a CSR hash,
    /// §5.2.2's second report kind).
    #[must_use]
    pub fn report_with_data(&self, data: &[u8]) -> SignedReport {
        self.guest.attestation_report(ReportData::from_slice(data))
    }

    /// The enforced inbound-network policy.
    #[must_use]
    pub fn network_policy(&self) -> &NetworkPolicy {
        &self.network
    }

    /// Services started at boot.
    #[must_use]
    pub fn services(&self) -> &[String] {
        &self.services
    }

    /// The boot timeline (Table 1's raw material).
    #[must_use]
    pub fn boot_report(&self) -> &BootReport {
        &self.report
    }

    /// Whether this boot initialized (first-boot) the sealed volume.
    #[must_use]
    pub fn is_first_boot(&self) -> bool {
        self.first_boot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::FirmwareKind;
    use crate::loader::Hypervisor;
    use revelio_build::artifacts::{CryptVolumeConfig, InitConfig};
    use revelio_build::image::{build_image, ImageSpec};
    use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
    use sev_snp::platform::{AmdRootOfTrust, SnpPlatform};

    fn platform_from(seed: u64) -> SnpPlatform {
        let amd = Arc::new(AmdRootOfTrust::from_seed([5; 32]));
        SnpPlatform::new(amd, ChipId::from_seed(seed), TcbVersion::default())
    }

    fn spec(services: &[&str]) -> ImageSpec {
        let mut rootfs = FsTree::new();
        rootfs
            .add_file("/usr/bin/svc", b"svc".to_vec(), 0o755)
            .unwrap();
        rootfs
            .add_file("/etc/golden", b"value".to_vec(), 0o644)
            .unwrap();
        let mut s = ImageSpec::new("t", rootfs);
        s.init = InitConfig {
            services: services.iter().map(|s| (*s).to_string()).collect(),
            crypt_volume: Some(CryptVolumeConfig {
                partition_name: "data".into(),
                kdf_iterations: 3,
            }),
            ..InitConfig::default()
        };
        s
    }

    fn boot(platform: &SnpPlatform, image: &VmImage) -> BootedVm {
        Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                platform,
                image,
                GuestPolicy::default(),
                BootOptions::default(),
            )
            .unwrap()
    }

    #[test]
    fn boot_timeline_contains_table1_steps() {
        let p = platform_from(1);
        let image = build_image(&spec(&["nginx", "proxy"])).unwrap();
        let vm = boot(&p, &image);
        let r = vm.boot_report();
        for step in [
            "dm-verity setup",
            "dm-verity verify",
            "dm-crypt setup",
            "identity creation",
        ] {
            assert!(r.step_ms(step).is_some(), "missing step {step}");
        }
        assert!(vm.is_first_boot());
        assert_eq!(vm.services().len(), 2);
    }

    #[test]
    fn more_services_longer_boot() {
        let p = platform_from(1);
        let short = boot(&p, &build_image(&spec(&["a"])).unwrap());
        let names: Vec<String> = (0..40).map(|i| format!("svc{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let long = boot(&p, &build_image(&spec(&name_refs)).unwrap());
        assert!(long.boot_report().total_ms() > short.boot_report().total_ms());
    }

    #[test]
    fn sealed_volume_persists_across_reboot_same_vm() {
        let p = platform_from(1);
        let image = build_image(&spec(&[])).unwrap();
        let first = boot(&p, &image);
        assert!(first.is_first_boot());
        let vol = first.data_volume().unwrap();
        vol.write_block(0, &vec![9u8; 4096]).unwrap();
        drop(first);

        // Reboot the SAME disk on the SAME platform with the SAME image.
        let again = boot(&p, &image);
        assert!(!again.is_first_boot());
        let mut buf = vec![0u8; 4096];
        again
            .data_volume()
            .unwrap()
            .read_block(0, &mut buf)
            .unwrap();
        assert_eq!(buf, vec![9u8; 4096]);
    }

    #[test]
    fn first_boot_derives_the_volume_key_once() {
        // At the paper's 1000 PBKDF2 iterations one derivation costs 4002
        // SHA-256 compressions. First boot formats the volume and keeps
        // the unlocked device `format` returns; a reboot opens it. Each
        // derives the key once, so the two boots hash exactly as much.
        let p = platform_from(1);
        let mut spec = spec(&[]);
        spec.init.crypt_volume = Some(CryptVolumeConfig {
            partition_name: "data".into(),
            kdf_iterations: 1000,
        });
        let image = build_image(&spec).unwrap();
        let counted_boot = || {
            let before = revelio_crypto::metrics::thread_sha256_blocks();
            let vm = boot(&p, &image);
            (vm, revelio_crypto::metrics::thread_sha256_blocks() - before)
        };
        let (first, first_blocks) = counted_boot();
        assert!(first.is_first_boot());
        drop(first);
        let (again, reboot_blocks) = counted_boot();
        assert!(!again.is_first_boot());
        assert_eq!(first_blocks, reboot_blocks);
    }

    #[test]
    fn different_measurement_cannot_unseal_volume() {
        let p = platform_from(1);
        let image = build_image(&spec(&[])).unwrap();
        let first = boot(&p, &image);
        first
            .data_volume()
            .unwrap()
            .write_block(0, &vec![9u8; 4096])
            .unwrap();
        drop(first);

        // An attacker boots a *different* VM against the victim's disk:
        // the initrd differs (an extra exfiltration service), so the
        // firmware hash table — and therefore the launch measurement —
        // differs, while the victim's cmdline/root hash still mount the
        // stolen rootfs.
        let evil_spec = spec(&["exfiltrate"]);
        let evil_image = build_image(&evil_spec).unwrap();
        // Graft the victim's disk into the evil image.
        let grafted = VmImage {
            name: evil_image.name.clone(),
            kernel: evil_image.kernel.clone(),
            initrd: evil_image.initrd.clone(),
            cmdline: image.cmdline.clone(), // must reference victim's root hash to mount
            disk: Arc::clone(&image.disk),
            root_hash: image.root_hash,
            rootfs_blocks: image.rootfs_blocks,
        };
        let err = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(&p, &grafted, GuestPolicy::default(), BootOptions::default())
            .unwrap_err();
        // Different initrd (evil services)  -> different measurement ->
        // sealing key differs -> volume refuses.
        assert_eq!(err, BootError::DataVolumeSealed);
    }

    #[test]
    fn corrupted_rootfs_fails_boot() {
        let p = platform_from(1);
        let image = build_image(&spec(&[])).unwrap();
        let views = image.partitions().unwrap();
        let first = views[0].partition.first_block;
        image.disk.corrupt_bit(first * 4096 + 64, 0);
        let err = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(&p, &image, GuestPolicy::default(), BootOptions::default())
            .unwrap_err();
        assert!(matches!(err, BootError::RootfsIntegrity(_)), "{err:?}");
    }

    #[test]
    fn identity_report_binds_public_key() {
        let p = platform_from(1);
        let image = build_image(&spec(&[])).unwrap();
        let vm = boot(&p, &image);
        let report = vm.identity_report().unwrap();
        let expected = Sha256::digest(vm.identity_public_key().unwrap().to_bytes());
        assert_eq!(&report.report.report_data.as_bytes()[..32], &expected);
        assert_eq!(report.report.measurement, vm.measurement());
    }

    #[test]
    fn distinct_identity_seeds_distinct_keys() {
        let p = platform_from(1);
        let image = build_image(&spec(&[])).unwrap();
        let hv = Hypervisor::new(FirmwareKind::MeasuredDirectBoot);
        let a = hv
            .boot(
                &p,
                &image,
                GuestPolicy::default(),
                BootOptions {
                    identity_seed: [1; 32],
                    ..BootOptions::default()
                },
            )
            .unwrap();
        let image2 = build_image(&spec(&[])).unwrap();
        let b = hv
            .boot(
                &p,
                &image2,
                GuestPolicy::default(),
                BootOptions {
                    identity_seed: [2; 32],
                    ..BootOptions::default()
                },
            )
            .unwrap();
        assert_ne!(a.identity_public_key(), b.identity_public_key());
        // Identical images on the same platform still share a measurement.
        assert_eq!(a.measurement(), b.measurement());
    }

    #[test]
    fn network_policy_survives_from_image() {
        let p = platform_from(1);
        let image = build_image(&spec(&[])).unwrap();
        let vm = boot(&p, &image);
        assert_eq!(vm.network_policy().allowed_inbound_ports, vec![443]);
        assert!(!vm.network_policy().ssh_enabled);
    }

    #[test]
    fn file_reads_come_from_verified_rootfs() {
        let p = platform_from(1);
        let image = build_image(&spec(&[])).unwrap();
        let vm = boot(&p, &image);
        assert_eq!(vm.read_file("/etc/golden"), Some(&b"value"[..]));
        assert_eq!(vm.read_file("/nonexistent"), None);
    }
}
