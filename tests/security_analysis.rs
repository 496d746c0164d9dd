//! Integration suite mirroring the paper's security analysis (§6.1): every
//! attack in the threat model, run against the full stack.

use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio::RevelioError;
use revelio_boot::error::BootComponent;
use revelio_boot::firmware::{FirmwareKind, HashTable};
use revelio_boot::loader::{BootOptions, Hypervisor};
use revelio_boot::BootError;
use revelio_storage::block::BlockDevice;
use sev_snp::ids::GuestPolicy;

/// §6.1.1 case 1: the host loads blobs different from the hashed ones —
/// the measured firmware refuses to boot, naming the component.
#[test]
fn host_lies_about_each_component() {
    let mut world = SimWorld::new(1);
    let spec = world.image_spec("s.example", &["svc"]);
    let platform = world.new_platform();
    let hv = Hypervisor::new(FirmwareKind::MeasuredDirectBoot);

    let cases: Vec<(BootOptions, BootComponent)> = vec![
        (
            BootOptions {
                kernel_override: Some(b"evil".to_vec()),
                ..BootOptions::default()
            },
            BootComponent::Kernel,
        ),
        (
            BootOptions {
                initrd_override: Some(b"evil".to_vec()),
                ..BootOptions::default()
            },
            BootComponent::Initrd,
        ),
        (
            BootOptions {
                cmdline_override: Some("root=/dev/evil".to_owned()),
                ..BootOptions::default()
            },
            BootComponent::Cmdline,
        ),
    ];
    for (options, component) in cases {
        let (image, _) = world.build(&spec).unwrap();
        let err = hv
            .boot(&platform, &image, GuestPolicy::default(), options)
            .unwrap_err();
        assert_eq!(err, BootError::HashMismatch(component));
    }
}

/// §6.1.1 case 2: the host injects hashes matching its evil blobs — boot
/// succeeds but the measurement can never equal the golden value.
#[test]
fn consistent_lie_changes_measurement() {
    let mut world = SimWorld::new(2);
    let spec = world.image_spec("s.example", &["svc"]);
    let (image, golden) = world.build(&spec).unwrap();
    let platform = world.new_platform();
    let evil_kernel = b"patched kernel with backdoor".to_vec();
    let vm = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
        .boot(
            &platform,
            &image,
            GuestPolicy::default(),
            BootOptions {
                kernel_override: Some(evil_kernel.clone()),
                hash_table_override: Some(HashTable::of(
                    &evil_kernel,
                    &image.initrd,
                    &image.cmdline,
                )),
                ..BootOptions::default()
            },
        )
        .unwrap();
    assert_ne!(vm.measurement(), golden);
}

/// §6.1.1 case 3: firmware replaced by a non-verifying build — boots
/// anything, but its code identity changes the measurement.
#[test]
fn malicious_firmware_reflected_in_measurement() {
    let mut world = SimWorld::new(3);
    let spec = world.image_spec("s.example", &["svc"]);
    let (image, golden) = world.build(&spec).unwrap();
    let platform = world.new_platform();
    let vm = Hypervisor::new(FirmwareKind::MaliciousSkipVerify)
        .boot(
            &platform,
            &image,
            GuestPolicy::default(),
            BootOptions::default(),
        )
        .unwrap();
    assert_ne!(vm.measurement(), golden);
}

/// §6.1.2: rootfs tampering — the root hash in the measured command line
/// no longer matches; mounting fails.
#[test]
fn rootfs_tampering_blocks_boot() {
    let mut world = SimWorld::new(4);
    let spec = world.image_spec("s.example", &["svc"]);
    let (image, _) = world.build(&spec).unwrap();
    let views = image.partitions().unwrap();
    // Flip one bit in the middle of the rootfs partition.
    let rootfs = &views[0].partition;
    image
        .disk
        .corrupt_bit((rootfs.first_block + rootfs.block_count / 2) * 4096 + 17, 6);
    let platform = world.new_platform();
    let err = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
        .boot(
            &platform,
            &image,
            GuestPolicy::default(),
            BootOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err, BootError::RootfsIntegrity(_)), "{err:?}");
}

/// §6.1.2 continued: tampering with the verity metadata partition is
/// equally fatal (the recomputed root hash cannot match the cmdline).
#[test]
fn verity_metadata_tampering_blocks_boot() {
    let mut world = SimWorld::new(5);
    let spec = world.image_spec("s.example", &["svc"]);
    let (image, _) = world.build(&spec).unwrap();
    let views = image.partitions().unwrap();
    let meta = &views[1].partition;
    image.disk.corrupt_bit(meta.first_block * 4096 + 64, 1);
    let platform = world.new_platform();
    let err = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
        .boot(
            &platform,
            &image,
            GuestPolicy::default(),
            BootOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err, BootError::RootfsIntegrity(_)), "{err:?}");
}

/// §6.1.3: runtime modification — there is no inbound management path, and
/// the verity target rejects writes at the block layer.
#[test]
fn runtime_modification_paths_closed() {
    let mut world = SimWorld::new(6);
    let fleet = world.deploy_fleet("s.example", 1, demo_app()).unwrap();
    // No SSH, no arbitrary ports.
    for port in [22, 2222, 8443] {
        let addr = fleet.nodes[0]
            .public_address()
            .replace(":443", &format!(":{port}"));
        assert!(world.net.dial(&addr).is_err(), "port {port} must refuse");
    }
    // The mounted rootfs is read-only at the device level.
    let vm = fleet.nodes[0].vm();
    let verity = vm.rootfs_device().expect("verity-mounted rootfs");
    let block = vec![0u8; 4096];
    assert_eq!(
        verity.write_block(0, &block),
        Err(revelio_storage::StorageError::ReadOnly)
    );
}

/// §6.1.4: rollback — the certificate chain and chip checks would pass,
/// but the revoked measurement fails verification.
#[test]
fn rollback_attack_rejected_by_revocation() {
    let mut world = SimWorld::new(7);

    // v1 is deployed and later found vulnerable; v2 replaces it.
    let fleet_v1 = world.deploy_fleet("s.example", 1, demo_app()).unwrap();
    let extension = world.extension();
    extension.register_site("s.example", vec![fleet_v1.golden_measurement]);
    assert!(extension.browse("s.example", "/").is_ok());

    // Revocation: the old image may no longer serve.
    extension.revoke_measurement("s.example", fleet_v1.golden_measurement);
    assert!(matches!(
        extension.browse("s.example", "/"),
        Err(RevelioError::UnknownMeasurement(_))
    ));
}

/// The sealed volume cannot be opened by a differently-measured VM even on
/// the same physical machine (decommissioning / offline-theft protection).
#[test]
fn sealed_volume_unreadable_after_decommission() {
    use revelio_storage::crypt::CryptDevice;
    use std::sync::Arc;

    let mut world = SimWorld::new(8);
    let spec = world.image_spec("s.example", &["svc"]);
    let (image, _) = world.build(&spec).unwrap();
    let platform = world.new_platform();
    let vm = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
        .boot(
            &platform,
            &image,
            GuestPolicy::default(),
            BootOptions::default(),
        )
        .unwrap();
    vm.data_volume()
        .unwrap()
        .write_block(0, &vec![0x55u8; 4096])
        .unwrap();
    drop(vm);

    // The "next tenant" scrapes the raw disk: the data partition holds
    // only ciphertext, and no guessed key opens it.
    let views = image.partitions().unwrap();
    let data = views.iter().find(|v| v.partition.name == "data").unwrap();
    let mut raw = vec![0u8; 4096];
    data.device.read_block(1, &mut raw).unwrap(); // +1: crypt superblock
    assert_ne!(raw, vec![0x55u8; 4096]);
    let guessed_params = revelio_storage::crypt::CryptParams::default();
    assert!(CryptDevice::open(Arc::clone(&data.device), b"guessed key", &guessed_params).is_err());
}

/// Debug-enabled guest policies are rejected by the extension even with
/// valid signatures and a golden measurement (the host could read guest
/// memory).
#[test]
fn debug_policy_rejected_by_extension_path() {
    use revelio::appraisal::DecidingCheck;
    use revelio::evidence::EvidenceBundle;

    let mut world = SimWorld::new(9);
    let platform = world.new_platform();
    let policy = GuestPolicy {
        debug_allowed: true,
        ..GuestPolicy::default()
    };
    let guest = platform.launch(b"fw", policy).unwrap();
    let report = guest.attestation_report(sev_snp::report::ReportData::default());
    let chain = world
        .kds
        .vcek_chain(&report.report.chip_id, &report.report.reported_tcb)
        .unwrap();
    let extension = world.extension();
    extension.register_site("s.example", vec![report.report.measurement]);
    let err = extension
        .verify_evidence("s.example", &EvidenceBundle { report, chain })
        .unwrap_err();
    assert!(matches!(err, RevelioError::EvidenceRejected(_)), "{err}");
    assert_eq!(err.deciding_check(), Some(DecidingCheck::DebugPolicy));
}
