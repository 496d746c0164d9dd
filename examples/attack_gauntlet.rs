//! The attack gauntlet: every attack of the paper's security analysis
//! (§6.1) plus the client-side threats of §5.3.2, run end-to-end.
//!
//! ```text
//! cargo run --example attack_gauntlet
//! ```
//!
//! Each scenario prints `DEFENDED` when the system blocks it at the layer
//! the paper predicts. Any `!! BREACHED !!` row makes the run exit
//! non-zero, so CI can gate on it.

use revelio::appraisal::DecidingCheck;
use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio::RevelioError;
use revelio_boot::error::BootComponent;
use revelio_boot::firmware::{FirmwareKind, HashTable};
use revelio_boot::loader::{BootOptions, Hypervisor};
use revelio_boot::BootError;
use sev_snp::ids::GuestPolicy;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows printed `!! BREACHED !!` so far.
static BREACHED: AtomicUsize = AtomicUsize::new(0);

fn verdict(name: &str, defended: bool, detail: &str) {
    let flag = if defended {
        "DEFENDED"
    } else {
        BREACHED.fetch_add(1, Ordering::Relaxed);
        "!! BREACHED !!"
    };
    println!("{flag:>14}  {name}: {detail}");
}

/// Whether `result` failed on `check` — not on a transport fault or any
/// other check that happens to return the same error variant.
fn decided_by<T>(result: &Result<T, RevelioError>, check: DecidingCheck) -> bool {
    result.as_ref().err().and_then(RevelioError::deciding_check) == Some(check)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Revelio attack gauntlet (paper §6.1, §5.3.2) ==\n");

    let mut world = SimWorld::new(66);
    let spec = world.image_spec("victim.example.org", &["web-service"]);
    let (image, golden) = world.build(&spec)?;
    let platform = world.new_platform();
    let hypervisor = Hypervisor::new(FirmwareKind::MeasuredDirectBoot);

    // §6.1.1 — loading a modified kernel.
    let result = hypervisor.boot(
        &platform,
        &image,
        GuestPolicy::default(),
        BootOptions {
            kernel_override: Some(b"malicious kernel".to_vec()),
            ..BootOptions::default()
        },
    );
    verdict(
        "modified kernel",
        matches!(result, Err(BootError::HashMismatch(BootComponent::Kernel))),
        "firmware refuses to boot on hash mismatch",
    );

    // §6.1.1 — modified initrd (skips integrity setup).
    let (image2, _) = world.build(&spec)?;
    let result = hypervisor.boot(
        &platform,
        &image2,
        GuestPolicy::default(),
        BootOptions {
            initrd_override: Some(b"initrd without dm-verity".to_vec()),
            ..BootOptions::default()
        },
    );
    verdict(
        "modified initrd",
        matches!(result, Err(BootError::HashMismatch(BootComponent::Initrd))),
        "firmware refuses to boot on hash mismatch",
    );

    // §6.1.1 — edited kernel command line (different root hash).
    let (image3, _) = world.build(&spec)?;
    let evil_cmdline = image3.cmdline.replace(
        &revelio_crypto::hex::encode(image3.root_hash),
        &revelio_crypto::hex::encode([0u8; 32]),
    );
    let result = hypervisor.boot(
        &platform,
        &image3,
        GuestPolicy::default(),
        BootOptions {
            cmdline_override: Some(evil_cmdline),
            ..BootOptions::default()
        },
    );
    verdict(
        "edited command line",
        matches!(result, Err(BootError::HashMismatch(BootComponent::Cmdline))),
        "firmware refuses to boot on hash mismatch",
    );

    // §6.1.1 — consistent lie: evil blobs AND matching injected hashes.
    let (image4, _) = world.build(&spec)?;
    let evil_kernel = b"malicious kernel".to_vec();
    let evil_vm = hypervisor.boot(
        &platform,
        &image4,
        GuestPolicy::default(),
        BootOptions {
            kernel_override: Some(evil_kernel.clone()),
            hash_table_override: Some(HashTable::of(&evil_kernel, &image4.initrd, &image4.cmdline)),
            ..BootOptions::default()
        },
    )?;
    verdict(
        "consistent kernel lie",
        evil_vm.measurement() != golden,
        "boots, but the launch measurement differs from the golden value",
    );

    // §6.1.1 — malicious firmware that skips verification.
    let (image5, _) = world.build(&spec)?;
    let evil_fw_vm = Hypervisor::new(FirmwareKind::MaliciousSkipVerify).boot(
        &platform,
        &image5,
        GuestPolicy::default(),
        BootOptions {
            kernel_override: Some(b"evil".to_vec()),
            ..BootOptions::default()
        },
    )?;
    verdict(
        "non-verifying firmware",
        evil_fw_vm.measurement() != golden,
        "different firmware code identity is reflected in the measurement",
    );

    // §6.1.2 — tampering with the rootfs on disk.
    let (image6, _) = world.build(&spec)?;
    let views = image6.partitions()?;
    image6
        .disk
        .corrupt_bit(views[0].partition.first_block * 4096 + 99, 4);
    let result = hypervisor.boot(
        &platform,
        &image6,
        GuestPolicy::default(),
        BootOptions::default(),
    );
    verdict(
        "rootfs bit flip",
        matches!(result, Err(BootError::RootfsIntegrity(_))),
        "dm-verity verification fails before mounting",
    );

    // §6.1.3 — runtime modification: no inbound management path exists.
    let fleet = world.deploy_fleet("victim.example.org", 1, demo_app())?;
    let ssh = fleet.nodes[0].public_address().replace(":443", ":22");
    verdict(
        "runtime ssh access",
        world.net.dial(&ssh).is_err(),
        "no service listens outside the attested HTTPS port",
    );

    // §6.1.4 — rollback to an obsolete (revoked) image.
    let extension = world.extension();
    extension.register_site("victim.example.org", vec![fleet.golden_measurement]);
    extension.revoke_measurement("victim.example.org", fleet.golden_measurement);
    let result = extension.browse("victim.example.org", "/");
    verdict(
        "image rollback",
        matches!(result, Err(RevelioError::UnknownMeasurement(_)))
            && decided_by(&result, DecidingCheck::Measurement),
        "revoked golden value is no longer accepted",
    );

    // §5.3.2 — certificate swap + redirect by the DNS-controlling provider.
    let extension = world.extension();
    extension.register_site("victim.example.org", vec![fleet.golden_measurement]);
    let mut session = extension.open_monitored("victim.example.org")?;
    session.request("/")?;
    let attacker_key = revelio_crypto::ed25519::SigningKey::from_seed(&[99; 32]);
    let csr = revelio_pki::cert::CertificateSigningRequest::new(
        "victim.example.org",
        &attacker_key,
        "Evil",
        "XX",
    );
    let chain = world.acme.order_certificate(&csr)?;
    revelio_http::server::serve_https(
        &world.net,
        "10.99.9.9:443",
        revelio_tls::TlsServerConfig::new(chain, attacker_key, [9; 32]),
        demo_app(),
    )?;
    world
        .net
        .peer(fleet.nodes[0].public_address())
        .redirect_to("10.99.9.9:443");
    let result = extension.reconnect(&mut session);
    verdict(
        "tls redirect with valid cert",
        matches!(result, Err(RevelioError::TlsBindingMismatch)),
        "extension pins the attested key; browser-trusted cert is not enough",
    );
    world
        .net
        .peer(fleet.nodes[0].public_address())
        .clear_redirect();

    // Impostor node with authentic hardware but unapproved chip.
    let spec2 = world.image_spec("victim.example.org", &["web-service"]);
    let (impostor_image, impostor_golden) = world.build(&spec2)?;
    let impostor =
        world.deploy_node("victim.example.org", &impostor_image, demo_app(), [77; 32])?;
    let sp = world.sp_node_for_domain(
        "victim.example.org",
        revelio::registry::GoldenSet::from_measurements([impostor_golden]),
        vec![(
            sev_snp::ids::ChipId::from_seed(123_456),
            impostor.bootstrap_address().to_owned(),
        )],
    );
    let result = sp.provision(&[impostor.bootstrap_address().to_owned()]);
    verdict(
        "impostor node",
        matches!(result, Err(RevelioError::NodeRejected { .. }))
            && decided_by(&result, DecidingCheck::ChipAllowlist),
        "chip/address allowlist blocks valid-report impostors",
    );

    println!("\ngauntlet complete");
    match BREACHED.load(Ordering::Relaxed) {
        0 => Ok(()),
        n => Err(format!("{n} attack(s) breached").into()),
    }
}
