//! Experiment implementations for every table and figure in the paper's
//! evaluation (§6), plus the fleet, swarm, reconcile and chaos harnesses,
//! all driven by the `repro` binary. The harnesses emit one record type,
//! [`BenchReport`].
//!
//! # Scaling
//!
//! The paper's disks are gigabytes; an in-memory reproduction runs the
//! *same code paths* at 1/[`SCALE`] size and uses a cost model whose
//! per-byte constants are multiplied by [`SCALE`], so modelled latencies
//! come out at paper scale while real execution stays laptop-sized. Shape
//! claims (what dominates, how costs scale, who wins) are invariant under
//! this transformation because every modelled cost is linear in bytes.
//! `EXPERIMENTS.md` records paper-vs-reproduced values.

#![forbid(unsafe_code)]

pub mod fabric;
pub mod reconcile;
pub mod report;
pub mod swarm;
pub mod trace_demo;

use std::str::FromStr;
use std::sync::Arc;

pub use fabric::{fleet_dimensions_from_env, run_fabric_bench, run_retry_ablation};
pub use reconcile::{
    reconcile_dimensions_from_env, run_reconcile, RECONCILE_FAULT_SEED, RECONCILE_SEED,
};
pub use report::BenchReport;
use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_boot::firmware::FirmwareKind;
use revelio_boot::loader::{BootOptions, Hypervisor};
use revelio_boot::timing::{BootReport, CostModel};
use revelio_build::artifacts::CryptVolumeConfig;
use revelio_build::fstree::FsTree;
use revelio_build::image::{build_image, ImageSpec};
use revelio_net::clock::SimClock;
use revelio_storage::block::{BlockDevice, MemBlockDevice};
use revelio_storage::crypt::{CryptDevice, CryptParams};
use revelio_storage::probed::ProbedDevice;
use revelio_storage::verity::{VerityDevice, VerityParams, VerityTree};
use revelio_telemetry::{DeviceProbe, Telemetry};
use sev_snp::ids::GuestPolicy;
pub use swarm::{run_swarm, swarm_dimensions_from_env};
pub use trace_demo::{run_trace_demo, TRACE_DEMO_FAULT_SEED, TRACE_DEMO_SEED};

/// Size scale factor: simulated bytes × `SCALE` = paper bytes.
pub const SCALE: u64 = 64;

/// Parses one dimension override. `raw` is the environment variable's
/// value, `None` when it is unset (which selects `default`). Anything
/// but a positive integer, surrounding whitespace aside, is an error
/// naming the variable: a typo must not silently run the full-scale
/// default.
///
/// # Errors
///
/// Returns the message to print when `raw` is zero or does not parse.
pub(crate) fn env_dim<T>(name: &str, raw: Option<&str>, default: T) -> Result<T, String>
where
    T: FromStr + From<u8> + PartialEq,
{
    let Some(raw) = raw else {
        return Ok(default);
    };
    match raw.trim().parse::<T>() {
        Ok(value) if value != T::from(0) => Ok(value),
        _ => Err(format!("{name}={raw:?}: expected a positive integer")),
    }
}

/// `env_dim` over the process environment. A value that is not UTF-8
/// fails to parse rather than being ignored.
///
/// # Errors
///
/// As `env_dim`.
pub fn dim_from_env<T>(name: &str, default: T) -> Result<T, String>
where
    T: FromStr + From<u8> + PartialEq,
{
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    env_dim(name, raw.as_deref(), default)
}

/// The `p`-quantile of ascending `sorted`, by round-to-nearest rank; 0
/// for an empty slice.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Modelled raw-disk sequential read cost, ns per byte (≈55 MB/s — the
/// paper testbed's virtio disk). The I/O experiments charge a sim clock
/// with these instead of reading the wall clock, so results are
/// machine-independent and reproducible byte-for-byte.
pub(crate) const DISK_READ_NS_PER_BYTE: f64 = 18.0;
/// Modelled raw-disk sequential write cost, ns per byte (≈27 MB/s).
pub(crate) const DISK_WRITE_NS_PER_BYTE: f64 = 36.0;
/// Modelled dm-verity hash verification cost per tree level touched, ns
/// per byte. Fitted so a depth-3 tree reads ≈9× slower than plain —
/// the paper's Fig. 6 average slowdown is 9.35×.
///
/// This models the paper's kernel testbed, where a cold page cache makes
/// every level a read and a verify. It deliberately keeps charging
/// `depth + 1` levels even though `VerityDevice` hashes only the data
/// block per read (its tree is authenticated once, at open).
pub(crate) const VERITY_VERIFY_NS_PER_BYTE: f64 = 36.0;

/// The paper's cost model with per-byte constants multiplied by [`SCALE`]
/// (so a 1/64-size disk yields paper-scale modelled latencies).
#[must_use]
pub(crate) fn scaled_cost_model() -> CostModel {
    let base = CostModel::default();
    CostModel {
        hash_ns_per_byte: base.hash_ns_per_byte * SCALE as f64,
        cipher_ns_per_byte: base.cipher_ns_per_byte * SCALE as f64,
        ..base
    }
}

/// Builds a rootfs tree holding roughly `payload_bytes` of content.
#[must_use]
pub(crate) fn rootfs_of_size(payload_bytes: usize) -> FsTree {
    let mut tree = FsTree::new();
    let chunk = 1 << 20; // 1 MiB files
    let mut remaining = payload_bytes;
    let mut index = 0;
    while remaining > 0 {
        let size = remaining.min(chunk);
        // Compressible-ish but non-constant content.
        let content: Vec<u8> = (0..size).map(|i| ((i / 7) ^ (index * 31)) as u8).collect();
        tree.add_file(&format!("/usr/lib/blob-{index:04}"), content, 0o644)
            .expect("static path");
        remaining -= size;
        index += 1;
    }
    tree.add_file("/usr/sbin/service", b"service binary".to_vec(), 0o755)
        .expect("static path");
    tree
}

/// Runs the Table 1 experiment: the first-boot reports of the two images,
/// Boundary Node then CryptPad server, with modelled step latencies at
/// paper scale.
///
/// # Panics
///
/// Panics if image building or boot fails (a bug, not a benchmark result).
#[must_use]
pub fn run_table1() -> Vec<BootReport> {
    let mut world = SimWorld::new(100);

    // Boundary Node: 4 GiB paper rootfs (64 MiB simulated), many services.
    let bn_services: Vec<String> = (0..110).map(|i| format!("bn-svc-{i}")).collect();
    // CryptPad server: ~2.9 GiB paper rootfs, few services.
    let cp_services: Vec<String> = (0..20).map(|i| format!("cp-svc-{i}")).collect();

    let mut variants = Vec::new();
    for (label, rootfs_bytes, services) in [
        ("BN", (4u64 << 30) / SCALE, &bn_services),
        ("CP", (2_900u64 << 20) / SCALE, &cp_services),
    ] {
        let mut spec = ImageSpec::new(label, rootfs_of_size(rootfs_bytes as usize));
        spec.init.services = services.clone();
        spec.init.crypt_volume = Some(CryptVolumeConfig {
            partition_name: "data".into(),
            kdf_iterations: 1000,
        });
        // 84 MB paper volume, scaled.
        spec.data_blocks = (84 * 1024 * 1024 / SCALE) / spec.block_size as u64;
        let image = build_image(&spec).expect("image builds");
        let platform = world.new_platform();
        let vm = Hypervisor::new(FirmwareKind::MeasuredDirectBoot)
            .boot(
                &platform,
                &image,
                GuestPolicy::default(),
                BootOptions {
                    cost_model: scaled_cost_model(),
                    ..BootOptions::default()
                },
            )
            .expect("boot succeeds");
        variants.push(vm.boot_report().clone());
    }
    variants
}

/// One point of the Fig. 5 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Total I/O size in bytes (simulated scale).
    pub total_bytes: usize,
    /// Plain read/write wall time, ms.
    pub plain_ms: f64,
    /// Encrypted read/write wall time, ms.
    pub crypt_ms: f64,
}

impl Fig5Point {
    /// Overhead percentage of the encrypted path.
    #[must_use]
    pub fn overhead_percent(&self) -> f64 {
        (self.crypt_ms - self.plain_ms) / self.plain_ms * 100.0
    }
}

const FIG5_BLOCK: usize = 4096;

fn dd_write(device: &dyn BlockDevice, total: usize) {
    let buf = vec![0xa5u8; FIG5_BLOCK];
    for i in 0..(total / FIG5_BLOCK) as u64 {
        device.write_block(i, &buf).expect("in range");
    }
}

fn dd_read(device: &dyn BlockDevice, total: usize) {
    let mut buf = vec![0u8; FIG5_BLOCK];
    for i in 0..(total / FIG5_BLOCK) as u64 {
        device.read_block(i, &mut buf).expect("in range");
    }
}

/// Runs the Fig. 5 experiment: `dd`-style sequential I/O (4 KiB blocks)
/// over a plain device vs a dm-crypt volume, for each size in
/// `total_sizes`. `write` selects the write or read sweep.
///
/// Timings are read off a sim clock charged by [`DeviceProbe`]s (disk
/// cost on both paths, AES cost on top of the crypt path), not the wall
/// clock — the sweep is deterministic.
///
/// # Panics
///
/// Panics on device setup failure.
#[must_use]
pub fn run_fig5(total_sizes: &[usize], write: bool) -> Vec<Fig5Point> {
    let max = total_sizes.iter().copied().max().unwrap_or(FIG5_BLOCK);
    let blocks = (max / FIG5_BLOCK + 2) as u64;
    let clock = SimClock::new();
    let telemetry = Telemetry::new(clock.clone());
    let cipher_ns = CostModel::default().cipher_ns_per_byte;

    let plain = ProbedDevice::new(
        Arc::new(MemBlockDevice::new(FIG5_BLOCK, blocks)),
        DeviceProbe::new(
            telemetry.clone(),
            "fig5_plain",
            DISK_READ_NS_PER_BYTE,
            DISK_WRITE_NS_PER_BYTE,
        ),
    );
    let backing: Arc<dyn BlockDevice> = Arc::new(ProbedDevice::new(
        Arc::new(MemBlockDevice::new(FIG5_BLOCK, blocks + 1)),
        DeviceProbe::new(
            telemetry.clone(),
            "fig5_crypt_backing",
            DISK_READ_NS_PER_BYTE,
            DISK_WRITE_NS_PER_BYTE,
        ),
    ));
    // Paper config: aes-xts-plain64 + pbkdf2(1000).
    let params = CryptParams {
        iterations: 1000,
        salt: [7; 32],
    };
    // The crypt path pays the backing disk cost plus the cipher cost.
    let crypt = ProbedDevice::new(
        Arc::new(CryptDevice::format(backing, b"bench key", &params).expect("format")),
        DeviceProbe::new(telemetry.clone(), "fig5_crypt", cipher_ns, cipher_ns),
    );
    // Pre-fill for the read sweep.
    if !write {
        dd_write(&plain, max);
        dd_write(&crypt, max);
    }

    total_sizes
        .iter()
        .map(|&total| {
            let (_, plain_ms) = clock.time_ms(|| {
                if write {
                    dd_write(&plain, total);
                } else {
                    dd_read(&plain, total);
                }
            });
            let (_, crypt_ms) = clock.time_ms(|| {
                if write {
                    dd_write(&crypt, total);
                } else {
                    dd_read(&crypt, total);
                }
            });
            Fig5Point {
                total_bytes: total,
                plain_ms,
                crypt_ms,
            }
        })
        .collect()
}

/// One point of the Fig. 6 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// File size read, bytes.
    pub file_bytes: usize,
    /// Plain read wall time, ms.
    pub plain_ms: f64,
    /// Verity-verified read wall time, ms.
    pub verity_ms: f64,
}

impl Fig6Point {
    /// Slowdown factor of the verified path.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.verity_ms / self.plain_ms
    }
}

/// Runs the Fig. 6 experiment: reading files of the given sizes from a
/// verity-protected volume vs a plain one.
///
/// Timings are read off a sim clock: both paths pay the modelled disk
/// cost, and the verity path pays an extra hash-verify cost per tree
/// level touched.
///
/// # Panics
///
/// Panics on device setup failure.
#[must_use]
pub fn run_fig6(file_sizes: &[usize]) -> Vec<Fig6Point> {
    let max = file_sizes.iter().copied().max().unwrap_or(4096);
    let blocks = (max / 4096 + 2) as u64;
    let clock = SimClock::new();
    let telemetry = Telemetry::new(clock.clone());
    let raw = Arc::new(MemBlockDevice::new(4096, blocks));
    dd_write(raw.as_ref(), max);
    let data = Arc::new(ProbedDevice::new(
        raw,
        DeviceProbe::new(
            telemetry.clone(),
            "fig6_data",
            DISK_READ_NS_PER_BYTE,
            DISK_WRITE_NS_PER_BYTE,
        ),
    ));
    let tree = VerityTree::build(
        data.as_ref(),
        VerityParams {
            hash_block_size: 4096,
            salt: [3; 32],
        },
    )
    .expect("tree builds");
    let depth = tree.depth();
    let root = tree.root_hash();
    let verity = ProbedDevice::new(
        Arc::new(VerityDevice::open(Arc::clone(&data) as _, tree, &root).expect("opens")),
        DeviceProbe::new(
            telemetry.clone(),
            "fig6_verity",
            VERITY_VERIFY_NS_PER_BYTE * (depth as f64 + 1.0),
            0.0,
        ),
    );

    file_sizes
        .iter()
        .map(|&size| {
            let (_, plain_ms) = clock.time_ms(|| dd_read(data.as_ref(), size));
            let (_, verity_ms) = clock.time_ms(|| dd_read(&verity, size));
            Fig6Point {
                file_bytes: size,
                plain_ms,
                verity_ms,
            }
        })
        .collect()
}

/// Table 2 result: the SP node's per-phase latencies (simulated ms).
#[must_use]
pub fn run_table2(fleet_size: usize) -> revelio::sp::SpTimings {
    let mut world = SimWorld::new(200);
    let fleet = world
        .deploy_fleet("service.example.org", fleet_size, demo_app())
        .expect("fleet deploys");
    fleet.provision.timings
}

/// Table 3 result rows (simulated ms).
#[derive(Debug, Clone, Copy)]
pub struct Table3 {
    /// Base network round trip.
    pub network_latency_ms: f64,
    /// Plain HTTPS page access (no extension).
    pub plain_get_ms: f64,
    /// First attested access (cold VCEK cache).
    pub attested_get_ms: f64,
    /// Of which, the KDS fetch.
    pub kds_ms: f64,
    /// Attested access with a warm VCEK cache.
    pub attested_get_warm_ms: f64,
    /// Monitored request on an attested session.
    pub monitored_get_ms: f64,
}

/// Runs the Table 3 experiment.
///
/// # Panics
///
/// Panics if deployment or attestation fails.
#[must_use]
pub fn run_table3() -> Table3 {
    let mut world = SimWorld::new(300);
    let fleet = world
        .deploy_fleet("pad.example.org", 1, demo_app())
        .expect("fleet deploys");
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);

    let network_latency_ms = 2.0 * revelio::world::LINK_ONE_WAY_US as f64 / 1000.0;

    let (_, plain_get_ms) = world.clock.time_ms(|| {
        extension
            .browse_unprotected("pad.example.org", "/")
            .expect("plain get")
    });

    let cold = extension
        .browse("pad.example.org", "/")
        .expect("attested get");
    let warm = extension.browse("pad.example.org", "/").expect("warm get");

    let mut session = extension
        .open_monitored("pad.example.org")
        .expect("monitored session");
    let (_, monitored_get_ms) = world
        .clock
        .time_ms(|| session.request("/").expect("request"));

    Table3 {
        network_latency_ms,
        plain_get_ms,
        attested_get_ms: cold.timing.total_ms,
        kds_ms: cold.timing.kds_ms,
        attested_get_warm_ms: warm.timing.total_ms,
        monitored_get_ms,
    }
}

/// Ablation: verity hash-block size vs tree depth and per-read hash work.
#[derive(Debug, Clone, Copy)]
pub struct VerityAblationPoint {
    /// Hash block size, bytes.
    pub hash_block_size: usize,
    /// Tree depth.
    pub depth: usize,
    /// Wall time to read the whole volume verified, ms.
    pub read_all_ms: f64,
}

/// Runs the verity hash-block-size ablation over a fixed 8 MiB volume.
///
/// # Panics
///
/// Panics on device setup failure.
#[must_use]
pub fn run_verity_ablation(hash_block_sizes: &[usize]) -> Vec<VerityAblationPoint> {
    let total = 8 << 20;
    let clock = SimClock::new();
    let telemetry = Telemetry::new(clock.clone());
    let raw = Arc::new(MemBlockDevice::new(4096, (total / 4096) as u64));
    dd_write(raw.as_ref(), total);
    hash_block_sizes
        .iter()
        .map(|&hbs| {
            let data = Arc::new(ProbedDevice::new(
                Arc::clone(&raw) as _,
                DeviceProbe::new(
                    telemetry.clone(),
                    &format!("ablation_data_{hbs}"),
                    DISK_READ_NS_PER_BYTE,
                    DISK_WRITE_NS_PER_BYTE,
                ),
            ));
            let tree = VerityTree::build(
                data.as_ref(),
                VerityParams {
                    hash_block_size: hbs,
                    salt: [1; 32],
                },
            )
            .expect("tree builds");
            let depth = tree.depth();
            let root = tree.root_hash();
            let verity = ProbedDevice::new(
                Arc::new(VerityDevice::open(Arc::clone(&data) as _, tree, &root).expect("opens")),
                DeviceProbe::new(
                    telemetry.clone(),
                    &format!("ablation_verity_{hbs}"),
                    VERITY_VERIFY_NS_PER_BYTE * (depth as f64 + 1.0),
                    0.0,
                ),
            );
            let (_, read_all_ms) = clock.time_ms(|| dd_read(&verity, total));
            VerityAblationPoint {
                hash_block_size: hbs,
                depth,
                read_all_ms,
            }
        })
        .collect()
}

/// Ablation: shared certificate vs per-node issuance under CA rate limits.
/// Returns `(fleet_size, shared_cert_orders, per_node_orders, limit)`.
#[must_use]
pub fn cert_strategy_ablation(fleet_size: usize, limit: u32) -> (usize, u32, u32, u32) {
    // The shared strategy orders once regardless of fleet size; per-node
    // orders once per node and trips the limit beyond it.
    (fleet_size, 1, fleet_size as u32, limit)
}

/// Ablation: well-known-fetch attestation vs RA-TLS (evidence in the
/// handshake, §7), both with a warm VCEK cache. Returns
/// `(well_known_ms, ratls_ms)` per attested page access.
///
/// # Panics
///
/// Panics if deployment or attestation fails.
#[must_use]
pub fn run_ratls_ablation() -> (f64, f64) {
    let mut world = SimWorld::new(400);
    let fleet = world
        .deploy_fleet("pad.example.org", 1, demo_app())
        .expect("fleet deploys");
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    // Warm the VCEK cache so both paths are KDS-free.
    extension
        .browse("pad.example.org", "/")
        .expect("warms cache");
    let well_known = extension
        .browse("pad.example.org", "/")
        .expect("fetch path");
    let ratls = extension
        .browse_ratls("pad.example.org", "/")
        .expect("ratls path");
    (well_known.timing.total_ms, ratls.timing.total_ms)
}

/// Scalability experiment (requirement D3): SP provisioning latency as the
/// fleet grows. Returns `(fleet_size, total_provision_ms)` pairs.
///
/// # Panics
///
/// Panics if deployment fails.
#[must_use]
pub fn run_fleet_scaling(sizes: &[usize]) -> Vec<(usize, f64)> {
    sizes
        .iter()
        .map(|&n| {
            let mut world = SimWorld::new(500 + n as u64);
            let clock = world.clock.clone();
            let t0 = clock.now_ms();
            let _fleet = world
                .deploy_fleet("scale.example.org", n, demo_app())
                .expect("fleet deploys");
            (n, clock.now_ms() - t0)
        })
        .collect()
}

/// Runs a full end-to-end scenario — deploy and provision a two-node
/// fleet, browse it cold, warm and over RA-TLS, one monitored request —
/// and returns the world's telemetry registry for export.
///
/// Everything is driven by the sim clock, so equal seeds yield
/// byte-identical exports.
///
/// # Panics
///
/// Panics if deployment or attestation fails.
#[must_use]
pub fn run_telemetry(seed: u64) -> Telemetry {
    let mut world = SimWorld::new(seed);
    let fleet = world
        .deploy_fleet("pad.example.org", 2, demo_app())
        .expect("fleet deploys");
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    extension
        .browse("pad.example.org", "/")
        .expect("cold attested browse");
    extension
        .browse("pad.example.org", "/")
        .expect("warm attested browse");
    extension
        .browse_ratls("pad.example.org", "/")
        .expect("ratls browse");
    let mut session = extension
        .open_monitored("pad.example.org")
        .expect("monitored session");
    session.request("/").expect("monitored request");
    world.telemetry.clone()
}

/// Runs the chaos column: the Table 2/3 headline figures re-measured
/// under calibrated loss and under a one-subnet partition, next to the
/// clean baseline. Every scenario deploys the same 16-node fleet
/// (12 nodes in subnet 113, 4 in subnet 114); `fault_seed` keys the
/// deterministic fault streams, so a pinned seed gives byte-identical
/// figures on every run and host. Each figure is reported as
/// `<scenario>.<figure>`; the column has no gates.
///
/// # Panics
///
/// Panics if a scenario's surviving fleet cannot serve an attested page
/// (the partition-tolerance invariant the test suite pins).
#[must_use]
pub fn run_chaos_column(fault_seed: u64) -> BenchReport {
    use revelio::extension::BrowseVerdict;
    use revelio_net::{FaultDomain, FaultPlan};

    type Inject = fn(&SimWorld);
    let scenarios: [(&'static str, Inject); 3] = [
        ("clean", |_world| {}),
        ("lossy", |world| {
            // Calibrated loss over the main subnet: enough drops that
            // retry budgets are exercised, low enough that every node
            // survives provisioning for the pinned CI seeds.
            world.net.install_fault_domain(FaultDomain::degraded(
                "lossy-113",
                &SimWorld::subnet_prefix(113),
                FaultPlan {
                    drop_probability: 0.05,
                    jitter_us: 2_000,
                    ..FaultPlan::default()
                },
            ));
        }),
        ("partitioned", |world| {
            world.net.install_fault_domain(FaultDomain::partition(
                "rack-114",
                &SimWorld::subnet_prefix(114),
            ));
        }),
    ];

    let mut report = BenchReport::new("chaos", &[("fault_seed", fault_seed)]);
    for (scenario, inject) in scenarios {
        let mut world = SimWorld::new(500);
        world.net.set_fault_seed(fault_seed);
        inject(&world);
        let fleet = world
            .deploy_fleet_in_subnets("pad.example.org", &[(113, 12), (114, 4)], demo_app())
            .expect("survivors provision");
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
        let browse = extension.browse("pad.example.org", "/");
        assert_eq!(
            BrowseVerdict::classify(&browse),
            BrowseVerdict::Attested,
            "scenario {scenario}: certified fleet must serve: {browse:?}"
        );
        let cold = browse.expect("classified attested");
        let mut session = extension
            .open_monitored("pad.example.org")
            .expect("monitored session");
        // Monitored requests carry no internal retry; under residual
        // loss a dropped exchange closes the session, and the
        // extension's re-attesting reconnect re-establishes it.
        let mut monitored_get_ms = None;
        for _ in 0..12 {
            let (result, ms) = world.clock.time_ms(|| session.request("/"));
            match result {
                Ok(_) => {
                    monitored_get_ms = Some(ms);
                    break;
                }
                Err(err) => {
                    assert!(
                        err.is_transient(),
                        "scenario {scenario}: monitored request reached a \
                         verdict error under pure network faults: {err:?}"
                    );
                    // Transient reconnect failures loop back around.
                    let _ = extension.reconnect(&mut session);
                }
            }
        }
        let monitored_get_ms = monitored_get_ms.expect("monitored request under residual loss");
        let timings = fleet.provision.timings;
        for (figure, ms) in [
            ("evidence_retrieval_ms", timings.evidence_retrieval_ms),
            ("evidence_validation_ms", timings.evidence_validation_ms),
            (
                "certificate_generation_ms",
                timings.certificate_generation_ms,
            ),
            (
                "certificate_distribution_ms",
                timings.certificate_distribution_ms,
            ),
        ] {
            report.sim(format!("{scenario}.{figure}"), "ms", ms);
        }
        report.count(
            format!("{scenario}.quarantined"),
            "nodes",
            fleet.provision.quarantined.len() as f64,
        );
        report.sim(
            format!("{scenario}.attested_get_ms"),
            "ms",
            cold.timing.total_ms,
        );
        report.sim(
            format!("{scenario}.monitored_get_ms"),
            "ms",
            monitored_get_ms,
        );
        report.count(
            format!("{scenario}.faults_injected"),
            "faults",
            world.net.faults_injected() as f64,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_contain_paper_steps_with_magnitudes() {
        let variants = run_table1();
        assert_eq!(variants.len(), 2);
        let (bn, cp) = (&variants[0], &variants[1]);
        // dm-verity verify: BN ~4.7 s (paper 4.68), CP smaller (paper 3.34).
        let bn_verify = bn.step_ms("dm-verity verify").unwrap();
        let cp_verify = cp.step_ms("dm-verity verify").unwrap();
        assert!((3500.0..6000.0).contains(&bn_verify), "{bn_verify}");
        assert!(cp_verify < bn_verify);
        // dm-crypt setup in the paper's 400-800 ms band.
        let crypt = bn.step_ms("dm-crypt setup").unwrap();
        assert!((300.0..900.0).contains(&crypt), "{crypt}");
        // BN boots slower than CP overall (22.7 s vs 10.2 s in the paper).
        assert!(bn.total_ms() > 1.5 * cp.total_ms());
    }

    #[test]
    fn fig5_crypt_slower_than_plain() {
        let points = run_fig5(&[64 * 1024, 256 * 1024], false);
        for p in &points {
            assert!(p.crypt_ms > p.plain_ms, "{p:?}");
        }
        let writes = run_fig5(&[64 * 1024], true);
        assert!(writes[0].crypt_ms > writes[0].plain_ms);
    }

    #[test]
    fn fig5_is_deterministic() {
        let a = run_fig5(&[64 * 1024, 128 * 1024], false);
        let b = run_fig5(&[64 * 1024, 128 * 1024], false);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plain_ms, y.plain_ms);
            assert_eq!(x.crypt_ms, y.crypt_ms);
        }
    }

    #[test]
    fn fig6_verity_slower_than_plain() {
        let points = run_fig6(&[256 * 1024, 1 << 20]);
        for p in &points {
            assert!(p.slowdown() > 1.0, "{p:?}");
        }
    }

    #[test]
    fn table2_generation_dominates() {
        let t = run_table2(3);
        assert!(t.certificate_generation_ms > t.evidence_retrieval_ms);
        assert!(t.certificate_generation_ms > t.certificate_distribution_ms);
    }

    #[test]
    fn table3_shape_matches_paper() {
        let t = run_table3();
        assert!(t.attested_get_ms > t.plain_get_ms);
        assert!(t.kds_ms > 0.5 * (t.attested_get_ms - t.plain_get_ms));
        assert!(t.attested_get_warm_ms < t.attested_get_ms - t.kds_ms + 50.0);
        assert!(t.monitored_get_ms > t.plain_get_ms - t.network_latency_ms);
    }

    #[test]
    fn telemetry_scenario_covers_the_pipeline() {
        let telemetry = run_telemetry(42);
        let breakdown = telemetry.breakdown();
        for span in [
            "boot",
            "kds.fetch",
            "acme.order",
            "tls.handshake",
            "browse",
            "sp.provision",
        ] {
            assert!(
                breakdown.contains(span),
                "missing {span} in breakdown:\n{breakdown}"
            );
        }
    }

    #[test]
    fn chaos_column_quarantines_the_partitioned_rack_deterministically() {
        let a = run_chaos_column(0xC4A0_5004);
        let b = run_chaos_column(0xC4A0_5004);
        let figure = |name: &str| a.metric(name).expect(name);
        assert_eq!(figure("clean.quarantined"), 0.0);
        assert_eq!(figure("clean.faults_injected"), 0.0);
        assert_eq!(figure("partitioned.quarantined"), 4.0);
        assert!(figure("partitioned.faults_injected") > 0.0);
        // Quarantined nodes must not dilute the per-phase averages: the
        // partitioned run's validation figure matches the clean run's.
        let clean = figure("clean.evidence_validation_ms");
        let partitioned = figure("partitioned.evidence_validation_ms");
        assert!(
            (partitioned - clean).abs() < 1.0,
            "validation average diluted: {partitioned} vs {clean}"
        );
        assert_eq!(a.to_json(), b.to_json(), "chaos column not deterministic");
    }

    #[test]
    fn env_dim_accepts_positive_integers_and_rejects_the_rest() {
        let dim = |raw| env_dim("REVELIO_X", raw, 7usize);
        assert_eq!(dim(None), Ok(7));
        assert_eq!(dim(Some("50000")), Ok(50_000));
        assert_eq!(dim(Some(" 4\n")), Ok(4));
        for bad in ["0", "50k", "", "-3", "1e6"] {
            let err = dim(Some(bad)).expect_err(bad);
            assert!(err.starts_with("REVELIO_X="), "{err}");
        }
        assert_eq!(
            env_dim("REVELIO_CHAOS_SEED", Some("3298840577"), 1u64),
            Ok(3_298_840_577)
        );
    }

    #[test]
    fn verity_ablation_depth_decreases_with_block_size() {
        let points = run_verity_ablation(&[1024, 4096, 16384]);
        assert!(points[0].depth >= points[1].depth);
        assert!(points[1].depth >= points[2].depth);
    }
}
