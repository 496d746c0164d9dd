//! A one-call simulation harness: AMD's root of trust, a KDS with
//! paper-calibrated latency, an ACME CA, DNS, the network fabric, and
//! helpers to manufacture platforms and deploy whole Revelio fleets.
//!
//! Everything in `tests/`, `examples/` and the bench harness starts from a
//! [`SimWorld`], so scenario code stays focused on the scenario.

use std::collections::BTreeMap;
use std::sync::Arc;

use revelio_boot::firmware::{expected_measurement, FirmwareKind};
use revelio_boot::loader::{BootOptions, Hypervisor};
use revelio_build::fstree::FsTree;
use revelio_build::image::{build_image, ImageSpec, VmImage};
use revelio_http::router::Router;
use revelio_net::clock::SimClock;
use revelio_net::dns::DnsZone;
use revelio_net::net::{NetConfig, SimNet};
use revelio_net::{FaultDomain, FaultPlan, RetryPolicy};
use revelio_pki::acme::{AcmeCa, AcmePolicy};
use revelio_pki::cert::Certificate;
use revelio_telemetry::{FlightDirectory, Telemetry, DEFAULT_FLIGHT_CAPACITY};
use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
use sev_snp::kds::KeyDistributionService;
use sev_snp::measurement::Measurement;
use sev_snp::platform::{AmdRootOfTrust, SnpPlatform};

use crate::extension::{ExtensionConfig, ReconnectPolicy, WebExtension};
use crate::kds_http::{serve_kds_with_telemetry, KdsHttpClient, KDS_ADDRESS};
use crate::node::{NodeConfig, RevelioNode};
use crate::reconcile::{FleetSpec, NodeActuator, Reconciler};
use crate::registry::GoldenSet;
use crate::sp::{ProvisionReport, ServiceProviderNode, SpConfig};
use crate::RevelioError;

/// The identity seed of the `index`-th node of a fleet deployed by
/// [`SimWorld::deploy_fleet`] — derived from the world seed so a
/// redeploy (a rolling upgrade on the same slot) boots with the same
/// identity the SP's allowlist and the fleet's key protocol already
/// know.
fn fleet_identity_seed(world_seed: u64, index: u64) -> [u8; 32] {
    let mut identity_seed = [0u8; 32];
    identity_seed[..8].copy_from_slice(&(world_seed ^ (index + 1)).to_le_bytes());
    identity_seed[8] = 0xd1;
    identity_seed
}

/// Paper-calibrated latency constants (§6.4, Table 2/3).
#[derive(Debug, Clone)]
pub struct WorldTuning {
    /// One-way link latency, µs (Table 3 base RTT 5.2 ms).
    pub link_one_way_us: u64,
    /// One-way latency to the KDS, µs (Table 3: 427.3 ms round trip).
    pub kds_one_way_us: u64,
    /// Provider-internal one-way latency to node bootstrap ports, µs
    /// (Table 2: 17 ms retrieval round trip).
    pub internal_one_way_us: u64,
    /// Modelled app work per page request, ms (Table 3: plain GET
    /// 100.9 ms − 2 RTTs).
    pub page_processing_ms: f64,
    /// SP-side validation cost per node, ms (Table 2: 13 ms).
    pub sp_validation_ms: f64,
    /// CA processing on certificate orders, ms (Table 2: 2996 ms total).
    pub ca_processing_ms: f64,
    /// In-extension validation cost, ms (fitted to Table 3's row 3).
    pub extension_validation_ms: f64,
    /// Per-request connection validation, ms (Table 3: 115.0 − 100.9).
    pub extension_conn_validation_ms: f64,
    /// Per-component retry budgets for transient transport faults.
    pub retry: RetryTuning,
}

impl Default for WorldTuning {
    fn default() -> Self {
        WorldTuning {
            link_one_way_us: 2_600,
            kds_one_way_us: 213_650,
            internal_one_way_us: 8_500,
            page_processing_ms: 90.5,
            sp_validation_ms: 13.0,
            ca_processing_ms: 2_950.0,
            extension_validation_ms: 230.0,
            extension_conn_validation_ms: 14.1,
            retry: RetryTuning::default(),
        }
    }
}

/// Per-component [`RetryPolicy`] budgets, threaded by [`SimWorld`] into
/// each constructor. The [`Default`] reproduces what each component
/// hardcodes on its own (same budgets, same per-component jitter
/// streams), so a default world behaves exactly as before this knob
/// existed; ablations override individual fields to trade retry budget
/// against attestation tail latency under loss.
#[derive(Debug, Clone)]
pub struct RetryTuning {
    /// VCEK-chain fetches from the AMD KDS (the 427 ms public-internet
    /// round trip).
    pub kds: RetryPolicy,
    /// ACME certificate orders against the CA.
    pub acme: RetryPolicy,
    /// SP evidence retrieval and certificate distribution over the
    /// provider-internal network.
    pub sp: RetryPolicy,
    /// Node leader-link key requests during bootstrap.
    pub node: RetryPolicy,
    /// IC boundary-node upstream requests. The boundary applies its own
    /// jitter stream internally, so only the budget fields matter here.
    pub boundary: RetryPolicy,
    /// Web-extension attested browsing (report + page fetches).
    pub extension: RetryPolicy,
}

impl Default for RetryTuning {
    fn default() -> Self {
        RetryTuning {
            kds: KdsHttpClient::default_retry_policy(),
            acme: AcmeCa::default_retry_policy(),
            sp: ServiceProviderNode::default_retry_policy(),
            node: NodeConfig::default_retry_policy(),
            boundary: RetryPolicy::default(),
            extension: WebExtension::default_retry_policy(),
        }
    }
}

/// A deployed, provisioned Revelio fleet.
pub struct DeployedFleet {
    /// The nodes, in deployment order. The leader is named by
    /// `provision.leader_bootstrap` — the first node that survived
    /// provisioning, which is node 0 only when node 0 was reachable.
    /// Quarantined nodes (see `provision.quarantined`) are still listed.
    pub nodes: Vec<RevelioNode>,
    /// The golden launch measurement of the fleet's image.
    pub golden_measurement: Measurement,
    /// The SP node's provisioning report (Table 2 timings).
    pub provision: ProvisionReport,
    /// The domain served.
    pub domain: String,
}

impl std::fmt::Debug for DeployedFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeployedFleet")
            .field("domain", &self.domain)
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

/// The simulation world.
pub struct SimWorld {
    /// The virtual clock.
    pub clock: SimClock,
    /// The world-wide telemetry registry: every component deployed through
    /// this world records its spans and metrics here, so one export covers
    /// the whole attestation pipeline. Driven by [`SimWorld::clock`], which
    /// makes the export deterministic — same seed, same bytes.
    pub telemetry: Telemetry,
    /// Per-node flight recorders keyed by address (bootstrap and public
    /// addresses alias to one ring). Injected faults are mirrored here so
    /// a quarantined node's dump shows what it saw before it went dark.
    pub flight: FlightDirectory,
    /// The network fabric.
    pub net: SimNet,
    /// The DNS zone (service-provider controlled — i.e. untrusted).
    pub dns: DnsZone,
    /// AMD's root of trust.
    pub amd: Arc<AmdRootOfTrust>,
    /// The automated CA.
    pub acme: AcmeCa,
    /// A caching KDS client (share or clone as needed).
    pub kds: KdsHttpClient,
    /// Latency/cost calibration.
    pub tuning: WorldTuning,
    seed: u64,
    next_chip: u64,
    /// Last octet of the next node address; `None` once all 255 host
    /// numbers are taken.
    next_host: Option<u8>,
    /// Third octet of freshly allocated node addresses; fault domains
    /// target subnets by the `203.0.<subnet>.` prefix.
    subnet: u8,
}

impl Drop for SimWorld {
    /// Unbinds every listener, which frees the world's nodes: each node's
    /// routes own the node, and the node owns a handle on this fabric, so
    /// a bound node would keep the whole world alive.
    fn drop(&mut self) {
        self.net.unbind_all();
    }
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl SimWorld {
    /// Creates a world with paper-calibrated defaults.
    ///
    /// # Panics
    ///
    /// Panics only if internal setup fails (addresses are fresh).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_tuning(seed, WorldTuning::default())
    }

    /// Creates a world with custom latency calibration.
    ///
    /// # Panics
    ///
    /// Panics only if internal setup fails (addresses are fresh).
    #[must_use]
    pub fn with_tuning(seed: u64, tuning: WorldTuning) -> Self {
        let clock = SimClock::new();
        let telemetry = Telemetry::new(clock.clone());
        let net = SimNet::new(
            clock.clone(),
            NetConfig {
                default_one_way_us: tuning.link_one_way_us,
            },
        );
        let flight = FlightDirectory::new(clock.clone(), DEFAULT_FLIGHT_CAPACITY);
        // Mirror every injected fault into the world registry so chaos
        // runs can assert on (and diff) `revelio_net_faults_injected_total`
        // alongside the retry counters — and into the dialed node's flight
        // recorder, so a quarantine dump carries its own fault timeline.
        let fault_telemetry = telemetry.clone();
        let fault_flight = flight.clone();
        net.set_fault_observer(Arc::new(move |address: &str, kind| {
            fault_telemetry.counter_add("revelio_net_faults_injected_total", 1);
            fault_telemetry.counter_add(&format!("revelio_net_faults_{}_total", kind.as_str()), 1);
            fault_flight.record(address, "fault", kind.as_str());
        }));
        let dns = DnsZone::new();
        let mut amd_seed = [0u8; 32];
        amd_seed[..8].copy_from_slice(&seed.to_le_bytes());
        let amd = Arc::new(AmdRootOfTrust::from_seed(amd_seed));
        serve_kds_with_telemetry(
            &net,
            KDS_ADDRESS,
            KeyDistributionService::new(Arc::clone(&amd)).with_telemetry(telemetry.clone()),
            Some(telemetry.clone()),
        )
        .expect("fresh kds address");
        net.peer(KDS_ADDRESS).latency_us(tuning.kds_one_way_us);
        let mut ca_seed = amd_seed;
        ca_seed[8] ^= 0x5c;
        let acme = AcmeCa::new(
            "SimEncrypt",
            ca_seed,
            AcmePolicy::default(),
            clock.clone(),
            dns.clone(),
        )
        .with_telemetry(telemetry.clone())
        .with_retry_policy(tuning.retry.acme.clone());
        let kds = KdsHttpClient::new(net.clone(), KDS_ADDRESS)
            .with_telemetry(telemetry.clone())
            .with_retry_policy(tuning.retry.kds.clone());
        SimWorld {
            clock,
            telemetry,
            flight,
            net,
            dns,
            amd,
            acme,
            kds,
            tuning,
            seed,
            next_chip: 1,
            next_host: Some(1),
            subnet: 113,
        }
    }

    /// Manufactures a fresh platform (new chip) at the current TCB.
    pub fn new_platform(&mut self) -> SnpPlatform {
        let chip = ChipId::from_seed(self.seed.wrapping_mul(1000) + self.next_chip);
        self.next_chip += 1;
        SnpPlatform::new(Arc::clone(&self.amd), chip, TcbVersion::new(1, 0, 8, 115))
    }

    /// Allocates a public/bootstrap address pair for a new node in the
    /// current subnet (203.0.113. unless [`SimWorld::set_subnet`] moved
    /// it). Host numbers are unique world-wide, across subnets, so a
    /// world holds at most 255 nodes.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::AddressSpaceExhausted`] once every host
    /// number has been handed out.
    pub fn new_addresses(&mut self) -> Result<(String, String), RevelioError> {
        let host = self.next_host.ok_or(RevelioError::AddressSpaceExhausted)?;
        self.next_host = host.checked_add(1);
        let subnet = self.subnet;
        Ok((
            format!("203.0.{subnet}.{host}:443"),
            format!("203.0.{subnet}.{host}:8080"),
        ))
    }

    /// Moves subsequent address allocations to `203.0.<subnet>.` — the
    /// rack/availability-zone knob for correlated-failure scenarios.
    pub fn set_subnet(&mut self, subnet: u8) {
        self.subnet = subnet;
    }

    /// The address prefix shared by every node in `subnet`, as a fault
    /// domain's destination prefix.
    #[must_use]
    pub fn subnet_prefix(subnet: u8) -> String {
        format!("203.0.{subnet}.")
    }

    /// The default Revelio image spec for `domain` with the given
    /// application services baked in.
    #[must_use]
    pub fn image_spec(&self, name: &str, services: &[&str]) -> ImageSpec {
        let mut rootfs = FsTree::new();
        rootfs
            .add_file("/usr/sbin/nginx", vec![0x7f; 16_384], 0o755)
            .expect("static path");
        rootfs
            .add_file(
                "/etc/nginx/nginx.conf",
                format!("server {{ listen 443 ssl; server_name {name}; }}").into_bytes(),
                0o644,
            )
            .expect("static path");
        for service in services {
            rootfs
                .add_file(
                    &format!("/usr/bin/{service}"),
                    format!("bin:{service}").into_bytes(),
                    0o755,
                )
                .expect("static path");
        }
        let mut spec = ImageSpec::new(name, rootfs);
        spec.init.services = services.iter().map(|s| (*s).to_string()).collect();
        spec
    }

    /// Builds an image and computes its golden measurement (what an
    /// auditor reproduces from sources, §3.4.7).
    ///
    /// # Errors
    ///
    /// Propagates build failures.
    pub fn build(&self, spec: &ImageSpec) -> Result<(VmImage, Measurement), RevelioError> {
        let image = build_image(spec)?;
        let golden = expected_measurement(
            FirmwareKind::MeasuredDirectBoot,
            &image.kernel,
            &image.initrd,
            &image.cmdline,
        );
        Ok((image, golden))
    }

    /// Boots `image` on a fresh platform and deploys it as a Revelio node
    /// for `domain` with `app` as the application.
    ///
    /// # Errors
    ///
    /// Propagates boot and deployment failures.
    pub fn deploy_node(
        &mut self,
        domain: &str,
        image: &VmImage,
        app: Router,
        identity_seed: [u8; 32],
    ) -> Result<RevelioNode, RevelioError> {
        let (public_address, bootstrap_address) = self.new_addresses()?;
        let platform = self.new_platform();
        self.net
            .peer(&bootstrap_address)
            .latency_us(self.tuning.internal_one_way_us);
        let vm = Hypervisor::new(FirmwareKind::MeasuredDirectBoot).boot(
            &platform,
            image,
            GuestPolicy::default(),
            BootOptions {
                identity_seed,
                telemetry: Some(self.telemetry.clone()),
                ..BootOptions::default()
            },
        )?;
        // One forensic ring per node, reachable under both addresses: the
        // SP quarantines by bootstrap address, faults are injected by
        // whichever address was dialed.
        let recorder = self.flight.register(&bootstrap_address);
        self.flight.alias(&bootstrap_address, &public_address);
        RevelioNode::deploy_with_observability(
            self.net.clone(),
            self.kds.clone(),
            vm,
            NodeConfig {
                domain: domain.to_owned(),
                public_address,
                bootstrap_address,
                organization: "Example Org".to_owned(),
                country: "CH".to_owned(),
                page_processing_ms: self.tuning.page_processing_ms,
                trusted_ark: self.amd.ark_public_key(),
                trusted_tls_roots: vec![self.acme.root_certificate()],
                retry: self.tuning.retry.node.clone(),
            },
            app,
            Some(self.telemetry.clone()),
            Some(recorder),
        )
    }

    /// An SP node configured for `golden` and `allowlist`.
    #[must_use]
    pub fn sp_node(
        &self,
        golden: GoldenSet,
        allowlist: Vec<(ChipId, String)>,
    ) -> ServiceProviderNode {
        self.sp_node_for_domain("pad.example.org", golden, allowlist)
    }

    /// An SP node whose ACME orders are pinned to `domain`.
    #[must_use]
    pub fn sp_node_for_domain(
        &self,
        domain: &str,
        golden: GoldenSet,
        allowlist: Vec<(ChipId, String)>,
    ) -> ServiceProviderNode {
        ServiceProviderNode::new(
            self.net.clone(),
            self.kds.clone(),
            self.acme.clone(),
            SpConfig {
                trusted_ark: self.amd.ark_public_key(),
                expected_domain: domain.to_owned(),
                golden,
                allowlist,
                validation_ms: self.tuning.sp_validation_ms,
                ca_processing_ms: self.tuning.ca_processing_ms,
            },
        )
        .with_telemetry(self.telemetry.clone())
        .with_retry_policy(self.tuning.retry.sp.clone())
        .with_flight_directory(self.flight.clone())
    }

    /// Builds, boots, deploys and provisions an `n`-node fleet serving
    /// `domain` with `app` in the current subnet, pointing DNS at the
    /// provisioning leader.
    ///
    /// # Errors
    ///
    /// Propagates any build/boot/provisioning failure.
    pub fn deploy_fleet(
        &mut self,
        domain: &str,
        n: usize,
        app: Router,
    ) -> Result<DeployedFleet, RevelioError> {
        let subnet = self.subnet;
        self.deploy_fleet_in_subnets(domain, &[(subnet, n)], app)
    }

    /// Like [`SimWorld::deploy_fleet`], but spreads the fleet over
    /// addressing subnets: `groups` lists `(subnet, node count)` pairs
    /// deployed in order, so a correlated-failure domain (a partitioned
    /// rack) can target a contiguous slice of the fleet via
    /// [`SimWorld::subnet_prefix`]. DNS points at the provisioning
    /// leader — the first node that survived validation — not blindly at
    /// node 0, so a fleet whose leading subnet is dark still resolves to
    /// a certified node.
    ///
    /// # Errors
    ///
    /// Propagates any build/boot/provisioning failure.
    ///
    /// # Panics
    ///
    /// Panics when `groups` adds up to zero nodes.
    pub fn deploy_fleet_in_subnets(
        &mut self,
        domain: &str,
        groups: &[(u8, usize)],
        app: Router,
    ) -> Result<DeployedFleet, RevelioError> {
        let total: usize = groups.iter().map(|(_, count)| count).sum();
        let fleet_size = total.to_string();
        let _fleet_span = self.telemetry.span_with(
            "world.deploy_fleet",
            &[("domain", domain), ("nodes", &fleet_size)],
        );
        let spec = self.image_spec(domain, &["web-service"]);
        let mut nodes = Vec::with_capacity(total);
        let mut golden_measurement = None;
        let home_subnet = self.subnet;
        // Deploying a node is a burst of fabric mutations (binds, latency
        // shaping); a batch scope coalesces the whole fleet into one view
        // republish instead of one per mutation. Dials issued while the
        // batch is open (node boot traffic) take the locked path and see
        // every prior write, so behaviour is unchanged.
        let net = self.net.clone();
        let deployed = net.batch(|_| {
            for (subnet, count) in groups {
                self.subnet = *subnet;
                for _ in 0..*count {
                    // Identical spec ⇒ identical image ⇒ identical
                    // measurement; rebuilt per node so every VM gets its
                    // own disk.
                    let (image, golden) = self.build(&spec)?;
                    golden_measurement.get_or_insert(golden);
                    let i = nodes.len() as u64;
                    let identity_seed = fleet_identity_seed(self.seed, i);
                    nodes.push(self.deploy_node(domain, &image, app.clone(), identity_seed)?);
                }
            }
            Ok::<(), RevelioError>(())
        });
        self.subnet = home_subnet;
        deployed?;
        let golden_measurement = golden_measurement.expect("fleets have at least one node");

        let allowlist = nodes
            .iter()
            .map(|node| {
                (
                    node.vm().guest().chip_id(),
                    node.bootstrap_address().to_owned(),
                )
            })
            .collect();
        let sp = self.sp_node_for_domain(
            domain,
            GoldenSet::from_measurements([golden_measurement]),
            allowlist,
        );
        let bootstraps: Vec<String> = nodes
            .iter()
            .map(|n| n.bootstrap_address().to_owned())
            .collect();
        let provision = sp.provision(&bootstraps)?;

        let leader = nodes
            .iter()
            .find(|n| n.bootstrap_address() == provision.leader_bootstrap)
            .expect("the elected leader is one of the fleet's nodes");
        self.dns.set_address(domain, leader.public_address());
        Ok(DeployedFleet {
            nodes,
            golden_measurement,
            provision,
            domain: domain.to_owned(),
        })
    }

    /// Seeds the fabric's per-address fault PRNG streams. Equal seeds (and
    /// equal scenarios) give byte-identical runs; call before the faulted
    /// traffic starts.
    pub fn set_fault_seed(&self, seed: u64) {
        self.net.set_fault_seed(seed);
    }

    /// Applies `plan` to every future dial of `address` (the *dialed*
    /// address — redirects do not move a victim's plan to the attacker).
    pub fn set_fault_plan(&self, address: &str, plan: FaultPlan) {
        let _ = self.net.peer(address).fault_plan(plan);
    }

    /// Removes the fault plans for `address` (e.g. "the outage clears") —
    /// address-wide and per-route alike.
    pub fn clear_fault_plan(&self, address: &str) {
        let _ = self.net.peer(address).clear_fault_plan();
    }

    /// Installs (or replaces, by name) a correlated-failure domain on
    /// the fabric: a whole-subnet partition, an asymmetric link, or a
    /// lossy domain, optionally with a scheduled heal.
    pub fn install_fault_domain(&self, domain: FaultDomain) {
        self.net.install_fault_domain(domain);
    }

    /// Removes one fault domain by name ("the rack heals early").
    pub fn clear_fault_domain(&self, name: &str) {
        self.net.clear_fault_domain(name);
    }

    /// Removes every installed fault domain.
    pub fn clear_fault_domains(&self) {
        self.net.clear_fault_domains();
    }

    /// A web-extension instance for an end-user in this world.
    #[must_use]
    pub fn extension(&self) -> WebExtension {
        let mut entropy = [0u8; 32];
        entropy[..8].copy_from_slice(&self.seed.to_le_bytes());
        entropy[31] = 0xee;
        // A browser's VCEK cache is its own — it must not share warm
        // entries with the provider's infrastructure.
        WebExtension::new(
            self.net.clone(),
            self.dns.clone(),
            KdsHttpClient::new(self.net.clone(), KDS_ADDRESS)
                .with_telemetry(self.telemetry.clone()),
            ExtensionConfig {
                trusted_ark: self.amd.ark_public_key(),
                tls_roots: vec![self.acme.root_certificate()],
                validation_ms: self.tuning.extension_validation_ms,
                connection_validation_ms: self.tuning.extension_conn_validation_ms,
                reconnect: ReconnectPolicy::default(),
            },
            entropy,
            Some(self.telemetry.clone()),
        )
        .with_retry_policy(self.tuning.retry.extension.clone())
        .with_flight_recorder(self.flight.register("extension"))
    }

    /// The browser root-store certificate list.
    #[must_use]
    pub fn tls_roots(&self) -> Vec<Certificate> {
        vec![self.acme.root_certificate()]
    }

    /// An SP node configured exactly as the one that provisioned
    /// `fleet`: same domain, the fleet's golden measurement, and the
    /// chip↔bootstrap allowlist of its nodes. The reconciler starts
    /// from here.
    #[must_use]
    pub fn fleet_sp(&self, fleet: &DeployedFleet) -> ServiceProviderNode {
        let allowlist = fleet
            .nodes
            .iter()
            .map(|node| {
                (
                    node.vm().guest().chip_id(),
                    node.bootstrap_address().to_owned(),
                )
            })
            .collect();
        self.sp_node_for_domain(
            &fleet.domain,
            GoldenSet::from_measurements([fleet.golden_measurement]),
            allowlist,
        )
    }

    /// A [`FleetUpgrader`] over `fleet`: the reconciler's actuator,
    /// able to tear any fleet slot down and redeploy it — same chip,
    /// same addresses, same identity seed — from `target` (the
    /// operator's current build of the next image).
    #[must_use]
    pub fn fleet_upgrader(
        &self,
        fleet: &DeployedFleet,
        app: Router,
        target: ImageSpec,
    ) -> FleetUpgrader {
        let slots = fleet
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                (
                    node.bootstrap_address().to_owned(),
                    UpgradeSlot {
                        public: node.public_address().to_owned(),
                        chip: node.vm().guest().chip_id(),
                        identity_seed: fleet_identity_seed(self.seed, i as u64),
                    },
                )
            })
            .collect();
        FleetUpgrader {
            net: self.net.clone(),
            kds: self.kds.clone(),
            amd: Arc::clone(&self.amd),
            telemetry: self.telemetry.clone(),
            flight: self.flight.clone(),
            tls_roots: self.tls_roots(),
            domain: fleet.domain.clone(),
            app,
            page_processing_ms: self.tuning.page_processing_ms,
            node_retry: self.tuning.retry.node.clone(),
            target,
            drift: BTreeMap::new(),
            slots,
            deployed: BTreeMap::new(),
        }
    }

    /// A fully wired [`Reconciler`] over `fleet`: the fleet's SP as
    /// observer, `upgrader` as actuator, the world's telemetry and DNS
    /// attached.
    #[must_use]
    pub fn reconciler(
        &self,
        fleet: &DeployedFleet,
        spec: FleetSpec,
        upgrader: FleetUpgrader,
    ) -> Reconciler<FleetUpgrader> {
        let bootstraps: Vec<String> = fleet
            .nodes
            .iter()
            .map(|n| n.bootstrap_address().to_owned())
            .collect();
        let public_addresses: BTreeMap<String, String> = fleet
            .nodes
            .iter()
            .map(|n| {
                (
                    n.bootstrap_address().to_owned(),
                    n.public_address().to_owned(),
                )
            })
            .collect();
        Reconciler::new(
            self.fleet_sp(fleet),
            self.net.clone(),
            spec,
            upgrader,
            bootstraps,
            &fleet.provision,
            fleet.golden_measurement,
        )
        .with_telemetry(self.telemetry.clone())
        .with_dns(self.dns.clone(), public_addresses)
    }
}

struct UpgradeSlot {
    public: String,
    chip: ChipId,
    identity_seed: [u8; 32],
}

/// The reconciler's actuator over a deployed fleet: redeploys a node in
/// place — same chip, same public/bootstrap addresses, same identity
/// seed — booted from the current build of the target image spec. The
/// measured launch of the redeployed node is whatever that build
/// *actually* produces; [`FleetUpgrader::inject_drift`] models a
/// compromised or broken build pipeline emitting a different image for
/// one slot, which the reconciler's attestation wave must catch.
pub struct FleetUpgrader {
    net: SimNet,
    kds: KdsHttpClient,
    amd: Arc<AmdRootOfTrust>,
    telemetry: Telemetry,
    flight: FlightDirectory,
    tls_roots: Vec<Certificate>,
    domain: String,
    app: Router,
    page_processing_ms: f64,
    node_retry: RetryPolicy,
    target: ImageSpec,
    drift: BTreeMap<String, ImageSpec>,
    slots: BTreeMap<String, UpgradeSlot>,
    deployed: BTreeMap<String, RevelioNode>,
}

impl std::fmt::Debug for FleetUpgrader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetUpgrader")
            .field("domain", &self.domain)
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl FleetUpgrader {
    /// Makes the build pipeline emit `spec` instead of the target when
    /// upgrading `bootstrap` — seeded measurement drift.
    pub fn inject_drift(&mut self, bootstrap: &str, spec: ImageSpec) {
        self.drift.insert(bootstrap.to_owned(), spec);
    }

    /// Heals the build pipeline for `bootstrap` (drift fixed upstream).
    pub fn clear_drift(&mut self, bootstrap: &str) {
        self.drift.remove(bootstrap);
    }

    /// The node handle most recently deployed for `bootstrap` by an
    /// upgrade (the original [`DeployedFleet`] handle goes stale once
    /// its slot is redeployed).
    #[must_use]
    pub fn node(&self, bootstrap: &str) -> Option<&RevelioNode> {
        self.deployed.get(bootstrap)
    }
}

impl NodeActuator for FleetUpgrader {
    fn upgrade(&mut self, bootstrap: &str) -> Result<(), RevelioError> {
        let slot = self.slots.get(bootstrap).ok_or_else(|| {
            RevelioError::Internal(format!("upgrade target {bootstrap} is not a fleet slot"))
        })?;
        let spec = self.drift.get(bootstrap).unwrap_or(&self.target);
        let image = build_image(spec)?;
        // Release both surfaces before the redeploy: the bootstrap port
        // rebinds below, the public port only once a certificate is
        // (re-)installed.
        self.net.unbind(bootstrap);
        self.net.unbind(&slot.public);
        let platform = SnpPlatform::new(
            Arc::clone(&self.amd),
            slot.chip,
            TcbVersion::new(1, 0, 8, 115),
        );
        let vm = Hypervisor::new(FirmwareKind::MeasuredDirectBoot).boot(
            &platform,
            &image,
            GuestPolicy::default(),
            BootOptions {
                identity_seed: slot.identity_seed,
                telemetry: Some(self.telemetry.clone()),
                ..BootOptions::default()
            },
        )?;
        let recorder = self.flight.register(bootstrap);
        recorder.record("request", "upgraded: redeployed from current target build");
        let node = RevelioNode::deploy_with_observability(
            self.net.clone(),
            self.kds.clone(),
            vm,
            NodeConfig {
                domain: self.domain.clone(),
                public_address: slot.public.clone(),
                bootstrap_address: bootstrap.to_owned(),
                organization: "Example Org".to_owned(),
                country: "CH".to_owned(),
                page_processing_ms: self.page_processing_ms,
                trusted_ark: self.amd.ark_public_key(),
                trusted_tls_roots: self.tls_roots.clone(),
                retry: self.node_retry.clone(),
            },
            self.app.clone(),
            Some(self.telemetry.clone()),
            Some(recorder),
        )?;
        self.deployed.insert(bootstrap.to_owned(), node);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::demo_app;
    use crate::RevelioError;

    #[test]
    fn fleet_nodes_share_one_tls_identity() {
        let mut world = SimWorld::new(1);
        let fleet = world
            .deploy_fleet("pad.example.org", 3, demo_app())
            .unwrap();
        let leader_key = fleet.nodes[0].tls_public_key().unwrap();
        for node in &fleet.nodes {
            assert!(node.is_serving());
            assert_eq!(node.tls_public_key(), Some(leader_key));
            assert_eq!(node.measurement(), fleet.golden_measurement);
        }
        // Identities remain distinct; only the TLS key is shared.
        assert_ne!(
            fleet.nodes[1].identity_public_key(),
            fleet.nodes[2].identity_public_key()
        );
        assert_eq!(leader_key, fleet.nodes[0].identity_public_key());
    }

    #[test]
    fn every_node_serves_https_with_the_shared_cert() {
        let mut world = SimWorld::new(2);
        let fleet = world
            .deploy_fleet("pad.example.org", 3, demo_app())
            .unwrap();
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
        for node in &fleet.nodes {
            // Point DNS at each node in turn; all must attest and serve.
            world
                .dns
                .set_address("pad.example.org", node.public_address());
            let outcome = extension.browse("pad.example.org", "/healthz").unwrap();
            assert_eq!(outcome.response.body, b"ok");
        }
    }

    #[test]
    fn table2_timings_have_paper_shape() {
        let mut world = SimWorld::new(3);
        let fleet = world
            .deploy_fleet("pad.example.org", 4, demo_app())
            .unwrap();
        let t = fleet.provision.timings;
        // Generation dominates everything else by orders of magnitude.
        assert!(t.certificate_generation_ms > 2_000.0, "{t:?}");
        assert!(
            t.certificate_generation_ms > 50.0 * t.evidence_retrieval_ms,
            "{t:?}"
        );
        assert!(
            t.evidence_retrieval_ms > t.certificate_distribution_ms * 0.5,
            "{t:?}"
        );
        assert!(t.evidence_validation_ms > 0.0);
    }

    #[test]
    fn table3_attestation_dominated_by_kds_then_cached() {
        let mut world = SimWorld::new(4);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);

        let cold = extension.browse("pad.example.org", "/").unwrap();
        assert!(cold.timing.kds_ms > 400.0, "{:?}", cold.timing);
        assert!(cold.timing.total_ms > 700.0, "{:?}", cold.timing);

        // Second visit: warm VCEK cache.
        let warm = extension.browse("pad.example.org", "/").unwrap();
        assert_eq!(warm.timing.kds_ms, 0.0);
        assert!(warm.timing.total_ms < cold.timing.total_ms - 400.0);
    }

    #[test]
    fn unknown_measurement_rejected() {
        let mut world = SimWorld::new(5);
        let _fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        // User registered the site with the WRONG golden value.
        extension.register_site(
            "pad.example.org",
            vec![Measurement::of_launch_context(b"some other image")],
        );
        assert!(matches!(
            extension.browse("pad.example.org", "/"),
            Err(RevelioError::UnknownMeasurement(_))
        ));
    }

    #[test]
    fn revoked_measurement_rejected_rollback_protection() {
        let mut world = SimWorld::new(6);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
        extension.browse("pad.example.org", "/").unwrap();
        // The image is found vulnerable; the registry revokes it.
        extension.revoke_measurement("pad.example.org", fleet.golden_measurement);
        assert!(matches!(
            extension.browse("pad.example.org", "/"),
            Err(RevelioError::UnknownMeasurement(_))
        ));
    }

    #[test]
    fn address_space_exhaustion_is_a_typed_error() {
        let mut world = SimWorld::new(6);
        let mut hosts = std::collections::BTreeSet::new();
        for i in 0..300 {
            // Moving subnets must not recycle host numbers.
            world.set_subnet(if i < 150 { 113 } else { 114 });
            match world.new_addresses() {
                Ok((public, _)) if i < 255 => {
                    let host = public.rsplit('.').next().unwrap().to_owned();
                    assert!(hosts.insert(host), "host reused at allocation {i}");
                }
                result => assert_eq!(
                    result.err(),
                    (i >= 255).then_some(RevelioError::AddressSpaceExhausted),
                    "allocation {i}"
                ),
            }
        }
        assert_eq!(hosts.len(), 255);
        // Deploying on a full world fails with the same error, not a panic
        // and not a clash with an address already bound.
        let spec = world.image_spec("pad.example.org", &["web-service"]);
        let (image, _) = world.build(&spec).unwrap();
        assert_eq!(
            world
                .deploy_node("pad.example.org", &image, demo_app(), [1; 32])
                .err(),
            Some(RevelioError::AddressSpaceExhausted)
        );
    }

    #[test]
    fn impostor_node_rejected_by_sp() {
        let mut world = SimWorld::new(7);
        let spec = world.image_spec("pad.example.org", &["web-service"]);
        let (image, golden) = world.build(&spec).unwrap();
        let node = world
            .deploy_node("pad.example.org", &image, demo_app(), [1; 32])
            .unwrap();
        // SP's allowlist names a DIFFERENT chip for this address.
        let sp = world.sp_node(
            GoldenSet::from_measurements([golden]),
            vec![(
                ChipId::from_seed(424_242),
                node.bootstrap_address().to_owned(),
            )],
        );
        let err = sp
            .provision(&[node.bootstrap_address().to_owned()])
            .unwrap_err();
        assert!(matches!(err, RevelioError::NodeRejected { .. }), "{err}");
        assert!(err.to_string().contains("allowlist"));
    }

    #[test]
    fn tampered_image_rejected_by_sp() {
        let mut world = SimWorld::new(8);
        let spec = world.image_spec("pad.example.org", &["web-service"]);
        let (_, golden) = world.build(&spec).unwrap();
        // Service provider sneaks a backdoor into the deployed image.
        let mut evil_spec = world.image_spec("pad.example.org", &["web-service", "backdoor"]);
        evil_spec.name = "evil".into();
        let (evil_image, _) = world.build(&evil_spec).unwrap();
        let node = world
            .deploy_node("pad.example.org", &evil_image, demo_app(), [1; 32])
            .unwrap();
        let sp = world.sp_node(
            GoldenSet::from_measurements([golden]),
            vec![(
                node.vm().guest().chip_id(),
                node.bootstrap_address().to_owned(),
            )],
        );
        let err = sp
            .provision(&[node.bootstrap_address().to_owned()])
            .unwrap_err();
        assert!(err.to_string().contains("not golden"), "{err}");
    }

    #[test]
    fn redirect_attack_caught_on_reconnect() {
        let mut world = SimWorld::new(9);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
        let mut session = extension.open_monitored("pad.example.org").unwrap();
        session.request("/").unwrap();

        // The malicious provider stands up a NON-confidential clone with a
        // fresh, CA-valid certificate (they control DNS) and redirects.
        let attacker_key = revelio_crypto::ed25519::SigningKey::from_seed(&[66; 32]);
        let csr = revelio_pki::cert::CertificateSigningRequest::new(
            "pad.example.org",
            &attacker_key,
            "Evil Org",
            "XX",
        );
        let chain = world.acme.order_certificate(&csr).unwrap();
        revelio_http::server::serve_https(
            &world.net,
            "10.66.6.6:443",
            revelio_tls::TlsServerConfig::new(chain, attacker_key, [6; 32]),
            demo_app(),
        )
        .unwrap();
        world
            .net
            .peer(fleet.nodes[0].public_address())
            .redirect_to("10.66.6.6:443");

        // The browser alone would accept the new valid certificate; the
        // extension's reconnect pinning refuses.
        assert_eq!(
            extension.reconnect(&mut session).unwrap_err(),
            RevelioError::TlsBindingMismatch
        );
    }

    #[test]
    fn non_revelio_site_discovery_and_browse() {
        let world = SimWorld::new(10);
        // A plain HTTPS site without Revelio.
        let key = revelio_crypto::ed25519::SigningKey::from_seed(&[5; 32]);
        let csr = revelio_pki::cert::CertificateSigningRequest::new(
            "plain.example.org",
            &key,
            "Org",
            "CH",
        );
        let chain = world.acme.order_certificate(&csr).unwrap();
        revelio_http::server::serve_https(
            &world.net,
            "10.0.9.9:443",
            revelio_tls::TlsServerConfig::new(chain, key, [1; 32]),
            demo_app(),
        )
        .unwrap();
        world.dns.set_address("plain.example.org", "10.0.9.9:443");

        let extension = world.extension();
        assert_eq!(extension.discover("plain.example.org").unwrap(), None);
        // Browsing it attested fails; unprotected works.
        let ext2 = world.extension();
        ext2.register_site("plain.example.org", vec![]);
        assert!(matches!(
            ext2.browse("plain.example.org", "/"),
            Err(RevelioError::NotRevelioSite(_))
        ));
        assert!(extension
            .browse_unprotected("plain.example.org", "/")
            .unwrap()
            .is_success());
    }

    #[test]
    fn discovery_finds_revelio_sites() {
        let mut world = SimWorld::new(11);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        assert_eq!(
            extension.discover("pad.example.org").unwrap(),
            Some(fleet.golden_measurement)
        );
    }

    #[test]
    fn ssh_port_refuses_connections() {
        let mut world = SimWorld::new(12);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let ssh_addr = fleet.nodes[0].public_address().replace(":443", ":22");
        assert!(matches!(
            world.net.dial(&ssh_addr),
            Err(revelio_net::NetError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn monitored_requests_add_connection_validation_cost() {
        let mut world = SimWorld::new(13);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
        let mut session = extension.open_monitored("pad.example.org").unwrap();
        let (_, monitored_ms) = world.clock.time_ms(|| session.request("/").unwrap());
        let plain_ms = {
            let mut s = extension.open_monitored("pad.example.org").unwrap();
            // Strip monitoring by measuring an unmonitored request path.
            let t0 = world.clock.now_ms();
            let _ = s.request("/").unwrap();
            world.clock.now_ms() - t0
        };
        // Both include the validation cost; check the absolute shape
        // instead: a monitored request costs base + ~14 ms.
        assert!(monitored_ms > world.tuning.page_processing_ms);
        assert!((monitored_ms - plain_ms).abs() < 1.0);
    }

    #[test]
    fn ratls_browse_attests_in_the_handshake() {
        let mut world = SimWorld::new(14);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);

        let via_fetch = extension.browse("pad.example.org", "/").unwrap();
        let via_ratls = extension.browse_ratls("pad.example.org", "/").unwrap();
        assert!(via_ratls.response.is_success());
        assert_eq!(via_ratls.evidence, via_fetch.evidence);
        // RA-TLS saves the separate evidence round trip; compare against a
        // warm-cache well-known fetch so both runs skip the KDS.
        let via_fetch_warm = extension.browse("pad.example.org", "/").unwrap();
        assert!(
            via_ratls.timing.total_ms < via_fetch_warm.timing.total_ms,
            "ratls {:?} vs fetch {:?}",
            via_ratls.timing,
            via_fetch_warm.timing
        );
    }

    #[test]
    fn ratls_rejects_wrong_measurement_and_plain_sites() {
        let mut world = SimWorld::new(15);
        let _fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        extension.register_site(
            "pad.example.org",
            vec![Measurement::of_launch_context(b"other image")],
        );
        assert!(matches!(
            extension.browse_ratls("pad.example.org", "/"),
            Err(RevelioError::UnknownMeasurement(_))
        ));

        // A plain HTTPS site sends no handshake evidence.
        let key = revelio_crypto::ed25519::SigningKey::from_seed(&[5; 32]);
        let csr = revelio_pki::cert::CertificateSigningRequest::new(
            "plain.example.org",
            &key,
            "Org",
            "CH",
        );
        let chain = world.acme.order_certificate(&csr).unwrap();
        revelio_http::server::serve_https(
            &world.net,
            "10.0.8.8:443",
            revelio_tls::TlsServerConfig::new(chain, key, [1; 32]),
            demo_app(),
        )
        .unwrap();
        world.dns.set_address("plain.example.org", "10.0.8.8:443");
        let ext2 = world.extension();
        ext2.register_site("plain.example.org", vec![]);
        assert!(matches!(
            ext2.browse_ratls("plain.example.org", "/"),
            Err(RevelioError::NotRevelioSite(_))
        ));
    }

    #[test]
    fn handshake_interference_fails_closed_for_ratls() {
        // A middlebox that rewrites handshake flights (e.g. to strip the
        // evidence) breaks the signed transcript: no session forms.
        let mut world = SimWorld::new(16);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let victim = fleet.nodes[0].public_address().to_owned();
        world
            .net
            .peer(&victim)
            .tamper(std::sync::Arc::new(|message: &[u8]| {
                let mut v = message.to_vec();
                if let Some(b) = v.last_mut() {
                    *b ^= 1;
                }
                v
            }));
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
        assert!(extension.browse_ratls("pad.example.org", "/").is_err());
    }
}
