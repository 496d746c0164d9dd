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
use revelio_http::HttpError;
use revelio_net::clock::SimClock;
use revelio_net::dns::DnsZone;
use revelio_net::net::{NetConfig, SimNet};
use revelio_net::NetError;
use revelio_pki::acme::{AcmeCa, AcmePolicy};
use revelio_pki::cert::Certificate;
use revelio_telemetry::{FlightDirectory, Telemetry, DEFAULT_FLIGHT_CAPACITY};
use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
use sev_snp::kds::KeyDistributionService;
use sev_snp::measurement::Measurement;
use sev_snp::platform::{AmdRootOfTrust, SnpPlatform};

use crate::appraisal::PinnedArk;
use crate::extension::{ExtensionConfig, WebExtension};
use crate::kds_http::{serve_kds, KdsHttpClient, KDS_ADDRESS};
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

// Paper-calibrated latency constants (§6.4, Table 2/3).

/// One-way link latency, µs (Table 3 base RTT 5.2 ms).
pub const LINK_ONE_WAY_US: u64 = 2_600;
/// One-way latency to the KDS, µs (Table 3: 427.3 ms round trip).
const KDS_ONE_WAY_US: u64 = 213_650;
/// Provider-internal one-way latency to node bootstrap ports, µs
/// (Table 2: 17 ms retrieval round trip).
const INTERNAL_ONE_WAY_US: u64 = 8_500;
/// Modelled app work per page request, ms (Table 3: plain GET
/// 100.9 ms − 2 RTTs).
const PAGE_PROCESSING_MS: f64 = 90.5;
/// SP-side validation cost per node, ms (Table 2: 13 ms).
const SP_VALIDATION_MS: f64 = 13.0;
/// CA processing on certificate orders, ms (Table 2: 2996 ms total).
const CA_PROCESSING_MS: f64 = 2_950.0;
/// In-extension validation cost, ms (fitted to Table 3's row 3).
const EXTENSION_VALIDATION_MS: f64 = 230.0;
/// Per-request connection validation, ms (Table 3: 115.0 − 100.9).
const EXTENSION_CONN_VALIDATION_MS: f64 = 14.1;

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
    pub(crate) domain: String,
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
    pub(crate) flight: FlightDirectory,
    /// The network fabric.
    pub net: SimNet,
    /// The DNS zone (service-provider controlled — i.e. untrusted).
    pub dns: DnsZone,
    /// AMD's root of trust.
    pub amd: Arc<AmdRootOfTrust>,
    /// AMD's root key, expanded once: every component's config gets a
    /// clone.
    ark: PinnedArk,
    /// The automated CA.
    pub acme: AcmeCa,
    /// A caching KDS client (share or clone as needed).
    pub kds: KdsHttpClient,
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
    /// Creates a world with paper-calibrated latencies.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let clock = SimClock::new();
        let telemetry = Telemetry::new(clock.clone());
        let net = SimNet::new(
            clock.clone(),
            NetConfig {
                default_one_way_us: LINK_ONE_WAY_US,
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
        // Binding fails only on a taken address, and this fabric is fresh.
        // Any other failure is counted, and every VCEK fetch then fails
        // naming the unserved address.
        match serve_kds(
            &net,
            KDS_ADDRESS,
            KeyDistributionService::new(Arc::clone(&amd)).with_telemetry(telemetry.clone()),
            telemetry.clone(),
        ) {
            Ok(()) | Err(RevelioError::Http(HttpError::Net(NetError::AddressInUse(_)))) => {}
            Err(_) => telemetry.counter_add("revelio_world_setup_failures_total", 1),
        }
        net.peer(KDS_ADDRESS).latency_us(KDS_ONE_WAY_US);
        let mut ca_seed = amd_seed;
        ca_seed[8] ^= 0x5c;
        let acme = AcmeCa::new(
            "SimEncrypt",
            ca_seed,
            AcmePolicy::default(),
            clock.clone(),
            dns.clone(),
        )
        .with_telemetry(telemetry.clone());
        let kds = KdsHttpClient::new(net.clone(), KDS_ADDRESS).with_telemetry(telemetry.clone());
        SimWorld {
            clock,
            telemetry,
            flight,
            net,
            dns,
            ark: PinnedArk::new(amd.ark_public_key()),
            amd,
            acme,
            kds,
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
    /// current subnet (203.0.113., or the subnet
    /// [`SimWorld::deploy_fleet_in_subnets`] is deploying into). Host
    /// numbers are unique world-wide, across subnets, so a world holds at
    /// most 255 nodes.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::AddressSpaceExhausted`] once every host
    /// number has been handed out.
    pub(crate) fn new_addresses(&mut self) -> Result<(String, String), RevelioError> {
        let host = self.next_host.ok_or(RevelioError::AddressSpaceExhausted)?;
        self.next_host = host.checked_add(1);
        let subnet = self.subnet;
        Ok((
            format!("203.0.{subnet}.{host}:443"),
            format!("203.0.{subnet}.{host}:8080"),
        ))
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
        // Fixed, valid paths: the tree accepts both.
        let _ = rootfs.add_file("/usr/sbin/nginx", vec![0x7f; 16_384], 0o755);
        let _ = rootfs.add_file(
            "/etc/nginx/nginx.conf",
            format!("server {{ listen 443 ssl; server_name {name}; }}").into_bytes(),
            0o644,
        );
        let mut started = Vec::new();
        for service in services {
            // Init starts a service only if the tree took its binary (a
            // name such as `..` or `` makes no valid path).
            let binary = format!("bin:{service}").into_bytes();
            if rootfs
                .add_file(&format!("/usr/bin/{service}"), binary, 0o755)
                .is_ok()
            {
                started.push((*service).to_string());
            }
        }
        let mut spec = ImageSpec::new(name, rootfs);
        spec.init.services = started;
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
            .latency_us(INTERNAL_ONE_WAY_US);
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
        RevelioNode::deploy(
            self.net.clone(),
            self.kds.clone(),
            vm,
            NodeConfig {
                public_address,
                bootstrap_address,
                ..self.node_config(domain)
            },
            app,
            self.telemetry.clone(),
            recorder,
        )
    }

    /// The config of a node serving `domain`, addresses left empty.
    fn node_config(&self, domain: &str) -> NodeConfig {
        NodeConfig {
            domain: domain.to_owned(),
            public_address: String::new(),
            bootstrap_address: String::new(),
            organization: "Example Org".to_owned(),
            country: "CH".to_owned(),
            page_processing_ms: PAGE_PROCESSING_MS,
            trusted_ark: self.ark.clone(),
            trusted_tls_roots: self.tls_roots(),
        }
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
                trusted_ark: self.ark.clone(),
                expected_domain: domain.to_owned(),
                golden,
                allowlist,
                validation_ms: SP_VALIDATION_MS,
                ca_processing_ms: CA_PROCESSING_MS,
            },
        )
        .with_telemetry(self.telemetry.clone())
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
    /// Propagates any build/boot/provisioning failure, and returns
    /// [`RevelioError::EmptyFleet`] when `groups` adds up to zero nodes.
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
        // publish instead of one per mutation. Dials issued while the
        // batch is open (node boot traffic) read the batch's pending view
        // and see every prior write, so behaviour is unchanged.
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
        let golden_measurement = golden_measurement.ok_or(RevelioError::EmptyFleet)?;

        let sp = self.sp_for_nodes(domain, &nodes, golden_measurement);
        let bootstraps: Vec<String> = nodes
            .iter()
            .map(|n| n.bootstrap_address().to_owned())
            .collect();
        let provision = sp.provision(&bootstraps)?;

        let leader = nodes
            .iter()
            .find(|n| n.bootstrap_address() == provision.leader_bootstrap)
            .ok_or_else(|| {
                RevelioError::Internal("the elected leader is not one of the fleet's nodes".into())
            })?;
        self.dns.set_address(domain, leader.public_address());
        Ok(DeployedFleet {
            nodes,
            golden_measurement,
            provision,
            domain: domain.to_owned(),
        })
    }

    /// A web-extension instance for an end-user in this world. Its flight
    /// ring is its own: a shared ring would mix browser profiles'
    /// histories, and a directory entry per extension would never be
    /// freed.
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
                trusted_ark: self.ark.clone(),
                tls_roots: vec![self.acme.root_certificate()],
                validation_ms: EXTENSION_VALIDATION_MS,
                connection_validation_ms: EXTENSION_CONN_VALIDATION_MS,
            },
            entropy,
        )
        .with_telemetry(self.telemetry.clone())
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
        self.sp_for_nodes(&fleet.domain, &fleet.nodes, fleet.golden_measurement)
    }

    /// An SP node for `domain` that accepts `golden` on exactly `nodes`'
    /// chip↔bootstrap pairs.
    fn sp_for_nodes(
        &self,
        domain: &str,
        nodes: &[RevelioNode],
        golden: Measurement,
    ) -> ServiceProviderNode {
        let allowlist = nodes
            .iter()
            .map(|node| {
                (
                    node.vm().guest().chip_id(),
                    node.bootstrap_address().to_owned(),
                )
            })
            .collect();
        self.sp_node_for_domain(domain, GoldenSet::from_measurements([golden]), allowlist)
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
            node_config: self.node_config(&fleet.domain),
            app,
            target,
            drift: BTreeMap::new(),
            slots,
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
    /// Every redeployed node's config, addresses aside.
    node_config: NodeConfig,
    app: Router,
    target: ImageSpec,
    drift: BTreeMap<String, ImageSpec>,
    slots: BTreeMap<String, UpgradeSlot>,
}

impl std::fmt::Debug for FleetUpgrader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetUpgrader")
            .field("domain", &self.node_config.domain)
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
        // The node's routes own it: the fabric keeps it serving.
        RevelioNode::deploy(
            self.net.clone(),
            self.kds.clone(),
            vm,
            NodeConfig {
                public_address: slot.public.clone(),
                bootstrap_address: bootstrap.to_owned(),
                ..self.node_config.clone()
            },
            self.app.clone(),
            self.telemetry.clone(),
            recorder,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appraisal::DecidingCheck;
    use crate::node::demo_app;
    use crate::RevelioError;
    use revelio_crypto::ed25519::SigningKey;
    use revelio_http::client::HttpsClient;
    use revelio_http::message::Request;
    use revelio_tls::TlsClientConfig;

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
            assert_eq!(node.vm().measurement(), fleet.golden_measurement);
        }
        // Identities remain distinct; only the TLS key is shared.
        let identity = |i: usize| {
            fleet.nodes[i]
                .vm()
                .identity()
                .map(SigningKey::verifying_key)
        };
        assert_ne!(identity(1), identity(2));
        assert_eq!(Some(leader_key), identity(0));
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
            world.subnet = if i < 150 { 113 } else { 114 };
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
        let sp = world.sp_node_for_domain(
            "pad.example.org",
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
        assert_eq!(err.deciding_check(), Some(DecidingCheck::ChipAllowlist));
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
        let sp = world.sp_node_for_domain(
            "pad.example.org",
            GoldenSet::from_measurements([golden]),
            vec![(
                node.vm().guest().chip_id(),
                node.bootstrap_address().to_owned(),
            )],
        );
        let err = sp
            .provision(&[node.bootstrap_address().to_owned()])
            .unwrap_err();
        assert_eq!(
            err.deciding_check(),
            Some(DecidingCheck::Measurement),
            "{err}"
        );
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
        // An unmonitored HTTPS session to the same node: no extension, so
        // no per-request connection validation.
        let client = HttpsClient::new(
            world.net.clone(),
            world.dns.clone(),
            TlsClientConfig {
                trusted_roots: world.tls_roots(),
                clock: world.clock.clone(),
                telemetry: None,
            },
            [0x5a; 32],
        );
        let mut plain = client.open("pad.example.org").unwrap();
        let (_, plain_ms) = world
            .clock
            .time_ms(|| plain.send(&Request::get("/")).unwrap());
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
        let mut monitored = extension.open_monitored("pad.example.org").unwrap();
        let (_, monitored_ms) = world.clock.time_ms(|| monitored.request("/").unwrap());
        assert!(plain_ms > PAGE_PROCESSING_MS);
        assert!(
            (monitored_ms - plain_ms - EXTENSION_CONN_VALIDATION_MS).abs() < 0.01,
            "monitored {monitored_ms} ms, plain {plain_ms} ms"
        );
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
