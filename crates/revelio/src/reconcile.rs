//! Desired-state reconciliation for a Revelio fleet — the control plane.
//!
//! Provisioning (`sp`) is imperative: one shot, one fleet, one
//! certificate. Operating a fleet is not — certificates age toward
//! `not_after_ms`, partitioned racks heal and their nodes want back in,
//! and the operator ships a new image that has to roll out without ever
//! serving an unattested byte. The [`Reconciler`] owns a declared
//! [`FleetSpec`] and drives the observed fleet toward it on the sim
//! clock: each [`Reconciler::tick`] diffs observation against spec and
//! schedules a **bounded** amount of work —
//!
//! * **re-admission**: quarantined nodes whose partitions healed are
//!   re-attested ([`ServiceProviderNode::observe_node`]), re-issued the
//!   fleet certificate and rejoin the serving roster;
//! * **renewal**: the shared certificate is re-ordered ahead of its
//!   `not_after_ms` (inside [`FleetSpec::renewal_lead_ms`]) under the
//!   CA's usual rate-limit and retry machinery — an expired certificate
//!   is an outage the paper's verifier cannot distinguish from attack;
//! * **rolling upgrade**: a canary-first attestation wave moves the
//!   fleet to [`FleetSpec::target_measurement`]. Canaries are upgraded
//!   and *attestation-verified* while the rest of the fleet keeps
//!   serving the old image; any canary whose measured launch differs
//!   from the target (a diverging build pipeline, a tampered image)
//!   **halts** the rollout and names the diverging node set. Only a
//!   fully verified fleet is re-provisioned onto the new golden value.
//!
//! Every decision is a pure function of observed state, the spec and the
//! deterministic sim — the reconciler keeps an append-only transcript of
//! its transitions whose digest is byte-identical across thread counts
//! (the determinism suites pin this).
//!
//! Mutual attestation shapes the rollout: nodes only exchange the fleet
//! TLS key with peers measuring *identically* (`node::validate_peer_report`),
//! so an upgraded node cannot fetch the key from an old-image leader.
//! Canaries therefore stay dark (verified but not serving) until the
//! whole fleet measures the target, and the final step is a full
//! re-provision that re-establishes certificate and key distribution
//! among now-identical peers.

use std::collections::{BTreeMap, BTreeSet};

use revelio_crypto::sha2::Sha256;
use revelio_net::dns::DnsZone;
use revelio_net::net::SimNet;
use revelio_net::DomainEffect;
use revelio_pki::cert::CertificateChain;
use revelio_telemetry::Telemetry;
use sev_snp::measurement::Measurement;

use crate::registry::GoldenSet;
use crate::sp::{ProvisionReport, ServiceProviderNode};
use crate::RevelioError;

/// The fleet's declared desired state — what the operator wants true,
/// independent of what currently is.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The service domain (DNS is re-pointed at the leader on topology
    /// changes when the reconciler holds the zone).
    pub domain: String,
    /// The launch measurement every node should be running.
    pub target_measurement: Measurement,
    /// Minimum acceptable platform TCB, in the on-report packed `u64`
    /// form ([`sev_snp::ids::TcbVersion::to_u64`]). Nodes observed below
    /// the floor are out of spec.
    pub tcb_floor: u64,
    /// Renew the shared certificate once it enters its final
    /// `renewal_lead_ms` of validity.
    pub renewal_lead_ms: u64,
    /// Fraction of the fleet upgraded (and attestation-verified) as
    /// canaries before the wave. The serving leader is never a canary —
    /// the site must keep serving the old image until the wave commits.
    pub canary_fraction: f64,
    /// Virtual time that passes per [`Reconciler::tick`], ms.
    pub tick_interval_ms: u64,
    /// Upper bound on upgrade actuations per tick — the "bounded work"
    /// knob that keeps one tick from redeploying the whole fleet.
    pub wave_batch: usize,
}

impl FleetSpec {
    /// A spec with operational defaults: no TCB floor, a 7-day renewal
    /// lead (Let's Encrypt's recommended window relative to the sim CA's
    /// 90-day lifetime), 25% canaries, hourly ticks, two upgrades per
    /// tick.
    #[must_use]
    pub fn new(domain: &str, target_measurement: Measurement) -> Self {
        FleetSpec {
            domain: domain.to_owned(),
            target_measurement,
            tcb_floor: 0,
            renewal_lead_ms: 7 * 24 * 3_600_000,
            canary_fraction: 0.25,
            tick_interval_ms: 3_600_000,
            wave_batch: 2,
        }
    }
}

/// Where the rolling upgrade currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutPhase {
    /// A rollout is pending (spec target differs from the fleet) but no
    /// canaries have been planned yet.
    Idle,
    /// Canaries are being upgraded and attestation-verified; the rest of
    /// the fleet serves the old image.
    Canary,
    /// Canaries passed; the remaining nodes are upgraded in bounded
    /// batches, the serving leader last.
    Wave,
    /// A node's measured launch diverged from the target: the rollout is
    /// frozen, the diverging set reported, the old image keeps serving.
    /// Only a new [`Reconciler::set_spec`] resumes.
    Halted,
    /// The fleet measures the target and was re-provisioned onto it.
    Complete,
}

impl RolloutPhase {
    /// Stable lowercase name for transcripts and metric labels.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RolloutPhase::Idle => "idle",
            RolloutPhase::Canary => "canary",
            RolloutPhase::Wave => "wave",
            RolloutPhase::Halted => "halted",
            RolloutPhase::Complete => "complete",
        }
    }

    /// Stable numeric encoding for the `revelio_reconcile_phase` gauge.
    #[must_use]
    pub fn gauge_value(self) -> f64 {
        match self {
            RolloutPhase::Idle => 0.0,
            RolloutPhase::Canary => 1.0,
            RolloutPhase::Wave => 2.0,
            RolloutPhase::Halted => 3.0,
            RolloutPhase::Complete => 4.0,
        }
    }
}

/// The reconciler's lever on the machines themselves: tear a node down
/// and redeploy it — same chip, same addresses, same identity seed —
/// booted from the operator's *current build* of the target image. The
/// reconciler never trusts the actuator's claim of success; it verifies
/// by re-attestation ([`ServiceProviderNode::observe_node`]), which is
/// exactly where build-pipeline drift is caught.
pub trait NodeActuator {
    /// Redeploys `bootstrap` from the current target build.
    ///
    /// # Errors
    ///
    /// Any boot/bind failure; the reconciler quarantines the node.
    fn upgrade(&mut self, bootstrap: &str) -> Result<(), RevelioError>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeHealth {
    /// On the serving roster with the fleet certificate installed.
    Admitted,
    /// Excluded: unreachable, rejected, or out of spec; the re-admission
    /// loop owns its way back.
    Quarantined,
}

struct NodeSlot {
    bootstrap: String,
    health: NodeHealth,
}

/// The control-plane loop. See the module docs for the model.
pub struct Reconciler<A: NodeActuator> {
    sp: ServiceProviderNode,
    net: SimNet,
    spec: FleetSpec,
    actuator: A,
    telemetry: Telemetry,
    dns: Option<DnsZone>,
    /// Bootstrap → public address, for re-pointing DNS at a new leader.
    public_addresses: BTreeMap<String, String>,
    /// Fleet order is decision order — the deterministic spine.
    nodes: Vec<NodeSlot>,
    chain: CertificateChain,
    leader: String,
    /// What admitted nodes are expected to measure *now* (the old image
    /// until a rollout completes, the target afterwards).
    current_measurement: Measurement,
    phase: RolloutPhase,
    canaries: BTreeSet<String>,
    /// Actuated this rollout (may not have verified yet).
    upgraded: BTreeSet<String>,
    /// Observed at the target measurement this rollout.
    verified: BTreeSet<String>,
    diverging: BTreeMap<String, Measurement>,
    transcript: Vec<String>,
    ticks: u64,
    probe_cursor: usize,
    renewal_failing: bool,
}

impl<A: NodeActuator> Reconciler<A> {
    /// Builds a reconciler over a provisioned fleet: `bootstraps` in
    /// fleet order, `provision` naming the leader, chain and initial
    /// quarantine set, `current_measurement` what the fleet measures
    /// today.
    #[must_use]
    pub fn new(
        sp: ServiceProviderNode,
        net: SimNet,
        spec: FleetSpec,
        actuator: A,
        bootstraps: Vec<String>,
        provision: &ProvisionReport,
        current_measurement: Measurement,
    ) -> Self {
        let quarantined: BTreeSet<&str> = provision
            .quarantined
            .iter()
            .map(|q| q.node.as_str())
            .collect();
        let nodes = bootstraps
            .into_iter()
            .map(|bootstrap| {
                let health = if quarantined.contains(bootstrap.as_str()) {
                    NodeHealth::Quarantined
                } else {
                    NodeHealth::Admitted
                };
                NodeSlot { bootstrap, health }
            })
            .collect();
        let phase = if current_measurement == spec.target_measurement {
            RolloutPhase::Complete
        } else {
            RolloutPhase::Idle
        };
        Reconciler {
            sp,
            telemetry: Telemetry::new(net.clock().clone()),
            net,
            spec,
            actuator,
            dns: None,
            public_addresses: BTreeMap::new(),
            nodes,
            chain: provision.chain.clone(),
            leader: provision.leader_bootstrap.clone(),
            current_measurement,
            phase,
            canaries: BTreeSet::new(),
            upgraded: BTreeSet::new(),
            verified: BTreeSet::new(),
            diverging: BTreeMap::new(),
            transcript: Vec::new(),
            ticks: 0,
            probe_cursor: 0,
            renewal_failing: false,
        }
    }

    /// Records reconcile spans, counters and gauges into `telemetry`
    /// instead of the reconciler's private registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Hands the reconciler the DNS zone plus the bootstrap → public
    /// address map, so a leader change (post-rollout re-provision)
    /// re-points the domain.
    #[must_use]
    pub fn with_dns(mut self, dns: DnsZone, public_addresses: BTreeMap<String, String>) -> Self {
        self.dns = Some(dns);
        self.public_addresses = public_addresses;
        self
    }

    /// Replaces the spec — the operator's only lever. Rollout state is
    /// re-planned from scratch (this is also how a [`RolloutPhase::Halted`]
    /// rollout resumes once the build pipeline is fixed).
    pub fn set_spec(&mut self, spec: FleetSpec) {
        self.spec = spec;
        self.canaries.clear();
        self.upgraded.clear();
        self.verified.clear();
        self.diverging.clear();
        self.phase = if self.current_measurement == self.spec.target_measurement {
            RolloutPhase::Complete
        } else {
            RolloutPhase::Idle
        };
        self.event(&format!(
            "spec-updated target={} phase={}",
            self.spec.target_measurement,
            self.phase.as_str()
        ));
    }

    /// One control-loop iteration: advance the clock by the tick
    /// interval, then re-admit, renew, roll out and probe — each step
    /// bounded.
    pub fn tick(&mut self) {
        self.ticks += 1;
        self.net
            .clock()
            .advance_ms(self.spec.tick_interval_ms as f64);
        let span = self
            .telemetry
            .span_with("reconcile.tick", &[("phase", self.phase.as_str())]);
        self.step_partition_watch();
        self.step_readmission();
        self.step_renewal();
        self.step_rollout();
        self.step_probe();
        let telemetry = &self.telemetry;
        telemetry.counter_add("revelio_reconcile_ticks_total", 1);
        telemetry.gauge_set("revelio_reconcile_phase", self.phase.gauge_value());
        telemetry.gauge_set(
            "revelio_reconcile_out_of_spec_nodes",
            self.out_of_spec() as f64,
        );
        span.finish_ms();
    }

    /// Runs ticks until [`Reconciler::is_converged`] or `max_ticks`;
    /// returns whether convergence was reached.
    pub fn run_until_converged(&mut self, max_ticks: u64) -> bool {
        for _ in 0..max_ticks {
            if self.is_converged() {
                return true;
            }
            self.tick();
        }
        self.is_converged()
    }

    /// Runs exactly `n` ticks (soak driver; halted rollouts never
    /// converge, but their steady state is still worth exercising).
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Converged: every node admitted at the current measurement, the
    /// rollout complete, and the certificate outside its renewal window.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        let now_ms = self.net.clock().now_us() / 1000;
        self.phase == RolloutPhase::Complete
            && self
                .nodes
                .iter()
                .all(|slot| slot.health == NodeHealth::Admitted)
            && !self
                .chain
                .leaf()
                .expires_within(now_ms, self.spec.renewal_lead_ms)
    }

    /// The rollout phase.
    #[must_use]
    pub fn phase(&self) -> RolloutPhase {
        self.phase
    }

    /// Nodes whose measured launch diverged from the rollout target,
    /// with what they actually measured.
    #[must_use]
    pub fn diverging(&self) -> &BTreeMap<String, Measurement> {
        &self.diverging
    }

    /// The current shared certificate chain.
    #[must_use]
    pub fn chain(&self) -> &CertificateChain {
        &self.chain
    }

    /// The current leader's bootstrap address.
    #[must_use]
    pub fn leader(&self) -> &str {
        &self.leader
    }

    /// Quarantined nodes, in fleet order.
    #[must_use]
    pub fn quarantined(&self) -> Vec<String> {
        self.nodes_with(NodeHealth::Quarantined)
    }

    /// Admitted nodes, in fleet order.
    #[must_use]
    pub fn admitted(&self) -> Vec<String> {
        self.nodes_with(NodeHealth::Admitted)
    }

    /// Ticks run so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The decision transcript: one line per state transition, in order.
    #[must_use]
    pub fn transcript(&self) -> &[String] {
        &self.transcript
    }

    /// SHA-256 of the transcript — the byte-identity handle the
    /// determinism suites compare across threads.
    #[must_use]
    pub fn transcript_digest(&self) -> String {
        let mut joined = Vec::new();
        for line in &self.transcript {
            joined.extend_from_slice(line.as_bytes());
            joined.push(b'\n');
        }
        revelio_crypto::hex::encode(Sha256::digest(&joined))
    }

    /// The actuator, for scenario drivers that need to reach through
    /// (e.g. injecting or clearing build drift between specs).
    pub fn actuator_mut(&mut self) -> &mut A {
        &mut self.actuator
    }

    fn nodes_with(&self, health: NodeHealth) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|slot| slot.health == health)
            .map(|slot| slot.bootstrap.clone())
            .collect()
    }

    fn out_of_spec(&self) -> usize {
        let quarantined = self
            .nodes
            .iter()
            .filter(|s| s.health == NodeHealth::Quarantined)
            .count();
        let pending_upgrade = match self.phase {
            RolloutPhase::Canary | RolloutPhase::Wave | RolloutPhase::Halted => self
                .nodes
                .iter()
                .filter(|s| {
                    s.health == NodeHealth::Admitted && !self.verified.contains(&s.bootstrap)
                })
                .count(),
            RolloutPhase::Idle | RolloutPhase::Complete => 0,
        };
        quarantined + pending_upgrade
    }

    fn set_health(&mut self, bootstrap: &str, health: NodeHealth) {
        if let Some(slot) = self.nodes.iter_mut().find(|s| s.bootstrap == bootstrap) {
            slot.health = health;
        }
    }

    fn event(&mut self, message: &str) {
        self.transcript.push(format!("[{}] {message}", self.ticks));
    }

    fn count(&self, name: &str) {
        self.telemetry.counter_add(name, 1);
    }

    /// Whether an active partition domain currently blackholes traffic
    /// toward `address` — the reconciler's "the heal is scheduled, don't
    /// burn retries into it" signal.
    fn is_partitioned(&self, address: &str) -> bool {
        let now_us = self.net.clock().now_us();
        self.net.fault_domains().iter().any(|d| {
            matches!(d.effect, DomainEffect::Partition)
                && d.is_active_at(now_us)
                && d.matches(None, address)
        })
    }

    /// Roster watch: an admitted node inside an **active partition
    /// domain** leaves the serving roster now — deterministically, from
    /// the fabric's installed domains, without burning a probe into the
    /// blackout. This is *not* an attestation verdict (transient faults
    /// never are); it is roster bookkeeping, and re-admission re-attests
    /// the node the moment its scheduled heal lifts.
    fn step_partition_watch(&mut self) {
        for bootstrap in self.nodes_with(NodeHealth::Admitted) {
            if self.is_partitioned(&bootstrap) {
                self.set_health(&bootstrap, NodeHealth::Quarantined);
                self.count("revelio_reconcile_quarantines_total");
                self.event(&format!("partitioned {bootstrap}"));
            }
        }
    }

    /// Re-admission: quarantined nodes whose partitions lifted are
    /// re-attested and, when they measure what the fleet measures,
    /// re-issued the certificate and returned to the roster. Nodes on a
    /// stale image after a completed rollout are upgraded first.
    fn step_readmission(&mut self) {
        for bootstrap in self.nodes_with(NodeHealth::Quarantined) {
            if self.is_partitioned(&bootstrap) {
                continue;
            }
            let Ok(observed) = self.sp.observe_node(&bootstrap) else {
                // Unreachable or rejected: not a transition, stay
                // quarantined and retry next tick.
                continue;
            };
            if observed.tcb.to_u64() < self.spec.tcb_floor {
                continue;
            }
            if observed.measurement != self.current_measurement {
                // A healed node on a stale image: once the fleet itself
                // is settled on the target, upgrade it in place and let
                // the re-observation below decide. Mid-rollout the wave
                // machinery owns upgrades — admit only exact matches.
                if self.phase != RolloutPhase::Complete
                    || self.actuator.upgrade(&bootstrap).is_err()
                {
                    continue;
                }
                self.count("revelio_reconcile_upgrades_total");
                self.event(&format!(
                    "upgrade {bootstrap} (stale image on re-admission)"
                ));
                let Ok(reobserved) = self.sp.observe_node(&bootstrap) else {
                    continue;
                };
                if reobserved.measurement != self.current_measurement
                    || reobserved.tcb.to_u64() < self.spec.tcb_floor
                {
                    continue;
                }
            }
            if self
                .sp
                .install_certificate(&bootstrap, &self.chain, &self.leader)
                .is_ok()
            {
                self.set_health(&bootstrap, NodeHealth::Admitted);
                self.count("revelio_reconcile_readmissions_total");
                self.event(&format!("readmit {bootstrap}"));
            }
        }
    }

    /// Renewal: once the chain enters its lead window, re-order for the
    /// leader's (unchanged) key and push the fresh chain to the serving
    /// roster. Nodes reuse their held key (`install_cert` fast path), so
    /// a renewal never redistributes key material.
    fn step_renewal(&mut self) {
        let now_ms = self.net.clock().now_us() / 1000;
        if !self
            .chain
            .leaf()
            .expires_within(now_ms, self.spec.renewal_lead_ms)
        {
            return;
        }
        match self.sp.renew_certificate(&self.leader, &self.chain) {
            Ok(new_chain) => {
                self.renewal_failing = false;
                self.count("revelio_reconcile_renewals_total");
                self.event(&format!(
                    "renew not_after_ms={}",
                    new_chain.leaf().not_after_ms
                ));
                for bootstrap in self.nodes_with(NodeHealth::Admitted) {
                    // Mid-wave upgraded nodes measure the target and
                    // cannot key-exchange with the old-image leader; the
                    // completion re-provision hands them the fresh chain.
                    if self.upgraded.contains(&bootstrap) {
                        continue;
                    }
                    if self
                        .sp
                        .install_certificate(&bootstrap, &new_chain, &self.leader)
                        .is_err()
                    {
                        self.set_health(&bootstrap, NodeHealth::Quarantined);
                        self.event(&format!("renew-install-fail {bootstrap}"));
                    }
                }
                self.chain = new_chain;
            }
            Err(_) => {
                // Rate limits and transient faults retry next tick; the
                // lead window exists precisely to absorb them. Record
                // only the transition into the failing state.
                if !self.renewal_failing {
                    self.renewal_failing = true;
                    self.event("renew-deferred");
                }
            }
        }
    }

    fn step_rollout(&mut self) {
        match self.phase {
            RolloutPhase::Complete | RolloutPhase::Halted => {}
            RolloutPhase::Idle => self.plan_canaries(),
            RolloutPhase::Canary => {
                let targets: Vec<String> = self
                    .nodes_with(NodeHealth::Admitted)
                    .into_iter()
                    .filter(|b| self.canaries.contains(b))
                    .collect();
                self.rollout_step(&targets);
                // The wave starts only on a verified canary signal: every
                // *reachable* canary proved the target measurement, and at
                // least one did (all-canaries-partitioned pauses here
                // until the heal).
                if self.phase == RolloutPhase::Canary
                    && !targets.is_empty()
                    && targets.iter().all(|b| self.verified.contains(b))
                {
                    self.phase = RolloutPhase::Wave;
                    self.event("canary-pass");
                }
            }
            RolloutPhase::Wave => {
                // Fleet order, serving leader strictly last: the site
                // keeps answering on the old image until the final
                // actuation, and the completing re-provision brings the
                // whole fleet back up on the target.
                let mut targets: Vec<String> = self
                    .nodes_with(NodeHealth::Admitted)
                    .into_iter()
                    .filter(|b| *b != self.leader)
                    .collect();
                let leader_pending = targets.len()
                    == targets
                        .iter()
                        .filter(|b| self.verified.contains(*b))
                        .count();
                if leader_pending
                    && self
                        .nodes
                        .iter()
                        .any(|s| s.bootstrap == self.leader && s.health == NodeHealth::Admitted)
                {
                    targets.push(self.leader.clone());
                }
                self.rollout_step(&targets);
                self.try_complete();
            }
        }
    }

    fn plan_canaries(&mut self) {
        if self.current_measurement == self.spec.target_measurement {
            self.phase = RolloutPhase::Complete;
            return;
        }
        let admitted = self.nodes_with(NodeHealth::Admitted);
        if admitted.is_empty() {
            return; // nothing to canary against yet; wait for re-admissions
        }
        let candidates: Vec<&String> = admitted.iter().filter(|b| **b != self.leader).collect();
        let wanted = ((admitted.len() as f64) * self.spec.canary_fraction)
            .ceil()
            .max(1.0) as usize;
        let count = wanted.min(candidates.len());
        self.canaries = candidates.into_iter().take(count).cloned().collect();
        let named: Vec<&str> = self.canaries.iter().map(String::as_str).collect();
        self.event(&format!(
            "rollout-start target={} canaries=[{}]",
            self.spec.target_measurement,
            named.join(", ")
        ));
        // A single-node fleet has no canary candidates (the leader is
        // the site): the wave owns the whole rollout.
        self.phase = if self.canaries.is_empty() {
            RolloutPhase::Wave
        } else {
            RolloutPhase::Canary
        };
    }

    /// One bounded rollout step over `targets` (fleet order): verify
    /// what was actuated, halt on divergence, then actuate up to
    /// `wave_batch` more.
    fn rollout_step(&mut self, targets: &[String]) {
        // Verify-before-actuate: an upgraded node must prove its
        // measured launch before the rollout spends budget on the next.
        for bootstrap in targets {
            if !self.upgraded.contains(bootstrap) || self.verified.contains(bootstrap) {
                continue;
            }
            match self.sp.observe_node(bootstrap) {
                Ok(observed)
                    if observed.measurement == self.spec.target_measurement
                        && observed.tcb.to_u64() >= self.spec.tcb_floor =>
                {
                    self.verified.insert(bootstrap.clone());
                    self.event(&format!("verify {bootstrap}"));
                }
                Ok(observed) => {
                    self.diverging
                        .insert(bootstrap.clone(), observed.measurement);
                }
                Err(_) => {} // transient; re-observe next tick
            }
        }
        if !self.diverging.is_empty() {
            self.phase = RolloutPhase::Halted;
            self.count("revelio_reconcile_drift_halts_total");
            let named: Vec<String> = self
                .diverging
                .iter()
                .map(|(node, measurement)| format!("{node}={measurement}"))
                .collect();
            self.event(&format!("rollout-halt diverging=[{}]", named.join(", ")));
            return;
        }
        let pending: Vec<String> = targets
            .iter()
            .filter(|b| !self.upgraded.contains(*b))
            .take(self.spec.wave_batch)
            .cloned()
            .collect();
        for bootstrap in pending {
            match self.actuator.upgrade(&bootstrap) {
                Ok(()) => {
                    self.upgraded.insert(bootstrap.clone());
                    self.count("revelio_reconcile_upgrades_total");
                    self.event(&format!("upgrade {bootstrap}"));
                }
                Err(_) => {
                    self.set_health(&bootstrap, NodeHealth::Quarantined);
                    self.event(&format!("upgrade-fail {bootstrap}"));
                }
            }
        }
    }

    /// Wave completion: every admitted node verified at the target ⇒
    /// rotate the golden set and re-provision the fleet onto the new
    /// image (fresh certificate, key distribution among now-identical
    /// peers, DNS at the new leader).
    fn try_complete(&mut self) {
        let admitted = self.nodes_with(NodeHealth::Admitted);
        if admitted.is_empty() || !admitted.iter().all(|b| self.verified.contains(b)) {
            return;
        }
        self.sp
            .set_golden(GoldenSet::from_measurements([self.spec.target_measurement]));
        match self.sp.provision(&admitted) {
            Ok(report) => {
                self.chain = report.chain.clone();
                self.leader = report.leader_bootstrap.clone();
                for q in &report.quarantined {
                    self.set_health(&q.node, NodeHealth::Quarantined);
                    self.event(&format!("provision-quarantine {}", q.node));
                }
                if let Some(dns) = &self.dns {
                    if let Some(public) = self.public_addresses.get(&self.leader) {
                        dns.set_address(&self.spec.domain, public);
                    }
                }
                self.current_measurement = self.spec.target_measurement;
                self.phase = RolloutPhase::Complete;
                self.upgraded.clear();
                self.verified.clear();
                self.canaries.clear();
                self.event(&format!("rollout-complete leader={}", self.leader));
            }
            Err(_) => {
                // Transient (CA outage, dropped packets): the fleet is
                // verified, re-provision retries next tick.
            }
        }
    }

    /// Steady-state drift watch: outside a rollout, re-attest one
    /// admitted node per tick (round-robin). A node measuring off-spec
    /// or below the TCB floor leaves the roster; re-admission owns the
    /// remediation.
    fn step_probe(&mut self) {
        if !matches!(self.phase, RolloutPhase::Idle | RolloutPhase::Complete) {
            return;
        }
        let admitted = self.nodes_with(NodeHealth::Admitted);
        if admitted.is_empty() {
            return;
        }
        let bootstrap = admitted[self.probe_cursor % admitted.len()].clone();
        self.probe_cursor += 1;
        if self.is_partitioned(&bootstrap) {
            return;
        }
        let Ok(observed) = self.sp.observe_node(&bootstrap) else {
            return; // transient: innocent until attested otherwise next lap
        };
        if observed.measurement != self.current_measurement {
            self.set_health(&bootstrap, NodeHealth::Quarantined);
            self.event(&format!(
                "out-of-spec {bootstrap} measurement={}",
                observed.measurement
            ));
        } else if observed.tcb.to_u64() < self.spec.tcb_floor {
            self.set_health(&bootstrap, NodeHealth::Quarantined);
            self.event(&format!(
                "out-of-spec {bootstrap} tcb={:#x} floor={:#x}",
                observed.tcb.to_u64(),
                self.spec.tcb_floor
            ));
        }
    }
}

impl<A: NodeActuator> std::fmt::Debug for Reconciler<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reconciler")
            .field("phase", &self.phase.as_str())
            .field("nodes", &self.nodes.len())
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_are_operational() {
        let spec = FleetSpec::new("pad.example.org", Measurement::of_launch_context(b"img"));
        assert_eq!(spec.renewal_lead_ms, 604_800_000);
        assert!(spec.canary_fraction > 0.0 && spec.canary_fraction < 1.0);
        assert!(spec.wave_batch >= 1);
    }

    #[test]
    fn phase_names_and_gauge_values_are_stable() {
        let phases = [
            RolloutPhase::Idle,
            RolloutPhase::Canary,
            RolloutPhase::Wave,
            RolloutPhase::Halted,
            RolloutPhase::Complete,
        ];
        let names: Vec<&str> = phases.iter().map(|p| p.as_str()).collect();
        assert_eq!(names, ["idle", "canary", "wave", "halted", "complete"]);
        for (i, phase) in phases.iter().enumerate() {
            assert!((phase.gauge_value() - i as f64).abs() < f64::EPSILON);
        }
    }
}
