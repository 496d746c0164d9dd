//! The reconcile benchmark: long-horizon control-plane convergence
//! under pinned fault seeds.
//!
//! ROADMAP's desired-state reconciliation scenario: a declared
//! [`FleetSpec`] and a reconciler loop driving the fleet toward it on
//! the sim clock. This module runs the control plane through its four
//! load-bearing scenarios and gates the PR's acceptance claims:
//!
//! * **rolling upgrade under partition** — a new target image rolls out
//!   canary-first (canaries verified dark before any wave node moves,
//!   the serving leader strictly last) while a rack flaps behind a
//!   scheduled-heal partition; the fleet still converges;
//! * **drift halt / resume** — a seeded build-pipeline compromise makes
//!   one canary measure off-target; the rollout halts naming the
//!   diverging node set, the old image keeps serving, and a corrected
//!   re-declared spec converges;
//! * **quarantine flapping** — repeated partition/heal cycles each
//!   quarantine and then re-admit (re-attest, re-issue, rejoin) the
//!   flapped nodes;
//! * **renewal horizon** — daily ticks across a multi-renewal horizon;
//!   no tick may ever observe the shared certificate past its
//!   `not_after_ms`.
//!
//! The upgrade scenario is replicated across OS threads; every
//! replica's decision-transcript digest must be byte-identical. All scenario time is sim-clock time — the only wall
//! number reported is the harness's own elapsed seconds.

use std::time::Instant;

use revelio::node::demo_app;
use revelio::reconcile::{FleetSpec, RolloutPhase};
use revelio::world::SimWorld;
use revelio_net::FaultDomain;

/// The domain the reconcile fleet serves.
pub const RECONCILE_DOMAIN: &str = "pad.example.org";

/// The pinned world seed (the transcript digest is part of the
/// determinism gate, so the seed is part of the contract).
pub const RECONCILE_SEED: u64 = 0x5EC0_11C1;

/// The pinned fabric fault seed for the scheduled partition flaps.
pub const RECONCILE_FAULT_SEED: u64 = 0xC4A0_5004;

/// Reconcile dimensions: `(nodes, flaps, horizon_days, threads)`,
/// defaulting to the full run (6-node fleet across two racks, 3
/// partition/heal cycles, a 200-day renewal horizon, 16 determinism
/// replicas) and overridable via
/// `REVELIO_RECONCILE_NODES`, `REVELIO_RECONCILE_FLAPS`,
/// `REVELIO_RECONCILE_DAYS`, and `REVELIO_RECONCILE_THREADS` for CI
/// smoke scale.
#[must_use]
pub fn reconcile_dimensions_from_env() -> (usize, usize, usize, usize) {
    let dim = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(default)
    };
    (
        dim("REVELIO_RECONCILE_NODES", 6).max(3),
        dim("REVELIO_RECONCILE_FLAPS", 3),
        dim("REVELIO_RECONCILE_DAYS", 200),
        dim("REVELIO_RECONCILE_THREADS", 16),
    )
}

/// Splits `nodes` across the two racks (rack 114 is the flapping one).
fn rack_split(nodes: usize) -> [(u8, usize); 2] {
    let flapping = (nodes / 3).max(1);
    [(113, nodes - flapping), (114, flapping)]
}

/// Outcome of one rolling-upgrade-under-partition replica.
struct UpgradeOutcome {
    converged: bool,
    ticks: u64,
    canary_first: bool,
    leader_last: bool,
    digest: String,
}

/// One full upgrade scenario: a rack goes dark behind a scheduled-heal
/// partition while the reconciler rolls the fleet onto a new image.
fn run_upgrade_scenario(nodes: usize) -> UpgradeOutcome {
    let mut world = SimWorld::new(RECONCILE_SEED);
    world.set_fault_seed(RECONCILE_FAULT_SEED);
    let fleet = world
        .deploy_fleet_in_subnets(RECONCILE_DOMAIN, &rack_split(nodes), demo_app())
        .expect("reconcile fleet deploys on a clean fabric");
    let leader = fleet.provision.leader_bootstrap.clone();

    let next_spec = world.image_spec(RECONCILE_DOMAIN, &["web-service", "metrics-agent"]);
    let (_, target) = world.build(&next_spec).expect("target image builds");
    let upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
    let mut spec = FleetSpec::new(RECONCILE_DOMAIN, target);
    spec.tick_interval_ms = 60_000;
    let mut reconciler = world.reconciler(&fleet, spec, upgrader);

    let now_us = world.clock.now_us();
    world.install_fault_domain(
        FaultDomain::partition("rack-114", "203.0.114.")
            .starting_at_us(now_us)
            .healing_at_us(now_us + 240_000_000),
    );

    let converged = reconciler.run_until_converged(80);

    // Canary-first ordering and leader-last are read off the decision
    // transcript. Re-admission upgrades ("stale image on re-admission")
    // are post-completion catch-up, not rollout waves — excluded.
    let wave_upgrades: Vec<&String> = reconciler
        .transcript()
        .iter()
        .filter(|l| l.contains("] upgrade ") && !l.contains("stale image"))
        .collect();
    let canary_pass = reconciler
        .transcript()
        .iter()
        .position(|l| l.contains("canary-pass"));
    let second_upgrade = reconciler
        .transcript()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("] upgrade ") && !l.contains("stale image"))
        .nth(1)
        .map(|(i, _)| i);
    let canary_first = match (canary_pass, second_upgrade) {
        (Some(pass), Some(second)) => pass < second,
        (Some(_), None) => true,
        (None, _) => false,
    };
    let leader_last = wave_upgrades
        .last()
        .is_some_and(|line| line.contains(&leader));

    UpgradeOutcome {
        converged,
        ticks: reconciler.ticks(),
        canary_first,
        leader_last,
        digest: reconciler.transcript_digest(),
    }
}

/// Results of one reconcile run.
#[derive(Debug, Clone)]
pub struct ReconcileReport {
    /// Fleet size across the two racks.
    pub nodes: usize,
    /// Partition/heal cycles in the flapping soak.
    pub flaps: usize,
    /// Daily ticks in the renewal horizon.
    pub horizon_days: usize,
    /// Concurrent determinism replicas (one OS thread each).
    pub replica_threads: usize,
    /// Whether the rolling upgrade converged within its tick budget.
    pub upgrade_converged: bool,
    /// Ticks the upgrade scenario ran until convergence.
    pub upgrade_convergence_ticks: u64,
    /// Canary-pass preceded every wave upgrade.
    pub canary_first: bool,
    /// The serving leader was the last wave upgrade.
    pub leader_last: bool,
    /// The seeded drift halted the rollout.
    pub drift_halted: bool,
    /// Diverging nodes named by the halt (node → measured value).
    pub diverging_named: usize,
    /// The corrected spec converged after the halt.
    pub drift_resumed: bool,
    /// Ticks from re-declared spec to convergence.
    pub drift_resume_ticks: u64,
    /// Partition quarantines across the flapping soak.
    pub flap_quarantines: u64,
    /// Re-admissions across the flapping soak — must equal the
    /// quarantines: every healed node rejoins.
    pub flap_readmissions: u64,
    /// Nodes still quarantined when the soak ended (must be 0).
    pub flap_residual_quarantined: usize,
    /// Certificate renewals across the horizon.
    pub renewals: u64,
    /// Ticks that observed the chain past `not_after_ms` (must be 0).
    pub expiry_violations: u64,
    /// Total upgrade-scenario replicas in the determinism sweep.
    pub determinism_runs: usize,
    /// Distinct transcript digests across all replicas (must be 1).
    pub distinct_digests: usize,
    /// The (sole, when deterministic) upgrade transcript digest, hex.
    pub transcript_sha256: String,
    /// Harness wall time, seconds. Reported for CI budgeting only —
    /// every scenario quantity above is sim-clock or transcript-derived.
    pub wall_secs: f64,
}

impl ReconcileReport {
    /// Serializes the report for `BENCH_reconcile.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"nodes\":{},\"flaps\":{},\"horizon_days\":{},",
                "\"replica_threads\":{},",
                "\"upgrade_converged\":{},\"upgrade_convergence_ticks\":{},",
                "\"canary_first\":{},\"leader_last\":{},",
                "\"drift_halted\":{},\"diverging_named\":{},",
                "\"drift_resumed\":{},\"drift_resume_ticks\":{},",
                "\"flap_quarantines\":{},\"flap_readmissions\":{},",
                "\"flap_residual_quarantined\":{},",
                "\"renewals\":{},\"expiry_violations\":{},",
                "\"determinism_runs\":{},",
                "\"distinct_digests\":{},",
                "\"transcript_sha256\":\"{}\",",
                "\"wall_secs\":{:.3}}}"
            ),
            self.nodes,
            self.flaps,
            self.horizon_days,
            self.replica_threads,
            self.upgrade_converged,
            self.upgrade_convergence_ticks,
            self.canary_first,
            self.leader_last,
            self.drift_halted,
            self.diverging_named,
            self.drift_resumed,
            self.drift_resume_ticks,
            self.flap_quarantines,
            self.flap_readmissions,
            self.flap_residual_quarantined,
            self.renewals,
            self.expiry_violations,
            self.determinism_runs,
            self.distinct_digests,
            self.transcript_sha256,
            self.wall_secs,
        )
    }

    /// The reconcile gates, empty when all hold:
    ///
    /// * the rolling upgrade converged, canary-first, leader last;
    /// * the seeded drift halted the rollout naming ≥ 1 diverging node,
    ///   and the corrected spec converged;
    /// * every flapped node was quarantined and then re-admitted, with
    ///   nobody left off the roster;
    /// * one renewal per 90-day certificate lifetime in the horizon
    ///   happened, and no tick ever observed an expired chain;
    /// * every determinism replica produced the same transcript digest.
    #[must_use]
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.upgrade_converged {
            failures.push(format!(
                "rolling upgrade did not converge within budget ({} ticks run)",
                self.upgrade_convergence_ticks
            ));
        }
        if !self.canary_first {
            failures.push("a wave upgrade ran before canary-pass".to_owned());
        }
        if !self.leader_last {
            failures.push("the serving leader was not the last wave upgrade".to_owned());
        }
        if !self.drift_halted || self.diverging_named == 0 {
            failures.push(format!(
                "seeded drift did not halt the rollout with named divergents \
                 (halted={}, named={})",
                self.drift_halted, self.diverging_named
            ));
        }
        if !self.drift_resumed {
            failures.push("corrected spec did not converge after the drift halt".to_owned());
        }
        if self.flap_readmissions != self.flap_quarantines || self.flap_residual_quarantined != 0 {
            failures.push(format!(
                "healed nodes not fully re-admitted: {} quarantines, {} readmissions, \
                 {} still off the roster",
                self.flap_quarantines, self.flap_readmissions, self.flap_residual_quarantined
            ));
        }
        let expected_renewals = (self.horizon_days / 90) as u64;
        if self.renewals < expected_renewals {
            failures.push(format!(
                "expected >= {} certificate renewals across the {}-day horizon, got {}",
                expected_renewals, self.horizon_days, self.renewals
            ));
        }
        if self.expiry_violations != 0 {
            failures.push(format!(
                "{} ticks observed the shared certificate past not_after_ms",
                self.expiry_violations
            ));
        }
        if self.distinct_digests != 1 {
            failures.push(format!(
                "{} distinct transcript digests across {} replicas (expected 1)",
                self.distinct_digests, self.determinism_runs
            ));
        }
        failures
    }
}

/// Runs the reconcile benchmark.
///
/// # Panics
///
/// Panics if fleet deployment fails or a determinism replica thread
/// dies — both are harness bugs, not measurements.
#[must_use]
pub fn run_reconcile(
    nodes: usize,
    flaps: usize,
    horizon_days: usize,
    threads: usize,
) -> ReconcileReport {
    let started = Instant::now();
    let threads = threads.max(1);

    // Determinism sweep (doubles as the upgrade scenario): `threads`
    // concurrent replicas must produce one digest.
    let outcomes: Vec<UpgradeOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(move || run_upgrade_scenario(nodes)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("determinism replica"))
            .collect()
    });
    let mut digests: Vec<String> = outcomes.iter().map(|o| o.digest.clone()).collect();
    let determinism_runs = digests.len();
    digests.sort();
    digests.dedup();
    let distinct_digests = digests.len();
    let upgrade = outcomes
        .into_iter()
        .next()
        .expect("at least one replica ran");

    // Drift halt / resume: the build pipeline for one canary silently
    // emits a different image; the halt must name it, and a corrected
    // re-declared spec must converge.
    let (drift_halted, diverging_named, drift_resumed, drift_resume_ticks) = {
        let mut world = SimWorld::new(RECONCILE_SEED ^ 1);
        let fleet = world
            .deploy_fleet(RECONCILE_DOMAIN, nodes.min(4), demo_app())
            .expect("drift fleet deploys");
        let next_spec = world.image_spec(RECONCILE_DOMAIN, &["web-service", "metrics-agent"]);
        let (_, target) = world.build(&next_spec).expect("target builds");
        let drift_spec = world.image_spec(RECONCILE_DOMAIN, &["web-service", "cryptominer"]);
        let drifting = fleet.nodes[1].bootstrap_address().to_owned();
        let mut upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
        upgrader.inject_drift(&drifting, drift_spec);
        let mut spec = FleetSpec::new(RECONCILE_DOMAIN, target);
        spec.tick_interval_ms = 60_000;
        let mut reconciler = world.reconciler(&fleet, spec.clone(), upgrader);
        reconciler.run_until_converged(20);
        let halted = reconciler.phase() == RolloutPhase::Halted;
        let named = reconciler.diverging().len();
        let halt_ticks = reconciler.ticks();
        reconciler.actuator_mut().clear_drift(&drifting);
        reconciler.set_spec(spec);
        let resumed = reconciler.run_until_converged(60);
        (halted, named, resumed, reconciler.ticks() - halt_ticks)
    };

    // Quarantine flapping: `flaps` partition/heal cycles; every cycle
    // must quarantine and then re-admit the whole flapped rack.
    let (flap_quarantines, flap_readmissions, flap_residual) = {
        let mut world = SimWorld::new(RECONCILE_SEED ^ 2);
        world.set_fault_seed(RECONCILE_FAULT_SEED);
        let fleet = world
            .deploy_fleet_in_subnets(RECONCILE_DOMAIN, &rack_split(nodes), demo_app())
            .expect("flap fleet deploys");
        let next_spec = world.image_spec(RECONCILE_DOMAIN, &["web-service"]);
        let upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
        let mut spec = FleetSpec::new(RECONCILE_DOMAIN, fleet.golden_measurement);
        spec.tick_interval_ms = 60_000;
        let mut reconciler = world.reconciler(&fleet, spec, upgrader);
        for _ in 0..flaps {
            let now_us = world.clock.now_us();
            world.install_fault_domain(
                FaultDomain::partition("rack-114", "203.0.114.")
                    .starting_at_us(now_us)
                    .healing_at_us(now_us + 300_000_000),
            );
            reconciler.run_ticks(3);
            reconciler.run_until_converged(10);
        }
        let quarantines = reconciler
            .transcript()
            .iter()
            .filter(|l| l.contains("] partitioned "))
            .count() as u64;
        let readmissions = reconciler
            .transcript()
            .iter()
            .filter(|l| l.contains("] readmit "))
            .count() as u64;
        (quarantines, readmissions, reconciler.quarantined().len())
    };

    // Renewal horizon: daily ticks; the chain must never be observed
    // past `not_after_ms`.
    let (renewals, expiry_violations) = {
        let mut world = SimWorld::new(RECONCILE_SEED ^ 3);
        let fleet = world
            .deploy_fleet(RECONCILE_DOMAIN, nodes.min(3), demo_app())
            .expect("renewal fleet deploys");
        let next_spec = world.image_spec(RECONCILE_DOMAIN, &["web-service"]);
        let upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
        let mut spec = FleetSpec::new(RECONCILE_DOMAIN, fleet.golden_measurement);
        spec.tick_interval_ms = 24 * 3_600_000;
        let mut reconciler = world.reconciler(&fleet, spec, upgrader);
        let mut violations = 0u64;
        for _ in 0..horizon_days {
            reconciler.tick();
            let now_ms = world.clock.now_us() / 1000;
            if reconciler.chain().leaf().not_after_ms <= now_ms {
                violations += 1;
            }
        }
        let renewals = reconciler
            .transcript()
            .iter()
            .filter(|l| l.contains("] renew not_after_ms="))
            .count() as u64;
        (renewals, violations)
    };

    ReconcileReport {
        nodes,
        flaps,
        horizon_days,
        replica_threads: threads,
        upgrade_converged: upgrade.converged,
        upgrade_convergence_ticks: upgrade.ticks,
        canary_first: upgrade.canary_first,
        leader_last: upgrade.leader_last,
        drift_halted,
        diverging_named,
        drift_resumed,
        drift_resume_ticks,
        flap_quarantines,
        flap_readmissions,
        flap_residual_quarantined: flap_residual,
        renewals,
        expiry_violations,
        determinism_runs,
        distinct_digests,
        transcript_sha256: upgrade.digest,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}
