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

use crate::dim_from_env;
use crate::report::{BenchReport, Cmp, Gate};

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
///
/// # Errors
///
/// Names the first override that is not a positive integer.
pub fn reconcile_dimensions_from_env() -> Result<(usize, usize, usize, usize), String> {
    Ok((
        dim_from_env("REVELIO_RECONCILE_NODES", 6)?.max(3),
        dim_from_env("REVELIO_RECONCILE_FLAPS", 3)?,
        dim_from_env("REVELIO_RECONCILE_DAYS", 200)?,
        dim_from_env("REVELIO_RECONCILE_THREADS", 16)?,
    ))
}

/// The reconcile gates for a `horizon_days` renewal horizon:
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
pub fn gates(horizon_days: usize) -> Vec<Gate> {
    vec![
        Gate::value("upgrade_converged", Cmp::Eq, 1.0),
        Gate::value("canary_first", Cmp::Eq, 1.0),
        Gate::value("leader_last", Cmp::Eq, 1.0),
        Gate::value("drift_halted", Cmp::Eq, 1.0),
        Gate::value("diverging_named", Cmp::Gt, 0.0),
        Gate::value("drift_resumed", Cmp::Eq, 1.0),
        Gate::metric("flap_readmissions", Cmp::Eq, "flap_quarantines"),
        Gate::value("flap_residual_quarantined", Cmp::Eq, 0.0),
        Gate::value("renewals", Cmp::Ge, (horizon_days / 90) as f64),
        Gate::value("expiry_violations", Cmp::Eq, 0.0),
        Gate::value("distinct_digests", Cmp::Eq, 1.0),
    ]
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

/// Runs the reconcile benchmark and reports it (mode `reconcile`, gated
/// by [`gates`]). The transcript digest is the upgrade scenario's; the
/// only wall figure is the harness's own elapsed time, reported for CI
/// budgeting — every scenario quantity is sim-clock or
/// transcript-derived.
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
) -> BenchReport {
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

    let mut report = BenchReport::new(
        "reconcile",
        &[
            ("nodes", nodes as u64),
            ("flaps", flaps as u64),
            ("horizon_days", horizon_days as u64),
            ("replica_threads", threads as u64),
        ],
    );
    report.flag("upgrade_converged", upgrade.converged);
    report.count("upgrade_convergence_ticks", "ticks", upgrade.ticks as f64);
    report.flag("canary_first", upgrade.canary_first);
    report.flag("leader_last", upgrade.leader_last);
    report.flag("drift_halted", drift_halted);
    report.count("diverging_named", "nodes", diverging_named as f64);
    report.flag("drift_resumed", drift_resumed);
    report.count("drift_resume_ticks", "ticks", drift_resume_ticks as f64);
    report.count("flap_quarantines", "nodes", flap_quarantines as f64);
    report.count("flap_readmissions", "nodes", flap_readmissions as f64);
    report.count("flap_residual_quarantined", "nodes", flap_residual as f64);
    report.count("renewals", "renewals", renewals as f64);
    report.count("expiry_violations", "ticks", expiry_violations as f64);
    report.count("determinism_runs", "replicas", determinism_runs as f64);
    report.count("distinct_digests", "digests", distinct_digests as f64);
    report.wall("wall_secs", "s", started.elapsed().as_secs_f64());
    report.transcript_sha256 = Some(upgrade.digest);
    report.gates = gates(horizon_days);
    report
}
