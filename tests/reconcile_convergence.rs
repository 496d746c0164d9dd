//! Convergence and determinism suite for the control-plane reconciler.
//!
//! Pins the PR's acceptance gates as tests:
//!
//! * a rolling image upgrade completes **canary-first** (canaries are
//!   upgraded and attestation-verified before any wave node moves, the
//!   serving leader strictly last);
//! * seeded measurement drift **halts** the rollout naming the diverging
//!   node set, and the old image keeps serving throughout the halt;
//! * quarantined nodes whose partitions heal are **re-admitted**
//!   (re-attested, re-issued, back on the roster), across repeated
//!   partition/heal flap cycles;
//! * the shared certificate is renewed ahead of `not_after_ms` on a
//!   long horizon — no tick ever observes an expired chain;
//! * reconciler decision transcripts are **byte-identical** across 1, 4
//!   and 16 concurrent runs;
//! * the reconciler's TCB floor agrees with the extension's: a node every
//!   browser rejects is out of spec.

use revelio::appraisal::DecidingCheck;
use revelio::node::demo_app;
use revelio::reconcile::{FleetSpec, RolloutPhase};
use revelio::world::SimWorld;
use revelio_net::FaultDomain;
use sev_snp::ids::TcbVersion;

const RECONCILE_SEED: u64 = 0x5EC0_11C1;

#[test]
fn rolling_upgrade_completes_canary_first_with_leader_last() {
    let mut world = SimWorld::new(RECONCILE_SEED);
    let fleet = world
        .deploy_fleet("pad.example.org", 4, demo_app())
        .unwrap();
    let old_measurement = fleet.golden_measurement;

    let next_spec = world.image_spec("pad.example.org", &["web-service", "metrics-agent"]);
    let (_, target) = world.build(&next_spec).unwrap();
    assert_ne!(target, old_measurement);

    let upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
    let mut spec = FleetSpec::new("pad.example.org", target);
    spec.tick_interval_ms = 60_000;
    let mut reconciler = world.reconciler(&fleet, spec, upgrader);

    assert!(reconciler.run_until_converged(40));
    assert_eq!(reconciler.phase(), RolloutPhase::Complete);
    assert!(reconciler.diverging().is_empty());

    // Canary-first ordering, leader strictly last: the transcript's
    // upgrade events start with the canaries, and the leader's upgrade
    // is the final one before rollout-complete.
    let leader = fleet.provision.leader_bootstrap.clone();
    let upgrades: Vec<&String> = reconciler
        .transcript()
        .iter()
        .filter(|line| line.contains("] upgrade "))
        .collect();
    assert_eq!(upgrades.len(), fleet.nodes.len(), "{upgrades:?}");
    assert!(
        upgrades.last().unwrap().contains(&leader),
        "leader must upgrade last: {upgrades:?}"
    );
    let canary_pass = reconciler
        .transcript()
        .iter()
        .position(|l| l.contains("canary-pass"))
        .expect("canary phase must pass");
    let first_wave_upgrade = reconciler
        .transcript()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("] upgrade "))
        .nth(1)
        .map(|(i, _)| i)
        .unwrap();
    assert!(
        canary_pass < first_wave_upgrade,
        "no wave upgrade before canary-pass: {:?}",
        reconciler.transcript()
    );

    // The upgraded fleet serves and attests under the new measurement.
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![target]);
    let outcome = extension.browse("pad.example.org", "/healthz").unwrap();
    assert_eq!(outcome.response.body, b"ok");
    // The old image is no longer golden to the extension's spec.
    let strict = world.extension();
    strict.register_site("pad.example.org", vec![old_measurement]);
    assert!(strict.browse("pad.example.org", "/healthz").is_err());
}

#[test]
fn seeded_drift_halts_rollout_names_divergents_and_old_image_serves() {
    let mut world = SimWorld::new(RECONCILE_SEED ^ 1);
    let fleet = world
        .deploy_fleet("pad.example.org", 4, demo_app())
        .unwrap();
    let old_measurement = fleet.golden_measurement;

    let next_spec = world.image_spec("pad.example.org", &["web-service", "metrics-agent"]);
    let (_, target) = world.build(&next_spec).unwrap();
    // The build pipeline for the first canary slot (fleet node 1: node 0
    // is the leader and never a canary) silently emits a different
    // image.
    let drift_spec = world.image_spec("pad.example.org", &["web-service", "cryptominer"]);
    let (_, drift_measurement) = world.build(&drift_spec).unwrap();
    let drifting = fleet.nodes[1].bootstrap_address().to_owned();

    let mut upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
    upgrader.inject_drift(&drifting, drift_spec);
    let mut spec = FleetSpec::new("pad.example.org", target);
    spec.tick_interval_ms = 60_000;
    let mut reconciler = world.reconciler(&fleet, spec.clone(), upgrader);

    assert!(!reconciler.run_until_converged(20));
    assert_eq!(reconciler.phase(), RolloutPhase::Halted);
    assert_eq!(
        reconciler.diverging().get(&drifting),
        Some(&drift_measurement),
        "halt must name the diverging node and what it measured"
    );
    assert!(reconciler
        .transcript()
        .iter()
        .any(|l| l.contains("rollout-halt") && l.contains(&drifting)));

    // The halt froze the wave: every non-canary node still serves the
    // old image, and an end user attesting against it succeeds.
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![old_measurement]);
    let outcome = extension.browse("pad.example.org", "/healthz").unwrap();
    assert_eq!(outcome.response.body, b"ok");

    // Operator fixes the pipeline and re-declares the spec: the rollout
    // resumes from scratch and converges.
    reconciler.actuator_mut().clear_drift(&drifting);
    reconciler.set_spec(spec);
    assert!(reconciler.run_until_converged(40));
    assert_eq!(reconciler.phase(), RolloutPhase::Complete);
    let fresh = world.extension();
    fresh.register_site("pad.example.org", vec![target]);
    assert!(fresh.browse("pad.example.org", "/healthz").is_ok());
}

#[test]
fn quarantine_flapping_heals_into_readmission_every_cycle() {
    let mut world = SimWorld::new(RECONCILE_SEED ^ 2);
    let fleet = world
        .deploy_fleet_in_subnets("pad.example.org", &[(113, 2), (114, 2)], demo_app())
        .unwrap();
    assert!(fleet.provision.quarantined.is_empty());
    let flapping: Vec<String> = fleet
        .nodes
        .iter()
        .filter(|n| n.bootstrap_address().starts_with("203.0.114."))
        .map(|n| n.bootstrap_address().to_owned())
        .collect();
    assert_eq!(flapping.len(), 2);

    let next_spec = world.image_spec("pad.example.org", &["web-service"]);
    let upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
    let mut spec = FleetSpec::new("pad.example.org", fleet.golden_measurement);
    spec.tick_interval_ms = 60_000; // one-minute ticks
    let mut reconciler = world.reconciler(&fleet, spec, upgrader);
    assert_eq!(reconciler.phase(), RolloutPhase::Complete);

    const FLAPS: usize = 5;
    for cycle in 0..FLAPS {
        // Rack 114 goes dark for five minutes, with the heal scheduled.
        let now_us = world.clock.now_us();
        world.net.install_fault_domain(
            FaultDomain::partition("rack-114", "203.0.114.")
                .starting_at_us(now_us)
                .healing_at_us(now_us + 300_000_000),
        );
        reconciler.run_ticks(3);
        for node in &flapping {
            assert!(
                reconciler.quarantined().contains(node),
                "cycle {cycle}: {node} must leave the roster during the partition"
            );
        }
        // Ride past the scheduled heal: every flapped node re-attests
        // and rejoins.
        assert!(
            reconciler.run_until_converged(10),
            "cycle {cycle}: fleet must reconverge after the heal; quarantined={:?}",
            reconciler.quarantined()
        );
        assert!(reconciler.quarantined().is_empty());
    }

    // Each cycle quarantined and re-admitted both rack-114 nodes.
    let readmissions = reconciler
        .transcript()
        .iter()
        .filter(|l| l.contains("] readmit "))
        .count();
    assert_eq!(readmissions, FLAPS * flapping.len());
    let quarantines = reconciler
        .transcript()
        .iter()
        .filter(|l| l.contains("] partitioned "))
        .count();
    assert_eq!(quarantines, FLAPS * flapping.len());

    // After the soak the whole fleet serves.
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    assert!(extension.browse("pad.example.org", "/healthz").is_ok());
}

/// The reconciler judges the TCB floor with the extension's componentwise
/// check. The world's platforms report `(1,0,8,115)`: below a
/// `(1,0,9,114)` floor on the SNP firmware, although their packed TCB is
/// the larger (microcode sits in the top byte).
#[test]
fn tcb_floor_agrees_with_the_extension() {
    let mut world = SimWorld::new(RECONCILE_SEED ^ 5);
    let fleet = world
        .deploy_fleet("pad.example.org", 2, demo_app())
        .unwrap();
    let floor = TcbVersion::new(1, 0, 9, 114);

    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    extension.set_tcb_floor(Some(floor));
    let err = extension.browse("pad.example.org", "/healthz").unwrap_err();
    assert_eq!(err.deciding_check(), Some(DecidingCheck::TcbFloor), "{err}");

    let next_spec = world.image_spec("pad.example.org", &["web-service"]);
    let upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
    let mut spec = FleetSpec::new("pad.example.org", fleet.golden_measurement);
    spec.tick_interval_ms = 60_000;
    spec.tcb_floor = Some(floor);
    let mut reconciler = world.reconciler(&fleet, spec, upgrader);
    reconciler.run_ticks(1);
    let probed = reconciler
        .transcript()
        .iter()
        .find(|l| l.contains("] out-of-spec "))
        .unwrap_or_else(|| panic!("no node out of spec: {:?}", reconciler.transcript()));
    assert!(
        probed.contains("tcb bl1-tee0-snp8-ucode115 below required minimum"),
        "{probed}"
    );
    assert_eq!(reconciler.quarantined().len(), 1);
}

#[test]
fn certificates_renew_ahead_of_not_after_on_a_long_horizon() {
    let mut world = SimWorld::new(RECONCILE_SEED ^ 3);
    let fleet = world
        .deploy_fleet("pad.example.org", 3, demo_app())
        .unwrap();

    let next_spec = world.image_spec("pad.example.org", &["web-service"]);
    let upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
    let mut spec = FleetSpec::new("pad.example.org", fleet.golden_measurement);
    spec.tick_interval_ms = 24 * 3_600_000; // daily ticks
    let mut reconciler = world.reconciler(&fleet, spec, upgrader);

    // ~200 simulated days: the 90-day certificate must renew twice, and
    // no tick may ever observe the chain past its `not_after_ms`.
    for day in 0..200 {
        reconciler.tick();
        let now_ms = world.clock.now_us() / 1000;
        assert!(
            reconciler.chain().leaf().not_after_ms > now_ms,
            "day {day}: certificate aged out unrenewed"
        );
    }
    let renewals = reconciler
        .transcript()
        .iter()
        .filter(|l| l.contains("] renew not_after_ms="))
        .count();
    assert!(renewals >= 2, "expected >=2 renewals, got {renewals}");

    // The fleet still serves with the renewed chain.
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    assert!(extension.browse("pad.example.org", "/healthz").is_ok());
}

/// One full reconcile scenario — partition/heal flap, then a rolling
/// upgrade to a new image — returning the decision-transcript digest.
fn scenario_digest() -> String {
    let mut world = SimWorld::new(RECONCILE_SEED ^ 4);
    world.net.set_fault_seed(RECONCILE_SEED ^ 4);
    let fleet = world
        .deploy_fleet_in_subnets("pad.example.org", &[(113, 2), (114, 1)], demo_app())
        .unwrap();

    let next_spec = world.image_spec("pad.example.org", &["web-service", "metrics-agent"]);
    let (_, target) = world.build(&next_spec).unwrap();
    let upgrader = world.fleet_upgrader(&fleet, demo_app(), next_spec);
    let mut spec = FleetSpec::new("pad.example.org", target);
    spec.tick_interval_ms = 60_000;
    let mut reconciler = world.reconciler(&fleet, spec, upgrader);

    // A scheduled-heal partition flap rides along under the rollout.
    let now_us = world.clock.now_us();
    world.net.install_fault_domain(
        FaultDomain::partition("rack-114", "203.0.114.")
            .starting_at_us(now_us)
            .healing_at_us(now_us + 240_000_000),
    );
    reconciler.run_until_converged(60);
    assert_eq!(reconciler.phase(), RolloutPhase::Complete);
    assert!(reconciler.quarantined().is_empty());
    reconciler.transcript_digest()
}

#[test]
fn transcripts_are_byte_identical_across_threads_and_fabric_modes() {
    let expected = scenario_digest();
    for threads in [4usize, 16] {
        let digests: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(scenario_digest)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for digest in digests {
            assert_eq!(digest, expected, "transcript diverged at {threads} threads");
        }
    }
}
