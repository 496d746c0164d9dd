//! Verifier-at-line-rate guarantees: the staged `verify` pipeline, the
//! generation-stamped verdict cache, and the swarm benchmark's
//! determinism.
//!
//! The security claims under test:
//!
//! * a **cache hit performs zero signature verifications** while the
//!   per-connection TLS-binding stage still runs every time
//!   (counter-asserted);
//! * `revoke_measurement`, `register_site`, and TCB-floor changes bump
//!   the cache generation, so **no cached verdict survives** any trust
//!   mutation;
//! * a changed reported TCB is a different `VerdictKey` — the cache can
//!   never serve an old platform's verdict for a patched one;
//! * the swarm transcript is **byte-identical** across 1/4/16 threads.

use std::sync::Arc;

use revelio::evidence::{tls_binding_report_data, EvidenceBundle};
use revelio::extension::WebExtension;
use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio::RevelioError;
use revelio_bench::run_swarm;
use revelio_crypto::ed25519::SigningKey;
use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
use sev_snp::measurement::Measurement;
use sev_snp::platform::SnpPlatform;
use sev_snp::report::ReportData;
use sev_snp::verify::SIGNATURE_CHECKS_PER_VERIFY;

const DOMAIN: &str = "swarm.example.org";

const HITS: &str = "revelio_extension_verify_cache_hits_total";
const MISSES: &str = "revelio_extension_verify_cache_misses_total";
const INVALIDATIONS: &str = "revelio_extension_verify_cache_invalidations_total";
const SIGNATURES: &str = "revelio_extension_signature_verifications_total";
const TLS_CHECKS: &str = "revelio_extension_tls_binding_checks_total";

/// A deployed one-node world with a registered extension.
fn attested_world(seed: u64) -> (SimWorld, WebExtension, Measurement) {
    let mut world = SimWorld::new(seed);
    let fleet = world.deploy_fleet(DOMAIN, 1, demo_app()).unwrap();
    let extension = world.extension();
    extension.register_site(DOMAIN, vec![fleet.golden_measurement]);
    (world, extension, fleet.golden_measurement)
}

/// A second browse of the same site is a verdict-cache hit: no new
/// signature verifications, no KDS traffic — but the TLS-binding check
/// still ran for the new connection.
#[test]
fn second_browse_hits_cache_with_zero_new_signature_checks() {
    let (world, extension, _) = attested_world(0xCA11);

    extension.browse(DOMAIN, "/").unwrap();
    let sigs_after_cold = world.telemetry.counter(SIGNATURES);
    assert_eq!(world.telemetry.counter(MISSES), 1);
    assert_eq!(world.telemetry.counter(HITS), 0);
    assert_eq!(sigs_after_cold, SIGNATURE_CHECKS_PER_VERIFY);
    assert_eq!(world.telemetry.counter(TLS_CHECKS), 1);

    let warm = extension.browse(DOMAIN, "/").unwrap();
    assert_eq!(world.telemetry.counter(HITS), 1);
    assert_eq!(world.telemetry.counter(MISSES), 1);
    // The line-rate claim, counter-gated: the signature counter did not
    // move across the cache-hit browse...
    assert_eq!(world.telemetry.counter(SIGNATURES), sigs_after_cold);
    // ...while the per-connection stage ran again regardless.
    assert_eq!(world.telemetry.counter(TLS_CHECKS), 2);
    // A hit also skips the KDS: the warm browse recorded no KDS time.
    assert_eq!(warm.timing.kds_ms, 0.0);
}

/// The TLS-binding stage runs per connection even when stage one is a
/// cache hit: a hit must never vouch for the *connection*.
#[test]
fn tls_binding_checked_per_connection_even_on_cache_hit() {
    let (world, extension, _) = attested_world(0xCA12);
    let session = extension.open_monitored(DOMAIN).unwrap();

    let hits_before = world.telemetry.counter(HITS);
    let sigs_before = world.telemetry.counter(SIGNATURES);
    let tls_before = world.telemetry.counter(TLS_CHECKS);

    // Same evidence, wrong connection key: stage one hits the cache,
    // stage two must still reject.
    let attacker = SigningKey::from_seed(&[0xAB; 32]);
    let err = extension
        .verify(DOMAIN, session.evidence(), &attacker.verifying_key())
        .unwrap_err();
    assert_eq!(err, RevelioError::TlsBindingMismatch);
    assert_eq!(world.telemetry.counter(HITS), hits_before + 1);
    assert_eq!(world.telemetry.counter(SIGNATURES), sigs_before);
    assert_eq!(world.telemetry.counter(TLS_CHECKS), tls_before + 1);

    // The right key passes, still without any signature work.
    extension
        .verify(DOMAIN, session.evidence(), &session.pinned_key())
        .unwrap();
    assert_eq!(world.telemetry.counter(SIGNATURES), sigs_before);
}

/// Revoking any measurement bumps the generation: every cached verdict
/// becomes unreachable, and the next verification pays the full
/// pipeline again.
#[test]
fn revocation_invalidates_every_cached_verdict() {
    let (world, extension, _) = attested_world(0xCA13);
    let session = extension.open_monitored(DOMAIN).unwrap();
    let generation = extension.verdict_generation();
    assert_eq!(extension.cached_verdicts(), 1);

    // Revoke a measurement *other* than the golden one: trust in the
    // cached verdict is untouched semantically, but the generation bump
    // still kills it — invalidation is deliberately coarse.
    extension.revoke_measurement(DOMAIN, Measurement::from_bytes([0xEE; 48]));
    assert_eq!(extension.verdict_generation(), generation + 1);
    assert_eq!(extension.cached_verdicts(), 0);
    assert!(world.telemetry.counter(INVALIDATIONS) >= 1);

    let sigs_before = world.telemetry.counter(SIGNATURES);
    let misses_before = world.telemetry.counter(MISSES);
    let verdict = extension
        .verify(DOMAIN, session.evidence(), &session.pinned_key())
        .unwrap();
    assert!(!verdict.cached);
    assert_eq!(world.telemetry.counter(MISSES), misses_before + 1);
    assert_eq!(
        world.telemetry.counter(SIGNATURES),
        sigs_before + SIGNATURE_CHECKS_PER_VERIFY
    );
}

/// Revoking the *golden* measurement itself: the cached verdict must not
/// survive, and the next verification rejects outright.
#[test]
fn revoking_the_trusted_measurement_rejects_after_a_cached_accept() {
    let (_world, extension, golden) = attested_world(0xCA14);
    let session = extension.open_monitored(DOMAIN).unwrap();
    // Sanity: the verdict is cached and accepted.
    assert!(
        extension
            .verify(DOMAIN, session.evidence(), &session.pinned_key())
            .unwrap()
            .cached
    );

    extension.revoke_measurement(DOMAIN, golden);
    let err = extension
        .verify_evidence(DOMAIN, session.evidence())
        .unwrap_err();
    assert!(matches!(err, RevelioError::UnknownMeasurement(_)));
}

/// A changed reported TCB (platform firmware update) is a different
/// `VerdictKey`: the old platform's cached verdict is never served for
/// the patched platform's evidence, which pays a full verification.
#[test]
fn reported_tcb_change_is_a_cache_miss() {
    let world = SimWorld::new(0xCA15);
    let extension = world.extension();
    let chip = ChipId::from_seed(4242);
    let tls_key = SigningKey::from_seed(&[7; 32]);
    let report_data = ReportData::from_slice(&tls_binding_report_data(&tls_key.verifying_key()));

    // Same chip, same firmware (same measurement), two TCB levels.
    let bundle_at = |tcb: TcbVersion| {
        let platform = SnpPlatform::new(Arc::clone(&world.amd), chip, tcb);
        let guest = platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let report = guest.attestation_report(report_data);
        let chain = world.kds.vcek_chain(&chip, &tcb).unwrap();
        EvidenceBundle { report, chain }
    };
    let old = bundle_at(TcbVersion::new(1, 0, 8, 115));
    let new = bundle_at(TcbVersion::new(1, 0, 9, 115));
    assert_eq!(old.report.report.measurement, new.report.report.measurement);
    extension.register_site("tcb.example", vec![old.report.report.measurement]);

    let first = extension.verify_evidence("tcb.example", &old).unwrap();
    assert!(!first.cached);
    let sigs_after_old = world.telemetry.counter(SIGNATURES);

    // The updated platform's evidence misses: full pipeline again.
    let second = extension.verify_evidence("tcb.example", &new).unwrap();
    assert!(!second.cached);
    assert_eq!(
        world.telemetry.counter(SIGNATURES),
        sigs_after_old + SIGNATURE_CHECKS_PER_VERIFY
    );
    // While the *old* evidence still hits — both verdicts coexist under
    // distinct keys.
    assert!(
        extension
            .verify_evidence("tcb.example", &old)
            .unwrap()
            .cached
    );
}

/// Registering another site bumps the generation too: registration is a
/// trust mutation, and no verdict computed before it is reused after.
#[test]
fn registration_bumps_generation_and_clears_cache() {
    let (world, extension, _) = attested_world(0xCA16);
    let session = extension.open_monitored(DOMAIN).unwrap();
    let generation = extension.verdict_generation();
    assert_eq!(extension.cached_verdicts(), 1);

    extension.register_site("other.example", vec![Measurement::from_bytes([1; 48])]);
    assert_eq!(extension.verdict_generation(), generation + 1);
    assert_eq!(extension.cached_verdicts(), 0);

    let misses_before = world.telemetry.counter(MISSES);
    assert!(
        !extension
            .verify(DOMAIN, session.evidence(), &session.pinned_key())
            .unwrap()
            .cached
    );
    assert_eq!(world.telemetry.counter(MISSES), misses_before + 1);
}

/// Raising the TCB floor invalidates cached verdicts and rejects
/// evidence below the floor on the re-verification.
#[test]
fn tcb_floor_change_invalidates_and_enforces() {
    let (_world, extension, _) = attested_world(0xCA17);
    let session = extension.open_monitored(DOMAIN).unwrap();
    assert_eq!(extension.cached_verdicts(), 1);
    let reported = session.evidence().report.report.reported_tcb;

    // Floor above the fleet's reported TCB: cache cleared, re-verify
    // fails the policy check (no stale accept survives the change).
    extension.set_tcb_floor(Some(TcbVersion::new(
        reported.bootloader,
        reported.tee,
        reported.snp + 1,
        reported.microcode,
    )));
    assert_eq!(extension.cached_verdicts(), 0);
    assert!(matches!(
        extension.verify_evidence(DOMAIN, session.evidence()),
        Err(RevelioError::EvidenceRejected(_))
    ));

    // Dropping the floor again also bumps; the evidence verifies afresh.
    extension.set_tcb_floor(None);
    assert!(
        !extension
            .verify_evidence(DOMAIN, session.evidence())
            .unwrap()
            .cached
    );
}

/// The shared-extension contract the swarm depends on, enforced at
/// compile time.
#[test]
fn extension_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WebExtension>();
}

/// The swarm's per-session transcript is byte-identical across 1/4/16
/// driver threads, and every run proves the
/// line-rate claim: zero hot-phase signature verifications, hit rate
/// 1.0, one TLS-binding check per session.
#[test]
fn swarm_transcripts_identical_across_threads_and_modes() {
    const SESSIONS: usize = 600;
    const NODES: usize = 2;
    let mut digests = Vec::new();
    for threads in [1usize, 4, 16] {
        let report = run_swarm(SESSIONS, threads, NODES);
        assert_eq!(
            report.metric("signature_checks"),
            Some(0.0),
            "{threads}t: hot phase performed signature work"
        );
        assert_eq!(
            report.metric("cache_misses"),
            Some(0.0),
            "{threads}t: hot-phase miss"
        );
        assert_eq!(
            report.metric("tls_binding_checks"),
            Some(SESSIONS as f64),
            "{threads}t: TLS binding must run once per session"
        );
        let digest = report
            .transcript_sha256
            .expect("swarm reports a transcript");
        digests.push((threads, digest));
    }
    let reference = digests[0].1.clone();
    for (threads, digest) in &digests {
        assert_eq!(
            digest, &reference,
            "transcript diverged with {threads} threads"
        );
    }
}
