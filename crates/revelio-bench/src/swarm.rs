//! The swarm benchmark: verifier throughput at browser-population scale.
//!
//! ROADMAP's "Verifier at line rate" scenario: a shared-cert fleet
//! serves a population of monitored sessions that all re-run the staged
//! verification on every request. The cacheable stage
//! (`WebExtension::verify_evidence`) hits the generation-stamped verdict
//! cache, so the steady state performs **zero signature verifications**
//! and no KDS traffic — only the per-connection TLS-binding stage runs
//! per session. This module measures exactly that claim:
//!
//! * **cold verify** — fresh extensions (empty verdict *and* VCEK
//!   caches) timing the full pipeline: KDS round trip plus four
//!   signature equations (batched);
//! * **hot sessions** — one shared extension driven by N OS threads,
//!   each session re-verifying its evidence (a verdict-cache hit) and
//!   performing one monitored GET;
//! * **counter proof** — the telemetry deltas across the hot phase:
//!   `revelio_extension_signature_verifications_total` must not move,
//!   while `revelio_extension_tls_binding_checks_total` must advance
//!   once per session.
//!
//! The hot phase also emits a transcript digest: the per-session
//! records (index, slot, cache bit, HTTP status, body length — no
//! timings) hashed in global session order. The digest is byte-identical
//! across thread counts; the determinism suite pins that.
//!
//! A **reconnect phase** follows the hot phase and measures
//! revocation-safe TLS session resumption: the same monitored session is
//! reconnected with the ticket cache cleared (full handshake + evidence
//! fetch + staged verify) and again with a warm ticket (abbreviated
//! handshake). Thread-local crypto counters prove the resumed path
//! performs exactly one scalar multiplication per reconnect — the
//! precomputed fixed-base fallback ephemeral in the ClientHello — and
//! zero evidence fetches; a generation bump (revocation) then forces the
//! next reconnect back through the full re-attestation path.

use std::time::Instant;

use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_crypto::metrics::thread_scalar_mul_ops;
use revelio_crypto::sha2::Sha256;
use sev_snp::measurement::Measurement;

use crate::report::{BenchReport, Cmp, Gate};
use crate::{dim_from_env, percentile};

/// The domain the swarm fleet serves.
pub const SWARM_DOMAIN: &str = "swarm.example.org";

/// The world seed of the swarm run (pinned: the transcript digest is
/// part of the determinism suite).
pub const SWARM_SEED: u64 = 0x5_3A12;

/// How many fresh-extension cold verifications establish the baseline
/// (fewer when the run itself is small — the baseline must not dominate
/// a smoke-scale run).
const COLD_SAMPLES: usize = 32;

/// Reconnects per reconnect-phase arm (full baseline and resumed).
const RECONNECT_SAMPLES: usize = 32;

/// Swarm dimensions: `(sessions, threads, nodes)`, defaulting to the
/// paper-scale run (1M monitored sessions, 16 OS threads, 4-node
/// shared-cert fleet) and overridable via `REVELIO_SWARM_SESSIONS`,
/// `REVELIO_SWARM_THREADS`, and `REVELIO_SWARM_NODES` for CI smoke
/// scale.
///
/// # Errors
///
/// Names the first override that is not a positive integer.
pub fn swarm_dimensions_from_env() -> Result<(usize, usize, usize), String> {
    Ok((
        dim_from_env("REVELIO_SWARM_SESSIONS", 1_000_000)?,
        dim_from_env("REVELIO_SWARM_THREADS", 16)?,
        dim_from_env("REVELIO_SWARM_NODES", 4)?,
    ))
}

/// The swarm gates:
///
/// * a cache-hit session (staged verify **plus** a monitored GET) is
///   faster at p50 than a cold verify alone;
/// * the hot phase performed zero signature verifications, kept a hit
///   rate of at least 99%, and ran the TLS-binding check once per
///   session regardless;
/// * a resumed reconnect is faster at p50 than a full one, at least 99%
///   of warm reconnects resumed, and the resumed arm charged exactly
///   one scalar multiplication per reconnect (the precomputed
///   fixed-base fallback ephemeral — zero DH or signature work) and
///   fetched no evidence;
/// * after the generation bump nothing resumed, and the next reconnect
///   re-attested (fetched evidence).
#[must_use]
pub fn gates() -> Vec<Gate> {
    vec![
        Gate::metric("session_p50_us", Cmp::Lt, "cold_verify_p50_us"),
        Gate::value("signature_checks", Cmp::Eq, 0.0),
        Gate::value("cache_hit_rate", Cmp::Ge, 0.99),
        Gate::metric("tls_binding_checks", Cmp::Eq, "hot_sessions"),
        Gate::metric("resumed_reconnect_p50_us", Cmp::Lt, "full_reconnect_p50_us"),
        Gate::value("resumption_rate", Cmp::Ge, 0.99),
        Gate::metric("resumed_scalar_muls", Cmp::Eq, "resumed_reconnects"),
        Gate::value("resumed_evidence_fetches", Cmp::Eq, 0.0),
        Gate::value("post_bump_resumptions", Cmp::Eq, 0.0),
        Gate::value("post_bump_evidence_fetches", Cmp::Gt, 0.0),
    ]
}

/// One hot-phase session's transcript record. Deliberately excludes
/// every timing: the transcript asserts *what happened*, which is
/// deterministic, never *how fast*, which is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SessionRecord {
    /// Global session index (0..sessions).
    idx: u64,
    /// The session slot served (idx % nodes).
    slot: u64,
    /// Whether the cacheable stage was served from the verdict cache.
    cached: bool,
    /// HTTP status of the monitored GET.
    status: u16,
    /// Response body length, bytes.
    body_len: u64,
}

impl SessionRecord {
    fn write_to(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.idx.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
        out.push(u8::from(self.cached));
        out.extend_from_slice(&self.status.to_le_bytes());
        out.extend_from_slice(&self.body_len.to_le_bytes());
    }
}

/// The verdict-cache counters the swarm proves its claims with, as
/// `(metric, unit, telemetry counter)`; each is reported as its delta
/// across the hot phase.
const HOT_COUNTERS: [(&str, &str, &str); 5] = [
    (
        "cache_hits",
        "hits",
        "revelio_extension_verify_cache_hits_total",
    ),
    (
        "cache_misses",
        "misses",
        "revelio_extension_verify_cache_misses_total",
    ),
    (
        "cache_invalidations",
        "bumps",
        "revelio_extension_verify_cache_invalidations_total",
    ),
    (
        "signature_checks",
        "checks",
        "revelio_extension_signature_verifications_total",
    ),
    (
        "tls_binding_checks",
        "checks",
        "revelio_extension_tls_binding_checks_total",
    ),
];

/// Runs the swarm and reports it (mode `swarm`, gated by [`gates`]).
/// The transcript digest is SHA-256 over the per-session records in
/// global session order, byte-identical across thread counts.
///
/// # Panics
///
/// Panics if fleet deployment or any session fails — the swarm runs on
/// a clean fabric, so a failure is a harness bug, not a measurement.
#[must_use]
pub fn run_swarm(sessions: usize, threads: usize, nodes: usize) -> BenchReport {
    let threads = threads.max(1);
    let mut world = SimWorld::new(SWARM_SEED);
    let fleet = world
        .deploy_fleet(SWARM_DOMAIN, nodes, demo_app())
        .expect("swarm fleet deploys on a clean fabric");
    let extension = world.extension();
    extension.register_site(SWARM_DOMAIN, vec![fleet.golden_measurement]);

    // A probe session supplies the evidence bundle the cold baseline
    // re-verifies (and pre-warms nothing beyond its own verdict entry);
    // the reconnect phase later drives it through both reconnect arms.
    let mut probe = extension
        .open_monitored(SWARM_DOMAIN)
        .expect("probe session attests");

    // Cold baseline: each sample is a fresh extension — empty verdict
    // cache, empty VCEK cache — timing one full staged verification:
    // KDS round trip, batched chain + report signature check, golden
    // lookup, TLS binding.
    let cold_samples = COLD_SAMPLES.min((sessions / 64).max(1));
    let mut cold_us: Vec<f64> = (0..cold_samples)
        .map(|_| {
            let cold = world.extension();
            cold.register_site(SWARM_DOMAIN, vec![fleet.golden_measurement]);
            let t0 = Instant::now();
            cold.verify(SWARM_DOMAIN, probe.evidence(), &probe.pinned_key())
                .expect("cold verify succeeds");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    cold_us.sort_by(|a, b| a.total_cmp(b));

    // Warm-up: every thread owns one monitored session per fleet slot
    // (sessions cannot be shared across threads — each holds a live
    // connection). The first open per distinct evidence is a verdict
    // miss; the rest hit.
    let mut pools: Vec<Vec<revelio::extension::MonitoredSession>> = (0..threads)
        .map(|_| {
            (0..nodes)
                .map(|_| {
                    extension
                        .open_monitored(SWARM_DOMAIN)
                        .expect("warm-up session attests")
                })
                .collect()
        })
        .collect();

    // Hot phase: `sessions` monitored sessions striped across the
    // threads (session i belongs to thread i % threads and fleet slot
    // i % nodes), each re-running the staged verification — a verdict
    // cache hit — plus one monitored GET.
    let baseline = HOT_COUNTERS.map(|(_, _, counter)| world.telemetry.counter(counter));
    let total = sessions as u64;
    let hot_start = Instant::now();
    let per_thread: Vec<(Vec<SessionRecord>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .drain(..)
            .enumerate()
            .map(|(t, mut pool)| {
                let extension = &extension;
                s.spawn(move || {
                    let mut records = Vec::with_capacity(sessions / threads + 1);
                    let mut latencies = Vec::with_capacity(sessions / threads + 1);
                    let mut idx = t as u64;
                    while idx < total {
                        let slot = (idx % nodes as u64) as usize;
                        let monitored = &mut pool[slot];
                        let t0 = Instant::now();
                        let verdict = extension
                            .verify(
                                monitored.domain(),
                                monitored.evidence(),
                                &monitored.pinned_key(),
                            )
                            .expect("hot-phase verify succeeds");
                        let response = monitored.request("/").expect("hot-phase request");
                        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                        records.push(SessionRecord {
                            idx,
                            slot: slot as u64,
                            cached: verdict.cached,
                            status: response.status,
                            body_len: response.body.len() as u64,
                        });
                        idx += threads as u64;
                    }
                    (records, latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("swarm thread"))
            .collect()
    });
    let hot_elapsed = hot_start.elapsed().as_secs_f64();
    let mut hot_deltas = baseline;
    for (delta, (_, _, counter)) in hot_deltas.iter_mut().zip(HOT_COUNTERS) {
        *delta = world.telemetry.counter(counter) - *delta;
    }

    // ── Reconnect phase: revocation-safe session resumption ──
    //
    // Full arm: forget the stored ticket before every reconnect, so each
    // one pays the complete path — TLS handshake (DH + transcript
    // signature + chain verification), evidence fetch, staged verify.
    let reconnect_samples = RECONNECT_SAMPLES.min(sessions.max(1));
    let mut full_us: Vec<f64> = Vec::with_capacity(reconnect_samples);
    for _ in 0..reconnect_samples {
        extension.clear_resumption_cache();
        let t0 = Instant::now();
        extension
            .reconnect(&mut probe)
            .expect("full reconnect succeeds");
        full_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    full_us.sort_by(|a, b| a.total_cmp(b));

    // Resumed arm: the last full reconnect left a fresh ticket on file.
    // Crypto work is counted with *thread-local* counters: the simulated
    // server handler runs synchronously on this thread, so the deltas
    // cover both ends of every handshake and nothing else.
    let resumed_counter = "revelio_extension_resumed_reconnects_total";
    let evidence_counter = "revelio_node_evidence_requests_total";
    let resumed_before = world.telemetry.counter(resumed_counter);
    let evidence_before = world.telemetry.counter(evidence_counter);
    let scalar_before = thread_scalar_mul_ops();
    let mut resumed_us: Vec<f64> = Vec::with_capacity(reconnect_samples);
    for _ in 0..reconnect_samples {
        let t0 = Instant::now();
        extension
            .reconnect(&mut probe)
            .expect("resumed reconnect succeeds");
        resumed_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    resumed_us.sort_by(|a, b| a.total_cmp(b));
    let resumed_reconnects = world.telemetry.counter(resumed_counter) - resumed_before;
    let resumed_scalar_muls = thread_scalar_mul_ops() - scalar_before;
    let resumed_evidence_fetches = world.telemetry.counter(evidence_counter) - evidence_before;

    // Generation bump: revoking a measurement (one the fleet never ran,
    // so trust in the golden one is semantically untouched) bumps the
    // verdict generation — the outstanding ticket's stamp goes stale and
    // the next reconnect must re-attest through the full path.
    let resumed_before_bump = world.telemetry.counter(resumed_counter);
    let evidence_before_bump = world.telemetry.counter(evidence_counter);
    extension.revoke_measurement(SWARM_DOMAIN, Measurement::from_bytes([0xEE; 48]));
    extension
        .reconnect(&mut probe)
        .expect("post-bump reconnect re-attests");
    let post_bump_resumptions = world.telemetry.counter(resumed_counter) - resumed_before_bump;
    let post_bump_evidence_fetches =
        world.telemetry.counter(evidence_counter) - evidence_before_bump;

    // Merge the striped records back into global session order and hash
    // them: the digest is the determinism witness.
    let mut records: Vec<SessionRecord> = Vec::with_capacity(sessions);
    let mut latencies: Vec<f64> = Vec::with_capacity(sessions);
    for (thread_records, thread_latencies) in per_thread {
        records.extend(thread_records);
        latencies.extend(thread_latencies);
    }
    records.sort_by_key(|r| r.idx);
    let mut transcript = Vec::with_capacity(records.len() * 27);
    for record in &records {
        record.write_to(&mut transcript);
    }
    let digest = Sha256::digest(&transcript);
    latencies.sort_by(|a, b| a.total_cmp(b));

    let mut report = BenchReport::new(
        "swarm",
        &[
            ("sessions", total),
            ("threads", threads as u64),
            ("nodes", nodes as u64),
            ("cold_samples", cold_samples as u64),
            ("reconnect_samples", reconnect_samples as u64),
        ],
    );
    report.count("hot_sessions", "sessions", records.len() as f64);
    // Cold staged verify: KDS round trip + batched signature checks +
    // golden lookup + TLS binding.
    report.wall("cold_verify_p50_us", "us", percentile(&cold_us, 0.50));
    report.wall("cold_verify_p99_us", "us", percentile(&cold_us, 0.99));
    // Hot session: cache-hit staged verify + one monitored GET.
    report.wall("session_p50_us", "us", percentile(&latencies, 0.50));
    report.wall("session_p99_us", "us", percentile(&latencies, 0.99));
    report.wall(
        "verify_throughput_per_sec",
        "1/s",
        total as f64 / hot_elapsed.max(1e-9),
    );
    report.wall("hot_elapsed_secs", "s", hot_elapsed);
    for ((name, unit, _), delta) in HOT_COUNTERS.into_iter().zip(hot_deltas) {
        report.count(name, unit, delta as f64);
    }
    let [hits, misses, ..] = hot_deltas;
    let attempted = hits + misses;
    let hit_rate = if attempted == 0 {
        0.0
    } else {
        hits as f64 / attempted as f64
    };
    report.count("cache_hit_rate", "ratio", hit_rate);
    report.wall("full_reconnect_p50_us", "us", percentile(&full_us, 0.50));
    report.wall("full_reconnect_p99_us", "us", percentile(&full_us, 0.99));
    report.wall(
        "resumed_reconnect_p50_us",
        "us",
        percentile(&resumed_us, 0.50),
    );
    report.wall(
        "resumed_reconnect_p99_us",
        "us",
        percentile(&resumed_us, 0.99),
    );
    report.count(
        "resumed_reconnects",
        "reconnects",
        resumed_reconnects as f64,
    );
    report.count(
        "resumption_rate",
        "ratio",
        resumed_reconnects as f64 / reconnect_samples as f64,
    );
    report.count("resumed_scalar_muls", "muls", resumed_scalar_muls as f64);
    report.count(
        "resumed_evidence_fetches",
        "fetches",
        resumed_evidence_fetches as f64,
    );
    report.count(
        "post_bump_resumptions",
        "reconnects",
        post_bump_resumptions as f64,
    );
    report.count(
        "post_bump_evidence_fetches",
        "fetches",
        post_bump_evidence_fetches as f64,
    );
    report.transcript_sha256 = Some(revelio_crypto::hex::encode(digest));
    report.gates = gates();
    report
}
