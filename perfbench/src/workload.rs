//! The four workloads: one operation kind each, run as a closed loop by
//! one client thread. Every op checks its own output; a wrong output
//! counts as a failed op and never aborts the run.
//!
//! Each workload has an untraced op (the program's public entry points,
//! used for the end-to-end metrics) and a traced op that drives the same
//! work through the public calls one level down, with a benchmark span
//! around each call. NOTES.md says why each workload exists.

use std::time::{Duration, Instant};

use revelio::evidence::EvidenceBundle;
use revelio::extension::{BrowseVerdict, MonitoredSession};
use revelio::kds_http::{KdsHttpClient, KDS_ADDRESS};
use revelio::node::demo_app;
use revelio::registry::GoldenSet;
use revelio::world::SimWorld;
use revelio::RevelioError;
use revelio_crypto::metrics::{thread_point_decompressions, thread_scalar_mul_ops};
use revelio_http::client::HttpsClient;
use revelio_http::message::{Request, Response};
use revelio_http::WELL_KNOWN_ATTESTATION_PATH;
use revelio_tls::{ResumptionState, TlsClientConfig};
use sev_snp::verify::ReportVerifier;

use crate::fixture::{Fixture, Inputs, DOMAIN, FLEET_NODES, INDEX, TRANSFER_BYTES};
use crate::trace::{self, span};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AttestCold,
    Revisit,
    Transfer,
    Provision,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AttestCold,
        Workload::Revisit,
        Workload::Transfer,
        Workload::Provision,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::AttestCold => "attest-cold",
            Workload::Revisit => "revisit",
            Workload::Transfer => "transfer",
            Workload::Provision => "provision",
        }
    }

    /// `peak_rss_mb` is read when this many timed ops have completed
    /// (memory grows with ops completed, so it compares only at equal
    /// op counts), or at the end of a run that stops short of it.
    pub fn rss_checkpoint(self) -> usize {
        match self {
            Workload::AttestCold => 1_000,
            Workload::Revisit => 20_000,
            Workload::Transfer => 40,
            Workload::Provision => 60,
        }
    }

    /// How this workload's op latency follows the host probe: an op takes
    /// `(probe / host::NOMINAL_US) ^ sensitivity` times its contended
    /// latency. Fitted as the slope of log latency on log probe reading
    /// across runs and 0.5 s windows that caught both host states
    /// (attest-cold 0.69, revisit 0.71, transfer 0.47, provision 0.62).
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::AttestCold | Workload::Revisit => 0.7,
            Workload::Transfer => 0.5,
            Workload::Provision => 0.6,
        }
    }

    /// Ops in the count pass that gives the exact `*_per_op` counts.
    pub fn count_ops(self) -> usize {
        match self {
            Workload::AttestCold => 8,
            Workload::Revisit => 32,
            Workload::Transfer | Workload::Provision => 2,
        }
    }

    /// Untraced ops whose RSS growth gives `mem.retained_kb_per_op`: a
    /// fixed count, about a second of work.
    pub fn mem_ops(self) -> usize {
        match self {
            Workload::AttestCold => 250,
            Workload::Revisit => 5_000,
            Workload::Transfer => 8,
            Workload::Provision => 12,
        }
    }

    /// Traced ops of this workload the probe suite runs when another
    /// workload is traced, so every per-layer metric has samples.
    pub fn probe_ops(self) -> usize {
        match self {
            Workload::AttestCold => 12,
            Workload::Revisit => 48,
            Workload::Transfer => 3,
            Workload::Provision => 2,
        }
    }
}

/// Exact op counts: thread-local crypto counters, world telemetry
/// counters, block-device I/O and recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub scalar_muls: u64,
    pub point_decompressions: u64,
    pub signature_checks: u64,
    pub kds_requests: u64,
    pub evidence_requests: u64,
    pub handshakes: u64,
    pub resumptions: u64,
    pub block_reads: u64,
    pub block_writes: u64,
    pub spans: u64,
}

impl Counts {
    fn take(world: Option<&SimWorld>, block_io: (u64, u64)) -> Self {
        let telemetry = world.map(|w| &w.telemetry);
        let counter = |name: &str| telemetry.map_or(0, |t| t.counter(name));
        Counts {
            scalar_muls: thread_scalar_mul_ops(),
            point_decompressions: thread_point_decompressions(),
            signature_checks: counter("revelio_extension_signature_verifications_total"),
            kds_requests: counter("revelio_sevsnp_kds_vcek_requests_total"),
            evidence_requests: counter("revelio_node_evidence_requests_total"),
            handshakes: counter("revelio_tls_handshakes_total"),
            resumptions: counter("revelio_tls_resumptions_total"),
            block_reads: block_io.0,
            block_writes: block_io.1,
            spans: telemetry.map_or(0, |t| t.span_count() as u64),
        }
    }

    fn minus(self, before: Counts) -> Counts {
        Counts {
            scalar_muls: self.scalar_muls - before.scalar_muls,
            point_decompressions: self.point_decompressions - before.point_decompressions,
            signature_checks: self.signature_checks - before.signature_checks,
            kds_requests: self.kds_requests - before.kds_requests,
            evidence_requests: self.evidence_requests - before.evidence_requests,
            handshakes: self.handshakes - before.handshakes,
            resumptions: self.resumptions - before.resumptions,
            block_reads: self.block_reads - before.block_reads,
            block_writes: self.block_writes - before.block_writes,
            spans: self.spans - before.spans,
        }
    }

    pub fn plus(self, other: Counts) -> Counts {
        Counts {
            scalar_muls: self.scalar_muls + other.scalar_muls,
            point_decompressions: self.point_decompressions + other.point_decompressions,
            signature_checks: self.signature_checks + other.signature_checks,
            kds_requests: self.kds_requests + other.kds_requests,
            evidence_requests: self.evidence_requests + other.evidence_requests,
            handshakes: self.handshakes + other.handshakes,
            resumptions: self.resumptions + other.resumptions,
            block_reads: self.block_reads + other.block_reads,
            block_writes: self.block_writes + other.block_writes,
            spans: self.spans + other.spans,
        }
    }
}

/// What one untraced op did.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    pub ok: bool,
    pub latency: Duration,
    /// Sim-clock time the op took: the latency the paper's model gives.
    pub sim_us: u64,
    /// Time in the upload (POST) and download (GET) calls; transfer only.
    pub post: Duration,
    pub get: Duration,
    /// Set when the op ran with counting on.
    pub counts: Option<Counts>,
}

/// State the revisit traced op needs: its own HTTPS client, a ticket
/// earned by a full handshake, and the evidence verified then.
struct RevisitTrace {
    client: HttpsClient,
    resumption: ResumptionState,
    evidence: EvidenceBundle,
}

/// A workload bound to its fixture.
pub struct Bench {
    pub workload: Workload,
    pub fx: Fixture,
    seed: u64,
    next_op: u64,
    session: Option<MonitoredSession>,
    revisit: Option<RevisitTrace>,
}

impl Bench {
    /// Set-up: the fixture, the workload's own state, and one warm-up op
    /// that fills lazy tables (precomputed kernels, caches, tickets).
    pub fn setup(workload: Workload, seed: u64, inputs: &Inputs) -> Result<Self, String> {
        let fx = Fixture::new(seed, inputs)?;
        let mut bench = Bench {
            workload,
            fx,
            seed,
            next_op: 0,
            session: None,
            revisit: None,
        };
        match workload {
            // The returning visitor's first, full visit leaves a ticket.
            Workload::Revisit => {
                bench
                    .fx
                    .extension
                    .open_monitored(DOMAIN)
                    .map_err(|e| format!("revisit first visit: {e}"))?;
            }
            Workload::Transfer => bench.open_transfer_session()?,
            Workload::AttestCold | Workload::Provision => {}
        }
        if !bench.run_op(false).ok {
            return Err(format!("{} warm-up op failed", workload.name()));
        }
        Ok(bench)
    }

    fn open_transfer_session(&mut self) -> Result<(), String> {
        let session = self
            .fx
            .extension
            .open_monitored(DOMAIN)
            .map_err(|e| format!("transfer session: {e}"))?;
        self.session = Some(session);
        Ok(())
    }

    fn take_op_id(&mut self) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        id
    }

    /// One untraced op through the program's public entry points. With
    /// `count`, the op's exact counts are taken around its timed calls
    /// (output checks excluded).
    pub fn run_op(&mut self, count: bool) -> OpOutcome {
        let id = self.take_op_id();
        match self.workload {
            Workload::AttestCold => self.attest_cold(count),
            Workload::Revisit => self.revisit(count),
            Workload::Transfer => self.transfer(id, count),
            Workload::Provision => self.provision(id, count),
        }
    }

    fn attest_cold(&mut self, count: bool) -> OpOutcome {
        let world = &self.fx.world;
        let golden = self.fx.fleet.golden_measurement;
        let before = count.then(|| fixture_counts(&self.fx));
        let sim0 = world.clock.now_us();
        let start = Instant::now();
        let extension = world.extension();
        extension.register_site(DOMAIN, [golden]);
        let result = extension.browse(DOMAIN, "/");
        let latency = start.elapsed();
        let sim_us = world.clock.now_us() - sim0;
        let counts = before.map(|before| fixture_counts(&self.fx).minus(before));
        let ok = BrowseVerdict::classify(&result) == BrowseVerdict::Attested
            && result.as_ref().is_ok_and(|out| {
                out.evidence.report.report.measurement == golden
                    && out.response.status == 200
                    && out.response.body == INDEX
            });
        OpOutcome::timed(ok, latency, sim_us, counts)
    }

    fn revisit(&mut self, count: bool) -> OpOutcome {
        let world = &self.fx.world;
        let resumed_counter = "revelio_extension_resumed_opens_total";
        let resumed_before = world.telemetry.counter(resumed_counter);
        let before = count.then(|| fixture_counts(&self.fx));
        let sim0 = world.clock.now_us();
        let start = Instant::now();
        let responses = (|| {
            let mut session = self.fx.extension.open_monitored(DOMAIN)?;
            let mut responses = Vec::with_capacity(self.fx.inputs.pages.len());
            for (path, _) in &self.fx.inputs.pages {
                responses.push(session.request(path)?);
            }
            Ok::<_, RevelioError>(responses)
        })();
        let latency = start.elapsed();
        let sim_us = world.clock.now_us() - sim0;
        let counts = before.map(|before| fixture_counts(&self.fx).minus(before));
        let resumed = world.telemetry.counter(resumed_counter) == resumed_before + 1;
        let ok = resumed
            && responses.is_ok_and(|responses| {
                responses
                    .iter()
                    .zip(&self.fx.inputs.pages)
                    .all(|(response, (_, body))| response.status == 200 && response.body == *body)
            });
        OpOutcome::timed(ok, latency, sim_us, counts)
    }

    /// The upload of op `id`: the seed payload stamped with the op id, so
    /// the read-back proves this op's write landed.
    fn upload_request(&self, id: u64) -> Request {
        let mut payload = self.fx.inputs.upload.clone();
        payload[..8].copy_from_slice(&id.to_le_bytes());
        Request::post("/upload", payload)
    }

    fn transfer(&mut self, id: u64, count: bool) -> OpOutcome {
        let upload = self.upload_request(id);
        let download = Request::get("/download");
        let Some(session) = self.session.as_mut() else {
            return OpOutcome::timed(false, Duration::ZERO, 0, None);
        };
        let before = count.then(|| fixture_counts(&self.fx));
        let clock = &self.fx.world.clock;
        let sim0 = clock.now_us();
        let start = Instant::now();
        let up = session.send(&upload);
        let mid = Instant::now();
        let down = session.send(&download);
        let end = Instant::now();
        let sim_us = clock.now_us() - sim0;
        let counts = before.map(|before| fixture_counts(&self.fx).minus(before));
        OpOutcome {
            ok: transfer_ok(&self.fx, up, down, &upload, id),
            latency: end - start,
            sim_us,
            post: mid - start,
            get: end - mid,
            counts,
        }
    }

    /// A fresh world per op. Reusing one world is not possible: the
    /// world keeps node host numbers in a `u8` that wraps (see NOTES.md),
    /// and re-provisioning one domain in one world hits the ACME rate
    /// limit by design.
    fn provision(&mut self, id: u64, count: bool) -> OpOutcome {
        let before = count.then(|| Counts::take(None, (0, 0)));
        let seed = op_seed(self.seed, id);
        let start = Instant::now();
        let mut world = SimWorld::new(seed);
        let fleet = world.deploy_fleet(DOMAIN, FLEET_NODES, demo_app());
        let latency = start.elapsed();
        let sim_us = world.clock.now_us();
        let counts = before.map(|before| Counts::take(Some(&world), (0, 0)).minus(before));
        let ok = fleet.is_ok_and(|fleet| {
            let leader = fleet
                .nodes
                .iter()
                .find(|n| n.bootstrap_address() == fleet.provision.leader_bootstrap);
            fleet.provision.quarantined.is_empty()
                && leader.is_some_and(|l| {
                    world.dns.resolve(DOMAIN).ok().as_deref() == Some(l.public_address())
                })
        });
        OpOutcome::timed(ok, latency, sim_us, counts)
    }

    /// One traced op of `kind` on this fixture (the workload's own kind,
    /// or another kind run by the probe suite). Returns whether its
    /// output checked out.
    pub fn run_traced(&mut self, kind: Workload, probe: bool) -> bool {
        let id = self.take_op_id();
        if !self.ensure_traced_state(kind) {
            return false;
        }
        trace::begin_op(id, probe);
        match kind {
            Workload::AttestCold => span("op.attest_cold", || self.attest_cold_traced()),
            Workload::Revisit => span("op.revisit", || self.revisit_traced()),
            // Comparing the 1 MiB download and reading the upload back
            // cost as much as a layer call, so this op checks its output
            // outside its root span.
            Workload::Transfer => self.transfer_traced(id),
            Workload::Provision => span("op.provision", || self.provision_traced(id)),
        }
    }

    fn ensure_traced_state(&mut self, kind: Workload) -> bool {
        match kind {
            Workload::Transfer if self.session.is_none() => self.open_transfer_session().is_ok(),
            Workload::Revisit if self.revisit.is_none() => {
                self.revisit = self.revisit_trace_state();
                self.revisit.is_some()
            }
            _ => true,
        }
    }

    fn https_client(&self) -> HttpsClient {
        let world = &self.fx.world;
        let mut entropy = [0x5au8; 32];
        entropy[..8].copy_from_slice(&self.seed.to_le_bytes());
        HttpsClient::new(
            world.net.clone(),
            world.dns.clone(),
            TlsClientConfig {
                trusted_roots: world.tls_roots(),
                clock: world.clock.clone(),
                telemetry: Some(world.telemetry.clone()),
            },
            entropy,
        )
        .with_telemetry(world.telemetry.clone())
    }

    fn revisit_trace_state(&self) -> Option<RevisitTrace> {
        let client = self.https_client();
        let mut session = client.open(DOMAIN).ok()?;
        let response = session
            .send(&Request::get(WELL_KNOWN_ATTESTATION_PATH))
            .ok()?;
        let evidence = EvidenceBundle::from_bytes(&response.body).ok()?;
        self.fx
            .extension
            .verify(DOMAIN, &evidence, &session.peer_public_key())
            .ok()?;
        let resumption = session.resumption_state()?.clone();
        Some(RevisitTrace {
            client,
            resumption,
            evidence,
        })
    }

    /// `browse` one level down: handshake, evidence fetch and decode,
    /// fresh VCEK chain, batched report verification, connection check,
    /// page GET.
    fn attest_cold_traced(&self) -> bool {
        let world = &self.fx.world;
        let golden = self.fx.fleet.golden_measurement;
        let (extension, client, kds) = span("extension.new", || {
            let extension = world.extension();
            extension.register_site(DOMAIN, [golden]);
            let kds = KdsHttpClient::new(world.net.clone(), KDS_ADDRESS)
                .with_telemetry(world.telemetry.clone());
            (extension, self.https_client(), kds)
        });
        let Ok(mut session) = span("tls.full_handshake", || client.open(DOMAIN)) else {
            return false;
        };
        let evidence = span("http.evidence_fetch", || {
            let response = session
                .send(&Request::get(WELL_KNOWN_ATTESTATION_PATH))
                .ok()?;
            EvidenceBundle::from_bytes(&response.body).ok()
        });
        let Some(evidence) = evidence else {
            return false;
        };
        let report = &evidence.report.report;
        let Ok(chain) = span("kds.vcek_chain", || {
            kds.vcek_chain(&report.chip_id, &report.reported_tcb)
        }) else {
            return false;
        };
        let verified = span("snp.verify_batched", || {
            ReportVerifier::new(world.amd.ark_public_key()).verify_batched(&evidence.report, &chain)
        });
        let trusted = GoldenSet::from_measurements([golden]).is_trusted(&report.measurement);
        let bound = span("verifier.verify_connection", || {
            extension.verify_connection(&evidence, &session.peer_public_key())
        });
        let page = span("http.page_get", || session.send(&Request::get("/")));
        verified.is_ok()
            && trusted
            && bound.is_ok()
            && page.is_ok_and(|p| p.status == 200 && p.body == INDEX)
    }

    /// `open_monitored` (resumed) one level down, then the 4 page GETs.
    fn revisit_traced(&self) -> bool {
        let Some(state) = &self.revisit else {
            return false;
        };
        let Ok(mut session) = span("tls.resumed_handshake", || {
            state.client.open_resumed(DOMAIN, &state.resumption)
        }) else {
            return false;
        };
        let bound = span("verifier.verify_connection", || {
            self.fx
                .extension
                .verify_connection(&state.evidence, &session.peer_public_key())
        });
        let mut ok = session.was_resumed() && bound.is_ok();
        for (path, body) in &self.fx.inputs.pages {
            let response = span("http.small_get", || session.send(&Request::get(path)));
            ok &= response.is_ok_and(|r| r.status == 200 && r.body == *body);
        }
        ok
    }

    /// The transfer op with a span per call; the handlers add the
    /// storage spans beneath them.
    fn transfer_traced(&mut self, id: u64) -> bool {
        let upload = self.upload_request(id);
        let download = Request::get("/download");
        let Some(session) = self.session.as_mut() else {
            return false;
        };
        let (up, down) = span("op.transfer", || {
            let up = span("http.upload", || session.send(&upload));
            (up, span("http.download", || session.send(&download)))
        });
        transfer_ok(&self.fx, up, down, &upload, id)
    }

    /// `deploy_fleet` one level down: world, then build and boot per
    /// node, then the SP's provisioning run and the DNS update.
    fn provision_traced(&self, id: u64) -> bool {
        let mut world = span("world.new", || SimWorld::new(op_seed(self.seed, id)));
        let spec = world.image_spec(DOMAIN, &["web-service"]);
        let net = world.net.clone();
        let mut nodes = Vec::with_capacity(FLEET_NODES);
        let mut golden = None;
        let deployed = net.batch(|_| {
            for i in 0..FLEET_NODES as u64 {
                let (image, measurement) = span("build.image", || world.build(&spec))?;
                golden.get_or_insert(measurement);
                let mut identity = [0u8; 32];
                identity[..8].copy_from_slice(&(id ^ (i + 1)).to_le_bytes());
                identity[8] = 0xbe;
                nodes.push(span("boot.deploy_node", || {
                    world.deploy_node(DOMAIN, &image, demo_app(), identity)
                })?);
            }
            Ok::<(), RevelioError>(())
        });
        let Some(golden) = golden.filter(|_| deployed.is_ok()) else {
            return false;
        };
        let allowlist = nodes
            .iter()
            .map(|n| (n.vm().guest().chip_id(), n.bootstrap_address().to_owned()))
            .collect();
        let sp =
            world.sp_node_for_domain(DOMAIN, GoldenSet::from_measurements([golden]), allowlist);
        let bootstraps: Vec<String> = nodes
            .iter()
            .map(|n| n.bootstrap_address().to_owned())
            .collect();
        let Ok(report) = span("sp.provision", || sp.provision(&bootstraps)) else {
            return false;
        };
        let Some(leader) = nodes
            .iter()
            .find(|n| n.bootstrap_address() == report.leader_bootstrap)
        else {
            return false;
        };
        world.dns.set_address(DOMAIN, leader.public_address());
        report.quarantined.is_empty()
            && world.dns.resolve(DOMAIN).ok().as_deref() == Some(leader.public_address())
    }
}

impl OpOutcome {
    fn timed(ok: bool, latency: Duration, sim_us: u64, counts: Option<Counts>) -> Self {
        OpOutcome {
            ok,
            latency,
            sim_us,
            post: Duration::ZERO,
            get: Duration::ZERO,
            counts,
        }
    }
}

fn fixture_counts(fx: &Fixture) -> Counts {
    Counts::take(Some(&fx.world), fx.storage.block_io())
}

/// The transfer check: the upload was accepted and reads back from the
/// sealed volume, and the download is byte for byte the seed content.
fn transfer_ok(
    fx: &Fixture,
    up: Result<Response, RevelioError>,
    down: Result<Response, RevelioError>,
    upload: &Request,
    id: u64,
) -> bool {
    up.is_ok_and(|r| r.status == 200)
        && down.is_ok_and(|r| r.status == 200 && r.body == fx.inputs.download)
        && fx.storage.holds_upload(&upload.body, id)
}

/// The world seed of provision op `id`.
fn op_seed(seed: u64, id: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (id + 1)
}

/// Bytes one transfer op moves in each direction.
pub const TRANSFER_MIB: f64 = TRANSFER_BYTES as f64 / (1024.0 * 1024.0);
