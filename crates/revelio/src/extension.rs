//! The Revelio web extension: seamless end-user remote attestation
//! (paper §5.3.2).
//!
//! For every **registered** domain the extension intercepts the first
//! access in a browser context: it fetches the evidence from the
//! well-known URL, queries the AMD KDS for the VCEK chain (cached across
//! sites — the paper's §6.4 optimization), validates the certificate
//! chain, the report signature, the launch measurement against the
//! registered golden values, and finally that the **TLS connection's
//! public key is the key bound inside `REPORT_DATA`** — only then is the
//! page trusted. Afterwards every request keeps being monitored: if the
//! connection is reset and re-established against a different key (the
//! DNS-controlling service provider's redirect attack), the extension
//! flags it even though the browser itself would accept the attacker's
//! valid certificate.
//!
//! # Staged verification (SNPGuard split)
//!
//! Verification is two explicit stages (see `DESIGN.md`, "Verifier at
//! line rate"):
//!
//! * [`WebExtension::verify_evidence`] — the **cacheable** stage: VCEK
//!   chain validity, report signature, guest policy, TCB floor, and
//!   measurement-vs-golden. Its result is an [`EvidenceVerdict`] cached
//!   under a [`VerdictKey`] (launch digest, reported TCB, VCEK
//!   fingerprint, cert fingerprint) inside a generation-stamped
//!   [`Snapshot`] cell. `register_site` / `revoke_measurement` /
//!   [`WebExtension::set_tcb_floor`] bump the generation, making every
//!   cached verdict unreachable at once — no TTLs, no stale trust.
//! * [`WebExtension::verify_connection`] — the **per-connection** stage:
//!   the TLS key binding against *this* connection. It can never be
//!   cached and runs on every verification, cache hit or not.
//!
//! A cache hit performs **zero signature verifications** (the
//! `revelio_extension_signature_verifications_total` counter proves it);
//! a miss pays the full pipeline with the four signature equations
//! collapsed into one batched check
//! ([`ReportVerifier::verify_batched`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use revelio_crypto::ed25519::VerifyingKey;
use revelio_crypto::sha2::Sha256;
use revelio_http::client::{HttpsClient, HttpsSession};
use revelio_http::message::{Request, Response};
use revelio_http::{HttpError, WELL_KNOWN_ATTESTATION_PATH};
use revelio_net::clock::SimClock;
use revelio_net::dns::DnsZone;
use revelio_net::net::SimNet;
use revelio_net::retry::RetryPolicy;
use revelio_net::snapshot::Snapshot;
use revelio_pki::cert::Certificate;
use revelio_telemetry::{
    retry_with_telemetry, FlightDump, FlightRecorder, Telemetry, DEFAULT_FLIGHT_CAPACITY,
};
use revelio_tls::{ResumptionState, TlsClientConfig};
use sev_snp::ids::TcbVersion;
use sev_snp::measurement::Measurement;
use sev_snp::verify::{ReportVerifier, SIGNATURE_CHECKS_PER_VERIFY};

use crate::evidence::EvidenceBundle;
use crate::kds_http::KdsHttpClient;
use crate::registry::GoldenSet;
use crate::RevelioError;

/// Extension policy and modelled client-side costs.
#[derive(Debug, Clone)]
pub struct ExtensionConfig {
    /// Pinned AMD root key.
    pub trusted_ark: VerifyingKey,
    /// Browser root store.
    pub tls_roots: Vec<Certificate>,
    /// Modelled cost of in-extension evidence validation, ms (fitted to
    /// Table 3; JavaScript crypto is slow). Charged only on a verdict
    /// cache **miss** — a hit skips the signature work it models.
    pub validation_ms: f64,
    /// Modelled cost of querying the browser's connection context per
    /// monitored request, ms (Table 3: ~14 ms). Also the cost of the
    /// per-connection TLS-binding stage, which runs on every
    /// verification, cached or not.
    pub connection_validation_ms: f64,
}

/// Timing breakdown of one attested page access (Table 3's raw material).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BrowseTiming {
    /// End-to-end simulated time, ms.
    pub total_ms: f64,
    /// Time spent fetching+validating evidence (includes KDS), ms.
    pub attestation_ms: f64,
    /// Of which: the KDS round trip, ms (0 on a cache hit).
    pub kds_ms: f64,
}

/// A successfully attested page access.
#[derive(Debug)]
pub struct BrowseOutcome {
    /// The application response.
    pub response: Response,
    /// Timing breakdown.
    pub timing: BrowseTiming,
    /// The validated evidence (for UI display: measurement, chip, TCB).
    pub evidence: EvidenceBundle,
}

/// What the extension UI shows the user after a browse attempt. The
/// three-way split matters for trust: a dropped packet and a forged
/// measurement must never render the same badge (§5.3.2's alerts are
/// *attestation* verdicts, not connectivity indicators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowseVerdict {
    /// Evidence validated end to end, down to the TLS connection binding.
    Attested,
    /// Transport faults exhausted the retry budget. **No verdict about the
    /// site was reached** — the UI says "network problem, retry", never
    /// "attestation failed".
    TransientNetworkRetry,
    /// Evidence was obtained and affirmatively failed a check (signature,
    /// measurement, TLS binding...).
    AttestationFailed,
    /// The site's certificate chain aged past `not_after_ms` — an
    /// *operational* condition (a fleet whose renewal lagged), distinct
    /// from evidence tampering. The reconciler's renewal path keys off
    /// this verdict; the UI says "certificate expired", not "attestation
    /// failed".
    CertificateExpired,
    /// The site is reachable but serves no Revelio evidence.
    NotRevelio,
}

impl BrowseVerdict {
    /// Classifies a browse result into the UI verdict.
    #[must_use]
    pub fn classify(result: &Result<BrowseOutcome, RevelioError>) -> Self {
        match result {
            Ok(_) => BrowseVerdict::Attested,
            Err(e) => Self::of_error(e),
        }
    }

    /// The verdict for a failed browse.
    fn of_error(e: &RevelioError) -> Self {
        if e.is_transient() {
            BrowseVerdict::TransientNetworkRetry
        } else if e.is_certificate_expired() {
            BrowseVerdict::CertificateExpired
        } else if matches!(e, RevelioError::NotRevelioSite(_)) {
            BrowseVerdict::NotRevelio
        } else {
            BrowseVerdict::AttestationFailed
        }
    }

    /// Stable label (telemetry, logs, UI badge ids).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BrowseVerdict::Attested => "attested",
            BrowseVerdict::TransientNetworkRetry => "transient_network_retry",
            BrowseVerdict::AttestationFailed => "attestation_failed",
            BrowseVerdict::CertificateExpired => "certificate_expired",
            BrowseVerdict::NotRevelio => "not_revelio",
        }
    }
}

/// The identity of an evidence bundle for verdict-cache purposes: the
/// four components under which the cacheable checks are invariant
/// (SNPGuard's split). Everything a cached [`EvidenceVerdict`] asserts
/// is a function of these four values; fields outside the key (nonce,
/// guest SVN, host data) are **not** asserted by a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// The launch digest.
    pub measurement: Measurement,
    /// The reported TCB, packed ([`TcbVersion::to_u64`]).
    pub reported_tcb: u64,
    /// SHA-256 over the bundled VCEK certificate (covers the chip id and
    /// TCB binding, the endorsement key, and the ASK signature).
    pub vcek_fingerprint: [u8; 32],
    /// The attested TLS-key digest from `REPORT_DATA` — the certificate
    /// fingerprint a shared-cert fleet has in common.
    pub cert_fingerprint: [u8; 32],
}

impl VerdictKey {
    /// Computes the cache key of `evidence`. Pure: no network, no clock.
    #[must_use]
    pub fn of(evidence: &EvidenceBundle) -> Self {
        let report = &evidence.report.report;
        let cert_fingerprint: [u8; 32] = report.report_data.as_bytes()[..32]
            .try_into()
            .expect("REPORT_DATA holds at least 32 bytes");
        VerdictKey {
            measurement: report.measurement,
            reported_tcb: report.reported_tcb.to_u64(),
            vcek_fingerprint: Sha256::digest(evidence.chain.vcek.to_bytes()),
            cert_fingerprint,
        }
    }
}

/// The result of the cacheable verification stage
/// ([`WebExtension::verify_evidence`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvidenceVerdict {
    /// The verified launch digest.
    pub measurement: Measurement,
    /// The verified reported TCB.
    pub reported_tcb: TcbVersion,
    /// The cache generation this verdict was computed under. A verdict
    /// is served from cache only while the cell still carries the same
    /// generation — any registration, revocation, or TCB-floor change
    /// bumps it.
    pub generation: u64,
    /// Whether this verdict came from the cache.
    pub cached: bool,
    /// Signature equations checked by *this* call: 0 on a cache hit,
    /// [`SIGNATURE_CHECKS_PER_VERIFY`] on a miss.
    pub signature_checks: u64,
    /// The KDS round trip paid by this call, ms (0 on a cache hit).
    pub kds_ms: f64,
}

/// A cached stage-one verdict, stamped with the generation it was
/// computed under.
#[derive(Debug, Clone, Copy)]
struct CachedVerdict {
    measurement: Measurement,
    reported_tcb: TcbVersion,
    generation: u64,
}

/// Everything the cacheable stage reads, published as **one** immutable
/// value: golden sets, TCB floor, and the verdict map all travel
/// together, so a concurrent session sees a consistent snapshot and a
/// verdict can never be paired with golden state from a different
/// generation.
#[derive(Debug, Clone, Default)]
struct VerifierState {
    generation: u64,
    golden: BTreeMap<String, GoldenSet>,
    tcb_floor: Option<TcbVersion>,
    verdicts: HashMap<VerdictKey, CachedVerdict>,
}

/// Decorrelates the extension retry jitter stream from other components.
const EXTENSION_JITTER_SEED: u64 = 0x657874; // "ext"

/// A client-held session ticket paired with the trust context it was
/// earned under: the evidence verified during the original full
/// handshake, the attested certificate fingerprint, and the verdict-cache
/// generation the verification ran against. The entry is offered only
/// while the generation still matches — any `register_site`,
/// `revoke_measurement`, or `set_tcb_floor` bumps it, so the next
/// (re)connect is forced through the full handshake-plus-re-attestation
/// path. This is what makes resumption *revocation-safe*: a ticket can
/// shortcut the asymmetric crypto, never a trust decision made stale by
/// policy.
#[derive(Clone)]
struct CachedResumption {
    /// The TLS-layer state (ticket, secret, authenticated peer identity).
    state: ResumptionState,
    /// The evidence bundle verified on the original full handshake.
    evidence: EvidenceBundle,
    /// The attested TLS-key digest ([`VerdictKey::cert_fingerprint`]) —
    /// re-checked against the resumed connection's key by the stage-2
    /// binding check.
    cert_fingerprint: [u8; 32],
    /// The verdict-cache generation the evidence was verified under.
    generation: u64,
}

/// The evidence channel of one attested visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BrowseMode {
    /// Evidence fetched from the well-known URL after the handshake.
    WellKnown,
    /// Evidence carried inside the TLS handshake (§7 RA-TLS).
    Ratls,
}

impl BrowseMode {
    fn as_str(self) -> &'static str {
        match self {
            BrowseMode::WellKnown => "well_known",
            BrowseMode::Ratls => "ratls",
        }
    }
}

/// One attested visit before it is shaped into a public outcome: the
/// session, the validated evidence, the page response (absent for
/// monitored-session opens), and the timing breakdown.
struct AttestedVisit {
    session: HttpsSession,
    evidence: EvidenceBundle,
    response: Option<Response>,
    timing: BrowseTiming,
    /// The verdict-cache generation the evidence was verified under —
    /// observed *before* the verification ran, so a resumption entry
    /// stamped with it can never launder a pre-bump verdict into a
    /// post-bump generation.
    verdict_generation: u64,
}

impl AttestedVisit {
    /// Shapes the visit into a page outcome. A visit dispatched without a
    /// page path (a monitored-session open) legitimately carries no
    /// response; shaping such a visit into a page outcome is a wiring bug
    /// surfaced as [`RevelioError::Internal`] — never a process abort.
    fn into_outcome(self) -> Result<BrowseOutcome, RevelioError> {
        let response = self.response.ok_or_else(|| {
            RevelioError::Internal(
                "attested visit carries no page response (dispatched without a path)".into(),
            )
        })?;
        Ok(BrowseOutcome {
            response,
            timing: self.timing,
            evidence: self.evidence,
        })
    }
}

/// The uniform result of the internal dispatch every public entry point
/// funnels through.
struct Dispatched {
    verdict: BrowseVerdict,
    visit: Result<AttestedVisit, RevelioError>,
    flight: Option<FlightDump>,
}

/// The web extension.
///
/// All methods take `&self`: registration, revocation, and the verdict
/// cache live behind a generation-stamped [`Snapshot`] cell, so one
/// extension instance is safely shared across concurrent sessions (the
/// swarm benchmark drives a million sessions through one instance).
pub struct WebExtension {
    clock: SimClock,
    kds: KdsHttpClient,
    config: ExtensionConfig,
    client: HttpsClient,
    verifier: Snapshot<VerifierState>,
    /// Per-domain session tickets, each stamped with the verdict
    /// generation it was earned under (see [`CachedResumption`]).
    resumption: Mutex<HashMap<String, CachedResumption>>,
    telemetry: Telemetry,
    retry: RetryPolicy,
    flight: FlightRecorder,
}

impl std::fmt::Debug for WebExtension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebExtension")
            .field("registered_sites", &self.verifier.read(|s| s.golden.len()))
            .finish_non_exhaustive()
    }
}

impl WebExtension {
    /// Creates an extension instance (one per browser profile). It
    /// records into a private registry and flight ring on `net`'s clock
    /// until [`WebExtension::with_telemetry`] and
    /// [`WebExtension::with_flight_recorder`] wire in shared ones.
    #[must_use]
    pub fn new(
        net: SimNet,
        dns: DnsZone,
        kds: KdsHttpClient,
        config: ExtensionConfig,
        entropy_seed: [u8; 32],
    ) -> Self {
        let clock = net.clock().clone();
        let telemetry = Telemetry::new(clock.clone());
        let client = HttpsClient::new(
            net,
            dns,
            TlsClientConfig {
                trusted_roots: config.tls_roots.clone(),
                clock: clock.clone(),
                telemetry: Some(telemetry.clone()),
            },
            entropy_seed,
        );
        WebExtension {
            telemetry,
            flight: FlightRecorder::new(clock.clone(), DEFAULT_FLIGHT_CAPACITY),
            clock,
            kds,
            config,
            client,
            verifier: Snapshot::new(Arc::new(VerifierState::default())),
            resumption: Mutex::new(HashMap::new()),
            retry: Self::default_retry_policy(),
        }
    }

    /// Records into `telemetry` instead of the private registry.
    /// `BrowseTiming` is derived from the recorded spans, and the TLS
    /// client shares the registry: handshakes join the browse span's tree,
    /// and outbound requests carry its context as a `traceparent` header,
    /// stitching the server side into the trace.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.client = self.client.with_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The retry policy new extensions start with: the crate-wide default
    /// budget on the extension-specific jitter stream.
    #[must_use]
    pub fn default_retry_policy() -> RetryPolicy {
        RetryPolicy::default().with_jitter_seed(EXTENSION_JITTER_SEED)
    }

    /// Replaces the retry policy applied to transient transport failures
    /// during attested browsing.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Records retries and browse verdicts into `flight` instead of the
    /// private ring; [`WebExtension::browse_classified`] attaches its dump
    /// to `AttestationFailed` verdicts.
    #[must_use]
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// Retries `op` on transient faults; when the budget is exhausted the
    /// final transient error is wrapped as [`RevelioError::TransientNetwork`]
    /// so callers (and [`BrowseVerdict::classify`]) can distinguish "the
    /// network ate it" from "attestation failed".
    fn with_transient_retry<T>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, RevelioError>,
    ) -> Result<T, RevelioError> {
        retry_with_telemetry(
            &self.retry,
            &self.telemetry,
            "extension",
            RevelioError::is_transient,
            |attempt| {
                // Attempts count from 1: only the later ones are retries.
                if attempt > 1 {
                    self.flight
                        .record("retry", &format!("browse attempt {attempt}"));
                }
                op(attempt)
            },
        )
        .map_err(|e| {
            if e.is_transient() {
                RevelioError::TransientNetwork {
                    component: "extension".into(),
                    attempts: self.retry.max_attempts,
                    last_error: e.to_string(),
                }
            } else {
                e
            }
        })
    }

    /// Classifies a non-success status from the well-known URL. A 5xx is
    /// the server (or an injected fault) saying "try again" — surfaced as
    /// a transient HTTP error so the retry budget applies and
    /// [`BrowseVerdict::classify`] renders "network problem", never "not
    /// a Revelio site". Only a definitive client-side miss (404 and
    /// friends) earns the non-Revelio verdict.
    fn classify_evidence_status(domain: &str, response: &Response) -> Result<(), RevelioError> {
        if response.is_success() {
            return Ok(());
        }
        let err = RevelioError::Http(HttpError::Status(response.status));
        if err.is_transient() {
            return Err(err);
        }
        Err(RevelioError::NotRevelioSite(domain.to_owned()))
    }

    /// Republishes the verifier state through `mutate` with the
    /// generation bumped and every cached verdict dropped — the
    /// invalidation primitive behind registration, revocation, and
    /// TCB-floor changes. Readers holding the previous snapshot still
    /// see a *consistent* (golden, verdicts) pair; they just can no
    /// longer insert into the new generation with a stale stamp.
    fn bump_generation(&self, mutate: impl FnOnce(&mut VerifierState)) {
        self.verifier.update(|current| {
            let mut next = current.clone();
            next.generation += 1;
            next.verdicts.clear();
            mutate(&mut next);
            (Arc::new(next), ())
        });
        self.telemetry
            .counter_add("revelio_extension_verify_cache_invalidations_total", 1);
    }

    /// Registers a domain with its acceptable measurements (manual
    /// registration — the secure path, §5.3.2). Bumps the verdict-cache
    /// generation: concurrent sessions either see the old state or the
    /// new one, never a mixture.
    pub fn register_site(&self, domain: &str, golden: impl IntoIterator<Item = Measurement>) {
        let set = GoldenSet::from_measurements(golden);
        self.bump_generation(|next| {
            next.golden.insert(domain.to_owned(), set);
        });
    }

    /// Whether `domain` is registered for validation.
    #[must_use]
    pub fn is_registered(&self, domain: &str) -> bool {
        self.verifier.read(|s| s.golden.contains_key(domain))
    }

    /// Revokes a golden measurement for a registered domain (image
    /// rollout: prevents rollback, §6.1.4). Bumps the verdict-cache
    /// generation, so **every** cached verdict — not just this
    /// domain's — dies instantly; the next verification re-runs the full
    /// pipeline ("Insecure Despite Proven Updated" is why cached
    /// verdicts must not outlive a revocation by even one session).
    pub fn revoke_measurement(&self, domain: &str, measurement: Measurement) {
        if !self.is_registered(domain) {
            return;
        }
        self.bump_generation(|next| {
            if let Some(set) = next.golden.get_mut(domain) {
                set.revoke(measurement);
            }
        });
        // A revocation event also poisons trust in cached *endorsements*:
        // the "Insecure Despite Proven Updated" scenario revokes VCEKs, so
        // the KDS cache must be re-fetched, not just the verdict cache.
        self.kds.flush_cache();
    }

    /// Sets (or clears) the minimum acceptable reported TCB — the
    /// firmware-downgrade defense, applied in the cacheable stage. Bumps
    /// the verdict-cache generation: verdicts computed under the old
    /// floor are unreachable.
    pub fn set_tcb_floor(&self, floor: Option<TcbVersion>) {
        self.bump_generation(|next| {
            next.tcb_floor = floor;
        });
        // A floor bump means previously fetched VCEK chains may endorse a
        // now-rejected TCB; drop them so the next verify re-fetches.
        self.kds.flush_cache();
    }

    /// The current TCB floor, if any.
    #[must_use]
    pub fn tcb_floor(&self) -> Option<TcbVersion> {
        self.verifier.read(|s| s.tcb_floor)
    }

    /// The current verdict-cache generation (diagnostics / tests).
    #[must_use]
    pub fn verdict_generation(&self) -> u64 {
        self.verifier.read(|s| s.generation)
    }

    /// Number of cached verdicts in the current generation.
    #[must_use]
    pub fn cached_verdicts(&self) -> usize {
        self.verifier.read(|s| s.verdicts.len())
    }

    /// **Stage 1 — cacheable.** Verifies everything about `evidence`
    /// that does not depend on the connection: VCEK chain validity,
    /// report signature, guest policy, TCB floor, and the measurement
    /// against `domain`'s golden set.
    ///
    /// On a cache hit (same [`VerdictKey`], same generation) no KDS
    /// round trip and **no signature verification** happens — only the
    /// golden-set membership re-check against the very snapshot the
    /// verdict is stamped for. On a miss the full pipeline runs with
    /// the four signature equations batched
    /// ([`ReportVerifier::verify_batched`]), and the verdict is
    /// published unless the generation moved while it was being
    /// computed (the insert is skipped, never misfiled).
    ///
    /// # Errors
    ///
    /// Returns the specific [`RevelioError`] for the failing check.
    pub fn verify_evidence(
        &self,
        domain: &str,
        evidence: &EvidenceBundle,
    ) -> Result<EvidenceVerdict, RevelioError> {
        let state = self.verifier.load();
        let golden = state
            .golden
            .get(domain)
            .ok_or_else(|| RevelioError::NotRevelioSite(domain.to_owned()))?;
        let key = VerdictKey::of(evidence);

        if let Some(cached) = state.verdicts.get(&key) {
            if cached.generation == state.generation {
                self.telemetry
                    .counter_add("revelio_extension_verify_cache_hits_total", 1);
                // Defensive: a verdict and its golden set come from the
                // same published value, and every golden mutation bumps
                // the generation — so this lookup cannot disagree with
                // the verdict. It stays because it is cheap and it is
                // the line a future refactor would trip over.
                if !golden.is_trusted(&cached.measurement) {
                    return Err(RevelioError::UnknownMeasurement(
                        cached.measurement.to_hex(),
                    ));
                }
                return Ok(EvidenceVerdict {
                    measurement: cached.measurement,
                    reported_tcb: cached.reported_tcb,
                    generation: cached.generation,
                    cached: true,
                    signature_checks: 0,
                    kds_ms: 0.0,
                });
            }
        }
        self.telemetry
            .counter_add("revelio_extension_verify_cache_misses_total", 1);

        // 1. Fetch the VCEK chain ourselves from the KDS (don't trust the
        //    bundled copy's provenance). The round trip is measured by the
        //    `browse.kds` span — a VCEK-cache hit advances the clock by
        //    nothing, so its duration is exactly 0.
        let (chain, kds_ms) = {
            let span = self.telemetry.span("browse.kds");
            let chain = self.kds.vcek_chain(
                &evidence.report.report.chip_id,
                &evidence.report.report.reported_tcb,
            )?;
            (chain, span.finish_ms())
        };

        // 2. Chain, signature, policy, TCB floor — four signature
        //    equations in one batched check.
        let mut verifier = ReportVerifier::new(self.config.trusted_ark);
        if let Some(floor) = state.tcb_floor {
            verifier = verifier.require_minimum_tcb(floor);
        }
        self.telemetry.counter_add(
            "revelio_extension_signature_verifications_total",
            SIGNATURE_CHECKS_PER_VERIFY,
        );
        verifier
            .verify_batched(&evidence.report, &chain)
            .map_err(|e| RevelioError::EvidenceRejected(e.to_string()))?;

        // 3. Measurement against the user's golden values.
        let measurement = evidence.report.report.measurement;
        if !golden.is_trusted(&measurement) {
            return Err(RevelioError::UnknownMeasurement(measurement.to_hex()));
        }

        self.clock.advance_ms(self.config.validation_ms);

        // 4. Publish the verdict, stamped with the generation observed
        //    *before* the verification work. If a registration or
        //    revocation republished meanwhile, the stamp is stale and the
        //    insert is skipped — the race loses cleanly instead of
        //    resurrecting a pre-revocation verdict into the new
        //    generation.
        let generation = state.generation;
        let reported_tcb = evidence.report.report.reported_tcb;
        self.verifier.update(|current| {
            let mut next = current.clone();
            if current.generation == generation {
                next.verdicts.insert(
                    key,
                    CachedVerdict {
                        measurement,
                        reported_tcb,
                        generation,
                    },
                );
            }
            (Arc::new(next), ())
        });
        Ok(EvidenceVerdict {
            measurement,
            reported_tcb,
            generation,
            cached: false,
            signature_checks: SIGNATURE_CHECKS_PER_VERIFY,
            kds_ms,
        })
    }

    /// **Stage 2 — per-connection, never cached.** Checks that *this*
    /// TLS connection terminates at the key bound inside the evidence's
    /// `REPORT_DATA`. Runs on every verification — cache hits included —
    /// and increments `revelio_extension_tls_binding_checks_total`.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::TlsBindingMismatch`] when the connection
    /// key is not the attested one.
    pub fn verify_connection(
        &self,
        evidence: &EvidenceBundle,
        tls_public_key: &VerifyingKey,
    ) -> Result<(), RevelioError> {
        self.telemetry
            .counter_add("revelio_extension_tls_binding_checks_total", 1);
        self.clock.advance_ms(self.config.connection_validation_ms);
        evidence.check_tls_binding(tls_public_key)
    }

    /// The full staged verification: [`WebExtension::verify_evidence`]
    /// (cacheable) then [`WebExtension::verify_connection`]
    /// (per-connection).
    ///
    /// # Errors
    ///
    /// Returns the specific [`RevelioError`] for whichever stage fails.
    pub fn verify(
        &self,
        domain: &str,
        evidence: &EvidenceBundle,
        tls_public_key: &VerifyingKey,
    ) -> Result<EvidenceVerdict, RevelioError> {
        let verdict = self.verify_evidence(domain, evidence)?;
        self.verify_connection(evidence, tls_public_key)?;
        Ok(verdict)
    }

    fn record_browse(&self, total_ms: f64, attestation_ms: f64) {
        self.telemetry
            .counter_add("revelio_extension_browses_total", 1);
        self.telemetry
            .observe("revelio_extension_browse_ms", total_ms);
        // A histogram, not a gauge: concurrent sessions each contribute
        // a sample, and p50/p99 survive interleaving.
        self.telemetry
            .observe("revelio_extension_attestation_latency_ms", attestation_ms);
    }

    /// Fetches and decodes the evidence bundle from the well-known URL
    /// over an open session.
    fn fetch_evidence(
        &self,
        domain: &str,
        session: &mut HttpsSession,
    ) -> Result<EvidenceBundle, RevelioError> {
        let response = session.send(&Request::get(WELL_KNOWN_ATTESTATION_PATH))?;
        Self::classify_evidence_status(domain, &response)?;
        EvidenceBundle::from_bytes(&response.body)
    }

    /// One attested visit attempt: handshake, evidence (per `mode`),
    /// staged verification, then the page fetch (when `path` is given;
    /// monitored-session opens stop after attestation).
    fn visit_once(
        &self,
        domain: &str,
        path: Option<&str>,
        mode: BrowseMode,
    ) -> Result<AttestedVisit, RevelioError> {
        let root = self.telemetry.span_with(
            "browse",
            &[
                ("domain", domain),
                ("mode", mode.as_str()),
                ("path", path.unwrap_or("(monitored)")),
            ],
        );
        let mut session = self.client.open(domain)?;

        let attest = self.telemetry.span("browse.attestation");
        let evidence = match mode {
            BrowseMode::WellKnown => self.fetch_evidence(domain, &mut session)?,
            BrowseMode::Ratls => {
                let evidence_bytes = session
                    .peer_evidence()
                    .ok_or_else(|| RevelioError::NotRevelioSite(domain.to_owned()))?
                    .to_vec();
                EvidenceBundle::from_bytes(&evidence_bytes)?
            }
        };
        let evidence_verdict = self.verify(domain, &evidence, &session.peer_public_key())?;
        let attestation_ms = attest.finish_ms();

        let response = match path {
            Some(p) => Some(session.send(&Request::get(p))?),
            None => None,
        };
        let total_ms = root.finish_ms();
        if path.is_some() {
            self.record_browse(total_ms, attestation_ms);
        }
        Ok(AttestedVisit {
            session,
            evidence,
            response,
            timing: BrowseTiming {
                total_ms,
                attestation_ms,
                kds_ms: evidence_verdict.kds_ms,
            },
            verdict_generation: evidence_verdict.generation,
        })
    }

    /// The single retry/verdict loop every attested entry point funnels
    /// through: retry-wrapped visit, verdict classification, flight
    /// recording, and the forensic dump on an affirmative failure.
    fn dispatch(&self, domain: &str, path: Option<&str>, mode: BrowseMode) -> Dispatched {
        let visit = self.with_transient_retry(|_attempt| self.visit_once(domain, path, mode));
        let verdict = match &visit {
            Ok(_) => BrowseVerdict::Attested,
            Err(e) => BrowseVerdict::of_error(e),
        };
        let target = match path {
            Some(p) => format!("{domain}{p}"),
            None => format!("{domain} (monitored)"),
        };
        match &visit {
            Ok(_) => self
                .flight
                .record("verdict", &format!("{target}: attested")),
            Err(e) => {
                self.flight
                    .record("verdict", &format!("{target}: {} ({e})", verdict.as_str()));
            }
        }
        let flight = match verdict {
            BrowseVerdict::AttestationFailed => Some(self.flight.dump()),
            _ => None,
        };
        Dispatched {
            verdict,
            visit,
            flight,
        }
    }

    /// Accesses `path` on a registered Revelio site with full attestation
    /// (a fresh browser context: handshake, evidence, KDS, validation,
    /// then the page).
    ///
    /// # Errors
    ///
    /// Returns the specific [`RevelioError`] for the failing check — these
    /// are the alerts the extension UI shows the user.
    pub fn browse(&self, domain: &str, path: &str) -> Result<BrowseOutcome, RevelioError> {
        self.dispatch(domain, Some(path), BrowseMode::WellKnown)
            .visit
            .and_then(AttestedVisit::into_outcome)
    }

    /// [`WebExtension::browse`] plus the UI classification: the verdict is
    /// recorded into the extension's flight ring, and an
    /// [`BrowseVerdict::AttestationFailed`] verdict carries the ring's
    /// dump — the forensic timeline behind the red badge.
    #[must_use]
    pub fn browse_classified(&self, domain: &str, path: &str) -> ClassifiedBrowse {
        let dispatched = self.dispatch(domain, Some(path), BrowseMode::WellKnown);
        ClassifiedBrowse {
            verdict: dispatched.verdict,
            result: dispatched.visit.and_then(AttestedVisit::into_outcome),
            flight: dispatched.flight,
        }
    }

    /// RA-TLS access (paper §7's suggested RATLS integration): the
    /// evidence bundle arrives *inside the TLS handshake*, so attestation
    /// needs no separate well-known fetch — one round trip less than
    /// [`WebExtension::browse`]. The handshake signature covers the
    /// evidence, so it cannot be stripped or substituted in flight.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::NotRevelioSite`] when the handshake carried
    /// no evidence, plus every failure mode of [`WebExtension::browse`].
    pub fn browse_ratls(&self, domain: &str, path: &str) -> Result<BrowseOutcome, RevelioError> {
        self.dispatch(domain, Some(path), BrowseMode::Ratls)
            .visit
            .and_then(AttestedVisit::into_outcome)
    }

    /// Accesses a page **without** attestation (what a user without the
    /// extension gets; Table 3's "plain HTTP GET" row).
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::Http`] on transport/TLS failure.
    pub fn browse_unprotected(&self, domain: &str, path: &str) -> Result<Response, RevelioError> {
        let mut session = self.client.open(domain)?;
        Ok(session.send(&Request::get(path))?)
    }

    /// Drops every stored session ticket, returning how many were held.
    /// The "clear browsing data" control: the next connection to every
    /// domain pays the full handshake-plus-attestation path. The swarm
    /// benchmark uses this to measure the full-reconnect baseline its
    /// resumed phase is compared against.
    pub fn clear_resumption_cache(&self) -> usize {
        let mut cache = self.resumption.lock();
        let dropped = cache.len();
        cache.clear();
        dropped
    }

    /// Looks up `domain`'s resumption entry and returns it only if its
    /// generation stamp still matches the current verdict generation. A
    /// stale entry (any revocation / registration / floor change since
    /// it was earned) is dropped and counted in
    /// `revelio_tls_resumption_rejections_total` — the caller then takes
    /// the full handshake-plus-re-attestation path.
    fn fresh_resumption(&self, domain: &str) -> Option<CachedResumption> {
        let generation = self.verdict_generation();
        let mut cache = self.resumption.lock();
        match cache.get(domain) {
            Some(entry) if entry.generation == generation => Some(entry.clone()),
            Some(_) => {
                cache.remove(domain);
                drop(cache);
                self.telemetry
                    .counter_add("revelio_tls_resumption_rejections_total", 1);
                None
            }
            None => None,
        }
    }

    /// Stores `session`'s ticket (when the handshake issued one) keyed by
    /// domain, stamped with the attested cert fingerprint and the verdict
    /// generation the evidence was verified under.
    fn store_resumption(
        &self,
        domain: &str,
        session: &HttpsSession,
        evidence: &EvidenceBundle,
        generation: u64,
    ) {
        let Some(state) = session.resumption_state() else {
            return;
        };
        let entry = CachedResumption {
            state: state.clone(),
            evidence: evidence.clone(),
            cert_fingerprint: VerdictKey::of(evidence).cert_fingerprint,
            generation,
        };
        self.resumption.lock().insert(domain.to_owned(), entry);
    }

    /// Attempts the abbreviated path against a generation-fresh entry.
    /// `None` means "take the full path" (transport trouble, or the
    /// server declined the ticket — its key rotated — in which case the
    /// dead entry is dropped). `Some(Err(..))` is an affirmative failure:
    /// the resumed connection does not bind to the attested key.
    fn open_resumed_session(
        &self,
        domain: &str,
        entry: &CachedResumption,
    ) -> Option<Result<HttpsSession, RevelioError>> {
        let Ok(session) = self.client.open_resumed(domain, &entry.state) else {
            // Transport trouble: the full path owns the retry budget.
            return None;
        };
        if !session.was_resumed() {
            // The server declined the ticket (rotated ticket key after a
            // certificate renewal): the ticket is dead. Drop it and
            // re-attest on a fresh connection — a declined resumption is
            // a new trust decision, never a resumed one.
            self.resumption.lock().remove(domain);
            return None;
        }
        // The resumed connection must terminate at the fingerprinted key
        // the entry was earned under — a swapped cache entry fails here.
        if Sha256::digest(session.peer_public_key().to_bytes()) != entry.cert_fingerprint {
            return Some(Err(RevelioError::TlsBindingMismatch));
        }
        // Stage 2 on the resumed connection: the key this session
        // terminates at must still be the one bound inside the evidence's
        // `REPORT_DATA`.
        match self.verify_connection(&entry.evidence, &session.peer_public_key()) {
            Ok(()) => Some(Ok(session)),
            Err(e) => Some(Err(e)),
        }
    }

    /// Attests `domain` and returns a monitored session for subsequent
    /// requests (the long-lived browsing case). Transient transport
    /// faults (including 5xx from the well-known URL) are retried within
    /// the budget and surface as [`RevelioError::TransientNetwork`] when
    /// exhausted — never as a "not a Revelio site" verdict.
    ///
    /// When a session ticket from an earlier attested visit is on file
    /// *and* the verdict generation is unchanged, the TLS layer resumes
    /// instead: zero scalar multiplications, zero evidence fetches — the
    /// generation stamp guarantees the cached trust decision is still
    /// the one the verifier would make. Any generation bump (revocation,
    /// TCB floor, registration) forces the full path.
    ///
    /// # Errors
    ///
    /// As for [`WebExtension::browse`].
    pub fn open_monitored(&self, domain: &str) -> Result<MonitoredSession, RevelioError> {
        if let Some(entry) = self.fresh_resumption(domain) {
            if let Some(result) = self.open_resumed_session(domain, &entry) {
                let session = result?;
                self.telemetry
                    .counter_add("revelio_extension_resumed_opens_total", 1);
                return Ok(MonitoredSession {
                    pinned_key: session.peer_public_key(),
                    domain: domain.to_owned(),
                    evidence: entry.evidence,
                    session,
                    clock: self.clock.clone(),
                    connection_validation_ms: self.config.connection_validation_ms,
                    telemetry: self.telemetry.clone(),
                });
            }
        }
        let visit = self.dispatch(domain, None, BrowseMode::WellKnown).visit?;
        self.store_resumption(
            domain,
            &visit.session,
            &visit.evidence,
            visit.verdict_generation,
        );
        Ok(MonitoredSession {
            pinned_key: visit.session.peer_public_key(),
            domain: domain.to_owned(),
            evidence: visit.evidence,
            session: visit.session,
            clock: self.clock.clone(),
            connection_validation_ms: self.config.connection_validation_ms,
            telemetry: self.telemetry.clone(),
        })
    }

    /// Opportunistic discovery (§5.3.2's second mode): probe the
    /// well-known URL; `Ok(Some(m))` means the site offers Revelio
    /// evidence with measurement `m` that the user must now vet
    /// out-of-band. `Ok(None)` is reserved for a site that *answered*
    /// and definitively serves no evidence (a 404); an outage — 5xx or
    /// transport fault — is retried and then reported as an error, so a
    /// flaky Revelio site is never misfiled as a non-Revelio one.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::TransientNetwork`] when the retry budget
    /// is exhausted by transport faults or 5xx responses.
    pub fn discover(&self, domain: &str) -> Result<Option<Measurement>, RevelioError> {
        self.with_transient_retry(|_attempt| self.discover_once(domain))
    }

    fn discover_once(&self, domain: &str) -> Result<Option<Measurement>, RevelioError> {
        let mut session = self.client.open(domain)?;
        let response = session.send(&Request::get(WELL_KNOWN_ATTESTATION_PATH))?;
        match Self::classify_evidence_status(domain, &response) {
            Ok(()) => {}
            Err(RevelioError::NotRevelioSite(_)) => return Ok(None),
            Err(transient) => return Err(transient),
        }
        Ok(EvidenceBundle::from_bytes(&response.body)
            .ok()
            .map(|e| e.report.report.measurement))
    }

    /// Reconnects a monitored session after a connection reset — the
    /// defense against the redirect attack (§5.3.2). The pinned key is
    /// the fast path: a connection terminating at a different key fails
    /// immediately. The full evidence bundle is then re-fetched and re-run
    /// through the staged verification before the session resumes: a
    /// reconnect is a new trust decision, so a measurement revoked behind
    /// the same key fails it. The cacheable stage may hit the verdict
    /// cache (a revocation or floor change bumps the generation, so a hit
    /// is as strong as a cold verify), while the TLS binding is always
    /// re-checked against the new connection.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::TlsBindingMismatch`] when the
    /// re-established connection terminates at a different key, and any
    /// re-attestation failure.
    pub fn reconnect(&self, monitored: &mut MonitoredSession) -> Result<(), RevelioError> {
        self.with_transient_retry(|_attempt| self.reconnect_once(monitored))
    }

    fn reconnect_once(&self, monitored: &mut MonitoredSession) -> Result<(), RevelioError> {
        // Resumed path: a generation-fresh ticket proves continuity with
        // a session this extension fully verified under the *current*
        // verdict generation, so the re-attestation is satisfied without
        // re-fetching evidence — the re-attestation it mandates would be
        // a verdict-cache hit against the very same generation. Any
        // revocation or floor change since then bumped the generation,
        // `fresh_resumption` returns nothing, and the full path below
        // re-attests from scratch.
        if let Some(entry) = self.fresh_resumption(&monitored.domain) {
            if let Some(result) = self.open_resumed_session(&monitored.domain, &entry) {
                let session = result?;
                if session.peer_public_key() != monitored.pinned_key {
                    return Err(RevelioError::TlsBindingMismatch);
                }
                monitored.evidence = entry.evidence;
                monitored.session = session;
                self.telemetry
                    .counter_add("revelio_extension_reconnects_total", 1);
                self.telemetry
                    .counter_add("revelio_extension_resumed_reconnects_total", 1);
                return Ok(());
            }
        }
        let mut session = self.client.open(&monitored.domain)?;
        // Fast path: the redirect attack lands here, before any network
        // round trip is spent on evidence.
        if session.peer_public_key() != monitored.pinned_key {
            return Err(RevelioError::TlsBindingMismatch);
        }
        let evidence = self.fetch_evidence(&monitored.domain, &mut session)?;
        let verdict = self.verify(&monitored.domain, &evidence, &session.peer_public_key())?;
        self.store_resumption(&monitored.domain, &session, &evidence, verdict.generation);
        monitored.evidence = evidence;
        monitored.session = session;
        self.telemetry
            .counter_add("revelio_extension_reconnects_total", 1);
        Ok(())
    }
}

/// Outcome of [`WebExtension::browse_classified`]: the UI verdict, the
/// underlying result, and — only on an affirmative attestation failure —
/// the extension's flight-recorder dump.
#[derive(Debug)]
pub struct ClassifiedBrowse {
    /// The badge the UI shows.
    pub verdict: BrowseVerdict,
    /// The underlying browse result.
    pub result: Result<BrowseOutcome, RevelioError>,
    /// The extension's recent event timeline; populated only when
    /// `verdict` is [`BrowseVerdict::AttestationFailed`].
    pub flight: Option<FlightDump>,
}

/// An attested session whose every request re-validates the connection.
pub struct MonitoredSession {
    session: HttpsSession,
    pinned_key: VerifyingKey,
    domain: String,
    evidence: EvidenceBundle,
    clock: SimClock,
    connection_validation_ms: f64,
    telemetry: Telemetry,
}

impl std::fmt::Debug for MonitoredSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoredSession")
            .field("domain", &self.domain)
            .finish_non_exhaustive()
    }
}

impl MonitoredSession {
    /// Performs one monitored GET: query the connection context, verify
    /// the key is still the pinned one, then send.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::TlsBindingMismatch`] if the connection no
    /// longer terminates at the attested key, or transport errors.
    pub fn request(&mut self, path: &str) -> Result<Response, RevelioError> {
        self.send(&Request::get(path))
    }

    /// Performs an arbitrary monitored request (POST bodies etc.) with the
    /// same per-request connection validation.
    ///
    /// # Errors
    ///
    /// As for [`MonitoredSession::request`].
    pub fn send(&mut self, request: &Request) -> Result<Response, RevelioError> {
        self.telemetry
            .counter_add("revelio_extension_monitored_requests_total", 1);
        self.clock.advance_ms(self.connection_validation_ms);
        if self.session.peer_public_key() != self.pinned_key {
            return Err(RevelioError::TlsBindingMismatch);
        }
        Ok(self.session.send(request)?)
    }

    /// The key pinned at attestation time.
    #[must_use]
    pub fn pinned_key(&self) -> VerifyingKey {
        self.pinned_key
    }

    /// The monitored domain.
    #[must_use]
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The evidence bundle this session was attested with (the input to
    /// re-verification: the swarm benchmark re-runs the staged `verify`
    /// against it on every session).
    #[must_use]
    pub fn evidence(&self) -> &EvidenceBundle {
        &self.evidence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::demo_app;
    use crate::world::SimWorld;

    /// The dispatch seam every public entry point funnels through: a
    /// visit dispatched without a path (the monitored-session open)
    /// legitimately carries no page response. Shaping such a visit into
    /// a page outcome used to `expect` the response and abort the
    /// process; it must instead surface [`RevelioError::Internal`].
    #[test]
    fn pathless_dispatch_shapes_into_an_internal_error_not_a_panic() {
        let mut world = SimWorld::new(31);
        let fleet = world
            .deploy_fleet("pad.example.org", 1, demo_app())
            .unwrap();
        let extension = world.extension();
        extension.register_site("pad.example.org", vec![fleet.golden_measurement]);

        // The pathless visit itself attests fine…
        let dispatched = extension.dispatch("pad.example.org", None, BrowseMode::WellKnown);
        assert_eq!(dispatched.verdict, BrowseVerdict::Attested);
        let visit = dispatched.visit.expect("monitored open attests");
        assert!(visit.response.is_none(), "no path, no page response");

        // …and the outcome conversion is fallible, not a process abort.
        let err = visit
            .into_outcome()
            .expect_err("a response-less visit cannot become a page outcome");
        assert!(
            matches!(err, RevelioError::Internal(_)),
            "wrong error class: {err:?}"
        );
        assert!(!err.is_transient(), "an internal bug is not a retry");

        // A path-carrying dispatch still shapes into a page outcome.
        let dispatched = extension.dispatch("pad.example.org", Some("/"), BrowseMode::WellKnown);
        let outcome = dispatched
            .visit
            .and_then(AttestedVisit::into_outcome)
            .expect("page visit carries its response");
        assert!(outcome.response.is_success());

        // And the monitored-session public path is unaffected.
        let mut session = extension.open_monitored("pad.example.org").unwrap();
        assert!(session.request("/healthz").unwrap().is_success());
    }
}
