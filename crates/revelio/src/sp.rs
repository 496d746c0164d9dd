//! The service provider's SP node (paper §5.3.1, Fig. 4).
//!
//! An isolated machine on the provider's premises holding the DNS API
//! credentials and the ACME account. It attests the whole fleet, rejects
//! impostors (allowlisted chip↔address pairs), picks a leader among the
//! validated nodes, obtains **one** certificate for the leader's CSR
//! (respecting the CA's rate limits, §3.4.6) and triggers the encrypted
//! key distribution. Every phase's simulated latency is recorded — the
//! raw material of the paper's Table 2.

use std::collections::HashMap;

use revelio_crypto::ed25519::VerifyingKey;
use revelio_http::message::{Request, Response};
use revelio_http::server::plain_request_traced;
use revelio_http::HttpError;
use revelio_net::net::SimNet;
use revelio_net::retry::RetryPolicy;
use revelio_pki::acme::AcmeCa;
use revelio_pki::cert::CertificateChain;
use revelio_telemetry::{
    retry_with_telemetry, FlightDirectory, FlightDump, Telemetry, DEFAULT_FLIGHT_CAPACITY,
};
use sev_snp::ids::ChipId;
use sev_snp::verify::ReportVerifier;

use revelio_pki::cert::CertificateSigningRequest;
use sev_snp::measurement::Measurement;

use crate::kds_http::KdsHttpClient;
use crate::node::CsrBundle;
use crate::registry::GoldenSet;
use crate::RevelioError;

/// SP-node policy and modelled costs.
#[derive(Debug, Clone)]
pub struct SpConfig {
    /// Pinned AMD root key.
    pub trusted_ark: VerifyingKey,
    /// The service domain every node's CSR must name — the SP's ACME
    /// account must never be tricked into ordering a certificate for a
    /// domain smuggled into a node's configuration.
    pub expected_domain: String,
    /// Acceptable launch measurements (from the registry or own build).
    pub golden: GoldenSet,
    /// Approved `(chip id, bootstrap address)` pairs — an impostor with a
    /// *valid* report on the wrong machine or address is rejected
    /// (§5.3.1).
    pub allowlist: Vec<(ChipId, String)>,
    /// Modelled cryptographic-validation cost per node, ms (Table 2:
    /// 13 ms).
    pub validation_ms: f64,
    /// Modelled CA-side processing for certificate issuance, ms (the bulk
    /// of Table 2's 2996 ms generation row).
    pub ca_processing_ms: f64,
}

/// Per-phase simulated latencies (Table 2's rows).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpTimings {
    /// Average per-node evidence retrieval, ms.
    pub evidence_retrieval_ms: f64,
    /// Average per-node evidence validation, ms.
    pub evidence_validation_ms: f64,
    /// Certificate generation (ACME order), ms.
    pub certificate_generation_ms: f64,
    /// Average per-node certificate distribution, ms.
    pub certificate_distribution_ms: f64,
}

/// The provisioning phase in which a node was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvisionPhase {
    /// Fetching the node's CSR bundle from its bootstrap port.
    Retrieval,
    /// Verifying the bundle (VCEK chain, report, policy checks).
    Validation,
    /// Installing the shared certificate.
    Distribution,
}

impl ProvisionPhase {
    /// Stable lowercase name, for logs and metrics labels.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProvisionPhase::Retrieval => "retrieval",
            ProvisionPhase::Validation => "validation",
            ProvisionPhase::Distribution => "distribution",
        }
    }
}

/// A node excluded from a provisioning run: which node, at which phase,
/// and why. Quarantined nodes receive no certificate and are never
/// eligible for leadership; the run continues with the survivors.
#[derive(Debug, Clone)]
pub struct QuarantinedNode {
    /// Bootstrap address of the quarantined node.
    pub node: String,
    /// The phase that excluded it.
    pub phase: ProvisionPhase,
    /// The error that triggered the quarantine.
    pub error: RevelioError,
    /// The node's flight-recorder dump at quarantine time — its recent
    /// fault/retry/verdict timeline, for forensics. `None` when the SP
    /// runs without a flight directory (or the node has no ring).
    pub flight: Option<FlightDump>,
}

impl QuarantinedNode {
    /// Human-readable reason (the rendered error).
    #[must_use]
    pub fn reason(&self) -> String {
        self.error.to_string()
    }
}

/// Outcome of a fleet provisioning run.
#[derive(Debug, Clone)]
pub struct ProvisionReport {
    /// Bootstrap address of the chosen leader — the first node that
    /// survived retrieval and validation, in fleet order.
    pub leader_bootstrap: String,
    /// The shared certificate chain.
    pub chain: CertificateChain,
    /// Phase latencies, averaged over the nodes that completed each
    /// phase (quarantined nodes do not dilute the figures).
    pub timings: SpTimings,
    /// Nodes excluded from the run, in the order they were quarantined
    /// (fleet order within each phase) — deterministic for a fixed
    /// fault seed.
    pub quarantined: Vec<QuarantinedNode>,
}

/// An integrity-verified observation of one node — the reconciler's raw
/// input. Everything here has been checked *except* golden-set
/// membership: the chain verifies, the report signature holds, the CSR
/// is bound and possessed, the chip↔address pair is allowlisted. The
/// **measurement is reported, not judged** — the observer (the
/// reconciler diffing a fleet against its spec) decides whether it is
/// the target image, the old image, or drift.
#[derive(Debug, Clone)]
pub struct NodeObservation {
    /// Bootstrap address the observation was fetched from.
    pub bootstrap: String,
    /// The attested launch measurement the node is actually running.
    pub measurement: Measurement,
    /// The attested TCB the node's platform reports — diffed against the
    /// spec's floor by the reconciler.
    pub tcb: sev_snp::ids::TcbVersion,
    /// The node's chip.
    pub chip_id: ChipId,
    /// The node's CSR (renewal input: the leader's CSR is re-ordered).
    pub csr: CertificateSigningRequest,
}

/// Decorrelates the SP retry jitter stream from other components.
const SP_JITTER_SEED: u64 = 0x7370; // "sp"

/// The SP node.
pub struct ServiceProviderNode {
    net: SimNet,
    kds: KdsHttpClient,
    acme: AcmeCa,
    config: SpConfig,
    /// The allowlist indexed by bootstrap address, built once at
    /// construction: validation consults it per node, and a linear scan
    /// of `config.allowlist` there would make fleet provisioning
    /// quadratic in the fleet size.
    allowlist_index: HashMap<String, Vec<ChipId>>,
    telemetry: Telemetry,
    retry: RetryPolicy,
    flight: FlightDirectory,
}

impl std::fmt::Debug for ServiceProviderNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceProviderNode")
            .field("allowlist", &self.config.allowlist.len())
            .finish_non_exhaustive()
    }
}

impl ServiceProviderNode {
    /// Creates an SP node. It records into a private registry and an
    /// empty flight directory, both on `net`'s clock, until
    /// [`ServiceProviderNode::with_telemetry`] and
    /// [`ServiceProviderNode::with_flight_directory`] wire in shared ones.
    #[must_use]
    pub fn new(net: SimNet, kds: KdsHttpClient, acme: AcmeCa, config: SpConfig) -> Self {
        let mut allowlist_index: HashMap<String, Vec<ChipId>> = HashMap::new();
        for (chip, address) in &config.allowlist {
            allowlist_index
                .entry(address.clone())
                .or_default()
                .push(*chip);
        }
        let clock = net.clock().clone();
        ServiceProviderNode {
            net,
            kds,
            acme,
            config,
            allowlist_index,
            telemetry: Telemetry::new(clock.clone()),
            retry: Self::default_retry_policy(),
            flight: FlightDirectory::new(clock, DEFAULT_FLIGHT_CAPACITY),
        }
    }

    /// The retry policy new SP nodes start with: the crate-wide default
    /// budget on the SP-specific jitter stream.
    #[must_use]
    pub fn default_retry_policy() -> RetryPolicy {
        RetryPolicy::default().with_jitter_seed(SP_JITTER_SEED)
    }

    /// Records provisioning spans into `telemetry` instead of a private
    /// registry, so they join the world's span tree.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the retry policy applied to transient transport failures
    /// on the evidence-retrieval and distribution paths.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches the world's flight-recorder directory: every quarantine
    /// entry then carries the victim node's recent event timeline
    /// ([`QuarantinedNode::flight`]), and the SP's own retries are
    /// recorded into the dialed node's ring.
    #[must_use]
    pub fn with_flight_directory(mut self, flight: FlightDirectory) -> Self {
        self.flight = flight;
        self
    }

    /// Builds a quarantine record, snapshotting the node's flight ring
    /// (with the quarantine verdict itself as the final event).
    fn quarantine(
        &self,
        node: String,
        phase: ProvisionPhase,
        error: RevelioError,
    ) -> QuarantinedNode {
        let flight = self.flight.get(&node).map(|recorder| {
            recorder.record(
                "verdict",
                &format!("quarantined at {}: {error}", phase.as_str()),
            );
            recorder.dump()
        });
        QuarantinedNode {
            node,
            phase,
            error,
            flight,
        }
    }

    /// A bootstrap-port request with transient faults retried: a dropped
    /// packet on the provider-internal network must not abort a whole
    /// fleet provisioning run.
    fn retried_request(&self, address: &str, request: &Request) -> Result<Response, RevelioError> {
        let response = retry_with_telemetry(
            &self.retry,
            &self.telemetry,
            "sp",
            HttpError::is_transient,
            |attempt| {
                // Attempts count from 1: only the later ones are retries.
                if attempt > 1 {
                    self.flight.record(
                        address,
                        "retry",
                        &format!("sp {} attempt {attempt}", request.path),
                    );
                }
                plain_request_traced(&self.net, address, request, &self.telemetry)
            },
        )?;
        Ok(response)
    }

    fn fetch_bundle(&self, bootstrap: &str) -> Result<CsrBundle, RevelioError> {
        let response = self.retried_request(bootstrap, &Request::get("/revelio/csr-bundle"))?;
        if !response.is_success() {
            return Err(RevelioError::NodeRejected {
                node: bootstrap.to_owned(),
                reason: format!("csr-bundle fetch returned {}", response.status),
            });
        }
        CsrBundle::from_bytes(&response.body)
    }

    /// Validates one node's bundle (§5.3.1): VCEK chain, report signature,
    /// golden measurement, CSR binding, proof of possession, and the
    /// chip↔address allowlist.
    fn validate_bundle(&self, bootstrap: &str, bundle: &CsrBundle) -> Result<(), RevelioError> {
        self.validate_bundle_inner(bootstrap, bundle, Some(&self.config.golden))
    }

    /// The bundle checks, with golden-set membership optional: the
    /// provisioning path judges the measurement (`Some`), the reconciler's
    /// observation path reports it unjudged (`None`) so drift can be
    /// *named*, not just rejected.
    fn validate_bundle_inner(
        &self,
        bootstrap: &str,
        bundle: &CsrBundle,
        golden: Option<&GoldenSet>,
    ) -> Result<(), RevelioError> {
        let reject = |reason: &str| RevelioError::NodeRejected {
            node: bootstrap.to_owned(),
            reason: reason.to_owned(),
        };

        let chain = self.kds.vcek_chain(
            &bundle.report.report.chip_id,
            &bundle.report.report.reported_tcb,
        )?;
        ReportVerifier::new(self.config.trusted_ark)
            .verify(&bundle.report, &chain)
            .map_err(|e| reject(&format!("report verification: {e}")))?;

        if let Some(golden) = golden {
            if !golden.is_trusted(&bundle.report.report.measurement) {
                return Err(reject(&format!(
                    "measurement {} not golden",
                    bundle.report.report.measurement
                )));
            }
        }

        if bundle.csr.domain != self.config.expected_domain {
            return Err(reject(&format!(
                "csr names domain {:?}, expected {:?}",
                bundle.csr.domain, self.config.expected_domain
            )));
        }
        let csr_digest = bundle.csr.digest();
        if !revelio_crypto::ct::eq(
            &bundle.report.report.report_data.as_bytes()[..32],
            &csr_digest,
        ) {
            return Err(reject("report does not bind the csr"));
        }
        bundle
            .csr
            .verify()
            .map_err(|_| reject("csr proof of possession"))?;

        let allowed = self
            .allowlist_index
            .get(bootstrap)
            .is_some_and(|chips| chips.contains(&bundle.report.report.chip_id));
        if !allowed {
            return Err(reject("chip or address not in allowlist"));
        }
        // Modelled crypto cost of the above (Table 2's validation row).
        self.net.clock().advance_ms(self.config.validation_ms);
        Ok(())
    }

    /// Runs the full provisioning protocol over the fleet's bootstrap
    /// addresses: retrieve → validate → issue (leader = first survivor)
    /// → distribute. The leader receives its certificate first so peers'
    /// key requests find it ready.
    ///
    /// The run is **partition tolerant**: a node that is unreachable or
    /// rejected at any phase is quarantined (recorded in
    /// [`ProvisionReport::quarantined`] with the phase and reason) and
    /// the protocol continues with the survivors. Leadership goes to the
    /// first node, in fleet order, that survives retrieval and
    /// validation — not blindly to `bootstrap_addrs[0]`.
    ///
    /// # Errors
    ///
    /// Fails only when the fleet is empty ([`RevelioError::EmptyFleet`]),
    /// when *no* node survives a phase (the first quarantine's error is
    /// surfaced — so single-node security tests still see the precise
    /// rejection), or when the CA refuses issuance (rate limits!).
    pub fn provision(&self, bootstrap_addrs: &[String]) -> Result<ProvisionReport, RevelioError> {
        // Phase timings are *derived from recorded spans*: every phase
        // opens a span per node and `SpTimings` sums the measured span
        // durations.
        let telemetry = &self.telemetry;
        let fleet_size = bootstrap_addrs.len().to_string();
        let provision_span = telemetry.span_with(
            "sp.provision",
            &[
                ("domain", &self.config.expected_domain),
                ("fleet", &fleet_size),
            ],
        );
        let result = self.provision_fleet(bootstrap_addrs);
        // The root span is finished on *every* path — early returns must
        // not leak an open span into the breakdown exporter.
        let total_ms = provision_span.finish_ms();
        match &result {
            Ok(report) => {
                telemetry.observe("revelio_sp_provision_ms", total_ms);
                telemetry.counter_add("revelio_sp_provisions_total", 1);
                telemetry.gauge_set("revelio_sp_fleet_size", bootstrap_addrs.len() as f64);
                telemetry.gauge_set(
                    "revelio_sp_quarantined_nodes",
                    report.quarantined.len() as f64,
                );
            }
            Err(_) => {
                telemetry.counter_add("revelio_sp_provision_failures_total", 1);
            }
        }
        result
    }

    /// The provisioning protocol proper; the caller owns the root span
    /// and the success/failure metrics.
    fn provision_fleet(&self, bootstrap_addrs: &[String]) -> Result<ProvisionReport, RevelioError> {
        let telemetry = &self.telemetry;
        if bootstrap_addrs.is_empty() {
            return Err(RevelioError::EmptyFleet);
        }
        let mut quarantined: Vec<QuarantinedNode> = Vec::new();

        // Phase 1: retrieval, per node. Unreachable nodes (a partitioned
        // subnet, an exhausted retry budget) are quarantined here.
        let mut survivors: Vec<(String, CsrBundle)> = Vec::new();
        let mut retrieval_total = 0.0;
        for addr in bootstrap_addrs {
            let span = telemetry.span_with("sp.evidence_retrieval", &[("node", addr)]);
            match self.fetch_bundle(addr) {
                Ok(bundle) => {
                    retrieval_total += span.finish_ms();
                    survivors.push((addr.clone(), bundle));
                }
                Err(error) => {
                    span.finish_ms();
                    quarantined.push(self.quarantine(
                        addr.clone(),
                        ProvisionPhase::Retrieval,
                        error,
                    ));
                }
            }
        }
        let retrieved = survivors.len();

        // Endorsement prefetch: the SP keeps a warm VCEK mirror for its
        // own fleet (the chips are known in advance), so KDS round trips
        // are not part of the per-node validation cost the paper reports.
        // A node whose endorsement cannot be fetched cannot be validated.
        let mut prefetched: Vec<(String, CsrBundle)> = Vec::with_capacity(survivors.len());
        for (addr, bundle) in survivors {
            match self.kds.vcek_chain(
                &bundle.report.report.chip_id,
                &bundle.report.report.reported_tcb,
            ) {
                Ok(_) => prefetched.push((addr, bundle)),
                Err(error) => {
                    quarantined.push(self.quarantine(addr, ProvisionPhase::Validation, error));
                }
            }
        }

        // Phase 2: validation, per node (pure crypto + policy checks).
        let mut validated: Vec<(String, CsrBundle)> = Vec::with_capacity(prefetched.len());
        let mut validation_total = 0.0;
        for (addr, bundle) in prefetched {
            let span = telemetry.span_with("sp.evidence_validation", &[("node", &addr)]);
            match self.validate_bundle(&addr, &bundle) {
                Ok(()) => {
                    validation_total += span.finish_ms();
                    validated.push((addr, bundle));
                }
                Err(error) => {
                    span.finish_ms();
                    quarantined.push(self.quarantine(addr, ProvisionPhase::Validation, error));
                }
            }
        }
        if validated.is_empty() {
            // No survivors: surface the earliest quarantine's error, so a
            // single rejected node reports its precise rejection.
            return Err(quarantined[0].error.clone());
        }

        // Phase 3: one certificate for the leader's CSR. The leader is
        // the first *surviving* node in fleet order.
        let leader_bootstrap = validated[0].0.clone();
        let leader_csr = &validated[0].1.csr;
        let span = telemetry.span("sp.certificate_generation");
        self.net.clock().advance_ms(self.config.ca_processing_ms);
        let order = self.acme.order_certificate(leader_csr);
        let certificate_generation_ms = span.finish_ms();
        let chain = order?;

        // Phase 4: distribute to the survivors, leader first.
        let mut distribution_total = 0.0;
        let mut distributed = 0usize;
        let approved_chips: Vec<ChipId> = self
            .config
            .allowlist
            .iter()
            .map(|(chip, _)| *chip)
            .collect();
        let payload = crate::node::encode_install_cert(&chain, &leader_bootstrap, &approved_chips);
        for (addr, _) in &validated {
            let span = telemetry.span_with("sp.certificate_distribution", &[("node", addr)]);
            let outcome = self
                .retried_request(
                    addr,
                    &Request::post("/revelio/install-cert", payload.clone()),
                )
                .and_then(|response| {
                    if response.is_success() {
                        Ok(())
                    } else {
                        Err(RevelioError::NodeRejected {
                            node: addr.clone(),
                            reason: format!(
                                "install-cert returned {} ({})",
                                response.status,
                                response.header("X-Revelio-Error").unwrap_or("no detail")
                            ),
                        })
                    }
                });
            match outcome {
                Ok(()) => {
                    distribution_total += span.finish_ms();
                    distributed += 1;
                }
                Err(error) => {
                    span.finish_ms();
                    quarantined.push(self.quarantine(
                        addr.clone(),
                        ProvisionPhase::Distribution,
                        error,
                    ));
                }
            }
        }
        if distributed == 0 {
            return Err(quarantined[0].error.clone());
        }

        Ok(ProvisionReport {
            leader_bootstrap,
            chain,
            quarantined,
            timings: SpTimings {
                evidence_retrieval_ms: retrieval_total / retrieved as f64,
                evidence_validation_ms: validation_total / validated.len() as f64,
                certificate_generation_ms,
                certificate_distribution_ms: distribution_total / distributed as f64,
            },
        })
    }

    /// Replaces the golden set the SP judges measurements against — the
    /// reconciler rotates it when a rolling upgrade changes the fleet's
    /// target image (the old image's measurement stops being golden the
    /// moment the rollout completes).
    pub fn set_golden(&mut self, golden: GoldenSet) {
        self.config.golden = golden;
    }

    /// Fetches and integrity-verifies one node's bundle **without**
    /// judging the measurement: chain, report signature, CSR binding,
    /// proof of possession, and the chip↔address allowlist all hold, and
    /// the attested measurement is *reported* for the caller to diff
    /// against its spec. This is how the reconciler sees drift as a named
    /// measurement instead of a bare rejection, and how a healed
    /// quarantined node proves it is re-admissible.
    ///
    /// # Errors
    ///
    /// Transport failures surface transient; any integrity failure is
    /// [`RevelioError::NodeRejected`].
    pub fn observe_node(&self, bootstrap: &str) -> Result<NodeObservation, RevelioError> {
        let span = self
            .telemetry
            .span_with("sp.observe_node", &[("node", bootstrap)]);
        let result = (|| {
            let bundle = self.fetch_bundle(bootstrap)?;
            self.validate_bundle_inner(bootstrap, &bundle, None)?;
            Ok(NodeObservation {
                bootstrap: bootstrap.to_owned(),
                measurement: bundle.report.report.measurement,
                tcb: bundle.report.report.reported_tcb,
                chip_id: bundle.report.report.chip_id,
                csr: bundle.csr,
            })
        })();
        if result.is_err() {
            span.attr("outcome", "failure");
        }
        span.finish_ms();
        result
    }

    /// Installs `chain` on a single node over its bootstrap port — the
    /// re-admission and renewal-distribution primitive (provisioning's
    /// Phase 4, for one node). The node re-validates the chain against
    /// its pinned roots and fetches the key from `leader_bootstrap`
    /// unless it already holds the matching key.
    ///
    /// # Errors
    ///
    /// Transport failures surface transient; a node-side refusal is
    /// [`RevelioError::NodeRejected`] carrying the node's own reason.
    pub fn install_certificate(
        &self,
        bootstrap: &str,
        chain: &CertificateChain,
        leader_bootstrap: &str,
    ) -> Result<(), RevelioError> {
        let approved_chips: Vec<ChipId> = self
            .config
            .allowlist
            .iter()
            .map(|(chip, _)| *chip)
            .collect();
        let payload = crate::node::encode_install_cert(chain, leader_bootstrap, &approved_chips);
        let response =
            self.retried_request(bootstrap, &Request::post("/revelio/install-cert", payload))?;
        if !response.is_success() {
            return Err(RevelioError::NodeRejected {
                node: bootstrap.to_owned(),
                reason: format!(
                    "install-cert returned {} ({})",
                    response.status,
                    response.header("X-Revelio-Error").unwrap_or("no detail")
                ),
            });
        }
        Ok(())
    }

    /// Orders a renewal chain for the fleet ahead of `not_after_ms`: the
    /// leader is re-observed (fresh integrity proof **and** a golden
    /// measurement — an out-of-spec leader must not anchor a renewed
    /// certificate), its CSR must still carry the public key the current
    /// chain binds (the shared fleet key must survive a renewal
    /// unchanged), and the ACME order runs under the CA's usual
    /// rate-limit and retry machinery.
    ///
    /// # Errors
    ///
    /// [`RevelioError::KeyCertificateMismatch`] when the leader's key
    /// rotated (a renewal cannot re-key the fleet — that is a full
    /// re-provision), plus every observation and ACME failure mode.
    pub fn renew_certificate(
        &self,
        leader_bootstrap: &str,
        current: &CertificateChain,
    ) -> Result<CertificateChain, RevelioError> {
        let observed = self.observe_node(leader_bootstrap)?;
        if !self.config.golden.is_trusted(&observed.measurement) {
            return Err(RevelioError::NodeRejected {
                node: leader_bootstrap.to_owned(),
                reason: format!(
                    "renewal leader runs non-golden measurement {}",
                    observed.measurement
                ),
            });
        }
        if observed.csr.public_key != current.leaf().public_key {
            return Err(RevelioError::KeyCertificateMismatch);
        }
        self.net.clock().advance_ms(self.config.ca_processing_ms);
        let chain = self.acme.renew_certificate(&observed.csr)?;
        self.telemetry
            .counter_add("revelio_sp_certificate_renewals_total", 1);
        Ok(chain)
    }
}
