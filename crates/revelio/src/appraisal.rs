//! One appraisal of SEV-SNP evidence for every relying party: the SP
//! before it orders the shared certificate, a leader before it hands out
//! the fleet's TLS key (and the peer checking the leader's answer), and
//! the browser extension before it trusts a page (§5.3.1, §5.3.2).
//!
//! `appraise` runs the report-level checks in one order — chain to the
//! pinned ARK, VCEK↔report binding, report signature, debug policy, TCB
//! floor, measurement — and its [`Rejection`] names the check that
//! decided. Callers differ only in their `AppraisalPolicy`. Checks that
//! belong to a caller's protocol (CSR, chip allowlist, key-exchange and
//! TLS bindings) stay with the caller and return the same [`Rejection`].

use std::fmt;

use revelio_crypto::ed25519::VerifyingKey;
use sev_snp::ids::TcbVersion;
use sev_snp::kds::VcekCertChain;
use sev_snp::measurement::Measurement;
use sev_snp::report::SignedReport;
use sev_snp::verify::ReportVerifier;
use sev_snp::SnpError;

use crate::registry::GoldenSet;

/// The check that decided a rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecidingCheck {
    /// The VCEK chain does not lead to the pinned ARK.
    Chain,
    /// The VCEK certificate endorses another chip or TCB than the report.
    Binding,
    /// The VCEK signature over the report body fails.
    Signature,
    /// The guest policy lets the host debug the guest.
    DebugPolicy,
    /// A reported TCB component is below the floor.
    TcbFloor,
    /// The launch measurement fails the measurement rule.
    Measurement,
    /// The CSR names another domain than the one provisioned.
    CsrDomain,
    /// `REPORT_DATA` does not bind the CSR.
    CsrBinding,
    /// The CSR's proof of possession fails.
    CsrPossession,
    /// The chip (or its address) is not on the fleet allowlist.
    ChipAllowlist,
    /// A key request's or response's `REPORT_DATA` does not bind its key,
    /// nonce and payload.
    KeyExchangeBinding,
    /// The TLS connection's key is not the one `REPORT_DATA` binds.
    TlsBinding,
}

impl DecidingCheck {
    const ALL: [DecidingCheck; 12] = [
        DecidingCheck::Chain,
        DecidingCheck::Binding,
        DecidingCheck::Signature,
        DecidingCheck::DebugPolicy,
        DecidingCheck::TcbFloor,
        DecidingCheck::Measurement,
        DecidingCheck::CsrDomain,
        DecidingCheck::CsrBinding,
        DecidingCheck::CsrPossession,
        DecidingCheck::ChipAllowlist,
        DecidingCheck::KeyExchangeBinding,
        DecidingCheck::TlsBinding,
    ];

    /// The check's name as it travels between components: the variant
    /// name, e.g. `"ChipAllowlist"`.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            DecidingCheck::Chain => "Chain",
            DecidingCheck::Binding => "Binding",
            DecidingCheck::Signature => "Signature",
            DecidingCheck::DebugPolicy => "DebugPolicy",
            DecidingCheck::TcbFloor => "TcbFloor",
            DecidingCheck::Measurement => "Measurement",
            DecidingCheck::CsrDomain => "CsrDomain",
            DecidingCheck::CsrBinding => "CsrBinding",
            DecidingCheck::CsrPossession => "CsrPossession",
            DecidingCheck::ChipAllowlist => "ChipAllowlist",
            DecidingCheck::KeyExchangeBinding => "KeyExchangeBinding",
            DecidingCheck::TlsBinding => "TlsBinding",
        }
    }

    /// The check [`DecidingCheck::name`] names; `None` for any other
    /// string.
    #[must_use]
    pub(crate) fn from_name(name: &str) -> Option<DecidingCheck> {
        DecidingCheck::ALL
            .into_iter()
            .find(|check| check.name() == name)
    }
}

/// Why a relying party refused, and the check that decided — `None` for
/// refusals no check decided (a malformed message, a peer's refusal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// The deciding check.
    pub(crate) check: Option<DecidingCheck>,
    /// What failed, for logs and error messages.
    pub(crate) detail: String,
}

impl Rejection {
    /// A rejection decided by `check`.
    #[must_use]
    pub(crate) fn new(check: DecidingCheck, detail: impl Into<String>) -> Self {
        Rejection {
            check: Some(check),
            detail: detail.into(),
        }
    }
}

impl From<String> for Rejection {
    fn from(detail: String) -> Self {
        Rejection {
            check: None,
            detail,
        }
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// AMD's root key, pinned and expanded once when a component is built.
#[derive(Debug, Clone)]
pub(crate) struct PinnedArk(ReportVerifier);

impl PinnedArk {
    /// Pins and expands `ark`.
    #[must_use]
    pub(crate) fn new(ark: VerifyingKey) -> Self {
        PinnedArk(ReportVerifier::new(ark))
    }
}

/// Which launch measurements an appraisal accepts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MeasurementRule<'a> {
    /// One of a golden set (the extension, SP provisioning).
    Golden(&'a GoldenSet),
    /// Exactly the appraiser's own (a leader and its peers).
    SameAs(Measurement),
    /// Any: reported, not judged (the SP's observation for the
    /// reconciler, which names drift itself).
    Reported,
}

/// What one appraisal judges a report against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppraisalPolicy<'a> {
    /// The trusted root.
    pub(crate) ark: &'a PinnedArk,
    /// The measurements accepted.
    pub(crate) measurement: MeasurementRule<'a>,
    /// Minimum reported TCB, componentwise; `None` accepts any.
    pub(crate) tcb_floor: Option<TcbVersion>,
}

/// Appraises `signed` against `chain` under `policy`; the first failing
/// check decides. The four signatures verify as one batched equation.
///
/// # Errors
///
/// Returns the [`Rejection`] naming the deciding check.
pub(crate) fn appraise(
    policy: &AppraisalPolicy<'_>,
    signed: &SignedReport,
    chain: &VcekCertChain,
) -> Result<(), Rejection> {
    policy.ark.0.verify_batched(signed, chain).map_err(|e| {
        let check = match e {
            SnpError::ReportBindingMismatch => DecidingCheck::Binding,
            SnpError::SignatureInvalid => DecidingCheck::Signature,
            SnpError::PolicyRejected(_) => DecidingCheck::DebugPolicy,
            _ => DecidingCheck::Chain,
        };
        Rejection::new(check, e.to_string())
    })?;
    let report = &signed.report;
    check_tcb_floor(report.reported_tcb, policy.tcb_floor)?;
    let measurement = report.measurement;
    let failed = match policy.measurement {
        MeasurementRule::Golden(golden) => (!golden.is_trusted(&measurement))
            .then(|| format!("measurement {measurement} not golden")),
        MeasurementRule::SameAs(own) => {
            (measurement != own).then(|| "peer measurement differs from ours".to_owned())
        }
        MeasurementRule::Reported => None,
    };
    match failed {
        Some(detail) => Err(Rejection::new(DecidingCheck::Measurement, detail)),
        None => Ok(()),
    }
}

/// The TCB-floor check ([`TcbVersion::meets`]). The reconciler judges
/// observed nodes with it too, so a node it keeps is one the extension
/// accepts.
///
/// # Errors
///
/// Returns a [`DecidingCheck::TcbFloor`] rejection below the floor.
pub(crate) fn check_tcb_floor(tcb: TcbVersion, floor: Option<TcbVersion>) -> Result<(), Rejection> {
    match floor {
        Some(floor) if !tcb.meets(floor) => Err(Rejection::new(
            DecidingCheck::TcbFloor,
            format!("reported tcb {tcb} below required minimum {floor}"),
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use revelio_crypto::ed25519::SigningKey;
    use revelio_http::message::Response;
    use revelio_http::router::Router;
    use revelio_http::server::serve_http;
    use revelio_pki::cert::CertificateSigningRequest;
    use sev_snp::ids::{ChipId, GuestPolicy};
    use sev_snp::kds::KeyDistributionService;
    use sev_snp::platform::AmdRootOfTrust;

    use super::*;
    use crate::evidence::EvidenceBundle;
    use crate::kds_http::KDS_ADDRESS;
    use crate::node::{demo_app, CsrBundle};
    use crate::world::SimWorld;
    use crate::RevelioError;

    const DOMAIN: &str = "pad.example.org";

    /// Replaces the world's KDS with one that answers every VCEK query
    /// with `chain` — how a wrong-chip or impostor chain reaches a caller
    /// that fetches its own chain.
    fn serve_fixed_kds(world: &SimWorld, chain: &VcekCertChain) {
        world.net.unbind(KDS_ADDRESS);
        let body = chain.to_bytes();
        let router = Router::new().post("/vcek", move |_| Response::ok(body.clone()));
        serve_http(&world.net, KDS_ADDRESS, router).unwrap();
        world.kds.flush_cache();
    }

    /// The extension, the SP and a leader name the same deciding check
    /// for each report-level mutation.
    #[test]
    fn every_relying_party_names_the_same_deciding_check() {
        let mut world = SimWorld::new(23);
        let fleet = world.deploy_fleet(DOMAIN, 1, demo_app()).unwrap();
        let leader = &fleet.nodes[0];
        let golden = GoldenSet::from_measurements([fleet.golden_measurement]);
        let bootstrap = leader.bootstrap_address().to_owned();
        let chip = leader.vm().guest().chip_id();
        let sp = world.sp_node_for_domain(DOMAIN, golden.clone(), vec![(chip, bootstrap.clone())]);
        let csr =
            CertificateSigningRequest::new(DOMAIN, &SigningKey::from_seed(&[5; 32]), "O", "XX");

        let honest = leader.vm().report_with_data(&csr.digest());
        let tcb = honest.report.reported_tcb;
        let kds = KeyDistributionService::new(Arc::clone(&world.amd));
        let honest_chain = kds.vcek_chain(&chip, &tcb).unwrap();
        let mut tampered = honest.clone();
        tampered.report.guest_svn += 1;
        let wrong_chip = kds.vcek_chain(&ChipId::from_seed(4242), &tcb).unwrap();
        let impostor_amd = Arc::new(AmdRootOfTrust::from_seed([99; 32]));
        let impostor = KeyDistributionService::new(impostor_amd)
            .vcek_chain(&chip, &tcb)
            .unwrap();
        let mut launch = |firmware: &[u8], debug_allowed: bool| {
            let platform = world.new_platform();
            let policy = GuestPolicy {
                debug_allowed,
                ..GuestPolicy::default()
            };
            let guest = platform.launch(firmware, policy).unwrap();
            let chain = kds.vcek_chain(&platform.chip_id(), &tcb).unwrap();
            (guest.attestation_report(honest.report.report_data), chain)
        };
        let (debug, debug_chain) = launch(b"fw", true);
        let (foreign, foreign_chain) = launch(b"another image", false);

        let cases = [
            (
                "tampered body",
                tampered,
                honest_chain.clone(),
                DecidingCheck::Signature,
            ),
            (
                "wrong-chip chain",
                honest.clone(),
                wrong_chip,
                DecidingCheck::Binding,
            ),
            (
                "impostor ark",
                honest.clone(),
                impostor,
                DecidingCheck::Chain,
            ),
            (
                "debug policy",
                debug,
                debug_chain,
                DecidingCheck::DebugPolicy,
            ),
            (
                "measurement",
                foreign,
                foreign_chain,
                DecidingCheck::Measurement,
            ),
        ];
        for (name, report, chain, expected) in cases {
            serve_fixed_kds(&world, &chain);
            let extension = world.extension();
            extension.register_site(DOMAIN, [fleet.golden_measurement]);
            let bundle = EvidenceBundle {
                report: report.clone(),
                chain,
            };
            let by_extension = extension.verify_evidence(DOMAIN, &bundle);
            let csr_bundle = CsrBundle {
                csr: csr.clone(),
                report: report.clone(),
            };
            let by_sp =
                sp.validate_bundle(&bootstrap, &csr_bundle, MeasurementRule::Golden(&golden));
            let by_leader = leader.validate_peer_report(&report);
            for (caller, result) in [
                ("extension", by_extension.map(|_| ())),
                ("sp", by_sp),
                ("leader", by_leader),
            ] {
                let check = result.as_ref().err().and_then(RevelioError::deciding_check);
                assert_eq!(check, Some(expected), "{name} via {caller}: {result:?}");
            }
        }

        // The unmutated report passes all three, so each case above
        // failed on its mutation alone.
        serve_fixed_kds(&world, &honest_chain);
        let extension = world.extension();
        extension.register_site(DOMAIN, [fleet.golden_measurement]);
        let bundle = EvidenceBundle {
            report: honest.clone(),
            chain: honest_chain,
        };
        extension.verify_evidence(DOMAIN, &bundle).unwrap();
        let csr_bundle = CsrBundle {
            csr,
            report: honest.clone(),
        };
        sp.validate_bundle(&bootstrap, &csr_bundle, MeasurementRule::Golden(&golden))
            .unwrap();
        leader.validate_peer_report(&honest).unwrap();

        // The TCB floor is the extension's alone.
        extension.set_tcb_floor(Some(TcbVersion::new(1, 0, 9, 0)));
        let err = extension.verify_evidence(DOMAIN, &bundle).unwrap_err();
        assert_eq!(err.deciding_check(), Some(DecidingCheck::TcbFloor), "{err}");
    }
}
