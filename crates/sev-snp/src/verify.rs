//! Attestation-report verification against a pinned AMD root: the
//! certificate chain, the report↔certificate binding, the report
//! signature, and the guest policy (no debugging). Debug-enabled guests
//! are always rejected.
//!
//! Everything else a relying party judges — the TCB floor and the launch
//! measurement — is Revelio policy and lives in the `revelio` crate's
//! one appraisal function, which every relying party (SP, leader,
//! browser extension) calls. The floor comparison itself is
//! [`TcbVersion::meets`](crate::ids::TcbVersion::meets).

use revelio_crypto::ed25519::{verify_batch, BatchItem, ExpandedVerifyingKey, VerifyingKey};

use crate::kds::VcekCertChain;
use crate::report::SignedReport;
use crate::SnpError;

/// Signature equations one full report verification checks: the ARK
/// self-signature, the ASK and VCEK certificate signatures, and the
/// VCEK signature over the report body.
pub const SIGNATURE_CHECKS_PER_VERIFY: u64 = 4;

/// Verifies signed reports against a pinned AMD root key.
///
/// The pinned ARK is expanded (point-decompressed) once at construction
/// and reused across every chain verification — cloning the verifier
/// copies the expansion instead of re-deriving it, so a fleet's millions
/// of verifications pay the root's sqrt exactly once per verifier line.
#[derive(Debug, Clone)]
pub struct ReportVerifier {
    trusted_ark: ExpandedVerifyingKey,
}

impl ReportVerifier {
    /// Creates a verifier that pins `trusted_ark` (AMD's published root).
    #[must_use]
    pub fn new(trusted_ark: VerifyingKey) -> Self {
        ReportVerifier {
            trusted_ark: trusted_ark.expand(),
        }
    }

    /// Verifies `signed` against `chain`:
    ///
    /// 1. the chain terminates at the pinned ARK,
    /// 2. the VCEK certificate endorses exactly the chip and TCB named in
    ///    the report,
    /// 3. the VCEK signature over the report body verifies,
    /// 4. the guest policy does not permit debugging (host memory access).
    ///
    /// The four signatures of checks 1–3 verify as one batched group
    /// equation ([`verify_batch`]) sharing a single doubling chain. When
    /// it fails, the checks rerun one by one to name the culprit.
    ///
    /// # Errors
    ///
    /// Returns the specific [`SnpError`] for whichever check fails first.
    pub fn verify_batched(
        &self,
        signed: &SignedReport,
        chain: &VcekCertChain,
    ) -> Result<(), SnpError> {
        if !self.batch_verifies(signed, chain) {
            // The batch cannot name the culprit; the sequential pass can,
            // and it is the error-compatibility oracle.
            self.verify(signed, chain)?;
            return Err(SnpError::SignatureInvalid);
        }
        if signed.report.policy.debug_allowed {
            return Err(SnpError::PolicyRejected("debug access enabled".into()));
        }
        Ok(())
    }

    /// Whether checks 1–3 hold as one batched equation. A chain whose
    /// root or binding already disagrees fails without the batch; the
    /// sequential pass names it.
    fn batch_verifies(&self, signed: &SignedReport, chain: &VcekCertChain) -> bool {
        let plausible = chain.ark.public_key == *self.trusted_ark.key()
            && chain.vcek.vcek_binding.as_ref().is_some_and(|(chip, tcb)| {
                *chip == signed.report.chip_id && *tcb == signed.report.reported_tcb
            });
        if !plausible {
            return false;
        }
        let ark_payload = chain.ark.signed_payload();
        let ask_payload = chain.ask.signed_payload();
        let vcek_payload = chain.vcek.signed_payload();
        let report_payload = signed.report.to_bytes();
        // The plausibility check pinned chain.ark.public_key to the
        // trusted root, so the cached expansion serves as the issuer key
        // for both the ARK self-signature and the ASK certificate.
        let ask_key = chain.ask.public_key.expand();
        let vcek_key = chain.vcek.public_key.expand();
        let items = [
            BatchItem {
                key: &self.trusted_ark,
                message: &ark_payload,
                signature: &chain.ark.signature,
            },
            BatchItem {
                key: &self.trusted_ark,
                message: &ask_payload,
                signature: &chain.ask.signature,
            },
            BatchItem {
                key: &ask_key,
                message: &vcek_payload,
                signature: &chain.vcek.signature,
            },
            BatchItem {
                key: &vcek_key,
                message: &report_payload,
                signature: &signed.signature,
            },
        ];
        verify_batch(&items).is_ok()
    }

    /// Checks 1–3 one signature at a time: the fallback that names the
    /// first failing check for [`Self::verify_batched`].
    fn verify(&self, signed: &SignedReport, chain: &VcekCertChain) -> Result<(), SnpError> {
        let (vcek_public, (bound_chip, bound_tcb)) = chain.validate_with(&self.trusted_ark)?;
        if bound_chip != signed.report.chip_id || bound_tcb != signed.report.reported_tcb {
            return Err(SnpError::ReportBindingMismatch);
        }
        signed.verify_signature(&vcek_public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChipId, GuestPolicy, TcbVersion};
    use crate::kds::KeyDistributionService;
    use crate::platform::{AmdRootOfTrust, SnpPlatform};
    use crate::report::ReportData;
    use std::sync::Arc;

    struct World {
        amd: Arc<AmdRootOfTrust>,
        kds: KeyDistributionService,
        platform: SnpPlatform,
    }

    fn world() -> World {
        let amd = Arc::new(AmdRootOfTrust::from_seed([11; 32]));
        let kds = KeyDistributionService::new(Arc::clone(&amd));
        let platform = SnpPlatform::new(
            Arc::clone(&amd),
            ChipId::from_seed(1),
            TcbVersion::new(1, 0, 8, 115),
        );
        World { amd, kds, platform }
    }

    #[test]
    fn end_to_end_verification_succeeds() {
        let w = world();
        let guest = w.platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let report = guest.attestation_report(ReportData::from_slice(b"nonce"));
        let chain = w
            .kds
            .vcek_chain(&w.platform.chip_id(), &w.platform.tcb_version())
            .unwrap();
        ReportVerifier::new(w.amd.ark_public_key())
            .verify_batched(&report, &chain)
            .unwrap();
    }

    #[test]
    fn chain_for_wrong_chip_rejected() {
        let w = world();
        let guest = w.platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let report = guest.attestation_report(ReportData::default());
        // KDS chain fetched for a *different* chip: binding mismatch.
        let chain = w
            .kds
            .vcek_chain(&ChipId::from_seed(99), &w.platform.tcb_version())
            .unwrap();
        assert_eq!(
            ReportVerifier::new(w.amd.ark_public_key()).verify_batched(&report, &chain),
            Err(SnpError::ReportBindingMismatch)
        );
    }

    #[test]
    fn chain_for_wrong_tcb_rejected() {
        let w = world();
        let guest = w.platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let report = guest.attestation_report(ReportData::default());
        let chain = w
            .kds
            .vcek_chain(&w.platform.chip_id(), &TcbVersion::new(0, 0, 1, 1))
            .unwrap();
        assert!(ReportVerifier::new(w.amd.ark_public_key())
            .verify_batched(&report, &chain)
            .is_err());
    }

    #[test]
    fn tampered_report_rejected() {
        let w = world();
        let guest = w.platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let mut report = guest.attestation_report(ReportData::default());
        report.report.guest_svn += 1;
        let chain = w
            .kds
            .vcek_chain(&w.platform.chip_id(), &w.platform.tcb_version())
            .unwrap();
        assert_eq!(
            ReportVerifier::new(w.amd.ark_public_key()).verify_batched(&report, &chain),
            Err(SnpError::SignatureInvalid)
        );
    }

    #[test]
    fn debug_policy_always_rejected() {
        let w = world();
        let policy = GuestPolicy {
            debug_allowed: true,
            ..GuestPolicy::default()
        };
        let guest = w.platform.launch(b"fw", policy).unwrap();
        let report = guest.attestation_report(ReportData::default());
        let chain = w
            .kds
            .vcek_chain(&w.platform.chip_id(), &w.platform.tcb_version())
            .unwrap();
        // Chain, binding and signature all hold: only the policy decides.
        let verifier = ReportVerifier::new(w.amd.ark_public_key());
        verifier.verify(&report, &chain).unwrap();
        assert_eq!(
            verifier.verify_batched(&report, &chain),
            Err(SnpError::PolicyRejected("debug access enabled".into()))
        );
    }

    #[test]
    fn batched_verify_matches_sequential_on_every_fixture() {
        let w = world();
        let verifier = ReportVerifier::new(w.amd.ark_public_key());
        let good_chain = w
            .kds
            .vcek_chain(&w.platform.chip_id(), &w.platform.tcb_version())
            .unwrap();

        // Valid report: both paths accept.
        let guest = w.platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let report = guest.attestation_report(ReportData::from_slice(b"nonce"));
        verifier.verify_batched(&report, &good_chain).unwrap();

        // Tampered report body: same SignatureInvalid as sequential.
        let mut tampered = report.clone();
        tampered.report.guest_svn += 1;
        assert_eq!(
            verifier.verify_batched(&tampered, &good_chain),
            verifier.verify(&tampered, &good_chain)
        );
        assert_eq!(
            verifier.verify_batched(&tampered, &good_chain),
            Err(SnpError::SignatureInvalid)
        );

        // Chain for a different chip: binding mismatch, same error.
        let wrong_chip = w
            .kds
            .vcek_chain(&ChipId::from_seed(99), &w.platform.tcb_version())
            .unwrap();
        assert_eq!(
            verifier.verify_batched(&report, &wrong_chip),
            Err(SnpError::ReportBindingMismatch)
        );

        // Impostor AMD root: chain fails on the pinned ARK either way.
        let fake_amd = Arc::new(AmdRootOfTrust::from_seed([99; 32]));
        let fake_chain = KeyDistributionService::new(fake_amd)
            .vcek_chain(&w.platform.chip_id(), &w.platform.tcb_version())
            .unwrap();
        assert_eq!(
            verifier.verify_batched(&report, &fake_chain),
            verifier.verify(&report, &fake_chain)
        );
        assert!(verifier.verify_batched(&report, &fake_chain).is_err());

        // Corrupted ASK certificate signature: batch fails, the fallback
        // names the certificate, matching the sequential error exactly.
        let mut bad_ask = good_chain.clone();
        let mut sig = bad_ask.ask.signature.to_bytes();
        sig[7] ^= 1;
        bad_ask.ask.signature = revelio_crypto::ed25519::Signature::from_bytes(sig);
        assert_eq!(
            verifier.verify_batched(&report, &bad_ask),
            verifier.verify(&report, &bad_ask)
        );
        assert!(verifier.verify_batched(&report, &bad_ask).is_err());
    }

    #[test]
    fn pinned_ark_expansion_is_reused_across_chain_verifications() {
        use revelio_crypto::metrics;

        let w = world();
        let guest = w.platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let report = guest.attestation_report(ReportData::from_slice(b"nonce"));
        let chain = w
            .kds
            .vcek_chain(&w.platform.chip_id(), &w.platform.tcb_version())
            .unwrap();

        // Warm the verifier (and any lazily-built tables).
        let verifier = ReportVerifier::new(w.amd.ark_public_key());
        verifier.verify_batched(&report, &chain).unwrap();

        let reused_per_call = {
            let before = metrics::thread_point_decompressions();
            verifier.verify_batched(&report, &chain).unwrap();
            metrics::thread_point_decompressions() - before
        };
        let fresh_per_call = {
            let before = metrics::thread_point_decompressions();
            ReportVerifier::new(w.amd.ark_public_key())
                .verify_batched(&report, &chain)
                .unwrap();
            metrics::thread_point_decompressions() - before
        };
        assert_eq!(
            fresh_per_call,
            reused_per_call + 1,
            "a fresh verifier must pay exactly one extra decompression (the pinned ARK)"
        );
        // And repeated verification through the shared verifier never
        // touches the ARK again: only the per-chain ASK/VCEK keys and
        // the four signature R points are decompressed.
        assert_eq!(reused_per_call, 6, "ASK + VCEK + 4 R points");
    }

    #[test]
    fn report_from_impostor_amd_rejected() {
        let w = world();
        // A fake "AMD" manufactures a lookalike platform and chain.
        let fake_amd = Arc::new(AmdRootOfTrust::from_seed([99; 32]));
        let fake_platform = SnpPlatform::new(
            Arc::clone(&fake_amd),
            w.platform.chip_id(),
            w.platform.tcb_version(),
        );
        let guest = fake_platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let report = guest.attestation_report(ReportData::default());
        let fake_chain = KeyDistributionService::new(fake_amd)
            .vcek_chain(&w.platform.chip_id(), &w.platform.tcb_version())
            .unwrap();
        // Verifier pins the real ARK: the impostor chain cannot validate.
        assert!(ReportVerifier::new(w.amd.ark_public_key())
            .verify_batched(&report, &fake_chain)
            .is_err());
    }
}
