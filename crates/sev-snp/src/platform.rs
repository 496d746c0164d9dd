//! The simulated hardware: AMD's root of trust, per-machine platforms
//! (chips with their AMD-SP), and launched guest contexts.

use std::sync::Arc;

use revelio_crypto::ed25519::{SigningKey, VerifyingKey};
use revelio_crypto::hmac::Hmac;
use revelio_crypto::sha2::Sha256;

use crate::ids::{ChipId, GuestPolicy, TcbVersion};
use crate::measurement::Measurement;
use crate::report::{AttestationReport, ReportData, SignedReport, REPORT_VERSION};
use crate::sealing::SealingKeyRequest;
use crate::SnpError;

/// AMD's manufacturing root of trust (simulated).
///
/// Owns the master seed from which the ARK, the ASK and every chip's
/// VCEK/sealing secrets are derived — the role AMD's factory and signing
/// infrastructure play for real hardware. Tests and simulations create one
/// of these, "manufacture" any number of [`SnpPlatform`]s from it, and hand
/// the same instance to the [`crate::kds::KeyDistributionService`].
#[derive(Clone)]
pub struct AmdRootOfTrust {
    master_seed: [u8; 32],
    ark: SigningKey,
    ask: SigningKey,
}

impl std::fmt::Debug for AmdRootOfTrust {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmdRootOfTrust")
            .field("ark", &self.ark.verifying_key())
            .finish_non_exhaustive()
    }
}

fn derive_seed(master: &[u8; 32], label: &str, context: &[u8]) -> [u8; 32] {
    let mut mac = Hmac::<Sha256>::new(master);
    mac.update(label.as_bytes());
    mac.update(&[0]);
    mac.update(context);
    mac.finalize_fixed()
}

impl AmdRootOfTrust {
    /// Creates the root of trust from a master seed.
    #[must_use]
    pub fn from_seed(master_seed: [u8; 32]) -> Self {
        let ark = SigningKey::from_seed(&derive_seed(&master_seed, "amd/ark", &[]));
        let ask = SigningKey::from_seed(&derive_seed(&master_seed, "amd/ask", &[]));
        AmdRootOfTrust {
            master_seed,
            ark,
            ask,
        }
    }

    /// The ARK public key — the single value remote verifiers must trust
    /// out-of-band (they'd pin AMD's published root certificate in
    /// reality).
    #[must_use]
    pub fn ark_public_key(&self) -> VerifyingKey {
        self.ark.verifying_key()
    }

    pub(crate) fn ark_key(&self) -> &SigningKey {
        &self.ark
    }

    pub(crate) fn ask_key(&self) -> &SigningKey {
        &self.ask
    }

    /// Derives the VCEK for a chip at a TCB level. Versioned: a platform
    /// that updates its TCB gets a *different* endorsement key, exactly as
    /// on real hardware.
    #[must_use]
    pub(crate) fn vcek_for(&self, chip_id: &ChipId, tcb: &TcbVersion) -> SigningKey {
        let mut context = Vec::with_capacity(72);
        context.extend_from_slice(chip_id.as_bytes());
        context.extend_from_slice(&tcb.to_u64().to_le_bytes());
        SigningKey::from_seed(&derive_seed(&self.master_seed, "amd/vcek", &context))
    }

    /// The per-chip secret that sealing keys are derived from (stands in
    /// for fused hardware secrets).
    #[must_use]
    pub(crate) fn chip_sealing_secret(&self, chip_id: &ChipId) -> [u8; 32] {
        derive_seed(&self.master_seed, "amd/seal", chip_id.as_bytes())
    }
}

/// One physical machine: a chip with its AMD secure processor.
#[derive(Clone)]
pub struct SnpPlatform {
    chip_id: ChipId,
    tcb: TcbVersion,
    vcek: SigningKey,
    sealing_secret: [u8; 32],
}

impl std::fmt::Debug for SnpPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnpPlatform")
            .field("chip_id", &self.chip_id)
            .field("tcb", &self.tcb)
            .finish_non_exhaustive()
    }
}

impl SnpPlatform {
    /// Manufactures a platform: fuses the chip's VCEK and sealing secret
    /// from AMD's root of trust.
    #[must_use]
    pub fn new(amd: Arc<AmdRootOfTrust>, chip_id: ChipId, tcb: TcbVersion) -> Self {
        SnpPlatform {
            vcek: amd.vcek_for(&chip_id, &tcb),
            sealing_secret: amd.chip_sealing_secret(&chip_id),
            chip_id,
            tcb,
        }
    }

    /// This chip's identity.
    #[must_use]
    pub fn chip_id(&self) -> ChipId {
        self.chip_id
    }

    /// The platform's current TCB version.
    #[must_use]
    pub fn tcb_version(&self) -> TcbVersion {
        self.tcb
    }

    /// Launches a confidential guest: measures `initial_memory` (the
    /// firmware volume under direct boot) and pins `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::PolicyRejected`] for a policy this platform
    /// cannot honour (ABI major 0, or debug+migrate combined — the
    /// simulator mirrors firmware checks).
    pub fn launch(
        &self,
        initial_memory: &[u8],
        policy: GuestPolicy,
    ) -> Result<GuestContext, SnpError> {
        if policy.abi_major == 0 {
            return Err(SnpError::PolicyRejected("abi major version 0".into()));
        }
        if policy.debug_allowed && policy.migrate_allowed {
            return Err(SnpError::PolicyRejected(
                "debug and migration cannot be combined".into(),
            ));
        }
        Ok(GuestContext {
            measurement: Measurement::of_launch_context(initial_memory),
            policy,
            chip_id: self.chip_id,
            tcb: self.tcb,
            vcek: self.vcek.clone(),
            sealing_secret: self.sealing_secret,
            guest_svn: 1,
        })
    }
}

/// A launched confidential guest's view of its AMD-SP — the moral
/// equivalent of `/dev/sev-guest` inside the VM.
///
/// The measurement is fixed at launch; `REPORT_DATA` varies per request
/// over the protected guest↔AMD-SP path (§2.1.1).
#[derive(Clone)]
pub struct GuestContext {
    measurement: Measurement,
    policy: GuestPolicy,
    chip_id: ChipId,
    tcb: TcbVersion,
    vcek: SigningKey,
    sealing_secret: [u8; 32],
    guest_svn: u32,
}

impl std::fmt::Debug for GuestContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestContext")
            .field("measurement", &self.measurement)
            .field("chip_id", &self.chip_id)
            .finish_non_exhaustive()
    }
}

impl GuestContext {
    /// The launch measurement of this guest.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The policy pinned at launch.
    #[must_use]
    pub fn policy(&self) -> GuestPolicy {
        self.policy
    }

    /// The chip this guest runs on.
    #[must_use]
    pub fn chip_id(&self) -> ChipId {
        self.chip_id
    }

    /// Requests a VCEK-signed attestation report carrying `report_data`.
    #[must_use]
    pub fn attestation_report(&self, report_data: ReportData) -> SignedReport {
        self.attestation_report_with_host_data(report_data, [0; 32])
    }

    /// Like [`GuestContext::attestation_report`] with hypervisor-supplied
    /// `HOST_DATA`.
    #[must_use]
    pub fn attestation_report_with_host_data(
        &self,
        report_data: ReportData,
        host_data: [u8; 32],
    ) -> SignedReport {
        let report = AttestationReport {
            version: REPORT_VERSION,
            guest_svn: self.guest_svn,
            policy: self.policy,
            measurement: self.measurement,
            host_data,
            report_data,
            chip_id: self.chip_id,
            current_tcb: self.tcb,
            reported_tcb: self.tcb,
        };
        SignedReport::sign(report, &self.vcek)
    }

    /// Derives a sealing key per `request` (§2.1.3). With the default
    /// request the key is bound to this guest's measurement and chip: only
    /// an identical VM on the same platform can re-derive it.
    #[must_use]
    pub fn derive_sealing_key(&self, request: &SealingKeyRequest) -> [u8; 32] {
        request.derive(
            &self.sealing_secret,
            &self.measurement,
            &self.policy,
            &self.tcb,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amd() -> Arc<AmdRootOfTrust> {
        Arc::new(AmdRootOfTrust::from_seed([9; 32]))
    }

    #[test]
    fn launch_measures_initial_memory() {
        let p = SnpPlatform::new(amd(), ChipId::from_seed(1), TcbVersion::new(1, 0, 8, 115));
        let g1 = p.launch(b"fw-a", GuestPolicy::default()).unwrap();
        let g2 = p.launch(b"fw-a", GuestPolicy::default()).unwrap();
        let g3 = p.launch(b"fw-b", GuestPolicy::default()).unwrap();
        assert_eq!(g1.measurement(), g2.measurement());
        assert_ne!(g1.measurement(), g3.measurement());
    }

    #[test]
    fn policy_abi_zero_rejected() {
        let p = SnpPlatform::new(amd(), ChipId::from_seed(1), TcbVersion::default());
        let policy = GuestPolicy {
            abi_major: 0,
            ..GuestPolicy::default()
        };
        assert!(matches!(
            p.launch(b"fw", policy),
            Err(SnpError::PolicyRejected(_))
        ));
    }

    #[test]
    fn debug_plus_migrate_rejected() {
        let p = SnpPlatform::new(amd(), ChipId::from_seed(1), TcbVersion::default());
        let policy = GuestPolicy {
            debug_allowed: true,
            migrate_allowed: true,
            ..GuestPolicy::default()
        };
        assert!(p.launch(b"fw", policy).is_err());
    }

    #[test]
    fn report_reflects_guest_state() {
        let p = SnpPlatform::new(amd(), ChipId::from_seed(3), TcbVersion::new(1, 0, 8, 115));
        let g = p.launch(b"fw", GuestPolicy::default()).unwrap();
        let signed = g.attestation_report(ReportData::from_slice(b"nonce"));
        assert_eq!(signed.report.measurement, g.measurement());
        assert_eq!(signed.report.chip_id, p.chip_id());
        assert_eq!(signed.report.reported_tcb, p.tcb_version());
        assert_eq!(&signed.report.report_data.as_bytes()[..5], b"nonce");
    }

    #[test]
    fn report_signature_verifies_with_derived_vcek() {
        let root = amd();
        let chip = ChipId::from_seed(4);
        let tcb = TcbVersion::new(1, 0, 8, 115);
        let p = SnpPlatform::new(Arc::clone(&root), chip, tcb);
        let g = p.launch(b"fw", GuestPolicy::default()).unwrap();
        let signed = g.attestation_report(ReportData::default());
        let vcek_pub = root.vcek_for(&chip, &tcb).verifying_key();
        signed.verify_signature(&vcek_pub).unwrap();
    }

    #[test]
    fn vcek_is_versioned_by_tcb() {
        let root = amd();
        let chip = ChipId::from_seed(4);
        let old = root.vcek_for(&chip, &TcbVersion::new(1, 0, 7, 100));
        let new = root.vcek_for(&chip, &TcbVersion::new(1, 0, 8, 100));
        assert_ne!(old.verifying_key(), new.verifying_key());
    }

    #[test]
    fn vcek_differs_per_chip() {
        let root = amd();
        let tcb = TcbVersion::new(1, 0, 8, 115);
        let a = root.vcek_for(&ChipId::from_seed(1), &tcb);
        let b = root.vcek_for(&ChipId::from_seed(2), &tcb);
        assert_ne!(a.verifying_key(), b.verifying_key());
    }

    #[test]
    fn distinct_roots_of_trust_disagree() {
        let a = AmdRootOfTrust::from_seed([1; 32]);
        let b = AmdRootOfTrust::from_seed([2; 32]);
        assert_ne!(a.ark_public_key(), b.ark_public_key());
    }
}
