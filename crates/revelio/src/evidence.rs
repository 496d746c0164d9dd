//! The attestation evidence bundle a Revelio VM serves at its well-known
//! URL (§5.3.2): the VCEK-signed report (with the TLS public key's hash in
//! `REPORT_DATA`) plus the endorsement chain, so verifiers need only one
//! extra fetch — the KDS query — and can skip even that with a warm cache.

use revelio_crypto::ed25519::VerifyingKey;
use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::{ByteReader, ByteWriter};
use sev_snp::kds::VcekCertChain;
use sev_snp::report::SignedReport;

use crate::RevelioError;

/// Evidence served to end-users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceBundle {
    /// Report whose `REPORT_DATA` holds SHA-256 of the service's TLS
    /// public key.
    pub report: SignedReport,
    /// The ARK→ASK→VCEK chain for the producing chip (advisory: verifiers
    /// may fetch their own from the KDS instead of trusting this copy).
    pub chain: VcekCertChain,
}

impl EvidenceBundle {
    /// Serializes the bundle.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"RVEV1");
        w.put_var_bytes(&self.report.to_bytes());
        w.put_var_bytes(&self.chain.to_bytes());
        w.into_bytes()
    }

    /// Decodes a bundle.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::EvidenceRejected`] for non-evidence bytes
    /// and the underlying errors for malformed contents.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RevelioError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<5>().map_err(RevelioError::Wire)?;
        if &magic != b"RVEV1" {
            return Err(RevelioError::EvidenceRejected(
                "missing evidence magic".to_owned().into(),
            ));
        }
        let report = SignedReport::from_bytes(r.get_var_bytes()?)?;
        let chain = VcekCertChain::from_bytes(r.get_var_bytes()?)?;
        r.finish()?;
        Ok(EvidenceBundle { report, chain })
    }

    /// Checks the TLS binding: `REPORT_DATA[..32]` must equal the SHA-256
    /// of `tls_public_key` (requirement **F3**).
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::TlsBindingMismatch`] when the connection's
    /// key is not the attested key.
    pub fn check_tls_binding(&self, tls_public_key: &VerifyingKey) -> Result<(), RevelioError> {
        let expected = Sha256::digest(tls_public_key.to_bytes());
        if revelio_crypto::ct::eq(&self.report.report.report_data.as_bytes()[..32], &expected) {
            Ok(())
        } else {
            Err(RevelioError::TlsBindingMismatch)
        }
    }
}

/// The `REPORT_DATA` a node uses to bind a TLS key into its report.
#[must_use]
pub fn tls_binding_report_data(tls_public_key: &VerifyingKey) -> [u8; 32] {
    Sha256::digest(tls_public_key.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_crypto::ed25519::SigningKey;
    use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
    use sev_snp::kds::KeyDistributionService;
    use sev_snp::platform::{AmdRootOfTrust, SnpPlatform};
    use sev_snp::report::ReportData;
    use std::sync::Arc;

    fn bundle(tls_key: &SigningKey) -> EvidenceBundle {
        let amd = Arc::new(AmdRootOfTrust::from_seed([1; 32]));
        let platform = SnpPlatform::new(
            Arc::clone(&amd),
            ChipId::from_seed(1),
            TcbVersion::default(),
        );
        let guest = platform.launch(b"fw", GuestPolicy::default()).unwrap();
        let report = guest.attestation_report(ReportData::from_slice(&tls_binding_report_data(
            &tls_key.verifying_key(),
        )));
        let chain = KeyDistributionService::new(amd)
            .vcek_chain(&platform.chip_id(), &platform.tcb_version())
            .unwrap();
        EvidenceBundle { report, chain }
    }

    #[test]
    fn roundtrip() {
        let key = SigningKey::from_seed(&[2; 32]);
        let b = bundle(&key);
        assert_eq!(EvidenceBundle::from_bytes(&b.to_bytes()).unwrap(), b);
    }

    #[test]
    fn tls_binding_accepts_bound_key() {
        let key = SigningKey::from_seed(&[2; 32]);
        bundle(&key)
            .check_tls_binding(&key.verifying_key())
            .unwrap();
    }

    #[test]
    fn tls_binding_rejects_other_key() {
        let key = SigningKey::from_seed(&[2; 32]);
        let attacker = SigningKey::from_seed(&[3; 32]);
        assert_eq!(
            bundle(&key).check_tls_binding(&attacker.verifying_key()),
            Err(RevelioError::TlsBindingMismatch)
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(EvidenceBundle::from_bytes(b"not evidence").is_err());
        assert!(matches!(
            EvidenceBundle::from_bytes(b"XXXXXYYYY"),
            Err(RevelioError::EvidenceRejected(_))
        ));
    }
}
