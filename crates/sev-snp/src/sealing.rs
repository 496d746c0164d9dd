//! Sealing-key derivation (the SNP `KEY_REQUEST` message, §2.1.3).
//!
//! A guest asks its AMD-SP for key material derived from platform secrets
//! mixed, at the guest's choice, with its launch measurement, policy and
//! TCB. Revelio seals its persistent volumes with a measurement-mixed key
//! so only an identically-measured VM on the same chip can unlock them
//! (§3.4.8).

use revelio_crypto::hmac::Hmac;
use revelio_crypto::sha2::Sha256;

use crate::ids::{GuestPolicy, TcbVersion};
use crate::measurement::Measurement;

/// Selects which guest attributes are mixed into a derived key.
///
/// The default request mixes the measurement only — the paper's disk
/// sealing policy ("accessible only by a VM with an identical cryptographic
/// fingerprint").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealingKeyRequest {
    /// Mix the launch measurement into the key.
    pub mix_measurement: bool,
    /// Mix the guest policy into the key.
    pub mix_policy: bool,
    /// Mix the platform TCB version into the key (prevents rolled-back
    /// firmware from unsealing).
    pub mix_tcb: bool,
    /// Free-form context separating different uses of sealing keys inside
    /// one guest (e.g. `b"disk"` vs `b"tls-backup"`).
    pub context: Vec<u8>,
}

impl Default for SealingKeyRequest {
    fn default() -> Self {
        SealingKeyRequest {
            mix_measurement: true,
            mix_policy: false,
            mix_tcb: false,
            context: Vec::new(),
        }
    }
}

impl SealingKeyRequest {
    /// A measurement-bound request with a usage context label.
    #[must_use]
    pub fn for_context(context: &[u8]) -> Self {
        SealingKeyRequest {
            context: context.to_vec(),
            ..SealingKeyRequest::default()
        }
    }

    /// Performs the derivation. Called by
    /// [`crate::platform::GuestContext::derive_sealing_key`].
    #[must_use]
    pub(crate) fn derive(
        &self,
        chip_secret: &[u8; 32],
        measurement: &Measurement,
        policy: &GuestPolicy,
        tcb: &TcbVersion,
    ) -> [u8; 32] {
        let mut mac = Hmac::<Sha256>::new(chip_secret);
        mac.update(b"snp-key-request/v1");
        mac.update(&[
            u8::from(self.mix_measurement),
            u8::from(self.mix_policy),
            u8::from(self.mix_tcb),
        ]);
        if self.mix_measurement {
            mac.update(measurement.as_bytes());
        }
        if self.mix_policy {
            mac.update(&policy.to_u64().to_le_bytes());
        }
        if self.mix_tcb {
            mac.update(&tcb.to_u64().to_le_bytes());
        }
        mac.update(&(self.context.len() as u64).to_le_bytes());
        mac.update(&self.context);
        mac.finalize_fixed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChipId, GuestPolicy};
    use crate::platform::{AmdRootOfTrust, SnpPlatform};
    use std::sync::Arc;

    fn guests() -> (crate::platform::GuestContext, crate::platform::GuestContext) {
        let amd = Arc::new(AmdRootOfTrust::from_seed([3; 32]));
        let p1 = SnpPlatform::new(
            Arc::clone(&amd),
            ChipId::from_seed(1),
            TcbVersion::default(),
        );
        let p2 = SnpPlatform::new(
            Arc::clone(&amd),
            ChipId::from_seed(2),
            TcbVersion::default(),
        );
        (
            p1.launch(b"fw", GuestPolicy::default()).unwrap(),
            p2.launch(b"fw", GuestPolicy::default()).unwrap(),
        )
    }

    #[test]
    fn same_vm_same_platform_rederives() {
        let amd = Arc::new(AmdRootOfTrust::from_seed([3; 32]));
        let p = SnpPlatform::new(amd, ChipId::from_seed(1), TcbVersion::default());
        let g1 = p.launch(b"fw", GuestPolicy::default()).unwrap();
        let g2 = p.launch(b"fw", GuestPolicy::default()).unwrap();
        let req = SealingKeyRequest::default();
        assert_eq!(g1.derive_sealing_key(&req), g2.derive_sealing_key(&req));
    }

    #[test]
    fn different_measurement_cannot_unseal() {
        let amd = Arc::new(AmdRootOfTrust::from_seed([3; 32]));
        let p = SnpPlatform::new(amd, ChipId::from_seed(1), TcbVersion::default());
        let good = p.launch(b"fw", GuestPolicy::default()).unwrap();
        let evil = p.launch(b"tampered fw", GuestPolicy::default()).unwrap();
        let req = SealingKeyRequest::default();
        assert_ne!(good.derive_sealing_key(&req), evil.derive_sealing_key(&req));
    }

    #[test]
    fn different_chip_cannot_unseal() {
        let (g1, g2) = guests();
        let req = SealingKeyRequest::default();
        assert_ne!(g1.derive_sealing_key(&req), g2.derive_sealing_key(&req));
    }

    #[test]
    fn contexts_are_separated() {
        let (g, _) = guests();
        let disk = g.derive_sealing_key(&SealingKeyRequest::for_context(b"disk"));
        let tls = g.derive_sealing_key(&SealingKeyRequest::for_context(b"tls"));
        assert_ne!(disk, tls);
    }

    #[test]
    fn mix_flags_change_key() {
        let (g, _) = guests();
        let plain = g.derive_sealing_key(&SealingKeyRequest::default());
        let with_tcb = g.derive_sealing_key(&SealingKeyRequest {
            mix_tcb: true,
            ..SealingKeyRequest::default()
        });
        assert_ne!(plain, with_tcb);
    }

    #[test]
    fn measurement_unmixed_key_survives_fw_change() {
        let amd = Arc::new(AmdRootOfTrust::from_seed([3; 32]));
        let p = SnpPlatform::new(amd, ChipId::from_seed(1), TcbVersion::default());
        let g1 = p.launch(b"fw-v1", GuestPolicy::default()).unwrap();
        let g2 = p.launch(b"fw-v2", GuestPolicy::default()).unwrap();
        let req = SealingKeyRequest {
            mix_measurement: false,
            ..SealingKeyRequest::default()
        };
        assert_eq!(g1.derive_sealing_key(&req), g2.derive_sealing_key(&req));
    }
}
