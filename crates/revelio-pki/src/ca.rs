//! Certificate authorities: roots and intermediates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use revelio_crypto::ed25519::SigningKey;

use crate::cert::{Certificate, CertificateSigningRequest};
use crate::PkiError;

/// A certificate authority holding a signing key and its own certificate.
#[derive(Clone)]
pub struct CertificateAuthority {
    name: String,
    key: SigningKey,
    certificate: Certificate,
    next_serial: Arc<AtomicU64>,
}

impl std::fmt::Debug for CertificateAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CertificateAuthority")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl CertificateAuthority {
    /// Creates a self-signed root CA.
    #[must_use]
    pub fn new_root(name: &str, key_seed: [u8; 32]) -> Self {
        let key = SigningKey::from_seed(&key_seed);
        let payload = Certificate::payload(name, &key.verifying_key(), name, 0, 0, u64::MAX, true);
        let certificate = Certificate {
            subject: name.to_owned(),
            public_key: key.verifying_key(),
            issuer: name.to_owned(),
            serial: 0,
            not_before_ms: 0,
            not_after_ms: u64::MAX,
            is_ca: true,
            signature: key.sign(&payload),
        };
        CertificateAuthority {
            name: name.to_owned(),
            key,
            certificate,
            next_serial: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The CA's own certificate (what clients pin for roots).
    #[must_use]
    pub fn certificate(&self) -> Certificate {
        self.certificate.clone()
    }

    /// Issues an intermediate CA; returns the new authority and its
    /// certificate (for inclusion in served chains).
    #[must_use]
    pub(crate) fn issue_intermediate(
        &self,
        name: &str,
        key_seed: [u8; 32],
        not_before_ms: u64,
        not_after_ms: u64,
    ) -> (CertificateAuthority, Certificate) {
        let key = SigningKey::from_seed(&key_seed);
        let serial = self.next_serial.fetch_add(1, Ordering::Relaxed);
        let payload = Certificate::payload(
            name,
            &key.verifying_key(),
            &self.name,
            serial,
            not_before_ms,
            not_after_ms,
            true,
        );
        let certificate = Certificate {
            subject: name.to_owned(),
            public_key: key.verifying_key(),
            issuer: self.name.clone(),
            serial,
            not_before_ms,
            not_after_ms,
            is_ca: true,
            signature: self.key.sign(&payload),
        };
        (
            CertificateAuthority {
                name: name.to_owned(),
                key,
                certificate: certificate.clone(),
                next_serial: Arc::new(AtomicU64::new(1)),
            },
            certificate,
        )
    }

    /// Issues an end-entity certificate for a verified CSR.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::SignatureInvalid`] when the CSR's proof of
    /// possession fails.
    pub fn issue_for_csr(
        &self,
        csr: &CertificateSigningRequest,
        not_before_ms: u64,
        not_after_ms: u64,
    ) -> Result<Certificate, PkiError> {
        csr.verify()?;
        let serial = self.next_serial.fetch_add(1, Ordering::Relaxed);
        let payload = Certificate::payload(
            &csr.domain,
            &csr.public_key,
            &self.name,
            serial,
            not_before_ms,
            not_after_ms,
            false,
        );
        Ok(Certificate {
            subject: csr.domain.clone(),
            public_key: csr.public_key,
            issuer: self.name.clone(),
            serial,
            not_before_ms,
            not_after_ms,
            is_ca: false,
            signature: self.key.sign(&payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_certificate_is_self_signed() {
        let ca = CertificateAuthority::new_root("Root", [1; 32]);
        let cert = ca.certificate();
        cert.verify_signature(&cert).unwrap();
        assert!(cert.is_ca);
    }

    #[test]
    fn serials_increase() {
        let ca = CertificateAuthority::new_root("Root", [1; 32]);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a", &key, "O", "C");
        let c1 = ca.issue_for_csr(&csr, 0, 10).unwrap();
        let c2 = ca.issue_for_csr(&csr, 0, 10).unwrap();
        assert!(c2.serial > c1.serial);
    }

    #[test]
    fn invalid_csr_rejected() {
        let ca = CertificateAuthority::new_root("Root", [1; 32]);
        let key = SigningKey::from_seed(&[2; 32]);
        let mut csr = CertificateSigningRequest::new("a", &key, "O", "C");
        csr.domain = "b".into(); // breaks the self-signature
        assert!(ca.issue_for_csr(&csr, 0, 10).is_err());
    }

    #[test]
    fn intermediate_chains_to_root() {
        let root = CertificateAuthority::new_root("Root", [1; 32]);
        let (inter, inter_cert) = root.issue_intermediate("Inter", [2; 32], 0, 100);
        inter_cert.verify_signature(&root.certificate()).unwrap();
        assert_eq!(inter.name, "Inter");
        assert!(inter_cert.is_ca);
    }
}
