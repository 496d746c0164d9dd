//! Certificates and certificate signing requests.
//!
//! A deliberately small X.509 stand-in: subject domain, public key, issuer,
//! serial, validity window, signature. The CSR mirrors PKCS#10's essentials
//! (paper §2.2): the requested domain and organisational fields plus a
//! proof-of-possession self-signature by the subject key.

use std::fmt;

use revelio_crypto::ed25519::{Signature, SigningKey, VerifyingKey, SIGNATURE_LEN};
use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::{ByteReader, ByteWriter};

use crate::PkiError;

/// A certificate signing request (PKCS#10's essentials).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateSigningRequest {
    /// Requested domain (the subject common name).
    pub domain: String,
    /// The public key to certify.
    pub public_key: VerifyingKey,
    /// Organisation name.
    pub(crate) organization: String,
    /// Country code.
    pub(crate) country: String,
    /// Proof of possession: self-signature by `public_key`'s secret half.
    pub(crate) signature: Signature,
}

impl CertificateSigningRequest {
    fn payload(domain: &str, public_key: &VerifyingKey, org: &str, country: &str) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"CSR1");
        w.put_str(domain);
        w.put_bytes(&public_key.to_bytes());
        w.put_str(org);
        w.put_str(country);
        w.into_bytes()
    }

    /// Creates a CSR for `domain` signed by `key` (proof of possession).
    #[must_use]
    pub fn new(domain: &str, key: &SigningKey, organization: &str, country: &str) -> Self {
        let public_key = key.verifying_key();
        let payload = Self::payload(domain, &public_key, organization, country);
        CertificateSigningRequest {
            domain: domain.to_owned(),
            public_key,
            organization: organization.to_owned(),
            country: country.to_owned(),
            signature: key.sign(&payload),
        }
    }

    /// Verifies the proof-of-possession signature.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::SignatureInvalid`] when the self-signature fails.
    pub fn verify(&self) -> Result<(), PkiError> {
        let payload = Self::payload(
            &self.domain,
            &self.public_key,
            &self.organization,
            &self.country,
        );
        self.public_key
            .verify(&payload, &self.signature)
            .map_err(|_| PkiError::SignatureInvalid)
    }

    /// Deterministic encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_var_bytes(&Self::payload(
            &self.domain,
            &self.public_key,
            &self.organization,
            &self.country,
        ));
        w.put_bytes(&self.signature.to_bytes());
        w.into_bytes()
    }

    /// Decodes a CSR.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::Wire`] / [`PkiError::Crypto`] on malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PkiError> {
        let mut outer = ByteReader::new(bytes);
        let payload = outer.get_var_bytes()?.to_vec();
        let sig = outer.get_array::<SIGNATURE_LEN>()?;
        outer.finish()?;
        let mut r = ByteReader::new(&payload);
        let magic = r.get_array::<4>()?;
        if &magic != b"CSR1" {
            return Err(PkiError::Wire(revelio_crypto::wire::WireError::UnknownTag(
                magic[0],
            )));
        }
        let domain = r.get_str()?;
        let public_key = VerifyingKey::from_bytes(r.get_array::<32>()?)?;
        let organization = r.get_str()?;
        let country = r.get_str()?;
        r.finish()?;
        Ok(CertificateSigningRequest {
            domain,
            public_key,
            organization,
            country,
            signature: Signature::from_bytes(sig),
        })
    }

    /// SHA-256 of the encoded CSR — the value Revelio puts in
    /// `REPORT_DATA` for the certificate-issuance report (§5.2.2).
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        Sha256::digest(self.to_bytes())
    }
}

/// A certificate.
#[derive(Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject domain (or CA name for CA certificates).
    pub subject: String,
    /// The certified key.
    pub public_key: VerifyingKey,
    /// Issuer name.
    pub(crate) issuer: String,
    /// Serial number.
    pub(crate) serial: u64,
    /// Validity start, ms on the simulated clock.
    pub(crate) not_before_ms: u64,
    /// Validity end, ms on the simulated clock.
    pub not_after_ms: u64,
    /// `true` for CA certificates (may issue).
    pub(crate) is_ca: bool,
    /// Issuer signature over the payload.
    pub signature: Signature,
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Certificate")
            .field("subject", &self.subject)
            .field("issuer", &self.issuer)
            .field("serial", &self.serial)
            .finish_non_exhaustive()
    }
}

impl Certificate {
    pub(crate) fn payload(
        subject: &str,
        public_key: &VerifyingKey,
        issuer: &str,
        serial: u64,
        not_before_ms: u64,
        not_after_ms: u64,
        is_ca: bool,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"CERT");
        w.put_str(subject);
        w.put_bytes(&public_key.to_bytes());
        w.put_str(issuer);
        w.put_u64(serial);
        w.put_u64(not_before_ms);
        w.put_u64(not_after_ms);
        w.put_u8(u8::from(is_ca));
        w.into_bytes()
    }

    /// The bytes the issuer signed.
    #[must_use]
    pub fn signed_payload(&self) -> Vec<u8> {
        Self::payload(
            &self.subject,
            &self.public_key,
            &self.issuer,
            self.serial,
            self.not_before_ms,
            self.not_after_ms,
            self.is_ca,
        )
    }

    /// Verifies this certificate's signature against its issuer
    /// certificate.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::ChainInvalid`] (issuer is not a CA or name
    /// mismatch) or [`PkiError::SignatureInvalid`].
    pub fn verify_signature(&self, issuer: &Certificate) -> Result<(), PkiError> {
        self.check_issuer(issuer)?;
        self.check_signature_by(issuer)
    }

    fn check_signature_by(&self, issuer: &Certificate) -> Result<(), PkiError> {
        issuer
            .public_key
            .verify(&self.signed_payload(), &self.signature)
            .map_err(|_| PkiError::SignatureInvalid)
    }

    /// The structural half of [`Certificate::verify_signature`]: `issuer`
    /// is a CA and carries the name this certificate names.
    fn check_issuer(&self, issuer: &Certificate) -> Result<(), PkiError> {
        if !issuer.is_ca {
            return Err(PkiError::ChainInvalid(format!(
                "{} is not a ca",
                issuer.subject
            )));
        }
        if issuer.subject != self.issuer {
            return Err(PkiError::ChainInvalid(format!(
                "issuer name {} does not match {}",
                issuer.subject, self.issuer
            )));
        }
        Ok(())
    }

    /// Checks the validity window.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::Expired`] outside `[not_before, not_after]`.
    pub(crate) fn check_validity(&self, now_ms: u64) -> Result<(), PkiError> {
        if now_ms < self.not_before_ms || now_ms > self.not_after_ms {
            return Err(PkiError::Expired {
                now_ms,
                not_after_ms: self.not_after_ms,
            });
        }
        Ok(())
    }

    /// Whether the certificate enters its final `lead_ms` of validity at
    /// `now_ms` — the reconciler's renewal trigger. Already-expired
    /// certificates also report `true`: renewal is still the correct
    /// remediation, just a late one.
    #[must_use]
    pub fn expires_within(&self, now_ms: u64, lead_ms: u64) -> bool {
        now_ms.saturating_add(lead_ms) >= self.not_after_ms
    }

    /// Checks that the subject covers `domain` (exact match; no wildcards
    /// in the simulation).
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::DomainMismatch`].
    pub fn check_domain(&self, domain: &str) -> Result<(), PkiError> {
        if self.subject != domain {
            return Err(PkiError::DomainMismatch {
                requested: domain.to_owned(),
                subject: self.subject.clone(),
            });
        }
        Ok(())
    }

    /// Deterministic encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_var_bytes(&self.signed_payload());
        w.put_bytes(&self.signature.to_bytes());
        w.into_bytes()
    }

    /// Decodes a certificate.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::Wire`] / [`PkiError::Crypto`] on malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PkiError> {
        let mut outer = ByteReader::new(bytes);
        let payload = outer.get_var_bytes()?.to_vec();
        let sig = outer.get_array::<SIGNATURE_LEN>()?;
        outer.finish()?;
        let mut r = ByteReader::new(&payload);
        let magic = r.get_array::<4>()?;
        if &magic != b"CERT" {
            return Err(PkiError::Wire(revelio_crypto::wire::WireError::UnknownTag(
                magic[0],
            )));
        }
        let subject = r.get_str()?;
        let public_key = VerifyingKey::from_bytes(r.get_array::<32>()?)?;
        let issuer = r.get_str()?;
        let serial = r.get_u64()?;
        let not_before_ms = r.get_u64()?;
        let not_after_ms = r.get_u64()?;
        let is_ca = r.get_u8()? != 0;
        r.finish()?;
        Ok(Certificate {
            subject,
            public_key,
            issuer,
            serial,
            not_before_ms,
            not_after_ms,
            is_ca,
            signature: Signature::from_bytes(sig),
        })
    }
}

/// An end-entity certificate with its chain up to (but excluding) the
/// root. A chain always has a leaf: the type holds it apart from the
/// intermediates, so no chain — decoded or built — can be empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateChain {
    /// The end-entity certificate.
    pub leaf: Certificate,
    /// The intermediates, leaf's issuer first.
    pub intermediates: Vec<Certificate>,
}

impl CertificateChain {
    /// The leaf (end-entity) certificate.
    #[must_use]
    pub fn leaf(&self) -> &Certificate {
        &self.leaf
    }

    /// Every certificate, leaf first.
    fn certificates(&self) -> impl Iterator<Item = &Certificate> {
        std::iter::once(&self.leaf).chain(&self.intermediates)
    }

    /// Validates the chain against a set of trusted root certificates:
    /// every link's signature, every certificate's validity window, and
    /// that the last link is signed by a trusted root.
    ///
    /// # Errors
    ///
    /// Returns the first failing check's [`PkiError`].
    pub fn validate(&self, roots: &[Certificate], now_ms: u64) -> Result<(), PkiError> {
        self.walk(roots, now_ms, Certificate::check_signature_by)
    }

    /// [`CertificateChain::validate`] without its signature checks: every
    /// validity window, CA flag and issuer name, and the root lookup. On
    /// success, returns the `(subject, issuer)` links whose signatures the
    /// chain rests on, leaf first, for the caller to verify — in one batch
    /// with its own signatures. A chain passes `validate` exactly when it
    /// passes this and every link's signature verifies.
    ///
    /// # Errors
    ///
    /// Returns the first failing structural check's [`PkiError`].
    pub fn signature_links<'a>(
        &'a self,
        roots: &'a [Certificate],
        now_ms: u64,
    ) -> Result<Vec<(&'a Certificate, &'a Certificate)>, PkiError> {
        let mut links = Vec::with_capacity(self.intermediates.len() + 1);
        self.walk(roots, now_ms, |subject, issuer| {
            links.push((subject, issuer));
            Ok(())
        })?;
        Ok(links)
    }

    /// The chain walk both checks share: validity windows first, then
    /// each link's issuer checks followed by `signed_by(subject, issuer)`,
    /// leaf first, ending at the trusted root the top certificate names.
    fn walk<'a>(
        &'a self,
        roots: &'a [Certificate],
        now_ms: u64,
        mut signed_by: impl FnMut(&'a Certificate, &'a Certificate) -> Result<(), PkiError>,
    ) -> Result<(), PkiError> {
        for cert in self.certificates() {
            cert.check_validity(now_ms)?;
        }
        for (subject, issuer) in self.certificates().zip(&self.intermediates) {
            subject.check_issuer(issuer)?;
            signed_by(subject, issuer)?;
        }
        let top = self.intermediates.last().unwrap_or(&self.leaf);
        let root = roots
            .iter()
            .find(|r| r.subject == top.issuer)
            .ok_or_else(|| PkiError::ChainInvalid(format!("no trusted root {}", top.issuer)))?;
        root.check_validity(now_ms)?;
        top.check_issuer(root)?;
        signed_by(top, root)
    }

    /// Deterministic encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(1 + self.intermediates.len() as u32);
        for c in self.certificates() {
            w.put_var_bytes(&c.to_bytes());
        }
        w.into_bytes()
    }

    /// Decodes a chain.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::Wire`] / [`PkiError::Crypto`] on malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PkiError> {
        let mut r = ByteReader::new(bytes);
        let n = r.get_count(4)?; // var-bytes prefix per certificate
        if n == 0 {
            // An empty chain has no leaf.
            return Err(PkiError::ChainInvalid("empty chain".into()));
        }
        let leaf = Certificate::from_bytes(r.get_var_bytes()?)?;
        let mut intermediates = Vec::with_capacity(n - 1);
        for _ in 1..n {
            intermediates.push(Certificate::from_bytes(r.get_var_bytes()?)?);
        }
        r.finish()?;
        Ok(CertificateChain {
            leaf,
            intermediates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;

    #[test]
    fn csr_roundtrip_and_verify() {
        let key = SigningKey::from_seed(&[1; 32]);
        let csr = CertificateSigningRequest::new("pad.example.org", &key, "Org", "DE");
        csr.verify().unwrap();
        let decoded = CertificateSigningRequest::from_bytes(&csr.to_bytes()).unwrap();
        assert_eq!(decoded, csr);
        assert_eq!(decoded.digest(), csr.digest());
    }

    #[test]
    fn csr_tamper_detected() {
        let key = SigningKey::from_seed(&[1; 32]);
        let mut csr = CertificateSigningRequest::new("pad.example.org", &key, "Org", "DE");
        csr.domain = "evil.example.org".into();
        assert_eq!(csr.verify(), Err(PkiError::SignatureInvalid));
    }

    #[test]
    fn certificate_roundtrip() {
        let ca = CertificateAuthority::new_root("Root", [9; 32]);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a.example", &key, "O", "CH");
        let cert = ca.issue_for_csr(&csr, 10, 1000).unwrap();
        let decoded = Certificate::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    fn validity_window_enforced() {
        let ca = CertificateAuthority::new_root("Root", [9; 32]);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a.example", &key, "O", "CH");
        let cert = ca.issue_for_csr(&csr, 100, 200).unwrap();
        assert!(cert.check_validity(150).is_ok());
        assert!(matches!(
            cert.check_validity(50),
            Err(PkiError::Expired { .. })
        ));
        assert!(matches!(
            cert.check_validity(201),
            Err(PkiError::Expired { .. })
        ));
    }

    #[test]
    fn domain_check() {
        let ca = CertificateAuthority::new_root("Root", [9; 32]);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a.example", &key, "O", "CH");
        let cert = ca.issue_for_csr(&csr, 0, 10).unwrap();
        cert.check_domain("a.example").unwrap();
        assert!(matches!(
            cert.check_domain("b.example"),
            Err(PkiError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn chain_validates_through_intermediate() {
        let root = CertificateAuthority::new_root("Root", [9; 32]);
        let inter = root.issue_intermediate("Inter", [8; 32], 0, 10_000);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a.example", &key, "O", "CH");
        let leaf = inter.0.issue_for_csr(&csr, 0, 10_000).unwrap();
        let chain = CertificateChain {
            leaf,
            intermediates: vec![inter.1],
        };
        chain.validate(&[root.certificate()], 5).unwrap();
    }

    #[test]
    fn chain_with_unknown_root_rejected() {
        let root = CertificateAuthority::new_root("Root", [9; 32]);
        let other_root = CertificateAuthority::new_root("Other", [7; 32]);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a.example", &key, "O", "CH");
        let leaf = root.issue_for_csr(&csr, 0, 10_000).unwrap();
        let chain = CertificateChain {
            leaf,
            intermediates: Vec::new(),
        };
        assert!(chain.validate(&[other_root.certificate()], 5).is_err());
    }

    #[test]
    fn leaf_cannot_issue() {
        let root = CertificateAuthority::new_root("Root", [9; 32]);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a.example", &key, "O", "CH");
        let leaf = root.issue_for_csr(&csr, 0, 10_000).unwrap();
        // A fake cert claiming the leaf as issuer must be rejected.
        let fake = Certificate {
            subject: "evil.example".into(),
            public_key: key.verifying_key(),
            issuer: "a.example".into(),
            serial: 1,
            not_before_ms: 0,
            not_after_ms: 10_000,
            is_ca: false,
            signature: key.sign(b"whatever"),
        };
        assert!(matches!(
            fake.verify_signature(&leaf),
            Err(PkiError::ChainInvalid(_))
        ));
    }
}
