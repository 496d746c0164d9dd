//! The AMD Key Distribution Service (KDS) and the ARK → ASK → VCEK
//! endorsement chain.
//!
//! Real verifiers query `https://kdsintf.amd.com` with a chip ID and TCB
//! version and receive the VCEK certificate plus the ASK/ARK roots
//! (§5.3 of the paper). The simulated KDS answers the same queries from
//! the [`crate::platform::AmdRootOfTrust`]. Network latency for KDS round
//! trips — the dominant cost in the paper's Table 3 — is modelled where the
//! KDS is mounted on the simulated network, not here.
//!
//! Like AMD's real KDS, the simulated one serves stored certificates: it
//! issues the ARK and ASK certificates when it is built and each VCEK
//! certificate the first time a (chip, TCB) is asked for, then answers
//! every later query from that store without a scalar multiplication.
//! Ed25519 signing is deterministic, so a stored certificate is
//! byte-identical to one issued afresh.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use revelio_crypto::ed25519::{
    ExpandedVerifyingKey, Signature, SigningKey, VerifyingKey, SIGNATURE_LEN,
};
use revelio_crypto::wire::{ByteReader, ByteWriter};
use revelio_telemetry::{Telemetry, TelemetryClock};

use crate::ids::{ChipId, TcbVersion};
use crate::platform::AmdRootOfTrust;
use crate::SnpError;

/// A certificate in the AMD endorsement chain.
///
/// Deliberately minimal (subject, issuer, key, optional chip binding,
/// signature) — the AMD chain is a fixed three-level hierarchy, not a
/// general PKI; the web PKI lives in `revelio-pki`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmdCert {
    /// Certified subject name, e.g. `"VCEK"`.
    pub(crate) subject: String,
    /// Issuer name, e.g. `"ASK"`.
    pub(crate) issuer: String,
    /// The certified public key.
    pub public_key: VerifyingKey,
    /// For VCEK certificates: the chip and TCB this key endorses.
    pub(crate) vcek_binding: Option<(ChipId, TcbVersion)>,
    /// Issuer signature over `AmdCert::signed_payload`.
    pub(crate) signature: Signature,
}

impl AmdCert {
    fn payload(
        subject: &str,
        issuer: &str,
        public_key: &VerifyingKey,
        binding: Option<&(ChipId, TcbVersion)>,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"AMDCERT1");
        w.put_str(subject);
        w.put_str(issuer);
        w.put_bytes(&public_key.to_bytes());
        match binding {
            None => {
                w.put_u8(0);
            }
            Some((chip, tcb)) => {
                w.put_u8(1);
                w.put_bytes(chip.as_bytes());
                w.put_u64(tcb.to_u64());
            }
        }
        w.into_bytes()
    }

    /// Issues a certificate: `issuer_key` signs `public_key` as `subject`.
    #[must_use]
    pub(crate) fn issue(
        subject: &str,
        issuer: &str,
        public_key: VerifyingKey,
        vcek_binding: Option<(ChipId, TcbVersion)>,
        issuer_key: &SigningKey,
    ) -> Self {
        let payload = Self::payload(subject, issuer, &public_key, vcek_binding.as_ref());
        AmdCert {
            subject: subject.to_owned(),
            issuer: issuer.to_owned(),
            public_key,
            vcek_binding,
            signature: issuer_key.sign(&payload),
        }
    }

    /// The bytes the issuer signed.
    #[must_use]
    pub(crate) fn signed_payload(&self) -> Vec<u8> {
        Self::payload(
            &self.subject,
            &self.issuer,
            &self.public_key,
            self.vcek_binding.as_ref(),
        )
    }

    /// Verifies this certificate against the issuer's (expanded) public
    /// key — verifiers that pin one root reuse its decompression across
    /// every chain.
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::ChainInvalid`] naming the subject when the
    /// signature fails.
    pub fn verify_with(&self, issuer_public: &ExpandedVerifyingKey) -> Result<(), SnpError> {
        issuer_public
            .verify(&self.signed_payload(), &self.signature)
            .map_err(|_| SnpError::ChainInvalid(format!("bad signature on {}", self.subject)))
    }

    /// Serializes the certificate.
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
    /// Returns [`SnpError::Wire`] or [`SnpError::Crypto`] on malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnpError> {
        let mut outer = ByteReader::new(bytes);
        let payload = outer.get_var_bytes()?.to_vec();
        let sig = outer.get_array::<SIGNATURE_LEN>()?;
        outer.finish()?;

        let mut r = ByteReader::new(&payload);
        let magic = r.get_array::<8>()?;
        if &magic != b"AMDCERT1" {
            return Err(SnpError::Wire(revelio_crypto::wire::WireError::UnknownTag(
                magic[0],
            )));
        }
        let subject = r.get_str()?;
        let issuer = r.get_str()?;
        let public_key = VerifyingKey::from_bytes(r.get_array::<32>()?)?;
        let vcek_binding = match r.get_u8()? {
            0 => None,
            1 => {
                let chip = ChipId::from_bytes(r.get_array::<64>()?);
                let tcb = TcbVersion::from_u64(r.get_u64()?);
                Some((chip, tcb))
            }
            t => {
                return Err(SnpError::Wire(revelio_crypto::wire::WireError::UnknownTag(
                    t,
                )))
            }
        };
        r.finish()?;
        Ok(AmdCert {
            subject,
            issuer,
            public_key,
            vcek_binding,
            signature: Signature::from_bytes(sig),
        })
    }
}

/// The full ARK → ASK → VCEK chain a verifier needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcekCertChain {
    /// AMD Root Key certificate (self-signed).
    pub(crate) ark: AmdCert,
    /// AMD SEV Key certificate (signed by ARK).
    pub(crate) ask: AmdCert,
    /// Versioned Chip Endorsement Key certificate (signed by ASK).
    pub vcek: AmdCert,
}

impl VcekCertChain {
    /// Validates the chain against the pinned, pre-expanded ARK and
    /// returns the endorsed VCEK public key with its chip binding. The
    /// root's point decompression is paid once per verifier lifetime, not
    /// once per chain (the ARK signs both itself and the ASK, so the
    /// reuse covers two of the three links).
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::ChainInvalid`] naming the broken link.
    pub fn validate_with(
        &self,
        trusted_ark: &ExpandedVerifyingKey,
    ) -> Result<(VerifyingKey, (ChipId, TcbVersion)), SnpError> {
        if self.ark.public_key != *trusted_ark.key() {
            return Err(SnpError::ChainInvalid(
                "ark key is not the pinned root".into(),
            ));
        }
        self.ark.verify_with(trusted_ark)?;
        // The pinned-root check above makes `trusted_ark` the ASK's
        // issuer key as well.
        self.ask.verify_with(trusted_ark)?;
        self.vcek.verify_with(&self.ask.public_key.expand())?;
        let binding = self
            .vcek
            .vcek_binding
            .ok_or_else(|| SnpError::ChainInvalid("vcek certificate lacks chip binding".into()))?;
        Ok((self.vcek.public_key, binding))
    }

    /// Serializes the chain.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_var_bytes(&self.ark.to_bytes());
        w.put_var_bytes(&self.ask.to_bytes());
        w.put_var_bytes(&self.vcek.to_bytes());
        w.into_bytes()
    }

    /// Decodes a chain.
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::Wire`] or [`SnpError::Crypto`] on malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnpError> {
        let mut r = ByteReader::new(bytes);
        let ark = AmdCert::from_bytes(r.get_var_bytes()?)?;
        let ask = AmdCert::from_bytes(r.get_var_bytes()?)?;
        let vcek = AmdCert::from_bytes(r.get_var_bytes()?)?;
        r.finish()?;
        Ok(VcekCertChain { ark, ask, vcek })
    }
}

/// The simulated AMD Key Distribution Service.
///
/// Clones share one certificate store, as the handlers of one mounted
/// service do.
#[derive(Debug, Clone)]
pub struct KeyDistributionService {
    amd: Arc<AmdRootOfTrust>,
    ark: AmdCert,
    ask: AmdCert,
    /// Every VCEK certificate issued so far, one per (chip, TCB) served.
    vceks: Arc<Mutex<HashMap<(ChipId, TcbVersion), AmdCert>>>,
    telemetry: Telemetry,
}

impl KeyDistributionService {
    /// Creates a KDS backed by `amd`'s root of trust and issues its ARK
    /// and ASK certificates. Served queries are counted in a private
    /// registry until [`KeyDistributionService::with_telemetry`] wires in
    /// a shared one.
    #[must_use]
    pub fn new(amd: Arc<AmdRootOfTrust>) -> Self {
        let ark = AmdCert::issue("ARK", "ARK", amd.ark_public_key(), None, amd.ark_key());
        let ask = AmdCert::issue(
            "ASK",
            "ARK",
            amd.ask_key().verifying_key(),
            None,
            amd.ark_key(),
        );
        KeyDistributionService {
            amd,
            ark,
            ask,
            vceks: Arc::new(Mutex::new(HashMap::new())),
            telemetry: Telemetry::new(TelemetryClock::new()),
        }
    }

    /// Counts served VCEK queries in `telemetry`
    /// (`revelio_sevsnp_kds_vcek_requests_total`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Answers the "give me the VCEK certificate for this chip at this TCB"
    /// query (plus roots), as the real KDS endpoint does. The first query
    /// for a (chip, TCB) derives its VCEK and signs the certificate; every
    /// later one is served from the store.
    ///
    /// # Errors
    ///
    /// Infallible in the simulator (any chip the root of trust can derive is
    /// served); the `Result` mirrors the remote API surface so callers
    /// handle failure paths uniformly.
    pub fn vcek_chain(
        &self,
        chip_id: &ChipId,
        tcb: &TcbVersion,
    ) -> Result<VcekCertChain, SnpError> {
        self.telemetry
            .counter_add("revelio_sevsnp_kds_vcek_requests_total", 1);
        // A panic while the lock is held can only come from issuing a
        // certificate, before `or_insert_with` touches the map, so a
        // poisoned store is still a valid one.
        let vcek = self
            .vceks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((*chip_id, *tcb))
            .or_insert_with(|| {
                AmdCert::issue(
                    "VCEK",
                    "ASK",
                    self.amd.vcek_for(chip_id, tcb).verifying_key(),
                    Some((*chip_id, *tcb)),
                    self.amd.ask_key(),
                )
            })
            .clone();
        Ok(VcekCertChain {
            ark: self.ark.clone(),
            ask: self.ask.clone(),
            vcek,
        })
    }

    /// Answers the chip-independent `/cert_chain` query — the ARK → ASK
    /// prefix of the chain, which the real KDS serves at its own endpoint
    /// next to `/vcek`.
    #[must_use]
    pub fn cert_chain(&self) -> (AmdCert, AmdCert) {
        self.telemetry
            .counter_add("revelio_sevsnp_kds_cert_chain_requests_total", 1);
        (self.ark.clone(), self.ask.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<AmdRootOfTrust>, KeyDistributionService) {
        let amd = Arc::new(AmdRootOfTrust::from_seed([7; 32]));
        let kds = KeyDistributionService::new(Arc::clone(&amd));
        (amd, kds)
    }

    #[test]
    fn chain_validates_against_pinned_ark() {
        let (amd, kds) = setup();
        let chip = ChipId::from_seed(1);
        let tcb = TcbVersion::new(1, 0, 8, 115);
        let chain = kds.vcek_chain(&chip, &tcb).unwrap();
        let (vcek_pub, (bound_chip, bound_tcb)) =
            chain.validate_with(&amd.ark_public_key().expand()).unwrap();
        assert_eq!(bound_chip, chip);
        assert_eq!(bound_tcb, tcb);
        assert_eq!(vcek_pub, amd.vcek_for(&chip, &tcb).verifying_key());
    }

    #[test]
    fn chain_rejected_under_wrong_root() {
        let (_, kds) = setup();
        let other_amd = AmdRootOfTrust::from_seed([8; 32]);
        let chain = kds
            .vcek_chain(&ChipId::from_seed(1), &TcbVersion::default())
            .unwrap();
        assert!(matches!(
            chain.validate_with(&other_amd.ark_public_key().expand()),
            Err(SnpError::ChainInvalid(_))
        ));
    }

    #[test]
    fn forged_ask_link_detected() {
        let (amd, kds) = setup();
        let mut chain = kds
            .vcek_chain(&ChipId::from_seed(1), &TcbVersion::default())
            .unwrap();
        // An attacker swaps in their own ASK cert (signed by their own key).
        let attacker = AmdRootOfTrust::from_seed([66; 32]);
        chain.ask = AmdCert::issue(
            "ASK",
            "ARK",
            attacker.ask_key().verifying_key(),
            None,
            attacker.ark_key(),
        );
        assert!(chain.validate_with(&amd.ark_public_key().expand()).is_err());
    }

    #[test]
    fn tampered_binding_detected() {
        let (amd, kds) = setup();
        let mut chain = kds
            .vcek_chain(&ChipId::from_seed(1), &TcbVersion::default())
            .unwrap();
        // Re-pointing the binding at another chip breaks the ASK signature.
        chain.vcek.vcek_binding = Some((ChipId::from_seed(2), TcbVersion::default()));
        assert!(chain.validate_with(&amd.ark_public_key().expand()).is_err());
    }

    #[test]
    fn a_repeated_query_is_served_from_the_store() {
        let (amd, kds) = setup();
        let chip = ChipId::from_seed(3);
        let tcb = TcbVersion::new(1, 0, 8, 115);
        let first = kds.vcek_chain(&chip, &tcb).unwrap().to_bytes();
        let before = revelio_crypto::metrics::thread_scalar_mul_ops();
        // A clone shares the store, as the mounted handlers do.
        let again = kds.clone().vcek_chain(&chip, &tcb).unwrap().to_bytes();
        let (ark, ask) = kds.cert_chain();
        assert_eq!(revelio_crypto::metrics::thread_scalar_mul_ops(), before);
        assert_eq!(again, first);
        // Stored certificates are the ones a fresh issuance would sign.
        let fresh = KeyDistributionService::new(amd);
        assert_eq!(fresh.vcek_chain(&chip, &tcb).unwrap().to_bytes(), first);
        assert_eq!((ark.to_bytes(), ask.to_bytes()), {
            let (ark, ask) = fresh.cert_chain();
            (ark.to_bytes(), ask.to_bytes())
        });
        // Every query is still counted; one certificate per (chip, TCB).
        assert_eq!(
            kds.telemetry
                .counter("revelio_sevsnp_kds_vcek_requests_total"),
            2
        );
        assert_eq!(
            kds.telemetry
                .counter("revelio_sevsnp_kds_cert_chain_requests_total"),
            1
        );
        kds.vcek_chain(&chip, &TcbVersion::new(1, 0, 9, 115))
            .unwrap();
        assert_eq!(kds.vceks.lock().unwrap().len(), 2);
    }

    #[test]
    fn cert_bytes_roundtrip() {
        let (_, kds) = setup();
        let chain = kds
            .vcek_chain(&ChipId::from_seed(5), &TcbVersion::new(2, 1, 9, 120))
            .unwrap();
        let decoded = VcekCertChain::from_bytes(&chain.to_bytes()).unwrap();
        assert_eq!(decoded, chain);
    }

    #[test]
    fn truncated_chain_rejected() {
        let (_, kds) = setup();
        let bytes = kds
            .vcek_chain(&ChipId::from_seed(5), &TcbVersion::default())
            .unwrap()
            .to_bytes();
        assert!(VcekCertChain::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }
}
