//! The SEV-SNP attestation report and its signed envelope.
//!
//! Field set mirrors the hardware `ATTESTATION_REPORT` structure (the
//! subset Revelio consumes): version, guest SVN, policy, measurement, host
//! data, `REPORT_DATA`, chip ID, and the current/reported TCB versions.
//! Serialization is deterministic ([`revelio_crypto::wire`]) because the
//! signature is computed over the encoded bytes.

use std::fmt;

use revelio_crypto::ed25519::{Signature, SigningKey, VerifyingKey, SIGNATURE_LEN};
use revelio_crypto::wire::{ByteReader, ByteWriter};

use crate::ids::{ChipId, GuestPolicy, TcbVersion};
use crate::measurement::Measurement;
use crate::SnpError;

/// Length of the caller-controlled `REPORT_DATA` field.
pub(crate) const REPORT_DATA_LEN: usize = 64;

/// The report structure version this simulator emits.
pub(crate) const REPORT_VERSION: u32 = 2;

/// 64 bytes of guest-chosen data cryptographically bound into a report.
///
/// Revelio uses this field to bind the VM's TLS identity (hash of the
/// public key, or hash of a CSR) to the hardware root of trust (§5.2.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReportData([u8; REPORT_DATA_LEN]);

impl ReportData {
    /// Wraps a full 64-byte value.
    #[must_use]
    pub(crate) fn from_bytes(bytes: [u8; REPORT_DATA_LEN]) -> Self {
        ReportData(bytes)
    }

    /// Zero-pads (or truncates) arbitrary bytes into the field.
    ///
    /// Callers binding a hash should pass exactly 32 or 48 bytes; longer
    /// slices are truncated to 64.
    #[must_use]
    pub fn from_slice(data: &[u8]) -> Self {
        let mut out = [0u8; REPORT_DATA_LEN];
        let n = data.len().min(REPORT_DATA_LEN);
        out[..n].copy_from_slice(&data[..n]);
        ReportData(out)
    }

    /// The raw 64 bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; REPORT_DATA_LEN] {
        &self.0
    }
}

impl Default for ReportData {
    fn default() -> Self {
        ReportData([0; REPORT_DATA_LEN])
    }
}

impl fmt::Debug for ReportData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReportData({}..)",
            &revelio_crypto::hex::encode(self.0)[..12]
        )
    }
}

/// The unsigned body of an attestation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// Report structure version.
    pub(crate) version: u32,
    /// Guest security version number.
    pub guest_svn: u32,
    /// The launch policy the hypervisor supplied (and cannot change).
    pub(crate) policy: GuestPolicy,
    /// SHA-384 launch measurement taken by the AMD-SP.
    pub measurement: Measurement,
    /// 32 bytes of host-supplied data (opaque to the guest).
    pub(crate) host_data: [u8; 32],
    /// Guest-chosen data bound into the signature (TLS key hash, CSR hash).
    pub report_data: ReportData,
    /// Identity of the physical chip that produced the report.
    pub chip_id: ChipId,
    /// TCB version currently running.
    pub(crate) current_tcb: TcbVersion,
    /// TCB version the platform reports for endorsement lookup.
    pub reported_tcb: TcbVersion,
}

impl AttestationReport {
    /// Deterministic encoding — the byte string the VCEK signs.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"SNPREPRT");
        w.put_u32(self.version);
        w.put_u32(self.guest_svn);
        self.policy.encode(&mut w);
        w.put_bytes(self.measurement.as_bytes());
        w.put_bytes(&self.host_data);
        w.put_bytes(self.report_data.as_bytes());
        w.put_bytes(self.chip_id.as_bytes());
        w.put_u64(self.current_tcb.to_u64());
        w.put_u64(self.reported_tcb.to_u64());
        w.into_bytes()
    }

    /// Decodes a report body.
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::Wire`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnpError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<8>()?;
        if &magic != b"SNPREPRT" {
            return Err(SnpError::Wire(revelio_crypto::wire::WireError::UnknownTag(
                magic[0],
            )));
        }
        let version = r.get_u32()?;
        let guest_svn = r.get_u32()?;
        let policy = GuestPolicy::decode(&mut r)?;
        let measurement = Measurement::from_bytes(r.get_array::<48>()?);
        let host_data = r.get_array::<32>()?;
        let report_data = ReportData::from_bytes(r.get_array::<64>()?);
        let chip_id = ChipId::from_bytes(r.get_array::<64>()?);
        let current_tcb = TcbVersion::from_u64(r.get_u64()?);
        let reported_tcb = TcbVersion::from_u64(r.get_u64()?);
        r.finish()?;
        Ok(AttestationReport {
            version,
            guest_svn,
            policy,
            measurement,
            host_data,
            report_data,
            chip_id,
            current_tcb,
            reported_tcb,
        })
    }
}

/// A report plus the VCEK signature over its encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedReport {
    /// The report body.
    pub report: AttestationReport,
    /// VCEK signature over [`AttestationReport::to_bytes`].
    pub(crate) signature: Signature,
}

impl SignedReport {
    /// Signs `report` with the platform's VCEK (called by the AMD-SP
    /// simulation only).
    #[must_use]
    pub(crate) fn sign(report: AttestationReport, vcek: &SigningKey) -> Self {
        let signature = vcek.sign(&report.to_bytes());
        SignedReport { report, signature }
    }

    /// Checks the signature against a VCEK public key.
    ///
    /// This verifies the *signature only*; full verification (certificate
    /// chain, chip binding, measurement) lives in
    /// [`crate::verify::ReportVerifier`].
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::SignatureInvalid`] when the signature fails.
    pub(crate) fn verify_signature(&self, vcek_public: &VerifyingKey) -> Result<(), SnpError> {
        vcek_public
            .verify(&self.report.to_bytes(), &self.signature)
            .map_err(|_| SnpError::SignatureInvalid)
    }

    /// Serializes report and signature.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_var_bytes(&self.report.to_bytes());
        w.put_bytes(&self.signature.to_bytes());
        w.into_bytes()
    }

    /// Decodes a signed report.
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::Wire`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnpError> {
        let mut r = ByteReader::new(bytes);
        let body = r.get_var_bytes()?.to_vec();
        let sig = r.get_array::<SIGNATURE_LEN>()?;
        r.finish()?;
        Ok(SignedReport {
            report: AttestationReport::from_bytes(&body)?,
            signature: Signature::from_bytes(sig),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_report() -> AttestationReport {
        AttestationReport {
            version: REPORT_VERSION,
            guest_svn: 3,
            policy: GuestPolicy::default(),
            measurement: Measurement::of_launch_context(b"fw"),
            host_data: [7; 32],
            report_data: ReportData::from_slice(b"tls key hash"),
            chip_id: ChipId::from_seed(1),
            current_tcb: TcbVersion::new(1, 0, 8, 115),
            reported_tcb: TcbVersion::new(1, 0, 8, 115),
        }
    }

    #[test]
    fn report_bytes_roundtrip() {
        let r = sample_report();
        assert_eq!(AttestationReport::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample_report().to_bytes(), sample_report().to_bytes());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_report().to_bytes();
        bytes[0] = b'X';
        assert!(AttestationReport::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_report_rejected() {
        let bytes = sample_report().to_bytes();
        assert!(AttestationReport::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn signed_report_roundtrip_and_verify() {
        let key = SigningKey::from_seed(&[5; 32]);
        let signed = SignedReport::sign(sample_report(), &key);
        let decoded = SignedReport::from_bytes(&signed.to_bytes()).unwrap();
        assert_eq!(decoded, signed);
        decoded.verify_signature(&key.verifying_key()).unwrap();
    }

    #[test]
    fn signature_covers_every_field() {
        let key = SigningKey::from_seed(&[5; 32]);
        let signed = SignedReport::sign(sample_report(), &key);

        let mut tampered = signed.clone();
        tampered.report.guest_svn = 99;
        assert_eq!(
            tampered.verify_signature(&key.verifying_key()),
            Err(SnpError::SignatureInvalid)
        );

        let mut tampered = signed.clone();
        tampered.report.report_data = ReportData::from_slice(b"other key");
        assert!(tampered.verify_signature(&key.verifying_key()).is_err());

        let mut tampered = signed;
        tampered.report.measurement = Measurement::of_launch_context(b"evil fw");
        assert!(tampered.verify_signature(&key.verifying_key()).is_err());
    }

    #[test]
    fn report_data_from_slice_pads_and_truncates() {
        let short = ReportData::from_slice(b"abc");
        assert_eq!(&short.as_bytes()[..3], b"abc");
        assert!(short.as_bytes()[3..].iter().all(|&b| b == 0));

        let long = ReportData::from_slice(&[1u8; 100]);
        assert_eq!(long.as_bytes(), &[1u8; 64]);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_fields(
            guest_svn: u32,
            host_data: [u8; 32],
            rd: [u8; 64],
            chip_seed: u64,
            tcb: u64,
        ) {
            let r = AttestationReport {
                version: REPORT_VERSION,
                guest_svn,
                policy: GuestPolicy::default(),
                measurement: Measurement::of_launch_context(b"fw"),
                host_data,
                report_data: ReportData::from_bytes(rd),
                chip_id: ChipId::from_seed(chip_seed),
                current_tcb: TcbVersion::from_u64(tcb),
                reported_tcb: TcbVersion::from_u64(tcb),
            };
            prop_assert_eq!(AttestationReport::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }
}
