//! Decoder robustness: every wire-format parser in the workspace is fed
//! arbitrary bytes and bit-flipped mutations of valid encodings. Parsers
//! must return errors — never panic, never loop — because several of them
//! (evidence bundles, reports, certificate chains, IC messages) consume
//! attacker-controlled network input.

use proptest::prelude::*;
use std::sync::Arc;

use revelio::evidence::EvidenceBundle;
use revelio_build::artifacts::{InitConfig, KernelSpec};
use revelio_build::fstree::FsTree;
use revelio_http::message::{Request, Response};
use revelio_ic::ic::IcRequest;
use revelio_ic::subnet::CertifiedResponse;
use revelio_pki::cert::{Certificate, CertificateChain, CertificateSigningRequest};
use sev_snp::ids::{ChipId, GuestPolicy, TcbVersion};
use sev_snp::kds::{KeyDistributionService, VcekCertChain};
use sev_snp::platform::{AmdRootOfTrust, SnpPlatform};
use sev_snp::report::{AttestationReport, ReportData, SignedReport};

/// Valid encodings of every message type, used as mutation bases.
fn valid_encodings() -> Vec<Vec<u8>> {
    let amd = Arc::new(AmdRootOfTrust::from_seed([1; 32]));
    let platform = SnpPlatform::new(
        Arc::clone(&amd),
        ChipId::from_seed(1),
        TcbVersion::default(),
    );
    let guest = platform.launch(b"fw", GuestPolicy::default()).unwrap();
    let report = guest.attestation_report(ReportData::from_slice(b"x"));
    let chain = KeyDistributionService::new(amd)
        .vcek_chain(&platform.chip_id(), &platform.tcb_version())
        .unwrap();
    let evidence = EvidenceBundle {
        report: report.clone(),
        chain: chain.clone(),
    };

    let key = revelio_crypto::ed25519::SigningKey::from_seed(&[2; 32]);
    let csr = CertificateSigningRequest::new("a.example", &key, "O", "C");
    let ca = revelio_pki::ca::CertificateAuthority::new_root("R", [3; 32]);
    let cert = ca.issue_for_csr(&csr, 0, 1000).unwrap();
    let cert_chain = CertificateChain {
        leaf: cert.clone(),
        intermediates: Vec::new(),
    };

    let mut tree = FsTree::new();
    tree.add_file("/bin/x", b"x".to_vec(), 0o755).unwrap();

    vec![
        report.report.to_bytes(),
        report.to_bytes(),
        chain.to_bytes(),
        evidence.to_bytes(),
        csr.to_bytes(),
        cert.to_bytes(),
        cert_chain.to_bytes(),
        tree.to_archive(),
        InitConfig::default().to_initrd(),
        KernelSpec::default().to_blob(),
        Request::post("/p", b"body".to_vec()).to_bytes().unwrap(),
        Response::ok(b"body".to_vec()).to_bytes().unwrap(),
        IcRequest {
            canister_id: 1,
            kind: revelio_ic::canister::CallKind::Query,
            method: "m".into(),
            arg: b"a".to_vec(),
        }
        .to_bytes(),
    ]
}

/// Runs every decoder on `bytes`; success or failure are both fine, panic
/// is not (the harness catches panics as test failures).
fn decode_all(bytes: &[u8]) {
    let _ = AttestationReport::from_bytes(bytes);
    let _ = SignedReport::from_bytes(bytes);
    let _ = VcekCertChain::from_bytes(bytes);
    let _ = EvidenceBundle::from_bytes(bytes);
    let _ = CertificateSigningRequest::from_bytes(bytes);
    let _ = Certificate::from_bytes(bytes);
    let _ = CertificateChain::from_bytes(bytes);
    let _ = FsTree::from_archive(bytes);
    let _ = InitConfig::from_initrd(bytes);
    let _ = KernelSpec::from_blob(bytes);
    let _ = Request::from_bytes(bytes);
    let _ = Response::from_bytes(bytes);
    let _ = IcRequest::from_bytes(bytes);
    let _ = CertifiedResponse::from_bytes(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        decode_all(&bytes);
    }

    #[test]
    fn mutated_valid_encodings_never_panic(
        which in 0usize..13,
        flip_at in any::<prop::sample::Index>(),
        bit in 0u8..8,
        truncate in any::<prop::sample::Index>(),
    ) {
        let encodings = valid_encodings();
        let base = &encodings[which % encodings.len()];

        // Bit flip.
        let mut flipped = base.clone();
        if !flipped.is_empty() {
            let i = flip_at.index(flipped.len());
            flipped[i] ^= 1 << bit;
            decode_all(&flipped);
        }

        // Truncation.
        let end = truncate.index(base.len() + 1);
        decode_all(&base[..end]);

        // Extension with junk.
        let mut extended = base.clone();
        extended.extend_from_slice(b"\xff\x00junk");
        decode_all(&extended);
    }
}

/// Length-prefix bombs: a huge declared length with a tiny body must be
/// rejected quickly rather than allocating or looping.
#[test]
fn length_prefix_bombs_rejected() {
    // A var-bytes field claiming 4 GiB.
    let mut bomb = b"RVEV1".to_vec();
    bomb.extend_from_slice(&u32::MAX.to_le_bytes());
    bomb.extend_from_slice(&[0u8; 16]);
    assert!(EvidenceBundle::from_bytes(&bomb).is_err());

    // An fstree claiming 2^32-1 entries.
    let mut bomb = b"RVFS".to_vec();
    bomb.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(FsTree::from_archive(&bomb).is_err());

    // An IC certificate with a huge signature count.
    let mut bomb = Vec::new();
    bomb.extend_from_slice(&1u64.to_le_bytes());
    bomb.extend_from_slice(&0u32.to_le_bytes()); // empty payload
    bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // signature count
    assert!(CertifiedResponse::from_bytes(&bomb).is_err());
}

/// Every valid encoding round-trips (sanity anchor for the fuzz bases).
#[test]
fn all_bases_are_actually_valid() {
    let encodings = valid_encodings();
    assert!(SignedReport::from_bytes(&encodings[1]).is_ok());
    assert!(VcekCertChain::from_bytes(&encodings[2]).is_ok());
    assert!(EvidenceBundle::from_bytes(&encodings[3]).is_ok());
    assert!(CertificateSigningRequest::from_bytes(&encodings[4]).is_ok());
    assert!(Certificate::from_bytes(&encodings[5]).is_ok());
    assert!(CertificateChain::from_bytes(&encodings[6]).is_ok());
    assert!(FsTree::from_archive(&encodings[7]).is_ok());
    assert!(InitConfig::from_initrd(&encodings[8]).is_ok());
    assert!(KernelSpec::from_blob(&encodings[9]).is_ok());
    assert!(Request::from_bytes(&encodings[10]).is_ok());
    assert!(Response::from_bytes(&encodings[11]).is_ok());
    assert!(IcRequest::from_bytes(&encodings[12]).is_ok());
}
