//! Handshake messages and transcript hashing.

use revelio_crypto::ed25519::{Signature, SIGNATURE_LEN};
use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::{ByteReader, ByteWriter};
use revelio_pki::cert::CertificateChain;

use crate::TlsError;

/// The client's first flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClientHello {
    /// Client ephemeral X25519 public key.
    pub(crate) ephemeral_public: [u8; 32],
    /// Client random.
    pub(crate) random: [u8; 32],
    /// Server name indication — which certificate the client expects.
    pub(crate) server_name: String,
    /// Session ticket offered for resumption. A client that holds one
    /// still sends the full flight (ephemeral, random): if the server
    /// cannot open the ticket it answers with a full [`ServerHello`] and
    /// the handshake completes normally in the same round trip.
    pub(crate) ticket: Option<Vec<u8>>,
}

impl ClientHello {
    /// Encodes the flight.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"TLSCH1");
        w.put_bytes(&self.ephemeral_public);
        w.put_bytes(&self.random);
        w.put_str(&self.server_name);
        put_opt_bytes(&mut w, self.ticket.as_deref());
        w.into_bytes()
    }

    /// Decodes the flight.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::Wire`] / [`TlsError::Handshake`] on malformed
    /// input.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, TlsError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<6>()?;
        if &magic != b"TLSCH1" {
            return Err(TlsError::Handshake("not a client hello".into()));
        }
        let ephemeral_public = r.get_array::<32>()?;
        let random = r.get_array::<32>()?;
        let server_name = r.get_str()?;
        let ticket = get_opt_bytes(&mut r)?;
        r.finish()?;
        Ok(ClientHello {
            ephemeral_public,
            random,
            server_name,
            ticket,
        })
    }
}

/// Writes an optional byte string as a presence tag plus var bytes.
fn put_opt_bytes(w: &mut ByteWriter, bytes: Option<&[u8]>) {
    match bytes {
        None => {
            w.put_u8(0);
        }
        Some(b) => {
            w.put_u8(1);
            w.put_var_bytes(b);
        }
    }
}

/// Reads the counterpart of [`put_opt_bytes`].
fn get_opt_bytes(r: &mut ByteReader<'_>) -> Result<Option<Vec<u8>>, TlsError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_var_bytes()?.to_vec())),
        t => Err(TlsError::Handshake(format!("unknown optional tag {t}"))),
    }
}

/// The server's reply flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ServerHello {
    /// Server ephemeral X25519 public key.
    pub(crate) ephemeral_public: [u8; 32],
    /// Server random.
    pub(crate) random: [u8; 32],
    /// Certificate chain (leaf first).
    pub(crate) chain: CertificateChain,
    /// Optional RA-TLS attestation evidence (opaque to the TLS layer;
    /// Revelio puts a serialized evidence bundle here so clients can
    /// attest without a separate fetch — the integration the paper's §7
    /// suggests via RATLS).
    pub(crate) evidence: Option<Vec<u8>>,
    /// Signature by the leaf certificate's key over the transcript hash —
    /// proves the server controls the certified private key and binds the
    /// ephemeral exchange (and any evidence) to it.
    pub(crate) signature: Signature,
    /// Session ticket issued for later resumption. Deliberately outside
    /// the signed transcript: its integrity is the ticket AEAD's job, and
    /// tampering only costs the client a declined resumption later — the
    /// fallback is the full, signature-authenticated handshake.
    pub(crate) ticket: Option<Vec<u8>>,
}

impl ServerHello {
    /// Encodes the flight.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"TLSSH2");
        w.put_bytes(&self.ephemeral_public);
        w.put_bytes(&self.random);
        w.put_var_bytes(&self.chain.to_bytes());
        put_opt_bytes(&mut w, self.evidence.as_deref());
        w.put_bytes(&self.signature.to_bytes());
        put_opt_bytes(&mut w, self.ticket.as_deref());
        w.into_bytes()
    }

    /// Decodes the flight.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::Wire`] / [`TlsError::Handshake`] on malformed
    /// input.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, TlsError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<6>()?;
        if &magic != b"TLSSH2" {
            return Err(TlsError::Handshake("not a server hello".into()));
        }
        let ephemeral_public = r.get_array::<32>()?;
        let random = r.get_array::<32>()?;
        let chain = CertificateChain::from_bytes(r.get_var_bytes()?)?;
        let evidence = get_opt_bytes(&mut r)?;
        let signature = Signature::from_bytes(r.get_array::<SIGNATURE_LEN>()?);
        let ticket = get_opt_bytes(&mut r)?;
        r.finish()?;
        Ok(ServerHello {
            ephemeral_public,
            random,
            chain,
            evidence,
            signature,
            ticket,
        })
    }
}

/// The server's abbreviated reply when it accepted an offered ticket.
///
/// Carries **no** ephemeral key, no certificate chain, no evidence and no
/// signature — nothing on this flight costs a scalar multiplication on
/// either side. Authentication comes from `confirm`
/// ([`crate::ticket::resumption_confirm`]): only a holder of the
/// resumption secret — i.e. the fleet that completed the original,
/// signature-authenticated handshake — can produce it for fresh randoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ResumedServerHello {
    /// Server random for this resumed connection (fresh traffic keys).
    pub(crate) random: [u8; 32],
    /// HMAC over both randoms under the resumption secret.
    pub(crate) confirm: [u8; 32],
}

impl ResumedServerHello {
    /// The wire magic distinguishing this flight from a full
    /// [`ServerHello`] (the client dispatches on it).
    pub(crate) const MAGIC: &'static [u8; 6] = b"TLSRH1";

    /// Encodes the flight.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(Self::MAGIC);
        w.put_bytes(&self.random);
        w.put_bytes(&self.confirm);
        w.into_bytes()
    }

    /// Decodes the flight.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::Wire`] / [`TlsError::Handshake`] on malformed
    /// input.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, TlsError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<6>()?;
        if &magic != Self::MAGIC {
            return Err(TlsError::Handshake("not a resumed server hello".into()));
        }
        let random = r.get_array::<32>()?;
        let confirm = r.get_array::<32>()?;
        r.finish()?;
        Ok(ResumedServerHello { random, confirm })
    }
}

/// The transcript hash the server signs: everything both sides saw before
/// key derivation, including any RA-TLS evidence (so evidence cannot be
/// stripped or swapped by a middlebox).
#[must_use]
pub(crate) fn transcript_hash(
    client_hello: &ClientHello,
    server_ephemeral: &[u8; 32],
    server_random: &[u8; 32],
    chain: &CertificateChain,
    evidence: Option<&[u8]>,
) -> [u8; 32] {
    let mut w = ByteWriter::new();
    w.put_bytes(b"tls-transcript/v2");
    w.put_var_bytes(&client_hello.to_bytes());
    w.put_bytes(server_ephemeral);
    w.put_bytes(server_random);
    w.put_var_bytes(&chain.to_bytes());
    match evidence {
        None => {
            w.put_u8(0);
        }
        Some(e) => {
            w.put_u8(1);
            w.put_var_bytes(e);
        }
    }
    Sha256::digest(w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_crypto::ed25519::SigningKey;
    use revelio_pki::ca::CertificateAuthority;
    use revelio_pki::cert::CertificateSigningRequest;

    fn chain() -> CertificateChain {
        let ca = CertificateAuthority::new_root("R", [1; 32]);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a.example", &key, "O", "C");
        CertificateChain {
            leaf: ca.issue_for_csr(&csr, 0, 100).unwrap(),
            intermediates: Vec::new(),
        }
    }

    #[test]
    fn client_hello_roundtrip() {
        let ch = ClientHello {
            ephemeral_public: [1; 32],
            random: [2; 32],
            server_name: "a.example".into(),
            ticket: None,
        };
        assert_eq!(ClientHello::from_bytes(&ch.to_bytes()).unwrap(), ch);

        let with_ticket = ClientHello {
            ticket: Some(b"opaque ticket".to_vec()),
            ..ch
        };
        assert_eq!(
            ClientHello::from_bytes(&with_ticket.to_bytes()).unwrap(),
            with_ticket
        );
    }

    #[test]
    fn server_hello_roundtrip() {
        let sh = ServerHello {
            ephemeral_public: [3; 32],
            random: [4; 32],
            chain: chain(),
            evidence: None,
            signature: SigningKey::from_seed(&[5; 32]).sign(b"t"),
            ticket: None,
        };
        assert_eq!(ServerHello::from_bytes(&sh.to_bytes()).unwrap(), sh);

        let with_evidence = ServerHello {
            evidence: Some(b"bundle".to_vec()),
            ticket: Some(b"ticket".to_vec()),
            ..sh
        };
        assert_eq!(
            ServerHello::from_bytes(&with_evidence.to_bytes()).unwrap(),
            with_evidence
        );
    }

    #[test]
    fn resumed_server_hello_roundtrip() {
        let rh = ResumedServerHello {
            random: [6; 32],
            confirm: [7; 32],
        };
        assert_eq!(ResumedServerHello::from_bytes(&rh.to_bytes()).unwrap(), rh);
        // The magics separate the two server flights unambiguously.
        assert!(ServerHello::from_bytes(&rh.to_bytes()).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(ClientHello::from_bytes(b"XXXXXXrest").is_err());
        assert!(ServerHello::from_bytes(b"YYYYYYrest").is_err());
        assert!(ResumedServerHello::from_bytes(b"ZZZZZZrest").is_err());
    }

    #[test]
    fn transcript_covers_every_input() {
        let ch = ClientHello {
            ephemeral_public: [1; 32],
            random: [2; 32],
            server_name: "a.example".into(),
            ticket: None,
        };
        let base = transcript_hash(&ch, &[3; 32], &[4; 32], &chain(), None);
        let mut ch2 = ch.clone();
        ch2.server_name = "b.example".into();
        assert_ne!(
            base,
            transcript_hash(&ch2, &[3; 32], &[4; 32], &chain(), None)
        );
        assert_ne!(
            base,
            transcript_hash(&ch, &[9; 32], &[4; 32], &chain(), None)
        );
        assert_ne!(
            base,
            transcript_hash(&ch, &[3; 32], &[9; 32], &chain(), None)
        );
        // Evidence is covered too: adding or changing it changes the hash.
        let with_e = transcript_hash(&ch, &[3; 32], &[4; 32], &chain(), Some(b"ev"));
        assert_ne!(base, with_e);
        assert_ne!(
            with_e,
            transcript_hash(&ch, &[3; 32], &[4; 32], &chain(), Some(b"EV"))
        );
    }
}
