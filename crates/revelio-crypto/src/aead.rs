//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! The record protection used by the [`revelio-tls`](../../revelio_tls)
//! handshake simulation, and by the sealed-volume header in
//! `revelio-storage`.

use crate::chacha::{self, KEY_LEN, NONCE_LEN};
use crate::poly1305::{Poly1305, TAG_LEN};
use crate::CryptoError;

/// A ChaCha20-Poly1305 AEAD cipher bound to one key.
///
/// ```
/// use revelio_crypto::aead::ChaCha20Poly1305;
///
/// let aead = ChaCha20Poly1305::new(&[42u8; 32]);
/// let nonce = [0u8; 12];
/// let ct = aead.seal(&nonce, b"session metadata", b"tls private key");
/// let pt = aead.open(&nonce, b"session metadata", &ct)?;
/// assert_eq!(pt, b"tls private key");
/// # Ok::<(), revelio_crypto::CryptoError>(())
/// ```
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; KEY_LEN],
}

impl std::fmt::Debug for ChaCha20Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha20Poly1305").finish_non_exhaustive()
    }
}

impl ChaCha20Poly1305 {
    /// Creates an AEAD instance with the given 256-bit key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        ChaCha20Poly1305 { key: *key }
    }

    fn poly_key(&self, nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
        let block = chacha::block(&self.key, 0, nonce);
        std::array::from_fn(|i| block[i])
    }

    fn compute_tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let otk = self.poly_key(nonce);
        let mut mac = Poly1305::new(&otk);
        let zeros = [0u8; 16];
        mac.update(aad);
        mac.update(&zeros[..(16 - aad.len() % 16) % 16]);
        mac.update(ciphertext);
        mac.update(&zeros[..(16 - ciphertext.len() % 16) % 16]);
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finalize()
    }

    /// Encrypts `plaintext` with associated data `aad`; returns
    /// `ciphertext || tag`.
    ///
    /// # Panics
    ///
    /// Panics if `plaintext` exceeds the RFC 8439 per-message limit of
    /// `(2^32 - 2) * 64` bytes — beyond it the 32-bit block counter would
    /// wrap onto the Poly1305 key block, destroying confidentiality and
    /// authenticity.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        assert!(
            plaintext.len() as u64 <= (u32::MAX as u64 - 1) * 64,
            "message exceeds chacha20 counter space"
        );
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        chacha::xor_stream(&self.key, 1, nonce, &mut out);
        let tag = self.compute_tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `ciphertext || tag` produced by [`ChaCha20Poly1305::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] when the tag does not
    /// verify (wrong key, nonce, AAD, or tampered ciphertext) and
    /// [`CryptoError::InvalidLength`] when the input is shorter than a tag.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if ciphertext_and_tag.len() as u64 > (u32::MAX as u64 - 1) * 64 + TAG_LEN as u64 {
            // Counter space exhausted: no honestly-produced message is this
            // large (see `seal`).
            return Err(CryptoError::AuthenticationFailed);
        }
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength {
                got: ciphertext_and_tag.len(),
                expected: TAG_LEN,
            });
        }
        let split = ciphertext_and_tag.len() - TAG_LEN;
        let (ciphertext, tag) = ciphertext_and_tag.split_at(split);
        let expected = self.compute_tag(nonce, aad, ciphertext);
        if !crate::ct::eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut out = ciphertext.to_vec();
        chacha::xor_stream(&self.key, 1, nonce, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::sha2::Sha256;
    use proptest::prelude::*;

    #[test]
    fn golden_1mib_record_digest() {
        // Pins the bytes of a record the size of the data-plane transfers.
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let pt: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        let ct = aead.seal(&[2u8; 12], b"rec", &pt);
        assert_eq!(ct.len(), pt.len() + TAG_LEN);
        assert_eq!(
            hex::encode(Sha256::digest(&ct)),
            "878513cf6f56b495e309eef495ccc98bda47986189de358eaaf7562a82727a37"
        );
        assert_eq!(
            hex::encode(&ct[pt.len()..]),
            "c91b1a8e0af8f0acc6c1168f1ed42e4d"
        );
        assert_eq!(aead.open(&[2u8; 12], b"rec", &ct).unwrap(), pt);
    }

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2.
        let key: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
        let nonce = hex::decode_array::<12>("070000004041424344454647").unwrap();
        let aad = hex::decode("50515253c0c1c2c3c4c5c6c7").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
                          offer you only one tip for the future, sunscreen would be it.";
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &aad, plaintext);
        let (ciphertext, tag) = sealed.split_at(plaintext.len());
        assert_eq!(
            hex::encode(ciphertext),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
                .replace(char::is_whitespace, "")
        );
        assert_eq!(hex::encode(tag), "1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn roundtrip() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let ct = aead.seal(&[2u8; 12], b"aad", b"hello");
        assert_eq!(aead.open(&[2u8; 12], b"aad", &ct).unwrap(), b"hello");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let mut ct = aead.seal(&[2u8; 12], b"aad", b"hello");
        ct[0] ^= 1;
        assert_eq!(
            aead.open(&[2u8; 12], b"aad", &ct),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_tag_rejected() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let mut ct = aead.seal(&[2u8; 12], b"aad", b"hello");
        let last = ct.len() - 1;
        ct[last] ^= 1;
        assert!(aead.open(&[2u8; 12], b"aad", &ct).is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let ct = aead.seal(&[2u8; 12], b"aad", b"hello");
        assert!(aead.open(&[2u8; 12], b"other", &ct).is_err());
    }

    #[test]
    fn wrong_nonce_rejected() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let ct = aead.seal(&[2u8; 12], b"aad", b"hello");
        assert!(aead.open(&[3u8; 12], b"aad", &ct).is_err());
    }

    #[test]
    fn short_input_is_invalid_length() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        assert_eq!(
            aead.open(&[0u8; 12], b"", &[0u8; 5]),
            Err(CryptoError::InvalidLength {
                got: 5,
                expected: 16
            })
        );
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let ct = aead.seal(&[0u8; 12], b"", b"");
        assert_eq!(ct.len(), TAG_LEN);
        assert_eq!(aead.open(&[0u8; 12], b"", &ct).unwrap(), Vec::<u8>::new());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(key: [u8; 32], nonce: [u8; 12], aad: Vec<u8>, pt: Vec<u8>) {
            let aead = ChaCha20Poly1305::new(&key);
            let ct = aead.seal(&nonce, &aad, &pt);
            prop_assert_eq!(ct.len(), pt.len() + TAG_LEN);
            prop_assert_eq!(aead.open(&nonce, &aad, &ct).unwrap(), pt);
        }

        #[test]
        fn wrong_key_always_rejected(k1: [u8; 32], k2: [u8; 32], pt: Vec<u8>) {
            prop_assume!(k1 != k2);
            let ct = ChaCha20Poly1305::new(&k1).seal(&[0u8; 12], b"", &pt);
            prop_assert!(ChaCha20Poly1305::new(&k2).open(&[0u8; 12], b"", &ct).is_err());
        }
    }
}
