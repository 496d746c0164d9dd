//! Anonymous public-key encryption ("sealed box"): X25519 + HKDF +
//! ChaCha20-Poly1305.
//!
//! Used by Revelio's TLS-key distribution (§5.3.1): after mutual
//! attestation, the leader encrypts the shared TLS private key to each
//! node's unique public key, so only the attested VM — whose key hash is
//! bound in its report's `REPORT_DATA` — can open it.

use crate::aead::ChaCha20Poly1305;
use crate::kdf::hkdf_fixed;
use crate::sha2::Sha256;
use crate::{x25519, CryptoError};

/// Length of a recipient public key.
pub(crate) const PUBLIC_KEY_LEN: usize = 32;

/// Encrypts `plaintext` to `recipient_public` using a fresh ephemeral key
/// derived from `ephemeral_seed`. Output: `ephemeral_public || ciphertext`.
#[must_use]
pub fn seal(
    recipient_public: &[u8; PUBLIC_KEY_LEN],
    plaintext: &[u8],
    ephemeral_seed: &[u8; 32],
) -> Vec<u8> {
    let eph_secret = *ephemeral_seed;
    let eph_public = x25519::public_key(&eph_secret);
    let shared = x25519::shared_secret(&eph_secret, recipient_public);
    let key = box_key(&shared, &eph_public, recipient_public);
    let mut out = eph_public.to_vec();
    out.extend_from_slice(&ChaCha20Poly1305::new(&key).seal(&[0u8; 12], b"sealed-box", plaintext));
    out
}

/// Opens a sealed box with the recipient's secret key.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] for truncated input and
/// [`CryptoError::AuthenticationFailed`] for a wrong key or tampering.
pub fn open(recipient_secret: &[u8; 32], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let Some((eph_public, body)) = sealed.split_first_chunk::<PUBLIC_KEY_LEN>() else {
        return Err(CryptoError::InvalidLength {
            got: sealed.len(),
            expected: PUBLIC_KEY_LEN,
        });
    };
    let recipient_public = x25519::public_key(recipient_secret);
    let shared = x25519::shared_secret(recipient_secret, eph_public);
    let key = box_key(&shared, eph_public, &recipient_public);
    ChaCha20Poly1305::new(&key).open(&[0u8; 12], b"sealed-box", body)
}

fn box_key(shared: &[u8; 32], eph_public: &[u8; 32], recipient_public: &[u8; 32]) -> [u8; 32] {
    let mut salt = Vec::with_capacity(64);
    salt.extend_from_slice(eph_public);
    salt.extend_from_slice(recipient_public);
    hkdf_fixed::<Sha256, 32>(&salt, shared, b"sealed-box/v1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let recipient_secret = [5u8; 32];
        let recipient_public = x25519::public_key(&recipient_secret);
        let sealed = seal(&recipient_public, b"tls private key", &[9u8; 32]);
        assert_eq!(
            open(&recipient_secret, &sealed).unwrap(),
            b"tls private key"
        );
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let recipient_public = x25519::public_key(&[5u8; 32]);
        let sealed = seal(&recipient_public, b"secret", &[9u8; 32]);
        assert_eq!(
            open(&[6u8; 32], &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampering_detected() {
        let recipient_secret = [5u8; 32];
        let recipient_public = x25519::public_key(&recipient_secret);
        let mut sealed = seal(&recipient_public, b"secret", &[9u8; 32]);
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert!(open(&recipient_secret, &sealed).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        assert!(matches!(
            open(&[5u8; 32], &[0u8; 10]),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn different_seeds_different_ciphertexts() {
        let recipient_public = x25519::public_key(&[5u8; 32]);
        let a = seal(&recipient_public, b"m", &[1u8; 32]);
        let b = seal(&recipient_public, b"m", &[2u8; 32]);
        assert_ne!(a, b);
    }
}
