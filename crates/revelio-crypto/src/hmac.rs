//! HMAC (RFC 2104), generic over any [`HashFunction`].
//!
//! Used for VCEK derivation in the simulated AMD key-distribution service,
//! sealing-key derivation, and as the PRF inside HKDF/PBKDF2.

use crate::sha2::{HashFunction, Sha256};

/// Streaming HMAC state.
///
/// ```
/// use revelio_crypto::hmac::Hmac;
/// use revelio_crypto::sha2::Sha256;
///
/// let tag = Hmac::<Sha256>::mac(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
#[derive(Clone)]
pub struct Hmac<H: HashFunction> {
    inner: H,
    outer: H,
}

impl<H: HashFunction> std::fmt::Debug for Hmac<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hmac<{}>", H::NAME)
    }
}

impl<H: HashFunction> Hmac<H> {
    /// Creates an HMAC state keyed with `key` (any length; keys longer than
    /// the hash block are pre-hashed per the RFC).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let key = if key.len() > H::BLOCK_LEN {
            H::hash(key)
        } else {
            key.to_vec()
        };
        let mut ipad = vec![0x36u8; H::BLOCK_LEN];
        let mut opad = vec![0x5cu8; H::BLOCK_LEN];
        for (i, &b) in key.iter().enumerate() {
            ipad[i] ^= b;
            opad[i] ^= b;
        }
        let mut inner = H::new();
        inner.update(&ipad);
        let mut outer = H::new();
        outer.update(&opad);
        Hmac { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the tag (`H::OUTPUT_LEN` bytes).
    #[must_use]
    pub fn finalize(self) -> Vec<u8> {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot MAC of `message` under `key`.
    #[must_use]
    pub fn mac(key: &[u8], message: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(message);
        h.finalize()
    }

    /// Verifies `tag` against `message` in constant time.
    #[must_use]
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        crate::ct::eq(&Self::mac(key, message), tag)
    }
}

impl Hmac<Sha256> {
    /// Finishes and returns the 32-byte tag as a fixed array.
    #[must_use]
    pub fn finalize_fixed(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize_fixed();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize_fixed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::sha2::{Sha256, Sha512};
    use proptest::prelude::*;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = Hmac::<Sha256>::mac(&key, b"Hi There");
        assert_eq!(
            hex::encode(tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2_jefe() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn fixed_finalize_matches_rfc4231() {
        let mut mac = Hmac::<Sha256>::new(b"Jefe");
        mac.update(b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(mac.finalize_fixed()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn long_key_is_prehashed() {
        // Keys longer than the block length must behave like their hash.
        let long_key = vec![0xaau8; 200];
        let hashed = Sha256::digest(&long_key);
        assert_eq!(
            Hmac::<Sha256>::mac(&long_key, b"m"),
            Hmac::<Sha256>::mac(&hashed, b"m")
        );
    }

    #[test]
    fn sha512_variant_has_64_byte_tags() {
        assert_eq!(Hmac::<Sha512>::mac(b"k", b"m").len(), 64);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = Hmac::<Sha256>::mac(b"k", b"m");
        assert!(Hmac::<Sha256>::verify(b"k", b"m", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k", b"m2", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k2", b"m", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k", b"m", &tag[..31]));
    }

    proptest! {
        #[test]
        fn streaming_matches_oneshot(key: Vec<u8>, a: Vec<u8>, b: Vec<u8>) {
            let mut h = Hmac::<Sha256>::new(&key);
            h.update(&a);
            h.update(&b);
            let mut joined = a.clone();
            joined.extend_from_slice(&b);
            prop_assert_eq!(h.finalize(), Hmac::<Sha256>::mac(&key, &joined));
        }

        #[test]
        fn different_keys_different_tags(k1: Vec<u8>, k2: Vec<u8>, msg: Vec<u8>) {
            prop_assume!(k1 != k2);
            // Distinct short keys must produce distinct tags (collision would
            // be astronomically unlikely; equality signals a bug).
            prop_assume!(k1.len() <= 64 && k2.len() <= 64);
            prop_assert_ne!(
                Hmac::<Sha256>::mac(&k1, &msg),
                Hmac::<Sha256>::mac(&k2, &msg)
            );
        }
    }
}
