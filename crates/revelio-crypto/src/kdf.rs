//! Key derivation functions: HKDF (RFC 5869) and PBKDF2 (RFC 8018).
//!
//! HKDF derives TLS session keys and the sealing keys exported by the
//! simulated AMD secure processor; PBKDF2 implements the `dm-crypt` key-slot
//! derivation that the paper configures with 1000 iterations.

use crate::hmac::Hmac;
use crate::sha2::HashFunction;

/// HKDF-Extract: computes a pseudorandom key from input keying material.
#[must_use]
pub(crate) fn hkdf_extract<H: HashFunction>(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    // Per RFC 5869 an empty salt means a string of zeros of hash length.
    if salt.is_empty() {
        let zero_salt = vec![0u8; H::OUTPUT_LEN];
        Hmac::<H>::mac(&zero_salt, ikm)
    } else {
        Hmac::<H>::mac(salt, ikm)
    }
}

/// HKDF-Expand: expands a pseudorandom key to `len` output bytes.
///
/// # Panics
///
/// Panics if `len > 255 * H::OUTPUT_LEN` (the RFC 5869 limit).
#[must_use]
pub(crate) fn hkdf_expand<H: HashFunction>(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * H::OUTPUT_LEN, "hkdf output too long");
    let blocks = len.div_ceil(H::OUTPUT_LEN);
    let mut okm = Vec::with_capacity(blocks * H::OUTPUT_LEN);
    let mut previous: Vec<u8> = Vec::new();
    for counter in 1..=blocks as u8 {
        let mut mac = Hmac::<H>::new(prk);
        mac.update(&previous);
        mac.update(info);
        mac.update(&[counter]);
        previous = mac.finalize();
        okm.extend_from_slice(&previous);
    }
    okm.truncate(len);
    okm
}

/// Full HKDF: extract-then-expand.
///
/// ```
/// use revelio_crypto::kdf::hkdf;
/// use revelio_crypto::sha2::Sha256;
/// let key = hkdf::<Sha256>(b"salt", b"input keying material", b"context", 32);
/// assert_eq!(key.len(), 32);
/// ```
#[must_use]
pub fn hkdf<H: HashFunction>(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand::<H>(&hkdf_extract::<H>(salt, ikm), info, len)
}

/// Full HKDF into a fixed-size key: [`hkdf`] with `len = N`.
///
/// ```
/// use revelio_crypto::kdf::{hkdf, hkdf_fixed};
/// use revelio_crypto::sha2::Sha256;
/// let key: [u8; 32] = hkdf_fixed::<Sha256, 32>(b"salt", b"ikm", b"context");
/// assert_eq!(key.to_vec(), hkdf::<Sha256>(b"salt", b"ikm", b"context", 32));
/// ```
#[must_use]
pub fn hkdf_fixed<H: HashFunction, const N: usize>(
    salt: &[u8],
    ikm: &[u8],
    info: &[u8],
) -> [u8; N] {
    let okm = hkdf::<H>(salt, ikm, info, N);
    std::array::from_fn(|i| okm[i])
}

/// PBKDF2 with HMAC as the PRF.
///
/// The paper's `dm-crypt` setup uses `pbkdf2` with 1000 iterations
/// (§6.3.1); [`crate::xts`]-backed volumes in `revelio-storage` derive their
/// key slots through this function.
///
/// HMAC is keyed with `password` once: every PRF call starts from a clone
/// of that keyed state, with the ipad and opad blocks already absorbed, so
/// an iteration costs two compressions instead of four.
///
/// The output stops at RFC 8018's limit of `2^32 − 1` blocks, far beyond
/// any key length asked for here.
///
/// # Panics
///
/// Panics if `iterations` is zero.
#[must_use]
pub fn pbkdf2<H: HashFunction>(
    password: &[u8],
    salt: &[u8],
    iterations: u32,
    len: usize,
) -> Vec<u8> {
    assert!(iterations > 0, "pbkdf2 requires at least one iteration");
    let prf = Hmac::<H>::new(password);
    let mut out = Vec::with_capacity(len);
    for block_index in (1..=u32::MAX).take(len.div_ceil(H::OUTPUT_LEN)) {
        let mut mac = prf.clone();
        mac.update(salt);
        mac.update(&block_index.to_be_bytes());
        let mut u = mac.finalize();
        let mut t = u.clone();
        for _ in 1..iterations {
            let mut mac = prf.clone();
            mac.update(&u);
            u = mac.finalize();
            for (ti, ui) in t.iter_mut().zip(&u) {
                *ti ^= ui;
            }
        }
        out.extend_from_slice(&t);
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::sha2::Sha256;
    use proptest::prelude::*;

    /// PBKDF2 as RFC 8018 §5.2 spells it, re-keying HMAC for every PRF
    /// call: the reference the keyed-once [`pbkdf2`] is checked against.
    fn pbkdf2_rekeying<H: HashFunction>(
        password: &[u8],
        salt: &[u8],
        iterations: u32,
        len: usize,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut block_index = 1u32;
        while out.len() < len {
            let mut mac = Hmac::<H>::new(password);
            mac.update(salt);
            mac.update(&block_index.to_be_bytes());
            let mut u = mac.finalize();
            let mut t = u.clone();
            for _ in 1..iterations {
                u = Hmac::<H>::mac(password, &u);
                for (ti, ui) in t.iter_mut().zip(&u) {
                    *ti ^= ui;
                }
            }
            out.extend_from_slice(&t);
            block_index += 1;
        }
        out.truncate(len);
        out
    }

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = hkdf_extract::<Sha256>(&salt, &ikm);
        assert_eq!(
            hex::encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand::<Sha256>(&prk, &info, 42);
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn pbkdf2_one_iteration_vector() {
        // RFC 7914 §11 PBKDF2-HMAC-SHA-256 test vector.
        let dk = pbkdf2::<Sha256>(b"passwd", b"salt", 1, 64);
        assert_eq!(
            hex::encode(&dk),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc\
             49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn pbkdf2_80000_iteration_vector() {
        // RFC 7914 §11, second PBKDF2-HMAC-SHA-256 test vector.
        let dk = pbkdf2::<Sha256>(b"Password", b"NaCl", 80_000, 64);
        assert_eq!(
            hex::encode(&dk),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56\
             a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn pbkdf2_costs_two_compressions_per_iteration() {
        // The dm-crypt key slot: 32-byte salt, 1000 iterations, a 64-byte
        // master key (two SHA-256 output blocks). Keying HMAC costs 2
        // compressions, once; each of the 2 x 1000 PRF calls costs 2.
        let before = crate::metrics::thread_sha256_blocks();
        let _ = pbkdf2::<Sha256>(b"sealing key", &[0x5a; 32], 1000, 64);
        assert_eq!(crate::metrics::thread_sha256_blocks() - before, 4002);
    }

    #[test]
    fn hkdf_expand_at_rfc_maximum_length() {
        // 255 blocks is the RFC 5869 ceiling; must not panic.
        let prk = hkdf_extract::<Sha256>(b"s", b"ikm");
        let okm = hkdf_expand::<Sha256>(&prk, b"i", 255 * 32);
        assert_eq!(okm.len(), 255 * 32);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn hkdf_expand_beyond_maximum_panics() {
        let prk = hkdf_extract::<Sha256>(b"s", b"ikm");
        let _ = hkdf_expand::<Sha256>(&prk, b"i", 255 * 32 + 1);
    }

    #[test]
    fn hkdf_expand_multiple_blocks() {
        let prk = hkdf_extract::<Sha256>(b"s", b"ikm");
        let okm = hkdf_expand::<Sha256>(&prk, b"i", 100);
        assert_eq!(okm.len(), 100);
        // A longer output must extend (not re-randomize) the shorter one.
        let shorter = hkdf_expand::<Sha256>(&prk, b"i", 32);
        assert_eq!(&okm[..32], &shorter[..]);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn pbkdf2_zero_iterations_panics() {
        let _ = pbkdf2::<Sha256>(b"p", b"s", 0, 16);
    }

    #[test]
    fn pbkdf2_iterations_change_output() {
        let a = pbkdf2::<Sha256>(b"p", b"s", 1, 32);
        let b = pbkdf2::<Sha256>(b"p", b"s", 2, 32);
        assert_ne!(a, b);
    }

    proptest! {
        #[test]
        fn hkdf_deterministic(salt: Vec<u8>, ikm: Vec<u8>, info: Vec<u8>, len in 1usize..100) {
            prop_assert_eq!(
                hkdf::<Sha256>(&salt, &ikm, &info, len),
                hkdf::<Sha256>(&salt, &ikm, &info, len)
            );
        }

        #[test]
        fn hkdf_info_separates_outputs(ikm: Vec<u8>, i1: Vec<u8>, i2: Vec<u8>) {
            prop_assume!(i1 != i2);
            prop_assert_ne!(
                hkdf::<Sha256>(b"salt", &ikm, &i1, 32),
                hkdf::<Sha256>(b"salt", &ikm, &i2, 32)
            );
        }

        #[test]
        fn pbkdf2_matches_rekeying_reference(
            password in proptest::collection::vec(any::<u8>(), 0..201),
            salt: Vec<u8>,
            iterations in 1u32..=8,
            len in 1usize..=100,
        ) {
            // Passwords past 64 bytes take HMAC's pre-hash path; lengths
            // past 32 bytes span several output blocks.
            prop_assert_eq!(
                pbkdf2::<Sha256>(&password, &salt, iterations, len),
                pbkdf2_rekeying::<Sha256>(&password, &salt, iterations, len)
            );
        }

        #[test]
        fn pbkdf2_salt_separates_outputs(pw: Vec<u8>, s1: Vec<u8>, s2: Vec<u8>) {
            prop_assume!(s1 != s2);
            prop_assert_ne!(
                pbkdf2::<Sha256>(&pw, &s1, 2, 32),
                pbkdf2::<Sha256>(&pw, &s2, 2, 32)
            );
        }
    }
}
