//! The ChaCha20 stream cipher (RFC 8439).
//!
//! Used by the TLS record-layer simulation (via the
//! [`crate::aead::ChaCha20Poly1305`] AEAD) and as a fast deterministic
//! keystream source inside the simulators.

/// ChaCha20 key length in bytes.
pub(crate) const KEY_LEN: usize = 32;
/// ChaCha20 nonce length in bytes (the RFC 8439 96-bit variant).
pub(crate) const NONCE_LEN: usize = 12;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Blocks per step of the wide path: 16 blocks, 1 KiB of keystream.
const LANES: usize = 16;

/// The input state for (`key`, `counter`, `nonce`): constants, key words,
/// block counter, nonce words.
fn initial_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (s, k) in state[4..12].iter_mut().zip(key.as_chunks::<4>().0) {
        *s = u32::from_le_bytes(*k);
    }
    state[12] = counter;
    for (s, n) in state[13..].iter_mut().zip(nonce.as_chunks::<4>().0) {
        *s = u32::from_le_bytes(*n);
    }
    state
}

/// One quarter round on all `L` lanes. Each lane is an independent
/// block, so the `l` loop has no carried dependency and vectorizes.
#[inline(always)]
fn quarter_round<const L: usize>(x: &mut [[u32; L]; 16], a: usize, b: usize, c: usize, d: usize) {
    let [mut va, mut vb, mut vc, mut vd] = [x[a], x[b], x[c], x[d]];
    for (((a, b), c), d) in va.iter_mut().zip(&mut vb).zip(&mut vc).zip(&mut vd) {
        *a = a.wrapping_add(*b);
        *d = (*d ^ *a).rotate_left(16);
        *c = c.wrapping_add(*d);
        *b = (*b ^ *c).rotate_left(12);
        *a = a.wrapping_add(*b);
        *d = (*d ^ *a).rotate_left(8);
        *c = c.wrapping_add(*d);
        *b = (*b ^ *c).rotate_left(7);
    }
    [x[a], x[b], x[c], x[d]] = [va, vb, vc, vd];
}

/// The 20-round block function on the `L` blocks `state[12]`,
/// `state[12] + 1`, … (the counter wraps), held word-major: lane `l` of
/// word `i` is word `i` of block `l`.
#[inline(always)]
fn keystream<const L: usize>(state: &[u32; 16]) -> [[u32; L]; 16] {
    let mut input = state.map(|w| [w; L]);
    for (l, counter) in input[12].iter_mut().enumerate() {
        *counter = counter.wrapping_add(l as u32);
    }
    let mut x = input;
    for _ in 0..10 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (xw, iw) in x.iter_mut().zip(&input) {
        for (x, i) in xw.iter_mut().zip(iw) {
            *x = x.wrapping_add(*i);
        }
    }
    x
}

/// XORs `data` (at most `L` blocks; the last may be partial) with the
/// keystream of `L` blocks from `state`, a little-endian word at a time.
#[inline(always)]
fn xor_keystream<const L: usize>(state: &[u32; 16], data: &mut [u8]) {
    let ks = keystream::<L>(state);
    for (l, block) in data.chunks_mut(64).enumerate() {
        let (words, tail) = block.as_chunks_mut::<4>();
        for (word, k) in words.iter_mut().zip(&ks) {
            *word = (u32::from_le_bytes(*word) ^ k[l]).to_le_bytes();
        }
        if let Some(k) = ks.get(words.len()) {
            for (b, k) in tail.iter_mut().zip(k[l].to_le_bytes()) {
                *b ^= k;
            }
        }
    }
}

/// Computes one 64-byte ChaCha20 block for (`key`, `counter`, `nonce`).
#[must_use]
pub(crate) fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut out = [0u8; 64];
    xor_keystream::<1>(&initial_state(key, counter, nonce), &mut out);
    out
}

/// Encrypts or decrypts `data` in place (XOR keystream starting at block
/// `initial_counter`). ChaCha20 is its own inverse.
///
/// The state is built once per call. Each 1 KiB group runs 16 blocks
/// side by side, one per lane of the word-major kernel; the remaining
/// whole blocks and a trailing partial block run one at a time.
///
/// ```
/// use revelio_crypto::chacha::xor_stream;
/// let key = [7u8; 32];
/// let nonce = [1u8; 12];
/// let mut data = b"attestation report".to_vec();
/// xor_stream(&key, 1, &nonce, &mut data);
/// assert_ne!(&data[..], b"attestation report");
/// xor_stream(&key, 1, &nonce, &mut data);
/// assert_eq!(&data[..], b"attestation report");
/// ```
pub fn xor_stream(
    key: &[u8; KEY_LEN],
    initial_counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    let mut state = initial_state(key, initial_counter, nonce);
    let mut groups = data.chunks_exact_mut(64 * LANES);
    for group in &mut groups {
        xor_keystream::<LANES>(&state, group);
        state[12] = state[12].wrapping_add(LANES as u32);
    }
    for block in groups.into_remainder().chunks_mut(64) {
        xor_keystream::<1>(&state, block);
        state[12] = state[12].wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    fn rfc_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2 test vector: counter 1, nonce 00:00:00:09:00:00:00:4a:00:00:00:00.
        let key = rfc_key();
        let nonce = hex::decode_array::<12>("000000090000004a00000000").unwrap();
        let out = block(&key, 1, &nonce);
        assert_eq!(
            hex::encode(out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn rfc8439_encryption_vector_prefix() {
        // RFC 8439 §2.4.2: "Ladies and Gentlemen..." with counter 1.
        let key = rfc_key();
        let nonce = hex::decode_array::<12>("000000000000004a00000000").unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could \
                         offer you only one tip for the future, sunscreen would be it."
            .to_vec();
        xor_stream(&key, 1, &nonce, &mut data);
        assert_eq!(
            hex::encode(&data[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
    }

    /// The per-block loop `xor_stream` replaced: re-derive the block from
    /// the key for every 64 bytes and XOR byte by byte.
    fn xor_stream_bytewise(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(64).enumerate() {
            let ks = block(key, counter.wrapping_add(i as u32), nonce);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    #[test]
    fn counter_advances_across_blocks() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        let mut long = vec![0u8; 128];
        xor_stream(&key, 5, &nonce, &mut long);
        let b5 = block(&key, 5, &nonce);
        let b6 = block(&key, 6, &nonce);
        assert_eq!(&long[..64], &b5[..]);
        assert_eq!(&long[64..], &b6[..]);
    }

    #[test]
    fn every_length_through_three_groups_matches_byte_wise() {
        // 0, 1, and one to three 16-block groups, each followed by every
        // whole-block and partial tail.
        let key = rfc_key();
        let nonce = [9u8; 12];
        let max = 3 * 64 * LANES + 130;
        let mut keystream = vec![0u8; max];
        xor_stream_bytewise(&key, 7, &nonce, &mut keystream);
        for len in 0..=max {
            let mut fast = vec![0u8; len];
            xor_stream(&key, 7, &nonce, &mut fast);
            assert_eq!(fast, keystream[..len], "length {len}");
        }
    }

    proptest! {
        #[test]
        fn xor_stream_is_involution(key: [u8; 32], nonce: [u8; 12], counter: u32, data: Vec<u8>) {
            let mut buf = data.clone();
            xor_stream(&key, counter, &nonce, &mut buf);
            xor_stream(&key, counter, &nonce, &mut buf);
            prop_assert_eq!(buf, data);
        }

        #[test]
        fn lanes_match_byte_wise(key: [u8; 32], nonce: [u8; 12], counter: u32, data in proptest::collection::vec(any::<u8>(), 0..3 * 64 * LANES + 130)) {
            let mut fast = data.clone();
            xor_stream(&key, counter, &nonce, &mut fast);
            let mut slow = data;
            xor_stream_bytewise(&key, counter, &nonce, &mut slow);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn counter_wraps_like_the_byte_wise_loop(key: [u8; 32], nonce: [u8; 12], back in 0u32..40) {
            // u32::MAX lands in the first group's lanes, the second
            // group's, or the single-block tail.
            let mut fast = vec![0u8; 2 * 64 * LANES + 130];
            let mut slow = fast.clone();
            xor_stream(&key, u32::MAX - back, &nonce, &mut fast);
            xor_stream_bytewise(&key, u32::MAX - back, &nonce, &mut slow);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn different_nonces_give_different_keystreams(key: [u8; 32], n1: [u8; 12], n2: [u8; 12]) {
            prop_assume!(n1 != n2);
            prop_assert_ne!(block(&key, 0, &n1), block(&key, 0, &n2));
        }
    }
}
