//! AES-128 and AES-256 block ciphers (FIPS 197).
//!
//! Backs the [`crate::xts`] mode used by the `dm-crypt` simulation
//! (`aes-xts-plain64`, the paper's §6.3.1 cipher spec).
//!
//! The S-box and its inverse are computed at first use from their definition
//! (multiplicative inverse in GF(2^8) followed by the affine transform)
//! rather than embedded as literal tables, then pinned by the FIPS 197
//! vectors in the tests.
//!
//! Rounds run on four 32-bit big-endian columns through T-tables derived
//! from that S-box in the same one-time initialisation: one `Te` lookup
//! per byte performs SubBytes, ShiftRows and MixColumns at once.
//! Decryption uses the equivalent inverse cipher (FIPS 197 §5.3.5):
//! InvMixColumns is applied once to the middle round keys at expansion, so
//! a decrypt round is the same four lookups per column through `Td`.
//! Table lookups index by secret bytes exactly as the byte-wise S-box did;
//! cache-timing side channels stay out of the threat model (see the crate
//! docs).

use std::sync::OnceLock;

use crate::CryptoError;

/// Multiplication in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1.
/// Only table derivation and the round-constant step of key expansion
/// use it; no data-dependent path does.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let high = a & 0x80;
        a <<= 1;
        if high != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// The S-boxes and the round T-tables: `te[k][x]` is the MixColumns column
/// of `S[x]` in row `k`, `td[k][x]` the InvMixColumns column of `S^-1[x]`.
struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    te: [[u32; 256]; 4],
    td: [[u32; 256]; 4],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Multiplicative inverses by brute force (256*256 products, one-time).
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in 1..=255u8 {
                if gf_mul(a, b) == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
        }
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for x in 0..=255u8 {
            let b = inv[x as usize];
            let s = b
                ^ b.rotate_left(1)
                ^ b.rotate_left(2)
                ^ b.rotate_left(3)
                ^ b.rotate_left(4)
                ^ 0x63;
            sbox[x as usize] = s;
            inv_sbox[s as usize] = x;
        }
        let mut te = [[0u32; 256]; 4];
        let mut td = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = sbox[x];
            let e = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            let i = inv_sbox[x];
            let d = u32::from_be_bytes([gf_mul(i, 14), gf_mul(i, 9), gf_mul(i, 13), gf_mul(i, 11)]);
            for row in 0..4 {
                te[row][x] = e.rotate_right(8 * row as u32);
                td[row][x] = d.rotate_right(8 * row as u32);
            }
        }
        Tables {
            sbox,
            inv_sbox,
            te,
            td,
        }
    })
}

/// Applies the S-box to each byte of a word.
fn sub_word(w: u32) -> u32 {
    let sbox = &tables().sbox;
    u32::from_be_bytes(w.to_be_bytes().map(|b| sbox[b as usize]))
}

/// Runs the cipher over one block. `STEP` is the column distance between
/// successive rows after (Inv)ShiftRows: 1 to encrypt, 3 to decrypt.
#[inline]
fn cipher<const STEP: usize>(
    keys: &[[u32; 4]; 15],
    rounds: usize,
    t: &[[u32; 256]; 4],
    sbox: &[u8; 256],
    block: &[u8; 16],
) -> [u8; 16] {
    let (first, middle, last) = (&keys[0], &keys[1..rounds], &keys[rounds]);
    let col = |s: &[u32; 4], c: usize, row: usize| {
        (s[(c + row * STEP) % 4] >> (24 - 8 * row)) as u8 as usize
    };
    let (words, _) = block.as_chunks::<4>();
    let mut s: [u32; 4] = std::array::from_fn(|c| u32::from_be_bytes(words[c]) ^ first[c]);
    for k in middle {
        s = std::array::from_fn(|c| {
            t[0][col(&s, c, 0)]
                ^ t[1][col(&s, c, 1)]
                ^ t[2][col(&s, c, 2)]
                ^ t[3][col(&s, c, 3)]
                ^ k[c]
        });
    }
    let mut out = [0u8; 16];
    for (c, o) in out.chunks_exact_mut(4).enumerate() {
        let w = u32::from_be_bytes(std::array::from_fn(|row| sbox[col(&s, c, row)])) ^ last[c];
        o.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// AES variant selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeySize {
    /// AES-128: 16-byte key, 10 rounds.
    Aes128,
    /// AES-256: 32-byte key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes256 => 14,
        }
    }

    fn key_words(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes256 => 8,
        }
    }
}

/// An AES block cipher instance with an expanded key schedule.
///
/// ```
/// use revelio_crypto::aes::Aes;
///
/// let aes = Aes::new(&[0u8; 16])?;
/// let ct = aes.encrypt_block(&[0u8; 16]);
/// assert_eq!(aes.decrypt_block(&ct), [0u8; 16]);
/// # Ok::<(), revelio_crypto::CryptoError>(())
/// ```
#[derive(Clone)]
pub struct Aes {
    /// Encryption round keys as big-endian columns; `rounds + 1` are used.
    enc: [[u32; 4]; 15],
    /// Round keys of the equivalent inverse cipher, in decryption order.
    dec: [[u32; 4]; 15],
    size: KeySize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes")
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

impl Aes {
    /// Creates a cipher from a 16-byte (AES-128) or 32-byte (AES-256) key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeySize`] for any other key length.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let size = match key.len() {
            16 => KeySize::Aes128,
            32 => KeySize::Aes256,
            n => return Err(CryptoError::InvalidKeySize(n)),
        };
        Ok(Self::expand(key, size))
    }

    /// Which variant this instance uses.
    #[must_use]
    pub(crate) fn key_size(&self) -> KeySize {
        self.size
    }

    fn expand(key: &[u8], size: KeySize) -> Self {
        let nk = size.key_words();
        let rounds = size.rounds();
        let mut w = [0u32; 60];
        for (w, word) in w.iter_mut().zip(key.as_chunks::<4>().0) {
            *w = u32::from_be_bytes(*word);
        }
        let mut rcon = 1u8;
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut enc = [[0u32; 4]; 15];
        for (rk, words) in enc.iter_mut().zip(w.chunks_exact(4)) {
            rk.copy_from_slice(words);
        }
        // Equivalent inverse cipher: reversed order, InvMixColumns on every
        // key but the outer two. Td[S[b]] is InvMixColumns of byte b alone.
        let t = tables();
        let inv_mix = |w: u32| {
            let b = w.to_be_bytes();
            (0..4).fold(0, |acc, row| {
                acc ^ t.td[row][t.sbox[b[row] as usize] as usize]
            })
        };
        let mut dec = [[0u32; 4]; 15];
        for r in 0..=rounds {
            let k = enc[rounds - r];
            dec[r] = if r == 0 || r == rounds {
                k
            } else {
                k.map(inv_mix)
            };
        }
        Aes { enc, dec, size }
    }

    /// Encrypts a single 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let t = tables();
        cipher::<1>(&self.enc, self.size.rounds(), &t.te, &t.sbox, block)
    }

    /// Decrypts a single 16-byte block.
    #[must_use]
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let t = tables();
        cipher::<3>(&self.dec, self.size.rounds(), &t.td, &t.inv_sbox, block)
    }
}

#[cfg(test)]
mod reference {
    //! The byte-wise FIPS 197 rounds the T-table kernel replaced, kept
    //! only as an oracle for the equivalence proptests.

    use super::{gf_mul, tables, KeySize};

    pub(crate) struct ByteAes {
        round_keys: Vec<[u8; 16]>,
        rounds: usize,
    }

    fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
        for b in state.iter_mut() {
            *b = sbox[*b as usize];
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // state[r + 4c]; row r rotates left by r positions.
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + r) % 4];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + 4 - r) % 4];
            }
        }
    }

    /// Multiplies each column by the circulant matrix whose first row is
    /// `m` (MixColumns for `[2, 3, 1, 1]`, its inverse for `[14, 11, 13, 9]`).
    fn mix(state: &mut [u8; 16], m: [u8; 4]) {
        for col in state.chunks_exact_mut(4) {
            let a = [col[0], col[1], col[2], col[3]];
            for (r, out) in col.iter_mut().enumerate() {
                *out = (0..4).fold(0, |acc, i| acc ^ gf_mul(a[i], m[(i + 4 - r) % 4]));
            }
        }
    }

    impl ByteAes {
        pub(crate) fn new(key: &[u8], size: KeySize) -> Self {
            let sbox = &tables().sbox;
            let nk = size.key_words();
            let rounds = size.rounds();
            let mut w: Vec<[u8; 4]> = key.chunks_exact(4).map(|c| c.try_into().unwrap()).collect();
            let mut rcon = 1u8;
            for i in nk..4 * (rounds + 1) {
                let mut temp = w[i - 1];
                if i % nk == 0 {
                    temp.rotate_left(1);
                    temp = temp.map(|b| sbox[b as usize]);
                    temp[0] ^= rcon;
                    rcon = gf_mul(rcon, 2);
                } else if nk > 6 && i % nk == 4 {
                    temp = temp.map(|b| sbox[b as usize]);
                }
                let prev = w[i - nk];
                w.push(std::array::from_fn(|j| prev[j] ^ temp[j]));
            }
            let round_keys = w
                .chunks_exact(4)
                .map(|c| std::array::from_fn(|i| c[i / 4][i % 4]))
                .collect();
            ByteAes { round_keys, rounds }
        }

        pub(crate) fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
            let sbox = &tables().sbox;
            let mut state = *block;
            add_round_key(&mut state, &self.round_keys[0]);
            for round in 1..=self.rounds {
                sub_bytes(&mut state, sbox);
                shift_rows(&mut state);
                if round != self.rounds {
                    mix(&mut state, [2, 3, 1, 1]);
                }
                add_round_key(&mut state, &self.round_keys[round]);
            }
            state
        }

        pub(crate) fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
            let inv_sbox = &tables().inv_sbox;
            let mut state = *block;
            add_round_key(&mut state, &self.round_keys[self.rounds]);
            for round in (0..self.rounds).rev() {
                inv_shift_rows(&mut state);
                sub_bytes(&mut state, inv_sbox);
                add_round_key(&mut state, &self.round_keys[round]);
                if round != 0 {
                    mix(&mut state, [14, 11, 13, 9]);
                }
            }
            state
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ByteAes;
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    #[test]
    fn sbox_spot_values() {
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.inv_sbox[0x63], 0x00);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let Tables { sbox, inv_sbox, .. } = tables();
        let mut seen = [false; 256];
        for &v in sbox.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        for x in 0..=255u8 {
            assert_eq!(inv_sbox[sbox[x as usize] as usize], x);
        }
    }

    #[test]
    fn t_tables_are_rotations_of_the_mixed_sbox() {
        let t = tables();
        // FIPS 197 §4.2: {02}·S[0] = {02}·{63} = {c6}, {03}·{63} = {a5}.
        assert_eq!(t.te[0][0], 0xc663_63a5);
        // S^-1[0] = {52}: {0e}·{52}, {09}·{52}, {0d}·{52}, {0b}·{52}.
        assert_eq!(t.td[0][0], 0x51f4_a750);
        for x in 0..256 {
            for row in 1..4 {
                assert_eq!(t.te[row][x], t.te[0][x].rotate_right(8 * row as u32));
                assert_eq!(t.td[row][x], t.td[0][x].rotate_right(8 * row as u32));
            }
        }
    }

    #[test]
    fn fips197_aes128_vector() {
        let key = hex::decode_array::<16>("000102030405060708090a0b0c0d0e0f").unwrap();
        let pt = hex::decode_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let aes = Aes::new(&key).unwrap();
        let ct = aes.encrypt_block(&pt);
        assert_eq!(hex::encode(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(aes.decrypt_block(&ct), pt);
        assert_eq!(ByteAes::new(&key, KeySize::Aes128).encrypt_block(&pt), ct);
    }

    #[test]
    fn fips197_aes256_vector() {
        let key = hex::decode_array::<32>(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        )
        .unwrap();
        let pt = hex::decode_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let aes = Aes::new(&key).unwrap();
        let ct = aes.encrypt_block(&pt);
        assert_eq!(hex::encode(ct), "8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(aes.decrypt_block(&ct), pt);
        assert_eq!(ByteAes::new(&key, KeySize::Aes256).encrypt_block(&pt), ct);
    }

    #[test]
    fn invalid_key_sizes_rejected() {
        for n in [0usize, 8, 15, 17, 24, 31, 33] {
            assert_eq!(
                Aes::new(&vec![0u8; n]).unwrap_err(),
                CryptoError::InvalidKeySize(n)
            );
        }
    }

    #[test]
    fn gf_mul_known_products() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }

    proptest! {
        #[test]
        fn encrypt_decrypt_roundtrip_128(key: [u8; 16], block: [u8; 16]) {
            let aes = Aes::new(&key).unwrap();
            prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }

        #[test]
        fn encrypt_decrypt_roundtrip_256(key: [u8; 32], block: [u8; 16]) {
            let aes = Aes::new(&key).unwrap();
            prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }

        #[test]
        fn encryption_is_injective(key: [u8; 16], b1: [u8; 16], b2: [u8; 16]) {
            prop_assume!(b1 != b2);
            let aes = Aes::new(&key).unwrap();
            prop_assert_ne!(aes.encrypt_block(&b1), aes.encrypt_block(&b2));
        }

        #[test]
        fn t_tables_match_bytewise_rounds_128(key: [u8; 16], block: [u8; 16]) {
            let aes = Aes::new(&key).unwrap();
            let reference = ByteAes::new(&key, KeySize::Aes128);
            prop_assert_eq!(aes.encrypt_block(&block), reference.encrypt_block(&block));
            prop_assert_eq!(aes.decrypt_block(&block), reference.decrypt_block(&block));
        }

        #[test]
        fn t_tables_match_bytewise_rounds_256(key: [u8; 32], block: [u8; 16]) {
            let aes = Aes::new(&key).unwrap();
            let reference = ByteAes::new(&key, KeySize::Aes256);
            prop_assert_eq!(aes.encrypt_block(&block), reference.encrypt_block(&block));
            prop_assert_eq!(aes.decrypt_block(&block), reference.decrypt_block(&block));
        }
    }
}
