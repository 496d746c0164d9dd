//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Arithmetic mod 2^130 - 5 runs over three 44/44/42-bit limbs in `u64`
//! with `u128` products: 9 wide multiplies per 16-byte block. The limbs
//! sit at bits 0, 44 and 88, so every product that wraps lands at 2^132
//! or 2^176, and 2^132 = 4 * 2^130 ≡ 20 (mod p): wrapped terms use `r * 20`.
//!
//! Full blocks go four at a time: `h = (h + m0)·r⁴ + m1·r³ + m2·r² + m3·r`
//! is four independent products summed unreduced, then one carry.

/// Poly1305 key length (r || s) in bytes.
pub(crate) const KEY_LEN: usize = 32;
/// Poly1305 tag length in bytes.
pub(crate) const TAG_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// 2^128 as it lands in the top limb (bit 40): the pad bit of a full block.
const PAD_BIT: u64 = 1 << 40;

/// Splits 16 little-endian bytes into 44/44/42-bit limbs (the top limb
/// keeps bits 88..128, so it has room for the 2^128 pad bit).
fn limbs(bytes: &[u8; 16]) -> [u64; 3] {
    let v = u128::from_le_bytes(*bytes);
    let (t0, t1) = (v as u64, (v >> 64) as u64);
    [t0 & MASK44, ((t0 >> 44) | (t1 << 20)) & MASK44, t1 >> 24]
}

/// `a · b` (mod 2^130 - 5) as three unreduced limb sums. With limbs
/// below 2^46, 2^46 and 2^43 (an accumulator plus a block, or a power of
/// r) each sum stays below 2^95, so four of them add up below 2^97 and
/// take one [`carry`].
fn mul(a: [u64; 3], b: [u64; 3]) -> [u128; 3] {
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let (s1, s2) = (b1 * 20, b2 * 20);
    [
        a0 * b0 + a1 * s2 + a2 * s1,
        a0 * b1 + a1 * b0 + a2 * s2,
        a0 * b2 + a1 * b1 + a2 * b0,
    ]
}

/// Partial carry back to 44/44/42-bit limbs; the overflow above 2^130
/// folds back in times 5. The middle limb may exceed 2^44 by the low
/// limb's carry (under 2^14).
fn carry([d0, d1, d2]: [u128; 3]) -> [u64; 3] {
    let d1 = d1 + (d0 >> 44);
    let d2 = d2 + (d1 >> 44);
    let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
    [h0 & MASK44, h1, d2 as u64 & MASK42]
}

/// The limbs of `block` plus `pad_bit` in the top limb.
fn padded(block: &[u8; 16], pad_bit: u64) -> [u64; 3] {
    let [m0, m1, m2] = limbs(block);
    [m0, m1, m2 | pad_bit]
}

/// Streaming Poly1305 state.
///
/// A Poly1305 key must be used for **one** message only; the AEAD in
/// [`crate::aead`] derives a fresh key per nonce as the RFC requires.
#[derive(Clone)]
pub(crate) struct Poly1305 {
    /// r, r², r³, r⁴, each partially carried.
    r: [[u64; 3]; 4],
    s: u128,
    acc: [u64; 3],
    buffer: [u8; 16],
    buffered: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poly1305").finish_non_exhaustive()
    }
}

impl Poly1305 {
    /// Creates a new authenticator from a 32-byte one-time key.
    #[must_use]
    pub(crate) fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r per the RFC.
        let (halves, _) = key.as_chunks::<16>();
        let r = u128::from_le_bytes(halves[0]) & 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff;
        let r = limbs(&r.to_le_bytes());
        let r2 = carry(mul(r, r));
        Poly1305 {
            r: [r, r2, carry(mul(r2, r)), carry(mul(r2, r2))],
            s: u128::from_le_bytes(halves[1]),
            acc: [0; 3],
            buffer: [0; 16],
            buffered: 0,
        }
    }

    /// Absorbs one 16-byte block; `pad_bit` is [`PAD_BIT`] for a full
    /// block, 0 for a final partial block whose `0x01` terminator is
    /// already in the bytes.
    fn process_block(&mut self, block: &[u8; 16], pad_bit: u64) {
        let m = padded(block, pad_bit);
        let h = std::array::from_fn(|i| self.acc[i] + m[i]);
        self.acc = carry(mul(h, self.r[0]));
    }

    /// Absorbs four full blocks: `(acc + m0)·r⁴ + m1·r³ + m2·r² + m3·r`,
    /// one carry for all four products.
    fn process_quad(&mut self, blocks: &[[u8; 16]; 4]) {
        let mut m = blocks.map(|block| padded(&block, PAD_BIT));
        m[0] = std::array::from_fn(|i| self.acc[i] + m[0][i]);
        let mut d = [0u128; 3];
        for (m, r) in m.into_iter().zip(self.r.into_iter().rev()) {
            for (d, p) in d.iter_mut().zip(mul(m, r)) {
                *d += p;
            }
        }
        self.acc = carry(d);
    }

    /// Absorbs message bytes.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        // Complete a partially-buffered block first.
        if self.buffered > 0 {
            let take = (16 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 16 {
                return;
            }
            self.buffered = 0;
            let block = self.buffer;
            self.process_block(&block, PAD_BIT);
        }
        // Process whole blocks directly from the input, four at a time.
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, rest) = blocks.as_chunks::<4>();
        for quad in quads {
            self.process_quad(quad);
        }
        for block in rest {
            self.process_block(block, PAD_BIT);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes and returns the 16-byte tag.
    #[must_use]
    pub(crate) fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            let mut block = [0u8; 16];
            block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
            block[self.buffered] = 1;
            self.process_block(&block, 0);
        }
        // Full carry, then compute acc mod 2^130-5 canonically.
        let [mut h0, mut h1, mut h2] = self.acc;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        // Compute h - p by adding 5 and seeing if bit 130 sets.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = h2 + (g1 >> 44);
        let ge_p = g2 >> 42; // 1 if h >= p
        let sel = crate::ct::select_u64;
        let f0 = sel(ge_p, g0 & MASK44, h0);
        let f1 = sel(ge_p, g1 & MASK44, h1);
        let f2 = sel(ge_p, g2 & MASK42, h2);

        // Serialize to 128 bits and add s (mod 2^128).
        let acc128 = u128::from(f0) | (u128::from(f1) << 44) | (u128::from(f2) << 88);
        acc128.wrapping_add(self.s).to_le_bytes()
    }

    /// One-shot MAC.
    #[cfg(test)]
    fn mac(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(message);
        p.finalize()
    }
}

#[cfg(test)]
mod reference {
    //! The five-limb 26-bit core the 44-bit kernel replaced, kept only as
    //! an oracle for the equivalence proptest.

    use super::{KEY_LEN, TAG_LEN};

    pub(crate) struct Poly26 {
        r: [u64; 5],
        s: [u64; 2],
        acc: [u64; 5],
    }

    impl Poly26 {
        pub(crate) fn mac(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
            let mut p = Poly26::new(key);
            for block in message.chunks(16) {
                p.process_block(block, block.len() < 16);
            }
            p.finalize()
        }

        fn new(key: &[u8; KEY_LEN]) -> Self {
            // Clamp r per the RFC.
            let r0 = u32::from_le_bytes(key[0..4].try_into().expect("4 bytes")) & 0x0fff_ffff;
            let r1 = u32::from_le_bytes(key[4..8].try_into().expect("4 bytes")) & 0x0fff_fffc;
            let r2 = u32::from_le_bytes(key[8..12].try_into().expect("4 bytes")) & 0x0fff_fffc;
            let r3 = u32::from_le_bytes(key[12..16].try_into().expect("4 bytes")) & 0x0fff_fffc;
            // Repack the clamped 128-bit r into five 26-bit limbs.
            let r128 = u128::from(r0)
                | (u128::from(r1) << 32)
                | (u128::from(r2) << 64)
                | (u128::from(r3) << 96);
            let mask = (1u128 << 26) - 1;
            let r = [
                (r128 & mask) as u64,
                ((r128 >> 26) & mask) as u64,
                ((r128 >> 52) & mask) as u64,
                ((r128 >> 78) & mask) as u64,
                ((r128 >> 104) & mask) as u64,
            ];
            let s = [
                u64::from_le_bytes(key[16..24].try_into().expect("8 bytes")),
                u64::from_le_bytes(key[24..32].try_into().expect("8 bytes")),
            ];
            Poly26 { r, s, acc: [0; 5] }
        }

        fn process_block(&mut self, block: &[u8], final_partial: bool) {
            // Interpret block as a little-endian number and add 2^(8*len).
            let mut n = [0u8; 17];
            n[..block.len()].copy_from_slice(block);
            n[block.len()] = 1;
            if !final_partial {
                debug_assert_eq!(block.len(), 16);
            }
            let lo = u128::from_le_bytes(n[0..16].try_into().expect("16 bytes"));
            let hi = u64::from(n[16]);
            let mask = (1u128 << 26) - 1;
            // The last limb holds bits 104..130: 24 bits from lo plus hi<<24.
            let m = [
                (lo & mask) as u64,
                ((lo >> 26) & mask) as u64,
                ((lo >> 52) & mask) as u64,
                ((lo >> 78) & mask) as u64,
                ((lo >> 104) as u64) | (hi << 24),
            ];

            // acc += m
            for (a, v) in self.acc.iter_mut().zip(&m) {
                *a += v;
            }
            // acc *= r (mod 2^130 - 5)
            let [r0, r1, r2, r3, r4] = self.r;
            let [a0, a1, a2, a3, a4] = self.acc;
            let s1 = r1 * 5;
            let s2 = r2 * 5;
            let s3 = r3 * 5;
            let s4 = r4 * 5;
            let d0 = u128::from(a0) * u128::from(r0)
                + u128::from(a1) * u128::from(s4)
                + u128::from(a2) * u128::from(s3)
                + u128::from(a3) * u128::from(s2)
                + u128::from(a4) * u128::from(s1);
            let d1 = u128::from(a0) * u128::from(r1)
                + u128::from(a1) * u128::from(r0)
                + u128::from(a2) * u128::from(s4)
                + u128::from(a3) * u128::from(s3)
                + u128::from(a4) * u128::from(s2);
            let d2 = u128::from(a0) * u128::from(r2)
                + u128::from(a1) * u128::from(r1)
                + u128::from(a2) * u128::from(r0)
                + u128::from(a3) * u128::from(s4)
                + u128::from(a4) * u128::from(s3);
            let d3 = u128::from(a0) * u128::from(r3)
                + u128::from(a1) * u128::from(r2)
                + u128::from(a2) * u128::from(r1)
                + u128::from(a3) * u128::from(r0)
                + u128::from(a4) * u128::from(s4);
            let d4 = u128::from(a0) * u128::from(r4)
                + u128::from(a1) * u128::from(r3)
                + u128::from(a2) * u128::from(r2)
                + u128::from(a3) * u128::from(r1)
                + u128::from(a4) * u128::from(r0);
            // Carry propagation back to 26-bit limbs.
            let mask64 = (1u64 << 26) - 1;
            let mut c: u128;
            let mut h0 = (d0 as u64) & mask64;
            c = d0 >> 26;
            let d1 = d1 + c;
            let mut h1 = (d1 as u64) & mask64;
            c = d1 >> 26;
            let d2 = d2 + c;
            let h2 = (d2 as u64) & mask64;
            c = d2 >> 26;
            let d3 = d3 + c;
            let h3 = (d3 as u64) & mask64;
            c = d3 >> 26;
            let d4 = d4 + c;
            let h4 = (d4 as u64) & mask64;
            c = d4 >> 26;
            // Multiply overflow above 2^130 by 5 and fold back in.
            let folded = h0 as u128 + c * 5;
            h0 = (folded as u64) & mask64;
            h1 += (folded >> 26) as u64;
            self.acc = [h0, h1, h2, h3, h4];
        }

        fn finalize(self) -> [u8; TAG_LEN] {
            // Full carry, then compute acc mod 2^130-5 canonically.
            let mask = (1u64 << 26) - 1;
            let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.acc;
            let mut c;
            c = h1 >> 26;
            h1 &= mask;
            h2 += c;
            c = h2 >> 26;
            h2 &= mask;
            h3 += c;
            c = h3 >> 26;
            h3 &= mask;
            h4 += c;
            c = h4 >> 26;
            h4 &= mask;
            h0 += c * 5;
            c = h0 >> 26;
            h0 &= mask;
            h1 += c;

            // Compute h - p by adding 5 and seeing if bit 130 sets.
            let mut g0 = h0.wrapping_add(5);
            c = g0 >> 26;
            g0 &= mask;
            let mut g1 = h1.wrapping_add(c);
            c = g1 >> 26;
            g1 &= mask;
            let mut g2 = h2.wrapping_add(c);
            c = g2 >> 26;
            g2 &= mask;
            let mut g3 = h3.wrapping_add(c);
            c = g3 >> 26;
            g3 &= mask;
            let g4 = h4.wrapping_add(c);
            let ge_p = g4 >> 26; // 1 if h >= p
            let g4 = g4 & mask;

            let sel = crate::ct::select_u64;
            let f0 = sel(ge_p, g0, h0);
            let f1 = sel(ge_p, g1, h1);
            let f2 = sel(ge_p, g2, h2);
            let f3 = sel(ge_p, g3, h3);
            let f4 = sel(ge_p, g4, h4);

            // Serialize to 128 bits and add s (mod 2^128).
            let acc128 = u128::from(f0)
                | (u128::from(f1) << 26)
                | (u128::from(f2) << 52)
                | (u128::from(f3) << 78)
                | (u128::from(f4) << 104);
            let s128 = u128::from(self.s[0]) | (u128::from(self.s[1]) << 64);
            let tag = acc128.wrapping_add(s128);
            tag.to_le_bytes()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Poly26;
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    #[test]
    fn rfc8439_vector() {
        let key = hex::decode_array::<32>(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
        )
        .unwrap();
        let tag = Poly1305::mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(hex::encode(tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    /// RFC 8439 §A.3 vectors #5–#9: accumulators that land on or just past
    /// 2^130 - 5, exercising the carry chain and the final reduction.
    #[test]
    fn rfc8439_appendix_reduction_vectors() {
        let hex_of = |parts: &[(&str, usize)]| -> String {
            parts.iter().map(|(byte, n)| byte.repeat(*n)).collect()
        };
        let vectors = [
            // #5
            (
                hex_of(&[("02", 1), ("00", 31)]),
                hex_of(&[("ff", 16)]),
                hex_of(&[("03", 1), ("00", 15)]),
            ),
            // #6
            (
                hex_of(&[("02", 1), ("00", 15), ("ff", 16)]),
                hex_of(&[("02", 1), ("00", 15)]),
                hex_of(&[("03", 1), ("00", 15)]),
            ),
            // #7
            (
                hex_of(&[("01", 1), ("00", 31)]),
                hex_of(&[("ff", 16), ("f0", 1), ("ff", 15), ("11", 1), ("00", 15)]),
                hex_of(&[("05", 1), ("00", 15)]),
            ),
            // #8
            (
                hex_of(&[("01", 1), ("00", 31)]),
                hex_of(&[("ff", 16), ("fb", 1), ("fe", 15), ("01", 16)]),
                hex_of(&[("00", 16)]),
            ),
            // #9
            (
                hex_of(&[("02", 1), ("00", 31)]),
                hex_of(&[("fd", 1), ("ff", 15)]),
                hex_of(&[("fa", 1), ("ff", 15)]),
            ),
        ];
        for (key, msg, tag) in vectors {
            let key = hex::decode_array::<32>(&key).unwrap();
            let msg = hex::decode(&msg).unwrap();
            assert_eq!(hex::encode(Poly1305::mac(&key, &msg)), tag);
            assert_eq!(hex::encode(Poly26::mac(&key, &msg)), tag);
        }
    }

    #[test]
    fn empty_message() {
        // With an empty message the tag is just `s`.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[9u8; 16]);
        assert_eq!(Poly1305::mac(&key, b""), [9u8; 16]);
    }

    #[test]
    fn partial_final_block() {
        let key = [3u8; 32];
        let t1 = Poly1305::mac(&key, b"12345");
        let t2 = Poly1305::mac(&key, b"1234");
        assert_ne!(t1, t2);
    }

    proptest! {
        #[test]
        fn streaming_split_invariance(key: [u8; 32], data: Vec<u8>, split in 0usize..64) {
            let split = split.min(data.len());
            let mut p = Poly1305::new(&key);
            p.update(&data[..split]);
            p.update(&data[split..]);
            prop_assert_eq!(p.finalize(), Poly1305::mac(&key, &data));
        }

        #[test]
        fn streaming_splits_mid_quad_match_26_bit_limbs(key: [u8; 32], data in proptest::collection::vec(any::<u8>(), 0..400), a in 0usize..400, b in 0usize..400) {
            // Two splits anywhere, so a buffered partial block is finished
            // mid-quad and the quads realign after it.
            let (a, b) = (a.min(data.len()), b.min(data.len()));
            let (a, b) = (a.min(b), a.max(b));
            let mut p = Poly1305::new(&key);
            p.update(&data[..a]);
            p.update(&data[a..b]);
            p.update(&data[b..]);
            prop_assert_eq!(p.finalize(), Poly26::mac(&key, &data));
        }

        #[test]
        fn matches_26_bit_limbs(key: [u8; 32], data in proptest::collection::vec(any::<u8>(), 0..200)) {
            prop_assert_eq!(Poly1305::mac(&key, &data), Poly26::mac(&key, &data));
        }

        #[test]
        fn saturated_inputs_match_26_bit_limbs(r_and_s: [u8; 32], blocks in 1usize..20, len_cut in 0usize..16) {
            // All-ones messages and a maximal r keep every limb near its
            // bound, where a carry slip would show: up to four quads, whose
            // unreduced four-product sums are the widest, plus a remainder.
            let mut key = r_and_s;
            key[..16].fill(0xff);
            let data = vec![0xffu8; blocks * 16 - len_cut];
            prop_assert_eq!(Poly1305::mac(&key, &data), Poly26::mac(&key, &data));
        }

        #[test]
        fn message_change_changes_tag(key: [u8; 32], mut data in proptest::collection::vec(any::<u8>(), 1..64), flip in 0usize..64) {
            let orig = Poly1305::mac(&key, &data);
            let idx = flip % data.len();
            data[idx] ^= 1;
            prop_assert_ne!(Poly1305::mac(&key, &data), orig);
        }
    }
}
