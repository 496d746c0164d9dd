//! Arithmetic in GF(2^255 - 19), the base field of Curve25519.
//!
//! Elements are five 51-bit limbs (`u64` each, products in `u128`). The
//! field backs both [`crate::ed25519`] (twisted Edwards form) and
//! [`crate::x25519`] (Montgomery form). Everything runs on the limbs:
//! multiplication (25 wide products), a dedicated squaring (15) and a
//! multiplication by a small constant (5), inversion and the square-root
//! exponent through the standard `2^250 − 1` addition chain (at most 254
//! squarings and 11 multiplications), one inversion for a whole batch,
//! and a canonical encoding that subtracts `p` at most once, so equality
//! and sign tests cost nanoseconds.
//!
//! # Limb bounds
//!
//! Every operation but [`FieldElement::add`] returns limbs below 2^52:
//! the products and [`FieldElement::sub`] end in a carry pass. `add` does
//! not carry, so a sum of two such elements has limbs below 2^53, and a
//! sum of that with one more below 2^54. `mul`, `square` and `mul_small`
//! accept limbs below 2^54, and `sub` a right-hand side up to 2^55 − 304;
//! the curve formulas stay inside these bounds (at most one sum of
//! a sum feeds a product), and the argument for each bound sits on the
//! operation.

use std::sync::OnceLock;

const LOW_51_BIT_MASK: u64 = (1u64 << 51) - 1;

/// An element of GF(2^255 - 19).
///
/// Internal limbs are kept loosely reduced (< 2^52); [`FieldElement::to_bytes`]
/// produces the canonical encoding.
#[derive(Clone, Copy)]
pub struct FieldElement(pub(crate) [u64; 5]);

impl std::fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FieldElement(0x{})", crate::hex::encode(self.to_bytes()))
    }
}

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for FieldElement {}

/// Little-endian bytes of five `bits`-wide limbs, each `< 2^bits`; bits past
/// the 256th are dropped. Shared with the radix-2^52 scalar encoding.
pub(crate) fn limbs_to_bytes(limbs: &[u64; 5], bits: usize) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, byte) in out.iter_mut().enumerate() {
        let (k, shift) = (8 * i / bits, 8 * i % bits);
        let mut v = limbs[k] >> shift;
        if shift + 8 > bits && k + 1 < limbs.len() {
            v |= limbs[k + 1] << (bits - shift);
        }
        *byte = v as u8;
    }
    out
}

impl FieldElement {
    /// The additive identity.
    #[must_use]
    pub fn zero() -> Self {
        FieldElement([0; 5])
    }

    /// The multiplicative identity.
    #[must_use]
    pub fn one() -> Self {
        FieldElement([1, 0, 0, 0, 0])
    }

    /// Constructs an element from a small integer.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        FieldElement([v & LOW_51_BIT_MASK, v >> 51, 0, 0, 0])
    }

    /// Decodes 32 little-endian bytes, ignoring the top bit (values are
    /// interpreted mod p, matching RFC 7748 / RFC 8032 decoding).
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        let load = |b: &[u8]| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&b[..8]);
            u64::from_le_bytes(v)
        };
        FieldElement([
            load(&bytes[0..8]) & LOW_51_BIT_MASK,
            (load(&bytes[6..14]) >> 3) & LOW_51_BIT_MASK,
            (load(&bytes[12..20]) >> 6) & LOW_51_BIT_MASK,
            (load(&bytes[19..27]) >> 1) & LOW_51_BIT_MASK,
            (load(&bytes[24..32]) >> 12) & LOW_51_BIT_MASK,
        ])
    }

    /// Canonical 32-byte little-endian encoding (fully reduced mod p).
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        // Carry every limb under 2^51, folding the top carry back in as ×19:
        // now h < 2p, so h mod p is h − q·p with q = ⌊(h + 19) / 2^255⌋,
        // which the carry chain of h + 19 yields without touching h.
        let mut h = self.0;
        let carries = h.map(|l| l >> 51);
        for l in &mut h {
            *l &= LOW_51_BIT_MASK;
        }
        h[0] += carries[4] * 19;
        for i in 1..5 {
            h[i] += carries[i - 1];
        }
        let mut q = (h[0] + 19) >> 51;
        for &l in &h[1..] {
            q = (l + q) >> 51;
        }
        // h − q·p = h + 19q − q·2^255: add 19q, carry, drop bit 255.
        h[0] += 19 * q;
        for i in 0..4 {
            h[i + 1] += h[i] >> 51;
            h[i] &= LOW_51_BIT_MASK;
        }
        h[4] &= LOW_51_BIT_MASK;
        limbs_to_bytes(&h, 51)
    }

    /// Carry-propagates limbs back under 2^52.
    fn weak_reduce(mut self) -> Self {
        let mut carry: u64 = 0;
        for i in 0..5 {
            let v = self.0[i] + carry;
            self.0[i] = v & LOW_51_BIT_MASK;
            carry = v >> 51;
        }
        self.0[0] += carry * 19;
        self
    }

    /// Field addition, limb by limb with no carry pass: inputs below
    /// 2^k give limbs below 2^(k+1). Callers keep the sum within the
    /// bounds of whatever consumes it (see the module docs); the carry
    /// happens in the product or difference that does.
    #[must_use]
    pub fn add(&self, rhs: &FieldElement) -> FieldElement {
        FieldElement(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }

    /// Field subtraction: `self + 16p − rhs`, then one carry pass.
    ///
    /// The 16p bias (limbs 2^55 − 304 and 2^55 − 16) covers any `rhs`
    /// with limbs up to 2^55 − 304 without underflow, which includes a sum
    /// of sums (below 2^54); `self` below 2^54 keeps `self + 16p` under
    /// 2^56. The carry pass then
    /// brings every limb under 2^51, plus at most 19·2^5 on the lowest.
    #[must_use]
    pub fn sub(&self, rhs: &FieldElement) -> FieldElement {
        const SIXTEEN_P: [u64; 5] = [
            0x7f_ffff_ffff_fed0, // 16*(2^51 - 19)
            0x7f_ffff_ffff_fff0, // 16*(2^51 - 1)
            0x7f_ffff_ffff_fff0,
            0x7f_ffff_ffff_fff0,
            0x7f_ffff_ffff_fff0,
        ];
        FieldElement(std::array::from_fn(|i| self.0[i] + SIXTEEN_P[i] - rhs.0[i])).weak_reduce()
    }

    /// Field negation.
    #[must_use]
    pub fn neg(&self) -> FieldElement {
        FieldElement::zero().sub(self)
    }

    /// Field multiplication. Inputs below 2^54 keep every `b[i]·19`
    /// under 2^59 and every column under 2^115; the top column, which has
    /// no ×19 terms, stays under 5·2^108 < 2^110.4, as
    /// the private `carry_wide` needs.
    #[must_use]
    pub fn mul(&self, rhs: &FieldElement) -> FieldElement {
        let a = &self.0;
        let b = &rhs.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        let c0 = m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19);
        let c1 = m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19);
        let c2 = m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3_19) + m(a[3], b4_19);
        let c3 = m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4_19);
        let c4 = m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]);

        FieldElement::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Carries 128-bit limb sums (the product columns) back to five limbs
    /// under 2^52. Needs the top column below 2^110.4 (after the carry in
    /// from below), so that its carry out, under 2^59.4, folds back into
    /// the low limb as ×19 below 2^64; the final carry leaves limb 1 below
    /// 2^51 + 2^13.
    fn carry_wide(c: [u128; 5]) -> FieldElement {
        let [c0, mut c1, mut c2, mut c3, mut c4] = c;
        let mut out = [0u64; 5];
        c1 += c0 >> 51;
        out[0] = (c0 as u64) & LOW_51_BIT_MASK;
        c2 += c1 >> 51;
        out[1] = (c1 as u64) & LOW_51_BIT_MASK;
        c3 += c2 >> 51;
        out[2] = (c2 as u64) & LOW_51_BIT_MASK;
        c4 += c3 >> 51;
        out[3] = (c3 as u64) & LOW_51_BIT_MASK;
        let carry = (c4 >> 51) as u64;
        out[4] = (c4 as u64) & LOW_51_BIT_MASK;
        out[0] += carry * 19;
        let carry = out[0] >> 51;
        out[0] &= LOW_51_BIT_MASK;
        out[1] += carry;
        FieldElement(out)
    }

    /// Field squaring: the 10 cross products are computed once and doubled,
    /// 15 wide products against `mul`'s 25. The bounds are `mul`'s.
    #[must_use]
    pub fn square(&self) -> FieldElement {
        let a = &self.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let (d0, d1, d2) = (2 * a[0], 2 * a[1], 2 * a[2]);
        FieldElement::carry_wide([
            m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19),
            m(a[3], a3_19) + m(d0, a[1]) + m(d2, a4_19),
            m(a[1], a[1]) + m(d0, a[2]) + m(2 * a[3], a4_19),
            m(a[4], a4_19) + m(d0, a[3]) + m(d1, a[2]),
            m(a[2], a[2]) + m(d0, a[4]) + m(d1, a[3]),
        ])
    }

    /// `self · k` for a small constant: five wide products instead of
    /// `mul`'s 25. Limbs below 2^54 times `k < 2^32` keep every column
    /// under 2^86.
    #[must_use]
    pub fn mul_small(&self, k: u32) -> FieldElement {
        let k = u128::from(k);
        FieldElement::carry_wide(self.0.map(|l| u128::from(l) * k))
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn pow2k(&self, k: u32) -> FieldElement {
        let mut x = *self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// The shared head of the inversion and square-root chains:
    /// `(self^(2^250 − 1), self^11)` in 249 squarings and 10 multiplications.
    fn pow22501(&self) -> (FieldElement, FieldElement) {
        let t2 = self.square(); // 2
        let t9 = t2.pow2k(2).mul(self); // 9
        let t11 = t9.mul(&t2); // 11
        let t5 = t11.square().mul(&t9); // 2^5 − 1
        let t10 = t5.pow2k(5).mul(&t5); // 2^10 − 1
        let t20 = t10.pow2k(10).mul(&t10); // 2^20 − 1
        let t40 = t20.pow2k(20).mul(&t20); // 2^40 − 1
        let t50 = t40.pow2k(10).mul(&t10); // 2^50 − 1
        let t100 = t50.pow2k(50).mul(&t50); // 2^100 − 1
        let t200 = t100.pow2k(100).mul(&t100); // 2^200 − 1
        let t250 = t200.pow2k(50).mul(&t50); // 2^250 − 1
        (t250, t11)
    }

    /// Multiplicative inverse (returns zero for zero): `self^(p − 2)`,
    /// with `p − 2 = (2^250 − 1)·2^5 + 11`.
    #[must_use]
    pub fn invert(&self) -> FieldElement {
        let (t250, t11) = self.pow22501();
        t250.pow2k(5).mul(&t11)
    }

    /// x^((p-5)/8), the core of the square-root computation:
    /// `(p − 5)/8 = (2^250 − 1)·2^2 + 1`.
    #[must_use]
    pub fn pow_p58(&self) -> FieldElement {
        let (t250, _) = self.pow22501();
        t250.pow2k(2).mul(self)
    }

    /// `true` when the canonical encoding is odd (the "sign" bit used in
    /// point compression).
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// `true` when the element is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }
}

/// Inverts every element of `elements` in place with one field inversion
/// (Montgomery's trick: prefix products, one inversion, then a backward
/// pass), `3(n − 1)` multiplications in all. Every element must be
/// nonzero; a zero makes every output zero.
pub(crate) fn batch_invert(elements: &mut [FieldElement]) {
    let mut prefix = Vec::with_capacity(elements.len());
    let mut acc = FieldElement::one();
    for e in elements.iter() {
        prefix.push(acc);
        acc = acc.mul(e);
    }
    let mut inv = acc.invert();
    for (e, before) in elements.iter_mut().zip(prefix).rev() {
        let next = inv.mul(e);
        *e = inv.mul(&before);
        inv = next;
    }
}

/// sqrt(-1) mod p.
#[must_use]
pub fn sqrt_m1() -> FieldElement {
    static V: OnceLock<FieldElement> = OnceLock::new();
    *V.get_or_init(|| {
        // 2 is a non-square (p ≡ 5 mod 8), so 2^((p-1)/4) squares to -1;
        // (p-1)/4 = 2·(p-5)/8 + 1.
        let two = FieldElement::from_u64(2);
        two.pow_p58().square().mul(&two)
    })
}

/// The twisted Edwards curve constant d = -121665/121666 mod p.
#[must_use]
pub fn edwards_d() -> FieldElement {
    static V: OnceLock<FieldElement> = OnceLock::new();
    *V.get_or_init(|| {
        FieldElement::from_u64(121_665)
            .neg()
            .mul(&FieldElement::from_u64(121_666).invert())
    })
}

/// Computes `sqrt(u/v)` when it exists.
///
/// Returns `(true, x)` with `x² · v = u` (the non-negative root), or
/// `(false, _)` when `u/v` is not a square. Used by Ed25519 point
/// decompression (RFC 8032 §5.1.3).
#[must_use]
pub fn sqrt_ratio(u: &FieldElement, v: &FieldElement) -> (bool, FieldElement) {
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
    let vxx = x.square().mul(v);
    let correct = vxx == *u;
    let flipped = vxx == u.neg();
    if flipped {
        x = x.mul(&sqrt_m1());
    }
    if x.is_negative() {
        x = x.neg();
    }
    (correct || flipped, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;
    use proptest::prelude::*;

    /// The oracle: p = 2^255 − 19 as a [`BigUint`].
    fn prime() -> BigUint {
        BigUint::one().shl(255).sub(&BigUint::from_u64(19))
    }

    /// The integer the limbs spell, `Σ limbs[i]·2^(51·i)`, not reduced.
    fn limbs_value(limbs: &[u64; 5]) -> BigUint {
        limbs
            .iter()
            .enumerate()
            .fold(BigUint::zero(), |acc, (i, &l)| {
                acc.add(&BigUint::from_u64(l).shl(51 * i))
            })
    }

    fn oracle_bytes(n: &BigUint) -> [u8; 32] {
        let mut out = [0u8; 32];
        out.copy_from_slice(&n.rem(&prime()).to_bytes_le_padded(32));
        out
    }

    /// Plain square-and-multiply `x^e mod p` over [`BigUint`].
    fn oracle_pow(x: &BigUint, e: &BigUint) -> BigUint {
        let p = prime();
        let mut acc = BigUint::one();
        for i in (0..e.bit_len()).rev() {
            acc = acc.mul_mod(&acc, &p);
            if e.bit(i) {
                acc = acc.mul_mod(x, &p);
            }
        }
        acc
    }

    fn element(bytes: [u8; 32]) -> FieldElement {
        let mut bytes = bytes;
        bytes[31] &= 0x7f;
        FieldElement::from_bytes(&bytes)
    }

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    #[test]
    fn add_sub_identities() {
        let a = fe(12345);
        assert_eq!(a.add(&FieldElement::zero()), a);
        assert_eq!(a.sub(&a), FieldElement::zero());
        assert_eq!(a.neg().add(&a), FieldElement::zero());
    }

    #[test]
    fn mul_matches_small_integers() {
        assert_eq!(fe(7).mul(&fe(9)), fe(63));
        assert_eq!(fe(1 << 30).mul(&fe(1 << 30)), {
            // 2^60 spans a limb boundary.
            let mut expect = FieldElement::zero();
            expect.0[1] = 1 << 9;
            expect
        });
    }

    #[test]
    fn reduction_wraps_p_to_zero() {
        // p ≡ 0: encode p via limbs = (2^51-19, 2^51-1, ..., 2^51-1).
        let p = FieldElement([
            (1u64 << 51) - 19,
            (1u64 << 51) - 1,
            (1u64 << 51) - 1,
            (1u64 << 51) - 1,
            (1u64 << 51) - 1,
        ]);
        assert_eq!(p.to_bytes(), [0u8; 32]);
        assert_eq!(p.add(&fe(5)), fe(5));
    }

    #[test]
    fn invert_small_values() {
        for v in [1u64, 2, 3, 121_666, 0xffff_ffff] {
            let x = fe(v);
            assert_eq!(x.mul(&x.invert()), FieldElement::one(), "inverse of {v}");
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = sqrt_m1();
        assert_eq!(i.square(), FieldElement::one().neg());
    }

    #[test]
    fn edwards_d_satisfies_definition() {
        // d * 121666 == -121665
        assert_eq!(edwards_d().mul(&fe(121_666)), fe(121_665).neg());
    }

    #[test]
    fn sqrt_ratio_perfect_square() {
        let u = fe(4);
        let v = fe(1);
        let (ok, x) = sqrt_ratio(&u, &v);
        assert!(ok);
        assert_eq!(x.square(), u);
    }

    #[test]
    fn sqrt_ratio_non_square() {
        // 2 is a non-square mod p (p ≡ 5 mod 8).
        let (ok, _) = sqrt_ratio(&fe(2), &FieldElement::one());
        assert!(!ok);
    }

    #[test]
    fn to_bytes_reduces_the_edge_values() {
        let top = (1u64 << 51) - 1;
        let loose = (1u64 << 52) - 1;
        for limbs in [
            [top - 18, top, top, top, top],                           // p
            [top - 17, top, top, top, top],                           // p + 1
            [top - 19, top, top, top, top],                           // p − 1
            [loose - 38, loose - 1, loose - 1, loose - 1, loose - 1], // 2p − 1
            [loose; 5],                                               // largest loose
            [0; 5],
        ] {
            assert_eq!(
                FieldElement(limbs).to_bytes(),
                oracle_bytes(&limbs_value(&limbs)),
                "{limbs:x?}"
            );
        }
    }

    #[test]
    fn constants_match_their_definitions() {
        let p = prime();
        // sqrt(−1) = 2^((p−1)/4).
        let e = p.sub(&BigUint::one()).shr(2);
        assert_eq!(
            sqrt_m1().to_bytes(),
            oracle_bytes(&oracle_pow(&BigUint::from_u64(2), &e))
        );
        // d = −121665 · 121666^(p−2).
        let inv = oracle_pow(&BigUint::from_u64(121_666), &p.sub(&BigUint::from_u64(2)));
        let d = p.sub(&BigUint::from_u64(121_665).mul_mod(&inv, &p));
        assert_eq!(edwards_d().to_bytes(), oracle_bytes(&d));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        bytes[31] &= 0x7f;
        let x = FieldElement::from_bytes(&bytes);
        assert_eq!(x.to_bytes(), bytes);
    }

    proptest! {
        #[test]
        fn mul_commutes(a: u64, b: u64) {
            prop_assert_eq!(fe(a).mul(&fe(b)), fe(b).mul(&fe(a)));
        }

        #[test]
        fn distributive(a: u64, b: u64, c: u64) {
            let lhs = fe(a).mul(&fe(b).add(&fe(c)));
            let rhs = fe(a).mul(&fe(b)).add(&fe(a).mul(&fe(c)));
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn invert_roundtrips(bytes: [u8; 32]) {
            let mut bytes = bytes;
            bytes[31] &= 0x7f;
            let x = FieldElement::from_bytes(&bytes);
            prop_assume!(!x.is_zero());
            prop_assert_eq!(x.mul(&x.invert()), FieldElement::one());
        }

        #[test]
        fn square_matches_mul(limbs in prop::collection::vec(0u64..1 << 52, 5)) {
            // Any loosely reduced element, not only freshly decoded ones.
            let x = FieldElement(std::array::from_fn(|i| limbs[i]));
            prop_assert_eq!(x.square(), x.mul(&x));
        }

        #[test]
        fn to_bytes_matches_oracle_on_loose_limbs(limbs in prop::collection::vec(0u64..1 << 52, 5)) {
            let limbs: [u64; 5] = std::array::from_fn(|i| limbs[i]);
            prop_assert_eq!(
                FieldElement(limbs).to_bytes(),
                oracle_bytes(&limbs_value(&limbs))
            );
        }
    }

    #[test]
    fn batch_invert_matches_one_inversion_each() {
        let values: Vec<FieldElement> = [1u64, 2, 9, 121_666, u64::MAX]
            .iter()
            .map(|&v| fe(v).mul(&fe(v ^ 0x5555)))
            .collect();
        let mut inverted = values.clone();
        batch_invert(&mut inverted);
        for (v, inv) in values.iter().zip(&inverted) {
            assert_eq!(*inv, v.invert());
        }
        let mut empty: [FieldElement; 0] = [];
        batch_invert(&mut empty);
    }

    /// Five limbs below `2^bits`: the inputs an operation accepts.
    fn loose(bits: u32) -> prop::collection::VecStrategy<std::ops::Range<u64>> {
        prop::collection::vec(0u64..1 << bits, 5)
    }

    fn limbs(v: &[u64]) -> [u64; 5] {
        std::array::from_fn(|i| v[i])
    }

    proptest! {
        #[test]
        fn products_match_the_oracle_up_to_their_input_bound(a in loose(54), b in loose(54)) {
            let (a, b) = (limbs(&a), limbs(&b));
            let (x, y) = (FieldElement(a), FieldElement(b));
            let product = limbs_value(&a).mul(&limbs_value(&b));
            prop_assert_eq!(x.mul(&y).to_bytes(), oracle_bytes(&product));
            prop_assert_eq!(x.square().to_bytes(), oracle_bytes(&limbs_value(&a).mul(&limbs_value(&a))));
            prop_assert!(x.mul(&y).0.iter().all(|&l| l < 1 << 52));
        }

        #[test]
        fn mul_small_matches_mul(a in loose(54), k: u32) {
            let x = FieldElement(limbs(&a));
            let product = x.mul_small(k);
            prop_assert_eq!(product, x.mul(&FieldElement::from_u64(u64::from(k))));
            prop_assert!(product.0.iter().all(|&l| l < 1 << 52));
        }

        #[test]
        fn carry_free_add_and_biased_sub_match_the_oracle(
            a in loose(53),
            b in loose(53),
            c in loose(54),
        ) {
            // A sum of sums (limbs below 2^54) is the largest right-hand
            // side the curve formulas hand `sub`.
            let (a, b, c) = (limbs(&a), limbs(&b), limbs(&c));
            let sum = FieldElement(a).add(&FieldElement(b));
            let sum_value = limbs_value(&a).add(&limbs_value(&b));
            prop_assert_eq!(sum.to_bytes(), oracle_bytes(&sum_value));
            let diff = FieldElement(c).sub(&sum);
            let biased = limbs_value(&c).add(&prime().shl(4)).sub(&sum_value);
            prop_assert_eq!(diff.to_bytes(), oracle_bytes(&biased));
            prop_assert!(diff.0.iter().all(|&l| l < 1 << 52));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn invert_and_pow_p58_match_plain_exponentiation(bytes: [u8; 32]) {
            let x = element(bytes);
            let p = prime();
            let xv = BigUint::from_bytes_le(&x.to_bytes());
            let inv = oracle_pow(&xv, &p.sub(&BigUint::from_u64(2)));
            prop_assert_eq!(x.invert().to_bytes(), oracle_bytes(&inv));
            let p58 = oracle_pow(&xv, &p.sub(&BigUint::from_u64(5)).shr(3));
            prop_assert_eq!(x.pow_p58().to_bytes(), oracle_bytes(&p58));
        }
    }
}
