//! A small arbitrary-precision unsigned integer.
//!
//! The test oracle where fixed-width arithmetic is awkward: it recomputes
//! the SHA-2 constant tables from the fractional parts of prime roots, and
//! the fixed-limb Curve25519 field and scalar kernels are checked against
//! it. It is compiled for tests only.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer stored as little-endian `u64`
/// limbs with no trailing zero limbs (canonical form; zero is an empty limb
/// vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub(crate) struct BigUint {
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", crate::hex::encode(self.to_bytes_be()))
    }
}

impl BigUint {
    /// The value zero.
    #[must_use]
    pub(crate) fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    #[must_use]
    pub(crate) fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// Constructs from a single machine word.
    #[must_use]
    pub(crate) fn from_u64(v: u64) -> Self {
        let mut n = BigUint { limbs: vec![v] };
        n.normalize();
        n
    }

    /// Constructs from big-endian bytes.
    #[must_use]
    pub(crate) fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut le: Vec<u8> = bytes.to_vec();
        le.reverse();
        Self::from_bytes_le(&le)
    }

    /// Constructs from little-endian bytes.
    #[must_use]
    pub(crate) fn from_bytes_le(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.chunks(8) {
            let mut limb = [0u8; 8];
            limb[..chunk.len()].copy_from_slice(chunk);
            limbs.push(u64::from_le_bytes(limb));
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for zero).
    #[must_use]
    pub(crate) fn to_bytes_be(&self) -> Vec<u8> {
        let mut v = self.to_bytes_le();
        v.reverse();
        v
    }

    /// Serializes to little-endian bytes with no trailing zeros.
    #[must_use]
    pub(crate) fn to_bytes_le(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in &self.limbs {
            out.extend_from_slice(&l.to_le_bytes());
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Serializes to exactly `n` little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `n` bytes.
    #[must_use]
    pub(crate) fn to_bytes_le_padded(&self, n: usize) -> Vec<u8> {
        let mut v = self.to_bytes_le();
        assert!(v.len() <= n, "value does not fit in {n} bytes");
        v.resize(n, 0);
        v
    }

    /// Returns `true` when the value is zero.
    #[must_use]
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub(crate) fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit numbering).
    #[must_use]
    pub(crate) fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Sum of `self` and `other`.
    #[must_use]
    pub(crate) fn add(&self, other: &BigUint) -> BigUint {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let a = *self.limbs.get(i).unwrap_or(&0);
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (this type is unsigned).
    #[must_use]
    pub(crate) fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Product of `self` and `other` (schoolbook; fine at these sizes).
    #[must_use]
    pub(crate) fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = u128::from(out[k]) + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `n` bits.
    #[must_use]
    pub(crate) fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        let mut out = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            out[i + limb_shift] |= l << bit_shift;
            if bit_shift != 0 {
                out[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `n` bits.
    #[must_use]
    pub(crate) fn shr(&self, n: usize) -> BigUint {
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() - limb_shift];
        for (i, o) in out.iter_mut().enumerate() {
            let lo = self.limbs[i + limb_shift] >> bit_shift;
            let hi = if bit_shift != 0 && i + limb_shift + 1 < self.limbs.len() {
                self.limbs[i + limb_shift + 1] << (64 - bit_shift)
            } else {
                0
            };
            *o = lo | hi;
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Quotient and remainder of `self / divisor` (bitwise long division).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub(crate) fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let shift = self.bit_len() - divisor.bit_len();
        let mut remainder = self.clone();
        let mut quotient = BigUint::zero();
        let mut shifted = divisor.shl(shift);
        for i in (0..=shift).rev() {
            if remainder >= shifted {
                remainder = remainder.sub(&shifted);
                quotient = quotient.add(&BigUint::one().shl(i));
            }
            shifted = shifted.shr(1);
        }
        (quotient, remainder)
    }

    /// `self mod modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    #[must_use]
    pub(crate) fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self + other) mod modulus`; inputs must already be reduced.
    #[must_use]
    pub(crate) fn add_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        let s = self.add(other);
        if &s >= modulus {
            s.sub(modulus)
        } else {
            s
        }
    }

    /// `(self * other) mod modulus`.
    #[must_use]
    pub(crate) fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_le(&v.to_le_bytes())
    }

    #[test]
    fn zero_is_canonical() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
        assert_eq!(BigUint::zero().bit_len(), 0);
    }

    #[test]
    fn add_sub_roundtrip_small() {
        let a = big(0xffff_ffff_ffff_ffff_ffff);
        let b = big(0x1_0000_0000);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_crosses_limb_boundary() {
        let a = BigUint::from_u64(u64::MAX);
        let sq = a.mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expect = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn div_rem_exact_and_inexact() {
        let a = big(1_000_000_007u128 * 97 + 13);
        let d = big(1_000_000_007);
        let (q, r) = a.div_rem(&d);
        assert_eq!(q, big(97));
        assert_eq!(r, big(13));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::one().sub(&big(2));
    }

    #[test]
    fn bytes_roundtrip_be_le() {
        let n = BigUint::from_bytes_be(&[0x12, 0x34, 0x56]);
        assert_eq!(n.to_bytes_be(), vec![0x12, 0x34, 0x56]);
        assert_eq!(n.to_bytes_le(), vec![0x56, 0x34, 0x12]);
    }

    #[test]
    fn shift_inverse() {
        let n = big(0x0123_4567_89ab_cdef_fedc_ba98);
        assert_eq!(n.shl(67).shr(67), n);
    }

    #[test]
    fn bit_indexing() {
        let n = BigUint::one().shl(100);
        assert!(n.bit(100));
        assert!(!n.bit(99));
        assert!(!n.bit(101));
        assert_eq!(n.bit_len(), 101);
    }

    proptest! {
        #[test]
        fn add_commutes(a in any::<u128>(), b in any::<u128>()) {
            prop_assert_eq!(big(a).add(&big(b)), big(b).add(&big(a)));
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let expect = big(u128::from(a) * u128::from(b));
            prop_assert_eq!(BigUint::from_u64(a).mul(&BigUint::from_u64(b)), expect);
        }

        #[test]
        fn div_rem_reconstructs(a in any::<u128>(), d in 1u128..) {
            let (q, r) = big(a).div_rem(&big(d));
            prop_assert!(r < big(d));
            prop_assert_eq!(q.mul(&big(d)).add(&r), big(a));
        }

        #[test]
        fn bytes_le_roundtrip(bytes: Vec<u8>) {
            let n = BigUint::from_bytes_le(&bytes);
            let mut trimmed = bytes.clone();
            while trimmed.last() == Some(&0) { trimmed.pop(); }
            prop_assert_eq!(n.to_bytes_le(), trimmed);
        }

        #[test]
        fn ordering_matches_byte_interpretation(a in any::<u128>(), b in any::<u128>()) {
            prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
        }
    }
}
