//! Ed25519 signatures (RFC 8032).
//!
//! In this reproduction Ed25519 stands in for every signature the real
//! system uses: the AMD VCEK's ECDSA-P384 over attestation reports, the CA
//! signatures over certificate chains, and the per-VM identity keys. The
//! substitution is documented in `DESIGN.md`; what matters to Revelio is
//! *what is signed and who holds the key*, not the curve.
//!
//! # Kernels
//!
//! Points leave every public function in extended coordinates
//! `(X : Y : Z : T)`; inside, the kernels carry each value in the
//! cheapest form its next use allows:
//!
//! * An addition or doubling stops at a completed point. It is finished
//!   to extended coordinates (four multiplications) only when an addition
//!   comes next, and otherwise to `(X : Y : Z)` (three), which a doubling
//!   needs no `T` for.
//! * Addends are cached with `Y+X`, `Y−X` and `2d·T` precomputed (Niels
//!   form), so the curve constant is paid once per table entry, not once
//!   per addition. Straus tables hold projective Niels points
//!   `(Y+X, Y−X, Z, 2d·T)`; the fixed-base table holds affine Niels
//!   points `(y+x, y−x, 2d·xy)`, normalised to `Z = 1` by one batched
//!   inversion when the table is built.
//! * `[s]B` (signing, key generation) walks that table with 64
//!   branch-free selects over all 8 entries of a row and 64 additions of
//!   seven multiplications each. Verification and batch verification run
//!   Straus over w=5 NAF digits: one shared doubling chain and one
//!   eight-multiplication addition per nonzero digit.

use std::sync::OnceLock;

use crate::field25519::{batch_invert, edwards_d, limbs_to_bytes, sqrt_ratio, FieldElement};
use crate::metrics;
use crate::sha2::Sha512;
use crate::CryptoError;

/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a public key in bytes.
pub(crate) const PUBLIC_KEY_LEN: usize = 32;
/// Length of a secret seed in bytes.
pub(crate) const SEED_LEN: usize = 32;

const LOW_52_BIT_MASK: u64 = (1u64 << 52) - 1;

/// Little-endian 64-bit words of `bytes` (missing bytes read as zero).
fn words_le<const N: usize>(bytes: &[u8]) -> [u64; N] {
    let mut words = [0u64; N];
    for (word, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
        *word = chunk
            .iter()
            .rev()
            .fold(0, |acc, &b| (acc << 8) | u64::from(b));
    }
    words
}

/// Bits `[52·k, 52·k + 52)` of a little-endian word string.
fn limb52(words: &[u64], k: usize) -> u64 {
    let (w, shift) = (52 * k / 64, 52 * k % 64);
    let lo = words.get(w).map_or(0, |x| x >> shift);
    let hi = match words.get(w + 1) {
        Some(x) if shift > 12 => x << (64 - shift),
        _ => 0,
    };
    (lo | hi) & LOW_52_BIT_MASK
}

/// The two 32-byte halves of a 64-byte string (`R || S`, or a hash).
fn halves(bytes: &[u8; 64]) -> ([u8; 32], [u8; 32]) {
    (
        std::array::from_fn(|i| bytes[i]),
        std::array::from_fn(|i| bytes[32 + i]),
    )
}

/// A value in radix 2^52 (five limbs, each `< 2^52`): the working form of
/// the Montgomery kernel behind [`Scalar`], with `R = 2^260`.
#[derive(Clone, Copy)]
struct Scalar52([u64; 5]);

impl Scalar52 {
    /// The group order L = 2^252 + 27742317777372353535851937790883648493.
    const L: Scalar52 = Scalar52([
        0x0002_631a_5cf5_d3ed,
        0x000d_ea2f_79cd_6581,
        0x0000_0000_0014_def9,
        0,
        0x0000_1000_0000_0000,
    ]);
    /// `−L⁻¹ mod 2^52`: the per-round Montgomery quotient factor.
    const LFACTOR: u64 = 0x0005_1da3_1254_7e1b;
    /// `R mod L = 2^260 mod L`.
    const R: Scalar52 = Scalar52([
        0x000f_48bd_6721_e6ed,
        0x0003_bab5_ac67_e45a,
        0x000f_ffff_eb35_e51b,
        0x000f_ffff_ffff_ffff,
        0x0000_0fff_ffff_ffff,
    ]);
    /// `R² mod L`.
    const RR: Scalar52 = Scalar52([
        0x0009_d265_e952_d13b,
        0x000d_63c7_15be_a69f,
        0x0005_be65_cb68_7604,
        0x0003_dcee_c73d_217f,
        0x0000_0941_1b7c_309a,
    ]);

    /// Unpacks 32 little-endian bytes (any 256-bit value).
    fn from_bytes(bytes: &[u8; 32]) -> Scalar52 {
        let words: [u64; 4] = words_le(bytes);
        Scalar52(std::array::from_fn(|k| limb52(&words, k)))
    }

    /// `a + b mod L` for `a, b < L`.
    fn add(a: &Scalar52, b: &Scalar52) -> Scalar52 {
        let mut sum = [0u64; 5];
        let mut carry = 0u64;
        for (s, (x, y)) in sum.iter_mut().zip(a.0.iter().zip(&b.0)) {
            carry = x + y + (carry >> 52);
            *s = carry & LOW_52_BIT_MASK;
        }
        Scalar52::sub(&Scalar52(sum), &Scalar52::L)
    }

    /// `a − b mod L` for `−L < a − b < L`: subtract with borrow, then add
    /// `L` back under a mask when the difference went negative.
    fn sub(a: &Scalar52, b: &Scalar52) -> Scalar52 {
        let mut diff = [0u64; 5];
        let mut borrow = 0u64;
        for (d, (x, y)) in diff.iter_mut().zip(a.0.iter().zip(&b.0)) {
            borrow = x.wrapping_sub(y + (borrow >> 63));
            *d = borrow & LOW_52_BIT_MASK;
        }
        let underflow = (borrow >> 63).wrapping_neg();
        let mut carry = 0u64;
        for (d, l) in diff.iter_mut().zip(&Scalar52::L.0) {
            carry = (carry >> 52) + *d + (l & underflow);
            *d = carry & LOW_52_BIT_MASK;
        }
        Scalar52(diff)
    }

    /// The schoolbook product `a·b` as nine 128-bit columns.
    fn mul_internal(a: &Scalar52, b: &Scalar52) -> [u128; 9] {
        let mut t = [0u128; 9];
        for (i, &x) in a.0.iter().enumerate() {
            for (j, &y) in b.0.iter().enumerate() {
                t[i + j] += u128::from(x) * u128::from(y);
            }
        }
        t
    }

    /// `t / R mod L` for `t < L·R`: five rounds each add the multiple of
    /// `L` that clears the low limb, then the top five columns, one
    /// conditional subtraction of `L` away from canonical, are the result.
    fn montgomery_reduce(mut t: [u128; 9]) -> Scalar52 {
        for i in 0..5 {
            let n = (t[i] as u64).wrapping_mul(Scalar52::LFACTOR) & LOW_52_BIT_MASK;
            for (j, &l) in Scalar52::L.0.iter().enumerate() {
                t[i + j] += u128::from(n) * u128::from(l);
            }
            t[i + 1] += t[i] >> 52;
        }
        let mut r = [0u64; 5];
        let mut carry = 0u128;
        for (limb, &column) in r.iter_mut().zip(&t[5..]) {
            carry += column;
            *limb = (carry as u64) & LOW_52_BIT_MASK;
            carry >>= 52;
        }
        r[4] += carry as u64;
        Scalar52::sub(&Scalar52(r), &Scalar52::L)
    }

    /// `a·b / R mod L`.
    fn montgomery_mul(a: &Scalar52, b: &Scalar52) -> Scalar52 {
        Scalar52::montgomery_reduce(Scalar52::mul_internal(a, b))
    }
}

/// A scalar modulo the Ed25519 group order L, held as its canonical
/// 32-byte little-endian encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Scalar([u8; 32]);

impl Scalar {
    const ZERO: Scalar = Scalar([0; 32]);
    const ONE: Scalar = {
        let mut bytes = [0u8; 32];
        bytes[0] = 1;
        Scalar(bytes)
    };

    fn from_limbs(s: Scalar52) -> Scalar {
        Scalar(limbs_to_bytes(&s.0, 52))
    }

    fn limbs(&self) -> Scalar52 {
        Scalar52::from_bytes(&self.0)
    }

    /// Reduces 64 bytes (little-endian) modulo L — used for hash outputs.
    #[must_use]
    pub(crate) fn from_bytes_wide(bytes: &[u8; 64]) -> Self {
        // Split at bit 260: x = lo + hi·R, and
        // lo·R/R + hi·R²/R = lo + hi·R (mod L).
        let words: [u64; 8] = words_le(bytes);
        let lo = Scalar52(std::array::from_fn(|k| limb52(&words, k)));
        let hi = Scalar52(std::array::from_fn(|k| limb52(&words, k + 5)));
        Scalar::from_limbs(Scalar52::add(
            &Scalar52::montgomery_mul(&lo, &Scalar52::R),
            &Scalar52::montgomery_mul(&hi, &Scalar52::RR),
        ))
    }

    /// Interprets 32 little-endian bytes, reducing mod L.
    #[must_use]
    pub(crate) fn from_bytes_reduced(bytes: &[u8; 32]) -> Self {
        Scalar::from_limbs(Scalar52::montgomery_mul(
            &Scalar52::from_bytes(bytes),
            &Scalar52::R,
        ))
    }

    /// Strictly parses a canonical scalar (must be `< L`) — RFC 8032
    /// verification requires rejecting non-canonical `S` values.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidScalar`] when `bytes >= L`.
    pub(crate) fn from_canonical_bytes(bytes: &[u8; 32]) -> Result<Self, CryptoError> {
        // Reduction is the identity exactly on values below L.
        let reduced = Scalar::from_bytes_reduced(bytes);
        if &reduced.0 == bytes {
            Ok(reduced)
        } else {
            Err(CryptoError::InvalidScalar)
        }
    }

    /// Canonical 32-byte little-endian encoding.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> [u8; 32] {
        self.0
    }

    /// `(self + rhs) mod L`.
    #[must_use]
    pub(crate) fn add(&self, rhs: &Scalar) -> Scalar {
        Scalar::from_limbs(Scalar52::add(&self.limbs(), &rhs.limbs()))
    }

    /// `(self * rhs) mod L`: `ab/R`, then `(ab/R)·R²/R`.
    #[must_use]
    pub(crate) fn mul(&self, rhs: &Scalar) -> Scalar {
        let ab_over_r = Scalar52::montgomery_mul(&self.limbs(), &rhs.limbs());
        Scalar::from_limbs(Scalar52::montgomery_mul(&ab_over_r, &Scalar52::RR))
    }

    /// Signed radix-16 recoding: 64 digits in `[-8, 8)` such that
    /// `self = Σ digits[i]·16^i`. Valid for any scalar `< 2^253` (every
    /// reduced scalar), where the final carry is absorbed by the top
    /// digit without overflow.
    fn radix16_digits(&self) -> [i8; 64] {
        let bytes = self.to_bytes();
        let mut digits = [0i8; 64];
        for (i, b) in bytes.iter().enumerate() {
            digits[2 * i] = (b & 15) as i8;
            digits[2 * i + 1] = (b >> 4) as i8;
        }
        for i in 0..63 {
            if digits[i] >= 8 {
                digits[i] -= 16;
                digits[i + 1] += 1;
            }
        }
        digits
    }

    /// Width-5 non-adjacent form: digits in `{0, ±1, ±3, …, ±15}` with at
    /// least four zeros between nonzero digits, LSB first. Variable-time —
    /// used only on verification inputs, which are public.
    fn wnaf5(&self) -> Vec<i8> {
        let mut limbs: [u64; 4] = words_le(&self.0);
        let is_zero = |l: &[u64; 4]| l.iter().all(|&w| w == 0);
        let shr1 = |l: &mut [u64; 4]| {
            for i in 0..4 {
                l[i] >>= 1;
                if i < 3 {
                    l[i] |= l[i + 1] << 63;
                }
            }
        };
        let mut naf = Vec::with_capacity(260);
        while !is_zero(&limbs) {
            if limbs[0] & 1 == 1 {
                let mut d = (limbs[0] & 31) as i32;
                if d > 16 {
                    d -= 32;
                }
                if d >= 0 {
                    // Subtract d: the low five bits hold at least d.
                    limbs[0] -= d as u64;
                } else {
                    // Add |d|, propagating the carry.
                    let mut carry = (-d) as u64;
                    for limb in &mut limbs {
                        let (sum, overflow) = limb.overflowing_add(carry);
                        *limb = sum;
                        carry = u64::from(overflow);
                        if carry == 0 {
                            break;
                        }
                    }
                }
                naf.push(d as i8);
            } else {
                naf.push(0);
            }
            shr1(&mut limbs);
        }
        naf
    }
}

/// A point on the twisted Edwards curve in extended coordinates
/// `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z` and `T = XY/Z`.
///
/// Every point a public function returns carries a valid `T`; the
/// kernels inside this module move through the cheaper forms below and
/// compute `T` only where an addition needs it.
#[derive(Clone, Copy)]
pub(crate) struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// `(X : Y : Z)` without `T`: the input a doubling needs, and the form a
/// result takes when a doubling comes next.
#[derive(Clone, Copy)]
struct ProjectivePoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

/// What an addition or doubling leaves before its last four
/// multiplications: the point `(E·F : G·H : F·G : E·H)`. Finishing to
/// [`ProjectivePoint`] costs three of them, to [`EdwardsPoint`] four.
#[derive(Clone, Copy)]
struct CompletedPoint {
    e: FieldElement,
    f: FieldElement,
    g: FieldElement,
    h: FieldElement,
}

/// An addend cached in projective Niels form `(Y+X, Y−X, Z, 2d·T)`: the
/// sums and the curve constant an addition would otherwise recompute on
/// every use. The Straus tables hold these.
#[derive(Clone, Copy)]
struct ProjectiveNiels {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z: FieldElement,
    t2d: FieldElement,
}

/// An addend in affine Niels form `(y+x, y−x, 2d·xy)`, `Z = 1`: the
/// fixed-base table holds these, one multiplication cheaper to add than
/// the projective form.
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

/// `2d`, the unified addition formula's only curve constant, which the
/// Niels forms fold into `T`.
const EDWARDS_D2: FieldElement = FieldElement([
    0x6_9b94_26b2_f159,
    0x3_5050_762a_dd7a,
    0x3_cf44_c003_8052,
    0x6_738c_c740_7977,
    0x2_406d_9dc5_6dff,
]);

/// The standard base point B: `y = 4/5` and even `x` (RFC 8032 §5.1).
const BASEPOINT: EdwardsPoint = EdwardsPoint {
    x: FieldElement([
        0x6_2d60_8f25_d51a,
        0x4_12a4_b4f6_592a,
        0x7_5b71_71a4_b31d,
        0x1_ff60_5271_18fe,
        0x2_1693_6d3c_d6e5,
    ]),
    y: FieldElement([
        0x6_6666_6666_6658,
        0x4_cccc_cccc_cccc,
        0x1_9999_9999_9999,
        0x3_3333_3333_3333,
        0x6_6666_6666_6666,
    ]),
    z: FieldElement([1, 0, 0, 0, 0]),
    t: FieldElement([
        0x6_8ab3_a5b7_dda3,
        0x0_0eea_2a5e_adbb,
        0x2_af8d_f483_c27e,
        0x3_32b3_7527_4732,
        0x6_7875_f0fd_78b7,
    ]),
};

impl std::fmt::Debug for EdwardsPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EdwardsPoint(0x{})", crate::hex::encode(self.compress()))
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // X1/Z1 == X2/Z2 and Y1/Z1 == Y2/Z2, cross-multiplied.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl Eq for EdwardsPoint {}

impl ProjectivePoint {
    const IDENTITY: ProjectivePoint = ProjectivePoint {
        x: FieldElement([0; 5]),
        y: FieldElement([1, 0, 0, 0, 0]),
        z: FieldElement([1, 0, 0, 0, 0]),
    };

    /// Point doubling (a = −1): 4 squarings, no multiplication and no
    /// curve constant; `T` is neither read nor produced.
    fn double(&self) -> CompletedPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square();
        let c = c.add(&c);
        let h = a.add(&b);
        let e = h.sub(&self.x.add(&self.y).square());
        let g = a.sub(&b);
        let f = c.add(&g);
        CompletedPoint { e, f, g, h }
    }

    /// `(XZ : YZ : Z² : XY)`.
    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(&self.z),
            y: self.y.mul(&self.z),
            z: self.z.square(),
            t: self.x.mul(&self.y),
        }
    }
}

impl CompletedPoint {
    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
        }
    }

    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
            t: self.e.mul(&self.h),
        }
    }
}

impl ProjectiveNiels {
    /// The negated addend: `x ↦ −x` swaps `Y+X` with `Y−X` and negates `T`.
    fn neg(&self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl AffineNiels {
    const IDENTITY: AffineNiels = AffineNiels {
        y_plus_x: FieldElement([1, 0, 0, 0, 0]),
        y_minus_x: FieldElement([1, 0, 0, 0, 0]),
        xy2d: FieldElement([0; 5]),
    };

    /// Branch-free conditional assignment: `self = other` when `mask` is
    /// all-ones, unchanged when `mask` is zero.
    fn cmov(&mut self, other: &AffineNiels, mask: u64) {
        fe_cmov(&mut self.y_plus_x, &other.y_plus_x, mask);
        fe_cmov(&mut self.y_minus_x, &other.y_minus_x, mask);
        fe_cmov(&mut self.xy2d, &other.xy2d, mask);
    }
}

impl EdwardsPoint {
    /// The neutral element.
    #[must_use]
    pub(crate) fn identity() -> Self {
        EdwardsPoint {
            x: FieldElement::zero(),
            y: FieldElement::one(),
            z: FieldElement::one(),
            t: FieldElement::zero(),
        }
    }

    /// The standard base point B (y = 4/5, x positive-even per RFC 8032).
    #[must_use]
    pub(crate) fn basepoint() -> Self {
        BASEPOINT
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_projective_niels(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&EDWARDS_D2),
        }
    }

    /// Unified addition of a cached addend (extended coordinates,
    /// a = −1): four multiplications up to the completed point.
    fn add_niels(&self, other: &ProjectiveNiels) -> CompletedPoint {
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add(&self.x).mul(&other.y_plus_x);
        let c = self.t.mul(&other.t2d);
        let zz = self.z.mul(&other.z);
        let d = zz.add(&zz);
        CompletedPoint {
            e: b.sub(&a),
            f: d.sub(&c),
            g: d.add(&c),
            h: b.add(&a),
        }
    }

    /// [`EdwardsPoint::add_niels`] for an affine addend (`Z = 1`): three
    /// multiplications.
    fn add_affine_niels(&self, other: &AffineNiels) -> CompletedPoint {
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add(&self.x).mul(&other.y_plus_x);
        let c = self.t.mul(&other.xy2d);
        let d = self.z.add(&self.z);
        CompletedPoint {
            e: b.sub(&a),
            f: d.sub(&c),
            g: d.add(&c),
            h: b.add(&a),
        }
    }

    /// Unified point addition (extended coordinates, a = −1).
    #[must_use]
    pub(crate) fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        self.add_niels(&other.to_projective_niels()).to_extended()
    }

    /// Point doubling (extended coordinates, a = −1): 4 squarings and 4
    /// multiplications, and no curve constant.
    #[must_use]
    pub(crate) fn double(&self) -> EdwardsPoint {
        self.to_projective().double().to_extended()
    }

    /// `[scalar]B` through the precomputed fixed-base window table: 64
    /// constant-time table lookups and 64 affine additions, no doublings.
    /// This is the signing/keygen kernel — the table select and the
    /// conditional negation are branch-free over the secret digits.
    #[must_use]
    pub(crate) fn mul_base(scalar: &Scalar) -> EdwardsPoint {
        metrics::record_scalar_mul(1);
        let digits = scalar.radix16_digits();
        let table = fixed_base_table();
        let mut acc = EdwardsPoint::identity();
        for (row, &digit) in table.iter().zip(digits.iter()) {
            acc = acc
                .add_affine_niels(&select_signed(row, digit))
                .to_extended();
        }
        acc
    }

    /// The negation `(-x, y, -t)` — negating a point is free on Edwards
    /// curves, which is what makes signed-digit windows pay.
    #[must_use]
    pub(crate) fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Compresses to the 32-byte RFC 8032 encoding (y with x's sign bit).
    #[must_use]
    pub(crate) fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses an RFC 8032 point encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when the encoding is not a
    /// curve point (y out of range behaviour follows RFC decoding; x
    /// recovery failure is rejected).
    pub(crate) fn decompress(bytes: &[u8; 32]) -> Result<Self, CryptoError> {
        metrics::record_decompression();
        let sign = bytes[31] >> 7;
        let y = FieldElement::from_bytes(bytes);
        // Reject non-canonical y encodings (y >= p): RFC 8032 §5.1.3
        // requires decoding to fail, otherwise point (and thus signature
        // and public-key) encodings become malleable.
        let mut canonical = y.to_bytes();
        canonical[31] |= sign << 7;
        if &canonical != bytes {
            return Err(CryptoError::InvalidPoint);
        }
        // x² = (y² - 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(&FieldElement::one());
        let v = edwards_d().mul(&yy).add(&FieldElement::one());
        let (is_square, mut x) = sqrt_ratio(&u, &v);
        if !is_square {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_zero() && sign == 1 {
            // -0 is not a valid encoding.
            return Err(CryptoError::InvalidPoint);
        }
        if (x.is_negative() as u8) != sign {
            x = x.neg();
        }
        Ok(EdwardsPoint {
            x,
            y,
            z: FieldElement::one(),
            t: x.mul(&y),
        })
    }

    /// `true` when this is the neutral element.
    #[cfg(test)]
    fn is_identity(&self) -> bool {
        *self == EdwardsPoint::identity()
    }

    /// The Montgomery `u`-coordinate of this point under the birational
    /// map to Curve25519: `u = (Z + Y)/(Z − Y)`. The identity (`Z = Y`)
    /// yields zero — `invert(0) = 0` in this field representation —
    /// matching the Montgomery ladder's output convention.
    #[must_use]
    pub(crate) fn montgomery_u(&self) -> [u8; 32] {
        self.z
            .add(&self.y)
            .mul(&self.z.sub(&self.y).invert())
            .to_bytes()
    }
}

/// Limb-wise conditional move over the 5×51-bit representation.
fn fe_cmov(a: &mut FieldElement, b: &FieldElement, mask: u64) {
    for (x, y) in a.0.iter_mut().zip(b.0.iter()) {
        *x ^= mask & (*x ^ *y);
    }
}

/// Constant-time select of `digit · 16^i·B` from a table row holding
/// `[1·16^i·B, …, 8·16^i·B]`: every row entry is scanned, the match is
/// masked in, and negative digits are folded by a branch-free negation
/// (swap `y+x` with `y−x`, negate `2d·xy`).
fn select_signed(row: &[AffineNiels; 8], digit: i8) -> AffineNiels {
    let magnitude = u64::from(digit.unsigned_abs());
    let mut out = AffineNiels::IDENTITY;
    for (j, entry) in row.iter().enumerate() {
        // All-ones when magnitude == j + 1, zero otherwise.
        let diff = magnitude ^ (j as u64 + 1);
        let mask = (diff.wrapping_sub(1) & !diff) >> 63;
        out.cmov(entry, mask.wrapping_neg());
    }
    let negated = AffineNiels {
        y_plus_x: out.y_minus_x,
        y_minus_x: out.y_plus_x,
        xy2d: out.xy2d.neg(),
    };
    let negative_mask = ((digit as i64) >> 63) as u64;
    out.cmov(&negated, negative_mask);
    out
}

/// The fixed-base window table: `table[i][j] = (j+1)·16^i·B` for
/// `i < 64`, `j < 8`, in affine Niels form. Built once behind a
/// `OnceLock` (448 additions, 64 doublings, then one batched inversion
/// takes all 512 points to `Z = 1`); afterwards every `[s]B` costs 64
/// affine additions and zero doublings.
fn fixed_base_table() -> &'static [[AffineNiels; 8]] {
    static TABLE: OnceLock<Vec<[AffineNiels; 8]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut points = Vec::with_capacity(64 * 8);
        let mut base = EdwardsPoint::basepoint();
        for _ in 0..64 {
            let mut multiple = base;
            points.push(multiple);
            for _ in 1..8 {
                multiple = multiple.add(&base);
                points.push(multiple);
            }
            // Next position: 16^(i+1)·B = 2 · (8·16^i·B).
            base = multiple.double();
        }
        let mut zinv: Vec<FieldElement> = points.iter().map(|p| p.z).collect();
        batch_invert(&mut zinv);
        let affine: Vec<AffineNiels> = points
            .iter()
            .zip(&zinv)
            .map(|(p, zinv)| {
                let x = p.x.mul(zinv);
                let y = p.y.mul(zinv);
                AffineNiels {
                    y_plus_x: y.add(&x),
                    y_minus_x: y.sub(&x),
                    xy2d: x.mul(&y).mul(&EDWARDS_D2),
                }
            })
            .collect();
        let (rows, _) = affine.as_chunks::<8>();
        rows.to_vec()
    })
}

/// Odd multiples `[P, 3P, 5P, …, 15P]` for one w=5 NAF operand, cached in
/// projective Niels form.
fn odd_multiples(p: &EdwardsPoint) -> [ProjectiveNiels; 8] {
    let p2 = p.double().to_projective_niels();
    let mut multiple = *p;
    std::array::from_fn(|_| {
        let niels = multiple.to_projective_niels();
        multiple = multiple.add_niels(&p2).to_extended();
        niels
    })
}

/// Cached odd multiples of the basepoint for the Straus verify kernel.
fn basepoint_odd_multiples() -> &'static [ProjectiveNiels; 8] {
    static MULTIPLES: OnceLock<[ProjectiveNiels; 8]> = OnceLock::new();
    MULTIPLES.get_or_init(|| odd_multiples(&EdwardsPoint::basepoint()))
}

/// Variable-time Straus interleaving over w=5 NAF digits: `Σ [dᵢ]Pᵢ` for
/// `(digits, odd multiples of Pᵢ)` pairs. One shared doubling chain, one
/// addition per nonzero digit. A step finishes its doubling to
/// extended coordinates only when an addition follows, and otherwise
/// skips `T`. Verification-only — every scalar is public there.
fn straus_vartime(terms: &[(Vec<i8>, &[ProjectiveNiels; 8])]) -> EdwardsPoint {
    let len = terms.iter().map(|(naf, _)| naf.len()).max().unwrap_or(0);
    let mut acc = ProjectivePoint::IDENTITY;
    for i in (0..len).rev() {
        let mut step = acc.double();
        for (naf, table) in terms {
            match naf.get(i) {
                Some(&d) if d > 0 => {
                    step = step.to_extended().add_niels(&table[(d as usize - 1) / 2]);
                }
                Some(&d) if d < 0 => {
                    step = step
                        .to_extended()
                        .add_niels(&table[((-d) as usize - 1) / 2].neg());
                }
                _ => {}
            }
        }
        acc = step.to_projective();
    }
    acc.to_extended()
}

/// Variable-time `[a]B + [b]P` over the cached basepoint table: the
/// verify kernel. Verification-only — both scalars are public there.
fn vartime_double_base_mul(a: &Scalar, b: &Scalar, p: &EdwardsPoint) -> EdwardsPoint {
    metrics::record_scalar_mul(2);
    let table_b = odd_multiples(p);
    straus_vartime(&[
        (a.wnaf5(), basepoint_odd_multiples()),
        (b.wnaf5(), &table_b),
    ])
}

/// Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    bytes: [u8; SIGNATURE_LEN],
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Signature(0x{}..)",
            &crate::hex::encode(self.bytes)[..16]
        )
    }
}

impl Signature {
    /// Constructs from raw bytes (no validation beyond length; validation
    /// happens at verify time).
    #[must_use]
    pub fn from_bytes(bytes: [u8; SIGNATURE_LEN]) -> Self {
        Signature { bytes }
    }

    /// The raw 64-byte encoding `R || S`.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        self.bytes
    }
}

impl AsRef<[u8]> for Signature {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// An Ed25519 verifying (public) key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerifyingKey {
    bytes: [u8; PUBLIC_KEY_LEN],
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VerifyingKey(0x{}..)",
            &crate::hex::encode(self.bytes)[..16]
        )
    }
}

impl VerifyingKey {
    /// Constructs from the 32-byte compressed encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] if the bytes do not decompress
    /// to a curve point.
    pub fn from_bytes(bytes: [u8; PUBLIC_KEY_LEN]) -> Result<Self, CryptoError> {
        EdwardsPoint::decompress(&bytes)?;
        Ok(VerifyingKey { bytes })
    }

    /// The compressed public key bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; PUBLIC_KEY_LEN] {
        self.bytes
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] on any verification
    /// failure, including non-canonical `S` and invalid `R` encodings.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        self.expand().verify(message, signature)
    }

    /// Decompresses the key once for reuse across many verifications.
    ///
    /// Construction sites guarantee the bytes decompress (the public
    /// constructor validates, internal construction compresses a real
    /// point). Were they not to, the expansion would hold no point and
    /// reject every signature, as [`VerifyingKey::verify`] does for a key
    /// that fails to decompress.
    #[must_use]
    pub fn expand(&self) -> ExpandedVerifyingKey {
        ExpandedVerifyingKey {
            compressed: *self,
            point: EdwardsPoint::decompress(&self.bytes).ok(),
        }
    }
}

/// A verifying key with its Edwards point decompressed once up front.
///
/// Chain verification decompresses the same ARK/ASK keys millions of
/// times across a fleet; holding the point amortizes the sqrt and field
/// inversions to one per key lifetime. Copyable — a copy moves 20 limbs,
/// never re-derives the point.
#[derive(Clone, Copy)]
pub struct ExpandedVerifyingKey {
    compressed: VerifyingKey,
    point: Option<EdwardsPoint>,
}

impl std::fmt::Debug for ExpandedVerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ExpandedVerifyingKey(0x{}..)",
            &crate::hex::encode(self.compressed.bytes)[..16]
        )
    }
}

impl ExpandedVerifyingKey {
    /// The compressed key this expansion was derived from.
    #[must_use]
    pub fn key(&self) -> &VerifyingKey {
        &self.compressed
    }

    /// [`VerifyingKey::verify`] without the per-call key decompression.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] on any verification
    /// failure, exactly as [`VerifyingKey::verify`] does.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let a = self.point.ok_or(CryptoError::InvalidSignature)?;
        verify_prehashed(&self.compressed.bytes, &a, message, signature)
    }
}

/// The shared verification equation over an already-decompressed key
/// point: parse `S` (canonical) and `R`, then check
/// `[S]B − [k]A == R` in one interleaved Straus pass. Accepts and
/// rejects exactly the inputs the two-chain sequential check does —
/// `[S]B == R + [k]A ⟺ [S]B + [k](−A) == R`.
fn verify_prehashed(
    key_bytes: &[u8; 32],
    a: &EdwardsPoint,
    message: &[u8],
    signature: &Signature,
) -> Result<(), CryptoError> {
    metrics::record_single_verification();
    let (r_bytes, s_bytes) = halves(&signature.bytes);
    let s = Scalar::from_canonical_bytes(&s_bytes).map_err(|_| CryptoError::InvalidSignature)?;
    let r = EdwardsPoint::decompress(&r_bytes).map_err(|_| CryptoError::InvalidSignature)?;

    let mut h = Sha512::digest([&r_bytes[..], &key_bytes[..], message].concat());
    let k = Scalar::from_bytes_wide(&h);
    h.fill(0);

    if vartime_double_base_mul(&s, &k, &a.neg()) == r {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// One `(public key, message, signature)` claim of a batch verification.
///
/// The key arrives pre-expanded so callers verifying against the same
/// key repeatedly (the pinned ARK, a fleet-shared cert key) decompress
/// it once, not once per batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// The claimed signer.
    pub key: &'a ExpandedVerifyingKey,
    /// The signed message.
    pub message: &'a [u8],
    /// The signature to check.
    pub signature: &'a Signature,
}

/// Interleaved (Straus) multi-scalar multiplication: `Σ [zᵢ]Pᵢ`.
///
/// Every pair gets w=5 NAF digits and a table of its odd multiples
/// `[Pᵢ, 3Pᵢ, …, 15Pᵢ]`; all pairs share one doubling chain (~253
/// doublings) and pay one addition per nonzero digit, about one in six
/// bits. Evaluating each `[zᵢ]Pᵢ` separately would pay the full doubling
/// chain per pair. This is what makes batch verification cheaper than
/// verifying each signature individually. Variable-time: the scalars
/// must be public.
#[must_use]
pub(crate) fn multiscalar_mul(pairs: &[(Scalar, EdwardsPoint)]) -> EdwardsPoint {
    metrics::record_scalar_mul(pairs.len() as u64);
    let tables: Vec<[ProjectiveNiels; 8]> = pairs.iter().map(|(_, p)| odd_multiples(p)).collect();
    let terms: Vec<(Vec<i8>, &[ProjectiveNiels; 8])> = pairs
        .iter()
        .zip(&tables)
        .map(|((z, _), table)| (z.wnaf5(), table))
        .collect();
    straus_vartime(&terms)
}

/// The random-linear-combination coefficient for batch item `index`.
///
/// The sim has no RNG, so the coefficients are derived by hashing the
/// item itself under a domain separator — an adversary who controls the
/// signatures also controls the coefficients, but forging the combined
/// equation still requires predicting `SHA-512` preimages, which is the
/// usual synthetic-coefficient batch argument (and this codebase trades
/// side-channel-grade rigour for determinism throughout).
fn batch_coefficient(
    index: usize,
    r_bytes: &[u8; 32],
    a_bytes: &[u8; 32],
    message: &[u8],
) -> Scalar {
    let m_hash = Sha512::digest(message);
    let mut input = Vec::with_capacity(16 + 8 + 32 + 32 + 64);
    input.extend_from_slice(b"revelio-batch/v1");
    input.extend_from_slice(&(index as u64).to_le_bytes());
    input.extend_from_slice(r_bytes);
    input.extend_from_slice(a_bytes);
    input.extend_from_slice(&m_hash);
    let z = Scalar::from_bytes_wide(&Sha512::digest(input));
    if z == Scalar::ZERO {
        Scalar::ONE
    } else {
        z
    }
}

/// Verifies a batch of signatures in one combined group equation.
///
/// Checks `[Σ zᵢsᵢ]B == Σ([zᵢ]Rᵢ + [zᵢkᵢ]Aᵢ)` with deterministic
/// per-item coefficients `zᵢ`, sharing one doubling chain across every
/// point via `multiscalar_mul`. An empty batch is trivially valid.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidSignature`] when any item is malformed
/// or the combined equation fails. The batch cannot say *which* item is
/// bad — callers wanting the precise culprit fall back to
/// [`VerifyingKey::verify`] per item.
pub fn verify_batch(items: &[BatchItem<'_>]) -> Result<(), CryptoError> {
    if items.is_empty() {
        return Ok(());
    }
    metrics::record_batch_verification();
    let mut sum_zs = Scalar::ZERO;
    let mut pairs: Vec<(Scalar, EdwardsPoint)> = Vec::with_capacity(2 * items.len());
    for (i, item) in items.iter().enumerate() {
        let (r_bytes, s_bytes) = halves(&item.signature.bytes);
        let s =
            Scalar::from_canonical_bytes(&s_bytes).map_err(|_| CryptoError::InvalidSignature)?;
        let r = EdwardsPoint::decompress(&r_bytes).map_err(|_| CryptoError::InvalidSignature)?;
        let a = item.key.point.ok_or(CryptoError::InvalidSignature)?;
        let key_bytes = item.key.compressed.bytes;
        let k = Scalar::from_bytes_wide(&Sha512::digest(
            [&r_bytes[..], &key_bytes[..], item.message].concat(),
        ));
        // The first coefficient can be 1 without weakening the argument.
        let z = if i == 0 {
            Scalar::ONE
        } else {
            batch_coefficient(i, &r_bytes, &key_bytes, item.message)
        };
        sum_zs = sum_zs.add(&z.mul(&s));
        pairs.push((z.mul(&k), a));
        pairs.push((z, r));
    }
    let lhs = EdwardsPoint::mul_base(&sum_zs);
    if lhs == multiscalar_mul(&pairs) {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// An Ed25519 signing key (seed plus derived scalar and prefix).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; SEED_LEN],
    scalar: Scalar,
    prefix: [u8; 32],
    verifying: VerifyingKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningKey")
            .field("public", &self.verifying)
            .finish_non_exhaustive()
    }
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed (RFC 8032 key generation).
    #[must_use]
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> Self {
        let h = Sha512::digest(seed);
        let (mut scalar_bytes, prefix) = halves(&h);
        scalar_bytes[0] &= 0xf8;
        scalar_bytes[31] &= 0x7f;
        scalar_bytes[31] |= 0x40;
        let scalar = Scalar::from_bytes_reduced(&scalar_bytes);
        let public_point = EdwardsPoint::mul_base(&scalar);
        let verifying = VerifyingKey {
            bytes: public_point.compress(),
        };
        SigningKey {
            seed: *seed,
            scalar,
            prefix,
            verifying,
        }
    }

    /// The seed this key was derived from.
    #[must_use]
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// The corresponding public key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.verifying
    }

    /// Signs `message` (deterministic per RFC 8032).
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let r_hash = Sha512::digest([&self.prefix[..], message].concat());
        let r = Scalar::from_bytes_wide(&r_hash);
        let r_point = EdwardsPoint::mul_base(&r);
        let r_bytes = r_point.compress();

        let k_hash = Sha512::digest([&r_bytes[..], &self.verifying.bytes[..], message].concat());
        let k = Scalar::from_bytes_wide(&k_hash);
        let s = r.add(&k.mul(&self.scalar));

        let mut bytes = [0u8; SIGNATURE_LEN];
        bytes[..32].copy_from_slice(&r_bytes);
        bytes[32..].copy_from_slice(&s.to_bytes());
        Signature { bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;
    use crate::hex;
    use proptest::prelude::*;

    /// The oracle: L = 2^252 + 27742317777372353535851937790883648493.
    fn group_order() -> BigUint {
        let tail = BigUint::from_bytes_be(&[
            0x14, 0xde, 0xf9, 0xde, 0xa2, 0xf7, 0x9c, 0xd6, 0x58, 0x12, 0x63, 0x1a, 0x5c, 0xf5,
            0xd3, 0xed,
        ]);
        BigUint::one().shl(252).add(&tail)
    }

    /// The bits of the scalar, most significant first, from the highest
    /// set bit down (empty for zero).
    fn bits_msb_first(s: &Scalar) -> impl Iterator<Item = bool> + '_ {
        (0..256)
            .rev()
            .map(|i| (s.0[i / 8] >> (i % 8)) & 1 == 1)
            .skip_while(|&bit| !bit)
    }

    /// The reference formulas the kernels are checked against: extended
    /// coordinates throughout, `2d·T` recomputed on every addition and
    /// `T` on every doubling.
    impl EdwardsPoint {
        fn add_reference(&self, other: &EdwardsPoint) -> EdwardsPoint {
            let two_d = edwards_d().add(&edwards_d());
            let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
            let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
            let c = self.t.mul(&two_d).mul(&other.t);
            let d = self.z.add(&self.z).mul(&other.z);
            let e = b.sub(&a);
            let f = d.sub(&c);
            let g = d.add(&c);
            let h = b.add(&a);
            EdwardsPoint {
                x: e.mul(&f),
                y: g.mul(&h),
                t: e.mul(&h),
                z: f.mul(&g),
            }
        }

        fn double_reference(&self) -> EdwardsPoint {
            let a = self.x.square();
            let b = self.y.square();
            let c = self.z.square();
            let c = c.add(&c);
            let h = a.add(&b);
            let e = h.sub(&self.x.add(&self.y).square());
            let g = a.sub(&b);
            let f = c.add(&g);
            EdwardsPoint {
                x: e.mul(&f),
                y: g.mul(&h),
                t: e.mul(&h),
                z: f.mul(&g),
            }
        }

        /// Double-and-add, MSB first, over the reference formulas.
        fn scalar_mul(&self, scalar: &Scalar) -> EdwardsPoint {
            let mut acc = EdwardsPoint::identity();
            for bit in bits_msb_first(scalar) {
                acc = acc.double_reference();
                if bit {
                    acc = acc.add_reference(self);
                }
            }
            acc
        }

        /// `T·Z == X·Y`: the extended coordinates describe one point.
        fn has_valid_t(&self) -> bool {
            self.t.mul(&self.z) == self.x.mul(&self.y)
        }
    }

    /// Straus over extended-coordinate odd multiples, computing `T` after
    /// every doubling: the reference for [`straus_vartime`].
    fn straus_reference(terms: &[(Vec<i8>, [EdwardsPoint; 8])]) -> EdwardsPoint {
        let len = terms.iter().map(|(naf, _)| naf.len()).max().unwrap_or(0);
        let mut acc = EdwardsPoint::identity();
        for i in (0..len).rev() {
            acc = acc.double_reference();
            for (naf, table) in terms {
                match naf.get(i) {
                    Some(&d) if d > 0 => acc = acc.add_reference(&table[(d as usize - 1) / 2]),
                    Some(&d) if d < 0 => {
                        acc = acc.add_reference(&table[((-d) as usize - 1) / 2].neg());
                    }
                    _ => {}
                }
            }
        }
        acc
    }

    fn odd_multiples_reference(p: &EdwardsPoint) -> [EdwardsPoint; 8] {
        let p2 = p.double_reference();
        let mut m = [*p; 8];
        for j in 1..8 {
            m[j] = m[j - 1].add_reference(&p2);
        }
        m
    }

    /// A point `[s]B` whose `Z` is not 1, so the projective formulas are
    /// exercised with a real denominator.
    fn point(seed: &[u8; 32]) -> EdwardsPoint {
        EdwardsPoint::basepoint().scalar_mul(&Scalar::from_bytes_reduced(seed))
    }

    fn scalar_value(s: &Scalar) -> BigUint {
        BigUint::from_bytes_le(&s.to_bytes())
    }

    fn bytes_of(n: &BigUint) -> [u8; 32] {
        let mut out = [0u8; 32];
        out.copy_from_slice(&n.to_bytes_le_padded(32));
        out
    }

    /// `n` in radix 2^52, five limbs.
    fn limbs52_of(n: &BigUint) -> [u64; 5] {
        let radix = BigUint::one().shl(52);
        std::array::from_fn(|k| {
            let limb = n.shr(52 * k).rem(&radix).to_bytes_le_padded(8);
            limb.iter()
                .rev()
                .fold(0, |acc, &b| (acc << 8) | u64::from(b))
        })
    }

    #[test]
    fn montgomery_constants_derive_from_the_group_order() {
        let l = group_order();
        assert_eq!(Scalar52::L.0, limbs52_of(&l));
        let r = BigUint::one().shl(260).rem(&l);
        assert_eq!(Scalar52::R.0, limbs52_of(&r));
        assert_eq!(Scalar52::RR.0, limbs52_of(&r.mul_mod(&r, &l)));
        // L⁻¹ mod 2^64 by Newton's iteration (each step doubles the correct
        // low bits; L is odd, so L is its own inverse mod 8), then negate.
        let l0 = limbs52_of(&l)[0];
        let mut inv = l0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(l0.wrapping_mul(inv)));
        }
        assert_eq!(Scalar52::LFACTOR, inv.wrapping_neg() & LOW_52_BIT_MASK);
        // L·LFACTOR ≡ −1 (mod 2^52).
        let check = l
            .mul(&BigUint::from_u64(Scalar52::LFACTOR))
            .add(&BigUint::one())
            .rem(&BigUint::one().shl(52));
        assert!(check.is_zero());
    }

    #[test]
    fn canonical_parsing_rejects_exactly_s_at_least_l() {
        let l = group_order();
        let below = l.sub(&BigUint::one());
        let parsed = Scalar::from_canonical_bytes(&bytes_of(&below)).unwrap();
        assert_eq!(scalar_value(&parsed), below);
        for n in [
            l.clone(),
            l.add(&BigUint::one()),
            BigUint::one().shl(256).sub(&BigUint::one()),
        ] {
            assert_eq!(
                Scalar::from_canonical_bytes(&bytes_of(&n)),
                Err(CryptoError::InvalidScalar)
            );
        }
    }

    #[test]
    fn curve_constants_match_their_definitions() {
        // y = 4/5 with sign bit 0 (RFC 8032 §5.1).
        let y = FieldElement::from_u64(4).mul(&FieldElement::from_u64(5).invert());
        assert_eq!(
            EdwardsPoint::basepoint(),
            EdwardsPoint::decompress(&y.to_bytes()).unwrap()
        );
        assert_eq!(
            hex::encode(EdwardsPoint::basepoint().compress()),
            "5866666666666666666666666666666666666666666666666666666666666666"
        );
        assert!(BASEPOINT.has_valid_t());
        assert_eq!(EDWARDS_D2, edwards_d().add(&edwards_d()));
    }

    #[test]
    fn fixed_base_select_covers_every_signed_digit() {
        let b = EdwardsPoint::basepoint();
        let row = &fixed_base_table()[0];
        for digit in -8i8..=8 {
            let magnitude = Scalar::from_bytes_reduced(&{
                let mut bytes = [0u8; 32];
                bytes[0] = digit.unsigned_abs();
                bytes
            });
            let expected = if digit < 0 {
                b.scalar_mul(&magnitude).neg()
            } else {
                b.scalar_mul(&magnitude)
            };
            let selected = EdwardsPoint::identity()
                .add_affine_niels(&select_signed(row, digit))
                .to_extended();
            assert_eq!(selected, expected, "digit {digit}");
        }
    }

    #[test]
    fn basepoint_has_order_l() {
        // [L]B == identity, [L-1]B != identity.
        let l = group_order();
        // Scalar construction reduces mod L, so [L] ≡ 0 as a Scalar;
        // multiply by the raw bits of L instead.
        let mut acc = EdwardsPoint::identity();
        for i in (0..l.bit_len()).rev() {
            acc = acc.double();
            if l.bit(i) {
                acc = acc.add(&EdwardsPoint::basepoint());
            }
        }
        assert!(acc.is_identity());
        // A scalar built from L's encoding reduces to zero.
        let l_bytes: [u8; 32] = l.to_bytes_le_padded(32).try_into().unwrap();
        assert_eq!(Scalar::from_bytes_reduced(&l_bytes).to_bytes(), [0u8; 32]);
    }

    #[test]
    fn rfc8032_test_1_empty_message() {
        let seed = hex::decode_array::<32>(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(key.verifying_key().to_bytes()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = key.sign(b"");
        assert_eq!(
            hex::encode(sig.to_bytes()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
                .replace(char::is_whitespace, "")
        );
        key.verifying_key().verify(b"", &sig).unwrap();
    }

    #[test]
    fn rfc8032_test_2_one_byte() {
        let seed = hex::decode_array::<32>(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(key.verifying_key().to_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = key.sign(&[0x72]);
        key.verifying_key().verify(&[0x72], &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let sig = key.sign(b"report");
        assert_eq!(
            key.verifying_key().verify(b"repord", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let mut bytes = key.sign(b"report").to_bytes();
        bytes[5] ^= 1;
        assert!(key
            .verifying_key()
            .verify(b"report", &Signature::from_bytes(bytes))
            .is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let key1 = SigningKey::from_seed(&[1u8; 32]);
        let key2 = SigningKey::from_seed(&[2u8; 32]);
        let sig = key1.sign(b"report");
        assert!(key2.verifying_key().verify(b"report", &sig).is_err());
    }

    #[test]
    fn non_canonical_s_rejected() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let mut bytes = key.sign(b"m").to_bytes();
        // Force S >= L by setting the top bits.
        for b in bytes[32..].iter_mut() {
            *b = 0xff;
        }
        assert!(key
            .verifying_key()
            .verify(b"m", &Signature::from_bytes(bytes))
            .is_err());
    }

    #[test]
    fn non_canonical_y_encoding_rejected() {
        // y' = y + p re-encodes small-y points; decoding must refuse it.
        // p = 2^255 - 19, so for y = 0 the alias is p itself.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        // y = 0 has a valid point (x^2 = -1/(d*0+1) — actually y=0 may not
        // be on the curve; the point is that decoding must fail on
        // non-canonical grounds BEFORE any curve check).
        assert_eq!(
            EdwardsPoint::decompress(&p_bytes),
            Err(CryptoError::InvalidPoint)
        );
        // And a canonical encoding still works.
        let b = EdwardsPoint::basepoint().compress();
        EdwardsPoint::decompress(&b).unwrap();
    }

    #[test]
    fn invalid_public_key_rejected() {
        // y = 2 is not on the curve for either sign.
        let mut bad = [0u8; 32];
        bad[0] = 2;
        assert!(VerifyingKey::from_bytes(bad).is_err());
    }

    #[test]
    fn point_add_associativity() {
        let b = EdwardsPoint::basepoint();
        let two_b = b.double();
        let three_a = two_b.add(&b);
        let three_b = b.add(&two_b);
        assert_eq!(three_a, three_b);
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let p = EdwardsPoint::basepoint().scalar_mul(&Scalar::from_bytes_reduced(&[42u8; 32]));
        let c = p.compress();
        let q = EdwardsPoint::decompress(&c).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn scalar_arithmetic_matches_group() {
        // [a]B + [b]B == [a+b]B
        let a = Scalar::from_bytes_reduced(&[3u8; 32]);
        let b = Scalar::from_bytes_reduced(&[5u8; 32]);
        let lhs = EdwardsPoint::basepoint()
            .scalar_mul(&a)
            .add(&EdwardsPoint::basepoint().scalar_mul(&b));
        let rhs = EdwardsPoint::basepoint().scalar_mul(&a.add(&b));
        assert_eq!(lhs, rhs);
    }

    fn batch_fixture() -> Vec<(SigningKey, Vec<u8>, Signature)> {
        (0u8..4)
            .map(|i| {
                let key = SigningKey::from_seed(&[i + 10; 32]);
                let message = format!("attestation payload {i}").into_bytes();
                let sig = key.sign(&message);
                (key, message, sig)
            })
            .collect()
    }

    #[test]
    fn multiscalar_matches_naive_sum() {
        let a = Scalar::from_bytes_reduced(&[7u8; 32]);
        let b = Scalar::from_bytes_reduced(&[9u8; 32]);
        let p = EdwardsPoint::basepoint();
        let q = p.double().add(&p);
        let naive = p.scalar_mul(&a).add(&q.scalar_mul(&b));
        assert_eq!(multiscalar_mul(&[(a, p), (b, q)]), naive);
        assert!(multiscalar_mul(&[]).is_identity());
    }

    #[test]
    fn empty_batch_is_valid() {
        assert_eq!(verify_batch(&[]), Ok(()));
    }

    #[test]
    fn batch_accepts_valid_signatures() {
        let fixture = batch_fixture();
        let keys: Vec<ExpandedVerifyingKey> = fixture
            .iter()
            .map(|(k, _, _)| k.verifying_key().expand())
            .collect();
        let items: Vec<BatchItem<'_>> = fixture
            .iter()
            .zip(&keys)
            .map(|((_, message, sig), key)| BatchItem {
                key,
                message,
                signature: sig,
            })
            .collect();
        verify_batch(&items).unwrap();
    }

    #[test]
    fn batch_rejects_one_tampered_item() {
        let fixture = batch_fixture();
        let keys: Vec<ExpandedVerifyingKey> = fixture
            .iter()
            .map(|(k, _, _)| k.verifying_key().expand())
            .collect();
        for victim in 0..fixture.len() {
            let mut messages: Vec<Vec<u8>> = fixture.iter().map(|(_, m, _)| m.clone()).collect();
            messages[victim][0] ^= 1;
            let items: Vec<BatchItem<'_>> = fixture
                .iter()
                .zip(&keys)
                .zip(&messages)
                .map(|(((_, _, sig), key), message)| BatchItem {
                    key,
                    message,
                    signature: sig,
                })
                .collect();
            assert_eq!(
                verify_batch(&items),
                Err(CryptoError::InvalidSignature),
                "tampered item {victim} must fail the whole batch"
            );
        }
    }

    #[test]
    fn batch_rejects_swapped_signatures() {
        let fixture = batch_fixture();
        let keys: Vec<ExpandedVerifyingKey> = fixture
            .iter()
            .map(|(k, _, _)| k.verifying_key().expand())
            .collect();
        let items: Vec<BatchItem<'_>> = fixture
            .iter()
            .enumerate()
            .map(|(i, (_, message, _))| BatchItem {
                key: &keys[i],
                message,
                // Each item carries its neighbour's (individually valid)
                // signature: every single equation is wrong.
                signature: &fixture[(i + 1) % fixture.len()].2,
            })
            .collect();
        assert_eq!(verify_batch(&items), Err(CryptoError::InvalidSignature));
    }

    #[test]
    fn batch_rejects_non_canonical_s() {
        let fixture = batch_fixture();
        let key = fixture[0].0.verifying_key().expand();
        let mut bytes = fixture[0].2.to_bytes();
        for b in bytes[32..].iter_mut() {
            *b = 0xff;
        }
        let bad = Signature::from_bytes(bytes);
        let items = [BatchItem {
            key: &key,
            message: &fixture[0].1,
            signature: &bad,
        }];
        assert_eq!(verify_batch(&items), Err(CryptoError::InvalidSignature));
    }

    /// The pre-kernel verification path, retained verbatim as the
    /// result-compatibility oracle: parse S (canonical) and R, decompress
    /// A, then walk two full double-and-add chains.
    fn verify_sequential(
        key: &VerifyingKey,
        message: &[u8],
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        let r_bytes: [u8; 32] = signature.bytes[..32].try_into().expect("32 bytes");
        let s_bytes: [u8; 32] = signature.bytes[32..].try_into().expect("32 bytes");
        let s =
            Scalar::from_canonical_bytes(&s_bytes).map_err(|_| CryptoError::InvalidSignature)?;
        let r = EdwardsPoint::decompress(&r_bytes).map_err(|_| CryptoError::InvalidSignature)?;
        let a = EdwardsPoint::decompress(&key.bytes).map_err(|_| CryptoError::InvalidSignature)?;
        let k = Scalar::from_bytes_wide(&Sha512::digest(
            [&r_bytes[..], &key.bytes[..], message].concat(),
        ));
        let lhs = EdwardsPoint::basepoint().scalar_mul(&s);
        let rhs = r.add(&a.scalar_mul(&k));
        if lhs == rhs {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    #[test]
    fn fixed_base_table_matches_double_and_add() {
        for seed in [[0u8; 32], [1u8; 32], [0x7fu8; 32], [0xffu8; 32]] {
            let s = Scalar::from_bytes_reduced(&seed);
            assert_eq!(
                EdwardsPoint::mul_base(&s),
                EdwardsPoint::basepoint().scalar_mul(&s),
                "seed {seed:?}"
            );
        }
        // Zero maps to the identity through 64 identity additions.
        assert!(EdwardsPoint::mul_base(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn wnaf_digits_reconstruct_the_scalar() {
        for seed in [[3u8; 32], [0xeeu8; 32], [0x55u8; 32]] {
            let s = Scalar::from_bytes_reduced(&seed);
            let naf = s.wnaf5();
            let mut acc = BigUint::zero();
            let l = &group_order();
            for (i, &d) in naf.iter().enumerate() {
                if d > 0 {
                    acc = acc.add_mod(&BigUint::from_u64(d as u64).shl(i), l);
                } else if d < 0 {
                    acc = acc.add_mod(&l.sub(&BigUint::from_u64((-d) as u64).shl(i).rem(l)), l);
                }
            }
            assert_eq!(acc, scalar_value(&s), "seed {seed:?}");
            // Width-5 NAF: nonzero digits are odd and at least 5 apart.
            let mut last_nonzero: Option<usize> = None;
            for (i, &d) in naf.iter().enumerate() {
                if d != 0 {
                    assert!(d % 2 != 0, "digit {d} at {i} must be odd");
                    assert!(d.abs() <= 15);
                    if let Some(prev) = last_nonzero {
                        assert!(i - prev >= 5, "digits at {prev} and {i} too close");
                    }
                    last_nonzero = Some(i);
                }
            }
        }
    }

    #[test]
    fn straus_kernel_matches_separate_chains() {
        let a = Scalar::from_bytes_reduced(&[0x21u8; 32]);
        let b = Scalar::from_bytes_reduced(&[0x9au8; 32]);
        let p = EdwardsPoint::basepoint().scalar_mul(&Scalar::from_bytes_reduced(&[77u8; 32]));
        let expected = EdwardsPoint::basepoint()
            .scalar_mul(&a)
            .add(&p.scalar_mul(&b));
        assert_eq!(vartime_double_base_mul(&a, &b, &p), expected);
        // Zero scalars degenerate correctly.
        let zero = Scalar::ZERO;
        assert_eq!(
            vartime_double_base_mul(&zero, &b, &p),
            p.scalar_mul(&b),
            "[0]B + [b]P"
        );
        assert!(vartime_double_base_mul(&zero, &zero, &p).is_identity());
    }

    #[test]
    fn expanded_key_verifies_like_the_compressed_key() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        let expanded = key.verifying_key().expand();
        let sig = key.sign(b"payload");
        expanded.verify(b"payload", &sig).unwrap();
        assert_eq!(
            expanded.verify(b"tampered", &sig),
            Err(CryptoError::InvalidSignature)
        );
        assert_eq!(expanded.key(), &key.verifying_key());
    }

    #[test]
    fn scalar_mul_ops_counter_charges_kernels() {
        let before = metrics::thread_scalar_mul_ops();
        let s = Scalar::from_bytes_reduced(&[5u8; 32]);
        let _ = EdwardsPoint::mul_base(&s);
        let key = SigningKey::from_seed(&[6u8; 32]);
        let sig = key.sign(b"m");
        key.verifying_key().verify(b"m", &sig).unwrap();
        // mul_base (1) + from_seed (1) + sign (1) + straus verify (2).
        assert_eq!(metrics::thread_scalar_mul_ops(), before + 5);
    }

    proptest! {
        #[test]
        fn from_bytes_wide_matches_oracle(bytes: [u8; 64]) {
            prop_assert_eq!(
                scalar_value(&Scalar::from_bytes_wide(&bytes)),
                BigUint::from_bytes_le(&bytes).rem(&group_order())
            );
        }

        #[test]
        fn scalar_arithmetic_matches_oracle(a: [u8; 32], b: [u8; 32]) {
            let l = group_order();
            let (sa, sb) = (Scalar::from_bytes_reduced(&a), Scalar::from_bytes_reduced(&b));
            let (va, vb) = (BigUint::from_bytes_le(&a).rem(&l), BigUint::from_bytes_le(&b).rem(&l));
            prop_assert_eq!(scalar_value(&sa), va.clone());
            prop_assert_eq!(scalar_value(&sb), vb.clone());
            prop_assert_eq!(scalar_value(&sa.add(&sb)), va.add_mod(&vb, &l));
            prop_assert_eq!(scalar_value(&sa.mul(&sb)), va.mul_mod(&vb, &l));
        }

        #[test]
        fn canonical_parsing_matches_oracle(bytes: [u8; 32], top in 0u8..0x20) {
            // Bias the top byte towards L's (0x10) so both verdicts occur.
            let mut bytes = bytes;
            bytes[31] = top;
            let n = BigUint::from_bytes_le(&bytes);
            match Scalar::from_canonical_bytes(&bytes) {
                Ok(s) => {
                    prop_assert!(n < group_order());
                    prop_assert_eq!(s.to_bytes(), bytes);
                }
                Err(e) => {
                    prop_assert!(n >= group_order());
                    prop_assert_eq!(e, CryptoError::InvalidScalar);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn double_matches_add_self(bytes: [u8; 32]) {
            let p = EdwardsPoint::mul_base(&Scalar::from_bytes_reduced(&bytes));
            prop_assert_eq!(p.double(), p.add(&p));
            prop_assert_eq!(p.double().compress(), p.add(&p).compress());
            let id = EdwardsPoint::identity();
            prop_assert!(id.double().is_identity());
        }

        #[test]
        fn multiscalar_matches_naive_sum_for_up_to_eight_pairs(
            seeds in prop::collection::vec(any::<[u8; 32]>(), 2..17),
            zero_mask: u8,
        ) {
            let pairs: Vec<(Scalar, EdwardsPoint)> = seeds
                .chunks_exact(2)
                .enumerate()
                .map(|(i, s)| {
                    let z = if zero_mask >> i & 1 == 1 {
                        Scalar::ZERO
                    } else {
                        Scalar::from_bytes_reduced(&s[0])
                    };
                    (z, EdwardsPoint::mul_base(&Scalar::from_bytes_reduced(&s[1])))
                })
                .collect();
            let naive = pairs
                .iter()
                .fold(EdwardsPoint::identity(), |acc, (z, p)| acc.add(&p.scalar_mul(z)));
            prop_assert_eq!(multiscalar_mul(&pairs), naive);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn niels_additions_and_t_free_doubling_match_the_reference(a: [u8; 32], b: [u8; 32]) {
            let (p, q) = (point(&a), point(&b));
            let expected = p.add_reference(&q);
            let sum = p.add_niels(&q.to_projective_niels()).to_extended();
            prop_assert_eq!(sum, expected);
            prop_assert!(sum.has_valid_t());
            prop_assert_eq!(
                p.add_niels(&q.to_projective_niels().neg()).to_extended(),
                p.add_reference(&q.neg())
            );
            // The same addend normalised to Z = 1, as the fixed-base table
            // holds it.
            let zinv = q.z.invert();
            let (x, y) = (q.x.mul(&zinv), q.y.mul(&zinv));
            let affine = AffineNiels {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                xy2d: x.mul(&y).mul(&EDWARDS_D2),
            };
            let affine_sum = p.add_affine_niels(&affine).to_extended();
            prop_assert_eq!(affine_sum, expected);
            prop_assert!(affine_sum.has_valid_t());
            // Doubling reads no T; both finishes describe the same point.
            let doubled = p.to_projective().double();
            prop_assert_eq!(doubled.to_extended(), p.double_reference());
            prop_assert!(doubled.to_extended().has_valid_t());
            let via_projective = doubled.to_projective().to_extended();
            prop_assert_eq!(via_projective, p.double_reference());
            prop_assert!(via_projective.has_valid_t());
        }

        #[test]
        fn t_skipping_straus_matches_the_reference(
            seeds in prop::collection::vec(any::<[u8; 32]>(), 2..9),
            zero_mask: u8,
        ) {
            let pairs: Vec<(Scalar, EdwardsPoint)> = seeds
                .chunks_exact(2)
                .enumerate()
                .map(|(i, s)| {
                    let z = if zero_mask >> i & 1 == 1 {
                        Scalar::ZERO
                    } else {
                        Scalar::from_bytes_reduced(&s[0])
                    };
                    (z, point(&s[1]))
                })
                .collect();
            let tables: Vec<[ProjectiveNiels; 8]> =
                pairs.iter().map(|(_, p)| odd_multiples(p)).collect();
            let terms: Vec<(Vec<i8>, &[ProjectiveNiels; 8])> = pairs
                .iter()
                .zip(&tables)
                .map(|((z, _), table)| (z.wnaf5(), table))
                .collect();
            let reference: Vec<(Vec<i8>, [EdwardsPoint; 8])> = pairs
                .iter()
                .map(|(z, p)| (z.wnaf5(), odd_multiples_reference(p)))
                .collect();
            let result = straus_vartime(&terms);
            prop_assert_eq!(result, straus_reference(&reference));
            prop_assert!(result.has_valid_t());
        }

        #[test]
        fn sign_verify_roundtrip(seed: [u8; 32], message: Vec<u8>) {
            let key = SigningKey::from_seed(&seed);
            let sig = key.sign(&message);
            prop_assert!(key.verifying_key().verify(&message, &sig).is_ok());
        }

        #[test]
        fn signatures_are_deterministic(seed: [u8; 32], message: Vec<u8>) {
            let key = SigningKey::from_seed(&seed);
            prop_assert_eq!(key.sign(&message).to_bytes(), key.sign(&message).to_bytes());
        }

        #[test]
        fn fixed_base_matches_reference(bytes: [u8; 32]) {
            let s = Scalar::from_bytes_reduced(&bytes);
            let p = EdwardsPoint::mul_base(&s);
            prop_assert_eq!(p, EdwardsPoint::basepoint().scalar_mul(&s));
            prop_assert!(p.has_valid_t());
        }

        #[test]
        fn straus_verify_matches_sequential_on_valid_and_corrupted(
            seed: [u8; 32],
            message: Vec<u8>,
            flip_byte in 0usize..64,
            flip_bit in 0u8..8,
        ) {
            let key = SigningKey::from_seed(&seed);
            let vk = key.verifying_key();
            let good = key.sign(&message);
            // Valid signature: both paths accept.
            prop_assert_eq!(vk.verify(&message, &good), verify_sequential(&vk, &message, &good));
            prop_assert!(vk.verify(&message, &good).is_ok());
            // Corrupted signature (possibly invalid R encoding, wrong S,
            // or — rarely — still the same point): identical verdicts.
            let mut bytes = good.to_bytes();
            bytes[flip_byte] ^= 1 << flip_bit;
            let bad = Signature::from_bytes(bytes);
            prop_assert_eq!(vk.verify(&message, &bad), verify_sequential(&vk, &message, &bad));
            // Non-canonical S: both reject.
            let mut high_s = good.to_bytes();
            for b in high_s[32..].iter_mut() {
                *b = 0xff;
            }
            let high = Signature::from_bytes(high_s);
            prop_assert_eq!(
                vk.verify(&message, &high),
                verify_sequential(&vk, &message, &high)
            );
            prop_assert!(vk.verify(&message, &high).is_err());
        }
    }
}
