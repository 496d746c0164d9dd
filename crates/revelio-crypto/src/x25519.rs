//! X25519 Diffie-Hellman key agreement (RFC 7748).
//!
//! Provides the ephemeral key exchange in the [`revelio-tls`](../../revelio_tls)
//! handshake and the node-to-node key agreement the SP node uses when
//! distributing the shared TLS private key.

use crate::ed25519::{EdwardsPoint, Scalar};
use crate::field25519::FieldElement;
use crate::metrics;

/// Length of scalars and u-coordinates in bytes.
pub(crate) const KEY_LEN: usize = 32;

/// The base point u = 9.
#[must_use]
pub fn basepoint() -> [u8; KEY_LEN] {
    let mut b = [0u8; KEY_LEN];
    b[0] = 9;
    b
}

/// Clamps a 32-byte scalar per RFC 7748.
#[must_use]
pub(crate) fn clamp(mut scalar: [u8; KEY_LEN]) -> [u8; KEY_LEN] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// `(A − 2)/4` for Curve25519's `A = 486662`: the ladder's only curve
/// constant, small enough for [`FieldElement::mul_small`].
const A24: u32 = 121_665;

/// Conditional swap driven by a bit (not data-dependent branching).
fn cswap(swap: u64, a: &mut FieldElement, b: &mut FieldElement) {
    let mask = swap.wrapping_neg();
    for i in 0..5 {
        let dummy = mask & (a.0[i] ^ b.0[i]);
        a.0[i] ^= dummy;
        b.0[i] ^= dummy;
    }
}

/// The X25519 function: scalar multiplication on the Montgomery curve.
///
/// `scalar` is clamped internally, matching RFC 7748's `X25519(k, u)`.
///
/// ```
/// use revelio_crypto::x25519::{x25519, basepoint};
/// let alice_secret = [1u8; 32];
/// let bob_secret = [2u8; 32];
/// let alice_public = x25519(&alice_secret, &basepoint());
/// let bob_public = x25519(&bob_secret, &basepoint());
/// assert_eq!(
///     x25519(&alice_secret, &bob_public),
///     x25519(&bob_secret, &alice_public),
/// );
/// ```
#[must_use]
pub fn x25519(scalar: &[u8; KEY_LEN], u: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    metrics::record_scalar_mul(1);
    let k = clamp(*scalar);
    let x1 = FieldElement::from_bytes(u);
    let mut x2 = FieldElement::one();
    let mut z2 = FieldElement::zero();
    let mut x3 = x1;
    let mut z3 = FieldElement::one();
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= k_t;
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(A24)));
    }
    cswap(swap, &mut x2, &mut x3);
    cswap(swap, &mut z2, &mut z3);
    x2.mul(&z2.invert()).to_bytes()
}

/// Derives the public key for a secret scalar.
///
/// Routed through the Ed25519 fixed-base window table via the birational
/// map rather than the Montgomery ladder: the Curve25519 base point
/// `u = 9` is the image of the Edwards basepoint `B` (`u = (1+y)/(1−y)`
/// with `y = 4/5`), and both have prime order `L`, so
/// `X25519(k, 9) = u([k mod L]B)` for every clamped scalar. The table
/// walk costs 64 additions against the ladder's 255 rung computations.
#[must_use]
pub fn public_key(secret: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let clamped = clamp(*secret);
    let s = Scalar::from_bytes_reduced(&clamped);
    let p = EdwardsPoint::mul_base(&s);
    // u = (Z + Y) / (Z − Y); the identity (Z = Y) inverts zero to zero,
    // matching the ladder's output for the low-order input this implies.
    p.montgomery_u()
}

/// Computes the shared secret between `our_secret` and `their_public`.
#[must_use]
pub fn shared_secret(our_secret: &[u8; KEY_LEN], their_public: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    x25519(our_secret, their_public)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    #[test]
    fn rfc7748_iteration_test_one_step() {
        // RFC 7748 §5.2: starting with k = u = basepoint, after one
        // iteration the result is the constant below.
        let k = basepoint();
        let u = basepoint();
        let r = x25519(&k, &u);
        assert_eq!(
            hex::encode(r),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    #[test]
    fn rfc7748_iteration_test_1000_steps() {
        let mut k = basepoint();
        let mut u = basepoint();
        for _ in 0..1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        assert_eq!(
            hex::encode(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn clamping_is_applied() {
        // Two scalars differing only in clamped bits agree.
        let mut s1 = [0x55u8; 32];
        let mut s2 = s1;
        s1[0] = 0x00;
        s2[0] = 0x07; // low three bits cleared by clamping
        assert_eq!(x25519(&s1, &basepoint()), x25519(&s2, &basepoint()));
    }

    #[test]
    fn public_key_via_edwards_matches_the_ladder() {
        for seed in [[0u8; 32], [1u8; 32], [9u8; 32], [0xabu8; 32], [0xffu8; 32]] {
            assert_eq!(
                public_key(&seed),
                x25519(&seed, &basepoint()),
                "seed {seed:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn edwards_fixed_base_public_key_matches_ladder(secret: [u8; 32]) {
            prop_assert_eq!(public_key(&secret), x25519(&secret, &basepoint()));
        }

        #[test]
        fn diffie_hellman_agreement(a: [u8; 32], b: [u8; 32]) {
            let pa = public_key(&a);
            let pb = public_key(&b);
            prop_assert_eq!(shared_secret(&a, &pb), shared_secret(&b, &pa));
        }

        #[test]
        fn distinct_secrets_distinct_publics(a: [u8; 32], b: [u8; 32]) {
            prop_assume!(clamp(a) != clamp(b));
            prop_assert_ne!(public_key(&a), public_key(&b));
        }
    }
}
