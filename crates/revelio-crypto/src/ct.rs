//! Constant-time comparison helpers.
//!
//! MAC tags, measurement digests and sealed-key check values must be compared
//! without leaking the position of the first differing byte.

/// Compares two byte slices in constant time (with respect to content).
///
/// Returns `false` immediately when the lengths differ — length is assumed
/// public for every use in this workspace (tags and digests have fixed
/// sizes).
///
/// ```
/// assert!(revelio_crypto::ct::eq(b"same", b"same"));
/// assert!(!revelio_crypto::ct::eq(b"same", b"diff"));
/// ```
#[must_use]
pub fn eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Selects between two words in constant time: returns `x` when
/// `choice == 1` and `y` when `choice == 0`.
///
/// # Panics
///
/// Debug-asserts that `choice` is 0 or 1.
#[must_use]
pub(crate) fn select_u64(choice: u64, x: u64, y: u64) -> u64 {
    debug_assert!(choice <= 1);
    let mask = choice.wrapping_neg();
    (x & mask) | (y & !mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eq_basic() {
        assert!(eq(&[], &[]));
        assert!(eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!eq(&[1, 2, 3], &[1, 2]));
    }

    #[test]
    fn select_picks_correct_arm() {
        assert_eq!(select_u64(1, 7, 9), 7);
        assert_eq!(select_u64(0, 7, 9), 9);
    }

    proptest! {
        #[test]
        fn eq_matches_std(a: Vec<u8>, b: Vec<u8>) {
            prop_assert_eq!(eq(&a, &b), a == b);
        }

        #[test]
        fn eq_reflexive(a: Vec<u8>) {
            prop_assert!(eq(&a, &a));
        }
    }
}
