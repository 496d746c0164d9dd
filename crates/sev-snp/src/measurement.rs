//! Launch measurements: the SHA-384 digest the AMD-SP takes over the
//! guest's initial memory context.
//!
//! Under plain direct boot only the virtual firmware volume is loaded before
//! the digest is finalized, so the measurement covers *only the firmware*
//! (§2.1.2 of the paper). Revelio's measured direct boot embeds a hash
//! table for kernel/initrd/cmdline inside the firmware image, which makes
//! this single digest transitively cover the whole boot chain — that logic
//! lives in `revelio-boot`; this module just measures bytes faithfully.

use std::fmt;

use revelio_crypto::hex;
use revelio_crypto::sha2::{HashFunction, Sha384};

/// A SHA-384 launch measurement (48 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement([u8; 48]);

impl Measurement {
    /// Measures an initial guest memory context (the firmware volume, under
    /// direct boot).
    ///
    /// The digest is domain-separated so a measurement can never collide
    /// with a plain file hash of the same bytes.
    #[must_use]
    pub fn of_launch_context(initial_memory: &[u8]) -> Self {
        let mut h = Sha384::new();
        h.update(b"snp-launch-digest/v1");
        h.update(&(initial_memory.len() as u64).to_le_bytes());
        h.update(initial_memory);
        Measurement(h.finalize_fixed())
    }

    /// Wraps raw digest bytes (e.g. parsed from a report).
    #[must_use]
    pub fn from_bytes(bytes: [u8; 48]) -> Self {
        Measurement(bytes)
    }

    /// The raw digest bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 48] {
        &self.0
    }

    /// Lowercase hex encoding — the "golden value" format end-users and
    /// trusted registries exchange.
    #[must_use]
    pub fn to_hex(&self) -> String {
        hex::encode(self.0)
    }
}

impl fmt::Debug for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Measurement({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn measurement_is_deterministic() {
        let a = Measurement::of_launch_context(b"firmware");
        let b = Measurement::of_launch_context(b"firmware");
        assert_eq!(a, b);
    }

    #[test]
    fn single_bit_flip_changes_measurement() {
        let a = Measurement::of_launch_context(b"firmware");
        let b = Measurement::of_launch_context(b"firmwarf");
        assert_ne!(a, b);
    }

    #[test]
    fn measurement_differs_from_plain_hash() {
        use revelio_crypto::sha2::Sha384;
        let m = Measurement::of_launch_context(b"fw");
        assert_ne!(m.as_bytes()[..], Sha384::digest(b"fw")[..]);
    }

    #[test]
    fn display_is_full_hex() {
        let m = Measurement::of_launch_context(b"fw");
        assert_eq!(m.to_string().len(), 96);
    }

    proptest! {
        #[test]
        fn distinct_contexts_distinct_measurements(a: Vec<u8>, b: Vec<u8>) {
            prop_assume!(a != b);
            prop_assert_ne!(
                Measurement::of_launch_context(&a),
                Measurement::of_launch_context(&b)
            );
        }
    }
}
