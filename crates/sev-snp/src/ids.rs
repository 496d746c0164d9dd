//! Platform and guest identities: chip IDs, TCB versions, guest policies.

use std::fmt;

use revelio_crypto::hex;
use revelio_crypto::sha2::Sha512;
use revelio_crypto::wire::{ByteReader, ByteWriter, WireError};

/// The unique, immutable identifier of a physical SEV-SNP processor.
///
/// Real chips expose a 64-byte ID derived from fused secrets; the simulator
/// derives one deterministically from a seed so fleets of distinct
/// "machines" can be manufactured in tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChipId([u8; 64]);

impl ChipId {
    /// Byte length of a chip ID.
    pub const LEN: usize = 64;

    /// Creates a chip ID from raw bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 64]) -> Self {
        ChipId(bytes)
    }

    /// Deterministically manufactures the ID of the `n`-th simulated chip.
    #[must_use]
    pub fn from_seed(n: u64) -> Self {
        let mut input = *b"sev-snp-sim chip id                                             ";
        input[..8].copy_from_slice(&n.to_le_bytes());
        ChipId(Sha512::digest(input))
    }

    /// The raw 64 bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }

    /// Lowercase hex encoding.
    #[must_use]
    pub(crate) fn to_hex(self) -> String {
        hex::encode(self.0)
    }
}

impl fmt::Debug for ChipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChipId({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for ChipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// The security-patch level of the platform's trusted components.
///
/// Mirrors the SEV-SNP `TCB_VERSION` layout: four independently-versioned
/// firmware components packed into a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TcbVersion {
    /// AMD-SP bootloader security version number.
    pub bootloader: u8,
    /// AMD-SP OS (TEE) security version number.
    pub tee: u8,
    /// SNP firmware security version number.
    pub snp: u8,
    /// CPU microcode security version number.
    pub microcode: u8,
}

impl TcbVersion {
    /// Creates a TCB version from its four components.
    #[must_use]
    pub fn new(bootloader: u8, tee: u8, snp: u8, microcode: u8) -> Self {
        TcbVersion {
            bootloader,
            tee,
            snp,
            microcode,
        }
    }

    /// Packs into the on-report `u64` form.
    #[must_use]
    pub fn to_u64(self) -> u64 {
        u64::from(self.bootloader)
            | (u64::from(self.tee) << 8)
            | (u64::from(self.snp) << 48)
            | (u64::from(self.microcode) << 56)
    }

    /// Whether every component is at least `floor`'s: the TCB-floor
    /// check against firmware downgrade. Never compare the packed
    /// [`TcbVersion::to_u64`]: its top byte is the microcode, so a newer
    /// microcode would mask an older SNP firmware.
    #[must_use]
    pub fn meets(self, floor: TcbVersion) -> bool {
        self.bootloader >= floor.bootloader
            && self.tee >= floor.tee
            && self.snp >= floor.snp
            && self.microcode >= floor.microcode
    }

    /// Unpacks from the on-report `u64` form.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        TcbVersion {
            bootloader: v as u8,
            tee: (v >> 8) as u8,
            snp: (v >> 48) as u8,
            microcode: (v >> 56) as u8,
        }
    }
}

impl fmt::Display for TcbVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bl{}-tee{}-snp{}-ucode{}",
            self.bootloader, self.tee, self.snp, self.microcode
        )
    }
}

/// The guest policy supplied at launch and echoed in every report.
///
/// The hypervisor cannot weaken it after launch; verifiers reject reports
/// whose policy permits debugging (which would let the host read guest
/// memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GuestPolicy {
    /// Minimum ABI major version the guest requires.
    pub abi_major: u8,
    /// Minimum ABI minor version the guest requires.
    pub abi_minor: u8,
    /// Whether the host may attach a debugger (decrypts guest memory!).
    pub debug_allowed: bool,
    /// Whether migration agents may move this guest between machines.
    pub migrate_allowed: bool,
    /// Whether simultaneous multithreading is permitted on the host.
    pub smt_allowed: bool,
    /// Restrict the guest to a single CPU socket.
    pub single_socket: bool,
}

impl Default for GuestPolicy {
    /// The paper's deployment policy: no debug, no migration, SMT allowed.
    fn default() -> Self {
        GuestPolicy {
            abi_major: 1,
            abi_minor: 51,
            debug_allowed: false,
            migrate_allowed: false,
            smt_allowed: true,
            single_socket: false,
        }
    }
}

impl GuestPolicy {
    /// Packs into the on-report `u64` form.
    #[must_use]
    pub(crate) fn to_u64(self) -> u64 {
        u64::from(self.abi_minor)
            | (u64::from(self.abi_major) << 8)
            | (u64::from(self.smt_allowed) << 16)
            | (u64::from(self.migrate_allowed) << 18)
            | (u64::from(self.debug_allowed) << 19)
            | (u64::from(self.single_socket) << 20)
    }

    /// Unpacks from the on-report `u64` form.
    #[must_use]
    pub(crate) fn from_u64(v: u64) -> Self {
        GuestPolicy {
            abi_minor: v as u8,
            abi_major: (v >> 8) as u8,
            smt_allowed: (v >> 16) & 1 == 1,
            migrate_allowed: (v >> 18) & 1 == 1,
            debug_allowed: (v >> 19) & 1 == 1,
            single_socket: (v >> 20) & 1 == 1,
        }
    }

    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.to_u64());
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(GuestPolicy::from_u64(r.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chip_ids_are_distinct_per_seed() {
        assert_ne!(ChipId::from_seed(1), ChipId::from_seed(2));
        assert_eq!(ChipId::from_seed(7), ChipId::from_seed(7));
    }

    #[test]
    fn tcb_u64_roundtrip_known_layout() {
        let tcb = TcbVersion::new(2, 0, 6, 115);
        let packed = tcb.to_u64();
        assert_eq!(packed & 0xff, 2);
        assert_eq!((packed >> 56) & 0xff, 115);
        assert_eq!(TcbVersion::from_u64(packed), tcb);
    }

    #[test]
    fn tcb_ordering_tracks_components() {
        let old = TcbVersion::new(1, 0, 6, 100);
        let new = TcbVersion::new(1, 0, 8, 100);
        assert!(new > old);
    }

    #[test]
    fn tcb_floor_is_componentwise() {
        let platform = TcbVersion::new(1, 0, 8, 115);
        assert!(platform.meets(platform));
        assert!(platform.meets(TcbVersion::new(1, 0, 8, 100)));
        assert!(!platform.meets(TcbVersion::new(1, 0, 9, 115)));
        // Packed, the newer microcode outweighs the older SNP firmware;
        // componentwise, the SNP firmware is below the floor.
        let floor = TcbVersion::new(1, 0, 9, 114);
        assert!(platform.to_u64() > floor.to_u64());
        assert!(!platform.meets(floor));
    }

    #[test]
    fn default_policy_forbids_debug() {
        let p = GuestPolicy::default();
        assert!(!p.debug_allowed);
        assert!(!p.migrate_allowed);
    }

    proptest! {
        #[test]
        fn policy_u64_roundtrip(
            abi_major: u8, abi_minor: u8,
            debug: bool, migrate: bool, smt: bool, single: bool,
        ) {
            let p = GuestPolicy {
                abi_major, abi_minor,
                debug_allowed: debug,
                migrate_allowed: migrate,
                smt_allowed: smt,
                single_socket: single,
            };
            prop_assert_eq!(GuestPolicy::from_u64(p.to_u64()), p);
        }

        #[test]
        fn tcb_u64_roundtrip(b: u8, t: u8, s: u8, m: u8) {
            let tcb = TcbVersion::new(b, t, s, m);
            prop_assert_eq!(TcbVersion::from_u64(tcb.to_u64()), tcb);
        }
    }
}
