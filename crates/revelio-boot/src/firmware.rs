//! The virtual firmware (OVMF's role) with its measured-boot hash table.
//!
//! The firmware *image bytes* — code identity plus the injected hash table —
//! are exactly what the AMD-SP measures at launch (Fig. 1 of the paper).
//! Its *behaviour* (verify the host-provided blobs, or not) is a property
//! of the code, so a firmware that skips verification necessarily has a
//! different code identity and therefore a different launch measurement:
//! the attack analysis of §6.1.1 falls out of the construction.

use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::ByteWriter;
use sev_snp::measurement::Measurement;

use crate::error::{BootComponent, BootError};

/// The hash table QEMU injects into the firmware volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashTable {
    /// SHA-256 of the kernel blob.
    pub(crate) kernel: [u8; 32],
    /// SHA-256 of the initrd blob.
    pub(crate) initrd: [u8; 32],
    /// SHA-256 of the kernel command line (UTF-8 bytes).
    pub(crate) cmdline: [u8; 32],
}

impl HashTable {
    /// Hashes the actual blobs (the honest loader's behaviour).
    #[must_use]
    pub fn of(kernel: &[u8], initrd: &[u8], cmdline: &str) -> Self {
        HashTable {
            kernel: Sha256::digest(kernel),
            initrd: Sha256::digest(initrd),
            cmdline: Sha256::digest(cmdline.as_bytes()),
        }
    }
}

/// Which firmware build is loaded — each kind is a distinct code identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirmwareKind {
    /// The patched OVMF: carries a hash table and refuses to boot blobs
    /// that do not match it.
    MeasuredDirectBoot,
    /// Stock OVMF: no hash table, no verification — the pre-Revelio world
    /// where the measurement covers the firmware alone.
    LegacyNoVerify,
    /// A malicious build that *carries* a table but skips the checks. Its
    /// different code identity shows up in the measurement (§6.1.1: "if
    /// the host replaces the OVMF with a malicious version that does not
    /// verify the hashes, then this will be reflected on the measurements").
    MaliciousSkipVerify,
}

impl FirmwareKind {
    fn code_identity(self) -> &'static [u8] {
        match self {
            FirmwareKind::MeasuredDirectBoot => b"ovmf-measured-direct-boot-v1",
            FirmwareKind::LegacyNoVerify => b"ovmf-stock-edk2-v1",
            FirmwareKind::MaliciousSkipVerify => b"ovmf-patched-no-verify",
        }
    }

    fn verifies(self) -> bool {
        matches!(self, FirmwareKind::MeasuredDirectBoot)
    }

    fn carries_table(self) -> bool {
        !matches!(self, FirmwareKind::LegacyNoVerify)
    }
}

/// A firmware volume ready to be measured and launched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FirmwareImage {
    kind: FirmwareKind,
    hash_table: Option<HashTable>,
}

impl FirmwareImage {
    /// Assembles the firmware volume the hypervisor hands to the AMD-SP.
    ///
    /// For table-carrying kinds, `table` is embedded; the legacy build
    /// ignores it.
    #[must_use]
    pub(crate) fn assemble(kind: FirmwareKind, table: HashTable) -> Self {
        FirmwareImage {
            kind,
            hash_table: kind.carries_table().then_some(table),
        }
    }

    /// The exact bytes the AMD-SP measures: code identity plus table.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"FWVOL1");
        w.put_var_bytes(self.kind.code_identity());
        match &self.hash_table {
            None => {
                w.put_u8(0);
            }
            Some(t) => {
                w.put_u8(1);
                w.put_bytes(&t.kernel);
                w.put_bytes(&t.initrd);
                w.put_bytes(&t.cmdline);
            }
        }
        w.into_bytes()
    }

    /// The guest-side verification the firmware performs after launch:
    /// re-hash what the host actually provided and compare to the table.
    ///
    /// # Errors
    ///
    /// Returns [`BootError::HashMismatch`] naming the first mismatching
    /// component (verifying builds only), or [`BootError::MissingHashTable`]
    /// when a verifying build somehow lacks its table.
    pub(crate) fn verify_blobs(
        &self,
        kernel: &[u8],
        initrd: &[u8],
        cmdline: &str,
    ) -> Result<(), BootError> {
        if !self.kind.verifies() {
            return Ok(());
        }
        let table = self
            .hash_table
            .as_ref()
            .ok_or(BootError::MissingHashTable)?;
        let actual = HashTable::of(kernel, initrd, cmdline);
        if !revelio_crypto::ct::eq(&actual.kernel, &table.kernel) {
            return Err(BootError::HashMismatch(BootComponent::Kernel));
        }
        if !revelio_crypto::ct::eq(&actual.initrd, &table.initrd) {
            return Err(BootError::HashMismatch(BootComponent::Initrd));
        }
        if !revelio_crypto::ct::eq(&actual.cmdline, &table.cmdline) {
            return Err(BootError::HashMismatch(BootComponent::Cmdline));
        }
        Ok(())
    }
}

/// Computes the launch measurement an auditor *expects* for a given boot
/// configuration — the golden value registered for end-user verification
/// (§3.4.7). Reproduces the AMD-SP's computation without hardware access.
#[must_use]
pub fn expected_measurement(
    kind: FirmwareKind,
    kernel: &[u8],
    initrd: &[u8],
    cmdline: &str,
) -> Measurement {
    let fw = FirmwareImage::assemble(kind, HashTable::of(kernel, initrd, cmdline));
    Measurement::of_launch_context(&fw.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_blobs_verify() {
        let fw = FirmwareImage::assemble(
            FirmwareKind::MeasuredDirectBoot,
            HashTable::of(b"kern", b"initrd", "root=/x"),
        );
        fw.verify_blobs(b"kern", b"initrd", "root=/x").unwrap();
    }

    #[test]
    fn each_component_lie_is_caught() {
        let fw = FirmwareImage::assemble(
            FirmwareKind::MeasuredDirectBoot,
            HashTable::of(b"kern", b"initrd", "root=/x"),
        );
        assert_eq!(
            fw.verify_blobs(b"evil", b"initrd", "root=/x"),
            Err(BootError::HashMismatch(BootComponent::Kernel))
        );
        assert_eq!(
            fw.verify_blobs(b"kern", b"evil", "root=/x"),
            Err(BootError::HashMismatch(BootComponent::Initrd))
        );
        assert_eq!(
            fw.verify_blobs(b"kern", b"initrd", "root=/evil"),
            Err(BootError::HashMismatch(BootComponent::Cmdline))
        );
    }

    #[test]
    fn malicious_firmware_skips_checks_but_measures_differently() {
        let table = HashTable::of(b"kern", b"initrd", "root=/x");
        let honest = FirmwareImage::assemble(FirmwareKind::MeasuredDirectBoot, table);
        let evil = FirmwareImage::assemble(FirmwareKind::MaliciousSkipVerify, table);
        // Skips verification...
        evil.verify_blobs(b"anything", b"goes", "here").unwrap();
        // ...but cannot impersonate the honest firmware's measurement.
        assert_ne!(
            Measurement::of_launch_context(&honest.to_bytes()),
            Measurement::of_launch_context(&evil.to_bytes()),
        );
    }

    #[test]
    fn legacy_firmware_measurement_ignores_blobs() {
        // The pre-Revelio hole: two different kernels, same measurement.
        let a = expected_measurement(FirmwareKind::LegacyNoVerify, b"kern-a", b"i", "c");
        let b = expected_measurement(FirmwareKind::LegacyNoVerify, b"kern-b", b"i", "c");
        assert_eq!(a, b);
    }

    #[test]
    fn measured_boot_measurement_covers_all_blobs() {
        let base = expected_measurement(FirmwareKind::MeasuredDirectBoot, b"k", b"i", "c");
        assert_ne!(
            base,
            expected_measurement(FirmwareKind::MeasuredDirectBoot, b"K", b"i", "c")
        );
        assert_ne!(
            base,
            expected_measurement(FirmwareKind::MeasuredDirectBoot, b"k", b"I", "c")
        );
        assert_ne!(
            base,
            expected_measurement(FirmwareKind::MeasuredDirectBoot, b"k", b"i", "C")
        );
    }

    #[test]
    fn firmware_bytes_deterministic() {
        let t = HashTable::of(b"k", b"i", "c");
        assert_eq!(
            FirmwareImage::assemble(FirmwareKind::MeasuredDirectBoot, t).to_bytes(),
            FirmwareImage::assemble(FirmwareKind::MeasuredDirectBoot, t).to_bytes()
        );
    }
}
