//! A dm-crypt analogue: transparent AES-XTS sector encryption with a
//! LUKS-style superblock and PBKDF2 key slot.
//!
//! Mirrors the paper's `cryptsetup` configuration (§6.3.1):
//! `aes-xts-plain64` with a PBKDF2-derived key (1000 iterations). In a
//! Revelio VM the passphrase is the SEV-SNP sealing key derived from the
//! launch measurement, so the volume only unlocks inside an
//! identically-measured VM on the same chip (§3.4.8).

use std::sync::Arc;

use revelio_crypto::hmac::Hmac;
use revelio_crypto::kdf::pbkdf2;
use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::{ByteReader, ByteWriter};
use revelio_crypto::xts::Xts;

use crate::block::BlockDevice;
use crate::StorageError;

/// Key-derivation parameters stored in the superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CryptParams {
    /// PBKDF2 iteration count; the paper's evaluation uses 1000.
    pub iterations: u32,
    /// Salt for the key slot (fixed default keeps builds reproducible; a
    /// deployment derives it from the image identity).
    pub salt: [u8; 32],
}

impl Default for CryptParams {
    fn default() -> Self {
        CryptParams {
            iterations: 1000,
            salt: [0x5a; 32],
        }
    }
}

const MAGIC: &[u8; 4] = b"RVCR";
const VERSION: u16 = 1;
/// Master key length: 64 bytes = two AES-256 keys for XTS.
const MASTER_KEY_LEN: usize = 64;

fn derive_master_key(passphrase: &[u8], params: &CryptParams) -> Vec<u8> {
    pbkdf2::<Sha256>(passphrase, &params.salt, params.iterations, MASTER_KEY_LEN)
}

fn key_check_value(master_key: &[u8]) -> [u8; 32] {
    Hmac::<Sha256>::mac(master_key, b"revelio-crypt-key-check")
        .try_into()
        .expect("32 bytes")
}

/// An unlocked encrypted volume mapped over a backing device.
///
/// Block 0 of the backing device holds the superblock; data blocks are
/// shifted by one and encrypted with XTS using the data block index as the
/// `plain64` sector number.
pub struct CryptDevice {
    backing: Arc<dyn BlockDevice>,
    xts: Xts,
}

impl std::fmt::Debug for CryptDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CryptDevice")
            .field("data_blocks", &self.block_count())
            .finish_non_exhaustive()
    }
}

impl CryptDevice {
    /// Formats `backing` as an encrypted volume keyed by `passphrase` and
    /// returns it unlocked.
    ///
    /// This is the "dm-crypt setup" step of the paper's Table 1: deriving
    /// the key (PBKDF2) and writing the superblock. The returned device is
    /// keyed from the master key just derived, so first boot pays for one
    /// derivation, not a second one in [`CryptDevice::open`]; that key never
    /// came from the host-writable superblock. Existing data block contents
    /// are left in place but become meaningless ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadSuperblock`] when the device is too small
    /// (needs at least two blocks) or the block size cannot hold the
    /// superblock / XTS blocks (must be a multiple of 16, at least 128).
    pub fn format(
        backing: Arc<dyn BlockDevice>,
        passphrase: &[u8],
        params: &CryptParams,
    ) -> Result<Self, StorageError> {
        Self::check_geometry(backing.as_ref())?;
        let master_key = derive_master_key(passphrase, params);
        let xts = Xts::new(&master_key)?;
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u16(VERSION);
        w.put_u32(params.iterations);
        w.put_bytes(&params.salt);
        w.put_bytes(&key_check_value(&master_key));
        let encoded = w.into_bytes();
        let mut block0 = vec![0u8; backing.block_size()];
        block0[..encoded.len()].copy_from_slice(&encoded);
        backing.write_block(0, &block0)?;
        Ok(CryptDevice { backing, xts })
    }

    fn check_geometry(backing: &dyn BlockDevice) -> Result<(), StorageError> {
        let bs = backing.block_size();
        if bs < 128 || !bs.is_multiple_of(16) {
            return Err(StorageError::BadSuperblock(format!(
                "block size {bs} unsupported for xts volume"
            )));
        }
        if backing.block_count() < 2 {
            return Err(StorageError::BadSuperblock(
                "device too small for superblock plus data".into(),
            ));
        }
        Ok(())
    }

    /// Returns `true` when the device's superblock region is pristine
    /// (all zeros) — i.e. the volume was never formatted. Used by first
    /// boot to distinguish "new disk" from "tampered or foreign
    /// superblock", which must fail closed instead of being reformatted.
    ///
    /// # Errors
    ///
    /// Propagates device read errors.
    pub fn is_pristine(backing: &dyn BlockDevice) -> Result<bool, StorageError> {
        let mut block0 = vec![0u8; backing.block_size()];
        backing.read_block(0, &mut block0)?;
        Ok(block0.iter().all(|&b| b == 0))
    }

    /// Unlocks a formatted volume.
    ///
    /// The caller supplies the *expected* KDF parameters (in Revelio these
    /// come from the measured init configuration): the host-writable
    /// superblock is only trusted to match them, never to dictate them —
    /// otherwise a hostile superblock could demand `u32::MAX` PBKDF2
    /// iterations as a pre-authentication CPU DoS, or swap the salt.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadSuperblock`] when no volume is present or
    /// the stored parameters disagree with `expected`, and
    /// [`StorageError::WrongKey`] when `passphrase` fails the key check —
    /// the failure an attacker (or a differently-measured VM) sees.
    pub fn open(
        backing: Arc<dyn BlockDevice>,
        passphrase: &[u8],
        expected: &CryptParams,
    ) -> Result<Self, StorageError> {
        Self::check_geometry(backing.as_ref())?;
        let mut block0 = vec![0u8; backing.block_size()];
        backing.read_block(0, &mut block0)?;
        let mut r = ByteReader::new(&block0);
        let magic = r.get_array::<4>()?;
        if &magic != MAGIC {
            return Err(StorageError::BadSuperblock(
                "missing crypt volume magic".into(),
            ));
        }
        let version = r.get_u16()?;
        if version != VERSION {
            return Err(StorageError::BadSuperblock(format!(
                "unsupported crypt volume version {version}"
            )));
        }
        let iterations = r.get_u32()?;
        if iterations == 0 {
            return Err(StorageError::BadSuperblock("zero kdf iterations".into()));
        }
        let salt = r.get_array::<32>()?;
        let stored_check = r.get_array::<32>()?;
        if iterations != expected.iterations || salt != expected.salt {
            return Err(StorageError::BadSuperblock(
                "superblock kdf parameters disagree with measured configuration".into(),
            ));
        }
        let params = CryptParams { iterations, salt };
        let master_key = derive_master_key(passphrase, &params);
        if !revelio_crypto::ct::eq(&key_check_value(&master_key), &stored_check) {
            return Err(StorageError::WrongKey);
        }
        let xts = Xts::new(&master_key)?;
        Ok(CryptDevice { backing, xts })
    }
}

impl BlockDevice for CryptDevice {
    fn block_size(&self) -> usize {
        self.backing.block_size()
    }

    fn block_count(&self) -> u64 {
        self.backing.block_count() - 1
    }

    fn read_block(&self, index: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        if index >= self.block_count() {
            return Err(StorageError::OutOfRange {
                block: index,
                device_blocks: self.block_count(),
            });
        }
        self.backing.read_block(index + 1, buf)?;
        let plain = self.xts.decrypt_sector(index, buf)?;
        buf.copy_from_slice(&plain);
        Ok(())
    }

    fn write_block(&self, index: u64, data: &[u8]) -> Result<(), StorageError> {
        if index >= self.block_count() {
            return Err(StorageError::OutOfRange {
                block: index,
                device_blocks: self.block_count(),
            });
        }
        if data.len() != self.block_size() {
            return Err(StorageError::WrongBufferSize {
                got: data.len(),
                expected: self.block_size(),
            });
        }
        let cipher = self.xts.encrypt_sector(index, data)?;
        self.backing.write_block(index + 1, &cipher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;
    use proptest::prelude::*;
    use revelio_crypto::metrics::thread_sha256_blocks;

    const BS: usize = 512;

    fn backing(blocks: u64) -> Arc<MemBlockDevice> {
        Arc::new(MemBlockDevice::new(BS, blocks))
    }

    fn fast_params() -> CryptParams {
        CryptParams {
            iterations: 2,
            salt: [1; 32],
        }
    }

    #[test]
    fn format_open_roundtrip() {
        // The device `format` returns and the one `open` unlocks later
        // share one key: what the first writes, the second reads.
        let dev = backing(8);
        let formatted =
            CryptDevice::format(Arc::clone(&dev) as _, b"sealing key", &fast_params()).unwrap();
        let data = vec![0xabu8; BS];
        formatted.write_block(0, &data).unwrap();
        let vol = CryptDevice::open(Arc::clone(&dev) as _, b"sealing key", &fast_params()).unwrap();
        let mut buf = vec![0u8; BS];
        vol.read_block(0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn format_derives_the_key_once() {
        // One PBKDF2 derivation at the paper's 1000 iterations costs 4002
        // SHA-256 compressions, the key-check HMAC 4 more; an `open` after
        // `format` would pay for both again.
        let before = thread_sha256_blocks();
        let _vol =
            CryptDevice::format(backing(8) as _, b"sealing key", &CryptParams::default()).unwrap();
        assert_eq!(thread_sha256_blocks() - before, 4002 + 4);
    }

    #[test]
    fn wrong_key_rejected() {
        let dev = backing(8);
        CryptDevice::format(Arc::clone(&dev) as _, b"good key", &fast_params()).unwrap();
        assert_eq!(
            CryptDevice::open(Arc::clone(&dev) as _, b"evil key", &fast_params()).err(),
            Some(StorageError::WrongKey)
        );
    }

    #[test]
    fn ciphertext_differs_from_plaintext_on_medium() {
        let dev = backing(8);
        let vol = CryptDevice::format(Arc::clone(&dev) as _, b"k", &fast_params()).unwrap();
        let plain = vec![0x77u8; BS];
        vol.write_block(2, &plain).unwrap();
        let mut raw = vec![0u8; BS];
        dev.read_block(3, &mut raw).unwrap(); // +1 for superblock
        assert_ne!(raw, plain);
        // ECB-style repetition must not appear either.
        assert_ne!(&raw[..16], &raw[16..32]);
    }

    #[test]
    fn data_persists_across_reopen() {
        // The paper's shutdown/restart scenario: same measurement-derived
        // key unlocks the data again.
        let dev = backing(8);
        {
            let vol = CryptDevice::format(Arc::clone(&dev) as _, b"k", &fast_params()).unwrap();
            vol.write_block(1, &vec![3u8; BS]).unwrap();
        }
        let vol = CryptDevice::open(Arc::clone(&dev) as _, b"k", &fast_params()).unwrap();
        let mut buf = vec![0u8; BS];
        vol.read_block(1, &mut buf).unwrap();
        assert_eq!(buf, vec![3u8; BS]);
    }

    #[test]
    fn unformatted_device_rejected() {
        assert!(matches!(
            CryptDevice::open(backing(8) as _, b"k", &fast_params()),
            Err(StorageError::BadSuperblock(_))
        ));
    }

    #[test]
    fn too_small_device_rejected() {
        assert!(CryptDevice::format(backing(1) as _, b"k", &fast_params()).is_err());
    }

    #[test]
    fn odd_block_size_rejected() {
        let dev = Arc::new(MemBlockDevice::new(100, 4));
        assert!(CryptDevice::format(dev as _, b"k", &fast_params()).is_err());
    }

    #[test]
    fn superblock_reserves_first_block() {
        let dev = backing(8);
        let vol = CryptDevice::format(Arc::clone(&dev) as _, b"k", &fast_params()).unwrap();
        assert_eq!(vol.block_count(), 7);
        let mut buf = vec![0u8; BS];
        assert!(vol.read_block(7, &mut buf).is_err());
    }

    #[test]
    fn iterations_affect_key() {
        let d1 = backing(4);
        let d2 = backing(4);
        CryptDevice::format(
            Arc::clone(&d1) as _,
            b"k",
            &CryptParams {
                iterations: 2,
                salt: [1; 32],
            },
        )
        .unwrap();
        CryptDevice::format(
            Arc::clone(&d2) as _,
            b"k",
            &CryptParams {
                iterations: 3,
                salt: [1; 32],
            },
        )
        .unwrap();
        let mut s1 = vec![0u8; BS];
        let mut s2 = vec![0u8; BS];
        d1.read_block(0, &mut s1).unwrap();
        d2.read_block(0, &mut s2).unwrap();
        assert_ne!(s1, s2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn roundtrip_random_blocks(seed: u8, index in 0u64..7) {
            let vol = CryptDevice::format(backing(8) as _, b"k", &fast_params()).unwrap();
            let data: Vec<u8> = (0..BS).map(|i| (i as u8).wrapping_add(seed)).collect();
            vol.write_block(index, &data).unwrap();
            let mut buf = vec![0u8; BS];
            vol.read_block(index, &mut buf).unwrap();
            prop_assert_eq!(buf, data);
        }
    }
}
