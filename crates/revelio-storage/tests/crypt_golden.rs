//! Byte-level pin of a freshly formatted dm-crypt volume.
//!
//! Formats a volume with the default [`CryptParams`] (PBKDF2, 1000
//! iterations) under a fixed passphrase, seals one sector through the
//! device `format` returns, and hashes the raw superblock plus that sealed
//! sector into one SHA-256 digest. Any change to the key derivation, the
//! superblock layout or the XTS keying that moves a single on-disk byte
//! moves the digest.

use std::sync::Arc;

use revelio_crypto::hex;
use revelio_crypto::sha2::Sha256;
use revelio_storage::block::{BlockDevice, MemBlockDevice};
use revelio_storage::crypt::{CryptDevice, CryptParams};

const BLOCK: usize = 4096;
const PASSPHRASE: &[u8] = b"revelio-golden/crypt";

#[test]
fn crypt_volume_is_pinned() {
    let backing = Arc::new(MemBlockDevice::new(BLOCK, 4));
    let params = CryptParams::default();
    let volume = CryptDevice::format(Arc::clone(&backing) as _, PASSPHRASE, &params)
        .expect("format a fresh in-memory volume");
    let sector: Vec<u8> = (0..BLOCK).map(|i| (i * 31 + 7) as u8).collect();
    volume
        .write_block(0, &sector)
        .expect("seal the first sector");

    // Block 0 is the superblock, block 1 the first sealed sector.
    let mut transcript = vec![0u8; 2 * BLOCK];
    for (index, raw) in transcript.chunks_exact_mut(BLOCK).enumerate() {
        backing
            .read_block(index as u64, raw)
            .expect("read the backing device");
    }
    assert_eq!(
        hex::encode(Sha256::digest(&transcript)),
        "01fd16c766bf145432fa1fb00755affed99b094f19e3920c0bf80a5973499950"
    );
}
