//! AES-XTS sector encryption (IEEE 1619), the `aes-xts-plain64` cipher used
//! by `dm-crypt` in the paper's evaluation (§6.3.1).
//!
//! `plain64` means the tweak for a sector is its 64-bit little-endian sector
//! number, zero-extended to 128 bits, encrypted under the second key. Disk
//! sectors are always a multiple of the AES block size, so ciphertext
//! stealing is intentionally not implemented; inputs must be 16-byte
//! aligned.

use crate::aes::Aes;
use crate::CryptoError;

/// An XTS cipher bound to a data key and a tweak key.
///
/// ```
/// use revelio_crypto::xts::Xts;
///
/// // 64-byte key = two AES-256 keys, as cryptsetup's aes-xts-plain64 uses.
/// let xts = Xts::new(&[0x42u8; 64])?;
/// let sector = vec![7u8; 512];
/// let ct = xts.encrypt_sector(3, &sector)?;
/// assert_eq!(xts.decrypt_sector(3, &ct)?, sector);
/// # Ok::<(), revelio_crypto::CryptoError>(())
/// ```
#[derive(Clone)]
pub struct Xts {
    data_cipher: Aes,
    tweak_cipher: Aes,
}

impl std::fmt::Debug for Xts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Xts")
            .field("key_size", &self.data_cipher.key_size())
            .finish_non_exhaustive()
    }
}

/// Multiplies a tweak by alpha in GF(2^128). The tweak is the block read
/// as a little-endian integer, so alpha is a left shift with the carry out
/// of bit 127 folded back as x^7+x^2+x+1, without a data-dependent branch.
fn mul_alpha(tweak: u128) -> u128 {
    (tweak << 1) ^ ((tweak >> 127).wrapping_neg() & 0x87)
}

impl Xts {
    /// Creates an XTS instance from a concatenated double-length key:
    /// 32 bytes (2×AES-128) or 64 bytes (2×AES-256).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeySize`] for other lengths.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let half = match key.len() {
            32 => 16,
            64 => 32,
            n => return Err(CryptoError::InvalidKeySize(n)),
        };
        Ok(Xts {
            data_cipher: Aes::new(&key[..half])?,
            tweak_cipher: Aes::new(&key[half..])?,
        })
    }

    fn check_len(data: &[u8]) -> Result<(), CryptoError> {
        if data.is_empty() || !data.len().is_multiple_of(16) {
            return Err(CryptoError::InvalidLength {
                got: data.len(),
                expected: (data.len() / 16 + 1) * 16,
            });
        }
        Ok(())
    }

    /// Runs `block_cipher` over the sector in XEX form: each block is
    /// masked with its tweak before and after.
    fn crypt_sector(
        &self,
        sector: u64,
        data: &[u8],
        block_cipher: fn(&Aes, &[u8; 16]) -> [u8; 16],
    ) -> Result<Vec<u8>, CryptoError> {
        Self::check_len(data)?;
        let iv = u128::from(sector).to_le_bytes();
        let mut tweak = u128::from_le_bytes(self.tweak_cipher.encrypt_block(&iv));
        let mut out = vec![0u8; data.len()];
        for (o, block) in out.chunks_exact_mut(16).zip(data.as_chunks::<16>().0) {
            let x = u128::from_le_bytes(*block) ^ tweak;
            let y = u128::from_le_bytes(block_cipher(&self.data_cipher, &x.to_le_bytes())) ^ tweak;
            o.copy_from_slice(&y.to_le_bytes());
            tweak = mul_alpha(tweak);
        }
        Ok(out)
    }

    /// Encrypts one sector's worth of data (`16 | len`, non-empty).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] when the input is empty or not
    /// a multiple of the AES block size.
    pub fn encrypt_sector(&self, sector: u64, plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.crypt_sector(sector, plaintext, Aes::encrypt_block)
    }

    /// Decrypts one sector's worth of data.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] when the input is empty or not
    /// a multiple of the AES block size.
    pub fn decrypt_sector(&self, sector: u64, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.crypt_sector(sector, ciphertext, Aes::decrypt_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::sha2::Sha256;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_512_byte_sector() {
        let xts = Xts::new(&[9u8; 64]).unwrap();
        let data = (0..512).map(|i| (i % 251) as u8).collect::<Vec<_>>();
        let ct = xts.encrypt_sector(77, &data).unwrap();
        assert_ne!(ct, data);
        assert_eq!(xts.decrypt_sector(77, &ct).unwrap(), data);
    }

    #[test]
    fn sector_number_changes_ciphertext() {
        let xts = Xts::new(&[9u8; 64]).unwrap();
        let data = vec![0u8; 64];
        let c1 = xts.encrypt_sector(0, &data).unwrap();
        let c2 = xts.encrypt_sector(1, &data).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn identical_blocks_within_sector_differ() {
        // The per-block tweak progression must break ECB-style patterns.
        let xts = Xts::new(&[9u8; 32]).unwrap();
        let data = vec![0xaau8; 48];
        let ct = xts.encrypt_sector(5, &data).unwrap();
        assert_ne!(&ct[0..16], &ct[16..32]);
        assert_ne!(&ct[16..32], &ct[32..48]);
    }

    #[test]
    fn unaligned_input_rejected() {
        let xts = Xts::new(&[9u8; 64]).unwrap();
        assert!(xts.encrypt_sector(0, &[0u8; 15]).is_err());
        assert!(xts.encrypt_sector(0, &[]).is_err());
        assert!(xts.decrypt_sector(0, &[0u8; 17]).is_err());
    }

    #[test]
    fn invalid_key_length_rejected() {
        assert_eq!(
            Xts::new(&[0u8; 48]).unwrap_err(),
            CryptoError::InvalidKeySize(48)
        );
    }

    /// The byte-array multiply-by-alpha the `u128` form replaced, kept
    /// as an oracle.
    fn gf128_mul_alpha(tweak: &mut [u8; 16]) {
        let mut carry = 0u8;
        for b in tweak.iter_mut() {
            let next_carry = *b >> 7;
            *b = (*b << 1) | carry;
            carry = next_carry;
        }
        if carry != 0 {
            tweak[0] ^= 0x87;
        }
    }

    #[test]
    fn gf128_alpha_known_step() {
        // Multiplying 0x80 in the top byte wraps around to 0x87 in byte 0.
        let mut t = [0u8; 16];
        t[15] = 0x80;
        gf128_mul_alpha(&mut t);
        let mut expect = [0u8; 16];
        expect[0] = 0x87;
        assert_eq!(t, expect);
        assert_eq!(mul_alpha(1 << 127), 0x87);

        // Multiplying 1 just shifts.
        let mut t = [0u8; 16];
        t[0] = 1;
        gf128_mul_alpha(&mut t);
        let mut expect = [0u8; 16];
        expect[0] = 2;
        assert_eq!(t, expect);
        assert_eq!(mul_alpha(1), 2);
    }

    #[test]
    fn ieee1619_vector_1() {
        // IEEE 1619-2007 Annex B, vector 1: both keys zero, sector 0.
        let xts = Xts::new(&[0u8; 32]).unwrap();
        let ct = xts.encrypt_sector(0, &[0u8; 32]).unwrap();
        assert_eq!(
            hex::encode(&ct),
            "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e"
        );
        assert_eq!(xts.decrypt_sector(0, &ct).unwrap(), vec![0u8; 32]);
    }

    #[test]
    fn golden_4k_sector_digest() {
        // Pins the on-disk bytes of a full dm-crypt block under the
        // 2xAES-256 key layout the storage crate uses.
        let xts = Xts::new(&[0x42u8; 64]).unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let ct = xts.encrypt_sector(7, &data).unwrap();
        assert_eq!(
            hex::encode(Sha256::digest(&ct)),
            "c613ecbdf719291f6b5fdb50ec408d7c09f86eaac40faa18a7bd86a9760e0f5a"
        );
        assert_eq!(xts.decrypt_sector(7, &ct).unwrap(), data);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(key: [u8; 32], sector: u64, blocks in 1usize..8, seed: u8) {
            let data: Vec<u8> = (0..blocks * 16).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
            let xts = Xts::new(&key).unwrap();
            let ct = xts.encrypt_sector(sector, &data).unwrap();
            prop_assert_eq!(xts.decrypt_sector(sector, &ct).unwrap(), data);
        }

        #[test]
        fn u128_tweak_matches_byte_array(tweak: [u8; 16]) {
            let mut bytes = tweak;
            gf128_mul_alpha(&mut bytes);
            prop_assert_eq!(mul_alpha(u128::from_le_bytes(tweak)).to_le_bytes(), bytes);
        }

        #[test]
        fn wrong_sector_fails_decrypt(key: [u8; 64], s1: u64, s2: u64) {
            prop_assume!(s1 != s2);
            let xts = Xts::new(&key).unwrap();
            let data = vec![5u8; 32];
            let ct = xts.encrypt_sector(s1, &data).unwrap();
            prop_assert_ne!(xts.decrypt_sector(s2, &ct).unwrap(), data);
        }
    }
}
