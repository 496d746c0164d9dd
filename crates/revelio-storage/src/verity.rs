//! A dm-verity analogue: a read-only block device whose every read is
//! verified against a SHA-256 Merkle tree rooted in a single trusted hash.
//!
//! Matches the kernel target's structure (§2.1.2 of the paper, and the
//! `veritysetup` defaults the evaluation uses): 4 KiB data and hash blocks,
//! SHA-256, salted leaf hashes, hash tree stored out-of-band (in Revelio, a
//! dedicated metadata partition) and a root hash that travels on the kernel
//! command line so it is covered by the launch measurement.
//!
//! The tree is authenticated once, before any data is served: decoding
//! recomputes every parent level from the leaves, and opening compares the
//! resulting root with the trusted one. From then on the tree is immutable
//! guest memory, so a read re-hashes only its data block and compares the
//! digest with the block's leaf entry. This is the kernel target's
//! per-hash-block "verified" cache with every block verified at mount.
//! A single flipped bit in a data block makes that read fail with
//! [`StorageError::IntegrityViolation`]; a single flipped bit in the stored
//! tree makes decoding or opening fail, so no read is ever served from it.
//! Writes fail with [`StorageError::ReadOnly`].

use std::sync::Arc;

use revelio_crypto::sha2::{HashFunction, Sha256};
use revelio_crypto::wire::{ByteReader, ByteWriter};

use crate::block::BlockDevice;
use crate::StorageError;

/// Digest size of the tree's hash function (SHA-256).
pub(crate) const DIGEST_LEN: usize = 32;

/// Parameters of a verity tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerityParams {
    /// Bytes per hash block (how many digests are packed per tree node);
    /// the paper uses 4 KiB.
    pub hash_block_size: usize,
    /// Salt mixed into every digest.
    pub salt: [u8; 32],
}

impl Default for VerityParams {
    fn default() -> Self {
        VerityParams {
            hash_block_size: 4096,
            salt: [0; 32],
        }
    }
}

fn salted_digest(salt: &[u8; 32], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(salt);
    h.update(data);
    h.finalize_fixed()
}

/// `len` rounded up to whole hash blocks (at least one).
fn padded_len(len: usize, hash_block_size: usize) -> usize {
    len.div_ceil(hash_block_size).max(1) * hash_block_size
}

/// The level above `level`: one digest per hash block, zero-padded to
/// whole hash blocks.
fn parent_level(level: &[u8], params: &VerityParams) -> Vec<u8> {
    let hbs = params.hash_block_size;
    let mut parent = Vec::with_capacity(padded_len(level.len() / hbs * DIGEST_LEN, hbs));
    for block in level.chunks_exact(hbs) {
        parent.extend_from_slice(&salted_digest(&params.salt, block));
    }
    parent.resize(padded_len(parent.len(), hbs), 0);
    parent
}

/// The out-of-band hash tree plus its parameters — what the build step
/// writes to the verity metadata partition.
///
/// A `VerityTree` is consistent by construction: its fields are private,
/// nothing mutates it after construction, and both constructors derive or
/// check every parent level. [`VerityTree::build`] computes each level
/// itself; `VerityTree::from_bytes` recomputes each parent level from the
/// one below and rejects any mismatch. So `root_hash` authenticates every
/// level, leaves included, and once [`VerityDevice::open`] has matched it
/// against the trusted root, the leaf level alone suffices to check a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerityTree {
    params: VerityParams,
    data_blocks: u64,
    /// `levels[0]` holds the leaf digests (padded to hash blocks);
    /// each higher level hashes the blocks of the one below, and the last
    /// is exactly one hash block.
    levels: Vec<Vec<u8>>,
    root_hash: [u8; DIGEST_LEN],
}

impl VerityTree {
    /// Builds the tree over every block of `device`.
    ///
    /// This is the cost the paper's Table 1 row "dm-verity setup" plus the
    /// image-build-time generation; it reads the whole device once.
    ///
    /// # Errors
    ///
    /// Propagates device read errors.
    pub fn build(device: &dyn BlockDevice, params: VerityParams) -> Result<Self, StorageError> {
        let hbs = params.hash_block_size;
        // The highest level built so far, starting with the leaf digests.
        let mut top = Vec::new();
        let mut buf = vec![0u8; device.block_size()];
        for i in 0..device.block_count() {
            device.read_block(i, &mut buf)?;
            top.extend_from_slice(&salted_digest(&params.salt, &buf));
        }
        top.resize(padded_len(top.len(), hbs), 0);
        let mut levels = Vec::new();
        while top.len() > hbs {
            let parent = parent_level(&top, &params);
            levels.push(std::mem::replace(&mut top, parent));
        }
        let root_hash = salted_digest(&params.salt, &top);
        levels.push(top);
        Ok(VerityTree {
            params,
            data_blocks: device.block_count(),
            levels,
            root_hash,
        })
    }

    /// The root hash — the value Revelio puts on the kernel command line.
    #[must_use]
    pub fn root_hash(&self) -> [u8; DIGEST_LEN] {
        self.root_hash
    }

    /// Tree depth (number of hash levels).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Serializes tree and parameters for the metadata partition.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"RVVT");
        w.put_u32(self.params.hash_block_size as u32);
        w.put_bytes(&self.params.salt);
        w.put_u64(self.data_blocks);
        w.put_u32(self.levels.len() as u32);
        for level in &self.levels {
            w.put_var_bytes(level);
        }
        w.into_bytes()
    }

    /// Decodes tree metadata.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadSuperblock`] or [`StorageError::Wire`] on
    /// malformed input. The root hash is recomputed from the stored top
    /// level, so a tampered tree cannot smuggle in its own root.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<4>()?;
        if &magic != b"RVVT" {
            return Err(StorageError::BadSuperblock("missing verity magic".into()));
        }
        let hash_block_size = r.get_u32()? as usize;
        if hash_block_size == 0 || !hash_block_size.is_multiple_of(DIGEST_LEN) {
            return Err(StorageError::BadSuperblock(format!(
                "invalid hash block size {hash_block_size}"
            )));
        }
        let salt = r.get_array::<32>()?;
        let data_blocks = r.get_u64()?;
        let n_levels = r.get_count(4)?; // var-bytes prefix per level
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            levels.push(r.get_var_bytes()?.to_vec());
        }
        r.finish()?;
        let params = VerityParams {
            hash_block_size,
            salt,
        };

        // Authenticate the whole geometry against the root: the root hash
        // only covers the top level directly, so recompute every parent
        // level from the leaves and compare. A metadata partition tampered
        // in hash_block_size, level contents, or level structure fails
        // here; this is also what lets a read check only its leaf digest.
        for (i, level) in levels.iter().enumerate() {
            let consistent = !level.is_empty()
                && level.len().is_multiple_of(hash_block_size)
                && match levels.get(i + 1) {
                    Some(parent) => parent_level(level, &params) == *parent,
                    // The top level must be exactly one hash block.
                    None => level.len() == hash_block_size,
                };
            if !consistent {
                return Err(StorageError::BadSuperblock(format!(
                    "verity level {i} has inconsistent geometry"
                )));
            }
        }
        let (Some(leaves), Some(top)) = (levels.first(), levels.last()) else {
            return Err(StorageError::BadSuperblock(
                "verity tree has no levels".into(),
            ));
        };
        // The claimed data-block count must exactly match the leaf level's
        // padded extent, so the advertised device size cannot be inflated
        // (and can shrink by at most the padding slack of one hash block).
        let leaf_bytes = usize::try_from(data_blocks)
            .ok()
            .and_then(|n| n.checked_mul(DIGEST_LEN))
            .ok_or_else(|| StorageError::BadSuperblock("data block count overflow".into()))?;
        if leaves.len() != padded_len(leaf_bytes, hash_block_size) {
            return Err(StorageError::BadSuperblock(format!(
                "data block count {data_blocks} disagrees with leaf level size"
            )));
        }

        let root_hash = salted_digest(&params.salt, top);
        Ok(VerityTree {
            params,
            data_blocks,
            levels,
            root_hash,
        })
    }
}

impl VerityTree {
    /// Writes the serialized tree to a metadata device, prefixed with its
    /// exact length (partitions are zero-padded; the prefix recovers the
    /// true extent).
    ///
    /// # Errors
    ///
    /// Propagates device errors; a too-small device fails with
    /// [`StorageError::OutOfRange`].
    pub fn write_to_device(&self, device: &dyn BlockDevice) -> Result<(), StorageError> {
        let bytes = self.to_bytes();
        crate::block::write_at(device, 0, &(bytes.len() as u64).to_le_bytes())?;
        crate::block::write_at(device, 8, &bytes)
    }

    /// Reads a tree previously stored with [`VerityTree::write_to_device`].
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadSuperblock`] for an implausible length
    /// prefix, plus decode errors.
    pub fn read_from_device(device: &dyn BlockDevice) -> Result<Self, StorageError> {
        let len = ByteReader::new(&crate::block::read_at(device, 0, 8)?).get_u64()?;
        if len == 0
            || len
                .checked_add(8)
                .is_none_or(|end| end > device.len_bytes())
        {
            return Err(StorageError::BadSuperblock(format!(
                "verity metadata length {len} does not fit device"
            )));
        }
        let bytes = crate::block::read_at(device, 8, len as usize)?;
        Self::from_bytes(&bytes)
    }
}

/// The verified, read-only device (`/dev/mapper/<name>` analogue).
pub struct VerityDevice {
    data: Arc<dyn BlockDevice>,
    tree: VerityTree,
}

impl std::fmt::Debug for VerityDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerityDevice")
            .field("data_blocks", &self.tree.data_blocks)
            .field("depth", &self.tree.depth())
            .finish_non_exhaustive()
    }
}

impl VerityDevice {
    /// Opens a verity mapping: `data` is the underlying (untrusted) device,
    /// `tree` its hash metadata, `expected_root` the trusted root hash from
    /// the kernel command line.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::RootHashMismatch`] when the tree does not
    /// produce `expected_root` — the paper's "mounting will be unsuccessful"
    /// failure (§6.1.2).
    pub fn open(
        data: Arc<dyn BlockDevice>,
        tree: VerityTree,
        expected_root: &[u8; DIGEST_LEN],
    ) -> Result<Self, StorageError> {
        if !revelio_crypto::ct::eq(&tree.root_hash, expected_root) {
            return Err(StorageError::RootHashMismatch);
        }
        Ok(VerityDevice { data, tree })
    }

    /// Checks data block `index` against its leaf digest, in constant time.
    ///
    /// One salted hash per read is sound because the whole tree was
    /// authenticated before this device existed: every `VerityTree` ties
    /// each level to the one above it (see its docs), and
    /// [`VerityDevice::open`] tied the top level to the trusted root. The
    /// tree is immutable guest memory from then on; the host-writable
    /// metadata partition is never read again.
    fn verify_leaf(&self, index: u64, data: &[u8]) -> Result<(), StorageError> {
        let digest = salted_digest(&self.tree.params.salt, data);
        let leaf = usize::try_from(index)
            .ok()
            .and_then(|i| self.tree.levels.first()?.chunks_exact(DIGEST_LEN).nth(i));
        match leaf {
            Some(leaf) if revelio_crypto::ct::eq(&digest, leaf) => Ok(()),
            _ => Err(StorageError::IntegrityViolation { block: index }),
        }
    }
}

impl BlockDevice for VerityDevice {
    fn block_size(&self) -> usize {
        self.data.block_size()
    }

    fn block_count(&self) -> u64 {
        self.tree.data_blocks
    }

    fn read_block(&self, index: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        if index >= self.tree.data_blocks {
            return Err(StorageError::OutOfRange {
                block: index,
                device_blocks: self.tree.data_blocks,
            });
        }
        self.data.read_block(index, buf)?;
        self.verify_leaf(index, buf)
    }

    fn write_block(&self, _index: u64, _data: &[u8]) -> Result<(), StorageError> {
        Err(StorageError::ReadOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;
    use proptest::prelude::*;

    const BS: usize = 512;

    fn data_device(blocks: u64) -> Arc<MemBlockDevice> {
        data_device_of(BS, blocks)
    }

    fn data_device_of(block_size: usize, blocks: u64) -> Arc<MemBlockDevice> {
        let dev = Arc::new(MemBlockDevice::new(block_size, blocks));
        for i in 0..blocks {
            let fill = vec![(i % 251) as u8 + 1; block_size];
            dev.write_block(i, &fill).unwrap();
        }
        dev
    }

    fn params() -> VerityParams {
        params_with(256)
    }

    fn params_with(hash_block_size: usize) -> VerityParams {
        VerityParams {
            hash_block_size,
            salt: [7; 32],
        }
    }

    /// `(hash_block_size, depth)` pairs small enough for a unit test.
    const DEPTH_CASES: [(usize, usize); 8] = [
        (64, 1),
        (64, 2),
        (64, 3),
        (256, 1),
        (256, 2),
        (256, 3),
        (4096, 1),
        (4096, 2),
    ];

    /// The fewest data blocks that need a tree of `depth` levels (one
    /// full hash block of leaves at depth 1).
    fn blocks_for_depth(hash_block_size: usize, depth: usize) -> u64 {
        let fanout = (hash_block_size / DIGEST_LEN) as u64;
        if depth == 1 {
            fanout
        } else {
            fanout.pow(depth as u32 - 1) + 1
        }
    }

    /// Byte ranges of each level's payload inside `to_bytes()` output.
    fn level_payloads(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        // magic, hash_block_size, salt, data_blocks, then the level count.
        let mut r = ByteReader::new(&bytes[4 + 4 + 32 + 8..]);
        let mut pos = 4 + 4 + 32 + 8 + 4;
        (0..r.get_u32().unwrap())
            .map(|_| {
                let len = r.get_var_bytes().unwrap().len();
                pos += 4 + len;
                pos - len..pos
            })
            .collect()
    }

    #[test]
    fn reads_verify_and_return_data() {
        let dev = data_device(20);
        let tree = VerityTree::build(dev.as_ref(), params()).unwrap();
        let root = tree.root_hash();
        let verity = VerityDevice::open(dev, tree, &root).unwrap();
        let mut buf = [0u8; BS];
        for i in 0..20 {
            verity.read_block(i, &mut buf).unwrap();
            assert_eq!(buf[0], (i % 251) as u8 + 1);
        }
    }

    #[test]
    fn wrong_root_hash_fails_open() {
        let dev = data_device(4);
        let tree = VerityTree::build(dev.as_ref(), params()).unwrap();
        let mut bad_root = tree.root_hash();
        bad_root[0] ^= 1;
        assert_eq!(
            VerityDevice::open(dev, tree, &bad_root).err(),
            Some(StorageError::RootHashMismatch)
        );
    }

    #[test]
    fn single_bit_flip_detected() {
        // §6.1.3: "even a single bit change anywhere in the disk will cause
        // dm-verity to raise errors".
        let dev = data_device(8);
        let tree = VerityTree::build(dev.as_ref(), params()).unwrap();
        let root = tree.root_hash();
        dev.corrupt_bit(3 * BS as u64 + 100, 2); // inside block 3
        let verity = VerityDevice::open(Arc::clone(&dev) as _, tree, &root).unwrap();
        let mut buf = [0u8; BS];
        assert_eq!(
            verity.read_block(3, &mut buf),
            Err(StorageError::IntegrityViolation { block: 3 })
        );
        // Untouched blocks still read fine.
        verity.read_block(2, &mut buf).unwrap();
    }

    #[test]
    fn tampered_tree_detected() {
        let dev = data_device(8);
        let tree = VerityTree::build(dev.as_ref(), params()).unwrap();
        let root = tree.root_hash();
        // Attacker rewrites both a data block and its leaf digest in the
        // serialized tree; the level above catches it.
        let mut bytes = tree.to_bytes();
        // Flip a byte somewhere inside the leaf level payload.
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0xff;
        let tampered = VerityTree::from_bytes(&bytes).unwrap();
        // Recomputed root no longer matches the trusted root.
        assert!(VerityDevice::open(dev, tampered, &root).is_err());
    }

    #[test]
    fn writes_rejected() {
        let dev = data_device(4);
        let tree = VerityTree::build(dev.as_ref(), params()).unwrap();
        let root = tree.root_hash();
        let verity = VerityDevice::open(dev, tree, &root).unwrap();
        assert_eq!(
            verity.write_block(0, &[0u8; BS]),
            Err(StorageError::ReadOnly)
        );
    }

    #[test]
    fn tree_serialization_roundtrip() {
        let dev = data_device(10);
        let tree = VerityTree::build(dev.as_ref(), params()).unwrap();
        let decoded = VerityTree::from_bytes(&tree.to_bytes()).unwrap();
        assert_eq!(decoded, tree);
        assert_eq!(decoded.root_hash(), tree.root_hash());
    }

    #[test]
    fn depth_grows_with_device_size() {
        let small = VerityTree::build(data_device(2).as_ref(), params()).unwrap();
        // 256-byte hash blocks hold 8 digests; 100 blocks need 13 leaf
        // blocks -> 2 levels; 2 blocks fit in one -> 1 level.
        let large = VerityTree::build(data_device(100).as_ref(), params()).unwrap();
        assert_eq!(small.depth(), 1);
        assert!(large.depth() >= 2, "depth {}", large.depth());
    }

    #[test]
    fn salt_changes_root() {
        let dev = data_device(4);
        let t1 = VerityTree::build(
            dev.as_ref(),
            VerityParams {
                salt: [1; 32],
                ..params()
            },
        )
        .unwrap();
        let t2 = VerityTree::build(
            dev.as_ref(),
            VerityParams {
                salt: [2; 32],
                ..params()
            },
        )
        .unwrap();
        assert_ne!(t1.root_hash(), t2.root_hash());
    }

    #[test]
    fn bad_hash_block_size_rejected() {
        let dev = data_device(4);
        let tree = VerityTree::build(dev.as_ref(), params()).unwrap();
        let mut bytes = tree.to_bytes();
        bytes[4..8].copy_from_slice(&33u32.to_le_bytes()); // not multiple of 32
        assert!(matches!(
            VerityTree::from_bytes(&bytes),
            Err(StorageError::BadSuperblock(_))
        ));
    }

    #[test]
    fn consistent_leaf_forgery_rejected_at_every_depth() {
        for (hbs, depth) in DEPTH_CASES {
            let blocks = blocks_for_depth(hbs, depth);
            let dev = data_device(blocks);
            let tree = VerityTree::build(dev.as_ref(), params_with(hbs)).unwrap();
            assert_eq!(tree.depth(), depth, "hbs {hbs}");
            let root = tree.root_hash();

            // The attacker rewrites a data block and its leaf digest in the
            // serialized tree consistently, so the leaf check alone would
            // pass; the level above (or, at depth 1, the root) catches it.
            let victim = blocks - 1;
            let forged = vec![0xa5; BS];
            dev.write_block(victim, &forged).unwrap();
            let mut bytes = tree.to_bytes();
            let leaf = level_payloads(&bytes)[0].start + victim as usize * DIGEST_LEN;
            bytes[leaf..leaf + DIGEST_LEN]
                .copy_from_slice(&salted_digest(&params_with(hbs).salt, &forged));
            if depth >= 2 {
                assert!(
                    matches!(
                        VerityTree::from_bytes(&bytes),
                        Err(StorageError::BadSuperblock(_))
                    ),
                    "hbs {hbs} depth {depth}"
                );
            } else {
                let tampered = VerityTree::from_bytes(&bytes).unwrap();
                assert_eq!(
                    VerityDevice::open(Arc::clone(&dev) as _, tampered, &root).err(),
                    Some(StorageError::RootHashMismatch),
                    "hbs {hbs}"
                );
            }

            // Rewriting the whole path up to the top level consistently
            // yields a well-formed tree with a different root.
            let rebuilt = VerityTree::build(dev.as_ref(), params_with(hbs)).unwrap();
            let reparsed = VerityTree::from_bytes(&rebuilt.to_bytes()).unwrap();
            assert_eq!(
                VerityDevice::open(dev, reparsed, &root).err(),
                Some(StorageError::RootHashMismatch),
                "hbs {hbs} depth {depth}"
            );
        }
    }

    #[test]
    fn verified_read_costs_one_data_block_hash() {
        // A salted 4 KiB block is 4128 bytes: 65 SHA-256 compressions,
        // independent of the tree's depth.
        for (hbs, depth) in DEPTH_CASES {
            let dev = data_device_of(4096, blocks_for_depth(hbs, depth));
            let tree = VerityTree::build(dev.as_ref(), params_with(hbs)).unwrap();
            assert_eq!(tree.depth(), depth, "hbs {hbs}");
            let root = tree.root_hash();
            let verity = VerityDevice::open(dev, tree, &root).unwrap();
            let mut buf = [0u8; 4096];
            let before = revelio_crypto::metrics::thread_sha256_blocks();
            verity.read_block(1, &mut buf).unwrap();
            assert_eq!(
                revelio_crypto::metrics::thread_sha256_blocks() - before,
                65,
                "hbs {hbs} depth {depth}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn any_corruption_in_any_block_is_detected(
            hbs_choice in 0usize..3,
            blocks in 1u64..80,
            corrupt_byte in 0u64..,
            bit in 0u8..8,
        ) {
            let hbs = [64, 256, 4096][hbs_choice];
            let dev = data_device(blocks);
            let tree = VerityTree::build(dev.as_ref(), params_with(hbs)).unwrap();
            let root = tree.root_hash();
            let total = blocks * BS as u64;
            let offset = corrupt_byte % total;
            let victim = offset / BS as u64;
            dev.corrupt_bit(offset, bit);
            let verity = VerityDevice::open(dev, tree, &root).unwrap();
            let mut buf = [0u8; BS];
            prop_assert_eq!(
                verity.read_block(victim, &mut buf),
                Err(StorageError::IntegrityViolation { block: victim })
            );
        }

        #[test]
        fn any_bit_flip_in_tree_levels_is_rejected(
            hbs_choice in 0usize..3,
            blocks in 1u64..80,
            flip_byte in 0usize..,
            bit in 0u8..8,
        ) {
            let hbs = [64, 256, 4096][hbs_choice];
            let dev = data_device(blocks);
            let tree = VerityTree::build(dev.as_ref(), params_with(hbs)).unwrap();
            let root = tree.root_hash();
            let mut bytes = tree.to_bytes();
            let payloads = level_payloads(&bytes);
            let mut offset = flip_byte % payloads.iter().map(|p| p.len()).sum::<usize>();
            let target = payloads
                .iter()
                .find_map(|p| {
                    if offset < p.len() {
                        Some(p.start + offset)
                    } else {
                        offset -= p.len();
                        None
                    }
                })
                .unwrap();
            bytes[target] ^= 1 << bit;
            // A flipped tree must never yield a device that serves data.
            let served = VerityTree::from_bytes(&bytes)
                .and_then(|tampered| VerityDevice::open(dev, tampered, &root));
            prop_assert!(served.is_err());
        }
    }
}
