//! A GPT-like partition table and range-restricted partition views.
//!
//! A Revelio VM image is one disk with several partitions: the
//! verity-protected rootfs, the verity hash-tree metadata partition, and the
//! sealed data volume (§5.1.2, Fig. 3). Block 0 holds the serialized table.

use std::sync::Arc;

use revelio_crypto::wire::{ByteReader, ByteWriter};

use crate::block::BlockDevice;
use crate::StorageError;

/// What a partition holds — recorded so boot code can find its pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PartitionKind {
    /// A root filesystem image (verity-protected data blocks).
    RootFs,
    /// dm-verity hash-tree metadata.
    VerityMeta,
    /// An encrypted (dm-crypt) data volume.
    Data,
    /// Anything else.
    Other,
}

impl PartitionKind {
    fn to_u8(self) -> u8 {
        match self {
            PartitionKind::RootFs => 0,
            PartitionKind::VerityMeta => 1,
            PartitionKind::Data => 2,
            PartitionKind::Other => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, StorageError> {
        Ok(match v {
            0 => PartitionKind::RootFs,
            1 => PartitionKind::VerityMeta,
            2 => PartitionKind::Data,
            3 => PartitionKind::Other,
            t => {
                return Err(StorageError::Wire(
                    revelio_crypto::wire::WireError::UnknownTag(t),
                ))
            }
        })
    }
}

/// One entry in the partition table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Human-readable label, e.g. `"rootfs"`.
    pub name: String,
    /// Partition content type.
    pub kind: PartitionKind,
    /// First block on the parent device.
    pub first_block: u64,
    /// Length in blocks.
    pub block_count: u64,
    /// Deterministic partition UUID (the paper's build specifies fixed
    /// UUIDs to keep images reproducible, §5.1.1).
    pub uuid: [u8; 16],
}

/// An ordered set of partitions being laid out on a disk.
///
/// Block 0 is always reserved for the serialized table itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionTable {
    entries: Vec<Partition>,
}

/// A partition plus the device view over it, as returned by
/// [`PartitionTable::apply`] and [`PartitionTable::open`].
#[derive(Clone)]
pub struct PartitionView {
    /// The table entry.
    pub partition: Partition,
    /// A block device restricted to the partition's range.
    pub device: Arc<dyn BlockDevice>,
}

impl std::fmt::Debug for PartitionView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionView")
            .field("partition", &self.partition)
            .finish_non_exhaustive()
    }
}

impl PartitionTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        PartitionTable::default()
    }

    /// The declared partitions, in on-disk order.
    #[must_use]
    pub(crate) fn entries(&self) -> &[Partition] {
        &self.entries
    }

    /// Appends a partition of `block_count` blocks after the current last
    /// one. UUIDs are derived deterministically from the name so identical
    /// layouts yield bit-identical tables.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::PartitionOverflow`] if `block_count` is zero
    /// (a degenerate layout).
    pub fn add(
        &mut self,
        name: &str,
        kind: PartitionKind,
        block_count: u64,
    ) -> Result<&mut Self, StorageError> {
        if block_count == 0 {
            return Err(StorageError::PartitionOverflow {
                requested: 0,
                available: 0,
            });
        }
        let first_block = self
            .entries
            .last()
            .map_or(1, |p| p.first_block + p.block_count);
        let digest = revelio_crypto::sha2::Sha256::digest(name.as_bytes());
        let uuid: [u8; 16] = std::array::from_fn(|i| digest[i]);
        self.entries.push(Partition {
            name: name.to_owned(),
            kind,
            first_block,
            block_count,
            uuid,
        });
        Ok(self)
    }

    /// Serializes the table (fits in the reserved block for sane layouts).
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"RVPT");
        w.put_u32(self.entries.len() as u32);
        for p in &self.entries {
            w.put_str(&p.name);
            w.put_u8(p.kind.to_u8());
            w.put_u64(p.first_block);
            w.put_u64(p.block_count);
            w.put_bytes(&p.uuid);
        }
        w.into_bytes()
    }

    /// Decodes a table.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Wire`] on malformed input.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<4>()?;
        if &magic != b"RVPT" {
            return Err(StorageError::BadSuperblock(
                "missing partition table magic".into(),
            ));
        }
        let n = r.get_count(4 + 1 + 8 + 8 + 16)?; // name prefix + kind + extents + uuid
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.get_str()?;
            let kind = PartitionKind::from_u8(r.get_u8()?)?;
            let first_block = r.get_u64()?;
            let block_count = r.get_u64()?;
            let uuid = r.get_array::<16>()?;
            entries.push(Partition {
                name,
                kind,
                first_block,
                block_count,
                uuid,
            });
        }
        Ok(PartitionTable { entries })
    }

    /// Writes the table to block 0 of `disk` and returns a view per
    /// partition.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::PartitionOverflow`] if the layout exceeds the
    /// disk, or [`StorageError::BadSuperblock`] if the encoded table does
    /// not fit in block 0.
    pub fn apply(&self, disk: Arc<dyn BlockDevice>) -> Result<Vec<PartitionView>, StorageError> {
        let needed = self
            .entries
            .last()
            .map_or(1, |p| p.first_block + p.block_count);
        if needed > disk.block_count() {
            return Err(StorageError::PartitionOverflow {
                requested: needed,
                available: disk.block_count(),
            });
        }
        let encoded = self.to_bytes();
        if encoded.len() > disk.block_size() {
            return Err(StorageError::BadSuperblock(format!(
                "partition table of {} bytes exceeds block size {}",
                encoded.len(),
                disk.block_size()
            )));
        }
        let mut block0 = vec![0u8; disk.block_size()];
        block0[..encoded.len()].copy_from_slice(&encoded);
        disk.write_block(0, &block0)?;
        Ok(self.views(disk))
    }

    /// Reads the table from block 0 of `disk` and returns the views.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadSuperblock`] when block 0 holds no table
    /// or a decoded partition's extent overflows or exceeds the disk (the
    /// on-disk table is attacker-writable; hostile extents must not alias
    /// other blocks).
    pub fn open(disk: Arc<dyn BlockDevice>) -> Result<Vec<PartitionView>, StorageError> {
        let mut block0 = vec![0u8; disk.block_size()];
        disk.read_block(0, &mut block0)?;
        let table = PartitionTable::from_bytes(&block0)?;
        for p in table.entries() {
            let end = p.first_block.checked_add(p.block_count).ok_or_else(|| {
                StorageError::BadSuperblock(format!("partition {:?} extent overflows", p.name))
            })?;
            if p.block_count == 0 || p.first_block == 0 || end > disk.block_count() {
                return Err(StorageError::BadSuperblock(format!(
                    "partition {:?} extent [{}, {}) invalid for disk of {} blocks",
                    p.name,
                    p.first_block,
                    end,
                    disk.block_count()
                )));
            }
        }
        Ok(table.views(disk))
    }

    fn views(&self, disk: Arc<dyn BlockDevice>) -> Vec<PartitionView> {
        self.entries
            .iter()
            .map(|p| PartitionView {
                partition: p.clone(),
                device: Arc::new(RangeDevice {
                    parent: Arc::clone(&disk),
                    first_block: p.first_block,
                    block_count: p.block_count,
                }) as Arc<dyn BlockDevice>,
            })
            .collect()
    }
}

/// A block device exposing a contiguous range of a parent device.
struct RangeDevice {
    parent: Arc<dyn BlockDevice>,
    first_block: u64,
    block_count: u64,
}

impl RangeDevice {
    fn translate(&self, index: u64) -> Result<u64, StorageError> {
        if index >= self.block_count {
            return Err(StorageError::OutOfRange {
                block: index,
                device_blocks: self.block_count,
            });
        }
        self.first_block
            .checked_add(index)
            .ok_or(StorageError::OutOfRange {
                block: index,
                device_blocks: self.block_count,
            })
    }
}

impl BlockDevice for RangeDevice {
    fn block_size(&self) -> usize {
        self.parent.block_size()
    }

    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn read_block(&self, index: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let idx = self.translate(index)?;
        self.parent.read_block(idx, buf)
    }

    fn write_block(&self, index: u64, data: &[u8]) -> Result<(), StorageError> {
        let idx = self.translate(index)?;
        self.parent.write_block(idx, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;

    fn disk() -> Arc<dyn BlockDevice> {
        Arc::new(MemBlockDevice::new(256, 64))
    }

    fn table() -> PartitionTable {
        let mut t = PartitionTable::new();
        t.add("rootfs", PartitionKind::RootFs, 16).unwrap();
        t.add("verity", PartitionKind::VerityMeta, 8).unwrap();
        t.add("data", PartitionKind::Data, 16).unwrap();
        t
    }

    #[test]
    fn layout_is_contiguous_after_block_zero() {
        let t = table();
        assert_eq!(t.entries()[0].first_block, 1);
        assert_eq!(t.entries()[1].first_block, 17);
        assert_eq!(t.entries()[2].first_block, 25);
    }

    #[test]
    fn uuids_are_deterministic_and_distinct() {
        let t1 = table();
        let t2 = table();
        assert_eq!(t1.entries()[0].uuid, t2.entries()[0].uuid);
        assert_ne!(t1.entries()[0].uuid, t1.entries()[1].uuid);
    }

    #[test]
    fn serialization_roundtrip() {
        let t = table();
        assert_eq!(PartitionTable::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn apply_then_open_restores_views() {
        let d = disk();
        table().apply(Arc::clone(&d)).unwrap();
        let views = PartitionTable::open(Arc::clone(&d)).unwrap();
        assert_eq!(views.len(), 3);
        assert_eq!(views[0].partition.name, "rootfs");
        assert_eq!(views[2].partition.kind, PartitionKind::Data);
    }

    #[test]
    fn views_are_isolated() {
        let d = disk();
        let views = table().apply(Arc::clone(&d)).unwrap();
        let a = &views[0].device;
        let b = &views[1].device;
        a.write_block(0, &[1u8; 256]).unwrap();
        let mut buf = [0u8; 256];
        b.read_block(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 256]);
        // But they alias the same parent at different offsets.
        let mut raw = [0u8; 256];
        d.read_block(1, &mut raw).unwrap();
        assert_eq!(raw, [1u8; 256]);
    }

    #[test]
    fn view_bounds_enforced() {
        let d = disk();
        let views = table().apply(d).unwrap();
        let mut buf = [0u8; 256];
        assert!(views[1].device.read_block(8, &mut buf).is_err());
    }

    #[test]
    fn oversized_layout_rejected() {
        let mut t = PartitionTable::new();
        t.add("huge", PartitionKind::Data, 1000).unwrap();
        assert!(matches!(
            t.apply(disk()),
            Err(StorageError::PartitionOverflow { .. })
        ));
    }

    #[test]
    fn open_without_table_fails() {
        assert!(matches!(
            PartitionTable::open(disk()),
            Err(StorageError::BadSuperblock(_))
        ));
    }

    #[test]
    fn zero_length_partition_rejected() {
        let mut t = PartitionTable::new();
        assert!(t.add("empty", PartitionKind::Data, 0).is_err());
    }
}
