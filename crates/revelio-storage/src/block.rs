//! The block-device abstraction and the in-memory backing device.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::StorageError;

/// A fixed-block-size random-access device.
///
/// Methods take `&self` (interior locking) so device-mapper targets can
/// stack over `Arc<dyn BlockDevice>` handles exactly as kernel targets stack
/// over shared block devices.
pub trait BlockDevice: Send + Sync {
    /// Block size in bytes (constant for the device's lifetime).
    fn block_size(&self) -> usize;

    /// Number of addressable blocks.
    fn block_count(&self) -> u64;

    /// Reads block `index` into `buf` (`buf.len() == block_size()`).
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`] or [`StorageError::WrongBufferSize`] on
    /// bad arguments; targets add their own failure modes (integrity,
    /// read-only, key errors).
    fn read_block(&self, index: u64, buf: &mut [u8]) -> Result<(), StorageError>;

    /// Writes `data` (`data.len() == block_size()`) to block `index`.
    ///
    /// # Errors
    ///
    /// As for [`BlockDevice::read_block`], plus [`StorageError::ReadOnly`]
    /// on immutable targets.
    fn write_block(&self, index: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Total capacity in bytes.
    fn len_bytes(&self) -> u64 {
        self.block_count() * self.block_size() as u64
    }
}

/// Reads `len` bytes starting at byte `offset`, spanning blocks as needed.
///
/// # Errors
///
/// Propagates the device's errors; reads past the end are
/// [`StorageError::OutOfRange`].
pub fn read_at(device: &dyn BlockDevice, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
    let bs = device.block_size() as u64;
    let mut out = Vec::with_capacity(len);
    let mut buf = vec![0u8; device.block_size()];
    let mut remaining = len as u64;
    let mut pos = offset;
    while remaining > 0 {
        let block = pos / bs;
        let within = (pos % bs) as usize;
        device.read_block(block, &mut buf)?;
        let take = ((bs as usize - within) as u64).min(remaining) as usize;
        out.extend_from_slice(&buf[within..within + take]);
        pos += take as u64;
        remaining -= take as u64;
    }
    Ok(out)
}

/// Writes `data` starting at byte `offset`, spanning blocks as needed
/// (read-modify-write at the edges).
///
/// # Errors
///
/// Propagates the device's errors.
pub fn write_at(device: &dyn BlockDevice, offset: u64, data: &[u8]) -> Result<(), StorageError> {
    let bs = device.block_size() as u64;
    let mut buf = vec![0u8; device.block_size()];
    let mut pos = offset;
    let mut src = data;
    while !src.is_empty() {
        let block = pos / bs;
        let within = (pos % bs) as usize;
        let take = (bs as usize - within).min(src.len());
        if take == device.block_size() {
            device.write_block(block, &src[..take])?;
        } else {
            device.read_block(block, &mut buf)?;
            buf[within..within + take].copy_from_slice(&src[..take]);
            device.write_block(block, &buf)?;
        }
        pos += take as u64;
        src = &src[take..];
    }
    Ok(())
}

/// I/O counters for a device (used by the benchmark harness to convert
/// operation counts into modelled latencies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Completed block reads.
    pub reads: u64,
    /// Completed block writes.
    pub writes: u64,
}

/// A RAM-backed block device.
///
/// ```
/// use revelio_storage::block::{BlockDevice, MemBlockDevice};
/// let dev = MemBlockDevice::new(512, 8);
/// dev.write_block(3, &[9u8; 512])?;
/// let mut buf = [0u8; 512];
/// dev.read_block(3, &mut buf)?;
/// assert_eq!(buf[0], 9);
/// # Ok::<(), revelio_storage::StorageError>(())
/// ```
pub struct MemBlockDevice {
    block_size: usize,
    data: RwLock<Vec<u8>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl std::fmt::Debug for MemBlockDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemBlockDevice")
            .field("block_size", &self.block_size)
            .field("block_count", &self.block_count())
            .finish_non_exhaustive()
    }
}

impl MemBlockDevice {
    /// Creates a zero-filled device of `count` blocks of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(block_size: usize, count: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        MemBlockDevice {
            block_size,
            data: RwLock::new(vec![0u8; block_size * count as usize]),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Creates a device initialized with `contents` (padded with zeros to a
    /// whole number of blocks).
    #[must_use]
    pub fn from_bytes(block_size: usize, contents: &[u8]) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let blocks = contents.len().div_ceil(block_size).max(1);
        let mut data = contents.to_vec();
        data.resize(blocks * block_size, 0);
        MemBlockDevice {
            block_size,
            data: RwLock::new(data),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Snapshot of the I/O counters.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Flips one bit on the raw medium, bypassing any stacked target — the
    /// "offline attacker edits the disk" primitive used by integrity tests.
    ///
    /// # Panics
    ///
    /// Panics if `byte_offset` is past the end of the device.
    pub fn corrupt_bit(&self, byte_offset: u64, bit: u8) {
        let mut data = self.data.write();
        let len = data.len() as u64;
        assert!(
            byte_offset < len,
            "corruption offset {byte_offset} past device end {len}"
        );
        data[byte_offset as usize] ^= 1 << (bit % 8);
    }

    fn check(&self, index: u64, buf_len: usize) -> Result<(), StorageError> {
        if index >= self.block_count() {
            return Err(StorageError::OutOfRange {
                block: index,
                device_blocks: self.block_count(),
            });
        }
        if buf_len != self.block_size {
            return Err(StorageError::WrongBufferSize {
                got: buf_len,
                expected: self.block_size,
            });
        }
        Ok(())
    }
}

impl BlockDevice for MemBlockDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn block_count(&self) -> u64 {
        (self.data.read().len() / self.block_size) as u64
    }

    fn read_block(&self, index: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.check(index, buf.len())?;
        let data = self.data.read();
        let start = index as usize * self.block_size;
        buf.copy_from_slice(&data[start..start + self.block_size]);
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_block(&self, index: u64, data_in: &[u8]) -> Result<(), StorageError> {
        self.check(index, data_in.len())?;
        let mut data = self.data.write();
        let start = index as usize * self.block_size;
        data[start..start + self.block_size].copy_from_slice(data_in);
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn out_of_range_rejected() {
        let dev = MemBlockDevice::new(16, 4);
        let mut buf = [0u8; 16];
        assert!(matches!(
            dev.read_block(4, &mut buf),
            Err(StorageError::OutOfRange {
                block: 4,
                device_blocks: 4
            })
        ));
    }

    #[test]
    fn wrong_buffer_size_rejected() {
        let dev = MemBlockDevice::new(16, 4);
        let mut buf = [0u8; 15];
        assert!(matches!(
            dev.read_block(0, &mut buf),
            Err(StorageError::WrongBufferSize {
                got: 15,
                expected: 16
            })
        ));
        assert!(dev.write_block(0, &[0u8; 17]).is_err());
    }

    #[test]
    fn stats_count_operations() {
        let dev = MemBlockDevice::new(16, 4);
        let mut buf = [0u8; 16];
        dev.read_block(0, &mut buf).unwrap();
        dev.read_block(1, &mut buf).unwrap();
        dev.write_block(2, &buf).unwrap();
        assert_eq!(
            dev.stats(),
            IoStats {
                reads: 2,
                writes: 1
            }
        );
    }

    #[test]
    fn from_bytes_pads_to_block() {
        let dev = MemBlockDevice::from_bytes(16, &[1, 2, 3]);
        assert_eq!(dev.block_count(), 1);
        let mut buf = [0u8; 16];
        dev.read_block(0, &mut buf).unwrap();
        assert_eq!(&buf[..3], &[1, 2, 3]);
        assert!(buf[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_bit() {
        let dev = MemBlockDevice::new(16, 1);
        dev.corrupt_bit(5, 3);
        let mut buf = [0u8; 16];
        dev.read_block(0, &mut buf).unwrap();
        assert_eq!(buf[5], 1 << 3);
    }

    #[test]
    fn read_write_at_spans_blocks() {
        let dev = MemBlockDevice::new(8, 4);
        write_at(&dev, 5, b"hello world").unwrap();
        assert_eq!(read_at(&dev, 5, 11).unwrap(), b"hello world");
        // Bytes around the span stay zero.
        assert_eq!(read_at(&dev, 0, 5).unwrap(), vec![0u8; 5]);
        assert_eq!(read_at(&dev, 14, 2).unwrap(), b"ld");
        assert_eq!(read_at(&dev, 16, 2).unwrap(), vec![0u8; 2]);
    }

    #[test]
    fn write_at_past_end_fails() {
        let dev = MemBlockDevice::new(8, 2);
        assert!(write_at(&dev, 12, b"too much data").is_err());
    }

    proptest! {
        #[test]
        fn read_back_what_was_written(
            offset in 0u64..100,
            data in proptest::collection::vec(any::<u8>(), 1..200),
        ) {
            let dev = MemBlockDevice::new(32, 16); // 512 bytes
            prop_assume!(offset as usize + data.len() <= 512);
            write_at(&dev, offset, &data).unwrap();
            prop_assert_eq!(read_at(&dev, offset, data.len()).unwrap(), data);
        }
    }
}
