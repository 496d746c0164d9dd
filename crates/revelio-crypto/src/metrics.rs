//! Operation counters for the expensive kernels.
//!
//! The swarm benchmark proves "a resumed TLS session performs **zero**
//! scalar multiplications" by reading these counters around each phase;
//! the KDS chain-verification tests prove the pinned ARK is decompressed
//! once, not once per verification; the verity tests prove a verified
//! read costs one data-block hash. The counters are monotonic, relaxed
//! (they are evidence, not synchronization), and never reset — callers
//! take deltas.
//!
//! SHA-256 compressions are counted per thread only: SHA-256 runs under
//! every TLS record and HMAC on all threads, and a shared atomic there
//! would be a contended cache line.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static SCALAR_MUL_OPS: AtomicU64 = AtomicU64::new(0);
static POINT_DECOMPRESSIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_SCALAR_MUL_OPS: Cell<u64> = const { Cell::new(0) };
    static THREAD_POINT_DECOMPRESSIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_SHA256_BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// Charges `n` scalar-multiplication kernel invocations (double-and-add,
/// fixed-base, Straus double-scalar counts 2, multiscalar counts one per
/// pair, the X25519 Montgomery ladder counts 1).
pub(crate) fn record_scalar_mul(n: u64) {
    SCALAR_MUL_OPS.fetch_add(n, Ordering::Relaxed);
    THREAD_SCALAR_MUL_OPS.with(|c| c.set(c.get() + n));
}

/// Charges one compressed-point decompression (sqrt, field inversions).
pub(crate) fn record_decompression() {
    POINT_DECOMPRESSIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_POINT_DECOMPRESSIONS.with(|c| c.set(c.get() + 1));
}

/// Charges `n` SHA-256 block compressions, once per absorbed chunk.
pub(crate) fn record_sha256_blocks(n: u64) {
    THREAD_SHA256_BLOCKS.with(|c| c.set(c.get() + n));
}

/// Total scalar-multiplication kernel invocations since process start.
#[must_use]
pub fn scalar_mul_ops() -> u64 {
    SCALAR_MUL_OPS.load(Ordering::Relaxed)
}

/// Total compressed-point decompressions since process start.
#[must_use]
pub fn point_decompressions() -> u64 {
    POINT_DECOMPRESSIONS.load(Ordering::Relaxed)
}

/// Scalar-multiplication kernels invoked by *this thread* — exact deltas
/// for single-threaded phases even while other threads do crypto.
#[must_use]
pub fn thread_scalar_mul_ops() -> u64 {
    THREAD_SCALAR_MUL_OPS.with(Cell::get)
}

/// Point decompressions performed by *this thread*.
#[must_use]
pub fn thread_point_decompressions() -> u64 {
    THREAD_POINT_DECOMPRESSIONS.with(Cell::get)
}

/// SHA-256 block compressions performed by *this thread*.
#[must_use]
pub fn thread_sha256_blocks() -> u64 {
    THREAD_SHA256_BLOCKS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha2::Sha256;

    #[test]
    fn counters_are_monotonic() {
        let before = scalar_mul_ops();
        record_scalar_mul(3);
        assert!(scalar_mul_ops() >= before + 3);
        let d = point_decompressions();
        record_decompression();
        assert!(point_decompressions() > d);
    }

    #[test]
    fn sha256_blocks_count_padding_too() {
        // 55 bytes pad into one block, 56 need two; 4128 bytes is a
        // salted 4 KiB verity block.
        for (len, blocks) in [(0, 1), (55, 1), (56, 2), (64, 2), (4128, 65)] {
            let before = thread_sha256_blocks();
            let _ = Sha256::digest(vec![0u8; len]);
            assert_eq!(thread_sha256_blocks() - before, blocks, "{len} bytes");
        }
    }

    #[test]
    fn sha256_blocks_independent_of_update_split() {
        use crate::sha2::HashFunction;
        let data = [0u8; 200];
        for split in [0, 1, 63, 64, 65, 128, 199, 200] {
            let before = thread_sha256_blocks();
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            h.finalize();
            // 200 bytes + 9 bytes of padding span 4 blocks.
            assert_eq!(thread_sha256_blocks() - before, 4, "split {split}");
        }
    }
}
