//! Fig. 5: dm-crypt I/O latency — sequential 4 KiB reads and writes on a
//! plain device vs an `aes-xts-plain64` volume.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use revelio_storage::block::{BlockDevice, MemBlockDevice};
use revelio_storage::crypt::{CryptDevice, CryptParams};

const BLOCK: usize = 4096;

fn devices(blocks: u64) -> (Arc<MemBlockDevice>, CryptDevice) {
    let plain = Arc::new(MemBlockDevice::new(BLOCK, blocks));
    let backing = Arc::new(MemBlockDevice::new(BLOCK, blocks + 1));
    let params = CryptParams {
        iterations: 1000,
        salt: [7; 32],
    };
    let crypt = CryptDevice::format(backing as _, b"bench key", &params).unwrap();
    (plain, crypt)
}

fn sweep(device: &dyn BlockDevice, total: usize, write: bool) {
    let mut buf = vec![0xa5u8; BLOCK];
    for i in 0..(total / BLOCK) as u64 {
        if write {
            device.write_block(i, &buf).unwrap();
        } else {
            device.read_block(i, &mut buf).unwrap();
        }
    }
    black_box(&buf);
}

fn bench_fig5(c: &mut Criterion) {
    // Sizes chosen so a full criterion run stays in seconds; the repro
    // binary sweeps the paper's 4–256 MB range once.
    let total = 2 << 20; // 2 MiB per iteration
    let (plain, crypt) = devices((total / BLOCK + 2) as u64);
    sweep(plain.as_ref(), total, true);
    sweep(&crypt, total, true);

    let mut group = c.benchmark_group("fig5_dmcrypt_io");
    group.throughput(Throughput::Bytes(total as u64));
    for (label, write) in [("read", false), ("write", true)] {
        group.bench_with_input(BenchmarkId::new("plain", label), &write, |b, &w| {
            b.iter(|| sweep(plain.as_ref(), total, w));
        });
        group.bench_with_input(BenchmarkId::new("crypt", label), &write, |b, &w| {
            b.iter(|| sweep(&crypt, total, w));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
