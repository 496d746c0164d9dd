//! Ablations of the design choices DESIGN.md calls out: verity hash-block
//! size, VCEK caching, and PBKDF2 stretching of the sealed-volume key.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_bench::run_verity_ablation;
use revelio_crypto::kdf::pbkdf2;
use revelio_crypto::sha2::Sha256;
use revelio_storage::block::MemBlockDevice;
use revelio_storage::crypt::{CryptDevice, CryptParams};

fn bench_verity_block_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_verity_hash_block");
    group.sample_size(10);
    for hbs in [1024usize, 4096, 16384] {
        group.bench_with_input(BenchmarkId::from_parameter(hbs), &hbs, |b, &hbs| {
            b.iter(|| black_box(run_verity_ablation(&[hbs])));
        });
    }
    group.finish();
}

fn bench_vcek_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_vcek_cache");
    group.sample_size(10);
    group.bench_function("cold_then_warm_browse", |b| {
        b.iter(|| {
            let mut world = SimWorld::new(77);
            let fleet = world
                .deploy_fleet("pad.example.org", 1, demo_app())
                .unwrap();
            let extension = world.extension();
            extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
            let cold = extension.browse("pad.example.org", "/").unwrap().timing;
            let warm = extension.browse("pad.example.org", "/").unwrap().timing;
            black_box((cold, warm))
        });
    });
    group.finish();
}

fn bench_kdf_stretching(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pbkdf2_iterations");
    for iterations in [1u32, 100, 1000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(iterations),
            &iterations,
            |b, &iters| {
                b.iter(|| black_box(pbkdf2::<Sha256>(b"sealing key", b"salt", iters, 64)));
            },
        );
    }
    group.finish();
}

fn bench_crypt_format(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_crypt_format");
    group.sample_size(10);
    group.bench_function("format_1MiB", |b| {
        b.iter(|| {
            let backing = Arc::new(MemBlockDevice::new(4096, 257));
            let params = CryptParams {
                iterations: 1000,
                salt: [7; 32],
            };
            black_box(CryptDevice::format(backing as _, b"key", &params).unwrap());
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_verity_block_size,
    bench_vcek_cache,
    bench_kdf_stretching,
    bench_crypt_format
);
criterion_main!(benches);
