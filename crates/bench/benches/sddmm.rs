//! CPU SDDMM kernel throughput across the three variants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmm_core::prelude::*;
use std::hint::black_box;

const K: usize = 64;

fn bench_sddmm(c: &mut Criterion) {
    let cases: Vec<(&str, CsrMatrix<f32>)> = vec![
        (
            "scattered",
            generators::uniform_random::<f32>(4096, 4096, 16, 1),
        ),
        (
            "cf",
            generators::bipartite_cf::<f32>(4096, 2048, 16, 0.8, 2),
        ),
    ];
    let mut group = c.benchmark_group("sddmm");
    group.sample_size(10);
    for (name, m) in &cases {
        let x = generators::random_dense::<f32>(m.ncols(), K, 3);
        let y = generators::random_dense::<f32>(m.nrows(), K, 4);
        group.throughput(Throughput::Elements(m.nnz() as u64 * 2 * K as u64));

        group.bench_with_input(BenchmarkId::new("rowwise_seq", name), m, |b, m| {
            b.iter(|| black_box(sddmm_rowwise_seq(m, &x, &y).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("rowwise_par", name), m, |b, m| {
            b.iter(|| black_box(sddmm_rowwise_par(m, &x, &y).unwrap()))
        });
        // the ASpT kernel, which runs only inside the engine: the
        // decomposition is prepared once, outside the timed loop
        let engine = Engine::prepare(m, &EngineConfig::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("aspt", name), m, |b, _| {
            b.iter(|| black_box(engine.sddmm(&x, &y).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sddmm);
criterion_main!(benches);
