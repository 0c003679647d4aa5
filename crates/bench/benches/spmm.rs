//! CPU SpMM kernel throughput: row-wise sequential vs row-parallel vs
//! ASpT-structured, on a scattered and a clustered matrix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmm_core::prelude::*;
use std::hint::black_box;

const K: usize = 64;

fn bench_spmm(c: &mut Criterion) {
    let cases: Vec<(&str, CsrMatrix<f32>)> = vec![
        (
            "scattered",
            generators::uniform_random::<f32>(4096, 4096, 16, 1),
        ),
        (
            "clustered",
            generators::block_diagonal::<f32>(64, 64, 96, 24, 2),
        ),
    ];
    let mut group = c.benchmark_group("spmm");
    group.sample_size(10);
    for (name, m) in &cases {
        let x = generators::random_dense::<f32>(m.ncols(), K, 3);
        let flops = 2 * m.nnz() as u64 * K as u64;
        group.throughput(Throughput::Elements(flops));

        group.bench_with_input(BenchmarkId::new("rowwise_seq", name), m, |b, m| {
            b.iter(|| black_box(spmm_rowwise_seq(m, &x).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("rowwise_par", name), m, |b, m| {
            b.iter(|| black_box(spmm_rowwise_par(m, &x).unwrap()))
        });
        let aspt = AsptMatrix::build(m, &AsptConfig::default());
        group.bench_with_input(BenchmarkId::new("aspt", name), &aspt, |b, aspt| {
            b.iter(|| black_box(spmm_core::kernels::spmm::spmm_aspt(aspt, &x).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spmm);
criterion_main!(benches);
