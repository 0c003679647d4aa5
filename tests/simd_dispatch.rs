//! Both copies of every dispatched kernel agree bit for bit.
//!
//! A kernel defined with `fma_kernel!` is compiled twice: an AVX2+FMA
//! copy and a portable copy. Each output element is the same chain of
//! correctly rounded fused multiply-adds in both, and vectorizing over
//! `k` never reorders a chain, so the copies must agree on *any* input.
//! The operands here are random and not quantized, so a reordered or
//! unfused sum would show as a differing bit.

use std::io::Write;

use spmm_rr::kernels::spmm::{spmm_aspt, spmm_aspt_kblocked};
use spmm_rr::prelude::*;
use spmm_rr::sparse::{par, simd};

/// The operands of one shape: `s` is `m × n` (also as ASpT, SELL-P at
/// σ = 32 and σ = 0, CSB and ELL, and prepared as an engine), `x` is
/// `n × k`, `y` is `m × k`, `v` has `n` entries and `b` is `n × 40`.
struct Operands<T: Scalar> {
    s: CsrMatrix<T>,
    aspt: AsptMatrix<T>,
    engine: Engine<T>,
    sell: SellPMatrix<T>,
    sell0: SellPMatrix<T>,
    csb: CsbMatrix<T>,
    ell: EllMatrix<T>,
    x: DenseMatrix<T>,
    y: DenseMatrix<T>,
    v: Vec<T>,
    b: CsrMatrix<T>,
}

type Kernel<T> = Box<dyn Fn(&Operands<T>) -> Vec<u64>>;
type KernelFn<T> = fn(&Operands<T>) -> Vec<u64>;

fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits64()).collect()
}

fn dense<T: Scalar>(r: Result<DenseMatrix<T>, SparseError>) -> Vec<u64> {
    bits(r.expect("kernel accepts its operands").data())
}

fn values<T: Scalar>(r: Result<Vec<T>, SparseError>) -> Vec<u64> {
    bits(&r.expect("kernel accepts its operands"))
}

fn sparse<T: Scalar>(r: Result<CsrMatrix<T>, SparseError>) -> Vec<u64> {
    let c = r.expect("kernel accepts its operands");
    let mut out: Vec<u64> = c.rowptr().iter().map(|&p| p as u64).collect();
    out.extend(c.colidx().iter().map(|&j| u64::from(j)));
    out.extend(bits(c.values()));
    out
}

/// Every dispatched kernel, at every micro width the engine can pick
/// (`None` runs the whole of `k` as one block, as `Engine::spmm` does).
fn kernels<T: Scalar>() -> Vec<(String, Kernel<T>)> {
    let fixed: [(&str, KernelFn<T>); 20] = [
        ("spmm_rowwise_seq", |o| dense(spmm_rowwise_seq(&o.s, &o.x))),
        ("spmm_rowwise_par", |o| dense(spmm_rowwise_par(&o.s, &o.x))),
        ("spmm_aspt", |o| dense(spmm_aspt(&o.aspt, &o.x))),
        ("spmm_aspt_kblocked/5", |o| {
            dense(spmm_aspt_kblocked(&o.aspt, &o.x, 5))
        }),
        ("sddmm_rowwise_seq", |o| {
            values(sddmm_rowwise_seq(&o.s, &o.x, &o.y))
        }),
        ("sddmm_rowwise_par", |o| {
            values(sddmm_rowwise_par(&o.s, &o.x, &o.y))
        }),
        ("spmv_rowwise_seq", |o| values(spmv_rowwise_seq(&o.s, &o.v))),
        ("spmv_rowwise_par", |o| values(spmv_rowwise_par(&o.s, &o.v))),
        ("spmv_aspt", |o| values(spmv_aspt(&o.aspt, &o.v))),
        ("Engine::spmv", |o| values(o.engine.spmv(&o.v))),
        ("spgemm_gustavson_seq", |o| {
            sparse(spgemm_gustavson_seq(&o.s, &o.b))
        }),
        ("spgemm_gustavson_par", |o| {
            sparse(spgemm_gustavson_par(&o.s, &o.b))
        }),
        ("spgemm_clustered", |o| {
            sparse(spgemm_clustered(&o.s, &o.b, 8))
        }),
        ("sellp.spmm_seq", |o| dense(o.sell.spmm_seq(&o.x))),
        ("sellp.spmm_par", |o| dense(o.sell.spmm_par(&o.x))),
        ("sellp.spmm_par/sigma0", |o| dense(o.sell0.spmm_par(&o.x))),
        ("csb.spmm_seq", |o| dense(o.csb.spmm_seq(&o.x))),
        ("csb.spmm_par", |o| dense(o.csb.spmm_par(&o.x))),
        ("ell.spmm_seq", |o| dense(o.ell.spmm_seq(&o.x))),
        ("ell.spmm_par", |o| dense(o.ell.spmm_par(&o.x))),
    ];
    let mut table: Vec<(String, Kernel<T>)> = fixed
        .into_iter()
        .map(|(name, run)| (name.to_string(), Box::new(run) as Kernel<T>))
        .collect();
    for width in [None, Some(8), Some(16), Some(32)] {
        let tag = width.map_or("none".to_string(), |w| w.to_string());
        table.push((
            format!("spmm_aspt_kblocked_auto/{tag}"),
            Box::new(move |o| {
                let kb = width.unwrap_or(o.x.ncols()).max(1);
                dense(spmm_aspt_kblocked_auto(&o.aspt, &o.x, kb))
            }),
        ));
        // the engine's caller-order paths, writing into caller buffers
        table.push((
            format!("Engine::spmm_into/{tag}"),
            Box::new(move |o| {
                let mut e = o.engine.clone();
                e.set_micro_width(width);
                let mut y = DenseMatrix::zeros(o.s.nrows(), o.x.ncols());
                dense(e.spmm_into(&o.x, &mut y).map(|()| y))
            }),
        ));
        table.push((
            format!("Engine::sddmm_into/{tag}"),
            Box::new(move |o| {
                let mut e = o.engine.clone();
                e.set_micro_width(width);
                let mut out = vec![T::ZERO; o.s.nnz()];
                values(e.sddmm_into(&o.x, &o.y, &mut out).map(|()| out))
            }),
        ));
    }
    table
}

/// Random, unquantized operands for each matrix and each `k`.
fn shapes<T: Scalar>() -> Vec<(String, Operands<T>)> {
    let matrices = [
        (
            "block_diagonal",
            generators::block_diagonal::<T>(6, 16, 24, 10, 3),
        ),
        (
            "power_law",
            generators::power_law::<T>(128, 96, 1000, 0.8, 5),
        ),
        (
            "shuffled_block_diagonal",
            generators::shuffled_block_diagonal::<T>(12, 8, 24, 6, 7),
        ),
        (
            "empty",
            CsrMatrix::from_parts(5, 7, vec![0; 6], vec![], vec![]).expect("valid empty CSR"),
        ),
    ];
    let mut out = Vec::new();
    let mut reordered = 0;
    for (name, s) in matrices {
        let aspt = AsptMatrix::build(&s, &AsptConfig::paper_figure());
        // reordering forced, so the shuffled shape runs a non-identity
        // row map whatever the skip heuristics decide
        let config = EngineConfig::builder()
            .reorder(
                ReorderConfig::builder()
                    .policy(ReorderPolicy::always())
                    .build(),
            )
            .build();
        let engine = Engine::prepare(&s, &config).expect("valid CSR");
        reordered += usize::from(!engine.plan().row_perm.is_identity());
        let sell = SellPMatrix::from_csr(&s, 8, 32);
        let sell0 = SellPMatrix::from_csr(&s, 8, 0);
        let csb = CsbMatrix::from_csr(&s, 16);
        let ell = EllMatrix::from_csr(&s);
        let v = generators::random_dense::<T>(s.ncols(), 1, 11)
            .data()
            .to_vec();
        let b = generators::uniform_random::<T>(s.ncols(), 40, 4, 13);
        for k in [0usize, 1, 7, 8, 31, 32, 33, 64] {
            let ops = Operands {
                s: s.clone(),
                aspt: aspt.clone(),
                engine: engine.clone(),
                sell: sell.clone(),
                sell0: sell0.clone(),
                csb: csb.clone(),
                ell: ell.clone(),
                x: generators::random_dense::<T>(s.ncols(), k, 17 + k as u64),
                y: generators::random_dense::<T>(s.nrows(), k, 19 + k as u64),
                v: v.clone(),
                b: b.clone(),
            };
            out.push((format!("{name} k={k}"), ops));
        }
    }
    assert!(reordered > 0, "some shape must run the engine's row map");
    out
}

fn check_copies_agree<T: Scalar>() {
    // panel tasks may run on the pool's helpers; they must take the copy
    // the calling thread picked, or the comparison below is void
    let helper_copies = simd::with_portable(|| par::map(256, |_| simd::use_fma_copy()));
    assert!(helper_copies.iter().all(|&fast| !fast));
    let table = kernels::<T>();
    for (shape, ops) in shapes::<T>() {
        for (kernel, run) in &table {
            let dispatched = run(&ops);
            let portable = simd::with_portable(|| run(&ops));
            assert!(
                dispatched == portable,
                "{kernel} on {shape} ({} bytes): dispatched and portable copies differ",
                T::BYTES
            );
        }
    }
}

#[test]
fn dispatched_and_portable_copies_are_bit_identical() {
    if simd::fma_available() {
        assert!(
            simd::use_fma_copy(),
            "AVX2+FMA host must dispatch to the fast copy"
        );
    } else {
        // written past the test harness's capture, so it shows in a
        // passing run: on this host the comparison proves nothing
        let _ = writeln!(
            std::io::stderr(),
            "simd_dispatch: this host has no AVX2+FMA; compared the portable copy with itself"
        );
    }
    check_copies_agree::<f32>();
    check_copies_agree::<f64>();
}
