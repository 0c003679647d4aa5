//! Monomorphized SpMM/SDDMM microkernels (ROADMAP item 2, kease-style).
//!
//! The generic kernels in [`crate::spmm`] run every column block through
//! [`axpy`](crate::spmm) over a *runtime-length* slice, storing the
//! output block back to memory after every nonzero. This module
//! monomorphizes the inner loops over the k-block width `KB ∈ {8, 16,
//! 32}` ([`MICRO_WIDTHS`]) and the scalar type, using `[T; KB]`
//! register accumulators: the output block is loaded once per
//! (row, block) pair, accumulated in registers across *all* nonzeros of
//! the row (dense-tile runs and sparse-remainder rows alike), and
//! stored once. Like every kernel with a multiply-add loop, each body
//! is an [`fma_kernel!`](spmm_sparse::fma_kernel): on an AVX2+FMA host
//! the fixed-width block becomes straight-line `vfmadd` code.
//! `spmm-rr microbench` (Quick corpus, k = 96, f32) measured these
//! bodies at 2.2× the generic kernel overall on a Xeon with AVX-512
//! and FMA (2.4× at width 8, 2.3× at 16, 1.6–1.7× at 32).
//!
//! **Bit-exactness.** Per output element the accumulation is the same
//! sequential `mul_add` chain in the same nonzero order as the generic
//! kernels — columns never mix, blocking only partitions columns — so
//! every specialized kernel is bit-identical to its generic
//! counterpart. The
//! SDDMM dot product keeps a *single* accumulator chain with a fixed
//! `KB`-element trip count per chunk ([`dot` in
//! `crate::sddmm`](crate::sddmm) order preserved); a lane-parallel
//! multi-accumulator dot would reassociate the reduction and is
//! deliberately not used.
//!
//! A plan's width follows from its `k_hint` by rule
//! ([`widest_micro_width`]) and is recorded in the `.spmmplan` codec;
//! every prepared SpMM goes through the [`spmm_aspt_kblocked_auto`]
//! dispatcher at the plan's width, which falls back to the generic
//! slice path for any other width. The trailing `k % KB` columns always
//! take the generic path.

use rayon::prelude::*;
use spmm_aspt::AsptMatrix;
use spmm_sparse::{fma_kernel, DenseMatrix, Scalar, SparseError};

use crate::spmm::{axpy, panel_chunks, spmm_aspt_kblocked};

/// K-block widths with monomorphized kernel bodies, in ascending order.
pub const MICRO_WIDTHS: [usize; 3] = [8, 16, 32];

/// Maps a k-block width to its specialized microkernel width:
/// `Some(width)` when a monomorphized body exists for exactly that
/// width, `None` when the generic slice kernel will run.
pub fn micro_width_for(k_block: usize) -> Option<usize> {
    MICRO_WIDTHS.contains(&k_block).then_some(k_block)
}

/// The plan's microkernel width for dense width `k`: the widest of
/// [`MICRO_WIDTHS`] that fits in `k`, or `None` when `k` is narrower
/// than every specialized width (the generic path runs). This is the
/// width the gpu-sim trial ([`crate::autotune::choose_micro_width`])
/// picks on every matrix it has been run on, so plans take it by rule.
pub fn widest_micro_width(k: usize) -> Option<usize> {
    MICRO_WIDTHS.iter().rev().copied().find(|&w| w <= k)
}

/// The register-accumulator body: `y_block += Σ vals[e] * x[cols[e]]`
/// over one `KB`-wide column block starting at `c0`, with the block
/// held in a `[T; KB]` across all nonzeros of the run. Accumulation
/// order per element is identical to chaining [`axpy`] per nonzero.
#[inline(always)]
fn axpy_run_micro<T: Scalar, const KB: usize>(
    y_block: &mut [T],
    cols: &[u32],
    vals: &[T],
    x: &DenseMatrix<T>,
    c0: usize,
) {
    let y_arr: &mut [T; KB] = y_block.try_into().expect("y block width must equal KB");
    let mut acc = *y_arr;
    for (&c, &v) in cols.iter().zip(vals) {
        let x_arr: &[T; KB] = x.row(c as usize)[c0..c0 + KB]
            .try_into()
            .expect("x block width must equal KB");
        for j in 0..KB {
            acc[j] = v.mul_add(x_arr[j], acc[j]);
        }
    }
    *y_arr = acc;
}

fma_kernel! {
    /// Monomorphized column-blocked ASpT SpMM at width `KB`: the same
    /// single-fork panel traversal as [`spmm_aspt_kblocked`] with the
    /// dense-tile and remainder inner loops running through the `[T; KB]`
    /// register body. Bit-identical to the generic kernel at the same
    /// width.
    fn spmm_aspt_kblocked_micro<T: Scalar, const KB: usize>(
        aspt: &AsptMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        if aspt.ncols() != x.nrows() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("S.ncols ({}) == X.nrows", aspt.ncols()),
                got: format!("{}", x.nrows()),
            });
        }
        let k = x.ncols();
        let mut y = DenseMatrix::zeros(aspt.nrows(), k);
        let chunks = panel_chunks(aspt, y.data_mut(), k);
        let remainder = aspt.remainder();
        let full_end = k - k % KB;

        aspt.panels()
            .par_iter()
            .zip(chunks)
            .for_each(|(panel, y_chunk)| {
                let panel_rows = panel.row_end - panel.row_start;
                let mut c0 = 0;
                while c0 < full_end {
                    for tile in &panel.tiles {
                        for rel in 0..panel_rows {
                            let (lo, hi) = (tile.rowptr[rel], tile.rowptr[rel + 1]);
                            if lo == hi {
                                continue;
                            }
                            axpy_run_micro::<T, KB>(
                                &mut y_chunk[rel * k + c0..rel * k + c0 + KB],
                                &tile.colidx[lo..hi],
                                &tile.values[lo..hi],
                                x,
                                c0,
                            );
                        }
                    }
                    for r in panel.rows() {
                        let rel = r - panel.row_start;
                        let (cols, vals) = remainder.row(r);
                        if cols.is_empty() {
                            continue;
                        }
                        axpy_run_micro::<T, KB>(
                            &mut y_chunk[rel * k + c0..rel * k + c0 + KB],
                            cols,
                            vals,
                            x,
                            c0,
                        );
                    }
                    c0 += KB;
                }
                // trailing partial block (k % KB columns): generic slice path
                if c0 < k {
                    for tile in &panel.tiles {
                        for rel in 0..panel_rows {
                            let y_row = &mut y_chunk[rel * k + c0..rel * k + k];
                            for e in tile.rowptr[rel]..tile.rowptr[rel + 1] {
                                axpy(
                                    y_row,
                                    tile.values[e],
                                    &x.row(tile.colidx[e] as usize)[c0..k],
                                );
                            }
                        }
                    }
                    for r in panel.rows() {
                        let rel = r - panel.row_start;
                        let y_row = &mut y_chunk[rel * k + c0..rel * k + k];
                        let (cols, vals) = remainder.row(r);
                        for (&c, &v) in cols.iter().zip(vals) {
                            axpy(y_row, v, &x.row(c as usize)[c0..k]);
                        }
                    }
                }
            });
        Ok(y)
    }
}

/// Width-dispatching ASpT k-blocked SpMM: routes the widths in
/// [`MICRO_WIDTHS`] to their monomorphized bodies and everything else
/// to the generic [`spmm_aspt_kblocked`]. Bit-identical to the generic
/// kernel (and to `spmm_aspt`) for every width.
pub fn spmm_aspt_kblocked_auto<T: Scalar>(
    aspt: &AsptMatrix<T>,
    x: &DenseMatrix<T>,
    k_block: usize,
) -> Result<DenseMatrix<T>, SparseError> {
    match k_block {
        8 => spmm_aspt_kblocked_micro::<T, 8>(aspt, x),
        16 => spmm_aspt_kblocked_micro::<T, 16>(aspt, x),
        32 => spmm_aspt_kblocked_micro::<T, 32>(aspt, x),
        _ => spmm_aspt_kblocked(aspt, x, k_block),
    }
}

/// Fixed-trip-count dot product: identical accumulation chain to the
/// scalar `dot` (one accumulator, element order preserved — bit-exact),
/// but chunked so the `KB`-element inner loop has a compile-time trip
/// count the compiler unrolls without length checks.
#[inline(always)]
pub(crate) fn dot_chunked<T: Scalar, const KB: usize>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = T::ZERO;
    let mut ac = a.chunks_exact(KB);
    let mut bc = b.chunks_exact(KB);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        let ca: &[T; KB] = ca.try_into().expect("chunks_exact yields KB elements");
        let cb: &[T; KB] = cb.try_into().expect("chunks_exact yields KB elements");
        for j in 0..KB {
            acc = ca[j].mul_add(cb[j], acc);
        }
    }
    for (&av, &bv) in ac.remainder().iter().zip(bc.remainder()) {
        acc = av.mul_add(bv, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_aspt::AsptConfig;
    use spmm_data::generators;

    use crate::spmm::spmm_aspt;

    #[test]
    fn micro_width_for_matches_the_specialized_set() {
        assert_eq!(micro_width_for(8), Some(8));
        assert_eq!(micro_width_for(16), Some(16));
        assert_eq!(micro_width_for(32), Some(32));
        for other in [0, 1, 7, 9, 24, 64, 128] {
            assert_eq!(micro_width_for(other), None, "width {other}");
        }
    }

    #[test]
    fn widest_micro_width_is_the_widest_that_fits() {
        for (k, want) in [
            (0, None),
            (7, None),
            (8, Some(8)),
            (15, Some(8)),
            (16, Some(16)),
            (31, Some(16)),
            (32, Some(32)),
            (256, Some(32)),
        ] {
            assert_eq!(widest_micro_width(k), want, "k = {k}");
        }
    }

    #[test]
    fn aspt_micro_is_bit_identical_to_generic() {
        let s = generators::block_diagonal::<f32>(5, 12, 20, 8, 17);
        for cfg in [AsptConfig::paper_figure(), AsptConfig::default()] {
            let aspt = AsptMatrix::build(&s, &cfg);
            for k in [7, 16, 33, 64] {
                let x = generators::random_dense::<f32>(s.ncols(), k, 19);
                let reference = spmm_aspt(&aspt, &x).unwrap();
                for kb in MICRO_WIDTHS {
                    let generic = spmm_aspt_kblocked(&aspt, &x, kb).unwrap();
                    let micro = spmm_aspt_kblocked_auto(&aspt, &x, kb).unwrap();
                    assert_eq!(reference.data(), generic.data(), "generic k={k} kb={kb}");
                    assert_eq!(reference.data(), micro.data(), "micro k={k} kb={kb}");
                }
            }
        }
    }

    #[test]
    fn micro_handles_degenerate_shapes() {
        let s = generators::banded::<f64>(10, 2, 3, 1);
        let empty_x = DenseMatrix::<f64>::zeros(10, 0);
        let aspt = AsptMatrix::build(&s, &AsptConfig::default());
        for kb in MICRO_WIDTHS {
            let y = spmm_aspt_kblocked_auto(&aspt, &empty_x, kb).unwrap();
            assert_eq!((y.nrows(), y.ncols()), (10, 0));
        }
        let bad_x = generators::random_dense::<f64>(4, 3, 1);
        assert!(spmm_aspt_kblocked_auto(&aspt, &bad_x, 8).is_err());
    }

    #[test]
    fn dot_chunked_is_bit_identical_to_plain_chain() {
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32).cos() * 0.5).collect();
            let mut plain = 0.0f32;
            for (&x, &y) in a.iter().zip(&b) {
                plain = x.mul_add(y, plain);
            }
            for_widths(&a, &b, plain);
        }
    }

    fn for_widths(a: &[f32], b: &[f32], plain: f32) {
        assert_eq!(dot_chunked::<f32, 8>(a, b).to_bits(), plain.to_bits());
        assert_eq!(dot_chunked::<f32, 16>(a, b).to_bits(), plain.to_bits());
        assert_eq!(dot_chunked::<f32, 32>(a, b).to_bits(), plain.to_bits());
    }
}
