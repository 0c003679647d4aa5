//! Monomorphized SpMM microkernels (kease-style).
//!
//! The generic kernels in [`crate::spmm`] run every column block through
//! [`axpy`](crate::spmm) over a *runtime-length* slice, storing the
//! output block back to memory after every nonzero. This module
//! monomorphizes the inner loops over the k-block width `KB ∈ {8, 16,
//! 32}` ([`MICRO_WIDTHS`]) and the scalar type, using `[T; KB]`
//! register accumulators: the output block is loaded once per run of
//! nonzeros (a dense-tile row or a sparse-remainder row), accumulated
//! in registers across the run, and stored once. Like every kernel with
//! a multiply-add loop, each body is an
//! [`fma_kernel!`](spmm_sparse::fma_kernel): on an AVX2+FMA host the
//! fixed-width block becomes straight-line `vfmadd` code. Like the
//! generic kernel, each body accumulates every reordered row straight
//! into the caller's row that the plan's row permutation maps it to.
//! `spmm-rr microbench` (Quick corpus, k = 96, f32) measured these
//! bodies at 2.2× the generic kernel overall on a Xeon with AVX-512
//! and FMA (2.4× at width 8, 2.3× at 16, 1.6–1.7× at 32).
//!
//! **Bit-exactness.** Per output element the accumulation is the same
//! sequential `mul_add` chain in the same nonzero order as the generic
//! kernels — columns never mix, blocking only partitions columns — so
//! every specialized kernel is bit-identical to its generic
//! counterpart. SDDMM ([`crate::sddmm`]) has no width here: it keeps
//! one sequential chain *per output*, with `G` outputs in flight side by
//! side; a lane-parallel dot that splits one output's chain would
//! reassociate the reduction and is deliberately not used.
//!
//! A plan's width follows from its `k_hint` by rule
//! ([`widest_micro_width`]) and is recorded in the `.spmmplan` codec;
//! every prepared SpMM goes through the [`spmm_aspt_kblocked_auto`]
//! dispatcher at the plan's width, which falls back to the generic
//! slice path for any other width. The trailing `k % KB` columns always
//! take the generic path.

use spmm_aspt::AsptMatrix;
use spmm_sparse::{fma_kernel, DenseMatrix, Scalar, SparseError};

use crate::rows::{OutRows, RowMap, Stride};
use crate::spmm::{check_aspt_dims, dense_rows, panel_block_pass, spmm_aspt_kblocked_rows};

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

/// The register-accumulator body: `y_block += Σ vals[e] * X[cols[e]]`
/// over one `KB`-wide column block starting at `c0`, with the block
/// held in a `[T; KB]` across all nonzeros of the run. Accumulation
/// order per element is identical to chaining [`axpy`](crate::spmm)
/// per nonzero. `X` comes in as its data and width, held in the
/// caller's locals (see `axpy_run` in [`crate::spmm`]).
#[inline(always)]
fn axpy_run_micro<T: Scalar, const KB: usize>(
    y_block: &mut [T],
    cols: &[u32],
    vals: &[T],
    (xd, xk): (&[T], usize),
    c0: usize,
) {
    let y_arr: &mut [T; KB] = y_block.try_into().expect("y block width must equal KB");
    let mut acc = *y_arr;
    for (&c, &v) in cols.iter().zip(vals) {
        let at = c as usize * xk + c0;
        let x_arr: &[T; KB] = xd[at..at + KB]
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
    /// row map, traversal and accumulation order as
    /// `spmm_aspt_kblocked_rows` (so the rows of `out` must start at
    /// zero too), with each dense-tile and remainder run going through
    /// the `[T; KB]` register body. Bit-identical to the generic body at
    /// the same width.
    fn spmm_aspt_kblocked_micro<T: Scalar, const KB: usize>(
        aspt: &AsptMatrix<T>,
        x: &DenseMatrix<T>,
        out: OutRows<'_, T, Stride>,
    ) {
        let k = x.ncols();
        let remainder = aspt.remainder();
        let full_end = k - k % KB;
        out.for_each_panel(aspt.panels(), aspt.nnz() * k, |panel, mut rows| {
            let x = (x.data(), k);
            let n = rows.len();
            let mut c0 = 0;
            while c0 < full_end {
                for tile in &panel.tiles {
                    let (rp, tc, tv) = (&tile.rowptr[..], &tile.colidx[..], &tile.values[..]);
                    for rel in 0..n {
                        let (lo, hi) = (rp[rel], rp[rel + 1]);
                        if lo < hi {
                            let y_block = &mut rows.row_mut(rel)[c0..c0 + KB];
                            axpy_run_micro::<T, KB>(y_block, &tc[lo..hi], &tv[lo..hi], x, c0);
                        }
                    }
                }
                for rel in 0..n {
                    let (cols, vals) = remainder.row(panel.row_start + rel);
                    if !cols.is_empty() {
                        let y_block = &mut rows.row_mut(rel)[c0..c0 + KB];
                        axpy_run_micro::<T, KB>(y_block, cols, vals, x, c0);
                    }
                }
                c0 += KB;
            }
            // trailing partial block (k % KB columns): generic slice path
            if c0 < k {
                panel_block_pass(panel, remainder, &mut rows, x, (c0, k));
            }
        });
    }
}

/// Width-dispatching ASpT k-blocked SpMM in the decomposed matrix's own
/// row order: routes the widths in [`MICRO_WIDTHS`] to their
/// monomorphized bodies and everything else to the generic body of
/// [`spmm_aspt_kblocked`](crate::spmm::spmm_aspt_kblocked).
/// Bit-identical to the generic kernel (and to `spmm_aspt`) for every
/// width.
pub fn spmm_aspt_kblocked_auto<T: Scalar>(
    aspt: &AsptMatrix<T>,
    x: &DenseMatrix<T>,
    k_block: usize,
) -> Result<DenseMatrix<T>, SparseError> {
    check_aspt_dims(aspt, x)?;
    let mut y = DenseMatrix::zeros(aspt.nrows(), x.ncols());
    spmm_aspt_kblocked_rows_auto(aspt, x, k_block, dense_rows(&mut y, RowMap::IDENTITY)?);
    Ok(y)
}

/// [`spmm_aspt_kblocked_auto`] into `out`, each reordered row
/// accumulated into the output row `out` maps it to: the body every
/// prepared SpMM runs. The rows of `out` must start at zero, and the
/// caller checks the operand shapes.
pub(crate) fn spmm_aspt_kblocked_rows_auto<T: Scalar>(
    aspt: &AsptMatrix<T>,
    x: &DenseMatrix<T>,
    k_block: usize,
    out: OutRows<'_, T, Stride>,
) {
    match k_block {
        8 => spmm_aspt_kblocked_micro::<T, 8>(aspt, x, out),
        16 => spmm_aspt_kblocked_micro::<T, 16>(aspt, x, out),
        32 => spmm_aspt_kblocked_micro::<T, 32>(aspt, x, out),
        _ => spmm_aspt_kblocked_rows(aspt, x, k_block, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_aspt::AsptConfig;
    use spmm_data::generators;

    use crate::spmm::{spmm_aspt, spmm_aspt_kblocked};

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
}
