//! SpMM kernels: `Y = S · X` (paper Alg 1).
//!
//! [`Engine::spmm`](crate::Engine::spmm) runs `spmm_rows` here (a plan
//! with no microkernel width) or the register bodies of [`crate::micro`]:
//! both walk the reordered CSR rows, one ASpT panel per task, and write
//! each row once to its caller row, with the bits of
//! [`spmm_rowwise_seq`]. On a CPU the cache keeps a panel's `X` rows hot
//! across its rows, so the tiles give the engine's SpMM nothing but its
//! task split, while walking them stores every output row once per tile
//! it touches. The free kernels [`spmm_aspt()`] and
//! [`spmm_aspt_kblocked`] keep the paper's tile walk (each dense tile
//! over the panel's rows, then the remainder) for the simulator's
//! structure, `spmm-rr microbench` and the benchmark's plan check.

use spmm_aspt::{AsptMatrix, Panel};
use spmm_sparse::{fma_kernel, par, CsrMatrix, DenseMatrix, Scalar, SparseError};

use crate::rows::{OutRows, PanelRows, RowMap, Stride};

pub(crate) fn check_dims<T: Scalar>(
    s: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
) -> Result<(usize, usize), SparseError> {
    if s.ncols() != x.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: format!("S.ncols ({}) == X.nrows", s.ncols()),
            got: format!("{}", x.nrows()),
        });
    }
    Ok((s.nrows(), x.ncols()))
}

/// `y_row += v * x_row` over a full row of width `k`.
#[inline(always)]
pub(crate) fn axpy<T: Scalar>(y_row: &mut [T], v: T, x_row: &[T]) {
    debug_assert_eq!(y_row.len(), x_row.len());
    for (y, &x) in y_row.iter_mut().zip(x_row) {
        *y = v.mul_add(x, *y);
    }
}

/// `y_block += Σ vals[e] * X[cols[e]][c0..]` over a run of nonzeros,
/// chaining [`axpy`] per nonzero. `X` comes in as its data and width,
/// not as a reference to the matrix: the caller holds them in locals,
/// which stores to an output row cannot change, so the loop need not
/// reload them after every row update.
#[inline(always)]
fn axpy_run<T: Scalar>(
    y_block: &mut [T],
    cols: &[u32],
    vals: &[T],
    (xd, xk): (&[T], usize),
    c0: usize,
) {
    let c1 = c0 + y_block.len();
    for (&c, &v) in cols.iter().zip(vals) {
        let at = c as usize * xk;
        axpy(y_block, v, &xd[at + c0..at + c1]);
    }
}

/// One row's block `c0..c0 + y_block.len()` computed from zero: the
/// generic CSR-row body, the chain of [`axpy`] per nonzero that
/// `spmm_rowwise_seq` runs, restricted to the block's columns.
#[inline(always)]
pub(crate) fn row_block<T: Scalar>(
    y_block: &mut [T],
    cols: &[u32],
    vals: &[T],
    x: (&[T], usize),
    c0: usize,
) {
    y_block.fill(T::ZERO);
    axpy_run(y_block, cols, vals, x, c0);
}

/// Checks `S.ncols == X.nrows` for an ASpT operand.
pub(crate) fn check_aspt_dims<T: Scalar>(
    aspt: &AsptMatrix<T>,
    x: &DenseMatrix<T>,
) -> Result<(), SparseError> {
    if aspt.ncols() != x.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: format!("S.ncols ({}) == X.nrows", aspt.ncols()),
            got: format!("{}", x.nrows()),
        });
    }
    Ok(())
}

/// The rows of `y` as a kernel output, reordered row `r` going to row
/// `map.old_of(r)`.
pub(crate) fn dense_rows<'a, T: Scalar>(
    y: &'a mut DenseMatrix<T>,
    map: RowMap<'a>,
) -> Result<OutRows<'a, T, Stride>, SparseError> {
    let (n, k) = (y.nrows(), y.ncols());
    OutRows::new(y.data_mut(), n, Stride(k), map)
}

fma_kernel! {
    /// Sequential row-wise SpMM — the Alg 1 reference every other kernel is
    /// checked against.
    pub fn spmm_rowwise_seq<T: Scalar>(
        s: &CsrMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        let (m, k) = check_dims(s, x)?;
        let mut y = DenseMatrix::zeros(m, k);
        for i in 0..m {
            let (cols, vals) = s.row(i);
            let y_row = y.row_mut(i);
            for (&c, &v) in cols.iter().zip(vals) {
                axpy(y_row, v, x.row(c as usize));
            }
        }
        Ok(y)
    }
}

fma_kernel! {
    /// Row-parallel SpMM: each task owns its output rows, mirroring the
    /// GPU's warp-per-row mapping.
    pub fn spmm_rowwise_par<T: Scalar>(
        s: &CsrMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        let (m, k) = check_dims(s, x)?;
        let mut y = DenseMatrix::zeros(m, k);
        // k = 0 leaves no data to chunk; a zero chunk size would panic
        par::chunks_mut(y.data_mut(), k.max(1), |i, y_row| {
            let (cols, vals) = s.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                axpy(y_row, v, x.row(c as usize));
            }
        });
        Ok(y)
    }
}

/// ASpT-structured SpMM in the decomposed matrix's own row order:
/// per panel, the dense tiles accumulate first (mirroring the
/// shared-memory kernel), then the remainder rows. It runs the kernel
/// a plan prepared for this `k` runs, at
/// [`widest_micro_width`](crate::micro::widest_micro_width) (the whole
/// of `k` as one block below the narrowest width); every width gives
/// the same bits.
pub fn spmm_aspt<T: Scalar>(
    aspt: &AsptMatrix<T>,
    x: &DenseMatrix<T>,
) -> Result<DenseMatrix<T>, SparseError> {
    let k = x.ncols();
    let width = crate::micro::widest_micro_width(k).unwrap_or(k);
    crate::micro::spmm_aspt_kblocked_auto(aspt, x, width)
}

/// Column-blocked ASpT SpMM in the decomposed matrix's own row order.
/// Processes the operand one `k_block`-wide column block at a time;
/// each pass runs the dense-tile + remainder traversal restricted to
/// that block's columns. Blocking only partitions columns, never
/// reorders a row's nonzeros, so the output is bit-identical for every
/// width; `k_block ≥ k` is one pass over the whole operand. A zero
/// `k_block` is clamped to 1.
pub fn spmm_aspt_kblocked<T: Scalar>(
    aspt: &AsptMatrix<T>,
    x: &DenseMatrix<T>,
    k_block: usize,
) -> Result<DenseMatrix<T>, SparseError> {
    check_aspt_dims(aspt, x)?;
    let mut y = DenseMatrix::zeros(aspt.nrows(), x.ncols());
    spmm_aspt_kblocked_rows(aspt, x, k_block, dense_rows(&mut y, RowMap::IDENTITY)?);
    Ok(y)
}

/// One panel's pass over the column block `c0..c1`: each dense tile
/// over all the panel's rows (the tile's staged `X` rows stay hot
/// across them), then the remainder row by row, each run accumulating
/// into its row's block through [`axpy_run`]. `x` is `X`'s data and
/// width.
#[inline(always)]
pub(crate) fn panel_block_pass<T: Scalar>(
    panel: &Panel<T>,
    remainder: &CsrMatrix<T>,
    rows: &mut PanelRows<'_, T, Stride>,
    x: (&[T], usize),
    (c0, c1): (usize, usize),
) {
    let n = rows.len();
    for tile in &panel.tiles {
        let (rp, tc, tv) = (&tile.rowptr[..], &tile.colidx[..], &tile.values[..]);
        for rel in 0..n {
            let (lo, hi) = (rp[rel], rp[rel + 1]);
            if lo < hi {
                let y_block = &mut rows.row_mut(rel)[c0..c1];
                axpy_run(y_block, &tc[lo..hi], &tv[lo..hi], x, c0);
            }
        }
    }
    for rel in 0..n {
        let (cols, vals) = remainder.row(panel.row_start + rel);
        if !cols.is_empty() {
            axpy_run(&mut rows.row_mut(rel)[c0..c1], cols, vals, x, c0);
        }
    }
}

fma_kernel! {
    /// The generic column-blocked ASpT SpMM body, accumulating each
    /// reordered row `r` into the output row `out` maps it to, so the
    /// rows of `out` must start at zero. Panels run as parallel tasks
    /// (on the caller alone below [`crate::PARALLEL_MIN_WORK`]);
    /// each sweeps its column blocks through [`panel_block_pass`].
    pub(crate) fn spmm_aspt_kblocked_rows<T: Scalar>(
        aspt: &AsptMatrix<T>,
        x: &DenseMatrix<T>,
        k_block: usize,
        out: OutRows<'_, T, Stride>,
    ) {
        let k = x.ncols();
        let kb = k_block.max(1);
        let remainder = aspt.remainder();
        out.for_each_panel(aspt.panels(), aspt.nnz() * k, |panel, mut rows| {
            let mut c0 = 0;
            while c0 < k {
                let c1 = (c0 + kb).min(k);
                panel_block_pass(panel, remainder, &mut rows, (x.data(), k), (c0, c1));
                c0 = c1;
            }
        });
    }
}

fma_kernel! {
    /// The engine's generic SpMM body, for plans with no microkernel
    /// width: each row of the reordered CSR matrix `s`, one panel per
    /// task, computed whole through [`row_block`] into the caller's row
    /// that `out` maps it to. Every row of `out` is written, so it need
    /// not start at zero. The caller checks the operand shapes.
    pub(crate) fn spmm_rows<T: Scalar>(
        s: &CsrMatrix<T>,
        panels: &[Panel<T>],
        x: &DenseMatrix<T>,
        out: OutRows<'_, T, Stride>,
    ) {
        let k = x.ncols();
        out.for_each_panel(panels, s.nnz() * k, |panel, mut rows| {
            for rel in 0..rows.len() {
                let (cols, vals) = s.row(panel.row_start + rel);
                row_block(rows.row_mut(rel), cols, vals, (x.data(), k), 0);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_aspt::AsptConfig;
    use spmm_data::generators;

    fn tol<T: Scalar>() -> f64 {
        if T::BYTES == 4 {
            1e-3
        } else {
            1e-10
        }
    }

    fn check_all_variants<T: Scalar>(s: &CsrMatrix<T>, k: usize, seed: u64) {
        let x = generators::random_dense::<T>(s.ncols(), k, seed);
        let reference = spmm_rowwise_seq(s, &x).unwrap();
        assert!(reference.all_finite());

        let par = spmm_rowwise_par(s, &x).unwrap();
        assert!(
            reference.max_abs_diff(&par) <= tol::<T>(),
            "parallel deviates"
        );

        for cfg in [
            AsptConfig::paper_figure(),
            AsptConfig {
                panel_height: 8,
                min_col_nnz: 2,
                tile_width: 4,
            },
            AsptConfig::default(),
        ] {
            let aspt = AsptMatrix::build(s, &cfg);
            let tiled = spmm_aspt(&aspt, &x).unwrap();
            assert!(
                reference.max_abs_diff(&tiled) <= tol::<T>(),
                "aspt deviates with {cfg:?}"
            );
        }
    }

    #[test]
    fn identity_times_x_is_x() {
        let s = CsrMatrix::<f64>::identity(10);
        let x = generators::random_dense::<f64>(10, 8, 1);
        let y = spmm_rowwise_seq(&s, &x).unwrap();
        assert_eq!(y.max_abs_diff(&x), 0.0);
    }

    #[test]
    fn known_small_product() {
        // S = [[2,0],[1,3]], X = [[1,10],[100,1000]]
        let s =
            CsrMatrix::from_parts(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![2.0, 1.0, 3.0]).unwrap();
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 10.0, 100.0, 1000.0]);
        let y = spmm_rowwise_seq(&s, &x).unwrap();
        assert_eq!(y.data(), &[2.0, 20.0, 301.0, 3010.0]);
    }

    #[test]
    fn all_variants_agree_on_scattered_f64() {
        let s = generators::uniform_random::<f64>(96, 80, 6, 3);
        check_all_variants(&s, 16, 7);
    }

    #[test]
    fn all_variants_agree_on_clustered_f32() {
        let s = generators::block_diagonal::<f32>(6, 16, 24, 10, 5);
        check_all_variants(&s, 32, 9);
    }

    #[test]
    fn all_variants_agree_on_powerlaw_f64() {
        let s = generators::power_law::<f64>(128, 96, 1000, 0.8, 11);
        check_all_variants(&s, 8, 13);
    }

    #[test]
    fn all_variants_agree_with_empty_rows() {
        // diagonal-ish matrix with gaps
        let s = CsrMatrix::from_parts(
            5,
            4,
            vec![0, 1, 1, 2, 2, 3],
            vec![2, 0, 3],
            vec![1.5f64, -2.0, 0.5],
        )
        .unwrap();
        check_all_variants(&s, 4, 15);
    }

    #[test]
    fn empty_matrix_gives_zero_output() {
        let s = CsrMatrix::<f64>::from_parts(3, 2, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let x = generators::random_dense::<f64>(2, 4, 1);
        let y = spmm_rowwise_seq(&s, &x).unwrap();
        assert_eq!(y.frobenius_norm(), 0.0);
        let aspt = AsptMatrix::build(&s, &AsptConfig::default());
        assert_eq!(spmm_aspt(&aspt, &x).unwrap().frobenius_norm(), 0.0);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let s = CsrMatrix::<f64>::identity(4);
        let x = generators::random_dense::<f64>(5, 4, 1);
        assert!(spmm_rowwise_seq(&s, &x).is_err());
        assert!(spmm_rowwise_par(&s, &x).is_err());
        let aspt = AsptMatrix::build(&s, &AsptConfig::default());
        assert!(spmm_aspt(&aspt, &x).is_err());
    }

    #[test]
    fn kblocked_aspt_is_bit_identical_for_any_block() {
        let s = generators::block_diagonal::<f32>(5, 12, 20, 8, 17);
        let x = generators::random_dense::<f32>(s.ncols(), 33, 19);
        for cfg in [AsptConfig::paper_figure(), AsptConfig::default()] {
            let aspt = AsptMatrix::build(&s, &cfg);
            let reference = spmm_aspt(&aspt, &x).unwrap();
            for kb in [1, 3, 8, 32, 33, 100] {
                let blocked = spmm_aspt_kblocked(&aspt, &x, kb).unwrap();
                assert_eq!(
                    reference.data(),
                    blocked.data(),
                    "k_block={kb} must be bit-identical with {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn kblocked_handles_degenerate_shapes() {
        // k == 0 produces an empty output; a zero block width is
        // clamped to one column
        let s = generators::banded::<f64>(10, 2, 3, 1);
        let aspt = AsptMatrix::build(&s, &AsptConfig::default());
        let empty_x = DenseMatrix::<f64>::zeros(10, 0);
        let y = spmm_aspt_kblocked(&aspt, &empty_x, 8).unwrap();
        assert_eq!((y.nrows(), y.ncols()), (10, 0));
        let x = generators::random_dense::<f64>(10, 5, 2);
        assert_eq!(
            spmm_aspt(&aspt, &x).unwrap().data(),
            spmm_aspt_kblocked(&aspt, &x, 0).unwrap().data()
        );
        assert!(spmm_aspt_kblocked(&aspt, &generators::random_dense::<f64>(4, 3, 1), 2).is_err());
    }

    /// Regression for the fused single-pass restructure: the k-blocked
    /// kernel (which used to fork/join per column block) stays
    /// bit-identical to its unblocked reference on every Quick corpus
    /// class.
    #[test]
    fn kblocked_fused_pass_is_bit_identical_on_quick_corpus() {
        use spmm_data::corpus::{Corpus, CorpusProfile};
        let corpus = Corpus::<f32>::generate(CorpusProfile::Quick, 23);
        for cm in corpus.iter() {
            let s = &cm.matrix;
            let x = generators::random_dense::<f32>(s.ncols(), 21, 29);
            let aspt = AsptMatrix::build(s, &AsptConfig::default());
            let tiled = spmm_aspt(&aspt, &x).unwrap();
            for kb in [1, 8, 21, 64] {
                assert_eq!(
                    tiled.data(),
                    spmm_aspt_kblocked(&aspt, &x, kb).unwrap().data(),
                    "aspt k_block={kb} deviates on {}",
                    cm.name
                );
            }
        }
    }

    #[test]
    fn k_one_degenerates_to_spmv() {
        let s = generators::banded::<f64>(40, 3, 4, 21);
        let x = generators::random_dense::<f64>(40, 1, 2);
        let y = spmm_rowwise_seq(&s, &x).unwrap();
        // manual SpMV
        for i in 0..40 {
            let (cols, vals) = s.row(i);
            let expect: f64 = cols
                .iter()
                .zip(vals)
                .map(|(&c, &v)| v * x.get(c as usize, 0))
                .sum();
            assert!((y.get(i, 0) - expect).abs() < 1e-12);
        }
    }
}
