//! SpMM kernels: `Y = S · X` (paper Alg 1).

use rayon::prelude::*;
use spmm_aspt::AsptMatrix;
use spmm_sparse::{fma_kernel, CsrMatrix, DenseMatrix, Scalar, SparseError};

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

/// Slices `data` (row-major, `k` columns) into per-panel chunks.
/// Panels cover consecutive disjoint row ranges, so the chunks
/// partition the output and panel parallelism over them is safe.
pub(crate) fn panel_chunks<'a, T: Scalar>(
    aspt: &AsptMatrix<T>,
    data: &'a mut [T],
    k: usize,
) -> Vec<&'a mut [T]> {
    let mut chunks: Vec<&mut [T]> = Vec::with_capacity(aspt.panels().len());
    let mut rest = data;
    for panel in aspt.panels() {
        let (head, tail) = rest.split_at_mut((panel.row_end - panel.row_start) * k);
        chunks.push(head);
        rest = tail;
    }
    chunks
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
    /// Row-parallel SpMM: each rayon task owns one output row, mirroring
    /// the GPU's warp-per-row mapping.
    pub fn spmm_rowwise_par<T: Scalar>(
        s: &CsrMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        let (m, k) = check_dims(s, x)?;
        let mut y = DenseMatrix::zeros(m, k);
        // k = 0 leaves no data to chunk; a zero chunk size would panic
        y.data_mut()
            .par_chunks_mut(k.max(1))
            .enumerate()
            .for_each(|(i, y_row)| {
                let (cols, vals) = s.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    axpy(y_row, v, x.row(c as usize));
                }
            });
        Ok(y)
    }
}

fma_kernel! {
    /// ASpT-structured SpMM: dense tiles accumulate per panel (mirroring
    /// the shared-memory kernel), the remainder accumulates row-wise into
    /// the same output. Panels own disjoint output row ranges, so panel
    /// parallelism is safe.
    pub fn spmm_aspt<T: Scalar>(
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
        aspt.panels()
            .par_iter()
            .zip(chunks)
            .for_each(|(panel, y_chunk)| {
                let panel_rows = panel.row_end - panel.row_start;
                // dense tiles: conceptually the staged-X kernel
                for tile in &panel.tiles {
                    for rel in 0..panel_rows {
                        let y_row = &mut y_chunk[rel * k..(rel + 1) * k];
                        for e in tile.rowptr[rel]..tile.rowptr[rel + 1] {
                            axpy(y_row, tile.values[e], x.row(tile.colidx[e] as usize));
                        }
                    }
                }
                // sparse remainder rows of this panel
                for r in panel.rows() {
                    let rel = r - panel.row_start;
                    let y_row = &mut y_chunk[rel * k..(rel + 1) * k];
                    let (cols, vals) = remainder.row(r);
                    for (&c, &v) in cols.iter().zip(vals) {
                        axpy(y_row, v, x.row(c as usize));
                    }
                }
            });
        Ok(y)
    }
}

fma_kernel! {
    /// Column-blocked ASpT SpMM — the kernel every prepared SpMM runs.
    /// Processes the operand one `k_block`-wide column block at a time;
    /// each pass runs the same dense-tile + remainder traversal as
    /// [`spmm_aspt()`] restricted to that block's columns. The output split
    /// and the rayon fork/join happen once: the block loop runs inside each
    /// panel's task, so pass count never multiplies scheduling overhead.
    /// The per-element accumulation order matches `spmm_aspt` exactly
    /// (blocking only partitions columns, never reorders nonzeros), so the
    /// output is bit-identical for every width; `k_block ≥ k` is one pass
    /// over the whole operand. A zero `k_block` is clamped to 1.
    pub fn spmm_aspt_kblocked<T: Scalar>(
        aspt: &AsptMatrix<T>,
        x: &DenseMatrix<T>,
        k_block: usize,
    ) -> Result<DenseMatrix<T>, SparseError> {
        if aspt.ncols() != x.nrows() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("S.ncols ({}) == X.nrows", aspt.ncols()),
                got: format!("{}", x.nrows()),
            });
        }
        let k = x.ncols();
        let kb = k_block.max(1);
        let mut y = DenseMatrix::zeros(aspt.nrows(), k);
        let chunks = panel_chunks(aspt, y.data_mut(), k);
        let remainder = aspt.remainder();

        aspt.panels()
            .par_iter()
            .zip(chunks)
            .for_each(|(panel, y_chunk)| {
                let panel_rows = panel.row_end - panel.row_start;
                let mut c0 = 0;
                while c0 < k {
                    let c1 = (c0 + kb).min(k);
                    for tile in &panel.tiles {
                        for rel in 0..panel_rows {
                            let y_row = &mut y_chunk[rel * k + c0..rel * k + c1];
                            for e in tile.rowptr[rel]..tile.rowptr[rel + 1] {
                                axpy(
                                    y_row,
                                    tile.values[e],
                                    &x.row(tile.colidx[e] as usize)[c0..c1],
                                );
                            }
                        }
                    }
                    for r in panel.rows() {
                        let rel = r - panel.row_start;
                        let y_row = &mut y_chunk[rel * k + c0..rel * k + c1];
                        let (cols, vals) = remainder.row(r);
                        for (&c, &v) in cols.iter().zip(vals) {
                            axpy(y_row, v, &x.row(c as usize)[c0..c1]);
                        }
                    }
                    c0 = c1;
                }
            });
        Ok(y)
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
