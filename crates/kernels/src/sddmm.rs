//! SDDMM kernels: `O.value[j] = <Y_i , X_c> · S.value[j]` for every
//! nonzero `(i, c)` of `S` (paper Alg 2).
//!
//! Outputs are the values of a sparse matrix with exactly `S`'s
//! structure, returned as a `Vec<T>` parallel to `S.values()`.

use rayon::prelude::*;
use spmm_aspt::AsptMatrix;
use spmm_sparse::{fma_kernel, CsrMatrix, DenseMatrix, Scalar, SparseError};

use crate::micro::dot_chunked;

fn check_dims<T: Scalar>(
    s_nrows: usize,
    s_ncols: usize,
    x: &DenseMatrix<T>,
    y: &DenseMatrix<T>,
) -> Result<(), SparseError> {
    if x.nrows() != s_ncols {
        return Err(SparseError::DimensionMismatch {
            expected: format!("X.nrows == S.ncols ({s_ncols})"),
            got: format!("{}", x.nrows()),
        });
    }
    if y.nrows() != s_nrows {
        return Err(SparseError::DimensionMismatch {
            expected: format!("Y.nrows == S.nrows ({s_nrows})"),
            got: format!("{}", y.nrows()),
        });
    }
    if x.ncols() != y.ncols() {
        return Err(SparseError::DimensionMismatch {
            expected: format!("X.ncols ({}) == Y.ncols", x.ncols()),
            got: format!("{}", y.ncols()),
        });
    }
    Ok(())
}

#[inline(always)]
fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc = x.mul_add(y, acc);
    }
    acc
}

fma_kernel! {
    /// Sequential Alg 2 reference.
    pub fn sddmm_rowwise_seq<T: Scalar>(
        s: &CsrMatrix<T>,
        x: &DenseMatrix<T>,
        y: &DenseMatrix<T>,
    ) -> Result<Vec<T>, SparseError> {
        check_dims(s.nrows(), s.ncols(), x, y)?;
        let mut out = Vec::with_capacity(s.nnz());
        for i in 0..s.nrows() {
            let y_row = y.row(i);
            let (cols, vals) = s.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out.push(dot(y_row, x.row(c as usize)) * v);
            }
        }
        Ok(out)
    }
}

fma_kernel! {
    /// Row-parallel Alg 2 (order of the output matches `s.values()`).
    pub fn sddmm_rowwise_par<T: Scalar>(
        s: &CsrMatrix<T>,
        x: &DenseMatrix<T>,
        y: &DenseMatrix<T>,
    ) -> Result<Vec<T>, SparseError> {
        check_dims(s.nrows(), s.ncols(), x, y)?;
        let out: Vec<T> = (0..s.nrows())
            .into_par_iter()
            .flat_map_iter(|i| {
                let y_row = y.row(i);
                let (cols, vals) = s.row(i);
                cols.iter()
                    .zip(vals)
                    .map(move |(&c, &v)| dot(y_row, x.row(c as usize)) * v)
            })
            .collect();
        Ok(out)
    }
}

/// ASpT-structured SDDMM. The output stays in the *source CSR order* of
/// the decomposed matrix, reconstructed through the tiles' and
/// remainder's `src_idx` maps. Panels own contiguous source-nonzero
/// ranges, so the scatter is panel-parallel and safe.
pub fn sddmm_aspt<T: Scalar>(
    aspt: &AsptMatrix<T>,
    x: &DenseMatrix<T>,
    y: &DenseMatrix<T>,
    src_rowptr: &[usize],
) -> Result<Vec<T>, SparseError> {
    sddmm_aspt_with::<T, 0>(aspt, x, y, src_rowptr)
}

/// [`sddmm_aspt`] with a plan-selected microkernel dot product:
/// `micro_width` in [`crate::micro::MICRO_WIDTHS`] routes the inner
/// product through the fixed-trip-count chunked dot (bit-identical —
/// one accumulator chain in the same element order), anything else
/// runs the plain slice dot.
pub fn sddmm_aspt_auto<T: Scalar>(
    aspt: &AsptMatrix<T>,
    x: &DenseMatrix<T>,
    y: &DenseMatrix<T>,
    src_rowptr: &[usize],
    micro_width: Option<usize>,
) -> Result<Vec<T>, SparseError> {
    match micro_width {
        Some(8) => sddmm_aspt_with::<T, 8>(aspt, x, y, src_rowptr),
        Some(16) => sddmm_aspt_with::<T, 16>(aspt, x, y, src_rowptr),
        Some(32) => sddmm_aspt_with::<T, 32>(aspt, x, y, src_rowptr),
        _ => sddmm_aspt(aspt, x, y, src_rowptr),
    }
}

/// The inner product of `sddmm_aspt_with::<T, W>`: the chunked dot at
/// width `W`, the plain slice dot at `W = 0`. `W` is a constant, so each
/// instance keeps one arm. A const parameter rather than an `Fn` value,
/// because a dot passed as a value is called through a shim compiled
/// without the dispatched copy's target features.
#[inline(always)]
fn dot_w<T: Scalar, const W: usize>(a: &[T], b: &[T]) -> T {
    if W == 0 {
        dot(a, b)
    } else {
        dot_chunked::<T, W>(a, b)
    }
}

fma_kernel! {
    /// The shared ASpT SDDMM body at dot width `W` (see [`dot_w`]), so
    /// the chunked dot and the plain slice dot run the exact same
    /// traversal and scatter.
    fn sddmm_aspt_with<T: Scalar, const W: usize>(
        aspt: &AsptMatrix<T>,
        x: &DenseMatrix<T>,
        y: &DenseMatrix<T>,
        src_rowptr: &[usize],
    ) -> Result<Vec<T>, SparseError> {
        check_dims(aspt.nrows(), aspt.ncols(), x, y)?;
        let nnz = aspt.nnz();
        let mut out = vec![T::ZERO; nnz];

        // slice the output by panel source ranges
        let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(aspt.panels().len());
        let mut rest: &mut [T] = &mut out;
        let mut base = 0usize;
        for panel in aspt.panels() {
            let end = src_rowptr[panel.row_end];
            let (head, tail) = rest.split_at_mut(end - base);
            chunks.push((base, head));
            rest = tail;
            base = end;
        }

        let remainder = aspt.remainder();
        aspt.panels()
            .par_iter()
            .zip(chunks)
            .for_each(|(panel, (base, out_chunk))| {
                let panel_rows = panel.row_end - panel.row_start;
                for tile in &panel.tiles {
                    for rel in 0..panel_rows {
                        let y_row = y.row(panel.row_start + rel);
                        for e in tile.rowptr[rel]..tile.rowptr[rel + 1] {
                            let c = tile.colidx[e] as usize;
                            let src = tile.src_idx[e] as usize;
                            out_chunk[src - base] =
                                dot_w::<T, W>(y_row, x.row(c)) * tile.values[e];
                        }
                    }
                }
                for r in panel.rows() {
                    let y_row = y.row(r);
                    let (lo, hi) = (remainder.rowptr()[r], remainder.rowptr()[r + 1]);
                    for e in lo..hi {
                        let c = remainder.colidx()[e] as usize;
                        let src = aspt.remainder_src()[e] as usize;
                        out_chunk[src - base] =
                            dot_w::<T, W>(y_row, x.row(c)) * remainder.values()[e];
                    }
                }
            });
        Ok(out)
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

    fn max_diff<T: Scalar>(a: &[T], b: &[T]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    fn check_all_variants<T: Scalar>(s: &CsrMatrix<T>, k: usize, seed: u64) {
        let x = generators::random_dense::<T>(s.ncols(), k, seed);
        let y = generators::random_dense::<T>(s.nrows(), k, seed ^ 0xff);
        let reference = sddmm_rowwise_seq(s, &x, &y).unwrap();
        assert_eq!(reference.len(), s.nnz());

        let par = sddmm_rowwise_par(s, &x, &y).unwrap();
        assert!(max_diff(&reference, &par) <= tol::<T>());

        for cfg in [
            AsptConfig::paper_figure(),
            AsptConfig {
                panel_height: 8,
                min_col_nnz: 2,
                tile_width: 4,
            },
        ] {
            let aspt = AsptMatrix::build(s, &cfg);
            let tiled = sddmm_aspt(&aspt, &x, &y, s.rowptr()).unwrap();
            assert!(
                max_diff(&reference, &tiled) <= tol::<T>(),
                "aspt deviates with {cfg:?}"
            );
        }
    }

    #[test]
    fn known_small_sddmm() {
        // S = [[0, 2], [1, 0]], X rows: [1,1], [2,0]; Y rows: [3,4], [5,6]
        let s = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![2.0f64, 1.0]).unwrap();
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 1.0, 2.0, 0.0]);
        let y = DenseMatrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let out = sddmm_rowwise_seq(&s, &x, &y).unwrap();
        // nnz (0,1): <Y0, X1> * 2 = (3*2 + 4*0)*2 = 12
        // nnz (1,0): <Y1, X0> * 1 = (5+6)*1 = 11
        assert_eq!(out, vec![12.0, 11.0]);
    }

    #[test]
    fn all_variants_agree_scattered_f64() {
        let s = generators::uniform_random::<f64>(80, 64, 5, 3);
        check_all_variants(&s, 16, 5);
    }

    #[test]
    fn all_variants_agree_clustered_f32() {
        let s = generators::block_diagonal::<f32>(5, 16, 24, 10, 7);
        check_all_variants(&s, 8, 9);
    }

    #[test]
    fn all_variants_agree_with_empty_rows() {
        let s = CsrMatrix::from_parts(
            4,
            3,
            vec![0, 2, 2, 3, 3],
            vec![0, 2, 1],
            vec![1.0f64, 2.0, 3.0],
        )
        .unwrap();
        check_all_variants(&s, 4, 11);
    }

    #[test]
    fn scaling_by_sparse_values_is_applied() {
        let s = CsrMatrix::from_parts(1, 1, vec![0, 1], vec![0], vec![10.0f64]).unwrap();
        let x = DenseMatrix::from_vec(1, 2, vec![1.0, 2.0]);
        let y = DenseMatrix::from_vec(1, 2, vec![3.0, 4.0]);
        let out = sddmm_rowwise_seq(&s, &x, &y).unwrap();
        assert_eq!(out, vec![(3.0 + 8.0) * 10.0]);
    }

    #[test]
    fn dimension_checks() {
        let s = CsrMatrix::<f64>::identity(3);
        let x = generators::random_dense::<f64>(3, 4, 1);
        let y3 = generators::random_dense::<f64>(3, 4, 2);
        let y_bad_rows = generators::random_dense::<f64>(2, 4, 2);
        let y_bad_k = generators::random_dense::<f64>(3, 5, 2);
        assert!(sddmm_rowwise_seq(&s, &x, &y3).is_ok());
        assert!(sddmm_rowwise_seq(&s, &x, &y_bad_rows).is_err());
        assert!(sddmm_rowwise_seq(&s, &x, &y_bad_k).is_err());
        let x_bad = generators::random_dense::<f64>(4, 4, 1);
        assert!(sddmm_rowwise_seq(&s, &x_bad, &y3).is_err());
    }

    #[test]
    fn micro_dot_sddmm_is_bit_identical_to_generic() {
        let s = generators::block_diagonal::<f64>(5, 16, 24, 10, 7);
        for k in [7, 16, 33] {
            let x = generators::random_dense::<f64>(s.ncols(), k, 3);
            let y = generators::random_dense::<f64>(s.nrows(), k, 5);
            let aspt = AsptMatrix::build(&s, &AsptConfig::paper_figure());
            let generic = sddmm_aspt(&aspt, &x, &y, s.rowptr()).unwrap();
            for w in crate::micro::MICRO_WIDTHS {
                let micro = sddmm_aspt_auto(&aspt, &x, &y, s.rowptr(), Some(w)).unwrap();
                let same = generic
                    .iter()
                    .zip(&micro)
                    .all(|(a, b)| a.to_bits64() == b.to_bits64());
                assert!(same, "micro dot deviates at k={k} width={w}");
            }
            // a non-specialized width falls back to the plain dot
            let fallback = sddmm_aspt_auto(&aspt, &x, &y, s.rowptr(), None).unwrap();
            assert_eq!(generic, fallback);
        }
    }

    #[test]
    fn empty_sparse_matrix() {
        let s = CsrMatrix::<f64>::from_parts(2, 2, vec![0, 0, 0], vec![], vec![]).unwrap();
        let x = generators::random_dense::<f64>(2, 4, 1);
        let y = generators::random_dense::<f64>(2, 4, 2);
        assert!(sddmm_rowwise_seq(&s, &x, &y).unwrap().is_empty());
        let aspt = AsptMatrix::build(&s, &AsptConfig::default());
        assert!(sddmm_aspt(&aspt, &x, &y, s.rowptr()).unwrap().is_empty());
    }
}
