//! SDDMM kernels: `O.value[j] = <Y_i , X_c> · S.value[j]` for every
//! nonzero `(i, c)` of `S` (paper Alg 2).
//!
//! Outputs are the values of a sparse matrix with exactly `S`'s
//! structure, returned as a `Vec<T>` parallel to `S.values()`.
//!
//! The ASpT kernel has one body, `sddmm_rows`, which
//! [`Engine::sddmm`](crate::Engine::sddmm) runs. It walks the rows of
//! the reordered matrix one panel per task and, within a row, runs the
//! dots of `G` nonzeros side by side, sharing each load of the row's
//! `Y`. Each dot is the same sequential fused chain as the row-wise
//! reference, so every result is bit-identical to it. The body reads
//! each `Y` row in place and fills each row's values straight into the
//! caller's nonzero array through the plan's row map. It walks rows,
//! not tiles: on a CPU the tiles give SDDMM nothing the cache does not,
//! and a row's nonzeros lie side by side only in the row order
//! (DESIGN.md §12).

use spmm_aspt::Panel;
use spmm_sparse::{fma_kernel, par, CsrMatrix, DenseMatrix, Scalar, SparseError};

use crate::rows::{Offsets, OutRows};

pub(crate) fn check_dims<T: Scalar>(
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
        Ok(par::flat_map(s.nrows(), |i, out| {
            let y_row = y.row(i);
            let (cols, vals) = s.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out.push(dot(y_row, x.row(c as usize)) * v);
            }
        }))
    }
}

/// Nonzeros of one row whose dots run at once, each in its own chain.
const G: usize = 4;

/// Width of the chunks in which [`dots`] walks `k`: a compile-time trip
/// count, so each chunk is loaded without bounds checks and the chains
/// advance through it side by side.
const TW: usize = 8;

/// `N` dot products `<y_row, xs[g]>` advanced in lockstep over `t`,
/// sharing each load of `y_row`. Each is the same sequential fused
/// chain as [`dot`], so every result is bit-identical to it. Every
/// slice has length `k`.
#[inline(always)]
fn dots<T: Scalar, const N: usize>(y_row: &[T], xs: &[&[T]; N], k: usize) -> [T; N] {
    let mut acc = [T::ZERO; N];
    let mut t = 0;
    while t + TW <= k {
        let yc = chunk(y_row, t);
        let xc: [[T; TW]; N] = std::array::from_fn(|g| chunk(xs[g], t));
        for j in 0..TW {
            for g in 0..N {
                acc[g] = yc[j].mul_add(xc[g][j], acc[g]);
            }
        }
        t += TW;
    }
    for t in t..k {
        for g in 0..N {
            acc[g] = y_row[t].mul_add(xs[g][t], acc[g]);
        }
    }
    acc
}

#[inline(always)]
fn chunk<T: Scalar>(s: &[T], t: usize) -> [T; TW] {
    s[t..t + TW].try_into().expect("a chunk holds TW elements")
}

/// Nonzeros `i..i + N` of a row: `out[i + g] = <y_row, x[cols[i + g]]>
/// · vals[i + g]`.
#[inline(always)]
fn group<T: Scalar, const N: usize>(
    i: usize,
    y_row: &[T],
    cols: &[u32],
    vals: &[T],
    x: &DenseMatrix<T>,
    out: &mut [T],
) {
    let k = y_row.len();
    let xs: [&[T]; N] = std::array::from_fn(|g| &x.row(cols[i + g] as usize)[..k]);
    let d = dots(y_row, &xs, k);
    for g in 0..N {
        out[i + g] = d[g] * vals[i + g];
    }
}

/// One row's SDDMM: its nonzeros `G` at a time, the last ones in groups
/// of 2 and 1. `out` is the row's span of the output.
#[inline(always)]
fn sddmm_row<T: Scalar>(y_row: &[T], cols: &[u32], vals: &[T], x: &DenseMatrix<T>, out: &mut [T]) {
    let n = cols.len();
    assert_eq!(out.len(), n, "the output row must hold the row's nonzeros");
    let mut i = 0;
    while n - i >= G {
        group::<T, G>(i, y_row, cols, vals, x, out);
        i += G;
    }
    if n - i >= 2 {
        group::<T, 2>(i, y_row, cols, vals, x, out);
        i += 2;
    }
    if n - i == 1 {
        group::<T, 1>(i, y_row, cols, vals, x, out);
    }
}

fma_kernel! {
    /// The one ASpT SDDMM body. `s` is the decomposed matrix, its rows
    /// in kernel order, and each panel is one task over its rows. A
    /// row's nonzeros lie side by side in `s`, so their dots run `G` at
    /// a time through [`dots`], sharing each load of the row's `Y`, and
    /// their values fill the row's span of `out` in order. `Y` rows are
    /// read in place and output rows written in place, both through the
    /// row map of `out`: row `r` reads `Y` row `old_of(r)` and fills the
    /// nonzeros of caller row `old_of(r)`, which holds row `r`'s
    /// nonzeros in the same order, since a row permutation keeps the
    /// order within each row. The caller checks the operand shapes.
    pub(crate) fn sddmm_rows<T: Scalar>(
        s: &CsrMatrix<T>,
        panels: &[Panel<T>],
        x: &DenseMatrix<T>,
        y: &DenseMatrix<T>,
        out: OutRows<'_, T, Offsets<'_>>,
    ) {
        let k = x.ncols();
        out.for_each_panel(panels, s.nnz() * k, |panel, mut rows| {
            for rel in 0..rows.len() {
                let r = panel.row_start + rel;
                let y_row = &y.row(rows.map().old_of(r))[..k];
                let (cols, vals) = s.row(r);
                sddmm_row(y_row, cols, vals, x, rows.row_mut(rel));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{Offsets, RowMap};
    use spmm_aspt::{AsptConfig, AsptMatrix};
    use spmm_data::generators;

    /// The ASpT body over `s` with the panels of `aspt`, its
    /// decomposition, in `s`'s own row order.
    fn sddmm_panels<T: Scalar>(
        s: &CsrMatrix<T>,
        aspt: &AsptMatrix<T>,
        x: &DenseMatrix<T>,
        y: &DenseMatrix<T>,
    ) -> Vec<T> {
        check_dims(s.nrows(), s.ncols(), x, y).unwrap();
        let mut out = vec![T::ZERO; s.nnz()];
        let rows =
            OutRows::new(&mut out, s.nrows(), Offsets(s.rowptr()), RowMap::IDENTITY).unwrap();
        sddmm_rows(s, aspt.panels(), x, y, rows);
        out
    }

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
            let tiled = sddmm_panels(s, &aspt, &x, &y);
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

    /// Integer-valued operands make every sum exact, so the grouped body
    /// must equal the row-wise reference bit for bit on the shapes that
    /// stress its groups: rows shorter than `G`, empty rows, panels with
    /// no tiles, and rows whose length is not a multiple of `G`, so that
    /// every group size (`G`, 2, 1) runs.
    #[test]
    fn lane_groups_match_the_reference_on_ragged_rows() {
        let quantize = |m: &DenseMatrix<f64>| {
            let d = m.data().iter().map(|v| (v * 4.0).round()).collect();
            DenseMatrix::from_vec(m.nrows(), m.ncols(), d)
        };
        let ragged = {
            // row i holds i % 11 nonzeros (0 to 10), so runs of every
            // length around G appear, and every 11th row is empty
            let mut rowptr = vec![0usize];
            let mut colidx = Vec::new();
            for i in 0..70u32 {
                colidx.extend((0..i % 11).map(|j| (j * 3 + i) % 40));
                colidx[rowptr[rowptr.len() - 1]..].sort_unstable();
                rowptr.push(colidx.len());
            }
            let values = (0..colidx.len()).map(|j| (j % 7) as f64 - 3.0).collect();
            CsrMatrix::from_parts(70, 40, rowptr, colidx, values).unwrap()
        };
        let mut clustered = generators::block_diagonal::<f64>(5, 16, 24, 10, 7);
        let n = clustered.nnz();
        clustered
            .values_mut()
            .copy_from_slice(&(0..n).map(|j| (j % 5) as f64 - 2.0).collect::<Vec<_>>());
        let (mut bare, mut tiled_panels) = (0, 0);
        for s in [ragged, clustered] {
            for cfg in [AsptConfig::paper_figure(), AsptConfig::default()] {
                let aspt = AsptMatrix::build(&s, &cfg);
                for p in aspt.panels() {
                    *(if p.tiles.is_empty() {
                        &mut bare
                    } else {
                        &mut tiled_panels
                    }) += 1;
                }
                for k in [0, 1, 7, 8, 9, 33] {
                    let x = quantize(&generators::random_dense::<f64>(s.ncols(), k, 3));
                    let y = quantize(&generators::random_dense::<f64>(s.nrows(), k, 5));
                    let reference = sddmm_rowwise_seq(&s, &x, &y).unwrap();
                    let tiled = sddmm_panels(&s, &aspt, &x, &y);
                    assert_eq!(reference, tiled, "k={k} {cfg:?}");
                }
            }
        }
        assert!(
            bare > 0 && tiled_panels > 0,
            "{bare} bare, {tiled_panels} tiled panels"
        );
    }

    #[test]
    fn empty_sparse_matrix() {
        let s = CsrMatrix::<f64>::from_parts(2, 2, vec![0, 0, 0], vec![], vec![]).unwrap();
        let x = generators::random_dense::<f64>(2, 4, 1);
        let y = generators::random_dense::<f64>(2, 4, 2);
        assert!(sddmm_rowwise_seq(&s, &x, &y).unwrap().is_empty());
        let aspt = AsptMatrix::build(&s, &AsptConfig::default());
        assert!(sddmm_panels(&s, &aspt, &x, &y).is_empty());
    }
}
