//! SpMV kernels: `y = S · x` — the dedicated `k = 1` fast path.
//!
//! SpMV is SpMM with a single dense column, but the general kernels pay
//! for that generality: a row-major `DenseMatrix` operand, per-row slice
//! arithmetic and k-blocking bookkeeping that is pure overhead at
//! `k = 1`. These kernels take the dense operand as a flat slice and
//! accumulate into scalars, while following the *exact* accumulation
//! order of their SpMM counterparts ([`crate::spmm::spmm_rowwise_seq`],
//! [`crate::spmm::spmm_aspt`]) — so every variant here is bit-identical
//! to the matching SpMM kernel applied to an `n × 1` operand.
//!
//! [`Engine::spmv`](crate::Engine::spmv) runs `spmv_rows`, SpMM's
//! engine body at `k = 1`: it walks the reordered CSR rows, not the
//! tiles, and gives the bits of [`spmv_rowwise_seq`]. [`spmv_aspt`]
//! keeps the tile walk of the paper's ASpT kernel.

use spmm_aspt::{AsptMatrix, Panel};
use spmm_sparse::{fma_kernel, par, CsrMatrix, Scalar, SparseError};

use crate::rows::{OutRows, RowMap, Stride};

pub(crate) fn check_dims<T: Scalar>(ncols: usize, x: &[T]) -> Result<(), SparseError> {
    if ncols != x.len() {
        return Err(SparseError::DimensionMismatch {
            expected: format!("S.ncols ({ncols}) == x.len"),
            got: format!("{}", x.len()),
        });
    }
    Ok(())
}

fma_kernel! {
    /// Sequential row-wise SpMV — the reference every other variant (and
    /// the serving layer's exactness checks) compare against. Accumulation
    /// per output element mirrors [`crate::spmm::spmm_rowwise_seq`] with
    /// `k = 1`: one `mul_add` per nonzero, in row traversal order.
    pub fn spmv_rowwise_seq<T: Scalar>(s: &CsrMatrix<T>, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_dims(s.ncols(), x)?;
        let mut y = vec![T::ZERO; s.nrows()];
        for (i, out) in y.iter_mut().enumerate() {
            let (cols, vals) = s.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                *out = v.mul_add(x[c as usize], *out);
            }
        }
        Ok(y)
    }
}

fma_kernel! {
    /// Row-parallel SpMV: each task owns its output elements,
    /// mirroring the GPU's warp-per-row mapping. Bit-identical to
    /// [`spmv_rowwise_seq`] (rows are independent).
    pub fn spmv_rowwise_par<T: Scalar>(s: &CsrMatrix<T>, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_dims(s.ncols(), x)?;
        let mut y = vec![T::ZERO; s.nrows()];
        par::chunks_mut(&mut y, 1, |i, out| {
            let (cols, vals) = s.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out[0] = v.mul_add(x[c as usize], out[0]);
            }
        });
        Ok(y)
    }
}

/// The entries of `y` as one-element kernel output rows, reordered row
/// `r` going to entry `map.old_of(r)`.
pub(crate) fn vector_rows<'a, T: Scalar>(
    y: &'a mut [T],
    map: RowMap<'a>,
) -> Result<OutRows<'a, T, Stride>, SparseError> {
    let n = y.len();
    OutRows::new(y, n, Stride(1), map)
}

/// `acc + Σ vals[e] * x[cols[e]]`, one `mul_add` per nonzero in order,
/// accumulated in a register.
#[inline(always)]
fn dot_run<T: Scalar>(mut acc: T, cols: &[u32], vals: &[T], x: &[T]) -> T {
    for (&c, &v) in cols.iter().zip(vals) {
        acc = v.mul_add(x[c as usize], acc);
    }
    acc
}

fma_kernel! {
    /// ASpT-structured SpMV in the decomposed matrix's own row order:
    /// per panel, each dense tile runs over all the panel's rows (the
    /// tile's staged `x` entries stay hot across them), then the
    /// remainder row by row. The per-element accumulation order — tiles
    /// in panel order, then the remainder row — is exactly that of
    /// [`crate::spmm::spmm_aspt`], so the result is bit-identical to the
    /// SpMM kernel on an `n × 1` operand.
    pub fn spmv_aspt<T: Scalar>(aspt: &AsptMatrix<T>, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_dims(aspt.ncols(), x)?;
        let mut y = vec![T::ZERO; aspt.nrows()];
        let remainder = aspt.remainder();
        let out = vector_rows(&mut y, RowMap::IDENTITY)?;
        out.for_each_panel(aspt.panels(), aspt.nnz(), |panel, mut rows| {
            let n = rows.len();
            for tile in &panel.tiles {
                let (rp, tc, tv) = (&tile.rowptr[..], &tile.colidx[..], &tile.values[..]);
                for rel in 0..n {
                    let (lo, hi) = (rp[rel], rp[rel + 1]);
                    if lo < hi {
                        let y = &mut rows.row_mut(rel)[0];
                        *y = dot_run(*y, &tc[lo..hi], &tv[lo..hi], x);
                    }
                }
            }
            for rel in 0..n {
                let (cols, vals) = remainder.row(panel.row_start + rel);
                if !cols.is_empty() {
                    let y = &mut rows.row_mut(rel)[0];
                    *y = dot_run(*y, cols, vals, x);
                }
            }
        });
        Ok(y)
    }
}

fma_kernel! {
    /// The engine's SpMV body: the engine's SpMM row body at `k = 1`.
    /// Each row of the reordered CSR matrix `s`, one panel per task,
    /// runs its nonzeros in CSR order through one register accumulator
    /// that starts at zero, and stores it once, to the caller's entry
    /// that `out` maps the row to. Bit-identical to
    /// [`spmv_rowwise_seq`]. The caller checks `x.len()`.
    pub(crate) fn spmv_rows<T: Scalar>(
        s: &CsrMatrix<T>,
        panels: &[Panel<T>],
        x: &[T],
        out: OutRows<'_, T, Stride>,
    ) {
        out.for_each_panel(panels, s.nnz(), |panel, mut rows| {
            for rel in 0..rows.len() {
                let (cols, vals) = s.row(panel.row_start + rel);
                rows.row_mut(rel)[0] = dot_run(T::ZERO, cols, vals, x);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::{spmm_rowwise_par, spmm_rowwise_seq};
    use spmm_aspt::AsptConfig;
    use spmm_data::generators;
    use spmm_sparse::DenseMatrix;

    fn column<T: Scalar>(n: usize, seed: u64) -> (Vec<T>, DenseMatrix<T>) {
        let x = generators::random_dense::<T>(n, 1, seed);
        (x.data().to_vec(), x)
    }

    #[test]
    fn spmv_is_bit_identical_to_spmm_k1() {
        let s = generators::uniform_random::<f64>(96, 80, 6, 3);
        let (x, x_mat) = column::<f64>(s.ncols(), 7);
        let seq = spmv_rowwise_seq(&s, &x).unwrap();
        assert_eq!(seq, spmm_rowwise_seq(&s, &x_mat).unwrap().data());
        assert_eq!(seq, spmv_rowwise_par(&s, &x).unwrap());
        assert_eq!(seq, spmm_rowwise_par(&s, &x_mat).unwrap().data());
    }

    #[test]
    fn aspt_spmv_is_bit_identical_to_aspt_spmm_k1() {
        for (s, seed) in [
            (generators::uniform_random::<f32>(96, 80, 6, 3), 5u64),
            (generators::block_diagonal::<f32>(6, 16, 24, 10, 5), 9),
            (generators::power_law::<f32>(128, 96, 1000, 0.8, 11), 13),
        ] {
            let (x, x_mat) = column::<f32>(s.ncols(), seed);
            for cfg in [AsptConfig::paper_figure(), AsptConfig::default()] {
                let aspt = AsptMatrix::build(&s, &cfg);
                let tiled = spmv_aspt(&aspt, &x).unwrap();
                let spmm = crate::spmm::spmm_aspt(&aspt, &x_mat).unwrap();
                assert_eq!(tiled, spmm.data(), "aspt spmv deviates with {cfg:?}");
            }
        }
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        let s = CsrMatrix::from_parts(
            5,
            4,
            vec![0, 1, 1, 2, 2, 3],
            vec![2, 0, 3],
            vec![1.5f64, -2.0, 0.5],
        )
        .unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = spmv_rowwise_seq(&s, &x).unwrap();
        assert_eq!(y, vec![4.5, 0.0, -2.0, 0.0, 2.0]);
        let empty = CsrMatrix::<f64>::from_parts(3, 2, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        assert_eq!(spmv_rowwise_seq(&empty, &[1.0, 2.0]).unwrap(), vec![0.0; 3]);
        let aspt = AsptMatrix::build(&empty, &AsptConfig::default());
        assert_eq!(spmv_aspt(&aspt, &[1.0, 2.0]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let s = CsrMatrix::<f64>::identity(4);
        assert!(spmv_rowwise_seq(&s, &[1.0; 5]).is_err());
        assert!(spmv_rowwise_par(&s, &[1.0; 3]).is_err());
        let aspt = AsptMatrix::build(&s, &AsptConfig::default());
        assert!(spmv_aspt(&aspt, &[1.0; 5]).is_err());
    }
}
