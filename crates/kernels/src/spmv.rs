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

use rayon::prelude::*;
use spmm_aspt::AsptMatrix;
use spmm_sparse::{fma_kernel, CsrMatrix, Scalar, SparseError};

fn check_dims<T: Scalar>(ncols: usize, x: &[T]) -> Result<(), SparseError> {
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
    /// Row-parallel SpMV: each rayon task owns one output element,
    /// mirroring the GPU's warp-per-row mapping. Bit-identical to
    /// [`spmv_rowwise_seq`] (rows are independent).
    pub fn spmv_rowwise_par<T: Scalar>(s: &CsrMatrix<T>, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_dims(s.ncols(), x)?;
        let mut y = vec![T::ZERO; s.nrows()];
        y.par_iter_mut().enumerate().for_each(|(i, out)| {
            let (cols, vals) = s.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                *out = v.mul_add(x[c as usize], *out);
            }
        });
        Ok(y)
    }
}

fma_kernel! {
    /// ASpT-structured SpMV: dense tiles accumulate per panel (the staged-X
    /// kernel with a one-element stage), the sparse remainder accumulates
    /// row-wise into the same output. The per-element accumulation order —
    /// tiles in panel order, then the remainder row — is exactly that of
    /// [`crate::spmm::spmm_aspt`], so the result is bit-identical to the
    /// SpMM kernel on an `n × 1` operand.
    pub fn spmv_aspt<T: Scalar>(aspt: &AsptMatrix<T>, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_dims(aspt.ncols(), x)?;
        let mut y = vec![T::ZERO; aspt.nrows()];

        // slice the output into per-panel chunks (panels cover consecutive
        // disjoint row ranges)
        let mut chunks: Vec<&mut [T]> = Vec::with_capacity(aspt.panels().len());
        let mut rest: &mut [T] = &mut y;
        for panel in aspt.panels() {
            let (head, tail) = rest.split_at_mut(panel.row_end - panel.row_start);
            chunks.push(head);
            rest = tail;
        }

        let remainder = aspt.remainder();
        aspt.panels()
            .par_iter()
            .zip(chunks)
            .for_each(|(panel, y_chunk)| {
                let panel_rows = panel.row_end - panel.row_start;
                // dense tiles: conceptually the staged-x kernel
                for tile in &panel.tiles {
                    for (rel, out) in y_chunk.iter_mut().enumerate().take(panel_rows) {
                        for e in tile.rowptr[rel]..tile.rowptr[rel + 1] {
                            *out = tile.values[e].mul_add(x[tile.colidx[e] as usize], *out);
                        }
                    }
                }
                // sparse remainder rows of this panel
                for r in panel.rows() {
                    let rel = r - panel.row_start;
                    let out = &mut y_chunk[rel];
                    let (cols, vals) = remainder.row(r);
                    for (&c, &v) in cols.iter().zip(vals) {
                        *out = v.mul_add(x[c as usize], *out);
                    }
                }
            });
        Ok(y)
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
