//! SpGEMM kernels: `C = A · B` with both operands sparse (Gustavson's
//! row-by-row formulation).
//!
//! The paper's transformation is op-agnostic: after LSH clustering and
//! two-round reordering, rows with similar column patterns sit in the
//! same ASpT panel. Gustavson's algorithm exploits exactly that —
//! similar `A` rows touch similar `B` rows, so their partial products
//! land in the same accumulator slots. [`spgemm_clustered`] makes the
//! reuse explicit: one dense accumulator per panel, reset between rows
//! via a touched-columns list and never reallocated, so a panel of `h`
//! similar rows pays for one accumulator and `h` sparse resets instead
//! of `h` full `b.ncols()`-wide clears.
//!
//! All variants traverse `A`-row nonzeros in stored (ascending-column)
//! order and fold each partial product with a single `mul_add`, so the
//! per-output-element accumulation order — and therefore every output
//! bit — is identical across [`spgemm_gustavson_seq`],
//! [`spgemm_gustavson_par`] and [`spgemm_clustered`].

use crate::rows::RowMap;
use spmm_sparse::{fma_kernel, par, CsrMatrix, Scalar, SparseError};

fn check_dims<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<(), SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: format!("A.ncols ({}) == B.nrows", a.ncols()),
            got: format!("{}", b.nrows()),
        });
    }
    Ok(())
}

/// One Gustavson row: scatter `Σ a[i,p] · B[p, :]` into the dense
/// accumulator, recording first-touched columns. Shared by every
/// variant so the floating-point fold order is identical everywhere.
#[inline(always)]
fn accumulate_row<T: Scalar>(
    a_cols: &[u32],
    a_vals: &[T],
    b: &CsrMatrix<T>,
    acc: &mut [T],
    present: &mut [bool],
    touched: &mut Vec<u32>,
) {
    for (&ac, &av) in a_cols.iter().zip(a_vals) {
        let (b_cols, b_vals) = b.row(ac as usize);
        for (&bc, &bv) in b_cols.iter().zip(b_vals) {
            let j = bc as usize;
            if !present[j] {
                present[j] = true;
                touched.push(bc);
            }
            acc[j] = av.mul_add(bv, acc[j]);
        }
    }
}

/// Drains the accumulator into sorted `(cols, vals)` output and resets
/// only the touched slots, leaving `acc`/`present` clean for the next
/// row at `O(touched)` cost.
#[inline]
fn drain_row<T: Scalar>(
    acc: &mut [T],
    present: &mut [bool],
    touched: &mut Vec<u32>,
    out_cols: &mut Vec<u32>,
    out_vals: &mut Vec<T>,
) {
    touched.sort_unstable();
    for &c in touched.iter() {
        out_cols.push(c);
        out_vals.push(acc[c as usize]);
        acc[c as usize] = T::ZERO;
        present[c as usize] = false;
    }
    touched.clear();
}

fn assemble<T: Scalar>(nrows: usize, ncols: usize, rows: Vec<(Vec<u32>, Vec<T>)>) -> CsrMatrix<T> {
    let nnz = rows.iter().map(|(c, _)| c.len()).sum();
    let mut rowptr = Vec::with_capacity(nrows + 1);
    let mut colidx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    rowptr.push(0usize);
    for (cols, vals) in rows {
        colidx.extend_from_slice(&cols);
        values.extend_from_slice(&vals);
        rowptr.push(colidx.len());
    }
    CsrMatrix::from_parts(nrows, ncols, rowptr, colidx, values)
        .expect("Gustavson emits sorted, in-bounds, duplicate-free columns")
}

fma_kernel! {
    /// Sequential naive per-row Gustavson — the reference every other
    /// variant (and the serving layer's exactness checks) compare against.
    /// Allocates a fresh dense accumulator for every row, the baseline the
    /// clustered variant's reuse is measured over.
    pub fn spgemm_gustavson_seq<T: Scalar>(
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
    ) -> Result<CsrMatrix<T>, SparseError> {
        check_dims(a, b)?;
        let mut rows = Vec::with_capacity(a.nrows());
        for i in 0..a.nrows() {
            // naive: per-row allocation, no reuse across rows
            let mut acc = vec![T::ZERO; b.ncols()];
            let mut present = vec![false; b.ncols()];
            let mut touched = Vec::new();
            let (a_cols, a_vals) = a.row(i);
            accumulate_row(a_cols, a_vals, b, &mut acc, &mut present, &mut touched);
            let mut cols = Vec::with_capacity(touched.len());
            let mut vals = Vec::with_capacity(touched.len());
            drain_row(&mut acc, &mut present, &mut touched, &mut cols, &mut vals);
            rows.push((cols, vals));
        }
        Ok(assemble(a.nrows(), b.ncols(), rows))
    }
}

fma_kernel! {
    /// Row-parallel naive Gustavson: one fresh accumulator per row, rows
    /// spread over the pool. Bit-identical to [`spgemm_gustavson_seq`] —
    /// rows are independent and the per-row fold order is shared. This is
    /// the serving layer's fallback kernel.
    pub fn spgemm_gustavson_par<T: Scalar>(
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
    ) -> Result<CsrMatrix<T>, SparseError> {
        check_dims(a, b)?;
        let rows: Vec<(Vec<u32>, Vec<T>)> = par::map(a.nrows(), |i| {
            let mut acc = vec![T::ZERO; b.ncols()];
            let mut present = vec![false; b.ncols()];
            let mut touched = Vec::new();
            let (a_cols, a_vals) = a.row(i);
            accumulate_row(a_cols, a_vals, b, &mut acc, &mut present, &mut touched);
            let mut cols = Vec::with_capacity(touched.len());
            let mut vals = Vec::with_capacity(touched.len());
            drain_row(&mut acc, &mut present, &mut touched, &mut cols, &mut vals);
            (cols, vals)
        });
        Ok(assemble(a.nrows(), b.ncols(), rows))
    }
}

/// Cluster-wise Gustavson: rows are processed in panels of
/// `panel_height` (the ASpT panel grouping the reordering pipeline
/// already produces — similar rows are adjacent). Each panel task owns
/// ONE dense accumulator, reset between rows via the touched-columns
/// list and never reallocated, so similar rows amortize both the
/// allocation and the clear. Bit-identical to
/// [`spgemm_gustavson_seq`]: reuse changes *when* slots are cleared,
/// never the fold order.
pub fn spgemm_clustered<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    panel_height: usize,
) -> Result<CsrMatrix<T>, SparseError> {
    spgemm_clustered_rows(a, b, panel_height, RowMap::IDENTITY)
}

fma_kernel! {
    /// [`spgemm_clustered`] over the reordered rows of `a`, each finished
    /// row of `C` placed at its caller row `map.old_of(i)`, so `C` comes
    /// out in the caller's row order with no permuted copy.
    pub(crate) fn spgemm_clustered_rows<T: Scalar>(
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        panel_height: usize,
        map: RowMap<'_>,
    ) -> Result<CsrMatrix<T>, SparseError> {
        check_dims(a, b)?;
        let h = panel_height.max(1);
        let npanels = a.nrows().div_ceil(h);
        let panels: Vec<Vec<(Vec<u32>, Vec<T>)>> = par::map(npanels, |p| {
            let row_start = p * h;
            let row_end = (row_start + h).min(a.nrows());
            // one accumulator per panel, shared by every row in it
            let mut acc = vec![T::ZERO; b.ncols()];
            let mut present = vec![false; b.ncols()];
            let mut touched = Vec::new();
            let mut rows = Vec::with_capacity(row_end - row_start);
            for i in row_start..row_end {
                let (a_cols, a_vals) = a.row(i);
                accumulate_row(a_cols, a_vals, b, &mut acc, &mut present, &mut touched);
                let mut cols = Vec::with_capacity(touched.len());
                let mut vals = Vec::with_capacity(touched.len());
                drain_row(&mut acc, &mut present, &mut touched, &mut cols, &mut vals);
                rows.push((cols, vals));
            }
            rows
        });
        let mut rows = vec![(Vec::new(), Vec::new()); a.nrows()];
        for (i, row) in panels.into_iter().flatten().enumerate() {
            rows[map.old_of(i)] = row;
        }
        Ok(assemble(a.nrows(), b.ncols(), rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_data::generators;
    use spmm_sparse::{DenseMatrix, Permutation};

    fn dense_product<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> DenseMatrix<f64> {
        let ad = a.cast::<f64>().to_dense();
        let bd = b.cast::<f64>().to_dense();
        DenseMatrix::from_fn(a.nrows(), b.ncols(), |i, j| {
            (0..a.ncols()).map(|p| ad.get(i, p) * bd.get(p, j)).sum()
        })
    }

    #[test]
    fn gustavson_matches_dense_reference() {
        let a = generators::uniform_random::<f64>(40, 32, 5, 11);
        let b = generators::uniform_random::<f64>(32, 48, 4, 13);
        let c = spgemm_gustavson_seq(&a, &b).unwrap();
        let want = dense_product(&a, &b);
        let got = c.to_dense();
        let mut max = 0.0f64;
        for i in 0..c.nrows() {
            for j in 0..c.ncols() {
                max = max.max((got.get(i, j) - want.get(i, j)).abs());
            }
        }
        assert!(max < 1e-12, "max deviation {max}");
    }

    #[test]
    fn all_variants_are_bit_identical() {
        for (a, b) in [
            (
                generators::uniform_random::<f64>(60, 50, 6, 1),
                generators::uniform_random::<f64>(50, 40, 5, 2),
            ),
            (
                generators::power_law::<f64>(96, 64, 900, 0.8, 3),
                generators::power_law::<f64>(64, 80, 700, 0.7, 4),
            ),
        ] {
            let seq = spgemm_gustavson_seq(&a, &b).unwrap();
            let par = spgemm_gustavson_par(&a, &b).unwrap();
            assert!(seq.same_structure(&par) && seq.values() == par.values());
            // rows walked in a shuffled order still land in A's order
            let n = a.nrows() as u32;
            let perm = Permutation::from_order((0..n).map(|r| (r * 7 + 3) % n).collect()).unwrap();
            let shuffled = a.permute_rows(&perm);
            for h in [1usize, 3, 8, 64, 1024] {
                let clu = spgemm_clustered(&a, &b, h).unwrap();
                assert!(
                    seq.same_structure(&clu) && seq.values() == clu.values(),
                    "clustered deviates at panel_height {h}"
                );
                let back = spgemm_clustered_rows(&shuffled, &b, h, RowMap::of(&perm)).unwrap();
                assert!(
                    seq.same_structure(&back) && seq.values() == back.values(),
                    "mapped rows deviate at panel_height {h}"
                );
            }
        }
    }

    #[test]
    fn structural_zeros_from_cancellation_are_kept() {
        // A = [1 1], B rows sum to zero in column 0: C keeps an explicit 0.
        let a = CsrMatrix::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0f64, 1.0]).unwrap();
        let b = CsrMatrix::from_parts(2, 1, vec![0, 1, 2], vec![0, 0], vec![2.0f64, -2.0]).unwrap();
        let c = spgemm_gustavson_seq(&a, &b).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.values(), &[0.0]);
        let clu = spgemm_clustered(&a, &b, 4).unwrap();
        assert!(c.same_structure(&clu) && c.values() == clu.values());
    }

    #[test]
    fn empty_operands_produce_empty_products() {
        let a = CsrMatrix::<f32>::from_parts(3, 2, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let b = generators::uniform_random::<f32>(2, 4, 2, 9);
        let c = spgemm_gustavson_seq(&a, &b).unwrap();
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (3, 4, 0));
        let c = spgemm_clustered(&a, &b, 2).unwrap();
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (3, 4, 0));
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = CsrMatrix::<f64>::identity(4);
        let b = CsrMatrix::<f64>::identity(5);
        assert!(spgemm_gustavson_seq(&a, &b).is_err());
        assert!(spgemm_gustavson_par(&a, &b).is_err());
        assert!(spgemm_clustered(&a, &b, 4).is_err());
    }
}
