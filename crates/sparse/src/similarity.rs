//! Jaccard similarity between sparse rows (paper §3.2 and §4).
//!
//! A row of the sparse matrix is viewed as the *set* of its column
//! indices; two rows are similar when they have nonzeros at identical
//! columns. The reordering quality metrics (`ΔAvgSim` in Fig 9) and the
//! second-round skip heuristic (§4) are built on these functions.

use crate::csr::CsrMatrix;
use crate::par;
use crate::scalar::Scalar;

/// Jaccard similarity `|a ∩ b| / |a ∪ b|` of two strictly-increasing
/// index slices. Two empty sets have similarity 0 by convention.
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    let inter = intersection_size(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Size of the intersection of two strictly-increasing index slices
/// (linear merge).
pub fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard similarity of two rows of a CSR matrix.
pub fn row_jaccard<T: Scalar>(m: &CsrMatrix<T>, i: usize, j: usize) -> f64 {
    jaccard(m.row_cols(i), m.row_cols(j))
}

/// Average Jaccard similarity between consecutive rows,
/// `(1/(n-1)) Σ J(S_i, S_{i+1})` — the §4 indicator for "already well
/// clustered". Returns 0 for matrices with fewer than two rows.
///
/// The similarities are computed in parallel but summed in row order,
/// so the value, and the skip decision it feeds, is the same bits at
/// any thread count.
pub fn avg_consecutive_similarity<T: Scalar>(m: &CsrMatrix<T>) -> f64 {
    if m.nrows() < 2 {
        return 0.0;
    }
    let pair = |i: usize| jaccard(m.row_cols(i), m.row_cols(i + 1));
    par::fold(m.nrows() - 1, pair, 0.0, |sum, s| sum + s) / (m.nrows() - 1) as f64
}

/// Average consecutive similarity of a matrix *under a row order* given
/// as `order[new] = old`, without materialising the permuted matrix.
/// Summed in order, like [`avg_consecutive_similarity`].
pub fn avg_consecutive_similarity_ordered<T: Scalar>(m: &CsrMatrix<T>, order: &[u32]) -> f64 {
    if order.len() < 2 {
        return 0.0;
    }
    let pair = |k: usize| {
        jaccard(
            m.row_cols(order[k] as usize),
            m.row_cols(order[k + 1] as usize),
        )
    };
    par::fold(order.len() - 1, pair, 0.0, |sum, s| sum + s) / (order.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn from_rows(nrows: usize, ncols: usize, rows: &[&[u32]]) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(nrows, ncols).unwrap();
        for (r, cols) in rows.iter().enumerate() {
            for &c in *cols {
                coo.push(r as u32, c, 1.0).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn jaccard_basic() {
        assert_eq!(jaccard(&[0, 4], &[0, 3, 4]), 2.0 / 3.0); // paper example rows 0 & 4
        assert_eq!(jaccard(&[], &[]), 0.0);
        assert_eq!(jaccard(&[1], &[]), 0.0);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
    }

    #[test]
    fn intersection_size_merge() {
        assert_eq!(intersection_size(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(intersection_size(&[], &[1]), 0);
        assert_eq!(intersection_size(&[1, 2, 3], &[1, 2, 3]), 3);
    }

    #[test]
    fn row_jaccard_on_fig1() {
        // Fig 1a: S0 = {0,4}, S4 = {0,3,4} → 2/3; S1={1,3,5}, S5={5} → 1/3.
        let m = from_rows(
            6,
            6,
            &[&[0, 4], &[1, 3, 5], &[2, 4], &[1, 2], &[0, 3, 4], &[5]],
        );
        assert!((row_jaccard(&m, 0, 4) - 2.0 / 3.0).abs() < 1e-12);
        assert!((row_jaccard(&m, 1, 5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((row_jaccard(&m, 2, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn avg_similarity_well_clustered_fig7a() {
        // Fig 7a: three identical rows {0,1}, then three identical rows
        // {2,3}; the paper computes avg consecutive similarity 0.8.
        let m = from_rows(
            6,
            4,
            &[&[0, 1], &[0, 1], &[0, 1], &[2, 3], &[2, 3], &[2, 3]],
        );
        assert!((avg_consecutive_similarity(&m) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn avg_similarity_diagonal_is_zero() {
        // Fig 7b: a diagonal matrix has no similar rows.
        let m = CsrMatrix::from_diagonal(&[1.0f64; 8]);
        assert_eq!(avg_consecutive_similarity(&m), 0.0);
    }

    #[test]
    fn avg_similarity_tiny_matrices() {
        let m = from_rows(1, 4, &[&[0]]);
        assert_eq!(avg_consecutive_similarity(&m), 0.0);
        let e = CsrMatrix::<f64>::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(avg_consecutive_similarity(&e), 0.0);
    }

    #[test]
    fn ordered_similarity_matches_materialized() {
        let m = from_rows(4, 4, &[&[0, 1], &[2, 3], &[0, 1], &[2, 3]]);
        let order = [0u32, 2, 1, 3];
        let via_order = avg_consecutive_similarity_ordered(&m, &order);
        let perm = crate::perm::Permutation::from_order(order.to_vec()).unwrap();
        let via_matrix = avg_consecutive_similarity(&m.permute_rows(&perm));
        assert!((via_order - via_matrix).abs() < 1e-12);
        // grouping identical rows lifts the average: (1 + 0 + 1)/3
        assert!((via_order - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn averages_sum_in_row_order() {
        // row i holds columns 0..=(i % 13), so consecutive similarities
        // run through fractions like 5/6 and 1/13 whose sum depends on
        // the grouping
        let rows: Vec<Vec<u32>> = (0..4000).map(|i| (0..=(i % 13)).collect()).collect();
        let refs: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        let m = from_rows(rows.len(), 13, &refs);
        let sims: Vec<f64> = (0..rows.len() - 1)
            .map(|i| row_jaccard(&m, i, i + 1))
            .collect();
        let left = sims.iter().fold(0.0, |a, &b| a + b);
        let chunked: f64 = sims.chunks(64).map(|c| c.iter().sum::<f64>()).sum();
        assert_ne!(
            left.to_bits(),
            chunked.to_bits(),
            "the test needs order to matter"
        );

        let want = left / sims.len() as f64;
        let order: Vec<u32> = (0..rows.len() as u32).collect();
        for avg in [
            avg_consecutive_similarity(&m),
            avg_consecutive_similarity_ordered(&m, &order),
            crate::par::with_helpers_off(|| avg_consecutive_similarity(&m)),
        ] {
            assert_eq!(avg.to_bits(), want.to_bits());
        }
    }
}
