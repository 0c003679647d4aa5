//! Exact all-pairs candidate generation — the `O(N²)` ground truth the
//! LSH black box approximates.
//!
//! The paper motivates LSH by the infeasibility of all-pairs similarity
//! at 1 M rows ("1T similarity values"). For *small* matrices the exact
//! computation is affordable and serves two purposes here: measuring
//! LSH **recall** (which candidate pairs the banding missed) and
//! providing an oracle clustering quality bound in the ablations.

use crate::candidates::CandidatePair;
use spmm_sparse::similarity::jaccard;
use spmm_sparse::{par, CsrMatrix, Scalar};

/// Computes every pair of rows with Jaccard similarity strictly above
/// `min_similarity` (use 0.0 for "any overlap"). Cost is
/// `O(N² · d̄)` — intended for matrices up to a few thousand rows.
pub fn exact_pairs<T: Scalar>(m: &CsrMatrix<T>, min_similarity: f64) -> Vec<CandidatePair> {
    let n = m.nrows();
    par::flat_map(n, |i, out| {
        let row_i = m.row_cols(i);
        out.extend((i + 1..n).filter_map(|j| {
            let s = jaccard(row_i, m.row_cols(j));
            (s > min_similarity && s > 0.0).then_some(CandidatePair {
                i: i as u32,
                j: j as u32,
                similarity: s,
            })
        }))
    })
}

/// Fraction of `reference` pairs that `found` recovered (pairs keyed by
/// `(i, j)`; similarity values are ignored). Returns 1.0 when
/// `reference` is empty.
pub fn recall(found: &[CandidatePair], reference: &[CandidatePair]) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    let set: std::collections::HashSet<(u32, u32)> =
        found.iter().map(|p| (p.i.min(p.j), p.i.max(p.j))).collect();
    let hit = reference
        .iter()
        .filter(|p| set.contains(&(p.i.min(p.j), p.i.max(p.j))))
        .count();
    hit as f64 / reference.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, LshConfig};
    use spmm_sparse::CooMatrix;

    fn matrix_of_rows(rows: &[&[u32]], ncols: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(rows.len(), ncols).unwrap();
        for (r, cols) in rows.iter().enumerate() {
            for &c in *cols {
                coo.push(r as u32, c, 1.0).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn exact_pairs_on_fig1() {
        let m = matrix_of_rows(
            &[&[0, 4], &[1, 3, 5], &[2, 4], &[1, 2], &[0, 3, 4], &[5]],
            6,
        );
        let pairs = exact_pairs(&m, 0.0);
        // (0,4): 2/3 must be present with its exact similarity
        let p = pairs.iter().find(|p| p.i == 0 && p.j == 4).unwrap();
        assert!((p.similarity - 2.0 / 3.0).abs() < 1e-12);
        // thresholding drops weaker pairs
        let strong = exact_pairs(&m, 0.5);
        assert!(strong.len() < pairs.len());
        assert!(strong.iter().all(|p| p.similarity > 0.5));
    }

    #[test]
    fn exact_pairs_disjoint_rows_empty() {
        let m = CsrMatrix::from_diagonal(&[1.0f64; 32]);
        assert!(exact_pairs(&m, 0.0).is_empty());
    }

    #[test]
    fn recall_bounds() {
        let a = CandidatePair {
            i: 0,
            j: 1,
            similarity: 0.5,
        };
        let b = CandidatePair {
            i: 2,
            j: 3,
            similarity: 0.5,
        };
        assert_eq!(recall(&[], &[]), 1.0);
        assert_eq!(recall(&[a], &[a, b]), 0.5);
        assert_eq!(recall(&[a, b], &[a, b]), 1.0);
        // order inside a pair doesn't matter
        let a_rev = CandidatePair {
            i: 1,
            j: 0,
            similarity: 0.5,
        };
        assert_eq!(recall(&[a_rev], &[a]), 1.0);
    }

    #[test]
    fn lsh_recall_is_high_for_similar_pairs() {
        // rows drawn from 8 patterns with small perturbations: pairs
        // with J > 0.5 should almost all be caught by the default LSH
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for r in 0..96u32 {
            let pattern = r % 8;
            let base: Vec<u32> = (0..10).map(|k| pattern * 100 + k).collect();
            let mut row = base;
            row[(r / 8) as usize % 10] = 900 + r; // one perturbed element
            row.sort_unstable();
            rows.push(row);
        }
        let refs: Vec<&[u32]> = rows.iter().map(|v| v.as_slice()).collect();
        let m = matrix_of_rows(&refs, 1024);
        let exact = exact_pairs(&m, 0.5);
        assert!(!exact.is_empty());
        let lsh = generate_candidates(&m, &LshConfig::default());
        let r = recall(&lsh, &exact);
        assert!(r > 0.95, "LSH recall {r} too low on highly similar pairs");
    }

    #[test]
    fn lsh_finds_no_false_similarities() {
        // every LSH pair must appear in the exact set (same threshold)
        let m = matrix_of_rows(
            &[&[0, 1, 2], &[0, 1, 3], &[7, 8, 9], &[7, 8, 10], &[20]],
            32,
        );
        let exact = exact_pairs(&m, 0.0);
        let lsh = generate_candidates(&m, &LshConfig::default());
        assert_eq!(recall(&exact, &lsh), 1.0, "LSH invented a pair");
    }
}
