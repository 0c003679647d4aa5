//! MinHash signatures over the rows of a sparse matrix.
//!
//! Each row is the set of its column indices. Component `k` of a row's
//! signature is `min over columns c of h_k(c)` for the `k`-th universal
//! hash function. `P[sig_a[k] == sig_b[k]] = J(a, b)`, so the fraction
//! of agreeing components estimates the Jaccard similarity.

use crate::hash::UniversalHash;
use spmm_sparse::{par, CsrMatrix, Scalar};

/// Sentinel signature component for empty rows; empty rows never match
/// anything (two empty rows have Jaccard 0 by our convention).
pub const EMPTY_SENTINEL: u64 = u64::MAX;

/// A family of `siglen` universal hash functions.
#[derive(Debug, Clone)]
pub struct MinHasher {
    funcs: Vec<UniversalHash>,
}

impl MinHasher {
    /// Creates `siglen` hash functions derived from `seed`.
    pub fn new(siglen: usize, seed: u64) -> Self {
        let mut state = seed ^ 0x6a09_e667_f3bc_c908;
        let funcs = (0..siglen)
            .map(|_| UniversalHash::from_seed_stream(&mut state))
            .collect();
        Self { funcs }
    }

    /// Signature length.
    pub fn siglen(&self) -> usize {
        self.funcs.len()
    }

    /// Signature of one set of column indices, written into `out`
    /// (`out.len() == siglen`).
    pub fn signature_into(&self, cols: &[u32], out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.funcs.len());
        if cols.is_empty() {
            out.fill(EMPTY_SENTINEL);
            return;
        }
        for (slot, f) in out.iter_mut().zip(&self.funcs) {
            let mut min = u64::MAX;
            for &c in cols {
                let h = f.eval(c);
                if h < min {
                    min = h;
                }
            }
            *slot = min;
        }
    }

    /// Signature of one set of column indices.
    pub fn signature(&self, cols: &[u32]) -> Vec<u64> {
        let mut out = vec![0u64; self.funcs.len()];
        self.signature_into(cols, &mut out);
        out
    }

    /// Signatures for every row of `m`, computed row-parallel.
    pub fn signatures<T: Scalar>(&self, m: &CsrMatrix<T>) -> SignatureMatrix {
        let siglen = self.siglen();
        let nrows = m.nrows();
        let mut data = vec![0u64; nrows * siglen];
        par::chunks_mut(&mut data, siglen, |i, chunk| {
            self.signature_into(m.row_cols(i), chunk)
        });
        SignatureMatrix {
            nrows,
            siglen,
            data,
        }
    }
}

/// Row-major matrix of MinHash signatures: `nrows × siglen`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatrix {
    nrows: usize,
    siglen: usize,
    data: Vec<u64>,
}

impl SignatureMatrix {
    /// Number of signed rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Signature length.
    pub fn siglen(&self) -> usize {
        self.siglen
    }

    /// Signature of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.siglen..(i + 1) * self.siglen]
    }

    /// `true` if row `i` was empty (no columns).
    pub fn is_empty_row(&self, i: usize) -> bool {
        self.row(i).first() == Some(&EMPTY_SENTINEL)
    }

    /// Estimated Jaccard similarity between rows `i` and `j`: fraction
    /// of agreeing signature components. Empty rows estimate 0.
    pub fn estimate_similarity(&self, i: usize, j: usize) -> f64 {
        if self.is_empty_row(i) || self.is_empty_row(j) {
            return 0.0;
        }
        let (a, b) = (self.row(i), self.row(j));
        let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
        agree as f64 / self.siglen as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_sparse::similarity::jaccard;
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
    fn identical_sets_have_identical_signatures() {
        let h = MinHasher::new(64, 9);
        let a = h.signature(&[3, 17, 99]);
        let b = h.signature(&[3, 17, 99]);
        assert_eq!(a, b);
        // order of the input set must not matter (min is commutative)
        let c = h.signature(&[99, 3, 17]);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_rows_are_sentinel_and_never_similar() {
        let h = MinHasher::new(16, 1);
        let m = matrix_of_rows(&[&[], &[], &[1, 2]], 4);
        let sigs = h.signatures(&m);
        assert!(sigs.is_empty_row(0));
        assert!(sigs.is_empty_row(1));
        assert!(!sigs.is_empty_row(2));
        assert_eq!(sigs.estimate_similarity(0, 1), 0.0);
        assert_eq!(sigs.estimate_similarity(0, 2), 0.0);
    }

    #[test]
    fn estimate_converges_to_jaccard() {
        // Two sets with J = 1/3; with siglen = 2048 the estimate should
        // be within ±0.05 with overwhelming probability.
        let a: Vec<u32> = (0..200).collect();
        let b: Vec<u32> = (100..400).collect();
        let expected = jaccard(&a, &b);
        assert!((expected - 0.25).abs() < 1e-9);

        let h = MinHasher::new(2048, 12345);
        let m = matrix_of_rows(&[&a, &b], 400);
        let sigs = h.signatures(&m);
        let est = sigs.estimate_similarity(0, 1);
        assert!(
            (est - expected).abs() < 0.05,
            "estimate {est} too far from {expected}"
        );
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (1000..1100).collect();
        let h = MinHasher::new(512, 5);
        let m = matrix_of_rows(&[&a, &b], 2000);
        let sigs = h.signatures(&m);
        assert!(sigs.estimate_similarity(0, 1) < 0.05);
    }

    #[test]
    fn signatures_matrix_layout() {
        let h = MinHasher::new(8, 2);
        let m = matrix_of_rows(&[&[1], &[2], &[1]], 4);
        let sigs = h.signatures(&m);
        assert_eq!(sigs.nrows(), 3);
        assert_eq!(sigs.siglen(), 8);
        assert_eq!(sigs.row(0), sigs.row(2)); // identical rows
        assert_ne!(sigs.row(0), sigs.row(1));
        assert_eq!(sigs.estimate_similarity(0, 2), 1.0);
    }

    #[test]
    fn different_seeds_give_different_hashers() {
        let h1 = MinHasher::new(32, 1);
        let h2 = MinHasher::new(32, 2);
        assert_ne!(h1.signature(&[5, 6, 7]), h2.signature(&[5, 6, 7]));
    }

    #[test]
    fn subset_similarity_is_size_ratio() {
        // A ⊂ B with |A| = 50, |B| = 100 → J = 0.5
        let a: Vec<u32> = (0..50).collect();
        let b: Vec<u32> = (0..100).collect();
        let h = MinHasher::new(4096, 99);
        let m = matrix_of_rows(&[&a, &b], 128);
        let sigs = h.signatures(&m);
        let est = sigs.estimate_similarity(0, 1);
        assert!((est - 0.5).abs() < 0.05, "estimate {est}");
    }
}
