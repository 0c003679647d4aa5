//! End-to-end candidate generation: MinHash → banding → exact Jaccard.
//!
//! This is the `LSH(S, siglen, bsize)` black box of the paper's Alg 3
//! line 1. The returned pairs carry their *exact* Jaccard similarity —
//! the clustering queue is keyed on exact similarities, the signatures
//! only decide *which* pairs are worth scoring.

use crate::banding::{candidate_pairs, BandingConfig};
use crate::minhash::MinHasher;
use spmm_sparse::similarity::jaccard;
use spmm_sparse::{par, CsrMatrix, Scalar};
use spmm_telemetry::TelemetryHandle;

/// Configuration of the LSH black box (paper defaults: `siglen = 128`,
/// `bsize = 2`, §5.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshConfig {
    /// MinHash signature length.
    pub siglen: usize,
    /// Band size.
    pub bsize: usize,
    /// Bucket-size cap (see [`BandingConfig::max_bucket`]).
    pub max_bucket: usize,
    /// Discard candidate pairs with exact similarity below this value.
    /// 0 keeps everything the banding produced.
    pub min_similarity: f64,
    /// Seed for all hash functions.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            siglen: 128,
            bsize: 2,
            max_bucket: 128,
            min_similarity: 0.0,
            seed: 0,
        }
    }
}

/// A candidate pair of rows with its exact Jaccard similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePair {
    /// Smaller row index.
    pub i: u32,
    /// Larger row index.
    pub j: u32,
    /// Exact Jaccard similarity of the two rows' column sets.
    pub similarity: f64,
}

/// Runs the full LSH pipeline on the rows of `m`.
///
/// Cost matches the paper's bound: `siglen·nnz` for signatures,
/// `(siglen/bsize)·N` for banding, `d_max·E` for exact similarities.
pub fn generate_candidates<T: Scalar>(m: &CsrMatrix<T>, config: &LshConfig) -> Vec<CandidatePair> {
    generate_candidates_with(m, config, &TelemetryHandle::noop())
}

/// [`generate_candidates`] with telemetry: opens `minhash`, `banding`
/// and `exact` spans and records the candidate-funnel counters
/// (`lsh.raw_pairs` out of banding, `lsh.candidates` after the exact
/// Jaccard filter).
pub fn generate_candidates_with<T: Scalar>(
    m: &CsrMatrix<T>,
    config: &LshConfig,
    telemetry: &TelemetryHandle,
) -> Vec<CandidatePair> {
    let sigs = {
        let _span = telemetry.span("minhash");
        let hasher = MinHasher::new(config.siglen, config.seed);
        hasher.signatures(m)
    };
    let raw = {
        let _span = telemetry.span("banding");
        let raw = candidate_pairs(
            &sigs,
            &BandingConfig {
                bsize: config.bsize,
                max_bucket: config.max_bucket,
                seed: config.seed ^ 0xb5ad_4ece_da1c_e2a9,
            },
        );
        telemetry.counter("lsh.raw_pairs", raw.len() as u64);
        raw
    };
    let _span = telemetry.span("exact");
    let pairs: Vec<CandidatePair> = par::flat_map(raw.len(), |p, out| {
        let (i, j) = raw[p];
        let s = jaccard(m.row_cols(i as usize), m.row_cols(j as usize));
        if s > config.min_similarity || (config.min_similarity == 0.0 && s > 0.0) {
            out.push(CandidatePair {
                i,
                j,
                similarity: s,
            });
        }
    });
    telemetry.counter("lsh.candidates", pairs.len() as u64);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn finds_the_paper_pair() {
        // Fig 1a rows 0 = {0,4} and 4 = {0,3,4}: J = 2/3, the paper's
        // motivating candidate pair.
        let m = matrix_of_rows(
            &[&[0, 4], &[1, 3, 5], &[2, 4], &[1, 2], &[0, 3, 4], &[5]],
            6,
        );
        let pairs = generate_candidates(&m, &LshConfig::default());
        let found = pairs.iter().find(|p| p.i == 0 && p.j == 4);
        let p = found.expect("LSH with siglen=128/bsize=2 must surface the (0,4) pair");
        assert!((p.similarity - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn similarities_are_exact_not_estimates() {
        let m = matrix_of_rows(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 5, 6]], 8);
        let pairs = generate_candidates(&m, &LshConfig::default());
        for p in &pairs {
            let expected = jaccard(m.row_cols(p.i as usize), m.row_cols(p.j as usize));
            assert_eq!(p.similarity, expected);
        }
        assert!(pairs
            .iter()
            .any(|p| p.i == 0 && p.j == 1 && p.similarity == 1.0));
    }

    #[test]
    fn min_similarity_filters() {
        let m = matrix_of_rows(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 9, 10, 11]], 16);
        let all = generate_candidates(
            &m,
            &LshConfig {
                min_similarity: 0.0,
                ..Default::default()
            },
        );
        let strict = generate_candidates(
            &m,
            &LshConfig {
                min_similarity: 0.9,
                ..Default::default()
            },
        );
        assert!(strict.len() <= all.len());
        assert!(strict.iter().all(|p| p.similarity > 0.9));
        assert!(strict.iter().any(|p| p.i == 0 && p.j == 1));
    }

    #[test]
    fn diagonal_matrix_produces_no_candidates() {
        // Fig 7b: the scattered case is detected "automatically" because
        // LSH generates few or no candidate pairs.
        let m = CsrMatrix::from_diagonal(&vec![1.0f64; 200]);
        let pairs = generate_candidates(&m, &LshConfig::default());
        assert!(pairs.is_empty(), "diagonal rows are mutually disjoint");
    }

    #[test]
    fn zero_similarity_pairs_are_dropped() {
        // rows that could share a bucket by hash luck but have J = 0
        // must never be returned
        let m = matrix_of_rows(&[&[1], &[2], &[3]], 8);
        let pairs = generate_candidates(
            &m,
            &LshConfig {
                siglen: 4,
                bsize: 1,
                ..Default::default()
            },
        );
        assert!(pairs.iter().all(|p| p.similarity > 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = matrix_of_rows(
            &[&[0, 1, 2], &[0, 1, 3], &[4, 5, 6], &[4, 5, 7], &[0, 5, 9]],
            16,
        );
        let a = generate_candidates(&m, &LshConfig::default());
        let b = generate_candidates(&m, &LshConfig::default());
        assert_eq!(a, b);
    }
}
