//! The banding step of LSH.
//!
//! Signatures are split into `siglen / bsize` bands of `bsize`
//! components. For each band, rows whose band slice hashes equally fall
//! into one bucket; all row pairs within a bucket become candidates. A
//! pair of rows with Jaccard similarity `s` becomes a candidate with
//! probability `1 - (1 - s^bsize)^nbands` — the classic S-curve.
//!
//! Buckets larger than [`BandingConfig::max_bucket`] are not expanded
//! quadratically: only a chain of consecutive pairs is emitted. The
//! paper's complexity analysis assumes `E ∝ N`; the cap enforces that on
//! adversarial inputs (e.g. thousands of identical rows) while keeping
//! the rows connectable by the clustering pass.

use crate::hash::hash_u64_slice;
use crate::minhash::SignatureMatrix;
use spmm_sparse::par;
use std::collections::HashMap;

/// Parameters of the banding step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandingConfig {
    /// Components per band (`bsize` in the paper; default 2).
    pub bsize: usize,
    /// Buckets above this size emit a linear chain of pairs instead of
    /// all `O(m²)` pairs.
    pub max_bucket: usize,
    /// Seed for bucket-key hashing.
    pub seed: u64,
}

impl Default for BandingConfig {
    fn default() -> Self {
        Self {
            bsize: 2,
            max_bucket: 128,
            seed: 0,
        }
    }
}

/// Generates deduplicated candidate pairs `(i, j)` with `i < j` from the
/// signature matrix. Empty rows never appear in any pair.
pub fn candidate_pairs(sigs: &SignatureMatrix, config: &BandingConfig) -> Vec<(u32, u32)> {
    assert!(config.bsize >= 1, "bsize must be at least 1");
    let siglen = sigs.siglen();
    let nbands = siglen / config.bsize;
    if nbands == 0 || sigs.nrows() < 2 {
        return Vec::new();
    }

    let mut pairs: Vec<(u32, u32)> = par::flat_map(nbands, |band, out| {
        let lo = band * config.bsize;
        let hi = lo + config.bsize;
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for i in 0..sigs.nrows() {
            if sigs.is_empty_row(i) {
                continue;
            }
            let key = hash_u64_slice(&sigs.row(i)[lo..hi], config.seed ^ band as u64);
            buckets.entry(key).or_default().push(i as u32);
        }
        for rows in buckets.into_values() {
            emit_bucket_pairs(&rows, config.max_bucket, out);
        }
    });

    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Emits pairs for one bucket: full clique when small, a consecutive
/// chain when over the cap.
fn emit_bucket_pairs(rows: &[u32], max_bucket: usize, out: &mut Vec<(u32, u32)>) {
    if rows.len() < 2 {
        return;
    }
    if rows.len() <= max_bucket {
        for (k, &a) in rows.iter().enumerate() {
            for &b in &rows[k + 1..] {
                out.push(ordered(a, b));
            }
        }
    } else {
        for w in rows.windows(2) {
            out.push(ordered(w[0], w[1]));
        }
    }
}

#[inline]
fn ordered(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;
    use spmm_sparse::{CooMatrix, CsrMatrix};

    fn matrix_of_rows(rows: &[&[u32]], ncols: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(rows.len(), ncols).unwrap();
        for (r, cols) in rows.iter().enumerate() {
            for &c in *cols {
                coo.push(r as u32, c, 1.0).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn pairs_for(rows: &[&[u32]], ncols: usize, siglen: usize, bsize: usize) -> Vec<(u32, u32)> {
        let m = matrix_of_rows(rows, ncols);
        let sigs = MinHasher::new(siglen, 42).signatures(&m);
        candidate_pairs(
            &sigs,
            &BandingConfig {
                bsize,
                ..Default::default()
            },
        )
    }

    #[test]
    fn identical_rows_always_pair() {
        let pairs = pairs_for(&[&[1, 5, 9], &[1, 5, 9], &[20, 30, 40]], 64, 16, 2);
        assert!(pairs.contains(&(0, 1)), "identical rows must collide");
    }

    #[test]
    fn disjoint_rows_rarely_pair() {
        // 8 mutually disjoint rows: with siglen 32 and bsize 4 the
        // chance of a false candidate is negligible.
        let rows: Vec<Vec<u32>> = (0..8u32).map(|r| vec![r * 100, r * 100 + 1]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|v| v.as_slice()).collect();
        let pairs = pairs_for(&refs, 1000, 32, 4);
        assert!(pairs.is_empty(), "unexpected candidates: {pairs:?}");
    }

    #[test]
    fn pairs_are_ordered_and_unique() {
        let rows: Vec<Vec<u32>> = (0..20u32).map(|r| vec![r % 3, 10 + r % 3]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|v| v.as_slice()).collect();
        let pairs = pairs_for(&refs, 32, 16, 2);
        for &(a, b) in &pairs {
            assert!(a < b);
        }
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pairs.len());
    }

    #[test]
    fn empty_rows_never_pair() {
        let pairs = pairs_for(&[&[], &[], &[1, 2], &[1, 2]], 8, 16, 2);
        assert!(pairs.contains(&(2, 3)));
        assert!(!pairs.iter().any(|&(a, b)| a < 2 || b < 2));
    }

    #[test]
    fn bucket_cap_limits_quadratic_blowup() {
        // 1000 identical rows: clique would be ~500k pairs; the chain
        // cap keeps it linear per band.
        let rows: Vec<Vec<u32>> = (0..1000).map(|_| vec![1u32, 2, 3]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|v| v.as_slice()).collect();
        let m = matrix_of_rows(&refs, 8);
        let sigs = MinHasher::new(16, 7).signatures(&m);
        let cfg = BandingConfig {
            bsize: 2,
            max_bucket: 64,
            seed: 0,
        };
        let pairs = candidate_pairs(&sigs, &cfg);
        assert!(!pairs.is_empty());
        assert!(
            pairs.len() < 10_000,
            "cap failed, got {} pairs",
            pairs.len()
        );
    }

    #[test]
    fn smaller_bsize_is_more_permissive() {
        // moderately similar rows: J = 1/3
        let rows: Vec<Vec<u32>> = (0..40u32)
            .map(|r| vec![0, 1, r + 10, r + 100, r + 200, r + 300])
            .collect();
        let refs: Vec<&[u32]> = rows.iter().map(|v| v.as_slice()).collect();
        let m = matrix_of_rows(&refs, 512);
        let sigs = MinHasher::new(32, 3).signatures(&m);
        let loose = candidate_pairs(
            &sigs,
            &BandingConfig {
                bsize: 1,
                ..Default::default()
            },
        );
        let strict = candidate_pairs(
            &sigs,
            &BandingConfig {
                bsize: 8,
                ..Default::default()
            },
        );
        assert!(
            loose.len() >= strict.len(),
            "bsize=1 ({}) should produce at least as many pairs as bsize=8 ({})",
            loose.len(),
            strict.len()
        );
    }

    #[test]
    fn degenerate_configs() {
        let m = matrix_of_rows(&[&[1], &[1]], 4);
        let sigs = MinHasher::new(4, 1).signatures(&m);
        // bsize > siglen → zero bands → no pairs
        let none = candidate_pairs(
            &sigs,
            &BandingConfig {
                bsize: 8,
                ..Default::default()
            },
        );
        assert!(none.is_empty());
        // single row → no pairs
        let one = matrix_of_rows(&[&[1]], 4);
        let sigs1 = MinHasher::new(4, 1).signatures(&one);
        assert!(candidate_pairs(&sigs1, &BandingConfig::default()).is_empty());
    }
}
