//! Locality-sensitive hashing for candidate row-pair generation
//! (paper §3.2).
//!
//! The paper treats LSH as a black box with two parameters:
//! `siglen` (MinHash signature length; larger = more accurate) and
//! `bsize` (band size; smaller = more likely two rows share a bucket).
//! This crate implements that black box:
//!
//! 1. [`minhash`] — for every row (a set of column indices), compute a
//!    MinHash signature of `siglen` components. The probability that two
//!    rows agree on one component equals their Jaccard similarity.
//! 2. [`banding`] — split each signature into `siglen / bsize` bands of
//!    `bsize` components; rows whose band hashes collide land in the
//!    same bucket and become **candidate pairs**. The probability that
//!    two rows with similarity `s` become candidates is
//!    `1 - (1 - s^bsize)^(siglen/bsize)`.
//! 3. [`candidates`] — deduplicate pairs across bands and attach each
//!    pair's *exact* Jaccard similarity (the clustering algorithm keys
//!    its priority queue on exact similarities, Alg 3 line 28).
//!
//! Total cost matches the paper's bound
//! `siglen·nnz + (siglen/bsize)·N + d_max·E`. The signature, banding and
//! exact-similarity passes run on the `spmm_sparse::par` pool ("the first
//! part is embarrassingly parallel", §5.4).

#![warn(missing_docs)]

pub mod banding;
pub mod candidates;
pub mod exact;
pub mod hash;
pub mod minhash;

pub use candidates::{generate_candidates, generate_candidates_with, CandidatePair, LshConfig};
pub use exact::{exact_pairs, recall};
pub use minhash::{MinHasher, SignatureMatrix};
