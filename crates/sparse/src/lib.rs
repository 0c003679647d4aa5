//! Sparse/dense matrix substrate for the ASpT-RR reproduction.
//!
//! This crate provides the data structures every other crate in the
//! workspace builds on:
//!
//! * [`CsrMatrix`] — compressed sparse row storage (paper §2.1, Fig 1),
//!   the canonical representation consumed by the reordering, tiling and
//!   kernel crates.
//! * [`CooMatrix`] — coordinate triplets, the assembly/interchange format.
//! * [`DenseMatrix`] — row-major dense matrices (the `X`/`Y` operands of
//!   SpMM and SDDMM).
//! * [`Permutation`] — row/column permutations with inverse and
//!   composition, used to express reorderings and to map results back to
//!   the original row order.
//! * [`similarity`] — Jaccard similarity between rows viewed as column
//!   sets (paper §3.2) and the average consecutive-row similarity used by
//!   the §4 skip heuristic.
//! * [`stats`] — structural statistics (degree distribution, bandwidth,
//!   clustering indicators) used when characterising the corpus.
//! * [`mm_io`] — Matrix Market exchange-format reader/writer so real
//!   SuiteSparse / Network Repository matrices can be loaded when
//!   available.
//! * [`simd`] — [`fma_kernel!`], which compiles a multiply-add kernel
//!   twice (AVX2+FMA and portable) and picks the copy per call.
//!
//! Column indices are stored as `u32` and row pointers as `usize`,
//! following the "smaller integers" guidance for hot index data: matrices
//! with up to `u32::MAX` columns and arbitrarily many nonzeros are
//! supported.

#![warn(missing_docs)]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod mm_io;
pub mod perm;
pub mod scalar;
pub mod simd;
pub mod similarity;
pub mod stats;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use perm::Permutation;
pub use scalar::Scalar;
