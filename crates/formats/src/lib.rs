//! Alternative sparse formats from the paper's related work (§6).
//!
//! The paper positions row reordering against format-based approaches:
//! *"variants of ELLPACK have been used to improve performance (e.g.,
//! ELLPACK-R in FastSpMM, and SELL-P in MAGMA) … these works based on
//! new sparse matrix representation assume the nonzeros in the sparse
//! matrix are somewhat clustered. For matrices that do not have the
//! block or cluster structures, these techniques may not be very
//! helpful."*
//!
//! This crate implements the two named format families so the claim can
//! be tested (the `formats` experiment):
//!
//! * [`ell`] — ELLPACK: every row padded to the longest row's width.
//!   Perfectly regular access, catastrophic padding on skewed degree
//!   distributions.
//! * [`sellp`] — SELL-P / sliced ELLPACK (as in MAGMA): rows grouped in
//!   fixed-height slices, each slice padded only to its own maximum
//!   width; an optional σ-window row sort (SELL-C-σ) reduces
//!   within-slice imbalance.
//! * [`csb`] — Compressed Sparse Blocks (Aktulga et al.): `β × β`
//!   blocks with block-relative `u16` coordinates, the
//!   register-blocking family §6 also cites.
//!
//! Each format provides lossless conversion from/to CSR, exact CPU SpMM
//! kernels (sequential + parallel) and a simulator trace builder
//! compatible with [`spmm_gpu_sim`].

#![warn(missing_docs)]

pub mod csb;
pub mod ell;
pub mod sellp;

pub use csb::CsbMatrix;
pub use ell::EllMatrix;
pub use sellp::SellPMatrix;
