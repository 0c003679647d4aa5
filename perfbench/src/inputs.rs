//! Seeded inputs. Everything the program receives is generated here from
//! the `--seed` argument; the same seed gives the same matrices and
//! operands in every process.
//!
//! Matrix values and dense operands are quantized to small integers, so
//! every sum a kernel forms is exact in `f32` whatever its order: each
//! execution path must match the sequential reference bit for bit.

use spmm_data::generators;
use spmm_kernels::sddmm::sddmm_rowwise_seq;
use spmm_kernels::spmm::spmm_rowwise_seq;
use spmm_kernels::spmv::spmv_rowwise_seq;
use spmm_sparse::{CsrMatrix, DenseMatrix, SparseError};
use std::sync::Arc;

/// Element type of every operand.
pub type V = f32;

/// Dense-operand width of the SpMM and SDDMM operations.
pub const K: usize = 32;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `z`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of item `i` of stream `tag` under the run seed.
pub fn sub_seed(seed: u64, tag: u64, i: u64) -> u64 {
    mix(mix(seed ^ mix(tag)) ^ i)
}

/// Sparsity-pattern classes. The winning execution strategy depends on
/// the pattern, so every workload mixes several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Block-diagonal with rows shuffled: the structure LSH reordering
    /// recovers (the paper's target).
    Shuffled,
    /// Chung–Lu power-law graph: hub columns, where reordering barely
    /// helps.
    PowerLaw,
    /// Bipartite collaborative-filtering matrix with Zipf item
    /// popularity.
    Cf,
}

impl Class {
    /// Suffix used in per-layer metric names.
    pub fn label(self) -> &'static str {
        match self {
            Class::Shuffled => "shuffled",
            Class::PowerLaw => "powerlaw",
            Class::Cf => "cf",
        }
    }
}

/// The classes that carry per-class per-layer metrics; every workload
/// has at least one matrix of each.
pub const LAYER_CLASSES: [Class; 3] = [Class::Shuffled, Class::PowerLaw, Class::Cf];

/// Target dimensions of a generated matrix.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Average nonzeros per row.
    pub row_nnz: usize,
}

/// A quantized matrix of `class` and `shape`, fully determined by `seed`.
pub fn matrix(class: Class, shape: Shape, seed: u64) -> CsrMatrix<V> {
    let Shape {
        rows,
        cols,
        row_nnz,
    } = shape;
    let mut m = match class {
        Class::Shuffled => {
            let nblocks = rows / 32;
            generators::shuffled_block_diagonal(nblocks, 32, cols / nblocks, row_nnz, seed)
        }
        Class::PowerLaw => generators::power_law(rows, cols, rows * row_nnz, 0.8, seed),
        Class::Cf => generators::bipartite_cf(rows, cols, row_nnz, 0.8, seed),
    };
    const GRID: [V; 4] = [-3.0, -1.0, 1.0, 3.0];
    for (i, v) in m.values_mut().iter_mut().enumerate() {
        *v = GRID[(mix(seed ^ mix(i as u64)) & 3) as usize];
    }
    m
}

/// A `rows × cols` dense operand with entries in `{-2, …, 2}`.
pub fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix<V> {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        (mix(seed ^ mix((i * cols + j) as u64)) % 5) as V - 2.0
    })
}

/// A length-`n` dense vector with entries in `{-2, …, 2}`.
pub fn vector(n: usize, seed: u64) -> Vec<V> {
    (0..n)
        .map(|i| (mix(seed ^ mix(i as u64)) % 5) as V - 2.0)
        .collect()
}

/// Dense operands for one matrix shape: `x` is `ncols × K` (the SpMM
/// operand and SDDMM's column side), `y` is `nrows × K` (SDDMM's row
/// side), `v` is the SpMV vector.
#[derive(Debug, Clone)]
pub struct Operands {
    /// `ncols × K`.
    pub x: Arc<DenseMatrix<V>>,
    /// `nrows × K`.
    pub y: Arc<DenseMatrix<V>>,
    /// Length `ncols`.
    pub v: Arc<Vec<V>>,
}

impl Operands {
    /// Operands for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize, seed: u64) -> Self {
        Operands {
            x: Arc::new(dense(ncols, K, mix(seed ^ 1))),
            y: Arc::new(dense(nrows, K, mix(seed ^ 2))),
            v: Arc::new(vector(ncols, mix(seed ^ 3))),
        }
    }
}

/// One matrix with its operands and the sequential references every
/// timed operation on it is checked against.
#[derive(Debug)]
pub struct Case {
    /// Pattern class.
    pub class: Class,
    /// The matrix, in the caller's original row order.
    pub m: Arc<CsrMatrix<V>>,
    /// Its dense operands.
    pub ops: Operands,
    /// `spmm_rowwise_seq(m, x)`.
    pub spmm_ref: DenseMatrix<V>,
    /// `sddmm_rowwise_seq(m, x, y)`.
    pub sddmm_ref: Vec<V>,
    /// `spmv_rowwise_seq(m, v)`.
    pub spmv_ref: Vec<V>,
}

impl Case {
    /// Computes the references for `m` under `ops`.
    pub fn new(class: Class, m: CsrMatrix<V>, ops: Operands) -> Result<Self, SparseError> {
        Ok(Case {
            class,
            spmm_ref: spmm_rowwise_seq(&m, &ops.x)?,
            sddmm_ref: sddmm_rowwise_seq(&m, &ops.x, &ops.y)?,
            spmv_ref: spmv_rowwise_seq(&m, &ops.v)?,
            m: Arc::new(m),
            ops,
        })
    }

    /// A matrix of `class` and `shape` with its own operands.
    pub fn generate(class: Class, shape: Shape, seed: u64) -> Result<Self, SparseError> {
        let m = matrix(class, shape, seed);
        let ops = Operands::new(m.nrows(), m.ncols(), mix(seed));
        Case::new(class, m, ops)
    }

    /// `2 · nnz · K`: floating-point operations of one SpMM or SDDMM.
    pub fn flops(&self) -> f64 {
        2.0 * self.m.nnz() as f64 * K as f64
    }
}
