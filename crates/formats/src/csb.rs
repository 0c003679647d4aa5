//! Compressed Sparse Blocks (CSB; Aktulga et al., IPDPS '14 — paper
//! §6's register-blocking family).
//!
//! The matrix is partitioned into `beta × beta` blocks; a CSR-like
//! index runs over *block rows*, and within each block entries store
//! block-relative coordinates in `u16` (so `beta ≤ 65536`). CSB's §6
//! characterisation: it "exploits register blocking … when the nonzero
//! elements are highly clustered, register blocking can reduce the
//! data footprint", and it makes `A·X` and `Aᵀ·X` symmetric in cost.
//! Like the other format baselines it helps only when blocks are
//! actually populated.

use rayon::prelude::*;
use spmm_gpu_sim::{BlockTrace, DeviceConfig, SimReport};
use spmm_sparse::{fma_kernel, CooMatrix, CsrMatrix, DenseMatrix, Scalar, SparseError};

/// A sparse matrix in CSB layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CsbMatrix<T> {
    nrows: usize,
    ncols: usize,
    beta: usize,
    nblock_rows: usize,
    nblock_cols: usize,
    /// CSR-style extents over block rows: blocks of block-row `br` are
    /// `blockptr[br]..blockptr[br + 1]`.
    blockptr: Vec<usize>,
    /// Block-column id of each block.
    block_col: Vec<u32>,
    /// Entry extents per block: entries of block `b` are
    /// `entryptr[b]..entryptr[b + 1]`.
    entryptr: Vec<usize>,
    /// Block-relative row of each entry.
    rel_row: Vec<u16>,
    /// Block-relative column of each entry.
    rel_col: Vec<u16>,
    /// Entry values.
    values: Vec<T>,
}

/// Largest admissible block size: block-relative coordinates are `u16`,
/// so they span `0..=u16::MAX` and `beta` may be at most `65536`.
pub const MAX_BETA: usize = (u16::MAX as usize) + 1;

impl<T: Scalar> CsbMatrix<T> {
    /// Converts from CSR with block size `beta`.
    ///
    /// # Panics
    /// Panics if `beta` is 0 or exceeds `u16` range + 1. Use
    /// [`CsbMatrix::try_from_csr`] for untrusted block sizes.
    pub fn from_csr(m: &CsrMatrix<T>, beta: usize) -> Self {
        match Self::try_from_csr(m, beta) {
            Ok(csb) => csb,
            Err(e) => panic!("{e}"),
        }
    }

    /// Converts from CSR with block size `beta`, validating that the
    /// block size fits the `u16` block-relative coordinates instead of
    /// silently truncating (or panicking) on oversized blocks.
    pub fn try_from_csr(m: &CsrMatrix<T>, beta: usize) -> Result<Self, SparseError> {
        Self::check_beta(beta)?;
        let nrows = m.nrows();
        let ncols = m.ncols();
        let nblock_rows = nrows.div_ceil(beta).max(1);
        let nblock_cols = ncols.div_ceil(beta).max(1);

        // bucket entries per (block_row, block_col)
        type BlockBuckets<T> = std::collections::BTreeMap<(u32, u32), Vec<(u16, u16, T)>>;
        let mut buckets: BlockBuckets<T> = BlockBuckets::new();
        for (r, c, v) in m.iter() {
            let br = r / beta as u32;
            let bc = c / beta as u32;
            buckets.entry((br, bc)).or_default().push((
                (r % beta as u32) as u16,
                (c % beta as u32) as u16,
                v,
            ));
        }

        let mut blockptr = vec![0usize; nblock_rows + 1];
        let mut block_col = Vec::with_capacity(buckets.len());
        let mut entryptr = Vec::with_capacity(buckets.len() + 1);
        entryptr.push(0usize);
        let mut rel_row = Vec::with_capacity(m.nnz());
        let mut rel_col = Vec::with_capacity(m.nnz());
        let mut values = Vec::with_capacity(m.nnz());
        // BTreeMap iterates in (block_row, block_col) order
        for ((br, bc), entries) in buckets {
            blockptr[br as usize + 1] += 1;
            block_col.push(bc);
            for (rr, rc, v) in entries {
                rel_row.push(rr);
                rel_col.push(rc);
                values.push(v);
            }
            entryptr.push(values.len());
        }
        for i in 0..nblock_rows {
            blockptr[i + 1] += blockptr[i];
        }

        Ok(Self {
            nrows,
            ncols,
            beta,
            nblock_rows,
            nblock_cols,
            blockptr,
            block_col,
            entryptr,
            rel_row,
            rel_col,
            values,
        })
    }

    fn check_beta(beta: usize) -> Result<(), SparseError> {
        if beta == 0 {
            return Err(SparseError::InvalidStructure(
                "csb: beta must be >= 1".to_string(),
            ));
        }
        if beta > MAX_BETA {
            return Err(SparseError::InvalidStructure(format!(
                "csb: beta {beta} exceeds {MAX_BETA}; block-relative coordinates are u16 \
                 and would be truncated"
            )));
        }
        Ok(())
    }

    /// Reassembles a CSB matrix from raw arrays (the `.spmmplan` decode
    /// path), validating every structural invariant `from_csr`
    /// guarantees: pointer monotonicity, canonical block / entry
    /// ordering, and block-relative coordinates inside the block and
    /// the matrix. Rejects anything malformed with a descriptive error.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        beta: usize,
        blockptr: Vec<usize>,
        block_col: Vec<u32>,
        entryptr: Vec<usize>,
        rel_row: Vec<u16>,
        rel_col: Vec<u16>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        let bad = |msg: String| Err(SparseError::InvalidStructure(format!("csb: {msg}")));
        Self::check_beta(beta)?;
        let nblock_rows = nrows.div_ceil(beta).max(1);
        let nblock_cols = ncols.div_ceil(beta).max(1);
        if blockptr.len() != nblock_rows + 1 || blockptr.first() != Some(&0) {
            return bad(format!(
                "blockptr must be {} extents starting at 0",
                nblock_rows + 1
            ));
        }
        if blockptr.windows(2).any(|w| w[0] > w[1]) {
            return bad("blockptr must be non-decreasing".to_string());
        }
        if *blockptr.last().unwrap() != block_col.len() {
            return bad(format!(
                "blockptr covers {} blocks but {} are stored",
                blockptr.last().unwrap(),
                block_col.len()
            ));
        }
        if entryptr.len() != block_col.len() + 1 || entryptr.first() != Some(&0) {
            return bad(format!(
                "entryptr must be {} extents starting at 0",
                block_col.len() + 1
            ));
        }
        if entryptr.windows(2).any(|w| w[0] > w[1]) {
            return bad("entryptr must be non-decreasing".to_string());
        }
        if *entryptr.last().unwrap() != values.len() {
            return bad(format!(
                "entryptr covers {} entries but {} are stored",
                entryptr.last().unwrap(),
                values.len()
            ));
        }
        if rel_row.len() != values.len() || rel_col.len() != values.len() {
            return bad("rel_row/rel_col/values lengths disagree".to_string());
        }
        for br in 0..nblock_rows {
            let row_base = br * beta;
            let mut prev_bc: Option<u32> = None;
            for b in blockptr[br]..blockptr[br + 1] {
                let bc = block_col[b];
                if (bc as usize) >= nblock_cols {
                    return bad(format!("block column {bc} out of range {nblock_cols}"));
                }
                if prev_bc.is_some_and(|p| p >= bc) {
                    return bad("block columns must be strictly increasing per block row".into());
                }
                prev_bc = Some(bc);
                if entryptr[b] == entryptr[b + 1] {
                    return bad("empty blocks must not be stored".to_string());
                }
                let col_base = bc as usize * beta;
                let mut prev: Option<(u16, u16)> = None;
                for e in entryptr[b]..entryptr[b + 1] {
                    let (rr, rc) = (rel_row[e], rel_col[e]);
                    if rr as usize >= beta || rc as usize >= beta {
                        return bad(format!(
                            "relative coordinate ({rr}, {rc}) outside beta {beta}"
                        ));
                    }
                    if row_base + rr as usize >= nrows || col_base + rc as usize >= ncols {
                        return bad(format!(
                            "entry ({}, {}) outside {nrows}x{ncols}",
                            row_base + rr as usize,
                            col_base + rc as usize
                        ));
                    }
                    if prev.is_some_and(|p| p >= (rr, rc)) {
                        return bad("entries must be strictly (row, col)-sorted per block".into());
                    }
                    prev = Some((rr, rc));
                }
            }
        }
        Ok(Self {
            nrows,
            ncols,
            beta,
            nblock_rows,
            nblock_cols,
            blockptr,
            block_col,
            entryptr,
            rel_row,
            rel_col,
            values,
        })
    }

    /// Converts back to CSR.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut coo = CooMatrix::new(self.nrows, self.ncols).expect("dims already valid");
        coo.reserve(self.values.len());
        for br in 0..self.nblock_rows {
            for b in self.blockptr[br]..self.blockptr[br + 1] {
                let bc = self.block_col[b] as usize;
                for e in self.entryptr[b]..self.entryptr[b + 1] {
                    coo.push(
                        (br * self.beta + self.rel_row[e] as usize) as u32,
                        (bc * self.beta + self.rel_col[e] as usize) as u32,
                        self.values[e],
                    )
                    .expect("block-relative coords stay in range");
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Block size.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// Nonzeros stored.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of non-empty blocks.
    pub fn n_blocks(&self) -> usize {
        self.block_col.len()
    }

    /// Number of block rows.
    pub fn nblock_rows(&self) -> usize {
        self.nblock_rows
    }

    /// Number of block columns.
    pub fn nblock_cols(&self) -> usize {
        self.nblock_cols
    }

    /// CSR-style extents over block rows.
    pub fn blockptr(&self) -> &[usize] {
        &self.blockptr
    }

    /// Block-column id of each stored block.
    pub fn block_col(&self) -> &[u32] {
        &self.block_col
    }

    /// Entry extents per stored block.
    pub fn entryptr(&self) -> &[usize] {
        &self.entryptr
    }

    /// Block-relative row of each entry.
    pub fn rel_row(&self) -> &[u16] {
        &self.rel_row
    }

    /// Block-relative column of each entry.
    pub fn rel_col(&self) -> &[u16] {
        &self.rel_col
    }

    /// Entry values, in storage order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mean entries per non-empty block — CSB's reuse indicator
    /// (high for clustered structure, →1 for scattered).
    pub fn avg_block_occupancy(&self) -> f64 {
        if self.n_blocks() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n_blocks() as f64
        }
    }

    /// Sequential SpMM `Y = S · X`.
    pub fn spmm_seq(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, SparseError> {
        spmm_seq_kernel(self, x)
    }

    /// Block-row-parallel SpMM (block rows own disjoint output rows).
    pub fn spmm_par(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, SparseError> {
        spmm_par_kernel(self, x)
    }

    fn check_dims(&self, x: &DenseMatrix<T>) -> Result<(), SparseError> {
        if self.ncols != x.nrows() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("S.ncols ({}) == X.nrows", self.ncols),
                got: format!("{}", x.nrows()),
            });
        }
        Ok(())
    }

    /// Simulator blocks: one thread block per block row; X reads are
    /// issued block-by-block, so blocked structure yields dense reuse
    /// windows while scattered structure degenerates to row-wise.
    pub fn spmm_blocks(&self, k: usize) -> Vec<BlockTrace> {
        let e = T::BYTES as u64;
        (0..self.nblock_rows)
            .map(|br| {
                let mut b = BlockTrace::default();
                let mut rows_touched = std::collections::HashSet::new();
                for blk in self.blockptr[br]..self.blockptr[br + 1] {
                    let col_base = self.block_col[blk] as usize * self.beta;
                    for en in self.entryptr[blk]..self.entryptr[blk + 1] {
                        b.x_rows.push((col_base + self.rel_col[en] as usize) as u32);
                        rows_touched.insert(self.rel_row[en]);
                    }
                    // block header + per-entry payload (2×u16 + value)
                    b.stream_read_bytes +=
                        8 + (self.entryptr[blk + 1] - self.entryptr[blk]) as u64 * (4 + e);
                }
                b.stream_write_bytes = rows_touched.len() as u64 * k as u64 * e;
                b.flops = 2
                    * (self.entryptr[self.blockptr[br + 1]] - self.entryptr[self.blockptr[br]])
                        as u64
                    * k as u64;
                b
            })
            .collect()
    }

    /// Simulated SpMM performance.
    pub fn simulate_spmm(&self, k: usize, device: &DeviceConfig) -> SimReport {
        spmm_gpu_sim::run_blocks(&self.spmm_blocks(k), k, T::BYTES, device)
    }
}

fma_kernel! {
    /// The dispatched body of [`CsbMatrix::spmm_seq`].
    fn spmm_seq_kernel<T: Scalar>(
        m: &CsbMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        m.check_dims(x)?;
        let k = x.ncols();
        let mut y = DenseMatrix::zeros(m.nrows, k);
        for br in 0..m.nblock_rows {
            let row_base = br * m.beta;
            for b in m.blockptr[br]..m.blockptr[br + 1] {
                let col_base = m.block_col[b] as usize * m.beta;
                for e in m.entryptr[b]..m.entryptr[b + 1] {
                    let r = row_base + m.rel_row[e] as usize;
                    let c = col_base + m.rel_col[e] as usize;
                    let v = m.values[e];
                    let y_row = y.row_mut(r);
                    for (yj, &xj) in y_row.iter_mut().zip(x.row(c)) {
                        *yj = v.mul_add(xj, *yj);
                    }
                }
            }
        }
        Ok(y)
    }
}

fma_kernel! {
    /// The dispatched body of [`CsbMatrix::spmm_par`].
    fn spmm_par_kernel<T: Scalar>(
        m: &CsbMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        m.check_dims(x)?;
        let k = x.ncols();
        let mut y = DenseMatrix::zeros(m.nrows, k);
        let mut chunks: Vec<&mut [T]> = Vec::with_capacity(m.nblock_rows);
        let mut rest: &mut [T] = y.data_mut();
        for br in 0..m.nblock_rows {
            let rows = (br * m.beta + m.beta).min(m.nrows) - br * m.beta;
            let (head, tail) = rest.split_at_mut(rows * k);
            chunks.push(head);
            rest = tail;
        }
        (0..m.nblock_rows)
            .into_par_iter()
            .zip(chunks)
            .for_each(|(br, y_chunk)| {
                for b in m.blockptr[br]..m.blockptr[br + 1] {
                    let col_base = m.block_col[b] as usize * m.beta;
                    for e in m.entryptr[b]..m.entryptr[b + 1] {
                        let r = m.rel_row[e] as usize;
                        let c = col_base + m.rel_col[e] as usize;
                        let v = m.values[e];
                        let y_row = &mut y_chunk[r * k..(r + 1) * k];
                        for (yj, &xj) in y_row.iter_mut().zip(x.row(c)) {
                            *yj = v.mul_add(xj, *yj);
                        }
                    }
                }
            });
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_data::generators;

    #[test]
    fn roundtrip_various_betas() {
        let m = generators::power_law::<f64>(200, 170, 1500, 0.8, 1);
        for beta in [1usize, 7, 16, 64, 256] {
            let csb = CsbMatrix::from_csr(&m, beta);
            assert_eq!(csb.to_csr(), m, "beta {beta}");
            assert_eq!(csb.nnz(), m.nnz());
        }
    }

    #[test]
    fn clustered_matrix_has_high_block_occupancy() {
        let clustered = generators::block_diagonal::<f64>(8, 32, 32, 16, 2);
        let scattered = generators::uniform_random::<f64>(256, 256, 16, 2);
        let cb = CsbMatrix::from_csr(&clustered, 32);
        let sb = CsbMatrix::from_csr(&scattered, 32);
        assert!(
            cb.avg_block_occupancy() > 4.0 * sb.avg_block_occupancy(),
            "clustered {} vs scattered {}",
            cb.avg_block_occupancy(),
            sb.avg_block_occupancy()
        );
    }

    #[test]
    fn spmm_matches_reference() {
        let m = generators::noisy_shuffled_clusters::<f64>(6, 16, 24, 10, 3, 3);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 5);
        let reference = {
            let mut y = DenseMatrix::zeros(m.nrows(), 8);
            for (r, c, v) in m.iter() {
                for j in 0..8 {
                    *y.get_mut(r as usize, j) += v * x.get(c as usize, j);
                }
            }
            y
        };
        for beta in [8usize, 32] {
            let csb = CsbMatrix::from_csr(&m, beta);
            let seq = csb.spmm_seq(&x).unwrap();
            let par = csb.spmm_par(&x).unwrap();
            assert!(reference.max_abs_diff(&seq) < 1e-10, "beta {beta}");
            assert!(seq.max_abs_diff(&par) < 1e-12, "beta {beta}");
        }
    }

    #[test]
    fn trace_conserves_work() {
        let m = generators::uniform_random::<f32>(128, 128, 8, 7);
        let csb = CsbMatrix::from_csr(&m, 16);
        let blocks = csb.spmm_blocks(32);
        let x_reads: usize = blocks.iter().map(|b| b.x_rows.len()).sum();
        assert_eq!(x_reads, m.nnz());
        let flops: u64 = blocks.iter().map(|b| b.flops).sum();
        assert_eq!(flops, 2 * m.nnz() as u64 * 32);
        assert_eq!(blocks.len(), 128usize.div_ceil(16));
    }

    #[test]
    fn dimension_check_and_empty() {
        let m = CsrMatrix::<f64>::from_parts(4, 6, vec![0, 0, 0, 0, 0], vec![], vec![]).unwrap();
        let csb = CsbMatrix::from_csr(&m, 4);
        assert_eq!(csb.n_blocks(), 0);
        assert_eq!(csb.avg_block_occupancy(), 0.0);
        assert_eq!(csb.to_csr(), m);
        let bad = generators::random_dense::<f64>(7, 2, 1);
        assert!(csb.spmm_seq(&bad).is_err());
        let ok = generators::random_dense::<f64>(6, 2, 1);
        assert_eq!(csb.spmm_seq(&ok).unwrap().frobenius_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn zero_beta_panics() {
        let m = CsrMatrix::<f64>::identity(4);
        let _ = CsbMatrix::from_csr(&m, 0);
    }

    #[test]
    fn beta_boundary_at_u16_range() {
        let m = generators::uniform_random::<f64>(64, 64, 4, 9);
        // largest admissible block size: relative coords span 0..=65535
        let csb = CsbMatrix::try_from_csr(&m, MAX_BETA).unwrap();
        assert_eq!(csb.to_csr(), m);
        // one past the u16 range must be a descriptive error, not a
        // silent truncation
        let err = CsbMatrix::try_from_csr(&m, MAX_BETA + 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("u16"), "undescriptive error: {msg}");
        assert!(CsbMatrix::try_from_csr(&m, 0).is_err());
    }

    #[test]
    fn from_parts_roundtrips_and_rejects_malformed() {
        let m = generators::noisy_shuffled_clusters::<f64>(6, 16, 24, 10, 3, 11);
        let csb = CsbMatrix::from_csr(&m, 16);
        let rebuilt = CsbMatrix::from_parts(
            csb.nrows(),
            csb.ncols(),
            csb.beta(),
            csb.blockptr().to_vec(),
            csb.block_col().to_vec(),
            csb.entryptr().to_vec(),
            csb.rel_row().to_vec(),
            csb.rel_col().to_vec(),
            csb.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, csb);

        // out-of-range relative coordinate
        let mut bad_rel = csb.rel_col().to_vec();
        bad_rel[0] = csb.beta() as u16; // == beta, one past the valid range
        assert!(CsbMatrix::from_parts(
            csb.nrows(),
            csb.ncols(),
            csb.beta(),
            csb.blockptr().to_vec(),
            csb.block_col().to_vec(),
            csb.entryptr().to_vec(),
            csb.rel_row().to_vec(),
            bad_rel,
            csb.values().to_vec(),
        )
        .is_err());

        // truncated entry arrays
        assert!(CsbMatrix::from_parts(
            csb.nrows(),
            csb.ncols(),
            csb.beta(),
            csb.blockptr().to_vec(),
            csb.block_col().to_vec(),
            csb.entryptr().to_vec(),
            csb.rel_row()[..csb.nnz() - 1].to_vec(),
            csb.rel_col().to_vec(),
            csb.values().to_vec(),
        )
        .is_err());
    }
}
