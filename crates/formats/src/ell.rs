//! ELLPACK format: a dense `nrows × width` layout where `width` is the
//! longest row's nonzero count and shorter rows are padded.
//!
//! Storage is column-major across the row dimension (the GPU-friendly
//! "ELL" layout: element `k` of every row is contiguous), which is what
//! makes warp access perfectly coalesced — and what makes padding so
//! expensive: every row pays for the longest row.

use spmm_gpu_sim::{BlockTrace, DeviceConfig, SimReport};
use spmm_sparse::{fma_kernel, par, CsrMatrix, DenseMatrix, Scalar, SparseError};

/// Sentinel column index marking a padding slot.
pub const PAD: u32 = u32::MAX;

/// A sparse matrix in ELLPACK layout.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix<T> {
    nrows: usize,
    ncols: usize,
    width: usize,
    /// `colidx[k * nrows + i]` = column of row `i`'s `k`-th entry
    /// (or [`PAD`]).
    colidx: Vec<u32>,
    /// Values, same layout; padding slots hold zero.
    values: Vec<T>,
    nnz: usize,
}

impl<T: Scalar> EllMatrix<T> {
    /// Converts from CSR. `width` becomes `max_row_nnz`.
    ///
    /// # Panics
    /// Panics if `nrows × max_row_nnz` overflows. Use
    /// [`EllMatrix::try_from_csr`] for a recoverable error and a
    /// padding-blowup cap.
    pub fn from_csr(m: &CsrMatrix<T>) -> Self {
        match Self::try_from_csr(m, f64::INFINITY) {
            Ok(ell) => ell,
            Err(e) => panic!("{e}"),
        }
    }

    /// Converts from CSR, checking the `nrows × max_row_nnz` slot
    /// arithmetic for overflow and rejecting padding blowups past
    /// `max_padding_factor` *before* allocating — the "format not
    /// applicable" signal the autotuner treats as a skip.
    pub fn try_from_csr(m: &CsrMatrix<T>, max_padding_factor: f64) -> Result<Self, SparseError> {
        let nrows = m.nrows();
        let width = m.max_row_nnz();
        let slots = nrows.checked_mul(width).ok_or_else(|| {
            SparseError::InvalidStructure(format!(
                "ell: padded slot count {nrows} x {width} overflows usize"
            ))
        })?;
        if slots as f64 > max_padding_factor * m.nnz().max(1) as f64 {
            return Err(SparseError::InvalidStructure(format!(
                "ell: format not applicable — padding factor {:.2} exceeds cap {:.2}",
                slots as f64 / m.nnz().max(1) as f64,
                max_padding_factor
            )));
        }
        let mut colidx = vec![PAD; nrows * width];
        let mut values = vec![T::ZERO; nrows * width];
        for i in 0..nrows {
            let (cols, vals) = m.row(i);
            for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                colidx[k * nrows + i] = c;
                values[k * nrows + i] = v;
            }
        }
        Ok(Self {
            nrows,
            ncols: m.ncols(),
            width,
            colidx,
            values,
            nnz: m.nnz(),
        })
    }

    /// Converts back to CSR (drops padding).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::with_capacity(self.nnz);
        let mut values = Vec::with_capacity(self.nnz);
        for i in 0..self.nrows {
            for k in 0..self.width {
                let c = self.colidx[k * self.nrows + i];
                if c != PAD {
                    colidx.push(c);
                    values.push(self.values[k * self.nrows + i]);
                }
            }
            rowptr.push(colidx.len());
        }
        CsrMatrix::from_parts(self.nrows, self.ncols, rowptr, colidx, values)
            .expect("ELL preserves CSR invariants")
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Padded row width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Real (unpadded) nonzeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Stored slots including padding.
    pub fn stored_slots(&self) -> usize {
        self.nrows * self.width
    }

    /// `stored_slots / nnz` — 1.0 means no padding. The paper's §6
    /// point: this explodes on power-law matrices.
    pub fn padding_factor(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.stored_slots() as f64 / self.nnz as f64
        }
    }

    /// Sequential SpMM `Y = E · X`.
    pub fn spmm_seq(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, SparseError> {
        spmm_seq_kernel(self, x)
    }

    /// Row-parallel SpMM.
    pub fn spmm_par(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, SparseError> {
        spmm_par_kernel(self, x)
    }

    fn check_dims(&self, x: &DenseMatrix<T>) -> Result<(), SparseError> {
        if self.ncols != x.nrows() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("E.ncols ({}) == X.nrows", self.ncols),
                got: format!("{}", x.nrows()),
            });
        }
        Ok(())
    }

    /// Builds the simulator blocks for the ELL SpMM kernel: one block
    /// per `rows_per_block` rows. Every *slot* — padding included —
    /// streams its index and value (that is ELL's tax); only real
    /// entries read `X` rows.
    pub fn spmm_blocks(&self, k: usize, rows_per_block: usize) -> Vec<BlockTrace> {
        let e = T::BYTES as u64;
        let mut blocks = Vec::with_capacity(self.nrows.div_ceil(rows_per_block));
        let mut i = 0usize;
        while i < self.nrows {
            let end = (i + rows_per_block).min(self.nrows);
            let mut b = BlockTrace::default();
            for r in i..end {
                let mut real = 0u64;
                for slot in 0..self.width {
                    let c = self.colidx[slot * self.nrows + r];
                    if c != PAD {
                        b.x_rows.push(c);
                        real += 1;
                    }
                }
                // padded payload streams regardless of occupancy
                b.stream_read_bytes += self.width as u64 * (4 + e);
                b.stream_write_bytes += (k as u64) * e;
                b.flops += 2 * real * k as u64;
            }
            blocks.push(b);
            i = end;
        }
        blocks
    }

    /// Simulated SpMM performance.
    pub fn simulate_spmm(&self, k: usize, device: &DeviceConfig) -> SimReport {
        let blocks = self.spmm_blocks(k, spmm_gpu_sim::kernels::DEFAULT_ROWS_PER_BLOCK);
        spmm_gpu_sim::run_blocks(&blocks, k, T::BYTES, device)
    }
}

fma_kernel! {
    /// The dispatched body of [`EllMatrix::spmm_seq`].
    fn spmm_seq_kernel<T: Scalar>(
        m: &EllMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        m.check_dims(x)?;
        let k = x.ncols();
        let mut y = DenseMatrix::zeros(m.nrows, k);
        for i in 0..m.nrows {
            let y_row = y.row_mut(i);
            for slot in 0..m.width {
                let c = m.colidx[slot * m.nrows + i];
                if c == PAD {
                    continue;
                }
                let v = m.values[slot * m.nrows + i];
                for (yj, &xj) in y_row.iter_mut().zip(x.row(c as usize)) {
                    *yj = v.mul_add(xj, *yj);
                }
            }
        }
        Ok(y)
    }
}

fma_kernel! {
    /// The dispatched body of [`EllMatrix::spmm_par`].
    fn spmm_par_kernel<T: Scalar>(
        m: &EllMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        m.check_dims(x)?;
        let k = x.ncols();
        let mut y = DenseMatrix::zeros(m.nrows, k);
        // k = 0 leaves no data to chunk; a zero chunk size would panic
        par::chunks_mut(y.data_mut(), k.max(1), |i, y_row| {
            for slot in 0..m.width {
                let c = m.colidx[slot * m.nrows + i];
                if c == PAD {
                    continue;
                }
                let v = m.values[slot * m.nrows + i];
                for (yj, &xj) in y_row.iter_mut().zip(x.row(c as usize)) {
                    *yj = v.mul_add(xj, *yj);
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
    fn roundtrip_preserves_matrix() {
        let m = generators::uniform_random::<f64>(50, 40, 7, 1);
        let ell = EllMatrix::from_csr(&m);
        assert_eq!(ell.to_csr(), m);
        assert_eq!(ell.nnz(), m.nnz());
        assert_eq!(ell.width(), 7);
        assert_eq!(ell.padding_factor(), 1.0); // fixed row length → no padding
    }

    #[test]
    fn padding_explodes_on_power_law() {
        let m = generators::power_law::<f64>(512, 512, 4096, 0.9, 2);
        let ell = EllMatrix::from_csr(&m);
        assert_eq!(ell.to_csr(), m);
        assert!(
            ell.padding_factor() > 3.0,
            "power-law padding factor {} should be large",
            ell.padding_factor()
        );
    }

    #[test]
    fn spmm_matches_reference() {
        for seed in 0..3u64 {
            let m = generators::power_law::<f64>(96, 80, 700, 0.8, seed);
            let x = generators::random_dense::<f64>(80, 8, seed ^ 9);
            let ell = EllMatrix::from_csr(&m);
            // reference via dense
            let dense = m.to_dense();
            let mut expect = DenseMatrix::zeros(96, 8);
            for i in 0..96 {
                for j in 0..80 {
                    let v = dense.get(i, j);
                    if v != 0.0 {
                        for c in 0..8 {
                            *expect.get_mut(i, c) += v * x.get(j, c);
                        }
                    }
                }
            }
            let seq = ell.spmm_seq(&x).unwrap();
            let par = ell.spmm_par(&x).unwrap();
            assert!(expect.max_abs_diff(&seq) < 1e-10);
            assert!(seq.max_abs_diff(&par) < 1e-12);
        }
    }

    #[test]
    fn dimension_check() {
        let m = generators::uniform_random::<f32>(10, 10, 2, 1);
        let ell = EllMatrix::from_csr(&m);
        let bad = generators::random_dense::<f32>(11, 4, 1);
        assert!(ell.spmm_seq(&bad).is_err());
    }

    #[test]
    fn trace_streams_include_padding() {
        // 2 rows: lengths 1 and 5 → width 5, padded slots stream
        let m = CsrMatrix::from_parts(2, 8, vec![0, 1, 6], vec![0, 1, 2, 3, 4, 5], vec![1.0f32; 6])
            .unwrap();
        let ell = EllMatrix::from_csr(&m);
        let blocks = ell.spmm_blocks(16, 4);
        let stream: u64 = blocks.iter().map(|b| b.stream_read_bytes).sum();
        // 2 rows × 5 slots × 8 bytes each
        assert_eq!(stream, 2 * 5 * 8);
        let x_reads: usize = blocks.iter().map(|b| b.x_rows.len()).sum();
        assert_eq!(x_reads, 6); // only the real nonzeros touch X
    }

    #[test]
    fn padding_cap_signals_not_applicable() {
        let m = generators::power_law::<f64>(512, 512, 4096, 0.9, 2);
        let factor = EllMatrix::from_csr(&m).padding_factor();
        assert!(factor > 3.0);
        let err = EllMatrix::try_from_csr(&m, 2.0).unwrap_err();
        assert!(
            err.to_string().contains("not applicable"),
            "cap error should read as a skip signal: {err}"
        );
        assert!(EllMatrix::try_from_csr(&m, factor + 1.0).is_ok());
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::<f64>::from_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let ell = EllMatrix::from_csr(&m);
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.padding_factor(), 1.0);
        assert_eq!(ell.to_csr(), m);
    }
}
