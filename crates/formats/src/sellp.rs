//! SELL-P / sliced ELLPACK (MAGMA's SpMM format) with the optional
//! SELL-C-σ row sort.
//!
//! Rows are grouped into fixed-height *slices*; each slice is padded
//! only to its own longest row, bounding the padding that plain ELL
//! pays globally. With `sigma > slice_height`, rows are sorted by
//! length within σ-sized windows before slicing, so slices hold
//! similar-length rows (SELL-C-σ). The σ sort is a *row permutation* —
//! like the paper's reordering it must be undone on output, which the
//! SpMM kernels here do transparently.

use rayon::prelude::*;
use spmm_gpu_sim::{BlockTrace, DeviceConfig, SimReport};
use spmm_sparse::{fma_kernel, CsrMatrix, DenseMatrix, Permutation, Scalar, SparseError};

/// Sentinel column index marking a padding slot.
pub const PAD: u32 = u32::MAX;

/// One slice's geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slice {
    /// First (permuted) row of the slice.
    row_start: usize,
    /// Rows in the slice.
    height: usize,
    /// Padded width of the slice.
    width: usize,
    /// Offset of the slice's data in `colidx`/`values`.
    offset: usize,
}

/// A sparse matrix in SELL-P layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SellPMatrix<T> {
    nrows: usize,
    ncols: usize,
    slice_height: usize,
    slices: Vec<Slice>,
    /// Within a slice: `colidx[offset + k * height + r]` is entry `k`
    /// of the slice's `r`-th row.
    colidx: Vec<u32>,
    values: Vec<T>,
    /// `perm.old_of(p) = original row stored at permuted position p`
    /// (identity when σ sorting is off).
    perm: Permutation,
    nnz: usize,
}

impl<T: Scalar> SellPMatrix<T> {
    /// Converts from CSR with the given slice height and σ window.
    /// `sigma == 0` or `sigma <= slice_height` disables sorting.
    ///
    /// # Panics
    /// Panics if `slice_height == 0` or if the padded layout would
    /// overflow address arithmetic. Use [`SellPMatrix::try_from_csr`]
    /// to get a recoverable error (and a padding-blowup cap) instead.
    pub fn from_csr(m: &CsrMatrix<T>, slice_height: usize, sigma: usize) -> Self {
        match Self::try_from_csr(m, slice_height, sigma, f64::INFINITY) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Converts from CSR, guarding the padding arithmetic: the total
    /// padded slot count is accumulated with checked arithmetic (no
    /// silent `rows × max_width` wraparound) and compared against
    /// `max_padding_factor × nnz` *before* anything is allocated.
    /// A blowup past the cap returns a descriptive "format not
    /// applicable" error the autotuner treats as a skip.
    pub fn try_from_csr(
        m: &CsrMatrix<T>,
        slice_height: usize,
        sigma: usize,
        max_padding_factor: f64,
    ) -> Result<Self, SparseError> {
        if slice_height == 0 {
            return Err(SparseError::InvalidStructure(
                "sell: slice_height must be >= 1".to_string(),
            ));
        }
        let nrows = m.nrows();

        // σ-window sort by descending row length (stable for determinism)
        let mut order: Vec<u32> = (0..nrows as u32).collect();
        if sigma > slice_height {
            for window in order.chunks_mut(sigma) {
                window.sort_by_key(|&r| std::cmp::Reverse(m.row_nnz(r as usize)));
            }
        }
        let perm = Permutation::from_order(order).expect("chunk sort keeps the index set");

        // dry pass: slice widths and the total padded slot count, before
        // any allocation is sized from them
        let nslices = nrows.div_ceil(slice_height);
        let mut widths = Vec::with_capacity(nslices);
        let mut total_slots = 0usize;
        for s in 0..nslices {
            let row_start = s * slice_height;
            let height = (row_start + slice_height).min(nrows) - row_start;
            let width = (0..height)
                .map(|r| m.row_nnz(perm.old_of(row_start + r) as usize))
                .max()
                .unwrap_or(0);
            let slots = height
                .checked_mul(width)
                .and_then(|s| total_slots.checked_add(s));
            total_slots = slots.ok_or_else(|| {
                SparseError::InvalidStructure("sell: padded slot count overflows usize".to_string())
            })?;
            widths.push(width);
        }
        if total_slots as f64 > max_padding_factor * m.nnz().max(1) as f64 {
            return Err(SparseError::InvalidStructure(format!(
                "sell: format not applicable — padding factor {:.2} exceeds cap {:.2}",
                total_slots as f64 / m.nnz().max(1) as f64,
                max_padding_factor
            )));
        }

        let mut slices = Vec::with_capacity(nslices);
        let mut colidx = Vec::with_capacity(total_slots);
        let mut values = Vec::with_capacity(total_slots);
        for (s, &width) in widths.iter().enumerate() {
            let row_start = s * slice_height;
            let height = (row_start + slice_height).min(nrows) - row_start;
            let offset = colidx.len();
            colidx.resize(offset + height * width, PAD);
            values.resize(offset + height * width, T::ZERO);
            for r in 0..height {
                let (cols, vals) = m.row(perm.old_of(row_start + r) as usize);
                for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                    colidx[offset + k * height + r] = c;
                    values[offset + k * height + r] = v;
                }
            }
            slices.push(Slice {
                row_start,
                height,
                width,
                offset,
            });
        }
        Ok(Self {
            nrows,
            ncols: m.ncols(),
            slice_height,
            slices,
            colidx,
            values,
            perm,
            nnz: m.nnz(),
        })
    }

    /// Reassembles a SELL matrix from raw arrays (the `.spmmplan`
    /// decode path). The slice geometry is re-derived from
    /// `slice_height` and the per-slice widths; every invariant
    /// `from_csr` guarantees is re-validated: the σ permutation is a
    /// permutation, column indices are in range and strictly increasing
    /// per row, padding forms a suffix of each row, and padded value
    /// slots are zero.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        slice_height: usize,
        widths: Vec<usize>,
        colidx: Vec<u32>,
        values: Vec<T>,
        order: Vec<u32>,
    ) -> Result<Self, SparseError> {
        let bad = |msg: String| Err(SparseError::InvalidStructure(format!("sell: {msg}")));
        if slice_height == 0 {
            return bad("slice_height must be >= 1".to_string());
        }
        if order.len() != nrows {
            return bad(format!(
                "permutation covers {} of {nrows} rows",
                order.len()
            ));
        }
        let perm = Permutation::from_order(order)?;
        let nslices = nrows.div_ceil(slice_height);
        if widths.len() != nslices {
            return bad(format!(
                "{} slice widths for {nslices} slices",
                widths.len()
            ));
        }
        if colidx.len() != values.len() {
            return bad("colidx/values lengths disagree".to_string());
        }
        let mut slices = Vec::with_capacity(nslices);
        let mut offset = 0usize;
        let mut nnz = 0usize;
        for (s, &width) in widths.iter().enumerate() {
            let row_start = s * slice_height;
            let height = (row_start + slice_height).min(nrows) - row_start;
            let slots = height
                .checked_mul(width)
                .and_then(|n| offset.checked_add(n));
            let end = match slots {
                Some(e) if e <= colidx.len() => e,
                _ => return bad("slice extents overflow the stored slots".to_string()),
            };
            for r in 0..height {
                let mut prev: Option<u32> = None;
                let mut padded = false;
                for k in 0..width {
                    let i = offset + k * height + r;
                    let c = colidx[i];
                    if c == PAD {
                        padded = true;
                        if values[i] != T::ZERO {
                            return bad("padding slot holds a nonzero value".to_string());
                        }
                        continue;
                    }
                    if padded {
                        return bad("real entry after a padding slot".to_string());
                    }
                    if c as usize >= ncols {
                        return bad(format!("column {c} out of range {ncols}"));
                    }
                    if prev.is_some_and(|p| p >= c) {
                        return bad("columns must be strictly increasing per row".to_string());
                    }
                    prev = Some(c);
                    nnz += 1;
                }
            }
            slices.push(Slice {
                row_start,
                height,
                width,
                offset,
            });
            offset = end;
        }
        if offset != colidx.len() {
            return bad(format!(
                "slices cover {offset} slots but {} are stored",
                colidx.len()
            ));
        }
        Ok(Self {
            nrows,
            ncols,
            slice_height,
            slices,
            colidx,
            values,
            perm,
            nnz,
        })
    }

    /// Converts back to CSR, undoing the σ permutation.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        // collect rows in permuted order, then invert
        let mut rows: Vec<(Vec<u32>, Vec<T>)> = vec![(Vec::new(), Vec::new()); self.nrows];
        for slice in &self.slices {
            for r in 0..slice.height {
                let original = self.perm.old_of(slice.row_start + r) as usize;
                let (cols, vals) = &mut rows[original];
                for k in 0..slice.width {
                    let c = self.colidx[slice.offset + k * slice.height + r];
                    if c != PAD {
                        cols.push(c);
                        vals.push(self.values[slice.offset + k * slice.height + r]);
                    }
                }
            }
        }
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::with_capacity(self.nnz);
        let mut values = Vec::with_capacity(self.nnz);
        for (cols, vals) in rows {
            colidx.extend(cols);
            values.extend(vals);
            rowptr.push(colidx.len());
        }
        CsrMatrix::from_parts(self.nrows, self.ncols, rowptr, colidx, values)
            .expect("SELL-P preserves CSR invariants")
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Slice height (the `C` of SELL-C-σ).
    pub fn slice_height(&self) -> usize {
        self.slice_height
    }

    /// Real nonzeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Stored slots including padding.
    pub fn stored_slots(&self) -> usize {
        self.colidx.len()
    }

    /// Per-slice padded widths, in slice order (the only free part of
    /// the slice geometry — starts, heights and offsets are derived
    /// from `slice_height`).
    pub fn slice_widths(&self) -> Vec<usize> {
        self.slices.iter().map(|s| s.width).collect()
    }

    /// Column indices in the sliced column-major layout ([`PAD`] marks
    /// padding slots).
    pub fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// Values in the sliced column-major layout (zero in padding
    /// slots).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The σ-sort row permutation (identity when sorting is off):
    /// `perm.old_of(p)` is the input row stored at permuted position
    /// `p`.
    pub fn perm(&self) -> &Permutation {
        &self.perm
    }

    /// `stored_slots / nnz` — strictly between ELL's factor and 1.
    pub fn padding_factor(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.stored_slots() as f64 / self.nnz as f64
        }
    }

    /// Sequential SpMM `Y = S · X`, output in original row order.
    pub fn spmm_seq(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, SparseError> {
        spmm_seq_kernel(self, x)
    }

    /// Slice-parallel SpMM, output in original row order.
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

    /// Simulator blocks: one block per slice; padded slots stream,
    /// real entries read `X` rows.
    pub fn spmm_blocks(&self, k: usize) -> Vec<BlockTrace> {
        let e = T::BYTES as u64;
        self.slices
            .iter()
            .map(|slice| {
                let mut b = BlockTrace::default();
                let mut real = 0u64;
                for r in 0..slice.height {
                    for slot in 0..slice.width {
                        let c = self.colidx[slice.offset + slot * slice.height + r];
                        if c != PAD {
                            b.x_rows.push(c);
                            real += 1;
                        }
                    }
                }
                b.stream_read_bytes = (slice.height * slice.width) as u64 * (4 + e);
                b.stream_write_bytes = (slice.height * k) as u64 * e;
                b.flops = 2 * real * k as u64;
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
    /// The dispatched body of [`SellPMatrix::spmm_seq`].
    fn spmm_seq_kernel<T: Scalar>(
        m: &SellPMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        m.check_dims(x)?;
        let k = x.ncols();
        let mut y = DenseMatrix::zeros(m.nrows, k);
        for slice in &m.slices {
            for r in 0..slice.height {
                let original = m.perm.old_of(slice.row_start + r) as usize;
                let y_row = y.row_mut(original);
                for slot in 0..slice.width {
                    let c = m.colidx[slice.offset + slot * slice.height + r];
                    if c == PAD {
                        continue;
                    }
                    let v = m.values[slice.offset + slot * slice.height + r];
                    for (yj, &xj) in y_row.iter_mut().zip(x.row(c as usize)) {
                        *yj = v.mul_add(xj, *yj);
                    }
                }
            }
        }
        Ok(y)
    }
}

fma_kernel! {
    /// The dispatched body of [`SellPMatrix::spmm_par`].
    fn spmm_par_kernel<T: Scalar>(
        m: &SellPMatrix<T>,
        x: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, SparseError> {
        m.check_dims(x)?;
        let k = x.ncols();
        // compute in permuted order (slice-contiguous chunks), then
        // scatter back unless the order is the original one
        let mut y_perm = DenseMatrix::zeros(m.nrows, k);
        let mut chunks: Vec<&mut [T]> = Vec::with_capacity(m.slices.len());
        let mut rest: &mut [T] = y_perm.data_mut();
        for slice in &m.slices {
            let (head, tail) = rest.split_at_mut(slice.height * k);
            chunks.push(head);
            rest = tail;
        }
        m.slices
            .par_iter()
            .zip(chunks)
            .for_each(|(slice, y_chunk)| {
                for r in 0..slice.height {
                    let y_row = &mut y_chunk[r * k..(r + 1) * k];
                    for slot in 0..slice.width {
                        let c = m.colidx[slice.offset + slot * slice.height + r];
                        if c == PAD {
                            continue;
                        }
                        let v = m.values[slice.offset + slot * slice.height + r];
                        for (yj, &xj) in y_row.iter_mut().zip(x.row(c as usize)) {
                            *yj = v.mul_add(xj, *yj);
                        }
                    }
                }
            });
        if m.perm.is_identity() {
            return Ok(y_perm);
        }
        let mut y = DenseMatrix::zeros(m.nrows, k);
        for p in 0..m.nrows {
            let original = m.perm.old_of(p) as usize;
            y.row_mut(original).copy_from_slice(y_perm.row(p));
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ell::EllMatrix;
    use spmm_data::generators;

    #[test]
    fn roundtrip_without_sigma() {
        let m = generators::power_law::<f64>(200, 160, 1500, 0.85, 1);
        let s = SellPMatrix::from_csr(&m, 8, 0);
        assert_eq!(s.to_csr(), m);
        assert!(s.perm.is_identity());
    }

    #[test]
    fn roundtrip_with_sigma_sort() {
        let m = generators::power_law::<f64>(200, 160, 1500, 0.85, 2);
        let s = SellPMatrix::from_csr(&m, 8, 64);
        assert!(!s.perm.is_identity(), "σ sort should permute skewed rows");
        assert_eq!(s.to_csr(), m, "permutation must be undone exactly");
    }

    #[test]
    fn padding_between_one_and_ell() {
        let m = generators::power_law::<f64>(512, 512, 4000, 0.9, 3);
        let ell = EllMatrix::from_csr(&m);
        let sell = SellPMatrix::from_csr(&m, 8, 0);
        let sell_sorted = SellPMatrix::from_csr(&m, 8, 128);
        assert!(sell.padding_factor() >= 1.0);
        assert!(sell.padding_factor() <= ell.padding_factor());
        assert!(
            sell_sorted.padding_factor() <= sell.padding_factor(),
            "σ sorting must not worsen padding: {} vs {}",
            sell_sorted.padding_factor(),
            sell.padding_factor()
        );
    }

    #[test]
    fn spmm_matches_reference_with_and_without_sigma() {
        let m = generators::power_law::<f64>(96, 80, 800, 0.85, 4);
        let x = generators::random_dense::<f64>(80, 8, 5);
        let reference = EllMatrix::from_csr(&m).spmm_seq(&x).unwrap();
        for sigma in [0usize, 32, 96] {
            let s = SellPMatrix::from_csr(&m, 8, sigma);
            let seq = s.spmm_seq(&x).unwrap();
            let par = s.spmm_par(&x).unwrap();
            assert!(
                reference.max_abs_diff(&seq) < 1e-10,
                "sigma {sigma} seq deviates"
            );
            // seq and par fold each row in the same order, so they agree
            // bit for bit; at σ = 0 par returns its slice-order output as is
            assert_eq!(s.perm().is_identity(), sigma == 0);
            let bits =
                |y: &DenseMatrix<f64>| y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&seq), bits(&par), "sigma {sigma} par deviates");
        }
    }

    #[test]
    fn ragged_last_slice() {
        let m = generators::uniform_random::<f64>(13, 16, 3, 6);
        let s = SellPMatrix::from_csr(&m, 4, 0);
        assert_eq!(s.slices.len(), 4);
        assert_eq!(s.slices[3].height, 1);
        assert_eq!(s.to_csr(), m);
    }

    #[test]
    fn trace_flops_count_real_entries_only() {
        let m = generators::power_law::<f32>(64, 64, 400, 0.9, 7);
        let s = SellPMatrix::from_csr(&m, 8, 0);
        let blocks = s.spmm_blocks(16);
        let flops: u64 = blocks.iter().map(|b| b.flops).sum();
        assert_eq!(flops, 2 * m.nnz() as u64 * 16);
        let x_reads: usize = blocks.iter().map(|b| b.x_rows.len()).sum();
        assert_eq!(x_reads, m.nnz());
        // streams exceed the real payload when padded
        let stream: u64 = blocks.iter().map(|b| b.stream_read_bytes).sum();
        assert!(stream >= m.nnz() as u64 * 8);
    }

    #[test]
    fn sigma_sort_reduces_simulated_stream_traffic() {
        let m = generators::power_law::<f32>(2048, 2048, 40_000, 0.95, 8);
        let device = DeviceConfig::p100();
        let unsorted = SellPMatrix::from_csr(&m, 32, 0);
        let sorted = SellPMatrix::from_csr(&m, 32, 512);
        let ru = unsorted.simulate_spmm(64, &device);
        let rs = sorted.simulate_spmm(64, &device);
        assert!(
            rs.traffic.dram_bytes <= ru.traffic.dram_bytes,
            "σ sort should reduce padded streaming: {} vs {}",
            rs.traffic.dram_bytes,
            ru.traffic.dram_bytes
        );
    }

    #[test]
    fn empty_and_degenerate() {
        let m = CsrMatrix::<f64>::from_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let s = SellPMatrix::from_csr(&m, 2, 0);
        assert_eq!(s.padding_factor(), 1.0);
        assert_eq!(s.to_csr(), m);
    }

    #[test]
    #[should_panic(expected = "slice_height")]
    fn zero_slice_height_panics() {
        let m = CsrMatrix::<f64>::identity(4);
        let _ = SellPMatrix::from_csr(&m, 0, 0);
    }

    #[test]
    fn padding_cap_rejects_blowup_before_allocating() {
        // one long row among many empty ones: ELL-style blowup that a
        // slice containing the long row still pays for
        let mut rowptr = vec![0usize; 65];
        for p in rowptr.iter_mut().skip(1) {
            *p = 64;
        }
        let m = CsrMatrix::<f64>::from_parts(64, 64, rowptr, (0..64u32).collect(), vec![1.0; 64])
            .unwrap();
        // slice height 64 → every row padded to width 64
        let err = SellPMatrix::try_from_csr(&m, 64, 0, 4.0).unwrap_err();
        assert!(
            err.to_string().contains("not applicable"),
            "cap error should read as a skip signal: {err}"
        );
        // the uncapped build still works and reports the blowup honestly
        let s = SellPMatrix::try_from_csr(&m, 64, 0, f64::INFINITY).unwrap();
        assert_eq!(s.padding_factor(), 64.0);
    }

    #[test]
    fn from_parts_roundtrips_and_rejects_malformed() {
        let m = generators::power_law::<f64>(100, 90, 700, 0.85, 12);
        let s = SellPMatrix::from_csr(&m, 8, 32);
        let rebuilt = SellPMatrix::from_parts(
            s.nrows(),
            s.ncols(),
            s.slice_height(),
            s.slice_widths(),
            s.colidx().to_vec(),
            s.values().to_vec(),
            s.perm().order().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.nnz(), m.nnz());

        // column out of range
        let mut bad_cols = s.colidx().to_vec();
        let real = bad_cols.iter().position(|&c| c != PAD).unwrap();
        bad_cols[real] = s.ncols() as u32;
        assert!(SellPMatrix::from_parts(
            s.nrows(),
            s.ncols(),
            s.slice_height(),
            s.slice_widths(),
            bad_cols,
            s.values().to_vec(),
            s.perm().order().to_vec(),
        )
        .is_err());

        // nonzero value in a padding slot
        if let Some(pad) = s.colidx().iter().position(|&c| c == PAD) {
            let mut bad_vals = s.values().to_vec();
            bad_vals[pad] = 3.0;
            assert!(SellPMatrix::from_parts(
                s.nrows(),
                s.ncols(),
                s.slice_height(),
                s.slice_widths(),
                s.colidx().to_vec(),
                bad_vals,
                s.perm().order().to_vec(),
            )
            .is_err());
        }

        // truncated permutation
        assert!(SellPMatrix::from_parts(
            s.nrows(),
            s.ncols(),
            s.slice_height(),
            s.slice_widths(),
            s.colidx().to_vec(),
            s.values().to_vec(),
            s.perm().order()[..s.nrows() - 1].to_vec(),
        )
        .is_err());
    }
}
