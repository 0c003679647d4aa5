//! Trace builders for the kernels the paper compares.
//!
//! All builders express a kernel as [`BlockTrace`]s:
//!
//! * [`spmm_rowwise_blocks`] — the row-wise kernel (§2.3's straightforward
//!   implementation, also the shape of cuSPARSE's csrmm and of the ASpT
//!   sparse-remainder kernel): one warp per row, a thread block covers
//!   `rows_per_block` consecutive rows of the processing order; each
//!   nonzero reads a full `X` row through L2.
//! * [`spmm_aspt_dense_blocks`] — the dense-tile kernel: one block per
//!   (panel, tile); each staged column's `X` row is read from global
//!   memory **once** and all tile nonzeros consume it from shared
//!   memory.
//! * SDDMM variants of both.
//!
//! High-level wrappers ([`simulate_spmm_rowwise`], [`simulate_spmm_aspt`],
//! [`simulate_sddmm_rowwise`], [`simulate_sddmm_aspt`]) run the traces on
//! a device and combine the dense and remainder kernels.

use crate::device::DeviceConfig;
use crate::engine::{combine, run_blocks, BlockTrace, SimReport};
use spmm_aspt::AsptMatrix;
use spmm_sparse::{CsrMatrix, Permutation, Scalar};

/// Default rows per thread block for row-wise kernels ("several warps
/// processing consecutive rows into a thread-block", §2.3).
pub const DEFAULT_ROWS_PER_BLOCK: usize = 4;

/// Bytes of sparse-matrix metadata streamed per nonzero (column index)
/// — values are charged separately at the element size.
const IDX_BYTES: u64 = 4;
/// Row-pointer bytes streamed per row.
const ROWPTR_BYTES: u64 = 8;

/// Builds row-wise SpMM blocks. `order`, when given, is the processing
/// order (`order[position] = row`); rows are grouped into blocks of
/// `rows_per_block` consecutive positions.
pub fn spmm_rowwise_blocks<T: Scalar>(
    m: &CsrMatrix<T>,
    k: usize,
    order: Option<&Permutation>,
    rows_per_block: usize,
) -> Vec<BlockTrace> {
    assert!(rows_per_block >= 1);
    if let Some(p) = order {
        assert_eq!(p.len(), m.nrows(), "order must cover all rows");
    }
    let e = T::BYTES as u64;
    let row_at = |pos: usize| -> usize {
        match order {
            Some(p) => p.old_of(pos) as usize,
            None => pos,
        }
    };
    let mut blocks = Vec::with_capacity(m.nrows().div_ceil(rows_per_block));
    let mut pos = 0;
    while pos < m.nrows() {
        let end = (pos + rows_per_block).min(m.nrows());
        let mut b = BlockTrace::default();
        for p in pos..end {
            let r = row_at(p);
            let cols = m.row_cols(r);
            if cols.is_empty() {
                // warps holding empty rows retire immediately; output
                // initialisation is excluded from every kernel alike
                continue;
            }
            b.x_rows.extend_from_slice(cols);
            b.stream_read_bytes += cols.len() as u64 * (IDX_BYTES + e) + ROWPTR_BYTES;
            b.stream_write_bytes += (k as u64) * e; // the Y row
            b.flops += 2 * cols.len() as u64 * k as u64;
        }
        blocks.push(b);
        pos = end;
    }
    blocks
}

/// Builds the ASpT dense-tile SpMM blocks: one block per *panel*. The
/// block stages each of the panel's tiles in turn (each staged column's
/// `X` row is fetched from global exactly once), accumulates partial
/// sums in registers across tiles, and writes each touched panel row's
/// `Y` once at the end — the original ASpT kernel structure.
pub fn spmm_aspt_dense_blocks<T: Scalar>(aspt: &AsptMatrix<T>, k: usize) -> Vec<BlockTrace> {
    let e = T::BYTES as u64;
    let kb = k as u64 * e;
    let mut blocks = Vec::new();
    for panel in aspt.panels() {
        if panel.tiles.is_empty() {
            continue;
        }
        let panel_rows = panel.row_end - panel.row_start;
        let mut b = BlockTrace::default();
        let mut touched = vec![false; panel_rows];
        for tile in &panel.tiles {
            let nnz = tile.nnz() as u64;
            b.x_rows.extend_from_slice(&tile.cols);
            // staging writes + per-nonzero reads, all in shared memory
            b.shared_bytes += tile.cols.len() as u64 * kb + nnz * kb;
            // tile metadata + nonzero payload
            b.stream_read_bytes +=
                nnz * (IDX_BYTES + e) + tile.cols.len() as u64 * IDX_BYTES + ROWPTR_BYTES;
            b.flops += 2 * nnz * k as u64;
            for (r, t) in touched.iter_mut().enumerate() {
                *t = *t || tile.rowptr[r + 1] > tile.rowptr[r];
            }
        }
        // one Y write per panel row touched by any tile
        b.stream_write_bytes = touched.iter().filter(|&&t| t).count() as u64 * kb;
        blocks.push(b);
    }
    blocks
}

/// Builds row-wise SDDMM blocks (Alg 2's loop structure): per nonzero
/// an `X` row is read through L2; the block's own `Y` rows stream in
/// once each; outputs are one value per nonzero.
pub fn sddmm_rowwise_blocks<T: Scalar>(
    m: &CsrMatrix<T>,
    k: usize,
    order: Option<&Permutation>,
    rows_per_block: usize,
) -> Vec<BlockTrace> {
    assert!(rows_per_block >= 1);
    if let Some(p) = order {
        assert_eq!(p.len(), m.nrows(), "order must cover all rows");
    }
    let e = T::BYTES as u64;
    let kb = k as u64 * e;
    let row_at = |pos: usize| -> usize {
        match order {
            Some(p) => p.old_of(pos) as usize,
            None => pos,
        }
    };
    let mut blocks = Vec::with_capacity(m.nrows().div_ceil(rows_per_block));
    let mut pos = 0;
    while pos < m.nrows() {
        let end = (pos + rows_per_block).min(m.nrows());
        let mut b = BlockTrace::default();
        for p in pos..end {
            let r = row_at(p);
            let cols = m.row_cols(r);
            if cols.is_empty() {
                continue;
            }
            b.x_rows.extend_from_slice(cols);
            // the warp's own Y row, read once and kept in registers
            b.stream_read_bytes += kb + cols.len() as u64 * (IDX_BYTES + e) + ROWPTR_BYTES;
            // one output value per nonzero
            b.stream_write_bytes += cols.len() as u64 * e;
            b.flops += cols.len() as u64 * (2 * k as u64 + 1);
        }
        blocks.push(b);
        pos = end;
    }
    blocks
}

/// Builds the ASpT dense-tile SDDMM blocks: one block per panel, with
/// each touched panel row's `Y` streamed in once across all tiles.
pub fn sddmm_aspt_dense_blocks<T: Scalar>(aspt: &AsptMatrix<T>, k: usize) -> Vec<BlockTrace> {
    let e = T::BYTES as u64;
    let kb = k as u64 * e;
    let mut blocks = Vec::new();
    for panel in aspt.panels() {
        if panel.tiles.is_empty() {
            continue;
        }
        let panel_rows = panel.row_end - panel.row_start;
        let mut b = BlockTrace::default();
        let mut touched = vec![false; panel_rows];
        for tile in &panel.tiles {
            let nnz = tile.nnz() as u64;
            b.x_rows.extend_from_slice(&tile.cols);
            b.shared_bytes += tile.cols.len() as u64 * kb + nnz * kb;
            b.stream_read_bytes +=
                nnz * (IDX_BYTES + e) + tile.cols.len() as u64 * IDX_BYTES + ROWPTR_BYTES;
            b.stream_write_bytes += nnz * e;
            b.flops += nnz * (2 * k as u64 + 1);
            for (r, t) in touched.iter_mut().enumerate() {
                *t = *t || tile.rowptr[r + 1] > tile.rowptr[r];
            }
        }
        // the block's Y rows, read once each
        b.stream_read_bytes += touched.iter().filter(|&&t| t).count() as u64 * kb;
        blocks.push(b);
    }
    blocks
}

/// Simulates the row-wise SpMM kernel (the cuSPARSE-like baseline when
/// run on the original matrix).
///
/// ```
/// use spmm_gpu_sim::kernels::simulate_spmm_rowwise;
/// use spmm_gpu_sim::DeviceConfig;
/// use spmm_sparse::CsrMatrix;
///
/// let m = CsrMatrix::<f32>::identity(1024);
/// let report = simulate_spmm_rowwise(&m, 128, &DeviceConfig::p100());
/// // 2 flops per nonzero per dense column
/// assert_eq!(report.flops, 2 * 1024 * 128);
/// // every nonzero issues one X-row read through the L2
/// assert_eq!(report.traffic.x_row_reads, 1024);
/// assert!(report.time_s > 0.0);
/// ```
pub fn simulate_spmm_rowwise<T: Scalar>(
    m: &CsrMatrix<T>,
    k: usize,
    device: &DeviceConfig,
) -> SimReport {
    let blocks = spmm_rowwise_blocks(m, k, None, DEFAULT_ROWS_PER_BLOCK);
    run_blocks(&blocks, k, T::BYTES, device)
}

/// Simulates ASpT SpMM: dense-tile kernel followed by the row-wise
/// remainder kernel, the latter optionally in a round-2 processing
/// order.
pub fn simulate_spmm_aspt<T: Scalar>(
    aspt: &AsptMatrix<T>,
    remainder_order: Option<&Permutation>,
    k: usize,
    device: &DeviceConfig,
) -> SimReport {
    let dense = run_blocks(&spmm_aspt_dense_blocks(aspt, k), k, T::BYTES, device);
    let rest_blocks =
        spmm_rowwise_blocks(aspt.remainder(), k, remainder_order, DEFAULT_ROWS_PER_BLOCK);
    let rest = run_blocks(&rest_blocks, k, T::BYTES, device);
    combine(&dense, &rest)
}

/// Per-pass column widths of a k-blocked (batched multi-RHS) kernel
/// over a fused operand of total width `k`: full `k_block`-wide blocks
/// plus a final partial block. A zero `k_block` is clamped to 1,
/// matching the exact kernels.
pub fn kblock_pass_widths(k: usize, k_block: usize) -> Vec<usize> {
    let kb = k_block.max(1);
    let mut widths = Vec::with_capacity(k.div_ceil(kb));
    let mut c0 = 0;
    while c0 < k {
        let w = kb.min(k - c0);
        widths.push(w);
        c0 += w;
    }
    widths
}

/// Simulates the column-blocked ASpT SpMM kernel: dense tiles plus
/// remainder per column block, every pass combined back to back. The
/// batched analogue of [`simulate_spmm_aspt`].
pub fn simulate_spmm_aspt_kblocked<T: Scalar>(
    aspt: &AsptMatrix<T>,
    remainder_order: Option<&Permutation>,
    k: usize,
    k_block: usize,
    device: &DeviceConfig,
) -> SimReport {
    kblock_pass_widths(k, k_block)
        .into_iter()
        .map(|w| simulate_spmm_aspt(aspt, remainder_order, w, device))
        .reduce(|a, b| combine(&a, &b))
        .unwrap_or_else(|| run_blocks(&[], k.max(1), T::BYTES, device))
}

/// Per-thread register budget assumed for the microkernel working-set
/// model: 255 allocatable 32-bit registers (the 256th is reserved), the
/// limit on P100 and V100 alike.
pub const MICRO_REGFILE_BYTES_PER_THREAD: usize = 255 * 4;

/// Live register bytes a monomorphized microkernel pass holds per
/// thread at block width `k_block`: the `[T; KB]` output accumulator
/// plus the staged `X` block it multiplies against. This is the
/// quantity that bounds how wide a specialized block can go before the
/// accumulator spills to local memory.
pub fn micro_register_bytes(k_block: usize, elem_bytes: usize) -> usize {
    2 * k_block * elem_bytes
}

/// Simulates the column-blocked ASpT SpMM kernel with register-blocked
/// (microkernel) passes. Passes whose accumulator working set fits the
/// register budget ([`micro_register_bytes`] vs
/// [`MICRO_REGFILE_BYTES_PER_THREAD`]) behave exactly like
/// [`simulate_spmm_aspt_kblocked`]: the `Y` block stays register
/// resident and is written once per touched row per pass. Over-budget
/// widths spill the accumulator to thread-local memory, which the model
/// charges as one extra `Y`-block read + write round trip through the
/// memory system per nonzero — the traffic a register-resident
/// accumulator exists to avoid.
pub fn simulate_spmm_aspt_kblocked_micro<T: Scalar>(
    aspt: &AsptMatrix<T>,
    remainder_order: Option<&Permutation>,
    k: usize,
    k_block: usize,
    device: &DeviceConfig,
) -> SimReport {
    kblock_pass_widths(k, k_block)
        .into_iter()
        .map(|w| {
            let spills = micro_register_bytes(w, T::BYTES) > MICRO_REGFILE_BYTES_PER_THREAD;
            let mut dense_blocks = spmm_aspt_dense_blocks(aspt, w);
            let mut rest_blocks =
                spmm_rowwise_blocks(aspt.remainder(), w, remainder_order, DEFAULT_ROWS_PER_BLOCK);
            if spills {
                let wb = (w * T::BYTES) as u64;
                for b in dense_blocks.iter_mut().chain(rest_blocks.iter_mut()) {
                    // flops are 2 per (nonzero, column) in both block
                    // kinds, so nnz = flops / (2 * w); each spilled
                    // nonzero round-trips the Y block
                    let nnz = b.flops / (2 * w as u64);
                    b.stream_read_bytes += nnz * wb;
                    b.stream_write_bytes += nnz * wb;
                }
            }
            let dense = run_blocks(&dense_blocks, w, T::BYTES, device);
            let rest = run_blocks(&rest_blocks, w, T::BYTES, device);
            combine(&dense, &rest)
        })
        .reduce(|a, b| combine(&a, &b))
        .unwrap_or_else(|| run_blocks(&[], k.max(1), T::BYTES, device))
}

/// Simulates the row-wise SpMV kernel — the `k = 1` instantiation of
/// the row-wise SpMM trace (the cuSPARSE-like csrmv baseline).
pub fn simulate_spmv_rowwise<T: Scalar>(m: &CsrMatrix<T>, device: &DeviceConfig) -> SimReport {
    simulate_spmm_rowwise(m, 1, device)
}

/// Simulates ASpT SpMV: dense tiles plus the row-wise remainder at
/// `k = 1`, mirroring the exact `spmv_aspt` kernel's structure.
pub fn simulate_spmv_aspt<T: Scalar>(
    aspt: &AsptMatrix<T>,
    remainder_order: Option<&Permutation>,
    device: &DeviceConfig,
) -> SimReport {
    simulate_spmm_aspt(aspt, remainder_order, 1, device)
}

/// Effective dense-row width (in elements) used to model B-row reads
/// through the L2 in the SpGEMM traces: the average B row's payload
/// (values + column indices), rounded up to whole elements. `x_rows`
/// entries in the SpGEMM traces are *B row indices*, so this width
/// makes each L2 lookup cost the average row's bytes.
fn spgemm_row_width_elems<T: Scalar>(b: &CsrMatrix<T>) -> usize {
    let e = T::BYTES as u64;
    if b.nrows() == 0 || b.nnz() == 0 {
        return 1;
    }
    let avg_row_bytes = (b.nnz() as u64 * (IDX_BYTES + e)).div_ceil(b.nrows() as u64);
    (avg_row_bytes.div_ceil(e) as usize).max(1)
}

/// Shared per-row SpGEMM accounting: B-row reads through L2, A-row
/// metadata streams, the symbolic output size (distinct columns) and
/// the multiply-add flops. Returns the number of distinct output
/// columns the row produced (its `touched` count).
fn spgemm_row_trace<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    r: usize,
    block: &mut BlockTrace,
    present: &mut [bool],
    touched: &mut Vec<u32>,
) -> u64 {
    let e = T::BYTES as u64;
    let cols = a.row_cols(r);
    // each A nonzero walks one B row: read it through the L2
    block.x_rows.extend_from_slice(cols);
    // A-row payload + rowptr, and one B rowptr lookup per A nonzero
    block.stream_read_bytes += cols.len() as u64 * (IDX_BYTES + e + ROWPTR_BYTES) + ROWPTR_BYTES;
    for &c in cols {
        let b_cols = b.row_cols(c as usize);
        block.flops += 2 * b_cols.len() as u64;
        for &bc in b_cols {
            if !present[bc as usize] {
                present[bc as usize] = true;
                touched.push(bc);
            }
        }
    }
    let nnz_c = touched.len() as u64;
    // the emitted C row: column indices + values
    block.stream_write_bytes += nnz_c * (IDX_BYTES + e);
    for &bc in touched.iter() {
        present[bc as usize] = false;
    }
    touched.clear();
    nnz_c
}

/// Builds naive per-row Gustavson SpGEMM blocks: every row zeroes its
/// own full-width dense accumulator (`B.ncols` elements) before
/// accumulating — the reset traffic the clustered variant exists to
/// eliminate.
pub fn spgemm_naive_blocks<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows_per_block: usize,
) -> Vec<BlockTrace> {
    assert!(rows_per_block >= 1);
    let e = T::BYTES as u64;
    let mut present = vec![false; b.ncols()];
    let mut touched: Vec<u32> = Vec::new();
    let mut blocks = Vec::with_capacity(a.nrows().div_ceil(rows_per_block));
    let mut pos = 0;
    while pos < a.nrows() {
        let end = (pos + rows_per_block).min(a.nrows());
        let mut blk = BlockTrace::default();
        for r in pos..end {
            if a.row_cols(r).is_empty() {
                continue;
            }
            // fresh accumulator per row: a full-width zero fill
            blk.stream_write_bytes += b.ncols() as u64 * e;
            spgemm_row_trace(a, b, r, &mut blk, &mut present, &mut touched);
        }
        blocks.push(blk);
        pos = end;
    }
    blocks
}

/// Builds panel-clustered Gustavson SpGEMM blocks: one block per
/// `panel_height`-row panel sharing a single dense accumulator, zeroed
/// once per panel and thereafter reset via the row's touched-columns
/// list — reset traffic shrinks from `B.ncols` to the row's actual
/// output size.
pub fn spgemm_clustered_blocks<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    panel_height: usize,
) -> Vec<BlockTrace> {
    let h = panel_height.max(1);
    let e = T::BYTES as u64;
    let mut present = vec![false; b.ncols()];
    let mut touched: Vec<u32> = Vec::new();
    let mut blocks = Vec::with_capacity(a.nrows().div_ceil(h));
    let mut pos = 0;
    while pos < a.nrows() {
        let end = (pos + h).min(a.nrows());
        let mut blk = BlockTrace::default();
        let mut panel_has_work = false;
        for r in pos..end {
            if a.row_cols(r).is_empty() {
                continue;
            }
            if !panel_has_work {
                // the panel's shared accumulator, zeroed exactly once
                blk.stream_write_bytes += b.ncols() as u64 * e;
                panel_has_work = true;
            }
            let nnz_c = spgemm_row_trace(a, b, r, &mut blk, &mut present, &mut touched);
            // touched-list reset: re-zero only what this row dirtied
            blk.stream_write_bytes += nnz_c * e;
        }
        blocks.push(blk);
        pos = end;
    }
    blocks
}

/// Simulates naive per-row Gustavson SpGEMM (the baseline the paper's
/// clustering is compared against).
pub fn simulate_spgemm_naive<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    device: &DeviceConfig,
) -> SimReport {
    let blocks = spgemm_naive_blocks(a, b, DEFAULT_ROWS_PER_BLOCK);
    run_blocks(&blocks, spgemm_row_width_elems(b), T::BYTES, device)
}

/// Simulates panel-clustered Gustavson SpGEMM: rows grouped by the
/// reordering into `panel_height`-row panels share one accumulator.
pub fn simulate_spgemm_clustered<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    panel_height: usize,
    device: &DeviceConfig,
) -> SimReport {
    let blocks = spgemm_clustered_blocks(a, b, panel_height);
    run_blocks(&blocks, spgemm_row_width_elems(b), T::BYTES, device)
}

/// Simulates the row-wise SDDMM kernel.
pub fn simulate_sddmm_rowwise<T: Scalar>(
    m: &CsrMatrix<T>,
    k: usize,
    device: &DeviceConfig,
) -> SimReport {
    let blocks = sddmm_rowwise_blocks(m, k, None, DEFAULT_ROWS_PER_BLOCK);
    run_blocks(&blocks, k, T::BYTES, device)
}

/// Simulates ASpT SDDMM (dense tiles + remainder).
pub fn simulate_sddmm_aspt<T: Scalar>(
    aspt: &AsptMatrix<T>,
    remainder_order: Option<&Permutation>,
    k: usize,
    device: &DeviceConfig,
) -> SimReport {
    let dense = run_blocks(&sddmm_aspt_dense_blocks(aspt, k), k, T::BYTES, device);
    let rest_blocks =
        sddmm_rowwise_blocks(aspt.remainder(), k, remainder_order, DEFAULT_ROWS_PER_BLOCK);
    let rest = run_blocks(&rest_blocks, k, T::BYTES, device);
    combine(&dense, &rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_aspt::AsptConfig;
    use spmm_data::generators;

    /// A device scaled down so that test-sized matrices exercise L2
    /// capacity effects. The SM count shrinks with the L2 so the
    /// lines-per-resident-block ratio stays in the realistic regime
    /// (P100: 4 MiB / 448 blocks ≈ 73 lines per block; here
    /// 16 KiB / 8 blocks = 16).
    fn small_device() -> DeviceConfig {
        DeviceConfig {
            num_sms: 4,
            blocks_per_sm: 2,
            l2_bytes: 16 << 10,
            launch_overhead: 0.0,
            ..DeviceConfig::p100()
        }
    }

    fn aspt_cfg() -> AsptConfig {
        AsptConfig {
            panel_height: 16,
            min_col_nnz: 2,
            tile_width: 32,
        }
    }

    const K: usize = 32;

    #[test]
    fn rowwise_flops_and_streams_match_matrix() {
        let m = generators::uniform_random::<f32>(64, 64, 4, 1);
        let blocks = spmm_rowwise_blocks(&m, K, None, 4);
        assert_eq!(blocks.len(), 16);
        let flops: u64 = blocks.iter().map(|b| b.flops).sum();
        assert_eq!(flops, 2 * m.nnz() as u64 * K as u64);
        let x_reads: usize = blocks.iter().map(|b| b.x_rows.len()).sum();
        assert_eq!(x_reads, m.nnz());
        let y_bytes: u64 = blocks.iter().map(|b| b.stream_write_bytes).sum();
        assert_eq!(y_bytes, 64 * K as u64 * 4);
    }

    #[test]
    fn aspt_dense_blocks_stage_each_column_once() {
        let m = generators::block_diagonal::<f32>(4, 16, 24, 12, 2);
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        assert!(aspt.nnz_dense() > 0);
        let blocks = spmm_aspt_dense_blocks(&aspt, K);
        let staged: usize = blocks.iter().map(|b| b.x_rows.len()).sum();
        let total_cols: usize = aspt
            .panels()
            .iter()
            .flat_map(|p| &p.tiles)
            .map(|t| t.cols.len())
            .sum();
        assert_eq!(staged, total_cols);
        // far fewer global X reads than nonzeros — that's the point
        assert!(staged < aspt.nnz_dense());
        let flops: u64 = blocks.iter().map(|b| b.flops).sum();
        assert_eq!(flops, 2 * aspt.nnz_dense() as u64 * K as u64);
    }

    #[test]
    fn clustered_matrix_rowwise_hits_l2_more_than_scattered() {
        let clustered = generators::block_diagonal::<f32>(32, 16, 24, 12, 3);
        let scattered = generators::uniform_random::<f32>(512, 768, 12, 3);
        let d = small_device();
        let rc = simulate_spmm_rowwise(&clustered, K, &d);
        let rs = simulate_spmm_rowwise(&scattered, K, &d);
        assert!(
            rc.traffic.l2_hit_rate() > rs.traffic.l2_hit_rate(),
            "clustered {} vs scattered {}",
            rc.traffic.l2_hit_rate(),
            rs.traffic.l2_hit_rate()
        );
    }

    #[test]
    fn aspt_beats_rowwise_on_clustered_matrix() {
        // the ASpT value proposition: dense tiles cut DRAM traffic.
        // Pools of 96 columns make the wave's working set (2 panels ×
        // 96 lines) exceed the 128-line L2, so row-wise thrashes while
        // staging reads each column exactly once per tile.
        let m = generators::block_diagonal::<f32>(32, 16, 96, 24, 5);
        let d = small_device();
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        assert!(aspt.dense_ratio() > 0.5);
        let rw = simulate_spmm_rowwise(&m, K, &d);
        let at = simulate_spmm_aspt(&aspt, None, K, &d);
        assert!(
            at.traffic.dram_bytes < rw.traffic.dram_bytes,
            "aspt {} !< rowwise {}",
            at.traffic.dram_bytes,
            rw.traffic.dram_bytes
        );
    }

    #[test]
    fn reordering_cuts_dram_traffic_on_shuffled_clusters() {
        // the paper's central mechanism, end to end at trace level:
        // ASpT on the shuffled matrix vs ASpT on the row-reordered one.
        let shuffled = generators::shuffled_block_diagonal::<f32>(32, 16, 24, 12, 7);
        let d = small_device();
        let nr = simulate_spmm_aspt(&AsptMatrix::build(&shuffled, &aspt_cfg()), None, K, &d);

        // reorder rows back into cluster order using the generator's
        // known structure stand-in: sort rows by their first column
        // (reconstructs block grouping for block-diagonal structure)
        let mut order: Vec<u32> = (0..shuffled.nrows() as u32).collect();
        order.sort_by_key(|&r| {
            shuffled
                .row_cols(r as usize)
                .first()
                .copied()
                .unwrap_or(u32::MAX)
        });
        let perm = Permutation::from_order(order).unwrap();
        let reordered = shuffled.permute_rows(&perm);
        let rr = simulate_spmm_aspt(&AsptMatrix::build(&reordered, &aspt_cfg()), None, K, &d);

        assert!(
            rr.traffic.dram_bytes < nr.traffic.dram_bytes,
            "row reordering must cut DRAM traffic: {} !< {}",
            rr.traffic.dram_bytes,
            nr.traffic.dram_bytes
        );
        assert!(rr.time_s < nr.time_s);
    }

    #[test]
    fn remainder_order_changes_locality() {
        // remainder processing order: grouping similar rows in the same
        // block improves the L2 hit rate vs a deliberately bad order.
        let m = generators::shuffled_block_diagonal::<f32>(32, 16, 24, 12, 9);
        let d = small_device();
        let mut good: Vec<u32> = (0..m.nrows() as u32).collect();
        good.sort_by_key(|&r| m.row_cols(r as usize).first().copied().unwrap_or(u32::MAX));
        let good = Permutation::from_order(good).unwrap();
        let blocks_good = spmm_rowwise_blocks(&m, K, Some(&good), 4);
        let blocks_nat = spmm_rowwise_blocks(&m, K, None, 4);
        let rg = run_blocks(&blocks_good, K, 4, &d);
        let rn = run_blocks(&blocks_nat, K, 4, &d);
        assert!(
            rg.traffic.l2_hit_rate() > rn.traffic.l2_hit_rate(),
            "grouped order {} !> natural {}",
            rg.traffic.l2_hit_rate(),
            rn.traffic.l2_hit_rate()
        );
    }

    #[test]
    fn sddmm_remainder_order_improves_locality_too() {
        // round-2 ordering helps SDDMM's remainder exactly like SpMM's
        let m = generators::shuffled_block_diagonal::<f32>(32, 16, 24, 12, 23);
        let d = small_device();
        let mut good: Vec<u32> = (0..m.nrows() as u32).collect();
        good.sort_by_key(|&r| m.row_cols(r as usize).first().copied().unwrap_or(u32::MAX));
        let good = Permutation::from_order(good).unwrap();
        let rg = run_blocks(&sddmm_rowwise_blocks(&m, K, Some(&good), 4), K, 4, &d);
        let rn = run_blocks(&sddmm_rowwise_blocks(&m, K, None, 4), K, 4, &d);
        assert!(
            rg.traffic.l2_hit_rate() > rn.traffic.l2_hit_rate(),
            "grouped {} !> natural {}",
            rg.traffic.l2_hit_rate(),
            rn.traffic.l2_hit_rate()
        );
        // processing order never changes the work done
        assert_eq!(rg.flops, rn.flops);
        assert_eq!(rg.traffic.x_row_reads, rn.traffic.x_row_reads);
    }

    #[test]
    fn empty_panels_produce_no_dense_blocks() {
        let m = generators::diagonal::<f32>(128, 1);
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        assert!(spmm_aspt_dense_blocks(&aspt, K).is_empty());
        assert!(sddmm_aspt_dense_blocks(&aspt, K).is_empty());
    }

    #[test]
    fn sddmm_counts_outputs_per_nonzero() {
        let m = generators::uniform_random::<f32>(64, 64, 4, 11);
        let blocks = sddmm_rowwise_blocks(&m, K, None, 4);
        let writes: u64 = blocks.iter().map(|b| b.stream_write_bytes).sum();
        assert_eq!(writes, m.nnz() as u64 * 4);
        let flops: u64 = blocks.iter().map(|b| b.flops).sum();
        assert_eq!(flops, m.nnz() as u64 * (2 * K as u64 + 1));
    }

    #[test]
    fn sddmm_aspt_mirrors_spmm_structure() {
        let m = generators::block_diagonal::<f32>(32, 16, 96, 24, 13);
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        let d = small_device();
        let rw = simulate_sddmm_rowwise(&m, K, &d);
        let at = simulate_sddmm_aspt(&aspt, None, K, &d);
        assert!(at.traffic.dram_bytes < rw.traffic.dram_bytes);
        // identical total output bytes
        assert_eq!(at.flops, rw.flops, "both must do the same arithmetic");
    }

    #[test]
    fn decomposition_conserves_work() {
        // rowwise vs aspt on the same matrix: same flops, same number
        // of output bytes is NOT expected (aspt writes partial sums),
        // but flops must match exactly.
        let m = generators::noisy_shuffled_clusters::<f32>(8, 16, 24, 10, 3, 17);
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        let d = small_device();
        let rw = simulate_spmm_rowwise(&m, K, &d);
        let at = simulate_spmm_aspt(&aspt, None, K, &d);
        assert_eq!(rw.flops, at.flops);
    }

    #[test]
    fn k_scaling_increases_traffic() {
        let m = generators::uniform_random::<f32>(256, 256, 8, 19);
        let d = small_device();
        let r32 = simulate_spmm_rowwise(&m, 32, &d);
        let r128 = simulate_spmm_rowwise(&m, 128, &d);
        assert!(r128.traffic.dram_bytes > r32.traffic.dram_bytes);
        assert!(r128.flops == 4 * r32.flops);
    }

    #[test]
    fn element_size_scales_traffic_and_compute_roof() {
        // f64 rows are twice as many bytes; on a streaming (no-reuse)
        // matrix the X miss traffic doubles exactly
        let m32 = generators::uniform_random::<f32>(512, 4096, 8, 31);
        let m64: spmm_sparse::CsrMatrix<f64> = m32.cast();
        let d = DeviceConfig {
            launch_overhead: 0.0,
            ..DeviceConfig::p100()
        };
        let r32 = simulate_spmm_rowwise(&m32, K, &d);
        let r64 = simulate_spmm_rowwise(&m64, K, &d);
        assert_eq!(
            r64.traffic.l2_misses + r64.traffic.l2_hits,
            2 * (r32.traffic.l2_misses + r32.traffic.l2_hits),
            "f64 rows span twice the lines"
        );
        assert_eq!(r32.flops, r64.flops);
        // the f64 compute roof is lower (P100 FP64 < FP32)
        assert!(r64.t_compute > r32.t_compute);
    }

    #[test]
    fn kblock_pass_widths_cover_k_exactly() {
        assert_eq!(kblock_pass_widths(128, 32), vec![32, 32, 32, 32]);
        assert_eq!(kblock_pass_widths(70, 32), vec![32, 32, 6]);
        assert_eq!(kblock_pass_widths(8, 32), vec![8]);
        assert_eq!(kblock_pass_widths(5, 0), vec![1, 1, 1, 1, 1]);
        assert!(kblock_pass_widths(0, 32).is_empty());
    }

    #[test]
    fn kblocked_simulation_conserves_work() {
        let m = generators::block_diagonal::<f32>(32, 16, 24, 12, 3);
        let d = small_device();
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        let full = simulate_spmm_aspt(&aspt, None, 128, &d);
        let blocked = simulate_spmm_aspt_kblocked(&aspt, None, 128, 32, &d);
        assert_eq!(full.flops, blocked.flops, "blocking never changes work");
        // four passes issue four times the X-row read requests
        assert_eq!(blocked.traffic.x_row_reads, 4 * full.traffic.x_row_reads);
        // a block width >= k degenerates to the single-pass kernel
        assert_eq!(simulate_spmm_aspt_kblocked(&aspt, None, 128, 256, &d), full);
    }

    #[test]
    fn micro_simulation_matches_generic_within_register_budget() {
        // every specialized width fits the register file for f32 and
        // f64, so the micro simulation is exactly the generic k-blocked
        // trace there
        let m = generators::block_diagonal::<f32>(32, 16, 24, 12, 3);
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        let d = small_device();
        for kb in [8usize, 16, 32] {
            assert!(micro_register_bytes(kb, 8) <= MICRO_REGFILE_BYTES_PER_THREAD);
            assert_eq!(
                simulate_spmm_aspt_kblocked_micro(&aspt, None, 96, kb, &d),
                simulate_spmm_aspt_kblocked(&aspt, None, 96, kb, &d),
                "in-budget width {kb} must match the generic trace"
            );
        }
    }

    #[test]
    fn micro_simulation_charges_spill_traffic_over_budget() {
        // a hypothetical 256-wide f64 block (4096 accumulator bytes)
        // blows the 1020-byte register file: the model must charge the
        // per-nonzero Y round trip and run slower than the in-register
        // trace, while arithmetic stays identical
        let m = generators::block_diagonal::<f64>(32, 16, 24, 12, 3);
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        let d = small_device();
        let wide = 256usize;
        assert!(micro_register_bytes(wide, 8) > MICRO_REGFILE_BYTES_PER_THREAD);
        let spilled = simulate_spmm_aspt_kblocked_micro(&aspt, None, wide, wide, &d);
        let resident = simulate_spmm_aspt_kblocked(&aspt, None, wide, wide, &d);
        assert_eq!(spilled.flops, resident.flops);
        assert!(
            spilled.traffic.dram_bytes > resident.traffic.dram_bytes,
            "spill {} !> resident {}",
            spilled.traffic.dram_bytes,
            resident.traffic.dram_bytes
        );
        assert!(spilled.time_s > resident.time_s);
    }

    #[test]
    fn spmv_is_the_k1_spmm_trace() {
        let m = generators::shuffled_block_diagonal::<f32>(32, 16, 24, 12, 7);
        let d = small_device();
        assert_eq!(
            simulate_spmv_rowwise(&m, &d),
            simulate_spmm_rowwise(&m, 1, &d)
        );
        let aspt = AsptMatrix::build(&m, &aspt_cfg());
        assert_eq!(
            simulate_spmv_aspt(&aspt, None, &d),
            simulate_spmm_aspt(&aspt, None, 1, &d)
        );
    }

    #[test]
    fn spgemm_traces_conserve_work_and_output() {
        let a = generators::uniform_random::<f32>(128, 128, 6, 3);
        let b = generators::uniform_random::<f32>(128, 96, 4, 5);
        let naive = spgemm_naive_blocks(&a, &b, 4);
        let clustered = spgemm_clustered_blocks(&a, &b, 16);
        // identical arithmetic and identical B-row read requests
        let f = |bs: &[BlockTrace]| bs.iter().map(|x| x.flops).sum::<u64>();
        let r = |bs: &[BlockTrace]| bs.iter().map(|x| x.x_rows.len()).sum::<usize>();
        assert_eq!(f(&naive), f(&clustered));
        assert_eq!(r(&naive), r(&clustered));
        assert_eq!(r(&naive), a.nnz());
        // the flops are 2 per (A nonzero, B-row nonzero) pair
        let expected: u64 = (0..a.nrows())
            .flat_map(|row| a.row_cols(row))
            .map(|&c| 2 * b.row_cols(c as usize).len() as u64)
            .sum();
        assert_eq!(f(&naive), expected);
        // naive carries strictly more accumulator-reset write traffic
        let w = |bs: &[BlockTrace]| bs.iter().map(|x| x.stream_write_bytes).sum::<u64>();
        assert!(w(&naive) > w(&clustered));
    }

    #[test]
    fn clustered_spgemm_beats_naive_on_power_law() {
        // the acceptance bar: panel-wise accumulator reuse is worth
        // >= 1.2x over per-row resets on the power-law corpus class,
        // where rows average ~16 nonzeros but the accumulator spans
        // every B column
        let a = generators::power_law::<f32>(4096, 4096, 65536, 0.8, 7);
        let b = generators::power_law::<f32>(4096, 4096, 65536, 0.8, 11);
        let d = small_device();
        let naive = simulate_spgemm_naive(&a, &b, &d);
        let clustered = simulate_spgemm_clustered(&a, &b, 16, &d);
        assert_eq!(naive.flops, clustered.flops, "same arithmetic either way");
        let speedup = naive.time_s / clustered.time_s;
        assert!(
            speedup >= 1.2,
            "clustered accumulator reuse must win >= 1.2x, got {speedup:.3}x"
        );
    }

    #[test]
    fn empty_spgemm_operands_produce_empty_traces() {
        let a = CsrMatrix::<f32>::from_parts(4, 4, vec![0; 5], vec![], vec![]).unwrap();
        let b = CsrMatrix::<f32>::from_parts(4, 4, vec![0; 5], vec![], vec![]).unwrap();
        let d = small_device();
        let naive = simulate_spgemm_naive(&a, &b, &d);
        assert_eq!(naive.flops, 0);
        assert_eq!(naive.traffic.dram_bytes, 0);
        let clustered = simulate_spgemm_clustered(&a, &b, 16, &d);
        assert_eq!(clustered.traffic.dram_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "order must cover all rows")]
    fn order_length_is_checked() {
        let m = generators::uniform_random::<f32>(16, 16, 2, 1);
        let p = Permutation::identity(8);
        let _ = spmm_rowwise_blocks(&m, K, Some(&p), 4);
    }
}
