//! The adaptive-sparse-tiling decomposition itself.

use crate::config::AsptConfig;
use spmm_sparse::{par, CsrMatrix, Scalar};
use spmm_telemetry::TelemetryHandle;
use std::collections::HashMap;

/// One dense tile: a set of staged columns and the panel's nonzeros
/// falling in them, stored CSR-style with row indices relative to the
/// panel.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTile<T> {
    /// Columns staged by this tile (original column ids), ordered by
    /// descending in-panel count (ties by ascending column id) — the
    /// paper's "sort the columns in each row panel according to the
    /// number of nonzeros".
    pub cols: Vec<u32>,
    /// Per-panel-row extents into `colidx`/`values`
    /// (`rowptr.len() == panel_rows + 1`).
    pub rowptr: Vec<usize>,
    /// Original column id of each entry.
    pub colidx: Vec<u32>,
    /// Value of each entry.
    pub values: Vec<T>,
    /// Index of each entry in the source CSR's nonzero arrays — lets
    /// SDDMM write outputs back in source order.
    pub src_idx: Vec<u32>,
}

impl<T> DenseTile<T> {
    /// Number of nonzeros in the tile.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }
}

/// A panel of consecutive rows with its dense tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel<T> {
    /// First row of the panel (inclusive).
    pub row_start: usize,
    /// One past the last row.
    pub row_end: usize,
    /// Dense tiles extracted from the panel (possibly none).
    pub tiles: Vec<DenseTile<T>>,
}

impl<T> Panel<T> {
    /// Rows covered by the panel.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.row_start..self.row_end
    }
}

/// A sparse matrix decomposed by adaptive sparse tiling: dense tiles
/// per panel plus a CSR sparse remainder over the full row range.
///
/// ```
/// use spmm_aspt::{AsptConfig, AsptMatrix};
/// use spmm_sparse::CsrMatrix;
///
/// // three identical rows: with ≥2 nonzeros per column in the panel,
/// // every nonzero lands in a dense tile
/// let m = CsrMatrix::from_parts(
///     3, 4,
///     vec![0, 2, 4, 6],
///     vec![1, 3, 1, 3, 1, 3],
///     vec![1.0f32; 6],
/// )?;
/// let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
/// assert_eq!(aspt.dense_ratio(), 1.0);
/// assert_eq!(aspt.remainder().nnz(), 0);
/// assert_eq!(aspt.to_csr(), m); // lossless
/// # Ok::<(), spmm_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AsptMatrix<T> {
    nrows: usize,
    ncols: usize,
    config: AsptConfig,
    panels: Vec<Panel<T>>,
    remainder: CsrMatrix<T>,
    remainder_src: Vec<u32>,
    nnz_dense: usize,
    nnz_total: usize,
}

impl<T: Scalar> AsptMatrix<T> {
    /// Decomposes `m` (panels are processed in parallel).
    pub fn build(m: &CsrMatrix<T>, config: &AsptConfig) -> Self {
        Self::build_with(m, config, &TelemetryHandle::noop())
    }

    /// [`AsptMatrix::build`] with telemetry: records tiling counters
    /// (`aspt.nnz_dense`, `aspt.nnz_sparse`, `aspt.panels`,
    /// `aspt.tiles`) and the `aspt.dense_ratio` gauge into whatever
    /// span the caller currently has open — the decomposition is one
    /// stage of the pipeline, so it does not open a span of its own.
    pub fn build_with(m: &CsrMatrix<T>, config: &AsptConfig, telemetry: &TelemetryHandle) -> Self {
        let aspt = Self::build_inner(m, config);
        if telemetry.is_enabled() {
            telemetry.counter("aspt.nnz_dense", aspt.nnz_dense as u64);
            telemetry.counter("aspt.nnz_sparse", (aspt.nnz_total - aspt.nnz_dense) as u64);
            telemetry.counter("aspt.panels", aspt.panels.len() as u64);
            let tiles: usize = aspt.panels.iter().map(|p| p.tiles.len()).sum();
            telemetry.counter("aspt.tiles", tiles as u64);
            telemetry.gauge("aspt.dense_ratio", aspt.dense_ratio());
        }
        aspt
    }

    fn build_inner(m: &CsrMatrix<T>, config: &AsptConfig) -> Self {
        config.validate();
        let nrows = m.nrows();
        let npanels = nrows.div_ceil(config.panel_height);

        let outs: Vec<PanelOut<T>> = par::map(npanels, |p| {
            let row_start = p * config.panel_height;
            let row_end = (row_start + config.panel_height).min(nrows);
            tile_panel(m, config, row_start, row_end)
        });

        // assemble the sparse remainder (rows in original order)
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::new();
        let mut values = Vec::new();
        let mut remainder_src = Vec::new();
        let mut panels = Vec::with_capacity(npanels);
        let mut nnz_dense = 0usize;
        for out in outs {
            nnz_dense += out.panel.tiles.iter().map(DenseTile::nnz).sum::<usize>();
            panels.push(out.panel);
            for row in out.rest {
                for (c, v, s) in row {
                    colidx.push(c);
                    values.push(v);
                    remainder_src.push(s);
                }
                rowptr.push(colidx.len());
            }
        }
        let remainder = CsrMatrix::from_parts(nrows, m.ncols(), rowptr, colidx, values)
            .expect("remainder rows inherit sortedness from the source CSR");

        Self {
            nrows,
            ncols: m.ncols(),
            config: *config,
            panels,
            remainder,
            remainder_src,
            nnz_dense,
            nnz_total: m.nnz(),
        }
    }

    /// Reassembles a decomposition from previously extracted parts —
    /// the inverse of taking [`AsptMatrix::panels`],
    /// [`AsptMatrix::remainder`] and [`AsptMatrix::remainder_src`]
    /// apart, used by the plan-store codec to rehydrate a tiling
    /// without re-running [`AsptMatrix::build`].
    ///
    /// Every structural invariant `build` establishes is re-validated
    /// here: panel coverage and ordering under `config.panel_height`,
    /// per-tile CSR extents, column bounds, and that the source-index
    /// maps (`src_idx` per tile plus `remainder_src`) form an exact
    /// partition of `0..nnz`. A violated invariant yields
    /// `SparseError::InvalidStructure`, never a mis-built matrix.
    pub fn from_parts(
        config: AsptConfig,
        panels: Vec<Panel<T>>,
        remainder: CsrMatrix<T>,
        remainder_src: Vec<u32>,
    ) -> Result<Self, spmm_sparse::SparseError> {
        use spmm_sparse::SparseError;
        let bad = |msg: String| Err(SparseError::InvalidStructure(msg));
        // a decoded config comes from untrusted bytes: reject rather
        // than panic (`AsptConfig::validate` asserts)
        if config.panel_height < 1 || config.min_col_nnz < 2 || config.tile_width < 1 {
            return bad(format!("invalid tiling configuration {config:?}"));
        }
        let nrows = remainder.nrows();
        let ncols = remainder.ncols();
        let npanels = nrows.div_ceil(config.panel_height);
        if panels.len() != npanels {
            return bad(format!(
                "expected {npanels} panels for {nrows} rows, got {}",
                panels.len()
            ));
        }
        if remainder_src.len() != remainder.nnz() {
            return bad(format!(
                "remainder_src has {} entries for {} remainder nonzeros",
                remainder_src.len(),
                remainder.nnz()
            ));
        }
        let mut nnz_dense = 0usize;
        for (p, panel) in panels.iter().enumerate() {
            let row_start = p * config.panel_height;
            let row_end = (row_start + config.panel_height).min(nrows);
            if panel.row_start != row_start || panel.row_end != row_end {
                return bad(format!(
                    "panel {p} covers rows {}..{}, expected {row_start}..{row_end}",
                    panel.row_start, panel.row_end
                ));
            }
            let panel_rows = row_end - row_start;
            for (t, tile) in panel.tiles.iter().enumerate() {
                if tile.rowptr.len() != panel_rows + 1 || tile.rowptr[0] != 0 {
                    return bad(format!("panel {p} tile {t}: malformed rowptr"));
                }
                if tile.rowptr.windows(2).any(|w| w[0] > w[1]) {
                    return bad(format!("panel {p} tile {t}: rowptr not monotonic"));
                }
                let nnz = *tile.rowptr.last().unwrap_or(&0);
                if tile.colidx.len() != nnz || tile.values.len() != nnz || tile.src_idx.len() != nnz
                {
                    return bad(format!("panel {p} tile {t}: array lengths disagree"));
                }
                if tile.cols.is_empty() && nnz > 0 {
                    return bad(format!(
                        "panel {p} tile {t}: nonzeros but no staged columns"
                    ));
                }
                for &c in &tile.colidx {
                    if c as usize >= ncols {
                        return bad(format!("panel {p} tile {t}: column {c} out of range"));
                    }
                    if !tile.cols.contains(&c) {
                        return bad(format!("panel {p} tile {t}: column {c} not staged"));
                    }
                }
                nnz_dense += nnz;
            }
        }
        let nnz_total = nnz_dense + remainder.nnz();
        // src indices must partition 0..nnz_total exactly
        let mut seen = vec![false; nnz_total];
        let mut claim = |s: u32| -> Result<(), SparseError> {
            let s = s as usize;
            if s >= nnz_total {
                return Err(SparseError::InvalidStructure(format!(
                    "source index {s} out of range for {nnz_total} nonzeros"
                )));
            }
            if seen[s] {
                return Err(SparseError::InvalidStructure(format!(
                    "source index {s} claimed twice"
                )));
            }
            seen[s] = true;
            Ok(())
        };
        for panel in &panels {
            for tile in &panel.tiles {
                for &s in &tile.src_idx {
                    claim(s)?;
                }
            }
        }
        for &s in &remainder_src {
            claim(s)?;
        }
        Ok(Self {
            nrows,
            ncols,
            config,
            panels,
            remainder,
            remainder_src,
            nnz_dense,
            nnz_total,
        })
    }

    /// Number of rows of the decomposed matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The configuration used to build the decomposition.
    pub fn config(&self) -> &AsptConfig {
        &self.config
    }

    /// The row panels with their dense tiles.
    pub fn panels(&self) -> &[Panel<T>] {
        &self.panels
    }

    /// The sparse remainder (same row space as the source matrix).
    pub fn remainder(&self) -> &CsrMatrix<T> {
        &self.remainder
    }

    /// Source-CSR nonzero index for each remainder entry.
    pub fn remainder_src(&self) -> &[u32] {
        &self.remainder_src
    }

    /// Total nonzeros in dense tiles.
    pub fn nnz_dense(&self) -> usize {
        self.nnz_dense
    }

    /// Total nonzeros of the source matrix.
    pub fn nnz(&self) -> usize {
        self.nnz_total
    }

    /// Fraction of nonzeros captured by dense tiles — the paper's
    /// `DenseRatio`. 0 for an empty matrix.
    pub fn dense_ratio(&self) -> f64 {
        if self.nnz_total == 0 {
            0.0
        } else {
            self.nnz_dense as f64 / self.nnz_total as f64
        }
    }

    /// Refreshes all stored values from a new source-value array
    /// (structure unchanged). Iterative applications — gradient descent,
    /// repeated graph updates — change values every step while the
    /// sparsity stays fixed; this keeps the decomposition valid without
    /// re-tiling.
    ///
    /// # Panics
    /// Panics if `new_values.len() != self.nnz()`.
    pub fn update_values(&mut self, new_values: &[T]) {
        assert_eq!(
            new_values.len(),
            self.nnz_total,
            "value array must match the decomposed matrix's nnz"
        );
        for panel in &mut self.panels {
            for tile in &mut panel.tiles {
                for (v, &src) in tile.values.iter_mut().zip(&tile.src_idx) {
                    *v = new_values[src as usize];
                }
            }
        }
        let vals = self.remainder.values_mut();
        for (e, &src) in self.remainder_src.iter().enumerate() {
            vals[e] = new_values[src as usize];
        }
    }

    /// Reconstructs the source CSR matrix (tiles merged back with the
    /// remainder); used to verify the decomposition is lossless.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::new();
        let mut values = Vec::new();
        let mut row_buf: Vec<(u32, T)> = Vec::new();
        for panel in &self.panels {
            for r in panel.rows() {
                row_buf.clear();
                let rel = r - panel.row_start;
                for tile in &panel.tiles {
                    let (s, e) = (tile.rowptr[rel], tile.rowptr[rel + 1]);
                    row_buf.extend(
                        tile.colidx[s..e]
                            .iter()
                            .copied()
                            .zip(tile.values[s..e].iter().copied()),
                    );
                }
                let (rc, rv) = self.remainder.row(r);
                row_buf.extend(rc.iter().copied().zip(rv.iter().copied()));
                row_buf.sort_unstable_by_key(|&(c, _)| c);
                for &(c, v) in &row_buf {
                    colidx.push(c);
                    values.push(v);
                }
                rowptr.push(colidx.len());
            }
        }
        CsrMatrix::from_parts(self.nrows, self.ncols, rowptr, colidx, values)
            .expect("reconstruction preserves CSR invariants")
    }

    /// Splices an updated decomposition for `reordered`, a matrix whose
    /// structure differs from this decomposition's source only inside
    /// `touched_panels`: those panels are re-tiled from scratch, every
    /// other panel keeps its tile layout verbatim with source indices
    /// shifted to the new nonzero extents and values re-read from
    /// `reordered`. This is the incremental-delta fast path — the cost
    /// is `O(nnz)` remapping plus re-tiling only the touched panels.
    ///
    /// The untouched-panel contract is *checked*, not trusted: if any
    /// row outside `touched_panels` changed its nonzero count or column
    /// set, the splice fails with `SparseError::InvalidStructure`
    /// rather than producing a corrupt tiling.
    pub fn splice(
        &self,
        reordered: &CsrMatrix<T>,
        touched_panels: &[usize],
    ) -> Result<Self, spmm_sparse::SparseError> {
        use spmm_sparse::SparseError;
        let bad = |msg: String| Err(SparseError::InvalidStructure(format!("splice: {msg}")));
        if reordered.nrows() != self.nrows || reordered.ncols() != self.ncols {
            return bad(format!(
                "shape {}x{} does not match decomposition {}x{}",
                reordered.nrows(),
                reordered.ncols(),
                self.nrows,
                self.ncols
            ));
        }
        let npanels = self.panels.len();
        let mut touched = vec![false; npanels];
        for &p in touched_panels {
            if p >= npanels {
                return bad(format!("touched panel {p} out of range ({npanels} panels)"));
            }
            touched[p] = true;
        }

        // reconstruct the old per-row nonzero extents so surviving
        // panels' src indices can be shifted into the new ones
        let mut old_rowptr = vec![0usize; self.nrows + 1];
        for panel in &self.panels {
            for r in panel.rows() {
                let rel = r - panel.row_start;
                let tile_nnz: usize = panel
                    .tiles
                    .iter()
                    .map(|t| t.rowptr[rel + 1] - t.rowptr[rel])
                    .sum();
                old_rowptr[r + 1] = tile_nnz + self.remainder.row_nnz(r);
            }
        }
        for r in 0..self.nrows {
            old_rowptr[r + 1] += old_rowptr[r];
        }

        let outs: Vec<PanelOut<T>> = par::map(npanels, |p| -> Result<PanelOut<T>, SparseError> {
            let row_start = p * self.config.panel_height;
            let row_end = (row_start + self.config.panel_height).min(self.nrows);
            if touched[p] {
                return Ok(tile_panel(reordered, &self.config, row_start, row_end));
            }
            // surviving panel: same layout, remapped src + values
            let changed = |r: usize| {
                SparseError::InvalidStructure(format!(
                    "splice: row {r} changed structure but panel {p} was not marked touched"
                ))
            };
            for r in row_start..row_end {
                if reordered.row_nnz(r) != old_rowptr[r + 1] - old_rowptr[r] {
                    return Err(changed(r));
                }
            }
            let old_panel = &self.panels[p];
            let mut tiles = old_panel.tiles.clone();
            for tile in &mut tiles {
                for rel in 0..(row_end - row_start) {
                    let r = row_start + rel;
                    for k in tile.rowptr[rel]..tile.rowptr[rel + 1] {
                        let off = match (tile.src_idx[k] as usize).checked_sub(old_rowptr[r]) {
                            Some(off) if off < reordered.row_nnz(r) => off,
                            _ => return Err(changed(r)),
                        };
                        let new_src = reordered.rowptr()[r] + off;
                        if reordered.colidx()[new_src] != tile.colidx[k] {
                            return Err(changed(r));
                        }
                        tile.src_idx[k] = new_src as u32;
                        tile.values[k] = reordered.values()[new_src];
                    }
                }
            }
            let rem_rowptr = self.remainder.rowptr();
            let mut rest: Vec<Vec<(u32, T, u32)>> = Vec::with_capacity(row_end - row_start);
            for r in row_start..row_end {
                let mut rest_row = Vec::with_capacity(self.remainder.row_nnz(r));
                for e in rem_rowptr[r]..rem_rowptr[r + 1] {
                    let off = match (self.remainder_src[e] as usize).checked_sub(old_rowptr[r]) {
                        Some(off) if off < reordered.row_nnz(r) => off,
                        _ => return Err(changed(r)),
                    };
                    let new_src = reordered.rowptr()[r] + off;
                    let c = self.remainder.colidx()[e];
                    if reordered.colidx()[new_src] != c {
                        return Err(changed(r));
                    }
                    rest_row.push((c, reordered.values()[new_src], new_src as u32));
                }
                rest.push(rest_row);
            }
            Ok(PanelOut {
                panel: Panel {
                    row_start,
                    row_end,
                    tiles,
                },
                rest,
            })
        })
        .into_iter()
        .collect::<Result<_, _>>()?;

        // assemble exactly like `build`: remainder rows in order, then
        // full re-validation through `from_parts`
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::new();
        let mut values = Vec::new();
        let mut remainder_src = Vec::new();
        let mut panels = Vec::with_capacity(npanels);
        for out in outs {
            panels.push(out.panel);
            for row in out.rest {
                for (c, v, s) in row {
                    colidx.push(c);
                    values.push(v);
                    remainder_src.push(s);
                }
                rowptr.push(colidx.len());
            }
        }
        let remainder = CsrMatrix::from_parts(self.nrows, self.ncols, rowptr, colidx, values)?;
        Self::from_parts(self.config, panels, remainder, remainder_src)
    }
}

/// The outcome of tiling one panel: its dense tiles plus the entries
/// left for the sparse remainder, per row as `(col, value, src)`.
struct PanelOut<T> {
    panel: Panel<T>,
    rest: Vec<Vec<(u32, T, u32)>>,
}

/// Tiles one panel of `m` (rows `row_start..row_end`): counts nonzeros
/// per column, stages columns with at least `min_col_nnz` into tiles of
/// `tile_width` (count-descending, column-ascending), and scatters each
/// nonzero into its tile or the remainder.
fn tile_panel<T: Scalar>(
    m: &CsrMatrix<T>,
    config: &AsptConfig,
    row_start: usize,
    row_end: usize,
) -> PanelOut<T> {
    // 1. count nonzeros per column within the panel
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for r in row_start..row_end {
        for &c in m.row_cols(r) {
            *counts.entry(c).or_insert(0) += 1;
        }
    }

    // 2. dense columns, sorted by count desc then col asc
    let mut dense: Vec<(u32, u32)> = counts
        .into_iter()
        .filter(|&(_, cnt)| cnt as usize >= config.min_col_nnz)
        .collect();
    dense.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // 3. group dense columns into tiles of tile_width
    let ntiles = dense.len().div_ceil(config.tile_width);
    let mut tiles: Vec<DenseTile<T>> = (0..ntiles)
        .map(|t| {
            let lo = t * config.tile_width;
            let hi = (lo + config.tile_width).min(dense.len());
            DenseTile {
                cols: dense[lo..hi].iter().map(|&(c, _)| c).collect(),
                rowptr: vec![0],
                colidx: Vec::new(),
                values: Vec::new(),
                src_idx: Vec::new(),
            }
        })
        .collect();
    let col_to_tile: HashMap<u32, u32> = dense
        .iter()
        .enumerate()
        .map(|(k, &(c, _))| (c, (k / config.tile_width) as u32))
        .collect();

    // 4. scatter panel nonzeros into tiles / remainder
    let mut rest: Vec<Vec<(u32, T, u32)>> = Vec::with_capacity(row_end - row_start);
    for r in row_start..row_end {
        let (cols, vals) = m.row(r);
        let base = m.rowptr()[r];
        let mut rest_row = Vec::new();
        for (off, (&c, &v)) in cols.iter().zip(vals).enumerate() {
            let src = (base + off) as u32;
            match col_to_tile.get(&c) {
                Some(&t) => {
                    let tile = &mut tiles[t as usize];
                    tile.colidx.push(c);
                    tile.values.push(v);
                    tile.src_idx.push(src);
                }
                None => rest_row.push((c, v, src)),
            }
        }
        for tile in &mut tiles {
            tile.rowptr.push(tile.colidx.len());
        }
        rest.push(rest_row);
    }

    PanelOut {
        panel: Panel {
            row_start,
            row_end,
            tiles,
        },
        rest,
    }
}

/// Computes only the dense ratio a decomposition *would* have, without
/// building tiles — the cheap probe used by the §4 first-round skip
/// heuristic.
pub fn dense_ratio_of<T: Scalar>(m: &CsrMatrix<T>, config: &AsptConfig) -> f64 {
    config.validate();
    if m.nnz() == 0 {
        return 0.0;
    }
    let npanels = m.nrows().div_ceil(config.panel_height);
    let panel_dense = |p: usize| {
        let row_start = p * config.panel_height;
        let row_end = (row_start + config.panel_height).min(m.nrows());
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for r in row_start..row_end {
            for &c in m.row_cols(r) {
                *counts.entry(c).or_insert(0) += 1;
            }
        }
        counts
            .values()
            .filter(|&&cnt| cnt as usize >= config.min_col_nnz)
            .map(|&cnt| cnt as usize)
            .sum::<usize>()
    };
    let dense = par::fold(npanels, panel_dense, 0, |sum, d| sum + d);
    dense as f64 / m.nnz() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_sparse::{CooMatrix, Permutation};

    /// The paper's Fig 1a matrix (see `spmm_sparse::csr` tests).
    fn fig1() -> CsrMatrix<f64> {
        let rows: &[&[u32]] = &[&[0, 4], &[1, 3, 5], &[2, 4], &[1, 2], &[0, 3, 4], &[5]];
        let mut coo = CooMatrix::new(6, 6).unwrap();
        for (r, cols) in rows.iter().enumerate() {
            for &c in *cols {
                coo.push(r as u32, c, (r * 10 + c as usize) as f64 + 1.0)
                    .unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn fig3_decomposition_matches_paper() {
        // Paper Fig 3: panel height 3 → two panels; the only dense
        // column is column 4 of panel 0 (2 nonzeros). 2 of 13 nonzeros
        // are in dense tiles.
        let m = fig1();
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        assert_eq!(aspt.panels().len(), 2);
        let p0 = &aspt.panels()[0];
        assert_eq!(p0.tiles.len(), 1);
        assert_eq!(p0.tiles[0].cols, vec![4]);
        assert_eq!(p0.tiles[0].nnz(), 2);
        assert!(
            aspt.panels()[1].tiles.is_empty(),
            "panel 1 has no dense column"
        );
        assert_eq!(aspt.nnz_dense(), 2);
        assert!((aspt.dense_ratio() - 2.0 / 13.0).abs() < 1e-12);
        assert_eq!(aspt.remainder().nnz(), 11);
    }

    #[test]
    fn fig4b_reordered_dense_nnz_is_nine() {
        // Paper Fig 4: exchanging rows 1 and 4 lifts the dense-tile
        // count to 9.
        let m = fig1();
        let perm = Permutation::from_order(vec![0, 4, 2, 3, 1, 5]).unwrap();
        let reordered = m.permute_rows(&perm);
        let aspt = AsptMatrix::build(&reordered, &AsptConfig::paper_figure());
        assert_eq!(aspt.nnz_dense(), 9);
        // panel 0: columns 4 (3 nonzeros) and 0 (2); densest first
        assert_eq!(aspt.panels()[0].tiles[0].cols, vec![4, 0]);
        // panel 1: columns 1 and 5, two nonzeros each
        assert_eq!(aspt.panels()[1].tiles[0].cols, vec![1, 5]);
    }

    #[test]
    fn reconstruction_is_lossless() {
        let m = fig1();
        for cfg in [
            AsptConfig::paper_figure(),
            AsptConfig::default(),
            AsptConfig {
                panel_height: 2,
                min_col_nnz: 2,
                tile_width: 1,
            },
        ] {
            let aspt = AsptMatrix::build(&m, &cfg);
            assert_eq!(aspt.to_csr(), m, "lossy decomposition with {cfg:?}");
            assert_eq!(aspt.nnz_dense() + aspt.remainder().nnz(), m.nnz());
        }
    }

    #[test]
    fn src_indices_point_at_source_nonzeros() {
        let m = fig1();
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        for panel in aspt.panels() {
            for tile in &panel.tiles {
                for (k, &s) in tile.src_idx.iter().enumerate() {
                    assert_eq!(m.values()[s as usize], tile.values[k]);
                    assert_eq!(m.colidx()[s as usize], tile.colidx[k]);
                }
            }
        }
        for (k, &s) in aspt.remainder_src().iter().enumerate() {
            assert_eq!(m.values()[s as usize], aspt.remainder().values()[k]);
        }
        // every source nonzero appears exactly once
        let mut seen = vec![false; m.nnz()];
        for panel in aspt.panels() {
            for tile in &panel.tiles {
                for &s in &tile.src_idx {
                    assert!(!seen[s as usize]);
                    seen[s as usize] = true;
                }
            }
        }
        for &s in aspt.remainder_src() {
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn tile_width_splits_dense_columns() {
        // a 4-row panel where 5 columns are all dense
        let mut coo = CooMatrix::new(4, 8).unwrap();
        for r in 0..4u32 {
            for c in 0..5u32 {
                coo.push(r, c, 1.0f64).unwrap();
            }
        }
        let m = CsrMatrix::from_coo(&coo);
        let aspt = AsptMatrix::build(
            &m,
            &AsptConfig {
                panel_height: 4,
                min_col_nnz: 2,
                tile_width: 2,
            },
        );
        let tiles = &aspt.panels()[0].tiles;
        assert_eq!(tiles.len(), 3); // 2 + 2 + 1 columns
        assert_eq!(tiles[0].cols.len(), 2);
        assert_eq!(tiles[2].cols.len(), 1);
        assert_eq!(aspt.dense_ratio(), 1.0);
        assert_eq!(aspt.remainder().nnz(), 0);
        assert_eq!(aspt.to_csr(), m);
    }

    #[test]
    fn ragged_last_panel() {
        // 7 rows with panel height 3 → panels of 3, 3, 1
        let m = CsrMatrix::<f64>::identity(7);
        let aspt = AsptMatrix::build(
            &m,
            &AsptConfig {
                panel_height: 3,
                min_col_nnz: 2,
                tile_width: 4,
            },
        );
        assert_eq!(aspt.panels().len(), 3);
        assert_eq!(aspt.panels()[2].rows(), 6..7);
        // identity has no dense columns anywhere
        assert_eq!(aspt.nnz_dense(), 0);
        assert_eq!(aspt.to_csr(), m);
    }

    #[test]
    fn dense_ratio_of_matches_full_build() {
        let m = fig1();
        for cfg in [AsptConfig::paper_figure(), AsptConfig::default()] {
            let probe = dense_ratio_of(&m, &cfg);
            let full = AsptMatrix::build(&m, &cfg).dense_ratio();
            assert!((probe - full).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_ratio_of_empty_matrix() {
        let e = CsrMatrix::<f64>::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(dense_ratio_of(&e, &AsptConfig::default()), 0.0);
        let aspt = AsptMatrix::build(&e, &AsptConfig::default());
        assert_eq!(aspt.dense_ratio(), 0.0);
        assert_eq!(aspt.panels().len(), 0);
    }

    #[test]
    fn update_values_tracks_source_order() {
        let m = fig1();
        let mut aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        let new_values: Vec<f64> = (0..m.nnz()).map(|i| -(i as f64) - 100.0).collect();
        aspt.update_values(&new_values);
        // reconstruct and compare against a matrix with the new values
        let mut expected = m.clone();
        expected.values_mut().copy_from_slice(&new_values);
        assert_eq!(aspt.to_csr(), expected);
    }

    #[test]
    #[should_panic(expected = "value array must match")]
    fn update_values_checks_length() {
        let m = fig1();
        let mut aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        aspt.update_values(&[1.0]);
    }

    #[test]
    fn from_parts_roundtrips_a_built_decomposition() {
        let m = fig1();
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        let rebuilt = AsptMatrix::from_parts(
            *aspt.config(),
            aspt.panels().to_vec(),
            aspt.remainder().clone(),
            aspt.remainder_src().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, aspt);
        assert_eq!(rebuilt.nnz_dense(), aspt.nnz_dense());
        assert_eq!(rebuilt.to_csr(), m);
    }

    #[test]
    fn from_parts_rejects_tampered_parts() {
        let m = fig1();
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        let parts = || {
            (
                *aspt.config(),
                aspt.panels().to_vec(),
                aspt.remainder().clone(),
                aspt.remainder_src().to_vec(),
            )
        };

        // duplicated source index
        let (cfg, mut panels, rem, mut src) = parts();
        src[0] = src[1];
        assert!(AsptMatrix::from_parts(cfg, panels.clone(), rem.clone(), src).is_err());

        // panel bounds off by one
        let (cfg, _, rem, src) = parts();
        panels[0].row_end -= 1;
        assert!(AsptMatrix::from_parts(cfg, panels, rem, src).is_err());

        // out-of-range tile column
        let (cfg, mut panels, rem, src) = parts();
        panels[0].tiles[0].colidx[0] = 999;
        assert!(AsptMatrix::from_parts(cfg, panels, rem, src).is_err());

        // invalid configuration must not panic
        let (mut cfg, panels, rem, src) = parts();
        cfg.min_col_nnz = 0;
        assert!(AsptMatrix::from_parts(cfg, panels, rem, src).is_err());

        // remainder_src length mismatch
        let (cfg, panels, rem, mut src) = parts();
        src.pop();
        assert!(AsptMatrix::from_parts(cfg, panels, rem, src).is_err());
    }

    #[test]
    fn splice_retiles_only_touched_panels() {
        // paper_figure: panel height 3 → panels {0,1,2} and {3,4,5}.
        // A delta confined to row 4 touches only panel 1.
        let m = fig1();
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        let patched = m
            .apply_structural_delta(&[(4, 5, 77.0)], &[(4, 0)])
            .unwrap();
        let spliced = aspt.splice(&patched, &[1]).unwrap();
        // must equal a from-scratch decomposition of the patched matrix
        let fresh = AsptMatrix::build(&patched, &AsptConfig::paper_figure());
        assert_eq!(spliced, fresh);
        assert_eq!(spliced.to_csr(), patched);
        // untouched panel 0 is reused verbatim
        assert_eq!(spliced.panels()[0], aspt.panels()[0]);
    }

    #[test]
    fn splice_remaps_src_indices_after_upstream_shift() {
        // a delta in panel 0 shifts every later nonzero index; panel 1
        // survives but its src map must follow
        let m = fig1();
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        let patched = m
            .apply_structural_delta(&[(0, 1, 50.0), (1, 0, 51.0)], &[(2, 2)])
            .unwrap();
        let spliced = aspt.splice(&patched, &[0]).unwrap();
        assert_eq!(
            spliced,
            AsptMatrix::build(&patched, &AsptConfig::paper_figure())
        );
        for panel in spliced.panels() {
            for tile in &panel.tiles {
                for (k, &s) in tile.src_idx.iter().enumerate() {
                    assert_eq!(patched.values()[s as usize], tile.values[k]);
                }
            }
        }
    }

    #[test]
    fn splice_rejects_unmarked_structural_change() {
        let m = fig1();
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        let patched = m.apply_structural_delta(&[(4, 5, 77.0)], &[]).unwrap();
        // row 4 lives in panel 1; claiming only panel 0 changed must fail
        assert!(aspt.splice(&patched, &[0]).is_err());
        // same-nnz reshaping of a row is also caught (col set differs)
        let reshaped = m.apply_structural_delta(&[(4, 5, 1.0)], &[(4, 0)]).unwrap();
        assert!(aspt.splice(&reshaped, &[]).is_err());
        // shape mismatch and panel index out of range
        let wide = CsrMatrix::<f64>::identity(7);
        assert!(aspt.splice(&wide, &[0]).is_err());
        assert!(aspt.splice(&m, &[9]).is_err());
    }

    #[test]
    fn splice_with_no_touched_panels_is_identity() {
        let m = fig1();
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        assert_eq!(aspt.splice(&m, &[]).unwrap(), aspt);
    }

    #[test]
    fn well_clustered_matrix_has_high_dense_ratio() {
        // Fig 7a-style: identical consecutive rows — ASpT alone captures
        // everything.
        let rows: &[&[u32]] = &[&[0, 1], &[0, 1], &[0, 1], &[2, 3], &[2, 3], &[2, 3]];
        let mut coo = CooMatrix::new(6, 4).unwrap();
        for (r, cols) in rows.iter().enumerate() {
            for &c in *cols {
                coo.push(r as u32, c, 1.0f64).unwrap();
            }
        }
        let m = CsrMatrix::from_coo(&coo);
        let aspt = AsptMatrix::build(&m, &AsptConfig::paper_figure());
        assert_eq!(aspt.dense_ratio(), 1.0);
    }
}
