//! Writes to a kernel's output rows in the caller's row order.
//!
//! The engine's kernels walk the rows of the *reordered* matrix, one
//! ASpT panel per task. [`OutRows`] lets each task write reordered row `r` straight
//! to row `old_of(r)` of the caller's buffer, so no reordered copy of
//! the output is made and permuted back afterwards. SpMM, SpMV and SDDMM
//! all write through it: SpMM and SpMV rows are `k`-element strides of a
//! row-major buffer, SDDMM rows are the CSR row segments of the caller's
//! nonzero array.

use std::marker::PhantomData;
use std::ops::Range;

use spmm_aspt::Panel;
use spmm_sparse::{par, Permutation, SparseError};

/// The multiply-adds (nonzeros × dense columns) from which a kernel
/// call spreads its panels over the worker pool: 2^23, 0.9–1.6 ms of
/// one core's work for the SpMM row body on the reference host (2
/// vCPUs, 5–9 G multiply-adds/s on perfbench's train-loop matrices).
///
/// A helper that is parked, or whose core the host has lent to another
/// tenant, joins a loop late: 76 µs at the median on a quiet host and
/// 1.77 ms in a busy period (EXPERIMENTS.md, "Helper wake-up"). A call
/// not much longer than that gains only when the other core happens to
/// be free at that instant. Paired calls at train-loop's size (12.6 M
/// multiply-adds, EXPERIMENTS.md, "The engine's SpMM walks CSR rows")
/// show both sides of this bound. On a quiet host the pool takes
/// 0.54–0.61× the time of the caller alone and wins 198–200 of 200
/// pairs. Beside one busy process it ties at the median (0.99–1.50×)
/// and still wins at p10, as the parent's tile body did (1.01–1.34×).
/// A higher bound would give up the quiet host's gain on every
/// train-loop call; a lower one would expose shorter calls, where the
/// late helper takes a larger share of the time, to the same tie.
pub const PARALLEL_MIN_WORK: usize = 1 << 23;

/// Where reordered row `r` goes: row `old_of(r)` of the caller's
/// buffer. Built only as the identity or from a [`Permutation`], which
/// is a checked bijection, so two reordered rows never share an output
/// row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowMap<'a>(Option<&'a [u32]>);

impl<'a> RowMap<'a> {
    /// Reordered row `r` is output row `r`.
    pub(crate) const IDENTITY: RowMap<'static> = RowMap(None);

    /// Reordered row `r` is output row `perm.old_of(r)`.
    pub(crate) fn of(perm: &'a Permutation) -> Self {
        RowMap(Some(perm.order()))
    }

    /// The caller's row for reordered row `r`.
    #[inline(always)]
    pub(crate) fn old_of(self, r: usize) -> usize {
        match self.0 {
            None => r,
            Some(order) => order[r] as usize,
        }
    }
}

/// How the output rows lie in the buffer. A type, not a value, so that
/// each kernel body is compiled for its one layout and a row lookup
/// does not branch on it.
///
/// # Safety
/// When `fits(nrows, len)` holds, `span(i)` for every `i < nrows` must
/// be a range inside `0..len`, and the spans of distinct rows must not
/// overlap: `PanelRows::row_mut` hands them out as disjoint slices.
pub(crate) unsafe trait RowSpans: Copy + Send + Sync {
    /// Whether `nrows` rows fit a buffer of `len` elements.
    fn fits(self, nrows: usize, len: usize) -> bool;
    /// Where row `i` lies.
    fn span(self, i: usize) -> (usize, usize);
}

/// Row `i` is `i·k .. (i+1)·k`: a row-major matrix of `k` columns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stride(pub(crate) usize);

// SAFETY: with `nrows · k == len`, row `i < nrows` is `i·k .. (i+1)·k`,
// inside the buffer and apart from every other row.
unsafe impl RowSpans for Stride {
    fn fits(self, nrows: usize, len: usize) -> bool {
        nrows.checked_mul(self.0) == Some(len)
    }

    #[inline(always)]
    fn span(self, i: usize) -> (usize, usize) {
        (i * self.0, i * self.0 + self.0)
    }
}

/// Row `i` is `ptr[i] .. ptr[i+1]`: the nonzeros of CSR row `i`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Offsets<'a>(pub(crate) &'a [usize]);

// SAFETY: `fits` checks that `ptr` has `nrows + 1` monotone entries
// ending inside the buffer, so row `i < nrows` is `ptr[i] .. ptr[i+1]`,
// inside it and apart from every other row.
unsafe impl RowSpans for Offsets<'_> {
    fn fits(self, nrows: usize, len: usize) -> bool {
        let ptr = self.0;
        ptr.len() == nrows + 1 && ptr.windows(2).all(|w| w[0] <= w[1]) && ptr[nrows] <= len
    }

    #[inline(always)]
    fn span(self, i: usize) -> (usize, usize) {
        (self.0[i], self.0[i + 1])
    }
}

/// An output buffer split into rows that panel tasks write in
/// parallel, each reordered row to its caller row (see the module doc).
pub(crate) struct OutRows<'a, T, S> {
    ptr: *mut T,
    nrows: usize,
    spans: S,
    map: RowMap<'a>,
    _out: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` and `_out` stand for the output buffer, the fields that
// are not already `Sync` for every `T`. Tasks on other threads reach
// that buffer only through `PanelRows::row_mut`, whose invariant keeps
// their rows disjoint, so what crosses threads is exclusive access to
// `T`s, hence `T: Send`. `nrows`, `spans` and `map` are plain values
// and shared slices that the tasks only read.
unsafe impl<T: Send, S: RowSpans> Sync for OutRows<'_, T, S> {}

impl<'a, T: Send, S: RowSpans> OutRows<'a, T, S> {
    /// Splits `out` into `nrows` rows laid out by `spans`, addressed
    /// through `map`.
    ///
    /// # Errors
    /// [`SparseError::InvalidStructure`] when the rows do not fit `out`
    /// (a stride that does not tile it, offsets that are not monotone or
    /// run past it) or `map` does not cover `nrows` rows.
    pub(crate) fn new(
        out: &'a mut [T],
        nrows: usize,
        spans: S,
        map: RowMap<'a>,
    ) -> Result<Self, SparseError> {
        if !spans.fits(nrows, out.len()) || map.0.is_some_and(|order| order.len() != nrows) {
            return Err(SparseError::InvalidStructure(format!(
                "{nrows} output rows do not fit a buffer of {}",
                out.len()
            )));
        }
        Ok(Self {
            ptr: out.as_mut_ptr(),
            nrows,
            spans,
            map,
            _out: PhantomData,
        })
    }

    /// Runs `f` once per panel; each call gets exclusive access to the
    /// output rows of its panel's rows. The panels run in parallel when
    /// the call does at least [`PARALLEL_MIN_WORK`] multiply-adds
    /// (`work`), and in order on the calling thread otherwise.
    ///
    /// # Panics
    /// If the panels are out of order, overlap or run past the rows.
    pub(crate) fn for_each_panel<P: Sync, F>(self, panels: &[Panel<P>], work: usize, f: F)
    where
        F: Fn(&Panel<P>, PanelRows<'_, T, S>) + Sync + Send,
    {
        let mut end = 0;
        for p in panels {
            assert!(
                end <= p.row_start && p.row_start <= p.row_end && p.row_end <= self.nrows,
                "panels must be ordered, disjoint and inside the {} rows",
                self.nrows
            );
            end = p.row_end;
        }
        if work < PARALLEL_MIN_WORK {
            return panels.iter().for_each(|p| f(p, self.rows_of(p)));
        }
        par::for_each(panels.len(), |i| f(&panels[i], self.rows_of(&panels[i])));
    }

    /// The output rows of `panel`'s reordered rows. A method, so the
    /// task closure captures the whole (`Sync`) view rather than its
    /// raw-pointer field.
    fn rows_of<P>(&self, panel: &Panel<P>) -> PanelRows<'_, T, S> {
        PanelRows {
            ptr: self.ptr,
            spans: self.spans,
            map: self.map,
            rows: panel.rows(),
            _out: PhantomData,
        }
    }
}

/// One panel task's access to its output rows.
pub(crate) struct PanelRows<'v, T, S> {
    ptr: *mut T,
    spans: S,
    map: RowMap<'v>,
    rows: Range<usize>,
    _out: PhantomData<&'v mut [T]>,
}

impl<'v, T, S: RowSpans> PanelRows<'v, T, S> {
    /// Where this panel's reordered rows go.
    #[inline(always)]
    pub(crate) fn map(&self) -> RowMap<'v> {
        self.map
    }

    /// How many rows this panel has.
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The caller's output row for reordered row `row_start + rel` of
    /// this panel.
    ///
    /// # Panics
    /// If `rel` is not below [`Self::len`].
    #[inline(always)]
    pub(crate) fn row_mut(&mut self, rel: usize) -> &mut [T] {
        assert!(rel < self.rows.len(), "row {rel} is outside this panel");
        let old = self.map.old_of(self.rows.start + rel);
        let (lo, hi) = self.spans.span(old);
        // SAFETY: `lo..hi` lies in the buffer: the row is one of this
        // task's panel, which `for_each_panel` checked is below `nrows`,
        // so `old` is too (`map` is the identity or a bijection on
        // `0..nrows`), and `new` checked `spans.fits`, under which every
        // row below `nrows` lies inside the buffer (the `RowSpans`
        // contract). No other live reference overlaps it: this borrow
        // of `self` ends every earlier row slice of this task; other
        // tasks hold other panels, whose rows are disjoint from this
        // one's; and a bijection maps distinct rows to distinct output
        // rows, whose spans do not overlap (the `RowSpans` contract).
        // The buffer itself stays mutably borrowed by the `OutRows` for
        // its whole life.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_aspt::{AsptConfig, AsptMatrix};
    use spmm_sparse::CsrMatrix;

    fn panels(nrows: usize, height: usize) -> Vec<Panel<f64>> {
        let m = CsrMatrix::<f64>::identity(nrows);
        let aspt = AsptMatrix::build(
            &m,
            &AsptConfig {
                panel_height: height,
                ..AsptConfig::default()
            },
        );
        aspt.panels().to_vec()
    }

    #[test]
    fn rows_land_in_the_callers_order() {
        let perm = Permutation::from_order(vec![2, 0, 3, 1]).unwrap();
        let mut out = vec![0.0; 8];
        let rows = OutRows::new(&mut out, 4, Stride(2), RowMap::of(&perm)).unwrap();
        rows.for_each_panel(&panels(4, 3), 0, |panel, mut rows| {
            for rel in 0..rows.len() {
                rows.row_mut(rel).fill((panel.row_start + rel) as f64);
            }
        });
        // reordered row r lands on caller row order[r]
        assert_eq!(out, [1.0, 1.0, 3.0, 3.0, 0.0, 0.0, 2.0, 2.0]);

        let ptr = [0, 1, 1, 4, 5];
        let mut vals = vec![0.0; 5];
        let rows = OutRows::new(&mut vals, 4, Offsets(&ptr), RowMap::IDENTITY).unwrap();
        rows.for_each_panel(&panels(4, 2), 0, |panel, mut rows| {
            for rel in 0..rows.len() {
                rows.row_mut(rel).fill((panel.row_start + rel) as f64);
            }
        });
        assert_eq!(vals, [0.0, 2.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn rows_that_do_not_fit_are_rejected() {
        let mut out = vec![0.0f64; 7];
        assert!(OutRows::new(&mut out, 4, Stride(2), RowMap::IDENTITY).is_err());
        for ptr in [&[0, 2, 1, 3, 4][..], &[0, 1, 2, 3, 8], &[0, 1, 2]] {
            assert!(OutRows::new(&mut out, 4, Offsets(ptr), RowMap::IDENTITY).is_err());
        }
        let perm = Permutation::identity(3);
        assert!(OutRows::new(&mut out, 4, Stride(1), RowMap::of(&perm)).is_err());
    }

    #[test]
    #[should_panic(expected = "outside this panel")]
    fn a_row_past_the_panel_is_refused() {
        let mut out = vec![0.0f64; 4];
        let rows = OutRows::new(&mut out, 4, Stride(1), RowMap::IDENTITY).unwrap();
        rows.for_each_panel(&panels(4, 2), 0, |_, mut rows| {
            let past = rows.len();
            rows.row_mut(past)[0] = 1.0;
        });
    }

    #[test]
    fn only_calls_past_the_work_threshold_use_the_pool() {
        let caller = std::thread::current().id();
        let on_caller = |work| {
            let mut out = vec![0.0f64; 64];
            let rows = OutRows::new(&mut out, 64, Stride(1), RowMap::IDENTITY).unwrap();
            let alone = std::sync::atomic::AtomicBool::new(true);
            rows.for_each_panel(&panels(64, 1), work, |_, _| {
                // long enough for a parked helper to wake and join
                let t = std::time::Instant::now();
                while t.elapsed() < std::time::Duration::from_micros(50) {}
                if std::thread::current().id() != caller {
                    alone.store(false, std::sync::atomic::Ordering::Relaxed);
                }
            });
            alone.into_inner()
        };
        assert!(on_caller(PARALLEL_MIN_WORK - 1));
        if par::max_helpers() > 0 {
            // other tests may hold the helpers for a while
            assert!((0..500).any(|_| !on_caller(PARALLEL_MIN_WORK)));
        }
    }

    /// The view is shared by reference across the panel tasks, which
    /// run on the pool's threads, so it must stay `Sync`.
    #[test]
    fn the_view_is_sync() {
        fn sync<S: Sync>() {}
        sync::<OutRows<'_, f32, Stride>>();
        sync::<OutRows<'_, f32, Offsets<'_>>>();
    }
}
