//! The end-to-end execution engine: Fig 5 as an object.
//!
//! [`Engine::prepare`] plans the reordering (with the §4 skip
//! heuristics), materialises the reordered matrix, builds the ASpT
//! decomposition and records the preprocessing wall-clock time (the
//! quantity of Fig 12 / Tables 3–4). The `spmm`/`sddmm` methods then
//! execute against the decomposition and return outputs **in the
//! caller's original row / nonzero order**, so reordering is invisible
//! to users of the results. The kernels write that order themselves:
//! the row permutation is paid once, at prepare, and no call copies a
//! reordered operand or result.

use spmm_aspt::{dense_ratio_of, AsptMatrix};
use spmm_faults::FaultPoint;
use spmm_gpu_sim::kernels::{
    simulate_sddmm_aspt, simulate_spgemm_clustered, simulate_spmm_aspt,
    simulate_spmm_aspt_kblocked_micro, simulate_spmv_aspt,
};
use spmm_gpu_sim::{DeviceConfig, SimReport};
use spmm_reorder::{plan_region_recluster_with, plan_reordering_with, ReorderConfig, ReorderPlan};
use spmm_sparse::similarity::jaccard;
use spmm_sparse::{CsrMatrix, DenseMatrix, Permutation, Scalar, SparseError};
use spmm_telemetry::{Collector, FanoutRecorder, Recorder, RunManifest, TelemetryHandle};
use std::sync::Arc;
use std::time::Duration;

use crate::format::FormatPayload;
use crate::micro::{spmm_aspt_kblocked_rows_auto, widest_micro_width};
use crate::rows::{Offsets, OutRows, RowMap};
use crate::sddmm::sddmm_rows;
use crate::spgemm::spgemm_clustered;
use crate::spmm::{check_aspt_dims, dense_rows};
use crate::spmv::{spmv_aspt_rows, vector_rows};

/// Fault point at the head of [`Engine::prepare`], after the CSR
/// invariants check: an injected error surfaces exactly like a
/// planning failure ([`SparseError::InvalidStructure`]).
pub static FAULT_KERNEL_PREPARE: FaultPoint = FaultPoint::new("kernel.prepare");

/// Fault point at the head of [`Engine::execute`]: an injected error
/// surfaces like an operand validation failure.
pub static FAULT_KERNEL_EXECUTE: FaultPoint = FaultPoint::new("kernel.execute");

/// Fault point at the head of [`Engine::apply_delta`], before any
/// patching: an injected error surfaces like a delta validation
/// failure, leaving the engine untouched.
pub static FAULT_KERNEL_DELTA: FaultPoint = FaultPoint::new("kernel.delta");

/// Fires [`FAULT_KERNEL_EXECUTE`], mapping an injected error to an
/// operand-validation failure.
fn fire_execute_fault() -> Result<(), SparseError> {
    FAULT_KERNEL_EXECUTE
        .fire()
        .map_err(|e| SparseError::InvalidStructure(e.to_string()))
}

/// Engine construction options.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`EngineConfig::builder`] (or take [`EngineConfig::default`] and
/// mutate fields), so adding future knobs — like the telemetry handle
/// added here — stops being a breaking change.
///
/// ```
/// use spmm_kernels::EngineConfig;
///
/// let config = EngineConfig::builder().k_hint(64).build();
/// assert_eq!(config.k_hint, Some(64));
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Reordering pipeline configuration (LSH, clustering, ASpT, skip
    /// policy).
    pub reorder: ReorderConfig,
    /// Expected dense-operand width `k`, when the caller knows it up
    /// front. Sets the plan's microkernel width
    /// ([`crate::micro::widest_micro_width`]) and is recorded in the run
    /// manifest; it does not change kernel results.
    pub k_hint: Option<usize>,
    /// Telemetry sink. The engine always keeps an internal collector
    /// for its [`PrepareReport`]; when this handle is enabled, every
    /// event is teed to it as well.
    pub telemetry: TelemetryHandle,
    /// Jaccard drift past which [`Engine::apply_delta`] re-clusters a
    /// touched row panel instead of splicing its tiles through. A
    /// panel's drift is `1 − avg J(old row, new row)` over its touched
    /// rows; 0.0 re-clusters on any structural change, 1.0 never
    /// re-clusters. Default 0.5.
    pub delta_drift_threshold: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            reorder: ReorderConfig::default(),
            k_hint: None,
            telemetry: TelemetryHandle::default(),
            delta_drift_threshold: 0.5,
        }
    }
}

impl EngineConfig {
    /// Starts a builder initialised with the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the reordering pipeline configuration.
    pub fn reorder(mut self, reorder: ReorderConfig) -> Self {
        self.config.reorder = reorder;
        self
    }

    /// Sets the expected dense-operand width.
    pub fn k_hint(mut self, k: usize) -> Self {
        self.config.k_hint = Some(k);
        self
    }

    /// Sets the telemetry sink.
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Sets the Jaccard drift threshold for incremental deltas.
    pub fn delta_drift_threshold(mut self, threshold: f64) -> Self {
        self.config.delta_drift_threshold = threshold;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Per-stage breakdown of [`Engine::prepare`], snapshotted when
/// preparation finishes.
///
/// The underlying [`RunManifest`] has one top-level `prepare` stage
/// with `plan` (containing the round-1/round-2 LSH and clustering
/// sub-stages), `permute` and `tile` children, so
/// [`PrepareReport::total`] — the sum of top-level stage durations —
/// is exactly what [`Engine::preprocessing_time`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareReport {
    manifest: RunManifest,
}

impl PrepareReport {
    /// The manifest with the stage tree and pipeline counters.
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// Total preprocessing wall-clock time (sum of the manifest's
    /// top-level stage durations).
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.manifest.total_duration_ns())
    }

    /// Duration of one stage by `/`-separated path, e.g.
    /// `"prepare/plan/round1"`.
    pub fn stage_duration(&self, path: &str) -> Option<Duration> {
        self.manifest
            .find(path)
            .map(|s| Duration::from_nanos(s.duration_ns))
    }

    /// Serialises the manifest to the documented JSON schema.
    pub fn to_json(&self, pretty: bool) -> String {
        self.manifest.to_json(pretty)
    }

    /// Renders the human-readable stage tree.
    pub fn render_tree(&self) -> String {
        self.manifest.render_tree()
    }
}

/// One kernel invocation for the unified [`Engine::execute`] dispatch
/// entry: one arm per kernel family.
///
/// Ops borrow their operands, so constructing one is free. The four
/// named `Engine` methods are thin wrappers over `execute`; layers that
/// must stay op-agnostic — the serving layer, the autotuner's
/// [`crate::autotune::tuned_execute`] — pass a `KernelOp` through
/// instead of growing a method per kernel. How a kernel sweeps `k` is
/// fixed by the plan (its microkernel width), never by the op.
///
/// The enum is `#[non_exhaustive]`: downstream matches need a wildcard
/// arm, so new kernel families (SpMV and SpGEMM arrived this way) stop
/// being breaking changes.
#[derive(Debug)]
#[non_exhaustive]
pub enum KernelOp<'a, T> {
    /// `Y = S · X` (see [`Engine::spmm`]). The serving layer's fused
    /// multi-RHS pass is this op over the concatenated operand.
    Spmm {
        /// Dense operand, `S.ncols × k`.
        x: &'a DenseMatrix<T>,
    },
    /// Alg 2 SDDMM (see [`Engine::sddmm`]).
    Sddmm {
        /// Dense operand, `S.ncols × k`.
        x: &'a DenseMatrix<T>,
        /// Dense operand, `S.nrows × k`.
        y: &'a DenseMatrix<T>,
    },
    /// `y = S · x`, the `k = 1` fast path (see [`Engine::spmv`]): the
    /// operand is a flat slice, not a 1-column [`DenseMatrix`], and the
    /// kernel skips the k-blocking machinery entirely.
    Spmv {
        /// Dense vector operand of length `S.ncols`.
        x: &'a [T],
    },
    /// `C = S · B`, sparse × sparse (see [`Engine::spgemm`]):
    /// Gustavson's algorithm over the reordered rows, with rows that
    /// the reordering packed into the same panel sharing one dense
    /// accumulator.
    Spgemm {
        /// Sparse right-hand operand, `S.ncols × n`.
        b: &'a CsrMatrix<T>,
    },
}

impl<T: Scalar> KernelOp<'_, T> {
    /// The kernel family this op belongs to (what the §4 trial tunes).
    pub fn op_kind(&self) -> crate::autotune::Kernel {
        match self {
            KernelOp::Spmm { .. } => crate::autotune::Kernel::Spmm,
            KernelOp::Sddmm { .. } => crate::autotune::Kernel::Sddmm,
            KernelOp::Spmv { .. } => crate::autotune::Kernel::Spmv,
            KernelOp::Spgemm { .. } => crate::autotune::Kernel::Spgemm,
        }
    }

    /// Dense-operand width `k`, for the ops that have a dense operand:
    /// `Some(x.ncols())` for SpMM and SDDMM, `Some(1)` for
    /// SpMV, `None` for SpGEMM (no dense operand at all).
    pub fn k(&self) -> Option<usize> {
        match self {
            KernelOp::Spmm { x } | KernelOp::Sddmm { x, .. } => Some(x.ncols()),
            KernelOp::Spmv { .. } => Some(1),
            KernelOp::Spgemm { .. } => None,
        }
    }
}

/// What [`Engine::execute`] produced, matching the [`KernelOp`] shape:
/// `Spmm → Dense`, `Sddmm → Values`, `Spmv → Vector`,
/// `Spgemm → Sparse`.
///
/// The enum is `#[non_exhaustive]` (new kernel families bring new
/// output shapes); prefer the typed `into_*`/`as_*` accessors, which
/// return `None` on a shape mismatch instead of forcing a match.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Output<T> {
    /// A freshly allocated SpMM result (original row order).
    Dense(DenseMatrix<T>),
    /// Freshly allocated SDDMM values (original nonzero order).
    Values(Vec<T>),
    /// A freshly allocated SpMV result (original row order).
    Vector(Vec<T>),
    /// A freshly allocated SpGEMM product (original row order).
    Sparse(CsrMatrix<T>),
}

impl<T> Output<T> {
    /// The dense result, if this was a [`KernelOp::Spmm`].
    pub fn into_dense(self) -> Option<DenseMatrix<T>> {
        match self {
            Output::Dense(y) => Some(y),
            _ => None,
        }
    }

    /// The values result, if this was a [`KernelOp::Sddmm`].
    pub fn into_values(self) -> Option<Vec<T>> {
        match self {
            Output::Values(v) => Some(v),
            _ => None,
        }
    }

    /// The vector result, if this was a [`KernelOp::Spmv`].
    pub fn into_vector(self) -> Option<Vec<T>> {
        match self {
            Output::Vector(y) => Some(y),
            _ => None,
        }
    }

    /// The sparse product, if this was a [`KernelOp::Spgemm`].
    pub fn into_sparse(self) -> Option<CsrMatrix<T>> {
        match self {
            Output::Sparse(c) => Some(c),
            _ => None,
        }
    }

    /// Borrowing twin of [`Output::into_dense`].
    pub fn as_dense(&self) -> Option<&DenseMatrix<T>> {
        match self {
            Output::Dense(y) => Some(y),
            _ => None,
        }
    }

    /// Borrowing twin of [`Output::into_values`].
    pub fn as_values(&self) -> Option<&[T]> {
        match self {
            Output::Values(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowing twin of [`Output::into_vector`].
    pub fn as_vector(&self) -> Option<&[T]> {
        match self {
            Output::Vector(y) => Some(y),
            _ => None,
        }
    }

    /// Borrowing twin of [`Output::into_sparse`].
    pub fn as_sparse(&self) -> Option<&CsrMatrix<T>> {
        match self {
            Output::Sparse(c) => Some(c),
            _ => None,
        }
    }
}

/// A prepared SpMM/SDDMM executor for one sparse matrix.
///
/// ```
/// use spmm_data::generators;
/// use spmm_kernels::{Engine, EngineConfig};
/// use spmm_kernels::spmm::spmm_rowwise_seq;
///
/// // cluster structure hidden by a row shuffle — the engine's
/// // reordering recovers it, and the results come back in the
/// // caller's original row order
/// let s = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 7);
/// let x = generators::random_dense::<f64>(s.ncols(), 8, 1);
///
/// let engine = Engine::prepare(&s, &EngineConfig::default())?;
/// assert!(engine.plan().needs_reordering());
///
/// let y = engine.spmm(&x)?;
/// let reference = spmm_rowwise_seq(&s, &x)?;
/// assert!(reference.max_abs_diff(&y) < 1e-10);
/// # Ok::<(), spmm_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine<T> {
    /// Shared so clones (and the serving layer's plan cache) reuse one
    /// plan; [`Engine::update_values`] copies-on-write, never mutating
    /// a shared instance under another user.
    plan: Arc<ReorderPlan>,
    aspt: Arc<AsptMatrix<T>>,
    /// The reordered matrix (identity reorder when round 1 skipped).
    reordered: Arc<CsrMatrix<T>>,
    /// The original matrix's row pointer. Reordered row `r` is original
    /// row `row_perm.old_of(r)`, its nonzeros in the same order, so they
    /// sit at `source_rowptr[row_perm.old_of(r)]..` in the caller's
    /// nonzero order: SDDMM writes there and value updates read there.
    source_rowptr: Arc<Vec<usize>>,
    report: PrepareReport,
    original_ncols: usize,
    k_hint: Option<usize>,
    /// Internal collector, kept live so execution/simulation events
    /// keep accumulating after prepare.
    collector: Arc<Collector>,
    /// The handle execution methods emit through (tees to `collector`
    /// and any caller-configured sink).
    telemetry: TelemetryHandle,
    /// The caller-configured sink alone (no internal collector), so
    /// [`Engine::apply_delta`] can wire successor engines to the same
    /// external telemetry without double-teeing this engine's collector.
    user_telemetry: TelemetryHandle,
    /// Reordering configuration retained for panel-local re-clustering
    /// under [`Engine::apply_delta`].
    reorder_config: ReorderConfig,
    /// Jaccard drift threshold for [`Engine::apply_delta`].
    delta_drift_threshold: f64,
    /// The plan's microkernel width (one of
    /// [`crate::micro::MICRO_WIDTHS`]): [`widest_micro_width`] of the
    /// `k_hint` at [`Engine::prepare`], restored by the plan-store codec
    /// on warm start. SpMM sweeps `k` in blocks of this width; `None`
    /// sweeps the whole of `k` in one block.
    micro_width: Option<usize>,
}

impl<T: Scalar> Engine<T> {
    /// Plans, reorders and tiles `m`. This is the preprocessing step
    /// whose cost the paper reports separately (§5.4); the per-stage
    /// breakdown is available as [`Engine::report`].
    ///
    /// # Errors
    /// Fails with [`SparseError::InvalidStructure`] when `m` violates
    /// the CSR invariants (see `CsrMatrix::check_invariants`).
    pub fn prepare(m: &CsrMatrix<T>, config: &EngineConfig) -> Result<Self, SparseError> {
        m.check_invariants()?;
        FAULT_KERNEL_PREPARE
            .fire()
            .map_err(|e| SparseError::InvalidStructure(e.to_string()))?;
        let collector = Arc::new(Collector::new());
        let telemetry = if config.telemetry.is_enabled() {
            TelemetryHandle::new(Arc::new(FanoutRecorder::new(vec![
                collector.clone() as Arc<dyn Recorder>,
                config.telemetry.recorder(),
            ])))
        } else {
            TelemetryHandle::new(collector.clone())
        };
        telemetry.meta("nrows", &m.nrows().to_string());
        telemetry.meta("ncols", &m.ncols().to_string());
        telemetry.meta("nnz", &m.nnz().to_string());
        if let Some(k) = config.k_hint {
            telemetry.meta("k_hint", &k.to_string());
        }
        // every stage runs under the `prepare` root, so the report taken
        // after it closes is the whole of the preprocessing cost
        let root = telemetry.clone();
        let micro_width = config.k_hint.and_then(widest_micro_width);
        if let Some(w) = micro_width {
            telemetry.meta("micro_width", &w.to_string());
        }
        let mut engine = {
            let _prepare = root.span("prepare");
            let plan = {
                let _span = telemetry.span("plan");
                plan_reordering_with(m, &config.reorder, &telemetry)
            };
            let reordered = {
                let _span = telemetry.span("permute");
                m.permute_rows(&plan.row_perm)
            };
            let aspt = {
                let _span = telemetry.span("tile");
                AsptMatrix::build_with(&reordered, &config.reorder.aspt, &telemetry)
            };
            Self {
                plan: Arc::new(plan),
                aspt: Arc::new(aspt),
                reordered: Arc::new(reordered),
                source_rowptr: Arc::new(m.rowptr().to_vec()),
                report: PrepareReport {
                    manifest: RunManifest::default(),
                },
                original_ncols: m.ncols(),
                k_hint: config.k_hint,
                collector,
                telemetry,
                user_telemetry: config.telemetry.clone(),
                reorder_config: config.reorder,
                delta_drift_threshold: config.delta_drift_threshold,
                micro_width,
            }
        };
        engine.report = PrepareReport {
            manifest: engine.collector.manifest(),
        };
        engine.telemetry.meta(
            "preprocessing_ns",
            &engine.report.manifest.total_duration_ns().to_string(),
        );
        Ok(engine)
    }

    /// Rehydrates an engine from previously prepared parts — the plan
    /// store's path around [`Engine::prepare`]. No planning, no LSH, no
    /// tiling: the deserialized plan, reordered CSR, nonzero map and
    /// tiling are validated for mutual consistency and wired together.
    ///
    /// The rebuilt engine's [`Engine::preprocessing_time`] is zero (its
    /// report has no stages): nothing was preprocessed here, which is
    /// exactly what cross-process amortization claims.
    ///
    /// # Errors
    /// Fails with [`SparseError::InvalidStructure`] when the parts
    /// disagree: CSR invariants, permutation/row-count mismatches, a
    /// nonzero map other than the one the row permutation implies, or
    /// a tiling that does not reconstruct the reordered matrix.
    pub fn from_parts(
        plan: ReorderPlan,
        aspt: AsptMatrix<T>,
        reordered: CsrMatrix<T>,
        nnz_map: Vec<usize>,
        k_hint: Option<usize>,
        telemetry: &TelemetryHandle,
    ) -> Result<Self, SparseError> {
        let engine = Self::assemble(plan, aspt, reordered, k_hint, telemetry)?;
        let bad = |msg: String| Err(SparseError::InvalidStructure(msg));
        let rowptr = engine.reordered.rowptr();
        if nnz_map.len() != engine.reordered.nnz() {
            return bad(format!(
                "nnz map has {} entries, matrix has {} nonzeros",
                nnz_map.len(),
                engine.reordered.nnz()
            ));
        }
        // the permutation fixes the map: reordered row r's j-th nonzero
        // is the j-th of original row old_of(r)
        for r in 0..engine.reordered.nrows() {
            let start = engine.source_start(r);
            if nnz_map[rowptr[r]..rowptr[r + 1]]
                .iter()
                .enumerate()
                .any(|(j, &old)| old != start + j)
            {
                return bad(format!(
                    "nnz map disagrees with the row permutation in row {r}"
                ));
            }
        }
        Ok(engine)
    }

    /// [`Engine::from_parts`] without the nonzero map: checks the parts
    /// and derives the original row pointer from the permutation and
    /// the reordered row lengths.
    fn assemble(
        plan: ReorderPlan,
        aspt: AsptMatrix<T>,
        reordered: CsrMatrix<T>,
        k_hint: Option<usize>,
        telemetry: &TelemetryHandle,
    ) -> Result<Self, SparseError> {
        let bad = |msg: String| Err(SparseError::InvalidStructure(msg));
        reordered.check_invariants()?;
        if plan.row_perm.len() != reordered.nrows() {
            return bad(format!(
                "row permutation covers {} rows, matrix has {}",
                plan.row_perm.len(),
                reordered.nrows()
            ));
        }
        if plan.remainder_order.len() != reordered.nrows() {
            return bad(format!(
                "remainder order covers {} rows, matrix has {}",
                plan.remainder_order.len(),
                reordered.nrows()
            ));
        }
        if aspt.nrows() != reordered.nrows()
            || aspt.ncols() != reordered.ncols()
            || aspt.nnz() != reordered.nnz()
        {
            return bad(format!(
                "tiling shape {}x{}+{}nnz disagrees with matrix {}x{}+{}nnz",
                aspt.nrows(),
                aspt.ncols(),
                aspt.nnz(),
                reordered.nrows(),
                reordered.ncols(),
                reordered.nnz()
            ));
        }
        if aspt.to_csr() != reordered {
            return bad("tiling does not reconstruct the reordered matrix".to_string());
        }
        let mut source_rowptr = vec![0usize; reordered.nrows() + 1];
        for r in 0..reordered.nrows() {
            source_rowptr[plan.row_perm.old_of(r) as usize + 1] = reordered.row_nnz(r);
        }
        for i in 0..reordered.nrows() {
            source_rowptr[i + 1] += source_rowptr[i];
        }
        let collector = Arc::new(Collector::new());
        let user_telemetry = telemetry.clone();
        let telemetry = if telemetry.is_enabled() {
            TelemetryHandle::new(Arc::new(FanoutRecorder::new(vec![
                collector.clone() as Arc<dyn Recorder>,
                telemetry.recorder(),
            ])))
        } else {
            TelemetryHandle::new(collector.clone())
        };
        let report = PrepareReport {
            manifest: collector.manifest(),
        };
        let reorder_config = ReorderConfig::builder().aspt(*aspt.config()).build();
        Ok(Self {
            original_ncols: reordered.ncols(),
            plan: Arc::new(plan),
            aspt: Arc::new(aspt),
            reordered: Arc::new(reordered),
            source_rowptr: Arc::new(source_rowptr),
            report,
            k_hint,
            collector,
            telemetry,
            user_telemetry,
            reorder_config,
            delta_drift_threshold: 0.5,
            micro_width: None,
        })
    }

    /// The plan's microkernel width, if it has one (set by
    /// [`Engine::prepare`] from a `k_hint`, or restored from a stored
    /// plan). `None` means SpMM sweeps the whole of `k` in one block.
    pub fn micro_width(&self) -> Option<usize> {
        self.micro_width
    }

    /// Overrides the microkernel width — the plan-store codec's hook
    /// for restoring a recorded width. Widths outside [`crate::micro::MICRO_WIDTHS`] run the generic
    /// blocked kernel at that width; every width gives the same bits.
    pub fn set_micro_width(&mut self, width: Option<usize>) {
        self.micro_width = width;
    }

    /// Always `None`: the engine runs one layout, its ASpT tiles, and
    /// holds no format payload. Kept only for the benchmark harness,
    /// which still imports it.
    pub fn format_payload(&self) -> Option<&FormatPayload<T>> {
        None
    }

    /// The engine's internal telemetry handle, for the same-crate
    /// simulator tool [`crate::autotune::choose_format`], which emits
    /// counters while holding `&Engine`.
    pub(crate) fn telemetry_handle(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// The reordering plan that was applied.
    pub fn plan(&self) -> &ReorderPlan {
        &self.plan
    }

    /// The ASpT decomposition executed by the kernels.
    pub fn aspt(&self) -> &AsptMatrix<T> {
        &self.aspt
    }

    /// The ASpT decomposition behind its shared handle — concurrent
    /// executors (the serving layer's cached plans) take this instead
    /// of cloning the tiles.
    pub fn aspt_shared(&self) -> Arc<AsptMatrix<T>> {
        Arc::clone(&self.aspt)
    }

    /// Wall-clock preprocessing time (reorder planning + permutation +
    /// tiling), the sum of the [`Engine::report`] stage durations.
    pub fn preprocessing_time(&self) -> Duration {
        self.report.total()
    }

    /// Per-stage preprocessing breakdown, snapshotted when
    /// [`Engine::prepare`] returned.
    pub fn report(&self) -> &PrepareReport {
        &self.report
    }

    /// Live run manifest: the prepare stages plus everything the
    /// execution and simulation methods have recorded since.
    pub fn manifest(&self) -> RunManifest {
        self.collector.manifest()
    }

    /// The `k` hint this engine was configured with, if any.
    pub fn k_hint(&self) -> Option<usize> {
        self.k_hint
    }

    /// The reordered matrix the kernels execute against (identity
    /// reorder when round 1 was skipped). Exposed for the plan-store
    /// codec; results from `spmm`/`sddmm` are always mapped back to the
    /// original order, so normal callers never need this.
    pub fn reordered(&self) -> &CsrMatrix<T> {
        &self.reordered
    }

    /// The nonzero map: `nnz_map()[reordered_nnz] = original_nnz`,
    /// derived from the row permutation (reordered row `r`'s `j`-th
    /// nonzero is the `j`-th of original row `row_perm.old_of(r)`).
    /// Exposed for the plan-store codec; the engine itself holds only
    /// the original row pointer.
    pub fn nnz_map(&self) -> Vec<usize> {
        (0..self.reordered.nrows())
            .flat_map(|r| {
                let start = self.source_start(r);
                start..start + self.reordered.row_nnz(r)
            })
            .collect()
    }

    /// Where reordered row `r`'s nonzeros start in the original order.
    fn source_start(&self, r: usize) -> usize {
        self.source_rowptr[self.plan.row_perm.old_of(r) as usize]
    }

    /// Remainder processing order, if round 2 chose one.
    fn remainder_order(&self) -> Option<&Permutation> {
        self.plan
            .round2_applied
            .then_some(&self.plan.remainder_order)
    }

    /// The unified dispatch entry: the four named methods below, the
    /// serving layer and the autotuner funnel through here, so new ops
    /// plug in without widening every layer. (The caller-buffer forms
    /// `spmm_into`/`sddmm_into` call the same private bodies.)
    ///
    /// ```
    /// use spmm_data::generators;
    /// use spmm_kernels::{Engine, EngineConfig, KernelOp, Output};
    ///
    /// let s = generators::shuffled_block_diagonal::<f64>(16, 8, 24, 8, 7);
    /// let x = generators::random_dense::<f64>(s.ncols(), 4, 1);
    /// let engine = Engine::prepare(&s, &EngineConfig::default())?;
    /// let y = engine.execute(KernelOp::Spmm { x: &x })?.into_dense().unwrap();
    /// assert_eq!(y.nrows(), s.nrows());
    /// # Ok::<(), spmm_sparse::SparseError>(())
    /// ```
    ///
    /// # Errors
    /// Fails on operand shape mismatches, like the named methods.
    pub fn execute(&self, op: KernelOp<'_, T>) -> Result<Output<T>, SparseError> {
        fire_execute_fault()?;
        match op {
            KernelOp::Spmm { x } => {
                let mut y = DenseMatrix::zeros(self.aspt.nrows(), x.ncols());
                self.spmm_rows(x, &mut y)?;
                Ok(Output::Dense(y))
            }
            KernelOp::Sddmm { x, y } => {
                let mut out = vec![T::ZERO; self.aspt.nnz()];
                self.sddmm_rows(x, y, &mut out)?;
                Ok(Output::Values(out))
            }
            KernelOp::Spmv { x } => {
                let _span = self.telemetry.span("exec.spmv");
                self.record_exec_counters();
                crate::spmv::check_dims(self.aspt.ncols(), x)?;
                let mut y = vec![T::ZERO; self.aspt.nrows()];
                spmv_aspt_rows(&self.aspt, x, vector_rows(&mut y, self.row_map())?);
                Ok(Output::Vector(y))
            }
            KernelOp::Spgemm { b } => {
                let _span = self.telemetry.span("exec.spgemm");
                self.record_exec_counters();
                // Gustavson over the reordered rows: rows the plan
                // packed into one panel share a dense accumulator
                let c_reord =
                    spgemm_clustered(&self.reordered, b, self.aspt.config().panel_height)?;
                if self.plan.row_perm.is_identity() {
                    return Ok(Output::Sparse(c_reord));
                }
                Ok(Output::Sparse(
                    c_reord.permute_rows(&self.plan.row_perm.inverse()),
                ))
            }
        }
    }

    /// `Y = S · X`, rows of `Y` in the original row order of `S`.
    /// Wrapper over [`Engine::execute`].
    pub fn spmm(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, SparseError> {
        match self.execute(KernelOp::Spmm { x })? {
            Output::Dense(y) => Ok(y),
            _ => unreachable!("Spmm ops produce Dense outputs"),
        }
    }

    /// Like [`Self::spmm`], writing the result into a caller-provided
    /// output. The call zeroes `y` and the kernel accumulates each row
    /// of it in place, so the call allocates no output of its own.
    ///
    /// # Errors
    /// Fails on operand shape mismatches (`y` must be
    /// `S.nrows × x.ncols`).
    pub fn spmm_into(&self, x: &DenseMatrix<T>, y: &mut DenseMatrix<T>) -> Result<(), SparseError> {
        fire_execute_fault()?;
        if y.nrows() != self.aspt.nrows() || y.ncols() != x.ncols() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("Y of {} x {}", self.aspt.nrows(), x.ncols()),
                got: format!("{} x {}", y.nrows(), y.ncols()),
            });
        }
        y.data_mut().fill(T::ZERO);
        self.spmm_rows(x, y)
    }

    /// Where the kernels' reordered rows go: the caller's row order.
    fn row_map(&self) -> RowMap<'_> {
        if self.plan.row_perm.is_identity() {
            RowMap::IDENTITY
        } else {
            RowMap::of(&self.plan.row_perm)
        }
    }

    /// The one SpMM kernel call: the ASpT kernel swept in blocks of the
    /// plan's microkernel width (the whole of `k` in one block when the
    /// plan has none), each reordered row accumulated straight into its
    /// row of `y`, which must be zero.
    fn spmm_rows(&self, x: &DenseMatrix<T>, y: &mut DenseMatrix<T>) -> Result<(), SparseError> {
        let _span = self.telemetry.span("exec.spmm");
        self.record_exec_counters();
        check_aspt_dims(&self.aspt, x)?;
        let width = self.micro_width.unwrap_or(x.ncols()).max(1);
        spmm_aspt_kblocked_rows_auto(&self.aspt, x, width, dense_rows(y, self.row_map())?);
        Ok(())
    }

    /// Like [`Self::sddmm`], writing into a caller-provided output
    /// buffer of length `nnz` (original nonzero order). The kernel
    /// writes each value in place, so the call allocates no buffer of
    /// its own.
    ///
    /// # Errors
    /// Fails on operand shape mismatches or a wrong output length.
    pub fn sddmm_into(
        &self,
        x: &DenseMatrix<T>,
        y: &DenseMatrix<T>,
        out: &mut [T],
    ) -> Result<(), SparseError> {
        fire_execute_fault()?;
        if out.len() != self.reordered.nnz() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("output of length nnz ({})", self.reordered.nnz()),
                got: format!("{}", out.len()),
            });
        }
        self.sddmm_rows(x, y, out)
    }

    /// Alg 2 SDDMM; the returned values parallel the *original*
    /// matrix's `values()` array. Wrapper over [`Engine::execute`].
    pub fn sddmm(&self, x: &DenseMatrix<T>, y: &DenseMatrix<T>) -> Result<Vec<T>, SparseError> {
        match self.execute(KernelOp::Sddmm { x, y })? {
            Output::Values(v) => Ok(v),
            _ => unreachable!("Sddmm ops produce Values outputs"),
        }
    }

    /// `y = S · x`, rows of `y` in the original row order of `S` — the
    /// `k = 1` fast path over the dense tiles, bit-identical to
    /// [`Engine::spmm`] with a 1-column operand. Wrapper over
    /// [`Engine::execute`].
    ///
    /// # Errors
    /// Fails when `x.len()` differs from `S.ncols`.
    pub fn spmv(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        match self.execute(KernelOp::Spmv { x })? {
            Output::Vector(y) => Ok(y),
            _ => unreachable!("Spmv ops produce Vector outputs"),
        }
    }

    /// `C = S · B`, rows of `C` in the original row order of `S` —
    /// Gustavson's algorithm with panel-wise accumulator reuse over the
    /// reordered rows. Wrapper over [`Engine::execute`].
    ///
    /// # Errors
    /// Fails when `B.nrows` differs from `S.ncols`.
    pub fn spgemm(&self, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>, SparseError> {
        match self.execute(KernelOp::Spgemm { b })? {
            Output::Sparse(c) => Ok(c),
            _ => unreachable!("Spgemm ops produce Sparse outputs"),
        }
    }

    /// The one SDDMM kernel call, over the reordered rows: reads each
    /// `Y` row in place and writes each value straight to its position
    /// in `out`, the original nonzero order.
    fn sddmm_rows(
        &self,
        x: &DenseMatrix<T>,
        y: &DenseMatrix<T>,
        out: &mut [T],
    ) -> Result<(), SparseError> {
        let _span = self.telemetry.span("exec.sddmm");
        self.record_exec_counters();
        crate::sddmm::check_dims(self.aspt.nrows(), self.aspt.ncols(), x, y)?;
        let rows = OutRows::new(
            out,
            self.aspt.nrows(),
            Offsets(&self.source_rowptr),
            self.row_map(),
        )?;
        sddmm_rows(&self.reordered, self.aspt.panels(), x, y, rows);
        Ok(())
    }

    /// Number of nonzeros processed per kernel call, with the
    /// dense-tile / sparse-remainder split.
    fn record_exec_counters(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter("exec.nnz_processed", self.aspt.nnz() as u64);
        self.telemetry
            .counter("exec.nnz_dense", self.aspt.nnz_dense() as u64);
        self.telemetry.counter(
            "exec.nnz_sparse",
            (self.aspt.nnz() - self.aspt.nnz_dense()) as u64,
        );
    }

    /// Simulated SpMM performance of this engine's configuration
    /// (ASpT-RR when reordering was applied, ASpT-NR otherwise).
    pub fn simulate_spmm(&self, k: usize, device: &DeviceConfig) -> SimReport {
        let _span = self.telemetry.span("sim.spmm");
        let report = simulate_spmm_aspt(&self.aspt, self.remainder_order(), k, device);
        report.traffic.record_to(&self.telemetry, "sim.spmm");
        report
    }

    /// Simulated performance of the *register-blocked microkernel*
    /// variant of the column-blocked SpMM kernel: `k_block`-wide passes
    /// over a fused operand of total width `k`, plus spill
    /// traffic when `2 · k_block` accumulator/operand registers per
    /// thread exceed the modeled register file. This is what
    /// [`crate::autotune::choose_micro_width`] ranks.
    pub fn simulate_spmm_kblocked_micro(
        &self,
        k: usize,
        k_block: usize,
        device: &DeviceConfig,
    ) -> SimReport {
        let _span = self.telemetry.span("sim.spmm_kblocked_micro");
        let report = simulate_spmm_aspt_kblocked_micro(
            &self.aspt,
            self.remainder_order(),
            k,
            k_block,
            device,
        );
        report
            .traffic
            .record_to(&self.telemetry, "sim.spmm_kblocked_micro");
        report
    }

    /// Simulated SDDMM performance.
    pub fn simulate_sddmm(&self, k: usize, device: &DeviceConfig) -> SimReport {
        let _span = self.telemetry.span("sim.sddmm");
        let report = simulate_sddmm_aspt(&self.aspt, self.remainder_order(), k, device);
        report.traffic.record_to(&self.telemetry, "sim.sddmm");
        report
    }

    /// Simulated SpMV performance (the `k = 1` transaction model over
    /// this engine's tiling).
    pub fn simulate_spmv(&self, device: &DeviceConfig) -> SimReport {
        let _span = self.telemetry.span("sim.spmv");
        let report = simulate_spmv_aspt(&self.aspt, self.remainder_order(), device);
        report.traffic.record_to(&self.telemetry, "sim.spmv");
        report
    }

    /// Simulated SpGEMM performance of this engine's configuration:
    /// the panel-clustered Gustavson transaction model over the
    /// reordered rows.
    pub fn simulate_spgemm(&self, b: &CsrMatrix<T>, device: &DeviceConfig) -> SimReport {
        let _span = self.telemetry.span("sim.spgemm");
        let report =
            simulate_spgemm_clustered(&self.reordered, b, self.aspt.config().panel_height, device);
        report.traffic.record_to(&self.telemetry, "sim.spgemm");
        report
    }

    /// Number of columns of the original matrix (`X` must have this
    /// many rows).
    pub fn ncols(&self) -> usize {
        self.original_ncols
    }

    /// Refreshes the sparse matrix's values (structure unchanged),
    /// keeping the reordering and tiling. `values` is in the *original*
    /// matrix's nonzero order. This is how iterative applications
    /// (gradient descent, §5.4) amortise preprocessing: pay for
    /// reorder+tile once, update values every iteration.
    ///
    /// When the engine's internals are shared (clones, cached plans),
    /// this copies-on-write: the value-bearing pieces are duplicated,
    /// the plan and row pointer stay shared, and no other holder sees
    /// the new values. Shared holders refresh through
    /// [`Engine::with_updated_values`] instead.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the matrix's nnz.
    pub fn update_values(&mut self, values: &[T]) {
        assert_eq!(
            values.len(),
            self.reordered.nnz(),
            "value array must match the matrix's nnz"
        );
        // permute straight into the reordered CSR's value array (no
        // intermediate scratch), then refresh the tiles from it
        let reordered = Arc::make_mut(&mut self.reordered);
        gather_rows(
            &self.plan.row_perm,
            &self.source_rowptr,
            values,
            reordered.values_mut(),
        );
        Arc::make_mut(&mut self.aspt).update_values(reordered.values());
    }

    /// Maps a value array from the original nonzero order into this
    /// engine's reordered nonzero order — the pure half of
    /// [`Engine::update_values`], split out so callers can stage the
    /// permuted values without touching the engine.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the matrix's nnz.
    pub fn reorder_values(&self, values: &[T]) -> Vec<T> {
        assert_eq!(
            values.len(),
            self.reordered.nnz(),
            "value array must match the matrix's nnz"
        );
        let mut out = vec![T::ZERO; values.len()];
        gather_rows(&self.plan.row_perm, &self.source_rowptr, values, &mut out);
        out
    }

    /// Reconstructs the *original* (pre-reordering) matrix this engine
    /// was prepared from — the inverse of the row permutation applied
    /// over the reordered CSR. Callers that fingerprint or mutate the
    /// source structure (the serving layer's delta path) use this; it
    /// costs one `O(nnz)` permutation.
    pub fn source_matrix(&self) -> CsrMatrix<T> {
        if self.plan.row_perm.is_identity() {
            (*self.reordered).clone()
        } else {
            self.reordered.permute_rows(&self.plan.row_perm.inverse())
        }
    }

    /// Incrementally re-prepares this engine for a structural delta on
    /// the *original* matrix: `added` edges are inserted, `removed`
    /// edges dropped (coordinates in original row space). Instead of a
    /// cold [`Engine::prepare`], the existing analysis is patched:
    ///
    /// 1. the source CSR is patched
    ///    ([`CsrMatrix::apply_structural_delta`], which rejects
    ///    malformed deltas up front);
    /// 2. touched rows are classified into row panels, and each touched
    ///    panel's Jaccard drift (`1 − avg J(old row, new row)`) is
    ///    measured against the configured
    ///    [`EngineConfig::delta_drift_threshold`];
    /// 3. panels past the threshold are re-clustered *locally* (the §4
    ///    round-1 decision re-run on the drifted region) with a
    ///    trial-and-error acceptance: the new order is kept only when
    ///    it improves the region's dense ratio;
    /// 4. the tiling is spliced ([`AsptMatrix::splice`]): surviving
    ///    panels keep their tiles verbatim (source indices remapped),
    ///    touched panels are re-tiled.
    ///
    /// The result is a fully validated successor engine; `self` is
    /// untouched, so a failure at any stage leaves the old engine
    /// serving. Outputs are *numerically* exact regardless of how the
    /// successor's panel assignment differs from what a from-scratch
    /// prepare would choose — reordering is invisible in results.
    ///
    /// # Errors
    /// Fails on malformed deltas ([`SparseError::DeltaOutOfBounds`],
    /// [`SparseError::DeltaDuplicate`],
    /// [`SparseError::DeltaMissingEdge`]), on injected
    /// [`FAULT_KERNEL_DELTA`] faults, or when the spliced parts fail
    /// validation.
    pub fn apply_delta(
        &self,
        added: &[(usize, usize, T)],
        removed: &[(usize, usize)],
    ) -> Result<Self, SparseError> {
        FAULT_KERNEL_DELTA
            .fire()
            .map_err(|e| SparseError::InvalidStructure(e.to_string()))?;
        let patched = self
            .source_matrix()
            .apply_structural_delta(added, removed)?;

        // touched rows, in reordered row space
        let old_perm = &self.plan.row_perm;
        let inv = old_perm.inverse();
        let mut touched_rows: Vec<usize> = added
            .iter()
            .map(|&(r, _, _)| r)
            .chain(removed.iter().map(|&(r, _)| r))
            .map(|r| inv.old_of(r) as usize)
            .collect();
        touched_rows.sort_unstable();
        touched_rows.dedup();
        let panel_height = self.aspt.config().panel_height;
        let mut touched_panels: Vec<usize> =
            touched_rows.iter().map(|&r| r / panel_height).collect();
        touched_panels.dedup();

        // tentative: the patched matrix under the unchanged permutation
        let mut reordered = patched.permute_rows(old_perm);

        // drift per touched panel: how far each panel's touched rows
        // moved from the structure the clustering was computed on
        let mut drifted: Vec<usize> = Vec::new();
        let mut i = 0usize;
        for &p in &touched_panels {
            let mut sim_sum = 0.0f64;
            let mut n = 0usize;
            while i < touched_rows.len() && touched_rows[i] / panel_height == p {
                let r = touched_rows[i];
                sim_sum += jaccard(self.reordered.row_cols(r), reordered.row_cols(r));
                n += 1;
                i += 1;
            }
            if 1.0 - sim_sum / n as f64 > self.delta_drift_threshold {
                drifted.push(p);
            }
        }
        self.telemetry
            .counter("delta.touched_rows", touched_rows.len() as u64);
        self.telemetry
            .counter("delta.touched_panels", touched_panels.len() as u64);
        self.telemetry
            .counter("delta.drifted_panels", drifted.len() as u64);

        // re-cluster the union of drifted panels, §4-style: re-run the
        // round-1 decision locally, keep the new order only when the
        // trial shows it improves the region's dense ratio
        let mut row_perm = old_perm.clone();
        if !drifted.is_empty() {
            let nrows = reordered.nrows();
            let region_rows: Vec<u32> = drifted
                .iter()
                .flat_map(|&p| {
                    let start = p * panel_height;
                    (start..(start + panel_height).min(nrows)).map(|r| r as u32)
                })
                .collect();
            let region = reordered.extract_rows(&region_rows);
            if let Some((local_perm, _stats)) =
                plan_region_recluster_with(&region, &self.reorder_config, &self.telemetry)
            {
                let aspt_cfg = self.reorder_config.aspt;
                let reclustered = region.permute_rows(&local_perm);
                let accepted =
                    dense_ratio_of(&reclustered, &aspt_cfg) > dense_ratio_of(&region, &aspt_cfg);
                self.telemetry
                    .counter("delta.recluster_accepted", u64::from(accepted));
                if accepted {
                    // lift the local order to an adjustment over all
                    // rows (identity outside the drifted slots), then
                    // fold it into the row permutation
                    let mut order: Vec<u32> = (0..nrows as u32).collect();
                    for (local_new, &slot) in region_rows.iter().enumerate() {
                        order[slot as usize] = region_rows[local_perm.old_of(local_new) as usize];
                    }
                    let adjust = Permutation::from_order(order)?;
                    row_perm = adjust.compose(old_perm);
                    reordered = patched.permute_rows(&row_perm);
                }
            }
        }

        let aspt = self.aspt.splice(&reordered, &touched_panels)?;
        let plan = ReorderPlan {
            round1_applied: !row_perm.is_identity(),
            row_perm,
            dense_ratio_after: aspt.dense_ratio(),
            ..(*self.plan).clone()
        };
        let mut engine = Self::assemble(plan, aspt, reordered, self.k_hint, &self.user_telemetry)?;
        // chained deltas keep the configured knobs, not the from_parts
        // defaults
        engine.reorder_config = self.reorder_config;
        engine.delta_drift_threshold = self.delta_drift_threshold;
        engine.micro_width = self.micro_width;
        Ok(engine)
    }

    /// Non-destructive [`Engine::update_values`]: a new engine with the
    /// given values that *shares* this one's reordering plan, row
    /// pointer and telemetry — no re-planning, no re-tiling. This is how a
    /// plan cache refreshes a published `Arc<Engine>` in place: build
    /// the successor, swap the `Arc`, and in-flight requests keep their
    /// consistent snapshot.
    ///
    /// # Errors
    /// Fails with [`SparseError::DimensionMismatch`] when `values.len()`
    /// differs from the matrix's nnz (the fallible twin of
    /// `update_values`' panic, for serving paths that must not die).
    pub fn with_updated_values(&self, values: &[T]) -> Result<Self, SparseError> {
        if values.len() != self.reordered.nnz() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("{} values (matrix nnz)", self.reordered.nnz()),
                got: values.len().to_string(),
            });
        }
        let mut fresh = self.clone();
        fresh.update_values(values);
        Ok(fresh)
    }
}

/// Copies `values`, in the original nonzero order, into `out` in the
/// reordered order: reordered row `r` is original row
/// `perm.old_of(r)`, whose nonzeros are the span
/// `source_rowptr[old]..source_rowptr[old + 1]`.
fn gather_rows<T: Copy>(perm: &Permutation, source_rowptr: &[usize], values: &[T], out: &mut [T]) {
    let mut at = 0;
    for r in 0..perm.len() {
        let old = perm.old_of(r) as usize;
        let span = &values[source_rowptr[old]..source_rowptr[old + 1]];
        out[at..at + span.len()].copy_from_slice(span);
        at += span.len();
    }
}

/// The serving layer shares one `Engine` across worker threads behind
/// `Arc`; this assertion keeps that contract load-bearing at compile
/// time.
#[allow(dead_code)]
fn engine_is_send_sync<T: Scalar>() {
    fn check<S: Send + Sync>() {}
    check::<Engine<T>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sddmm::sddmm_rowwise_seq;
    use crate::spmm::spmm_rowwise_seq;
    use spmm_aspt::AsptConfig;
    use spmm_data::generators;
    use spmm_reorder::ReorderPolicy;

    fn cfg() -> EngineConfig {
        EngineConfig::builder()
            .reorder(
                ReorderConfig::builder()
                    .aspt(AsptConfig {
                        panel_height: 16,
                        min_col_nnz: 2,
                        tile_width: 32,
                    })
                    .build(),
            )
            .build()
    }

    #[test]
    fn spmm_results_match_reference_despite_reordering() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(
            engine.plan().round1_applied,
            "fixture must trigger reordering"
        );
        let x = generators::random_dense::<f64>(m.ncols(), 16, 7);
        let expected = spmm_rowwise_seq(&m, &x).unwrap();
        let got = engine.spmm(&x).unwrap();
        assert!(
            expected.max_abs_diff(&got) < 1e-10,
            "reordering must be invisible in results"
        );
    }

    #[test]
    fn sddmm_results_match_reference_despite_reordering() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 5);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(engine.plan().round1_applied);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 1);
        let y = generators::random_dense::<f64>(m.nrows(), 8, 2);
        let expected = sddmm_rowwise_seq(&m, &x, &y).unwrap();
        let got = engine.sddmm(&x, &y).unwrap();
        let max = expected
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max < 1e-10, "max deviation {max}");
    }

    #[test]
    fn identity_reorder_path() {
        // pinned well-clustered fixture: dense ratio is exactly 1.0
        // (round 1 skipped) and the remainder is empty (round 2 finds
        // no candidates), so both skip decisions hold under any RNG
        // backend and outputs flow through without permutation
        let m = generators::pinned_block_diagonal::<f64>(8, 16, 12);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(!engine.plan().needs_reordering());
        let x = generators::random_dense::<f64>(m.ncols(), 4, 9);
        let expected = spmm_rowwise_seq(&m, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
    }

    #[test]
    fn preprocessing_time_is_recorded() {
        let m = generators::uniform_random::<f64>(256, 256, 8, 1);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(engine.preprocessing_time() > Duration::ZERO);
    }

    #[test]
    fn prepare_report_breaks_down_preprocessing_time() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        // a k_hint sets the micro width by rule: no selection stage
        let config = EngineConfig::builder()
            .reorder(cfg().reorder)
            .k_hint(64)
            .build();
        let engine = Engine::prepare(&m, &config).unwrap();
        assert_eq!(engine.micro_width(), Some(32));
        let report = engine.report();
        // the report's total IS preprocessing_time (same sum), and the
        // root is the only top-level stage
        assert_eq!(report.total(), engine.preprocessing_time());
        assert_eq!(report.manifest().stages.len(), 1);
        let stages = ["prepare/plan", "prepare/permute", "prepare/tile"];
        for path in stages {
            assert!(
                report.stage_duration(path).is_some(),
                "missing stage {path}"
            );
        }
        for gone in ["prepare/micro_select", "prepare/format_select"] {
            assert!(report.stage_duration(gone).is_none(), "stage {gone}");
        }
        // children sum to (at most) the root
        let children: Duration = stages
            .iter()
            .map(|p| report.stage_duration(p).unwrap())
            .sum();
        let root = report.stage_duration("prepare").unwrap();
        assert!(children <= root);
        assert_eq!(root, engine.preprocessing_time());
        // pipeline counters flowed through: this fixture reorders, so
        // round 1 ran the LSH funnel
        let manifest = report.manifest();
        assert!(manifest.find("prepare/plan/round1/minhash").is_some());
        assert!(manifest.counters.contains_key("lsh.candidates"));
        assert!(manifest.counters.contains_key("aspt.nnz_dense"));
        assert_eq!(
            manifest.meta.get("nnz").map(String::as_str),
            Some(m.nnz().to_string().as_str())
        );
    }

    #[test]
    fn prepare_rejects_corrupt_matrices() {
        // column index out of range, injected via the unchecked path
        let bad = CsrMatrix::from_parts_unchecked(2, 3, vec![0, 1, 2], vec![0, 9], vec![1.0, 2.0]);
        let err = Engine::prepare(&bad, &cfg()).unwrap_err();
        assert!(matches!(err, SparseError::InvalidStructure(_)));
    }

    #[test]
    fn user_telemetry_sees_prepare_and_exec_events() {
        let user = Arc::new(Collector::new());
        let config = EngineConfig::builder()
            .reorder(cfg().reorder)
            .k_hint(8)
            .telemetry(TelemetryHandle::new(user.clone()))
            .build();
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        let engine = Engine::prepare(&m, &config).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 8, 7);
        engine.spmm(&x).unwrap();
        engine.simulate_spmm(8, &DeviceConfig::p100());

        let manifest = user.manifest();
        assert!(manifest.find("prepare/plan").is_some());
        assert!(manifest.find("exec.spmm").is_some());
        assert!(manifest.find("sim.spmm").is_some());
        assert_eq!(
            manifest.counters.get("exec.nnz_processed"),
            Some(&(m.nnz() as u64))
        );
        assert!(manifest.counters.contains_key("sim.spmm.dram_bytes"));
        assert_eq!(manifest.meta.get("k_hint").map(String::as_str), Some("8"));
        // the engine's own live manifest mirrors the user's view
        let own = engine.manifest();
        assert_eq!(own.counters, manifest.counters);
    }

    #[test]
    fn simulation_reports_are_consistent() {
        let m = generators::shuffled_block_diagonal::<f32>(16, 16, 32, 12, 9);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        let device = DeviceConfig::p100();
        let spmm = engine.simulate_spmm(32, &device);
        let sddmm = engine.simulate_sddmm(32, &device);
        assert_eq!(spmm.flops, 2 * m.nnz() as u64 * 32);
        assert!(sddmm.flops >= 2 * m.nnz() as u64 * 32);
        assert!(spmm.time_s > 0.0 && sddmm.time_s > 0.0);
    }

    #[test]
    fn spmm_into_reuses_buffer_and_checks_shape() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 11);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 8, 2);
        let mut y = DenseMatrix::zeros(m.nrows(), 8);
        engine.spmm_into(&x, &mut y).unwrap();
        assert!(spmm_rowwise_seq(&m, &x).unwrap().max_abs_diff(&y) < 1e-10);
        // reuse: second call overwrites, not accumulates
        engine.spmm_into(&x, &mut y).unwrap();
        assert!(spmm_rowwise_seq(&m, &x).unwrap().max_abs_diff(&y) < 1e-10);
        // wrong shape rejected
        let mut bad = DenseMatrix::zeros(m.nrows() + 1, 8);
        assert!(engine.spmm_into(&x, &mut bad).is_err());
    }

    #[test]
    fn sddmm_into_matches_sddmm() {
        let m = generators::shuffled_block_diagonal::<f64>(32, 8, 24, 8, 13);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 4, 1);
        let y = generators::random_dense::<f64>(m.nrows(), 4, 2);
        let expected = engine.sddmm(&x, &y).unwrap();
        let mut out = vec![0.0f64; m.nnz()];
        engine.sddmm_into(&x, &y, &mut out).unwrap();
        assert_eq!(out, expected);
        let mut short = vec![0.0f64; m.nnz() - 1];
        assert!(engine.sddmm_into(&x, &y, &mut short).is_err());
    }

    #[test]
    fn sddmm_rejects_a_y_of_the_wrong_height_without_panicking() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 7);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(!engine.plan().row_perm.is_identity(), "needs the row map");
        let x = generators::random_dense::<f64>(m.ncols(), 4, 1);
        for rows in [m.nrows() - 1, m.nrows() + 1] {
            let y = generators::random_dense::<f64>(rows, 4, 2);
            for err in [
                engine.sddmm(&x, &y).unwrap_err(),
                engine
                    .sddmm_into(&x, &y, &mut vec![0.0; m.nnz()])
                    .unwrap_err(),
            ] {
                assert!(
                    matches!(err, SparseError::DimensionMismatch { .. }),
                    "{rows} rows: {err:?}"
                );
            }
        }
    }

    #[test]
    fn update_values_preserves_correctness() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 7);
        let mut engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(engine.plan().round1_applied);
        // change every value; the engine must track without re-tiling
        let new_values: Vec<f64> = (0..m.nnz()).map(|i| (i % 17) as f64 - 8.0).collect();
        engine.update_values(&new_values);
        let mut m2 = m.clone();
        m2.values_mut().copy_from_slice(&new_values);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 5);
        let expected = spmm_rowwise_seq(&m2, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
        // SDDMM values scale too
        let y = generators::random_dense::<f64>(m.nrows(), 8, 6);
        let e = sddmm_rowwise_seq(&m2, &x, &y).unwrap();
        let g = engine.sddmm(&x, &y).unwrap();
        assert!(e.iter().zip(&g).all(|(a, b)| (a - b).abs() < 1e-10));
    }

    #[test]
    fn execute_dispatch_matches_named_methods() {
        let m = generators::shuffled_block_diagonal::<f64>(32, 8, 24, 8, 21);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 4, 1);
        let y = generators::random_dense::<f64>(m.nrows(), 4, 2);

        let spmm = engine
            .execute(KernelOp::Spmm { x: &x })
            .unwrap()
            .into_dense()
            .unwrap();
        assert_eq!(spmm, engine.spmm(&x).unwrap());

        let sddmm = engine
            .execute(KernelOp::Sddmm { x: &x, y: &y })
            .unwrap()
            .into_values()
            .unwrap();
        assert_eq!(sddmm, engine.sddmm(&x, &y).unwrap());

        // op introspection used by the autotuner routing
        assert_eq!(
            KernelOp::Spmm { x: &x }.op_kind(),
            crate::autotune::Kernel::Spmm
        );
        assert_eq!(
            KernelOp::Sddmm { x: &x, y: &y }.op_kind(),
            crate::autotune::Kernel::Sddmm
        );
        assert_eq!(KernelOp::Spmm { x: &x }.k(), Some(4));
    }

    #[test]
    fn spmv_op_is_bit_identical_to_spmm_k1() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(engine.plan().needs_reordering());
        let x_mat = generators::random_dense::<f64>(m.ncols(), 1, 7);
        let x: Vec<f64> = x_mat.data().to_vec();
        let via_spmm = engine.spmm(&x_mat).unwrap();
        let via_spmv = engine.spmv(&x).unwrap();
        assert_eq!(via_spmm.data(), via_spmv.as_slice());
        // dispatch and wrapper agree
        let via_op = engine
            .execute(KernelOp::Spmv { x: &x })
            .unwrap()
            .into_vector()
            .unwrap();
        assert_eq!(via_op, via_spmv);
        // op introspection
        let op: KernelOp<'_, f64> = KernelOp::Spmv { x: &x };
        assert_eq!(op.op_kind(), crate::autotune::Kernel::Spmv);
        assert_eq!(op.k(), Some(1));
        // shape mismatch is a structured error
        assert!(engine.spmv(&x[1..]).is_err());
    }

    #[test]
    fn spgemm_op_matches_reference_gustavson() {
        use crate::spgemm::spgemm_gustavson_seq;
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 5);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(engine.plan().needs_reordering());
        let b = generators::uniform_random::<f64>(m.ncols(), 40, 6, 17);
        let expected = spgemm_gustavson_seq(&m, &b).unwrap();
        let got = engine.spgemm(&b).unwrap();
        assert!(expected.same_structure(&got), "structure must match");
        assert_eq!(expected.values(), got.values(), "values must be bit-equal");
        // dispatch and wrapper agree
        let via_op = engine
            .execute(KernelOp::Spgemm { b: &b })
            .unwrap()
            .into_sparse()
            .unwrap();
        assert!(got.same_structure(&via_op));
        assert_eq!(got.values(), via_op.values());
        // op introspection: SpGEMM has no dense operand
        let op = KernelOp::Spgemm { b: &b };
        assert_eq!(op.op_kind(), crate::autotune::Kernel::Spgemm);
        assert_eq!(op.k(), None);
        // shape mismatch is a structured error
        let bad = generators::uniform_random::<f64>(m.ncols() + 1, 8, 4, 3);
        assert!(engine.spgemm(&bad).is_err());
    }

    #[test]
    fn output_accessors_return_none_on_shape_mismatch() {
        let m = generators::shuffled_block_diagonal::<f64>(32, 8, 24, 8, 21);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 4, 1);
        let out = engine.execute(KernelOp::Spmm { x: &x }).unwrap();
        assert!(out.as_dense().is_some());
        assert!(out.as_values().is_none());
        assert!(out.as_vector().is_none());
        assert!(out.as_sparse().is_none());
        assert!(out.clone().into_vector().is_none());
        assert!(out.clone().into_sparse().is_none());
        assert!(out.clone().into_values().is_none());
        assert!(out.into_dense().is_some());
    }

    #[test]
    fn with_updated_values_shares_plan_and_leaves_original_intact() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 7);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 8, 5);
        let before = engine.spmm(&x).unwrap();

        let new_values: Vec<f64> = (0..m.nnz()).map(|i| (i % 13) as f64 - 6.0).collect();
        let refreshed = engine.with_updated_values(&new_values).unwrap();

        // the refreshed engine computes with the new values...
        let mut m2 = m.clone();
        m2.values_mut().copy_from_slice(&new_values);
        let expected = spmm_rowwise_seq(&m2, &x).unwrap();
        assert!(expected.max_abs_diff(&refreshed.spmm(&x).unwrap()) < 1e-10);
        // ...the original is untouched (copy-on-write, not aliasing)...
        assert!(before.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
        // ...and the plan and row pointer are shared, not re-prepared
        assert!(Arc::ptr_eq(&engine.plan, &refreshed.plan));
        assert!(Arc::ptr_eq(&engine.source_rowptr, &refreshed.source_rowptr));

        // wrong length is a structured error, not a panic
        assert!(matches!(
            engine.with_updated_values(&[1.0]),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_rebuilds_a_bit_identical_engine() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(engine.plan().needs_reordering());
        let rebuilt = Engine::from_parts(
            engine.plan().clone(),
            engine.aspt().clone(),
            engine.reordered().clone(),
            engine.nnz_map(),
            engine.k_hint(),
            &TelemetryHandle::noop(),
        )
        .unwrap();
        assert_eq!(rebuilt.preprocessing_time(), Duration::ZERO);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 7);
        let y = generators::random_dense::<f64>(m.nrows(), 8, 8);
        assert_eq!(
            engine.spmm(&x).unwrap().data(),
            rebuilt.spmm(&x).unwrap().data()
        );
        assert_eq!(
            engine.sddmm(&x, &y).unwrap(),
            rebuilt.sddmm(&x, &y).unwrap()
        );
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        let noop = TelemetryHandle::noop();

        // nnz map not a bijection
        let mut map = engine.nnz_map();
        map[0] = map[1];
        assert!(Engine::from_parts(
            engine.plan().clone(),
            engine.aspt().clone(),
            engine.reordered().clone(),
            map,
            None,
            &noop,
        )
        .is_err());

        // a bijection that disagrees with the row permutation: two
        // nonzeros of different rows swapped
        let mut map = engine.nnz_map();
        let rowptr = engine.reordered().rowptr();
        let (a, b) = (rowptr[0], rowptr[1]);
        assert!(a < b && b < map.len(), "rows 0 and 1 must hold nonzeros");
        map.swap(a, b);
        assert!(matches!(
            Engine::from_parts(
                engine.plan().clone(),
                engine.aspt().clone(),
                engine.reordered().clone(),
                map,
                None,
                &noop,
            ),
            Err(SparseError::InvalidStructure(_))
        ));

        // tiling from a different matrix
        let other = generators::uniform_random::<f64>(m.nrows(), m.ncols(), 8, 5);
        let other_engine = Engine::prepare(&other, &cfg()).unwrap();
        assert!(Engine::from_parts(
            engine.plan().clone(),
            other_engine.aspt().clone(),
            engine.reordered().clone(),
            engine.nnz_map(),
            None,
            &noop,
        )
        .is_err());

        // permutation length mismatch
        let mut plan = engine.plan().clone();
        plan.row_perm = Permutation::identity(3);
        assert!(Engine::from_parts(
            plan,
            engine.aspt().clone(),
            engine.reordered().clone(),
            engine.nnz_map(),
            None,
            &noop,
        )
        .is_err());
    }

    #[test]
    fn source_matrix_inverts_the_reordering() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(engine.plan().round1_applied);
        assert_eq!(engine.source_matrix(), m);
        // identity path
        let id = generators::pinned_block_diagonal::<f64>(8, 16, 12);
        let engine = Engine::prepare(&id, &cfg()).unwrap();
        assert!(!engine.plan().needs_reordering());
        assert_eq!(engine.source_matrix(), id);
    }

    #[test]
    fn apply_delta_matches_fresh_prepare_numerically() {
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        let added = [(3usize, 40usize, 2.5f64), (17, 1, -1.0), (63, 0, 4.0)];
        let removed = [(3usize, m.row_cols(3)[0] as usize)];
        let patched = m.apply_structural_delta(&added, &removed).unwrap();

        let inc = engine.apply_delta(&added, &removed).unwrap();
        assert_eq!(inc.source_matrix(), patched);

        // results agree with a reference on the patched structure
        let x = generators::random_dense::<f64>(m.ncols(), 8, 7);
        let expected = spmm_rowwise_seq(&patched, &x).unwrap();
        assert!(expected.max_abs_diff(&inc.spmm(&x).unwrap()) < 1e-10);
        let fresh = Engine::prepare(&patched, &cfg()).unwrap();
        assert!(fresh.spmm(&x).unwrap().max_abs_diff(&inc.spmm(&x).unwrap()) < 1e-10);
    }

    #[test]
    fn apply_delta_chains_and_handles_row_lifecycle() {
        let m = generators::shuffled_block_diagonal::<f64>(32, 8, 24, 8, 5);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        // empty row 2 entirely, then repopulate it in a second delta
        let row2: Vec<(usize, usize)> = m.row_cols(2).iter().map(|&c| (2, c as usize)).collect();
        let e1 = engine.apply_delta(&[], &row2).unwrap();
        assert_eq!(e1.source_matrix().row_nnz(2), 0);
        let e2 = e1.apply_delta(&[(2, 5, 9.0), (2, 11, -3.0)], &[]).unwrap();
        let final_m = m
            .apply_structural_delta(&[], &row2)
            .unwrap()
            .apply_structural_delta(&[(2, 5, 9.0), (2, 11, -3.0)], &[])
            .unwrap();
        assert_eq!(e2.source_matrix(), final_m);
        let x = generators::random_dense::<f64>(m.ncols(), 4, 2);
        let expected = spmm_rowwise_seq(&final_m, &x).unwrap();
        assert!(expected.max_abs_diff(&e2.spmm(&x).unwrap()) < 1e-10);
    }

    #[test]
    fn apply_delta_rejects_malformed_deltas_and_leaves_self_usable() {
        let m = generators::shuffled_block_diagonal::<f64>(32, 8, 24, 8, 7);
        let engine = Engine::prepare(&m, &cfg()).unwrap();
        assert!(matches!(
            engine.apply_delta(&[(999, 0, 1.0)], &[]),
            Err(SparseError::DeltaOutOfBounds { .. })
        ));
        let existing = (0usize, m.row_cols(0)[0] as usize);
        assert!(matches!(
            engine.apply_delta(&[], &[existing, existing]),
            Err(SparseError::DeltaDuplicate { .. })
        ));
        let absent = (0..m.ncols() as u32)
            .find(|c| m.row_cols(1).binary_search(c).is_err())
            .unwrap() as usize;
        assert!(matches!(
            engine.apply_delta(&[], &[(1, absent)]),
            Err(SparseError::DeltaMissingEdge { .. })
        ));
        // the failed delta left the engine serving correct answers
        let x = generators::random_dense::<f64>(m.ncols(), 4, 3);
        let expected = spmm_rowwise_seq(&m, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
    }

    #[test]
    fn delta_drift_threshold_zero_forces_recluster_path() {
        // drift 0.0 re-clusters every touched panel; results must stay
        // exact either way
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 9);
        let config = EngineConfig::builder()
            .reorder(cfg().reorder)
            .delta_drift_threshold(0.0)
            .build();
        let engine = Engine::prepare(&m, &config).unwrap();
        let added = [(5usize, 2usize, 1.0f64), (40, 30, 2.0)];
        let inc = engine.apply_delta(&added, &[]).unwrap();
        let patched = m.apply_structural_delta(&added, &[]).unwrap();
        assert_eq!(inc.source_matrix(), patched);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 11);
        let expected = spmm_rowwise_seq(&patched, &x).unwrap();
        assert!(expected.max_abs_diff(&inc.spmm(&x).unwrap()) < 1e-10);
        // sddmm + spgemm stay exact through the delta too
        let y = generators::random_dense::<f64>(m.nrows(), 8, 12);
        let e = sddmm_rowwise_seq(&patched, &x, &y).unwrap();
        let g = inc.sddmm(&x, &y).unwrap();
        assert!(e.iter().zip(&g).all(|(a, b)| (a - b).abs() < 1e-10));
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        engine_is_send_sync::<f64>();
        let m = generators::shuffled_block_diagonal::<f64>(32, 8, 24, 8, 3);
        let engine = Arc::new(Engine::prepare(&m, &cfg()).unwrap());
        let x = generators::random_dense::<f64>(m.ncols(), 4, 4);
        let expected = engine.spmm(&x).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                let x = &x;
                let expected = &expected;
                scope.spawn(move || {
                    let got = engine.spmm(x).unwrap();
                    assert!(expected.max_abs_diff(&got) < 1e-12);
                });
            }
        });
    }

    #[test]
    fn forced_reordering_still_correct() {
        let m = generators::block_diagonal::<f64>(8, 16, 24, 10, 11);
        let config = EngineConfig::builder()
            .reorder(
                ReorderConfig::builder()
                    .policy(ReorderPolicy::always())
                    .aspt(AsptConfig {
                        panel_height: 8,
                        min_col_nnz: 2,
                        tile_width: 16,
                    })
                    .build(),
            )
            .build();
        let engine = Engine::prepare(&m, &config).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 8, 3);
        let expected = spmm_rowwise_seq(&m, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
        let y = generators::random_dense::<f64>(m.nrows(), 8, 4);
        let e2 = sddmm_rowwise_seq(&m, &x, &y).unwrap();
        let g2 = engine.sddmm(&x, &y).unwrap();
        assert!(e2.iter().zip(&g2).all(|(a, b)| (a - b).abs() < 1e-10));
    }
}
