//! The §4 trial-and-error strategy.
//!
//! "One can perform row-reordering in the first iteration and do SpMM
//! or SDDMM on both the reordered matrix and the original matrix. If
//! the reordered matrix is faster, keep the row-reordering for the rest
//! of iterations; otherwise, discard the row-reordering." This module
//! runs that trial against the simulated device and reports which
//! variant wins.

use crate::engine::{Engine, EngineConfig, KernelOp, Output};
use crate::format::{FormatChoice, FormatPayload};
use serde::{Deserialize, Serialize};
use spmm_aspt::AsptMatrix;
use spmm_gpu_sim::kernels::{
    simulate_sddmm_aspt, simulate_spgemm_clustered, simulate_spgemm_naive, simulate_spmm_aspt,
    simulate_spmm_rowwise, simulate_spmv_aspt, simulate_spmv_rowwise,
};
use spmm_gpu_sim::{DeviceConfig, SimReport};
use spmm_reorder::{ReorderConfig, ReorderPolicy};
use spmm_sparse::{CsrMatrix, Scalar, SparseError};

/// Which kernel family to tune.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Kernel {
    /// Sparse × dense multiplication.
    Spmm,
    /// Sampled dense-dense multiplication.
    Sddmm,
    /// Sparse × dense-vector multiplication (`k = 1` fast path).
    Spmv,
    /// Sparse × sparse multiplication (Gustavson).
    Spgemm,
}

/// One of the execution strategies the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// Row-wise kernel on the original matrix (the cuSPARSE-like
    /// baseline; SpMM only — cuSPARSE has no SDDMM, §5.3).
    CusparseLike,
    /// ASpT without reordering (Hong et al.).
    AsptNr,
    /// ASpT with row reordering (this paper).
    AsptRr,
}

/// Simulated outcomes of the trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialReport {
    /// The fastest variant under the simulated device.
    pub chosen: Variant,
    /// cuSPARSE-like report (SpMM trials only).
    pub cusparse_like: Option<SimReport>,
    /// ASpT-NR report.
    pub aspt_nr: SimReport,
    /// ASpT-RR report.
    pub aspt_rr: SimReport,
    /// Whether the reordering plan actually changed anything — when it
    /// did not, RR ≡ NR and the trial is decided by noise-free
    /// simulation ties (NR wins ties).
    pub reordering_applied: bool,
}

impl TrialReport {
    /// Speedup of ASpT-RR over the best competing variant (the paper's
    /// Table 1 quantity for SpMM, Table 2 for SDDMM).
    ///
    /// Degenerate matrices (no nonzeros, zero launch overhead) can
    /// simulate to zero time on *both* sides; that 0/0 is defined as
    /// 1.0 — neither variant did any work, so neither is faster. Only
    /// a genuinely-zero RR time against nonzero competition reports
    /// infinity.
    pub fn rr_speedup_vs_best_other(&self) -> f64 {
        let mut best_other = self.aspt_nr.time_s;
        if let Some(c) = &self.cusparse_like {
            best_other = best_other.min(c.time_s);
        }
        if self.aspt_rr.time_s > 0.0 {
            best_other / self.aspt_rr.time_s
        } else if best_other == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    }
}

/// Runs the trial for `m`: simulate every variant, pick the fastest.
///
/// # Errors
/// Fails when `m` violates the CSR invariants (see `Engine::prepare`).
pub fn choose_variant<T: Scalar>(
    m: &CsrMatrix<T>,
    kernel: Kernel,
    k: usize,
    device: &DeviceConfig,
    reorder: &ReorderConfig,
) -> Result<TrialReport, SparseError> {
    if kernel == Kernel::Spgemm {
        // no B operand in this signature: trial against a shape-compatible
        // proxy with m's own sparsity pattern (dims always compose).
        // Callers holding a real B go through `choose_variant_spgemm`.
        return choose_variant_spgemm(m, &m.transpose(), device, reorder);
    }
    let nr_aspt = AsptMatrix::build(m, &reorder.aspt);
    let config = EngineConfig::builder().reorder(*reorder).k_hint(k).build();
    let engine = Engine::prepare(m, &config)?;

    let (cusparse_like, aspt_nr, aspt_rr) = match kernel {
        Kernel::Spmm => (
            Some(simulate_spmm_rowwise(m, k, device)),
            simulate_spmm_aspt(&nr_aspt, None, k, device),
            engine.simulate_spmm(k, device),
        ),
        Kernel::Sddmm => (
            None,
            simulate_sddmm_aspt(&nr_aspt, None, k, device),
            engine.simulate_sddmm(k, device),
        ),
        Kernel::Spmv => (
            Some(simulate_spmv_rowwise(m, device)),
            simulate_spmv_aspt(&nr_aspt, None, device),
            engine.simulate_spmv(device),
        ),
        Kernel::Spgemm => unreachable!("handled above"),
    };

    let mut chosen = Variant::AsptNr;
    let mut best = aspt_nr.time_s;
    if let Some(c) = &cusparse_like {
        if c.time_s < best {
            best = c.time_s;
            chosen = Variant::CusparseLike;
        }
    }
    if aspt_rr.time_s < best {
        chosen = Variant::AsptRr;
    }

    Ok(TrialReport {
        chosen,
        cusparse_like,
        aspt_nr,
        aspt_rr,
        reordering_applied: engine.plan().needs_reordering(),
    })
}

/// [`choose_variant`] for SpGEMM against a concrete right-hand operand
/// `b`: naive per-row Gustavson on the original matrix (the
/// cuSPARSE-like baseline), panel-clustered Gustavson on the original
/// order (NR), and panel-clustered Gustavson on the reordered rows
/// (RR, through the prepared engine).
///
/// # Errors
/// Fails when `a` violates the CSR invariants or `b.nrows != a.ncols`.
pub fn choose_variant_spgemm<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    device: &DeviceConfig,
    reorder: &ReorderConfig,
) -> Result<TrialReport, SparseError> {
    if b.nrows() != a.ncols() {
        return Err(SparseError::DimensionMismatch {
            expected: format!("B with {} rows (A.ncols)", a.ncols()),
            got: format!("{} rows", b.nrows()),
        });
    }
    let config = EngineConfig::builder().reorder(*reorder).build();
    let engine = Engine::prepare(a, &config)?;

    let cusparse_like = Some(simulate_spgemm_naive(a, b, device));
    let aspt_nr = simulate_spgemm_clustered(a, b, reorder.aspt.panel_height, device);
    let aspt_rr = engine.simulate_spgemm(b, device);

    let mut chosen = Variant::AsptNr;
    let mut best = aspt_nr.time_s;
    if let Some(c) = &cusparse_like {
        if c.time_s < best {
            best = c.time_s;
            chosen = Variant::CusparseLike;
        }
    }
    if aspt_rr.time_s < best {
        chosen = Variant::AsptRr;
    }

    Ok(TrialReport {
        chosen,
        cusparse_like,
        aspt_nr,
        aspt_rr,
        reordering_applied: engine.plan().needs_reordering(),
    })
}

/// Convenience: the §4 policy plus trial — reorder only when the trial
/// confirms a win. Returns the engine to use for the remaining
/// iterations.
///
/// # Errors
/// Fails when `m` violates the CSR invariants (see `Engine::prepare`).
pub fn tuned_engine<T: Scalar>(
    m: &CsrMatrix<T>,
    kernel: Kernel,
    k: usize,
    device: &DeviceConfig,
    reorder: &ReorderConfig,
) -> Result<(Engine<T>, TrialReport), SparseError> {
    let report = choose_variant(m, kernel, k, device, reorder)?;
    let reorder = if report.chosen == Variant::AsptRr {
        *reorder
    } else {
        // fall back to no reordering
        let mut no_reorder = *reorder;
        no_reorder.policy = ReorderPolicy {
            skip_round1_dense_ratio: -1.0, // always skip
            skip_round2_avgsim: -1.0,
            force_round1: false,
            force_round2: false,
        };
        no_reorder
    };
    let config = EngineConfig::builder().reorder(reorder).k_hint(k).build();
    let engine = Engine::prepare(m, &config)?;
    Ok((engine, report))
}

/// Simulated microkernel width selection: simulates the register-
/// blocked k-blocked kernel ([`Engine::simulate_spmm_kblocked_micro`])
/// at every eligible width in [`crate::micro::MICRO_WIDTHS`] and
/// returns the fastest, or `None` when `k_total` is narrower than every
/// specialized width (the generic path runs). The fused width each
/// trial simulates is capped at [`MICRO_SELECTION_K_CAP`] so selection
/// cost stays bounded while every candidate still divides the trial
/// operand evenly. [`Engine::prepare`] does not run this trial: it
/// takes [`crate::micro::widest_micro_width`], the width this trial
/// returns on every matrix it has been run on.
pub fn choose_micro_width<T: Scalar>(
    engine: &Engine<T>,
    k_total: usize,
    device: &DeviceConfig,
) -> Option<usize> {
    let eligible: Vec<usize> = crate::micro::MICRO_WIDTHS
        .iter()
        .copied()
        .filter(|&w| w <= k_total)
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let k_sim = k_total.min(MICRO_SELECTION_K_CAP);
    let mut best = eligible[0];
    let mut best_time = f64::INFINITY;
    for &w in &eligible {
        let report = engine.simulate_spmm_kblocked_micro(k_sim, w, device);
        if report.time_s < best_time {
            best_time = report.time_s;
            best = w;
        }
    }
    crate::micro::micro_width_for(best)
}

/// Fused-operand width cap for [`choose_micro_width`] trials: a common
/// multiple of the microkernel widths (3 × 32), so every candidate sees
/// only full-width passes and selection cost does not grow with the
/// caller's `k_hint`.
pub const MICRO_SELECTION_K_CAP: usize = 96;

/// Dense-width cap for [`choose_format`] trials, mirroring
/// [`MICRO_SELECTION_K_CAP`]: the traffic *ordering* between layouts is
/// stable in `k` well before the caller's full `k_hint`, so selection
/// cost stays bounded.
pub const FORMAT_SELECTION_K_CAP: usize = 96;

/// Outcome of the simulated format trial: the incumbent ASpT/CSR
/// configuration raced against every applicable format-zoo candidate
/// on the gpu-sim transaction model.
#[derive(Debug, Clone)]
pub struct FormatTrialReport {
    /// The winning layout (`Csr` when no challenger strictly beat the
    /// incumbent — ties keep CSR, so a chosen format never regresses on
    /// the simulated metric).
    pub chosen: FormatChoice,
    /// The incumbent's simulated SpMM performance (this engine's ASpT
    /// configuration).
    pub incumbent: SimReport,
    /// Every candidate that was built and simulated.
    pub candidates: Vec<(FormatChoice, SimReport)>,
    /// Candidates skipped by the structure heuristics or the "format
    /// not applicable" guards (also counted as `tune.format.skipped`).
    pub skipped: u32,
}

impl FormatTrialReport {
    /// Simulated speedup of the chosen configuration over the
    /// incumbent (1.0 when CSR was kept; never below 1.0 by
    /// construction).
    pub fn speedup_vs_incumbent(&self) -> f64 {
        let chosen_time = self
            .candidates
            .iter()
            .find(|(c, _)| *c == self.chosen)
            .map_or(self.incumbent.time_s, |(_, r)| r.time_s);
        if chosen_time > 0.0 {
            self.incumbent.time_s / chosen_time
        } else {
            1.0
        }
    }
}

/// Simulated format selection — the §4 trial widened to physical
/// layouts. Builds every applicable format-zoo candidate over the
/// engine's *reordered* matrix (SELL-C-σ at the σ candidates, CSB at
/// the β candidates), simulates each against the incumbent ASpT
/// configuration, and returns the winning payload (`None` keeps CSR).
///
/// Hopeless candidates are skipped before they are built, mirroring the
/// paper's skip heuristics: SELL candidates whose padded layout would
/// blow the [`crate::format::MAX_FORMAT_PADDING`] cap, and CSB
/// candidates whose estimated block occupancy (one `O(nnz)` pass) is
/// below [`crate::format::MIN_CSB_OCCUPANCY`]. Skips are counted in the
/// engine's telemetry as `tune.format.skipped`.
///
/// A challenger must be *strictly* faster than both the incumbent and
/// every other candidate; ties keep CSR. The autotuner therefore never
/// picks a format that regresses on the simulated metric. The engine
/// never runs the returned payload: this is a simulator tool.
pub fn choose_format<T: Scalar>(
    engine: &Engine<T>,
    k_total: usize,
    device: &DeviceConfig,
) -> (Option<FormatPayload<T>>, FormatTrialReport) {
    let telemetry = engine.telemetry_handle();
    let m = engine.reordered();
    let k = k_total.clamp(1, FORMAT_SELECTION_K_CAP);
    let incumbent = engine.simulate_spmm(k, device);

    let mut skipped = 0u32;
    let skip = |n: &mut u32| {
        *n += 1;
        telemetry.counter("tune.format.skipped", 1);
    };
    let mut candidates: Vec<(FormatChoice, SimReport)> = Vec::new();
    let mut best: Option<FormatPayload<T>> = None;
    let mut best_time = incumbent.time_s;

    for sigma in crate::format::SELL_SIGMA_CANDIDATES {
        let choice = FormatChoice::SellCSigma {
            slice_height: crate::format::SELL_SLICE_HEIGHT,
            sigma,
        };
        match FormatPayload::build(choice, m) {
            Ok(Some(payload)) => {
                let report = payload.simulate_spmm(k, device);
                if report.time_s < best_time {
                    best_time = report.time_s;
                    best = Some(payload);
                }
                candidates.push((choice, report));
            }
            Ok(None) => unreachable!("SellCSigma always builds a payload"),
            Err(_) => skip(&mut skipped),
        }
    }

    let occupancy = |beta: usize| -> f64 {
        let mut blocks = std::collections::HashSet::new();
        for (r, c, _) in m.iter() {
            blocks.insert(((r as usize / beta) as u64) << 32 | (c as usize / beta) as u64);
        }
        if blocks.is_empty() {
            0.0
        } else {
            m.nnz() as f64 / blocks.len() as f64
        }
    };
    for beta in crate::format::CSB_BETA_CANDIDATES {
        let choice = FormatChoice::Csb { beta };
        if occupancy(beta) < crate::format::MIN_CSB_OCCUPANCY {
            skip(&mut skipped);
            continue;
        }
        match FormatPayload::build(choice, m) {
            Ok(Some(payload)) => {
                let report = payload.simulate_spmm(k, device);
                if report.time_s < best_time {
                    best_time = report.time_s;
                    best = Some(payload);
                }
                candidates.push((choice, report));
            }
            Ok(None) => unreachable!("Csb always builds a payload"),
            Err(_) => skip(&mut skipped),
        }
    }

    let chosen = best
        .as_ref()
        .map_or(FormatChoice::Csr, |payload| payload.choice());
    (
        best,
        FormatTrialReport {
            chosen,
            incumbent,
            candidates,
            skipped,
        },
    )
}

/// [`choose_variant`] for a concrete [`KernelOp`]: the kernel family
/// and dense width are read off the op, so callers that already hold
/// an op (the serving layer, [`tuned_execute`]) don't restate them.
///
/// # Errors
/// Fails when `m` violates the CSR invariants (see `Engine::prepare`).
pub fn choose_variant_for_op<T: Scalar>(
    m: &CsrMatrix<T>,
    op: &KernelOp<'_, T>,
    device: &DeviceConfig,
    reorder: &ReorderConfig,
) -> Result<TrialReport, SparseError> {
    // SpGEMM ops carry their real B operand; everything else routes by
    // kernel family and dense width.
    if let KernelOp::Spgemm { b } = op {
        return choose_variant_spgemm(m, b, device, reorder);
    }
    choose_variant(m, op.op_kind(), op.k().unwrap_or(1), device, reorder)
}

/// Runs the §4 trial, prepares the winning engine and executes `op`
/// through the unified [`Engine::execute`] dispatch — trial-and-error
/// and execution in one call for one-shot workloads.
///
/// # Errors
/// Fails when `m` violates the CSR invariants or the op's operands
/// have mismatched shapes.
pub fn tuned_execute<T: Scalar>(
    m: &CsrMatrix<T>,
    op: KernelOp<'_, T>,
    device: &DeviceConfig,
    reorder: &ReorderConfig,
) -> Result<(Output<T>, TrialReport), SparseError> {
    let report = choose_variant_for_op(m, &op, device, reorder)?;
    let reorder = if report.chosen == Variant::AsptRr {
        *reorder
    } else {
        let mut no_reorder = *reorder;
        no_reorder.policy = ReorderPolicy {
            skip_round1_dense_ratio: -1.0, // always skip
            skip_round2_avgsim: -1.0,
            force_round1: false,
            force_round2: false,
        };
        no_reorder
    };
    let config = EngineConfig::builder()
        .reorder(reorder)
        .k_hint(op.k().unwrap_or(1))
        .build();
    let engine = Engine::prepare(m, &config)?;
    Ok((engine.execute(op)?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_aspt::AsptConfig;
    use spmm_data::generators;

    fn device() -> DeviceConfig {
        DeviceConfig {
            num_sms: 4,
            blocks_per_sm: 2,
            l2_bytes: 16 << 10,
            launch_overhead: 0.0,
            ..DeviceConfig::p100()
        }
    }

    fn reorder_cfg() -> ReorderConfig {
        ReorderConfig::builder()
            .aspt(AsptConfig {
                panel_height: 16,
                min_col_nnz: 2,
                tile_width: 32,
            })
            .build()
    }

    #[test]
    fn rr_wins_on_shuffled_clusters() {
        let m = generators::shuffled_block_diagonal::<f32>(32, 16, 96, 24, 7);
        let report = choose_variant(&m, Kernel::Spmm, 32, &device(), &reorder_cfg()).unwrap();
        assert!(report.reordering_applied);
        assert_eq!(
            report.chosen,
            Variant::AsptRr,
            "report: {:?}",
            report.chosen
        );
        assert!(report.rr_speedup_vs_best_other() > 1.0);
    }

    #[test]
    fn rr_never_chosen_when_no_reordering_happened() {
        let m = generators::diagonal::<f32>(512, 3);
        let report = choose_variant(&m, Kernel::Spmm, 32, &device(), &reorder_cfg()).unwrap();
        assert!(!report.reordering_applied);
        assert_ne!(report.chosen, Variant::AsptRr, "identical plans tie to NR");
    }

    #[test]
    fn sddmm_trial_has_no_cusparse() {
        let m = generators::uniform_random::<f32>(256, 256, 8, 5);
        let report = choose_variant(&m, Kernel::Sddmm, 32, &device(), &reorder_cfg()).unwrap();
        assert!(report.cusparse_like.is_none());
    }

    #[test]
    fn tuned_engine_matches_trial_choice() {
        let m = generators::shuffled_block_diagonal::<f32>(32, 16, 96, 24, 9);
        let (engine, report) =
            tuned_engine(&m, Kernel::Spmm, 32, &device(), &reorder_cfg()).unwrap();
        if report.chosen == Variant::AsptRr {
            assert!(engine.plan().needs_reordering());
        } else {
            assert!(!engine.plan().needs_reordering());
        }
    }

    #[test]
    fn op_routing_matches_explicit_kernel_args() {
        let m = generators::shuffled_block_diagonal::<f32>(32, 16, 96, 24, 7);
        let x = generators::random_dense::<f32>(m.ncols(), 32, 1);
        let op = KernelOp::Spmm { x: &x };
        let via_op = choose_variant_for_op(&m, &op, &device(), &reorder_cfg()).unwrap();
        let direct = choose_variant(&m, Kernel::Spmm, 32, &device(), &reorder_cfg()).unwrap();
        assert_eq!(via_op.chosen, direct.chosen);
        let (out, report) = tuned_execute(&m, op, &device(), &reorder_cfg()).unwrap();
        assert_eq!(report.chosen, direct.chosen);
        assert!(out.into_dense().is_some());
    }

    #[test]
    fn spmv_trial_runs_all_variants() {
        let m = generators::shuffled_block_diagonal::<f32>(32, 16, 96, 24, 7);
        let report = choose_variant(&m, Kernel::Spmv, 1, &device(), &reorder_cfg()).unwrap();
        assert!(
            report.cusparse_like.is_some(),
            "SpMV has a rowwise baseline"
        );
        assert!(report.aspt_nr.time_s > 0.0);
        assert!(report.aspt_rr.time_s > 0.0);
        // op routing and execution through the tuned path
        let x = generators::random_dense::<f32>(m.ncols(), 1, 3);
        let op = KernelOp::Spmv { x: x.data() };
        let (out, _) = tuned_execute(&m, op, &device(), &reorder_cfg()).unwrap();
        assert!(out.into_vector().is_some());
    }

    #[test]
    fn spgemm_trial_uses_the_real_b_operand() {
        let a = generators::power_law::<f32>(256, 256, 4000, 0.8, 11);
        let b = generators::uniform_random::<f32>(256, 128, 6, 5);
        let report = choose_variant_spgemm(&a, &b, &device(), &reorder_cfg()).unwrap();
        assert!(
            report.cusparse_like.is_some(),
            "SpGEMM has a naive baseline"
        );
        // op routing passes the real B through
        let op = KernelOp::Spgemm { b: &b };
        let via_op = choose_variant_for_op(&a, &op, &device(), &reorder_cfg()).unwrap();
        assert_eq!(via_op.chosen, report.chosen);
        // the B-less signature falls back to the transpose proxy
        let proxy = choose_variant(&a, Kernel::Spgemm, 1, &device(), &reorder_cfg()).unwrap();
        assert!(proxy.aspt_nr.time_s > 0.0);
        // tuned execution emits a sparse product
        let (out, _) = tuned_execute(&a, op, &device(), &reorder_cfg()).unwrap();
        assert!(out.into_sparse().is_some());
        // shape mismatch is a structured error
        let bad = generators::uniform_random::<f32>(17, 8, 3, 1);
        assert!(choose_variant_spgemm(&a, &bad, &device(), &reorder_cfg()).is_err());
    }

    #[test]
    fn rr_speedup_is_finite_on_empty_matrix() {
        // regression: with zero launch overhead an all-empty matrix
        // simulates to time 0 on every variant, and the old
        // `best_other / aspt_rr.time_s` returned NaN
        let m = CsrMatrix::<f32>::from_parts(8, 8, vec![0; 9], vec![], vec![]).unwrap();
        let report = choose_variant(&m, Kernel::Spmm, 32, &device(), &reorder_cfg()).unwrap();
        assert_eq!(report.aspt_rr.time_s, 0.0, "fixture must hit the 0/0 case");
        let speedup = report.rr_speedup_vs_best_other();
        assert!(
            speedup.is_finite(),
            "0/0 must not be NaN/inf, got {speedup}"
        );
        assert_eq!(speedup, 1.0, "no work on either side means no speedup");
    }

    #[test]
    fn rr_speedup_guards_division_by_zero_time() {
        let sim = |time_s: f64| SimReport {
            traffic: Default::default(),
            flops: 0,
            time_s,
            t_dram: 0.0,
            t_l2: 0.0,
            t_shared: 0.0,
            t_compute: 0.0,
            gflops: 0.0,
        };
        let report = |rr: f64, nr: f64| TrialReport {
            chosen: Variant::AsptRr,
            cusparse_like: None,
            aspt_nr: sim(nr),
            aspt_rr: sim(rr),
            reordering_applied: true,
        };
        assert_eq!(report(0.0, 0.0).rr_speedup_vs_best_other(), 1.0);
        assert_eq!(report(2.0, 1.0).rr_speedup_vs_best_other(), 0.5);
        // genuinely-zero RR against nonzero competition is infinite,
        // not NaN
        assert_eq!(report(0.0, 1.0).rr_speedup_vs_best_other(), f64::INFINITY);
    }

    #[test]
    fn choose_micro_width_picks_a_specialized_width() {
        let m = generators::block_diagonal::<f32>(32, 16, 24, 12, 3);
        let config = EngineConfig::builder().reorder(reorder_cfg()).build();
        let engine = Engine::prepare(&m, &config).unwrap();
        let w = choose_micro_width(&engine, 128, &device());
        assert!(
            matches!(w, Some(w) if crate::micro::MICRO_WIDTHS.contains(&w)),
            "wide operands must select a specialized width, got {w:?}"
        );
        // exactly the narrowest width is eligible at k = 8
        assert_eq!(choose_micro_width(&engine, 8, &device()), Some(8));
        // operands narrower than every specialized width run generic
        assert_eq!(choose_micro_width(&engine, 7, &device()), None);
        assert_eq!(choose_micro_width(&engine, 0, &device()), None);
    }

    #[test]
    fn trial_reports_all_positive_times() {
        let m = generators::power_law::<f32>(512, 512, 6000, 0.8, 11);
        let report = choose_variant(&m, Kernel::Spmm, 32, &device(), &reorder_cfg()).unwrap();
        assert!(report.aspt_nr.time_s > 0.0);
        assert!(report.aspt_rr.time_s > 0.0);
        assert!(report.cusparse_like.unwrap().time_s > 0.0);
    }
}
