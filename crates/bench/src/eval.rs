//! The single evaluation pass every experiment summarises.
//!
//! For each corpus matrix this runs, once:
//!
//! * the reordering pipeline (measuring wall-clock preprocessing time —
//!   the Fig 12 quantity),
//! * the Fig 9 Δ-metrics,
//! * for every requested `K`: simulated cuSPARSE-like, ASpT-NR and
//!   ASpT-RR reports for SpMM, and ASpT-NR / ASpT-RR for SDDMM.

use serde::{Deserialize, Serialize};
use spmm_core::prelude::*;

/// Options of the evaluation pass.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Corpus profile to generate.
    pub profile: CorpusProfile,
    /// Corpus / pipeline seed.
    pub seed: u64,
    /// Dense-operand widths to evaluate (the paper uses 512 and 1024).
    pub ks: Vec<usize>,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Reordering configuration.
    pub reorder: ReorderConfig,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            profile: CorpusProfile::Standard,
            seed: 2020,
            // stand-ins for the paper's 512/1024 scaled to the corpus
            // sizes; pass --k 512,1024 for the paper's exact widths
            ks: vec![256, 512],
            device: DeviceConfig::p100(),
            reorder: ReorderConfig::default(),
        }
    }
}

/// Simulated reports of the three variants for one kernel and one `K`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelEval {
    /// cuSPARSE-like row-wise baseline (SpMM only).
    pub cusparse_like: Option<SimReport>,
    /// ASpT without reordering.
    pub aspt_nr: SimReport,
    /// ASpT with row reordering.
    pub aspt_rr: SimReport,
}

impl KernelEval {
    /// Speedup of RR over NR.
    pub fn rr_vs_nr(&self) -> f64 {
        self.aspt_nr.time_s / self.aspt_rr.time_s
    }

    /// Speedup of RR over the best of NR and cuSPARSE-like.
    pub fn rr_vs_best_other(&self) -> f64 {
        let mut best = self.aspt_nr.time_s;
        if let Some(c) = &self.cusparse_like {
            best = best.min(c.time_s);
        }
        best / self.aspt_rr.time_s
    }

    /// Speedup of NR over cuSPARSE-like (None for SDDMM).
    pub fn nr_vs_cusparse(&self) -> Option<f64> {
        self.cusparse_like
            .as_ref()
            .map(|c| c.time_s / self.aspt_nr.time_s)
    }

    /// Speedup of RR over cuSPARSE-like (None for SDDMM).
    pub fn rr_vs_cusparse(&self) -> Option<f64> {
        self.cusparse_like
            .as_ref()
            .map(|c| c.time_s / self.aspt_rr.time_s)
    }
}

/// All measurements of one matrix at one `K`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KEval {
    /// The dense-operand width.
    pub k: usize,
    /// SpMM variants.
    pub spmm: KernelEval,
    /// SDDMM variants.
    pub sddmm: KernelEval,
}

/// All measurements of one corpus matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixEval {
    /// Corpus entry name.
    pub name: String,
    /// Structural class label.
    pub class: String,
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// Fig 9 Δ-metrics of the reordering.
    pub metrics: ReorderMetrics,
    /// Whether at least one reordering round ran (the "416 of 1084"
    /// predicate).
    pub needs_reordering: bool,
    /// Wall-clock preprocessing seconds (reorder + permute + tile).
    pub preprocessing_s: f64,
    /// The run manifest of this evaluation (telemetry stage tree plus
    /// counters), pre-rendered as JSON. Written to
    /// `<out>/manifests/<name>.json` by the experiments binary.
    pub manifest_json: String,
    /// Per-`K` simulated kernel reports.
    pub per_k: Vec<KEval>,
}

/// Runs the full evaluation pass over the corpus, one matrix after
/// another, so each matrix's preprocessing time (Fig 12) is taken with
/// the machine to itself; each preparation spreads its own stages over
/// the pool.
pub fn evaluate_corpus(options: &EvalOptions) -> Vec<MatrixEval> {
    let corpus = Corpus::<f32>::generate(options.profile, options.seed);
    corpus
        .matrices
        .iter()
        .map(|entry| evaluate_matrix(entry, options))
        .collect()
}

fn evaluate_matrix(entry: &CorpusMatrix<f32>, options: &EvalOptions) -> MatrixEval {
    let m = &entry.matrix;
    let device = &options.device;

    // preprocessing, timed via telemetry (Fig 12): plan + permute + tile
    let config = EngineConfig::builder().reorder(options.reorder).build();
    let engine = Engine::prepare(m, &config).expect("corpus matrices satisfy CSR invariants");
    let preprocessing_s = engine.preprocessing_time().as_secs_f64();
    let plan = engine.plan();

    // the no-reordering decomposition (ASpT-NR)
    let nr_aspt = AsptMatrix::build(m, &options.reorder.aspt);

    let per_k = options
        .ks
        .iter()
        .map(|&k| KEval {
            k,
            spmm: KernelEval {
                cusparse_like: Some(simulate_spmm_rowwise(m, k, device)),
                aspt_nr: simulate_spmm_aspt(&nr_aspt, None, k, device),
                aspt_rr: engine.simulate_spmm(k, device),
            },
            sddmm: KernelEval {
                cusparse_like: None,
                aspt_nr: simulate_sddmm_aspt(&nr_aspt, None, k, device),
                aspt_rr: engine.simulate_sddmm(k, device),
            },
        })
        .collect();

    MatrixEval {
        name: entry.name.clone(),
        class: entry.class.label().to_string(),
        nrows: m.nrows(),
        ncols: m.ncols(),
        nnz: m.nnz(),
        metrics: ReorderMetrics::from_plan(plan),
        needs_reordering: plan.needs_reordering(),
        preprocessing_s,
        // snapshot after the simulations so the manifest carries the
        // sim.* traffic counters alongside the prepare stage tree
        manifest_json: engine.manifest().to_json(true),
        per_k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> EvalOptions {
        EvalOptions {
            profile: CorpusProfile::Quick,
            ks: vec![64],
            ..Default::default()
        }
    }

    #[test]
    fn evaluation_covers_the_corpus() {
        let evals = evaluate_corpus(&quick_options());
        assert!(!evals.is_empty());
        for e in &evals {
            assert_eq!(e.per_k.len(), 1);
            assert!(e.preprocessing_s > 0.0);
            // the attached manifest is valid and consistent with the
            // preprocessing wall-clock
            let manifest = RunManifest::from_json(&e.manifest_json).unwrap();
            let prepare = manifest.find("prepare").expect("prepare stage");
            assert!((prepare.duration_s() - e.preprocessing_s).abs() < 1e-9);
            assert!(manifest.find("sim.spmm").is_some());
            let k = &e.per_k[0];
            assert!(k.spmm.cusparse_like.is_some());
            assert!(k.sddmm.cusparse_like.is_none());
            assert!(k.spmm.aspt_nr.time_s > 0.0);
            assert!(k.spmm.rr_vs_nr() > 0.0);
        }
        // at least one matrix in each regime
        assert!(evals.iter().any(|e| e.needs_reordering));
        assert!(evals.iter().any(|e| !e.needs_reordering));
    }

    #[test]
    fn speedup_helpers_are_consistent() {
        let evals = evaluate_corpus(&quick_options());
        for e in &evals {
            let k = &e.per_k[0];
            let vs_best = k.spmm.rr_vs_best_other();
            let vs_nr = k.spmm.rr_vs_nr();
            assert!(
                vs_best <= vs_nr + 1e-12,
                "best-other speedup can never exceed the NR-only speedup"
            );
            assert!(k.sddmm.nr_vs_cusparse().is_none());
        }
    }

    #[test]
    fn identical_plan_means_identical_nr_rr() {
        let evals = evaluate_corpus(&quick_options());
        for e in evals.iter().filter(|e| !e.needs_reordering) {
            let k = &e.per_k[0];
            assert_eq!(
                k.spmm.aspt_nr.time_s, k.spmm.aspt_rr.time_s,
                "{}: no reordering must mean identical kernels",
                e.name
            );
        }
    }
}
