//! # spmm-core — LSH-clustered row reordering for SpMM / SDDMM
//!
//! Rust reproduction of *"A Novel Data Transformation and Execution
//! Strategy for Accelerating Sparse Matrix Multiplication on GPUs"*
//! (Jiang, Hong, Agrawal — PPoPP 2020).
//!
//! The library accelerates two kernels that dominate graph neural
//! networks, collaborative filtering and sparse linear algebra:
//!
//! * **SpMM** — `Y = S · X` (sparse × tall dense),
//! * **SDDMM** — `O = (Y · Xᵀ) ⊙ S` (sampled dense-dense).
//!
//! Both are memory-bound: each nonzero of `S` pulls a whole row of `X`.
//! The paper's recipe, implemented here end to end:
//!
//! 1. **Row reordering** (round 1): cluster rows whose column sets have
//!    high Jaccard similarity — candidate pairs from MinHash LSH, then
//!    a union-find hierarchical clustering (Alg 3) — so similar rows
//!    share a row panel.
//! 2. **Adaptive Sparse Tiling**: per panel, columns with ≥2 nonzeros
//!    become dense tiles whose `X` rows are staged through shared
//!    memory; the rest stays row-wise.
//! 3. **Remainder ordering** (round 2): cluster the sparse remainder's
//!    rows into a processing order with better cache reuse.
//! 4. **Skip heuristics / trial-and-error** (§4): reordering is skipped
//!    when the matrix is already well clustered (dense ratio > 10 %,
//!    remainder average similarity > 0.1), or resolved by simulating
//!    both variants and keeping the faster.
//!
//! Numerics run on the CPU (rayon); performance is evaluated on a
//! P100-parameterised memory-hierarchy simulator ([`gpu_sim`]).
//!
//! ## Quickstart
//!
//! ```
//! use spmm_core::prelude::*;
//!
//! // a matrix whose cluster structure was destroyed by a row shuffle —
//! // the case row reordering recovers
//! let s = generators::shuffled_block_diagonal::<f32>(64, 16, 48, 16, 42);
//! let x = generators::random_dense::<f32>(s.ncols(), 64, 7);
//!
//! // prepare: plan reordering (Fig 5), tile, ready to execute
//! let engine = Engine::prepare(&s, &EngineConfig::default())?;
//! assert!(engine.plan().needs_reordering());
//!
//! // results come back in the ORIGINAL row order
//! let y = engine.spmm(&x).unwrap();
//! assert_eq!(y.nrows(), s.nrows());
//!
//! // simulated P100 performance of this configuration
//! let report = engine.simulate_spmm(64, &DeviceConfig::p100());
//! assert!(report.gflops > 0.0);
//!
//! // every preparation stage is timed; the run manifest breaks the
//! // preprocessing total down (see `spmm-rr profile` for the CLI view)
//! println!("{}", engine.manifest().render_tree());
//! # Ok::<(), SparseError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`sparse`] | CSR/COO/dense types, permutations, Matrix Market I/O |
//! | [`data`] | synthetic corpus generators |
//! | [`lsh`] | MinHash + banding candidate generation |
//! | [`reorder`] | Alg 3 clustering, Fig 5 pipeline, vertex baselines |
//! | [`aspt`] | adaptive sparse tiling |
//! | [`gpu_sim`] | P100 memory-hierarchy simulator |
//! | [`kernels`] | exact CPU kernels, [`Engine`], autotuner |
//! | [`serve`] | plan cache, fingerprints, concurrent serving engine |
//! | [`faults`] | deterministic fault injection (points, plans, clocks) |
//! | [`telemetry`] | recorder trait, span collector, run manifests |

#![warn(missing_docs)]

pub use spmm_aspt as aspt;
pub use spmm_data as data;
pub use spmm_faults as faults;
pub use spmm_formats as formats;
pub use spmm_gpu_sim as gpu_sim;
pub use spmm_kernels as kernels;
pub use spmm_lsh as lsh;
pub use spmm_reorder as reorder;
pub use spmm_serve as serve;
pub use spmm_sparse as sparse;
pub use spmm_telemetry as telemetry;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use spmm_aspt::{AsptConfig, AsptMatrix, AsptStats};
    pub use spmm_data::generators;
    pub use spmm_data::{Corpus, CorpusMatrix, CorpusProfile, MatrixClass};
    pub use spmm_faults::{
        quiesce, ClockHandle, FaultAction, FaultPlan, FaultPoint, HitSpec, ManualClock,
    };
    pub use spmm_formats::{CsbMatrix, EllMatrix, SellPMatrix};
    pub use spmm_gpu_sim::kernels::{
        simulate_sddmm_aspt, simulate_sddmm_rowwise, simulate_spgemm_clustered,
        simulate_spgemm_naive, simulate_spmm_aspt, simulate_spmm_rowwise, simulate_spmv_aspt,
        simulate_spmv_rowwise,
    };
    pub use spmm_gpu_sim::{DeviceConfig, SimReport};
    pub use spmm_kernels::sddmm::{sddmm_rowwise_par, sddmm_rowwise_seq};
    pub use spmm_kernels::spgemm::{spgemm_clustered, spgemm_gustavson_par, spgemm_gustavson_seq};
    pub use spmm_kernels::spmm::{
        spmm_aspt, spmm_aspt_kblocked, spmm_rowwise_par, spmm_rowwise_seq,
    };
    pub use spmm_kernels::spmv::{spmv_aspt, spmv_rowwise_par, spmv_rowwise_seq};
    pub use spmm_kernels::{
        choose_format, choose_variant, choose_variant_for_op, choose_variant_spgemm,
        micro_width_for, spmm_aspt_kblocked_auto, tuned_engine, tuned_execute, Engine,
        EngineConfig, EngineConfigBuilder, FormatChoice, FormatPayload, FormatTrialReport, Kernel,
        KernelOp, Output, PrepareReport, TrialReport, Variant, FORMAT_SELECTION_K_CAP,
        MICRO_WIDTHS,
    };
    pub use spmm_lsh::LshConfig;
    pub use spmm_reorder::{
        plan_reordering, ReorderConfig, ReorderConfigBuilder, ReorderMetrics, ReorderPlan,
        ReorderPolicy,
    };
    pub use spmm_serve::{
        run_chaos_bench, run_serve_bench, BatchConfig, BatchProbe, BenchOp, CacheStats,
        ChaosBenchConfig, ChaosBenchReport, DeltaProbe, HealthSnapshot, MatrixFingerprint,
        PlanCache, PlanCacheConfig, PlanStore, PlanStoreProbe, Request, RequestOp, Response,
        ServeBenchConfig, ServeBenchReport, ServeConfig, ServeEngine, ServeError, ServePath,
        ServeStats, StoredPlan, Ticket,
    };
    pub use spmm_sparse::{CooMatrix, CsrMatrix, DenseMatrix, Permutation, Scalar, SparseError};
    pub use spmm_telemetry::{
        Collector, NoopRecorder, Recorder, RunManifest, StageReport, TelemetryHandle,
    };
}

pub use prelude::{Engine, EngineConfig};

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_end_to_end_works() {
        let s = generators::shuffled_block_diagonal::<f64>(16, 8, 24, 8, 1);
        let x = generators::random_dense::<f64>(s.ncols(), 8, 2);
        let engine = Engine::prepare(&s, &EngineConfig::default()).unwrap();
        let y = engine.spmm(&x).unwrap();
        let reference = spmm_rowwise_seq(&s, &x).unwrap();
        assert!(reference.max_abs_diff(&y) < 1e-10);
        // every prepare is accounted for in the manifest
        assert!(engine.manifest().find("prepare").is_some());
    }
}
