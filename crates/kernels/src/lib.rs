//! Numerically exact CPU kernels and the end-to-end execution engine.
//!
//! The GPU is simulated ([`spmm_gpu_sim`]) for *performance*; this crate
//! supplies the *numerics* with the same execution structure, proving
//! every transformation (row reordering, tiling, remainder ordering)
//! preserves results:
//!
//! * [`spmm`] — Alg 1 row-wise SpMM (sequential reference + rayon
//!   row-parallel) and the ASpT-structured kernel (dense tiles
//!   accumulated panel-parallel + remainder).
//! * [`micro`] — monomorphized `[T; KB]` register-accumulator
//!   microkernels for the k-blocked hot path (KB ∈ {8, 16, 32}), the
//!   plan's width set from its `k_hint` by rule, bit-identical to the
//!   generic kernels.
//! * [`sddmm`] — Alg 2 SDDMM, same three variants.
//! * [`spmv`] — the dedicated `k = 1` path: flat-slice operand, scalar
//!   accumulators, bit-identical to SpMM on an `n × 1` operand.
//! * [`spgemm`] — Gustavson sparse×sparse, including the cluster-wise
//!   variant that reuses one dense accumulator per ASpT panel.
//! * [`engine`] — [`engine::Engine`]: plans the reordering (Fig 5),
//!   builds the ASpT decomposition, executes SpMM/SDDMM returning
//!   outputs **in the original row/nonzero order**, and exposes the
//!   simulated performance reports.
//! * [`autotune`] — the §4 trial-and-error strategy: run the candidate
//!   variants, keep the fastest.
//! * [`mod@format`] — the format zoo: SELL-C-σ and CSB layouts raced
//!   against the incumbent ASpT layout on the simulator. The engine
//!   itself runs one layout, its ASpT tiles.

#![warn(missing_docs)]

pub mod autotune;
pub mod engine;
pub mod format;
pub mod micro;
pub mod sddmm;
pub mod spgemm;
pub mod spmm;
pub mod spmv;

pub use autotune::{choose_format, FormatTrialReport, FORMAT_SELECTION_K_CAP};
pub use autotune::{
    choose_variant, choose_variant_for_op, choose_variant_spgemm, tuned_engine, tuned_execute,
    Kernel, TrialReport, Variant,
};
pub use engine::{Engine, EngineConfig, EngineConfigBuilder, KernelOp, Output, PrepareReport};
pub use format::{FormatChoice, FormatPayload};
pub use micro::{micro_width_for, spmm_aspt_kblocked_auto, widest_micro_width, MICRO_WIDTHS};
