//! Plan-cached concurrent serving layer for the ASpT-RR pipeline.
//!
//! The one-shot [`Engine`](spmm_kernels::Engine) pays the paper's Fig 5
//! preprocessing cost on every `prepare`. In a serving setting — many
//! tenants, repeated kernels over a working set of sparsity structures,
//! per-request deadlines — that cost must be paid *once per structure*
//! and amortised across every request that shares it. This crate is the
//! amortisation machinery:
//!
//! * [`MatrixFingerprint`] — a structural identity (shape + FNV-1a over
//!   `rowptr`/`colidx`, values excluded) that two matrices share iff
//!   the preprocessing pipeline would produce the same plan for both.
//! * [`PlanCache`] — a sharded, capacity-bounded LRU from fingerprint
//!   to `Arc<Engine<T>>` with coalesced preparation (a thundering herd
//!   prepares exactly once), in-place value refreshes, and live
//!   structural deltas: [`PlanCache::apply_delta`] patches a cached
//!   plan incrementally and installs the new epoch with an atomic swap
//!   — readers keep hitting the old plan until the instant the new one
//!   is ready, and a failed or faulted delta degrades to the old plan.
//! * [`ServeEngine`] — a bounded-queue worker pool with admission
//!   control ([`ServeError::Overloaded`]), per-request deadlines, and
//!   graceful degradation: a cold miss without preprocessing headroom
//!   is served by the row-wise baseline on the original CSR instead of
//!   missing its deadline.
//! * [`batch`] — multi-RHS request coalescing: workers fuse queued
//!   SpMM requests that share a sparsity structure into one k-blocked
//!   kernel pass, amortising the sparse traversal across every
//!   member's columns. Exact (each member's slice is bit-identical to
//!   its solo answer) and deadline-aware (a tighter-deadline candidate
//!   never rides along). Opt in via
//!   [`ServeConfigBuilder::batching`](engine::ServeConfigBuilder::batching).
//! * [`ShardRouter`] — fleet-scale sharding: N serve engines behind
//!   rendezvous hashing on the fingerprint, a shared read-through
//!   [`PlanStore`] tier, fleet-level stats/health aggregation and
//!   failover that warm-loads plans from the store instead of
//!   re-preparing (see the [`router`] module docs).
//! * [`run_serve_bench`] and [`run_chaos_bench`] — the `serve-bench`
//!   and `chaos-bench` presets of one traffic driver: Zipf matrix
//!   popularity over a corpus with quantised operands, concurrent
//!   clients against one engine or a sharded fleet, deterministic
//!   probes for the caching contract (serve-bench) and fault schedules
//!   with bit-exact tallies (chaos-bench).
//!
//! ```
//! use spmm_data::generators;
//! use spmm_serve::{Request, ServeConfig, ServeEngine, ServePath};
//!
//! let serve = ServeEngine::<f32>::start(ServeConfig::default());
//! let m = generators::banded::<f32>(256, 8, 4, 7);
//! let x = generators::random_dense::<f32>(m.ncols(), 16, 3);
//! let cold = serve.execute(Request::spmm(m.clone(), x.clone())).unwrap();
//! let warm = serve.execute(Request::spmm(m, x)).unwrap();
//! assert_eq!(cold.path, ServePath::FreshPlan);
//! assert_eq!(warm.path, ServePath::CachedPlan);
//! assert!(warm.preprocess.is_zero());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod bench;
pub mod cache;
pub mod chaos;
mod driver;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod router;
pub mod store;

pub use batch::BatchConfig;
pub use bench::{
    run_serve_bench, BatchProbe, BenchOp, DeltaProbe, PlanStoreProbe, ServeBenchConfig,
    ServeBenchReport, ShardProbe,
};
pub use cache::{CacheStats, PlanCache, PlanCacheConfig, PlanCacheConfigBuilder};
pub use chaos::{run_chaos_bench, ChaosBenchConfig, ChaosBenchReport};
pub use engine::{
    HealthSnapshot, Request, RequestOp, Response, ServeConfig, ServeConfigBuilder, ServeEngine,
    ServePath, ServeStats, Ticket,
};
pub use error::ServeError;
pub use fingerprint::MatrixFingerprint;
pub use router::{
    rendezvous_order, rendezvous_pick, RouterConfig, RouterConfigBuilder, RouterHealth,
    RouterStats, ShardRouter,
};
pub use store::{PlanStore, StoredPlan};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning. Every critical section in
/// this crate is a small state transition that either completes or
/// leaves the guarded state unchanged, so a lock poisoned by a
/// panicking holder is safe to keep using — the panic itself is
/// handled by the worker/cache `catch_unwind` boundaries.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
