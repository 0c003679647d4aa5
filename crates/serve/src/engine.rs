//! The multi-tenant serving loop: admission control, a worker pool,
//! deadline-aware plan acquisition and graceful degradation.
//!
//! [`ServeEngine`] turns the one-shot [`Engine`] into a long-lived
//! executor. Requests carry their matrix; the engine fingerprints it,
//! resolves a prepared plan through the shared [`PlanCache`], and runs
//! the kernel through the unified [`KernelOp`] dispatch. Three service
//! paths exist, reported per response as [`ServePath`]:
//!
//! * **CachedPlan** — the fingerprint hit a prepared plan; zero
//!   additional preprocessing is paid.
//! * **FreshPlan** — a cold miss with headroom; this request paid for
//!   `Engine::prepare` and the plan is now cached for everyone else.
//! * **Fallback** — a cold miss *without* headroom (the remaining
//!   deadline is within the preprocessing budget): the request is
//!   served by the row-wise baseline on the original CSR instead of
//!   blocking on preprocessing it cannot afford. Correct results,
//!   degraded throughput — never a missed answer.

use crate::batch::{fusable_width, fuse_operands, slice_member, BatchConfig, BatchScheduler};
use crate::cache::{CacheStats, PlanCache, PlanCacheConfig};
use crate::error::ServeError;
use crate::fingerprint::MatrixFingerprint;
use crate::lock_clean;
use crate::store::PlanStore;
use spmm_faults::{ClockHandle, FaultPoint};
use spmm_kernels::{sddmm, spgemm, spmm, spmv, Engine, EngineConfig, KernelOp, Output};
use spmm_sparse::{CsrMatrix, DenseMatrix, Scalar, SparseError};
use spmm_telemetry::{Collector, FanoutRecorder, Recorder, RunManifest, TelemetryHandle};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fault point at the top of a worker's request processing: an `Error`
/// action fails the request like a kernel execution error, a `Panic`
/// action exercises the worker's `catch_unwind` boundary
/// ([`ServeError::WorkerPanicked`]).
pub static FAULT_SERVE_WORKER: FaultPoint = FaultPoint::new("serve.worker");

/// The one kernel dispatch of the serving path: `op` on the prepared
/// plan when there is one, otherwise on the row-wise baseline over the
/// original CSR `m` (the fallback path).
fn run_op<T: Scalar>(
    engine: Option<&Engine<T>>,
    m: &CsrMatrix<T>,
    op: KernelOp<'_, T>,
) -> Result<Output<T>, ServeError> {
    match (engine, op) {
        (Some(e), op) => e.execute(op),
        (None, KernelOp::Spmm { x }) => spmm::spmm_rowwise_par(m, x).map(Output::Dense),
        (None, KernelOp::Spmv { x }) => spmv::spmv_rowwise_par(m, x).map(Output::Vector),
        (None, KernelOp::Sddmm { x, y }) => sddmm::sddmm_rowwise_par(m, x, y).map(Output::Values),
        (None, KernelOp::Spgemm { b }) => spgemm::spgemm_gustavson_par(m, b).map(Output::Sparse),
        (None, op) => Err(SparseError::InvalidStructure(format!(
            "no row-wise fallback for {:?}",
            op.op_kind()
        ))),
    }
    .map_err(ServeError::Execute)
}

/// Construction options for [`ServeEngine`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Worker threads draining the queue. Default 4.
    pub workers: usize,
    /// Admission bound: submissions beyond this many queued jobs are
    /// rejected with [`ServeError::Overloaded`]. Default 64.
    pub queue_capacity: usize,
    /// Plan-cache capacity (prepared plans kept resident). Default 32.
    pub cache_capacity: usize,
    /// Plan-cache shard count. Default 8.
    pub cache_shards: usize,
    /// The preprocessing budget: when a request's remaining deadline is
    /// within this budget, a cache miss degrades to the row-wise
    /// fallback instead of running `Engine::prepare`. Default 25 ms.
    pub preprocess_budget: Duration,
    /// Configuration for every `Engine::prepare` the cache runs.
    pub engine: EngineConfig,
    /// Optional external telemetry sink; the engine always keeps an
    /// internal collector for [`ServeEngine::manifest`], and tees every
    /// event to this handle when it is enabled.
    pub telemetry: TelemetryHandle,
    /// First backoff window after a failed prepare (see
    /// [`PlanCacheConfig::retry_backoff_base`]). Default 10 ms.
    pub retry_backoff_base: Duration,
    /// Upper bound on the raw backoff window. Default 1 s.
    pub retry_backoff_cap: Duration,
    /// Consecutive prepare failures that open a fingerprint's circuit
    /// breaker. Default 3.
    pub breaker_threshold: u32,
    /// Open-breaker cooldown before a half-open probe. Default 250 ms.
    pub breaker_cooldown: Duration,
    /// Seed for the deterministic backoff jitter. Default 0.
    pub retry_jitter_seed: u64,
    /// Time source for backoff windows and breaker cooldowns; tests
    /// inject a manual clock. Default: the system clock.
    pub clock: ClockHandle,
    /// Multi-RHS batching: when set, workers coalesce queued SpMM
    /// requests sharing a sparsity structure into one fused k-blocked
    /// kernel pass (see the [`batch`](crate::batch) module). Default:
    /// disabled.
    pub batch: Option<BatchConfig>,
    /// Optional persistent plan store ([`PlanStore`]): the plan cache
    /// reads through to it on misses, writes freshly prepared plans
    /// back, and [`ServeEngine::start`] warm-loads every compatible
    /// stored plan before traffic arrives. Default: disabled.
    pub plan_store: Option<Arc<PlanStore>>,
    /// Whether [`ServeEngine::start`] eagerly materialises every
    /// compatible stored plan into the cache when a plan store is
    /// attached. A standalone engine wants this (a restart starts
    /// warm); a [`ShardRouter`](crate::ShardRouter) shard does not —
    /// eager loading would duplicate every plan across all shards, so
    /// the router leaves warm starts to on-demand read-through by the
    /// owning shard. Default: `true`.
    pub warm_start: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cache = PlanCacheConfig::default();
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 32,
            cache_shards: 8,
            preprocess_budget: Duration::from_millis(25),
            engine: EngineConfig::default(),
            telemetry: TelemetryHandle::default(),
            retry_backoff_base: cache.retry_backoff_base,
            retry_backoff_cap: cache.retry_backoff_cap,
            breaker_threshold: cache.breaker_threshold,
            breaker_cooldown: cache.breaker_cooldown,
            retry_jitter_seed: cache.retry_jitter_seed,
            clock: cache.clock,
            batch: None,
            plan_store: None,
            warm_start: true,
        }
    }
}

impl ServeConfig {
    /// Starts a builder initialised with the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }
}

/// Builder for [`ServeConfig`].
#[derive(Debug, Clone, Default)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the worker-thread count. Must be at least 1; zero is
    /// rejected by [`build`](ServeConfigBuilder::build).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the admission-control queue bound. Must be at least 1;
    /// zero is rejected by [`build`](ServeConfigBuilder::build).
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// Sets the plan-cache capacity.
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.config.cache_capacity = cache_capacity;
        self
    }

    /// Sets the plan-cache shard count.
    pub fn cache_shards(mut self, cache_shards: usize) -> Self {
        self.config.cache_shards = cache_shards;
        self
    }

    /// Sets the preprocessing budget for the fallback decision.
    pub fn preprocess_budget(mut self, budget: Duration) -> Self {
        self.config.preprocess_budget = budget;
        self
    }

    /// Sets the engine-preparation configuration.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Sets the external telemetry sink.
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Sets the first backoff window after a failed prepare.
    pub fn retry_backoff_base(mut self, base: Duration) -> Self {
        self.config.retry_backoff_base = base;
        self
    }

    /// Sets the upper bound on the raw backoff window.
    pub fn retry_backoff_cap(mut self, cap: Duration) -> Self {
        self.config.retry_backoff_cap = cap;
        self
    }

    /// Sets the consecutive-failure count that opens the breaker.
    pub fn breaker_threshold(mut self, threshold: u32) -> Self {
        self.config.breaker_threshold = threshold;
        self
    }

    /// Sets the open-breaker cooldown before a half-open probe.
    pub fn breaker_cooldown(mut self, cooldown: Duration) -> Self {
        self.config.breaker_cooldown = cooldown;
        self
    }

    /// Sets the backoff jitter seed.
    pub fn retry_jitter_seed(mut self, seed: u64) -> Self {
        self.config.retry_jitter_seed = seed;
        self
    }

    /// Sets the time source.
    pub fn clock(mut self, clock: ClockHandle) -> Self {
        self.config.clock = clock;
        self
    }

    /// Enables multi-RHS batching with the given options.
    pub fn batching(mut self, batch: BatchConfig) -> Self {
        self.config.batch = Some(batch);
        self
    }

    /// Attaches a persistent plan store (disk read/write-through tier
    /// plus startup warm-loading).
    pub fn plan_store(mut self, store: Arc<PlanStore>) -> Self {
        self.config.plan_store = Some(store);
        self
    }

    /// Sets whether startup eagerly warm-loads every compatible plan
    /// from the attached store (see [`ServeConfig::warm_start`]).
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.config.warm_start = warm_start;
        self
    }

    /// Validates and finishes the configuration.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] when `workers` or `queue_capacity`
    /// is zero — an engine started with either would deadlock (no
    /// worker can ever drain the queue, or no request can ever be
    /// admitted) — or when batching is enabled with a zero
    /// `batch.max_batch_k`, which could never admit a member.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        if self.config.workers == 0 {
            return Err(ServeError::InvalidConfig {
                field: "workers",
                value: 0,
                minimum: 1,
            });
        }
        if self.config.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                field: "queue_capacity",
                value: 0,
                minimum: 1,
            });
        }
        if let Some(batch) = &self.config.batch {
            // a zero column cap can never admit a member
            if batch.max_batch_k == 0 {
                return Err(ServeError::InvalidConfig {
                    field: "batch.max_batch_k",
                    value: 0,
                    minimum: 1,
                });
            }
        }
        Ok(self.config)
    }
}

/// The kernel invocation a [`Request`] carries, one variant per
/// kernel family served by the engine.
///
/// Construct requests through the [`Request`] builders
/// ([`Request::spmm`], [`Request::spmv`], [`Request::sddmm`],
/// [`Request::spgemm`]) rather than assembling ops by hand: both the
/// enum and its variants are `#[non_exhaustive]`, so new kernel
/// families can be added without breaking downstream matches.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RequestOp<T> {
    /// Sparse × dense: `matrix × x`.
    #[non_exhaustive]
    Spmm {
        /// The dense operand (`matrix.ncols() × k`).
        x: Arc<DenseMatrix<T>>,
    },
    /// Sparse × vector, the dedicated `k = 1` path: `matrix × x`.
    #[non_exhaustive]
    Spmv {
        /// The dense vector operand, length `matrix.ncols()`.
        x: Arc<Vec<T>>,
    },
    /// Sampled dense-dense: `matrix ⊙ (x · yᵀ)` on the nonzeros.
    #[non_exhaustive]
    Sddmm {
        /// The row-side dense operand.
        x: Arc<DenseMatrix<T>>,
        /// The column-side dense operand.
        y: Arc<DenseMatrix<T>>,
    },
    /// Sparse × sparse (Gustavson): `matrix × b`.
    #[non_exhaustive]
    Spgemm {
        /// The sparse right-hand operand (`matrix.ncols()` rows).
        b: Arc<CsrMatrix<T>>,
    },
}

/// One unit of work: a kernel invocation on a (possibly shared)
/// matrix, with an optional deadline measured from submission.
#[derive(Debug, Clone)]
pub struct Request<T> {
    pub(crate) matrix: Arc<CsrMatrix<T>>,
    pub(crate) op: RequestOp<T>,
    pub(crate) deadline: Option<Duration>,
}

impl<T: Scalar> Request<T> {
    /// An SpMM request: `matrix × x`.
    pub fn spmm(matrix: impl Into<Arc<CsrMatrix<T>>>, x: impl Into<Arc<DenseMatrix<T>>>) -> Self {
        Request {
            matrix: matrix.into(),
            op: RequestOp::Spmm { x: x.into() },
            deadline: None,
        }
    }

    /// An SpMV request: `matrix × x` for one dense vector (`k = 1`).
    /// Served by the dedicated flat-slice SpMV path; under batching,
    /// SpMV requests sharing a structure coalesce into the fused
    /// k-blocked SpMM pass as one-column members (still bit-exact).
    pub fn spmv(matrix: impl Into<Arc<CsrMatrix<T>>>, x: impl Into<Arc<Vec<T>>>) -> Self {
        Request {
            matrix: matrix.into(),
            op: RequestOp::Spmv { x: x.into() },
            deadline: None,
        }
    }

    /// An SDDMM request: `matrix ⊙ (x · yᵀ)` sampled on the nonzeros.
    pub fn sddmm(
        matrix: impl Into<Arc<CsrMatrix<T>>>,
        x: impl Into<Arc<DenseMatrix<T>>>,
        y: impl Into<Arc<DenseMatrix<T>>>,
    ) -> Self {
        Request {
            matrix: matrix.into(),
            op: RequestOp::Sddmm {
                x: x.into(),
                y: y.into(),
            },
            deadline: None,
        }
    }

    /// An SpGEMM request: `matrix × b`, both operands sparse
    /// (Gustavson). The response carries [`Output::Sparse`].
    pub fn spgemm(matrix: impl Into<Arc<CsrMatrix<T>>>, b: impl Into<Arc<CsrMatrix<T>>>) -> Self {
        Request {
            matrix: matrix.into(),
            op: RequestOp::Spgemm { b: b.into() },
            deadline: None,
        }
    }

    /// Attaches a deadline, measured from [`ServeEngine::submit`].
    /// A request still queued when it elapses is abandoned with
    /// [`ServeError::DeadlineExceeded`]; a cold request whose remaining
    /// slack is within the preprocessing budget degrades to the
    /// row-wise fallback.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The request's matrix.
    pub fn matrix(&self) -> &CsrMatrix<T> {
        &self.matrix
    }

    /// The kernel invocation this request carries.
    pub fn op(&self) -> &RequestOp<T> {
        &self.op
    }
}

/// How a completed request was served (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServePath {
    /// Served from a cached plan: zero additional preprocessing.
    CachedPlan,
    /// This request ran `Engine::prepare` and populated the cache.
    FreshPlan,
    /// Served by the row-wise baseline on the original CSR.
    Fallback,
}

impl std::fmt::Display for ServePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServePath::CachedPlan => "cached-plan",
            ServePath::FreshPlan => "fresh-plan",
            ServePath::Fallback => "fallback",
        })
    }
}

/// A completed request: the kernel output plus its cost accounting.
#[derive(Debug, Clone)]
pub struct Response<T> {
    /// The kernel result.
    pub output: Output<T>,
    /// Which service path produced it.
    pub path: ServePath,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Preprocessing paid *by this request* — nonzero only on
    /// [`ServePath::FreshPlan`]; a cache hit pays exactly zero.
    pub preprocess: Duration,
    /// Kernel execution time.
    pub service: Duration,
}

/// A handle to an in-flight request; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket<T> {
    rx: mpsc::Receiver<Result<Response<T>, ServeError>>,
}

impl<T> Ticket<T> {
    /// Blocks until the request resolves. Reports
    /// [`ServeError::WorkerPanicked`] if the serving side dropped the
    /// reply channel without answering (a worker died mid-request) —
    /// never a hang.
    pub fn wait(self) -> Result<Response<T>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerPanicked))
    }
}

/// Monotonic serving counters (exact, not sampled).
///
/// `#[non_exhaustive]`: obtain snapshots from [`ServeEngine::stats`]
/// and read them through the typed accessors, so new counters can be
/// added without breaking downstream code. Fleet-level aggregation
/// sums snapshots with [`ServeStats::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that produced a response.
    pub completed: u64,
    /// Requests that resolved to an error after admission.
    pub failed: u64,
    /// Requests served by the row-wise fallback.
    pub fallbacks: u64,
    /// Requests abandoned in the queue past their deadline.
    pub deadline_exceeded: u64,
    /// Fallback servings caused by a quarantined (poisoned)
    /// fingerprint — a subset of [`fallbacks`](ServeStats::fallbacks).
    pub quarantined: u64,
    /// Fused batches executed (each covers at least two requests).
    pub batches: u64,
    /// Requests served as part of a fused batch.
    pub batched_requests: u64,
    /// Fusion candidates left queued because their remaining deadline
    /// was tighter than the batch's.
    pub batch_deadline_skips: u64,
}

impl ServeStats {
    /// Requests accepted into the queue.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Requests rejected by admission control.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Requests that produced a response.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests that resolved to an error after admission.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Requests served by the row-wise fallback.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Requests abandoned in the queue past their deadline.
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded
    }

    /// Fallback servings caused by a quarantined fingerprint.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Fused batches executed.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Requests served as part of a fused batch.
    pub fn batched_requests(&self) -> u64 {
        self.batched_requests
    }

    /// Fusion candidates skipped for deadline reasons.
    pub fn batch_deadline_skips(&self) -> u64 {
        self.batch_deadline_skips
    }

    /// Component-wise sum of two snapshots — the fleet view a
    /// [`ShardRouter`](crate::ShardRouter) aggregates over its shards.
    #[must_use]
    pub fn merge(&self, other: &ServeStats) -> ServeStats {
        ServeStats {
            submitted: self.submitted + other.submitted,
            rejected: self.rejected + other.rejected,
            completed: self.completed + other.completed,
            failed: self.failed + other.failed,
            fallbacks: self.fallbacks + other.fallbacks,
            deadline_exceeded: self.deadline_exceeded + other.deadline_exceeded,
            quarantined: self.quarantined + other.quarantined,
            batches: self.batches + other.batches,
            batched_requests: self.batched_requests + other.batched_requests,
            batch_deadline_skips: self.batch_deadline_skips + other.batch_deadline_skips,
        }
    }
}

/// A point-in-time health/readiness snapshot of the serving engine
/// (see [`ServeEngine::health`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct HealthSnapshot {
    /// Jobs currently waiting in the admission queue.
    pub queue_depth: usize,
    /// The admission bound.
    pub queue_capacity: usize,
    /// Worker threads currently inside their serving loop.
    pub workers_alive: usize,
    /// Worker threads the engine started with.
    pub workers_total: usize,
    /// Requests whose processing panicked past `catch_unwind`.
    pub worker_panics: u64,
    /// Whether admission control is accepting new work.
    pub accepting: bool,
    /// The plan cache's counter snapshot.
    pub cache: CacheStats,
    /// Fingerprints whose circuit breaker is currently open.
    pub open_breakers: usize,
    /// Fingerprints quarantined as poisoned (served by fallback).
    pub poisoned_plans: usize,
}

impl HealthSnapshot {
    /// Readiness: accepting work and at least one live worker to do it.
    pub fn ready(&self) -> bool {
        self.accepting && self.workers_alive > 0
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// The admission bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Worker threads currently inside their serving loop.
    pub fn workers_alive(&self) -> usize {
        self.workers_alive
    }

    /// Worker threads the engine started with.
    pub fn workers_total(&self) -> usize {
        self.workers_total
    }

    /// Requests whose processing panicked past `catch_unwind`.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics
    }

    /// Whether admission control is accepting new work.
    pub fn accepting(&self) -> bool {
        self.accepting
    }

    /// The plan cache's counter snapshot.
    pub fn cache(&self) -> &CacheStats {
        &self.cache
    }

    /// Fingerprints whose circuit breaker is currently open.
    pub fn open_breakers(&self) -> usize {
        self.open_breakers
    }

    /// Fingerprints quarantined as poisoned.
    pub fn poisoned_plans(&self) -> usize {
        self.poisoned_plans
    }

    /// Component-wise fleet aggregation over two snapshots: gauges and
    /// counters sum; `accepting` is true when *any* side accepts. On a
    /// merged snapshot [`ready`](HealthSnapshot::ready) therefore reads
    /// as "some shard accepts and some shard has live workers" — for
    /// per-shard readiness routing, consult
    /// [`RouterHealth`](crate::RouterHealth) instead, which keeps the
    /// unmerged snapshots.
    #[must_use]
    pub fn merge(&self, other: &HealthSnapshot) -> HealthSnapshot {
        HealthSnapshot {
            queue_depth: self.queue_depth + other.queue_depth,
            queue_capacity: self.queue_capacity + other.queue_capacity,
            workers_alive: self.workers_alive + other.workers_alive,
            workers_total: self.workers_total + other.workers_total,
            worker_panics: self.worker_panics + other.worker_panics,
            accepting: self.accepting || other.accepting,
            cache: self.cache.merge(&other.cache),
            open_breakers: self.open_breakers + other.open_breakers,
            poisoned_plans: self.poisoned_plans + other.poisoned_plans,
        }
    }
}

pub(crate) struct Job<T> {
    pub(crate) request: Request<T>,
    pub(crate) enqueued: Instant,
    pub(crate) reply: mpsc::Sender<Result<Response<T>, ServeError>>,
    /// The matrix's fingerprint, computed at most once per job: filled
    /// in at submission when the caller already hashed the matrix (the
    /// router does), otherwise on first use.
    fingerprint: OnceLock<MatrixFingerprint>,
}

impl<T: Scalar> Job<T> {
    pub(crate) fn new(
        request: Request<T>,
        reply: mpsc::Sender<Result<Response<T>, ServeError>>,
        fingerprint: Option<MatrixFingerprint>,
    ) -> Self {
        Job {
            request,
            enqueued: Instant::now(),
            reply,
            fingerprint: fingerprint.map(OnceLock::from).unwrap_or_default(),
        }
    }

    pub(crate) fn fingerprint(&self) -> MatrixFingerprint {
        *self
            .fingerprint
            .get_or_init(|| MatrixFingerprint::of(&self.request.matrix))
    }
}

/// What the plan-acquisition ladder resolved for one structure.
struct Plan<T> {
    /// The prepared plan, or `None` for the row-wise fallback.
    engine: Option<Arc<Engine<T>>>,
    path: ServePath,
    /// Preprocessing this acquisition paid (nonzero only when fresh).
    preprocess: Duration,
    /// The fallback is due to a quarantined (poisoned) fingerprint.
    quarantined: bool,
}

impl<T> Plan<T> {
    fn cached(engine: Arc<Engine<T>>) -> Self {
        Plan {
            engine: Some(engine),
            path: ServePath::CachedPlan,
            preprocess: Duration::ZERO,
            quarantined: false,
        }
    }

    fn fallback(quarantined: bool) -> Self {
        Plan {
            engine: None,
            path: ServePath::Fallback,
            preprocess: Duration::ZERO,
            quarantined,
        }
    }
}

struct Inner<T> {
    queue: Mutex<VecDeque<Job<T>>>,
    available: Condvar,
    queue_capacity: usize,
    shutdown: AtomicBool,
    cache: PlanCache<T>,
    engine_config: EngineConfig,
    preprocess_budget: Duration,
    telemetry: TelemetryHandle,
    collector: Arc<Collector>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    fallbacks: AtomicU64,
    deadline_exceeded: AtomicU64,
    quarantined: AtomicU64,
    worker_panics: AtomicU64,
    workers_alive: AtomicUsize,
    batch: Option<BatchScheduler>,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batch_deadline_skips: AtomicU64,
}

/// Decrements the live-worker gauge however the worker loop exits.
struct WorkerLiveness<'a>(&'a AtomicUsize);

impl Drop for WorkerLiveness<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl<T: Scalar> Inner<T> {
    fn count(&self, counter: &AtomicU64, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter(name, 1);
    }

    /// The plan-acquisition ladder every request goes through. With a
    /// tight deadline (`remaining` within the preprocessing budget) only
    /// a resident plan is used and a miss degrades to the fallback: a
    /// cold request must not start, or wait on, a prepare it cannot
    /// afford. Otherwise the cache prepares the plan, or waits for the
    /// one in flight. A fingerprint that cannot get a plan right now —
    /// quarantined as poisoned, behind an open breaker or inside a
    /// backoff window — is still served exactly by the row-wise
    /// fallback, provided the matrix itself is sound. Only an actual
    /// prepare attempt's error reaches the client.
    fn acquire_plan(
        &self,
        fp: MatrixFingerprint,
        matrix: &CsrMatrix<T>,
        remaining: Option<Duration>,
    ) -> Result<Plan<T>, ServeError> {
        if remaining.is_some_and(|r| r <= self.preprocess_budget) {
            return Ok(self
                .cache
                .try_get(&fp)
                .map_or_else(|| Plan::fallback(false), Plan::cached));
        }
        match self
            .cache
            .get_or_prepare(fp, || Engine::prepare(matrix, &self.engine_config))
        {
            Ok((engine, true)) => Ok(Plan {
                preprocess: engine.preprocessing_time(),
                engine: Some(engine),
                path: ServePath::FreshPlan,
                quarantined: false,
            }),
            Ok((engine, false)) => Ok(Plan::cached(engine)),
            Err(
                err @ (ServeError::PoisonedPlan
                | ServeError::BreakerOpen { .. }
                | ServeError::RetryBackoff { .. }),
            ) => {
                if matrix.check_invariants().is_err() {
                    return Err(err);
                }
                Ok(Plan::fallback(matches!(err, ServeError::PoisonedPlan)))
            }
            Err(err) => Err(err),
        }
    }

    /// Runs the live jobs of a group on one plan with one kernel call: a
    /// lone job runs its own op; two or more (SpMM/SpMV over one
    /// structure) run one [`KernelOp::Spmm`] over their concatenated
    /// operands. SpMM never mixes columns, so each member's slice of the
    /// fused output is bit-identical to its solo answer on the same
    /// service path.
    fn execute_group(
        &self,
        engine: Option<&Engine<T>>,
        jobs: &[&Job<T>],
    ) -> Result<Vec<Output<T>>, ServeError> {
        let m = &jobs[0].request.matrix;
        if let [job] = jobs {
            let op = match &job.request.op {
                RequestOp::Spmm { x } => KernelOp::Spmm { x },
                RequestOp::Spmv { x } => KernelOp::Spmv { x },
                RequestOp::Sddmm { x, y } => KernelOp::Sddmm { x, y },
                RequestOp::Spgemm { b } => KernelOp::Spgemm { b },
            };
            return run_op(engine, m, op).map(|o| vec![o]);
        }
        let (fused, offsets) = fuse_operands(jobs);
        let Output::Dense(y) = run_op(engine, m, KernelOp::Spmm { x: &fused })? else {
            return Err(ServeError::Execute(SparseError::InvalidStructure(
                "fused SpMM produced a non-dense output".into(),
            )));
        };
        Ok(jobs
            .iter()
            .zip(offsets)
            .map(|(job, offset)| slice_member(&y, offset, &job.request.op))
            .collect())
    }

    /// Serves a group of jobs over one structure — a lone job, or jobs
    /// the batch scheduler fused — returning one result per job, in
    /// order. Jobs whose deadline passed in the queue are answered
    /// first; the rest share one [`acquire_plan`](Self::acquire_plan)
    /// under the tightest remaining deadline among them.
    fn serve_group(&self, jobs: &[Job<T>]) -> Vec<Result<Response<T>, ServeError>> {
        if jobs.len() > 1 {
            let cols: usize = jobs.iter().map(|j| fusable_width(&j.request.op)).sum();
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("serve.batch.batches", 1);
            self.batched_requests
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            self.telemetry
                .counter("serve.batch.fused_requests", jobs.len() as u64);
            self.telemetry
                .counter("serve.batch.fused_cols", cols as u64);
        }
        // the worker fault point fires once per kernel pass: a fused
        // pass fails (or panics) as a unit, exactly like a solo one
        if let Err(e) = FAULT_SERVE_WORKER.fire() {
            let err = ServeError::Execute(SparseError::InvalidStructure(e.to_string()));
            return jobs.iter().map(|_| Err(err.clone())).collect();
        }
        let waits: Vec<Duration> = jobs.iter().map(|j| j.enqueued.elapsed()).collect();
        let mut live = Vec::with_capacity(jobs.len());
        let mut results = Vec::with_capacity(jobs.len());
        for (i, (job, &waited)) in jobs.iter().zip(&waits).enumerate() {
            if job.request.deadline.is_some_and(|d| waited >= d) {
                self.count(&self.deadline_exceeded, "serve.deadline_exceeded");
                results.push(Err(ServeError::DeadlineExceeded { waited }));
            } else {
                live.push(i);
                // replaced below, once the live jobs are served
                results.push(Err(ServeError::WorkerPanicked));
            }
        }
        let Some(&head) = live.first() else {
            return results;
        };
        let remaining = live
            .iter()
            .filter_map(|&i| jobs[i].request.deadline.map(|d| d.saturating_sub(waits[i])))
            .min();
        let head = &jobs[head];
        let served = self
            .acquire_plan(head.fingerprint(), &head.request.matrix, remaining)
            .and_then(|plan| {
                for _ in &live {
                    if plan.quarantined {
                        self.count(&self.quarantined, "serve.quarantined");
                    }
                    if plan.engine.is_none() {
                        self.count(&self.fallbacks, "serve.fallback");
                    }
                }
                let members: Vec<&Job<T>> = live.iter().map(|&i| &jobs[i]).collect();
                let start = Instant::now();
                let outputs = self.execute_group(plan.engine.as_deref(), &members)?;
                Ok((plan, outputs, start.elapsed()))
            });
        match served {
            Ok((plan, outputs, service)) => {
                for (&i, output) in live.iter().zip(outputs) {
                    results[i] = Ok(Response {
                        output,
                        path: plan.path,
                        queue_wait: waits[i],
                        preprocess: plan.preprocess,
                        service,
                    });
                }
            }
            Err(err) => {
                for &i in &live {
                    results[i] = Err(err.clone());
                }
            }
        }
        results
    }

    fn worker_loop(&self) {
        self.workers_alive.fetch_add(1, Ordering::Release);
        let _liveness = WorkerLiveness(&self.workers_alive);
        loop {
            let job = {
                let mut queue = lock_clean(&self.queue);
                loop {
                    // drain what was admitted even during shutdown: an
                    // accepted request always gets an answer
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        break None;
                    }
                    queue = self
                        .available
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(job) = job else { return };
            let group = match &self.batch {
                Some(sched) => {
                    let mut queue = lock_clean(&self.queue);
                    let (group, skipped) = sched.collect(job, &mut queue);
                    drop(queue);
                    if skipped > 0 {
                        self.batch_deadline_skips
                            .fetch_add(skipped, Ordering::Relaxed);
                        self.telemetry.counter("serve.batch.deadline_skip", skipped);
                    }
                    group
                }
                None => vec![job],
            };
            // a panicking kernel (or prepare) must not take the worker
            // down with it: every member sees WorkerPanicked instead
            let results = catch_unwind(AssertUnwindSafe(|| self.serve_group(&group)))
                .unwrap_or_else(|_| {
                    self.count(&self.worker_panics, "serve.worker.panic");
                    group
                        .iter()
                        .map(|_| Err(ServeError::WorkerPanicked))
                        .collect()
                });
            for (job, result) in group.iter().zip(results) {
                match &result {
                    Ok(_) => self.count(&self.completed, "serve.completed"),
                    Err(_) => self.count(&self.failed, "serve.failed"),
                }
                let _ = job.reply.send(result);
            }
        }
    }
}

/// A plan-cached, deadline-aware, multi-tenant kernel executor (see
/// the module docs for the service paths).
///
/// ```
/// use spmm_data::generators;
/// use spmm_serve::{Request, ServeConfig, ServeEngine, ServePath};
///
/// let serve = ServeEngine::<f64>::start(ServeConfig::default());
/// let m = generators::banded::<f64>(256, 8, 4, 7);
/// let x = generators::random_dense::<f64>(m.ncols(), 16, 3);
///
/// // cold: this request pays for preprocessing...
/// let first = serve.execute(Request::spmm(m.clone(), x.clone())).unwrap();
/// assert_eq!(first.path, ServePath::FreshPlan);
/// // ...warm: the same structure is served from the cached plan
/// let second = serve.execute(Request::spmm(m, x)).unwrap();
/// assert_eq!(second.path, ServePath::CachedPlan);
/// assert!(second.preprocess.is_zero());
/// ```
pub struct ServeEngine<T: Scalar> {
    inner: Arc<Inner<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Scalar> std::fmt::Debug for ServeEngine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.inner.queue_capacity)
            .field("cache", &self.inner.cache.stats())
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> ServeEngine<T> {
    /// Spawns the worker pool and returns the running engine.
    pub fn start(config: ServeConfig) -> Self {
        let collector = Arc::new(Collector::new());
        let telemetry = if config.telemetry.is_enabled() {
            TelemetryHandle::new(Arc::new(FanoutRecorder::new(vec![
                collector.clone() as Arc<dyn Recorder>,
                config.telemetry.recorder(),
            ])))
        } else {
            TelemetryHandle::new(collector.clone())
        };
        let mut cache_config = PlanCacheConfig::builder()
            .capacity(config.cache_capacity)
            .shards(config.cache_shards)
            .telemetry(telemetry.clone())
            .retry_backoff_base(config.retry_backoff_base)
            .retry_backoff_cap(config.retry_backoff_cap)
            .breaker_threshold(config.breaker_threshold)
            .breaker_cooldown(config.breaker_cooldown)
            .retry_jitter_seed(config.retry_jitter_seed)
            .clock(config.clock.clone());
        if let Some(store) = &config.plan_store {
            cache_config = cache_config.store(Arc::clone(store));
        }
        let cache = PlanCache::new(cache_config.build());
        if config.warm_start {
            if let Some(store) = &config.plan_store {
                Self::warm_load(store, &cache, &telemetry);
            }
        }
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            cache,
            engine_config: config.engine,
            preprocess_budget: config.preprocess_budget,
            telemetry,
            collector,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(0),
            batch: config.batch.map(BatchScheduler::new),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            batch_deadline_skips: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        ServeEngine { inner, workers }
    }

    /// Materialises every compatible plan in `store` into the cache
    /// before traffic arrives, so a restarted process starts warm. A
    /// plan counts as `serve.store.warm` when seeded; files for other
    /// scalar widths are skipped silently, and unreadable or stale
    /// files count as `serve.store.reject` without blocking startup.
    fn warm_load(store: &PlanStore, cache: &PlanCache<T>, telemetry: &TelemetryHandle) {
        let plans = match store.list() {
            Ok(plans) => plans,
            Err(_) => {
                telemetry.counter("serve.store.reject", 1);
                return;
            }
        };
        for plan in plans {
            if plan.scalar_bytes != T::BYTES {
                continue;
            }
            match store.load::<T>(&plan.fingerprint, telemetry) {
                Ok(Some(engine)) => {
                    if cache.insert_ready(plan.fingerprint, Arc::new(engine)) {
                        telemetry.counter("serve.store.warm", 1);
                    }
                }
                Ok(None) => {}
                Err(_) => telemetry.counter("serve.store.reject", 1),
            }
        }
    }

    /// Enqueues a request, returning a [`Ticket`] to redeem for the
    /// response.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the queue is at capacity or the
    /// engine is shutting down — the request was never enqueued.
    pub fn submit(&self, request: Request<T>) -> Result<Ticket<T>, ServeError> {
        self.submit_fingerprinted(request, None)
    }

    /// [`submit`](Self::submit) for a caller that already hashed the
    /// request's matrix: the job carries `fingerprint` instead of
    /// recomputing it.
    pub(crate) fn submit_fingerprinted(
        &self,
        request: Request<T>,
        fingerprint: Option<MatrixFingerprint>,
    ) -> Result<Ticket<T>, ServeError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = lock_clean(&self.inner.queue);
            if self.inner.shutdown.load(Ordering::Acquire)
                || queue.len() >= self.inner.queue_capacity
            {
                let queue_depth = queue.len();
                drop(queue);
                self.inner.count(&self.inner.rejected, "serve.rejected");
                return Err(ServeError::Overloaded {
                    queue_depth,
                    queue_capacity: self.inner.queue_capacity,
                });
            }
            queue.push_back(Job::new(request, tx, fingerprint));
        }
        self.inner.count(&self.inner.submitted, "serve.submitted");
        self.inner.available.notify_one();
        Ok(Ticket { rx })
    }

    /// Submits and waits: the synchronous convenience path.
    pub fn execute(&self, request: Request<T>) -> Result<Response<T>, ServeError> {
        self.submit(request)?.wait()
    }

    /// Refreshes the cached plan for `fp` in place with new values
    /// (original nonzero order); see [`PlanCache::update_values`].
    /// Returns `Ok(false)` when nothing is cached under `fp`.
    pub fn update_values(&self, fp: &MatrixFingerprint, values: &[T]) -> Result<bool, ServeError> {
        self.inner.cache.update_values(fp, values)
    }

    /// Applies a structural delta to the plan cached under `fp`,
    /// installing the incrementally re-prepared plan under the
    /// post-delta structure's fingerprint (returned). Requests carrying
    /// the old structure keep hitting the old plan throughout and
    /// after; requests carrying the new structure hit the new plan from
    /// the moment this returns. Returns `Ok(None)` when nothing is
    /// cached under `fp` — the new structure will simply be prepared
    /// from scratch on first contact. See [`PlanCache::apply_delta`]
    /// for the epoch-swap and crash-safety protocol, and
    /// [`Engine::apply_delta`] for what is recomputed.
    ///
    /// # Errors
    /// [`ServeError::Prepare`] when the delta is malformed (structured
    /// `SparseError::Delta*` variants), when the incremental re-prepare
    /// fails or is killed by an injected fault, or when the new epoch
    /// cannot be persisted; in every case the old plan remains fully
    /// serveable.
    pub fn apply_delta(
        &self,
        fp: &MatrixFingerprint,
        added: &[(usize, usize, T)],
        removed: &[(usize, usize)],
    ) -> Result<Option<MatrixFingerprint>, ServeError> {
        self.inner.cache.apply_delta(fp, added, removed)
    }

    /// Snapshots the serving counters.
    pub fn stats(&self) -> ServeStats {
        let i = &self.inner;
        ServeStats {
            submitted: i.submitted.load(Ordering::Relaxed),
            rejected: i.rejected.load(Ordering::Relaxed),
            completed: i.completed.load(Ordering::Relaxed),
            failed: i.failed.load(Ordering::Relaxed),
            fallbacks: i.fallbacks.load(Ordering::Relaxed),
            deadline_exceeded: i.deadline_exceeded.load(Ordering::Relaxed),
            quarantined: i.quarantined.load(Ordering::Relaxed),
            batches: i.batches.load(Ordering::Relaxed),
            batched_requests: i.batched_requests.load(Ordering::Relaxed),
            batch_deadline_skips: i.batch_deadline_skips.load(Ordering::Relaxed),
        }
    }

    /// Snapshots the engine's health/readiness: queue pressure, worker
    /// liveness, breaker states and quarantined fingerprints — the
    /// fields a readiness probe or operator dashboard branches on.
    pub fn health(&self) -> HealthSnapshot {
        let i = &self.inner;
        let queue_depth = lock_clean(&i.queue).len();
        HealthSnapshot {
            queue_depth,
            queue_capacity: i.queue_capacity,
            workers_alive: i.workers_alive.load(Ordering::Acquire),
            workers_total: self.workers.len(),
            worker_panics: i.worker_panics.load(Ordering::Relaxed),
            accepting: !i.shutdown.load(Ordering::Acquire),
            cache: i.cache.stats(),
            open_breakers: i.cache.open_breakers(),
            poisoned_plans: i.cache.poisoned_len(),
        }
    }

    /// Snapshots the plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Direct access to the plan cache (e.g. to `remove` a poisoned
    /// entry).
    pub fn cache(&self) -> &PlanCache<T> {
        &self.inner.cache
    }

    /// The engine's telemetry handle: `serve.*` counters land here,
    /// and callers may record their own gauges/meta into the same
    /// manifest (the bench driver does).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.inner.telemetry
    }

    /// Snapshots the internal collector as a run manifest. All
    /// `serve.*` and `serve.cache.*` counters appear in its run
    /// totals, exact under concurrency.
    pub fn manifest(&self) -> RunManifest {
        self.inner.collector.manifest()
    }

    /// Stops accepting work and wakes idle workers. Already-admitted
    /// jobs are still drained and answered. Called automatically on
    /// drop.
    pub fn shutdown(&self) {
        // the queue lock orders the flag against sleeping workers:
        // nobody can re-check the flag mid-wait and then sleep forever
        let _queue = lock_clean(&self.inner.queue);
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.available.notify_all();
    }
}

impl<T: Scalar> Drop for ServeEngine<T> {
    fn drop(&mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_data::generators;

    fn small_serve(workers: usize, queue: usize) -> ServeEngine<f64> {
        ServeEngine::start(
            ServeConfig::builder()
                .workers(workers)
                .queue_capacity(queue)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn builder_rejects_configs_that_would_deadlock() {
        let err = ServeConfig::builder().workers(0).build().unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidConfig {
                field: "workers",
                value: 0,
                minimum: 1,
            }
        );
        assert!(err.to_string().contains("workers = 0"), "{err}");
        let err = ServeConfig::builder()
            .queue_capacity(0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidConfig {
                field: "queue_capacity",
                value: 0,
                minimum: 1,
            }
        );
        // the defaults and any positive pair build fine
        assert!(ServeConfig::builder().build().is_ok());
        assert!(ServeConfig::builder()
            .workers(1)
            .queue_capacity(1)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_a_zero_batch_cap() {
        // assembled without the (clamping) setter, the zero cap is
        // caught at build time with a structured error
        let batch = BatchConfig { max_batch_k: 0 };
        let err = ServeConfig::builder().batching(batch).build().unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidConfig {
                field: "batch.max_batch_k",
                value: 0,
                minimum: 1,
            }
        );
        assert!(ServeConfig::builder()
            .batching(BatchConfig::default())
            .build()
            .is_ok());
    }

    #[test]
    fn sddmm_requests_are_served() {
        let serve = small_serve(2, 16);
        let m = generators::uniform_random::<f64>(96, 80, 5, 9);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 1);
        let y = generators::random_dense::<f64>(m.nrows(), 8, 2);
        let expected = sddmm::sddmm_rowwise_seq(&m, &x, &y).unwrap();
        let resp = serve.execute(Request::sddmm(m, x, y)).unwrap();
        let got = resp.output.into_values().unwrap();
        let diff = expected
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-10, "SDDMM deviates by {diff}");
    }

    #[test]
    fn sddmm_with_a_y_of_the_wrong_height_is_an_execute_error() {
        // a plan that reorders rows, so Y goes through the row gather
        let aspt = spmm_aspt::AsptConfig {
            panel_height: 16,
            min_col_nnz: 2,
            tile_width: 32,
        };
        let reorder = spmm_reorder::ReorderConfig::builder().aspt(aspt).build();
        let config = ServeConfig::builder().workers(1);
        let serve = ServeEngine::<f64>::start(
            config
                .engine(EngineConfig::builder().reorder(reorder).build())
                .build()
                .unwrap(),
        );
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 7);
        let fp = MatrixFingerprint::of(&m);
        let x = generators::random_dense::<f64>(m.ncols(), 4, 1);
        // the first request runs on a fresh plan, the second on the cached one
        for rows in [m.nrows() - 1, m.nrows() + 1] {
            let y = generators::random_dense::<f64>(rows, 4, 2);
            let err = serve
                .execute(Request::sddmm(m.clone(), x.clone(), y))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::Execute(SparseError::DimensionMismatch { .. })
                ),
                "{rows} rows: {err:?}"
            );
            let plan = serve.cache().try_get(&fp).unwrap();
            assert!(!plan.plan().row_perm.is_identity(), "needs the gather");
        }
        assert_eq!(serve.health().worker_panics, 0);
    }

    #[test]
    fn spmv_requests_ride_cold_warm_and_fallback_paths() {
        let serve = small_serve(2, 16);
        let m = generators::uniform_random::<f64>(128, 96, 6, 13);
        let v: Vec<f64> = generators::random_dense::<f64>(m.ncols(), 1, 2)
            .data()
            .to_vec();
        let expected = spmv::spmv_rowwise_seq(&m, &v).unwrap();

        let cold = serve.execute(Request::spmv(m.clone(), v.clone())).unwrap();
        assert_eq!(cold.path, ServePath::FreshPlan);
        let warm = serve.execute(Request::spmv(m.clone(), v.clone())).unwrap();
        assert_eq!(warm.path, ServePath::CachedPlan);
        for resp in [cold, warm] {
            let got = resp.output.into_vector().unwrap();
            let diff = expected
                .iter()
                .zip(&got)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-10, "SpMV deviates by {diff}");
        }

        // tight deadline + cold structure ⇒ the row-wise SpMV fallback
        let cold_m = generators::uniform_random::<f64>(96, 96, 5, 99);
        let cold_v: Vec<f64> = generators::random_dense::<f64>(96, 1, 3).data().to_vec();
        let fallback_expected = spmv::spmv_rowwise_seq(&cold_m, &cold_v).unwrap();
        let deadline = serve.inner.preprocess_budget;
        let resp = serve
            .execute(Request::spmv(cold_m, cold_v).deadline(deadline))
            .unwrap();
        assert_eq!(resp.path, ServePath::Fallback);
        assert_eq!(
            resp.output.into_vector().unwrap(),
            fallback_expected,
            "the fallback is the sequential reference bit for bit"
        );
    }

    #[test]
    fn spgemm_requests_ride_cold_warm_and_fallback_paths() {
        let serve = small_serve(2, 16);
        let m = generators::uniform_random::<f64>(128, 96, 6, 17);
        let b = Arc::new(generators::uniform_random::<f64>(96, 64, 4, 23));
        let expected = spgemm::spgemm_gustavson_seq(&m, &b).unwrap();

        let cold = serve
            .execute(Request::spgemm(m.clone(), b.clone()))
            .unwrap();
        assert_eq!(cold.path, ServePath::FreshPlan);
        let warm = serve
            .execute(Request::spgemm(m.clone(), b.clone()))
            .unwrap();
        assert_eq!(warm.path, ServePath::CachedPlan);
        for resp in [cold, warm] {
            let got = resp.output.into_sparse().unwrap();
            assert!(got.same_structure(&expected), "structure must match");
            let diff = got
                .values()
                .iter()
                .zip(expected.values())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-10, "SpGEMM deviates by {diff}");
        }

        // tight deadline + cold structure ⇒ the Gustavson fallback
        let cold_m = generators::uniform_random::<f64>(96, 96, 5, 101);
        let cold_b = generators::uniform_random::<f64>(96, 48, 3, 7);
        let fallback_expected = spgemm::spgemm_gustavson_seq(&cold_m, &cold_b).unwrap();
        let deadline = serve.inner.preprocess_budget;
        let resp = serve
            .execute(Request::spgemm(cold_m, cold_b).deadline(deadline))
            .unwrap();
        assert_eq!(resp.path, ServePath::Fallback);
        let got = resp.output.into_sparse().unwrap();
        assert!(got.same_structure(&fallback_expected));
        assert_eq!(got.values(), fallback_expected.values());
    }

    #[test]
    fn spmv_requests_fuse_with_spmm_and_stay_bit_exact() {
        let m = Arc::new(generators::uniform_random::<f64>(128, 128, 6, 79));
        let x = Arc::new(generators::random_dense::<f64>(128, 8, 1));
        let vs: Vec<Arc<Vec<f64>>> = (0..2)
            .map(|s| {
                Arc::new(
                    generators::random_dense::<f64>(128, 1, 40 + s)
                        .data()
                        .to_vec(),
                )
            })
            .collect();
        let decoy_m = Arc::new(generators::uniform_random::<f64>(512, 512, 24, 103));
        let decoy_x = Arc::new(generators::random_dense::<f64>(512, 4, 9));

        let batched = ServeEngine::start(
            ServeConfig::builder()
                .workers(1)
                .queue_capacity(32)
                .batching(BatchConfig::default())
                .build()
                .unwrap(),
        );
        // warm the shared structure, pin the worker on a cold decoy,
        // then pile one SpMM and two SpMV requests up behind it
        batched
            .execute(Request::spmm(m.clone(), x.clone()))
            .unwrap();
        let decoy = batched.submit(Request::spmm(decoy_m, decoy_x)).unwrap();
        let spmm_ticket = batched.submit(Request::spmm(m.clone(), x.clone())).unwrap();
        let spmv_tickets: Vec<_> = vs
            .iter()
            .map(|v| batched.submit(Request::spmv(m.clone(), v.clone())).unwrap())
            .collect();
        decoy.wait().unwrap();
        let spmm_resp = spmm_ticket.wait().unwrap();
        let spmv_resps: Vec<Response<f64>> = spmv_tickets
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect();

        let solo = ServeEngine::start(
            ServeConfig::builder()
                .workers(1)
                .queue_capacity(32)
                .build()
                .unwrap(),
        );
        assert_eq!(spmm_resp.path, ServePath::CachedPlan);
        let spmm_ref = solo.execute(Request::spmm(m.clone(), x.clone())).unwrap();
        assert_eq!(
            spmm_ref.output.into_dense().unwrap().data(),
            spmm_resp.output.into_dense().unwrap().data(),
            "the dense member must stay bit-identical"
        );
        for (v, resp) in vs.iter().zip(&spmv_resps) {
            let reference = solo.execute(Request::spmv(m.clone(), v.clone())).unwrap();
            assert_eq!(
                reference.output.into_vector().unwrap(),
                resp.output.clone().into_vector().unwrap(),
                "a fused SpMV slice must be bit-identical to the solo answer"
            );
        }
        let stats = batched.stats();
        assert!(stats.batches >= 1, "requests never fused: {stats:?}");
        assert!(stats.batched_requests >= 2);
        assert_eq!(stats.failed, 0);
        let manifest = batched.manifest();
        assert_eq!(manifest.counters["serve.batch.batches"], stats.batches);
        assert_eq!(
            manifest.counters["serve.batch.fused_requests"],
            stats.batched_requests
        );
    }

    /// Puts a fresh engine's cache into one ladder state and returns the
    /// matrix the request carries.
    type LadderSetup = fn(&ServeEngine<f64>, &spmm_faults::ManualClock) -> Arc<CsrMatrix<f64>>;

    fn ladder_matrix() -> Arc<CsrMatrix<f64>> {
        Arc::new(generators::uniform_random::<f64>(96, 96, 5, 61))
    }

    fn malformed_matrix() -> Arc<CsrMatrix<f64>> {
        // a decreasing rowptr: Engine::prepare and check_invariants reject it
        let mut rowptr = vec![0usize; 97];
        rowptr[1] = 1;
        Arc::new(CsrMatrix::from_parts_unchecked(
            96,
            96,
            rowptr,
            vec![0],
            vec![1.0],
        ))
    }

    fn fail_prepare(serve: &ServeEngine<f64>, m: &CsrMatrix<f64>) {
        let injected = || Err(SparseError::InvalidStructure("injected".into()));
        let _ = serve
            .cache()
            .get_or_prepare(MatrixFingerprint::of(m), injected);
    }

    fn outcome(result: &Result<Response<f64>, ServeError>) -> String {
        match result {
            Ok(resp) => resp.path.to_string(),
            Err(ServeError::Prepare(_)) => "prepare error".into(),
            Err(ServeError::RetryBackoff { .. }) => "retry-backoff error".into(),
            Err(ServeError::DeadlineExceeded { .. }) => "deadline error".into(),
            Err(other) => format!("{other:?}"),
        }
    }

    /// The guarantee the single ladder exists for: every rung answers a
    /// lone job and each member of a fused pair identically — same path
    /// or error, same per-member fallback, quarantine and deadline
    /// counts, and bit-identical outputs.
    #[test]
    fn ladder_serves_a_solo_job_and_a_fused_pair_alike() {
        // no other test's fault plan may fire inside these prepares
        let _quiet = spmm_faults::quiesce();
        let budget = Duration::from_secs(60);
        let cases: [(&str, LadderSetup, Option<Duration>, &str); 9] = [
            (
                "tight deadline, resident plan",
                |serve, _| {
                    let m = ladder_matrix();
                    let x = generators::random_dense::<f64>(96, 4, 1);
                    serve.execute(Request::spmm(m.clone(), x)).unwrap();
                    m
                },
                Some(budget),
                "cached-plan",
            ),
            (
                "resident plan with a micro width",
                |serve, _| {
                    let m = ladder_matrix();
                    let mut plan = Engine::prepare(&m, &EngineConfig::default()).unwrap();
                    plan.set_micro_width(Some(8));
                    assert!(serve
                        .cache()
                        .insert_ready(MatrixFingerprint::of(&m), Arc::new(plan)));
                    m
                },
                None,
                "cached-plan",
            ),
            (
                "tight deadline, cold plan",
                |_, _| ladder_matrix(),
                Some(budget),
                "fallback",
            ),
            (
                "poisoned slot",
                |serve, _| {
                    let m = ladder_matrix();
                    let fp = MatrixFingerprint::of(&m);
                    let poisoner = std::thread::spawn({
                        let cache = serve.inner.clone();
                        move || {
                            cache
                                .cache
                                .get_or_prepare(fp, || panic!("injected prepare panic"))
                        }
                    });
                    assert!(poisoner.join().is_err());
                    m
                },
                None,
                "fallback",
            ),
            (
                "open breaker",
                |serve, clock| {
                    let m = ladder_matrix();
                    fail_prepare(serve, &m);
                    clock.advance(Duration::from_secs(5));
                    fail_prepare(serve, &m);
                    assert_eq!(serve.health().open_breakers, 1);
                    m
                },
                None,
                "fallback",
            ),
            (
                "retry backoff",
                |serve, _| {
                    let m = ladder_matrix();
                    fail_prepare(serve, &m);
                    m
                },
                None,
                "fallback",
            ),
            (
                "malformed matrix behind a backoff window",
                |serve, _| {
                    let m = malformed_matrix();
                    fail_prepare(serve, &m);
                    m
                },
                None,
                "retry-backoff error",
            ),
            (
                "prepare error",
                |_, _| malformed_matrix(),
                None,
                "prepare error",
            ),
            (
                "expired in the queue",
                |_, _| ladder_matrix(),
                Some(Duration::ZERO),
                "deadline error",
            ),
        ];
        for (name, setup, deadline, expected) in cases {
            let mut runs = Vec::new();
            for members in [1usize, 2] {
                let (clock, manual) = ClockHandle::manual();
                let serve = ServeEngine::<f64>::start(
                    ServeConfig::builder()
                        .workers(1)
                        .preprocess_budget(budget)
                        .breaker_threshold(2)
                        .clock(clock)
                        .batching(BatchConfig::default())
                        .build()
                        .unwrap(),
                );
                let m = setup(&serve, &manual);
                let before = serve.stats();
                let (jobs, _replies): (Vec<Job<f64>>, Vec<_>) = (0..members)
                    .map(|i| {
                        let x = generators::random_dense::<f64>(m.ncols(), 5, 7 + i as u64);
                        let mut request = Request::spmm(m.clone(), x);
                        if let Some(d) = deadline {
                            request = request.deadline(d);
                        }
                        let (tx, rx) = mpsc::channel();
                        (Job::new(request, tx, None), rx)
                    })
                    .unzip();
                let results = serve.inner.serve_group(&jobs);
                let after = serve.stats();
                let delta = |f: fn(&ServeStats) -> u64| f(&after) - f(&before);
                let counts = [
                    ServeStats::fallbacks,
                    ServeStats::quarantined,
                    ServeStats::deadline_exceeded,
                ]
                .map(delta);
                for r in &results {
                    assert_eq!(outcome(r), expected, "{name}, {members} member(s)");
                }
                runs.push((results, counts));
            }
            let (solo, fused) = (&runs[0], &runs[1]);
            assert_eq!(
                solo.1.map(|c| 2 * c),
                fused.1,
                "{name}: per-member counts differ"
            );
            if let Ok(answer) = &solo.0[0] {
                let solo_out = answer.output.clone().into_dense().unwrap();
                let fused_out = fused.0[0]
                    .as_ref()
                    .unwrap()
                    .output
                    .clone()
                    .into_dense()
                    .unwrap();
                assert_eq!(solo_out.data(), fused_out.data(), "{name}: outputs differ");
            }
        }
    }

    #[test]
    fn shutdown_answers_admitted_work_then_rejects() {
        let serve = small_serve(2, 16);
        let m = generators::uniform_random::<f64>(64, 64, 4, 1);
        let x = generators::random_dense::<f64>(m.ncols(), 4, 2);
        let ticket = serve.submit(Request::spmm(m.clone(), x.clone())).unwrap();
        serve.shutdown();
        // admitted before shutdown ⇒ answered
        ticket.wait().unwrap();
        // after shutdown ⇒ load-shed
        assert!(matches!(
            serve.submit(Request::spmm(m, x)),
            Err(ServeError::Overloaded { .. })
        ));
    }

    #[test]
    fn health_reports_workers_breakers_and_readiness() {
        let serve = small_serve(3, 8);
        // workers signal liveness asynchronously after start
        let deadline = Instant::now() + Duration::from_secs(5);
        while serve.health().workers_alive < 3 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let health = serve.health();
        assert!(health.ready());
        assert_eq!(health.workers_alive, 3);
        assert_eq!(health.workers_total, 3);
        assert_eq!(health.queue_capacity, 8);
        assert_eq!(health.worker_panics, 0);
        assert_eq!(health.open_breakers, 0);
        assert_eq!(health.poisoned_plans, 0);

        serve.shutdown();
        let health = serve.health();
        assert!(!health.accepting, "shutdown stops admission");
        assert!(!health.ready());
        // drained workers retire; liveness converges to zero
        let deadline = Instant::now() + Duration::from_secs(5);
        while serve.health().workers_alive > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(serve.health().workers_alive, 0);
    }

    #[test]
    fn dropped_reply_channel_surfaces_worker_panicked_not_a_hang() {
        let (tx, rx) = mpsc::channel::<Result<Response<f64>, ServeError>>();
        drop(tx);
        let ticket = Ticket { rx };
        assert_eq!(ticket.wait().unwrap_err(), ServeError::WorkerPanicked);
    }

    #[test]
    fn batching_is_off_by_default() {
        let serve = small_serve(2, 16);
        let m = generators::uniform_random::<f64>(64, 64, 4, 5);
        let x = generators::random_dense::<f64>(m.ncols(), 4, 6);
        for _ in 0..4 {
            serve.execute(Request::spmm(m.clone(), x.clone())).unwrap();
        }
        let stats = serve.stats();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.batched_requests, 0);
    }

    #[test]
    fn plan_store_warm_loads_across_engine_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "spmm-serve-warm-{}-{:p}",
            std::process::id(),
            &() as *const ()
        ));
        let store = Arc::new(PlanStore::open(&dir).unwrap());
        let m = generators::uniform_random::<f64>(128, 128, 6, 55);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 5);

        // first process: pays for the prepare, persists the plan
        let first = ServeEngine::<f64>::start(
            ServeConfig::builder()
                .workers(1)
                .plan_store(store.clone())
                .build()
                .unwrap(),
        );
        let cold = first.execute(Request::spmm(m.clone(), x.clone())).unwrap();
        assert_eq!(cold.path, ServePath::FreshPlan);
        assert_eq!(first.manifest().counters["serve.store.save"], 1);
        let reference = cold.output.into_dense().unwrap();
        drop(first);

        // restarted process: the plan is warm-loaded before traffic,
        // so the very first request is a cache hit with zero preprocess
        let second = ServeEngine::<f64>::start(
            ServeConfig::builder()
                .workers(1)
                .plan_store(store)
                .build()
                .unwrap(),
        );
        assert_eq!(second.manifest().counters["serve.store.warm"], 1);
        assert_eq!(second.cache_stats().inserts, 1, "seeded at startup");
        let warm = second.execute(Request::spmm(m, x)).unwrap();
        assert_eq!(warm.path, ServePath::CachedPlan);
        assert_eq!(warm.preprocess, Duration::ZERO);
        assert_eq!(
            reference.data(),
            warm.output.into_dense().unwrap().data(),
            "warm-loaded plan must answer bit-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
