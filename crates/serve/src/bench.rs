//! The `serve-bench` preset of the traffic driver: a Zipf-popular
//! request stream over the generator corpus, closed-loop concurrent
//! clients, and deterministic probes that pin down the acceptance
//! criteria.
//!
//! The workload models multi-tenant serving: a handful of matrix
//! structures (the corpus) receive traffic with Zipf-distributed
//! popularity, so a small plan cache captures most requests while the
//! long tail keeps missing. After the stream drains, two probes verify
//! the two contractual behaviours directly:
//!
//! * **hit probe** — the hottest structure is requested twice in a
//!   row; the second response must come from the cached plan with
//!   *zero* additional preprocessing.
//! * **cold probe** — a structure the corpus never saw is requested
//!   with a deadline equal to the preprocessing budget; the request
//!   must complete via the row-wise fallback rather than miss its
//!   deadline preparing a plan.
//!
//! Batching, a plan store, deltas and a sharded fleet each add their
//! own probe ([`BatchProbe`], [`PlanStoreProbe`], [`DeltaProbe`],
//! [`ShardProbe`]). Every outcome, the latency distribution and the
//! exact cache counters are recorded into the serve telemetry before
//! the manifest snapshot, so the printed report and the JSON manifest
//! agree.

use crate::batch::BatchConfig;
use crate::cache::CacheStats;
use crate::driver::{
    cover, percentile_ms, structural_delta, zipf_schedule, Case, Fleet, Op, Stream, Target,
};
use crate::engine::{Request, ServeConfig, ServeEngine, ServePath, ServeStats};
use crate::error::ServeError;
use crate::fingerprint::MatrixFingerprint;
use crate::store::PlanStore;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spmm_data::corpus::{Corpus, CorpusProfile};
use spmm_data::generators;
use spmm_kernels::{Engine, EngineConfig};
use spmm_sparse::{CsrMatrix, SparseError};
use spmm_telemetry::{RunManifest, TelemetryHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which kernel family the main `serve-bench` request stream
/// exercises. The deterministic probes (hit, cold, batch, plan-store)
/// always run SpMM so their contractual accounting is identical across
/// streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BenchOp {
    /// SpMM traffic with every 5th request probing SDDMM (the
    /// historical mixed stream). The default.
    Spmm,
    /// A pure SpMV stream (`k = 1` flat-vector requests).
    Spmv,
    /// A pure SpGEMM stream (sparse × sparse requests).
    Spgemm,
}

impl std::fmt::Display for BenchOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BenchOp::Spmm => "spmm",
            BenchOp::Spmv => "spmv",
            BenchOp::Spgemm => "spgemm",
        })
    }
}

impl std::str::FromStr for BenchOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "spmm" => Ok(BenchOp::Spmm),
            "spmv" => Ok(BenchOp::Spmv),
            "spgemm" => Ok(BenchOp::Spgemm),
            other => Err(format!(
                "unknown op '{other}' (expected spmm, spmv or spgemm)"
            )),
        }
    }
}

/// Workload knobs for [`run_serve_bench`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeBenchConfig {
    /// Total requests in the stream. Default 256.
    pub requests: usize,
    /// Closed-loop client threads. Default 4.
    pub concurrency: usize,
    /// Serving worker threads. Default 4.
    pub workers: usize,
    /// Plan-cache capacity — deliberately smaller than the corpus by
    /// default so the tail misses. Default 8.
    pub cache_capacity: usize,
    /// Admission queue bound. Default 256.
    pub queue_capacity: usize,
    /// Zipf skew exponent `s` (popularity of matrix `i` ∝
    /// `1/(i+1)^s`). Default 1.1.
    pub zipf_s: f64,
    /// Seed for the corpus and the request schedule. Default 42.
    pub seed: u64,
    /// Dense-operand width `k`. Default 32.
    pub k: usize,
    /// Kernel family of the main request stream. Default
    /// [`BenchOp::Spmm`].
    pub op: BenchOp,
    /// Per-request deadline. Default 250 ms.
    pub deadline: Duration,
    /// Preprocessing budget for the fallback decision. Default 25 ms.
    pub preprocess_budget: Duration,
    /// Multi-RHS batching for the serving engine, plus the forced
    /// -fusion probe. Default: disabled.
    pub batch: Option<BatchConfig>,
    /// Directory for a persistent [`PlanStore`]: the serving engine
    /// runs with the store as its disk tier (warm-loading at startup,
    /// read/write-through during the stream) and the warm-start probe
    /// measures cold-prepare vs store-load per corpus structure.
    /// Default: disabled.
    pub plan_store: Option<PathBuf>,
    /// Fleet size: with a value greater than 1 the stream is driven
    /// through a [`ShardRouter`](crate::ShardRouter) of this many
    /// engines (each configured from the knobs above) over a shared
    /// plan-store tier, and the shard probe kills one shard mid-stream
    /// to prove failover warm-loads instead of re-preparing. Default 1
    /// (one engine, no router).
    pub shards: usize,
    /// Run the structural-delta probe: for every corpus structure,
    /// apply a ≤ 1 %-of-nnz delta incrementally
    /// ([`Engine::apply_delta`]) and from scratch ([`Engine::prepare`]
    /// on the patched matrix), compare answers bit for bit, and time
    /// both paths — the incremental path must win by ≥ 3×. Default:
    /// disabled.
    pub deltas: bool,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            requests: 256,
            concurrency: 4,
            workers: 4,
            cache_capacity: 8,
            queue_capacity: 256,
            zipf_s: 1.1,
            seed: 42,
            k: 32,
            op: BenchOp::Spmm,
            deadline: Duration::from_millis(250),
            preprocess_budget: Duration::from_millis(25),
            batch: None,
            plan_store: None,
            shards: 1,
            deltas: false,
        }
    }
}

/// Outcome of the forced-fusion probe: a single-worker batched engine
/// is pinned on a cold decoy while same-structure requests pile up
/// behind it, so fusion happens deterministically; every fused
/// response is then compared bit for bit against the *unbatched*
/// sequential reference (the operands are quantized, so any exact
/// kernel must match it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchProbe {
    /// Fused batches the probe engine executed.
    pub batches: u64,
    /// Requests served inside those batches.
    pub batched_requests: u64,
    /// Whether every probe response matched its unbatched reference
    /// bit for bit.
    pub exact: bool,
}

impl BatchProbe {
    /// Whether the probe observed its contractual outcome: at least
    /// one fused batch, and exact results.
    pub fn passed(&self) -> bool {
        self.batches >= 1 && self.exact
    }
}

/// Outcome of the warm-start probe: every corpus structure is prepared
/// cold (timed), persisted to the [`PlanStore`], and re-materialised
/// from disk (timed). A stored plan must answer SpMM *and* SDDMM
/// bit-identically to the live engine it snapshotted, and loading all
/// plans must be at least 10× faster than preparing them.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct PlanStoreProbe {
    /// Total wall-clock milliseconds of `Engine::prepare` across the
    /// corpus (the cold path a store-less restart would pay).
    pub cold_prepare_ms: f64,
    /// Total wall-clock milliseconds of `PlanStore::load` across the
    /// same structures (the warm path a restarted process pays).
    pub warm_load_ms: f64,
    /// `cold_prepare_ms / warm_load_ms`.
    pub speedup: f64,
    /// Structures measured (the corpus size).
    pub plans: usize,
    /// Whether every stored plan answered SpMM and SDDMM
    /// bit-identically to its live engine.
    pub exact: bool,
}

impl PlanStoreProbe {
    /// Whether the probe observed its contractual outcome: bit-exact
    /// answers and a ≥ 10× warm-start speedup.
    pub fn passed(&self) -> bool {
        self.exact && self.speedup >= 10.0
    }
}

/// Outcome of the structural-delta probe: for every corpus structure,
/// a small delta (≤ 1 % of nnz churned: half removed edges, half added
/// edges) is applied both incrementally ([`Engine::apply_delta`] on
/// the already-prepared engine) and from scratch ([`Engine::prepare`]
/// on the patched matrix). Operands are quantised onto the integer
/// grid so both engines must answer SpMM **bit-identically**; the
/// incremental path re-preprocesses only the row panels the delta
/// actually drifted, so it must be at least 3× faster in aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct DeltaProbe {
    /// Total wall-clock milliseconds of from-scratch `Engine::prepare`
    /// over the patched structures.
    pub prepare_ms: f64,
    /// Total wall-clock milliseconds of incremental
    /// `Engine::apply_delta` over the same deltas.
    pub apply_ms: f64,
    /// `prepare_ms / apply_ms`.
    pub speedup: f64,
    /// Structures probed (the corpus size).
    pub structures: usize,
    /// Edges churned (added + removed) across all probed deltas.
    pub edges_churned: usize,
    /// Whether every incremental engine answered SpMM bit-identically
    /// to its from-scratch twin.
    pub exact: bool,
}

impl DeltaProbe {
    /// Whether the probe observed its contractual outcome: bit-exact
    /// answers and a ≥ 3× incremental speedup on a ≤ 1 %-nnz delta.
    pub fn passed(&self) -> bool {
        self.exact && self.speedup >= 3.0
    }
}

/// Outcome of the shard probe (sharded runs only): a quantised probe
/// structure is served by its rendezvous owner (the *victim*), the
/// victim is killed mid-stream, and the structure is requested again.
/// The request must fail over to the next rendezvous candidate and be
/// served from the shared plan store — [`ServePath::CachedPlan`], zero
/// preprocessing — with both answers bit-equal to the sequential
/// reference. Fleet-wide duplicate prepares are counted as successful
/// `serve.store.save`s (plus `save_error`s) beyond the number of
/// distinct persisted fingerprints: every live prepare writes through
/// exactly once, so any excess means one structure was prepared twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardProbe {
    /// Fleet size the run started with.
    pub shards: usize,
    /// The probe structure's rendezvous owner, killed mid-stream.
    pub victim: usize,
    /// The shard that served the post-kill probe request.
    pub failover_shard: usize,
    /// The post-kill request's service path (must be
    /// [`ServePath::CachedPlan`]: a store warm load, not a re-prepare).
    pub failover_path: ServePath,
    /// Preprocessing the post-kill request paid (must be zero).
    pub failover_preprocess: Duration,
    /// Fleet-wide `serve.store.hit` count (read-through warm loads).
    pub store_warm_hits: u64,
    /// Structures prepared more than once fleet-wide (must be zero).
    pub duplicate_prepares: u64,
    /// Whether both probe responses were bit-equal to the sequential
    /// row-wise reference.
    pub exact: bool,
    /// Ready shards after the kill (must be `shards - 1`).
    pub ready_shards: usize,
}

impl ShardProbe {
    /// Whether the probe observed its contractual outcome: the killed
    /// shard's traffic failed over to a *different* shard that
    /// warm-loaded the plan from the store (cached path, zero
    /// preprocessing), answers stayed bit-exact, no structure was
    /// prepared twice fleet-wide, and exactly one shard went down.
    pub fn passed(&self) -> bool {
        self.exact
            && self.failover_shard != self.victim
            && self.failover_path == ServePath::CachedPlan
            && self.failover_preprocess.is_zero()
            && self.store_warm_hits >= 1
            && self.duplicate_prepares == 0
            && self.ready_shards + 1 == self.shards
    }
}

/// What [`run_serve_bench`] measured.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeBenchReport {
    /// The configuration the run used.
    pub config: ServeBenchConfig,
    /// Distinct matrix structures in the corpus.
    pub corpus_size: usize,
    /// Wall-clock duration of the request stream.
    pub wall: Duration,
    /// Completed requests per second of wall clock.
    pub throughput_rps: f64,
    /// Median end-to-end latency (submit → response), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, milliseconds.
    pub p99_ms: f64,
    /// Plan-cache hit rate over the whole run, in `[0, 1]`.
    pub hit_rate: f64,
    /// Serving counters at the end of the run.
    pub stats: ServeStats,
    /// Plan-cache counters at the end of the run.
    pub cache: CacheStats,
    /// The hit probe's service path (must be [`ServePath::CachedPlan`]).
    pub hit_probe_path: ServePath,
    /// Preprocessing the hit probe paid (must be zero).
    pub hit_probe_preprocess: Duration,
    /// The cold probe's service path (must be [`ServePath::Fallback`]).
    pub cold_probe_path: ServePath,
    /// The forced-fusion probe's outcome; `None` when batching is off.
    pub batch_probe: Option<BatchProbe>,
    /// The warm-start probe's outcome; `None` when no plan store is
    /// configured.
    pub plan_store_probe: Option<PlanStoreProbe>,
    /// The shard probe's outcome; `None` on single-engine runs.
    pub shard_probe: Option<ShardProbe>,
    /// The structural-delta probe's outcome; `None` when `deltas` is
    /// off.
    pub delta_probe: Option<DeltaProbe>,
    /// The run manifest snapshot, counters and probe outcomes included.
    pub manifest: RunManifest,
}

/// A probe line's verdict: `ok (…)` when it passed, else `FAILED`.
pub(crate) fn verdict(passed: bool, ok: &'static str) -> &'static str {
    if passed {
        ok
    } else {
        "FAILED"
    }
}

impl ServeBenchReport {
    /// Whether every probe observed its contractual outcome (the batch
    /// probe only participates when batching is enabled).
    pub fn probes_passed(&self) -> bool {
        self.hit_probe_path == ServePath::CachedPlan
            && self.hit_probe_preprocess.is_zero()
            && self.cold_probe_path == ServePath::Fallback
            && self.batch_probe.is_none_or(|p| p.passed())
            && self.plan_store_probe.is_none_or(|p| p.passed())
            && self.shard_probe.is_none_or(|p| p.passed())
            && self.delta_probe.is_none_or(|p| p.passed())
    }

    /// Renders the human-readable summary the CLI prints.
    pub fn render(&self) -> String {
        let c = &self.config;
        let s = &self.stats;
        let mut out = String::new();
        out.push_str(&format!(
            "serve-bench[{}]: {} requests over {} matrices, {} clients, {} workers, cache {}, zipf s={:.2}\n",
            c.op, c.requests, self.corpus_size, c.concurrency, c.workers, c.cache_capacity, c.zipf_s
        ));
        if c.shards > 1 {
            out.push_str(&format!(
                "  sharded: {} engines behind rendezvous routing, shared plan-store tier\n",
                c.shards
            ));
        }
        out.push_str(&format!(
            "  completed {}  rejected {}  fallbacks {}  deadline-exceeded {}  failed {}\n",
            s.completed, s.rejected, s.fallbacks, s.deadline_exceeded, s.failed
        ));
        out.push_str(&format!(
            "  throughput {:.1} req/s   p50 {:.3} ms   p99 {:.3} ms\n",
            self.throughput_rps, self.p50_ms, self.p99_ms
        ));
        out.push_str(&format!(
            "  plan cache: {} hits / {} misses (hit rate {:.1}%), {} evictions, {} inserts\n",
            self.cache.hits,
            self.cache.misses,
            self.hit_rate * 100.0,
            self.cache.evictions,
            self.cache.inserts
        ));
        out.push_str(&format!(
            "  hit probe:  path={} preprocess={:?} -> {}\n",
            self.hit_probe_path,
            self.hit_probe_preprocess,
            verdict(
                self.hit_probe_path == ServePath::CachedPlan && self.hit_probe_preprocess.is_zero(),
                "ok (cached plan, zero additional preprocessing)"
            )
        ));
        out.push_str(&format!(
            "  cold probe: path={} -> {}\n",
            self.cold_probe_path,
            verdict(
                self.cold_probe_path == ServePath::Fallback,
                "ok (cold miss under deadline served by row-wise fallback)"
            )
        ));
        if let Some(batch) = &c.batch {
            out.push_str(&format!(
                "  batching: max_batch_k={}   stream: {} batches / {} fused requests ({} deadline skips)\n",
                batch.max_batch_k,
                s.batches,
                s.batched_requests,
                s.batch_deadline_skips
            ));
        }
        if let Some(probe) = &self.batch_probe {
            out.push_str(&format!(
                "  batch probe: batches={} fused={} exact={} -> {}\n",
                probe.batches,
                probe.batched_requests,
                probe.exact,
                verdict(
                    probe.passed(),
                    "ok (fused responses bit-identical to unbatched references)"
                )
            ));
        }
        if let Some(probe) = &self.plan_store_probe {
            out.push_str(&format!(
                "  plan store probe: {} plans, cold prepare {:.3} ms, warm load {:.3} ms, speedup {:.1}x, exact={} -> {}\n",
                probe.plans,
                probe.cold_prepare_ms,
                probe.warm_load_ms,
                probe.speedup,
                probe.exact,
                verdict(probe.passed(), "ok (bit-exact warm start, >= 10x faster than prepare)")
            ));
        }
        if let Some(probe) = &self.delta_probe {
            out.push_str(&format!(
                "  delta probe: {} structures, {} edges churned, prepare {:.3} ms, apply {:.3} ms, speedup {:.1}x, exact={} -> {}\n",
                probe.structures,
                probe.edges_churned,
                probe.prepare_ms,
                probe.apply_ms,
                probe.speedup,
                probe.exact,
                verdict(probe.passed(), "ok (bit-exact incremental re-prepare, >= 3x faster than from-scratch)")
            ));
        }
        if let Some(probe) = &self.shard_probe {
            out.push_str(&format!(
                "  shard probe: victim={} failover={} path={} preprocess={:?} warm-hits={} duplicates={} ready={}/{} exact={} -> {}\n",
                probe.victim,
                probe.failover_shard,
                probe.failover_path,
                probe.failover_preprocess,
                probe.store_warm_hits,
                probe.duplicate_prepares,
                probe.ready_shards,
                probe.shards,
                probe.exact,
                verdict(probe.passed(), "ok (failover warm-loaded from the store; zero duplicate prepares fleet-wide)")
            ));
        }
        out
    }
}

/// Forces fusion deterministically and checks exactness: a 1-worker
/// batched engine is warmed on `matrix`, pinned on a cold decoy, and
/// handed three same-structure requests that queue up behind the decoy
/// and coalesce. The operands are quantized, so each fused response
/// must equal the unbatched sequential reference bit for bit.
fn run_batch_probe(
    batch: BatchConfig,
    budget: Duration,
    matrix: &CsrMatrix<f32>,
    k: usize,
    seed: u64,
) -> Result<BatchProbe, ServeError> {
    let batched = ServeEngine::<f32>::start(
        ServeConfig::builder()
            .workers(1)
            .queue_capacity(64)
            .preprocess_budget(budget)
            .batching(batch)
            .build()?,
    );
    let members: Vec<Case<f32>> = (0..3u64)
        .map(|i| Case::new(matrix.clone(), 0xBA7C + i, k.max(1), seed, true))
        .collect();
    batched.execute(members[0].request(Op::Spmm))?;
    let decoy = Case::new(
        generators::uniform_random::<f32>(611, 401, 8, seed ^ 0xDEC0),
        0xDEC0,
        k.max(1),
        seed,
        false,
    );
    let decoy = batched.submit(decoy.request(Op::Spmm))?;
    let tickets: Vec<_> = members
        .iter()
        .map(|m| batched.submit(m.request(Op::Spmm)))
        .collect::<Result<_, _>>()?;
    decoy.wait()?;
    let mut exact = true;
    for (member, ticket) in members.iter().zip(tickets) {
        exact &= member.is_exact(Op::Spmm, &ticket.wait()?.output);
    }
    let stats = batched.stats();
    Ok(BatchProbe {
        batches: stats.batches,
        batched_requests: stats.batched_requests,
        exact,
    })
}

/// Measures the warm-start contract: for every corpus structure, time
/// a cold `Engine::prepare`, persist the plan, time `PlanStore::load`,
/// and compare the stored engine's SpMM and SDDMM answers bit for bit
/// against the live engine's.
fn run_plan_store_probe(
    store: &PlanStore,
    cases: &[Case<f32>],
    telemetry: &TelemetryHandle,
) -> Result<PlanStoreProbe, ServeError> {
    let mut cold = Duration::ZERO;
    let mut warm = Duration::ZERO;
    let mut exact = true;
    for case in cases {
        let fp = MatrixFingerprint::of(&case.matrix);
        let cold_start = Instant::now();
        let live =
            Engine::prepare(&case.matrix, &EngineConfig::default()).map_err(ServeError::Prepare)?;
        cold += cold_start.elapsed();
        store.save(&fp, &live).map_err(ServeError::Prepare)?;
        let warm_start = Instant::now();
        let stored = store
            .load::<f32>(&fp, telemetry)
            .map_err(ServeError::Prepare)?
            .ok_or_else(|| {
                ServeError::Prepare(SparseError::Io("just-saved plan is missing".into()))
            })?;
        warm += warm_start.elapsed();
        let (x, y) = (&case.x, &case.y);
        let spmm_exact = live.spmm(x).map_err(ServeError::Execute)?.data()
            == stored.spmm(x).map_err(ServeError::Execute)?.data();
        let sddmm_exact = live.sddmm(x, y).map_err(ServeError::Execute)?
            == stored.sddmm(x, y).map_err(ServeError::Execute)?;
        exact &= spmm_exact && sddmm_exact;
    }
    let cold_prepare_ms = cold.as_secs_f64() * 1e3;
    let warm_load_ms = warm.as_secs_f64() * 1e3;
    Ok(PlanStoreProbe {
        cold_prepare_ms,
        warm_load_ms,
        speedup: ratio(cold_prepare_ms, warm_load_ms),
        plans: cases.len(),
        exact,
    })
}

/// `num / den`, infinite when the denominator rounds to zero.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::INFINITY
    }
}

/// Measures the incremental re-prepare contract: for every corpus
/// structure, time `Engine::apply_delta` of a ≤ 1 %-nnz delta against a
/// from-scratch `Engine::prepare` of the patched matrix, and compare
/// SpMM answers bit for bit (the operands are quantized, so the two
/// plans must agree exactly).
fn run_delta_probe(cases: &[Case<f32>], seed: u64) -> Result<DeltaProbe, ServeError> {
    let config = EngineConfig::default();
    let mut prepare = Duration::ZERO;
    let mut apply = Duration::ZERO;
    let mut edges_churned = 0usize;
    let mut exact = true;
    for (i, case) in cases.iter().enumerate() {
        let m = &case.matrix;
        let base = Engine::prepare(m, &config).map_err(ServeError::Prepare)?;
        let (added, removed) = structural_delta(m, (m.nnz() / 200).max(1), seed ^ i as u64);
        edges_churned += added.len() + removed.len();
        let apply_start = Instant::now();
        let incremental = base
            .apply_delta(&added, &removed)
            .map_err(ServeError::Prepare)?;
        apply += apply_start.elapsed();
        let patched = m
            .apply_structural_delta(&added, &removed)
            .map_err(ServeError::Prepare)?;
        let prepare_start = Instant::now();
        let fresh = Engine::prepare(&patched, &config).map_err(ServeError::Prepare)?;
        prepare += prepare_start.elapsed();
        exact &= incremental
            .spmm(&case.x)
            .map_err(ServeError::Execute)?
            .data()
            == fresh.spmm(&case.x).map_err(ServeError::Execute)?.data();
    }
    let prepare_ms = prepare.as_secs_f64() * 1e3;
    let apply_ms = apply.as_secs_f64() * 1e3;
    Ok(DeltaProbe {
        prepare_ms,
        apply_ms,
        speedup: ratio(prepare_ms, apply_ms),
        structures: cases.len(),
        edges_churned,
        exact,
    })
}

/// Monotonic suffix for ephemeral fleet store directories, so
/// concurrent runs in one process never share a tier by accident.
static EPHEMERAL_STORES: AtomicU64 = AtomicU64::new(0);

/// Runs the serving benchmark — the driver preset that adds the hit,
/// cold, batch, plan-store, delta and shard probes — and returns the
/// measured report. The probes' contractual outcomes are asserted by
/// the caller (or CI) via [`ServeBenchReport::probes_passed`], not by
/// this function: a degraded run still reports honestly.
///
/// # Errors
/// Propagates probe-request failures ([`ServeError`]); the streamed
/// requests themselves only tally into the counters.
pub fn run_serve_bench(config: &ServeBenchConfig) -> Result<ServeBenchReport, ServeError> {
    let budget = config.preprocess_budget.max(Duration::from_millis(1));
    let corpus = Corpus::<f32>::generate(CorpusProfile::Quick, config.seed);
    let cases = cover(
        corpus.matrices.into_iter().map(|e| e.matrix),
        config.k,
        config.seed,
        false,
    );
    assert!(!cases.is_empty(), "corpus must not be empty");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let schedule = zipf_schedule(config.requests, cases.len(), config.zipf_s, &mut rng);

    // a fleet's whole economy needs a shared store tier: use the
    // configured directory, or an ephemeral one removed after the run
    let ephemeral = (config.shards > 1 && config.plan_store.is_none()).then(|| {
        let dir = std::env::temp_dir().join(format!(
            "spmm-serve-bench-shards-{}-{}",
            std::process::id(),
            EPHEMERAL_STORES.fetch_add(1, Ordering::Relaxed)
        ));
        // stale leftovers from a killed run must not skew the
        // duplicate-prepare accounting
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let store = match config.plan_store.as_ref().or(ephemeral.as_ref()) {
        Some(dir) => Some(Arc::new(PlanStore::open(dir).map_err(ServeError::Prepare)?)),
        None => None,
    };
    let target = Fleet {
        shards: config.shards,
        workers: config.workers,
        queue_capacity: config.queue_capacity,
        cache_capacity: config.cache_capacity,
        preprocess_budget: budget,
        seed: config.seed,
        batch: config.batch,
        store: store.clone(),
    }
    .start::<f32>()?;
    let router = match &target {
        Target::Router(router) => Some(router),
        Target::Engine(_) => None,
    };

    // -- shard probe, phase 1: the owner prepares (and persists) the
    //    quantized probe structure before the stream
    let probe = Case::new(
        generators::uniform_random::<f32>(397, 311, 6, config.seed ^ 0x51AD),
        0x51AE,
        config.k.max(1),
        config.seed,
        true,
    );
    let probe_fp = MatrixFingerprint::of(&probe.matrix);
    let victim = router.map(|r| r.owner(&probe_fp));
    let exact_before = match router {
        Some(r) => probe.is_exact(Op::Spmm, &r.execute(probe.request(Op::Spmm))?.output),
        None => true,
    };

    let mix: &[Op] = match config.op {
        // every 5th request exercises the SDDMM path
        BenchOp::Spmm => &[Op::Spmm, Op::Spmm, Op::Spmm, Op::Spmm, Op::Sddmm],
        BenchOp::Spmv => &[Op::Spmv],
        BenchOp::Spgemm => &[Op::Spgemm],
    };
    let stream = Stream {
        cases: &cases,
        schedule: &schedule,
        mix,
        deadline: Some(config.deadline),
        concurrency: config.concurrency,
        deltas: None,
    };
    // a fleet runs the stream in two halves and kills the victim at the
    // barrier between them: killing a shard while clients are in flight
    // would let its in-flight prepares race the survivor's re-prepares
    // of the same structures before the write-through saves land. At the
    // barrier the victim has drained, so all it prepared is persisted
    // and the second half's re-routed traffic must warm-load.
    let split = if victim.is_some() {
        schedule.len() / 2
    } else {
        schedule.len()
    };
    let stream_start = Instant::now();
    let mut tally = stream.run(&target, 0..split);
    if let (Some(router), Some(victim)) = (router, victim) {
        router.kill(victim);
        tally.merge(stream.run(&target, split..schedule.len()));
    }
    let wall = stream_start.elapsed();
    tally.latencies.sort_unstable();

    // -- shard probe, phase 2: the structure's traffic must fail over
    //    and warm-load from the store, bit-exactly
    let failover = match router {
        Some(r) => {
            let shard = r.route(&probe_fp).ok_or(ServeError::NoReadyShard {
                shards: config.shards,
            })?;
            Some((shard, r.execute(probe.request(Op::Spmm))?))
        }
        None => None,
    };

    // -- hit probe: the hottest structure (Zipf index 0), back to back
    let hot = &cases[0];
    target.execute(Request::spmm(hot.matrix.clone(), hot.x.clone()))?;
    let hit_probe = target.execute(Request::spmm(hot.matrix.clone(), hot.x.clone()))?;

    // -- cold probe: unseen structure, deadline == budget ⇒ the tight
    //    path fires deterministically and must degrade, not miss
    let cold_matrix = Arc::new(generators::uniform_random::<f32>(
        731,
        389,
        6,
        config.seed ^ 0xC01D,
    ));
    let cold_x = Arc::new(generators::random_dense::<f32>(
        cold_matrix.ncols(),
        config.k,
        config.seed ^ 3,
    ));
    let cold_probe = target.execute(Request::spmm(cold_matrix, cold_x).deadline(budget))?;

    // duplicate accounting must be read *before* the standalone probes
    // below write to (or read from) the same store directory
    let shard_probe = match (router, victim, failover, &store) {
        (Some(router), Some(victim), Some((failover_shard, after)), Some(store)) => {
            let counters = router.manifest().counters;
            let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
            let saves = counter("serve.store.save") + counter("serve.store.save_error");
            let persisted = store.list().map_err(ServeError::Prepare)?.len() as u64;
            Some(ShardProbe {
                shards: config.shards,
                victim,
                failover_shard,
                failover_path: after.path,
                failover_preprocess: after.preprocess,
                store_warm_hits: counter("serve.store.hit"),
                duplicate_prepares: saves.saturating_sub(persisted),
                exact: exact_before && probe.is_exact(Op::Spmm, &after.output),
                ready_shards: router.health().ready_shards(),
            })
        }
        _ => None,
    };

    let batch_probe = config
        .batch
        .map(|batch| run_batch_probe(batch, budget, &hot.matrix, config.k, config.seed))
        .transpose()?;
    let plan_store_probe = match (&config.plan_store, &store) {
        (Some(_), Some(store)) => Some(run_plan_store_probe(store, &cases, target.telemetry())?),
        _ => None,
    };
    let delta_probe = config
        .deltas
        .then(|| run_delta_probe(&cases, config.seed))
        .transpose()?;

    let stats = target.stats();
    let cache = target.cache_stats();
    let p50_ms = percentile_ms(&tally.latencies, 0.50);
    let p99_ms = percentile_ms(&tally.latencies, 0.99);
    let throughput_rps = tally.throughput_rps(wall);

    // record the results into the same manifest that carries the exact
    // serve.* counters, then snapshot
    let telemetry = target.telemetry();
    telemetry.gauge("bench.throughput_rps", throughput_rps);
    telemetry.gauge("bench.p50_ms", p50_ms);
    telemetry.gauge("bench.p99_ms", p99_ms);
    telemetry.gauge("bench.hit_rate", cache.hit_rate());
    if config.shards > 1 {
        telemetry.gauge("bench.shards", config.shards as f64);
    }
    telemetry.meta("bench.op", &config.op.to_string());
    telemetry.meta(
        "bench.hit_probe",
        &format!(
            "path={} preprocess_ns={}",
            hit_probe.path,
            hit_probe.preprocess.as_nanos()
        ),
    );
    telemetry.meta("bench.cold_probe", &format!("path={}", cold_probe.path));
    if let Some(probe) = &shard_probe {
        telemetry.meta(
            "bench.shard_probe",
            &format!(
                "shards={} victim={} failover={} path={} preprocess_ns={} warm_hits={} duplicates={} ready_shards={} exact={}",
                probe.shards,
                probe.victim,
                probe.failover_shard,
                probe.failover_path,
                probe.failover_preprocess.as_nanos(),
                probe.store_warm_hits,
                probe.duplicate_prepares,
                probe.ready_shards,
                probe.exact
            ),
        );
    }
    if let Some(probe) = &batch_probe {
        telemetry.gauge("bench.batch.stream_batches", stats.batches as f64);
        telemetry.gauge(
            "bench.batch.stream_fused_requests",
            stats.batched_requests as f64,
        );
        telemetry.meta(
            "bench.batch_probe",
            &format!(
                "batches={} fused_requests={} exact={}",
                probe.batches, probe.batched_requests, probe.exact
            ),
        );
    }
    if let Some(probe) = &plan_store_probe {
        telemetry.gauge("bench.store.cold_prepare_ms", probe.cold_prepare_ms);
        telemetry.gauge("bench.store.warm_load_ms", probe.warm_load_ms);
        telemetry.gauge("bench.store.speedup", probe.speedup);
        telemetry.meta(
            "bench.plan_store_probe",
            &format!(
                "plans={} cold_prepare_ms={:.3} warm_load_ms={:.3} speedup={:.2} exact={}",
                probe.plans, probe.cold_prepare_ms, probe.warm_load_ms, probe.speedup, probe.exact
            ),
        );
    }
    if let Some(probe) = &delta_probe {
        telemetry.gauge("bench.delta.prepare_ms", probe.prepare_ms);
        telemetry.gauge("bench.delta.apply_ms", probe.apply_ms);
        telemetry.gauge("bench.delta.speedup", probe.speedup);
        telemetry.meta(
            "bench.delta_probe",
            &format!(
                "structures={} edges_churned={} prepare_ms={:.3} apply_ms={:.3} speedup={:.2} exact={}",
                probe.structures,
                probe.edges_churned,
                probe.prepare_ms,
                probe.apply_ms,
                probe.speedup,
                probe.exact
            ),
        );
    }
    let manifest = target.manifest();
    if let Some(dir) = &ephemeral {
        let _ = std::fs::remove_dir_all(dir);
    }

    Ok(ServeBenchReport {
        config: config.clone(),
        corpus_size: cases.len(),
        wall,
        throughput_rps,
        p50_ms,
        p99_ms,
        hit_rate: cache.hit_rate(),
        stats,
        cache,
        hit_probe_path: hit_probe.path,
        hit_probe_preprocess: hit_probe.preprocess,
        cold_probe_path: cold_probe.path,
        batch_probe,
        plan_store_probe,
        shard_probe,
        delta_probe,
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_stream_satisfies_the_probes_and_the_accounting() {
        for op in [BenchOp::Spmm, BenchOp::Spmv, BenchOp::Spgemm] {
            let config = ServeBenchConfig {
                requests: 16,
                concurrency: 2,
                workers: 2,
                cache_capacity: 4,
                op,
                ..ServeBenchConfig::default()
            };
            let report = run_serve_bench(&config).unwrap();
            let rendered = report.render();
            assert!(report.probes_passed(), "[{op}] {rendered}");
            assert_eq!(report.hit_probe_preprocess, Duration::ZERO);
            assert_eq!(report.cold_probe_path, ServePath::Fallback);
            // every streamed request is accounted for, and the three
            // probe requests stay SpMM whatever the stream's op
            assert_eq!(
                report.stats.submitted + report.stats.rejected,
                (config.requests + 3) as u64,
                "[{op}] {rendered}"
            );
            assert_eq!(report.stats.failed, 0, "[{op}] {rendered}");
            // counters in the manifest are the counters in the stats
            let counters = &report.manifest.counters;
            assert_eq!(counters["serve.cache.hit"], report.cache.hits);
            assert_eq!(counters["serve.completed"], report.stats.completed);
            assert_eq!(report.manifest.meta["bench.op"], op.to_string());
            assert!(rendered.contains(&format!("serve-bench[{op}]")));
            assert!(rendered.contains("plan cache"), "{rendered}");
        }
    }

    #[test]
    fn bench_op_round_trips_through_strings() {
        for op in [BenchOp::Spmm, BenchOp::Spmv, BenchOp::Spgemm] {
            assert_eq!(op.to_string().parse::<BenchOp>().unwrap(), op);
        }
        assert!("cholesky".parse::<BenchOp>().is_err());
    }

    #[test]
    fn plan_store_bench_probe_is_exact_and_warm_starts() {
        let dir = std::env::temp_dir().join(format!(
            "spmm-bench-store-{}-{:p}",
            std::process::id(),
            &() as *const ()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let config = ServeBenchConfig {
            requests: 12,
            concurrency: 2,
            workers: 2,
            cache_capacity: 4,
            plan_store: Some(dir.clone()),
            ..ServeBenchConfig::default()
        };
        let report = run_serve_bench(&config).unwrap();
        let probe = report.plan_store_probe.expect("plan store was configured");
        assert!(probe.exact, "stored plans deviated: {}", report.render());
        assert_eq!(probe.plans, report.corpus_size);
        assert!(
            probe.speedup > 1.0,
            "loading must beat preparing: {}",
            report.render()
        );
        // the stream itself ran write-through
        assert!(report.manifest.counters.get("serve.store.save").copied() >= Some(1));
        assert!(
            report.manifest.meta.contains_key("bench.plan_store_probe"),
            "probe outcome must land in the manifest"
        );
        // the probe's standalone engines never touch the stream counters
        assert_eq!(
            report.stats.submitted + report.stats.rejected,
            (config.requests + 3) as u64
        );
        let rendered = report.render();
        assert!(rendered.contains("plan store probe"), "{rendered}");

        // a second run over the same directory warm-loads at startup
        let report2 = run_serve_bench(&config).unwrap();
        assert!(
            report2.manifest.counters.get("serve.store.warm").copied() >= Some(1),
            "restart must warm-load persisted plans"
        );
        // warm-loaded plans must not confuse the other probes: the hit
        // probe still hits, and the never-persisted cold structure
        // still degrades to the fallback
        assert_eq!(report2.hit_probe_path, ServePath::CachedPlan);
        assert_eq!(report2.cold_probe_path, ServePath::Fallback);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_bench_fails_over_without_duplicate_prepares() {
        let config = ServeBenchConfig {
            requests: 24,
            concurrency: 2,
            workers: 1,
            cache_capacity: 4,
            shards: 2,
            ..ServeBenchConfig::default()
        };
        let report = run_serve_bench(&config).unwrap();
        let probe = report.shard_probe.expect("shards > 1 was configured");
        assert!(probe.passed(), "{}", report.render());
        assert!(report.probes_passed(), "{}", report.render());
        assert_eq!(probe.duplicate_prepares, 0, "{}", report.render());
        assert_eq!(probe.failover_path, ServePath::CachedPlan);
        assert!(probe.failover_preprocess.is_zero());
        assert_ne!(probe.failover_shard, probe.victim);
        assert_eq!(probe.ready_shards, 1, "one of two shards was killed");
        assert_eq!(
            report.manifest.counters.get("serve.router.shard_killed"),
            Some(&1)
        );
        assert!(
            report.manifest.counters.get("serve.router.routed").copied() >= Some(1),
            "router must have routed the stream"
        );
        assert!(
            report.manifest.meta.contains_key("bench.shard_probe"),
            "probe outcome must land in the manifest"
        );
        let rendered = report.render();
        assert!(rendered.contains("sharded: 2 engines"), "{rendered}");
        assert!(rendered.contains("shard probe"), "{rendered}");
    }

    #[test]
    fn delta_probe_is_exact_and_beats_from_scratch_prepare() {
        let config = ServeBenchConfig {
            requests: 12,
            concurrency: 2,
            workers: 2,
            cache_capacity: 4,
            deltas: true,
            ..ServeBenchConfig::default()
        };
        let report = run_serve_bench(&config).unwrap();
        let probe = report.delta_probe.expect("deltas were enabled");
        assert!(
            probe.exact,
            "incremental plans deviated: {}",
            report.render()
        );
        assert_eq!(probe.structures, report.corpus_size);
        assert!(probe.edges_churned >= probe.structures * 2);
        // the hard 3x bar is asserted by the release-mode CI perf
        // smoke; in-test (possibly debug, loaded machine) the floor is
        // that incremental must still win
        assert!(
            probe.speedup > 1.0,
            "apply_delta must beat prepare: {}",
            report.render()
        );
        assert!(
            report.manifest.gauges.contains_key("bench.delta.speedup"),
            "speedup gauge must land in the manifest for the CI assert"
        );
        assert!(
            report.manifest.meta.contains_key("bench.delta_probe"),
            "probe outcome must land in the manifest"
        );
        let rendered = report.render();
        assert!(rendered.contains("delta probe"), "{rendered}");
    }

    #[test]
    fn batched_bench_forces_fusion_and_stays_exact() {
        let config = ServeBenchConfig {
            requests: 24,
            concurrency: 2,
            workers: 2,
            cache_capacity: 4,
            batch: Some(BatchConfig::default()),
            ..ServeBenchConfig::default()
        };
        let report = run_serve_bench(&config).unwrap();
        let probe = report.batch_probe.expect("batching was enabled");
        assert!(probe.passed(), "{}", report.render());
        assert!(probe.batches >= 1);
        assert!(probe.batched_requests >= 2);
        assert!(probe.exact, "fused responses deviated from references");
        assert!(report.probes_passed(), "{}", report.render());
        let rendered = report.render();
        assert!(rendered.contains("batch probe"), "{rendered}");
        assert!(
            report.manifest.meta.contains_key("bench.batch_probe"),
            "probe outcome must land in the manifest"
        );
    }
}
