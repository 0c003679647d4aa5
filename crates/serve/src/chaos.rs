//! The `chaos-bench` preset of the traffic driver: concurrent Zipf
//! traffic through the serving engine under a scripted, seeded fault
//! schedule.
//!
//! Where `serve-bench` measures the happy path, this preset proves the
//! resilience contracts hold *under injected failure*:
//!
//! * **Exactness under chaos.** Every operand is quantised to small
//!   integer values, so every partial sum in SpMM, SpMV, SDDMM and
//!   SpGEMM is exactly representable in `f64` and addition is
//!   associative — the tiled kernels, the row-wise/Gustavson fallbacks
//!   and the sequential references must agree **bit for bit**,
//!   whatever path a faulted run degrades a request onto. The traffic
//!   mixes all four kernel families; every successful response is
//!   checked against its precomputed reference; `exact == ok` is the
//!   headline invariant.
//! * **No lost answers.** Every submitted request resolves to a
//!   response or an error — injected panics surface as
//!   [`ServeError::WorkerPanicked`] or quarantine-fallback servings,
//!   never hangs.
//! * **Accounted degradation.** The report carries the engine's
//!   [`HealthSnapshot`], the `serve.breaker.*` / `serve.retry.*` /
//!   `serve.quarantined` counters in the manifest, and the per-point
//!   fault hit counts, so a fixed seed reproduces the same schedule.
//!
//! The fault spec grammar is [`FaultPlan::parse`]'s:
//! `point:action@hits[,…]` with action `error` | `panic` |
//! `delay:<ms>ms` and hits `N` | `every:N` | `N..M` | `*`.

use crate::batch::BatchConfig;
use crate::bench::verdict;
use crate::cache::CacheStats;
use crate::driver::{cover, zipf_schedule, DeltaChain, Op, Stream};
use crate::engine::{HealthSnapshot, ServeConfig, ServeEngine, ServeStats};
use crate::error::ServeError;
use crate::store::PlanStore;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spmm_data::generators;
use spmm_faults::FaultPlan;
use spmm_kernels::{Engine, EngineConfig, Output};
use spmm_sparse::SparseError;
use spmm_telemetry::RunManifest;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload knobs for [`run_chaos_bench`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ChaosBenchConfig {
    /// Total requests in the stream. Default 192.
    pub requests: usize,
    /// Closed-loop client threads. Default 4.
    pub concurrency: usize,
    /// Serving worker threads. Default 4.
    pub workers: usize,
    /// Plan-cache capacity. Default 8.
    pub cache_capacity: usize,
    /// Admission queue bound. Default 256.
    pub queue_capacity: usize,
    /// Zipf skew exponent. Default 1.1.
    pub zipf_s: f64,
    /// Seed for the corpus, the schedule and the fault plan's jitter.
    /// Default 42.
    pub seed: u64,
    /// Dense-operand width `k`. Default 16.
    pub k: usize,
    /// Scripted fault schedule in [`FaultPlan::parse`] grammar; `None`
    /// runs clean (nothing is armed, zero overhead).
    pub faults: Option<String>,
    /// Multi-RHS batching for the serving engine: fused passes must
    /// stay bit-exact under the same fault schedule. Default: disabled.
    pub batch: Option<BatchConfig>,
    /// Persistent plan-store directory for the serving engine, so the
    /// schedule can target `serve.store.load` / `serve.store.save` and
    /// prove a failing disk tier degrades to live preparation without
    /// losing exactness. Default: no store.
    pub plan_store: Option<PathBuf>,
    /// Live structural deltas: a mutator thread chains
    /// [`apply_delta`](crate::PlanCache::apply_delta) epochs over the
    /// hottest corpus structure *while* the client stream runs. Every
    /// client checks against the reference of the epoch it actually
    /// sent, so the swap must never serve a mixed or partial plan; the
    /// fault schedule can target `kernel.delta`, `serve.cache.delta`
    /// and `serve.store.delta` to kill a delta mid-flight, and a
    /// failed delta must leave the old epoch fully serveable. Default:
    /// disabled.
    pub deltas: bool,
}

impl Default for ChaosBenchConfig {
    fn default() -> Self {
        ChaosBenchConfig {
            requests: 192,
            concurrency: 4,
            workers: 4,
            cache_capacity: 8,
            queue_capacity: 256,
            zipf_s: 1.1,
            seed: 42,
            k: 16,
            faults: None,
            batch: None,
            plan_store: None,
            deltas: false,
        }
    }
}

/// What [`run_chaos_bench`] observed.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ChaosBenchReport {
    /// The configuration the run used.
    pub config: ChaosBenchConfig,
    /// Distinct matrix structures in the corpus.
    pub corpus_size: usize,
    /// Wall-clock duration of the request stream.
    pub wall: Duration,
    /// Requests that resolved successfully.
    pub ok: usize,
    /// Requests that resolved to an error (injected or real).
    pub failed: usize,
    /// Successful responses whose output was **bit-equal** to the
    /// sequential row-wise reference. The contract is `exact == ok`.
    pub exact: usize,
    /// Times each armed fault point fired (empty on a clean run).
    pub fault_hits: BTreeMap<String, u64>,
    /// Serving counters at the end of the run.
    pub stats: ServeStats,
    /// Plan-cache counters at the end of the run.
    pub cache: CacheStats,
    /// The engine's final health snapshot.
    pub health: HealthSnapshot,
    /// The run manifest, `serve.breaker.*` / `serve.retry.*` /
    /// `serve.quarantined` counters included.
    pub manifest: RunManifest,
    /// Structural-delta epochs the mutator committed during the stream
    /// (`0` unless [`ChaosBenchConfig::deltas`] is on).
    pub deltas_committed: usize,
    /// Delta attempts that resolved to an error — injected faults
    /// included. Each must have left the old epoch serveable, which the
    /// concurrent clients verify bit-for-bit.
    pub deltas_failed: usize,
    /// Post-stream verdict on the final committed epoch: its
    /// chained-incremental plan served all four kernel families
    /// bit-equal to the sequential references **and** to a from-scratch
    /// `Engine::prepare` over the same structure. `None` when
    /// `deltas` is off.
    pub final_epoch_exact: Option<bool>,
}

impl ChaosBenchReport {
    /// The headline contract: every response the engine called
    /// successful was bit-equal to the reference, and every request
    /// was answered. Under `--deltas` the final committed epoch must
    /// additionally match a from-scratch prepare bit-for-bit.
    pub fn all_successes_exact(&self) -> bool {
        self.exact == self.ok
            && self.ok + self.failed == self.config.requests
            && self.final_epoch_exact != Some(false)
    }

    /// Renders the human-readable summary the CLI prints.
    pub fn render(&self) -> String {
        let c = &self.config;
        let s = &self.stats;
        let mut out = String::new();
        out.push_str(&format!(
            "chaos-bench: {} requests over {} matrices, {} clients, {} workers, seed {}\n",
            c.requests, self.corpus_size, c.concurrency, c.workers, c.seed
        ));
        out.push_str(&format!(
            "  faults: {}\n",
            c.faults.as_deref().unwrap_or("(none armed)")
        ));
        out.push_str(&format!(
            "  ok {}  failed {}  exact {}/{} -> {}\n",
            self.ok,
            self.failed,
            self.exact,
            self.ok,
            verdict(
                self.all_successes_exact(),
                "ok (every success bit-equal to the row-wise reference)"
            )
        ));
        out.push_str(&format!(
            "  paths: fallbacks {} (quarantined {})  worker panics {}  deadline-exceeded {}\n",
            s.fallbacks, s.quarantined, self.health.worker_panics, s.deadline_exceeded
        ));
        if let Some(batch) = &c.batch {
            out.push_str(&format!(
                "  batching: max_batch_k={}   {} batches / {} fused requests\n",
                batch.max_batch_k, s.batches, s.batched_requests
            ));
        }
        let counter = |name: &str| self.manifest.counters.get(name).copied().unwrap_or(0);
        if let Some(dir) = &c.plan_store {
            out.push_str(&format!(
                "  plan store: {}   warm {}  hit {}  miss {}  save {}  reject {}  save-errors {}\n",
                dir.display(),
                counter("serve.store.warm"),
                counter("serve.store.hit"),
                counter("serve.store.miss"),
                counter("serve.store.save"),
                counter("serve.store.reject"),
                counter("serve.store.save_error"),
            ));
        }
        if c.deltas {
            out.push_str(&format!(
                "  deltas: committed {}  failed {}  final epoch {}   (attempt {}  commit {}  abort {})\n",
                self.deltas_committed,
                self.deltas_failed,
                match self.final_epoch_exact {
                    Some(true) => "exact (bit-equal to from-scratch prepare)",
                    Some(false) => "FAILED",
                    None => "unchecked",
                },
                counter("serve.delta.attempt"),
                counter("serve.delta.commit"),
                counter("serve.delta.abort"),
            ));
        }
        out.push_str(&format!(
            "  breaker: open {}  half-open {}  closed {}   retries: scheduled {}  suppressed {}  attempted {}\n",
            counter("serve.breaker.open"),
            counter("serve.breaker.half_open"),
            counter("serve.breaker.close"),
            counter("serve.retry.scheduled"),
            counter("serve.retry.suppressed"),
            counter("serve.retry.attempt"),
        ));
        out.push_str(&format!(
            "  health: ready={} workers {}/{} queue {}/{} open-breakers {} poisoned {}\n",
            self.health.ready(),
            self.health.workers_alive,
            self.health.workers_total,
            self.health.queue_depth,
            self.health.queue_capacity,
            self.health.open_breakers,
            self.health.poisoned_plans,
        ));
        if !self.fault_hits.is_empty() {
            let hits: Vec<String> = self
                .fault_hits
                .iter()
                .map(|(p, h)| format!("{p}={h}"))
                .collect();
            out.push_str(&format!("  fault hits: {}\n", hits.join(" ")));
        }
        out
    }
}

/// Structural-delta epochs the `--deltas` mutator chains over the
/// stream.
const DELTA_EPOCHS: usize = 4;

/// Runs the chaos workload — the driver preset that adds fault arming,
/// exact tallies and the final-epoch check — and returns the observed
/// report. When `config.faults` is set, the parsed [`FaultPlan`] is
/// armed process-wide for the whole run (taking the global arming
/// lock); `None` runs clean without arming anything.
///
/// The driver asserts nothing itself — the caller (the chaos suite,
/// CI) checks [`ChaosBenchReport::all_successes_exact`] and the
/// breaker/quarantine counters, so a degraded run still reports
/// honestly.
///
/// # Errors
/// [`ServeError::Prepare`] with the parse message when `config.faults`
/// is not valid fault-spec grammar.
pub fn run_chaos_bench(config: &ChaosBenchConfig) -> Result<ChaosBenchReport, ServeError> {
    let mut guard = match &config.faults {
        Some(spec) => Some(
            FaultPlan::parse(spec, config.seed)
                .map_err(|msg| ServeError::Prepare(SparseError::InvalidStructure(msg)))?
                .arm(),
        ),
        None => None,
    };
    let matrices = (0..6usize).map(|i| {
        let seed = config.seed ^ (0xC0DE + i as u64);
        generators::uniform_random::<f64>(64 + 16 * i, 48 + 8 * i, 4 + i % 3, seed)
    });
    let cases = cover(matrices, config.k, config.seed, true);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let schedule = zipf_schedule(config.requests, cases.len(), config.zipf_s, &mut rng);
    let store = match &config.plan_store {
        Some(dir) => Some(Arc::new(PlanStore::open(dir).map_err(ServeError::Prepare)?)),
        None => None,
    };
    let mut serve_config = ServeConfig::builder()
        .workers(config.workers)
        .queue_capacity(config.queue_capacity)
        .cache_capacity(config.cache_capacity);
    if let Some(batch) = config.batch {
        serve_config = serve_config.batching(batch);
    }
    if let Some(store) = store {
        serve_config = serve_config.plan_store(store);
    }
    let engine = ServeEngine::<f64>::start(serve_config.build()?);
    let chain = config
        .deltas
        .then(|| DeltaChain::new(&cases[0], DELTA_EPOCHS));
    let stream = Stream {
        cases: &cases,
        schedule: &schedule,
        // round-robin over the four kernel families so every path sees
        // the fault schedule
        mix: &[Op::Spmm, Op::Spmv, Op::Spgemm, Op::Sddmm],
        deadline: None,
        concurrency: config.concurrency,
        deltas: chain.as_ref(),
    };
    let stream_start = Instant::now();
    let tally = stream.run(&engine);
    let wall = stream_start.elapsed();

    let fault_hits: BTreeMap<String, u64> = match (&guard, &config.faults) {
        (Some(guard), Some(spec)) => FaultPlan::parse(spec, config.seed)
            .map(|plan| {
                plan.rules()
                    .iter()
                    .map(|r| (r.point.clone(), guard.hits(&r.point)))
                    .collect()
            })
            .unwrap_or_default(),
        _ => BTreeMap::new(),
    };
    // Disarm for the epilogue and the snapshots, but hold the arming
    // permit until the epilogue is done: its requests and its prepare
    // must not fire a plan another test arms in the meantime.
    if let Some(guard) = &mut guard {
        guard.disarm();
    }

    // --deltas epilogue, run clean: the final committed epoch's plan is
    // the product of every chained incremental patch that landed. It
    // must serve all four kernel families bit-equal to the sequential
    // references, and SpMM must also match a from-scratch prepare over
    // the final structure bit for bit.
    let final_epoch_exact = chain.as_ref().map(|chain| {
        let case = chain.current();
        let served = [Op::Spmm, Op::Spmv, Op::Sddmm, Op::Spgemm]
            .into_iter()
            .all(|op| {
                engine
                    .execute(case.request(op))
                    .is_ok_and(|resp| case.is_exact(op, &resp.output))
            });
        served
            && Engine::prepare(&case.matrix, &EngineConfig::default())
                .and_then(|fresh| fresh.spmm(&case.x))
                .is_ok_and(|out| case.is_exact(Op::Spmm, &Output::Dense(out)))
    });
    drop(guard);

    let stats = engine.stats();
    let cache = engine.cache_stats();
    let health = engine.health();
    let telemetry = engine.telemetry();
    telemetry.gauge("chaos.ok", tally.ok as f64);
    telemetry.gauge("chaos.failed", tally.failed as f64);
    telemetry.gauge("chaos.exact", tally.exact as f64);
    let (deltas_committed, deltas_failed) = chain
        .as_ref()
        .map_or((0, 0), |c| (c.committed(), c.failed()));
    if config.deltas {
        telemetry.gauge("chaos.deltas_committed", deltas_committed as f64);
        telemetry.gauge("chaos.deltas_failed", deltas_failed as f64);
    }
    telemetry.meta("chaos.seed", &config.seed.to_string());
    if let Some(spec) = &config.faults {
        telemetry.meta("chaos.faults", spec);
    }
    let manifest = engine.manifest();

    Ok(ChaosBenchReport {
        config: config.clone(),
        corpus_size: cases.len(),
        wall,
        ok: tally.ok,
        failed: tally.failed,
        exact: tally.exact,
        fault_hits,
        stats,
        cache,
        health,
        manifest,
        deltas_committed,
        deltas_failed,
        final_epoch_exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_fault_spec_is_a_prepare_error_not_a_panic() {
        let config = ChaosBenchConfig {
            faults: Some("serve.worker:frobnicate@1".into()),
            ..ChaosBenchConfig::default()
        };
        let err = run_chaos_bench(&config).unwrap_err();
        assert!(matches!(err, ServeError::Prepare(_)), "{err:?}");
        assert!(err.to_string().contains("frobnicate"), "{err}");
    }

    // Clean and faulted end-to-end runs live in tests/chaos.rs, where
    // the global fault registry can be serialised across the suite.
}
