//! The seeded chaos suite: scripted fault schedules against the
//! serving stack, asserting the resilience contracts end to end.
//!
//! Every test here arms (or quiesces) the process-global fault
//! registry, so the registry's arming lock serialises them — they can
//! share one test binary but must NOT be moved into crates whose unit
//! tests assume an unarmed registry.
//!
//! The driving seed comes from `CHAOS_SEED` (default 42) so CI can
//! sweep seeds without recompiling.

use spmm_rr::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// A small matrix/operand pair on an integer grid: every partial sum
/// is exactly representable, so any correct kernel — tiled, row-wise
/// parallel or sequential — must produce bit-identical output.
fn integer_case(seed: u64) -> (Arc<CsrMatrix<f64>>, Arc<DenseMatrix<f64>>) {
    let mut m = generators::shuffled_block_diagonal::<f64>(24, 8, 24, 8, seed);
    for v in m.values_mut() {
        *v = (*v * 8.0).round().clamp(-8.0, 8.0);
    }
    let mut x = generators::random_dense::<f64>(m.ncols(), 8, seed ^ 0xD15EA5E);
    for v in x.data_mut() {
        *v = (*v * 8.0).round().clamp(-8.0, 8.0);
    }
    (Arc::new(m), Arc::new(x))
}

/// With nothing armed, the fault hooks must not perturb numerics or
/// the manifest: output under `quiesce()` is bit-identical to output
/// under an armed-but-empty plan, and a clean serve-bench manifest
/// carries none of the resilience counters.
#[test]
fn disarmed_fault_points_have_zero_observable_overhead() {
    let (m, x) = integer_case(chaos_seed());
    let quiet = {
        let _guard = quiesce();
        let engine = Engine::prepare(&m, &EngineConfig::default()).unwrap();
        engine.spmm(&x).unwrap()
    };
    let empty_plan = {
        let _guard = FaultPlan::new(chaos_seed()).arm();
        let engine = Engine::prepare(&m, &EngineConfig::default()).unwrap();
        engine.spmm(&x).unwrap()
    };
    assert_eq!(
        quiet.data(),
        empty_plan.data(),
        "an armed empty plan changed kernel output"
    );

    let _guard = quiesce();
    let mut config = ServeBenchConfig::default();
    config.requests = 32;
    config.concurrency = 2;
    config.workers = 2;
    config.k = 8;
    config.seed = chaos_seed();
    let report = run_serve_bench(&config).unwrap();
    assert!(report.probes_passed(), "{}", report.render());
    for key in report.manifest.counters.keys() {
        assert!(
            !key.starts_with("serve.breaker.")
                && !key.starts_with("serve.retry.")
                && key != "serve.quarantined"
                && key != "serve.worker.panic"
                && key != "serve.cache.poisoned",
            "clean run leaked resilience counter {key}"
        );
    }
}

/// Breaker lifecycle under a scripted prepare-failure schedule, driven
/// deterministically by a manual clock: closed → backoff → backoff →
/// open → failed half-open probe → successful probe → closed. The
/// breaker opens at the third consecutive failure and stays open for
/// 250 ms; the backoff windows are 10 ms and 20 ms plus at most 25 %.
#[test]
fn breaker_opens_probes_half_open_and_recovers_on_schedule() {
    let (clock, manual) = ClockHandle::manual();
    let guard = FaultPlan::parse("serve.cache.prepare:error@1..5", chaos_seed())
        .unwrap()
        .arm();
    let serve = ServeEngine::<f64>::start(
        ServeConfig::builder()
            .workers(1)
            .clock(clock)
            .build()
            .unwrap(),
    );
    let (m, x) = integer_case(chaos_seed());
    let counter = |name: &str| serve.telemetry().counter_value(name);
    let request = || Request::spmm(m.clone(), x.clone());

    // hits 1 and 2: each failure keeps the breaker closed and starts a
    // backoff window, inside which the next request is suppressed and
    // degraded to row-wise
    for failure in 1..=2 {
        assert!(matches!(
            serve.execute(request()),
            Err(ServeError::Prepare(_))
        ));
        assert_eq!(counter("serve.breaker.open"), 0);
        assert_eq!(counter("serve.retry.scheduled"), failure);
        let resp = serve.execute(request()).unwrap();
        assert_eq!(resp.path, ServePath::Fallback);
        assert_eq!(counter("serve.retry.suppressed"), failure);
        manual.advance(Duration::from_millis(30));
    }

    // hit 3 after the window: the third consecutive failure trips the
    // breaker
    assert!(serve.execute(request()).is_err());
    assert_eq!(counter("serve.breaker.open"), 1);
    assert_eq!(serve.health().open_breakers, 1);

    // breaker open: no attempt reaches prepare, request degrades
    let resp = serve.execute(request()).unwrap();
    assert_eq!(resp.path, ServePath::Fallback);
    assert_eq!(counter("serve.retry.suppressed"), 3);

    // cooldown over: half-open probe runs, is injected (hit 4), re-opens
    manual.advance(Duration::from_millis(250));
    assert!(serve.execute(request()).is_err());
    assert_eq!(counter("serve.breaker.half_open"), 1);
    assert_eq!(counter("serve.breaker.open"), 2);

    // next probe (hit 5) also fails
    manual.advance(Duration::from_millis(250));
    assert!(serve.execute(request()).is_err());
    assert_eq!(counter("serve.breaker.half_open"), 2);
    assert_eq!(counter("serve.breaker.open"), 3);

    // hit 6 is past the scripted range: the probe succeeds and closes
    // the breaker; the plan is cached from here on
    manual.advance(Duration::from_millis(250));
    let resp = serve.execute(request()).unwrap();
    assert_eq!(resp.path, ServePath::FreshPlan);
    assert_eq!(counter("serve.breaker.close"), 1);
    assert_eq!(serve.health().open_breakers, 0);
    let resp = serve.execute(request()).unwrap();
    assert_eq!(resp.path, ServePath::CachedPlan);

    assert_eq!(guard.hits("serve.cache.prepare"), 6);
    serve.shutdown();
}

/// A prepare panic poisons the slot; the poisoned fingerprint is
/// quarantined and served exactly by the row-wise fallback until the
/// operator sweeps it.
#[test]
fn poisoned_slot_quarantines_with_exact_fallback_then_recovers() {
    let guard = FaultPlan::parse("serve.cache.prepare:panic@1", chaos_seed())
        .unwrap()
        .arm();
    let serve = ServeEngine::<f64>::start(ServeConfig::builder().workers(1).build().unwrap());
    let (m, x) = integer_case(chaos_seed() ^ 1);
    let expected = spmm_rowwise_seq(&m, &x).unwrap();

    // the panic crosses the cache's catch_unwind, poisons the slot and
    // surfaces as WorkerPanicked — never a hang
    let first = serve.execute(Request::spmm(m.clone(), x.clone()));
    assert!(
        matches!(first, Err(ServeError::WorkerPanicked)),
        "{first:?}"
    );

    // the worker survived, the fingerprint is quarantined: requests
    // degrade to the row-wise fallback with bit-exact results
    for round in 1..=2u64 {
        let resp = serve.execute(Request::spmm(m.clone(), x.clone())).unwrap();
        assert_eq!(resp.path, ServePath::Fallback);
        match resp.output {
            Output::Dense(got) => assert_eq!(got.data(), expected.data()),
            other => panic!("unexpected output {other:?}"),
        }
        assert_eq!(serve.stats().quarantined, round);
    }
    let health = serve.health();
    assert_eq!(health.poisoned_plans, 1);
    assert_eq!(health.worker_panics, 1);
    assert_eq!(health.workers_alive, 1, "worker died with the panic");
    assert!(health.ready());

    // sweeping the quarantine restores the tiled path (hit 2 is past
    // the scripted schedule)
    assert_eq!(serve.cache().clear_poisoned(), 1);
    let resp = serve.execute(Request::spmm(m.clone(), x.clone())).unwrap();
    assert_eq!(resp.path, ServePath::FreshPlan);
    match resp.output {
        Output::Dense(got) => assert_eq!(got.data(), expected.data()),
        other => panic!("unexpected output {other:?}"),
    }
    assert_eq!(guard.hits("serve.cache.prepare"), 2);
    serve.shutdown();
}

/// The same ladder holds when the panic originates deep inside the
/// preprocessing pipeline (the reorder rounds), not at the cache shim.
#[test]
fn reorder_round_panic_is_contained_and_quarantined() {
    let _guard = FaultPlan::parse("reorder.round1:panic@1", chaos_seed())
        .unwrap()
        .arm();
    let serve = ServeEngine::<f64>::start(ServeConfig::builder().workers(1).build().unwrap());
    let (m, x) = integer_case(chaos_seed() ^ 2);
    let expected = spmm_rowwise_seq(&m, &x).unwrap();

    assert!(matches!(
        serve.execute(Request::spmm(m.clone(), x.clone())),
        Err(ServeError::WorkerPanicked)
    ));
    let resp = serve.execute(Request::spmm(m.clone(), x.clone())).unwrap();
    assert_eq!(resp.path, ServePath::Fallback);
    match resp.output {
        Output::Dense(got) => assert_eq!(got.data(), expected.data()),
        other => panic!("unexpected output {other:?}"),
    }
    assert_eq!(serve.stats().quarantined, 1);
    serve.shutdown();
}

/// Concurrent Zipf traffic under a mixed fault schedule: whatever the
/// interleaving, no request is lost, every reported success is
/// bit-exact, and the armed points actually fired.
#[test]
fn chaos_bench_under_mixed_faults_holds_the_invariants() {
    let mut config = ChaosBenchConfig::default();
    config.requests = 96;
    config.concurrency = 4;
    config.workers = 3;
    config.seed = chaos_seed();
    config.k = 8;
    config.faults = Some(
        "serve.cache.prepare:error@every:3,kernel.execute:error@every:5,\
         serve.worker:delay:1ms@every:7"
            .into(),
    );
    let report = run_chaos_bench(&config).unwrap();

    assert_eq!(
        report.ok + report.failed,
        config.requests,
        "lost requests: {}",
        report.render()
    );
    assert_eq!(
        report.exact,
        report.ok,
        "inexact successful responses: {}",
        report.render()
    );
    assert!(report.all_successes_exact());
    assert!(report.failed > 0, "the schedule injected nothing");
    for point in ["serve.cache.prepare", "kernel.execute", "serve.worker"] {
        assert!(
            report.fault_hits.get(point).copied().unwrap_or(0) > 0,
            "{point} never fired: {:?}",
            report.fault_hits
        );
    }
    assert_eq!(report.health.workers_alive, config.workers);
    assert!(report.health.ready());
}

/// Multi-RHS batching under injected failure: the fused k-blocked
/// passes must stay bit-exact while errors and delays reorder the
/// queue, and a failed fused pass must answer every member (no lost
/// requests).
#[test]
fn chaos_bench_with_batching_stays_exact_under_faults() {
    let mut config = ChaosBenchConfig::default();
    config.requests = 96;
    config.concurrency = 6;
    // a single worker keeps a backlog, so fused batches actually form
    config.workers = 1;
    config.seed = chaos_seed() ^ 0xBA7C;
    config.k = 8;
    config.batch = Some(BatchConfig::default());
    config.faults = Some("serve.worker:error@every:6,serve.cache.prepare:error@every:5".into());
    let report = run_chaos_bench(&config).unwrap();

    assert_eq!(
        report.ok + report.failed,
        config.requests,
        "lost requests: {}",
        report.render()
    );
    assert_eq!(
        report.exact,
        report.ok,
        "inexact responses under batching: {}",
        report.render()
    );
    assert!(report.all_successes_exact());
    assert!(report.failed > 0, "the schedule injected nothing");
    assert!(
        report.stats.batches >= 1,
        "backlogged single-worker stream never fused: {}",
        report.render()
    );
    assert!(
        report.stats.batched_requests >= 2 * report.stats.batches,
        "a fused batch has at least two members: {:?}",
        report.stats
    );
    assert!(report.health.ready());
}

/// A failing plan-store load degrades to a live prepare — counted as
/// `serve.store.reject`, bit-exact, never a panic or a failed request —
/// and the write-through still persists the plan, so a restart past the
/// schedule warm-starts from disk.
#[test]
fn store_load_fault_degrades_to_live_prepare_exactly() {
    let dir = std::env::temp_dir().join(format!("spmm-chaos-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(PlanStore::open(&dir).unwrap());
    let guard = FaultPlan::parse("serve.store.load:error@1", chaos_seed())
        .unwrap()
        .arm();
    let serve = ServeEngine::<f64>::start(
        ServeConfig::builder()
            .workers(1)
            .plan_store(store.clone())
            .build()
            .unwrap(),
    );
    let (m, x) = integer_case(chaos_seed() ^ 5);
    let expected = spmm_rowwise_seq(&m, &x).unwrap();

    // hit 1: the read-through load fails mid-request; the cache rejects
    // the store and prepares live — the answer is still exact
    let resp = serve.execute(Request::spmm(m.clone(), x.clone())).unwrap();
    assert_eq!(resp.path, ServePath::FreshPlan);
    match resp.output {
        Output::Dense(got) => assert_eq!(got.data(), expected.data()),
        other => panic!("unexpected output {other:?}"),
    }
    let counter = |name: &str| serve.telemetry().counter_value(name);
    assert_eq!(counter("serve.store.reject"), 1);
    assert_eq!(
        counter("serve.store.save"),
        1,
        "write-through must still run"
    );
    assert_eq!(guard.hits("serve.store.load"), 1);
    serve.shutdown();
    drop(guard);

    // the plan survived the faulted load, so a restarted engine past
    // the schedule warm-starts and serves its first request cached
    let serve = ServeEngine::<f64>::start(
        ServeConfig::builder()
            .workers(1)
            .plan_store(store)
            .build()
            .unwrap(),
    );
    assert_eq!(serve.telemetry().counter_value("serve.store.warm"), 1);
    let resp = serve.execute(Request::spmm(m, x)).unwrap();
    assert_eq!(resp.path, ServePath::CachedPlan);
    assert!(resp.preprocess.is_zero());
    match resp.output {
        Output::Dense(got) => assert_eq!(got.data(), expected.data()),
        other => panic!("unexpected output {other:?}"),
    }
    serve.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Chaos traffic against a fault-injected disk tier: loads and saves
/// fail on schedule mid-stream, yet no request fails, every success is
/// bit-exact, and the degradations are accounted in the manifest.
#[test]
fn chaos_bench_with_faulted_plan_store_stays_exact() {
    let dir = std::env::temp_dir().join(format!("spmm-chaos-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = ChaosBenchConfig::default();
    config.requests = 96;
    config.concurrency = 4;
    config.workers = 3;
    config.seed = chaos_seed() ^ 0x570E;
    config.k = 8;
    config.plan_store = Some(dir.clone());
    config.faults = Some("serve.store.load:error@every:2,serve.store.save:error@every:3".into());
    let report = run_chaos_bench(&config).unwrap();

    assert!(report.all_successes_exact(), "{}", report.render());
    assert_eq!(
        report.failed,
        0,
        "a faulted store tier must never fail a request: {}",
        report.render()
    );
    for point in ["serve.store.load", "serve.store.save"] {
        assert!(
            report.fault_hits.get(point).copied().unwrap_or(0) > 0,
            "{point} never fired: {:?}",
            report.fault_hits
        );
    }
    let counter = |name: &str| report.manifest.counters.get(name).copied().unwrap_or(0);
    assert!(counter("serve.store.reject") > 0, "{}", report.render());
    assert!(counter("serve.store.save_error") > 0, "{}", report.render());
    assert!(
        counter("serve.store.save") > 0,
        "off-schedule saves must still land: {}",
        report.render()
    );
    assert!(
        report.render().contains("plan store:"),
        "{}",
        report.render()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Live structural deltas with nothing armed: the mutator chains every
/// scripted epoch through the epoch-swapped cache while the stream
/// runs, no request fails, every success stays bit-exact against the
/// reference of the epoch it was actually sent to, and the final
/// chained plan answers bit-identically to a from-scratch prepare.
#[test]
fn chaos_bench_with_deltas_commits_every_epoch_and_stays_exact() {
    let _guard = quiesce();
    let mut config = ChaosBenchConfig::default();
    config.requests = 64;
    config.concurrency = 3;
    config.workers = 2;
    config.seed = chaos_seed();
    config.k = 8;
    config.deltas = true;
    let report = run_chaos_bench(&config).unwrap();
    assert_eq!(report.failed, 0, "{}", report.render());
    assert!(report.all_successes_exact(), "{}", report.render());
    assert_eq!(report.deltas_committed, 4, "{}", report.render());
    assert_eq!(report.deltas_failed, 0, "{}", report.render());
    assert_eq!(report.final_epoch_exact, Some(true), "{}", report.render());
    let counter = |name: &str| report.manifest.counters.get(name).copied().unwrap_or(0);
    assert!(counter("serve.delta.attempt") >= 4);
    assert!(counter("serve.delta.commit") >= 4);
    assert_eq!(counter("serve.delta.abort"), 0, "{}", report.render());
}

/// A fault killing the delta mid-flight — at the kernel's incremental
/// re-prepare, the cache's swap shim, or the store's crash-safe save —
/// must degrade to the old epoch (still serveable, still exact) and
/// never fail a request; the mutator's retry then lands the epoch once
/// the schedule moves past. Panics at the two in-boundary points are
/// absorbed by the cache's catch_unwind, never by the test harness.
#[test]
fn mid_delta_faults_degrade_to_the_old_epoch_then_commit() {
    let store_dir =
        std::env::temp_dir().join(format!("spmm-chaos-delta-store-{}", std::process::id()));
    for (point, action, every) in [
        ("kernel.delta", "error", 2),
        ("kernel.delta", "panic", 2),
        ("serve.cache.delta", "error", 2),
        ("serve.cache.delta", "error", 3),
        ("serve.cache.delta", "panic", 2),
        ("serve.store.delta", "error", 2),
    ] {
        let mut config = ChaosBenchConfig::default();
        config.requests = 48;
        config.concurrency = 3;
        config.workers = 2;
        config.seed = chaos_seed() ^ 0xDE17A;
        config.k = 8;
        config.deltas = true;
        config.faults = Some(format!("{point}:{action}@every:{every}"));
        if point == "serve.store.delta" {
            std::fs::remove_dir_all(&store_dir).ok();
            config.plan_store = Some(store_dir.clone());
        }
        let report = run_chaos_bench(&config).unwrap();
        let ctx = format!("{point}:{action}@every:{every}: {}", report.render());
        assert_eq!(report.failed, 0, "delta fault failed a request: {ctx}");
        assert!(report.all_successes_exact(), "{ctx}");
        assert_eq!(report.deltas_committed, 4, "{ctx}");
        assert!(report.deltas_failed > 0, "the schedule never fired: {ctx}");
        assert_eq!(report.final_epoch_exact, Some(true), "{ctx}");
        assert!(
            report.fault_hits.get(point).copied().unwrap_or(0) > 0,
            "{point} never fired: {ctx}"
        );
        let aborts = report
            .manifest
            .counters
            .get("serve.delta.abort")
            .copied()
            .unwrap_or(0);
        assert!(aborts > 0, "failed deltas must be accounted: {ctx}");
    }
    std::fs::remove_dir_all(&store_dir).ok();
}

/// A persistent fault that refuses every delta attempt pins the stream
/// on epoch 0: the mutator gives up honestly, nothing commits, yet the
/// old plan keeps serving bit-exact answers and the final-epoch check
/// (now epoch 0) still matches a from-scratch prepare.
#[test]
fn persistent_delta_fault_pins_the_old_epoch_without_wrong_answers() {
    let mut config = ChaosBenchConfig::default();
    config.requests = 48;
    config.concurrency = 3;
    config.workers = 2;
    config.seed = chaos_seed() ^ 0x01D;
    config.k = 8;
    config.deltas = true;
    config.faults = Some("kernel.delta:error@*".into());
    let report = run_chaos_bench(&config).unwrap();
    assert_eq!(report.failed, 0, "{}", report.render());
    assert!(report.all_successes_exact(), "{}", report.render());
    assert_eq!(report.deltas_committed, 0, "{}", report.render());
    assert!(report.deltas_failed > 0, "{}", report.render());
    assert_eq!(report.final_epoch_exact, Some(true), "{}", report.render());
    assert!(report.fault_hits.get("kernel.delta").copied().unwrap_or(0) > 0);
}

/// A clean chaos-bench run is indistinguishable from a plain benchmark:
/// no failures, full exactness, no resilience counters in the manifest.
#[test]
fn chaos_bench_without_faults_runs_clean() {
    // hold the arming permit so a concurrently-running armed test
    // cannot leak injections into this deliberately clean run
    let _guard = quiesce();
    let mut config = ChaosBenchConfig::default();
    config.requests = 48;
    config.concurrency = 2;
    config.workers = 2;
    config.seed = chaos_seed();
    config.k = 8;
    let report = run_chaos_bench(&config).unwrap();
    assert_eq!(report.failed, 0, "{}", report.render());
    assert_eq!(report.ok, config.requests);
    assert_eq!(report.exact, report.ok);
    assert!(report.fault_hits.is_empty());
    for key in report.manifest.counters.keys() {
        assert!(
            !key.starts_with("serve.breaker.") && !key.starts_with("serve.retry."),
            "clean chaos run leaked {key}"
        );
    }
}
