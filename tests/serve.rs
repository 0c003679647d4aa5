//! Acceptance tests for the plan-cached serving layer: the caching
//! contract (a hit pays zero additional preprocessing), graceful
//! degradation under deadline pressure, admission control, and exact
//! cache counters in the run manifest under concurrency — all through
//! the `spmm_rr` prelude re-exports.

use spmm_rr::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn serve(workers: usize, queue: usize) -> ServeEngine<f64> {
    ServeEngine::start(
        ServeConfig::builder()
            .workers(workers)
            .queue_capacity(queue)
            .build()
            .unwrap(),
    )
}

#[test]
fn cache_hit_serves_spmm_with_zero_additional_preprocessing() {
    let engine = serve(2, 32);
    let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 5);
    let x = generators::random_dense::<f64>(m.ncols(), 16, 9);
    let expected = spmm_rowwise_seq(&m, &x).unwrap();

    let cold = engine.execute(Request::spmm(m.clone(), x.clone())).unwrap();
    assert_eq!(cold.path, ServePath::FreshPlan);
    assert!(
        cold.preprocess > Duration::ZERO,
        "the cold request pays for Fig 5 preprocessing"
    );

    let warm = engine.execute(Request::spmm(m, x)).unwrap();
    assert_eq!(warm.path, ServePath::CachedPlan);
    assert_eq!(
        warm.preprocess,
        Duration::ZERO,
        "a plan-cache hit pays zero additional preprocessing"
    );
    let got = warm.output.into_dense().unwrap();
    assert!(expected.max_abs_diff(&got) < 1e-10);

    // ...and the manifest says the same
    let manifest = engine.manifest();
    assert_eq!(manifest.counters["serve.cache.hit"], 1);
    assert_eq!(manifest.counters["serve.cache.miss"], 1);
}

#[test]
fn cold_miss_under_deadline_completes_via_rowwise_fallback() {
    let engine = ServeEngine::<f64>::start(
        ServeConfig::builder()
            .workers(1)
            .preprocess_budget(Duration::from_millis(25))
            .build()
            .unwrap(),
    );
    let m = generators::shuffled_block_diagonal::<f64>(32, 16, 48, 16, 7);
    let x = generators::random_dense::<f64>(m.ncols(), 16, 3);
    let expected = spmm_rowwise_seq(&m, &x).unwrap();

    // deadline == budget ⇒ the remaining slack can never exceed the
    // preprocessing budget: the tight path fires deterministically and
    // the cold cache forces the fallback
    let resp = engine
        .execute(Request::spmm(m, x).deadline(Duration::from_millis(25)))
        .unwrap();
    assert_eq!(resp.path, ServePath::Fallback);
    assert_eq!(resp.preprocess, Duration::ZERO);
    let got = resp.output.into_dense().unwrap();
    assert!(
        expected.max_abs_diff(&got) < 1e-10,
        "degraded, not wrong: the fallback is exact"
    );
    assert_eq!(engine.stats().fallbacks, 1);
    assert_eq!(engine.manifest().counters["serve.fallback"], 1);
    // the fallback did not populate the cache
    assert_eq!(engine.cache_stats().inserts, 0);
}

#[test]
fn admission_control_sheds_load_with_overloaded() {
    let engine = serve(1, 1);
    let m = Arc::new(generators::uniform_random::<f64>(512, 512, 16, 1));
    let x = Arc::new(generators::random_dense::<f64>(512, 32, 2));
    let mut accepted = Vec::new();
    let mut rejections = 0u64;
    for _ in 0..24 {
        match engine.submit(Request::spmm(m.clone(), x.clone())) {
            Ok(t) => accepted.push(t),
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        ServeError::Overloaded {
                            queue_capacity: 1,
                            ..
                        }
                    ),
                    "{e}"
                );
                rejections += 1;
            }
        }
    }
    assert!(rejections > 0, "a queue of 1 must shed some of 24 bursts");
    for t in accepted {
        t.wait().unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.rejected, rejections);
    assert_eq!(stats.submitted + stats.rejected, 24);
    assert_eq!(stats.completed, stats.submitted);
}

#[test]
fn manifest_cache_counters_are_exact_under_concurrency() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 10;
    let engine = Arc::new(serve(3, 256));
    let matrices: Vec<Arc<CsrMatrix<f64>>> = (0..3)
        .map(|i| Arc::new(generators::uniform_random::<f64>(128, 128, 6, 40 + i)))
        .collect();
    let xs: Vec<Arc<DenseMatrix<f64>>> = matrices
        .iter()
        .map(|m| Arc::new(generators::random_dense::<f64>(m.ncols(), 8, 3)))
        .collect();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let engine = engine.clone();
            let (matrices, xs) = (matrices.clone(), xs.clone());
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let mi = (c + i) % matrices.len();
                    engine
                        .execute(Request::spmm(matrices[mi].clone(), xs[mi].clone()))
                        .unwrap();
                }
            });
        }
    });

    let total = (CLIENTS * PER_CLIENT) as u64;
    let stats = engine.stats();
    let cache = engine.cache_stats();
    let manifest = engine.manifest();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    // one cache lookup per served request, each counted exactly once
    assert_eq!(cache.hits + cache.misses, total);
    // 3 structures, ample capacity: every prepare ran exactly once
    assert_eq!(cache.inserts, 3);
    assert_eq!(cache.evictions, 0);
    // the manifest carries the same exact numbers
    assert_eq!(manifest.counters["serve.submitted"], stats.submitted);
    assert_eq!(manifest.counters["serve.completed"], stats.completed);
    assert_eq!(manifest.counters["serve.cache.hit"], cache.hits);
    assert_eq!(manifest.counters["serve.cache.miss"], cache.misses);
    assert_eq!(manifest.counters["serve.cache.insert"], cache.inserts);
    assert!(!manifest.counters.contains_key("serve.rejected"));
}

#[test]
fn value_only_update_refreshes_the_cached_plan_in_place() {
    let engine = serve(2, 32);
    let m = generators::uniform_random::<f64>(96, 96, 5, 77);
    let x = generators::random_dense::<f64>(m.ncols(), 8, 1);
    let fp = MatrixFingerprint::of(&m);
    engine.execute(Request::spmm(m.clone(), x.clone())).unwrap();

    let new_values: Vec<f64> = (0..m.nnz()).map(|i| (i % 7) as f64 - 3.0).collect();
    assert!(engine.update_values(&fp, &new_values).unwrap());

    let mut m2 = m.clone();
    m2.values_mut().copy_from_slice(&new_values);
    let expected = spmm_rowwise_seq(&m2, &x).unwrap();
    // the refreshed plan serves the new values... from the cache
    let resp = engine.execute(Request::spmm(m2, x)).unwrap();
    assert_eq!(resp.path, ServePath::CachedPlan);
    let got = resp.output.into_dense().unwrap();
    assert!(expected.max_abs_diff(&got) < 1e-10);
    assert_eq!(engine.cache_stats().refreshes, 1);
    assert_eq!(engine.cache_stats().inserts, 1, "no re-prepare happened");
}

#[test]
fn serve_bench_quick_run_meets_the_acceptance_criteria() {
    let mut config = ServeBenchConfig::default();
    config.requests = 16;
    config.concurrency = 2;
    config.workers = 2;
    config.cache_capacity = 4;
    config.k = 16;
    let report = run_serve_bench(&config).unwrap();
    assert!(report.probes_passed(), "{}", report.render());
    // the manifest records the probe outcomes alongside exact counters
    assert!(report.manifest.meta["bench.hit_probe"].contains("preprocess_ns=0"));
    assert!(report.manifest.meta["bench.cold_probe"].contains("fallback"));
    assert_eq!(
        report.manifest.counters["serve.cache.hit"],
        report.cache.hits
    );
}
