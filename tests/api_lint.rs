//! Deprecation lint for the public dispatch surface.
//!
//! This binary denies `deprecated`, so it fails to *compile* if the
//! canonical post-redesign spellings below ever route through (or
//! regress to) a deprecated item. It is the in-repo guarantee that a
//! downstream crate can use the documented API — builder-style
//! requests, `op_kind`/`k` on [`KernelOp`], the typed [`Output`]
//! accessors, the stats/health accessor surface — without
//! tripping `#[warn(deprecated)]`.
//!
//! The pre-redesign spellings (`Request::with_deadline`,
//! `KernelOp::kernel`) served their one deprecated release and are now
//! deleted outright; this suite pins their canonical replacements so a
//! regression cannot resurrect them unnoticed.
#![deny(deprecated)]

use spmm_rr::prelude::*;
use std::time::Duration;

fn small_case() -> (CsrMatrix<f64>, DenseMatrix<f64>, Vec<f64>, CsrMatrix<f64>) {
    let s = generators::shuffled_block_diagonal::<f64>(8, 8, 16, 8, 5);
    let x = generators::random_dense::<f64>(s.ncols(), 4, 6);
    let v = generators::random_dense::<f64>(s.ncols(), 1, 7)
        .data()
        .to_vec();
    let b = generators::uniform_random::<f64>(s.ncols(), 24, 3, 8);
    (s, x, v, b)
}

#[test]
fn canonical_kernel_surface_is_deprecation_free() {
    let (s, x, v, b) = small_case();
    let engine = Engine::prepare(&s, &EngineConfig::default()).unwrap();

    // KernelOp construction, op_kind() and k() — the canonical
    // introspection pair (the old kernel() spelling is deleted)
    let op: KernelOp<'_, f64> = KernelOp::Spmv { x: &v };
    assert_eq!(op.op_kind(), Kernel::Spmv);
    assert_eq!(op.k(), Some(1));
    let op: KernelOp<'_, f64> = KernelOp::Spgemm { b: &b };
    assert_eq!(op.op_kind(), Kernel::Spgemm);
    assert_eq!(op.k(), None);
    let op = KernelOp::Spmm { x: &x };
    assert_eq!(op.k(), Some(x.ncols()));

    // execute + typed accessors; the wrong-shape accessor answers None
    // instead of forcing a match on the non_exhaustive enum
    let out = engine.execute(KernelOp::Spmv { x: &v }).unwrap();
    assert!(out.as_vector().is_some());
    assert!(out.clone().into_dense().is_none());
    let y = engine.execute(KernelOp::Spmm { x: &x }).unwrap();
    assert!(y.as_dense().is_some());
    let c = engine.execute(KernelOp::Spgemm { b: &b }).unwrap();
    assert_eq!(c.into_sparse().unwrap().nrows(), s.nrows());
}

#[test]
fn canonical_serving_surface_is_deprecation_free() {
    let (s, x, v, b) = small_case();
    let serve = ServeEngine::<f64>::start(ServeConfig::default());

    // builder-style requests with `.deadline(..)` chaining — the
    // canonical spelling (the old with_deadline is deleted)
    let deadline = Duration::from_secs(5);
    let dense = serve
        .execute(Request::spmm(s.clone(), x.clone()).deadline(deadline))
        .unwrap();
    assert!(dense.output.as_dense().is_some());
    let vector = serve
        .execute(Request::spmv(s.clone(), v).deadline(deadline))
        .unwrap();
    assert!(vector.output.as_vector().is_some());
    let sparse = serve
        .execute(Request::spgemm(s.clone(), b).deadline(deadline))
        .unwrap();
    assert!(sparse.output.as_sparse().is_some());
    let values = serve
        .execute(Request::sddmm(
            s.clone(),
            x.clone(),
            generators::random_dense::<f64>(s.nrows(), 4, 9),
        ))
        .unwrap();
    assert!(values.output.as_values().is_some());

    // RequestOp introspection goes through the accessor
    let req = Request::spmm(s, x);
    assert!(matches!(req.op(), RequestOp::Spmm { .. }));
}

#[test]
fn canonical_stats_surface_is_accessors() {
    let (s, x, _, _) = small_case();
    let serve = ServeEngine::<f64>::start(ServeConfig::default());
    serve.execute(Request::spmm(s.clone(), x.clone())).unwrap();
    let warm = serve.execute(Request::spmm(s.clone(), x)).unwrap();
    assert_eq!(warm.path, ServePath::CachedPlan);

    // ServeStats: typed accessors
    let stats = serve.stats();
    assert_eq!(stats.submitted(), 2);
    assert_eq!(stats.completed(), 2);
    assert_eq!(stats.rejected() + stats.failed() + stats.fallbacks(), 0);

    // HealthSnapshot: readiness is derived through the accessors
    let health = serve.health();
    assert!(health.ready() && health.accepting());
    assert!(health.workers_alive() <= health.workers_total());
    assert_eq!(health.cache().inserts(), 1);

    // CacheStats: one cold miss, one warm hit
    let cache = serve.cache_stats();
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 1);
    assert!(!cache.is_empty() && cache.len() <= cache.capacity());

    // the cached plan is keyed by the structural fingerprint
    let fp = MatrixFingerprint::of(&s);
    assert!(serve.update_values(&fp, s.values()).unwrap());
}
