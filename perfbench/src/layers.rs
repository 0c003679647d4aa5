//! The traced layer sweep: each crate's public entry points called one
//! at a time on one matrix per class of the workload, each call inside a
//! span of the benchmark's own.

use std::sync::Arc;

use spmm_aspt::AsptMatrix;
use spmm_gpu_sim::DeviceConfig;
use spmm_kernels::autotune::{choose_format, choose_micro_width};
use spmm_kernels::spmm::{spmm_aspt, spmm_rowwise_seq};
use spmm_kernels::{Engine, EngineConfig, FormatChoice};
use spmm_lsh::banding::{candidate_pairs, BandingConfig};
use spmm_lsh::{generate_candidates, MinHasher};
use spmm_reorder::{cluster_rows, plan_reordering_with};
use spmm_serve::{MatrixFingerprint, PlanCache, PlanCacheConfig};
use spmm_sparse::DenseMatrix;
use spmm_telemetry::TelemetryHandle;

use crate::inputs::{Case, K, V};
use crate::report::{Checks, Metrics, Samples};

/// Repeats of each kernel call per class.
const KERNEL_REPS: usize = 3;
/// Repeats of each preprocessing call on matrices up to this many
/// nonzeros; larger matrices run it once (their calls take seconds).
const SMALL_NNZ: usize = 200_000;
/// Lookups timed for `PlanCache::try_get`.
const CACHE_LOOKUPS: usize = 200;

fn same_rows_permuted(y_reord: &DenseMatrix<V>, reference: &DenseMatrix<V>, e: &Engine<V>) -> bool {
    let perm = &e.plan().row_perm;
    (0..y_reord.nrows()).all(|new| y_reord.row(new) == reference.row(perm.old_of(new) as usize))
}

/// Runs the sweep over `cases` (one per entry of
/// [`crate::inputs::LAYER_CLASSES`]) with the workload's engine
/// configuration and writes every per-layer metric except the serving
/// layer's and the host's. Where the timed phase itself made a call the
/// sweep makes, `phase` holds it under the same series name, and its
/// samples replace the sweep's few repeats before any metric, derived
/// ratios included, is computed.
pub fn sweep(
    cases: &[&Case],
    config: &EngineConfig,
    phase: &Samples,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut s = Samples::default();
    let noop = TelemetryHandle::noop();
    let device = DeviceConfig::p100();
    let lsh = config.reorder.lsh;
    let mut non_csr = 0u32;
    let mut candidates = 0usize;
    // (class label, computed bytes of one SpMM)
    let mut traffic = Vec::new();
    for case in cases {
        let a = &*case.m;
        let (x, y) = (&*case.ops.x, &*case.ops.y);
        let c = case.class.label();
        let prep_reps = if a.nnz() <= SMALL_NNZ { 3 } else { 1 };

        let mut engine = None;
        for _ in 0..prep_reps {
            let (e, wall) = s.time(&format!("prepare.{c}"), || Engine::prepare(a, config));
            let e = e.map_err(|e| format!("prepare failed: {e}"))?;
            // preprocessing_time() is the engine's own account of the
            // same prepare; the wall time above is the ground truth
            let reported = e.preprocessing_time().as_secs_f64();
            s.push(&format!("prepare_reported.{c}"), reported);
            s.push(&format!("unreported.{c}"), (wall - reported) / wall);
            let (first, _) = s.time(&format!("first_spmm.{c}"), || e.spmm(x));
            checks.record("layer.first_spmm", first.is_ok_and(|y| y == case.spmm_ref));
            engine = Some(e);
        }
        let e = engine.expect("at least one prepare ran");

        for _ in 0..KERNEL_REPS {
            let (r, _) = s.time(&format!("spmm.{c}"), || e.spmm(x));
            checks.record("layer.spmm", r.is_ok_and(|y| y == case.spmm_ref));
            let (r, _) = s.time(&format!("sddmm.{c}"), || e.sddmm(x, y));
            checks.record("layer.sddmm", r.is_ok_and(|v| v == case.sddmm_ref));
            // the plan's own kernel in reordered row space, dispatched
            // as Engine::spmm dispatches it
            let (r, _) = s.time(&format!("plan_spmm.{c}"), || match e.format_payload() {
                Some(f) => f.spmm(x),
                None => spmm_aspt(e.aspt(), x),
            });
            checks.record(
                "layer.plan_spmm",
                r.is_ok_and(|yr| same_rows_permuted(&yr, &case.spmm_ref, &e)),
            );
            let (r, _) = s.time(&format!("rowwise.{c}"), || spmm_rowwise_seq(a, x));
            checks.record("layer.rowwise", r.is_ok_and(|y| y == case.spmm_ref));
        }
        let (n, nnz) = (a.nrows() as f64, a.nnz() as f64);
        let elem = std::mem::size_of::<V>() as f64;
        // computed, not measured: CSR arrays, one X row per nonzero and
        // Y written once
        let bytes =
            (n + 1.0) * 8.0 + nnz * (4.0 + elem) + nnz * K as f64 * elem + n * K as f64 * elem;
        traffic.push((c, bytes));
        m.insert(format!("aspt.dense_ratio.{c}"), e.aspt().dense_ratio());

        s.time("micro_select", || choose_micro_width(&e, K, &device));
        let ((_, trial), _) = s.time("format_select", || choose_format(&e, K, &device));
        non_csr += u32::from(trial.chosen != FormatChoice::Csr);

        let mut class_candidates = 0;
        for _ in 0..prep_reps {
            let hasher = MinHasher::new(lsh.siglen, lsh.seed);
            let (sigs, _) = s.time("minhash", || hasher.signatures(a));
            let banding = BandingConfig {
                bsize: lsh.bsize,
                max_bucket: lsh.max_bucket,
                seed: lsh.seed,
            };
            let (pairs, _) = s.time("banding", || candidate_pairs(&sigs, &banding));
            class_candidates = pairs.len();
            let (plan, _) = s.time("plan", || plan_reordering_with(a, &config.reorder, &noop));
            let pairs = generate_candidates(a, &lsh);
            s.time("cluster", || {
                cluster_rows(a, &pairs, config.reorder.threshold_size)
            });
            let ((reordered, _), _) = s.time("permute", || a.permute_rows_with_map(&plan.row_perm));
            let (ok, _) = s.time("check", || a.check_invariants());
            checks.record("layer.check_invariants", ok.is_ok());
            s.time("tile", || {
                AsptMatrix::build_with(&reordered, &config.reorder.aspt, &noop)
            });
        }
        candidates += class_candidates;

        for _ in 0..KERNEL_REPS {
            s.time("fingerprint", || MatrixFingerprint::of(a));
        }
        let fp = MatrixFingerprint::of(a);
        let cache = PlanCache::new(PlanCacheConfig::default());
        cache.insert_ready(fp, Arc::new(e));
        for _ in 0..CACHE_LOOKUPS {
            let (hit, _) = s.time("try_get", || cache.try_get(&fp));
            checks.record("layer.cache_try_get", hit.is_some());
        }
    }

    s.adopt(phase);
    for (c, bytes) in traffic {
        let spmm = s.median(&format!("spmm.{c}"), 1.0)?;
        let rowwise = s.median(&format!("rowwise.{c}"), 1.0)?;
        m.insert(format!("kernels.spmm_ms.{c}"), spmm * 1e3);
        m.insert(format!("kernels.rowwise_ms.{c}"), rowwise * 1e3);
        m.insert(format!("kernels.vs_rowwise.{c}"), rowwise / spmm);
        m.insert(format!("kernels.computed_gb_s.{c}"), bytes / spmm / 1e9);
        for name in ["sddmm", "plan_spmm"] {
            let v = s.median(&format!("{name}.{c}"), 1e3)?;
            m.insert(format!("kernels.{name}_ms.{c}"), v);
        }
    }
    for (metric, series) in [
        ("kernels.prepare_ms", "prepare"),
        ("kernels.prepare_reported_ms", "prepare_reported"),
        ("kernels.first_spmm_ms", "first_spmm"),
        ("kernels.micro_select_ms", "micro_select"),
        ("kernels.format_select_ms", "format_select"),
        ("lsh.minhash_ms", "minhash"),
        ("lsh.banding_ms", "banding"),
        ("reorder.plan_ms", "plan"),
        ("reorder.cluster_ms", "cluster"),
        ("sparse.permute_ms", "permute"),
        ("sparse.check_ms", "check"),
        ("aspt.tile_ms", "tile"),
    ] {
        m.insert(metric.into(), s.median(series, 1e3)?);
    }
    m.insert(
        "kernels.prepare_unreported_ratio".into(),
        s.median("unreported", 1.0)?,
    );
    m.insert("kernels.non_csr_formats".into(), f64::from(non_csr));
    m.insert("lsh.candidates".into(), candidates as f64);
    m.insert("serve.fingerprint_us".into(), s.median("fingerprint", 1e6)?);
    m.insert("serve.cache_try_get_us".into(), s.median("try_get", 1e6)?);
    Ok(())
}
