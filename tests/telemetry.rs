//! Telemetry integration tests: recording must never change numerics,
//! counters must stay exact when threads add to them at once, and
//! manifests must round-trip through their JSON form.

use spmm_rr::prelude::*;
use std::sync::{Arc, Barrier};

fn test_config(telemetry: TelemetryHandle) -> EngineConfig {
    EngineConfig::builder()
        .reorder(
            ReorderConfig::builder()
                .aspt(spmm_rr::aspt::AsptConfig {
                    panel_height: 16,
                    min_col_nnz: 2,
                    tile_width: 32,
                })
                .build(),
        )
        .telemetry(telemetry)
        .build()
}

#[test]
fn telemetry_on_is_bit_identical_to_noop() {
    let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 21);
    let x = generators::random_dense::<f64>(m.ncols(), 16, 4);
    let y = generators::random_dense::<f64>(m.nrows(), 16, 6);

    let silent = Engine::prepare(&m, &test_config(TelemetryHandle::noop())).unwrap();
    let collector = Arc::new(Collector::new());
    let observed =
        Engine::prepare(&m, &test_config(TelemetryHandle::new(collector.clone()))).unwrap();

    // recording must be a pure observer: exactly the same plan and
    // bit-for-bit identical kernel outputs
    assert_eq!(
        silent.plan().row_perm.order(),
        observed.plan().row_perm.order()
    );
    let ys = silent.spmm(&x).unwrap();
    let yo = observed.spmm(&x).unwrap();
    assert_eq!(ys.data(), yo.data(), "SpMM must be bit-identical");
    let os = silent.sddmm(&x, &y).unwrap();
    let oo = observed.sddmm(&x, &y).unwrap();
    assert_eq!(os, oo, "SDDMM must be bit-identical");

    // and the user's collector actually saw the pipeline
    let manifest = collector.manifest();
    assert!(manifest.find("prepare/plan").is_some());
    assert!(manifest.find("exec.spmm").is_some());
    assert!(manifest.find("exec.sddmm").is_some());
    assert_eq!(manifest.counters["exec.nnz_processed"], 2 * m.nnz() as u64);
}

#[test]
fn counters_are_exact_under_concurrent_threads() {
    const THREADS: u64 = 4;
    let collector = Arc::new(Collector::new());
    let handle = TelemetryHandle::new(collector.clone());
    let span = handle.span("parallel_work");
    // every thread waits for the rest, so their increments overlap
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (handle, start) = (&handle, &start);
            s.spawn(move || {
                start.wait();
                for i in (t..1000).step_by(THREADS as usize) {
                    handle.counter("work.items", 1);
                    handle.counter("work.weight", i);
                }
            });
        }
    });
    span.end();
    let manifest = collector.manifest();
    assert_eq!(manifest.counters["work.items"], 1000);
    assert_eq!(manifest.counters["work.weight"], 999 * 1000 / 2);
    // worker increments land on the innermost open span too
    let stage = manifest.find("parallel_work").unwrap();
    assert_eq!(stage.counters["work.items"], 1000);
}

#[test]
fn engine_manifest_round_trips_through_json() {
    let m = generators::shuffled_block_diagonal::<f32>(32, 16, 96, 24, 3);
    let engine = Engine::prepare(&m, &test_config(TelemetryHandle::noop())).unwrap();
    engine.simulate_spmm(32, &DeviceConfig::p100());

    let manifest = engine.manifest();
    let parsed = RunManifest::from_json(&manifest.to_json(true)).unwrap();
    assert_eq!(parsed.schema, spmm_rr::telemetry::SCHEMA);
    assert_eq!(parsed.meta, manifest.meta);
    assert_eq!(parsed.counters, manifest.counters);
    let before = manifest.find("prepare").unwrap();
    let after = parsed.find("prepare").unwrap();
    assert_eq!(before.duration_ns, after.duration_ns);
    assert_eq!(before.children.len(), after.children.len());
    assert!(parsed.counters.contains_key("sim.spmm.dram_bytes"));
}
