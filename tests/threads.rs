//! The worker pool changes who computes, never what.
//!
//! Every prepared plan and every kernel output is the same bits with
//! the helpers forced off and with the pool, below and above the work
//! from which kernel calls spread their panels; eight callers at once all
//! get exact answers; the process holds at most
//! `available_parallelism() − 1` helpers; and a panicking task reaches
//! its caller without breaking the pool. CI also runs this file pinned
//! to one core, where the pool has no helpers at all.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use spmm_rr::kernels::PARALLEL_MIN_WORK;
use spmm_rr::prelude::*;
use spmm_rr::sparse::par;

fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits64()).collect()
}

/// A plan and everything computed with it, as bits.
#[derive(Debug, PartialEq)]
struct Outputs {
    order: Vec<u32>,
    aspt: AsptMatrix<f64>,
    per_k: Vec<[Vec<u64>; 3]>,
    spmv: Vec<u64>,
    spgemm: Vec<u64>,
}

/// Prepares `m` and runs every engine op plus `spmm_rowwise_par` on
/// unquantized operands, so any change in summation order shows.
fn outputs(m: &CsrMatrix<f64>) -> Outputs {
    let engine = Engine::prepare(m, &EngineConfig::default()).expect("corpus matrix is valid");
    let per_k = [1usize, 8, 32, 33]
        .into_iter()
        .map(|k| {
            let x = generators::random_dense::<f64>(m.ncols(), k, 3 + k as u64);
            let y = generators::random_dense::<f64>(m.nrows(), k, 5 + k as u64);
            [
                bits(engine.spmm(&x).expect("spmm").data()),
                bits(&engine.sddmm(&x, &y).expect("sddmm")),
                bits(spmm_rowwise_par(m, &x).expect("rowwise spmm").data()),
            ]
        })
        .collect();
    let v = generators::random_dense::<f64>(m.ncols(), 1, 7);
    let b = generators::uniform_random::<f64>(m.ncols(), 40, 4, 9);
    let c = engine.spgemm(&b).expect("spgemm");
    let mut spgemm: Vec<u64> = c.rowptr().iter().map(|&p| p as u64).collect();
    spgemm.extend(c.colidx().iter().map(|&j| u64::from(j)));
    spgemm.extend(bits(c.values()));
    Outputs {
        order: engine.plan().row_perm.order().to_vec(),
        aspt: engine.aspt().clone(),
        per_k,
        spmv: bits(&engine.spmv(v.data()).expect("spmv")),
        spgemm,
    }
}

#[test]
fn every_output_is_the_same_bits_with_and_without_helpers() {
    let corpus = Corpus::<f64>::generate(CorpusProfile::Quick, 7);
    for cm in corpus.iter() {
        let pooled = outputs(&cm.matrix);
        let alone = par::with_helpers_off(|| outputs(&cm.matrix));
        assert!(pooled == alone, "{}: outputs differ with the pool", cm.name);
    }
}

/// A matrix and a width whose SpMM and SDDMM calls spread their panels
/// over the pool; the corpus calls above all run on the calling thread.
fn past_the_work_threshold() -> (CsrMatrix<f64>, usize) {
    let m = generators::shuffled_block_diagonal::<f64>(1024, 16, 64, 12, 17);
    let k = 64;
    assert!(m.nnz() * k >= PARALLEL_MIN_WORK);
    (m, k)
}

#[test]
fn kernel_calls_past_the_work_threshold_are_the_same_bits() {
    let (m, k) = past_the_work_threshold();
    let engine = Engine::prepare(&m, &EngineConfig::default()).expect("valid CSR");
    let x = generators::random_dense::<f64>(m.ncols(), k, 19);
    let y = generators::random_dense::<f64>(m.nrows(), k, 23);
    let run = || {
        (
            bits(engine.spmm(&x).expect("spmm").data()),
            bits(&engine.sddmm(&x, &y).expect("sddmm")),
        )
    };
    assert!(run() == par::with_helpers_off(run));
}

#[test]
fn eight_callers_at_once_get_exact_answers() {
    // calls big enough to take the pool, so the callers contend for it
    let (m, k) = past_the_work_threshold();
    let engine = Engine::prepare(&m, &EngineConfig::default()).expect("valid CSR");
    let x = generators::random_dense::<f64>(m.ncols(), k, 13);
    let want = par::with_helpers_off(|| bits(engine.spmm(&x).expect("spmm").data()));
    let start = Barrier::new(8);
    thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                start.wait();
                for _ in 0..4 {
                    assert_eq!(bits(engine.spmm(&x).expect("spmm").data()), want);
                }
            });
        }
    });
}

/// Spins for `d`: a task long enough for a parked helper to wake up
/// and take part.
fn busy(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

fn on_helper() -> bool {
    thread::current()
        .name()
        .is_some_and(|n| n.starts_with("spmm-par"))
}

/// Runs loops until a helper has taken part in one, and returns whether
/// one did (other tests may hold the helpers for a while).
fn helper_joins() -> bool {
    (0..500).any(|_| {
        par::map(64, |_| {
            busy(Duration::from_micros(50));
            on_helper()
        })
        .contains(&true)
    })
}

#[test]
fn helpers_never_outnumber_the_cores() {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(par::max_helpers(), cores - 1);
    assert_eq!(helper_joins(), cores > 1);
    // the helpers are named, so the OS's thread list shows them all
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    let helpers = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("spmm-par"))
        .count();
    assert_eq!(helpers, cores - 1);
}

fn message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn a_panicking_task_reaches_the_caller_and_the_pool_serves_on() {
    let caught = panic::catch_unwind(|| par::for_each(64, |i| assert!(i != 40, "task 40 failed")));
    assert_eq!(message(&*caught.unwrap_err()), "task 40 failed");
    assert_eq!(
        par::map(1000, |i| i * i),
        (0..1000).map(|i| i * i).collect::<Vec<_>>()
    );

    if par::max_helpers() > 0 {
        // a panic on a helper thread is carried back to the caller too
        let reached = (0..500).any(|_| {
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                par::for_each(64, |_| {
                    busy(Duration::from_micros(50));
                    assert!(!on_helper(), "a helper's task failed");
                })
            }));
            r.map_err(|p| assert_eq!(message(&*p), "a helper's task failed"))
                .is_err()
        });
        assert!(reached, "no task ever ran on a helper");
        assert!(helper_joins(), "helpers stopped serving after a panic");
    }
}
