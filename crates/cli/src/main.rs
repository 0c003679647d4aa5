//! `spmm-rr` — command-line front end for the ASpT-RR pipeline.
//!
//! ```text
//! spmm-rr help | --help | -h
//! spmm-rr analyze  <matrix.mtx> [--k N] [--device p100|v100]
//! spmm-rr profile  <matrix.mtx> [--k N] [--device p100|v100] [--json]
//! spmm-rr reorder  <in.mtx> --out <out.mtx> [--order <order.txt>]
//! spmm-rr bench    <matrix.mtx> [--k N] [--device p100|v100]
//! spmm-rr generate <class> --out <out.mtx> [--seed N] [--scale N]
//! spmm-rr plan     <save|load|verify> <matrix.mtx> --store <dir>
//! spmm-rr plan     gc --store <dir> [--keep N]
//! spmm-rr serve-bench [--requests N] [--concurrency N] [--workers N]
//!                     [--cache N] [--zipf S] [--seed N] [--k N]
//!                     [--plan-store DIR] [--shards N] [--deltas]
//!                     [--json]
//! spmm-rr chaos-bench [--requests N] [--concurrency N] [--workers N]
//!                     [--faults "point:action@hits,..."] [--shards N]
//!                     [--deltas] [--json]
//! ```
//!
//! `analyze` prints structure statistics, the Fig 5 pipeline decisions
//! and the simulated variant comparison; `profile` runs the pipeline
//! with telemetry enabled and prints the per-stage run manifest (the
//! stage tree, or the raw manifest JSON with `--json`); `reorder`
//! writes the reordered matrix (and optionally the row order) for use
//! in other tools; `bench` runs the §4 trial and recommends a variant;
//! `generate` writes one of the synthetic corpus classes as Matrix
//! Market; `plan` snapshots (`save`), restores (`load`) or checks
//! (`verify`) a prepared engine in a fingerprint-keyed on-disk plan
//! store, so a later process warm-starts without re-running the Fig 5
//! preprocessing, and garbage-collects old epochs (`gc`, keeping the
//! `--keep` newest plan files); `serve-bench` drives the plan-cached
//! serving layer with a Zipf-popular workload and prints throughput,
//! latency percentiles, the plan-cache hit rate and the hit/cold probe
//! outcomes (the run manifest JSON with `--json`); with `--plan-store`
//! it also runs the warm-start probe (stored plans must be bit-exact
//! and >= 10x faster to load than to prepare); with `--shards N` it
//! drives a rendezvous-routed fleet of N engines over a shared store
//! tier and runs the kill-failover probe (bit-exact answers, zero
//! duplicate prepares); with `--deltas` it runs the structural-delta
//! probe (incremental `apply_delta` must answer bit-identically to a
//! from-scratch prepare of the patched matrix, at least 3x faster on
//! a <= 1%-nnz delta); `chaos-bench` replays seeded fault schedules
//! against the serving layer (sharded with `--shards N`) and verifies
//! every success bit-for-bit against the sequential reference; with
//! `--deltas` a mutator thread chains live structural deltas through
//! the epoch-swapped plan cache while the stream runs — the schedule
//! can kill a delta mid-flight at `kernel.delta`, `serve.cache.delta`
//! or `serve.store.delta`, and a failed delta must leave the old
//! epoch fully serveable.

use spmm_cli::{run, Invocation};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Invocation::parse(&args) {
        Ok(inv) => match run(&inv) {
            Ok(report) => {
                println!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{}", spmm_cli::USAGE);
            ExitCode::from(2)
        }
    }
}
