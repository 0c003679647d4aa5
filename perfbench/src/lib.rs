//! Wall-clock benchmark of spmm-rr.
//!
//! One process runs one workload: `train-loop` (prepared engines reused
//! by a training loop) or `cold-prepare` (a stream of new structures).
//! See `NOTES.md` beside this package for why each exists and what each
//! metric should respond to.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
pub mod workloads;
