//! The workloads. Each runs in its own process: set-up (repeated,
//! so `setup_s` is a median), then a timed phase for the end-to-end
//! metrics or, with `--trace 1`, a timed phase split into two halves
//! followed by the layer sweep.

use std::time::{Duration, Instant};

use spmm_kernels::{Engine, EngineConfig};
use spmm_serve::{ServeConfig, ServeEngine};

use crate::host::{self, CpuTimes};
use crate::inputs::{sub_seed, Case, Operands, Shape, K, LAYER_CLASSES};
use crate::layers;
use crate::report::{Checks, Metrics, Samples};
use crate::serve;
use crate::stats::{median, percentile, rate_at, rate_over_classes, FAST_PERCENTILE};

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 2] = ["train-loop", "cold-prepare"];

/// Set-up runs per process; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Shape of the `train-loop` matrices: X is 64 Ki × 32 × 4 B = 8 MiB,
/// four times one core's 2 MiB L2, so row order decides how often X is
/// reused.
pub const TRAIN_SHAPE: Shape = Shape {
    rows: 32 * 1024,
    cols: 64 * 1024,
    row_nnz: 12,
};

/// Shape of every `cold-prepare` matrix.
pub const COLD_SHAPE: Shape = Shape {
    rows: 8 * 1024,
    cols: 16 * 1024,
    row_nnz: 16,
};

/// Serving workers of the traced run's probe, and the closed-loop
/// clients that drive it (= the 2 vCPUs of the reference host).
pub const CLIENTS: usize = 2;
/// Requests of the traced run's serving probe: p99 needs ten samples
/// beyond it.
pub const PROBE_REQUESTS: usize = 1000;

/// One run's output: metric values and the check accounting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Every checked operation.
    pub checks: Checks,
}

/// Runs `workload` with `seed` for `seconds` of timed work.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut w: Box<dyn Workload> = match workload {
        "train-loop" => Box::new(TrainLoop::setup(seed, &mut out)?),
        "cold-prepare" => Box::new(ColdPrepare::setup(seed, seconds, &mut out)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    let cpu0 = CpuTimes::now();
    let samples = if trace {
        // a phase times every call it makes whether traced or not (its
        // end-to-end metrics are built from those times), so the two
        // halves differ only in when they run: the ratio is the run's own
        // noise. The second half's samples feed the per-layer metrics.
        let half = Duration::from_secs_f64(seconds / 2.0);
        let first = w.phase(half, &mut out.checks)?;
        let second = w.phase(half, &mut out.checks)?;
        let ratio = w.primary(&second)? / w.primary(&first)?;
        out.metrics.insert("trace.overhead_ratio".into(), ratio);
        second
    } else {
        w.phase(Duration::from_secs_f64(seconds), &mut out.checks)?
    };
    let steal = cpu0.steal_ratio(CpuTimes::now());
    if trace {
        w.layers(&samples, &mut out)?;
        out.metrics.insert("host.steal_ratio".into(), steal);
        out.metrics
            .insert("host.cpu_calib_ms".into(), host::cpu_calib_ms());
        out.metrics
            .insert("host.mem_calib_ms".into(), host::mem_calib_ms());
    } else {
        let rss = host::peak_rss_mb().ok_or("peak RSS unavailable")?;
        out.metrics.insert("peak_rss_mb".into(), rss);
        w.end_to_end(&samples, &mut out.metrics)?;
        eprintln!(
            "host: steal_ratio {steal} cpu_calib_ms {} mem_calib_ms {}",
            host::cpu_calib_ms(),
            host::mem_calib_ms()
        );
    }
    Ok(out)
}

trait Workload {
    /// Runs timed work for `budget`, timing every call it makes.
    fn phase(&mut self, budget: Duration, checks: &mut Checks) -> Result<Samples, String>;
    /// The metric `trace.overhead_ratio` compares between the two halves
    /// of a traced run.
    fn primary(&self, s: &Samples) -> Result<f64, String>;
    /// Every end-to-end metric except `peak_rss_mb`.
    fn end_to_end(&self, s: &Samples, m: &mut Metrics) -> Result<(), String>;
    /// Every per-layer metric except the host's and the trace overhead,
    /// given the samples of the traced run's second half.
    fn layers(&self, s: &Samples, out: &mut Outcome) -> Result<(), String>;
}

/// Runs `f` [`SETUP_REPEATS`] times, dropping each result before the
/// next run so memory does not pile up, and records the median wall time
/// as `setup_s`.
fn repeated_setup<W>(
    out: &mut Outcome,
    mut f: impl FnMut(&mut Checks) -> Result<W, String>,
) -> Result<W, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f(&mut out.checks)?);
        times.push(t.elapsed().as_secs_f64());
    }
    out.metrics
        .insert("setup_s".into(), median(&times).ok_or("no set-up ran")?);
    last.ok_or_else(|| "no set-up ran".to_string())
}

fn prepare_config() -> EngineConfig {
    EngineConfig::builder().k_hint(K).build()
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("no samples for {what}"))
}

/// The layer sweep on one case per layer class, then the serving layer
/// through a probe of [`PROBE_REQUESTS`] SpMV requests over those same
/// cases.
fn sweep_and_probe(
    cases: &[Case],
    config: &EngineConfig,
    phase: &Samples,
    out: &mut Outcome,
) -> Result<(), String> {
    let reps = representatives(cases)?;
    layers::sweep(&reps, config, phase, &mut out.checks, &mut out.metrics)?;
    let config = ServeConfig::builder()
        .workers(CLIENTS)
        .build()
        .map_err(|e| e.to_string())?;
    let engine = ServeEngine::start(config);
    let before = engine.cache_stats();
    let served = serve::drive(&engine, &reps, PROBE_REQUESTS, CLIENTS);
    serve::check(&served, &mut out.checks);
    serve::layer_metrics(&served, &before, &engine.cache_stats(), &mut out.metrics)
}

/// The first case of each layer class.
fn representatives(cases: &[Case]) -> Result<Vec<&Case>, String> {
    LAYER_CLASSES
        .iter()
        .map(|&class| {
            cases
                .iter()
                .find(|c| c.class == class)
                .ok_or(format!("workload has no {} matrix", class.label()))
        })
        .collect()
}

// ---------------------------------------------------------------------
// train-loop

/// Library use in a training loop: three large matrices prepared once,
/// then `Engine::spmm` + `Engine::sddmm` on each, over and over.
struct TrainLoop {
    cases: Vec<Case>,
    engines: Vec<Engine<crate::inputs::V>>,
}

impl TrainLoop {
    fn setup(seed: u64, out: &mut Outcome) -> Result<Self, String> {
        let config = prepare_config();
        let (cases, engines) = repeated_setup(out, |checks| {
            let mut cases = Vec::new();
            let mut engines = Vec::new();
            for (i, class) in LAYER_CLASSES.into_iter().enumerate() {
                let case = Case::generate(class, TRAIN_SHAPE, sub_seed(seed, 1, i as u64))
                    .map_err(|e| e.to_string())?;
                let engine = Engine::prepare(&case.m, &config).map_err(|e| e.to_string())?;
                let y = engine.spmm(&case.ops.x);
                checks.record("setup.spmm", y.is_ok_and(|y| y == case.spmm_ref));
                cases.push(case);
                engines.push(engine);
            }
            Ok((cases, engines))
        })?;
        Ok(TrainLoop { cases, engines })
    }
}

impl Workload for TrainLoop {
    fn phase(&mut self, budget: Duration, checks: &mut Checks) -> Result<Samples, String> {
        let mut s = Samples::default();
        let until = Instant::now() + budget;
        while Instant::now() < until {
            for (case, e) in self.cases.iter().zip(&self.engines) {
                let c = case.class.label();
                let (y, t_spmm) = s.time(&format!("spmm.{c}"), || e.spmm(&case.ops.x));
                checks.record("spmm", y.is_ok_and(|y| y == case.spmm_ref));
                let (v, t_sddmm) =
                    s.time(&format!("sddmm.{c}"), || e.sddmm(&case.ops.x, &case.ops.y));
                checks.record("sddmm", v.is_ok_and(|v| v == case.sddmm_ref));
                s.push(&format!("step.{c}"), t_spmm + t_sddmm);
            }
        }
        Ok(s)
    }

    fn primary(&self, s: &Samples) -> Result<f64, String> {
        self.per_second(s, "spmm", Case::flops, 1e9)
    }

    fn end_to_end(&self, s: &Samples, m: &mut Metrics) -> Result<(), String> {
        m.insert("spmm_gflops".into(), self.primary(s)?);
        m.insert(
            "sddmm_gflops".into(),
            self.per_second(s, "sddmm", Case::flops, 1e9)?,
        );
        // a request is one training step on one matrix: SpMM then SDDMM
        m.insert(
            "serve_rps".into(),
            self.per_second(s, "step", |_| 1.0, 1.0)?,
        );
        let steps = s.pooled("step");
        m.insert(
            "p10_ms".into(),
            need(percentile(&steps, FAST_PERCENTILE), "step")? * 1e3,
        );
        Ok(())
    }

    fn layers(&self, s: &Samples, out: &mut Outcome) -> Result<(), String> {
        sweep_and_probe(&self.cases, &prepare_config(), s, out)
    }
}

impl TrainLoop {
    /// `Σ work / Σ` [`FAST_PERCENTILE`] time of the `series.<class>`
    /// samples over the three matrices, divided by `unit`.
    fn per_second(
        &self,
        s: &Samples,
        series: &str,
        work: impl Fn(&Case) -> f64,
        unit: f64,
    ) -> Result<f64, String> {
        let names: Vec<String> = self
            .cases
            .iter()
            .map(|c| format!("{series}.{}", c.class.label()))
            .collect();
        let items: Vec<(f64, &[f64])> = self
            .cases
            .iter()
            .zip(&names)
            .map(|(c, n)| (work(c), s.get(n)))
            .collect();
        Ok(need(rate_at(&items, FAST_PERCENTILE), series)? / unit)
    }
}

// ---------------------------------------------------------------------
// cold-prepare

/// Every structure is new: a stream of distinct matrices, each prepared
/// and then used once.
struct ColdPrepare {
    stream: Vec<Case>,
    next: usize,
}

/// Stream length per timed second: more than the host gets through, so
/// the deadline, not the stream, ends the phase.
const COLD_PER_SECOND: f64 = 4.5;

impl ColdPrepare {
    fn setup(seed: u64, seconds: f64, out: &mut Outcome) -> Result<Self, String> {
        let n = ((seconds * COLD_PER_SECOND).ceil() as usize).max(LAYER_CLASSES.len());
        let stream = repeated_setup(out, |_| {
            let ops = Operands::new(
                COLD_SHAPE.rows,
                COLD_SHAPE.cols,
                sub_seed(seed, 2, u64::MAX),
            );
            (0..n)
                .map(|i| {
                    let class = LAYER_CLASSES[i % LAYER_CLASSES.len()];
                    let m = crate::inputs::matrix(class, COLD_SHAPE, sub_seed(seed, 2, i as u64));
                    Case::new(class, m, ops.clone()).map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(ColdPrepare { stream, next: 0 })
    }
}

impl Workload for ColdPrepare {
    fn phase(&mut self, budget: Duration, checks: &mut Checks) -> Result<Samples, String> {
        let mut s = Samples::default();
        let config = prepare_config();
        let until = Instant::now() + budget;
        while Instant::now() < until && self.next < self.stream.len() {
            let case = &self.stream[self.next];
            self.next += 1;
            let c = case.class.label();
            let t = Instant::now();
            let e = Engine::prepare(&case.m, &config);
            let t_prep = t.elapsed().as_secs_f64();
            let Ok(e) = e else {
                checks.record("prepare", false);
                continue;
            };
            checks.record("prepare", true);
            s.push(&format!("prepare.{c}"), t_prep);
            let reported = e.preprocessing_time().as_secs_f64();
            s.push(&format!("prepare_reported.{c}"), reported);
            s.push(&format!("unreported.{c}"), (t_prep - reported) / t_prep);
            let (y, _) = s.time(&format!("first_spmm.{c}"), || e.spmm(&case.ops.x));
            checks.record("spmm", y.is_ok_and(|y| y == case.spmm_ref));
            let (v, _) = s.time(&format!("first_sddmm.{c}"), || {
                e.sddmm(&case.ops.x, &case.ops.y)
            });
            checks.record("sddmm", v.is_ok_and(|v| v == case.sddmm_ref));
            s.push(&format!("nnz.{c}"), case.m.nnz() as f64);
        }
        if s.pooled("prepare").is_empty() {
            return Err("the stream ran out before the phase did any work".into());
        }
        Ok(s)
    }

    fn primary(&self, s: &Samples) -> Result<f64, String> {
        need(rate_over_classes(&requests(s), FAST_PERCENTILE), "requests")
    }

    fn end_to_end(&self, s: &Samples, m: &mut Metrics) -> Result<(), String> {
        let flops = 2.0 * K as f64;
        m.insert(
            "spmm_gflops".into(),
            need(
                rate_over_classes(&per_class(s, "first_spmm", flops), FAST_PERCENTILE),
                "spmm",
            )? / 1e9,
        );
        m.insert(
            "sddmm_gflops".into(),
            need(
                rate_over_classes(&per_class(s, "first_sddmm", flops), FAST_PERCENTILE),
                "sddmm",
            )? / 1e9,
        );
        m.insert("serve_rps".into(), self.primary(s)?);
        let all: Vec<f64> = requests(s)
            .iter()
            .flatten()
            .map(|&(_, t)| t * 1e3)
            .collect();
        m.insert(
            "p10_ms".into(),
            need(percentile(&all, FAST_PERCENTILE), "requests")?,
        );
        Ok(())
    }

    fn layers(&self, s: &Samples, out: &mut Outcome) -> Result<(), String> {
        sweep_and_probe(&self.stream, &prepare_config(), s, out)
    }
}

/// Per layer class, `(1, secs)` of every request: a request is one new
/// structure, prepared, then used for one SpMM and one SDDMM.
fn requests(s: &Samples) -> Vec<Vec<(f64, f64)>> {
    LAYER_CLASSES
        .iter()
        .map(|class| {
            let c = class.label();
            let ops =
                ["prepare", "first_spmm", "first_sddmm"].map(|op| s.get(&format!("{op}.{c}")));
            (0..ops[0].len())
                .map(|i| (1.0, ops.iter().map(|v| v[i]).sum()))
                .collect()
        })
        .collect()
}

/// Per layer class, `(work, secs)` of every `series.<class>` sample, the
/// work being `per_nnz` times the matrix's nonzeros.
fn per_class(s: &Samples, series: &str, per_nnz: f64) -> Vec<Vec<(f64, f64)>> {
    LAYER_CLASSES
        .iter()
        .map(|class| {
            let c = class.label();
            let nnz = s.get(&format!("nnz.{c}"));
            let secs = s.get(&format!("{series}.{c}"));
            nnz.iter()
                .zip(secs)
                .map(|(n, t)| (n * per_nnz, *t))
                .collect()
        })
        .collect()
}
