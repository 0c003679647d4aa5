//! Library half of the `spmm-rr` CLI: argument parsing and command
//! execution, kept out of `main.rs` so every path is unit-testable.

#![warn(missing_docs)]

use spmm_core::prelude::*;
use spmm_core::sparse::mm_io;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Usage text shared by `main` and error paths.
pub const USAGE: &str = "\
usage:
  spmm-rr help | --help | -h
  spmm-rr analyze  <matrix.mtx> [--k N] [--device p100|v100]
  spmm-rr profile  <matrix.mtx> [--k N] [--device p100|v100] [--json]
  spmm-rr reorder  <in.mtx> --out <out.mtx> [--order <order.txt>]
  spmm-rr bench    <matrix.mtx> [--k N] [--device p100|v100]
  spmm-rr generate <class> --out <out.mtx> [--seed N] [--scale N]
      classes: scattered powerlaw rmat banded stencil clustered
               shuffled noisy diagonal cf
  spmm-rr plan     <save|load|verify> <matrix.mtx> --store <dir>
  spmm-rr plan     gc --store <dir> [--keep N]
  spmm-rr microbench [--k N] [--reps N] [--seed N] [--json]
  spmm-rr formatbench [--k N] [--reps N] [--seed N] [--json]
  spmm-rr serve-bench [--requests N] [--concurrency N] [--workers N]
                      [--cache N] [--zipf S] [--seed N] [--k N] [--json]
                      [--op spmm|spmv|spgemm] [--batch]
                      [--max-batch-k N] [--plan-store DIR] [--deltas]
  spmm-rr chaos-bench [--requests N] [--concurrency N] [--workers N]
                      [--cache N] [--zipf S] [--seed N] [--k N] [--json]
                      [--faults \"point:action@hits,...\"] [--batch]
                      [--plan-store DIR] [--deltas]
      actions: error panic delay:<ms>ms    hits: N every:N N..M *
      points:  kernel.prepare kernel.execute kernel.delta
               reorder.round1 reorder.round2 serve.cache.prepare
               serve.cache.delta serve.worker serve.store.load
               serve.store.save serve.store.delta";

/// One allowed flag of a subcommand: name (without `--`) and whether it
/// consumes a value.
type FlagSpec = (&'static str, bool);

/// The flags each subcommand accepts; anything else is rejected with a
/// targeted error instead of being silently ignored.
fn flag_spec(cmd: &str) -> Option<&'static [FlagSpec]> {
    match cmd {
        "analyze" | "bench" => Some(&[("k", true), ("device", true)]),
        "profile" => Some(&[("k", true), ("device", true), ("json", false)]),
        "reorder" => Some(&[("out", true), ("order", true)]),
        "generate" => Some(&[("out", true), ("seed", true), ("scale", true)]),
        "plan" => Some(&[("store", true), ("keep", true)]),
        "microbench" | "formatbench" => {
            Some(&[("k", true), ("reps", true), ("seed", true), ("json", false)])
        }
        "serve-bench" => Some(&[
            ("requests", true),
            ("concurrency", true),
            ("workers", true),
            ("cache", true),
            ("zipf", true),
            ("seed", true),
            ("k", true),
            ("op", true),
            ("json", false),
            ("batch", false),
            ("max-batch-k", true),
            ("plan-store", true),
            ("deltas", false),
        ]),
        "chaos-bench" => Some(&[
            ("requests", true),
            ("concurrency", true),
            ("workers", true),
            ("cache", true),
            ("zipf", true),
            ("seed", true),
            ("k", true),
            ("faults", true),
            ("json", false),
            ("batch", false),
            ("plan-store", true),
            ("deltas", false),
        ]),
        _ => None,
    }
}

/// A parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Invocation {
    /// `help`, `--help` or `-h`: print [`USAGE`].
    Help,
    /// `analyze <path> [--k N] [--device D]`
    Analyze {
        /// Matrix Market input path.
        path: PathBuf,
        /// Dense-operand width.
        k: usize,
        /// Simulated device name (`p100` / `v100`).
        device: String,
    },
    /// `profile <path> [--k N] [--device D] [--json]`
    Profile {
        /// Matrix Market input path.
        path: PathBuf,
        /// Dense-operand width.
        k: usize,
        /// Simulated device name (`p100` / `v100`).
        device: String,
        /// Emit the raw run-manifest JSON instead of the stage tree.
        json: bool,
    },
    /// `reorder <in> --out <out> [--order <path>]`
    Reorder {
        /// Input path.
        input: PathBuf,
        /// Output matrix path.
        out: PathBuf,
        /// Optional path to write the row order (one original index per
        /// line, in new order).
        order: Option<PathBuf>,
    },
    /// `bench <path> [--k N] [--device D]`
    Bench {
        /// Matrix Market input path.
        path: PathBuf,
        /// Dense-operand width.
        k: usize,
        /// Simulated device name.
        device: String,
    },
    /// `generate <class> --out <out> [--seed N] [--scale N]`
    Generate {
        /// Corpus class label.
        class: String,
        /// Output path.
        out: PathBuf,
        /// Generator seed.
        seed: u64,
        /// Size scale multiplier.
        scale: usize,
    },
    /// `plan <save|load|verify> <matrix.mtx> --store <dir>` —
    /// persist, re-materialise or validate a preprocessing plan in a
    /// fingerprint-keyed [`PlanStore`].
    Plan {
        /// One of `save`, `load` or `verify` (validated at parse time).
        action: String,
        /// Matrix Market input path (fingerprinted to key the store).
        path: PathBuf,
        /// Plan-store directory.
        store: PathBuf,
    },
    /// `plan gc --store <dir> [--keep N]` — delete all but the
    /// `keep` most recently written plan files from the store, so a
    /// long-lived store (epoch-versioned delta files included) does
    /// not grow without bound.
    PlanGc {
        /// Plan-store directory.
        store: PathBuf,
        /// How many of the newest plan files survive.
        keep: usize,
    },
    /// `microbench [--k N] [--reps N] [--seed N] [--json]` — time the
    /// generic k-blocked ASpT SpMM kernel against the monomorphized
    /// microkernels on the Quick corpus, one row per specialized width.
    Microbench {
        /// Total dense-operand width swept by the blocked passes.
        k: usize,
        /// Timing repetitions per kernel (the best rep is kept).
        reps: usize,
        /// Corpus and operand seed.
        seed: u64,
        /// Emit the run-manifest JSON instead of the table.
        json: bool,
    },
    /// `formatbench [--k N] [--reps N] [--seed N] [--json]` — run the
    /// simulated format trial over every Quick-corpus class and report,
    /// per class, the gpu-sim model's speedup of the chosen format over
    /// the incumbent CSR/ASpT configuration (≥ 1 by construction: the
    /// trial never adopts a regressing format).
    Formatbench {
        /// Dense-operand width the trial is ranked at.
        k: usize,
        /// Timing repetitions per kernel for the wall-clock columns.
        reps: usize,
        /// Corpus and operand seed.
        seed: u64,
        /// Emit the run-manifest JSON instead of the table.
        json: bool,
    },
    /// `serve-bench [--requests N] [--concurrency N] [--workers N]
    /// [--cache N] [--zipf S] [--seed N] [--k N] [--json]
    /// [--plan-store DIR]`
    ServeBench {
        /// The benchmark workload configuration.
        config: ServeBenchConfig,
        /// Emit the run-manifest JSON instead of the summary.
        json: bool,
    },
    /// `chaos-bench [--requests N] [--concurrency N] [--workers N]
    /// [--cache N] [--zipf S] [--seed N] [--k N] [--faults SPEC]
    /// [--json]`
    ChaosBench {
        /// The chaos workload configuration (including the optional
        /// fault schedule).
        config: ChaosBenchConfig,
        /// Emit the run-manifest JSON instead of the summary.
        json: bool,
    },
}

impl Invocation {
    /// Parses an argument vector (without the program name).
    ///
    /// Flags are checked against the subcommand's allowlist: an
    /// unknown `--flag` is a targeted error naming the command and its
    /// valid flags, not a silent no-op.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut it = args.iter();
        let cmd = it.next().ok_or("missing command")?;
        if matches!(cmd.as_str(), "help" | "--help" | "-h") {
            return Ok(Invocation::Help);
        }
        let spec = flag_spec(cmd).ok_or_else(|| format!("unknown command '{cmd}'"))?;
        let mut positional: Vec<String> = Vec::new();
        let mut flags: std::collections::HashMap<String, String> = std::collections::HashMap::new();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let (_, takes_value) = spec.iter().find(|(n, _)| *n == name).ok_or_else(|| {
                    let valid: Vec<String> = spec.iter().map(|(n, _)| format!("--{n}")).collect();
                    format!(
                        "unknown flag --{name} for '{cmd}' (valid flags: {})",
                        valid.join(", ")
                    )
                })?;
                if *takes_value {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    flags.insert(name.to_string(), v.clone());
                } else {
                    flags.insert(name.to_string(), "true".to_string());
                }
            } else {
                positional.push(a.clone());
            }
        }
        let get_k = |flags: &std::collections::HashMap<String, String>| -> Result<usize, String> {
            match flags.get("k") {
                Some(v) => v.parse().map_err(|_| format!("bad --k value '{v}'")),
                None => Ok(256),
            }
        };
        let get_device =
            |flags: &std::collections::HashMap<String, String>| -> Result<String, String> {
                let d = flags
                    .get("device")
                    .cloned()
                    .unwrap_or_else(|| "p100".into());
                if d != "p100" && d != "v100" {
                    return Err(format!("unknown device '{d}' (p100 or v100)"));
                }
                Ok(d)
            };
        match cmd.as_str() {
            "analyze" | "bench" => {
                let path = positional.first().ok_or("missing matrix path")?.into();
                let inv = if cmd == "analyze" {
                    Invocation::Analyze {
                        path,
                        k: get_k(&flags)?,
                        device: get_device(&flags)?,
                    }
                } else {
                    Invocation::Bench {
                        path,
                        k: get_k(&flags)?,
                        device: get_device(&flags)?,
                    }
                };
                Ok(inv)
            }
            "profile" => Ok(Invocation::Profile {
                path: positional.first().ok_or("missing matrix path")?.into(),
                k: get_k(&flags)?,
                device: get_device(&flags)?,
                json: flags.contains_key("json"),
            }),
            "reorder" => Ok(Invocation::Reorder {
                input: positional.first().ok_or("missing input path")?.into(),
                out: flags.get("out").ok_or("reorder requires --out")?.into(),
                order: flags.get("order").map(PathBuf::from),
            }),
            "generate" => Ok(Invocation::Generate {
                class: positional.first().ok_or("missing class")?.clone(),
                out: flags.get("out").ok_or("generate requires --out")?.into(),
                seed: match flags.get("seed") {
                    Some(v) => v.parse().map_err(|_| format!("bad --seed '{v}'"))?,
                    None => 42,
                },
                scale: match flags.get("scale") {
                    Some(v) => v.parse().map_err(|_| format!("bad --scale '{v}'"))?,
                    None => 4,
                },
            }),
            "plan" => {
                let action = positional
                    .first()
                    .ok_or("missing plan action (save, load, verify or gc)")?
                    .clone();
                if action == "gc" {
                    return Ok(Invocation::PlanGc {
                        store: flags.get("store").ok_or("plan requires --store")?.into(),
                        keep: match flags.get("keep") {
                            Some(v) => v.parse().map_err(|_| format!("bad --keep value '{v}'"))?,
                            None => 8,
                        },
                    });
                }
                if !matches!(action.as_str(), "save" | "load" | "verify") {
                    return Err(format!(
                        "unknown plan action '{action}' (save, load, verify or gc)"
                    ));
                }
                if flags.contains_key("keep") {
                    return Err("--keep is only valid for 'plan gc'".into());
                }
                Ok(Invocation::Plan {
                    action,
                    path: positional.get(1).ok_or("missing matrix path")?.into(),
                    store: flags.get("store").ok_or("plan requires --store")?.into(),
                })
            }
            "microbench" | "formatbench" => {
                let parse = |name: &str, default: usize| -> Result<usize, String> {
                    match flags.get(name) {
                        Some(v) => v.parse().map_err(|_| format!("bad --{name} value '{v}'")),
                        None => Ok(default),
                    }
                };
                let k = parse("k", 96)?;
                if k == 0 {
                    return Err("bad --k value '0' (need at least one column)".into());
                }
                let reps = parse("reps", 5)?.max(1);
                let seed = match flags.get("seed") {
                    Some(v) => v.parse().map_err(|_| format!("bad --seed value '{v}'"))?,
                    None => 42,
                };
                let json = flags.contains_key("json");
                Ok(if cmd == "microbench" {
                    Invocation::Microbench {
                        k,
                        reps,
                        seed,
                        json,
                    }
                } else {
                    Invocation::Formatbench {
                        k,
                        reps,
                        seed,
                        json,
                    }
                })
            }
            "serve-bench" => {
                let mut config = ServeBenchConfig::default();
                let parse_usize = |flags: &std::collections::HashMap<String, String>,
                                   name: &str,
                                   default: usize|
                 -> Result<usize, String> {
                    match flags.get(name) {
                        Some(v) => v.parse().map_err(|_| format!("bad --{name} value '{v}'")),
                        None => Ok(default),
                    }
                };
                config.requests = parse_usize(&flags, "requests", config.requests)?;
                config.concurrency = parse_usize(&flags, "concurrency", config.concurrency)?;
                config.workers = parse_usize(&flags, "workers", config.workers)?;
                config.cache_capacity = parse_usize(&flags, "cache", config.cache_capacity)?;
                config.k = parse_usize(&flags, "k", config.k)?;
                if let Some(v) = flags.get("zipf") {
                    config.zipf_s = v.parse().map_err(|_| format!("bad --zipf value '{v}'"))?;
                }
                if let Some(v) = flags.get("seed") {
                    config.seed = v.parse().map_err(|_| format!("bad --seed value '{v}'"))?;
                }
                if let Some(v) = flags.get("op") {
                    config.op = v.parse().map_err(|e| format!("bad --op value: {e}"))?;
                }
                if flags.contains_key("batch") || flags.contains_key("max-batch-k") {
                    let mut batch = BatchConfig::default();
                    if let Some(v) = flags.get("max-batch-k") {
                        batch = batch.max_batch_k(
                            v.parse()
                                .map_err(|_| format!("bad --max-batch-k value '{v}'"))?,
                        );
                    }
                    config.batch = Some(batch);
                }
                if let Some(v) = flags.get("plan-store") {
                    config.plan_store = Some(PathBuf::from(v));
                }
                config.deltas = flags.contains_key("deltas");
                Ok(Invocation::ServeBench {
                    config,
                    json: flags.contains_key("json"),
                })
            }
            "chaos-bench" => {
                let mut config = ChaosBenchConfig::default();
                let parse_usize = |flags: &std::collections::HashMap<String, String>,
                                   name: &str,
                                   default: usize|
                 -> Result<usize, String> {
                    match flags.get(name) {
                        Some(v) => v.parse().map_err(|_| format!("bad --{name} value '{v}'")),
                        None => Ok(default),
                    }
                };
                config.requests = parse_usize(&flags, "requests", config.requests)?;
                config.concurrency = parse_usize(&flags, "concurrency", config.concurrency)?;
                config.workers = parse_usize(&flags, "workers", config.workers)?;
                config.cache_capacity = parse_usize(&flags, "cache", config.cache_capacity)?;
                config.k = parse_usize(&flags, "k", config.k)?;
                if let Some(v) = flags.get("zipf") {
                    config.zipf_s = v.parse().map_err(|_| format!("bad --zipf value '{v}'"))?;
                }
                if let Some(v) = flags.get("seed") {
                    config.seed = v.parse().map_err(|_| format!("bad --seed value '{v}'"))?;
                }
                config.faults = flags.get("faults").cloned();
                if flags.contains_key("batch") {
                    config.batch = Some(BatchConfig::default());
                }
                if let Some(v) = flags.get("plan-store") {
                    config.plan_store = Some(PathBuf::from(v));
                }
                config.deltas = flags.contains_key("deltas");
                Ok(Invocation::ChaosBench {
                    config,
                    json: flags.contains_key("json"),
                })
            }
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

fn device_by_name(name: &str) -> DeviceConfig {
    if name == "v100" {
        DeviceConfig::v100()
    } else {
        DeviceConfig::p100()
    }
}

/// Builds a synthetic matrix by class label (scaled from the corpus
/// base dimensions).
pub fn generate_matrix(class: &str, scale: usize, seed: u64) -> Result<CsrMatrix<f32>, String> {
    let s = scale.max(1);
    Ok(match class {
        "scattered" => generators::uniform_random(1024 * s, 1024 * s, 12, seed),
        "powerlaw" => generators::power_law(1024 * s, 1024 * s, 16 * 1024 * s, 0.75, seed),
        "rmat" => generators::rmat(10 + s.ilog2(), 12, (0.57, 0.19, 0.19, 0.05), seed),
        "banded" => generators::banded(1024 * s, 24, 10, seed),
        "stencil" => generators::laplacian_2d(32 * s, 32 * s),
        "clustered" => generators::block_diagonal(16 * s, 64, 96, 24, seed),
        "shuffled" => generators::shuffled_block_diagonal(64 * s, 16, 48, 16, seed),
        "noisy" => generators::noisy_shuffled_clusters(16 * s, 64, 96, 20, 4, seed),
        "diagonal" => generators::diagonal(1024 * s, seed),
        "cf" => generators::bipartite_cf(1024 * s, 512 * s, 12, 0.8, seed),
        other => return Err(format!("unknown class '{other}'")),
    })
}

/// Executes an invocation, returning the textual report.
pub fn run(inv: &Invocation) -> Result<String, String> {
    match inv {
        Invocation::Help => Ok(USAGE.to_string()),
        Invocation::Analyze { path, k, device } => {
            let m: CsrMatrix<f32> =
                mm_io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
            analyze(&m, *k, &device_by_name(device))
        }
        Invocation::Profile {
            path,
            k,
            device,
            json,
        } => {
            let m: CsrMatrix<f32> =
                mm_io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
            let mut p = profile(&m, *k, &device_by_name(device), *json)?;
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if !*json {
                    p = format!("# matrix file: {name}\n{p}");
                }
            }
            Ok(p)
        }
        Invocation::Bench { path, k, device } => {
            let m: CsrMatrix<f32> =
                mm_io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
            bench(&m, *k, &device_by_name(device))
        }
        Invocation::Reorder { input, out, order } => {
            let m: CsrMatrix<f32> =
                mm_io::read_matrix_market_file(input).map_err(|e| e.to_string())?;
            let plan = plan_reordering(&m, &ReorderConfig::default());
            let reordered = m.permute_rows(&plan.row_perm);
            mm_io::write_matrix_market_file(&reordered, out).map_err(|e| e.to_string())?;
            if let Some(order_path) = order {
                let mut txt = String::new();
                for &o in plan.row_perm.order() {
                    let _ = writeln!(txt, "{o}");
                }
                std::fs::write(order_path, txt).map_err(|e| e.to_string())?;
            }
            Ok(format!(
                "reordered {} rows (round1 {}, round2 {}); dense ratio {:.3} -> {:.3}; wrote {}",
                m.nrows(),
                plan.round1_applied,
                plan.round2_applied,
                plan.dense_ratio_before,
                plan.dense_ratio_after,
                out.display()
            ))
        }
        Invocation::Generate {
            class,
            out,
            seed,
            scale,
        } => {
            let m = generate_matrix(class, *scale, *seed)?;
            mm_io::write_matrix_market_file(&m, out).map_err(|e| e.to_string())?;
            Ok(format!(
                "wrote {class} matrix {} x {} with {} nonzeros to {}",
                m.nrows(),
                m.ncols(),
                m.nnz(),
                out.display()
            ))
        }
        Invocation::Plan {
            action,
            path,
            store,
        } => {
            let m: CsrMatrix<f32> =
                mm_io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
            let fp = MatrixFingerprint::of(&m);
            let store = PlanStore::open(store).map_err(|e| e.to_string())?;
            match action.as_str() {
                "save" => {
                    let start = std::time::Instant::now();
                    let engine =
                        Engine::prepare(&m, &EngineConfig::default()).map_err(|e| e.to_string())?;
                    let prepared = start.elapsed();
                    let file = store.save(&fp, &engine).map_err(|e| e.to_string())?;
                    Ok(format!(
                        "saved plan {fp} ({:.1} ms prepare) to {}",
                        prepared.as_secs_f64() * 1e3,
                        file.display()
                    ))
                }
                "load" => {
                    let start = std::time::Instant::now();
                    let engine = store
                        .load::<f32>(&fp, &TelemetryHandle::noop())
                        .map_err(|e| e.to_string())?
                        .ok_or_else(|| {
                            format!("no stored plan for {fp} in {}", store.root().display())
                        })?;
                    let loaded = start.elapsed();
                    Ok(format!(
                        "loaded plan {fp} in {:.1} ms ({} rows, {} nonzeros, reordering {}, {}, zero preprocessing)",
                        loaded.as_secs_f64() * 1e3,
                        m.nrows(),
                        m.nnz(),
                        if engine.plan().needs_reordering() {
                            "applied"
                        } else {
                            "skipped"
                        },
                        plan_choices(&engine),
                    ))
                }
                "verify" => match store.load::<f32>(&fp, &TelemetryHandle::noop()) {
                    Ok(Some(engine)) => Ok(format!(
                        "plan {fp} verifies: header, section checksums and fingerprint all match ({}) ({})",
                        plan_choices(&engine),
                        store.path_for::<f32>(&fp).display()
                    )),
                    Ok(None) => Err(format!(
                        "no stored plan for {fp} in {}",
                        store.root().display()
                    )),
                    Err(e) => Err(format!("stored plan for {fp} is invalid: {e}")),
                },
                other => Err(format!("unknown plan action '{other}'")),
            }
        }
        Invocation::PlanGc { store, keep } => {
            let store = PlanStore::open(store).map_err(|e| e.to_string())?;
            let deleted = store.gc(*keep).map_err(|e| e.to_string())?;
            let survivors = store.list().map_err(|e| e.to_string())?.len();
            let mut out = format!(
                "plan gc: deleted {} plan file(s), kept the {} newest ({} on disk)\n",
                deleted.len(),
                keep,
                survivors
            );
            for path in &deleted {
                let _ = writeln!(out, "  removed {}", path.display());
            }
            Ok(out)
        }
        Invocation::Microbench {
            k,
            reps,
            seed,
            json,
        } => microbench(*k, *reps, *seed, *json),
        Invocation::Formatbench {
            k,
            reps,
            seed,
            json,
        } => formatbench(*k, *reps, *seed, *json),
        Invocation::ServeBench { config, json } => {
            let report = run_serve_bench(config).map_err(|e| e.to_string())?;
            if !report.probes_passed() {
                return Err(format!("serve-bench probes failed:\n{}", report.render()));
            }
            if *json {
                Ok(report.manifest.to_json(true))
            } else {
                Ok(report.render())
            }
        }
        Invocation::ChaosBench { config, json } => {
            let report = run_chaos_bench(config).map_err(|e| e.to_string())?;
            if !report.all_successes_exact() {
                return Err(format!(
                    "chaos-bench exactness contract failed:\n{}",
                    report.render()
                ));
            }
            if *json {
                Ok(report.manifest.to_json(true))
            } else {
                Ok(report.render())
            }
        }
    }
}

/// The `analyze` report body.
///
/// # Errors
/// Fails when `m` violates the CSR invariants.
pub fn analyze(m: &CsrMatrix<f32>, k: usize, device: &DeviceConfig) -> Result<String, String> {
    use spmm_core::sparse::stats::MatrixStats;
    let stats = MatrixStats::compute(m);
    let engine = Engine::prepare(m, &EngineConfig::default()).map_err(|e| e.to_string())?;
    let plan = engine.plan();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "matrix: {} x {}, {} nonzeros (density {:.2e})",
        stats.nrows, stats.ncols, stats.nnz, stats.density
    );
    let _ = writeln!(
        out,
        "rows: avg {:.1} nnz, max {}, stddev {:.1}, {} empty",
        stats.avg_row_nnz, stats.max_row_nnz, stats.row_nnz_stddev, stats.empty_rows
    );
    let _ = writeln!(
        out,
        "locality: avg consecutive-row similarity {:.3}, avg bandwidth {:.0}",
        stats.avg_consecutive_similarity, stats.avg_bandwidth
    );
    let _ = writeln!(
        out,
        "pipeline: round1 {} (dense ratio {:.3} -> {:.3}), round2 {} (avg sim {:.3} -> {:.3})",
        if plan.round1_applied {
            "applied"
        } else {
            "skipped"
        },
        plan.dense_ratio_before,
        plan.dense_ratio_after,
        if plan.round2_applied {
            "applied"
        } else {
            "skipped"
        },
        plan.avgsim_before,
        plan.avgsim_after,
    );
    let _ = writeln!(
        out,
        "preprocessing: {:.1} ms",
        engine.preprocessing_time().as_secs_f64() * 1e3
    );
    out.push_str(&bench(m, k, device)?);
    Ok(out)
}

/// The `profile` report body: prepares an engine with full telemetry,
/// simulates one SpMM and one SDDMM, and renders the run manifest —
/// the stage tree by default, the raw manifest JSON with `--json`.
///
/// # Errors
/// Fails when `m` violates the CSR invariants.
pub fn profile(
    m: &CsrMatrix<f32>,
    k: usize,
    device: &DeviceConfig,
    json: bool,
) -> Result<String, String> {
    let config = EngineConfig::builder().k_hint(k).build();
    let engine = Engine::prepare(m, &config).map_err(|e| e.to_string())?;
    engine.simulate_spmm(k, device);
    engine.simulate_sddmm(k, device);
    let manifest = engine.manifest();
    if json {
        Ok(manifest.to_json(true))
    } else {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} x {}, {} nonzeros; K = {k}, device {}",
            m.nrows(),
            m.ncols(),
            m.nnz(),
            device.name
        );
        let _ = writeln!(
            out,
            "# preprocessing total: {:.3} ms",
            engine.preprocessing_time().as_secs_f64() * 1e3
        );
        out.push_str(&manifest.render_tree());
        Ok(out)
    }
}

/// The `bench` report body: the §4 trial.
///
/// # Errors
/// Fails when `m` violates the CSR invariants.
pub fn bench(m: &CsrMatrix<f32>, k: usize, device: &DeviceConfig) -> Result<String, String> {
    let trial = choose_variant(m, Kernel::Spmm, k, device, &ReorderConfig::default())
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "simulated {} SpMM, K = {k}:", device.name);
    if let Some(c) = &trial.cusparse_like {
        let _ = writeln!(out, "  cuSPARSE-like  {:>9.1} GFLOP/s", c.gflops);
    }
    let _ = writeln!(
        out,
        "  ASpT-NR        {:>9.1} GFLOP/s",
        trial.aspt_nr.gflops
    );
    let _ = writeln!(
        out,
        "  ASpT-RR        {:>9.1} GFLOP/s",
        trial.aspt_rr.gflops
    );
    let _ = writeln!(
        out,
        "recommendation: {:?} (RR vs best other: {:.2}x)",
        trial.chosen,
        trial.rr_speedup_vs_best_other()
    );
    Ok(out)
}

/// The `microbench` report body: the generic k-blocked ASpT SpMM
/// kernel head-to-head against the monomorphized microkernels
/// ([`spmm_aspt_kblocked_auto`]) on the Quick corpus, one row per
/// specialized width. Each matrix's ASpT decomposition and operand are
/// built once outside the timed region, every timed pair is first
/// cross-checked bit-for-bit, and the best of `reps` repetitions is
/// kept per kernel. With `json`, emits the run manifest whose
/// `micro.speedup*` gauges the CI perf-smoke gate reads.
///
/// # Errors
/// Fails when a kernel rejects its operands or a specialized width
/// diverges from the generic result (which would be a bug, not noise).
pub fn microbench(k: usize, reps: usize, seed: u64, json: bool) -> Result<String, String> {
    use std::sync::Arc;
    use std::time::Instant;
    let reps = reps.max(1);
    let corpus = Corpus::<f32>::generate(CorpusProfile::Quick, seed);
    let prepared: Vec<(String, AsptMatrix<f32>, DenseMatrix<f32>)> = corpus
        .iter()
        .enumerate()
        .map(|(i, cm)| {
            let aspt = AsptMatrix::build(&cm.matrix, &AsptConfig::default());
            let x = generators::random_dense::<f32>(cm.matrix.ncols(), k, seed ^ (i as u64 + 1));
            (cm.name.clone(), aspt, x)
        })
        .collect();

    let collector = Arc::new(Collector::new());
    let telemetry = TelemetryHandle::new(collector.clone());
    telemetry.meta("bench", "microbench");
    telemetry.meta("corpus", "quick");
    telemetry.meta("k", &k.to_string());
    telemetry.meta("reps", &reps.to_string());
    telemetry.meta("seed", &seed.to_string());

    let time_best =
        |f: &mut dyn FnMut() -> Result<DenseMatrix<f32>, String>| -> Result<f64, String> {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let y = f()?;
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(&y);
                best = best.min(dt);
            }
            Ok(best)
        };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "microkernel bench: Quick corpus ({} matrices), K = {k}, best of {reps}",
        prepared.len()
    );
    let _ = writeln!(
        out,
        "{:>8}  {:>12}  {:>12}  {:>8}",
        "k_block", "generic (ms)", "micro (ms)", "speedup"
    );
    let mut generic_sum = 0.0f64;
    let mut micro_sum = 0.0f64;
    for &w in MICRO_WIDTHS.iter().filter(|&&w| w <= k) {
        let mut generic_total = 0.0f64;
        let mut micro_total = 0.0f64;
        for (name, aspt, x) in &prepared {
            // the first (untimed) pair doubles as warm-up and as the
            // bit-exactness cross-check
            let yg = spmm_aspt_kblocked(aspt, x, w).map_err(|e| e.to_string())?;
            let ym = spmm_aspt_kblocked_auto(aspt, x, w).map_err(|e| e.to_string())?;
            if yg.data() != ym.data() {
                return Err(format!(
                    "microkernel k_block={w} diverged from the generic kernel on '{name}'"
                ));
            }
            generic_total +=
                time_best(&mut || spmm_aspt_kblocked(aspt, x, w).map_err(|e| e.to_string()))?;
            micro_total +=
                time_best(&mut || spmm_aspt_kblocked_auto(aspt, x, w).map_err(|e| e.to_string()))?;
        }
        let speedup = generic_total / micro_total;
        telemetry.gauge(&format!("micro.generic_s.k{w}"), generic_total);
        telemetry.gauge(&format!("micro.micro_s.k{w}"), micro_total);
        telemetry.gauge(&format!("micro.speedup.k{w}"), speedup);
        generic_sum += generic_total;
        micro_sum += micro_total;
        let _ = writeln!(
            out,
            "{:>8}  {:>12.3}  {:>12.3}  {:>7.2}x",
            w,
            generic_total * 1e3,
            micro_total * 1e3,
            speedup
        );
    }
    if micro_sum == 0.0 {
        return Err(format!(
            "no specialized width fits K = {k} (narrowest microkernel is {})",
            MICRO_WIDTHS[0]
        ));
    }
    let overall = generic_sum / micro_sum;
    telemetry.gauge("micro.speedup", overall);
    let _ = writeln!(out, "overall: {overall:.2}x");
    if json {
        Ok(collector.manifest().to_json(true))
    } else {
        Ok(out)
    }
}

/// What the stored plan executes with, for `plan load` / `plan verify`
/// output: the chosen variant and the microkernel width.
fn plan_choices<T: Scalar>(engine: &Engine<T>) -> String {
    let variant = if engine.plan().needs_reordering() {
        "aspt-rr"
    } else {
        "aspt-nr"
    };
    format!(
        "variant {variant}, micro width {}",
        engine
            .micro_width()
            .map_or_else(|| "generic".to_string(), |w| w.to_string()),
    )
}

/// The `formatbench` report body: run the simulated format trial
/// ([`choose_format`]) over every Quick-corpus class at width `k` and
/// report, per class, the chosen format and its gpu-sim model speedup over
/// the incumbent CSR/ASpT configuration — ≥ 1 by construction, because
/// the trial only adopts strictly faster challengers. Each chosen
/// format's kernel is also cross-checked bit-for-bit against the
/// sequential row-wise reference, and wall-clock columns (best of
/// `reps`) show the measured CPU cost of both paths for context (the
/// engine itself runs only the ASpT path). With `json`, emits the run
/// manifest whose `format.speedup.*` gauges — model output, labelled so
/// by the `output` meta — the CI perf-smoke gate reads.
///
/// # Errors
/// Fails when preparation rejects a corpus matrix or a chosen format's
/// kernel diverges from the row-wise reference (a bug, not noise).
pub fn formatbench(k: usize, reps: usize, seed: u64, json: bool) -> Result<String, String> {
    use std::sync::Arc;
    use std::time::Instant;
    let reps = reps.max(1);
    let corpus = Corpus::<f32>::generate(CorpusProfile::Quick, seed);
    let device = DeviceConfig::p100();

    let collector = Arc::new(Collector::new());
    let telemetry = TelemetryHandle::new(collector.clone());
    telemetry.meta("bench", "formatbench");
    telemetry.meta("output", "gpu-sim model");
    telemetry.meta("corpus", "quick");
    telemetry.meta("k", &k.to_string());
    telemetry.meta("reps", &reps.to_string());
    telemetry.meta("seed", &seed.to_string());

    let time_best =
        |f: &mut dyn FnMut() -> Result<DenseMatrix<f32>, String>| -> Result<f64, String> {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let y = f()?;
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(&y);
                best = best.min(dt);
            }
            Ok(best)
        };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "format zoo bench (gpu-sim model output): Quick corpus by class, K = {k}, trial on the simulated transaction model"
    );
    let _ = writeln!(
        out,
        "{:>10}  {:>14}  {:>11}  {:>8}  {:>12}  {:>12}",
        "class", "chosen", "sim speedup", "skipped", "aspt (ms)", "chosen (ms)"
    );
    let mut incumbent_sum = 0.0f64;
    let mut chosen_sum = 0.0f64;
    let mut skipped_total = 0u64;
    for class in MatrixClass::ALL {
        let mut class_incumbent = 0.0f64;
        let mut class_chosen = 0.0f64;
        let mut class_skipped = 0u32;
        let mut chosen_label = String::from("csr");
        let mut aspt_wall = 0.0f64;
        let mut chosen_wall = 0.0f64;
        for cm in corpus.of_class(class) {
            let engine =
                Engine::prepare(&cm.matrix, &EngineConfig::default()).map_err(|e| e.to_string())?;
            let (payload, trial) = choose_format(&engine, k, &device);
            class_incumbent += trial.incumbent.time_s;
            class_chosen += trial
                .candidates
                .iter()
                .map(|(_, r)| r.time_s)
                .fold(trial.incumbent.time_s, f64::min);
            class_skipped += trial.skipped;
            if trial.chosen != FormatChoice::Csr {
                chosen_label = trial.chosen.label();
            }
            let x = generators::random_dense::<f32>(cm.matrix.ncols(), k, seed ^ 0x5eed);
            if let Some(p) = &payload {
                // the winner must agree with the row-wise reference bit
                // for bit before any timing is trusted
                let reference = spmm_rowwise_seq(&cm.matrix, &x).map_err(|e| e.to_string())?;
                let y = p.spmm(&x).map_err(|e| e.to_string())?;
                if y.data() != reference.data() {
                    return Err(format!(
                        "format {} diverged from the row-wise reference on '{}'",
                        trial.chosen, cm.name
                    ));
                }
            }
            let aspt_t = time_best(&mut || engine.spmm(&x).map_err(|e| e.to_string()))?;
            aspt_wall += aspt_t;
            chosen_wall += match &payload {
                Some(p) => time_best(&mut || p.spmm(&x).map_err(|e| e.to_string()))?,
                None => aspt_t,
            };
        }
        let speedup = if class_chosen > 0.0 {
            class_incumbent / class_chosen
        } else {
            1.0
        };
        telemetry.gauge(&format!("format.speedup.{}", class.label()), speedup);
        telemetry.meta(&format!("format.chosen.{}", class.label()), &chosen_label);
        incumbent_sum += class_incumbent;
        chosen_sum += class_chosen;
        skipped_total += u64::from(class_skipped);
        let _ = writeln!(
            out,
            "{:>10}  {:>14}  {:>10.2}x  {:>8}  {:>12.3}  {:>12.3}",
            class.label(),
            chosen_label,
            speedup,
            class_skipped,
            aspt_wall * 1e3,
            chosen_wall * 1e3
        );
    }
    let overall = if chosen_sum > 0.0 {
        incumbent_sum / chosen_sum
    } else {
        1.0
    };
    telemetry.gauge("format.speedup", overall);
    telemetry.counter("tune.format.skipped", skipped_total);
    let _ = writeln!(
        out,
        "overall: {overall:.2}x (skipped candidates: {skipped_total})"
    );
    if json {
        Ok(collector.manifest().to_json(true))
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_analyze_defaults() {
        let inv = Invocation::parse(&s(&["analyze", "m.mtx"])).unwrap();
        assert_eq!(
            inv,
            Invocation::Analyze {
                path: "m.mtx".into(),
                k: 256,
                device: "p100".into()
            }
        );
    }

    #[test]
    fn parse_flags() {
        let inv =
            Invocation::parse(&s(&["bench", "m.mtx", "--k", "512", "--device", "v100"])).unwrap();
        assert_eq!(
            inv,
            Invocation::Bench {
                path: "m.mtx".into(),
                k: 512,
                device: "v100".into()
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(Invocation::parse(&[]).is_err());
        assert!(Invocation::parse(&s(&["frobnicate"])).is_err());
        assert!(Invocation::parse(&s(&["analyze"])).is_err());
        assert!(Invocation::parse(&s(&["analyze", "m.mtx", "--k"])).is_err());
        assert!(Invocation::parse(&s(&["analyze", "m.mtx", "--k", "abc"])).is_err());
        assert!(Invocation::parse(&s(&["analyze", "m.mtx", "--device", "h100"])).is_err());
        assert!(Invocation::parse(&s(&["reorder", "m.mtx"])).is_err()); // no --out
        assert!(Invocation::parse(&s(&["generate", "nosuch", "--out", "x.mtx"])).is_ok());
        // class validity is checked at run time:
        assert!(generate_matrix("nosuch", 1, 1).is_err());
    }

    #[test]
    fn parse_help() {
        for arg in ["help", "--help", "-h"] {
            let inv = Invocation::parse(&s(&[arg])).unwrap();
            assert_eq!(inv, Invocation::Help, "{arg}");
            assert_eq!(run(&inv).unwrap(), USAGE);
        }
        // a subcommand's --help is still an unknown flag
        assert!(Invocation::parse(&s(&["analyze", "--help"])).is_err());
    }

    #[test]
    fn parse_profile() {
        let inv = Invocation::parse(&s(&["profile", "m.mtx", "--k", "64", "--json"])).unwrap();
        assert_eq!(
            inv,
            Invocation::Profile {
                path: "m.mtx".into(),
                k: 64,
                device: "p100".into(),
                json: true,
            }
        );
        let inv = Invocation::parse(&s(&["profile", "m.mtx"])).unwrap();
        assert_eq!(
            inv,
            Invocation::Profile {
                path: "m.mtx".into(),
                k: 256,
                device: "p100".into(),
                json: false,
            }
        );
    }

    #[test]
    fn unknown_flags_are_targeted_errors() {
        let err = Invocation::parse(&s(&["analyze", "m.mtx", "--jsno"])).unwrap_err();
        assert!(err.contains("--jsno"), "{err}");
        assert!(err.contains("analyze"), "{err}");
        assert!(err.contains("--device"), "should list valid flags: {err}");
        // --json is valid for profile but not bench
        let err = Invocation::parse(&s(&["bench", "m.mtx", "--json"])).unwrap_err();
        assert!(err.contains("--json") && err.contains("bench"), "{err}");
        assert!(Invocation::parse(&s(&["profile", "m.mtx", "--json"])).is_ok());
        let err = Invocation::parse(&s(&["generate", "cf", "--out", "x", "--k", "3"])).unwrap_err();
        assert!(err.contains("--k") && err.contains("generate"), "{err}");
    }

    #[test]
    fn profile_json_manifest_matches_preprocessing_time() {
        use spmm_core::telemetry::RunManifest;
        let dir = std::env::temp_dir().join("spmm_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.mtx");
        run(&Invocation::Generate {
            class: "shuffled".into(),
            out: input.clone(),
            seed: 5,
            scale: 1,
        })
        .unwrap();

        let out = run(&Invocation::Profile {
            path: input.clone(),
            k: 32,
            device: "p100".into(),
            json: true,
        })
        .unwrap();
        let manifest = RunManifest::from_json(&out).unwrap();

        // The acceptance criterion: per-stage times are consistent with
        // Engine::preprocessing_time(), which is recorded in the meta.
        let prepare = manifest.find("prepare").expect("prepare stage");
        let recorded: u64 = manifest.meta["preprocessing_ns"].parse().unwrap();
        assert_eq!(prepare.duration_ns, recorded);
        let child_sum: u64 = prepare.children.iter().map(|c| c.duration_ns).sum();
        assert!(
            child_sum <= prepare.duration_ns,
            "children {child_sum} exceed prepare {}",
            prepare.duration_ns
        );
        assert!(manifest.find("prepare/plan").is_some());
        assert!(manifest.find("prepare/tile").is_some());
        // exec/sim stages from the two simulations
        assert!(manifest.find("sim.spmm").is_some());
        assert!(manifest.find("sim.sddmm").is_some());

        // The human-readable tree renders the same stages.
        let tree = run(&Invocation::Profile {
            path: input,
            k: 32,
            device: "p100".into(),
            json: false,
        })
        .unwrap();
        assert!(tree.contains("prepare"), "{tree}");
        assert!(tree.contains("plan"), "{tree}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_serve_bench() {
        let inv = Invocation::parse(&s(&[
            "serve-bench",
            "--requests",
            "8",
            "--cache",
            "4",
            "--zipf",
            "1.5",
            "--json",
        ]))
        .unwrap();
        match inv {
            Invocation::ServeBench { config, json } => {
                assert_eq!(config.requests, 8);
                assert_eq!(config.cache_capacity, 4);
                assert!((config.zipf_s - 1.5).abs() < 1e-12);
                assert!(json);
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        assert!(Invocation::parse(&s(&["serve-bench", "--requests", "x"])).is_err());
        assert!(Invocation::parse(&s(&["serve-bench", "--out", "x.mtx"])).is_err());
    }

    #[test]
    fn parse_serve_bench_batching_flags() {
        // bare --batch enables the defaults
        match Invocation::parse(&s(&["serve-bench", "--batch"])).unwrap() {
            Invocation::ServeBench { config, .. } => {
                assert_eq!(config.batch, Some(BatchConfig::default()));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        // the value flag implies batching and overrides the default
        match Invocation::parse(&s(&["serve-bench", "--max-batch-k", "96"])).unwrap() {
            Invocation::ServeBench { config, .. } => {
                let batch = config.batch.expect("value flags imply batching");
                assert_eq!(batch.max_batch_k, 96);
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        // without any batch flag, batching stays off
        match Invocation::parse(&s(&["serve-bench"])).unwrap() {
            Invocation::ServeBench { config, .. } => assert_eq!(config.batch, None),
            other => panic!("wrong invocation: {other:?}"),
        }
        assert!(Invocation::parse(&s(&["serve-bench", "--max-batch-k", "x"])).is_err());
        // the block width is the plan's microkernel width, not a flag
        let err = Invocation::parse(&s(&["serve-bench", "--k-block", "32"])).unwrap_err();
        assert!(err.contains("unknown flag --k-block"), "{err}");
        // chaos-bench takes the boolean flag only
        match Invocation::parse(&s(&["chaos-bench", "--batch"])).unwrap() {
            Invocation::ChaosBench { config, .. } => {
                assert_eq!(config.batch, Some(BatchConfig::default()));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        assert!(Invocation::parse(&s(&["chaos-bench", "--max-batch-k", "8"])).is_err());
    }

    #[test]
    fn parse_microbench() {
        let inv = Invocation::parse(&s(&[
            "microbench",
            "--k",
            "64",
            "--reps",
            "3",
            "--seed",
            "9",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            inv,
            Invocation::Microbench {
                k: 64,
                reps: 3,
                seed: 9,
                json: true,
            }
        );
        // defaults
        assert_eq!(
            Invocation::parse(&s(&["microbench"])).unwrap(),
            Invocation::Microbench {
                k: 96,
                reps: 5,
                seed: 42,
                json: false,
            }
        );
        let err = Invocation::parse(&s(&["microbench", "--k", "0"])).unwrap_err();
        assert!(err.contains("--k"), "{err}");
        assert!(Invocation::parse(&s(&["microbench", "--k", "x"])).is_err());
        assert!(Invocation::parse(&s(&["microbench", "--device", "p100"])).is_err());
    }

    #[test]
    fn microbench_runs_and_reports_every_width() {
        use spmm_core::telemetry::RunManifest;
        let out = run(&Invocation::Microbench {
            k: 32,
            reps: 1,
            seed: 11,
            json: false,
        })
        .unwrap();
        for w in MICRO_WIDTHS.iter().filter(|&&w| w <= 32) {
            assert!(
                out.lines()
                    .any(|l| l.trim_start().starts_with(&w.to_string())),
                "{out}"
            );
        }
        assert!(out.contains("overall:"), "{out}");

        let json = run(&Invocation::Microbench {
            k: 32,
            reps: 1,
            seed: 11,
            json: true,
        })
        .unwrap();
        let manifest = RunManifest::from_json(&json).unwrap();
        assert!(manifest.gauges.contains_key("micro.speedup"), "{json}");
        assert!(manifest.gauges.contains_key("micro.speedup.k8"), "{json}");
        assert!(manifest.gauges.contains_key("micro.speedup.k32"), "{json}");
        assert_eq!(manifest.meta.get("k").map(String::as_str), Some("32"));
    }

    #[test]
    fn parse_formatbench() {
        let inv = Invocation::parse(&s(&[
            "formatbench",
            "--k",
            "48",
            "--reps",
            "2",
            "--seed",
            "7",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            inv,
            Invocation::Formatbench {
                k: 48,
                reps: 2,
                seed: 7,
                json: true,
            }
        );
        // defaults
        assert_eq!(
            Invocation::parse(&s(&["formatbench"])).unwrap(),
            Invocation::Formatbench {
                k: 96,
                reps: 5,
                seed: 42,
                json: false,
            }
        );
        let err = Invocation::parse(&s(&["formatbench", "--k", "0"])).unwrap_err();
        assert!(err.contains("--k"), "{err}");
        assert!(Invocation::parse(&s(&["formatbench", "--plan-store", "d"])).is_err());
    }

    #[test]
    fn formatbench_runs_and_reports_every_class() {
        use spmm_core::telemetry::RunManifest;
        let json = run(&Invocation::Formatbench {
            k: 32,
            reps: 1,
            seed: 11,
            json: true,
        })
        .unwrap();
        let manifest = RunManifest::from_json(&json).unwrap();
        let overall = manifest.gauges["format.speedup"];
        assert!(
            overall >= 1.0,
            "strict-win adoption cannot regress: {overall}"
        );
        for class in MatrixClass::ALL {
            let gauge = format!("format.speedup.{}", class.label());
            assert!(
                manifest.gauges.get(&gauge).is_some_and(|&s| s >= 1.0),
                "{gauge} missing or < 1 in {json}"
            );
            assert!(
                manifest
                    .meta
                    .contains_key(&format!("format.chosen.{}", class.label())),
                "chosen label missing for {}",
                class.label()
            );
        }
        assert!(manifest.counters.contains_key("tune.format.skipped"));
    }

    #[test]
    fn parse_serve_bench_op_flag() {
        for (spelling, want) in [
            ("spmm", BenchOp::Spmm),
            ("spmv", BenchOp::Spmv),
            ("spgemm", BenchOp::Spgemm),
        ] {
            match Invocation::parse(&s(&["serve-bench", "--op", spelling])).unwrap() {
                Invocation::ServeBench { config, .. } => assert_eq!(config.op, want),
                other => panic!("wrong invocation: {other:?}"),
            }
        }
        // default stream is SpMM
        match Invocation::parse(&s(&["serve-bench"])).unwrap() {
            Invocation::ServeBench { config, .. } => assert_eq!(config.op, BenchOp::Spmm),
            other => panic!("wrong invocation: {other:?}"),
        }
        let err = Invocation::parse(&s(&["serve-bench", "--op", "sddmm"])).unwrap_err();
        assert!(err.contains("bad --op value"), "{err}");
        assert!(Invocation::parse(&s(&["serve-bench", "--op"])).is_err());
        // chaos-bench schedules its own mixed-op traffic; no --op there
        assert!(Invocation::parse(&s(&["chaos-bench", "--op", "spmv"])).is_err());
    }

    #[test]
    fn serve_bench_with_batching_reports_the_batch_probe() {
        let inv = Invocation::parse(&s(&[
            "serve-bench",
            "--requests",
            "12",
            "--concurrency",
            "2",
            "--workers",
            "2",
            "--cache",
            "4",
            "--k",
            "16",
            "--batch",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("batch probe"), "{out}");
        assert!(!out.contains("FAILED"), "{out}");
    }

    #[test]
    fn serve_bench_runs_and_reports() {
        let inv = Invocation::parse(&s(&[
            "serve-bench",
            "--requests",
            "12",
            "--concurrency",
            "2",
            "--workers",
            "2",
            "--cache",
            "4",
            "--k",
            "16",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("hit probe"), "{out}");
        assert!(out.contains("cold probe"), "{out}");
        assert!(!out.contains("FAILED"), "{out}");
    }

    #[test]
    fn parse_chaos_bench() {
        let inv = Invocation::parse(&s(&[
            "chaos-bench",
            "--requests",
            "24",
            "--seed",
            "7",
            "--faults",
            "serve.cache.prepare:error@every:3",
            "--json",
        ]))
        .unwrap();
        match inv {
            Invocation::ChaosBench { config, json } => {
                assert_eq!(config.requests, 24);
                assert_eq!(config.seed, 7);
                assert_eq!(
                    config.faults.as_deref(),
                    Some("serve.cache.prepare:error@every:3")
                );
                assert!(json);
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        // --faults needs a value; --device is not a chaos-bench flag
        assert!(Invocation::parse(&s(&["chaos-bench", "--faults"])).is_err());
        assert!(Invocation::parse(&s(&["chaos-bench", "--device", "p100"])).is_err());
    }

    #[test]
    fn chaos_bench_clean_run_reports_exactness() {
        // no --faults: must not arm the global registry (other tests in
        // this binary run concurrently); faulted runs live in the
        // dedicated chaos suite
        let inv = Invocation::parse(&s(&[
            "chaos-bench",
            "--requests",
            "16",
            "--concurrency",
            "2",
            "--workers",
            "2",
            "--k",
            "8",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("ok 16  failed 0"), "{out}");
        assert!(!out.contains("FAILED"), "{out}");
        // a malformed fault spec is a targeted error, not a panic
        let mut bad_config = ChaosBenchConfig::default();
        bad_config.faults = Some("nope".into());
        let bad = Invocation::ChaosBench {
            config: bad_config,
            json: false,
        };
        assert!(run(&bad).is_err());
    }

    #[test]
    fn generate_all_classes() {
        for class in [
            "scattered",
            "powerlaw",
            "rmat",
            "banded",
            "stencil",
            "clustered",
            "shuffled",
            "noisy",
            "diagonal",
            "cf",
        ] {
            let m = generate_matrix(class, 1, 7).unwrap();
            assert!(m.nnz() > 0, "{class} empty");
        }
    }

    #[test]
    fn end_to_end_generate_reorder_analyze() {
        let dir = std::env::temp_dir().join("spmm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.mtx");
        let output = dir.join("out.mtx");
        let order = dir.join("order.txt");

        let r = run(&Invocation::Generate {
            class: "shuffled".into(),
            out: input.clone(),
            seed: 3,
            scale: 1,
        })
        .unwrap();
        assert!(r.contains("wrote shuffled"));

        let r = run(&Invocation::Reorder {
            input: input.clone(),
            out: output.clone(),
            order: Some(order.clone()),
        })
        .unwrap();
        assert!(r.contains("reordered"), "{r}");
        // order file has one index per row
        let lines = std::fs::read_to_string(&order).unwrap();
        let m: CsrMatrix<f32> = mm_io::read_matrix_market_file(&input).unwrap();
        assert_eq!(lines.lines().count(), m.nrows());

        let r = run(&Invocation::Analyze {
            path: input,
            k: 64,
            device: "p100".into(),
        })
        .unwrap();
        assert!(r.contains("recommendation"), "{r}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_plan() {
        let inv = Invocation::parse(&s(&["plan", "save", "m.mtx", "--store", "plans"])).unwrap();
        assert_eq!(
            inv,
            Invocation::Plan {
                action: "save".into(),
                path: "m.mtx".into(),
                store: "plans".into(),
            }
        );
        for action in ["load", "verify"] {
            assert!(Invocation::parse(&s(&["plan", action, "m.mtx", "--store", "d"])).is_ok());
        }
        // bad action, missing matrix, missing --store, unknown flag
        assert!(Invocation::parse(&s(&["plan", "frobnicate", "m.mtx", "--store", "d"])).is_err());
        assert!(Invocation::parse(&s(&["plan", "save", "--store", "d"])).is_err());
        assert!(Invocation::parse(&s(&["plan", "save", "m.mtx"])).is_err());
        assert!(
            Invocation::parse(&s(&["plan", "save", "m.mtx", "--store", "d", "--k", "8"])).is_err()
        );
    }

    #[test]
    fn parse_plan_gc() {
        let inv =
            Invocation::parse(&s(&["plan", "gc", "--store", "plans", "--keep", "3"])).unwrap();
        assert_eq!(
            inv,
            Invocation::PlanGc {
                store: "plans".into(),
                keep: 3,
            }
        );
        // --keep defaults to 8 and gc needs no matrix positional
        match Invocation::parse(&s(&["plan", "gc", "--store", "plans"])).unwrap() {
            Invocation::PlanGc { keep, .. } => assert_eq!(keep, 8),
            other => panic!("wrong invocation: {other:?}"),
        }
        assert!(Invocation::parse(&s(&["plan", "gc"])).is_err()); // no --store
        assert!(Invocation::parse(&s(&["plan", "gc", "--store", "d", "--keep", "x"])).is_err());
        // --keep is a gc-only flag
        let err = Invocation::parse(&s(&[
            "plan", "save", "m.mtx", "--store", "d", "--keep", "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--keep"), "{err}");
    }

    #[test]
    fn parse_deltas_flag() {
        for cmd in ["serve-bench", "chaos-bench"] {
            match Invocation::parse(&s(&[cmd, "--deltas"])).unwrap() {
                Invocation::ServeBench { config, .. } => assert!(config.deltas),
                Invocation::ChaosBench { config, .. } => assert!(config.deltas),
                other => panic!("wrong invocation: {other:?}"),
            }
            match Invocation::parse(&s(&[cmd])).unwrap() {
                Invocation::ServeBench { config, .. } => assert!(!config.deltas),
                Invocation::ChaosBench { config, .. } => assert!(!config.deltas),
                other => panic!("wrong invocation: {other:?}"),
            }
        }
        assert!(Invocation::parse(&s(&["analyze", "m.mtx", "--deltas"])).is_err());
    }

    #[test]
    fn end_to_end_plan_gc_keeps_newest_plans() {
        let dir = std::env::temp_dir().join(format!("spmm_cli_gc_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_dir = dir.join("plans");
        for (i, class) in ["shuffled", "banded", "clustered"].iter().enumerate() {
            let input = dir.join(format!("m{i}.mtx"));
            run(&Invocation::Generate {
                class: (*class).into(),
                out: input.clone(),
                seed: 5 + i as u64,
                scale: 1,
            })
            .unwrap();
            run(&Invocation::Plan {
                action: "save".into(),
                path: input,
                store: store_dir.clone(),
            })
            .unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let out = run(&Invocation::PlanGc {
            store: store_dir.clone(),
            keep: 1,
        })
        .unwrap();
        assert!(out.contains("deleted 2 plan file(s)"), "{out}");
        assert!(out.contains("kept the 1 newest (1 on disk)"), "{out}");
        assert_eq!(
            PlanStore::open(&store_dir).unwrap().list().unwrap().len(),
            1
        );
        // idempotent: nothing left to collect
        let again = run(&Invocation::PlanGc {
            store: store_dir,
            keep: 1,
        })
        .unwrap();
        assert!(again.contains("deleted 0 plan file(s)"), "{again}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_bench_with_deltas_reports_the_epoch_chain() {
        let inv = Invocation::parse(&s(&[
            "chaos-bench",
            "--requests",
            "24",
            "--concurrency",
            "2",
            "--workers",
            "2",
            "--k",
            "8",
            "--deltas",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("deltas: committed"), "{out}");
        assert!(out.contains("final epoch exact"), "{out}");
        assert!(!out.contains("FAILED"), "{out}");
    }

    #[test]
    fn parse_serve_bench_plan_store_flag() {
        match Invocation::parse(&s(&["serve-bench", "--plan-store", "plans"])).unwrap() {
            Invocation::ServeBench { config, .. } => {
                assert_eq!(config.plan_store, Some(PathBuf::from("plans")));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        match Invocation::parse(&s(&["serve-bench"])).unwrap() {
            Invocation::ServeBench { config, .. } => assert_eq!(config.plan_store, None),
            other => panic!("wrong invocation: {other:?}"),
        }
        assert!(Invocation::parse(&s(&["serve-bench", "--plan-store"])).is_err());
    }

    #[test]
    fn shards_is_an_unknown_flag() {
        for cmd in ["serve-bench", "chaos-bench"] {
            let err = Invocation::parse(&s(&[cmd, "--shards", "2"])).unwrap_err();
            assert!(err.contains("unknown flag --shards"), "{err}");
        }
    }

    #[test]
    fn end_to_end_plan_save_load_verify() {
        let dir = std::env::temp_dir().join(format!("spmm_cli_plan_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.mtx");
        let store = dir.join("plans");

        run(&Invocation::Generate {
            class: "shuffled".into(),
            out: input.clone(),
            seed: 5,
            scale: 1,
        })
        .unwrap();

        let plan = |action: &str| {
            run(&Invocation::Plan {
                action: action.into(),
                path: input.clone(),
                store: store.clone(),
            })
        };

        // load before save is a targeted miss, not a panic
        let r = plan("load");
        assert!(r.is_err());
        assert!(r.unwrap_err().contains("no stored plan"));

        let r = plan("save").unwrap();
        assert!(r.contains("saved plan"), "{r}");

        let r = plan("load").unwrap();
        assert!(r.contains("loaded plan"), "{r}");
        assert!(r.contains("zero preprocessing"), "{r}");

        let r = plan("verify").unwrap();
        assert!(r.contains("verifies"), "{r}");

        // corrupt the stored file: verify must report invalid, not panic
        let m: CsrMatrix<f32> = mm_io::read_matrix_market_file(&input).unwrap();
        let fp = MatrixFingerprint::of(&m);
        let file = PlanStore::open(&store).unwrap().path_for::<f32>(&fp);
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&file, bytes).unwrap();
        let r = plan("verify");
        assert!(r.is_err());
        assert!(r.unwrap_err().contains("invalid"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_error_not_a_panic() {
        let r = run(&Invocation::Analyze {
            path: "/nonexistent/m.mtx".into(),
            k: 64,
            device: "p100".into(),
        });
        assert!(r.is_err());
    }
}
