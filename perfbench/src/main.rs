//! `spmm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line (checks per operation and service path), then,
//! as the last line, the result object: end-to-end metrics when
//! untraced, per-layer metrics when traced. Exits non-zero without a
//! result when the run cannot be completed.

use spmm_perfbench::report::{result_line, END_TO_END};
use spmm_perfbench::{report, workloads};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let result = parse().and_then(|a| {
        let out = workloads::run(&a.workload, a.seed, a.seconds, a.trace)?;
        let expected: Vec<(String, &str)> = if a.trace {
            report::per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        println!("{{\"checks\": {}}}", out.checks.to_json());
        result_line(&out.checks, &out.metrics, &expected)
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("spmm-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
