//! Metric names, correctness accounting, timed samples and the result
//! line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::inputs::LAYER_CLASSES;

/// End-to-end metrics, printed by every untraced run, with their units.
/// They must match `BENCHMARK.json` exactly.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("spmm_gflops", "GFLOP/s"),
    ("sddmm_gflops", "GFLOP/s"),
    ("serve_rps", "req/s"),
    ("p10_ms", "ms"),
];

/// Per-class per-layer metrics (suffixed `.<class>`).
const PER_CLASS: [(&str, &str); 7] = [
    ("kernels.spmm_ms", "ms"),
    ("kernels.sddmm_ms", "ms"),
    ("kernels.plan_spmm_ms", "ms"),
    ("kernels.rowwise_ms", "ms"),
    ("kernels.vs_rowwise", "ratio"),
    ("kernels.computed_gb_s", "GB/s"),
    ("aspt.dense_ratio", "ratio"),
];

/// Per-layer metrics without a class suffix.
const PER_LAYER_POOLED: [(&str, &str); 31] = [
    ("kernels.micro_select_ms", "ms"),
    ("kernels.format_select_ms", "ms"),
    ("kernels.non_csr_formats", "count"),
    ("kernels.prepare_ms", "ms"),
    ("kernels.prepare_reported_ms", "ms"),
    ("kernels.prepare_unreported_ratio", "ratio"),
    ("kernels.first_spmm_ms", "ms"),
    ("lsh.minhash_ms", "ms"),
    ("lsh.banding_ms", "ms"),
    ("lsh.candidates", "count"),
    ("reorder.plan_ms", "ms"),
    ("reorder.cluster_ms", "ms"),
    ("sparse.permute_ms", "ms"),
    ("sparse.check_ms", "ms"),
    ("aspt.tile_ms", "ms"),
    ("serve.fingerprint_us", "us"),
    ("serve.cache_try_get_us", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.preprocess_ms.p50", "ms"),
    ("serve.unaccounted_ms.p50", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.samples", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.fresh", "count"),
    ("host.cpu_calib_ms", "ms"),
    ("host.mem_calib_ms", "ms"),
    ("host.steal_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run, with their units.
/// They must match `BENCHMARK.json` exactly.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (name, unit) in PER_CLASS {
        for class in LAYER_CLASSES {
            names.push((format!("{name}.{}", class.label()), unit));
        }
    }
    names.extend(PER_LAYER_POOLED.iter().map(|&(n, u)| (n.to_string(), u)));
    names
}

/// Checked operations, by kind (an op name, or `serve.<op>.<path>`).
#[derive(Debug, Default)]
pub struct Checks {
    by_kind: BTreeMap<String, (u64, u64)>,
}

impl Checks {
    /// Records one attempted operation of `kind`; `ok` is false for an
    /// error, a refusal or an answer that differs from the reference.
    pub fn record(&mut self, kind: &str, ok: bool) {
        let e = self.by_kind.entry(kind.to_string()).or_default();
        e.0 += 1;
        e.1 += u64::from(!ok);
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.by_kind.values().map(|e| e.0).sum()
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.by_kind.values().map(|e| e.1).sum()
    }

    /// `{"kind": [attempted, failed], …}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .by_kind
            .iter()
            .map(|(k, (a, f))| format!("\"{k}\": [{a}, {f}]"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Wall-clock samples by name: each call the benchmark makes into a
/// crate's public functions is timed by the benchmark's own code (nothing
/// inside the program is instrumented). Series names are `<call>` or
/// `<call>.<class>`; the values are seconds unless the name says
/// otherwise (`nnz.<class>`).
#[derive(Debug, Default)]
pub struct Samples {
    series: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    /// Runs `f`, records its wall time under `name` and returns its
    /// result with the time in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        self.push(name, secs);
        (r, secs)
    }

    /// Appends `value` to the series `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.series.entry(name.to_string()).or_default().push(value);
    }

    /// The series `name`; empty when nothing was recorded under it.
    pub fn get(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }

    /// The series `name` and every `name.<class>` series, concatenated.
    pub fn pooled(&self, name: &str) -> Vec<f64> {
        let class_prefix = format!("{name}.");
        self.series
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&class_prefix))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Median of [`Samples::pooled`] `name`, scaled by `scale` (1e3 for
    /// milliseconds).
    pub fn median(&self, name: &str, scale: f64) -> Result<f64, String> {
        crate::stats::median(&self.pooled(name))
            .map(|v| v * scale)
            .ok_or(format!("no {name} samples"))
    }

    /// Replaces every series of `self` that `other` also holds by
    /// `other`'s.
    pub fn adopt(&mut self, other: &Samples) {
        for (k, v) in &mut self.series {
            if let Some(theirs) = other.series.get(k) {
                v.clone_from(theirs);
            }
        }
    }
}

/// Metric values by name, in the order they were set.
pub type Metrics = BTreeMap<String, f64>;

/// The result line: every name in `expected` must be present and
/// finite, or the run is broken and no result is printed.
pub fn result_line(
    checks: &Checks,
    metrics: &Metrics,
    expected: &[(String, &str)],
) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in expected {
        let v = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed = checks.failed();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && checks.attempted() > 0,
        checks.attempted(),
        parts.join(", ")
    ))
}
