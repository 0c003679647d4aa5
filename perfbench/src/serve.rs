//! Closed-loop clients driving a `ServeEngine` with SpMV requests, every
//! answer checked against the sequential reference.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use spmm_serve::{CacheStats, Request, ServeEngine, ServePath};

use crate::inputs::Case;
use crate::report::{Checks, Metrics};
use crate::stats::{median, tail_percentile};

/// One completed (or failed) request as its client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// Client-side latency, submit to answer, in seconds.
    pub latency: f64,
    /// The engine's accounting: path, queue wait, preprocess and
    /// service seconds; `None` when the request errored.
    pub accounting: Option<(ServePath, f64, f64, f64)>,
    /// Whether the answer matched the reference bit for bit.
    pub ok: bool,
}

/// Runs `clients` closed-loop clients against `engine` until `requests`
/// SpMV requests were sent; request `n` goes to `cases[n % cases.len()]`.
pub fn drive(
    engine: &ServeEngine<crate::inputs::V>,
    cases: &[&Case],
    requests: usize,
    clients: usize,
) -> Vec<Served> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= requests {
                        break;
                    }
                    let case = cases[n % cases.len()];
                    let t = Instant::now();
                    let res = engine
                        .submit(Request::spmv(case.m.clone(), case.ops.v.clone()))
                        .and_then(|t| t.wait());
                    let latency = t.elapsed().as_secs_f64();
                    let (accounting, ok) = match &res {
                        Ok(r) => (
                            Some((
                                r.path,
                                r.queue_wait.as_secs_f64(),
                                r.preprocess.as_secs_f64(),
                                r.service.as_secs_f64(),
                            )),
                            r.output.as_vector() == Some(&case.spmv_ref[..]),
                        ),
                        Err(_) => (None, false),
                    };
                    mine.push(Served {
                        latency,
                        accounting,
                        ok,
                    });
                }
                out.lock()
                    .expect("no client panics while holding the lock")
                    .extend(mine);
            });
        }
    });
    out.into_inner().expect("clients have finished")
}

/// Records every request of `served` as `serve.spmv.<path>`.
pub fn check(served: &[Served], checks: &mut Checks) {
    for s in served {
        let path = s
            .accounting
            .map_or("error".to_string(), |a| a.0.to_string());
        checks.record(&format!("serve.spmv.{path}"), s.ok);
    }
}

/// The serving layer's per-layer metrics over `served`, with cache
/// counters taken as the difference `after − before`.
pub fn layer_metrics(
    served: &[Served],
    before: &CacheStats,
    after: &CacheStats,
    m: &mut Metrics,
) -> Result<(), String> {
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let acct: Vec<(ServePath, f64, f64, f64, f64)> = served
        .iter()
        .filter_map(|s| {
            s.accounting
                .map(|(p, q, pre, svc)| (p, q, pre, svc, s.latency))
        })
        .collect();
    let queue = ms(acct.iter().map(|a| a.1).collect());
    let fresh_pre = ms(acct
        .iter()
        .filter(|a| a.0 == ServePath::FreshPlan)
        .map(|a| a.2)
        .collect());
    let service = ms(acct.iter().map(|a| a.3).collect());
    let unaccounted = ms(acct.iter().map(|a| a.4 - a.1 - a.2 - a.3).collect());
    let latency = ms(served.iter().map(|s| s.latency).collect());
    let few = || format!("only {} serve samples", served.len());
    m.insert(
        "serve.queue_wait_ms.p50".into(),
        median(&queue).ok_or_else(few)?,
    );
    m.insert(
        "serve.queue_wait_ms.p99".into(),
        tail_percentile(&queue, 99.0).ok_or_else(few)?,
    );
    m.insert(
        "serve.service_ms.p50".into(),
        median(&service).ok_or_else(few)?,
    );
    m.insert(
        "serve.preprocess_ms.p50".into(),
        median(&fresh_pre).ok_or("no fresh plans were prepared")?,
    );
    m.insert(
        "serve.unaccounted_ms.p50".into(),
        median(&unaccounted).ok_or_else(few)?,
    );
    m.insert(
        "serve.p99_ms".into(),
        tail_percentile(&latency, 99.0).ok_or_else(few)?,
    );
    m.insert("serve.samples".into(), served.len() as f64);
    let hits = after.hits() - before.hits();
    let lookups = hits + after.misses() - before.misses();
    m.insert(
        "serve.hit_ratio".into(),
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    m.insert(
        "serve.evictions".into(),
        (after.evictions() - before.evictions()) as f64,
    );
    m.insert("serve.fresh".into(), fresh_pre.len() as f64);
    Ok(())
}
