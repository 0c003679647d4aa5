//! Acceptance tests for multi-RHS batching: random batch compositions
//! through a batched serving engine, with every response checked
//! **bit for bit** against its solo sequential reference.
//!
//! All operands are quantised onto a small integer grid, so every
//! partial sum is exactly representable and summation order cannot
//! change a result: the fused pass, the tiled solo pass and
//! `spmm_rowwise_seq` must agree exactly. Fusion is forced
//! deterministically with the single-worker + cold-decoy pattern: the
//! lone worker is pinned preparing a cold structure while the test's
//! requests pile up in the queue and coalesce.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spmm_rr::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Quantises onto `{-8, …, 8}` so all kernel paths are bit-identical.
fn quantize(values: &mut [f64]) {
    for v in values {
        *v = (*v * 8.0).round().clamp(-8.0, 8.0);
    }
}

fn quantized_matrix(
    rows: usize,
    cols: usize,
    nnz_per_row: usize,
    seed: u64,
) -> Arc<CsrMatrix<f64>> {
    let mut m = generators::uniform_random::<f64>(rows, cols, nnz_per_row, seed);
    quantize(m.values_mut());
    Arc::new(m)
}

fn quantized_x(rows: usize, k: usize, seed: u64) -> DenseMatrix<f64> {
    let mut x = generators::random_dense::<f64>(rows, k, seed);
    quantize(x.data_mut());
    x
}

#[test]
fn random_batch_compositions_stay_bit_identical_to_solo_references() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C);
    let mut total_batches = 0;
    let mut total_batched_requests = 0;

    for round in 0..5u64 {
        // two distinct structures: fusion must respect the boundary
        let mats = [
            quantized_matrix(96, 96, 5, 0xA0 + round),
            quantized_matrix(96, 80, 4, 0xB0 + round),
        ];
        let engine = ServeEngine::<f64>::start(
            ServeConfig::builder()
                .workers(1)
                .queue_capacity(128)
                .batching(BatchConfig::default().max_batch_k(48))
                .build()
                .unwrap(),
        );
        // warm both structures so the fused passes run on cached plans
        for (i, m) in mats.iter().enumerate() {
            engine
                .execute(Request::spmm(
                    m.clone(),
                    quantized_x(m.ncols(), 2, round ^ i as u64),
                ))
                .unwrap();
        }
        // the decoy pins the single worker on a cold prepare while the
        // round's requests queue up behind it
        let decoy_m = quantized_matrix(512, 512, 24, 0xDEC0 + round);
        let decoy_x = quantized_x(512, 4, 0xDEC1 + round);
        let decoy = engine.submit(Request::spmm(decoy_m, decoy_x)).unwrap();

        let n = 6 + rng.random_range(0..6usize);
        let mut expected = Vec::with_capacity(n);
        let mut tickets = Vec::with_capacity(n);
        for i in 0..n {
            let mi = rng.random_range(0..mats.len());
            let k = 1 + rng.random_range(0..12usize);
            let x = quantized_x(mats[mi].ncols(), k, round.wrapping_mul(97) ^ i as u64);
            expected.push(spmm_rowwise_seq(&mats[mi], &x).unwrap());
            // mixed deadlines (all generous enough to be met) exercise
            // the tighter-than-the-batch skip policy mid-composition;
            // the first three share one class so a fusable group always
            // exists whatever the draw
            let mut request = Request::spmm(mats[mi].clone(), x);
            if i < 3 {
                request = request.deadline(Duration::from_secs(60));
            } else {
                match rng.random_range(0..4u32) {
                    0 => {}
                    1 => request = request.deadline(Duration::from_secs(30)),
                    2 => request = request.deadline(Duration::from_secs(60)),
                    _ => request = request.deadline(Duration::from_secs(600)),
                }
            }
            tickets.push(engine.submit(request).unwrap());
        }
        decoy.wait().unwrap();
        for (i, (ticket, reference)) in tickets.into_iter().zip(&expected).enumerate() {
            let response = ticket.wait().unwrap();
            let got = response.output.into_dense().unwrap();
            assert_eq!(
                got.data(),
                reference.data(),
                "round {round}, request {i}: response deviates from its solo \
                 spmm_rowwise_seq reference (path {:?})",
                response.path
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.failed, 0, "round {round}: {stats:?}");
        assert_eq!(stats.deadline_exceeded, 0, "round {round}: {stats:?}");
        total_batches += stats.batches;
        total_batched_requests += stats.batched_requests;
    }

    assert!(
        total_batches >= 1,
        "five rounds of pinned-worker compositions never fused"
    );
    assert!(total_batched_requests >= 2 * total_batches);
}

#[test]
fn fused_and_unbatched_engines_agree_bit_for_bit() {
    // the same request stream through a batched and an unbatched
    // engine must produce identical bytes, response by response
    let m = quantized_matrix(128, 128, 6, 0xF00D);
    let xs: Vec<DenseMatrix<f64>> = (0..4).map(|i| quantized_x(128, 8, 0x3000 + i)).collect();

    let batched = ServeEngine::<f64>::start(
        ServeConfig::builder()
            .workers(1)
            .queue_capacity(64)
            .batching(BatchConfig::default())
            .build()
            .unwrap(),
    );
    let solo = ServeEngine::<f64>::start(
        ServeConfig::builder()
            .workers(1)
            .queue_capacity(64)
            .build()
            .unwrap(),
    );

    batched
        .execute(Request::spmm(m.clone(), xs[0].clone()))
        .unwrap();
    let decoy = batched
        .submit(Request::spmm(
            quantized_matrix(512, 512, 24, 0xDECAF),
            quantized_x(512, 4, 0xDECAE),
        ))
        .unwrap();
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| batched.submit(Request::spmm(m.clone(), x.clone())).unwrap())
        .collect();
    decoy.wait().unwrap();

    for (x, ticket) in xs.iter().zip(tickets) {
        let fused = ticket.wait().unwrap().output.into_dense().unwrap();
        let reference = solo
            .execute(Request::spmm(m.clone(), x.clone()))
            .unwrap()
            .output
            .into_dense()
            .unwrap();
        assert_eq!(fused.data(), reference.data());
    }
    assert!(batched.stats().batches >= 1, "{:?}", batched.stats());
}

/// Queues `xs` against `m` behind a cold decoy on a single-worker
/// engine, so they coalesce into one group, and returns the responses.
fn pinned_group(
    engine: &ServeEngine<f64>,
    m: &Arc<CsrMatrix<f64>>,
    xs: &[DenseMatrix<f64>],
    deadline: Option<Duration>,
) -> Vec<Response<f64>> {
    let decoy = engine
        .submit(Request::spmm(
            quantized_matrix(512, 512, 24, 0xDEC0DE),
            quantized_x(512, 4, 0xDEC0DF),
        ))
        .unwrap();
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| {
            let mut request = Request::spmm(m.clone(), x.clone());
            if let Some(d) = deadline {
                request = request.deadline(d);
            }
            engine.submit(request).unwrap()
        })
        .collect();
    decoy.wait().unwrap();
    tickets.into_iter().map(|t| t.wait().unwrap()).collect()
}

#[test]
fn fused_groups_stay_exact_on_a_micro_width_plan_and_on_the_fallback() {
    let m = quantized_matrix(96, 96, 5, 0x1111);
    // widths 5 + 11 + 7 = 23: not a multiple of the plan's micro width
    let xs: Vec<DenseMatrix<f64>> = [5, 11, 7]
        .iter()
        .enumerate()
        .map(|(i, &k)| quantized_x(96, k, 0x2000 + i as u64))
        .collect();
    let start = || {
        ServeEngine::<f64>::start(
            ServeConfig::builder()
                .workers(1)
                .preprocess_budget(Duration::from_secs(60))
                .batching(BatchConfig::default())
                .build()
                .unwrap(),
        )
    };

    // a resident plan that carries a micro width: the fused pass runs
    // the 8-wide microkernel over the concatenated operand
    let planned = start();
    let mut plan = Engine::prepare(&m, &EngineConfig::default()).unwrap();
    plan.set_micro_width(Some(8));
    assert!(planned
        .cache()
        .insert_ready(MatrixFingerprint::of(&m), Arc::new(plan)));
    let on_plan = pinned_group(&planned, &m, &xs, None);

    // a cold structure under a deadline inside the preprocessing
    // budget: the fused group is served by the row-wise fallback
    let cold = start();
    let on_fallback = pinned_group(&cold, &m, &xs, Some(Duration::from_secs(60)));

    for (engine, responses, path) in [
        (&planned, on_plan, ServePath::CachedPlan),
        (&cold, on_fallback, ServePath::Fallback),
    ] {
        for (x, response) in xs.iter().zip(responses) {
            assert_eq!(response.path, path);
            let reference = spmm_rowwise_seq(&m, x).unwrap();
            assert_eq!(
                response.output.into_dense().unwrap().data(),
                reference.data(),
                "{path:?} member of width {} deviates",
                x.ncols()
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.batches, 1, "{path:?}: {stats:?}");
        assert_eq!(stats.batched_requests, 3, "{path:?}: {stats:?}");
    }
}
