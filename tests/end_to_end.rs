//! Cross-crate integration tests: every corpus matrix flows through
//! the full pipeline with exact results, and the paper's performance
//! mechanisms hold at the simulator level.

use spmm_rr::kernels::sddmm::sddmm_rowwise_seq;
use spmm_rr::kernels::spmm::spmm_rowwise_seq;
use spmm_rr::prelude::*;

const K: usize = 16;

fn engine_config() -> EngineConfig {
    EngineConfig::builder()
        .reorder(
            ReorderConfig::builder()
                .aspt(AsptConfig {
                    panel_height: 16,
                    min_col_nnz: 2,
                    tile_width: 32,
                })
                .build(),
        )
        .build()
}

#[test]
fn whole_corpus_spmm_matches_reference() {
    let corpus = Corpus::<f64>::generate(CorpusProfile::Quick, 7);
    for entry in corpus.iter() {
        let m = &entry.matrix;
        let engine = Engine::prepare(m, &engine_config()).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), K, 11);
        let expected = spmm_rowwise_seq(m, &x).unwrap();
        let got = engine.spmm(&x).unwrap();
        let diff = expected.max_abs_diff(&got);
        assert!(
            diff < 1e-9,
            "{}: SpMM deviates by {diff} (round1={}, round2={})",
            entry.name,
            engine.plan().round1_applied,
            engine.plan().round2_applied
        );
    }
}

#[test]
fn whole_corpus_sddmm_matches_reference() {
    let corpus = Corpus::<f64>::generate(CorpusProfile::Quick, 13);
    for entry in corpus.iter() {
        let m = &entry.matrix;
        let engine = Engine::prepare(m, &engine_config()).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), K, 3);
        let y = generators::random_dense::<f64>(m.nrows(), K, 5);
        let expected = sddmm_rowwise_seq(m, &x, &y).unwrap();
        let got = engine.sddmm(&x, &y).unwrap();
        let diff = expected
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-9, "{}: SDDMM deviates by {diff}", entry.name);
    }
}

/// Integer-valued operands make every sum exact in any order, so the
/// engine's caller-order SpMM and SDDMM must equal the sequential
/// references bit for bit, at each `k` and the micro width a plan for
/// that `k` carries.
#[test]
fn quantized_engine_outputs_equal_the_sequential_references() {
    let corpus = Corpus::<f32>::generate(CorpusProfile::Quick, 17);
    let quantize = |m: DenseMatrix<f32>| {
        let d = m.data().iter().map(|v| (v * 2.0).round()).collect();
        DenseMatrix::from_vec(m.nrows(), m.ncols(), d)
    };
    for entry in corpus.iter() {
        let mut m = entry.matrix.clone();
        for (i, v) in m.values_mut().iter_mut().enumerate() {
            *v = [-3.0, -1.0, 1.0, 3.0][i % 4];
        }
        let engine = Engine::prepare(&m, &engine_config()).unwrap();
        for k in [1, 7, 8, 32, 33] {
            let mut e = engine.clone();
            e.set_micro_width(spmm_rr::kernels::widest_micro_width(k));
            let x = quantize(generators::random_dense::<f32>(m.ncols(), k, 3));
            let y = quantize(generators::random_dense::<f32>(m.nrows(), k, 5));
            assert_eq!(
                e.spmm(&x).unwrap(),
                spmm_rowwise_seq(&m, &x).unwrap(),
                "{} SpMM k={k}",
                entry.name
            );
            assert_eq!(
                e.sddmm(&x, &y).unwrap(),
                sddmm_rowwise_seq(&m, &x, &y).unwrap(),
                "{} SDDMM k={k}",
                entry.name
            );
        }
    }
}

#[test]
fn corpus_classes_trigger_expected_decisions() {
    let corpus = Corpus::<f64>::generate(CorpusProfile::Quick, 21);
    let cfg = engine_config().reorder;
    for entry in corpus.iter() {
        let plan = plan_reordering(&entry.matrix, &cfg);
        match entry.class {
            // already-clustered matrices must skip round 1 (§4)
            MatrixClass::Clustered => {
                assert!(
                    !plan.round1_applied,
                    "{}: well-clustered matrix reordered",
                    entry.name
                );
            }
            // the diagonal has nothing to cluster: identity plans
            MatrixClass::Diagonal => {
                assert!(!plan.needs_reordering(), "{}", entry.name);
            }
            // shuffled clusters are the recoverable case
            MatrixClass::ShuffledClustered => {
                assert!(
                    plan.round1_applied,
                    "{}: recoverable matrix not reordered",
                    entry.name
                );
                assert!(
                    plan.dense_ratio_after > plan.dense_ratio_before,
                    "{}: reorder failed to improve dense ratio",
                    entry.name
                );
            }
            _ => {}
        }
    }
}

#[test]
fn rr_wins_where_the_paper_says_it_wins() {
    // the paper's headline: on matrices with recoverable structure,
    // ASpT-RR beats both ASpT-NR and the cuSPARSE-like baseline.
    let m = generators::shuffled_block_diagonal::<f32>(512, 16, 48, 16, 99);
    let device = DeviceConfig::p100();
    let trial = choose_variant(&m, Kernel::Spmm, 256, &device, &engine_config().reorder).unwrap();
    assert_eq!(trial.chosen, Variant::AsptRr);
    assert!(
        trial.rr_speedup_vs_best_other() > 1.2,
        "expected a solid win, got {:.2}x",
        trial.rr_speedup_vs_best_other()
    );

    let sddmm_trial =
        choose_variant(&m, Kernel::Sddmm, 256, &device, &engine_config().reorder).unwrap();
    assert_eq!(sddmm_trial.chosen, Variant::AsptRr);
}

#[test]
fn rr_never_hurts_where_skip_heuristics_fire() {
    // on a well-clustered matrix the plan is identity, so RR == NR
    // exactly (same traces, same simulated time). The fixture is
    // pinned: dense ratio exactly 1.0 and an empty remainder make both
    // §4 skip decisions unambiguous under any RNG backend.
    let m = generators::pinned_block_diagonal::<f32>(64, 16, 24);
    let device = DeviceConfig::p100();
    let trial = choose_variant(&m, Kernel::Spmm, 128, &device, &engine_config().reorder).unwrap();
    assert!(!trial.reordering_applied);
    assert_eq!(trial.aspt_nr.time_s, trial.aspt_rr.time_s);
}

#[test]
fn vertex_reordering_does_not_help_spmm() {
    // the METIS experiment (§5.2): a locality-seeking symmetric
    // permutation does not reduce SpMM data movement the way row
    // reordering does.
    use spmm_rr::reorder::baselines;
    let m = generators::shuffled_block_diagonal::<f32>(256, 16, 16, 8, 17);
    // make it square for vertex reordering
    assert_eq!(m.nrows(), m.ncols());
    let device = DeviceConfig::p100();
    let k = 256;

    let base = simulate_spmm_aspt(
        &AsptMatrix::build(&m, &engine_config().reorder.aspt),
        None,
        k,
        &device,
    );
    let sym = baselines::apply_symmetric(&m, &baselines::rcm(&m));
    let vertex = simulate_spmm_aspt(
        &AsptMatrix::build(&sym, &engine_config().reorder.aspt),
        None,
        k,
        &device,
    );
    let engine = Engine::prepare(&m, &engine_config()).unwrap();
    let rr = engine.simulate_spmm(k, &device);

    assert!(
        rr.time_s < vertex.time_s,
        "row reordering ({:.2e}s) must beat vertex reordering ({:.2e}s)",
        rr.time_s,
        vertex.time_s
    );
    assert!(
        rr.time_s < base.time_s,
        "row reordering must beat no reordering"
    );
}

#[test]
#[ignore = "Large-profile smoke test (~minutes); run with `cargo test -- --ignored`"]
fn large_corpus_smoke() {
    let corpus = Corpus::<f32>::generate(CorpusProfile::Large, 1);
    assert!(corpus.len() >= 30);
    // exercise the full pipeline on the largest recoverable matrix
    let entry = corpus
        .of_class(MatrixClass::ShuffledClustered)
        .max_by_key(|e| e.matrix.nnz())
        .expect("class present");
    let engine = Engine::prepare(&entry.matrix, &engine_config()).unwrap();
    assert!(engine.plan().round1_applied);
    let x = generators::random_dense::<f32>(entry.matrix.ncols(), 64, 3);
    let y = engine.spmm(&x).unwrap();
    assert!(y.all_finite());
    let report = engine.simulate_spmm(64, &DeviceConfig::p100());
    assert!(report.gflops > 0.0);
}

#[test]
fn preprocessing_scales_roughly_linearly() {
    // sanity on the O(N log N)-ish claim: 4x the rows should cost far
    // less than 16x the time (allow huge slack for timer noise)
    let small = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 1);
    let large = generators::shuffled_block_diagonal::<f64>(256, 16, 48, 16, 1);
    let cfg = engine_config();
    // warm up allocators
    let _ = Engine::prepare(&small, &cfg).unwrap();
    let t_small = Engine::prepare(&small, &cfg).unwrap().preprocessing_time();
    let t_large = Engine::prepare(&large, &cfg).unwrap().preprocessing_time();
    assert!(
        t_large < t_small * 64,
        "preprocessing blew up: {t_small:?} -> {t_large:?}"
    );
}
