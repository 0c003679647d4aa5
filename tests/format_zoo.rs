//! The format zoo end to end: lossless CSR ↔ SELL-C-σ ↔ CSB
//! round-trips, format-variant SpMM bit-compared against the row-wise
//! reference at both scalar widths, and a simulated format trial that
//! never regresses. The engine itself runs one layout: the plan-store
//! tests here pin that a plan round-trips without any format section,
//! that a version-3 file carrying one is rejected and replaced by a live
//! prepare, and that deltas and value updates keep the plan exact.

use proptest::prelude::*;
use spmm_rr::kernels::format::{MAX_FORMAT_PADDING, SELL_SLICE_HEIGHT};
use spmm_rr::kernels::spmm::spmm_rowwise_seq;
use spmm_rr::prelude::*;
use std::sync::Arc;

fn sparse_matrix<T: Scalar>(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix<T>> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(nrows, ncols)| {
        proptest::collection::vec((0..nrows as u32, 0..ncols as u32, -4.0f64..4.0), 0..max_nnz)
            .prop_map(move |entries| {
                let entries: Vec<(u32, u32, T)> = entries
                    .into_iter()
                    .map(|(r, c, v)| (r, c, T::from_f64(v)))
                    .collect();
                let coo = CooMatrix::from_entries(nrows, ncols, entries).unwrap();
                CsrMatrix::from_coo(&coo)
            })
    })
}

/// Every format-zoo choice buildable on a small matrix.
fn zoo_choices() -> Vec<FormatChoice> {
    vec![
        FormatChoice::SellCSigma {
            slice_height: 4,
            sigma: 0,
        },
        FormatChoice::SellCSigma {
            slice_height: 8,
            sigma: 16,
        },
        FormatChoice::Csb { beta: 8 },
        FormatChoice::Csb { beta: 32 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR → format → CSR is lossless for every zoo member, f64.
    #[test]
    fn zoo_roundtrips_are_lossless_f64(m in sparse_matrix::<f64>(40, 250)) {
        for choice in zoo_choices() {
            // a skewed random matrix can legitimately blow the SELL
            // padding cap — that is a skip, not a failure
            if let Ok(Some(p)) = FormatPayload::build(choice, &m) {
                prop_assert_eq!(p.to_csr(), m.clone());
                prop_assert_eq!(p.nnz(), m.nnz());
            }
        }
    }

    /// CSR → format → CSR is lossless for every zoo member, f32.
    #[test]
    fn zoo_roundtrips_are_lossless_f32(m in sparse_matrix::<f32>(32, 180)) {
        for choice in zoo_choices() {
            if let Ok(Some(p)) = FormatPayload::build(choice, &m) {
                prop_assert_eq!(p.to_csr(), m.clone());
            }
        }
    }

    /// Zoo SpMM kernels are bit-exact against the row-wise reference.
    #[test]
    fn zoo_spmm_is_bit_exact_vs_rowwise(
        m in sparse_matrix::<f64>(32, 200),
        k in 1usize..18,
    ) {
        let x = generators::random_dense::<f64>(m.ncols(), k, 97);
        let reference = spmm_rowwise_seq(&m, &x).unwrap();
        for choice in zoo_choices() {
            let Ok(Some(p)) = FormatPayload::build(choice, &m) else { continue };
            prop_assert_eq!(p.spmm(&x).unwrap().data(), reference.data());
        }
    }
}

/// The edge shapes the paper's row-regularized formats get wrong first:
/// all-empty rows, a single dense row, and a single-row matrix — at
/// both scalar widths.
#[test]
fn zoo_handles_degenerate_shapes_bit_exactly() {
    fn check<T: Scalar>(m: &CsrMatrix<T>, k: usize) {
        let x = generators::random_dense::<T>(m.ncols(), k, 5);
        let reference = spmm_rowwise_seq(m, &x).unwrap();
        for choice in zoo_choices() {
            let Ok(Some(p)) = FormatPayload::build(choice, m) else {
                continue;
            };
            assert_eq!(p.to_csr(), *m, "{choice} roundtrip");
            assert_eq!(p.spmm(&x).unwrap().data(), reference.data(), "{choice}");
        }
        // uncapped direct SELL layout — these shapes exceed the
        // autotuner's padding cap, but the kernel itself must still be
        // lossless and bit-exact on them
        let sell = SellPMatrix::from_csr(m, 4, 0);
        assert_eq!(sell.to_csr(), *m, "uncapped SELL roundtrip");
        assert_eq!(sell.spmm_par(&x).unwrap().data(), reference.data());
    }
    // empty rows interleaved with populated ones
    let coo = CooMatrix::from_entries(
        9,
        7,
        vec![
            (0u32, 1u32, 2.0f64),
            (0, 6, -1.5),
            (4, 0, 3.25),
            (8, 3, 0.5),
        ],
    )
    .unwrap();
    let gaps = CsrMatrix::from_coo(&coo);
    check(&gaps, 5);
    // a single-row matrix
    let row = CsrMatrix::<f64>::from_parts(1, 6, vec![0, 3], vec![0, 2, 5], vec![1.0, -2.0, 4.0])
        .unwrap();
    check(&row, 7);
    // all rows empty
    let empty = CsrMatrix::<f64>::from_parts(4, 4, vec![0; 5], vec![], vec![]).unwrap();
    check(&empty, 3);
    // f32 variant of the gappy case
    let coo32 = CooMatrix::from_entries(
        9,
        7,
        vec![
            (0u32, 1u32, 2.0f32),
            (0, 6, -1.5),
            (4, 0, 3.25),
            (8, 3, 0.5),
        ],
    )
    .unwrap();
    let gaps32 = CsrMatrix::from_coo(&coo32);
    let x32 = generators::random_dense::<f32>(7, 5, 11);
    let reference = spmm_rowwise_seq(&gaps32, &x32).unwrap();
    for choice in zoo_choices() {
        let Ok(Some(p)) = FormatPayload::build(choice, &gaps32) else {
            continue;
        };
        assert_eq!(p.spmm(&x32).unwrap().data(), reference.data(), "{choice}");
    }
}

/// The format trial never adopts a challenger that the simulated model
/// ranks at or below the incumbent, and hopeless candidates are counted
/// as skips rather than raced.
#[test]
fn format_trial_never_regresses_and_counts_skips() {
    let device = DeviceConfig::p100();
    let corpus = Corpus::<f32>::generate(CorpusProfile::Quick, 42);
    for cm in corpus.iter() {
        let engine = Engine::prepare(&cm.matrix, &EngineConfig::default()).unwrap();
        let (payload, trial) = choose_format(&engine, 96, &device);
        let chosen_time = trial
            .candidates
            .iter()
            .map(|(_, r)| r.time_s)
            .fold(trial.incumbent.time_s, f64::min);
        assert!(
            chosen_time <= trial.incumbent.time_s,
            "{}: chosen slower than incumbent",
            cm.name
        );
        match &payload {
            Some(p) => {
                assert_ne!(trial.chosen, FormatChoice::Csr);
                assert_eq!(p.choice(), trial.chosen);
                let winner = trial
                    .candidates
                    .iter()
                    .find(|(c, _)| *c == trial.chosen)
                    .expect("winner must be among the candidates");
                assert!(
                    winner.1.time_s < trial.incumbent.time_s,
                    "{}: adopting {} requires a strict win",
                    cm.name,
                    trial.chosen
                );
            }
            None => assert_eq!(trial.chosen, FormatChoice::Csr),
        }
        assert!(trial.speedup_vs_incumbent() >= 1.0);
    }

    // a matrix that blows the SELL padding cap on every sigma: one long
    // row among empties — all SELL candidates must be skipped, and the
    // telemetry counter must say so
    let nrows = 2 * SELL_SLICE_HEIGHT;
    let width = (MAX_FORMAT_PADDING as usize) * SELL_SLICE_HEIGHT * 4;
    let mut rowptr = vec![0usize; nrows + 1];
    for p in rowptr.iter_mut().skip(1) {
        *p = width;
    }
    let long = CsrMatrix::<f32>::from_parts(
        nrows,
        width,
        rowptr,
        (0..width as u32).collect(),
        vec![1.0; width],
    )
    .unwrap();
    let collector = Arc::new(Collector::new());
    let engine = Engine::prepare(
        &long,
        &EngineConfig::builder()
            .telemetry(TelemetryHandle::new(collector.clone()))
            .build(),
    )
    .unwrap();
    let (_, trial) = choose_format(&engine, 96, &device);
    assert!(trial.skipped > 0, "padding blowup must be skipped");
    let manifest = collector.manifest();
    let counted = manifest
        .counters
        .get("tune.format.skipped")
        .copied()
        .unwrap_or(0);
    assert!(
        counted >= u64::from(trial.skipped),
        "skips must be visible in telemetry ({counted} < {})",
        trial.skipped
    );
}

/// The `.spmmplan` codec round-trips a plan bit-exactly — same micro
/// width, zero preprocessing on load — and rejects every flipped byte
/// and every truncation rather than return a silently different plan.
#[test]
fn spmmplan_v3_roundtrip_and_back_compat() {
    let dir = std::env::temp_dir().join(format!("spmm-format-zoo-v3-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = PlanStore::open(&dir).unwrap();

    let m = generators::shuffled_block_diagonal::<f64>(96, 16, 64, 16, 3);
    let config = EngineConfig::builder().k_hint(64).build();
    let engine = Engine::prepare(&m, &config).unwrap();
    let fp = MatrixFingerprint::of(&m);
    store.save(&fp, &engine).unwrap();
    let loaded = store
        .load::<f64>(&fp, &TelemetryHandle::noop())
        .unwrap()
        .unwrap();
    assert_eq!(loaded.micro_width(), engine.micro_width());
    assert!(loaded.format_payload().is_none());
    assert!(loaded.preprocessing_time().is_zero());
    let x = generators::random_dense::<f64>(m.ncols(), 24, 9);
    assert_eq!(
        engine.spmm(&x).unwrap().data(),
        loaded.spmm(&x).unwrap().data(),
        "bit-exact through the codec"
    );

    // corruption: flipping any byte of the file makes the load reject
    // rather than return a silently different plan
    let path = store.path_for::<f64>(&fp);
    let pristine = std::fs::read(&path).unwrap();
    assert!(
        !pristine.windows(4).any(|w| w == b"FMTP"),
        "no format section"
    );
    let stride = (pristine.len() / 64).max(1);
    for pos in (0..pristine.len()).step_by(stride) {
        let mut bad = pristine.clone();
        bad[pos] ^= 0x20;
        std::fs::write(&path, &bad).unwrap();
        assert!(
            store.load::<f64>(&fp, &TelemetryHandle::noop()).is_err(),
            "flipped byte at {pos} must reject"
        );
    }
    // truncation at every section boundary and mid-section
    for cut in [10, 40, 57, 58, 100, pristine.len() / 2, pristine.len() - 1] {
        let mut bad = pristine.clone();
        bad.truncate(cut);
        std::fs::write(&path, &bad).unwrap();
        assert!(
            store.load::<f64>(&fp, &TelemetryHandle::noop()).is_err(),
            "truncation at {cut} must reject"
        );
    }
    std::fs::write(&path, &pristine).unwrap();
    assert!(store.verify::<f64>(&fp).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over 64-bit little-endian lanes, tail lane zero-padded: the
/// plan store's section checksum.
fn section_checksum(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, c| {
        let mut lane = [0u8; 8];
        lane[..c.len()].copy_from_slice(c);
        (h ^ u64::from_le_bytes(lane)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites a current plan file as the version-3 writer wrote it for a
/// plan whose format trial picked `sell`: version word 3 and a trailing
/// `FMTP` section holding the SELL-C-σ layout of the reordered matrix.
fn as_version3_with_sell(current: &[u8], sell: &SellPMatrix<f64>, sigma: usize) -> Vec<u8> {
    // a version-3 array: u64 length, then its little-endian elements
    fn array<const N: usize>(p: &mut Vec<u8>, items: impl ExactSizeIterator<Item = [u8; N]>) {
        p.extend_from_slice(&(items.len() as u64).to_le_bytes());
        items.for_each(|b| p.extend_from_slice(&b));
    }
    let mut payload = vec![1u8]; // format tag: SELL-C-σ
    payload.extend_from_slice(&(sell.slice_height() as u64).to_le_bytes());
    payload.extend_from_slice(&(sigma as u64).to_le_bytes());
    let widths = sell.slice_widths();
    array(
        &mut payload,
        widths.iter().map(|&w| (w as u64).to_le_bytes()),
    );
    array(&mut payload, sell.colidx().iter().map(|c| c.to_le_bytes()));
    array(
        &mut payload,
        sell.values().iter().map(|v| v.to_bits().to_le_bytes()),
    );
    array(
        &mut payload,
        sell.perm().order().iter().map(|o| o.to_le_bytes()),
    );

    let mut v3 = current.to_vec();
    v3[8..12].copy_from_slice(&3u32.to_le_bytes());
    v3.extend_from_slice(b"FMTP");
    v3.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    v3.extend_from_slice(&payload);
    v3.extend_from_slice(&section_checksum(&payload).to_le_bytes());
    v3
}

/// A version-3 file carrying a format payload is a store *reject*: the
/// serving layer degrades to a live prepare, the request still succeeds
/// with an exact answer, `serve.store.reject` records the event, and the
/// write-through replaces the file with one the next server loads warm.
#[test]
fn corrupt_v3_format_payload_degrades_to_live_prepare() {
    let dir = std::env::temp_dir().join(format!("spmm-format-zoo-reject-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(PlanStore::open(&dir).unwrap());

    // integer-grid operands: every execution path agrees bit for bit
    let mut m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 7);
    for v in m.values_mut() {
        *v = (*v * 8.0).round().clamp(-8.0, 8.0);
    }
    let mut x = generators::random_dense::<f64>(m.ncols(), 8, 15);
    for v in x.data_mut() {
        *v = (*v * 8.0).round().clamp(-8.0, 8.0);
    }
    let expected = spmm_rowwise_seq(&m, &x).unwrap();

    // seed the store with a version-3 file that carries a SELL-C-σ payload
    let engine = Engine::prepare(&m, &EngineConfig::default()).unwrap();
    let fp = MatrixFingerprint::of(&m);
    store.save(&fp, &engine).unwrap();
    let path = store.path_for::<f64>(&fp);
    let sell = SellPMatrix::from_csr(engine.reordered(), 16, 32);
    let v3 = as_version3_with_sell(&std::fs::read(&path).unwrap(), &sell, 32);
    std::fs::write(&path, &v3).unwrap();
    let err = store
        .load::<f64>(&fp, &TelemetryHandle::noop())
        .unwrap_err();
    assert!(err.to_string().contains("unsupported version 3"), "{err}");

    let serve_once = || {
        let serve = ServeEngine::<f64>::start(
            ServeConfig::builder()
                .workers(1)
                .plan_store(store.clone())
                .build()
                .unwrap(),
        );
        let resp = serve
            .execute(Request::spmm(Arc::new(m.clone()), Arc::new(x.clone())))
            .unwrap();
        match &resp.output {
            Output::Dense(got) => assert_eq!(got.data(), expected.data()),
            other => panic!("unexpected output {other:?}"),
        }
        let counter = |name: &str| serve.telemetry().counter_value(name);
        let counts = (counter("serve.store.reject"), counter("serve.store.warm"));
        serve.shutdown();
        (resp.path, counts)
    };
    // a fresh server reading through the store must reject the file,
    // prepare live and still answer exactly
    let (path_taken, (rejects, _)) = serve_once();
    assert_eq!(path_taken, ServePath::FreshPlan);
    assert!(
        rejects >= 1,
        "the version-3 file must be counted as a store reject"
    );
    // the write-through replaced it: the next server loads it warm
    assert!(!std::fs::read(&path)
        .unwrap()
        .windows(4)
        .any(|w| w == b"FMTP"));
    let (path_taken, (rejects, warm)) = serve_once();
    assert_eq!(path_taken, ServePath::CachedPlan);
    assert_eq!((rejects, warm), (0, 1));
    std::fs::remove_dir_all(&dir).ok();
}

/// `apply_delta` and `update_values` keep the plan's micro width and
/// stay bit-exact on integer-grid operands: the successor of either is
/// the same one-layout plan over the new values or structure.
#[test]
fn deltas_and_value_updates_preserve_the_format_exactly() {
    let mut m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 21);
    for v in m.values_mut() {
        *v = (*v * 4.0).round().clamp(-4.0, 4.0);
    }
    let config = EngineConfig::builder().k_hint(16).build();
    let mut engine = Engine::prepare(&m, &config).unwrap();
    assert_eq!(engine.micro_width(), Some(16));

    let mut x = generators::random_dense::<f64>(m.ncols(), 20, 33);
    for v in x.data_mut() {
        *v = (*v * 4.0).round().clamp(-4.0, 4.0);
    }

    // update_values: same structure, fresh values, width kept
    let new_values: Vec<f64> = m.values().iter().map(|v| v + 1.0).collect();
    engine.update_values(&new_values);
    assert_eq!(engine.micro_width(), Some(16));
    let mut m2 = m.clone();
    m2.values_mut().copy_from_slice(&new_values);
    assert_eq!(
        engine.spmm(&x).unwrap().data(),
        spmm_rowwise_seq(&m2, &x).unwrap().data(),
        "update_values must refresh the tiles"
    );

    // apply_delta: the successor keeps the width over the new structure
    let next = engine
        .apply_delta(&[(0, 40, 2.0), (5, 41, -3.0)], &[])
        .unwrap();
    assert_eq!(next.micro_width(), Some(16), "delta keeps the micro width");
    let delta_m = next.source_matrix();
    assert_eq!(
        next.spmm(&x).unwrap().data(),
        spmm_rowwise_seq(&delta_m, &x).unwrap().data(),
        "post-delta answers stay exact"
    );
}
