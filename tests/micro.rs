//! Microkernel property suite: the monomorphized `[T; KB]` bodies must
//! be bit-identical to the kernels they specialize, for every
//! specialized width, both scalar types, and every corpus shape class
//! that stresses a different path — dense-tile-heavy, remainder-heavy,
//! panels with no nonzeros at all, and operand widths that leave a
//! partial trailing block.
//!
//! Two bit-equality bars, matching the kernels' contracts:
//!
//! * `spmm_aspt_kblocked_auto` ≡ `spmm_aspt` ≡ `spmm_aspt_kblocked` —
//!   ASpT kernels accumulate tiles before the remainder, so their bar
//!   is the ASpT family itself, not the CSR-ordered reference;
//! * `Engine::spmm` ≡ `spmm_rowwise_seq` on integer-valued operands,
//!   where every summation order is exact — whatever micro width the
//!   plan carries.

use proptest::prelude::*;
use spmm_rr::kernels::autotune::choose_micro_width;
use spmm_rr::kernels::spmm::spmm_aspt_kblocked;
use spmm_rr::kernels::widest_micro_width;
use spmm_rr::prelude::*;

/// Raw IEEE-754 bits of every element, so comparisons catch sign-of-zero
/// and NaN-payload drift that `==` on floats would wave through.
fn bits<T: Scalar>(m: &DenseMatrix<T>) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits64()).collect()
}

/// The shape classes the microkernels must survive: each returns a
/// labeled f64 matrix; `cast` converts per scalar type via `from_f64`.
fn shape_classes() -> Vec<(&'static str, CsrMatrix<f64>)> {
    // dense-tile-heavy: clustered blocks produce many staged tiles
    let dense_heavy = generators::block_diagonal::<f64>(6, 24, 40, 12, 31);
    // remainder-heavy: scattered uniform nonzeros rarely form tiles
    let remainder_heavy = generators::uniform_random::<f64>(96, 80, 3, 37);
    // empty panels: nonzeros only in the first and last few rows, so
    // every panel in between holds nothing at all
    let empty_panels = {
        let mut entries = Vec::new();
        for r in 0..6u32 {
            for c in 0..5u32 {
                entries.push((r, (c * 7) % 40, (r + c) as f64 * 0.5 - 1.0));
            }
        }
        for r in 58..64u32 {
            entries.push((r, r % 40, f64::from(r) * 0.25));
        }
        let coo = CooMatrix::from_entries(64, 40, entries).unwrap();
        CsrMatrix::from_coo(&coo)
    };
    vec![
        ("dense-tile-heavy", dense_heavy),
        ("remainder-heavy", remainder_heavy),
        ("empty-panels", empty_panels),
    ]
}

fn cast<T: Scalar>(m: &CsrMatrix<f64>) -> CsrMatrix<T> {
    let values = m.values().iter().map(|&v| T::from_f64(v)).collect();
    CsrMatrix::from_parts(
        m.nrows(),
        m.ncols(),
        m.rowptr().to_vec(),
        m.colidx().to_vec(),
        values,
    )
    .unwrap()
}

/// The full cross product for one scalar type: every specialized width,
/// every shape class, and k values that land exactly on, above and off
/// the block boundary (k = 37 leaves a 5-wide trailing block at KB = 8,
/// a 5-wide one at 16 and a 5-wide one at 32; k = KB exercises a single
/// full block; k = KB + 1 a one-column remainder).
fn check_all_widths<T: Scalar>(seed: u64) {
    for (label, m64) in shape_classes() {
        let m = cast::<T>(&m64);
        let aspt = AsptMatrix::build(&m, &AsptConfig::default());
        for &kb in MICRO_WIDTHS.iter() {
            for k in [kb, kb + 1, 37] {
                let x = generators::random_dense::<T>(m.ncols(), k, seed ^ (k as u64));
                let aspt_ref = spmm_aspt(&aspt, &x).unwrap();
                let aspt_generic = spmm_aspt_kblocked(&aspt, &x, kb).unwrap();
                let aspt_micro = spmm_aspt_kblocked_auto(&aspt, &x, kb).unwrap();
                assert_eq!(
                    bits(&aspt_generic),
                    bits(&aspt_ref),
                    "generic aspt kb={kb} k={k} diverged on {label}"
                );
                assert_eq!(
                    bits(&aspt_micro),
                    bits(&aspt_ref),
                    "aspt micro kb={kb} k={k} diverged on {label}"
                );
            }
        }
    }
}

#[test]
fn every_width_is_bit_identical_in_f32() {
    check_all_widths::<f32>(101);
}

#[test]
fn every_width_is_bit_identical_in_f64() {
    check_all_widths::<f64>(202);
}

/// Engine-level contract: `Engine::spmm` sweeps `k` in blocks of the
/// plan's micro width, and no width — none, or any specialized one,
/// dividing `k` or not, `k = 0` included — changes a single output
/// bit. Operands sit on an integer grid so the sequential reference is
/// exact whatever order the tiles accumulate in.
#[test]
fn engine_kblocked_execution_is_width_invariant() {
    let quantize = |v: &mut [f32]| v.iter_mut().for_each(|x| *x = (*x * 8.0).round());
    let mut m = generators::shuffled_block_diagonal::<f32>(64, 16, 48, 16, 43);
    quantize(m.values_mut());
    let mut engine = Engine::prepare(&m, &EngineConfig::default()).unwrap();
    assert!(
        engine.plan().needs_reordering(),
        "the row map must be exercised"
    );
    for k in [0usize, 1, 7, 8, 20, 48] {
        let mut x = generators::random_dense::<f32>(m.ncols(), k, 47 ^ k as u64);
        quantize(x.data_mut());
        let reference = bits(&spmm_rowwise_seq(&m, &x).unwrap());
        for width in [None, Some(8), Some(16), Some(32)] {
            engine.set_micro_width(width);
            let y = engine.spmm(&x).unwrap();
            assert_eq!((y.nrows(), y.ncols()), (m.nrows(), k));
            assert_eq!(bits(&y), reference, "micro width {width:?} at k = {k}");
        }
    }
}

/// The plan's width is a rule of its `k_hint`, and the rule is exactly
/// what the gpu-sim trial picks: on every Quick-corpus matrix, at every
/// width that lands on, between and past the specialized widths.
#[test]
fn micro_width_rule_matches_the_simulated_trial() {
    let device = DeviceConfig::p100();
    let ks = [0usize, 1, 8, 12, 16, 24, 32, 48, 64, 128, 256];
    let corpus = Corpus::<f32>::generate(CorpusProfile::Quick, 42);
    for cm in corpus.iter() {
        let engine = Engine::prepare(&cm.matrix, &EngineConfig::default()).unwrap();
        for k in ks {
            assert_eq!(
                widest_micro_width(k),
                choose_micro_width(&engine, k, &device),
                "{} at k = {k}",
                cm.name
            );
        }
    }
    let m = generators::shuffled_block_diagonal::<f32>(32, 8, 24, 8, 61);
    for k in ks {
        let config = EngineConfig::builder().k_hint(k).build();
        let engine = Engine::prepare(&m, &config).unwrap();
        assert_eq!(engine.micro_width(), widest_micro_width(k), "k_hint {k}");
    }
}

/// The `.spmmplan` round trip carries the plan's width: a warm start
/// restores it without a prepare and serves bit-identical answers
/// through the specialized path.
#[test]
fn stored_plans_round_trip_the_micro_width() {
    let dir = std::env::temp_dir().join(format!("spmm-micro-roundtrip-{}", std::process::id()));
    let store = PlanStore::open(&dir).unwrap();
    let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 53);
    let config = EngineConfig::builder().k_hint(96).build();
    let engine = Engine::prepare(&m, &config).unwrap();
    let width = engine.micro_width();
    assert!(width.is_some());
    let fp = MatrixFingerprint::of(&m);
    store.save(&fp, &engine).unwrap();
    let loaded = store
        .load::<f64>(&fp, &TelemetryHandle::noop())
        .unwrap()
        .unwrap();
    assert_eq!(loaded.micro_width(), width);
    assert!(loaded.preprocessing_time().is_zero());
    let x = generators::random_dense::<f64>(m.ncols(), 96, 59);
    assert_eq!(
        bits(&engine.spmm(&x).unwrap()),
        bits(&loaded.spmm(&x).unwrap())
    );
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized sweep: arbitrary sparse structure, arbitrary operand
    /// width, every specialized block width — the auto dispatchers stay
    /// bit-identical to their generic counterparts.
    #[test]
    fn micro_dispatch_matches_generic_on_random_matrices(
        entries in proptest::collection::vec(
            (0..48u32, 0..40u32, -4.0f64..4.0), 0..300),
        k in 1usize..70,
        width_idx in 0usize..3,
    ) {
        let coo = CooMatrix::from_entries(48, 40, entries).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        let kb = MICRO_WIDTHS[width_idx];
        let x = generators::random_dense::<f64>(m.ncols(), k, 7);
        let aspt = AsptMatrix::build(&m, &AsptConfig::default());
        let generic = spmm_aspt_kblocked(&aspt, &x, kb).unwrap();
        let micro = spmm_aspt_kblocked_auto(&aspt, &x, kb).unwrap();
        prop_assert_eq!(bits(&micro), bits(&generic));
    }
}
