//! Property-based tests over the core invariants.

use proptest::prelude::*;
use spmm_rr::kernels::sddmm::sddmm_rowwise_seq;
use spmm_rr::kernels::spmm::{spmm_aspt, spmm_rowwise_par, spmm_rowwise_seq};
use spmm_rr::lsh::{generate_candidates, CandidatePair, LshConfig, MinHasher};
use spmm_rr::prelude::*;
use spmm_rr::reorder::cluster_rows;

/// Strategy: a random sparse matrix as a set of (row, col) pairs with
/// values in a well-conditioned range.
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(nrows, ncols)| {
        proptest::collection::vec((0..nrows as u32, 0..ncols as u32, -4.0f64..4.0), 0..max_nnz)
            .prop_map(move |entries| {
                let coo = CooMatrix::from_entries(nrows, ncols, entries).unwrap();
                CsrMatrix::from_coo(&coo)
            })
    })
}

fn aspt_configs() -> impl Strategy<Value = AsptConfig> {
    (1usize..12, 2usize..4, 1usize..6).prop_map(|(panel_height, min_col_nnz, tile_width)| {
        AsptConfig {
            panel_height,
            min_col_nnz,
            tile_width,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_coo_roundtrip(m in sparse_matrix(40, 200)) {
        let rt = CsrMatrix::from_coo(&m.to_coo());
        prop_assert_eq!(&rt, &m);
    }

    #[test]
    fn csr_dense_roundtrip(m in sparse_matrix(24, 120)) {
        prop_assert_eq!(&CsrMatrix::from_dense(&m.to_dense()), &m);
    }

    #[test]
    fn transpose_is_involutive(m in sparse_matrix(40, 200)) {
        prop_assert_eq!(&m.transpose().transpose(), &m);
    }

    #[test]
    fn aspt_decomposition_is_lossless(
        m in sparse_matrix(40, 250),
        cfg in aspt_configs(),
    ) {
        let aspt = AsptMatrix::build(&m, &cfg);
        prop_assert_eq!(aspt.nnz_dense() + aspt.remainder().nnz(), m.nnz());
        prop_assert_eq!(&aspt.to_csr(), &m);
        prop_assert!(aspt.dense_ratio() >= 0.0 && aspt.dense_ratio() <= 1.0);
    }

    #[test]
    fn spmm_variants_agree(
        m in sparse_matrix(32, 160),
        cfg in aspt_configs(),
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let x = generators::random_dense::<f64>(m.ncols(), k, seed);
        let reference = spmm_rowwise_seq(&m, &x).unwrap();
        let par = spmm_rowwise_par(&m, &x).unwrap();
        prop_assert!(reference.max_abs_diff(&par) < 1e-10);
        let tiled = spmm_aspt(&AsptMatrix::build(&m, &cfg), &x).unwrap();
        prop_assert!(reference.max_abs_diff(&tiled) < 1e-10);
    }

    #[test]
    fn sddmm_variants_agree(
        m in sparse_matrix(32, 160),
        cfg in aspt_configs(),
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let x = generators::random_dense::<f64>(m.ncols(), k, seed);
        let y = generators::random_dense::<f64>(m.nrows(), k, seed ^ 1);
        let reference = sddmm_rowwise_seq(&m, &x, &y).unwrap();
        let config = EngineConfig::builder()
            .reorder(ReorderConfig::builder().aspt(cfg).build())
            .build();
        let tiled = Engine::prepare(&m, &config).unwrap().sddmm(&x, &y).unwrap();
        prop_assert_eq!(reference.len(), tiled.len());
        for (a, b) in reference.iter().zip(&tiled) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn spmm_is_permutation_equivariant(
        m in sparse_matrix(24, 120),
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        // permuting the rows of S permutes the rows of Y identically
        let x = generators::random_dense::<f64>(m.ncols(), k, seed);
        let order: Vec<u32> = {
            // seed-derived deterministic shuffle
            let mut v: Vec<u32> = (0..m.nrows() as u32).collect();
            let n = v.len();
            for i in (1..n).rev() {
                let j = (seed as usize).wrapping_mul(6364136223846793005).wrapping_add(i) % (i + 1);
                v.swap(i, j);
            }
            v
        };
        let perm = Permutation::from_order(order).unwrap();
        let y = spmm_rowwise_seq(&m, &x).unwrap();
        let yp = spmm_rowwise_seq(&m.permute_rows(&perm), &x).unwrap();
        for new in 0..m.nrows() {
            let old = perm.old_of(new) as usize;
            for c in 0..k {
                prop_assert!((y.get(old, c) - yp.get(new, c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn engine_output_in_original_order(
        m in sparse_matrix(32, 200),
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        let cfg = EngineConfig::builder()
            .reorder(
                ReorderConfig::builder()
                    .aspt(AsptConfig { panel_height: 4, min_col_nnz: 2, tile_width: 4 })
                    .policy(ReorderPolicy::always())
                    .build(),
            )
            .build();
        let engine = Engine::prepare(&m, &cfg).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), k, seed);
        let expected = spmm_rowwise_seq(&m, &x).unwrap();
        prop_assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);

        let yd = generators::random_dense::<f64>(m.nrows(), k, seed ^ 3);
        let e2 = sddmm_rowwise_seq(&m, &x, &yd).unwrap();
        let g2 = engine.sddmm(&x, &yd).unwrap();
        for (a, b) in e2.iter().zip(&g2) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn clustering_always_emits_a_permutation(
        m in sparse_matrix(30, 150),
        pair_seeds in proptest::collection::vec((0u32..30, 0u32..30, 0.0f64..1.0), 0..40),
        threshold in 2usize..10,
    ) {
        let n = m.nrows() as u32;
        let pairs: Vec<CandidatePair> = pair_seeds
            .into_iter()
            .filter(|&(i, j, _)| i < n && j < n && i != j)
            .map(|(i, j, similarity)| CandidatePair { i, j, similarity })
            .collect();
        let (perm, stats) = cluster_rows(&m, &pairs, threshold);
        prop_assert_eq!(perm.len(), m.nrows());
        prop_assert!(stats.merges <= m.nrows());
    }

    #[test]
    fn minhash_estimate_brackets_jaccard(
        cols_a in proptest::collection::btree_set(0u32..200, 1..40),
        cols_b in proptest::collection::btree_set(0u32..200, 1..40),
    ) {
        let a: Vec<u32> = cols_a.into_iter().collect();
        let b: Vec<u32> = cols_b.into_iter().collect();
        let exact = spmm_rr::sparse::similarity::jaccard(&a, &b);
        let hasher = MinHasher::new(512, 42);
        let sa = hasher.signature(&a);
        let sb = hasher.signature(&b);
        let agree = sa.iter().zip(&sb).filter(|(x, y)| x == y).count();
        let est = agree as f64 / 512.0;
        // 512 components: 6-sigma band ≈ 0.133
        prop_assert!((est - exact).abs() < 0.15, "est {est} exact {exact}");
    }

    #[test]
    fn lsh_candidates_are_valid_and_positive(
        m in sparse_matrix(40, 200),
    ) {
        let pairs = generate_candidates(&m, &LshConfig::default());
        for p in &pairs {
            prop_assert!(p.i < p.j);
            prop_assert!((p.j as usize) < m.nrows());
            prop_assert!(p.similarity > 0.0 && p.similarity <= 1.0);
            let exact = spmm_rr::sparse::similarity::jaccard(
                m.row_cols(p.i as usize),
                m.row_cols(p.j as usize),
            );
            prop_assert_eq!(p.similarity, exact);
        }
    }

    #[test]
    fn permutation_inverse_roundtrip(order_seed in 0u64..10_000, n in 1usize..200) {
        let mut v: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (order_seed as usize).wrapping_mul(0x9e3779b9).wrapping_add(i * 7) % (i + 1);
            v.swap(i, j);
        }
        let p = Permutation::from_order(v).unwrap();
        prop_assert_eq!(p.inverse().inverse(), p.clone());
        let data: Vec<usize> = (0..n).collect();
        let there = p.apply_to_slice(&data);
        let back = p.inverse().apply_to_slice(&there);
        prop_assert_eq!(back, data);
    }

    #[test]
    fn simulator_conservation_laws(
        m in sparse_matrix(48, 300),
        k in 1usize..6,
    ) {
        // X-row reads equal nnz for the row-wise kernel; flops are
        // exactly 2·nnz·K; dram ≥ miss bytes.
        let k = k * 8; // keep rows at least 32 B
        let device = DeviceConfig::p100();
        let r = simulate_spmm_rowwise(&m, k, &device);
        prop_assert_eq!(r.traffic.x_row_reads, m.nnz() as u64);
        prop_assert_eq!(r.flops, 2 * m.nnz() as u64 * k as u64);
        prop_assert!(r.traffic.dram_bytes >= r.traffic.l2_misses * 128);
        prop_assert!(r.traffic.l2_hit_rate() <= 1.0);
    }
}
