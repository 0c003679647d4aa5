//! The one traffic driver behind `serve-bench` and `chaos-bench`.
//!
//! It covers a corpus of structures with quantized operands, starts one
//! [`ServeEngine`], drives a closed-loop Zipf stream over an op mix —
//! checking every success bit for bit against the sequential reference
//! when asked — runs a structural-delta mutator alongside the stream,
//! and reads the latency and counter snapshots. [`run_serve_bench`] and
//! [`run_chaos_bench`] are presets of it.
//!
//! Every operand is quantized onto a small integer grid, so each
//! product and partial sum of SpMM, SpMV, SDDMM and SpGEMM is exactly
//! representable and summation order cannot change a result: the tiled
//! kernels, the fused batch pass, the row-wise fallbacks and the
//! sequential references must all agree bit for bit.
//!
//! [`run_serve_bench`]: crate::run_serve_bench
//! [`run_chaos_bench`]: crate::run_chaos_bench

use crate::engine::{Request, ServeEngine};
use crate::fingerprint::MatrixFingerprint;
use rand::rngs::SmallRng;
use rand::Rng;
use spmm_data::generators;
use spmm_kernels::{sddmm, spgemm, spmm, spmv, Output};
use spmm_sparse::{CsrMatrix, DenseMatrix, Scalar};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request's kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Spmm,
    Spmv,
    Sddmm,
    Spgemm,
}

/// Quantizes values onto the integer grid `{-8, …, 8}` (see the module
/// docs for why).
pub(crate) fn quantize<T: Scalar>(values: &mut [T]) {
    for v in values {
        *v = T::from_f64((v.to_f64() * 8.0).round().clamp(-8.0, 8.0));
    }
}

/// A structural delta: added `(row, col, value)` and removed
/// `(row, col)` edges.
pub(crate) type Delta<T> = (Vec<(usize, usize, T)>, Vec<(usize, usize)>);

/// A deterministic structural delta on `m`: `edges` existing edges
/// removed, evenly spaced through the nonzeros from a `seed`-chosen
/// start (so the churn spreads over several row panels), and up to
/// `edges` previously absent edges added with integer-grid values, one
/// per row from a `seed`-chosen row.
pub(crate) fn structural_delta<T: Scalar>(m: &CsrMatrix<T>, edges: usize, seed: u64) -> Delta<T> {
    let step = (m.nnz() / edges.max(1)).max(1);
    let first = (seed % step as u64) as usize;
    let mut removed = Vec::with_capacity(edges);
    let mut edge = 0usize;
    'rows: for r in 0..m.nrows() {
        for &c in m.row_cols(r) {
            if edge >= first && (edge - first).is_multiple_of(step) {
                removed.push((r, c as usize));
                if removed.len() == edges {
                    break 'rows;
                }
            }
            edge += 1;
        }
    }
    let mut used: HashSet<(usize, usize)> = removed.iter().copied().collect();
    let mut added = Vec::with_capacity(edges);
    let nrows = m.nrows().max(1);
    let mut r = (seed % nrows as u64) as usize;
    for _ in 0..2 * nrows {
        if added.len() == edges {
            break;
        }
        let cols = m.row_cols(r);
        let fresh = (0..m.ncols() as u32)
            .find(|c| cols.binary_search(c).is_err() && !used.contains(&(r, *c as usize)));
        if let Some(c) = fresh {
            used.insert((r, c as usize));
            added.push((r, c as usize, T::from_f64((added.len() % 9) as f64 - 4.0)));
        }
        r = (r + 1) % nrows;
    }
    (added, removed)
}

/// The sequential references a checked case compares answers against.
struct Expected<T> {
    spmm: DenseMatrix<T>,
    spmv: Vec<T>,
    sddmm: Vec<T>,
    spgemm: CsrMatrix<T>,
}

/// One structure of the stream's corpus with quantized operands for
/// every op.
pub(crate) struct Case<T> {
    pub(crate) matrix: Arc<CsrMatrix<T>>,
    /// SpMM / SDDMM column-side operand (`ncols × k`).
    pub(crate) x: Arc<DenseMatrix<T>>,
    /// SDDMM row-side operand (`nrows × k`).
    pub(crate) y: Arc<DenseMatrix<T>>,
    /// SpMV vector (`ncols`).
    pub(crate) v: Arc<Vec<T>>,
    /// SpGEMM right-hand side (`ncols` rows).
    pub(crate) b: Arc<CsrMatrix<T>>,
    /// Present when the case was built checked.
    expected: Option<Expected<T>>,
}

impl<T: Scalar> Case<T> {
    /// Quantizes `matrix` and draws the operands of structure `i`,
    /// computing the references when `checked`.
    pub(crate) fn new(
        mut matrix: CsrMatrix<T>,
        i: u64,
        k: usize,
        seed: u64,
        checked: bool,
    ) -> Self {
        let dense = |rows: usize, cols: usize, salt: u64| {
            let mut d = generators::random_dense::<T>(rows, cols, seed ^ (salt + i));
            quantize(d.data_mut());
            d
        };
        quantize(matrix.values_mut());
        let x = Arc::new(dense(matrix.ncols(), k, 17));
        let y = Arc::new(dense(matrix.nrows(), k, 31));
        let v = Arc::new(dense(matrix.ncols(), 1, 47).data().to_vec());
        let slot = i as usize % 8;
        let mut b = generators::uniform_random::<T>(
            matrix.ncols(),
            40 + 8 * slot,
            3 + slot % 2,
            seed ^ (0xBEEF + i),
        );
        quantize(b.values_mut());
        Case::with_operands(matrix, x, y, v, Arc::new(b), checked)
    }

    fn with_operands(
        matrix: CsrMatrix<T>,
        x: Arc<DenseMatrix<T>>,
        y: Arc<DenseMatrix<T>>,
        v: Arc<Vec<T>>,
        b: Arc<CsrMatrix<T>>,
        checked: bool,
    ) -> Self {
        let expected = checked
            .then(|| {
                Some(Expected {
                    spmm: spmm::spmm_rowwise_seq(&matrix, &x).ok()?,
                    spmv: spmv::spmv_rowwise_seq(&matrix, &v).ok()?,
                    sddmm: sddmm::sddmm_rowwise_seq(&matrix, &x, &y).ok()?,
                    spgemm: spgemm::spgemm_gustavson_seq(&matrix, &b).ok()?,
                })
            })
            .flatten();
        Case {
            matrix: Arc::new(matrix),
            x,
            y,
            v,
            b,
            expected,
        }
    }

    /// The same operands over another structure of the same shape.
    fn with_matrix(&self, matrix: CsrMatrix<T>) -> Self {
        let (x, y, v, b) = (&self.x, &self.y, &self.v, &self.b);
        let checked = self.expected.is_some();
        Case::with_operands(matrix, x.clone(), y.clone(), v.clone(), b.clone(), checked)
    }

    pub(crate) fn request(&self, op: Op) -> Request<T> {
        let m = self.matrix.clone();
        match op {
            Op::Spmm => Request::spmm(m, self.x.clone()),
            Op::Spmv => Request::spmv(m, self.v.clone()),
            Op::Sddmm => Request::sddmm(m, self.x.clone(), self.y.clone()),
            Op::Spgemm => Request::spgemm(m, self.b.clone()),
        }
    }

    /// Whether `output` is bit-equal to the sequential reference
    /// (always false for an unchecked case).
    pub(crate) fn is_exact(&self, op: Op, output: &Output<T>) -> bool {
        let Some(e) = &self.expected else {
            return false;
        };
        match (op, output) {
            (Op::Spmm, Output::Dense(got)) => got.data() == e.spmm.data(),
            (Op::Spmv, Output::Vector(got)) => *got == e.spmv,
            (Op::Sddmm, Output::Values(got)) => *got == e.sddmm,
            (Op::Spgemm, Output::Sparse(got)) => {
                got.same_structure(&e.spgemm) && got.values() == e.spgemm.values()
            }
            _ => false,
        }
    }
}

/// Covers `matrices` with quantized operands of width `k`.
pub(crate) fn cover<T: Scalar>(
    matrices: impl IntoIterator<Item = CsrMatrix<T>>,
    k: usize,
    seed: u64,
    checked: bool,
) -> Vec<Case<T>> {
    matrices
        .into_iter()
        .zip(0u64..)
        .map(|(m, i)| Case::new(m, i, k, seed, checked))
        .collect()
}

/// Draws `n` Zipf-distributed corpus indices: index `i` with weight
/// `1/(i+1)^s`.
pub(crate) fn zipf_schedule(n: usize, population: usize, s: f64, rng: &mut SmallRng) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(population);
    let mut acc = 0.0;
    for i in 0..population {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u: f64 = rng.random::<f64>() * acc;
            cdf.partition_point(|&c| c <= u).min(population - 1)
        })
        .collect()
}

/// Nearest-rank percentile (ceil convention): the smallest sample such
/// that at least `⌈q·n⌉` samples are ≤ it. The rank is 1-based and
/// clamped into the sample range, so `q=0` returns the minimum and
/// `q=1` the maximum.
pub(crate) fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1].as_secs_f64() * 1e3
}

/// Structural-delta epochs over one structure, applied live by the
/// stream's mutator. `epochs[0]` is the base case and `deltas[e]`
/// turns `epochs[e]` into `epochs[e + 1]`; a structural delta never
/// changes the shape, so every epoch shares the base operands.
pub(crate) struct DeltaChain<T> {
    epochs: Vec<Case<T>>,
    deltas: Vec<Delta<T>>,
    /// The latest committed epoch. Clients send it and check against
    /// its reference, so it only has to be monotonic.
    committed: AtomicUsize,
    /// Delta attempts that resolved to an error, injected or real.
    failed: AtomicUsize,
}

impl<T: Scalar> DeltaChain<T> {
    /// Chains `epochs` one-edge deltas on `base`.
    pub(crate) fn new(base: &Case<T>, epochs: usize) -> Self {
        let mut chain = vec![base.with_matrix(CsrMatrix::clone(&base.matrix))];
        let mut deltas = Vec::with_capacity(epochs);
        for e in 0..epochs {
            let prev = &chain[e].matrix;
            let delta = structural_delta(prev, 1, e as u64);
            let Ok(next) = prev.apply_structural_delta(&delta.0, &delta.1) else {
                break;
            };
            chain.push(base.with_matrix(next));
            deltas.push(delta);
        }
        DeltaChain {
            epochs: chain,
            deltas,
            committed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    /// Epochs committed so far (each commit advances one epoch).
    pub(crate) fn committed(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    pub(crate) fn failed(&self) -> usize {
        self.failed.load(Ordering::Relaxed)
    }

    /// The latest committed epoch's case.
    pub(crate) fn current(&self) -> &Case<T> {
        &self.epochs[self.committed()]
    }

    /// Applies every delta in order through `engine`, retrying each
    /// until it commits. A persistent fault can pin the chain on the
    /// old epoch: after 32 attempts the mutator stops honestly.
    fn mutate(&self, engine: &ServeEngine<T>) {
        for (e, (added, removed)) in self.deltas.iter().enumerate() {
            let fp = MatrixFingerprint::of(&self.epochs[e].matrix);
            let mut attempts = 0;
            loop {
                attempts += 1;
                match engine.apply_delta(&fp, added, removed) {
                    Ok(Some(_)) => {
                        self.committed.store(e + 1, Ordering::Release);
                        break;
                    }
                    // the old epoch must still serve, which the
                    // concurrent clients are verifying right now
                    Err(_) => {
                        self.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(None) => {}
                }
                // no resident plan (cold or evicted), or one the delta
                // cannot claim (a failed prepare in backoff): one
                // request through the serving path (re)prepares it
                // before the retry
                let _ = engine.execute(self.epochs[e].request(Op::Spmm));
                if attempts >= 32 {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            // let some traffic land on the new epoch before the next
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// What a stream observed.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Submit-to-response latency of every success.
    pub(crate) latencies: Vec<Duration>,
    pub(crate) ok: usize,
    /// Rejected submissions and error responses.
    pub(crate) failed: usize,
    /// Successes bit-equal to their reference (checked cases only).
    pub(crate) exact: usize,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.latencies.extend(other.latencies);
        self.ok += other.ok;
        self.failed += other.failed;
        self.exact += other.exact;
    }

    /// Successes per second over `wall`.
    pub(crate) fn throughput_rps(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            return 0.0;
        }
        self.latencies.len() as f64 / wall.as_secs_f64()
    }
}

/// A closed-loop request stream: `schedule[idx]` picks the structure of
/// request `idx`, `mix[idx % mix.len()]` its op.
pub(crate) struct Stream<'a, T> {
    pub(crate) cases: &'a [Case<T>],
    pub(crate) schedule: &'a [usize],
    pub(crate) mix: &'a [Op],
    pub(crate) deadline: Option<Duration>,
    pub(crate) concurrency: usize,
    /// Live structural deltas over `cases[0]`.
    pub(crate) deltas: Option<&'a DeltaChain<T>>,
}

impl<T: Scalar> Stream<'_, T> {
    /// Drives the whole schedule through `engine` with `concurrency`
    /// clients, client `c` walking the indices `≡ c` modulo
    /// `concurrency` in order, and the delta mutator alongside when set.
    pub(crate) fn run(&self, engine: &ServeEngine<T>) -> Tally {
        let clients = self.concurrency.max(1);
        std::thread::scope(|scope| {
            if let Some(chain) = self.deltas {
                scope.spawn(move || chain.mutate(engine));
            }
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        for idx in (client..self.schedule.len()).step_by(clients) {
                            let case = match (self.schedule[idx], self.deltas) {
                                // the mutating structure: whatever the
                                // mutator does next, the plan must answer
                                // for the epoch this request carries
                                (0, Some(chain)) => chain.current(),
                                (mi, _) => &self.cases[mi],
                            };
                            let op = self.mix[idx % self.mix.len()];
                            let mut request = case.request(op);
                            if let Some(deadline) = self.deadline {
                                request = request.deadline(deadline);
                            }
                            let submitted = Instant::now();
                            match engine.execute(request) {
                                Ok(resp) => {
                                    tally.latencies.push(submitted.elapsed());
                                    tally.ok += 1;
                                    tally.exact += usize::from(case.is_exact(op, &resp.output));
                                }
                                Err(_) => tally.failed += 1,
                            }
                        }
                        tally
                    })
                })
                .collect();
            let mut total = Tally::default();
            // a panicked client counts nothing; its requests are still
            // in the engine counters, and the totals then fail the
            // `ok + failed == requests` accounting
            for handle in handles {
                total.merge(handle.join().unwrap_or_default());
            }
            total
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn quantize_lands_on_the_integer_grid() {
        let mut values: Vec<f64> = vec![0.13, -0.99, 0.51, 1.7, -3.0];
        quantize(&mut values);
        for v in &values {
            assert_eq!(v.fract(), 0.0, "{v} is not an integer");
            assert!((-8.0..=8.0).contains(v));
        }
    }

    #[test]
    fn zipf_schedule_is_skewed_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        let schedule = zipf_schedule(2000, 10, 1.2, &mut rng);
        assert!(schedule.iter().all(|&i| i < 10));
        let head = schedule.iter().filter(|&&i| i == 0).count();
        let tail = schedule.iter().filter(|&&i| i == 9).count();
        assert!(
            head > tail * 3,
            "head {head} should dominate tail {tail} at s=1.2"
        );
    }

    #[test]
    fn percentiles_follow_the_nearest_rank_convention_exactly() {
        // n = 1: every quantile is the lone sample
        let one = [Duration::from_millis(7)];
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_ms(&one, q), 7.0, "q={q}");
        }

        // n = 10, samples 1..=10 ms: rank = ⌈10q⌉ clamped to [1, 10]
        let ten: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&ten, 0.0), 1.0);
        assert_eq!(percentile_ms(&ten, 0.10), 1.0);
        assert_eq!(percentile_ms(&ten, 0.50), 5.0);
        assert_eq!(percentile_ms(&ten, 0.51), 6.0);
        assert_eq!(percentile_ms(&ten, 0.90), 9.0);
        assert_eq!(percentile_ms(&ten, 0.99), 10.0);
        assert_eq!(percentile_ms(&ten, 1.0), 10.0);

        // n = 100, samples 1..=100 ms: p50 is the 50th sample, p99 the
        // 99th
        let hundred: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&hundred, 0.50), 50.0);
        assert_eq!(percentile_ms(&hundred, 0.99), 99.0);
        assert_eq!(percentile_ms(&hundred, 0.999), 100.0);
        assert_eq!(percentile_ms(&hundred, 1.0), 100.0);

        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }

    fn case(seed: u64) -> Case<f64> {
        let m = generators::uniform_random::<f64>(80, 56, 5, seed);
        Case::new(m, 1, 8, seed, true)
    }

    #[test]
    fn cases_are_quantized_and_their_references_self_consistent() {
        let case = case(3);
        for values in [
            case.matrix.values(),
            case.x.data(),
            case.y.data(),
            case.b.values(),
        ] {
            assert!(values.iter().all(|v| v.fract() == 0.0));
        }
        assert!(case.v.iter().all(|v| v.fract() == 0.0));
        // references recomputed from the quantized operands are
        // bit-identical, so every op checks exact against itself
        let outputs = [
            (
                Op::Spmm,
                spmm::spmm_rowwise_seq(&case.matrix, &case.x).map(Output::Dense),
            ),
            (
                Op::Spmv,
                spmv::spmv_rowwise_seq(&case.matrix, &case.v).map(Output::Vector),
            ),
            (
                Op::Sddmm,
                sddmm::sddmm_rowwise_seq(&case.matrix, &case.x, &case.y).map(Output::Values),
            ),
            (
                Op::Spgemm,
                spgemm::spgemm_gustavson_seq(&case.matrix, &case.b).map(Output::Sparse),
            ),
        ];
        for (op, output) in outputs {
            assert!(case.is_exact(op, &output.unwrap()), "{op:?}");
        }
    }

    #[test]
    fn delta_chain_epochs_replay_their_deltas() {
        let base = case(5);
        let chain = DeltaChain::new(&base, 4);
        assert_eq!(chain.epochs.len(), 5);
        assert_eq!(chain.deltas.len(), 4);
        for (e, (added, removed)) in chain.deltas.iter().enumerate() {
            assert!(!added.is_empty() && !removed.is_empty());
            // added values stay on the integer grid (bit-exactness)
            assert!(added.iter().all(|&(_, _, v)| v.fract() == 0.0));
            let next = chain.epochs[e]
                .matrix
                .apply_structural_delta(added, removed)
                .unwrap();
            assert!(next.same_structure(&chain.epochs[e + 1].matrix));
            assert_eq!(next.values(), chain.epochs[e + 1].matrix.values());
            // the shape never changes, so the base operands stay valid
            assert_eq!(next.nrows(), base.matrix.nrows());
            assert_eq!(next.ncols(), base.matrix.ncols());
        }
    }

    #[test]
    fn structural_delta_spreads_its_churn_and_validates() {
        let m = generators::uniform_random::<f64>(400, 300, 6, 11);
        let edges = m.nnz() / 200;
        let (added, removed) = structural_delta(&m, edges, 42);
        assert_eq!(removed.len(), edges);
        assert_eq!(added.len(), edges);
        let rows: HashSet<usize> = removed.iter().map(|&(r, _)| r).collect();
        assert!(
            rows.len() > edges / 2,
            "removals cluster in {} rows",
            rows.len()
        );
        m.apply_structural_delta(&added, &removed).unwrap();
    }
}
