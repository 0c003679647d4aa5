//! Multi-RHS request coalescing: fuse queued SpMM requests that share
//! a sparsity structure into one wide kernel pass.
//!
//! The paper's central observation is that SpMM cost is dominated by
//! streaming the sparse operand; the dense operand rides along almost
//! for free until it spills the cache. When several tenants query the
//! *same* matrix concurrently (the plan-cache working-set assumption),
//! their `X` operands can be concatenated column-wise and served by a
//! single sparse traversal — one pass over `rowptr`/`colidx`/values
//! amortised over every member's columns. The fused pass is an
//! ordinary [`KernelOp::Spmm`](spmm_kernels::KernelOp::Spmm) over the
//! concatenated operand, swept in blocks of the plan's microkernel
//! width like any other SpMM.
//!
//! Fusion is exact, not approximate: SpMM never mixes columns, so each
//! member's slice of the fused output is bit-identical to the answer
//! it would have received alone on the same service path.
//!
//! The policy lives in the crate-internal `BatchScheduler::collect`:
//!
//! * only SpMM and SpMV requests fuse (an SpMV member joins as a
//!   one-column operand and gets its slice back as a flat vector),
//!   and only with the *same structure* (pointer-equal matrix `Arc`
//!   or equal [`MatrixFingerprint`](crate::MatrixFingerprint)) and the
//!   same operand height;
//! * the fused operand is capped at [`BatchConfig::max_batch_k`]
//!   columns;
//! * fusion is deadline-aware: a candidate whose remaining deadline is
//!   *tighter* than the batch head's never joins — riding along could
//!   only delay it behind work it did not ask for. (The head is the
//!   oldest queued job, so its remaining deadline is the batch's.)

use crate::engine::{Job, RequestOp};
use spmm_kernels::Output;
use spmm_sparse::{DenseMatrix, Scalar};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Multi-RHS batching options (see the module docs for the policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchConfig {
    /// Upper bound on the fused operand's total column count; a
    /// candidate that would push the batch past this stays queued.
    /// Default 128.
    pub max_batch_k: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch_k: 128 }
    }
}

impl BatchConfig {
    /// Sets the fused-operand column cap (clamped to at least 1).
    pub fn max_batch_k(mut self, max_batch_k: usize) -> Self {
        self.max_batch_k = max_batch_k.max(1);
        self
    }
}

/// The operand shape `(rows, columns)` of a request that can join a
/// fused pass: SpMM's dense operand, or an SpMV vector as one column.
fn fusable_shape<T: Scalar>(op: &RequestOp<T>) -> Option<(usize, usize)> {
    match op {
        RequestOp::Spmm { x } => Some((x.nrows(), x.ncols())),
        RequestOp::Spmv { x } => Some((x.len(), 1)),
        _ => None,
    }
}

/// The columns a request contributes to a fused operand (0 for ops
/// that never fuse).
pub(crate) fn fusable_width<T: Scalar>(op: &RequestOp<T>) -> usize {
    fusable_shape(op).map_or(0, |(_, k)| k)
}

/// Row `r` of a fusable request's operand; an SpMV vector's row is its
/// `r`-th entry.
fn operand_row<T: Scalar>(op: &RequestOp<T>, r: usize) -> &[T] {
    match op {
        RequestOp::Spmm { x } => x.row(r),
        RequestOp::Spmv { x } => std::slice::from_ref(&x[r]),
        _ => &[],
    }
}

/// The remaining deadline of a queued job at `now` (`None` = no
/// deadline, i.e. infinitely slack).
fn remaining_at<T>(job: &Job<T>, now: Instant) -> Option<Duration> {
    job.request
        .deadline
        .map(|d| d.saturating_sub(now.saturating_duration_since(job.enqueued)))
}

/// Whether `candidate` is strictly tighter than `batch` under the
/// "`None` is infinite slack" ordering.
fn tighter(candidate: Option<Duration>, batch: Option<Duration>) -> bool {
    match (candidate, batch) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some(c), Some(b)) => c < b,
    }
}

/// The coalescing policy: given the job a worker just popped, scan the
/// queue for compatible SpMM/SpMV requests and pull them into one
/// group.
pub(crate) struct BatchScheduler {
    config: BatchConfig,
}

impl BatchScheduler {
    pub(crate) fn new(config: BatchConfig) -> Self {
        BatchScheduler { config }
    }

    /// Collects companions for `head` from `queue` (called with the
    /// queue lock held). Returns the group, head first — just the head
    /// when nothing fuses — plus the number of otherwise-compatible
    /// candidates skipped for having a tighter deadline than the batch.
    pub(crate) fn collect<T: Scalar>(
        &self,
        head: Job<T>,
        queue: &mut VecDeque<Job<T>>,
    ) -> (Vec<Job<T>>, u64) {
        let max = self.config.max_batch_k;
        let Some((rows, head_k)) = fusable_shape(&head.request.op).filter(|&(_, k)| k < max) else {
            return (vec![head], 0);
        };
        let now = Instant::now();
        let head_remaining = remaining_at(&head, now);
        let mut group = vec![head];
        let mut total_k = head_k;
        let mut deadline_skipped = 0u64;

        let mut i = 0;
        while i < queue.len() && total_k < max {
            let candidate = &queue[i];
            let fits = fusable_shape(&candidate.request.op)
                .filter(|&(r, k)| r == rows && total_k + k <= max)
                .filter(|_| {
                    // each job hashes its matrix at most once, and only
                    // when it shares the structure but not the allocation
                    Arc::ptr_eq(&candidate.request.matrix, &group[0].request.matrix)
                        || candidate.fingerprint() == group[0].fingerprint()
                });
            let Some((_, k)) = fits else {
                i += 1;
                continue;
            };
            if tighter(remaining_at(candidate, now), head_remaining) {
                deadline_skipped += 1;
                i += 1;
                continue;
            }
            if let Some(job) = queue.remove(i) {
                total_k += k;
                group.push(job);
            }
        }
        (group, deadline_skipped)
    }
}

/// Concatenates the jobs' operands column-wise into one fused
/// `nrows × Σk` matrix, returning it with each job's column offset (in
/// job order).
pub(crate) fn fuse_operands<T: Scalar>(jobs: &[&Job<T>]) -> (DenseMatrix<T>, Vec<usize>) {
    let nrows = jobs
        .first()
        .and_then(|j| fusable_shape(&j.request.op))
        .map_or(0, |(rows, _)| rows);
    let mut offsets = Vec::with_capacity(jobs.len());
    let mut total_k = 0;
    for job in jobs {
        offsets.push(total_k);
        total_k += fusable_width(&job.request.op);
    }
    let mut fused = DenseMatrix::zeros(nrows, total_k);
    for r in 0..nrows {
        let row = fused.row_mut(r);
        for (job, &off) in jobs.iter().zip(&offsets) {
            let src = operand_row(&job.request.op, r);
            row[off..off + src.len()].copy_from_slice(src);
        }
    }
    (fused, offsets)
}

/// Cuts one member's answer out of the fused output: its columns
/// `[offset, offset + k)` as a dense matrix, or, for an SpMV member,
/// its one column as a flat vector.
pub(crate) fn slice_member<T: Scalar>(
    fused: &DenseMatrix<T>,
    offset: usize,
    op: &RequestOp<T>,
) -> Output<T> {
    let k = fusable_width(op);
    let mut out = DenseMatrix::zeros(fused.nrows(), k);
    for r in 0..fused.nrows() {
        out.row_mut(r)
            .copy_from_slice(&fused.row(r)[offset..offset + k]);
    }
    match op {
        RequestOp::Spmv { .. } => Output::Vector(out.data().to_vec()),
        _ => Output::Dense(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Request, Response};
    use crate::ServeError;
    use spmm_data::generators;
    use spmm_sparse::CsrMatrix;
    use std::sync::mpsc;

    type Reply = mpsc::Receiver<Result<Response<f64>, ServeError>>;

    fn queued(request: Request<f64>) -> (Job<f64>, Reply) {
        let (tx, rx) = mpsc::channel();
        (Job::new(request, tx), rx)
    }

    fn job(
        matrix: &Arc<CsrMatrix<f64>>,
        x: DenseMatrix<f64>,
        deadline: Option<Duration>,
    ) -> (Job<f64>, Reply) {
        let mut request = Request::spmm(Arc::clone(matrix), x);
        if let Some(d) = deadline {
            request = request.deadline(d);
        }
        queued(request)
    }

    #[test]
    fn fuses_same_structure_up_to_the_column_cap() {
        let m = Arc::new(generators::banded::<f64>(64, 4, 2, 1));
        let sched = BatchScheduler::new(BatchConfig::default().max_batch_k(20));
        let mut queue = VecDeque::new();
        let (head, _rx0) = job(&m, generators::random_dense(64, 8, 1), None);
        let (a, _rx1) = job(&m, generators::random_dense(64, 8, 2), None);
        // would push the batch to 24 > 20: stays queued
        let (b, _rx2) = job(&m, generators::random_dense(64, 8, 3), None);
        // still fits (16 + 4 = 20): fused even though it queued later
        let (c, _rx3) = job(&m, generators::random_dense(64, 4, 4), None);
        queue.extend([a, b, c]);

        let (group, skipped) = sched.collect(head, &mut queue);
        assert_eq!(skipped, 0);
        assert_eq!(group.len(), 3);
        let cols: usize = group.iter().map(|j| fusable_width(&j.request.op)).sum();
        assert_eq!(cols, 20);
        assert_eq!(queue.len(), 1, "the over-cap job stays queued");
    }

    #[test]
    fn different_structures_and_ops_never_fuse() {
        let m = Arc::new(generators::banded::<f64>(64, 4, 2, 1));
        // same shape, different sparsity structure
        let other = Arc::new(generators::uniform_random::<f64>(64, 64, 4, 9));
        let sched = BatchScheduler::new(BatchConfig::default());
        let mut queue = VecDeque::new();
        let (head, _rx0) = job(&m, generators::random_dense(64, 8, 1), None);
        let (foreign, _rx1) = job(&other, generators::random_dense(64, 8, 2), None);
        let (sddmm, _rx2) = queued(Request::sddmm(
            Arc::clone(&m),
            generators::random_dense::<f64>(64, 8, 3),
            generators::random_dense::<f64>(64, 8, 4),
        ));
        queue.extend([foreign, sddmm]);

        let (group, skipped) = sched.collect(head, &mut queue);
        assert_eq!(skipped, 0);
        assert_eq!(group.len(), 1);
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn clone_equal_structures_fuse_via_fingerprint() {
        let m = Arc::new(generators::banded::<f64>(64, 4, 2, 1));
        // a distinct allocation with the identical structure
        let twin = Arc::new(CsrMatrix::clone(&m));
        assert!(!Arc::ptr_eq(&m, &twin));
        let sched = BatchScheduler::new(BatchConfig::default());
        let mut queue = VecDeque::new();
        let (head, _rx0) = job(&m, generators::random_dense(64, 8, 1), None);
        let (cand, _rx1) = job(&twin, generators::random_dense(64, 8, 2), None);
        queue.push_back(cand);

        let (group, _) = sched.collect(head, &mut queue);
        assert_eq!(group.len(), 2);
    }

    #[test]
    fn tighter_deadlines_are_never_fused() {
        let m = Arc::new(generators::banded::<f64>(64, 4, 2, 1));
        let sched = BatchScheduler::new(BatchConfig::default());
        let mut queue = VecDeque::new();
        let (head, _rx0) = job(
            &m,
            generators::random_dense(64, 8, 1),
            Some(Duration::from_secs(60)),
        );
        // far tighter than the head: must not ride along
        let (tight, _rx1) = job(
            &m,
            generators::random_dense(64, 8, 2),
            Some(Duration::from_millis(1)),
        );
        // slacker than the head: fuses
        let (slack, _rx2) = job(
            &m,
            generators::random_dense(64, 8, 3),
            Some(Duration::from_secs(600)),
        );
        // no deadline at all: infinite slack, fuses
        let (free, _rx3) = job(&m, generators::random_dense(64, 8, 4), None);
        queue.extend([tight, slack, free]);

        let (group, skipped) = sched.collect(head, &mut queue);
        assert_eq!(skipped, 1);
        assert_eq!(group.len(), 3);
        assert_eq!(queue.len(), 1, "the tight job stays queued");
    }

    #[test]
    fn deadline_free_head_only_fuses_deadline_free_candidates() {
        let m = Arc::new(generators::banded::<f64>(64, 4, 2, 1));
        let sched = BatchScheduler::new(BatchConfig::default());
        let mut queue = VecDeque::new();
        let (head, _rx0) = job(&m, generators::random_dense(64, 8, 1), None);
        // any finite deadline is tighter than the head's infinite slack
        let (dl, _rx1) = job(
            &m,
            generators::random_dense(64, 8, 2),
            Some(Duration::from_secs(3600)),
        );
        queue.push_back(dl);
        let (group, skipped) = sched.collect(head, &mut queue);
        assert_eq!(group.len(), 1);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn spmv_requests_join_spmm_batches_as_one_column_members() {
        let m = Arc::new(generators::banded::<f64>(64, 4, 2, 1));
        let sched = BatchScheduler::new(BatchConfig::default());
        let mut queue = VecDeque::new();
        let (head, _rx0) = job(&m, generators::random_dense(64, 8, 1), None);
        let v: Vec<f64> = generators::random_dense::<f64>(64, 1, 2).data().to_vec();
        let (spmv, _rx1) = queued(Request::spmv(Arc::clone(&m), v.clone()));
        queue.push_back(spmv);

        let (group, skipped) = sched.collect(head, &mut queue);
        assert_eq!(skipped, 0);
        assert_eq!(group.len(), 2);
        assert_eq!(fusable_width(&group[1].request.op), 1);
        let refs: Vec<&Job<f64>> = group.iter().collect();
        let (fused, offsets) = fuse_operands(&refs);
        assert_eq!(offsets, vec![0, 8]);
        let column: Vec<f64> = (0..64).map(|r| fused.row(r)[8]).collect();
        assert_eq!(column, v, "the vector rides as one column, verbatim");
        match slice_member(&fused, 8, &group[1].request.op) {
            Output::Vector(back) => assert_eq!(back, v, "the SpMV member keeps its shape"),
            other => panic!("an SpMV member must get a vector back, got {other:?}"),
        }
    }

    #[test]
    fn fuse_then_slice_round_trips_exactly() {
        let xs = [
            generators::random_dense::<f64>(16, 3, 1),
            generators::random_dense::<f64>(16, 5, 2),
            generators::random_dense::<f64>(16, 2, 3),
        ];
        let m = Arc::new(generators::banded::<f64>(16, 2, 1, 1));
        let jobs: Vec<(Job<f64>, Reply)> = xs.iter().map(|x| job(&m, x.clone(), None)).collect();
        let refs: Vec<&Job<f64>> = jobs.iter().map(|(j, _)| j).collect();
        let (fused, offsets) = fuse_operands(&refs);
        assert_eq!(fused.ncols(), 10);
        assert_eq!(offsets, vec![0, 3, 8]);
        for ((x, job), &off) in xs.iter().zip(&refs).zip(&offsets) {
            match slice_member(&fused, off, &job.request.op) {
                Output::Dense(back) => {
                    assert_eq!(back.data(), x.data(), "round trip must be exact")
                }
                other => panic!("an SpMM member must get a matrix back, got {other:?}"),
            }
        }
    }
}
