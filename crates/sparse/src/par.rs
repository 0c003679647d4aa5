//! Data-parallel loops on a persistent pool of helper threads.
//!
//! The kernels split their output by row panel and the preprocessing
//! stages split theirs by row, band or pair, so one task owns each
//! output. This module runs such loops on the calling thread plus up to
//! [`max_helpers`] helper threads, started once, on the first loop that
//! can use them. Because one task owns each output and [`fold`] combines
//! in index order, every result is the same bits at any thread count.
//!
//! A loop *publishes* a job, runs its tasks on the calling thread, then
//! *revokes* the job: no helper joins after the revoke, and the caller
//! waits only for helpers that already hold a task, never for one that
//! is still waking up (on a virtual CPU that wake-up took 0.1–9 ms).
//! Helpers poll for the next job for 2 ms after one ends, then park. A
//! loop that finds the helpers taken (by another thread's loop, or
//! because it is nested in a task) runs inline, so the pool adds no
//! thread and cannot deadlock.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long a helper keeps polling for the next job before it parks.
/// Back-to-back kernel calls (a training step's SpMM then SDDMM) find
/// it awake; a parked helper costs the caller nothing but its absence.
const SPIN: Duration = Duration::from_millis(2);

/// Tasks per thread a loop is split into: enough that a helper joining
/// late, or a panel heavier than the rest, leaves at most a small tail.
const TASKS_PER_THREAD: usize = 16;

thread_local! {
    static HELPERS_OFF: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every parallel loop called on this thread running on
/// this thread alone. Tests use it to compare against the pool.
#[doc(hidden)]
pub fn with_helpers_off<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            HELPERS_OFF.with(|h| h.set(self.0));
        }
    }
    let _restore = Restore(HELPERS_OFF.with(|h| h.replace(true)));
    f()
}

/// The most helper threads this process starts: one fewer than
/// [`std::thread::available_parallelism`], so the caller and its
/// helpers together never outnumber the cores. Zero on one core.
pub fn max_helpers() -> usize {
    // read once: the standard library asks the OS (and cgroup files) each time
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| thread::available_parallelism().map_or(0, |n| n.get() - 1))
}

/// Runs `f(i)` for every `i` in `0..n`, spread over the pool.
pub fn for_each(n: usize, f: impl Fn(usize) + Sync) {
    if !may_help(n) {
        return (0..n).for_each(f);
    }
    let per = n.div_ceil(task_count(n));
    run(n.div_ceil(per), |t| {
        (t * per..n.min(t * per + per)).for_each(&f)
    });
}

/// `f(i)` for every `i` in `0..n`, computed over the pool and returned
/// in index order.
pub fn map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if !may_help(n) {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    chunks_mut(&mut out, 1, |i, slot| slot[0] = Some(f(i)));
    out.into_iter()
        .map(|r| r.expect("every task fills its slot"))
        .collect()
}

/// Runs `f(i, out)` for every `i` in `0..n` over the pool, each call
/// appending its results to `out`, and returns all of them in index order.
pub fn flat_map<R: Send>(n: usize, f: impl Fn(usize, &mut Vec<R>) + Sync) -> Vec<R> {
    let mut out = Vec::new();
    if !may_help(n) {
        (0..n).for_each(|i| f(i, &mut out));
        return out;
    }
    let per = n.div_ceil(task_count(n));
    let parts = map(n.div_ceil(per), |t| {
        let mut part = Vec::new();
        (t * per..n.min(t * per + per)).for_each(|i| f(i, &mut part));
        part
    });
    out.reserve_exact(parts.iter().map(Vec::len).sum());
    parts.into_iter().for_each(|part| out.extend(part));
    out
}

/// Maps `0..n` over the pool, then folds the results on the caller in
/// index order: the same bits as a sequential left fold, whatever the
/// thread count (a floating-point sum split across threads would not be).
pub fn fold<R: Send, A>(
    n: usize,
    f: impl Fn(usize) -> R + Sync,
    init: A,
    op: impl FnMut(A, R) -> A,
) -> A {
    map(n, f).into_iter().fold(init, op)
}

/// Runs `f(i, chunk)` for every `size`-element chunk of `data` (the last
/// may be shorter), spread over the pool; chunk `i` starts at `i·size`.
///
/// # Panics
/// If `size` is zero.
pub fn chunks_mut<T: Send>(data: &mut [T], size: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    assert!(size > 0, "chunk size must be positive");
    let n = data.len().div_ceil(size);
    if !may_help(n) {
        return data.chunks_mut(size).enumerate().for_each(|(i, c)| f(i, c));
    }
    let per = n.div_ceil(task_count(n));
    // each task takes its block once, so its lock is never contended
    let blocks: Vec<Mutex<&mut [T]>> = data.chunks_mut(per * size).map(Mutex::new).collect();
    run(blocks.len(), |t| {
        let mut block = lock(&blocks[t]);
        for (j, chunk) in block.chunks_mut(size).enumerate() {
            f(t * per + j, chunk);
        }
    });
}

/// Whether a loop of `n` items may use helpers: a cheap early test, so
/// an inline loop pays nothing for the pool. [`run`] still falls back
/// to inline when the helpers are taken.
fn may_help(n: usize) -> bool {
    n > 1 && !HELPERS_OFF.with(Cell::get) && !POOL.busy.load(Ordering::Relaxed) && max_helpers() > 0
}

fn task_count(n: usize) -> usize {
    n.min(TASKS_PER_THREAD * (max_helpers() + 1))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // every update under these locks is one assignment or counter step,
    // so a guard recovered from a panicking holder sees valid data
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One loop: task indices `0..tasks`, handed out one at a time.
struct Job<'f> {
    task: &'f (dyn Fn(usize) + Sync),
    tasks: usize,
    next: AtomicUsize,
    /// The caller's kernel-copy choice, so helper tasks make the same one.
    portable: bool,
    /// The first panic a helper caught, rethrown on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and runs tasks until none are left.
    fn work(&self, f: &impl Fn(usize)) {
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.tasks {
                return;
            }
            f(t);
        }
    }

    /// A helper's share: [`Self::work`] through the erased task, with a
    /// panic caught and kept for the caller, and no task handed out after it.
    fn help(&self) {
        let work = || self.work(&self.task);
        let run = || match self.portable {
            true => crate::simd::with_portable(work),
            false => work(),
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(run)) {
            self.next.store(self.tasks, Ordering::Relaxed);
            lock(&self.panic).get_or_insert(payload);
        }
    }
}

/// What the helpers read under the pool's lock.
struct Slot {
    job: Option<&'static Job<'static>>,
    /// Bumped at every publish, so a helper joins each job at most once.
    epoch: u64,
    parked: usize,
}

struct Pool {
    /// Held by the one caller whose job the helpers serve.
    busy: AtomicBool,
    slot: Mutex<Slot>,
    /// `Slot::epoch`, readable without the lock by spinning helpers.
    epoch: AtomicU64,
    /// Helpers inside the published job; raised only under `slot`'s lock
    /// while the job is published.
    active: AtomicUsize,
    wake: Condvar,
    done: Condvar,
    start: Once,
}

static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    slot: Mutex::new(Slot {
        job: None,
        epoch: 0,
        parked: 0,
    }),
    epoch: AtomicU64::new(0),
    active: AtomicUsize::new(0),
    wake: Condvar::new(),
    done: Condvar::new(),
    start: Once::new(),
};

/// Runs `f(t)` for `t` in `0..tasks` on the caller and whichever helpers
/// join before the tasks run out; inline when the helpers are taken.
fn run<F: Fn(usize) + Sync>(tasks: usize, f: F) {
    let pool = &POOL;
    if pool
        .busy
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return (0..tasks).for_each(f);
    }
    pool.start.call_once(|| {
        for i in 0..max_helpers() {
            // a helper that cannot be started leaves its share to the rest
            let _ = thread::Builder::new()
                .name(format!("spmm-par-{i}"))
                .spawn(|| POOL.serve());
        }
    });
    let job = Job {
        task: &f,
        tasks,
        next: AtomicUsize::new(0),
        portable: crate::simd::portable_forced(),
        panic: Mutex::new(None),
    };
    /// Revokes the job and waits out its helpers, also while a panic in
    /// the caller's own tasks unwinds.
    struct Revoke<'a>(&'a Job<'a>);
    impl Drop for Revoke<'_> {
        fn drop(&mut self) {
            self.0.next.store(self.0.tasks, Ordering::Relaxed);
            POOL.revoke();
        }
    }
    // SAFETY: helpers reach `job` (and through it `f`) only through this
    // `'static` reference, which `publish` stores in `POOL.slot` and which
    // a helper copies out only under that lock, raising `POOL.active` in
    // the same critical section. `Revoke` is dropped before `job` and `f`
    // on every exit from this function, normal or unwinding (a panic in
    // the caller's tasks); its `revoke` clears the slot under the lock and
    // then returns only once `active` is zero. A helper lowers `active`
    // as its last access to the job, after `help` has caught any panic of
    // its own tasks, so no helper holds the reference once the caller can
    // drop `job`, and none can copy it again.
    let erased: &'static Job<'static> = unsafe { std::mem::transmute::<&Job<'_>, _>(&job) };
    let revoke = Revoke(&job);
    pool.publish(erased);
    job.work(&f);
    drop(revoke);
    if let Some(payload) = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}

impl Pool {
    fn publish(&self, job: &'static Job<'static>) {
        let mut slot = lock(&self.slot);
        slot.job = Some(job);
        slot.epoch += 1;
        self.epoch.store(slot.epoch, Ordering::Release);
        let parked = slot.parked > 0;
        drop(slot);
        if parked {
            self.wake.notify_all();
        }
    }

    /// Unpublishes the job, waits for the helpers inside it, and frees
    /// the pool for the next caller.
    fn revoke(&self) {
        lock(&self.slot).job = None;
        // a helper inside the job holds a task and is running: poll
        // briefly before sleeping
        let polled = Instant::now();
        while self.active.load(Ordering::Acquire) > 0 {
            if polled.elapsed() < SPIN {
                std::hint::spin_loop();
                continue;
            }
            let mut slot = lock(&self.slot);
            while self.active.load(Ordering::Acquire) > 0 {
                slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.busy.store(false, Ordering::Release);
    }

    /// A helper's life: join each published job once, then wait for the next.
    fn serve(&'static self) {
        let mut seen = 0;
        loop {
            let job = self.next_job(&mut seen);
            job.help();
            // the last access to `job`; the caller may free it from here on
            if self.active.fetch_sub(1, Ordering::Release) == 1 {
                let _slot = lock(&self.slot);
                self.done.notify_all();
            }
        }
    }

    /// Waits for a job newer than `seen`, polling for [`SPIN`] and then
    /// parking, and enters it.
    fn next_job(&self, seen: &mut u64) -> &'static Job<'static> {
        let polled = Instant::now();
        loop {
            if self.epoch.load(Ordering::Acquire) != *seen {
                let mut slot = lock(&self.slot);
                if let Some(job) = self.enter(&mut slot, seen) {
                    return job;
                }
            } else if polled.elapsed() < SPIN {
                std::hint::spin_loop();
            } else {
                let mut slot = lock(&self.slot);
                slot.parked += 1;
                loop {
                    if let Some(job) = self.enter(&mut slot, seen) {
                        slot.parked -= 1;
                        return job;
                    }
                    slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Enters the published job if it is newer than `seen`.
    fn enter(&self, slot: &mut Slot, seen: &mut u64) -> Option<&'static Job<'static>> {
        if slot.epoch == *seen {
            return None;
        }
        *seen = slot.epoch;
        let job = slot.job?;
        self.active.fetch_add(1, Ordering::Relaxed);
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loops_cover_every_index_once_in_order() {
        for n in [0, 1, 2, 7, 33, 1000] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            for_each(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert_eq!(map(n, |i| 3 * i), (0..n).map(|i| 3 * i).collect::<Vec<_>>());
            let runs = flat_map(n, |i, out| out.extend(std::iter::repeat_n(i, i % 3)));
            let want: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, i % 3)).collect();
            assert_eq!(runs, want);
            let mut data = vec![0usize; n];
            chunks_mut(&mut data, 3, |c, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = c * 3 + j;
                }
            });
            assert_eq!(data, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fold_is_a_left_fold() {
        // 0.1·i summed in a different grouping gives different bits
        let terms = |i: usize| 0.1 * i as f64 + 1e-3 / (i + 1) as f64;
        let seq = (0..5000).map(terms).fold(0.0, |a, b| a + b);
        let halves = (0..2500).map(terms).sum::<f64>() + (2500..5000).map(terms).sum::<f64>();
        assert_ne!(seq.to_bits(), halves.to_bits());
        assert_eq!(
            fold(5000, terms, 0.0, |a, b| a + b).to_bits(),
            seq.to_bits()
        );
    }

    #[test]
    fn a_helper_panic_is_kept_and_ends_the_job() {
        let job = Job {
            task: &|t| assert!(t != 3, "task three"),
            tasks: 10,
            next: AtomicUsize::new(0),
            portable: false,
            panic: Mutex::new(None),
        };
        job.help();
        assert_eq!(job.next.load(Ordering::Relaxed), 10);
        let payload = job.panic.into_inner().unwrap().expect("the panic is kept");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task three"));
    }

    #[test]
    fn helpers_follow_the_callers_kernel_copy() {
        crate::simd::with_portable(|| {
            for_each(256, |_| assert!(!crate::simd::use_fma_copy()));
        });
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunks_are_refused() {
        chunks_mut(&mut [0u8; 4], 0, |_, _| {});
    }
}
