//! `Engine::spmm_into` and `Engine::sddmm_into` write the caller's
//! buffers directly. On a plan whose row permutation is not the
//! identity, a call must not allocate anything of the output's size:
//! no reordered result, no permuted copy of `Y`, no value array to
//! scatter. A counting global allocator records the largest allocation
//! made while a call runs. This binary holds a single test, so no other
//! test allocates while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use spmm_rr::prelude::*;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter only reads the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded with the caller's layout
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded with the caller's layout
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: forwarded with the caller's pointer and layouts
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest allocation, in bytes, that `f` makes.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn into_calls_allocate_nothing_of_the_outputs_size() {
    let s = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 7);
    let k = 32;
    let x = generators::random_dense::<f64>(s.ncols(), k, 1);
    let y_op = generators::random_dense::<f64>(s.nrows(), k, 2);
    let config = EngineConfig::builder()
        .reorder(
            ReorderConfig::builder()
                .policy(ReorderPolicy::always())
                .build(),
        )
        .build();
    for micro_width in [None, Some(8), Some(32)] {
        let mut engine = Engine::prepare(&s, &config).expect("valid CSR");
        assert!(
            !engine.plan().row_perm.is_identity(),
            "the fixture must permute rows"
        );
        engine.set_micro_width(micro_width);
        let mut y = DenseMatrix::zeros(s.nrows(), k);
        let mut vals = vec![0.0; s.nnz()];
        // warm-up: lazily initialised state is not a per-call cost
        engine.spmm_into(&x, &mut y).unwrap();
        engine.sddmm_into(&x, &y_op, &mut vals).unwrap();

        // anything of n·k or nnz elements would be a per-call copy
        let bound = (s.nrows() * k).min(s.nnz()) * std::mem::size_of::<f64>();
        let spmm = largest_allocation(|| engine.spmm_into(&x, &mut y).unwrap());
        assert!(
            spmm < bound,
            "spmm_into allocated {spmm} bytes (bound {bound}) at width {micro_width:?}"
        );
        let sddmm = largest_allocation(|| engine.sddmm_into(&x, &y_op, &mut vals).unwrap());
        assert!(
            sddmm < bound,
            "sddmm_into allocated {sddmm} bytes (bound {bound}) at width {micro_width:?}"
        );
        // and the answers are the engine's own
        assert_eq!(y, engine.spmm(&x).unwrap());
        assert_eq!(vals, engine.sddmm(&x, &y_op).unwrap());
    }
}
