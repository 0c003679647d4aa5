//! Two-copy dispatch for multiply-add kernels.
//!
//! The default x86_64 target has no `fma` feature, so
//! [`Scalar::mul_add`](crate::Scalar::mul_add) compiles to a call into
//! the software `fma`/`fmaf` routine and no loop around it vectorizes.
//! [`fma_kernel!`](crate::fma_kernel) compiles a kernel body twice —
//! once under `#[target_feature(enable = "avx2,fma")]`, once portable —
//! and picks the copy with one CPU-feature check per kernel call. Both
//! copies compute every element with the same correctly rounded fused
//! multiply-add in the same order, so their results are bit-identical.

use std::cell::Cell;

thread_local! {
    static PORTABLE_ONLY: Cell<bool> = const { Cell::new(false) };
}

/// `true` when this CPU supports AVX2 and FMA, i.e. dispatched kernels
/// run their feature-enabled copy (unless a test forces the portable one).
pub fn fma_available() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// The dispatch decision [`fma_kernel!`](crate::fma_kernel) takes once
/// per kernel call.
#[doc(hidden)]
#[inline]
pub fn use_fma_copy() -> bool {
    !PORTABLE_ONLY.with(Cell::get) && fma_available()
}

/// Whether [`with_portable`] is in force on this thread; the pool hands
/// it to the helpers that run this thread's tasks.
pub(crate) fn portable_forced() -> bool {
    PORTABLE_ONLY.with(Cell::get)
}

/// Runs `f` with every dispatched kernel called on this thread taking
/// its portable copy. Tests use it to compare the two copies.
#[doc(hidden)]
pub fn with_portable<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            PORTABLE_ONLY.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(PORTABLE_ONLY.with(|p| p.replace(true)));
    f()
}

/// Defines a kernel whose body is compiled twice: an AVX2+FMA copy and
/// a portable copy, chosen by one CPU-feature check per call.
///
/// The body is stamped into each copy as written, so closures inside it
/// (the [`par`](crate::par) loop bodies included) take the copy's target
/// features.
/// Helpers the body calls must be `#[inline(always)]` and called
/// directly, not passed as `Fn` values, or they run without the
/// features. Doc comments go inside the invocation.
///
/// Accepted form: `fn name<T: Bound>(args) -> Ret { body }`, optionally
/// with one `const N: usize` parameter after the type parameter and
/// optionally without a return type.
#[macro_export]
macro_rules! fma_kernel {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident<$t:ident: $bound:path $(, const $c:ident: $cty:ty)?>(
            $($arg:ident: $argty:ty),* $(,)?
        ) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name<$t: $bound $(, const $c: $cty)?>($($arg: $argty),*) $(-> $ret)? {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            {
                #[target_feature(enable = "avx2,fma")]
                #[deny(unsafe_op_in_unsafe_fn)]
                unsafe fn avx2_fma<$t: $bound $(, const $c: $cty)?>($($arg: $argty),*) $(-> $ret)? $body
                if $crate::simd::use_fma_copy() {
                    // SAFETY: `use_fma_copy` saw AVX2 and FMA on this CPU.
                    return unsafe { avx2_fma::<$t $(, $c)?>($($arg),*) };
                }
            }
            fn portable<$t: $bound $(, const $c: $cty)?>($($arg: $argty),*) $(-> $ret)? $body
            portable::<$t $(, $c)?>($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::fma_kernel! {
        fn chain<T: crate::Scalar, const N: usize>(a: &[T], b: &[T]) -> T {
            let mut acc = T::ZERO;
            for (&x, &y) in a.iter().zip(b).take(N) {
                acc = x.mul_add(y, acc);
            }
            acc
        }
    }

    #[test]
    fn portable_override_is_scoped_and_copies_agree() {
        let a: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).cos()).collect();
        let fast = chain::<f64, 33>(&a, &b);
        let slow = with_portable(|| {
            assert!(!use_fma_copy());
            chain::<f64, 33>(&a, &b)
        });
        assert_eq!(fast.to_bits(), slow.to_bits());
        assert_eq!(use_fma_copy(), fma_available());
    }
}
