//! Numeric element trait abstracting over `f32` and `f64`.
//!
//! GPUs typically run SpMM/SDDMM in single precision; tests and reference
//! checks prefer double precision. Kernels in this workspace are generic
//! over [`Scalar`] so both are first-class.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable in all kernels of this workspace.
///
/// The bound set is deliberately minimal: arithmetic, comparison,
/// conversion to/from `f64` for test tolerances, and `Send + Sync` so
/// values can cross between the [`par`](crate::par) pool's threads.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Size of one element in bytes (4 for `f32`, 8 for `f64`); used by
    /// the memory-traffic model.
    const BYTES: usize;

    /// Lossy conversion from `f64` (used by generators and tests).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used for error norms).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add `self * a + b`, rounded once.
    ///
    /// Without the `fma` target feature (the x86_64 default) this is a
    /// call into the software `fma` routine, one per element. Kernels
    /// get the hardware instruction by running inside
    /// [`fma_kernel!`](crate::fma_kernel); outside such a kernel every
    /// call is that library call.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `true` if the value is finite (not NaN/±inf).
    fn is_finite(self) -> bool;
    /// Raw IEEE-754 bit pattern widened to `u64` (`f32` occupies the
    /// low 32 bits). Used by the plan-store codec, where round-trips
    /// must be bit-exact — including NaN payloads and signed zeros
    /// that `to_f64`/`from_f64` would not preserve.
    fn to_bits64(self) -> u64;
    /// Inverse of [`Scalar::to_bits64`]; for `f32` the high 32 bits
    /// are ignored.
    fn from_bits64(bits: u64) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $bytes:expr, $bits:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const BYTES: usize = $bytes;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn to_bits64(self) -> u64 {
                u64::from(<$t>::to_bits(self))
            }
            #[inline(always)]
            fn from_bits64(bits: u64) -> Self {
                <$t>::from_bits(bits as $bits)
            }
        }
    };
}

impl_scalar!(f32, 4, u32);
impl_scalar!(f64, 8, u64);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        assert_eq!(T::ZERO.to_f64(), 0.0);
        assert_eq!(T::ONE.to_f64(), 1.0);
        let x = T::from_f64(2.5);
        assert_eq!(x.to_f64(), 2.5);
        assert_eq!((x + x).to_f64(), 5.0);
        assert_eq!((-x).abs().to_f64(), 2.5);
        assert_eq!(T::from_f64(4.0).sqrt().to_f64(), 2.0);
        assert!(x.is_finite());
        assert!(!T::from_f64(f64::NAN).is_finite());
    }

    #[test]
    fn f32_impl() {
        roundtrip::<f32>();
        assert_eq!(<f32 as Scalar>::BYTES, 4);
    }

    #[test]
    fn f64_impl() {
        roundtrip::<f64>();
        assert_eq!(<f64 as Scalar>::BYTES, 8);
    }

    #[test]
    fn bits64_roundtrip_is_bit_exact() {
        // plain values, signed zero, NaN with a payload, infinities
        for v in [
            0.0f64,
            -0.0,
            1.5,
            -2.25e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(f64::from_bits64(v.to_bits64()).to_bits(), v.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(f64::from_bits64(nan.to_bits64()).to_bits(), nan.to_bits());
        for v in [0.0f32, -0.0, 1.5, -3.0e38, f32::INFINITY] {
            assert_eq!(f32::from_bits64(v.to_bits64()).to_bits(), v.to_bits());
            // f32 bit patterns stay in the low 32 bits
            assert_eq!(v.to_bits64() >> 32, 0);
        }
        let nan32 = f32::from_bits(0x7fc0_1234);
        assert_eq!(
            f32::from_bits64(nan32.to_bits64()).to_bits(),
            nan32.to_bits()
        );
    }

    #[test]
    fn mul_add_matches_expanded() {
        let a = 3.0f64;
        assert_eq!(Scalar::mul_add(a, 2.0, 1.0), 7.0);
    }
}
