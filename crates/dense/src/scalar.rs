//! The [`Scalar`] element trait.
//!
//! LAAB instantiates its kernels for exactly two element types, `f32` and
//! `f64`, mirroring the BLAS `s`/`d` precision prefixes. The trait is sealed
//! by convention (no third implementation is expected) and keeps the bound
//! list of every generic kernel short.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable by the LAAB kernels.
///
/// The associated constants expose everything the kernels and the test
/// tolerances need without pulling in an external numerics crate.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
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
    /// Two (used by the `S + S -> 2 S` scaling fusion).
    const TWO: Self;
    /// Machine epsilon for this precision.
    const EPSILON: Self;

    /// Short BLAS-style precision prefix (`"s"` or `"d"`), used in reports.
    const PREFIX: &'static str;

    /// Lossy conversion from `f64` (used by generators and cost models).
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64` (used by norms and reporting).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused (or contracted) multiply-add: `self * a + b`.
    ///
    /// Delegates to the hardware FMA when available; the kernels rely on
    /// this form so that the compiler can keep accumulators in registers.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `true` when the value is neither NaN nor infinite.
    fn is_finite(self) -> bool;
    /// IEEE maximum of two values.
    fn max(self, other: Self) -> Self;
    /// The IEEE-754 bit pattern, zero-extended to 64 bits. Equal bits
    /// mean the same value bit for bit, which float `==` does not:
    /// `-0.0 == 0.0`, and NaN payloads are invisible to it.
    fn to_bits_u64(self) -> u64;
}

macro_rules! impl_scalar {
    ($t:ty, $prefix:expr) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const EPSILON: Self = <$t>::EPSILON;
            const PREFIX: &'static str = $prefix;

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
                // Plain `a*b+c` lets LLVM vectorize without requiring a
                // hardware FMA unit; precision is adequate for benchmarking.
                self * a + b
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn to_bits_u64(self) -> u64 {
                u64::from(<$t>::to_bits(self))
            }
        }
    };
}

impl_scalar!(f32, "s");
impl_scalar!(f64, "d");

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        assert_eq!(T::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert_eq!(T::ONE + T::ONE, T::TWO);
        assert!(T::ONE.is_finite());
        assert_eq!(T::from_f64(-2.0).abs(), T::TWO);
        assert_eq!(T::from_f64(4.0).sqrt(), T::TWO);
        assert_eq!(T::TWO.mul_add(T::TWO, T::ONE).to_f64(), 5.0);
        assert_eq!(T::ONE.max(T::TWO), T::TWO);
        assert_eq!(T::ONE.to_bits_u64(), T::ONE.to_bits_u64());
        assert_ne!(T::ZERO.to_bits_u64(), (-T::ZERO).to_bits_u64(), "signed zeros differ");
    }

    #[test]
    fn f32_scalar_ops() {
        roundtrip::<f32>();
        assert_eq!(f32::PREFIX, "s");
    }

    #[test]
    fn f64_scalar_ops() {
        roundtrip::<f64>();
        assert_eq!(f64::PREFIX, "d");
    }

    #[test]
    fn nonfinite_detected() {
        assert!(!f32::NAN.is_finite());
        assert!(!f64::INFINITY.is_finite());
    }
}
