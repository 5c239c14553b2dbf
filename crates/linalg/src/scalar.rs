//! Floating-point abstraction over `f32` and `f64`.
//!
//! The paper's HPC implementation uses single precision end-to-end
//! (§III-C); the accuracy experiments are insensitive to precision. Writing
//! every kernel against [`Scalar`] lets the test-suite cross-check `f32`
//! results against `f64` references and lets the benchmark harness measure
//! the precision ablation.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar type usable in all firal kernels.
///
/// Implemented for `f32` and `f64`. The constants and conversions are the
/// minimal set the workspace needs; this avoids pulling a numeric-traits
/// dependency into an HPC crate that wants full control over inlining.
/// The [`crate::simd::Dispatch`] supertrait routes the hot kernels to the
/// monomorphic `std::arch` bodies of the active SIMD tier.
pub trait Scalar:
    crate::simd::Dispatch
    + Copy
    + Send
    + Sync
    + PartialOrd
    + Debug
    + Display
    + Default
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
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Two.
    const TWO: Self;
    /// One half.
    const HALF: Self;
    /// Machine epsilon of the underlying type.
    const EPSILON: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// Positive infinity.
    const INFINITY: Self;
    /// Blocks a lane group holds: one block per lane of a 256-bit vector
    /// (8 `f32`, 4 `f64`). The grouped eigensolver, `M_k` factor chain and
    /// block-Jacobi factors ([`crate::eigen::eigvalsh_blocks`],
    /// [`crate::QuadSweep::factor_group`], [`crate::CholeskyBlocks`]) run
    /// this many independent blocks in lockstep.
    const BLOCK_LANES: usize;

    /// Lossy conversion from `f64` (used for constants and tolerances).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64` (used for reporting and reductions).
    fn to_f64(self) -> f64;
    /// Conversion from a count.
    fn from_usize(n: usize) -> Self;

    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// `max` that propagates the non-NaN operand.
    fn maxv(self, other: Self) -> Self;
    /// `min` that propagates the non-NaN operand.
    fn minv(self, other: Self) -> Self;
    /// Euclidean norm of (self, other) without overflow. `f32` uses the
    /// crate's own formula (`hypot_f32`) rather than the host libm, so
    /// the lane eigensolver's per-lane `hypot` and the scalar path are one
    /// function; `f64` is `f64::hypot`.
    fn hypot(self, other: Self) -> Self;
    /// True when finite (not NaN/inf).
    fn is_finite(self) -> bool;
    /// Copysign: magnitude of `self`, sign of `sign`.
    fn copysign(self, sign: Self) -> Self;
}

/// `√(x² + y²)` for `f32`, evaluated in `f64` and rounded once more:
/// `((x as f64)² + (y as f64)²).sqrt() as f32`. Both squares are exact in
/// `f64` and no `f32` operand can overflow or underflow them, so the only
/// special case is C99's: an infinite operand gives `+∞` even beside a NaN.
#[inline(always)]
fn hypot_f32(x: f32, y: f32) -> f32 {
    let (a, b) = (x as f64, y as f64);
    let h = (a * a + b * b).sqrt() as f32;
    // `|`, not `||`: no branch, so a lane loop stays one basic block.
    if (x.abs() == f32::INFINITY) | (y.abs() == f32::INFINITY) {
        f32::INFINITY
    } else {
        h
    }
}

macro_rules! impl_scalar {
    ($t:ty, $lanes:literal, $hypot:expr) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;
            const EPSILON: Self = <$t>::EPSILON;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;
            const INFINITY: Self = <$t>::INFINITY;
            const BLOCK_LANES: usize = $lanes;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_usize(n: usize) -> Self {
                n as $t
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline(always)]
            fn maxv(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn minv(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn hypot(self, other: Self) -> Self {
                $hypot(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline(always)]
            fn copysign(self, sign: Self) -> Self {
                self.copysign(sign)
            }
        }
    };
}

impl_scalar!(f32, 8, hypot_f32);
impl_scalar!(f64, 4, f64::hypot);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        assert_eq!(T::ZERO.to_f64(), 0.0);
        assert_eq!(T::ONE.to_f64(), 1.0);
        assert_eq!(T::from_usize(7).to_f64(), 7.0);
        assert!((T::from_f64(2.0).sqrt().to_f64() - std::f64::consts::SQRT_2).abs() < 1e-6);
        assert!(T::ONE.is_finite());
        assert!(!T::INFINITY.is_finite());
    }

    #[test]
    fn scalar_f32_roundtrip() {
        roundtrip::<f32>();
    }

    #[test]
    fn scalar_f64_roundtrip() {
        roundtrip::<f64>();
    }

    #[test]
    fn copysign_and_hypot() {
        assert_eq!(3.0f64.copysign(-1.0), -3.0);
        assert!((Scalar::hypot(3.0f32, 4.0f32) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn f32_hypot_special_cases() {
        let h = |x: f32, y: f32| Scalar::hypot(x, y);
        let bits = |x: f32| x.to_bits();
        // Signed zeros give +0.
        for (x, y) in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)] {
            assert_eq!(bits(h(x, y)), bits(0.0), "hypot({x}, {y})");
        }
        // Subnormals are exact in f64: no flush, no spurious underflow.
        let tiny = f32::from_bits(1);
        assert_eq!(h(tiny, 0.0), tiny);
        assert_eq!(h(-tiny, -0.0), tiny);
        assert_eq!(h(3.0 * tiny, 4.0 * tiny), 5.0 * tiny);
        assert_eq!(h(f32::MIN_POSITIVE, 0.0), f32::MIN_POSITIVE);
        // f32::MAX squared fits in f64: the result rounds, never overflows
        // on the way, and a sum that exceeds f32::MAX rounds to +∞.
        assert_eq!(h(f32::MAX, 0.0), f32::MAX);
        assert_eq!(h(-f32::MAX, 1.0), f32::MAX);
        assert_eq!(h(f32::MAX, f32::MAX), f32::INFINITY);
        // C99: an infinite operand wins over NaN.
        for inf in [f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(h(inf, 1.0), f32::INFINITY);
            assert_eq!(h(2.0, inf), f32::INFINITY);
            assert_eq!(h(inf, f32::NAN), f32::INFINITY);
            assert_eq!(h(f32::NAN, inf), f32::INFINITY);
        }
        assert!(h(f32::NAN, 1.0).is_nan());
        assert!(h(0.0, f32::NAN).is_nan());
        assert_eq!(h(3.0, -4.0), 5.0);
    }

    #[test]
    fn min_max_propagate() {
        assert_eq!(Scalar::maxv(1.0f64, 2.0), 2.0);
        assert_eq!(Scalar::minv(1.0f32, 2.0), 1.0);
    }
}
