//! Minimal SIMD vector abstraction over `std::arch` intrinsics.
//!
//! Each hardware implementation wraps one register type — an AVX-512F
//! zmm, an AVX2 ymm or an SSE2 xmm register on x86-64, a NEON q register
//! on AArch64 — and exposes exactly the operations the kernel bodies in
//! [`super::body`] and [`super::sweep`] need: unaligned load/store, lane
//! broadcast, multiply, add and subtract. It also names the next narrower
//! register of its family (`Half`: zmm → ymm → xmm), so a body can run a
//! vector axis shorter than its own width at a narrower one. [`One`] is
//! the one-lane vector, a plain `T`: the `off` tier runs the bodies on it,
//! and every narrowing chain ends at it, so no body has a scalar loop of
//! its own.
//! Multiplication and addition are deliberately **unfused** (`mulps` + `addps`, never FMA):
//! the crate-wide determinism contract pins two-rounding multiply-then-add
//! semantics so every dispatch tier — the one-lane `off` tier included —
//! produces bitwise identical results (see `firal_linalg::simd`).
//!
//! All methods are `unsafe` because they compile to target-feature-gated
//! intrinsics: callers must only invoke them from a context where the
//! corresponding feature is known to be available (the `#[target_feature]`
//! wrappers in the parent module establish exactly that).

use crate::scalar::Scalar;

/// One SIMD register of `T` lanes.
///
/// Safety contract: every method must only be called when the CPU feature
/// backing the implementing type has been verified at runtime (or is a
/// compile-time baseline, like SSE2 on x86-64 and NEON on AArch64).
///
/// `pub` only so that it can bound [`super::SimdKernel::run`]; this module
/// is private, so the trait is neither nameable nor implementable outside
/// the crate.
pub trait SimdVec<T: Copy>: Copy {
    /// Number of `T` lanes in the register.
    const LANES: usize;
    /// The next narrower register of the same ISA family, usable under
    /// this type's feature set (AVX-512 → AVX2 → SSE2); the narrowest type
    /// names itself. A body whose vector axis is shorter than `LANES` runs
    /// it at this width, or at [`Quarter`], and what is left at [`One`].
    type Half: SimdVec<T>;

    /// Unaligned load of `LANES` elements starting at `p`.
    ///
    /// # Safety
    /// The backing CPU feature must be held and `p` must be valid for
    /// `LANES` reads of `T`.
    unsafe fn load(p: *const T) -> Self;
    /// Unaligned store of `LANES` elements starting at `p`.
    ///
    /// # Safety
    /// The backing CPU feature must be held and `p` must be valid for
    /// `LANES` writes of `T`.
    unsafe fn store(self, p: *mut T);
    /// Broadcast one scalar to all lanes.
    ///
    /// # Safety
    /// The backing CPU feature must be held.
    unsafe fn splat(x: T) -> Self;
    /// Lane-wise product (single rounding per lane, not fused with any add).
    ///
    /// # Safety
    /// The backing CPU feature must be held.
    unsafe fn mul(self, o: Self) -> Self;
    /// Lane-wise sum.
    ///
    /// # Safety
    /// The backing CPU feature must be held.
    unsafe fn add(self, o: Self) -> Self;
    /// Lane-wise difference `self - o`.
    ///
    /// # Safety
    /// The backing CPU feature must be held.
    unsafe fn sub(self, o: Self) -> Self;
}

/// `V::Half::Half`: the narrowest register a body tries before [`One`]
/// (SSE2 under AVX-512; the type itself at and below SSE2).
pub(crate) type Quarter<T, V> = <<V as SimdVec<T>>::Half as SimdVec<T>>::Half;

/// One `T` lane in a plain value: the vector of the `off` tier, which
/// holds no target feature, and the last width of every narrowing chain.
/// Its arithmetic is the scalar operators, unfused like the registers'.
#[derive(Clone, Copy)]
pub(crate) struct One<T>(T);

impl<T: Scalar> SimdVec<T> for One<T> {
    const LANES: usize = 1;
    type Half = Self;
    #[inline(always)]
    unsafe fn load(p: *const T) -> Self {
        // SAFETY: `p` is valid for one read (SimdVec trait contract).
        Self(unsafe { *p })
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut T) {
        // SAFETY: `p` is valid for one write (SimdVec trait contract).
        unsafe { *p = self.0 }
    }
    // SAFETY: `unsafe` by the trait's signature only; plain arithmetic.
    #[inline(always)]
    unsafe fn splat(x: T) -> Self {
        Self(x)
    }
    // SAFETY: `unsafe` by the trait's signature only; plain arithmetic.
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        Self(self.0 * o.0)
    }
    // SAFETY: `unsafe` by the trait's signature only; plain arithmetic.
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        Self(self.0 + o.0)
    }
    // SAFETY: `unsafe` by the trait's signature only; plain arithmetic.
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        Self(self.0 - o.0)
    }
}

/// Implements the six [`SimdVec`] methods for one register newtype by
/// routing each to its intrinsic. Factored as a macro so the per-intrinsic
/// `SAFETY` reasoning is stated once, next to the only `unsafe` blocks.
macro_rules! simd_vec_impl {
    ($ty:ty, $t:ty, $lanes:literal, $half:ty,
        $load:ident, $store:ident, $splat:ident, $mul:ident, $add:ident, $sub:ident) => {
        impl SimdVec<$t> for $ty {
            const LANES: usize = $lanes;
            type Half = $half;
            #[inline(always)]
            unsafe fn load(p: *const $t) -> Self {
                // SAFETY: the caller holds the backing feature and `p` is
                // valid for `LANES` reads (SimdVec trait contract); the
                // intrinsic performs an unaligned load, so no alignment
                // requirement beyond validity.
                Self(unsafe { $load(p) })
            }
            #[inline(always)]
            unsafe fn store(self, p: *mut $t) {
                // SAFETY: the caller holds the backing feature and `p` is
                // valid for `LANES` writes (SimdVec trait contract);
                // unaligned store intrinsic.
                unsafe { $store(p, self.0) }
            }
            #[inline(always)]
            unsafe fn splat(x: $t) -> Self {
                // SAFETY: register-only broadcast; the caller holds the
                // backing feature (SimdVec trait contract).
                Self(unsafe { $splat(x) })
            }
            #[inline(always)]
            unsafe fn mul(self, o: Self) -> Self {
                // SAFETY: register-only lane-wise multiply; the caller
                // holds the backing feature (SimdVec trait contract).
                Self(unsafe { $mul(self.0, o.0) })
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                // SAFETY: register-only lane-wise add; the caller holds
                // the backing feature (SimdVec trait contract).
                Self(unsafe { $add(self.0, o.0) })
            }
            #[inline(always)]
            unsafe fn sub(self, o: Self) -> Self {
                // SAFETY: register-only lane-wise subtract; the caller
                // holds the backing feature (SimdVec trait contract).
                Self(unsafe { $sub(self.0, o.0) })
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::SimdVec;
    use std::arch::x86_64::*;

    /// 16 × f32 in one AVX-512 zmm register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512F32(__m512);

    simd_vec_impl!(
        Avx512F32,
        f32,
        16,
        Avx2F32,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_mul_ps,
        _mm512_add_ps,
        _mm512_sub_ps
    );

    /// 8 × f64 in one AVX-512 zmm register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512F64(__m512d);

    simd_vec_impl!(
        Avx512F64,
        f64,
        8,
        Avx2F64,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_set1_pd,
        _mm512_mul_pd,
        _mm512_add_pd,
        _mm512_sub_pd
    );

    /// 8 × f32 in one AVX ymm register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2F32(__m256);

    simd_vec_impl!(
        Avx2F32,
        f32,
        8,
        Sse2F32,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        _mm256_sub_ps
    );

    /// 4 × f64 in one AVX ymm register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2F64(__m256d);

    simd_vec_impl!(
        Avx2F64,
        f64,
        4,
        Sse2F64,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_mul_pd,
        _mm256_add_pd,
        _mm256_sub_pd
    );

    /// 4 × f32 in one SSE xmm register (x86-64 baseline; the narrowest
    /// x86 type, so its own `Half`).
    #[derive(Clone, Copy)]
    pub(crate) struct Sse2F32(__m128);

    simd_vec_impl!(
        Sse2F32,
        f32,
        4,
        Sse2F32,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_set1_ps,
        _mm_mul_ps,
        _mm_add_ps,
        _mm_sub_ps
    );

    /// 2 × f64 in one SSE xmm register (x86-64 baseline; its own `Half`).
    #[derive(Clone, Copy)]
    pub(crate) struct Sse2F64(__m128d);

    simd_vec_impl!(
        Sse2F64,
        f64,
        2,
        Sse2F64,
        _mm_loadu_pd,
        _mm_storeu_pd,
        _mm_set1_pd,
        _mm_mul_pd,
        _mm_add_pd,
        _mm_sub_pd
    );
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod arm {
    use super::SimdVec;
    use std::arch::aarch64::*;

    /// 4 × f32 in one NEON q register (AArch64 baseline; its own `Half`).
    #[derive(Clone, Copy)]
    pub(crate) struct NeonF32(float32x4_t);

    simd_vec_impl!(
        NeonF32,
        f32,
        4,
        NeonF32,
        vld1q_f32,
        vst1q_f32,
        vdupq_n_f32,
        vmulq_f32,
        vaddq_f32,
        vsubq_f32
    );

    /// 2 × f64 in one NEON q register (AArch64 baseline; its own `Half`).
    #[derive(Clone, Copy)]
    pub(crate) struct NeonF64(float64x2_t);

    simd_vec_impl!(
        NeonF64,
        f64,
        2,
        NeonF64,
        vld1q_f64,
        vst1q_f64,
        vdupq_n_f64,
        vmulq_f64,
        vaddq_f64,
        vsubq_f64
    );
}
