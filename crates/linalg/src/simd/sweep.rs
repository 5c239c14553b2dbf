//! SIMD body of the fused Fisher-panel sweep ([`crate::sweep`]).
//!
//! One call handles one row block of one reduction chunk, in three steps
//! that never leave the block's scratch:
//!
//! 1. `Γ = X_blk · V` — the [`gemm_panel`] body on the zero-padded wide
//!    panel (`mp` columns, a multiple of the lane count, so every column
//!    runs at the full width);
//! 2. the Lemma-2 scaling `γ ← z·(γ − γᵀh)·h`, in place ([`scale_rows`]);
//! 3. `partial += X_blkᵀ · Γ` — the same [`gemm_panel`] body reading `X_blk`
//!    through transposed strides, lanes on the contiguous `c·s` axis.
//!
//! # Canonical tree
//!
//! Per element, the tree of the [`crate::sweep`] module docs:
//! `Γ[i][q]` is one accumulator updated depth-ascending from zero (the
//! [`crate::gemm::gemm`] tree, so a `Γ` formed here equals one formed by
//! `gemm`); `α[i][j] = Σ_k Γ[i][k·s+j]·h[i][k]` ascends `k` from zero;
//! `Γ'[i][k·s+j] = ((Γ − α)·z_i)·h[i][k]` (the `z` factor is skipped for an
//! unweighted panel); `partial[p][q]` is one accumulator updated row-
//! ascending. Lanes span `q` (steps 1, 3) or `j` (step 2) — output elements
//! only — and every product is rounded before its sum.

use super::body::gemm_panel;
use super::vector::{One, Quarter, SimdVec};
use super::SimdKernel;
use crate::scalar::Scalar;

/// `((γ − α)·z)·h` on one vector (`z` skipped when `None`).
///
/// # Safety
/// Caller must hold the target feature backing `V`.
#[inline(always)]
unsafe fn lemma2<T: Scalar, V: SimdVec<T>>(g: V, a: V, z: Option<V>, h: V) -> V {
    // SAFETY: register-only arithmetic; the feature is held by the caller.
    unsafe {
        let t = g.sub(a);
        match z {
            Some(z) => t.mul(z).mul(h),
            None => t.mul(h),
        }
    }
}

/// `α = Σ_k γ_k·h_k` for one vector of probes: `g` points at the vector's
/// lanes in class segment 0, consecutive segments are `s` apart.
///
/// # Safety
/// Caller must hold the target feature backing `V`; `g + k·s` must be
/// valid for `V::LANES` reads and `h + k` for one, for every `k < c`.
#[inline(always)]
unsafe fn alpha_at<T: Scalar, V: SimdVec<T>>(g: *const T, h: *const T, c: usize, s: usize) -> V {
    // SAFETY: pointer validity and the feature are the caller's contract.
    unsafe {
        let mut a = V::splat(T::ZERO);
        for k in 0..c {
            a = a.add(V::load(g.add(k * s)).mul(V::splat(*h.add(k))));
        }
        a
    }
}

/// Lemma-2 scaling of a row block, in place. `gamma` is `rows × ld` with
/// the `c·s` live columns in `k`-major order (column `k·s + j` is probe
/// `j`, class block `k`), `h` is `rows × c`, `alpha` is `s` elements of
/// scratch.
///
/// Runs [`scale_rows_at`] at the widest of `V`, `V::Half`, [`Quarter`] and
/// [`One`] that `s` holds a whole vector of (RELAX's CG panels, `s = 10`,
/// scale at 8 lanes on the 16-lane tier).
///
/// # Safety
/// Caller must hold the target feature backing `V` and pass
/// `gamma.len() = rows·ld` with `ld ≥ c·s`, `h.len() = rows·c`,
/// `alpha.len() ≥ s`, `z.len() = rows` when present, and `s > 0`.
#[inline(always)]
unsafe fn scale_rows<T: Scalar, V: SimdVec<T>>(
    gamma: &mut [T],
    ld: usize,
    alpha: &mut [T],
    h: &[T],
    z: Option<&[T]>,
    c: usize,
    s: usize,
) {
    // SAFETY: the caller's contract is `scale_rows_at`'s, whose `s ≥ LANES`
    // each branch checks (`s > 0` covers `One`); the narrower types'
    // features are implied by `V`'s.
    unsafe {
        if s >= V::LANES {
            scale_rows_at::<T, V>(gamma, ld, alpha, h, z, c, s);
        } else if s >= <V::Half as SimdVec<T>>::LANES {
            scale_rows_at::<T, V::Half>(gamma, ld, alpha, h, z, c, s);
        } else if s >= <Quarter<T, V> as SimdVec<T>>::LANES {
            scale_rows_at::<T, Quarter<T, V>>(gamma, ld, alpha, h, z, c, s);
        } else {
            scale_rows_at::<T, One<T>>(gamma, ld, alpha, h, z, c, s);
        }
    }
}

/// [`scale_rows`] at `V`'s width, for `s ≥ V::LANES`.
///
/// Lanes run along `j` inside one class segment. A segment is covered by
/// whole vectors from `j = 0` and, when `s % LANES ≠ 0`, one more vector
/// ending at `s`; that closing vector is computed before the segment's
/// first store and stored last, so the lanes it shares with its neighbour
/// hold the same value.
///
/// # Safety
/// As [`scale_rows`], and `s ≥ V::LANES`.
#[inline(always)]
unsafe fn scale_rows_at<T: Scalar, V: SimdVec<T>>(
    gamma: &mut [T],
    ld: usize,
    alpha: &mut [T],
    h: &[T],
    z: Option<&[T]>,
    c: usize,
    s: usize,
) {
    let l = V::LANES;
    debug_assert!(s >= l);
    let rows = h.len() / c;
    let full = s - s % l;
    let ragged = full != s;
    // SAFETY: the caller's shape contract (see `# Safety`) bounds every
    // access: `i < rows`, `k < c`, and every vector starts at `j` with
    // `j + l ≤ s`, so segment reads and writes stay inside
    // `[k·s, (k+1)·s) ⊂ [0, ld)` of row `i` and `alpha` accesses inside
    // `[0, s)`. The target feature backing `V` is held by the caller.
    unsafe {
        let ap = alpha.as_mut_ptr();
        for i in 0..rows {
            let g = gamma.as_mut_ptr().add(i * ld);
            let hr = h.as_ptr().add(i * c);
            let zv = z.map(|z| V::splat(*z.get_unchecked(i)));
            for j in (0..full).step_by(l) {
                alpha_at::<T, V>(g.add(j), hr, c, s).store(ap.add(j));
            }
            if ragged {
                alpha_at::<T, V>(g.add(s - l), hr, c, s).store(ap.add(s - l));
            }
            for k in 0..c {
                let hk = V::splat(*hr.add(k));
                let seg = g.add(k * s);
                let closing = if ragged {
                    lemma2(V::load(seg.add(s - l)), V::load(ap.add(s - l)), zv, hk)
                } else {
                    hk
                };
                for j in (0..full).step_by(l) {
                    lemma2(V::load(seg.add(j)), V::load(ap.add(j)), zv, hk).store(seg.add(j));
                }
                if ragged {
                    closing.store(seg.add(s - l));
                }
            }
        }
    }
}

/// One row block of the fused sweep: `partial += X_blkᵀ · S(X_blk · V)`,
/// with `S` the Lemma-2 scaling (see the module docs for the three steps
/// and the canonical tree).
///
/// `vpad` is the `d × mp` zero-padded wide panel.
///
/// # Safety
/// Caller must hold the target feature backing `V` and pass
/// `x.len() = rows·d`, `h.len() = rows·c`, `z.len() = rows` when present,
/// `gamma.len() = rows·mp`, `partial.len() = d·mp`, `vpad.len() = d·mp`,
/// `alpha.len() ≥ s`, with `mp ≥ c·s` a non-zero multiple of
/// `V::LANES`, `d > 0`, `c > 0`, `s > 0` and `rows > 0`.
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per operand and scratch buffer of the Eq. 17 block"
)]
pub(crate) unsafe fn sweep_block<T: Scalar, V: SimdVec<T>>(
    partial: &mut [T],
    gamma: &mut [T],
    alpha: &mut [T],
    x: &[T],
    h: &[T],
    z: Option<&[T]>,
    vpad: &[T],
    d: usize,
    c: usize,
    s: usize,
    mp: usize,
) {
    let rows = x.len() / d;
    // SAFETY: the caller's shape contract is exactly what the three bodies
    // need: step 1 reads `x` row-major (`(rows-1)·d + (d-1) < rows·d`) into
    // the `rows × mp` block; step 2 is `scale_rows` with `ld = mp ≥ c·s`;
    // step 3 reads `x` as its `d × rows` transpose
    // (`(d-1)·1 + (rows-1)·d < rows·d`) against the same block. The target
    // feature backing `V` is held by the caller.
    unsafe {
        gamma.fill(T::ZERO);
        gemm_panel::<T, V>(gamma, mp, x, d, 1, vpad, mp, rows, d, mp);
        scale_rows::<T, V>(gamma, mp, alpha, h, z, c, s);
        gemm_panel::<T, V>(partial, mp, x, 1, d, gamma, mp, d, rows, mp);
    }
}

/// [`sweep_block`] packaged for [`crate::simd::Dispatch::simd_run`]; built
/// by `crate::sweep::fisher_sweep_planned` per row block.
pub(crate) struct SweepBlock<'a, T> {
    pub(crate) partial: &'a mut [T],
    pub(crate) gamma: &'a mut [T],
    pub(crate) alpha: &'a mut [T],
    pub(crate) x: &'a [T],
    pub(crate) h: &'a [T],
    pub(crate) z: Option<&'a [T]>,
    pub(crate) vpad: &'a [T],
    pub(crate) d: usize,
    pub(crate) c: usize,
    pub(crate) s: usize,
    pub(crate) mp: usize,
}

impl<T: Scalar> SimdKernel<T> for SweepBlock<'_, T> {
    // SAFETY: unsafe by `SimdKernel::run`'s contract: the caller holds `V`'s feature.
    #[inline(always)]
    unsafe fn run<V: SimdVec<T>>(self) {
        let k = self;
        let (d, mp) = (k.d, k.mp);
        let rows = k.x.len() / d.max(1);
        assert!(
            d > 0
                && k.c > 0
                && k.s > 0
                && rows > 0
                && k.x.len() == rows * d
                && k.h.len() == rows * k.c
                && k.z.is_none_or(|z| z.len() == rows)
                && k.gamma.len() == rows * mp
                && k.partial.len() == d * mp
                && k.vpad.len() == d * mp
                && k.alpha.len() >= k.s
                && mp >= k.c * k.s
                && mp % V::LANES == 0,
            "sweep_block: operands do not match their shape"
        );
        // SAFETY: the shape contract was just checked; the feature is the
        // caller's (`SimdKernel::run`).
        unsafe {
            sweep_block::<T, V>(
                k.partial, k.gamma, k.alpha, k.x, k.h, k.z, k.vpad, k.d, k.c, k.s, k.mp,
            )
        }
    }
}
