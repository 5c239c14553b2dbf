//! Width-generic kernel bodies: the only implementation of each kernel.
//!
//! Each body is written once against the [`SimdVec`] abstraction, next to
//! the operand struct that carries one call of it through
//! [`crate::simd::Dispatch::simd_run`], and is monomorphized per (tier,
//! dtype): at a register type inside the `#[target_feature]` wrappers in
//! the parent module, where `#[inline(always)]` collapses the body into
//! the wrapper so the intrinsics compile under its feature set, and at
//! the one-lane [`One`] on the `off` tier.
//!
//! # Canonical summation trees
//!
//! Every body computes the pinned canonical per-element tree of its kernel
//! (see the `simd` module docs) at any width. That works
//! because vector lanes always span an **output-element** dimension (the
//! columns of `C` in the GEMM panel, the columns of `G` in the Gram rows,
//! the `d` rows of `C = AᵀB` in the reduction microkernel), never a
//! summation axis: changing the lane width regroups which independent
//! output elements share a register, but never re-associates any sum. All
//! arithmetic is unfused multiply-then-add: two roundings per term, as a
//! plain scalar loop computes it.

use super::vector::{One, Quarter, SimdVec};
use super::SimdKernel;
use crate::scalar::Scalar;

/// `C[r] += A[r] · B` for a panel of rows: the one GEMM body of the crate
/// ([`crate::gemm::gemm`] / [`crate::gemm::gemm_a_bt`], both GEMM stages of
/// the fused Fisher sweep in [`super::sweep`], and the row tiles of
/// [`gram_rows`]).
///
/// Every operand is addressed through explicit strides. `A`'s element
/// `(r, p)` lives at `a[r·ars + p·acs]`, so the same body serves a
/// row-major operand (`ars = k`, `acs = 1`) and a transposed view of one
/// (`ars = 1`, `acs = ld`: the `X_chunkᵀ·Γ_chunk` stage of the sweep)
/// without a staged copy; `B` and `C` are row-major with leading
/// dimensions `ldb`, `ldc ≥ n`, so a caller can address a column window of
/// a wider matrix.
///
/// Columns run in whole vectors of `V`, then of each narrower width of
/// its feature set ([`gemm_cols`] per width, [`Quarter`]), then one at a
/// time ([`One`]). Per element the accumulation is depth-ascending onto
/// the incoming `C` value, whichever width a column ran at.
///
/// # Safety
/// Caller must hold the target feature backing `V` and pass consistent
/// shapes: `(rows-1)·ldc + n ≤ c.len()`, `(k-1)·ldb + n ≤ b.len()` and
/// `(rows-1)·ars + (k-1)·acs < a.len()` (each only when `rows`, `k > 0`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_panel<T: Scalar, V: SimdVec<T>>(
    c: &mut [T],
    ldc: usize,
    a: &[T],
    ars: usize,
    acs: usize,
    b: &[T],
    ldb: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    let (cp, ap, bp) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    // SAFETY: the caller's shape contract is `gemm_cols`'s, and the
    // narrower types' features are implied by `V`'s, which the caller
    // holds (`One` needs none).
    unsafe {
        let j = gemm_cols::<T, V>(cp, ldc, ap, ars, acs, bp, ldb, rows, k, 0, n);
        let j = gemm_cols::<T, V::Half>(cp, ldc, ap, ars, acs, bp, ldb, rows, k, j, n);
        let j = gemm_cols::<T, Quarter<T, V>>(cp, ldc, ap, ars, acs, bp, ldb, rows, k, j, n);
        gemm_cols::<T, One<T>>(cp, ldc, ap, ars, acs, bp, ldb, rows, k, j, n);
    }
}

/// The whole vectors of [`gemm_panel`] at `V`'s width from column `j0`:
/// columns `j0..j1` with `j1 = n - (n - j0) % LANES`, which it returns.
///
/// 4-row × 2-vector register tile: the `C` tile lives in registers across
/// the whole depth loop, each `B` row vector is reused by all four `A`
/// rows; a last single vector per 4-row tile, and trailing rows one vector
/// at a time.
///
/// # Safety
/// As [`gemm_panel`], on raw pointers.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_cols<T: Scalar, V: SimdVec<T>>(
    cp: *mut T,
    ldc: usize,
    ap: *const T,
    ars: usize,
    acs: usize,
    bp: *const T,
    ldb: usize,
    rows: usize,
    k: usize,
    j0: usize,
    n: usize,
) -> usize {
    let l = V::LANES;
    // SAFETY: the caller's shape contract (`(rows-1)·ldc + n` elements of
    // `C`, `(k-1)·ldb + n` of `B`, `(rows-1)·ars + (k-1)·acs < len(A)`)
    // bounds every index below: `r < rows`, `j + l ≤ n`, `p < k`, so all
    // pointer offsets stay inside their operands; the target feature
    // backing `V` is held by the caller.
    unsafe {
        let mut r = 0;
        while r + 4 <= rows {
            let mut j = j0;
            while j + 2 * l <= n {
                let mut c00 = V::load(cp.add(r * ldc + j));
                let mut c01 = V::load(cp.add(r * ldc + j + l));
                let mut c10 = V::load(cp.add((r + 1) * ldc + j));
                let mut c11 = V::load(cp.add((r + 1) * ldc + j + l));
                let mut c20 = V::load(cp.add((r + 2) * ldc + j));
                let mut c21 = V::load(cp.add((r + 2) * ldc + j + l));
                let mut c30 = V::load(cp.add((r + 3) * ldc + j));
                let mut c31 = V::load(cp.add((r + 3) * ldc + j + l));
                for p in 0..k {
                    let b0 = V::load(bp.add(p * ldb + j));
                    let b1 = V::load(bp.add(p * ldb + j + l));
                    let x0 = V::splat(*ap.add(r * ars + p * acs));
                    c00 = c00.add(x0.mul(b0));
                    c01 = c01.add(x0.mul(b1));
                    let x1 = V::splat(*ap.add((r + 1) * ars + p * acs));
                    c10 = c10.add(x1.mul(b0));
                    c11 = c11.add(x1.mul(b1));
                    let x2 = V::splat(*ap.add((r + 2) * ars + p * acs));
                    c20 = c20.add(x2.mul(b0));
                    c21 = c21.add(x2.mul(b1));
                    let x3 = V::splat(*ap.add((r + 3) * ars + p * acs));
                    c30 = c30.add(x3.mul(b0));
                    c31 = c31.add(x3.mul(b1));
                }
                c00.store(cp.add(r * ldc + j));
                c01.store(cp.add(r * ldc + j + l));
                c10.store(cp.add((r + 1) * ldc + j));
                c11.store(cp.add((r + 1) * ldc + j + l));
                c20.store(cp.add((r + 2) * ldc + j));
                c21.store(cp.add((r + 2) * ldc + j + l));
                c30.store(cp.add((r + 3) * ldc + j));
                c31.store(cp.add((r + 3) * ldc + j + l));
                j += 2 * l;
            }
            while j + l <= n {
                let mut c0 = V::load(cp.add(r * ldc + j));
                let mut c1 = V::load(cp.add((r + 1) * ldc + j));
                let mut c2 = V::load(cp.add((r + 2) * ldc + j));
                let mut c3 = V::load(cp.add((r + 3) * ldc + j));
                for p in 0..k {
                    let bv = V::load(bp.add(p * ldb + j));
                    c0 = c0.add(V::splat(*ap.add(r * ars + p * acs)).mul(bv));
                    c1 = c1.add(V::splat(*ap.add((r + 1) * ars + p * acs)).mul(bv));
                    c2 = c2.add(V::splat(*ap.add((r + 2) * ars + p * acs)).mul(bv));
                    c3 = c3.add(V::splat(*ap.add((r + 3) * ars + p * acs)).mul(bv));
                }
                c0.store(cp.add(r * ldc + j));
                c1.store(cp.add((r + 1) * ldc + j));
                c2.store(cp.add((r + 2) * ldc + j));
                c3.store(cp.add((r + 3) * ldc + j));
                j += l;
            }
            r += 4;
        }
        while r < rows {
            let mut j = j0;
            while j + l <= n {
                let mut cv = V::load(cp.add(r * ldc + j));
                for p in 0..k {
                    cv = cv.add(
                        V::splat(*ap.add(r * ars + p * acs)).mul(V::load(bp.add(p * ldb + j))),
                    );
                }
                cv.store(cp.add(r * ldc + j));
                j += l;
            }
            r += 1;
        }
    }
    n - (n - j0) % l
}

/// [`gemm_panel`] on non-empty row-major operands (`ars = lda`, `acs = 1`),
/// packaged for [`crate::simd::Dispatch::simd_run`]; built by
/// `crate::gemm::gemm_panel`.
pub(crate) struct GemmPanel<'a, T> {
    pub(crate) c: &'a mut [T],
    pub(crate) ldc: usize,
    pub(crate) a: &'a [T],
    pub(crate) lda: usize,
    pub(crate) b: &'a [T],
    pub(crate) ldb: usize,
    pub(crate) rows: usize,
    pub(crate) k: usize,
    pub(crate) n: usize,
}

impl<T: Scalar> SimdKernel<T> for GemmPanel<'_, T> {
    // SAFETY: unsafe by `SimdKernel::run`'s contract: the caller holds `V`'s feature.
    #[inline(always)]
    unsafe fn run<V: SimdVec<T>>(self) {
        let s = self;
        let (rows, k, n) = (s.rows, s.k, s.n);
        assert!(
            rows > 0
                && k > 0
                && (rows - 1) * s.ldc + n <= s.c.len()
                && (rows - 1) * s.lda + k <= s.a.len()
                && (k - 1) * s.ldb + n <= s.b.len(),
            "gemm_panel: operand shorter than its {rows}x{k}x{n} shape"
        );
        // SAFETY: the shape contract was just checked; the feature is the
        // caller's (`SimdKernel::run`).
        unsafe { gemm_panel::<T, V>(s.c, s.ldc, s.a, s.lda, 1, s.b, s.ldb, rows, k, n) }
    }
}

/// Reduction microkernel of [`at_b_chunk`]: accumulates `JB` output columns
/// (one per broadcast `B` column) over one `V::LANES`-wide strip of output
/// rows, with the `JB × 1`-vector accumulator tile held in registers across
/// the whole row loop. Rows are consumed in the canonical 4-row groups:
/// `acc += ((a₀b₀ + a₁b₁) + a₂b₂) + a₃b₃`, trailing rows singly.
///
/// # Safety
/// Caller must hold the target feature backing `V`; `accp` addresses a
/// `j`-major accumulator with row stride `d`, `ap` an A-panel column strip
/// with row stride `astride` and at least `V::LANES` valid columns, `b` a
/// row-major operand with row stride `bstride` and at least `JB` valid
/// columns.
#[inline(always)]
unsafe fn at_b_micro<T: Scalar, V: SimdVec<T>, const JB: usize>(
    accp: *mut T,
    d: usize,
    ap: *const T,
    astride: usize,
    b: *const T,
    bstride: usize,
    rows: usize,
) {
    // SAFETY: the caller's pointer contract (see `# Safety`) makes every
    // offset valid: `jj < JB` columns of `b` and of the `accp` tile,
    // `r < rows` rows of stride `astride`/`bstride`, `V::LANES` lanes per
    // `ap`/`accp` access; the target feature backing `V` is held.
    unsafe {
        let mut acc: [V; JB] = core::array::from_fn(|jj| V::load(accp.add(jj * d)));
        let mut r = 0;
        while r + 4 <= rows {
            let a0 = V::load(ap.add(r * astride));
            let a1 = V::load(ap.add((r + 1) * astride));
            let a2 = V::load(ap.add((r + 2) * astride));
            let a3 = V::load(ap.add((r + 3) * astride));
            for (jj, accv) in acc.iter_mut().enumerate() {
                let mut t = a0.mul(V::splat(*b.add(r * bstride + jj)));
                t = t.add(a1.mul(V::splat(*b.add((r + 1) * bstride + jj))));
                t = t.add(a2.mul(V::splat(*b.add((r + 2) * bstride + jj))));
                t = t.add(a3.mul(V::splat(*b.add((r + 3) * bstride + jj))));
                *accv = accv.add(t);
            }
            r += 4;
        }
        while r < rows {
            let a0 = V::load(ap.add(r * astride));
            for (jj, accv) in acc.iter_mut().enumerate() {
                *accv = accv.add(a0.mul(V::splat(*b.add(r * bstride + jj))));
            }
            r += 1;
        }
        for (jj, accv) in acc.iter().enumerate() {
            accv.store(accp.add(jj * d));
        }
    }
}

/// Variable-width tail of [`at_b_micro`] for `jl < JB` trailing columns.
/// Identical arithmetic order; the accumulator array may spill, which only
/// costs time on the final partial block.
///
/// # Safety
/// As [`at_b_micro`], with `jl ≤ AT_B_JB` valid `b` columns.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn at_b_micro_any<T: Scalar, V: SimdVec<T>>(
    accp: *mut T,
    d: usize,
    ap: *const T,
    astride: usize,
    b: *const T,
    bstride: usize,
    rows: usize,
    jl: usize,
) {
    debug_assert!(jl <= AT_B_JB && jl > 0);
    // SAFETY: as `at_b_micro`, except only the first `jl` accumulator
    // columns are live: every `b`/`accp` column index is capped by
    // `.take(jl)`, and the dead lanes of the spill array load from the
    // (valid) column 0. The target feature backing `V` is held.
    unsafe {
        let mut acc: [V; AT_B_JB] =
            core::array::from_fn(|jj| V::load(accp.add(if jj < jl { jj * d } else { 0 })));
        let mut r = 0;
        while r + 4 <= rows {
            let a0 = V::load(ap.add(r * astride));
            let a1 = V::load(ap.add((r + 1) * astride));
            let a2 = V::load(ap.add((r + 2) * astride));
            let a3 = V::load(ap.add((r + 3) * astride));
            for (jj, accv) in acc.iter_mut().enumerate().take(jl) {
                let mut t = a0.mul(V::splat(*b.add(r * bstride + jj)));
                t = t.add(a1.mul(V::splat(*b.add((r + 1) * bstride + jj))));
                t = t.add(a2.mul(V::splat(*b.add((r + 2) * bstride + jj))));
                t = t.add(a3.mul(V::splat(*b.add((r + 3) * bstride + jj))));
                *accv = accv.add(t);
            }
            r += 4;
        }
        while r < rows {
            let a0 = V::load(ap.add(r * astride));
            for (jj, accv) in acc.iter_mut().enumerate().take(jl) {
                *accv = accv.add(a0.mul(V::splat(*b.add(r * bstride + jj))));
            }
            r += 1;
        }
        for (jj, accv) in acc.iter().enumerate().take(jl) {
            accv.store(accp.add(jj * d));
        }
    }
}

/// Output columns per pass of the `AᵀB` microkernel: the accumulator tile
/// of [`at_b_micro`] is `AT_B_JB` vectors, which with the four `A` row
/// vectors and two temporaries fits the 16 vector registers of x86-64.
const AT_B_JB: usize = 8;

/// One reduction chunk of `C = AᵀB` (`A ∈ rows×d`, `B ∈ rows×m`),
/// accumulated into a **`j`-major** `m × dp` panel (`acc[j·dp + i] = C[i][j]`,
/// `dp = d` rounded up to a multiple of `V::LANES`) so the `d` axis —
/// contiguous in every `A` row — is the vector axis.
///
/// Full `V::LANES`-wide column strips of `A` are read in place. The last
/// `d % LANES` columns are staged once into a strip of their own,
/// zero-padded to a full vector: they run the same microkernel as every
/// other strip and the padded lanes land in the `dp - d` accumulator
/// columns nobody reads, so every output row runs at the full width. Per
/// element the row-accumulation order is the canonical 4-row grouping;
/// the [`AT_B_JB`]-column blocking only regroups independent output
/// columns.
///
/// # Safety
/// Caller must hold the target feature backing `V` and pass
/// `acc.len() = m·dp` with `dp = d.next_multiple_of(V::LANES)`,
/// `a.len() = rows·d`, `b.len() = rows·m`, `d > 0`, `m > 0`.
#[inline(always)]
pub(crate) unsafe fn at_b_chunk<T: Scalar, V: SimdVec<T>>(
    acc: &mut [T],
    a: &[T],
    b: &[T],
    d: usize,
    m: usize,
) {
    let l = V::LANES;
    let rows = a.len() / d;
    let dp = d.next_multiple_of(l);
    // Strips `0..full` are whole vectors of `A`; strip `full`, if any, is
    // the zero-padded tail, staged as a contiguous `rows × l` panel.
    let full = d / l;
    let mut tail = Vec::new();
    if full * l < d {
        tail.reserve(rows * l);
        for arow in a.chunks_exact(d) {
            tail.extend_from_slice(&arow[full * l..]);
            tail.resize(tail.len() + dp - d, T::ZERO);
        }
    }
    // SAFETY: the caller's shape contract (see `# Safety`) gives the
    // microkernels their pointer contract: `(strip + 1)·l ≤ dp` keeps every
    // `acc`-tile access in bounds, an in-place `A` strip has
    // `(strip + 1)·l ≤ d`, the tail strip is the `rows · l` elements staged
    // above, and `j0 + jl ≤ m` caps the `b`/`acc` columns. The target
    // feature backing `V` is held by the caller.
    unsafe {
        // Column blocks outermost: a block's `rows × jl` slice of `B` is
        // then reused from L1 by every strip, however wide `B` is.
        let mut j0 = 0;
        while j0 < m {
            let jl = (m - j0).min(AT_B_JB);
            let bp = b.as_ptr().add(j0);
            for strip in 0..dp / l {
                let (ap, astride) = if strip == full {
                    (tail.as_ptr(), l)
                } else {
                    (a.as_ptr().add(strip * l), d)
                };
                let accp = acc.as_mut_ptr().add(j0 * dp + strip * l);
                match jl {
                    AT_B_JB => at_b_micro::<T, V, AT_B_JB>(accp, dp, ap, astride, bp, m, rows),
                    4 => at_b_micro::<T, V, 4>(accp, dp, ap, astride, bp, m, rows),
                    _ => at_b_micro_any::<T, V>(accp, dp, ap, astride, bp, m, rows, jl),
                }
            }
            j0 += jl;
        }
    }
}

/// [`at_b_chunk`] packaged for [`crate::simd::Dispatch::simd_run`]; built
/// by `crate::gemm::gemm_at_b_tier` per reduction chunk.
pub(crate) struct AtBChunk<'a, T> {
    pub(crate) acc: &'a mut [T],
    pub(crate) a: &'a [T],
    pub(crate) b: &'a [T],
    pub(crate) d: usize,
    pub(crate) m: usize,
}

impl<T: Scalar> SimdKernel<T> for AtBChunk<'_, T> {
    // SAFETY: unsafe by `SimdKernel::run`'s contract: the caller holds `V`'s feature.
    #[inline(always)]
    unsafe fn run<V: SimdVec<T>>(self) {
        let (d, m) = (self.d, self.m);
        assert!(
            d > 0
                && m > 0
                && self.a.len().is_multiple_of(d)
                && self.b.len() == self.a.len() / d * m
                && self.acc.len() == m * d.next_multiple_of(V::LANES),
            "at_b_chunk: operands do not match their ({d}, {m}) shape"
        );
        // SAFETY: the shape contract was just checked; the feature is the
        // caller's (`SimdKernel::run`).
        unsafe { at_b_chunk::<T, V>(self.acc, self.a, self.b, d, m) }
    }
}

/// One reduction chunk of the weighted Gram kernels: for every class `k`
/// in `k0..k1`, `acc_blk(k) += Σᵢ W[i][k]·xᵢxᵢᵀ` over the chunk's rows
/// (upper triangle; the caller mirrors). Each accumulator block is
/// `d × dp` row-major, `dp = d` rounded up to a multiple of `V::LANES`.
///
/// Per class the chunk is staged as two packed panels — `S = diag(w)·X`
/// (`rows × d`) and `X` itself zero-padded to `dp` columns — leaving out
/// the rows whose weight is exactly zero. When no weight of the chunk's
/// classes is zero the padded `X` is the same for every class and is
/// packed once for all of them; the operands, and so the bits, are those
/// of the per-class packing. The block is then
/// `acc += Sᵀ·X` through [`gemm_panel`], four accumulator rows at a time,
/// each tile starting at the vector that holds its diagonal. So the
/// accumulator tile stays in registers across the chunk's rows, every
/// column runs at the full width whatever `d` is, and the lanes left of
/// the diagonal or right of `d` land in entries the caller's mirror
/// overwrites or never reads.
///
/// Per element this is the canonical row-sequential Gram tree:
/// `acc[p][q] += (w·x_p)·x_q`, rows ascending, zero-weight rows skipped.
///
/// # Safety
/// Caller must hold the target feature backing `V` and pass
/// `acc.len() = (k1-k0)·d·dp` with `dp = d.next_multiple_of(V::LANES)`,
/// `x.len() = rows·d`, a weight panel with row stride `wstride ≥ k1`, and
/// `d > 0`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gram_rows<T: Scalar, V: SimdVec<T>>(
    acc: &mut [T],
    x: &[T],
    w: &[T],
    wstride: usize,
    k0: usize,
    k1: usize,
    d: usize,
) {
    let l = V::LANES;
    let dp = d.next_multiple_of(l);
    let pad = |buf: &mut Vec<T>, xi: &[T]| {
        buf.extend_from_slice(xi);
        buf.resize(buf.len() + dp - d, T::ZERO);
    };
    // Every row live in every class: one padded `X` serves them all.
    let all_live = w
        .chunks(wstride)
        .take(x.len() / d)
        .all(|wi| wi[k0..k1].iter().all(|&wik| wik != T::ZERO));
    let mut shared = Vec::new();
    if all_live {
        for xi in x.chunks_exact(d) {
            pad(&mut shared, xi);
        }
    }
    let mut scaled = Vec::new();
    let mut own = Vec::new();
    for k in k0..k1 {
        scaled.clear();
        let mut live = 0;
        for (xi, wi) in x.chunks_exact(d).zip(w.chunks(wstride)) {
            let wik = wi[k];
            if wik != T::ZERO {
                scaled.extend(xi.iter().map(|&xv| wik * xv));
                live += 1;
            }
        }
        if live == 0 {
            continue;
        }
        let padded: &[T] = if all_live {
            &shared
        } else {
            own.clear();
            for (xi, wi) in x.chunks_exact(d).zip(w.chunks(wstride)) {
                if wi[k] != T::ZERO {
                    pad(&mut own, xi);
                }
            }
            &own
        };
        let blk = &mut acc[(k - k0) * d * dp..(k - k0 + 1) * d * dp];
        for p0 in (0..d).step_by(4) {
            let tile = 4.min(d - p0);
            let q0 = p0 - p0 % l;
            // SAFETY: `C` is rows `p0..p0+tile` of the block from column
            // `q0` (`(tile-1)·dp + dp - q0 ≤ blk.len() - p0·dp - q0`), `A`
            // is columns `p0..p0+tile` of `S` read transposed
            // (`(tile-1) + (live-1)·d < live·d - p0`), `B` is `padded`
            // from column `q0` (`(live-1)·dp + dp - q0 = live·dp - q0`);
            // the target feature backing `V` is held by the caller.
            unsafe {
                gemm_panel::<T, V>(
                    &mut blk[p0 * dp + q0..],
                    dp,
                    &scaled[p0..],
                    1,
                    d,
                    &padded[q0..],
                    dp,
                    tile,
                    live,
                    dp - q0,
                );
            }
        }
    }
}

/// [`gram_rows`] packaged for [`crate::simd::Dispatch::simd_run`]; built by
/// `crate::gemm::gram_weighted_multi_planned` per reduction chunk and class
/// block.
pub(crate) struct GramRows<'a, T> {
    pub(crate) acc: &'a mut [T],
    pub(crate) x: &'a [T],
    pub(crate) w: &'a [T],
    pub(crate) wstride: usize,
    pub(crate) k0: usize,
    pub(crate) k1: usize,
    pub(crate) d: usize,
}

impl<T: Scalar> SimdKernel<T> for GramRows<'_, T> {
    // SAFETY: unsafe by `SimdKernel::run`'s contract: the caller holds `V`'s feature.
    #[inline(always)]
    unsafe fn run<V: SimdVec<T>>(self) {
        let s = self;
        assert!(
            s.d > 0
                && s.k0 <= s.k1
                && s.x.len().is_multiple_of(s.d)
                && s.acc.len() == (s.k1 - s.k0) * s.d * s.d.next_multiple_of(V::LANES),
            "gram_rows: operands do not match their shape"
        );
        // SAFETY: the shape contract was just checked (a weight row shorter
        // than `k1` panics on its index); the feature is the caller's
        // (`SimdKernel::run`).
        unsafe { gram_rows::<T, V>(s.acc, s.x, s.w, s.wstride, s.k0, s.k1, s.d) }
    }
}
