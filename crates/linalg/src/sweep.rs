//! The fused Fisher-panel sweep: `Y = Σᵢ zᵢ·Hᵢ·V` for a stacked probe panel
//! `V`, in one blocked pass over the point panel.
//!
//! Lemma 2 / Eq. 13 of the paper apply `H(z) = Σᵢ zᵢ·G(hᵢ) ⊗ xᵢxᵢᵀ` to `s`
//! stacked vectors as two tall-skinny GEMMs around a per-point scaling:
//! `Γ = X·V_wide`, `γ ← z·(γ − γᵀh)·h`, `Y_wide = Xᵀ·Γ`. Done as three
//! kernel calls that costs an `n × (c·s)` intermediate and three passes
//! over it. [`fisher_sweep`] instead walks the pool once in row blocks of a
//! few dozen points: each block's `Γ` lives in a cache-resident scratch, is
//! scaled in place and is folded straight into the `d × (c·s)` output
//! accumulator of its reduction chunk.
//!
//! # Layouts
//!
//! Stacked vectors follow the workspace convention (`vec(V)` of a
//! `d × c` matrix, block `k` in rows `k·d..(k+1)·d`); a stacked panel is
//! `ê × s` row-major with `ê = d·c`. Inside the sweep the panel is held
//! *wide*, `d × (c·s)` with column `k·s + j` = probe `j`'s block `k`, so a
//! wide row is `c` stacked-panel rows laid end to end and the `c·s` axis —
//! the vector axis of both GEMM stages — is contiguous. On SIMD tiers the
//! wide width is zero-padded to a lane multiple (`mp`); padded columns are
//! computed and dropped, which is what keeps every real column out of a
//! scalar tail whatever `c·s` is.
//!
//! # Determinism
//!
//! Same contract as [`mod@crate::gemm`]: reduction chunks come from the
//! shape alone (`reduce_chunk_rows`), each chunk accumulates from zero into
//! its own partial, and partials are added in chunk order. Per element the
//! canonical tree is: `Γ[i][q]` one accumulator over `t = 0..d` from zero
//! (the [`crate::gemm::gemm`] tree — a `Γ` taken from `gemm` is the same
//! bits, see [`SweepInput::Products`]); `α[i][j] = Σ_k Γ[i][k·s+j]·h[i][k]`
//! over `k` ascending from zero; `Γ'[i][k·s+j] = ((Γ − α)·zᵢ)·h[i][k]`, the
//! `zᵢ` factor absent for an unweighted panel; `partial[p][q]` one
//! accumulator over the chunk's rows ascending. All products are rounded
//! before they are summed. The row-block size ([`KernelPlan::sweep_bytes`])
//! only decides how often an accumulator passes through memory, so it is
//! bit-neutral, as are the tier and the thread count.

use rayon::prelude::*;

use crate::autotune::{self, KernelPlan};
use crate::counters;
use crate::gemm::{gemm_rows, reduce_chunk_rows, PAR_THRESHOLD};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd::{self, check_tier, SweepBlock, Tier};

/// Fewest rows in a reduction chunk of the sweep. Larger than the other
/// reduction kernels' because a chunk's partial is `d × c·s`, not `d × d`.
const SWEEP_CHUNK_ROWS: usize = 256;

/// What the sweep multiplies the point panel with.
#[derive(Clone, Copy)]
pub enum SweepInput<'a, T> {
    /// A stacked `ê × s` panel, row-major (`s = 1` for a single vector).
    Panel(&'a [T]),
    /// `X·V_wide` already formed by [`crate::gemm::gemm`] (`n × c·s`, wide
    /// column order): the first GEMM stage is skipped and its flops are
    /// not booked. Bitwise the same result as passing the panel.
    Products(&'a Matrix<T>),
}

/// Scratch of [`fisher_sweep`], reusable across calls: buffers only ever
/// grow, so a caller that applies one operator many times (a CG solve)
/// allocates on its first call only. Growth is booked to
/// [`counters::add_bytes`].
#[derive(Debug, Default)]
pub struct SweepWorkspace<T> {
    /// Zero-padded wide panel, `d × mp`.
    vpad: Vec<T>,
    /// One `rows × mp` block of `Γ` per reduction chunk.
    gamma: Vec<T>,
    /// One `s`-vector of `γᵀh` per reduction chunk.
    alpha: Vec<T>,
    /// One `d × mp` partial per reduction chunk.
    partials: Vec<T>,
}

impl<T: Scalar> SweepWorkspace<T> {
    /// Empty workspace; sized by its first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The first `len` elements of a scratch buffer that only ever grows;
/// growth is booked to [`counters::add_bytes`].
pub(crate) fn grown<T: Scalar>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        counters::add_bytes((len - buf.len()) * std::mem::size_of::<T>());
        buf.resize(len, T::ZERO);
    }
    &mut buf[..len]
}

/// Lay a stacked `ê × s` panel out wide into `wide`, `d` rows of stride
/// `ld ≥ c·s`: wide row `p` is the stacked rows `k·d + p`, `k = 0..c`, end
/// to end. Columns past `c·s` are left alone.
fn fill_wide<T: Scalar>(wide: &mut [T], ld: usize, panel: &[T], d: usize, c: usize, s: usize) {
    if s == 0 {
        return;
    }
    for (p, row) in wide.chunks_exact_mut(ld).enumerate() {
        for (k, seg) in row[..c * s].chunks_exact_mut(s).enumerate() {
            seg.copy_from_slice(&panel[(k * d + p) * s..(k * d + p + 1) * s]);
        }
    }
}

/// The `d × (c·s)` wide form of an `ê × s` stacked panel (see the module
/// docs): wide column `k·s + j` is probe `j`'s block `k`. `X·to_wide(V)` is
/// what [`SweepInput::Products`] takes.
pub fn to_wide<T: Scalar>(panel: &Matrix<T>, d: usize, c: usize) -> Matrix<T> {
    let s = panel.cols();
    assert_eq!(panel.rows(), d * c, "to_wide: panel is not ê × s");
    let mut wide = Matrix::zeros(d, c * s);
    fill_wide(
        wide.as_mut_slice(),
        (c * s).max(1),
        panel.as_slice(),
        d,
        c,
        s,
    );
    wide
}

/// Scalar reference of the Lemma-2 scaling of a row block, in place (see
/// the module docs for the layout and the tree). `alpha` is `s` elements
/// of scratch.
pub(crate) fn scale_rows_scalar<T: Scalar>(
    gamma: &mut [T],
    ld: usize,
    alpha: &mut [T],
    h: &[T],
    z: Option<&[T]>,
    c: usize,
    s: usize,
) {
    let alpha = &mut alpha[..s];
    for (i, hrow) in h.chunks_exact(c).enumerate() {
        let grow = &mut gamma[i * ld..i * ld + c * s];
        alpha.fill(T::ZERO);
        for (seg, &hk) in grow.chunks_exact(s).zip(hrow) {
            for (a, &g) in alpha.iter_mut().zip(seg) {
                *a += g * hk;
            }
        }
        for (seg, &hk) in grow.chunks_exact_mut(s).zip(hrow) {
            for (g, &a) in seg.iter_mut().zip(alpha.iter()) {
                let t = *g - a;
                *g = match z {
                    Some(z) => t * z[i] * hk,
                    None => t * hk,
                };
            }
        }
    }
}

/// Scalar reference of one row block of the sweep — the semantics every
/// SIMD tier reproduces bit for bit.
#[allow(clippy::too_many_arguments)]
fn sweep_block_scalar<T: Scalar>(
    partial: &mut [T],
    gamma: &mut [T],
    alpha: &mut [T],
    x: &[T],
    h: &[T],
    z: Option<&[T]>,
    vpad: Option<&[T]>,
    d: usize,
    c: usize,
    s: usize,
    mp: usize,
) {
    if let Some(v) = vpad {
        gamma.fill(T::ZERO);
        gemm_rows(gamma, mp, x, d, v, mp, x.len() / d, d, mp);
    }
    scale_rows_scalar(gamma, mp, alpha, h, z, c, s);
    for (xrow, grow) in x.chunks_exact(d).zip(gamma.chunks_exact(mp)) {
        for (prow, &xv) in partial.chunks_exact_mut(mp).zip(xrow) {
            for (acc, &g) in prow.iter_mut().zip(grow) {
                *acc += xv * g;
            }
        }
    }
}

/// `out ← Σᵢ zᵢ·(G(hᵢ) ⊗ xᵢxᵢᵀ)·V` on the process-wide dispatch tier with
/// this host's blocking plan. `x` is `n × d`, `h` is `n × c` (`c` class
/// blocks), `z` the optional per-point weights, `s` the probe count, `out`
/// the stacked `ê × s` result (fully overwritten).
///
/// Books the flops of the two GEMMs it fuses
/// ([`counters::gemm_flops`]`(n, c·s, d)` unless the products were passed
/// in, and [`counters::gemm_at_b_flops`]`(n, d, c·s)`).
pub fn fisher_sweep<T: Scalar>(
    x: &Matrix<T>,
    h: &Matrix<T>,
    z: Option<&[T]>,
    input: SweepInput<'_, T>,
    s: usize,
    ws: &mut SweepWorkspace<T>,
    out: &mut [T],
) {
    let tier = simd::active_tier();
    let plan = autotune::plan_for::<T>(x.cols());
    fisher_sweep_planned(tier, plan, x, h, z, input, s, ws, out);
}

/// [`fisher_sweep`] on an explicit tier and blocking plan (the equality
/// harnesses pin that both are bit-neutral).
#[allow(clippy::too_many_arguments)]
pub fn fisher_sweep_planned<T: Scalar>(
    tier: Tier,
    plan: KernelPlan,
    x: &Matrix<T>,
    h: &Matrix<T>,
    z: Option<&[T]>,
    input: SweepInput<'_, T>,
    s: usize,
    ws: &mut SweepWorkspace<T>,
    out: &mut [T],
) {
    check_tier(tier);
    let (n, d) = x.shape();
    let c = h.cols();
    let m = c * s;
    assert_eq!(h.rows(), n, "fisher_sweep: points/probabilities mismatch");
    assert!(
        z.is_none_or(|z| z.len() == n),
        "fisher_sweep: weights length mismatch"
    );
    assert_eq!(out.len(), d * m, "fisher_sweep: output is not ê × s");
    match input {
        SweepInput::Panel(v) => {
            assert_eq!(v.len(), d * m, "fisher_sweep: panel is not ê × s");
            counters::add_flops(counters::gemm_flops(n, m, d));
        }
        SweepInput::Products(p) => {
            assert_eq!(p.shape(), (n, m), "fisher_sweep: products are not n × c·s");
        }
    }
    counters::add_flops(counters::gemm_at_b_flops(n, d, m));
    if n == 0 || d == 0 || m == 0 {
        out.fill(T::ZERO);
        return;
    }

    let elem = std::mem::size_of::<T>();
    let mp = m.next_multiple_of(autotune::lane_count(tier, elem));
    let block_rows = (plan.sweep_bytes / (mp * elem)).clamp(4, 64) & !3;
    // Shape-only chunking, evened out so the last chunk is not a sliver.
    let nchunks = n.div_ceil(reduce_chunk_rows(n, SWEEP_CHUNK_ROWS));
    let chunk_rows = n.div_ceil(nchunks);

    let vpad = match input {
        SweepInput::Panel(v) => {
            let vpad = grown(&mut ws.vpad, d * mp);
            fill_wide(vpad, mp, v, d, c, s);
            Some(&*vpad)
        }
        SweepInput::Products(_) => None,
    };
    let gamma = grown(&mut ws.gamma, nchunks * block_rows * mp);
    let alpha = grown(&mut ws.alpha, nchunks * s);
    let partials = grown(&mut ws.partials, nchunks * d * mp);
    partials.fill(T::ZERO);

    let chunk_body = |ci: usize, partial: &mut [T], gamma: &mut [T], alpha: &mut [T]| {
        let chunk_end = ((ci + 1) * chunk_rows).min(n);
        let mut r0 = ci * chunk_rows;
        while r0 < chunk_end {
            let r1 = (r0 + block_rows).min(chunk_end);
            let g = &mut gamma[..(r1 - r0) * mp];
            if let SweepInput::Products(p) = input {
                for (grow, prow) in g
                    .chunks_exact_mut(mp)
                    .zip(p.as_slice()[r0 * m..].chunks_exact(m))
                {
                    grow[..m].copy_from_slice(prow);
                }
            }
            let xs = &x.as_slice()[r0 * d..r1 * d];
            let hs = &h.as_slice()[r0 * c..r1 * c];
            let zs = z.map(|z| &z[r0..r1]);
            let block = SweepBlock {
                partial: &mut *partial,
                gamma: &mut *g,
                alpha: &mut *alpha,
                x: xs,
                h: hs,
                z: zs,
                vpad,
                d,
                c,
                s,
                mp,
            };
            if !T::simd_run(tier, block) {
                sweep_block_scalar(partial, g, alpha, xs, hs, zs, vpad, d, c, s, mp);
            }
            r0 = r1;
        }
    };
    if nchunks > 1 && n * d * m >= PAR_THRESHOLD {
        partials
            .par_chunks_mut(d * mp)
            .zip(gamma.par_chunks_mut(block_rows * mp))
            .zip(alpha.par_chunks_mut(s))
            .zip((0..nchunks).into_par_iter())
            .for_each(|(((partial, g), a), ci)| chunk_body(ci, partial, g, a));
    } else {
        for (ci, partial) in partials.chunks_exact_mut(d * mp).enumerate() {
            chunk_body(ci, partial, &mut gamma[..block_rows * mp], &mut alpha[..s]);
        }
    }

    // Partials add in chunk order, straight into the stacked layout.
    for (ci, partial) in partials.chunks_exact(d * mp).enumerate() {
        for (p, wide) in partial.chunks_exact(mp).enumerate() {
            for (k, seg) in wide[..m].chunks_exact(s).enumerate() {
                let dst = &mut out[(k * d + p) * s..(k * d + p + 1) * s];
                if ci == 0 {
                    dst.copy_from_slice(seg);
                } else {
                    for (o, &v) in dst.iter_mut().zip(seg) {
                        *o += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// `Σᵢ zᵢ·Hᵢ·v` column by column from the definition.
    fn reference(
        x: &Matrix<f64>,
        h: &Matrix<f64>,
        z: Option<&[f64]>,
        v: &Matrix<f64>,
    ) -> Matrix<f64> {
        let (n, d) = x.shape();
        let c = h.cols();
        let s = v.cols();
        let mut out = Matrix::zeros(d * c, s);
        for i in 0..n {
            let (xi, hi) = (x.row(i), h.row(i));
            let zi = z.map_or(1.0, |z| z[i]);
            for j in 0..s {
                let gamma: Vec<f64> = (0..c)
                    .map(|k| (0..d).map(|p| v[(k * d + p, j)] * xi[p]).sum())
                    .collect();
                let alpha: f64 = gamma.iter().zip(hi).map(|(g, hk)| g * hk).sum();
                for k in 0..c {
                    let coeff = zi * (gamma[k] - alpha) * hi[k];
                    for p in 0..d {
                        out[(k * d + p, j)] += coeff * xi[p];
                    }
                }
            }
        }
        out
    }

    #[test]
    fn sweep_matches_the_definition_and_reuses_its_workspace() {
        let mut ws = SweepWorkspace::new();
        for (n, d, c, s, seed) in [(700, 5, 3, 10, 1), (13, 4, 2, 1, 2), (3, 7, 1, 9, 3)] {
            let x = lcg(n, d, seed);
            let h = Matrix::from_fn(n, c, |i, k| {
                0.05 + 0.9 * ((i * 7 + k * 3) % 11) as f64 / 11.0 / c as f64
            });
            let z: Vec<f64> = (0..n).map(|i| (i % 4) as f64 * 0.25).collect();
            let v = lcg(d * c, s, seed + 10);
            for z in [None, Some(z.as_slice())] {
                let mut out = vec![f64::NAN; d * c * s];
                fisher_sweep(
                    &x,
                    &h,
                    z,
                    SweepInput::Panel(v.as_slice()),
                    s,
                    &mut ws,
                    &mut out,
                );
                let want = reference(&x, &h, z, &v);
                for (got, want) in out.iter().zip(want.as_slice()) {
                    assert!((got - want).abs() < 1e-9, "n={n} d={d}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn empty_pool_gives_zero() {
        let x = Matrix::<f32>::zeros(0, 4);
        let h = Matrix::<f32>::zeros(0, 3);
        let v = vec![1.0f32; 4 * 3 * 2];
        let mut out = vec![7.0f32; 4 * 3 * 2];
        let mut ws = SweepWorkspace::new();
        fisher_sweep(&x, &h, None, SweepInput::Panel(&v), 2, &mut ws, &mut out);
        assert!(out.iter().all(|&o| o == 0.0));
    }
}
