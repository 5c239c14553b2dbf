//! The fused quadratic-form sweep behind Eq. 17: for every pool row `x`,
//! `q1 = xᵀB⁻¹x` and `q2 = xᵀB⁻¹(Σ⋄)B⁻¹x` of one block, folded straight
//! into the per-candidate score, without ever forming `B⁻¹`.
//!
//! In the whitened coordinates of ROUND a block is `B = L·M·Lᵀ` with
//! `Σ⋄ = L·Lᵀ`. Factor `M = N·Nᵀ`; then `R = L·N` is lower triangular and
//! `B = R·Rᵀ` — `R` is `B`'s own Cholesky factor — so
//!
//! * `q1 = ‖R⁻¹x‖²`,
//! * `q2 = ‖N⁻ᵀR⁻¹x‖²`   (`B⁻¹ΣB⁻¹ = R⁻ᵀ·N⁻¹N⁻ᵀ·R⁻¹`),
//!
//! two *triangular* products per row. [`QuadSweep`] holds the two
//! triangles and walks the pool once in blocks of [`QUAD_BLOCK_ROWS`] rows,
//! transposed so that pool rows are the vector lanes throughout:
//! `Zᵀ = R⁻¹·Xᵀ_blk` (lower triangular), `q1 = Σ_j z_j²`, `Yᵀ = N⁻ᵀ·Zᵀ`
//! (upper triangular), `q2 = Σ_j y_j²`, `score += g·q2 / (1 + η·g·q1)`.
//! `Zᵀ` and `Yᵀ` live in two cache-resident `d × rows` panels, and the row
//! sums are vector adds down their `d` rows.
//!
//! # The factor chain, one lane per block
//!
//! [`QuadSweep::factor_group`] runs the `M → N → N⁻¹ → R⁻¹` chain of up
//! to [`Scalar::BLOCK_LANES`] blocks at once: the group's `M`, `N⁻¹` and
//! `L⁻¹` are `d × d` elements of one `[T; L]` each (lane `l` = block `l`),
//! and every step of the one-block chain — the Cholesky dot products, the
//! forward substitution, the lower × lower product — is one operation on
//! all lanes (`crate::simd::run_lanes`; the `crate::eigen` module docs have
//! the scheme). A block that does not factor is a lane mask, and each
//! block's triangles are bit for bit the one-block chain's. The group's
//! scratch is `3·d²·L` elements; [`QuadSweep::accumulate`] unpacks the
//! group's triangles into the layout below and sweeps the pool with every
//! block of the group, one pool block at a time.
//!
//! # Layout and the triangles
//!
//! The sweep reads the pool as `Xᵀ` (`d × n`, row-major), which its caller
//! forms once per ROUND call: it depends on neither η nor the pick, so the
//! one copy serves every block, pick and η of a grid sweep. Both triangles
//! are `d × d` row-major with exact zeros outside the triangle — above
//! `R⁻¹`'s diagonal, below `N⁻ᵀ`'s. The triangular shape is exploited with
//! the crate's one GEMM body, called per band of `BAND_ROWS` triangle
//! rows (its 4-row register tile): band `[j0, j0+h)` of `R⁻¹·Xᵀ` reads depth
//! `0..j0+h`, and of `N⁻ᵀ·Zᵀ` depth `j0..d` — everything skipped is a
//! product with a stored zero. The pool block's rows are the panel's
//! columns, so a vector spans pool rows and never a reduction axis.
//!
//! # Determinism
//!
//! Every accumulator of the panel body starts at `+0` and ascends in depth,
//! and adding `±0` never changes one (it cannot be `−0`: a sum of two
//! non-negative zeros or an exact cancellation is `+0`). For finite
//! operands the sweep is therefore **bit for bit two dense
//! [`crate::gemm::gemm_into`] products on the zero-filled triangles**
//! (`Z = X·R⁻ᵀ`, `Y = Z·N⁻¹`: the same products, in the same depth order,
//! as their transposes) followed by `q = Σ_j v_j²`, one accumulator per row
//! ascending `j` from zero — on every tier, thread count and row blocking.
//! Rows are independent; lanes span pool rows only.

use rayon::prelude::*;

use crate::cholesky::{factor_lower_lanes, invert_lower_lanes};
use crate::counters;
use crate::gemm::{gemm_panel, PAR_THRESHOLD};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd::{self, check_tier, Tier};
use crate::sweep::grown;
use crate::{LinalgError, Result};

/// Pool rows per block of the sweep: two `d × 64` panels plus the block's
/// points stay cache-resident up to the paper's `d = 50`.
pub const QUAD_BLOCK_ROWS: usize = 64;

/// Triangle rows per GEMM call: the panel body's register tile, so a band
/// skips all of the triangle's zeros but those inside the tile.
const BAND_ROWS: usize = 4;

/// Most row tasks a sweep is cut into (each owns one pair of panels).
const MAX_TASKS: usize = 8;

/// Fewest rows worth a task of their own.
const MIN_TASK_ROWS: usize = 256;

/// A group of blocks of `B = L·M·Lᵀ` in the factored inverse form the
/// Eq. 17 sweep consumes (see the module docs), plus the sweep's scratch.
/// Reused across groups and picks: [`QuadSweep::factor_group`] → one
/// [`QuadSweep::accumulate`] over every block of the group.
#[derive(Debug)]
pub struct QuadSweep<T: Scalar> {
    tier: Tier,
    block_rows: usize,
    d: usize,
    /// Per loaded block, two `d × d` triangles: the lower-triangular
    /// `R⁻¹`, zero above the diagonal, then the upper-triangular `N⁻ᵀ`,
    /// zero below it.
    triangles: Vec<T>,
    /// The factored group, `width` blocks interleaved (module docs): `M`,
    /// then `N`, then `R⁻¹` in one `d·d·width` slot, `N⁻¹` in the next, the
    /// group's `L⁻¹` in the last.
    group: Vec<T>,
    /// Lanes of the factored group: 1 for a group of one, else
    /// [`Scalar::BLOCK_LANES`].
    width: usize,
    /// Blocks of the factored group (0 until one factors).
    loaded: usize,
    /// One `Zᵀ`/`Yᵀ` panel pair and its two row sums
    /// (`2·(d + 1)·block_rows`) per row task.
    panels: Vec<T>,
}

impl<T: Scalar> QuadSweep<T> {
    /// A sweep for blocks of order `d` on the process-wide dispatch tier.
    pub fn new(d: usize) -> Self {
        Self::on_tier(simd::active_tier(), QUAD_BLOCK_ROWS, d)
    }

    /// [`QuadSweep::new`] on an explicit tier and row blocking (`≥ 1`); the
    /// equality harnesses pin that both are bit-neutral.
    pub fn on_tier(tier: Tier, block_rows: usize, d: usize) -> Self {
        check_tier(tier);
        assert!(block_rows > 0, "QuadSweep: empty row blocks");
        Self {
            tier,
            block_rows,
            d,
            triangles: Vec::new(),
            group: Vec::new(),
            width: 0,
            loaded: 0,
            panels: Vec::new(),
        }
    }

    /// Factor the `M_k = N_k·N_kᵀ` of up to [`Scalar::BLOCK_LANES`] blocks
    /// and load them: per block `N⁻¹` by forward substitution on the
    /// identity and `R⁻¹ = N⁻¹·L⁻¹` (lower × lower) for its lower-triangular
    /// `l_invs[lane] = L⁻¹`. `m_row(lane, i, row)` writes row `i` of block
    /// `lane`'s `M` into `row` (`i + 1` entries, diagonal last); nothing
    /// above the diagonal is asked for.
    ///
    /// The blocks run one per lane in lockstep (module docs), each exactly
    /// the one-block chain, and book what that chain books: `d³/3` flops
    /// for the factorization, the inverse and the product each. Fails with
    /// the first failing block's error, leaving the group unusable until
    /// the next successful call, when some `M` is not positive definite;
    /// the flops booked are then those of the one-block chain up to that
    /// block's failure.
    pub fn factor_group(
        &mut self,
        l_invs: &[Matrix<T>],
        m_row: impl FnMut(usize, usize, &mut [T]),
    ) -> Result<()> {
        let g = l_invs.len();
        assert!(
            (1..=T::BLOCK_LANES).contains(&g),
            "QuadSweep::factor_group: {g} blocks in a group of at most {}",
            T::BLOCK_LANES
        );
        for l_inv in l_invs {
            assert_eq!(
                l_inv.shape(),
                (self.d, self.d),
                "QuadSweep: L⁻¹ is not d × d"
            );
        }
        self.loaded = 0;
        match (g, T::BLOCK_LANES) {
            (1, _) => self.factor_lanes::<1>(l_invs, m_row),
            (_, 8) => self.factor_lanes::<8>(l_invs, m_row),
            (_, 4) => self.factor_lanes::<4>(l_invs, m_row),
            (_, lanes) => unreachable!("no {lanes}-lane instantiation"),
        }?;
        self.loaded = g;
        Ok(())
    }

    fn factor_lanes<const L: usize>(
        &mut self,
        l_invs: &[Matrix<T>],
        mut m_row: impl FnMut(usize, usize, &mut [T]),
    ) -> Result<()> {
        let (d, g) = (self.d, l_invs.len());
        let (lanes, _) = grown(&mut self.group, 3 * d * d * L).as_chunks_mut::<L>();
        let (a, rest) = lanes.split_at_mut(d * d);
        let (n_inv, l_inv) = rest.split_at_mut(d * d);
        self.width = L;
        // Spare lanes hold the identity: they factor, and idle, cleanly.
        for l in g..L {
            for i in 0..d {
                for j in 0..=i {
                    let v = T::from_usize((i == j) as usize);
                    (a[i * d + j][l], l_inv[i * d + j][l]) = (v, v);
                }
            }
        }
        // Row i of lane l's M, staged in its slot of `n_inv` (written
        // below only after the factorization).
        let row = n_inv[..d].as_flattened_mut();
        let row = &mut row[..d];
        for (l, li) in l_invs.iter().enumerate() {
            for i in 0..d {
                m_row(l, i, &mut row[..=i]);
                for (j, (&mv, &lv)) in row[..=i].iter().zip(&li.row(i)[..=i]).enumerate() {
                    (a[i * d + j][l], l_inv[i * d + j][l]) = (mv, lv);
                }
            }
        }
        let mut failed = [None; L];
        let chain = FactorLanes {
            a,
            n_inv,
            l_inv,
            d,
            failed: &mut failed,
        };
        simd::run_lanes::<T>(self.tier, chain);
        let third = d * d * d / 3;
        if let Some(l) = (0..g).find(|&l| failed[l].is_some()) {
            counters::add_flops((3 * l + 1) * third);
            let pivot = failed[l].expect("found above");
            return Err(LinalgError::NotPositiveDefinite { pivot });
        }
        counters::add_flops(3 * g * third);
        Ok(())
    }

    /// Block `lane` of the factored group as `(R⁻¹, N⁻¹)` entry readers.
    fn lane(
        &self,
        lane: usize,
    ) -> (
        impl Fn(usize, usize) -> T + '_,
        impl Fn(usize, usize) -> T + '_,
    ) {
        assert!(
            lane < self.loaded,
            "QuadSweep: block {lane} of the group is not loaded"
        );
        let (d, w) = (self.d, self.width);
        let (r_inv, n_inv) = self.group.split_at(d * d * w);
        let at = move |i: usize, j: usize| (i * d + j) * w + lane;
        (move |i, j| r_inv[at(i, j)], move |i, j| n_inv[at(i, j)])
    }

    /// Dense `d × d` copies of block `lane`'s triangles, `(R⁻ᵀ, N⁻¹)` —
    /// what the harnesses feed the two-GEMM oracle.
    pub fn triangles(&self, lane: usize) -> (Matrix<T>, Matrix<T>) {
        let (r_inv, n_inv) = self.lane(lane);
        let tri = |keep: bool, v: T| if keep { v } else { T::ZERO };
        (
            Matrix::from_fn(self.d, self.d, |i, j| tri(i <= j, r_inv(j, i))),
            Matrix::from_fn(self.d, self.d, |i, j| tri(j <= i, n_inv(i, j))),
        )
    }

    /// `scores[i] += g·q2 / (1 + η·g·q1)` for every pool row `x_i`, given
    /// as column `i` of `xt = Xᵀ` (`d × n`), and every block `lane` of the
    /// factored group, lanes ascending per row: `g = g[(i, k0 + lane)]` and
    /// `q1`, `q2` the block's two quadratic forms (module docs). Each row
    /// block of the pool is swept by every block of the group in turn, so it
    /// stays in cache and the group costs one fork of the row tasks. Books
    /// the two triangular products at `n·d·(d+1)` flops each, per block.
    pub fn accumulate(
        &mut self,
        xt: &Matrix<T>,
        g: &Matrix<T>,
        k0: usize,
        eta: T,
        scores: &mut [T],
    ) {
        let (loaded, tri) = (self.loaded, 2 * self.d * self.d);
        assert!(loaded > 0, "QuadSweep: no factored group to sweep");
        // Unpack the group into `d × d` triangles; nothing outside a
        // triangle is ever written, so it stays zero.
        let mut triangles = std::mem::take(&mut self.triangles);
        for (lane, pair) in grown(&mut triangles, loaded * tri)
            .chunks_mut(tri)
            .enumerate()
        {
            let (r_inv, n_inv_t) = pair.split_at_mut(tri / 2);
            let (r_lanes, n_lanes) = self.lane(lane);
            for i in 0..self.d {
                for j in 0..=i {
                    r_inv[i * self.d + j] = r_lanes(i, j);
                    n_inv_t[j * self.d + i] = n_lanes(i, j);
                }
            }
        }
        self.triangles = triangles;
        let (d, n) = xt.shape();
        let (block_rows, tier) = (self.block_rows, self.tier);
        assert_eq!(d, self.d, "QuadSweep: points are not d-dimensional");
        assert_eq!(g.rows(), n, "QuadSweep: one weight row per point");
        assert!(
            k0 + loaded <= g.cols(),
            "QuadSweep: weight column out of range"
        );
        assert_eq!(scores.len(), n, "QuadSweep: one score per point");
        counters::add_flops(loaded * 2 * n * d * (d + 1));
        if n == 0 || d == 0 {
            return;
        }

        let triangles = &self.triangles[..loaded * tri];
        let panel = d * block_rows;
        let task = |r0: usize, scores: &mut [T], panels: &mut [T]| {
            let (zt, rest) = panels.split_at_mut(panel);
            let (yt, q) = rest.split_at_mut(panel);
            for (b, sblk) in scores.chunks_mut(block_rows).enumerate() {
                let (b0, rows) = (r0 + b * block_rows, sblk.len());
                let xs = &xt.as_slice()[b0..];
                for (lane, pair) in triangles.chunks(tri).enumerate() {
                    let (r_inv, n_inv_t) = pair.split_at(tri / 2);
                    zt.fill(T::ZERO);
                    yt.fill(T::ZERO);
                    for j0 in (0..d).step_by(BAND_ROWS) {
                        let h = BAND_ROWS.min(d - j0);
                        let (z, a) = (&mut zt[j0 * block_rows..], &r_inv[j0 * d..]);
                        gemm_panel(tier, z, block_rows, a, d, xs, n, h, j0 + h, rows);
                    }
                    for j0 in (0..d).step_by(BAND_ROWS) {
                        let h = BAND_ROWS.min(d - j0);
                        let (y, a) = (&mut yt[j0 * block_rows..], &n_inv_t[j0 * d + j0..]);
                        let z = &zt[j0 * block_rows..];
                        gemm_panel(tier, y, block_rows, a, d, z, block_rows, h, d - j0, rows);
                    }
                    let fold = ScoreFold {
                        zt,
                        yt,
                        ld: block_rows,
                        d,
                        g: &g.as_slice()[b0 * g.cols() + k0 + lane..],
                        g_stride: g.cols(),
                        eta,
                        q: &mut q[..2 * rows],
                        scores: &mut *sblk,
                    };
                    simd::run_lanes::<T>(tier, fold);
                }
            }
        };

        // Shape-only task boundaries, whole blocks each.
        let task_rows = n
            .div_ceil(MAX_TASKS)
            .max(MIN_TASK_ROWS)
            .next_multiple_of(block_rows);
        let ntasks = n.div_ceil(task_rows);
        let panel_len = 2 * (panel + block_rows);
        if ntasks > 1 && n * d * d >= PAR_THRESHOLD {
            let panels = grown(&mut self.panels, ntasks * panel_len);
            scores
                .par_chunks_mut(task_rows)
                .zip(panels.par_chunks_mut(panel_len))
                .zip((0..ntasks).into_par_iter())
                .for_each(|((s, p), t)| task(t * task_rows, s, p));
        } else {
            task(0, scores, grown(&mut self.panels, panel_len));
        }
    }
}

/// The row sums and the score update of one pool block, as one lane body
/// whose lanes are the block's rows: `q1 = Σ_j (Zᵀ)_j²` and
/// `q2 = Σ_j (Yᵀ)_j²`, one accumulator per row from `+0`, `j` ascending,
/// then `score += g·q2 / (1 + η·g·q1)`.
struct ScoreFold<'a, T> {
    zt: &'a [T],
    yt: &'a [T],
    ld: usize,
    d: usize,
    /// Row `i`'s weight is `g[i·g_stride]`.
    g: &'a [T],
    g_stride: usize,
    eta: T,
    /// `2·rows` accumulators, `q1` then `q2`.
    q: &'a mut [T],
    scores: &'a mut [T],
}

impl<T: Scalar> simd::LaneBody for ScoreFold<'_, T> {
    #[inline(always)]
    fn run(self) {
        let rows = self.scores.len();
        let (q1, q2) = self.q.split_at_mut(rows);
        q1.fill(T::ZERO);
        q2.fill(T::ZERO);
        for j in 0..self.d {
            let row = j * self.ld..j * self.ld + rows;
            for (q, &z) in q1.iter_mut().zip(&self.zt[row.clone()]) {
                *q += z * z;
            }
            for (q, &y) in q2.iter_mut().zip(&self.yt[row]) {
                *q += y * y;
            }
        }
        let eta = self.eta;
        let weights = self.g.iter().step_by(self.g_stride);
        let folded = self
            .scores
            .iter_mut()
            .zip(weights)
            .zip(q1.iter().zip(q2.iter()));
        for ((s, &gi), (&q1, &q2)) in folded {
            *s += gi * q2 / (T::ONE + eta * gi * q1);
        }
    }
}

/// The `M_k` chain of one group, as one lane body: `N` in place of `M`,
/// `N⁻¹`, then `R⁻¹ = N⁻¹·L⁻¹` over `a`'s lower triangle (`N` is dead by
/// then). Lanes that fail to factor leave `failed` set; nothing past the
/// factorization runs if one does.
struct FactorLanes<'a, T, const L: usize> {
    a: &'a mut [[T; L]],
    n_inv: &'a mut [[T; L]],
    l_inv: &'a [[T; L]],
    d: usize,
    failed: &'a mut [Option<usize>; L],
}

impl<T: Scalar, const L: usize> simd::LaneBody for FactorLanes<'_, T, L> {
    #[inline(always)]
    fn run(self) {
        let Self {
            a,
            n_inv,
            l_inv,
            d,
            failed,
        } = self;
        *failed = factor_lower_lanes(a, d, d);
        if failed.iter().any(Option::is_some) {
            return;
        }
        invert_lower_lanes(a, d, n_inv, d, d);
        // Row j of R⁻¹ = Σ_k N⁻¹[j][k] · (row k of L⁻¹), k ascending from
        // zero.
        for j in 0..d {
            let row = &mut a[j * d..j * d + j + 1];
            row.fill([T::ZERO; L]);
            for (k, &njk) in n_inv[j * d..j * d + j + 1].iter().enumerate() {
                for (r, &lkc) in row.iter_mut().zip(&l_inv[k * d..k * d + k + 1]) {
                    let mut v = *r;
                    for l in 0..L {
                        v[l] += njk[l] * lkc[l];
                    }
                    *r = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::{invert_lower, Cholesky};
    use crate::gemm::{gemm, gemm_a_bt};

    fn lcg(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn spd(d: usize, seed: u64) -> Matrix<f64> {
        let b = lcg(d, d, seed);
        let mut a = gemm_a_bt(&b, &b);
        a.add_diag(d as f64);
        a
    }

    /// `L⁻¹` of the Cholesky factor of a seeded SPD matrix, and that matrix.
    fn whitening(d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
        let sigma = spd(d, seed);
        let ch = Cholesky::new(&sigma).unwrap();
        let mut l_inv = Matrix::zeros(d, d);
        invert_lower(ch.l().as_slice(), d, l_inv.as_mut_slice(), d, d);
        (l_inv, sigma)
    }

    fn load(sweep: &mut QuadSweep<f64>, m: &Matrix<f64>, l_inv: &Matrix<f64>) -> Result<()> {
        sweep.factor_group(std::slice::from_ref(l_inv), |_, i, row| {
            row.copy_from_slice(&m.row(i)[..=i]);
        })
    }

    #[test]
    fn scores_match_the_dense_inverse_of_b() {
        for (n, d, seed) in [(1usize, 1usize, 1u64), (7, 3, 2), (130, 6, 3), (700, 9, 4)] {
            let (l_inv, sigma) = whitening(d, seed);
            let m = spd(d, seed + 10);
            let l = Cholesky::new(&sigma).unwrap().l().clone();
            // B = L·M·Lᵀ, q1 = xᵀB⁻¹x, q2 = xᵀB⁻¹ΣB⁻¹x from the definition.
            let b = gemm_a_bt(&gemm(&l, &m), &l);
            let b_inv = Cholesky::new(&b).unwrap().inverse();
            let mid = gemm(&gemm(&b_inv, &sigma), &b_inv);
            let x = lcg(n, d, seed + 20);
            let g = Matrix::from_fn(n, 2, |i, k| 0.01 * ((i + 3 * k) % 7) as f64);
            let eta = 2.5;

            let mut sweep = QuadSweep::new(d);
            // A failed load in between must leave nothing behind.
            let mut bad = m.clone();
            bad[(d - 1, d - 1)] = -1.0;
            assert!(load(&mut sweep, &bad, &l_inv).is_err());
            load(&mut sweep, &m, &l_inv).unwrap();
            let mut scores = vec![1.0; n];
            sweep.accumulate(&x.transpose(), &g, 1, eta, &mut scores);
            for i in 0..n {
                let xi = x.row(i);
                let q1 = crate::dot(xi, &b_inv.matvec(xi));
                let q2 = crate::dot(xi, &mid.matvec(xi));
                let want = 1.0 + g[(i, 1)] * q2 / (1.0 + eta * g[(i, 1)] * q1);
                assert!(
                    (scores[i] - want).abs() < 1e-10 * want.abs().max(1.0),
                    "n={n} d={d} row {i}: {} vs {want}",
                    scores[i]
                );
            }
        }
    }

    #[test]
    fn loaded_triangles_are_triangular_factors_of_b_inverse() {
        let d = 5;
        let (l_inv, _) = whitening(d, 7);
        let m = spd(d, 8);
        let mut sweep = QuadSweep::new(d);
        load(&mut sweep, &m, &l_inv).unwrap();
        let (r_inv_t, n_inv) = sweep.triangles(0);
        for i in 0..d {
            for j in 0..d {
                if j < i {
                    assert_eq!(r_inv_t[(i, j)], 0.0, "R⁻ᵀ is upper triangular");
                    assert_eq!(n_inv[(j, i)], 0.0, "N⁻¹ is lower triangular");
                }
            }
        }
        // N⁻¹·M·N⁻ᵀ = I and R⁻¹ = N⁻¹·L⁻¹.
        let eye = gemm_a_bt(&gemm(&n_inv, &m), &n_inv);
        let r_inv = gemm(&n_inv, &l_inv);
        for i in 0..d {
            for j in 0..d {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((eye[(i, j)] - want).abs() < 1e-12);
                assert!((r_inv_t[(j, i)] - r_inv[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_pool_and_zero_weights_leave_scores_alone() {
        let (l_inv, _) = whitening(4, 1);
        let mut sweep = QuadSweep::<f64>::new(4);
        load(&mut sweep, &spd(4, 2), &l_inv).unwrap();
        sweep.accumulate(&Matrix::zeros(4, 0), &Matrix::zeros(0, 1), 0, 1.0, &mut []);
        let mut scores = vec![3.0; 5];
        let xt = lcg(5, 4, 3).transpose();
        sweep.accumulate(&xt, &Matrix::zeros(5, 1), 0, 1.0, &mut scores);
        assert_eq!(scores, vec![3.0; 5]);
    }
}
