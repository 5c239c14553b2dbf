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
//! triangles and walks the pool once in blocks of [`QUAD_BLOCK_ROWS`] rows:
//! `Z = X_blk·R⁻ᵀ` (upper triangular), `q1 = Σ_j z_j²`, `Y = Z·N⁻¹` (lower
//! triangular), `q2 = Σ_j y_j²`, `score += g·q2 / (1 + η·g·q1)`. `Z` and `Y`
//! live in two cache-resident `rows × ld` panels.
//!
//! # Layout and the triangles
//!
//! Both triangles are `d × ld` row-major with `ld` = `d` rounded up to the
//! tier's lane count and exact zeros outside the triangle, so the panel
//! body never reaches its scalar column tail. The triangular shape is
//! exploited with the crate's one GEMM body, called per column window of
//! two vectors (at least 8 columns): window `[j0, j0+w)` of `X·R⁻ᵀ` reads depth `0..min(j0+w, d)`
//! and of `Z·N⁻¹` depth `j0..d` — everything skipped is a product with a
//! stored zero.
//!
//! # Determinism
//!
//! Every accumulator of the panel body starts at `+0` and ascends in depth,
//! and adding `±0` never changes one (it cannot be `−0`: a sum of two
//! non-negative zeros or an exact cancellation is `+0`). For finite
//! operands the sweep is therefore **bit for bit two dense
//! [`crate::gemm::gemm_into`] products on the zero-filled triangles**
//! followed by `q = Σ_j v_j²`, one accumulator per row ascending `j` from
//! zero — on every tier, thread count and row blocking. Rows are
//! independent; lanes span output columns only.

use rayon::prelude::*;

use crate::autotune;
use crate::cholesky::{factor_lower_in_place, invert_lower};
use crate::counters;
use crate::gemm::{gemm_panel, PAR_THRESHOLD};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd::{self, check_tier, Tier};
use crate::sweep::grown;
use crate::Result;

/// Pool rows per block of the sweep: two `64 × ld` panels plus the block's
/// points stay cache-resident up to the paper's `d = 50`.
pub const QUAD_BLOCK_ROWS: usize = 64;

/// Most row tasks a sweep is cut into (each owns one pair of panels).
const MAX_TASKS: usize = 8;

/// Fewest rows worth a task of their own.
const MIN_TASK_ROWS: usize = 256;

/// `Σ_j v_j²` over the first `d` entries of four consecutive `ld`-strided
/// rows: four independent chains, each ascending `j` from zero (a single
/// chain is latency-bound).
fn row_norms4<T: Scalar>(v: &[T], ld: usize, d: usize) -> [T; 4] {
    let rows: [&[T]; 4] = std::array::from_fn(|r| &v[r * ld..r * ld + d]);
    let mut q = [T::ZERO; 4];
    for j in 0..d {
        for r in 0..4 {
            q[r] += rows[r][j] * rows[r][j];
        }
    }
    q
}

/// `Σ_j v_j²`, ascending `j` from zero.
fn row_norm<T: Scalar>(v: &[T]) -> T {
    v.iter().fold(T::ZERO, |q, &e| q + e * e)
}

/// One block of `B = L·M·Lᵀ` in the factored inverse form the Eq. 17 sweep
/// consumes (see the module docs), plus the sweep's scratch. Reused across
/// blocks and picks: [`QuadSweep::m_row_mut`] × `d` →
/// [`QuadSweep::factor`] → [`QuadSweep::accumulate`].
#[derive(Debug)]
pub struct QuadSweep<T: Scalar> {
    tier: Tier,
    block_rows: usize,
    d: usize,
    ld: usize,
    /// `d × ld`. The lower triangle is the work area of
    /// [`QuadSweep::factor`] (`M`, then `N`, then `R⁻¹`); after it the slot
    /// holds the upper-triangular `R⁻ᵀ`, zero below the diagonal.
    r_inv_t: Vec<T>,
    /// `d × ld`: the lower-triangular `N⁻¹`; nothing above the diagonal is
    /// ever written.
    n_inv: Vec<T>,
    /// One `Z`/`Y` panel pair (`2·block_rows·ld`) per row task.
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
        let elem = std::mem::size_of::<T>();
        let ld = d.next_multiple_of(autotune::lane_count(tier, elem));
        counters::add_bytes(2 * d * ld * elem);
        Self {
            tier,
            block_rows,
            d,
            ld,
            r_inv_t: vec![T::ZERO; d * ld],
            n_inv: vec![T::ZERO; d * ld],
            panels: Vec::new(),
        }
    }

    /// Row `i` of the lower triangle of `M` (`i + 1` entries, diagonal
    /// last). Every row must be written before [`QuadSweep::factor`]; what
    /// an earlier block left there is garbage.
    pub fn m_row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.r_inv_t[i * self.ld..i * self.ld + i + 1]
    }

    /// Factor the assembled `M = N·Nᵀ` and load the block: `N⁻¹` by forward
    /// substitution on the identity and `R⁻¹ = N⁻¹·L⁻¹` (lower × lower) for
    /// the given lower-triangular `l_inv = L⁻¹` — `d³/3` flops each, as is
    /// the factorization. Fails, leaving the block unusable until the next
    /// successful call, when `M` is not positive definite.
    pub fn factor(&mut self, l_inv: &Matrix<T>) -> Result<()> {
        let (d, ld) = (self.d, self.ld);
        assert_eq!(l_inv.shape(), (d, d), "QuadSweep::factor: L⁻¹ is not d × d");
        factor_lower_in_place(&mut self.r_inv_t, ld, d)?;
        invert_lower(&self.r_inv_t, ld, &mut self.n_inv, ld, d);

        // Row j of R⁻¹ = Σ_k N⁻¹[j][k] · (row k of L⁻¹), k ascending from
        // zero, over the slot's lower triangle (N is dead).
        counters::add_flops(d * d * d / 3);
        for j in 0..d {
            let row = &mut self.r_inv_t[j * ld..j * ld + j + 1];
            row.fill(T::ZERO);
            for (k, &njk) in self.n_inv[j * ld..j * ld + j + 1].iter().enumerate() {
                for (r, &l) in row.iter_mut().zip(&l_inv.row(k)[..=k]) {
                    *r += njk * l;
                }
            }
        }
        // Mirror it into the upper triangle and clear what is below.
        for i in 0..d {
            for j in 0..i {
                self.r_inv_t[j * ld + i] = self.r_inv_t[i * ld + j];
                self.r_inv_t[i * ld + j] = T::ZERO;
            }
        }
        Ok(())
    }

    /// Dense `d × d` copies of the loaded triangles, `(R⁻ᵀ, N⁻¹)` — what
    /// the harnesses feed the two-GEMM oracle.
    pub fn triangles(&self) -> (Matrix<T>, Matrix<T>) {
        let dense = |t: &[T]| Matrix::from_fn(self.d, self.d, |i, j| t[i * self.ld + j]);
        (dense(&self.r_inv_t), dense(&self.n_inv))
    }

    /// `scores[i] += g·q2 / (1 + η·g·q1)` for every row `x_i` of `x`
    /// (`n × d`), with `g = g[(i, k)]` and `q1`, `q2` the two quadratic
    /// forms of the loaded block (module docs). Books the two triangular
    /// products at `n·d·(d+1)` flops each.
    pub fn accumulate(&mut self, x: &Matrix<T>, g: &Matrix<T>, k: usize, eta: T, scores: &mut [T]) {
        let (n, d) = x.shape();
        let (ld, block_rows, tier) = (self.ld, self.block_rows, self.tier);
        assert_eq!(d, self.d, "QuadSweep: points are not d-dimensional");
        assert_eq!(g.rows(), n, "QuadSweep: one weight row per point");
        assert!(k < g.cols(), "QuadSweep: weight column out of range");
        assert_eq!(scores.len(), n, "QuadSweep: one score per point");
        counters::add_flops(2 * n * d * (d + 1));
        if n == 0 || d == 0 {
            return;
        }

        let (r_inv_t, n_inv) = (&self.r_inv_t[..], &self.n_inv[..]);
        // Two vectors per window, and never less than the scalar panel's
        // two 4-wide steps.
        let w = (2 * autotune::lane_count(tier, std::mem::size_of::<T>())).max(8);
        let task = |r0: usize, scores: &mut [T], panels: &mut [T]| {
            let (zbuf, ybuf) = panels.split_at_mut(block_rows * ld);
            for (b, sblk) in scores.chunks_mut(block_rows).enumerate() {
                let (b0, rows) = (r0 + b * block_rows, sblk.len());
                let xs = &x.as_slice()[b0 * d..(b0 + rows) * d];
                let (z, y) = (&mut zbuf[..rows * ld], &mut ybuf[..rows * ld]);
                z.fill(T::ZERO);
                y.fill(T::ZERO);
                for j0 in (0..ld).step_by(w) {
                    let wn = w.min(ld - j0);
                    let depth = (j0 + wn).min(d);
                    gemm_panel(
                        tier,
                        &mut z[j0..],
                        ld,
                        xs,
                        d,
                        &r_inv_t[j0..],
                        ld,
                        rows,
                        depth,
                        wn,
                    );
                }
                for j0 in (0..d).step_by(w) {
                    let wn = w.min(ld - j0);
                    let tri = &n_inv[j0 * ld + j0..];
                    gemm_panel(
                        tier,
                        &mut y[j0..],
                        ld,
                        &z[j0..],
                        ld,
                        tri,
                        ld,
                        rows,
                        d - j0,
                        wn,
                    );
                }
                let mut fold = |i: usize, q1: T, q2: T| {
                    let gi = g[(b0 + i, k)];
                    sblk[i] += gi * q2 / (T::ONE + eta * gi * q1);
                };
                let mut i = 0;
                while i + 4 <= rows {
                    let q1 = row_norms4(&z[i * ld..], ld, d);
                    let q2 = row_norms4(&y[i * ld..], ld, d);
                    for t in 0..4 {
                        fold(i + t, q1[t], q2[t]);
                    }
                    i += 4;
                }
                while i < rows {
                    let row = i * ld..i * ld + d;
                    fold(i, row_norm(&z[row.clone()]), row_norm(&y[row]));
                    i += 1;
                }
            }
        };

        // Shape-only task boundaries, whole blocks each.
        let task_rows = n
            .div_ceil(MAX_TASKS)
            .max(MIN_TASK_ROWS)
            .next_multiple_of(block_rows);
        let ntasks = n.div_ceil(task_rows);
        let panel_len = 2 * block_rows * ld;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;
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
        for i in 0..m.rows() {
            sweep.m_row_mut(i).copy_from_slice(&m.row(i)[..=i]);
        }
        sweep.factor(l_inv)
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
            sweep.accumulate(&x, &g, 1, eta, &mut scores);
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
        let (r_inv_t, n_inv) = sweep.triangles();
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
        sweep.accumulate(&Matrix::zeros(0, 4), &Matrix::zeros(0, 1), 0, 1.0, &mut []);
        let mut scores = vec![3.0; 5];
        sweep.accumulate(&lcg(5, 4, 3), &Matrix::zeros(5, 1), 0, 1.0, &mut scores);
        assert_eq!(scores, vec![3.0; 5]);
    }
}
