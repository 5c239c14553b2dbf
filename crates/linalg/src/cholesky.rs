//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used for: the `d × d` preconditioner blocks of Definition 1 (Line 5 of
//! Algorithm 2, factored and solved [`Scalar::BLOCK_LANES`] blocks at a
//! time by [`CholeskyBlocks`]), the whitening transform `Σ_⋄^{-1/2}`
//! factors, and the dense solves inside Exact-FIRAL.

use crate::counters;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd::{self, Tier};
use crate::sweep::grown;
use crate::{LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky<T: Scalar> {
    l: Matrix<T>,
}

impl<T: Scalar> Cholesky<T> {
    /// Factor an SPD matrix. Fails with [`LinalgError::NotPositiveDefinite`]
    /// on a non-positive pivot.
    pub fn new(a: &Matrix<T>) -> Result<Self> {
        Self::factor(a, T::ZERO)
    }

    /// Factor `A + ridge·I` (numerical safety net for nearly singular sums
    /// of Hessians; `ridge = 0` by convention in the main algorithms).
    ///
    /// The ridge is folded into the diagonal reads of the factorization
    /// loop, so the semidefinite-rescue path pays no `O(d²)` copy of `A`.
    /// The result is bitwise identical to factoring an explicit
    /// `A + ridge·I` (the fold adds `ridge` to `A[(i,i)]` before any other
    /// arithmetic touches the pivot, exactly as `add_diag` would).
    pub fn new_with_ridge(a: &Matrix<T>, ridge: T) -> Result<Self> {
        Self::factor(a, ridge)
    }

    /// Copy the lower triangle of `A` (plus a non-zero `ridge` on the
    /// diagonal) and factor the copy with [`factor_lower_in_place`];
    /// `ridge == 0` takes the exact bits of the ridge-free factor.
    fn factor(a: &Matrix<T>, ridge: T) -> Result<Self> {
        let n = a.rows();
        assert_eq!(a.rows(), a.cols(), "Cholesky needs a square matrix");
        let mut l = Matrix::<T>::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
            if ridge != T::ZERO {
                l[(i, i)] += ridge;
            }
        }
        factor_lower_in_place(l.as_mut_slice(), n, n)?;
        Ok(Self { l })
    }

    /// Rank-1 update: refactor `L` in place so that `L Lᵀ = A + x xᵀ`,
    /// where `A` is the currently factored matrix.
    ///
    /// Classic Givens-style column sweep in `O(n²)` (vs. `O(n³/3)` for a
    /// fresh factor). The sweep is strictly sequential in `k` with unfused
    /// mul-then-add arithmetic, so the result is a pure function of the
    /// input bits — identical across threads, SIMD tiers, and ranks.
    pub fn update(&mut self, x: &[T]) {
        let n = self.order();
        assert_eq!(x.len(), n, "Cholesky::update dimension mismatch");
        counters::add_flops(4 * n * n / 2 + 4 * n);
        let mut w = x.to_vec();
        for k in 0..n {
            let lkk = self.l[(k, k)];
            let r = lkk.hypot(w[k]);
            let c = r / lkk;
            let s = w[k] / lkk;
            self.l[(k, k)] = r;
            for i in (k + 1)..n {
                let lik = (self.l[(i, k)] + s * w[i]) / c;
                self.l[(i, k)] = lik;
                w[i] = c * w[i] - s * lik;
            }
        }
    }

    /// Rank-1 downdate: refactor `L` in place so that `L Lᵀ = A − x xᵀ`.
    ///
    /// Hyperbolic-rotation column sweep, `O(n²)`. Fails with
    /// [`LinalgError::NotPositiveDefinite`] when the downdate destroys
    /// positive definiteness (the subtracted matrix is only guaranteed
    /// semidefinite); **on error the factor is left partially mutated and
    /// must not be reused** — callers recover by refactoring from scratch,
    /// conventionally via [`Cholesky::new_with_ridge`] on the downdated
    /// matrix (the documented ridge-refactor fallback used by
    /// `firal_core::stream`). Same sequential determinism contract as
    /// [`Cholesky::update`].
    pub fn downdate(&mut self, x: &[T]) -> Result<()> {
        let n = self.order();
        assert_eq!(x.len(), n, "Cholesky::downdate dimension mismatch");
        counters::add_flops(4 * n * n / 2 + 4 * n);
        let mut w = x.to_vec();
        for k in 0..n {
            let lkk = self.l[(k, k)];
            let r2 = (lkk - w[k]) * (lkk + w[k]);
            if r2 <= T::ZERO || !r2.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: k });
            }
            let r = r2.sqrt();
            let c = r / lkk;
            let s = w[k] / lkk;
            self.l[(k, k)] = r;
            for i in (k + 1)..n {
                let lik = (self.l[(i, k)] - s * w[i]) / c;
                self.l[(i, k)] = lik;
                w[i] = c * w[i] - s * lik;
            }
        }
        Ok(())
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix<T> {
        &self.l
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` (forward then backward substitution).
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// In-place `A x = b` solve: [`Cholesky::solve_panel_in_place`] on a
    /// one-column panel.
    pub fn solve_in_place(&self, x: &mut [T]) {
        self.solve_panel_in_place(x, 1);
    }

    /// In-place `A X = B` solve on an `n × s` row-major panel (`x` holds
    /// `B` on entry, `X` on return): forward then back substitution, per
    /// element one accumulator over `k` ascending, then divided by the
    /// pivot. This is the one-lane instance of the loop [`CholeskyBlocks`]
    /// runs one block per lane, so every column is bit for bit
    /// [`Cholesky::solve_in_place`] of that column.
    pub fn solve_panel_in_place(&self, x: &mut [T], s: usize) {
        let n = self.order();
        assert_eq!(x.len(), n * s, "Cholesky::solve_panel dimension mismatch");
        counters::add_flops(2 * n * n * s);
        solve_panel_lanes(
            self.l.as_slice().as_chunks::<1>().0,
            n,
            x.as_chunks_mut::<1>().0,
            s,
        );
    }

    /// Solve `A X = B` column-by-column for a multi-RHS panel.
    pub fn solve_mat(&self, b: &Matrix<T>) -> Matrix<T> {
        let n = self.order();
        assert_eq!(b.rows(), n, "Cholesky::solve_mat dimension mismatch");
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![T::ZERO; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            self.solve_in_place(&mut col);
            out.set_col(j, &col);
        }
        out
    }

    /// Solve `A X = Bᵀ` without materializing the transpose: row `j` of `B`
    /// is consumed directly as right-hand-side column `j`. Saves the
    /// `O(rows·cols)` transpose copy that `solve_mat(&b.transpose())` pays
    /// on hot paths (e.g. Exact-FIRAL's per-iteration `Σ⁻¹(Σ⁻¹H_p)ᵀ`).
    pub fn solve_mat_t(&self, b: &Matrix<T>) -> Matrix<T> {
        let n = self.order();
        assert_eq!(b.cols(), n, "Cholesky::solve_mat_t dimension mismatch");
        let mut out = Matrix::zeros(n, b.rows());
        let mut col = vec![T::ZERO; n];
        for j in 0..b.rows() {
            col.copy_from_slice(b.row(j));
            self.solve_in_place(&mut col);
            out.set_col(j, &col);
        }
        out
    }

    /// Forward substitution only: solve `L y = b`.
    pub fn solve_l(&self, b: &[T]) -> Vec<T> {
        let n = self.order();
        assert_eq!(b.len(), n);
        counters::add_flops(n * n);
        let mut y = b.to_vec();
        for i in 0..n {
            let li = self.l.row(i);
            let mut acc = y[i];
            for k in 0..i {
                acc -= li[k] * y[k];
            }
            y[i] = acc / li[i];
        }
        y
    }

    /// Explicit inverse `A^{-1}` (the paper's `cupy.linalg.inv` on the
    /// block diagonals; only ever called on `d × d` blocks): one panel solve
    /// against the identity, so all `n` columns advance together over
    /// contiguous rows. Column `j` is bit for bit [`Cholesky::solve`] of
    /// `e_j` (the [`Cholesky::solve_panel_in_place`] contract), and that
    /// panel solve is the only flop counter charged.
    pub fn inverse(&self) -> Matrix<T> {
        let n = self.order();
        let mut inv = Matrix::identity(n);
        self.solve_panel_in_place(inv.as_mut_slice(), n);
        // Clean up asymmetry from rounding.
        inv.symmetrize();
        inv
    }
}

/// Cholesky factorization in place on the lower triangle of a row-major
/// `n × n` matrix with row stride `ld`: on entry the lower triangle of an
/// SPD `A`, on `Ok` the factor `L` (`A = L Lᵀ`). Nothing above the diagonal
/// is read or written. Fails with [`LinalgError::NotPositiveDefinite`] on a
/// non-positive pivot, leaving the triangle partially factored.
///
/// Per element `L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j]`,
/// the subtractions `k`-ascending — the one factorization loop of the
/// crate ([`Cholesky::new`] runs it on a copy, the grouped `M_k` chain of
/// [`crate::QuadSweep::factor_group`] and [`CholeskyBlocks`] on `L`
/// interleaved blocks).
pub(crate) fn factor_lower_in_place<T: Scalar>(a: &mut [T], ld: usize, n: usize) -> Result<()> {
    check_square(a.len(), ld, n);
    counters::add_flops(n * n * n / 3);
    match factor_lower_lanes(a.as_chunks_mut::<1>().0, ld, n)[0] {
        Some(pivot) => Err(LinalgError::NotPositiveDefinite { pivot }),
        None => Ok(()),
    }
}

/// [`factor_lower_in_place`] on `L` matrices at once, one lane each
/// (element `(i, j)` of lane `l` is `a[i·ld + j][l]`), each lane exactly
/// the one-matrix loop. Returns each lane's failing pivot: a lane that
/// fails goes on computing garbage its caller must not read, and the loop
/// stops once every lane has failed (for one lane: at the failing pivot,
/// before it is written). Books no flops; the callers do.
#[inline(always)]
pub(crate) fn factor_lower_lanes<T: Scalar, const L: usize>(
    a: &mut [[T; L]],
    ld: usize,
    n: usize,
) -> [Option<usize>; L] {
    check_square(a.len(), ld, n);
    let mut failed = [None; L];
    for i in 0..n {
        let (above, rest) = a.split_at_mut(i * ld);
        let li = &mut rest[..=i];
        for j in 0..i {
            let lj = &above[j * ld..j * ld + j + 1];
            let mut acc = li[j];
            for (&x, &y) in li[..j].iter().zip(lj) {
                for l in 0..L {
                    acc[l] -= x[l] * y[l];
                }
            }
            let ljj = lj[j];
            for l in 0..L {
                acc[l] /= ljj[l];
            }
            li[j] = acc;
        }
        let mut acc = li[i];
        for &x in &li[..i] {
            for l in 0..L {
                acc[l] -= x[l] * x[l];
            }
        }
        for l in 0..L {
            if failed[l].is_none() && (acc[l] <= T::ZERO || !acc[l].is_finite()) {
                failed[l] = Some(i);
            }
        }
        if failed.iter().all(Option::is_some) {
            break;
        }
        li[i] = acc.map(T::sqrt);
    }
    failed
}

/// `out ← L⁻¹` for a lower-triangular `L` with a non-zero diagonal: both
/// row-major `n × n` with row strides `ldl`, `ldo`; only the lower
/// triangles are read and written. Forward substitution on the lower
/// triangle of `I`, all columns advancing together along contiguous rows
/// (`n³/3` flops against the `n³` of `n` separate solves).
///
/// Column `j` is bit for bit [`Cholesky::solve_l`] of `e_j`: per element
/// the same `k`-ascending subtractions from the same start, minus the
/// leading terms whose `L⁻¹` factor is an exact zero — each would subtract
/// `±0`, which changes no accumulator.
pub fn invert_lower<T: Scalar>(l: &[T], ldl: usize, out: &mut [T], ldo: usize, n: usize) {
    check_square(l.len(), ldl, n);
    check_square(out.len(), ldo, n);
    counters::add_flops(n * n * n / 3);
    invert_lower_lanes(
        l.as_chunks::<1>().0,
        ldl,
        out.as_chunks_mut::<1>().0,
        ldo,
        n,
    );
}

/// [`invert_lower`] on `L` triangles at once (the lane layout of
/// [`factor_lower_lanes`]), each lane exactly the one-matrix loop. Books
/// no flops.
#[inline(always)]
pub(crate) fn invert_lower_lanes<T: Scalar, const L: usize>(
    l: &[[T; L]],
    ldl: usize,
    out: &mut [[T; L]],
    ldo: usize,
    n: usize,
) {
    for i in 0..n {
        let li = &l[i * ldl..i * ldl + i + 1];
        let (above, rest) = out.split_at_mut(i * ldo);
        let xi = &mut rest[..=i];
        xi.fill([T::ZERO; L]);
        xi[i] = [T::ONE; L];
        for (k, &lik) in li[..i].iter().enumerate() {
            let xk = &above[k * ldo..k * ldo + k + 1];
            for (x, &y) in xi.iter_mut().zip(xk) {
                let mut v = *x;
                for l in 0..L {
                    v[l] -= lik[l] * y[l];
                }
                *x = v;
            }
        }
        let lii = li[i];
        for x in xi.iter_mut() {
            let mut v = *x;
            for l in 0..L {
                v[l] /= lii[l];
            }
            *x = v;
        }
    }
}

/// `X ← A⁻¹X` for `L` factored matrices at once, one lane each (the lane
/// layout of [`factor_lower_lanes`], row stride `n`), on their `n × s`
/// row-major panels interleaved the same way: `L Y = B`, then `Lᵀ X = Y`.
/// Per element one accumulator starts at the right-hand side, takes its
/// subtractions `k` ascending, and is divided by the pivot; columns go in
/// tiles, so independent accumulators share each factor load. Books no
/// flops.
#[inline(always)]
pub(crate) fn solve_panel_lanes<T: Scalar, const L: usize>(
    l: &[[T; L]],
    n: usize,
    x: &mut [[T; L]],
    s: usize,
) {
    check_square(l.len(), n, n);
    assert_eq!(x.len(), n * s, "panel solve: {} lanes for {n}x{s}", x.len());
    for i in 0..n {
        let li = &l[i * n..i * n + i + 1];
        substitute_row(x, s, i, li[i], li[..i].iter().copied().enumerate());
    }
    for i in (0..n).rev() {
        let below = (i + 1..n).map(|k| (k, l[k * n + i]));
        substitute_row(x, s, i, l[i * n + i], below);
    }
}

/// Row `i` of a panel substitution: `x[i][j] ← (x[i][j] − Σ c_k·x[k][j]) /
/// pivot` over the `(k, c_k)` of `terms`, in their order, every column.
/// The columns go in the fewest tiles of at most eight, of near-equal
/// widths, so that no tile is left with one latency-bound accumulator.
#[inline(always)]
fn substitute_row<T: Scalar, const L: usize>(
    x: &mut [[T; L]],
    s: usize,
    i: usize,
    pivot: [T; L],
    terms: impl Iterator<Item = (usize, [T; L])> + Clone,
) {
    let width = s.div_ceil(s.div_ceil(8).max(1));
    let mut j = 0;
    while j < s {
        let w = width.min(s - j);
        let t = terms.clone();
        match w {
            8 => substitute_tile::<T, L, 8>(x, s, i, j, pivot, t),
            7 => substitute_tile::<T, L, 7>(x, s, i, j, pivot, t),
            6 => substitute_tile::<T, L, 6>(x, s, i, j, pivot, t),
            5 => substitute_tile::<T, L, 5>(x, s, i, j, pivot, t),
            4 => substitute_tile::<T, L, 4>(x, s, i, j, pivot, t),
            3 => substitute_tile::<T, L, 3>(x, s, i, j, pivot, t),
            2 => substitute_tile::<T, L, 2>(x, s, i, j, pivot, t),
            _ => substitute_tile::<T, L, 1>(x, s, i, j, pivot, t),
        }
        j += w;
    }
}

/// [`substitute_row`] on columns `j0..j0 + W`, the accumulators in
/// registers.
#[inline(always)]
fn substitute_tile<T: Scalar, const L: usize, const W: usize>(
    x: &mut [[T; L]],
    s: usize,
    i: usize,
    j0: usize,
    pivot: [T; L],
    terms: impl Iterator<Item = (usize, [T; L])>,
) {
    let mut acc: [[T; L]; W] = std::array::from_fn(|w| x[i * s + j0 + w]);
    for (k, c) in terms {
        let xk = &x[k * s + j0..k * s + j0 + W];
        for (a, v) in acc.iter_mut().zip(xk) {
            for l in 0..L {
                a[l] -= c[l] * v[l];
            }
        }
    }
    for (dst, a) in x[i * s + j0..i * s + j0 + W].iter_mut().zip(acc) {
        *dst = std::array::from_fn(|l| a[l] / pivot[l]);
    }
}

/// The Cholesky factors of equal-order SPD blocks (the `B(Σ_z)` blocks of
/// the RELAX preconditioner), [`Scalar::BLOCK_LANES`] blocks per lane
/// group: block `k` is lane `k mod L` of group `k / L`, and both the
/// factorization (the loop of [`Cholesky::new`]) and the panel solve run
/// every lane of a group in lockstep (`crate::simd::run_lanes`; the
/// `crate::eigen` module docs have the scheme). Spare lanes of the last
/// group hold the identity. Each block's factor is bit for bit
/// [`Cholesky::new_with_ridge`]'s, and each solve bit for bit
/// [`Cholesky::solve_panel_in_place`]'s.
#[derive(Debug)]
pub struct CholeskyBlocks<T: Scalar> {
    tier: Tier,
    d: usize,
    nblocks: usize,
    /// The groups' lower triangles, `d·d·L` elements each, lanes
    /// interleaved; nothing above a diagonal is read.
    factors: Vec<T>,
    /// One group's gathered `d × s` panel, `d·s·L` elements, sized by the
    /// first solve.
    panel: Vec<T>,
}

impl<T: Scalar> CholeskyBlocks<T> {
    /// Factor `blocks[k] + ridge·I` for every `k` on the process-wide
    /// dispatch tier, the ridge folded into the diagonal as
    /// [`Cholesky::new_with_ridge`] folds it. Every group is factored, and
    /// `d³/3` flops are booked per block; fails with the pivot of the
    /// first block (in block order) that is not positive definite.
    pub fn new(blocks: &[Matrix<T>], ridge: T) -> Result<Self> {
        let d = blocks.first().map_or(0, Matrix::rows);
        for b in blocks {
            assert_eq!(b.shape(), (d, d), "CholeskyBlocks: blocks are not d × d");
        }
        let mut this = Self {
            tier: simd::active_tier(),
            d,
            nblocks: blocks.len(),
            factors: Vec::new(),
            panel: Vec::new(),
        };
        counters::add_flops(blocks.len() * (d * d * d / 3));
        match T::BLOCK_LANES {
            8 => this.factor::<8>(blocks, ridge),
            4 => this.factor::<4>(blocks, ridge),
            lanes => unreachable!("no {lanes}-lane instantiation"),
        }?;
        Ok(this)
    }

    fn factor<const L: usize>(&mut self, blocks: &[Matrix<T>], ridge: T) -> Result<()> {
        let d = self.d;
        if d == 0 {
            return Ok(());
        }
        self.factors = vec![T::ZERO; blocks.len().div_ceil(L) * d * d * L];
        let (lanes, _) = self.factors.as_chunks_mut::<L>();
        let mut first_failure = None;
        for (a, group) in lanes.chunks_mut(d * d).zip(blocks.chunks(L)) {
            for i in 0..d {
                for j in 0..=i {
                    for (l, v) in a[i * d + j].iter_mut().enumerate() {
                        *v = match group.get(l) {
                            Some(b) if i == j && ridge != T::ZERO => b[(i, i)] + ridge,
                            Some(b) => b[(i, j)],
                            // Spare lanes factor the identity, and idle.
                            None => T::from_usize((i == j) as usize),
                        };
                    }
                }
            }
            let mut failed = [None; L];
            let body = FactorLanes {
                a,
                d,
                failed: &mut failed,
            };
            simd::run_lanes::<T>(self.tier, body);
            first_failure = first_failure.or(failed.into_iter().flatten().next());
        }
        match first_failure {
            Some(pivot) => Err(LinalgError::NotPositiveDefinite { pivot }),
            None => Ok(()),
        }
    }

    /// `X ← A⁻¹X` for the block-diagonal `A` on an `(nblocks·d) × s`
    /// row-major panel, block `k` on rows `k·d..(k+1)·d`: per group the
    /// blocks' rows are gathered into one lane each, solved by the loop of
    /// [`Cholesky::solve_panel_in_place`] and scattered back. Books
    /// `2·d²·s` flops per block. Allocates only when `s` grows.
    pub fn solve_panel_in_place(&mut self, x: &mut [T], s: usize) {
        assert_eq!(
            x.len(),
            self.nblocks * self.d * s,
            "CholeskyBlocks: panel is not (nblocks·d) × s"
        );
        counters::add_flops(self.nblocks * 2 * self.d * self.d * s);
        match T::BLOCK_LANES {
            8 => self.solve::<8>(x, s),
            4 => self.solve::<4>(x, s),
            lanes => unreachable!("no {lanes}-lane instantiation"),
        }
    }

    fn solve<const L: usize>(&mut self, x: &mut [T], s: usize) {
        let (d, tier) = (self.d, self.tier);
        if d == 0 || s == 0 {
            return;
        }
        let (panel, _) = grown(&mut self.panel, d * s * L).as_chunks_mut::<L>();
        let (factors, _) = self.factors.as_chunks::<L>();
        for (l, rows) in factors.chunks(d * d).zip(x.chunks_mut(L * d * s)) {
            // A last group short of `L` blocks: its spare lanes solve zeros.
            if rows.len() < L * d * s {
                panel.fill([T::ZERO; L]);
            }
            for (lane, block) in rows.chunks(d * s).enumerate() {
                for (p, &v) in panel.iter_mut().zip(block) {
                    p[lane] = v;
                }
            }
            simd::run_lanes::<T>(tier, SolveLanes { l, d, x: panel, s });
            for (lane, block) in rows.chunks_mut(d * s).enumerate() {
                for (v, p) in block.iter_mut().zip(panel.iter()) {
                    *v = p[lane];
                }
            }
        }
    }
}

/// [`factor_lower_lanes`] on one group, as a lane body.
struct FactorLanes<'a, T, const L: usize> {
    a: &'a mut [[T; L]],
    d: usize,
    failed: &'a mut [Option<usize>; L],
}

impl<T: Scalar, const L: usize> simd::LaneBody for FactorLanes<'_, T, L> {
    #[inline(always)]
    fn run(self) {
        *self.failed = factor_lower_lanes(self.a, self.d, self.d);
    }
}

/// [`solve_panel_lanes`] on one group, as a lane body.
struct SolveLanes<'a, T, const L: usize> {
    l: &'a [[T; L]],
    d: usize,
    x: &'a mut [[T; L]],
    s: usize,
}

impl<T: Scalar, const L: usize> simd::LaneBody for SolveLanes<'_, T, L> {
    #[inline(always)]
    fn run(self) {
        solve_panel_lanes(self.l, self.d, self.x, self.s);
    }
}

/// A row-major `n × n` matrix of row stride `ld` must fit in `len` elements.
fn check_square(len: usize, ld: usize, n: usize) {
    assert!(
        n == 0 || (ld >= n && (n - 1) * ld + n <= len),
        "triangular operand: {len} elements cannot hold {n}x{n} at stride {ld}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_test_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        // A = B Bᵀ + n·I is SPD
        let mut a = crate::gemm::gemm_a_bt(&b, &b);
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_test_matrix(8, 1);
        let ch = Cholesky::new(&a).unwrap();
        let r = crate::gemm::gemm_a_bt(ch.l(), ch.l());
        let mut diff: f64 = 0.0;
        for i in 0..8 {
            for j in 0..8 {
                diff = diff.max((r[(i, j)] - a[(i, j)]).abs());
            }
        }
        assert!(diff < 1e-10, "max diff {diff}");
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd_test_matrix(10, 2);
        let ch = Cholesky::new(&a).unwrap();
        let x_true: Vec<f64> = (0..10).map(|i| i as f64 - 4.5).collect();
        let b = a.matvec(&x_true);
        let x = ch.solve(&b);
        let err: f64 = x
            .iter()
            .zip(x_true.iter())
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "max err {err}");
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_test_matrix(7, 4);
        let inv = Cholesky::new(&a).unwrap().inverse();
        let p = crate::gemm::gemm(&inv, &a);
        for i in 0..7 {
            for j in 0..7 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (p[(i, j)] - expect).abs() < 1e-8,
                    "({i},{j}) = {}",
                    p[(i, j)]
                );
            }
        }
    }

    #[test]
    fn inverse_is_bitwise_the_column_by_column_solve() {
        fn check<T: Scalar>(a: &Matrix<T>) {
            let n = a.rows();
            let ch = Cholesky::new(a).unwrap();
            let mut by_column = Matrix::zeros(n, n);
            for j in 0..n {
                let mut e = vec![T::ZERO; n];
                e[j] = T::ONE;
                ch.solve_in_place(&mut e);
                by_column.set_col(j, &e);
            }
            by_column.symmetrize();
            assert!(
                ch.inverse().as_slice() == by_column.as_slice(),
                "panel inverse drifted from the column loop at n = {n}"
            );
        }
        for n in [1usize, 3, 20, 50] {
            let a = spd_test_matrix(n, 40 + n as u64);
            check(&a);
            check(&a.cast::<f32>());
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let mut a = Matrix::<f64>::identity(3);
        a[(2, 2)] = -1.0;
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        ));
    }

    #[test]
    fn ridge_rescues_semidefinite() {
        let mut a = Matrix::<f64>::zeros(3, 3);
        a[(0, 0)] = 1.0; // rank-1 PSD
        assert!(Cholesky::new(&a).is_err());
        assert!(Cholesky::new_with_ridge(&a, 1e-6).is_ok());
    }

    #[test]
    fn solve_mat_matches_columnwise() {
        let a = spd_test_matrix(5, 6);
        let ch = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        let x = ch.solve_mat(&b);
        for j in 0..3 {
            let xj = ch.solve(&b.col(j));
            for i in 0..5 {
                assert!((x[(i, j)] - xj[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ridge_on_the_fly_is_bitwise_equal_to_explicit_add_diag() {
        for seed in 0..8u64 {
            let a = spd_test_matrix(6, 100 + seed);
            let ridge = 1e-3 * (seed + 1) as f64;
            let fused = Cholesky::new_with_ridge(&a, ridge).unwrap();
            let mut ar = a.clone();
            ar.add_diag(ridge);
            let explicit = Cholesky::new(&ar).unwrap();
            for i in 0..6 {
                for j in 0..6 {
                    assert!(
                        fused.l()[(i, j)] == explicit.l()[(i, j)],
                        "ridge fold must be bitwise at ({i},{j}), seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_one_update_matches_fresh_factor() {
        let n = 7;
        let a = spd_test_matrix(n, 11);
        let x: Vec<f64> = (0..n).map(|i| 0.3 * (i as f64) - 1.0).collect();
        let mut ch = Cholesky::new(&a).unwrap();
        ch.update(&x);
        let mut ax = a.clone();
        for i in 0..n {
            for j in 0..n {
                ax[(i, j)] += x[i] * x[j];
            }
        }
        let fresh = Cholesky::new(&ax).unwrap();
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (ch.l()[(i, j)] - fresh.l()[(i, j)]).abs() < 1e-10,
                    "update drift at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn downdate_inverts_update() {
        let n = 6;
        let a = spd_test_matrix(n, 12);
        let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64).sin()).collect();
        let mut ch = Cholesky::new(&a).unwrap();
        ch.update(&x);
        ch.downdate(&x).unwrap();
        let fresh = Cholesky::new(&a).unwrap();
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (ch.l()[(i, j)] - fresh.l()[(i, j)]).abs() < 1e-9,
                    "roundtrip drift at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn downdate_to_semidefinite_is_a_structured_error() {
        // A = I₃; removing e₂e₂ᵀ zeroes the last pivot exactly.
        let a = Matrix::<f64>::identity(3);
        let mut ch = Cholesky::new(&a).unwrap();
        assert_eq!(
            ch.downdate(&[0.0, 0.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        );
        // Documented recovery: refactor the true downdated matrix with a
        // ridge instead of reusing the poisoned factor.
        let mut down = a.clone();
        down[(2, 2)] = 0.0;
        assert!(Cholesky::new(&down).is_err());
        assert!(Cholesky::new_with_ridge(&down, 1e-8).is_ok());
    }

    /// Property test: 500 seeded cases of updates/downdates composed in
    /// random order must match a fresh factor of the mutated matrix.
    #[test]
    fn random_update_downdate_compositions_match_fresh_factor() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for case in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(0xC0DE_D00D ^ case);
            let n = rng.gen_range(1..=8usize);
            let a = spd_test_matrix(n, 1000 + case);
            let mut ch = Cholesky::new(&a).unwrap();
            let mut mirror = a.clone();
            // Vectors currently added on top of the base matrix; downdates
            // only ever remove one of these, so the mirror stays SPD.
            let mut live: Vec<Vec<f64>> = Vec::new();
            let ops = rng.gen_range(1..=8usize);
            for _ in 0..ops {
                let remove = !live.is_empty() && rng.gen::<bool>();
                let x = if remove {
                    live.swap_remove(rng.gen_range(0..live.len()))
                } else {
                    let x: Vec<f64> = (0..n).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect();
                    live.push(x.clone());
                    x
                };
                let sign = if remove { -1.0 } else { 1.0 };
                for i in 0..n {
                    for j in 0..n {
                        mirror[(i, j)] += sign * x[i] * x[j];
                    }
                }
                if remove {
                    ch.downdate(&x)
                        .expect("mirror is SPD, downdate must succeed");
                } else {
                    ch.update(&x);
                }
            }
            let fresh = Cholesky::new(&mirror).expect("mirror is SPD");
            let scale: f64 = (0..n).map(|i| mirror[(i, i)].abs()).fold(1.0, f64::max);
            for i in 0..n {
                for j in 0..n {
                    let diff = (ch.l()[(i, j)] - fresh.l()[(i, j)]).abs();
                    assert!(
                        diff < 1e-8 * scale,
                        "case {case}: drift {diff} at ({i},{j}), n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_mat_t_equals_solve_of_explicit_transpose() {
        let a = spd_test_matrix(5, 7);
        let ch = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(4, 5, |i, j| (2 * i + 3 * j) as f64 - 6.0);
        let fused = ch.solve_mat_t(&b);
        let explicit = ch.solve_mat(&b.transpose());
        assert_eq!(fused.shape(), (5, 4));
        for i in 0..5 {
            for j in 0..4 {
                assert!((fused[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }
    #[test]
    fn invert_lower_is_solve_l_of_the_identity_bit_for_bit() {
        for n in [1usize, 3, 20, 50] {
            let ch = Cholesky::new(&spd_test_matrix(n, 40 + n as u64)).unwrap();
            // A strided destination whose padding must stay untouched.
            let ld = n + 3;
            let mut inv = vec![f64::NAN; n * ld];
            invert_lower(ch.l().as_slice(), n, &mut inv, ld, n);
            for j in 0..n {
                let mut unit = vec![0.0; n];
                unit[j] = 1.0;
                let col = ch.solve_l(&unit);
                for i in j..n {
                    assert_eq!(
                        inv[i * ld + j].to_bits(),
                        col[i].to_bits(),
                        "n={n} entry ({i},{j})"
                    );
                }
                assert!(
                    col[..j].iter().all(|&v| v == 0.0),
                    "L⁻¹ is lower triangular"
                );
            }
            for i in 0..n {
                assert!(inv[i * ld + i + 1..(i + 1) * ld].iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn factor_in_place_matches_the_owned_factor_and_reports_the_pivot() {
        let n = 9;
        let a = spd_test_matrix(n, 77);
        let ch = Cholesky::new(&a).unwrap();
        let ld = n + 2;
        let mut buf = vec![f64::NAN; n * ld];
        for i in 0..n {
            buf[i * ld..i * ld + i + 1].copy_from_slice(&a.row(i)[..=i]);
        }
        factor_lower_in_place(&mut buf, ld, n).unwrap();
        for i in 0..n {
            for j in 0..=i {
                assert_eq!(buf[i * ld + j].to_bits(), ch.l()[(i, j)].to_bits());
            }
            assert!(buf[i * ld + i + 1..(i + 1) * ld].iter().all(|v| v.is_nan()));
        }
        let mut bad = vec![1.0, 0.0, 2.0, 1.0];
        assert_eq!(
            factor_lower_in_place(&mut bad, 2, 2),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        );
    }
}
