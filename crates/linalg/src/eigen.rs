//! Symmetric eigensolvers.
//!
//! The ROUND step needs eigenvalues of the (whitened) accumulated Hessian
//! blocks at every iteration (Line 9 of Algorithm 3, `cupy.linalg.eigvalsh`
//! in the paper) and Exact-FIRAL needs full eigendecompositions for
//! `Σ_⋄^{-1/2}` and the FTRL update. Two implementations are provided:
//!
//! * [`eigh`] — Householder tridiagonalization followed by implicit-shift
//!   QL (the classical EISPACK `tred2`/`tql2` pair). `O(d³)` with a small
//!   constant.
//! * [`eigvalsh_blocks`]/[`eigvalsh`] — the same two steps, values only,
//!   on a group of blocks in SIMD lockstep (below); the production path.
//! * [`jacobi_eigh`] — cyclic Jacobi rotations. Slower but independently
//!   derived; used as a cross-check oracle in tests.
//!
//! Eigenvalues are returned in ascending order; eigenvectors are the
//! *columns* of the returned matrix.
//!
//! Every entry point reads the **lower triangle** of their argument only.
//! That is part of the contract: `BlockDiag::rank_one_update` produces
//! blocks whose two triangles differ in the last bit
//! (`(g·x_a)·x_b ≠ (g·x_b)·x_a`), and the §IV-A η criterion is an argmax
//! over such spectra.
//!
//! # The values-only path: one lane per block
//!
//! [`eigvalsh_blocks`] (and [`eigvalsh`], a group of one) does not run
//! `tred2`/`tql2`. Line 9 solves `c − 1` independent `d × d` problems per
//! pick, and one block's `tql2` is a latency-bound scalar chain (a
//! `hypot`, two divides and a handful of products per rotation, each
//! waiting on the last). So blocks go in groups of
//! [`Scalar::BLOCK_LANES`] (8 `f32`, 4 `f64`), interleaved so that element
//! `(i, j)` of the group is one `[T; L]` — lane `l` is block `l` — and every
//! step of the reduction and of the QL sweep is one operation on all `L`
//! blocks. The lanes are plain fixed-width arrays, compiled under the
//! active tier's target features through the SIMD dispatch seam so they
//! vectorise at its width; Rust neither contracts nor reassociates them, so
//! multiply-then-add stays unfused and every tier gives the same bits.
//!
//! * **Reduction.** Without the transform to accumulate, `tred2`'s work is
//!   a symmetric matvec and a rank-two update per Householder step, both
//!   written against the lower triangle — so half of the matvec walks a
//!   column with stride `d`. `tridiagonalize_lanes` mirrors the lower
//!   triangle up once and then does the same arithmetic over full,
//!   contiguous rows: the matvec as row AXPYs, the update on whole rows.
//!   Every output element sees the products `tred2` forms, added in
//!   `tred2`'s `k`-ascending order.
//! * **QL.** `tql_lanes` is `tql2` without vectors, lane by lane.
//! * **Masks.** What `tred2`/`tql2` decide per block — a `scale == 0`
//!   Householder row, each block's split point and sweep count, the early
//!   exit on `r == 0` — is a per-lane mask: a masked lane writes nothing.
//!   `hypot` is [`Scalar::hypot`], the same function in a lane as in the
//!   scalar code (for `f32` the crate's own formula, not the host libm).
//!
//! So each block's spectrum is **bit for bit `tred2(.., false)` + `tql2`'s**
//! whatever group it lands in, at which lane, beside which neighbours
//! (pinned here and by `tests/block_lanes.rs`). Scratch is one group,
//! `O(L·d²)`, never `O(c·d²)`.

use crate::counters;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd;
use crate::{LinalgError, Result};

/// Result of a symmetric eigendecomposition: `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct EigDecomposition<T: Scalar> {
    /// Eigenvalues in ascending order.
    pub values: Vec<T>,
    /// Orthonormal eigenvectors as columns, ordered to match `values`.
    pub vectors: Matrix<T>,
}

impl<T: Scalar> EigDecomposition<T> {
    /// Reconstruct `f(A) = V diag(f(λ)) Vᵀ` for a scalar function `f`.
    pub fn apply_fn(&self, f: impl Fn(T) -> T) -> Matrix<T> {
        let n = self.values.len();
        let mut scaled = self.vectors.clone(); // columns v_j * f(λ_j)
        for j in 0..n {
            let fj = f(self.values[j]);
            for i in 0..n {
                scaled[(i, j)] *= fj;
            }
        }
        crate::gemm::gemm_a_bt(&scaled, &self.vectors)
    }
}

/// Householder reduction of a real symmetric matrix to tridiagonal form,
/// accumulating the orthogonal transformation when `want_vectors` is set.
/// On return `d` holds the diagonal, `e` the sub-diagonal (in `e[1..]`),
/// and `z` the accumulated transform (or garbage if `!want_vectors`).
fn tred2<T: Scalar>(z: &mut Matrix<T>, d: &mut [T], e: &mut [T], want_vectors: bool) {
    let n = d.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = T::ZERO;
        if l > 0 {
            let mut scale = T::ZERO;
            for k in 0..=l {
                scale += z[(i, k)].abs();
            }
            if scale == T::ZERO {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    let v = z[(i, k)] / scale;
                    z[(i, k)] = v;
                    h += v * v;
                }
                let f = z[(i, l)];
                let g = if f > T::ZERO { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut f_acc = T::ZERO;
                for j in 0..=l {
                    if want_vectors {
                        z[(j, i)] = z[(i, j)] / h;
                    }
                    let mut g_acc = T::ZERO;
                    for k in 0..=j {
                        g_acc += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g_acc += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g_acc / h;
                    f_acc += e[j] * z[(i, j)];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let upd = f * e[k] + g * z[(i, k)];
                        z[(j, k)] -= upd;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    if want_vectors {
        d[0] = T::ZERO;
    }
    e[0] = T::ZERO;

    if want_vectors {
        for i in 0..n {
            if i > 0 && d[i] != T::ZERO {
                for j in 0..i {
                    let mut g = T::ZERO;
                    for k in 0..i {
                        g += z[(i, k)] * z[(k, j)];
                    }
                    for k in 0..i {
                        let upd = g * z[(k, i)];
                        z[(k, j)] -= upd;
                    }
                }
            }
            d[i] = z[(i, i)];
            z[(i, i)] = T::ONE;
            for j in 0..i {
                z[(j, i)] = T::ZERO;
                z[(i, j)] = T::ZERO;
            }
        }
    } else {
        for i in 0..n {
            d[i] = z[(i, i)];
        }
    }
}

/// The values-only Householder reduction behind [`eigvalsh_blocks`], on
/// `L` blocks at once: `tred2` without the transform, over full
/// contiguous rows (see the module docs). `a` is `n × n` elements of one
/// lane per block (element `(i, j)` of block `l` is `a[i·n + j][l]`), lower
/// triangle mirrored up; `d` and `e` hold `n` elements the same way. On
/// return `d` holds the diagonals and `e` the sub-diagonals (in `e[1..]`);
/// `a` is scratch.
///
/// Every lane runs the scalar reduction's operations in its order. The
/// one data-dependent branch, a Householder row with `scale == 0`, is a
/// lane mask: such a lane takes `e[i] = v[i−1]`, and the row update that
/// follows leaves its `A` as it was. The garbage the masked lane computes
/// on the way lands in its row `i` and in `e[..i]`, which nothing reads
/// again.
#[inline(always)]
fn tridiagonalize_lanes<T: Scalar, const L: usize>(
    a: &mut [[T; L]],
    d: &mut [[T; L]],
    e: &mut [[T; L]],
    n: usize,
) {
    // Lane arrays are read into locals and written back whole, so no
    // store can alias a later load and every lane loop is one vector op.
    for i in (1..n).rev() {
        // Row `i` holds the Householder vectors `v`; rows `0..i` are `A`.
        let (lead, tail) = a.split_at_mut(i * n);
        let v = &mut tail[..i];
        let mut scale = [T::ZERO; L];
        if i > 1 {
            for &vk in v.iter() {
                for l in 0..L {
                    scale[l] += vk[l].abs();
                }
            }
        }
        let skip = scale.map(|s| s == T::ZERO);
        e[i] = v[i - 1];
        if skip.iter().all(|&z| z) {
            continue;
        }
        let mut h = [T::ZERO; L];
        for vk in v.iter_mut() {
            let mut x = *vk;
            for l in 0..L {
                x[l] /= scale[l];
                h[l] += x[l] * x[l];
            }
            *vk = x;
        }
        let (f, mut ei, mut vl) = (v[i - 1], e[i], v[i - 1]);
        for l in 0..L {
            let g = if f[l] > T::ZERO {
                -h[l].sqrt()
            } else {
                h[l].sqrt()
            };
            ei[l] = if skip[l] { ei[l] } else { scale[l] * g };
            h[l] -= f[l] * g;
            vl[l] = f[l] - g;
        }
        (e[i], v[i - 1]) = (ei, vl);

        // p = A·v as row AXPYs: p_j gathers A[k][j]·v[k] for k ascending,
        // which is tred2's row-then-column walk with A[j][k] = A[k][j].
        let p = &mut e[..i];
        p.fill([T::ZERO; L]);
        for (row, &vk) in lead.chunks_exact(n).zip(v.iter()) {
            for (pj, &akj) in p.iter_mut().zip(&row[..i]) {
                let mut x = *pj;
                for l in 0..L {
                    x[l] += akj[l] * vk[l];
                }
                *pj = x;
            }
        }
        let mut f_acc = [T::ZERO; L];
        for (pj, &vj) in p.iter_mut().zip(v.iter()) {
            let mut x = *pj;
            for l in 0..L {
                x[l] /= h[l];
                f_acc[l] += x[l] * vj[l];
            }
            *pj = x;
        }
        let mut hh = [T::ZERO; L];
        for l in 0..L {
            hh[l] = f_acc[l] / (h[l] + h[l]);
        }
        for (pj, &vj) in p.iter_mut().zip(v.iter()) {
            let mut x = *pj;
            for l in 0..L {
                x[l] -= hh[l] * vj[l];
            }
            *pj = x;
        }
        // A -= v·qᵀ + q·vᵀ on whole rows. The mirrored entry forms the same
        // two products and adds them in the other order, so symmetry holds
        // to the bit.
        let q = &*p;
        for (row, (&fj, &gj)) in lead.chunks_exact_mut(n).zip(v.iter().zip(q)) {
            for (ajk, (&qk, &vk)) in row[..i].iter_mut().zip(q.iter().zip(v.iter())) {
                let mut x = *ajk;
                for l in 0..L {
                    let upd = x[l] - (fj[l] * qk[l] + gj[l] * vk[l]);
                    x[l] = if skip[l] { x[l] } else { upd };
                }
                *ajk = x;
            }
        }
    }
    e[0] = [T::ZERO; L];
    for i in 0..n {
        d[i] = a[i * n + i];
    }
}

/// `tql2` without vectors on `L` tridiagonals at once (`d`, `e` as
/// [`tridiagonalize_lanes`] leaves them): per lane exactly `tql2`'s
/// operations in `tql2`'s order. Each lane keeps its own place in `tql2`'s
/// loop — the eigenvalue `l` it is converging, that eigenvalue's sweep
/// count and its split point `m` — so a lane that has converged moves on
/// while its neighbours still sweep. A round is one sweep for every lane
/// that needs one: the rotations walk the rows from the highest `m` down
/// to the lowest `l`, and a lane takes part in row `i` only for
/// `l ≤ i < m` and until its own early exit on `r == 0`. Everything a
/// lane does not take part in, it does not write.
#[inline(always)]
fn tql_lanes<T: Scalar, const L: usize>(
    d: &mut [[T; L]],
    e: &mut [[T; L]],
    n: usize,
) -> Result<()> {
    if n == 0 {
        return Ok(());
    }
    e.copy_within(1..n, 0);
    e[n - 1] = [T::ZERO; L];

    // Each lane's `l` and its sweep count. The row positions lanes are
    // tested against (`from`, `mf`, `until`) are values of `T` — exact, `n`
    // being a matrix order — so every lane test is a compare of one type.
    let mut l0 = [0usize; L];
    let mut iter = [0usize; L];
    loop {
        // Each lane's split point: the first small sub-diagonal element at
        // or after its `l`. A lane whose `m` is its `l` has converged that
        // eigenvalue and scans again from the next.
        let m = loop {
            let from = l0.map(T::from_usize);
            let mut mf = [T::from_usize(n - 1); L];
            let mut open = l0.map(|l| l + 1 < n);
            for mm in l0.iter().copied().min().unwrap_or(n)..n - 1 {
                let (dm, dm1, em, at) = (d[mm], d[mm + 1], e[mm], T::from_usize(mm));
                for l in 0..L {
                    let small = em[l].abs() <= T::EPSILON * (dm[l].abs() + dm1[l].abs());
                    let hit = open[l] & small & (at >= from[l]);
                    mf[l] = if hit { at } else { mf[l] };
                    open[l] &= !hit;
                }
                if !open.iter().any(|&o| o) {
                    break;
                }
            }
            let m = mf.map(|v| v.to_f64() as usize);
            let mut again = false;
            for l in 0..L {
                if l0[l] < n && m[l] == l0[l] {
                    l0[l] += 1;
                    iter[l] = 0;
                    again = true;
                }
            }
            if !again {
                break m;
            }
        };
        let act: [bool; L] = std::array::from_fn(|l| l0[l] < n);
        if !act.iter().any(|&a| a) {
            return Ok(());
        }
        for l in 0..L {
            iter[l] += act[l] as usize;
            if iter[l] > 64 {
                return Err(LinalgError::EigenNoConvergence { index: l0[l] });
            }
        }
        // Form each lane's implicit Wilkinson shift.
        let at_l = |v: &[[T; L]], at: [usize; L]| -> [T; L] {
            std::array::from_fn(|l| v[at[l].min(n - 1)][l])
        };
        let (dl, el, dm) = (at_l(d, l0), at_l(e, l0), at_l(d, m));
        let dl1 = at_l(d, l0.map(|l| l + 1));
        let mut g = [T::ZERO; L];
        for l in 0..L {
            let gl = (dl1[l] - dl[l]) / (el[l] + el[l]);
            let r = Scalar::hypot(gl, T::ONE);
            g[l] = dm[l] - dl[l] + el[l] / (gl + r.abs().copysign(gl));
        }
        let mut s = [T::ONE; L];
        let mut c = [T::ONE; L];
        let mut p = [T::ZERO; L];
        // Lane `l` rotates rows `from[l] ≤ i < until[l]`; `until` drops to
        // zero when the lane exits early.
        let from = l0.map(T::from_usize);
        let mut until: [T; L] =
            std::array::from_fn(|l| if act[l] { T::from_usize(m[l]) } else { T::ZERO });
        // Lanes that left the sweep on `r == 0` above their `l`: they skip
        // the closing update and sweep the same `l` again.
        let mut again = [false; L];
        let lo = (0..L).filter(|&l| act[l]).map(|l| l0[l]).min().unwrap_or(0);
        let top = (0..L).filter(|&l| act[l]).map(|l| m[l]).max().unwrap_or(0);
        for i in (lo..top).rev() {
            let at = T::from_usize(i);
            let on: [bool; L] = std::array::from_fn(|l| (at < until[l]) & (at >= from[l]));
            let (ei, di, ei1, di1) = (e[i], d[i], e[i + 1], d[i + 1]);
            let f: [T; L] = std::array::from_fn(|l| s[l] * ei[l]);
            let b: [T; L] = std::array::from_fn(|l| c[l] * ei[l]);
            let r: [T; L] = std::array::from_fn(|l| Scalar::hypot(f[l], g[l]));
            let hit: [bool; L] = std::array::from_fn(|l| on[l] & (r[l] == T::ZERO));
            let go: [bool; L] = std::array::from_fn(|l| on[l] & !hit[l]);
            let sn: [T; L] = std::array::from_fn(|l| f[l] / r[l]);
            let cn: [T; L] = std::array::from_fn(|l| g[l] / r[l]);
            let gn: [T; L] = std::array::from_fn(|l| di1[l] - p[l]);
            let rn: [T; L] =
                std::array::from_fn(|l| (di[l] - gn[l]) * sn[l] + T::TWO * cn[l] * b[l]);
            let pn: [T; L] = std::array::from_fn(|l| sn[l] * rn[l]);
            e[i + 1] = std::array::from_fn(|l| if on[l] { r[l] } else { ei1[l] });
            // On `r == 0` the lane's `d[i+1] -= p`, which is `gn`.
            d[i + 1] = std::array::from_fn(|l| {
                if go[l] {
                    gn[l] + pn[l]
                } else if on[l] {
                    gn[l]
                } else {
                    di1[l]
                }
            });
            s = std::array::from_fn(|l| if go[l] { sn[l] } else { s[l] });
            c = std::array::from_fn(|l| if go[l] { cn[l] } else { c[l] });
            p = std::array::from_fn(|l| if go[l] { pn[l] } else { p[l] });
            g = std::array::from_fn(|l| if go[l] { cn[l] * rn[l] - b[l] } else { g[l] });
            if hit.iter().any(|&h| h) {
                for l in 0..L {
                    if hit[l] {
                        e[m[l]][l] = T::ZERO;
                        until[l] = T::ZERO;
                        again[l] = i > l0[l];
                    }
                }
            }
        }
        for l in 0..L {
            if act[l] && !again[l] {
                d[l0[l]][l] -= p[l];
                e[l0[l]][l] = g[l];
                e[m[l]][l] = T::ZERO;
            }
        }
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
/// `d`: diagonal (in), eigenvalues (out). `e`: sub-diagonal in `e[1..]`.
/// Accumulates rotations into `z` columns when `want_vectors`.
fn tql2<T: Scalar>(z: &mut Matrix<T>, d: &mut [T], e: &mut [T], want_vectors: bool) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = T::ZERO;

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small sub-diagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= T::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 64 {
                return Err(LinalgError::EigenNoConvergence { index: l });
            }
            // Form the implicit Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (e[l] + e[l]);
            let mut r = Scalar::hypot(g, T::ONE);
            g = d[m] - d[l] + e[l] / (g + r.abs().copysign(g));
            let mut s = T::ONE;
            let mut c = T::ONE;
            let mut p = T::ZERO;
            let mut i = m;
            while i > l {
                i -= 1;
                let mut f = s * e[i];
                let b = c * e[i];
                r = Scalar::hypot(f, g);
                e[i + 1] = r;
                if r == T::ZERO {
                    d[i + 1] -= p;
                    e[m] = T::ZERO;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + T::TWO * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if want_vectors {
                    for k in 0..n {
                        f = z[(k, i + 1)];
                        z[(k, i + 1)] = s * z[(k, i)] + c * f;
                        z[(k, i)] = c * z[(k, i)] - s * f;
                    }
                }
            }
            if r == T::ZERO && i > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = T::ZERO;
        }
    }
    Ok(())
}

/// Full symmetric eigendecomposition (values ascending, vectors as columns).
pub fn eigh<T: Scalar>(a: &Matrix<T>) -> Result<EigDecomposition<T>> {
    let n = a.rows();
    assert_eq!(a.rows(), a.cols(), "eigh needs a square matrix");
    counters::add_flops(9 * n * n * n);

    let mut z = a.clone();
    let mut d = vec![T::ZERO; n];
    let mut e = vec![T::ZERO; n];
    tred2(&mut z, &mut d, &mut e, true);
    tql2(&mut z, &mut d, &mut e, true)?;

    // Sort ascending, permuting columns of z.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap_or(std::cmp::Ordering::Equal));
    let values: Vec<T> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (newj, &oldj) in order.iter().enumerate() {
        for i in 0..n {
            vectors[(i, newj)] = z[(i, oldj)];
        }
    }
    Ok(EigDecomposition { values, vectors })
}

/// Eigenvalues only (ascending), from the lower triangle of `a`: a group
/// of one for [`eigvalsh_blocks`].
pub fn eigvalsh<T: Scalar>(a: &Matrix<T>) -> Result<Vec<T>> {
    eigvalsh_blocks(std::slice::from_ref(a))
}

/// Eigenvalues only of every block, each block's ascending, concatenated in
/// block order — the kernel behind Line 9 of Algorithm 3, where only the
/// spectra feed the bisection for `ν_{t+1}`. Reads each block's lower
/// triangle only; all blocks are `n × n`.
///
/// Blocks run in groups of [`Scalar::BLOCK_LANES`], one lane per block
/// (module docs); a last group of one runs at one lane, a last group of
/// two or more at full width with zero blocks in the spare lanes (they
/// reduce and converge without one sweep). Scratch is one group,
/// `(n² + 2n)·BLOCK_LANES` elements, whatever the block count. Each
/// block's spectrum is bit for bit the one-block path's.
pub fn eigvalsh_blocks<T: Scalar>(blocks: &[Matrix<T>]) -> Result<Vec<T>> {
    let n = blocks.first().map_or(0, Matrix::rows);
    for b in blocks {
        assert_eq!(
            b.shape(),
            (n, n),
            "eigvalsh_blocks needs square blocks of one order"
        );
    }
    counters::add_flops(4 * n * n * n * blocks.len());
    let mut out = Vec::with_capacity(blocks.len() * n);
    let mut scratch = Vec::new();
    for group in blocks.chunks(T::BLOCK_LANES) {
        match (group.len(), T::BLOCK_LANES) {
            (1, _) => eig_group::<T, 1>(group, &mut scratch, &mut out)?,
            (_, 8) => eig_group::<T, 8>(group, &mut scratch, &mut out)?,
            (_, 4) => eig_group::<T, 4>(group, &mut scratch, &mut out)?,
            (_, lanes) => unreachable!("no {lanes}-lane instantiation"),
        }
    }
    Ok(out)
}

/// One group of at most `L` blocks through [`tridiagonalize_lanes`] and
/// [`tql_lanes`], appending each block's sorted spectrum to `out`.
fn eig_group<T: Scalar, const L: usize>(
    group: &[Matrix<T>],
    scratch: &mut Vec<T>,
    out: &mut Vec<T>,
) -> Result<()> {
    let n = group[0].rows();
    scratch.resize((n * n + 2 * n) * L, T::ZERO);
    let (lanes, _) = scratch.as_chunks_mut::<L>();
    let (a, de) = lanes.split_at_mut(n * n);
    let (d, e) = de.split_at_mut(n);
    // The lower triangles, mirrored up: from here on the leading `i × i`
    // submatrix of every lane is kept exactly symmetric.
    if group.len() < L {
        a.fill([T::ZERO; L]);
    }
    for (l, b) in group.iter().enumerate() {
        for i in 0..n {
            for (aij, &v) in a[i * n..=i * n + i].iter_mut().zip(&b.row(i)[..=i]) {
                aij[l] = v;
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            a[j * n + i] = a[i * n + j];
        }
    }
    let mut solved = Ok(());
    simd::run_lanes::<T>(
        simd::active_tier(),
        EigLanes {
            a,
            d: &mut *d,
            e,
            n,
            solved: &mut solved,
        },
    );
    solved?;
    for l in 0..group.len() {
        let start = out.len();
        out.extend(d.iter().map(|dl| dl[l]));
        out[start..].sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }
    Ok(())
}

/// One group's reduction and QL sweep, as one lane body.
struct EigLanes<'a, T, const L: usize> {
    a: &'a mut [[T; L]],
    d: &'a mut [[T; L]],
    e: &'a mut [[T; L]],
    n: usize,
    solved: &'a mut Result<()>,
}

impl<T: Scalar, const L: usize> simd::LaneBody for EigLanes<'_, T, L> {
    #[inline(always)]
    fn run(self) {
        tridiagonalize_lanes(self.a, self.d, self.e, self.n);
        *self.solved = tql_lanes(self.d, self.e, self.n);
    }
}

/// Cyclic Jacobi eigendecomposition — independent reference implementation
/// used to cross-validate [`eigh`] in tests. `O(d³)` per sweep; converges in
/// a handful of sweeps for the well-conditioned blocks FIRAL produces.
pub fn jacobi_eigh<T: Scalar>(a: &Matrix<T>) -> Result<EigDecomposition<T>> {
    let n = a.rows();
    assert_eq!(a.rows(), a.cols(), "jacobi_eigh needs a square matrix");
    let mut m = a.clone();
    let mut v = Matrix::<T>::identity(n);
    let max_sweeps = 64;

    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = T::ZERO;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        let scale = m.fro_norm().maxv(T::MIN_POSITIVE);
        if off.sqrt() <= T::EPSILON * T::from_usize(n) * scale {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= T::EPSILON * scale {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (T::TWO * apq);
                let t = {
                    let sign = if theta >= T::ZERO { T::ONE } else { -T::ONE };
                    sign / (theta.abs() + Scalar::hypot(theta, T::ONE))
                };
                let c = T::ONE / Scalar::hypot(t, T::ONE);
                let s = t * c;

                // Apply rotation to rows/cols p, q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut d: Vec<T> = (0..n).map(|i| m[(i, i)]).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap_or(std::cmp::Ordering::Equal));
    d = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (newj, &oldj) in order.iter().enumerate() {
        for i in 0..n {
            vectors[(i, newj)] = v[(i, oldj)];
        }
    }
    Ok(EigDecomposition { values: d, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, gemm_a_bt};

    fn sym_test_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut a = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        a.symmetrize();
        a
    }

    fn check_decomposition(a: &Matrix<f64>, eig: &EigDecomposition<f64>, tol: f64) {
        let n = a.rows();
        // A v_j = λ_j v_j
        for j in 0..n {
            let vj = eig.vectors.col(j);
            let av = a.matvec(&vj);
            for i in 0..n {
                assert!(
                    (av[i] - eig.values[j] * vj[i]).abs() < tol,
                    "eigenpair {j} residual {} at row {i}",
                    (av[i] - eig.values[j] * vj[i]).abs()
                );
            }
        }
        // VᵀV = I (fused AᵀB kernel — no transpose copy)
        let vtv = crate::gemm::gemm_at_b(&eig.vectors, &eig.vectors);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (vtv[(i, j)] - expect).abs() < tol,
                    "orthonormality ({i},{j})"
                );
            }
        }
    }

    /// The pre-rewrite values-only path: `tred2` without vectors, then QL.
    fn eigvalsh_tred2<T: Scalar>(a: &Matrix<T>) -> Vec<T> {
        let n = a.rows();
        let mut z = a.clone();
        let mut d = vec![T::ZERO; n];
        let mut e = vec![T::ZERO; n];
        tred2(&mut z, &mut d, &mut e, false);
        tql2(&mut z, &mut d, &mut e, false).unwrap();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d
    }

    /// `eigvalsh` against the `tred2` path, bit for bit, in f64 and on the
    /// input rounded to f32 (the widening `to_f64` is injective).
    fn assert_bitwise_tred2(a: &Matrix<f64>, what: &str) {
        fn check<T: Scalar>(a: &Matrix<T>, what: &str) {
            let bits = |v: Vec<T>| -> Vec<u64> { v.iter().map(|x| x.to_f64().to_bits()).collect() };
            assert_eq!(
                bits(eigvalsh(a).unwrap()),
                bits(eigvalsh_tred2(a)),
                "{what}, {} bytes/elem",
                std::mem::size_of::<T>()
            );
        }
        check(a, what);
        check(&a.cast::<f32>(), what);
    }

    #[test]
    fn eigvalsh_is_bitwise_tred2_on_symmetric_inputs() {
        for n in [1usize, 2, 3, 4, 7, 8, 20, 33, 50] {
            for seed in 0..4 {
                let a = sym_test_matrix(n, 1000 * n as u64 + seed);
                assert_bitwise_tred2(&a, &format!("random n={n} seed={seed}"));
            }
        }
        assert_bitwise_tred2(&Matrix::from_diag(&[3.0, -1.0, 2.0, 0.0, 7.5]), "diagonal");
        assert_bitwise_tred2(&Matrix::zeros(6, 6), "zero");

        // Rank-6 PSD 50×50: what Line 9 sees after six picks.
        let g = Matrix::from_fn(6, 50, |i, j| ((3 * i + 7 * j) as f64 * 0.37).sin());
        assert_bitwise_tred2(&crate::gemm::gemm_at_b(&g, &g), "rank-6 PSD");
    }

    #[test]
    fn eigvalsh_reads_the_lower_triangle_only() {
        // What `BlockDiag::rank_one_update` hands the η criterion: the two
        // triangles differ in the last bits. Then a wholly unrelated upper
        // triangle, which must not be read at all.
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.73).cos()).collect();
        let mut acc = crate::blockdiag::BlockDiag::<f64>::zeros(1, 20);
        for g in [0.21, 0.13, 0.07] {
            acc.rank_one_update(&[g], &x);
        }
        let nearly = acc.block(0).clone();
        assert!(
            (0..20).any(|i| (0..i).any(|j| nearly[(i, j)] != nearly[(j, i)])),
            "the fixture must be asymmetric in the last bits"
        );
        assert_bitwise_tred2(&nearly, "rank-one accumulated");

        let sym = sym_test_matrix(12, 5);
        let mut junk = sym.clone();
        for i in 0..12 {
            for j in (i + 1)..12 {
                junk[(i, j)] = 1e3 * (i + 2 * j) as f64;
            }
        }
        assert_bitwise_tred2(&junk, "junk upper triangle");
        assert_eq!(eigvalsh(&junk).unwrap(), eigvalsh(&sym).unwrap());
    }

    #[test]
    fn eigvalsh_is_bitwise_tred2_when_a_householder_row_is_zero() {
        // `scale == 0`: row i has nothing left of the diagonal, at the
        // first step (last row) and mid-reduction (decoupled blocks).
        let mut a = sym_test_matrix(9, 17);
        for k in 0..8 {
            a[(8, k)] = 0.0;
            a[(k, 8)] = 0.0;
        }
        assert_bitwise_tred2(&a, "decoupled last row");
        for i in 4..9 {
            for k in 0..4 {
                a[(i, k)] = 0.0;
                a[(k, i)] = 0.0;
            }
        }
        assert_bitwise_tred2(&a, "two decoupled blocks");
    }

    #[test]
    fn eigh_diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let eig = eigh(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 2.0).abs() < 1e-12);
        assert!((eig.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_random_symmetric() {
        for n in [2usize, 3, 5, 8, 13, 21] {
            let a = sym_test_matrix(n, n as u64);
            let eig = eigh(&a).unwrap();
            check_decomposition(&a, &eig, 1e-9);
        }
    }

    #[test]
    fn eigvalsh_matches_eigh() {
        let a = sym_test_matrix(12, 99);
        let vals_only = eigvalsh(&a).unwrap();
        let full = eigh(&a).unwrap();
        for (u, v) in vals_only.iter().zip(full.values.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn jacobi_matches_ql() {
        let a = sym_test_matrix(9, 7);
        let e1 = eigh(&a).unwrap();
        let e2 = jacobi_eigh(&a).unwrap();
        check_decomposition(&a, &e2, 1e-9);
        for (u, v) in e1.values.iter().zip(e2.values.iter()) {
            assert!((u - v).abs() < 1e-9, "QL {u} vs Jacobi {v}");
        }
    }

    #[test]
    fn trace_is_sum_of_eigenvalues() {
        let a = sym_test_matrix(10, 3);
        let vals = eigvalsh(&a).unwrap();
        let sum: f64 = vals.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn apply_fn_square_root() {
        // SPD matrix: sqrt(A)² = A
        let b = sym_test_matrix(6, 11);
        let mut a = gemm_a_bt(&b, &b);
        a.add_diag(6.0);
        let eig = eigh(&a).unwrap();
        let root = eig.apply_fn(|x| x.sqrt());
        let sq = gemm(&root, &root);
        for i in 0..6 {
            for j in 0..6 {
                assert!((sq[(i, j)] - a[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn eigh_f32_works() {
        let a64 = sym_test_matrix(7, 21);
        let a32: Matrix<f32> = a64.cast();
        let eig = eigh(&a32).unwrap();
        let ref64 = eigh(&a64).unwrap();
        for (u, v) in eig.values.iter().zip(ref64.values.iter()) {
            assert!((u.to_f64() - v).abs() < 1e-4, "{u} vs {v}");
        }
    }

    #[test]
    fn eigh_handles_1x1_and_2x2() {
        let a = Matrix::from_vec(1, 1, vec![4.0f64]);
        assert!((eigh(&a).unwrap().values[0] - 4.0).abs() < 1e-14);

        let b = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = eigh(&b).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }
}
