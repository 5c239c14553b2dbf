//! Symmetric eigensolvers.
//!
//! The ROUND step needs eigenvalues of the (whitened) accumulated Hessian
//! blocks at every iteration (Line 9 of Algorithm 3, `cupy.linalg.eigvalsh`
//! in the paper) and Exact-FIRAL needs full eigendecompositions for
//! `Σ_⋄^{-1/2}` and the FTRL update. Two implementations are provided:
//!
//! * [`eigh`]/[`eigvalsh`] — Householder tridiagonalization followed by
//!   implicit-shift QL (the classical EISPACK `tred2`/`tql2` pair). `O(d³)`
//!   with a small constant; the production path.
//! * [`jacobi_eigh`] — cyclic Jacobi rotations. Slower but independently
//!   derived; used as a cross-check oracle in tests.
//!
//! Eigenvalues are returned in ascending order; eigenvectors are the
//! *columns* of the returned matrix.
//!
//! Both entry points read the **lower triangle** of their argument only.
//! That is part of the contract: `BlockDiag::rank_one_update` produces
//! blocks whose two triangles differ in the last bit
//! (`(g·x_a)·x_b ≠ (g·x_b)·x_a`), and the §IV-A η criterion is an argmax
//! over such spectra.
//!
//! [`eigvalsh`] does not run `tred2`. Without the transform to accumulate,
//! `tred2`'s work is a symmetric matvec and a rank-two update per
//! Householder step, both written against the lower triangle — so half of
//! the matvec walks a column with stride `d`. `tridiagonalize` mirrors the
//! lower triangle up once and then does the same arithmetic over full,
//! contiguous rows: the matvec as row AXPYs, the update on whole rows. Every
//! output element sees the products `tred2` forms, added in `tred2`'s
//! `k`-ascending order, so the tridiagonal — and the spectrum — is bit for
//! bit `tred2(.., false)`'s (pinned by the unit tests below).

use crate::counters;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
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

/// The values-only Householder reduction behind [`eigvalsh`]: `tred2`
/// without the transform, over full contiguous rows (see the module docs).
/// On return `d` holds the diagonal and `e` the sub-diagonal (in `e[1..]`);
/// `z` is scratch.
fn tridiagonalize<T: Scalar>(z: &mut Matrix<T>, d: &mut [T], e: &mut [T]) {
    let n = d.len();
    // The lower triangle is the input; from here on the leading
    // `i × i` submatrix is kept exactly symmetric.
    for i in 0..n {
        for j in 0..i {
            z[(j, i)] = z[(i, j)];
        }
    }
    let a = z.as_mut_slice();
    for i in (1..n).rev() {
        // Row `i` holds the Householder vector `v`; rows `0..i` are `A`.
        let (lead, tail) = a.split_at_mut(i * n);
        let v = &mut tail[..i];
        let mut scale = T::ZERO;
        if i > 1 {
            for &vk in v.iter() {
                scale += vk.abs();
            }
        }
        if scale == T::ZERO {
            e[i] = v[i - 1];
            continue;
        }
        let mut h = T::ZERO;
        for vk in v.iter_mut() {
            *vk /= scale;
            h += *vk * *vk;
        }
        let f = v[i - 1];
        let g = if f > T::ZERO { -h.sqrt() } else { h.sqrt() };
        e[i] = scale * g;
        h -= f * g;
        v[i - 1] = f - g;

        // p = A·v as row AXPYs: p_j gathers A[k][j]·v[k] for k ascending,
        // which is tred2's row-then-column walk with A[j][k] = A[k][j].
        let p = &mut e[..i];
        p.fill(T::ZERO);
        for (row, &vk) in lead.chunks_exact(n).zip(v.iter()) {
            for (pj, &akj) in p.iter_mut().zip(&row[..i]) {
                *pj += akj * vk;
            }
        }
        let mut f_acc = T::ZERO;
        for (pj, &vj) in p.iter_mut().zip(v.iter()) {
            *pj /= h;
            f_acc += *pj * vj;
        }
        let hh = f_acc / (h + h);
        for (pj, &vj) in p.iter_mut().zip(v.iter()) {
            *pj -= hh * vj;
        }
        // A -= v·qᵀ + q·vᵀ on whole rows. The mirrored entry forms the same
        // two products and adds them in the other order, so symmetry holds
        // to the bit.
        for (j, row) in lead.chunks_exact_mut(n).enumerate() {
            let (f, g) = (v[j], p[j]);
            for ((ajk, &qk), &vk) in row[..i].iter_mut().zip(p.iter()).zip(v.iter()) {
                *ajk -= f * qk + g * vk;
            }
        }
    }
    e[0] = T::ZERO;
    for i in 0..n {
        d[i] = a[i * n + i];
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

/// Eigenvalues only (ascending), from the lower triangle of `a`. Skips
/// transform accumulation — this is the kernel behind Line 9 of
/// Algorithm 3, where only the spectrum feeds the bisection for `ν_{t+1}`.
pub fn eigvalsh<T: Scalar>(a: &Matrix<T>) -> Result<Vec<T>> {
    let n = a.rows();
    assert_eq!(a.rows(), a.cols(), "eigvalsh needs a square matrix");
    counters::add_flops(4 * n * n * n);

    let mut z = a.clone();
    let mut d = vec![T::ZERO; n];
    let mut e = vec![T::ZERO; n];
    tridiagonalize(&mut z, &mut d, &mut e);
    tql2(&mut z, &mut d, &mut e, false)?;
    d.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(d)
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
