//! Preconditioned conjugate gradients, single and batched multi-RHS.
//!
//! Algorithm 2 solves `Σ_z W = V` for an `ê × s` Rademacher panel twice per
//! mirror-descent iteration. The batched solver advances all `s` columns in
//! lock-step so each iteration costs one *panel* operator application — the
//! CPU analogue of the paper batching its CuPy einsum matvecs — and records
//! per-iteration relative residuals for the Fig. 1 study. Its iterations
//! work in panels allocated once per solve.

use firal_linalg::{Matrix, Scalar};

use crate::op::{LinearOperator, Preconditioner};

/// CG termination controls.
///
/// The paper's RELAX step stops CG "when the relative residual falls below
/// 0.1" (§IV-A); `rel_tol` defaults accordingly. `max_iter` is a safety
/// bound, defaulting to the operator dimension (CG's exact-arithmetic
/// termination bound).
#[derive(Debug, Clone, Copy)]
pub struct CgConfig<T> {
    /// Relative-residual stopping tolerance `‖r‖/‖b‖`.
    pub rel_tol: T,
    /// Maximum iterations (0 ⇒ use the operator dimension).
    pub max_iter: usize,
}

impl<T: Scalar> Default for CgConfig<T> {
    fn default() -> Self {
        Self {
            rel_tol: T::from_f64(0.1),
            max_iter: 0,
        }
    }
}

impl<T: Scalar> CgConfig<T> {
    fn resolved_max_iter(&self, dim: usize) -> usize {
        if self.max_iter == 0 {
            // Exact arithmetic terminates in `dim` steps; leave slack for
            // rounding when running at tight tolerances.
            (2 * dim).max(8)
        } else {
            self.max_iter
        }
    }
}

/// Convergence record for one solve (or one column of a panel solve).
#[derive(Debug, Clone)]
pub struct CgTelemetry<T> {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Relative residual after each iteration (`residuals[k]` is after
    /// iteration `k+1`); the series plotted in Fig. 1.
    pub residuals: Vec<T>,
    /// Whether `rel_tol` was reached before `max_iter`.
    pub converged: bool,
}

/// Solve `A x = b` by preconditioned CG starting from `x = 0`.
pub fn cg_solve<T: Scalar>(
    op: &dyn LinearOperator<T>,
    prec: &dyn Preconditioner<T>,
    b: &[T],
    config: &CgConfig<T>,
) -> (Vec<T>, CgTelemetry<T>) {
    let n = op.dim();
    assert_eq!(b.len(), n, "cg_solve rhs dimension mismatch");
    let max_iter = config.resolved_max_iter(n);

    let mut x = vec![T::ZERO; n];
    let mut r = b.to_vec();
    let bnorm = firal_linalg::nrm2(b).maxv(T::MIN_POSITIVE);

    let mut z = vec![T::ZERO; n];
    prec.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = firal_linalg::dot(&r, &z);
    let mut ap = vec![T::ZERO; n];

    let mut telemetry = CgTelemetry {
        iterations: 0,
        residuals: Vec::new(),
        converged: firal_linalg::nrm2(&r) / bnorm <= config.rel_tol,
    };
    if telemetry.converged {
        return (x, telemetry);
    }

    for _ in 0..max_iter {
        op.apply(&p, &mut ap);
        let pap = firal_linalg::dot(&p, &ap);
        if pap <= T::ZERO || !pap.is_finite() {
            // Operator lost positive definiteness (or breakdown); stop with
            // the best iterate so far.
            break;
        }
        let alpha = rz / pap;
        firal_linalg::axpy(alpha, &p, &mut x);
        firal_linalg::axpy(-alpha, &ap, &mut r);
        telemetry.iterations += 1;

        let rel = firal_linalg::nrm2(&r) / bnorm;
        telemetry.residuals.push(rel);
        if rel <= config.rel_tol {
            telemetry.converged = true;
            break;
        }

        prec.apply(&r, &mut z);
        let rz_new = firal_linalg::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        // p ← z + β p
        for (pi, &zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
    }
    (x, telemetry)
}

/// `out[j] = Σᵢ a[i][j]·b[i][j]`: the `s` column dot products of two
/// panels in one row-major pass, each column ascending `i` on its own
/// accumulator.
fn column_dots<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, out: &mut [T]) {
    let s = a.cols();
    out.fill(T::ZERO);
    if s == 0 {
        return;
    }
    for (ra, rb) in a
        .as_slice()
        .chunks_exact(s)
        .zip(b.as_slice().chunks_exact(s))
    {
        for ((o, &u), &v) in out.iter_mut().zip(ra).zip(rb) {
            *o += u * v;
        }
    }
}

/// `‖a[:, j]‖₂` for every column (one [`column_dots`] pass).
fn column_norms<T: Scalar>(a: &Matrix<T>, out: &mut [T]) {
    firal_linalg::counters::add_flops(2 * a.rows() * a.cols());
    column_dots(a, a, out);
    for o in out.iter_mut() {
        *o = o.sqrt();
    }
}

/// Batched CG: solve `A X = B` for an `n × s` right-hand-side panel.
///
/// All columns share operator applications (`apply_panel_into`), which is
/// where the fast Hessian matvec amortizes; each column keeps its own α/β
/// recurrence and stops contributing to the iteration criterion once
/// converged. Returns the solution panel and per-column telemetry.
///
/// Every panel the iteration touches is allocated before the loop and the
/// column recurrences run as row-major passes over them, so with an
/// operator and a preconditioner that do not allocate (the pool Hessian and
/// block-Jacobi do not, after their first application) neither does an
/// iteration.
pub fn cg_solve_panel<T: Scalar>(
    op: &dyn LinearOperator<T>,
    prec: &dyn Preconditioner<T>,
    b: &Matrix<T>,
    config: &CgConfig<T>,
) -> (Matrix<T>, Vec<CgTelemetry<T>>) {
    let n = op.dim();
    let s = b.cols();
    assert_eq!(b.rows(), n, "cg_solve_panel rhs dimension mismatch");
    let max_iter = config.resolved_max_iter(n);

    let mut x = Matrix::zeros(n, s);
    let mut r = b.clone();
    let mut z = Matrix::zeros(n, s);
    let mut ap = Matrix::zeros(n, s);
    // Per-column scalars of the current iteration (norms, then pᵀAp, then
    // the new rᵀz) and the step each active column takes.
    let mut dots = vec![T::ZERO; s];
    let mut step = vec![T::ZERO; s];

    column_norms(b, &mut dots);
    let bnorms: Vec<T> = dots.iter().map(|&v| v.maxv(T::MIN_POSITIVE)).collect();

    prec.apply_panel(&r, &mut z);
    let mut p = z.clone();
    let mut rz = vec![T::ZERO; s];
    column_dots(&r, &z, &mut rz);

    let mut telemetry: Vec<CgTelemetry<T>> = (0..s)
        .map(|j| CgTelemetry {
            iterations: 0,
            // Room for a typical solve, so recording a residual does not
            // reallocate mid-iteration.
            residuals: Vec::with_capacity(max_iter.min(64)),
            converged: dots[j] / bnorms[j] <= config.rel_tol,
        })
        .collect();
    let mut active: Vec<bool> = telemetry.iter().map(|t| !t.converged).collect();

    for _ in 0..max_iter {
        if !active.iter().any(|&a| a) {
            break;
        }
        op.apply_panel_into(&p, &mut ap);
        column_dots(&p, &ap, &mut dots);
        for j in 0..s {
            let pap = dots[j];
            if active[j] && (pap <= T::ZERO || !pap.is_finite()) {
                active[j] = false;
            }
            // A column that is not stepping keeps its iterate: α = 0 would
            // still turn a NaN in `ap` into a NaN in `r`, hence the mask.
            step[j] = if active[j] { rz[j] / pap } else { T::ZERO };
        }
        let rows = x
            .as_mut_slice()
            .chunks_exact_mut(s)
            .zip(r.as_mut_slice().chunks_exact_mut(s))
            .zip(
                p.as_slice()
                    .chunks_exact(s)
                    .zip(ap.as_slice().chunks_exact(s)),
            );
        for ((xr, rr), (pr, apr)) in rows {
            for j in 0..s {
                if active[j] {
                    xr[j] += step[j] * pr[j];
                    rr[j] -= step[j] * apr[j];
                }
            }
        }
        column_norms(&r, &mut dots);
        for j in 0..s {
            if !active[j] {
                continue;
            }
            telemetry[j].iterations += 1;
            let rel = dots[j] / bnorms[j];
            telemetry[j].residuals.push(rel);
            if rel <= config.rel_tol {
                telemetry[j].converged = true;
                active[j] = false;
            }
        }
        if !active.iter().any(|&a| a) {
            break;
        }
        prec.apply_panel(&r, &mut z);
        column_dots(&r, &z, &mut dots);
        for j in 0..s {
            // β, then the new rᵀz, for the columns still running.
            if active[j] {
                step[j] = dots[j] / rz[j];
                rz[j] = dots[j];
            }
        }
        for (pr, zr) in p
            .as_mut_slice()
            .chunks_exact_mut(s)
            .zip(z.as_slice().chunks_exact(s))
        {
            for j in 0..s {
                if active[j] {
                    pr[j] = zr[j] + step[j] * pr[j];
                }
            }
        }
    }
    (x, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{DenseOperator, IdentityPreconditioner};
    use firal_linalg::Matrix;

    fn spd_system(n: usize, seed: u64) -> (DenseOperator<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = firal_linalg::gemm_a_bt(&b, &b);
        a.add_diag(n as f64 * 0.1);
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        (DenseOperator::new(a), rhs)
    }

    #[test]
    fn cg_solves_spd_system() {
        let (op, b) = spd_system(20, 1);
        let cfg = CgConfig {
            rel_tol: 1e-10,
            max_iter: 0,
        };
        let (x, tel) = cg_solve(&op, &IdentityPreconditioner, &b, &cfg);
        assert!(
            tel.converged,
            "CG did not converge in {} iters",
            tel.iterations
        );
        let mut ax = vec![0.0; 20];
        op.apply(&x, &mut ax);
        for (u, v) in ax.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-7, "residual {}", (u - v).abs());
        }
    }

    #[test]
    fn residuals_are_monotone_enough() {
        // CG residuals can oscillate slightly, but the telemetry must be
        // recorded every iteration and end below tolerance.
        let (op, b) = spd_system(30, 2);
        let cfg = CgConfig {
            rel_tol: 1e-8,
            max_iter: 0,
        };
        let (_, tel) = cg_solve(&op, &IdentityPreconditioner, &b, &cfg);
        assert_eq!(tel.residuals.len(), tel.iterations);
        assert!(*tel.residuals.last().unwrap() <= 1e-8);
    }

    #[test]
    fn perfect_preconditioner_converges_in_one_iteration() {
        let (op, b) = spd_system(15, 3);
        let inv = firal_linalg::spd_inverse(op.matrix()).unwrap();
        struct InvPrec(Matrix<f64>);
        impl Preconditioner<f64> for InvPrec {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                z.copy_from_slice(&self.0.matvec(r));
            }
        }
        let cfg = CgConfig {
            rel_tol: 1e-9,
            max_iter: 0,
        };
        let (_, tel) = cg_solve(&op, &InvPrec(inv), &b, &cfg);
        assert!(tel.converged);
        assert!(
            tel.iterations <= 2,
            "exact preconditioner took {} iterations",
            tel.iterations
        );
    }

    #[test]
    fn panel_solve_matches_column_solves() {
        let (op, _) = spd_system(12, 4);
        let rhs = Matrix::from_fn(12, 3, |i, j| ((i + j * 3) % 7) as f64 - 3.0);
        let cfg = CgConfig {
            rel_tol: 1e-10,
            max_iter: 0,
        };
        let (xp, tels) = cg_solve_panel(&op, &IdentityPreconditioner, &rhs, &cfg);
        assert!(tels.iter().all(|t| t.converged));
        for j in 0..3 {
            let (xc, _) = cg_solve(&op, &IdentityPreconditioner, &rhs.col(j), &cfg);
            for i in 0..12 {
                assert!(
                    (xp[(i, j)] - xc[i]).abs() < 1e-6,
                    "col {j} row {i}: {} vs {}",
                    xp[(i, j)],
                    xc[i]
                );
            }
        }
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let (op, _) = spd_system(8, 5);
        let b = vec![0.0; 8];
        let (x, tel) = cg_solve(&op, &IdentityPreconditioner, &b, &CgConfig::default());
        assert!(tel.converged);
        assert_eq!(tel.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn max_iter_caps_work() {
        let (op, b) = spd_system(40, 6);
        let cfg = CgConfig {
            rel_tol: 1e-14,
            max_iter: 3,
        };
        let (_, tel) = cg_solve(&op, &IdentityPreconditioner, &b, &cfg);
        assert_eq!(tel.iterations, 3);
    }

    #[test]
    fn f32_path_converges() {
        let n = 10usize;
        let a64 = {
            let (op, _) = spd_system(n, 7);
            op.matrix().clone()
        };
        let a32: Matrix<f32> = a64.cast();
        let op = DenseOperator::new(a32);
        let b: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let cfg = CgConfig {
            rel_tol: 1e-4,
            max_iter: 200,
        };
        let (_, tel) = cg_solve(&op, &IdentityPreconditioner, &b, &cfg);
        assert!(tel.converged);
    }
}
