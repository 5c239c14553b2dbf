//! Limited-memory BFGS with a weak-Wolfe (Lewis–Overton bracketing) line
//! search.
//!
//! Stands in for scikit-learn's `LogisticRegression(solver="lbfgs")`, the
//! classifier the paper trains after every active-learning round (§IV-A).
//! Generic over the objective: the caller provides `f(x, grad) -> value`
//! writing the gradient in place. The Wolfe curvature condition is enforced
//! so every stored correction pair has `sᵀy > 0`, keeping the implicit
//! Hessian approximation positive definite.

use firal_linalg::Scalar;

/// History length `m` (number of (s, y) correction pairs kept).
const MEMORY: usize = 10;
/// Armijo sufficient-decrease constant (Wolfe `c₁`).
const ARMIJO_C1: f64 = 1e-4;
/// Curvature constant (Wolfe `c₂`, with `c₁ < c₂ < 1`).
const WOLFE_C2: f64 = 0.9;
/// Maximum line-search steps per iteration.
const MAX_LINE_SEARCH: usize = 50;

/// L-BFGS stopping controls (history and line search are fixed above).
#[derive(Debug, Clone, Copy)]
pub struct LbfgsConfig<T> {
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Gradient-norm stopping tolerance (relative to max(1, ‖x‖)).
    pub grad_tol: T,
}

impl<T: Scalar> Default for LbfgsConfig<T> {
    fn default() -> Self {
        Self {
            max_iter: 200,
            grad_tol: T::from_f64(1e-6),
        }
    }
}

/// Why the optimizer stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbfgsStatus {
    /// Gradient norm fell below tolerance.
    Converged,
    /// Iteration budget exhausted.
    MaxIterations,
    /// Line search could not find sufficient decrease (flat/noisy region).
    LineSearchFailed,
}

/// Optimization outcome.
#[derive(Debug, Clone)]
pub struct LbfgsResult<T> {
    /// Final iterate.
    pub x: Vec<T>,
    /// Final objective value.
    pub value: T,
    /// Final gradient norm.
    pub grad_norm: T,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Stopping reason.
    pub status: LbfgsStatus,
}

/// Minimize `f` starting from `x0`.
///
/// `f(x, grad)` must return the objective value and fill `grad` with the
/// gradient at `x`.
pub fn lbfgs_minimize<T: Scalar>(
    mut f: impl FnMut(&[T], &mut [T]) -> T,
    x0: &[T],
    config: &LbfgsConfig<T>,
) -> LbfgsResult<T> {
    let n = x0.len();
    let m = MEMORY;
    let (c1, c2) = (T::from_f64(ARMIJO_C1), T::from_f64(WOLFE_C2));

    let mut x = x0.to_vec();
    let mut grad = vec![T::ZERO; n];
    let mut value = f(&x, &mut grad);

    // Ring buffers of correction pairs.
    let mut s_hist: Vec<Vec<T>> = Vec::with_capacity(m);
    let mut y_hist: Vec<Vec<T>> = Vec::with_capacity(m);
    let mut rho_hist: Vec<T> = Vec::with_capacity(m);

    let mut status = LbfgsStatus::MaxIterations;
    let mut iterations = 0usize;

    for _ in 0..config.max_iter {
        let gnorm = firal_linalg::nrm2(&grad);
        let xnorm = firal_linalg::nrm2(&x).maxv(T::ONE);
        if gnorm <= config.grad_tol * xnorm {
            status = LbfgsStatus::Converged;
            break;
        }
        iterations += 1;

        // Two-loop recursion: direction = -H·grad.
        let mut q = grad.clone();
        let k = s_hist.len();
        let mut alphas = vec![T::ZERO; k];
        for i in (0..k).rev() {
            let alpha = rho_hist[i] * firal_linalg::dot(&s_hist[i], &q);
            alphas[i] = alpha;
            firal_linalg::axpy(-alpha, &y_hist[i], &mut q);
        }
        // Initial Hessian scaling γ = sᵀy / yᵀy of the newest pair.
        if k > 0 {
            let sy = firal_linalg::dot(&s_hist[k - 1], &y_hist[k - 1]);
            let yy = firal_linalg::dot(&y_hist[k - 1], &y_hist[k - 1]);
            if yy > T::ZERO && sy > T::ZERO {
                firal_linalg::scale(sy / yy, &mut q);
            }
        }
        for i in 0..k {
            let beta = rho_hist[i] * firal_linalg::dot(&y_hist[i], &q);
            firal_linalg::axpy(alphas[i] - beta, &s_hist[i], &mut q);
        }
        // q is now H·grad; direction is -q.
        let dir_dot_grad = -firal_linalg::dot(&q, &grad);
        let mut dir = q;
        firal_linalg::scale(-T::ONE, &mut dir);
        let (dir, dir_dot_grad) = if dir_dot_grad < T::ZERO {
            (dir, dir_dot_grad)
        } else {
            // Not a descent direction (can happen right after history reset
            // on ill-scaled problems): fall back to steepest descent.
            let mut d = grad.clone();
            firal_linalg::scale(-T::ONE, &mut d);
            let ddg = -firal_linalg::dot(&grad, &grad);
            (d, ddg)
        };

        // Weak-Wolfe line search by bracketing (Lewis–Overton): shrink on
        // Armijo failure, grow on curvature failure, bisect once bracketed.
        let mut step = T::ONE;
        let mut lo = T::ZERO;
        let mut hi = T::INFINITY;
        let mut new_x = x.clone();
        let mut new_grad = vec![T::ZERO; n];
        let mut ls_ok = false;
        for _ in 0..MAX_LINE_SEARCH {
            new_x.copy_from_slice(&x);
            firal_linalg::axpy(step, &dir, &mut new_x);
            let new_value = f(&new_x, &mut new_grad);
            let armijo = new_value.is_finite() && new_value <= value + c1 * step * dir_dot_grad;
            if !armijo {
                hi = step;
                step = (lo + hi) * T::HALF;
                continue;
            }
            let dg_new = firal_linalg::dot(&dir, &new_grad);
            if dg_new < c2 * dir_dot_grad {
                // Not enough curvature captured: move right.
                lo = step;
                step = if hi == T::INFINITY {
                    step * T::TWO
                } else {
                    (lo + hi) * T::HALF
                };
                continue;
            }
            // Accept; update history.
            let mut s = new_x.clone();
            for (si, &xi) in s.iter_mut().zip(x.iter()) {
                *si -= xi;
            }
            let mut yv = new_grad.clone();
            for (yi, &gi) in yv.iter_mut().zip(grad.iter()) {
                *yi -= gi;
            }
            let sy = firal_linalg::dot(&s, &yv);
            if sy > T::EPSILON {
                if s_hist.len() == m {
                    s_hist.remove(0);
                    y_hist.remove(0);
                    rho_hist.remove(0);
                }
                rho_hist.push(T::ONE / sy);
                s_hist.push(s);
                y_hist.push(yv);
            }
            x.copy_from_slice(&new_x);
            grad.copy_from_slice(&new_grad);
            value = new_value;
            ls_ok = true;
            break;
        }
        if !ls_ok {
            status = LbfgsStatus::LineSearchFailed;
            break;
        }
    }

    let grad_norm = firal_linalg::nrm2(&grad);
    if grad_norm <= config.grad_tol * firal_linalg::nrm2(&x).maxv(T::ONE) {
        status = LbfgsStatus::Converged;
    }
    LbfgsResult {
        x,
        value,
        grad_norm,
        iterations,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f = ½(x-a)ᵀD(x-a)
        let a = [1.0f64, -2.0, 3.0];
        let d = [2.0f64, 5.0, 0.5];
        let res = lbfgs_minimize(
            |x, g| {
                let mut v = 0.0;
                for i in 0..3 {
                    let r = x[i] - a[i];
                    g[i] = d[i] * r;
                    v += 0.5 * d[i] * r * r;
                }
                v
            },
            &[0.0; 3],
            &LbfgsConfig::default(),
        );
        assert_eq!(res.status, LbfgsStatus::Converged);
        for i in 0..3 {
            assert!((res.x[i] - a[i]).abs() < 1e-5, "x[{i}] = {}", res.x[i]);
        }
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let res = lbfgs_minimize(
            |x, g| {
                let (a, b) = (1.0f64, 100.0f64);
                let f = (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2);
                g[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
                g[1] = 2.0 * b * (x[1] - x[0] * x[0]);
                f
            },
            &[-1.2, 1.0],
            &LbfgsConfig {
                max_iter: 500,
                ..Default::default()
            },
        );
        assert!(
            (res.x[0] - 1.0).abs() < 1e-4 && (res.x[1] - 1.0).abs() < 1e-4,
            "rosenbrock solution: {:?} after {} iters ({:?})",
            res.x,
            res.iterations,
            res.status
        );
    }

    #[test]
    fn converges_immediately_at_optimum() {
        let res = lbfgs_minimize(
            |x, g| {
                g[0] = x[0];
                0.5 * x[0] * x[0]
            },
            &[0.0f64],
            &LbfgsConfig::default(),
        );
        assert_eq!(res.iterations, 0);
        assert_eq!(res.status, LbfgsStatus::Converged);
    }

    #[test]
    fn logistic_1d_regularized() {
        // f = log(1+e^{-x}) + 0.05 x²: strictly convex, unique minimum.
        let res = lbfgs_minimize(
            |x, g| {
                let e = (-x[0]).exp();
                let f = (1.0 + e).ln() + 0.05 * x[0] * x[0];
                g[0] = -e / (1.0 + e) + 0.1 * x[0];
                f
            },
            &[5.0f64],
            &LbfgsConfig::default(),
        );
        assert_eq!(res.status, LbfgsStatus::Converged);
        // Optimality: gradient ≈ 0
        assert!(res.grad_norm < 1e-5);
    }

    #[test]
    fn f32_quadratic() {
        let res = lbfgs_minimize(
            |x, g| {
                g[0] = 2.0f32 * (x[0] - 3.0);
                (x[0] - 3.0) * (x[0] - 3.0)
            },
            &[0.0f32],
            &LbfgsConfig {
                grad_tol: 1e-4,
                ..Default::default()
            },
        );
        assert!((res.x[0] - 3.0).abs() < 1e-3);
    }
}
