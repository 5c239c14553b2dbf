//! The §IV-A procedure Exact- and Approx-FIRAL share, written once.
//!
//! RELAX is entropic mirror descent: both solvers take the same
//! exponentiated step ([`mirror_step`]) and stop on the same relative-change
//! rule ([`objective_converged`], recorded by [`RelaxTelemetry::record`]).
//! ROUND then runs over an η grid and keeps the η maximizing
//! `min_k λ_min((H)_k)` ([`sweep_eta`]). The solvers differ only in how they
//! compute a gradient, an objective, a ROUND run and its criterion; the
//! distributed solver passes its scalar Allreduce into [`mirror_step`], the
//! exact one the identity.

use firal_comm::ReduceOp;
use firal_linalg::Scalar;

/// Convergence record of a RELAX solve (exact or fast).
#[derive(Debug, Clone)]
pub struct RelaxTelemetry<T> {
    /// Objective value `f(b·z)` after each mirror-descent iteration —
    /// the series plotted in Fig. 4.
    pub objective_history: Vec<T>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative-change stopping rule fired.
    pub converged: bool,
}

impl<T: Scalar> RelaxTelemetry<T> {
    pub(crate) fn new() -> Self {
        Self {
            objective_history: Vec::new(),
            iterations: 0,
            converged: false,
        }
    }

    /// Record iteration `t`'s objective `f` and apply the stopping rule
    /// against the previous iteration's; `true` means stop.
    pub(crate) fn record(&mut self, t: usize, f: T, obj_rel_tol: T) -> bool {
        self.iterations = t;
        let stop = self
            .objective_history
            .last()
            .is_some_and(|&prev| objective_converged(prev, f, obj_rel_tol));
        self.objective_history.push(f);
        self.converged = stop;
        stop
    }
}

/// The paper's stopping rule: the objective moved by less than
/// `obj_rel_tol` relative to the previous iterate. A zero `prev` divides by
/// `T::MIN_POSITIVE` instead.
pub(crate) fn objective_converged<T: Scalar>(prev: T, f: T, obj_rel_tol: T) -> bool {
    ((f - prev) / prev.abs().maxv(T::MIN_POSITIVE)).abs() < obj_rel_tol
}

/// One entropic mirror-descent step at iteration `t` (1-based):
/// `z_i ← z_i·exp(β·a_i) / Σ_j z_j·exp(β·a_j)` with `β = 1/√t / max|a|`,
/// where `a = −∇f` is the negated objective gradient over this rank's
/// points. `reduce` combines the max and the normalizer across ranks (the
/// two scalar collectives of the step; the identity for a replicated pool).
pub(crate) fn mirror_step<T: Scalar>(
    z: &mut [T],
    neg_grad: &[T],
    t: usize,
    reduce: impl Fn(T, ReduceOp) -> T,
) {
    let mut local_max = T::ZERO;
    for &a in neg_grad {
        local_max = local_max.maxv(a.abs());
    }
    let max_abs = reduce(local_max, ReduceOp::Max);
    let beta = T::ONE / T::from_usize(t).sqrt() / max_abs.maxv(T::MIN_POSITIVE);
    let mut local_sum = T::ZERO;
    for (zi, &a) in z.iter_mut().zip(neg_grad) {
        *zi *= (beta * a).exp();
        local_sum += *zi;
    }
    let total = reduce(local_sum, ReduceOp::Sum);
    for zi in z.iter_mut() {
        *zi /= total;
    }
}

/// The §IV-A η rule: `run(η)` for every `η = mult·scale` of `grid`, in
/// order, returns a ROUND result and its criterion; the first maximum wins.
/// Returns `(criterion, result)`.
pub(crate) fn sweep_eta<T: Scalar, R>(
    grid: &[T],
    scale: T,
    mut run: impl FnMut(T) -> (R, T),
) -> (T, R) {
    let mut best: Option<(T, R)> = None;
    for &mult in grid {
        let (out, crit) = run(mult * scale);
        match &best {
            Some((c, _)) if *c >= crit => {}
            _ => best = Some((crit, out)),
        }
    }
    best.expect("η grid must be non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MirrorDescentConfig, RelaxConfig};
    use crate::exact::exact_relax;
    use crate::exec::{Executor, ShardedProblem};
    use crate::problem::tiny_problem;
    use firal_comm::SelfComm;

    #[test]
    fn stopping_rule_boundary() {
        let tol = 0.25f64;
        // |5 - 4| / 4 is exactly the tolerance: the rule is strict.
        assert!(!objective_converged(4.0, 5.0, tol));
        assert!(!objective_converged(4.0, 3.0, tol));
        // One ulp inside the tolerance stops.
        let below = f64::from_bits(5.0f64.to_bits() - 1);
        assert!(objective_converged(4.0, below, tol));
        // A zero previous value divides by MIN_POSITIVE: 0 → 0 stops (0/0
        // would be NaN and never stop), and a move of MIN_POSITIVE/2 is a
        // relative change of exactly 1/2.
        assert!(objective_converged(0.0, 0.0, tol));
        let half = f64::MIN_POSITIVE / 2.0;
        assert!(!objective_converged(0.0, half, 0.5));
        assert!(objective_converged(0.0, half, 0.75));
        assert!(!objective_converged(0.0, 1.0, tol));
    }

    #[test]
    fn both_relaxes_stop_at_iteration_two_under_an_infinite_tolerance() {
        let p = tiny_problem(3, 30, 3, 3);
        let md = MirrorDescentConfig {
            max_iters: 50,
            obj_rel_tol: f64::INFINITY,
        };
        let (_, exact) = exact_relax(&p, 4, &md);
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let approx = Executor::new(&comm, &shard)
            .relax(
                4,
                &RelaxConfig {
                    md,
                    ..Default::default()
                },
            )
            .telemetry;
        for tel in [exact, approx] {
            assert!(tel.converged);
            assert_eq!(tel.iterations, 2);
            assert_eq!(tel.iterations, tel.objective_history.len());
        }
    }

    #[test]
    fn sweep_keeps_the_first_maximum() {
        let (crit, eta) = sweep_eta(&[1.0f64, 2.0, 3.0], 2.0, |eta| {
            (eta, (eta - 4.0).abs().min(2.0))
        });
        assert_eq!((crit, eta), (2.0, 2.0));
    }
}
