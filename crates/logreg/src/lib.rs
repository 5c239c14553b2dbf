//! Multinomial logistic regression with the `c-1` block parameterization.
//!
//! The classifier of the paper (Eq. 1): weights `θ ∈ R^{d×(c-1)}` with
//! class `c` as the reference,
//!
//! ```text
//! p(y=k | x, θ) = exp(θ_kᵀx) / (1 + Σ_l exp(θ_lᵀx)),  k ∈ [c-1]
//! p(y=c | x, θ) = 1 / (1 + Σ_l exp(θ_lᵀx))
//! ```
//!
//! trained by minimizing the L2-regularized negative log-likelihood with
//! L-BFGS — the same family as scikit-learn's
//! `LogisticRegression(solver="lbfgs")` used in §IV-A. The per-point
//! probability vectors `h ∈ R^{c-1}` produced here are exactly what the
//! FIRAL Fisher-information machinery consumes (Eq. 2).

pub mod metrics;

pub use metrics::{accuracy, balanced_accuracy, row_entropies};

use firal_linalg::{Matrix, Scalar};
use firal_solvers::{lbfgs_minimize, LbfgsConfig, LbfgsStatus};

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig<T: Scalar> {
    /// L2 penalty `λ` on the weights (`0.5·λ·‖θ‖²` added to the NLL).
    pub l2: T,
    /// Inner optimizer settings.
    pub lbfgs: LbfgsConfig<T>,
}

impl<T: Scalar> Default for TrainConfig<T> {
    fn default() -> Self {
        Self {
            l2: T::ONE,
            lbfgs: LbfgsConfig {
                max_iter: 300,
                grad_tol: T::from_f64(1e-5),
            },
        }
    }
}

/// Training failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// A label was outside `0..num_classes`.
    LabelOutOfRange {
        /// The offending label value.
        label: usize,
        /// Declared class count.
        num_classes: usize,
    },
    /// The optimizer's line search failed before reaching tolerance.
    OptimizerFailed,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            TrainError::OptimizerFailed => write!(f, "L-BFGS line search failed"),
        }
    }
}

impl std::error::Error for TrainError {}

/// A trained multinomial logistic-regression classifier.
#[derive(Debug, Clone)]
pub struct LogisticRegression<T: Scalar> {
    /// `d × (c-1)` weight panel; column `k` is `θ_k`.
    weights: Matrix<T>,
    num_classes: usize,
}

/// Numerically stable softmax over `c-1` logits with an implicit 0 logit
/// for the reference class. Writes the **full** `c` probabilities to `out`.
fn softmax_full<T: Scalar>(logits: &[T], out: &mut [T]) {
    let cm1 = logits.len();
    debug_assert_eq!(out.len(), cm1 + 1);
    let mut maxv = T::ZERO; // reference logit is 0
    for &z in logits {
        maxv = maxv.maxv(z);
    }
    let mut denom = (-maxv).exp(); // reference class term
    for (o, &z) in out[..cm1].iter_mut().zip(logits.iter()) {
        let e = (z - maxv).exp();
        *o = e;
        denom += e;
    }
    let inv = T::ONE / denom;
    for o in out[..cm1].iter_mut() {
        *o *= inv;
    }
    out[cm1] = (-maxv).exp() * inv;
}

impl<T: Scalar> LogisticRegression<T> {
    /// Train on `(features, labels)` with `num_classes` classes.
    pub fn fit(
        features: &Matrix<T>,
        labels: &[usize],
        num_classes: usize,
        config: &TrainConfig<T>,
    ) -> Result<Self, TrainError> {
        Self::fit_impl(features, labels, None, num_classes, config)
    }

    /// Train on importance-weighted data: point `i` contributes
    /// `w_i · ℓ_i(θ)` to the negative log-likelihood (the L2 penalty is
    /// unweighted). With `weights ≡ 1` this is exactly [`Self::fit`].
    ///
    /// This is the estimator UPAL-style unbiased active learning needs: a
    /// queried point carries the inverse of its (cumulative) sampling
    /// probability so the weighted empirical risk stays an unbiased
    /// estimate of the pool risk (Ganti & Gray, arXiv:1111.1784).
    pub fn fit_weighted(
        features: &Matrix<T>,
        labels: &[usize],
        weights: &[T],
        num_classes: usize,
        config: &TrainConfig<T>,
    ) -> Result<Self, TrainError> {
        assert_eq!(
            weights.len(),
            features.rows(),
            "weights/features length mismatch"
        );
        Self::fit_impl(features, labels, Some(weights), num_classes, config)
    }

    fn fit_impl(
        features: &Matrix<T>,
        labels: &[usize],
        weights: Option<&[T]>,
        num_classes: usize,
        config: &TrainConfig<T>,
    ) -> Result<Self, TrainError> {
        let (n, d) = features.shape();
        assert_eq!(labels.len(), n, "labels/features length mismatch");
        assert!(num_classes >= 2, "need at least two classes");
        for &l in labels {
            if l >= num_classes {
                return Err(TrainError::LabelOutOfRange {
                    label: l,
                    num_classes,
                });
            }
        }
        let cm1 = num_classes - 1;
        let l2 = config.l2;

        // Objective over flattened θ (row-major d×(c-1)):
        // Σ_i w_i·NLL_i + 0.5 λ‖θ‖² (w ≡ 1 without weights).
        let objective = |theta: &[T], grad: &mut [T]| -> T {
            grad.fill(T::ZERO);
            let mut loss = T::ZERO;
            let mut logits = vec![T::ZERO; cm1];
            let mut probs = vec![T::ZERO; cm1 + 1];
            for i in 0..n {
                let wi = weights.map_or(T::ONE, |w| w[i]);
                let xi = features.row(i);
                // logits_k = θ_kᵀ x = Σ_j θ[j][k] x[j]
                logits.fill(T::ZERO);
                for (j, &xj) in xi.iter().enumerate() {
                    let trow = &theta[j * cm1..(j + 1) * cm1];
                    for (lk, &tjk) in logits.iter_mut().zip(trow.iter()) {
                        *lk += tjk * xj;
                    }
                }
                softmax_full(&logits, &mut probs);
                let yi = labels[i];
                let p = probs[yi].maxv(T::MIN_POSITIVE);
                loss -= wi * p.ln();
                // grad_{jk} += w (h_k - 1[y=k]) x_j for k < c-1
                for (j, &xj) in xi.iter().enumerate() {
                    let grow = &mut grad[j * cm1..(j + 1) * cm1];
                    for (k, gk) in grow.iter_mut().enumerate() {
                        let indicator = if yi == k { T::ONE } else { T::ZERO };
                        *gk += wi * (probs[k] - indicator) * xj;
                    }
                }
            }
            // L2 term.
            for (g, &t) in grad.iter_mut().zip(theta.iter()) {
                *g += l2 * t;
            }
            let sq: T = theta.iter().map(|&t| t * t).sum();
            loss + T::HALF * l2 * sq
        };

        let x0 = vec![T::ZERO; d * cm1];
        let result = lbfgs_minimize(objective, &x0, &config.lbfgs);
        if result.status == LbfgsStatus::LineSearchFailed && result.iterations == 0 {
            return Err(TrainError::OptimizerFailed);
        }
        Ok(Self {
            weights: Matrix::from_vec(d, cm1, result.x),
            num_classes,
        })
    }

    /// Train with default config, inferring `num_classes` from the labels.
    pub fn fit_default(features: &Matrix<T>, labels: &[usize]) -> Result<Self, TrainError> {
        let c = labels.iter().copied().max().map_or(2, |m| m + 1).max(2);
        Self::fit(features, labels, c, &TrainConfig::default())
    }

    /// Number of classes `c`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The `d × (c-1)` weight panel.
    pub fn weights(&self) -> &Matrix<T> {
        &self.weights
    }

    /// Replace the weights (used by tests constructing known models).
    pub fn from_weights(weights: Matrix<T>, num_classes: usize) -> Self {
        assert_eq!(weights.cols(), num_classes - 1);
        Self {
            weights,
            num_classes,
        }
    }

    /// Full class-probability panel (`n × c`).
    pub fn predict_proba(&self, features: &Matrix<T>) -> Matrix<T> {
        let (n, d) = features.shape();
        assert_eq!(d, self.weights.rows(), "feature dimension mismatch");
        let cm1 = self.num_classes - 1;
        // logits = X · θ  (n × (c-1))
        let logits = firal_linalg::gemm(features, &self.weights);
        let mut out = Matrix::zeros(n, self.num_classes);
        let mut probs = vec![T::ZERO; self.num_classes];
        for i in 0..n {
            softmax_full(&logits.row(i)[..cm1], &mut probs);
            out.row_mut(i).copy_from_slice(&probs);
        }
        out
    }

    /// Truncated probability panel `h ∈ n × (c-1)` — the `h_i` vectors of
    /// Eq. 2 that parameterize every Fisher-information matrix.
    pub fn class_probs_cm1(&self, features: &Matrix<T>) -> Matrix<T> {
        let full = self.predict_proba(features);
        let (n, _) = full.shape();
        let cm1 = self.num_classes - 1;
        let mut out = Matrix::zeros(n, cm1);
        for i in 0..n {
            out.row_mut(i).copy_from_slice(&full.row(i)[..cm1]);
        }
        out
    }

    /// Hard predictions (argmax class).
    pub fn predict(&self, features: &Matrix<T>) -> Vec<usize> {
        let probs = self.predict_proba(features);
        (0..probs.rows())
            .map(|i| {
                let row = probs.row(i);
                let mut best = (T::ZERO, 0usize);
                for (k, &p) in row.iter().enumerate() {
                    if p > best.0 {
                        best = (p, k);
                    }
                }
                best.1
            })
            .collect()
    }

    /// Plain accuracy on a labeled set.
    pub fn accuracy(&self, features: &Matrix<T>, labels: &[usize]) -> f64 {
        accuracy(&self.predict(features), labels)
    }

    /// Class-balanced accuracy (each class weighted equally — Fig. 3(B)).
    pub fn balanced_accuracy(&self, features: &Matrix<T>, labels: &[usize]) -> f64 {
        balanced_accuracy(&self.predict(features), labels, self.num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_data() -> (Matrix<f64>, Vec<usize>) {
        // 1-D: class 0 near -2, class 1 near +2.
        let mut feats = Matrix::zeros(40, 1);
        let mut labels = Vec::new();
        for i in 0..40 {
            let k = i % 2;
            let jitter = ((i * 7919) % 100) as f64 / 100.0 - 0.5;
            feats[(i, 0)] = if k == 0 { -2.0 } else { 2.0 } + jitter;
            labels.push(k);
        }
        (feats, labels)
    }

    #[test]
    fn separable_binary_problem_fits() {
        let (x, y) = two_blob_data();
        let model = LogisticRegression::fit_default(&x, &y).unwrap();
        assert_eq!(model.num_classes(), 2);
        assert!(model.accuracy(&x, &y) > 0.99);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = two_blob_data();
        let model = LogisticRegression::fit_default(&x, &y).unwrap();
        let p = model.predict_proba(&x);
        for i in 0..x.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
            assert!(p.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn three_class_blobs() {
        // 2-D: three blobs at (4,0), (-4,0), (0,4).
        let mut x = Matrix::zeros(60, 2);
        let mut y = Vec::new();
        for i in 0..60 {
            let k = i % 3;
            let (cx, cy) = [(4.0, 0.0), (-4.0, 0.0), (0.0, 4.0)][k];
            let jitter = ((i * 31) % 10) as f64 / 10.0 - 0.5;
            x[(i, 0)] = cx + jitter;
            x[(i, 1)] = cy - jitter;
            y.push(k);
        }
        let model = LogisticRegression::fit_default(&x, &y).unwrap();
        assert!(
            model.accuracy(&x, &y) > 0.95,
            "acc = {}",
            model.accuracy(&x, &y)
        );
        // h panel has c-1 columns
        let h = model.class_probs_cm1(&x);
        assert_eq!(h.cols(), 2);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Indirect check: training loss at the optimum has (near-)zero
        // directional derivatives, verified by perturbing weights.
        let (x, y) = two_blob_data();
        let cfg = TrainConfig::<f64>::default();
        let model = LogisticRegression::fit(&x, &y, 2, &cfg).unwrap();
        let loss = |w: &Matrix<f64>| -> f64 {
            let m = LogisticRegression::from_weights(w.clone(), 2);
            let p = m.predict_proba(&x);
            let mut nll = 0.0;
            for i in 0..x.rows() {
                nll -= p[(i, y[i])].max(1e-300).ln();
            }
            nll + 0.5 * w.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let base = loss(model.weights());
        for delta in [1e-3, -1e-3] {
            let mut w = model.weights().clone();
            w[(0, 0)] += delta;
            assert!(
                loss(&w) >= base - 1e-6,
                "optimum is not a minimum along e₀ (δ={delta})"
            );
        }
    }

    #[test]
    fn rejects_bad_labels() {
        let x = Matrix::<f64>::zeros(3, 2);
        let err = LogisticRegression::fit(&x, &[0, 1, 5], 3, &TrainConfig::default());
        assert!(matches!(
            err,
            Err(TrainError::LabelOutOfRange {
                label: 5,
                num_classes: 3
            })
        ));
    }

    #[test]
    fn l2_shrinks_weights() {
        let (x, y) = two_blob_data();
        let small = LogisticRegression::fit(
            &x,
            &y,
            2,
            &TrainConfig {
                l2: 0.01,
                ..Default::default()
            },
        )
        .unwrap();
        let large = LogisticRegression::fit(
            &x,
            &y,
            2,
            &TrainConfig {
                l2: 10.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(large.weights().fro_norm() < small.weights().fro_norm());
    }

    #[test]
    fn f32_training_works() {
        let (x64, y) = two_blob_data();
        let x: Matrix<f32> = x64.cast();
        let model = LogisticRegression::<f32>::fit_default(&x, &y).unwrap();
        assert!(model.accuracy(&x, &y) > 0.95);
    }

    #[test]
    fn unit_weights_match_unweighted_fit_bitwise() {
        let (x, y) = two_blob_data();
        let cfg = TrainConfig::<f64>::default();
        let plain = LogisticRegression::fit(&x, &y, 2, &cfg).unwrap();
        let ones = vec![1.0; y.len()];
        let weighted = LogisticRegression::fit_weighted(&x, &y, &ones, 2, &cfg).unwrap();
        assert_eq!(
            plain.weights().as_slice(),
            weighted.weights().as_slice(),
            "w ≡ 1 must take the identical optimizer trajectory"
        );
    }

    #[test]
    fn upweighted_points_pull_the_boundary() {
        // Two overlapping 1-D blobs; upweighting the positive class points
        // must shift the decision boundary so more points predict class 1.
        let mut feats = Matrix::zeros(40, 1);
        let mut labels = Vec::new();
        for i in 0..40 {
            let k = i % 2;
            let jitter = ((i * 131) % 100) as f64 / 50.0 - 1.0;
            feats[(i, 0)] = if k == 0 { -0.5 } else { 0.5 } + jitter;
            labels.push(k);
        }
        let cfg = TrainConfig::<f64>::default();
        let weights: Vec<f64> = labels
            .iter()
            .map(|&k| if k == 1 { 10.0 } else { 1.0 })
            .collect();
        let plain = LogisticRegression::fit(&feats, &labels, 2, &cfg).unwrap();
        let weighted =
            LogisticRegression::fit_weighted(&feats, &labels, &weights, 2, &cfg).unwrap();
        let count1 =
            |m: &LogisticRegression<f64>| m.predict(&feats).iter().filter(|&&p| p == 1).count();
        assert!(
            count1(&weighted) >= count1(&plain),
            "upweighting class 1 should not shrink its predicted region"
        );
    }

    #[test]
    #[should_panic(expected = "weights/features length mismatch")]
    fn weighted_fit_rejects_wrong_weight_length() {
        let (x, y) = two_blob_data();
        let _ = LogisticRegression::fit_weighted(&x, &y, &[1.0; 3], 2, &TrainConfig::default());
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut out = vec![0.0f64; 3];
        softmax_full(&[1000.0, -1000.0], &mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!(out.iter().all(|p| p.is_finite()));
        let s: f64 = out.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
