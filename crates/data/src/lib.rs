//! Synthetic embedding-style datasets for active-learning experiments.
//!
//! The paper evaluates on MNIST / CIFAR-10 / Caltech-101 / ImageNet *feature
//! embeddings* (Laplacian eigenmaps, SimCLR, DINOv2 — §IV-A), not raw
//! pixels. Those embeddings are well-separated, anisotropic point clouds —
//! exactly the sub-Gaussian regime FIRAL's theory assumes. This crate
//! generates seeded Gaussian-mixture pools with controllable class count,
//! dimension, separation, within-class anisotropy and class imbalance, plus
//! presets mirroring every row of Table V and the "extended CIFAR-10"
//! noise-replication trick of §IV-C.
//!
//! Substitution note (ARCHITECTURE.md § Experiments — §IV): the *relative* behaviour of selection
//! strategies — FIRAL's robustness, random/k-means variance at small
//! budgets, baseline degradation under imbalance — is driven by pool
//! geometry, which these generators control directly; no label information
//! is used to build features, matching the paper's unsupervised
//! pre-processing.

pub mod presets;
pub mod synthetic;

pub use presets::{ExperimentPreset, PresetName};
pub use synthetic::SyntheticConfig;

use firal_linalg::{Matrix, Scalar};

/// A fully materialized active-learning problem instance: an initial
/// labeled set `Xo`, an unlabeled pool `Xu` (with held-back ground truth
/// used when the learner "buys" a label), and an evaluation set.
#[derive(Debug, Clone)]
pub struct Dataset<T: Scalar> {
    /// Number of classes `c`.
    pub num_classes: usize,
    /// Initial labeled features (`|Xo| × d`).
    pub initial_features: Matrix<T>,
    /// Initial labels (`0..c`).
    pub initial_labels: Vec<usize>,
    /// Unlabeled pool features (`n × d`).
    pub pool_features: Matrix<T>,
    /// Ground-truth pool labels, revealed only when a point is selected.
    pub pool_labels: Vec<usize>,
    /// Evaluation features.
    pub eval_features: Matrix<T>,
    /// Evaluation labels.
    pub eval_labels: Vec<usize>,
}

impl<T: Scalar> Dataset<T> {
    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.pool_features.cols()
    }

    /// Pool size `n`.
    pub fn pool_size(&self) -> usize {
        self.pool_features.rows()
    }

    /// Initial labeled features (alias used by doc examples).
    pub fn initial_features(&self) -> Matrix<T> {
        self.initial_features.clone()
    }

    /// Initial labels (alias used by doc examples).
    pub fn initial_labels(&self) -> Vec<usize> {
        self.initial_labels.clone()
    }

    /// Borrow the pool feature panel.
    pub fn pool_features(&self) -> &Matrix<T> {
        &self.pool_features
    }

    /// Reveal the label of pool point `i` (the "oracle" of active learning).
    pub fn oracle_label(&self, i: usize) -> usize {
        self.pool_labels[i]
    }

    /// Per-class counts in the pool (used to verify imbalance profiles).
    pub fn pool_class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.pool_labels {
            counts[l] += 1;
        }
        counts
    }

    /// Build the cumulative labeled set after buying labels for the pool
    /// indices in `selected`: returns (features, labels) of `Xo ∪ selected`.
    pub fn labeled_union(&self, selected: &[usize]) -> (Matrix<T>, Vec<usize>) {
        let d = self.dim();
        let n_init = self.initial_features.rows();
        let mut feats = Matrix::zeros(n_init + selected.len(), d);
        let mut labels = Vec::with_capacity(n_init + selected.len());
        for i in 0..n_init {
            feats
                .row_mut(i)
                .copy_from_slice(self.initial_features.row(i));
            labels.push(self.initial_labels[i]);
        }
        for (row, &idx) in selected.iter().enumerate() {
            feats
                .row_mut(n_init + row)
                .copy_from_slice(self.pool_features.row(idx));
            labels.push(self.pool_labels[idx]);
        }
        (feats, labels)
    }

    /// Convert precision.
    pub fn cast<U: Scalar>(&self) -> Dataset<U> {
        Dataset {
            num_classes: self.num_classes,
            initial_features: self.initial_features.cast(),
            initial_labels: self.initial_labels.clone(),
            pool_features: self.pool_features.cast(),
            pool_labels: self.pool_labels.clone(),
            eval_features: self.eval_features.cast(),
            eval_labels: self.eval_labels.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_union_concatenates() {
        let ds = SyntheticConfig::new(3, 4)
            .with_pool_size(30)
            .with_seed(1)
            .generate::<f64>();
        let (feats, labels) = ds.labeled_union(&[0, 5]);
        assert_eq!(feats.rows(), ds.initial_features.rows() + 2);
        assert_eq!(labels.len(), feats.rows());
        assert_eq!(labels[labels.len() - 2], ds.pool_labels[0]);
        assert_eq!(labels[labels.len() - 1], ds.pool_labels[5]);
        // Feature rows match source points.
        let last = feats.row(feats.rows() - 1);
        assert_eq!(last, ds.pool_features.row(5));
    }

    #[test]
    fn class_counts_sum_to_pool() {
        let ds = SyntheticConfig::new(5, 8)
            .with_pool_size(100)
            .with_seed(2)
            .generate::<f32>();
        assert_eq!(ds.pool_class_counts().iter().sum::<usize>(), ds.pool_size());
    }
}
