//! The selection-problem context shared by every strategy.

use firal_linalg::{Matrix, Scalar};

/// Everything a batch selection step sees: the unlabeled pool, the current
/// labeled set, and the classifier's probability panels at the current
/// weights (the `h_i` of Eq. 2, truncated to `c-1` entries).
#[derive(Debug, Clone)]
pub struct SelectionProblem<T: Scalar> {
    /// Pool features (`n × d`).
    pub pool_x: Matrix<T>,
    /// Pool probabilities (`n × (c-1)`).
    pub pool_h: Matrix<T>,
    /// Labeled features (`m × d`).
    pub labeled_x: Matrix<T>,
    /// Labeled probabilities (`m × (c-1)`).
    pub labeled_h: Matrix<T>,
    /// Class count `c`.
    pub num_classes: usize,
}

impl<T: Scalar> SelectionProblem<T> {
    /// Construct and validate shapes.
    pub fn new(
        pool_x: Matrix<T>,
        pool_h: Matrix<T>,
        labeled_x: Matrix<T>,
        labeled_h: Matrix<T>,
        num_classes: usize,
    ) -> Self {
        assert_eq!(pool_x.rows(), pool_h.rows(), "pool panels disagree");
        assert_eq!(
            labeled_x.rows(),
            labeled_h.rows(),
            "labeled panels disagree"
        );
        assert_eq!(pool_x.cols(), labeled_x.cols(), "feature dims disagree");
        assert_eq!(
            pool_h.cols(),
            num_classes - 1,
            "pool_h must have c-1 columns"
        );
        assert_eq!(
            labeled_h.cols(),
            num_classes - 1,
            "labeled_h must have c-1 columns"
        );
        Self {
            pool_x,
            pool_h,
            labeled_x,
            labeled_h,
            num_classes,
        }
    }

    /// Pool size `n`.
    pub fn pool_size(&self) -> usize {
        self.pool_x.rows()
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.pool_x.cols()
    }

    /// Number of Hessian blocks `c-1`.
    pub fn nblocks(&self) -> usize {
        self.num_classes - 1
    }

    /// Stacked operator order `ê = d(c-1)`.
    pub fn ehat(&self) -> usize {
        self.dim() * self.nblocks()
    }
}

#[cfg(test)]
/// The crate's unit-test fixture: a seeded synthetic mixture (`c` classes in
/// `d` dimensions, `n` pool points, two labeled points per class) with the
/// probability panels of a classifier fitted on the labeled set.
pub(crate) fn tiny_problem(seed: u64, n: usize, d: usize, c: usize) -> SelectionProblem<f64> {
    let ds = firal_data::SyntheticConfig::new(c, d)
        .with_pool_size(n)
        .with_initial_per_class(2)
        .with_seed(seed)
        .generate::<f64>();
    let model =
        firal_logreg::LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels)
            .unwrap();
    SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        c,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_derive_correctly() {
        let p = SelectionProblem::new(
            Matrix::<f64>::zeros(10, 4),
            Matrix::zeros(10, 2),
            Matrix::zeros(3, 4),
            Matrix::zeros(3, 2),
            3,
        );
        assert_eq!(p.pool_size(), 10);
        assert_eq!(p.dim(), 4);
        assert_eq!(p.nblocks(), 2);
        assert_eq!(p.ehat(), 8);
    }

    #[test]
    #[should_panic(expected = "pool_h must have c-1 columns")]
    fn wrong_h_width_panics() {
        let _ = SelectionProblem::new(
            Matrix::<f64>::zeros(10, 4),
            Matrix::zeros(10, 3),
            Matrix::zeros(3, 4),
            Matrix::zeros(3, 2),
            3,
        );
    }
}
