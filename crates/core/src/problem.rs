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

    /// Append `rows` pool rows in place: `x` holds their `d` features, `h`
    /// their `c-1` probabilities, both row-major.
    pub fn append_pool_rows(&mut self, rows: usize, x: &[T], h: &[T]) {
        self.pool_x.extend_rows(rows, x);
        self.pool_h.extend_rows(rows, h);
    }

    /// Drop the pool rows whose `drop` entry is set, in place; the
    /// survivors keep their order.
    pub fn remove_pool_rows(&mut self, drop: &[bool]) {
        self.pool_x.remove_rows(drop);
        self.pool_h.remove_rows(drop);
    }

    /// Move the pool rows whose `label` entry is set to the end of the
    /// labeled panels in ascending pool order, then drop them from the
    /// pool (the §IV-A step that turns bought points into labeled ones).
    pub fn label_pool_rows(&mut self, label: &[bool]) {
        for (i, _) in label.iter().enumerate().filter(|(_, &l)| l) {
            self.labeled_x.extend_rows(1, self.pool_x.row(i));
            self.labeled_h.extend_rows(1, self.pool_h.row(i));
        }
        self.remove_pool_rows(label);
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
    fn label_moves_rows_in_ascending_pool_order() {
        let x = |n: usize, base: f64| Matrix::from_fn(n, 2, |i, j| base + (2 * i + j) as f64);
        let h = |n: usize, base: f64| Matrix::from_fn(n, 1, |i, _| base + i as f64);
        let mut p = SelectionProblem::new(x(5, 0.0), h(5, 0.0), x(1, 100.0), h(1, 100.0), 2);
        p.label_pool_rows(&[false, false, true, false, true]);
        assert_eq!(p.pool_x.as_slice(), &[0.0, 1.0, 2.0, 3.0, 6.0, 7.0]);
        assert_eq!(p.pool_h.as_slice(), &[0.0, 1.0, 3.0]);
        assert_eq!(p.labeled_x.as_slice(), &[100.0, 101.0, 4.0, 5.0, 8.0, 9.0]);
        assert_eq!(p.labeled_h.as_slice(), &[100.0, 2.0, 4.0]);
        p.append_pool_rows(1, &[-1.0, -2.0], &[0.5]);
        p.remove_pool_rows(&[true, false, false, false]);
        assert_eq!(p.pool_x.as_slice(), &[2.0, 3.0, 6.0, 7.0, -1.0, -2.0]);
        assert_eq!(p.pool_h.as_slice(), &[1.0, 3.0, 0.5]);
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
