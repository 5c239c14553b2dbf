//! 60-second tour of the firal API.
//!
//! Generates a small synthetic embedding pool, runs one Approx-FIRAL
//! selection round, retrains the classifier on the bought labels, and
//! prints the before/after accuracies.
//!
//! Run with: `cargo run --release --example quickstart`

use firal::core::{select_serial, ApproxFiral, SelectionProblem};
use firal::data::SyntheticConfig;
use firal::logreg::{LogisticRegression, TrainConfig};

fn main() {
    // A 5-class, 10-dimensional "embedding" pool: 500 unlabeled points,
    // one labeled point per class to start, 300 held-out evaluation points.
    let dataset = SyntheticConfig::new(5, 10)
        .with_pool_size(500)
        .with_initial_per_class(1)
        .with_eval_size(300)
        .with_separation(3.0)
        .with_seed(42)
        .generate::<f64>();

    // Round 0: train on the 5 initial labels.
    let model = LogisticRegression::fit(
        &dataset.initial_features,
        &dataset.initial_labels,
        dataset.num_classes,
        &TrainConfig::default(),
    )
    .expect("training failed");
    let acc_before = model.accuracy(&dataset.eval_features, &dataset.eval_labels);
    println!("accuracy with {:>3} labels: {:.1}%", 5, 100.0 * acc_before);

    // Ask Approx-FIRAL for the 20 most informative points.
    let problem = SelectionProblem::new(
        dataset.pool_features.clone(),
        model.class_probs_cm1(&dataset.pool_features),
        dataset.initial_features.clone(),
        model.class_probs_cm1(&dataset.initial_features),
        dataset.num_classes,
    );
    let budget = 20;
    let picked = select_serial(&ApproxFiral::default(), &problem, budget, 0)
        .expect("selection failed")
        .selected;
    println!("Approx-FIRAL selected pool indices: {picked:?}");

    // Buy those labels and retrain.
    let (features, labels) = dataset.labeled_union(&picked);
    let model = LogisticRegression::fit(
        &features,
        &labels,
        dataset.num_classes,
        &TrainConfig::default(),
    )
    .expect("retraining failed");
    let acc_after = model.accuracy(&dataset.eval_features, &dataset.eval_labels);
    println!(
        "accuracy with {:>3} labels: {:.1}%",
        5 + budget,
        100.0 * acc_after
    );
    println!(
        "improvement: {:+.1} percentage points",
        100.0 * (acc_after - acc_before)
    );
}
