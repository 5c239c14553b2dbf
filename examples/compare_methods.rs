//! Mini Fig. 2: compare Random, K-Means, Entropy, UPAL, Bayes-Batch and
//! Approx-FIRAL on a balanced and an imbalanced pool.
//!
//! The paper's headline accuracy result is that FIRAL dominates the
//! baselines — especially under class imbalance, where Random/K-Means
//! degrade. This example reproduces that story at toy scale in a few
//! seconds, with the two PAPERS.md strategies (UPAL's unbiased
//! importance-weighted sampler and Bayesian batch selection via
//! Frank–Wolfe) in the lineup.
//!
//! Run with: `cargo run --release --example compare_methods`

use firal::core::{
    run_experiment, ApproxFiral, BayesBatchStrategy, DistStrategy, EntropyStrategy, KMeansStrategy,
    RandomStrategy, UpalStrategy,
};
use firal::data::SyntheticConfig;
use firal::logreg::TrainConfig;

fn run_suite(title: &str, imbalance: f64) {
    let dataset = SyntheticConfig::new(6, 12)
        .with_pool_size(600)
        .with_initial_per_class(1)
        .with_eval_size(600)
        .with_separation(2.8)
        .with_imbalance(imbalance)
        .with_seed(7)
        .generate::<f64>();

    println!("\n=== {title} (max class ratio {imbalance}) ===");
    println!("pool class counts: {:?}", dataset.pool_class_counts());
    println!("{:<14} {:>10} {:>10}", "method", "pool acc", "eval acc");

    let rounds = 3;
    let budget = 12;
    let train = TrainConfig::default();

    let strategies: Vec<Box<dyn DistStrategy<f64>>> = vec![
        Box::new(RandomStrategy),
        Box::new(KMeansStrategy),
        Box::new(EntropyStrategy),
        Box::new(UpalStrategy::default()),
        Box::new(BayesBatchStrategy::default()),
        Box::new(ApproxFiral::default()),
    ];
    for strategy in &strategies {
        // Average the stochastic baselines over a few trials, like the
        // paper's 10-trial averages.
        let trials: u64 = match strategy.name() {
            "Random" | "K-Means" | "UPAL" => 5,
            _ => 1,
        };
        let mut pool_acc = 0.0;
        let mut eval_acc = 0.0;
        for trial in 0..trials {
            let res = run_experiment(&dataset, strategy.as_ref(), rounds, budget, trial, &train)
                .expect("experiment failed");
            pool_acc += res.final_pool_accuracy();
            eval_acc += res.final_eval_accuracy();
        }
        println!(
            "{:<14} {:>9.1}% {:>9.1}%",
            strategy.name(),
            100.0 * pool_acc / trials as f64,
            100.0 * eval_acc / trials as f64
        );
    }
}

fn main() {
    run_suite("balanced pool", 1.0);
    run_suite("imbalanced pool", 10.0);
    println!(
        "\nExpected shape (paper Fig. 2): FIRAL at or near the top on both; \
         Random/K-Means notably weaker on the imbalanced pool."
    );
}
