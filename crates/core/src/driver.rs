//! Multi-round active-learning experiment driver.
//!
//! Implements the evaluation loop of §IV-A: starting from the initial
//! labeled set, each round (i) trains the logistic-regression classifier on
//! everything labeled so far, (ii) records pool accuracy (on `X_u`) and
//! evaluation accuracy, (iii) asks the strategy for `b` new points, and
//! (iv) buys their labels from the oracle. The per-round accuracy series is
//! exactly what Figs. 2–3 plot against "Number of Labeled Samples".

use firal_comm::{CommScalar, CommStats};
use firal_data::Dataset;
use firal_logreg::{LogisticRegression, TrainConfig};

use crate::problem::SelectionProblem;
use crate::strategies::{select_serial, DistStrategy, SelectError};

/// One round's record.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Labeled-set size when the classifier was trained.
    pub num_labeled: usize,
    /// Accuracy on the unlabeled pool (paper: "pool accuracy").
    pub pool_accuracy: f64,
    /// Accuracy on the evaluation set.
    pub eval_accuracy: f64,
    /// Class-balanced evaluation accuracy (Fig. 3(B)).
    pub balanced_eval_accuracy: f64,
    /// Seconds spent in the selection call this round (0 for the final
    /// evaluation-only record).
    pub selection_seconds: f64,
    /// Collective calls/bytes/time the selection issued this round — the
    /// counted no-ops of the `p = 1` run (zeros for strategies that never
    /// touch a communicator, and for the final evaluation-only record).
    pub selection_comm: CommStats,
}

/// Full experiment outcome.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Strategy name.
    pub strategy: String,
    /// Records per round, including a final train/eval after the last batch.
    pub rounds: Vec<RoundRecord>,
    /// All pool indices bought, in acquisition order.
    pub acquired: Vec<usize>,
}

impl ExperimentResult {
    /// Final evaluation accuracy (convenience).
    pub fn final_eval_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.eval_accuracy)
    }

    /// Final pool accuracy (convenience).
    pub fn final_pool_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.pool_accuracy)
    }
}

/// Run `rounds` rounds of batch active learning with batch size `budget`.
///
/// `seed` controls the stochastic strategies (and is varied across the
/// paper's 10 Random/K-Means trials). The classifier is retrained from
/// scratch each round with fixed hyperparameters, matching the paper
/// ("we keep the parameters fixed during active learning"). Each
/// selection is a [`select_serial`] call.
pub fn run_experiment<T: CommScalar, S: DistStrategy<T> + ?Sized>(
    dataset: &Dataset<T>,
    strategy: &S,
    rounds: usize,
    budget: usize,
    seed: u64,
    train_config: &TrainConfig<T>,
) -> Result<ExperimentResult, SelectError> {
    let mut acquired: Vec<usize> = Vec::new();
    let mut records = Vec::with_capacity(rounds + 1);

    for round in 0..=rounds {
        // Train on X_o ∪ acquired.
        let (feats, labels) = dataset.labeled_union(&acquired);
        let model = LogisticRegression::fit(&feats, &labels, dataset.num_classes, train_config)
            .expect("classifier training failed");

        let pool_accuracy = model.accuracy(&dataset.pool_features, &dataset.pool_labels);
        let eval_accuracy = model.accuracy(&dataset.eval_features, &dataset.eval_labels);
        let balanced_eval_accuracy =
            model.balanced_accuracy(&dataset.eval_features, &dataset.eval_labels);

        let mut selection_seconds = 0.0;
        let mut selection_comm = CommStats::default();
        if round < rounds {
            // Build the selection problem on the not-yet-acquired pool.
            let remaining: Vec<usize> = (0..dataset.pool_size())
                .filter(|i| !acquired.contains(i))
                .collect();
            let sub_x = {
                let d = dataset.dim();
                let mut m = firal_linalg::Matrix::zeros(remaining.len(), d);
                for (row, &i) in remaining.iter().enumerate() {
                    m.row_mut(row).copy_from_slice(dataset.pool_features.row(i));
                }
                m
            };
            let problem = SelectionProblem::new(
                sub_x.clone(),
                model.class_probs_cm1(&sub_x),
                feats.clone(),
                model.class_probs_cm1(&feats),
                dataset.num_classes,
            );
            let t0 = std::time::Instant::now();
            let run = select_serial(strategy, &problem, budget, seed.wrapping_add(round as u64))?;
            selection_seconds = t0.elapsed().as_secs_f64();
            selection_comm = run.comm;
            // Map back to original pool indices.
            acquired.extend(run.selected.into_iter().map(|i| remaining[i]));
        }

        records.push(RoundRecord {
            num_labeled: labels.len(),
            pool_accuracy,
            eval_accuracy,
            balanced_eval_accuracy,
            selection_seconds,
            selection_comm,
        });
    }

    Ok(ExperimentResult {
        strategy: strategy.name().to_string(),
        rounds: records,
        acquired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{strategy_by_name, ApproxFiral, RandomStrategy};

    fn tiny_dataset(seed: u64) -> Dataset<f64> {
        firal_data::SyntheticConfig::new(3, 5)
            .with_pool_size(90)
            .with_initial_per_class(1)
            .with_eval_size(60)
            .with_separation(3.0)
            .with_seed(seed)
            .generate()
    }

    #[test]
    fn experiment_produces_rounds_plus_final() {
        let ds = tiny_dataset(1);
        let res = run_experiment(&ds, &RandomStrategy, 3, 5, 0, &TrainConfig::default()).unwrap();
        assert_eq!(res.rounds.len(), 4);
        assert_eq!(res.acquired.len(), 15);
        // Labeled count grows by the budget each round.
        assert_eq!(res.rounds[0].num_labeled, 3);
        assert_eq!(res.rounds[1].num_labeled, 8);
        assert_eq!(res.rounds[3].num_labeled, 18);
        // No index acquired twice.
        let mut sorted = res.acquired.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 15);
    }

    #[test]
    fn active_learning_improves_accuracy() {
        let ds = tiny_dataset(2);
        let res = run_experiment(
            &ds,
            &ApproxFiral::default(),
            3,
            6,
            0,
            &TrainConfig::default(),
        )
        .unwrap();
        let first = res.rounds.first().unwrap().eval_accuracy;
        let last = res.final_eval_accuracy();
        assert!(
            last >= first,
            "accuracy should not degrade with more labels: {first} → {last}"
        );
    }

    #[test]
    fn registry_strategy_runs_like_the_direct_one() {
        let ds = tiny_dataset(4);
        let random = strategy_by_name::<f64>("random").unwrap();
        let named = run_experiment(&ds, random.as_ref(), 2, 4, 3, &TrainConfig::default()).unwrap();
        let direct =
            run_experiment(&ds, &RandomStrategy, 2, 4, 3, &TrainConfig::default()).unwrap();
        assert_eq!(named.acquired, direct.acquired);
        assert_eq!(named.strategy, "Random");
    }

    #[test]
    fn comm_backed_strategies_populate_round_comm_stats() {
        let ds = tiny_dataset(5);
        let bayes = strategy_by_name::<f64>("bayes-batch").unwrap();
        let res = run_experiment(&ds, bayes.as_ref(), 2, 4, 0, &TrainConfig::default()).unwrap();
        // Selection rounds record collective traffic; the final
        // evaluation-only record stays zero.
        for r in &res.rounds[..2] {
            assert!(r.selection_comm.total_calls() > 0);
            assert!(r.selection_seconds > 0.0);
        }
        assert_eq!(res.rounds[2].selection_comm.total_calls(), 0);
        assert_eq!(res.rounds[2].selection_seconds, 0.0);
    }

    #[test]
    fn accuracies_are_probabilities() {
        let ds = tiny_dataset(3);
        let res = run_experiment(&ds, &RandomStrategy, 2, 4, 7, &TrainConfig::default()).unwrap();
        for r in &res.rounds {
            assert!((0.0..=1.0).contains(&r.pool_accuracy));
            assert!((0.0..=1.0).contains(&r.eval_accuracy));
            assert!((0.0..=1.0).contains(&r.balanced_eval_accuracy));
        }
    }
}
