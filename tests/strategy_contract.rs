//! The strategy contract, pinned for every registered strategy × seed ×
//! dtype: `select` returns exactly `budget` distinct in-range pool
//! indices, repeat calls with the same seed are bitwise identical, the
//! seed-free strategies ignore the seed entirely, and the `SelectError`
//! edges (zero budget, empty pool, oversized budget) are rejected with
//! their dedicated variants instead of panicking downstream.
//!
//! CI runs this suite under `FIRAL_NUM_THREADS=1` and `=4`: the contract
//! includes bitwise invariance to the ambient kernel-pool size.

use firal::comm::CommScalar;
use firal::core::{select_serial, strategy_by_name, SelectError, SelectionProblem, STRATEGY_NAMES};
use firal::data::SyntheticConfig;
use firal::linalg::Matrix;
use firal::logreg::LogisticRegression;

fn problem<T: CommScalar>(seed: u64, n: usize) -> SelectionProblem<T> {
    let ds = SyntheticConfig::new(3, 4)
        .with_pool_size(n)
        .with_initial_per_class(2)
        .with_seed(seed)
        .generate::<T>();
    let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels).unwrap();
    SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        3,
    )
}

fn assert_valid(name: &str, sel: &[usize], budget: usize, pool: usize) {
    assert_eq!(sel.len(), budget, "{name}: wrong batch size {sel:?}");
    let mut sorted = sel.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), budget, "{name}: duplicates in {sel:?}");
    assert!(
        sel.iter().all(|&i| i < pool),
        "{name}: out-of-range index in {sel:?}"
    );
}

/// The serial selection of a registered strategy, indices only.
fn select<T: CommScalar>(
    name: &str,
    p: &SelectionProblem<T>,
    budget: usize,
    seed: u64,
) -> Result<Vec<usize>, SelectError> {
    let s = strategy_by_name::<T>(name)?;
    Ok(select_serial(s.as_ref(), p, budget, seed)?.selected)
}

/// budget-distinct-in-range + bitwise seed stability, for one dtype.
fn contract_case<T: CommScalar>() {
    let pool = 48;
    let budget = 5;
    for problem_seed in [1u64, 2] {
        let p: SelectionProblem<T> = problem(problem_seed, pool);
        for name in STRATEGY_NAMES {
            for seed in [0u64, 7, 1234] {
                let sel = select(name, &p, budget, seed).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_valid(name, &sel, budget, pool);
                // Determinism given (problem, budget, seed): bitwise
                // seed-stable on a repeat call.
                let again = select(name, &p, budget, seed).unwrap();
                assert_eq!(sel, again, "{name}: repeat call with seed {seed} diverged");
            }
        }
    }
}

#[test]
fn contract_f64() {
    contract_case::<f64>();
}

#[test]
fn contract_f32() {
    contract_case::<f32>();
}

#[test]
fn seed_free_strategies_ignore_the_seed() {
    let p: SelectionProblem<f64> = problem(3, 48);
    for name in ["entropy", "exact-firal", "bayes-batch"] {
        let a = select(name, &p, 5, 1).unwrap();
        let b = select(name, &p, 5, 999).unwrap();
        assert_eq!(a, b, "{name} must be seed-invariant");
    }
}

#[test]
fn stochastic_strategies_respond_to_the_seed() {
    let p: SelectionProblem<f64> = problem(4, 48);
    for name in ["random", "upal"] {
        let a = select(name, &p, 6, 1).unwrap();
        let b = select(name, &p, 6, 2).unwrap();
        assert_ne!(a, b, "{name}: different seeds should differ (w.h.p.)");
    }
}

#[test]
fn select_error_edges_on_every_strategy() {
    let p: SelectionProblem<f64> = problem(5, 20);
    let empty = SelectionProblem::new(
        Matrix::<f64>::zeros(0, 4),
        Matrix::zeros(0, 2),
        p.labeled_x.clone(),
        p.labeled_h.clone(),
        3,
    );
    for name in STRATEGY_NAMES {
        assert_eq!(
            select(name, &p, 0, 1),
            Err(SelectError::ZeroBudget),
            "{name}: budget = 0"
        );
        assert_eq!(
            select(name, &empty, 4, 1),
            Err(SelectError::EmptyPool),
            "{name}: empty pool"
        );
        assert_eq!(
            select(name, &p, 21, 1),
            Err(SelectError::BudgetTooLarge {
                budget: 21,
                pool: 20
            }),
            "{name}: oversized budget"
        );
    }
}
