//! Cross-crate integration tests: the full active-learning loop through the
//! public umbrella API, exact-vs-approx agreement, and reproducibility.

use firal::core::{
    run_experiment, select_serial, strategy_by_name, ApproxFiral, ExactFiral, RandomStrategy,
    SelectionProblem, STRATEGY_NAMES,
};
use firal::data::{ExperimentPreset, PresetName, SyntheticConfig};
use firal::logreg::{LogisticRegression, TrainConfig};

fn small_dataset(seed: u64) -> firal::data::Dataset<f64> {
    SyntheticConfig::new(4, 8)
        .with_pool_size(160)
        .with_initial_per_class(1)
        .with_eval_size(200)
        .with_separation(3.5)
        .with_seed(seed)
        .generate()
}

fn problem_from(ds: &firal::data::Dataset<f64>) -> SelectionProblem<f64> {
    let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels).unwrap();
    SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        ds.num_classes,
    )
}

#[test]
fn every_strategy_completes_a_three_round_loop() {
    let ds = small_dataset(1);
    // The full registry — the paper's five plus UPAL and Bayes-Batch.
    for name in STRATEGY_NAMES {
        let s = strategy_by_name::<f64>(name).unwrap();
        let res = run_experiment(&ds, s.as_ref(), 3, 4, 0, &TrainConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        assert_eq!(res.rounds.len(), 4, "{}", s.name());
        assert_eq!(res.acquired.len(), 12, "{}", s.name());
        // Monotone label counts and sane accuracy values.
        for w in res.rounds.windows(2) {
            assert!(w[1].num_labeled > w[0].num_labeled);
        }
        for r in &res.rounds {
            assert!((0.0..=1.0).contains(&r.eval_accuracy));
        }
    }
}

#[test]
fn upal_and_bayes_batch_keep_up_with_random_and_record_their_runs() {
    // Two rounds of the §IV-A loop on the synthetic Gaussian problem: the
    // new strategies must be no worse than the Random baseline (averaged
    // over trials, like the paper's 10-trial protocol), and every
    // selection round must record its wall-clock and collective traffic.
    let ds = small_dataset(6);
    let rounds = 2;
    let budget = 8;
    let train = TrainConfig::default();

    let mut random_mean = 0.0;
    let trials = 5;
    for seed in 0..trials {
        let res = run_experiment(&ds, &RandomStrategy, rounds, budget, seed, &train).unwrap();
        random_mean += res.final_eval_accuracy();
    }
    random_mean /= trials as f64;

    for name in ["upal", "bayes-batch"] {
        let strategy = strategy_by_name::<f64>(name).unwrap();
        let res = run_experiment(&ds, strategy.as_ref(), rounds, budget, 0, &train)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(res.rounds.len(), rounds + 1);
        assert!(
            res.final_eval_accuracy() >= random_mean - 1e-9,
            "{name}: final eval accuracy {} worse than mean Random {random_mean}",
            res.final_eval_accuracy()
        );
        // RoundRecord bookkeeping: selection rounds carry wall-clock and
        // the comm-layer record (both strategies issue collectives even on
        // the serial SelfComm path); the final evaluation-only round is
        // all zeros.
        for r in &res.rounds[..rounds] {
            assert!(r.selection_seconds > 0.0, "{name}: missing timing");
            assert!(
                r.selection_comm.total_calls() > 0,
                "{name}: missing CommStats"
            );
        }
        let last = res.rounds.last().unwrap();
        assert_eq!(last.selection_seconds, 0.0);
        assert_eq!(last.selection_comm.total_calls(), 0);
    }
}

#[test]
fn firal_improves_over_initial_model() {
    let ds = small_dataset(2);
    let res = run_experiment(
        &ds,
        &ApproxFiral::default(),
        3,
        8,
        0,
        &TrainConfig::default(),
    )
    .unwrap();
    let first = res.rounds.first().unwrap().eval_accuracy;
    let last = res.rounds.last().unwrap().eval_accuracy;
    assert!(
        last > first,
        "30 extra labels should beat 4 initial labels: {first} → {last}"
    );
}

#[test]
fn approx_and_exact_firal_agree_on_small_problems() {
    // With tight CG and many probes the approximation error is tiny; the
    // two algorithms should buy heavily-overlapping batches.
    let ds = small_dataset(3);
    let problem = problem_from(&ds);
    let b = 6;

    let select =
        |s: &dyn firal::core::DistStrategy<f64>| select_serial(s, &problem, b, 0).unwrap().selected;
    let exact = select(&ExactFiral::default());
    let approx = {
        let mut cfg = firal::core::FiralConfig::<f64>::default();
        cfg.relax.probes = 60;
        cfg.relax.cg_tol = 1e-7;
        select(&ApproxFiral::new(cfg))
    };
    let overlap = exact.iter().filter(|i| approx.contains(i)).count();
    assert!(
        overlap * 2 >= b,
        "exact {exact:?} vs approx {approx:?}: overlap {overlap}/{b}"
    );

    // And both should dominate random on the Fisher objective.
    let f_exact = firal::core::objective::selection_objective(&problem, &exact);
    let f_approx = firal::core::objective::selection_objective(&problem, &approx);
    let random = select(&RandomStrategy);
    let f_random = firal::core::objective::selection_objective(&problem, &random);
    assert!(f_exact < f_random, "{f_exact} !< {f_random}");
    assert!(f_approx < f_random, "{f_approx} !< {f_random}");
}

#[test]
fn experiments_are_reproducible_given_seed() {
    let ds = small_dataset(4);
    let a = run_experiment(
        &ds,
        &ApproxFiral::default(),
        2,
        5,
        7,
        &TrainConfig::default(),
    )
    .unwrap();
    let b = run_experiment(
        &ds,
        &ApproxFiral::default(),
        2,
        5,
        7,
        &TrainConfig::default(),
    )
    .unwrap();
    assert_eq!(a.acquired, b.acquired);
    let c = run_experiment(&ds, &RandomStrategy, 2, 5, 8, &TrainConfig::default()).unwrap();
    let d = run_experiment(&ds, &RandomStrategy, 2, 5, 9, &TrainConfig::default()).unwrap();
    assert_ne!(c.acquired, d.acquired, "different seeds should differ");
}

#[test]
fn table_v_presets_generate_and_run_one_round() {
    // Every Table V preset must produce a functioning round at smoke scale.
    for name in PresetName::all() {
        let preset = ExperimentPreset::host_scaled(name).scale_down(8);
        let ds = preset.generate::<f64>(0);
        assert_eq!(ds.num_classes, preset.config.classes, "{}", name.label());
        let res = run_experiment(
            &ds,
            &RandomStrategy,
            1,
            preset.config.classes.min(ds.pool_size() / 2),
            0,
            &TrainConfig::default(),
        )
        .unwrap();
        assert_eq!(res.rounds.len(), 2, "{}", name.label());
    }
}

#[test]
fn f32_and_f64_pipelines_agree_on_selection_shape() {
    let ds64 = small_dataset(5);
    let ds32 = ds64.cast::<f32>();
    let p64 = problem_from(&ds64);
    let model32 =
        LogisticRegression::fit_default(&ds32.initial_features, &ds32.initial_labels).unwrap();
    let p32 = SelectionProblem::new(
        ds32.pool_features.clone(),
        model32.class_probs_cm1(&ds32.pool_features),
        ds32.initial_features.clone(),
        model32.class_probs_cm1(&ds32.initial_features),
        ds32.num_classes,
    );
    let s64 = select_serial(&ApproxFiral::default(), &p64, 5, 0)
        .unwrap()
        .selected;
    let s32 = select_serial(&ApproxFiral::default(), &p32, 5, 0)
        .unwrap()
        .selected;
    // Different precisions may not match point-for-point, but both must be
    // valid distinct batches from the same pool.
    assert_eq!(s64.len(), 5);
    assert_eq!(s32.len(), 5);
    let overlap = s64.iter().filter(|i| s32.contains(i)).count();
    assert!(overlap >= 2, "f32 {s32:?} vs f64 {s64:?} diverged entirely");
}
