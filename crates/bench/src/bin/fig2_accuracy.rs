//! Fig. 2 — classification accuracy for active learning on the Table V
//! presets: MNIST, CIFAR-10, imb-CIFAR-10, ImageNet-50, imb-ImageNet-50;
//! five methods (Random, K-Means, Entropy, Exact-FIRAL, Approx-FIRAL);
//! both pool accuracy (upper row) and evaluation accuracy (lower row).
//!
//! Usage:
//!   cargo run --release -p firal-bench --bin fig2_accuracy [--csv]
//!       [--trials N]      stochastic-baseline trials    (default 5; paper 10)
//!       [--paper-scale]   Table V pool/eval sizes       (default host-scaled)
//!       [--exact]         include Exact-FIRAL           (default on ≤10-class presets)
//!       [--no-exact]      skip Exact-FIRAL everywhere
//!       [--preset NAME]   run a single preset (mnist|cifar10|imb-cifar10|
//!                         imagenet50|imb-imagenet50)

use firal_bench::report::{arg_value, has_flag, Table};
use firal_core::{
    run_experiment, ApproxFiral, DistStrategy, EntropyStrategy, ExactFiral, KMeansStrategy,
    RandomStrategy,
};
use firal_data::{ExperimentPreset, PresetName};
use firal_logreg::TrainConfig;

struct MethodResult {
    name: &'static str,
    /// Per-round mean pool accuracy (index 0 = after the first batch).
    pool: Vec<f64>,
    pool_std: Vec<f64>,
    eval: Vec<f64>,
    eval_std: Vec<f64>,
    num_labeled: Vec<usize>,
}

fn run_method(
    preset: &ExperimentPreset,
    strategy: &dyn DistStrategy<f64>,
    trials: u64,
) -> MethodResult {
    let dataset = preset.generate::<f64>(0);
    let train = TrainConfig::default();
    let nrounds = preset.rounds;
    let mut pool_acc = vec![Vec::new(); nrounds + 1];
    let mut eval_acc = vec![Vec::new(); nrounds + 1];
    let mut num_labeled = Vec::new();
    for trial in 0..trials {
        let res = run_experiment(
            &dataset,
            strategy,
            nrounds,
            preset.budget_per_round,
            trial,
            &train,
        )
        .expect("experiment failed");
        num_labeled = res.rounds.iter().map(|r| r.num_labeled).collect();
        for (i, r) in res.rounds.iter().enumerate() {
            pool_acc[i].push(r.pool_accuracy);
            eval_acc[i].push(r.eval_accuracy);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let std = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
    };
    MethodResult {
        name: match strategy.name() {
            "Random" => "Random",
            "K-Means" => "K-Means",
            "Entropy" => "Entropy",
            "Exact-FIRAL" => "Exact-FIRAL",
            _ => "Approx-FIRAL",
        },
        pool: pool_acc.iter().map(|v| mean(v)).collect(),
        pool_std: pool_acc.iter().map(|v| std(v)).collect(),
        eval: eval_acc.iter().map(|v| mean(v)).collect(),
        eval_std: eval_acc.iter().map(|v| std(v)).collect(),
        num_labeled,
    }
}

fn main() {
    let trials: u64 = arg_value("--trials").unwrap_or(5);
    let paper_scale = has_flag("--paper-scale");
    let force_exact = has_flag("--exact");
    let no_exact = has_flag("--no-exact");
    let csv = has_flag("--csv");
    let only: Option<String> = arg_value("--preset");

    let presets = [
        ("mnist", PresetName::Mnist),
        ("cifar10", PresetName::Cifar10),
        ("imb-cifar10", PresetName::ImbCifar10),
        ("imagenet50", PresetName::ImageNet50),
        ("imb-imagenet50", PresetName::ImbImageNet50),
    ];

    for (key, name) in presets {
        if let Some(sel) = &only {
            if sel != key {
                continue;
            }
        }
        let preset = if paper_scale {
            ExperimentPreset::paper(name)
        } else {
            ExperimentPreset::host_scaled(name)
        };
        eprintln!(
            "[fig2] {} — c={} d={} n={} rounds={} b={}",
            name.label(),
            preset.config.classes,
            preset.config.dim,
            preset.config.pool_size,
            preset.rounds,
            preset.budget_per_round
        );

        // Exact-FIRAL is only tractable on the small-ê presets, mirroring
        // the paper ("we do not conduct tests on Exact-FIRAL" for large
        // c/d "due to its demanding storage and computational requirements").
        let ehat = preset.config.dim * (preset.config.classes - 1);
        let include_exact = !no_exact && (force_exact || ehat <= 200);

        let mut results: Vec<MethodResult> = Vec::new();
        results.push(run_method(&preset, &RandomStrategy, trials));
        results.push(run_method(&preset, &KMeansStrategy, trials));
        results.push(run_method(&preset, &EntropyStrategy, 1));
        if include_exact {
            results.push(run_method(&preset, &ExactFiral::default(), 1));
        }
        results.push(run_method(&preset, &ApproxFiral::default(), 1));

        for (panel, pick, pick_std) in [
            ("pool accuracy", 0usize, 0usize),
            ("evaluation accuracy", 1, 1),
        ] {
            let mut table = Table::new(format!("Fig. 2 — {} — {}", name.label(), panel), &{
                let mut h = vec!["labels"];
                for r in &results {
                    h.push(r.name);
                }
                h
            });
            let nrows = results[0].num_labeled.len();
            for row in 0..nrows {
                let mut cells = vec![results[0].num_labeled[row].to_string()];
                for r in &results {
                    let (acc, std) = if pick == 0 {
                        (r.pool[row], r.pool_std[row])
                    } else {
                        (r.eval[row], r.eval_std[row])
                    };
                    if std > 1e-9 {
                        cells.push(format!("{:.1}±{:.1}", 100.0 * acc, 100.0 * std));
                    } else {
                        cells.push(format!("{:.1}", 100.0 * acc));
                    }
                }
                table.row(&cells);
            }
            if csv {
                println!("{}", table.to_csv());
            } else {
                println!("{}", table.render());
            }
            let _ = pick_std;
        }
    }
}
