//! Fig. 3 — large-class accuracy experiments: Caltech-101 (panels A/B:
//! plain vs class-balanced evaluation accuracy) and ImageNet-1k (panels
//! C/D: pool vs evaluation accuracy). Exact-FIRAL is excluded, as in the
//! paper ("we do not conduct tests on Exact-FIRAL due to its demanding
//! storage and computational requirements").
//!
//! Usage: cargo run --release -p firal-bench --bin fig3_large
//!   [--csv] [--trials N] [--paper-scale] [--preset caltech101|imagenet1k]

use firal_bench::report::{arg_value, has_flag, Table};
use firal_core::{
    run_experiment, ApproxFiral, DistStrategy, EntropyStrategy, KMeansStrategy, RandomStrategy,
};
use firal_data::{ExperimentPreset, PresetName};
use firal_logreg::TrainConfig;

fn main() {
    let trials: u64 = arg_value("--trials").unwrap_or(3);
    let paper_scale = has_flag("--paper-scale");
    let csv = has_flag("--csv");
    let only: Option<String> = arg_value("--preset");

    for (key, name) in [
        ("caltech101", PresetName::Caltech101),
        ("imagenet1k", PresetName::ImageNet1k),
    ] {
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
            "[fig3] {} — c={} d={} n={} rounds={} b={}",
            name.label(),
            preset.config.classes,
            preset.config.dim,
            preset.config.pool_size,
            preset.rounds,
            preset.budget_per_round
        );
        let dataset = preset.generate::<f64>(0);
        let train = TrainConfig::default();

        struct Rec {
            name: &'static str,
            labels: Vec<usize>,
            pool: Vec<f64>,
            eval: Vec<f64>,
            balanced: Vec<f64>,
        }
        let mut recs: Vec<Rec> = Vec::new();
        let strategies: Vec<(Box<dyn DistStrategy<f64>>, u64)> = vec![
            (Box::new(RandomStrategy), trials),
            (Box::new(KMeansStrategy), trials),
            (Box::new(EntropyStrategy), 1),
            (Box::new(ApproxFiral::default()), 1),
        ];
        for (strategy, ntrials) in &strategies {
            let mut pool = Vec::new();
            let mut eval = Vec::new();
            let mut balanced = Vec::new();
            let mut labels = Vec::new();
            for trial in 0..*ntrials {
                let res = run_experiment(
                    &dataset,
                    strategy.as_ref(),
                    preset.rounds,
                    preset.budget_per_round,
                    trial,
                    &train,
                )
                .expect("experiment failed");
                if pool.is_empty() {
                    pool = vec![0.0; res.rounds.len()];
                    eval = vec![0.0; res.rounds.len()];
                    balanced = vec![0.0; res.rounds.len()];
                    labels = res.rounds.iter().map(|r| r.num_labeled).collect();
                }
                for (i, r) in res.rounds.iter().enumerate() {
                    pool[i] += r.pool_accuracy / *ntrials as f64;
                    eval[i] += r.eval_accuracy / *ntrials as f64;
                    balanced[i] += r.balanced_eval_accuracy / *ntrials as f64;
                }
            }
            recs.push(Rec {
                name: match strategy.name() {
                    "Random" => "Random",
                    "K-Means" => "K-Means",
                    "Entropy" => "Entropy",
                    _ => "Approx-FIRAL",
                },
                labels,
                pool,
                eval,
                balanced,
            });
        }

        type PanelAccessor = fn(&Rec, usize) -> f64;
        let panels: &[(&str, PanelAccessor)] = if name == PresetName::Caltech101 {
            &[
                ("(A) evaluation accuracy", |r, i| r.eval[i]),
                ("(B) class-balanced evaluation accuracy", |r, i| {
                    r.balanced[i]
                }),
            ]
        } else {
            &[
                ("(C) pool accuracy", |r, i| r.pool[i]),
                ("(D) evaluation accuracy", |r, i| r.eval[i]),
            ]
        };
        for (panel, pick) in panels {
            let mut table = Table::new(format!("Fig. 3 — {} — {panel}", name.label()), &{
                let mut h = vec!["labels"];
                for r in &recs {
                    h.push(r.name);
                }
                h
            });
            for i in 0..recs[0].labels.len() {
                let mut cells = vec![recs[0].labels[i].to_string()];
                for r in &recs {
                    cells.push(format!("{:.1}", 100.0 * pick(r, i)));
                }
                table.row(&cells);
            }
            if csv {
                println!("{}", table.to_csv());
            } else {
                println!("{}", table.render());
            }
        }
    }
}
