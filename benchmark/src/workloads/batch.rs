//! `relax_bound` and `round_bound`: one rank, f32, the whole of
//! Approx-FIRAL on a Table V shape. The two differ only in shape, which
//! puts the time in opposite phases.

use std::time::Instant;

use firal_comm::SelfComm;
use firal_core::{
    select_serial, ApproxFiral, Executor, RandomStrategy, SelectionProblem, ShardedProblem,
};
use firal_data::{ExperimentPreset, PresetName, SyntheticConfig};
use firal_linalg::counters;

use super::{
    build_problem, firal_layer_metrics, firal_replay, firal_select, fixed_work_config, model_bytes,
    well_formed, work_layer_metrics, Ctx, Outcome, SelectionHash,
};
use crate::probes;
use crate::stats::median;
use crate::trace::Recorder;

struct Shape {
    config: SyntheticConfig,
    budget: usize,
    md_iters: usize,
}

/// Table V's CIFAR-10 row verbatim (c=10, d=20, n=3000, b=10) with 30
/// mirror-descent iterations: about 30 × 2 CG panel solves against one
/// 3 × 10-pick η sweep on 20 × 20 blocks.
pub fn relax_bound(ctx: &Ctx) -> Outcome {
    let preset = ExperimentPreset::paper(PresetName::Cifar10);
    run(
        ctx,
        Shape {
            // The evaluation split is never read here; 50 000 rows of it
            // would only be set-up time.
            config: preset.config.with_eval_size(100),
            budget: preset.budget_per_round,
            md_iters: 30,
        },
    )
}

/// Table V's ImageNet-50 classes and dimension (c=50, d=50) on a small pool
/// (n=600) with b=6 and 4 mirror-descent iterations: each of the 18 picks
/// of the η sweep solves 49 eigenproblems of order 50, which RELAX cannot
/// outweigh on so few points. Sized so that a 15 s run holds about 18
/// selections.
pub fn round_bound(ctx: &Ctx) -> Outcome {
    let preset = ExperimentPreset::paper(PresetName::ImageNet50);
    run(
        ctx,
        Shape {
            config: preset.config.with_pool_size(600).with_eval_size(100),
            budget: 6,
            md_iters: 4,
        },
    )
}

fn run(ctx: &Ctx, shape: Shape) -> Outcome {
    let mut out = Outcome::default();
    let config = fixed_work_config::<f32>(shape.md_iters);
    let budget = shape.budget;
    let comm = SelfComm::new();
    let select = |problem: &SelectionProblem<f32>| {
        firal_select(&comm, problem, &config, budget, ctx.seed).expect("selection on one rank")
    };

    // Set-up: data, classifier, and one selection so that kernel autotuning
    // and first-touch costs are paid before anything is timed.
    let mut last = None;
    for _ in 0..ctx.setup_reps {
        let t0 = Instant::now();
        let built = build_problem::<f32>(&shape.config, ctx.seed);
        let warm = select(&built.problem);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((built, warm));
    }
    let (built, warm) = last.expect("at least one set-up");
    let problem = &built.problem;
    let (n, d, c) = (problem.pool_size(), problem.dim(), problem.num_classes);
    out.shape = vec![
        ("n", n as f64),
        ("d", d as f64),
        ("c", c as f64),
        ("budget", budget as f64),
        ("md_iters", shape.md_iters as f64),
    ];

    let mut rec = Recorder::new(ctx.trace, Instant::now());
    let mut hash = SelectionHash::default();
    let mut traced_ms = Vec::new();
    let mut last_untraced = None;
    let mut last_replayed = None;
    let started = Instant::now();
    let mut rounds = 0;
    while ctx.keep_going(rounds, started) {
        let t0 = Instant::now();
        let selection = select(problem);
        out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.ops += 1;
        if rounds < ctx.counted_rounds {
            hash.eat(&selection.selected);
        }
        out.check(selection.selected == warm.selected, || {
            format!("selection {rounds} differs from the warm-up selection")
        });
        last_untraced = Some(selection);
        if rec.is_on() {
            let t0 = Instant::now();
            let replayed = firal_replay(
                &mut rec,
                rounds as u64,
                &comm,
                problem,
                &config,
                budget,
                ctx.seed,
            );
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.check(replayed.selected == warm.selected, || {
                format!("replayed selection {rounds} differs from dispatch")
            });
            last_replayed = Some(replayed);
        }
        rounds += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.selection_hash = hash.0;

    // Checks, outside the timed region.
    out.check(well_formed(&warm.selected, budget, n), || {
        format!("malformed batch {:?}", warm.selected)
    });
    let strategy = ApproxFiral::new(config.clone());
    let reference = select_serial(&strategy, problem, budget, ctx.seed).expect("reference");
    out.check(reference.selected == warm.selected, || {
        "selection differs from select_serial".into()
    });
    // §IV-A's η criterion of the chosen batch is no worse than that of a
    // random batch of the same size. With b < d both are zero up to
    // rounding, so the tolerance makes this a guard against NaN and sign
    // blow-ups, not a quality claim.
    let shard = ShardedProblem::replicate(problem);
    let exec = Executor::new(&comm, &shard);
    let random = select_serial(&RandomStrategy, problem, budget, ctx.seed).expect("random batch");
    let (ours, theirs) = (
        exec.selection_min_eig(&warm.selected),
        exec.selection_min_eig(&random.selected),
    );
    out.check(ours.is_finite() && ours >= theirs - 1e-4, || {
        format!("min-eig criterion {ours} below a random batch's {theirs}")
    });

    if rec.is_on() {
        let select_s = median(&out.op_ms) / 1e3;
        firal_layer_metrics(
            &mut out,
            &rec,
            select_s,
            median(&traced_ms) / 1e3,
            &last_untraced.expect("at least one selection"),
            &last_replayed.expect("at least one replay"),
            config.round.eta_grid.len() * budget,
        );
        let (_, work) = counters::measure(|| select(problem));
        work_layer_metrics(
            &mut out,
            &[&built],
            work,
            1.0,
            select_s,
            model_bytes(n, d, c, 4),
        );
        probes::run_all(&mut rec, &mut out, problem, ctx.probe_seconds, ctx.seed);
        out.traces.push(("rank0".into(), rec));
    }
    out
}
