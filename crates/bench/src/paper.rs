//! The paper ledger: §IV of arXiv:2409.07392 (Figs. 1–7, Tables II/III/VI)
//! as one table of claims, committed as `BENCH_paper.json`.
//!
//! `spmd_launch paper` ([`main`]) runs the ledger in the launcher process (ranks of the
//! scaling rows are in-process [`firal_comm::ThreadComm`] threads) and
//! writes one row per line: `{id, artifact, claim, form, measured, model,
//! tolerance, verdict}`. `spmd_launch paper --check FILE` re-runs the
//! ledger and names every claim whose verdict differs from `FILE`'s.
//!
//! The verdict is `form` applied to `(measured, model, tolerance)` (see
//! `Form`). Only quantities that are deterministic functions of the seed
//! — flop counts, CG iterations, condition numbers, RELAX objectives,
//! selections, accuracies — get `pass` / `fail`; wall-clock rows carry
//! `info` with the model's prediction beside the measurement. The host is
//! 2 vCPUs: every row is sized (smaller presets, fewer trials or rounds)
//! to keep the whole ledger near 400 s there (397 s measured at a
//! calibrated 37.9 GF/s peak), and its claim records the sizes.

use std::fmt::Write as _;

use firal_comm::{CommStats, Communicator, CostModel, SelfComm};
use firal_core::hessian::{dense_hessian, fast_matvec, BlockJacobi, PoolHessian, SigmaZ};
use firal_core::{
    exact_relax, exact_round, run_experiment, ApproxFiral, DistStrategy, EntropyStrategy,
    ExactFiral, Executor, KMeansStrategy, MirrorDescentConfig, RandomStrategy, RelaxConfig,
    SelectionProblem, ShardedProblem,
};
use firal_data::{ExperimentPreset, PresetName, SyntheticConfig};
use firal_linalg::{counters, Matrix};
use firal_logreg::TrainConfig;
use firal_solvers::{cg_solve_panel, rademacher_panel, CgConfig, IdentityPreconditioner};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workloads::{
    fig6_rank_body, fig7_rank_body, scaling_problem, selection_problem_from_dataset, timed,
    FIG7_BUDGET,
};

/// How a row's verdict follows from `(measured, model, tolerance)`. A
/// non-finite measurement fails every checked form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// `|measured − model| ≤ tolerance·|model|`.
    Rel,
    /// `|measured − model| ≤ tolerance`.
    Abs,
    /// `measured ≥ model − tolerance`.
    Ge,
    /// `measured ≤ model + tolerance`.
    Le,
    /// `measured > model` (tolerance unused).
    Gt,
    /// Recorded, not checked (wall clock on this host).
    Info,
}

impl Form {
    /// `pass`, `fail` or `info`.
    fn verdict(self, measured: f64, model: f64, tolerance: f64) -> &'static str {
        let pass = match self {
            Form::Rel => (measured - model).abs() <= tolerance * model.abs(),
            Form::Abs => (measured - model).abs() <= tolerance,
            Form::Ge => measured >= model - tolerance,
            Form::Le => measured <= model + tolerance,
            Form::Gt => measured > model,
            Form::Info => return "info",
        };
        if pass {
            "pass"
        } else {
            "fail"
        }
    }
}

/// One claim of the ledger.
#[derive(Debug, Clone)]
struct Row {
    /// Unique, stable claim id (`--check` matches on it).
    id: String,
    /// The paper artifact the claim reproduces.
    artifact: &'static str,
    /// The claim in words, with the sizes it was measured at.
    claim: String,
    /// How the verdict is decided.
    form: Form,
    /// What this run measured.
    measured: f64,
    /// What the paper's model (or the compared method) predicts.
    model: f64,
    /// Slack the form allows.
    tolerance: f64,
}

impl Row {
    fn new(
        id: impl Into<String>,
        artifact: &'static str,
        claim: impl Into<String>,
        form: Form,
        (measured, model, tolerance): (f64, f64, f64),
    ) -> Self {
        Self {
            id: id.into(),
            artifact,
            claim: claim.into(),
            form,
            measured,
            model,
            tolerance,
        }
    }

    /// This row's verdict.
    fn verdict(&self) -> &'static str {
        self.form.verdict(self.measured, self.model, self.tolerance)
    }
}

/// Random and K-Means trials per accuracy row (the paper's 10).
const TRIALS: u64 = 10;

/// Run every section of the ledger at its committed size, logging each
/// section's row count and seconds to stderr.
fn run() -> Vec<Row> {
    // The peak of one kernel thread: every timed body runs single-threaded.
    let host = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("calibration pool")
        .install(|| CostModel::calibrate_on_host(160));
    eprintln!(
        "[paper] calibrated peak {:.2} GFLOP/s",
        host.peak_flops / 1e9
    );
    let preset = |name, shrink, rounds, budget| ExperimentPreset {
        rounds,
        budget_per_round: budget,
        ..ExperimentPreset::host_scaled(name).scale_down(shrink)
    };
    let mut rows = Vec::new();
    let mut section = |name: &str, f: &dyn Fn() -> Vec<Row>| {
        let (section_rows, secs) = timed(f);
        eprintln!("[paper] {name}: {} rows in {secs:.1} s", section_rows.len());
        rows.extend(section_rows);
    };
    section("fig1", &|| {
        let presets = [
            (PresetName::Cifar10, 3, 10),
            (PresetName::ImageNet1k, 5, 100),
        ];
        presets
            .iter()
            .flat_map(|&(name, r, b)| fig1(&preset(name, 1, r, b)))
            .collect()
    });
    section("table2", &|| table2(Shape::new(2000, 24, 8)));
    section("table3", &|| {
        table3(&[(16, 5), (32, 9), (64, 17), (128, 33)])
    });
    section("table6", &|| {
        table6([Shape::new(600, 12, 10), Shape::new(800, 20, 20)])
    });
    section("fig4", &|| {
        let presets = [
            (PresetName::Cifar10, 2, 10),
            (PresetName::ImageNet50, 4, 50),
        ];
        presets
            .iter()
            .flat_map(|&(name, s, b)| fig4(&preset(name, s, 1, b)))
            .collect()
    });
    // Figs. 2–3: the c = 10 presets at half the host-scaled pool (Exact-FIRAL
    // runs there); ImageNet-50 at half the pool and 3 of 6 rounds; the
    // 100-class presets at 2 rounds of 20.
    for (name, shrink, rounds, budget) in [
        (PresetName::Mnist, 2, 3, 10),
        (PresetName::Cifar10, 2, 3, 10),
        (PresetName::ImbCifar10, 2, 3, 10),
        (PresetName::ImageNet50, 2, 3, 50),
        (PresetName::ImbImageNet50, 2, 3, 50),
        (PresetName::Caltech101, 2, 2, 20),
        (PresetName::ImageNet1k, 4, 2, 20),
    ] {
        let p = preset(name, shrink, rounds, budget);
        section(&preset_key(name), &|| accuracy(&p));
    }
    section("fig5", &|| fig5(&host));
    section("fig6", &|| scaling("fig6", "Fig. 6", fig6_rank_body, &host));
    section("fig7", &|| scaling("fig7", "Fig. 7", fig7_rank_body, &host));
    rows
}

/// `(n, d, c)` of a synthetic pool.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: usize,
    d: usize,
    c: usize,
}

impl Shape {
    fn new(n: usize, d: usize, c: usize) -> Self {
        Self { n, d, c }
    }

    fn label(self) -> String {
        format!("n={} d={} c={}", self.n, self.d, self.c)
    }

    /// The harness pool of this shape: one initial label per class,
    /// well-separated normalized embeddings.
    fn problem(self, seed: u64) -> SelectionProblem<f64> {
        let ds = SyntheticConfig::new(self.c, self.d)
            .with_pool_size(self.n)
            .with_initial_per_class(1)
            .with_eval_size(self.c * 2)
            .with_separation(4.0)
            .with_normalize(true)
            .with_seed(seed)
            .generate::<f64>();
        selection_problem_from_dataset(&ds)
    }
}

fn serial(problem: &SelectionProblem<f64>) -> (SelfComm, ShardedProblem<f64>) {
    (SelfComm::new(), ShardedProblem::replicate(problem))
}

/// Exactly `iters` mirror-descent iterations (the stopping rule off).
fn fixed_iterations<T: firal_linalg::Scalar>(iters: usize) -> MirrorDescentConfig<T> {
    MirrorDescentConfig {
        max_iters: iters,
        obj_rel_tol: T::ZERO,
    }
}

/// Whether the dense `ê × ê` paths — Exact-FIRAL, κ of the assembled
/// `Σ_z` — fit this host: ê ≤ 200, the paper's own cut ("we do not conduct
/// tests on Exact-FIRAL" beyond its small presets).
fn dense_affordable(preset: &ExperimentPreset) -> bool {
    preset.config.dim * (preset.config.classes - 1) <= 200
}

/// Fig. 1 / §III-A: block-Jacobi `B(Σ_z)⁻¹` cuts the CG iterations of the
/// first RELAX solve (`rel_tol` 1e-3, one Rademacher probe) and, where
/// dense assembly is affordable, the condition number.
fn fig1(preset: &ExperimentPreset) -> Vec<Row> {
    let key = preset_key(preset.name);
    let problem = selection_problem_from_dataset(&preset.generate::<f64>(0));
    let n = problem.pool_size();
    let z = vec![preset.budget_per_round as f64 / n as f64; n];
    let sigma = SigmaZ::new(
        PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h),
        PoolHessian::weighted(&problem.pool_x, &problem.pool_h, z),
    );
    let bsz = sigma.block_diagonal();
    let prec = BlockJacobi::new_with_ridge(&bsz, 1e-10).expect("preconditioner");
    let v: Matrix<f64> = rademacher_panel(problem.ehat(), 1, &mut StdRng::seed_from_u64(1));
    let cfg = CgConfig {
        rel_tol: 1e-3,
        max_iter: 4 * problem.ehat(),
    };
    let plain = cg_solve_panel(&sigma, &IdentityPreconditioner, &v, &cfg).1[0].iterations;
    let precond = cg_solve_panel(&sigma, &prec, &v, &cfg).1[0].iterations;
    let sizes = format!(
        "[{} n={n} d={} c={}]",
        preset.name.label(),
        problem.dim(),
        problem.num_classes
    );
    let mut rows = vec![Row::new(
        format!("fig1.{key}.cg_iteration_ratio"),
        "Fig. 1",
        format!("CG iterations to rel. residual 1e-3 without / with block-Jacobi > 1 {sizes}"),
        Form::Gt,
        (plain as f64 / precond.max(1) as f64, 1.0, 0.0),
    )];
    if dense_affordable(preset) {
        let dense = sigma.to_dense();
        let kappa = firal_linalg::spd_condition_number(&dense).expect("κ(Σ_z)");
        let w = firal_linalg::spd_inv_sqrt(&bsz.to_dense()).expect("B^{-1/2}");
        let m = firal_linalg::gemm(&firal_linalg::gemm(&w, &dense), &w);
        let kappa_prec = firal_linalg::spd_condition_number(&m).expect("κ(B⁻¹Σ)");
        rows.push(Row::new(
            format!("fig1.{key}.kappa_ratio"),
            "Fig. 1",
            format!("κ(Σ_z) / κ(B(Σ_z)⁻¹Σ_z) > 1 {sizes}"),
            Form::Gt,
            (kappa / kappa_prec, 1.0, 0.0),
        ));
    }
    rows
}

/// Table II: flops of one Approx-RELAX iteration (10 CG steps, s = 10),
/// one ROUND pick plus the scoring pass that reads its ν, and one
/// Exact-RELAX iteration, measured by `counters` while one of (n, d, c)
/// doubles, against the growth the pinned formulas predict.
fn table2(base: Shape) -> Vec<Row> {
    let measure = |s: Shape| -> [f64; 3] {
        let problem = s.problem(5);
        let budget = 8.min(s.n / 2);
        let (comm, shard) = serial(&problem);
        let exec = Executor::new(&comm, &shard);
        let cfg = RelaxConfig {
            md: fixed_iterations(1),
            cg_tol: 0.0,
            cg_max_iter: 10,
            seed: 1,
            ..Default::default()
        };
        let relax = counters::measure(|| exec.relax(budget, &cfg)).1.flops;
        let z = vec![budget as f64 / s.n as f64; s.n];
        let eta = 4.0 * (problem.ehat() as f64).sqrt();
        let round = counters::measure(|| exec.round(&z, FIG7_BUDGET, eta))
            .1
            .flops;
        let exact = counters::measure(|| exact_relax(&problem, budget, &fixed_iterations(1)))
            .1
            .flops;
        [relax as f64, round as f64, exact as f64]
    };
    // Dominant terms per iteration (s = n_CG = 10; c counts the c − 1
    // blocks). ROUND: two scoring passes of 2ncd² (triangular pool
    // products) + cd³ (factor chain), the Σ⋄ Gram ncd², one eigensolve 4cd³
    // and the whitening prologue ≈ 5cd³. Exact RELAX: gradient nc²d² +
    // dense (cd)³ solves.
    let model = |s: Shape| {
        let (n, d, c) = (s.n as f64, s.d as f64, (s.c - 1) as f64);
        [
            c * d.powi(3) + 2.0 * c * n * d * d + 800.0 * n * c * d + 40.0 * n * c * d,
            5.0 * n * c * d * d + 11.0 * c * d.powi(3),
            2.0 * n * c * c * d * d + 2.0 * (c * d).powi(3),
        ]
    };
    let formulas = [
        ("approx_relax", "cd³ + 2ncd² + 8·n_CG·ncsd + 4ncsd"),
        ("approx_round", "5ncd² + 11cd³"),
        ("exact_relax", "2nc²d² + 2(cd)³"),
    ];
    let at_base = measure(base);
    let mut rows = Vec::new();
    let Shape { n, d, c } = base;
    for (axis, grown) in [
        ("n", Shape::new(2 * n, d, c)),
        ("d", Shape::new(n, 2 * d, c)),
        ("c", Shape::new(n, d, 2 * c)),
    ] {
        let at_grown = measure(grown);
        let (model_base, model_grown) = (model(base), model(grown));
        for (i, (solver, text)) in formulas.iter().enumerate() {
            rows.push(Row::new(
                format!("table2.{solver}.{axis}x2"),
                "Table II",
                format!(
                    "{solver} flops per iteration grow as {text} when {axis} doubles, within 10 % [{} -> {}]",
                    base.label(),
                    grown.label()
                ),
                Form::Rel,
                (at_grown[i] / at_base[i], model_grown[i] / model_base[i], 0.10),
            ));
        }
    }
    rows
}

/// Timings per wall-clock ratio: each side of a ratio is the best of this
/// many runs, the two sides interleaved, because this host's speed drifts
/// between runs (one `table6.large` ratio read 81× and then 73× on the
/// same code, single runs each).
const RATIO_TIMINGS: usize = 3;

/// Table III: the direct (materialised Kronecker) Hessian matvec costs
/// `O(d²c²)` flops against the fast (Lemma 2) `O(dc)`, so their ratio grows
/// ∝ dc: log-log slope 1 within 10 % from the first shape to the last. The
/// wall-clock ratio per shape (best of [`RATIO_TIMINGS`] interleaved
/// timings each side) is recorded beside the flop ratio.
fn table3(shapes: &[(usize, usize)]) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for &(d, c) in shapes {
        let cm1 = c - 1;
        let x: Vec<f64> = (0..d).map(|j| ((j * 7 % 13) as f64 - 6.0) * 0.1).collect();
        let h: Vec<f64> = (0..cm1).map(|k| 0.5 / (k + 2) as f64).collect();
        let v: Vec<f64> = (0..d * cm1)
            .map(|j| ((j * 3 % 7) as f64 - 3.0) * 0.2)
            .collect();
        let direct = || dense_hessian(&x, &h).matvec(&v);
        let fast = || fast_matvec(&x, &h, &v);
        let flop_ratio =
            counters::measure(direct).1.flops as f64 / counters::measure(fast).1.flops as f64;
        let per_call = |f: &dyn Fn() -> Vec<f64>, reps: usize| {
            timed(|| (0..reps).for_each(|_| drop(std::hint::black_box(f())))).1 / reps as f64
        };
        let (mut direct_s, mut fast_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..RATIO_TIMINGS {
            direct_s = direct_s.min(per_call(&direct, 10));
            fast_s = fast_s.min(per_call(&fast, 1000));
        }
        rows.push(Row::new(
            format!("table3.d{d}_c{c}.time_ratio"),
            "Table III",
            format!("direct / fast matvec wall-clock ratio on this host, best of {RATIO_TIMINGS} interleaved timings each, model = flop ratio [d={d} c={c}]"),
            Form::Info,
            (direct_s / fast_s, flop_ratio, 0.0),
        ));
        ratios.push(((d * cm1) as f64, flop_ratio));
    }
    let (first, last) = (ratios[0], ratios[ratios.len() - 1]);
    rows.insert(
        0,
        Row::new(
            "table3.flop_ratio_slope",
            "Table III",
            format!(
                "direct / fast matvec flop ratio ∝ dc: log-log slope against dc is 1 within 10 % [(d, c) = {shapes:?}]"
            ),
            Form::Rel,
            ((last.1 / first.1).ln() / (last.0 / first.0).ln(), 1.0, 0.10),
        ),
    );
    rows
}

/// Table VI: Exact- vs Approx-FIRAL (RELAX at a fixed iteration count,
/// then ROUND at one η) on a smaller and a larger shape. The flop ratio
/// must grow with the shape (the paper's 29× → 177×); the wall-clock
/// ratios, best of [`RATIO_TIMINGS`] interleaved runs each side, are
/// recorded against it.
fn table6(cases: [Shape; 2]) -> Vec<Row> {
    let iters = 4;
    let ratios = cases.map(|s| {
        let problem = s.problem(0);
        let budget = s.c;
        let eta = 4.0 * (problem.ehat() as f64).sqrt();
        let md = fixed_iterations(iters);
        let exact = || {
            let (z, _) = exact_relax(&problem, budget, &md);
            exact_round(&problem, &z, budget, eta)
        };
        let (comm, shard) = serial(&problem);
        let exec = Executor::new(&comm, &shard);
        let cfg = RelaxConfig {
            md,
            ..Default::default()
        };
        let approx = || {
            let relax = exec.relax(budget, &cfg);
            exec.round(&relax.z_local, budget, eta)
        };
        // The flop counts repeat exactly; the times are each side's best.
        let (mut exact_s, mut approx_s) = (f64::INFINITY, f64::INFINITY);
        let (mut exact_flops, mut approx_flops) = (0, 0);
        for _ in 0..RATIO_TIMINGS {
            let ((_, counts), secs) = timed(|| counters::measure(exact));
            (exact_flops, exact_s) = (counts.flops, exact_s.min(secs));
            let ((_, counts), secs) = timed(|| counters::measure(approx));
            (approx_flops, approx_s) = (counts.flops, approx_s.min(secs));
        }
        (exact_flops as f64 / approx_flops as f64, exact_s / approx_s)
    });
    let sizes = |s: Shape| format!("[{} b={}, {iters} RELAX iterations]", s.label(), s.c);
    let mut rows = vec![Row::new(
        "table6.flop_ratio_grows",
        "Table VI",
        format!(
            "Exact / Approx-FIRAL flop ratio at the larger shape {} > at the smaller {}",
            sizes(cases[1]),
            sizes(cases[0])
        ),
        Form::Gt,
        (ratios[1].0, ratios[0].0, 0.0),
    )];
    for (which, s, (flop_ratio, time_ratio)) in [
        ("small", cases[0], ratios[0]),
        ("large", cases[1], ratios[1]),
    ] {
        rows.push(Row::new(
            format!("table6.{which}.time_ratio"),
            "Table VI",
            format!(
                "Exact / Approx-FIRAL wall-clock ratio on this host, best of {RATIO_TIMINGS} interleaved runs each, model = flop ratio {}",
                sizes(s)
            ),
            Form::Info,
            (time_ratio, flop_ratio, 0.0),
        ));
    }
    rows
}

/// Fig. 4: "RELAX does not demonstrate sensitivity to either s or cg_tol" —
/// the final objective over s ∈ {10, 20, 100} (cg_tol 0.1) and cg_tol ∈
/// {0.5, 0.1, 0.01, 0.001} (s = 10) spreads by ≤ 5 %; where the dense
/// solver is affordable the Exact RELAX objective is recorded beside the
/// default setting's.
fn fig4(preset: &ExperimentPreset) -> Vec<Row> {
    let (key, iters) = (preset_key(preset.name), 20);
    let problem = selection_problem_from_dataset(&preset.generate::<f64>(0));
    let b = preset.budget_per_round;
    let md = fixed_iterations(iters);
    let (comm, shard) = serial(&problem);
    let exec = Executor::new(&comm, &shard);
    let last = |v: &[f64]| *v.last().expect("objective history");
    let settings = [
        (10, 0.1),
        (20, 0.1),
        (100, 0.1),
        (10, 0.5),
        (10, 0.01),
        (10, 0.001),
    ];
    let finals: Vec<f64> = settings
        .iter()
        .map(|&(probes, cg_tol)| {
            let cfg = RelaxConfig {
                md,
                probes,
                cg_tol,
                seed: 1,
                ..Default::default()
            };
            last(&exec.relax(b, &cfg).telemetry.objective_history)
        })
        .collect();
    let lo = finals.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let sizes = format!(
        "[{} n={} d={} c={} b={b}, {iters} iterations]",
        preset.name.label(),
        problem.pool_size(),
        problem.dim(),
        problem.num_classes
    );
    let mut rows = vec![Row::new(
        format!("fig4.{key}.objective_spread"),
        "Fig. 4",
        format!("final RELAX objective spread (max − min) / min over the s and cg_tol grids ≤ 5 % {sizes}"),
        Form::Le,
        ((hi - lo) / lo.abs(), 0.0, 0.05),
    )];
    if dense_affordable(preset) {
        let exact = last(&exact_relax(&problem, b, &md).1.objective_history);
        rows.push(Row::new(
            format!("fig4.{key}.exact_gap"),
            "Fig. 4",
            format!("final objective of Approx RELAX (s = 10, cg_tol 0.1), model = Exact RELAX's {sizes}"),
            Form::Info,
            (finals[0], exact, 0.0),
        ));
    }
    rows
}

/// `imb-CIFAR-10` → `imb_cifar10`.
fn preset_key(name: PresetName) -> String {
    name.label()
        .to_lowercase()
        .replacen("imb-", "imb_", 1)
        .replace('-', "")
}

/// Figs. 2–3, one preset: Approx-FIRAL's final evaluation accuracy passes
/// against a baseline iff it is ≥ that baseline's mean − max(1 pt, its
/// across-trial std), and against Exact-FIRAL iff within 1 pt. Random and
/// K-Means run [`TRIALS`] seeds; Entropy, Exact- and Approx-FIRAL one.
fn accuracy(preset: &ExperimentPreset) -> Vec<Row> {
    let dataset = preset.generate::<f64>(0);
    // Final evaluation accuracy of one run, in percentage points.
    let final_accuracy = |strategy: &dyn DistStrategy<f64>, seed| {
        let train = TrainConfig::default();
        let (rounds, b) = (preset.rounds, preset.budget_per_round);
        let run = run_experiment(&dataset, strategy, rounds, b, seed, &train);
        100.0 * run.expect("experiment failed").final_eval_accuracy()
    };
    let key = preset_key(preset.name);
    let artifact = match preset.name {
        PresetName::Caltech101 | PresetName::ImageNet1k => "Fig. 3",
        _ => "Fig. 2",
    };
    let cfg = &preset.config;
    let sizes = format!(
        "[{} c={} d={} n={} eval={} rounds={} b={}",
        preset.name.label(),
        cfg.classes,
        cfg.dim,
        cfg.pool_size,
        cfg.eval_size,
        preset.rounds,
        preset.budget_per_round
    );
    let firal = final_accuracy(&ApproxFiral::default(), 0);
    let baselines: [(&str, &dyn DistStrategy<f64>, u64); 3] = [
        ("random", &RandomStrategy, TRIALS),
        ("kmeans", &KMeansStrategy, TRIALS),
        ("entropy", &EntropyStrategy, 1),
    ];
    let mut rows = Vec::new();
    for (name, strategy, n) in baselines {
        let accs: Vec<f64> = (0..n).map(|seed| final_accuracy(strategy, seed)).collect();
        let mean = accs.iter().sum::<f64>() / n as f64;
        let std = (accs.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        rows.push(Row::new(
            format!("acc.{key}.vs_{name}"),
            artifact,
            format!(
                "Approx-FIRAL final eval accuracy (pts) ≥ {} mean − max(1, std) {sizes}, {n} trial(s)]",
                strategy.name()
            ),
            Form::Ge,
            (firal, mean, std.max(1.0)),
        ));
    }
    if dense_affordable(preset) {
        let exact = final_accuracy(&ExactFiral, 0);
        rows.push(Row::new(
            format!("acc.{key}.vs_exact_firal"),
            artifact,
            format!("Approx-FIRAL final eval accuracy (pts) within 1 pt of Exact-FIRAL {sizes}]"),
            Form::Abs,
            (firal, exact, 1.0),
        ));
    }
    rows
}

type RankBody = fn(&SelectionProblem<f32>, &dyn Communicator) -> (f64, CommStats);

/// `(measured, model)` seconds of `body` on `p` in-process ThreadComm ranks
/// of one kernel thread each: the slowest rank's seconds in the timed call
/// against the counted flops ÷ p at the calibrated peak plus
/// `CostModel::predict_comm` of rank 0's collectives.
fn launch_timed(
    body: RankBody,
    problem: &SelectionProblem<f32>,
    p: usize,
    host: &CostModel,
) -> (f64, f64) {
    let (results, cost) = counters::measure(|| firal_comm::launch(p, |comm| body(problem, comm)));
    let secs = results.iter().map(|&(secs, _)| secs).fold(0.0, f64::max);
    let model = host.flop_time(cost.flops / p as u64) + host.predict_comm(&results[0].1, p);
    (secs, model)
}

/// Fig. 5: single-node seconds of one RELAX iteration and one ROUND pick
/// vs d and c, against the counted flops at the calibrated host peak.
fn fig5(host: &CostModel) -> Vec<Row> {
    let n = 10_000;
    let mut rows = Vec::new();
    for (d, c) in [(48, 50), (96, 50), (48, 25), (48, 100)] {
        let problem = scaling_problem(c, d, n, 1);
        for (phase, body) in [
            ("relax", fig6_rank_body as RankBody),
            ("round", fig7_rank_body),
        ] {
            let (secs, model) = launch_timed(body, &problem, 1, host);
            rows.push(Row::new(
                format!("fig5.d{d}_c{c}.{phase}"),
                "Fig. 5",
                format!("one {phase} step, seconds on this host, model = counted flops / calibrated peak [n={n} d={d} c={c}, f32]"),
                Form::Info,
                (secs, model, 0.0),
            ));
        }
    }
    rows
}

/// Figs. 6–7: strong (fixed n) and weak (fixed n per rank) efficiency at
/// p ∈ {2, 4} against p = 1, measured and modelled ([`launch_timed`]).
fn scaling(key: &str, artifact: &'static str, body: RankBody, host: &CostModel) -> Vec<Row> {
    let (c, d) = (100, 96);
    // (mode, n at p = 1, whether n grows with p)
    let modes = [("strong", 8000, false), ("weak", 2000, true)];
    let time_at = |p: usize, n: usize| launch_timed(body, &scaling_problem(c, d, n, 7), p, host);
    let base: Vec<(f64, f64)> = modes.iter().map(|&(_, n, _)| time_at(1, n)).collect();
    let mut rows = Vec::new();
    for p in [2, 4] {
        for (&(mode, n, weak), (t1, m1)) in modes.iter().zip(&base) {
            let (tp, mp) = time_at(p, if weak { n * p } else { n });
            let work = if weak { 1.0 } else { p as f64 };
            let sizes = if weak {
                format!("n={n}·p")
            } else {
                format!("n={n}")
            };
            rows.push(Row::new(
                format!("{key}.{mode}.p{p}"),
                artifact,
                format!("{mode}-scaling efficiency at p = {p} ThreadComm ranks on this host, model = calibrated flops + comm [c={c} d={d} {sizes}, f32]"),
                Form::Info,
                (t1 / (work * tp), m1 / (work * mp), 0.0),
            ));
        }
    }
    rows
}

/// Format a number as a JSON value (`null` when not finite).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The `BENCH_paper.json` text: one row per line.
fn to_json(rows: &[Row]) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"source\": \"spmd_launch paper (crates/bench/src/paper.rs); info rows are wall clock on a 2-vCPU host\","
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        assert!(
            !r.claim.contains(['"', '\\']),
            "claim text must not need escaping"
        );
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"id\": \"{}\", \"artifact\": \"{}\", \"claim\": \"{}\", \"form\": \"{}\", \
             \"measured\": {}, \"model\": {}, \"tolerance\": {}, \"verdict\": \"{}\"}}{comma}",
            r.id,
            r.artifact,
            r.claim,
            format!("{:?}", r.form).to_lowercase(),
            json_number(r.measured),
            json_number(r.model),
            json_number(r.tolerance),
            r.verdict()
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// The string value of `"key": "…"` in one line of [`to_json`] output.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Every claim whose verdict in `rows` differs from the `baseline` file's,
/// or that only one side has; empty when the ledger agrees.
fn check(baseline: &str, rows: &[Row]) -> Vec<String> {
    let base: Vec<(&str, &str)> = baseline
        .lines()
        .filter_map(|l| Some((field(l, "id")?, field(l, "verdict")?)))
        .collect();
    let mut diffs = Vec::new();
    for r in rows {
        match base.iter().find(|(id, _)| *id == r.id) {
            Some((_, v)) if *v == r.verdict() => {}
            Some((_, v)) => diffs.push(format!("{}: baseline {v}, now {}", r.id, r.verdict())),
            None => diffs.push(format!(
                "{}: not in the baseline (now {})",
                r.id,
                r.verdict()
            )),
        }
    }
    for (id, v) in &base {
        if !rows.iter().any(|r| r.id == *id) {
            diffs.push(format!("{id}: baseline {v}, no longer measured"));
        }
    }
    diffs
}

/// `spmd_launch paper [--check FILE]`: run the ledger, then either rewrite
/// `BENCH_paper.json` or compare verdicts against `FILE` (exit 1 naming
/// every differing claim). Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let baseline = crate::args::opt::<String>(args, "--check").map(|path| {
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: --check: cannot read {path}: {e}");
            std::process::exit(2)
        })
    });
    let (rows, secs) = timed(run);
    for r in &rows {
        println!(
            "{:<36} {:<5} measured {:>12.5} model {:>12.5}",
            r.id,
            r.verdict(),
            r.measured,
            r.model
        );
    }
    let failed = rows.iter().filter(|r| r.verdict() == "fail").count();
    eprintln!("[paper] {} rows ({failed} fail) in {secs:.1} s", rows.len());
    match baseline {
        None => {
            let path = "BENCH_paper.json";
            if let Err(e) = std::fs::write(path, to_json(&rows)) {
                eprintln!("error: cannot write {path}: {e}");
                return 2;
            }
            eprintln!("[paper] wrote {path}");
            0
        }
        Some(text) => {
            let diffs = check(&text, &rows);
            for d in &diffs {
                eprintln!("verdict differs: {d}");
            }
            i32::from(!diffs.is_empty())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every checked section at a size a debug-build test affords.
    fn deterministic_rows_at_test_size() -> Vec<Row> {
        let preset = ExperimentPreset {
            name: PresetName::Cifar10,
            config: SyntheticConfig::new(3, 4)
                .with_pool_size(60)
                .with_initial_per_class(1)
                .with_eval_size(30)
                .with_separation(3.0),
            rounds: 1,
            budget_per_round: 3,
        };
        let checked = |rows: Vec<Row>| rows.into_iter().filter(|r| r.form != Form::Info);
        let mut rows = fig1(&preset);
        rows.extend(table2(Shape::new(40, 4, 3)));
        rows.extend(checked(table3(&[(4, 3), (8, 5)])));
        rows.extend(checked(table6([
            Shape::new(30, 3, 3),
            Shape::new(40, 4, 4),
        ])));
        rows.extend(fig4(&preset));
        rows.extend(accuracy(&preset));
        rows
    }

    #[test]
    fn deterministic_rows_repeat_bit_for_bit_with_unique_ids() {
        let _counters = crate::COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let first = deterministic_rows_at_test_size();
        let second = deterministic_rows_at_test_size();
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.measured.to_bits(), b.measured.to_bits(), "{}", a.id);
            assert_eq!(a.model.to_bits(), b.model.to_bits(), "{}", a.id);
        }
        let mut ids: Vec<&str> = first.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), first.len(), "duplicate claim ids");
    }

    #[test]
    fn committed_ledger_has_unique_ids_and_one_row_per_line() {
        let text = include_str!("../../../BENCH_paper.json");
        let mut ids: Vec<&str> = text.lines().filter_map(|l| field(l, "id")).collect();
        assert!(!ids.is_empty());
        for line in text.lines().filter(|l| field(l, "id").is_some()) {
            assert!(field(line, "verdict").is_some(), "{line}");
        }
        let rows = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rows, "duplicate claim ids");
    }

    #[test]
    fn forms_decide_at_their_boundaries() {
        let cases = [
            (Form::Rel, 3.0, 2.0, 0.5, "pass"),
            (Form::Rel, 3.25, 2.0, 0.5, "fail"),
            (Form::Abs, 12.0, 12.0, 0.0, "pass"),
            (Form::Abs, 11.0, 12.0, 0.0, "fail"),
            (Form::Ge, 79.0, 80.0, 1.0, "pass"),
            (Form::Ge, 78.5, 80.0, 1.0, "fail"),
            (Form::Le, 0.25, 0.0, 0.25, "pass"),
            (Form::Le, 0.375, 0.0, 0.25, "fail"),
            (Form::Gt, 1.0 + f64::EPSILON, 1.0, 0.0, "pass"),
            (Form::Gt, 1.0, 1.0, 0.0, "fail"),
            (Form::Info, f64::NAN, 1.0, 0.0, "info"),
        ];
        for (form, measured, model, tol, want) in cases {
            assert_eq!(
                form.verdict(measured, model, tol),
                want,
                "{form:?} {measured}"
            );
        }
        for form in [Form::Rel, Form::Abs, Form::Ge, Form::Le, Form::Gt] {
            assert_eq!(form.verdict(f64::NAN, 1.0, 1.0), "fail", "{form:?}");
        }
    }

    #[test]
    fn check_names_every_claim_whose_verdict_flipped() {
        let rows = vec![
            Row::new("a.one", "Fig. 1", "x > 1", Form::Gt, (2.0, 1.0, 0.0)),
            Row::new("b.two", "Fig. 2", "x ≥ y − 1", Form::Ge, (70.0, 72.0, 1.0)),
            Row::new("c.three", "Fig. 5", "seconds", Form::Info, (0.5, 0.4, 0.0)),
        ];
        let baseline = to_json(&rows);
        assert_eq!(rows[1].verdict(), "fail");
        assert!(check(&baseline, &rows).is_empty());

        let flipped: String = baseline
            .lines()
            .map(|l| {
                if field(l, "id") == Some("b.two") {
                    l.replace("\"verdict\": \"fail\"", "\"verdict\": \"pass\"")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let diffs = check(&flipped, &rows);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("b.two:"), "{diffs:?}");

        let diffs = check(&baseline, &rows[..2]);
        assert!(
            diffs.len() == 1 && diffs[0].starts_with("c.three:"),
            "{diffs:?}"
        );
    }
}
