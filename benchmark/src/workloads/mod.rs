//! The five workloads and what they share: the run context, the result
//! record, problem construction and the fixed-work Approx-FIRAL call.

pub mod batch;
pub mod mesh;
pub mod serve;
pub mod stream;

use std::collections::BTreeMap;
use std::time::Instant;

use firal_comm::{CommScalar, CommStats, Communicator};
use firal_core::{
    ApproxFiral, DistStrategy, Executor, FiralConfig, SelectError, SelectionProblem, ShardedProblem,
};
use firal_data::SyntheticConfig;
use firal_linalg::counters;
use firal_logreg::LogisticRegression;

use crate::trace::Recorder;

/// How one run was asked to behave.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seeds the generated inputs (datasets, request seeds, op scripts).
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Rounds at the start of the timed loop whose selections are hashed
    /// and whose exact counts are taken. Fixed per workload, so hash and
    /// counts repeat exactly however long the loop then runs.
    pub counted_rounds: usize,
    /// Stop the timed loop after `counted_rounds` rounds regardless of the
    /// clock (`--quick`).
    pub quick: bool,
    /// Record spans, replay the phases and run the layer probes.
    pub trace: bool,
    /// How many times set-up runs (its median is `setup_s`).
    pub setup_reps: usize,
    /// Seconds each layer probe may spend.
    pub probe_seconds: f64,
    /// CPUs of the host, read before any thread was bound to one.
    pub cpus: usize,
}

impl Ctx {
    /// Whether the timed loop goes on after `rounds` rounds, `started` ago.
    pub fn keep_going(&self, rounds: usize, started: Instant) -> bool {
        rounds < self.counted_rounds
            || (!self.quick && started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose result was checked, and how many checks failed.
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every primary operation, untraced, in ms.
    pub op_ms: Vec<f64>,
    /// All operations (primary and secondary) completed in `wall_s`.
    pub ops: u64,
    pub wall_s: f64,
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics this workload measured (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
    /// FNV hash over the selections of the counted rounds, in order.
    pub selection_hash: u64,
    /// Final shape, recorded in the result file.
    pub shape: Vec<(&'static str, f64)>,
    /// Spans by recording thread (traced run only).
    pub traces: Vec<(String, Recorder)>,
    /// Why checks failed, for the operator.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; `ok == false` is a failure with a reason.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    /// Record a per-layer metric; the name must be one `spec::PER_LAYER`
    /// lists, or the value would silently never be reported.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a listed per-layer metric"
        );
        self.layer.insert(name, value);
    }
}

/// FNV-1a over a stream of indices: the fingerprint selections are compared
/// by across ranks and across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionHash(pub u64);

impl Default for SelectionHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl SelectionHash {
    pub fn eat(&mut self, selected: &[usize]) {
        for &i in selected.iter().chain(std::iter::once(&usize::MAX)) {
            self.0 ^= i as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `budget` distinct indices below `pool`.
pub fn well_formed(selected: &[usize], budget: usize, pool: usize) -> bool {
    let mut sorted = selected.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == budget && selected.len() == budget && selected.iter().all(|&i| i < pool)
}

/// A generated selection problem and what building it cost.
pub struct Built<T: CommScalar> {
    pub problem: SelectionProblem<T>,
    pub generate_s: f64,
    pub fit_s: f64,
}

/// Generate the dataset for `config` at `seed`, fit the classifier on its
/// initial labels and form the selection problem: the `data` and `logreg`
/// part of every workload's set-up.
pub fn build_problem<T: CommScalar>(config: &SyntheticConfig, seed: u64) -> Built<T> {
    let t0 = Instant::now();
    let ds = config.clone().with_seed(seed).generate::<T>();
    let generate_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels)
        .expect("classifier fit on the initial labels");
    let problem = SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        ds.num_classes,
    );
    Built {
        problem,
        generate_s,
        fit_s: t0.elapsed().as_secs_f64(),
    }
}

/// Conjugate-gradient iterations per panel solve under [`fixed_work_config`]:
/// about what the paper's 0.1 tolerance takes on these shapes.
pub const CG_ITERS: usize = 6;

/// Approx-FIRAL with a fixed amount of RELAX work: `md_iters` mirror-descent
/// iterations of two panel solves of [`CG_ITERS`] iterations each, both
/// stopping rules off.
///
/// The default mirror-descent rule stops when two successive Hutchinson
/// estimates of the objective agree to 1e-4; each estimate uses fresh
/// probes, so the stopping time is close to a geometric random variable of
/// the seed (30 to 100 iterations on one shape), and the CG iteration count
/// moves with the data's conditioning (±13% between seeds at n = 600). A
/// benchmark whose work depends on the seed cannot hold a bound across
/// seeds, so both counts are pinned and the same flops and collectives run
/// whatever the seed.
pub fn fixed_work_config<T: CommScalar>(md_iters: usize) -> FiralConfig<T> {
    let mut config = FiralConfig::<T>::default();
    config.relax.md.max_iters = md_iters;
    config.relax.md.obj_rel_tol = T::ZERO;
    config.relax.cg_max_iter = CG_ITERS;
    config.relax.cg_tol = T::ZERO;
    config
}

/// One selection through the public strategy surface: what
/// `dispatch_select` does, with a caller-chosen configuration (the registry
/// behind `dispatch_select` only builds default ones).
pub struct Selected {
    pub selected: Vec<usize>,
    pub comm: CommStats,
}

pub fn firal_select<T: CommScalar>(
    comm: &dyn Communicator,
    problem: &SelectionProblem<T>,
    config: &FiralConfig<T>,
    budget: usize,
    seed: u64,
) -> Result<Selected, SelectError> {
    let stats0 = comm.stats();
    let shard = ShardedProblem::shard(problem, comm.rank(), comm.size());
    let exec = Executor::new(comm, &shard);
    let selected = ApproxFiral::new(config.clone()).try_select_dist(&exec, budget, seed)?;
    Ok(Selected {
        selected,
        comm: comm.stats().since(&stats0),
    })
}

/// The same selection replayed as its two phases under spans, so the trace
/// shows where a selection's time goes. Returns the batch (which must equal
/// [`firal_select`]'s) with RELAX's iteration counts.
pub struct Replayed {
    pub selected: Vec<usize>,
    pub md_iters: usize,
    pub cg_iters: usize,
}

pub fn firal_replay<T: CommScalar>(
    rec: &mut Recorder,
    op: u64,
    comm: &dyn Communicator,
    problem: &SelectionProblem<T>,
    config: &FiralConfig<T>,
    budget: usize,
    seed: u64,
) -> Replayed {
    rec.span("select", op, |rec| {
        let shard = rec.span("shard", op, |_| {
            ShardedProblem::shard(problem, comm.rank(), comm.size())
        });
        let exec = Executor::new(comm, &shard);
        let mut relax_config = config.relax;
        relax_config.seed = relax_config.seed.wrapping_add(seed);
        let relax = rec.span("relax", op, |_| exec.relax(budget, &relax_config));
        let round = rec.span("eta_sweep", op, |_| {
            exec.select_eta(&relax.z_local, budget, &config.round.eta_grid)
        });
        Replayed {
            selected: round.selected,
            md_iters: relax.telemetry.iterations,
            cg_iters: relax.total_cg_iters,
        }
    })
}

/// Bind the calling rank thread to one CPU, the way `mpirun --bind-to core`
/// binds a rank. Left to itself the kernel now and then starts two ranks
/// that wake each other on one CPU and keeps them there: about one run in
/// fifteen of a 2-rank workload then takes exactly twice as long as the
/// others, from its first operation to its last. std has no affinity call,
/// so this runs `taskset` on the thread id; where that is missing the thread
/// stays unbound.
pub fn bind_rank_to_cpu(rank: usize, cpus: usize) {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return;
    };
    let Some(tid) = link.file_name().and_then(|t| t.to_str()) else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-pc", &(rank % cpus).to_string(), tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// The head of a multi-rank timed loop: rank 0 owns the clock and broadcasts
/// whether another round starts, so every rank runs the same rounds.
pub fn lead_says_go(comm: &dyn Communicator, ctx: &Ctx, rounds: usize, started: Instant) -> bool {
    let mut go = [f64::from(u8::from(
        comm.rank() == 0 && ctx.keep_going(rounds, started),
    ))];
    comm.bcast_f64(&mut go, 0);
    go[0] != 0.0
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes the paper's storage model `n(d+c) + c·d²` predicts for a problem.
pub fn model_bytes(n: usize, d: usize, c: usize, elem: usize) -> f64 {
    ((n * (d + c) + c * d * d) * elem) as f64
}

/// Per-layer metrics every traced workload derives the same way: what
/// set-up's data and classifier steps took, the kernel work of one operation
/// (`busy_s` is the time those kernels had), and peak memory against the
/// paper's storage model.
pub fn work_layer_metrics(
    out: &mut Outcome,
    built: &[&Built<impl CommScalar>],
    work: counters::CounterSnapshot,
    operations: f64,
    busy_s: f64,
    model_bytes: f64,
) {
    out.set("data.generate_s", built.iter().map(|b| b.generate_s).sum());
    out.set("logreg.fit_s", built.iter().map(|b| b.fit_s).sum());
    out.set("linalg.flops_per_select", work.flops as f64 / operations);
    out.set(
        "linalg.alloc_bytes_per_select",
        work.bytes as f64 / operations,
    );
    out.set(
        "linalg.achieved_gflops",
        work.flops as f64 / operations / busy_s / 1e9,
    );
    out.set(
        "core.rss_over_model",
        peak_rss_mb() * 1024.0 * 1024.0 / model_bytes,
    );
}

/// Fill in what a traced Approx-FIRAL workload learned about one selection:
/// the phase split from the `relax` / `eta_sweep` spans against the
/// untraced selection time `select_s`, and the exact counts the calls
/// returned.
pub fn firal_layer_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    select_s: f64,
    traced_select_s: f64,
    untraced: &Selected,
    replayed: &Replayed,
    picks: usize,
) {
    let relax_s = crate::stats::median(&rec.durations("relax"));
    let sweep_s = crate::stats::median(&rec.durations("eta_sweep"));
    out.set("core.relax_s", relax_s);
    out.set("core.eta_sweep_s", sweep_s);
    out.set("core.round_s_per_pick", sweep_s / picks as f64);
    // What the public entry point costs beyond its two phases: sharding,
    // strategy set-up, and anything nobody has attributed yet.
    out.set("core.select_self_s", select_s - relax_s - sweep_s);
    out.set("core.relax_share", relax_s / select_s);
    out.set("solvers.cg.iters_per_select", replayed.cg_iters as f64);
    out.set("core.md_iters_per_select", replayed.md_iters as f64);
    out.set("comm.calls_per_select", untraced.comm.total_calls() as f64);
    out.set("comm.bytes_per_select", untraced.comm.total_bytes() as f64);
    let wait_s = untraced.comm.time.as_secs_f64();
    out.set("comm.wait_s_per_select", wait_s);
    out.set("comm.wait_share", wait_s / select_s);
    out.set("bench.trace_overhead_ratio", traced_select_s / select_s);
}
