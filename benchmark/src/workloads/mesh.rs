//! `mesh_p2`: a pool of 2000 on a warm 2-rank `SocketComm` mesh, where
//! latency-bound collectives sit on the critical path. Each round of the
//! timed loop makes two Approx-FIRAL selections at p=2 (the primary
//! operation) and two passes over the five baseline strategies, which use
//! the mesh differently (Allgather / MAXLOC / Bcast instead of Allreduce);
//! every third round adds one selection at p=1 on `SelfComm`, for the
//! scaling efficiency.

use std::time::Instant;

use firal_comm::{launch, socket_launch, Communicator, SelfComm};
use firal_core::{
    dispatch_select, select_serial, ApproxFiral, FiralConfig, SelectRequest, SelectionProblem,
};
use firal_data::{ExperimentPreset, PresetName};
use firal_linalg::counters;

use super::{
    bind_rank_to_cpu, build_problem, firal_layer_metrics, firal_replay, firal_select,
    fixed_work_config, lead_says_go, model_bytes, well_formed, work_layer_metrics, Ctx, Outcome,
    Replayed, Selected, SelectionHash,
};
use crate::probes;
use crate::stats::median;
use crate::trace::Recorder;

/// Large enough that collectives are a fifth of a selection or less: on a
/// pool of 600 they are half of it, and their latency on a 2-vCPU host
/// drifts by 2x over minutes, which no bound survives.
const POOL: usize = 2000;
const BUDGET: usize = 10;
const MD_ITERS: usize = 30;
const BASELINES: [&str; 5] = ["random", "entropy", "kmeans", "upal", "bayes-batch"];

/// What one rank saw.
struct RankLog {
    setup_s: f64,
    p2_ms: Vec<f64>,
    p1_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    baselines_ms: Vec<f64>,
    /// First selection of Approx-FIRAL at p=2, at p=1, and of each baseline.
    firal: Vec<usize>,
    firal_p1: Vec<usize>,
    baselines: Vec<Vec<usize>>,
    /// Later selections that differed from the first of their kind.
    unrepeatable: u64,
    hash: SelectionHash,
    ops: u64,
    wall_s: f64,
    last_untraced: Option<Selected>,
    last_replayed: Option<Replayed>,
    work: Option<counters::CounterSnapshot>,
    rec: Recorder,
}

fn baseline_pass(
    comm: &dyn Communicator,
    problem: &SelectionProblem<f32>,
    seed: u64,
) -> Vec<Vec<usize>> {
    BASELINES
        .iter()
        .map(|name| {
            let request = SelectRequest::new(*name, BUDGET).with_seed(seed);
            dispatch_select(comm, problem, &request)
                .expect("baseline selection")
                .selected
        })
        .collect()
}

/// One rank of one mesh session: warm up, report set-up time, and (on the
/// last set-up repetition) run the timed loop.
fn session(
    comm: &dyn Communicator,
    problem: &SelectionProblem<f32>,
    config: &FiralConfig<f32>,
    ctx: &Ctx,
    setup_started: Instant,
    timed: bool,
) -> RankLog {
    let select = |comm: &dyn Communicator| {
        firal_select(comm, problem, config, BUDGET, ctx.seed).expect("selection on the mesh")
    };
    let lead = comm.rank() == 0;
    bind_rank_to_cpu(comm.rank(), ctx.cpus);
    let firal = select(comm).selected;
    let baselines = baseline_pass(comm, problem, ctx.seed);
    comm.barrier();
    let mut log = RankLog {
        setup_s: setup_started.elapsed().as_secs_f64(),
        p2_ms: Vec::new(),
        p1_ms: Vec::new(),
        traced_ms: Vec::new(),
        baselines_ms: Vec::new(),
        firal,
        firal_p1: Vec::new(),
        baselines,
        unrepeatable: 0,
        hash: SelectionHash::default(),
        ops: 0,
        wall_s: 0.0,
        last_untraced: None,
        last_replayed: None,
        work: None,
        rec: Recorder::new(ctx.trace && timed, Instant::now()),
    };
    if !timed {
        return log;
    }

    let solo = SelfComm::new();
    let started = Instant::now();
    let mut rounds = 0;
    while lead_says_go(comm, ctx, rounds, started) {
        let counted = rounds < ctx.counted_rounds;
        for _ in 0..2 {
            let t0 = Instant::now();
            let selection = select(comm);
            log.p2_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if counted {
                log.hash.eat(&selection.selected);
            }
            log.unrepeatable += u64::from(selection.selected != log.firal);
            log.last_untraced = Some(selection);
            log.ops += 1;
            if log.rec.is_on() {
                let op = log.p2_ms.len() as u64;
                let t0 = Instant::now();
                let replayed =
                    firal_replay(&mut log.rec, op, comm, problem, config, BUDGET, ctx.seed);
                log.traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                log.unrepeatable += u64::from(replayed.selected != log.firal);
                log.last_replayed = Some(replayed);
            }
        }
        if lead && rounds % 3 == 0 {
            // Rank 1 waits in the next collective meanwhile, off the CPU.
            let t0 = Instant::now();
            let selection = select(&solo);
            log.p1_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if counted {
                log.hash.eat(&selection.selected);
            }
            if log.firal_p1.is_empty() {
                log.firal_p1 = selection.selected;
            } else {
                log.unrepeatable += u64::from(selection.selected != log.firal_p1);
            }
            log.ops += 1;
        }
        for _ in 0..2 {
            let t0 = Instant::now();
            let pass = baseline_pass(comm, problem, ctx.seed);
            log.baselines_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            for selected in pass.iter().filter(|_| counted) {
                log.hash.eat(selected);
            }
            log.unrepeatable += u64::from(pass != log.baselines);
            log.ops += 1;
        }
        rounds += 1;
    }
    log.wall_s = started.elapsed().as_secs_f64();

    if log.rec.is_on() {
        // Kernel work of one p=2 selection, both ranks together: the
        // barriers keep the other rank's kernels inside the window.
        comm.barrier();
        let (_, work) = counters::measure(|| {
            select(comm);
            comm.barrier();
        });
        log.work = Some(work);
    }
    log
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let preset = ExperimentPreset::paper(PresetName::Cifar10);
    let shape = preset.config.with_pool_size(POOL).with_eval_size(100);
    let config = fixed_work_config::<f32>(MD_ITERS);

    let mut last = None;
    for rep in 0..ctx.setup_reps {
        let t0 = Instant::now();
        let built = build_problem::<f32>(&shape, ctx.seed);
        let timed = rep + 1 == ctx.setup_reps;
        let logs = socket_launch(2, |comm| {
            session(comm, &built.problem, &config, ctx, t0, timed)
        });
        out.setup_s.push(logs[0].setup_s);
        last = Some((built, logs));
    }
    let (built, mut logs) = last.expect("at least one set-up");
    let follower = logs.pop().expect("rank 1");
    let lead = logs.pop().expect("rank 0");
    let problem = &built.problem;
    let (n, d, c) = (problem.pool_size(), problem.dim(), problem.num_classes);
    out.shape = vec![
        ("n", n as f64),
        ("d", d as f64),
        ("c", c as f64),
        ("budget", BUDGET as f64),
        ("md_iters", MD_ITERS as f64),
        ("ranks", 2.0),
    ];
    out.op_ms = lead.p2_ms;
    out.ops = lead.ops;
    out.wall_s = lead.wall_s;
    out.selection_hash = lead.hash.0;

    // Checks: every selection of the loop repeated the first of its kind;
    // the first of each kind at p=2 equals, bitwise, the same call on two
    // `ThreadComm` ranks (at a fixed rank count every strategy is identical
    // across backends), and the p=1 one equals `select_serial`. Equality
    // *across* rank counts is not checked: Approx-FIRAL and bayes-batch
    // reduce partial sums across shard boundaries, so it holds for most
    // seeds but not all.
    let operations = out.ops + lead.traced_ms.len() as u64;
    out.attempted += operations.saturating_sub(1);
    out.check(lead.unrepeatable + follower.unrepeatable == 0, || {
        format!(
            "{} selections did not repeat",
            lead.unrepeatable + follower.unrepeatable
        )
    });
    out.check(
        follower.firal == lead.firal && follower.baselines == lead.baselines,
        || "the two ranks disagree on a selection".into(),
    );
    let (reference, reference_baselines) = launch(2, |comm| {
        let firal = firal_select(comm, problem, &config, BUDGET, ctx.seed)
            .expect("reference selection")
            .selected;
        (firal, baseline_pass(comm, problem, ctx.seed))
    })
    .swap_remove(0);
    out.check(
        lead.firal == reference && well_formed(&lead.firal, BUDGET, n),
        || {
            format!(
                "socket p=2 selected {:?}, thread p=2 {reference:?}",
                lead.firal
            )
        },
    );
    for ((name, selected), reference) in BASELINES
        .iter()
        .zip(&lead.baselines)
        .zip(&reference_baselines)
    {
        out.check(
            selected == reference && well_formed(selected, BUDGET, n),
            || format!("{name}: socket p=2 selected {selected:?}, thread p=2 {reference:?}"),
        );
    }
    let serial = select_serial(&ApproxFiral::new(config.clone()), problem, BUDGET, ctx.seed)
        .expect("serial reference")
        .selected;
    out.check(lead.firal_p1 == serial, || {
        format!("p=1 selected {:?}, select_serial {serial:?}", lead.firal_p1)
    });

    if ctx.trace {
        let mut rec = lead.rec;
        let select_s = median(&out.op_ms) / 1e3;
        firal_layer_metrics(
            &mut out,
            &rec,
            select_s,
            median(&lead.traced_ms) / 1e3,
            &lead.last_untraced.expect("at least one selection"),
            &lead.last_replayed.expect("at least one replay"),
            config.round.eta_grid.len() * BUDGET,
        );
        out.set(
            "core.scaling_eff_p2",
            median(&lead.p1_ms) / (2.0 * median(&out.op_ms)),
        );
        out.set("core.baselines_ms_p50", median(&lead.baselines_ms));
        work_layer_metrics(
            &mut out,
            &[&built],
            lead.work.expect("kernel work of one selection"),
            1.0,
            select_s,
            model_bytes(n, d, c, 4),
        );
        probes::run_all(&mut rec, &mut out, problem, ctx.probe_seconds, ctx.seed);
        out.traces.push(("rank0".into(), rec));
        out.traces.push(("rank1".into(), follower.rec));
    }
    out
}
