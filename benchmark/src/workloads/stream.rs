//! `stream_churn`: `StreamingState<f64>` on two `ThreadComm` ranks, the
//! `BENCH_stream.json` shape with a four times larger pool. Each cycle commits a batch of eight pool
//! updates (4 Add, 2 Label, 2 Remove) and then selects four points at a
//! fixed η: the ROUND code reached through cached state instead of
//! `Executor::round`, on the third backend.

use std::time::Instant;

use firal_comm::{launch, Communicator};
use firal_core::{EigSolver, FiralConfig, PoolUpdate, SelectionProblem, StreamingState};
use firal_data::SyntheticConfig;
use firal_linalg::counters;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    bind_rank_to_cpu, build_problem, lead_says_go, model_bytes, well_formed, work_layer_metrics,
    Ctx, Outcome, SelectionHash,
};
use crate::probes;
use crate::stats::median;
use crate::trace::Recorder;

/// Four times the `BENCH_stream.json` pool: at n=4000 the 15 collectives of a
/// cycle are over half of it, and their latency on a 2-vCPU host drifts by 2x
/// over minutes; at n=16000 they are about a quarter.
const POOL: usize = 16_000;
const DIM: usize = 16;
const CLASSES: usize = 3;
const BUDGET: usize = 4;
/// Fingerprints are compared across ranks every this many cycles.
const FINGERPRINT_EVERY: usize = 100;

/// The next update batch. Every rank draws it from an identical generator
/// and an identical replicated registry, so the batches are identical, as
/// `commit` requires.
fn next_batch(rng: &mut StdRng, state: &StreamingState<f64>) -> Vec<PoolUpdate<f64>> {
    let mut batch: Vec<PoolUpdate<f64>> = (0..4)
        .map(|_| PoolUpdate::Add {
            x: (0..DIM).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect(),
            h: (0..CLASSES - 1)
                .map(|_| 0.1 + 0.6 * rng.gen::<f64>() / (CLASSES - 1) as f64)
                .collect(),
            weight: BUDGET as f64 / POOL as f64,
        })
        .collect();
    let ids = state.ids();
    let mut picked: Vec<u64> = Vec::with_capacity(4);
    while picked.len() < 4 {
        let id = ids[rng.gen_range(0..ids.len())];
        if !picked.contains(&id) {
            picked.push(id);
        }
    }
    batch.extend(picked[..2].iter().map(|&id| PoolUpdate::Label { id }));
    batch.extend(picked[2..].iter().map(|&id| PoolUpdate::Remove { id }));
    batch
}

/// What one rank saw.
struct RankLog {
    setup_s: f64,
    cycle_ms: Vec<f64>,
    traced_cycle_ms: Vec<f64>,
    fingerprints: Vec<u64>,
    hash: SelectionHash,
    malformed: u64,
    refactors: u64,
    fallbacks: u64,
    drift: f64,
    rebuild_ms: f64,
    wall_s: f64,
    /// Collectives and kernel work of the counted cycles, per cycle.
    comm_calls: f64,
    comm_bytes: f64,
    comm_wait_s: f64,
    work: counters::CounterSnapshot,
    rec: Recorder,
}

fn session(
    comm: &dyn Communicator,
    problem: &SelectionProblem<f64>,
    ctx: &Ctx,
    setup_started: Instant,
    timed: bool,
) -> RankLog {
    bind_rank_to_cpu(comm.rank(), ctx.cpus);
    let weights = vec![BUDGET as f64 / POOL as f64; problem.pool_size()];
    let eta = 8.0 * (problem.ehat() as f64).sqrt();
    let mut state = StreamingState::new(comm, problem, &weights, &FiralConfig::default());
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut off = Recorder::new(false, Instant::now());
    let mut log = RankLog {
        setup_s: 0.0,
        cycle_ms: Vec::new(),
        traced_cycle_ms: Vec::new(),
        fingerprints: Vec::new(),
        hash: SelectionHash::default(),
        malformed: 0,
        refactors: 0,
        fallbacks: 0,
        drift: 0.0,
        rebuild_ms: 0.0,
        wall_s: 0.0,
        comm_calls: 0.0,
        comm_bytes: 0.0,
        comm_wait_s: 0.0,
        work: counters::snapshot(),
        rec: Recorder::new(ctx.trace && timed, Instant::now()),
    };

    let mut cycle = |state: &mut StreamingState<f64>, rec: &mut Recorder, log: &mut RankLog| {
        let op = (log.cycle_ms.len() + log.traced_cycle_ms.len()) as u64;
        // Drawing the batch is the benchmark's work, not the program's.
        let batch = next_batch(&mut rng, state);
        let t0 = Instant::now();
        let (commit, round) = rec.span("cycle", op, |rec| {
            let commit = rec.span("commit", op, |_| state.commit(comm, &batch));
            let round = rec.span("select", op, |_| {
                state.select(comm, BUDGET, eta, EigSolver::Exact)
            });
            (commit, round)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        log.refactors += u64::from(commit.refactored);
        log.fallbacks += commit.downdate_fallbacks as u64;
        if (op as usize) < ctx.counted_rounds {
            log.hash.eat(&round.selected);
        }
        log.malformed += u64::from(!well_formed(&round.selected, BUDGET, state.live()));
        ms
    };

    // Warm-up cycle, then set-up is over.
    cycle(&mut state, &mut off, &mut log);
    comm.barrier();
    log.setup_s = setup_started.elapsed().as_secs_f64();
    if !timed {
        return log;
    }

    let stats0 = comm.stats();
    let work0 = counters::snapshot();
    let started = Instant::now();
    let mut cycles = 0;
    while lead_says_go(comm, ctx, cycles, started) {
        // In a traced run every other cycle records spans.
        if log.rec.is_on() && cycles % 2 == 1 {
            let mut rec = std::mem::replace(&mut log.rec, Recorder::new(false, started));
            let ms = cycle(&mut state, &mut rec, &mut log);
            log.rec = rec;
            log.traced_cycle_ms.push(ms);
        } else {
            let ms = cycle(&mut state, &mut off, &mut log);
            log.cycle_ms.push(ms);
        }
        cycles += 1;
        if cycles == ctx.counted_rounds {
            // Both ranks have finished the counted cycles: read off what
            // exactly those cycles cost.
            comm.barrier();
            let per_cycle = 1.0 / cycles as f64;
            let spent = comm.stats().since(&stats0);
            log.comm_calls = spent.total_calls() as f64 * per_cycle;
            log.comm_bytes = spent.total_bytes() as f64 * per_cycle;
            log.comm_wait_s = spent.time.as_secs_f64() * per_cycle;
            let work = counters::snapshot();
            log.work = counters::CounterSnapshot {
                flops: work.flops - work0.flops,
                bytes: work.bytes - work0.bytes,
            };
        }
        if cycles % FINGERPRINT_EVERY == 0 {
            log.fingerprints.push(state.fingerprint());
        }
    }
    log.wall_s = started.elapsed().as_secs_f64();
    log.fingerprints.push(state.fingerprint());
    log.drift = state.factor_drift();

    if log.rec.is_on() {
        let rebuilds: Vec<f64> = (0..5)
            .map(|_| {
                comm.barrier();
                let t0 = Instant::now();
                state.refactor(comm);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        log.rebuild_ms = median(&rebuilds);
    }
    log
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let shape = SyntheticConfig::new(CLASSES, DIM)
        .with_pool_size(POOL)
        .with_initial_per_class(2)
        .with_eval_size(10);

    let mut last = None;
    for rep in 0..ctx.setup_reps {
        let t0 = Instant::now();
        let built = build_problem::<f64>(&shape, ctx.seed);
        let timed = rep + 1 == ctx.setup_reps;
        let logs = launch(2, |comm| session(comm, &built.problem, ctx, t0, timed));
        out.setup_s.push(logs[0].setup_s);
        last = Some((built, logs));
    }
    let (built, mut logs) = last.expect("at least one set-up");
    let follower = logs.pop().expect("rank 1");
    let mut lead = logs.pop().expect("rank 0");
    out.shape = vec![
        ("n", POOL as f64),
        ("d", DIM as f64),
        ("c", CLASSES as f64),
        ("budget", BUDGET as f64),
        ("delta", 8.0),
        ("ranks", 2.0),
    ];
    out.op_ms = std::mem::take(&mut lead.cycle_ms);
    out.ops = (out.op_ms.len() + lead.traced_cycle_ms.len()) as u64;
    out.wall_s = lead.wall_s;
    out.selection_hash = lead.hash.0;

    // Checks: every cycle's selection well formed and identical on both
    // ranks, the replicated state bitwise equal across ranks at every
    // checkpoint, and the incremental factors still close to Σ⋄.
    out.attempted += out.ops.saturating_sub(1);
    out.check(lead.malformed + follower.malformed == 0, || {
        format!(
            "{} malformed selections",
            lead.malformed + follower.malformed
        )
    });
    out.check(lead.hash == follower.hash, || {
        "the two ranks selected different points".into()
    });
    out.check(lead.fingerprints == follower.fingerprints, || {
        "the replicated state diverged between the ranks".into()
    });
    out.check(lead.drift <= 1e-8 && follower.drift <= 1e-8, || {
        format!("factor drift {} / {}", lead.drift, follower.drift)
    });

    if ctx.trace {
        let mut rec = lead.rec;
        let cycle_s = median(&out.op_ms) / 1e3;
        out.set(
            "core.stream.commit_us",
            median(&rec.durations("commit")) * 1e6,
        );
        out.set(
            "core.stream.select_ms",
            median(&rec.durations("select")) * 1e3,
        );
        out.set("core.stream.rebuild_ms", lead.rebuild_ms);
        out.set("core.stream.refactors", lead.refactors as f64);
        out.set("core.stream.downdate_fallbacks", lead.fallbacks as f64);
        out.set("comm.calls_per_select", lead.comm_calls);
        out.set("comm.bytes_per_select", lead.comm_bytes);
        out.set("comm.wait_s_per_select", lead.comm_wait_s);
        out.set("comm.wait_share", lead.comm_wait_s / cycle_s);
        out.set(
            "bench.trace_overhead_ratio",
            median(&lead.traced_cycle_ms) / median(&out.op_ms),
        );
        work_layer_metrics(
            &mut out,
            &[&built],
            lead.work,
            ctx.counted_rounds as f64,
            cycle_s,
            model_bytes(POOL, DIM, CLASSES, 8),
        );
        probes::run_all(
            &mut rec,
            &mut out,
            &built.problem,
            ctx.probe_seconds,
            ctx.seed,
        );
        out.traces.push(("rank0".into(), rec));
        out.traces.push(("rank1".into(), follower.rec));
    }
    out
}
