//! `serve_churn`: a 2-rank selection server driven in a closed loop by two
//! client connections, each owning its own uploaded pool and running a
//! seeded script of selections and pool mutations. Kernels do little here;
//! the protocol, the round scheduler, the per-request `split` and shard,
//! and mutation replay do the work.
//!
//! Approx-FIRAL is served once per client between set-up and the timed loop,
//! and checked against the reference. It is kept out of both timed regions
//! because the server can only run it with its default stopping rule, whose
//! cost is a random variable of the seed (see `fixed_work_config`).

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use firal_comm::{free_rendezvous_addr, launch, socket_launch, wire, Communicator, SelfComm};
use firal_core::{dispatch_select, SelectRequest, SelectionProblem};
use firal_data::SyntheticConfig;
use firal_linalg::{counters, Matrix};
use firal_serve::proto::{self, PoolMutation, Request, Response, SelectionOutcome};
use firal_serve::{SelectSpec, ServeClient, ServeConfig, ServeError, ServeSummary, ServerStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    bind_rank_to_cpu, build_problem, model_bytes, well_formed, work_layer_metrics, Built, Ctx,
    Outcome, SelectionHash,
};
use crate::probes;
use crate::stats::median;
use crate::trace::Recorder;

const CLIENTS: usize = 2;
const POOL: usize = 600;
const CLASSES: usize = 4;
const DIM: usize = 8;
const PATIENCE: Duration = Duration::from_secs(60);

/// One scripted operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Select(SelectSpec),
    Mutate(PoolMutation),
}

/// The seeded operation script of one client: 40% SELECT bayes-batch on up
/// to two ranks, 30% SELECT entropy or random on one rank, 30% mutations
/// (ADD 8 rows, LABEL the last selection, REMOVE 4 rows). It tracks the
/// pool size the mutations imply and steers it back towards where it began,
/// so a long run neither drains nor balloons the pool.
pub struct Script {
    rng: StdRng,
    pool: u64,
    pool_size: usize,
    home_size: usize,
    request_seed: u64,
    /// The last selection, until a mutation makes its indices stale.
    fresh_selection: Option<Vec<usize>>,
}

impl Script {
    pub fn new(seed: u64, client: usize, pool: u64, pool_size: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(client as u64)),
            pool,
            pool_size,
            home_size: pool_size,
            request_seed: seed,
            fresh_selection: None,
        }
    }

    /// Tell the script what the last SELECT returned.
    pub fn observe(&mut self, selected: &[usize]) {
        self.fresh_selection = Some(selected.to_vec());
    }

    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    pub fn next_op(&mut self) -> Op {
        let draw = self.rng.gen_range(0..10usize);
        if draw < 7 {
            let budget = [4, 6, 8][self.rng.gen_range(0..3usize)];
            let (strategy, max_ranks) = if draw < 4 {
                ("bayes-batch", 2)
            } else if self.rng.gen::<bool>() {
                ("entropy", 1)
            } else {
                ("random", 1)
            };
            return Op::Select(SelectSpec {
                pool: self.pool,
                strategy: strategy.to_string(),
                budget,
                seed: self.request_seed,
                threads: 0,
                max_ranks,
            });
        }
        let kind = self.rng.gen_range(0..3usize);
        let mutation = if self.pool_size + 32 < self.home_size {
            self.add()
        } else if self.pool_size > self.home_size + 32 {
            self.remove()
        } else {
            match (kind, self.fresh_selection.take()) {
                (0, _) | (1, None) => self.add(),
                (1, Some(indices)) => {
                    self.pool_size -= indices.len();
                    PoolMutation::Label { indices }
                }
                _ => self.remove(),
            }
        };
        self.fresh_selection = None;
        Op::Mutate(mutation)
    }

    fn add(&mut self) -> PoolMutation {
        let rng = &mut self.rng;
        let xs = Matrix::from_fn(8, DIM, |_, _| rng.gen::<f64>() - 0.5);
        // Rows of a probability simplex, truncated to c-1 columns.
        let mut hs = Matrix::zeros(8, CLASSES - 1);
        for i in 0..8 {
            let raw: Vec<f64> = (0..CLASSES).map(|_| 0.05 + rng.gen::<f64>()).collect();
            let total: f64 = raw.iter().sum();
            for (slot, value) in hs.row_mut(i).iter_mut().zip(&raw) {
                *slot = value / total;
            }
        }
        self.pool_size += 8;
        PoolMutation::Add { xs, hs }
    }

    fn remove(&mut self) -> PoolMutation {
        let mut indices = Vec::with_capacity(4);
        while indices.len() < 4 {
            let i = self.rng.gen_range(0..self.pool_size);
            if !indices.contains(&i) {
                indices.push(i);
            }
        }
        self.pool_size -= 4;
        PoolMutation::Remove { indices }
    }
}

/// A connection that speaks the protocol by hand, so that encoding, the
/// wait for the server and decoding are separate spans.
struct TracedConn {
    stream: TcpStream,
}

impl TracedConn {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("traced connection");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(PATIENCE))
            .expect("read timeout");
        Self { stream }
    }

    fn select(&mut self, rec: &mut Recorder, op: u64, spec: &SelectSpec) -> SelectionOutcome {
        rec.span("request", op, |rec| {
            let frame = rec.span("encode", op, |_| {
                let mut frame = Vec::new();
                proto::write_request(&mut frame, &Request::Select(spec.clone()))
                    .expect("encode into memory");
                frame
            });
            let (tag, body) = rec.span("wait", op, |_| {
                self.stream.write_all(&frame).expect("send request");
                proto::read_frame(&mut self.stream).expect("response frame")
            });
            let response = rec.span("decode", op, |_| {
                let mut framed = Vec::with_capacity(body.len() + proto::FRAME_HEADER);
                wire::write_u64(&mut framed, proto::CLIENT_MAGIC).expect("memory write");
                wire::write_u64(&mut framed, tag).expect("memory write");
                wire::write_bytes(&mut framed, &body).expect("memory write");
                proto::read_response(&mut &framed[..]).expect("decode response")
            });
            match response {
                Response::Select(outcome) => {
                    rec.reported("server_select", op, outcome.seconds);
                    outcome
                }
                other => panic!("expected a selection, got {other:?}"),
            }
        })
    }
}

/// A served selection and the number of ranks that made it.
struct Served {
    selected: Vec<usize>,
    ranks: usize,
}

/// What one client did and saw.
struct ClientLog {
    /// Every scripted op, in order, with what a SELECT returned (`None` for
    /// mutations): replayed on a shadow pool for checking.
    ops: Vec<(Op, Option<Served>)>,
    select_ms: Vec<f64>,
    traced_select_ms: Vec<f64>,
    mutate_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    /// Sums over the bills of the SELECTs among the counted operations.
    counted_selects: u64,
    comm_calls: u64,
    comm_bytes: u64,
    comm_wait_s: f64,
    rank_seconds: f64,
    /// Acks whose pool size disagreed with the script's bookkeeping.
    bad_acks: u64,
    wall_s: f64,
    rec: Recorder,
}

/// Where the clients meet once each has finished its counted operations, so
/// that the kernel work of exactly those operations can be read off the
/// process-wide counters.
struct CountGate {
    barrier: Barrier,
    reading: Mutex<Option<counters::CounterSnapshot>>,
}

fn drive(
    ctx: &Ctx,
    client: usize,
    addr: &str,
    conn: &mut ServeClient,
    pool: u64,
    origin: Instant,
    gate: &CountGate,
) -> ClientLog {
    let mut script = Script::new(ctx.seed, client, pool, POOL);
    let mut traced_conn = ctx.trace.then(|| TracedConn::connect(addr));
    let mut log = ClientLog {
        ops: Vec::new(),
        select_ms: Vec::new(),
        traced_select_ms: Vec::new(),
        mutate_ms: Vec::new(),
        overhead_ms: Vec::new(),
        counted_selects: 0,
        comm_calls: 0,
        comm_bytes: 0,
        comm_wait_s: 0.0,
        rank_seconds: 0.0,
        bad_acks: 0,
        wall_s: 0.0,
        rec: Recorder::new(ctx.trace, origin),
    };
    let started = Instant::now();
    let mut selects = 0u64;
    while ctx.keep_going(log.ops.len(), started) {
        let counted = log.ops.len() < ctx.counted_rounds;
        let op = script.next_op();
        let selected = match &op {
            Op::Select(spec) => {
                selects += 1;
                let t0 = Instant::now();
                // In a traced run every other SELECT goes over the
                // hand-driven connection; the rest measure the real client.
                let outcome = match traced_conn.as_mut().filter(|_| selects.is_multiple_of(2)) {
                    Some(traced) => {
                        let outcome = traced.select(&mut log.rec, selects, spec);
                        log.traced_select_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        outcome
                    }
                    None => {
                        let outcome = conn.select(spec).expect("selection request");
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        log.select_ms.push(ms);
                        log.overhead_ms.push(ms - outcome.seconds * 1e3);
                        outcome
                    }
                };
                if counted {
                    log.counted_selects += 1;
                    log.comm_calls += outcome.comm.total_calls();
                    log.comm_bytes += outcome.comm.total_bytes();
                    log.comm_wait_s += outcome.comm.time.as_secs_f64();
                    log.rank_seconds += outcome.seconds * outcome.group.len() as f64;
                }
                script.observe(&outcome.selected);
                Some(Served {
                    ranks: outcome.group.len(),
                    selected: outcome.selected,
                })
            }
            Op::Mutate(mutation) => {
                let t0 = Instant::now();
                let ack = match mutation {
                    PoolMutation::Add { xs, hs } => conn.add_points(pool, xs, hs),
                    PoolMutation::Remove { indices } => conn.remove_points(pool, indices),
                    PoolMutation::Label { indices } => conn.label_points(pool, indices),
                }
                .expect("mutation request");
                log.mutate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                log.bad_acks += u64::from(ack.pool_size != script.pool_size());
                None
            }
        };
        log.ops.push((op, selected));
        if log.ops.len() == ctx.counted_rounds {
            gate.barrier.wait();
            if client == 0 {
                *gate.reading.lock().expect("no client panics holding it") =
                    Some(counters::snapshot());
            }
            gate.barrier.wait();
        }
    }
    log.wall_s = started.elapsed().as_secs_f64();
    log
}

/// What `ranks` ranks of any backend select for `spec` on `problem`: the
/// serial path for one rank, two `ThreadComm` ranks for a 2-rank sub-group
/// (bitwise equal by the backends' shared reduction order). The reference
/// uses the rank count the server used because Approx-FIRAL and bayes-batch
/// are not bitwise invariant *across* rank counts.
fn reference(problem: &SelectionProblem<f64>, spec: &SelectSpec, ranks: usize) -> Vec<usize> {
    let request = SelectRequest::new(spec.strategy.clone(), spec.budget).with_seed(spec.seed);
    if ranks == 1 {
        dispatch_select(&SelfComm::new(), problem, &request)
            .expect("serial reference")
            .selected
    } else {
        launch(ranks, |comm| {
            dispatch_select(comm, problem, &request)
                .expect("multi-rank reference")
                .selected
        })
        .swap_remove(0)
    }
}

/// Replay one client's log on a shadow copy of its pool: every mutation
/// must apply, and every selection must equal the reference on the pool as
/// it stood then.
fn verify(out: &mut Outcome, client: usize, initial: &SelectionProblem<f64>, log: &ClientLog) {
    let mut shadow = initial.clone();
    for (index, (op, served)) in log.ops.iter().enumerate() {
        match op {
            Op::Mutate(mutation) => {
                let applied = proto::apply_mutation(&mut shadow, mutation);
                out.check(applied.is_ok(), || {
                    format!("client {client} op {index}: shadow rejected {applied:?}")
                });
            }
            Op::Select(spec) => {
                let Served { selected, ranks } = served.as_ref().expect("a selection was logged");
                let reference = reference(&shadow, spec, *ranks);
                out.check(
                    *selected == reference
                        && well_formed(selected, spec.budget, shadow.pool_size()),
                    || {
                        format!(
                            "client {client} op {index} ({} on {ranks} ranks): served {selected:?}, reference {reference:?}",
                            spec.strategy
                        )
                    },
                );
            }
        }
    }
    out.check(log.bad_acks == 0, || {
        format!(
            "client {client}: {} acks with a wrong pool size",
            log.bad_acks
        )
    });
}

/// One server session: what set-up produced and, when it was the timed
/// one, what the clients did in it.
struct Session {
    setup_s: f64,
    pools: Vec<Built<f64>>,
    upload_ms: Vec<f64>,
    /// The selections served before the timed loop: bayes-batch for each
    /// client (the end of set-up), then Approx-FIRAL for each client.
    warm: Vec<(SelectSpec, SelectionOutcome)>,
    logs: Vec<ClientLog>,
    wall_s: f64,
    /// Kernel work of both clients' counted operations.
    counted_work: Option<counters::CounterSnapshot>,
    stats: Option<ServerStats>,
    summaries: Vec<Result<ServeSummary, ServeError>>,
}

/// Set up two pools, a warm 2-rank server mesh, two connections, the
/// uploads and one Approx-FIRAL selection per pool; when `timed`, let the
/// clients run their scripts; shut the server down either way.
fn session(ctx: &Ctx, origin: Instant, timed: bool) -> Session {
    let shape = SyntheticConfig::new(CLASSES, DIM)
        .with_pool_size(POOL)
        .with_initial_per_class(2)
        .with_eval_size(10);
    let t0 = Instant::now();
    let pools: Vec<_> = (0..CLIENTS)
        .map(|client| build_problem::<f64>(&shape, ctx.seed * CLIENTS as u64 + client as u64))
        .collect();
    let addr = free_rendezvous_addr().expect("free localhost port");
    let config = ServeConfig::new(addr.clone()).with_batch_wait(Duration::from_millis(5));
    let cpus = ctx.cpus;
    let server = std::thread::spawn(move || {
        socket_launch(2, move |comm| {
            bind_rank_to_cpu(comm.rank(), cpus);
            firal_serve::run(comm, &config)
        })
    });
    let mut upload_ms = Vec::new();
    let mut conns: Vec<(ServeClient, u64)> = pools
        .iter()
        .map(|built| {
            let mut conn = ServeClient::connect(&addr, Duration::from_secs(20))
                .and_then(|c| c.with_patience(Some(PATIENCE)))
                .expect("client connection");
            let t_up = Instant::now();
            let pool = conn.upload_pool(&built.problem).expect("pool upload");
            upload_ms.push(t_up.elapsed().as_secs_f64() * 1e3);
            (conn, pool)
        })
        .collect();
    // One request per pool ships the pool to the worker rank and warms the
    // mesh; then set-up is over.
    let warm_up = |strategy: &str, conn: &mut ServeClient, pool: u64| {
        let spec = SelectSpec {
            pool,
            strategy: strategy.into(),
            budget: 6,
            seed: ctx.seed,
            threads: 0,
            max_ranks: 2,
        };
        let outcome = conn.select(&spec).expect("warm-up selection");
        (spec, outcome)
    };
    let mut warm: Vec<_> = conns
        .iter_mut()
        .map(|(conn, pool)| warm_up("bayes-batch", conn, *pool))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    if timed {
        warm.extend(
            conns
                .iter_mut()
                .map(|(conn, pool)| warm_up("approx-firal", conn, *pool)),
        );
    }

    let mut logs = Vec::new();
    let mut wall_s = 0.0;
    let mut counted_work = None;
    let mut stats = None;
    if timed {
        let gate = CountGate {
            barrier: Barrier::new(CLIENTS),
            reading: Mutex::new(None),
        };
        let work0 = counters::snapshot();
        let started = Instant::now();
        logs = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(client, (conn, pool))| {
                    let (addr, pool, gate) = (addr.as_str(), *pool, &gate);
                    scope.spawn(move || drive(ctx, client, addr, conn, pool, origin, gate))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        wall_s = started.elapsed().as_secs_f64();
        let at_gate = gate.reading.into_inner().expect("no client panicked");
        counted_work = at_gate.map(|at| counters::CounterSnapshot {
            flops: at.flops - work0.flops,
            bytes: at.bytes - work0.bytes,
        });
        stats = Some(conns[0].0.stats().expect("server stats"));
    }
    conns[0].0.shutdown().expect("server shutdown");
    drop(conns);
    Session {
        setup_s,
        pools,
        upload_ms,
        warm,
        logs,
        wall_s,
        counted_work,
        stats,
        summaries: server.join().expect("server thread"),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut last = None;
    for rep in 0..ctx.setup_reps {
        let session = session(ctx, origin, rep + 1 == ctx.setup_reps);
        out.setup_s.push(session.setup_s);
        last = Some(session);
    }
    let Session {
        pools,
        upload_ms,
        warm,
        mut logs,
        wall_s,
        counted_work,
        stats,
        summaries,
        ..
    } = last.expect("at least one set-up");
    let stats = stats.expect("stats of the timed session");

    out.shape = vec![
        ("n", POOL as f64),
        ("d", DIM as f64),
        ("c", CLASSES as f64),
        ("clients", CLIENTS as f64),
        ("ranks", 2.0),
    ];
    out.wall_s = wall_s;
    let mut hash = SelectionHash::default();
    let mut mutate_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut traced_ms = Vec::new();
    for log in &logs {
        out.op_ms.extend(&log.select_ms);
        out.ops += log.ops.len() as u64;
        mutate_ms.extend(&log.mutate_ms);
        overhead_ms.extend(&log.overhead_ms);
        traced_ms.extend(&log.traced_select_ms);
        for served in log.ops[..ctx.counted_rounds]
            .iter()
            .filter_map(|op| op.1.as_ref())
        {
            hash.eat(&served.selected);
        }
    }
    out.selection_hash = hash.0;

    // Checks.
    for (index, (spec, served)) in warm.iter().enumerate() {
        let client = index % CLIENTS;
        let reference = reference(&pools[client].problem, spec, served.group.len());
        out.check(served.selected == reference, || {
            format!(
                "client {client}: served {} {:?}, reference {reference:?}",
                spec.strategy, served.selected
            )
        });
    }
    for (client, (built, log)) in pools.iter().zip(&logs).enumerate() {
        verify(&mut out, client, &built.problem, log);
    }
    let hub = summaries[0].as_ref();
    out.check(
        hub.is_ok_and(|s| s.requests_err == 0 && s.degraded.is_none()),
        || format!("the server did not end cleanly: {hub:?}"),
    );
    out.check(stats.requests_err == 0, || {
        format!("{} requests were refused", stats.requests_err)
    });

    if ctx.trace {
        let all_selects = logs
            .iter()
            .flat_map(|l| &l.ops)
            .filter(|(op, _)| matches!(op, Op::Select(_)))
            .count();
        // The warm-up selections ran in rounds of their own.
        let served = (all_selects + warm.len()) as f64;
        let sum = |f: fn(&ClientLog) -> f64| logs.iter().map(f).sum::<f64>();
        let counted = sum(|l| l.counted_selects as f64);
        out.set("serve.upload_ms", median(&upload_ms));
        out.set("serve.overhead_ms", median(&overhead_ms));
        out.set("serve.mutate_ms_p50", median(&mutate_ms));
        out.set("serve.rounds_per_request", stats.rounds as f64 / served);
        out.set(
            "serve.billed_bytes_per_request",
            stats.comm.total_bytes() as f64 / served,
        );
        out.set(
            "comm.calls_per_select",
            sum(|l| l.comm_calls as f64) / counted,
        );
        out.set(
            "comm.bytes_per_select",
            sum(|l| l.comm_bytes as f64) / counted,
        );
        out.set("comm.wait_s_per_select", sum(|l| l.comm_wait_s) / counted);
        out.set(
            "comm.wait_share",
            sum(|l| l.comm_wait_s) / sum(|l| l.rank_seconds),
        );
        work_layer_metrics(
            &mut out,
            &pools.iter().collect::<Vec<_>>(),
            counted_work.expect("kernel work of the counted operations"),
            counted,
            sum(|l| l.rank_seconds) / counted,
            CLIENTS as f64 * model_bytes(POOL, DIM, CLASSES, 8),
        );
        out.set(
            "bench.trace_overhead_ratio",
            median(&traced_ms) / median(&out.op_ms),
        );
        let off = || Recorder::new(false, origin);
        let mut rec = std::mem::replace(&mut logs[0].rec, off());
        probes::run_all(
            &mut rec,
            &mut out,
            &pools[0].problem,
            ctx.probe_seconds,
            ctx.seed,
        );
        out.traces.push(("client0".into(), rec));
        out.traces
            .push(("client1".into(), std::mem::replace(&mut logs[1].rec, off())));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed a script selections that depend only on the request, as the
    /// deterministic server does.
    fn play(seed: u64, client: usize, steps: usize) -> Vec<Op> {
        let mut script = Script::new(seed, client, 7, POOL);
        (0..steps)
            .map(|_| {
                let op = script.next_op();
                if let Op::Select(spec) = &op {
                    let picked: Vec<usize> = (0..spec.budget).map(|i| i * 3).collect();
                    script.observe(&picked);
                }
                op
            })
            .collect()
    }

    #[test]
    fn the_script_is_a_function_of_its_seed() {
        assert_eq!(play(11, 0, 400), play(11, 0, 400));
        assert_ne!(play(11, 0, 400), play(12, 0, 400));
        assert_ne!(play(11, 0, 400), play(11, 1, 400));
    }

    #[test]
    fn the_script_keeps_its_mix_and_its_pool_in_range() {
        let mut script = Script::new(5, 0, 1, POOL);
        let (mut selects, mut mutations) = (0usize, 0usize);
        for _ in 0..4000 {
            match script.next_op() {
                Op::Select(spec) => {
                    selects += 1;
                    assert!([4, 6, 8].contains(&spec.budget));
                    script.observe(&(0..spec.budget).collect::<Vec<_>>());
                }
                Op::Mutate(PoolMutation::Remove { indices }) => {
                    mutations += 1;
                    assert_eq!(indices.len(), 4);
                }
                Op::Mutate(_) => mutations += 1,
            }
            assert!(
                script.pool_size().abs_diff(POOL) <= 48,
                "{}",
                script.pool_size()
            );
        }
        let share = selects as f64 / (selects + mutations) as f64;
        assert!((share - 0.7).abs() < 0.03, "select share {share}");
    }
}
