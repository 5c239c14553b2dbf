//! The selection server: a warm rank mesh held open behind a TCP accept
//! loop, serving concurrent requests on disjoint sub-groups.
//!
//! # Round protocol
//!
//! The mesh is driven in **batch-synchronous rounds**. Between rounds every
//! rank is idle; rank 0 (the *hub*) additionally owns the client listener:
//! it accepts connections ([`firal_comm::poll_accept`]), pumps nonblocking
//! reads through the pure incremental parser
//! ([`crate::proto::try_parse_frame`]), validates requests against the
//! strategy registry and the uploaded pools, and queues the survivors.
//! When enough work is queued ([`ServeConfig::min_batch`], or the oldest
//! request has waited [`ServeConfig::batch_wait`]), the hub plans a round
//! ([`crate::sched::plan_round`]), ships one **round frame** to every rank
//! over the root communicator's point-to-point lane, workers replay its
//! pool log (below), and everyone — hub included — runs the same
//! participant code: `split` the mesh by assignment color and run the
//! assigned request on the sub-communicator via
//! [`firal_core::dispatch_select`]. Per-link FIFO order makes the
//! interleaving safe: the round frame precedes the split's
//! collective traffic on every hub→worker link, and a sub-group's result
//! frame follows all of its collective traffic on the leader→hub link.
//!
//! Each sub-group sums its members' per-request bills with one allgather
//! on the *sub*-communicator (so the bill is exactly the request's own
//! traffic, disjoint from every concurrent request), and the group leader
//! sends the result to the hub, which answers the owning client.
//!
//! # Replicated pool log
//!
//! Every pool-changing request — upload, add-points / remove-points /
//! label, delete-pool — is one `(handle, op, body)` entry of a single
//! ordered log, `body` being the client's own request body. The hub applies
//! each entry through one function at request time and answers the client
//! from its result; the next round frame ships the entries the mesh has not
//! seen, and every worker replays them in arrival order through that same
//! function before it splits. Identical blobs plus an identical op sequence
//! keep the pools bitwise-identical on every rank. Pools live until an
//! explicit delete or shutdown; deleting a pool the mesh never received
//! drops its unshipped entries instead of shipping anything.
//!
//! # Failure model
//!
//! A request that fails inside its sub-group — a killed rank, a deadline,
//! a verifier abort — comes back through the `try_`/[`CommError`] path as
//! a structured [`RemoteError`] to the owning client *only*: abort frames
//! are confined to the failing sub-group's links, so concurrent requests
//! on disjoint sub-groups run to completion and are answered normally.
//! Because the mesh's integrity is unknown after a comm-class failure, the
//! hub then **degrades**: queued requests are answered with
//! [`crate::proto::ERR_DEGRADED`], workers are told to stand down, and
//! [`run`] returns a summary carrying the degradation reason. Client-side
//! misbehaviour (malformed frames, unknown ops, bad strategy names,
//! disconnects) never reaches the mesh at all — it is answered or dropped
//! at the hub and the server keeps serving.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use firal_comm::{comm_timeout, poll_accept, wire, CommError, CommStats, Communicator, SocketComm};
use firal_core::{dispatch_select, strategy_by_name, SelectError, SelectRequest, SelectionProblem};

use crate::proto::{
    self, MutateAck, RemoteError, Request, Response, SelectSpec, SelectionOutcome, ServerStats,
    ERR_COMM, ERR_DEGRADED, ERR_PROTOCOL, ERR_UNKNOWN_POOL,
};
use crate::sched::{plan_round, RankDemand};

/// Round frame flag: serve the carried assignments.
const FLAG_SERVE: u64 = 0;
/// Round frame flag: clean shutdown — exit with a healthy summary.
const FLAG_SHUTDOWN: u64 = 1;
/// Round frame flag: the mesh degraded — stand down immediately.
const FLAG_DEGRADED: u64 = 2;

/// How the server is told to behave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Address the hub's client listener binds (e.g. `127.0.0.1:7700`).
    pub addr: String,
    /// Queue depth that triggers a round immediately. Raising it above 1
    /// trades first-request latency for concurrency (more requests share
    /// one round, each on a smaller sub-group).
    pub min_batch: usize,
    /// How long the oldest queued request may wait before a round runs
    /// even under [`ServeConfig::min_batch`] depth.
    pub batch_wait: Duration,
}

impl ServeConfig {
    /// A config serving on `addr` with defaults: rounds run as soon as one
    /// request is queued.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            min_batch: 1,
            batch_wait: Duration::from_millis(50),
        }
    }

    /// Replace [`ServeConfig::min_batch`].
    pub fn with_min_batch(mut self, min_batch: usize) -> Self {
        self.min_batch = min_batch.max(1);
        self
    }

    /// Replace [`ServeConfig::batch_wait`].
    pub fn with_batch_wait(mut self, wait: Duration) -> Self {
        self.batch_wait = wait;
        self
    }
}

/// How long the hub waits for a sub-group leader's result frame before
/// declaring that request (and the mesh) failed: 8× the
/// `FIRAL_COMM_TIMEOUT` deadline (floored at 2 s) so a slow-but-alive
/// sub-group isn't mistaken for a dead one, else 30 s.
fn result_patience() -> Duration {
    match comm_timeout() {
        Some(d) => (d * 8).max(Duration::from_secs(2)),
        None => Duration::from_secs(30),
    }
}

/// What one rank's serve loop did, returned by [`run`]. Request counters
/// are authoritative on the hub; workers count only the assignments they
/// led.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Serving rounds driven (hub) or participated in (worker).
    pub rounds: u64,
    /// Requests answered successfully.
    pub requests_ok: u64,
    /// Requests answered with a structured error.
    pub requests_err: u64,
    /// `Some(reason)` when the server wound down because the mesh
    /// degraded rather than by a clean shutdown request.
    pub degraded: Option<String>,
}

/// Why [`run`] could not keep serving: a listener-side I/O failure (hub
/// only) or a mesh failure outside any request's sub-group (the round
/// control plane itself broke).
#[derive(Debug)]
pub enum ServeError {
    /// Client listener I/O failure (bind/accept).
    Io(io::Error),
    /// Root-communicator failure in the round control plane.
    Comm(CommError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve listener I/O failure: {e}"),
            ServeError::Comm(e) => write!(f, "serve control plane failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CommError> for ServeError {
    fn from(e: CommError) -> Self {
        ServeError::Comm(e)
    }
}

/// Run the serve loop on this rank of a warm root mesh. Rank 0 becomes the
/// hub (binding [`ServeConfig::addr`]); every other rank becomes a worker.
/// Returns when a client requests shutdown (clean) or the mesh degrades.
pub fn run(comm: &SocketComm, config: &ServeConfig) -> Result<ServeSummary, ServeError> {
    if comm.rank() == 0 {
        run_hub(comm, config)
    } else {
        run_worker(comm)
    }
}

// ---------------------------------------------------------------------------
// Mesh-internal frames (hub → workers and leader → hub)
// ---------------------------------------------------------------------------

/// One request as it rides inside a round frame.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AssignFrame {
    id: u64,
    pool: u64,
    strategy: String,
    budget: usize,
    seed: u64,
    threads: usize,
    /// World ranks, ascending; `ranks[0]` is the sub-group leader.
    ranks: Vec<usize>,
}

/// One entry of the replicated pool log: the pool a pool-changing request
/// acts on, its wire op (`OP_UPLOAD_POOL`, a mutation op, or
/// `OP_DELETE_POOL`), and the client's own request body.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PoolOp {
    handle: u64,
    op: u64,
    body: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RoundFrame {
    round: u64,
    flag: u64,
    /// Pool ops the mesh has not seen yet, in client-arrival order.
    log: Vec<PoolOp>,
    assigns: Vec<AssignFrame>,
}

/// Most entries a round frame may carry per list. Far above anything the
/// scheduler can produce (assignments are bounded by the mesh size, pool
/// ops by client traffic between two rounds), but small enough that a
/// corrupt count fails loudly.
const MAX_ROUND_ITEMS: usize = 1 << 16;

fn encode_round(frame: &RoundFrame) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_u64(&mut out, frame.round).unwrap();
    wire::write_u64(&mut out, frame.flag).unwrap();
    wire::write_u64(&mut out, frame.log.len() as u64).unwrap();
    for e in &frame.log {
        wire::write_u64(&mut out, e.handle).unwrap();
        wire::write_u64(&mut out, e.op).unwrap();
        wire::write_bytes(&mut out, &e.body).unwrap();
    }
    wire::write_u64(&mut out, frame.assigns.len() as u64).unwrap();
    for a in &frame.assigns {
        wire::write_u64(&mut out, a.id).unwrap();
        wire::write_u64(&mut out, a.pool).unwrap();
        wire::write_str(&mut out, &a.strategy).unwrap();
        wire::write_u64(&mut out, a.budget as u64).unwrap();
        wire::write_u64(&mut out, a.seed).unwrap();
        wire::write_u64(&mut out, a.threads as u64).unwrap();
        proto::write_indices(&mut out, &a.ranks).unwrap();
    }
    out
}

/// Read one of a round frame's list counts, validating it against both the
/// item cap and the bytes actually remaining (`min_entry` is the smallest
/// possible encoding of one entry) *before* the caller's read loop runs —
/// a corrupt count is a structured decode error, never an allocation, an
/// OOM, or a long spin against an exhausted buffer.
fn read_round_count(r: &[u8], raw: u64, what: &str, min_entry: usize) -> io::Result<usize> {
    let n = raw as usize;
    if n > MAX_ROUND_ITEMS || n.saturating_mul(min_entry) > r.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "round frame claims {n} {what} entries but only {} bytes remain",
                r.len()
            ),
        ));
    }
    Ok(n)
}

fn decode_round(bytes: &[u8]) -> io::Result<RoundFrame> {
    let mut r = bytes;
    let round = wire::read_u64(&mut r)?;
    let flag = wire::read_u64(&mut r)?;
    // A pool op is at least a handle, an op word and a body length (24
    // bytes); an assignment is five u64s plus two length prefixes (56).
    let raw = wire::read_u64(&mut r)?;
    let n_ops = read_round_count(r, raw, "pool-op", 24)?;
    let mut log = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        log.push(PoolOp {
            handle: wire::read_u64(&mut r)?,
            op: wire::read_u64(&mut r)?,
            body: proto::read_body(&mut r)?,
        });
    }
    let raw = wire::read_u64(&mut r)?;
    let n_assign = read_round_count(r, raw, "assignment", 56)?;
    let mut assigns = Vec::with_capacity(n_assign);
    for _ in 0..n_assign {
        assigns.push(AssignFrame {
            id: wire::read_u64(&mut r)?,
            pool: wire::read_u64(&mut r)?,
            strategy: proto::read_str(&mut r)?,
            budget: wire::read_u64(&mut r)? as usize,
            seed: wire::read_u64(&mut r)?,
            threads: wire::read_u64(&mut r)? as usize,
            ranks: proto::read_indices(&mut r)?,
        });
    }
    if !r.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("round frame has {} trailing bytes", r.len()),
        ));
    }
    Ok(RoundFrame {
        round,
        flag,
        log,
        assigns,
    })
}

/// A finished assignment as its leader reports it to the hub.
#[derive(Debug, Clone, PartialEq)]
struct OkPayload {
    selected: Vec<usize>,
    /// Slowest member's wall-clock seconds.
    seconds: f64,
    /// Sum of every member's bill for this request.
    comm: CommStats,
}

fn encode_result(id: u64, payload: &Result<OkPayload, RemoteError>) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_u64(&mut out, id).unwrap();
    match payload {
        Ok(p) => {
            wire::write_u64(&mut out, 1).unwrap();
            proto::write_indices(&mut out, &p.selected).unwrap();
            wire::write_f64s(&mut out, &[p.seconds]).unwrap();
            proto::write_stats(&mut out, &p.comm).unwrap();
        }
        Err(e) => {
            wire::write_u64(&mut out, 0).unwrap();
            wire::write_u64(&mut out, e.code).unwrap();
            wire::write_str(&mut out, proto::clip(&e.message)).unwrap();
        }
    }
    out
}

fn decode_result(bytes: &[u8]) -> io::Result<(u64, Result<OkPayload, RemoteError>)> {
    let mut r = bytes;
    let id = wire::read_u64(&mut r)?;
    let ok = wire::read_u64(&mut r)?;
    let payload = if ok == 1 {
        let selected = proto::read_indices(&mut r)?;
        let mut seconds = [0.0f64];
        wire::read_f64s_into(&mut r, &mut seconds)?;
        let comm = proto::read_stats(&mut r)?;
        Ok(OkPayload {
            selected,
            seconds: seconds[0],
            comm,
        })
    } else {
        Err(RemoteError {
            code: wire::read_u64(&mut r)?,
            message: proto::read_str(&mut r)?,
        })
    };
    if !r.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("result frame has {} trailing bytes", r.len()),
        ));
    }
    Ok((id, payload))
}

// ---------------------------------------------------------------------------
// Participant path (every rank, hub included)
// ---------------------------------------------------------------------------

/// Run this rank's share of one round: split by assignment color, run the
/// assigned request (if any), aggregate the sub-group's bill, and — on the
/// group leader — return `(succeeded, encoded result frame)`.
///
/// The outer `Err` is reserved for failures *outside* any sub-group (the
/// root-communicator split): those poison the control plane and are fatal
/// to the serve loop. Failures inside a sub-group are folded into the
/// leader's result frame and the loop continues.
fn run_assignments(
    comm: &SocketComm,
    frame: &RoundFrame,
    pools: &BTreeMap<u64, SelectionProblem<f64>>,
) -> Result<Option<(bool, Vec<u8>)>, CommError> {
    let me = comm.rank();
    let n = frame.assigns.len();
    let color = frame
        .assigns
        .iter()
        .position(|a| a.ranks.contains(&me))
        .unwrap_or(n);
    // Collective over the *root* group: unassigned ranks participate with
    // the spare color and then idle.
    let sub = comm.try_split(color, me)?;
    if color == n {
        return Ok(None);
    }
    let a = &frame.assigns[color];
    let leader = sub.rank() == 0;
    let payload = match pools.get(&a.pool) {
        None => Err(RemoteError::new(
            ERR_UNKNOWN_POOL,
            format!("pool {} was never installed on rank {me}", a.pool),
        )),
        Some(problem) => {
            let req = SelectRequest::new(a.strategy.clone(), a.budget)
                .with_seed(a.seed)
                .with_threads(a.threads);
            match dispatch_select(sub.as_ref(), problem, &req) {
                Ok(report) => {
                    // One allgather on the sub-communicator sums the bill
                    // across exactly this request's members.
                    let mine = [
                        report.comm.allreduce_calls as f64,
                        report.comm.allreduce_bytes as f64,
                        report.comm.bcast_calls as f64,
                        report.comm.bcast_bytes as f64,
                        report.comm.allgather_calls as f64,
                        report.comm.allgather_bytes as f64,
                        report.comm.time.as_nanos() as f64,
                        report.seconds,
                    ];
                    match sub.try_allgatherv_f64(&mine) {
                        Ok(all) => {
                            let mut sums = [0.0f64; 7];
                            let mut slowest = 0.0f64;
                            for member in all.chunks(8) {
                                for (s, v) in sums.iter_mut().zip(member) {
                                    *s += v;
                                }
                                slowest = slowest.max(member[7]);
                            }
                            Ok(OkPayload {
                                selected: report.selected,
                                seconds: slowest,
                                comm: CommStats {
                                    allreduce_calls: sums[0] as u64,
                                    allreduce_bytes: sums[1] as u64,
                                    bcast_calls: sums[2] as u64,
                                    bcast_bytes: sums[3] as u64,
                                    allgather_calls: sums[4] as u64,
                                    allgather_bytes: sums[5] as u64,
                                    time: Duration::from_nanos(sums[6] as u64),
                                },
                            })
                        }
                        Err(ce) => Err(RemoteError::new(ERR_COMM, ce.to_string())),
                    }
                }
                Err(e) => Err(RemoteError::from_select_error(&e)),
            }
        }
    };
    if !leader {
        return Ok(None);
    }
    let ok = payload.is_ok();
    Ok(Some((ok, encode_result(a.id, &payload))))
}

/// Apply one pool-changing request to a pool map: the one pool-mutation
/// path. The hub runs it at request time and answers the client from its
/// result; workers replay the shipped log through it ([`replay_log`]).
/// On `Err` the map is untouched.
fn apply_pool_op(
    pools: &mut BTreeMap<u64, SelectionProblem<f64>>,
    handle: u64,
    req: &Request,
) -> Result<Response, RemoteError> {
    let unknown = || {
        RemoteError::new(
            ERR_UNKNOWN_POOL,
            format!("pool handle {handle} was never uploaded (or was deleted)"),
        )
    };
    if let Request::Mutate { pool, .. } | Request::DeletePool { pool } = req {
        if *pool != handle {
            return Err(RemoteError::new(
                ERR_PROTOCOL,
                format!("body names pool {pool}, not {handle}"),
            ));
        }
    }
    match req {
        Request::UploadPool(blob) => {
            if pools.contains_key(&handle) {
                return Err(RemoteError::new(
                    ERR_PROTOCOL,
                    format!("pool handle {handle} is already installed"),
                ));
            }
            let problem =
                proto::decode_pool(blob).map_err(|why| RemoteError::new(ERR_PROTOCOL, why))?;
            pools.insert(handle, problem);
            Ok(Response::Pool { handle })
        }
        Request::Mutate { mutation, .. } => {
            let problem = pools.get_mut(&handle).ok_or_else(unknown)?;
            proto::apply_mutation(problem, mutation).map_err(|why| {
                RemoteError::new(ERR_PROTOCOL, format!("mutation rejected: {why}"))
            })?;
            Ok(Response::Mutated(MutateAck {
                handle,
                pool_size: problem.pool_size(),
                labeled: problem.labeled_x.rows(),
            }))
        }
        Request::DeletePool { .. } => {
            pools.remove(&handle).ok_or_else(unknown)?;
            Ok(Response::Deleted { handle })
        }
        other => Err(RemoteError::new(
            ERR_PROTOCOL,
            format!("{other:?} is not a pool op"),
        )),
    }
}

/// Bring this rank's pool map up to the hub's: replay the shipped log, in
/// arrival order, through the [`apply_pool_op`] the hub already ran. Every
/// entry succeeded on the hub, so a failure here means the mesh desynced.
fn replay_log(log: &[PoolOp], pools: &mut BTreeMap<u64, SelectionProblem<f64>>) -> io::Result<()> {
    for e in log {
        proto::decode_request(e.op, &e.body)
            .and_then(|req| apply_pool_op(pools, e.handle, &req))
            .map_err(|err| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "pool op {} on pool {} failed on the mesh: {}",
                        e.op, e.handle, err.message
                    ),
                )
            })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Worker loop (ranks 1..p)
// ---------------------------------------------------------------------------

fn run_worker(comm: &SocketComm) -> Result<ServeSummary, ServeError> {
    let mut summary = ServeSummary::default();
    let mut pools: BTreeMap<u64, SelectionProblem<f64>> = BTreeMap::new();
    loop {
        // Idle between rounds: wait indefinitely for the hub's next frame
        // (a dead hub surfaces as EOF, a degraded one as a stale abort).
        let bytes = match comm.try_recv_bytes(0, None) {
            Ok(b) => b,
            Err(CommError::RemoteAbort { origin, reason, .. }) => {
                summary.degraded = Some(format!("abort from rank {origin}: {reason}"));
                return Ok(summary);
            }
            Err(e) => return Err(e.into()),
        };
        let frame = decode_round(&bytes)?;
        match frame.flag {
            FLAG_SHUTDOWN => return Ok(summary),
            FLAG_DEGRADED => {
                summary.degraded = Some("hub reported a degraded mesh".into());
                return Ok(summary);
            }
            _ => {}
        }
        summary.rounds += 1;
        replay_log(&frame.log, &mut pools)?;
        if let Some((ok, result)) = run_assignments(comm, &frame, &pools)? {
            if ok {
                summary.requests_ok += 1;
            } else {
                summary.requests_err += 1;
            }
            comm.try_send_bytes(0, &result)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Hub loop (rank 0)
// ---------------------------------------------------------------------------

struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
    alive: bool,
}

impl ClientConn {
    fn respond(&mut self, resp: &Response) {
        if !self.alive {
            return;
        }
        let _ = self.stream.set_nonblocking(false);
        let ok =
            proto::write_response(&mut self.stream, resp).is_ok() && self.stream.flush().is_ok();
        let _ = self.stream.set_nonblocking(true);
        if !ok {
            self.alive = false;
        }
    }
}

struct Pending {
    id: u64,
    client: usize,
    spec: SelectSpec,
    since: Instant,
}

enum Event {
    Req(usize, Request),
    BadReq(usize, RemoteError),
    Fatal(usize, String),
}

/// Drain whatever a client has sent: grow its buffer, peel complete
/// frames, classify each. EOF with a partial frame buffered is a truncated
/// request — the client is gone, so there is nobody to answer.
fn pump_client(idx: usize, c: &mut ClientConn, events: &mut Vec<Event>) {
    let mut tmp = [0u8; 8192];
    loop {
        match c.stream.read(&mut tmp) {
            Ok(0) => {
                c.alive = false;
                break;
            }
            Ok(n) => c.buf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.alive = false;
                break;
            }
        }
    }
    loop {
        match proto::try_parse_frame(&c.buf) {
            Ok(Some((op, body, used))) => {
                c.buf.drain(..used);
                events.push(match proto::decode_request(op, &body) {
                    Ok(req) => Event::Req(idx, req),
                    Err(e) => Event::BadReq(idx, e),
                });
            }
            Ok(None) => break,
            Err(fe) => {
                events.push(Event::Fatal(idx, fe.to_string()));
                break;
            }
        }
    }
}

fn validate_spec(
    spec: &SelectSpec,
    problems: &BTreeMap<u64, SelectionProblem<f64>>,
) -> Result<(), RemoteError> {
    strategy_by_name::<f64>(&spec.strategy).map_err(|e| RemoteError::from_select_error(&e))?;
    let problem = problems.get(&spec.pool).ok_or_else(|| {
        RemoteError::new(
            ERR_UNKNOWN_POOL,
            format!("pool handle {} was never uploaded", spec.pool),
        )
    })?;
    if spec.budget == 0 {
        return Err(RemoteError::from_select_error(&SelectError::ZeroBudget));
    }
    if problem.pool_size() == 0 {
        return Err(RemoteError::from_select_error(&SelectError::EmptyPool));
    }
    if spec.budget > problem.pool_size() {
        return Err(RemoteError::from_select_error(
            &SelectError::BudgetTooLarge {
                budget: spec.budget,
                pool: problem.pool_size(),
            },
        ));
    }
    // Each worker spawns `threads − 1` kernel threads for the request, so
    // an unbounded count could exhaust the host.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if spec.threads > cpus {
        return Err(RemoteError::new(
            ERR_PROTOCOL,
            format!("threads {} exceeds the host's {cpus} CPUs", spec.threads),
        ));
    }
    Ok(())
}

struct Hub<'a> {
    comm: &'a SocketComm,
    config: &'a ServeConfig,
    clients: Vec<ClientConn>,
    problems: BTreeMap<u64, SelectionProblem<f64>>,
    /// Applied pool ops the mesh has not seen yet, in arrival order.
    unshipped: Vec<PoolOp>,
    pools_evicted: u64,
    queue: Vec<Pending>,
    next_pool: u64,
    next_id: u64,
    round: u64,
    requests_ok: u64,
    requests_err: u64,
    cumulative: CommStats,
    shutdown_acks: Vec<usize>,
    degraded: Option<String>,
}

fn run_hub(comm: &SocketComm, config: &ServeConfig) -> Result<ServeSummary, ServeError> {
    let listener = TcpListener::bind(&config.addr)?;
    let mut hub = Hub::new(comm, config);
    loop {
        let shutting_down = !hub.shutdown_acks.is_empty();
        if !shutting_down {
            while let Some(stream) = poll_accept(&listener)? {
                stream.set_nonblocking(true)?;
                hub.clients.push(ClientConn {
                    stream,
                    buf: Vec::new(),
                    alive: true,
                });
            }
            hub.pump_and_handle();
        }
        let overdue = hub
            .queue
            .first()
            .is_some_and(|p| p.since.elapsed() >= hub.config.batch_wait);
        let run_now = !hub.queue.is_empty()
            && (shutting_down || hub.queue.len() >= hub.config.min_batch || overdue);
        if run_now {
            hub.run_round()?;
            if hub.degraded.is_some() {
                return Ok(hub.wind_down(FLAG_DEGRADED));
            }
            continue;
        }
        if shutting_down {
            return Ok(hub.wind_down(FLAG_SHUTDOWN));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl<'a> Hub<'a> {
    fn new(comm: &'a SocketComm, config: &'a ServeConfig) -> Self {
        Hub {
            comm,
            config,
            clients: Vec::new(),
            problems: BTreeMap::new(),
            unshipped: Vec::new(),
            pools_evicted: 0,
            queue: Vec::new(),
            next_pool: 1,
            next_id: 1,
            round: 0,
            requests_ok: 0,
            requests_err: 0,
            cumulative: CommStats::default(),
            shutdown_acks: Vec::new(),
            degraded: None,
        }
    }

    fn pump_and_handle(&mut self) {
        let mut events = Vec::new();
        for (idx, c) in self.clients.iter_mut().enumerate() {
            if c.alive {
                pump_client(idx, c, &mut events);
            }
        }
        for event in events {
            match event {
                Event::Req(
                    idx,
                    req @ (Request::UploadPool(_)
                    | Request::Mutate { .. }
                    | Request::DeletePool { .. }),
                ) => {
                    let resp = self.log_pool_op(req);
                    if matches!(resp, Response::Error(_)) {
                        self.requests_err += 1;
                    }
                    self.clients[idx].respond(&resp);
                }
                Event::Req(idx, Request::Select(spec)) => {
                    match validate_spec(&spec, &self.problems) {
                        Ok(()) => {
                            let id = self.next_id;
                            self.next_id += 1;
                            self.queue.push(Pending {
                                id,
                                client: idx,
                                spec,
                                since: Instant::now(),
                            });
                        }
                        Err(e) => {
                            self.requests_err += 1;
                            self.clients[idx].respond(&Response::Error(e));
                        }
                    }
                }
                Event::Req(idx, Request::Stats) => {
                    let stats = ServerStats {
                        rounds: self.round,
                        requests_ok: self.requests_ok,
                        requests_err: self.requests_err,
                        pools_live: self.problems.len() as u64,
                        pools_evicted: self.pools_evicted,
                        comm: self.cumulative,
                    };
                    self.clients[idx].respond(&Response::Stats(stats));
                }
                Event::Req(idx, Request::Shutdown) => {
                    self.shutdown_acks.push(idx);
                }
                Event::BadReq(idx, e) => {
                    self.requests_err += 1;
                    self.clients[idx].respond(&Response::Error(e));
                }
                Event::Fatal(idx, why) => {
                    self.requests_err += 1;
                    self.clients[idx]
                        .respond(&Response::Error(RemoteError::new(ERR_PROTOCOL, why)));
                    self.clients[idx].alive = false;
                }
            }
        }
        // Actively close dead connections so the peer observes EOF rather
        // than a socket that lingers until its own read deadline. Slots are
        // kept (queue entries and shutdown acks index into `clients`).
        for c in self.clients.iter_mut().filter(|c| !c.alive) {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Apply one pool-changing request to the hub's pools and append it
    /// to the unshipped log; the returned response answers the client. An
    /// upload takes the next handle. Deleting a pool the mesh never
    /// received drops every unshipped entry of it, the delete included, so
    /// upload/delete churn ships nothing.
    fn log_pool_op(&mut self, req: Request) -> Response {
        let handle = match &req {
            Request::Mutate { pool, .. } | Request::DeletePool { pool } => *pool,
            _ => {
                self.next_pool += 1;
                self.next_pool - 1
            }
        };
        let resp = match apply_pool_op(&mut self.problems, handle, &req) {
            Ok(resp) => resp,
            Err(e) => return Response::Error(e),
        };
        let (op, body) = match req {
            Request::UploadPool(blob) => (proto::OP_UPLOAD_POOL, blob),
            Request::Mutate { pool, mutation } => {
                (mutation.op(), proto::encode_mutation(pool, &mutation))
            }
            // `apply_pool_op` accepted it, so this is a delete.
            _ => {
                self.pools_evicted += 1;
                let shipped = !self
                    .unshipped
                    .iter()
                    .any(|e| e.handle == handle && e.op == proto::OP_UPLOAD_POOL);
                self.unshipped.retain(|e| e.handle != handle);
                if !shipped {
                    return resp;
                }
                (proto::OP_DELETE_POOL, proto::encode_delete(handle))
            }
        };
        self.unshipped.push(PoolOp { handle, op, body });
        resp
    }

    fn run_round(&mut self) -> Result<(), ServeError> {
        self.round += 1;
        let demands: Vec<RankDemand> = self
            .queue
            .iter()
            .map(|p| RankDemand {
                id: p.id,
                want_ranks: p.spec.max_ranks,
            })
            .collect();
        let idle: Vec<usize> = (0..self.comm.size()).collect();
        let plan = plan_round(&idle, &demands);
        // The FIFO policy makes the assignments a prefix of the queue.
        let running: Vec<Pending> = self.queue.drain(..plan.assignments.len()).collect();
        let assigns: Vec<AssignFrame> = plan
            .assignments
            .iter()
            .zip(&running)
            .map(|(a, p)| AssignFrame {
                id: a.id,
                pool: p.spec.pool,
                strategy: p.spec.strategy.clone(),
                budget: p.spec.budget,
                seed: p.spec.seed,
                threads: p.spec.threads,
                ranks: a.ranks.clone(),
            })
            .collect();
        let frame = RoundFrame {
            round: self.round,
            flag: FLAG_SERVE,
            log: std::mem::take(&mut self.unshipped),
            assigns,
        };
        let bytes = encode_round(&frame);
        for r in 1..self.comm.size() {
            self.comm.try_send_bytes(r, &bytes)?;
        }
        // The hub is always inside assignment 0 (it holds the lowest idle
        // rank) and, as its lowest world rank, leads it.
        let mine = run_assignments(self.comm, &frame, &self.problems)?;
        let patience = result_patience();
        for (i, a) in frame.assigns.iter().enumerate() {
            let outcome = if a.ranks[0] == 0 {
                let (_, result) = mine
                    .clone()
                    .expect("the hub leads the assignment containing rank 0");
                decode_result(&result)
            } else {
                match self.comm.try_recv_bytes(a.ranks[0], Some(patience)) {
                    Ok(b) => decode_result(&b),
                    Err(ce) => Ok((
                        a.id,
                        Err(RemoteError::new(
                            ERR_COMM,
                            format!(
                                "no result from the sub-group leader (rank {}): {ce}",
                                a.ranks[0]
                            ),
                        )),
                    )),
                }
            };
            let payload = match outcome {
                Ok((id, payload)) if id == a.id => payload,
                Ok((id, _)) => Err(RemoteError::new(
                    ERR_COMM,
                    format!(
                        "result for request {id} arrived where {} was expected",
                        a.id
                    ),
                )),
                Err(e) => Err(RemoteError::new(
                    ERR_COMM,
                    format!("undecodable result frame: {e}"),
                )),
            };
            let client = running[i].client;
            match payload {
                Ok(p) => {
                    self.requests_ok += 1;
                    self.cumulative.merge(&p.comm);
                    self.clients[client].respond(&Response::Select(SelectionOutcome {
                        round: frame.round,
                        group: a.ranks.clone(),
                        selected: p.selected,
                        seconds: p.seconds,
                        comm: p.comm,
                    }));
                }
                Err(e) => {
                    self.requests_err += 1;
                    if e.code == ERR_COMM && self.degraded.is_none() {
                        self.degraded = Some(e.message.clone());
                    }
                    self.clients[client].respond(&Response::Error(e));
                }
            }
        }
        Ok(())
    }

    /// Final frame to the mesh plus client goodbyes. Send failures are
    /// ignored: on the degraded path some links are already dead, and the
    /// harness-level grace kill is the backstop for unreachable workers.
    fn wind_down(&mut self, flag: u64) -> ServeSummary {
        let reason = self.degraded.clone();
        if let Some(why) = &reason {
            let queued: Vec<(usize, u64)> = self.queue.iter().map(|p| (p.client, p.id)).collect();
            for (client, id) in queued {
                self.requests_err += 1;
                self.clients[client].respond(&Response::Error(RemoteError::new(
                    ERR_DEGRADED,
                    format!("request {id} dropped: the mesh degraded ({why})"),
                )));
            }
            self.queue.clear();
        }
        let bytes = encode_round(&RoundFrame {
            round: self.round,
            flag,
            log: Vec::new(),
            assigns: Vec::new(),
        });
        for r in 1..self.comm.size() {
            let _ = self.comm.try_send_bytes(r, &bytes);
        }
        let acks = std::mem::take(&mut self.shutdown_acks);
        for idx in acks {
            self.clients[idx].respond(&Response::Shutdown);
        }
        ServeSummary {
            rounds: self.round,
            requests_ok: self.requests_ok,
            requests_err: self.requests_err,
            degraded: reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_pool() -> SelectionProblem<f64> {
        SelectionProblem::new(
            firal_linalg::Matrix::from_vec(4, 2, (0..8).map(|i| i as f64).collect()),
            firal_linalg::Matrix::from_vec(4, 2, vec![0.25; 8]),
            firal_linalg::Matrix::from_vec(1, 2, vec![1.0; 2]),
            firal_linalg::Matrix::from_vec(1, 2, vec![0.5; 2]),
            3,
        )
    }

    fn sample_round() -> RoundFrame {
        let label = proto::PoolMutation::Label { indices: vec![1] };
        RoundFrame {
            round: 4,
            flag: FLAG_SERVE,
            log: vec![
                PoolOp {
                    handle: 2,
                    op: proto::OP_UPLOAD_POOL,
                    body: proto::encode_pool(&toy_pool()),
                },
                PoolOp {
                    handle: 2,
                    op: label.op(),
                    body: proto::encode_mutation(2, &label),
                },
                PoolOp {
                    handle: 9,
                    op: proto::OP_DELETE_POOL,
                    body: proto::encode_delete(9),
                },
            ],
            assigns: vec![
                AssignFrame {
                    id: 10,
                    pool: 2,
                    strategy: "entropy".into(),
                    budget: 5,
                    seed: 9,
                    threads: 0,
                    ranks: vec![0, 1],
                },
                AssignFrame {
                    id: 11,
                    pool: 3,
                    strategy: "random".into(),
                    budget: 2,
                    seed: 0,
                    threads: 1,
                    ranks: vec![2, 3],
                },
            ],
        }
    }

    #[test]
    fn round_frames_roundtrip() {
        let frame = sample_round();
        assert_eq!(decode_round(&encode_round(&frame)).unwrap(), frame);
        assert!(decode_round(&encode_round(&frame)[..10]).is_err());
    }

    #[test]
    fn corrupt_round_counts_are_structured_errors_not_allocations() {
        // A frame claiming 2^40 pool ops backed by no bytes must fail
        // before any loop or allocation runs. Same for the assignments.
        for lists_before in 0..2usize {
            let mut bytes = Vec::new();
            wire::write_u64(&mut bytes, 1).unwrap(); // round
            wire::write_u64(&mut bytes, FLAG_SERVE).unwrap();
            for _ in 0..lists_before {
                wire::write_u64(&mut bytes, 0).unwrap(); // an empty list
            }
            wire::write_u64(&mut bytes, 1u64 << 40).unwrap(); // corrupt count
            let err = decode_round(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("entries"), "{err}");
        }

        // A body length above the request cap is rejected even when the
        // count itself is plausible.
        let mut bytes = Vec::new();
        wire::write_u64(&mut bytes, 1).unwrap();
        wire::write_u64(&mut bytes, FLAG_SERVE).unwrap();
        wire::write_u64(&mut bytes, 1).unwrap(); // one pool op
        wire::write_u64(&mut bytes, 5).unwrap(); // handle
        wire::write_u64(&mut bytes, proto::OP_UPLOAD_POOL).unwrap();
        wire::write_u64(&mut bytes, (proto::MAX_REQUEST_BYTES as u64) + 1).unwrap();
        assert!(decode_round(&bytes).is_err());
    }

    #[test]
    fn replayed_pool_log_matches_the_hub_bitwise() {
        use proto::PoolMutation;
        use Request::{DeletePool, Mutate, UploadPool};

        firal_comm::socket_launch(1, |comm| {
            let config = ServeConfig::new("127.0.0.1:0");
            let mut hub = Hub::new(comm, &config);
            let blob = proto::encode_pool(&toy_pool());
            let add = PoolMutation::Add {
                xs: firal_linalg::Matrix::from_vec(2, 2, vec![10.0, 11.0, 12.0, 13.0]),
                hs: firal_linalg::Matrix::from_vec(2, 2, vec![0.125, 0.25, 0.375, 0.5]),
            };
            let label = PoolMutation::Label {
                indices: vec![3, 0],
            };
            let remove = PoolMutation::Remove { indices: vec![1] };
            let mutate = |pool: u64, mutation: &PoolMutation| Mutate {
                pool,
                mutation: mutation.clone(),
            };

            // Round 1 ships pools 1 and 2 with pool 1's first edits. Round
            // 2 deletes the shipped pool 2, uploads pool 3 and deletes it
            // before it ever ships, then uploads pool 4.
            let rounds = [
                vec![
                    (UploadPool(blob.clone()), Response::Pool { handle: 1 }),
                    (UploadPool(blob.clone()), Response::Pool { handle: 2 }),
                    (mutate(1, &add), ack(1, 6, 1)),
                    (mutate(2, &label), ack(2, 2, 3)),
                    (mutate(1, &label), ack(1, 4, 3)),
                ],
                vec![
                    (mutate(1, &remove), ack(1, 3, 3)),
                    (DeletePool { pool: 2 }, Response::Deleted { handle: 2 }),
                    (UploadPool(blob.clone()), Response::Pool { handle: 3 }),
                    (mutate(3, &label), ack(3, 2, 3)),
                    (DeletePool { pool: 3 }, Response::Deleted { handle: 3 }),
                    (UploadPool(blob.clone()), Response::Pool { handle: 4 }),
                    (mutate(4, &add), ack(4, 6, 1)),
                ],
            ];
            let mut shipped = Vec::new();
            for (round, requests) in rounds.into_iter().enumerate() {
                for (req, want) in requests {
                    assert_eq!(hub.log_pool_op(req), want);
                }
                // Ship through the real wire encoding, as run_round does.
                let frame = RoundFrame {
                    round: round as u64 + 1,
                    flag: FLAG_SERVE,
                    log: std::mem::take(&mut hub.unshipped),
                    assigns: Vec::new(),
                };
                shipped.push(decode_round(&encode_round(&frame)).unwrap().log);
            }
            assert!(
                shipped[1].iter().all(|e| e.handle != 3),
                "a pool deleted before it shipped must leave no entry: {:?}",
                shipped[1]
            );
            assert_eq!(hub.pools_evicted, 2);
            assert_eq!(hub.problems.keys().copied().collect::<Vec<_>>(), [1, 4]);

            // One worker replays round by round, another (a rank that
            // joined the replay late) the concatenated log: both end
            // bitwise equal to the hub.
            let mut per_round = BTreeMap::new();
            for log in &shipped {
                replay_log(log, &mut per_round).unwrap();
            }
            let mut all_at_once = BTreeMap::new();
            replay_log(&shipped.concat(), &mut all_at_once).unwrap();
            for worker in [&per_round, &all_at_once] {
                assert_eq!(
                    worker.keys().collect::<Vec<_>>(),
                    hub.problems.keys().collect::<Vec<_>>()
                );
                for (handle, problem) in &hub.problems {
                    assert_eq!(
                        proto::encode_pool(&worker[handle]),
                        proto::encode_pool(problem),
                        "pool {handle} diverged from the hub"
                    );
                }
            }

            // A rejected request is answered, not logged.
            let before = hub.unshipped.len();
            assert!(matches!(
                hub.log_pool_op(mutate(1, &PoolMutation::Remove { indices: vec![99] })),
                Response::Error(RemoteError {
                    code: ERR_PROTOCOL,
                    ..
                })
            ));
            assert!(matches!(
                hub.log_pool_op(DeletePool { pool: 2 }),
                Response::Error(RemoteError {
                    code: ERR_UNKNOWN_POOL,
                    ..
                })
            ));
            assert_eq!(hub.unshipped.len(), before);

            // A mutation naming a pool that is not installed is a hard
            // error on a worker (the hub accepted it, so the mesh
            // desynced), as is an entry whose body names another pool.
            let stray = PoolOp {
                handle: 99,
                op: label.op(),
                body: proto::encode_mutation(99, &label),
            };
            assert!(replay_log(&[stray], &mut per_round).is_err());
            let mismatched = PoolOp {
                handle: 1,
                op: label.op(),
                body: proto::encode_mutation(4, &label),
            };
            assert!(replay_log(&[mismatched], &mut per_round).is_err());
        });
    }

    fn ack(handle: u64, pool_size: usize, labeled: usize) -> Response {
        Response::Mutated(MutateAck {
            handle,
            pool_size,
            labeled,
        })
    }

    #[test]
    fn result_frames_roundtrip_both_arms() {
        let ok = Ok(OkPayload {
            selected: vec![5, 1, 9],
            seconds: 0.125,
            comm: CommStats {
                allreduce_calls: 4,
                allreduce_bytes: 320,
                bcast_calls: 1,
                bcast_bytes: 8,
                allgather_calls: 2,
                allgather_bytes: 64,
                time: Duration::from_nanos(777),
            },
        });
        let (id, back) = decode_result(&encode_result(7, &ok)).unwrap();
        assert_eq!((id, back), (7, ok));

        let err = Err(RemoteError::new(ERR_COMM, "rank 3 died"));
        let (id, back) = decode_result(&encode_result(8, &err)).unwrap();
        assert_eq!((id, back), (8, err));
    }

    #[test]
    fn oversized_error_messages_are_clipped_not_fatal() {
        let err = Err(RemoteError::new(ERR_COMM, "x".repeat(10_000)));
        let (_, back) = decode_result(&encode_result(1, &err)).unwrap();
        match back {
            Err(e) => assert_eq!(e.message.len(), wire::MAX_WIRE_STR),
            Ok(_) => panic!("expected the error arm"),
        }
    }

    #[test]
    fn spec_validation_catches_the_whole_taxonomy_before_the_mesh() {
        let mut problems = BTreeMap::new();
        problems.insert(
            1u64,
            SelectionProblem::new(
                firal_linalg::Matrix::<f64>::zeros(6, 2),
                firal_linalg::Matrix::zeros(6, 2),
                firal_linalg::Matrix::zeros(2, 2),
                firal_linalg::Matrix::zeros(2, 2),
                3,
            ),
        );
        let base = SelectSpec {
            pool: 1,
            strategy: "entropy".into(),
            budget: 3,
            seed: 0,
            threads: 0,
            max_ranks: 0,
        };
        assert!(validate_spec(&base, &problems).is_ok());

        let mut bad = base.clone();
        bad.strategy = "no-such-thing".into();
        assert_eq!(
            validate_spec(&bad, &problems).unwrap_err().code,
            proto::ERR_UNKNOWN_STRATEGY
        );

        let mut bad = base.clone();
        bad.pool = 99;
        assert_eq!(
            validate_spec(&bad, &problems).unwrap_err().code,
            ERR_UNKNOWN_POOL
        );

        let mut bad = base.clone();
        bad.budget = 0;
        assert_eq!(
            validate_spec(&bad, &problems).unwrap_err().code,
            proto::ERR_ZERO_BUDGET
        );

        let mut bad = base.clone();
        bad.budget = 100;
        assert_eq!(
            validate_spec(&bad, &problems).unwrap_err().code,
            proto::ERR_BUDGET_TOO_LARGE
        );

        // A thread count beyond the host's CPUs would have every worker
        // spawn that many kernel threads; one per CPU is still accepted.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut ok = base.clone();
        ok.threads = cpus;
        assert!(validate_spec(&ok, &problems).is_ok());
        for threads in [cpus + 1, 1 << 40] {
            let mut bad = base.clone();
            bad.threads = threads;
            assert_eq!(
                validate_spec(&bad, &problems).unwrap_err().code,
                ERR_PROTOCOL
            );
        }
    }

    /// Seeded decode fuzz over every frame the serve layer parses: the
    /// round frame, the result frame, each `decode_request` op,
    /// `read_response` and `try_parse_frame`. Every truncation prefix,
    /// seeded byte flips and an inflated count at every offset must come
    /// back `Ok` or `Err` — never a panic, and never an allocation larger
    /// than twice the input plus a fixed staging slack.
    mod decode_fuzz {
        use super::*;
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        use proto::PoolMutation;

        thread_local! {
            static LARGEST: Cell<usize> = const { Cell::new(0) };
        }

        fn note(size: usize) {
            let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
        }

        /// Records the largest single block this thread asks for.
        struct Tracking;

        // SAFETY: every method forwards to `System` with the arguments it
        // was given; the record is a plain thread-local `Cell` that
        // allocates nothing.
        unsafe impl GlobalAlloc for Tracking {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                // SAFETY: the caller's `GlobalAlloc::alloc` contract, forwarded.
                unsafe { System.alloc(layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                // SAFETY: the caller's `GlobalAlloc::alloc_zeroed` contract, forwarded.
                unsafe { System.alloc_zeroed(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: the caller's `GlobalAlloc::dealloc` contract, forwarded.
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                // SAFETY: the caller's `GlobalAlloc::realloc` contract, forwarded.
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static ALLOCATOR: Tracking = Tracking;

        /// Fixed headroom for error strings, a `read_frame` staging buffer
        /// and a string decoder's `MAX_WIRE_STR` cap.
        const SLACK: usize = 8 << 10;

        /// Seeded byte-flip trials per base input.
        const FLIPS: usize = 2000;

        /// Run `decode` on `input`, failing if any single allocation it
        /// made exceeded the bound.
        fn bounded<T>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
            LARGEST.with(|m| m.set(0));
            let out = decode(input);
            let largest = LARGEST.with(|m| m.get());
            assert!(
                largest <= 2 * input.len() + SLACK,
                "{what}: a {}-byte input allocated a {largest}-byte block",
                input.len()
            );
            out
        }

        /// Every corruption of `base` the fuzz feeds a decoder: each
        /// truncation prefix, `FLIPS` seeded 1–3 byte flips (random short
        /// bodies when `base` is empty), and an inflated count written
        /// over every 8-byte window.
        fn corruptions(base: &[u8], seed: u64) -> Vec<Vec<u8>> {
            let mut state = seed.max(1);
            let mut next = move || {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as usize
            };
            let mut out: Vec<Vec<u8>> = (0..base.len()).map(|cut| base[..cut].to_vec()).collect();
            for _ in 0..FLIPS {
                let mut b = base.to_vec();
                if b.is_empty() {
                    b = (0..1 + next() % 16).map(|_| next() as u8).collect();
                } else {
                    for _ in 0..1 + next() % 3 {
                        let at = next() % b.len();
                        b[at] ^= 1 + (next() % 255) as u8;
                    }
                }
                out.push(b);
            }
            for at in 0..base.len().saturating_sub(7) {
                for claim in [u64::MAX, 1 << 40, 1 << 20, 255] {
                    let mut b = base.to_vec();
                    b[at..at + 8].copy_from_slice(&claim.to_le_bytes());
                    out.push(b);
                }
            }
            out
        }

        fn requests() -> Vec<Request> {
            vec![
                Request::UploadPool(proto::encode_pool(&toy_pool())),
                Request::Select(SelectSpec {
                    pool: 7,
                    strategy: "entropy".into(),
                    budget: 3,
                    seed: 42,
                    threads: 0,
                    max_ranks: 2,
                }),
                Request::Stats,
                Request::Shutdown,
                Request::Mutate {
                    pool: 7,
                    mutation: PoolMutation::Add {
                        xs: firal_linalg::Matrix::from_vec(1, 2, vec![9.0, 8.0]),
                        hs: firal_linalg::Matrix::from_vec(1, 2, vec![0.5, 0.25]),
                    },
                },
                Request::Mutate {
                    pool: 7,
                    mutation: PoolMutation::Remove {
                        indices: vec![2, 0],
                    },
                },
                Request::Mutate {
                    pool: 7,
                    mutation: PoolMutation::Label { indices: vec![1] },
                },
                Request::DeletePool { pool: 7 },
            ]
        }

        #[test]
        fn round_frames_decode_or_fail_cleanly_and_reencode_exactly() {
            let base = encode_round(&sample_round());
            for (i, bytes) in corruptions(&base, 0x5EED_0001).iter().enumerate() {
                if let Ok(frame) = bounded("round frame", bytes, decode_round) {
                    assert_eq!(
                        &encode_round(&frame),
                        bytes,
                        "case {i} re-encodes differently"
                    );
                }
            }
        }

        #[test]
        fn result_frames_decode_or_fail_cleanly() {
            let ok = Ok(OkPayload {
                selected: vec![5, 1, 9],
                seconds: 0.125,
                comm: CommStats {
                    allreduce_calls: 4,
                    allreduce_bytes: 320,
                    time: Duration::from_nanos(777),
                    ..CommStats::default()
                },
            });
            let err = Err(RemoteError::new(ERR_COMM, "rank 3 died"));
            for (seed, payload) in [(0x5EED_0002, ok), (0x5EED_0003, err)] {
                for bytes in corruptions(&encode_result(7, &payload), seed) {
                    let _ = bounded("result frame", &bytes, decode_result);
                }
            }
        }

        #[test]
        fn request_bodies_decode_or_fail_cleanly_for_every_op() {
            let mut ops = Vec::new();
            for (i, req) in requests().iter().enumerate() {
                let mut framed = Vec::new();
                proto::write_request(&mut framed, req).unwrap();
                let (op, body, _) = proto::try_parse_frame(&framed).unwrap().unwrap();
                ops.push(op);
                for bytes in corruptions(&body, 0x5EED_0100 + i as u64) {
                    let _ = bounded("request body", &bytes, |b| proto::decode_request(op, b));
                }
            }
            ops.sort_unstable();
            ops.dedup();
            assert_eq!(
                ops,
                (proto::OP_UPLOAD_POOL..=proto::OP_DELETE_POOL).collect::<Vec<_>>()
            );
        }

        #[test]
        fn responses_decode_or_fail_cleanly() {
            let cases = [
                Response::Pool { handle: 5 },
                Response::Select(SelectionOutcome {
                    round: 9,
                    group: vec![1, 3],
                    selected: vec![10, 4, 7],
                    seconds: 0.25,
                    comm: CommStats::default(),
                }),
                Response::Stats(ServerStats {
                    rounds: 12,
                    requests_ok: 30,
                    requests_err: 2,
                    pools_live: 3,
                    pools_evicted: 5,
                    comm: CommStats::default(),
                }),
                Response::Shutdown,
                Response::Mutated(MutateAck {
                    handle: 4,
                    pool_size: 17,
                    labeled: 6,
                }),
                Response::Deleted { handle: 4 },
                Response::Error(RemoteError::new(ERR_UNKNOWN_POOL, "no such pool")),
            ];
            for (i, resp) in cases.iter().enumerate() {
                let mut base = Vec::new();
                proto::write_response(&mut base, resp).unwrap();
                for bytes in corruptions(&base, 0x5EED_0200 + i as u64) {
                    let _ = bounded("response", &bytes, |b| proto::read_response(&mut &b[..]));
                }
            }
        }

        #[test]
        fn request_streams_parse_or_fail_cleanly() {
            let mut base = Vec::new();
            for req in &requests() {
                proto::write_request(&mut base, req).unwrap();
            }
            for bytes in corruptions(&base, 0x5EED_0300) {
                bounded("request stream", &bytes, |mut rest| {
                    while let Ok(Some((op, body, used))) = proto::try_parse_frame(rest) {
                        assert!(used <= rest.len());
                        let _ = proto::decode_request(op, &body);
                        rest = &rest[used..];
                    }
                });
            }
        }
    }
}
