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
//! over the root communicator's point-to-point lane, and everyone — hub
//! included — runs the same participant code: install newly shipped pools,
//! `split` the mesh by assignment color, and run the assigned request on
//! the sub-communicator via [`firal_core::dispatch_select`]. Per-link FIFO
//! order makes the interleaving safe: the round frame precedes the split's
//! collective traffic on every hub→worker link, and a sub-group's result
//! frame follows all of its collective traffic on the leader→hub link.
//!
//! Each sub-group sums its members' per-request bills with one allgather
//! on the *sub*-communicator (so the bill is exactly the request's own
//! traffic, disjoint from every concurrent request), and the group leader
//! sends the result to the hub, which answers the owning client.
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
    /// How long the hub waits for a sub-group leader's result frame before
    /// declaring that request (and the mesh) failed. `None` derives a
    /// default from `FIRAL_COMM_TIMEOUT` when set.
    pub result_patience: Option<Duration>,
    /// Evict a pool nobody has touched (upload, select, mutate) for this
    /// long: its blob is dropped on the hub immediately and on every
    /// worker with the next round frame, and later requests naming the
    /// handle get [`ERR_UNKNOWN_POOL`]. `None` (the default) keeps pools
    /// until an explicit `OP_DELETE_POOL` or shutdown. Pools with queued
    /// requests are never TTL-evicted.
    pub pool_ttl: Option<Duration>,
}

impl ServeConfig {
    /// A config serving on `addr` with defaults: rounds run as soon as one
    /// request is queued.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            min_batch: 1,
            batch_wait: Duration::from_millis(50),
            result_patience: None,
            pool_ttl: None,
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

    /// Replace [`ServeConfig::result_patience`].
    pub fn with_result_patience(mut self, patience: Duration) -> Self {
        self.result_patience = Some(patience);
        self
    }

    /// Replace [`ServeConfig::pool_ttl`].
    pub fn with_pool_ttl(mut self, ttl: Duration) -> Self {
        self.pool_ttl = Some(ttl);
        self
    }

    /// Effective result patience: the explicit setting, else 8× the
    /// `FIRAL_COMM_TIMEOUT` deadline (floored at 2 s) so a slow-but-alive
    /// sub-group isn't mistaken for a dead one, else 30 s.
    pub fn effective_result_patience(&self) -> Duration {
        self.result_patience
            .unwrap_or_else(|| match comm_timeout() {
                Some(d) => (d * 8).max(Duration::from_secs(2)),
                None => Duration::from_secs(30),
            })
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

#[derive(Debug, Clone, PartialEq, Eq)]
struct RoundFrame {
    round: u64,
    flag: u64,
    /// Pools not yet shipped to the mesh: `(handle, serialized blob)`.
    pools: Vec<(u64, Vec<u8>)>,
    /// Pool mutations not yet shipped, in client-arrival order:
    /// `(handle, wire op, encoded mutation body)`. Workers replay these
    /// through the same [`proto::apply_mutation`] the hub already ran, so
    /// replicated pool state stays bitwise-identical for O(Δpool) wire.
    muts: Vec<(u64, u64, Vec<u8>)>,
    /// Pool handles deleted or TTL-evicted since the last round; workers
    /// drop the blobs after applying `pools` and `muts`.
    evict: Vec<u64>,
    assigns: Vec<AssignFrame>,
}

/// Most entries a round frame may carry per list. Far above anything the
/// scheduler can produce (assignments are bounded by the mesh size, pools
/// and mutations by client traffic between two rounds), but small enough
/// that a corrupt count fails loudly.
const MAX_ROUND_ITEMS: usize = 1 << 16;

fn encode_round(frame: &RoundFrame) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_u64(&mut out, frame.round).unwrap();
    wire::write_u64(&mut out, frame.flag).unwrap();
    wire::write_u64(&mut out, frame.pools.len() as u64).unwrap();
    for (handle, blob) in &frame.pools {
        wire::write_u64(&mut out, *handle).unwrap();
        wire::write_bytes(&mut out, blob).unwrap();
    }
    wire::write_u64(&mut out, frame.muts.len() as u64).unwrap();
    for (handle, op, body) in &frame.muts {
        wire::write_u64(&mut out, *handle).unwrap();
        wire::write_u64(&mut out, *op).unwrap();
        wire::write_bytes(&mut out, body).unwrap();
    }
    wire::write_u64(&mut out, frame.evict.len() as u64).unwrap();
    for handle in &frame.evict {
        wire::write_u64(&mut out, *handle).unwrap();
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
    // Every pool entry is at least a handle + a blob length (16 bytes);
    // a mutation adds an op word (24); an assignment is five u64s plus
    // two embedded length prefixes (56).
    let raw = wire::read_u64(&mut r)?;
    let n_pools = read_round_count(r, raw, "pool", 16)?;
    let mut pools = Vec::with_capacity(n_pools);
    for _ in 0..n_pools {
        let handle = wire::read_u64(&mut r)?;
        let blob = wire::read_bytes(&mut r)?;
        if blob.len() > proto::MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "pool {handle} blob of {} bytes exceeds the request cap",
                    blob.len()
                ),
            ));
        }
        pools.push((handle, blob));
    }
    let raw = wire::read_u64(&mut r)?;
    let n_muts = read_round_count(r, raw, "mutation", 24)?;
    let mut muts = Vec::with_capacity(n_muts);
    for _ in 0..n_muts {
        let handle = wire::read_u64(&mut r)?;
        let op = wire::read_u64(&mut r)?;
        let body = wire::read_bytes(&mut r)?;
        if body.len() > proto::MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "mutation body of {} bytes for pool {handle} exceeds the request cap",
                    body.len()
                ),
            ));
        }
        muts.push((handle, op, body));
    }
    let raw = wire::read_u64(&mut r)?;
    let n_evict = read_round_count(r, raw, "eviction", 8)?;
    let mut evict = Vec::with_capacity(n_evict);
    for _ in 0..n_evict {
        evict.push(wire::read_u64(&mut r)?);
    }
    let raw = wire::read_u64(&mut r)?;
    let n_assign = read_round_count(r, raw, "assignment", 56)?;
    let mut assigns = Vec::with_capacity(n_assign);
    for _ in 0..n_assign {
        assigns.push(AssignFrame {
            id: wire::read_u64(&mut r)?,
            pool: wire::read_u64(&mut r)?,
            strategy: wire::read_str(&mut r)?,
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
        pools,
        muts,
        evict,
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
            message: wire::read_str(&mut r)?,
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

/// Bring this rank's pool map up to the hub's state: install newly
/// shipped pools, replay queued mutations in client-arrival order through
/// the same [`proto::apply_mutation`] the hub already ran, then drop
/// evicted handles. Because every rank starts from bitwise-identical
/// blobs and applies the identical op sequence, replicated pool state is
/// bitwise-identical across the mesh after every frame.
fn apply_frame(
    frame: &RoundFrame,
    pools: &mut BTreeMap<u64, SelectionProblem<f64>>,
) -> io::Result<()> {
    for (handle, blob) in &frame.pools {
        let problem = proto::decode_pool(blob).map_err(|why| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("pool {handle} failed to decode on the mesh: {why}"),
            )
        })?;
        pools.insert(*handle, problem);
    }
    for (handle, op, body) in &frame.muts {
        let bad = |why: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("mutation for pool {handle} failed on the mesh: {why}"),
            )
        };
        let (pool, mutation) = match proto::decode_request(*op, body) {
            Ok(Request::Mutate { pool, mutation }) => (pool, mutation),
            Ok(other) => return Err(bad(format!("decoded to a non-mutation request {other:?}"))),
            Err(e) => return Err(bad(e.to_string())),
        };
        if pool != *handle {
            return Err(bad(format!("body names pool {pool}")));
        }
        let problem = pools
            .get_mut(handle)
            .ok_or_else(|| bad("pool is not installed here".into()))?;
        proto::apply_mutation(problem, &mutation).map_err(bad)?;
    }
    for handle in &frame.evict {
        pools.remove(handle);
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
        apply_frame(&frame, &mut pools)?;
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
    Ok(())
}

struct Hub<'a> {
    comm: &'a SocketComm,
    config: &'a ServeConfig,
    clients: Vec<ClientConn>,
    problems: BTreeMap<u64, SelectionProblem<f64>>,
    /// Uploaded blobs not yet shipped to the mesh.
    unshipped: Vec<(u64, Vec<u8>)>,
    /// Applied-but-unshipped mutations: `(handle, op, encoded body)`.
    unshipped_muts: Vec<(u64, u64, Vec<u8>)>,
    /// Deleted/TTL-evicted handles the mesh has not been told about yet.
    unshipped_evict: Vec<u64>,
    /// When each live pool was last uploaded, selected from, or mutated —
    /// the clock [`ServeConfig::pool_ttl`] eviction runs against.
    last_used: BTreeMap<u64, Instant>,
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
    let mut hub = Hub {
        comm,
        config,
        clients: Vec::new(),
        problems: BTreeMap::new(),
        unshipped: Vec::new(),
        unshipped_muts: Vec::new(),
        unshipped_evict: Vec::new(),
        last_used: BTreeMap::new(),
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
    };
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
            hub.sweep_ttl();
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

impl Hub<'_> {
    fn pump_and_handle(&mut self) {
        let mut events = Vec::new();
        for (idx, c) in self.clients.iter_mut().enumerate() {
            if c.alive {
                pump_client(idx, c, &mut events);
            }
        }
        for event in events {
            match event {
                Event::Req(idx, Request::UploadPool(blob)) => {
                    // decode_request already validated the blob; decoding
                    // again here materializes the hub's own copy.
                    let problem =
                        proto::decode_pool(&blob).expect("decode_request validated this pool blob");
                    let handle = self.next_pool;
                    self.next_pool += 1;
                    self.problems.insert(handle, problem);
                    self.unshipped.push((handle, blob));
                    self.last_used.insert(handle, Instant::now());
                    self.clients[idx].respond(&Response::Pool { handle });
                }
                Event::Req(idx, Request::Select(spec)) => {
                    match validate_spec(&spec, &self.problems) {
                        Ok(()) => {
                            let id = self.next_id;
                            self.next_id += 1;
                            self.last_used.insert(spec.pool, Instant::now());
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
                Event::Req(idx, Request::Mutate { pool, mutation }) => {
                    let outcome = match self.problems.get_mut(&pool) {
                        None => Err(RemoteError::new(
                            ERR_UNKNOWN_POOL,
                            format!("pool handle {pool} was never uploaded (or was deleted)"),
                        )),
                        Some(problem) => match proto::apply_mutation(problem, &mutation) {
                            Ok(()) => Ok(MutateAck {
                                handle: pool,
                                pool_size: problem.pool_size(),
                                labeled: problem.labeled_x.rows(),
                            }),
                            Err(why) => Err(RemoteError::new(
                                ERR_PROTOCOL,
                                format!("mutation rejected: {why}"),
                            )),
                        },
                    };
                    match outcome {
                        Ok(ack) => {
                            // The hub's copy is already mutated; queue the
                            // encoded delta so the next round frame brings
                            // every worker to the same state.
                            self.last_used.insert(pool, Instant::now());
                            self.unshipped_muts.push((
                                pool,
                                mutation.op(),
                                proto::encode_mutation(pool, &mutation),
                            ));
                            self.clients[idx].respond(&Response::Mutated(ack));
                        }
                        Err(e) => {
                            self.requests_err += 1;
                            self.clients[idx].respond(&Response::Error(e));
                        }
                    }
                }
                Event::Req(idx, Request::DeletePool { pool }) => {
                    if self.evict_pool(pool) {
                        self.clients[idx].respond(&Response::Deleted { handle: pool });
                    } else {
                        self.requests_err += 1;
                        self.clients[idx].respond(&Response::Error(RemoteError::new(
                            ERR_UNKNOWN_POOL,
                            format!(
                                "pool handle {pool} was never uploaded (or was already deleted)"
                            ),
                        )));
                    }
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

    /// Drop a pool everywhere: the hub's copy and clock entry go now, the
    /// workers' copies with the next round frame. A pool the mesh never
    /// saw (still unshipped) is simply forgotten — no eviction rides the
    /// wire, which is what keeps a rapid upload/delete churn at zero blob
    /// growth. Pending mutations of the pool are dropped alongside it.
    /// Returns `false` if the handle is unknown.
    fn evict_pool(&mut self, handle: u64) -> bool {
        if self.problems.remove(&handle).is_none() {
            return false;
        }
        self.last_used.remove(&handle);
        self.pools_evicted += 1;
        let never_shipped = self.unshipped.iter().any(|(h, _)| *h == handle);
        self.unshipped.retain(|(h, _)| *h != handle);
        self.unshipped_muts.retain(|(h, _, _)| *h != handle);
        if !never_shipped {
            self.unshipped_evict.push(handle);
        }
        true
    }

    /// Evict every pool whose [`ServeConfig::pool_ttl`] clock has run out,
    /// skipping pools a queued request still references.
    fn sweep_ttl(&mut self) {
        let Some(ttl) = self.config.pool_ttl else {
            return;
        };
        let expired: Vec<u64> = self
            .last_used
            .iter()
            .filter(|(_, touched)| touched.elapsed() >= ttl)
            .map(|(&h, _)| h)
            .collect();
        for handle in expired {
            if self.queue.iter().any(|p| p.spec.pool == handle) {
                continue;
            }
            self.evict_pool(handle);
        }
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
            pools: std::mem::take(&mut self.unshipped),
            muts: std::mem::take(&mut self.unshipped_muts),
            evict: std::mem::take(&mut self.unshipped_evict),
            assigns,
        };
        let bytes = encode_round(&frame);
        for r in 1..self.comm.size() {
            self.comm.try_send_bytes(r, &bytes)?;
        }
        // The hub is always inside assignment 0 (it holds the lowest idle
        // rank) and, as its lowest world rank, leads it.
        let mine = run_assignments(self.comm, &frame, &self.problems)?;
        let patience = self.config.effective_result_patience();
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
            pools: Vec::new(),
            muts: Vec::new(),
            evict: Vec::new(),
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

    #[test]
    fn round_frames_roundtrip() {
        let frame = RoundFrame {
            round: 4,
            flag: FLAG_SERVE,
            pools: vec![(2, vec![1, 2, 3]), (3, Vec::new())],
            muts: vec![(2, proto::OP_REMOVE_POINTS, vec![7, 7, 7])],
            evict: vec![9, 12],
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
        };
        assert_eq!(decode_round(&encode_round(&frame)).unwrap(), frame);
        assert!(decode_round(&encode_round(&frame)[..10]).is_err());
    }

    #[test]
    fn corrupt_round_counts_are_structured_errors_not_allocations() {
        // A frame claiming 2^40 pools backed by no bytes must fail before
        // any loop or allocation runs. Same for each later list.
        for lists_before in 0..4usize {
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

        // A pool blob length above the request cap is rejected even when
        // the count itself is plausible.
        let mut bytes = Vec::new();
        wire::write_u64(&mut bytes, 1).unwrap();
        wire::write_u64(&mut bytes, FLAG_SERVE).unwrap();
        wire::write_u64(&mut bytes, 1).unwrap(); // one pool
        wire::write_u64(&mut bytes, 5).unwrap(); // handle
        wire::write_u64(&mut bytes, (proto::MAX_REQUEST_BYTES as u64) + 1).unwrap();
        assert!(decode_round(&bytes).is_err());
    }

    #[test]
    fn apply_frame_replays_mutations_and_evictions_in_order() {
        let pool = SelectionProblem::new(
            firal_linalg::Matrix::from_vec(3, 2, (0..6).map(|i| i as f64).collect()),
            firal_linalg::Matrix::from_vec(3, 2, vec![0.25; 6]),
            firal_linalg::Matrix::from_vec(1, 2, vec![1.0; 2]),
            firal_linalg::Matrix::from_vec(1, 2, vec![0.5; 2]),
            3,
        );
        let mutation = proto::PoolMutation::Label { indices: vec![0] };
        let frame = RoundFrame {
            round: 1,
            flag: FLAG_SERVE,
            pools: vec![
                (4, proto::encode_pool(&pool)),
                (5, proto::encode_pool(&pool)),
            ],
            muts: vec![(4, mutation.op(), proto::encode_mutation(4, &mutation))],
            evict: vec![5],
            assigns: Vec::new(),
        };
        let mut pools = BTreeMap::new();
        apply_frame(&frame, &mut pools).unwrap();
        assert!(!pools.contains_key(&5), "evicted pool must be dropped");
        let p = &pools[&4];
        assert_eq!(p.pool_size(), 2);
        assert_eq!(p.labeled_x.rows(), 2);
        assert_eq!(p.labeled_x.row(1), &[0.0, 1.0]);

        // A mutation naming a pool that is not installed is a hard error
        // (the hub validated it, so this means the mesh desynced).
        let bad = RoundFrame {
            round: 2,
            flag: FLAG_SERVE,
            pools: Vec::new(),
            muts: vec![(99, mutation.op(), proto::encode_mutation(99, &mutation))],
            evict: Vec::new(),
            assigns: Vec::new(),
        };
        assert!(apply_frame(&bad, &mut pools).is_err());
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

        let mut bad = base;
        bad.budget = 100;
        assert_eq!(
            validate_spec(&bad, &problems).unwrap_err().code,
            proto::ERR_BUDGET_TOO_LARGE
        );
    }
}
