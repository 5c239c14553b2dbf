//! The client ↔ server wire protocol.
//!
//! Requests and responses share one frame shape, reusing the framing
//! conventions of `firal_comm::wire` (little-endian `u64`s, length-prefixed
//! payloads, loud bounds):
//!
//! ```text
//! [CLIENT_MAGIC: u64][op/tag: u64][body length: u64][body bytes]
//! ```
//!
//! The magic word distinguishes a selection client from a stray rank
//! dialing the wrong port; a frame without it is connection-fatal
//! ([`FrameError::BadMagic`]), as is an absurd body length
//! ([`FrameError::Oversized`]) — both mean the stream is not speaking this
//! protocol and nothing downstream of the corruption can be trusted. An
//! *undecodable body* or an *unknown op*, by contrast, arrives in a
//! well-formed frame: the server consumes the frame, answers with a
//! structured [`RemoteError`], and keeps the connection open.
//!
//! Parsing is split in two pure layers so robustness tests can drive them
//! byte-by-byte without a socket: [`try_parse_frame`] (incremental, returns
//! `Ok(None)` until a whole frame is buffered) and [`decode_request`]
//! (frame body → [`Request`], or a [`RemoteError`] taxonomy code).

use std::io::{self, Read, Write};
use std::time::Duration;

use firal_comm::{wire, CommStats};
use firal_core::{SelectError, SelectionProblem};
use firal_linalg::Matrix;

/// Magic word opening every client frame (requests *and* responses).
/// Distinct from `wire::MAGIC` so a mesh rank and a client dialing each
/// other's ports fail immediately instead of desynchronizing.
pub const CLIENT_MAGIC: u64 = 0xF1AA_5E4E_C11E_0001;

/// Hard cap on a frame body. Pools ride inside request bodies, so this is
/// generous, but still small enough that a desynced length field fails
/// loudly instead of allocating the machine away.
pub const MAX_REQUEST_BYTES: usize = 1 << 26;

/// Frame header size: magic + op + body length.
pub const FRAME_HEADER: usize = 24;

/// Upload a pool (a serialized [`SelectionProblem`]); answered by
/// [`Response::Pool`] with the server-assigned handle.
pub const OP_UPLOAD_POOL: u64 = 1;
/// Run one selection ([`SelectSpec`]); answered by [`Response::Select`].
pub const OP_SELECT: u64 = 2;
/// Query cumulative server accounting; answered by [`Response::Stats`].
pub const OP_STATS: u64 = 3;
/// Drain in-flight work and stop the server; answered by
/// [`Response::Shutdown`] just before the mesh winds down.
pub const OP_SHUTDOWN: u64 = 4;
/// Append rows to an uploaded pool ([`PoolMutation::Add`]); answered by
/// [`Response::Mutated`]. Mutations ship only the delta to the mesh, so a
/// server round after one costs O(Δpool) wire, not O(pool).
pub const OP_ADD_POINTS: u64 = 5;
/// Drop rows from an uploaded pool by index ([`PoolMutation::Remove`]);
/// answered by [`Response::Mutated`].
pub const OP_REMOVE_POINTS: u64 = 6;
/// Move pool rows into the labeled set ([`PoolMutation::Label`]); answered
/// by [`Response::Mutated`].
pub const OP_LABEL: u64 = 7;
/// Delete an uploaded pool outright; answered by [`Response::Deleted`].
/// Subsequent requests naming the handle get [`ERR_UNKNOWN_POOL`].
pub const OP_DELETE_POOL: u64 = 8;

/// Response tag: pool accepted.
pub const RESP_POOL: u64 = 101;
/// Response tag: selection finished.
pub const RESP_SELECT: u64 = 102;
/// Response tag: server accounting snapshot.
pub const RESP_STATS: u64 = 103;
/// Response tag: shutdown acknowledged.
pub const RESP_SHUTDOWN: u64 = 104;
/// Response tag: pool mutation applied ([`MutateAck`]).
pub const RESP_MUTATE: u64 = 105;
/// Response tag: pool deleted.
pub const RESP_DELETE: u64 = 106;
/// Response tag: structured per-request error ([`RemoteError`]).
pub const RESP_ERROR: u64 = 199;

/// Error code: malformed request body or unknown op (the frame itself was
/// well-formed, so the connection survives).
pub const ERR_PROTOCOL: u64 = 1;
/// Error code: strategy name not in the registry
/// ([`SelectError::UnknownStrategy`]).
pub const ERR_UNKNOWN_STRATEGY: u64 = 2;
/// Error code: pool handle was never uploaded.
pub const ERR_UNKNOWN_POOL: u64 = 3;
/// Error code: [`SelectError::ZeroBudget`].
pub const ERR_ZERO_BUDGET: u64 = 4;
/// Error code: [`SelectError::BudgetTooLarge`].
pub const ERR_BUDGET_TOO_LARGE: u64 = 5;
/// Error code: [`SelectError::EmptyPool`].
pub const ERR_EMPTY_POOL: u64 = 6;
/// Error code: the request's sub-group died mid-selection
/// ([`SelectError::Comm`]); the error message carries the `CommError`
/// diagnosis (rank/op/seq).
pub const ERR_COMM: u64 = 7;
/// Error code: the request was queued (or mid-flight) when the mesh
/// degraded; the server is winding down and cannot run it.
pub const ERR_DEGRADED: u64 = 8;

/// A connection-fatal framing failure: the stream is not speaking this
/// protocol, so the server drops the client (and a client drops the
/// server) rather than guess at resynchronization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first word was not [`CLIENT_MAGIC`].
    BadMagic(u64),
    /// The body length exceeds [`MAX_REQUEST_BYTES`].
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(got) => write!(
                f,
                "bad frame magic {got:#018x} (expected {CLIENT_MAGIC:#018x}) — not a firal-serve client stream"
            ),
            FrameError::Oversized(len) => write!(
                f,
                "frame body of {len} bytes exceeds the {MAX_REQUEST_BYTES}-byte cap (stream desync?)"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// A structured per-request error: one of the `ERR_*` taxonomy codes plus
/// a human-readable diagnosis. This is what rides in a [`RESP_ERROR`]
/// frame; the connection that received it is still healthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// Taxonomy code (`ERR_*`).
    pub code: u64,
    /// Diagnosis, bounded by `wire::MAX_WIRE_STR` on the wire.
    pub message: String,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error (code {}): {}", self.code, self.message)
    }
}

impl std::error::Error for RemoteError {}

impl RemoteError {
    /// Shorthand constructor.
    pub fn new(code: u64, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// Map a strategy-layer [`SelectError`] onto the wire taxonomy,
    /// preserving the diagnosis text (including the `CommError`
    /// rank/op/seq context for [`SelectError::Comm`]).
    pub fn from_select_error(e: &SelectError) -> Self {
        let code = match e {
            SelectError::UnknownStrategy { .. } => ERR_UNKNOWN_STRATEGY,
            SelectError::ZeroBudget => ERR_ZERO_BUDGET,
            SelectError::BudgetTooLarge { .. } => ERR_BUDGET_TOO_LARGE,
            SelectError::EmptyPool => ERR_EMPTY_POOL,
            SelectError::Comm(_) => ERR_COMM,
        };
        Self::new(code, e.to_string())
    }
}

/// One selection order: which pool, which strategy, how much, and how many
/// ranks the scheduler may spend on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectSpec {
    /// Handle returned by a prior pool upload.
    pub pool: u64,
    /// Strategy registry name (`firal_core::STRATEGY_NAMES`).
    pub strategy: String,
    /// Batch size `b`.
    pub budget: usize,
    /// Strategy randomness seed.
    pub seed: u64,
    /// Per-rank kernel threads (`0` inherits the ambient pool).
    pub threads: usize,
    /// Upper bound on the sub-group size the scheduler carves for this
    /// request (`0` = as many ranks as are idle, i.e. "whole mesh if
    /// free"). The determinism contract makes the *selection* independent
    /// of this; only latency and the per-request bill change.
    pub max_ranks: usize,
}

/// One incremental edit to an uploaded pool. Mutations are the streaming
/// counterpart of a full re-upload: the hub applies them to its own copy
/// at request time and ships only the encoded delta to the mesh inside the
/// next round frame, so keeping a served pool current costs O(Δpool)
/// wire instead of O(pool) per change.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolMutation {
    /// Append rows to the pool panels. `xs` is `Δn × d`, `hs` is
    /// `Δn × (c-1)`; both must match the pool's existing geometry.
    Add {
        /// New pool feature rows.
        xs: Matrix<f64>,
        /// New pool probability rows.
        hs: Matrix<f64>,
    },
    /// Drop the pool rows at these (current) positions. Indices must be
    /// in range and duplicate-free; surviving rows keep their relative
    /// order.
    Remove {
        /// Row positions to drop, in the pool's current order.
        indices: Vec<usize>,
    },
    /// Move the pool rows at these (current) positions into the labeled
    /// set: each row is appended to the labeled panels in ascending index
    /// order, then removed from the pool.
    Label {
        /// Row positions to label, in the pool's current order.
        indices: Vec<usize>,
    },
}

impl PoolMutation {
    /// The wire op this mutation rides under.
    pub fn op(&self) -> u64 {
        match self {
            PoolMutation::Add { .. } => OP_ADD_POINTS,
            PoolMutation::Remove { .. } => OP_REMOVE_POINTS,
            PoolMutation::Label { .. } => OP_LABEL,
        }
    }
}

/// Apply one mutation to a pool, validating it against the pool's current
/// geometry first. On `Err` the pool is untouched. The hub and every
/// worker run this same function on bitwise-identical inputs in the same
/// order, so replicated pool state stays bitwise-identical across ranks.
pub fn apply_mutation(p: &mut SelectionProblem<f64>, m: &PoolMutation) -> Result<(), String> {
    match m {
        PoolMutation::Add { xs, hs } => {
            if xs.rows() != hs.rows() {
                return Err(format!(
                    "add panels disagree: {} feature rows vs {} probability rows",
                    xs.rows(),
                    hs.rows()
                ));
            }
            if xs.cols() != p.dim() {
                return Err(format!(
                    "added rows have d={} but the pool has d={}",
                    xs.cols(),
                    p.dim()
                ));
            }
            if hs.cols() != p.nblocks() {
                return Err(format!(
                    "added probability rows have {} columns but the pool needs c-1={}",
                    hs.cols(),
                    p.nblocks()
                ));
            }
            p.append_pool_rows(xs.rows(), xs.as_slice(), hs.as_slice());
            Ok(())
        }
        PoolMutation::Remove { indices } => {
            p.remove_pool_rows(&checked_index_set(indices, p.pool_size())?);
            Ok(())
        }
        PoolMutation::Label { indices } => {
            p.label_pool_rows(&checked_index_set(indices, p.pool_size())?);
            Ok(())
        }
    }
}

/// Turn a validated index list into a drop mask, rejecting out-of-range
/// and duplicate entries before anything is mutated.
fn checked_index_set(indices: &[usize], n: usize) -> Result<Vec<bool>, String> {
    let mut mask = vec![false; n];
    for &i in indices {
        if i >= n {
            return Err(format!("row index {i} out of range for a pool of {n}"));
        }
        if mask[i] {
            return Err(format!("row index {i} appears twice"));
        }
        mask[i] = true;
    }
    Ok(mask)
}

/// What a successful pool mutation left behind, answered to the mutating
/// client so it can track the pool's geometry without a round trip per
/// panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutateAck {
    /// The mutated pool's handle.
    pub handle: u64,
    /// Pool rows after the mutation.
    pub pool_size: usize,
    /// Labeled rows after the mutation.
    pub labeled: usize,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Upload a pool. The payload is kept serialized (it is re-shipped
    /// verbatim to every rank inside the next round frame); it has already
    /// passed [`decode_pool`] validation when this variant is constructed.
    UploadPool(Vec<u8>),
    /// Run one selection.
    Select(SelectSpec),
    /// Query cumulative accounting.
    Stats,
    /// Drain and stop.
    Shutdown,
    /// Incrementally edit an uploaded pool.
    Mutate {
        /// Handle of the pool to edit.
        pool: u64,
        /// The edit itself.
        mutation: PoolMutation,
    },
    /// Delete an uploaded pool (its blob is dropped on every rank).
    DeletePool {
        /// Handle of the pool to delete.
        pool: u64,
    },
}

/// What one finished selection request did, as reported to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionOutcome {
    /// Server round the request ran in (lets a load test assert two
    /// requests truly overlapped: same round = concurrent sub-groups).
    pub round: u64,
    /// World ranks of the sub-group that ran it, ascending.
    pub group: Vec<usize>,
    /// Selected global pool indices — identical to the serial reference.
    pub selected: Vec<usize>,
    /// Wall-clock seconds the slowest group member spent selecting.
    pub seconds: f64,
    /// Collectives the whole sub-group issued for this request (summed
    /// across its members; disjoint from every concurrent request's bill).
    pub comm: CommStats,
}

/// Cumulative server accounting, answered to [`OP_STATS`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Rounds the server has driven so far.
    pub rounds: u64,
    /// Requests answered successfully.
    pub requests_ok: u64,
    /// Requests answered with a [`RemoteError`].
    pub requests_err: u64,
    /// Pools currently resident on the server (uploads minus deletions)
    /// — the observable a lifetime-leak soak watches.
    pub pools_live: u64,
    /// Pools dropped so far by [`OP_DELETE_POOL`].
    pub pools_evicted: u64,
    /// Sum of every successful request's sub-group bill.
    pub comm: CommStats,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Pool accepted; use the handle in [`SelectSpec::pool`].
    Pool {
        /// Server-assigned pool handle.
        handle: u64,
    },
    /// Selection finished.
    Select(SelectionOutcome),
    /// Accounting snapshot.
    Stats(ServerStats),
    /// Shutdown acknowledged.
    Shutdown,
    /// Pool mutation applied.
    Mutated(MutateAck),
    /// Pool deleted everywhere; the handle is dead.
    Deleted {
        /// The deleted pool's handle.
        handle: u64,
    },
    /// The request failed; the connection is still usable.
    Error(RemoteError),
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

/// Try to parse one frame from the front of `buf`.
///
/// Pure and incremental: `Ok(None)` means "not enough bytes yet", and
/// `Ok(Some((op, body, consumed)))` hands back the op word, the body, and
/// how many bytes of `buf` the frame occupied. A [`FrameError`] means the
/// stream is unrecoverable from this point.
pub fn try_parse_frame(buf: &[u8]) -> Result<Option<(u64, Vec<u8>, usize)>, FrameError> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    let magic = word(0);
    if magic != CLIENT_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let op = word(8);
    let len = word(16) as usize;
    if len > MAX_REQUEST_BYTES {
        return Err(FrameError::Oversized(len));
    }
    if buf.len() < FRAME_HEADER + len {
        return Ok(None);
    }
    let body = buf[FRAME_HEADER..FRAME_HEADER + len].to_vec();
    Ok(Some((op, body, FRAME_HEADER + len)))
}

fn write_frame(w: &mut impl Write, op: u64, body: &[u8]) -> io::Result<()> {
    assert!(
        body.len() <= MAX_REQUEST_BYTES,
        "frame body of {} bytes exceeds the protocol cap",
        body.len()
    );
    wire::write_u64(w, CLIENT_MAGIC)?;
    wire::write_u64(w, op)?;
    wire::write_bytes(w, body)
}

/// Read one whole frame from a blocking stream: `(op/tag, body)`. Framing
/// violations surface as `InvalidData`. The body buffer grows with the
/// bytes that actually arrive, never with the claimed length.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u64, Vec<u8>)> {
    let magic = wire::read_u64(r)?;
    if magic != CLIENT_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::BadMagic(magic).to_string(),
        ));
    }
    let op = wire::read_u64(r)?;
    let len = wire::read_u64(r)? as usize;
    if len > MAX_REQUEST_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Oversized(len).to_string(),
        ));
    }
    let mut body = Vec::with_capacity(len.min(4096));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok((op, body))
}

// ---------------------------------------------------------------------------
// Request bodies
// ---------------------------------------------------------------------------

/// Decode a frame body into a [`Request`], or a taxonomy error the server
/// answers on the still-healthy connection.
pub fn decode_request(op: u64, body: &[u8]) -> Result<Request, RemoteError> {
    match op {
        OP_UPLOAD_POOL => {
            // Validate eagerly so a malformed pool is rejected before it
            // is shipped to (and would desynchronize) the mesh.
            decode_pool(body).map_err(|why| RemoteError::new(ERR_PROTOCOL, why))?;
            Ok(Request::UploadPool(body.to_vec()))
        }
        OP_SELECT => decode_select_spec(body).map(Request::Select),
        OP_STATS => expect_empty(body, "stats").map(|()| Request::Stats),
        OP_SHUTDOWN => expect_empty(body, "shutdown").map(|()| Request::Shutdown),
        OP_ADD_POINTS | OP_REMOVE_POINTS | OP_LABEL => {
            let (pool, mutation) = decode_mutation(op, body)?;
            Ok(Request::Mutate { pool, mutation })
        }
        OP_DELETE_POOL => {
            let mut r = body;
            let pool = wire::read_u64(&mut r).map_err(|e| proto_io(e, "delete-pool"))?;
            if !r.is_empty() {
                return Err(RemoteError::new(
                    ERR_PROTOCOL,
                    format!("delete-pool body has {} trailing bytes", r.len()),
                ));
            }
            Ok(Request::DeletePool { pool })
        }
        other => Err(RemoteError::new(
            ERR_PROTOCOL,
            format!("unknown request op {other}"),
        )),
    }
}

fn expect_empty(body: &[u8], what: &str) -> Result<(), RemoteError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(RemoteError::new(
            ERR_PROTOCOL,
            format!(
                "{what} request carries an unexpected {}-byte body",
                body.len()
            ),
        ))
    }
}

fn proto_io(e: io::Error, what: &str) -> RemoteError {
    RemoteError::new(ERR_PROTOCOL, format!("malformed {what} body: {e}"))
}

fn decode_select_spec(body: &[u8]) -> Result<SelectSpec, RemoteError> {
    let mut r = body;
    let spec = SelectSpec {
        pool: wire::read_u64(&mut r).map_err(|e| proto_io(e, "select"))?,
        strategy: read_str(&mut r).map_err(|e| proto_io(e, "select"))?,
        budget: wire::read_u64(&mut r).map_err(|e| proto_io(e, "select"))? as usize,
        seed: wire::read_u64(&mut r).map_err(|e| proto_io(e, "select"))?,
        threads: wire::read_u64(&mut r).map_err(|e| proto_io(e, "select"))? as usize,
        max_ranks: wire::read_u64(&mut r).map_err(|e| proto_io(e, "select"))? as usize,
    };
    if !r.is_empty() {
        return Err(RemoteError::new(
            ERR_PROTOCOL,
            format!("select body has {} trailing bytes", r.len()),
        ));
    }
    Ok(spec)
}

fn encode_select_spec(spec: &SelectSpec) -> Vec<u8> {
    let mut body = Vec::new();
    wire::write_u64(&mut body, spec.pool).unwrap();
    wire::write_str(&mut body, &spec.strategy).unwrap();
    wire::write_u64(&mut body, spec.budget as u64).unwrap();
    wire::write_u64(&mut body, spec.seed).unwrap();
    wire::write_u64(&mut body, spec.threads as u64).unwrap();
    wire::write_u64(&mut body, spec.max_ranks as u64).unwrap();
    body
}

/// Encode a mutation body: the pool handle followed by the op-specific
/// payload (panels for add, an index list for remove/label).
pub fn encode_mutation(pool: u64, m: &PoolMutation) -> Vec<u8> {
    let mut body = Vec::new();
    wire::write_u64(&mut body, pool).unwrap();
    match m {
        PoolMutation::Add { xs, hs } => {
            encode_matrix(&mut body, xs);
            encode_matrix(&mut body, hs);
        }
        PoolMutation::Remove { indices } | PoolMutation::Label { indices } => {
            write_indices(&mut body, indices).unwrap();
        }
    }
    body
}

/// Decode a mutation body for one of the three mutation ops. The claimed
/// element counts are validated against the bytes actually present before
/// any read loop runs ([`check_prefix`]), so an adversarial count is a
/// structured [`ERR_PROTOCOL`] error, never an allocation or a long spin.
fn decode_mutation(op: u64, body: &[u8]) -> Result<(u64, PoolMutation), RemoteError> {
    let what = match op {
        OP_ADD_POINTS => "add-points",
        OP_REMOVE_POINTS => "remove-points",
        _ => "label",
    };
    let mut r = body;
    let pool = wire::read_u64(&mut r).map_err(|e| proto_io(e, what))?;
    let mutation = match op {
        OP_ADD_POINTS => {
            let xs = decode_matrix(&mut r, "added features")
                .map_err(|why| RemoteError::new(ERR_PROTOCOL, why))?;
            let hs = decode_matrix(&mut r, "added probabilities")
                .map_err(|why| RemoteError::new(ERR_PROTOCOL, why))?;
            PoolMutation::Add { xs, hs }
        }
        _ => {
            let indices = read_indices(&mut r).map_err(|e| proto_io(e, what))?;
            match op {
                OP_REMOVE_POINTS => PoolMutation::Remove { indices },
                _ => PoolMutation::Label { indices },
            }
        }
    };
    if !r.is_empty() {
        return Err(RemoteError::new(
            ERR_PROTOCOL,
            format!("{what} body has {} trailing bytes", r.len()),
        ));
    }
    Ok((pool, mutation))
}

/// Write a [`Request`] as one frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    match req {
        Request::UploadPool(pool) => write_frame(w, OP_UPLOAD_POOL, pool),
        Request::Select(spec) => write_frame(w, OP_SELECT, &encode_select_spec(spec)),
        Request::Stats => write_frame(w, OP_STATS, &[]),
        Request::Shutdown => write_frame(w, OP_SHUTDOWN, &[]),
        Request::Mutate { pool, mutation } => {
            write_frame(w, mutation.op(), &encode_mutation(*pool, mutation))
        }
        Request::DeletePool { pool } => write_frame(w, OP_DELETE_POOL, &encode_delete(*pool)),
    }
}

/// Encode a delete-pool body: the handle alone.
pub(crate) fn encode_delete(pool: u64) -> Vec<u8> {
    let mut body = Vec::new();
    wire::write_u64(&mut body, pool).unwrap();
    body
}

// ---------------------------------------------------------------------------
// Pool blobs
// ---------------------------------------------------------------------------

fn encode_matrix(out: &mut Vec<u8>, m: &Matrix<f64>) {
    wire::write_u64(out, m.rows() as u64).unwrap();
    wire::write_u64(out, m.cols() as u64).unwrap();
    wire::write_f64s(out, m.as_slice()).unwrap();
}

fn decode_matrix(r: &mut &[u8], what: &str) -> Result<Matrix<f64>, String> {
    let rows = wire::read_u64(r).map_err(|e| format!("{what}: {e}"))? as usize;
    let cols = wire::read_u64(r).map_err(|e| format!("{what}: {e}"))? as usize;
    let data = check_prefix(r, 8, "values")
        .and_then(|()| wire::read_f64s(r))
        .map_err(|e| format!("{what}: {e}"))?;
    let expect = rows
        .checked_mul(cols)
        .ok_or_else(|| format!("{what}: {rows}×{cols} overflows"))?;
    if data.len() != expect {
        return Err(format!(
            "{what}: shape {rows}×{cols} disagrees with {} payload elements",
            data.len()
        ));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Serialize a [`SelectionProblem`] for upload: class count plus the four
/// panels (`pool_x`, `pool_h`, `labeled_x`, `labeled_h`), each as
/// `rows, cols, f64s`.
pub fn encode_pool(p: &SelectionProblem<f64>) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_u64(&mut out, p.num_classes as u64).unwrap();
    encode_matrix(&mut out, &p.pool_x);
    encode_matrix(&mut out, &p.pool_h);
    encode_matrix(&mut out, &p.labeled_x);
    encode_matrix(&mut out, &p.labeled_h);
    out
}

/// Decode and shape-validate an uploaded pool. Every constraint
/// `SelectionProblem::new` would assert is checked here first, so a
/// malformed upload is a [`RemoteError`], not a rank panic.
pub fn decode_pool(bytes: &[u8]) -> Result<SelectionProblem<f64>, String> {
    let mut r = bytes;
    let num_classes = wire::read_u64(&mut r).map_err(|e| format!("class count: {e}"))? as usize;
    if num_classes < 2 {
        return Err(format!("{num_classes} classes (need at least 2)"));
    }
    let pool_x = decode_matrix(&mut r, "pool_x")?;
    let pool_h = decode_matrix(&mut r, "pool_h")?;
    let labeled_x = decode_matrix(&mut r, "labeled_x")?;
    let labeled_h = decode_matrix(&mut r, "labeled_h")?;
    if !r.is_empty() {
        return Err(format!("pool blob has {} trailing bytes", r.len()));
    }
    if pool_x.rows() != pool_h.rows() {
        return Err(format!(
            "pool panels disagree: {} feature rows vs {} probability rows",
            pool_x.rows(),
            pool_h.rows()
        ));
    }
    if labeled_x.rows() != labeled_h.rows() {
        return Err(format!(
            "labeled panels disagree: {} feature rows vs {} probability rows",
            labeled_x.rows(),
            labeled_h.rows()
        ));
    }
    if pool_x.cols() != labeled_x.cols() {
        return Err(format!(
            "feature dims disagree: pool d={} vs labeled d={}",
            pool_x.cols(),
            labeled_x.cols()
        ));
    }
    if pool_h.cols() != num_classes - 1 || labeled_h.cols() != num_classes - 1 {
        return Err(format!(
            "probability panels must have c-1={} columns (got pool {} / labeled {})",
            num_classes - 1,
            pool_h.cols(),
            labeled_h.cols()
        ));
    }
    Ok(SelectionProblem::new(
        pool_x,
        pool_h,
        labeled_x,
        labeled_h,
        num_classes,
    ))
}

// ---------------------------------------------------------------------------
// Stats + responses
// ---------------------------------------------------------------------------

/// Encode [`CommStats`] as seven `u64`s (six counters + nanoseconds), an
/// exact roundtrip.
pub fn write_stats(w: &mut impl Write, s: &CommStats) -> io::Result<()> {
    for v in [
        s.allreduce_calls,
        s.allreduce_bytes,
        s.bcast_calls,
        s.bcast_bytes,
        s.allgather_calls,
        s.allgather_bytes,
        s.time.as_nanos() as u64,
    ] {
        wire::write_u64(w, v)?;
    }
    Ok(())
}

/// Inverse of [`write_stats`].
pub fn read_stats(r: &mut impl Read) -> io::Result<CommStats> {
    let mut v = [0u64; 7];
    for slot in &mut v {
        *slot = wire::read_u64(r)?;
    }
    Ok(CommStats {
        allreduce_calls: v[0],
        allreduce_bytes: v[1],
        bcast_calls: v[2],
        bcast_bytes: v[3],
        allgather_calls: v[4],
        allgather_bytes: v[5],
        time: Duration::from_nanos(v[6]),
    })
}

/// Clip a diagnosis string to the wire's string cap on a char boundary,
/// so long `CommError` traces serialize instead of erroring.
pub(crate) fn clip(s: &str) -> &str {
    if s.len() <= wire::MAX_WIRE_STR {
        return s;
    }
    let mut end = wire::MAX_WIRE_STR;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

pub(crate) fn write_indices(w: &mut impl Write, xs: &[usize]) -> io::Result<()> {
    wire::write_u64(w, xs.len() as u64)?;
    for &x in xs {
        wire::write_u64(w, x as u64)?;
    }
    Ok(())
}

/// Fail unless the length prefix at the front of `r` claims no more
/// `width`-byte `what` than actually follow it — the guard that keeps every
/// slice decoder here from looping or allocating past its input on a lying
/// count.
fn check_prefix(r: &[u8], width: u64, what: &str) -> io::Result<()> {
    let mut rest = r;
    let n = wire::read_u64(&mut rest)?;
    if n.saturating_mul(width) > rest.len() as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("claims {n} {what} but only {} bytes remain", rest.len()),
        ));
    }
    Ok(())
}

pub(crate) fn read_indices(r: &mut &[u8]) -> io::Result<Vec<usize>> {
    check_prefix(r, 8, "indices")?;
    let n = wire::read_u64(r)?;
    (0..n)
        .map(|_| wire::read_u64(r).map(|v| v as usize))
        .collect()
}

/// [`wire::read_bytes`] from a slice, checked by [`check_prefix`] first.
pub(crate) fn read_body(r: &mut &[u8]) -> io::Result<Vec<u8>> {
    check_prefix(r, 1, "bytes")?;
    wire::read_bytes(r)
}

/// [`wire::read_str`] from a slice, checked by [`check_prefix`] first.
pub(crate) fn read_str(r: &mut &[u8]) -> io::Result<String> {
    check_prefix(r, 1, "bytes")?;
    wire::read_str(r)
}

/// Write a [`Response`] as one frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut body = Vec::new();
    let tag = match resp {
        Response::Pool { handle } => {
            wire::write_u64(&mut body, *handle)?;
            RESP_POOL
        }
        Response::Select(out) => {
            wire::write_u64(&mut body, out.round)?;
            write_indices(&mut body, &out.group)?;
            write_indices(&mut body, &out.selected)?;
            wire::write_f64s(&mut body, &[out.seconds])?;
            write_stats(&mut body, &out.comm)?;
            RESP_SELECT
        }
        Response::Stats(st) => {
            wire::write_u64(&mut body, st.rounds)?;
            wire::write_u64(&mut body, st.requests_ok)?;
            wire::write_u64(&mut body, st.requests_err)?;
            wire::write_u64(&mut body, st.pools_live)?;
            wire::write_u64(&mut body, st.pools_evicted)?;
            write_stats(&mut body, &st.comm)?;
            RESP_STATS
        }
        Response::Shutdown => RESP_SHUTDOWN,
        Response::Mutated(ack) => {
            wire::write_u64(&mut body, ack.handle)?;
            wire::write_u64(&mut body, ack.pool_size as u64)?;
            wire::write_u64(&mut body, ack.labeled as u64)?;
            RESP_MUTATE
        }
        Response::Deleted { handle } => {
            wire::write_u64(&mut body, *handle)?;
            RESP_DELETE
        }
        Response::Error(err) => {
            wire::write_u64(&mut body, err.code)?;
            wire::write_str(&mut body, clip(&err.message))?;
            RESP_ERROR
        }
    };
    write_frame(w, tag, &body)
}

/// Read one [`Response`] frame from a blocking stream.
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    let (tag, body) = read_frame(r)?;
    let bad =
        |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what} body"));
    let mut b = &body[..];
    let resp = match tag {
        RESP_POOL => Response::Pool {
            handle: wire::read_u64(&mut b)?,
        },
        RESP_SELECT => {
            let round = wire::read_u64(&mut b)?;
            let group = read_indices(&mut b)?;
            let selected = read_indices(&mut b)?;
            let mut seconds = [0.0f64];
            wire::read_f64s_into(&mut b, &mut seconds)?;
            let comm = read_stats(&mut b)?;
            Response::Select(SelectionOutcome {
                round,
                group,
                selected,
                seconds: seconds[0],
                comm,
            })
        }
        RESP_STATS => Response::Stats(ServerStats {
            rounds: wire::read_u64(&mut b)?,
            requests_ok: wire::read_u64(&mut b)?,
            requests_err: wire::read_u64(&mut b)?,
            pools_live: wire::read_u64(&mut b)?,
            pools_evicted: wire::read_u64(&mut b)?,
            comm: read_stats(&mut b)?,
        }),
        RESP_SHUTDOWN => Response::Shutdown,
        RESP_MUTATE => Response::Mutated(MutateAck {
            handle: wire::read_u64(&mut b)?,
            pool_size: wire::read_u64(&mut b)? as usize,
            labeled: wire::read_u64(&mut b)? as usize,
        }),
        RESP_DELETE => Response::Deleted {
            handle: wire::read_u64(&mut b)?,
        },
        RESP_ERROR => Response::Error(RemoteError {
            code: wire::read_u64(&mut b)?,
            message: read_str(&mut b)?,
        }),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown response tag {other}"),
            ))
        }
    };
    if !b.is_empty() {
        return Err(bad("response"));
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_pool() -> SelectionProblem<f64> {
        SelectionProblem::new(
            Matrix::from_vec(4, 2, (0..8).map(|i| i as f64).collect()),
            Matrix::from_vec(4, 2, vec![0.25; 8]),
            Matrix::from_vec(2, 2, vec![1.0; 4]),
            Matrix::from_vec(2, 2, vec![0.5; 4]),
            3,
        )
    }

    fn spec() -> SelectSpec {
        SelectSpec {
            pool: 7,
            strategy: "entropy".into(),
            budget: 3,
            seed: 42,
            threads: 0,
            max_ranks: 2,
        }
    }

    #[test]
    fn requests_roundtrip_through_the_incremental_parser() {
        let reqs = [
            Request::UploadPool(encode_pool(&toy_pool())),
            Request::Select(spec()),
            Request::Stats,
            Request::Shutdown,
            Request::Mutate {
                pool: 7,
                mutation: PoolMutation::Add {
                    xs: Matrix::from_vec(1, 2, vec![9.0, 8.0]),
                    hs: Matrix::from_vec(1, 2, vec![0.5, 0.25]),
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
        ];
        let mut stream = Vec::new();
        for req in &reqs {
            write_request(&mut stream, req).unwrap();
        }
        let mut at = 0;
        for req in &reqs {
            let (op, body, used) = try_parse_frame(&stream[at..])
                .unwrap()
                .expect("whole frame");
            at += used;
            assert_eq!(&decode_request(op, &body).unwrap(), req);
        }
        assert_eq!(at, stream.len(), "no residue");
    }

    #[test]
    fn partial_frames_ask_for_more_bytes_at_every_prefix() {
        let mut stream = Vec::new();
        write_request(&mut stream, &Request::Select(spec())).unwrap();
        for cut in 0..stream.len() {
            assert_eq!(
                try_parse_frame(&stream[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must not parse"
            );
        }
        assert!(try_parse_frame(&stream).unwrap().is_some());
    }

    #[test]
    fn bad_magic_and_oversized_lengths_are_connection_fatal() {
        let mut junk = Vec::new();
        wire::write_u64(&mut junk, 0xDEAD_BEEF).unwrap();
        junk.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            try_parse_frame(&junk),
            Err(FrameError::BadMagic(0xDEAD_BEEF))
        ));

        let mut huge = Vec::new();
        wire::write_u64(&mut huge, CLIENT_MAGIC).unwrap();
        wire::write_u64(&mut huge, OP_STATS).unwrap();
        wire::write_u64(&mut huge, (MAX_REQUEST_BYTES as u64) + 1).unwrap();
        assert!(matches!(
            try_parse_frame(&huge),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn unknown_ops_and_malformed_bodies_are_per_request_errors() {
        let err = decode_request(999, &[]).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);

        let err = decode_request(OP_SELECT, &[1, 2, 3]).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);

        let mut trailing = encode_select_spec(&spec());
        trailing.push(0);
        let err = decode_request(OP_SELECT, &trailing).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);

        let err = decode_request(OP_STATS, &[9]).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);
    }

    #[test]
    fn pool_blobs_roundtrip_bitwise() {
        let pool = toy_pool();
        let back = decode_pool(&encode_pool(&pool)).unwrap();
        assert_eq!(back.num_classes, pool.num_classes);
        assert_eq!(back.pool_x.as_slice(), pool.pool_x.as_slice());
        assert_eq!(back.pool_h.as_slice(), pool.pool_h.as_slice());
        assert_eq!(back.labeled_x.as_slice(), pool.labeled_x.as_slice());
        assert_eq!(back.labeled_h.as_slice(), pool.labeled_h.as_slice());
    }

    #[test]
    fn misshapen_pools_are_rejected_not_panicked_on() {
        // Probability panel with the wrong column count for c = 3.
        let mut bad = Vec::new();
        wire::write_u64(&mut bad, 3).unwrap();
        for (rows, cols) in [(4usize, 2usize), (4, 3), (2, 2), (2, 2)] {
            wire::write_u64(&mut bad, rows as u64).unwrap();
            wire::write_u64(&mut bad, cols as u64).unwrap();
            wire::write_f64s(&mut bad, &vec![0.1; rows * cols]).unwrap();
        }
        let why = decode_pool(&bad).unwrap_err();
        assert!(why.contains("c-1"), "{why}");

        // Truncated blob.
        let whole = encode_pool(&toy_pool());
        assert!(decode_pool(&whole[..whole.len() - 3]).is_err());

        // Upload-op decode surfaces the same as a protocol error.
        let err = decode_request(OP_UPLOAD_POOL, &bad).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);
    }

    #[test]
    fn responses_roundtrip_including_stats_nanos() {
        let comm = CommStats {
            allreduce_calls: 3,
            allreduce_bytes: 144,
            bcast_calls: 2,
            bcast_bytes: 80,
            allgather_calls: 1,
            allgather_bytes: 56,
            time: Duration::from_nanos(123_456_789),
        };
        let cases = [
            Response::Pool { handle: 5 },
            Response::Select(SelectionOutcome {
                round: 9,
                group: vec![1, 3],
                selected: vec![10, 4, 7],
                seconds: 0.25,
                comm,
            }),
            Response::Stats(ServerStats {
                rounds: 12,
                requests_ok: 30,
                requests_err: 2,
                pools_live: 3,
                pools_evicted: 5,
                comm,
            }),
            Response::Shutdown,
            Response::Mutated(MutateAck {
                handle: 4,
                pool_size: 17,
                labeled: 6,
            }),
            Response::Deleted { handle: 4 },
            Response::Error(RemoteError::new(ERR_UNKNOWN_STRATEGY, "no such strategy")),
        ];
        for resp in &cases {
            let mut buf = Vec::new();
            write_response(&mut buf, resp).unwrap();
            let back = read_response(&mut &buf[..]).unwrap();
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn mutations_edit_the_pool_deterministically() {
        let mut p = toy_pool();
        // Add one row.
        apply_mutation(
            &mut p,
            &PoolMutation::Add {
                xs: Matrix::from_vec(1, 2, vec![100.0, 101.0]),
                hs: Matrix::from_vec(1, 2, vec![0.125, 0.25]),
            },
        )
        .unwrap();
        assert_eq!(p.pool_size(), 5);
        assert_eq!(p.pool_x.row(4), &[100.0, 101.0]);

        // Label rows 0 and 3 (in current order): they append to the
        // labeled panels ascending, then leave the pool.
        apply_mutation(
            &mut p,
            &PoolMutation::Label {
                indices: vec![3, 0],
            },
        )
        .unwrap();
        assert_eq!(p.pool_size(), 3);
        assert_eq!(p.labeled_x.rows(), 4);
        assert_eq!(p.labeled_x.row(2), &[0.0, 1.0]); // old pool row 0
        assert_eq!(p.labeled_x.row(3), &[6.0, 7.0]); // old pool row 3
        assert_eq!(p.pool_x.row(0), &[2.0, 3.0]); // survivors keep order

        // Remove the (current) middle row.
        apply_mutation(&mut p, &PoolMutation::Remove { indices: vec![1] }).unwrap();
        assert_eq!(p.pool_size(), 2);
        assert_eq!(p.pool_x.row(1), &[100.0, 101.0]);
    }

    #[test]
    fn invalid_mutations_leave_the_pool_untouched() {
        let mut p = toy_pool();
        let before = p.pool_x.as_slice().to_vec();

        // Out-of-range and duplicate indices.
        assert!(apply_mutation(&mut p, &PoolMutation::Remove { indices: vec![9] }).is_err());
        assert!(apply_mutation(
            &mut p,
            &PoolMutation::Label {
                indices: vec![1, 1]
            }
        )
        .is_err());
        // Shape mismatches on add.
        assert!(apply_mutation(
            &mut p,
            &PoolMutation::Add {
                xs: Matrix::from_vec(1, 3, vec![0.0; 3]),
                hs: Matrix::from_vec(1, 2, vec![0.0; 2]),
            }
        )
        .is_err());
        assert!(apply_mutation(
            &mut p,
            &PoolMutation::Add {
                xs: Matrix::from_vec(2, 2, vec![0.0; 4]),
                hs: Matrix::from_vec(1, 2, vec![0.0; 2]),
            }
        )
        .is_err());

        assert_eq!(p.pool_x.as_slice(), &before[..]);
        assert_eq!(p.pool_size(), 4);
    }

    #[test]
    fn mutation_bodies_roundtrip_and_validate_counts_before_looping() {
        // A remove body claiming 2^40 indices with no payload must come
        // back as a structured protocol error, not an allocation or spin.
        let mut body = Vec::new();
        wire::write_u64(&mut body, 7).unwrap();
        wire::write_u64(&mut body, 1u64 << 40).unwrap();
        let err = decode_request(OP_REMOVE_POINTS, &body).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);
        assert!(err.message.contains("indices"), "{}", err.message);

        // Same for a label body.
        let err = decode_request(OP_LABEL, &body).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);

        // An add body whose matrix header lies about its row count.
        let mut body = Vec::new();
        wire::write_u64(&mut body, 7).unwrap();
        wire::write_u64(&mut body, 1u64 << 40).unwrap(); // rows
        wire::write_u64(&mut body, 2).unwrap(); // cols
        wire::write_f64s(&mut body, &[1.0, 2.0]).unwrap();
        let err = decode_request(OP_ADD_POINTS, &body).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);

        // Trailing garbage after a well-formed mutation body.
        let mut ok = encode_mutation(
            3,
            &PoolMutation::Label {
                indices: vec![0, 2],
            },
        );
        ok.push(0xFF);
        let err = decode_request(OP_LABEL, &ok).unwrap_err();
        assert_eq!(err.code, ERR_PROTOCOL);
    }

    #[test]
    fn select_error_taxonomy_maps_onto_distinct_codes() {
        let cases = [
            (
                SelectError::UnknownStrategy { name: "x".into() },
                ERR_UNKNOWN_STRATEGY,
            ),
            (SelectError::ZeroBudget, ERR_ZERO_BUDGET),
            (
                SelectError::BudgetTooLarge { budget: 9, pool: 3 },
                ERR_BUDGET_TOO_LARGE,
            ),
            (SelectError::EmptyPool, ERR_EMPTY_POOL),
        ];
        for (e, code) in cases {
            let remote = RemoteError::from_select_error(&e);
            assert_eq!(remote.code, code);
            assert_eq!(remote.message, e.to_string());
        }
    }
}
