//! Inter-process communicator over a localhost TCP socket mesh.
//!
//! [`SocketComm`] is the first *process-level* transport behind
//! [`crate::Communicator`]: every algorithm, bench, and test written against
//! the trait runs over real wire I/O unchanged, with measured socket time
//! flowing into [`crate::CommStats::time`]. It is the crate's one collective
//! driver (replay-if-poisoned, schedule point, fault hook, fingerprint
//! check, billing, first-error seal — see `collective.rs`) over the
//! transport defined here: rendezvous, framed data movement, and the abort
//! protocol.
//!
//! # Rendezvous protocol
//!
//! A group of `p` processes (or threads — see [`socket_launch`]) wires
//! itself into a full mesh in three steps, all framed by [`crate::wire`]
//! (little-endian `u64`s, length-prefixed buffers, [`wire::MAGIC`] sanity
//! words):
//!
//! 1. **Rendezvous.** Rank 0 listens on the agreed address (from
//!    [`ENV_ADDR`] or a caller argument). Every other rank binds its own
//!    ephemeral *mesh listener*, connects to rank 0, and sends
//!    `MAGIC, rank, mesh-listener-address`. These rendezvous connections
//!    double as the rank-0 ↔ rank-r mesh links.
//! 2. **Address table.** Once all `p - 1` ranks have checked in, rank 0
//!    replies on each link with `MAGIC, p, addr(1), …, addr(p-1)`.
//! 3. **Mesh completion.** Each rank `r > 0` connects to the mesh listener
//!    of every rank `1 ≤ i < r` (announcing itself with `MAGIC, r`) and
//!    accepts one connection from every rank `j > r`. A closing barrier
//!    through rank 0 makes construction a synchronization point, like
//!    `MPI_Init`.
//!
//! Every step is bounded by one fixed 30 s rendezvous deadline: connect
//! and bind retries back off exponentially against it, accept loops poll
//! nonblockingly against it, and check-in reads inherit the remaining
//! budget. A stray connection that fails its check-in (bad magic, invalid
//! or duplicate rank, or silence) is dropped without consuming a
//! rendezvous slot.
//!
//! # Data phase
//!
//! All collectives but `bcast` are one hub-shaped exchange through group
//! rank 0: members write a scope-tagged frame to the hub, the hub combines
//! **in rank order** — the same deterministic contract as
//! [`crate::ThreadComm`], so both backends produce bitwise-identical
//! results — and writes the result back on every link. `bcast` uses the
//! direct root → peer mesh links. MAXLOC carries its payload in the separate
//! integer lane of [`wire::MaxLoc`] and reduces via the shared
//! [`wire::MaxLoc::reduce_rank_ordered`] semantics. The schedule verifier's
//! fingerprint preamble is the same exchange.
//!
//! # Failure behaviour
//!
//! Once the mesh is wired, every frame read and write honours the
//! `FIRAL_COMM_TIMEOUT` deadline ([`crate::comm_timeout`]); EOF, resets,
//! and garbage frames are diagnosed as [`CommError`]s carrying
//! rank/op/sequence context. A rank that observes an *original* failure
//! (not a received abort) broadcasts a [`wire::ABORT_TAG`] frame on the
//! raw, unbuffered clones of its **group's** mesh links, so each group
//! survivor fails its next frame read with [`CommError::RemoteAbort`]
//! within one deadline instead of hanging; received aborts are not
//! re-broadcast, so abort storms terminate. The blast radius is the
//! failing (sub-)group, not the whole mesh: disjoint sibling groups made
//! by `split` (e.g. concurrent serving requests) keep running, and ranks
//! outside the group observe the failure only at their next collective
//! that includes a member of it. On a root communicator the group *is*
//! the mesh, so pre-split behaviour is unchanged.
//! [`SocketComm`]`::install_panic_abort` extends the same courtesy to panics
//! (e.g. the schedule verifier's mismatch abort): SPMD launchers install it
//! once per rank so a panic broadcasts its diagnostic before the process
//! dies. Deterministic fault injection ([`crate::fault`], `FIRAL_FAULT`)
//! hooks the rendezvous here and, through the driver, the top of every
//! collective — addressed by **world** rank and the per-rank collective
//! sequence number ([`SocketComm`]`::collective_seq`).
//!
//! # Launching
//!
//! * Multi-process: the `spmd_launch` binary (`crates/bench`) re-executes
//!   itself `p` times via [`fork_self`], with [`ENV_RANK`]/[`ENV_SIZE`]/
//!   [`ENV_ADDR`] telling each child who it is; children join the group
//!   with [`SocketComm`]`::from_env`. The parent supervises: after a first
//!   failure the surviving ranks get a grace period to exit with their own
//!   diagnosis, then stragglers are killed, reaped and reported per rank,
//!   so no orphans outlive the launcher.
//! * In-process: [`socket_launch`]`(p, f)` runs the closure on `p` OS
//!   threads whose endpoints still talk over real localhost TCP — the
//!   test/bench harness for the socket path.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command};
use std::rc::Rc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::collective::{Collective, Trace, Transport};
use crate::communicator::ReduceOp;
use crate::error::{comm_timeout, CommError};
use crate::fault::{FaultPlan, KILL_EXIT_CODE};
use crate::verify::Fingerprint;
use crate::wire::{self, AbortMsg, MaxLoc, MAGIC};

/// Env var carrying this process's rank (set by the launcher).
pub const ENV_RANK: &str = "FIRAL_SPMD_RANK";
/// Env var carrying the group size.
pub const ENV_SIZE: &str = "FIRAL_SPMD_SIZE";
/// Env var carrying the rank-0 rendezvous address (`host:port`).
pub const ENV_ADDR: &str = "FIRAL_SPMD_ADDR";

/// The total rendezvous deadline. Every connect retry, bind retry, accept
/// loop, and check-in read during mesh construction is bounded by this
/// budget, so a rank that dies before the mesh is wired cannot hang the
/// survivors.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);
/// Initial retry pause; doubles per attempt up to [`RETRY_PAUSE_CAP`].
const RETRY_PAUSE: Duration = Duration::from_millis(20);
const RETRY_PAUSE_CAP: Duration = Duration::from_millis(500);

/// Time left until `deadline`, floored so it is always a valid socket
/// timeout (`set_read_timeout(Some(0))` is an error).
fn remaining(deadline: Instant) -> Duration {
    deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(10))
}

/// Buffered duplex view of one mesh link, plus a raw (unbuffered) clone of
/// the stream for out-of-band abort frames and deadline flips.
struct Peer {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    raw: TcpStream,
}

impl Peer {
    fn new(stream: TcpStream, timeout: Option<Duration>) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let raw = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            raw,
        })
    }

    /// Flip the socket deadlines (shared by every clone of the stream)
    /// from the rendezvous budget to the steady-state comm deadline.
    fn set_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.raw.set_read_timeout(timeout)?;
        self.raw.set_write_timeout(timeout)
    }
}

fn expect_magic(r: &mut impl Read) -> io::Result<()> {
    if wire::read_u64(r)? != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad magic on the SPMD wire (stray connection or protocol mismatch)",
        ));
    }
    Ok(())
}

/// Retry `attempt` with exponential backoff until the rendezvous deadline
/// expires: rank 0 (or a peer's mesh listener) may still be starting, and
/// the previous owner of a reused port may still be releasing it. `what`
/// names the attempt in the final error.
fn retry_until_deadline<T>(
    what: &str,
    mut attempt: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
    let mut pause = RETRY_PAUSE;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(RETRY_PAUSE_CAP);
            }
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("{what} failed within {RENDEZVOUS_TIMEOUT:?}: {e}"),
                ))
            }
        }
    }
}

fn connect_retry(addr: &str) -> io::Result<TcpStream> {
    retry_until_deadline(&format!("rendezvous connect to {addr}"), || {
        TcpStream::connect(addr)
    })
}

/// Accept one connection, polling nonblockingly against `deadline` so a
/// rank that dies before checking in cannot hang the acceptor forever.
fn accept_within(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                listener.set_nonblocking(false)?;
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "rendezvous deadline ({:?}) expired while waiting for peers \
                             to check in (a rank likely died before connecting)",
                            RENDEZVOUS_TIMEOUT
                        ),
                    ));
                }
                std::thread::sleep(RETRY_PAUSE);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Accept connections until one checks in with `MAGIC`, a rank that
/// passes `wanted` and whose `peers` slot is still empty, and whatever
/// `read_rest` reads after the rank. A stray connection (bad magic, an
/// invalid or duplicate rank, or silence past the deadline) is logged and
/// dropped without consuming a slot. Returns `(rank, link, rest)`.
fn accept_checkin<T>(
    listener: &TcpListener,
    deadline: Instant,
    peers: &[Option<RefCell<Peer>>],
    wanted: impl Fn(usize) -> bool,
    mut read_rest: impl FnMut(&mut BufReader<TcpStream>) -> io::Result<T>,
) -> io::Result<(usize, Peer, T)> {
    loop {
        let stream = accept_within(listener, deadline)?;
        // Bound the check-in read by the remaining budget so a silent
        // stray connection cannot stall the rendezvous.
        let Ok(mut peer) = Peer::new(stream, Some(remaining(deadline))) else {
            continue;
        };
        let checkin = (|| -> io::Result<(usize, T)> {
            expect_magic(&mut peer.reader)?;
            let r = wire::read_u64(&mut peer.reader)? as usize;
            Ok((r, read_rest(&mut peer.reader)?))
        })();
        match checkin {
            Ok((r, rest)) if wanted(r) && peers.get(r).is_some_and(|p| p.is_none()) => {
                return Ok((r, peer, rest));
            }
            // Dropping `peer` closes the socket; the slot stays open for
            // the legitimate rank.
            Ok((r, _)) => eprintln!(
                "SocketComm rendezvous: dropped a connection claiming invalid or \
                 duplicate rank {r}"
            ),
            Err(e) => eprintln!("SocketComm rendezvous: dropped a stray connection ({e})"),
        }
    }
}

/// Poll `listener` for one pending connection without blocking — the
/// serving-side accept primitive: a server that owns rank 0 of a warm mesh
/// interleaves this with its scheduling loop, so accepting clients never
/// stalls the SPMD control plane. Returns `Ok(None)` when no connection is
/// pending. The listener is left in nonblocking mode between calls; an
/// accepted stream is switched back to blocking before it is returned.
pub fn poll_accept(listener: &TcpListener) -> io::Result<Option<TcpStream>> {
    listener.set_nonblocking(true)?;
    match listener.accept() {
        Ok((stream, _)) => {
            stream.set_nonblocking(false)?;
            Ok(Some(stream))
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// One rank's endpoint of a TCP process group (see the module docs for the
/// rendezvous protocol and collective algorithms): the crate's collective
/// driver over the socket-mesh transport.
///
/// A `SocketComm` is either the **root** group built by `SocketComm::connect`
/// (members = all mesh ranks, frames tagged with [`wire::ROOT_SCOPE`]) or a
/// **sub-group** produced by [`crate::Communicator::split`]: the same mesh links
/// (shared via `Rc` — a rank's endpoints all live on one thread), a subset
/// of members in new-rank order, and a split-derived scope tag stamped on
/// every frame so collectives of different sub-groups sharing a link can
/// never consume each other's traffic.
pub type SocketComm = Collective<TcpMesh>;

/// Home of the transport type: `pub` so the public [`SocketComm`] alias may
/// mention it, unnameable outside the crate because this module is private.
mod sealed {
    use super::*;

    /// The socket-mesh transport: one group's view of a rank's mesh links.
    pub struct TcpMesh {
        /// This endpoint's rank in the *root* mesh (stable across splits;
        /// the index into `peers`).
        pub(super) world_rank: usize,
        /// Mesh links indexed by **world rank**; `None` at our own slot
        /// (and at every slot when the root group has a single rank).
        pub(super) peers: Rc<Vec<Option<RefCell<Peer>>>>,
        /// Raw (unbuffered) clones of the mesh streams, indexed like
        /// `peers`. Abort frames are written here so a failure diagnosis
        /// never contends with the `RefCell` borrows of an in-flight
        /// collective.
        pub(super) abort_streams: Rc<Vec<Option<TcpStream>>>,
        /// World ranks of this group's members, in group-rank order.
        pub(super) members: Vec<usize>,
        /// My position in `members` (= my rank in this group).
        pub(super) my_pos: usize,
        /// Scope tag prefixed to every collective frame of this group.
        pub(super) scope: u64,
        /// Self-addressed point-to-point frames
        /// (`SocketComm::try_send_bytes` to our own rank): queued here
        /// instead of touching a socket, so the serving layer's control
        /// plane treats rank 0 → rank 0 traffic uniformly with every other
        /// lane.
        pub(super) loopback: RefCell<VecDeque<Vec<u8>>>,
    }
}
use sealed::TcpMesh;

/// Seed salt distinguishing a group's point-to-point lane tag from every
/// [`wire::derive_scope`] sub-group tag (those use small split counters as
/// the `seq` input; this constant is far outside that range).
const P2P_LANE_SALT: u64 = 0xF1AA_9292_0000_0001;

/// Registry behind `SocketComm::install_panic_abort`: (origin world
/// rank, raw mesh stream) pairs the process-wide panic hook writes abort
/// frames to. Kept outside the endpoint so the hook never touches a
/// `RefCell` that may be borrowed at panic time.
static PANIC_ABORT_LINKS: Mutex<Vec<(usize, TcpStream)>> = Mutex::new(Vec::new());

impl SocketComm {
    /// Join a `size`-rank group as `rank`, rendezvousing at `rendezvous`
    /// (rank 0 binds it; everyone else connects). Blocks until the whole
    /// mesh is wired or the rendezvous deadline expires.
    pub fn connect(rank: usize, size: usize, rendezvous: &str) -> io::Result<Self> {
        Self::connect_inner(rank, size, rendezvous, None)
    }

    /// Join a group using env-var coordinates ([`ENV_RANK`], [`ENV_SIZE`],
    /// [`ENV_ADDR`]); `None` when [`ENV_RANK`] is unset, i.e. the process
    /// was not started by an SPMD launcher.
    pub fn from_env() -> Option<io::Result<Self>> {
        let rank_var = std::env::var(ENV_RANK).ok()?;
        let parse = move || -> io::Result<Self> {
            let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidInput, what.to_string());
            let rank: usize = rank_var
                .parse()
                .map_err(|_| bad("unparsable FIRAL_SPMD_RANK"))?;
            let size: usize = std::env::var(ENV_SIZE)
                .map_err(|_| bad("FIRAL_SPMD_SIZE missing"))?
                .parse()
                .map_err(|_| bad("unparsable FIRAL_SPMD_SIZE"))?;
            let addr = std::env::var(ENV_ADDR).map_err(|_| bad("FIRAL_SPMD_ADDR missing"))?;
            Self::connect(rank, size, &addr)
        };
        Some(parse())
    }

    fn connect_inner(
        rank: usize,
        size: usize,
        rendezvous: &str,
        pre_bound: Option<TcpListener>,
    ) -> io::Result<Self> {
        assert!(size > 0, "SPMD group needs at least one rank");
        assert!(rank < size, "rank {rank} out of {size}");
        // Rendezvous-phase fault hook: op-less `FIRAL_FAULT` specs fire
        // here, before this rank has checked in anywhere.
        let _ = FaultPlan::from_env().at_rendezvous(rank);
        let root = |peers: Vec<Option<RefCell<Peer>>>, aborts: Vec<Option<TcpStream>>| TcpMesh {
            world_rank: rank,
            peers: Rc::new(peers),
            abort_streams: Rc::new(aborts),
            members: (0..size).collect(),
            my_pos: rank,
            scope: wire::ROOT_SCOPE,
            loopback: RefCell::new(VecDeque::new()),
        };
        let mut peers: Vec<Option<RefCell<Peer>>> = (0..size).map(|_| None).collect();
        if size == 1 {
            let aborts = (0..size).map(|_| None).collect();
            return Ok(Self::over(root(peers, aborts), wire::ROOT_SCOPE));
        }
        let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;

        if rank == 0 {
            let listener = match pre_bound {
                Some(l) => l,
                None => retry_until_deadline(
                    &format!("bind of the rendezvous address {rendezvous}"),
                    || TcpListener::bind(rendezvous),
                )?,
            };
            let mut addrs: Vec<Option<String>> = vec![None; size];
            for _ in 1..size {
                let (r, peer, addr) =
                    accept_checkin(&listener, deadline, &peers, |r| r >= 1, wire::read_str)?;
                addrs[r] = Some(addr);
                peers[r] = Some(RefCell::new(peer));
            }
            #[allow(
                clippy::expect_used,
                reason = "the accept loop above filled every slot 1..size or returned an error"
            )]
            for r in 1..size {
                let cell = peers[r].as_ref().expect("all ranks checked in");
                let mut p = cell.borrow_mut();
                wire::write_u64(&mut p.writer, MAGIC)?;
                wire::write_u64(&mut p.writer, size as u64)?;
                for a in addrs.iter().skip(1) {
                    let a = a.as_ref().expect("table complete");
                    wire::write_str(&mut p.writer, a)?;
                }
                p.writer.flush()?;
            }
        } else {
            // Our own listener for the mesh links from higher ranks.
            let mesh_listener = TcpListener::bind("127.0.0.1:0")?;
            let my_addr = mesh_listener.local_addr()?.to_string();

            // The table read below waits for *all* ranks to check in, so
            // it is bounded by the full rendezvous budget, not a remainder.
            let mut p0 = Peer::new(connect_retry(rendezvous)?, Some(RENDEZVOUS_TIMEOUT))?;
            wire::write_u64(&mut p0.writer, MAGIC)?;
            wire::write_u64(&mut p0.writer, rank as u64)?;
            wire::write_str(&mut p0.writer, &my_addr)?;
            p0.writer.flush()?;

            expect_magic(&mut p0.reader)?;
            let echoed = wire::read_u64(&mut p0.reader)? as usize;
            if echoed != size {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("group-size mismatch: launcher says {size}, rank 0 says {echoed}"),
                ));
            }
            let mut table = Vec::with_capacity(size - 1);
            for _ in 1..size {
                table.push(wire::read_str(&mut p0.reader)?);
            }
            peers[0] = Some(RefCell::new(p0));

            // Connect towards lower ranks, accept from higher ones.
            for i in 1..rank {
                let mut p = Peer::new(connect_retry(&table[i - 1])?, Some(RENDEZVOUS_TIMEOUT))?;
                wire::write_u64(&mut p.writer, MAGIC)?;
                wire::write_u64(&mut p.writer, rank as u64)?;
                p.writer.flush()?;
                peers[i] = Some(RefCell::new(p));
            }
            for _ in rank + 1..size {
                let (j, p, ()) =
                    accept_checkin(&mesh_listener, deadline, &peers, |j| j > rank, |_| Ok(()))?;
                peers[j] = Some(RefCell::new(p));
            }
        }

        let mut aborts: Vec<Option<TcpStream>> = Vec::with_capacity(size);
        for slot in &peers {
            aborts.push(match slot {
                Some(cell) => Some(cell.borrow().raw.try_clone()?),
                None => None,
            });
        }
        let mesh = root(peers, aborts);
        // Construction is a sync point (like MPI_Init): nobody proceeds
        // until the whole mesh is wired. Still under the rendezvous budget.
        mesh.barrier().map_err(|e| {
            io::Error::new(e.kind(), format!("post-rendezvous barrier failed: {e}"))
        })?;
        // Steady state: flip every link to the communication deadline.
        for cell in mesh.peers.iter().flatten() {
            cell.borrow().set_deadline(comm_timeout())?;
        }
        Ok(Self::over(mesh, wire::ROOT_SCOPE))
    }

    /// The per-rank collective sequence number the *next* collective on
    /// this endpoint will run at — the schedule coordinate that
    /// `FIRAL_FAULT` specs address with `op=` (see [`crate::fault`]).
    pub fn collective_seq(&self) -> u64 {
        self.verify.next_seq()
    }

    /// Install a process-wide panic hook that broadcasts an abort frame on
    /// every mesh link of this endpoint before the panic unwinds, so peers
    /// observe [`CommError::RemoteAbort`] (with the panic text as the
    /// reason) within one deadline instead of hanging until a socket
    /// closes. SPMD launchers call this once per rank right after joining
    /// the mesh; calling it again replaces the registered links.
    pub fn install_panic_abort(&self) {
        let mut links = PANIC_ABORT_LINKS.lock().unwrap_or_else(|p| p.into_inner());
        links.clear();
        for s in self.transport.abort_streams.iter().flatten() {
            if let Ok(clone) = s.try_clone() {
                links.push((self.transport.world_rank, clone));
            }
        }
        drop(links);
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let text = crate::thread_comm::panic_text(info.payload());
                let reason = match info.location() {
                    Some(loc) => format!("panic at {loc}: {text}"),
                    None => format!("panic: {text}"),
                };
                if let Ok(links) = PANIC_ABORT_LINKS.lock() {
                    for (origin, s) in links.iter() {
                        let _ = wire::write_abort(&mut &*s, *origin, &reason);
                    }
                }
                prev(info);
            }));
        });
    }

    /// Send one opaque byte frame point-to-point to group rank `dest`.
    ///
    /// This is the serving layer's control lane (schedules, pool uploads,
    /// per-request results), **not** a collective: the schedule verifier
    /// does not stamp it, [`CommStats`] does not meter it, and the sender
    /// and receiver must agree on frame order per link out-of-band (the
    /// serving protocol's round structure provides that). A send to our own
    /// rank queues the frame on an in-process loopback.
    ///
    /// Failures are diagnosed as [`CommError`] but — unlike collective
    /// failures — neither broadcast an abort frame nor poison the endpoint:
    /// one dead control link must not tear down healthy sub-groups. The
    /// error's `seq` is the endpoint's current collective schedule
    /// coordinate, for cross-referencing with verifier traces.
    pub fn try_send_bytes(&self, dest: usize, payload: &[u8]) -> Result<(), CommError> {
        self.transport
            .send_bytes(dest, payload)
            .map_err(|e| self.p2p_error("send_bytes", e))
    }

    /// Receive one opaque byte frame sent point-to-point by group rank
    /// `src` via `SocketComm::try_send_bytes`.
    ///
    /// `patience` bounds the wait for the frame to *start* arriving —
    /// independent of the steady-state `FIRAL_COMM_TIMEOUT` deadline, which
    /// only governs reads once bytes flow. A server blocked on the next
    /// request and a compute rank idling between rounds legitimately wait
    /// far longer than any per-frame deadline; `None` waits indefinitely
    /// (safe on a live mesh: a dying peer closes the link, which lands here
    /// as EOF, or its abort frame arrives first). Abort frames written by a
    /// failing peer surface as [`CommError::RemoteAbort`] carrying the
    /// origin's diagnosis. Same non-collective, non-aborting contract as
    /// the send side.
    pub fn try_recv_bytes(
        &self,
        src: usize,
        patience: Option<Duration>,
    ) -> Result<Vec<u8>, CommError> {
        self.transport
            .recv_bytes(src, patience)
            .map_err(|e| self.p2p_error("recv_bytes", e))
    }

    /// Diagnosis only — see [`TcpMesh::diagnose`] for why the control lane
    /// stops short of [`Transport::lift`].
    fn p2p_error(&self, op: &'static str, e: io::Error) -> CommError {
        self.transport
            .diagnose(op, self.verify.next_seq(), e, &|| self.trace())
    }
}

impl TcpMesh {
    /// The mesh link to a peer, addressed by **world rank**.
    #[allow(
        clippy::expect_used,
        reason = "callers address peers only; the own-rank slot is the one empty one"
    )]
    fn peer(&self, world: usize) -> RefMut<'_, Peer> {
        self.peers[world]
            .as_ref()
            .expect("no mesh link at this slot (own rank?)")
            .borrow_mut()
    }

    /// Classify a wire failure as a [`CommError`] — diagnosis only, no
    /// abort broadcast and no endpoint poisoning. The collective path wraps
    /// this in [`Transport::lift`]; the point-to-point lane uses it
    /// directly, because a control-plane failure (one dead leader link, an
    /// expired recv patience) must not tear down sub-groups that are still
    /// healthy.
    fn diagnose(&self, op: &'static str, seq: u64, e: io::Error, trace: Trace<'_>) -> CommError {
        let rank = self.my_pos;
        let size = self.members.len();
        if let Some(abort) = e.get_ref().and_then(|i| i.downcast_ref::<AbortMsg>()) {
            return CommError::RemoteAbort {
                rank,
                size,
                op,
                seq,
                origin: abort.origin,
                reason: format!("{}{}", abort.reason, trace()),
            };
        }
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => CommError::DeadlineExceeded {
                rank,
                size,
                op,
                seq,
                after: comm_timeout().unwrap_or(RENDEZVOUS_TIMEOUT),
            },
            io::ErrorKind::InvalidData => CommError::Protocol {
                rank,
                size,
                op,
                seq,
                detail: format!("{e}{}", trace()),
            },
            _ => CommError::PeerDeath {
                rank,
                size,
                op,
                seq,
                detail: format!("{e} (a peer rank likely died){}", trace()),
            },
        }
    }

    /// Best-effort abort broadcast on the raw clones of this **group's**
    /// mesh links, so the group's survivors fail their next frame read with
    /// [`CommError::RemoteAbort`] instead of waiting out the deadline.
    /// Confining the blast radius to `self.members` is what lets disjoint
    /// sub-groups (e.g. concurrent serving requests after a `split`) keep
    /// running when a sibling group dies: other groups only observe the
    /// failure at their next collective that shares a rank with the failed
    /// group, within one deadline. On a root communicator the members are
    /// the whole mesh, so the behaviour there is unchanged. Write failures
    /// are ignored — the link may be the thing that broke.
    fn broadcast_abort(&self, err: &CommError) {
        let reason = err.to_string();
        for &m in &self.members {
            if let Some(s) = &self.abort_streams[m] {
                let _ = wire::write_abort(&mut &*s, self.world_rank, &reason);
            }
        }
    }

    /// Scope tag of this group's point-to-point lane: derived from the
    /// group scope with a reserved salt, so control frames interleaved with
    /// collective traffic on a shared mesh link can never be consumed by a
    /// collective (and vice versa) — a misordered control plane fails as a
    /// scope mismatch, loudly.
    fn p2p_scope(&self) -> u64 {
        wire::derive_scope(self.scope, P2P_LANE_SALT, 0)
    }

    /// The send half of `SocketComm::try_send_bytes`.
    fn send_bytes(&self, dest: usize, payload: &[u8]) -> io::Result<()> {
        assert!(dest < self.members.len(), "p2p dest {dest} out of range");
        if dest == self.my_pos {
            self.loopback.borrow_mut().push_back(payload.to_vec());
            return Ok(());
        }
        let mut p = self.peer(self.members[dest]);
        wire::write_scope(&mut p.writer, self.p2p_scope())?;
        wire::write_bytes(&mut p.writer, payload)?;
        p.writer.flush()
    }

    /// The receive half of `SocketComm::try_recv_bytes`.
    fn recv_bytes(&self, src: usize, patience: Option<Duration>) -> io::Result<Vec<u8>> {
        assert!(src < self.members.len(), "p2p src {src} out of range");
        if src == self.my_pos {
            return self.loopback.borrow_mut().pop_front().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "p2p receive from own rank with an empty loopback queue",
                )
            });
        }
        let world = self.members[src];
        self.await_frame(world, patience)?;
        let mut p = self.peer(world);
        wire::expect_scope(&mut p.reader, self.p2p_scope())?;
        wire::read_bytes(&mut p.reader)
    }

    /// Wait (bounded by `patience`) until at least one byte from `world` is
    /// readable, polling in short slices so the shared socket deadline is
    /// restored to [`comm_timeout`] before any frame payload is read. EOF
    /// while waiting is reported immediately — a dead peer must not consume
    /// the whole patience budget.
    fn await_frame(&self, world: usize, patience: Option<Duration>) -> io::Result<()> {
        const POLL_SLICE: Duration = Duration::from_millis(25);
        let start = Instant::now();
        loop {
            let p = self.peer(world);
            let slice = match patience {
                Some(total) => {
                    let left = total.saturating_sub(start.elapsed());
                    if left.is_zero() {
                        let _ = p.set_deadline(comm_timeout());
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("no p2p frame arrived within the {total:?} patience"),
                        ));
                    }
                    left.min(POLL_SLICE)
                }
                None => POLL_SLICE,
            };
            p.set_deadline(Some(slice.max(Duration::from_millis(1))))?;
            let mut p = p;
            let waited = p.reader.fill_buf().map(|buf| !buf.is_empty());
            let restore = p.set_deadline(comm_timeout());
            match waited {
                Ok(true) => return restore,
                Ok(false) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the link while a p2p frame was awaited",
                    ))
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) =>
                {
                    // Keep polling until the patience budget expires.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The one hub-shaped exchange behind every collective but `bcast`:
    /// each member writes one scope-tagged frame of `state` to the group
    /// hub; the hub `absorb`s them **in group-rank order** (bitwise
    /// identical to [`crate::ThreadComm`]'s deposit/combine and, for
    /// sub-groups, to a root group of the same size), then writes the
    /// combined `state` back on every link, where the members `accept` it.
    /// `write` is the frame codec for both directions.
    fn via_hub<S>(
        &self,
        state: &mut S,
        write: impl Fn(&S, &mut BufWriter<TcpStream>) -> io::Result<()>,
        mut absorb: impl FnMut(&mut S, usize, &mut BufReader<TcpStream>) -> io::Result<()>,
        accept: impl FnOnce(&mut S, &mut BufReader<TcpStream>) -> io::Result<()>,
    ) -> io::Result<()> {
        if self.my_pos == 0 {
            for (pos, &m) in self.members.iter().enumerate().skip(1) {
                let mut p = self.peer(m);
                wire::expect_scope(&mut p.reader, self.scope)?;
                absorb(state, pos, &mut p.reader)?;
            }
            for &m in &self.members[1..] {
                let mut p = self.peer(m);
                wire::write_scope(&mut p.writer, self.scope)?;
                write(state, &mut p.writer)?;
                p.writer.flush()?;
            }
        } else {
            let mut p = self.peer(self.members[0]);
            wire::write_scope(&mut p.writer, self.scope)?;
            write(state, &mut p.writer)?;
            p.writer.flush()?;
            wire::expect_scope(&mut p.reader, self.scope)?;
            accept(state, &mut p.reader)?;
        }
        Ok(())
    }
}

/// Read one fixed-size frame (a [`MaxLoc`] record, a [`Fingerprint`]).
fn read_frame<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut frame = [0u8; N];
    r.read_exact(&mut frame)?;
    Ok(frame)
}

impl Transport for TcpMesh {
    type Raw = io::Error;

    fn rank(&self) -> usize {
        self.my_pos
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn fault_rank(&self) -> usize {
        self.world_rank
    }

    /// Shut down every mesh stream in both directions (the `drop-conn`
    /// injection, also used directly by chaos tests).
    fn inject_drop(&self) {
        for s in self.abort_streams.iter().flatten() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Diagnose a wire failure as a [`CommError`], broadcasting an abort
    /// frame for *original* failures (a received abort is not re-broadcast,
    /// so abort storms terminate).
    fn lift(&self, op: &'static str, seq: u64, e: io::Error, trace: Trace<'_>) -> CommError {
        let err = self.diagnose(op, seq, e, trace);
        if !matches!(err, CommError::RemoteAbort { .. }) {
            self.broadcast_abort(&err);
        }
        err
    }

    /// Preamble frames on the group's scope-tagged links. The exchange
    /// always flows member → hub → member regardless of the collective's
    /// own data flow, so even kind mismatches whose data phases would
    /// deadlock (one rank in `bcast`, its peer in `allreduce`) abort with
    /// a diagnostic instead.
    fn exchange_fingerprint(
        &self,
        own: &Fingerprint,
        mut check: impl FnMut(usize, Option<Fingerprint>),
    ) -> io::Result<()> {
        self.via_hub(
            &mut check,
            |_, w| w.write_all(&own.encode()),
            |check, pos, r| read_frame(r).map(|f| check(pos, Fingerprint::decode(&f))),
            |check, r| read_frame(r).map(|f| check(0, Fingerprint::decode(&f))),
        )
    }

    fn barrier(&self) -> io::Result<()> {
        self.via_hub(&mut (), |_, _| Ok(()), |_, _, _| Ok(()), |_, _| Ok(()))
    }

    fn allreduce(&self, buf: &mut [f64], op: ReduceOp) -> io::Result<()> {
        // The staging buffer is sized on first use, i.e. only on the hub.
        self.via_hub(
            &mut (buf, Vec::new()),
            |(buf, _), w| wire::write_f64s(w, buf),
            |(buf, contrib), _, r| {
                contrib.resize(buf.len(), 0.0);
                wire::read_f64s_into(r, contrib)?;
                for (b, v) in buf.iter_mut().zip(contrib.iter()) {
                    *b = op.combine(*b, *v);
                }
                Ok(())
            },
            |(buf, _), r| wire::read_f64s_into(r, buf),
        )
    }

    /// The one collective that bypasses the hub: `root` writes its buffer
    /// on its direct mesh link to every other member.
    fn bcast(&self, buf: &mut [f64], root: usize) -> io::Result<()> {
        let root_world = self.members[root];
        if self.my_pos == root {
            for &m in &self.members {
                if m == root_world {
                    continue;
                }
                let mut p = self.peer(m);
                wire::write_scope(&mut p.writer, self.scope)?;
                wire::write_f64s(&mut p.writer, buf)?;
                p.writer.flush()?;
            }
        } else {
            let mut p = self.peer(root_world);
            wire::expect_scope(&mut p.reader, self.scope)?;
            wire::read_f64s_into(&mut p.reader, buf)?;
        }
        Ok(())
    }

    fn allgatherv(&self, local: &[f64]) -> io::Result<Vec<f64>> {
        let mut out = local.to_vec();
        self.via_hub(
            &mut out,
            |out, w| wire::write_f64s(w, out),
            |out, _, r| wire::read_f64s(r).map(|theirs| out.extend(theirs)),
            |out, r| wire::read_f64s(r).map(|all| *out = all),
        )?;
        Ok(out)
    }

    fn maxloc(&self, own: MaxLoc) -> io::Result<MaxLoc> {
        let mut best = own;
        // Absorbing in group-rank order, one pair at a time, *is* the
        // rank-ordered scan: the earlier record survives a tie.
        self.via_hub(
            &mut best,
            |best, w| w.write_all(&best.encode()),
            |best, _, r| {
                let theirs = MaxLoc::decode(&read_frame(r)?);
                *best = MaxLoc::reduce_rank_ordered([*best, theirs]);
                Ok(())
            },
            |best, r| read_frame(r).map(|f| *best = MaxLoc::decode(&f)),
        )?;
        Ok(best)
    }

    /// No traffic: a sub-group is the same mesh links under a new scope.
    fn sub_group(&self, members: &[usize], my_pos: usize, scope: u64) -> io::Result<Self> {
        Ok(TcpMesh {
            world_rank: self.world_rank,
            peers: Rc::clone(&self.peers),
            abort_streams: Rc::clone(&self.abort_streams),
            members: members.iter().map(|&pos| self.members[pos]).collect(),
            my_pos,
            scope,
            loopback: RefCell::new(VecDeque::new()),
        })
    }

    /// First use of the new scope is a barrier: a wiring or ordering
    /// mistake fails loudly at split time, not at the first collective.
    fn open(&self) -> io::Result<()> {
        self.barrier()
    }
}

/// Reserve a free localhost rendezvous address by binding an ephemeral
/// port and releasing it. The launcher hands the address to all ranks and
/// rank 0 re-binds it; the window between release and re-bind is the
/// standard (tiny) ephemeral-port race.
pub fn free_rendezvous_addr() -> io::Result<String> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    Ok(listener.local_addr()?.to_string())
}

/// One rank's exit, as [`fork_self`]'s supervisor records it.
#[derive(Clone, Copy)]
struct RankExit {
    /// The rank (= child index).
    rank: usize,
    /// Raw exit code; signal deaths surface as `-1`.
    code: i32,
    /// Whether the supervisor killed this rank after the failure grace
    /// period expired (the code then reflects the kill, not its own work).
    reaped: bool,
}

/// Grace period survivors get to exit with their own diagnosis after the
/// first rank fails, before the supervisor kills the stragglers. Scaled
/// from the communication deadline when one is configured, so a
/// cooperative abort has time to propagate; generous otherwise.
fn failure_grace() -> Duration {
    comm_timeout()
        .map(|t| t * 4)
        .unwrap_or(Duration::from_secs(10))
        .max(Duration::from_secs(1))
}

/// Parent side of an SPMD process launch: re-execute the current binary
/// `size` times with identical arguments and the [`ENV_RANK`]/[`ENV_SIZE`]/
/// [`ENV_ADDR`] coordinates set, inheriting stdio, and wait for all ranks.
///
/// Returns the first non-zero child exit code (0 when every rank
/// succeeded), printing a per-rank exit report to stderr on failure.
///
/// When a rank fails, the survivors get a grace period to observe the
/// failure cooperatively — via an abort frame or the communication
/// deadline — and exit with their own structured diagnosis. Only ranks
/// still running after the grace period are killed, and every child is
/// reaped before this returns, so no orphan outlives the launcher either
/// way.
pub fn fork_self(size: usize) -> io::Result<i32> {
    assert!(size > 0, "SPMD launch needs at least one rank");
    let exe = std::env::current_exe()?;
    let args: Vec<std::ffi::OsString> = std::env::args_os().skip(1).collect();
    let addr = free_rendezvous_addr()?;
    let mut children = Vec::with_capacity(size);
    for rank in 0..size {
        children.push(
            Command::new(&exe)
                .args(&args)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, size.to_string())
                .env(ENV_ADDR, &addr)
                .spawn()?,
        );
    }
    let report = supervise(&mut children)?;
    let first = report.iter().map(|r| r.code).find(|&c| c != 0).unwrap_or(0);
    if first != 0 {
        eprintln!("spmd: per-rank exit report:");
        for r in &report {
            let what = match r.code {
                0 => "ok".to_string(),
                KILL_EXIT_CODE => format!("exit {KILL_EXIT_CODE} (injected kill)"),
                c => format!("exit {c}"),
            };
            let how = if r.reaped {
                " (killed by supervisor after the grace period)"
            } else {
                ""
            };
            eprintln!("spmd:   rank {}: {what}{how}", r.rank);
        }
    }
    Ok(first)
}

fn supervise(children: &mut [Child]) -> io::Result<Vec<RankExit>> {
    let size = children.len();
    let mut exits: Vec<Option<RankExit>> = vec![None; size];
    let mut first_failure: Option<Instant> = None;
    loop {
        let mut all_done = true;
        for (rank, child) in children.iter_mut().enumerate() {
            if exits[rank].is_some() {
                continue;
            }
            match child.try_wait()? {
                Some(status) => {
                    // Signal deaths surface as a generic failure code.
                    let code = status.code().unwrap_or(-1);
                    exits[rank] = Some(RankExit {
                        rank,
                        code,
                        reaped: false,
                    });
                    if code != 0 && first_failure.is_none() {
                        first_failure = Some(Instant::now());
                    }
                }
                None => all_done = false,
            }
        }
        if all_done {
            break;
        }
        if let Some(t0) = first_failure {
            if t0.elapsed() > failure_grace() {
                for (rank, child) in children.iter_mut().enumerate() {
                    if exits[rank].is_none() {
                        let _ = child.kill();
                        let code = child.wait().map(|s| s.code().unwrap_or(-1)).unwrap_or(-1);
                        exits[rank] = Some(RankExit {
                            rank,
                            code,
                            reaped: true,
                        });
                    }
                }
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    #[allow(
        clippy::expect_used,
        reason = "the loop leaves only once every slot holds an exit, reaped or killed"
    )]
    let report = exits
        .into_iter()
        .map(|e| e.expect("every rank reported"))
        .collect();
    Ok(report)
}

/// Run an SPMD closure on `p` ranks held by OS threads whose endpoints
/// communicate over real localhost TCP — the drop-in socket-backend
/// counterpart of [`crate::launch`], used by tests and the scaling
/// harnesses. Results are collected in rank order.
///
/// ```
/// let sums = firal_comm::socket_launch(3, |comm| {
///     use firal_comm::{Communicator, ReduceOp};
///     let mut x = vec![(comm.rank() + 1) as f64];
///     comm.allreduce_f64(&mut x, ReduceOp::Sum);
///     x[0]
/// });
/// assert_eq!(sums, vec![6.0, 6.0, 6.0]);
/// ```
pub fn socket_launch<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&SocketComm) -> R + Sync,
{
    assert!(p > 0, "socket_launch needs at least one rank");
    // Bind the rendezvous listener up front (no release/re-bind race) and
    // hand it to rank 0 directly.
    #[allow(
        clippy::expect_used,
        reason = "bootstrap path: no mesh exists yet, so a bind failure is a launcher error, not a survivable collective failure"
    )]
    let listener = TcpListener::bind("127.0.0.1:0").expect("no free localhost port");
    #[allow(
        clippy::expect_used,
        reason = "bootstrap path: the listener was just bound, so a missing local address is a platform bug worth dying on"
    )]
    let addr = listener
        .local_addr()
        .expect("rendezvous address unavailable")
        .to_string();
    let mut rank0_listener = Some(listener);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let addr = addr.clone();
                let pre_bound = if rank == 0 {
                    rank0_listener.take()
                } else {
                    None
                };
                let f = &f;
                scope.spawn(move || {
                    #[allow(
                        clippy::expect_used,
                        reason = "bootstrap path: rendezvous failure in the in-process harness is a test-setup error with nobody left to report to"
                    )]
                    let comm = SocketComm::connect_inner(rank, p, &addr, pre_bound)
                        .expect("socket rendezvous failed");
                    f(&comm)
                })
            })
            .collect();
        #[allow(
            clippy::expect_used,
            reason = "a rank thread's panic re-raises in the caller, as in `thread_comm::launch`"
        )]
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("SPMD rank panicked"));
        joined.collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Communicator;

    #[test]
    fn single_rank_group_needs_no_sockets() {
        let comm = SocketComm::connect(0, 1, "127.0.0.1:1").expect("p=1 must not dial");
        let mut buf = vec![3.0];
        comm.allreduce_f64(&mut buf, ReduceOp::Sum);
        assert_eq!(buf, vec![3.0]);
        assert_eq!(comm.allgatherv_f64(&[1.0, 2.0]), vec![1.0, 2.0]);
        assert_eq!(comm.allreduce_maxloc(5.0, 9), (5.0, 9));
        assert_eq!(comm.stats().allreduce_calls, 2);
    }

    #[test]
    fn from_env_is_none_outside_spmd() {
        // The test harness never sets the rank var globally.
        assert!(std::env::var(ENV_RANK).is_err());
        assert!(SocketComm::from_env().is_none());
    }

    #[test]
    fn collective_seq_advances_per_schedule_point() {
        let comm = SocketComm::connect(0, 1, "127.0.0.1:1").expect("p=1 must not dial");
        assert_eq!(comm.collective_seq(), 0);
        let mut buf = vec![1.0];
        comm.allreduce_f64(&mut buf, ReduceOp::Sum);
        assert_eq!(comm.collective_seq(), 1);
        comm.barrier();
        assert_eq!(comm.collective_seq(), 2);
    }

    #[test]
    fn stray_connection_with_bad_magic_is_dropped() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("port");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|s| {
            let a0 = addr.clone();
            let h0 = s.spawn(move || {
                let comm = SocketComm::connect_inner(0, 2, &a0, Some(listener))
                    .expect("rank 0 rendezvous must survive the stray");
                let mut buf = vec![1.0];
                comm.allreduce_f64(&mut buf, ReduceOp::Sum);
                buf[0]
            });
            // A stray client checks in with a bad magic word and hangs up;
            // rank 0 must drop it and still admit the real rank 1.
            let stray = TcpStream::connect(&addr).expect("stray connect");
            (&stray)
                .write_all(&0xDEAD_BEEF_DEAD_BEEFu64.to_le_bytes())
                .expect("stray write");
            drop(stray);
            let a1 = addr.clone();
            let h1 = s.spawn(move || {
                let comm = SocketComm::connect(1, 2, &a1).expect("rank 1 rendezvous");
                let mut buf = vec![2.0];
                comm.allreduce_f64(&mut buf, ReduceOp::Sum);
                buf[0]
            });
            assert_eq!(h0.join().expect("rank 0"), 3.0);
            assert_eq!(h1.join().expect("rank 1"), 3.0);
        });
    }

    #[test]
    fn dead_peer_mid_collective_yields_structured_errors_not_deadlock() {
        let results = socket_launch(3, |comm| {
            if comm.rank() == 1 {
                // Die silently: drop the endpoint without participating.
                return None;
            }
            let mut buf = vec![1.0];
            let err = comm
                .try_allreduce_f64(&mut buf, ReduceOp::Sum)
                .expect_err("a peer died — the collective cannot complete");
            let replay = comm
                .try_barrier()
                .expect_err("a failed endpoint stays poisoned");
            Some((err, replay))
        });
        for (rank, r) in results.into_iter().enumerate() {
            if rank == 1 {
                continue;
            }
            let (err, replay) = r.expect("survivor result");
            assert_eq!(err, replay, "poisoned endpoint replays the first failure");
            match &err {
                CommError::PeerDeath { .. } | CommError::RemoteAbort { .. } => {}
                other => panic!("unexpected error class: {other}"),
            }
            assert_eq!(err.op(), "allreduce_f64");
        }
    }

    #[test]
    fn p2p_byte_frames_roundtrip_and_interleave_with_collectives() {
        let results = socket_launch(3, |comm| {
            // Rank 0 sends a distinct frame to everyone (itself included,
            // via the loopback), a collective runs on the shared links, and
            // rank 0 then collects a reply from each rank — the serving
            // round shape.
            if comm.rank() == 0 {
                for dest in 0..3 {
                    comm.try_send_bytes(dest, format!("task-{dest}").as_bytes())
                        .expect("send");
                }
            }
            let task = comm
                .try_recv_bytes(0, Some(Duration::from_secs(5)))
                .expect("recv task");
            let mut buf = vec![1.0];
            comm.allreduce_f64(&mut buf, ReduceOp::Sum);
            comm.try_send_bytes(0, format!("done:{}", comm.rank()).as_bytes())
                .expect("reply");
            let replies = if comm.rank() == 0 {
                (0..3)
                    .map(|src| {
                        let b = comm
                            .try_recv_bytes(src, Some(Duration::from_secs(5)))
                            .expect("collect");
                        String::from_utf8(b).expect("utf8")
                    })
                    .collect()
            } else {
                Vec::new()
            };
            (String::from_utf8(task).expect("utf8"), buf[0], replies)
        });
        for (rank, (task, sum, replies)) in results.into_iter().enumerate() {
            assert_eq!(task, format!("task-{rank}"));
            assert_eq!(sum, 3.0);
            if rank == 0 {
                assert_eq!(replies, vec!["done:0", "done:1", "done:2"]);
            }
        }
    }

    #[test]
    fn p2p_is_invisible_to_stats_and_the_collective_schedule() {
        let results = socket_launch(2, |comm| {
            let seq0 = comm.collective_seq();
            if comm.rank() == 0 {
                comm.try_send_bytes(1, b"ping").expect("send");
            } else {
                let got = comm
                    .try_recv_bytes(0, Some(Duration::from_secs(5)))
                    .expect("recv");
                assert_eq!(got, b"ping");
            }
            (comm.collective_seq() - seq0, comm.stats())
        });
        for (dseq, stats) in results {
            assert_eq!(dseq, 0, "p2p must not advance the collective schedule");
            assert_eq!(stats.total_calls(), 0, "p2p must not be metered");
        }
    }

    #[test]
    fn p2p_recv_patience_expires_as_a_structured_deadline_error() {
        let results = socket_launch(2, |comm| {
            if comm.rank() == 0 {
                // Never send: rank 1's patience must expire on its own.
                comm.barrier();
                return None;
            }
            let err = comm
                .try_recv_bytes(0, Some(Duration::from_millis(120)))
                .expect_err("nothing was sent");
            // The endpoint is NOT poisoned: collectives still work after a
            // control-plane timeout.
            comm.barrier();
            Some(err)
        });
        let err = results[1].clone().expect("rank 1 error");
        assert!(
            matches!(err, CommError::DeadlineExceeded { .. }),
            "unexpected class: {err}"
        );
        assert_eq!(err.op(), "recv_bytes");
    }

    #[test]
    fn p2p_recv_from_dead_peer_reports_eof_not_patience_exhaustion() {
        let t0 = Instant::now();
        let results = socket_launch(2, |comm| {
            if comm.rank() == 0 {
                return None; // Drop the endpoint: links close.
            }
            Some(comm.try_recv_bytes(0, Some(Duration::from_secs(30))))
        });
        let err = results[1].clone().expect("rank 1 ran").expect_err("EOF");
        assert!(
            matches!(err, CommError::PeerDeath { .. }),
            "unexpected class: {err}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "EOF must not burn the whole patience budget"
        );
    }

    #[test]
    fn poll_accept_is_nonblocking_and_accepts_when_a_client_arrives() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        assert!(poll_accept(&listener).expect("poll").is_none());
        let _client = TcpStream::connect(addr).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(stream) = poll_accept(&listener).expect("poll") {
                assert!(stream.peer_addr().is_ok());
                break;
            }
            assert!(
                Instant::now() < deadline,
                "accept never observed the client"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn severed_links_surface_as_structured_errors_on_all_ranks() {
        // Rank 1 severs every one of its links before the collective (the
        // `drop-conn` injection path, exercised directly). Rank 0 observes
        // the dead link and broadcasts an abort; rank 2's own link to the
        // hub is healthy, so only the abort (or the hub failing in turn)
        // can unblock it.
        let results = socket_launch(3, |comm| {
            if comm.rank() == 1 {
                comm.transport.inject_drop();
            }
            let mut buf = vec![1.0];
            comm.try_allreduce_f64(&mut buf, ReduceOp::Sum).err()
        });
        for (rank, err) in results.into_iter().enumerate() {
            let err = err.unwrap_or_else(|| panic!("rank {rank} must observe the failure"));
            match &err {
                CommError::PeerDeath { .. } | CommError::RemoteAbort { .. } => {}
                other => panic!("rank {rank}: unexpected error class: {other}"),
            }
        }
    }
}
