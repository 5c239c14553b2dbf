//! Deterministic fault injection for chaos-testing the collective layer.
//!
//! A `FaultPlan` (crate-internal) is parsed once per process from [`FAULT_ENV`]
//! (`FIRAL_FAULT`) and consulted at two hook points: by the collective
//! driver at the top of each collective (keyed off the per-rank collective
//! sequence number the schedule verifier tracks, so an injection lands at
//! exactly the same schedule point on every run) and during socket
//! rendezvous.
//!
//! `rank=` addresses the **world** rank on [`crate::SocketComm`] — a spec
//! follows its process into every sub-group `split` makes, which is what
//! the multi-process fault matrix plans around — and the **group** rank of
//! the endpoint issuing the collective on [`crate::ThreadComm`] (and 0 on
//! [`crate::SelfComm`]).
//!
//! A **group of one** never reaches its transport — the driver answers its
//! collectives itself — so on `SelfComm`, on `launch(1)`/`socket_launch(1)`
//! and on singleton sub-groups of any backend a `drop-conn` (or a barrier
//! poisoned by another endpoint) does not surface at that endpoint's own
//! collectives: there is no peer to lose. `kill` and `stall` fire there as
//! everywhere. The drop itself is still carried out, so on the socket mesh
//! the severed links fail the process's next collective on any group that
//! has peers; a shared-memory group of one has nothing else to damage.
//!
//! Grammar — `;`-separated specs, each `action:key=value,...`:
//!
//! ```text
//! kill:rank=2,op=14        exit/panic on rank 2 at collective #14
//! stall:rank=1,op=7,ms=500 sleep 500 ms on rank 1 at collective #7
//! drop-conn:rank=3,op=9    sever rank 3's mesh links at collective #9
//! kill:rank=0              op omitted: fire during rendezvous
//! ```
//!
//! Each spec fires at most once per process. `kill` exits with status
//! [`KILL_EXIT_CODE`] in SPMD child processes (so the parent's exit report
//! can attribute it) and panics in thread-backend ranks; `stall` sleeps —
//! the failure only materializes if the stall outlives the configured
//! communication deadline; `drop-conn` is returned to the backend, which
//! severs its own transport. The grammar and the survivability matrix are
//! documented in `ARCHITECTURE.md` ("Failure model").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Environment variable holding the fault plan. Unset means no injection;
/// a malformed plan is a loud startup panic, never a silently ignored one.
pub const FAULT_ENV: &str = "FIRAL_FAULT";

/// Exit status used by an injected `kill` in an SPMD child process, chosen
/// to be distinguishable from both success and a raised-`CommError` exit
/// in the fault matrix's per-rank exit report.
pub const KILL_EXIT_CODE: i32 = 113;

/// A fault action a backend must carry out itself (in contrast to `kill`
/// and `stall`, which the plan executes internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injected {
    /// Sever every transport link of this endpoint, then continue into the
    /// collective so the failure is observed as a structured error.
    DropConn,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Kill,
    Stall,
    DropConn,
}

#[derive(Debug)]
struct FaultSpec {
    action: Action,
    rank: usize,
    /// Collective sequence number to fire at; `None` fires at rendezvous.
    op: Option<u64>,
    /// Stall duration (ms); only meaningful for [`Action::Stall`].
    ms: u64,
    fired: AtomicBool,
}

/// The parsed, process-wide fault plan.
#[derive(Debug, Default)]
pub(crate) struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parse a plan from the [`FAULT_ENV`] grammar.
    fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut specs = Vec::new();
        for spec in text.split(';') {
            let spec = spec.trim();
            if spec.is_empty() {
                continue;
            }
            let (action, args) = spec
                .split_once(':')
                .ok_or_else(|| format!("fault spec {spec:?} has no `action:` prefix"))?;
            let action = match action.trim() {
                "kill" => Action::Kill,
                "stall" => Action::Stall,
                "drop-conn" => Action::DropConn,
                other => {
                    return Err(format!(
                        "unknown fault action {other:?} (expected kill, stall, or drop-conn)"
                    ))
                }
            };
            let mut rank = None;
            let mut op = None;
            let mut ms = None;
            for kv in args.split(',') {
                let (key, value) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("fault arg {kv:?} is not key=value"))?;
                let value: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault arg {kv:?} has a non-integer value"))?;
                match key.trim() {
                    "rank" => rank = Some(value as usize),
                    "op" => op = Some(value),
                    "ms" => ms = Some(value),
                    other => return Err(format!("unknown fault arg key {other:?}")),
                }
            }
            let rank = rank.ok_or_else(|| format!("fault spec {spec:?} is missing rank="))?;
            if action == Action::Stall && ms.is_none() {
                return Err(format!("stall spec {spec:?} is missing ms="));
            }
            specs.push(FaultSpec {
                action,
                rank,
                op,
                ms: ms.unwrap_or(0),
                fired: AtomicBool::new(false),
            });
        }
        Ok(FaultPlan { specs })
    }

    /// The process-wide plan from [`FAULT_ENV`]; empty when unset.
    pub(crate) fn from_env() -> &'static FaultPlan {
        static PLAN: OnceLock<FaultPlan> = OnceLock::new();
        PLAN.get_or_init(|| match std::env::var(FAULT_ENV) {
            Ok(text) => FaultPlan::parse(&text)
                .unwrap_or_else(|e| panic!("{FAULT_ENV}={text:?} did not parse: {e}")),
            Err(_) => FaultPlan::default(),
        })
    }

    /// Fire any spec matching `(rank, seq)` at a collective hook point.
    /// `kill` and `stall` are executed here; an action the backend must
    /// perform itself is returned.
    pub(crate) fn at_collective(&self, rank: usize, seq: u64) -> Option<Injected> {
        self.fire(rank, Some(seq))
    }

    /// Fire any op-less spec matching `rank` during rendezvous.
    pub(crate) fn at_rendezvous(&self, rank: usize) -> Option<Injected> {
        self.fire(rank, None)
    }

    fn fire(&self, rank: usize, seq: Option<u64>) -> Option<Injected> {
        let mut injected = None;
        for spec in &self.specs {
            if spec.rank != rank || spec.op != seq {
                continue;
            }
            if spec.fired.swap(true, Ordering::Relaxed) {
                continue;
            }
            match spec.action {
                Action::Kill => {
                    let at = match seq {
                        Some(op) => format!("collective #{op}"),
                        None => "rendezvous".to_string(),
                    };
                    // In a real SPMD child the injected death must look like
                    // a crashed process, not an unwound thread.
                    if std::env::var(crate::socket_comm::ENV_RANK).is_ok() {
                        eprintln!("{FAULT_ENV}: injected kill on rank {rank} at {at}");
                        std::process::exit(KILL_EXIT_CODE);
                    }
                    panic!("{FAULT_ENV}: injected kill on rank {rank} at {at}");
                }
                Action::Stall => std::thread::sleep(Duration::from_millis(spec.ms)),
                Action::DropConn => injected = Some(Injected::DropConn),
            }
        }
        injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let plan = FaultPlan::parse("kill:rank=2,op=14; stall:rank=1,op=7,ms=500;drop-conn:rank=3")
            .expect("valid plan");
        assert_eq!(plan.specs.len(), 3);
        assert_eq!(plan.specs[0].action, Action::Kill);
        assert_eq!(plan.specs[0].rank, 2);
        assert_eq!(plan.specs[0].op, Some(14));
        assert_eq!(plan.specs[1].action, Action::Stall);
        assert_eq!(plan.specs[1].ms, 500);
        assert_eq!(plan.specs[2].action, Action::DropConn);
        assert_eq!(plan.specs[2].op, None, "op-less specs fire at rendezvous");
    }

    #[test]
    fn malformed_plans_are_loud() {
        for bad in [
            "explode:rank=1",
            "kill:op=3",
            "stall:rank=1,op=2",
            "kill:rank=x",
            "kill:rank",
            "kill:rank=1,color=2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(FaultPlan::parse("")
            .expect("empty is fine")
            .specs
            .is_empty());
    }

    #[test]
    fn specs_fire_once_at_their_exact_schedule_point() {
        let plan = FaultPlan::parse("drop-conn:rank=3,op=9").expect("valid");
        assert_eq!(plan.at_collective(3, 8), None, "wrong seq");
        assert_eq!(plan.at_collective(2, 9), None, "wrong rank");
        assert_eq!(plan.at_rendezvous(3), None, "op'd spec skips rendezvous");
        assert_eq!(plan.at_collective(3, 9), Some(Injected::DropConn));
        assert_eq!(plan.at_collective(3, 9), None, "fires at most once");
    }

    #[test]
    fn stall_executes_inline_and_rendezvous_specs_match_oplessly() {
        let plan = FaultPlan::parse("stall:rank=0,op=1,ms=1; drop-conn:rank=1").expect("valid");
        // A fired stall returns no backend action.
        assert_eq!(plan.at_collective(0, 1), None);
        assert_eq!(plan.at_rendezvous(1), Some(Injected::DropConn));
    }
}
