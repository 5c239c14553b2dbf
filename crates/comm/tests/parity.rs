//! Billing and schedule parity: what the collective driver books and where
//! its schedule points fall is the same on every backend — the counts
//! `comm.calls_per_select` / `comm.bytes_per_select` and every `FIRAL_FAULT`
//! plan key on — and a failed endpoint replays its first error verbatim.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

use firal_comm::{launch, socket_launch, CommError, CommStats, Communicator, ReduceOp, SelfComm};

/// All six collectives, a nested `split`, and collectives on both
/// sub-groups; returns the (parent, sub-group, nested sub-group) records
/// with the clock zeroed (wall time is the one lane allowed to differ).
fn script(comm: &dyn Communicator) -> [CommStats; 3] {
    comm.barrier();
    comm.allreduce_f64(&mut [1.0, 2.0, 3.0], ReduceOp::Sum);
    comm.bcast_f64(&mut [0.5; 5], comm.size() - 1);
    comm.allgatherv_f64(&vec![1.0; comm.rank() + 2]);
    comm.allreduce_maxloc(comm.rank() as f64, 7);
    let sub = comm.split(comm.rank() % 2, comm.rank());
    sub.allreduce_f64(&mut [0.0; 7], ReduceOp::Max);
    sub.allreduce_maxloc(1.0, sub.rank() as u64);
    let nested = sub.split(0, sub.size() - sub.rank());
    nested.allgatherv_f64(&[4.0, 2.0]);
    nested.barrier();
    [comm.stats(), sub.stats(), nested.stats()].map(|s| CommStats {
        time: Duration::ZERO,
        ..s
    })
}

#[test]
fn commstats_are_field_for_field_equal_across_backends() {
    let alone = script(&SelfComm::new());
    // Pinned once in absolute terms: allreduce + MAXLOC (24 + 16 bytes),
    // one bcast (40), own allgather + split membership (16 + 16).
    let parent = CommStats {
        allreduce_calls: 2,
        allreduce_bytes: 40,
        bcast_calls: 1,
        bcast_bytes: 40,
        allgather_calls: 2,
        allgather_bytes: 32,
        time: Duration::ZERO,
    };
    assert_eq!(alone[0], parent);
    assert_eq!(
        (alone[1].allreduce_calls, alone[1].allreduce_bytes),
        (2, 72)
    );
    assert_eq!((alone[1].allgather_calls, alone[2].allgather_calls), (1, 1));
    for p in [1usize, 2, 4] {
        let thread = launch(p, |comm| script(comm));
        let socket = socket_launch(p, |comm| script(comm));
        assert_eq!(thread, socket, "ThreadComm vs SocketComm at p={p}");
        if p == 1 {
            assert_eq!(thread, vec![alone], "SelfComm vs ThreadComm");
        }
    }
}

#[test]
fn schedule_points_per_collective_are_pinned() {
    // One schedule point per collective; `split` takes two (itself and its
    // membership allgather); sub-group traffic and the p2p lane take none
    // of the parent's. FIRAL_FAULT `op=` coordinates depend on exactly this.
    let deltas = socket_launch(2, |comm| {
        let mut at = comm.collective_seq();
        let mut step = |comm: &firal_comm::SocketComm| {
            let d = comm.collective_seq() - at;
            at += d;
            d
        };
        comm.barrier();
        let barrier = step(comm);
        comm.allreduce_f64(&mut [1.0], ReduceOp::Min);
        let allreduce = step(comm);
        comm.bcast_f64(&mut [1.0], 1);
        let bcast = step(comm);
        comm.allgatherv_f64(&[1.0]);
        let allgatherv = step(comm);
        comm.allreduce_maxloc(1.0, 1);
        let maxloc = step(comm);
        let sub = comm.split(0, comm.rank());
        let split = step(comm);
        sub.barrier();
        sub.allreduce_f64(&mut [1.0], ReduceOp::Sum);
        [
            barrier,
            allreduce,
            bcast,
            allgatherv,
            maxloc,
            split,
            step(comm),
        ]
    });
    assert_eq!(deltas, vec![[1, 1, 1, 1, 1, 2, 0]; 2]);
}

/// Two good allreduces, then the group loses rank 1: the survivor's next
/// collective fails at schedule point 2, and every later call — whatever
/// the collective — replays that same error instead of running.
fn fail_then_replay(comm: &dyn Communicator) -> CommError {
    let first = comm
        .try_allgatherv_f64(&[1.0])
        .expect_err("a peer is gone; the collective cannot complete");
    assert_eq!((first.op(), first.seq()), ("allgatherv_f64", 2));
    assert_eq!(comm.try_barrier(), Err(first.clone()));
    assert_eq!(comm.try_allreduce_maxloc(1.0, 1), Err(first.clone()));
    assert_eq!(comm.try_split(0, 0).err(), Some(first.clone()));
    first
}

fn two_good_allreduces(comm: &dyn Communicator) {
    for _ in 0..2 {
        comm.allreduce_f64(&mut [1.0], ReduceOp::Sum);
    }
}

#[test]
fn poisoned_thread_endpoint_replays_the_same_error() {
    let seen = Mutex::new(Vec::new());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        launch(3, |comm| {
            two_good_allreduces(comm);
            if comm.rank() == 1 {
                panic!("rank 1 leaves the group");
            }
            seen.lock().expect("seen lock").push(fail_then_replay(comm));
        })
    }));
    assert!(outcome.is_err(), "the panicking rank propagates its panic");
    let seen = seen.into_inner().expect("seen lock");
    assert_eq!(seen.len(), 2, "both survivors observed the failure");
    for e in seen {
        // Structured, naming the dead rank and carrying its panic text.
        match e {
            CommError::RemoteAbort {
                origin: 1, reason, ..
            } => {
                assert!(reason.contains("rank 1 leaves the group"), "{reason}")
            }
            other => panic!("expected RemoteAbort from rank 1, got {other}"),
        }
    }
}

#[test]
fn poisoned_socket_endpoint_replays_the_same_error() {
    let results = socket_launch(3, |comm| {
        two_good_allreduces(comm);
        if comm.rank() == 1 {
            return None; // Drop the endpoint: its links close.
        }
        let first = fail_then_replay(comm);
        // The failed collective consumed its schedule point; replays none.
        assert_eq!(comm.collective_seq(), 3);
        Some(first)
    });
    for e in results.into_iter().flatten() {
        let structured = matches!(
            e,
            CommError::PeerDeath { .. } | CommError::RemoteAbort { .. }
        );
        assert!(structured, "unexpected error class: {e}");
    }
}
