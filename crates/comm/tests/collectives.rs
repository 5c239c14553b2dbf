//! The collective conformance suite: one set of cases, run over every
//! backend — `SelfComm` (the `p = 1` cases), `launch` (`ThreadComm`) and
//! `socket_launch` (`SocketComm`). Every case also asserts that the backends
//! agree with each other rank for rank, bit for bit: they share one
//! collective driver and one rank-ordered reduction contract, so there is
//! nothing backend-specific left to expect.
//!
//! Backend-specific behaviour (the abortable barrier, rendezvous, the
//! point-to-point lane, dead peers, severed links) is tested next to the
//! transport it belongs to.

use std::fmt::Debug;
use std::time::Duration;

use firal_comm::{launch, socket_launch, CommStats, Communicator, ReduceOp, SelfComm};

/// Run `f` as one rank of a `p`-rank group on every backend that can host
/// it, assert the backends agree, and return the per-rank results.
fn on_every_backend<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send + PartialEq + Debug,
    F: Fn(&dyn Communicator) -> R + Sync,
{
    let thread = launch(p, |comm| f(comm));
    let socket = socket_launch(p, |comm| f(comm));
    assert_eq!(thread, socket, "ThreadComm vs SocketComm at p={p}");
    if p == 1 {
        assert_eq!(vec![f(&SelfComm::new())], thread, "SelfComm vs ThreadComm");
    }
    thread
}

/// The record minus its clock (wall time is the one lane that may differ).
fn calls_and_bytes(stats: CommStats) -> CommStats {
    CommStats {
        time: Duration::ZERO,
        ..stats
    }
}

#[test]
fn allreduce_sum_all_ranks_agree() {
    for p in [1usize, 2, 3, 4, 5] {
        let results = on_every_backend(p, |comm| {
            let mut buf = vec![comm.rank() as f64 + 1.0, 10.0 * (comm.rank() as f64 + 1.0)];
            comm.allreduce_f64(&mut buf, ReduceOp::Sum);
            buf
        });
        let sum: f64 = (1..=p).map(|r| r as f64).sum();
        assert_eq!(results, vec![vec![sum, 10.0 * sum]; p]);
    }
}

#[test]
fn allreduce_max_and_min() {
    let results = on_every_backend(4, |comm| {
        let mut mx = vec![comm.rank() as f64];
        comm.allreduce_f64(&mut mx, ReduceOp::Max);
        let mut mn = vec![comm.rank() as f64];
        comm.allreduce_f64(&mut mn, ReduceOp::Min);
        (mx[0], mn[0])
    });
    assert_eq!(results, vec![(3.0, 0.0); 4]);
}

#[test]
fn bcast_from_each_root() {
    for root in 0..3 {
        let results = on_every_backend(3, move |comm| {
            let mut buf = if comm.rank() == root {
                vec![42.0, 7.0]
            } else {
                vec![0.0, 0.0]
            };
            comm.bcast_f64(&mut buf, root);
            buf
        });
        assert_eq!(results, vec![vec![42.0, 7.0]; 3]);
    }
}

#[test]
fn allgatherv_concatenates_variable_lengths_in_rank_order() {
    // Rank r contributes r+1 copies of r — deliberately unequal.
    let results = on_every_backend(3, |comm| {
        comm.allgatherv_f64(&vec![comm.rank() as f64; comm.rank() + 1])
    });
    assert_eq!(results, vec![vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0]; 3]);
}

#[test]
fn allgatherv_handles_empty_contributions() {
    let results = on_every_backend(3, |comm| {
        let local = if comm.rank() == 1 {
            vec![]
        } else {
            vec![comm.rank() as f64]
        };
        comm.allgatherv_f64(&local)
    });
    assert_eq!(results, vec![vec![0.0, 2.0]; 3]);
}

#[test]
fn maxloc_finds_global_argmax_with_payload() {
    let results = on_every_backend(4, |comm| {
        let value = if comm.rank() == 2 {
            100.0
        } else {
            comm.rank() as f64
        };
        comm.allreduce_maxloc(value, 1000 + comm.rank() as u64)
    });
    assert_eq!(results, vec![(100.0, 1002); 4]);
}

#[test]
fn maxloc_tie_prefers_lowest_rank() {
    let results = on_every_backend(3, |comm| comm.allreduce_maxloc(1.0, comm.rank() as u64));
    assert_eq!(results, vec![(1.0, 0); 3]);
}

#[test]
fn maxloc_all_neg_infinity_propagates_rank0_sentinel() {
    // Degenerate case: no rank has a candidate. The sentinel payload must
    // survive the reduction (matching SelfComm) so callers can detect
    // exhaustion instead of receiving a fabricated index 0.
    let results = on_every_backend(3, |comm| comm.allreduce_maxloc(f64::NEG_INFINITY, u64::MAX));
    assert_eq!(results, vec![(f64::NEG_INFINITY, u64::MAX); 3]);
}

#[test]
fn maxloc_preserves_full_payload_bits() {
    let big = u64::MAX - 12345;
    let results = on_every_backend(2, move |comm| {
        comm.allreduce_maxloc(comm.rank() as f64, big)
    });
    assert_eq!(results, vec![(1.0, big); 2]);
}

#[test]
fn maxloc_payload_survives_nan_aliasing_bit_patterns() {
    // A payload that aliases a signaling-NaN f64 encoding must come back
    // bit-exact — the hazard the separate integer lane removes.
    let snan_bits = 0x7FF0_0000_0000_0001u64;
    let results = on_every_backend(3, move |comm| {
        let value = if comm.rank() == 1 { 5.0 } else { 0.0 };
        let payload = if comm.rank() == 1 { snan_bits } else { 7 };
        comm.allreduce_maxloc(value, payload)
    });
    assert_eq!(results, vec![(5.0, snan_bits); 3]);
}

#[test]
fn repeated_mixed_collectives_do_not_interfere() {
    let results = on_every_backend(3, |comm| {
        let (mut sums, mut tops) = (0.0, 0.0);
        for round in 0..10 {
            let mut buf = vec![(comm.rank() * round) as f64];
            comm.allreduce_f64(&mut buf, ReduceOp::Sum);
            sums += buf[0];
            let gathered = comm.allgatherv_f64(&buf[..1]);
            let mut top = vec![gathered.iter().sum::<f64>()];
            comm.bcast_f64(&mut top, round % 3);
            comm.barrier();
            tops += top[0];
        }
        (sums, tops)
    });
    // Σ_round (0+1+2)·round = 3·45 = 135; the gather triples each sum.
    assert_eq!(results, vec![(135.0, 405.0); 3]);
}

#[test]
fn deterministic_reduction_across_ranks_and_backends() {
    // Rank-ordered reduction ⇒ bitwise identical sums on every rank (and,
    // through the helper, on every backend) even with values that do not
    // commute exactly in floating point.
    let results = on_every_backend(4, |comm| {
        let mut buf = vec![[1.0e16, 1.0, -1.0e16][comm.rank() % 3]];
        comm.allreduce_f64(&mut buf, ReduceOp::Sum);
        buf[0].to_bits()
    });
    assert!(results.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn split_disjoint_colors_form_independent_groups() {
    // p ranks → `groups` colors by rank % groups; each sub-group's
    // collectives must see only its own members' contributions (on the
    // socket mesh: over shared links, told apart by scope tags alone).
    for (p, groups) in [(6usize, 3usize), (4, 2)] {
        let results = on_every_backend(p, move |comm| {
            let sub = comm.split(comm.rank() % groups, comm.rank());
            let mut buf = vec![comm.rank() as f64];
            sub.allreduce_f64(&mut buf, ReduceOp::Sum);
            let gathered = sub.allgatherv_f64(&[10.0 + comm.rank() as f64]);
            (sub.rank(), sub.size(), buf[0], gathered)
        });
        for (rank, (sub_rank, sub_size, sum, gathered)) in results.into_iter().enumerate() {
            let mates: Vec<usize> = (rank % groups..p).step_by(groups).collect();
            assert_eq!(sub_size, mates.len());
            assert_eq!(
                sub_rank,
                rank / groups,
                "key=parent rank keeps parent order"
            );
            assert_eq!(sum, mates.iter().sum::<usize>() as f64);
            let expected: Vec<f64> = mates.iter().map(|&m| 10.0 + m as f64).collect();
            assert_eq!(gathered, expected);
        }
    }
}

#[test]
fn split_singleton_groups_are_selfcomm_like() {
    for p in [3usize, 4] {
        let results = on_every_backend(p, |comm| {
            let sub = comm.split(comm.rank(), 0);
            let mut buf = vec![42.0 + comm.rank() as f64];
            sub.allreduce_f64(&mut buf, ReduceOp::Sum);
            sub.bcast_f64(&mut buf, 0);
            (sub.rank(), sub.size(), buf[0], sub.allreduce_maxloc(1.0, 9))
        });
        for (rank, r) in results.into_iter().enumerate() {
            assert_eq!(r, (0, 1, 42.0 + rank as f64, (1.0, 9)));
        }
    }
}

#[test]
fn split_key_reorders_sub_group_ranks() {
    // One group, keys descending with parent rank ⇒ new ranks reversed, so
    // a sub-group bcast from new rank 0 delivers old rank p-1's buffer.
    for p in [3usize, 4] {
        let results = on_every_backend(p, |comm| {
            let sub = comm.split(0, 100 - comm.rank());
            let mut buf = vec![comm.rank() as f64];
            sub.bcast_f64(&mut buf, 0);
            (sub.rank(), buf[0])
        });
        for (rank, r) in results.into_iter().enumerate() {
            assert_eq!(r, (p - 1 - rank, (p - 1) as f64));
        }
    }
}

#[test]
fn split_nested_and_interleaved_with_parent_collectives() {
    // Split 4 → two pairs, split each pair → singletons, and interleave
    // collectives on all three levels: slots/barriers (or frames of three
    // scope generations sharing the mesh) must not interfere.
    let results = on_every_backend(4, |comm| {
        let pair = comm.split(comm.rank() / 2, comm.rank());
        let single = pair.split(pair.rank(), 0);
        let pair_max = pair.allreduce_maxloc(comm.rank() as f64, comm.rank() as u64);
        let mut a = vec![1.0];
        comm.allreduce_f64(&mut a, ReduceOp::Sum); // world: 4
        let mut b = vec![1.0];
        pair.allreduce_f64(&mut b, ReduceOp::Sum); // pair: 2
        let mut c = vec![1.0];
        single.allreduce_f64(&mut c, ReduceOp::Sum); // self: 1
        let mut d = vec![comm.rank() as f64];
        comm.allreduce_f64(&mut d, ReduceOp::Max); // world again: 3
        (
            pair_max,
            single.allreduce_maxloc(-1.0, 99),
            [a[0], b[0], c[0], d[0]],
        )
    });
    for (rank, (pair_max, single_max, sums)) in results.into_iter().enumerate() {
        // Pair max = the higher rank of the pair.
        let hi = (rank / 2) * 2 + 1;
        assert_eq!(pair_max, (hi as f64, hi as u64));
        assert_eq!(single_max, (-1.0, 99));
        assert_eq!(sums, [4.0, 2.0, 1.0, 3.0]);
    }
}

#[test]
fn split_sub_group_reduction_matches_root_group_bitwise() {
    // A sub-group of size 2 must reduce exactly like a root group of size 2
    // over the same contributions (the determinism contract split
    // guarantees to the execution layer) — on, and across, every backend.
    let contribution = |new_rank: usize| vec![[1.0e16, 1.0][new_rank]];
    let root = on_every_backend(2, |comm| {
        let mut buf = contribution(comm.rank());
        comm.allreduce_f64(&mut buf, ReduceOp::Sum);
        buf[0].to_bits()
    });
    let split = on_every_backend(4, |comm| {
        let sub = comm.split(comm.rank() % 2, comm.rank());
        let mut buf = contribution(sub.rank());
        sub.allreduce_f64(&mut buf, ReduceOp::Sum);
        buf[0].to_bits()
    });
    for bits in split {
        assert_eq!(bits, root[0]);
    }
}

#[test]
fn split_sub_comm_starts_fresh_stats_and_bills_its_own_traffic() {
    let results = on_every_backend(2, |comm| {
        let mut one = vec![0.0];
        comm.allreduce_f64(&mut one, ReduceOp::Sum);
        let sub = comm.split(0, comm.rank());
        let before = sub.stats();
        let mut buf = vec![0.5; 256];
        for _ in 0..4 {
            sub.allreduce_f64(&mut buf, ReduceOp::Sum);
        }
        assert!(sub.stats().time > Duration::ZERO, "sub-group wire time");
        (
            before,
            calls_and_bytes(sub.stats()),
            calls_and_bytes(comm.stats()),
        )
    });
    for (before, sub, parent) in results {
        assert_eq!(before, CommStats::default());
        assert_eq!((sub.allreduce_calls, sub.allreduce_bytes), (4, 4 * 256 * 8));
        // The parent counted its own allreduce plus the membership
        // allgather of split, but none of the sub-group's traffic.
        assert_eq!((parent.allreduce_calls, parent.allgather_calls), (1, 1));
        assert_eq!(parent.total_calls(), 2);
    }
}

#[test]
fn stats_track_calls_bytes_and_wire_time_per_rank() {
    let results = on_every_backend(2, |comm| {
        let mut buf = vec![0.5; 4096];
        for _ in 0..8 {
            comm.allreduce_f64(&mut buf, ReduceOp::Sum);
        }
        comm.bcast_f64(&mut buf, 0);
        let _ = comm.allgatherv_f64(&buf[..16]);
        // Real barrier waits / socket round-trips: measurable, nonzero.
        assert!(comm.stats().time > Duration::ZERO, "expected wire time");
        calls_and_bytes(comm.stats())
    });
    let expected = CommStats {
        allreduce_calls: 8,
        allreduce_bytes: 8 * 4096 * 8,
        bcast_calls: 1,
        bcast_bytes: 4096 * 8,
        allgather_calls: 1,
        allgather_bytes: 16 * 8,
        time: Duration::ZERO,
    };
    assert_eq!(results, vec![expected; 2]);
}
