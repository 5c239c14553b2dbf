//! Soak test: the streaming round state over a real 4-process TCP mesh.
//!
//! Like `serve_soak`, this binary is both the parent and the SPMD child:
//! through the shared harness in `common/mesh.rs` the parent re-executes
//! itself with `--exact stream_soak_child_entry` and the `FIRAL_SPMD_*`
//! coordinates set, so the streaming state advances on a genuine
//! 4-process `SocketComm` mesh with schedule verification
//! (`FIRAL_COMM_VERIFY=1`) and read deadlines armed. Every rank commits
//! the identical scripted sequence of interleaved add/label/remove batches
//! with periodic selections, crossing the refactor boundary (every 64th
//! commit) twice.
//!
//! The contract pinned here is the streaming tentpole's acceptance
//! criterion:
//!
//! 1. each rank's replicated-state **fingerprint** (`Σ⋄`, `B(H_o)`, every
//!    Cholesky factor) is bitwise identical across all 4 ranks after every
//!    phase — every rank applies the batch by the same local arithmetic,
//!    so replicas never diverge;
//! 2. a commit short of the refactor boundary issues **no collective**:
//!    the rank's `SocketComm::collective_seq` does not move across it;
//! 3. after the final refactor the state is **bitwise equal to a
//!    from-scratch rebuild** of the same registry (`Σ⋄` and `B(H_o)`
//!    compared block-by-block against a fresh `StreamingState` built from
//!    its pool), and `factor_drift` is at rounding level;
//! 4. interleaved selections agree across ranks (the parent diffs the
//!    per-rank markers), and all 4 ranks exit 0 with no stragglers.

#[path = "common/mesh.rs"]
mod mesh;

use std::time::Duration;

use firal::comm::socket_comm::ENV_RANK;
use firal::comm::{Communicator, SocketComm, COMM_TIMEOUT_ENV};
use firal::core::{EigSolver, FiralConfig, PoolUpdate, SelectionProblem, StreamingState};
use firal::data::SyntheticConfig;
use firal::logreg::LogisticRegression;
use mesh::{dump, Mesh, DEADLOCKED};

const P: usize = 4;
const ROUNDS: usize = 150;
/// `StreamingState` rebuilds from scratch on every 64th commit.
const COMMITS_PER_REFACTOR: usize = 64;
const DEADLINE_MS: u64 = 5000;
const SUPERVISE_CAP: Duration = Duration::from_secs(120);

const CODE_RENDEZVOUS_FAILED: i32 = 41;
const CODE_CONTRACT: i32 = 43;

fn soak_problem() -> (SelectionProblem<f64>, Vec<f64>) {
    let ds = SyntheticConfig::new(3, 4)
        .with_pool_size(40)
        .with_initial_per_class(2)
        .with_seed(33)
        .generate::<f64>();
    let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels).unwrap();
    let problem = SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        3,
    );
    let weights = (0..problem.pool_size())
        .map(|i| 0.04 + 0.01 * (i % 5) as f64)
        .collect();
    (problem, weights)
}

/// Deterministic update batch for one soak round: one add plus one
/// label/remove of a live point, all derived from the round index and the
/// current (replicated, hence rank-identical) id list.
fn scripted_batch(round: usize, ids: &[u64]) -> Vec<PoolUpdate<f64>> {
    let live = ids.len();
    let mut batch = vec![PoolUpdate::Add {
        x: (0..4)
            .map(|j| 0.05 * ((round * 7 + j * 3) % 11) as f64 - 0.25)
            .collect(),
        h: vec![
            0.2 + 0.03 * (round % 5) as f64,
            0.3 - 0.02 * (round % 4) as f64,
        ],
        weight: 0.04 + 0.005 * (round % 6) as f64,
    }];
    if round.is_multiple_of(2) {
        batch.push(PoolUpdate::Label {
            id: ids[(round * 5 + 3) % live],
        });
    } else {
        batch.push(PoolUpdate::Remove {
            id: ids[(round * 11 + 1) % live],
        });
    }
    batch
}

/// The SPMD child body: advance the streaming state through the scripted
/// soak on the mesh, verifying the refactor and drift contracts locally,
/// and print the fingerprint/selection marker for the parent to diff.
fn child_main() -> i32 {
    let comm = match SocketComm::from_env() {
        Some(Ok(c)) => c,
        Some(Err(e)) => {
            eprintln!("stream-soak child: rendezvous failed: {e}");
            return CODE_RENDEZVOUS_FAILED;
        }
        None => unreachable!("child entry runs only with {ENV_RANK} set"),
    };
    comm.install_panic_abort();

    let (problem, weights) = soak_problem();
    let cfg = FiralConfig::default();
    let mut st = StreamingState::new(&comm, &problem, &weights, &cfg);

    // Shadow id → weight ledger, kept in live insertion order so the final
    // from-scratch rebuild can be driven from outside the crate.
    let mut shadow: Vec<(u64, f64)> = st
        .ids()
        .iter()
        .zip(weights.iter())
        .map(|(&id, &w)| (id, w))
        .collect();
    let mut next_id = st.ids().len() as u64;

    let mut refactors = 0usize;
    let mut fingerprints: Vec<u64> = Vec::new();
    let mut selections: Vec<Vec<usize>> = Vec::new();
    for round in 0..ROUNDS {
        let batch = scripted_batch(round, &st.ids());
        for upd in &batch {
            match upd {
                PoolUpdate::Add { weight, .. } => {
                    shadow.push((next_id, *weight));
                    next_id += 1;
                }
                PoolUpdate::Remove { id } | PoolUpdate::Label { id } => {
                    shadow.retain(|&(pid, _)| pid != *id);
                }
            }
        }
        let seq = comm.collective_seq();
        let commit = st.commit(&comm, &batch);
        if commit.refactored {
            refactors += 1;
        } else if comm.collective_seq() != seq {
            eprintln!(
                "rank {}: commit {round} ran {} collectives off the refactor boundary",
                comm.rank(),
                comm.collective_seq() - seq
            );
            return CODE_CONTRACT;
        }
        fingerprints.push(st.fingerprint());
        if round % 3 == 2 {
            let eta = 6.0 * (st.live() as f64).sqrt();
            let run = st.select(&comm, 3, eta, EigSolver::Exact);
            selections.push(run.selected);
        }
    }
    if refactors != ROUNDS / COMMITS_PER_REFACTOR {
        eprintln!(
            "rank {}: expected {} refactor boundaries, saw {refactors}",
            comm.rank(),
            ROUNDS / COMMITS_PER_REFACTOR
        );
        return CODE_CONTRACT;
    }
    let drift_incremental = st.factor_drift();
    // NaN-safe bound: a poisoned factor must fail too.
    if !drift_incremental.is_finite() || drift_incremental >= 1e-8 {
        eprintln!(
            "rank {}: incremental drift {drift_incremental}",
            comm.rank()
        );
        return CODE_CONTRACT;
    }

    // Refactor, then rebuild the identical registry from scratch through
    // the public construction path: Σ⋄ and B(H_o) must be bitwise equal.
    st.refactor(&comm);
    let rebuilt_problem = st.problem().clone();
    let rebuilt_weights: Vec<f64> = shadow.iter().map(|&(_, w)| w).collect();
    let fresh = StreamingState::new(&comm, &rebuilt_problem, &rebuilt_weights, &cfg);
    let (mine, theirs) = (st.round_state(), fresh.round_state());
    for k in 0..2 {
        if mine.sigma().block(k).as_slice() != theirs.sigma().block(k).as_slice() {
            eprintln!(
                "rank {}: refactored Σ⋄ block {k} != from-scratch",
                comm.rank()
            );
            return CODE_CONTRACT;
        }
        if mine.bho().block(k).as_slice() != theirs.bho().block(k).as_slice() {
            eprintln!("rank {}: B(H_o) block {k} != from-scratch", comm.rank());
            return CODE_CONTRACT;
        }
    }
    let drift_refactored = st.factor_drift();
    if !drift_refactored.is_finite() || drift_refactored >= 1e-13 {
        eprintln!(
            "rank {}: post-refactor drift {drift_refactored}",
            comm.rank()
        );
        return CODE_CONTRACT;
    }

    let fps: Vec<String> = fingerprints.iter().map(|f| format!("{f:016x}")).collect();
    let sels: Vec<String> = selections
        .iter()
        .map(|s| {
            s.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    println!(
        "STREAM_SOAK live={} labeled={} fps={} sels={}",
        st.live(),
        st.labeled(),
        fps.join(";"),
        sels.join(";")
    );
    0
}

/// Not a test of this process: the SPMD re-exec target. Returns
/// immediately in ordinary `cargo test` runs (no rank coordinates set).
#[test]
fn stream_soak_child_entry() {
    if std::env::var(ENV_RANK).is_err() {
        return;
    }
    std::process::exit(child_main());
}

#[test]
fn stream_soak_four_process_mesh_stays_bitwise_replicated() {
    let env = [(COMM_TIMEOUT_ENV, DEADLINE_MS.to_string())];
    let results = Mesh::spawn("stream_soak_child_entry", P, &env).supervise(SUPERVISE_CAP);
    let codes: Vec<i32> = results.iter().map(|r| r.code).collect();
    assert!(
        !codes.contains(&DEADLOCKED),
        "stragglers had to be killed\n{}",
        dump(&results)
    );
    assert_eq!(codes, vec![0; P], "\n{}", dump(&results));

    // Every rank printed the same marker: identical per-round fingerprints
    // (bitwise-replicated Σ⋄/B(H_o)/factors) and identical selections.
    let markers: Vec<&str> = results
        .iter()
        .enumerate()
        .map(|(rank, r)| {
            r.marker("STREAM_SOAK ")
                .unwrap_or_else(|| panic!("rank {rank} printed no marker\n{}", dump(&results)))
        })
        .collect();
    for (rank, marker) in markers.iter().enumerate().skip(1) {
        assert_eq!(
            marker,
            &markers[0],
            "rank {rank} diverged from rank 0\n{}",
            dump(&results)
        );
    }
    assert!(
        markers[0].contains("sels=") && !markers[0].ends_with("sels="),
        "soak must have recorded selections: {}",
        markers[0]
    );
}
