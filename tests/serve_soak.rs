//! Soak test: concurrent clients against a real 4-process serving mesh.
//!
//! Like `fault_matrix`, this binary is both the parent and the SPMD
//! child: through the shared harness in `common/mesh.rs` the parent
//! re-executes itself with `--exact serve_soak_child_entry` and the
//! `FIRAL_SPMD_*` coordinates set, so the server runs on a genuine
//! 4-process TCP mesh with schedule verification and read deadlines
//! armed. The parent then plays the client side: several threads hammer
//! the server with mixed strategies and budgets over one shared pool.
//!
//! The contract pinned here is the serving tentpole's acceptance
//! criterion:
//!
//! 1. every response is **bitwise identical** to the in-process
//!    `select_serial` reference — distribution over sub-groups is
//!    invisible to clients;
//! 2. at least one round hosts **two concurrent requests on disjoint
//!    sub-groups** (true multi-tenancy, not queueing);
//! 3. per-request `CommStats` are **isolated**: summing every response's
//!    bill reproduces the server's cumulative `OP_STATS` accounting
//!    exactly — no request's traffic leaks into another's bill;
//! 4. a clean shutdown leaves **zero orphan processes**: all four ranks
//!    exit 0 within the cap (a guard kills stragglers and fails loudly).

#[path = "common/mesh.rs"]
mod mesh;

use std::sync::Barrier;
use std::time::Duration;

use firal::comm::socket_comm::ENV_RANK;
use firal::comm::{free_rendezvous_addr, Communicator, SocketComm, COMM_TIMEOUT_ENV};
use firal::core::{select_serial, strategy_by_name, SelectionProblem};
use firal::data::SyntheticConfig;
use firal::logreg::LogisticRegression;
use firal::serve::{run, SelectSpec, SelectionOutcome, ServeClient, ServeConfig};
use mesh::{dump, Mesh, DEADLOCKED};

/// Env var carrying the serve listen address into the SPMD children.
const SERVE_ADDR_ENV: &str = "FIRAL_TEST_SERVE_ADDR";

const P: usize = 4;
const CLIENTS: usize = 4;
const REQUESTS: usize = 2;
const MIX: [&str; 3] = ["random", "entropy", "approx-firal"];
const BUDGETS: [usize; 3] = [3, 4, 6];
/// Per-frame read deadline for the mesh (ms): generous, because debug
/// builds interleave real compute between collectives.
const DEADLINE_MS: u64 = 5000;
/// Hard bound on mesh wind-down after the shutdown ack: if any rank is
/// still alive past this, the mesh deadlocked.
const WIND_DOWN_CAP: Duration = Duration::from_secs(45);

const CODE_RENDEZVOUS_FAILED: i32 = 41;
const CODE_COMM_ERROR: i32 = 42;
const CODE_DEGRADED: i32 = 45;

fn soak_problem() -> SelectionProblem<f64> {
    let ds = SyntheticConfig::new(3, 4)
        .with_pool_size(72)
        .with_initial_per_class(2)
        .with_seed(21)
        .generate::<f64>();
    let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels).unwrap();
    SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        3,
    )
}

/// The SPMD child body: join the mesh, then hold the server open until a
/// client-initiated shutdown (or a degraded wind-down) ends it.
fn child_main() -> i32 {
    let comm = match SocketComm::from_env() {
        Some(Ok(c)) => c,
        Some(Err(e)) => {
            eprintln!("serve-soak child: rendezvous failed: {e}");
            return CODE_RENDEZVOUS_FAILED;
        }
        None => unreachable!("child entry runs only with {ENV_RANK} set"),
    };
    comm.install_panic_abort();
    let addr = std::env::var(SERVE_ADDR_ENV).expect("serve address env");
    let config = ServeConfig::new(addr)
        .with_min_batch(2)
        .with_batch_wait(Duration::from_millis(300));
    match run(&comm, &config) {
        Ok(summary) => {
            if comm.rank() == 0 {
                println!(
                    "SERVE_SOAK rounds={} ok={} err={} degraded={:?}",
                    summary.rounds, summary.requests_ok, summary.requests_err, summary.degraded
                );
            }
            if summary.degraded.is_some() {
                CODE_DEGRADED
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("rank {}: serve failed: {e}", comm.rank());
            CODE_COMM_ERROR
        }
    }
}

/// Not a test of this process: the SPMD re-exec target. Returns
/// immediately in ordinary `cargo test` runs (no rank coordinates set).
#[test]
fn serve_soak_child_entry() {
    if std::env::var(ENV_RANK).is_err() {
        return;
    }
    std::process::exit(child_main());
}

#[test]
fn serve_soak_concurrent_clients_are_bitwise_serial_with_isolated_stats() {
    let serve_addr = free_rendezvous_addr().expect("free serve port");
    let mut mesh = Mesh::spawn(
        "serve_soak_child_entry",
        P,
        &[
            (SERVE_ADDR_ENV, serve_addr.clone()),
            (COMM_TIMEOUT_ENV, DEADLINE_MS.to_string()),
        ],
    );

    let problem = soak_problem();
    let mut control = ServeClient::connect(serve_addr.as_str(), Duration::from_secs(20))
        .and_then(|c| c.with_patience(Some(Duration::from_secs(60))))
        .expect("control connect");
    let pool = control.upload_pool(&problem).expect("pool upload");

    // --- The soak: CLIENTS threads x REQUESTS mixed requests each, first
    // wave released simultaneously so rounds genuinely share the mesh. ---
    let barrier = Barrier::new(CLIENTS);
    let outcomes: Vec<(SelectSpec, SelectionOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let barrier = &barrier;
                let serve_addr = serve_addr.as_str();
                scope.spawn(move || {
                    let mut client = ServeClient::connect(serve_addr, Duration::from_secs(10))
                        .and_then(|c| c.with_patience(Some(Duration::from_secs(60))))
                        .expect("client connect");
                    barrier.wait();
                    (0..REQUESTS)
                        .map(|i| {
                            let spec = SelectSpec {
                                pool,
                                strategy: MIX[(t + i) % MIX.len()].to_string(),
                                budget: BUDGETS[(t * REQUESTS + i) % BUDGETS.len()],
                                seed: 50 + (t * 17 + i) as u64,
                                threads: 0,
                                max_ranks: 2,
                            };
                            let outcome = client.select(&spec).unwrap_or_else(|e| {
                                panic!("client {t} request {i} ({}) failed: {e}", spec.strategy)
                            });
                            (spec, outcome)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(outcomes.len(), CLIENTS * REQUESTS);

    // 1 — every response bitwise-identical to the serial reference.
    for (spec, outcome) in &outcomes {
        let reference = select_serial(
            strategy_by_name::<f64>(&spec.strategy)
                .expect("registry name")
                .as_ref(),
            &problem,
            spec.budget,
            spec.seed,
        )
        .expect("serial reference")
        .selected;
        assert_eq!(
            outcome.selected, reference,
            "{} b={} seed={} diverged from select_serial",
            spec.strategy, spec.budget, spec.seed
        );
        assert_eq!(outcome.group.len(), 2, "max_ranks=2 over a 4-rank mesh");
        assert!(
            outcome.group.windows(2).all(|w| w[0] < w[1]) && outcome.group.iter().all(|&r| r < P),
            "malformed group {:?}",
            outcome.group
        );
        if spec.strategy != "random" {
            assert!(
                outcome.comm.total_calls() > 0,
                "a distributed {} selection must bill at least one collective",
                spec.strategy
            );
        }
    }

    // 2 — true concurrency: some round hosted >= 2 requests, and requests
    // sharing a round ran on pairwise disjoint sub-groups.
    let mut by_round: std::collections::BTreeMap<u64, Vec<&SelectionOutcome>> =
        std::collections::BTreeMap::new();
    for (_, outcome) in &outcomes {
        by_round.entry(outcome.round).or_default().push(outcome);
    }
    for (round, sharing) in &by_round {
        let mut seen = std::collections::BTreeSet::new();
        for outcome in sharing {
            for &r in &outcome.group {
                assert!(
                    seen.insert(r),
                    "round {round}: rank {r} served two requests at once"
                );
            }
        }
    }
    assert!(
        by_round.values().any(|sharing| sharing.len() >= 2),
        "no round ever hosted two concurrent requests; rounds: {:?}",
        by_round.keys().collect::<Vec<_>>()
    );

    // 3 — stats isolation: the per-response bills sum *exactly* to the
    // server's cumulative accounting.
    let stats = control.stats().expect("stats query");
    assert_eq!(stats.requests_ok, (CLIENTS * REQUESTS) as u64, "{stats:?}");
    assert_eq!(stats.requests_err, 0, "{stats:?}");
    assert!(stats.rounds >= 4, "8 requests at <= 2/round: {stats:?}");
    let mut summed = firal::comm::CommStats::default();
    for (_, outcome) in &outcomes {
        summed.merge(&outcome.comm);
    }
    assert_eq!(summed.allreduce_calls, stats.comm.allreduce_calls);
    assert_eq!(summed.allreduce_bytes, stats.comm.allreduce_bytes);
    assert_eq!(summed.bcast_calls, stats.comm.bcast_calls);
    assert_eq!(summed.bcast_bytes, stats.comm.bcast_bytes);
    assert_eq!(summed.allgather_calls, stats.comm.allgather_calls);
    assert_eq!(summed.allgather_bytes, stats.comm.allgather_bytes);
    assert_eq!(summed.time, stats.comm.time, "billed time must sum exactly");

    // 4 — clean shutdown, zero orphans.
    control.shutdown().expect("shutdown ack");
    let results = mesh.supervise(WIND_DOWN_CAP);
    let codes: Vec<i32> = results.iter().map(|r| r.code).collect();
    assert!(
        !codes.contains(&DEADLOCKED),
        "stragglers had to be killed after shutdown\n{}",
        dump(&results)
    );
    assert_eq!(codes, vec![0; P], "\n{}", dump(&results));
    let marker = results[0]
        .marker("SERVE_SOAK ")
        .unwrap_or_else(|| panic!("rank 0 printed no summary marker\n{}", dump(&results)));
    assert!(
        marker.contains(&format!("ok={}", CLIENTS * REQUESTS)) && marker.contains("err=0"),
        "server summary disagrees with the client view: {marker}"
    );
    assert!(marker.contains("degraded=None"), "healthy soak: {marker}");
}
