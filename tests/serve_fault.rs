//! Fault-matrix extension for the serving layer: a rank dies mid-request.
//!
//! Same self-re-exec harness (`common/mesh.rs`) as `fault_matrix` and
//! `serve_soak`, with one `FIRAL_FAULT` row injected: rank 3 is killed a
//! few collectives into its sub-group's selection. Two concurrent
//! requests share the round on
//! disjoint sub-groups (`[0,1]` and `[2,3]`), so the kill lands inside
//! exactly one of them. The contract pinned here is the PR 8 failure model
//! *scoped by the serving layer's abort confinement*:
//!
//! 1. the affected request comes back as a **structured** `ERR_COMM`
//!    response within a bounded wall-clock (one read deadline plus round
//!    mechanics — never a hang);
//! 2. the unaffected concurrent request **completes**, bitwise identical
//!    to the serial reference — the sibling sub-group never sees the
//!    abort;
//! 3. the server reports the degraded mesh (summary marker + exit code)
//!    and winds down instead of serving on a broken mesh;
//! 4. the victim exits with the injected kill code and **no rank
//!    deadlocks or is orphaned**.

#[path = "common/mesh.rs"]
mod mesh;

use std::sync::Barrier;
use std::time::{Duration, Instant};

use firal::comm::fault::KILL_EXIT_CODE;
use firal::comm::socket_comm::ENV_RANK;
use firal::comm::{free_rendezvous_addr, Communicator, SocketComm, COMM_TIMEOUT_ENV, FAULT_ENV};
use firal::core::{select_serial, strategy_by_name, SelectionProblem};
use firal::data::SyntheticConfig;
use firal::logreg::LogisticRegression;
use firal::serve::proto::ERR_COMM;
use firal::serve::{run, ClientError, SelectSpec, ServeClient, ServeConfig};
use mesh::{dump, Mesh, DEADLOCKED};

/// Env var carrying the serve listen address into the SPMD children.
const SERVE_ADDR_ENV: &str = "FIRAL_TEST_SERVE_ADDR";

const P: usize = 4;
/// Per-frame read deadline (ms). The kill closes the victim's sockets, so
/// the sibling detects `PeerDeath` immediately; the deadline is the
/// backstop that bounds the *worst* case.
const DEADLINE_MS: u64 = 1500;
/// `kill:rank=3,op=4`: rank 3's sub-communicator reaches collective #4
/// only while running a selection (approx-firal runs many collectives per
/// pick), and its *root* communicator reaches seq 4 only after five
/// serving rounds — far more than this scenario ever runs. The coordinate
/// therefore lands mid-request, deterministically.
const FAULT_SPEC: &str = "kill:rank=3,op=4";
/// Hard bound on the whole scenario (spawn to last exit).
const SCENARIO_CAP: Duration = Duration::from_secs(60);

const CODE_RENDEZVOUS_FAILED: i32 = 41;
const CODE_COMM_ERROR: i32 = 42;
const CODE_DEGRADED: i32 = 45;

fn fault_problem() -> SelectionProblem<f64> {
    let ds = SyntheticConfig::new(3, 4)
        .with_pool_size(48)
        .with_initial_per_class(2)
        .with_seed(9)
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

fn child_main() -> i32 {
    let comm = match SocketComm::from_env() {
        Some(Ok(c)) => c,
        Some(Err(e)) => {
            eprintln!("serve-fault child: rendezvous failed: {e}");
            return CODE_RENDEZVOUS_FAILED;
        }
        None => unreachable!("child entry runs only with {ENV_RANK} set"),
    };
    comm.install_panic_abort();
    let addr = std::env::var(SERVE_ADDR_ENV).expect("serve address env");
    // A long batch wait with min_batch 2 holds the round until *both*
    // concurrent requests are queued, pinning the [0,1] / [2,3] carve-up.
    let config = ServeConfig::new(addr)
        .with_min_batch(2)
        .with_batch_wait(Duration::from_secs(5));
    match run(&comm, &config) {
        Ok(summary) => {
            if comm.rank() == 0 {
                println!(
                    "SERVE_FAULT rounds={} ok={} err={} degraded={:?}",
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

/// Not a test of this process: the SPMD re-exec target.
#[test]
fn serve_fault_child_entry() {
    if std::env::var(ENV_RANK).is_err() {
        return;
    }
    std::process::exit(child_main());
}

#[test]
fn a_rank_killed_mid_request_fails_only_its_own_sub_group() {
    let serve_addr = free_rendezvous_addr().expect("free serve port");
    let mut mesh = Mesh::spawn(
        "serve_fault_child_entry",
        P,
        &[
            (SERVE_ADDR_ENV, serve_addr.clone()),
            (COMM_TIMEOUT_ENV, DEADLINE_MS.to_string()),
            (FAULT_ENV, FAULT_SPEC.to_string()),
        ],
    );

    let problem = fault_problem();
    let mut control = ServeClient::connect(serve_addr.as_str(), Duration::from_secs(20))
        .and_then(|c| c.with_patience(Some(Duration::from_secs(60))))
        .expect("control connect");
    let pool = control.upload_pool(&problem).expect("pool upload");

    // Two concurrent requests, released together so both land in round 1:
    // one runs on [0,1], the other on [2,3] where the kill fires.
    let spec = |seed: u64| SelectSpec {
        pool,
        strategy: "approx-firal".to_string(),
        budget: 5,
        seed,
        threads: 0,
        max_ranks: 2,
    };
    let barrier = Barrier::new(2);
    let submitted = Instant::now();
    let results: Vec<(u64, Result<Vec<usize>, ClientError>, Duration)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let barrier = &barrier;
                    let serve_addr = serve_addr.as_str();
                    let spec = spec(300 + t);
                    scope.spawn(move || {
                        let mut client = ServeClient::connect(serve_addr, Duration::from_secs(10))
                            .and_then(|c| c.with_patience(Some(Duration::from_secs(60))))
                            .expect("client connect");
                        barrier.wait();
                        let result = client.select(&spec).map(|o| o.selected);
                        (spec.seed, result, submitted.elapsed())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });

    // 1+2 — exactly one structured ERR_COMM, exactly one bitwise success.
    let mut ok = Vec::new();
    let mut err = Vec::new();
    for (seed, result, elapsed) in results {
        match result {
            Ok(selected) => ok.push((seed, selected, elapsed)),
            Err(ClientError::Server(e)) => err.push((seed, e, elapsed)),
            Err(ClientError::Io(e)) => {
                panic!("seed {seed}: transport failure, not a structured error: {e}")
            }
        }
    }
    assert_eq!(
        (ok.len(), err.len()),
        (1, 1),
        "expected one survivor and one structured failure: ok={ok:?} err={err:?}"
    );
    let (seed, selected, ok_elapsed) = &ok[0];
    let reference = select_serial(
        strategy_by_name::<f64>("approx-firal").unwrap().as_ref(),
        &problem,
        5,
        *seed,
    )
    .unwrap()
    .selected;
    assert_eq!(
        selected, &reference,
        "the unaffected concurrent request must still be bitwise serial"
    );
    let (_, remote, err_elapsed) = &err[0];
    assert_eq!(remote.code, ERR_COMM, "taxonomy: {remote:?}");
    assert!(
        !remote.message.is_empty(),
        "a comm failure must carry a diagnosis"
    );
    // "Within one deadline" plus round mechanics: the hub finishes its own
    // (healthy) assignment, then collects the failed one. Both responses
    // must arrive in a small multiple of the deadline, never the cap.
    let bound = Duration::from_millis(DEADLINE_MS * 20);
    assert!(
        *err_elapsed < bound && *ok_elapsed < bound,
        "responses took ok={ok_elapsed:?} err={err_elapsed:?} (bound {bound:?})"
    );

    // 3+4 — degraded wind-down, victim killed, nobody orphaned.
    let results = mesh.supervise(SCENARIO_CAP);
    let codes: Vec<i32> = results.iter().map(|r| r.code).collect();
    assert!(
        !codes.contains(&DEADLOCKED),
        "deadlocked ranks had to be reaped\n{}",
        dump(&results)
    );
    assert_eq!(
        codes,
        vec![CODE_DEGRADED, CODE_DEGRADED, CODE_DEGRADED, KILL_EXIT_CODE],
        "\n{}",
        dump(&results)
    );
    let marker = results[0]
        .marker("SERVE_FAULT ")
        .unwrap_or_else(|| panic!("rank 0 printed no summary marker\n{}", dump(&results)));
    assert!(
        marker.contains("ok=1") && marker.contains("err=1") && marker.contains("degraded=Some"),
        "server must report the degraded mesh: {marker}"
    );
}
