//! Deterministic fault-injection matrix over real process meshes, and the
//! repo's process-mesh consistency gate.
//!
//! This binary is both the parent (the `#[test]` that sweeps the fault
//! matrix) and the SPMD child: through the shared harness in
//! `common/mesh.rs` the parent re-executes its own test executable with
//! `--exact fault_matrix_child_entry` and the `FIRAL_SPMD_*` coordinates
//! set, so each scenario runs on a genuine 4-process TCP mesh — the
//! transport `spmd_launch serve` uses — with a fault injected from
//! [`firal::comm::FAULT_ENV`].
//!
//! The contract pinned here: killing, stalling, or disconnecting any single
//! rank mid-RELAX, mid-ROUND, or mid-rendezvous leaves **zero** deadlocked
//! or orphaned processes, and every survivor exits through the structured
//! [`firal::comm::CommError`] path (exit code 42 below) within the
//! configured deadline — never a hang and never an uncontrolled panic.
//!
//! The fault-free probe pins the flip side and is the process-mesh
//! consistency gate: with no fault, on every rank of the 4-process mesh,
//! - Approx-FIRAL RELAX + ROUND selects bitwise the `SelfComm` batch;
//! - the η grid sweep [`Executor::select_eta`] returns bitwise the
//!   `SelfComm` sweep's (η★, selection);
//! - UPAL and Bayes-batch through [`dispatch_select`] return bitwise the
//!   [`select_serial`] batch;
//! - the rank measured nonzero wire time.
//!
//! Child exit-code protocol:
//!   0   — workload completed (fault-free probe)
//!   41  — rendezvous failed with a structured error (mid-rendezvous kills)
//!   42  — a collective failed with a structured `CommError`
//!   113 — `KILL_EXIT_CODE`: the injected `kill:` fault fired on this rank

#[path = "common/mesh.rs"]
mod mesh;

use std::io::Write;
use std::time::{Duration, Instant};

use firal::comm::fault::KILL_EXIT_CODE;
use firal::comm::socket_comm::ENV_RANK;
use firal::comm::{comm_catch, Communicator, SelfComm, SocketComm, COMM_TIMEOUT_ENV, FAULT_ENV};
use firal::core::{
    dispatch_select, select_serial, strategy_by_name, Executor, MirrorDescentConfig, RelaxConfig,
    RoundConfig, RoundRun, SelectRequest, SelectionProblem, ShardedProblem,
};
use firal::data::SyntheticConfig;
use firal::logreg::LogisticRegression;
use mesh::{dump, ChildResult, Mesh, DEADLOCKED};

const BUDGET: usize = 5;
/// Executor-generic strategies the probe checks against `select_serial`.
const STRATEGIES: [&str; 2] = ["upal", "bayes-batch"];
const STRATEGY_SEED: u64 = 5;
/// Per-frame read deadline for fault scenarios (ms): short enough that a
/// stalled peer is detected quickly, long enough that debug-build compute
/// phases between collectives never trip it.
const DEADLINE_MS: u64 = 700;
/// The stall injected in the stall scenario must exceed the deadline.
const STALL_MS: u64 = 2500;
/// Hard per-scenario bound: if any child is still alive after this, the
/// mesh deadlocked — kill the stragglers and fail the test. It must exceed
/// the 30 s rendezvous deadline the mid-rendezvous kill runs into.
const SCENARIO_CAP: Duration = Duration::from_secs(45);

const CODE_RENDEZVOUS_FAILED: i32 = 41;
const CODE_COMM_ERROR: i32 = 42;

fn problem(seed: u64) -> SelectionProblem<f64> {
    let ds = SyntheticConfig::new(3, 4)
        .with_pool_size(48)
        .with_initial_per_class(2)
        .with_seed(seed)
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

fn relax_config() -> RelaxConfig<f64> {
    RelaxConfig {
        seed: 11,
        md: MirrorDescentConfig {
            max_iters: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn eta(p: &SelectionProblem<f64>) -> f64 {
    6.0 * (p.ehat() as f64).sqrt()
}

/// The η sweep's `z⋄`: the budget spread evenly over the pool (`len`
/// entries of this shard).
fn uniform_z(p: &SelectionProblem<f64>, len: usize) -> Vec<f64> {
    vec![BUDGET as f64 / p.pool_size() as f64; len]
}

fn join(selected: &[usize]) -> String {
    let s: Vec<String> = selected.iter().map(|i| i.to_string()).collect();
    s.join(",")
}

/// The `key=value` fields a probe rank reports and the parent compares
/// against the `SelfComm` references: the RELAX + ROUND selection, then the
/// η sweep's η★ bits and selection, then one selection per strategy.
fn marker_fields(
    selected: &[usize],
    sweep: &RoundRun<f64>,
    strategies: impl Iterator<Item = (&'static str, Vec<usize>)>,
) -> Vec<(&'static str, String)> {
    let mut fields = vec![
        ("selected", join(selected)),
        ("eta_bits", format!("{:016x}", sweep.eta.to_bits())),
        ("eta_selected", join(&sweep.selected)),
    ];
    fields.extend(strategies.map(|(name, sel)| (name, join(&sel))));
    fields
}

/// The value of `key=` in a `FAULT_MATRIX` marker.
fn field<'a>(marker: &'a str, key: &str) -> &'a str {
    marker
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("marker missing {key}: {marker}"))
}

/// The SPMD child body: join the mesh from env coordinates, arm the panic
/// abort hook, run RELAX and ROUND each under its own `comm_catch`
/// boundary, then the η grid and the strategies, and translate every
/// outcome into the exit-code protocol. The schedule coordinates are
/// captured before the extra steps, so the fault specs address RELAX and
/// ROUND only.
fn child_main() -> i32 {
    let comm = match SocketComm::from_env() {
        Some(Ok(c)) => c,
        Some(Err(e)) => {
            eprintln!("fault-matrix child: rendezvous failed: {e}");
            return CODE_RENDEZVOUS_FAILED;
        }
        None => unreachable!("child entry runs only with {ENV_RANK} set"),
    };
    comm.install_panic_abort();
    let rank = comm.rank();

    let p = problem(7);
    let shard = ShardedProblem::shard(&p, rank, comm.size());
    let exec = Executor::new(&comm, &shard);

    let relax = match comm_catch(|| exec.relax(BUDGET, &relax_config())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rank {rank}: RELAX failed: {e}");
            return CODE_COMM_ERROR;
        }
    };
    let relax_seq = comm.collective_seq();
    let round = match comm_catch(|| exec.round(&relax.z_local, BUDGET, eta(&p))) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rank {rank}: ROUND failed: {e}");
            return CODE_COMM_ERROR;
        }
    };
    let total_seq = comm.collective_seq();

    let grid = RoundConfig::<f64>::default().eta_grid;
    let sweep = comm_catch(|| exec.select_eta(&uniform_z(&p, shard.local_n()), BUDGET, &grid));
    let sweep = match sweep {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rank {rank}: η grid failed: {e}");
            return CODE_COMM_ERROR;
        }
    };
    let mut picks = Vec::new();
    for name in STRATEGIES {
        let req = SelectRequest::new(name, BUDGET).with_seed(STRATEGY_SEED);
        match dispatch_select(&comm, &p, &req) {
            Ok(run) => picks.push((name, run.selected)),
            Err(e) => {
                eprintln!("rank {rank}: {name} failed: {e}");
                return CODE_COMM_ERROR;
            }
        }
    }
    let fields: Vec<String> = marker_fields(&round.selected, &sweep, picks.into_iter())
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "FAULT_MATRIX relax_seq={relax_seq} total_seq={total_seq} wire_ns={} {}",
        comm.stats().time.as_nanos(),
        fields.join(" ")
    );
    0
}

/// Not a test of this process: the SPMD re-exec target. Returns
/// immediately in ordinary `cargo test` runs (no rank coordinates set).
#[test]
fn fault_matrix_child_entry() {
    if std::env::var(ENV_RANK).is_err() {
        return;
    }
    std::process::exit(child_main());
}

/// What the pipe-drain child writes to stderr: four Linux pipe buffers.
const DRAIN_BYTES: usize = 256 * 1024;

/// Re-exec target of [`mesh_harness_drains_pipes_while_ranks_run`].
#[test]
fn mesh_drain_child_entry() {
    if std::env::var(ENV_RANK).is_err() {
        return;
    }
    let mut err = std::io::stderr().lock();
    err.write_all(&vec![b'x'; DRAIN_BYTES])
        .expect("write stderr");
    err.flush().expect("flush stderr");
    std::process::exit(0);
}

/// A rank that writes more than a pipe buffer must still exit: a harness
/// that reads the pipes only after every rank exits would leave it blocked
/// in `write` and report it as deadlocked at the cap.
#[test]
fn mesh_harness_drains_pipes_while_ranks_run() {
    let results = Mesh::spawn("mesh_drain_child_entry", 1, &[]).supervise(SCENARIO_CAP);
    assert_eq!(results[0].code, 0, "\n{}", dump(&results));
    assert_eq!(results[0].stderr.matches('x').count(), DRAIN_BYTES);
}

struct Scenario<'a> {
    name: &'a str,
    /// `FIRAL_FAULT` spec, or `None` for the fault-free probe.
    fault: Option<String>,
    /// Expected exit code per rank.
    expect: Vec<i32>,
}

/// Run one `size`-rank mesh of the child entry with deadlines and
/// verification on and the given fault armed, returning each rank's exit
/// code and output.
fn run_mesh(size: usize, fault: Option<&str>) -> Vec<ChildResult> {
    let mut env = vec![(COMM_TIMEOUT_ENV, DEADLINE_MS.to_string())];
    if let Some(spec) = fault {
        env.push((FAULT_ENV, spec.to_string()));
    }
    Mesh::spawn("fault_matrix_child_entry", size, &env).supervise(SCENARIO_CAP)
}

/// The `SelfComm` references for every probe marker field: the fault-free
/// fallible path over the mesh must match each bitwise.
fn serial_fields() -> Vec<(&'static str, String)> {
    let p = problem(7);
    let comm = SelfComm::new();
    let shard = ShardedProblem::replicate(&p);
    let exec = Executor::new(&comm, &shard);
    let relax = exec.relax(BUDGET, &relax_config());
    let round = exec.round(&relax.z_local, BUDGET, eta(&p));
    let grid = RoundConfig::<f64>::default().eta_grid;
    let sweep = exec.select_eta(&uniform_z(&p, p.pool_size()), BUDGET, &grid);
    let picks = STRATEGIES.into_iter().map(|name| {
        let strategy = strategy_by_name::<f64>(name).expect("registry name");
        let serial = select_serial(strategy.as_ref(), &p, BUDGET, STRATEGY_SEED).expect(name);
        (name, serial.selected)
    });
    marker_fields(&round.selected, &sweep, picks)
}

#[test]
fn fault_matrix_survivors_return_structured_errors_with_no_orphans() {
    const P: usize = 4;

    // --- Probe: fault-free run with deadlines + verification ON. ---
    // Pins every rank's results bitwise to the SelfComm references and
    // yields the schedule coordinates (per-rank collective sequence
    // numbers) the fault specs below address.
    let probe = run_mesh(P, None);
    let probe_dump = || format!("scenario probe:\n{}", dump(&probe));
    for (rank, r) in probe.iter().enumerate() {
        assert_eq!(r.code, 0, "probe rank {rank}\n{}", probe_dump());
    }
    let markers: Vec<&str> = probe
        .iter()
        .enumerate()
        .map(|(rank, r)| {
            r.marker("FAULT_MATRIX ")
                .unwrap_or_else(|| panic!("probe rank {rank} printed no marker\n{}", probe_dump()))
        })
        .collect();
    let expected = serial_fields();
    for (rank, marker) in markers.iter().enumerate() {
        for (key, want) in &expected {
            assert_eq!(
                field(marker, key),
                want,
                "probe rank {rank}: {key} diverged from the SelfComm reference"
            );
        }
        let wire_ns: u128 = field(marker, "wire_ns").parse().expect("wire_ns");
        assert!(wire_ns > 0, "probe rank {rank} measured no wire time");
    }
    let relax_seq: u64 = field(markers[0], "relax_seq").parse().expect("relax_seq");
    let total_seq: u64 = field(markers[0], "total_seq").parse().expect("total_seq");
    // The schedule must be deep enough for a mid-RELAX and a mid-ROUND
    // coordinate to exist.
    assert!(relax_seq > 2, "RELAX ran only {relax_seq} collectives");
    assert!(
        total_seq > relax_seq + 1,
        "ROUND ran only {} collectives",
        total_seq - relax_seq
    );
    let mid_relax = 2;
    let mid_round = relax_seq + 1;

    // --- The matrix. ---
    let mut scenarios: Vec<Scenario> = Vec::new();
    // Killing *any* single rank mid-ROUND: victim exits with the injected
    // kill code, every survivor returns a CommError within the deadline.
    for victim in 0..P {
        let mut expect = vec![CODE_COMM_ERROR; P];
        expect[victim] = KILL_EXIT_CODE;
        scenarios.push(Scenario {
            name: "kill mid-round",
            fault: Some(format!("kill:rank={victim},op={mid_round}")),
            expect,
        });
    }
    // Kill mid-RELAX.
    {
        let mut expect = vec![CODE_COMM_ERROR; P];
        expect[1] = KILL_EXIT_CODE;
        scenarios.push(Scenario {
            name: "kill mid-relax",
            fault: Some(format!("kill:rank=1,op={mid_relax}")),
            expect,
        });
    }
    // Stall past the deadline: the stalled rank is not killed, so the
    // survivors' DeadlineExceeded aborts the group and the stalled rank
    // itself then fails on the dead mesh — all four exit structured.
    scenarios.push(Scenario {
        name: "stall past deadline mid-round",
        fault: Some(format!("stall:rank=2,op={mid_round},ms={STALL_MS}")),
        expect: vec![CODE_COMM_ERROR; P],
    });
    // Severed connections: the dropping rank's own collectives fail too.
    scenarios.push(Scenario {
        name: "drop-conn mid-round",
        fault: Some(format!("drop-conn:rank=3,op={mid_round}")),
        expect: vec![CODE_COMM_ERROR; P],
    });
    // Mid-rendezvous kill: no mesh exists yet, so the survivors fail the
    // rendezvous itself — bounded by the fixed 30 s rendezvous deadline
    // (inside `SCENARIO_CAP`), not the (unset-able) collective deadline.
    {
        let mut expect = vec![CODE_RENDEZVOUS_FAILED; P];
        expect[3] = KILL_EXIT_CODE;
        scenarios.push(Scenario {
            name: "kill mid-rendezvous",
            fault: Some("kill:rank=3".to_string()),
            expect,
        });
    }

    for sc in &scenarios {
        let started = Instant::now();
        let results = run_mesh(P, sc.fault.as_deref());
        let elapsed = started.elapsed();
        let codes: Vec<i32> = results.iter().map(|r| r.code).collect();
        let report = || format!("scenario {}:\n{}", sc.name, dump(&results));
        assert!(
            !codes.contains(&DEADLOCKED),
            "deadlocked children had to be reaped\n{}",
            report()
        );
        assert_eq!(
            codes,
            sc.expect,
            "({} | fault {:?}, took {elapsed:?})\n{}",
            sc.name,
            sc.fault,
            report()
        );
        // Every structured failure carries a CommError rendering, not a
        // bare abort: the child prints it before choosing its exit code.
        for (rank, r) in results.iter().enumerate() {
            if r.code == CODE_COMM_ERROR {
                assert!(
                    r.stderr.contains("failed"),
                    "{}: rank {rank} exited 42 without a diagnostic\n{}",
                    sc.name,
                    report()
                );
            }
        }
    }
}
