//! Deterministic fault-injection matrix over real process meshes.
//!
//! This binary is both the parent (the `#[test]` that sweeps the fault
//! matrix) and the SPMD child: the parent re-executes its own test
//! executable with `--exact fault_matrix_child_entry` and the
//! `FIRAL_SPMD_*` coordinates set, so each scenario runs on a genuine
//! 4-process TCP mesh — the same transport `spmd_launch` uses — with a
//! fault injected from [`firal::comm::FAULT_ENV`].
//!
//! The contract pinned here is the PR's acceptance criterion: killing,
//! stalling, or disconnecting any single rank mid-RELAX, mid-ROUND, or
//! mid-rendezvous leaves **zero** deadlocked or orphaned processes, and
//! every survivor exits through the structured [`firal::comm::CommError`]
//! path (exit code 42 below) within the configured deadline — never a
//! hang and never an uncontrolled panic. The fault-free probe run pins
//! the flip side: with no fault, the fallible path selects bitwise the
//! same batch as the `SelfComm` serial reference.
//!
//! Child exit-code protocol:
//!   0   — workload completed (fault-free probe)
//!   41  — rendezvous failed with a structured error (mid-rendezvous kills)
//!   42  — a collective failed with a structured `CommError`
//!   113 — `KILL_EXIT_CODE`: the injected `kill:` fault fired on this rank

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use firal::comm::fault::KILL_EXIT_CODE;
use firal::comm::socket_comm::{ENV_ADDR, ENV_RANK, ENV_SIZE};
use firal::comm::{
    comm_catch, free_rendezvous_addr, Communicator, SelfComm, SocketComm, COMM_TIMEOUT_ENV,
    FAULT_ENV, RENDEZVOUS_TIMEOUT_ENV, VERIFY_ENV,
};
use firal::core::{
    EigSolver, Executor, MirrorDescentConfig, RelaxConfig, SelectionProblem, ShardedProblem,
};
use firal::data::SyntheticConfig;
use firal::logreg::LogisticRegression;

const BUDGET: usize = 5;
/// Per-frame read deadline for fault scenarios (ms): short enough that a
/// stalled peer is detected quickly, long enough that debug-build compute
/// phases between collectives never trip it.
const DEADLINE_MS: u64 = 700;
/// The stall injected in the stall scenario must exceed the deadline.
const STALL_MS: u64 = 2500;
/// Rendezvous deadline for the mid-rendezvous kill scenario (ms).
const RENDEZVOUS_MS: u64 = 2000;
/// Hard per-scenario bound: if any child is still alive after this, the
/// mesh deadlocked — kill the stragglers and fail the test.
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

/// The SPMD child body: join the mesh from env coordinates, arm the panic
/// abort hook, run RELAX and ROUND each under its own `comm_catch`
/// boundary, and translate every outcome into the exit-code protocol.
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

    let p = problem(7);
    let eta = 6.0 * (p.ehat() as f64).sqrt();
    let shard = ShardedProblem::shard(&p, comm.rank(), comm.size());
    let exec = Executor::new(&comm, &shard);

    let relax = match comm_catch(|| exec.relax(BUDGET, &relax_config())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rank {}: RELAX failed: {e}", comm.rank());
            return CODE_COMM_ERROR;
        }
    };
    let relax_seq = comm.collective_seq();
    let round = match comm_catch(|| exec.round(&relax.z_local, BUDGET, eta, EigSolver::Exact)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rank {}: ROUND failed: {e}", comm.rank());
            return CODE_COMM_ERROR;
        }
    };
    let total_seq = comm.collective_seq();
    if comm.rank() == 0 {
        let sel: Vec<String> = round.selected.iter().map(|i| i.to_string()).collect();
        println!(
            "FAULT_MATRIX relax_seq={relax_seq} total_seq={total_seq} selected={}",
            sel.join(",")
        );
    }
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

struct ChildResult {
    code: i32,
    stdout: String,
    stderr: String,
}

struct Scenario<'a> {
    name: &'a str,
    /// `FIRAL_FAULT` spec, or `None` for the fault-free probe.
    fault: Option<String>,
    rendezvous_ms: u64,
    /// Expected exit code per rank.
    expect: Vec<i32>,
}

/// Spawn a `size`-rank mesh of this test binary and supervise it: poll
/// with a hard cap, kill and reap any straggler (that is the deadlock
/// detector), and return each rank's exit code and captured output.
fn run_mesh(size: usize, fault: Option<&str>, rendezvous_ms: u64) -> Vec<ChildResult> {
    let exe = std::env::current_exe().expect("test executable path");
    let addr = free_rendezvous_addr().expect("free rendezvous port");
    let mut children: Vec<Option<Child>> = (0..size)
        .map(|rank| {
            let mut cmd = Command::new(&exe);
            cmd.arg("fault_matrix_child_entry")
                .arg("--exact")
                .arg("--test-threads=1")
                .arg("--nocapture")
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, size.to_string())
                .env(ENV_ADDR, &addr)
                .env(VERIFY_ENV, "1")
                .env(COMM_TIMEOUT_ENV, DEADLINE_MS.to_string())
                .env(RENDEZVOUS_TIMEOUT_ENV, rendezvous_ms.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            match fault {
                Some(spec) => cmd.env(FAULT_ENV, spec),
                None => cmd.env_remove(FAULT_ENV),
            };
            Some(cmd.spawn().expect("spawn fault-matrix child"))
        })
        .collect();

    let start = Instant::now();
    let mut codes = vec![None; size];
    loop {
        let mut alive = 0;
        for (rank, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait().expect("try_wait") {
                Some(status) => codes[rank] = Some(status.code().unwrap_or(-1)),
                None => {
                    alive += 1;
                    continue;
                }
            }
        }
        if alive == 0 {
            break;
        }
        if start.elapsed() > SCENARIO_CAP {
            // Deadlock: reap everything so no orphan outlives the test,
            // then fail below on the sentinel code.
            for (rank, slot) in children.iter_mut().enumerate() {
                let Some(child) = slot else { continue };
                if codes[rank].is_none() {
                    let _ = child.kill();
                    let _ = child.wait();
                    codes[rank] = Some(-99);
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    children
        .iter_mut()
        .enumerate()
        .map(|(rank, slot)| {
            let mut child = slot.take().expect("child present");
            let mut stdout = String::new();
            let mut stderr = String::new();
            if let Some(mut s) = child.stdout.take() {
                let _ = s.read_to_string(&mut stdout);
            }
            if let Some(mut s) = child.stderr.take() {
                let _ = s.read_to_string(&mut stderr);
            }
            // Already reaped above; this wait is a no-op safety net.
            let _ = child.wait();
            ChildResult {
                code: codes[rank].expect("exit code recorded"),
                stdout,
                stderr,
            }
        })
        .collect()
}

fn dump(name: &str, results: &[ChildResult]) -> String {
    let mut out = format!("scenario {name}:\n");
    for (rank, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "  rank {rank}: exit {}\n    stdout: {}\n    stderr: {}\n",
            r.code,
            r.stdout.trim().replace('\n', "\n            "),
            r.stderr.trim().replace('\n', "\n            "),
        ));
    }
    out
}

/// The serial `SelfComm` reference for the probe's selection: the
/// fault-free fallible path must match it bitwise.
fn serial_selection() -> Vec<usize> {
    let p = problem(7);
    let eta = 6.0 * (p.ehat() as f64).sqrt();
    let comm = SelfComm::new();
    let shard = ShardedProblem::replicate(&p);
    let exec = Executor::new(&comm, &shard);
    let relax = exec.relax(BUDGET, &relax_config());
    exec.round(&relax.z_local, BUDGET, eta, EigSolver::Exact)
        .selected
}

#[test]
fn fault_matrix_survivors_return_structured_errors_with_no_orphans() {
    const P: usize = 4;

    // --- Probe: fault-free run with deadlines + verification ON. ---
    // Yields the schedule coordinates (per-rank collective sequence
    // numbers) the fault specs below address, and pins that the fallible
    // path with a read deadline configured stays bitwise identical to the
    // serial reference.
    let probe = run_mesh(P, None, 15_000);
    for (rank, r) in probe.iter().enumerate() {
        assert_eq!(r.code, 0, "probe rank {rank}\n{}", dump("probe", &probe));
    }
    // The marker may share a line with libtest's `test ... ` progress
    // prefix (the child harness prints it without a trailing newline).
    let marker = probe[0]
        .stdout
        .lines()
        .find_map(|l| l.find("FAULT_MATRIX ").map(|at| &l[at..]))
        .unwrap_or_else(|| panic!("probe rank 0 printed no marker\n{}", dump("probe", &probe)));
    let field = |key: &str| -> String {
        marker
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("marker missing {key}: {marker}"))
            .to_string()
    };
    let relax_seq: u64 = field("relax_seq").parse().expect("relax_seq");
    let total_seq: u64 = field("total_seq").parse().expect("total_seq");
    let selected: Vec<usize> = field("selected")
        .split(',')
        .map(|s| s.parse().expect("selected index"))
        .collect();
    assert_eq!(
        selected,
        serial_selection(),
        "fault-free fallible path diverged from the SelfComm reference"
    );
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
            rendezvous_ms: 15_000,
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
            rendezvous_ms: 15_000,
            expect,
        });
    }
    // Stall past the deadline: the stalled rank is not killed, so the
    // survivors' DeadlineExceeded aborts the group and the stalled rank
    // itself then fails on the dead mesh — all four exit structured.
    scenarios.push(Scenario {
        name: "stall past deadline mid-round",
        fault: Some(format!("stall:rank=2,op={mid_round},ms={STALL_MS}")),
        rendezvous_ms: 15_000,
        expect: vec![CODE_COMM_ERROR; P],
    });
    // Severed connections: the dropping rank's own collectives fail too.
    scenarios.push(Scenario {
        name: "drop-conn mid-round",
        fault: Some(format!("drop-conn:rank=3,op={mid_round}")),
        rendezvous_ms: 15_000,
        expect: vec![CODE_COMM_ERROR; P],
    });
    // Mid-rendezvous kill: no mesh exists yet, so the survivors fail the
    // rendezvous itself — bounded by the rendezvous deadline, not the
    // (unset-able) collective deadline.
    {
        let mut expect = vec![CODE_RENDEZVOUS_FAILED; P];
        expect[3] = KILL_EXIT_CODE;
        scenarios.push(Scenario {
            name: "kill mid-rendezvous",
            fault: Some("kill:rank=3".to_string()),
            rendezvous_ms: RENDEZVOUS_MS,
            expect,
        });
    }

    for sc in &scenarios {
        let started = Instant::now();
        let results = run_mesh(P, sc.fault.as_deref(), sc.rendezvous_ms);
        let elapsed = started.elapsed();
        let codes: Vec<i32> = results.iter().map(|r| r.code).collect();
        assert!(
            !codes.contains(&-99),
            "deadlocked children had to be reaped\n{}",
            dump(sc.name, &results)
        );
        assert_eq!(
            codes,
            sc.expect,
            "({} | fault {:?}, took {elapsed:?})\n{}",
            sc.name,
            sc.fault,
            dump(sc.name, &results)
        );
        // Every structured failure carries a CommError rendering, not a
        // bare abort: the child prints it before choosing its exit code.
        for (rank, r) in results.iter().enumerate() {
            if r.code == CODE_COMM_ERROR {
                assert!(
                    r.stderr.contains("failed"),
                    "{}: rank {rank} exited 42 without a diagnostic\n{}",
                    sc.name,
                    dump(sc.name, &results)
                );
            }
        }
    }
}
