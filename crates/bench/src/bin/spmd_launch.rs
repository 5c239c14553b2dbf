//! SPMD process launcher: fork `p` ranks of this binary and hold them
//! open as a selection server over the [`SocketComm`] TCP mesh — or, for
//! `paper`, run the paper ledger in this process.
//!
//! The parent checks the workload name, then re-executes itself `p` times
//! with the rendezvous env vars set
//! ([`firal_comm::socket_comm::ENV_RANK`] / `ENV_SIZE` / `ENV_ADDR`); each
//! child joins the process group via [`SocketComm`]`::from_env` and runs
//! the workload. Any rank exiting non-zero fails the whole launch
//! (remaining ranks are killed so a dead peer cannot hang the mesh). A
//! missing or unknown workload or a malformed option value exits 2.
//!
//! Usage: `spmd_launch [-p N] <serve|paper> [workload options]`
//!
//! Workloads:
//! * `serve` — **active-learning-as-a-service**: hold the warm rank mesh
//!   open as a persistent selection server (`firal-serve`). Rank 0 binds
//!   `--addr` (default `127.0.0.1:7700`) and accepts selection clients
//!   (`firal_serve::ServeClient`; `tests/serve_soak.rs` drives one);
//!   batches of requests run concurrently on disjoint sub-communicators.
//!   Options: `--addr`, `--min-batch N` (hold rounds until N requests are
//!   queued). Runs until a client sends a shutdown request; exits 45 if
//!   the mesh degraded instead.
//! * `paper` — the paper ledger ([`firal_bench::paper`]), run here
//!   without forking (`-p` is ignored; rows that need p > 1 use
//!   in-process `ThreadComm` ranks): rewrites `BENCH_paper.json`, or with
//!   `--check FILE` re-runs it and exits 1 naming every claim whose
//!   verdict differs from `FILE`'s.
//!
//! The multi-process consistency gate (Approx-FIRAL, the η sweep and the
//! executor-generic strategies, each bitwise against the serial `SelfComm`
//! run) is the fault-free probe of `tests/fault_matrix.rs`.
//!
//! Examples:
//! ```text
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 4 serve --addr 127.0.0.1:7700
//! cargo run --release -p firal-bench --bin spmd_launch -- paper --check BENCH_paper.json
//! ```

use firal_bench::args::{has_flag, opt};
use firal_comm::{fork_self, Communicator, SocketComm};

const WORKLOADS: [&str; 2] = ["serve", "paper"];

/// Options that take a value (so the value is not read as the workload).
const VALUE_OPTIONS: &str = "-p --ranks --addr --min-batch --check";

/// First positional (non-flag) argument = the workload name.
fn workload_name(args: &[String]) -> Option<&str> {
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            a if VALUE_OPTIONS.split(' ').any(|o| o == a) => i += 2,
            a if a.starts_with('-') => i += 1,
            a => return Some(a),
        }
    }
    None
}

fn usage() -> String {
    format!(
        "usage: spmd_launch [-p N] <{}> [options]",
        WORKLOADS.join("|")
    )
}

/// The workload to run, or the usage error to exit 2 with — checked here,
/// before any rank is forked.
fn checked_workload(args: &[String]) -> Result<&str, String> {
    match workload_name(args) {
        Some(name) if WORKLOADS.contains(&name) => Ok(name),
        Some(other) => Err(format!("unknown workload {other:?}\n{}", usage())),
        None => Err(usage()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if has_flag(&args, "--help") || has_flag(&args, "-h") {
        println!("{}", usage());
        println!("Runs N processes of this binary over the SocketComm TCP mesh.");
        return;
    }
    let name = match checked_workload(&args) {
        Ok(name) => name,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    if name == "paper" {
        std::process::exit(firal_bench::paper::main(&args));
    }

    // Child mode: the launcher's env coordinates are set.
    if let Some(comm) = SocketComm::from_env() {
        let comm = match comm {
            Ok(c) => c,
            Err(e) => {
                eprintln!("spmd rendezvous failed: {e}");
                std::process::exit(3);
            }
        };
        // A panicking rank (e.g. a verifier mismatch abort) broadcasts its
        // diagnostic so peers fail with RemoteAbort instead of hanging.
        comm.install_panic_abort();
        std::process::exit(workload_serve(&comm, &args));
    }

    // Parent mode: fork the ranks and propagate their status.
    let p: usize = opt(&args, "-p")
        .or_else(|| opt(&args, "--ranks"))
        .unwrap_or(2);
    eprintln!("spmd_launch: {p} process ranks, workload {name:?}");
    let code = fork_self(p).expect("failed to spawn SPMD ranks");
    if code != 0 {
        eprintln!("spmd_launch: workload {name:?} FAILED (exit {code})");
    }
    std::process::exit(code);
}

/// Active-learning-as-a-service: hold the warm mesh open as a persistent
/// selection server until a client requests shutdown. Exit codes: 0 clean
/// shutdown, 45 the mesh degraded mid-service (a request's sub-group
/// failed and the server wound down reporting it), 4 the serve control
/// plane itself failed.
fn workload_serve(comm: &SocketComm, args: &[String]) -> i32 {
    let addr: String = opt(args, "--addr").unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let min_batch: usize = opt(args, "--min-batch").unwrap_or(1);
    let config = firal_serve::ServeConfig::new(addr.clone()).with_min_batch(min_batch);
    if comm.rank() == 0 {
        eprintln!(
            "serve: {}-rank mesh listening on {addr} (min batch {min_batch})",
            comm.size()
        );
    }
    match firal_serve::run(comm, &config) {
        Ok(summary) => {
            if comm.rank() == 0 {
                println!(
                    "serve: {} rounds, {} ok / {} err requests{}",
                    summary.rounds,
                    summary.requests_ok,
                    summary.requests_err,
                    match &summary.degraded {
                        Some(why) => format!(", DEGRADED: {why}"),
                        None => String::new(),
                    }
                );
            }
            i32::from(summary.degraded.is_some()) * 45
        }
        Err(e) => {
            eprintln!("rank {}: serve failed: {e}", comm.rank());
            4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn workload_is_the_first_positional_argument() {
        assert_eq!(workload_name(&args("spmd_launch -p 4")), None);
        assert_eq!(
            workload_name(&args("spmd_launch -p 4 serve --addr 127.0.0.1:7700")),
            Some("serve")
        );
        assert_eq!(
            workload_name(&args("spmd_launch --check BENCH_paper.json paper")),
            Some("paper")
        );
    }

    #[test]
    fn a_missing_or_unknown_workload_is_a_usage_error() {
        assert_eq!(
            checked_workload(&args("spmd_launch -p 4 serve")),
            Ok("serve")
        );
        let unknown = checked_workload(&args("spmd_launch -p 4 bogus")).unwrap_err();
        assert!(unknown.contains("unknown workload \"bogus\""), "{unknown}");
        assert!(unknown.contains("usage:"), "{unknown}");
        let missing = checked_workload(&args("spmd_launch -p 4")).unwrap_err();
        assert!(missing.starts_with("usage:"), "{missing}");
    }
}
