//! The self-re-exec process-mesh harness shared by the multi-process tests.
//!
//! A test binary is both the parent and the SPMD child: [`Mesh::spawn`]
//! re-executes the current test executable `size` times on one named
//! child-entry test (`--exact <entry>`) with the `FIRAL_SPMD_*` rank
//! coordinates and a fresh rendezvous address set, so each rank joins a
//! genuine TCP mesh through `SocketComm::from_env`. The child entry returns
//! immediately when no rank coordinates are set (an ordinary `cargo test`).
//!
//! Every rank runs with the collective-order verifier on and no injected
//! fault; the caller's env entries are applied after those defaults and
//! override them. Each child's stdout and stderr
//! are drained on their own threads while it runs, so a rank that writes
//! more than a pipe buffer never blocks. [`Mesh::supervise`] polls with a
//! hard cap and reports a rank still running at the cap with the
//! [`DEADLOCKED`] sentinel after killing it; dropping a [`Mesh`] kills and
//! reaps every rank still alive, so a failing test never leaks orphans.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use firal::comm::socket_comm::{ENV_ADDR, ENV_RANK, ENV_SIZE};
use firal::comm::{free_rendezvous_addr, FAULT_ENV, VERIFY_ENV};

/// Exit code reported for a rank the supervisor had to kill at the cap.
pub const DEADLOCKED: i32 = -99;

/// One rank's outcome: exit code and everything it wrote.
pub struct ChildResult {
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
}

impl ChildResult {
    /// The rest of the first stdout line from `tag` on. The marker may share
    /// a line with libtest's `test ... ` progress prefix, which the child
    /// harness prints without a trailing newline.
    pub fn marker(&self, tag: &str) -> Option<&str> {
        self.stdout
            .lines()
            .find_map(|l| l.find(tag).map(|at| &l[at..]))
    }
}

struct Rank {
    child: Child,
    stdout: JoinHandle<String>,
    stderr: JoinHandle<String>,
}

/// A spawned mesh of this test binary's child entry.
pub struct Mesh {
    ranks: Vec<Rank>,
}

fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

impl Mesh {
    /// Start `size` ranks of the current test executable on the `entry`
    /// test, each with the default env plus `env`.
    pub fn spawn(entry: &str, size: usize, env: &[(&str, String)]) -> Mesh {
        let exe = std::env::current_exe().expect("test executable path");
        let rendezvous = free_rendezvous_addr().expect("free rendezvous port");
        let ranks = (0..size)
            .map(|rank| {
                let mut cmd = Command::new(&exe);
                cmd.args([entry, "--exact", "--test-threads=1", "--nocapture"])
                    .env(ENV_RANK, rank.to_string())
                    .env(ENV_SIZE, size.to_string())
                    .env(ENV_ADDR, &rendezvous)
                    .env(VERIFY_ENV, "1")
                    .env_remove(FAULT_ENV)
                    .envs(env.iter().map(|(k, v)| (*k, v)))
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped());
                let mut child = cmd
                    .spawn()
                    .unwrap_or_else(|e| panic!("spawn {entry} rank {rank}: {e}"));
                let stdout = drain(child.stdout.take().expect("piped stdout"));
                let stderr = drain(child.stderr.take().expect("piped stderr"));
                Rank {
                    child,
                    stdout,
                    stderr,
                }
            })
            .collect();
        Mesh { ranks }
    }

    /// Wait for every rank with a hard cap; a rank still running at the
    /// cap is killed and reported as [`DEADLOCKED`] (the orphan/deadlock
    /// detector).
    pub fn supervise(&mut self, cap: Duration) -> Vec<ChildResult> {
        let start = Instant::now();
        let mut codes = vec![None; self.ranks.len()];
        loop {
            let mut alive = 0;
            for (code, rank) in codes.iter_mut().zip(&mut self.ranks) {
                if code.is_none() {
                    match rank.child.try_wait().expect("try_wait") {
                        Some(status) => *code = Some(status.code().unwrap_or(-1)),
                        None => alive += 1,
                    }
                }
            }
            if alive == 0 {
                break;
            }
            if start.elapsed() > cap {
                for (code, rank) in codes.iter_mut().zip(&mut self.ranks) {
                    if code.is_none() {
                        let _ = rank.child.kill();
                        let _ = rank.child.wait();
                        *code = Some(DEADLOCKED);
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Every rank has exited, so each reader has hit end-of-file.
        codes
            .into_iter()
            .zip(std::mem::take(&mut self.ranks))
            .map(|(code, rank)| ChildResult {
                code: code.expect("exit code recorded"),
                stdout: rank.stdout.join().expect("stdout reader"),
                stderr: rank.stderr.join().expect("stderr reader"),
            })
            .collect()
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for rank in &mut self.ranks {
            let _ = rank.child.kill();
            let _ = rank.child.wait();
        }
    }
}

/// Every rank's exit code and output, indented for an assertion message.
pub fn dump(results: &[ChildResult]) -> String {
    let mut out = String::new();
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
