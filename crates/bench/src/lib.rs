//! The harnesses behind `spmd_launch` and `kernel_bench`: the paper ledger
//! (`spmd_launch paper` → `BENCH_paper.json`), the workload builders it and
//! `kernel_bench` share, and their option parsing.

pub mod args;
pub mod paper;
pub mod workloads;

/// Serialises this crate's tests that run kernels: the `counters` the
/// ledger reads are process-global.
#[cfg(test)]
pub(crate) static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());
