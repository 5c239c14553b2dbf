//! Source conventions behind the determinism contracts that neither the
//! compiler nor clippy can check (ARCHITECTURE.md, "Determinism contracts
//! and how they are enforced").

use std::fs;
use std::path::{Path, PathBuf};

/// The collectives of `firal_comm::Communicator`, fallible and panicking.
const COLLECTIVES: [&str; 12] = [
    "try_barrier",
    "try_allreduce_f64",
    "try_bcast_f64",
    "try_allgatherv_f64",
    "try_allreduce_maxloc",
    "try_split",
    "barrier",
    "allreduce_f64",
    "bcast_f64",
    "allgatherv_f64",
    "allreduce_maxloc",
    "split",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every collective states its determinism guarantee in its own doc block.
#[test]
fn every_collective_documents_determinism() {
    let src = fs::read_to_string(root().join("crates/comm/src/communicator.rs")).unwrap();
    let lines: Vec<&str> = src.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.starts_with("pub trait Communicator"))
        .expect("`trait Communicator` not found");
    let end = start + lines[start..].iter().position(|l| *l == "}").unwrap();
    let body: Vec<&str> = lines[start..end].iter().map(|l| l.trim()).collect();
    for name in COLLECTIVES {
        let at = body
            .iter()
            .position(|l| l.starts_with(&format!("fn {name}(")))
            .unwrap_or_else(|| panic!("collective `{name}` not found in `trait Communicator`"));
        let documented = body[..at]
            .iter()
            .rev()
            .take_while(|l| l.starts_with("///") || l.starts_with("#["))
            .any(|l| l.contains("Determinism"));
        assert!(documented, "`{name}` has no `Determinism` paragraph");
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file of the repo outside build output.
fn source_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["benchmark", "crates", "examples", "src", "tests"] {
        rust_files(&root().join(top), &mut files);
    }
    files
}

/// Feature-gated code lives behind the runtime-checked dispatcher.
#[test]
fn target_feature_only_in_the_simd_module() {
    let simd = root().join("crates/linalg/src/simd");
    for file in source_files().iter().filter(|f| !f.starts_with(&simd)) {
        let src = fs::read_to_string(file).unwrap();
        for (i, line) in src.lines().enumerate() {
            let misplaced = line.trim_start().starts_with("#[target_feature");
            assert!(
                !misplaced,
                "{}:{}: #[target_feature] outside crates/linalg/src/simd",
                file.display(),
                i + 1
            );
        }
    }
}

/// No fused multiply-add intrinsic, in any width, mask, rounding or lane
/// form: every tier pins two-rounding multiply-then-add. Comments may name
/// them; `f32::mul_add` and `f64::mul_add` are banned in `clippy.toml`.
#[test]
fn no_fused_multiply_add_intrinsics() {
    let this = root().join("tests/contracts.rs");
    for file in source_files().iter().filter(|f| **f != this) {
        let src = fs::read_to_string(file).unwrap();
        for (i, line) in src.lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            let fused = ["fmadd", "fmsub", "vfma", "vmla"];
            if let Some(name) = fused.iter().find(|t| code.contains(*t)) {
                panic!("{}:{}: fused multiply-add `{name}`", file.display(), i + 1);
            }
        }
    }
}
