//! `edm-cli` argument validation: degenerate `--shots` / `--threads`
//! values must die at the flag parser with a clear message, not deep in
//! the pipeline.

use std::process::Command;

/// Writes the fixture under a per-test name: tests run in parallel, and a
/// shared file could be read by one test's `edm-cli` while another test
/// is rewriting it.
fn ghz_file(test: &str) -> std::path::PathBuf {
    let mut c = qcir::Circuit::new(2, 2);
    c.h(0).cx(0, 1).measure_all();
    let path = std::env::temp_dir().join(format!("edm_cli_validation_{test}.qasm"));
    std::fs::write(&path, qcir::qasm::to_qasm(&c)).expect("write qasm fixture");
    path
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_edm-cli"))
        .args(args)
        .output()
        .expect("spawn edm-cli")
}

#[test]
fn zero_shots_is_a_clean_cli_error() {
    let qasm = ghz_file("zero_shots");
    let out = run_cli(&["run", qasm.to_str().unwrap(), "--shots", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--shots") && stderr.contains("shots must be at least 1"),
        "stderr was: {stderr}"
    );
}

#[test]
fn zero_threads_is_a_clean_cli_error() {
    let qasm = ghz_file("zero_threads");
    let out = run_cli(&[
        "run",
        qasm.to_str().unwrap(),
        "--threads",
        "0",
        "--shots",
        "64",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads") && stderr.contains("omit the flag"),
        "stderr was: {stderr}"
    );
}

#[test]
fn explicit_thread_cap_still_works() {
    let qasm = ghz_file("thread_cap");
    let out = run_cli(&[
        "run",
        qasm.to_str().unwrap(),
        "--threads",
        "1",
        "--shots",
        "256",
    ]);
    assert!(
        out.status.success(),
        "stderr was: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ideal (correct) answer"),
        "stdout: {stdout}"
    );
}
