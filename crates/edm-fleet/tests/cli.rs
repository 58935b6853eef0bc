//! The `edm-fleet` and `fleet_load` command lines: a scripted
//! `edm-fleet --stdio` session (submit, poll, stats, resubmit (cache hit),
//! shutdown — one process, scripted stdin), and flag errors that must exit
//! 2 with the usage text instead of being ignored or panicking.

mod common;

use common::{ghz_qasm, ghz_submit, spawn_stdio};
use edm_serve::protocol::{Request, Response};
use edm_serve::queue::Priority;
use std::io::Write;
use std::process::{Command, Output, Stdio};

fn run_session(lines: &[Request]) -> Vec<Response> {
    let mut child = spawn_stdio(&[]);
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        for request in lines {
            let line = serde_json::to_string(request).unwrap();
            writeln!(stdin, "{line}").expect("write request");
        }
    }
    let output = child.wait_with_output().expect("edm-fleet exits");
    assert!(output.status.success(), "edm-fleet failed: {output:?}");
    String::from_utf8(output.stdout)
        .expect("utf8 stdout")
        .lines()
        .map(|line| serde_json::from_str(line).expect("parse response"))
        .collect()
}

#[test]
fn submit_poll_stats_shutdown_round_trip() {
    let submit = ghz_submit(1024, 7);
    let responses = run_session(&[
        submit.clone(),
        Request::Poll { id: 1 },
        submit.clone(),
        Request::Poll { id: 2 },
        Request::Stats,
        Request::Shutdown,
    ]);
    assert_eq!(responses.len(), 6);
    let Response::Accepted { id: 1, trace_id } = responses[0] else {
        panic!("expected Accepted for job 1, got {:?}", responses[0]);
    };
    assert_ne!(trace_id, 0, "every accepted job carries a correlation id");

    let Response::Finished { id: 1, summary } = &responses[1] else {
        panic!("expected Finished for job 1, got {:?}", responses[1]);
    };
    assert_eq!(summary.shots, 1024);
    // GHZ answer: the merged top outcome is one of the two peaks.
    assert!(
        summary.top_outcome == "000" || summary.top_outcome == "111",
        "unexpected GHZ answer {:?}",
        summary.top_outcome
    );

    assert!(matches!(responses[2], Response::Accepted { id: 2, .. }));
    assert!(matches!(responses[3], Response::Finished { id: 2, .. }));

    let Response::Stats { stats } = &responses[4] else {
        panic!("expected Stats, got {:?}", responses[4]);
    };
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.compilations, 1, "resubmission must hit the cache");
    // Routing scores each submission through the device cache before the
    // executor looks it up again: miss + hit for job 1, hit + hit for 2.
    assert_eq!(stats.cache.hits, 3);

    assert_eq!(responses[5], Response::Bye);
}

#[test]
fn bad_requests_are_reported_not_fatal() {
    let responses = run_session(&[
        Request::Submit {
            qasm: "this is not qasm".into(),
            shots: 64,
            seed: 1,
            priority: Priority::Normal,
            trace_id: 0,
            parent_span: 0,
        },
        Request::Submit {
            qasm: ghz_qasm(),
            shots: 0,
            seed: 1,
            priority: Priority::Normal,
            trace_id: 0,
            parent_span: 0,
        },
        Request::Poll { id: 42 },
        Request::Shutdown,
    ]);
    assert_eq!(responses.len(), 4);
    assert!(matches!(&responses[0], Response::Rejected { reason } if reason.contains("bad qasm")));
    assert!(
        matches!(&responses[1], Response::Rejected { reason } if reason.contains("shots must be at least 1"))
    );
    assert_eq!(responses[2], Response::Unknown { id: 42 });
    assert_eq!(responses[3], Response::Bye);
}

#[test]
fn bump_calibration_invalidates_served_cache() {
    let submit = ghz_submit(256, 3);
    let responses = run_session(&[
        submit.clone(),
        Request::Flush,
        Request::BumpCalibration,
        submit.clone(),
        Request::Flush,
        Request::Stats,
        Request::Shutdown,
    ]);
    assert_eq!(responses[1], Response::Processed { jobs: 1 });
    assert_eq!(responses[2], Response::Recalibrated { generation: 1 });
    assert_eq!(responses[4], Response::Processed { jobs: 1 });
    let Response::Stats { stats } = &responses[5] else {
        panic!("expected Stats, got {:?}", responses[5]);
    };
    assert_eq!(
        stats.compilations, 2,
        "generation bump must force recompile"
    );
}

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run binary")
}

/// Asserts a usage error: exit 2, the reason, then the usage text.
fn assert_usage_error(output: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr was: {stderr}");
    assert!(stderr.contains(reason), "stderr was: {stderr}");
    assert!(stderr.contains("usage:"), "stderr was: {stderr}");
}

#[test]
fn unknown_and_misspelled_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("edm-fleet-cli-{}", std::process::id()));
    let dir_arg = dir.to_str().unwrap();
    let fleet = env!("CARGO_BIN_EXE_edm-fleet");
    // A misspelled journal flag must not start a server without a journal.
    let output = run(fleet, &["--stdio", "--jounral-dir", dir_arg]);
    assert_usage_error(&output, "unknown flag --jounral-dir");
    assert!(!dir.exists(), "no journal directory may be created");
    // The single-file journal flag is gone; old scripts fail loudly.
    let output = run(fleet, &["--stdio", "--journal", "wal.jsonl"]);
    assert_usage_error(&output, "unknown flag --journal");
    let output = run(fleet, &["--stdio", "stray"]);
    assert_usage_error(&output, "unknown flag stray");
    let output = run(fleet, &["--stdio", "--devices"]);
    assert_usage_error(&output, "--devices expects a value");
}

#[test]
fn stdio_rejects_tcp_only_flags() {
    let fleet = env!("CARGO_BIN_EXE_edm-fleet");
    let output = run(fleet, &["--stdio", "--addr", "127.0.0.1:0"]);
    assert_usage_error(&output, "--stdio cannot be combined with --addr");
    let output = run(fleet, &["--shards", "2", "--stdio"]);
    assert_usage_error(&output, "--stdio cannot be combined with --shards");
}

#[test]
fn zero_threads_is_a_usage_error_in_both_binaries() {
    let output = run(
        env!("CARGO_BIN_EXE_edm-fleet"),
        &["--stdio", "--threads", "0"],
    );
    assert_usage_error(&output, "threads must be at least 1 (got 0)");

    let output = run(env!("CARGO_BIN_EXE_fleet_load"), &["--threads", "0"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr was: {stderr}");
    assert!(
        stderr.contains("threads must be at least 1 (got 0)"),
        "stderr was: {stderr}"
    );
}
