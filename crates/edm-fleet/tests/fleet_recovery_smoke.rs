//! Kill-and-restart smoke tests of the `edm-fleet` binary with
//! `--journal-dir`, over both transports: jobs acknowledged before a
//! SIGKILL are replayed on their original devices by the next process,
//! previously issued fleet ids keep resolving, fresh ids never collide
//! with pre-crash ones, and a replayed job's summary is bit-identical to
//! an uninterrupted run.

mod common;

use common::{connect, exchange, ghz_submit, poll_until_done, spawn_stdio, submit};
use edm_serve::client::Client;
use edm_serve::protocol::{JobSummary, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

/// A running `edm-fleet` process plus the address it printed to stderr.
struct Server {
    child: Child,
    addr: String,
    recovered: u64,
}

fn spawn(journal_dir: &str) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edm-fleet"))
        .args(["--devices", "2", "--threads", "2", "--addr", "127.0.0.1:0"])
        .args(["--journal-dir", journal_dir])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn edm-fleet");
    // The binary prints `recovered N unfinished job(s) ...` (if any) and
    // then `fleet listening on ADDR`, both to stderr, before serving.
    let stderr = child.stderr.take().expect("stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut recovered = 0;
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read stderr");
        assert!(n > 0, "edm-fleet exited before listening");
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("recovered ") {
            let count = rest.split_whitespace().next().unwrap_or("0");
            recovered = count.parse().expect("recovered count parses");
        }
        if let Some(addr) = line.strip_prefix("fleet listening on ") {
            break addr.to_string();
        }
    };
    Server {
        child,
        addr,
        recovered,
    }
}

/// Polls a job out of the queue; `true` iff it finished.
fn resolve(client: &mut Client, id: u64) -> bool {
    match poll_until_done(client, id) {
        Response::Finished { .. } => true,
        Response::Unknown { .. } => false,
        other => panic!("expected Finished/Unknown/Queued for {id}, got {other:?}"),
    }
}

#[test]
fn killed_fleet_replays_its_journals_on_restart() {
    let dir = std::env::temp_dir().join(format!(
        "edm-fleet-smoke-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir_arg = dir.to_str().unwrap().to_string();

    // First fleet: ack a burst of jobs, then die hard. Each Accepted ack
    // proves the routed device journaled the job before replying, so
    // every acked id is either on disk as unfinished (replays) or made it
    // all the way to completion before the kill.
    let mut server = spawn(&dir_arg);
    assert_eq!(server.recovered, 0, "an empty dir recovers nothing");
    let mut client = connect(&server.addr);
    let ids: Vec<u64> = (0..8).map(|seed| submit(&mut client, 4096, seed)).collect();
    server.child.kill().expect("SIGKILL edm-fleet");
    server.child.wait().expect("reap edm-fleet");

    // Second fleet: replays the device journals, restores the fleet
    // id → (device, local id) index, and finishes the survivors.
    let mut server = spawn(&dir_arg);
    assert!(
        server.recovered >= 1,
        "a burst of 8 jobs cannot all have finished before the kill"
    );
    let mut client = connect(&server.addr);
    let finished = ids.iter().filter(|&&id| resolve(&mut client, id)).count() as u64;
    assert_eq!(
        finished, server.recovered,
        "every recovered job must finish under its pre-crash fleet id"
    );
    // The index journal also restored the id allocator: a fresh
    // submission must not collide with any pre-crash id.
    let fresh = submit(&mut client, 64, 99);
    assert!(
        fresh > *ids.iter().max().unwrap(),
        "fresh id {fresh} collides with pre-crash ids {ids:?}"
    );
    assert!(resolve(&mut client, fresh));
    assert!(matches!(
        exchange(&mut client, &Request::Shutdown),
        Response::Bye
    ));
    assert!(server.child.wait().expect("edm-fleet exits").success());

    // Third start: everything is journaled complete, so nothing replays
    // and the old ids are gone.
    let mut server = spawn(&dir_arg);
    assert_eq!(server.recovered, 0);
    let mut client = connect(&server.addr);
    assert!(matches!(
        exchange(&mut client, &Request::Poll { id: ids[0] }),
        Response::Unknown { .. }
    ));
    assert!(matches!(
        exchange(&mut client, &Request::Shutdown),
        Response::Bye
    ));
    assert!(server.child.wait().expect("edm-fleet exits").success());

    let _ = std::fs::remove_dir_all(&dir);
}

fn send(child: &mut Child, request: &Request) {
    let stdin = child.stdin.as_mut().expect("stdin piped");
    let line = serde_json::to_string(request).unwrap();
    writeln!(stdin, "{line}").expect("write request");
}

fn recv(reader: &mut impl BufRead) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    serde_json::from_str(&line).expect("parse response")
}

/// Runs an uninterrupted journal-less stdio session and returns job 1's
/// summary.
fn reference_summary() -> JobSummary {
    let mut child = spawn_stdio(&[]);
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    send(&mut child, &ghz_submit(512, 7));
    assert!(matches!(recv(&mut out), Response::Accepted { id: 1, .. }));
    send(&mut child, &Request::Poll { id: 1 });
    let Response::Finished { id: 1, summary } = recv(&mut out) else {
        panic!("reference run did not finish");
    };
    send(&mut child, &Request::Shutdown);
    assert_eq!(recv(&mut out), Response::Bye);
    assert!(child.wait().expect("edm-fleet exits").success());
    summary
}

#[test]
fn killed_stdio_server_replays_its_journal_on_restart() {
    let dir = std::env::temp_dir().join(format!(
        "edm-stdio-smoke-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let journal_arg = dir.to_str().unwrap();

    let mut want = reference_summary();

    // First server: accept the job, then die before ever processing it
    // (stdio mode only runs jobs when polled). The Accepted ack proves the
    // journal entry is on disk (the service journals before acknowledging).
    let mut child = spawn_stdio(&["--journal-dir", journal_arg]);
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    send(&mut child, &ghz_submit(512, 7));
    let Response::Accepted {
        id: 1,
        trace_id: acked_trace,
    } = recv(&mut out)
    else {
        panic!("first server did not accept the job");
    };
    assert_ne!(acked_trace, 0);
    child.kill().expect("kill edm-fleet");
    child.wait().expect("reap edm-fleet");

    // Second server: replays the journal and serves the job under its
    // original id, bit-identical to the uninterrupted run.
    let mut child = spawn_stdio(&["--journal-dir", journal_arg]);
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    send(&mut child, &Request::Poll { id: 1 });
    let Response::Finished { id: 1, summary } = recv(&mut out) else {
        panic!("restarted server did not finish the replayed job");
    };
    assert_eq!(
        summary.trace_id, acked_trace,
        "the replayed job must keep the trace id acknowledged before the crash"
    );
    // Trace ids are freshly drawn per process and latency is wall-clock,
    // so both differ across runs by construction; everything else must be
    // bit-identical.
    want.trace_id = summary.trace_id;
    want.latency_ms = summary.latency_ms;
    assert_eq!(summary, want, "replay must be bit-identical");
    send(&mut child, &Request::Shutdown);
    assert_eq!(recv(&mut out), Response::Bye);
    assert!(child.wait().expect("edm-fleet exits").success());

    // Third start: the journal now records completion, so nothing replays
    // and the id is unknown.
    let mut child = spawn_stdio(&["--journal-dir", journal_arg]);
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    send(&mut child, &Request::Poll { id: 1 });
    assert_eq!(recv(&mut out), Response::Unknown { id: 1 });
    send(&mut child, &Request::Shutdown);
    assert_eq!(recv(&mut out), Response::Bye);
    assert!(child.wait().expect("edm-fleet exits").success());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_device_journal_exits_with_the_data_code() {
    let dir = std::env::temp_dir().join(format!(
        "edm-fleet-corrupt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("device-0.jsonl"),
        "{\"garbage\": true}\n{\"more\": 1}\n",
    )
    .unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_edm-fleet"))
        .args(["--devices", "2", "--journal-dir", dir.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run edm-fleet");
    assert_eq!(
        output.status.code(),
        Some(65),
        "corrupt journal is EX_DATAERR"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("journal"), "stderr was: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
