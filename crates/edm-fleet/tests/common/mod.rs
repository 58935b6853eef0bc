//! Helpers shared by the fleet's integration tests.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use edm_serve::client::Client;
use edm_serve::protocol::{Request, Response};
use edm_serve::queue::Priority;
use std::time::{Duration, Instant};

pub fn ghz_qasm() -> String {
    let mut c = qcir::Circuit::new(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    qcir::qasm::to_qasm(&c)
}

/// An untraced GHZ submission.
pub fn ghz_submit(shots: u64, seed: u64) -> Request {
    Request::Submit {
        qasm: ghz_qasm(),
        shots,
        seed,
        priority: Priority::Normal,
        trace_id: 0,
        parent_span: 0,
    }
}

/// Connects with a 60 s read timeout, so a lost response fails the test
/// instead of hanging it.
pub fn connect(addr: &str) -> Client {
    let client = Client::connect(addr).expect("connect to fleet server");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    client
}

pub fn exchange(client: &mut Client, request: &Request) -> Response {
    client.exchange(request).expect("request/response exchange")
}

pub fn recv(client: &mut Client) -> Response {
    client.recv().expect("read response")
}

/// Submits a GHZ job and returns its fleet id.
pub fn submit(client: &mut Client, shots: u64, seed: u64) -> u64 {
    match exchange(client, &ghz_submit(shots, seed)) {
        Response::Accepted { id, .. } => id,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

/// Polls until the job leaves the queue and returns that answer
/// (`Finished`, `Failed`, or `Unknown`).
pub fn poll_until_done(client: &mut Client, id: u64) -> Response {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match exchange(client, &Request::Poll { id }) {
            Response::Queued { .. } => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            done => return done,
        }
    }
}

/// Spawns `edm-fleet --stdio` as the single melbourne14 device server,
/// with piped stdin/stdout and `extra` flags appended.
pub fn spawn_stdio(extra: &[&str]) -> std::process::Child {
    std::process::Command::new(env!("CARGO_BIN_EXE_edm-fleet"))
        .args(["--stdio", "--devices", "1", "--presets", "melbourne14"])
        .args(["--threads", "2"])
        .args(extra)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn edm-fleet --stdio")
}
