//! End-to-end tests for the sharded non-blocking connection layer: real
//! TCP clients against a running [`FleetServer`], exercising frame
//! reassembly across split writes, reject-with-reason for malformed
//! frames, concurrent submissions, per-device fleet status, and shutdown;
//! plus the stdio transport answering a script exactly as TCP does.

mod common;

use common::{connect, exchange, ghz_submit, poll_until_done, recv, submit};
use edm_fleet::fleet::{Fleet, FleetConfig};
use edm_fleet::server::{serve_stdio, FleetServer, ServerConfig};
use edm_serve::client::Client;
use edm_serve::protocol::{JobSummary, Request, Response};
use edm_serve::service::ServeConfig;
use qdevice::presets;
use std::time::Duration;

fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    let fleet = Fleet::synthesize(
        &[
            (presets::melbourne14(), "melbourne14"),
            (presets::tokyo20(), "tokyo20"),
        ],
        7,
        FleetConfig {
            serve: ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        },
    );
    let config = ServerConfig {
        shards: 2,
        max_frame: 4096,
        ..ServerConfig::default()
    };
    let server = FleetServer::bind(fleet, "127.0.0.1:0", config).expect("bind fleet server");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn await_finished(client: &mut Client, id: u64) {
    match poll_until_done(client, id) {
        Response::Finished { .. } => {}
        other => panic!("expected Finished/Queued for {id}, got {other:?}"),
    }
}

#[test]
fn clients_submit_over_tcp_and_malformed_frames_are_rejected_with_reasons() {
    let (addr, server) = spawn_server();

    // A request split across two TCP writes must reassemble into one frame.
    let mut split = connect(&addr);
    let mut line = serde_json::to_string(&ghz_submit(64, 1)).unwrap();
    line.push('\n');
    let bytes = line.as_bytes();
    let cut = bytes.len() / 2;
    split.send_raw(&bytes[..cut]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    split.send_raw(&bytes[cut..]).unwrap();
    let split_id = match recv(&mut split) {
        Response::Accepted { id, .. } => id,
        other => panic!("split write should still submit, got {other:?}"),
    };

    // Several clients submitting concurrently: unique ids, all finish.
    let mut clients: Vec<Client> = (0..4).map(|_| connect(&addr)).collect();
    let mut ids = vec![split_id];
    for (i, client) in clients.iter_mut().enumerate() {
        ids.push(submit(client, 64, 100 + i as u64));
    }
    let distinct: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
    assert_eq!(distinct.len(), ids.len(), "fleet ids must be unique");
    await_finished(&mut split, split_id);
    for (i, client) in clients.iter_mut().enumerate() {
        await_finished(client, ids[i + 1]);
    }

    // Malformed frames are answered, not dropped: the connection stays
    // usable afterwards.
    let mut bad = connect(&addr);
    bad.send_raw(b"{\"this is\": not json}\n").unwrap();
    match recv(&mut bad) {
        Response::Error { reason } => assert!(
            reason.contains("bad request line"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected Error for bad JSON, got {other:?}"),
    }
    bad.send_raw(b"\xff\xfe\xfd\n").unwrap();
    match recv(&mut bad) {
        Response::Error { reason } => assert!(
            reason.contains("not valid UTF-8"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected Error for invalid UTF-8, got {other:?}"),
    }
    // An unterminated 8 KiB blob overflows the 4 KiB frame bound; the
    // framer resyncs at the next newline and the connection keeps working.
    let mut oversized = vec![b'x'; 8 * 1024];
    oversized.push(b'\n');
    bad.send_raw(&oversized).unwrap();
    match recv(&mut bad) {
        Response::Error { reason } => assert!(
            reason.contains("frame too long"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected Error for oversized frame, got {other:?}"),
    }
    let survivor = submit(&mut bad, 32, 9);
    await_finished(&mut bad, survivor);

    // FleetStats reports both devices, in index order, with every job
    // accounted for somewhere in the fleet.
    match exchange(&mut bad, &Request::FleetStats) {
        Response::FleetStats { devices } => {
            assert_eq!(devices.len(), 2);
            assert_eq!(devices[0].device, 0);
            assert_eq!(devices[1].device, 1);
            assert!(devices[0].name.starts_with("melbourne14#"));
            assert!(devices[1].name.starts_with("tokyo20#"));
            let submitted: u64 = devices.iter().map(|d| d.stats.submitted).sum();
            assert_eq!(submitted, ids.len() as u64 + 1);
        }
        other => panic!("expected FleetStats, got {other:?}"),
    }
    match exchange(&mut bad, &Request::Stats) {
        Response::Stats { stats } => {
            assert_eq!(stats.submitted, ids.len() as u64 + 1);
            assert_eq!(stats.completed, ids.len() as u64 + 1);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // Any client's Shutdown stops the whole server.
    assert!(matches!(
        exchange(&mut bad, &Request::Shutdown),
        Response::Bye
    ));
    server.join().expect("server thread exits cleanly");
}

#[test]
fn unknown_ids_and_blank_lines_are_handled() {
    let (addr, server) = spawn_server();
    let mut client = connect(&addr);
    // Blank lines are ignored, not answered: the next real request gets
    // the next response.
    client.send_raw(b"\n\n").unwrap();
    assert!(matches!(
        exchange(&mut client, &Request::Poll { id: 424242 }),
        Response::Unknown { id: 424242 }
    ));
    assert!(matches!(
        exchange(&mut client, &Request::Shutdown),
        Response::Bye
    ));
    server.join().expect("server thread exits cleanly");
}

/// A one-device melbourne14 fleet, as `edm-fleet --devices 1 --presets
/// melbourne14` builds it.
fn single_device_fleet() -> Fleet<edm_fleet::backend::DeviceBackend> {
    Fleet::synthesize(
        &[(presets::melbourne14(), "melbourne14")],
        42,
        FleetConfig {
            serve: ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        },
    )
}

/// The summary with its per-process fields (fresh trace id, wall-clock
/// latency) zeroed, leaving what must agree across transports.
fn comparable(response: Response) -> JobSummary {
    match response {
        Response::Finished { summary, .. } => JobSummary {
            trace_id: 0,
            latency_ms: 0,
            ..summary
        },
        other => panic!("expected Finished, got {other:?}"),
    }
}

#[test]
fn stdio_and_tcp_transports_answer_the_same_script_identically() {
    let script = [ghz_submit(1024, 7), ghz_submit(512, 8)];

    let mut input = Vec::new();
    for request in script.iter().chain(&[
        Request::Poll { id: 1 },
        Request::Poll { id: 2 },
        Request::Shutdown,
    ]) {
        input.extend_from_slice(serde_json::to_string(request).unwrap().as_bytes());
        input.push(b'\n');
    }
    let mut output = Vec::new();
    serve_stdio(&single_device_fleet(), input.as_slice(), &mut output).unwrap();
    let stdio: Vec<Response> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    assert_eq!(stdio.len(), 5);
    assert_eq!(stdio[4], Response::Bye);

    let server = FleetServer::bind(
        single_device_fleet(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = connect(&server.local_addr().to_string());
    let server_thread = std::thread::spawn(move || server.run());
    for (request, want) in script.iter().zip(&stdio) {
        let got = exchange(&mut client, request);
        assert!(
            matches!((&got, want), (Response::Accepted { id: a, .. }, Response::Accepted { id: b, .. }) if a == b),
            "tcp {got:?} vs stdio {want:?}"
        );
    }
    for id in [1, 2] {
        assert_eq!(
            comparable(poll_until_done(&mut client, id)),
            comparable(stdio[1 + id as usize].clone()),
            "job {id}"
        );
    }
    assert_eq!(exchange(&mut client, &Request::Shutdown), Response::Bye);
    server_thread.join().unwrap();
}
