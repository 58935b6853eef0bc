//! Cross-process trace propagation over the fleet's TCP front end.
//!
//! The client is the trace's origin: it mints a trace id and a root span
//! id and stamps both on its `Submit` frame. Everything downstream — the
//! connection shard, the routed device's `JobService`, the execution
//! pool's per-slice spans — must link into that one trace, retrievable
//! afterwards through the `Trace` request by the fleet job id.

mod common;

use common::{connect, exchange, ghz_qasm, poll_until_done, recv};
use edm_fleet::fleet::{Fleet, FleetConfig};
use edm_fleet::server::{FleetServer, ServerConfig};
use edm_serve::protocol::{Request, Response, SpanInfo};
use edm_serve::queue::Priority;
use edm_serve::service::ServeConfig;
use qdevice::presets;

#[test]
fn client_stamped_trace_covers_shard_device_and_pool_slices() {
    // The test binary shares the process-global recorder, but the Trace
    // request filters by trace id, so other tests' spans never leak in.
    edm_telemetry::set_enabled(true);

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
    let server = FleetServer::bind(fleet, "127.0.0.1:0", ServerConfig::default())
        .expect("bind fleet server");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // The "client process": a trace id and root-span id minted out-of-band
    // (in production `edm-cli run --connect` mints these via telemetry).
    let client_trace: u64 = 0xA11C_E5ED_0000_0042;
    let client_span: u64 = 7_777;

    let mut client = connect(&addr);
    let submit = Request::Submit {
        qasm: ghz_qasm(),
        shots: 256,
        seed: 11,
        priority: Priority::Normal,
        trace_id: client_trace,
        parent_span: client_span,
    };
    let id = match exchange(&mut client, &submit) {
        Response::Accepted { id, trace_id } => {
            assert_eq!(
                trace_id, client_trace,
                "the server must adopt the client's trace id, not mint its own"
            );
            id
        }
        other => panic!("expected Accepted, got {other:?}"),
    };

    match poll_until_done(&mut client, id) {
        Response::Finished { .. } => {}
        other => panic!("expected Finished/Queued, got {other:?}"),
    }

    let spans: Vec<SpanInfo> = match exchange(&mut client, &Request::Trace { id }) {
        Response::Trace {
            trace_id, spans, ..
        } => {
            assert_eq!(trace_id, client_trace);
            spans
        }
        other => panic!("expected Trace, got {other:?}"),
    };

    assert!(
        spans.iter().all(|s| s.trace_id == client_trace),
        "every retained span must carry the client's trace id: {spans:?}"
    );
    let names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for required in [
        "fleet_submit",
        "serve_admit",
        "serve_plan",
        "serve_assemble",
        "pool_slice",
    ] {
        assert!(
            names.contains(required),
            "trace must contain a {required} span; got {names:?}"
        );
    }

    // Parentage: the shard span hangs off the client's root span, the
    // device's admission span hangs off the shard span, and so do the
    // executor-side spans and the pool slices (the shard span is the
    // remote parent every cross-thread stage re-installs).
    let shard = spans.iter().find(|s| s.name == "fleet_submit").unwrap();
    assert_eq!(
        shard.parent_id, client_span,
        "the shard span must link under the client's span"
    );
    for name in ["serve_admit", "serve_plan", "serve_assemble", "pool_slice"] {
        for span in spans.iter().filter(|s| s.name == name) {
            assert_eq!(
                span.parent_id, shard.id,
                "{name} must link under the shard span; got {span:?}"
            );
        }
    }

    // An unknown job id answers Unknown rather than an empty trace.
    assert!(matches!(
        exchange(&mut client, &Request::Trace { id: 99_999 }),
        Response::Unknown { id: 99_999 }
    ));

    assert!(matches!(
        exchange(&mut client, &Request::Shutdown),
        Response::Bye
    ));
    server_thread.join().expect("server thread exits cleanly");
}

#[test]
fn untraced_submissions_still_mint_a_server_side_trace() {
    edm_telemetry::set_enabled(true);
    let fleet = Fleet::synthesize(
        &[(presets::melbourne14(), "melbourne14")],
        3,
        FleetConfig {
            serve: ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        },
    );
    let server = FleetServer::bind(fleet, "127.0.0.1:0", ServerConfig::default())
        .expect("bind fleet server");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let mut client = connect(&addr);
    // A pre-trace-aware client: raw JSON with no trace fields at all.
    let raw = format!(
        "{{\"Submit\":{{\"qasm\":{},\"shots\":64,\"seed\":1,\"priority\":\"Normal\"}}}}\n",
        serde_json::to_string(&ghz_qasm()).unwrap()
    );
    client.send_raw(raw.as_bytes()).expect("write raw");
    let trace_id = match recv(&mut client) {
        Response::Accepted { trace_id, .. } => {
            assert_ne!(trace_id, 0, "the server must mint a trace id");
            trace_id
        }
        other => panic!("expected Accepted, got {other:?}"),
    };
    assert_ne!(trace_id, 0);

    assert!(matches!(
        exchange(&mut client, &Request::Shutdown),
        Response::Bye
    ));
    server_thread.join().expect("server thread exits cleanly");
}
