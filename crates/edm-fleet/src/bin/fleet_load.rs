//! `fleet_load` — concurrent-submitter load bench for the fleet server.
//!
//! Drives N concurrent client connections (default 1000) against a fleet
//! — self-hosted on an ephemeral port by default, or an external server
//! via `--connect` — and verifies zero lost and zero duplicated jobs:
//! every submission is retried until accepted, every accepted id must be
//! unique, and every id must reach a terminal state. Writes the serving
//! perf baseline (`results/BENCH_serve.json`: throughput, p50/p99
//! submit-to-finish latency) and can gate a fresh run against a committed
//! baseline with the same exit-65 convention as `pipeline_profile
//! --compare`.
//!
//! Flags:
//!
//! - `--clients N` — concurrent submitter connections (default 1000)
//! - `--jobs N` — jobs per client (default 1)
//! - `--shots N` — shot budget per job (default 64)
//! - `--devices N` — virtual devices when self-hosting (default 3)
//! - `--threads N` — per-device execution threads when self-hosting
//! - `--connect ADDR` — drive an already-running server instead
//! - `--out PATH` — where to write the bench JSON (default
//!   `results/BENCH_serve.json`)
//! - `--compare BASELINE` — gate against a baseline document; exit 65 on
//!   regression
//! - `--tolerance RATIO` — gate tolerance (default 1.5: throughput may
//!   drop to 1/1.5 of baseline, p99 may grow 1.5x, before failing)

use edm_fleet::fleet::{Fleet, FleetConfig};
use edm_fleet::server::{FleetServer, ServerConfig};
use edm_serve::client::Client;
use edm_serve::protocol::{Request, Response};
use edm_serve::queue::Priority;
use edm_serve::service::ServeConfig;
use edm_serve::validate;
use qcir::qasm;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `sysexits.h` EX_DATAERR: the fresh run failed the perf gate.
const EXIT_REGRESSION: i32 = 65;

/// The serving-perf baseline document.
#[derive(Debug, Serialize, Deserialize)]
struct ServeBench {
    /// Always `"fleet_load"`.
    bench: String,
    clients: u64,
    jobs_per_client: u64,
    jobs: u64,
    devices: u64,
    shots: u64,
    elapsed_ms: u64,
    throughput_jobs_per_s: f64,
    p50_ms: u64,
    p99_ms: u64,
}

struct Args {
    clients: usize,
    jobs_per_client: usize,
    shots: u64,
    devices: usize,
    threads: Option<usize>,
    connect: Option<String>,
    out: std::path::PathBuf,
    compare: Option<std::path::PathBuf>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let default_out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_serve.json");
    let mut out = Args {
        clients: 1000,
        jobs_per_client: 1,
        shots: 64,
        devices: 3,
        threads: None,
        connect: None,
        out: default_out,
        compare: None,
        tolerance: 1.5,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} expects a value");
                std::process::exit(2);
            })
        };
        let parse_num = |name: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} expects an integer");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--clients" => out.clients = parse_num("--clients", value("--clients")) as usize,
            "--jobs" => out.jobs_per_client = parse_num("--jobs", value("--jobs")) as usize,
            "--shots" => out.shots = parse_num("--shots", value("--shots")),
            "--devices" => out.devices = parse_num("--devices", value("--devices")) as usize,
            "--threads" => {
                let threads = Some(parse_num("--threads", value("--threads")));
                out.threads = validate::threads(threads).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--connect" => out.connect = Some(value("--connect")),
            "--out" => out.out = value("--out").into(),
            "--compare" => out.compare = Some(value("--compare").into()),
            "--tolerance" => {
                out.tolerance = value("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance expects a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "unknown flag {other}; supported: --clients N --jobs N --shots N \
                     --devices N --threads N --connect ADDR --out PATH \
                     --compare BASELINE --tolerance RATIO"
                );
                std::process::exit(2);
            }
        }
    }
    if out.clients == 0 || out.jobs_per_client == 0 || out.shots == 0 || out.devices == 0 {
        eprintln!("--clients/--jobs/--shots/--devices must be at least 1");
        std::process::exit(2);
    }
    out
}

fn workload_qasm() -> String {
    let mut c = qcir::Circuit::new(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    qasm::to_qasm(&c)
}

/// One client: submit every job (retrying rejections until accepted),
/// then poll each to a terminal state. Returns (ids, per-job latencies).
fn client_session(
    addr: &str,
    client: usize,
    jobs: usize,
    shots: u64,
    qasm: &str,
    failed: &AtomicBool,
) -> Option<(Vec<u64>, Vec<u64>)> {
    let mut connection = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client {client}: connect failed: {e}");
            failed.store(true, Ordering::SeqCst);
            return None;
        }
    };
    let mut exchange = |req: &Request| connection.exchange(req).ok();

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut ids = Vec::with_capacity(jobs);
    let mut latencies = Vec::with_capacity(jobs);
    for job in 0..jobs {
        let seed = (client * jobs + job) as u64;
        let submitted_at = Instant::now();
        // Zero lost jobs: backpressure rejections are retried until the
        // queue accepts (or the deadline declares the run failed).
        let id = loop {
            match exchange(&Request::Submit {
                qasm: qasm.to_string(),
                shots,
                seed,
                priority: Priority::Normal,
                trace_id: 0,
                parent_span: 0,
            }) {
                Some(Response::Accepted { id, .. }) => break id,
                Some(Response::Rejected { .. }) => {
                    if Instant::now() > deadline {
                        eprintln!("client {client}: submit deadline exhausted");
                        failed.store(true, Ordering::SeqCst);
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => {
                    eprintln!("client {client}: unexpected submit response: {other:?}");
                    failed.store(true, Ordering::SeqCst);
                    return None;
                }
            }
        };
        // Poll to a terminal state.
        loop {
            match exchange(&Request::Poll { id }) {
                Some(Response::Finished { .. }) => break,
                Some(Response::Queued { .. }) => {
                    if Instant::now() > deadline {
                        eprintln!("client {client}: job {id} never finished");
                        failed.store(true, Ordering::SeqCst);
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Some(Response::Failed { reason, .. }) => {
                    eprintln!("client {client}: job {id} failed: {reason}");
                    failed.store(true, Ordering::SeqCst);
                    return None;
                }
                other => {
                    eprintln!("client {client}: unexpected poll response: {other:?}");
                    failed.store(true, Ordering::SeqCst);
                    return None;
                }
            }
        }
        ids.push(id);
        latencies.push(submitted_at.elapsed().as_millis() as u64);
    }
    Some((ids, latencies))
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

fn main() {
    let args = parse_args();
    let qasm = workload_qasm();

    // Self-host unless --connect points at a live server.
    let (addr, server_thread, shutdown) = match &args.connect {
        Some(addr) => (addr.clone(), None, None),
        None => {
            let mut serve = ServeConfig::default();
            if let Some(threads) = args.threads {
                serve.threads = threads;
            }
            let depth_cap = (serve.queue_capacity / 4).max(1);
            let cycle = [
                (qdevice::presets::melbourne14(), "melbourne14"),
                (qdevice::presets::guadalupe16(), "guadalupe16"),
                (qdevice::presets::tokyo20(), "tokyo20"),
            ];
            let members: Vec<(qdevice::Topology, &str)> = (0..args.devices)
                .map(|i| cycle[i % cycle.len()].clone())
                .collect();
            let fleet = Fleet::synthesize(
                &members,
                42,
                FleetConfig {
                    serve,
                    depth_cap,
                    routing: Default::default(),
                },
            );
            let server = FleetServer::bind(fleet, "127.0.0.1:0", ServerConfig::default())
                .expect("bind fleet server");
            let addr = server.local_addr().to_string();
            let shutdown = server.shutdown_handle();
            let handle = std::thread::spawn(move || server.run());
            (addr, Some(handle), Some(shutdown))
        }
    };

    let total_jobs = args.clients * args.jobs_per_client;
    eprintln!(
        "fleet_load: {} client(s) x {} job(s) against {addr}",
        args.clients, args.jobs_per_client
    );

    let failed = Arc::new(AtomicBool::new(false));
    let all_ids = Arc::new(Mutex::new(Vec::with_capacity(total_jobs)));
    let all_latencies = Arc::new(Mutex::new(Vec::with_capacity(total_jobs)));
    let started = Instant::now();
    let mut clients = Vec::with_capacity(args.clients);
    for client in 0..args.clients {
        let addr = addr.clone();
        let qasm = qasm.clone();
        let failed = Arc::clone(&failed);
        let all_ids = Arc::clone(&all_ids);
        let all_latencies = Arc::clone(&all_latencies);
        let jobs = args.jobs_per_client;
        let shots = args.shots;
        clients.push(
            std::thread::Builder::new()
                .name(format!("client-{client}"))
                .stack_size(128 * 1024)
                .spawn(move || {
                    if let Some((ids, lats)) =
                        client_session(&addr, client, jobs, shots, &qasm, &failed)
                    {
                        all_ids.lock().expect("ids lock").extend(ids);
                        all_latencies.lock().expect("latency lock").extend(lats);
                    }
                })
                .expect("spawn client thread"),
        );
    }
    for c in clients {
        let _ = c.join();
    }
    let elapsed = started.elapsed();

    if let (Some(shutdown), Some(handle)) = (shutdown, server_thread) {
        shutdown.store(true, Ordering::SeqCst);
        let _ = handle.join();
    }

    if failed.load(Ordering::SeqCst) {
        eprintln!("fleet_load: FAILED — at least one client lost a job");
        std::process::exit(1);
    }

    // Zero lost, zero duplicated: exactly total_jobs ids, all distinct.
    let ids = all_ids.lock().expect("ids lock");
    let distinct: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
    assert_eq!(
        ids.len(),
        total_jobs,
        "every submitted job must reach a terminal state"
    );
    assert_eq!(
        distinct.len(),
        total_jobs,
        "fleet ids must never be duplicated"
    );

    let mut latencies = all_latencies.lock().expect("latency lock").clone();
    latencies.sort_unstable();
    let elapsed_ms = elapsed.as_millis() as u64;
    let doc = ServeBench {
        bench: "fleet_load".into(),
        clients: args.clients as u64,
        jobs_per_client: args.jobs_per_client as u64,
        jobs: total_jobs as u64,
        devices: args.devices as u64,
        shots: args.shots,
        elapsed_ms,
        throughput_jobs_per_s: total_jobs as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ms: percentile(&latencies, 50),
        p99_ms: percentile(&latencies, 99),
    };
    let json = serde_json::to_string_pretty(&doc).expect("bench document serializes");
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&args.out, json).expect("write bench JSON");
    println!(
        "wrote {}: {} job(s) in {}ms, {:.1} jobs/s, p50 {}ms, p99 {}ms",
        args.out.display(),
        doc.jobs,
        doc.elapsed_ms,
        doc.throughput_jobs_per_s,
        doc.p50_ms,
        doc.p99_ms
    );

    if let Some(baseline_path) = &args.compare {
        let baseline_json = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {}: {e}", baseline_path.display());
            std::process::exit(2);
        });
        let baseline: ServeBench = serde_json::from_str(&baseline_json).unwrap_or_else(|e| {
            eprintln!("baseline {} is not a bench: {e}", baseline_path.display());
            std::process::exit(2);
        });
        let mut regressions = Vec::new();
        if doc.throughput_jobs_per_s < baseline.throughput_jobs_per_s / args.tolerance {
            regressions.push(format!(
                "throughput {:.1} jobs/s below baseline {:.1} / {:.2}",
                doc.throughput_jobs_per_s, baseline.throughput_jobs_per_s, args.tolerance
            ));
        }
        // A sub-floor baseline p99 is timer noise; only gate meaningful ones.
        if baseline.p99_ms >= 5 && doc.p99_ms as f64 > baseline.p99_ms as f64 * args.tolerance {
            regressions.push(format!(
                "p99 {}ms above baseline {}ms x {:.2}",
                doc.p99_ms, baseline.p99_ms, args.tolerance
            ));
        }
        if regressions.is_empty() {
            println!(
                "perf gate: OK (within {:.2}x of {})",
                args.tolerance,
                baseline_path.display()
            );
        } else {
            eprintln!(
                "perf gate: FAIL — {} regression(s) vs {}:",
                regressions.len(),
                baseline_path.display()
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(EXIT_REGRESSION);
        }
    }
}
