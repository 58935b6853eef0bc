//! `edm-fleet` — the JSON-lines job server over a fleet of virtual devices.
//!
//! ```text
//! edm-fleet [--addr HOST:PORT | --stdio] [--devices N] [--device-seed N]
//!           [--shards N] [--presets NAME,NAME,...] [--threads N] [--queue N]
//!           [--cache N] [--batch N] [--depth-cap N] [--metrics-port N]
//!           [--journal-dir DIR] [--controller] [--controller-log PATH]
//!           [--routing esp|live-ist] [--trace-out FILE]
//!           [--chaos-kill SEED:MEMBER]...
//! ```
//!
//! Serves the `edm_serve::protocol` requests against N virtual devices
//! (topology presets cycle melbourne14 → guadalupe16 → tokyo20 by default,
//! or any `--presets` list of `qdevice::presets` names, each synthesized
//! from `--device-seed + index`), over TCP or, with `--stdio`, to one peer
//! on stdin/stdout. Every submission is routed to the device with the
//! highest predicted ESP for its circuit; results are bit-identical to a
//! direct single-device run with the same (device, seed). Over TCP it
//! prints `fleet listening on ADDR` to stderr once ready; any client's
//! `"Shutdown"` stops the server.

use edm_core::Backend;
use edm_fleet::fleet::{Fleet, FleetConfig, RoutingPolicy};
use edm_fleet::server::{serve_stdio, FleetServer, ServerConfig};
use edm_serve::dispatch::ChaosBackend;
use edm_serve::exitcode;
use edm_serve::journal::JournalError;
use edm_serve::service::ServeConfig;
use edm_serve::validate;
use qdevice::presets;
use std::process::ExitCode;

const USAGE: &str = "usage:
  edm-fleet [--addr HOST:PORT | --stdio] [--devices N] [--device-seed N]
            [--shards N] [--presets NAME,NAME,...] [--threads N] [--queue N]
            [--cache N] [--batch N] [--depth-cap N] [--metrics-port N]
            [--journal-dir DIR] [--controller] [--controller-log PATH]
            [--routing esp|live-ist] [--trace-out FILE]
            [--chaos-kill SEED:MEMBER]...

Speaks JSON lines against a fleet of N virtual devices (presets cycle
melbourne14, guadalupe16, tokyo20 by default; --presets takes a
comma-separated list of preset names — melbourne14, guadalupe16, tokyo20,
falcon27, hummingbird65, eagle127 — to cycle instead; device i is
synthesized from --device-seed + i). Submissions route to the device with
the highest predicted ESP. Requests:
  {\"Submit\":{\"qasm\":\"...\",\"shots\":N,\"seed\":N,\"priority\":\"Normal\"}}
  {\"Poll\":{\"id\":N}}   {\"Trace\":{\"id\":N}}   \"Flush\"   \"Stats\"
  \"Metrics\"   \"FleetStats\"   \"BumpCalibration\"   \"Shutdown\"
Submit also accepts optional trace_id/parent_span fields, so the server's
spans join a trace the client already opened.

--addr defaults to 127.0.0.1:0 (ephemeral port); the bound address is
printed to stderr as `fleet listening on ADDR`.

--stdio serves one peer on stdin/stdout instead of TCP (not with --addr or
--shards), until \"Shutdown\" or end of input. There are no executor
threads: a Poll first runs every queued job, so submit-then-poll answers
Finished. `--stdio --devices 1 --presets melbourne14` is the
single-device server.

--metrics-port N serves Prometheus text on http://127.0.0.1:N/metrics
(plus /metrics.json, /spans, and /healthz) with per-device label families
(edm_fleet_*{device=\"dI\"}); port 0 picks an ephemeral port, printed to
stderr as `metrics listening on ...`.

--journal-dir DIR keeps crash-safe write-ahead journals under DIR: one
per device (device-I.jsonl) plus a fleet index (fleet-index.jsonl).
Restarting with the same DIR replays unfinished jobs bit-identically on
their original devices and keeps old fleet job ids pollable.

--controller enables the closed-loop adaptive controller on every device:
feedback that reweights WEDM merges, swaps underperforming ensemble
members, and recompiles layouts after calibration changes.
--controller-log PATH appends its decisions as JSON lines tagged with the
device that made them.

--routing picks the scheduler's scoring policy: `esp` (default) scores by
compile-time predicted ESP alone; `live-ist` multiplies each device's ESP
by its live quality factor (EWMA of observed top-outcome share vs promised
ESP) once that device's estimator has warmed up, so a drift-degraded
device sheds traffic. Before warmup live-ist routes identically to esp.

--trace-out FILE appends every finished span to FILE as JSON lines (also
enables telemetry). The file rotates to FILE.1 when it exceeds 16 MiB;
drops are counted in edm_telemetry_trace_export_dropped_total.

--chaos-kill SEED:MEMBER (repeatable, test hook) permanently fails the
ensemble member at plan position MEMBER of any job submitted with seed
SEED, forcing the controller to observe real failures.

exit codes:
  0   success
  1   unclassified failure
  2   usage error (bad or unknown flags)
  65  data error (corrupt journal)";

/// Flags that take no value.
const SWITCHES: [&str; 2] = ["--controller", "--stdio"];

/// Flags that take one value (`--chaos-kill` may repeat).
const VALUED: [&str; 16] = [
    "--addr",
    "--devices",
    "--device-seed",
    "--shards",
    "--presets",
    "--threads",
    "--queue",
    "--cache",
    "--batch",
    "--depth-cap",
    "--metrics-port",
    "--journal-dir",
    "--controller-log",
    "--routing",
    "--trace-out",
    "--chaos-kill",
];

/// The command line split into switches and (flag, value) pairs. Anything
/// that is not a known flag is an error, so a misspelled flag can never be
/// silently ignored.
struct Flags<'a> {
    switches: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn split(args: &'a [String]) -> Result<Self, String> {
        let mut flags = Flags {
            switches: Vec::new(),
            values: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if SWITCHES.contains(&arg) {
                flags.switches.push(arg);
            } else if VALUED.contains(&arg) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} expects a value"))?;
                flags.values.push((arg, value));
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(flags)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    fn all(&self, name: &'a str) -> impl Iterator<Item = &'a str> + '_ {
        self.values
            .iter()
            .filter(move |(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    fn text(&self, name: &'a str) -> Option<String> {
        self.all(name).next().map(str::to_string)
    }

    fn int(&self, name: &'a str) -> Result<Option<u64>, String> {
        self.all(name)
            .next()
            .map(|v| v.parse().map_err(|_| format!("{name} expects an integer")))
            .transpose()
    }

    /// An integer flag that must be at least 1 when given.
    fn positive(&self, name: &'a str) -> Result<Option<usize>, String> {
        match self.int(name)? {
            Some(0) => Err(format!("{name} must be at least 1")),
            n => Ok(n.map(|n| n as usize)),
        }
    }
}

struct Parsed {
    addr: String,
    stdio: bool,
    devices: usize,
    device_seed: u64,
    presets: Vec<(qdevice::Topology, String)>,
    fleet_config: FleetConfig,
    server_config: ServerConfig,
    metrics_port: Option<u64>,
    journal_dir: Option<String>,
    controller_log: Option<String>,
    trace_out: Option<String>,
    kills: Vec<(u64, u64)>,
}

/// Parses `--presets a,b,c` into topologies, defaulting to the original
/// three-preset cycle so existing deployments (and the fleet smoke test)
/// see identical devices.
fn presets_flag(flags: &Flags) -> Result<Vec<(qdevice::Topology, String)>, String> {
    let spec = flags
        .text("--presets")
        .unwrap_or_else(|| "melbourne14,guadalupe16,tokyo20".into());
    let mut cycle = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let topology = presets::by_name(name).ok_or_else(|| {
            format!(
                "--presets: unknown preset '{name}' (expected one of: {})",
                presets::NAMES.join(", ")
            )
        })?;
        cycle.push((topology, name.to_string()));
    }
    if cycle.is_empty() {
        return Err("--presets needs at least one preset name".into());
    }
    Ok(cycle)
}

/// Every `--chaos-kill SEED:MEMBER` occurrence, parsed.
fn chaos_kills(flags: &Flags) -> Result<Vec<(u64, u64)>, String> {
    flags
        .all("--chaos-kill")
        .map(|value| {
            let (seed, member) = value
                .split_once(':')
                .ok_or(format!("--chaos-kill {value}: expected SEED:MEMBER"))?;
            let seed = seed
                .parse()
                .map_err(|_| format!("--chaos-kill {value}: SEED must be an integer"))?;
            let member = member
                .parse()
                .map_err(|_| format!("--chaos-kill {value}: MEMBER must be an integer"))?;
            Ok((seed, member))
        })
        .collect()
}

fn parse(args: &[String]) -> Result<Parsed, String> {
    let flags = Flags::split(args)?;
    let stdio = flags.switch("--stdio");
    for transport_flag in ["--addr", "--shards"] {
        if stdio && flags.all(transport_flag).next().is_some() {
            return Err(format!("--stdio cannot be combined with {transport_flag}"));
        }
    }
    let addr = flags.text("--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let devices = flags.positive("--devices")?.unwrap_or(3);
    let preset_cycle = presets_flag(&flags)?;
    let device_seed = flags.int("--device-seed")?.unwrap_or(42);
    let mut serve = ServeConfig::default();
    if let Some(threads) = validate::threads(flags.int("--threads")?).map_err(|e| e.to_string())? {
        serve.threads = threads;
    }
    if let Some(queue) = flags.positive("--queue")? {
        serve.queue_capacity = queue;
    }
    if let Some(cache) = flags.positive("--cache")? {
        serve.cache_capacity = cache;
    }
    if let Some(batch) = flags.positive("--batch")? {
        serve.max_batch_jobs = batch;
    }
    let depth_cap = match flags.positive("--depth-cap")? {
        Some(cap) => cap.min(serve.queue_capacity),
        None => (serve.queue_capacity / 4).max(1),
    };
    let mut server_config = ServerConfig::default();
    if let Some(shards) = flags.positive("--shards")? {
        server_config.shards = shards;
    }
    if flags.switch("--controller") {
        serve.controller = Some(edm_core::ControllerConfig::default());
    }
    let controller_log = flags.text("--controller-log");
    if controller_log.is_some() && serve.controller.is_none() {
        return Err("--controller-log requires --controller".into());
    }
    let routing = match flags.text("--routing") {
        Some(spec) => spec.parse::<RoutingPolicy>()?,
        None => RoutingPolicy::default(),
    };
    let metrics_port = flags.int("--metrics-port")?;
    if metrics_port.is_some_and(|port| port > u64::from(u16::MAX)) {
        return Err("--metrics-port must fit in 16 bits".into());
    }
    Ok(Parsed {
        addr,
        stdio,
        devices,
        device_seed,
        presets: preset_cycle,
        fleet_config: FleetConfig {
            serve,
            depth_cap,
            routing,
        },
        server_config,
        metrics_port,
        journal_dir: flags.text("--journal-dir"),
        controller_log,
        trace_out: flags.text("--trace-out"),
        kills: chaos_kills(&flags)?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(exitcode::USAGE);
        }
    };

    // Keep the server handle alive for the process's whole life; binding
    // up front surfaces port conflicts before any job is accepted.
    let _metrics_server = match parsed.metrics_port {
        Some(port) => {
            edm_telemetry::set_enabled(true);
            match edm_telemetry::http::serve(port as u16) {
                Ok(server) => {
                    eprintln!("metrics listening on http://{}/metrics", server.addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("error: cannot bind metrics port {port}: {e}");
                    return ExitCode::from(exitcode::FAILURE);
                }
            }
        }
        None => None,
    };

    if let Some(path) = &parsed.trace_out {
        edm_telemetry::set_enabled(true);
        if let Err(e) = edm_telemetry::trace::set_trace_file(
            path,
            edm_telemetry::trace::DEFAULT_TRACE_FILE_MAX_BYTES,
        ) {
            eprintln!("error: cannot open trace file {path}: {e}");
            return ExitCode::from(exitcode::FAILURE);
        }
        eprintln!("traces appending to {path}");
    }

    // Heterogeneous by construction: presets cycle, and each device gets
    // its own synthesis seed, so calibrations (and therefore ESP scores)
    // genuinely differ across the fleet.
    let cycle = &parsed.presets;
    let members: Vec<(qdevice::Topology, &str)> = (0..parsed.devices)
        .map(|i| {
            let (topology, name) = &cycle[i % cycle.len()];
            (topology.clone(), name.as_str())
        })
        .collect();
    let config = parsed.fleet_config.clone();
    // The chaos wrapper changes the backend type, so serving is generic and
    // the choice happens once, here.
    if parsed.kills.is_empty() {
        serve(
            Fleet::synthesize(&members, parsed.device_seed, config),
            &parsed,
        )
    } else {
        let fleet = Fleet::synthesize_with(&members, parsed.device_seed, config, |backend| {
            let mut chaos = ChaosBackend::new(backend, 0, 0);
            for &(seed, member) in &parsed.kills {
                chaos.kill_seed(qsim::rngstream::fork(seed, member));
            }
            chaos
        });
        serve(fleet, &parsed)
    }
}

/// Attaches the journals and the controller log, then serves on the chosen
/// transport until shutdown.
fn serve<B: Backend + Send + 'static>(fleet: Fleet<B>, parsed: &Parsed) -> ExitCode {
    if let Some(dir) = &parsed.journal_dir {
        match fleet.attach_journals(dir) {
            Ok(recovered) if recovered > 0 => {
                eprintln!("recovered {recovered} unfinished job(s) from {dir}");
            }
            Ok(_) => {}
            Err(e @ JournalError::Corrupt { .. }) => {
                eprintln!("error: {e}");
                return ExitCode::from(exitcode::DATA);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(exitcode::FAILURE);
            }
        }
    }
    if let Some(path) = &parsed.controller_log {
        if let Err(e) = fleet.attach_controller_log(path) {
            eprintln!("error: cannot open controller log {path}: {e}");
            return ExitCode::from(exitcode::FAILURE);
        }
    }

    if parsed.stdio {
        return match serve_stdio(&fleet, std::io::stdin().lock(), std::io::stdout().lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: stdio: {e}");
                ExitCode::from(exitcode::FAILURE)
            }
        };
    }
    let server = match FleetServer::bind(fleet, &parsed.addr, parsed.server_config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", parsed.addr);
            return ExitCode::from(exitcode::FAILURE);
        }
    };
    eprintln!("fleet listening on {}", server.local_addr());
    server.run();
    ExitCode::SUCCESS
}
