//! The repository benchmark: one named workload from one seed.
//!
//! ```text
//! cargo run --release --manifest-path edmbench/Cargo.toml -- \
//!     --workload ist-direct --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable section, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones from a separate traced
//! run. A violated correctness gate prints the reason on stderr, no
//! metrics, and exits 1. See `edmbench/README.md` for the workloads.

mod client;
mod fleet;
mod inputs;
mod ist;
mod registry;
mod report;
mod span;
mod stats;

use report::{GateError, Report, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: edmbench --workload ist-direct|fleet-hot|fleet-cold --seed N --seconds N --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric names with their units, in output order.
type MetricTable = &'static [(&'static str, &'static str)];

fn run(args: &Args) -> Result<(Report, MetricTable), GateError> {
    let secs = args.seconds as f64;
    let mut report = match (args.workload.as_str(), args.trace) {
        ("ist-direct", false) => ist::run(args.seed, secs)?,
        ("ist-direct", true) => ist::run_traced(args.seed)?,
        ("fleet-hot", false) => fleet::run_hot(args.seed, secs)?,
        ("fleet-hot", true) => fleet::run_hot_traced(args.seed)?,
        ("fleet-cold", false) => fleet::run_cold(args.seed, secs)?,
        ("fleet-cold", true) => fleet::run_cold_traced(args.seed)?,
        (other, _) => return Err(GateError(format!("unknown workload {other}\n{USAGE}"))),
    };
    if !args.trace {
        return Ok((report, &END_TO_END));
    }
    // Layers this workload's path never calls, or that the benchmark cannot
    // reach through public calls on it, report 0.
    let idle: Vec<&str> = PER_LAYER
        .iter()
        .filter(|(name, _)| !report.metrics.contains_key(name))
        .map(|(name, _)| *name)
        .collect();
    for name in &idle {
        report.set(name, 0.0);
    }
    report.say("per-layer (self time sums to wall_us with other_us):");
    for (name, unit) in PER_LAYER {
        report.say(format!(
            "  {name:<28} {:>16.3} {unit}",
            report.metrics[name]
        ));
    }
    if !idle.is_empty() {
        report.say(format!(
            "  not measured on this workload: {}",
            idle.join(", ")
        ));
    }
    Ok((report, &PER_LAYER))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args).and_then(|(report, table)| Ok((report.json(table)?, report)));
    match outcome {
        Ok((json, report)) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{json}");
        }
        Err(GateError(reason)) => {
            eprintln!("edmbench: correctness gate failed: {reason}");
            std::process::exit(1);
        }
    }
}
