//! What one run reports: counts, metrics, the human-readable section, and
//! the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports with tracing off, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("shots_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics every workload reports from its traced run, with
/// units. A layer a workload's path never calls reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("wall_us", "us"),
    ("other_us", "us"),
    ("trace.overhead", "ratio"),
    ("qcir.parse_us", "us"),
    ("qmap.transpile_us", "us"),
    ("edm-core.diversify_us", "us"),
    ("edm-core.plan_us", "us"),
    ("qsim.execute_us", "us"),
    ("edm-core.merge_us", "us"),
    ("qsim.compile_us", "us"),
    ("qsim.ns_per_shot", "ns"),
    ("qsim.slices", "count"),
    ("qsim.fused_ops", "count"),
    ("qsim.event_sites", "count"),
    ("qdevice.embeddings", "count"),
    ("edm-core.kept_ratio", "ratio"),
    ("edm-fleet.route_us", "us"),
    ("edm-serve.submit_us", "us"),
    ("edm-serve.process_us", "us"),
    ("edm-serve.poll_us", "us"),
    ("edm-serve.protocol_us", "us"),
    ("edm-serve.jobs_per_batch", "count"),
    ("client.submit_rtt_us", "us"),
    ("client.poll_rtt_us", "us"),
    ("loadgen.lateness_us", "us"),
    ("edm-serve.cache_hit_ratio", "ratio"),
    ("edm-serve.compilations", "count"),
    ("edm-serve.rejected", "count"),
    ("edm-fleet.routed_share.d0", "ratio"),
    ("edm-fleet.routed_share.d1", "ratio"),
    ("edm-fleet.routed_share.d2", "ratio"),
];

/// A violated correctness gate: the run prints no metrics and exits
/// non-zero.
#[derive(Debug)]
pub struct GateError(pub String);

/// Fails with `msg` unless `ok`.
pub fn gate(ok: bool, msg: impl FnOnce() -> String) -> Result<(), GateError> {
    if ok {
        Ok(())
    } else {
        Err(GateError(msg()))
    }
}

impl From<String> for GateError {
    fn from(s: String) -> Self {
        GateError(s)
    }
}

impl From<&str> for GateError {
    fn from(s: &str) -> Self {
        GateError(s.into())
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs submitted or run).
    pub attempted: u64,
    /// Operations rejected, failed, or past their deadline.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON.
    pub lines: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn say(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Renders the final JSON line for the metrics in `table`, which must
    /// all be set (per-layer metrics of layers off this workload's path are
    /// filled with 0 by the caller).
    pub fn json(&self, table: &[(&str, &str)]) -> Result<String, GateError> {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        )
        .expect("write to String");
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| GateError(format!("metric {name} was not measured")))?;
            gate(value.is_finite(), || format!("metric {name} is {value}"))?;
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, GateError> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| GateError(format!("cannot read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| GateError("no VmHWM line in /proc/self/status".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_in_table_order() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("b", 2.5);
        r.set("a", 1.0);
        let json = r.json(&[("a", "s"), ("b", "ms")]).unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
        assert!(r.json(&[("c", "s")]).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = serde::parser::parse(&text).expect("BENCHMARK.json is valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(serde::Value::Array(listed)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(serde::Value::String(n)), Some(serde::Value::String(u))) => {
                        (n.as_str(), u.as_str())
                    }
                    other => panic!("malformed {key} entry {other:?}"),
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
