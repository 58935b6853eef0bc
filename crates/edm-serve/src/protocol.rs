//! The JSON-lines wire protocol the `edm-fleet` server speaks.
//!
//! One request per line in, one response per line out (over TCP, or on
//! stdin/stdout under `--stdio`), both serde-serialized with the external
//! enum tag as the message type. The types live in the library so
//! integration tests and clients parse the exact structs the server emits.

use crate::queue::Priority;
use edm_core::EdmResult;
use qsim::counts::format_bitstring;
use serde::{Deserialize, Serialize};

/// A client request, one JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a circuit for ensemble execution.
    Submit {
        /// The logical circuit as OpenQASM 2.0 text.
        qasm: String,
        /// Total trial budget, split across ensemble members.
        shots: u64,
        /// Run seed; served results are bit-identical to a direct
        /// `EdmRunner::run` with the same seed.
        seed: u64,
        /// Admission priority class.
        priority: Priority,
        /// Client-supplied trace id (0 or absent: the service mints one).
        /// Stamping it here links the server's spans into the trace the
        /// client already started, across the process boundary.
        #[serde(default)]
        trace_id: u64,
        /// The client span the server's spans should parent under (0 or
        /// absent: server spans become trace roots).
        #[serde(default)]
        parent_span: u64,
    },
    /// Ask for a job's current state (drives pending work first).
    Poll {
        /// The id returned by `Accepted`.
        id: u64,
    },
    /// Process everything queued, then report how many jobs ran.
    Flush,
    /// Snapshot the service counters.
    Stats,
    /// Simulate a recalibration: bump the calibration generation, which
    /// invalidates every cached compilation.
    BumpCalibration,
    /// Snapshot the telemetry registry as JSON metric families (the same
    /// data `--metrics-port` serves as Prometheus text).
    Metrics,
    /// Snapshot per-device status (only meaningful against a fleet; a
    /// single-device server answers with its one device).
    FleetStats,
    /// Reconstruct a job's distributed trace: every span the flight
    /// recorder still holds for the job's trace id, oldest first.
    Trace {
        /// The job id returned by `Accepted`.
        id: u64,
    },
    /// Stop the service loop.
    Shutdown,
}

/// A service response, one JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The submission was admitted under this id.
    Accepted {
        /// Service-assigned job id; poll with it.
        id: u64,
        /// Correlation id stamped on the job's journal entries, spans, and
        /// final summary — stable across crash-recovery replays.
        trace_id: u64,
    },
    /// The submission was refused (backpressure or validation).
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// The polled job is still waiting in the queue.
    Queued {
        /// The polled id.
        id: u64,
    },
    /// The polled job finished; its result, summarized.
    Finished {
        /// The polled id.
        id: u64,
        /// Result summary (counts stay server-side; the summary carries
        /// the answer and its confidence).
        summary: JobSummary,
    },
    /// The polled job ran and failed.
    Failed {
        /// The polled id.
        id: u64,
        /// Terminal error text.
        reason: String,
    },
    /// The polled id was never issued.
    Unknown {
        /// The polled id.
        id: u64,
    },
    /// Counter snapshot.
    Stats {
        /// The counters at the time of the request (boxed: the snapshot
        /// is by far the largest variant and would bloat every Response).
        stats: Box<crate::stats::ServiceStats>,
    },
    /// Telemetry registry snapshot, one family per registered metric.
    Metrics {
        /// Every registered metric with its current value.
        families: Vec<MetricFamily>,
    },
    /// Per-device fleet snapshot: one entry per virtual device, in stable
    /// device-index order.
    FleetStats {
        /// Every fleet member's routing-relevant status.
        devices: Vec<DeviceStatus>,
    },
    /// A job's reconstructed trace.
    Trace {
        /// The queried job id.
        id: u64,
        /// The job's correlation/trace id.
        trace_id: u64,
        /// Every retained span of that trace, in completion order. Spans
        /// evicted from the flight recorder are absent (the `--trace-out`
        /// file keeps the durable copy).
        spans: Vec<SpanInfo>,
    },
    /// A `Flush` completed.
    Processed {
        /// How many queued jobs were dispatched.
        jobs: u64,
    },
    /// The new calibration generation after a `BumpCalibration`.
    Recalibrated {
        /// The now-current generation.
        generation: u64,
    },
    /// The request line could not be handled.
    Error {
        /// What went wrong (parse failure, unsupported request).
        reason: String,
    },
    /// Acknowledges `Shutdown`; the service exits after sending it.
    Bye,
}

/// One fleet member's status as the scheduler sees it: everything the
/// router consults (health, depth) plus the device's full counter
/// snapshot, so `FleetStats` distinguishes fleet members the way labeled
/// `/metrics` families do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceStatus {
    /// Stable device index within the fleet (the routing tie-break key).
    pub device: u64,
    /// Human-readable device name (topology preset + seed).
    pub name: String,
    /// Jobs waiting in this device's admission queue.
    pub queue_depth: u64,
    /// The device breaker's admission state right now.
    pub breaker: crate::dispatch::BreakerState,
    /// True when the drift watchdog is quarantining any of the device's
    /// qubits or links.
    pub quarantined: bool,
    /// The device's live answer-quality estimate (observed IST vs
    /// predicted ESP). Defaults to an empty estimate when talking to an
    /// older server.
    #[serde(default)]
    pub quality: edm_core::QualitySnapshot,
    /// The device's full `JobService` counter snapshot.
    pub stats: crate::stats::ServiceStats,
}

/// One telemetry span on the wire, mirroring
/// `edm_telemetry::trace::SpanRecord` with an owned name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanInfo {
    /// Span id, unique within the process that recorded it.
    pub id: u64,
    /// Parent span id (0 for a trace root).
    pub parent_id: u64,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Stage name (`serve_plan`, `pool_slice`, ...).
    pub name: String,
    /// Wall time spent in the span, microseconds.
    pub elapsed_us: u64,
}

impl From<&edm_telemetry::trace::SpanRecord> for SpanInfo {
    fn from(record: &edm_telemetry::trace::SpanRecord) -> Self {
        SpanInfo {
            id: record.id,
            parent_id: record.parent_id,
            trace_id: record.trace_id,
            name: record.name.to_string(),
            elapsed_us: record.elapsed_us,
        }
    }
}

/// One telemetry metric on the wire, mirroring
/// `edm_telemetry::metrics::MetricSnapshot` with owned strings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricFamily {
    /// A monotone counter.
    Counter {
        /// Metric name (`edm_<crate>_<name>_<unit>`).
        name: String,
        /// Current value.
        value: u64,
    },
    /// An up-down gauge.
    Gauge {
        /// Metric name.
        name: String,
        /// Current value.
        value: i64,
    },
    /// A log₂-bucketed histogram. Only finite buckets travel; the implicit
    /// `+Inf` count is `count` minus the sum of `buckets`.
    Histogram {
        /// Metric name.
        name: String,
        /// Observations recorded.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Non-cumulative counts for buckets with upper bounds 1, 2, 4, ….
        buckets: Vec<u64>,
    },
}

impl MetricFamily {
    /// Converts a registry snapshot entry for the wire. Labeled series
    /// carry their labels in the name, Prometheus-style
    /// (`name{device="d0"}`), so a fleet's per-device families stay
    /// distinguishable without changing the wire shape.
    pub fn from_snapshot(snapshot: &edm_telemetry::metrics::MetricSnapshot) -> Self {
        use edm_telemetry::metrics::MetricSnapshot;
        let wire_name = |name: &str, labels: &str| {
            if labels.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{{labels}}}")
            }
        };
        match snapshot {
            MetricSnapshot::Counter {
                name,
                labels,
                value,
                ..
            } => MetricFamily::Counter {
                name: wire_name(name, labels),
                value: *value,
            },
            MetricSnapshot::Gauge {
                name,
                labels,
                value,
                ..
            } => MetricFamily::Gauge {
                name: wire_name(name, labels),
                value: *value,
            },
            MetricSnapshot::Histogram {
                name,
                labels,
                snapshot,
                ..
            } => MetricFamily::Histogram {
                name: wire_name(name, labels),
                count: snapshot.count,
                sum: snapshot.sum,
                buckets: snapshot.buckets.clone(),
            },
        }
    }

    /// The family's metric name.
    pub fn name(&self) -> &str {
        match self {
            MetricFamily::Counter { name, .. }
            | MetricFamily::Gauge { name, .. }
            | MetricFamily::Histogram { name, .. } => name,
        }
    }
}

/// The client-facing digest of a finished job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSummary {
    /// The finished job's id.
    pub id: u64,
    /// The correlation id assigned at submission (recovered from the
    /// journal for replayed jobs).
    pub trace_id: u64,
    /// Ensemble members executed.
    pub members: u64,
    /// Total shots actually distributed.
    pub shots: u64,
    /// The most probable EDM outcome, as a bitstring (MSB first).
    pub top_outcome: String,
    /// The EDM probability of `top_outcome`.
    pub top_probability: f64,
    /// True when members failed permanently and the result was merged over
    /// the surviving quorum (see `edm_core::RunHealth`).
    pub degraded: bool,
    /// How many planned members were dropped (0 unless `degraded`).
    pub failed_members: u64,
    /// Submit-to-finish latency in milliseconds.
    pub latency_ms: u64,
}

impl JobSummary {
    /// Digests a finished [`EdmResult`] for the wire.
    pub fn from_result(id: u64, trace_id: u64, result: &EdmResult, latency_ms: u64) -> Self {
        let shots = result.members.iter().map(|m| m.counts.shots()).sum();
        let (top_outcome, top_probability) = match result.edm.most_probable() {
            Some(outcome) => (
                format_bitstring(outcome, result.edm.num_clbits()),
                result.edm.probability(outcome),
            ),
            None => (String::new(), 0.0),
        };
        let failed_members = match &result.health {
            edm_core::RunHealth::Full => 0,
            edm_core::RunHealth::Degraded { failed_members, .. } => failed_members.len() as u64,
        };
        JobSummary {
            id,
            trace_id,
            members: result.members.len() as u64,
            shots,
            top_outcome,
            top_probability,
            degraded: result.is_degraded(),
            failed_members,
            latency_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let req = Request::Submit {
            qasm: "OPENQASM 2.0;".into(),
            shots: 4096,
            seed: 7,
            priority: Priority::High,
            trace_id: 0xfeed,
            parent_span: 12,
        };
        let line = serde_json::to_string(&req).unwrap();
        assert!(line.contains("\"Submit\""));
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn submit_without_trace_fields_stays_wire_compatible() {
        // A pre-tracing client omits trace_id/parent_span entirely; the
        // fields default to 0 ("mint one server-side, no remote parent").
        let line = r#"{"Submit":{"qasm":"OPENQASM 2.0;","shots":64,"seed":1,"priority":"Normal"}}"#;
        match serde_json::from_str::<Request>(line).unwrap() {
            Request::Submit {
                trace_id,
                parent_span,
                shots,
                ..
            } => {
                assert_eq!(trace_id, 0);
                assert_eq!(parent_span, 0);
                assert_eq!(shots, 64);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn trace_response_roundtrips_through_json() {
        let resp = Response::Trace {
            id: 4,
            trace_id: 0xabc,
            spans: vec![SpanInfo {
                id: 2,
                parent_id: 1,
                trace_id: 0xabc,
                name: "pool_slice".into(),
                elapsed_us: 180,
            }],
        };
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
        assert_eq!(
            serde_json::from_str::<Request>(r#"{"Trace":{"id":4}}"#).unwrap(),
            Request::Trace { id: 4 }
        );
    }

    #[test]
    fn response_roundtrips_through_json() {
        let resp = Response::Finished {
            id: 3,
            summary: JobSummary {
                id: 3,
                trace_id: 901,
                members: 4,
                shots: 8192,
                top_outcome: "101".into(),
                top_probability: 0.75,
                degraded: false,
                failed_members: 0,
                latency_ms: 12,
            },
        };
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn metric_families_roundtrip_through_json() {
        let families = vec![
            MetricFamily::Counter {
                name: "edm_serve_cache_hits_total".into(),
                value: 9,
            },
            MetricFamily::Gauge {
                name: "edm_serve_queue_depth".into(),
                value: -1,
            },
            MetricFamily::Histogram {
                name: "edm_serve_dispatch_us".into(),
                count: 3,
                sum: 70,
                buckets: vec![1, 0, 2],
            },
        ];
        let resp = Response::Metrics {
            families: families.clone(),
        };
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
        assert_eq!(families[0].name(), "edm_serve_cache_hits_total");
        assert_eq!(families[2].name(), "edm_serve_dispatch_us");
        assert_eq!(
            serde_json::from_str::<Request>("\"Metrics\"").unwrap(),
            Request::Metrics
        );
    }

    #[test]
    fn labeled_snapshots_ride_the_wire_name() {
        edm_telemetry::set_enabled(true);
        let registry = edm_telemetry::metrics::Registry::new();
        registry
            .counter_with("edm_proto_fleet_jobs_total", "Jobs", &[("device", "d1")])
            .add(2);
        let families: Vec<MetricFamily> = registry
            .snapshot()
            .iter()
            .map(MetricFamily::from_snapshot)
            .collect();
        assert_eq!(families.len(), 1);
        assert_eq!(
            families[0].name(),
            "edm_proto_fleet_jobs_total{device=\"d1\"}"
        );
    }

    #[test]
    fn fleet_stats_roundtrips_through_json() {
        use crate::queue::{JobRequest, Priority};
        use crate::service::{JobService, ServeConfig};
        use qdevice::{presets, DeviceModel};
        use qsim::NoisySimulator;

        let device = DeviceModel::synthesize(presets::melbourne14(), 3);
        let backend = NoisySimulator::from_device(&device);
        let mut svc = JobService::new(
            device.topology().clone(),
            device.calibration(),
            backend,
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
        );
        let mut bell = qcir::Circuit::new(2, 2);
        bell.h(0).cx(0, 1).measure_all();
        svc.submit(JobRequest {
            circuit: bell,
            shots: 64,
            seed: 1,
            priority: Priority::Normal,
        })
        .unwrap();

        let resp = Response::FleetStats {
            devices: vec![DeviceStatus {
                device: 0,
                name: "melbourne14#3".into(),
                queue_depth: svc.queue_depth() as u64,
                breaker: svc.breaker_state(),
                quarantined: false,
                quality: svc.quality(),
                stats: svc.stats(),
            }],
        };
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
        assert_eq!(
            serde_json::from_str::<Request>("\"FleetStats\"").unwrap(),
            Request::FleetStats
        );
    }

    #[test]
    fn unit_requests_parse_from_bare_strings() {
        // Externally tagged unit variants serialize as plain strings, which
        // is what a shell one-liner will type.
        let line = serde_json::to_string(&Request::Shutdown).unwrap();
        assert_eq!(line, "\"Shutdown\"");
        assert_eq!(
            serde_json::from_str::<Request>("\"Flush\"").unwrap(),
            Request::Flush
        );
    }
}
