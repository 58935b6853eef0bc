//! # edm-telemetry — metrics, tracing, and exposition for the EDM pipeline
//!
//! The pipeline's performance story (where fidelity and latency are lost,
//! which ensemble member misbehaved, how compile-time ESP tracked observed
//! success) needs first-class measurement. This crate provides the three
//! observability primitives every other crate in the workspace shares:
//!
//! - [`metrics`] — a lock-cheap registry of named [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s. Hot-path updates are a
//!   handful of relaxed atomics; registration is a one-time lock behind a
//!   `OnceLock` (see the [`counter!`], [`gauge!`], and [`histogram!`]
//!   macros).
//! - [`trace`] — structured spans with ids, parent links, trace-id
//!   correlation, and per-span wall time, retained in a bounded in-memory
//!   [flight recorder](trace::FlightRecorder) that can dump the last N
//!   spans as JSON lines on demand.
//! - [`export`] + [`http`] — the registry rendered as Prometheus text
//!   format or JSON, and a minimal `std::net::TcpListener` HTTP endpoint
//!   serving `/metrics`, `/metrics.json`, `/healthz`, and `/spans`.
//!
//! ## Zero cost when disabled
//!
//! Telemetry is **globally disabled by default**. Every recording
//! primitive ([`Counter::inc`], [`Histogram::observe`], [`trace::span`])
//! first checks one relaxed [`AtomicBool`]
//! and returns immediately when telemetry is off — no clock reads, no
//! locks, no allocation. `edm-fleet` enables it under `--metrics-port`
//! or `--trace-out`; `edm-cli` under `--profile` or `run --connect`.
//!
//! ## Naming convention
//!
//! Metric names follow `edm_<crate>_<name>_<unit>`:
//! `edm_qmap_transpile_us`, `edm_serve_cache_hits_total`,
//! `edm_core_member_esp_micro`. Durations are microseconds (`_us`) or
//! milliseconds (`_ms`); counters end in `_total`; dimensionless scalars
//! scaled by 10⁶ end in `_micro`.
//!
//! # Examples
//!
//! ```
//! edm_telemetry::set_enabled(true);
//!
//! edm_telemetry::counter!("edm_doc_requests_total", "Requests served").inc();
//! edm_telemetry::histogram!("edm_doc_latency_us", "Request latency").observe(250);
//! {
//!     let _span = edm_telemetry::trace::span("handle_request");
//!     // ... traced work ...
//! }
//!
//! let text = edm_telemetry::export::prometheus_text(edm_telemetry::metrics::registry());
//! assert!(text.contains("edm_doc_requests_total"));
//! # edm_telemetry::set_enabled(false);
//! ```

#![deny(missing_docs)]

pub mod export;
pub mod http;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns all recording on or off, process-wide.
///
/// Off (the default) makes every counter increment, histogram
/// observation, and span a single relaxed atomic load — the registry and
/// flight recorder keep whatever they already held.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
