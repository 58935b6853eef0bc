//! Reads counts out of the program's telemetry registry snapshot.

use edm_telemetry::metrics::{registry, MetricSnapshot};

/// A point-in-time copy of the registry, for before/after deltas.
pub struct Snapshot(Vec<MetricSnapshot>);

impl Snapshot {
    /// Copies the process-global registry now.
    pub fn take() -> Self {
        Snapshot(registry().snapshot())
    }

    /// A counter's value summed over its label sets (0 if unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .iter()
            .map(|m| match m {
                MetricSnapshot::Counter { name: n, value, .. } if *n == name => *value,
                _ => 0,
            })
            .sum()
    }

    /// A histogram's exact sum of observations (0 if unregistered). The
    /// sum is exact even though the buckets are powers of two.
    pub fn histogram_sum(&self, name: &str) -> u64 {
        self.0
            .iter()
            .map(|m| match m {
                MetricSnapshot::Histogram {
                    name: n, snapshot, ..
                } if *n == name => snapshot.sum,
                _ => 0,
            })
            .sum()
    }

    /// Embeddings produced by either embedding engine.
    pub fn embeddings(&self) -> u64 {
        self.counter("edm_qdevice_vf2_embeddings_total")
            + self.counter("edm_qdevice_fdls_embeddings_total")
    }
}
