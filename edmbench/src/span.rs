//! The benchmark's own spans and their self-time arithmetic.
//!
//! Each span wraps one public call into a layer. A span's self time is its
//! duration minus the part of its interval that its children cover; the
//! children's intervals are clipped to the parent and merged first, so
//! children that overlap each other (work on several threads) are not
//! subtracted twice. Summed over every span, self times therefore add up
//! to the time the root spans cover, and the remainder of the wall clock
//! is reported as `other_us`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: a layer name and its interval in microseconds since
/// the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Per-layer metric name, e.g. `qsim.execute_us`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
}

/// Records spans in memory; nothing is written until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(SpanRecord {
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Adds an already measured interval as a child of span `parent`.
    pub fn record(&mut self, name: &'static str, parent: usize, start_us: f64, end_us: f64) {
        self.spans.push(SpanRecord {
            name,
            parent: Some(parent),
            start_us,
            end_us,
        });
    }

    /// Adds nested work that the program timed itself (a telemetry
    /// histogram's summed µs) as children of span `parent`. Only their
    /// durations are known, so they are laid end to end from the parent's
    /// start; the program ran them one after another, so the union their
    /// intervals cover is still exact.
    pub fn record_nested(&mut self, parent: usize, parts: &[(&'static str, f64)]) {
        let mut at = self.spans[parent].start_us;
        for &(name, us) in parts {
            self.record(name, parent, at, at + us);
            at += us;
        }
    }

    /// Index of the most recently closed span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Self time per span name, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }
}

/// Total length of the union of `intervals` after clipping each to
/// `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    for iv in intervals.iter_mut() {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
    }
    intervals.retain(|iv| iv.1 > iv.0);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let own = (s.end_us - s.start_us) - covered(kids, s.start_us, s.end_us);
        *out.entry(s.name).or_insert(0.0) += own.max(0.0);
    }
    out
}

/// Total length of the union of the root spans' intervals.
#[cfg(test)]
fn root_cover(spans: &[SpanRecord]) -> f64 {
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_us, s.end_us))
        .collect();
    covered(roots, f64::NEG_INFINITY, f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            name,
            parent,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100] > mid [10,60] > leaf [20,30]
        let spans = [
            span("root", None, 0.0, 100.0),
            span("mid", Some(0), 10.0, 60.0),
            span("leaf", Some(1), 20.0, 30.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], 50.0);
        assert_eq!(t["mid"], 40.0);
        assert_eq!(t["leaf"], 10.0);
        assert_eq!(t.values().sum::<f64>(), root_cover(&spans));
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two children on different threads overlap on [30,40]; a third
        // sticks out past the parent's end and is clipped.
        let spans = [
            span("parent", None, 0.0, 100.0),
            span("a", Some(0), 20.0, 40.0),
            span("b", Some(0), 30.0, 50.0),
            span("c", Some(0), 90.0, 120.0),
        ];
        let t = self_times(&spans);
        // Union inside the parent: [20,50] + [90,100] = 40.
        assert_eq!(t["parent"], 60.0);
        assert_eq!(t["a"], 20.0);
        assert_eq!(t["b"], 20.0);
        assert_eq!(t["c"], 30.0);
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = [
            span("x", None, 0.0, 10.0),
            span("x", None, 20.0, 25.0),
            span("y", Some(1), 21.0, 22.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["x"], 14.0);
        assert_eq!(t["y"], 1.0);
        assert_eq!(root_cover(&spans), 15.0);
    }

    #[test]
    fn recorded_nested_work_is_laid_end_to_end() {
        let mut tracer = Tracer::new();
        tracer.spans.push(span("route", None, 100.0, 200.0));
        tracer.record_nested(0, &[("transpile", 30.0), ("diversify", 50.0)]);
        let t = tracer.self_times();
        assert_eq!(t["route"], 20.0);
        assert_eq!(t["transpile"], 30.0);
        assert_eq!(t["diversify"], 50.0);
        assert_eq!(tracer.spans[2].start_us, 130.0);
    }

    #[test]
    fn live_spans_nest_and_sum_to_their_roots() {
        let mut tracer = Tracer::new();
        tracer.time("outer", |t| {
            t.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = &tracer.spans;
        assert_eq!(spans[1].parent, Some(0));
        let total: f64 = tracer.self_times().values().sum();
        assert!((total - root_cover(spans)).abs() < 1e-6);
        assert!(tracer.self_times()["inner"] >= 2000.0);
    }
}
