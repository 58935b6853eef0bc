//! Estimated Success Probability (ESP).
//!
//! ESP is the compile-time reliability estimate of §2.4:
//!
//! ```text
//! ESP = Π (1 - g_i^e) · Π (1 - m_j^e)
//! ```
//!
//! the product of every gate's and every measurement's success rate under
//! the current calibration. Variation-aware mapping maximizes ESP; EDM ranks
//! candidate mappings by it.

use crate::MapError;
use qcir::{Circuit, Gate, Qubit};
use qdevice::Calibration;

/// Computes the ESP of a *physical* circuit under a calibration.
///
/// The circuit must be in the device basis (single-qubit gates, CX,
/// measurements), with every CX on a calibrated coupling.
///
/// # Errors
///
/// - [`MapError::UnsupportedGate`] for gates outside the device basis.
/// - [`MapError::UncalibratedEdge`] for a CX on an uncalibrated pair.
/// - [`MapError::TooManyQubits`] if the circuit is wider than the table.
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qmap::esp;
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 2);
/// let cal = device.calibration();
/// let mut c = Circuit::new(2, 2);
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// let value = esp::esp(&c, &cal)?;
/// assert!(value > 0.5 && value < 1.0);
/// # Ok::<(), qmap::MapError>(())
/// ```
pub fn esp(circuit: &Circuit, cal: &Calibration) -> Result<f64, MapError> {
    if circuit.num_qubits() > cal.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: cal.num_qubits(),
        });
    }
    let mut product = 1.0;
    for g in circuit.iter() {
        match *g {
            Gate::Cx(a, b) => {
                let e = cal
                    .cx_err(a.index(), b.index())
                    .ok_or(MapError::UncalibratedEdge {
                        a: a.index(),
                        b: b.index(),
                    })?;
                product *= 1.0 - e;
            }
            Gate::Measure(q, _) => {
                product *= 1.0 - cal.readout_err(q.index());
            }
            ref g1 if g1.is_single_qubit() => {
                product *= 1.0 - cal.gate_1q_err(g1.qubits()[0].index());
            }
            ref other => {
                return Err(MapError::UnsupportedGate { name: other.name() });
            }
        }
    }
    Ok(product)
}

/// The ESP of one circuit under every relabeling of its qubits, compiled
/// once per (circuit, calibration).
///
/// Ranking embeddings by [`esp`] means relabeling the circuit onto each of
/// them first. The scorer keeps the gate list as operations on the
/// circuit's own (logical) qubit indices plus dense success-rate tables,
/// so scoring an embedding is one pass over the gates with no allocation.
/// It multiplies the same `1.0 - e` factors in the same gate order, so
/// [`EspScorer::score`] is bit-equal to `esp(&relabeled, cal)` and fails
/// with the same error on the same gate.
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qmap::{esp, Layout};
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 2);
/// let cal = device.calibration();
/// let mut c = Circuit::new(2, 2);
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// let scorer = esp::EspScorer::new(&c, &cal, 14, |q| q.index());
/// let layout = Layout::from_physical(vec![1, 2], 14);
/// let direct = esp::esp(&layout.apply(&c), &cal)?;
/// assert_eq!(scorer.score(layout.as_slice())?.to_bits(), direct.to_bits());
/// # Ok::<(), qmap::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EspScorer {
    ops: Vec<ScoreOp>,
    /// `1.0 - gate_1q_err`, per physical qubit.
    gate_1q: Vec<f64>,
    /// `1.0 - readout_err`, per physical qubit.
    readout: Vec<f64>,
    /// `1.0 - cx_err` at `a * n + b`, NaN for an uncalibrated pair (rates
    /// lie in `[0, 1]`, so no calibrated entry is NaN).
    cx: Vec<f64>,
    n: usize,
    /// Set when the relabeled circuit is wider than the calibration.
    too_wide: Option<MapError>,
    /// Single-qubit gates and measurements on each logical qubit, for
    /// [`EspScorer::tail_bound`].
    counts: Vec<(i32, i32)>,
}

/// One gate of a compiled [`EspScorer`], on logical qubit indices.
#[derive(Debug, Clone, Copy)]
enum ScoreOp {
    OneQubit(u32),
    Cx(u32, u32),
    Measure(u32),
    Unsupported(&'static str),
}

impl EspScorer {
    /// Compiles `circuit` for scoring relabelings onto a `num_physical`
    /// qubit device: `logical` maps each circuit qubit to the index the
    /// scored assignments are indexed by.
    pub fn new(
        circuit: &Circuit,
        cal: &Calibration,
        num_physical: u32,
        logical: impl Fn(Qubit) -> u32,
    ) -> Self {
        let ops: Vec<ScoreOp> = circuit
            .iter()
            .map(|g| match *g {
                Gate::Cx(a, b) => ScoreOp::Cx(logical(a), logical(b)),
                Gate::Measure(q, _) => ScoreOp::Measure(logical(q)),
                ref g1 if g1.is_single_qubit() => ScoreOp::OneQubit(logical(g1.qubits()[0])),
                ref other => ScoreOp::Unsupported(other.name()),
            })
            .collect();
        let mut counts: Vec<(i32, i32)> = Vec::new();
        for op in &ops {
            let (q, gate) = match *op {
                ScoreOp::OneQubit(q) => (q as usize, true),
                ScoreOp::Measure(q) => (q as usize, false),
                _ => continue,
            };
            if counts.len() <= q {
                counts.resize(q + 1, (0, 0));
            }
            if gate {
                counts[q].0 += 1;
            } else {
                counts[q].1 += 1;
            }
        }
        let n = cal.num_qubits();
        let mut cx = vec![f64::NAN; n as usize * n as usize];
        for (edge, &e) in cal.cx_table() {
            let (a, b) = (edge.lo() as usize, edge.hi() as usize);
            // `cx_err` never calibrates a qubit against itself.
            if a != b {
                cx[a * n as usize + b] = 1.0 - e;
                cx[b * n as usize + a] = 1.0 - e;
            }
        }
        EspScorer {
            ops,
            gate_1q: (0..n).map(|q| 1.0 - cal.gate_1q_err(q)).collect(),
            readout: (0..n).map(|q| 1.0 - cal.readout_err(q)).collect(),
            cx,
            n: n as usize,
            too_wide: (num_physical > n).then_some(MapError::TooManyQubits {
                circuit: num_physical,
                device: n,
            }),
            counts,
        }
    }

    /// The ESP of the circuit relabeled so that logical qubit `l` sits on
    /// physical qubit `phys[l]`.
    ///
    /// # Errors
    ///
    /// The error [`esp`] gives for the relabeled circuit.
    ///
    /// # Panics
    ///
    /// Panics if `phys` does not cover a logical index the circuit uses.
    pub fn score(&self, phys: &[u32]) -> Result<f64, MapError> {
        if let Some(e) = &self.too_wide {
            return Err(e.clone());
        }
        let mut product = 1.0;
        for op in &self.ops {
            match *op {
                ScoreOp::OneQubit(q) => product *= self.gate_1q[phys[q as usize] as usize],
                ScoreOp::Cx(a, b) => {
                    let (a, b) = (phys[a as usize], phys[b as usize]);
                    let s = self.cx[a as usize * self.n + b as usize];
                    if s.is_nan() {
                        return Err(MapError::UncalibratedEdge { a, b });
                    }
                    product *= s;
                }
                ScoreOp::Measure(q) => product *= self.readout[phys[q as usize] as usize],
                ScoreOp::Unsupported(name) => return Err(MapError::UnsupportedGate { name }),
            }
        }
        Ok(product)
    }

    /// An upper bound on [`EspScorer::score`] over every completion of a
    /// partial assignment that places the missing logical qubits on
    /// distinct free physical qubits: `partial[l]` is `l`'s physical qubit
    /// or `u32::MAX`, and `used[p]` marks the physical qubits taken.
    ///
    /// The bound multiplies the factors of every gate whose qubits are
    /// placed; for each unplaced qubit `l`, the best `gate_1q[p]^a ·
    /// readout[p]^m` over free `p`, with `a` and `m` its single-qubit
    /// gate and measurement counts; and a slack of `1 + 4 (ops + 2) ε`
    /// that covers the rounding of `score`'s gate-order product and of
    /// the bound itself, so it holds for the computed floats too. It is
    /// `+∞` when a completion could fail to score (an uncalibrated placed
    /// pair, an unsupported gate, a CX on an unplaced qubit, a circuit too
    /// wide), so a caller that compares against it never discards an
    /// error, and when the bound would be subnormal, where the slack no
    /// longer covers the rounding. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `partial` does not cover a logical index the circuit
    /// uses, or `used` names a qubit the calibration lacks.
    pub fn tail_bound(&self, partial: &[u32], used: &[bool]) -> f64 {
        if self.too_wide.is_some() {
            return f64::INFINITY;
        }
        let mut product = 1.0;
        for op in &self.ops {
            match *op {
                ScoreOp::OneQubit(q) => {
                    if let Some(p) = placed(partial, q) {
                        product *= self.gate_1q[p];
                    }
                }
                ScoreOp::Measure(q) => {
                    if let Some(p) = placed(partial, q) {
                        product *= self.readout[p];
                    }
                }
                ScoreOp::Cx(a, b) => {
                    let (Some(a), Some(b)) = (placed(partial, a), placed(partial, b)) else {
                        return f64::INFINITY;
                    };
                    let s = self.cx[a * self.n + b];
                    if s.is_nan() {
                        return f64::INFINITY;
                    }
                    product *= s;
                }
                ScoreOp::Unsupported(_) => return f64::INFINITY,
            }
        }
        for (l, &(gates, measures)) in self.counts.iter().enumerate() {
            if partial[l] != u32::MAX || (gates == 0 && measures == 0) {
                continue;
            }
            let best = used
                .iter()
                .enumerate()
                .filter(|&(_, &taken)| !taken)
                .map(|(p, _)| self.gate_1q[p].powi(gates) * self.readout[p].powi(measures))
                .fold(0.0, f64::max);
            product *= best;
        }
        let bound = product * (1.0 + 4.0 * (self.ops.len() + 2) as f64 * f64::EPSILON);
        // The relative slack says nothing once products go subnormal.
        if bound < f64::MIN_POSITIVE {
            f64::INFINITY
        } else {
            bound
        }
    }
}

/// The physical qubit logical qubit `q` sits on in `partial`, if placed.
fn placed(partial: &[u32], q: u32) -> Option<usize> {
    let p = partial[q as usize];
    (p != u32::MAX).then_some(p as usize)
}

/// ESP restricted to the measurement terms only — useful when comparing
/// mappings of measurement-dominated circuits.
pub fn measurement_esp(circuit: &Circuit, cal: &Calibration) -> Result<f64, MapError> {
    if circuit.num_qubits() > cal.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: cal.num_qubits(),
        });
    }
    let mut product = 1.0;
    for g in circuit.iter() {
        if let Gate::Measure(q, _) = *g {
            product *= 1.0 - cal.readout_err(q.index());
        }
    }
    Ok(product)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::Edge;
    use std::collections::BTreeMap;

    fn cal3() -> Calibration {
        let mut cx = BTreeMap::new();
        cx.insert(Edge::new(0, 1), 0.1);
        cx.insert(Edge::new(1, 2), 0.2);
        Calibration::new(vec![0.05, 0.10, 0.20], vec![0.01, 0.02, 0.03], cx)
    }

    #[test]
    fn empty_circuit_has_esp_one() {
        let c = Circuit::new(2, 0);
        assert_eq!(esp(&c, &cal3()).unwrap(), 1.0);
    }

    #[test]
    fn esp_multiplies_success_rates() {
        let mut c = Circuit::new(3, 3);
        c.h(0); // 0.99
        c.cx(0, 1); // 0.9
        c.measure(0, 0); // 0.95
        c.measure(1, 1); // 0.90
        let got = esp(&c, &cal3()).unwrap();
        let want = 0.99 * 0.9 * 0.95 * 0.90;
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn worked_paper_equation() {
        // The equation in §2.4: gate terms and measurement terms multiply.
        let mut c = Circuit::new(2, 2);
        c.cx(0, 1).cx(0, 1).measure_all();
        let got = esp(&c, &cal3()).unwrap();
        let want = 0.9 * 0.9 * 0.95 * 0.90;
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn uncalibrated_edge_rejected() {
        let mut c = Circuit::new(3, 0);
        c.cx(0, 2);
        assert_eq!(
            esp(&c, &cal3()).unwrap_err(),
            MapError::UncalibratedEdge { a: 0, b: 2 }
        );
    }

    #[test]
    fn unsupported_gate_rejected() {
        let mut c = Circuit::new(2, 0);
        c.swap(0, 1);
        assert_eq!(
            esp(&c, &cal3()).unwrap_err(),
            MapError::UnsupportedGate { name: "swap" }
        );
    }

    #[test]
    fn oversize_circuit_rejected() {
        let c = Circuit::new(5, 0);
        assert!(matches!(
            esp(&c, &cal3()).unwrap_err(),
            MapError::TooManyQubits { .. }
        ));
    }

    #[test]
    fn measurement_esp_ignores_gates() {
        let mut c = Circuit::new(2, 2);
        c.cx(0, 1).measure(0, 0);
        let got = measurement_esp(&c, &cal3()).unwrap();
        assert!((got - 0.95).abs() < 1e-12);
    }

    /// Every completion of `partial` over the free qubits, as full
    /// assignments.
    fn completions(partial: &[u32], used: &[bool], out: &mut Vec<Vec<u32>>) {
        let Some(l) = partial.iter().position(|&p| p == u32::MAX) else {
            out.push(partial.to_vec());
            return;
        };
        let (mut partial, mut used) = (partial.to_vec(), used.to_vec());
        for p in 0..used.len() {
            if !used[p] {
                (partial[l], used[p]) = (p as u32, true);
                completions(&partial, &used, out);
                used[p] = false;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn tail_bound_dominates_every_completion(
            seed in 0u64..1_000,
            size in 1u32..4,
            idle in 1u32..4,
            ones in proptest::collection::vec((0u32..8, 0u32..3), 0..12),
            embedding in 0usize..1_000,
            placed_idle in 0u32..3,
            spots in proptest::collection::vec(0u32..14, 3..4),
        ) {
            use qdevice::{presets, vf2, DeviceModel, Topology};
            let device = DeviceModel::synthesize(presets::melbourne14(), seed);
            let cal = device.calibration();
            // A path over the first `size` qubits, then `idle` qubits
            // that only see single-qubit gates and measurements.
            let n = size + idle;
            let mut c = Circuit::new(n, n);
            for v in 1..size {
                c.cx(v - 1, v);
            }
            for &(q, kind) in &ones {
                match kind {
                    0 => c.h(q % n),
                    1 => c.t(q % n),
                    _ => c.measure(q % n, q % n),
                };
            }
            c.measure_all();
            let scorer = EspScorer::new(&c, &cal, 14, |q| q.index());

            // Place the path on a real embedding, then some idle qubits.
            let edges: Vec<(u32, u32)> = (1..size).map(|v| (v - 1, v)).collect();
            let path = Topology::new(size, &edges);
            let found = vf2::enumerate_subgraph_isomorphisms(&path, device.topology(), usize::MAX);
            let mut partial = vec![u32::MAX; n as usize];
            let mut used = vec![false; 14];
            for (l, &p) in found[embedding % found.len()].iter().enumerate() {
                (partial[l], used[p as usize]) = (p, true);
            }
            for (l, &spot) in (size..n).zip(&spots).take(placed_idle as usize) {
                let p = (0..14).map(|i| (spot + i) % 14).find(|&p| !used[p as usize]).unwrap();
                (partial[l as usize], used[p as usize]) = (p, true);
            }

            let bound = scorer.tail_bound(&partial, &used);
            proptest::prop_assert!(bound.is_finite());
            let mut all = Vec::new();
            completions(&partial, &used, &mut all);
            for phi in all {
                let esp = scorer.score(&phi).unwrap();
                proptest::prop_assert!(bound >= esp, "{} < {} at {:?}", bound, esp, phi);
            }
        }
    }

    #[test]
    fn tail_bound_is_infinite_over_an_uncalibrated_placed_cx() {
        let mut c = Circuit::new(3, 3);
        c.cx(0, 1).h(2).measure_all();
        let scorer = EspScorer::new(&c, &cal3(), 3, |q| q.index());
        // Qubits 0 and 2 share no calibrated link; qubit 2's host is open.
        let bound = scorer.tail_bound(&[0, 2, u32::MAX], &[true, false, true]);
        assert_eq!(bound, f64::INFINITY);
        // On a calibrated link the bound is finite and above the score.
        let bound = scorer.tail_bound(&[0, 1, u32::MAX], &[true, true, false]);
        assert!(bound.is_finite());
        assert!(bound >= scorer.score(&[0, 1, 2]).unwrap());
    }

    #[test]
    fn better_qubits_give_higher_esp() {
        // Same circuit shape on (0,1) vs (1,2): the (0,1) variant uses more
        // reliable hardware and must score higher.
        let mut good = Circuit::new(3, 3);
        good.cx(0, 1).measure(0, 0).measure(1, 1);
        let mut bad = Circuit::new(3, 3);
        bad.cx(1, 2).measure(1, 1).measure(2, 2);
        let c = cal3();
        assert!(esp(&good, &c).unwrap() > esp(&bad, &c).unwrap());
    }
}
