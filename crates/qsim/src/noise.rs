//! Noisy trajectory simulation with correlated error channels.
//!
//! The executor models three families of error, mirroring §2.1 of the paper:
//!
//! 1. **Stochastic gate noise** — depolarizing Pauli errors after every gate
//!    (probability = the calibrated gate error rate), plus Pauli-twirled
//!    T1/T2 relaxation on the operands of each gate, scaled by gate duration.
//!    These are the errors an IID simulator would also model.
//! 2. **Coherent errors (hidden, deterministic)** — every CX on edge `e`
//!    additionally applies a fixed systematic rotation (`Rz(θ_e)` on both
//!    operands and `Rx(0.6·θ_e)` on the target) and a ZZ-crosstalk phase
//!    `Rz(χ_e)` on active topology-neighbors of the edge. Because θ and χ are
//!    fixed per device, every shot of a given mapping is tilted toward the
//!    *same* wrong answers — the correlated-error "demon" of Appendix A.
//!    A different mapping uses different edges and is tilted differently.
//! 3. **Asymmetric readout** — measured bits flip with state-dependent
//!    probabilities `p01 = P(1|0)` and `p10 = P(0|1)`, with `p10 > p01`.
//!
//! Idle-qubit decoherence is not modeled (only gate operands decohere); the
//! paper's shallow workloads keep qubits busy, so this mainly affects
//! absolute PST, not the correlation structure.
//!
//! # Execution model
//!
//! [`NoisySimulator::compile`] lowers a circuit once into a
//! [`CompiledCircuit`]: gate matrices tabulated, adjacent single-qubit
//! gates fused ([`crate::fuse`]), stochastic error sites flattened into
//! lookup tables with a precomputed survival-product table, readout flip
//! probabilities baked per measurement, and the coherent-only ("clean")
//! outcome distribution cached. [`CompiledCircuit::run_into`] then executes
//! shots against reusable [`SimScratch`] buffers: after the first shot has
//! warmed the buffers, the steady-state shot loop performs **zero heap
//! allocations** (verified by a counting-allocator test).
//!
//! Per shot, the fired-event set is drawn by *skip sampling* over the
//! survival table: one uniform draw decides how far the scan jumps to the
//! next firing site (an exact sample of the independent per-site Bernoulli
//! process — see [`CompiledCircuit::sample_events`]), so a shot costs
//! `O(1 + #fired)` RNG draws instead of one draw per error site. The
//! resulting histogram remains a pure function of `(circuit, shots, seed)`
//! and is bit-identical across thread counts (DESIGN.md §7); the draw
//! *schedule* differs from pre-compile-era versions of this crate, which
//! only re-rolls which equally-distributed histogram a given seed labels.
//!
//! A shot whose event set is empty samples the cached clean distribution.
//! A faulty shot never replays the shared clean prefix: the clean pass in
//! `compile` snapshots the state before every ~√n-th fused op, and the
//! shot resumes from the latest snapshot taken before its first fired
//! step — the same ops on the same values, so the state is bit-equal to a
//! replay from |0…0⟩. A shot in which exactly one outcome fired looks up
//! that outcome's cumulative distribution in a memo shared by every slice
//! of the plan, filled on first use under a fixed per-plan byte budget.
//! Neither shortcut changes a draw or an output bit; DESIGN.md §11 has the
//! argument, and `run_into_full_replay` is the reference the tests
//! compare against.

use crate::complex::C64;
use crate::counts::Counts;
use crate::error::SimError;
use crate::fuse::{self, FusedOp, Prim};
use crate::ideal;
use crate::statevector::{
    apply_1q_kernel, apply_cx_kernel, apply_x_kernel, apply_y_kernel, apply_z_kernel, reset_zero,
    sample_kernel, StateVector,
};
use edm_telemetry::metrics::Counter;
use qcir::{Circuit, Gate, Qubit};
use qdevice::{DeviceModel, Edge, NoiseParams, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// Toggles for the individual noise channels (all on by default).
///
/// Switching channels off enables the ablation studies in the bench harness
/// (e.g. reproducing the IID-simulator gap the paper describes in §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Depolarizing Pauli noise after every gate.
    pub stochastic_gate_noise: bool,
    /// Pauli-twirled T1/T2 relaxation on gate operands.
    pub decoherence: bool,
    /// Hidden deterministic CX over-rotation.
    pub coherent_errors: bool,
    /// Hidden deterministic ZZ-crosstalk on spectator neighbors.
    pub crosstalk: bool,
    /// Asymmetric readout bit-flips.
    pub readout_error: bool,
}

impl SimOptions {
    /// All channels enabled (the realistic device model).
    pub fn all() -> Self {
        SimOptions {
            stochastic_gate_noise: true,
            decoherence: true,
            coherent_errors: true,
            crosstalk: true,
            readout_error: true,
        }
    }

    /// All channels disabled (an ideal machine).
    pub fn none() -> Self {
        SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: false,
            crosstalk: false,
            readout_error: false,
        }
    }

    /// Only IID channels: stochastic gate noise, decoherence, and readout,
    /// with the correlated (coherent/crosstalk) channels off. This is the
    /// "existing simulator" model the paper contrasts against in §4.4.
    pub fn iid_only() -> Self {
        SimOptions {
            stochastic_gate_noise: true,
            decoherence: true,
            coherent_errors: false,
            crosstalk: false,
            readout_error: true,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::all()
    }
}

/// Shot-based noisy executor for circuits in the device basis.
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qsim::NoisySimulator;
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 3);
/// let sim = NoisySimulator::from_device(&device);
/// let mut c = Circuit::new(2, 2);
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// let counts = sim.run(&c, 1024, 7)?;
/// assert_eq!(counts.shots(), 1024);
/// # Ok::<(), qsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NoisySimulator<'a> {
    topology: &'a Topology,
    params: &'a NoiseParams,
    options: SimOptions,
}

/// Event probabilities are clamped below 1 so the survival products in the
/// skip-sampling table stay strictly positive. A "certain" error channel is
/// already unphysical; losing 1e-9 of its firing probability is invisible
/// to every statistical tolerance in the workspace.
const MAX_EVENT_PROB: f64 = 1.0 - 1e-9;

/// Outcome histograms are accumulated in a dense per-scratch array (zero
/// allocation, O(1) record) when the classical register has at most this
/// many bits; wider registers fall back to direct `Counts` recording.
const DENSE_HIST_BITS: u32 = 12;

/// Upper bound on the clean-prefix checkpoints of one plan, in bytes of
/// snapshot state. Wide registers get fewer, more widely spaced snapshots.
const CHECKPOINT_BUDGET_BYTES: usize = 1 << 20;

/// Upper bound on the single-fault memo of one plan, in bytes: its slots
/// plus every cumulative distribution they hold. Part of the design, not a
/// knob: every plan of a batch holds its own memo, so peak RSS grows with
/// this budget times the plans in flight (DESIGN.md §11).
#[doc(hidden)]
pub const MEMO_BUDGET_BYTES: usize = 128 << 10;

impl<'a> NoisySimulator<'a> {
    /// Creates a simulator over an explicit topology and noise parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not cover every topology qubit.
    pub fn new(topology: &'a Topology, params: &'a NoiseParams) -> Self {
        assert_eq!(
            topology.num_qubits(),
            params.num_qubits(),
            "noise parameters must cover every topology qubit"
        );
        NoisySimulator {
            topology,
            params,
            options: SimOptions::default(),
        }
    }

    /// Creates a simulator from a device model's ground truth.
    pub fn from_device(device: &'a DeviceModel) -> Self {
        Self::new(device.topology(), device.truth())
    }

    /// Replaces the channel toggles.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// The active channel toggles.
    pub fn options(&self) -> SimOptions {
        self.options
    }

    /// Runs `shots` noisy trials of `circuit` and returns the outcome
    /// histogram. Deterministic for a fixed `(circuit, shots, seed)`.
    ///
    /// Equivalent to [`NoisySimulator::compile`] followed by one
    /// [`CompiledCircuit::run_into`] with the same seed — callers that run
    /// the same circuit repeatedly (slices, ensemble members, rounds)
    /// should compile once and reuse the plan and a [`SimScratch`].
    ///
    /// The circuit must already be *physical*: lowered to the
    /// `{single-qubit, CX, measure}` basis with every CX on a coupled pair
    /// (use the `qmap` transpiler to get there).
    ///
    /// # Errors
    ///
    /// - [`SimError::TooManyQubits`] if the circuit is wider than the device.
    /// - [`SimError::UnsupportedGate`] for gates outside the device basis.
    /// - [`SimError::UncoupledQubits`] for a CX on a non-edge.
    /// - [`SimError::MidCircuitMeasurement`] / [`SimError::ClbitReused`] for
    ///   invalid measurement structure.
    pub fn run(&self, circuit: &Circuit, shots: u64, seed: u64) -> Result<Counts, SimError> {
        let plan = self.compile(circuit)?;
        let mut counts = Counts::new(plan.num_clbits());
        plan.run_into(shots, seed, &mut SimScratch::new(), &mut counts);
        Ok(counts)
    }

    /// Validates and lowers a circuit into a reusable execution plan.
    ///
    /// Compilation does all per-circuit work once — gate-matrix
    /// tabulation, single-qubit fusion, noise-event lookup tables, the
    /// survival-product table, baked readout probabilities, and the
    /// coherent-only outcome distribution — so that per-shot work is pure
    /// table lookups. The plan borrows nothing: it can be shared across
    /// threads and outlives the simulator.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NoisySimulator::run`].
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit, SimError> {
        if circuit.num_qubits() > self.topology.num_qubits() {
            return Err(SimError::TooManyQubits {
                circuit: circuit.num_qubits(),
                device: self.topology.num_qubits(),
            });
        }
        let meas = ideal::measurement_map(circuit)?;

        // Dense re-indexing of the active physical qubits keeps the state
        // vector as small as the program, not the device.
        let active: Vec<u32> = circuit.active_qubits().iter().map(|q| q.index()).collect();
        let mut dense = vec![u32::MAX; self.topology.num_qubits() as usize];
        for (i, &q) in active.iter().enumerate() {
            dense[q as usize] = i as u32;
        }
        let dq = |q: Qubit| Qubit::new(dense[q.usize()]);

        let mut prims: Vec<Prim> = Vec::with_capacity(circuit.len());
        let mut lut = EventLut::default();
        let mut step = 0u32;
        for g in circuit.iter() {
            match *g {
                Gate::Cx(a, b) => {
                    if !self.topology.has_edge(a.index(), b.index()) {
                        return Err(SimError::UncoupledQubits {
                            a: a.index(),
                            b: b.index(),
                        });
                    }
                    let e = Edge::new(a.index(), b.index());
                    prims.push(Prim::cx(step, dq(a), dq(b)));
                    if self.options.coherent_errors {
                        let theta = self.params.coherent_cx_angle[&e];
                        if theta != 0.0 {
                            prims.push(unary(step, Gate::Rz(dq(a), theta)));
                            prims.push(unary(step, Gate::Rz(dq(b), theta)));
                            prims.push(unary(step, Gate::Rx(dq(b), 0.6 * theta)));
                        }
                    }
                    if self.options.crosstalk {
                        let chi = self.params.zz_crosstalk[&e];
                        if chi != 0.0 {
                            for &end in &[a.index(), b.index()] {
                                for &n in self.topology.neighbors(end) {
                                    if n != a.index()
                                        && n != b.index()
                                        && dense[n as usize] != u32::MAX
                                    {
                                        let nq = Qubit::new(dense[n as usize]);
                                        prims.push(unary(step, Gate::Rz(nq, chi)));
                                    }
                                }
                            }
                        }
                    }
                    if self.options.stochastic_gate_noise {
                        lut.push(
                            step,
                            self.params.cx_err[&e],
                            EventKind::Depol2(dq(a), dq(b)),
                        );
                    }
                    if self.options.decoherence {
                        self.push_relaxation(&mut lut, step, a, dq(a), true);
                        self.push_relaxation(&mut lut, step, b, dq(b), true);
                    }
                }
                Gate::Measure(..) => {
                    // Handled via the measurement map + readout flips.
                    continue;
                }
                ref g1 if g1.is_single_qubit() => {
                    let q = g1.qubits()[0];
                    prims.push(unary(step, g1.map_qubits(dq)));
                    if self.options.stochastic_gate_noise {
                        lut.push(
                            step,
                            self.params.gate_1q_err[q.usize()],
                            EventKind::Depol1(dq(q)),
                        );
                    }
                    if self.options.decoherence {
                        self.push_relaxation(&mut lut, step, q, dq(q), false);
                    }
                }
                ref other => {
                    return Err(SimError::UnsupportedGate { name: other.name() });
                }
            }
            step += 1;
        }

        let measurements = meas
            .iter()
            .map(|&(q, c)| MeasSite {
                dense: dense[q.usize()],
                clbit: c.index(),
                p01: self.params.readout_p01[q.usize()],
                p10: self.params.readout_p10[q.usize()],
            })
            .collect();

        let fused = fuse::fuse(&prims);
        let survival = lut.survival();
        let num_dense_qubits = active.len() as u32;

        // Coherent-only reference distribution: computed once here, reused
        // for every shot in which no stochastic event fires. The same pass
        // snapshots the clean prefixes faulty shots resume from.
        let (amps, checkpoints) = clean_pass(&fused, num_dense_qubits);
        let clean_cum = running_sums(&amps).collect();
        Ok(CompiledCircuit {
            num_dense_qubits,
            num_clbits: circuit.num_clbits(),
            prims,
            fused,
            events: lut.events,
            outcomes: lut.outcomes,
            pauli_terms: lut.pauli_terms,
            survival,
            measurements,
            readout: self.options.readout_error,
            clean_cum,
            checkpoints,
            memo: FaultMemo::default(),
        })
    }

    fn push_relaxation(
        &self,
        lut: &mut EventLut,
        step: u32,
        phys: Qubit,
        dense: Qubit,
        two_qubit: bool,
    ) {
        let t = if two_qubit {
            self.params.gate_time_2q_us
        } else {
            self.params.gate_time_1q_us
        };
        let p_bit = 0.5 * (1.0 - (-t / self.params.t1_us[phys.usize()]).exp());
        let p_phase = 0.5 * (1.0 - (-t / self.params.t2_us[phys.usize()]).exp());
        lut.push(step, p_bit, EventKind::BitFlip(dense));
        lut.push(step, p_phase, EventKind::PhaseFlip(dense));
    }
}

/// Builds a single-qubit unitary primitive from a symbolic gate.
fn unary(step: u32, gate: Gate) -> Prim {
    let (q, m) = fuse::gate_matrix(&gate).expect("single-qubit gate");
    Prim::unary(step, q, m)
}

/// A validated, fully lowered execution plan: fused gate stream, flat
/// noise-event lookup tables, baked readout probabilities, and the cached
/// coherent-only outcome distribution.
///
/// Owns all of its data (no borrows), so one compiled plan can be shared
/// by every slice of a parallel run. Produced by
/// [`NoisySimulator::compile`]; executed by [`CompiledCircuit::run_into`].
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    num_dense_qubits: u32,
    num_clbits: u32,
    /// Unfused step-tagged primitives (the slow path when a fired Pauli
    /// lands strictly inside a fused span).
    prims: Vec<Prim>,
    /// The fused fast-path stream.
    fused: Vec<FusedOp>,
    /// Stochastic error sites in step order.
    events: Vec<EventSite>,
    /// Flat outcome directory across all events.
    outcomes: Vec<OutcomeDesc>,
    /// Flat Pauli-term pool across all outcomes.
    pauli_terms: Vec<PauliTerm>,
    /// `survival[i] = Π_{j<i} (1 - p_j)`; length `events.len() + 1`. The
    /// per-slice LUT that skip sampling walks instead of drawing one
    /// uniform per event site per shot.
    survival: Vec<f64>,
    /// Measurement sites with readout-flip probabilities baked in.
    measurements: Vec<MeasSite>,
    /// Whether readout flips are applied (and their draws consumed).
    readout: bool,
    /// Cumulative probabilities of the coherent-only ("clean") state.
    clean_cum: Vec<f64>,
    /// Clean-trajectory snapshots in op order, taken by the clean pass.
    checkpoints: Vec<Checkpoint>,
    /// Cumulative distributions of single-outcome trajectories, shared by
    /// every slice and worker running this plan.
    memo: FaultMemo,
}

impl CompiledCircuit {
    /// Width of the dense (re-indexed) state vector in qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_dense_qubits
    }

    /// Width of the classical register outcomes are recorded under.
    pub fn num_clbits(&self) -> u32 {
        self.num_clbits
    }

    /// Number of stochastic error sites in the plan.
    pub fn num_event_sites(&self) -> usize {
        self.events.len()
    }

    /// Number of fused operations on the fast path (≤ the primitive
    /// count; the gap is what fusion saved per trajectory).
    pub fn num_fused_ops(&self) -> usize {
        self.fused.len()
    }

    /// Number of unfused primitives.
    pub fn num_prims(&self) -> usize {
        self.prims.len()
    }

    /// Runs `shots` trials with the given seed, accumulating outcomes into
    /// `counts`. Deterministic for a fixed `(plan, shots, seed)`;
    /// histograms produced this way are exactly what
    /// [`NoisySimulator::run`] returns for the same arguments.
    ///
    /// `scratch` provides the working buffers (state vector, fired-event
    /// list, dense histogram). After the buffers have grown to this plan's
    /// sizes — one warm shot suffices — the shot loop performs no heap
    /// allocation: reuse the same scratch across calls to stay in steady
    /// state. The plan's single-fault memo allocates each entry once, on
    /// the first shot that needs it; a repeat of a warmed run allocates
    /// nothing. Registers wider than 12 classical bits fall back from the
    /// dense histogram to direct `Counts` recording, which may allocate
    /// per newly seen outcome.
    ///
    /// Each call publishes how many of its shots took each trajectory path
    /// to `edm_qsim_trajectories_total{path=…}` once, at the end; the same
    /// numbers are readable from [`SimScratch::last_paths`].
    ///
    /// # Panics
    ///
    /// Panics if `counts` was created with a different classical-register
    /// width than the compiled circuit's.
    pub fn run_into(&self, shots: u64, seed: u64, scratch: &mut SimScratch, counts: &mut Counts) {
        self.run_shots(shots, seed, scratch, counts, false);
    }

    /// [`CompiledCircuit::run_into`] without checkpoints or memo: every
    /// faulty shot replays its whole trajectory from |0…0⟩ and samples it
    /// with a linear scan. The reference the bit-identity tests compare
    /// `run_into` against; not meant for production use.
    #[doc(hidden)]
    pub fn run_into_full_replay(
        &self,
        shots: u64,
        seed: u64,
        scratch: &mut SimScratch,
        counts: &mut Counts,
    ) {
        self.run_shots(shots, seed, scratch, counts, true);
    }

    fn run_shots(
        &self,
        shots: u64,
        seed: u64,
        scratch: &mut SimScratch,
        counts: &mut Counts,
        full_replay: bool,
    ) {
        assert_eq!(
            counts.num_clbits(),
            self.num_clbits,
            "counts width must match the compiled circuit"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dense = self.num_clbits <= DENSE_HIST_BITS;
        let hist_len = 1usize << self.num_clbits.min(DENSE_HIST_BITS);
        if dense && scratch.hist.len() < hist_len {
            scratch.hist.resize(hist_len, 0);
        }

        let mut paths = TrajectoryPaths::default();
        for _ in 0..shots {
            scratch.fired.clear();
            let fault = self.sample_events(&mut rng, &mut scratch.fired);
            let basis = match fault {
                Fault::None => {
                    paths.clean += 1;
                    sample_cumulative(&self.clean_cum, &mut rng)
                }
                _ if full_replay => {
                    paths.full_replay += 1;
                    self.run_trajectory_into(&scratch.fired, &mut scratch.amps);
                    sample_kernel(&scratch.amps, &mut rng)
                }
                _ => self.sample_faulty(fault, scratch, &mut rng, &mut paths),
            };
            let mut key = 0u64;
            for m in &self.measurements {
                let mut bit = (basis >> m.dense) & 1;
                if self.readout {
                    let flip_prob = if bit == 1 { m.p10 } else { m.p01 };
                    if rng.gen::<f64>() < flip_prob {
                        bit ^= 1;
                    }
                }
                key |= (bit as u64) << m.clbit;
            }
            if dense {
                scratch.hist[key as usize] += 1;
            } else {
                counts.record(key);
            }
        }

        if dense {
            for (outcome, slot) in scratch.hist[..hist_len].iter_mut().enumerate() {
                if *slot > 0 {
                    counts.record_n(outcome as u64, *slot);
                    *slot = 0;
                }
            }
        }
        paths.publish();
        scratch.paths = paths;
    }

    /// Samples the basis state of a shot in which at least one event
    /// fired: from the memo when exactly one memoized outcome fired,
    /// otherwise by replaying from the latest usable checkpoint (and
    /// filling the memo slot, if the outcome has one).
    ///
    /// Memo hits sample exactly like [`sample_kernel`] — the first `i`
    /// with `u < cum[i]` on the unscaled `u` — so both paths return the
    /// same index for the same draw.
    fn sample_faulty(
        &self,
        fault: Fault,
        scratch: &mut SimScratch,
        rng: &mut ChaCha8Rng,
        paths: &mut TrajectoryPaths,
    ) -> usize {
        let slot = match fault {
            Fault::Single(oi) => self.memo_slot(oi),
            _ => None,
        };
        if let Some(cum) = slot.and_then(OnceLock::get) {
            paths.memo_hit += 1;
            return memo_index(cum, rng.gen());
        }
        if self.resume_trajectory_into(&scratch.fired, &mut scratch.amps) {
            paths.resumed += 1;
        } else {
            paths.full_replay += 1;
        }
        if let Some(slot) = slot {
            slot.get_or_init(|| running_sums(&scratch.amps).collect());
        }
        sample_kernel(&scratch.amps, rng)
    }

    /// Draws this shot's fired-event set by skip sampling over the
    /// survival table, and reports whether none, one or several sites
    /// fired.
    ///
    /// With per-site firing probabilities `p_i` and prefix survival
    /// products `S_i = Π_{j<i}(1-p_j)`, the first site at or after cursor
    /// `k` to fire is distributed as `P(i) = (S_i/S_k)·p_i` with
    /// `P(none) = S_n/S_k`. One uniform draw `u` maps to
    /// `w = (1-u)·S_k`; "no further site fires" iff `w < S_n`, otherwise
    /// the firing site is the smallest `i` with `S_{i+1} ≤ w` (binary
    /// search — `S` is non-increasing). Repeating from `k = i+1` samples
    /// the exact joint distribution of the independent Bernoulli sites in
    /// `O((1 + #fired)·log n)` instead of `n` draws.
    fn sample_events(&self, rng: &mut ChaCha8Rng, fired: &mut Vec<FiredPauli>) -> Fault {
        let n = self.events.len();
        let mut fault = Fault::None;
        if n == 0 {
            return fault;
        }
        let mut k = 0usize;
        loop {
            let u: f64 = rng.gen();
            let w = (1.0 - u) * self.survival[k];
            if w < self.survival[n] {
                return fault;
            }
            let i = k + self.survival[k + 1..=n].partition_point(|&t| t > w);
            debug_assert!(i < n);
            let site = self.events[i];
            let oi = if site.outcome_count > 1 {
                site.outcome_start + rng.gen_range(0..site.outcome_count)
            } else {
                site.outcome_start
            };
            fault = match fault {
                Fault::None => Fault::Single(oi),
                _ => Fault::Multiple,
            };
            let od = self.outcomes[oi as usize];
            let terms = &self.pauli_terms[od.start as usize..od.start as usize + od.len as usize];
            for t in terms {
                fired.push(FiredPauli {
                    step: site.step,
                    bit: t.bit,
                    pauli: t.pauli,
                });
            }
            k = i + 1;
            if k == n {
                return fault;
            }
        }
    }

    /// Runs one trajectory with the given fired Paulis (step-sorted) into
    /// `amps` from |0…0⟩, reusing its capacity.
    fn run_trajectory_into(&self, fired: &[FiredPauli], amps: &mut Vec<C64>) {
        reset_zero(amps, self.num_dense_qubits);
        self.replay_from(0, fired, amps);
    }

    /// Runs one trajectory with the given non-empty fired Paulis
    /// (step-sorted) into `amps`, starting from the latest checkpoint
    /// whose clean prefix no fired Pauli touches. Returns whether a
    /// checkpoint was used (false: replayed from |0…0⟩).
    ///
    /// Checkpoint `j` holds the state before `fused[j]`. The full replay
    /// applies `fused[..j]` unchanged iff every fired step is at or after
    /// `fused[j-1].last_step` (`last_step` is non-decreasing), and then
    /// continues exactly as [`Self::replay_from`] does from `j` — so the
    /// resumed state is bit-equal to the full replay.
    fn resume_trajectory_into(&self, fired: &[FiredPauli], amps: &mut Vec<C64>) -> bool {
        match self.checkpoint_before(fired[0].step) {
            Some(cp) => {
                amps.clear();
                amps.extend_from_slice(&cp.amps);
                self.replay_from(cp.op, fired, amps);
                true
            }
            None => {
                self.run_trajectory_into(fired, amps);
                false
            }
        }
    }

    /// The latest checkpoint a trajectory whose first fault is at `step`
    /// may resume from, if any.
    fn checkpoint_before(&self, step: u32) -> Option<&Checkpoint> {
        let usable = self.checkpoints.partition_point(|c| c.min_step <= step);
        usable.checked_sub(1).map(|j| &self.checkpoints[j])
    }

    /// Applies `fused[start..]` to `amps` with the fired Paulis (all at or
    /// after `fused[start-1].last_step`) interleaved.
    ///
    /// Fast path: walk the fused stream, applying pending Paulis whose
    /// step precedes each op's span. A Pauli landing strictly inside a
    /// fused span `[first_step, last_step)` forces that op to replay its
    /// unfused primitive range with exact step interleaving; Paulis at a
    /// step apply after *all* primitives of that step, exactly as the
    /// unfused executor ordered them.
    fn replay_from(&self, start: usize, fired: &[FiredPauli], amps: &mut [C64]) {
        let mut fi = 0;
        for f in &self.fused[start..] {
            while fi < fired.len() && fired[fi].step < f.first_step {
                apply_pauli(amps, fired[fi]);
                fi += 1;
            }
            if fi < fired.len() && fired[fi].step < f.last_step {
                for p in &self.prims[f.prims.clone()] {
                    while fi < fired.len() && fired[fi].step < p.step {
                        apply_pauli(amps, fired[fi]);
                        fi += 1;
                    }
                    apply_prim(amps, &p.op);
                }
            } else {
                apply_prim(amps, &f.op);
            }
        }
        while fi < fired.len() {
            apply_pauli(amps, fired[fi]);
            fi += 1;
        }
    }

    /// The memo slot of flat outcome `oi`, if the budget admitted it.
    /// Allocates the memo's slots on first use.
    ///
    /// The first outcomes in flat order, which is step order, get the
    /// slots the budget holds: the earliest faults, whose replays resume
    /// from the earliest checkpoints and so cost the most.
    fn memo_slot(&self, oi: u32) -> Option<&MemoSlot> {
        let slots = self.memo.slots.get_or_init(|| {
            let entry_bytes = (std::mem::size_of::<f64>() << self.num_dense_qubits)
                + std::mem::size_of::<MemoSlot>();
            let capacity = (MEMO_BUDGET_BYTES / entry_bytes).min(self.outcomes.len());
            (0..capacity).map(|_| MemoSlot::new()).collect()
        });
        slots.get(oi as usize)
    }

    /// The single-fault memo's current size (all zero until the first
    /// single-fault shot allocates it).
    #[doc(hidden)]
    pub fn memo_stats(&self) -> MemoStats {
        let Some(slots) = self.memo.slots.get() else {
            return MemoStats::default();
        };
        let entries = slots.iter().filter_map(OnceLock::get);
        MemoStats {
            slots: slots.len(),
            filled: entries.clone().count(),
            bytes: slots.len() * std::mem::size_of::<MemoSlot>()
                + entries
                    .map(|cum| cum.len() * std::mem::size_of::<f64>())
                    .sum::<usize>(),
        }
    }

    /// The coherent-only ("clean") trajectory as a state vector — the
    /// state every no-event shot samples from.
    pub fn clean_statevector(&self) -> StateVector {
        let mut amps = Vec::new();
        self.run_trajectory_into(&[], &mut amps);
        StateVector::from_amplitudes(self.num_dense_qubits, amps)
    }
}

/// Running sums of `|amp|²` in index order — the partial sums
/// [`sample_kernel`] compares its draw against, bit for bit.
fn running_sums(amps: &[C64]) -> impl ExactSizeIterator<Item = f64> + '_ {
    let mut acc = 0.0;
    amps.iter().map(move |a| {
        acc += a.norm_sqr();
        acc
    })
}

/// The index [`sample_kernel`] returns for draw `u` on the state whose
/// [`running_sums`] are `cum`: the first `i` with `u < cum[i]`, else the
/// last. `u` is *not* rescaled by `cum.last()` as [`sample_cumulative`]
/// does — that would move every draw whose state norm is not exactly 1.
fn memo_index(cum: &[f64], u: f64) -> usize {
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

/// Runs the clean (no-event) trajectory from |0…0⟩, snapshotting the state
/// before every `stride`-th fused op. Returns the final amplitudes and the
/// snapshots; the op sequence is exactly a replay with no fired Paulis.
fn clean_pass(fused: &[FusedOp], num_qubits: u32) -> (Vec<C64>, Vec<Checkpoint>) {
    let stride = checkpoint_stride(fused.len(), num_qubits);
    let mut amps = Vec::new();
    reset_zero(&mut amps, num_qubits);
    let mut checkpoints = Vec::new();
    for (j, f) in fused.iter().enumerate() {
        if j > 0 && j % stride == 0 {
            checkpoints.push(Checkpoint {
                op: j,
                min_step: fused[j - 1].last_step,
                amps: amps.as_slice().into(),
            });
        }
        apply_prim(&mut amps, &f.op);
    }
    (amps, checkpoints)
}

/// Fused ops between checkpoints: about `√ops`, widened so the snapshots
/// of a `num_qubits`-wide state fit [`CHECKPOINT_BUDGET_BYTES`].
fn checkpoint_stride(ops: usize, num_qubits: u32) -> usize {
    let state_bytes = 1usize.checked_shl(num_qubits).map_or(usize::MAX, |dim| {
        dim.saturating_mul(std::mem::size_of::<C64>())
    });
    let max_snapshots = CHECKPOINT_BUDGET_BYTES / state_bytes;
    ops.isqrt().max(ops.div_ceil(max_snapshots + 1)).max(1)
}

/// The clean trajectory's state before fused op `op`.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Index of the first fused op the snapshot has not applied.
    op: usize,
    /// `fused[op - 1].last_step`: shots whose first fired step is at or
    /// after it may resume here.
    min_step: u32,
    amps: Box<[C64]>,
}

/// What [`CompiledCircuit::sample_events`] drew for one shot.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// No site fired.
    None,
    /// Exactly one site fired, with this flat outcome index.
    Single(u32),
    /// Two or more sites fired.
    Multiple,
}

/// One memoized cumulative distribution, filled by the first shot that
/// replays its outcome.
type MemoSlot = OnceLock<Box<[f64]>>;

/// The single-fault memo: allocated on first use, then shared read-mostly
/// by every worker running the plan.
#[derive(Default)]
struct FaultMemo {
    /// Slot `oi` memoizes flat outcome `oi`; outcomes past the budget's
    /// capacity have none.
    slots: OnceLock<Box<[MemoSlot]>>,
}

impl Clone for FaultMemo {
    /// A clone starts with an empty memo; entries are a cache, not state.
    fn clone(&self) -> Self {
        FaultMemo::default()
    }
}

impl std::fmt::Debug for FaultMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.get().map_or(0, |slots| {
            slots.iter().filter(|s| s.get().is_some()).count()
        });
        f.debug_struct("FaultMemo")
            .field("filled", &filled)
            .finish()
    }
}

/// Size of a plan's single-fault memo; see [`CompiledCircuit::memo_stats`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Outcomes admitted to a slot (the budget's capacity).
    pub slots: usize,
    /// Slots filled so far.
    pub filled: usize,
    /// Bytes held: the slots plus their filled entries.
    pub bytes: usize,
}

/// How many shots of one [`CompiledCircuit::run_into`] call took each
/// trajectory path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrajectoryPaths {
    /// No event fired: sampled from the cached clean distribution.
    pub clean: u64,
    /// Exactly one memoized outcome fired: sampled from the memo.
    pub memo_hit: u64,
    /// Replayed from a clean-prefix checkpoint.
    pub resumed: u64,
    /// Replayed from |0…0⟩.
    pub full_replay: u64,
}

impl TrajectoryPaths {
    /// Total shots counted.
    pub fn shots(&self) -> u64 {
        self.clean + self.memo_hit + self.resumed + self.full_replay
    }

    /// Adds the counts to `edm_qsim_trajectories_total{path=…}`.
    fn publish(&self) {
        static SERIES: OnceLock<[&'static Counter; 4]> = OnceLock::new();
        if !edm_telemetry::enabled() {
            return;
        }
        let series = SERIES.get_or_init(|| {
            ["clean", "memo_hit", "resumed", "full_replay"].map(|path| {
                edm_telemetry::metrics::registry().counter_with(
                    "edm_qsim_trajectories_total",
                    "Simulated shots by trajectory path",
                    &[("path", path)],
                )
            })
        });
        let counts = [self.clean, self.memo_hit, self.resumed, self.full_replay];
        for (counter, n) in series.iter().zip(counts) {
            counter.add(n);
        }
    }
}

/// Reusable per-thread working buffers for [`CompiledCircuit::run_into`].
///
/// Holds the trajectory state vector, the fired-event list, and the dense
/// outcome histogram. Buffers only ever grow; once warm for a given plan
/// size, the shot loop allocates nothing. One scratch serves any sequence
/// of plans (workers keep a thread-local instance across slices and
/// batches).
#[derive(Debug, Default)]
pub struct SimScratch {
    amps: Vec<C64>,
    fired: Vec<FiredPauli>,
    hist: Vec<u64>,
    paths: TrajectoryPaths,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trajectory paths of the last run executed with this scratch.
    pub fn last_paths(&self) -> TrajectoryPaths {
        self.paths
    }
}

fn apply_prim(amps: &mut [C64], op: &fuse::PrimOp) {
    match *op {
        fuse::PrimOp::Unary { qubit, m } => {
            apply_1q_kernel(amps, 1usize << qubit.index(), &m);
        }
        fuse::PrimOp::Cx { control, target } => {
            apply_cx_kernel(amps, 1usize << control.index(), 1usize << target.index());
        }
    }
}

fn apply_pauli(amps: &mut [C64], fp: FiredPauli) {
    match fp.pauli {
        Pauli::X => apply_x_kernel(amps, fp.bit),
        Pauli::Y => apply_y_kernel(amps, fp.bit),
        Pauli::Z => apply_z_kernel(amps, fp.bit),
    }
}

/// One stochastic error site: its step and the slice of the flat outcome
/// directory it samples from (uniformly) when it fires.
#[derive(Debug, Clone, Copy)]
struct EventSite {
    step: u32,
    outcome_start: u32,
    outcome_count: u32,
}

/// One possible outcome of an event: a run of [`PauliTerm`]s in the flat
/// pool (at most two — the channels here are 1- and 2-qubit Paulis).
#[derive(Debug, Clone, Copy)]
struct OutcomeDesc {
    start: u32,
    len: u8,
}

/// A single Pauli factor, with the qubit pre-lowered to its index mask.
#[derive(Debug, Clone, Copy)]
struct PauliTerm {
    bit: usize,
    pauli: Pauli,
}

/// A measurement site with its readout-flip probabilities baked in.
#[derive(Debug, Clone, Copy)]
struct MeasSite {
    dense: u32,
    clbit: u32,
    p01: f64,
    p10: f64,
}

/// A Pauli drawn for this shot, pre-expanded to (step, qubit mask, kind).
#[derive(Debug, Clone, Copy)]
struct FiredPauli {
    step: u32,
    bit: usize,
    pauli: Pauli,
}

/// Accumulates the flat event lookup tables during compilation.
#[derive(Debug, Default)]
struct EventLut {
    events: Vec<EventSite>,
    probs: Vec<f64>,
    outcomes: Vec<OutcomeDesc>,
    pauli_terms: Vec<PauliTerm>,
}

impl EventLut {
    /// Appends an event site, flattening its outcome table. Zero-probability
    /// sites are dropped (they can never fire) and probabilities are clamped
    /// to [`MAX_EVENT_PROB`].
    fn push(&mut self, step: u32, prob: f64, kind: EventKind) {
        let p = prob.clamp(0.0, MAX_EVENT_PROB);
        if p <= 0.0 {
            return;
        }
        let outcome_start = self.outcomes.len() as u32;
        for outcome in kind.outcome_table() {
            let start = self.pauli_terms.len() as u32;
            for (q, pauli) in outcome {
                self.pauli_terms.push(PauliTerm {
                    bit: 1usize << q.index(),
                    pauli,
                });
            }
            self.outcomes.push(OutcomeDesc {
                start,
                len: (self.pauli_terms.len() as u32 - start) as u8,
            });
        }
        self.events.push(EventSite {
            step,
            outcome_start,
            outcome_count: self.outcomes.len() as u32 - outcome_start,
        });
        self.probs.push(p);
    }

    /// The prefix survival-product table over the collected sites.
    fn survival(&self) -> Vec<f64> {
        let mut table = Vec::with_capacity(self.probs.len() + 1);
        let mut acc = 1.0f64;
        table.push(acc);
        for &p in &self.probs {
            acc *= 1.0 - p;
            table.push(acc);
        }
        table
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Single-qubit depolarizing: one of X/Y/Z uniformly.
    Depol1(Qubit),
    /// Two-qubit depolarizing: one of the 15 non-identity Pauli pairs.
    Depol2(Qubit, Qubit),
    /// T1-style bit flip.
    BitFlip(Qubit),
    /// T2-style phase flip.
    PhaseFlip(Qubit),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pauli {
    X,
    Y,
    Z,
}

const PAULIS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

impl EventKind {
    /// Enumerates every Pauli string the channel can apply, in a fixed
    /// order (uniformly likely once the event fires).
    fn outcome_table(self) -> Vec<Vec<(Qubit, Pauli)>> {
        match self {
            EventKind::Depol1(q) => PAULIS.iter().map(|&p| vec![(q, p)]).collect(),
            EventKind::Depol2(a, b) => {
                // The 15 non-identity pairs: index 1..16 over base 4.
                (1..16usize)
                    .map(|idx| {
                        let (pa, pb) = (idx / 4, idx % 4);
                        let mut out = Vec::with_capacity(2);
                        if pa > 0 {
                            out.push((a, PAULIS[pa - 1]));
                        }
                        if pb > 0 {
                            out.push((b, PAULIS[pb - 1]));
                        }
                        out
                    })
                    .collect()
            }
            EventKind::BitFlip(q) => vec![vec![(q, Pauli::X)]],
            EventKind::PhaseFlip(q) => vec![vec![(q, Pauli::Z)]],
        }
    }
}

fn sample_cumulative<R: Rng + ?Sized>(cum: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen::<f64>() * cum.last().copied().unwrap_or(1.0);
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdevice::presets;

    fn device() -> DeviceModel {
        DeviceModel::synthesize(presets::melbourne14(), 42)
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let a = sim.run(&bell(), 500, 1).unwrap();
        let b = sim.run(&bell(), 500, 1).unwrap();
        let c = sim.run(&bell(), 500, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn run_equals_compile_plus_run_into() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let direct = sim.run(&bell(), 1500, 11).unwrap();
        let plan = sim.compile(&bell()).unwrap();
        let mut scratch = SimScratch::new();
        let mut counts = Counts::new(plan.num_clbits());
        plan.run_into(1500, 11, &mut scratch, &mut counts);
        assert_eq!(direct, counts);
    }

    #[test]
    fn compiled_plan_is_reusable_with_shared_scratch() {
        // One plan + one scratch across many seeds must match fresh
        // runs bit-for-bit: nothing may leak between calls.
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let plan = sim.compile(&bell()).unwrap();
        let mut scratch = SimScratch::new();
        for seed in [3u64, 17, 3, 99] {
            let mut counts = Counts::new(plan.num_clbits());
            plan.run_into(700, seed, &mut scratch, &mut counts);
            assert_eq!(counts, sim.run(&bell(), 700, seed).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn fusion_collapses_single_qubit_runs() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(1, 1);
        c.h(0).t(0).s(0).h(0).measure(0, 0);
        let plan = sim.compile(&c).unwrap();
        assert_eq!(plan.num_prims(), 4);
        assert_eq!(plan.num_fused_ops(), 1, "adjacent 1q run must fuse");
    }

    #[test]
    fn fused_rotation_chain_matches_ideal_outcome() {
        // Six Rx(π/6) compose to Rx(π) = X up to phase: the fused pipeline
        // must land every noiseless shot on |1>.
        let d = device();
        let sim = NoisySimulator::from_device(&d).with_options(SimOptions::none());
        let mut c = Circuit::new(1, 1);
        for _ in 0..6 {
            c.rx(0, std::f64::consts::PI / 6.0);
        }
        c.measure(0, 0);
        let counts = sim.run(&c, 1000, 5).unwrap();
        assert_eq!(counts.get(1), 1000);
    }

    #[test]
    fn noiseless_options_reproduce_ideal_distribution() {
        let d = device();
        let sim = NoisySimulator::from_device(&d).with_options(SimOptions::none());
        let counts = sim.run(&bell(), 4000, 3).unwrap();
        // Only 00 and 11 may appear.
        assert_eq!(counts.get(0b01), 0);
        assert_eq!(counts.get(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 {p00}");
    }

    #[test]
    fn noisy_run_pollutes_other_outcomes() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let counts = sim.run(&bell(), 4000, 4).unwrap();
        // With ~6% readout error per bit some 01/10 outcomes must appear.
        assert!(counts.get(0b01) + counts.get(0b10) > 0);
        // But the Bell pair should still dominate.
        assert!(counts.probability(0b00) + counts.probability(0b11) > 0.6);
    }

    #[test]
    fn event_firing_rate_matches_site_probability() {
        // One X gate with only stochastic gate noise: the depolarizing
        // site fires with the calibrated 1q error rate. Two-thirds of
        // firings (X or Y) flip the measured bit... but on |1> an X/Y
        // lands on |0>: p(read 0) ≈ (2/3)·p_err. Checks the skip-sampling
        // scan against the direct Bernoulli definition.
        let d = device();
        let opts = SimOptions {
            stochastic_gate_noise: true,
            decoherence: false,
            coherent_errors: false,
            crosstalk: false,
            readout_error: false,
        };
        let sim = NoisySimulator::from_device(&d).with_options(opts);
        let mut c = Circuit::new(1, 1);
        c.x(0).measure(0, 0);
        let shots = 200_000;
        let counts = sim.run(&c, shots, 13).unwrap();
        let p_err = d.truth().gate_1q_err[0];
        let expect = 2.0 / 3.0 * p_err;
        let got = counts.probability(0);
        let sigma = (expect * (1.0 - expect) / shots as f64).sqrt();
        assert!(
            (got - expect).abs() < 5.0 * sigma + 2e-4,
            "flip rate {got} vs expected {expect}"
        );
    }

    #[test]
    fn wide_circuit_rejected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let c = Circuit::new(20, 0);
        assert_eq!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::TooManyQubits {
                circuit: 20,
                device: 14
            }
        );
    }

    #[test]
    fn non_basis_gate_rejected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(3, 0);
        c.ccx(0, 1, 2);
        assert_eq!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::UnsupportedGate { name: "ccx" }
        );
        let mut c = Circuit::new(2, 0);
        c.swap(0, 1);
        assert_eq!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::UnsupportedGate { name: "swap" }
        );
    }

    #[test]
    fn uncoupled_cx_rejected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(14, 0);
        c.cx(0, 7); // opposite corners of melbourne
        assert_eq!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::UncoupledQubits { a: 0, b: 7 }
        );
    }

    #[test]
    fn readout_error_flips_deterministic_outcome() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        // |1> on a single qubit: asymmetric readout must flip some shots.
        let mut c = Circuit::new(1, 1);
        c.x(0).measure(0, 0);
        let counts = sim.run(&c, 8000, 5).unwrap();
        let p_wrong = counts.probability(0);
        let expected = d.truth().readout_p10[0];
        assert!(
            (p_wrong - expected).abs() < 0.03,
            "p_wrong {p_wrong} vs p10 {expected}"
        );
    }

    #[test]
    fn readout_asymmetry_is_visible() {
        let d = device();
        let sim = NoisySimulator::from_device(&d).with_options(SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: false,
            crosstalk: false,
            readout_error: true,
        });
        let mut prep0 = Circuit::new(1, 1);
        prep0.measure(0, 0);
        let mut prep1 = Circuit::new(1, 1);
        prep1.x(0).measure(0, 0);
        let c0 = sim.run(&prep0, 20_000, 6).unwrap();
        let c1 = sim.run(&prep1, 20_000, 7).unwrap();
        let err0 = c0.probability(1);
        let err1 = c1.probability(0);
        assert!(
            err1 > 1.5 * err0,
            "reading |1> (err {err1}) should fail more than |0> (err {err0})"
        );
    }

    #[test]
    fn coherent_errors_are_reproducible_across_seeds() {
        // With only coherent errors (deterministic), two different seeds must
        // produce statistically identical distributions.
        let d = device();
        let opts = SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: true,
            crosstalk: true,
            readout_error: false,
        };
        let sim = NoisySimulator::from_device(&d).with_options(opts);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).h(0).h(1).measure_all();
        let a = sim.run(&c, 20_000, 1).unwrap();
        let b = sim.run(&c, 20_000, 99).unwrap();
        for key in 0..4u64 {
            assert!(
                (a.probability(key) - b.probability(key)).abs() < 0.02,
                "key {key}: {} vs {}",
                a.probability(key),
                b.probability(key)
            );
        }
    }

    #[test]
    fn different_edges_make_different_mistakes() {
        // The same logical circuit placed on two different edges must see
        // different coherent tilts — the core premise of EDM.
        let d = device();
        let opts = SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: true,
            crosstalk: false,
            readout_error: false,
        };
        let sim = NoisySimulator::from_device(&d).with_options(opts);
        // Phase-sensitive circuit: H, CX, T, H on both -> coherent angles
        // leak into outcome probabilities. The T gates bias the phase to
        // π/4 + θ so outcomes are monotone in θ near zero — without them
        // the probabilities are even in θ and two edges whose angles have
        // equal magnitude but opposite sign would be indistinguishable.
        let build = |a: u32, b: u32| {
            let n = a.max(b) + 1;
            let mut c = Circuit::new(n, 2);
            c.h(a).h(b).cx(a, b).t(a).t(b).h(a).h(b);
            c.measure(a, 0).measure(b, 1);
            c
        };
        let c01 = sim.run(&build(0, 1), 30_000, 1).unwrap();
        let c45 = sim.run(&build(4, 5), 30_000, 1).unwrap();
        let diff: f64 = (0..4u64)
            .map(|k| (c01.probability(k) - c45.probability(k)).abs())
            .sum();
        assert!(diff > 0.02, "distributions unexpectedly similar: {diff}");
    }

    #[test]
    fn mid_circuit_measurement_rejected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(1, 1);
        c.measure(0, 0).x(0);
        assert!(matches!(
            sim.run(&c, 1, 0).unwrap_err(),
            SimError::MidCircuitMeasurement { .. }
        ));
    }

    #[test]
    fn shot_count_respected() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let counts = sim.run(&bell(), 777, 0).unwrap();
        assert_eq!(counts.shots(), 777);
    }

    #[test]
    fn zero_shots_gives_empty_counts() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let counts = sim.run(&bell(), 0, 0).unwrap();
        assert_eq!(counts.shots(), 0);
    }

    #[test]
    fn iid_only_matches_most_frequent_for_easy_circuit() {
        let d = device();
        let sim = NoisySimulator::from_device(&d).with_options(SimOptions::iid_only());
        let mut c = Circuit::new(3, 3);
        c.x(0).x(2).measure_all();
        let counts = sim.run(&c, 2000, 9).unwrap();
        assert_eq!(counts.most_frequent(), Some(0b101));
    }

    #[test]
    fn dense_reindexing_handles_high_physical_qubits() {
        // A circuit using only high-numbered physical qubits must still run
        // in a compact state vector.
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let mut c = Circuit::new(14, 2);
        c.h(9).cx(9, 10).measure(9, 0).measure(10, 1);
        let counts = sim.run(&c, 1000, 3).unwrap();
        assert_eq!(counts.shots(), 1000);
        assert!(counts.probability(0b00) + counts.probability(0b11) > 0.6);
    }

    #[test]
    fn survival_table_matches_event_probabilities() {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let plan = sim.compile(&bell()).unwrap();
        let n = plan.num_event_sites();
        assert!(n > 0, "a noisy bell circuit must have error sites");
        assert_eq!(plan.survival.len(), n + 1);
        assert_eq!(plan.survival[0], 1.0);
        for w in plan.survival.windows(2) {
            assert!(
                w[1] <= w[0] && w[1] > 0.0,
                "survival must decrease, stay positive"
            );
        }
    }

    /// Rotation chains between CXs: fused spans with interior steps,
    /// several checkpoints, and two-qubit depolarizing sites.
    fn layered() -> Circuit {
        let mut c = Circuit::new(3, 3);
        for layer in 0..3 {
            c.rx(0, 0.3).rz(0, 0.2 + 0.1 * layer as f64).h(1).t(1);
            c.cx(0, 1).ry(2, 0.4).s(2).cx(1, 2);
        }
        c.measure_all();
        c
    }

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// The Paulis `sample_events` pushes when `site` fires outcome `oi`.
    fn fired_of(plan: &CompiledCircuit, site: EventSite, oi: u32) -> Vec<FiredPauli> {
        let od = plan.outcomes[oi as usize];
        plan.pauli_terms[od.start as usize..od.start as usize + od.len as usize]
            .iter()
            .map(|t| FiredPauli {
                step: site.step,
                bit: t.bit,
                pauli: t.pauli,
            })
            .collect()
    }

    #[test]
    fn checkpoint_resume_is_bit_equal_to_full_replay() {
        let d = device();
        let plan = NoisySimulator::from_device(&d).compile(&layered()).unwrap();
        assert!(plan.checkpoints.len() >= 2, "{:?}", plan.checkpoints.len());
        let (mut full, mut resumed) = (Vec::new(), Vec::new());
        let (mut used, mut at_boundary, mut inside_span, mut two_term) = (0, 0, 0, 0);
        for (i, &site) in plan.events.iter().enumerate() {
            at_boundary += plan.checkpoints.iter().any(|c| c.min_step == site.step) as usize;
            inside_span += plan
                .fused
                .iter()
                .any(|f| f.first_step <= site.step && site.step < f.last_step)
                as usize;
            for oi in site.outcome_start..site.outcome_start + site.outcome_count {
                let single = fired_of(&plan, site, oi);
                two_term += (single.len() == 2) as usize;
                // Alone, and followed by a later site's fault.
                let mut pair = single.clone();
                if let Some(&later) = plan.events.get(i + 7) {
                    pair.extend(fired_of(&plan, later, later.outcome_start));
                }
                for fired in [single, pair] {
                    plan.run_trajectory_into(&fired, &mut full);
                    used += plan.resume_trajectory_into(&fired, &mut resumed) as usize;
                    assert!(bits(&full) == bits(&resumed), "site {i}, outcome {oi}");
                }
            }
        }
        assert!(used > 0, "no fault resumed from a checkpoint");
        assert!(at_boundary > 0, "no fault at a checkpoint boundary");
        assert!(inside_span > 0, "no fault inside a fused span");
        assert!(two_term > 0, "no two-term outcome");
    }

    #[test]
    fn memo_index_matches_sample_kernel_scan() {
        // Norm below 1 and trailing zeros: draws past the last running sum
        // fall back to the last index in both.
        let amps = [
            C64::new(0.6, 0.0),
            C64::new(0.0, 0.0),
            C64::new(0.3, -0.5),
            C64::new(0.0, 0.4),
            C64::new(0.0, 0.0),
        ];
        let cum: Vec<f64> = running_sums(&amps).collect();
        let mut probes = vec![0.0, 0.5, 1.0 - f64::EPSILON];
        for &c in &cum {
            probes.extend([c, c.next_down(), c.next_up()]);
        }
        for u in probes {
            assert_eq!(
                memo_index(&cum, u),
                crate::statevector::scan_index(&amps, u),
                "u = {u}"
            );
        }
        // The `sample_cumulative` trap: rescaling the draw by the total
        // moves it whenever the total is not exactly 1.
        let total = *cum.last().unwrap();
        assert!(total < 1.0);
        assert_ne!(memo_index(&cum, 0.99), memo_index(&cum, 0.99 * total));
    }

    #[test]
    fn memo_shared_across_threads_matches_full_replay() {
        let d = device();
        let plan = NoisySimulator::from_device(&d).compile(&layered()).unwrap();
        let run = |seed: u64, full_replay: bool| {
            let mut counts = Counts::new(plan.num_clbits());
            let mut scratch = SimScratch::new();
            if full_replay {
                plan.run_into_full_replay(256, seed, &mut scratch, &mut counts);
            } else {
                plan.run_into(256, seed, &mut scratch, &mut counts);
            }
            counts
        };
        let reference: Vec<Counts> = (0..4).map(|seed| run(seed, true)).collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|seed| scope.spawn(move || run(seed, false)))
                .collect();
            for (worker, expected) in workers.into_iter().zip(&reference) {
                assert_eq!(&worker.join().unwrap(), expected);
            }
        });
        assert!(plan.memo_stats().filled > 0);
    }

    #[test]
    fn clean_statevector_matches_trajectory() {
        let d = device();
        let opts = SimOptions {
            stochastic_gate_noise: false,
            decoherence: false,
            coherent_errors: true,
            crosstalk: true,
            readout_error: false,
        };
        let sim = NoisySimulator::from_device(&d).with_options(opts);
        let plan = sim.compile(&bell()).unwrap();
        let sv = plan.clean_statevector();
        assert_eq!(sv.num_qubits(), 2);
        assert!((sv.norm() - 1.0).abs() < 1e-9);
        // clean_cum is the cumulative of exactly this state.
        let probs = sv.probabilities();
        let mut acc = 0.0;
        for (p, &c) in probs.iter().zip(plan.clean_cum.iter()) {
            acc += p;
            assert!((acc - c).abs() < 1e-12);
        }
    }
}
