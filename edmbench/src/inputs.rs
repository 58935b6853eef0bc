//! Seeded input generation. The program under test sees only what these
//! functions produce: QASM text, shot budgets and job seeds.

use qdevice::SynthesisProfile;

/// SplitMix64: a tiny, well-mixed generator, so the same `--seed` always
/// yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of a run.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One circuit as the program receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitInput {
    /// Table-1 name (`bv-6`, `qaoa-5`, ...).
    pub name: &'static str,
    /// OpenQASM 2.0 text.
    pub qasm: String,
    /// The noise-free answer, used only to score the output.
    pub correct: u64,
}

fn to_inputs(benchmarks: Vec<qbench::registry::Benchmark>) -> Vec<CircuitInput> {
    benchmarks
        .into_iter()
        .map(|b| CircuitInput {
            name: b.name,
            qasm: qcir::qasm::to_qasm(&b.circuit),
            correct: b.correct,
        })
        .collect()
}

/// The paper's six IST-suite circuits (BV, QAOA, greycode).
pub fn ist_suite() -> Vec<CircuitInput> {
    to_inputs(qbench::registry::ist_suite())
}

/// All nine Table-1 circuits.
pub fn table1() -> Vec<CircuitInput> {
    to_inputs(qbench::registry::all())
}

/// The paper's trial budget per experiment.
pub const PAPER_SHOTS: u64 = 16_384;

/// Shots per serving job: small, so serving overhead dominates.
pub const SERVE_SHOTS: u64 = 64;

/// Device seed of the paper-regime melbourne14 used by the figure
/// binaries.
pub const PAPER_DEVICE_SEED: u64 = 102;

/// Device seed of the default three-device fleet.
pub const FLEET_DEVICE_SEED: u64 = 42;

/// The noise profile that puts a synthetic melbourne14 in the paper's
/// operating regime (low PST, IST around 1 for BV-6); the same values the
/// figure binaries use.
pub fn paper_profile() -> SynthesisProfile {
    SynthesisProfile {
        readout_median: 0.07,
        readout_sigma: 0.7,
        readout_asymmetry: 1.6,
        num_bad_readout_qubits: 2,
        bad_readout_err: 0.40,
        gate_1q_median: 0.002,
        gate_1q_sigma: 0.4,
        cx_median: 0.045,
        cx_sigma: 0.8,
        t1_mean_us: 50.0,
        t1_sd_us: 10.0,
        t2_mean_us: 30.0,
        t2_sd_us: 8.0,
        coherent_max_angle: 0.9,
        crosstalk_max_angle: 0.45,
    }
}

/// Input streams, so adding draws to one never shifts another.
const RUN_SEEDS: u64 = 1;
const HOT_JOBS: u64 = 2;
const COLD_JOBS: u64 = 3;
const SAMPLES: u64 = 4;

/// One run seed per circuit of `ist-direct`.
pub fn ist_run_seeds(seed: u64, circuits: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, RUN_SEEDS);
    (0..circuits).map(|_| rng.next_u64()).collect()
}

/// The `fleet-hot` job stream: `(circuit index, job seed)` pairs.
pub fn hot_jobs(seed: u64, circuits: usize, count: usize) -> Vec<(usize, u64)> {
    let mut rng = Rng::new(seed, HOT_JOBS);
    (0..count)
        .map(|_| (rng.below(circuits), rng.next_u64()))
        .collect()
}

/// Job seeds of one `fleet-cold` round, one per circuit.
pub fn cold_round_seeds(seed: u64, round: u64, circuits: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0x2545_F491_4F6C_DD1D), COLD_JOBS);
    (0..circuits).map(|_| rng.next_u64()).collect()
}

/// `count` distinct indices below `n`, for checking a sample of answers.
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, SAMPLES);
    let mut picked = Vec::new();
    while picked.len() < count.min(n) {
        let i = rng.below(n);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(ist_suite(), ist_suite());
        assert_eq!(table1(), table1());
        assert_eq!(ist_run_seeds(7, 6), ist_run_seeds(7, 6));
        assert_eq!(hot_jobs(7, 6, 500), hot_jobs(7, 6, 500));
        assert_eq!(cold_round_seeds(7, 3, 9), cold_round_seeds(7, 3, 9));
        assert_eq!(sample_indices(7, 50, 6), sample_indices(7, 50, 6));
    }

    #[test]
    fn different_seeds_and_rounds_differ() {
        assert_ne!(ist_run_seeds(7, 6), ist_run_seeds(8, 6));
        assert_ne!(hot_jobs(7, 6, 50), hot_jobs(8, 6, 50));
        assert_ne!(cold_round_seeds(7, 0, 9), cold_round_seeds(7, 1, 9));
    }

    #[test]
    fn generated_qasm_parses_back_to_the_registry_circuits() {
        for (input, bench) in table1().iter().zip(qbench::registry::all()) {
            let parsed = qcir::qasm::parse(&input.qasm).expect("generated QASM parses");
            assert_eq!(
                parsed.fingerprint(),
                bench.circuit.fingerprint(),
                "{}",
                input.name
            );
        }
    }

    #[test]
    fn hot_jobs_cover_every_circuit() {
        let jobs = hot_jobs(1, 6, 600);
        for c in 0..6 {
            assert!(jobs.iter().any(|&(i, _)| i == c));
        }
        let sample = sample_indices(3, 10, 4);
        assert_eq!(sample.len(), 4);
        assert!(sample.iter().all(|&i| i < 10));
    }
}
