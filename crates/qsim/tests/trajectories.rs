//! Bit-identity of the checkpointed, memoized shot loop.
//!
//! `CompiledCircuit::run_into` resumes faulty shots from clean-prefix
//! checkpoints and samples single-fault shots from a shared memo;
//! `run_into_full_replay` replays every faulty shot from |0…0⟩ and scans
//! its amplitudes. Both consume the same draws, so for any plan, shot
//! count and seed their histograms must be equal — not close, equal.

use proptest::prelude::*;
use qcir::Circuit;
use qdevice::{presets, DeviceModel};
use qsim::parallel::BatchJob;
use qsim::{rngstream, CompiledCircuit, Counts, NoisySimulator, SimScratch, MEMO_BUDGET_BYTES};

fn device() -> DeviceModel {
    DeviceModel::synthesize(presets::melbourne14(), 42)
}

/// One random gate: `(kind, operand, angle)`, lowered onto the device by
/// [`physical`].
type GateSpec = (u8, usize, f64);

/// A physical circuit on the first `width` qubits of melbourne14: every
/// CX sits on a coupled pair, every qubit is measured.
fn physical(device: &DeviceModel, width: u32, specs: &[GateSpec]) -> Circuit {
    let edges: Vec<(u32, u32)> = device
        .topology()
        .edges()
        .iter()
        .map(|e| e.endpoints())
        .filter(|&(a, b)| a < width && b < width)
        .collect();
    let mut c = Circuit::new(14, width);
    for &(kind, operand, angle) in specs {
        let q = operand as u32 % width;
        match kind % 8 {
            0 => c.h(q),
            1 => c.t(q),
            2 => c.s(q),
            3 => c.rx(q, angle),
            4 => c.ry(q, angle),
            5 => c.rz(q, angle),
            _ => {
                let (a, b) = edges[operand % edges.len()];
                if kind % 2 == 0 {
                    c.cx(a, b)
                } else {
                    c.cx(b, a)
                }
            }
        };
    }
    for q in 0..width {
        c.measure(q, q);
    }
    c
}

/// A layered circuit of `depth` rounds over the first `width` qubits.
fn layered(device: &DeviceModel, width: u32, depth: usize) -> Circuit {
    let specs: Vec<GateSpec> = (0..depth * width as usize)
        .flat_map(|i| [(3, i, 0.3 + 0.01 * i as f64), (6, i, 0.0), (0, i + 1, 0.0)])
        .collect();
    physical(device, width, &specs)
}

fn run(plan: &CompiledCircuit, shots: u64, seed: u64, full_replay: bool) -> Counts {
    let mut counts = Counts::new(plan.num_clbits());
    let mut scratch = SimScratch::new();
    if full_replay {
        plan.run_into_full_replay(shots, seed, &mut scratch, &mut counts);
    } else {
        plan.run_into(shots, seed, &mut scratch, &mut counts);
    }
    counts
}

/// Runs `slices` 1024-shot slices both ways and asserts equal histograms;
/// returns the fast path's trajectory-path totals.
fn assert_identical(plan: &CompiledCircuit, seed: u64, slices: u64) -> qsim::TrajectoryPaths {
    let mut scratch = SimScratch::new();
    let mut totals = qsim::TrajectoryPaths::default();
    for s in 0..slices {
        let seed = rngstream::fork(seed, s);
        let mut counts = Counts::new(plan.num_clbits());
        plan.run_into(1024, seed, &mut scratch, &mut counts);
        assert_eq!(counts, run(plan, 1024, seed, true), "slice {s}");
        let p = scratch.last_paths();
        totals.clean += p.clean;
        totals.memo_hit += p.memo_hit;
        totals.resumed += p.resumed;
        totals.full_replay += p.full_replay;
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_into_matches_full_replay_on_random_circuits(
        width in 2u32..=7,
        specs in proptest::collection::vec((0u8..8, 0usize..64, -3.2f64..3.2), 1..60),
        shots in prop_oneof![Just(100u64), Just(700u64)],
        seed in 0u64..1 << 48,
    ) {
        let d = device();
        let sim = NoisySimulator::from_device(&d);
        let plan = sim.compile(&physical(&d, width, &specs)).unwrap();
        let reference = run(&plan, shots, seed, true);
        // Cold memo, then warm: neither may move a bit.
        prop_assert_eq!(&run(&plan, shots, seed, false), &reference);
        prop_assert_eq!(&run(&plan, shots, seed, false), &reference);
    }
}

#[test]
fn every_path_is_taken_and_bit_identical() {
    let d = device();
    let plan = NoisySimulator::from_device(&d)
        .compile(&layered(&d, 5, 4))
        .unwrap();
    let paths = assert_identical(&plan, 11, 4);
    assert!(paths.clean > 0, "{paths:?}");
    assert!(paths.memo_hit > 0, "{paths:?}");
    assert!(paths.resumed > 0, "{paths:?}");
    assert!(paths.full_replay > 0, "{paths:?}");
    assert_eq!(paths.shots(), 4 * 1024);
}

#[test]
fn exhausted_memo_budget_is_bit_identical() {
    // Ten dense qubits: 8 KiB per entry, far more outcomes than slots.
    let d = device();
    let plan = NoisySimulator::from_device(&d)
        .compile(&layered(&d, 10, 1))
        .unwrap();
    let paths = assert_identical(&plan, 12, 2);
    let memo = plan.memo_stats();
    assert!(
        memo.slots > 0 && memo.slots < plan.num_event_sites(),
        "{memo:?}"
    );
    assert!(memo.filled > 0, "{memo:?}");
    assert!(memo.bytes <= MEMO_BUDGET_BYTES, "{memo:?}");
    assert!(paths.memo_hit > 0, "{paths:?}");
}

#[test]
fn wide_registers_get_few_or_no_memo_slots() {
    // One entry is 8 bytes per amplitude: 16 KiB at 11 dense qubits, so
    // the budget admits a handful; at 14 one entry alone exceeds it.
    let d = device();
    let sim = NoisySimulator::from_device(&d);
    let narrow = sim.compile(&layered(&d, 11, 1)).unwrap();
    assert_eq!(narrow.num_qubits(), 11);
    let paths = assert_identical(&narrow, 13, 1);
    let memo = narrow.memo_stats();
    assert!(memo.slots > 0 && memo.slots <= 8, "{memo:?}");
    assert!(memo.bytes <= MEMO_BUDGET_BYTES, "{memo:?}");
    assert!(paths.resumed > 0, "{paths:?}");

    let wide = sim.compile(&layered(&d, 14, 1)).unwrap();
    assert_eq!(wide.num_qubits(), 14);
    let mut scratch = SimScratch::new();
    let mut counts = Counts::new(wide.num_clbits());
    wide.run_into(256, 14, &mut scratch, &mut counts);
    assert_eq!(counts, run(&wide, 256, 14, true));
    assert_eq!(wide.memo_stats().slots, 0);
    assert_eq!(scratch.last_paths().memo_hit, 0);
}

#[test]
fn run_batch_matches_full_replay_at_every_thread_count() {
    let d = device();
    let sim = NoisySimulator::from_device(&d);
    let circuits = [layered(&d, 4, 3), layered(&d, 6, 2)];
    let jobs: Vec<BatchJob<'_>> = circuits
        .iter()
        .zip([3000u64, 1500])
        .enumerate()
        .map(|(i, (c, shots))| BatchJob::new(c, shots, 40 + i as u64))
        .collect();

    // The batch contract, executed with the reference sampler: compile
    // once, run each slice with its forked seed, merge in slice order.
    let expected: Vec<Counts> = jobs
        .iter()
        .map(|job| {
            let plan = sim.compile(job.circuit).unwrap();
            let mut merged = Counts::new(plan.num_clbits());
            let (mut left, mut slice) = (job.shots, 0);
            while left > 0 {
                let n = left.min(qsim::parallel::SLICE_SHOTS);
                merged.merge_from(&run(&plan, n, rngstream::fork(job.seed, slice), true));
                left -= n;
                slice += 1;
            }
            merged
        })
        .collect();

    for threads in [1, 2, 4] {
        let got = sim.run_batch(&jobs, threads);
        for (j, (got, want)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "job {j}, threads {threads}");
        }
    }
}

#[test]
fn trajectory_paths_are_published_per_path() {
    use edm_telemetry::metrics::{registry, MetricSnapshot};
    const PATHS: [&str; 4] = ["clean", "memo_hit", "resumed", "full_replay"];
    let read = || {
        let snapshot = registry().snapshot();
        PATHS.map(|path| {
            let label = format!("path=\"{path}\"");
            snapshot
                .iter()
                .find_map(|m| match m {
                    MetricSnapshot::Counter {
                        name: "edm_qsim_trajectories_total",
                        labels,
                        value,
                        ..
                    } if *labels == label => Some(*value),
                    _ => None,
                })
                .unwrap_or(0)
        })
    };

    edm_telemetry::set_enabled(true);
    let d = device();
    let plan = NoisySimulator::from_device(&d)
        .compile(&layered(&d, 5, 4))
        .unwrap();
    let before = read();
    let mut scratch = SimScratch::new();
    let mut counts = Counts::new(plan.num_clbits());
    plan.run_into(2048, 3, &mut scratch, &mut counts);
    let after = read();

    let p = scratch.last_paths();
    assert_eq!(p.shots(), 2048);
    // Other tests in this binary may publish concurrently: deltas are
    // lower bounds.
    let ran = [p.clean, p.memo_hit, p.resumed, p.full_replay];
    for (i, path) in PATHS.iter().enumerate() {
        assert!(
            after[i] - before[i] >= ran[i],
            "{path}: {} -> {} after {} shots",
            before[i],
            after[i],
            ran[i]
        );
    }
}
