//! The streamed ESP ranking against a materialising reference.
//!
//! The library scores embeddings while the VF2/FDLS search streams them
//! (`qmap::esp::EspScorer` over `Transpiler::for_each_candidate_embedding`)
//! and builds layouts and ensemble members only for what it returns. The
//! reference in this file is the direct formulation, kept here and nowhere
//! else: collect every embedding, relabel the circuit onto each, score it
//! with `esp::esp`, stable-sort, filter by ESP ratio, then select. Both must
//! agree bit for bit, search outcome included.

use edm_core::{diversify_detailed, EdmError, EnsembleConfig, EnsembleMember};
use proptest::prelude::*;
use qcir::{Circuit, Qubit};
use qdevice::drift::Quarantine;
use qdevice::fdls::FdlsConfig;
use qdevice::mapper::{self, MapperSelection, SearchOutcome};
use qdevice::{presets, DeviceModel, Edge, SynthesisProfile, Topology};
use qmap::{esp, placement, Layout, MapError, Transpiler};

// ---------------------------------------------------------------- reference

/// Every embedding of `basis`'s interaction graph into `target`, each
/// relabeled and scored, best first (stable: equal ESPs keep enumeration
/// order).
fn reference_rank(
    basis: &Circuit,
    target: &Topology,
    t: &Transpiler<'_>,
    max: usize,
) -> Result<(Vec<(Layout, f64)>, SearchOutcome), MapError> {
    let pattern = placement::interaction_topology(basis);
    let set = mapper::enumerate_embeddings(&pattern, target, max, t.mapper_selection());
    let mut ranked = Vec::new();
    for phi in set.embeddings {
        let layout = Layout::from_physical(phi, target.num_qubits());
        let score = esp::esp(&layout.apply(basis), t.calibration())?;
        ranked.push((layout, score));
    }
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ESP is finite"));
    Ok((ranked, set.outcome))
}

/// `Transpiler::ranked_layouts_detailed`: rank on the masked device, keep
/// the layouts the quarantine allows, fall back to the full device when
/// none are left.
fn reference_ranked_layouts(
    t: &Transpiler<'_>,
    circuit: &Circuit,
    max: usize,
) -> (Vec<(Layout, f64)>, bool) {
    let basis = circuit.decomposed();
    let complete = |o: SearchOutcome| o == SearchOutcome::Complete;
    let Some(quarantine) = t.quarantine() else {
        let (ranked, outcome) = reference_rank(&basis, t.topology(), t, max).unwrap();
        return (ranked, complete(outcome));
    };
    let (ranked, outcome) = reference_rank(&basis, t.effective_topology(), t, max).unwrap();
    let allowed: Vec<(Layout, f64)> = ranked
        .into_iter()
        .filter(|(l, _)| quarantine.allows_footprint(&l.physical_qubits()))
        .collect();
    if allowed.is_empty() {
        let (ranked, outcome) = reference_rank(&basis, t.topology(), t, max).unwrap();
        return (ranked, complete(outcome));
    }
    (allowed, complete(outcome))
}

/// The swap-free placement `Transpiler::transpile` starts from: the best
/// allowed layout of the masked ranking, or `None` (greedy placement).
fn reference_swap_free(t: &Transpiler<'_>, circuit: &Circuit) -> Option<Layout> {
    let basis = circuit.decomposed();
    let target = t.effective_topology();
    let (ranked, _) = reference_rank(&basis, target, t, usize::MAX).unwrap();
    ranked.into_iter().map(|(l, _)| l).find(|l| {
        t.quarantine()
            .is_none_or(|q| q.allows_footprint(&l.physical_qubits()))
    })
}

/// `edm_core::diversify_detailed`, one full member per embedding.
fn reference_diversify(
    t: &Transpiler<'_>,
    physical: &Circuit,
    config: &EnsembleConfig,
) -> Result<(Vec<EnsembleMember>, SearchOutcome), EdmError> {
    let topology = t.topology();
    let active: Vec<u32> = physical.active_qubits().iter().map(|q| q.index()).collect();
    let mut pos = vec![u32::MAX; topology.num_qubits() as usize];
    for (i, &q) in active.iter().enumerate() {
        pos[q as usize] = i as u32;
    }
    let edges: Vec<(u32, u32)> = physical
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (pos[a.usize()], pos[b.usize()]))
        .collect();
    let pattern = Topology::new(active.len() as u32, &edges);
    let selection = t.mapper_selection();
    let set = mapper::enumerate_embeddings(
        &pattern,
        t.effective_topology(),
        config.max_candidates,
        selection,
    );
    let (mut embeddings, mut outcome) = (set.embeddings, set.outcome);
    if let Some(quarantine) = t.quarantine() {
        embeddings.retain(|phi| quarantine.allows_footprint(phi));
        if embeddings.is_empty() {
            let set =
                mapper::enumerate_embeddings(&pattern, topology, config.max_candidates, selection);
            (embeddings, outcome) = (set.embeddings, set.outcome);
        }
    }
    if embeddings.is_empty() {
        return Err(EdmError::NoEmbeddings);
    }
    let mut members = Vec::new();
    for phi in embeddings {
        let relabeled = physical.relabeled(topology.num_qubits(), |q| {
            Qubit::new(phi[pos[q.usize()] as usize])
        });
        let esp = esp::esp(&relabeled, t.calibration())?;
        let mut qubits = phi.clone();
        qubits.sort_unstable();
        members.push(EnsembleMember {
            physical: relabeled,
            esp,
            qubits,
            assignment: phi,
            inverted_measurement: false,
        });
    }
    members.sort_by(|a, b| b.esp.partial_cmp(&a.esp).expect("ESP is finite"));
    if config.min_esp_ratio > 0.0 {
        let best = members[0].esp;
        members.retain(|m| m.esp >= config.min_esp_ratio * best);
    }
    if config.diverse_selection {
        members = reference_select_diverse(members, config.size);
    } else {
        members.truncate(config.size);
    }
    Ok((members, outcome))
}

/// Greedy max-min assignment distance, rescanning every candidate against
/// every selected member per pick; ties go to the higher-ESP candidate.
fn reference_select_diverse(pool: Vec<EnsembleMember>, size: usize) -> Vec<EnsembleMember> {
    if pool.len() <= size {
        return pool;
    }
    let distance = |a: &EnsembleMember, b: &EnsembleMember| {
        a.assignment
            .iter()
            .zip(&b.assignment)
            .filter(|(x, y)| x != y)
            .count()
    };
    let mut remaining = pool;
    let mut selected = vec![remaining.remove(0)];
    while selected.len() < size && !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, c)| (i, selected.iter().map(|s| distance(c, s)).min().unwrap()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap();
        selected.push(remaining.remove(best_idx));
    }
    selected.sort_by(|a, b| b.esp.partial_cmp(&a.esp).expect("ESP is finite"));
    selected
}

// ------------------------------------------------------------------ helpers

type MemberKey = (Vec<u32>, Vec<u32>, u64, Circuit, bool);

fn member_keys(members: &[EnsembleMember]) -> Vec<MemberKey> {
    members
        .iter()
        .map(|m| {
            (
                m.assignment.clone(),
                m.qubits.clone(),
                m.esp.to_bits(),
                m.physical.clone(),
                m.inverted_measurement,
            )
        })
        .collect()
}

fn layout_keys(layouts: &[(Layout, f64)]) -> Vec<(Layout, u64)> {
    layouts
        .iter()
        .map(|(l, e)| (l.clone(), e.to_bits()))
        .collect()
}

/// Raw embedding count of `pattern` on the topology the search runs on
/// first (the masked one under a quarantine).
fn pool_size(t: &Transpiler<'_>, pattern: &Topology) -> usize {
    mapper::enumerate_embeddings(
        pattern,
        t.effective_topology(),
        usize::MAX,
        t.mapper_selection(),
    )
    .embeddings
    .len()
}

/// Caps at half the pool (inside the search, where a cap can land in a
/// tail VF2 counts without walking it), just below, at and just above
/// the pool size.
fn caps_around(pool: usize) -> Vec<usize> {
    let mut caps = vec![pool, pool + 1];
    if pool > 0 {
        caps.insert(0, pool - 1);
    }
    if pool > 2 {
        caps.insert(0, pool / 2);
    }
    caps
}

/// Embeddings the reference may materialise per ranking: idle qubits are
/// dropped until the logical pattern's pool fits.
const MAX_REFERENCE_POOL: usize = 20_000;

/// True when `pattern` has at most [`MAX_REFERENCE_POOL`] embeddings on
/// `target` (counted without collecting them).
fn pool_fits(pattern: &Topology, target: &Topology) -> bool {
    let outcome = mapper::for_each_embedding(
        pattern,
        target,
        MAX_REFERENCE_POOL,
        MapperSelection::Exhaustive,
        |_: &[u32]| {},
    );
    outcome == SearchOutcome::Complete
}

/// The footprint pattern `diversify` embeds: active qubits re-indexed.
fn footprint_pattern(physical: &Circuit) -> Topology {
    let active: Vec<u32> = physical.active_qubits().iter().map(|q| q.index()).collect();
    let index = |q: Qubit| active.binary_search(&q.index()).unwrap() as u32;
    let edges: Vec<(u32, u32)> = physical
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (index(a), index(b)))
        .collect();
    Topology::new(active.len() as u32, &edges)
}

/// A random program: a connected interaction tree over `size` qubits plus
/// `extra` edges, single-qubit gates sprinkled in, and `idle` measure-only
/// qubits that VF2 may place on any free device qubit.
fn random_circuit(
    size: u32,
    parents: &[u32],
    extra: &[(u32, u32)],
    idle: u32,
    ones: &[u32],
) -> Circuit {
    let n = size + idle;
    let mut c = Circuit::new(n, n);
    for (i, &p) in ones.iter().enumerate() {
        if i % 2 == 0 {
            c.h(p % n);
        } else {
            c.t(p % n);
        }
    }
    for v in 1..size {
        c.cx(parents[v as usize - 1] % v, v);
    }
    for &(a, b) in extra {
        let (a, b) = (a % size, b % size);
        if a != b {
            c.cx(a, b);
        }
    }
    for &p in ones.iter().rev() {
        c.h(p % n);
    }
    c.measure_all();
    c
}

fn fleet_device(index: usize, seed: u64) -> DeviceModel {
    let topology = match index {
        0 => presets::melbourne14(),
        1 => presets::guadalupe16(),
        _ => presets::tokyo20(),
    };
    DeviceModel::synthesize(topology, seed)
}

// ---------------------------------------------------------- property tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_ranking_matches_the_materialising_reference(
        device in 0usize..3,
        device_seed in 0u64..64,
        size in 2u32..6,
        parents in proptest::collection::vec(0u32..64, 4..5),
        extra in proptest::collection::vec((0u32..6, 0u32..6), 0..3),
        idle_draw in 0u32..4,
        ones in proptest::collection::vec(0u32..8, 0..6),
        quarantined in proptest::collection::vec(0u32..20, 0..3),
        quarantine_link in 0u32..2,
        engine in 0u32..3,
        diverse in 0u32..2,
        ensemble_size in 1usize..6,
    ) {
        // Idle qubits multiply the pool by the free device qubits, so only
        // small connected parts get them, and no more than keep the pool
        // small enough for the reference to materialise. Several give VF2
        // tails at more than one level.
        let d = fleet_device(device, device_seed);
        let mut idle = if size <= 3 { idle_draw } else { 0 };
        let circuit = loop {
            let circuit = random_circuit(size, &parents, &extra, idle, &ones);
            let logical = placement::interaction_topology(&circuit.decomposed());
            if idle == 0 || pool_fits(&logical, d.topology()) {
                break circuit;
            }
            idle -= 1;
        };
        let cal = d.calibration();
        let topology = d.topology();
        let mut quarantine = Quarantine::new();
        for &q in &quarantined {
            quarantine.add_qubit(q % topology.num_qubits());
        }
        if quarantine_link == 1 {
            let e = topology.edges()[device_seed as usize % topology.num_edges()];
            quarantine.add_link(Edge::new(e.lo(), e.hi()));
        }
        let mapper = if engine == 2 {
            // Small budgets, so truncation by budget and by backtracking
            // is exercised alongside the cap.
            MapperSelection::Filtered(FdlsConfig {
                node_budget: 4_000,
                root_budget: 600,
                backtrack_depth: 3,
            })
        } else {
            MapperSelection::Auto
        };
        let t = Transpiler::new(topology, &cal)
            .with_quarantine(&quarantine)
            .with_mapper(mapper);

        // Transpiler: the swap-free placement and the ranked pool.
        let transpiled = t.transpile(&circuit).unwrap();
        if let Some(layout) = reference_swap_free(&t, &circuit) {
            prop_assert_eq!(&transpiled.initial_layout, &layout);
        }
        if quarantine.is_empty() {
            let basis = circuit.decomposed();
            let best = placement::best_swap_free_placement_with(&basis, topology, &cal, mapper)
                .unwrap();
            let reference = reference_rank(&basis, topology, &t, usize::MAX).unwrap().0;
            prop_assert_eq!(best, reference.into_iter().next().map(|(l, _)| l));
        }
        let logical = placement::interaction_topology(&circuit.decomposed());
        for max in caps_around(pool_size(&t, &logical)) {
            let got = t.ranked_layouts_detailed(&circuit, max).unwrap();
            let (want, complete) = reference_ranked_layouts(&t, &circuit, max);
            prop_assert_eq!(layout_keys(&got.layouts), layout_keys(&want));
            prop_assert_eq!(got.complete, complete);
        }

        // Ensemble: members and search outcome for every cap and ratio.
        let physical = &transpiled.physical;
        for max_candidates in caps_around(pool_size(&t, &footprint_pattern(physical))) {
            for min_esp_ratio in [0.0, 0.9] {
                let config = EnsembleConfig {
                    size: ensemble_size,
                    max_candidates,
                    min_esp_ratio,
                    diverse_selection: diverse == 1,
                    ..EnsembleConfig::default()
                };
                let got = diversify_detailed(&t, physical, &config);
                let want = reference_diversify(&t, physical, &config);
                match (got, want) {
                    (Ok((members, outcome)), Ok((ref_members, ref_outcome))) => {
                        prop_assert_eq!(member_keys(&members), member_keys(&ref_members));
                        prop_assert_eq!(outcome, ref_outcome);
                    }
                    (got, want) => prop_assert_eq!(
                        got.map(|_| ()).map_err(|e| e.to_string()),
                        want.map(|_| ()).map_err(|e| e.to_string())
                    ),
                }
            }
        }
    }
}

// ----------------------------------------------------------- pinned values

/// FNV-1a over 64-bit words.
fn digest(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything the compile path decides for one circuit on one device:
/// the transpiled layout, circuit and ESP, then for the default ensemble
/// and for the unfiltered one (`min_esp_ratio` 0.0) the search outcome
/// and every member's assignment, footprint, ESP bits and executable.
fn compile_digest(t: &Transpiler<'_>, circuit: &Circuit) -> u64 {
    let out = t.transpile(circuit).unwrap();
    let mut words: Vec<u64> = vec![out.initial_layout.num_logical().into()];
    words.extend(out.initial_layout.as_slice().iter().map(|&p| u64::from(p)));
    words.extend([
        out.esp.to_bits(),
        out.swap_count as u64,
        out.physical.fingerprint(),
    ]);
    for min_esp_ratio in [0.9, 0.0] {
        let config = EnsembleConfig {
            min_esp_ratio,
            ..EnsembleConfig::default()
        };
        let (members, outcome) = diversify_detailed(t, &out.physical, &config).unwrap();
        words.push(match outcome {
            SearchOutcome::Complete => 0,
            SearchOutcome::Truncated { explored } => explored + 1,
        });
        words.push(members.len() as u64);
        for m in &members {
            words.extend(m.assignment.iter().map(|&p| u64::from(p)));
            words.extend(m.qubits.iter().map(|&p| u64::from(p)));
            words.extend([
                m.esp.to_bits(),
                m.physical.fingerprint(),
                u64::from(m.inverted_measurement),
            ]);
        }
    }
    digest(&words)
}

/// The paper-regime noise profile of the figure binaries
/// (`edm_bench::setup::paper_profile`).
fn paper_profile() -> SynthesisProfile {
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

/// Digests recorded from the materialising implementation (one Layout,
/// relabeled circuit and member per embedding) for the nine Table-1
/// circuits, in `qbench::registry::all()` order, on the default fleet's
/// devices (`melbourne14#42`, `guadalupe16#43`, `tokyo20#44`) and the
/// paper-regime `melbourne14#102`.
const PINNED: [(&str, [u64; 9]); 4] = [
    (
        "melbourne14#42",
        [
            0x9d1e6abb3ffa6d3b,
            0x8c7671b778c55930,
            0x4ba45b835325793c,
            0x2efc29c5a14fbba3,
            0x23afc76b2f6be978,
            0x503dd8b37e48c6b9,
            0x0caa65b9878cf86b,
            0xf549ceeafc12e921,
            0x8f73206b0a04301c,
        ],
    ),
    (
        "guadalupe16#43",
        [
            0x27bd5f8df42bbeeb,
            0x31028b6718354fde,
            0x54a5dd0b5b2a62ee,
            0xb481d3f7387b752e,
            0x5081dbdc20ffe6ab,
            0x97abe95890542800,
            0x10a2bbf464282c43,
            0x35750cbb8ad378cc,
            0x43c9404d2fd8e457,
        ],
    ),
    (
        "tokyo20#44",
        [
            0x1b89f86dbc49bf55,
            0xf334405a05cc2ff0,
            0xbac4ac3eba2b818f,
            0x078326865932a2bc,
            0x316295127821a295,
            0x79e41fd81d674034,
            0x5abbf629b1e6be28,
            0xb807afedb7728265,
            0x6314011d4b33b444,
        ],
    ),
    (
        "melbourne14#102",
        [
            0xf93b41f8ff8dc058,
            0x3c662133f366676c,
            0xba630c44a2963c2f,
            0x2f8c0af6e87adc1f,
            0x17a3e8e0815c3212,
            0x6a147c3d9933d508,
            0xebe134e74e21fca9,
            0xfc6f0135d1c5b920,
            0x9639bdd5d8b6b31b,
        ],
    ),
];

#[test]
fn table1_compiles_are_pinned_on_the_fleet_and_paper_devices() {
    let devices = [
        DeviceModel::synthesize(presets::melbourne14(), 42),
        DeviceModel::synthesize(presets::guadalupe16(), 43),
        DeviceModel::synthesize(presets::tokyo20(), 44),
        DeviceModel::synthesize_with(presets::melbourne14(), &paper_profile(), 102),
    ];
    let benches = qbench::registry::all();
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for ((name, pinned), device) in PINNED.iter().zip(&devices) {
        let cal = device.calibration();
        let t = Transpiler::new(device.topology(), &cal);
        let got: Vec<u64> = benches
            .iter()
            .map(|b| compile_digest(&t, &b.circuit))
            .collect();
        for ((b, &want), &have) in benches.iter().zip(pinned).zip(&got) {
            if want != have {
                mismatches.push(format!("{name} {}", b.name));
            }
        }
        let row: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
        table.push_str(&format!("    (\"{name}\", [{}]),\n", row.join(", ")));
    }
    assert!(
        mismatches.is_empty(),
        "compile results moved for {mismatches:?}; digests now:\n{table}"
    );
}
