//! Variation-aware initial placement.
//!
//! Two engines are provided:
//!
//! - [`rank_embeddings`]: exhaustive swap-free placement. The circuit's
//!   interaction graph is embedded into the coupling graph with VF2 and every
//!   embedding is scored by ESP. This is both the paper's "brute force
//!   search to check the optimality of the mapping" (§5.2) and the engine
//!   EDM uses to pick its top-K diverse mappings.
//! - [`greedy_placement`]: a variation-aware greedy heuristic for circuits
//!   whose interaction graph does not embed swap-free (routing will insert
//!   SWAPs afterwards).

use crate::esp::EspScorer;
use crate::{Layout, MapError};
use qcir::Circuit;
use qdevice::mapper::{self, EmbeddingVisitor, MapperSelection, SearchOutcome};
use qdevice::{Calibration, Topology};

/// Builds the interaction graph of a logical circuit: one vertex per logical
/// qubit, one edge per interacting pair.
pub fn interaction_topology(circuit: &Circuit) -> Topology {
    let edges: Vec<(u32, u32)> = circuit
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (a.index(), b.index()))
        .collect();
    Topology::new(circuit.num_qubits(), &edges)
}

/// Enumerates every swap-free embedding of the circuit's interaction graph
/// into the device and returns them with their ESP, best first.
///
/// `max_embeddings` caps the enumeration (pass `usize::MAX` for all). The
/// circuit must be in the device basis (use [`qcir::Circuit::decomposed`]).
///
/// # Errors
///
/// - [`MapError::TooManyQubits`] if the circuit is wider than the device.
/// - [`MapError::UnsupportedGate`] if the circuit is not in the basis.
///
/// An empty result means no swap-free embedding exists.
///
/// # Examples
///
/// ```
/// use qcir::Circuit;
/// use qdevice::{presets, DeviceModel};
/// use qmap::placement;
///
/// let device = DeviceModel::synthesize(presets::melbourne14(), 4);
/// let cal = device.calibration();
/// let mut c = Circuit::new(3, 3);
/// c.cx(0, 1);
/// c.cx(1, 2);
/// c.measure_all();
/// let ranked = placement::rank_embeddings(&c, device.topology(), &cal, usize::MAX)?;
/// assert!(!ranked.is_empty());
/// // Best first.
/// assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
/// # Ok::<(), qmap::MapError>(())
/// ```
pub fn rank_embeddings(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    max_embeddings: usize,
) -> Result<Vec<(Layout, f64)>, MapError> {
    rank_embeddings_with(
        circuit,
        topology,
        cal,
        max_embeddings,
        MapperSelection::Exhaustive,
    )
    .map(|r| r.layouts)
}

/// ESP-ranked swap-free embeddings plus whether the pool is exhaustive.
#[derive(Debug, Clone)]
pub struct RankedLayouts {
    /// `(layout, esp)` pairs, best first.
    pub layouts: Vec<(Layout, f64)>,
    /// True when the embedding search saw the whole pool — a ranking over
    /// a truncated pool is best-effort and its top-K may be biased.
    pub complete: bool,
}

/// Like [`rank_embeddings`], but with an explicit embedding engine and an
/// honest completeness signal: a capped or budget-truncated enumeration is
/// reported through [`RankedLayouts::complete`] (and the
/// `edm_qmap_truncated_rankings_total` counter) instead of silently biasing
/// the ranking.
///
/// # Errors
///
/// Same conditions as [`rank_embeddings`].
///
/// Each embedding is scored by an [`EspScorer`] as the search streams it,
/// bit-equal to [`crate::esp::esp`] of the relabeled circuit, without
/// building that circuit.
pub fn rank_embeddings_with(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    max_embeddings: usize,
    selection: MapperSelection,
) -> Result<RankedLayouts, MapError> {
    check_width(circuit, topology)?;
    let pattern = interaction_topology(circuit);
    let scorer = EspScorer::new(circuit, cal, topology.num_qubits(), |q| q.index());
    rank_scored(&scorer, topology.num_qubits(), |visit| {
        mapper::for_each_embedding(&pattern, topology, max_embeddings, selection, visit)
    })
}

/// The single best swap-free placement by ESP, or `None` if the interaction
/// graph does not embed.
///
/// # Errors
///
/// Same conditions as [`rank_embeddings`].
pub fn best_swap_free_placement(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
) -> Result<Option<Layout>, MapError> {
    best_swap_free_placement_with(circuit, topology, cal, MapperSelection::Exhaustive)
}

/// [`best_swap_free_placement`] with an explicit embedding engine: on
/// devices where exhaustive enumeration is intractable, a budgeted
/// [`MapperSelection::Filtered`] search yields the best embedding *seen* —
/// still a strong variation-aware placement, though no longer provably
/// optimal.
///
/// The embeddings are scored as the search streams them, keeping only the
/// running best, so the search takes constant memory however large the
/// pool. The result is the first maximum in enumeration order: the layout
/// [`rank_embeddings_with`]'s stable sort puts first.
///
/// # Errors
///
/// Same conditions as [`rank_embeddings`].
pub fn best_swap_free_placement_with(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
    selection: MapperSelection,
) -> Result<Option<Layout>, MapError> {
    check_width(circuit, topology)?;
    let pattern = interaction_topology(circuit);
    let scorer = EspScorer::new(circuit, cal, topology.num_qubits(), |q| q.index());
    // Ranking wants every embedding; under a budgeted engine the search
    // itself bounds the pool instead of a result cap.
    best_scored(&scorer, topology.num_qubits(), |visit| {
        mapper::for_each_embedding(&pattern, topology, usize::MAX, selection, visit)
    })
}

/// Fails when the circuit is wider than the device.
pub(crate) fn check_width(circuit: &Circuit, topology: &Topology) -> Result<(), MapError> {
    if circuit.num_qubits() > topology.num_qubits() {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: topology.num_qubits(),
        });
    }
    Ok(())
}

/// Runs `search` with a visitor that scores each embedding, then ranks
/// them best first (a stable sort, so equal ESPs keep enumeration order).
/// The first scoring error, in enumeration order, fails the ranking.
pub(crate) fn rank_scored(
    scorer: &EspScorer,
    num_physical: u32,
    search: impl FnOnce(&mut dyn FnMut(&[u32])) -> SearchOutcome,
) -> Result<RankedLayouts, MapError> {
    let mut scored = Vec::new();
    let mut error = None;
    let outcome = search(&mut |phi| match scorer.score(phi) {
        Ok(esp) => scored.push((Layout::from_physical(phi.to_vec(), num_physical), esp)),
        Err(e) => {
            error.get_or_insert(e);
        }
    });
    note_ranking(outcome);
    if let Some(e) = error {
        return Err(e);
    }
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ESP is finite"));
    Ok(RankedLayouts {
        layouts: scored,
        complete: outcome == SearchOutcome::Complete,
    })
}

/// Runs `search` with a visitor that keeps the first strict ESP maximum,
/// which is the layout [`rank_scored`] would put first.
///
/// Once it holds a best, the visitor declines every tail whose
/// [`EspScorer::tail_bound`] does not exceed it: nothing in such a tail
/// is a strict improvement, and the bound is `+∞` wherever a scoring
/// error could hide.
pub(crate) fn best_scored(
    scorer: &EspScorer,
    num_physical: u32,
    search: impl FnOnce(&mut dyn EmbeddingVisitor) -> SearchOutcome,
) -> Result<Option<Layout>, MapError> {
    let mut visitor = BestVisitor {
        scorer,
        best: None,
        error: None,
    };
    let outcome = search(&mut visitor);
    note_ranking(outcome);
    if let Some(e) = visitor.error {
        return Err(e);
    }
    Ok(visitor
        .best
        .map(|(_, phi)| Layout::from_physical(phi, num_physical)))
}

/// The visitor of [`best_scored`]: the running best and the first error.
struct BestVisitor<'a> {
    scorer: &'a EspScorer,
    best: Option<(f64, Vec<u32>)>,
    error: Option<MapError>,
}

impl EmbeddingVisitor for BestVisitor<'_> {
    fn visit(&mut self, phi: &[u32]) {
        match self.scorer.score(phi) {
            Ok(esp) => match &mut self.best {
                Some((top, top_phi)) if esp > *top => {
                    *top = esp;
                    top_phi.copy_from_slice(phi);
                }
                Some(_) => {}
                None => self.best = Some((esp, phi.to_vec())),
            },
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }

    fn tail(&mut self, partial: &[u32], used: &[bool]) -> bool {
        match &self.best {
            Some((top, _)) => self.scorer.tail_bound(partial, used) > *top,
            None => true,
        }
    }
}

/// Counts a ranking over a truncated pool.
fn note_ranking(outcome: SearchOutcome) {
    if outcome != SearchOutcome::Complete {
        edm_telemetry::counter!(
            "edm_qmap_truncated_rankings_total",
            "ESP rankings computed over a truncated embedding pool"
        )
        .inc();
    }
}

/// Variation-aware greedy placement for circuits that need routing.
///
/// Logical qubits are placed in order of decreasing interaction weight; each
/// is assigned the free physical qubit maximizing a reliability score that
/// combines readout success (weighted by the qubit's measurement count) and
/// link success to already-placed interaction partners, with distance decay
/// for non-adjacent partners.
///
/// # Errors
///
/// Returns [`MapError::TooManyQubits`] if the circuit is wider than the
/// device.
pub fn greedy_placement(
    circuit: &Circuit,
    topology: &Topology,
    cal: &Calibration,
) -> Result<Layout, MapError> {
    let n = circuit.num_qubits() as usize;
    let np = topology.num_qubits() as usize;
    if n > np {
        return Err(MapError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: topology.num_qubits(),
        });
    }

    // Interaction weights and measurement counts.
    let mut weight = vec![vec![0u32; n]; n];
    let mut meas = vec![0u32; n];
    for g in circuit.iter() {
        let qs = g.qubits();
        if qs.len() == 2 {
            let (a, b) = (qs[0].usize(), qs[1].usize());
            weight[a][b] += 1;
            weight[b][a] += 1;
        }
        if g.is_measure() {
            meas[qs[0].usize()] += 1;
        }
    }
    let total_weight: Vec<u32> = (0..n).map(|l| weight[l].iter().sum()).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&l| std::cmp::Reverse((total_weight[l], meas[l])));

    let dist = topology.distance_matrix();
    let mean_link_success = 1.0 - cal.mean_cx_err();
    let mut assignment: Vec<Option<u32>> = vec![None; n];
    let mut used = vec![false; np];

    for &l in &order {
        let mut best: Option<(f64, u32)> = None;
        for p in 0..np as u32 {
            if used[p as usize] {
                continue;
            }
            let mut score = (1.0 - cal.readout_err(p)).powi(meas[l] as i32);
            // Seed qubits (no placed partners) prefer spots with strong links
            // available around them.
            let placed_partners: Vec<(usize, u32)> = (0..n)
                .filter(|&k| weight[l][k] > 0 && assignment[k].is_some())
                .map(|k| (k, assignment[k].expect("filtered to placed")))
                .collect();
            if placed_partners.is_empty() {
                let best_link = topology
                    .neighbors(p)
                    .iter()
                    .filter_map(|&m| cal.cx_err(p, m))
                    .map(|e| 1.0 - e)
                    .fold(0.0, f64::max);
                score *= 0.5 + 0.5 * best_link;
            }
            for (k, pk) in placed_partners {
                let d = dist[p as usize][pk as usize];
                let factor = if d == usize::MAX {
                    0.0
                } else if d == 1 {
                    1.0 - cal.cx_err(p, pk).unwrap_or(cal.mean_cx_err())
                } else {
                    // Each extra hop costs roughly one SWAP (3 CX) of the
                    // average link.
                    mean_link_success.powi(3 * (d as i32 - 1)) * mean_link_success
                };
                score *= factor.powi(weight[l][k] as i32);
            }
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, p));
            }
        }
        let (_, p) = best.expect("device has at least as many qubits as the circuit");
        assignment[l] = Some(p);
        used[p as usize] = true;
    }

    let log_to_phys: Vec<u32> = assignment
        .into_iter()
        .map(|a| a.expect("every logical qubit placed"))
        .collect();
    Ok(Layout::from_physical(log_to_phys, topology.num_qubits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esp;
    use qdevice::{presets, DeviceModel};

    fn setup() -> (DeviceModel, Calibration) {
        let d = DeviceModel::synthesize(presets::melbourne14(), 21);
        let c = d.calibration();
        (d, c)
    }

    fn path_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n, n);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        c.measure_all();
        c
    }

    #[test]
    fn interaction_topology_matches_gates() {
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(1, 2).cx(0, 1);
        let t = interaction_topology(&c);
        assert_eq!(t.num_edges(), 2);
        assert!(t.has_edge(0, 1));
        assert!(t.has_edge(1, 2));
    }

    #[test]
    fn rank_embeddings_sorted_and_valid() {
        let (d, cal) = setup();
        let c = path_circuit(4);
        let ranked = rank_embeddings(&c, d.topology(), &cal, usize::MAX).unwrap();
        assert!(ranked.len() > 10);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Every layout supports the circuit swap-free.
        for (layout, _) in ranked.iter().take(5) {
            let phys = layout.apply(&c);
            assert!(esp::esp(&phys, &cal).is_ok());
        }
    }

    #[test]
    fn best_embedding_avoids_bad_readout_qubits() {
        let (d, cal) = setup();
        let c = path_circuit(4);
        let best = best_swap_free_placement(&c, d.topology(), &cal)
            .unwrap()
            .expect("path embeds in melbourne");
        // Q11 and Q12 have ~28% readout error; a 4-qubit path has plenty of
        // better homes.
        for &p in best.as_slice() {
            assert!(p != 11 && p != 12, "best layout used bad qubit {p}");
        }
    }

    #[test]
    fn unembeddable_pattern_returns_none() {
        let (d, cal) = setup();
        // A 5-star needs a degree-4 hub; melbourne's max degree is 3.
        let mut c = Circuit::new(5, 0);
        c.cx(0, 1).cx(0, 2).cx(0, 3).cx(0, 4);
        assert!(best_swap_free_placement(&c, d.topology(), &cal)
            .unwrap()
            .is_none());
    }

    #[test]
    fn greedy_placement_is_injective_and_complete() {
        let (d, cal) = setup();
        let mut c = Circuit::new(5, 0);
        c.cx(0, 1).cx(0, 2).cx(0, 3).cx(0, 4); // needs routing
        let layout = greedy_placement(&c, d.topology(), &cal).unwrap();
        assert_eq!(layout.num_logical(), 5);
        let mut phys = layout.physical_qubits();
        phys.dedup();
        assert_eq!(phys.len(), 5);
    }

    #[test]
    fn greedy_places_interacting_qubits_nearby() {
        let (d, cal) = setup();
        let c = path_circuit(4);
        let layout = greedy_placement(&c, d.topology(), &cal).unwrap();
        // Consecutive path qubits should be close on the device.
        for i in 0..3 {
            let dd = d
                .topology()
                .distance(layout.phys(i), layout.phys(i + 1))
                .unwrap();
            assert!(dd <= 2, "logical {i},{} placed {dd} apart", i + 1);
        }
    }

    #[test]
    fn oversize_circuit_rejected() {
        let (d, cal) = setup();
        let c = Circuit::new(15, 0);
        assert!(matches!(
            greedy_placement(&c, d.topology(), &cal).unwrap_err(),
            MapError::TooManyQubits { .. }
        ));
        assert!(matches!(
            rank_embeddings(&c, d.topology(), &cal, 10).unwrap_err(),
            MapError::TooManyQubits { .. }
        ));
    }

    #[test]
    fn max_embeddings_caps_results() {
        let (d, cal) = setup();
        let c = path_circuit(3);
        let ranked = rank_embeddings(&c, d.topology(), &cal, 7).unwrap();
        assert_eq!(ranked.len(), 7);
    }

    #[test]
    fn top_embeddings_differ_in_qubits() {
        // EDM's premise: the top-K embeddings use (partially) different
        // hardware.
        let (d, cal) = setup();
        let c = path_circuit(4);
        let ranked = rank_embeddings(&c, d.topology(), &cal, usize::MAX).unwrap();
        let top: Vec<_> = ranked.iter().take(4).map(|(l, _)| l.clone()).collect();
        let mut any_disjointness = false;
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                if top[i].overlap(&top[j]) < 4 {
                    any_disjointness = true;
                }
            }
        }
        assert!(
            any_disjointness,
            "top-4 embeddings all identical qubit sets"
        );
    }
}
