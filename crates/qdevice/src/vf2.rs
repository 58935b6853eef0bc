//! Subgraph-isomorphism enumeration (VF2-style).
//!
//! EDM transplants a mapped circuit onto alternative qubit subsets by
//! enumerating embeddings of the circuit's interaction graph into the device
//! coupling graph (§5.2 of the paper, which uses the VF2 algorithm of
//! Cordella et al.). This module implements the enumeration from scratch:
//! a backtracking search with candidate pruning, ordered so that each pattern
//! vertex (after the first of its component) is matched adjacent to already
//! matched vertices.
//!
//! The match is *non-induced*: every pattern edge must map to a target edge,
//! but extra target edges between mapped vertices are allowed — exactly what
//! qubit mapping needs.

use crate::mapper::{EmbeddingSet, EmbeddingVisitor, SearchOutcome};
use crate::Topology;

/// Enumerates injective mappings `phi` from pattern vertices to target
/// vertices such that every pattern edge `(a, b)` maps to a target edge
/// `(phi[a], phi[b])`.
///
/// Results are returned as vectors indexed by pattern vertex. At most
/// `max_results` embeddings are produced (pass `usize::MAX` for all of them).
/// Isolated pattern vertices are matched to any unused target vertex.
///
/// This wrapper drops the [`SearchOutcome`]; callers that must know whether
/// the cap truncated the pool (any ESP ranking does — a silently clipped
/// pool biases the top-K) should use [`enumerate`] instead.
///
/// # Examples
///
/// ```
/// use qdevice::{presets, vf2};
/// // Embed a 3-qubit path into a 4-qubit line: 0-1-2 fits 4 ways
/// // (starting at 0 or 1, in either direction).
/// let pattern = presets::line(3);
/// let target = presets::line(4);
/// let found = vf2::enumerate_subgraph_isomorphisms(&pattern, &target, usize::MAX);
/// assert_eq!(found.len(), 4);
/// ```
pub fn enumerate_subgraph_isomorphisms(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
) -> Vec<Vec<u32>> {
    enumerate(pattern, target, max_results).embeddings
}

/// Like [`enumerate_subgraph_isomorphisms`], but reports whether the result
/// cap cut the enumeration short.
///
/// The search runs one embedding past `max_results`, so a pool of exactly
/// `max_results` embeddings is still reported [`SearchOutcome::Complete`];
/// only a genuinely clipped pool is `Truncated` (and counted by the
/// `edm_qdevice_vf2_cap_hits_total` telemetry counter).
pub fn enumerate(pattern: &Topology, target: &Topology, max_results: usize) -> EmbeddingSet {
    let mut embeddings = Vec::new();
    let outcome = for_each(pattern, target, max_results, |phi: &[u32]| {
        embeddings.push(phi.to_vec())
    });
    EmbeddingSet {
        embeddings,
        outcome,
    }
}

/// Streams the embeddings [`enumerate`] would return to `visit`, in the
/// same order, without collecting them: `visit` sees each assignment
/// (indexed by pattern vertex) once, borrowed from the search state.
///
/// At most `max_results` embeddings reach `visit`; the search still looks
/// for one more to tell a clipped pool ([`SearchOutcome::Truncated`]) from
/// one of exactly `max_results`. The `edm_qdevice_vf2_us` histogram times
/// the whole walk, the visitor's work included.
///
/// Before expanding a subtree that only places isolated pattern vertices,
/// the search asks [`EmbeddingVisitor::tail`]; a declined tail is counted
/// in closed form (see [`Tail`]) and its embeddings never reach `visit`,
/// but the outcome, `explored` and the counters are those of the full
/// walk.
pub(crate) fn for_each(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    mut visit: impl EmbeddingVisitor,
) -> SearchOutcome {
    let _span = edm_telemetry::trace::span("vf2_enumerate");
    let (visited, outcome) = edm_telemetry::histogram!(
        "edm_qdevice_vf2_us",
        "Wall time of one VF2 subgraph-isomorphism enumeration"
    )
    .time(|| for_each_inner(pattern, target, max_results, &mut visit));
    edm_telemetry::counter!(
        "edm_qdevice_vf2_embeddings_total",
        "Embeddings covered by VF2 enumeration, tails counted without visiting them included"
    )
    .add(visited);
    if outcome != SearchOutcome::Complete {
        edm_telemetry::counter!(
            "edm_qdevice_vf2_cap_hits_total",
            "VF2 enumerations truncated by their result cap"
        )
        .inc();
    }
    outcome
}

/// Runs the search; returns how many embeddings it covered (at most
/// `max_results`) and the outcome.
fn for_each_inner(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    visit: &mut impl EmbeddingVisitor,
) -> (u64, SearchOutcome) {
    let pn = pattern.num_qubits() as usize;
    let tn = target.num_qubits() as usize;
    if pn == 0 {
        if max_results == 0 {
            return (0, SearchOutcome::Complete);
        }
        visit.visit(&[]);
        return (1, SearchOutcome::Complete);
    }
    if pn > tn {
        return (0, SearchOutcome::Complete);
    }

    // Search one past the cap: finding max_results + 1 embeddings proves
    // the cap actually clipped the pool.
    let order = matching_order(pattern);
    // Isolated vertices come last in the order, so every level from here
    // down places an isolated vertex on any free target.
    let tail_start = order
        .iter()
        .position(|&v| pattern.degree(v) == 0)
        .unwrap_or(pn);
    let mut state = State {
        pattern,
        target,
        order,
        tail_start,
        mapping: vec![u32::MAX; pn],
        used: vec![false; tn],
        visit,
        found: 0,
        max_results,
        limit: max_results.saturating_add(1),
        nodes: 0,
    };
    state.search(0);
    let visited = state.found.min(max_results) as u64;
    let outcome = if state.found > max_results {
        SearchOutcome::Truncated {
            explored: state.nodes,
        }
    } else {
        SearchOutcome::Complete
    };
    (visited, outcome)
}

/// Returns true if at least one embedding of `pattern` into `target` exists.
pub fn is_embeddable(pattern: &Topology, target: &Topology) -> bool {
    !enumerate_subgraph_isomorphisms(pattern, target, 1).is_empty()
}

/// Computes a matching order: vertices sorted so that every vertex after the
/// first of its connected component has at least one earlier neighbor.
/// Components are visited by descending maximum degree, which narrows the
/// candidate sets early and puts every isolated vertex after all the
/// others (VF2's closed-form tails rely on that). Shared with
/// [`crate::fdls`] so both engines walk the same search tree shape (their
/// embedding *sets* must agree whenever FDLS runs unbudgeted).
pub(crate) fn matching_order(pattern: &Topology) -> Vec<u32> {
    let n = pattern.num_qubits();
    let mut order = Vec::with_capacity(n as usize);
    let mut placed = vec![false; n as usize];
    loop {
        // Pick the highest-degree unplaced vertex as the next component seed.
        let seed = (0..n)
            .filter(|&v| !placed[v as usize])
            .max_by_key(|&v| pattern.degree(v));
        let Some(seed) = seed else { break };
        // Grow the component greedily: always add the unplaced vertex with
        // the most already-placed neighbors (ties broken by degree).
        placed[seed as usize] = true;
        order.push(seed);
        loop {
            let next = (0..n)
                .filter(|&v| !placed[v as usize])
                .map(|v| {
                    let placed_neighbors = pattern
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| placed[u as usize])
                        .count();
                    (placed_neighbors, pattern.degree(v), v)
                })
                .filter(|&(pn_count, _, _)| pn_count > 0)
                .max();
            match next {
                Some((_, _, v)) => {
                    placed[v as usize] = true;
                    order.push(v);
                }
                None => break,
            }
        }
    }
    order
}

struct State<'a, F: ?Sized> {
    pattern: &'a Topology,
    target: &'a Topology,
    order: Vec<u32>,
    /// Depth of the first isolated vertex in `order`.
    tail_start: usize,
    mapping: Vec<u32>,
    used: Vec<bool>,
    visit: &'a mut F,
    /// Embeddings found so far, the one past the cap included.
    found: usize,
    max_results: usize,
    /// `max_results + 1`: the search stops once it has found this many.
    limit: usize,
    /// Search-tree nodes expanded (candidate placements tried).
    nodes: u64,
}

impl<F: EmbeddingVisitor + ?Sized> State<'_, F> {
    fn search(&mut self, depth: usize) {
        if self.found >= self.limit {
            return;
        }
        if depth == self.order.len() {
            self.found += 1;
            if self.found <= self.max_results {
                self.visit.visit(&self.mapping);
            }
            return;
        }
        if depth >= self.tail_start && !self.visit.tail(&self.mapping, &self.used) {
            self.skip_tail(depth);
            return;
        }
        let v = self.order[depth];
        // Candidate targets: if v has mapped neighbors, candidates are the
        // target-neighbors of one mapped image (the smallest pruning set);
        // otherwise every unused target vertex, in ascending order either
        // way. Both are walked in place: every subtree below restores
        // `used`, so filtering it lazily sees the same set an up-front
        // collection would.
        let mapped_neighbor = self
            .pattern
            .neighbors(v)
            .iter()
            .find(|&&u| self.mapping[u as usize] != u32::MAX)
            .copied();
        let target = self.target;
        match mapped_neighbor {
            Some(u) => {
                for &t in target.neighbors(self.mapping[u as usize]) {
                    if self.try_candidate(depth, v, t) {
                        return;
                    }
                }
            }
            None => {
                for t in 0..target.num_qubits() {
                    if self.try_candidate(depth, v, t) {
                        return;
                    }
                }
            }
        }
    }

    /// Places pattern vertex `v` on target vertex `t` if that is feasible
    /// and searches below it. Returns true once the search is done.
    fn try_candidate(&mut self, depth: usize, v: u32, t: u32) -> bool {
        if self.used[t as usize] {
            return false;
        }
        // Feasibility: degree and full adjacency consistency.
        if self.target.degree(t) < self.pattern.degree(v) {
            return false;
        }
        for &u in self.pattern.neighbors(v) {
            let img = self.mapping[u as usize];
            if img != u32::MAX && !self.target.has_edge(t, img) {
                return false;
            }
        }
        self.nodes += 1;
        self.mapping[v as usize] = t;
        self.used[t as usize] = true;
        self.search(depth + 1);
        self.used[t as usize] = false;
        self.mapping[v as usize] = u32::MAX;
        self.found >= self.limit
    }

    /// Accounts for the subtree below `depth` as if it had been walked:
    /// the embeddings it holds (up to the search limit) and the nodes the
    /// walk would have expanded before finishing it or hitting the limit.
    fn skip_tail(&mut self, depth: usize) {
        let tail = Tail {
            free: (self.target.num_qubits() as usize - depth) as u128,
            levels: (self.order.len() - depth) as u128,
        };
        let room = (self.limit - self.found) as u128;
        let (leaves, nodes) = if tail.leaves() < room {
            (tail.leaves(), tail.nodes())
        } else {
            (room, tail.nodes_through(room - 1))
        };
        // `leaves <= room`, so this stays within `limit`.
        self.found += leaves as usize;
        self.nodes = self
            .nodes
            .saturating_add(u64::try_from(nodes).unwrap_or(u64::MAX));
    }
}

/// A subtree that places `levels` isolated pattern vertices on `free`
/// unused target vertices. Each level tries every free target in
/// ascending order, so the subtree is a complete tree of arrangements and
/// its counts have closed forms in the falling factorial
/// `P(n, k) = n! / (n - k)!`. Counts saturate at `u128::MAX`.
#[derive(Debug, Clone, Copy)]
struct Tail {
    free: u128,
    levels: u128,
}

impl Tail {
    /// Embeddings in the subtree: `P(free, levels)`.
    fn leaves(self) -> u128 {
        falling(self.free, self.levels)
    }

    /// Nodes a full walk expands: `Σ_{j=1..levels} P(free, j)`.
    fn nodes(self) -> u128 {
        (1..=self.levels).fold(0u128, |sum, j| sum.saturating_add(falling(self.free, j)))
    }

    /// Nodes a walk expands up to and including the leaf with 0-based
    /// index `leaf`: a node at level `j` heads `P(free - j, levels - j)`
    /// consecutive leaves, so `⌊leaf / P(free - j, levels - j)⌋ + 1` of
    /// them are expanded by then.
    fn nodes_through(self, leaf: u128) -> u128 {
        (1..=self.levels).fold(0u128, |sum, j| {
            let below = falling(self.free - j, self.levels - j);
            sum.saturating_add(leaf / below + 1)
        })
    }
}

/// The falling factorial `P(n, k) = n (n - 1) ... (n - k + 1)`,
/// saturating at `u128::MAX`.
fn falling(n: u128, k: u128) -> u128 {
    (0..k).fold(1u128, |p, i| p.saturating_mul(n - i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::Topology;

    fn check_valid(pattern: &Topology, target: &Topology, phi: &[u32]) {
        // Injective.
        let mut seen = std::collections::BTreeSet::new();
        for &t in phi {
            assert!(seen.insert(t), "mapping not injective: {phi:?}");
        }
        // Edge-preserving.
        for e in pattern.edges() {
            assert!(
                target.has_edge(phi[e.lo() as usize], phi[e.hi() as usize]),
                "edge {e} not preserved by {phi:?}"
            );
        }
    }

    #[test]
    fn path_into_line_counts() {
        let pattern = presets::line(3);
        let target = presets::line(5);
        let found = enumerate_subgraph_isomorphisms(&pattern, &target, usize::MAX);
        // Three start positions, two directions each.
        assert_eq!(found.len(), 6);
        for phi in &found {
            check_valid(&pattern, &target, phi);
        }
    }

    #[test]
    fn path_into_ring_counts() {
        let pattern = presets::line(3);
        let target = presets::ring(6);
        let found = enumerate_subgraph_isomorphisms(&pattern, &target, usize::MAX);
        // 6 start positions * 2 directions.
        assert_eq!(found.len(), 12);
    }

    #[test]
    fn triangle_does_not_embed_into_tree() {
        let triangle = presets::ring(3);
        let tree = presets::line(5);
        assert!(!is_embeddable(&triangle, &tree));
        assert!(enumerate_subgraph_isomorphisms(&triangle, &tree, usize::MAX).is_empty());
    }

    #[test]
    fn triangle_embeds_into_dense_graph() {
        let triangle = presets::ring(3);
        let target = presets::tokyo20();
        assert!(is_embeddable(&triangle, &target));
    }

    #[test]
    fn star_requires_degree() {
        // A 4-star (center + 3 leaves) cannot embed into a line (max degree 2)
        let star = Topology::new(4, &[(0, 1), (0, 2), (0, 3)]);
        assert!(!is_embeddable(&star, &presets::line(10)));
        // ... but embeds into melbourne (degree-3 vertices exist).
        assert!(is_embeddable(&star, &presets::melbourne14()));
    }

    #[test]
    fn max_results_caps_enumeration() {
        let pattern = presets::line(2);
        let target = presets::melbourne14();
        let found = enumerate_subgraph_isomorphisms(&pattern, &target, 5);
        assert_eq!(found.len(), 5);
    }

    #[test]
    fn cap_hit_is_reported_not_silent() {
        let pattern = presets::line(2);
        let target = presets::melbourne14(); // 18 edges -> 36 embeddings
        let clipped = enumerate(&pattern, &target, 5);
        assert_eq!(clipped.embeddings.len(), 5);
        assert!(matches!(
            clipped.outcome,
            SearchOutcome::Truncated { explored } if explored > 0
        ));
        // A cap exactly at the pool size is not a truncation.
        let exact = enumerate(&pattern, &target, 36);
        assert_eq!(exact.embeddings.len(), 36);
        assert!(exact.is_complete());
        let all = enumerate(&pattern, &target, usize::MAX);
        assert!(all.is_complete());
        assert_eq!(all.embeddings.len(), 36);
    }

    #[test]
    fn pattern_larger_than_target_is_empty() {
        assert!(
            enumerate_subgraph_isomorphisms(&presets::line(5), &presets::line(4), 10).is_empty()
        );
    }

    #[test]
    fn empty_pattern_has_single_empty_embedding() {
        let empty = Topology::new(0, &[]);
        let found = enumerate_subgraph_isomorphisms(&empty, &presets::line(3), usize::MAX);
        assert_eq!(found, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn isolated_vertices_map_anywhere_unused() {
        // Pattern: one edge + one isolated vertex, into a line of 3.
        let pattern = Topology::new(3, &[(0, 1)]);
        let target = presets::line(3);
        let found = enumerate_subgraph_isomorphisms(&pattern, &target, usize::MAX);
        for phi in &found {
            check_valid(&pattern, &target, phi);
        }
        // Edge (0,1) can sit on (0,1),(1,0),(1,2),(2,1); vertex 2 takes the
        // remaining spot: 4 embeddings.
        assert_eq!(found.len(), 4);
    }

    #[test]
    fn embeddings_into_melbourne_are_valid() {
        // BV-6-like star-ish interaction pattern.
        let pattern = Topology::new(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let target = presets::melbourne14();
        let found = enumerate_subgraph_isomorphisms(&pattern, &target, usize::MAX);
        assert!(!found.is_empty());
        for phi in &found {
            check_valid(&pattern, &target, phi);
        }
    }

    #[test]
    fn all_embeddings_distinct() {
        let pattern = presets::line(4);
        let target = presets::melbourne14();
        let found = enumerate_subgraph_isomorphisms(&pattern, &target, usize::MAX);
        let mut set = std::collections::BTreeSet::new();
        for phi in &found {
            assert!(set.insert(phi.clone()), "duplicate embedding {phi:?}");
        }
    }
}
