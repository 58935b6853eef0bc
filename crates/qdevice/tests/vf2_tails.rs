//! VF2's closed-form tails: a visitor that declines isolated-vertex
//! subtrees must leave the search outcome (`explored` included), the
//! telemetry counters and the order of the embeddings it does see exactly
//! as a visitor that walks every tail.
//!
//! The counters are process-wide, so this file holds a single test: no
//! other search runs while it reads their deltas.

use proptest::prelude::*;
use qdevice::mapper::{self, EmbeddingVisitor, MapperSelection, SearchOutcome};
use qdevice::{presets, Topology};

/// Patterns are shrunk until the unpruned walk stays this small.
const MAX_POOL: u64 = 40_000;

fn counter(name: &'static str) -> u64 {
    edm_telemetry::metrics::registry().counter(name, "").get()
}

/// What one search reports: the embeddings `visit` saw, the outcome, and
/// the VF2 embedding and cap-hit counter deltas.
#[derive(Debug, PartialEq)]
struct Run {
    seen: Vec<Vec<u32>>,
    outcome: SearchOutcome,
    embeddings: u64,
    cap_hits: u64,
}

/// Which tails a visitor declines.
#[derive(Debug, Clone, Copy)]
enum Hook {
    KeepAll,
    DeclineAll,
    /// Declines the tails whose partial assignment hashes to 0 mod 3.
    DeclineByHash,
}

struct Collector {
    hook: Hook,
    seen: Vec<Vec<u32>>,
}

impl EmbeddingVisitor for Collector {
    fn visit(&mut self, phi: &[u32]) {
        self.seen.push(phi.to_vec());
    }

    fn tail(&mut self, partial: &[u32], used: &[bool]) -> bool {
        let placed = partial.iter().filter(|&&p| p != u32::MAX).count();
        assert_eq!(placed, used.iter().filter(|&&u| u).count());
        match self.hook {
            Hook::KeepAll => true,
            Hook::DeclineAll => false,
            Hook::DeclineByHash => {
                let h = partial.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &p| {
                    (h ^ u64::from(p)).wrapping_mul(0x0000_0100_0000_01b3)
                });
                h % 3 != 0
            }
        }
    }
}

fn run(pattern: &Topology, target: &Topology, cap: usize, hook: Hook) -> Run {
    let (embeddings, cap_hits) = (
        counter("edm_qdevice_vf2_embeddings_total"),
        counter("edm_qdevice_vf2_cap_hits_total"),
    );
    let mut collector = Collector {
        hook,
        seen: Vec::new(),
    };
    let outcome = mapper::for_each_embedding(
        pattern,
        target,
        cap,
        MapperSelection::Exhaustive,
        &mut collector as &mut dyn EmbeddingVisitor,
    );
    Run {
        seen: collector.seen,
        outcome,
        embeddings: counter("edm_qdevice_vf2_embeddings_total") - embeddings,
        cap_hits: counter("edm_qdevice_vf2_cap_hits_total") - cap_hits,
    }
}

/// A connected part of `size` vertices (a path plus extra edges) and
/// `isolated` more vertices without edges, numbered in a scrambled order
/// so the isolated ones are not simply the last indices.
fn pattern(size: u32, extra: &[(u32, u32)], isolated: u32, shift: u32) -> Topology {
    let n = size + isolated;
    let label = |v: u32| (v + shift) % n;
    let mut edges: Vec<(u32, u32)> = (1..size).map(|v| (label(v - 1), label(v))).collect();
    for &(a, b) in extra {
        if size > 0 && a % size != b % size {
            edges.push((label(a % size), label(b % size)));
        }
    }
    Topology::new(n, &edges)
}

/// True when `sub` is an in-order subsequence of `full`.
fn is_subsequence(sub: &[Vec<u32>], full: &[Vec<u32>]) -> bool {
    let mut rest = full.iter();
    sub.iter().all(|phi| rest.any(|f| f == phi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn declined_tails_leave_outcome_counters_and_order_unchanged(
        tokyo in 0u32..2,
        size in prop_oneof![Just(0u32), 2u32..5],
        extra in proptest::collection::vec((0u32..4, 0u32..4), 0..3),
        isolated in 0u32..5,
        shift in 0u32..8,
    ) {
        edm_telemetry::set_enabled(true);
        let target = if tokyo == 1 { presets::tokyo20() } else { presets::melbourne14() };
        // Fewer isolated vertices until the full walk is affordable; a
        // declining visitor measures the pool without walking it.
        let mut isolated = isolated;
        let (p, pool) = loop {
            let p = pattern(size, &extra, isolated, shift);
            let pool = run(&p, &target, usize::MAX, Hook::DeclineAll).embeddings;
            if pool <= MAX_POOL || isolated == 0 {
                break (p, pool as usize);
            }
            isolated -= 1;
        };
        let caps = [0, 1, pool / 3, pool / 2, pool.saturating_sub(1), pool, pool + 1, usize::MAX];
        for cap in caps {
            let full = run(&p, &target, cap, Hook::KeepAll);
            prop_assert_eq!(full.embeddings as usize, full.seen.len());
            prop_assert_eq!(full.seen.len(), pool.min(cap));
            for hook in [Hook::DeclineAll, Hook::DeclineByHash] {
                let pruned = run(&p, &target, cap, hook);
                prop_assert_eq!(pruned.outcome, full.outcome, "cap {} {:?}", cap, hook);
                prop_assert_eq!(pruned.embeddings, full.embeddings, "cap {} {:?}", cap, hook);
                prop_assert_eq!(pruned.cap_hits, full.cap_hits, "cap {} {:?}", cap, hook);
                prop_assert!(is_subsequence(&pruned.seen, &full.seen), "cap {} {:?}", cap, hook);
                if isolated == 0 {
                    // No tails: nothing can be declined.
                    prop_assert_eq!(&pruned.seen, &full.seen);
                }
            }
        }
    }
}
