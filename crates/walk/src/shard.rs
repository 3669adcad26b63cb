//! Shard-local walk stepping: the distributed half of [`crate::WalkEngine::step`].
//!
//! A k-machine shard owns a subset of the vertices ([`cdrw_graph::SubCsr`])
//! and holds, in an ordinary [`WalkWorkspace`], the restriction of a walk's
//! distribution to its owned vertices. One global walk step then splits into
//! two shard-local halves with a message exchange in between:
//!
//! 1. [`emit_step_deltas`] — every shard scans its owned support in ascending
//!    order and *emits* the same mass contributions the sequential step would
//!    accumulate: the zero-degree self-keep, the lazy self-share, and one
//!    `p·(1−α)/d(u)` share per incident edge (`p·(1−α)·w(u,v)/w(u)` when the
//!    graph carries a weight lane). Each contribution is a [`MassDelta`]
//!    addressed to the (possibly remote) target vertex.
//! 2. [`absorb_step_runs`] — every shard collects the deltas addressed to
//!    its owned vertices (one run per sender, itself included), merges the
//!    runs by source, and adds each delta into a zeroed accumulator exactly
//!    as the sequential kernel does. [`absorb_step_deltas`] absorbs one
//!    flat slice instead, e.g. deltas sorted by [`sort_step_deltas`].
//!
//! ## Why the result is bit-identical
//!
//! The sequential [`crate::WalkEngine::step`] iterates the ascending support,
//! so the additions into `next[v]` happen in ascending *source* order for
//! every target `v` (the self-contribution of `v` occurring at source
//! position `v` itself), into an accumulator that starts at `0.0`. The
//! emitted deltas carry their source. Shard supports partition the global
//! support and each shard emits its sources ascending, so every sender's
//! bucket is a run ascending by source, and the runs' sources are disjoint:
//! a k-way merge of the runs by source hands every target its deltas in
//! ascending source order — the same f64 additions in the same order, into
//! the same zeroed accumulator. Only that per-target order matters; how the
//! targets interleave does not, which is why the `(target, source)` order
//! of [`sort_step_deltas`] is accepted too (the graph is simple, so a
//! target never receives two deltas from one source in a step). The
//! property tests in this module pin both absorb paths against
//! [`crate::WalkEngine::step`] over arbitrary graphs and arbitrary
//! partitions.
//!
//! Message accounting: an edge contribution is one CONGEST message whether or
//! not the endpoints share a shard (the model charges every vertex-to-vertex
//! send), and edge *weights* never change the count — a weighted share is
//! still one message; the self-contributions are local state updates and
//! free. The count
//! [`emit_step_deltas`] returns is therefore exactly the per-step cost
//! `Σ_{u ∈ support, p(u) > 0} d(u)` of
//! `cdrw_congest::primitives::sparse_walk_step_cost` — the conformance
//! identity `cdrw-kmachine` asserts per round.

use cdrw_graph::{SubCsr, VertexId};

use crate::engine::{accumulate, WalkWorkspace};
use crate::mask::BitMask;

/// One probability-mass contribution of a walk step, addressed to `target`
/// and attributed to the owned vertex `source` that emitted it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MassDelta {
    /// Global vertex receiving the mass.
    pub target: VertexId,
    /// Global vertex that emitted the mass (ordering key for bit-identical
    /// accumulation).
    pub source: VertexId,
    /// The contributed mass.
    pub mass: f64,
}

/// Emits the contributions of one walk step from this shard's owned support.
///
/// `workspace` holds the shard-local restriction of the walk: its support
/// must contain only vertices owned by `sub` (ascending, as maintained by
/// [`absorb_step_deltas`] and [`WalkWorkspace::load_point_mass`]). Deltas are
/// appended to `out` in emission order — ascending source, self-contribution
/// before edge shares — ready to be bucketed by the target's home shard.
///
/// Returns the number of *edge* contributions emitted (self-keeps and lazy
/// shares are local and free): the shard's share of the CONGEST per-step
/// message cost.
///
/// # Panics
///
/// Panics (debug only) if a support vertex is not owned by `sub`.
pub fn emit_step_deltas(
    sub: &SubCsr,
    laziness: f64,
    workspace: &WalkWorkspace,
    out: &mut Vec<MassDelta>,
) -> u64 {
    let move_fraction = 1.0 - laziness;
    let mass = workspace.as_slice();
    let mut messages = 0u64;
    for &u in workspace.support() {
        let p = mass[u];
        if p == 0.0 {
            // Mirrors the sequential skip: an underflowed vertex neither
            // sends nor counts.
            continue;
        }
        let i = sub
            .local_of(u)
            .expect("shard workspace support must be owned by the shard");
        let degree = sub.degree(i);
        if degree == 0 {
            out.push(MassDelta {
                target: u,
                source: u,
                mass: p,
            });
            continue;
        }
        if laziness > 0.0 {
            out.push(MassDelta {
                target: u,
                source: u,
                mass: p * laziness,
            });
        }
        let share = p * move_fraction / sub.weighted_degree(i);
        match sub.weight_slice(i) {
            None => {
                for &v in sub.neighbor_slice(i) {
                    out.push(MassDelta {
                        target: v,
                        source: u,
                        mass: share,
                    });
                }
            }
            Some(row_weights) => {
                for (&v, &w) in sub.neighbor_slice(i).iter().zip(row_weights) {
                    out.push(MassDelta {
                        target: v,
                        source: u,
                        mass: share * w,
                    });
                }
            }
        }
        // One CONGEST message per edge traversal regardless of weight: the
        // cost model stays structural.
        messages += degree as u64;
    }
    messages
}

/// Sorts a round's collected deltas by `(target, source)`, an order
/// [`absorb_step_deltas`] accepts.
///
/// On a simple graph the `(target, source)` pairs of one step are unique, so
/// an unstable sort is deterministic here. The sharded runtime does not
/// need it: merging the senders' runs by source ([`absorb_step_runs`])
/// yields an accepted order without a sort.
pub fn sort_step_deltas(deltas: &mut [MassDelta]) {
    deltas.sort_unstable_by_key(|d| (d.target, d.source));
}

/// Absorbs one round of collected deltas into the shard's workspace,
/// completing the walk step for the owned vertices.
///
/// `deltas` must contain exactly the contributions addressed to vertices
/// owned by this shard, and for every target its sources must be strictly
/// ascending — as after [`sort_step_deltas`], or in the source-merged order
/// [`absorb_step_runs`] produces. That per-target order is the sequential
/// kernel's accumulation order, and the workspace's support/mask/buffers
/// are cycled exactly as [`crate::WalkEngine::step`] cycles them — so after
/// every shard absorbs, the shard-local distributions concatenate to the
/// sequential step's result bit for bit.
///
/// # Panics
///
/// Panics (debug only) if some target's sources are not strictly
/// ascending.
pub fn absorb_step_deltas(workspace: &mut WalkWorkspace, deltas: &[MassDelta]) {
    absorb(workspace, |acc| deltas.iter().for_each(|d| acc.add(d)));
}

/// Absorbs one round delivered as per-sender runs, merging them by source
/// on the fly instead of sorting.
///
/// Each run is one sender's bucket for this shard in emission order, so it
/// is ascending by source, and senders own disjoint sources. The k-way
/// merge by source ([`merge_runs_by_key`]) therefore hands every target its
/// contributions in ascending source order — the order
/// [`absorb_step_deltas`] requires — at `O(k)` per run switch rather than
/// `O(log)` per delta.
///
/// # Panics
///
/// Panics (debug only) if the runs break that contract, i.e. if some
/// target's merged sources are not strictly ascending.
pub fn absorb_step_runs(workspace: &mut WalkWorkspace, runs: &[&[MassDelta]]) {
    absorb(workspace, |acc| {
        merge_runs_by_key(runs, |d| d.source, |d| acc.add(d))
    });
}

/// The absorb cycle shared by both entry points: `feed` hands every delta
/// of the round to the accumulator in accumulation order.
fn absorb(ws: &mut WalkWorkspace, feed: impl FnOnce(&mut Accumulator<'_>)) {
    ws.release_support_bits();
    let WalkWorkspace { next, mask, .. } = &mut *ws;
    feed(&mut Accumulator {
        next,
        mask,
        #[cfg(debug_assertions)]
        last_source: std::collections::HashMap::new(),
    });
    ws.finish_step();
}

/// Adds a round's deltas into a workspace's zeroed accumulator.
struct Accumulator<'w> {
    next: &'w mut [f64],
    mask: &'w mut BitMask,
    /// Last source seen per target, for the debug check of the absorb
    /// contract.
    #[cfg(debug_assertions)]
    last_source: std::collections::HashMap<VertexId, VertexId>,
}

impl Accumulator<'_> {
    #[inline]
    fn add(&mut self, d: &MassDelta) {
        #[cfg(debug_assertions)]
        if let Some(previous) = self.last_source.insert(d.target, d.source) {
            assert!(
                previous < d.source,
                "sources into target {} must be strictly ascending: {} then {}",
                d.target,
                previous,
                d.source
            );
        }
        accumulate(self.next, self.mask, d.target, d.mass);
    }
}

/// Merges runs that are each ascending by `key` into one ascending stream,
/// handing every element to `sink`; equal keys keep run order (the earlier
/// run first), so the merge is stable.
///
/// Each round picks the run with the smallest head and drains it up to the
/// smallest head of the other runs, so the cost is `O(k)` per switch
/// between runs plus `O(1)` per element — no sort, no heap. This is how the
/// sharded runtime combines per-shard pieces that are already ordered: the
/// shard worker's incoming delta buckets and the coordinator's gathered
/// supports.
pub fn merge_runs_by_key<'a, T, K: Ord>(
    runs: &[&'a [T]],
    key: impl Fn(&T) -> K,
    mut sink: impl FnMut(&'a T),
) {
    let mut runs: Vec<&'a [T]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    while !runs.is_empty() {
        let mut best = 0;
        for r in 1..runs.len() {
            if key(&runs[r][0]) < key(&runs[best][0]) {
                best = r;
            }
        }
        let bound = runs
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != best)
            .map(|(_, run)| key(&run[0]))
            .min();
        let run = runs[best];
        let take = 1 + run[1..]
            .iter()
            .take_while(|x| bound.as_ref().is_none_or(|b| key(x) < *b))
            .count();
        run[..take].iter().for_each(&mut sink);
        if take == run.len() {
            runs.remove(best);
        } else {
            runs[best] = &run[take..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalkEngine;
    use cdrw_graph::{Graph, GraphBuilder};
    use proptest::prelude::*;

    /// Steps `steps` rounds of the sharded protocol over `assignment` (every
    /// vertex's home among `k` shards) and checks every round's gathered
    /// state and message count against the sequential engine, absorbing each
    /// round two ways: the senders' runs merged by source, as the
    /// `cdrw-kmachine` shard worker does, and the `(target, source)`-sorted
    /// deltas, as the benchmark's traced replay does.
    fn check_sharded_equivalence(
        graph: &Graph,
        assignment: &[usize],
        k: usize,
        laziness: f64,
        steps: usize,
    ) {
        let n = graph.num_vertices();
        assert!(assignment.iter().all(|&m| m < k));
        let subs: Vec<SubCsr> = (0..k)
            .map(|m| {
                let owned: Vec<usize> = (0..n).filter(|&v| assignment[v] == m).collect();
                SubCsr::extract(graph, &owned, |v| assignment[v] == m)
            })
            .collect();

        let engine = WalkEngine::lazy(graph, laziness);
        let mut reference = engine.workspace();
        let seed = graph
            .vertices()
            .max_by_key(|&v| graph.degree(v))
            .expect("non-empty graph");
        reference.load_point_mass(seed).unwrap();

        let fresh_shards = || -> Vec<WalkWorkspace> {
            let mut shards: Vec<WalkWorkspace> =
                (0..k).map(|_| WalkWorkspace::with_len(n)).collect();
            shards[assignment[seed]].load_point_mass(seed).unwrap();
            shards
        };
        let mut merged_shards = fresh_shards();
        let mut sorted_shards = fresh_shards();

        for _ in 0..steps {
            // The modelled cost reads the pre-step global support.
            let expected_messages: u64 = reference
                .support()
                .iter()
                .filter(|&&u| reference.probability(u) > 0.0)
                .map(|&u| graph.degree(u) as u64)
                .sum();
            engine.step(&mut reference);

            for (source_merged, shards) in [(true, &mut merged_shards), (false, &mut sorted_shards)]
            {
                // Emit on every shard; `buckets[receiver][sender]` keeps each
                // sender's deltas for a receiver in emission order.
                let mut buckets: Vec<Vec<Vec<MassDelta>>> = vec![vec![Vec::new(); k]; k];
                let mut measured = 0u64;
                let mut emitted = Vec::new();
                for (m, ws) in shards.iter().enumerate() {
                    emitted.clear();
                    measured += emit_step_deltas(&subs[m], laziness, ws, &mut emitted);
                    for &d in &emitted {
                        buckets[assignment[d.target]][m].push(d);
                    }
                }
                assert_eq!(measured, expected_messages, "per-round message count");
                for (ws, inbox) in shards.iter_mut().zip(&buckets) {
                    if source_merged {
                        let runs: Vec<&[MassDelta]> = inbox.iter().map(Vec::as_slice).collect();
                        absorb_step_runs(ws, &runs);
                    } else {
                        let mut collected: Vec<MassDelta> = inbox.concat();
                        sort_step_deltas(&mut collected);
                        absorb_step_deltas(ws, &collected);
                    }
                }

                // Gather as the coordinator does — merge the ascending shard
                // supports — and compare with the sequential support, masses
                // bit for bit.
                let snapshots: Vec<Vec<(usize, f64)>> =
                    shards.iter().map(WalkWorkspace::snapshot_sparse).collect();
                let runs: Vec<&[(usize, f64)]> = snapshots.iter().map(Vec::as_slice).collect();
                let mut gathered = Vec::new();
                merge_runs_by_key(&runs, |&(v, _)| v, |&entry| gathered.push(entry));
                let expected: Vec<(usize, f64)> = reference.snapshot_sparse();
                assert_eq!(gathered.len(), expected.len(), "support size");
                for (&(gv, gp), &(ev, ep)) in gathered.iter().zip(&expected) {
                    assert_eq!(gv, ev, "support vertex");
                    assert_eq!(gp.to_bits(), ep.to_bits(), "mass at vertex {gv}");
                }
            }
        }
    }

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn two_shards_on_a_path_match_the_sequential_step() {
        let g = path(8);
        let assignment = [0usize, 1, 0, 1, 0, 1, 0, 1];
        check_sharded_equivalence(&g, &assignment, 2, 0.0, 6);
    }

    #[test]
    fn lazy_walk_self_share_orders_before_edge_shares() {
        let g = path(6);
        let assignment = [0usize, 0, 1, 1, 2, 2];
        check_sharded_equivalence(&g, &assignment, 3, 0.4, 5);
    }

    #[test]
    fn single_shard_degenerates_to_the_sequential_step() {
        let g = path(5);
        check_sharded_equivalence(&g, &[0, 0, 0, 0, 0], 1, 0.0, 4);
    }

    #[test]
    fn weighted_shards_match_the_sequential_step_with_structural_messages() {
        let mut b = GraphBuilder::new(7);
        for (u, v, w) in [
            (0usize, 1usize, 2.0),
            (1, 2, 0.5),
            (2, 3, 1.25),
            (3, 4, 3.0),
            (4, 5, 0.75),
            (5, 6, 2.5),
            (6, 0, 1.0),
            (1, 5, 4.0),
        ] {
            b.add_weighted_edge(u, v, w).unwrap();
        }
        let g = b.build();
        let assignment = [0usize, 1, 2, 0, 1, 2, 0];
        check_sharded_equivalence(&g, &assignment, 3, 0.0, 6);
        check_sharded_equivalence(&g, &assignment, 3, 0.4, 5);
    }

    #[test]
    fn isolates_keep_their_mass_locally() {
        // Vertex 3 is isolated; a walk seeded there stays put and emits no
        // messages.
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let sub = SubCsr::extract(&g, &[3], |v| v == 3);
        let mut ws = WalkWorkspace::with_len(4);
        ws.load_point_mass(3).unwrap();
        let mut out = Vec::new();
        let messages = emit_step_deltas(&sub, 0.0, &ws, &mut out);
        assert_eq!(messages, 0);
        assert_eq!(
            out,
            vec![MassDelta {
                target: 3,
                source: 3,
                mass: 1.0
            }]
        );
        sort_step_deltas(&mut out);
        absorb_step_deltas(&mut ws, &out);
        assert_eq!(ws.support(), &[3]);
        assert_eq!(ws.probability(3), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn absorb_rejects_descending_sources_into_one_target() {
        let mut ws = WalkWorkspace::with_len(4);
        ws.load_point_mass(0).unwrap();
        let delta = |source| MassDelta {
            target: 2,
            source,
            mass: 0.5,
        };
        absorb_step_deltas(&mut ws, &[delta(3), delta(1)]);
    }

    proptest! {
        /// The sharded step protocol is bit-identical to the sequential
        /// engine over arbitrary graphs, arbitrary shard assignments for
        /// k ∈ {1, 2, 3, 8}, both walk variants, and multiple steps — with
        /// the rounds absorbed both source-merged and sorted.
        #[test]
        fn sharded_steps_match_sequential_on_arbitrary_graphs(
            edges in proptest::collection::vec((0usize..14, 0usize..14), 1..60),
            assignment in proptest::collection::vec(0usize..8, 14),
            k_index in 0usize..4,
            lazy in 0usize..2,
            steps in 1usize..6,
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = GraphBuilder::from_edges(14, clean).unwrap();
            let k = [1usize, 2, 3, 8][k_index];
            let assignment: Vec<usize> = assignment.iter().map(|&m| m % k).collect();
            let laziness = if lazy == 1 { 0.5 } else { 0.0 };
            check_sharded_equivalence(&graph, &assignment, k, laziness, steps);
        }

        /// The k-way merge equals a stable sort of the concatenated runs.
        #[test]
        fn merge_runs_matches_a_stable_sort(
            raw in proptest::collection::vec(proptest::collection::vec(0u8..12, 0..10), 0..6),
        ) {
            let runs: Vec<Vec<(u8, usize, usize)>> = raw
                .iter()
                .enumerate()
                .map(|(r, keys)| {
                    let mut keys = keys.clone();
                    keys.sort_unstable();
                    keys.into_iter().enumerate().map(|(i, key)| (key, r, i)).collect()
                })
                .collect();
            let slices: Vec<&[(u8, usize, usize)]> = runs.iter().map(Vec::as_slice).collect();
            let mut merged = Vec::new();
            merge_runs_by_key(&slices, |&(key, _, _)| key, |&x| merged.push(x));
            let mut expected = runs.concat();
            expected.sort_by_key(|&(key, _, _)| key);
            prop_assert_eq!(merged, expected);
        }
    }
}
