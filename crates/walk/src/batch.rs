//! Batched multi-walk stepping: K independent walks, one CSR traversal.
//!
//! The ensemble and assembly layers of `cdrw-core` run several independent
//! walks per detection (follow-up walks re-seeded from a detection's
//! interior, cross-detection re-seed walks per merged evidence group). Run
//! one at a time, every walk re-traverses the same adjacency lists alone, so
//! the graph's CSR is streamed through the cache K times per logical step.
//! [`WalkBatch`] steps all K walks in lockstep instead: one pass over the
//! union of the lanes' supports reads each adjacency list once and pushes
//! probability for every lane that holds mass on the vertex.
//!
//! Batching is purely a physical-machine optimisation — each lane's
//! distribution evolves **bit-identically** to a solo
//! [`crate::WalkEngine::step`]:
//!
//! * the union of the per-lane supports — the OR of the lanes' bit masks,
//!   scanned once, so no sort or dedup — is iterated in ascending vertex
//!   order, so each lane's contributors are processed in exactly the
//!   order its solo step would process them (union vertices outside a lane's
//!   support carry `0.0` there and are skipped, just like the solo step skips
//!   underflowed support entries);
//! * accumulation into each lane's double buffer uses the same bit-masked
//!   [`accumulate`](crate::WalkEngine::step) helper, so the per-vertex sums
//!   are performed in the same order with the same operands, and each lane
//!   reads its new support off its own mask exactly as the solo step does.
//!
//! Physically, each lane is struct-of-arrays: two contiguous `f64` mass
//! planes plus a one-bit-per-vertex membership mask (see the
//! [`crate::WalkEngine`] module docs for the per-vertex memory table). The
//! stepping loop hoists the active lanes into one compact scratch table up
//! front, so the hot per-union-vertex scan touches exactly the lanes that
//! step — no per-`(vertex, lane)` activity branch, and the lane state the
//! scan reads (mass plane pointer, mask words) stays hot across union
//! vertices. The pre-mask layout and loop structure are preserved in
//! [`crate::stamp_reference`] as the correctness and perf rail.
//!
//! A property test pins `step_batch` against per-lane solo steps bit for bit
//! (distributions *and* supports), and `cdrw-core` pins the batched ensemble
//! against a sequential reference. Lanes can be deactivated mid-flight
//! ([`WalkBatch::set_active`]) — a walk whose growth rule fired stops paying
//! for steps while the rest of the batch walks on.
//!
//! # Examples
//!
//! ```
//! use cdrw_gen::special;
//! use cdrw_walk::{WalkBatch, WalkEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (graph, _truth) = special::ring_of_cliques(4, 32)?;
//! let engine = WalkEngine::new(&graph);
//! let mut batch = WalkBatch::for_graph(&graph);
//! batch.load_point_masses(&[3, 40, 70])?;
//! for _ in 0..4 {
//!     engine.step_batch(&mut batch);
//! }
//! // Each lane evolved exactly as a solo walk from its seed would have.
//! let mut solo = engine.workspace();
//! solo.load_point_mass(3)?;
//! for _ in 0..4 {
//!     engine.step(&mut solo);
//! }
//! assert_eq!(batch.lane(0).as_slice(), solo.as_slice());
//! # Ok(())
//! # }
//! ```

use cdrw_graph::{Graph, VertexId};

use crate::engine::accumulate;
use crate::mask::append_ones;
use crate::{WalkEngine, WalkError, WalkWorkspace};

/// A bank of reusable walk workspaces stepped in lockstep by
/// [`WalkEngine::step_batch`].
///
/// Like [`WalkWorkspace`], a batch is sized for one graph and allocated once
/// per driver: lanes are grown on demand ([`WalkBatch::ensure_lanes`]) and
/// re-seeded with [`WalkBatch::load_point_masses`] for every detection, so
/// the steady-state per-detection cost is the walks themselves.
#[derive(Debug, Clone)]
pub struct WalkBatch {
    /// One full [`WalkWorkspace`] per lane (each lane also owns its own sweep
    /// scratch, so [`WalkEngine::sweep`] runs per lane without interference).
    lanes: Vec<WalkWorkspace>,
    /// Which lanes the next [`WalkEngine::step_batch`] advances.
    active: Vec<bool>,
    /// Scratch: ascending union of the active lanes' supports.
    union: Vec<VertexId>,
    /// Scratch: the OR of the active lanes' mask words.
    union_words: Vec<u64>,
    /// Number of vertices every lane is sized for.
    len: usize,
}

impl WalkBatch {
    /// Creates an empty batch (no lanes yet) over `n` vertices.
    pub fn with_len(n: usize) -> Self {
        WalkBatch {
            lanes: Vec::new(),
            active: Vec::new(),
            union: Vec::new(),
            union_words: Vec::new(),
            len: n,
        }
    }

    /// Creates an empty batch sized for `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        Self::with_len(graph.num_vertices())
    }

    /// Number of vertices each lane covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of lanes currently allocated.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of lanes the next step will advance.
    pub fn active_lanes(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Grows the batch to at least `count` lanes (never shrinks — lane
    /// buffers are the reusable resource).
    pub fn ensure_lanes(&mut self, count: usize) {
        while self.lanes.len() < count {
            self.lanes.push(WalkWorkspace::with_len(self.len));
            self.active.push(false);
        }
    }

    /// The workspace of lane `index`.
    ///
    /// # Panics
    ///
    /// Panics if the lane does not exist.
    pub fn lane(&self, index: usize) -> &WalkWorkspace {
        &self.lanes[index]
    }

    /// Mutable access to lane `index` (e.g. to run [`WalkEngine::sweep`] on
    /// its current distribution).
    ///
    /// # Panics
    ///
    /// Panics if the lane does not exist.
    pub fn lane_mut(&mut self, index: usize) -> &mut WalkWorkspace {
        &mut self.lanes[index]
    }

    /// Whether lane `index` is advanced by the next step (`false` for
    /// out-of-range lanes).
    pub fn is_active(&self, index: usize) -> bool {
        self.active.get(index).copied().unwrap_or(false)
    }

    /// Activates or deactivates lane `index`. Deactivated lanes keep their
    /// state frozen — re-activating resumes from where they stopped.
    ///
    /// # Panics
    ///
    /// Panics if the lane does not exist.
    pub fn set_active(&mut self, index: usize, active: bool) {
        self.active[index] = active;
    }

    /// Re-seeds the first `seeds.len()` lanes with point masses and activates
    /// them; any further lanes are deactivated. Grows the batch as needed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WalkWorkspace::load_point_mass`]; lanes seeded
    /// before the failing one keep their new state.
    pub fn load_point_masses(&mut self, seeds: &[VertexId]) -> Result<(), WalkError> {
        self.ensure_lanes(seeds.len());
        for (index, &seed) in seeds.iter().enumerate() {
            self.lanes[index].load_point_mass(seed)?;
            self.active[index] = true;
        }
        for index in seeds.len()..self.lanes.len() {
            self.active[index] = false;
        }
        Ok(())
    }
}

impl WalkEngine<'_> {
    /// Applies one walk step to every active lane of the batch, reading each
    /// adjacency list once for all lanes.
    ///
    /// Each lane's resulting distribution and support are bit-identical to a
    /// solo [`WalkEngine::step`] on that lane (see the
    /// [module documentation](crate::batch)); inactive lanes are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the batch was sized for a different graph.
    pub fn step_batch(&self, batch: &mut WalkBatch) {
        let graph = self.graph();
        assert_eq!(
            batch.len(),
            graph.num_vertices(),
            "batch is over {} vertices but the graph has {}",
            batch.len(),
            graph.num_vertices()
        );
        let laziness = self.laziness();
        let move_fraction = 1.0 - laziness;
        let batch_len = batch.len;
        let WalkBatch {
            lanes,
            active,
            union,
            union_words,
            ..
        } = batch;

        // Hoist the active lanes into one compact scratch table: the hot
        // per-union-vertex scan below then iterates exactly the lanes that
        // step, with no activity branch per `(vertex, lane)` pair, and the
        // per-lane state it reads stays hot across union vertices.
        let mut live: Vec<&mut WalkWorkspace> = lanes
            .iter_mut()
            .zip(active.iter())
            .filter_map(|(ws, &is_active)| is_active.then_some(ws))
            .collect();

        // The union of the active supports, ascending: every lane's own
        // support is a subsequence, so per-lane contributor order matches the
        // solo step exactly. Each lane's mask is its support, so the union is
        // the OR of the live masks' words, read back in ascending order.
        union_words.clear();
        union_words.resize(batch_len.div_ceil(u64::BITS as usize), 0);
        for ws in live.iter() {
            for (acc, &word) in union_words.iter_mut().zip(ws.mask.words()) {
                *acc |= word;
            }
        }
        union.clear();
        append_ones(union_words, union);

        // Release each live lane's outgoing mask bits (the batched analogue
        // of the solo step's up-front bit clears).
        for ws in live.iter_mut() {
            ws.release_support_bits();
        }

        for &u in union.iter() {
            let degree = graph.degree(u);
            let weighted_degree = graph.weighted_degree(u);
            let neighbors = graph.neighbor_slice(u);
            let row_weights = graph.weight_slice(u);
            for ws in live.iter_mut() {
                let WalkWorkspace {
                    current,
                    next,
                    mask,
                    ..
                } = &mut **ws;
                let p = current[u];
                if p == 0.0 {
                    // Outside this lane's support — or an underflowed support
                    // entry, which the solo step also skips.
                    continue;
                }
                if degree == 0 {
                    accumulate(next, mask, u, p);
                    continue;
                }
                if laziness > 0.0 {
                    accumulate(next, mask, u, p * laziness);
                }
                let share = p * move_fraction / weighted_degree;
                match row_weights {
                    None => {
                        for &v in neighbors {
                            accumulate(next, mask, v, share);
                        }
                    }
                    Some(row_weights) => {
                        for (&v, &w) in neighbors.iter().zip(row_weights) {
                            accumulate(next, mask, v, share * w);
                        }
                    }
                }
            }
        }

        // Same epilogue as the solo step: restore the all-zero-outside-
        // support invariant, promote the accumulator, read the support off
        // the mask.
        for ws in live.iter_mut() {
            ws.finish_step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::GraphBuilder;

    #[test]
    fn batch_accessors_and_lane_growth() {
        let mut batch = WalkBatch::with_len(6);
        assert_eq!(batch.len(), 6);
        assert!(!batch.is_empty());
        assert!(WalkBatch::with_len(0).is_empty());
        assert_eq!(batch.lanes(), 0);
        assert_eq!(batch.active_lanes(), 0);
        assert!(!batch.is_active(0));
        batch.ensure_lanes(3);
        assert_eq!(batch.lanes(), 3);
        assert_eq!(batch.active_lanes(), 0);
        batch.ensure_lanes(1); // never shrinks
        assert_eq!(batch.lanes(), 3);
        batch.load_point_masses(&[1, 4]).unwrap();
        assert_eq!(batch.active_lanes(), 2);
        assert!(batch.is_active(0) && batch.is_active(1) && !batch.is_active(2));
        assert_eq!(batch.lane(1).support(), &[4]);
        batch.set_active(1, false);
        assert_eq!(batch.active_lanes(), 1);
        assert!(batch.load_point_masses(&[9]).is_err());
    }

    #[test]
    fn deactivated_lanes_are_frozen() {
        let g = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let engine = WalkEngine::new(&g);
        let mut batch = WalkBatch::for_graph(&g);
        batch.load_point_masses(&[0, 4]).unwrap();
        engine.step_batch(&mut batch);
        let frozen = batch.lane(1).as_slice().to_vec();
        batch.set_active(1, false);
        engine.step_batch(&mut batch);
        engine.step_batch(&mut batch);
        assert_eq!(batch.lane(1).as_slice(), frozen.as_slice());
        // Re-activating resumes the walk from the frozen state.
        batch.set_active(1, true);
        engine.step_batch(&mut batch);
        let mut solo = engine.workspace();
        solo.load_point_mass(4).unwrap();
        for _ in 0..2 {
            engine.step(&mut solo);
        }
        assert_eq!(batch.lane(1).as_slice(), solo.as_slice());
    }

    #[test]
    fn weighted_lanes_match_solo_weighted_walks() {
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in [
            (0usize, 1usize, 0.5),
            (1, 2, 2.0),
            (2, 3, 1.5),
            (3, 4, 4.0),
            (4, 5, 0.25),
            (5, 0, 3.0),
            (1, 4, 1.0),
        ] {
            b.add_weighted_edge(u, v, w).unwrap();
        }
        let g = b.build();
        let engine = WalkEngine::new(&g);
        let seeds = [0usize, 2, 5];
        let mut batch = WalkBatch::for_graph(&g);
        batch.load_point_masses(&seeds).unwrap();
        let mut solos: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let mut ws = engine.workspace();
                ws.load_point_mass(s).unwrap();
                ws
            })
            .collect();
        for _ in 0..6 {
            engine.step_batch(&mut batch);
            for (lane, solo) in solos.iter_mut().enumerate() {
                engine.step(solo);
                assert_eq!(batch.lane(lane).as_slice(), solo.as_slice());
                assert_eq!(batch.lane(lane).support(), solo.support());
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch is over")]
    fn mismatched_batch_panics() {
        let g = GraphBuilder::from_edges(4, [(0, 1)]).unwrap();
        let engine = WalkEngine::new(&g);
        let mut batch = WalkBatch::with_len(5);
        batch.load_point_masses(&[0]).unwrap();
        engine.step_batch(&mut batch);
    }

    #[test]
    fn overlapping_lanes_on_a_clique_match_solo_walks() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(3, 16).unwrap();
        let engine = WalkEngine::new(&graph);
        let seeds = [0usize, 1, 2, 20];
        let mut batch = WalkBatch::for_graph(&graph);
        batch.load_point_masses(&seeds).unwrap();
        let mut solos: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let mut ws = engine.workspace();
                ws.load_point_mass(s).unwrap();
                ws
            })
            .collect();
        for _ in 0..8 {
            engine.step_batch(&mut batch);
            for (lane, solo) in solos.iter_mut().enumerate() {
                engine.step(solo);
                assert_eq!(batch.lane(lane).as_slice(), solo.as_slice());
                assert_eq!(batch.lane(lane).support(), solo.support());
            }
        }
    }

    proptest::proptest! {
        /// On arbitrary graphs, lane counts, seeds, laziness values and
        /// mid-flight deactivation patterns, every batched lane's
        /// distribution and support are bit-identical to a solo walk of the
        /// same length from the same seed.
        #[test]
        fn step_batch_is_bit_identical_to_solo_steps(
            edges in proptest::collection::vec((0usize..16, 0usize..16), 1..90),
            seeds in proptest::collection::vec(0usize..16, 1..6),
            laziness in 0.0f64..1.0,
            steps in 1usize..8,
            frozen_after in 0usize..8,
        ) {
            use proptest::{prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(16, clean).unwrap();
            let engine = WalkEngine::lazy(&g, laziness);
            let mut batch = WalkBatch::for_graph(&g);
            batch.load_point_masses(&seeds).unwrap();
            // Lane 0 freezes after `frozen_after` steps (if that is sooner
            // than the horizon), mimicking a walk whose growth rule fired.
            let mut lane0_steps = 0usize;
            for step in 0..steps {
                if step == frozen_after {
                    batch.set_active(0, false);
                }
                if batch.is_active(0) {
                    lane0_steps += 1;
                }
                engine.step_batch(&mut batch);
            }
            for (lane, &seed) in seeds.iter().enumerate() {
                let walked = if lane == 0 { lane0_steps } else { steps };
                let mut solo = engine.workspace();
                solo.load_point_mass(seed).unwrap();
                for _ in 0..walked {
                    engine.step(&mut solo);
                }
                prop_assert_eq!(
                    batch.lane(lane).as_slice(),
                    solo.as_slice(),
                    "lane {} diverged from its solo walk",
                    lane
                );
                prop_assert_eq!(batch.lane(lane).support(), solo.support());
            }
        }
    }
}
