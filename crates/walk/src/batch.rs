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
//! # The lane-interleaved kernel
//!
//! The multi-lane scan is laid out like a sparse-matrix × tall-skinny-matrix
//! product. Live lanes are stepped in chunks of up to eight; a chunk of `c`
//! lanes runs at width `W` ∈ {2, 4, 8}, the smallest that holds `c` (a const
//! generic, so every width is its own unrolled kernel). For every vertex `u`
//! of the union of the chunk's supports, ascending, the kernel
//!
//! * gathers the `W` lane masses at `u` once (`0.0` for a lane without mass
//!   there and for the padding lanes past `c`), and the lanes with non-zero
//!   mass as one byte of *touched-lane bits*;
//! * scatters one `[f64; W]` share vector per neighbour `v` into row `v` of
//!   an `n × W` lane-interleaved accumulator owned by the batch — one
//!   cache-line-aligned row instead of `W` read-modify-writes in `W`
//!   different planes — and ORs the touched-lane byte into a per-vertex
//!   byte plane in the same pass.
//!
//! An epilogue walks the touched bytes in ascending vertex order: for every
//! lane bit of a touched vertex it moves the lane's sum into that lane's
//! `next` plane and sets the lane's mask bit, then zeroes the row and the
//! byte (both scratch planes are all-zero between steps). Each lane ends with
//! the solo step's own epilogue, which reads the new support off the mask.
//! A chunk with one live lane is the `W = 1` case: the scatter goes straight
//! into the lane's own plane and mask, which is exactly
//! [`crate::WalkEngine::step`].
//!
//! # Why every lane is bit-identical to its solo walk
//!
//! * The union of the supports — the OR of the lanes' bit masks, scanned
//!   once, so no sort or dedup — is iterated in ascending vertex order, so
//!   each lane's own contributors reach its accumulator column in exactly the
//!   order its solo step processes them, with the same operands (`p·α`,
//!   `p·(1−α)/w(u)`, `share·w(u,v)`).
//! * A union vertex outside a lane's support — or an underflowed support
//!   entry, which the solo step skips — carries `p = 0.0` in that lane, so
//!   the lane's column receives `+0.0` and its touched bit stays clear. For
//!   the non-negative masses the walk carries, `x + 0.0 == x` bit for bit
//!   (including `x = +0.0`), so the extra additions change nothing, and the
//!   column's first real addition stores the mass exactly as the solo step's
//!   first `0.0 + m` does.
//! * The touched bits come from `p ≠ 0`, not from the share, so a vertex a
//!   lane reaches only with an underflowed share is still in that lane's new
//!   support — as in the solo step, whose mask bit is set by every push.
//!
//! A property test pins `step_batch` against per-lane solo steps bit for bit
//! (distributions *and* supports) for every width and the chunk loop, and
//! `cdrw-core` pins the batched ensemble against a sequential reference.
//! Lanes can be deactivated mid-flight ([`WalkBatch::set_active`]) — a walk
//! whose growth rule fired stops paying for steps while the rest of the
//! batch walks on. Each lane keeps its own [`WalkWorkspace`], so sweeps,
//! [`WalkBatch::lane`] and frozen lanes see no difference.
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

use crate::mask::append_ones;
use crate::{WalkEngine, WalkError, WalkWorkspace};

/// Most lanes one interleaved pass steps; more live lanes run in chunks.
/// Bounded by the eight bits of a touched-lane byte.
const MAX_WIDTH: usize = u8::BITS as usize;

/// Alignment of the accumulator rows: a row of `W ≤ 8` masses never
/// straddles a cache line.
const ROW_ALIGN: usize = 64;

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
    /// Scratch of the interleaved kernel, shared by every chunk of lanes.
    scratch: Interleave,
    /// Number of vertices every lane is sized for.
    len: usize,
}

/// Scratch of the lane-interleaved kernel, grown on first use. The two
/// per-vertex planes are all-zero between steps.
#[derive(Debug, Clone, Default)]
struct Interleave {
    /// Ascending union of the chunk's supports.
    union: Vec<VertexId>,
    /// The OR of the chunk's mask words.
    union_words: Vec<u64>,
    /// The accumulator: `n` rows of `W` lane masses, plus the slack that
    /// lets the first row start on a cache line.
    rows: Vec<f64>,
    /// Touched-lane bits per vertex, padded to whole 8-byte blocks.
    touched: Vec<u8>,
}

/// The `n` accumulator rows of width `W` inside `rows` (grown as needed),
/// starting on a [`ROW_ALIGN`] boundary.
fn aligned_rows<const W: usize>(rows: &mut Vec<f64>, n: usize) -> &mut [[f64; W]] {
    let slack = ROW_ALIGN / std::mem::size_of::<f64>();
    if rows.len() < n * W + slack {
        rows.resize(n * W + slack, 0.0);
    }
    let offset = rows.as_ptr().align_offset(ROW_ALIGN);
    rows[offset..offset + n * W].as_chunks_mut::<W>().0
}

/// Adds `mass` into accumulator row `v` and marks the lanes in `bits` as
/// touched at `v`.
#[inline(always)]
fn push_row<const W: usize>(
    rows: &mut [[f64; W]],
    touched: &mut [u8],
    v: VertexId,
    mass: [f64; W],
    bits: u8,
) {
    for (acc, m) in rows[v].iter_mut().zip(mass) {
        *acc += m;
    }
    touched[v] |= bits;
}

impl WalkBatch {
    /// Creates an empty batch (no lanes yet) over `n` vertices.
    pub fn with_len(n: usize) -> Self {
        WalkBatch {
            lanes: Vec::new(),
            active: Vec::new(),
            scratch: Interleave::default(),
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
    /// adjacency list once for all lanes of a chunk.
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
        let WalkBatch {
            lanes,
            active,
            scratch,
            ..
        } = batch;
        let mut live: Vec<&mut WalkWorkspace> = lanes
            .iter_mut()
            .zip(active.iter())
            .filter_map(|(ws, &is_active)| is_active.then_some(ws))
            .collect();
        for chunk in live.chunks_mut(MAX_WIDTH) {
            match chunk.len() {
                1 => self.step(chunk[0]),
                2 => self.step_interleaved::<2>(chunk, scratch),
                3 | 4 => self.step_interleaved::<4>(chunk, scratch),
                _ => self.step_interleaved::<8>(chunk, scratch),
            }
        }
    }

    /// One step of 2..=`W` lanes through the lane-interleaved accumulator;
    /// lanes past `lanes.len()` are padding that carries `0.0`.
    fn step_interleaved<const W: usize>(
        &self,
        lanes: &mut [&mut WalkWorkspace],
        scratch: &mut Interleave,
    ) {
        debug_assert!((2..=W).contains(&lanes.len()) && W <= MAX_WIDTH);
        let graph = self.graph();
        let n = graph.num_vertices();
        let laziness = self.laziness();
        let move_fraction = 1.0 - laziness;
        let Interleave {
            union,
            union_words,
            rows,
            touched,
        } = scratch;

        // The union of the chunk's supports, ascending: every lane's own
        // support is a subsequence, so per-lane contributor order matches the
        // solo step exactly. Each lane's mask is its support, so the union is
        // the OR of the lanes' mask words, read back in ascending order.
        union_words.clear();
        union_words.resize(n.div_ceil(u64::BITS as usize), 0);
        for ws in lanes.iter() {
            for (acc, &word) in union_words.iter_mut().zip(ws.mask.words()) {
                *acc |= word;
            }
        }
        union.clear();
        append_ones(union_words, union);
        for ws in lanes.iter_mut() {
            ws.release_support_bits();
        }

        let rows = aligned_rows::<W>(rows, n);
        let blocks = n.div_ceil(8) * 8;
        if touched.len() < blocks {
            touched.resize(blocks, 0);
        }
        let touched = &mut touched[..blocks];

        for &u in union.iter() {
            // Gather the lanes' masses at `u` once; a lane without mass here
            // contributes `+0.0` below and no touched bit.
            let mut p = [0.0f64; W];
            let mut bits = 0u8;
            for (lane, (slot, ws)) in p.iter_mut().zip(lanes.iter()).enumerate() {
                *slot = ws.current[u];
                bits |= u8::from(*slot != 0.0) << lane;
            }
            if bits == 0 {
                // No lane carries mass at `u` (an underflowed support entry);
                // the solo steps skip it too.
                continue;
            }
            if graph.degree(u) == 0 {
                // Nowhere to go: the mass stays.
                push_row(rows, touched, u, p, bits);
                continue;
            }
            if laziness > 0.0 {
                push_row(rows, touched, u, p.map(|mass| mass * laziness), bits);
            }
            let weighted_degree = graph.weighted_degree(u);
            let share = p.map(|mass| mass * move_fraction / weighted_degree);
            let neighbors = graph.neighbor_slice(u);
            match graph.weight_slice(u) {
                None => {
                    for &v in neighbors {
                        push_row(rows, touched, v, share, bits);
                    }
                }
                Some(row_weights) => {
                    for (&v, &w) in neighbors.iter().zip(row_weights) {
                        push_row(rows, touched, v, share.map(|s| s * w), bits);
                    }
                }
            }
        }

        // Epilogue, ascending over the touched vertices (eight bytes at a
        // time, so untouched stretches cost one word test): hand each
        // touched lane its sum and its mask bit, and zero the scratch.
        for (block, bytes) in touched.chunks_exact_mut(8).enumerate() {
            let word = <[u8; 8]>::try_from(&*bytes).expect("8-byte block");
            if u64::from_ne_bytes(word) == 0 {
                continue;
            }
            for (offset, byte) in bytes.iter_mut().enumerate() {
                let mut bits = std::mem::take(byte);
                if bits == 0 {
                    continue;
                }
                let v = block * 8 + offset;
                let row = &mut rows[v];
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    let ws = &mut *lanes[lane];
                    ws.next[v] = row[lane];
                    ws.mask.insert(v);
                    bits &= bits - 1;
                }
                *row = [0.0; W];
            }
        }

        // The solo step's epilogue per lane: zero the outgoing support,
        // promote the accumulator, read the support off the mask.
        for ws in lanes.iter_mut() {
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
        // 100 vertices: several mask words and a partial touched block. The
        // lane counts reach every kernel width and the chunk loop, and
        // lanes `i` and `i + 10` share a seed.
        let (graph, _) = cdrw_gen::special::ring_of_cliques(5, 20).unwrap();
        let engine = WalkEngine::new(&graph);
        for lanes in 1..=20usize {
            let seeds: Vec<usize> = (0..lanes).map(|i| (i % 10) * 7).collect();
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
    }

    proptest::proptest! {
        /// On arbitrary weighted or unweighted graphs with isolated
        /// vertices, 1..=20 lanes (duplicate seeds included), laziness values
        /// and an arbitrary activity pattern per step (lanes freeze and
        /// resume), every batched lane's distribution and support are
        /// bit-identical to a solo walk stepped exactly when the lane was
        /// active — across every kernel width and the chunk loop.
        #[test]
        fn step_batch_is_bit_identical_to_solo_steps(
            edges in proptest::collection::vec((0usize..12, 0usize..12, 0.25f64..4.0), 1..90),
            weighted in proptest::arbitrary::any::<bool>(),
            seeds in proptest::collection::vec(0usize..16, 1..21),
            lazy in proptest::arbitrary::any::<bool>(),
            laziness in 0.0f64..1.0,
            masks in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..10),
        ) {
            use proptest::{prop_assert_eq, prop_assume};

            // Edges stay inside 0..12, so vertices 12..16 are isolated.
            let clean: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let mut builder = GraphBuilder::new(16);
            for (u, v, w) in clean {
                if weighted {
                    builder.add_weighted_edge(u, v, w).unwrap();
                } else {
                    builder.add_edge(u, v).unwrap();
                }
            }
            let g = builder.build();
            let engine = WalkEngine::lazy(&g, if lazy { laziness } else { 0.0 });
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
            let bits = |ws: &WalkWorkspace| -> Vec<u64> {
                ws.as_slice().iter().map(|p| p.to_bits()).collect()
            };
            for (step, &mask) in masks.iter().enumerate() {
                // One step in four advances every lane; the others advance
                // the lanes whose bit is set, so lanes freeze and resume.
                for (lane, solo) in solos.iter_mut().enumerate() {
                    let active = mask & 3 == 0 || (mask >> (lane + 2)) & 1 == 1;
                    batch.set_active(lane, active);
                    if active {
                        engine.step(solo);
                    }
                }
                engine.step_batch(&mut batch);
                for (lane, solo) in solos.iter().enumerate() {
                    prop_assert_eq!(
                        bits(batch.lane(lane)),
                        bits(solo),
                        "lane {} diverged from its solo walk at step {}",
                        lane,
                        step
                    );
                    prop_assert_eq!(batch.lane(lane).support(), solo.support());
                }
            }
        }
    }
}
