//! The one-step random-walk push operator (dense compatibility API).

use cdrw_graph::Graph;

use crate::{WalkDistribution, WalkEngine};

/// One-step evolution of a random-walk probability distribution on a graph.
///
/// The simple random walk moves from the current vertex to a uniformly random
/// neighbour, so the distribution evolves as
/// `p_ℓ(u) = Σ_{v ∈ N(u)} p_{ℓ−1}(v) / d(v)` — exactly the per-round local
/// flooding of Algorithm 1 (each node sends `p_{ℓ−1}(u)/d(u)` to its
/// neighbours and sums what it receives). On a weighted graph the transition
/// is weight-proportional, `P(u→v) = w(u,v)/w(u)`, which degenerates to the
/// uniform rule when every weight is 1. Vertices with zero degree keep
/// their probability mass (the walk has nowhere to go), which preserves total
/// mass on disconnected or degenerate inputs.
///
/// This is the *compatibility* API: [`WalkOperator::step`] and
/// [`WalkOperator::walk`] delegate to the sparse [`WalkEngine`] and return
/// bit-identical results. Hot paths that step a walk repeatedly should use
/// the engine with a reused [`crate::WalkWorkspace`] directly and avoid the
/// dense round trip; [`WalkOperator::step_dense`] keeps the original dense
/// loop as the reference implementation benchmarks and equivalence tests
/// compare the engine against.
///
/// The operator borrows the graph; construct once and reuse for every step.
#[derive(Debug, Clone, Copy)]
pub struct WalkOperator<'g> {
    graph: &'g Graph,
    /// Laziness parameter `α`: with probability `α` the walk stays put.
    /// `α = 0` is the simple walk used throughout the paper; `α = 1/2` is the
    /// standard lazy walk (useful on bipartite graphs where the simple walk
    /// does not converge).
    laziness: f64,
}

impl<'g> WalkOperator<'g> {
    /// Creates the simple (non-lazy) walk operator the paper uses.
    pub fn new(graph: &'g Graph) -> Self {
        WalkOperator {
            graph,
            laziness: 0.0,
        }
    }

    /// Creates a lazy walk operator that stays put with probability
    /// `laziness` each step. Values are clamped into `[0, 1]`.
    pub fn lazy(graph: &'g Graph, laziness: f64) -> Self {
        WalkOperator {
            graph,
            laziness: laziness.clamp(0.0, 1.0),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The laziness parameter `α`.
    pub fn laziness(&self) -> f64 {
        self.laziness
    }

    /// The sparse engine this operator wraps (same graph and laziness).
    pub fn engine(&self) -> WalkEngine<'g> {
        WalkEngine::lazy(self.graph, self.laziness)
    }

    /// Applies one step of the walk: returns `p_ℓ` given `p_{ℓ−1}`.
    ///
    /// Delegates to the sparse [`WalkEngine`]; the result is bit-identical to
    /// [`WalkOperator::step_dense`].
    ///
    /// # Panics
    ///
    /// Panics if the distribution length differs from the number of vertices.
    pub fn step(&self, distribution: &WalkDistribution) -> WalkDistribution {
        self.assert_len(distribution);
        let engine = self.engine();
        let mut workspace = engine.workspace();
        workspace
            .load_distribution(distribution)
            .expect("length checked above");
        engine.step(&mut workspace);
        workspace
            .to_distribution()
            .expect("push preserves non-negativity and finiteness")
    }

    /// The original dense `O(n + m)` push loop, kept as the reference
    /// implementation the sparse engine is validated (and benchmarked)
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if the distribution length differs from the number of vertices.
    pub fn step_dense(&self, distribution: &WalkDistribution) -> WalkDistribution {
        self.assert_len(distribution);
        let n = self.graph.num_vertices();
        let mut next = vec![0.0f64; n];
        let current = distribution.as_slice();
        let move_fraction = 1.0 - self.laziness;
        for u in self.graph.vertices() {
            let p = current[u];
            if p == 0.0 {
                continue;
            }
            let degree = self.graph.degree(u);
            if degree == 0 {
                // Nowhere to go: the mass stays.
                next[u] += p;
                continue;
            }
            if self.laziness > 0.0 {
                next[u] += p * self.laziness;
            }
            let share = p * move_fraction / self.graph.weighted_degree(u);
            match self.graph.weight_slice(u) {
                None => {
                    for v in self.graph.neighbors(u) {
                        next[v] += share;
                    }
                }
                Some(row_weights) => {
                    for (&v, &w) in self.graph.neighbor_slice(u).iter().zip(row_weights) {
                        next[v] += share * w;
                    }
                }
            }
        }
        WalkDistribution::from_values(next).expect("push preserves non-negativity and finiteness")
    }

    fn assert_len(&self, distribution: &WalkDistribution) {
        assert_eq!(
            distribution.len(),
            self.graph.num_vertices(),
            "distribution is over {} vertices but the graph has {}",
            distribution.len(),
            self.graph.num_vertices()
        );
    }

    /// Applies `steps` walk steps starting from `distribution`.
    ///
    /// Uses one engine workspace for the whole run, so no per-step
    /// allocations happen regardless of `steps`.
    pub fn walk(&self, distribution: &WalkDistribution, steps: usize) -> WalkDistribution {
        if steps == 0 {
            return distribution.clone();
        }
        self.assert_len(distribution);
        let engine = self.engine();
        let mut workspace = engine.workspace();
        workspace
            .load_distribution(distribution)
            .expect("length checked above");
        for _ in 0..steps {
            engine.step(&mut workspace);
        }
        workspace
            .to_distribution()
            .expect("push preserves non-negativity and finiteness")
    }

    /// Evolves a point mass at `source` for `steps` steps and returns the
    /// whole trajectory `[p_0, p_1, …, p_steps]`.
    ///
    /// # Errors
    ///
    /// Propagates the construction error of the initial point mass
    /// (out-of-range source or empty graph).
    pub fn trajectory(
        &self,
        source: cdrw_graph::VertexId,
        steps: usize,
    ) -> Result<Vec<WalkDistribution>, crate::WalkError> {
        let mut out = Vec::with_capacity(steps + 1);
        let start = WalkDistribution::point_mass(self.graph.num_vertices(), source)?;
        out.push(start.clone());
        let engine = self.engine();
        let mut workspace = engine.workspace();
        workspace.load_distribution(&start)?;
        for _ in 0..steps {
            engine.step(&mut workspace);
            out.push(workspace.to_distribution()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::GraphBuilder;
    use proptest::prelude::*;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    fn cycle(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn complete(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn one_step_from_point_mass_on_path() {
        let g = path(3);
        let op = WalkOperator::new(&g);
        let p0 = WalkDistribution::point_mass(3, 1).unwrap();
        let p1 = op.step(&p0);
        // Vertex 1 has two neighbours; mass splits evenly.
        assert!((p1.probability(0) - 0.5).abs() < 1e-15);
        assert!((p1.probability(2) - 0.5).abs() < 1e-15);
        assert_eq!(p1.probability(1), 0.0);
    }

    #[test]
    fn mass_is_conserved() {
        let g = cycle(20);
        let op = WalkOperator::new(&g);
        let mut d = WalkDistribution::point_mass(20, 0).unwrap();
        for _ in 0..50 {
            d = op.step(&d);
            assert!((d.total_mass() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn isolated_vertex_keeps_its_mass() {
        let g = GraphBuilder::from_edges(3, [(0, 1)]).unwrap();
        let op = WalkOperator::new(&g);
        let d = WalkDistribution::point_mass(3, 2).unwrap();
        let next = op.step(&d);
        assert_eq!(next.probability(2), 1.0);
    }

    #[test]
    fn stationary_distribution_is_a_fixpoint() {
        let g = path(6);
        let op = WalkOperator::new(&g);
        let pi = WalkDistribution::stationary(&g).unwrap();
        let pushed = op.step(&pi);
        assert!(pi.l1_distance(&pushed) < 1e-12);
    }

    #[test]
    fn lazy_stationary_is_also_a_fixpoint() {
        let g = path(6);
        let op = WalkOperator::lazy(&g, 0.5);
        let pi = WalkDistribution::stationary(&g).unwrap();
        let pushed = op.step(&pi);
        assert!(pi.l1_distance(&pushed) < 1e-12);
        assert_eq!(op.laziness(), 0.5);
    }

    #[test]
    fn simple_walk_oscillates_on_bipartite_lazy_walk_converges() {
        // Complete bipartite K_{2,2} = 4-cycle: the simple walk from one side
        // alternates sides forever, the lazy walk converges.
        let g = cycle(4);
        let simple = WalkOperator::new(&g);
        let lazy = WalkOperator::lazy(&g, 0.5);
        let pi = WalkDistribution::stationary(&g).unwrap();
        let p0 = WalkDistribution::point_mass(4, 0).unwrap();
        let simple_after = simple.walk(&p0, 41);
        let lazy_after = lazy.walk(&p0, 41);
        // Simple walk after an odd number of steps has all mass on the odd side.
        assert!(simple_after.l1_distance(&pi) > 0.9);
        assert!(lazy_after.l1_distance(&pi) < 1e-3);
    }

    #[test]
    fn walk_on_complete_graph_mixes_in_one_step_from_uniform_neighbours() {
        let g = complete(10);
        let op = WalkOperator::new(&g);
        let p0 = WalkDistribution::point_mass(10, 0).unwrap();
        let p2 = op.walk(&p0, 2);
        let pi = WalkDistribution::stationary(&g).unwrap();
        assert!(p2.l1_distance(&pi) < 0.3);
    }

    #[test]
    fn trajectory_has_expected_length_and_starts_at_point_mass() {
        let g = cycle(8);
        let op = WalkOperator::new(&g);
        let traj = op.trajectory(3, 5).unwrap();
        assert_eq!(traj.len(), 6);
        assert_eq!(traj[0].probability(3), 1.0);
        assert!(op.trajectory(99, 2).is_err());
    }

    #[test]
    fn weighted_step_splits_mass_by_edge_weight() {
        // Vertex 1 has neighbours 0 (weight 1) and 2 (weight 3): the walk
        // moves with probabilities 1/4 and 3/4.
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.0).unwrap();
        b.add_weighted_edge(1, 2, 3.0).unwrap();
        let g = b.build();
        let op = WalkOperator::new(&g);
        let p0 = WalkDistribution::point_mass(3, 1).unwrap();
        let p1 = op.step(&p0);
        assert!((p1.probability(0) - 0.25).abs() < 1e-15);
        assert!((p1.probability(2) - 0.75).abs() < 1e-15);
        let dense = op.step_dense(&p0);
        for v in 0..3 {
            assert_eq!(p1.probability(v).to_bits(), dense.probability(v).to_bits());
        }
        // The weighted stationary distribution is still a fixpoint.
        let pi = WalkDistribution::stationary(&g).unwrap();
        assert!(pi.l1_distance(&op.step(&pi)) < 1e-12);
    }

    /// Adds to `out` the probability of every walk of `steps` moves from
    /// `u`, entered with probability `p`: a move to neighbour `v` has
    /// probability `(1 − α)·w(u,v)/w(u)`, a stay `α`, and a vertex without
    /// edges keeps the walker.
    fn enumerate_walks(g: &Graph, alpha: f64, u: usize, p: f64, steps: usize, out: &mut [f64]) {
        if steps == 0 {
            out[u] += p;
        } else if g.degree(u) == 0 {
            enumerate_walks(g, alpha, u, p, steps - 1, out);
        } else {
            if alpha > 0.0 {
                enumerate_walks(g, alpha, u, p * alpha, steps - 1, out);
            }
            let move_p = p * (1.0 - alpha) / g.weighted_degree(u);
            for (i, &v) in g.neighbor_slice(u).iter().enumerate() {
                let w = g.weight_slice(u).map_or(1.0, |row| row[i]);
                enumerate_walks(g, alpha, v, move_p * w, steps - 1, out);
            }
        }
    }

    #[test]
    fn dense_step_matches_every_enumerated_walk() {
        // An irregular graph (degrees 1 to 4, odd cycles) and a weighted
        // graph whose vertex 5 is isolated: every walk of length ≤ 4 from
        // every source, simple and lazy, sums to the dense distribution.
        let pairs = [0, 1, 0, 2, 0, 3, 1, 2, 2, 5, 3, 4, 4, 5, 4, 6, 5, 6];
        let irregular = GraphBuilder::from_edges(7, pairs.chunks(2).map(|e| (e[0], e[1]))).unwrap();
        let weighted_pairs = [0, 1, 0, 2, 1, 2, 2, 3, 3, 4];
        let mut b = GraphBuilder::new(6);
        for (e, w) in weighted_pairs.chunks(2).zip([0.5, 2.0, 1.0, 3.0, 0.25]) {
            b.add_weighted_edge(e[0], e[1], w).unwrap();
        }
        let weighted = b.build();
        assert_eq!(weighted.degree(5), 0);
        for graph in [&irregular, &weighted] {
            let n = graph.num_vertices();
            for alpha in [0.0, 0.3] {
                let op = WalkOperator::lazy(graph, alpha);
                for source in 0..n {
                    let mut dense = WalkDistribution::point_mass(n, source).unwrap();
                    for steps in 0..=4 {
                        let mut exact = vec![0.0; n];
                        enumerate_walks(graph, alpha, source, 1.0, steps, &mut exact);
                        for (v, &e) in exact.iter().enumerate() {
                            let d = dense.probability(v);
                            assert!(
                                (d - e).abs() <= 1e-15,
                                "α {alpha}, source {source}, {steps} steps, vertex {v}: {d} vs {e}"
                            );
                        }
                        dense = op.step_dense(&dense);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "distribution is over")]
    fn mismatched_distribution_panics() {
        let g = path(4);
        let op = WalkOperator::new(&g);
        let d = WalkDistribution::uniform(5).unwrap();
        let _ = op.step(&d);
    }

    #[test]
    fn laziness_is_clamped() {
        let g = path(3);
        assert_eq!(WalkOperator::lazy(&g, -1.0).laziness(), 0.0);
        assert_eq!(WalkOperator::lazy(&g, 2.0).laziness(), 1.0);
    }

    proptest! {
        /// Mass conservation and non-negativity hold for arbitrary graphs,
        /// sources, laziness and step counts.
        #[test]
        fn push_preserves_mass(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 1..60),
            source in 0usize..12,
            laziness in 0.0f64..1.0,
            steps in 0usize..20,
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(12, clean).unwrap();
            let op = WalkOperator::lazy(&g, laziness);
            let d0 = WalkDistribution::point_mass(12, source).unwrap();
            let d = op.walk(&d0, steps);
            prop_assert!((d.total_mass() - 1.0).abs() < 1e-9);
            prop_assert!(d.as_slice().iter().all(|&p| p >= 0.0));
        }

        /// The support of the walk after ℓ steps is contained in the ball of
        /// radius ℓ around the source (probability propagates one hop per step).
        #[test]
        fn support_stays_within_ball(
            edges in proptest::collection::vec((0usize..10, 0usize..10), 1..40),
            source in 0usize..10,
            steps in 0usize..6,
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(10, clean).unwrap();
            let op = WalkOperator::new(&g);
            let d0 = WalkDistribution::point_mass(10, source).unwrap();
            let d = op.walk(&d0, steps);
            let ball = cdrw_graph::traversal::ball(&g, source, steps).unwrap();
            let inside: f64 = d.mass_on(&ball);
            prop_assert!((inside - 1.0).abs() < 1e-9);
        }
    }
}
