//! The sparse frontier walk engine and its reusable workspace.
//!
//! CDRW's cost bound comes from the walk's *locality*: for the first
//! `O(log n)` steps the distribution `p_ℓ` is supported on the ball of radius
//! `ℓ` around the seed, which is far smaller than the graph. The dense
//! [`crate::WalkOperator`] ignores this — every step allocates a fresh
//! length-`n` vector and scans all `n` vertices, and every candidate-size
//! check of the mixing sweep rebuilds an `O(n)` score vector. This module
//! exploits the locality explicitly:
//!
//! * [`WalkWorkspace`] owns two length-`n` probability buffers plus the walk's
//!   *support* (the ascending list of vertices carrying mass, mirrored by a
//!   one-bit-per-vertex mask). All buffers are allocated once and reused
//!   across steps — and across seeds, which is what
//!   `cdrw_core::Cdrw::detect_all` does.
//! * [`WalkEngine::step`] pushes probability only out of support vertices
//!   into a zeroed accumulator and reads the new support back off the mask
//!   in ascending order, costing `O(vol(support) + n/64)` instead of
//!   `O(n + m)` — no sort; the `n/64` word scan is dominated by the `O(n)`
//!   sweep that follows every step. Accumulation order is identical to the
//!   dense operator, so the resulting probabilities are bit-for-bit equal to
//!   [`crate::WalkOperator::step`].
//! * [`WalkEngine::sweep`] evaluates each candidate size `|S|` of the local
//!   mixing sweep against a degree-sorted order of the non-support vertices
//!   (the *tail*, filtered once per sweep from an order computed once per
//!   engine): outside the support the score `x_u = |0 − d(u)/µ′(S)|` is
//!   monotone in the degree, so the `|S|` best non-support candidates are
//!   simply the lowest-degree vertices not in the support. For the strict,
//!   lazy and adaptive criteria a `select_nth_unstable` over the small merged
//!   candidate set replaces the dense implementation's selection over all `n`
//!   vertices, costing `O(|support| + |S|)` per size. For the renormalised
//!   criterion the candidate sets of *all* sizes are prefixes of one fixed
//!   merged order, so the whole sweep is a single incremental prefix scan —
//!   see the complexity table below.
//!
//! # Per-step sweep cost (renormalised criterion)
//!
//! The candidate sizes grow geometrically (`R, (1+1/8e)R, …, n`), so their
//! sum is `Θ(n)` with a large constant (≈ 24n). Re-merging and re-scoring
//! the candidate prefix of every size from scratch would cost that sum per
//! sweep; instead the merged order, its running mass and its running volume
//! are built once and every size is answered from prefix sums plus one
//! binary search:
//!
//! | path | cost per sweep |
//! |---|---|
//! | dense reference ([`crate::largest_mixing_set`]) | `O(n log n)` **per size** — `Θ(n² )`-ish overall |
//! | prefix scan ([`WalkEngine::sweep`]) | `O(\|support\| + n + sizes·log n)` |
//!
//! The prefix scan does not sort. The pass that filters the degree order
//! into the tail also emits the support in `(weighted degree, id)` order,
//! and a stable LSD radix pass on the affinity's bit pattern turns that into
//! "affinity descending, then `(weighted degree, id)`" — the dense sweep's
//! comparator order — in `O(|support|)` per radix digit that varies.
//!
//! The candidate *order* — and therefore every candidate prefix — is
//! identical to the dense sweep's by construction (same keys, same
//! tie-breaking total order). The per-size `score_sum` is regrouped by the
//! prefix scan and so may differ from the per-term sum in the last few
//! bits; since `holds` compares that score against the fixed `1/2e`
//! threshold, a score landing *within that rounding band of the threshold
//! itself* could in principle decide differently. No such boundary
//! coincidence has been observed — the property tests pin sets and
//! decisions against [`crate::largest_mixing_set`] exactly across
//! randomized graphs and all four criteria, and the committed
//! `ci/baselines/` experiment tables regenerated bit-identical when the
//! prefix scan replaced the per-size path.
//!
//! # Per-vertex memory (bookkeeping state)
//!
//! The workspace's per-vertex state is laid out struct-of-arrays: two
//! contiguous `f64` mass planes (`current`/`next`) plus one membership
//! plane. Up to PR 5 the membership plane was an epoch-stamped `Vec<u64>`
//! read and written once per probability push; it is now a bit-packed
//! [`crate::mask::BitMask`]:
//!
//! | layout | membership plane | total resident @ `n = 2²⁰` per workspace/lane |
//! |---|---|---|
//! | epoch stamps (pre-mask, retired) | 8 B/vertex (8 MiB @ 2²⁰) | ≈ 24 MiB |
//! | bit-packed mask ([`WalkWorkspace`]) | 1 bit/vertex (128 KiB @ 2²⁰) | ≈ 16.1 MiB |
//! | interleaved scratch ([`crate::WalkBatch`], once per batch, not per lane) | 1 B/vertex touched-lane bits (1 MiB @ 2²⁰) | `n·W·8 B + n B`: ≈ 33 MiB at `W = 4`, ≈ 65 MiB at `W = 8` |
//!
//! The batch scratch is the `n × W` lane-interleaved accumulator of
//! [`WalkEngine::step_batch`] plus its touched-lane byte plane (see the
//! [`crate::batch`] module docs). It is allocated at the widest `W` the
//! batch has stepped, and a batch that only ever steps one live lane never
//! allocates it.
//!
//! The mass planes are unavoidable (they hold the walk), so the win is in
//! the *bookkeeping traffic*: the membership bit the hot accumulation loop
//! sets for every touched vertex lives in 64× less memory, and at
//! million-vertex scale the whole membership plane fits in L2 while the
//! stamps did not fit in L3. Clearing stays `O(|support|)` (bits are
//! cleared exactly where the support list says they are set), so the
//! epoch trick's asymptotics are preserved without storing epochs at all.
//! The mask also replaces the per-step support sort: after accumulation it
//! holds exactly the new support, which one scan of its words lists in
//! ascending order.
//!
//! One further (graph-side, not workspace-side) plane joined in PR 8: the
//! optional edge-weight lane.
//!
//! | layout | weight lane | resident @ `n = 2²⁰`, `m = 8n` |
//! |---|---|---|
//! | unweighted graph | absent (`None`) | 0 B |
//! | weighted graph | 8 B/edge slot + 8 B/vertex weighted degree | ≈ 136 MiB |
//!
//! The lane is shared by every workspace (it lives in the borrowed
//! [`cdrw_graph::Graph`]), and when absent the step kernel takes the
//! weightless branch — same instructions as before the lane existed, which
//! is what the perf-smoke gate pins at ≤ 1.1×.

use std::sync::OnceLock;

use cdrw_graph::{Graph, VertexId};

use crate::local_mixing::{affinity_ratio, LocalMixingConfig, LocalMixingOutcome, MixingCheck};
use crate::mask::BitMask;
use crate::{MixingCriterion, WalkDistribution, WalkError};

/// Sparse one-step walk evolution over an explicit frontier.
///
/// The engine borrows the graph and owns the degree-sorted vertex order used
/// by [`WalkEngine::sweep`] (computed lazily, once). It holds no per-walk
/// state: all of that lives in a [`WalkWorkspace`], so one engine can serve
/// many concurrent workspaces (e.g. one per thread in
/// `cdrw_core::Cdrw::detect_parallel`).
///
/// # Examples
///
/// Step a walk from a point mass and sweep for the largest local mixing set
/// (the inner loop of Algorithm 1):
///
/// ```
/// use cdrw_gen::special;
/// use cdrw_walk::{LocalMixingConfig, WalkEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Four cliques of 32 vertices, joined in a ring.
/// let (graph, _truth) = special::ring_of_cliques(4, 32)?;
/// let engine = WalkEngine::new(&graph);
/// let mut workspace = engine.workspace();
/// workspace.load_point_mass(3)?;
/// for _ in 0..3 {
///     engine.step(&mut workspace);
/// }
/// // The support is still a strict subset of the graph, so each step cost
/// // O(vol(support)), not O(n + m).
/// assert!(workspace.support_size() < graph.num_vertices());
/// let config = LocalMixingConfig {
///     min_size: 8,
///     ..LocalMixingConfig::default()
/// };
/// let outcome = engine.sweep(&mut workspace, &config)?;
/// // The walk has locally mixed over (roughly) the seed clique.
/// assert!(outcome.found());
/// assert!(outcome.size() < 2 * 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WalkEngine<'g> {
    graph: &'g Graph,
    /// Laziness parameter `α`; same semantics as [`crate::WalkOperator`].
    laziness: f64,
    /// Vertices sorted by `(degree, id)`; ascending score order for vertices
    /// outside the support. Computed on first sweep.
    degree_order: OnceLock<Vec<VertexId>>,
}

impl<'g> WalkEngine<'g> {
    /// Creates the engine for the simple (non-lazy) walk the paper uses.
    pub fn new(graph: &'g Graph) -> Self {
        WalkEngine {
            graph,
            laziness: 0.0,
            degree_order: OnceLock::new(),
        }
    }

    /// Creates an engine for the lazy walk that stays put with probability
    /// `laziness` each step (clamped into `[0, 1]`).
    pub fn lazy(graph: &'g Graph, laziness: f64) -> Self {
        WalkEngine {
            graph,
            laziness: laziness.clamp(0.0, 1.0),
            degree_order: OnceLock::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The laziness parameter `α`.
    pub fn laziness(&self) -> f64 {
        self.laziness
    }

    /// A fresh workspace sized for this engine's graph.
    pub fn workspace(&self) -> WalkWorkspace {
        WalkWorkspace::for_graph(self.graph)
    }

    fn degree_order(&self) -> &[VertexId] {
        self.degree_order.get_or_init(|| {
            let graph = self.graph;
            let mut order: Vec<VertexId> = graph.vertices().collect();
            // Sorted by (weighted degree, id): the sweep's candidate score
            // outside the support is monotone in the *weighted* degree. On
            // an unweighted graph this is the (degree, id) order exactly
            // (integer-valued f64 keys compare like the integers).
            order.sort_unstable_by(|&a, &b| degree_key_cmp(graph, a, b));
            order
        })
    }

    /// Applies one walk step in place: `workspace.current` becomes `p_ℓ`
    /// given `p_{ℓ−1}`, touching only the support and its neighbourhood.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was sized for a different graph.
    pub fn step(&self, workspace: &mut WalkWorkspace) {
        assert_eq!(
            workspace.len(),
            self.graph.num_vertices(),
            "workspace is over {} vertices but the graph has {}",
            workspace.len(),
            self.graph.num_vertices()
        );
        let move_fraction = 1.0 - self.laziness;
        workspace.release_support_bits();
        let WalkWorkspace {
            current,
            next,
            support,
            mask,
            ..
        } = &mut *workspace;
        // Iterating the sorted support in ascending vertex order makes every
        // accumulation into `next[v]` happen in the same order as the dense
        // operator's `for u in 0..n` loop, so the sums are bit-identical.
        for &u in support.iter() {
            let p = current[u];
            if p == 0.0 {
                // Mirrors the dense operator's skip; keeps a vertex whose
                // mass underflowed to zero out of the cost and the result.
                continue;
            }
            let degree = self.graph.degree(u);
            if degree == 0 {
                // Nowhere to go: the mass stays.
                accumulate(next, mask, u, p);
                continue;
            }
            if self.laziness > 0.0 {
                accumulate(next, mask, u, p * self.laziness);
            }
            // Weighted transition P(u→v) = w(u,v)/w(u); on an unweighted
            // graph `weighted_degree` is exactly `degree as f64` and the
            // weightless loop below performs the identical arithmetic the
            // pre-weight-lane kernel did.
            let share = p * move_fraction / self.graph.weighted_degree(u);
            match self.graph.weight_slice(u) {
                None => {
                    for &v in self.graph.neighbor_slice(u) {
                        accumulate(next, mask, v, share);
                    }
                }
                Some(row_weights) => {
                    for (&v, &w) in self.graph.neighbor_slice(u).iter().zip(row_weights) {
                        accumulate(next, mask, v, share * w);
                    }
                }
            }
        }
        workspace.finish_step();
    }

    /// The pre-weight-lane step kernel: uniform `1/d(u)` shares with no
    /// weight dispatch, and the same support bookkeeping as
    /// [`WalkEngine::step`]. Only valid on unweighted
    /// graphs, where it is bit-identical to [`WalkEngine::step`]; the CI
    /// perf-smoke job times the two against each other to pin the weight
    /// lane's cost on the unweighted path at ≤ 1.1× (see the module docs).
    /// Hot paths should always call [`WalkEngine::step`].
    ///
    /// # Panics
    ///
    /// Panics on a weighted graph or a workspace sized for a different
    /// graph.
    pub fn step_uniform_reference(&self, workspace: &mut WalkWorkspace) {
        assert!(
            !self.graph.is_weighted(),
            "the uniform reference kernel predates the weight lane"
        );
        assert_eq!(
            workspace.len(),
            self.graph.num_vertices(),
            "workspace is over {} vertices but the graph has {}",
            workspace.len(),
            self.graph.num_vertices()
        );
        let move_fraction = 1.0 - self.laziness;
        workspace.release_support_bits();
        let WalkWorkspace {
            current,
            next,
            support,
            mask,
            ..
        } = &mut *workspace;
        for &u in support.iter() {
            let p = current[u];
            if p == 0.0 {
                continue;
            }
            let degree = self.graph.degree(u);
            if degree == 0 {
                accumulate(next, mask, u, p);
                continue;
            }
            if self.laziness > 0.0 {
                accumulate(next, mask, u, p * self.laziness);
            }
            let share = p * move_fraction / degree as f64;
            for &v in self.graph.neighbor_slice(u) {
                accumulate(next, mask, v, share);
            }
        }
        workspace.finish_step();
    }

    /// Runs the candidate-size sweep of Algorithm 1 (lines 12–17) against the
    /// workspace's current distribution.
    ///
    /// Produces the same selected sets and `holds` decisions as
    /// [`crate::largest_mixing_set`] on the equivalent dense distribution
    /// (`score_sum` may differ in the last bits; see the module docs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::largest_mixing_set`]: configuration
    /// validation failures and [`WalkError::NoEdges`] for edgeless graphs.
    pub fn sweep(
        &self,
        workspace: &mut WalkWorkspace,
        config: &LocalMixingConfig,
    ) -> Result<LocalMixingOutcome, WalkError> {
        self.prepare_sweep(workspace, config)?;
        if config.criterion == MixingCriterion::Renormalized {
            // The candidate set of every size is a prefix of one fixed merged
            // order, so the whole sweep is a single incremental pass.
            return Ok(self.sweep_renormalized(workspace, config));
        }
        // Same override as the dense sweep: a possibly-disconnected
        // pass-region forbids the early exit.
        let stop_early = config.stop_at_first_failure && config.criterion.stops_at_first_failure();
        let mut best: Option<Vec<VertexId>> = None;
        let mut checks = Vec::new();
        for size in config.candidate_sizes(self.graph.num_vertices()) {
            let adaptive = config.criterion == MixingCriterion::Adaptive;
            let (check, members) = self.check_size(workspace, size, config.threshold, adaptive);
            let holds = check.holds;
            checks.push(check);
            if holds {
                best = members;
            } else if stop_early && best.is_some() {
                break;
            }
        }
        Ok(LocalMixingOutcome { set: best, checks })
    }

    /// Shared sweep prologue: validation, the per-sweep tail (degree-sorted
    /// non-support vertices, so per-size candidate assembly never re-skips
    /// support entries), and — for the renormalised criterion — the affinity
    /// order of the support, emitted by the same degree-order pass.
    fn prepare_sweep(
        &self,
        workspace: &mut WalkWorkspace,
        config: &LocalMixingConfig,
    ) -> Result<(), WalkError> {
        config.validate()?;
        if self.graph.total_volume() == 0 {
            return Err(WalkError::NoEdges);
        }
        assert_eq!(
            workspace.len(),
            self.graph.num_vertices(),
            "workspace is over {} vertices but the graph has {}",
            workspace.len(),
            self.graph.num_vertices()
        );
        let graph = self.graph;
        let degree_order = self.degree_order();
        let WalkWorkspace {
            current,
            mask,
            candidates,
            affinity,
            tail,
            ..
        } = workspace;
        tail.clear();
        // Support membership is a single bit read per vertex here (the mask
        // invariant: bit set ⟺ vertex in `support`), so this n-length filter
        // streams 1 bit of bookkeeping per vertex instead of 8 bytes.
        if config.criterion != MixingCriterion::Renormalized {
            for &v in degree_order {
                if !mask.contains(v) {
                    tail.push(v);
                }
            }
            return Ok(());
        }
        // The affinity order of the support is shared by every candidate
        // size of this sweep. The same pass splits the degree order into the
        // support entries carrying mass, still in (weighted degree, id)
        // order, and the massless rest, which scores exactly like the tail
        // and joins it. A stable radix pass on the affinity alone then
        // yields (affinity descending, weighted degree, id), the order the
        // dense sweep's comparator defines, in O(|support| + n) overall.
        affinity.clear();
        for &v in degree_order {
            if mask.contains(v) && current[v] != 0.0 {
                affinity.push((affinity_ratio(current[v], graph.weighted_degree(v)), v));
            } else {
                tail.push(v);
            }
        }
        radix_sort_by_affinity(affinity, candidates);
        Ok(())
    }

    /// The renormalised sweep as a single incremental prefix scan.
    ///
    /// Every candidate set is a prefix of the same merged order (the
    /// support's positive affinities, descending, followed by the
    /// zero-affinity region: the degree-ordered tail, with any support entry
    /// whose affinity underflowed to zero spliced in at its degree
    /// position), so the merge is performed once and each
    /// candidate size is answered from running prefix sums. Writing the
    /// per-size score `Σ_{u∈S} |p(u)/p(S) − d(u)/µ′(S)|` as a sum of its
    /// positive and negative terms splits it at the single index where the
    /// affinity `p(u)/d(u)` crosses `p(S)/µ′(S)` (the prefix is sorted by
    /// exactly that key), which one binary search per size locates:
    ///
    /// ```text
    /// score(S) = (mass_high − mass_low)/p(S) + (vol_low − vol_high)/µ′(S)
    /// ```
    ///
    /// with `mass_*`/`vol_*` read off prefix sums of the walk mass and the
    /// degrees on either side of the crossing. The candidate prefixes are
    /// identical to the dense sweep's by construction; the regrouped `score`
    /// may differ from the per-term sum in the last bits, which matters for
    /// a `holds` decision only in the (never observed, property-pinned
    /// absent) case of a score landing within that rounding band of the
    /// threshold — see the module docs.
    fn sweep_renormalized(
        &self,
        ws: &mut WalkWorkspace,
        config: &LocalMixingConfig,
    ) -> LocalMixingOutcome {
        let graph = self.graph;
        let n = graph.num_vertices();
        let sizes = config.candidate_sizes(n);

        // One merge for all sizes: the dense sweep's global affinity order.
        // The sizes end at `n` and the support entries carrying mass plus
        // the tail are all `n` vertices, so the merge covers everything.
        let WalkWorkspace {
            current,
            affinity,
            tail,
            scan,
            members,
            ..
        } = ws;
        scan.clear();
        let mut mass = 0.0f64;
        // Running *weighted* volume: f64 prefix sums of the weighted
        // degrees. On an unweighted graph every partial sum is an exact
        // integer below 2^53, bit-identical to the previous u64 running sum.
        let mut volume = 0.0f64;
        // Positive affinities first: they beat the tail's exact zero.
        let zero_start = affinity.partition_point(|&(ratio, _)| ratio > 0.0);
        for &(ratio, u) in &affinity[..zero_start] {
            mass += current[u];
            volume += graph.weighted_degree(u);
            scan.push(u, ratio, mass, volume);
        }
        // The zero-affinity region is a plain run of the tail in (weighted
        // degree, id) order. A support entry whose affinity underflowed to
        // zero while its mass did not is spliced in at its (weighted degree,
        // id) position, which is where the comparator puts it.
        let mut di = 0usize;
        for &(_, u) in &affinity[zero_start..] {
            let run = tail[di..].partition_point(|&v| degree_key_cmp(graph, v, u).is_lt());
            volume = scan.extend_massless(graph, &tail[di..di + run], mass, volume);
            di += run;
            mass += current[u];
            volume += graph.weighted_degree(u);
            scan.push(u, 0.0, mass, volume);
        }
        scan.extend_massless(graph, &tail[di..], mass, volume);
        let PrefixScan {
            merged,
            affinity: merged_affinity,
            cum_mass,
            cum_degree,
        } = scan;

        let mut best_size = 0usize;
        let mut checks = Vec::with_capacity(sizes.len());
        for size in sizes {
            let size = size.min(merged.len());
            let average_volume = graph.weighted_volume() / n as f64 * size as f64;
            let retained = cum_mass[size];
            let score_sum = if retained > 0.0 {
                // Terms are positive while p(u)/w(u) ≥ p(S)/µ′(S); the prefix
                // is sorted descending by that affinity, so the crossing is a
                // partition point of the (never-NaN) affinity array.
                let crossing_affinity = retained / average_volume;
                let k = merged_affinity[..size].partition_point(|&a| a >= crossing_affinity);
                let mass_high = cum_mass[k];
                let mass_low = retained - mass_high;
                let vol_high = cum_degree[k];
                let vol_low = cum_degree[size] - cum_degree[k];
                (mass_high - mass_low) / retained + (vol_low - vol_high) / average_volume
            } else {
                f64::INFINITY
            };
            let holds = score_sum < config.threshold;
            checks.push(MixingCheck {
                size,
                score_sum,
                holds,
            });
            if holds {
                best_size = size;
            }
        }
        let set = (best_size > 0).then(|| {
            // Read the selected prefix back in ascending vertex order off a
            // scratch mask: O(n/64 + |S|), no sort.
            let chosen = &merged[..best_size];
            for &v in chosen {
                members.insert(v);
            }
            let mut sorted = Vec::with_capacity(best_size);
            members.append_to(&mut sorted);
            for &v in chosen {
                members.remove(v);
            }
            sorted
        });
        LocalMixingOutcome { set, checks }
    }

    /// Checks the strict (or, with `adaptive == true`, the deficit-adjusted)
    /// mixing condition for one candidate size in `O(|support| + size)`,
    /// reading the non-support candidates off the per-sweep tail built by
    /// [`WalkEngine::prepare_sweep`].
    fn check_size(
        &self,
        ws: &mut WalkWorkspace,
        size: usize,
        threshold: f64,
        adaptive: bool,
    ) -> (MixingCheck, Option<Vec<VertexId>>) {
        let graph = self.graph;
        let n = graph.num_vertices();
        // Same expression as the dense `node_scores`, so per-vertex scores
        // are bit-identical.
        let average_volume = graph.weighted_volume() / n as f64 * size as f64;

        ws.candidates.clear();
        // Support vertices carry probability: score |p(u) − w(u)/µ′|.
        for &u in &ws.support {
            let score = (ws.current[u] - graph.weighted_degree(u) / average_volume).abs();
            ws.candidates.push((score, u));
        }
        // Outside the support p(v) = 0, so the score is w(v)/µ′ — monotone
        // in the weighted degree. The `size` best non-support candidates are
        // therefore a prefix of the degree-sorted tail; anything beyond that
        // prefix is dominated by `size` better candidates and can never be
        // selected.
        let wanted = size.min(ws.tail.len());
        for &v in &ws.tail[..wanted] {
            let score = (0.0 - graph.weighted_degree(v) / average_volume).abs();
            ws.candidates.push((score, v));
        }

        // Ties broken by vertex id: the identical total order to the dense
        // sweep, so the selected member set matches it exactly.
        let compare = |a: &(f64, VertexId), b: &(f64, VertexId)| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let selected = if size < ws.candidates.len() {
            ws.candidates.select_nth_unstable_by(size - 1, compare);
            &ws.candidates[..size]
        } else {
            &ws.candidates[..]
        };
        let score_sum: f64 = selected.iter().map(|&(score, _)| score).sum();
        let effective_threshold = if adaptive {
            // Adaptive criterion: loosen the budget by the observed leaked
            // mass 1 − p(S). `current` is all-zero outside the support, so
            // the sum reads the retained mass directly.
            let retained: f64 = selected.iter().map(|&(_, v)| ws.current[v]).sum();
            threshold + (1.0 - retained).max(0.0)
        } else {
            threshold
        };
        let holds = score_sum < effective_threshold;
        let check = MixingCheck {
            size,
            score_sum,
            holds,
        };
        if holds {
            let mut members: Vec<VertexId> = selected.iter().map(|&(_, v)| v).collect();
            members.sort_unstable();
            (check, Some(members))
        } else {
            (check, None)
        }
    }
}

/// Total order on vertices by `(weighted degree, id)` — the candidate
/// ordering key of the mixing sweep. Weighted degrees are finite by
/// construction, so `total_cmp` agrees with the numeric order; on an
/// unweighted graph the keys are exact integer-valued f64s and the order is
/// identical to the historical `(degree, id)` sort.
#[inline]
pub(crate) fn degree_key_cmp(graph: &Graph, a: VertexId, b: VertexId) -> std::cmp::Ordering {
    graph
        .weighted_degree(a)
        .total_cmp(&graph.weighted_degree(b))
        .then(a.cmp(&b))
}

/// Stable LSD radix sort of `(affinity, vertex)` pairs into descending
/// affinity order, using `scratch` as the ping-pong buffer.
///
/// Affinities are non-negative and never NaN ([`affinity_ratio`] yields
/// `0`, a finite positive quotient or `+∞`), so their IEEE bit patterns
/// order like their values and ascending `!bits` is descending affinity.
/// Stability keeps equal affinities in their input order; fed the support
/// in `(weighted degree, id)` order, the result is exactly the order of the
/// comparator "affinity descending, then `(weighted degree, id)`". The key
/// is cut into six 11-bit digits and one pass counts all six histograms; a
/// digit on which every key agrees moves nothing and is skipped (the top
/// one — sign and high exponent bits — nearly always is, leaving five
/// scatter passes where 8-bit digits need seven).
fn radix_sort_by_affinity(items: &mut Vec<(f64, VertexId)>, scratch: &mut Vec<(f64, VertexId)>) {
    const DIGIT_BITS: usize = 11;
    const BUCKETS: usize = 1 << DIGIT_BITS;
    const DIGITS: usize = u64::BITS.div_ceil(DIGIT_BITS as u32) as usize;
    let digit = |key: u64, d: usize| ((key >> (DIGIT_BITS * d)) as usize) & (BUCKETS - 1);
    let key = |&(ratio, _): &(f64, VertexId)| !ratio.to_bits();
    let Some(first) = items.first().map(key) else {
        return;
    };
    assert!(
        u32::try_from(items.len()).is_ok(),
        "radix offsets are 32-bit"
    );
    let mut counts = [[0u32; BUCKETS]; DIGITS];
    for item in items.iter() {
        let k = key(item);
        for (d, histogram) in counts.iter_mut().enumerate() {
            histogram[digit(k, d)] += 1;
        }
    }
    scratch.clear();
    scratch.resize(items.len(), (0.0, 0));
    for (d, histogram) in counts.iter_mut().enumerate() {
        if histogram[digit(first, d)] as usize == items.len() {
            continue;
        }
        let mut offset = 0u32;
        for slot in histogram.iter_mut() {
            let count = *slot;
            *slot = offset;
            offset += count;
        }
        for item in items.iter() {
            let slot = &mut histogram[digit(key(item), d)];
            scratch[*slot as usize] = *item;
            *slot += 1;
        }
        std::mem::swap(items, scratch);
    }
}

/// The hot accumulation kernel: adds `mass` into `next[v]` and marks `v` in
/// the incoming support's mask, with no first-touch branch.
///
/// `next` is all-zero when a step starts (every step zeroes the outgoing
/// support before the buffers swap), and `0.0 + m == m` exactly for the
/// non-negative finite masses the walk carries (edge weights are validated
/// positive), so the first addition stores `m` just as an explicit
/// initialisation would. The caller has already released the outgoing
/// support's bits, so after accumulation the mask holds exactly the incoming
/// support, which [`WalkWorkspace::finish_step`] reads back in ascending
/// order.
#[inline]
pub(crate) fn accumulate(next: &mut [f64], mask: &mut BitMask, v: VertexId, mass: f64) {
    next[v] += mass;
    mask.insert(v);
}

/// Reusable buffers for evolving one walk distribution.
///
/// A workspace is sized for one graph (any graph with the same vertex count)
/// and holds the walk's current distribution, the double buffer the next step
/// is accumulated into, the sorted support, and the scratch used by the
/// mixing sweep. Construct once — via [`WalkEngine::workspace`] or
/// [`WalkWorkspace::for_graph`] — and reuse it for every step of every seed:
/// re-seeding with [`WalkWorkspace::load_point_mass`] costs `O(|support|)`,
/// not `O(n)`.
#[derive(Debug, Clone)]
pub struct WalkWorkspace {
    /// `p_ℓ`: zero outside `support`.
    pub(crate) current: Vec<f64>,
    /// Accumulator for `p_{ℓ+1}`: all-zero between steps, so a step can add
    /// into it without a first-touch test.
    pub(crate) next: Vec<f64>,
    /// Sorted vertices whose mask bit is set; exactly the vertices the last
    /// step touched (all of them carry the walk's remaining mass).
    pub(crate) support: Vec<VertexId>,
    /// Bit-packed support membership (one bit per vertex). Invariant between
    /// operations: bit `v` is set ⟺ `v ∈ support`. A step releases the
    /// outgoing support's bits up front (`O(|support|)` word writes — the
    /// mask-layout replacement for epoch bumping) and sets a bit for every
    /// vertex [`accumulate`] touches, so by the end of the step the mask is
    /// exactly the incoming support, which is read back from it in
    /// ascending order.
    pub(crate) mask: BitMask,
    /// Sweep scratch: `(score, vertex)` candidate pairs (strict, lazy and
    /// adaptive criteria) or the ping-pong buffer of the affinity radix sort
    /// (the renormalised prefix scan).
    candidates: Vec<(f64, VertexId)>,
    /// Renormalised-sweep scratch: the support vertices carrying mass,
    /// ordered by walk affinity `p(u)/d(u)` descending with ties in
    /// `(weighted degree, id)` order, as `(affinity, vertex)` pairs.
    affinity: Vec<(f64, VertexId)>,
    /// Per-sweep tail, rebuilt once per sweep in `(weighted degree, id)`
    /// order: the vertices outside the support, plus — under the
    /// renormalised criterion — the support entries whose mass is exactly
    /// zero (they score like the tail there).
    tail: Vec<VertexId>,
    /// Scratch membership mask for reading the selected set back in
    /// ascending order; all-clear between sweeps.
    members: BitMask,
    /// Prefix-scan scratch (renormalised sweep).
    scan: PrefixScan,
}

/// The renormalised sweep's merged candidate order, shared by every
/// candidate size of one sweep, with its running sums.
#[derive(Debug, Clone, Default)]
struct PrefixScan {
    /// The merged candidate order…
    merged: Vec<VertexId>,
    /// …its affinities (descending; exactly `0.0` on the zero-mass tail)…
    affinity: Vec<f64>,
    /// …running walk mass over the merged prefix (index `i` holds the mass
    /// of the first `i` candidates)…
    cum_mass: Vec<f64>,
    /// …and running weighted volume (sum of weighted degrees) over the
    /// merged prefix — exact integer values on unweighted graphs.
    cum_degree: Vec<f64>,
}

impl PrefixScan {
    /// Empties the scan down to its zero-length prefix.
    fn clear(&mut self) {
        self.merged.clear();
        self.affinity.clear();
        self.cum_mass.clear();
        self.cum_degree.clear();
        self.cum_mass.push(0.0);
        self.cum_degree.push(0.0);
    }

    /// Appends candidate `v` with its affinity and the running sums
    /// through it.
    #[inline]
    fn push(&mut self, v: VertexId, ratio: f64, mass: f64, volume: f64) {
        self.merged.push(v);
        self.affinity.push(ratio);
        self.cum_mass.push(mass);
        self.cum_degree.push(volume);
    }

    /// Appends a run of candidates carrying no mass, so the running mass
    /// stands still across it (no `+ 0.0`); returns the running volume.
    fn extend_massless(
        &mut self,
        graph: &Graph,
        run: &[VertexId],
        mass: f64,
        mut volume: f64,
    ) -> f64 {
        for &v in run {
            volume += graph.weighted_degree(v);
            self.push(v, 0.0, mass, volume);
        }
        volume
    }
}

impl WalkWorkspace {
    /// Creates an empty workspace sized for `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        Self::with_len(graph.num_vertices())
    }

    /// Creates an empty workspace over `n` vertices.
    pub fn with_len(n: usize) -> Self {
        WalkWorkspace {
            current: vec![0.0; n],
            next: vec![0.0; n],
            support: Vec::new(),
            mask: BitMask::with_capacity(n),
            candidates: Vec::new(),
            affinity: Vec::new(),
            tail: Vec::new(),
            members: BitMask::with_capacity(n),
            scan: PrefixScan::default(),
        }
    }

    /// Number of vertices the workspace is sized for.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the workspace covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Resets to the point mass `p_0 = 1_{source}` (Algorithm 1's start).
    /// Reuses all buffers; only the previous support is cleared.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WalkDistribution::point_mass`].
    pub fn load_point_mass(&mut self, source: VertexId) -> Result<(), WalkError> {
        if self.current.is_empty() {
            return Err(WalkError::EmptyDistribution);
        }
        if source >= self.current.len() {
            return Err(cdrw_graph::GraphError::VertexOutOfRange {
                vertex: source,
                num_vertices: self.current.len(),
            }
            .into());
        }
        self.clear_support();
        self.current[source] = 1.0;
        self.mask.insert(source);
        self.support.push(source);
        Ok(())
    }

    /// Loads an arbitrary dense distribution (used by the compatibility
    /// wrappers); costs `O(n)`.
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::DimensionMismatch`] when the lengths differ.
    pub fn load_distribution(&mut self, distribution: &WalkDistribution) -> Result<(), WalkError> {
        if distribution.len() != self.current.len() {
            return Err(WalkError::DimensionMismatch {
                left: distribution.len(),
                right: self.current.len(),
            });
        }
        self.clear_support();
        for (v, &p) in distribution.as_slice().iter().enumerate() {
            if p != 0.0 {
                self.current[v] = p;
                self.mask.insert(v);
                self.support.push(v);
            }
        }
        Ok(())
    }

    /// Loads a sparse distribution given as sorted `(vertex, mass)` entries,
    /// preserving the support *exactly* — including any zero-mass entries, so
    /// a gathered sharded state reproduces the sequential workspace bit for
    /// bit (the sweep's candidate tail depends on support membership, not
    /// just on the masses). Costs `O(|old support| + |entries|)`.
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::EmptyDistribution`] for a zero-length workspace
    /// and a vertex-range error for out-of-range entries.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if the entries are not strictly ascending by
    /// vertex.
    pub fn load_sparse(&mut self, entries: &[(VertexId, f64)]) -> Result<(), WalkError> {
        if self.current.is_empty() {
            return Err(WalkError::EmptyDistribution);
        }
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "sparse entries must be strictly ascending by vertex"
        );
        if let Some(&(v, _)) = entries.iter().find(|&&(v, _)| v >= self.current.len()) {
            return Err(cdrw_graph::GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.current.len(),
            }
            .into());
        }
        self.clear_support();
        for &(v, p) in entries {
            self.current[v] = p;
            self.mask.insert(v);
            self.support.push(v);
        }
        Ok(())
    }

    /// First half of every step kernel: clears the outgoing support's mask
    /// bits so that accumulation marks exactly the incoming support.
    pub(crate) fn release_support_bits(&mut self) {
        for &u in &self.support {
            self.mask.remove(u);
        }
    }

    /// Second half of every step kernel, after accumulation into `next`:
    /// zeroes the outgoing support (restoring the all-zero invariant of the
    /// buffer that becomes the next accumulator), promotes `next`, and reads
    /// the incoming support off the mask in ascending order —
    /// `O(n/64 + |support|)`, with no sort.
    pub(crate) fn finish_step(&mut self) {
        for &u in &self.support {
            self.current[u] = 0.0;
        }
        std::mem::swap(&mut self.current, &mut self.next);
        self.support.clear();
        self.mask.append_to(&mut self.support);
    }

    fn clear_support(&mut self) {
        for &v in &self.support {
            self.current[v] = 0.0;
            self.mask.remove(v);
        }
        self.support.clear();
    }

    /// Snapshots the sparse state as sorted `(vertex, mass)` entries — the
    /// lane state a shard of the sharded runtime reports each round. The
    /// support list is kept ascending by every load/absorb path, so feeding
    /// the snapshot back through [`WalkWorkspace::load_sparse`] reproduces
    /// the workspace bit for bit, including zero-mass support entries: a
    /// shard rebuilt from the gathered snapshots emits exactly the deltas the
    /// lost shard would have.
    pub fn snapshot_sparse(&self) -> Vec<(VertexId, f64)> {
        debug_assert!(
            self.support.windows(2).all(|w| w[0] < w[1]),
            "support must stay strictly ascending for snapshot round-trips"
        );
        self.support.iter().map(|&v| (v, self.current[v])).collect()
    }

    /// The sorted support: every vertex the walk currently touches.
    pub fn support(&self) -> &[VertexId] {
        &self.support
    }

    /// The bit-packed support membership mask (bit `v` set ⟺ `v` is in
    /// [`WalkWorkspace::support`]). Lets membership-heavy consumers — the
    /// sweep's tail filter, `cdrw_congest`'s cost accounting — answer
    /// "does the walk touch `v`?" from one bit instead of searching the
    /// support list.
    pub fn support_mask(&self) -> &BitMask {
        &self.mask
    }

    /// Number of touched vertices.
    pub fn support_size(&self) -> usize {
        self.support.len()
    }

    /// Probability mass at vertex `v` (0.0 when out of range).
    pub fn probability(&self, v: VertexId) -> f64 {
        self.current.get(v).copied().unwrap_or(0.0)
    }

    /// The dense probability vector (zero outside the support).
    pub fn as_slice(&self) -> &[f64] {
        &self.current
    }

    /// Total probability mass (sums only the support).
    pub fn total_mass(&self) -> f64 {
        self.support.iter().map(|&v| self.current[v]).sum()
    }

    /// Snapshots the current state as a dense [`WalkDistribution`].
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::EmptyDistribution`] for a zero-length workspace.
    pub fn to_distribution(&self) -> Result<WalkDistribution, WalkError> {
        WalkDistribution::from_values(self.current.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{largest_mixing_set, WalkOperator};
    use cdrw_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
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
    fn step_matches_dense_operator_bit_for_bit() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(4, 16).unwrap();
        let operator = WalkOperator::new(&graph);
        let engine = WalkEngine::new(&graph);
        let mut ws = engine.workspace();
        ws.load_point_mass(3).unwrap();
        let mut dense = WalkDistribution::point_mass(graph.num_vertices(), 3).unwrap();
        for _ in 0..12 {
            engine.step(&mut ws);
            dense = operator.step_dense(&dense);
            assert_eq!(ws.as_slice(), dense.as_slice(), "sparse and dense diverged");
        }
    }

    #[test]
    fn step_matches_the_uniform_reference_kernel_bit_for_bit() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(4, 16).unwrap();
        for laziness in [0.0, 0.3] {
            let engine = WalkEngine::lazy(&graph, laziness);
            let mut ws = engine.workspace();
            let mut reference_ws = engine.workspace();
            ws.load_point_mass(3).unwrap();
            reference_ws.load_point_mass(3).unwrap();
            for _ in 0..12 {
                engine.step(&mut ws);
                engine.step_uniform_reference(&mut reference_ws);
                assert_eq!(ws.as_slice(), reference_ws.as_slice());
                assert_eq!(ws.support(), reference_ws.support());
            }
        }
    }

    #[test]
    #[should_panic(expected = "predates the weight lane")]
    fn uniform_reference_kernel_rejects_weighted_graphs() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        let g = b.build();
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(0).unwrap();
        engine.step_uniform_reference(&mut ws);
    }

    #[test]
    fn lazy_step_matches_dense_operator() {
        let g = path(9);
        let operator = WalkOperator::lazy(&g, 0.3);
        let engine = WalkEngine::lazy(&g, 0.3);
        assert_eq!(engine.laziness(), 0.3);
        let mut ws = engine.workspace();
        ws.load_point_mass(4).unwrap();
        let mut dense = WalkDistribution::point_mass(9, 4).unwrap();
        for _ in 0..20 {
            engine.step(&mut ws);
            dense = operator.step_dense(&dense);
            assert_eq!(ws.as_slice(), dense.as_slice());
        }
    }

    #[test]
    fn support_tracks_the_ball_around_the_seed() {
        let g = path(11);
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(5).unwrap();
        assert_eq!(ws.support(), &[5]);
        engine.step(&mut ws);
        assert_eq!(ws.support(), &[4, 6]);
        engine.step(&mut ws);
        assert_eq!(ws.support(), &[3, 5, 7]);
        assert_eq!(ws.support_size(), 3);
        assert!((ws.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertex_keeps_its_mass() {
        let g = GraphBuilder::from_edges(3, [(0, 1)]).unwrap();
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(2).unwrap();
        engine.step(&mut ws);
        assert_eq!(ws.probability(2), 1.0);
        assert_eq!(ws.support(), &[2]);
    }

    #[test]
    fn sweep_matches_dense_largest_mixing_set() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(4, 16).unwrap();
        let engine = WalkEngine::new(&graph);
        let mut ws = engine.workspace();
        ws.load_point_mass(2).unwrap();
        let config = LocalMixingConfig {
            min_size: 4,
            ..LocalMixingConfig::default()
        };
        for _ in 0..10 {
            engine.step(&mut ws);
            let sparse = engine.sweep(&mut ws, &config).unwrap();
            let dense =
                largest_mixing_set(&graph, &ws.to_distribution().unwrap(), &config).unwrap();
            assert_eq!(sparse.set, dense.set);
            assert_eq!(sparse.checks.len(), dense.checks.len());
            for (s, d) in sparse.checks.iter().zip(&dense.checks) {
                assert_eq!(s.size, d.size);
                assert_eq!(s.holds, d.holds);
                assert!((s.score_sum - d.score_sum).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sweep_with_full_support_matches_dense() {
        let g = complete(32);
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(0).unwrap();
        for _ in 0..5 {
            engine.step(&mut ws);
        }
        assert_eq!(ws.support_size(), 32);
        let config = LocalMixingConfig::for_graph_size(32);
        let sparse = engine.sweep(&mut ws, &config).unwrap();
        let dense = largest_mixing_set(&g, &ws.to_distribution().unwrap(), &config).unwrap();
        assert_eq!(sparse.set, dense.set);
        assert!(sparse.found());
        assert_eq!(sparse.size(), 32);
    }

    #[test]
    fn workspace_reuse_across_seeds_is_clean() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(3, 8).unwrap();
        let engine = WalkEngine::new(&graph);
        let mut reused = engine.workspace();
        for seed in [0usize, 13, 7, 20] {
            reused.load_point_mass(seed).unwrap();
            let mut fresh = engine.workspace();
            fresh.load_point_mass(seed).unwrap();
            for _ in 0..6 {
                engine.step(&mut reused);
                engine.step(&mut fresh);
                assert_eq!(reused.as_slice(), fresh.as_slice());
                assert_eq!(reused.support(), fresh.support());
            }
        }
    }

    #[test]
    fn load_distribution_round_trips() {
        let g = path(6);
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        let d = WalkDistribution::from_values(vec![0.0, 0.5, 0.0, 0.25, 0.25, 0.0]).unwrap();
        ws.load_distribution(&d).unwrap();
        assert_eq!(ws.support(), &[1, 3, 4]);
        assert_eq!(ws.to_distribution().unwrap(), d);
        let wrong = WalkDistribution::uniform(4).unwrap();
        assert!(ws.load_distribution(&wrong).is_err());
    }

    #[test]
    fn workspace_validation() {
        let mut ws = WalkWorkspace::with_len(0);
        assert!(ws.is_empty());
        assert!(ws.load_point_mass(0).is_err());
        let mut ws = WalkWorkspace::with_len(4);
        assert!(!ws.is_empty());
        assert_eq!(ws.len(), 4);
        assert!(ws.load_point_mass(4).is_err());
        assert!(ws.load_point_mass(3).is_ok());
        assert_eq!(ws.probability(99), 0.0);
    }

    #[test]
    #[should_panic(expected = "workspace is over")]
    fn mismatched_workspace_panics() {
        let g = path(4);
        let engine = WalkEngine::new(&g);
        let mut ws = WalkWorkspace::with_len(5);
        engine.step(&mut ws);
    }

    #[test]
    fn prefix_scan_matches_dense_sweep_on_a_sparse_ppm() {
        // A fig4a-shaped sparse instance at a size where the prefix scan's
        // regrouped score actually exercises long prefixes.
        let n = 1024;
        let ln_n = (n as f64).ln();
        let p = 2.0 * ln_n * ln_n / n as f64;
        let q = p / (2f64.powf(0.6) * ln_n);
        let params = cdrw_gen::PpmParams::new(n, 4, p, q).unwrap();
        let (graph, _) = cdrw_gen::generate_ppm(&params, 11).unwrap();
        let engine = WalkEngine::new(&graph);
        let config = LocalMixingConfig {
            criterion: MixingCriterion::Renormalized,
            ..LocalMixingConfig::for_graph_size(n)
        };
        let mut ws = engine.workspace();
        for seed in [0usize, 300, 777] {
            ws.load_point_mass(seed).unwrap();
            for _ in 0..10 {
                engine.step(&mut ws);
                let fast = engine.sweep(&mut ws, &config).unwrap();
                let reference =
                    largest_mixing_set(&graph, &ws.to_distribution().unwrap(), &config).unwrap();
                assert_eq!(fast.set, reference.set, "seed {seed}");
                assert_eq!(fast.checks.len(), reference.checks.len());
                for (f, r) in fast.checks.iter().zip(&reference.checks) {
                    assert_eq!(f.size, r.size);
                    assert_eq!(f.holds, r.holds, "seed {seed}, size {}", f.size);
                    assert!(
                        (f.score_sum - r.score_sum).abs() < 1e-9
                            || (f.score_sum.is_infinite() && r.score_sum.is_infinite()),
                        "seed {seed}, size {}: {} vs {}",
                        f.size,
                        f.score_sum,
                        r.score_sum
                    );
                }
            }
        }
    }

    /// The comparator the sweep sorted the support with before the radix
    /// pass, kept as the reference order: walk affinity `p(u)/w(u)`
    /// descending (`total_cmp`; affinities are never NaN), ties by
    /// `(weighted degree, id)`.
    fn reference_affinity_order(graph: &Graph, ws: &WalkWorkspace) -> Vec<(f64, VertexId)> {
        let mut order: Vec<(f64, VertexId)> = ws
            .support
            .iter()
            .map(|&u| (affinity_ratio(ws.current[u], graph.weighted_degree(u)), u))
            .collect();
        order.sort_unstable_by(|&(ra, a), &(rb, b)| {
            rb.total_cmp(&ra).then_with(|| degree_key_cmp(graph, a, b))
        });
        order
    }

    #[test]
    fn radix_sort_is_a_stable_descending_sort() {
        let values = [
            0.5,
            f64::INFINITY,
            0.0,
            5e-324,
            0.5,
            1e-300,
            f64::INFINITY,
            0.0,
            0.25,
            5e-324,
            f64::MAX,
            0.5,
        ];
        let mut items: Vec<(f64, VertexId)> = values.iter().copied().zip(0..values.len()).collect();
        let mut expected = items.clone();
        // `sort_by` is stable: equal affinities keep their input order.
        expected.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut scratch = Vec::new();
        radix_sort_by_affinity(&mut items, &mut scratch);
        assert_eq!(items, expected);
        // Degenerate inputs: empty, and all keys equal (every pass skipped).
        let mut empty = Vec::new();
        radix_sort_by_affinity(&mut empty, &mut scratch);
        assert!(empty.is_empty());
        let mut same = vec![(0.125, 7), (0.125, 3), (0.125, 5)];
        radix_sort_by_affinity(&mut same, &mut scratch);
        assert_eq!(same, [(0.125, 7), (0.125, 3), (0.125, 5)]);
    }

    proptest::proptest! {
        /// Under every [`MixingCriterion`], the sparse sweep selects the same
        /// sets and makes the same pass/fail decisions as the dense reference
        /// sweep on arbitrary graphs and walk lengths — the pin for the
        /// renormalised prefix scan and for the per-size `check_size` path
        /// of the other criteria.
        #[test]
        fn criteria_sweeps_match_dense_reference(
            edges in proptest::collection::vec((0usize..24, 0usize..24), 1..160),
            source in 0usize..24,
            steps in 0usize..10,
            criterion_index in 0usize..4,
        ) {
            use proptest::{prop_assert, prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(24, clean).unwrap();
            let criterion = MixingCriterion::all()[criterion_index];
            let engine = WalkEngine::lazy(&g, criterion.laziness());
            let operator = WalkOperator::lazy(&g, criterion.laziness());
            let mut ws = engine.workspace();
            ws.load_point_mass(source).unwrap();
            let mut dense = WalkDistribution::point_mass(24, source).unwrap();
            for _ in 0..steps {
                engine.step(&mut ws);
                dense = operator.step_dense(&dense);
            }
            let config = LocalMixingConfig {
                criterion,
                min_size: 2,
                ..LocalMixingConfig::default()
            };
            let sparse = engine.sweep(&mut ws, &config).unwrap();
            let dense_outcome = largest_mixing_set(&g, &dense, &config).unwrap();
            prop_assert_eq!(&sparse.set, &dense_outcome.set, "criterion {}", criterion.name());
            prop_assert_eq!(sparse.checks.len(), dense_outcome.checks.len());
            for (s, d) in sparse.checks.iter().zip(&dense_outcome.checks) {
                prop_assert_eq!(s.size, d.size);
                prop_assert_eq!(s.holds, d.holds, "criterion {} at size {}", criterion.name(), s.size);
                prop_assert!(
                    (s.score_sum - d.score_sum).abs() < 1e-9
                        || (s.score_sum.is_infinite() && d.score_sum.is_infinite()),
                    "score sums diverged at size {}: {} vs {}",
                    s.size, s.score_sum, d.score_sum
                );
            }
        }

        /// The renormalised sweep's affinity order of the support — radix
        /// sorted, with massless entries merged in from the tail — equals
        /// the reference comparator's order, and the whole merged candidate
        /// order equals the dense sweep's global order, on states built to
        /// force ties: few distinct masses, equal degrees, zero-mass support
        /// entries, masses whose affinity underflows to zero, isolates
        /// (affinity `+∞`) and weighted graphs.
        #[test]
        fn radix_affinity_order_matches_the_comparator(
            edges in proptest::collection::vec((0usize..16, 0usize..16, 0usize..3), 1..60),
            weighted in 0usize..2,
            entries in proptest::collection::vec((0usize..20, 0usize..5), 0..20),
        ) {
            use proptest::{prop_assert_eq, prop_assume};

            // Vertices 16..20 are always isolates.
            let n = 20;
            let clean: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let mut builder = GraphBuilder::new(n);
            for &(u, v, w) in &clean {
                if weighted == 1 {
                    builder.add_weighted_edge(u, v, [0.5, 1.0, 2.0][w]).unwrap();
                } else {
                    builder.add_edge(u, v).unwrap();
                }
            }
            let g = builder.build();
            let masses = [0.0, 0.25, 0.5, 1e-300, 5e-324];
            let mut state: Vec<(VertexId, f64)> =
                entries.iter().map(|&(v, m)| (v, masses[m])).collect();
            state.sort_by_key(|&(v, _)| v);
            state.dedup_by_key(|&mut (v, _)| v);

            let engine = WalkEngine::new(&g);
            let mut ws = engine.workspace();
            ws.load_sparse(&state).unwrap();
            let config = LocalMixingConfig {
                criterion: MixingCriterion::Renormalized,
                min_size: 2,
                ..LocalMixingConfig::default()
            };
            engine.sweep(&mut ws, &config).unwrap();

            let swept: Vec<(u64, VertexId)> = ws
                .scan
                .merged
                .iter()
                .zip(&ws.scan.affinity)
                .filter(|&(&v, _)| ws.mask.contains(v))
                .map(|(&v, &ratio)| (ratio.to_bits(), v))
                .collect();
            let reference: Vec<(u64, VertexId)> = reference_affinity_order(&g, &ws)
                .into_iter()
                .map(|(ratio, v)| (ratio.to_bits(), v))
                .collect();
            prop_assert_eq!(swept, reference);

            let mut global: Vec<VertexId> = g.vertices().collect();
            let ratio = |v: VertexId| affinity_ratio(ws.current[v], g.weighted_degree(v));
            global.sort_by(|&a, &b| ratio(b).total_cmp(&ratio(a)).then_with(|| degree_key_cmp(&g, a, b)));
            prop_assert_eq!(&ws.scan.merged, &global);
        }

        /// On arbitrary graphs, laziness values, and walk lengths, the sparse
        /// engine's distribution is bit-identical to the dense reference
        /// after every step, its support is exactly the dense non-zeros, and
        /// its local-mixing outcome selects the same set. One workspace is
        /// re-seeded for every source, which exercises the mask-clear paths
        /// the way `detect_all` does.
        #[test]
        fn sparse_engine_matches_dense_reference(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 1..120),
            sources in proptest::collection::vec(0usize..20, 1..4),
            laziness in 0.0f64..1.0,
            steps in 0usize..10,
        ) {
            use proptest::{prop_assert, prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(20, clean).unwrap();
            let engine = WalkEngine::lazy(&g, laziness);
            let operator = WalkOperator::lazy(&g, laziness);
            let config = LocalMixingConfig {
                min_size: 2,
                ..LocalMixingConfig::default()
            };
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut ws = engine.workspace();
            for &source in &sources {
                ws.load_point_mass(source).unwrap();
                let mut dense = WalkDistribution::point_mass(20, source).unwrap();
                for step in 0..steps {
                    engine.step(&mut ws);
                    dense = operator.step_dense(&dense);
                    prop_assert_eq!(
                        bits(ws.as_slice()),
                        bits(dense.as_slice()),
                        "mass diverged at step {} from seed {}",
                        step,
                        source
                    );
                    let non_zero: Vec<VertexId> =
                        g.vertices().filter(|&v| dense.probability(v) != 0.0).collect();
                    prop_assert_eq!(ws.support(), non_zero.as_slice());
                }
                let sparse = engine.sweep(&mut ws, &config).unwrap();
                let dense_outcome = largest_mixing_set(&g, &dense, &config).unwrap();
                prop_assert_eq!(&sparse.set, &dense_outcome.set);
                prop_assert_eq!(sparse.checks.len(), dense_outcome.checks.len());
                for (s, d) in sparse.checks.iter().zip(&dense_outcome.checks) {
                    prop_assert_eq!(s.size, d.size);
                    prop_assert_eq!(s.holds, d.holds);
                    prop_assert!(
                        (s.score_sum - d.score_sum).abs() < 1e-12,
                        "score sums diverged at size {}: {} vs {}",
                        s.size, s.score_sum, d.score_sum
                    );
                }
            }
        }
    }
}
