//! The CDRW pipeline, written once and generic over where its walks run.
//!
//! Algorithm 1 is one control flow: a pool loop around the per-seed
//! detection (walk, local-mixing sweep, growth-rule stop), widened by the
//! evidence-aggregation ensemble and followed by the global assembly when
//! the configuration asks for them. [`Pipeline`] is that control flow. What
//! it needs from a walk substrate is the [`WalkExecutor`] trait: load point
//! masses into lanes, step some lanes, sweep one lane, and read a lane's
//! distribution back. The drivers differ only in the executor:
//!
//! * [`LocalExecutor`] owns a [`WalkEngine`] and a [`WalkBatch`]; it serves
//!   [`crate::Cdrw`] (every `detect_parallel` worker included) and
//!   [`crate::CdrwService`].
//! * `cdrw-congest` wraps a [`LocalExecutor`] in a pricer that charges the
//!   CONGEST primitives on every step, every sweep and the
//!   [`PipelineEvent`]s that stand for coordination waves.
//! * `cdrw-kmachine`'s coordinator steps lanes as message rounds between
//!   real shards and serves the gathered distributions as its lanes.
//!
//! Every decision reads only what the executor hands back, so an executor
//! whose lanes are bit-identical to [`WalkEngine::step`]'s yields the same
//! [`DetectionResult`] as the sequential driver. The pipeline is
//! monomorphised per executor: its step loop has no dynamic dispatch and
//! allocates nothing per step.
//!
//! Every driver enters through one gate, [`Pipeline::open`]: the graph is
//! checked first ([`CdrwError::EmptyGraph`], then [`CdrwError::NoEdges`]),
//! then the configuration, then the seed (single-seed detection only), and
//! the growth threshold `δ` is resolved last.

use cdrw_graph::{Graph, VertexId};
use cdrw_walk::evidence::{community_scale_vote, select_interior_seeds, PooledClaim, WalkEvidence};
use cdrw_walk::{LocalMixingConfig, LocalMixingOutcome, WalkBatch, WalkEngine, WalkWorkspace};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::assembly::{self, AssemblyOutcome, GroupVote};
use crate::growth::{GrowthTracker, WalkAnswer};
use crate::result::{
    CommunityDetection, DetectionResult, DetectionTrace, EnsembleTrace, EnsembleWalkTrace,
    StepTrace,
};
use crate::{AssemblyPolicy, CdrwConfig, CdrwError};

/// The shuffled seed pool of Algorithm 1's outer loop: all `n` vertices in
/// the order induced by the configuration seed ("pick a random node from
/// pool"). The pool loop of every driver draws from here, so the detection
/// order cannot drift between them.
pub fn shuffled_seed_pool(n: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool: Vec<VertexId> = (0..n).collect();
    pool.shuffle(&mut rng);
    pool
}

/// A point in the pipeline an executor may want to act on.
///
/// Local execution ignores them all. The CONGEST pricer charges its
/// coordination waves on them, and the k-machine coordinator attributes its
/// measured flood per detection and to the assembly phase.
#[derive(Debug, Clone, Copy)]
pub enum PipelineEvent<'e> {
    /// A detection from this seed begins (isolated seeds included).
    DetectionStart(VertexId),
    /// The open detection's base walk concluded.
    BaseWalkDone,
    /// The ensemble picked its follow-up seeds from the base walk's lane.
    FollowupsSelected,
    /// A follow-up or assembly re-seed walk cast its vote (or abstained).
    WalkVote,
    /// The ensemble's effective quorum was fixed.
    QuorumAnnounced,
    /// The open detection is complete.
    DetectionEnd(&'e CommunityDetection),
    /// The pooled assembly begins over the run's detections, in run order.
    AssemblyStart(&'e [CommunityDetection]),
    /// The pooled assembly finished with this outcome.
    AssemblyEnd(&'e AssemblyOutcome),
}

/// A walk substrate the [`Pipeline`] can drive.
///
/// An executor holds a bank of walk lanes. The pipeline loads seeds into
/// lanes `0..seeds.len()`, steps the lanes that are still walking (all
/// together), sweeps each of them, and reads a lane's distribution back to
/// rank the ensemble's follow-up seeds.
pub trait WalkExecutor {
    /// Loads `seeds[i]` as a fresh point-mass walk into lane `i`.
    ///
    /// # Errors
    ///
    /// Fails when a seed is out of range.
    fn load(&mut self, seeds: &[VertexId]) -> Result<(), CdrwError>;

    /// Advances the listed lanes (ascending, non-empty) by one walk step.
    ///
    /// # Errors
    ///
    /// Fails when the substrate cannot complete the step.
    fn step(&mut self, lanes: &[u32]) -> Result<(), CdrwError>;

    /// Runs the local-mixing sweep on one lane's current distribution.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures.
    fn sweep(
        &mut self,
        lane: usize,
        config: &LocalMixingConfig,
    ) -> Result<LocalMixingOutcome, CdrwError>;

    /// The current distribution of one lane.
    fn lane(&self, lane: usize) -> &WalkWorkspace;

    /// Observes a pipeline event; the default ignores it.
    ///
    /// # Errors
    ///
    /// An error aborts the run.
    fn on_event(&mut self, event: PipelineEvent<'_>) -> Result<(), CdrwError> {
        let _ = event;
        Ok(())
    }
}

/// The in-process executor: one [`WalkEngine`] plus one reusable
/// [`WalkBatch`] of lanes, every step one [`WalkEngine::step_batch`] over
/// the live lanes (a single live lane included: its distribution is
/// bit-identical to a solo [`WalkEngine::step`]).
#[derive(Debug)]
pub struct LocalExecutor<'g> {
    engine: WalkEngine<'g>,
    batch: WalkBatch,
}

impl WalkExecutor for LocalExecutor<'_> {
    fn load(&mut self, seeds: &[VertexId]) -> Result<(), CdrwError> {
        Ok(self.batch.load_point_masses(seeds)?)
    }

    fn step(&mut self, lanes: &[u32]) -> Result<(), CdrwError> {
        for lane in 0..self.batch.lanes() {
            self.batch.set_active(lane, false);
        }
        for &lane in lanes {
            self.batch.set_active(lane as usize, true);
        }
        self.engine.step_batch(&mut self.batch);
        Ok(())
    }

    fn sweep(
        &mut self,
        lane: usize,
        config: &LocalMixingConfig,
    ) -> Result<LocalMixingOutcome, CdrwError> {
        Ok(self.engine.sweep(self.batch.lane_mut(lane), config)?)
    }

    fn lane(&self, lane: usize) -> &WalkWorkspace {
        self.batch.lane(lane)
    }
}

/// Algorithm 1 — pool loop, per-seed detection, ensemble and assembly —
/// bound to one graph, one configuration and a resolved `δ`.
#[derive(Debug)]
pub struct Pipeline<'a> {
    config: &'a CdrwConfig,
    graph: &'a Graph,
    delta: f64,
    mixing: LocalMixingConfig,
    max_length: usize,
}

impl<'a> Pipeline<'a> {
    /// The entry gate of every driver: rejects a degenerate graph, then an
    /// invalid configuration, then an out-of-range `seed` (when given), and
    /// resolves `δ`.
    ///
    /// # Errors
    ///
    /// * [`CdrwError::EmptyGraph`] / [`CdrwError::NoEdges`] for degenerate
    ///   graphs.
    /// * [`CdrwError::InvalidConfig`] if the configuration fails validation.
    /// * [`CdrwError::Graph`] if `seed` is out of range, or if `δ` cannot be
    ///   estimated.
    pub fn open(
        config: &'a CdrwConfig,
        graph: &'a Graph,
        seed: Option<VertexId>,
    ) -> Result<Self, CdrwError> {
        admit(config, graph)?;
        if let Some(seed) = seed {
            graph.check_vertex(seed)?;
        }
        let delta = config.resolve_delta(graph)?;
        Ok(Pipeline::with_delta(config, graph, delta))
    }

    /// The entry gate with `δ` carried over instead of resolved (the
    /// service's incremental refresh reuses the last full refresh's `δ`).
    pub(crate) fn reopen(
        config: &'a CdrwConfig,
        graph: &'a Graph,
        delta: f64,
    ) -> Result<Self, CdrwError> {
        admit(config, graph)?;
        Ok(Pipeline::with_delta(config, graph, delta))
    }

    /// A pipeline with `δ` already resolved and the gate already passed.
    pub(crate) fn with_delta(config: &'a CdrwConfig, graph: &'a Graph, delta: f64) -> Self {
        let n = graph.num_vertices();
        Pipeline {
            config,
            graph,
            delta,
            mixing: config.local_mixing_config(n),
            max_length: config.max_walk_length(n),
        }
    }

    /// The resolved growth threshold `δ`.
    pub(crate) fn delta(&self) -> f64 {
        self.delta
    }

    /// A fresh in-process executor for this pipeline's graph: lazy iff the
    /// criterion asks for a lazy walk.
    pub fn executor(&self) -> LocalExecutor<'a> {
        LocalExecutor {
            engine: WalkEngine::lazy(self.graph, self.config.criterion.laziness()),
            batch: WalkBatch::for_graph(self.graph),
        }
    }

    /// A fresh evidence accumulator, enabled iff the ensemble or the pooled
    /// assembly will record walks.
    pub fn evidence(&self) -> WalkEvidence {
        WalkEvidence::for_graph_if(
            self.config.ensemble.is_ensemble() || self.config.assembly.is_pooled(),
            self.graph,
        )
    }

    /// The whole one-shot run: the pool loop from an empty cover, then the
    /// configured assembly. Returns the result and the drained claim pool
    /// (empty under [`AssemblyPolicy::Raw`]).
    ///
    /// # Errors
    ///
    /// Propagates executor and evidence failures.
    pub fn run<E: WalkExecutor>(
        &self,
        executor: &mut E,
    ) -> Result<(DetectionResult, Vec<PooledClaim>), CdrwError> {
        let mut evidence = self.evidence();
        let covered = vec![false; self.graph.num_vertices()];
        let detections = self.pool_loop(executor, &mut evidence, covered, Vec::new())?;
        self.assemble(executor, &mut evidence, detections, &[], 0.0)
    }

    /// The outer loop of Algorithm 1: walk the shuffled seed pool, skip
    /// every `covered` vertex, detect from the rest, and mark each
    /// detection's members covered. New detections are appended to
    /// `detections` (the carried-over ones come first) and, under the pooled
    /// assembly, their claims are pooled under their index.
    ///
    /// # Errors
    ///
    /// Propagates executor and evidence failures.
    pub(crate) fn pool_loop<E: WalkExecutor>(
        &self,
        executor: &mut E,
        evidence: &mut WalkEvidence,
        mut covered: Vec<bool>,
        mut detections: Vec<CommunityDetection>,
    ) -> Result<Vec<CommunityDetection>, CdrwError> {
        let pooling = self.config.assembly.is_pooled();
        for seed in shuffled_seed_pool(self.graph.num_vertices(), self.config.seed) {
            if covered[seed] {
                continue;
            }
            let detection = self.detect(executor, evidence, seed)?;
            if pooling {
                evidence.pool_epoch(detections.len() as u32);
            }
            for &v in &detection.members {
                covered[v] = true;
            }
            covered[seed] = true;
            detections.push(detection);
        }
        Ok(detections)
    }

    /// The detection of one seed: the single walk (Algorithm 1's inner
    /// loop) or the evidence-aggregation ensemble, per
    /// [`CdrwConfig::ensemble`]. Under the pooled assembly the detection's
    /// votes are left in the accumulator's current epoch for the caller to
    /// pool; recording never influences a walk decision.
    ///
    /// A zero-degree seed short-circuits to a singleton detection: the walk
    /// cannot leave the vertex, and an isolated vertex is its own community.
    ///
    /// # Errors
    ///
    /// Propagates executor and evidence failures.
    pub fn detect<E: WalkExecutor>(
        &self,
        executor: &mut E,
        evidence: &mut WalkEvidence,
        seed: VertexId,
    ) -> Result<CommunityDetection, CdrwError> {
        executor.on_event(PipelineEvent::DetectionStart(seed))?;
        let pooling = self.config.assembly.is_pooled();
        let detection = if self.graph.degree(seed) == 0 {
            let detection = finish(seed, vec![seed], self.trace(Vec::new(), false));
            if pooling {
                evidence.begin();
                evidence.record_walk(&detection.members, 0.0)?;
            }
            detection
        } else if self.config.ensemble.is_ensemble() {
            self.detect_ensemble(executor, evidence, seed)?
        } else {
            let floor = self.config.min_stop_size(self.graph.num_vertices());
            let (detection, margin) = self.base_walk(executor, seed, floor)?;
            if pooling {
                evidence.begin();
                evidence.record_walk(&detection.members, margin)?;
            }
            detection
        };
        executor.on_event(PipelineEvent::DetectionEnd(&detection))?;
        Ok(detection)
    }

    /// The inner loop of Algorithm 1 in lane 0: walk, local-mixing sweep,
    /// growth-rule stop, with one [`StepTrace`] per step. `stop_floor` is
    /// the smallest previous-set size at which the growth rule applies (the
    /// configured [`CdrwConfig::min_stop_size`]).
    ///
    /// Returns the detection with its mixing margin: the threshold minus the
    /// winning sweep check's score for the returned set (0.0 when the walk
    /// never found a mixing set), which the ensemble records as evidence.
    fn base_walk<E: WalkExecutor>(
        &self,
        executor: &mut E,
        seed: VertexId,
        stop_floor: usize,
    ) -> Result<(CommunityDetection, f64), CdrwError> {
        executor.load(&[seed])?;
        let mut steps = Vec::with_capacity(self.max_length);
        let mut tracker = GrowthTracker::new(stop_floor, self.delta, None);
        for walk_length in 1..=self.max_length {
            executor.step(&[0])?;
            let outcome = executor.sweep(0, &self.mixing)?;
            steps.push(StepTrace {
                walk_length,
                mixing_set_size: outcome.size(),
                sizes_checked: outcome.sizes_checked(),
            });
            if tracker.observe_outcome(self.graph, seed, outcome, self.mixing.threshold) {
                break;
            }
        }
        let fired = tracker.fired();
        let (members, margin, _) = tracker.conclude(self.graph, seed);
        let mut detection = finish(seed, members, self.trace(steps, fired));
        if fired {
            // The firing step found a *larger* set that the stop rule
            // discards; record the returned community's size so the trace
            // agrees with the detection (see `StepTrace::mixing_set_size`).
            if let Some(last) = detection.trace.steps.last_mut() {
                last.mixing_set_size = detection.members.len();
            }
        }
        executor.on_event(PipelineEvent::BaseWalkDone)?;
        Ok((detection, margin))
    }

    /// Runs one walk per seed, lane `i` walking from `seeds[i]`, all live
    /// lanes stepped together; each lane sweeps its own distribution and
    /// stops independently through its [`GrowthTracker`] (a stopped lane
    /// pays for no further steps). Returns one [`WalkAnswer`] per seed, in
    /// seed order, with the last community-scale (at most `bounded_cap`
    /// vertices) mixing set each walk passed through.
    pub(crate) fn walk_lanes<E: WalkExecutor>(
        &self,
        executor: &mut E,
        seeds: &[VertexId],
        stop_floor: usize,
        bounded_cap: usize,
    ) -> Result<Vec<WalkAnswer>, CdrwError> {
        executor.load(seeds)?;
        let mut trackers: Vec<GrowthTracker> = seeds
            .iter()
            .map(|_| GrowthTracker::new(stop_floor, self.delta, Some(bounded_cap)))
            .collect();
        let mut live: Vec<u32> = (0..seeds.len() as u32).collect();
        for _ in 1..=self.max_length {
            if live.is_empty() {
                break;
            }
            executor.step(&live)?;
            let mut kept = 0;
            for index in 0..live.len() {
                let lane = live[index] as usize;
                let outcome = executor.sweep(lane, &self.mixing)?;
                let stopped = trackers[lane].observe_outcome(
                    self.graph,
                    seeds[lane],
                    outcome,
                    self.mixing.threshold,
                );
                if !stopped {
                    live[kept] = lane as u32;
                    kept += 1;
                }
            }
            live.truncate(kept);
        }
        Ok(trackers
            .into_iter()
            .zip(seeds)
            .map(|(tracker, &seed)| tracker.conclude(self.graph, seed))
            .collect())
    }

    /// [`Pipeline::walk_lanes`] at the community-scale cap `n/2`, each answer
    /// turned into the set the walk votes with ([`community_scale_vote`]): a
    /// walk that mixed over more than half the graph before finding a
    /// plateau votes with the last community-scale set it passed through, or
    /// abstains. Serves the ensemble's follow-ups and the assembly's re-seed
    /// walks alike.
    fn votes<E: WalkExecutor>(
        &self,
        executor: &mut E,
        seeds: &[VertexId],
        stop_floor: usize,
    ) -> Result<Vec<GroupVote>, CdrwError> {
        let cap = self.graph.num_vertices() / 2;
        let answers = self.walk_lanes(executor, seeds, stop_floor, cap)?;
        answers
            .into_iter()
            .map(|(members, margin, bounded)| {
                let vote = community_scale_vote(members, margin, bounded, cap);
                executor.on_event(PipelineEvent::WalkVote)?;
                Ok(vote)
            })
            .collect()
    }

    /// The evidence-aggregation ensemble: run the base detection, re-seed
    /// `walks − 1` follow-up walks from high-affinity members of its
    /// interior, and emit the quorum-filtered consensus joined with the base
    /// detection (so the ensemble only ever *adds* corroborated vertices to
    /// Algorithm 1's own answer). Follow-up walks run with the growth-rule
    /// floor raised past the base detection's size: near the connectivity
    /// threshold the base walk tends to stop on a small transient plateau,
    /// and a follow-up that cannot stop there either finds the community's
    /// own (larger) plateau or walks on until it mixes globally, in which
    /// case it votes with the last community-scale set it passed through or
    /// abstains.
    fn detect_ensemble<E: WalkExecutor>(
        &self,
        executor: &mut E,
        evidence: &mut WalkEvidence,
        seed: VertexId,
    ) -> Result<CommunityDetection, CdrwError> {
        let graph = self.graph;
        let walks = self.config.ensemble.walks();
        let base_floor = self.config.min_stop_size(graph.num_vertices());
        let (base, base_margin) = self.base_walk(executor, seed, base_floor)?;

        evidence.begin();
        evidence.record_walk(&base.members, base_margin)?;
        // Lane 0 still holds the base walk's final distribution — the
        // affinity signal the interior seeds are ranked by.
        let followups =
            select_interior_seeds(graph, executor.lane(0), &base.members, seed, walks - 1);
        executor.on_event(PipelineEvent::FollowupsSelected)?;
        let escalated_floor = base_floor.max(base.members.len() + 1);

        let mut walk_traces = vec![EnsembleWalkTrace {
            seed,
            set_size: base.members.len(),
            margin: base_margin,
            contributed: 0,
        }];
        let CommunityDetection {
            members: base_members,
            trace: mut base_trace,
            ..
        } = base;
        let mut sets: Vec<Vec<VertexId>> = vec![base_members];
        let votes = self.votes(executor, &followups, escalated_floor)?;
        for (&followup_seed, vote) in followups.iter().zip(votes) {
            let (voted, margin) = vote.unwrap_or((Vec::new(), 0.0));
            if !voted.is_empty() {
                evidence.record_walk(&voted, margin)?;
            }
            walk_traces.push(EnsembleWalkTrace {
                seed: followup_seed,
                set_size: voted.len(),
                margin,
                contributed: 0,
            });
            sets.push(voted);
        }

        // Small detections can yield fewer distinct follow-up seeds than the
        // policy asks for; cap the quorum at the evidence actually gathered
        // so the consensus never empties out by construction.
        let quorum = self.config.ensemble.quorum().min(evidence.walks_recorded());
        executor.on_event(PipelineEvent::QuorumAnnounced)?;
        let members = evidence.consensus_with(quorum as u32, &sets[0]);
        for (walk, set) in walk_traces.iter_mut().zip(&sets) {
            walk.contributed = set
                .iter()
                .filter(|v| members.binary_search(v).is_ok())
                .count();
        }
        base_trace.ensemble = Some(EnsembleTrace {
            quorum,
            walks: walk_traces,
            consensus_size: members.len(),
        });
        Ok(finish(seed, members, base_trace))
    }

    /// Turns the run's detections into the result per
    /// [`CdrwConfig::assembly`]: first claim wins under
    /// [`AssemblyPolicy::Raw`]; under [`AssemblyPolicy::Pooled`] the pooled
    /// claims go to [`assembly::assemble_run`], whose re-seed
    /// walks run through the executor, and every detection is refined to its
    /// evidence group's consensus.
    ///
    /// `frozen` flags detections whose refined sets and claims the
    /// incremental service carried over, relaxed by `freeze_tolerance` (see
    /// [`assembly::assemble_run`]); one-shot runs pass `&[]`.
    /// Returns the result together with the drained claim pool.
    ///
    /// # Errors
    ///
    /// Propagates executor and evidence failures.
    pub(crate) fn assemble<E: WalkExecutor>(
        &self,
        executor: &mut E,
        evidence: &mut WalkEvidence,
        mut detections: Vec<CommunityDetection>,
        frozen: &[bool],
        freeze_tolerance: f64,
    ) -> Result<(DetectionResult, Vec<PooledClaim>), CdrwError> {
        let n = self.graph.num_vertices();
        let AssemblyPolicy::Pooled { reseed, quorum } = self.config.assembly else {
            return Ok((DetectionResult::new(n, detections, self.delta), Vec::new()));
        };
        executor.on_event(PipelineEvent::AssemblyStart(&detections))?;
        let member_sets: Vec<Vec<VertexId>> =
            detections.iter().map(|d| d.members.clone()).collect();
        let seeds: Vec<VertexId> = detections.iter().map(|d| d.seed).collect();
        let outcome = assembly::assemble_run(
            self.graph,
            reseed,
            quorum,
            &member_sets,
            &seeds,
            frozen,
            freeze_tolerance,
            evidence,
            |walk_seeds, floor| self.votes(executor, walk_seeds, floor),
        )?;
        executor.on_event(PipelineEvent::AssemblyEnd(&outcome))?;
        for (detection, refined) in detections.iter_mut().zip(outcome.refined) {
            detection.members = refined;
        }
        let result = DetectionResult::assembled(
            n,
            detections,
            outcome.partition,
            outcome.report,
            self.delta,
        );
        Ok((result, outcome.claims))
    }

    fn trace(&self, steps: Vec<StepTrace>, stopped_by_growth_rule: bool) -> DetectionTrace {
        DetectionTrace {
            steps,
            stopped_by_growth_rule,
            delta: self.delta,
            ensemble: None,
        }
    }
}

/// Rejects a degenerate graph, then an invalid configuration.
fn admit(config: &CdrwConfig, graph: &Graph) -> Result<(), CdrwError> {
    if graph.num_vertices() == 0 {
        return Err(CdrwError::EmptyGraph);
    }
    if graph.num_edges() == 0 {
        return Err(CdrwError::NoEdges);
    }
    config.validate()
}

/// A detection always contains its seed.
fn finish(seed: VertexId, mut members: Vec<VertexId>, trace: DetectionTrace) -> CommunityDetection {
    if members.binary_search(&seed).is_err() {
        members.push(seed);
        members.sort_unstable();
    }
    CommunityDetection {
        seed,
        members,
        trace,
    }
}
