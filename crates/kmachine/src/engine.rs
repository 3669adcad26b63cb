//! The k-machine execution engine: CDRW running *on* the shards.
//!
//! Where [`crate::KMachineSimulator`] only prices a sequential execution,
//! [`KMachineEngine`] actually runs it distributed: the graph is split over
//! `k` worker shards by the [`crate::RandomVertexPartition`] (each holding a
//! [`cdrw_graph::SubCsr`] of its owned rows), and every walk step is an
//! explicit message round of probability-mass deltas between the shards
//! ([`cdrw_walk::shard`]).
//!
//! ## The executor split
//!
//! The engine holds no detection logic of its own. Its coordinator is a
//! [`WalkExecutor`]: loading a lane and stepping lanes are shard protocol
//! commands, and the lanes it serves to the sweep are the shards' supports
//! gathered back into one global view. [`cdrw_core::Pipeline`] — the same
//! pool loop, ensemble and assembly that serve [`cdrw_core::Cdrw`] — drives
//! it to completion. Shard-local state lives on the shards; the one global
//! loop that reconciles it lives in `cdrw-core`.
//!
//! ## Conformance contract
//!
//! * **Decisions are bit-identical to the sequential driver.** Each gathered
//!   lane is bit-identical to the sequential workspace (see the
//!   `cdrw_walk::shard` module docs for the accumulation-order argument), and
//!   every decision is the pipeline's. The whole [`DetectionResult`] —
//!   members, traces, partition, assembly report — compares equal to
//!   `Cdrw::detect_all`'s.
//! * **Measured messages equal the modelled flood.** Every emitted edge
//!   delta is one counted message; per lane-round the count is exactly
//!   `sparse_walk_step_cost` on the pre-step distribution, which is also
//!   exactly the `flood` account the CONGEST runner charges per detection.
//!   [`WalkConformance`] carries measured and modelled side by side, per
//!   physical round and — attributed on the pipeline's detection and
//!   assembly events — per detection, so the cost tests double as
//!   conformance tests of the real execution.
//!
//! Intentional deviations (asserted by the conformance suite, documented in
//! `docs/PAPER_MAP.md`): sweep/coordination costs (BFS trees, binary-search
//! aggregations, membership broadcasts) are *not* executed — the coordinator
//! decides centrally and those costs stay modelled-only — and lanes stepped
//! together share one physical round, so physical rounds ≤ modelled lane
//! rounds.
//!
//! ## Fault tolerance
//!
//! One rule carries it: **at most one round in flight.** Loads ride on the
//! next [`Message::Step`], every step is answered by every shard, and round
//! `seq + 1` is issued only after all `k` replies to round `seq`. The
//! coordinator never blocks unboundedly: every wait is a deadline
//! ([`CoordinatorLinks::recv_deadline`]) with exponential backoff, and a
//! timeout re-broadcasts the round (duplicates are absorbed by the shards —
//! see [`crate::shard`]). A shard that stays silent past the retry budget is
//! declared dead and rebuilt from the coordinator's gathered lanes, which
//! before the round are exactly the state after round `seq − 1` (the
//! conformance contract above). The replacement starts at `seq − 1` and
//! redoes the in-flight round; its peers' round-`seq` buckets arrive through
//! the same re-broadcast. Duplicate traffic is charged to a separate
//! [`FaultLog`] — the conformance ledger counts only the first accepted
//! reply per round, so measured-vs-modelled equality survives arbitrary
//! recoverable fault schedules (deviation 16 in `docs/PAPER_MAP.md`). When a
//! shard exhausts [`ResiliencePolicy::max_recoveries`] the run fails with
//! the typed [`CdrwError::ShardFailure`] — never a hang.

use std::time::Duration;

use cdrw_congest::primitives::sparse_walk_step_cost;
use cdrw_core::{CdrwError, DetectionResult, Pipeline, PipelineEvent, WalkExecutor};
use cdrw_graph::{Graph, SubCsr, VertexId};
use cdrw_walk::shard::merge_runs_by_key;
use cdrw_walk::{LocalMixingConfig, LocalMixingOutcome, WalkEngine, WalkWorkspace};

use crate::chaos::{ChaosHarness, FaultPlan};
use crate::partition::{PartitionStats, RandomVertexPartition};
use crate::shard::ShardWorker;
use crate::transport::{
    mpsc_mesh_recoverable, CoordinatorLinks, Message, MpscTransport, TransportError,
};
use crate::KMachineConfig;

/// Message conformance of one physical walk round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConformance {
    /// 1-based physical round index.
    pub round: u64,
    /// Lanes stepped together in this physical round.
    pub lanes: u32,
    /// Edge deltas the shards actually sent (summed over lanes).
    pub measured_messages: u64,
    /// `sparse_walk_step_cost` on each lane's pre-step distribution (summed).
    pub modelled_messages: u64,
}

/// Flood conformance of one detection (or of the assembly phase): the
/// measured execution next to the congest model's expected counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionFlood {
    /// The detection's seed (`usize::MAX` for the assembly phase).
    pub seed: VertexId,
    /// Per-lane walk rounds executed — the model's flood rounds.
    pub lane_rounds: u64,
    /// Physical rounds executed (≤ `lane_rounds`: batched lanes share one).
    pub physical_rounds: u64,
    /// Edge deltas actually sent.
    pub measured_messages: u64,
    /// The congest model's expected flood messages.
    pub modelled_messages: u64,
}

/// Walk-phase conformance ledger of one engine run.
#[derive(Debug, Clone, Default)]
pub struct WalkConformance {
    /// Physical message rounds executed.
    pub physical_rounds: u64,
    /// Per-lane walk rounds (what the congest model charges as flood rounds).
    pub lane_rounds: u64,
    /// Total edge deltas sent by the shards.
    pub measured_messages: u64,
    /// Total `sparse_walk_step_cost` messages over the same steps.
    pub modelled_messages: u64,
    /// Per-physical-round breakdown.
    pub per_round: Vec<RoundConformance>,
    /// Per-detection breakdown, in detection order.
    pub per_detection: Vec<DetectionFlood>,
    /// The assembly phase's breakdown (pooled assembly only).
    pub assembly: Option<DetectionFlood>,
}

/// One shard recovery event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecovery {
    /// The rebuilt shard.
    pub shard: usize,
    /// The round in flight when the shard was declared dead.
    pub at_seq: u64,
    /// The first round the replacement ran: always `at_seq`, the in-flight
    /// round it redoes.
    pub replay_from: u64,
}

/// Every fault-handling action of one run, charged separately from the
/// conformance ledger: the base CONGEST cost model is unchanged by retries
/// and recovery (the ledger counts only the first accepted reply per
/// round), and this log is where the extra traffic is accounted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    /// Deadline expiries while waiting for shard replies.
    pub timeouts: u64,
    /// Command re-broadcasts after a timeout.
    pub retries: u64,
    /// Duplicate `StepDone` replies absorbed (not counted in the
    /// conformance ledger).
    pub duplicate_replies: u64,
    /// Edge deltas carried by those duplicate replies — the retry overhead
    /// in model units.
    pub replayed_messages: u64,
    /// Shards that replied only after at least one retry of a round.
    pub stragglers: u64,
    /// Shard rebuilds, in occurrence order.
    pub recoveries: Vec<ShardRecovery>,
}

impl FaultLog {
    /// Whether the run saw no fault-handling action at all.
    pub fn is_clean(&self) -> bool {
        self == &FaultLog::default()
    }
}

/// The coordinator's fault-tolerance budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Base deadline for one wait on shard replies; consecutive timeouts
    /// back off exponentially from here (doubling, capped at 32×).
    pub round_timeout: Duration,
    /// Consecutive timeouts tolerated (each followed by a command
    /// re-broadcast) before the still-silent shards are declared dead.
    pub max_retries: u32,
    /// Rebuilds allowed per shard before the run fails with
    /// [`CdrwError::ShardFailure`].
    pub max_recoveries: u32,
    /// How long a shard waits without hearing anything before assuming the
    /// run is gone and exiting (the lost-`Halt` watchdog).
    pub shard_patience: Duration,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        // Generous production defaults: a fault-free in-process round
        // completes in microseconds, so these never fire on a healthy mesh,
        // while a genuinely wedged shard is recovered within ~10 s.
        ResiliencePolicy {
            round_timeout: Duration::from_millis(250),
            max_retries: 4,
            max_recoveries: 2,
            shard_patience: Duration::from_secs(60),
        }
    }
}

impl ResiliencePolicy {
    /// A tight-deadline policy for fault-injection tests: retries fire in
    /// milliseconds so a chaos matrix sweeps quickly.
    pub fn aggressive() -> Self {
        ResiliencePolicy {
            round_timeout: Duration::from_millis(15),
            max_retries: 4,
            max_recoveries: 3,
            shard_patience: Duration::from_secs(10),
        }
    }
}

/// Report of one sharded execution.
#[derive(Debug, Clone)]
pub struct KMachineRunReport {
    /// Number of worker shards.
    pub num_machines: usize,
    /// The detection result — bit-identical to [`cdrw_core::Cdrw`]'s.
    pub result: DetectionResult,
    /// Balance statistics of the vertex partition used.
    pub partition: PartitionStats,
    /// Measured-vs-modelled walk message conformance.
    pub conformance: WalkConformance,
    /// Every retry, timeout, duplicate and recovery the run absorbed
    /// (empty on a healthy mesh).
    pub fault_log: FaultLog,
}

/// The real multi-shard CDRW execution engine.
///
/// Unlike the [`crate::KMachineSimulator`] (which requires `k ≥ 2` because a
/// one-machine "distributed" simulation is meaningless), the engine accepts
/// `k = 1`: a single shard exercises the full message protocol against
/// itself, which the property tests use as the degenerate base case.
#[derive(Debug, Clone)]
pub struct KMachineEngine {
    config: KMachineConfig,
    resilience: ResiliencePolicy,
    fault_plan: Option<FaultPlan>,
}

impl KMachineEngine {
    /// Creates an engine with the given configuration, default
    /// [`ResiliencePolicy`] and no fault injection.
    ///
    /// # Errors
    ///
    /// Returns [`CdrwError::InvalidConfig`] when `num_machines == 0`.
    pub fn new(config: KMachineConfig) -> Result<Self, CdrwError> {
        if config.num_machines == 0 {
            return Err(CdrwError::InvalidConfig {
                field: "num_machines",
                reason: "the execution engine needs k ≥ 1".to_string(),
            });
        }
        Ok(KMachineEngine {
            config,
            resilience: ResiliencePolicy::default(),
            fault_plan: None,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &KMachineConfig {
        &self.config
    }

    /// Replaces the fault-tolerance budget.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Wraps every shard transport in a [`crate::chaos::ChaosTransport`]
    /// injecting the given plan's faults. The plan is validated at run time.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs the full detection pipeline on the shards, partitioning by the
    /// configured RVP seed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`cdrw_core::Cdrw::detect_all`], plus
    /// [`CdrwError::ShardFailure`] when a shard dies beyond the resilience
    /// budget.
    pub fn run(&self, graph: &Graph) -> Result<KMachineRunReport, CdrwError> {
        let partition =
            RandomVertexPartition::new(graph, self.config.num_machines, self.config.partition_seed);
        self.run_with_partition(graph, &partition)
    }

    /// Runs under fault injection with the tight-deadline
    /// [`ResiliencePolicy::aggressive`] budget: the standard entry point of
    /// the chaos conformance matrix. The result must still be bit-identical
    /// to the fault-free (and sequential) run whenever the plan is
    /// recoverable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KMachineEngine::run`], plus
    /// [`CdrwError::InvalidConfig`] for an invalid plan.
    pub fn run_chaos(
        &self,
        graph: &Graph,
        plan: &FaultPlan,
    ) -> Result<KMachineRunReport, CdrwError> {
        self.clone()
            .with_resilience(ResiliencePolicy::aggressive())
            .with_fault_plan(plan.clone())
            .run(graph)
    }

    /// [`KMachineEngine::run_chaos`] over an explicit partition.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KMachineEngine::run_chaos`].
    pub fn run_chaos_with_partition(
        &self,
        graph: &Graph,
        partition: &RandomVertexPartition,
        plan: &FaultPlan,
    ) -> Result<KMachineRunReport, CdrwError> {
        self.clone()
            .with_resilience(ResiliencePolicy::aggressive())
            .with_fault_plan(plan.clone())
            .run_with_partition(graph, partition)
    }

    /// Runs the pipeline over an explicit partition (fault-shape tests build
    /// adversarial layouts with
    /// [`RandomVertexPartition::from_assignment`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`cdrw_core::Cdrw::detect_all`].
    pub fn run_with_partition(
        &self,
        graph: &Graph,
        partition: &RandomVertexPartition,
    ) -> Result<KMachineRunReport, CdrwError> {
        let algorithm = &self.config.congest.algorithm;
        let pipeline = Pipeline::open(algorithm, graph, None)?;
        let k = partition.num_machines();
        let laziness = algorithm.criterion.laziness();
        let patience = self.resilience.shard_patience;

        let chaos = match &self.fault_plan {
            Some(plan) => {
                plan.validate().map_err(|reason| CdrwError::InvalidConfig {
                    field: "fault_plan",
                    reason,
                })?;
                Some(ChaosHarness::new(plan.clone()))
            }
            None => None,
        };
        let (links, transports, reconnector) = mpsc_mesh_recoverable(k);
        let assignment = partition.assignment();

        let outcome = std::thread::scope(|scope| {
            // Spawns one worker thread for shard `m`, extracting its SubCsr
            // fresh (a rebuild cannot reuse the dead worker's, which lives on
            // the wedged thread) and starting after round `seq` from the
            // gathered `lanes` (`seq == 0` with no lanes is a cold start).
            let spawn = |m: usize, transport: MpscTransport, seq: u64, lanes: &[WalkWorkspace]| {
                let sub = SubCsr::extract(graph, partition.vertices_of(m), |v| {
                    partition.machine_of(v) == m
                });
                let worker =
                    ShardWorker::new(m, k, sub, assignment, laziness, patience, seq, lanes);
                match &chaos {
                    Some(harness) => {
                        let chaotic = harness.wrap(m, transport);
                        scope.spawn(move || {
                            let mut chaotic = chaotic;
                            worker.run(&mut chaotic);
                        });
                    }
                    None => {
                        scope.spawn(move || {
                            let mut transport = transport;
                            worker.run(&mut transport);
                        });
                    }
                }
            };
            for (m, transport) in transports.into_iter().enumerate() {
                spawn(m, transport, 0, &[]);
            }
            let respawn = |m: usize, seq: u64, lanes: &[WalkWorkspace]| {
                spawn(m, reconnector.reconnect(m), seq, lanes);
            };
            let engine = WalkEngine::lazy(graph, laziness);
            let mut coordinator = Coordinator::new(engine, &links, self.resilience, &respawn);
            let result = pipeline.run(&mut coordinator);
            links.broadcast(&Message::Halt);
            result.map(|(r, _)| (r, coordinator.conformance, coordinator.fault_log))
        });
        let (result, conformance, fault_log) = outcome?;
        Ok(KMachineRunReport {
            num_machines: k,
            result,
            partition: partition.stats(graph),
            conformance,
            fault_log,
        })
    }
}

/// The coordinator: the [`WalkExecutor`] the pipeline drives. It owns the
/// gathered per-lane global view (what [`WalkExecutor::lane`] serves and the
/// sweeps read), runs every step as a resilient shard protocol round, and
/// attributes the measured flood per detection and to the assembly phase on
/// the pipeline's events.
struct Coordinator<'g, 'l> {
    graph: &'g Graph,
    engine: WalkEngine<'g>,
    links: &'l CoordinatorLinks,
    resilience: ResiliencePolicy,
    /// Rebuilds shard `m` after round `seq` from the gathered lanes, on a
    /// fresh transport (wired by the caller through the mesh's reconnector).
    respawn: &'l dyn Fn(usize, u64, &[WalkWorkspace]),
    /// Per-lane gathered global distributions — bit-identical to the
    /// sequential workspaces (the shards' owned slices concatenate to them).
    lanes: Vec<WalkWorkspace>,
    /// `(lane, seed)` loads not yet sent: they ride on the next `Step`.
    loads: Vec<(u32, VertexId)>,
    conformance: WalkConformance,
    /// The flood of the open detection (or of the assembly phase).
    open: DetectionFlood,
    /// Last issued round.
    seq: u64,
    /// Per-shard rebuilds consumed from the resilience budget.
    recoveries_used: Vec<u32>,
    fault_log: FaultLog,
}

impl<'g, 'l> Coordinator<'g, 'l> {
    fn new(
        engine: WalkEngine<'g>,
        links: &'l CoordinatorLinks,
        resilience: ResiliencePolicy,
        respawn: &'l dyn Fn(usize, u64, &[WalkWorkspace]),
    ) -> Self {
        Coordinator {
            graph: engine.graph(),
            engine,
            links,
            resilience,
            respawn,
            lanes: Vec::new(),
            loads: Vec::new(),
            conformance: WalkConformance::default(),
            open: DetectionFlood::default(),
            seq: 0,
            recoveries_used: vec![0; links.num_shards()],
            fault_log: FaultLog::default(),
        }
    }

    fn ensure_lanes(&mut self, count: usize) {
        while self.lanes.len() < count {
            self.lanes
                .push(WalkWorkspace::with_len(self.graph.num_vertices()));
        }
    }

    /// Rebuilds a silent shard from the gathered lanes — still the state
    /// after round `seq − 1` while round `seq` is in flight. The replacement
    /// redoes round `seq` when the caller re-broadcasts it.
    ///
    /// # Errors
    ///
    /// [`CdrwError::ShardFailure`] when the shard's recovery budget
    /// ([`ResiliencePolicy::max_recoveries`]) is exhausted.
    fn recover(&mut self, shard: usize, seq: u64) -> Result<(), CdrwError> {
        if self.recoveries_used[shard] >= self.resilience.max_recoveries {
            return Err(CdrwError::ShardFailure {
                shard,
                seq,
                reason: format!(
                    "silent past {} retries with all {} recoveries spent",
                    self.resilience.max_retries, self.resilience.max_recoveries
                ),
            });
        }
        self.recoveries_used[shard] += 1;
        (self.respawn)(shard, seq - 1, &self.lanes);
        self.fault_log.recoveries.push(ShardRecovery {
            shard,
            at_seq: seq,
            replay_from: seq,
        });
        Ok(())
    }
}

impl WalkExecutor for Coordinator<'_, '_> {
    /// Loads `seeds[i]` as a fresh point-mass walk into lane `i`, on the
    /// shards and in the gathered view.
    fn load(&mut self, seeds: &[VertexId]) -> Result<(), CdrwError> {
        self.ensure_lanes(seeds.len());
        // The loads ride on the next `Step`; this one supersedes any pending
        // load of the same lanes.
        self.loads.retain(|&(lane, _)| lane as usize >= seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            self.lanes[lane].load_point_mass(seed)?;
            self.loads.push((lane as u32, seed));
        }
        Ok(())
    }

    /// One physical walk round for the given lanes: model the flood off the
    /// pre-step gathered state, command the shards (with the pending loads),
    /// gather the post-step supports, and record the conformance ledger
    /// entry.
    ///
    /// The collect loop is the resilient heart of the engine: every wait is
    /// deadline-bounded with exponential backoff, a timeout re-broadcasts
    /// the round (shards absorb duplicates idempotently), and a shard silent
    /// past [`ResiliencePolicy::max_retries`] consecutive timeouts is
    /// declared dead, rebuilt from the gathered lanes and sent the round
    /// again. Only the first accepted `StepDone` per shard enters the
    /// conformance ledger; all retry-induced traffic lands in the
    /// [`FaultLog`].
    ///
    /// # Errors
    ///
    /// [`CdrwError::ShardFailure`] when a shard dies beyond the budget.
    fn step(&mut self, lanes: &[u32]) -> Result<(), CdrwError> {
        debug_assert!(!lanes.is_empty());
        let modelled: u64 = lanes
            .iter()
            .map(|&lane| sparse_walk_step_cost(self.graph, &self.lanes[lane as usize]).messages)
            .sum();
        self.seq += 1;
        let seq = self.seq;
        let command = Message::Step {
            seq,
            loads: std::mem::take(&mut self.loads),
            lanes: lanes.to_vec(),
        };
        self.links.broadcast(&command);

        let k = self.links.num_shards();
        let mut measured = 0u64;
        // Per lane slot, one ascending support per shard.
        let mut gathered: Vec<Vec<Vec<(VertexId, f64)>>> = vec![Vec::new(); lanes.len()];
        let mut done = vec![false; k];
        let mut late = vec![false; k];
        // Shards heard from (any message) since the current timeout streak
        // began: a live shard blocked on a dead peer's deltas answers the
        // retry re-broadcast with `Busy`, so only the truly silent are
        // rebuilt when the retry budget runs out.
        let mut heard = vec![false; k];
        let mut done_count = 0usize;
        let mut consecutive_timeouts = 0u32;
        while done_count < k {
            let backoff = self
                .resilience
                .round_timeout
                .saturating_mul(1u32 << consecutive_timeouts.min(5));
            match self.links.recv_deadline(backoff) {
                Ok(Message::StepDone {
                    seq: s,
                    shard,
                    lanes: shard_lanes,
                }) => {
                    heard[shard] = true;
                    if s == seq && !done[shard] {
                        consecutive_timeouts = 0;
                        done[shard] = true;
                        done_count += 1;
                        if late[shard] {
                            late[shard] = false;
                            self.fault_log.stragglers += 1;
                        }
                        debug_assert_eq!(shard_lanes.len(), lanes.len());
                        for (slot, state) in shard_lanes.into_iter().enumerate() {
                            debug_assert_eq!(state.lane, lanes[slot]);
                            measured += state.emitted_messages;
                            gathered[slot].push(state.support);
                        }
                    } else {
                        // A replay or a chaos duplicate: charged to the fault
                        // log, never to the conformance ledger.
                        self.fault_log.duplicate_replies += 1;
                        self.fault_log.replayed_messages += shard_lanes
                            .iter()
                            .map(|state| state.emitted_messages)
                            .sum::<u64>();
                    }
                }
                Ok(Message::Busy { shard, .. }) => heard[shard] = true,
                Ok(_) => {}
                // The mesh's reconnector keeps the coordinator channel open,
                // so a disconnect here means every shard endpoint crashed at
                // once — handled like silence: retry, then recover.
                Err(TransportError::Timeout) | Err(TransportError::Disconnected) => {
                    self.fault_log.timeouts += 1;
                    consecutive_timeouts += 1;
                    if consecutive_timeouts == 1 {
                        // A fresh timeout streak: liveness must be re-proven
                        // against the retry probes that follow.
                        heard.fill(false);
                    }
                    if consecutive_timeouts > self.resilience.max_retries {
                        let silent: Vec<usize> = (0..k)
                            .filter(|&shard| !done[shard] && !heard[shard])
                            .collect();
                        if silent.is_empty() {
                            // Everyone claims to be alive yet the round is
                            // stuck: break the deadlock by rebuilding
                            // the least-recovered missing shard.
                            let fallback = (0..k)
                                .filter(|&shard| !done[shard])
                                .min_by_key(|&shard| self.recoveries_used[shard])
                                .expect("done_count < k leaves a missing shard");
                            self.recover(fallback, seq)?;
                        }
                        for shard in silent {
                            self.recover(shard, seq)?;
                        }
                        // The replacements redo the round; the peers re-send
                        // them their round-`seq` buckets.
                        self.links.broadcast(&command);
                        heard.fill(false);
                        consecutive_timeouts = 0;
                    } else {
                        self.fault_log.retries += 1;
                        for (shard, done) in done.iter().enumerate() {
                            if !done {
                                late[shard] = true;
                            }
                        }
                        // Re-broadcast the round: finished shards re-send
                        // their cached replies (the lost message might be
                        // theirs), stuck shards answer `Busy` and re-send
                        // their in-flight delta buckets.
                        self.links.broadcast(&command);
                    }
                }
            }
        }
        let mut support = Vec::new();
        for (slot, shard_supports) in gathered.iter().enumerate() {
            // Each shard's support is ascending and the shards' supports are
            // disjoint (each vertex has one home): merging them by vertex
            // yields the global support in order.
            let runs: Vec<&[(VertexId, f64)]> = shard_supports.iter().map(Vec::as_slice).collect();
            support.clear();
            merge_runs_by_key(&runs, |&(v, _)| v, |&entry| support.push(entry));
            self.lanes[lanes[slot] as usize]
                .load_sparse(&support)
                .expect("gathered support is in range");
        }

        self.open.physical_rounds += 1;
        self.open.lane_rounds += lanes.len() as u64;
        self.open.measured_messages += measured;
        self.open.modelled_messages += modelled;
        let ledger = &mut self.conformance;
        ledger.physical_rounds += 1;
        ledger.lane_rounds += lanes.len() as u64;
        ledger.measured_messages += measured;
        ledger.modelled_messages += modelled;
        ledger.per_round.push(RoundConformance {
            round: ledger.physical_rounds,
            lanes: lanes.len() as u32,
            measured_messages: measured,
            modelled_messages: modelled,
        });
        Ok(())
    }

    fn sweep(
        &mut self,
        lane: usize,
        config: &LocalMixingConfig,
    ) -> Result<LocalMixingOutcome, CdrwError> {
        Ok(self.engine.sweep(&mut self.lanes[lane], config)?)
    }

    fn lane(&self, lane: usize) -> &WalkWorkspace {
        &self.lanes[lane]
    }

    /// Opens a fresh flood account at each detection and at the assembly,
    /// and files it into the conformance ledger when that phase ends.
    fn on_event(&mut self, event: PipelineEvent<'_>) -> Result<(), CdrwError> {
        match event {
            PipelineEvent::DetectionStart(seed) => {
                self.open = DetectionFlood {
                    seed,
                    ..DetectionFlood::default()
                };
            }
            PipelineEvent::DetectionEnd(_) => self.conformance.per_detection.push(self.open),
            PipelineEvent::AssemblyStart(_) => {
                self.open = DetectionFlood {
                    seed: usize::MAX,
                    ..DetectionFlood::default()
                };
            }
            PipelineEvent::AssemblyEnd(_) => self.conformance.assembly = Some(self.open),
            _ => {}
        }
        Ok(())
    }
}
