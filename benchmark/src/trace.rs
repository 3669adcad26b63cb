//! The traced run: spans around every top-level call, then replays that
//! reach the layers below `detect_all` through public functions, each
//! verified against the run it explains.
//!
//! * Walk replay: every detection's walk is re-run as `load_point_mass`
//!   followed by `walk_length` pairs of `WalkEngine::step` and
//!   `WalkEngine::sweep`; each sweep's check count must equal the recorded
//!   `StepTrace::sizes_checked`.
//! * Shard replay (`kmachine-shards`): alongside each step, the shards of
//!   the run's vertex partition emit, bucket, sort and absorb the step's
//!   mass deltas; the sharded state must be bit-identical to the
//!   sequential step and the deltas must total the engine's messages.
//! * Configuration differencing (`ppm-ensemble`, `service-churn`): the same
//!   graph detected again with raw assembly must pick the same seeds; the
//!   time difference is the assembly's, and on the ensemble workload the raw
//!   run minus the replayed base walks is the ensemble's.

use std::collections::BTreeMap;
use std::time::Instant;

use cdrw_congest::{CongestCdrw, CongestConfig};
use cdrw_core::{AssemblyPolicy, Cdrw, CdrwConfig, DetectionResult};
use cdrw_graph::{Graph, SubCsr, VertexId};
use cdrw_kmachine::RandomVertexPartition;
use cdrw_walk::shard::{absorb_step_deltas, emit_step_deltas, sort_step_deltas, MassDelta};
use cdrw_walk::{WalkEngine, WalkWorkspace};

use crate::report::{median, percentile, timed, Checks, Metric};
use crate::workloads::{
    apply, check_kmachine, check_result, edit_batch, new_service, query_mqps, reference_seed,
    rep_seed, Scale, Shape, Workload, CYCLES_PER_SERVICE, SHARDS,
};

/// Every per-layer metric with its unit, in report order. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("gen.generate_s", "s"),
    ("walk.step_s", "s"),
    ("walk.step_calls", "count"),
    ("walk.edge_visits", "count"),
    ("walk.step_ns_per_edge", "ns/edge"),
    ("walk.sweep_s", "s"),
    ("walk.sweep_calls", "count"),
    ("walk.sweep_candidates", "count"),
    ("core.detections", "count"),
    ("core.claim_ratio", "ratio"),
    ("core.growth_stop_ratio", "ratio"),
    ("core.ensemble_walks", "count"),
    ("core.ensemble_s", "s"),
    ("core.assembly_s", "s"),
    ("assembly.groups", "count"),
    ("assembly.reseed_walks", "count"),
    ("assembly.contested", "count"),
    ("assembly.absorbed", "count"),
    ("graph.delta.commit_ms_p50", "ms"),
    ("service.refresh_ms_p50", "ms"),
    ("service.refresh_ms_p90", "ms"),
    ("service.survival_ratio", "ratio"),
    ("service.fresh_detections", "count"),
    ("service.reseeded_groups", "count"),
    ("service.dirty_vertices", "count"),
    ("kmachine.run_s", "s"),
    ("kmachine.overhead_ratio", "ratio"),
    ("kmachine.physical_rounds", "count"),
    ("kmachine.messages", "count"),
    ("kmachine.messages_per_round", "msg/round"),
    ("kmachine.cross_edges", "count"),
    ("kmachine.timeouts", "count"),
    ("kmachine.retries", "count"),
    ("kmachine.replayed_messages", "count"),
    ("walk.shard.emit_s", "s"),
    ("walk.shard.sort_s", "s"),
    ("walk.shard.absorb_s", "s"),
    ("walk.shard.deltas", "count"),
    ("congest.rounds", "count"),
    ("congest.messages", "count"),
    ("trace.detect_s", "s"),
    ("trace.untraced_detect_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The counters that must repeat exactly across runs of one seed.
#[cfg(test)]
pub const DETERMINISTIC: [&str; 22] = [
    "walk.step_calls",
    "walk.edge_visits",
    "walk.sweep_calls",
    "walk.sweep_candidates",
    "core.detections",
    "core.claim_ratio",
    "core.growth_stop_ratio",
    "core.ensemble_walks",
    "assembly.groups",
    "assembly.reseed_walks",
    "assembly.contested",
    "assembly.absorbed",
    "service.survival_ratio",
    "service.fresh_detections",
    "service.reseeded_groups",
    "service.dirty_vertices",
    "kmachine.physical_rounds",
    "kmachine.messages",
    "kmachine.cross_edges",
    "walk.shard.deltas",
    "congest.rounds",
    "congest.messages",
];

/// One recorded span: seconds since the recorder started, and the index
/// of the span open when it began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// Keeps spans in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        end - span.start
    }

    /// Runs `f` inside a span of its own.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let value = f();
        self.close(id);
        value
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |sum, d| sum + d)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Instances a traced run explains: enough to sum per-layer times over
/// several graphs, few enough that the replays stay short.
fn trace_instances(workload: Workload, scale: Scale) -> u64 {
    match (workload, scale) {
        (_, Scale::Small) => 2,
        (Workload::GnpSparse | Workload::KmachineShards, Scale::Bench) => 20,
        (Workload::PpmEnsemble, Scale::Bench) => 3,
        (Workload::ServiceChurn, Scale::Bench) => 20,
    }
}

/// Additive ingredients of the ratio metrics.
#[derive(Debug, Default)]
struct Totals {
    vertices: f64,
    claimed: f64,
    growth_stops: f64,
    traced_s: f64,
    untraced_s: f64,
    sequential_s: f64,
    surviving: f64,
    retired: f64,
}

/// The state of one traced run.
struct Tracer<'c> {
    rec: Recorder,
    layers: Layers,
    totals: Totals,
    checks: &'c mut Checks,
}

/// The traced run of one workload at one scale. Returns the per-layer
/// values and the recorded spans; replay divergences are recorded in
/// `checks`.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    scale: Scale,
    checks: &mut Checks,
) -> (Layers, Recorder) {
    let shape = Shape::of(workload, scale);
    let mut tracer = Tracer {
        rec: Recorder::new(),
        layers: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
        totals: Totals::default(),
        checks,
    };
    for instance in 0..trace_instances(workload, scale) {
        let graph_seed = rep_seed(seed, instance);
        let (graph, _) = tracer
            .rec
            .span("gen.generate", || shape.generate(graph_seed));
        // On service-churn the layers below explain the from-scratch
        // detection of the final committed graph, the reference of `f_gap`.
        if workload == Workload::ServiceChurn {
            if let Some(graph) = tracer.churn(&shape, graph, graph_seed) {
                tracer.explain(workload, &shape, &graph, reference_seed(graph_seed));
            }
        } else {
            tracer.explain(workload, &shape, &graph, graph_seed);
        }
    }
    tracer.finish(workload)
}

impl Tracer<'_> {
    fn add(&mut self, name: &str, value: f64) {
        *self.layers.get_mut(name).expect("a per-layer metric") += value;
    }

    fn walk_s(&self) -> f64 {
        self.rec.total("walk.step") + self.rec.total("walk.sweep")
    }

    /// Detects the graph untraced and traced with algorithm seed `seed`,
    /// then explains the traced detection layer by layer.
    fn explain(&mut self, workload: Workload, shape: &Shape, graph: &Graph, seed: u64) {
        let config = shape.config(seed);
        let cdrw = Cdrw::new(config);
        let (untraced, untraced_s) = timed(|| cdrw.detect_all(graph));
        let id = self.rec.open("core.detect_all");
        let traced = cdrw.detect_all(graph);
        let traced_s = self.rec.close(id);
        let untraced = self.checks.op("detect_all", untraced);
        let Some(result) = self.checks.op("detect_all", traced) else {
            return;
        };
        self.checks.check(untraced.as_ref() == Some(&result), || {
            "detect_all is not deterministic".to_string()
        });
        check_result(graph, &result, self.checks);
        self.core(graph, &result);
        if workload == Workload::KmachineShards {
            self.totals.sequential_s += traced_s;
            self.kmachine(shape, graph, &config, seed, &result);
            return;
        }
        self.totals.traced_s += traced_s;
        self.totals.untraced_s += untraced_s;
        let before = self.walk_s();
        self.replay_walks(graph, &config, &result, None);
        let walks = self.walk_s() - before;
        if shape.assembly.is_pooled() {
            let raw_s = self.raw_assembly_s(graph, &config, &result);
            self.add("core.assembly_s", traced_s - raw_s);
            if shape.ensemble.is_ensemble() {
                self.add("core.ensemble_s", raw_s - walks);
            }
        }
    }

    /// Counts of the detection being explained.
    fn core(&mut self, graph: &Graph, result: &DetectionResult) {
        let detections = result.detections();
        let followups: usize = detections
            .iter()
            .filter_map(|d| d.trace.ensemble.as_ref())
            .map(|e| e.walks.len().saturating_sub(1))
            .sum();
        self.totals.vertices += graph.num_vertices() as f64;
        self.totals.claimed += detections.iter().map(|d| d.members.len()).sum::<usize>() as f64;
        self.totals.growth_stops += detections
            .iter()
            .filter(|d| d.trace.stopped_by_growth_rule)
            .count() as f64;
        self.add("core.detections", detections.len() as f64);
        self.add("core.ensemble_walks", followups as f64);
        if let Some(report) = result.assembly() {
            self.add("assembly.groups", report.groups as f64);
            self.add("assembly.reseed_walks", report.reseed_walks as f64);
            self.add("assembly.contested", report.contested as f64);
            self.add("assembly.absorbed", report.absorbed as f64);
        }
    }

    /// Configuration differencing: runs the same graph with raw assembly,
    /// checks it picked the same seeds, and returns its time.
    fn raw_assembly_s(
        &mut self,
        graph: &Graph,
        config: &CdrwConfig,
        result: &DetectionResult,
    ) -> f64 {
        let raw = Cdrw::new(CdrwConfig {
            assembly: AssemblyPolicy::Raw,
            ..*config
        });
        let id = self.rec.open("core.detect_all.raw_assembly");
        let outcome = raw.detect_all(graph);
        let raw_s = self.rec.close(id);
        if let Some(raw_result) = self.checks.op("raw-assembly detect_all", outcome) {
            self.checks.check(raw_result.seeds() == result.seeds(), || {
                "raw-assembly run picked different seeds".to_string()
            });
        }
        raw_s
    }

    /// Brings a service up on `graph` and runs its churn cycles under
    /// spans. Returns the final committed graph.
    fn churn(&mut self, shape: &Shape, graph: Graph, graph_seed: u64) -> Option<Graph> {
        let mut service = new_service(shape, graph, graph_seed);
        let initial = self
            .rec
            .span("service.initial_refresh", || service.refresh());
        self.checks.op("initial refresh", initial)?;
        let n = shape.params.n;
        for cycle in 0..CYCLES_PER_SERVICE {
            let batch = edit_batch(service.graph(), &shape.params, graph_seed, cycle);
            apply(&mut service, &batch, self.checks);
            let commit = self.rec.span("graph.delta.commit", || service.commit());
            self.checks.op("commit", commit);
            let refresh = self.rec.span("service.refresh", || service.refresh());
            if let Some(report) = self.checks.op("refresh", refresh) {
                self.totals.surviving += report.surviving as f64;
                self.totals.retired += report.retired as f64;
                self.add("service.fresh_detections", report.fresh as f64);
                self.add("service.reseeded_groups", report.reseeded_groups as f64);
                self.add("service.dirty_vertices", report.dirty_vertices as f64);
            }
            self.rec.span("service.query", || {
                query_mqps(n, |v| service.community_of(v))
            });
        }
        if let Some(result) = service.result() {
            check_result(service.graph(), result, self.checks);
        }
        Some(service.graph().clone())
    }

    /// The k-machine layers: the sharded run under a span, the CONGEST cost
    /// account, and the walk replay with the shard replay alongside.
    fn kmachine(
        &mut self,
        shape: &Shape,
        graph: &Graph,
        config: &CdrwConfig,
        graph_seed: u64,
        sequential: &DetectionResult,
    ) {
        let engine = shape.kmachine(graph_seed);
        let (untraced, untraced_s) = timed(|| engine.run(graph));
        self.checks.op("KMachineEngine::run", untraced);
        let id = self.rec.open("kmachine.run");
        let outcome = engine.run(graph);
        let run_s = self.rec.close(id);
        let Some(report) = self.checks.op("KMachineEngine::run", outcome) else {
            return;
        };
        self.totals.traced_s += run_s;
        self.totals.untraced_s += untraced_s;
        check_kmachine(&report, sequential, self.checks);
        let messages = report.conformance.measured_messages;
        self.add(
            "kmachine.physical_rounds",
            report.conformance.physical_rounds as f64,
        );
        self.add("kmachine.messages", messages as f64);
        self.add("kmachine.cross_edges", report.partition.cross_edges as f64);
        // Reported as measured on this fault-free run: a wall-clock deadline
        // can fire on a loaded machine, and the benchmark shows it.
        self.add("kmachine.timeouts", report.fault_log.timeouts as f64);
        self.add("kmachine.retries", report.fault_log.retries as f64);
        self.add(
            "kmachine.replayed_messages",
            report.fault_log.replayed_messages as f64,
        );

        let congest = CongestCdrw::new(CongestConfig::new(*config));
        let outcome = self
            .rec
            .span("congest.detect_all", || congest.detect_all(graph));
        if let Some(congest) = self.checks.op("CongestCdrw::detect_all", outcome) {
            let flood: u64 = congest
                .per_community
                .iter()
                .map(|c| c.flood.messages)
                .chain(congest.assembly.iter().map(|a| a.flood.messages))
                .sum();
            self.checks.check(flood == messages, || {
                format!("CONGEST flood counts {flood} messages, the k-machine run {messages}")
            });
            self.add("congest.rounds", congest.total.rounds as f64);
            self.add("congest.messages", congest.total.messages as f64);
        }

        let partition = RandomVertexPartition::new(graph, SHARDS, graph_seed);
        let mut shards = ShardReplay::new(graph, partition);
        let before = self.layers["walk.shard.deltas"];
        self.replay_walks(graph, config, sequential, Some(&mut shards));
        let deltas = (self.layers["walk.shard.deltas"] - before) as u64;
        self.checks.check(deltas == messages, || {
            format!("shard replay emitted {deltas} deltas, the k-machine run sent {messages}")
        });
    }

    /// Replays every detection's walk and records the walk layers; with
    /// `shards`, each step is also replayed on the shards and verified.
    fn replay_walks(
        &mut self,
        graph: &Graph,
        config: &CdrwConfig,
        result: &DetectionResult,
        mut shards: Option<&mut ShardReplay>,
    ) {
        let laziness = config.criterion.laziness();
        let engine = WalkEngine::lazy(graph, laziness);
        let mixing = config.local_mixing_config(graph.num_vertices());
        let mut workspace = engine.workspace();
        let replay = self.rec.open("replay.walks");
        'detections: for (index, detection) in result.detections().iter().enumerate() {
            let trace = &detection.trace;
            if trace.steps.is_empty() {
                // A zero-degree seed is its own community without a walk.
                continue;
            }
            self.checks
                .op("load_point_mass", workspace.load_point_mass(detection.seed));
            if let Some(shards) = shards.as_deref_mut() {
                shards.load(detection.seed, self.checks);
            }
            for recorded in &trace.steps {
                let edge_visits: usize = workspace
                    .support()
                    .iter()
                    .filter(|&&u| workspace.probability(u) != 0.0)
                    .map(|&u| graph.degree(u))
                    .sum();
                self.add("walk.edge_visits", edge_visits as f64);
                self.add("walk.step_calls", 1.0);
                self.rec.span("walk.step", || engine.step(&mut workspace));
                if let Some(shards) = shards.as_deref_mut() {
                    let deltas = shards.step(&mut self.rec, laziness);
                    self.add("walk.shard.deltas", deltas as f64);
                    let matches = shards.matches(&workspace);
                    let step = recorded.walk_length;
                    self.checks.check(matches, || {
                        format!("shard replay diverged at detection {index}, step {step}")
                    });
                    if !matches {
                        break 'detections;
                    }
                }
                self.add("walk.sweep_calls", 1.0);
                let outcome = self
                    .rec
                    .span("walk.sweep", || engine.sweep(&mut workspace, &mixing));
                let Some(outcome) = self.checks.op("sweep", outcome) else {
                    break 'detections;
                };
                self.add("walk.sweep_candidates", outcome.sizes_checked() as f64);
                let (replayed, recorded) = (outcome.sizes_checked(), recorded.sizes_checked);
                self.checks.check(replayed == recorded, || {
                    format!("detection {index}: sweep checked {replayed} sizes, the run {recorded}")
                });
            }
        }
        self.rec.close(replay);
    }

    fn set(&mut self, name: &str, value: f64) {
        *self.layers.get_mut(name).expect("a per-layer metric") = value;
    }

    fn durations_ms(&self, span: &str) -> Vec<f64> {
        self.rec.durations(span).iter().map(|s| s * 1e3).collect()
    }

    /// Turns span totals and additive counts into the reported layers.
    fn finish(mut self, workload: Workload) -> (Layers, Recorder) {
        for (metric, span) in [
            ("gen.generate_s", "gen.generate"),
            ("walk.step_s", "walk.step"),
            ("walk.sweep_s", "walk.sweep"),
            ("walk.shard.emit_s", "walk.shard.emit"),
            ("walk.shard.sort_s", "walk.shard.sort"),
            ("walk.shard.absorb_s", "walk.shard.absorb"),
            ("kmachine.run_s", "kmachine.run"),
        ] {
            let total = self.rec.total(span);
            self.set(metric, total);
        }
        let totals = std::mem::take(&mut self.totals);
        let l = &self.layers;
        let attributed = if workload == Workload::KmachineShards {
            l["walk.shard.emit_s"] + l["walk.shard.sort_s"] + l["walk.shard.absorb_s"]
        } else {
            // Zero where the workload runs no ensemble or pooled assembly.
            l["walk.step_s"] + l["core.ensemble_s"] + l["core.assembly_s"]
        } + l["walk.sweep_s"];
        let growth_stop_ratio = totals.growth_stops / l["core.detections"];
        let step_ns_per_edge = l["walk.step_s"] * 1e9 / l["walk.edge_visits"];
        let overhead_ratio = l["kmachine.run_s"] / totals.sequential_s;
        let messages_per_round = l["kmachine.messages"] / l["kmachine.physical_rounds"];
        self.set("core.claim_ratio", totals.vertices / totals.claimed);
        self.set("core.growth_stop_ratio", growth_stop_ratio);
        self.set("walk.step_ns_per_edge", step_ns_per_edge);
        self.set("trace.detect_s", totals.traced_s);
        self.set("trace.untraced_detect_s", totals.untraced_s);
        self.set("trace.overhead", totals.traced_s / totals.untraced_s);
        self.set("trace.coverage", attributed / totals.traced_s);
        if workload == Workload::KmachineShards {
            self.set("kmachine.overhead_ratio", overhead_ratio);
            self.set("kmachine.messages_per_round", messages_per_round);
        }
        if workload == Workload::ServiceChurn {
            let refresh_ms = self.durations_ms("service.refresh");
            self.set(
                "graph.delta.commit_ms_p50",
                median(&self.durations_ms("graph.delta.commit")),
            );
            self.set("service.refresh_ms_p50", median(&refresh_ms));
            self.set("service.refresh_ms_p90", percentile(&refresh_ms, 0.9));
            self.set(
                "service.survival_ratio",
                totals.surviving / (totals.surviving + totals.retired),
            );
        }
        (self.layers, self.rec)
    }
}

/// The shard-local half of the walk: one sub-CSR and one workspace per
/// shard of the run's vertex partition.
struct ShardReplay {
    partition: RandomVertexPartition,
    subs: Vec<SubCsr>,
    workspaces: Vec<WalkWorkspace>,
    emitted: Vec<MassDelta>,
    buckets: Vec<Vec<MassDelta>>,
}

impl ShardReplay {
    fn new(graph: &Graph, partition: RandomVertexPartition) -> Self {
        let k = partition.num_machines();
        let subs = (0..k)
            .map(|m| {
                SubCsr::extract(graph, partition.vertices_of(m), |v| {
                    partition.machine_of(v) == m
                })
            })
            .collect();
        ShardReplay {
            subs,
            workspaces: (0..k).map(|_| WalkWorkspace::for_graph(graph)).collect(),
            emitted: Vec::new(),
            buckets: vec![Vec::new(); k],
            partition,
        }
    }

    fn load(&mut self, seed: VertexId, checks: &mut Checks) {
        let home = self.partition.machine_of(seed);
        for (m, workspace) in self.workspaces.iter_mut().enumerate() {
            let loaded = if m == home {
                workspace.load_point_mass(seed)
            } else {
                workspace.load_sparse(&[])
            };
            checks.op("shard load", loaded);
        }
    }

    /// One sharded walk step; returns the edge deltas emitted.
    fn step(&mut self, rec: &mut Recorder, laziness: f64) -> u64 {
        let mut deltas = 0;
        for m in 0..self.subs.len() {
            let (sub, workspace) = (&self.subs[m], &self.workspaces[m]);
            let (emitted, buckets, partition) =
                (&mut self.emitted, &mut self.buckets, &self.partition);
            deltas += rec.span("walk.shard.emit", || {
                emitted.clear();
                let count = emit_step_deltas(sub, laziness, workspace, emitted);
                for delta in emitted.iter() {
                    buckets[partition.machine_of(delta.target)].push(*delta);
                }
                count
            });
        }
        for (bucket, workspace) in self.buckets.iter_mut().zip(&mut self.workspaces) {
            rec.span("walk.shard.sort", || sort_step_deltas(bucket));
            rec.span("walk.shard.absorb", || {
                absorb_step_deltas(workspace, bucket)
            });
            bucket.clear();
        }
        deltas
    }

    /// Whether the shards' states together equal the sequential workspace
    /// bit for bit, support included.
    fn matches(&self, sequential: &WalkWorkspace) -> bool {
        let mut gathered: Vec<(VertexId, u64)> = self
            .workspaces
            .iter()
            .flat_map(|w| {
                w.support()
                    .iter()
                    .map(move |&v| (v, w.probability(v).to_bits()))
            })
            .collect();
        gathered.sort_unstable();
        gathered.len() == sequential.support_size()
            && gathered
                .iter()
                .zip(sequential.support())
                .all(|(&(v, bits), &u)| v == u && bits == sequential.probability(u).to_bits())
    }
}

/// The per-layer metrics in report order.
pub fn metrics(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: layers[name],
            samples: 1,
        })
        .collect()
}

/// The spans as a JSON document.
pub fn spans_json(workload: Workload, seed: u64, env: &str, rec: &Recorder) -> String {
    let spans: Vec<String> = rec
        .spans()
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"env\": {{{env}}}, \"spans\": [\n{}\n]}}\n",
        workload.name(),
        spans.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_cover_the_deterministic_set() {
        let names: std::collections::BTreeSet<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(DETERMINISTIC.iter().all(|n| names.contains(n)));
    }

    /// Each workload's counters, traced twice at a small size, repeat
    /// exactly, and every replay verifies.
    #[test]
    fn counters_repeat_exactly() {
        for workload in Workload::ALL {
            let mut first_checks = Checks::default();
            let (first, _) = run_traced(workload, 11, Scale::Small, &mut first_checks);
            let mut second_checks = Checks::default();
            let (second, _) = run_traced(workload, 11, Scale::Small, &mut second_checks);
            assert!(
                first_checks.failures.is_empty(),
                "{workload:?}: {:?}",
                first_checks.failures
            );
            assert!(
                second_checks.failures.is_empty(),
                "{workload:?}: {:?}",
                second_checks.failures
            );
            for name in DETERMINISTIC {
                assert_eq!(first[name], second[name], "{workload:?}: {name}");
            }
            assert!(
                first["walk.step_calls"] > 0.0,
                "{workload:?} replayed no walk"
            );
        }
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut rec = Recorder::new();
        let outer = rec.open("outer");
        rec.span("inner", || ());
        rec.close(outer);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.total("outer") >= rec.total("inner"));
    }
}
