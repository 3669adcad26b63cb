//! The four workloads, their instances, and the untraced (end-to-end) runs.
//!
//! Every workload is a closed loop with one client. The program receives
//! only generated graphs; the planted truth stays with the benchmark, which
//! scores and checks every output.

use std::time::{Duration, Instant};

use cdrw_core::{AssemblyPolicy, Cdrw, CdrwConfig, CdrwService, DetectionResult, EnsemblePolicy};
use cdrw_gen::{generate_ppm, params, PpmParams};
use cdrw_graph::{Graph, Partition, VertexId};
use cdrw_kmachine::{KMachineConfig, KMachineEngine, KMachineRunReport};
use cdrw_metrics::{f_score_for_detections, f_score_weighted};

use crate::report::{mean, median, peak_rss_mib, percentile, timed, Checks, Metric};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sparse `G(n, p)`: the walk kernel does almost all the work.
    GnpSparse,
    /// Sparse 8-block PPM under ensemble + assembly: the accuracy
    /// configuration.
    PpmEnsemble,
    /// Incremental service under edge churn with interleaved queries.
    ServiceChurn,
    /// The sharded k-machine runtime on two shards.
    KmachineShards,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GnpSparse,
        Workload::PpmEnsemble,
        Workload::ServiceChurn,
        Workload::KmachineShards,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GnpSparse => "gnp-sparse",
            Workload::PpmEnsemble => "ppm-ensemble",
            Workload::ServiceChurn => "service-churn",
            Workload::KmachineShards => "kmachine-shards",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance size: the benchmark's own, or a small one for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Small,
}

/// A workload's instance shape and detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub params: PpmParams,
    pub ensemble: EnsemblePolicy,
    pub assembly: AssemblyPolicy,
}

const ASSEMBLY: AssemblyPolicy = AssemblyPolicy::Pooled {
    reseed: 4,
    quorum: 3,
};

/// Staleness tolerance ε of the churned service.
pub const STALENESS: f64 = 0.05;

/// Shards of the k-machine workload.
pub const SHARDS: usize = 2;

/// Largest partition-F by which the churned service may trail a
/// from-scratch detection on the same graph.
pub const MAX_F_GAP: f64 = 0.1;

impl Shape {
    pub fn of(workload: Workload, scale: Scale) -> Shape {
        let small = scale == Scale::Small;
        let single = EnsemblePolicy::Single;
        match workload {
            Workload::GnpSparse => {
                let n = if small { 1 << 12 } else { 1 << 15 };
                Shape::new(
                    n,
                    1,
                    params::log_n_over_n(n, 2.0),
                    0.0,
                    single,
                    AssemblyPolicy::Raw,
                )
            }
            Workload::PpmEnsemble => {
                let n = if small { 1 << 11 } else { 1 << 14 };
                let (p, q) = fig4a_sparse_cell(n);
                let ensemble = EnsemblePolicy::Ensemble {
                    walks: 5,
                    quorum: 2,
                };
                Shape::new(n, 8, p, q, ensemble, ASSEMBLY)
            }
            Workload::ServiceChurn => {
                let n = if small { 1 << 10 } else { 1 << 13 };
                let p = params::log_squared_n_over_n(n, 2.0);
                Shape::new(n, 8, p, 0.1 / n as f64, single, ASSEMBLY)
            }
            Workload::KmachineShards => {
                let n = if small { 1 << 10 } else { 1 << 11 };
                let (p, q) = fig4a_sparse_cell(n);
                Shape::new(n, 8, p, q, single, AssemblyPolicy::Raw)
            }
        }
    }

    fn new(
        n: usize,
        r: usize,
        p: f64,
        q: f64,
        ensemble: EnsemblePolicy,
        assembly: AssemblyPolicy,
    ) -> Shape {
        Shape {
            params: PpmParams::new(n, r, p, q).expect("r divides n and p, q are probabilities"),
            ensemble,
            assembly,
        }
    }

    pub fn generate(&self, seed: u64) -> (Graph, Partition) {
        generate_ppm(&self.params, seed).expect("validated parameters")
    }

    /// The detector configuration with algorithm seed `seed` (callers pass
    /// the graph seed, as the paper's experiments do); `δ` is the planted
    /// block conductance.
    pub fn config(&self, seed: u64) -> CdrwConfig {
        CdrwConfig::builder()
            .seed(seed)
            .delta(self.params.expected_block_conductance().clamp(0.01, 1.0))
            .ensemble_policy(self.ensemble)
            .assembly_policy(self.assembly)
            .build()
    }

    pub fn kmachine(&self, seed: u64) -> KMachineEngine {
        let config = KMachineConfig::new(SHARDS)
            .with_congest(cdrw_congest::CongestConfig::new(self.config(seed)))
            .with_partition_seed(seed);
        KMachineEngine::new(config).expect("two shards")
    }
}

/// Figure 4a's sparse cell: `p = 2·(ln n)²/n`, `q = p/(2^0.6·ln n)`.
fn fig4a_sparse_cell(n: usize) -> (f64, f64) {
    let p = params::log_squared_n_over_n(n, 2.0);
    (p, p / (2f64.powf(0.6) * (n as f64).ln()))
}

/// The graph seed of repetition `rep` of a run seeded with `seed`.
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    splitmix64(seed ^ rep.wrapping_mul(0xA076_1D64_78BD_642F))
}

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks that a result is well formed: a total partition of the graph,
/// and detections whose members are sorted, duplicate-free, in range and
/// contain their seed.
pub fn check_result(graph: &Graph, result: &DetectionResult, checks: &mut Checks) {
    let n = graph.num_vertices();
    let partition = result.partition();
    checks.check(
        partition.num_vertices() == n && (0..n).all(|v| partition.community_of(v).is_some()),
        || format!("partition does not cover all {n} vertices"),
    );
    for (index, detection) in result.detections().iter().enumerate() {
        let members = &detection.members;
        checks.check(
            members.windows(2).all(|w| w[0] < w[1])
                && members.last().is_none_or(|&v| v < n)
                && members.binary_search(&detection.seed).is_ok(),
            || {
                format!(
                    "detection {index} (seed {}, {} members) is unsorted, out of range or misses its seed",
                    detection.seed,
                    members.len()
                )
            },
        );
    }
}

/// Size-weighted partition F and the paper's seed F against the truth.
pub fn scores(result: &DetectionResult, truth: &Partition) -> (f64, f64) {
    let partition_f = f_score_weighted(result.partition(), truth).f_score;
    let seed_f = f_score_for_detections(
        result
            .detections()
            .iter()
            .map(|d| (d.members.as_slice(), d.seed)),
        truth,
    )
    .f_score;
    (partition_f, seed_f)
}

/// Queries per burst of cached `community_of` lookups.
const QUERY_BURST: usize = 1 << 20;

/// Millions of `lookup` calls per second over one burst that visits the
/// vertices in a fixed scattered order.
pub fn query_mqps(n: usize, lookup: impl Fn(VertexId) -> Option<usize>) -> f64 {
    // Odd, hence coprime with the power-of-two vertex counts used here.
    let stride = (0x9E37_79B1 % n) | 1;
    let mut v = 0usize;
    let mut acc = 0usize;
    let (_, secs) = timed(|| {
        for _ in 0..QUERY_BURST {
            acc = acc.wrapping_add(lookup(std::hint::black_box(v)).unwrap_or(0));
            v += stride;
            if v >= n {
                v -= n;
            }
        }
    });
    std::hint::black_box(acc);
    QUERY_BURST as f64 / secs / 1e6
}

/// Checks a sharded run against the sequential driver: identical result
/// and measured messages equal to the modelled flood.
pub fn check_kmachine(
    report: &KMachineRunReport,
    sequential: &DetectionResult,
    checks: &mut Checks,
) {
    checks.check(&report.result == sequential, || {
        "k-machine result differs from Cdrw::detect_all".to_string()
    });
    let conformance = &report.conformance;
    checks.check(
        conformance.measured_messages == conformance.modelled_messages,
        || {
            format!(
                "k-machine measured {} messages, modelled {}",
                conformance.measured_messages, conformance.modelled_messages
            )
        },
    );
}

/// Passes a run makes over its instances. Every instance is timed once per
/// pass and reports its best time. The passes lie half a run apart, and the
/// machine slows by up to ~1.4× for stretches of seconds when a neighbour
/// loads the shared core; the best of two passes is the code's time unless
/// both passes were slowed at that instance. That pays on `gnp-sparse` and
/// `kmachine-shards`, which time hundreds of graphs a run. On `ppm-ensemble`
/// and `service-churn` a run times only tens of detections whose cost
/// varies several-fold with the graph and the walks; halving their number
/// to time each twice widened the spread between seeds.
fn passes(workload: Workload) -> u64 {
    match workload {
        Workload::GnpSparse | Workload::KmachineShards => 2,
        Workload::PpmEnsemble | Workload::ServiceChurn => 1,
    }
}

/// Instances one pass measures for `seconds` of measurement in all: a
/// fixed count, so a seed always gives the same inputs, sized by the rate
/// each workload runs at on a 2-core x86-64 container. Instance cost
/// varies several-fold with how a graph fragments, so a run measures many.
fn instances(workload: Workload, seconds: f64) -> u64 {
    let per_second = match workload {
        Workload::GnpSparse => 16.0,
        Workload::PpmEnsemble => 1.0,
        Workload::ServiceChurn => 1.15,
        Workload::KmachineShards => 20.0,
    };
    ((seconds * per_second / passes(workload) as f64).ceil() as u64).max(MIN_INSTANCES)
}

/// A run stops early, with fewer instances than planned, once it has
/// measured this long: a contended machine must not stretch it unboundedly.
fn overrun(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds * 2.0)
}

/// Fewest instances per pass, however short: with [`CYCLES_PER_SERVICE`]
/// churn cycles each, `update_p90_ms` has at least ten samples beyond it.
const MIN_INSTANCES: u64 = 20;

/// Churn cycles per service instance.
pub const CYCLES_PER_SERVICE: usize = 5;

/// The best time of each timed operation over a run's passes, by the
/// operation's index within a pass.
#[derive(Debug, Default)]
struct BestTimes(Vec<f64>);

impl BestTimes {
    fn keep(&mut self, index: usize, secs: f64) {
        if self.0.len() <= index {
            self.0.resize(index + 1, f64::INFINITY);
        }
        self.0[index] = self.0[index].min(secs);
    }

    /// The best time of every operation that completed in some pass.
    fn samples(&self) -> Vec<f64> {
        self.0.iter().copied().filter(|s| s.is_finite()).collect()
    }
}

/// Samples collected by one untraced run.
#[derive(Debug, Default)]
struct Samples {
    setup_s: BestTimes,
    detect_s: BestTimes,
    update_s: BestTimes,
    query_mqps: Vec<f64>,
    partition_f: Vec<f64>,
    seed_f: Vec<f64>,
    f_gap: Vec<f64>,
}

impl Samples {
    fn metrics(&self) -> Vec<Metric> {
        let metric = |name, unit, value, samples: &Vec<f64>| Metric {
            name,
            unit,
            value,
            samples: samples.len(),
        };
        let setup_s = self.setup_s.samples();
        let detect_s = self.detect_s.samples();
        let update_ms: Vec<f64> = self.update_s.samples().iter().map(|s| s * 1e3).collect();
        vec![
            metric("setup_s", "s", median(&setup_s), &setup_s),
            metric("detect_s", "s", mean(&detect_s), &detect_s),
            metric("update_p50_ms", "ms", median(&update_ms), &update_ms),
            metric(
                "update_p90_ms",
                "ms",
                percentile(&update_ms, 0.9),
                &update_ms,
            ),
            // The best burst, not the median: a lookup takes about 2 ns, and
            // a neighbour's load on the shared core slows whole stretches of
            // bursts by ~1.4×, so the median jumps with the share of the run
            // that was slowed. The best burst is what the code can do.
            metric(
                "query_mqps",
                "Mq/s",
                percentile(&self.query_mqps, 1.0),
                &self.query_mqps,
            ),
            metric(
                "partition_f",
                "F1",
                mean(&self.partition_f),
                &self.partition_f,
            ),
            metric("seed_f", "F1", mean(&self.seed_f), &self.seed_f),
        ]
    }
}

/// A fingerprint of a result: its partition and every detection's seed
/// and members, folded through splitmix64.
fn fingerprint(result: &DetectionResult) -> u64 {
    let partition = result.partition();
    let assignment = (0..partition.num_vertices())
        .map(|v| partition.community_of(v).map_or(u64::MAX, |c| c as u64));
    let detections = result.detections().iter().flat_map(|d| {
        std::iter::once(d.seed)
            .chain(d.members.iter().copied())
            .map(|v| v as u64)
    });
    assignment
        .chain(detections)
        .fold(0, |hash, x| splitmix64(hash ^ x))
}

/// Checks that a later pass reproduced the first pass's result of the
/// same instance; the first pass records it.
fn check_repeat(
    first: &mut Option<u64>,
    result: &DetectionResult,
    what: &str,
    checks: &mut Checks,
) {
    let fingerprint = fingerprint(result);
    match *first {
        None => *first = Some(fingerprint),
        Some(expected) => checks.check(expected == fingerprint, || {
            format!("{what} differs from the first pass on the same instance")
        }),
    }
}

/// The untraced run: measures for about `seconds` and returns every
/// end-to-end metric.
pub fn run(workload: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let shape = Shape::of(workload, Scale::Bench);
    let samples = match workload {
        Workload::ServiceChurn => run_service(&shape, seed, seconds, checks),
        _ => run_one_shot(workload, &shape, seed, seconds, checks),
    };
    let mut metrics = samples.metrics();
    match peak_rss_mib() {
        Some(mib) => metrics.push(Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: mib,
            samples: 1,
        }),
        None => checks.check(false, || "peak RSS unavailable".to_string()),
    }
    metrics
}

/// One-shot workloads: each repetition is a fresh graph turned into an
/// assembled partition. There is no incremental path, so the client's
/// update is the full detection and `update_*` are its latencies. Every
/// pass repeats the same graphs; the scores come from the first pass, and
/// the later ones must reproduce its results.
fn run_one_shot(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Samples {
    let mut samples = Samples::default();
    let count = instances(workload, seconds);
    let passes = passes(workload);
    let mut first_results = vec![None; count as usize];
    let mut detections = 0;
    let deadline = Instant::now() + overrun(seconds);
    'passes: for pass in 0..passes {
        for rep in 0..count {
            if Instant::now() > deadline {
                println!(
                    "stopped in pass {} after {rep} of {count} instances: past the overrun deadline",
                    pass + 1
                );
                break 'passes;
            }
            let index = rep as usize;
            let graph_seed = rep_seed(seed, rep);
            let ((graph, truth), setup_s) = timed(|| shape.generate(graph_seed));
            samples.setup_s.keep(index, setup_s);
            let cdrw = Cdrw::new(shape.config(graph_seed));
            let (outcome, detect_s) = if workload == Workload::KmachineShards {
                let engine = shape.kmachine(graph_seed);
                let (report, detect_s) = timed(|| engine.run(&graph));
                let sequential = checks.op("detect_all", cdrw.detect_all(&graph));
                let report = checks.op("KMachineEngine::run", report);
                if let (Some(report), Some(sequential)) = (&report, &sequential) {
                    check_kmachine(report, sequential, checks);
                }
                (report.map(|r| r.result), detect_s)
            } else {
                let (result, detect_s) = timed(|| cdrw.detect_all(&graph));
                (checks.op("detect_all", result), detect_s)
            };
            let Some(result) = outcome else { continue };
            samples.detect_s.keep(index, detect_s);
            samples.update_s.keep(index, detect_s);
            check_result(&graph, &result, checks);
            check_repeat(&mut first_results[index], &result, "result", checks);
            if pass == 0 {
                detections += result.num_communities();
                let (partition_f, seed_f) = scores(&result, &truth);
                samples.partition_f.push(partition_f);
                samples.seed_f.push(seed_f);
            }
            let partition = result.partition();
            samples
                .query_mqps
                .push(query_mqps(graph.num_vertices(), |v| {
                    partition.community_of(v)
                }));
        }
    }
    println!("instances {count} passes {passes} detections {detections}");
    samples
}

/// One churn cycle's edit batch.
pub struct EditBatch {
    pub removed: Vec<(VertexId, VertexId)>,
    pub added: Vec<(VertexId, VertexId)>,
}

/// Draws the edit batch of churn cycle `cycle`: about 0.1% of the edges,
/// half removed and half added, all inside one block, moving to the next
/// block each cycle so the planted truth stays valid.
pub fn edit_batch(graph: &Graph, params: &PpmParams, seed: u64, cycle: usize) -> EditBatch {
    let block = params.block_size();
    let lo = (cycle % params.r) * block;
    let hi = lo + block;
    let half = (graph.num_edges() / 2000).max(1);
    let mut rng =
        splitmix64(seed ^ 0xC4C4_C4C4 ^ (cycle as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mut next = move |bound: usize| {
        rng = splitmix64(rng);
        (rng % bound as u64) as usize
    };
    let mut intra: Vec<(VertexId, VertexId)> = (lo..hi)
        .flat_map(|u| {
            graph
                .neighbor_slice(u)
                .iter()
                .filter(move |&&v| v > u && v < hi)
                .map(move |&v| (u, v))
        })
        .collect();
    let take = half.min(intra.len());
    // Partial Fisher–Yates: the first `take` slots are a uniform sample.
    for i in 0..take {
        let j = i + next(intra.len() - i);
        intra.swap(i, j);
    }
    intra.truncate(take);
    let mut added: Vec<(VertexId, VertexId)> = Vec::with_capacity(half);
    while added.len() < half {
        let u = lo + next(block);
        let v = lo + next(block);
        let pair = (u.min(v), u.max(v));
        if u == v || graph.has_edge(u, v) || added.contains(&pair) {
            continue;
        }
        added.push(pair);
    }
    EditBatch {
        removed: intra,
        added,
    }
}

/// Buffers an edit batch into the service.
pub fn apply(service: &mut CdrwService, batch: &EditBatch, checks: &mut Checks) {
    for &(u, v) in &batch.removed {
        checks.op("remove_edge", service.remove_edge(u, v));
    }
    for &(u, v) in &batch.added {
        checks.op("add_edge", service.add_edge(u, v));
    }
}

/// The algorithm seed of the from-scratch reference detection of a
/// service's final graph. A seed of its own: on a graph this close to the
/// initial one, the service's seed would largely repeat the initial
/// refresh's work, and the two `detect_s` samples would move together.
pub fn reference_seed(graph_seed: u64) -> u64 {
    splitmix64(graph_seed)
}

/// A service over `graph`; it detects nothing until its first refresh.
pub fn new_service(shape: &Shape, graph: Graph, seed: u64) -> CdrwService {
    let mut service = CdrwService::new(Cdrw::new(shape.config(seed)), graph);
    service.set_staleness_tolerance(STALENESS);
    service
}

/// The service-churn workload: edit batches arrive alongside reads. Each
/// instance brings a service up on a fresh graph (its first refresh is a
/// full detection) and runs [`CYCLES_PER_SERVICE`] cycles, each committing
/// one batch, refreshing and answering a burst of queries; then a
/// from-scratch detection of the final graph is the reference the
/// service's partition is held to. Both full detections are `detect_s`
/// samples. One pass: see [`passes`].
fn run_service(shape: &Shape, seed: u64, seconds: f64, checks: &mut Checks) -> Samples {
    let mut samples = Samples::default();
    let n = shape.params.n;
    let count = instances(Workload::ServiceChurn, seconds);
    let deadline = Instant::now() + overrun(seconds);
    for rep in 0..count {
        if Instant::now() > deadline {
            println!("stopped after {rep} of {count} instances: past the overrun deadline");
            break;
        }
        let index = rep as usize;
        let graph_seed = rep_seed(seed, rep);
        let ((graph, truth), generate_s) = timed(|| shape.generate(graph_seed));
        let (mut service, new_s) = timed(|| new_service(shape, graph, graph_seed));
        samples.setup_s.keep(index, generate_s + new_s);
        // The first refresh runs the full pipeline: a detection sample.
        let (initial, initial_s) = timed(|| service.refresh());
        if checks.op("initial refresh", initial).is_some() {
            samples.detect_s.keep(2 * index, initial_s);
        }
        for cycle in 0..CYCLES_PER_SERVICE {
            let batch = edit_batch(service.graph(), &shape.params, graph_seed, cycle);
            apply(&mut service, &batch, checks);
            let ((commit, refresh), update_s) = timed(|| (service.commit(), service.refresh()));
            checks.op("commit", commit);
            checks.op("refresh", refresh);
            samples
                .update_s
                .keep(index * CYCLES_PER_SERVICE + cycle, update_s);
            samples
                .query_mqps
                .push(query_mqps(n, |v| service.community_of(v)));
        }
        let Some(result) = service.result() else {
            checks.check(false, || "service holds no result".to_string());
            continue;
        };
        let graph = service.graph();
        check_result(graph, result, checks);
        let (partition_f, seed_f) = scores(result, &truth);
        samples.partition_f.push(partition_f);
        samples.seed_f.push(seed_f);
        let cdrw = Cdrw::new(shape.config(reference_seed(graph_seed)));
        let (reference, detect_s) = timed(|| cdrw.detect_all(graph));
        if let Some(reference) = checks.op("reference detect_all", reference) {
            samples.detect_s.keep(2 * index + 1, detect_s);
            check_result(graph, &reference, checks);
            let f_gap = scores(&reference, &truth).0 - partition_f;
            samples.f_gap.push(f_gap);
            checks.check(f_gap <= MAX_F_GAP, || {
                format!("service trails a from-scratch detection by f_gap = {f_gap}")
            });
        }
    }
    println!(
        "services {count} f_gap_mean {} f_gap_max {} (from-scratch partition-F minus the service's)",
        mean(&samples.f_gap),
        samples.f_gap.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    );
    samples
}
