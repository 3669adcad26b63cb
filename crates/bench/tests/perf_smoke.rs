//! Perf-smoke acceptance tests for the hot-loop work.
//!
//! These pin the *shape* of the speedups, not wall-clock absolutes: one
//! renormalised prefix-scan sweep must cost ≤ 2× one walk step on the same
//! fig4a-sized state (a per-size re-scan would cost ≈ 8×), batched stepping
//! must not lose to sequential stepping on overlapping walks, the
//! lane-interleaved batch step must beat four solo steps by ≥ 1.5× at
//! near-global support, the work-stealing parallel driver must scale on a
//! multi-core runner, the weight-lane dispatch must cost ≤ 1.1× on the
//! unweighted step path against the preserved pre-weight-lane kernel, and
//! the fault-free chaos wrapper must cost ≤ 1.1× of the bare sharded run
//! (the zero plan short-circuits to the inner transport). All
//! measurements are best-of-samples with the two sides alternating, so
//! scheduler noise shifts the ratio, not the verdict.

use cdrw_bench::perf;
use cdrw_congest::CongestConfig;
use cdrw_core::{Cdrw, CdrwConfig};
use cdrw_gen::{generate_ppm, PpmParams};
use cdrw_kmachine::{FaultPlan, KMachineConfig, KMachineEngine};
use cdrw_walk::{WalkBatch, WalkEngine};
use std::sync::{Mutex, MutexGuard, PoisonError};

// Every test here is #[ignore]d so the accuracy job and plain `cargo test`
// stay timing-deterministic; the CI perf-smoke job runs them explicitly with
// `-- --ignored` in release mode.

/// Held by every timing test for its whole run. `cargo test` runs tests on
/// parallel threads, and a ratio timed while another test loads the
/// neighbouring core and the shared caches reads that test's load rather
/// than the two kernels it compares.
static TIMING: Mutex<()> = Mutex::new(());

fn exclusive_timing() -> MutexGuard<'static, ()> {
    // A failed bar poisons the lock; the `()` it guards has no state to
    // leave half-updated, so the next test may take it over.
    TIMING.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn renormalized_sweep_costs_at_most_2x_one_step_on_a_fig4a_instance() {
    let _timing = exclusive_timing();
    // The prefix scan answers every candidate size from one pass over the
    // merged affinity order, so at near-global support a sweep costs about
    // as much as one walk step; re-scanning the candidate prefix per size
    // would cost ≈ 8 steps. The sweep's set is checked against the dense
    // oracle before timing.
    let measured = perf::measure_sweep_speedup();
    assert_eq!(measured.n, 2048, "quick-scale fig4a size");
    assert!(
        measured.support > measured.n / 2,
        "the walk state must exercise long candidate prefixes, support = {}",
        measured.support
    );
    assert!(
        measured.ratio() <= 2.0,
        "renormalised sweep at {:.2}x of one walk step, above the 2x \
         acceptance bar (sweep {:.0} ns, step {:.0} ns)",
        measured.ratio(),
        measured.sweep_ns,
        measured.step_ns
    );
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn unweighted_step_path_costs_at_most_1_1x_of_the_pre_weight_lane_kernel() {
    let _timing = exclusive_timing();
    // The weight lane must cost nothing when absent: on an unweighted graph
    // the current kernel takes the weightless branch, whose instructions are
    // the pre-weight-lane kernel's plus one per-vertex dispatch on the absent
    // weight slice. Both sides are bit-identical and measured best-of-samples
    // at steady-state support on the same fig4a-sized instance.
    let measured = perf::measure_step_overhead();
    assert_eq!(measured.n, 2048, "quick-scale fig4a size");
    assert!(
        measured.support > measured.n / 2,
        "the timed state must be spread to steady-state support, support = {}",
        measured.support
    );
    assert!(
        measured.ratio() <= 1.1,
        "unweighted step path at {:.3}x of the pre-weight-lane kernel, above \
         the 1.1x acceptance bar (step {:.0} ns, reference {:.0} ns)",
        measured.ratio(),
        measured.step_ns,
        measured.reference_ns
    );
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn fault_free_chaos_wrapper_costs_at_most_1_1x_of_the_bare_sharded_run() {
    let _timing = exclusive_timing();
    // The fault-tolerance acceptance bar: wrapping every shard transport in
    // `ChaosTransport` under the zero plan must be (near) free, because the
    // fault-free plan short-circuits straight to the inner transport — no
    // hashing, no delay queues, no locks on the hot path. Both sides run
    // the identical sharded pipeline on the same graph; the wrapped side
    // merely routes through the inert wrapper.
    let n = 256usize;
    let p = (12.0 * (n as f64).ln() / n as f64).min(1.0);
    let params = PpmParams::new(n, 2, p, (p / 40.0).min(1.0)).unwrap();
    let (graph, _) = generate_ppm(&params, 20190416).unwrap();
    let delta = params.expected_block_conductance().clamp(0.01, 1.0);
    let algorithm = CdrwConfig::builder().seed(20190416).delta(delta).build();
    let config = KMachineConfig::new(2)
        .with_congest(CongestConfig::new(algorithm))
        .with_partition_seed(20190416);
    let bare = KMachineEngine::new(config).unwrap();
    let wrapped = KMachineEngine::new(config)
        .unwrap()
        .with_fault_plan(FaultPlan::fault_free());

    let run = |engine: &KMachineEngine| assert!(engine.run(&graph).unwrap().fault_log.is_clean());
    let (bare_ns, wrapped_ns) = perf::best_of_pair(|| run(&bare), || run(&wrapped), 1, 40);
    assert!(
        wrapped_ns <= bare_ns * 1.1,
        "fault-free chaos wrapper at {:.3}x of the bare sharded run, above \
         the 1.1x acceptance bar (wrapped {:.1} ms, bare {:.1} ms)",
        wrapped_ns / bare_ns,
        wrapped_ns / 1e6,
        bare_ns / 1e6
    );
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn batched_stepping_does_not_lose_to_sequential_stepping() {
    let _timing = exclusive_timing();
    // Four overlapping walks inside one block of a fig4a instance — the
    // ensemble's follow-up shape. Batching reads the CSR once per step for
    // all four lanes; it must be at least par with four solo traversals
    // (the win grows with graph size as the CSR stops fitting in cache).
    let graph = perf::fig4a_instance(4096);
    let engine = WalkEngine::new(&graph);
    let seeds: Vec<usize> = (0..4).collect();
    const STEPS: usize = 6;

    let mut batch = WalkBatch::for_graph(&graph);
    let mut workspace = engine.workspace();
    let (batched_ns, sequential_ns) = perf::best_of_pair(
        || {
            batch.load_point_masses(&seeds).unwrap();
            for _ in 0..STEPS {
                engine.step_batch(&mut batch);
            }
        },
        || {
            for &seed in &seeds {
                workspace.load_point_mass(seed).unwrap();
                for _ in 0..STEPS {
                    engine.step(&mut workspace);
                }
            }
        },
        4,
        6,
    );
    // Generous slack: the claim is "batching is not a pessimisation" — its
    // real win is DRAM traffic on large graphs, which a CI container's
    // cache hierarchy may hide entirely.
    assert!(
        batched_ns <= sequential_ns * 1.5,
        "batched stepping {batched_ns:.0} ns much slower than sequential {sequential_ns:.0} ns"
    );
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn interleaved_batch_step_beats_four_solo_walks() {
    let _timing = exclusive_timing();
    // Four walks inside one block of a fig4a instance at n = 8192, spread
    // to near-global support: the interleaved kernel reads each adjacency
    // list once and scatters one cache-line row per neighbour for all four
    // lanes, where the solo steps pay four traversals and four scattered
    // read-modify-writes per edge. The lanes are checked bit-identical to
    // the solo walks before and after timing.
    let measured = perf::measure_batch_step_speedup();
    assert_eq!((measured.n, measured.lanes), (8192, 4));
    assert!(
        measured.support > measured.n / 2,
        "the timed state must be spread to near-global support, support = {}",
        measured.support
    );
    assert!(
        measured.speedup() >= 1.5,
        "interleaved batch step {:.2}x faster than four solo steps, below the \
         1.5x acceptance bar (batch {:.0} ns, solo {:.0} ns)",
        measured.speedup(),
        measured.batch_ns,
        measured.solo_ns
    );
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn work_stealing_scales_with_four_workers() {
    let _timing = exclusive_timing();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping work-stealing scaling check: only {cores} core(s) available");
        return;
    }
    // A fig4a-shaped 8-block instance with enough seeds that the atomic
    // cursor gets exercised (claims are chunked, so a seed count well above
    // workers × chunk matters). Per-seed detection cost varies with how far
    // each walk's candidate sequence runs, which is exactly the skew
    // work stealing absorbs and static striping cannot.
    let n = 4096usize;
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    let params = PpmParams::new(n, 8, p, q).unwrap();
    let (graph, _) = generate_ppm(&params, 20190416).unwrap();
    let delta = params.expected_block_conductance().clamp(0.01, 1.0);
    let cdrw = Cdrw::new(CdrwConfig::builder().seed(20190416).delta(delta).build());
    let num_seeds = 48usize;

    let detect = |workers: usize| {
        let result = cdrw
            .detect_parallel_with_workers(&graph, num_seeds, workers)
            .unwrap();
        assert!(!result.detections().is_empty());
    };
    let (single_ns, parallel_ns) = perf::best_of_pair(|| detect(1), || detect(4), 1, 3);
    assert!(
        parallel_ns * 1.5 <= single_ns,
        "work-stealing with 4 workers is {:.0} ms vs {:.0} ms single-worker: \
         speedup {:.2}x below the 1.5x acceptance bar",
        parallel_ns / 1e6,
        single_ns / 1e6,
        single_ns / parallel_ns
    );
}
