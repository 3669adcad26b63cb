//! Micro perf measurements recorded into `BENCH_results.json` and asserted
//! by the perf-smoke acceptance test.
//!
//! The measurements run on Figure 4a instances (the sparse 8-block PPM whose
//! accuracy the ensemble/assembly stack was built for), so the ratios
//! travel with every CI artifact instead of living in a one-off PR
//! description. The headline claim of the renormalised sweep — one
//! incremental prefix scan over the merged candidate order instead of an
//! `O(Σ|S|) ≈ 24n` re-scan per candidate size — is held as a ratio of two
//! production kernels: one sweep costs no more than a small multiple of one
//! walk step on the same state.
//!
//! Every measurement here compares two kernels on comparable work, and
//! `best_of_pair` times the two alternately inside each sample round, so a
//! load burst from a neighbouring process lands on both sides of the ratio
//! instead of on whichever side happened to be running.

use std::time::Instant;

use cdrw_gen::{generate_ppm, PpmParams};
use cdrw_graph::Graph;
use cdrw_walk::{largest_mixing_set, LocalMixingConfig, MixingCriterion, WalkBatch, WalkEngine};

/// Measured renormalised-sweep timings against one walk step on the same
/// fig4a-sized walk state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCost {
    /// Vertices of the instance.
    pub n: usize,
    /// Support size of the measured walk state.
    pub support: usize,
    /// Best-of-samples time of one prefix-scan [`WalkEngine::sweep`], in
    /// nanoseconds.
    pub sweep_ns: f64,
    /// Best-of-samples time of one solo [`WalkEngine::step`], in
    /// nanoseconds.
    pub step_ns: f64,
}

impl SweepCost {
    /// The sweep's cost in walk steps (the perf-smoke acceptance bar is
    /// ≤ 2.0; a per-size re-scan would read ≈ 8).
    pub fn ratio(&self) -> f64 {
        self.sweep_ns / self.step_ns
    }
}

/// Measured unweighted-step timings: the current weight-dispatching kernel
/// against the preserved pre-weight-lane kernel, on the same unweighted
/// instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOverhead {
    /// Vertices of the instance.
    pub n: usize,
    /// Support size of the measured walk state (steady-state spread).
    pub support: usize,
    /// Best-of-samples time of one [`cdrw_walk::WalkEngine::step`], in
    /// nanoseconds.
    pub step_ns: f64,
    /// Best-of-samples time of one
    /// [`cdrw_walk::WalkEngine::step_uniform_reference`] (the preserved
    /// pre-weight-lane kernel), in nanoseconds.
    pub reference_ns: f64,
}

impl StepOverhead {
    /// The current kernel's slowdown over the pre-weight-lane reference
    /// (1.0 = free; the perf-smoke acceptance bar is ≤ 1.1).
    pub fn ratio(&self) -> f64 {
        self.step_ns / self.reference_ns
    }
}

/// Measured multi-lane step timings: one lane-interleaved
/// [`cdrw_walk::WalkEngine::step_batch`] against one solo
/// [`cdrw_walk::WalkEngine::step`] per lane, on the same walk states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStepSpeedup {
    /// Vertices of the instance.
    pub n: usize,
    /// Number of lanes stepped.
    pub lanes: usize,
    /// Smallest support among the lanes of the measured walk state.
    pub support: usize,
    /// Best-of-samples time of one batched step of all lanes, in
    /// nanoseconds.
    pub batch_ns: f64,
    /// Best-of-samples time of one solo step of every lane, in nanoseconds.
    pub solo_ns: f64,
}

impl BatchStepSpeedup {
    /// How many times faster the batched step is than the solo steps.
    pub fn speedup(&self) -> f64 {
        self.solo_ns / self.batch_ns
    }
}

/// The Figure 4a sparse cell at `n` vertices: 8 blocks, `p = 2·(ln n)²/n`,
/// `p/q = 2^0.6·ln n`, generated with seed 20190416 — the regime the
/// renormalised sweep and the ensemble's follow-up walks run hottest on.
pub fn fig4a_instance(n: usize) -> Graph {
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    let params = PpmParams::new(n, 8, p, q).expect("valid fig4a parameters");
    generate_ppm(&params, 20190416)
        .expect("valid fig4a instance")
        .0
}

/// Measures four walks from seeds inside one block of a Figure 4a instance
/// at `n = 8192` — the ensemble's follow-up shape — stepped in one batch
/// against stepped one by one. Both sides are first spread for 16 steps to
/// near-global support, where every step does the same work, and are
/// checked bit-identical before and after timing.
pub fn measure_batch_step_speedup() -> BatchStepSpeedup {
    let n = 8192usize;
    let graph = fig4a_instance(n);
    let engine = WalkEngine::new(&graph);
    let seeds = [0usize, 1, 2, 3];

    let mut batch = WalkBatch::for_graph(&graph);
    batch.load_point_masses(&seeds).expect("seeds exist");
    let mut solos: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let mut ws = engine.workspace();
            ws.load_point_mass(seed).expect("seed exists");
            ws
        })
        .collect();
    let agree = |batch: &WalkBatch, solos: &[cdrw_walk::WalkWorkspace]| {
        solos
            .iter()
            .enumerate()
            .all(|(lane, solo)| batch.lane(lane).as_slice() == solo.as_slice())
    };
    for _ in 0..16 {
        engine.step_batch(&mut batch);
        for ws in &mut solos {
            engine.step(ws);
        }
    }
    assert!(
        agree(&batch, &solos),
        "batched lanes diverged before timing"
    );
    let support = solos.iter().map(|ws| ws.support_size()).min().unwrap_or(0);

    let (batch_ns, solo_ns) = best_of_pair(
        || engine.step_batch(&mut batch),
        || {
            for ws in &mut solos {
                engine.step(ws);
            }
        },
        4,
        8,
    );
    assert!(agree(&batch, &solos), "batched lanes diverged while timing");
    BatchStepSpeedup {
        n,
        lanes: seeds.len(),
        support,
        batch_ns,
        solo_ns,
    }
}

/// Measures the unweighted step path both ways — the current kernel (which
/// dispatches on the absent weight lane) against the preserved
/// pre-weight-lane uniform kernel — on a quick-scale Figure 4a instance.
/// Both workspaces are first spread to their steady-state support, where the
/// two kernels do identical per-step work (they are bit-identical on
/// unweighted graphs), so the ratio isolates the cost of the weight-lane
/// dispatch.
pub fn measure_step_overhead() -> StepOverhead {
    let n = 2048usize;
    let graph = fig4a_instance(n);
    assert!(!graph.is_weighted(), "the PPM generator is unweighted");

    let engine = WalkEngine::new(&graph);
    let mut current_ws = engine.workspace();
    let mut reference_ws = engine.workspace();
    current_ws.load_point_mass(0).expect("vertex 0 exists");
    reference_ws.load_point_mass(0).expect("vertex 0 exists");
    // Spread to steady state: on this connected instance the support
    // saturates within a few steps, after which every step does the same
    // O(vol(support)) work.
    for _ in 0..16 {
        engine.step(&mut current_ws);
        engine.step_uniform_reference(&mut reference_ws);
    }
    assert_eq!(
        current_ws.as_slice(),
        reference_ws.as_slice(),
        "the kernels must agree bit-for-bit before timing"
    );
    let support = current_ws.support_size();

    let (step_ns, reference_ns) = best_of_pair(
        || engine.step(&mut current_ws),
        || engine.step_uniform_reference(&mut reference_ws),
        4,
        32,
    );
    StepOverhead {
        n,
        support,
        step_ns,
        reference_ns,
    }
}

/// Times `a` and `b` as best-of-`samples`, `iterations` runs per sample,
/// returning the per-run nanoseconds of each. Every sample round times `a`
/// and then `b` (A, B, A, B, …), so no stretch of machine load can fall on
/// one side only.
pub fn best_of_pair<A: FnMut(), B: FnMut()>(
    mut a: A,
    mut b: B,
    iterations: u32,
    samples: u32,
) -> (f64, f64) {
    let time = |routine: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..iterations {
            routine();
        }
        start.elapsed().as_nanos() as f64 / f64::from(iterations)
    };
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        best_a = best_a.min(time(&mut a));
        best_b = best_b.min(time(&mut b));
    }
    (best_a, best_b)
}

/// Measures one renormalised prefix-scan sweep ([`WalkEngine::sweep`])
/// against one solo [`WalkEngine::step`] on a quick-scale Figure 4a instance
/// (8 blocks of 256, `p = 2·(ln n)²/n`, `p/q = 2^0.6·ln n`). The walk is
/// first spread for 16 steps to near-global support, where the sweep's
/// candidate prefixes are long and every step does the same work, and the
/// sweep's set is checked against the dense [`largest_mixing_set`] before
/// timing.
pub fn measure_sweep_speedup() -> SweepCost {
    let n = 2048usize;
    let graph = fig4a_instance(n);

    let engine = WalkEngine::new(&graph);
    let config = LocalMixingConfig {
        criterion: MixingCriterion::Renormalized,
        ..LocalMixingConfig::for_graph_size(n)
    };
    let mut step_ws = engine.workspace();
    step_ws.load_point_mass(0).expect("vertex 0 exists");
    for _ in 0..16 {
        engine.step(&mut step_ws);
    }
    let support = step_ws.support_size();

    // The swept state stays fixed while the stepped one moves on.
    let mut sweep_ws = step_ws.clone();
    let swept = engine.sweep(&mut sweep_ws, &config).expect("sweep runs");
    let dense = step_ws.to_distribution().expect("the walk state is finite");
    let reference = largest_mixing_set(&graph, &dense, &config).expect("dense sweep runs");
    assert_eq!(swept.set, reference.set, "sweep diverged from dense");

    let (sweep_ns, step_ns) = best_of_pair(
        || {
            let _ = engine.sweep(&mut sweep_ws, &config).unwrap();
        },
        || engine.step(&mut step_ws),
        10,
        16,
    );
    SweepCost {
        n,
        support,
        sweep_ns,
        step_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_overhead_ratio_reads_from_the_timings() {
        let measured = StepOverhead {
            n: 2048,
            support: 2048,
            step_ns: 1_050.0,
            reference_ns: 1_000.0,
        };
        assert!((measured.ratio() - 1.05).abs() < 1e-12);
    }

    #[test]
    fn batch_speedup_reads_from_the_timings() {
        let measured = BatchStepSpeedup {
            n: 8192,
            lanes: 4,
            support: 8000,
            batch_ns: 2_000.0,
            solo_ns: 5_000.0,
        };
        assert!((measured.speedup() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sweep_cost_ratio_reads_from_the_timings() {
        let measured = SweepCost {
            n: 2048,
            support: 2048,
            sweep_ns: 60_000.0,
            step_ns: 100_000.0,
        };
        assert!((measured.ratio() - 0.6).abs() < 1e-12);
    }
}
