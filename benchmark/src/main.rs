//! The CDRW benchmark: four workloads, end-to-end metrics from an untraced
//! run and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload gnp-sparse --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! repeat every metric with its unit and sample count, and record the
//! environment (calibration kernel, available parallelism). The process
//! exits non-zero when any operation or correctness check fails. With
//! `--workload all` the four workloads run one after another in one process,
//! each ending with its own result line.

mod report;
mod trace;
mod workloads;

use std::process::ExitCode;

use cdrw_gen::{generate_ppm, PpmParams};
use cdrw_walk::WalkEngine;

use crate::report::{emit, Checks};
use crate::workloads::Workload;

struct Args {
    /// The workloads to run, one after another in this process.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: cdrw-benchmark \
                     --workload <gnp-sparse|ppm-ensemble|service-churn|kmachine-shards|all> \
                     --seed <n> [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let parsed =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(vec![parsed]);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

/// The calibration kernel: best-of-samples nanoseconds of one
/// `WalkEngine::step` on the fixed 2048-vertex Figure 4a instance, spread
/// to its steady-state support. It tells machine drift apart from a
/// regression.
fn calibration_step_ns() -> f64 {
    let n = 2048;
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    let params = PpmParams::new(n, 8, p, q).expect("valid fig4a parameters");
    let (graph, _) = generate_ppm(&params, 20190416).expect("valid fig4a instance");
    let engine = WalkEngine::new(&graph);
    let mut workspace = engine.workspace();
    workspace.load_point_mass(0).expect("vertex 0 exists");
    for _ in 0..16 {
        engine.step(&mut workspace);
    }
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let (_, secs) = report::timed(|| {
            for _ in 0..10 {
                engine.step(&mut workspace);
            }
        });
        best = best.min(secs * 1e8);
    }
    best
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let env = format!(
        "\"calibration_step_ns\": {}, \"available_parallelism\": {parallelism}",
        calibration_step_ns()
    );
    let mut all_correct = true;
    for &workload in &args.workloads {
        all_correct &= run(workload, &args, &env);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload and prints its report; returns whether it is correct.
fn run(workload: Workload, args: &Args, env: &str) -> bool {
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("env {{{env}}}");
    let mut checks = Checks::default();
    let metrics = if args.trace {
        let (layers, rec) =
            trace::run_traced(workload, args.seed, workloads::Scale::Bench, &mut checks);
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", workload.name(), args.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(&path, trace::spans_json(workload, args.seed, env, &rec))
        });
        if checks.op("write spans", written).is_some() {
            println!("spans {} written to {}", rec.spans().len(), path.display());
        }
        trace::metrics(&layers)
    } else {
        workloads::run(workload, args.seed, args.seconds, &mut checks)
    };
    emit(&metrics, &checks)
}
