//! Wall-clock regression gate: diffs a fresh `BENCH_results.json` against a
//! committed baseline and fails on regressions.
//!
//! ```text
//! perf_gate BASELINE.json CURRENT.json [--max-ratio 1.5]
//! ```
//!
//! For every figure present in both files the gate compares `wall_clock_ms`
//! and fails (exit 1) when the current run is more than `max-ratio` times
//! slower than the baseline. Tables faster than the baseline, or new tables
//! with no baseline entry, never fail — the gate only guards against
//! slowdowns. Three guards keep the gate honest on CI's noisy shared
//! runners:
//!
//! * tables cheaper than 100 ms in the baseline are skipped (scheduler
//!   jitter dominates at that granularity),
//! * a truncated current table fails outright — a run that blew its
//!   wall-clock budget is a regression even though its recorded elapsed
//!   time looks small, and
//! * a baseline table missing from the current run fails, so a command
//!   that drops a selection cannot pass by gating nothing.
//!
//! Regenerating the baseline after an intentional perf change (the same
//! selections CI runs):
//!
//! ```text
//! cargo run --release -p cdrw-bench --bin experiments -- \
//!     fig2-smoke kmachine-exec churn --kmachine 4 --json ci/baselines/perf_smoke.json
//! ```
//!
//! then commit the updated file (see `ci/baselines/README.md`).

use cdrw_bench::json::Json;

/// Baseline tables cheaper than this are not gated: at sub-100 ms scale the
/// runner's scheduler jitter exceeds any real regression signal.
const MIN_GATED_BASELINE_MS: f64 = 100.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<&String> = positional_paths(&args);
    let (baseline_path, current_path) = match paths.as_slice() {
        [b, c] => (b.as_str(), c.as_str()),
        _ => {
            eprintln!("usage: perf_gate BASELINE.json CURRENT.json [--max-ratio 1.5]");
            std::process::exit(2);
        }
    };
    let max_ratio = match parse_max_ratio(&args) {
        Ok(ratio) => ratio,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    let baseline = load(baseline_path);
    let current = load(current_path);

    match gate(&baseline, &current, max_ratio) {
        Ok(report) => {
            print!("{report}");
            println!("perf gate passed (max allowed ratio {max_ratio}×)");
        }
        Err(failures) => {
            eprint!("{failures}");
            eprintln!("perf gate FAILED (max allowed ratio {max_ratio}×)");
            std::process::exit(1);
        }
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
        eprintln!("failed to read {path}: {error}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|error| {
        eprintln!("failed to parse {path}: {error}");
        std::process::exit(2);
    })
}

/// The `(name, wall_clock_ms, truncated)` rows of a results document.
fn figures(document: &Json) -> Vec<(String, f64, bool)> {
    document
        .get("figures")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|figure| {
            let name = figure.get("name")?.as_str()?.to_string();
            let wall_clock_ms = figure.get("wall_clock_ms")?.as_f64()?;
            let truncated = figure
                .get("truncated")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            Some((name, wall_clock_ms, truncated))
        })
        .collect()
}

/// Compares every gated table; `Ok` carries the per-table report, `Err` the
/// failure lines.
fn gate(baseline: &Json, current: &Json, max_ratio: f64) -> Result<String, String> {
    let baseline_figures = figures(baseline);
    let current_figures = figures(current);
    let mut report = String::new();
    let mut failures = String::new();
    for (name, _, _) in &baseline_figures {
        if !current_figures.iter().any(|(c, _, _)| c == name) {
            failures.push_str(&format!(
                "  {name}: in the baseline but MISSING from the current run\n"
            ));
        }
    }
    for (name, current_ms, truncated) in current_figures {
        if truncated {
            failures.push_str(&format!(
                "  {name}: current run was TRUNCATED by its wall-clock budget\n"
            ));
            continue;
        }
        let Some((_, baseline_ms, _)) = baseline_figures.iter().find(|(b, _, _)| *b == name) else {
            report.push_str(&format!(
                "  {name}: {current_ms:.0} ms (no baseline entry, not gated)\n"
            ));
            continue;
        };
        if *baseline_ms < MIN_GATED_BASELINE_MS {
            report.push_str(&format!(
                "  {name}: {current_ms:.0} ms vs {baseline_ms:.0} ms baseline \
                 (below {MIN_GATED_BASELINE_MS:.0} ms, not gated)\n"
            ));
            continue;
        }
        let ratio = current_ms / baseline_ms;
        let line =
            format!("  {name}: {current_ms:.0} ms vs {baseline_ms:.0} ms baseline ({ratio:.2}×)\n");
        if ratio > max_ratio {
            failures.push_str(&line);
        } else {
            report.push_str(&line);
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures)
    }
}

/// The positional (non-flag) arguments: everything that is not a `--flag`
/// and not the value consumed by a space-separated `--max-ratio`.
fn positional_paths(args: &[String]) -> Vec<&String> {
    let mut paths = Vec::new();
    let mut skip_next = false;
    for arg in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if arg == "--max-ratio" {
            skip_next = true;
            continue;
        }
        if arg.starts_with("--") {
            continue;
        }
        paths.push(arg);
    }
    paths
}

/// Parses `--max-ratio X` or `--max-ratio=X`; defaults to 1.5.
fn parse_max_ratio(args: &[String]) -> Result<f64, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(inline) = arg.strip_prefix("--max-ratio=") {
            inline
        } else if arg == "--max-ratio" {
            args.get(i + 1)
                .ok_or("--max-ratio needs a value (e.g. --max-ratio 1.5)")?
        } else {
            continue;
        };
        let ratio: f64 = value
            .parse()
            .map_err(|_| format!("invalid --max-ratio {value:?}"))?;
        if !ratio.is_finite() || ratio < 1.0 {
            return Err(format!(
                "--max-ratio must be a finite number ≥ 1, got {ratio}"
            ));
        }
        return Ok(ratio);
    }
    Ok(1.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn document(rows: &[(&str, f64, bool)]) -> Json {
        let figures: Vec<Json> = rows
            .iter()
            .map(|(name, ms, truncated)| {
                Json::object()
                    .set("name", *name)
                    .set("wall_clock_ms", *ms)
                    .set("truncated", *truncated)
            })
            .collect();
        Json::object().set("figures", figures)
    }

    #[test]
    fn passes_within_ratio_and_fails_beyond_it() {
        let baseline = document(&[("fig2-smoke", 1000.0, false)]);
        let ok = document(&[("fig2-smoke", 1400.0, false)]);
        let slow = document(&[("fig2-smoke", 1600.0, false)]);
        assert!(gate(&baseline, &ok, 1.5).is_ok());
        assert!(gate(&baseline, &slow, 1.5).is_err());
    }

    #[test]
    fn sub_threshold_baselines_and_new_tables_are_not_gated() {
        let baseline = document(&[("cheap", 20.0, false)]);
        let current = document(&[("cheap", 500.0, false), ("new-table", 9999.0, false)]);
        assert!(gate(&baseline, &current, 1.5).is_ok());
    }

    #[test]
    fn baseline_tables_missing_from_the_current_run_fail() {
        let baseline = document(&[("fig2-smoke", 1000.0, false), ("kmachine-exec", 2.0, false)]);
        let dropped = document(&[("fig2-smoke", 1000.0, false)]);
        let failures = gate(&baseline, &dropped, 1.5).unwrap_err();
        assert!(failures.contains("kmachine-exec"), "{failures}");
    }

    #[test]
    fn truncated_current_tables_fail() {
        let baseline = document(&[("fig2-smoke", 1000.0, false)]);
        let truncated = document(&[("fig2-smoke", 10.0, true)]);
        assert!(gate(&baseline, &truncated, 1.5).is_err());
    }

    #[test]
    fn positional_paths_skip_flags_and_their_values() {
        let args: Vec<String> = ["base.json", "--max-ratio", "1.5", "current.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(positional_paths(&args), vec!["base.json", "current.json"]);
        let inline: Vec<String> = ["--max-ratio=2", "base.json", "current.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(positional_paths(&inline), vec!["base.json", "current.json"]);
    }

    #[test]
    fn max_ratio_parsing() {
        assert_eq!(parse_max_ratio(&[]).unwrap(), 1.5);
        let args = vec!["--max-ratio".to_string(), "2".to_string()];
        assert_eq!(parse_max_ratio(&args).unwrap(), 2.0);
        let inline = vec!["--max-ratio=1.25".to_string()];
        assert_eq!(parse_max_ratio(&inline).unwrap(), 1.25);
        assert!(parse_max_ratio(&["--max-ratio".to_string(), "0.5".to_string()]).is_err());
        assert!(parse_max_ratio(&["--max-ratio".to_string(), "nan".to_string()]).is_err());
    }
}
