//! Metric collection, correctness bookkeeping, summary statistics and the
//! result line the benchmark ends with.

use std::time::Instant;

/// One reported metric: its name, unit, value and how many samples the
/// value summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Correctness bookkeeping of one run: every operation and every check is
/// one attempt; failed operations and failed checks are recorded with a
/// message.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records one operation, keeping its value on success.
    pub fn op<T, E: std::fmt::Debug>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.failures.push(format!("{what} failed: {error:?}"));
                None
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Runs `f` and returns its value with the elapsed wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.is_empty() {
        f64::NAN
    } else if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Prints one human-readable line per metric, then the machine-readable
/// result as the last line of standard output. Returns whether the run is
/// correct: no failed operation or check and every value finite.
pub fn emit(metrics: &[Metric], checks: &Checks) -> bool {
    for metric in metrics {
        println!(
            "metric {:<28} {:>16} {:<6} samples={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    for failure in &checks.failures {
        println!("check failed: {failure}");
    }
    let non_finite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    // A non-finite value cannot be reported; it counts as one more failure.
    let failed = checks.failed() + u64::from(!non_finite.is_empty());
    let attempted = checks.attempted.max(1) + u64::from(!non_finite.is_empty());
    if !non_finite.is_empty() {
        println!("check failed: non-finite metrics {non_finite:?}");
    }
    println!(
        "error_rate {} ({failed}/{attempted})",
        failed as f64 / attempted as f64
    );
    let correct = failed == 0;
    let body: Vec<String> = if correct {
        metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect()
    } else {
        // Numbers from a run that failed a check are not reported.
        Vec::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        checks.check(false, || "bad".to_string());
        assert_eq!(checks.op("ok", Ok::<u8, ()>(1)), Some(1));
        assert_eq!(checks.op("err", Err::<u8, _>("boom")), None);
        assert_eq!(checks.attempted, 4);
        assert_eq!(checks.failed(), 2);
    }
}
