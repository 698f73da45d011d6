//! The result line, order statistics and memory probes.

use std::time::Duration;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `events/s`.
    pub unit: &'static str,
}

/// What one benchmark run reports: its verdict, its operation counts
/// and its metrics.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (sweep detector runs, replays, sessions).
    pub attempted: u64,
    /// Operations that faulted, timed out, were refused or failed
    /// their output check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Why a check failed, one line each (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    /// An outcome with no operations yet and every check passing.
    #[must_use]
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed check; the run is no longer correct.
    pub fn problem(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.problems.push(why.into());
    }

    /// Folds another outcome's counts, verdict and metrics into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.problems.extend(other.problems);
    }

    /// The result as the one-line JSON object the benchmark prints last.
    /// A run with a failed operation is never reported correct.
    #[must_use]
    pub fn to_json(&self) -> String {
        let correct = self.correct && self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a value that is not finite
                // is a broken measurement and reads as 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Milliseconds in `d`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of process `pid`, or of this process
/// for `None`, in MiB.
#[must_use]
pub fn vm_hwm_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Returns freed heap memory to the system, then resets this process's
/// `VmHWM` to its current resident set, so the next reading covers only
/// what is live now and what runs after this call. Where the kernel
/// cannot reset it, the next reading covers the whole process life.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be
        // called at any time; it only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
