//! Metric lists and their statistics, peak memory, and the host context
//! stamp.

use std::path::Path;

use tsocc_bench::json;

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The metrics as a JSON object of `{"value": v, "unit": u}`.
    /// Values keep every digit (`{:?}` is Rust's shortest exact form).
    pub fn to_json(&self) -> String {
        let mut obj = json::Object::new();
        for (name, value, unit) in &self.0 {
            obj = obj.raw(
                name,
                json::Object::new()
                    .raw("value", format!("{value:?}"))
                    .str("unit", unit)
                    .build(),
            );
        }
        obj.build()
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The commit checked out in the repository this package sits in, read
/// from its `.git` directory (`None` in a checkout without one).
fn git_commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
}

/// Where and how a result was measured.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: String,
    pub seed: u64,
    pub workers: usize,
}

impl Host {
    /// Stamps the current host for a run with `seed` on `workers`
    /// threads.
    pub fn stamp(seed: u64, workers: usize) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let commit = git_commit().unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            commit,
            seed,
            workers,
        }
    }

    pub fn to_json(&self) -> String {
        json::Object::new()
            .u64("nproc", self.nproc as u64)
            .str("cpu_model", &self.cpu_model)
            .str("rustc", self.rustc)
            .str("commit", &self.commit)
            .u64("seed", self.seed)
            .u64("workers", self.workers as u64)
            .build()
    }
}
