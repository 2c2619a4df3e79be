//! Small helpers shared by the workloads: order statistics, digests,
//! peak memory, and the result line.

use devil_kernel::Outcome;
use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; `NaN`
/// for an empty one.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a digest of a per-mutant outcome vector, as 16 hex digits.
pub fn outcome_digest(outcomes: &[Outcome]) -> String {
    let codes: Vec<u8> = outcomes.iter().map(|o| o.code()).collect();
    format!("{:016x}", devil_mutagen::ledger::fnv1a(&codes))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Report the peak resident memory so far as `peak_rss_mb`. Each
/// workload calls this right after its measured phase. The service's
/// correctness replay comes after it, so its memory is not counted; the
/// batch workloads' per-mutant pass, their warm-up, comes before it and
/// runs the same engine over the same mutants as their campaigns.
pub fn push_peak_rss(out: &mut RunResult) {
    let rss = peak_rss_mb();
    report("peak_rss_mb", rss, "MiB", "VmHWM after the measured phase");
    out.push("peak_rss_mb", rss, "MiB");
}

/// One reported metric: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run reports: the operation books, the metrics the
/// JSON result line carries, and the failed outcome gates.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

impl RunResult {
    /// Record a gate: a false `ok` fails the run with `what`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("GATE FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// The result line: one JSON object, the last line on stdout.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Print one report line: `name = value unit`, with optional note.
pub fn report(name: &str, value: f64, unit: &str, note: &str) {
    if note.is_empty() {
        println!("  {name:<36} {value:>12.4} {unit}");
    } else {
        println!("  {name:<36} {value:>12.4} {unit}  ({note})");
    }
}
