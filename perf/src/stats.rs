//! Sample summaries and process measurements shared by the workloads.

use std::time::Instant;

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an already sorted, non-empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The p99, or when fewer than ten samples lie beyond it the highest of
/// p95 and p90 that has ten, or else the maximum. Returns `(value,
/// percentile label)`.
pub fn tail(xs: &[f64]) -> (f64, &'static str) {
    let s = sorted(xs);
    let n = s.len() as f64;
    for (q, label) in [(0.99, "p99"), (0.95, "p95"), (0.90, "p90")] {
        if n * (1.0 - q) >= 10.0 {
            return (quantile(&s, q), label);
        }
    }
    (*s.last().expect("tail of no samples"), "max")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}
