//! What one run reports, and the line format the result is printed in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// `perf/README.md` gives each one's meaning per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("plan_time_ratio", "ratio"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// bypasses reads 0. Times are per operation (one sweep, one request)
/// unless the name says otherwise; counts are totals of the traced pass.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("ops", "count"),
    ("recompute.knapsack.calls", "count"),
    ("recompute.knapsack.cells", "count"),
    ("recompute.knapsack_us", "us"),
    ("recompute.knapsack.ns_per_cell", "ns"),
    ("partition.alg1.self_us", "us"),
    ("partition.alg1.candidates", "count"),
    ("partition.alg1.states", "count"),
    ("partition.leaf.self_us", "us"),
    ("partition.leaf_evals", "count"),
    ("partition.iso_cache.hits", "count"),
    ("partition.iso_cache.lookups", "count"),
    ("partition.iso_cache.hit_ratio", "ratio"),
    ("subcache.hits", "count"),
    ("subcache.lookups", "count"),
    ("subcache.hit_ratio", "ratio"),
    ("profiler.profile_us", "us"),
    ("profiler.calls", "count"),
    ("planner.materialize_us", "us"),
    ("plan.prefill_us", "us"),
    ("exec.pool.tasks", "count"),
    ("exec.pool.steals", "count"),
    ("check.verify_us", "us"),
    ("plan_io.to_text_us", "us"),
    ("sim.evaluate_us", "us"),
    ("serve.queue.wait_p50_us", "us"),
    ("serve.queue.wait_p99_us", "us"),
    ("serve.http.read_us", "us"),
    ("serve.request.parse_us", "us"),
    ("serve.request.digest_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hits", "count"),
    ("serve.cache.lookups", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("gen.lateness_p99_us", "us"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
];

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions (all failures are counted).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run facts beside the metrics (configuration, sample counts,
    /// counters), printed on the detail line as JSON values.
    pub detail: BTreeMap<String, String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Records a check on one output: counts it as attempted, and as
    /// failed when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.detail.insert(key.to_string(), value.to_string());
    }

    pub fn note_str(&mut self, key: &str, value: &str) {
        self.detail
            .insert(key.to_string(), format!("\"{}\"", value.replace('"', "'")));
    }
}

/// Formats a finite number with every digit Rust's shortest round-trip
/// rendering gives it.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The detail line and the result line. The result line lists exactly
/// `wanted`; a missing or non-finite metric makes the run incorrect.
pub fn render(outcome: &Outcome, wanted: &[(&str, &str)], head: &str) -> (String, String, bool) {
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut missing = Vec::new();
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                missing.push(*name);
                correct = false;
                0.0
            }
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        );
    }
    let mut detail = format!("{{{head}");
    for (k, v) in &outcome.detail {
        let _ = write!(detail, ", \"{k}\": {v}");
    }
    let errors: Vec<String> = outcome
        .errors
        .iter()
        .map(|e| format!("\"{}\"", e.replace(['"', '\\'], "'").replace('\n', " | ")))
        .collect();
    let _ = write!(
        detail,
        ", \"missing_metrics\": {:?}, \"errors\": [{}]}}",
        missing,
        errors.join(", ")
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    (detail, result, correct)
}
