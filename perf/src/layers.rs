//! Per-layer numbers, read from outside the program: the counters and
//! histograms its `Recorder` exports, and the spans of its traces.

use crate::report::Outcome;
use adapipe_obs::json::{self, Value};
use adapipe_obs::{keys, Snapshot, SpanEvent};
use std::collections::BTreeMap;

/// One completed span on one thread, times in microseconds.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub dur: f64,
    pub tid: usize,
}

pub fn from_events(events: &[SpanEvent]) -> Vec<Span> {
    events
        .iter()
        .map(|e| Span {
            name: e.name.clone(),
            start: e.start_us,
            dur: e.dur_us,
            tid: e.tid,
        })
        .collect()
}

/// The `"X"` events of a Chrome-trace JSON document.
pub fn from_chrome_trace(text: &str) -> Option<Vec<Span>> {
    let doc = json::parse(text).ok()?;
    let mut out = Vec::new();
    for e in doc.as_array()? {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        out.push(Span {
            name: e.get("name")?.as_str()?.to_string(),
            start: e.get("ts")?.as_f64()?,
            dur: e.get("dur")?.as_f64()?,
            tid: e.get("tid")?.as_f64()? as usize,
        });
    }
    Some(out)
}

/// Span durations summed by name, with the part of each name's time
/// that its direct children of another name cover.
#[derive(Debug, Default)]
pub struct SpanTotals {
    total: BTreeMap<String, f64>,
    count: BTreeMap<String, u64>,
    child: BTreeMap<(String, String), f64>,
}

impl SpanTotals {
    /// Adds one trace. Nesting is by containment on the same thread.
    pub fn add(&mut self, spans: &[Span]) {
        const EPS: f64 = 0.01;
        let mut sorted: Vec<&Span> = spans.iter().collect();
        sorted.sort_by(|a, b| {
            (a.tid, a.start)
                .partial_cmp(&(b.tid, b.start))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.dur.total_cmp(&a.dur))
        });
        let mut stack: Vec<&Span> = Vec::new();
        for s in sorted {
            while let Some(top) = stack.last() {
                let inside = top.tid == s.tid && s.start + s.dur <= top.start + top.dur + EPS;
                if inside {
                    break;
                }
                stack.pop();
            }
            if let Some(parent) = stack.last() {
                *self
                    .child
                    .entry((parent.name.clone(), s.name.clone()))
                    .or_default() += s.dur;
            }
            *self.total.entry(s.name.clone()).or_default() += s.dur;
            *self.count.entry(s.name.clone()).or_default() += 1;
            stack.push(s);
        }
    }

    pub fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// Time that direct children named `child` cover inside `parent` spans.
    pub fn child(&self, parent: &str, child: &str) -> f64 {
        self.child
            .get(&(parent.to_string(), child.to_string()))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Counters, gauges and histogram sums of one metrics export.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    hist_sum: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn from_snapshot(s: &Snapshot) -> Self {
        Metrics {
            counters: s
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v as f64))
                .collect(),
            gauges: s.gauges.clone(),
            hist_sum: s
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.sum))
                .collect(),
        }
    }

    /// Parses an `adapipe-obs/v1` metrics report (`GET /metrics`).
    pub fn from_json(text: &str) -> Option<Self> {
        let doc = json::parse(text).ok()?;
        let numbers = |key: &str| -> Option<BTreeMap<String, f64>> {
            match doc.get(key)? {
                Value::Object(map) => Some(
                    map.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect(),
                ),
                _ => None,
            }
        };
        let Value::Object(hists) = doc.get("histograms")? else {
            return None;
        };
        Some(Metrics {
            counters: numbers("counters")?,
            gauges: numbers("gauges")?,
            hist_sum: hists
                .iter()
                .filter_map(|(k, h)| Some((k.clone(), h.get("sum")?.as_f64()?)))
                .collect(),
        })
    }

    /// What accrued between `before` and `self` (gauges: the change).
    pub fn since(&self, before: &Metrics) -> Metrics {
        let diff = |a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>| {
            a.iter()
                .map(|(k, v)| (k.clone(), v - b.get(k).copied().unwrap_or(0.0)))
                .collect()
        };
        Metrics {
            counters: diff(&self.counters, &before.counters),
            gauges: diff(&self.gauges, &before.gauges),
            hist_sum: diff(&self.hist_sum, &before.hist_sum),
        }
    }

    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.hist_sum.get(key).copied().unwrap_or(0.0)
    }
}

pub fn ratio(part: f64, base: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        0.0
    }
}

/// Every per-layer metric starts at 0, the reading of a bypassed layer.
pub fn zero_all(out: &mut Outcome) {
    for (name, _) in crate::report::PER_LAYER {
        out.set(name, 0.0);
    }
}

/// The search-engine layers: the knapsack, the leaf provider and its
/// caches, Algorithm 1, the profiler, materialization and prefill.
///
/// `m` holds the counters and histograms of `ops` operations; `spans`
/// the span totals of `traced_ops` of them (all, or a sample).
///
/// The knapsack and leaf histograms carry no parent. Leaf self time
/// subtracts all knapsack time, including the few calls made under
/// `plan.materialize` (whose time `planner.materialize_us` keeps), and
/// the leaf time under Algorithm 1 is the mean leaf time times the
/// leaves not prefilled.
pub fn planner_layers(
    out: &mut Outcome,
    m: &Metrics,
    ops: f64,
    spans: &SpanTotals,
    traced_ops: f64,
) {
    let knap_us = m.sum(keys::KNAPSACK_US);
    let cells = m.counter(keys::KNAPSACK_CELLS);
    let leaf_us = m.sum(keys::PARTITION_LEAF_US);
    let leaf_n = m.counter(keys::PARTITION_LEAF_EVALS);
    let leaves_in_alg1 = (leaf_n - m.counter(keys::PREFILL_LEAVES)).max(0.0);
    let leaf_in_alg1 = ratio(leaf_us, leaf_n) * leaves_in_alg1;
    let per_op = |v: f64| ratio(v, ops);
    let per_traced = |v: f64| ratio(v, traced_ops);

    out.set("recompute.knapsack.calls", m.counter(keys::KNAPSACK_CALLS));
    out.set("recompute.knapsack.cells", cells);
    out.set("recompute.knapsack_us", per_op(knap_us));
    out.set(
        "recompute.knapsack.ns_per_cell",
        ratio(knap_us * 1e3, cells),
    );
    out.set("partition.leaf_evals", leaf_n);
    out.set(
        "partition.leaf.self_us",
        per_op((leaf_us - knap_us).max(0.0)),
    );
    out.set(
        "partition.alg1.candidates",
        m.counter(keys::ALG1_CANDIDATES),
    );
    out.set("partition.alg1.states", m.counter(keys::ALG1_STATES));
    let alg1_wall = per_traced(spans.total(keys::SPAN_PARTITION_ALG1));
    out.set(
        "partition.alg1.self_us",
        (alg1_wall - per_op(leaf_in_alg1)).max(0.0),
    );
    let (iso_h, iso_m) = (
        m.counter(keys::ISO_CACHE_HITS),
        m.counter(keys::ISO_CACHE_MISSES),
    );
    out.set("partition.iso_cache.hits", iso_h);
    out.set("partition.iso_cache.lookups", iso_h + iso_m);
    out.set("partition.iso_cache.hit_ratio", ratio(iso_h, iso_h + iso_m));
    let (sub_h, sub_m) = (
        m.counter(keys::SUBCACHE_HITS),
        m.counter(keys::SUBCACHE_MISSES),
    );
    out.set("subcache.hits", sub_h);
    out.set("subcache.lookups", sub_h + sub_m);
    out.set("subcache.hit_ratio", ratio(sub_h, sub_h + sub_m));
    out.set(
        "profiler.profile_us",
        per_traced(spans.total(keys::SPAN_PLAN_PROFILE)),
    );
    out.set(
        "profiler.calls",
        spans.count(keys::SPAN_PLAN_PROFILE) as f64,
    );
    out.set(
        "planner.materialize_us",
        per_traced(spans.total(keys::SPAN_PLAN_MATERIALIZE)),
    );
    out.set(
        "plan.prefill_us",
        per_traced(spans.total(keys::SPAN_PLAN_PREFILL)),
    );
}
