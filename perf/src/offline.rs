//! `offline-sweep`: the paper's §7.3 strategy search. Each sweep plans
//! and simulates GPT-3 175B under every legal `(t, p, d)` of 64 cluster-A
//! GPUs with AdaPipe and keeps the fastest plan that fits. The knapsack
//! and Algorithm 1 do nearly all the work; no serve layer runs.

use crate::layers::{self, Metrics, SpanTotals};
use crate::report::Outcome;
use crate::stats;
use crate::workload::offline_sweeps;
use crate::yardstick::{Gauge, NOMINAL_NS_PER_CELL};
use adapipe::{best_outcome, plan_io, sweep_parallel_strategies, Method, Planner, VerifyOptions};
use adapipe_hw::presets as hw;
use adapipe_model::{presets, ParallelConfig, TrainConfig};
use adapipe_obs::{keys, Recorder};
use std::collections::BTreeMap;
use std::time::Instant;

const DEVICES: usize = 64;
const MAX_TENSOR: usize = 8;
const MIN_PIPELINE: usize = 2;
/// Sweeps a run plans for each this many seconds of `--seconds`.
const NOMINAL_SWEEP_S: f64 = 3.0;
/// At least all nine pairs plus one repeat.
const MIN_SWEEPS: usize = 10;
/// One set-up plans for ~0.3 s; seven of them keep the median clear of
/// the first second of a process, when the machine is still ramping up.
const SETUP_REPS: usize = 7;

/// Builds the planner and warms it with one plan, `SETUP_REPS` times;
/// records the median adjusted time as `setup_s` and returns the last
/// planner.
fn setup(gauge: &mut Gauge, out: &mut Outcome) -> Planner {
    let mut walls = Vec::new();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let ((p, warm), wall, scale) = gauge.time(|| {
            let p = Planner::new(presets::gpt3_175b(), hw::cluster_a());
            let warm = p.plan(
                Method::AdaPipe,
                ParallelConfig::new(8, 8, 1).expect("valid strategy"),
                TrainConfig::new(1, 4096, 64).expect("valid workload"),
            );
            (p, warm)
        });
        walls.push(wall);
        times.push(wall * scale);
        out.check(warm.is_ok(), || format!("set-up plan failed: {warm:?}"));
        last = Some(p);
    }
    out.note("setup_wall_s", format!("{walls:?}"));
    out.set("setup_s", stats::median(&times));
    last.expect("at least one set-up")
}

/// The fastest strategy that fits, and its simulated iteration time in µs.
type Best = Option<(ParallelConfig, f64)>;

fn sweep(planner: &Planner, method: Method, train: TrainConfig) -> Best {
    let outcomes =
        sweep_parallel_strategies(planner, method, DEVICES, train, MAX_TENSOR, MIN_PIPELINE);
    best_outcome(&outcomes).and_then(|b| Some((b.parallel, b.time()?.as_micros())))
}

/// Per-sweep gate timings, for the traced run.
#[derive(Default)]
struct GateTimes {
    verify_us: Vec<f64>,
    to_text_us: Vec<f64>,
}

/// The correctness gate of one sweep: the best strategy re-plans to a
/// plan that verifies clean and simulates to the reported time, and a
/// repeated `(seq, batch)` pair yields the same strategy and plan text.
fn gate(
    planner: &Planner,
    pair: (usize, usize),
    train: TrainConfig,
    best: Best,
    seen: &mut BTreeMap<(usize, usize), (ParallelConfig, String)>,
    times: &mut GateTimes,
) -> Result<(), String> {
    let (parallel, time_us) = best.ok_or("no strategy fits")?;
    let plan = planner
        .plan(Method::AdaPipe, parallel, train)
        .map_err(|e| format!("best strategy {parallel} does not re-plan: {e}"))?;
    let t0 = Instant::now();
    let report = planner.verify_with(&plan, VerifyOptions::default());
    times.verify_us.push(stats::us_since(t0));
    if report.has_errors() {
        return Err(format!("best plan fails verification: {report}"));
    }
    let t0 = Instant::now();
    let text = plan_io::to_text(&plan);
    times.to_text_us.push(stats::us_since(t0));
    let replayed = planner.evaluate(&plan).iteration_time.as_micros();
    if replayed != time_us {
        return Err(format!(
            "best plan simulates to {replayed} us, sweep said {time_us} us"
        ));
    }
    match seen.get(&pair) {
        Some((p, t)) if (*p, t.as_str()) != (parallel, text.as_str()) => Err(format!(
            "repeat of {pair:?} chose {parallel} (first {p}) or a different plan text"
        )),
        Some(_) => Ok(()),
        None => {
            seen.insert(pair, (parallel, text));
            Ok(())
        }
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    out.note("adapipe_threads", 1);
    out.note_str("exec_pool", "none (serial planner, library default)");
    out.note("yardstick_nominal_ns_per_cell", NOMINAL_NS_PER_CELL);
    let mut gauge = Gauge::new(1);
    let planner = setup(&mut gauge, out);
    let count = MIN_SWEEPS.max((seconds as f64 / NOMINAL_SWEEP_S).ceil() as usize);
    let pairs = offline_sweeps(seed, count);
    out.note_str("pairs", &format!("{pairs:?}"));

    let rec = Recorder::new();
    let traced = planner.clone().with_recorder(rec.clone());
    let untraced_first = trace.then(|| {
        let (seq, batch) = pairs[0];
        let train = TrainConfig::new(1, seq, batch).expect("valid");
        let (_, wall, scale) = gauge.time(|| sweep(&planner, Method::AdaPipe, train));
        wall * scale
    });
    let run_with = if trace { &traced } else { &planner };

    let mut seen = BTreeMap::new();
    let mut baselines: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut gate_times = GateTimes::default();
    // Adjusted seconds of every sweep, and of the first sweep of each pair
    // only: the timing metrics read the latter, so every run times the
    // same nine pairs whatever its seed repeats.
    let mut secs = Vec::new();
    let mut timed = Vec::new();
    let mut walls = Vec::new();
    let mut ratios = Vec::new();
    let mut deltas: BTreeMap<(usize, usize), BTreeMap<String, u64>> = BTreeMap::new();
    for &(seq, batch) in &pairs {
        let train = TrainConfig::new(1, seq, batch).expect("valid workload");
        let before = rec.snapshot().counters;
        let (best, wall, scale) = gauge.time(|| sweep(run_with, Method::AdaPipe, train));
        let adjusted = wall * scale;
        let delta: BTreeMap<String, u64> = rec
            .snapshot()
            .counters
            .into_iter()
            .map(|(k, v)| {
                let b = before.get(&k).copied().unwrap_or(0);
                (k, v - b)
            })
            .collect();
        walls.push(wall);
        secs.push(adjusted);
        let first = !seen.contains_key(&(seq, batch));
        if first {
            timed.push(adjusted);
        }
        let mut verdict = gate(
            &planner,
            (seq, batch),
            train,
            best,
            &mut seen,
            &mut gate_times,
        );
        if let Some(first) = deltas.get(&(seq, batch)) {
            if *first != delta && verdict.is_ok() {
                verdict = Err(format!(
                    "repeat of {:?} did different work: {delta:?} vs {first:?}",
                    (seq, batch)
                ));
            }
        } else {
            deltas.insert((seq, batch), delta);
        }
        let baseline = *baselines.entry((seq, batch)).or_insert_with(|| {
            sweep(&planner, Method::DappleFull, train).map_or(f64::NAN, |(_, t)| t)
        });
        if let Some((_, t)) = best {
            ratios.push(t / baseline);
        }
        out.check(verdict.is_ok(), || {
            format!(
                "sweep seq {seq} batch {batch}: {}",
                verdict.clone().unwrap_err()
            )
        });
    }

    let wall: f64 = walls.iter().sum();
    out.note("sweeps", secs.len());
    out.note("timed_sweeps", timed.len());
    out.note("sweep_wall_s", format!("{walls:?}"));
    out.note("sweep_s", format!("{secs:?}"));
    out.note("yardstick_s", format!("{:?}", gauge.runs));
    out.set("p50_ms", stats::median(&timed) * 1e3);
    let (tail, label) = stats::tail(&timed);
    out.set("tail_ms", tail * 1e3);
    out.note_str("tail_percentile", label);
    out.set(
        "throughput_per_s",
        timed.len() as f64 / timed.iter().sum::<f64>(),
    );
    out.set("plan_time_ratio", stats::mean(&ratios));
    out.set("rss_mb", stats::peak_rss_mb() - gauge.resident_mb());

    if trace {
        let snap = rec.snapshot();
        let m = Metrics::from_snapshot(&snap);
        let mut totals = SpanTotals::default();
        totals.add(&layers::from_events(&snap.spans));
        let ops = secs.len() as f64;
        out.set("ops", ops);
        layers::planner_layers(out, &m, ops, &totals, ops);
        let evaluate = totals.total(keys::SPAN_EVALUATE)
            - totals.child(keys::SPAN_EVALUATE, keys::SPAN_PLAN_PROFILE);
        out.set("sim.evaluate_us", evaluate / ops);
        out.set("check.verify_us", stats::mean(&gate_times.verify_us));
        out.set("plan_io.to_text_us", stats::mean(&gate_times.to_text_us));
        let attributed = totals.total(keys::SPAN_PLAN_PROFILE)
            + totals.total(keys::SPAN_PARTITION_ALG1)
            + totals.total(keys::SPAN_PLAN_MATERIALIZE)
            + evaluate;
        out.set("unattributed_share", 1.0 - attributed / (wall * 1e6));
        if let Some(u) = untraced_first {
            out.set("trace_overhead", secs[0] / u - 1.0);
        }
        out.note(
            "counters",
            format!(
                "{{{}}}",
                snap.counters
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    }
}
