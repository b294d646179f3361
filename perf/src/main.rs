//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- \
//!     --workload <offline-sweep|serve-cold|serve-hot> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every input derives from `--seed`. An untraced run (`--trace 0`)
//! prints the end-to-end metrics; a traced run (`--trace 1`) prints the
//! per-layer metrics. Both check every output the program returns and
//! exit non-zero when a check fails. Time-based end-to-end metrics are
//! quoted at a nominal machine speed that a fixed reference computation
//! (`yardstick`) measures next to each timing. The line before the result is a
//! JSON detail record: configuration, sample counts, exact counters and
//! the first failures. `perf/README.md` explains the workloads and the
//! metrics.

mod layers;
mod offline;
mod report;
mod rng;
mod serve;
mod stats;
mod workload;
mod yardstick;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["offline-sweep", "serve-cold", "serve-hot"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(
                    value
                        .parse::<u8>()
                        .map_err(|e| format!("--trace {value}: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = Outcome::default();
    out.note("nproc", nproc);
    if args.trace {
        layers::zero_all(&mut out);
    }
    match args.workload.as_str() {
        "offline-sweep" => offline::run(args.seed, args.seconds, args.trace, &mut out),
        "serve-cold" => serve::run_cold(args.seed, args.seconds, args.trace, nproc, &mut out),
        _ => serve::run_hot(args.seed, args.seconds, args.trace, nproc, &mut out),
    }
    out.note(
        "error_rate",
        layers::ratio(out.failed as f64, out.attempted as f64),
    );
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let head = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let (detail, result, correct) = report::render(&out, wanted, &head);
    println!("{detail}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        for e in &out.errors {
            eprintln!("error: {e}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe::{best_outcome, sweep_parallel_strategies, Method, Planner};
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, TrainConfig};
    use adapipe_obs::json::{self, Value};

    /// Every template at the extremes of what the serve streams vary
    /// plans successfully, so any non-200 in a run is a real failure.
    #[test]
    fn every_serve_configuration_plans() {
        for t in workload::templates() {
            for (nodes, step, headroom) in
                [(1, 0, 0.80), (8, 127, 0.80), (1, 128, 0.85), (8, 0, 0.9601)]
            {
                let req = workload::request(t, nodes, step, headroom);
                let planner = req.planner().expect("known names");
                let plan = planner.plan(
                    Method::AdaPipe,
                    req.parallel().expect("valid strategy"),
                    req.train().expect("valid workload"),
                );
                assert!(
                    plan.is_ok(),
                    "{t:?} nodes {nodes} step {step} headroom {headroom}: {plan:?}"
                );
            }
        }
    }

    /// Every offline pair has a strategy that fits.
    #[test]
    fn every_offline_pair_has_a_best_strategy() {
        let planner = Planner::new(presets::gpt3_175b(), hw::cluster_a());
        for seq in workload::OFFLINE_SEQS {
            for batch in workload::OFFLINE_BATCHES {
                let train = TrainConfig::new(1, seq, batch).expect("valid workload");
                let outcomes =
                    sweep_parallel_strategies(&planner, Method::AdaPipe, 64, train, 8, 2);
                assert!(best_outcome(&outcomes).is_some(), "seq {seq} batch {batch}");
                let base = sweep_parallel_strategies(&planner, Method::DappleFull, 64, train, 8, 2);
                assert!(
                    best_outcome(&base).is_some(),
                    "baseline seq {seq} batch {batch}"
                );
            }
        }
    }

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
