//! Figure 2: the GPipe vs 1F1B scheduling mechanisms on a 3-stage,
//! 6-micro-batch pipeline — rendered as ASCII timelines, with the
//! bubble and peak-memory comparison the figure illustrates.

use adapipe_bench::emit_bench_json;
use adapipe_obs::{keys, Recorder};
use adapipe_sim::{render, schedule, simulate, SimReport, StageExec};
use adapipe_units::{Bytes, MicroSecs};

fn render_report(report: &SimReport) {
    print!(
        "{}",
        render::render_ascii(report, report.makespan.as_micros().ceil() as usize)
    );
    println!(
        "makespan {:.1}, bubble ratio {:.1}%, peak activations per stage: {:?}\n",
        report.makespan.as_micros(),
        100.0 * report.bubble_ratio(),
        report
            .devices
            .iter()
            .map(|d| d.peak_dynamic_bytes.get())
            .collect::<Vec<_>>()
    );
}

fn main() {
    let rec = Recorder::new();
    let t0 = std::time::Instant::now();
    // Unit-cost stages: F = 1, B = 2, one activation "byte" per
    // micro-batch so peaks read as micro-batch counts.
    let stages = vec![
        StageExec {
            time_f: MicroSecs::new(1.0),
            time_b: MicroSecs::new(2.0),
            saved_bytes: Bytes::new(1),
            buffer_bytes: Bytes::ZERO
        };
        3
    ];
    let n = 6;

    println!("== Figure 2 (a): GPipe — all forwards, then all backwards ==");
    let gp = simulate(&schedule::gpipe(&stages, n, MicroSecs::ZERO), &rec).unwrap();
    render_report(&gp);

    println!("== Figure 2 (b): 1F1B — warmup / steady / ending ==");
    let f1b = simulate(&schedule::one_f_one_b(&stages, n, MicroSecs::ZERO), &rec).unwrap();
    render_report(&f1b);

    println!(
        "Expected shape: identical makespan and bubbles (2(p-1) slots), but GPipe \
         holds all {n} micro-batches while 1F1B stage s holds only p - s."
    );
    assert!((gp.makespan - f1b.makespan).abs() < MicroSecs::new(1e-9));
    assert!(f1b.max_peak_dynamic_bytes() < gp.max_peak_dynamic_bytes());

    rec.gauge(keys::BENCH_WALL_S, t0.elapsed().as_secs_f64());
    emit_bench_json("fig02_schedules", &rec, &[("figure", "2")]);
}
