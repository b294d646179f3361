//! Extension: offload-aware hybrid strategies (the §8 SuperNeurons /
//! MPress direction the paper contrasts against but does not search).
//!
//! For GPT-3's most memory-pressured stage, compare the plain
//! save/recompute knapsack against the three-way save/recompute/offload
//! hybrid across PCIe qualities.

use adapipe_bench::print_table;
use adapipe_hw::presets as hw;
use adapipe_model::{presets, LayerSeq, ParallelConfig, TrainConfig};
use adapipe_obs::Recorder;
use adapipe_profiler::Profiler;
use adapipe_recompute::{optimize, optimize_hybrid, KnapsackConfig, OffloadLink};
use adapipe_units::{Bytes, BytesPerSec};

fn main() {
    let model = presets::gpt3_175b();
    let parallel = ParallelConfig::new(8, 8, 1).expect("valid");
    let train = TrainConfig::new(1, 16384, 32).expect("valid");
    let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
    let seq = LayerSeq::for_model(&model);
    let range = seq.even_partition(8)[0]; // stage 0: tightest budget
    let units = table.units_in(range);
    let all: Bytes = units.iter().map(|u| u.mem_saved).sum();

    let links = [
        ("no offload", None),
        (
            "pcie3 (12 GB/s, 30% ovl)",
            Some(OffloadLink {
                bandwidth: BytesPerSec::new(12e9),
                overlap: 0.3,
            }),
        ),
        ("pcie4 (25 GB/s, 50% ovl)", Some(OffloadLink::pcie4())),
        (
            "pcie5 (50 GB/s, 70% ovl)",
            Some(OffloadLink {
                bandwidth: BytesPerSec::new(50e9),
                overlap: 0.7,
            }),
        ),
    ];

    let mut rows = Vec::new();
    for frac in [20u64, 40, 60] {
        let budget = all * frac / 100;
        let plain = optimize(
            &units,
            budget,
            KnapsackConfig::default(),
            &Recorder::disabled(),
        )
        .expect("feasible");
        for (label, link) in links {
            let (time_b, counts, shipped) = match link {
                None => (
                    plain.cost.time_b,
                    (
                        plain.strategy.saved_count(),
                        plain.strategy.recomputed_count(),
                        0,
                    ),
                    Bytes::ZERO,
                ),
                Some(l) => {
                    let h = optimize_hybrid(&units, budget, l).expect("feasible");
                    (h.time_b, h.counts(), h.offloaded_bytes_per_mb)
                }
            };
            rows.push(vec![
                format!("{frac}%"),
                label.to_string(),
                format!("{:.0}", time_b.as_millis()),
                format!(
                    "{:.1}%",
                    100.0 * (plain.cost.time_b - time_b) / plain.cost.time_b
                ),
                format!("{}/{}/{}", counts.0, counts.1, counts.2),
                format!("{:.2}", shipped.as_f64() / 1e9),
            ]);
        }
    }
    print_table(
        "Extension: offload-aware hybrid knapsack — GPT-3 stage 0, seq 16384, (8,8,1)",
        &[
            "budget",
            "link",
            "backward (ms)",
            "bwd saved",
            "save/recomp/offload",
            "shipped GB/mb",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: a faster, better-overlapped host link converts recomputed \
         units into offloaded ones and shaves backward time; with no viable link the \
         hybrid degenerates to the paper's save/recompute knapsack exactly."
    );
}
