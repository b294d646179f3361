//! Applying a fault plan to a run: perturbing per-stage execution
//! profiles (persistent stragglers) and built task graphs (one-shot
//! stalls).

use crate::clock::{FaultClock, PendingStall};
use adapipe_sim::{OpKind, StageExec, TaskGraph};
use adapipe_units::MicroSecs;

/// The per-stage execution profile the *degraded* world runs at the
/// clock's current step: stage `s`'s forward/backward times divided by
/// device `s`'s compute factor (1F1B maps stage `s` to device `s`).
/// Memory footprints are unchanged — a slow device still stores the
/// same activations.
#[must_use]
pub fn degraded_stage_execs(planned: &[StageExec], clock: &FaultClock) -> Vec<StageExec> {
    planned
        .iter()
        .enumerate()
        .map(|(s, e)| {
            let factor = clock.compute_factor(s);
            StageExec {
                time_f: MicroSecs::new(e.time_f.as_micros() / factor),
                time_b: MicroSecs::new(e.time_b.as_micros() / factor),
                ..*e
            }
        })
        .collect()
}

/// Applies the transient stalls due at the clock's current step of a
/// `horizon`-step run to `graph`: each stall lengthens the *forward*
/// task of its (device, micro-batch) by the stall delay, once per run.
/// Returns the stalls that were applied (stalls naming a task absent
/// from the graph are consumed but produce no delay).
pub fn apply_stalls(
    graph: &mut TaskGraph,
    clock: &mut FaultClock,
    horizon: usize,
) -> Vec<(PendingStall, MicroSecs)> {
    let due = clock.take_stalls(horizon);
    for &(stall, delay) in &due {
        let target = (0..graph.len()).find(|&id| {
            let meta = graph.task_meta(id);
            graph.task_device(id) == stall.device
                && meta.micro_batch == stall.micro_batch
                && meta.kind == OpKind::Forward
        });
        if let Some(id) = target {
            graph.delay_task(id, delay);
        }
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultPlan};
    use adapipe_sim::{schedule, simulate, Recorder};
    use adapipe_units::Bytes;

    fn stages(p: usize) -> Vec<StageExec> {
        vec![
            StageExec {
                time_f: MicroSecs::new(1.0),
                time_b: MicroSecs::new(2.0),
                saved_bytes: Bytes::new(1),
                buffer_bytes: Bytes::ZERO
            };
            p
        ]
    }

    #[test]
    fn straggler_scales_only_its_stage() {
        let plan = FaultPlan::new(1).with(Fault::Straggler {
            device: 1,
            factor: 0.5,
            from_step: 0,
        });
        let clock = FaultClock::new(&plan);
        let degraded = degraded_stage_execs(&stages(3), &clock);
        assert!((degraded[1].time_f.as_micros() - 2.0).abs() < 1e-12);
        assert!((degraded[1].time_b.as_micros() - 4.0).abs() < 1e-12);
        assert!((degraded[0].time_f.as_micros() - 1.0).abs() < 1e-12);
        assert_eq!(degraded[1].saved_bytes, Bytes::new(1));
    }

    #[test]
    fn straggler_respects_from_step() {
        let plan = FaultPlan::new(1).with(Fault::Straggler {
            device: 0,
            factor: 0.5,
            from_step: 2,
        });
        let mut clock = FaultClock::new(&plan);
        let before = degraded_stage_execs(&stages(2), &clock);
        assert!((before[0].time_f.as_micros() - 1.0).abs() < 1e-12);
        clock.advance();
        clock.advance();
        let after = degraded_stage_execs(&stages(2), &clock);
        assert!((after[0].time_f.as_micros() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stall_lengthens_one_forward_and_the_makespan() {
        let (p, n) = (3usize, 6usize);
        let plan = FaultPlan::new(5).with(Fault::TransientStall {
            device: 1,
            micro_batch: 2,
            delay: MicroSecs::new(10.0),
        });
        let mut clock = FaultClock::new(&plan);
        let fire = clock.fire_step(0, 4);
        for _ in 0..fire {
            clock.advance();
        }
        let mut graph = schedule::one_f_one_b(&stages(p), n, MicroSecs::ZERO);
        let healthy = simulate(&graph, &Recorder::disabled()).unwrap().makespan;
        let applied = apply_stalls(&mut graph, &mut clock, 4);
        assert_eq!(applied.len(), 1);
        let stalled = simulate(&graph, &Recorder::disabled()).unwrap().makespan;
        assert!(stalled >= healthy + MicroSecs::new(10.0) * 0.99);
        // One-shot: a second application changes nothing.
        assert!(apply_stalls(&mut graph, &mut clock, 4).is_empty());
    }

    #[test]
    fn stall_for_absent_task_is_consumed_silently() {
        let plan = FaultPlan::new(5).with(Fault::TransientStall {
            device: 99,
            micro_batch: 0,
            delay: MicroSecs::new(10.0),
        });
        let mut clock = FaultClock::new(&plan);
        let fire = clock.fire_step(0, 4);
        for _ in 0..fire {
            clock.advance();
        }
        let mut graph = schedule::one_f_one_b(&stages(2), 4, MicroSecs::ZERO);
        let before = simulate(&graph, &Recorder::disabled()).unwrap().makespan;
        let applied = apply_stalls(&mut graph, &mut clock, 4);
        assert_eq!(applied.len(), 1);
        let after = simulate(&graph, &Recorder::disabled()).unwrap().makespan;
        assert!((after - before).abs() < MicroSecs::new(1e-12));
    }
}
