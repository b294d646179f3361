//! Post-hoc schedule validation: structural invariants every correct
//! pipeline execution must satisfy. Used by tests (and available to
//! users plugging in custom schedule generators) to catch generator
//! bugs that would otherwise surface as silently-wrong timings.

use crate::error::SimError;
use crate::report::SimReport;
use crate::task::OpKind;
use adapipe_units::{Bytes, MicroSecs};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A violated schedule invariant.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleViolation {
    /// Two tasks overlap on one device.
    DeviceOverlap {
        /// The device in question.
        device: usize,
        /// Start time of the second task.
        at: MicroSecs,
    },
    /// A micro-batch ran backward before (or without) its forward on the
    /// same (stage, replica).
    BackwardBeforeForward {
        /// Micro-batch id.
        micro_batch: usize,
        /// Stage id.
        stage: usize,
    },
    /// Forward/backward counts differ for a (stage, replica).
    UnbalancedPasses {
        /// Stage id.
        stage: usize,
        /// Forward-pass count.
        forwards: usize,
        /// Backward-pass count.
        backwards: usize,
    },
    /// A task has non-positive duration.
    NonPositiveDuration {
        /// The device it ran on.
        device: usize,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::DeviceOverlap { device, at } => {
                write!(f, "tasks overlap on device {device} at t={at}")
            }
            ScheduleViolation::BackwardBeforeForward { micro_batch, stage } => write!(
                f,
                "micro-batch {micro_batch} ran backward before forward at stage {stage}"
            ),
            ScheduleViolation::UnbalancedPasses {
                stage,
                forwards,
                backwards,
            } => write!(
                f,
                "stage {stage} ran {forwards} forwards but {backwards} backwards"
            ),
            ScheduleViolation::NonPositiveDuration { device } => {
                write!(f, "non-positive task duration on device {device}")
            }
        }
    }
}

impl Error for ScheduleViolation {}

/// Checks the executed timeline against the pipeline invariants:
/// no device runs two tasks at once, every backward follows its forward
/// on the same (stage, replica), forward and backward counts match per
/// stage, and every task takes positive time.
///
/// Doubled forwards (ChimeraD) are accounted by their recorded
/// micro-batch; pass `forwards_cover` = 2 for such schedules so the
/// balance check scales the forward count.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check(report: &SimReport, forwards_cover: usize) -> Result<(), ScheduleViolation> {
    // Per-device non-overlap (timeline is sorted by start).
    let eps = MicroSecs::new(1e-12);
    let mut last_end: HashMap<usize, MicroSecs> = HashMap::new();
    for e in &report.timeline {
        if e.end <= e.start {
            return Err(ScheduleViolation::NonPositiveDuration { device: e.device });
        }
        if let Some(&end) = last_end.get(&e.device) {
            if e.start + eps < end {
                return Err(ScheduleViolation::DeviceOverlap {
                    device: e.device,
                    at: e.start,
                });
            }
        }
        let slot = last_end.entry(e.device).or_insert(MicroSecs::ZERO);
        *slot = slot.max(e.end);
    }

    // Backward-after-forward per (stage, replica, micro-batch). For
    // doubled forwards, micro-batches m..m+cover are covered by the
    // forward recorded at m.
    let mut fwd_end: HashMap<(usize, usize, usize), MicroSecs> = HashMap::new();
    for e in &report.timeline {
        if e.meta.kind == OpKind::Forward {
            for covered in e.meta.micro_batch..e.meta.micro_batch + forwards_cover {
                fwd_end.insert((e.meta.stage, e.meta.replica, covered), e.end);
            }
        }
    }
    let mut counts: HashMap<usize, (usize, usize)> = HashMap::new();
    for e in &report.timeline {
        match e.meta.kind {
            OpKind::Forward => counts.entry(e.meta.stage).or_default().0 += 1,
            OpKind::Backward => {
                counts.entry(e.meta.stage).or_default().1 += 1;
                let key = (e.meta.stage, e.meta.replica, e.meta.micro_batch);
                match fwd_end.get(&key) {
                    Some(&end) if end <= e.start + eps => {}
                    _ => {
                        return Err(ScheduleViolation::BackwardBeforeForward {
                            micro_batch: e.meta.micro_batch,
                            stage: e.meta.stage,
                        })
                    }
                }
            }
        }
    }
    for (&stage, &(forwards, backwards)) in &counts {
        if forwards * forwards_cover != backwards {
            return Err(ScheduleViolation::UnbalancedPasses {
                stage,
                forwards,
                backwards,
            });
        }
    }
    Ok(())
}

/// Checks every device's dynamic-memory high-water mark against its
/// budget (`budgets[d]`; devices beyond `budgets.len()` are
/// unchecked). An over-budget stage used to be "unreachable" — only a
/// `debug_assert` in the evaluation path would notice — so release
/// builds silently reported infeasible executions as fine; this makes
/// the condition a first-class, typed error.
///
/// # Errors
///
/// [`SimError::BudgetExceeded`] for the first over-budget device.
pub fn check_budgets(report: &SimReport, budgets: &[Bytes]) -> Result<(), SimError> {
    for (device, d) in report.devices.iter().enumerate() {
        let Some(&budget) = budgets.get(device) else {
            continue;
        };
        if !d.peak_dynamic_bytes.fits(budget) {
            return Err(SimError::BudgetExceeded {
                device,
                high_water: d.peak_dynamic_bytes,
                budget,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::schedule;
    use crate::task::StageExec;
    use adapipe_obs::Recorder;
    use adapipe_units::{Bytes, MicroSecs};

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
    fn every_builtin_schedule_validates() {
        let (p, n) = (4usize, 8usize);
        let st = stages(p);
        let p2p = MicroSecs::new(0.01);
        let chunks = stages(2 * p);
        for (graph, forwards_cover) in [
            (schedule::one_f_one_b(&st, n, p2p), 1),
            (schedule::gpipe(&st, n, p2p), 1),
            (schedule::chimera(&st, n, p2p, false), 1),
            (schedule::chimera(&st, n, p2p, true), 2),
            (schedule::interleaved(&chunks, p, n, p2p), 1),
        ] {
            let report = simulate(&graph, &Recorder::disabled()).unwrap();
            check(&report, forwards_cover).unwrap();
        }
    }

    #[test]
    fn detects_backward_before_forward() {
        let mut report = simulate(
            &schedule::one_f_one_b(&stages(2), 4, MicroSecs::ZERO),
            &Recorder::disabled(),
        )
        .unwrap();
        // Corrupt: move a backward before everything.
        let idx = report
            .timeline
            .iter()
            .position(|e| e.meta.kind == OpKind::Backward)
            .unwrap();
        let entry = report.timeline.remove(idx);
        report.timeline.insert(
            0,
            crate::report::TimelineEntry {
                start: MicroSecs::new(-10.0),
                end: MicroSecs::new(-8.0),
                ..entry
            },
        );
        assert!(matches!(
            check(&report, 1),
            Err(ScheduleViolation::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn detects_device_overlap() {
        let mut report = simulate(
            &schedule::one_f_one_b(&stages(2), 4, MicroSecs::ZERO),
            &Recorder::disabled(),
        )
        .unwrap();
        // Corrupt: stretch the first task over its successor.
        report.timeline[0].end += MicroSecs::new(100.0);
        // Re-sorting is the caller's contract; keep order and stretch.
        assert!(matches!(
            check(&report, 1),
            Err(ScheduleViolation::DeviceOverlap { .. })
        ));
    }

    #[test]
    fn detects_unbalanced_passes() {
        let mut report = simulate(
            &schedule::one_f_one_b(&stages(2), 4, MicroSecs::ZERO),
            &Recorder::disabled(),
        )
        .unwrap();
        let idx = report
            .timeline
            .iter()
            .position(|e| e.meta.kind == OpKind::Backward)
            .unwrap();
        report.timeline.remove(idx);
        assert!(matches!(
            check(&report, 1),
            Err(ScheduleViolation::UnbalancedPasses { .. })
        ));
    }

    #[test]
    fn budget_check_flags_the_overrunning_device() {
        let report = simulate(
            &schedule::one_f_one_b(&stages(3), 6, MicroSecs::ZERO),
            &Recorder::disabled(),
        )
        .unwrap();
        // Stage 0 peaks at p = 3 saved "bytes"; a budget of 2 overruns.
        match check_budgets(&report, &[Bytes::new(2)]).unwrap_err() {
            SimError::BudgetExceeded {
                device,
                high_water,
                budget,
            } => {
                assert_eq!(device, 0);
                assert_eq!(budget, Bytes::new(2));
                assert!(high_water > budget);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
        // Generous budgets (and unchecked trailing devices) pass.
        check_budgets(&report, &[Bytes::new(10), Bytes::new(10)]).unwrap();
        check_budgets(&report, &[]).unwrap();
    }

    #[test]
    fn violations_render() {
        let v = ScheduleViolation::UnbalancedPasses {
            stage: 3,
            forwards: 4,
            backwards: 5,
        };
        assert!(v.to_string().contains("stage 3"));
    }
}
