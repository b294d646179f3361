//! Brute-force oracle for the §4.3 recomputation knapsack.
//!
//! Enumerates *every* saved/recomputed assignment of a stage's free
//! units and keeps the feasible one with the largest avoided
//! recomputation — the ground truth `optimize` must match. The
//! enumeration is 2^free, so callers bound the instance size with
//! [`MAX_ORACLE_FREE_UNITS`]; the point of this module is verifying the
//! DP on small instances, not replacing it (see `docs/verification.md`).

use crate::error::StrategyError;
use crate::knapsack::OptimizedStage;
use crate::strategy::{cost_of, RecomputeStrategy};
use adapipe_profiler::UnitProfile;
use adapipe_units::{Bytes, MicroSecs};

/// Largest free-unit count [`optimize_exhaustive`] will enumerate
/// (2^22 ≈ 4M subsets — a few hundred milliseconds, the ceiling of
/// "cheap enough for a verifier").
pub const MAX_ORACLE_FREE_UNITS: usize = 22;

/// Finds the *provably* optimal saved-unit set by enumerating all
/// subsets of free units under `budget_per_mb` — the oracle twin of
/// [`crate::optimize`]. Same inputs, same [`OptimizedStage`] output,
/// exponential cost.
///
/// Zero-footprint free units are always saved (saving them is free), and
/// pinned units are charged against the budget first, exactly as in the
/// knapsack — so any disagreement with [`crate::optimize`] is
/// attributable to the DP's search, not to different cost accounting.
///
/// # Errors
///
/// * [`StrategyError::OutOfMemory`] when the pinned units alone exceed
///   the budget.
/// * [`StrategyError::TooLargeForOracle`] when the stage has more than
///   [`MAX_ORACLE_FREE_UNITS`] sized free units.
pub fn optimize_exhaustive(
    units: &[UnitProfile],
    budget_per_mb: Bytes,
) -> Result<OptimizedStage, StrategyError> {
    let pinned_bytes: Bytes = units
        .iter()
        .filter(|u| u.is_pinned())
        .map(|u| u.mem_saved)
        .sum();
    let free_budget =
        budget_per_mb
            .checked_sub(pinned_bytes)
            .ok_or(StrategyError::OutOfMemory {
                required: pinned_bytes,
                budget: budget_per_mb,
            })?;

    let free: Vec<(usize, &UnitProfile)> = units
        .iter()
        .enumerate()
        .filter(|(_, u)| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
        .collect();
    if free.len() > MAX_ORACLE_FREE_UNITS {
        return Err(StrategyError::TooLargeForOracle {
            free_units: free.len(),
            limit: MAX_ORACLE_FREE_UNITS,
        });
    }

    // Pinned and zero-footprint units are saved in every candidate.
    let base: Vec<bool> = units
        .iter()
        .map(|u| u.is_pinned() || u.mem_saved == Bytes::ZERO)
        .collect();

    let mut best_mask = 0u32;
    let mut best_value = MicroSecs::ZERO;
    let mut found = false;
    for mask in 0u32..(1u32 << free.len()) {
        let mut bytes = Bytes::ZERO;
        let mut value = MicroSecs::ZERO;
        for (bit, (_, u)) in free.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                bytes = bytes.saturating_add(u.mem_saved);
                value += u.time_f;
            }
        }
        if bytes.fits(free_budget) && (!found || value > best_value) {
            found = true;
            best_mask = mask;
            best_value = value;
        }
    }
    // mask 0 (save nothing extra) is always feasible, so `found` holds.
    debug_assert!(found);

    let mut saved = base;
    for (bit, (idx, _)) in free.iter().enumerate() {
        if best_mask >> bit & 1 == 1 {
            saved[*idx] = true;
        }
    }
    let strategy = RecomputeStrategy::from_flags(units, saved);
    let cost = cost_of(units, &strategy);
    Ok(OptimizedStage {
        slack_bytes: budget_per_mb.saturating_sub(cost.saved_bytes_per_mb),
        strategy,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, KnapsackConfig};
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, LayerRange, ParallelConfig, TrainConfig};
    use adapipe_obs::Recorder;
    use adapipe_profiler::Profiler;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn units(layers: LayerRange) -> Result<Vec<UnitProfile>, Box<dyn std::error::Error>> {
        let model = presets::gpt2_small();
        let parallel = ParallelConfig::new(2, 4, 1)?;
        let train = TrainConfig::new(1, 1024, 16)?;
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        Ok(table.units_in(layers))
    }

    #[test]
    fn oracle_matches_knapsack_on_profiled_stages() -> TestResult {
        let us = units(LayerRange::new(1, 4))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        for frac in [15u64, 40, 60, 85, 100] {
            let budget = all * frac / 100;
            let (Ok(dp), Ok(oracle)) = (
                optimize(
                    &us,
                    budget,
                    KnapsackConfig::default(),
                    &Recorder::disabled(),
                ),
                optimize_exhaustive(&us, budget),
            ) else {
                continue;
            };
            // The knapsack is exact when the GCD rescaling is lossless
            // (always true here): values must agree to float noise.
            assert!(
                (dp.cost.time_b - oracle.cost.time_b).abs() < MicroSecs::new(1e-6),
                "frac {frac}: dp {} vs oracle {}",
                dp.cost.time_b,
                oracle.cost.time_b
            );
            assert!(oracle.cost.saved_bytes_per_mb.fits(budget));
        }
        Ok(())
    }

    #[test]
    fn oracle_rejects_oversized_instances() -> TestResult {
        let us = units(LayerRange::new(0, 11))?;
        let free = us
            .iter()
            .filter(|u| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
            .count();
        assert!(free > MAX_ORACLE_FREE_UNITS, "fixture too small: {free}");
        assert!(matches!(
            optimize_exhaustive(&us, Bytes::new(u64::MAX)),
            Err(StrategyError::TooLargeForOracle { .. })
        ));
        Ok(())
    }

    #[test]
    fn oracle_oom_matches_knapsack_oom() -> TestResult {
        let us = units(LayerRange::new(1, 2))?;
        assert!(matches!(
            optimize_exhaustive(&us, Bytes::ZERO),
            Err(StrategyError::OutOfMemory { .. })
        ));
        Ok(())
    }
}
