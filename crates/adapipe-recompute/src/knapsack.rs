//! The §4.3 knapsack: choose saved units to maximize avoided
//! recomputation under a memory budget.

use crate::error::StrategyError;
use crate::strategy::{cost_of, RecomputeStrategy, StageCost};
use adapipe_obs::{keys, Recorder};
use adapipe_profiler::UnitProfile;
use adapipe_units::{convert, Bytes, Cost};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Tuning knobs for the knapsack DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnapsackConfig {
    /// Upper bound on DP cells along the memory axis. When the
    /// GCD-rescaled budget still exceeds this, weights are re-bucketed
    /// conservatively (rounded up), trading a sliver of optimality for
    /// bounded time and space.
    pub max_capacity_cells: usize,
    /// Disables the §5.3 GCD rescaling (ablation benchmarks only; the
    /// capacity-cell cap still bounds the DP, so results stay feasible
    /// but the DP axis is much longer).
    pub disable_gcd: bool,
}

impl Default for KnapsackConfig {
    fn default() -> Self {
        KnapsackConfig {
            max_capacity_cells: 1 << 20,
            disable_gcd: false,
        }
    }
}

/// Result of optimizing one stage: the chosen strategy, its exact cost
/// and the portion of the budget left unused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizedStage {
    /// The saved/recomputed decision per unit.
    pub strategy: RecomputeStrategy,
    /// Exact cost of the chosen strategy.
    pub cost: StageCost,
    /// Budget not consumed by saved intermediates.
    pub slack_bytes: Bytes,
}

/// Finds the saved-unit set maximizing `Σ Time_f(saved)` subject to
/// `Σ Mem(saved) ≤ budget_per_mb` — Equations (1)–(2) of the paper.
///
/// `budget_per_mb` is the *per-micro-batch* activation budget: the caller
/// (the memory model) has already divided the stage's free memory by its
/// live micro-batch count `p − s`, which is equivalent to the paper's
/// formulation with the `(p − s)` factor on the weights.
///
/// Pinned units are charged against the budget first; the DP runs only
/// over the free units, on a memory axis rescaled by the GCD of their
/// sizes (§5.3).
///
/// This is [`Chain::optimize`] on a fresh chain; a caller that solves
/// windows which extend one another keeps a [`Chain`] instead.
///
/// DP effort goes to `rec` (free with [`Recorder::disabled`]): per-call
/// wall time (`recompute.knapsack.us`), cells evaluated
/// (`recompute.knapsack.cells`: `Σ_i (reach_i − w_i + 1)⁺` over the free
/// units the call pushes on the scaled axis, where `reach_i` is the
/// capacity clamped to the item's weight prefix sum; a chained solve
/// counts only the items it adds), re-bucketing rounds beyond the GCD
/// scale (`recompute.knapsack.rebuckets`) and the final scale factor
/// (`recompute.knapsack.gcd_scale` gauge).
///
/// # Errors
///
/// Returns [`StrategyError::OutOfMemory`] when the pinned units alone
/// exceed the budget.
pub fn optimize(
    units: &[UnitProfile],
    budget_per_mb: Bytes,
    config: KnapsackConfig,
    rec: &Recorder,
) -> Result<OptimizedStage, StrategyError> {
    Chain::default().optimize(units, budget_per_mb, config, rec)
}

/// Cells per DP block: one `u64` word of the take matrix.
const LANES: usize = 64;

/// A knapsack DP kept between solves, so that a window whose free units
/// extend the previous window's can push only its new units instead of
/// starting from an empty row.
///
/// Windows of one §5.3 class (stage, first-layer kind, ends-last) met in
/// ascending length are such a chain: each appends copies of the same
/// repeating units, and its scaled capacity is no larger, because the
/// static and pinned bytes it must hold only grow with length.
///
/// Every solve checks at run time that the retained items are an exact
/// prefix of the new ones (integer weights equal, values bit-equal) and
/// that the new capacity is at most the last one solved at; otherwise
/// the chain resets and solves from scratch. A GCD change or a
/// re-bucketing of the memory axis changes the weights, so it resets too.
/// The answer is therefore always the one [`optimize`] gives.
///
/// # Exactness
///
/// Let `C` be the new capacity, `S_i` the weight prefix sums and `V_i`
/// the textbook rows `V_i(m) = max(V_{i−1}(m), V_{i−1}(m − w_i) + v_i)`
/// (taking item `i` only on a strict gain) that the one-shot DP at `C`
/// computes on `[0, min(C, S_i)]`. A retained item `i` was pushed at a
/// capacity `C_i ≥ C` (capacities never grow along a chain), so its
/// reach `min(C_i, S_i)` is at least `min(C, S_i)`. Cell `m` of `V_i`
/// depends only on cells `≤ m` of `V_{i−1}`, so by induction on `i`
/// every row value and take bit at or below `min(C, S_i)` is computed
/// from the same operands as in the one-shot DP and is bitwise equal to
/// it; the kernel's plateau argument (on `push`) covers cells above
/// `S_i`. The traceback starts at `C` and reads item `i`'s bit at
/// `min(m, reach_i) = min(m, S_i)` for a remaining capacity `m ≤ C`,
/// the very cell the one-shot traceback reads, so both take the same
/// items. Cells a retained item wrote above `C` are never read again:
/// a new item updates at most `[w, min(C, S)]`, reads below that, and
/// fills a plateau only from a cell below `C`.
#[derive(Debug, Default)]
pub struct Chain {
    /// The DP row `V` over the scaled memory axis, sized for the
    /// capacity the chain was last reset at.
    value: Vec<[f64; LANES]>,
    /// Take bits, item after item: item `i` owns `reach[i] / 64 + 1`
    /// words covering cells `0..=reach[i]`.
    take: Vec<u64>,
    /// Each item's reach: its weight prefix sum clamped to the capacity
    /// in effect when it was pushed.
    reach: Vec<usize>,
    /// The items' scaled integer weights.
    weights: Vec<usize>,
    /// The items' values in µs.
    values: Vec<f64>,
    /// Sum of `weights`, saturating.
    prefix: usize,
    /// The capacity of the last solve; a later solve may only be lower.
    capacity: usize,
}

impl Chain {
    /// [`optimize`], extending this chain's DP when the window's free
    /// units extend the ones it last solved (see the type's
    /// documentation). The result is the same as [`optimize`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::OutOfMemory`] when the pinned units alone
    /// exceed the budget.
    pub fn optimize(
        &mut self,
        units: &[UnitProfile],
        budget_per_mb: Bytes,
        config: KnapsackConfig,
        rec: &Recorder,
    ) -> Result<OptimizedStage, StrategyError> {
        let started = rec.is_enabled().then(Instant::now);
        rec.incr(keys::KNAPSACK_CALLS);
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

        let mut saved: Vec<bool> = units.iter().map(UnitProfile::is_pinned).collect();
        // Zero-size free units are free to save; never recompute them.
        for (i, u) in units.iter().enumerate() {
            if !u.is_pinned() && u.mem_saved == Bytes::ZERO {
                saved[i] = true;
            }
        }

        if !free.is_empty() {
            let chosen = self.solve(&free, free_budget, config, rec);
            for idx in chosen {
                saved[idx] = true;
            }
        }

        let strategy = RecomputeStrategy::from_flags(units, saved);
        let cost = cost_of(units, &strategy);
        if let Some(t0) = started {
            rec.observe(keys::KNAPSACK_US, t0.elapsed().as_secs_f64() * 1e6);
        }
        // Rescaling audit: the DP must never over-commit the real budget
        // (weights round *up*, capacity rounds *down* — see `memory_axis`).
        debug_assert!(
            cost.saved_bytes_per_mb.fits(budget_per_mb),
            "knapsack over-committed the unscaled budget"
        );
        Ok(OptimizedStage {
            slack_bytes: budget_per_mb.saturating_sub(cost.saved_bytes_per_mb),
            strategy,
            cost,
        })
    }

    /// 0/1 knapsack over the free units; returns the original indices of
    /// the units to save.
    fn solve(
        &mut self,
        free: &[(usize, &UnitProfile)],
        budget: Bytes,
        config: KnapsackConfig,
        rec: &Recorder,
    ) -> Vec<usize> {
        // Everything fits: skip the DP entirely.
        let total: Bytes = free.iter().map(|(_, u)| u.mem_saved).sum();
        if total.fits(budget) {
            return free.iter().map(|(i, _)| *i).collect();
        }
        let (weights, capacity) = memory_axis(free, budget, config, rec);
        let values: Vec<f64> = free
            .iter()
            .map(|(_, u)| Cost::of(u.time_f).time().as_micros())
            .collect();
        let (items, cells) = self.dp(&weights, &values, capacity);
        rec.add(keys::KNAPSACK_CELLS, cells);
        items.into_iter().map(|item| free[item].0).collect()
    }

    /// The 0/1 knapsack DP over `weights` (≥ 1 each) and `values` (≥ 0,
    /// in µs) at `capacity`, extending the retained items when they are
    /// an exact prefix and `capacity` has not grown, else from scratch.
    /// Returns the taken item indices, last item first, and the number
    /// of cells evaluated for the items pushed.
    fn dp(&mut self, weights: &[usize], values: &[f64], capacity: usize) -> (Vec<usize>, u64) {
        if !self.extends_to(weights, values, capacity) {
            self.reset(capacity);
        }
        self.capacity = capacity;
        let mut cells = 0u64;
        for (&w, &v) in weights.iter().zip(values).skip(self.weights.len()) {
            cells += self.push(w, v);
        }
        (self.trace_back(), cells)
    }

    /// Whether the retained items are a prefix of `weights`/`values`
    /// (values compared bit for bit) and `capacity` is within the row.
    fn extends_to(&self, weights: &[usize], values: &[f64], capacity: usize) -> bool {
        let k = self.weights.len();
        !self.value.is_empty()
            && capacity <= self.capacity
            && weights.get(..k) == Some(self.weights.as_slice())
            && values.get(..k).is_some_and(|head| {
                head.iter()
                    .zip(&self.values)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
    }

    /// Drops every item and zeroes a row of `capacity + 1` cells.
    fn reset(&mut self, capacity: usize) {
        self.value.clear();
        self.value.resize(capacity / LANES + 1, [0.0; LANES]);
        self.take.clear();
        self.reach.clear();
        self.weights.clear();
        self.values.clear();
        self.prefix = 0;
    }

    /// Pushes one item at the current capacity and returns the cells it
    /// evaluated, `(reach − w + 1)⁺`.
    ///
    /// **Reach clamp.** Let `S_i = Σ_{j≤i} w_j` and
    /// `reach_i = min(capacity, S_i)`. For every `m ≥ S_i`, `V_i(m)` and
    /// item `i`'s take bit at `m` are bitwise equal to those at `S_i`.
    /// Induction on `i`: `V_0 ≡ +0.0`. For `m ≥ S_i` both operands of the
    /// recurrence sit at or above the previous prefix sum — `m ≥ S_{i−1}`
    /// and `m − w_i ≥ S_i − w_i = S_{i−1}` — so by hypothesis they equal
    /// the operands at `m = S_i`, and so do the maximum and the bit. Item
    /// `i` therefore updates only `[w_i, reach_i]`. Its reads stay at or
    /// below `reach_i − w_i`, and before its pass the plateau
    /// `(reach_{i−1}, reach_i]` (empty unless `reach_{i−1} = S_{i−1}`)
    /// is filled with `V_{i−1}(reach_{i−1})`, which by the claim is
    /// `V_{i−1}` there. Cells above `reach_i` are never written for item
    /// `i`, so the traceback reads its bit at `min(m, reach_i)`.
    ///
    /// **Blocks.** The pass walks 64-cell blocks aligned to take words
    /// from the top down. A block first copies its source window
    /// `value[lo − w..=hi − w]` into a stack array (lanes outside
    /// `[lo, hi]` read `−∞`, which never wins), so the update is in place
    /// and aliasing-safe even when `w < 64`: every source cell lies in
    /// this block or a lower one, none yet written in this pass. The
    /// fixed-length lane loop compiles to compare, select and bit-pack.
    ///
    /// **Plain `f64`.** The row starts at `+0.0` and, with `values ≥ 0`,
    /// only rises and is never NaN or `−0.0` (`+∞ + x` stays `+∞`). On
    /// such values `>` orders every pair exactly as [`Cost`]'s
    /// `total_cmp` does, and `−∞ + v` is `−∞` or NaN, neither of which
    /// compares greater.
    fn push(&mut self, w: usize, v: f64) -> u64 {
        debug_assert!(w >= 1 && v >= 0.0, "weight {w}, value {v}");
        let prev = self.reach.last().copied().unwrap_or(0);
        self.prefix = self.prefix.saturating_add(w);
        let top = self.prefix.min(self.capacity);
        self.reach.push(top);
        self.weights.push(w);
        self.values.push(v);
        let start = self.take.len();
        self.take.resize(start + top / LANES + 1, 0);
        if top > prev {
            let flat = self.value.as_flattened_mut();
            let plateau = flat[prev];
            flat[prev + 1..=top].fill(plateau);
        }
        if w > top {
            return 0;
        }
        let row = &mut self.take[start..];
        for k in (w / LANES..=top / LANES).rev() {
            let base = k * LANES;
            let (lo, hi) = (base.max(w), (base + LANES - 1).min(top));
            let mut src = [f64::NEG_INFINITY; LANES];
            src[lo - base..=hi - base].copy_from_slice(&self.value.as_flattened()[lo - w..=hi - w]);
            let mut bits = 0u64;
            for (lane, (cur, s)) in self.value[k].iter_mut().zip(src).enumerate() {
                let cand = s + v;
                let gain = cand > *cur;
                *cur = if gain { cand } else { *cur };
                bits |= u64::from(gain) << lane;
            }
            row[k] = bits;
        }
        convert::usize_u64(top - w + 1)
    }

    /// Traces the chosen items back from the current capacity, last
    /// item first.
    fn trace_back(&self) -> Vec<usize> {
        let mut chosen = Vec::new();
        let (mut m, mut end) = (self.capacity, self.take.len());
        for (item, (&w, &reach)) in self.weights.iter().zip(&self.reach).enumerate().rev() {
            let start = end - (reach / LANES + 1);
            let at = m.min(reach);
            if self.take[start + at / LANES] >> (at % LANES) & 1 == 1 {
                chosen.push(item);
                m -= w;
            }
            end = start;
        }
        chosen
    }
}

/// The DP's integer memory axis: each free unit's scaled weight and the
/// scaled capacity.
///
/// # Rescaling audit (§5.3)
///
/// The DP runs on an integer memory axis rescaled by `scale` (the GCD of
/// the unit footprints, doubled until the axis fits the cell cap). For
/// the rescaled solution to be feasible in *unscaled* [`Bytes`], the
/// rounding directions must never under-report memory:
///
/// * unit footprints round **up** (`div_ceil`) — a saved set that fits
///   the scaled axis can only *over*-estimate its real bytes;
/// * the stage budget rounds **down** (integer division) — the scaled
///   capacity can only *under*-estimate the real budget.
///
/// Both biases point the same (conservative) way, so
/// `Σ scaled-feasible footprints ≤ scale · capacity ≤ budget` holds
/// exactly; `optimize` debug-asserts it and the
/// `rescaled_solution_feasible_in_unscaled_bytes` proptest exercises it
/// with adversarial sizes and forced re-bucketing. With `scale` equal to
/// the GCD both roundings are exact and the DP is optimal.
fn memory_axis(
    free: &[(usize, &UnitProfile)],
    budget: Bytes,
    config: KnapsackConfig,
    rec: &Recorder,
) -> (Vec<usize>, usize) {
    let g = if config.disable_gcd {
        1
    } else {
        free.iter()
            .fold(0u64, |acc, (_, u)| gcd(acc, u.mem_saved.get()))
    };
    debug_assert!(g > 0);
    let mut scale = g;
    // Re-bucket further if the capacity axis would still be too long.
    // Budget rounds DOWN: never pretend to more memory than exists.
    let mut capacity = convert::u64_usize_saturating(budget.get() / scale);
    while capacity > config.max_capacity_cells {
        scale *= 2;
        capacity = convert::u64_usize_saturating(budget.get() / scale);
        rec.incr(keys::KNAPSACK_REBUCKETS);
    }
    rec.gauge_max(keys::KNAPSACK_GCD_SCALE, convert::u64_f64(scale));
    // Weights round UP: never pretend a unit is smaller than it is.
    let weights = free
        .iter()
        .map(|(_, u)| convert::u64_usize_saturating(u.mem_saved.get().div_ceil(scale)))
        .collect();
    (weights, capacity)
}

/// Greatest common divisor (used by the §5.3 rescaling).
#[must_use]
pub fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, LayerRange, ParallelConfig, TrainConfig};
    use adapipe_profiler::Profiler;
    use adapipe_units::MicroSecs;
    use proptest::prelude::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn units(layers: LayerRange) -> Result<Vec<UnitProfile>, Box<dyn std::error::Error>> {
        let model = presets::gpt2_small();
        let parallel = ParallelConfig::new(2, 4, 1)?;
        let train = TrainConfig::new(1, 1024, 16)?;
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        Ok(table.units_in(layers))
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(1, 1_000_000), 1);
    }

    #[test]
    fn unbounded_budget_saves_everything() -> TestResult {
        let us = units(LayerRange::new(1, 6))?;
        let opt = optimize(
            &us,
            Bytes::new(u64::MAX),
            KnapsackConfig::default(),
            &Recorder::disabled(),
        )?;
        assert_eq!(opt.strategy.saved_count(), us.len());
        Ok(())
    }

    #[test]
    fn pinned_overflow_is_oom() -> TestResult {
        let us = units(LayerRange::new(1, 6))?;
        assert!(matches!(
            optimize(
                &us,
                Bytes::ZERO,
                KnapsackConfig::default(),
                &Recorder::disabled()
            ),
            Err(StrategyError::OutOfMemory { .. })
        ));
        Ok(())
    }

    #[test]
    fn tight_budget_degenerates_to_full_recompute() -> TestResult {
        let us = units(LayerRange::new(1, 6))?;
        let pinned: Bytes = us
            .iter()
            .filter(|u| u.is_pinned())
            .map(|u| u.mem_saved)
            .sum();
        let opt = optimize(
            &us,
            pinned,
            KnapsackConfig::default(),
            &Recorder::disabled(),
        )?;
        assert_eq!(
            opt.strategy.saved_count(),
            us.iter().filter(|u| u.is_pinned()).count()
        );
        assert_eq!(opt.slack_bytes, Bytes::ZERO);
        Ok(())
    }

    #[test]
    fn budget_monotonicity() -> TestResult {
        // More budget never yields worse (larger) backward time.
        let us = units(LayerRange::new(1, 8))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let mut last_b = MicroSecs::new(f64::INFINITY);
        for frac in [25u64, 50, 75, 100] {
            let opt = optimize(
                &us,
                all * frac / 100,
                KnapsackConfig::default(),
                &Recorder::disabled(),
            )?;
            assert!(
                opt.cost.time_b <= last_b + MicroSecs::new(1e-6),
                "frac {frac}"
            );
            last_b = opt.cost.time_b;
        }
        Ok(())
    }

    #[test]
    fn respects_budget_exactly() -> TestResult {
        let us = units(LayerRange::new(1, 8))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let budget = all * 60 / 100;
        let opt = optimize(
            &us,
            budget,
            KnapsackConfig::default(),
            &Recorder::disabled(),
        )?;
        assert!(opt.cost.saved_bytes_per_mb <= budget);
        assert_eq!(
            opt.slack_bytes,
            budget.saturating_sub(opt.cost.saved_bytes_per_mb)
        );
        Ok(())
    }

    /// Brute force over all subsets of free units (for small n).
    fn brute_force(us: &[UnitProfile], budget: Bytes) -> f64 {
        let pinned_bytes: Bytes = us
            .iter()
            .filter(|u| u.is_pinned())
            .map(|u| u.mem_saved)
            .sum();
        if !pinned_bytes.fits(budget) {
            return f64::NAN;
        }
        let free: Vec<&UnitProfile> = us.iter().filter(|u| !u.is_pinned()).collect();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << free.len()) {
            let bytes: Bytes = free
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, u)| u.mem_saved)
                .sum();
            let val: f64 = free
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, u)| u.time_f.as_micros())
                .sum();
            if pinned_bytes.saturating_add(bytes).fits(budget) && val > best {
                best = val;
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_one_block() -> TestResult {
        let us = units(LayerRange::new(1, 2))?; // 10 units, 8 free
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        for frac in [10u64, 30, 55, 80, 95] {
            let budget = all * frac / 100;
            let Ok(opt) = optimize(
                &us,
                budget,
                KnapsackConfig::default(),
                &Recorder::disabled(),
            ) else {
                continue;
            };
            let saved_f: f64 = us
                .iter()
                .enumerate()
                .filter(|(i, u)| opt.strategy.is_saved(*i) && !u.is_pinned())
                .map(|(_, u)| u.time_f.as_micros())
                .sum();
            let best = brute_force(&us, budget);
            assert!(
                (saved_f - best).abs() <= 1e-12 + best * 1e-9,
                "frac {frac}: dp {saved_f} vs brute {best}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dp_matches_brute_force_random_units(
            sizes in proptest::collection::vec(1u64..64, 1..10),
            values in proptest::collection::vec(1u32..1000, 10),
            budget_scale in 0u64..100,
        ) {
            use adapipe_model::{ComputationUnit, UnitKind};
            let us: Vec<UnitProfile> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| UnitProfile {
                    unit: ComputationUnit { kind: UnitKind::FfnAct, layer: i },
                    time_f: MicroSecs::new(f64::from(values[i % values.len()])),
                    time_b: MicroSecs::new(1.0),
                    mem_saved: Bytes::new(s * 7), // common factor exercises the GCD path
                })
                .collect();
            let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
            let budget = all * budget_scale / 100;
            let opt = match optimize(&us, budget, KnapsackConfig::default(), &Recorder::disabled()) {
                Ok(opt) => opt,
                Err(e) => return Err(TestCaseError::Fail(format!("optimize failed: {e}"))),
            };
            let saved_f: f64 = us
                .iter()
                .enumerate()
                .filter(|(i, _)| opt.strategy.is_saved(*i))
                .map(|(_, u)| u.time_f.as_micros())
                .sum();
            let best = brute_force(&us, budget);
            prop_assert!((saved_f - best).abs() <= 1e-9 * (1.0 + best));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Satellite audit: with adversarial (non-power-of-two) sizes and
        /// a tiny cell cap forcing several re-bucketing rounds, the
        /// rescaled DP's chosen set must still fit the *unscaled* budget
        /// in real Bytes — weights round up, capacity rounds down.
        #[test]
        fn rescaled_solution_feasible_in_unscaled_bytes(
            sizes in proptest::collection::vec(1u64..10_000, 2..24),
            budget_scale in 1u64..100,
            cells in 4usize..64,
        ) {
            use adapipe_model::{ComputationUnit, UnitKind};
            let us: Vec<UnitProfile> = sizes
                .iter()
                .enumerate()
                .map(|(i, &sz)| UnitProfile {
                    unit: ComputationUnit { kind: UnitKind::FfnAct, layer: i },
                    time_f: MicroSecs::new((i + 1) as f64),
                    time_b: MicroSecs::new(1.0),
                    // Odd multiplier keeps the GCD small so the cell cap
                    // genuinely forces re-bucketing.
                    mem_saved: Bytes::new(sz * 3 + 1),
                })
                .collect();
            let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
            let budget = all * budget_scale / 100;
            let opt = match optimize(&us, budget, KnapsackConfig { max_capacity_cells: cells, disable_gcd: false }, &Recorder::disabled()) {
                Ok(opt) => opt,
                Err(e) => return Err(TestCaseError::Fail(format!("optimize failed: {e}"))),
            };
            // Feasibility in unscaled Bytes, recomputed independently of
            // the DP's own accounting.
            let chosen: Bytes = us
                .iter()
                .enumerate()
                .filter(|(i, _)| opt.strategy.is_saved(*i))
                .map(|(_, u)| u.mem_saved)
                .sum();
            prop_assert!(chosen.fits(budget), "chosen {chosen} vs budget {budget}");
            prop_assert_eq!(chosen, opt.cost.saved_bytes_per_mb);
        }
    }

    #[test]
    fn gcd_rescaling_is_exact() -> TestResult {
        // Disabling the GCD rescaling (ablation) must not change the
        // chosen value when the cell cap is not binding.
        let us = units(LayerRange::new(1, 4))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let budget = all * 60 / 100;
        let fast = optimize(
            &us,
            budget,
            KnapsackConfig::default(),
            &Recorder::disabled(),
        )?;
        let slow = optimize(
            &us,
            budget,
            KnapsackConfig {
                max_capacity_cells: 1 << 26,
                disable_gcd: true,
            },
            &Recorder::disabled(),
        )?;
        assert!((fast.cost.time_b - slow.cost.time_b).abs() < MicroSecs::new(1e-3));
        Ok(())
    }

    #[test]
    fn traced_optimize_records_dp_effort() -> TestResult {
        let rec = Recorder::new();
        let us = units(LayerRange::new(1, 8))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let opt = optimize(&us, all * 60 / 100, KnapsackConfig::default(), &rec)?;
        let baseline = optimize(
            &us,
            all * 60 / 100,
            KnapsackConfig::default(),
            &Recorder::disabled(),
        )?;
        assert_eq!(opt, baseline, "tracing must not change the result");
        let snap = rec.snapshot();
        assert_eq!(snap.counters["recompute.knapsack.calls"], 1);
        assert!(snap.counters["recompute.knapsack.cells"] > 0);
        assert!(snap.gauges["recompute.knapsack.gcd_scale"] >= 1.0);
        assert_eq!(snap.histograms["recompute.knapsack.us"].count, 1);
        Ok(())
    }

    #[test]
    fn rebucketing_stays_feasible() -> TestResult {
        // Force re-bucketing with a tiny cell cap; result must respect the
        // budget even if slightly suboptimal.
        let us = units(LayerRange::new(1, 20))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let budget = all * 70 / 100;
        let opt = optimize(
            &us,
            budget,
            KnapsackConfig {
                max_capacity_cells: 16,
                ..Default::default()
            },
            &Recorder::disabled(),
        )?;
        assert!(opt.cost.saved_bytes_per_mb <= budget);
        // And still save strictly more than the pinned floor.
        assert!(opt.strategy.saved_count() > us.iter().filter(|u| u.is_pinned()).count());
        Ok(())
    }

    /// The dense DP loop, the oracle for [`Chain`]: one pass per item over
    /// all of `[w, capacity]`, a `Cost` row and one bit row per item.
    fn reference_dp(weights: &[usize], times: &[MicroSecs], capacity: usize) -> Vec<usize> {
        let mut value = vec![Cost::ZERO; capacity + 1];
        let words = capacity / 64 + 1;
        let mut take: Vec<Vec<u64>> = Vec::with_capacity(weights.len());
        for (item, &t) in times.iter().enumerate() {
            let w = weights[item];
            let mut bits = vec![0u64; words];
            if w <= capacity {
                for m in (w..=capacity).rev() {
                    let cand = value[m - w] + Cost::of(t);
                    if cand > value[m] {
                        value[m] = cand;
                        bits[m / 64] |= 1 << (m % 64);
                    }
                }
            }
            take.push(bits);
        }
        let mut chosen = Vec::new();
        let mut m = capacity;
        for item in (0..weights.len()).rev() {
            if take[item][m / 64] >> (m % 64) & 1 == 1 {
                chosen.push(item);
                m -= weights[item];
            }
        }
        chosen
    }

    /// Solves one weight/time list on `chain` and with [`reference_dp`].
    fn both_dps(
        chain: &mut Chain,
        weights: &[usize],
        times: &[MicroSecs],
        capacity: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let values: Vec<f64> = times
            .iter()
            .map(|&t| Cost::of(t).time().as_micros())
            .collect();
        (
            chain.dp(weights, &values, capacity).0,
            reference_dp(weights, times, capacity),
        )
    }

    /// Runs both DPs on the memory axis `optimize` would build for
    /// `units` at `budget`.
    fn both_dps_on_units(
        chain: &mut Chain,
        units: &[UnitProfile],
        budget: Bytes,
        config: KnapsackConfig,
    ) -> (Vec<usize>, Vec<usize>) {
        let free: Vec<(usize, &UnitProfile)> = units
            .iter()
            .enumerate()
            .filter(|(_, u)| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
            .collect();
        let (weights, capacity) = memory_axis(&free, budget, config, &Recorder::disabled());
        let times: Vec<MicroSecs> = free.iter().map(|(_, u)| u.time_f).collect();
        both_dps(chain, &weights, &times, capacity)
    }

    /// An item time from a drawn `(kind, integer, fraction)`: mostly
    /// small integers (ties), sometimes an arbitrary fraction, sometimes
    /// NaN (which `Cost::of` maps to +∞).
    fn item_time((kind, int, frac): (u32, u32, f64)) -> MicroSecs {
        MicroSecs::new(match kind {
            0..=5 => f64::from(int),
            6..=8 => frac,
            _ => f64::NAN,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The blocked, reach-clamped kernel picks exactly the items the
        /// dense loop picks: weights below, at and above one 64-cell
        /// block, runs of identical items (ties decide which copy the
        /// traceback takes), items heavier than the capacity, NaN times
        /// and capacities off the block grid.
        #[test]
        fn kernel_matches_the_reference_loop(
            runs in proptest::collection::vec(
                (1usize..=300, (0u32..10, 0u32..20, 0.0f64..1e4), 1usize..=6),
                1..12,
            ),
            capacity in 0usize..=2000,
        ) {
            let (mut weights, mut times) = (Vec::new(), Vec::new());
            for (w, t, copies) in runs {
                weights.extend(std::iter::repeat_n(w, copies));
                times.extend(std::iter::repeat_n(item_time(t), copies));
            }
            let (fast, slow) = both_dps(&mut Chain::default(), &weights, &times, capacity);
            prop_assert_eq!(fast, slow);
        }

        /// The same equivalence on unit footprints in bytes, with a small
        /// cell cap forcing re-bucketing of the memory axis.
        #[test]
        fn kernel_matches_the_reference_loop_after_rebucketing(
            items in proptest::collection::vec(
                (1u64..50_000, (0u32..10, 0u32..20, 0.0f64..1e4)),
                2..40,
            ),
            budget_pct in 1u64..100,
            max_capacity_cells in 4usize..2000,
        ) {
            use adapipe_model::{ComputationUnit, UnitKind};
            let us: Vec<UnitProfile> = items
                .iter()
                .enumerate()
                .map(|(i, &(bytes, t))| UnitProfile {
                    unit: ComputationUnit { kind: UnitKind::FfnAct, layer: i },
                    time_f: item_time(t),
                    time_b: MicroSecs::new(1.0),
                    mem_saved: Bytes::new(bytes),
                })
                .collect();
            let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
            let config = KnapsackConfig { max_capacity_cells, disable_gcd: false };
            let (fast, slow) =
                both_dps_on_units(&mut Chain::default(), &us, all * budget_pct / 100, config);
            prop_assert_eq!(fast, slow);
        }

        /// One chain driven through a random sequence of windows answers
        /// each exactly as the dense loop does on that window alone:
        /// prefix extensions and truncations at a capacity no higher,
        /// capacity increases, lists that are not a prefix (first item
        /// dropped), a value changed in its last bit and re-bucketed
        /// axes (weights and capacity halved), over runs of identical
        /// items, NaN times and items heavier than the capacity.
        #[test]
        fn chain_matches_the_reference_loop_on_window_sequences(
            runs in proptest::collection::vec(
                (1usize..=300, (0u32..10, 0u32..20, 0.0f64..1e4), 1usize..=6),
                1..10,
            ),
            capacity in 0usize..=2000,
            steps in proptest::collection::vec((0u32..10, 0usize..=60, 0usize..=400), 1..12),
        ) {
            let (mut weights, mut times) = (Vec::new(), Vec::new());
            for (w, t, copies) in runs {
                weights.extend(std::iter::repeat_n(w, copies));
                times.extend(std::iter::repeat_n(item_time(t), copies));
            }
            let mut chain = Chain::default();
            let mut cap = capacity;
            for (kind, len, delta) in steps {
                let len = len.min(weights.len());
                let (mut ws, mut ts) = (weights[..len].to_vec(), times[..len].to_vec());
                let mut at = cap;
                match kind {
                    0..=5 => {
                        cap = cap.saturating_sub(delta);
                        at = cap;
                    }
                    6 => {
                        cap += delta;
                        at = cap;
                    }
                    7 if !ws.is_empty() => {
                        ws.remove(0);
                        ts.remove(0);
                    }
                    8 => {
                        if let Some(t) = ts.last_mut() {
                            *t = MicroSecs::new(f64::from_bits(t.as_micros().to_bits() ^ 1));
                        }
                    }
                    _ => {
                        ws.iter_mut().for_each(|w| *w = w.div_ceil(2));
                        at /= 2;
                    }
                }
                let (fast, slow) = both_dps(&mut chain, &ws, &ts, at);
                prop_assert_eq!(fast, slow, "kind {} len {} capacity {}", kind, len, at);
            }
        }

        /// The same on unit footprints in bytes: one chain over growing
        /// and shrinking prefixes of a unit list at falling and rising
        /// budgets, where a small cell cap re-buckets the memory axis
        /// and changes the GCD scale along the way.
        #[test]
        fn chain_matches_the_reference_loop_across_rebucketing(
            items in proptest::collection::vec(
                (1u64..50_000, (0u32..10, 0u32..20, 0.0f64..1e4)),
                2..30,
            ),
            steps in proptest::collection::vec((1usize..30, 0u64..100), 1..10),
            max_capacity_cells in 4usize..2000,
        ) {
            use adapipe_model::{ComputationUnit, UnitKind};
            let us: Vec<UnitProfile> = items
                .iter()
                .enumerate()
                .map(|(i, &(bytes, t))| UnitProfile {
                    unit: ComputationUnit { kind: UnitKind::FfnAct, layer: i },
                    time_f: item_time(t),
                    time_b: MicroSecs::new(1.0),
                    mem_saved: Bytes::new(bytes),
                })
                .collect();
            let config = KnapsackConfig { max_capacity_cells, disable_gcd: false };
            let mut chain = Chain::default();
            for (len, pct) in steps {
                let window = &us[..len.min(us.len())];
                let all: Bytes = window.iter().map(|u| u.mem_saved).sum();
                let (fast, slow) = both_dps_on_units(&mut chain, window, all * pct / 100, config);
                prop_assert_eq!(fast, slow, "len {} at {}%", len, pct);
            }
        }
    }

    /// Solves `weights` (unit values) at `capacity` on `chain` and
    /// returns the cells that solve evaluated.
    fn chain_cells(chain: &mut Chain, weights: &[usize], capacity: usize) -> u64 {
        chain.dp(weights, &vec![1.0; weights.len()], capacity).1
    }

    #[test]
    fn chain_pushes_only_new_items_and_resets_otherwise() {
        let mut chain = Chain::default();
        // [3, 5] at 6: item 0 evaluates [3, 3], item 1 [5, 6].
        assert_eq!(chain_cells(&mut chain, &[3, 5], 6), 3);
        // An extension at a lower capacity pushes only item 2: [2, 5].
        assert_eq!(chain_cells(&mut chain, &[3, 5, 2], 5), 4);
        // A higher capacity resets: [3, 3] + [5, 7] + [2, 7].
        assert_eq!(chain_cells(&mut chain, &[3, 5, 2], 7), 1 + 3 + 6);
        // So does a list the retained items are not a prefix of.
        assert_eq!(chain_cells(&mut chain, &[5, 2], 7), 1 + 6);
        // A truncation: [5] is not extended by [2]; [5, 5] is new.
        assert_eq!(chain_cells(&mut chain, &[5], 7), 1);
    }

    #[test]
    fn chain_matches_the_reference_loop_on_a_gpt3_window_chain() -> TestResult {
        use adapipe_memory::{MemoryModel, OptimizerSpec};
        use adapipe_model::LayerSeq;
        let model = presets::gpt3_175b();
        let parallel = ParallelConfig::new(8, 8, 1)?;
        let train = TrainConfig::new(1, 16384, 32)?;
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        let seq = LayerSeq::for_model(&model);
        let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
        for stage in [0, 4] {
            // Windows 1..=last, attention first, in ascending length:
            // one §5.3 class as Algorithm 1 meets it.
            let mut chain = Chain::default();
            let (mut solves, mut chained, mut fresh) = (0, 0u64, 0u64);
            for last in 1..=60 {
                let range = LayerRange::new(1, last);
                let Some(budget) =
                    mem.activation_budget(&table, &seq, range, stage, Bytes::from_gib(80))
                else {
                    break;
                };
                let units = table.units_in(range);
                let pinned: Bytes = units
                    .iter()
                    .filter(|u| u.is_pinned())
                    .map(|u| u.mem_saved)
                    .sum();
                let Some(budget) = budget.checked_sub(pinned) else {
                    break;
                };
                let free: Vec<(usize, &UnitProfile)> = units
                    .iter()
                    .enumerate()
                    .filter(|(_, u)| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
                    .collect();
                if free
                    .iter()
                    .map(|(_, u)| u.mem_saved)
                    .sum::<Bytes>()
                    .fits(budget)
                {
                    continue;
                }
                let config = KnapsackConfig::default();
                let (weights, capacity) = memory_axis(&free, budget, config, &Recorder::disabled());
                let times: Vec<MicroSecs> = free.iter().map(|(_, u)| u.time_f).collect();
                let values: Vec<f64> = times
                    .iter()
                    .map(|&t| Cost::of(t).time().as_micros())
                    .collect();
                let (got, cells) = chain.dp(&weights, &values, capacity);
                assert_eq!(
                    got,
                    reference_dp(&weights, &times, capacity),
                    "stage {stage}, layers 1..={last}"
                );
                solves += 1;
                chained += cells;
                fresh += Chain::default().dp(&weights, &values, capacity).1;
            }
            assert!(solves >= 10, "stage {stage}: only {solves} DP solves");
            assert!(
                chained * 4 < fresh,
                "stage {stage}: the chain evaluated {chained} cells, one-shot solves {fresh}"
            );
        }
        Ok(())
    }

    #[test]
    fn kernel_matches_the_reference_loop_on_gpt3_windows() -> TestResult {
        let parallel = ParallelConfig::new(8, 8, 1)?;
        let train = TrainConfig::new(1, 16384, 32)?;
        let table =
            Profiler::new(hw::cluster_a()).profile(&presets::gpt3_175b(), &parallel, &train);
        for last in [12, 24, 48] {
            let us = table.units_in(LayerRange::new(1, last));
            let free: Bytes = us
                .iter()
                .filter(|u| !u.is_pinned())
                .map(|u| u.mem_saved)
                .sum();
            for pct in [25u64, 60, 90] {
                let (fast, slow) = both_dps_on_units(
                    &mut Chain::default(),
                    &us,
                    free * pct / 100,
                    KnapsackConfig::default(),
                );
                assert!(!fast.is_empty(), "layers 1..={last} at {pct}%");
                assert_eq!(fast, slow, "layers 1..={last} at {pct}%");
            }
        }
        Ok(())
    }

    #[test]
    fn cells_counter_counts_reach_clamped_cells() -> TestResult {
        use adapipe_model::{ComputationUnit, UnitKind};
        // Weights [3, 5] at capacity 6: item 0 evaluates [3, 3] (its
        // reach is 3), item 1 evaluates [5, 6] — 1 + 2 = 3 cells.
        let us: Vec<UnitProfile> = [3u64, 5]
            .iter()
            .enumerate()
            .map(|(i, &bytes)| UnitProfile {
                unit: ComputationUnit {
                    kind: UnitKind::FfnAct,
                    layer: i,
                },
                time_f: MicroSecs::new(1.0 + convert::count_f64(i)),
                time_b: MicroSecs::new(1.0),
                mem_saved: Bytes::new(bytes),
            })
            .collect();
        let rec = Recorder::new();
        let opt = optimize(&us, Bytes::new(6), KnapsackConfig::default(), &rec)?;
        assert_eq!(rec.snapshot().counters["recompute.knapsack.cells"], 3);
        assert!(opt.strategy.is_saved(1) && !opt.strategy.is_saved(0));
        Ok(())
    }
}
