//! Stage-cost providers: map `(stage, layer window)` to optimized
//! forward/backward times by running the recomputation knapsack.
//!
//! [`KnapsackCostProvider`] is shareable concurrent state (`Sync`):
//! the §5.3 isomorphism cache sits behind a `Mutex` and the hit/miss
//! counters are atomics, so leaf evaluations can fan out over an
//! [`adapipe_exec::ExecPool`] (see [`KnapsackCostProvider::prefill`])
//! while Algorithm 1 itself stays serial — which is what keeps plans
//! byte-identical at any thread count. The knapsack chains sit behind a
//! `Mutex` taken with `try_lock`: a leaf that finds them busy solves on
//! a fresh chain, with the same result.

use crate::cost::StageTimes;
use crate::subcache::{self, SubproblemCache};
use adapipe_exec::cache::Digest;
use adapipe_exec::{CacheStats, ExecError, ExecPool};
use adapipe_memory::MemoryModel;
use adapipe_model::{LayerKind, LayerRange, LayerSeq};
use adapipe_obs::{keys, Recorder};
use adapipe_profiler::{ProfileTable, UnitProfile};
use adapipe_recompute::{
    optimize, optimize_exhaustive, Chain, KnapsackConfig, OptimizedStage, StrategyError,
};
use adapipe_units::{convert, Bytes};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Source of the `f[s,i,j]` / `b[s,i,j]` arrays consumed by Algorithm 1.
///
/// Returning `None` marks the assignment infeasible (the stage cannot fit
/// even under full recomputation), which Algorithm 1 propagates into OOM
/// verdicts for whole configurations.
pub trait StageCostProvider {
    /// Optimized forward/backward times for assigning the layers of
    /// `range` to pipeline stage `stage`, or `None` if infeasible.
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes>;
}

/// Isomorphism-class key (§5.3): within a homogeneous transformer, two
/// layer windows with equal length, equal first-layer kind and the same
/// "reaches the final layer" flag contain identical layer sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IsoKey {
    stage: usize,
    first_kind: LayerKind,
    len: usize,
    ends_last: bool,
}

/// The production provider: budgets each `(stage, window)` with the
/// memory model and optimizes it with the recomputation knapsack, caching
/// by isomorphism class — and, when a [`SubproblemCache`] is attached,
/// consulting the process-global content-addressed leaf cache so
/// isomorphic windows of *other* solves and requests are reused too.
#[derive(Debug)]
pub struct KnapsackCostProvider<'a> {
    seq: &'a LayerSeq,
    table: &'a ProfileTable,
    mem: &'a MemoryModel,
    capacity: Bytes,
    iso_cache: bool,
    knapsack: KnapsackConfig,
    rec: Recorder,
    subcache: Option<&'a SubproblemCache>,
    /// Per-layer content digests, built once on first subcache lookup:
    /// window keys then hash `O(len)` digest bytes instead of
    /// re-serializing every unit profile, which would cost more than
    /// the microsecond-scale knapsack solve the cache skips.
    layer_digests: OnceLock<Vec<Digest>>,
    cache: Mutex<HashMap<IsoKey, Option<StageTimes>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    chains: Mutex<StageChains>,
}

/// The knapsack chains of one stage, one per window class
/// `(first-layer kind, ends-last)`. Algorithm 1 meets each class's new
/// windows in ascending length within a stage, so each window extends
/// the previous one's DP (see [`Chain`]); chains of earlier stages are
/// dropped, so at most one stage's chains are alive.
#[derive(Debug, Default)]
struct StageChains {
    stage: usize,
    by_class: HashMap<(LayerKind, bool), Chain>,
}

impl<'a> KnapsackCostProvider<'a> {
    /// Creates a provider for stages drawn from `seq`, profiled in
    /// `table`, budgeted by `mem` against a per-device `capacity`.
    #[must_use]
    pub fn new(
        seq: &'a LayerSeq,
        table: &'a ProfileTable,
        mem: &'a MemoryModel,
        capacity: Bytes,
    ) -> Self {
        KnapsackCostProvider {
            seq,
            table,
            mem,
            capacity,
            iso_cache: true,
            knapsack: KnapsackConfig::default(),
            rec: Recorder::disabled(),
            subcache: None,
            layer_digests: OnceLock::new(),
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            chains: Mutex::new(StageChains::default()),
        }
    }

    /// Enables or disables the §5.3 isomorphism cache (disable only for
    /// the ablation benchmark; results are identical either way).
    #[must_use]
    pub fn with_isomorphism_cache(mut self, enabled: bool) -> Self {
        self.iso_cache = enabled;
        self
    }

    /// Overrides the knapsack tuning (cell cap, GCD rescaling).
    #[must_use]
    pub fn with_knapsack_config(mut self, knapsack: KnapsackConfig) -> Self {
        self.knapsack = knapsack;
        self
    }

    /// Attaches a content-addressed subproblem cache consulted (and
    /// filled) by every leaf evaluation. Pass
    /// [`subcache::global()`](crate::subcache::global) to share leaves
    /// process-wide; results are byte-identical either way because a
    /// cached leaf replays exactly what the knapsack would compute.
    #[must_use]
    pub fn with_subproblem_cache(mut self, cache: &'a SubproblemCache) -> Self {
        self.subcache = Some(cache);
        self
    }

    /// Attaches an observability recorder. The provider reports
    /// `partition.iso_cache.{hits,misses}`, `partition.leaf_evals`,
    /// `subcache.{hits,misses}` (when a subproblem cache is attached)
    /// and per-leaf timing (`partition.leaf.us`), and forwards the
    /// recorder into the recomputation knapsack it runs per leaf.
    #[must_use]
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Isomorphism-cache hits/misses accumulated so far.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The device capacity the provider budgets against.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Runs the full knapsack for one concrete stage assignment,
    /// returning the chosen strategy (used to materialize the final plan
    /// after Algorithm 1 picks the boundaries).
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::OutOfMemory`] when the stage cannot fit
    /// even under full recomputation.
    pub fn optimize_stage(
        &self,
        stage: usize,
        range: LayerRange,
    ) -> Result<OptimizedStage, StrategyError> {
        let budget = self
            .mem
            .activation_budget(self.table, self.seq, range, stage, self.capacity)
            .ok_or(StrategyError::OutOfMemory {
                required: Bytes::new(u64::MAX),
                budget: Bytes::ZERO,
            })?;
        let units = self.table.units_in(range);
        let keyed = self.subcache.and_then(|sc| {
            let digests = self
                .layer_digests
                .get_or_init(|| {
                    (0..self.table.num_layers())
                        .map(|l| subcache::layer_digest(self.table.layer_units(l)))
                        .collect()
                })
                .get(range.first..=range.last)?;
            Some((sc, subcache::leaf_key(digests, budget, self.knapsack)))
        });
        let Some((sc, key)) = keyed else {
            return self.solve(stage, range, &units, budget);
        };
        if let Some(outcome) = sc.lookup(&key) {
            self.rec.incr(keys::SUBCACHE_HITS);
            return subcache::rebuild(&units, budget, &outcome);
        }
        self.rec.incr(keys::SUBCACHE_MISSES);
        let result = self.solve(stage, range, &units, budget);
        if let Some(outcome) = subcache::outcome_of(&result) {
            sc.store(key, outcome);
        }
        result
    }

    /// Runs the knapsack for one window on the chain of its class, or on
    /// a fresh chain while another thread holds the chains (parallel
    /// prefill). Both give the same result.
    fn solve(
        &self,
        stage: usize,
        range: LayerRange,
        units: &[UnitProfile],
        budget: Bytes,
    ) -> Result<OptimizedStage, StrategyError> {
        let mut chains = match self.chains.try_lock() {
            Ok(chains) => chains,
            Err(TryLockError::WouldBlock) => {
                return optimize(units, budget, self.knapsack, &self.rec);
            }
            // A panic mid-solve may have left a chain half-pushed: drop
            // every chain and start over.
            Err(TryLockError::Poisoned(poisoned)) => {
                let mut chains = poisoned.into_inner();
                *chains = StageChains::default();
                self.chains.clear_poison();
                chains
            }
        };
        if chains.stage != stage {
            chains.by_class.clear();
            chains.stage = stage;
        }
        let IsoKey {
            first_kind,
            ends_last,
            ..
        } = self.iso_key(stage, range);
        chains
            .by_class
            .entry((first_kind, ends_last))
            .or_default()
            .optimize(units, budget, self.knapsack, &self.rec)
    }

    /// Evaluates, in parallel over `pool`, one representative leaf for
    /// every isomorphism class among `windows` that is not cached yet,
    /// so a following serial [`algorithm1::solve`](crate::algorithm1)
    /// run answers every query from the cache. Returns how many leaves
    /// were computed. Pair with
    /// [`algorithm1::reachable_windows`](crate::algorithm1::reachable_windows);
    /// over-approximation only costs extra cached leaves, never a
    /// different plan — the DP itself stays serial and the leaves are
    /// pure, which is the byte-identity argument (docs/parallel.md).
    ///
    /// No-op (0 computed) when the isomorphism cache is disabled or the
    /// pool has a single worker; each computed representative counts as
    /// one isomorphism-cache miss, exactly as it would when the DP
    /// discovered it serially.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] if a pooled leaf evaluation panicked.
    pub fn prefill(
        &self,
        pool: &ExecPool,
        windows: &[(usize, LayerRange)],
    ) -> Result<usize, ExecError> {
        if !self.iso_cache || pool.threads() < 2 {
            return Ok(0);
        }
        let mut reps: Vec<(IsoKey, usize, LayerRange)> = Vec::new();
        {
            let cache = self.lock_cache();
            let mut seen: HashSet<IsoKey> = HashSet::new();
            for &(stage, range) in windows {
                let key = self.iso_key(stage, range);
                if cache.contains_key(&key) || !seen.insert(key) {
                    continue;
                }
                reps.push((key, stage, range));
            }
        }
        if reps.len() < 2 {
            return Ok(0);
        }
        let computed = pool.map(&reps, |&(_, stage, range)| self.compute(stage, range))?;
        self.misses
            .fetch_add(convert::usize_u64(reps.len()), Ordering::Relaxed);
        self.rec
            .add(keys::ISO_CACHE_MISSES, convert::usize_u64(reps.len()));
        let mut cache = self.lock_cache();
        for ((key, _, _), times) in reps.iter().zip(computed) {
            cache.insert(*key, times);
        }
        Ok(reps.len())
    }

    fn compute(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        self.rec.incr(keys::PARTITION_LEAF_EVALS);
        let started = self.rec.is_enabled().then(std::time::Instant::now);
        let opt = self.optimize_stage(stage, range).ok();
        if let Some(t0) = started {
            self.rec
                .observe(keys::PARTITION_LEAF_US, t0.elapsed().as_secs_f64() * 1e6);
        }
        let opt = opt?;
        Some(StageTimes {
            f: opt.cost.time_f,
            b: opt.cost.time_b,
        })
    }

    fn iso_key(&self, stage: usize, range: LayerRange) -> IsoKey {
        IsoKey {
            stage,
            first_kind: self.seq.layer(range.first).kind,
            len: range.len(),
            ends_last: range.last == self.seq.len() - 1,
        }
    }

    /// Locks the iso cache, treating poisoning as recovered: leaf
    /// evaluations contain their panics inside the exec pool, so the
    /// map behind a poisoned lock is still consistent.
    fn lock_cache(&self) -> MutexGuard<'_, HashMap<IsoKey, Option<StageTimes>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl StageCostProvider for KnapsackCostProvider<'_> {
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        if !self.iso_cache {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.rec.incr(adapipe_obs::keys::ISO_CACHE_MISSES);
            return self.compute(stage, range);
        }
        let key = self.iso_key(stage, range);
        if let Some(cached) = self.lock_cache().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.rec.incr(adapipe_obs::keys::ISO_CACHE_HITS);
            return *cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.rec.incr(adapipe_obs::keys::ISO_CACHE_MISSES);
        let result = self.compute(stage, range);
        self.lock_cache().insert(key, result);
        result
    }
}

/// The verification twin of [`KnapsackCostProvider`]: budgets each
/// `(stage, window)` through the *same* memory model, but optimizes the
/// stage with the brute-force subset enumeration of
/// [`adapipe_recompute::optimize_exhaustive`] instead of the knapsack DP.
///
/// Deliberately dumb: no isomorphism cache (only exact-key memoization,
/// which is trivially sound), no knapsack tuning, no recorder plumbing —
/// the fewer moving parts the oracle shares with the production path, the
/// more a disagreement means. Usable only on instances small enough for
/// `optimize_exhaustive`; windows whose stages exceed its enumeration
/// limit are reported infeasible, so keep oracle instances within
/// [`adapipe_recompute::exhaustive::MAX_ORACLE_FREE_UNITS`] free units
/// per stage.
#[derive(Debug)]
pub struct OracleCostProvider<'a> {
    seq: &'a LayerSeq,
    table: &'a ProfileTable,
    mem: &'a MemoryModel,
    capacity: Bytes,
    cache: RefCell<HashMap<(usize, LayerRange), Option<StageTimes>>>,
}

impl<'a> OracleCostProvider<'a> {
    /// Creates an oracle provider over the same inputs as
    /// [`KnapsackCostProvider::new`].
    #[must_use]
    pub fn new(
        seq: &'a LayerSeq,
        table: &'a ProfileTable,
        mem: &'a MemoryModel,
        capacity: Bytes,
    ) -> Self {
        OracleCostProvider {
            seq,
            table,
            mem,
            capacity,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The device capacity the oracle budgets against.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Brute-force-optimizes one concrete stage assignment.
    ///
    /// # Errors
    ///
    /// [`StrategyError::OutOfMemory`] when the stage cannot fit even
    /// under full recomputation; [`StrategyError::TooLargeForOracle`]
    /// when the window has too many free units to enumerate.
    pub fn optimize_stage(
        &self,
        stage: usize,
        range: LayerRange,
    ) -> Result<OptimizedStage, StrategyError> {
        let budget = self
            .mem
            .activation_budget(self.table, self.seq, range, stage, self.capacity)
            .ok_or(StrategyError::OutOfMemory {
                required: Bytes::new(u64::MAX),
                budget: Bytes::ZERO,
            })?;
        let units = self.table.units_in(range);
        optimize_exhaustive(&units, budget)
    }
}

impl StageCostProvider for OracleCostProvider<'_> {
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        if let Some(cached) = self.cache.borrow().get(&(stage, range)) {
            return *cached;
        }
        let result = self
            .optimize_stage(stage, range)
            .ok()
            .map(|opt| StageTimes {
                f: opt.cost.time_f,
                b: opt.cost.time_b,
            });
        self.cache.borrow_mut().insert((stage, range), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::f1b_iteration_time;
    use adapipe_hw::presets as hw;
    use adapipe_memory::OptimizerSpec;
    use adapipe_model::{presets, ModelSpec, ParallelConfig, TrainConfig};
    use adapipe_profiler::Profiler;
    use adapipe_units::MicroSecs;

    struct Fixture {
        seq: LayerSeq,
        table: ProfileTable,
        mem: MemoryModel,
    }

    fn fixture(model: ModelSpec, parallel: ParallelConfig, seq_len: usize) -> Fixture {
        let train = TrainConfig::new(1, seq_len, 16 * parallel.data()).unwrap();
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        let seq = LayerSeq::for_model(&model);
        let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
        Fixture { seq, table, mem }
    }

    #[test]
    fn iso_cache_changes_nothing_but_hit_counts() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let cached = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let raw = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_isomorphism_cache(false);
        for stage in 0..4 {
            for first in [0usize, 1, 5, 10] {
                for last in [12usize, 20, 25] {
                    let r = LayerRange::new(first, last);
                    assert_eq!(cached.stage_times(stage, r), raw.stage_times(stage, r));
                    // Querying twice hits the cache.
                    let h0 = cached.cache_stats().hits;
                    let _ = cached.stage_times(stage, r);
                    let h1 = cached.cache_stats().hits;
                    assert_eq!(h1, h0 + 1);
                }
            }
        }
        assert!(cached.cache_stats().hits > 0);
        assert_eq!(raw.cache_stats().hits, 0);
    }

    /// The §5.3 isomorphism cache (and the knapsack chains, which reach
    /// a class through whichever window Algorithm 1 meets first) rely on
    /// every window of a class giving the same leaf. Checked on every
    /// window of up to eight layers at the first and last stage, under
    /// capacities tight enough that the knapsack binds and some windows
    /// do not fit at all.
    #[test]
    fn every_window_of_an_iso_class_yields_the_same_leaf() {
        for (model, parallel, seq_len, capacity_mib) in [
            (presets::gpt2_small(), (2, 4, 1), 1024, 256u64),
            (presets::bert_large(), (2, 4, 1), 512, 512),
            (presets::llama2_70b(), (8, 8, 1), 4096, 8 << 10),
            (presets::gpt3_175b(), (8, 8, 1), 16384, 16 << 10),
        ] {
            let parallel = ParallelConfig::new(parallel.0, parallel.1, parallel.2).unwrap();
            let p = parallel.pipeline();
            let fx = fixture(model, parallel, seq_len);
            let rec = Recorder::new();
            let provider = KnapsackCostProvider::new(
                &fx.seq,
                &fx.table,
                &fx.mem,
                Bytes::new(capacity_mib << 20),
            )
            .with_recorder(rec.clone());
            let l = fx.seq.len();
            for stage in [0, p - 1] {
                let mut first_of_class: HashMap<IsoKey, (LayerRange, Option<OptimizedStage>)> =
                    HashMap::new();
                for first in 0..l {
                    for last in first..l.min(first + 8) {
                        let range = LayerRange::new(first, last);
                        let leaf = provider.optimize_stage(stage, range).ok();
                        let (rep, expect) = first_of_class
                            .entry(provider.iso_key(stage, range))
                            .or_insert((range, leaf.clone()));
                        assert_eq!(&leaf, expect, "stage {stage}: {range:?} vs {rep:?}");
                    }
                }
            }
            assert!(
                rec.snapshot().counters["recompute.knapsack.cells"] > 0,
                "l={l}"
            );
        }
    }

    #[test]
    fn isomorphic_windows_share_cost() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let p = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        // Layers 3..=6 and 5..=8 both start with an attention layer and
        // span four layers.
        let a = p.stage_times(1, LayerRange::new(3, 6));
        let b = p.stage_times(1, LayerRange::new(5, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn earlier_stage_has_slower_backward() {
        // Same window, earlier stage -> tighter budget -> more
        // recomputation -> larger b; f never changes.
        let fx = fixture(
            presets::gpt3_175b(),
            ParallelConfig::new(8, 8, 1).unwrap(),
            16384,
        );
        let p = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let range = fx.seq.even_partition(8)[4];
        let s0 = p.stage_times(0, range).unwrap();
        let s7 = p.stage_times(7, range).unwrap();
        assert!((s0.f - s7.f).abs() < MicroSecs::new(1e-6));
        assert!(s0.b >= s7.b);
    }

    #[test]
    fn infeasible_window_is_none() {
        let fx = fixture(
            presets::gpt3_175b(),
            ParallelConfig::new(8, 8, 1).unwrap(),
            16384,
        );
        let p = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(4));
        let whole = LayerRange::new(0, fx.seq.len() - 1);
        assert!(p.stage_times(0, whole).is_none());
    }

    #[test]
    fn oracle_provider_agrees_with_knapsack_provider() {
        // tiny_gpt windows are small enough to enumerate exhaustively;
        // the GCD-rescaled knapsack is exact, so the two providers must
        // report identical stage times for every feasible window.
        let fx = fixture(
            presets::tiny_gpt(),
            ParallelConfig::new(1, 2, 1).unwrap(),
            128,
        );
        let l = fx.seq.len();
        let dp = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(2));
        let oracle = OracleCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(2));
        let mut feasible = 0usize;
        for stage in 0..2 {
            for first in 0..l {
                for last in first..l {
                    let r = LayerRange::new(first, last);
                    let free = fx
                        .table
                        .units_in(r)
                        .iter()
                        .filter(|u| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
                        .count();
                    if free > adapipe_recompute::exhaustive::MAX_ORACLE_FREE_UNITS {
                        continue;
                    }
                    let (a, b) = (dp.stage_times(stage, r), oracle.stage_times(stage, r));
                    match (a, b) {
                        (Some(a), Some(b)) => {
                            feasible += 1;
                            assert!(
                                (a.f - b.f).abs() < MicroSecs::new(1e-9)
                                    && (a.b - b.b).abs() < MicroSecs::new(1e-6),
                                "stage {stage} {r:?}: dp {a:?} vs oracle {b:?}"
                            );
                        }
                        (None, None) => {}
                        _ => panic!(
                            "feasibility disagreement at stage {stage} {r:?}: {a:?} vs {b:?}"
                        ),
                    }
                }
            }
        }
        assert!(feasible > 0, "fixture produced no feasible windows");
    }

    #[test]
    fn even_partition_end_to_end_cost_is_finite() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let p = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let parts = fx.seq.even_partition(4);
        let times: Vec<StageTimes> = parts
            .iter()
            .enumerate()
            .map(|(s, r)| p.stage_times(s, *r).unwrap())
            .collect();
        let bd = f1b_iteration_time(&times, 16);
        assert!(!bd.total().is_invalid_cost() && bd.total() > MicroSecs::ZERO);
    }

    #[test]
    fn subproblem_cache_does_not_change_stage_times() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let shared = SubproblemCache::new(1024);
        let plain = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let warm = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_subproblem_cache(&shared);
        // A *second* provider on the same cache answers from shared
        // leaves (the cross-request warm-start path).
        let reuse = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_subproblem_cache(&shared);
        for stage in 0..4 {
            for first in [0usize, 2, 9] {
                for last in [11usize, 19, 25] {
                    let r = LayerRange::new(first, last);
                    let expect = plain.stage_times(stage, r);
                    assert_eq!(warm.stage_times(stage, r), expect);
                    assert_eq!(reuse.stage_times(stage, r), expect);
                }
            }
        }
        let stats = shared.stats();
        assert!(stats.hits > 0, "second provider must hit shared leaves");
        assert!(stats.misses > 0);
    }

    #[test]
    fn subproblem_cache_round_trips_optimize_stage() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let shared = SubproblemCache::new(256);
        let plain = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let warm = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_subproblem_cache(&shared);
        let r = LayerRange::new(3, 12);
        // First call fills the cache, second replays it; both must be
        // byte-identical to the uncached solve.
        let expect = plain.optimize_stage(1, r).unwrap();
        assert_eq!(warm.optimize_stage(1, r).unwrap(), expect);
        assert_eq!(warm.optimize_stage(1, r).unwrap(), expect);
        assert_eq!(shared.stats().hits, 1);
    }

    #[test]
    fn prefill_answers_every_solve_query_from_cache() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let pool = ExecPool::new(4);
        let l = fx.seq.len();
        let (p, n) = (4usize, 16usize);
        let serial = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let pooled = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let windows = crate::algorithm1::reachable_windows(l, p);
        let computed = pooled.prefill(&pool, &windows).unwrap();
        assert!(computed > 0, "prefill must evaluate representatives");
        let a = crate::algorithm1::solve(&serial, l, p, n, &Recorder::disabled());
        let b = crate::algorithm1::solve(&pooled, l, p, n, &Recorder::disabled());
        assert_eq!(a, b, "prefilled solve must be identical");
        // Every query the DP made after prefill was a cache hit.
        let stats = pooled.cache_stats();
        assert_eq!(stats.misses, convert::usize_u64(computed));
        assert!(stats.hits > 0);
    }

    #[test]
    fn prefill_is_a_noop_on_single_worker_pools() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let provider = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let windows = crate::algorithm1::reachable_windows(fx.seq.len(), 4);
        let computed = provider.prefill(&ExecPool::new(1), &windows).unwrap();
        assert_eq!(computed, 0);
        assert_eq!(provider.cache_stats(), CacheStats::ZERO);
    }
}
