//! Seeded input streams for the three workloads. Everything here is a
//! pure function of the seed, so the self-tests can replay a stream and
//! check its properties without running the program under test.

use crate::rng::{Rng, Zipf};
use adapipe_serve::PlanRequest;

/// The two axes of the offline §7.3 sweep (GPT-3 175B, cluster A, 64 GPUs).
pub const OFFLINE_SEQS: [usize; 3] = [4096, 8192, 16384];
pub const OFFLINE_BATCHES: [usize; 3] = [64, 128, 256];

/// The `(seq, global batch)` pair of every sweep in an offline run: all
/// nine pairs once in a seeded order, then seeded repeats up to
/// `sweeps`. Covering every pair keeps the per-sweep cost the same from
/// seed to seed; the repeats exercise the repeat-consistency gate.
pub fn offline_sweeps(seed: u64, sweeps: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::fork(seed, 1);
    let mut pairs: Vec<(usize, usize)> = OFFLINE_SEQS
        .iter()
        .flat_map(|&s| OFFLINE_BATCHES.iter().map(move |&b| (s, b)))
        .collect();
    rng.shuffle(&mut pairs);
    while pairs.len() < sweeps {
        let extra = pairs[rng.below(9)];
        pairs.push(extra);
    }
    pairs
}

/// The model/strategy part of a serve request; a request adds the
/// cluster size, global batch and search headroom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Template {
    pub model: &'static str,
    pub tensor: usize,
    pub pipeline: usize,
    pub seq_len: usize,
    pub micro_batch: usize,
}

/// Every serve template: three small models, the `(t, p)` that fit one
/// 8-GPU node with at least two stages, a few sequence lengths and
/// micro-batch sizes. All of them plan within device memory.
pub fn templates() -> Vec<Template> {
    let mut out = Vec::new();
    for (model, seqs) in [
        ("gpt2", [512, 1024, 2048]),
        ("bert", [128, 192, 256]),
        ("tiny", [128, 256, 512]),
    ] {
        for (tensor, pipeline) in [(1, 2), (1, 4), (1, 8), (2, 2), (2, 4), (4, 2)] {
            // BERT's 50-layer sequence over eight stages costs a new leaf
            // set ~20 ms, ten times the median request; leaving it out
            // keeps the p99 a property of the whole mix.
            if model == "bert" && pipeline == 8 {
                continue;
            }
            for seq_len in seqs {
                for micro_batch in [1, 2] {
                    out.push(Template {
                        model,
                        tensor,
                        pipeline,
                        seq_len,
                        micro_batch,
                    });
                }
            }
        }
    }
    out
}

/// Cluster sizes a request may name. A node count does not change a
/// window's unit profiles or memory budget, so requests that differ only
/// in it (and in global batch) share every knapsack leaf.
const NODES: [usize; 4] = [1, 2, 4, 8];
/// Global-batch steps: `global_batch = micro_batch * (pipeline + j)`.
const BATCH_STEPS: usize = 128;

pub fn request(t: Template, nodes: usize, step: usize, headroom: f64) -> PlanRequest {
    PlanRequest {
        model: t.model.to_string(),
        cluster: "a".to_string(),
        nodes,
        micro_batch: t.micro_batch,
        headroom,
        ..PlanRequest::new(
            t.tensor,
            t.pipeline,
            t.seq_len,
            t.micro_batch * (t.pipeline + step),
        )
    }
}

/// A leaf set warmed during set-up: a template at a fixed headroom.
#[derive(Debug, Clone, Copy)]
pub struct Base {
    pub template: Template,
    pub headroom: f64,
}

impl Base {
    /// The request set-up plans to warm this base's leaves. Its global
    /// batch lies beyond every step the measured stream uses, so its
    /// digest never recurs.
    pub fn warmup(&self) -> PlanRequest {
        request(self.template, 1, BATCH_STEPS, self.headroom)
    }
}

/// The bases set-up repetition `rep` (of `reps`) warms: every template
/// is a base of exactly one repetition, in a seeded order, so the warmed
/// half of the stream has the same mix as the other half. Repetitions
/// get disjoint headrooms, so each one starts with cold leaves.
pub fn cold_bases(seed: u64, rep: usize, reps: usize) -> Vec<Base> {
    let mut all = templates();
    Rng::fork(seed, 100).shuffle(&mut all);
    all.iter()
        .enumerate()
        .filter(|(i, _)| i % reps == rep)
        .map(|(i, t)| Base {
            template: *t,
            headroom: 0.85 + i as f64 * 1e-4,
        })
        .collect()
}

/// The share of `serve-cold` requests that reuse a warmed leaf set. Not
/// exactly half: warm and new requests cost ~1 ms and ~6 ms, and an even
/// split would put the median in the gap between them.
pub const WARM_SHARE: f64 = 0.4;

/// The `serve-cold` request stream: every request has a digest of its
/// own. A `WARM_SHARE` of the draws reuse a warmed base and differ from
/// it only in cluster size and global batch, so all of their knapsack
/// leaves are subcache hits; the rest use a headroom no other request
/// uses, so all of their leaves are new.
pub struct ColdStream {
    rng: Rng,
    templates: Vec<Template>,
    bases: Vec<Base>,
    /// Per base, the unused `(nodes, step)` slots in seeded order.
    slots: Vec<Vec<(usize, usize)>>,
    fresh: usize,
}

impl ColdStream {
    pub fn new(seed: u64, bases: Vec<Base>) -> Self {
        let mut rng = Rng::fork(seed, 200);
        let slots = bases
            .iter()
            .map(|_| {
                let mut s: Vec<(usize, usize)> = NODES
                    .iter()
                    .flat_map(|&n| (0..BATCH_STEPS).map(move |j| (n, j)))
                    .collect();
                rng.shuffle(&mut s);
                s
            })
            .collect();
        ColdStream {
            rng,
            templates: templates(),
            bases,
            slots,
            fresh: 0,
        }
    }

    /// The next request and whether it reuses a warmed leaf set.
    pub fn next_request(&mut self) -> (PlanRequest, bool) {
        let warm = self.rng.unit() < WARM_SHARE;
        if warm {
            let open: Vec<usize> = (0..self.bases.len())
                .filter(|&b| !self.slots[b].is_empty())
                .collect();
            if !open.is_empty() {
                let b = *self.rng.pick(&open);
                let (nodes, step) = self.slots[b].pop().expect("open slot");
                let base = self.bases[b];
                return (request(base.template, nodes, step, base.headroom), true);
            }
        }
        let t = *self.rng.pick(&self.templates);
        let step = self.rng.below(BATCH_STEPS);
        // Headrooms 0.90 + k·1e-6 never meet a warmed base (≤ 0.87) and
        // move each stage budget by hundreds of kilobytes per step.
        let headroom = 0.90 + self.fresh as f64 * 1e-6;
        self.fresh += 1;
        (request(t, 1, step, headroom), false)
    }
}

/// The `k`-th request that fills the subproblem cache before a
/// `serve-cold` run. Its headroom (0.96 + k·1e-7) is shared with no
/// measured request.
pub fn fill_request(rng: &mut Rng, k: usize) -> PlanRequest {
    let t = *rng.pick(&templates());
    request(t, 1, rng.below(BATCH_STEPS), 0.96 + k as f64 * 1e-7)
}

/// `serve-hot` plan-cache capacity and digest pool: the pool is a
/// little larger than the cache, so the Zipf tail misses and evicts.
pub const HOT_CACHE_CAPACITY: usize = 256;
pub const HOT_POOL: usize = 320;
pub const HOT_ZIPF_S: f64 = 1.1;

/// The digest pool of `serve-hot` set-up repetition `rep`, in Zipf rank
/// order (rank 0 is drawn most often). Repetitions use disjoint
/// headrooms.
pub fn hot_pool(seed: u64, rep: usize) -> Vec<PlanRequest> {
    let mut rng = Rng::fork(seed, 300 + rep as u64);
    let mut all = templates();
    rng.shuffle(&mut all);
    // Templates cycle through the ranks, so every pool has the same mix.
    (0..HOT_POOL)
        .map(|i| {
            let headroom = 0.80 + (rep * HOT_POOL + i) as f64 * 1e-5;
            request(all[i % all.len()], 1, rng.below(BATCH_STEPS), headroom)
        })
        .collect()
}

/// The pool index each `serve-hot` client sends next.
pub struct HotStream {
    rng: Rng,
    zipf: Zipf,
}

impl HotStream {
    pub fn new(seed: u64, client: usize) -> Self {
        HotStream {
            rng: Rng::fork(seed, 400 + client as u64),
            zipf: Zipf::new(HOT_POOL, HOT_ZIPF_S),
        }
    }

    pub fn next_index(&mut self) -> usize {
        self.zipf.draw(&mut self.rng)
    }
}

/// One Poisson inter-arrival gap with unit mean; a phase at `rate` per
/// second scales it by `1 / rate`.
pub fn unit_gap(rng: &mut Rng) -> f64 {
    -(1.0 - rng.unit()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cold_stream(seed: u64, n: usize) -> Vec<(PlanRequest, bool)> {
        let bases = (0..3).flat_map(|r| cold_bases(seed, r, 3)).collect();
        let mut s = ColdStream::new(seed, bases);
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn one_seed_gives_one_request_stream() {
        let texts = |seed| -> Vec<String> {
            cold_stream(seed, 500)
                .iter()
                .map(|(r, _)| r.to_wire_text())
                .collect()
        };
        assert_eq!(texts(7), texts(7));
        assert_ne!(texts(7), texts(8));
        assert_eq!(offline_sweeps(7, 12), offline_sweeps(7, 12));
        assert_eq!(hot_pool(7, 2), hot_pool(7, 2));
        let draws = |seed| -> Vec<usize> {
            let mut h = HotStream::new(seed, 0);
            (0..1000).map(|_| h.next_index()).collect()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn cold_digests_are_all_distinct_and_two_in_five_are_warm() {
        let bases: Vec<Base> = (0..3).flat_map(|r| cold_bases(5, r, 3)).collect();
        let mut digests: HashSet<String> = bases.iter().map(|b| b.warmup().digest()).collect();
        assert_eq!(
            digests.len(),
            templates().len(),
            "one warmed base per template"
        );
        let stream = cold_stream(5, 30_000);
        for (req, _) in &stream {
            assert!(
                digests.insert(req.digest()),
                "digest repeats: {}",
                req.to_wire_text()
            );
        }
        let warm = stream.iter().filter(|(_, w)| *w).count() as f64 / stream.len() as f64;
        assert!((warm - WARM_SHARE).abs() < 0.02, "warm share {warm}");
    }

    #[test]
    fn hot_pool_outgrows_the_plan_cache() {
        let pool = hot_pool(3, 2);
        const { assert!(HOT_POOL > HOT_CACHE_CAPACITY) };
        let digests: HashSet<String> = pool.iter().map(PlanRequest::digest).collect();
        assert_eq!(digests.len(), HOT_POOL);
        let other: HashSet<String> = hot_pool(3, 1).iter().map(PlanRequest::digest).collect();
        assert!(
            digests.is_disjoint(&other),
            "set-up repetitions share digests"
        );
    }

    #[test]
    fn offline_runs_cover_every_pair_and_repeat_one() {
        let pairs = offline_sweeps(11, 10);
        assert_eq!(pairs.len(), 10);
        let distinct: HashSet<_> = pairs.iter().collect();
        assert_eq!(distinct.len(), 9);
    }
}
