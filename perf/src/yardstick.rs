//! A fixed reference computation that gauges how fast the machine runs
//! at the moment a measurement runs, so timings can be quoted at one
//! nominal speed.
//!
//! On the 2-core reference VM one offline sweep of the same pair took
//! 2.0 s and then 3.9 s less than an hour later, with no steal time and
//! no other process in the VM; the serve workloads slowed as much (cold
//! p50 2.8 ms → 5.1 ms, hot rate 16.2 k/s → 9.5 k/s). A gate on raw times
//! there measures the host's other tenants. The yardstick is a textbook
//! 0/1 knapsack shaped like the program's recompute DP (a 2^20-cell `f64`
//! value row updated from the top down, one bitset row of choices per
//! item), written here with fixed items, so no change to the program can
//! move it. A timing bracketed by yardstick readings is multiplied by
//! nominal ÷ measured yardstick time, which gives the time it would take
//! on a machine that runs the yardstick at [`NOMINAL_NS_PER_CELL`]. In
//! the slow period the yardstick slowed by about as much as the sweep,
//! and adjusted sweep times stayed within ~5% of the quiet period's raw
//! ones. Raw times stay on the detail line.

use std::hint::black_box;
use std::time::Instant;

/// Cells of the value row (the knapsack capacity plus one).
const CELLS: usize = 1 << 20;
/// Items per yardstick run; ~40 M cells, ~80 ms on the reference VM.
const ITEMS: usize = 40;
/// The yardstick speed that adjusted times are quoted at, a round figure
/// near what the reference VM reaches when its host is quiet (~2.1 ns).
pub const NOMINAL_NS_PER_CELL: f64 = 2.0;

/// Seconds one yardstick run takes at the nominal speed.
fn nominal_s() -> f64 {
    (CELLS * ITEMS) as f64 * NOMINAL_NS_PER_CELL * 1e-9
}

/// Times work between yardstick readings. Each timed call is bracketed
/// by the reading before it and one after it; consecutive calls share the
/// reading between them. A reading is the median of `reps` runs.
#[derive(Debug)]
pub struct Gauge {
    reps: usize,
    last: f64,
    /// The value row and one row of choices, allocated once so that the
    /// yardstick adds a fixed amount to the process's resident memory.
    value: Vec<f64>,
    bits: Vec<u64>,
    /// Every yardstick run, in order, for the detail line.
    pub runs: Vec<f64>,
}

impl Gauge {
    /// Allocates the yardstick, runs it once untimed (first touch of its
    /// pages) and takes the first reading.
    pub fn new(reps: usize) -> Self {
        let mut g = Gauge {
            reps: reps.max(1),
            last: 0.0,
            value: vec![0.0; CELLS],
            bits: vec![0; CELLS / 64 + 1],
            runs: Vec::new(),
        };
        g.run();
        g.last = g.reading();
        g
    }

    /// Resident memory the yardstick's buffers hold, in MB.
    pub fn resident_mb(&self) -> f64 {
        (self.value.len() * 8 + self.bits.len() * 8) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the yardstick once; returns the best value it finds (fixed,
    /// for the self-test) and its wall time in seconds.
    fn run(&mut self) -> (f64, f64) {
        let t0 = Instant::now();
        // Fixed items: a SplitMix64 stream from a constant, never the seed.
        let mut state: u64 = 0x0005_eed0_fada_919e;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let capacity = CELLS - 1;
        let value = &mut self.value;
        let bits = &mut self.bits;
        value.fill(0.0);
        let mut chosen = 0u32;
        for _ in 0..ITEMS {
            let weight = 1 + (next() % 4096) as usize;
            let gain = 1.0 + (next() >> 11) as f64 / (1u64 << 53) as f64;
            bits.fill(0);
            for m in (weight..=capacity).rev() {
                let cand = value[m - weight] + gain;
                if cand > value[m] {
                    value[m] = cand;
                    bits[m / 64] |= 1 << (m % 64);
                }
            }
            chosen += (bits[capacity / 64] >> (capacity % 64) & 1) as u32;
        }
        black_box(chosen);
        (black_box(value[capacity]), t0.elapsed().as_secs_f64())
    }

    /// Takes a fresh reading for the next timed call to start from, when
    /// other work ran since the last one.
    pub fn refresh(&mut self) {
        self.last = self.reading();
    }

    fn reading(&mut self) -> f64 {
        let mut times: Vec<f64> = (0..self.reps).map(|_| self.run().1).collect();
        self.runs.extend(&times);
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    }

    /// Runs `f`; returns its result, its wall time in seconds, and the
    /// scale that quotes a time measured meanwhile at the nominal
    /// yardstick speed (adjusted time = time × scale, adjusted rate =
    /// rate ÷ scale). The scale is below 1 while the machine runs slow.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        let after = self.reading();
        let yardstick = (self.last + after) / 2.0;
        self.last = after;
        (out, wall, nominal_s() / yardstick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_items_are_fixed() {
        let mut g = Gauge::new(1);
        let (a, _) = g.run();
        let (b, _) = g.run();
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a > 0.0);
    }

    #[test]
    fn scale_is_nominal_over_the_bracketing_readings() {
        let mut g = Gauge::new(3);
        let (v, _, scale) = g.time(|| 7);
        assert_eq!(v, 7);
        assert_eq!(g.runs.len(), 6);
        let median = |runs: &[f64]| {
            let mut r = runs.to_vec();
            r.sort_by(f64::total_cmp);
            r[1]
        };
        let mean = (median(&g.runs[..3]) + median(&g.runs[3..])) / 2.0;
        assert!((scale - nominal_s() / mean).abs() <= 1e-12);
    }
}
