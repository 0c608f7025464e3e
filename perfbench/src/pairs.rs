//! Workload inputs: the `(workload, platform)` pairs each benchmark
//! workload measures, the fidelity presets, and the seeded generator that
//! picks among them.
//!
//! Each class lists candidates whose host cost per access and model
//! error were measured to be close, so that a seed changes the inputs
//! without changing what the run measures by more than the noise.

use harness::{SampledConfig, Speed};
use machine::Platform;

/// SplitMix64: a small deterministic generator, so one seed always
/// produces the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, mixed with a per-use `stream` so different
    /// parts of the benchmark draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        memsim::splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One measured `(workload, platform)` pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pair {
    /// Workload name (paper spelling).
    pub workload: &'static str,
    /// The simulated platform.
    pub platform: &'static Platform,
}

impl Pair {
    const fn new(workload: &'static str, platform: &'static Platform) -> Pair {
        Pair { workload, platform }
    }

    /// `workload@platform`, for messages.
    pub fn label(&self) -> String {
        format!("{}@{}", self.workload, self.platform.name)
    }
}

/// A class of access behaviour and the candidates a seed picks from.
pub struct Class {
    /// Short name used in messages.
    pub name: &'static str,
    /// Candidates, any of which the seed may pick.
    pub candidates: &'static [Pair],
}

const SNB: &Platform = &Platform::SANDY_BRIDGE;
const BDW: &Platform = &Platform::BROADWELL;

/// The `build-sampled` workload's classes: uniform-random pairs the
/// sampling gate accepts at [`SAMPLED_SPEED`] (Haswell rejects every gups
/// size at this trace length, so it has no slot).
pub const SAMPLED_CLASSES: [Class; 2] = [
    Class {
        name: "uniform-random-1-walker",
        candidates: &[Pair::new("gups/8GB", SNB), Pair::new("gups/16GB", SNB)],
    },
    Class {
        name: "uniform-random-2-walkers",
        candidates: &[Pair::new("gups/8GB", BDW), Pair::new("gups/16GB", BDW)],
    },
];

/// The `serve` workload's served pairs: two distinct uniform-random
/// pairs, one per client connection, with close simulation costs so the
/// miss latency has one mode.
pub const SERVE_CANDIDATES: [Pair; 3] = [
    Pair::new("xsbench/4GB", SNB),
    Pair::new("xsbench/8GB", SNB),
    Pair::new("xsbench/16GB", SNB),
];

/// Fidelity of the served pairs and their batteries: the repository's
/// FAST preset.
pub const FULL_SPEED: Speed = Speed::FAST;

/// Fidelity of the sampled batteries: the FAST footprint with a trace
/// ten times longer, long enough that the cold-split extrapolation
/// amortizes compulsory fills and the 5% gate accepts.
pub const SAMPLED_SPEED: Speed = Speed {
    name: "fast-800k",
    footprint_div: Speed::FAST.footprint_div,
    min_footprint: Speed::FAST.min_footprint,
    accesses: 800_000,
    max_reps: 1,
};

/// Keep 1k of every 5k accesses under the default 5% gate bound.
pub const SAMPLED_CFG: SampledConfig = SampledConfig {
    window: 1_000,
    period: 5_000,
    bound: 0.05,
};

/// One pair per class, picked by `rng`.
pub fn pick_per_class(classes: &[Class], rng: &mut Rng) -> Vec<Pair> {
    classes.iter().map(|c| *rng.pick(c.candidates)).collect()
}

/// `count` distinct pairs of `candidates`, picked by `rng`.
pub fn pick_distinct(candidates: &[Pair], count: usize, rng: &mut Rng) -> Vec<Pair> {
    let mut all = candidates.to_vec();
    rng.shuffle(&mut all);
    all.truncate(count);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pairs() {
        let a = pick_per_class(&SAMPLED_CLASSES, &mut Rng::new(7, 1));
        let b = pick_per_class(&SAMPLED_CLASSES, &mut Rng::new(7, 1));
        assert_eq!(a, b);
        assert_eq!(a.len(), SAMPLED_CLASSES.len());
    }

    #[test]
    fn every_candidate_names_a_known_workload() {
        let all = SAMPLED_CLASSES
            .iter()
            .flat_map(|c| c.candidates.iter())
            .chain(&SERVE_CANDIDATES);
        for pair in all {
            assert!(
                workloads::WorkloadSpec::by_name(pair.workload).is_some(),
                "{}",
                pair.label()
            );
        }
    }

    #[test]
    fn pick_distinct_never_repeats() {
        for seed in 0..50 {
            let p = pick_distinct(&SERVE_CANDIDATES, 2, &mut Rng::new(seed, 3));
            assert_eq!(p.len(), 2);
            assert_ne!(p[0], p[1]);
        }
    }
}
