//! Seeded inputs of the `paper-search` workload: the shared start
//! points and the randomised strategies' seeds.

use cacs_sched::Schedule;
use cacs_search::{
    AnnealConfig, GeneticConfig, HybridConfig, ScheduleSpace, StrategyConfig, TabuConfig,
};

/// splitmix64: a small, well-mixed, dependency-free generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`), by rejection so every value
    /// is equally likely.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let r = self.next_u64();
            if r < zone {
                return r % n;
            }
        }
    }
}

/// The seed of start set `round` of a run seeded with `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    SplitMix64::new(seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// `count` distinct idle-feasible schedules of `space`, drawn uniformly
/// without replacement from the seed (fewer when the space holds fewer).
pub fn draw_starts(
    space: &ScheduleSpace,
    idle_feasible: impl Fn(&Schedule) -> bool,
    seed: u64,
    count: usize,
) -> Vec<Schedule> {
    let mut pool: Vec<Schedule> = space.iter().filter(|s| idle_feasible(s)).collect();
    let mut rng = SplitMix64::new(seed);
    let take = count.min(pool.len());
    // Partial Fisher–Yates: the first `take` slots become the sample.
    for i in 0..take {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
}

/// The four strategies every `paper-search` solve runs, at their default
/// knobs; the annealing and genetic seeds are derived from the workload
/// seed.
pub fn strategies(seed: u64) -> [StrategyConfig; 4] {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0F5E_A5C4);
    [
        StrategyConfig::Hybrid(HybridConfig::default()),
        StrategyConfig::Anneal(AnnealConfig {
            seed: rng.next_u64(),
            ..AnnealConfig::default()
        }),
        StrategyConfig::Genetic(GeneticConfig {
            seed: rng.next_u64(),
            ..GeneticConfig::default()
        }),
        StrategyConfig::Tabu(TabuConfig::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ScheduleSpace {
        ScheduleSpace::new(vec![4, 4, 4]).unwrap()
    }

    fn feasible(s: &Schedule) -> bool {
        s.counts().iter().sum::<u32>() % 3 != 0
    }

    #[test]
    fn same_seed_gives_same_starts_and_strategies() {
        let a = draw_starts(&space(), feasible, 42, 4);
        let b = draw_starts(&space(), feasible, 42, 4);
        assert_eq!(a, b);
        assert_eq!(strategies(42), strategies(42));
        assert_ne!(strategies(42), strategies(43));
        assert_eq!(round_seed(42, 3), round_seed(42, 3));
        assert_ne!(round_seed(42, 0), round_seed(42, 1));
        assert_ne!(round_seed(42, 0), round_seed(43, 0));
    }

    #[test]
    fn starts_are_distinct_idle_feasible_and_seed_dependent() {
        let a = draw_starts(&space(), feasible, 1, 4);
        assert_eq!(a.len(), 4);
        for (i, s) in a.iter().enumerate() {
            assert!(feasible(s));
            assert!(space().contains(s));
            assert!(!a[..i].contains(s), "duplicate start {s}");
        }
        let others: Vec<Vec<Schedule>> = (2..10)
            .map(|seed| draw_starts(&space(), feasible, seed, 4))
            .collect();
        assert!(
            others.iter().any(|o| *o != a),
            "the seed must change the starts"
        );
    }

    #[test]
    fn a_small_space_yields_every_feasible_schedule() {
        let tiny = ScheduleSpace::new(vec![2, 1]).unwrap();
        let all = draw_starts(&tiny, |_| true, 9, 10);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(5);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
