//! Per-thread operation generation.
//!
//! Each worker thread owns an [`OpGenerator`] seeded independently, so threads do not
//! contend on a shared random-number generator (which would serialize the very
//! workload whose scalability is being measured). Operations and keys are drawn
//! uniformly, exactly as described in the paper (§7.1: "Each operation is chosen at
//! random, according to a given probability distribution, with a randomly chosen
//! key").

use crate::spec::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A single set operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operation {
    /// Membership query.
    Contains(u64),
    /// Insertion.
    Insert(u64),
    /// Removal.
    Remove(u64),
}

impl Operation {
    /// The key this operation targets.
    #[cfg(test)]
    pub(crate) fn key(&self) -> u64 {
        match *self {
            Operation::Contains(k) | Operation::Insert(k) | Operation::Remove(k) => k,
        }
    }

    /// True if the operation can modify the structure.
    #[cfg(test)]
    pub(crate) fn is_update(&self) -> bool {
        !matches!(self, Operation::Contains(_))
    }
}

/// A deterministic, thread-local operation stream.
#[derive(Debug)]
pub struct OpGenerator {
    spec: WorkloadSpec,
    rng: SmallRng,
}

impl OpGenerator {
    /// Creates a generator for `spec`, seeded by `seed` (threads use their index so
    /// runs are reproducible).
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        Self {
            spec,
            // Mix the seed so consecutive thread indices do not produce correlated
            // SmallRng streams.
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)),
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Operation {
        let key = self.rng.gen_range(0..self.spec.key_range);
        let roll: u8 = self.rng.gen_range(0..100);
        if roll < self.spec.mix.read_pct {
            Operation::Contains(key)
        } else if roll < self.spec.mix.read_pct + self.spec.mix.insert_pct {
            Operation::Insert(key)
        } else {
            Operation::Remove(key)
        }
    }

    /// Draws the keys used to pre-fill the structure to its initial size: distinct
    /// keys drawn uniformly until `initial_keys` of them have been produced.
    /// Duplicates are dropped by one bit per key of the range: the fill is
    /// half the range, so the bitset is 1/32 of the returned vector.
    pub fn prefill_keys(spec: &WorkloadSpec, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let target = spec.initial_keys() as usize;
        let mut keys = Vec::with_capacity(target);
        let mut seen = vec![0_u64; spec.key_range.div_ceil(64) as usize];
        while keys.len() < target {
            let key = rng.gen_range(0..spec.key_range);
            let (word, bit) = ((key / 64) as usize, 1 << (key % 64));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                keys.push(key);
            }
        }
        keys
    }
}

/// SplitMix64: the small seedable generator behind the fault plans' random
/// delays and the server soak's sessions. Statistical quality is irrelevant
/// there — reproducibility per seed is the requirement.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OpMix;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(1_000, OpMix::updates_50())
    }

    #[test]
    fn keys_stay_in_range() {
        let mut generator = OpGenerator::new(spec(), 7);
        for _ in 0..10_000 {
            let op = generator.next_op();
            assert!(op.key() < 1_000);
        }
    }

    #[test]
    fn mix_is_respected_within_tolerance() {
        let mut generator = OpGenerator::new(spec(), 42);
        let mut updates = 0;
        let total = 100_000;
        for _ in 0..total {
            if generator.next_op().is_update() {
                updates += 1;
            }
        }
        let fraction = updates as f64 / total as f64;
        assert!(
            (fraction - 0.5).abs() < 0.02,
            "expected ~50% updates, got {fraction}"
        );
    }

    #[test]
    fn read_only_mix_generates_only_contains() {
        let spec = WorkloadSpec::new(100, OpMix::new(100, 0, 0));
        let mut generator = OpGenerator::new(spec, 3);
        for _ in 0..1_000 {
            assert!(!generator.next_op().is_update());
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = OpGenerator::new(spec(), 9);
        let mut b = OpGenerator::new(spec(), 9);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = OpGenerator::new(spec(), 10);
        let differs = (0..100).any(|_| a.next_op() != c.next_op());
        assert!(differs, "different seeds should give different streams");
    }

    #[test]
    fn prefill_produces_distinct_keys_of_requested_size() {
        let spec = spec();
        let keys = OpGenerator::prefill_keys(&spec, 1);
        assert_eq!(keys.len() as u64, spec.initial_keys());
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
        assert!(keys.iter().all(|&k| k < spec.key_range));
    }

    #[test]
    fn prefill_keys_are_the_same_draws_for_every_seed() {
        // Pinned from the hash-set deduplication the bitset replaced: the same
        // draws in the same order, so every benchmark round prefills the same
        // keys as before.
        let small =
            |seed| OpGenerator::prefill_keys(&WorkloadSpec::new(40, OpMix::updates_50()), seed);
        assert_eq!(
            small(1),
            [32, 29, 4, 7, 23, 39, 20, 3, 5, 36, 13, 2, 15, 6, 22, 18, 38, 25, 10, 31]
        );
        assert_eq!(
            small(7),
            [2, 6, 28, 17, 38, 18, 13, 39, 4, 29, 19, 3, 7, 31, 27, 16, 21, 33, 0, 15]
        );
        // The benchmark's skip-list range, folded (FNV-1a over the keys).
        for (seed, first, fold) in [
            (1, [16232, 14942, 2003, 14924], 0x6034_0af2_cbfa_6c81_u64),
            (7, [1107, 3442, 14351, 8544], 0xd97e_f5e7_be8b_add6),
        ] {
            let keys =
                OpGenerator::prefill_keys(&WorkloadSpec::new(20_000, OpMix::updates_50()), seed);
            assert_eq!(keys.len(), 10_000);
            assert_eq!(keys[..4], first);
            let folded = keys.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &k| {
                (h ^ k).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!(folded, fold, "seed {seed}");
        }
    }
}
