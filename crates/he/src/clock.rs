//! The logical clock of the era schemes, and what paces it.
//!
//! [`EraClock`] is a shared monotone counter advanced on allocation batches
//! rather than by wall time (Hazard Eras / 2GE-IBR). *When* it ticks is a
//! policy, not a constant: [`EraPacer`] co-locates the clock with the
//! scheme's [`EraAdvancePolicy`], which either fixes the allocations-per-tick
//! interval (the classic `epoch_freq` cadence) or adapts it to the scheme-wide
//! limbo-byte estimate its counters give — faster ticks while garbage
//! accumulates behind a stalled reader, decaying to an idle floor when scans
//! run dry (the DEBRA/Hyaline observation that advancement should follow
//! *reclamation pressure*, not allocation count).

use reclaim_core::{CachePadded, Era, EraAdvancePolicy};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The global era counter of the interval-based schemes.
///
/// A single cache-padded monotone `u64`, read on every allocation / retirement
/// of an era scheme and advanced once per allocation batch (the interval the
/// scheme's [`EraPacer`] currently dictates) plus once per scan. Reads are
/// acquire and
/// the advance is AcqRel so that observing era `e` also observes everything the
/// advancer did before publishing `e` — the same pairing `GlobalEpoch` uses.
#[derive(Debug)]
pub struct EraClock {
    era: CachePadded<AtomicU64>,
}

impl EraClock {
    /// Creates a clock at era 1 (era 0 is reserved, see
    /// [`NO_BIRTH_ERA`](reclaim_core::NO_BIRTH_ERA)).
    pub fn new() -> Self {
        Self {
            era: CachePadded::new(AtomicU64::new(1)),
        }
    }

    /// The current era.
    #[inline]
    pub fn current(&self) -> Era {
        self.era.load(Ordering::Acquire)
    }

    /// Advances the era by one, returning the value *before* the advance.
    /// Unconditional (unlike `GlobalEpoch::try_advance`): era safety never
    /// depends on readers having caught up, only on the free-time interval
    /// overlap check, so concurrent advances merely skip numbers.
    #[inline]
    pub fn advance(&self) -> Era {
        self.era.fetch_add(1, Ordering::AcqRel)
    }
}

impl Default for EraClock {
    fn default() -> Self {
        Self::new()
    }
}

/// The era clock plus the policy state that decides *when* it ticks.
///
/// [`EraClock`] answers "what era is it"; `EraPacer` co-locates the answer to
/// "how often should allocations move it forward": an interval inside the
/// policy's `[min_interval, max_interval]` range, re-chosen after every scan
/// from the scheme-wide limbo-byte estimate ([`adapt`](Self::adapt)). The
/// pacer keeps no estimate of its own — the scheme hands it the one its budget
/// governor is handed, `SchemeCore::limbo_estimate` — and a static policy is
/// the range `[n, n]`, which never moves and never asks.
///
/// The estimate is **advisory**: it only modulates reclamation *latency*,
/// never the free-time safety condition, so stale reads and racing interval
/// stores are harmless.
#[derive(Debug)]
pub struct EraPacer {
    clock: EraClock,
    policy: EraAdvancePolicy,
    /// Scheme-wide limbo bytes above which the interval halves.
    low_water_bytes: u64,
    /// Current allocations-per-tick interval (read on every `alloc_node`;
    /// written only by scans, and only when the range is not a point).
    interval: CachePadded<AtomicUsize>,
}

impl EraPacer {
    /// Creates a pacer at era 1, running `policy` under the scheme's
    /// `limbo_budget`. With a budget, the low-water mark is a quarter of it
    /// (the pacer is the era schemes' lever on the budget ladder); without
    /// one, the policy's own `limbo_low_water_bytes`. The interval starts at
    /// `min_interval` (the robust end): a fresh scheme cannot know whether a
    /// reader is about to stall, and the idle decay recovers the cheap cadence
    /// within a few dry scans.
    pub fn new(policy: EraAdvancePolicy, limbo_budget: Option<usize>) -> Self {
        policy.validate();
        let (min_interval, _, policy_mark) = policy.bounds();
        Self {
            clock: EraClock::new(),
            policy,
            low_water_bytes: limbo_budget.map_or(policy_mark, |budget| budget / 4) as u64,
            interval: CachePadded::new(AtomicUsize::new(min_interval)),
        }
    }

    /// The policy this pacer runs.
    pub fn policy(&self) -> EraAdvancePolicy {
        self.policy
    }

    /// The current era (delegates to the inner [`EraClock`]).
    #[inline]
    pub fn current(&self) -> Era {
        self.clock.current()
    }

    /// Advances the era by one (delegates to the inner [`EraClock`]).
    #[inline]
    pub fn advance(&self) -> Era {
        self.clock.advance()
    }

    /// The current allocations-per-tick interval. One relaxed load of a
    /// read-mostly padded line — the only pacer cost on the allocation path.
    #[inline]
    pub fn current_interval(&self) -> usize {
        self.interval.load(Ordering::Relaxed)
    }

    /// Scan-time hook: re-chooses the tick interval from the scheme-wide
    /// limbo-byte estimate, which `limbo_estimate` reads only when the range
    /// leaves a choice. Call after the scan's frees were reported, so the
    /// estimate tracks the *residue* — the garbage reservations are actually
    /// pinning. Returns `true` when this call sped the pacer up.
    pub fn adapt(&self, limbo_estimate: impl FnOnce() -> u64) -> bool {
        let (min_interval, max_interval, _) = self.policy.bounds();
        if min_interval == max_interval {
            return false;
        }
        let current = self.interval.load(Ordering::Relaxed);
        let next = if limbo_estimate() > self.low_water_bytes {
            // Pressure: halve toward the fast end so fresh allocations age
            // past any stalled reservation sooner.
            (current / 2).max(min_interval)
        } else {
            // Dry: creep toward the idle floor so a quiet scheme stops paying
            // shared fetch_add traffic for robustness it does not need. The
            // increase is additive (AIMD) so one quiet episode cannot undo
            // the speed-up a stall earned — re-inflating multiplicatively let
            // the next stall pin a full idle-interval's worth again.
            current.saturating_add(min_interval).min(max_interval)
        };
        if next != current {
            // A racing store from a concurrent scan is fine: both values are
            // inside [min, max] and the next scan re-converges.
            self.interval.store(next, Ordering::Relaxed);
        }
        next < current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::NO_BIRTH_ERA;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn era_clock_starts_past_the_reserved_era_and_advances() {
        let clock = EraClock::new();
        assert!(clock.current() > NO_BIRTH_ERA, "era 0 is reserved");
        assert_eq!(clock.current(), 1);
        assert_eq!(clock.advance(), 1, "advance returns the pre-advance era");
        assert_eq!(clock.current(), 2);
    }

    #[test]
    fn a_point_range_never_moves_and_never_reads_the_estimate() {
        let point_ranges = [
            EraAdvancePolicy::Static(32),
            EraAdvancePolicy::Adaptive {
                min_interval: 32,
                max_interval: 32,
                limbo_low_water_bytes: 0,
            },
        ];
        for policy in point_ranges {
            let pacer = EraPacer::new(policy, Some(1 << 20));
            assert_eq!(pacer.policy(), policy);
            assert_eq!(pacer.current_interval(), 32);
            for _ in 0..3 {
                assert!(!pacer.adapt(|| panic!("a point range has nothing to decide")));
                assert_eq!(pacer.current_interval(), 32);
            }
            assert_eq!(pacer.current(), 1);
            pacer.advance();
            assert_eq!(pacer.current(), 2, "clock delegation works");
        }
    }

    #[test]
    fn adaptive_pacer_speeds_up_under_pressure_and_decays_when_dry() {
        let pacer = EraPacer::new(
            EraAdvancePolicy::Adaptive {
                min_interval: 4,
                max_interval: 64,
                limbo_low_water_bytes: 100,
            },
            None,
        );
        assert_eq!(
            pacer.current_interval(),
            4,
            "adaptive starts at the robust (fast) end"
        );
        // Dry scans creep toward the idle floor (+min per scan), never past it.
        for scans in 1..=15 {
            assert!(!pacer.adapt(|| 0));
            assert_eq!(pacer.current_interval(), (4 + 4 * scans).min(64));
        }
        assert_eq!(pacer.current_interval(), 64, "idle floor reached");
        assert!(!pacer.adapt(|| 100), "at the mark is not above it");
        assert_eq!(pacer.current_interval(), 64, "never past the floor");
        // Limbo past the low-water mark halves the interval — and says so —
        // down to the minimum and no further.
        assert!(pacer.adapt(|| 101), "speed-up must be signalled");
        assert_eq!(pacer.current_interval(), 32);
        for _ in 0..3 {
            assert!(pacer.adapt(|| 500));
        }
        assert_eq!(pacer.current_interval(), 4);
        assert!(!pacer.adapt(|| 500), "clamped at min_interval: no speed-up");
        assert_eq!(pacer.current_interval(), 4);
        // Draining the limbo lets the interval creep up again (additively:
        // one quiet scan must not undo the speed-up the stall earned).
        assert!(!pacer.adapt(|| 0));
        assert_eq!(pacer.current_interval(), 8);
    }

    #[test]
    fn a_limbo_budget_puts_the_low_water_mark_at_a_quarter_of_it() {
        let pacer = EraPacer::new(
            EraAdvancePolicy::Adaptive {
                min_interval: 4,
                max_interval: 64,
                limbo_low_water_bytes: 1_000_000,
            },
            Some(1_024),
        );
        for _ in 0..15 {
            pacer.adapt(|| 0);
        }
        assert_eq!(pacer.current_interval(), 64, "idle floor reached");
        // Far below the policy's own mark, but over budget / 4.
        assert!(!pacer.adapt(|| 256));
        assert!(pacer.adapt(|| 257));
        assert_eq!(pacer.current_interval(), 32);
    }

    #[test]
    fn pacer_interval_stays_inside_policy_bounds_under_concurrent_scans() {
        let policy = EraAdvancePolicy::Adaptive {
            min_interval: 2,
            max_interval: 128,
            limbo_low_water_bytes: 10,
        };
        let pacer = Arc::new(EraPacer::new(policy, None));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pacer = Arc::clone(&pacer);
                thread::spawn(move || {
                    for round in 0..1_000u64 {
                        pacer.adapt(|| if round % 2 == 0 { 100 } else { 0 });
                        let interval = pacer.current_interval();
                        assert!((2..=128).contains(&interval), "interval {interval}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "min_interval must not exceed max_interval")]
    fn inverted_adaptive_bounds_are_rejected() {
        EraPacer::new(
            EraAdvancePolicy::Adaptive {
                min_interval: 64,
                max_interval: 8,
                limbo_low_water_bytes: 0,
            },
            None,
        );
    }

    #[test]
    fn concurrent_era_advances_all_land() {
        let clock = Arc::new(EraClock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let clock = Arc::clone(&clock);
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        clock.advance();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.current(), 1 + 4 * 1_000);
    }
}
