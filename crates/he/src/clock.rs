//! The logical clock of the era schemes, and what paces it.
//!
//! [`EraPacer`] holds a shared monotone counter advanced on allocation batches
//! rather than by wall time (Hazard Eras / 2GE-IBR). *When* it ticks follows
//! the scheme's limbo budget, the one threshold that states how much garbage a
//! stalled reader may pin: with no budget the era ticks once per 64
//! allocations (the IBR literature's `epoch_freq` ballpark) and the pacer
//! never reads an estimate; with a budget `B` the interval moves inside
//! [16, 64], halving while the scheme-wide limbo residue exceeds `B / 4` and
//! creeping back by 16 per dry scan — advancement that follows *reclamation
//! pressure*, not allocation count (the DEBRA/Hyaline observation).

use reclaim_core::{CachePadded, Era};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Allocations per era tick with no budget, and the slow end of the range a
/// budget paces the interval in.
const IDLE_INTERVAL: usize = 64;

/// The fast end of the range a budget paces the interval in, and the step by
/// which a dry scan slows it again.
const FAST_INTERVAL: usize = 16;

/// The global era clock of the interval-based schemes, plus the state that
/// decides *when* it ticks.
///
/// The clock is a single cache-padded monotone `u64`, read on every
/// allocation / retirement of an era scheme and advanced once per allocation
/// batch plus once per scan. Reads are acquire and the advance is AcqRel so
/// that observing era `e` also observes everything the advancer did before
/// publishing `e` — the same pairing `GlobalEpoch` uses.
///
/// The batch is an allocations-per-tick interval. Under a limbo budget it is
/// re-chosen after every scan from the residue the scheme hands it (`adapt`);
/// the pacer keeps no estimate of its own. Without a budget it stays at 64
/// and `adapt` asks for nothing.
///
/// The estimate is **advisory**: it only modulates reclamation *latency*,
/// never the free-time safety condition, so stale reads and racing interval
/// stores are harmless.
#[derive(Debug)]
pub struct EraPacer {
    era: CachePadded<AtomicU64>,
    /// Limbo residue above which the interval halves: a quarter of the
    /// scheme's limbo budget, so the cadence tightens well before the budget
    /// trips. `None` (no budget) keeps the interval at `IDLE_INTERVAL`.
    low_water_bytes: Option<u64>,
    /// Current allocations-per-tick interval (read on every `alloc_node`;
    /// written only by scans, and only under a budget).
    interval: CachePadded<AtomicUsize>,
}

impl EraPacer {
    /// Creates a pacer at era 1 (era 0 is reserved, see
    /// [`NO_BIRTH_ERA`](reclaim_core::NO_BIRTH_ERA)) for a scheme with the
    /// given `limbo_budget`. A budgeted pacer starts at the fast end: a fresh
    /// scheme cannot know whether a reader is about to stall, and dry scans
    /// recover the idle cadence within a few passes.
    pub(crate) fn new(limbo_budget: Option<usize>) -> Self {
        let low_water_bytes = limbo_budget.map(|budget| budget as u64 / 4);
        let interval = match low_water_bytes {
            Some(_) => FAST_INTERVAL,
            None => IDLE_INTERVAL,
        };
        Self {
            era: CachePadded::new(AtomicU64::new(1)),
            low_water_bytes,
            interval: CachePadded::new(AtomicUsize::new(interval)),
        }
    }

    /// The current era.
    #[inline]
    pub(crate) fn current(&self) -> Era {
        self.era.load(Ordering::Acquire)
    }

    /// Advances the era by one, returning the value *before* the advance.
    /// Unconditional (unlike `GlobalEpoch::try_advance`): era safety never
    /// depends on readers having caught up, only on the free-time interval
    /// overlap check, so concurrent advances merely skip numbers.
    #[inline]
    pub(crate) fn advance(&self) -> Era {
        self.era.fetch_add(1, Ordering::AcqRel)
    }

    /// The current allocations-per-tick interval. One relaxed load of a
    /// read-mostly padded line — the only pacer cost on the allocation path.
    #[inline]
    pub fn current_interval(&self) -> usize {
        self.interval.load(Ordering::Relaxed)
    }

    /// Scan-time hook: under a budget, re-chooses the tick interval from the
    /// scheme-wide limbo residue `residue` reads; without one, reads nothing.
    /// Call after the scan's frees were reported, so the residue is the
    /// garbage reservations are actually pinning. Returns `true` when this
    /// call sped the pacer up.
    pub(crate) fn adapt(&self, residue: impl FnOnce() -> u64) -> bool {
        let Some(low_water_bytes) = self.low_water_bytes else {
            return false;
        };
        let current = self.interval.load(Ordering::Relaxed);
        let next = if residue() > low_water_bytes {
            // Pressure: halve toward the fast end so fresh allocations age
            // past any stalled reservation sooner.
            (current / 2).max(FAST_INTERVAL)
        } else {
            // Dry: creep toward the idle cadence so a quiet scheme stops
            // paying shared fetch_add traffic for robustness it does not
            // need. The increase is additive (AIMD) so one quiet episode
            // cannot undo the speed-up a stall earned — re-inflating
            // multiplicatively let the next stall pin a full idle interval's
            // worth again.
            (current + FAST_INTERVAL).min(IDLE_INTERVAL)
        };
        if next != current {
            // A racing store from a concurrent scan is fine: both values are
            // inside the range and the next scan re-converges.
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
    fn the_era_starts_past_the_reserved_era_and_advances() {
        let pacer = EraPacer::new(None);
        assert!(pacer.current() > NO_BIRTH_ERA, "era 0 is reserved");
        assert_eq!(pacer.current(), 1);
        assert_eq!(pacer.advance(), 1, "advance returns the pre-advance era");
        assert_eq!(pacer.current(), 2);
    }

    #[test]
    fn without_a_budget_the_interval_stays_idle_and_reads_no_estimate() {
        let pacer = EraPacer::new(None);
        assert_eq!(pacer.current_interval(), IDLE_INTERVAL);
        for _ in 0..8 {
            assert!(!pacer.adapt(|| panic!("no budget, nothing to decide")));
            assert_eq!(pacer.current_interval(), IDLE_INTERVAL);
        }
    }

    #[test]
    fn a_budget_halves_the_interval_under_pressure_and_creeps_back_when_dry() {
        // Budget 1 KiB: the mark is 256 B of residue.
        let pacer = EraPacer::new(Some(1_024));
        assert_eq!(
            pacer.current_interval(),
            FAST_INTERVAL,
            "a budget starts at the robust (fast) end"
        );
        // Dry scans creep toward the idle cadence (+16 per scan), never past it.
        for (scan, expected) in [32, 48, 64, 64].into_iter().enumerate() {
            assert!(!pacer.adapt(|| 0), "dry scan {scan} is no speed-up");
            assert_eq!(pacer.current_interval(), expected);
        }
        assert!(!pacer.adapt(|| 256), "at the mark is not above it");
        assert_eq!(pacer.current_interval(), IDLE_INTERVAL);
        // Residue past B / 4 halves the interval — and says so — down to the
        // fast end and no further.
        assert!(pacer.adapt(|| 257), "speed-up must be signalled");
        assert_eq!(pacer.current_interval(), 32);
        assert!(pacer.adapt(|| 1 << 20));
        assert_eq!(pacer.current_interval(), FAST_INTERVAL);
        assert!(!pacer.adapt(|| 1 << 20), "clamped at the fast end");
        assert_eq!(pacer.current_interval(), FAST_INTERVAL);
        // Draining the limbo lets the interval creep up again (additively:
        // one quiet scan must not undo the speed-up the stall earned).
        for expected in [32, 48, 64] {
            assert!(!pacer.adapt(|| 0));
            assert_eq!(pacer.current_interval(), expected);
        }
    }

    #[test]
    fn pacer_interval_stays_inside_its_range_under_concurrent_scans() {
        let pacer = Arc::new(EraPacer::new(Some(40)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pacer = Arc::clone(&pacer);
                thread::spawn(move || {
                    for round in 0..1_000u64 {
                        pacer.adapt(|| if round % 2 == 0 { 100 } else { 0 });
                        let interval = pacer.current_interval();
                        assert!(
                            (FAST_INTERVAL..=IDLE_INTERVAL).contains(&interval),
                            "interval {interval}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_era_advances_all_land() {
        let pacer = Arc::new(EraPacer::new(None));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pacer = Arc::clone(&pacer);
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        pacer.advance();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pacer.current(), 1 + 4 * 1_000);
    }
}
