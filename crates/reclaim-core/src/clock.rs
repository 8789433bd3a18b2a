//! Time sources.
//!
//! The paper's Cadence (§5.1) timestamps every retired node from the system clock
//! and frees only nodes older than the rooster sleep interval `T` plus a tolerance
//! `ε`. Here that wait is counted in completed rooster wake-ups, not nanoseconds
//! ([`BarrierLedger`](crate::fence::BarrierLedger)), and no retire reads a clock.
//! What still runs on wall time — QSense's eviction timeout, the budget governor's
//! time-over-budget stopwatch, telemetry's latency and delay histograms — reads it
//! through [`Clock`], so that
//!
//! * production code uses a monotonic real-time clock ([`Clock::real`]), and
//! * tests drive a [`ManualClock`] by hand, making eviction — and the QSense
//!   path-switching protocol around it — fully deterministic.
//!
//! Timestamps are plain `u64` nanoseconds ([`Nanos`]) since an arbitrary origin
//! (scheme creation for the real clock, zero for manual clocks).
//!
//! The module also holds the *logical* clock of the era/interval-based schemes:
//! [`EraClock`], a shared monotone counter advanced on allocation batches rather
//! than by wall time (Hazard Eras / 2GE-IBR — the `he` crate).
//!
//! *When* the era ticks is a policy, not a constant: [`EraPacer`] co-locates
//! the clock with an [`EraAdvancePolicy`] that either fixes the
//! allocations-per-tick interval (the classic `epoch_freq` cadence) or adapts
//! it to the scheme-wide limbo-byte estimate the budget governor keeps —
//! faster ticks while garbage accumulates behind a stalled reader, decaying to
//! an idle floor when scans run dry (the DEBRA/Hyaline observation that
//! advancement should follow *reclamation pressure*, not allocation count).

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A timestamp or duration in nanoseconds.
pub type Nanos = u64;

/// A monotonic nanosecond clock, either real or manually driven.
///
/// Cloning is cheap; clones share the same underlying time source.
#[derive(Clone, Debug)]
pub struct Clock {
    source: Source,
}

#[derive(Clone, Debug)]
enum Source {
    /// Monotonic wall clock, measured from `origin`.
    Real { origin: Instant },
    /// Test clock advanced explicitly via [`ManualClock::advance`].
    Manual(ManualClock),
}

impl Clock {
    /// A real, monotonic clock starting at zero now.
    pub fn real() -> Self {
        Self {
            source: Source::Real {
                origin: Instant::now(),
            },
        }
    }

    /// A clock backed by the given manual source (for tests).
    pub fn manual(manual: ManualClock) -> Self {
        Self {
            source: Source::Manual(manual),
        }
    }

    /// Current time in nanoseconds since this clock's origin.
    pub fn now(&self) -> Nanos {
        match &self.source {
            Source::Real { origin } => {
                let elapsed = origin.elapsed();
                // Saturate rather than overflow: ~584 years of nanoseconds fit in u64,
                // so this is purely defensive.
                elapsed.as_nanos().min(u128::from(u64::MAX)) as u64
            }
            Source::Manual(manual) => manual.now(),
        }
    }

    /// True if this clock is manually driven.
    pub fn is_manual(&self) -> bool {
        matches!(self.source, Source::Manual(_))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::real()
    }
}

/// A shared, manually advanced time source for deterministic tests.
#[derive(Clone, Debug, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A manual clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current manual time.
    pub fn now(&self) -> Nanos {
        self.nanos.load(Ordering::Acquire)
    }

    /// Advances the clock by `delta`.
    pub fn advance(&self, delta: Duration) {
        let delta = delta.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.nanos.fetch_add(delta, Ordering::AcqRel);
    }

    /// Sets the clock to an absolute value. Panics if this would move time backwards,
    /// since every consumer assumes monotonicity.
    pub fn set(&self, now: Nanos) {
        let prev = self.nanos.swap(now, Ordering::AcqRel);
        assert!(prev <= now, "ManualClock must not move backwards");
    }
}

/// Converts a [`Duration`] to [`Nanos`], saturating on overflow.
pub fn duration_to_nanos(d: Duration) -> Nanos {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// An era value: a tick of the global logical clock used by interval-based
/// reclamation (Hazard Eras / 2GE-IBR).
pub type Era = u64;

/// Era `0` never occurs as a reading of a live [`EraClock`] (the clock starts at
/// 1), so it is free to mean "before every era": nodes whose birth was never
/// stamped carry [`NO_BIRTH_ERA`] and are treated maximally conservatively by
/// the interval overlap check.
pub const NO_BIRTH_ERA: Era = 0;

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
    /// Creates a clock at era 1 (era 0 is reserved, see [`NO_BIRTH_ERA`]).
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

/// How the era schemes pace advances of the global [`EraClock`] relative to
/// allocation and reclamation activity (see [`EraPacer`]).
///
/// The interval is the number of node allocations between era ticks. A smaller
/// interval bounds the garbage a stalled reader pins more tightly — fewer nodes
/// share its announced era — at the cost of more shared `fetch_add` traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EraAdvancePolicy {
    /// Advance once per a fixed number of allocations (plus once per scan):
    /// the original Hazard-Eras / IBR `epoch_freq` cadence. The garbage a
    /// stalled reader pins is bounded only as tightly as this constant.
    Static(usize),
    /// Advance on a variable interval driven by the scheme-wide limbo-byte
    /// estimate: after each scan the interval adapts AIMD-style — it *halves*
    /// (down to `min_interval`) while the estimate sits above the low-water
    /// mark, and creeps back up by `min_interval` per dry scan (up to
    /// `max_interval`, the idle floor). The asymmetry reacts to a stall within
    /// one scan but does not forget it within one quiet episode.
    /// Stalled-reader garbage is then bounded by *bytes retired*, not by an
    /// allocation count: the more limbo accumulates, the faster fresh
    /// allocations age past any stalled reservation.
    Adaptive {
        /// Fastest tick: era advances at least every `min_interval` allocations
        /// under limbo pressure.
        min_interval: usize,
        /// Idle floor: with no limbo pressure the interval decays up to this,
        /// bounding steady-state shared `fetch_add` traffic.
        max_interval: usize,
        /// Scheme-wide in-limbo bytes above which the pacer speeds up. Under
        /// an enforced `limbo_budget` a quarter of the budget takes its place,
        /// so the cadence tightens well before the budget trips.
        limbo_low_water_bytes: usize,
    },
}

/// The allocation count of the default static cadence (the IBR literature's
/// `epoch_freq` ballpark).
pub const DEFAULT_ERA_ADVANCE_INTERVAL: usize = 64;

impl EraAdvancePolicy {
    /// The adaptive policy with default bounds: ticks between every 8 and
    /// every 512 allocations, speeding up once more than 64 KiB sit in limbo
    /// scheme-wide.
    pub fn adaptive() -> Self {
        EraAdvancePolicy::Adaptive {
            min_interval: 8,
            max_interval: 512,
            limbo_low_water_bytes: 64 * 1024,
        }
    }

    /// The policy as `(min_interval, max_interval, limbo_low_water_bytes)`: a
    /// static policy is the single-point range `[n, n]`, whose mark is moot.
    fn bounds(&self) -> (usize, usize, usize) {
        match *self {
            EraAdvancePolicy::Static(interval) => (interval, interval, 0),
            EraAdvancePolicy::Adaptive {
                min_interval,
                max_interval,
                limbo_low_water_bytes,
            } => (min_interval, max_interval, limbo_low_water_bytes),
        }
    }

    /// Panics unless the policy's parameters are coherent (positive intervals,
    /// `min <= max`). Called by [`EraPacer::new`] and the config builder.
    pub fn validate(&self) {
        let (min_interval, max_interval, _) = self.bounds();
        assert!(min_interval > 0, "era advance interval must be positive");
        assert!(
            min_interval <= max_interval,
            "min_interval must not exceed max_interval"
        );
    }
}

impl Default for EraAdvancePolicy {
    /// The static cadence at [`DEFAULT_ERA_ADVANCE_INTERVAL`].
    fn default() -> Self {
        EraAdvancePolicy::Static(DEFAULT_ERA_ADVANCE_INTERVAL)
    }
}

/// The era clock plus the policy state that decides *when* it ticks.
///
/// [`EraClock`] answers "what era is it"; `EraPacer` co-locates the answer to
/// "how often should allocations move it forward": an interval inside the
/// policy's `[min_interval, max_interval]` range, re-chosen after every scan
/// from the scheme-wide limbo-byte estimate ([`adapt`](Self::adapt)). The
/// pacer keeps no estimate of its own — the scheme hands it the one its budget
/// governor already maintains — and a static policy is the range `[n, n]`,
/// which never moves and never asks.
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
    use std::thread;

    #[test]
    fn real_clock_is_monotonic() {
        let clock = Clock::real();
        let a = clock.now();
        thread::sleep(Duration::from_millis(2));
        let b = clock.now();
        assert!(b > a, "expected time to advance: {a} -> {b}");
        assert!(!clock.is_manual());
    }

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let manual = ManualClock::new();
        let clock = Clock::manual(manual.clone());
        assert_eq!(clock.now(), 0);
        manual.advance(Duration::from_micros(5));
        assert_eq!(clock.now(), 5_000);
        manual.advance(Duration::from_nanos(1));
        assert_eq!(clock.now(), 5_001);
        assert!(clock.is_manual());
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let manual = ManualClock::new();
        let other = manual.clone();
        manual.advance(Duration::from_secs(1));
        assert_eq!(other.now(), 1_000_000_000);
    }

    #[test]
    fn manual_set_accepts_equal_time() {
        let manual = ManualClock::new();
        manual.set(10);
        manual.set(10);
        assert_eq!(manual.now(), 10);
    }

    #[test]
    #[should_panic(expected = "must not move backwards")]
    fn manual_set_rejects_backwards_jump() {
        let manual = ManualClock::new();
        manual.set(10);
        manual.set(9);
    }

    #[test]
    fn duration_conversion() {
        assert_eq!(duration_to_nanos(Duration::from_millis(3)), 3_000_000);
        assert_eq!(duration_to_nanos(Duration::ZERO), 0);
    }

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
    fn default_policy_is_the_compatible_static_cadence() {
        assert_eq!(
            EraAdvancePolicy::default(),
            EraAdvancePolicy::Static(DEFAULT_ERA_ADVANCE_INTERVAL)
        );
        EraAdvancePolicy::adaptive().validate();
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
