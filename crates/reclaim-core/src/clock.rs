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
//! The module also names the *logical* time of the era/interval-based schemes:
//! [`Era`], a tick of a shared monotone counter advanced on allocation batches
//! rather than by wall time (Hazard Eras / 2GE-IBR), which every
//! [`RetiredPtr`](crate::retired::RetiredPtr) has room for, and the
//! [`EraAdvancePolicy`] [`SmrConfig`](crate::config::SmrConfig) carries —
//! fixed allocations-per-tick (the classic `epoch_freq` cadence), or adapted to
//! the scheme-wide limbo-byte estimate (bytes retired and not yet freed). The counter
//! itself and the pacer that runs the policy are `he`'s (`he::EraClock`,
//! `he::EraPacer`), their only user.

use std::sync::atomic::{AtomicU64, Ordering};
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

/// Era `0` never occurs as a reading of a live era clock (`he::EraClock` starts
/// at 1), so it is free to mean "before every era": nodes whose birth was never
/// stamped carry [`NO_BIRTH_ERA`] and are treated maximally conservatively by
/// the interval overlap check.
pub const NO_BIRTH_ERA: Era = 0;

/// How the era schemes pace advances of their global era clock relative to
/// allocation and reclamation activity (run by `he::EraPacer`).
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
    pub fn bounds(&self) -> (usize, usize, usize) {
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
    /// `min <= max`). Called by `he::EraPacer::new` and the config builder.
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
    fn default_policy_is_the_compatible_static_cadence() {
        assert_eq!(
            EraAdvancePolicy::default(),
            EraAdvancePolicy::Static(DEFAULT_ERA_ADVANCE_INTERVAL)
        );
        EraAdvancePolicy::adaptive().validate();
    }
}
