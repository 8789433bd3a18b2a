//! Time sources.
//!
//! The paper's Cadence (§5.1) timestamps every retired node from the system clock
//! and frees only nodes older than the rooster sleep interval `T` plus a tolerance
//! `ε`. Here that wait is counted in completed rooster wake-ups, not nanoseconds
//! ([`BarrierLedger`](crate::fence::BarrierLedger)), and no retire reads a clock.
//! What still runs on wall time — QSense's eviction timeout, the budget governor's
//! time-over-budget stopwatch — reads it through [`Clock`] (telemetry's histograms
//! read `Instant::now()` against their own origin, [`crate::telemetry`]), so that
//!
//! * production code uses a monotonic real-time clock (`Clock::real`), and
//! * tests drive a [`ManualClock`] by hand, making eviction — and the QSense
//!   path-switching protocol around it — fully deterministic.
//!
//! Timestamps are plain `u64` nanoseconds ([`Nanos`]) since an arbitrary origin
//! (scheme creation for the real clock, zero for manual clocks).
//!
//! The module also names the *logical* time of the era/interval-based schemes:
//! [`Era`], a tick of a shared monotone counter advanced on allocation batches
//! rather than by wall time (Hazard Eras / 2GE-IBR), which every
//! [`RetiredPtr`](crate::retired::RetiredPtr) has room for. The counter and
//! what paces it — one tick per 64 allocations, or under
//! [`SmrConfig::limbo_budget`](crate::config::SmrConfig::limbo_budget) an
//! interval adapted to the scheme-wide limbo-byte estimate — live in
//! `he::EraPacer`, their only user.

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
    pub(crate) fn real() -> Self {
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
    pub(crate) fn now(&self) -> Nanos {
        self.nanos.load(Ordering::Acquire)
    }

    /// Advances the clock by `delta`.
    pub fn advance(&self, delta: Duration) {
        let delta = delta.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.nanos.fetch_add(delta, Ordering::AcqRel);
    }
}

/// Converts a [`Duration`] to [`Nanos`], saturating on overflow.
pub(crate) fn duration_to_nanos(d: Duration) -> Nanos {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// An era value: a tick of the global logical clock used by interval-based
/// reclamation (Hazard Eras / 2GE-IBR).
pub type Era = u64;

/// Era `0` never occurs as a reading of a live era clock (`he::EraPacer` starts
/// at 1), so it is free to mean "before every era": nodes whose birth was never
/// stamped carry [`NO_BIRTH_ERA`] and are treated maximally conservatively by
/// the interval overlap check.
pub const NO_BIRTH_ERA: Era = 0;

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
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let manual = ManualClock::new();
        let other = manual.clone();
        manual.advance(Duration::from_secs(1));
        assert_eq!(other.now(), 1_000_000_000);
    }

    #[test]
    fn duration_conversion() {
        assert_eq!(duration_to_nanos(Duration::from_millis(3)), 3_000_000);
        assert_eq!(duration_to_nanos(Duration::ZERO), 0);
    }
}
