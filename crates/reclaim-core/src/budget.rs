//! Scheme-wide limbo **byte** budgets with graceful degradation.
//!
//! The paper's robustness claim is about *memory*, not node counts: a scheme
//! is robust when the garbage a stalled, silent or dead thread pins stays
//! bounded in bytes. Every scheme embeds one [`BudgetGovernor`] that
//!
//! 1. **tracks** the scheme-wide limbo bytes without keeping a copy of them:
//!    it is *handed* the estimate — `retired_bytes − freed_bytes` summed over
//!    the scheme's counter stripes
//!    ([`SchemeCore::limbo_estimate`](crate::limbo::SchemeCore::limbo_estimate)),
//!    which a dying handle's parked leftovers stay in because they are retired
//!    and not freed — whenever a handle looks, and records the high-water mark
//!    of what it was handed ([`peak`](BudgetGovernor::peak_bytes));
//! 2. **enforces** an optional budget
//!    ([`limbo_budget`](crate::config::SmrConfig::limbo_budget)): when the estimate crosses it,
//!    the retire path escalates in a fixed ladder — force an immediate scan,
//!    scheme-specific boosts (the HE era pacer, which adapts to this
//!    estimate, ticks faster; QSense trips its fallback path early), and as a
//!    last resort one bounded retire-side backpressure yield — with every
//!    rung counted;
//! 3. **answers** for itself: [`BudgetGovernor::verdict`] returns a
//!    [`BudgetVerdict`] (peak bytes, time spent over budget, escalations
//!    taken) that benches, the CLI fault matrix and CI assert against.
//!
//! ## What enforcement can and cannot promise
//!
//! The ladder only pulls levers that are *safe on the retire path*: scans
//! gated by hazard pointers, ages or era reservations may run at any point, so
//! HP, Cadence, QSense, HE, EBR and RefCount can all free garbage the moment
//! the budget trips. QSBR cannot — declaring a quiescent state mid-operation
//! would be unsound, and no scan exists — so under a stalled reader QSBR
//! *exceeds* its budget and the verdict records exactly that. This asymmetry
//! is the point: the budget turns the paper's robust/non-robust distinction
//! into a pass/fail verdict instead of a plot a human eyeballs.
//!
//! ## Accuracy
//!
//! The estimate trails nothing: every retire and every free lands in its
//! handle's stripe before the call returns, so whoever sums the stripes reads
//! the current figure. The [`grain`](BudgetGovernor::grain) bounds how *often*
//! a handle looks — once per grain of drift in its own limbo, and at every
//! scan, flush and park — so a crossing is acted on, and the peak and the
//! stopwatch are brought up to date, at most `handles × grain` bytes late. The
//! grain is sized at `budget / 64` (clamped to [256 B, 64 KiB]) so that slack
//! is a small fraction of any budget it could hide under. Size-unknown nodes
//! (raw `retire`) weigh zero bytes: the estimate under-counts rather than
//! over-counts, matching the stamping contract of
//! [`RetiredPtr`](crate::retired::RetiredPtr).

use crate::clock::{Clock, Nanos};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Queryable outcome of running a scheme under a limbo budget: the evidence a
/// robustness verdict is made of.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetVerdict {
    /// The configured budget in bytes; 0 means tracking-only (no enforcement).
    pub budget_bytes: u64,
    /// The limbo-byte estimate at the moment the verdict was taken.
    pub current_bytes: u64,
    /// High-water mark of the limbo-byte estimate over the scheme's lifetime.
    pub peak_bytes: u64,
    /// Total wall-clock time the estimate spent above the budget.
    pub time_over_budget: Duration,
    /// Escalation rung 1: scans forced on the retire path by a budget breach.
    pub forced_scans: u64,
    /// Escalation rung 2a: era-pacer speed-ups under an enforced budget (HE
    /// only).
    pub pacer_boosts: u64,
    /// Escalation rung 2b: early fallback-path trips (QSense only).
    pub fallback_trips: u64,
    /// Escalation rung 3: bounded retire-side backpressure yields taken after
    /// a forced scan failed to get back under budget.
    pub backpressure_events: u64,
}

impl BudgetVerdict {
    /// True when the scheme never exceeded its budget (vacuously true without
    /// one). This is the bit CI asserts for the robust schemes.
    pub fn within_budget(&self) -> bool {
        self.budget_bytes == 0 || self.peak_bytes <= self.budget_bytes
    }

    /// Total escalations of any kind — "did graceful degradation actually
    /// engage, or was the run never under pressure".
    pub fn escalations(&self) -> u64 {
        self.forced_scans + self.pacer_boosts + self.fallback_trips + self.backpressure_events
    }
}

/// Budget-enforcement state over a limbo-byte estimate it is handed, never
/// keeps. One per scheme instance; handles bring it the estimate at a bounded
/// grain. See the module docs for the design.
#[derive(Debug)]
pub struct BudgetGovernor {
    /// Budget in bytes; 0 = track (peak, estimate) but never escalate.
    budget: u64,
    /// Minimum per-handle byte drift between looks (see module docs).
    grain: usize,
    clock: Clock,
    /// High-water mark of the estimates handed in.
    peak: AtomicU64,
    /// `now + 1` at the moment the estimate crossed the budget (0 = currently
    /// under). The +1 disambiguates "crossed at t=0" from "not over".
    over_since: AtomicU64,
    /// Accumulated nanoseconds spent over budget across completed excursions.
    over_nanos: AtomicU64,
    forced_scans: AtomicU64,
    pacer_boosts: AtomicU64,
    fallback_trips: AtomicU64,
    backpressure_events: AtomicU64,
}

impl BudgetGovernor {
    /// Creates a governor. `budget` of `None` disables enforcement but keeps
    /// byte tracking (estimate + peak) alive at the idle grain.
    pub(crate) fn new(budget: Option<usize>, clock: Clock) -> Self {
        let budget = budget.unwrap_or(0) as u64;
        let grain = if budget > 0 {
            ((budget / 64) as usize).clamp(256, 64 * 1024)
        } else {
            64 * 1024
        };
        Self {
            budget,
            grain,
            clock,
            peak: AtomicU64::new(0),
            over_since: AtomicU64::new(0),
            over_nanos: AtomicU64::new(0),
            forced_scans: AtomicU64::new(0),
            pacer_boosts: AtomicU64::new(0),
            fallback_trips: AtomicU64::new(0),
            backpressure_events: AtomicU64::new(0),
        }
    }

    /// True when a budget is set and breaches escalate.
    pub fn enforcing(&self) -> bool {
        self.budget > 0
    }

    /// Bytes a handle's limbo drifts between two looks at the estimate.
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// High-water mark of the estimate so far.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Folds `estimate` — the scheme-wide limbo bytes as of now — into the
    /// peak and the over-budget stopwatch; true iff a budget is set and the
    /// estimate exceeds it, the ladder's trigger. The peak is read first and
    /// written only when passed: in steady state this shares its line with
    /// every handle of the scheme without writing it.
    pub(crate) fn refresh(&self, estimate: u64) -> bool {
        if estimate > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(estimate, Ordering::Relaxed);
        }
        if self.budget == 0 {
            return false;
        }
        let over = estimate > self.budget;
        let mark = self.over_since.load(Ordering::Relaxed);
        if over && mark == 0 {
            // Racing markers both try to stamp; one wins, which is enough —
            // the stopwatch is diagnostics, not a safety property.
            let now = self.clock.now();
            let _ = self.over_since.compare_exchange(
                0,
                now.saturating_add(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        } else if !over
            && mark != 0
            && self
                .over_since
                .compare_exchange(mark, 0, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            let now = self.clock.now();
            self.over_nanos
                .fetch_add(now.saturating_sub(mark - 1), Ordering::Relaxed);
        }
        over
    }

    /// Counts a forced retire-path scan (ladder rung 1).
    pub(crate) fn count_forced_scan(&self) {
        self.forced_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an era-pacer speed-up under an enforced budget (ladder rung 2a,
    /// HE).
    pub fn count_pacer_boost(&self) {
        self.pacer_boosts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an early fallback-path trip (ladder rung 2b, QSense).
    pub fn count_fallback_trip(&self) {
        self.fallback_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one bounded retire-side backpressure yield (ladder rung 3).
    pub(crate) fn count_backpressure(&self) {
        self.backpressure_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the run so far, around the `estimate` of now. If the scheme
    /// is over budget right now the in-flight excursion is included in
    /// `time_over_budget`.
    pub fn verdict(&self, estimate: u64) -> BudgetVerdict {
        let mut over = Duration::from_nanos(self.over_nanos.load(Ordering::Relaxed));
        let mark = self.over_since.load(Ordering::Relaxed);
        if mark != 0 {
            let now: Nanos = self.clock.now();
            over += Duration::from_nanos(now.saturating_sub(mark - 1));
        }
        BudgetVerdict {
            budget_bytes: self.budget,
            current_bytes: estimate,
            peak_bytes: self.peak_bytes(),
            time_over_budget: over,
            forced_scans: self.forced_scans.load(Ordering::Relaxed),
            pacer_boosts: self.pacer_boosts.load(Ordering::Relaxed),
            fallback_trips: self.fallback_trips.load(Ordering::Relaxed),
            backpressure_events: self.backpressure_events.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn governor(budget: Option<usize>) -> (BudgetGovernor, ManualClock) {
        let manual = ManualClock::new();
        (
            BudgetGovernor::new(budget, Clock::manual(manual.clone())),
            manual,
        )
    }

    #[test]
    fn tracking_only_governor_records_peak_but_never_escalates() {
        let (gov, _clock) = governor(None);
        assert!(!gov.enforcing());
        assert!(!gov.refresh(1 << 20));
        assert_eq!(gov.peak_bytes(), 1 << 20);
        assert!(!gov.refresh(0));
        assert_eq!(gov.peak_bytes(), 1 << 20, "peak is a high-water mark");
        let verdict = gov.verdict(0);
        assert_eq!(verdict.current_bytes, 0, "the verdict keeps no estimate");
        assert!(verdict.within_budget());
        assert_eq!(verdict.escalations(), 0);
        assert_eq!(verdict.time_over_budget, Duration::ZERO);
    }

    #[test]
    fn grain_clamps_to_sane_bounds() {
        let (sized, _) = governor(Some(1 << 20));
        assert_eq!(sized.grain(), (1 << 20) / 64);
        let (tiny, _) = governor(Some(64));
        assert_eq!(tiny.grain(), 256, "floor keeps the hot path cheap");
        let (huge, _) = governor(Some(1 << 30));
        assert_eq!(huge.grain(), 64 * 1024, "ceiling keeps the looks frequent");
    }

    #[test]
    fn crossing_the_budget_escalates_and_times_the_excursion() {
        let (gov, clock) = governor(Some(1_000));
        assert!(!gov.refresh(900));
        clock.advance(Duration::from_millis(1));
        assert!(gov.refresh(1_500), "estimate over budget");
        clock.advance(Duration::from_millis(5));
        // Still over: the in-flight excursion shows up in the verdict.
        assert!(gov.verdict(1_500).time_over_budget >= Duration::from_millis(5));
        assert!(!gov.verdict(1_500).within_budget());
        // Recovery closes the stopwatch.
        assert!(!gov.refresh(100));
        let settled = gov.verdict(100).time_over_budget;
        assert!(settled >= Duration::from_millis(5));
        clock.advance(Duration::from_millis(10));
        assert_eq!(
            gov.verdict(100).time_over_budget,
            settled,
            "stopwatch stops while under budget"
        );
        assert_eq!(gov.verdict(100).peak_bytes, 1_500);
    }

    #[test]
    fn escalation_counters_land_in_the_verdict() {
        let (gov, _clock) = governor(Some(10));
        gov.count_forced_scan();
        gov.count_forced_scan();
        gov.count_pacer_boost();
        gov.count_fallback_trip();
        gov.count_backpressure();
        let verdict = gov.verdict(0);
        assert_eq!(verdict.forced_scans, 2);
        assert_eq!(verdict.pacer_boosts, 1);
        assert_eq!(verdict.fallback_trips, 1);
        assert_eq!(verdict.backpressure_events, 1);
        assert_eq!(verdict.escalations(), 5);
    }

    #[test]
    fn verdict_without_budget_is_vacuously_within() {
        let (gov, _clock) = governor(None);
        gov.refresh(u64::MAX / 2);
        assert!(gov.verdict(u64::MAX / 2).within_budget());
        assert_eq!(gov.verdict(0).budget_bytes, 0);
    }
}
