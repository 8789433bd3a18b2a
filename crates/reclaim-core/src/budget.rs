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
//!    of what it was handed (`peak`);
//! 2. **enforces** an optional budget
//!    ([`limbo_budget`](crate::config::SmrConfig::limbo_budget)): when the estimate crosses it,
//!    the retire path escalates in a fixed ladder — force an immediate scan,
//!    scheme-specific boosts (the HE era pacer, which adapts to this
//!    estimate, ticks faster; QSense trips its fallback path early), and as a
//!    last resort one bounded retire-side backpressure yield — with every
//!    rung counted on the stripe of the handle that pulled it
//!    ([`Counter::ForcedScans`](crate::stats::Counter::ForcedScans) and the
//!    three after it);
//! 3. **reports** through the scheme's one snapshot: `Smr::stats` carries the
//!    rung counts, the peak, the budget and the time spent over it, and
//!    [`StatsSnapshot::within_budget`](crate::stats::StatsSnapshot::within_budget)
//!    is what benches, the CLI fault matrix and CI assert against.
//!
//! ## What enforcement can and cannot promise
//!
//! The ladder only pulls levers that are *safe on the retire path*: scans
//! gated by hazard pointers, ages or era reservations may run at any point, so
//! HP, Cadence, QSense, HE, EBR and RefCount can all free garbage the moment
//! the budget trips. QSBR cannot — declaring a quiescent state mid-operation
//! would be unsound, and no scan exists — so under a stalled reader QSBR
//! *exceeds* its budget and its snapshot records exactly that. This asymmetry
//! is the point: the budget turns the paper's robust/non-robust distinction
//! into a pass/fail verdict instead of a plot a human eyeballs.
//!
//! ## Accuracy
//!
//! The estimate trails nothing: every retire and every free lands in its
//! handle's stripe before the call returns, so whoever sums the stripes reads
//! the current figure. The grain bounds how *often*
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
        }
    }

    /// The budget in bytes; 0 = tracking-only.
    pub(crate) fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Bytes a handle's limbo drifts between two looks at the estimate.
    pub(crate) fn grain(&self) -> usize {
        self.grain
    }

    /// High-water mark of the estimate so far.
    pub(crate) fn peak_bytes(&self) -> u64 {
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

    /// Total time the estimate spent over budget, the excursion in flight
    /// (if the scheme is over budget right now) included.
    pub(crate) fn time_over_budget(&self) -> Duration {
        let mut over = Duration::from_nanos(self.over_nanos.load(Ordering::Relaxed));
        let mark = self.over_since.load(Ordering::Relaxed);
        if mark != 0 {
            let now: Nanos = self.clock.now();
            over += Duration::from_nanos(now.saturating_sub(mark - 1));
        }
        over
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
        assert!(!gov.refresh(1 << 20));
        assert_eq!(gov.peak_bytes(), 1 << 20);
        assert!(!gov.refresh(0));
        assert_eq!(gov.peak_bytes(), 1 << 20, "peak is a high-water mark");
        assert_eq!(gov.budget_bytes(), 0);
        assert_eq!(gov.time_over_budget(), Duration::ZERO);
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
        // Still over: the in-flight excursion counts.
        assert!(gov.time_over_budget() >= Duration::from_millis(5));
        // Recovery closes the stopwatch.
        assert!(!gov.refresh(100));
        let settled = gov.time_over_budget();
        assert!(settled >= Duration::from_millis(5));
        clock.advance(Duration::from_millis(10));
        assert_eq!(
            gov.time_over_budget(),
            settled,
            "stopwatch stops while under budget"
        );
        assert_eq!(gov.peak_bytes(), 1_500);
        assert_eq!(gov.budget_bytes(), 1_000);
    }
}
