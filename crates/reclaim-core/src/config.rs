//! Configuration shared by every reclamation scheme.
//!
//! The paper names seven tunables; [`SmrConfig`] carries six of them so that a single
//! configuration value can be threaded through QSBR, Cadence, hazard pointers and the
//! QSense hybrid. The field-to-symbol mapping is:
//!
//! | paper symbol | field | meaning |
//! |--------------|-------|---------|
//! | `N` | [`max_threads`](SmrConfig::max_threads) | maximum number of worker threads |
//! | `K` | [`hp_per_thread`](SmrConfig::hp_per_thread) | hazard pointers per thread |
//! | `Q` | [`quiescence_threshold`](SmrConfig::quiescence_threshold) | operations batched per quiescent state |
//! | `R` | [`scan_threshold`](SmrConfig::scan_threshold) | retires between hazard-pointer scans |
//! | `C` | [`fallback_threshold`](SmrConfig::fallback_threshold) | limbo-list size that triggers the fallback path |
//! | `T` | [`rooster_interval`](SmrConfig::rooster_interval) | rooster-thread sleep interval |
//!
//! The seventh, `ε`, has no field: the paper adds it to `T` because a node's age is
//! all a 2016 process could know about its rooster's last wake-up, and a clock can be
//! skewed or a rooster oversleep. Here a node waits for a wake-up that *returned*
//! after its unlink ([`BarrierLedger`](crate::fence::BarrierLedger)); a completed
//! barrier is an event, not an estimate, and needs no tolerance.

use crate::clock::{Clock, EraAdvancePolicy};
use std::time::Duration;

/// Tunable parameters for all schemes in the QSense family.
#[derive(Clone, Debug)]
pub struct SmrConfig {
    /// `N`: maximum number of concurrently registered worker threads.
    pub max_threads: usize,
    /// `K`: number of hazard-pointer slots per thread. The paper uses 2 for the
    /// linked list, 6 for the BST and up to 35 for the skip list.
    pub hp_per_thread: usize,
    /// `Q`: number of `begin_op` calls batched before a quiescent state is declared
    /// (QSBR / QSense fast path).
    pub quiescence_threshold: usize,
    /// `R`: number of retired nodes accumulated before a hazard-pointer scan
    /// (HP / Cadence / QSense fallback path). Classic HP under its
    /// scanner-barrier protocol scans every `R ×`
    /// [`SCANNER_BARRIER_SCAN_BATCH`](crate::fence::SCANNER_BARRIER_SCAN_BATCH)
    /// retires instead, amortising the barrier each scan then opens with.
    pub scan_threshold: usize,
    /// `C`: per-thread limbo-list size that triggers the switch to the fallback path
    /// (QSense only). Property 4 of the paper requires
    /// `C > max(m·Q, N·K + T, (K + T + R) / 2)`.
    pub fallback_threshold: usize,
    /// `T`: how often the process's rooster thread issues a process-wide barrier on
    /// this scheme's behalf (Cadence / QSense fallback path; the shortest interval
    /// among a process's live schemes sets the thread's pace). `Duration::MAX`
    /// means never: the scheme's ledger then advances only when its owner issues,
    /// which deterministic tests do.
    pub rooster_interval: Duration,
    /// **Extension (paper §5.2, future work).** If set, QSense *evicts* a registered
    /// thread that has shown no activity for this long: the evicted thread stops
    /// counting towards the all-processes-active check (so the system can switch back
    /// to the fast path after a permanent thread failure) and towards grace periods
    /// (so the epoch can advance past it); its safety is covered by its hazard
    /// pointers plus deferred reclamation instead, exactly as on the fallback path.
    /// `None` (the default) disables eviction and reproduces the paper's published
    /// behaviour, where a crashed thread keeps the system in fallback mode forever.
    pub eviction_timeout: Option<Duration>,
    /// **Extension (robustness).** Scheme-wide limbo **byte** budget. When
    /// set, every scheme holds its limbo-byte estimate (bytes retired and not
    /// yet freed) against it through a [`crate::budget::BudgetGovernor`] and,
    /// on crossing the budget, escalates along a fixed ladder on the retire
    /// path: forced scan →
    /// scheme-specific boost (HE's era pacer ticks faster, QSense trips its
    /// fallback path early) → one bounded backpressure yield. `None` (the
    /// default) keeps byte *tracking* alive (peaks still show up in
    /// [`crate::stats::StatsSnapshot::peak_limbo_bytes`]) but never escalates.
    /// Schemes without a safe retire-path lever (QSBR; Leaky by design) will
    /// exceed a budget under a delinquent thread — the verdict records it.
    pub limbo_budget: Option<usize>,
    /// **Extension (era schemes).** How the global era clock is paced relative
    /// to allocation and reclamation activity (Hazard Eras / 2GE-IBR, the `he`
    /// crate): a fixed allocations-per-tick interval
    /// ([`EraAdvancePolicy::Static`], the default — the IBR literature's
    /// `epoch_freq` ballpark) or an interval that adapts to the scheme-wide
    /// limbo-byte estimate ([`EraAdvancePolicy::Adaptive`]), bounding
    /// stalled-reader garbage by bytes retired instead of a constant. See
    /// `he::EraPacer`.
    pub era_policy: EraAdvancePolicy,
    /// **Extension (observability).** Enables the telemetry histograms
    /// ([`crate::telemetry`]): guard-bracket op latency sampled 1 op in
    /// 2^[`OP_SAMPLE_SHIFT`](crate::telemetry::OP_SAMPLE_SHIFT), scan
    /// duration, and the retire→free delay distribution. Off by default —
    /// disabled, every record site costs exactly one relaxed load.
    pub telemetry: bool,
    /// Time source; swap in a manual clock for deterministic tests.
    pub clock: Clock,
}

impl SmrConfig {
    /// Configuration matching the paper's linked-list experiments
    /// (`K = 2` hazard pointers).
    pub fn for_list() -> Self {
        Self::default().with_hp_per_thread(2)
    }

    /// Configuration matching the paper's BST experiments (`K = 6`).
    pub fn for_bst() -> Self {
        Self::default().with_hp_per_thread(6)
    }

    /// Configuration matching the paper's skip-list experiments (up to `K = 35`).
    pub fn for_skiplist() -> Self {
        Self::default().with_hp_per_thread(35)
    }

    /// Sets `N`, the maximum number of worker threads.
    pub fn with_max_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "max_threads must be positive");
        self.max_threads = n;
        self
    }

    /// Sets `K`, the number of hazard-pointer slots per thread.
    pub fn with_hp_per_thread(mut self, k: usize) -> Self {
        assert!(k > 0, "hp_per_thread must be positive");
        self.hp_per_thread = k;
        self
    }

    /// Sets `Q`, the quiescence threshold.
    pub fn with_quiescence_threshold(mut self, q: usize) -> Self {
        assert!(q > 0, "quiescence_threshold must be positive");
        self.quiescence_threshold = q;
        self
    }

    /// Sets `R`, the scan threshold.
    pub fn with_scan_threshold(mut self, r: usize) -> Self {
        assert!(r > 0, "scan_threshold must be positive");
        self.scan_threshold = r;
        self
    }

    /// Sets `C`, the fallback threshold.
    pub fn with_fallback_threshold(mut self, c: usize) -> Self {
        assert!(c > 0, "fallback_threshold must be positive");
        self.fallback_threshold = c;
        self
    }

    /// Sets `T`, the rooster sleep interval (`Duration::MAX`: no rooster).
    pub fn with_rooster_interval(mut self, t: Duration) -> Self {
        assert!(!t.is_zero(), "rooster_interval must be positive");
        self.rooster_interval = t;
        self
    }

    /// Enables the eviction extension: a thread inactive for longer than `timeout` is
    /// evicted from the presence and grace-period checks (see
    /// [`eviction_timeout`](Self::eviction_timeout)). Pass `None` to disable (the
    /// paper's published behaviour).
    pub fn with_eviction_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.eviction_timeout = timeout;
        self
    }

    /// The eviction timeout in nanoseconds, if the extension is enabled.
    pub fn eviction_timeout_nanos(&self) -> Option<u64> {
        self.eviction_timeout.map(crate::clock::duration_to_nanos)
    }

    /// Sets (or clears) the scheme-wide limbo byte budget (see
    /// [`limbo_budget`](Self::limbo_budget)). A budget of `Some(0)` is
    /// rejected: zero bytes cannot hold even one retired node, so every
    /// retire would sit in permanent escalation.
    pub fn with_limbo_budget(mut self, budget: Option<usize>) -> Self {
        if let Some(bytes) = budget {
            assert!(bytes > 0, "limbo_budget must be positive when set");
        }
        self.limbo_budget = budget;
        self
    }

    /// Sets a *static* era-advance interval (allocations per global era tick)
    /// — shorthand for `with_era_policy(EraAdvancePolicy::Static(allocs))`,
    /// kept for every caller that predates the adaptive policy.
    pub fn with_era_advance_interval(mut self, allocs: usize) -> Self {
        assert!(allocs > 0, "era_advance_interval must be positive");
        self.era_policy = EraAdvancePolicy::Static(allocs);
        self
    }

    /// Sets the era-advance policy of the era schemes (see
    /// [`SmrConfig::era_policy`]).
    pub fn with_era_policy(mut self, policy: EraAdvancePolicy) -> Self {
        policy.validate();
        self.era_policy = policy;
        self
    }

    /// Enables or disables the telemetry histograms (see
    /// [`telemetry`](Self::telemetry)).
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Replaces the time source (e.g. with a manual clock for tests).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Checks the legality condition on `C` from Property 4 of the paper,
    /// `C > max(m·Q, N·K + T, (K + T + R)/2)`, where `m` is the maximum number of
    /// nodes a single operation can remove and `T` is expressed — as in the paper's
    /// proof, which counts "at most one removal per time unit" — as the number of
    /// nodes removable during one rooster interval, approximated here by the caller
    /// via `removals_per_interval`.
    pub fn fallback_threshold_is_legal(&self, m: usize, removals_per_interval: usize) -> bool {
        let c = self.fallback_threshold;
        let t = removals_per_interval;
        let nk_plus_t = self.max_threads * self.hp_per_thread + t;
        let k_t_r = (self.hp_per_thread + t + self.scan_threshold).div_ceil(2);
        c > m * self.quiescence_threshold && c > nk_plus_t && c > k_t_r
    }
}

impl Default for SmrConfig {
    fn default() -> Self {
        Self {
            max_threads: 64,
            hp_per_thread: 8,
            quiescence_threshold: 100,
            scan_threshold: 128,
            fallback_threshold: 4096,
            rooster_interval: Duration::from_millis(10),
            eviction_timeout: None,
            limbo_budget: None,
            era_policy: EraAdvancePolicy::default(),
            telemetry: false,
            clock: Clock::real(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn defaults_are_sane() {
        let cfg = SmrConfig::default();
        assert!(cfg.max_threads >= 1);
        assert!(cfg.hp_per_thread >= 1);
        assert!(!cfg.rooster_interval.is_zero() && cfg.rooster_interval != Duration::MAX);
        assert!(
            cfg.eviction_timeout.is_none(),
            "eviction is an opt-in extension; the default must match the paper"
        );
        assert!(
            cfg.limbo_budget.is_none(),
            "budgets are opt-in; the default must not change retire-path behaviour"
        );
        assert_eq!(
            cfg.era_policy,
            EraAdvancePolicy::Static(crate::clock::DEFAULT_ERA_ADVANCE_INTERVAL),
            "the era policy defaults to the pre-policy static cadence"
        );
        assert!(
            !cfg.telemetry,
            "telemetry is opt-in; the default must keep record sites to one relaxed load"
        );
    }

    #[test]
    fn era_policy_builder_accepts_both_shapes() {
        let cfg = SmrConfig::default().with_era_policy(EraAdvancePolicy::adaptive());
        assert_eq!(cfg.era_policy, EraAdvancePolicy::adaptive());
        let cfg = cfg.with_era_advance_interval(32);
        assert_eq!(
            cfg.era_policy,
            EraAdvancePolicy::Static(32),
            "the interval shorthand overwrites the policy"
        );
    }

    #[test]
    #[should_panic(expected = "min_interval must not exceed max_interval")]
    fn incoherent_era_policy_is_rejected_at_the_builder() {
        let _ = SmrConfig::default().with_era_policy(EraAdvancePolicy::Adaptive {
            min_interval: 9,
            max_interval: 3,
            limbo_low_water_bytes: 0,
        });
    }

    #[test]
    fn builders_set_every_field() {
        let manual = ManualClock::new();
        let cfg = SmrConfig::default()
            .with_max_threads(4)
            .with_hp_per_thread(3)
            .with_quiescence_threshold(10)
            .with_scan_threshold(20)
            .with_fallback_threshold(500)
            .with_rooster_interval(Duration::from_millis(5))
            .with_eviction_timeout(Some(Duration::from_millis(50)))
            .with_limbo_budget(Some(1 << 20))
            .with_era_advance_interval(16)
            .with_telemetry(true)
            .with_clock(Clock::manual(manual));
        assert_eq!(cfg.max_threads, 4);
        assert_eq!(cfg.hp_per_thread, 3);
        assert_eq!(cfg.quiescence_threshold, 10);
        assert_eq!(cfg.scan_threshold, 20);
        assert_eq!(cfg.fallback_threshold, 500);
        assert_eq!(cfg.rooster_interval, Duration::from_millis(5));
        assert_eq!(cfg.eviction_timeout_nanos(), Some(50_000_000));
        assert_eq!(cfg.limbo_budget, Some(1 << 20));
        assert_eq!(cfg.era_policy, EraAdvancePolicy::Static(16));
        assert!(cfg.telemetry);
        assert!(cfg.clock.is_manual());
    }

    #[test]
    fn dataset_presets_match_paper_hp_counts() {
        assert_eq!(SmrConfig::for_list().hp_per_thread, 2);
        assert_eq!(SmrConfig::for_bst().hp_per_thread, 6);
        assert_eq!(SmrConfig::for_skiplist().hp_per_thread, 35);
    }

    #[test]
    fn legality_condition_matches_property_4() {
        let cfg = SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(2)
            .with_quiescence_threshold(100)
            .with_scan_threshold(128)
            .with_fallback_threshold(4096);
        // m = 1 removal per op, ~1000 removals per rooster interval.
        assert!(cfg.fallback_threshold_is_legal(1, 1000));
        // A tiny C violates the condition.
        let tiny = cfg.clone().with_fallback_threshold(10);
        assert!(!tiny.fallback_threshold_is_legal(1, 1000));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_threads_rejected() {
        let _ = SmrConfig::default().with_max_threads(0);
    }

    #[test]
    #[should_panic(expected = "rooster_interval must be positive")]
    fn zero_rooster_interval_rejected() {
        let _ = SmrConfig::default().with_rooster_interval(Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "limbo_budget must be positive")]
    fn zero_limbo_budget_rejected() {
        let _ = SmrConfig::default().with_limbo_budget(Some(0));
    }

    #[test]
    fn limbo_budget_can_be_cleared() {
        let cfg = SmrConfig::default()
            .with_limbo_budget(Some(4096))
            .with_limbo_budget(None);
        assert!(cfg.limbo_budget.is_none());
    }
}
