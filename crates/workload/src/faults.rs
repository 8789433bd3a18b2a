//! Seeded, deterministic fault injection: the robustness claims as runnable
//! scenarios.
//!
//! A [`FaultPlan`] is a seeded, deterministic schedule of one injected fault
//! running against a background allocate→retire churn with handle churn
//! (the writer is dropped and re-registered every few episodes, exercising
//! the park/adopt path) — so the scheme × fault matrix the paper argues about
//! informally becomes something the CLI and CI can execute and assert on:
//!
//! * [`FaultKind::StalledReader`] — a reader re-enters an operation each
//!   episode and goes silent inside it (the paper's delay experiment, §7.2);
//! * [`FaultKind::SilentThread`] — a thread registers and then never
//!   participates at all: no operations, no quiescent states, no exit;
//! * [`FaultKind::LeakedHandle`] — a thread retires garbage mid-operation and
//!   then drops its handle without ever flushing; the parked bytes must stay
//!   visible to the limbo accounting until a survivor adopts them;
//! * [`FaultKind::RandomDelay`] — a seeded coin decides each episode whether
//!   the reader stalls or passes an operation boundary, so delays of varying
//!   length land at reproducible but non-periodic points.
//!
//! Every retired node carries the same fixed [`PAYLOAD_BYTES`] payload, so
//! byte budgets translate to node counts by hand. A run is single-threaded and
//! allocation-order deterministic (a "stall" is a handle that begins an
//! operation and stops), and nothing in it sleeps: the rooster schemes run
//! without a rooster ([`default_fault_config`]) and [`run_fault`] enters one
//! completed wake-up per episode through their ledger. So two runs differing
//! only in scheme — or only in whether HE runs under a limbo budget, which is
//! what the stalled reader shows best: unbudgeted, HE pins up to one 64-node
//! era interval of the burst per stall, budgeted its pacer ticks faster with
//! every stall — are sample-by-sample comparable (`tests/robustness_bounds.rs`).

use crate::generator::SplitMix64;
use crate::sampler::{peak, LimboSampler};
use crate::structures::SchemeKind;
use reclaim_core::{
    retire_box_with_birth, BarrierLedger, Leaky, Smr, SmrConfig, SmrHandle, StatsSnapshot,
};
use std::sync::Arc;
use std::time::Duration;

/// Size of every node a fault run retires. 256 bytes sits between the small
/// list node and the fat skip-list tower, and divides budgets evenly.
pub const PAYLOAD_BYTES: usize = 256;

/// Which fault a plan injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A reader stalled mid-operation while the background churn runs.
    StalledReader,
    /// A registered thread that never participates (and never exits).
    SilentThread,
    /// A handle that retires garbage mid-operation and is dropped without an
    /// explicit flush halfway through the run.
    LeakedHandle,
    /// Seeded random per-episode stalls of the reader.
    RandomDelay,
}

impl FaultKind {
    /// Name used on the CLI and in the robustness-matrix JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::StalledReader => "stalled-reader",
            FaultKind::SilentThread => "silent-thread",
            FaultKind::LeakedHandle => "leaked-handle",
            FaultKind::RandomDelay => "random-delay",
        }
    }

    /// Parses a CLI name back into a kind.
    pub fn parse(name: &str) -> Option<FaultKind> {
        Self::all().into_iter().find(|kind| kind.name() == name)
    }

    /// Every fault, in matrix order.
    pub fn all() -> [FaultKind; 4] {
        [
            FaultKind::StalledReader,
            FaultKind::SilentThread,
            FaultKind::LeakedHandle,
            FaultKind::RandomDelay,
        ]
    }
}

/// Shape of one fault run: which fault, how much background churn, and the
/// seed that makes the random-delay schedule reproducible.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// The injected fault.
    pub kind: FaultKind,
    /// Seed for the deterministic delay schedule (random-delay only; the other
    /// faults ignore it).
    pub seed: u64,
    /// Number of episodes (one writer burst + forced reclamation pass each).
    pub episodes: usize,
    /// Allocate→retire pairs the background writer performs per episode.
    pub burst: usize,
    /// Drop and re-register the writer handle every this many episodes
    /// (0 disables churn).
    pub churn_every: usize,
}

impl FaultPlan {
    /// A plan for `kind` with the default matrix shape.
    pub fn new(kind: FaultKind) -> Self {
        Self {
            kind,
            seed: 0x5eed_cafe,
            episodes: 24,
            burst: 256,
            churn_every: 8,
        }
    }

    /// Bytes the background churn retires per episode — the unit budgets are
    /// naturally expressed in.
    pub fn episode_bytes(&self) -> usize {
        self.burst * PAYLOAD_BYTES
    }
}

/// What one fault run produced: the limbo trajectory plus the scheme's own
/// snapshot at its end.
#[derive(Clone, Debug)]
pub struct FaultResult {
    /// Scheme name ("qsbr", "hp", ...), as reported by the scheme itself.
    pub scheme: &'static str,
    /// The injected fault.
    pub fault: FaultKind,
    /// Scheme-wide in-limbo node count after each episode's reclamation pass.
    pub limbo_samples: Vec<u64>,
    /// Scheme-wide in-limbo byte count, sampled at the same instants.
    pub limbo_byte_samples: Vec<u64>,
    /// The scheme's snapshot after the final cleanup flush: `retired` counts
    /// the whole run (background churn + the fault's own), `in_limbo()` and
    /// `limbo_bytes()` what the cleanup left, and `peak_limbo_bytes` — unlike
    /// the episode samples — also the peak *inside* an episode, before the
    /// flush; with the budget, the time over it and every escalation taken.
    pub stats: StatsSnapshot,
}

impl FaultResult {
    /// The highest sampled in-limbo node count.
    pub fn peak_limbo(&self) -> u64 {
        peak(&self.limbo_samples)
    }
}

/// Runs `plan` against `scheme` and returns the sampled trajectory plus the
/// scheme's closing snapshot. Generic over [`Smr`] so era schemes (whose
/// `alloc_node` stamps real birth eras) and the epoch schemes run the
/// byte-identical operation sequence. `wake_up` is the ledger of a rooster
/// scheme (Cadence, QSense): after each episode the run enters one
/// completed wake-up there, where a rooster would have ticked, so the
/// episode's retires are reclaimable by the next pass.
// Sanctioned raw-protocol site: the fault injector drives the raw retire
// pipeline below the guard layer on purpose, measuring the scheme itself.
#[allow(clippy::disallowed_methods)]
pub fn run_fault<S: Smr>(
    scheme: &Arc<S>,
    plan: &FaultPlan,
    wake_up: Option<&BarrierLedger>,
) -> FaultResult {
    let mut rng = SplitMix64(plan.seed);
    let mut sampler = LimboSampler::with_capacity(plan.episodes);

    // The faulty participant and the background writer.
    let mut faulty = Some(scheme.register());
    let mut writer = Some(scheme.register());
    let mut faulty_mid_op = false;

    if matches!(
        plan.kind,
        FaultKind::StalledReader | FaultKind::LeakedHandle
    ) {
        // Both faults misbehave from *inside* an operation: the reader stalls
        // there, the leaked handle retires (and later dies) there.
        faulty
            .as_mut()
            .expect("faulty handle present at start")
            .begin_op();
        faulty_mid_op = true;
    }

    for episode in 0..plan.episodes {
        match plan.kind {
            FaultKind::StalledReader => {
                // Re-stall: pass exactly one operation boundary, then go
                // silent again for the rest of the episode.
                let f = faulty.as_mut().expect("stalled reader lives all run");
                f.end_op();
                f.begin_op();
            }
            FaultKind::SilentThread => {
                // Registered, never participating: the fault is the absence
                // of any call.
            }
            FaultKind::LeakedHandle => {
                if let Some(f) = faulty.as_mut() {
                    // Retire a burst mid-operation, never flushing.
                    for _ in 0..plan.burst {
                        let birth = f.alloc_node();
                        let ptr = Box::into_raw(Box::new([0u8; PAYLOAD_BYTES]));
                        // SAFETY: freshly boxed, unlinked by construction,
                        // retired once.
                        unsafe { retire_box_with_birth(f, ptr, birth) };
                    }
                }
                if episode + 1 == plan.episodes / 2 {
                    // The leak: dropped mid-operation, without an explicit
                    // flush. Whatever the handle's own drop cannot free must
                    // park *visibly* — the byte accounting may never dip here.
                    drop(faulty.take());
                    faulty_mid_op = false;
                }
            }
            FaultKind::RandomDelay => {
                let f = faulty.as_mut().expect("delayed reader lives all run");
                if faulty_mid_op {
                    f.end_op();
                    faulty_mid_op = false;
                }
                if rng.next_u64() & 1 == 0 {
                    f.begin_op();
                    faulty_mid_op = true;
                }
            }
        }

        // The background churn is identical across faults, so trajectories
        // differ only by the injected failure.
        let w = writer.as_mut().expect("writer handle is always present");
        for _ in 0..plan.burst {
            w.begin_op();
            let birth = w.alloc_node();
            let ptr = Box::into_raw(Box::new([0u8; PAYLOAD_BYTES]));
            // SAFETY: freshly boxed, unlinked by construction, retired once.
            unsafe { retire_box_with_birth(w, ptr, birth) };
            w.end_op();
        }
        // One forced reclamation pass per episode, so the samples measure the
        // residue the fault actually pins, not scan latency.
        w.flush();
        if plan.churn_every != 0 && (episode + 1) % plan.churn_every == 0 {
            drop(writer.take());
            writer = Some(scheme.register());
        }
        sampler.sample(scheme);
        if let Some(ledger) = wake_up {
            // SAFETY: this thread drives every handle of the run, so no
            // sibling holds a protection for a barrier to drain.
            unsafe { ledger.issue(|| true) };
        }
    }

    // Release the fault and clean up.
    if let Some(mut f) = faulty.take() {
        if faulty_mid_op {
            f.end_op();
        }
        drop(f);
    }
    if let Some(mut w) = writer.take() {
        w.flush();
        drop(w);
    }
    let mut cleaner = scheme.register();
    cleaner.flush();
    drop(cleaner);

    let (limbo_samples, limbo_byte_samples) = sampler.into_samples();
    FaultResult {
        scheme: scheme.name(),
        fault: plan.kind,
        limbo_samples,
        limbo_byte_samples,
        stats: scheme.stats(),
    }
}

/// The reclamation configuration the fault matrix runs under: no rooster
/// ([`run_fault`] enters the wake-ups) and the given limbo budget, which also
/// lets HE's era pacer react to limbo pressure (without one, HE's era ticks
/// every 64 allocations).
pub fn default_fault_config(budget: Option<usize>) -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(8)
        .with_quiescence_threshold(64)
        .with_scan_threshold(64)
        .with_fallback_threshold(1 << 20)
        .with_rooster_interval(Duration::MAX)
        .with_limbo_budget(budget)
}

/// Runs `plan` against a freshly built scheme of the given kind under
/// `config` — the matrix dispatch behind `qsense-bench --fault`.
pub fn run_fault_for(kind: SchemeKind, config: SmrConfig, plan: &FaultPlan) -> FaultResult {
    match kind {
        SchemeKind::None => run_fault(&Leaky::new(config), plan, None),
        SchemeKind::Qsbr => run_fault(&qsbr::Qsbr::new(config), plan, None),
        SchemeKind::Hp => run_fault(&hazard::Hazard::new(config), plan, None),
        SchemeKind::Cadence => {
            let scheme = cadence::Cadence::new(config);
            run_fault(&scheme, plan, Some(scheme.ledger()))
        }
        SchemeKind::QSense => {
            let scheme = qsense::QSense::new(config);
            run_fault(&scheme, plan, Some(scheme.ledger()))
        }
        SchemeKind::Ebr => run_fault(&ebr::Ebr::new(config), plan, None),
        SchemeKind::He => run_fault(&he::He::new(config), plan, None),
        SchemeKind::RefCount => run_fault(&refcount::RefCount::new(config), plan, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_plan(kind: FaultKind) -> FaultPlan {
        FaultPlan {
            episodes: 6,
            burst: 64,
            churn_every: 2,
            ..FaultPlan::new(kind)
        }
    }

    #[test]
    fn fault_names_round_trip_through_parse() {
        for kind in FaultKind::all() {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("bogus"), None);
    }

    #[test]
    fn split_mix_is_deterministic_across_instances() {
        let a: Vec<u64> = {
            let mut rng = SplitMix64(42);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        let mut rng = SplitMix64(42);
        let b: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(a, b);
        // The reference stream: fault plans and soak sessions draw it bit
        // for bit.
        let pinned = [
            0xbdd7_3226_2feb_6e95,
            0x28ef_e333_b266_f103,
            0x4752_6757_130f_9f52,
            0x581c_e1ff_0e4a_e394,
        ];
        assert_eq!(a[..4], pinned);
    }

    #[test]
    fn stalled_reader_fault_matches_the_stall_churn_shape() {
        let plan = quick_plan(FaultKind::StalledReader);
        let config = default_fault_config(None);
        let result = run_fault_for(SchemeKind::Qsbr, config, &plan);
        assert_eq!(result.scheme, "qsbr");
        assert_eq!(result.limbo_samples.len(), plan.episodes);
        assert_eq!(result.limbo_byte_samples.len(), plan.episodes);
        // The stalled participant blocks every grace period: limbo tracks the
        // total number of retirements, in nodes and in bytes.
        assert_eq!(result.peak_limbo(), result.stats.retired);
        assert_eq!(
            peak(&result.limbo_byte_samples),
            result.stats.retired * PAYLOAD_BYTES as u64
        );
        assert_eq!(result.stats.in_limbo(), 0, "cleanup drains the limbo");
        assert_eq!(result.stats.limbo_bytes(), 0);
    }

    #[test]
    fn stalled_reader_fault_samples_every_episode_and_cleans_up_under_he() {
        let plan = quick_plan(FaultKind::StalledReader);
        let scheme = he::He::new(default_fault_config(None));
        let result = run_fault(&scheme, &plan, None);
        assert_eq!(result.limbo_samples.len(), plan.episodes);
        let stats = result.stats;
        assert_eq!(stats.retired, (plan.episodes * plan.burst) as u64);
        assert!(result.peak_limbo() >= stats.in_limbo());
        // Once the reader is released everything must eventually free.
        assert_eq!(stats.in_limbo(), 0, "cleanup drains the limbo");
        assert_eq!(stats.retired, stats.freed);
    }

    #[test]
    fn silent_thread_blocks_qsbr_but_not_hp() {
        let plan = quick_plan(FaultKind::SilentThread);
        let config = default_fault_config(None);
        let qsbr = run_fault_for(SchemeKind::Qsbr, config.clone(), &plan);
        assert_eq!(
            qsbr.peak_limbo(),
            qsbr.stats.retired,
            "a silent registered thread pins every QSBR grace period"
        );
        let hp = run_fault_for(SchemeKind::Hp, config, &plan);
        assert!(
            hp.peak_limbo() < hp.stats.retired / 2,
            "hazard pointers ignore silent threads (peak {} of {})",
            hp.peak_limbo(),
            hp.stats.retired
        );
        assert_eq!(hp.stats.in_limbo(), 0);
    }

    #[test]
    fn leaked_handle_bytes_never_strand_invisibly() {
        let plan = quick_plan(FaultKind::LeakedHandle);
        let config = default_fault_config(None);
        let result = run_fault_for(SchemeKind::Qsbr, config, &plan);
        // The leak happens mid-run; afterwards the survivor adopts and the
        // cleanup drains everything — nothing may be lost track of.
        assert_eq!(
            result.stats.in_limbo(),
            0,
            "parked leftovers must be adopted"
        );
        assert_eq!(
            result.stats.limbo_bytes(),
            0,
            "the estimate must conserve bytes across the leak"
        );
    }

    #[test]
    fn random_delay_is_reproducible_for_a_fixed_seed() {
        let plan = quick_plan(FaultKind::RandomDelay);
        let config = default_fault_config(None);
        let a = run_fault_for(SchemeKind::Qsbr, config.clone(), &plan);
        let b = run_fault_for(SchemeKind::Qsbr, config, &plan);
        assert_eq!(a.limbo_samples, b.limbo_samples, "same seed, same run");
        let mut other = plan;
        other.seed ^= 0xdead_beef;
        let c = run_fault_for(SchemeKind::Qsbr, default_fault_config(None), &other);
        // Different seed, same totals — only the stall schedule moves.
        assert_eq!(c.stats.retired, a.stats.retired);
    }

    #[test]
    fn budgeted_hp_run_records_escalations_and_stays_bounded() {
        let mut plan = quick_plan(FaultKind::StalledReader);
        plan.episodes = 12;
        // Half an episode's bytes, with the node-count scan threshold pushed
        // out of the way so the byte budget is the binding constraint.
        let budget = plan.episode_bytes() / 2;
        let config = default_fault_config(Some(budget)).with_scan_threshold(1 << 20);
        let stats = run_fault_for(SchemeKind::Hp, config, &plan).stats;
        assert_eq!(stats.budget_bytes, budget as u64);
        assert!(
            stats.escalations() > 0,
            "crossing the budget must engage the ladder: {stats:?}"
        );
        assert!(
            stats.peak_limbo_bytes <= 4 * budget as u64,
            "hp must degrade gracefully (peak {} vs budget {budget})",
            stats.peak_limbo_bytes,
        );
    }
}
