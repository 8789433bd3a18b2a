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
//! operation and stops), so two runs differing only in scheme — or only in
//! HE's era-advance policy, which is what the stalled reader shows best: the
//! static policy pins up to one era interval of the burst per stall, the
//! adaptive one less with every stall — are sample-by-sample comparable
//! (`tests/robustness_bounds.rs`).

use crate::sampler::{mean, peak, percentile, LimboSampler};
use crate::structures::SchemeKind;
use reclaim_core::{
    retire_box_with_birth, BudgetVerdict, EraAdvancePolicy, Leaky, Smr, SmrConfig, SmrHandle,
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
    /// Wall-clock pause after each episode, so the rooster-gated schemes
    /// (Cadence, QSense's fallback path) get a wake-up between an episode's
    /// retires and the next pass. Zero keeps the run instantaneous for schemes
    /// that wait for no rooster.
    pub episode_pause: Duration,
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
            episode_pause: Duration::from_millis(2),
        }
    }

    /// Bytes the background churn retires per episode — the unit budgets are
    /// naturally expressed in.
    pub fn episode_bytes(&self) -> usize {
        self.burst * PAYLOAD_BYTES
    }
}

/// What one fault run produced: the limbo trajectory plus the scheme's own
/// budget verdict.
#[derive(Clone, Debug)]
pub struct FaultResult {
    /// Scheme name ("qsbr", "hp", ...), as reported by the scheme itself.
    pub scheme: &'static str,
    /// The injected fault.
    pub fault: FaultKind,
    /// Nodes retired over the whole run (background churn + the fault's own).
    pub total_retired: u64,
    /// Scheme-wide in-limbo node count after each episode's reclamation pass.
    pub limbo_samples: Vec<u64>,
    /// Scheme-wide in-limbo byte count, sampled at the same instants.
    pub limbo_byte_samples: Vec<u64>,
    /// The governor's high-water byte mark — unlike the episode samples this
    /// also sees the peak *inside* an episode, before the flush.
    pub peak_limbo_bytes: u64,
    /// In-limbo node count after the final cleanup flush.
    pub end_limbo: u64,
    /// In-limbo byte count after the final cleanup flush.
    pub end_limbo_bytes: u64,
    /// The scheme's budget verdict.
    pub verdict: BudgetVerdict,
}

impl FaultResult {
    /// The highest sampled in-limbo node count.
    pub fn peak_limbo(&self) -> u64 {
        peak(&self.limbo_samples)
    }

    /// The arithmetic mean of the sampled in-limbo node counts.
    pub fn mean_limbo(&self) -> f64 {
        mean(&self.limbo_samples)
    }

    /// Exact percentile (`0.0 < p <= 1.0`) of the sampled in-limbo node
    /// counts (see [`crate::sampler::percentile`]).
    pub fn limbo_percentile(&self, p: f64) -> u64 {
        percentile(&self.limbo_samples, p)
    }

    /// Exact percentile of the sampled in-limbo byte counts.
    pub fn limbo_bytes_percentile(&self, p: f64) -> u64 {
        percentile(&self.limbo_byte_samples, p)
    }
}

/// SplitMix64: the deterministic generator behind the random-delay schedule.
/// Small, seedable, and dependency-free; statistical quality is irrelevant
/// here — reproducibility is the requirement.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Runs `plan` against `scheme` and returns the sampled trajectory plus the
/// scheme's budget verdict. Generic over [`Smr`] so era schemes (whose
/// `alloc_node` stamps real birth eras) and the epoch schemes run the
/// byte-identical operation sequence.
// Sanctioned raw-protocol site: the fault injector drives the raw retire
// pipeline below the guard layer on purpose, measuring the scheme itself.
#[allow(clippy::disallowed_methods)]
pub fn run_fault<S: Smr>(scheme: &Arc<S>, plan: &FaultPlan) -> FaultResult {
    let mut rng = SplitMix64::new(plan.seed);
    let mut sampler = LimboSampler::with_capacity(plan.episodes);
    let mut total_retired = 0u64;

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
                        total_retired += 1;
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
            total_retired += 1;
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
        if !plan.episode_pause.is_zero() {
            std::thread::sleep(plan.episode_pause);
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

    let snap = scheme.stats();
    let (limbo_samples, limbo_byte_samples) = sampler.into_samples();
    FaultResult {
        scheme: scheme.name(),
        fault: plan.kind,
        total_retired,
        limbo_samples,
        limbo_byte_samples,
        peak_limbo_bytes: snap.peak_limbo_bytes,
        end_limbo: snap.in_limbo(),
        end_limbo_bytes: snap.limbo_bytes(),
        verdict: scheme.budget_verdict(),
    }
}

/// The reclamation configuration the fault matrix runs under: prompt rooster
/// ticks so every episode pause spans a wake-up, an adaptive era policy
/// so HE's pacer can react to limbo pressure, and the given limbo budget
/// (without one the pacer's mark is 16 Ki payloads, far above any plan here).
pub fn default_fault_config(budget: Option<usize>) -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(8)
        .with_quiescence_threshold(64)
        .with_scan_threshold(64)
        .with_fallback_threshold(1 << 20)
        .with_rooster_interval(Duration::from_millis(1))
        .with_era_policy(EraAdvancePolicy::Adaptive {
            min_interval: 16,
            max_interval: 256,
            limbo_low_water_bytes: (1 << 14) * PAYLOAD_BYTES,
        })
        .with_limbo_budget(budget)
}

/// Runs `plan` against a freshly built scheme of the given kind under
/// `config` — the matrix dispatch behind `qsense-bench --fault`.
pub fn run_fault_for(kind: SchemeKind, config: SmrConfig, plan: &FaultPlan) -> FaultResult {
    match kind {
        SchemeKind::None => run_fault(&Leaky::new(config), plan),
        SchemeKind::Qsbr => run_fault(&qsbr::Qsbr::new(config), plan),
        SchemeKind::Hp => run_fault(&hazard::Hazard::new(config), plan),
        SchemeKind::Cadence => run_fault(&cadence::Cadence::new(config), plan),
        SchemeKind::QSense => run_fault(&qsense::QSense::new(config), plan),
        SchemeKind::Ebr => run_fault(&ebr::Ebr::new(config), plan),
        SchemeKind::He => run_fault(&he::He::new(config), plan),
        SchemeKind::RefCount => run_fault(&refcount::RefCount::new(config), plan),
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
            episode_pause: Duration::ZERO,
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
            let mut rng = SplitMix64::new(42);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        let mut rng = SplitMix64::new(42);
        let b: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(a, b);
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
        assert_eq!(result.peak_limbo(), result.total_retired);
        assert_eq!(
            peak(&result.limbo_byte_samples),
            result.total_retired * PAYLOAD_BYTES as u64
        );
        assert_eq!(result.end_limbo, 0, "cleanup drains the limbo");
        assert_eq!(result.end_limbo_bytes, 0);
    }

    #[test]
    fn stalled_reader_fault_samples_every_episode_and_cleans_up_under_he() {
        let plan = quick_plan(FaultKind::StalledReader);
        let scheme = he::He::new(default_fault_config(None).with_era_advance_interval(16));
        let result = run_fault(&scheme, &plan);
        assert_eq!(result.limbo_samples.len(), plan.episodes);
        assert_eq!(result.total_retired, (plan.episodes * plan.burst) as u64);
        assert!(result.peak_limbo() >= result.end_limbo);
        // Once the reader is released everything must eventually free.
        assert_eq!(result.end_limbo, 0, "cleanup drains the limbo");
        let stats = scheme.stats();
        assert_eq!(stats.retired, stats.freed);
    }

    #[test]
    fn silent_thread_blocks_qsbr_but_not_hp() {
        let plan = quick_plan(FaultKind::SilentThread);
        let config = default_fault_config(None);
        let qsbr = run_fault_for(SchemeKind::Qsbr, config.clone(), &plan);
        assert_eq!(
            qsbr.peak_limbo(),
            qsbr.total_retired,
            "a silent registered thread pins every QSBR grace period"
        );
        let hp = run_fault_for(SchemeKind::Hp, config, &plan);
        assert!(
            hp.peak_limbo() < hp.total_retired / 2,
            "hazard pointers ignore silent threads (peak {} of {})",
            hp.peak_limbo(),
            hp.total_retired
        );
        assert_eq!(hp.end_limbo, 0);
    }

    #[test]
    fn leaked_handle_bytes_never_strand_invisibly() {
        let plan = quick_plan(FaultKind::LeakedHandle);
        let config = default_fault_config(None);
        let result = run_fault_for(SchemeKind::Qsbr, config, &plan);
        // The leak happens mid-run; afterwards the survivor adopts and the
        // cleanup drains everything — nothing may be lost track of.
        assert_eq!(result.end_limbo, 0, "parked leftovers must be adopted");
        assert_eq!(result.end_limbo_bytes, 0);
        assert_eq!(
            result.verdict.current_bytes, 0,
            "the governor's estimate must conserve bytes across the leak"
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
        assert_eq!(c.total_retired, a.total_retired);
    }

    #[test]
    fn budgeted_hp_run_records_escalations_and_stays_bounded() {
        let mut plan = quick_plan(FaultKind::StalledReader);
        plan.episodes = 12;
        // Half an episode's bytes, with the node-count scan threshold pushed
        // out of the way so the byte budget is the binding constraint.
        let budget = plan.episode_bytes() / 2;
        let config = default_fault_config(Some(budget)).with_scan_threshold(1 << 20);
        let result = run_fault_for(SchemeKind::Hp, config, &plan);
        let verdict = result.verdict;
        assert_eq!(verdict.budget_bytes, budget as u64);
        assert!(
            verdict.escalations() > 0,
            "crossing the budget must engage the ladder: {verdict:?}"
        );
        assert!(
            result.peak_limbo_bytes <= 4 * budget as u64,
            "hp must degrade gracefully (peak {} vs budget {budget})",
            result.peak_limbo_bytes,
        );
    }
}
