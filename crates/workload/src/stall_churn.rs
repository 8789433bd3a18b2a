//! The `stall-churn` robustness scenario: a reader stalled mid-operation while
//! writers burst-allocate and handle churn runs.
//!
//! This is the workload the ROADMAP asked for before touching the era-advance
//! policy — the one where the policy *matters*. Each episode, the reader
//! re-enters an operation (announcing a fresh reservation at the current era)
//! and stalls there; a writer then bursts through allocate→retire pairs and
//! forces a reclamation pass; every few episodes the writer handle is dropped
//! and re-registered (thread-pool churn, exercising the park/adopt path). The
//! in-limbo count is sampled after every episode.
//!
//! What the samples show, per scheme family:
//!
//! * **QSBR** — the stalled reader never quiesces, so limbo grows with every
//!   retirement performed during the stall: unbounded.
//! * **Hazard Eras, static era policy** — each episode pins the nodes born at
//!   the stall era, i.e. up to one full era-advance interval's worth of the
//!   burst: bounded by the *tick constant*.
//! * **Hazard Eras, adaptive era policy** — the limbo the first episodes pin
//!   drives the pacer's interval down, so later stalls pin less: bounded by
//!   *observed reclamation pressure* (and never above the static bound when
//!   the adaptive `max_interval` equals the static interval).
//!
//! The scenario is deliberately single-threaded and allocation-order
//! deterministic (the "stall" is a handle that begins an operation and stops,
//! exactly as in the he/ebr unit suites), so two runs differing only in policy
//! are sample-by-sample comparable — which is what
//! `tests/robustness_bounds.rs` asserts.

use crate::sampler::{mean, peak, percentile, LimboSampler};
use reclaim_core::{retire_box_with_birth, Smr, SmrHandle};
use std::sync::Arc;

/// Shape of one stall-churn run.
#[derive(Clone, Copy, Debug)]
pub struct StallChurnSpec {
    /// Number of stall episodes (the reader re-stalls at the start of each).
    pub episodes: usize,
    /// Allocate→retire pairs the writer performs per episode.
    pub burst: usize,
    /// Drop and re-register the writer handle every this many episodes
    /// (0 disables churn).
    pub churn_every: usize,
}

impl Default for StallChurnSpec {
    fn default() -> Self {
        Self {
            episodes: 24,
            burst: 256,
            churn_every: 8,
        }
    }
}

/// The samples one stall-churn run produces.
#[derive(Clone, Debug)]
pub struct StallChurnResult {
    /// Scheme-wide in-limbo count after each episode's reclamation pass.
    pub limbo_samples: Vec<u64>,
    /// Scheme-wide in-limbo byte count, sampled at the same instants.
    pub limbo_byte_samples: Vec<u64>,
    /// Nodes retired over the whole run.
    pub total_retired: u64,
    /// In-limbo count after the final cleanup flush (reader released).
    pub end_limbo: u64,
}

impl StallChurnResult {
    /// The highest sampled in-limbo count.
    pub fn peak_limbo(&self) -> u64 {
        peak(&self.limbo_samples)
    }

    /// The highest sampled in-limbo byte count.
    pub fn peak_limbo_bytes(&self) -> u64 {
        peak(&self.limbo_byte_samples)
    }

    /// The arithmetic mean of the sampled in-limbo counts.
    pub fn mean_limbo(&self) -> f64 {
        mean(&self.limbo_samples)
    }

    /// Exact percentile (`0.0 < p <= 1.0`) of the sampled in-limbo counts —
    /// the trajectory figure reports quote next to the peak, so a single
    /// outlier episode cannot masquerade as sustained pressure.
    pub fn limbo_percentile(&self, p: f64) -> u64 {
        percentile(&self.limbo_samples, p)
    }
}

/// Runs the stall-churn scenario against `scheme` and returns the sampled
/// limbo trajectory. Generic over [`Smr`] so era schemes (whose `alloc_node`
/// stamps real birth eras) and the epoch schemes (where it is a no-op) run the
/// byte-identical operation sequence.
// Sanctioned raw-protocol site: this driver churns the raw retire pipeline
// below the guard layer on purpose, measuring the scheme itself.
#[allow(clippy::disallowed_methods)]
pub fn run_stall_churn<S: Smr>(scheme: &Arc<S>, spec: &StallChurnSpec) -> StallChurnResult {
    let mut reader = scheme.register();
    let mut writer = Some(scheme.register());
    let mut sampler = LimboSampler::with_capacity(spec.episodes);
    let mut total_retired = 0u64;
    let mut stalled = false;
    for episode in 0..spec.episodes {
        // Re-stall: the reader announces a reservation at the current era and
        // goes silent for the rest of the episode (for QSBR this is one op
        // boundary followed by non-participation — the same blocked shape).
        if stalled {
            reader.end_op();
        }
        reader.begin_op();
        stalled = true;
        let w = writer.as_mut().expect("writer handle is always present");
        for _ in 0..spec.burst {
            w.begin_op();
            let birth = w.alloc_node();
            let ptr = Box::into_raw(Box::new(0u64));
            // SAFETY: freshly boxed, unlinked by construction, retired once.
            unsafe { retire_box_with_birth(w, ptr, birth) };
            total_retired += 1;
            w.end_op();
        }
        // One forced reclamation pass per episode, so the samples measure the
        // residue the stalled reservation actually pins, not scan latency.
        w.flush();
        if spec.churn_every != 0 && (episode + 1) % spec.churn_every == 0 {
            drop(writer.take());
            writer = Some(scheme.register());
        }
        sampler.sample(scheme);
    }
    if stalled {
        reader.end_op();
    }
    drop(reader);
    if let Some(mut w) = writer.take() {
        w.flush();
        drop(w);
    }
    // One last adopter pass so parked leftovers rejoin scanning.
    let mut cleaner = scheme.register();
    cleaner.flush();
    drop(cleaner);
    let end_limbo = scheme.stats().in_limbo();
    let (limbo_samples, limbo_byte_samples) = sampler.into_samples();
    StallChurnResult {
        limbo_samples,
        limbo_byte_samples,
        total_retired,
        end_limbo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::SmrConfig;

    fn config() -> SmrConfig {
        SmrConfig::default()
            .with_max_threads(4)
            .with_scan_threshold(128)
            .with_quiescence_threshold(1_000_000)
    }

    #[test]
    fn stall_churn_samples_every_episode_and_cleans_up() {
        let spec = StallChurnSpec {
            episodes: 6,
            burst: 64,
            churn_every: 2,
        };
        let scheme = he::He::new(config().with_era_advance_interval(16));
        let result = run_stall_churn(&scheme, &spec);
        assert_eq!(result.limbo_samples.len(), 6);
        assert_eq!(result.total_retired, 6 * 64);
        assert!(result.peak_limbo() >= result.end_limbo);
        assert!(result.mean_limbo() >= 0.0);
        // Once the reader is released everything must eventually free.
        assert_eq!(result.end_limbo, 0, "cleanup drains the limbo");
        let stats = scheme.stats();
        assert_eq!(stats.retired, stats.freed);
    }

    #[test]
    fn stall_churn_pins_everything_for_qsbr() {
        let spec = StallChurnSpec {
            episodes: 4,
            burst: 64,
            churn_every: 0,
        };
        let scheme = qsbr::Qsbr::new(config());
        let result = run_stall_churn(&scheme, &spec);
        // The stalled participant blocks every grace period: limbo tracks the
        // total number of retirements.
        assert_eq!(result.peak_limbo(), result.total_retired);
    }
}
