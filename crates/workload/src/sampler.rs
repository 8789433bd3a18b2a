//! Per-episode limbo sampling for the robustness scenarios.
//!
//! [`faults`](crate::faults) runs episode loops that snapshot the scheme-wide
//! limbo after every forced reclamation pass. The sampling (and the peak/mean
//! reductions the reports and CI assertions use) lives here, so every
//! trajectory is reduced by exactly the same code.

use reclaim_core::Smr;
use std::sync::Arc;

/// Collects one node-count and one byte-count limbo sample per episode.
#[derive(Clone, Debug, Default)]
pub struct LimboSampler {
    node_samples: Vec<u64>,
    byte_samples: Vec<u64>,
}

impl LimboSampler {
    /// A sampler pre-sized for `episodes` samples.
    pub fn with_capacity(episodes: usize) -> Self {
        Self {
            node_samples: Vec::with_capacity(episodes),
            byte_samples: Vec::with_capacity(episodes),
        }
    }

    /// Takes one sample: the scheme-wide in-limbo node count and the stamped
    /// in-limbo byte total, from a single stats snapshot so the two figures
    /// describe the same instant.
    pub fn sample<S: Smr + ?Sized>(&mut self, scheme: &Arc<S>) {
        let snap = scheme.stats();
        self.node_samples.push(snap.in_limbo());
        self.byte_samples.push(snap.limbo_bytes());
    }

    /// The node-count samples, one per episode.
    pub fn node_samples(&self) -> &[u64] {
        &self.node_samples
    }

    /// The byte-count samples, one per episode.
    pub fn byte_samples(&self) -> &[u64] {
        &self.byte_samples
    }

    /// Consumes the sampler, returning `(node_samples, byte_samples)`.
    pub fn into_samples(self) -> (Vec<u64>, Vec<u64>) {
        (self.node_samples, self.byte_samples)
    }
}

/// The highest sample, or 0 for an empty trajectory.
pub fn peak(samples: &[u64]) -> u64 {
    samples.iter().copied().max().unwrap_or(0)
}

/// The value at percentile `p` (`0.0 < p <= 1.0`) of a sampled trajectory,
/// computed exactly over a sorted copy (unlike the log-bucketed
/// [`reclaim_core::HistSnapshot::percentile`], which trades accuracy for a
/// fixed-size lock-free representation). Returns 0 for an empty trajectory.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The arithmetic mean, or 0.0 for an empty trajectory.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_handle_empty_and_filled_trajectories() {
        assert_eq!(peak(&[]), 0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(peak(&[3, 9, 4]), 9);
        assert!((mean(&[2, 4]) - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn percentile_is_exact_over_the_sorted_trajectory() {
        assert_eq!(percentile(&[], 0.5), 0);
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.50), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        // Order must not matter.
        let shuffled = [9u64, 1, 5, 3, 7];
        assert_eq!(percentile(&shuffled, 0.5), 5);
        assert_eq!(percentile(&shuffled, 1.0), 9);
    }

    #[test]
    fn sampler_records_node_and_byte_figures_from_one_snapshot() {
        use reclaim_core::{retire_box, Leaky, SmrConfig, SmrHandle};
        let scheme = Leaky::new(SmrConfig::default().with_max_threads(2));
        let mut handle = scheme.register();
        let mut sampler = LimboSampler::with_capacity(2);
        sampler.sample(&scheme);
        // SAFETY: freshly boxed, unlinked by construction, retired once.
        unsafe { retire_box(&mut handle, Box::into_raw(Box::new([0u8; 64]))) };
        handle.flush();
        sampler.sample(&scheme);
        assert_eq!(sampler.node_samples(), &[0, 1], "leaky never frees");
        assert_eq!(sampler.byte_samples(), &[0, 64]);
        let (nodes, bytes) = sampler.into_samples();
        assert_eq!(peak(&nodes), 1);
        assert_eq!(peak(&bytes), 64);
    }
}
