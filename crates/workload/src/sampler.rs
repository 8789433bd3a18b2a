//! Per-episode limbo sampling for the robustness scenarios.
//!
//! [`faults`](crate::faults) runs episode loops that snapshot the scheme-wide
//! limbo after every forced reclamation pass. The sampling (and the peak
//! reduction the reports and CI assertions use) lives here, so every
//! trajectory is reduced by exactly the same code.

use reclaim_core::Smr;
use std::sync::Arc;

/// Collects one node-count and one byte-count limbo sample per episode.
#[derive(Clone, Debug, Default)]
pub(crate) struct LimboSampler {
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

    /// Consumes the sampler, returning `(node_samples, byte_samples)`.
    pub(crate) fn into_samples(self) -> (Vec<u64>, Vec<u64>) {
        (self.node_samples, self.byte_samples)
    }
}

/// The highest sample, or 0 for an empty trajectory.
pub(crate) fn peak(samples: &[u64]) -> u64 {
    samples.iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_handle_empty_and_filled_trajectories() {
        assert_eq!(peak(&[]), 0);
        assert_eq!(peak(&[3, 9, 4]), 9);
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
        let (nodes, bytes) = sampler.into_samples();
        assert_eq!(nodes, [0, 1], "leaky never frees");
        assert_eq!(bytes, [0, 64]);
        assert_eq!(peak(&nodes), 1);
        assert_eq!(peak(&bytes), 64);
    }
}
