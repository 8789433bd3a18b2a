//! Workload specifications matching the paper's methodology (§7.2).
//!
//! Every experiment in the paper is described by three numbers: the key range, the
//! operation mix (percentage of searches / inserts / deletes) and the number of
//! threads; the data structure is pre-filled to half the key range before
//! measurement. [`WorkloadSpec`] captures the first two (plus the fill factor);
//! [`OpMix`] provides the mixes the paper uses.

/// Operation mix in percent. Inserts and deletes are kept equal, as in the paper, so
/// that the structure size stays around its initial fill during the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpMix {
    /// Percentage of `contains` operations.
    pub read_pct: u8,
    /// Percentage of `insert` operations.
    pub insert_pct: u8,
    /// Percentage of `remove` operations.
    pub delete_pct: u8,
}

impl OpMix {
    /// Creates a mix, checking that the percentages sum to 100.
    pub fn new(read_pct: u8, insert_pct: u8, delete_pct: u8) -> Self {
        assert_eq!(
            read_pct as u16 + insert_pct as u16 + delete_pct as u16,
            100,
            "operation mix must sum to 100%"
        );
        Self {
            read_pct,
            insert_pct,
            delete_pct,
        }
    }

    /// The paper's "10% updates" mix (Figure 3): 90% searches, 5% inserts, 5% deletes.
    pub fn updates_10() -> Self {
        Self::new(90, 5, 5)
    }

    /// The paper's "50% updates" mix (Figure 5): 50% searches, 25% inserts, 25% deletes.
    pub fn updates_50() -> Self {
        Self::new(50, 25, 25)
    }

    /// 100% churn: no reads, half inserts, half deletes. The natural workload for
    /// the FIFO/LIFO structures (every queue/stack operation mutates), also usable
    /// as a worst-case reclamation stressor on the sets.
    pub fn churn() -> Self {
        Self::new(0, 50, 50)
    }

    /// Percentage of operations that modify the structure.
    pub fn update_pct(&self) -> u8 {
        self.insert_pct + self.delete_pct
    }
}

/// Which data structure an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// Harris–Michael linked list (paper key range 2 000).
    List,
    /// Lock-free skip list (paper key range 20 000).
    SkipList,
    /// External lock-free BST (paper key range 2 000 000).
    Bst,
    /// Lock-free hash map (Michael's bucket-array table). Not part of the paper's
    /// evaluation matrix; used by the extension benchmarks that demonstrate
    /// applicability beyond the three evaluated structures.
    HashMap,
    /// Michael–Scott queue (FIFO). Extension structure; runs 100%-churn
    /// workloads — every operation mutates, so the read percentage of a mix is
    /// served by an `is_empty` probe.
    Queue,
    /// Treiber stack (LIFO). Extension structure; same 100%-churn character as
    /// the queue.
    Stack,
}

impl Structure {
    /// Human-readable name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            Structure::List => "linked-list",
            Structure::SkipList => "skip-list",
            Structure::Bst => "bst",
            Structure::HashMap => "hash-map",
            Structure::Queue => "queue",
            Structure::Stack => "stack",
        }
    }

    /// The key range this reproduction uses by default (the BST is scaled down so
    /// that initialization fits the container).
    pub fn default_key_range(&self) -> u64 {
        match self {
            Structure::List => 2_000,
            Structure::SkipList => 20_000,
            Structure::Bst => 200_000,
            Structure::HashMap => 100_000,
            Structure::Queue => 10_000,
            Structure::Stack => 10_000,
        }
    }
}

/// A complete workload description.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: u64,
    /// Operation mix.
    pub mix: OpMix,
}

/// Fraction of the key range inserted before measurement starts (paper: half).
const INITIAL_FILL: f64 = 0.5;

impl WorkloadSpec {
    /// Creates a workload specification.
    pub fn new(key_range: u64, mix: OpMix) -> Self {
        assert!(key_range > 0, "key range must be positive");
        Self { key_range, mix }
    }

    /// Number of keys inserted before measurement.
    pub(crate) fn initial_keys(&self) -> u64 {
        (self.key_range as f64 * INITIAL_FILL) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        assert_eq!(OpMix::updates_10(), OpMix::new(90, 5, 5));
        assert_eq!(OpMix::updates_50(), OpMix::new(50, 25, 25));
        assert_eq!(OpMix::updates_10().update_pct(), 10);
        assert_eq!(OpMix::updates_50().update_pct(), 50);
        let spec = WorkloadSpec::new(Structure::List.default_key_range(), OpMix::updates_10());
        assert_eq!(spec.key_range, 2_000);
        assert_eq!(spec.initial_keys(), 1_000);
    }

    #[test]
    fn structure_names_are_stable() {
        assert_eq!(Structure::List.name(), "linked-list");
        assert_eq!(Structure::SkipList.name(), "skip-list");
        assert_eq!(Structure::Bst.name(), "bst");
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_is_rejected() {
        let _ = OpMix::new(50, 30, 30);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn empty_key_range_is_rejected() {
        let _ = WorkloadSpec::new(0, OpMix::updates_10());
    }
}
