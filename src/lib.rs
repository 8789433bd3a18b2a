//! # qsense-repro — facade crate
//!
//! A reproduction of *"Fast and Robust Memory Reclamation for Concurrent Data
//! Structures"* (Balmau, Guerraoui, Herlihy, Zablotchi — SPAA 2016). This crate
//! re-exports the whole stack so applications can depend on a single crate:
//!
//! * [`smr`] — the reclamation schemes: [`smr::QSense`] (the paper's contribution),
//!   its two ingredients [`smr::Qsbr`] and [`smr::Cadence`], the classic
//!   [`smr::Hazard`] pointers baseline, the [`smr::Leaky`] no-reclamation
//!   baseline, the related-work [`smr::Ebr`] and [`smr::RefCount`] baselines,
//!   and the eighth scheme of the matrix — [`smr::He`], Hazard-Eras /
//!   interval-based reclamation (robust like HP, amortized like the epoch
//!   schemes) — all implementing the common [`smr::Smr`] / [`smr::SmrHandle`]
//!   traits;
//! * [`ds`] — the lock-free data structures of the paper's evaluation, generic over
//!   the scheme: [`ds::HarrisMichaelList`], [`ds::LockFreeSkipList`],
//!   [`ds::LockFreeBst`];
//! * [`mod@bench`] — the workload/measurement harness behind `qsense-bench` (the
//!   figure table) and `benchmark/`.
//!
//! ## Quick start
//!
//! ```
//! use qsense_repro::ds::{HarrisMichaelList, LIST_HP_SLOTS};
//! use qsense_repro::smr::{QSense, SmrConfig};
//!
//! // One QSense instance per data structure (or share one across several),
//! // with the structure's hazard-pointer budget K.
//! let scheme = QSense::new(SmrConfig::default().with_hp_per_thread(LIST_HP_SLOTS));
//! let set = HarrisMichaelList::new(scheme);
//!
//! // Each thread registers once and passes its handle to every operation.
//! let mut handle = set.register();
//! assert!(set.insert(7, &mut handle));
//! assert!(set.contains(&7, &mut handle));
//! assert!(set.remove(&7, &mut handle));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Safe-memory-reclamation schemes (the paper's contribution and its baselines).
pub mod smr {
    pub use cadence::Cadence;
    pub use ebr::Ebr;
    pub use hazard::{FenceStrategy, Hazard};
    pub use he::He;
    pub use qsbr::Qsbr;
    pub use qsense::{Path, QSense};
    pub use reclaim_core::stats::StatsSnapshot;
    pub use reclaim_core::{
        retire_box, Atomic, BarrierLedger, Clock, Era, Guard, Leaky, LeasePolicy, LeasePool,
        ManualClock, Owned, Shared, Smr, SmrConfig, SmrHandle,
    };
    pub use refcount::RefCount;
    pub use workload::CountingAllocator;
}

/// Lock-free data structures generic over the reclamation scheme.
pub mod ds {
    pub use lockfree_ds::{
        HarrisMichaelList, LockFreeBst, LockFreeHashMap, LockFreeSkipList, MichaelScottQueue,
        TreiberStack, BST_HP_SLOTS, HASHMAP_HP_SLOTS, LIST_HP_SLOTS, MAX_HEIGHT, QUEUE_HP_SLOTS,
        SKIPLIST_HP_SLOTS, STACK_HP_SLOTS,
    };
}

/// Workload generation and measurement harness (the paper's methodology, §7),
/// including the seeded fault-injection matrix ([`bench::run_fault_for`]) that
/// turns the byte-budget robustness claims into verdicts — the CLI exposes it
/// as `qsense-bench --scheme all --fault all --limbo-budget 256k`.
pub mod bench {
    pub use workload::{
        config_for, default_bench_config, default_fault_config, make_set, run_experiment,
        run_fault, run_fault_for, set_over, BenchSet, DelaySchedule, Experiment, FaultKind,
        FaultPlan, FaultResult, OpMix, SchemeKind, SetSession, Structure, WorkloadSpec,
        PAYLOAD_BYTES,
    };
}
