//! `reclaim-check`: systematic concurrency checking for the reclamation
//! protocols — the verification half of the QSense reproduction.
//!
//! Stress tests cross a dangerous window once in millions of operations and
//! crash, at best, somewhere far from the cause. This crate replaces luck
//! with enumeration and crashes with verdicts:
//!
//! * [`explorer`] — a CHESS-style bounded exhaustive schedule explorer. It
//!   serializes 2–3 model threads through the `lockfree_ds::interleave` pause
//!   points and enumerates every interleaving up to a preemption bound
//!   (default 2) by iterative DFS with prefix replay. Failures come back as
//!   the exact pause-point schedule, replayable with [`Explorer::replay`] —
//!   how the root `tests/interleaving_harness.rs` pins each structure's window.
//! * [`suites`] — small deterministic scenarios for every structure
//!   (list/skiplist/bst unlink windows, the skip-list batch's publication,
//!   queue/stack ABA windows) under every reclamation scheme: 6 × 8 cells the
//!   CI `check` job explores clean.
//! * [`litmus`] — what the explorer, sequentially consistent as it is, cannot
//!   see: the race between publishing a reservation and the scan that reads
//!   it, on abstract machines with store buffers, enumerated exhaustively —
//!   one row for the hazard-pointer publish/scan race, one for EBR's pin
//!   against the epoch advance, one for HE's era reservation kept across
//!   operations. It is the check behind where classic HP and EBR pay their
//!   fence (`reclaim_core::fence`) and when HE pays its own.
//! * `fixture` *(feature `check-oracle`)* — the pre-versioned-link skip
//!   list linking bug resurrected in a two-level model, a traversal that
//!   forgets its slot rotation, and the skip-list batch with its upper levels
//!   stored instead of CASed: proof that the explorer and the oracle convict
//!   each use-after-free unaided.
//!
//! With the `check-oracle` feature the explored schedules additionally run
//! against `reclaim_core::oracle`'s shadow heap: every allocation, retire and
//! free is tracked, freed nodes are poisoned and quarantined, and every guard
//! checkpoint validates live-or-protected — a silent use-after-free becomes a
//! deterministic panic naming the node, the checkpoint and the schedule (see
//! the "Verification" section of the `reclaim_core` crate docs).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod explorer;
#[cfg(feature = "check-oracle")]
pub mod fixture;
pub mod litmus;
pub mod suites;

pub use explorer::{
    schedule_of, Explorer, Failure, FailureKind, Report, Scenario, ScenarioRun, Step,
};
