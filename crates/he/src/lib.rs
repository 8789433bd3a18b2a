//! # he — Hazard Eras / interval-based reclamation (2GE-style IBR)
//!
//! The eighth scheme of the comparison matrix, filling the design point the
//! QSense paper's evaluation brackets from both sides: **robust like hazard
//! pointers, amortized like the epoch schemes**.
//!
//! * Nodes are stamped with a **birth era** at allocation (through the
//!   [`reclaim_core::SmrHandle::alloc_node`] hook) and a **retire era** at
//!   retirement, bounding each node's lifetime to the interval
//!   `[birth, retire]` of the global logical [`EraClock`], paced by an
//!   [`EraPacer`] — both this crate's, their only user.
//! * Readers announce the **era interval of their current operation** in their
//!   registry slot — one store (plus fence) per operation, extended only when
//!   the global era advances mid-operation.
//! * A retired node is freed once its lifetime interval **overlaps no announced
//!   reservation** — checked per scan with O(N) era reads (against the
//!   HP family's O(N·K) pointer snapshot), with whole era-bucket chains freed
//!   wholesale when no reservation reaches them.
//!
//! The consequence that earns the scheme its place in the matrix: a thread
//! stalled *mid-operation* — the scenario that freezes QSBR and EBR outright —
//! pins only the nodes born at or before its announced interval. Everything
//! allocated after the stall keeps being reclaimed, so the garbage a stalled
//! reader can cause is bounded by the nodes that existed when it stalled
//! (`tests/robustness_bounds.rs` pins this against QSBR's unbounded growth).
//!
//! Lineage: Hazard Eras (Ramalhete & Correia, DISC 2017) and the 2GE
//! interval-based reclamation of Wen et al. (PPoPP 2018); see PAPERS.md.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod era;
pub mod scheme;

pub use clock::{EraClock, EraPacer};
pub use era::EraRecord;
pub use scheme::{He, HeHandle};
