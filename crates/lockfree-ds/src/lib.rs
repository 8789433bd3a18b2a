//! # lockfree-ds — the data structures of the QSense evaluation
//!
//! The three lock-free ordered sets the paper applies QSense to (§7.1), each generic
//! over the reclamation scheme (`S: Smr`), so that which of the eight schemes
//! (the paper's five, plus EBR, Hazard Eras and reference counting) reclaims a
//! structure is a type parameter:
//!
//! * [`HarrisMichaelList`] — the sorted linked list of Michael (SPAA 2002), the
//!   paper's appendix example (2 hazard pointers per thread);
//! * [`LockFreeSkipList`] — a Fraser / Herlihy–Shavit style skip list (up to
//!   [`skiplist::SKIPLIST_HP_SLOTS`] hazard pointers per thread);
//! * [`LockFreeBst`] — an external (leaf-oriented) binary search tree in the style of
//!   Natarajan–Mittal (PPoPP 2014), using edge flagging (6 hazard pointers).
//!
//! Beyond the paper's evaluation matrix, three further structures demonstrate the
//! applicability claim of §4.2 (QSense applies wherever hazard pointers apply):
//!
//! * [`LockFreeHashMap`] — Michael's (SPAA 2002) hash table: a bucket array of
//!   the list's own chains, as a key → value map (2 hazard pointers);
//! * [`MichaelScottQueue`] — the classic lock-free FIFO queue (2 hazard pointers);
//! * [`TreiberStack`] — the classic lock-free LIFO stack (1 hazard pointer).
//!
//! Every operation follows the paper's three integration rules: `begin_op`
//! (`manage_qsense_state`) at operation start, `protect` + re-validate before using a
//! node reference, and retire (`free_node_later`) exactly once when a node is
//! physically unlinked.
//!
//! The list and the skip list also take a batch of keys at once
//! ([`HarrisMichaelList::insert_batch`], [`LockFreeSkipList::insert_batch`]),
//! which is how the benchmark prefills them. A batch allocates its nodes in
//! the keys' given order, so the memory layout is the one sequential inserts
//! leave. Into an empty set it chains them privately and publishes them with
//! one CAS on the head (a CAS a level on the skip list): no search, and no
//! protection. Into a non-empty set it links them in descending key order,
//! so every search stops at the head. The BST takes no batch: it is unbalanced, and keys linked in
//! sorted order would build a path, not the tree the keys' random order
//! builds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod batch;
pub mod bst;
pub mod hashmap;
#[cfg(feature = "interleave")]
pub mod interleave;
mod keyspace;
pub mod list;
pub mod queue;
pub mod skiplist;
pub mod stack;
pub use reclaim_core::tagged;

/// No-op stand-in for the [`interleave`] pause points when the harness feature
/// is disabled (every production build): `hit` inlines to nothing.
#[cfg(not(feature = "interleave"))]
pub(crate) mod interleave {
    #[inline(always)]
    pub(crate) fn hit(_point: &'static str) {}
}

/// Shadow-heap oracle checkpoints of the expert structures that lay out their
/// own nodes (skip list, BST), at validated traversal advances; their node
/// blocks are registered and deregistered by `reclaim_core::node_cache`.
/// Compiles to nothing without `check-oracle`.
#[cfg(feature = "check-oracle")]
pub(crate) mod oracle {
    #[inline]
    pub(crate) fn check<T>(ptr: *mut T, checkpoint: &str) {
        reclaim_core::oracle::check_protected(ptr.cast(), checkpoint);
    }
}

/// No-op stand-in for the shadow-heap oracle checkpoints (every production
/// build).
#[cfg(not(feature = "check-oracle"))]
pub(crate) mod oracle {
    #[inline(always)]
    pub(crate) fn check<T>(_ptr: *mut T, _checkpoint: &str) {}
}

pub use bst::{LockFreeBst, BST_HP_SLOTS};
pub use hashmap::{LockFreeHashMap, HASHMAP_HP_SLOTS};
pub use list::{HarrisMichaelList, LIST_HP_SLOTS};
pub use queue::{MichaelScottQueue, QUEUE_HP_SLOTS};
pub use skiplist::{LockFreeSkipList, MAX_HEIGHT, SKIPLIST_HP_SLOTS};
pub use stack::{TreiberStack, STACK_HP_SLOTS};
