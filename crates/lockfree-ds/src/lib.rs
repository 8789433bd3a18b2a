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

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bst;
pub mod hashmap;
#[cfg(feature = "interleave")]
pub mod interleave;
pub mod keyspace;
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

/// Shadow-heap oracle hooks for the expert structures that allocate raw nodes
/// (skip list, BST): register at `Node::alloc`, deregister at every synchronous
/// owned free (failed-insert rollback, teardown walk), checkpoint at validated
/// traversal advances. Compiles to nothing without `check-oracle`.
#[cfg(feature = "check-oracle")]
pub(crate) mod oracle {
    #[inline]
    pub(crate) fn register<T>(ptr: *mut T, size: usize) {
        reclaim_core::oracle::register(ptr.cast(), size);
    }
    #[inline]
    pub(crate) fn deregister<T>(ptr: *mut T) {
        reclaim_core::oracle::deregister(ptr.cast());
    }
    #[inline]
    pub(crate) fn check<T>(ptr: *mut T, checkpoint: &str) {
        reclaim_core::oracle::check_protected(ptr.cast(), checkpoint);
    }
}

/// No-op stand-in for the shadow-heap oracle hooks (every production build).
#[cfg(not(feature = "check-oracle"))]
pub(crate) mod oracle {
    #[inline(always)]
    pub(crate) fn register<T>(_ptr: *mut T, _size: usize) {}
    #[inline(always)]
    pub(crate) fn deregister<T>(_ptr: *mut T) {}
    #[inline(always)]
    pub(crate) fn check<T>(_ptr: *mut T, _checkpoint: &str) {}
}

pub use bst::{LockFreeBst, BST_HP_SLOTS};
pub use hashmap::{LockFreeHashMap, DEFAULT_HASH_BUCKETS, HASHMAP_HP_SLOTS};
pub use keyspace::KeySlot;
pub use list::{HarrisMichaelList, LIST_HP_SLOTS};
pub use queue::{MichaelScottQueue, QUEUE_HP_SLOTS};
pub use skiplist::{LockFreeSkipList, MAX_HEIGHT, SKIPLIST_HP_SLOTS};
pub use stack::{TreiberStack, STACK_HP_SLOTS};
