//! Lock-free sorted linked-list set (Harris–Michael), and the chain every
//! bucket of [`LockFreeHashMap`](crate::LockFreeHashMap) is.
//!
//! This is the linked list the paper evaluates (§7.1, "a lock-free linked list
//! \[24\]"): Michael's hazard-pointer-compatible variant of Harris's algorithm, the
//! same algorithm the paper's appendix (Algorithms 6 and 7) annotates with QSense
//! calls. Nodes carry a logical-deletion mark in their `next` link word; removal
//! first marks (logical delete) and then unlinks (physical delete), and traversals
//! help unlink any marked node they encounter.
//!
//! The algorithm lives once, in a `Chain`: a head link and the sorted nodes
//! hanging off it, each carrying a value (`()` for the set). The list is one
//! chain; Michael's hash table is an array of them, so the map runs this very
//! code — its pause points and oracle checkpoints included.
//!
//! ## Reclamation-scheme integration
//!
//! The structure is generic over [`Smr`] and built entirely on the safe guard
//! layer (`reclaim_core::guard`), which renders the paper's three rules (§1.3)
//! as types:
//!
//! 1. the RAII [`Guard`] brackets every operation (`manage_qsense_state`);
//! 2. [`Guard::load_protected`] / [`Guard::protect_word`] publish a protection
//!    (`assign_HP`) and re-validate that the predecessor still links to the
//!    node — a [`Shared`] only exists validated;
//! 3. the node is retired (`free_node_later`) exactly once, through the
//!    [`reclaim_core::Unlinked`] capability minted by whichever thread wins the
//!    physical unlink CAS.
//!
//! Two protection slots are used (`K = 2`, matching the paper), and their
//! roles alternate hand over hand, as in Michael's traversal: the current node
//! is published into the slot that does not hold the predecessor, and when the
//! walk steps onto it, it *is* the predecessor — protected where it stands —
//! and the other slot takes the next node. One publication per node visited.

use reclaim_core::{Atomic, Guard, Owned, Shared, Smr, SmrHandle};
use std::sync::Arc;

/// Number of protection slots the list needs per thread (`K` in the paper).
pub const LIST_HP_SLOTS: usize = 2;

struct Node<K, V> {
    key: K,
    /// Written once at allocation, never mutated afterwards, so readers may
    /// clone it while the node is protected.
    value: V,
    next: Atomic<Node<K, V>>,
}

/// Result of a traversal: `curr` is the (validated, protected) word of the first
/// node the walk did not step past (or null at the end of the chain) and `prev`
/// is the link that holds it — the head link or the `next` link of the
/// predecessor, which stays protected in the slot `curr` does not occupy until
/// the next traversal under the same guard. `curr` doubles as the CAS expected
/// value for `prev`. `passed` counts the unmarked nodes stepped past.
struct Search<'g, K, V> {
    prev: &'g Atomic<Node<K, V>>,
    curr: Shared<'g, Node<K, V>>,
    passed: usize,
}

impl<'g, K: Ord, V> Search<'g, K, V> {
    /// The node the search stopped on, if it holds `key`.
    fn hit(&self, key: &K) -> Option<&'g Node<K, V>> {
        // SAFETY: `curr` carries a validated protection from the walk.
        unsafe { self.curr.as_ref() }.filter(|node| node.key == *key)
    }
}

/// One Harris–Michael chain: a head link and the nodes hanging off it in key
/// order. Every operation runs under the caller's guard.
pub(crate) struct Chain<K, V> {
    head: Atomic<Node<K, V>>,
}

impl<K: Ord, V> Chain<K, V> {
    pub(crate) fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }

    /// Core traversal (the paper's `search_and_cleanup`): steps past every node
    /// whose key satisfies `past`, unlinking (and retiring) every marked node on
    /// the way, and stops on the first that does not.
    fn walk<'g, H: SmrHandle>(
        &'g self,
        guard: &'g Guard<'_, H>,
        past: impl Fn(&K) -> bool,
    ) -> Search<'g, K, V> {
        'retry: loop {
            let mut prev: &'g Atomic<Node<K, V>> = &self.head;
            let mut passed = 0;
            // The node `prev` is a link of (null: the head), and the slot
            // `curr` is protected in; the predecessor holds the other
            // (`slot ^ 1`).
            let mut pred = Shared::null();
            let mut slot = 0;
            // The head link is rooted in the structure, so the protection
            // validated against it is honoured from the start.
            let mut curr = guard.load_protected(slot, prev);
            loop {
                let Some(node) = (
                    // SAFETY: `curr` carries a validated protection in `slot`
                    // (from `load_protected` or a validated advance below)
                    // against `prev`, which is the head link or a link of the
                    // predecessor protected in the other slot.
                    unsafe { curr.as_ref() }
                ) else {
                    return Search { prev, curr, passed };
                };
                let next = node.next.load(guard);
                if next.is_marked() {
                    // `curr` is logically deleted: help unlink it (physical
                    // delete). The marked outgoing link freezes `curr`'s
                    // successor, so `next` is still accurate if the CAS wins.
                    // SAFETY: after the mark settled, `prev` is the sole
                    // remaining path by which new observers reach `curr`, and
                    // the versioned CAS makes a stale expected word fail — only
                    // one helper can win, so exactly one `Unlinked` is minted.
                    match unsafe { prev.cas_unlink(curr, next.unmarked()) } {
                        Ok((unlinked, after)) => {
                            // This thread performed the unlink, so it (and only
                            // it) retires the node — rule 3.
                            unlinked.retire(guard);
                            // Continue from the excision: the successor takes
                            // the excised node's slot, re-validated against the
                            // updated link word.
                            match advance(guard, slot, pred, prev, after) {
                                Some(sh) => curr = sh,
                                None => continue 'retry,
                            }
                            continue;
                        }
                        Err(_) => continue 'retry,
                    }
                }
                if !past(&node.key) {
                    return Search { prev, curr, passed };
                }
                // Step: `curr` becomes the predecessor, protected where it
                // stands; the slot of the predecessor it replaces is free for
                // the successor observed above, validated as still what the
                // new predecessor links to.
                passed += 1;
                pred = curr;
                prev = &node.next;
                slot ^= 1;
                match advance(guard, slot, pred, prev, next) {
                    Some(sh) => curr = sh,
                    None => continue 'retry,
                }
            }
        }
    }

    /// Positions on the first node with key ≥ `key`.
    fn search<'g, H: SmrHandle>(&'g self, key: &K, guard: &'g Guard<'_, H>) -> Search<'g, K, V> {
        self.walk(guard, |k| k < key)
    }

    /// The value stored under `key`, protected for the guard's lifetime.
    pub(crate) fn get<'g, H: SmrHandle>(
        &'g self,
        key: &K,
        guard: &'g Guard<'_, H>,
    ) -> Option<&'g V> {
        self.search(key, guard).hit(key).map(|node| &node.value)
    }

    /// Links `key → value`; false (dropping both) if `key` is already present.
    pub(crate) fn insert<H: SmrHandle>(&self, key: K, value: V, guard: &Guard<'_, H>) -> bool {
        let (mut key, mut value) = (key, value);
        loop {
            let s = self.search(&key, guard);
            if s.hit(&key).is_some() {
                return false;
            }
            let node = Owned::new(
                Node {
                    key,
                    value,
                    next: Atomic::null(),
                },
                guard,
            );
            // The new node is still private; the publishing CAS releases it.
            node.next.store_private(s.curr);
            // Pause point: the validate-then-CAS window (audited against the
            // skip list's upper-level re-link race; see the note below).
            crate::interleave::hit("list::insert::pre_link_cas");
            // Why this window is closed: the CAS below targets the very link the
            // search validated, with the full validated word — pointer, mark
            // *and* version — as its expected value. A remove completing in the
            // window changes that word no matter which neighbour it hits —
            // removing `curr` swings `prev`'s link to `curr`'s successor;
            // removing `prev` marks `prev`'s outgoing link — and every
            // successful CAS bumps the link version, so even a pointer that
            // ABA'd back fails the stale CAS. `curr`'s slot keeps it from
            // being freed and re-allocated under us, the other slot keeps
            // `prev`'s node. The forced schedules in
            // `tests/interleaving_harness.rs` pin both neighbour removals.
            match s.prev.cas_link(s.curr, node) {
                Ok(_) => return true,
                Err((_, returned)) => {
                    // The node was never shared: recover the key and value
                    // (paper Alg. 6, "Node was not inserted; free the node
                    // directly") and retry.
                    let returned = returned.into_inner();
                    (key, value) = (returned.key, returned.value);
                }
            }
        }
    }

    /// Removes `key`; true if this thread's mark deleted it.
    pub(crate) fn remove<H: SmrHandle>(&self, key: &K, guard: &Guard<'_, H>) -> bool {
        loop {
            let s = self.search(key, guard);
            let Some(node) = s.hit(key) else {
                return false;
            };
            let next = node.next.load(guard);
            if next.is_marked() {
                // Another thread is already deleting it; retry so the traversal
                // can help unlink and then report "not found" or race for a
                // later copy.
                continue;
            }
            // Logical deletion: mark `curr`'s next link. The winner owns the
            // removal.
            if node.next.try_mark(next).is_err() {
                continue;
            }
            // Pause point: mark won, unlink (and retire) pending — the window
            // the explorer drives inserts and other removals through.
            crate::interleave::hit("list::remove::pre_unlink_cas");
            // Physical deletion: try to unlink. On failure another traversal
            // will (or already did) unlink and retire it.
            // SAFETY: the mark this thread won makes `prev`'s link the sole
            // remaining path for new observers, and the versioned expected word
            // ensures at most one unlinker succeeds.
            match unsafe { s.prev.cas_unlink(s.curr, next) } {
                Ok((unlinked, _)) => unlinked.retire(guard),
                Err(_) => {
                    // Help physical removal along the new path.
                    let _ = self.search(key, guard);
                }
            }
            return true;
        }
    }

    /// Counts the nodes in the chain: a walk that steps past every one.
    pub(crate) fn count<H: SmrHandle>(&self, guard: &Guard<'_, H>) -> usize {
        self.walk(guard, |_| true).passed
    }
}

/// [`Guard::protect_word`] in two halves, with a pause point between the
/// publication and the validating re-read: the window in which a publication
/// over the slot still holding the predecessor would let the predecessor be
/// freed under the re-read of its link.
#[inline]
fn advance<'g, K, V, H: SmrHandle>(
    guard: &'g Guard<'_, H>,
    slot: usize,
    pred: Shared<'g, Node<K, V>>,
    prev: &Atomic<Node<K, V>>,
    expect: Shared<'g, Node<K, V>>,
) -> Option<Shared<'g, Node<K, V>>> {
    guard.protect_shared(slot, expect);
    crate::interleave::hit("list::search::cursor_published");
    // The oracle's checkpoint for `pred` (nothing in other builds): the
    // re-read below goes through its link.
    // SAFETY: `pred` is null (`prev` is the head link) or the predecessor,
    // protected in the slot other than `slot`.
    let _ = unsafe { pred.as_ref() };
    (prev.load(guard) == expect).then_some(expect)
}

impl<K, V> Drop for Chain<K, V> {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): free every node still in the chain
        // directly. Nodes already unlinked are owned by the reclamation scheme
        // and are freed by it, so there is no double free.
        // SAFETY: no concurrent operations and no outstanding protections;
        // every chained node is taken out of exactly one link.
        unsafe {
            let mut curr = self.head.take();
            while let Some(mut node) = curr {
                curr = node.next.take();
            }
        }
    }
}

/// A lock-free sorted set backed by a Harris–Michael linked list.
pub struct HarrisMichaelList<K, S: Smr> {
    chain: Chain<K, ()>,
    smr: Arc<S>,
}

// SAFETY: the list is a shared concurrent structure; all mutation happens through
// atomics and the SMR protocol. Keys must be Send + Sync because nodes (and hence
// keys) are dropped by whichever thread reclaims them.
unsafe impl<K: Send + Sync, S: Smr> Send for HarrisMichaelList<K, S> {}
unsafe impl<K: Send + Sync, S: Smr> Sync for HarrisMichaelList<K, S> {}

impl<K, S> HarrisMichaelList<K, S>
where
    K: Ord + Send + Sync + 'static,
    S: Smr,
{
    /// Creates an empty list using the given reclamation scheme.
    pub fn new(smr: Arc<S>) -> Self {
        Self {
            chain: Chain::new(),
            smr,
        }
    }

    /// The reclamation scheme this list was created with.
    pub fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread with the underlying reclamation scheme and
    /// returns the handle to pass to this list's operations.
    pub fn register(&self) -> S::Handle {
        self.smr.register()
    }

    /// Returns true if `key` is in the set.
    pub fn contains(&self, key: &K, handle: &mut S::Handle) -> bool {
        self.chain.get(key, &Guard::new(handle)).is_some()
    }

    /// Inserts `key`; returns false if it was already present.
    pub fn insert(&self, key: K, handle: &mut S::Handle) -> bool {
        self.chain.insert(key, (), &Guard::new(handle))
    }

    /// Removes `key`; returns false if it was not present.
    pub fn remove(&self, key: &K, handle: &mut S::Handle) -> bool {
        self.chain.remove(key, &Guard::new(handle))
    }

    /// Counts the elements currently in the set. Linear, intended for tests,
    /// examples and benchmark validation — not part of the hot path.
    pub fn len(&self, handle: &mut S::Handle) -> usize {
        self.chain.count(&Guard::new(handle))
    }

    /// True if the set currently holds no elements (test/diagnostic helper).
    pub fn is_empty(&self, handle: &mut S::Handle) -> bool {
        self.len(handle) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::Leaky;
    use std::collections::BTreeSet;

    fn leaky_list() -> HarrisMichaelList<u64, Leaky> {
        HarrisMichaelList::new(Leaky::with_defaults())
    }

    #[test]
    fn empty_list_contains_nothing() {
        let list = leaky_list();
        let mut h = list.register();
        assert!(!list.contains(&1, &mut h));
        assert!(list.is_empty(&mut h));
        assert_eq!(list.len(&mut h), 0);
    }

    #[test]
    fn insert_contains_remove_round_trip() {
        let list = leaky_list();
        let mut h = list.register();
        assert!(list.insert(5, &mut h));
        assert!(!list.insert(5, &mut h), "duplicate insert must fail");
        assert!(list.contains(&5, &mut h));
        assert!(!list.contains(&6, &mut h));
        assert!(list.remove(&5, &mut h));
        assert!(!list.remove(&5, &mut h), "double remove must fail");
        assert!(!list.contains(&5, &mut h));
    }

    #[test]
    fn keeps_keys_sorted_and_unique() {
        let list = leaky_list();
        let mut h = list.register();
        for key in [5_u64, 1, 9, 3, 7, 1, 9] {
            list.insert(key, &mut h);
        }
        assert_eq!(list.len(&mut h), 5);
        for key in [1_u64, 3, 5, 7, 9] {
            assert!(list.contains(&key, &mut h));
        }
    }

    #[test]
    fn matches_reference_set_on_mixed_operations() {
        let list = leaky_list();
        let mut h = list.register();
        let mut reference = BTreeSet::new();
        // Deterministic pseudo-random mix.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 64;
            match state % 3 {
                0 => assert_eq!(list.insert(key, &mut h), reference.insert(key)),
                1 => assert_eq!(list.remove(&key, &mut h), reference.remove(&key)),
                _ => assert_eq!(list.contains(&key, &mut h), reference.contains(&key)),
            }
        }
        assert_eq!(list.len(&mut h), reference.len());
    }

    #[test]
    fn works_with_non_copy_keys() {
        let list: HarrisMichaelList<String, Leaky> = HarrisMichaelList::new(Leaky::with_defaults());
        let mut h = list.register();
        assert!(list.insert("bravo".to_string(), &mut h));
        assert!(list.insert("alpha".to_string(), &mut h));
        assert!(!list.insert("alpha".to_string(), &mut h));
        assert!(list.contains(&"alpha".to_string(), &mut h));
        assert!(list.remove(&"bravo".to_string(), &mut h));
        assert_eq!(list.len(&mut h), 1);
    }
}
