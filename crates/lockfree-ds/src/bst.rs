//! Lock-free external binary search tree (Natarajan–Mittal style edge marking).
//!
//! The third structure of the paper's evaluation (§7.1, "a binary search tree \[27\]"):
//! an *external* (leaf-oriented) BST — internal nodes only route, every element lives
//! in a leaf — with deletion coordinated through **edge marking**: two low bits of
//! each child pointer act as a *flag* ("the leaf below this edge is being deleted")
//! and a *tag* ("this edge must not be modified because its parent is about to be
//! spliced out").
//!
//! ## Operations
//!
//! * `insert` replaces the reached leaf with a freshly allocated internal node whose
//!   two children are the old leaf and the new leaf (single clean-edge CAS).
//! * `remove` runs the two-phase Natarajan–Mittal protocol: *injection* flags the
//!   parent→leaf edge (the linearization point), *cleanup* tags the sibling edge and
//!   splices the sibling up into the grandparent, unlinking the parent and the leaf.
//!   Writers that fail a CAS because an edge is flagged/tagged help complete the
//!   pending cleanup before retrying.
//! * `contains` is a plain descent.
//!
//! ## Reclamation integration
//!
//! Six protection slots per thread (`K = 6`, as in the paper): the descent rotates
//! grandparent / parent / leaf / next through four slots, and the helping path uses
//! the remaining slack. Validation only accepts **clean** edges (no flag, no tag,
//! same address): every incoming edge of an unlinked node is either gone (replaced by
//! the splice) or flagged/tagged, so a traversal can never validate a protection for
//! a node that was already retired — the same invariant the marked `next` pointer
//! provides in the list and skip list.
//!
//! The thread whose CAS performs the splice retires the unlinked parent and leaf.
//! Under heavily contended overlapping deletes the original algorithm can form short
//! chains of tagged edges; this implementation sidesteps chains by restarting
//! traversals at dirty edges (writers help first), which keeps reclamation exact in
//! all tested scenarios at the cost of the pure reader occasionally retrying while a
//! cleanup is in flight (a progress, never a safety, concern).

use crate::keyspace::KeySlot;
use reclaim_core::{drop_fn_for, Era, Guard, Smr, NO_BIRTH_ERA};
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// Number of protection slots the BST needs per thread (`K` in the paper).
pub const BST_HP_SLOTS: usize = 6;

/// Edge bit: the leaf under this edge is being deleted.
const FLAG: usize = 1;
/// Edge bit: this edge's parent node is being spliced out; do not modify the edge.
const TAG: usize = 2;
const BITS: usize = FLAG | TAG;

#[inline]
fn clean<T>(ptr: *mut T) -> *mut T {
    ((ptr as usize) & !BITS) as *mut T
}

#[inline]
fn is_flagged<T>(ptr: *mut T) -> bool {
    (ptr as usize) & FLAG != 0
}

#[inline]
fn is_tagged<T>(ptr: *mut T) -> bool {
    (ptr as usize) & TAG != 0
}

#[inline]
fn with_flag<T>(ptr: *mut T) -> *mut T {
    ((ptr as usize) | FLAG) as *mut T
}

#[inline]
fn with_tag<T>(ptr: *mut T) -> *mut T {
    ((ptr as usize) | TAG) as *mut T
}

#[inline]
fn without_tag<T>(ptr: *mut T) -> *mut T {
    ((ptr as usize) & !TAG) as *mut T
}

struct Node<K> {
    key: KeySlot<K>,
    is_leaf: bool,
    /// Era the node was allocated in (`SmrHandle::alloc_node`); immutable after
    /// allocation, read back by the splicing thread at the retire sites.
    /// `NO_BIRTH_ERA` on the sentinel scaffolding built before any handle
    /// exists.
    birth_era: Era,
    left: AtomicPtr<Node<K>>,
    right: AtomicPtr<Node<K>>,
}

impl<K> Node<K> {
    fn leaf(key: KeySlot<K>, birth_era: Era) -> *mut Node<K> {
        let node = Box::into_raw(Box::new(Node {
            key,
            is_leaf: true,
            birth_era,
            left: AtomicPtr::new(std::ptr::null_mut()),
            right: AtomicPtr::new(std::ptr::null_mut()),
        }));
        crate::oracle::register(node, size_of::<Node<K>>());
        node
    }

    fn internal(
        key: KeySlot<K>,
        left: *mut Node<K>,
        right: *mut Node<K>,
        birth_era: Era,
    ) -> *mut Node<K> {
        let node = Box::into_raw(Box::new(Node {
            key,
            is_leaf: false,
            birth_era,
            left: AtomicPtr::new(left),
            right: AtomicPtr::new(right),
        }));
        crate::oracle::register(node, size_of::<Node<K>>());
        node
    }
}

/// Result of a descent: grandparent, parent and leaf, all protected.
struct SeekRecord<K> {
    grandparent: *mut Node<K>,
    parent: *mut Node<K>,
    leaf: *mut Node<K>,
}

/// A lock-free ordered set backed by an external binary search tree.
pub struct LockFreeBst<K, S: Smr> {
    /// Sentinel root `R`: `left` = sentinel `S`, `right` = +∞ leaf. Real content
    /// lives under `S.left`.
    root: Box<Node<K>>,
    smr: Arc<S>,
}

// SAFETY: shared mutation is atomic; reclamation follows the SMR protocol.
unsafe impl<K: Send + Sync, S: Smr> Send for LockFreeBst<K, S> {}
unsafe impl<K: Send + Sync, S: Smr> Sync for LockFreeBst<K, S> {}

impl<K, S> LockFreeBst<K, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    S: Smr,
{
    /// Creates an empty tree using the given reclamation scheme.
    pub fn new(smr: Arc<S>) -> Self {
        // S sentinel: left = -∞ leaf (where the first real insert lands),
        // right = +∞ leaf (never reached by real keys).
        let s_left = Node::leaf(KeySlot::NegInf, NO_BIRTH_ERA);
        let s_right = Node::leaf(KeySlot::PosInf, NO_BIRTH_ERA);
        let s = Node::internal(KeySlot::PosInf, s_left, s_right, NO_BIRTH_ERA);
        let r_right = Node::leaf(KeySlot::PosInf, NO_BIRTH_ERA);
        let root = Box::new(Node {
            key: KeySlot::PosInf,
            is_leaf: false,
            birth_era: NO_BIRTH_ERA,
            left: AtomicPtr::new(s),
            right: AtomicPtr::new(r_right),
        });
        Self { root, smr }
    }

    /// The reclamation scheme this tree was created with.
    pub fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread with the underlying reclamation scheme.
    pub fn register(&self) -> S::Handle {
        self.smr.register()
    }

    fn root_ptr(&self) -> *mut Node<K> {
        (&*self.root) as *const Node<K> as *mut Node<K>
    }

    /// The child field of `node` on the search path of `key`.
    ///
    /// # Safety
    ///
    /// `node` must be protected (or a sentinel owned by `self`) and internal.
    unsafe fn child_edge<'a>(node: *mut Node<K>, key: &K) -> &'a AtomicPtr<Node<K>> {
        // SAFETY: the pointer was validated (or is hazard-protected) by the surrounding traversal and nodes are only freed through SMR.
        let node = unsafe { &*node };
        if node.key.cmp_key(key) == CmpOrdering::Greater {
            &node.left
        } else {
            &node.right
        }
    }

    /// The other child field of `node` relative to the search path of `key`.
    ///
    /// # Safety
    ///
    /// Same requirements as [`child_edge`](Self::child_edge).
    unsafe fn sibling_edge<'a>(node: *mut Node<K>, key: &K) -> &'a AtomicPtr<Node<K>> {
        // SAFETY: the pointer was validated (or is hazard-protected) by the surrounding traversal and nodes are only freed through SMR.
        let node = unsafe { &*node };
        if node.key.cmp_key(key) == CmpOrdering::Greater {
            &node.right
        } else {
            &node.left
        }
    }

    /// Descends to the leaf on `key`'s search path, keeping grandparent, parent and
    /// leaf protected. Only clean edges are traversed; encountering a dirty edge
    /// restarts the descent (writers help through `cleanup` before calling again).
    fn seek(&self, key: &K, guard: &Guard<'_, S::Handle>) -> SeekRecord<K> {
        let root = self.root_ptr();
        'retry: loop {
            // Rotating slot assignment: gp, parent, leaf, next cycle over slots 0..4.
            let mut gp_slot = 0usize;
            let mut p_slot = 1usize;
            let mut l_slot = 2usize;
            let mut free_slot = 3usize;

            let mut grandparent = root;
            // SAFETY: the root sentinel is owned by `self` and never reclaimed.
            let s = clean(unsafe { &*root }.left.load(Ordering::Acquire));
            guard.protect_ptr(p_slot, s.cast());
            // SAFETY: the root sentinel is owned by `self` and never reclaimed.
            if unsafe { &*root }.left.load(Ordering::Acquire) != s {
                continue 'retry;
            }
            let mut parent = s;
            // SAFETY: `parent` (the S sentinel) was protected and validated above; it
            // is in fact never removed, but the generic discipline costs nothing.
            let leaf_raw = unsafe { &*parent }.left.load(Ordering::Acquire);
            let mut leaf = clean(leaf_raw);
            guard.protect_ptr(l_slot, leaf.cast());
            // SAFETY: `parent` was protected and validated above.
            if unsafe { &*parent }.left.load(Ordering::Acquire) != leaf {
                continue 'retry;
            }
            loop {
                // SAFETY: `leaf` protected and validated through a clean edge.
                if unsafe { &*leaf }.is_leaf {
                    return SeekRecord {
                        grandparent,
                        parent,
                        leaf,
                    };
                }
                // SAFETY: `leaf` is a protected internal node.
                let edge = unsafe { Self::child_edge(leaf, key) };
                let next_raw = edge.load(Ordering::Acquire);
                if (next_raw as usize) & BITS != 0 {
                    // Dirty edge: a delete is in flight below. *Help it complete*
                    // before restarting — a bare restart would descend into the
                    // same dirty edge forever if its owner is preempted, and the
                    // owner itself can only retry through this very seek, so
                    // without helping the whole system can spin (observed as a
                    // livelock under single-CPU scheduling). `cleanup` only uses
                    // the record's grandparent/parent, both still protected here.
                    let help = SeekRecord {
                        grandparent: parent,
                        parent: leaf,
                        leaf: clean(next_raw),
                    };
                    self.cleanup(key, &help, guard);
                    continue 'retry;
                }
                let next = next_raw;
                guard.protect_ptr(free_slot, next.cast());
                if edge.load(Ordering::Acquire) != next_raw {
                    continue 'retry;
                }
                crate::oracle::check(next, "bst::seek::validated");
                // Rotate: grandparent <- parent <- leaf <- next.
                grandparent = parent;
                parent = leaf;
                let recycled = gp_slot;
                gp_slot = p_slot;
                p_slot = l_slot;
                l_slot = free_slot;
                free_slot = recycled;
                leaf = next;
            }
        }
    }

    /// Completes (or helps complete) the removal whose flag is on one of `parent`'s
    /// edges: tags the surviving edge and splices the survivor into the grandparent.
    /// Returns true if the splice succeeded (performed by this call).
    ///
    /// Only `record.grandparent` and `record.parent` are read, and both must still
    /// be protected (or be sentinels), with `grandparent`'s key-side edge having
    /// led to `parent` when they were protected. `record.leaf` is deliberately
    /// unused — helpers (see `seek`) synthesize records whose `leaf` is an
    /// unvalidated pointer read from a dirty edge, so it must never be
    /// dereferenced here.
    fn cleanup(&self, key: &K, record: &SeekRecord<K>, guard: &Guard<'_, S::Handle>) -> bool {
        let SeekRecord {
            grandparent,
            parent,
            ..
        } = *record;
        // SAFETY: `parent` is protected by the seek that produced the record.
        let mut removed_edge = unsafe { Self::child_edge(parent, key) };
        let mut survivor_edge = unsafe { Self::sibling_edge(parent, key) };
        // If the flag is not on the key-side edge, this call is helping a delete that
        // targets the *other* child: swap roles.
        if !is_flagged(removed_edge.load(Ordering::Acquire)) {
            std::mem::swap(&mut removed_edge, &mut survivor_edge);
        }
        if !is_flagged(removed_edge.load(Ordering::Acquire)) {
            // No pending delete at this parent any more: nothing to clean up.
            return false;
        }
        // Tag the survivor edge so no insert can slip underneath while we splice
        // (a flagged survivor needs no tag: flagging already excludes modification,
        // and its own delete will keep operating on the node after the splice because
        // the flag is carried over). Loop until the edge is tagged or flagged — a
        // failed CAS means an insert changed the edge, so tag the new value instead.
        let survivor_raw = loop {
            let raw = survivor_edge.load(Ordering::Acquire);
            if (raw as usize) & BITS != 0 {
                break raw;
            }
            if survivor_edge
                .compare_exchange(raw, with_tag(raw), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break with_tag(raw);
            }
        };
        debug_assert!(
            is_tagged(survivor_raw) || is_flagged(survivor_raw),
            "survivor edge must be protected (tagged or flagged) before the splice"
        );
        let removed_leaf = clean(removed_edge.load(Ordering::Acquire));
        // Splice: swing the grandparent's edge from `parent` to the survivor
        // (tag cleared, flag preserved). The expected value must be completely clean;
        // if the grandparent edge is itself dirty or no longer points to `parent`,
        // another operation interfered and the caller re-seeks.
        // SAFETY: `grandparent` is protected by the seek record (or is the root
        // sentinel).
        let gp_edge = unsafe { Self::child_edge(grandparent, key) };
        let new_val = without_tag(survivor_raw);
        if gp_edge
            .compare_exchange(parent, new_val, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // This thread unlinked `parent` and `removed_leaf`: it alone retires them
            // (rule 3). Both are unreachable: the only edge into `parent` was just
            // replaced, and the only edge into `removed_leaf` (from `parent`) is
            // flagged, so no traversal can validate a new protection for either.
            let (drop_fn, bytes) = (drop_fn_for::<Node<K>>(), size_of::<Node<K>>());
            // SAFETY: see above — this thread's CAS unlinked both nodes, making it the exclusive retirer, and neither can be re-protected.
            unsafe {
                guard.retire_raw(parent, drop_fn, (*parent).birth_era, bytes);
                guard.retire_raw(removed_leaf, drop_fn, (*removed_leaf).birth_era, bytes);
            }
            true
        } else {
            false
        }
    }

    /// Returns true if `key` is in the set.
    pub fn contains(&self, key: &K, handle: &mut S::Handle) -> bool {
        let guard = Guard::new(handle);
        let record = self.seek(key, &guard);
        // SAFETY: `record.leaf` is protected by the seek.
        unsafe { &*record.leaf }.key.cmp_key(key) == CmpOrdering::Equal
    }

    /// Inserts `key`; returns false if it was already present.
    pub fn insert(&self, key: K, handle: &mut S::Handle) -> bool {
        let guard = Guard::new(handle);
        loop {
            let record = self.seek(&key, &guard);
            let leaf = record.leaf;
            // SAFETY: `leaf` protected by the seek.
            let leaf_key = unsafe { &(*leaf).key };
            if leaf_key.cmp_key(&key) == CmpOrdering::Equal {
                return false;
            }
            // Build the replacement subtree: a new internal node whose children are
            // the existing leaf and the new leaf, ordered by key. The internal node's
            // routing key is the larger of the two (search goes left iff key < node).
            let new_leaf = Node::leaf(KeySlot::Key(key.clone()), guard.alloc_era());
            let (internal_key, left, right) = match leaf_key.cmp_key(&key) {
                CmpOrdering::Greater => (leaf_key.clone(), new_leaf, leaf),
                _ => (KeySlot::Key(key.clone()), leaf, new_leaf),
            };
            let new_internal = Node::internal(internal_key, left, right, guard.alloc_era());
            // Pause point: the validate-then-CAS window (audited against the
            // skip list's upper-level re-link race; see the note below).
            crate::interleave::hit("bst::insert::pre_link_cas");
            // Why this window is closed *without* versioned links (unlike the
            // skip list): the CAS below expects a completely clean edge holding
            // the leaf the seek validated. A remove completing in the window
            // dirties that exact word no matter how it overlaps — deleting our
            // leaf flags the edge (injection), deleting the *sibling* tags our
            // edge before the parent is spliced out (cleanup tags the survivor
            // edge first), and a spliced-out parent's edges stay flagged/tagged
            // forever, so even a CAS against a retired parent's edge fails. A
            // retired node is never re-linked (splices only move *surviving*
            // subtrees up), and the seek's protection slots keep `parent` and
            // `leaf` from being freed and re-allocated under us. So clean-edge
            // equality is equivalent to "nothing happened since validation".
            // The forced schedules in `tests/interleaving_harness.rs` pin both
            // the leaf-removal and the sibling-removal (parent splice) cases.
            // SAFETY: `record.parent` protected by the seek.
            let edge = unsafe { Self::child_edge(record.parent, &key) };
            match edge.compare_exchange(leaf, new_internal, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    return true;
                }
                Err(current) => {
                    // The new nodes were never published: free them directly.
                    crate::oracle::deregister(new_internal);
                    crate::oracle::deregister(new_leaf);
                    // Sanctioned free path: failed-insert rollback of private nodes.
                    #[allow(clippy::disallowed_methods)]
                    // SAFETY: both were just allocated and never shared.
                    unsafe {
                        drop(Box::from_raw(new_internal));
                        drop(Box::from_raw(new_leaf));
                    }
                    // If the edge still leads to our leaf but is flagged/tagged, help
                    // the pending delete before retrying.
                    if clean(current) == leaf && (current as usize) & BITS != 0 {
                        self.cleanup(&key, &record, &guard);
                    }
                }
            }
        }
    }

    /// Removes `key`; returns false if it was not present.
    pub fn remove(&self, key: &K, handle: &mut S::Handle) -> bool {
        let guard = Guard::new(handle);
        // Injection phase: flag the parent→leaf edge (linearization point).
        let mut injected = false;
        let mut victim: *mut Node<K> = std::ptr::null_mut();
        loop {
            let record = self.seek(key, &guard);
            if !injected {
                let leaf = record.leaf;
                // SAFETY: `leaf` protected by the seek.
                if unsafe { &*leaf }.key.cmp_key(key) != CmpOrdering::Equal {
                    return false;
                }
                // SAFETY: `record.parent` protected by the seek.
                let edge = unsafe { Self::child_edge(record.parent, key) };
                match edge.compare_exchange(
                    leaf,
                    with_flag(leaf),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        injected = true;
                        victim = leaf;
                        if self.cleanup(key, &record, &guard) {
                            return true;
                        }
                    }
                    Err(current) => {
                        // Someone interfered. If the edge still leads to our leaf but
                        // is dirty, help the pending operation along, then retry.
                        if clean(current) == leaf && (current as usize) & BITS != 0 {
                            self.cleanup(key, &record, &guard);
                        }
                    }
                }
            } else {
                // Cleanup phase: keep helping until our flagged leaf is gone from the
                // search path (either we spliced it out or someone helped us).
                if record.leaf != victim {
                    return true;
                }
                if self.cleanup(key, &record, &guard) {
                    return true;
                }
            }
        }
    }

    /// Counts the elements currently in the set (exclusive of sentinels). Linear and
    /// intended for tests, examples and benchmark validation only; the traversal
    /// restarts if it observes interference at the root.
    pub fn len(&self, handle: &mut S::Handle) -> usize {
        let _guard = Guard::new(handle);
        // An explicit stack of protected-free raw pointers: this walk is only safe
        // against concurrent reclamation because it re-validates nothing — so it is
        // documented as a quiescent-only helper. Tests and benchmark validation call
        // it while no other thread mutates the tree.
        let mut count = 0usize;
        let mut stack = vec![clean(self.root.left.load(Ordering::Acquire))];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            // SAFETY: callers guarantee quiescence (no concurrent mutation), so every
            // reachable node is live.
            let node_ref = unsafe { &*node };
            if node_ref.is_leaf {
                if !node_ref.key.is_sentinel() {
                    count += 1;
                }
            } else {
                stack.push(clean(node_ref.left.load(Ordering::Acquire)));
                stack.push(clean(node_ref.right.load(Ordering::Acquire)));
            }
        }
        count
    }

    /// True if the set currently holds no elements (quiescent-only helper).
    pub fn is_empty(&self, handle: &mut S::Handle) -> bool {
        self.len(handle) == 0
    }
}

impl<K, S: Smr> Drop for LockFreeBst<K, S> {
    fn drop(&mut self) {
        // Exclusive access: free every node still reachable. Unlinked nodes belong to
        // the reclamation scheme.
        let mut stack = vec![
            clean(self.root.left.load(Ordering::Relaxed)),
            clean(self.root.right.load(Ordering::Relaxed)),
        ];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            crate::oracle::deregister(node);
            // Sanctioned free path: structure teardown walk under `&mut self`.
            #[allow(clippy::disallowed_methods)]
            // SAFETY: exclusive access; each reachable node is freed exactly once.
            let boxed = unsafe { Box::from_raw(node) };
            if !boxed.is_leaf {
                stack.push(clean(boxed.left.load(Ordering::Relaxed)));
                stack.push(clean(boxed.right.load(Ordering::Relaxed)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::{Leaky, SmrConfig};
    use std::collections::BTreeSet;

    fn leaky_bst() -> LockFreeBst<u64, Leaky> {
        LockFreeBst::new(Leaky::new(SmrConfig::for_bst().with_max_threads(8)))
    }

    #[test]
    fn empty_tree_contains_nothing() {
        let bst = leaky_bst();
        let mut h = bst.register();
        assert!(!bst.contains(&7, &mut h));
        assert_eq!(bst.len(&mut h), 0);
        assert!(bst.is_empty(&mut h));
    }

    #[test]
    fn insert_contains_remove_round_trip() {
        let bst = leaky_bst();
        let mut h = bst.register();
        assert!(bst.insert(7, &mut h));
        assert!(!bst.insert(7, &mut h));
        assert!(bst.contains(&7, &mut h));
        assert!(!bst.contains(&8, &mut h));
        assert!(bst.remove(&7, &mut h));
        assert!(!bst.remove(&7, &mut h));
        assert!(!bst.contains(&7, &mut h));
        assert_eq!(bst.len(&mut h), 0);
    }

    #[test]
    fn single_element_tree_grows_and_shrinks() {
        let bst = leaky_bst();
        let mut h = bst.register();
        for round in 0..10_u64 {
            assert!(bst.insert(round, &mut h));
            assert_eq!(bst.len(&mut h), 1);
            assert!(bst.remove(&round, &mut h));
            assert_eq!(bst.len(&mut h), 0);
        }
    }

    #[test]
    fn ordered_and_reverse_ordered_insertions() {
        let bst = leaky_bst();
        let mut h = bst.register();
        for key in 0..200_u64 {
            assert!(bst.insert(key, &mut h));
        }
        for key in (200..400_u64).rev() {
            assert!(bst.insert(key, &mut h));
        }
        assert_eq!(bst.len(&mut h), 400);
        for key in 0..400_u64 {
            assert!(bst.contains(&key, &mut h), "missing {key}");
        }
        for key in (0..400_u64).step_by(3) {
            assert!(bst.remove(&key, &mut h));
        }
        for key in 0..400_u64 {
            assert_eq!(bst.contains(&key, &mut h), key % 3 != 0);
        }
    }

    #[test]
    fn matches_reference_set_on_mixed_operations() {
        let bst = leaky_bst();
        let mut h = bst.register();
        let mut reference = BTreeSet::new();
        let mut state = 0xdead_beef_cafe_f00d_u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 128;
            match state % 3 {
                0 => assert_eq!(
                    bst.insert(key, &mut h),
                    reference.insert(key),
                    "insert {key}"
                ),
                1 => assert_eq!(
                    bst.remove(&key, &mut h),
                    reference.remove(&key),
                    "remove {key}"
                ),
                _ => assert_eq!(
                    bst.contains(&key, &mut h),
                    reference.contains(&key),
                    "contains {key}"
                ),
            }
        }
        assert_eq!(bst.len(&mut h), reference.len());
    }

    #[test]
    fn works_with_clonable_non_copy_keys() {
        let bst: LockFreeBst<String, Leaky> = LockFreeBst::new(Leaky::new(SmrConfig::for_bst()));
        let mut h = bst.register();
        assert!(bst.insert("m".to_string(), &mut h));
        assert!(bst.insert("a".to_string(), &mut h));
        assert!(bst.insert("z".to_string(), &mut h));
        assert!(bst.contains(&"a".to_string(), &mut h));
        assert!(bst.remove(&"m".to_string(), &mut h));
        assert_eq!(bst.len(&mut h), 2);
    }
}
