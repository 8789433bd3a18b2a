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
//! 2. [`Guard::load_protected`] (at the head) and `advance` (at each step)
//!    publish a protection (`assign_HP`) and re-validate that the predecessor
//!    still links to the node — a [`Shared`] only exists validated;
//! 3. the node is retired (`free_node_later`) exactly once, through the
//!    [`reclaim_core::Unlinked`] capability minted by whichever thread wins the
//!    physical unlink CAS.
//!
//! Two protection slots are used (`K = 2`, matching the paper), and their
//! roles alternate hand over hand, as in Michael's traversal: the current node
//! is published into the slot that does not hold the predecessor, and when the
//! walk steps onto it, it *is* the predecessor — protected where it stands —
//! and the other slot takes the next node. One publication per node visited.
//!
//! ## Batch insert
//!
//! [`HarrisMichaelList::insert_batch`] inserts many keys, as `insert` would
//! one by one. It allocates every node first, in the keys' given order, so
//! each node gets the block sequential inserts would have given it, and an
//! `O(n log n)` build (the sort) replaces an `O(n²)` one.
//!
//! * **Into an empty list** — the head read null — it chains the nodes
//!   privately in ascending order and publishes the chain with one CAS on
//!   the head, expecting the word it read: that CAS is the batch's
//!   linearization point. No search runs and no protection is published; no
//!   node is read once another thread can reach it.
//! * **Otherwise**, or if that CAS fails, it links the nodes in descending
//!   key order, each through the search and the link loop `insert` uses. A
//!   search for a key smaller than every key linked so far stops at the
//!   head's first node: one protection a key instead of a walk over half the
//!   list, and each key is linked by one validated CAS, as in `insert`.
//!
//! When no key of the batch was present and nothing runs concurrently, either
//! way builds node for node the list sequential inserts build.

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

impl<K, V> Node<K, V> {
    /// A node to link, pointing nowhere yet.
    fn new(key: K, value: V) -> Self {
        let next = Atomic::null();
        Self { key, value, next }
    }
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
        let s = self.search(&key, guard);
        if s.hit(&key).is_some() {
            return false;
        }
        self.link(Owned::new(Node::new(key, value), guard), s, guard)
    }

    /// Links the private `node` where its search `s` stopped, searching again
    /// after a failed CAS; false if its key is found present, and then the
    /// never-published node is freed directly (paper Alg. 6, "Node was not
    /// inserted; free the node directly"). `insert` and the list's batch
    /// insert link through here.
    fn link<'g, H: SmrHandle>(
        &'g self,
        mut node: Owned<Node<K, V>>,
        mut s: Search<'g, K, V>,
        guard: &'g Guard<'_, H>,
    ) -> bool {
        loop {
            if s.hit(&node.key).is_some() {
                return false;
            }
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
            // `prev`'s node. The explorer-found schedules replayed in
            // `tests/interleaving_harness.rs` pin both neighbour removals.
            match s.prev.cas_link(s.curr, node) {
                Ok(_) => return true,
                // The node was never shared: keep it for the retry.
                Err((_, returned)) => node = returned,
            }
            s = self.search(&node.key, guard);
        }
    }

    /// The batch's publication (`batch::insert_batch`, step 2). If the chain
    /// is empty, chains `nodes` (ascending) privately and publishes them all
    /// with one CAS on the head; otherwise, or if that CAS fails, hands them
    /// back unchained. It publishes no protection: it reads no node another
    /// thread can reach.
    fn publish_batch<H: SmrHandle>(
        &self,
        nodes: Vec<Owned<Node<K, V>>>,
        guard: &Guard<'_, H>,
    ) -> Result<(), Vec<Owned<Node<K, V>>>> {
        let head = self.head.load(guard);
        if !head.is_null() || head.is_marked() {
            return Err(nodes);
        }
        // Largest key first: each node takes the chain built so far.
        let first = nodes
            .into_iter()
            .rev()
            .reduce(|next, mut node| {
                node.next = Atomic::new(next);
                node
            })
            .expect("a batch publishes at least one node");
        match self.head.cas_link(head, first) {
            Ok(_) => Ok(()),
            Err((_, first)) => {
                let mut nodes = Vec::new();
                let mut next = Some(first);
                while let Some(mut node) = next {
                    // SAFETY: the failed CAS shared nothing: the chain is
                    // this thread's alone, and each link is taken once.
                    next = unsafe { node.next.take() };
                    nodes.push(node);
                }
                Err(nodes)
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

/// One step of the walk: publishes `expect` (read from `prev`, the link of
/// `pred`) in `slot` and re-reads `prev`, `Some(expect)` if the link still
/// holds exactly that word (pointer, mark *and* version). A pause point sits
/// between the publication and the re-read: the window in which a
/// publication over the slot still holding the predecessor would let the
/// predecessor be freed under the re-read of its link.
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
// SAFETY: `&self` operations read keys only by shared reference (`K: Sync`)
// and change links only by CAS; a node is freed only once its scheme proves
// no guard still protects it.
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

    /// Inserts every key of `keys`, as [`insert`](Self::insert) would one by
    /// one, under one guard; returns how many were absent. The nodes are
    /// allocated in the keys' order; into an empty list they are chained
    /// privately and published with one CAS, otherwise linked in descending
    /// key order (module docs, "Batch insert").
    pub fn insert_batch(&self, keys: impl IntoIterator<Item = K>, handle: &mut S::Handle) -> usize {
        let guard = Guard::new(handle);
        crate::batch::insert_batch(
            keys.into_iter().collect(),
            |_, key| Owned::new(Node::new(key, ()), &guard),
            |nodes| self.chain.publish_batch(nodes, &guard),
            |node| {
                let s = self.chain.search(&node.key, &guard);
                self.chain.link(node, s, &guard)
            },
        )
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
    use crate::batch::{shuffled, tagged};
    use reclaim_core::node_cache::CHUNK_BYTES;
    use reclaim_core::{Era, Leaky, SmrConfig};
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

    /// Every node's key, offset in its chunk and birth era, in list order:
    /// the layout a build leaves.
    fn layout<K: Ord + Copy + Send + Sync + 'static, S: Smr>(
        list: &HarrisMichaelList<K, S>,
    ) -> Vec<(K, usize, Era)> {
        let mut h = list.register();
        let guard = Guard::new(&mut h);
        let mut nodes = Vec::new();
        let mut curr = list.chain.head.load(&guard);
        // SAFETY: nothing runs concurrently and nothing was removed, so every
        // linked node is live.
        while let Some(node) = unsafe { curr.as_ref() } {
            let offset = node as *const Node<K, ()> as usize % CHUNK_BYTES;
            // SAFETY: as above; `curr` is not null.
            nodes.push((node.key, offset, unsafe { curr.birth_era() }));
            curr = node.next.load(&guard);
        }
        nodes
    }

    /// Builds a list of `keys` over a fresh `scheme` on a fresh thread, by the
    /// batch or by sequential inserts, after inserting `present` (a key
    /// outside the batch's, so a batch takes the fallback): its layout and
    /// how many of `keys` went in.
    fn build<K, S>(
        scheme: Arc<S>,
        keys: Vec<K>,
        batch: bool,
        present: Option<K>,
    ) -> (Vec<(K, usize, Era)>, usize)
    where
        K: Ord + Copy + Send + Sync + 'static,
        S: Smr,
    {
        std::thread::spawn(move || {
            let list = HarrisMichaelList::new(scheme);
            let mut h = list.register();
            if let Some(key) = present {
                assert!(list.insert(key, &mut h));
            }
            let inserted = if batch {
                list.insert_batch(keys, &mut h)
            } else {
                keys.into_iter().filter(|&k| list.insert(k, &mut h)).count()
            };
            assert_eq!(list.len(&mut h), inserted + usize::from(present.is_some()));
            assert_eq!(Smr::stats(&**list.smr()).retired, 0, "nothing is retired");
            (layout(&list), inserted)
        })
        .join()
        .unwrap()
    }

    #[test]
    fn a_batch_builds_the_list_sequential_inserts_build() {
        // 600 draws of 0..1000: repeats included, and more blocks than one
        // cache refill. HE ticks its era every 64 allocations, seven times
        // over the batch, so a node allocated out of turn across a tick
        // carries another birth era too. Into an empty list the batch is
        // published at once; past a key above its range it takes the
        // fallback, a search a key.
        let keys = shuffled(600, 1_000);
        let he = || he::He::new(SmrConfig::default().with_hp_per_thread(LIST_HP_SLOTS));
        for present in [None, Some(1_000)] {
            for (name, batch, sequential) in [
                (
                    "leaky",
                    build(Leaky::with_defaults(), keys.clone(), true, present),
                    build(Leaky::with_defaults(), keys.clone(), false, present),
                ),
                (
                    "he",
                    build(he(), keys.clone(), true, present),
                    build(he(), keys.clone(), false, present),
                ),
            ] {
                assert_eq!(
                    batch.1,
                    keys.iter().collect::<BTreeSet<_>>().len(),
                    "{name}"
                );
                assert_eq!(
                    batch, sequential,
                    "{name}, {present:?} present: key order, chunk offsets and birth eras"
                );
            }
        }
        let eras: BTreeSet<Era> = build(he(), keys, true, None)
            .0
            .iter()
            .map(|n| n.2)
            .collect();
        assert!(eras.len() > 5, "HE stamps several eras: {}", eras.len());
    }

    #[test]
    fn a_batch_inserts_a_repeated_key_by_its_first_occurrence() {
        let keys = tagged(&[5, 3, 5, 9, 3, 5]);
        let (nodes, inserted) = build(Leaky::with_defaults(), keys.clone(), true, None);
        assert_eq!(inserted, 3);
        let firsts: Vec<(u64, usize)> = nodes.iter().map(|(k, ..)| (k.key, k.occurrence)).collect();
        assert_eq!(firsts, [(3, 1), (5, 0), (9, 3)]);
        assert_eq!(nodes, build(Leaky::with_defaults(), keys, false, None).0);
    }

    #[test]
    fn a_batch_frees_the_node_of_a_key_already_present() {
        let scheme = Leaky::with_defaults();
        let list = HarrisMichaelList::new(Arc::clone(&scheme));
        let mut h = list.register();
        assert!(list.insert(7, &mut h));
        let given_back = Smr::stats(&*scheme).arena_free_bytes;
        assert_eq!(list.insert_batch([3, 7, 11], &mut h), 2);
        assert_eq!(list.len(&mut h), 3);
        // The never-published node goes back to the arena, as `insert`'s
        // does, and is not retired.
        let stats = Smr::stats(&*scheme);
        assert!(stats.arena_free_bytes > given_back, "{stats:?}");
        assert_eq!(stats.retired, 0);
        assert_eq!(list.insert_batch(Vec::new(), &mut h), 0, "an empty batch");
    }
}
