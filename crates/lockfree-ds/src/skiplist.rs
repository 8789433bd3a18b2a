//! Lock-free skip-list set (Fraser / Herlihy–Shavit style) on **versioned links**.
//!
//! The skip list the paper evaluates (§7.1, "a lock-free skip list \[11\]"): a tower of
//! Harris-style lists. Each node owns `height` forward pointers; level 0 holds every
//! element, upper levels are express lanes. Membership is decided at level 0.
//!
//! * **Logical deletion** marks every level's link word, top-down; a node is
//!   logically deleted once its level-0 link is marked, and the thread whose CAS
//!   marks level 0 owns the deletion.
//! * **Physical deletion** is performed by `find`: any traversal that encounters a
//!   marked node snips it out of the level it is traversing.
//! * **Reclamation**: the owning deleter sweeps the victim out of every level,
//!   *fences* the upper levels (below), then retires it exactly once.
//!
//! ## Node layout and one search per update
//!
//! A tower is one allocation: a header (key, height, birth era; 32 B for `u64`
//! keys), then exactly `height` 8-byte links, read through one accessor, `link`,
//! that debug-asserts the level is in the tower. A height-1 node is 40 B, one of
//! the mean height 2 is 48 B (all [`MAX_HEIGHT`] links would be 160 B), and a
//! tower is retired at its real size. As in Fraser's and Herlihy–Shavit's
//! lists, an update searches once: `insert` links its upper levels from the
//! position its phase-1 `find` left protected, searching again only for a level
//! whose CAS failed, and a height-1 `remove` unlinks its victim with one CAS on
//! the `preds[0]` word its `find` returned, searching only if that CAS fails.
//!
//! ## Versioned links and the upper-level re-link race
//!
//! Every link is a [`VersionedAtomic`](crate::tagged::VersionedAtomic): pointer +
//! mark + a per-link version that every successful CAS bumps. The version closes
//! the race between the search that gives `insert` its level-`L` words and its
//! `pred.next[L]` CAS: a complete `remove` — mark, sweep, retire — fitting in
//! between typically leaves that link *untouched*, so a pointer-equality CAS
//! would re-link a **retired** node, and a later traversal could validate a
//! protection for memory the scheme is free to reclaim. Two rules close it:
//!
//! 1. **Validate-on-link** (`insert`, phase 2): the link CAS's expected value is
//!    the full [`LinkWord`](crate::tagged::LinkWord) — pointer *and version* —
//!    observed by the phase-1 `find`, before the node reached level 0, or by a
//!    re-search that validated `succs[0] == node`; either word predates any
//!    removal's sweep. The CAS succeeds only if the pred link was never
//!    modified in between.
//! 2. **Upper-level fencing** (`remove`, phase 3): one sweep pass unlinks the
//!    victim from every level — walking *through equal-key runs*, because a
//!    marked victim can transiently hide behind an equal-key node that a plain
//!    `find` stops short of — and, being top-down, ends with the victim's
//!    permanent absence from level 0. The deleter then bumps the version of the
//!    canonical pred link at every upper level of the victim's tower, each CAS
//!    expecting the exact word the sweep last observed there; a successful bump
//!    certifies the link was untouched from the sweep's visit until after the
//!    level-0 unlink and poisons every older snapshot, and any insert
//!    validating later observes `succs[0] != node` and stops linking — so once
//!    the fence completes, **no level can re-acquire the victim**, and retiring
//!    it is sound under every scheme (HP, Cadence, QSense, HE: a protection can
//!    only be validated through a link the victim is still reachable from;
//!    QSBR/EBR were already covered by grace periods). Victims of height 1 skip
//!    all of this: no upper level ever existed for them.
//!
//! The full interleaving argument lives in `reclaim-core`'s crate docs
//! ("Skip-list linking safety argument"); the deterministic regression schedule
//! lives in `tests/interleaving_harness.rs`, driven through this file's
//! [`interleave`](crate::interleave) pause points.
//!
//! ## Hazard-pointer budget
//!
//! With `MAX_HEIGHT = 16` levels a traversal owns two slots per level, plus one
//! cursor slot for the phase-3 sweep and one slot for the node an `insert` or
//! `remove` is working on: `2 × 16 + 2 = 34` slots ([`SKIPLIST_HP_SLOTS`]). This
//! matches the paper's observation that its skip list uses up to 35 hazard
//! pointers per thread — and is exactly why the gap between QSense and QSBR is
//! largest on the skip list (each protection is a store even if it is
//! fence-free).
//!
//! `find` therefore publishes each node it visits **once**: a level's two slots
//! alternate roles hand over hand, as in Michael's list. The cursor goes into
//! the level's *free* slot; when the walk steps onto it, the node is the new
//! predecessor protected where it stands, and the slot that held the old
//! predecessor becomes the free one. A slot is overwritten only when its
//! occupant is neither the level's predecessor nor its cursor nor a retained
//! `preds`/`succs` entry of a higher level, so `preds[l]` and `succs[l]` stay
//! protected in one of level `l`'s two slots (a predecessor carried down
//! without a step: in a higher level's) until the next `find` under the same
//! guard.

use crate::keyspace::KeySlot;
use crate::tagged::{LinkWord, VersionedAtomic};
use reclaim_core::{Era, Guard, Smr, NO_BIRTH_ERA};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::Cell;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maximum tower height. 2^16 ≫ the paper's 20 000-key skip list, so towers this
/// tall are effectively never generated but the bound keeps the protection budget
/// fixed.
pub const MAX_HEIGHT: usize = 16;

thread_local! {
    /// This thread's tower-height stream: a SplitMix64 state, advanced once per
    /// draw. Every thread starts from the same constant, so a run's towers
    /// depend on nothing but the operations its threads perform (no clock, no
    /// process-wide counter to contend on). Identical per-thread streams change
    /// no expectation a skip list relies on: each draw is still geometric(1/2)
    /// and independent of the key it lands on — which key a thread inserts next
    /// is the workload's choice — so the expected number of towers reaching
    /// each level, and with it the expected search path, are sums of the same
    /// marginals as under independent streams.
    static HEIGHT_STREAM: Cell<u64> = const { Cell::new(0x5EED_0F70_3E85_C0DE) };
}

/// Number of protection slots a traversal needs per thread.
pub const SKIPLIST_HP_SLOTS: usize = 2 * MAX_HEIGHT + 2;

/// First of `level`'s two slots (`slot ^ 1` is the other one). `find` rotates
/// its predecessor and cursor through the pair (module docs); the phase-3 sweep
/// pins its canonical predecessor here.
#[inline]
fn pred_slot(level: usize) -> usize {
    2 * level
}

/// Second of `level`'s two slots: the other half of `find`'s rotation, and the
/// phase-3 sweep's equal-run walking predecessor.
#[inline]
fn succ_slot(level: usize) -> usize {
    2 * level + 1
}

/// Scratch slot protecting the phase-3 sweep's cursor.
const HP_CURSOR: usize = 2 * MAX_HEIGHT;

/// Slot protecting the node an `insert` is currently publishing/linking, or the
/// victim a `remove` is deleting. It must be distinct from every slot `find`
/// and `sweep` use: both operations re-run them (overwriting every level's pair
/// and the sweep cursor) while they still need that node to stay unreclaimed.
const HP_NODE: usize = 2 * MAX_HEIGHT + 1;

/// A tower's header, followed in the same allocation by its `height` links
/// (module docs, "Node layout and one search per update").
#[repr(C)]
struct Node<K> {
    key: KeySlot<K>,
    height: usize,
    /// Era the node was allocated in (`SmrHandle::alloc_node`); immutable after
    /// allocation, read back by the level-0 deletion winner at the retire site.
    birth_era: Era,
}

impl<K> Node<K> {
    /// A tower of `height` levels: the header, then one link a level, which
    /// the header's alignment covers.
    fn layout(height: usize) -> Layout {
        const { assert!(align_of::<Self>() >= align_of::<VersionedAtomic<Self>>()) };
        let size = size_of::<Self>() + height * size_of::<VersionedAtomic<Self>>();
        Layout::from_size_align(size, align_of::<Self>()).expect("tower layout")
    }

    /// Allocates a tower of `succs.len()` levels whose links point at `succs`.
    fn alloc(key: KeySlot<K>, birth_era: Era, succs: &[*mut Node<K>]) -> *mut Node<K> {
        let height = succs.len();
        let layout = Self::layout(height);
        // SAFETY: the layout is non-empty (the header alone is).
        let node = unsafe { alloc(layout) }.cast::<Self>();
        if node.is_null() {
            handle_alloc_error(layout);
        }
        let header = Node {
            key,
            height,
            birth_era,
        };
        // SAFETY: a fresh block of `layout`: the header, then `height` links.
        unsafe {
            node.write(header);
            let links = node.add(1).cast::<VersionedAtomic<Self>>();
            for (level, &succ) in succs.iter().enumerate() {
                links.add(level).write(VersionedAtomic::new(succ));
            }
        }
        crate::oracle::register(node, layout.size());
        node
    }

    /// Frees a tower: a retired one (the scheme's destructor), the teardown
    /// walk's, and a node an insert never published.
    ///
    /// # Safety
    ///
    /// `ptr` came from [`Node::alloc`], no thread can reach it, and it is freed
    /// once.
    unsafe fn free(ptr: *mut u8) {
        let node = ptr.cast::<Self>();
        // SAFETY: the caller's contract; the links own nothing.
        unsafe {
            let layout = Self::layout((*node).height);
            std::ptr::drop_in_place(node);
            dealloc(ptr, layout);
        }
    }
}

/// Level `level`'s link of the tower at `node`.
///
/// # Safety
///
/// `node` must stay allocated for `'a`: the sentinel, a private node, or one
/// this operation protects, with `level` below its height.
#[inline]
unsafe fn link<'a, K>(node: *mut Node<K>, level: usize) -> &'a VersionedAtomic<Node<K>> {
    // SAFETY: the caller's contract; `Node::alloc` put `height` links right
    // after the header.
    unsafe {
        debug_assert!(level < (*node).height, "level {level} is above the tower");
        &*node.add(1).cast::<VersionedAtomic<Node<K>>>().add(level)
    }
}

/// `link`: `current → new`, unmarked, bumping the version — every CAS this
/// list makes on a link but marking and fencing.
#[inline]
fn swing<K>(
    link: &VersionedAtomic<Node<K>>,
    current: LinkWord<Node<K>>,
    new: *mut Node<K>,
) -> Result<LinkWord<Node<K>>, LinkWord<Node<K>>> {
    link.compare_exchange(current, new, false, Ordering::AcqRel, Ordering::Acquire)
}

/// Traversal result: per-level predecessors and successors around the search
/// key, plus the exact pred link word each `(pred, succ)` pair was observed
/// through — the evidence the validate-on-link CAS presents. Every non-sentinel
/// `preds[l]` and non-null `succs[l]` is protected — in one of level `l`'s two
/// slots, or for a predecessor carried down without a step in a higher level's
/// — until the next `find` or `sweep` under the same guard.
struct FindResult<K> {
    preds: [*mut Node<K>; MAX_HEIGHT],
    succs: [*mut Node<K>; MAX_HEIGHT],
    pred_links: [LinkWord<Node<K>>; MAX_HEIGHT],
    found: bool,
}

/// Phase-3 sweep result: the canonical (strictly-less) predecessor and the
/// latest observed (or self-written, after a snip) word of its link per level —
/// the evidence the fence pass CASes against.
struct SweepResult<K> {
    preds: [*mut Node<K>; MAX_HEIGHT],
    pred_links: [LinkWord<Node<K>>; MAX_HEIGHT],
}

/// A lock-free sorted set backed by a skip list.
pub struct LockFreeSkipList<K, S: Smr> {
    /// The `-∞` sentinel, a tower of [`MAX_HEIGHT`] levels freed by `Drop`.
    head: *mut Node<K>,
    smr: Arc<S>,
}

// SAFETY: same argument as for the linked list — all shared mutation is atomic and
// reclamation follows the SMR protocol.
unsafe impl<K: Send + Sync, S: Smr> Send for LockFreeSkipList<K, S> {}
unsafe impl<K: Send + Sync, S: Smr> Sync for LockFreeSkipList<K, S> {}

impl<K, S> LockFreeSkipList<K, S>
where
    K: Ord + Send + Sync + 'static,
    S: Smr,
{
    /// Creates an empty skip list using the given reclamation scheme.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's configured `hp_per_thread` is smaller than
    /// [`SKIPLIST_HP_SLOTS`] — the protection discipline needs one slot per retained
    /// reference, exactly as the paper's methodology (§3.2, step 3) prescribes.
    pub fn new(smr: Arc<S>) -> Self {
        let head = Node::alloc(
            KeySlot::NegInf,
            NO_BIRTH_ERA,
            &[std::ptr::null_mut(); MAX_HEIGHT],
        );
        Self { head, smr }
    }

    /// The reclamation scheme this skip list was created with.
    pub fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread with the underlying reclamation scheme.
    pub fn register(&self) -> S::Handle {
        self.smr.register()
    }

    /// Geometric distribution with p = 1/2, capped at MAX_HEIGHT: the run of
    /// one-bits that ends the next SplitMix64 output of `HEIGHT_STREAM`.
    fn random_height() -> usize {
        HEIGHT_STREAM.with(|stream| {
            let state = stream.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
            stream.set(state);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z.trailing_ones() as usize + 1).min(MAX_HEIGHT)
        })
    }

    /// Core traversal: computes per-level predecessors/successors for `key`,
    /// snipping every marked node it encounters, and leaves each retained
    /// reference protected — one publication per node visited (module docs,
    /// "Hazard-pointer budget"). The returned `pred_links[level]` is the exact
    /// word `preds[level].next[level]` held when the position was last
    /// validated (with `ptr() == succs[level]`) — the evidence insert's
    /// validate-on-link CAS presents. It is marked only in the
    /// deleted-pred/null-successor case (see the loop comment below), which
    /// every CAS consumer must refuse.
    fn find(&self, key: &K, guard: &Guard<'_, S::Handle>) -> FindResult<K> {
        let head = self.head;
        'retry: loop {
            let mut preds = [head; MAX_HEIGHT];
            let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
            let mut pred_links = [LinkWord::null(); MAX_HEIGHT];
            let mut pred = head;
            for level in (0..MAX_HEIGHT).rev() {
                // The slot of this level's pair that holds neither `pred` nor a
                // node this traversal still needs: `pred` arrives protected in
                // a higher level's slot (or is the sentinel), so both are free.
                let mut free = pred_slot(level);
                // SAFETY: `pred` is the head sentinel or a node protected in
                // the non-free slot of this level or a slot of a level above.
                let mut w = unsafe { link(pred, level) }.load(Ordering::Acquire);
                loop {
                    // `w` can be marked only on a level's first iteration (the
                    // pred carried down from above was logically deleted at this
                    // level): with a non-null successor the validation below
                    // catches it; with a null successor the position is recorded
                    // *as observed* — the marked word — and the insert CASes
                    // refuse marked expected words, re-finding instead (an
                    // unguarded versioned CAS would otherwise *unmark* the
                    // link). This mirrors the pre-versioned code, which reported
                    // the position and let the pointer-equality CAS fail.
                    let curr = w.ptr();
                    if curr.is_null() {
                        break;
                    }
                    // Overwrites the level's previous predecessor (stepped
                    // past), a snipped node, or nothing — never `pred`.
                    guard.protect_ptr(free, curr.cast());
                    // Pause point: cursor published, not yet validated. A
                    // publication over the slot still holding `pred` lets a
                    // remove of `pred` through here free it under the
                    // validation load below.
                    crate::interleave::hit("skiplist::find::cursor_published");
                    crate::oracle::check(pred, "skiplist::traversal::pred");
                    // Validate: the pred link still leads to `curr` unmarked —
                    // `curr` is reachable and the protection is sound. The
                    // *refreshed* word (same pointer, possibly newer version —
                    // e.g. a concurrent fence bump) becomes the observation this
                    // position reports: traversal tolerates benign version
                    // traffic, while the eventual CAS still demands the exact
                    // word it was handed.
                    // SAFETY: `pred` protected or sentinel as above.
                    let w2 = unsafe { link(pred, level) }.load(Ordering::Acquire);
                    if w2.ptr() != curr || w2.is_marked() {
                        continue 'retry;
                    }
                    crate::oracle::check(curr, "skiplist::traversal::validated");
                    w = w2;
                    // SAFETY: `curr` protected (in `free`) and validated reachable.
                    let cw = unsafe { link(curr, level) }.load(Ordering::Acquire);
                    if cw.is_marked() {
                        // Physically remove the logically deleted node at this
                        // level. A successful CAS tells us the link's new word
                        // exactly; on failure some other thread moved the link and
                        // the position must be recomputed.
                        // SAFETY: `pred` protected or sentinel.
                        match swing(unsafe { link(pred, level) }, w, cw.ptr()) {
                            Ok(new_word) => {
                                w = new_word;
                                continue;
                            }
                            Err(_) => continue 'retry,
                        }
                    }
                    // SAFETY: `curr` protected and validated.
                    if unsafe { &*curr }.key.cmp_key(key) == CmpOrdering::Less {
                        // Step: the node just validated is the new predecessor,
                        // protected where it stands; the slot of the one it
                        // replaces (if that was this level's) is free now.
                        pred = curr;
                        free ^= 1;
                        w = cw;
                    } else {
                        break;
                    }
                }
                // A non-null `w.ptr()` is the cursor the loop broke on:
                // validated, and protected in `free`, which nothing writes
                // again before the next traversal. `pred` likewise, in the
                // other slot or a higher level's.
                preds[level] = pred;
                succs[level] = w.ptr();
                pred_links[level] = w;
            }
            let found = !succs[0].is_null()
                // SAFETY: `succs[0]` is level 0's last validated cursor, still
                // protected in that level's free slot.
                && unsafe { &*succs[0] }.key.cmp_key(key) == CmpOrdering::Equal;
            return FindResult {
                preds,
                succs,
                pred_links,
                found,
            };
        }
    }

    /// Returns true if `key` is in the set.
    pub fn contains(&self, key: &K, handle: &mut S::Handle) -> bool {
        let guard = Guard::new(handle);
        self.find(key, &guard).found
    }

    /// Inserts `key`; returns false if it was already present.
    pub fn insert(&self, key: K, handle: &mut S::Handle) -> bool {
        self.insert_impl(key, Self::random_height(), handle)
    }

    /// Test-only: insert with a forced tower height, so deterministic
    /// interleaving schedules can rely on the node having upper levels.
    #[cfg(feature = "interleave")]
    pub fn insert_with_height(&self, key: K, height: usize, handle: &mut S::Handle) -> bool {
        assert!((1..=MAX_HEIGHT).contains(&height));
        self.insert_impl(key, height, handle)
    }

    /// Test-only: the addresses currently linked at `level`, in list order.
    /// Walks raw link words without dereferencing the final node, so it is safe
    /// to call while the structure is quiescent even if some previously retired
    /// node were still (erroneously) linked.
    #[cfg(feature = "interleave")]
    pub fn level_addrs(&self, level: usize) -> Vec<usize> {
        let mut out = Vec::new();
        // SAFETY: the sentinel is as tall as any level.
        let mut curr = unsafe { link(self.head, level) }
            .load(Ordering::Acquire)
            .ptr();
        while !curr.is_null() {
            out.push(curr as usize);
            // SAFETY: quiescence is the caller's contract; we only read the
            // link word, never the key.
            curr = unsafe { link(curr, level) }.load(Ordering::Acquire).ptr();
        }
        out
    }

    fn insert_impl(&self, key: K, height: usize, handle: &mut S::Handle) -> bool {
        let guard = Guard::new(handle);
        let mut result = self.find(&key, &guard);
        if result.found {
            return false;
        }
        // The node's links start at the successors the traversal observed.
        let era = guard.alloc_era();
        let node = Node::alloc(KeySlot::Key(key), era, &result.succs[..height]);
        // Protect the node *before* publishing it. The protection is issued
        // while the node is still private — hence before any possible retire —
        // so every scan that could free it is guaranteed to observe the hazard
        // pointer (for HP via the publication fence — the reader's own, or the
        // one the scan's barrier runs for it —, for Cadence/QSense via the
        // rooster visibility bound, which the deferred-reclamation age always
        // outwaits). Protecting only *after* the CAS below would leave a window
        // in which a concurrent remover unlinks, retires and frees the node.
        //
        // `node` stays protected in `HP_NODE` for the rest of the operation:
        // `find` never touches the slot, so even a concurrent removal cannot get
        // the node *freed* while we still read it (the key borrowed below too).
        guard.protect_ptr(HP_NODE, node.cast());
        // SAFETY: `node` protected as described; its key is immutable.
        let KeySlot::Key(key) = (unsafe { &(*node).key }) else {
            unreachable!("inserted nodes always carry a real key")
        };
        // Phase 1: link at level 0 (this is the linearization point of a
        // successful insert). A marked pred word means the level-0 pred was
        // deleted under the traversal (possible only with a null successor —
        // see `find`): re-find rather than CAS a marked link.
        loop {
            if !result.pred_links[0].is_marked()
                // SAFETY: `preds[0]` is the sentinel or protected by this `find`
                // (`FindResult`): in one of level 0's slots or a higher level's.
                && swing(unsafe { link(result.preds[0], 0) }, result.pred_links[0], node).is_ok()
            {
                break;
            }
            result = self.find(key, &guard);
            if result.found {
                // Never published: free it directly.
                crate::oracle::deregister(node);
                // SAFETY: `node` came from `Node::alloc` and was never shared.
                unsafe { Node::<K>::free(node.cast()) };
                return false;
            }
            for (level, &succ) in result.succs[..height].iter().enumerate() {
                // SAFETY: `node` is private until the CAS above publishes it.
                unsafe { link(node, level) }.store_private(succ, Ordering::Relaxed);
            }
        }

        // Phase 2: link the upper levels. Failures here never affect membership —
        // they only cost express-lane shortcuts — but each level is retried until it
        // is linked or the node is observed logically deleted. A level is
        // linked from `result` — phase 1's `find`, still protected — and
        // searched again only after its CAS fails (module docs).
        'levels: for level in 1..height {
            loop {
                // SAFETY: `node` is protected (HP_NODE); loads of its links are safe.
                let node_link = unsafe { link(node, level) };
                let node_w = node_link.load(Ordering::Acquire);
                if node_w.is_marked() {
                    // A concurrent remove already claimed the node: stop linking.
                    break 'levels;
                }
                let (pred, succ) = (result.preds[level], result.succs[level]);
                debug_assert!(succ != node, "only this loop links `node`, once a level");
                // Never link in front of a deleted successor or through a
                // marked pred word (see `find`); point the node at `succ` first
                // (that CAS fails only on a concurrent marking).
                // SAFETY: `succ` is protected in one of `level`'s slots.
                let succ_dead = !succ.is_null()
                    && unsafe { link(succ, level) }
                        .load(Ordering::Acquire)
                        .is_marked();
                if !succ_dead
                    && !result.pred_links[level].is_marked()
                    && (node_w.ptr() == succ || swing(node_link, node_w, succ).is_ok())
                {
                    // Pause point: the remove-between-search-and-CAS window. A
                    // complete `remove` of `node` driven through here is the
                    // upper-level re-link race the interleaving harness forces.
                    crate::interleave::hit("skiplist::insert::upper::pre_link_cas");
                    // Validate-on-link (module docs): a remove that completed
                    // since `result` read this word has snipped through it or
                    // bumped its version in the fence pass, so the CAS fails
                    // and the re-search below observes the removal.
                    // SAFETY: `pred` is the sentinel or protected in a slot of
                    // `level` or a higher one (`FindResult`).
                    if swing(unsafe { link(pred, level) }, result.pred_links[level], node).is_ok() {
                        break;
                    }
                }
                result = self.find(key, &guard);
                if result.succs[0] != node {
                    // The node is no longer what level 0 holds for this key: a
                    // concurrent remove unlinked it (or replaced it with a fresh
                    // insert). Stop linking — membership was already linearized at
                    // the level-0 CAS, upper levels are only shortcuts — and never
                    // re-link a node whose removal may have begun.
                    break 'levels;
                }
            }
        }
        true
    }

    /// Phase-3 traversal of `remove`: like `find`, but at every level it keeps
    /// walking through the *equal-key run* (nodes whose key equals `key`),
    /// snipping marked nodes as it goes — so a marked victim hiding behind an
    /// equal-key node (which `find` stops short of) is still found and
    /// unlinked. A completed pass guarantees the victim was unlinked from
    /// level 0 no later than the pass's level-0 visit (the walk is top-down, so
    /// level 0 comes last), and returns the canonical strictly-less predecessor
    /// plus the latest observed (or self-written, after a snip) word of its
    /// link per level — the words the fence pass validates against.
    ///
    /// Slot discipline: the canonical predecessor stays in `pred_slot(level)`
    /// for the rest of the operation (the fence pass CASes through it);
    /// equal-run walking predecessors rotate through `succ_slot(level)`, which
    /// phase 3 does not otherwise use.
    fn sweep(
        &self,
        key: &K,
        victim: *mut Node<K>,
        height: usize,
        guard: &Guard<'_, S::Handle>,
    ) -> SweepResult<K> {
        let head = self.head;
        'retry: loop {
            let mut preds = [head; MAX_HEIGHT];
            let mut pred_links = [LinkWord::null(); MAX_HEIGHT];
            let mut pred = head;
            for level in (0..MAX_HEIGHT).rev() {
                // Canonical position: the last strictly-less node and the word it
                // was passed through; fixed the first time an equal-key node is
                // reached.
                let mut canonical: Option<(*mut Node<K>, LinkWord<Node<K>>)> = None;
                // SAFETY: `pred` is the sentinel or protected (pred slot of this
                // or an upper level).
                let mut w = unsafe { link(pred, level) }.load(Ordering::Acquire);
                loop {
                    // Unlike `find`, a marked `w` (the carried-down pred was
                    // logically deleted at this level) must RESTART the sweep:
                    // recording the dead node as the canonical predecessor would
                    // make the fence bump the dead link while a stale inserter
                    // may hold the *live* canonical pred's word — the one link
                    // the fence exists to poison. (`find` can tolerate it
                    // because its consumers refuse marked pred words.) The
                    // restart always progresses: marking is top-down, so a pred
                    // marked here is already marked one level up, where the
                    // fresh walk snips it instead of carrying it down.
                    if w.is_marked() {
                        continue 'retry;
                    }
                    let curr = w.ptr();
                    if curr.is_null() {
                        break;
                    }
                    guard.protect_ptr(HP_CURSOR, curr.cast());
                    // Same refresh-on-validate as `find`: tolerate version-only
                    // traffic, report the freshest validated word.
                    // SAFETY: `pred` protected or sentinel.
                    let w2 = unsafe { link(pred, level) }.load(Ordering::Acquire);
                    if w2.ptr() != curr || w2.is_marked() {
                        continue 'retry;
                    }
                    crate::oracle::check(curr, "skiplist::traversal::validated");
                    w = w2;
                    // SAFETY: `curr` protected and validated reachable.
                    let cw = unsafe { link(curr, level) }.load(Ordering::Acquire);
                    if cw.is_marked() {
                        // A marked node (possibly the victim itself): snip it. If
                        // the snip goes through the canonical link, the returned
                        // word is the snip's own result, so a later successful
                        // fence bump proves no re-link slipped in after it.
                        // SAFETY: `pred` protected or sentinel.
                        match swing(unsafe { link(pred, level) }, w, cw.ptr()) {
                            Ok(new_word) => {
                                w = new_word;
                                continue;
                            }
                            Err(_) => continue 'retry,
                        }
                    }
                    // SAFETY: `curr` protected and validated.
                    match unsafe { &*curr }.key.cmp_key(key) {
                        CmpOrdering::Less => {
                            pred = curr;
                            guard.protect_ptr(pred_slot(level), curr.cast());
                            w = cw;
                        }
                        CmpOrdering::Equal => {
                            // An unmarked equal-key node: another tenant of the
                            // key (the victim is fully marked by phases 1–2).
                            // Above the victim's tower nothing can hide the
                            // victim, so the walk stops like `find`; within the
                            // tower's levels, record the canonical position
                            // once, then walk through the run so nothing can
                            // hide behind it.
                            debug_assert!(curr != victim, "victim must be marked");
                            if level >= height {
                                break;
                            }
                            if canonical.is_none() {
                                canonical = Some((pred, w));
                            }
                            pred = curr;
                            guard.protect_ptr(succ_slot(level), curr.cast());
                            w = cw;
                        }
                        CmpOrdering::Greater => break,
                    }
                }
                let (cp, cw) = canonical.unwrap_or((pred, w));
                preds[level] = cp;
                pred_links[level] = cw;
                // Descend from the canonical (strictly-less) predecessor so the
                // next level's walk covers the whole equal-key region. It is
                // protected in the pred slot of this or a higher level (or is
                // the sentinel).
                pred = cp;
            }
            return SweepResult { preds, pred_links };
        }
    }

    /// Sweep-and-fence loop of `remove`'s phase 3 for victims with upper levels
    /// (module docs, rule 2): sweeps, then bumps every upper level's canonical
    /// pred link against the sweep's observed words; retries the whole pass on
    /// any interference — possibly a stale re-link, which the next sweep snips.
    /// Each stale inserter disturbs a level at most once, so the loop converges.
    fn fence(&self, key: &K, victim: *mut Node<K>, height: usize, guard: &Guard<'_, S::Handle>) {
        'fence: loop {
            let sweep = self.sweep(key, victim, height, guard);
            for level in 1..height {
                // SAFETY: `preds[level]` is the sentinel or still protected in
                // the pred slot of this *or a higher* level since the sweep
                // above (a canonical pred carried down without a Less-step at
                // this level was protected where it was last advanced, and
                // lower-level iterations never overwrite higher pred slots).
                // That is `sweep`'s own discipline; no `find` — whose rotation
                // reuses the same pairs — runs between the sweep and this CAS.
                if unsafe { link(sweep.preds[level], level) }
                    .bump_version(sweep.pred_links[level], Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue 'fence;
                }
            }
            return;
        }
    }

    /// Removes `key`; returns false if it was not present.
    pub fn remove(&self, key: &K, handle: &mut S::Handle) -> bool {
        let guard = Guard::new(handle);
        let result = self.find(key, &guard);
        if !result.found {
            return false;
        }
        let victim = result.succs[0];
        // Hold the victim in the dedicated node slot for the rest of the operation:
        // `find` never touches it, so the phase-3 sweeps below cannot leave the
        // victim unprotected while this thread still dereferences it. (The
        // victim is `succs[0]`, still protected in one of level 0's slots by the
        // find above, so scans honour it from before this publication on.)
        guard.protect_ptr(HP_NODE, victim.cast());
        // SAFETY: `victim` protected.
        let height = unsafe { &*victim }.height;

        // Phase 1: logically delete the upper levels, top-down.
        for level in (1..height).rev() {
            loop {
                // SAFETY: `victim` protected.
                let w = unsafe { link(victim, level) }.load(Ordering::Acquire);
                if w.is_marked() {
                    break;
                }
                // SAFETY: `victim` protected.
                if unsafe { link(victim, level) }
                    .try_mark(w, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
            }
        }

        // Phase 2: logically delete level 0 — the linearization point. The thread
        // whose CAS succeeds owns the deletion and is the only one to retire.
        loop {
            // SAFETY: `victim` protected.
            let w = unsafe { link(victim, 0) }.load(Ordering::Acquire);
            if w.is_marked() {
                // Another remover won; this call observes the key as absent.
                return false;
            }
            // SAFETY: `victim` protected.
            let Ok(marked) =
                unsafe { link(victim, 0) }.try_mark(w, Ordering::AcqRel, Ordering::Acquire)
            else {
                continue;
            };
            // Phase 3: physical removal, then upper-level fencing, then retire.
            if height == 1 {
                // A level-0-only victim has no upper levels: no phase-2 link CAS
                // for it exists anywhere, level 0 never re-links a node, and it
                // cannot hide behind an equal-key node at level 0 (a new
                // equal-key insert can only observe it marked, in which case its
                // `find` snips it rather than linking in front of it). Unlinking
                // it from level 0 is a complete phase 3 — first directly, as the
                // linked list does: the CAS expects the unmarked word `find`
                // validated, so success proves the pred linked and the victim out.
                crate::interleave::hit("skiplist::remove::pre_unlink_cas");
                // SAFETY: `preds[0]` is the sentinel or protected by the `find`
                // above (`FindResult`); no traversal has run since.
                let pred = unsafe { link(result.preds[0], 0) };
                if swing(pred, result.pred_links[0], marked.ptr()).is_err() {
                    // The link moved first (a snip of the victim, an insert in
                    // front of it, the predecessor's deletion): search until
                    // the victim has left level 0.
                    while self.find(key, &guard).succs[0] == victim {}
                }
            } else {
                self.fence(key, victim, height, &guard);
            }
            // Pause point: retire is now decided; audits schedule against it.
            crate::interleave::hit("skiplist::remove::pre_retire");
            let bytes = Node::<K>::layout(height).size();
            // SAFETY: the victim is unlinked from every level reachable from the
            // head and every upper-level pred link has been version-fenced, so no
            // stale insert CAS can re-link it and no traversal can validate a new
            // protection for it; it was allocated via `Node::alloc`, is freed
            // by `Node::free`, and only the level-0 winner — this thread —
            // retires it.
            unsafe { guard.retire_raw(victim, Node::<K>::free, (*victim).birth_era, bytes) };
            return true;
        }
    }

    /// Counts the elements currently in the set (level-0 walk; for tests, examples
    /// and benchmark validation).
    pub fn len(&self, handle: &mut S::Handle) -> usize {
        let guard = Guard::new(handle);
        let mut count = 0;
        let mut prev = self.head;
        // Same rotation as `find`, restricted to level 0's pair.
        let mut free = pred_slot(0);
        // SAFETY: `prev` is the sentinel.
        let mut w = unsafe { link(prev, 0) }.load(Ordering::Acquire);
        loop {
            let curr = w.ptr();
            if curr.is_null() {
                break;
            }
            guard.protect_ptr(free, curr.cast());
            // SAFETY: `prev` is the sentinel or protected in the non-free slot.
            let w2 = unsafe { link(prev, 0) }.load(Ordering::Acquire);
            if w2.ptr() != curr || w2.is_marked() {
                // Restart on interference.
                count = 0;
                prev = self.head;
                // SAFETY: `prev` is the sentinel.
                w = unsafe { link(prev, 0) }.load(Ordering::Acquire);
                continue;
            }
            // SAFETY: `curr` is hazard-protected and was revalidated still linked above.
            let cw = unsafe { link(curr, 0) }.load(Ordering::Acquire);
            if !cw.is_marked() {
                count += 1;
                prev = curr;
                free ^= 1;
            }
            w = cw;
        }
        count
    }

    /// True if the set currently holds no elements.
    pub fn is_empty(&self, handle: &mut S::Handle) -> bool {
        self.len(handle) == 0
    }
}

impl<K, S: Smr> Drop for LockFreeSkipList<K, S> {
    fn drop(&mut self) {
        // Exclusive access: free the sentinel and every node still linked at
        // level 0. Unlinked nodes are owned by the reclamation scheme.
        let mut curr = self.head;
        while !curr.is_null() {
            // SAFETY: exclusive access; level 0 links every live node exactly
            // once, so each is read, then freed, once.
            let next = unsafe { link(curr, 0) }.load(Ordering::Relaxed).ptr();
            crate::oracle::deregister(curr);
            // SAFETY: as above.
            unsafe { Node::<K>::free(curr.cast()) };
            curr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::{Leaky, SmrConfig};
    use std::collections::BTreeSet;

    fn leaky_skiplist() -> LockFreeSkipList<u64, Leaky> {
        LockFreeSkipList::new(Leaky::new(SmrConfig::for_skiplist().with_max_threads(8)))
    }

    #[test]
    fn empty_skiplist_contains_nothing() {
        let sl = leaky_skiplist();
        let mut h = sl.register();
        assert!(!sl.contains(&3, &mut h));
        assert_eq!(sl.len(&mut h), 0);
        assert!(sl.is_empty(&mut h));
    }

    #[test]
    fn insert_contains_remove_round_trip() {
        let sl = leaky_skiplist();
        let mut h = sl.register();
        assert!(sl.insert(10, &mut h));
        assert!(!sl.insert(10, &mut h));
        assert!(sl.contains(&10, &mut h));
        assert!(sl.remove(&10, &mut h));
        assert!(!sl.remove(&10, &mut h));
        assert!(!sl.contains(&10, &mut h));
    }

    #[test]
    fn many_keys_stay_consistent() {
        let sl = leaky_skiplist();
        let mut h = sl.register();
        for key in 0..500_u64 {
            assert!(sl.insert(key * 3, &mut h));
        }
        assert_eq!(sl.len(&mut h), 500);
        for key in 0..500_u64 {
            assert!(sl.contains(&(key * 3), &mut h));
            assert!(!sl.contains(&(key * 3 + 1), &mut h));
        }
        for key in (0..500_u64).step_by(2) {
            assert!(sl.remove(&(key * 3), &mut h));
        }
        assert_eq!(sl.len(&mut h), 250);
    }

    #[test]
    fn matches_reference_set_on_mixed_operations() {
        let sl = leaky_skiplist();
        let mut h = sl.register();
        let mut reference = BTreeSet::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 128;
            match state % 3 {
                0 => assert_eq!(sl.insert(key, &mut h), reference.insert(key)),
                1 => assert_eq!(sl.remove(&key, &mut h), reference.remove(&key)),
                _ => assert_eq!(sl.contains(&key, &mut h), reference.contains(&key)),
            }
        }
        assert_eq!(sl.len(&mut h), reference.len());
    }

    #[test]
    fn same_key_churn_single_thread() {
        // Exercises the phase-3 sweep + fence pass on every removal, including
        // re-insertions of the same key right after a remove (fresh node, same
        // key — the configuration the equal-run sweep exists for).
        let sl = leaky_skiplist();
        let mut h = sl.register();
        for round in 0..2000_u64 {
            assert!(sl.insert(42, &mut h), "round {round}: insert");
            assert!(sl.remove(&42, &mut h), "round {round}: remove");
            assert!(!sl.contains(&42, &mut h));
        }
        assert_eq!(sl.len(&mut h), 0);
    }

    #[test]
    fn random_height_is_within_bounds() {
        for _ in 0..1000 {
            let h = LockFreeSkipList::<u64, Leaky>::random_height();
            assert!((1..=MAX_HEIGHT).contains(&h));
        }
    }

    #[test]
    fn random_height_is_geometric_and_the_same_on_every_thread() {
        const DRAWS: usize = 100_000;
        // A fresh thread, hence a stream at its seed: the draws are fixed.
        let draw = || {
            std::thread::spawn(|| {
                (0..DRAWS)
                    .map(|_| LockFreeSkipList::<u64, Leaky>::random_height())
                    .collect::<Vec<_>>()
            })
            .join()
            .unwrap()
        };
        let heights = draw();
        assert_eq!(heights, draw(), "every thread draws the same stream");
        let ones = heights.iter().filter(|&&h| h == 1).count() as f64 / DRAWS as f64;
        let mean = heights.iter().sum::<usize>() as f64 / DRAWS as f64;
        assert!((ones - 0.5).abs() < 0.005, "share of height 1: {ones}");
        assert!((mean - 2.0).abs() < 0.02, "mean height: {mean}");
        // Half as many towers on each level up.
        let at_least = |level| heights.iter().filter(|&&h| h >= level).count() as f64;
        assert!((at_least(4) / at_least(3) - 0.5).abs() < 0.02);
    }
}
