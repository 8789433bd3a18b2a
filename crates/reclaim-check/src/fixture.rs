//! A distilled resurrection of the **pre-versioned-link skip-list upper-level
//! linking logic** — the bug the interleaving harness originally had to force
//! by hand, kept alive here so the explorer + shadow-heap oracle can prove
//! they find it *without* a hand-written schedule.
//!
//! The model is a two-level skip list over raw `AtomicUsize` links (pointer
//! with the mark in bit 0, **no version counter** — that is the resurrected
//! flaw). `insert2` links the node at level 0 (the linearization point),
//! validates that the node is still unmarked, and then CASes it into level 1.
//! Between that validation and the CAS sits the pause point
//! `relink_fixture::insert::pre_upper_cas`. A complete `remove` of the same
//! key inside that window marks and unlinks the node at level 0 and retires
//! it — but leaves `pred.next[1]` untouched (the victim was never at level 1),
//! so the inserter's stale compare-exchange still succeeds and **re-links a
//! retired node** at level 1. The fixed production skip list defeats exactly
//! this schedule with its versioned links; this fixture deliberately does not.
//!
//! `RotationFixture` is the second resurrected bug: a hand-over-hand list
//! traversal over two hazard-pointer slots that forgets to swap the slots'
//! roles when it steps, and so publishes its cursor over the slot still holding
//! its predecessor. `lockfree-ds`' traversals rotate; this is what the oracle
//! says when they do not.
//!
//! [`batch_store_scenario`] is the third, and the only one that runs the
//! shipped structure: the skip list's batch insert with its upper levels
//! published by plain stores instead of versioned CASes
//! (`LockFreeSkipList::insert_batch_storing_upper_levels`, a `check-oracle`
//! variant of the shipped publication). A store cannot see the version bump
//! of a remove's fence, so it publishes a tower already retired.
//!
//! The whole module is gated on `check-oracle`: driving the buggy schedules
//! without the oracle's quarantine (poison-and-leak instead of real frees)
//! would be a genuine use-after-free, not a test.

use lockfree_ds::interleave;
use reclaim_core::node_cache::{self, Block};
use reclaim_core::{Guard, RetiredPtr, Smr, SmrConfig, SmrHandle, NO_BIRTH_ERA};
use std::alloc::Layout;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::explorer::{Scenario, ScenarioRun};

const MARK: usize = 1;

/// A fixture node: key plus one unversioned `ptr | mark` link per level.
struct FixNode {
    key: u64,
    next: [AtomicUsize; 2],
}

impl FixNode {
    const LAYOUT: Layout = Layout::new::<FixNode>();

    /// A node off `smr`'s arena, as a structure's sentinels are.
    fn alloc<S: Smr>(smr: &S, key: u64, next0: usize) -> *mut FixNode {
        let node: *mut FixNode = smr.core().alloc_block(Self::LAYOUT).cast().as_ptr();
        let next = [AtomicUsize::new(next0), AtomicUsize::new(0)];
        // SAFETY: a fresh block of `FixNode`'s layout.
        unsafe { node.write(FixNode { key, next }) };
        node
    }
}

// SAFETY: `FixNode::alloc` allocates every node with its type's layout.
unsafe impl Block for FixNode {}

fn ptr_of(link: usize) -> *mut FixNode {
    (link & !MARK) as *mut FixNode
}

/// The two-level list with the resurrected linking bug, generic over the
/// reclamation scheme (the suite drives it under hazard pointers: the victim
/// is unprotected at its free, so HP legitimately frees it — the bug is in
/// the structure, not the scheme).
pub(crate) struct RelinkFixture<S: Smr> {
    head: Box<FixNode>,
    smr: Arc<S>,
}

impl<S: Smr> RelinkFixture<S> {
    /// An empty fixture list.
    pub fn new(smr: Arc<S>) -> Self {
        Self {
            head: Box::new(FixNode {
                key: 0,
                next: [AtomicUsize::new(0), AtomicUsize::new(0)],
            }),
            smr,
        }
    }

    /// Registers the calling thread with the reclamation scheme.
    pub fn register(&self) -> S::Handle {
        self.smr.register()
    }

    /// Walks `level` to the insertion point for `key`: returns `(pred, succ)`
    /// where `succ` is the first node with `node.key >= key` (null if none).
    fn find(&self, level: usize, key: u64) -> (*const FixNode, *mut FixNode) {
        let mut pred: *const FixNode = &*self.head;
        loop {
            // SAFETY: (fixture) execution is serialized by the explorer and
            // quarantined by the oracle; a freed node here is the bug under
            // test and is caught by the checkpoint below before any deref.
            let link = unsafe { (*pred).next[level].load(Ordering::Acquire) };
            let curr = ptr_of(link);
            if curr.is_null() {
                return (pred, curr);
            }
            reclaim_core::oracle::check_protected(curr.cast(), "relink_fixture::find");
            // SAFETY: checkpoint above turns a retired-and-freed node into a
            // deterministic oracle verdict; otherwise the node is live.
            if unsafe { (*curr).key } >= key {
                return (pred, curr);
            }
            pred = curr;
        }
    }

    /// Inserts `key` with height 2. Level 0 first (the linearization point),
    /// then the **buggy** validate-then-CAS at level 1.
    pub(crate) fn insert2(&self, key: u64, handle: &mut S::Handle) -> bool {
        handle.begin_op();
        let (pred0, succ0) = self.find(0, key);
        if !succ0.is_null() {
            // SAFETY: `find` checkpointed `succ0`.
            if unsafe { (*succ0).key } == key {
                handle.end_op();
                return false;
            }
        }
        let node = FixNode::alloc(&*self.smr, key, succ0 as usize);
        // SAFETY: `pred0` came from `find` under the same serialization.
        let linked = unsafe {
            (*pred0).next[0]
                .compare_exchange(
                    succ0 as usize,
                    node as usize,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
        };
        if !linked {
            // Roll the private node back (never published).
            // SAFETY: `node` was just allocated by this thread and never
            // escaped.
            unsafe { node_cache::free(node) };
            handle.end_op();
            return false;
        }

        // Upper level. THE RESURRECTED BUG: validate that the node is still
        // unmarked, then CAS it into level 1 — with no version on the link, a
        // complete remove() landing in the window below leaves pred1.next[1]
        // bit-identical, so the stale CAS re-links the (retired) node.
        let (pred1, succ1) = self.find(1, key);
        // SAFETY: `node` is this thread's allocation; only marks may race.
        let still_unmarked = unsafe { (*node).next[0].load(Ordering::Acquire) } & MARK == 0;
        interleave::hit("relink_fixture::insert::pre_upper_cas");
        if still_unmarked {
            // SAFETY: `node` as above; the store is private until the CAS.
            unsafe { (*node).next[1].store(succ1 as usize, Ordering::Release) };
            // SAFETY: `pred1` came from `find`. An unversioned success here
            // after a remove in the window is precisely the bug.
            let _ = unsafe {
                (*pred1).next[1].compare_exchange(
                    succ1 as usize,
                    node as usize,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
            };
        }
        handle.end_op();
        true
    }

    /// Removes `key`: mark + unlink top-down, then retire the node.
    pub fn remove(&self, key: u64, handle: &mut S::Handle) -> bool {
        handle.begin_op();
        let (_, target) = self.find(0, key);
        // SAFETY: `find` checkpointed `target`.
        if target.is_null() || unsafe { (*target).key } != key {
            handle.end_op();
            return false;
        }
        for level in (0..2).rev() {
            let (pred, curr) = self.find(level, key);
            if curr != target {
                continue; // not linked at this level
            }
            // Logical delete: set the mark on the node's own link.
            // SAFETY: `curr` was checkpointed by `find` at this level.
            let succ = unsafe { (*curr).next[level].load(Ordering::Acquire) } & !MARK;
            // SAFETY: as above; marking is idempotent under serialization.
            unsafe { (*curr).next[level].store(succ | MARK, Ordering::Release) };
            // Physical unlink.
            // SAFETY: `pred` from the same `find`.
            let _ = unsafe {
                (*pred).next[level].compare_exchange(
                    curr as usize,
                    succ,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
            };
        }
        interleave::hit("relink_fixture::remove::pre_retire");
        // SAFETY: the node was unlinked from every level above; under the
        // resurrected bug a concurrent insert may still re-link it — which is
        // exactly the violation the oracle is here to convict.
        unsafe {
            let drop_fn = node_cache::drop_block::<FixNode>;
            let size = std::mem::size_of::<FixNode>();
            handle.retire(RetiredPtr::new(target.cast(), drop_fn, NO_BIRTH_ERA, size))
        };
        handle.end_op();
        true
    }

    /// Reads the level-1 chain, checkpointing every node against the oracle —
    /// the read that turns the re-linked retired node into a UAF verdict.
    pub(crate) fn keys_at_level1(&self, handle: &mut S::Handle) -> Vec<u64> {
        handle.begin_op();
        let mut keys = Vec::new();
        let mut link = self.head.next[1].load(Ordering::Acquire);
        loop {
            let curr = ptr_of(link);
            if curr.is_null() {
                break;
            }
            reclaim_core::oracle::check_protected(curr.cast(), "relink_fixture::read::level1");
            // SAFETY: checkpoint above; live nodes are safe to read under the
            // explorer's serialization.
            keys.push(unsafe { (*curr).key });
            // SAFETY: as above.
            link = unsafe { (*curr).next[1].load(Ordering::Acquire) };
        }
        handle.end_op();
        keys
    }
}

impl<S: Smr> Drop for RelinkFixture<S> {
    fn drop(&mut self) {
        // Retired nodes were already handed to the scheme and are not
        // reachable here (the re-link bug only ever resurrects them at level
        // 1, and the oracle has convicted the schedule before teardown in that
        // case).
        free_level0_chain(&self.head);
    }
}

/// Teardown of a fixture list: frees what is still linked at level 0.
fn free_level0_chain(head: &FixNode) {
    let mut link = head.next[0].load(Ordering::Acquire);
    loop {
        let curr = ptr_of(link);
        if curr.is_null() {
            break;
        }
        // SAFETY: teardown owns the list; each level-0 node is freed once.
        link = unsafe { (*curr).next[0].load(Ordering::Acquire) };
        // SAFETY: teardown free of a node this walk unlinked.
        unsafe { node_cache::free(curr) };
    }
}

/// The scenario the acceptance test explores: two threads, one key, hazard
/// pointers with an eager scan threshold. Thread 0 inserts key 10 at height
/// 2; thread 1 removes it, flushes (freeing the retired victim under the
/// oracle's quarantine), and then reads level 1. Under the resurrected
/// unversioned CAS there is a 2-preemption schedule in which thread 0
/// re-links the retired node before the flush — the level-1 read then trips
/// the oracle's use-after-free checkpoint.
pub fn relink_scenario() -> Scenario {
    Scenario::new("relink-fixture/hp", || {
        let config = SmrConfig::default()
            .with_max_threads(4)
            .with_hp_per_thread(2)
            .with_scan_threshold(1)
            .with_quiescence_threshold(1)
            .with_fallback_threshold(4);
        let fixture = Arc::new(RelinkFixture::new(hazard::Hazard::new(config)));
        let inserter = Arc::clone(&fixture);
        let remover = Arc::clone(&fixture);
        ScenarioRun::new()
            .thread(move || {
                let mut handle = inserter.register();
                inserter.insert2(10, &mut handle);
                handle.flush();
            })
            .thread(move || {
                let mut handle = remover.register();
                remover.remove(10, &mut handle);
                interleave::hit("relink_fixture::sync");
                handle.flush();
                // On the buggy schedule this read reaches the freed victim.
                let _ = remover.keys_at_level1(&mut handle);
            })
    })
}

/// A sorted single-level list read hand over hand through two hazard-pointer
/// slots. With `swap` the traversal is Michael's: the cursor goes into the slot
/// that does not hold the predecessor, and the roles swap on every step.
/// Without it — **the resurrected bug** — the cursor is always published into
/// the same slot, which from the second node on still holds the predecessor:
/// the predecessor is unprotected while the traversal re-reads its link to
/// validate the cursor (pause point `rotation_fixture::cursor_published` sits
/// in that window), and a remove of it that completes there gets it freed.
pub(crate) struct RotationFixture<S: Smr> {
    head: Box<FixNode>,
    swap: bool,
    smr: Arc<S>,
}

impl<S: Smr> RotationFixture<S> {
    /// A fixture list holding `keys` (ascending).
    pub(crate) fn with_keys(smr: Arc<S>, keys: &[u64], swap: bool) -> Self {
        let first = keys
            .iter()
            .rev()
            .fold(0, |next, &key| FixNode::alloc(&*smr, key, next) as usize);
        Self {
            head: Box::new(FixNode {
                key: 0,
                next: [AtomicUsize::new(first), AtomicUsize::new(0)],
            }),
            swap,
            smr,
        }
    }

    /// Registers the calling thread with the reclamation scheme.
    pub fn register(&self) -> S::Handle {
        self.smr.register()
    }

    /// Membership test: protect the cursor, validate it against the
    /// predecessor's link, step.
    pub fn contains(&self, key: u64, handle: &mut S::Handle) -> bool {
        let guard = Guard::new(handle);
        'retry: loop {
            let mut pred: *const FixNode = &*self.head;
            let mut free = 0;
            loop {
                // SAFETY: `pred` is the head or a node this traversal
                // validated; whether it is still *protected* is the bug under
                // test, and the checkpoint below convicts before any freed
                // node is read (the oracle quarantines, so the read itself
                // stays in bounds either way).
                let curr = ptr_of(unsafe { (*pred).next[0].load(Ordering::Acquire) });
                if curr.is_null() {
                    return false;
                }
                guard.protect_ptr(free, curr.cast());
                interleave::hit("rotation_fixture::cursor_published");
                reclaim_core::oracle::check_protected(pred.cast(), "rotation_fixture::validate");
                // SAFETY: checkpointed just above.
                if unsafe { (*pred).next[0].load(Ordering::Acquire) } != curr as usize {
                    // Moved, or marked: `pred` is being removed.
                    continue 'retry;
                }
                // SAFETY: `curr` is protected in `free` and validated linked.
                let found = unsafe { (*curr).key };
                if found >= key {
                    return found == key;
                }
                pred = curr;
                if self.swap {
                    free ^= 1;
                }
            }
        }
    }

    /// Removes `key` (mark, unlink, retire). One remover at a time: its own
    /// walk is unprotected.
    pub fn remove(&self, key: u64, handle: &mut S::Handle) -> bool {
        let guard = Guard::new(handle);
        let mut pred: *const FixNode = &*self.head;
        loop {
            // SAFETY: only this thread unlinks, so every node it reaches from
            // the head is linked and live.
            let curr = ptr_of(unsafe { (*pred).next[0].load(Ordering::Acquire) });
            // SAFETY: as above.
            if curr.is_null() || unsafe { (*curr).key } > key {
                return false;
            }
            // SAFETY: as above.
            if unsafe { (*curr).key } < key {
                pred = curr;
                continue;
            }
            // SAFETY: as above; sole writer of both links.
            unsafe {
                let succ = (*curr).next[0].load(Ordering::Acquire);
                (*curr).next[0].store(succ | MARK, Ordering::Release);
                (*pred).next[0].store(succ, Ordering::Release);
            }
            interleave::hit("rotation_fixture::remove::pre_retire");
            // SAFETY: `curr` came from `FixNode::alloc`, was unlinked just
            // above, and only this call retires it.
            unsafe { guard.retire_block(curr, NO_BIRTH_ERA) };
            return true;
        }
    }
}

impl<S: Smr> Drop for RotationFixture<S> {
    fn drop(&mut self) {
        free_level0_chain(&self.head);
    }
}

/// Two threads under hazard pointers with an eager scan threshold, over the
/// list 5 → 10: thread 0 looks 10 up (stepping over 5), thread 1 removes 5 and
/// flushes. Without the swap there is a schedule in which the flush lands
/// between thread 0's publication of 10 — over the slot that held 5 — and its
/// re-read of 5's link; with it, 5 stays protected and every schedule is clean.
pub fn rotation_scenario(swap: bool) -> Scenario {
    let name = if swap {
        "rotation-fixture/hp/swap"
    } else {
        "rotation-fixture/hp/no-swap"
    };
    Scenario::new(name, move || {
        let config = SmrConfig::default()
            .with_max_threads(4)
            .with_hp_per_thread(2)
            .with_scan_threshold(1);
        let fixture = Arc::new(RotationFixture::with_keys(
            hazard::Hazard::new(config),
            &[5, 10],
            swap,
        ));
        let reader = Arc::clone(&fixture);
        let remover = Arc::clone(&fixture);
        ScenarioRun::new()
            .thread(move || {
                let mut handle = reader.register();
                assert!(reader.contains(10, &mut handle), "10 is never removed");
            })
            .thread(move || {
                let mut handle = remover.register();
                assert!(remover.remove(5, &mut handle), "5 was prefilled");
                handle.flush();
            })
    })
}

/// The suite's skip-list batch scenario (`suites`, `skiplist-batch/*`) under
/// hazard pointers, with the batch's upper levels published by stores. There
/// is a one-preemption schedule in which the batch publishes level 0, the
/// remover removes, fences and frees tower 20, and the batch then stores 20
/// at level 1: the next search on level 1 (the inserter's, or the check's
/// lookups) reaches the freed tower, and the oracle convicts.
pub fn batch_store_scenario() -> Scenario {
    crate::suites::batch_scenario(
        "batch-store-fixture/hp".to_string(),
        hazard::Hazard::new,
        lockfree_ds::LockFreeSkipList::insert_batch_storing_upper_levels,
    )
}
