//! Deterministic interleaving regression tests.
//!
//! These tests use the `lockfree_ds::interleave` harness (cfg-gated pause
//! points at the validate/CAS boundaries of every structure) to force, every
//! run, the thread schedules that stress tests cross only once in millions of
//! operations. Each test documents the window it drives and the invariant that
//! makes (or made) the window dangerous.
//!
//! The headline schedule is the **skip-list upper-level re-link race**: a
//! complete `remove` (mark all levels + sweep + retire) slipped between the
//! search that gave `insert` its level-`L` words and its `pred.next[L]` CAS.
//! On the pre-versioned-link skip list this schedule
//! re-linked a *retired* node at an upper level (the assertion below failed
//! with the victim's address present in the level-1 chain); with versioned
//! links + remove's upper-level bump pass the stale CAS loses its version
//! validation and the victim stays unreachable, under every scheme.
//!
//! The harness hooks are process-global, so every test here serializes on
//! [`schedule_lock`].

use lockfree_ds::interleave::{Counter, Trap};
use lockfree_ds::{
    HarrisMichaelList, LockFreeBst, LockFreeHashMap, LockFreeSkipList, SKIPLIST_HP_SLOTS,
};
use reclaim_core::{Smr, SmrConfig};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Serializes the tests in this binary: the pause-point registry is global.
fn schedule_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A scheme config that never frees during the schedule: scans and quiescent
/// bookkeeping are pushed past the horizon so the post-schedule structure walk
/// (addresses only) is safe even when a schedule exposes a bug, and the forced
/// window is not perturbed by reclamation work inside `begin_op`.
fn deferred_config() -> SmrConfig {
    SmrConfig::for_skiplist()
        .with_max_threads(4)
        .with_hp_per_thread(SKIPLIST_HP_SLOTS)
        .with_scan_threshold(1 << 30)
        .with_quiescence_threshold(1 << 30)
        .with_fallback_threshold(1 << 30)
        .with_rooster_interval(std::time::Duration::MAX)
}

/// Forces the skip-list schedule:
///
/// 1. thread A runs `insert_with_height(10, 2)`: phase 1 links the node at
///    level 0, phase 2 takes level 1's words from phase 1's `find` — read
///    before the node reached level 0 — and parks at the pause point
///    immediately before the `pred.next[1]` CAS;
/// 2. the main thread runs `remove(&10)` to completion — logical deletion of
///    every level, physical sweep, retire;
/// 3. thread A is released and takes (or, fixed: fails) its stale CAS.
///
/// Returns the victim's address and the level-1 chain after both threads
/// finished, so callers can assert the victim was not re-linked.
fn force_skiplist_relink_schedule<S: Smr>(scheme: Arc<S>) -> (usize, Vec<usize>) {
    let set = Arc::new(LockFreeSkipList::<u64, S>::new(scheme));
    let mut main_handle = set.register();

    // Neighbor keys so the victim has non-sentinel predecessors at level 0.
    assert!(set.insert(5, &mut main_handle));

    let trap = Trap::arm("skiplist::insert::upper::pre_link_cas");
    let inserter = {
        let set = Arc::clone(&set);
        thread::spawn(move || {
            let mut handle = set.register();
            // Forced height 2: the node must have an upper level to link.
            assert!(
                set.insert_with_height(10, 2, &mut handle),
                "level-0 linking (the linearization point) must succeed"
            );
        })
    };

    // Window open: the inserter holds level 1's words from its phase-1
    // `find`, read before the node reached level 0, and sits right before
    // its pred-link CAS.
    trap.wait_for_parked();

    // The victim is the unique key-10 node: last in level-0 order (after 5),
    // currently linked at level 0 only.
    let level0_before = set.level_addrs(0);
    assert_eq!(
        level0_before.len(),
        2,
        "keys 5 and 10 are linked at level 0"
    );
    let victim = *level0_before.last().unwrap();

    // A complete remove slips through the window: marks every level, sweeps
    // the victim out of the level-0 chain, and retires it.
    assert!(
        set.remove(&10, &mut main_handle),
        "the remover owns the level-0 logical deletion"
    );
    assert!(
        !set.level_addrs(0).contains(&victim),
        "after remove the victim is physically unlinked from level 0"
    );

    // Close the window: the inserter resumes with its stale validation.
    trap.release();
    inserter.join().unwrap();

    let level1_after = set.level_addrs(1);
    (victim, level1_after)
}

/// The invariant the race breaks: once `remove` has retired the victim, no
/// level may ever link it again — a reader traversing the upper level could
/// otherwise validate a protection for (and dereference) freed memory.
fn assert_victim_not_relinked<S: Smr>(scheme: Arc<S>, scheme_name: &str) {
    let _serial = schedule_lock();
    let (victim, level1) = force_skiplist_relink_schedule(scheme);
    assert!(
        !level1.contains(&victim),
        "{scheme_name}: retired victim {victim:#x} was re-linked at level 1 \
         by a stale insert CAS (upper-level re-link race): level 1 = {level1:x?}"
    );
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_hp() {
    assert_victim_not_relinked(hazard::Hazard::new(deferred_config()), "hp");
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_cadence() {
    assert_victim_not_relinked(cadence::Cadence::new(deferred_config()), "cadence");
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_he() {
    assert_victim_not_relinked(he::He::new(deferred_config()), "he");
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_qsense() {
    assert_victim_not_relinked(qsense::QSense::new(deferred_config()), "qsense");
}

/// Parks a height-1 `remove(&10)` at its direct unlink — victim marked,
/// `preds[0] = 5` and the word it read there in hand — and runs `interfere`
/// on the main thread. Returns whether the victim was still linked at level 0
/// when the remover was released. Either way the direct CAS must fail, a
/// search must follow it, the victim must leave level 0 and be retired once.
fn force_skiplist_unlink_schedule(
    interfere: impl FnOnce(&LockFreeSkipList<u64, hazard::Hazard>, &mut <hazard::Hazard as Smr>::Handle),
) -> bool {
    let _serial = schedule_lock();
    let scheme = hazard::Hazard::new(deferred_config());
    let set = Arc::new(LockFreeSkipList::<u64, _>::new(Arc::clone(&scheme)));
    let mut main_handle = set.register();
    assert!(set.insert_with_height(5, 1, &mut main_handle));
    assert!(set.insert_with_height(10, 1, &mut main_handle));
    let victim = set.level_addrs(0)[1];

    let trap = Trap::arm("skiplist::remove::pre_unlink_cas");
    let remover = {
        let set = Arc::clone(&set);
        thread::spawn(move || {
            let mut handle = set.register();
            assert!(set.remove(&10, &mut handle), "the remover marks level 0");
        })
    };
    trap.wait_for_parked();
    interfere(&set, &mut main_handle);
    let linked_at_release = set.level_addrs(0).contains(&victim);
    let retired = scheme.stats().retired;
    // A successful direct unlink retires without searching; the fallback
    // `find` publishes a cursor for every node it visits.
    let searches = Counter::arm("skiplist::find::cursor_published");
    trap.release();
    remover.join().unwrap();

    assert!(
        searches.count() > 0,
        "the stale direct CAS must fail and search"
    );
    assert!(!set.level_addrs(0).contains(&victim), "victim left level 0");
    assert_eq!(scheme.stats().retired, retired + 1, "victim retired once");
    assert!(!set.contains(&10, &mut main_handle));
    linked_at_release
}

#[test]
fn skiplist_height1_remove_survives_predecessor_removed_before_its_unlink() {
    // Removing 5 marks its link to the victim: the CAS expecting the
    // unmarked word fails, and the fallback `find` snips the victim itself.
    let linked = force_skiplist_unlink_schedule(|set, h| assert!(set.remove(&5, h)));
    assert!(
        linked,
        "only the remover's fallback search unlinks the victim"
    );
}

#[test]
fn skiplist_height1_remove_survives_insert_between_before_its_unlink() {
    // Inserting 7 between 5 and the victim moves 5's link. The insert's own
    // search must step past the marked victim to place 7, so it snips the
    // victim on the way; the remover's fallback `find` then only confirms.
    let linked = force_skiplist_unlink_schedule(|set, h| {
        assert!(set.insert_with_height(7, 1, h));
        assert!(set.contains(&5, h) && set.contains(&7, h));
    });
    assert!(!linked, "the inserter's search snipped the marked victim");
}

/// Parks a height-2 `insert(10)` before its level-1 CAS, holding the
/// phase-1 words `head.next[1] = null`, while a height-2 `insert(7)` lands
/// between `preds[1]` (the head) and 10's position. The stale CAS fails, the
/// re-search finds 7 as level 1's predecessor and links 10 behind it.
#[test]
fn skiplist_upper_link_researches_after_a_key_lands_in_front() {
    let _serial = schedule_lock();
    let set = Arc::new(LockFreeSkipList::<u64, _>::new(hazard::Hazard::new(
        deferred_config(),
    )));
    let mut main_handle = set.register();
    let trap = Trap::arm("skiplist::insert::upper::pre_link_cas");
    let inserter = {
        let set = Arc::clone(&set);
        thread::spawn(move || {
            let mut handle = set.register();
            assert!(set.insert_with_height(10, 2, &mut handle));
        })
    };
    trap.wait_for_parked();
    let node = set.level_addrs(0)[0];
    assert!(set.insert_with_height(7, 2, &mut main_handle));
    let front = set.level_addrs(1);
    assert_eq!(front.len(), 1, "7 is linked at level 1, 10 not yet");
    trap.release();
    inserter.join().unwrap();

    assert!(
        trap.arrivals() >= 3,
        "10's first CAS must fail and its re-search retry (arrivals = {})",
        trap.arrivals()
    );
    assert_eq!(
        set.level_addrs(1),
        vec![front[0], node],
        "10 linked behind 7"
    );
    assert_eq!(set.len(&mut main_handle), 2);
}

// ---------------------------------------------------------------------------
// Audit: the analogous validate-then-CAS windows in the linked list. These are
// closed *without* versioned links because the insert CAS targets the very
// link the search validated (see the in-code note at the pause point in
// `list.rs`); the schedules below prove the stale CAS fails and the insert
// recovers by retrying.
// ---------------------------------------------------------------------------

/// Parks an inserter of key 10 (between 5 and 15) right before its link CAS,
/// completes `remove(&removed_key)` on the main thread, then releases the
/// inserter. `Trap::arrivals() >= 2` proves the stale CAS failed and the
/// insert went around its retry loop — the window closed the safe way.
fn force_list_schedule(removed_key: u64) {
    let _serial = schedule_lock();
    let set = Arc::new(HarrisMichaelList::<u64, _>::new(hazard::Hazard::new(
        deferred_config(),
    )));
    let mut main_handle = set.register();
    assert!(set.insert(5, &mut main_handle));
    assert!(set.insert(15, &mut main_handle));

    let trap = Trap::arm("list::insert::pre_link_cas");
    let inserter = {
        let set = Arc::clone(&set);
        thread::spawn(move || {
            let mut handle = set.register();
            assert!(set.insert(10, &mut handle), "insert must eventually win");
        })
    };
    trap.wait_for_parked();
    // The window: the inserter holds a validated (prev = 5, curr = 15)
    // position; a complete remove (mark + unlink + retire) slips through it.
    assert!(set.remove(&removed_key, &mut main_handle));
    trap.release();
    inserter.join().unwrap();

    assert!(
        trap.arrivals() >= 2,
        "the stale CAS must fail and retry (arrivals = {})",
        trap.arrivals()
    );
    assert!(set.contains(&10, &mut main_handle));
    assert!(!set.contains(&removed_key, &mut main_handle));
    let survivors = [5_u64, 15]
        .iter()
        .filter(|k| **k != removed_key)
        .filter(|k| set.contains(k, &mut main_handle))
        .count();
    assert_eq!(survivors, 1, "the untouched neighbour must survive");
}

#[test]
fn list_insert_survives_successor_removed_in_the_window() {
    // Removing `curr` (15) swings `prev.next` to its successor: the stale CAS
    // expecting 15 fails on pointer inequality.
    force_list_schedule(15);
}

#[test]
fn list_insert_survives_predecessor_removed_in_the_window() {
    // Removing `prev` (5) marks its outgoing pointer: the stale CAS fails on
    // the mark bit even though the pointer half still reads `curr` — the
    // reason the mark lives in the *outgoing* link.
    force_list_schedule(5);
}

/// The hash map's buckets are the list's chains, so every schedule above (and
/// every explorer cell on the list) covers the map too: each map operation
/// reaches the list's pause points.
#[test]
fn hash_map_operations_run_the_list_code() {
    let _serial = schedule_lock();
    let map =
        LockFreeHashMap::<u64, u64, _>::with_buckets(hazard::Hazard::new(deferred_config()), 1);
    let mut h = map.register();
    assert!(map.insert(5, 50, &mut h));
    let linked = Counter::arm("list::insert::pre_link_cas");
    assert!(map.insert(10, 100, &mut h));
    assert_eq!(linked.count(), 1, "insert links through the list's CAS");
    // 10 sits behind 5 in the one bucket: the walk steps once.
    let walked = Counter::arm("list::search::cursor_published");
    assert_eq!(map.get(&10, &mut h), Some(100));
    assert!(walked.count() > 0, "get walks the list's traversal");
    let unlinked = Counter::arm("list::remove::pre_unlink_cas");
    assert!(map.remove(&5, &mut h));
    assert_eq!(unlinked.count(), 1, "remove marks through the list's code");
    assert_eq!(map.len(), 1);
}

// ---------------------------------------------------------------------------
// Audit: the analogous windows in the external BST. Closed without versions
// because removal dirties (flags/tags) the exact edge word the insert CAS
// expects clean (see the in-code note at the pause point in `bst.rs`).
// ---------------------------------------------------------------------------

/// Builds {10, 30} (so inserting 20 targets the edge internal(30).left →
/// leaf(10) with sibling leaf(30)), parks the inserter of 20 right before its
/// edge CAS, completes `remove(&removed_key)`, then releases.
fn force_bst_schedule(removed_key: u64) {
    let _serial = schedule_lock();
    let set = Arc::new(LockFreeBst::<u64, _>::new(hazard::Hazard::new(
        deferred_config(),
    )));
    let mut main_handle = set.register();
    assert!(set.insert(10, &mut main_handle));
    assert!(set.insert(30, &mut main_handle));

    let trap = Trap::arm("bst::insert::pre_link_cas");
    let inserter = {
        let set = Arc::clone(&set);
        thread::spawn(move || {
            let mut handle = set.register();
            assert!(set.insert(20, &mut handle), "insert must eventually win");
        })
    };
    trap.wait_for_parked();
    // The window: removing 10 flags the inserter's target edge (injection);
    // removing 30 tags that edge as the survivor and splices the inserter's
    // validated *parent* out of the tree entirely (the parent is retired).
    assert!(set.remove(&removed_key, &mut main_handle));
    trap.release();
    inserter.join().unwrap();

    assert!(
        trap.arrivals() >= 2,
        "the stale edge CAS must fail and retry (arrivals = {})",
        trap.arrivals()
    );
    assert!(set.contains(&20, &mut main_handle));
    assert!(!set.contains(&removed_key, &mut main_handle));
    let untouched = if removed_key == 10 { 30 } else { 10 };
    assert!(set.contains(&untouched, &mut main_handle));
}

#[test]
fn bst_insert_survives_target_leaf_removed_in_the_window() {
    force_bst_schedule(10);
}

#[test]
fn bst_insert_survives_parent_spliced_out_in_the_window() {
    force_bst_schedule(30);
}
