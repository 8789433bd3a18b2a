//! Deterministic interleaving regression tests: the validate-then-CAS window
//! of every structure, crossed by a schedule the `reclaim_check` explorer
//! finds and then replays.
//!
//! Each test builds a two-thread [`Scenario`] and asks
//! [`Explorer::explore_until`] for a schedule in which thread 1 runs its
//! conflicting operation from spawn to finish while thread 0 is parked at a
//! pause point of `lockfree_ds::interleave` — the schedule stress tests cross
//! once in millions of operations. It replays that schedule with
//! [`Explorer::replay`], checks that the replay walks the found trace, and
//! asserts on the trace what happened in the window (thread 0 reaching its CAS
//! again means the stale CAS failed and the operation retried).
//!
//! The explorer runs every schedule it tries through the scenario's check, so
//! a check holds for any order. Facts about the found window alone are
//! recorded by the thread bodies and read after the replay, the last run.
//!
//! The headline window is the **skip-list upper-level re-link race**: a
//! complete `remove` (mark all levels + sweep + retire) slipped between the
//! search that gave `insert` its level-`L` words and its `pred.next[L]` CAS.
//! On the pre-versioned-link skip list the stale CAS re-linked the *retired*
//! node at level 1; with versioned links and remove's upper-level fence it
//! fails, under every scheme.
//!
//! With the root `check-oracle` feature every explored schedule also runs
//! against the shadow-heap oracle (`reclaim_core::oracle`).

use lockfree_ds::{
    HarrisMichaelList, LockFreeBst, LockFreeHashMap, LockFreeSkipList, BST_HP_SLOTS,
    HASHMAP_HP_SLOTS, LIST_HP_SLOTS, SKIPLIST_HP_SLOTS,
};
use reclaim_check::{schedule_of, Explorer, Scenario, ScenarioRun, Step};
use reclaim_core::{Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SKIPLIST_UPPER_LINK: &str = "skiplist::insert::upper::pre_link_cas";
const SKIPLIST_UNLINK: &str = "skiplist::remove::pre_unlink_cas";
const LIST_LINK: &str = "list::insert::pre_link_cas";
const BST_LINK: &str = "bst::insert::pre_link_cas";

type HpSkipList = LockFreeSkipList<u64, hazard::Hazard>;
type HpHandle = <hazard::Hazard as Smr>::Handle;

/// Reclaims as soon as the scheme may: every retire is a scan candidate and
/// the thread bodies flush, so nodes are freed inside the explored schedules
/// and, under `check-oracle`, every later checkpoint is judged against that.
fn eager_config(hp_slots: usize) -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(8)
        .with_hp_per_thread(hp_slots)
        .with_scan_threshold(1)
        .with_quiescence_threshold(1)
        .with_fallback_threshold(4)
        .with_rooster_interval(Duration::MAX)
}

/// Scans and quiescence pushed past the horizon: a node is freed at the
/// earliest when its remover's handle drops, and one that another thread still
/// holds then stays allocated until the scheme drops. The skip-list checks walk
/// raw level links (`level_addrs`), which needs every retired node allocated —
/// even one a buggy schedule re-linked.
fn deferred_config() -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(8)
        .with_hp_per_thread(SKIPLIST_HP_SLOTS)
        .with_scan_threshold(1 << 30)
        .with_quiescence_threshold(1 << 30)
        .with_fallback_threshold(1 << 30)
        .with_rooster_interval(Duration::MAX)
}

/// True if thread 1 ran from spawn to finish while thread 0 was parked at
/// `point`: thread 1's grants are one unbroken run, and the next grant
/// releases thread 0 from `point`.
fn ran_inside_window(trace: &[Step], point: &str) -> bool {
    let (Some(first), Some(last)) = (
        trace.iter().position(|s| s.thread == 1),
        trace.iter().rposition(|s| s.thread == 1),
    ) else {
        return false;
    };
    trace[first..=last].iter().all(|s| s.thread == 1)
        && trace
            .get(last + 1)
            .is_some_and(|s| s.thread == 0 && s.point == point)
}

/// How many times `thread` was released from `point`.
fn arrivals(trace: &[Step], thread: usize, point: &str) -> usize {
    trace
        .iter()
        .filter(|s| s.thread == thread && s.point == point)
        .count()
}

/// Finds a schedule whose trace satisfies `found`, replays it, and returns
/// the replayed trace once it is checked equal to the found one.
fn find_and_replay(scenario: &Scenario, found: impl Fn(&[Step]) -> bool) -> Vec<Step> {
    let explorer = Explorer::new();
    let trace = explorer
        .explore_until(scenario, found)
        .unwrap_or_else(|failure| panic!("{failure}"))
        .unwrap_or_else(|| {
            panic!(
                "`{}`: no schedule within the preemption bound crosses the window",
                scenario.name()
            )
        });
    let replayed = explorer
        .replay(scenario, &schedule_of(&trace))
        .unwrap_or_else(|failure| panic!("replay of the found schedule failed: {failure}"));
    assert_eq!(replayed, trace, "the replay walks the found trace");
    replayed
}

/// [`find_and_replay`] for the window every two-thread test forces: thread
/// 1's whole operation inside thread 0's stop at `point`.
fn force_window(scenario: &Scenario, point: &str) -> Vec<Step> {
    find_and_replay(scenario, |trace| ran_inside_window(trace, point))
}

/// Thread 0 inserts 10 at height 2 behind 5; thread 1 removes 10. The forced
/// schedule parks the inserter right before its level-1 CAS, holding the words
/// its phase-1 `find` read before the node reached level 0, while the remove
/// marks every level, sweeps the node out and retires it.
///
/// The invariant the race breaks holds for every order: a node is linked at
/// level 1 only while it is linked at level 0. A retired node re-linked at
/// level 1 breaks it, and a reader traversing level 1 could then validate a
/// protection for (and dereference) freed memory.
fn assert_victim_not_relinked<S: Smr>(make: fn(SmrConfig) -> Arc<S>, scheme: &str) {
    let scenario = Scenario::new(format!("skiplist-relink/{scheme}"), move || {
        let set = Arc::new(LockFreeSkipList::<u64, S>::new(make(deferred_config())));
        let mut h = set.register();
        assert!(set.insert_with_height(5, 1, &mut h));
        drop(h);
        let (inserter, remover) = (Arc::clone(&set), Arc::clone(&set));
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(
                    inserter.insert_with_height(10, 2, &mut h),
                    "level-0 linking (the linearization point) must succeed"
                );
            })
            .thread(move || {
                // Before the level-0 link there is nothing to remove yet.
                let mut h = remover.register();
                let _ = remover.remove(&10, &mut h);
            })
            .check(move || {
                let level0 = set.level_addrs(0);
                let relinked: Vec<usize> = set
                    .level_addrs(1)
                    .into_iter()
                    .filter(|node| !level0.contains(node))
                    .collect();
                assert!(
                    relinked.is_empty(),
                    "retired node {relinked:x?} was re-linked at level 1 by a stale insert \
                     CAS (upper-level re-link race): level 0 = {level0:x?}"
                );
                let mut h = set.register();
                assert!(set.contains(&5, &mut h), "bystander survives");
                let present = set.contains(&10, &mut h);
                assert_eq!(set.len(&mut h), 1 + usize::from(present));
            })
    });
    let trace = force_window(&scenario, SKIPLIST_UPPER_LINK);
    assert_eq!(
        arrivals(&trace, 1, "skiplist::remove::pre_retire"),
        1,
        "the remove retired 10 inside the window"
    );
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_hp() {
    assert_victim_not_relinked(hazard::Hazard::new, "hp");
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_cadence() {
    assert_victim_not_relinked(cadence::Cadence::new, "cadence");
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_he() {
    assert_victim_not_relinked(he::He::new, "he");
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_qsense() {
    assert_victim_not_relinked(qsense::QSense::new, "qsense");
}

/// Thread 0 runs a height-1 `remove(&10)` behind 5; the forced schedule parks
/// it at its direct unlink — victim marked, `preds[0] = 5` and the word it
/// read there in hand — while thread 1 runs `interfere`. In every order the
/// victim leaves level 0 and `retires` nodes are retired in all. Returns
/// whether, in the forced schedule, the victim was still linked at level 0
/// when thread 1 finished.
fn force_skiplist_unlink_schedule(interfere: fn(&HpSkipList, &mut HpHandle), retires: u64) -> bool {
    let linked_at_release = Arc::new(AtomicBool::new(false));
    let linked = Arc::clone(&linked_at_release);
    let scenario = Scenario::new("skiplist-unlink/hp", move || {
        let scheme = hazard::Hazard::new(deferred_config());
        let set = Arc::new(HpSkipList::new(Arc::clone(&scheme)));
        let mut h = set.register();
        assert!(set.insert_with_height(5, 1, &mut h));
        assert!(set.insert_with_height(10, 1, &mut h));
        drop(h);
        let victim = set.level_addrs(0)[1];
        let (remover, interferer) = (Arc::clone(&set), Arc::clone(&set));
        let linked = Arc::clone(&linked);
        ScenarioRun::new()
            .thread(move || {
                let mut h = remover.register();
                assert!(remover.remove(&10, &mut h), "the remover marks level 0");
            })
            .thread(move || {
                let mut h = interferer.register();
                interfere(&interferer, &mut h);
                // Read after the forced schedule only, where the victim is
                // not yet retired, so its address is still its own.
                let at_release = interferer.level_addrs(0).contains(&victim);
                linked.store(at_release, Ordering::Relaxed);
            })
            .check(move || {
                // By key and count, not address: a freed victim's block may
                // already hold the interferer's node.
                let mut h = set.register();
                assert!(!set.contains(&10, &mut h));
                assert_eq!(
                    set.level_addrs(0).len(),
                    set.len(&mut h),
                    "no marked node is left at level 0: the victim left it"
                );
                assert_eq!(
                    scheme.stats().retired,
                    retires,
                    "each removed node retired once"
                );
            })
    });
    let trace = force_window(&scenario, SKIPLIST_UNLINK);
    // A successful direct unlink retires without searching; the fallback
    // `find` publishes a cursor for every node it visits.
    let unlink = trace
        .iter()
        .position(|s| s.thread == 0 && s.point == SKIPLIST_UNLINK)
        .expect("the window");
    assert!(
        arrivals(&trace[unlink..], 0, "skiplist::find::cursor_published") > 0,
        "the stale direct CAS must fail and search"
    );
    linked_at_release.load(Ordering::Relaxed)
}

#[test]
fn skiplist_height1_remove_survives_predecessor_removed_before_its_unlink() {
    // Removing 5 marks its link to the victim: the CAS expecting the
    // unmarked word fails, and the fallback `find` snips the victim itself.
    let linked = force_skiplist_unlink_schedule(|set, h| assert!(set.remove(&5, h)), 2);
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
    let linked = force_skiplist_unlink_schedule(
        |set, h| {
            assert!(set.insert_with_height(7, 1, h));
            assert!(set.contains(&5, h) && set.contains(&7, h));
        },
        1,
    );
    assert!(!linked, "the inserter's search snipped the marked victim");
}

/// Parks a height-2 `insert(10)` before its level-1 CAS, holding the
/// phase-1 words `head.next[1] = null`, while a height-2 `insert(7)` lands
/// between `preds[1]` (the head) and 10's position. The stale CAS fails, the
/// re-search finds 7 as level 1's predecessor and links 10 behind it.
#[test]
fn skiplist_upper_link_researches_after_a_key_lands_in_front() {
    let front_at_release = Arc::new(AtomicUsize::new(0));
    let front = Arc::clone(&front_at_release);
    let scenario = Scenario::new("skiplist-upper-link/hp", move || {
        let set = Arc::new(HpSkipList::new(hazard::Hazard::new(deferred_config())));
        let (late, early) = (Arc::clone(&set), Arc::clone(&set));
        let front = Arc::clone(&front);
        ScenarioRun::new()
            .thread(move || {
                let mut h = late.register();
                assert!(late.insert_with_height(10, 2, &mut h));
            })
            .thread(move || {
                let mut h = early.register();
                assert!(early.insert_with_height(7, 2, &mut h));
                front.store(early.level_addrs(1).len(), Ordering::Relaxed);
            })
            .check(move || {
                // Both towers are linked at every level, in key order.
                assert_eq!(set.level_addrs(1), set.level_addrs(0), "10 linked behind 7");
                assert_eq!(set.len(&mut set.register()), 2);
            })
    });
    let trace = force_window(&scenario, SKIPLIST_UPPER_LINK);
    assert_eq!(
        front_at_release.load(Ordering::Relaxed),
        1,
        "7 is linked at level 1, 10 not yet"
    );
    let tries = arrivals(&trace, 0, SKIPLIST_UPPER_LINK);
    assert!(
        tries >= 2,
        "10's first CAS must fail and its re-search retry (arrivals = {tries})"
    );
}

// ---------------------------------------------------------------------------
// Audit: the analogous validate-then-CAS windows in the linked list. These are
// closed *without* upper-level fencing because the insert CAS targets the very
// link the search validated (see the in-code note at the pause point in
// `list.rs`); the schedules below prove the stale CAS fails and the insert
// recovers by retrying.
// ---------------------------------------------------------------------------

/// Thread 0 inserts 10 between 5 and 15; thread 1 removes `removed_key`. The
/// forced schedule parks the inserter right before its link CAS, holding a
/// validated (prev = 5, curr = 15) position, while the remove marks, unlinks
/// and retires the neighbour. Thread 0 reaching the CAS twice proves the
/// stale CAS failed and the insert went around its retry loop.
fn force_list_schedule(removed_key: u64) {
    let scenario = Scenario::new(format!("list-remove-{removed_key}/hp"), move || {
        let set = Arc::new(HarrisMichaelList::<u64, hazard::Hazard>::new(
            hazard::Hazard::new(eager_config(LIST_HP_SLOTS)),
        ));
        let mut h = set.register();
        assert!(set.insert(5, &mut h));
        assert!(set.insert(15, &mut h));
        drop(h);
        let (inserter, remover) = (Arc::clone(&set), Arc::clone(&set));
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(inserter.insert(10, &mut h), "insert must eventually win");
                h.flush();
            })
            .thread(move || {
                let mut h = remover.register();
                assert!(remover.remove(&removed_key, &mut h), "prefilled");
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                let untouched = if removed_key == 5 { 15 } else { 5 };
                assert!(set.contains(&10, &mut h));
                assert!(!set.contains(&removed_key, &mut h));
                assert!(
                    set.contains(&untouched, &mut h),
                    "the untouched neighbour survives"
                );
                assert_eq!(set.len(&mut h), 2);
            })
    });
    let trace = force_window(&scenario, LIST_LINK);
    let tries = arrivals(&trace, 0, LIST_LINK);
    assert!(
        tries >= 2,
        "the stale CAS must fail and retry (arrivals = {tries})"
    );
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
/// every explorer cell on the list) covers the map too: one thread's map
/// insert, get and remove run the list's three pause points.
#[test]
fn hash_map_operations_run_the_list_code() {
    let scenario = Scenario::new("hash-map/hp", || {
        let map = Arc::new(LockFreeHashMap::<u64, u64, _>::with_buckets(
            hazard::Hazard::new(eager_config(HASHMAP_HP_SLOTS)),
            1,
        ));
        let mut h = map.register();
        assert!(map.insert(5, 50, &mut h));
        drop(h);
        let ops = Arc::clone(&map);
        ScenarioRun::new()
            .thread(move || {
                let mut h = ops.register();
                assert!(ops.insert(10, 100, &mut h));
                // 10 sits behind 5 in the one bucket: the walk steps once.
                assert_eq!(ops.get(&10, &mut h), Some(100));
                assert!(ops.remove(&5, &mut h));
                h.flush();
            })
            .check(move || assert_eq!(map.len(), 1))
    });
    let trace = find_and_replay(&scenario, |_| true);
    assert_eq!(
        arrivals(&trace, 0, LIST_LINK),
        1,
        "insert links through the list's CAS"
    );
    assert!(
        arrivals(&trace, 0, "list::search::cursor_published") > 0,
        "get walks the list's traversal"
    );
    assert_eq!(
        arrivals(&trace, 0, "list::remove::pre_unlink_cas"),
        1,
        "remove marks through the list's code"
    );
}

// ---------------------------------------------------------------------------
// Audit: the analogous windows in the external BST. Closed without versions
// because removal dirties (flags/tags) the exact edge word the insert CAS
// expects clean (see the in-code note at the pause point in `bst.rs`).
// ---------------------------------------------------------------------------

/// Builds `keys`, so inserting `inserted` (between them) targets the edge
/// internal(keys[1]).left → leaf(keys[0]) with sibling leaf(keys[1]). The
/// forced schedule parks the inserter right before its edge CAS while a whole
/// `remove(&removed)` runs: removing `keys[0]` flags the inserter's target
/// edge (injection); removing `keys[1]` tags that edge as the survivor and
/// splices the inserter's validated *parent* out of the tree (the parent is
/// retired). A BST remove has no pause point, so it runs inside the one grant
/// that releases it from spawn.
fn force_bst_schedule(keys: [u64; 2], inserted: u64, removed: u64) {
    let scenario = Scenario::new(format!("bst-{keys:?}-remove-{removed}/hp"), move || {
        let set = Arc::new(LockFreeBst::<u64, hazard::Hazard>::new(
            hazard::Hazard::new(eager_config(BST_HP_SLOTS)),
        ));
        let mut h = set.register();
        for key in keys {
            assert!(set.insert(key, &mut h));
        }
        drop(h);
        let (inserter, remover) = (Arc::clone(&set), Arc::clone(&set));
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(
                    inserter.insert(inserted, &mut h),
                    "insert must eventually win"
                );
                h.flush();
            })
            .thread(move || {
                let mut h = remover.register();
                assert!(remover.remove(&removed, &mut h), "prefilled");
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                let untouched = if removed == keys[0] { keys[1] } else { keys[0] };
                assert!(set.contains(&inserted, &mut h));
                assert!(!set.contains(&removed, &mut h));
                assert!(set.contains(&untouched, &mut h));
                assert_eq!(set.len(&mut h), 2);
            })
    });
    let trace = force_window(&scenario, BST_LINK);
    let tries = arrivals(&trace, 0, BST_LINK);
    assert!(
        tries >= 2,
        "the stale edge CAS must fail and retry (arrivals = {tries})"
    );
}

#[test]
fn bst_insert_survives_target_leaf_removed_in_the_window() {
    force_bst_schedule([10, 30], 20, 10);
}

#[test]
fn bst_insert_survives_parent_spliced_out_in_the_window() {
    // Both key layouts the splice has been pinned with.
    force_bst_schedule([10, 30], 20, 30);
    force_bst_schedule([10, 20], 15, 20);
}
