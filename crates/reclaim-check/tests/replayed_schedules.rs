//! The four historically hand-forced schedules (PR 4's interleaving harness)
//! re-expressed as **explorer-found traces replayed from recorded schedules**:
//!
//! 1. skip-list upper-level re-link (a complete remove inside insert's
//!    validate→CAS window at `skiplist::insert::upper::pre_link_cas`);
//! 2. list successor removal inside `list::insert::pre_link_cas`;
//! 3. list predecessor removal inside the same window;
//! 4. BST leaf/sibling splice inside `bst::insert::pre_link_cas`.
//!
//! Instead of arming traps and choreographing threads by hand, each test asks
//! the explorer to *find* a schedule in which the remover's retire crosses the
//! inserter's open window, then replays the recorded schedule and lets the
//! scenario's invariant check (and, under `check-oracle`, the shadow heap)
//! judge the outcome. The fixed structures must survive every one.

use lockfree_ds::{
    HarrisMichaelList, LockFreeBst, LockFreeSkipList, BST_HP_SLOTS, LIST_HP_SLOTS,
    SKIPLIST_HP_SLOTS,
};
use reclaim_check::{schedule_of, Explorer, Scenario, ScenarioRun, Step, SPAWN_POINT};
use reclaim_core::{SmrConfig, SmrHandle};
use std::sync::Arc;

fn config(hp_slots: usize) -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(8)
        .with_hp_per_thread(hp_slots)
        .with_scan_threshold(1)
        .with_quiescence_threshold(1)
        .with_fallback_threshold(4)
        .with_rooster_interval(std::time::Duration::MAX)
}

/// True if the trace contains the forced window: thread 0 parks at
/// `window_point` and, before it is granted again, thread 1 is granted at
/// `inside_point` (the grant that executes the remove's unlink + retire).
///
/// Grants are fully serialized, so every thread-1 step strictly between two
/// thread-0 steps runs while thread 0 sits parked at the later step's point.
fn window_crossed(trace: &[Step], window_point: &str, inside_point: &str) -> bool {
    let mut last_t0: Option<usize> = None;
    for (i, step) in trace.iter().enumerate() {
        if step.thread == 0 {
            if step.point == window_point {
                if let Some(a) = last_t0 {
                    if trace[a + 1..i]
                        .iter()
                        .any(|s| s.thread == 1 && s.point == inside_point)
                    {
                        return true;
                    }
                }
            }
            last_t0 = Some(i);
        }
    }
    false
}

/// Finds a schedule matching `pred`, replays it from the recorded thread-id
/// sequence, and checks the replayed trace still crosses the window.
fn find_and_replay(scenario: &Scenario, window_point: &'static str, inside_point: &'static str) {
    let explorer = Explorer::new();
    let trace = explorer
        .explore_until(scenario, |t| window_crossed(t, window_point, inside_point))
        .unwrap_or_else(|failure| panic!("{failure}"))
        .unwrap_or_else(|| {
            panic!("no schedule crosses {inside_point} through the {window_point} window within the preemption bound")
        });

    // The recorded schedule replays deterministically and stays clean — on
    // the pre-versioning structures this exact schedule was the UAF.
    let replayed = explorer
        .replay(scenario, &schedule_of(&trace))
        .unwrap_or_else(|failure| panic!("replay of the recorded schedule failed: {failure}"));
    assert_eq!(replayed, trace, "prefix replay reproduces the found trace");
    assert!(
        window_crossed(&replayed, window_point, inside_point),
        "the replayed schedule still crosses the window"
    );
}

/// Thread 0 inserts a height-2 node; thread 1 runs a complete remove of the
/// same key. The dangerous schedule parks the inserter between its upper-level
/// validation and CAS while the remove marks, sweeps and retires the node.
fn skiplist_relink_scenario() -> Scenario {
    Scenario::new("replayed/skiplist-relink", || {
        let set = Arc::new(LockFreeSkipList::<u64, hazard::Hazard>::new(
            hazard::Hazard::new(config(SKIPLIST_HP_SLOTS)),
        ));
        let mut h = set.register();
        assert!(set.insert_with_height(5, 1, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let remover = Arc::clone(&set);
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(
                    inserter.insert_with_height(10, 2, &mut h),
                    "10 is unclaimed"
                );
                h.flush();
            })
            .thread(move || {
                // May run before the level-0 link: then there is nothing to
                // remove yet and the schedule is not the one we search for.
                let mut h = remover.register();
                let _ = remover.remove(&10, &mut h);
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                assert!(set.contains(&5, &mut h), "bystander survives");
                // 10's membership depends on whether the remove caught the
                // insert; the set must merely be consistent about it.
                let present = set.contains(&10, &mut h);
                assert_eq!(set.len(&mut h), 1 + usize::from(present));
            })
    })
}

#[test]
fn skiplist_relink_schedule_is_found_and_replays_clean() {
    find_and_replay(
        &skiplist_relink_scenario(),
        "skiplist::insert::upper::pre_link_cas",
        "skiplist::remove::pre_retire",
    );
}

/// List scenario: thread 0 inserts 10 between 5 and 15; thread 1 removes
/// `victim` (5 = predecessor, 15 = successor of the pending link).
fn list_scenario(victim: u64) -> Scenario {
    Scenario::new(format!("replayed/list-remove-{victim}"), move || {
        let set = Arc::new(HarrisMichaelList::<u64, hazard::Hazard>::new(
            hazard::Hazard::new(config(LIST_HP_SLOTS)),
        ));
        let mut h = set.register();
        assert!(set.insert(5, &mut h));
        assert!(set.insert(15, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let remover = Arc::clone(&set);
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(inserter.insert(10, &mut h), "10 is unclaimed");
                h.flush();
            })
            .thread(move || {
                let mut h = remover.register();
                assert!(remover.remove(&victim, &mut h), "victim was prefilled");
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                assert!(set.contains(&10, &mut h), "insert survives the removal");
                assert!(!set.contains(&victim, &mut h), "victim is gone");
                assert_eq!(set.len(&mut h), 2);
            })
    })
}

#[test]
fn list_succ_removal_schedule_is_found_and_replays_clean() {
    find_and_replay(
        &list_scenario(15),
        "list::insert::pre_link_cas",
        "list::remove::pre_unlink_cas",
    );
}

#[test]
fn list_pred_removal_schedule_is_found_and_replays_clean() {
    find_and_replay(
        &list_scenario(5),
        "list::insert::pre_link_cas",
        "list::remove::pre_unlink_cas",
    );
}

/// BST scenario: thread 0 inserts 15 (routing along the edge toward 20);
/// thread 1 sibling-splices 20's leaf and parent out. The remove has no pause
/// point of its own — the whole operation runs inside the grant released from
/// its spawn park, so the window predicate keys on `SPAWN_POINT`.
fn bst_splice_scenario() -> Scenario {
    Scenario::new("replayed/bst-splice", || {
        let set = Arc::new(LockFreeBst::<u64, hazard::Hazard>::new(
            hazard::Hazard::new(config(BST_HP_SLOTS)),
        ));
        let mut h = set.register();
        assert!(set.insert(10, &mut h));
        assert!(set.insert(20, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let remover = Arc::clone(&set);
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(inserter.insert(15, &mut h), "15 is unclaimed");
                h.flush();
            })
            .thread(move || {
                let mut h = remover.register();
                assert!(remover.remove(&20, &mut h), "20 was prefilled");
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                assert!(set.contains(&10, &mut h), "bystander survives");
                assert!(set.contains(&15, &mut h), "insert survives the splice");
                assert!(!set.contains(&20, &mut h), "leaf is gone");
                assert_eq!(set.len(&mut h), 2);
            })
    })
}

#[test]
fn bst_leaf_splice_schedule_is_found_and_replays_clean() {
    find_and_replay(
        &bst_splice_scenario(),
        "bst::insert::pre_link_cas",
        SPAWN_POINT,
    );
}
