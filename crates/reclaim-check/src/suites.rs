//! Protocol scenario suites: every structure's unlink/ABA window, under every
//! reclamation scheme, as small deterministic [`Scenario`]s for the explorer.
//!
//! Each scenario is two model threads crossing the structure's documented
//! danger window (insert's validate→CAS against a concurrent remove of a
//! neighbour; the queue/stack head windows against a concurrent producer),
//! plus a post-schedule membership check. Thread bodies end with a handle
//! flush so retirement → free actually happens *inside* the explored
//! schedules (scan/quiescence thresholds are set to 1 for the same reason) —
//! under `check-oracle` every traversal and guard checkpoint then validates
//! live-or-protected against the shadow heap.
//!
//! Determinism rules (prefix replay depends on them): the skip list only ever
//! uses `insert_with_height`, no scenario reads clocks or RNG, and rooster
//! threads are disabled (they would free at wall-clock times, which is
//! invisible to the pause-point schedule but noisy for leak accounting).

use crate::explorer::{Scenario, ScenarioRun};
use lockfree_ds::{
    HarrisMichaelList, LockFreeBst, LockFreeSkipList, MichaelScottQueue, TreiberStack,
    BST_HP_SLOTS, LIST_HP_SLOTS, QUEUE_HP_SLOTS, SKIPLIST_HP_SLOTS, STACK_HP_SLOTS,
};
use reclaim_core::{Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Eager-reclamation config: thresholds of 1 so every retire is immediately
/// eligible, no rooster (determinism), `max_threads` with headroom
/// for prefill + 2 model threads + the post-schedule check.
fn config(hp_slots: usize) -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(8)
        .with_hp_per_thread(hp_slots)
        .with_scan_threshold(1)
        .with_quiescence_threshold(1)
        .with_fallback_threshold(4)
        .with_rooster_interval(std::time::Duration::MAX)
}

fn list_scenario<S, F>(scheme: &'static str, make: F) -> Scenario
where
    S: Smr,
    F: Fn(SmrConfig) -> Arc<S> + Send + Sync + 'static,
{
    Scenario::new(format!("list/{scheme}"), move || {
        let set = Arc::new(HarrisMichaelList::<u64, S>::new(make(config(
            LIST_HP_SLOTS,
        ))));
        let mut h = set.register();
        assert!(set.insert(5, &mut h));
        assert!(set.insert(15, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let pred_remover = Arc::clone(&set);
        let succ_remover = Arc::clone(&set);
        ScenarioRun::new()
            // Crosses `list::insert::pre_link_cas` with pred 5 / succ 15...
            .thread(move || {
                let mut h = inserter.register();
                assert!(inserter.insert(10, &mut h), "10 is unclaimed");
                h.flush();
            })
            // ...while the predecessor is removed and retired
            // (`list::remove::pre_unlink_cas`)...
            .thread(move || {
                let mut h = pred_remover.register();
                assert!(pred_remover.remove(&5, &mut h), "5 was prefilled");
                h.flush();
            })
            // ...and the successor too (both sides of the link window).
            .thread(move || {
                let mut h = succ_remover.register();
                assert!(succ_remover.remove(&15, &mut h), "15 was prefilled");
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                assert!(set.contains(&10, &mut h), "insert linearized");
                assert!(!set.contains(&5, &mut h), "pred remove linearized");
                assert!(!set.contains(&15, &mut h), "succ remove linearized");
                assert_eq!(set.len(&mut h), 1);
            })
    })
}

fn skiplist_scenario<S, F>(scheme: &'static str, make: F) -> Scenario
where
    S: Smr,
    F: Fn(SmrConfig) -> Arc<S> + Send + Sync + 'static,
{
    Scenario::new(format!("skiplist/{scheme}"), move || {
        let set = Arc::new(LockFreeSkipList::<u64, S>::new(make(config(
            SKIPLIST_HP_SLOTS,
        ))));
        let mut h = set.register();
        // Fixed heights: random heights would break prefix-replay determinism.
        assert!(set.insert_with_height(5, 1, &mut h));
        assert!(set.insert_with_height(20, 1, &mut h));
        assert!(set.insert_with_height(30, 1, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let pred_remover = Arc::clone(&set);
        let self_remover = Arc::clone(&set);
        let removed = Arc::new(AtomicBool::new(false));
        let removed_in_check = Arc::clone(&removed);
        ScenarioRun::new()
            // Height 2: crosses `skiplist::insert::upper::pre_link_cas`, the
            // window of the historical re-link UAF...
            .thread(move || {
                let mut h = inserter.register();
                assert!(
                    inserter.insert_with_height(10, 2, &mut h),
                    "10 is unclaimed"
                );
                h.flush();
            })
            // ...while its level-0 pred, then succ, go (height 1: a direct unlink CAS)...
            .thread(move || {
                let mut h = pred_remover.register();
                assert!(pred_remover.remove(&5, &mut h), "5 was prefilled");
                assert!(pred_remover.remove(&20, &mut h), "20 was prefilled");
                h.flush();
            })
            // ...and the new node itself races removal mid-link (the exact
            // shape of the historical bug: remove completes inside insert's
            // upper-level window; success depends on the schedule).
            .thread(move || {
                let mut h = self_remover.register();
                removed.store(self_remover.remove(&10, &mut h), Ordering::Relaxed);
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                assert!(!set.contains(&5, &mut h), "pred remove linearized");
                assert!(!set.contains(&20, &mut h), "succ remove linearized");
                // 20's unlink relinks its pred to 30: a CAS onto the wrong
                // successor loses the bystander.
                assert!(set.contains(&30, &mut h), "bystander survives");
                // 10's final presence is schedule-dependent (did the remove
                // land after the insert?), but it is gone exactly when the
                // remove reported removing it.
                let present = set.contains(&10, &mut h);
                assert_eq!(present, !removed_in_check.load(Ordering::Relaxed));
                assert_eq!(set.len(&mut h), 1 + usize::from(present));
            })
    })
}

fn bst_scenario<S, F>(scheme: &'static str, make: F) -> Scenario
where
    S: Smr,
    F: Fn(SmrConfig) -> Arc<S> + Send + Sync + 'static,
{
    Scenario::new(format!("bst/{scheme}"), move || {
        let set = Arc::new(LockFreeBst::<u64, S>::new(make(config(BST_HP_SLOTS))));
        let mut h = set.register();
        assert!(set.insert(10, &mut h));
        assert!(set.insert(20, &mut h));
        assert!(set.insert(5, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let leaf_remover = Arc::clone(&set);
        let far_remover = Arc::clone(&set);
        ScenarioRun::new()
            // Crosses `bst::insert::pre_link_cas` on the edge toward 20...
            .thread(move || {
                let mut h = inserter.register();
                assert!(inserter.insert(15, &mut h), "15 is unclaimed");
                h.flush();
            })
            // ...while 20's leaf + parent internal node are sibling-spliced
            // out and retired...
            .thread(move || {
                let mut h = leaf_remover.register();
                assert!(leaf_remover.remove(&20, &mut h), "20 was prefilled");
                h.flush();
            })
            // ...and a second splice reshapes the other side of the route.
            .thread(move || {
                let mut h = far_remover.register();
                assert!(far_remover.remove(&5, &mut h), "5 was prefilled");
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                assert!(set.contains(&10, &mut h), "bystander survives");
                assert!(set.contains(&15, &mut h), "insert linearized");
                assert!(!set.contains(&20, &mut h), "leaf remove linearized");
                assert!(!set.contains(&5, &mut h), "far remove linearized");
                assert_eq!(set.len(&mut h), 2);
            })
    })
}

fn queue_scenario<S, F>(scheme: &'static str, make: F) -> Scenario
where
    S: Smr,
    F: Fn(SmrConfig) -> Arc<S> + Send + Sync + 'static,
{
    Scenario::new(format!("queue/{scheme}"), move || {
        let queue = Arc::new(MichaelScottQueue::<u64, S>::new(make(config(
            QUEUE_HP_SLOTS,
        ))));
        let mut h = queue.register();
        queue.enqueue(1, &mut h);
        queue.enqueue(2, &mut h);
        drop(h);
        let popped = Arc::new(std::sync::Mutex::new(Vec::new()));
        let producer = Arc::clone(&queue);
        let consumer_a = Arc::clone(&queue);
        let consumer_b = Arc::clone(&queue);
        let popped_a = Arc::clone(&popped);
        let popped_b = Arc::clone(&popped);
        ScenarioRun::new()
            // Crosses `queue::enqueue::pre_link_cas` at the tail...
            .thread(move || {
                let mut h = producer.register();
                producer.enqueue(3, &mut h);
                h.flush();
            })
            // ...while two consumers race the head swing + retire
            // (`queue::dequeue::pre_unlink_cas`); which consumer gets which
            // value is schedule-dependent, so bodies record, check judges.
            .thread(move || {
                let mut h = consumer_a.register();
                let v = consumer_a.dequeue(&mut h).expect("two prefilled elements");
                popped_a.lock().unwrap().push(v);
                h.flush();
            })
            .thread(move || {
                let mut h = consumer_b.register();
                let v = consumer_b.dequeue(&mut h).expect("two prefilled elements");
                popped_b.lock().unwrap().push(v);
                h.flush();
            })
            .check(move || {
                let mut h = queue.register();
                let mut seen = popped.lock().unwrap().clone();
                assert_eq!(queue.len(), 1);
                seen.push(queue.dequeue(&mut h).expect("one element left"));
                assert_eq!(queue.dequeue(&mut h), None);
                seen.sort_unstable();
                assert_eq!(seen, vec![1, 2, 3], "no value lost or duplicated");
                h.flush();
            })
    })
}

fn stack_scenario<S, F>(scheme: &'static str, make: F) -> Scenario
where
    S: Smr,
    F: Fn(SmrConfig) -> Arc<S> + Send + Sync + 'static,
{
    Scenario::new(format!("stack/{scheme}"), move || {
        let stack = Arc::new(TreiberStack::<u64, S>::new(make(config(STACK_HP_SLOTS))));
        let a = Arc::clone(&stack);
        let b = Arc::clone(&stack);
        ScenarioRun::new()
            // Both threads cross `stack::push::pre_link_cas` and
            // `stack::pop::pre_unlink_cas` — the classic Treiber ABA windows.
            .thread(move || {
                let mut h = a.register();
                a.push(1, &mut h);
                assert!(a.pop(&mut h).is_some(), "own push precedes the pop");
                h.flush();
            })
            .thread(move || {
                let mut h = b.register();
                b.push(2, &mut h);
                assert!(b.pop(&mut h).is_some(), "own push precedes the pop");
                h.flush();
            })
            .check(move || {
                let mut h = stack.register();
                assert_eq!(stack.pop(&mut h), None, "two pushes, two pops");
                assert_eq!(stack.len(), 0);
            })
    })
}

/// Builds one scenario per reclamation scheme by calling a generic
/// `fn(&'static str, impl Fn(SmrConfig) -> Arc<S>) -> Scenario` builder.
macro_rules! across_schemes {
    ($out:ident, $builder:ident) => {{
        $out.push($builder("none", reclaim_core::Leaky::new));
        $out.push($builder("qsbr", qsbr::Qsbr::new));
        $out.push($builder("ebr", ebr::Ebr::new));
        $out.push($builder("he", he::He::new));
        $out.push($builder("hp", hazard::Hazard::new));
        $out.push($builder("cadence", cadence::Cadence::new));
        $out.push($builder("qsense", qsense::QSense::new));
        $out.push($builder("rc", refcount::RefCount::new));
    }};
}

/// The scenarios for one structure (`"list"`, `"skiplist"`, `"bst"`,
/// `"queue"`, `"stack"`), one per scheme.
///
/// # Panics
///
/// Panics on an unknown structure name.
pub fn scenarios_for(structure: &str) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(8);
    match structure {
        "list" => across_schemes!(out, list_scenario),
        "skiplist" => across_schemes!(out, skiplist_scenario),
        "bst" => across_schemes!(out, bst_scenario),
        "queue" => across_schemes!(out, queue_scenario),
        "stack" => across_schemes!(out, stack_scenario),
        other => panic!("unknown structure `{other}`"),
    }
    out
}

/// Every suite scenario: 5 structures × 8 schemes.
pub fn all_scenarios() -> Vec<Scenario> {
    ["list", "skiplist", "bst", "queue", "stack"]
        .into_iter()
        .flat_map(scenarios_for)
        .collect()
}
