//! Acceptance for the shadow-heap oracle half of the harness (all tests
//! require `--features check-oracle`):
//!
//! * the explorer finds the resurrected pre-versioning skip-list re-link UAF
//!   **without a hand-written schedule**, and the failing trace replays;
//! * likewise a hand-over-hand traversal that publishes its cursor over the
//!   slot still holding its predecessor (rotation without the swap), while the
//!   same traversal with the swap explores clean;
//! * the skip list's shipped batch insert, with its upper levels published
//!   by stores instead of versioned CASes, publishes a freed tower — while
//!   the shipped publication explores clean (`skiplist-batch/*`);
//! * an intentionally-seeded violation produces a panic naming the node and
//!   a replayable schedule.

#![cfg(feature = "check-oracle")]

use reclaim_check::{fixture, schedule_of, Explorer, FailureKind, Scenario, ScenarioRun};
use reclaim_core::{drop_fn_for, RetiredPtr, Smr, SmrConfig, SmrHandle, NO_BIRTH_ERA};

#[test]
fn explorer_finds_the_pre_versioning_relink_uaf() {
    let scenario = fixture::relink_scenario();
    let report = Explorer::new().explore(&scenario);
    let failure = report.failure.expect(
        "the unversioned upper-level CAS re-links a retired node within preemption bound 2",
    );
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("use after free"),
        "expected an oracle UAF verdict, got: {}",
        failure.message
    );
    assert!(
        failure.message.contains("relink_fixture::"),
        "the verdict names the checkpoint that tripped: {}",
        failure.message
    );
    assert!(
        report.schedules > 1,
        "schedule #0 (run-to-completion) is clean; the bug needs preemptions"
    );

    // The printed schedule is a complete reproduction recipe.
    let replayed = Explorer::new()
        .replay(&scenario, &schedule_of(&failure.trace))
        .expect_err("replaying the failing schedule reproduces the verdict");
    assert_eq!(replayed.kind, FailureKind::Panic);
    assert!(
        replayed.message.contains("use after free"),
        "replay reproduces the UAF verdict, got: {}",
        replayed.message
    );
    assert_eq!(
        replayed.trace, failure.trace,
        "replay walks the identical pause-point trace"
    );
}

#[test]
fn explorer_convicts_slot_rotation_without_the_swap() {
    let scenario = fixture::rotation_scenario(false);
    let report = Explorer::new().explore(&scenario);
    let failure = report
        .failure
        .expect("a remove of the overwritten predecessor fits in the publish-to-validate window");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("use after free")
            && failure.message.contains("rotation_fixture::validate"),
        "expected the oracle to convict the predecessor's re-read, got: {}",
        failure.message
    );
    assert!(
        report.schedules > 1,
        "run-to-completion is clean; the bug needs a preemption"
    );
    println!("{failure}");

    let replayed = Explorer::new()
        .replay(&scenario, &schedule_of(&failure.trace))
        .expect_err("replaying the failing schedule reproduces the verdict");
    assert!(replayed.message.contains("use after free"));
    assert_eq!(replayed.trace, failure.trace);

    // The swap is the whole difference: same list, same threads, same scheme.
    Explorer::new()
        .explore(&fixture::rotation_scenario(true))
        .assert_exhaustive();
}

#[test]
fn explorer_convicts_a_batch_that_stores_its_upper_levels() {
    let scenario = fixture::batch_store_scenario();
    let report = Explorer::new().explore(&scenario);
    let failure = report
        .failure
        .expect("a store at level 1 after a remove's fence publishes the freed tower");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("use after free")
            && failure.message.contains("skiplist::traversal::validated"),
        "expected the oracle to convict a level-1 search, got: {}",
        failure.message
    );
    assert!(
        failure
            .trace
            .iter()
            .any(|step| step.point == "skiplist::batch::pre_upper_cas"),
        "the window is the batch's upper-level publication: {failure}"
    );
    println!("{failure}");

    let replayed = Explorer::new()
        .replay(&scenario, &schedule_of(&failure.trace))
        .expect_err("replaying the failing schedule reproduces the verdict");
    assert!(replayed.message.contains("use after free"));
    assert_eq!(replayed.trace, failure.trace);
}

/// A scenario with a *seeded* protocol violation: the thread retires a node,
/// forces reclamation, and then touches the node again. The oracle must
/// convict it on the schedule where the flush precedes the touch, naming the
/// node's address and state.
fn seeded_uaf_scenario() -> Scenario {
    Scenario::new("seeded-uaf/hp", || {
        ScenarioRun::new().thread(|| {
            let config = SmrConfig::default()
                .with_max_threads(2)
                .with_hp_per_thread(1)
                .with_scan_threshold(1);
            let scheme = hazard::Hazard::new(config);
            let mut handle = scheme.register();
            let node = Box::into_raw(Box::new(0u64));
            reclaim_core::oracle::register(node.cast(), std::mem::size_of::<u64>());
            // SAFETY: the node is unreachable (never published) and retired
            // exactly once — the *seeded* violation is the checkpoint below,
            // not the retire.
            unsafe {
                let size = std::mem::size_of::<u64>();
                handle.retire(RetiredPtr::new(
                    node.cast(),
                    drop_fn_for::<u64>(),
                    NO_BIRTH_ERA,
                    size,
                ))
            };
            handle.flush();
            // Seeded bug: the node is gone; any checkpointed access must panic.
            reclaim_core::oracle::check_protected(node.cast(), "seeded::use_after_flush");
        })
    })
}

#[test]
fn seeded_violation_names_the_node_and_replays() {
    let scenario = seeded_uaf_scenario();
    let report = Explorer::new().explore(&scenario);
    let failure = report
        .failure
        .expect("the seeded UAF fails on every schedule");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("use after free"),
        "verdict kind, got: {}",
        failure.message
    );
    assert!(
        failure.message.contains("node 0x"),
        "the verdict names the node address: {}",
        failure.message
    );
    assert!(
        failure.message.contains("seeded::use_after_flush"),
        "the verdict names the checkpoint: {}",
        failure.message
    );
    assert!(
        failure.message.contains("seeded-uaf/hp schedule #"),
        "the verdict carries the schedule context: {}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "the failure is a replayable schedule"
    );

    let replayed = Explorer::new()
        .replay(&scenario, &schedule_of(&failure.trace))
        .expect_err("replay reproduces the seeded verdict");
    assert!(replayed.message.contains("use after free"));
}
