//! Property-based tests (proptest): the lock-free structures must behave exactly
//! like a reference `BTreeSet` on arbitrary operation sequences, under every
//! reclamation scheme; plus properties of the core reclamation invariants.

use proptest::prelude::*;
use qsense_repro::bench::{make_set, SchemeKind, Structure};
use qsense_repro::smr::SmrConfig;
use std::collections::BTreeSet;

/// One step of a generated workload.
#[derive(Clone, Debug)]
enum Step {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

fn step_strategy(key_range: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..key_range).prop_map(Step::Insert),
        (0..key_range).prop_map(Step::Remove),
        (0..key_range).prop_map(Step::Contains),
    ]
}

fn small_config() -> SmrConfig {
    qsense_repro::bench::default_bench_config(4)
        .with_quiescence_threshold(4)
        .with_scan_threshold(8)
        .with_fallback_threshold(64)
        .with_rooster_interval(std::time::Duration::from_millis(1))
}

fn check_against_reference(structure: Structure, scheme: SchemeKind, steps: &[Step]) {
    let set = make_set(structure, scheme, small_config());
    let mut session = set.session();
    let mut reference = BTreeSet::new();
    for step in steps {
        match *step {
            Step::Insert(k) => assert_eq!(
                session.insert(k),
                reference.insert(k),
                "{structure:?}/{scheme:?} insert({k}) diverged"
            ),
            Step::Remove(k) => assert_eq!(
                session.remove(k),
                reference.remove(&k),
                "{structure:?}/{scheme:?} remove({k}) diverged"
            ),
            Step::Contains(k) => assert_eq!(
                session.contains(k),
                reference.contains(&k),
                "{structure:?}/{scheme:?} contains({k}) diverged"
            ),
        }
    }
    drop(session);
    assert_eq!(
        set.len(),
        reference.len(),
        "{structure:?}/{scheme:?} final size"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    #[test]
    fn list_matches_btreeset_under_qsense(steps in prop::collection::vec(step_strategy(64), 1..400)) {
        check_against_reference(Structure::List, SchemeKind::QSense, &steps);
    }

    #[test]
    fn list_matches_btreeset_under_hp(steps in prop::collection::vec(step_strategy(64), 1..400)) {
        check_against_reference(Structure::List, SchemeKind::Hp, &steps);
    }

    #[test]
    fn list_matches_btreeset_under_hazard_eras(steps in prop::collection::vec(step_strategy(64), 1..400)) {
        check_against_reference(Structure::List, SchemeKind::He, &steps);
    }

    #[test]
    fn skiplist_matches_btreeset_under_qsense(steps in prop::collection::vec(step_strategy(64), 1..300)) {
        check_against_reference(Structure::SkipList, SchemeKind::QSense, &steps);
    }

    #[test]
    fn skiplist_matches_btreeset_under_hazard_eras(steps in prop::collection::vec(step_strategy(64), 1..300)) {
        check_against_reference(Structure::SkipList, SchemeKind::He, &steps);
    }

    #[test]
    fn skiplist_matches_btreeset_under_cadence(steps in prop::collection::vec(step_strategy(64), 1..300)) {
        check_against_reference(Structure::SkipList, SchemeKind::Cadence, &steps);
    }

    #[test]
    fn bst_matches_btreeset_under_qsense(steps in prop::collection::vec(step_strategy(64), 1..300)) {
        check_against_reference(Structure::Bst, SchemeKind::QSense, &steps);
    }

    #[test]
    fn bst_matches_btreeset_under_qsbr(steps in prop::collection::vec(step_strategy(64), 1..300)) {
        check_against_reference(Structure::Bst, SchemeKind::Qsbr, &steps);
    }

    /// Deferred-reclamation aging is monotonic: once a node is old enough it stays
    /// old enough as time advances, and it is never old enough before `min_age` has
    /// elapsed (Cadence's safety hinges on this, paper Algorithm 3 lines 36-39).
    #[test]
    fn is_old_enough_is_monotonic(retired_at in 0u64..1_000_000, min_age in 0u64..1_000_000, dt1 in 0u64..1_000_000, dt2 in 0u64..1_000_000) {
        use reclaim_core::RetiredPtr;
        let raw = Box::into_raw(Box::new(0u64));
        // SAFETY: reconstructs the box from the pointer this test leaked via Box::into_raw; it is dropped exactly once.
        #[allow(clippy::disallowed_methods)] // sanctioned: drop_fn thunk: the retire contract pairs this with Box::into_raw
        unsafe fn drop_u64(p: *mut u8) { unsafe { drop(Box::from_raw(p.cast::<u64>())) } }
        // SAFETY: the pointer was just produced by Box::into_raw and matches the drop function's type.
        let node = unsafe { RetiredPtr::new(raw.cast(), drop_u64, retired_at, 0, 0) };
        let early = retired_at.saturating_add(dt1.min(dt2));
        let late = retired_at.saturating_add(dt1.max(dt2));
        if node.is_old_enough(early, min_age) {
            prop_assert!(node.is_old_enough(late, min_age), "aging must be monotonic");
        }
        if late < retired_at.saturating_add(min_age) {
            prop_assert!(!node.is_old_enough(late, min_age), "never old before min_age");
        }
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { node.reclaim() };
    }

    /// The epoch-to-limbo-bucket mapping cycles with period 3 (three logical epochs).
    #[test]
    fn limbo_buckets_cycle_mod_three(epoch in 0u64..1_000_000) {
        prop_assert_eq!(qsbr::limbo_index(epoch), qsbr::limbo_index(epoch + 3));
        prop_assert!(qsbr::limbo_index(epoch) < 3);
        let all_different = qsbr::limbo_index(epoch) != qsbr::limbo_index(epoch + 1)
            && qsbr::limbo_index(epoch + 1) != qsbr::limbo_index(epoch + 2)
            && qsbr::limbo_index(epoch) != qsbr::limbo_index(epoch + 2);
        prop_assert!(all_different, "three consecutive epochs use three distinct buckets");
    }
}
