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

    /// Deferred-reclamation coverage is monotonic (the hazard-pointer family's
    /// one free rule hinges on this; paper Algorithm 3 lines 36-39 with the
    /// rooster's wake-up counted instead of timed): `covers(stamp)` never turns
    /// false, `covers(s)` implies `covers(s')` for every `s' < s`, and a stamp is
    /// covered exactly when a barrier issued after it was read has succeeded.
    #[test]
    fn barrier_ledger_coverage_is_monotonic(barriers in prop::collection::vec(any::<bool>(), 0..40)) {
        use qsense_repro::smr::{BarrierLedger, FenceStrategy};
        let ledger = BarrierLedger::new(FenceStrategy::Rooster, std::time::Duration::MAX);
        // `stamps[i]` was read after `i` barriers; `covered[i]`: as last seen.
        let mut stamps = vec![ledger.stamp()];
        let mut covered = vec![false];
        for (issued, &ran) in barriers.iter().enumerate() {
            // SAFETY: a single-threaded test, no sibling publishes.
            prop_assert_eq!(unsafe { ledger.issue(|| ran) }, ran);
            for (read_after, (&stamp, was)) in stamps.iter().zip(&mut covered).enumerate() {
                let now = ledger.covers(stamp);
                prop_assert!(now || !*was, "coverage of stamp {} turned false", stamp);
                let succeeded_since = barriers[read_after..=issued].iter().any(|&ran| ran);
                prop_assert_eq!(now, succeeded_since, "stamp {} after {} barriers", stamp, issued + 1);
                *was = now;
            }
            prop_assert!(covered.windows(2).all(|pair| pair[0] || !pair[1]), "covers(s) must imply covers(s') for s' < s: {:?}", covered);
            stamps.push(ledger.stamp());
            covered.push(false);
        }
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
