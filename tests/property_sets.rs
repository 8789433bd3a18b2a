//! Property-based tests (proptest): the lock-free structures must behave exactly
//! like a reference `BTreeSet` on arbitrary operation sequences, under every
//! reclamation scheme; plus properties of the core reclamation invariants.

mod common;

use common::{check_set, set_step};
use proptest::prelude::*;
use qsense_repro::bench::{SchemeKind, Structure};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    #[test]
    fn list_matches_btreeset_under_qsense(steps in prop::collection::vec(set_step(64), 1..400)) {
        check_set(Structure::List, SchemeKind::QSense, &steps)?;
    }

    #[test]
    fn list_matches_btreeset_under_hp(steps in prop::collection::vec(set_step(64), 1..400)) {
        check_set(Structure::List, SchemeKind::Hp, &steps)?;
    }

    #[test]
    fn list_matches_btreeset_under_hazard_eras(steps in prop::collection::vec(set_step(64), 1..400)) {
        check_set(Structure::List, SchemeKind::He, &steps)?;
    }

    #[test]
    fn skiplist_matches_btreeset_under_qsense(steps in prop::collection::vec(set_step(64), 1..300)) {
        check_set(Structure::SkipList, SchemeKind::QSense, &steps)?;
    }

    #[test]
    fn skiplist_matches_btreeset_under_hazard_eras(steps in prop::collection::vec(set_step(64), 1..300)) {
        check_set(Structure::SkipList, SchemeKind::He, &steps)?;
    }

    #[test]
    fn skiplist_matches_btreeset_under_cadence(steps in prop::collection::vec(set_step(64), 1..300)) {
        check_set(Structure::SkipList, SchemeKind::Cadence, &steps)?;
    }

    #[test]
    fn bst_matches_btreeset_under_qsense(steps in prop::collection::vec(set_step(64), 1..300)) {
        check_set(Structure::Bst, SchemeKind::QSense, &steps)?;
    }

    #[test]
    fn bst_matches_btreeset_under_qsbr(steps in prop::collection::vec(set_step(64), 1..300)) {
        check_set(Structure::Bst, SchemeKind::Qsbr, &steps)?;
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
