//! Cross-crate stress tests: every data structure under every reclamation scheme,
//! hammered by several threads at once.
//!
//! These are the tests that would crash (use-after-free, double free) or deadlock if
//! the protection / retirement protocol of any (structure, scheme) pair were wrong,
//! and that would fail the final consistency check if operations were lost.

mod common;

use common::{bench_config, stress_cell};
use qsense_repro::bench::{make_set, BenchSet, SchemeKind, Structure};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;

/// 100%-churn workload for the FIFO/LIFO structures: every operation mutates
/// (enqueue/push or dequeue/pop — there is no membership test), which is the
/// natural workload for the queue and the stack and the hardest on reclamation:
/// every successful remove retires a node.
fn churn_cell(structure: Structure, scheme: SchemeKind, threads: usize, ops: u64) {
    let set: Arc<dyn BenchSet> = make_set(structure, scheme, bench_config(threads));
    let balance = Arc::new(AtomicI64::new(0));

    thread::scope(|scope| {
        for t in 0..threads {
            let set = Arc::clone(&set);
            let balance = Arc::clone(&balance);
            scope.spawn(move || {
                let mut session = set.session();
                let mut state = 0x9e37_79b9_u64.wrapping_add(t as u64);
                let mut local: i64 = 0;
                for _ in 0..ops {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let value = (state >> 33) % 512;
                    if state.is_multiple_of(2) {
                        if session.insert(value) {
                            local += 1;
                        }
                    } else if session.remove(value) {
                        local -= 1;
                    }
                }
                session.flush();
                balance.fetch_add(local, Ordering::SeqCst);
            });
        }
    });

    let expected = balance.load(Ordering::SeqCst);
    assert!(
        expected >= 0,
        "more successful pops than pushes is impossible"
    );
    assert_eq!(
        set.len() as i64,
        expected,
        "{structure:?}/{scheme:?}: final length must equal pushes - pops"
    );
    let stats = set.smr_stats();
    assert!(
        stats.freed <= stats.retired,
        "cannot free more than was retired"
    );
}

const OPS: u64 = 8_000;
const THREADS: usize = 4;

macro_rules! stress_test {
    ($name:ident, $structure:expr, $scheme:expr) => {
        #[test]
        fn $name() {
            stress_cell($structure, $scheme, THREADS, OPS);
        }
    };
}

macro_rules! churn_test {
    ($name:ident, $structure:expr, $scheme:expr) => {
        #[test]
        fn $name() {
            churn_cell($structure, $scheme, THREADS, OPS);
        }
    };
}

stress_test!(list_none, Structure::List, SchemeKind::None);
stress_test!(list_qsbr, Structure::List, SchemeKind::Qsbr);
stress_test!(list_hp, Structure::List, SchemeKind::Hp);
stress_test!(list_cadence, Structure::List, SchemeKind::Cadence);
stress_test!(list_qsense, Structure::List, SchemeKind::QSense);
stress_test!(list_he, Structure::List, SchemeKind::He);

stress_test!(skiplist_none, Structure::SkipList, SchemeKind::None);
stress_test!(skiplist_qsbr, Structure::SkipList, SchemeKind::Qsbr);
stress_test!(skiplist_hp, Structure::SkipList, SchemeKind::Hp);
stress_test!(skiplist_cadence, Structure::SkipList, SchemeKind::Cadence);
stress_test!(skiplist_qsense, Structure::SkipList, SchemeKind::QSense);
stress_test!(skiplist_he, Structure::SkipList, SchemeKind::He);

stress_test!(bst_none, Structure::Bst, SchemeKind::None);
stress_test!(bst_qsbr, Structure::Bst, SchemeKind::Qsbr);
stress_test!(bst_hp, Structure::Bst, SchemeKind::Hp);
stress_test!(bst_cadence, Structure::Bst, SchemeKind::Cadence);
stress_test!(bst_qsense, Structure::Bst, SchemeKind::QSense);
stress_test!(bst_he, Structure::Bst, SchemeKind::He);

churn_test!(queue_none, Structure::Queue, SchemeKind::None);
churn_test!(queue_qsbr, Structure::Queue, SchemeKind::Qsbr);
churn_test!(queue_hp, Structure::Queue, SchemeKind::Hp);
churn_test!(queue_cadence, Structure::Queue, SchemeKind::Cadence);
churn_test!(queue_qsense, Structure::Queue, SchemeKind::QSense);
churn_test!(queue_he, Structure::Queue, SchemeKind::He);

churn_test!(stack_none, Structure::Stack, SchemeKind::None);
churn_test!(stack_qsbr, Structure::Stack, SchemeKind::Qsbr);
churn_test!(stack_hp, Structure::Stack, SchemeKind::Hp);
churn_test!(stack_cadence, Structure::Stack, SchemeKind::Cadence);
churn_test!(stack_qsense, Structure::Stack, SchemeKind::QSense);
churn_test!(stack_he, Structure::Stack, SchemeKind::He);

/// A heavier run on the combination the paper features most prominently.
#[test]
fn list_qsense_heavier_stress() {
    stress_cell(Structure::List, SchemeKind::QSense, 6, 20_000);
}

/// High-contention same-key insert/remove storm over the skip list: every
/// thread hammers the *same* key, so remove's sweep + upper-level fence pass
/// and insert's validate-on-link CAS collide constantly — the workload whose
/// interleavings brush the (closed) upper-level re-link window hardest, with
/// equal-key nodes transiently coexisting at upper levels.
///
/// Reclamation accounting must stay exact through the storm:
/// * **no double retire** — every successful remove retires its victim exactly
///   once, so the schemes' retired counter equals the thread-reported number of
///   successful removes plus the final flush (nothing else retires);
/// * **retired ≥ freed** — nothing is freed that was not first retired.
fn skiplist_same_key_storm(scheme: SchemeKind) {
    const THREADS: usize = 6;
    const OPS: u64 = 12_000;
    let set: Arc<dyn BenchSet> = make_set(Structure::SkipList, scheme, bench_config(THREADS));
    let balance = Arc::new(AtomicI64::new(0));
    let removes = Arc::new(AtomicI64::new(0));

    thread::scope(|scope| {
        for t in 0..THREADS {
            let set = Arc::clone(&set);
            let balance = Arc::clone(&balance);
            let removes = Arc::clone(&removes);
            scope.spawn(move || {
                let mut session = set.session();
                let mut state = 0x94d0_49bb_u64.wrapping_add(t as u64);
                let mut local: i64 = 0;
                let mut local_removes: i64 = 0;
                for _ in 0..OPS {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // One single key: maximal same-key contention.
                    if state.is_multiple_of(2) {
                        if session.insert(7) {
                            local += 1;
                        }
                    } else if session.remove(7) {
                        local -= 1;
                        local_removes += 1;
                    }
                }
                session.flush();
                balance.fetch_add(local, Ordering::SeqCst);
                removes.fetch_add(local_removes, Ordering::SeqCst);
            });
        }
    });

    let expected = balance.load(Ordering::SeqCst);
    assert!(
        (0..=1).contains(&expected),
        "one key: net balance is 0 or 1"
    );
    assert_eq!(
        set.len() as i64,
        expected,
        "{scheme:?}: final size must equal successful inserts - removes"
    );
    let stats = set.smr_stats();
    assert!(
        stats.freed <= stats.retired,
        "{scheme:?}: cannot free more than was retired"
    );
    assert_eq!(
        stats.retired as i64,
        removes.load(Ordering::SeqCst),
        "{scheme:?}: exactly one retire per successful remove (no double retire, \
         no lost retire)"
    );
}

#[test]
fn skiplist_same_key_storm_hp() {
    skiplist_same_key_storm(SchemeKind::Hp);
}

#[test]
fn skiplist_same_key_storm_cadence() {
    skiplist_same_key_storm(SchemeKind::Cadence);
}

#[test]
fn skiplist_same_key_storm_qsense() {
    skiplist_same_key_storm(SchemeKind::QSense);
}

#[test]
fn skiplist_same_key_storm_he() {
    skiplist_same_key_storm(SchemeKind::He);
}

/// Disjoint key partitions: with no key contention, every insert and remove must
/// succeed, so the final contents are exactly predictable.
#[test]
fn partitioned_keys_are_never_lost() {
    for structure in [Structure::List, Structure::SkipList, Structure::Bst] {
        let set = make_set(structure, SchemeKind::QSense, bench_config(4));
        thread::scope(|scope| {
            for t in 0..4u64 {
                let set = Arc::clone(&set);
                scope.spawn(move || {
                    let mut session = set.session();
                    let base = t * 1_000;
                    for key in base..base + 500 {
                        assert!(
                            session.insert(key),
                            "{structure:?}: insert {key} must succeed"
                        );
                    }
                    for key in (base..base + 500).step_by(2) {
                        assert!(
                            session.remove(key),
                            "{structure:?}: remove {key} must succeed"
                        );
                    }
                });
            }
        });
        assert_eq!(set.len(), 4 * 250, "{structure:?}");
    }
}
