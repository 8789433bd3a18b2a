//! What the root suites share: the matrix files' cell driver and the property
//! files' reference-model driver, each with its configuration. A suite uses
//! the half it needs.
#![allow(dead_code)]

use proptest::prelude::*;
use qsense_repro::bench::{default_bench_config, make_set, BenchSet, SchemeKind, Structure};
use qsense_repro::smr::SmrConfig;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Small thresholds so reclamation and (for QSense) path switching actually
/// happen within a short test run.
pub fn bench_config(threads: usize) -> SmrConfig {
    default_bench_config(threads + 2)
        .with_quiescence_threshold(16)
        .with_scan_threshold(32)
        .with_fallback_threshold(512)
        .with_rooster_interval(Duration::from_millis(1))
}

/// Runs a mixed workload on one (structure, scheme) cell and checks that the
/// final size matches the balance of successful inserts and removes reported
/// by the threads themselves, and the reclamation accounting.
pub fn stress_cell(structure: Structure, scheme: SchemeKind, threads: usize, ops: u64) {
    let set: Arc<dyn BenchSet> = make_set(structure, scheme, bench_config(threads));
    let balance = Arc::new(AtomicI64::new(0));

    thread::scope(|scope| {
        for t in 0..threads {
            let set = Arc::clone(&set);
            let balance = Arc::clone(&balance);
            scope.spawn(move || {
                let mut session = set.session();
                let mut state = 0x5bd1_e995_u64.wrapping_add(t as u64);
                let mut local: i64 = 0;
                for _ in 0..ops {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 512;
                    match state % 4 {
                        0 | 1 => {
                            session.contains(key);
                        }
                        2 => {
                            if session.insert(key) {
                                local += 1;
                            }
                        }
                        _ => {
                            if session.remove(key) {
                                local -= 1;
                            }
                        }
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
        "more successful removes than inserts is impossible"
    );
    assert_eq!(
        set.len() as i64,
        expected,
        "{structure:?}/{scheme:?}: final size must equal successful inserts - removes"
    );
    let stats = set.smr_stats();
    assert!(
        stats.freed <= stats.retired,
        "cannot free more than was retired"
    );
}

/// Thresholds small enough that a few hundred generated steps cross every one
/// of them; `.with_hp_per_thread(k)` for a structure built directly.
pub fn small_config() -> SmrConfig {
    default_bench_config(4)
        .with_quiescence_threshold(4)
        .with_scan_threshold(8)
        .with_fallback_threshold(64)
        .with_rooster_interval(Duration::from_millis(1))
}

/// One step of a generated set workload.
#[derive(Clone, Debug)]
pub enum SetStep {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

pub fn set_step(key_range: u64) -> impl Strategy<Value = SetStep> {
    prop_oneof![
        (0..key_range).prop_map(SetStep::Insert),
        (0..key_range).prop_map(SetStep::Remove),
        (0..key_range).prop_map(SetStep::Contains),
    ]
}

/// The reference-model driver: replays `steps` on one (structure, scheme)
/// cell and on a `BTreeSet`, and requires every answer and the final size to
/// agree.
pub fn check_set(
    structure: Structure,
    scheme: SchemeKind,
    steps: &[SetStep],
) -> Result<(), TestCaseError> {
    let set = make_set(structure, scheme, small_config());
    let mut session = set.session();
    let mut reference = BTreeSet::new();
    for step in steps {
        let (got, want) = match *step {
            SetStep::Insert(k) => (session.insert(k), reference.insert(k)),
            SetStep::Remove(k) => (session.remove(k), reference.remove(&k)),
            SetStep::Contains(k) => (session.contains(k), reference.contains(&k)),
        };
        prop_assert_eq!(
            got,
            want,
            "{:?}/{:?} {:?} answered {}, the reference {}",
            structure,
            scheme,
            step,
            got,
            want
        );
    }
    session.flush();
    drop(session);
    prop_assert_eq!(
        set.len(),
        reference.len(),
        "{:?}/{:?} final size",
        structure,
        scheme
    );
    Ok(())
}
