//! Cross-crate stress tests for the extension structures and the related-work
//! baseline schemes: the hash map, queue and stack under every implemented scheme
//! via the `BenchSet` matrix (the queue and stack map insert/remove to
//! enqueue+dequeue / push+pop and serve `contains` with an emptiness probe), plus
//! direct element-conservation tests on the queue and stack under the schemes
//! that exercise protection the hardest.
//!
//! Like `stress_matrix.rs`, these tests fail by crashing (use-after-free, double
//! free) if any protection/retirement protocol is wrong, and fail assertions if
//! elements are lost, duplicated or leaked.

mod common;

use common::{bench_config, stress_cell};
use qsense_repro::bench::{make_set, SchemeKind, Structure};
use qsense_repro::ds::{MichaelScottQueue, TreiberStack, QUEUE_HP_SLOTS, STACK_HP_SLOTS};
use qsense_repro::smr::{Ebr, Hazard, He, QSense, Smr, SmrConfig, SmrHandle};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

#[test]
fn hash_map_survives_every_scheme() {
    for scheme in SchemeKind::extended() {
        stress_cell(Structure::HashMap, scheme, 3, 3_000);
    }
}

#[test]
fn queue_and_stack_survive_every_scheme() {
    for structure in [Structure::Queue, Structure::Stack] {
        for scheme in SchemeKind::extended() {
            stress_cell(structure, scheme, 3, 3_000);
        }
    }
}

#[test]
fn paper_structures_survive_the_new_baseline_schemes() {
    // The original stress matrix covers the paper's schemes; this covers the
    // baselines added by the reproduction (EBR, reference counting) and the
    // Hazard-Eras extension on the paper's structures.
    for structure in [Structure::List, Structure::SkipList, Structure::Bst] {
        for scheme in [SchemeKind::Ebr, SchemeKind::RefCount, SchemeKind::He] {
            stress_cell(structure, scheme, 3, 2_000);
        }
    }
}

/// Producer/consumer stress on the queue: every enqueued element is dequeued exactly
/// once, under a scheme that actually reclaims the dummies while the test runs.
fn queue_conservation<S: Smr>(scheme: Arc<S>) {
    const PRODUCERS: u64 = 2;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: u64 = 4_000;
    let queue = Arc::new(MichaelScottQueue::<u64, S>::new(Arc::clone(&scheme)));
    let consumed: Vec<u64> = thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                let mut handle = queue.register();
                for i in 0..PER_PRODUCER {
                    queue.enqueue(p * PER_PRODUCER + i, &mut handle);
                }
            });
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let queue = Arc::clone(&queue);
                scope.spawn(move || {
                    let mut handle = queue.register();
                    let mut got = Vec::new();
                    let mut idle = 0;
                    while idle < 2_000 {
                        match queue.dequeue(&mut handle) {
                            Some(v) => {
                                got.push(v);
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                thread::yield_now();
                            }
                        }
                    }
                    handle.flush();
                    got
                })
            })
            .collect();
        consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    // Drain stragglers the consumers gave up on.
    let mut handle = queue.register();
    let mut all = consumed;
    while let Some(v) = queue.dequeue(&mut handle) {
        all.push(v);
    }
    handle.flush();
    assert_eq!(
        all.len() as u64,
        PRODUCERS * PER_PRODUCER,
        "every element exactly once"
    );
    let unique: HashSet<u64> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "no element may be duplicated");
    let stats = scheme.stats();
    assert_eq!(
        stats.retired,
        PRODUCERS * PER_PRODUCER,
        "one dummy retired per dequeue"
    );
    assert!(stats.freed <= stats.retired);
}

#[test]
fn queue_conserves_elements_under_qsense() {
    queue_conservation(QSense::new(
        SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(QUEUE_HP_SLOTS)
            .with_quiescence_threshold(8)
            .with_scan_threshold(16)
            .with_fallback_threshold(256)
            .with_rooster_interval(std::time::Duration::from_millis(1)),
    ));
}

#[test]
fn queue_conserves_elements_under_classic_hazard_pointers() {
    queue_conservation(Hazard::new(
        SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(QUEUE_HP_SLOTS)
            .with_scan_threshold(16),
    ));
}

#[test]
fn queue_conserves_elements_under_ebr() {
    queue_conservation(Ebr::new(
        SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(QUEUE_HP_SLOTS)
            .with_scan_threshold(16),
    ));
}

#[test]
fn queue_conserves_elements_under_hazard_eras() {
    queue_conservation(He::new(
        SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(QUEUE_HP_SLOTS)
            .with_scan_threshold(16),
    ));
}

/// Push/pop stress on the stack: element conservation plus reclamation accounting.
fn stack_conservation<S: Smr>(scheme: Arc<S>) {
    const PUSHERS: u64 = 2;
    const POPPERS: usize = 2;
    const PER_PUSHER: u64 = 4_000;
    let stack = Arc::new(TreiberStack::<u64, S>::new(Arc::clone(&scheme)));
    let popped: Vec<u64> = thread::scope(|scope| {
        for p in 0..PUSHERS {
            let stack = Arc::clone(&stack);
            scope.spawn(move || {
                let mut handle = stack.register();
                for i in 0..PER_PUSHER {
                    stack.push(p * PER_PUSHER + i, &mut handle);
                }
            });
        }
        let poppers: Vec<_> = (0..POPPERS)
            .map(|_| {
                let stack = Arc::clone(&stack);
                scope.spawn(move || {
                    let mut handle = stack.register();
                    let mut got = Vec::new();
                    let mut idle = 0;
                    while idle < 2_000 {
                        match stack.pop(&mut handle) {
                            Some(v) => {
                                got.push(v);
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                thread::yield_now();
                            }
                        }
                    }
                    handle.flush();
                    got
                })
            })
            .collect();
        poppers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    let mut handle = stack.register();
    let mut all = popped;
    while let Some(v) = stack.pop(&mut handle) {
        all.push(v);
    }
    handle.flush();
    assert_eq!(all.len() as u64, PUSHERS * PER_PUSHER);
    let unique: HashSet<u64> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "no element may be duplicated");
    assert!(stack.is_empty());
    let stats = scheme.stats();
    assert_eq!(
        stats.retired,
        PUSHERS * PER_PUSHER,
        "one node retired per pop"
    );
    assert!(stats.freed <= stats.retired);
}

#[test]
fn stack_conserves_elements_under_qsense() {
    stack_conservation(QSense::new(
        SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(STACK_HP_SLOTS)
            .with_quiescence_threshold(8)
            .with_scan_threshold(16)
            .with_fallback_threshold(256)
            .with_rooster_interval(std::time::Duration::from_millis(1)),
    ));
}

#[test]
fn stack_conserves_elements_under_classic_hazard_pointers() {
    stack_conservation(Hazard::new(
        SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(STACK_HP_SLOTS)
            .with_scan_threshold(16),
    ));
}

#[test]
fn stack_conserves_elements_under_hazard_eras() {
    stack_conservation(He::new(
        SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(STACK_HP_SLOTS)
            .with_scan_threshold(16),
    ));
}

#[test]
fn stack_conserves_elements_under_refcount() {
    stack_conservation(qsense_repro::smr::RefCount::new(
        SmrConfig::default()
            .with_max_threads(8)
            .with_hp_per_thread(STACK_HP_SLOTS)
            .with_scan_threshold(16),
    ));
}

#[test]
fn everything_is_reclaimed_once_structure_and_scheme_are_dropped() {
    // Leak accounting across the whole extended matrix: after dropping the structure
    // and the scheme, every retired node must have been freed.
    for scheme_kind in SchemeKind::extended() {
        let stats_after = {
            let set = make_set(Structure::HashMap, scheme_kind, bench_config(2));
            let mut session = set.session();
            for key in 0..500_u64 {
                session.insert(key);
            }
            for key in 0..500_u64 {
                session.remove(key);
            }
            session.flush();
            drop(session);
            let stats = set.smr_stats();
            drop(set);
            stats
        };
        // `None` (leaky) frees nothing by design; every real scheme must not leak
        // within the structure's and scheme's lifetime (the scheme frees parked
        // leftovers when it drops, which has already happened here, so the snapshot
        // taken just before the drop only needs freed ≤ retired; the stronger
        // equality is checked by reclamation_accounting.rs for the paper's matrix).
        assert!(
            stats_after.freed <= stats_after.retired,
            "{scheme_kind:?}: freed more than retired"
        );
        if scheme_kind != SchemeKind::None {
            assert_eq!(
                stats_after.retired, 500,
                "{scheme_kind:?}: every remove retires once"
            );
        }
    }
}
