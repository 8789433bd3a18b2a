//! Property-based tests for the extension structures and baseline schemes: on
//! arbitrary operation sequences the hash map must behave like `BTreeMap`, the queue
//! like `VecDeque`, the stack like `Vec`, and the paper's structures must keep
//! behaving like `BTreeSet` under the two reclamation baselines this reproduction
//! adds (EBR, reference counting). The `*_on_every_scheme` cases replay one
//! generated sequence across all eight schemes, pinning the full
//! structure × scheme matrix now that every structure runs on the guard API.

mod common;

use common::{check_set, set_step};
use proptest::collection::vec;
use proptest::prelude::*;
use qsense_repro::bench::{SchemeKind, Structure};
use qsense_repro::ds::{
    LockFreeHashMap, MichaelScottQueue, TreiberStack, HASHMAP_HP_SLOTS, QUEUE_HP_SLOTS,
    STACK_HP_SLOTS,
};
use qsense_repro::smr::{
    Cadence, Ebr, Hazard, He, Leaky, QSense, Qsbr, RefCount, Smr, SmrConfig, SmrHandle,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The suites' small configuration, for a structure with `k` protection slots.
fn small_config(k: usize) -> SmrConfig {
    common::small_config().with_hp_per_thread(k)
}

/// One step of a generated map workload.
#[derive(Clone, Debug)]
enum MapStep {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Contains(u64),
}

fn map_step(key_range: u64) -> impl Strategy<Value = MapStep> {
    prop_oneof![
        ((0..key_range), any::<u64>()).prop_map(|(k, v)| MapStep::Insert(k, v)),
        (0..key_range).prop_map(MapStep::Remove),
        (0..key_range).prop_map(MapStep::Get),
        (0..key_range).prop_map(MapStep::Contains),
    ]
}

/// One step of a generated queue/stack workload.
#[derive(Clone, Debug)]
enum SeqStep {
    Push(u64),
    Pop,
}

fn seq_step() -> impl Strategy<Value = SeqStep> {
    prop_oneof![
        3 => any::<u64>().prop_map(SeqStep::Push),
        2 => Just(SeqStep::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hash_map_matches_btreemap(steps in vec(map_step(64), 1..400)) {
        let scheme = QSense::new(small_config(HASHMAP_HP_SLOTS));
        // A small bucket count forces chains so the list logic is exercised too.
        let map: LockFreeHashMap<u64, u64, QSense> =
            LockFreeHashMap::with_buckets(scheme, 8);
        let mut handle = map.register();
        let mut reference = BTreeMap::new();
        for step in &steps {
            match *step {
                MapStep::Insert(k, v) => {
                    let expect = !reference.contains_key(&k);
                    if expect {
                        reference.insert(k, v);
                    }
                    prop_assert_eq!(map.insert(k, v, &mut handle), expect);
                }
                MapStep::Remove(k) => {
                    prop_assert_eq!(map.remove(&k, &mut handle), reference.remove(&k).is_some());
                }
                MapStep::Get(k) => {
                    prop_assert_eq!(map.get(&k, &mut handle), reference.get(&k).copied());
                }
                MapStep::Contains(k) => {
                    prop_assert_eq!(map.contains_key(&k, &mut handle), reference.contains_key(&k));
                }
            }
        }
        prop_assert_eq!(map.len(), reference.len());
    }

    #[test]
    fn queue_matches_vecdeque(steps in vec(seq_step(), 1..400)) {
        let scheme = QSense::new(small_config(QUEUE_HP_SLOTS));
        let queue: MichaelScottQueue<u64, QSense> = MichaelScottQueue::new(scheme);
        let mut handle = queue.register();
        let mut reference: VecDeque<u64> = VecDeque::new();
        for step in &steps {
            match *step {
                SeqStep::Push(v) => {
                    queue.enqueue(v, &mut handle);
                    reference.push_back(v);
                }
                SeqStep::Pop => {
                    prop_assert_eq!(queue.dequeue(&mut handle), reference.pop_front());
                }
            }
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(queue.is_empty(), reference.is_empty());
        }
        // Drain and compare the tails element by element.
        while let Some(expected) = reference.pop_front() {
            prop_assert_eq!(queue.dequeue(&mut handle), Some(expected));
        }
        prop_assert_eq!(queue.dequeue(&mut handle), None);
    }

    #[test]
    fn stack_matches_vec(steps in vec(seq_step(), 1..400)) {
        let scheme = QSense::new(small_config(STACK_HP_SLOTS));
        let stack: TreiberStack<u64, QSense> = TreiberStack::new(scheme);
        let mut handle = stack.register();
        let mut reference: Vec<u64> = Vec::new();
        for step in &steps {
            match *step {
                SeqStep::Push(v) => {
                    stack.push(v, &mut handle);
                    reference.push(v);
                }
                SeqStep::Pop => {
                    prop_assert_eq!(stack.pop(&mut handle), reference.pop());
                }
            }
            prop_assert_eq!(stack.len(), reference.len());
        }
        while let Some(expected) = reference.pop() {
            prop_assert_eq!(stack.pop(&mut handle), Some(expected));
        }
        prop_assert_eq!(stack.pop(&mut handle), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sets_match_reference_under_ebr(steps in vec(set_step(48), 1..300)) {
        for structure in [Structure::List, Structure::HashMap] {
            check_set(structure, SchemeKind::Ebr, &steps)?;
        }
    }

    #[test]
    fn sets_match_reference_under_refcount(steps in vec(set_step(48), 1..300)) {
        for structure in [Structure::List, Structure::HashMap] {
            check_set(structure, SchemeKind::RefCount, &steps)?;
        }
    }
}

/// Replays one generated queue workload against `VecDeque` on a concrete scheme.
fn check_queue<S: Smr>(scheme: Arc<S>, steps: &[SeqStep]) -> Result<(), TestCaseError> {
    let queue: MichaelScottQueue<u64, S> = MichaelScottQueue::new(scheme);
    let mut handle = queue.register();
    let mut reference: VecDeque<u64> = VecDeque::new();
    for step in steps {
        match *step {
            SeqStep::Push(v) => {
                queue.enqueue(v, &mut handle);
                reference.push_back(v);
            }
            SeqStep::Pop => {
                prop_assert_eq!(queue.dequeue(&mut handle), reference.pop_front());
            }
        }
    }
    while let Some(expected) = reference.pop_front() {
        prop_assert_eq!(queue.dequeue(&mut handle), Some(expected));
    }
    prop_assert_eq!(queue.dequeue(&mut handle), None);
    handle.flush();
    Ok(())
}

/// Replays one generated stack workload against `Vec` on a concrete scheme.
fn check_stack<S: Smr>(scheme: Arc<S>, steps: &[SeqStep]) -> Result<(), TestCaseError> {
    let stack: TreiberStack<u64, S> = TreiberStack::new(scheme);
    let mut handle = stack.register();
    let mut reference: Vec<u64> = Vec::new();
    for step in steps {
        match *step {
            SeqStep::Push(v) => {
                stack.push(v, &mut handle);
                reference.push(v);
            }
            SeqStep::Pop => {
                prop_assert_eq!(stack.pop(&mut handle), reference.pop());
            }
        }
    }
    while let Some(expected) = reference.pop() {
        prop_assert_eq!(stack.pop(&mut handle), Some(expected));
    }
    prop_assert_eq!(stack.pop(&mut handle), None);
    handle.flush();
    Ok(())
}

proptest! {
    // One generated sequence is replayed on every scheme, so a handful of cases
    // already covers the full 8-scheme row of the matrix.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sets_match_reference_on_every_scheme(steps in vec(set_step(48), 1..150)) {
        for structure in [
            Structure::List,
            Structure::SkipList,
            Structure::Bst,
            Structure::HashMap,
        ] {
            for scheme in SchemeKind::extended() {
                check_set(structure, scheme, &steps)?;
            }
        }
    }

    #[test]
    fn queue_matches_vecdeque_on_every_scheme(steps in vec(seq_step(), 1..200)) {
        check_queue(Leaky::new(small_config(QUEUE_HP_SLOTS)), &steps)?;
        check_queue(Qsbr::new(small_config(QUEUE_HP_SLOTS)), &steps)?;
        check_queue(Hazard::new(small_config(QUEUE_HP_SLOTS)), &steps)?;
        check_queue(Cadence::new(small_config(QUEUE_HP_SLOTS)), &steps)?;
        check_queue(QSense::new(small_config(QUEUE_HP_SLOTS)), &steps)?;
        check_queue(Ebr::new(small_config(QUEUE_HP_SLOTS)), &steps)?;
        check_queue(He::new(small_config(QUEUE_HP_SLOTS)), &steps)?;
        check_queue(RefCount::new(small_config(QUEUE_HP_SLOTS)), &steps)?;
    }

    #[test]
    fn stack_matches_vec_on_every_scheme(steps in vec(seq_step(), 1..200)) {
        check_stack(Leaky::new(small_config(STACK_HP_SLOTS)), &steps)?;
        check_stack(Qsbr::new(small_config(STACK_HP_SLOTS)), &steps)?;
        check_stack(Hazard::new(small_config(STACK_HP_SLOTS)), &steps)?;
        check_stack(Cadence::new(small_config(STACK_HP_SLOTS)), &steps)?;
        check_stack(QSense::new(small_config(STACK_HP_SLOTS)), &steps)?;
        check_stack(Ebr::new(small_config(STACK_HP_SLOTS)), &steps)?;
        check_stack(He::new(small_config(STACK_HP_SLOTS)), &steps)?;
        check_stack(RefCount::new(small_config(STACK_HP_SLOTS)), &steps)?;
    }
}

/// Non-proptest sanity check kept here because it documents the Arc-sharing pattern
/// used throughout the examples: one scheme instance shared by several structures.
#[test]
fn one_scheme_instance_can_back_several_structures() {
    let scheme = QSense::new(small_config(HASHMAP_HP_SLOTS.max(QUEUE_HP_SLOTS)));
    let map: LockFreeHashMap<u64, u64, QSense> =
        LockFreeHashMap::with_buckets(Arc::clone(&scheme), 16);
    let queue: MichaelScottQueue<u64, QSense> = MichaelScottQueue::new(Arc::clone(&scheme));
    let mut map_handle = map.register();
    let mut queue_handle = queue.register();
    for i in 0..200_u64 {
        assert!(map.insert(i, i, &mut map_handle));
        queue.enqueue(i, &mut queue_handle);
    }
    for i in 0..200_u64 {
        assert!(map.remove(&i, &mut map_handle));
        assert_eq!(queue.dequeue(&mut queue_handle), Some(i));
    }
    map_handle.flush();
    queue_handle.flush();
    use qsense_repro::smr::Smr;
    let stats = Smr::stats(&*scheme);
    assert_eq!(
        stats.retired,
        200 + 200,
        "both structures retire through the same scheme"
    );
    assert!(stats.freed <= stats.retired);
}
