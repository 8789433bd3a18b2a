//! Leak and double-free accounting across crates.
//!
//! Keys carry a drop counter, so every reclaimed node is observable: after a
//! structure and its reclamation scheme are dropped, the number of key drops must
//! equal the number of keys that ever entered a node (inserted nodes that are still
//! live are dropped by the structure's `Drop`, removed nodes by the scheme). A
//! double free would panic or over-count; a use-after-free would crash.
//!
//! The last test follows the *unreclaimed* side of the same books: what each
//! handle says it holds in limbo against what the scheme's counters say is in
//! limbo — which is, by definition, what the budget verdict reports — through
//! retire, flush, handle drop and adoption.

use qsense_repro::ds::{HarrisMichaelList, LockFreeBst, LockFreeSkipList};
use qsense_repro::smr::{
    retire_box, BarrierLedger, Cadence, Ebr, FenceStrategy, Hazard, He, Leaky, QSense, Qsbr,
    RefCount, Smr, SmrConfig, SmrHandle,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A key whose clones and drops are counted. Ordering ignores the counter handle.
#[derive(Clone)]
struct CountedKey {
    value: u64,
    drops: Arc<AtomicUsize>,
}

impl CountedKey {
    fn new(value: u64, drops: &Arc<AtomicUsize>) -> Self {
        Self {
            value,
            drops: Arc::clone(drops),
        }
    }
}

impl Drop for CountedKey {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

impl PartialEq for CountedKey {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}
impl Eq for CountedKey {}
impl PartialOrd for CountedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CountedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.value.cmp(&other.value)
    }
}

fn config() -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(8)
        .with_quiescence_threshold(8)
        .with_scan_threshold(16)
        .with_fallback_threshold(128)
        .with_rooster_interval(std::time::Duration::from_millis(1))
}

/// Every CountedKey that was moved into the list must be dropped exactly once by the
/// time both the structure and the scheme are gone.
macro_rules! accounting_test {
    ($name:ident, $scheme_ctor:expr) => {
        #[test]
        fn $name() {
            let drops = Arc::new(AtomicUsize::new(0));
            let keys_created = Arc::new(AtomicUsize::new(0));
            {
                let scheme = $scheme_ctor;
                let list = Arc::new(HarrisMichaelList::new(Arc::clone(&scheme)));
                thread::scope(|scope| {
                    for t in 0..4u64 {
                        let list = Arc::clone(&list);
                        let drops = Arc::clone(&drops);
                        let keys_created = Arc::clone(&keys_created);
                        scope.spawn(move || {
                            let mut handle = list.register();
                            let mut state = 0x1000_0000_u64 + t;
                            for _ in 0..3_000 {
                                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                                let value = (state >> 33) % 128;
                                let key = CountedKey::new(value, &drops);
                                keys_created.fetch_add(1, Ordering::SeqCst);
                                match state % 3 {
                                    0 => {
                                        // Keys that fail to insert are dropped by the
                                        // caller; keys that insert are dropped when
                                        // their node is reclaimed.
                                        list.insert(key, &mut handle);
                                    }
                                    1 => {
                                        list.remove(&key, &mut handle);
                                    }
                                    _ => {
                                        list.contains(&key, &mut handle);
                                    }
                                }
                            }
                        });
                    }
                });
                drop(list);
                drop(scheme);
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                keys_created.load(Ordering::SeqCst),
                "every key must be dropped exactly once after structure + scheme drop"
            );
        }
    };
}

// HP under the protocol this kernel selects, and under the paper's.
accounting_test!(list_accounting_under_hp, Hazard::new(config()));
accounting_test!(
    list_accounting_under_reader_fenced_hp,
    Hazard::with_fence_strategy(config(), FenceStrategy::ReaderFenced)
);
accounting_test!(list_accounting_under_qsbr, Qsbr::new(config()));
accounting_test!(list_accounting_under_cadence, Cadence::new(config()));
accounting_test!(list_accounting_under_qsense, QSense::new(config()));

/// The same accounting on the skip list and the BST under QSense (keys need Clone
/// for the BST's routing copies, which CountedKey provides — routing copies are
/// additional key instances and are counted as such).
#[test]
fn skiplist_accounting_under_qsense() {
    let drops = Arc::new(AtomicUsize::new(0));
    let created = Arc::new(AtomicUsize::new(0));
    {
        let scheme = QSense::new(config().with_hp_per_thread(qsense_repro::ds::SKIPLIST_HP_SLOTS));
        let set = Arc::new(LockFreeSkipList::new(Arc::clone(&scheme)));
        thread::scope(|scope| {
            for t in 0..4u64 {
                let set = Arc::clone(&set);
                let drops = Arc::clone(&drops);
                let created = Arc::clone(&created);
                scope.spawn(move || {
                    let mut handle = set.register();
                    let mut state = 0x2000_0000_u64 + t;
                    for _ in 0..2_000 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let value = (state >> 33) % 128;
                        let key = CountedKey::new(value, &drops);
                        created.fetch_add(1, Ordering::SeqCst);
                        if state.is_multiple_of(2) {
                            set.insert(key, &mut handle);
                        } else {
                            set.remove(&key, &mut handle);
                        }
                    }
                });
            }
        });
        drop(set);
        drop(scheme);
    }
    assert_eq!(drops.load(Ordering::SeqCst), created.load(Ordering::SeqCst));
}

#[test]
fn bst_accounting_is_exact_without_contention_and_safe_with_it() {
    // Uncontended phase: exact accounting.
    let drops = Arc::new(AtomicUsize::new(0));
    let created = Arc::new(AtomicUsize::new(0));
    {
        let scheme = QSense::new(config().with_hp_per_thread(qsense_repro::ds::BST_HP_SLOTS));
        let bst = LockFreeBst::new(Arc::clone(&scheme));
        let mut handle = bst.register();
        for value in 0..500u64 {
            // The BST clones keys into routing nodes; count every instance we create
            // and rely on Clone's counter sharing for the copies the tree makes.
            let key = CountedKey::new(value, &drops);
            created.fetch_add(1, Ordering::SeqCst);
            bst.insert(key, &mut handle);
        }
        for value in 0..500u64 {
            let probe = CountedKey::new(value, &drops);
            created.fetch_add(1, Ordering::SeqCst);
            bst.remove(&probe, &mut handle);
        }
        drop(handle);
        drop(bst);
        drop(scheme);
    }
    // Each created key is dropped once; clones made internally by the tree are also
    // dropped, so drops >= created. Nothing may remain undropped (leak) among the
    // instances we created: since clones only add to the count, the check is >=.
    assert!(drops.load(Ordering::SeqCst) >= created.load(Ordering::SeqCst));

    // Contended phase: must be crash-free and never free more than retired.
    let scheme = QSense::new(config().with_hp_per_thread(qsense_repro::ds::BST_HP_SLOTS));
    let bst = Arc::new(LockFreeBst::new(Arc::clone(&scheme)));
    thread::scope(|scope| {
        for t in 0..4u64 {
            let bst = Arc::clone(&bst);
            scope.spawn(move || {
                let mut handle = bst.register();
                let mut state = 0x3000_0000_u64 + t;
                for _ in 0..3_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 64;
                    if state.is_multiple_of(2) {
                        bst.insert(key, &mut handle);
                    } else {
                        bst.remove(&key, &mut handle);
                    }
                }
            });
        }
    });
    let stats = scheme.stats();
    assert!(stats.freed <= stats.retired);
}

/// A 1 KiB node that counts its own destruction.
struct FatNode(Arc<AtomicUsize>, #[allow(dead_code)] [u8; NODE_BYTES - 8]);
const NODE_BYTES: usize = 1024;

impl Drop for FatNode {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Nodes and bytes, as a pair.
type Totals = (u64, u64);

/// The conservation law at one step of the script: what the live handles'
/// ledgers hold plus what sits parked is what the scheme's counters say is
/// unreclaimed (`retired - freed`, kept independently of the ledgers). The
/// verdict's estimate *is* that figure, at every step, report or no report.
fn assert_conserved<S: Smr>(step: &str, scheme: &S, live: &[&S::Handle], parked: Totals) {
    let name = scheme.name();
    let stats = scheme.stats();
    let nodes = parked.0 + live.iter().map(|h| h.local_in_limbo() as u64).sum::<u64>();
    let bytes = parked.1
        + live
            .iter()
            .map(|h| h.local_limbo_bytes() as u64)
            .sum::<u64>();
    assert_eq!(nodes, stats.in_limbo(), "{name}, {step}: nodes");
    assert_eq!(bytes, stats.limbo_bytes(), "{name}, {step}: bytes");
    assert_eq!(nodes * NODE_BYTES as u64, bytes, "{name}, {step}");
    assert_eq!(
        scheme.budget_verdict().current_bytes,
        stats.limbo_bytes(),
        "{name}, {step}: the verdict's estimate"
    );
}

fn retire_nodes<H: SmrHandle>(handle: &mut H, nodes: &[*mut FatNode]) {
    for &node in nodes {
        handle.begin_op();
        // SAFETY: boxed by the caller, never linked anywhere, retired once.
        unsafe { retire_box(handle, node) };
        handle.end_op();
    }
}

/// Drops `handle` and moves what its final pass could not free to `parked`
/// (a dying handle may first adopt what was parked before it; all of it is
/// parked again).
fn drop_and_park<S: Smr>(scheme: &S, handle: S::Handle, parked: &mut Totals) {
    let before = scheme.stats();
    let held = (
        handle.local_in_limbo() as u64,
        handle.local_limbo_bytes() as u64,
    );
    drop(handle);
    let after = scheme.stats();
    parked.0 += held.0 - (after.freed - before.freed);
    parked.1 += held.1 - (after.freed_bytes - before.freed_bytes);
}

// Sanctioned raw-protocol site: the script pins nodes through the scheme's own
// `protect`, below the guard layer, to hold them in limbo on purpose.
#[allow(clippy::disallowed_methods)]
fn ledger_is_conserved<S: Smr>(new: impl FnOnce(SmrConfig) -> Arc<S>, age: impl Fn(&S)) {
    let drops = Arc::new(AtomicUsize::new(0));
    let fresh = |n: usize| -> Vec<*mut FatNode> {
        (0..n)
            .map(|_| Box::into_raw(Box::new(FatNode(Arc::clone(&drops), [0; NODE_BYTES - 8]))))
            .collect()
    };
    let scheme = new(SmrConfig::default()
        .with_max_threads(4)
        .with_hp_per_thread(2)
        .with_quiescence_threshold(4)
        .with_scan_threshold(8)
        .with_rooster_interval(Duration::MAX));
    let name = scheme.name();
    let mut parked: Totals = (0, 0);

    // A reader stalls mid-operation holding two nodes: the op pins everything
    // under QSBR, EBR and HE, the two protections pin those two under the
    // hazard-pointer family and RC.
    let mut reader = scheme.register();
    let mut a = scheme.register();
    let mut b = scheme.register();
    let a_nodes = fresh(10);
    reader.begin_op();
    reader.protect(0, a_nodes[0].cast());
    reader.protect(1, a_nodes[1].cast());

    retire_nodes(&mut a, &a_nodes);
    assert_conserved("a retired 10", &*scheme, &[&reader, &a, &b], parked);
    retire_nodes(&mut b, &fresh(6));
    assert_conserved("b retired 6", &*scheme, &[&reader, &a, &b], parked);

    age(&scheme); // Cadence's and QSense's deferred reclamation: a wake-up
    a.flush();
    assert_conserved("a flushed", &*scheme, &[&reader, &a, &b], parked);
    b.flush();
    assert_conserved("b flushed", &*scheme, &[&reader, &a, &b], parked);
    assert!(a.local_in_limbo() >= 2, "{name}: the reader pins two nodes");

    drop_and_park(&*scheme, a, &mut parked);
    assert!(parked.0 >= 2, "{name}: the pinned nodes were parked");
    assert_conserved("a dropped", &*scheme, &[&reader, &b], parked);

    let mut c = scheme.register();
    retire_nodes(&mut c, &fresh(3));
    assert_conserved("c retired 3", &*scheme, &[&reader, &b, &c], parked);
    age(&scheme);
    c.flush();
    // Every flush but the leaky baseline's (a no-op) adopts all that is parked.
    if name != "none" {
        assert!(
            c.local_in_limbo() as u64 >= parked.0,
            "{name}: adopted nodes enter the adopter's ledger"
        );
        parked = (0, 0);
    }
    assert_conserved("c adopted", &*scheme, &[&reader, &b, &c], parked);

    // The reader leaves; a few rounds let the epoch schemes advance.
    reader.clear_protections();
    reader.end_op();
    drop_and_park(&*scheme, reader, &mut parked);
    for _ in 0..4 {
        b.flush();
        c.flush();
    }
    assert_conserved("drained", &*scheme, &[&b, &c], parked);
    let left = if name == "none" { 19 } else { 0 };
    assert_eq!(scheme.stats().in_limbo(), left, "{name}: drained");

    drop_and_park(&*scheme, b, &mut parked);
    drop_and_park(&*scheme, c, &mut parked);
    assert_conserved("all handles gone", &*scheme, &[], parked);
    assert_eq!(scheme.budget_verdict().escalations(), 0, "{name}");
    drop(scheme);
    assert_eq!(drops.load(Ordering::SeqCst), 19, "{name}: nothing leaked");
}

#[test]
fn the_limbo_ledger_is_conserved_through_retire_flush_drop_and_adoption() {
    // SAFETY: the script runs on one thread; no sibling's store buffer holds a
    // publication for a barrier to drain.
    let tick = |ledger: &BarrierLedger| assert!(unsafe { ledger.issue(|| true) });
    ledger_is_conserved(Leaky::new, |_| ());
    ledger_is_conserved(Qsbr::new, |_| ());
    ledger_is_conserved(Ebr::new, |_| ());
    ledger_is_conserved(He::new, |_| ());
    ledger_is_conserved(Hazard::new, |_| ());
    ledger_is_conserved(
        |config| Hazard::with_fence_strategy(config, FenceStrategy::ReaderFenced),
        |_| (),
    );
    for strategy in [FenceStrategy::Rooster, FenceStrategy::ReaderFenced] {
        ledger_is_conserved(
            |config| Cadence::with_fence_strategy(config, strategy),
            |scheme| tick(scheme.ledger()),
        );
        ledger_is_conserved(
            |config| QSense::with_fence_strategy(config, strategy),
            |scheme| tick(scheme.ledger()),
        );
    }
    ledger_is_conserved(RefCount::new, |_| ());
}
