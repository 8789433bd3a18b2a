//! The size-unknown retire path is sealed: every structure, on every scheme,
//! retires exclusively through the sized, birth-era-stamped path.
//!
//! The guard layer (`reclaim_core::guard`) stamps the allocation size into every
//! retire ([`Unlinked::retire`] and [`Guard::retire_block`] both hand
//! `SmrHandle::retire` a `RetiredPtr` of non-zero size), and the schemes count any
//! retire that arrives without a size (`size_bytes == 0`) in
//! [`StatsSnapshot::size_unknown_retires`]. These tests churn each structure on
//! each of the eight schemes and pin that counter at zero — a regression here
//! means some call site bypassed the sized path and byte-denominated limbo
//! accounting silently under-reports.

use qsense_repro::ds::{
    HarrisMichaelList, LockFreeBst, LockFreeHashMap, LockFreeSkipList, MichaelScottQueue,
    TreiberStack, MAX_HEIGHT, SKIPLIST_HP_SLOTS,
};
use qsense_repro::smr::{
    Cadence, Ebr, Hazard, He, Leaky, QSense, Qsbr, RefCount, Smr, SmrConfig, SmrHandle,
};
use std::sync::Arc;

const KEYS: u64 = 200;

fn config() -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(4)
        // Large enough for every structure (the skip list is the max).
        .with_hp_per_thread(SKIPLIST_HP_SLOTS)
        .with_quiescence_threshold(8)
        .with_scan_threshold(16)
        .with_fallback_threshold(128)
        .with_rooster_interval(std::time::Duration::from_millis(1))
}

fn churn_list<S: Smr>(scheme: &Arc<S>) {
    let set = HarrisMichaelList::new(Arc::clone(scheme));
    let mut h = set.register();
    for k in 0..KEYS {
        set.insert(k, &mut h);
    }
    for k in 0..KEYS {
        set.remove(&k, &mut h);
    }
}

fn churn_skiplist<S: Smr>(scheme: &Arc<S>) {
    let set = LockFreeSkipList::new(Arc::clone(scheme));
    let mut h = set.register();
    for k in 0..KEYS {
        set.insert(k, &mut h);
    }
    for k in 0..KEYS {
        set.remove(&k, &mut h);
    }
}

fn churn_bst<S: Smr>(scheme: &Arc<S>) {
    let set = LockFreeBst::new(Arc::clone(scheme));
    let mut h = set.register();
    for k in 0..KEYS {
        set.insert(k, &mut h);
    }
    for k in 0..KEYS {
        set.remove(&k, &mut h);
    }
}

fn churn_hashmap<S: Smr>(scheme: &Arc<S>) {
    let map = LockFreeHashMap::with_buckets(Arc::clone(scheme), 64);
    let mut h = map.register();
    for k in 0..KEYS {
        map.insert(k, k, &mut h);
    }
    for k in 0..KEYS {
        map.remove(&k, &mut h);
    }
}

fn churn_stack<S: Smr>(scheme: &Arc<S>) {
    let stack = TreiberStack::new(Arc::clone(scheme));
    let mut h = stack.register();
    for k in 0..KEYS {
        stack.push(k, &mut h);
    }
    while stack.pop(&mut h).is_some() {}
}

fn churn_queue<S: Smr>(scheme: &Arc<S>) {
    let queue = MichaelScottQueue::new(Arc::clone(scheme));
    let mut h = queue.register();
    for k in 0..KEYS {
        queue.enqueue(k, &mut h);
    }
    while queue.dequeue(&mut h).is_some() {}
}

/// Churn all six structures on one scheme instance, then pin the counter.
macro_rules! seal_test {
    ($name:ident, $ctor:expr) => {
        #[test]
        fn $name() {
            let scheme = $ctor;
            churn_list(&scheme);
            churn_skiplist(&scheme);
            churn_bst(&scheme);
            churn_hashmap(&scheme);
            churn_stack(&scheme);
            churn_queue(&scheme);
            let stats = scheme.stats();
            assert!(
                stats.retired > 0,
                "the churn must actually exercise the retire path"
            );
            assert_eq!(
                stats.size_unknown_retires, 0,
                "every retire must flow through the sized path"
            );
        }
    };
}

seal_test!(sized_retires_only_under_leaky, Leaky::new(config()));
seal_test!(sized_retires_only_under_qsbr, Qsbr::new(config()));
seal_test!(sized_retires_only_under_hp, Hazard::new(config()));
seal_test!(sized_retires_only_under_cadence, Cadence::new(config()));
seal_test!(sized_retires_only_under_qsense, QSense::new(config()));
seal_test!(sized_retires_only_under_ebr, Ebr::new(config()));
seal_test!(sized_retires_only_under_he, He::new(config()));
seal_test!(sized_retires_only_under_refcount, RefCount::new(config()));

/// A skip-list tower is retired at its real size — a 32-byte header for `u64`
/// keys plus one 8-byte link a level — not at `MAX_HEIGHT` links whatever its
/// height, so byte budgets and `limbo_peak` follow the tower.
#[test]
fn skiplist_towers_retire_at_their_own_size() {
    let scheme = Qsbr::new(config());
    let set = LockFreeSkipList::new(Arc::clone(&scheme));
    let mut h = set.register();
    let heights = 1..=MAX_HEIGHT as u64;
    for height in heights.clone() {
        assert!(set.insert_with_height(height, height as usize, &mut h));
    }
    for key in heights.clone() {
        assert!(set.remove(&key, &mut h));
    }
    h.flush();
    let stats = scheme.stats();
    assert_eq!(stats.retired, MAX_HEIGHT as u64);
    assert_eq!(
        stats.retired_bytes,
        heights.map(|height| 32 + 8 * height).sum::<u64>()
    );
    assert_eq!(stats.freed_bytes, stats.retired_bytes, "flushed");
}

/// A raw retire of any size is only a size: `usize::MAX`, handed to a real
/// scheme's `SmrHandle::retire`, is booked as `u32::MAX` bytes (clamped, not
/// wrapped) and its `Box` is freed exactly once, by its own destructor.
#[test]
fn an_oversized_raw_retire_is_clamped_and_freed_once() {
    use reclaim_core::{drop_fn_for, RetiredPtr};
    use std::sync::atomic::{AtomicUsize, Ordering};
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    let scheme = Hazard::new(config());
    let mut handle = scheme.register();
    let node = Box::into_raw(Box::new(Counted(Arc::clone(&drops))));
    // SAFETY: fresh from Box::into_raw, never linked, retired once; the size
    // is only booked, never used to free.
    unsafe {
        let drop_fn = drop_fn_for::<Counted>();
        handle.retire(RetiredPtr::new(node.cast(), drop_fn, 0, usize::MAX));
    }
    handle.flush();
    let stats = scheme.stats();
    assert_eq!(stats.retired_bytes, u64::from(u32::MAX));
    assert_eq!((stats.retired, stats.freed), (1, 1));
    assert_eq!(stats.freed_bytes, u64::from(u32::MAX));
    assert_eq!(stats.cached_bytes, 0, "a Box never reaches the cache");
    drop((handle, scheme));
    assert_eq!(drops.load(Ordering::SeqCst), 1, "freed exactly once");
}
