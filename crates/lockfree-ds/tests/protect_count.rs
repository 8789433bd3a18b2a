//! Pins the number of protections a traversal publishes: one per node visited
//! (hand-over-hand slot rotation), not two (publish the cursor, then copy it
//! into the predecessor slot when stepping). The HP-family schemes pay a store
//! per protection and RC two locked read-modify-writes, so a traversal that
//! goes back to copying halves their throughput on the long walks without
//! failing any other test.

use lockfree_ds::{
    HarrisMichaelList, LockFreeHashMap, LockFreeSkipList, LIST_HP_SLOTS, MAX_HEIGHT,
    SKIPLIST_HP_SLOTS,
};
use reclaim_core::{
    CapacityExhausted, CoreToken, Era, HandleCore, Leaky, RetiredPtr, SchemeCore, Smr, SmrConfig,
    SmrHandle,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `Leaky`, counting the `protect` calls of all its handles.
struct Counting {
    inner: Arc<Leaky>,
    protects: Arc<AtomicU64>,
}

impl Counting {
    fn new(config: SmrConfig) -> Arc<Self> {
        Arc::new(Self {
            inner: Leaky::new(config),
            protects: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Protections published since the last call.
    fn take(&self) -> u64 {
        self.protects.swap(0, Ordering::Relaxed)
    }
}

impl Smr for Counting {
    type Handle = CountingHandle;

    fn try_register(self: &Arc<Self>) -> Result<CountingHandle, CapacityExhausted> {
        Ok(CountingHandle {
            inner: self.inner.try_register()?,
            protects: Arc::clone(&self.protects),
        })
    }

    fn core(&self) -> &SchemeCore {
        self.inner.core()
    }
}

struct CountingHandle {
    inner: <Leaky as Smr>::Handle,
    protects: Arc<AtomicU64>,
}

impl SmrHandle for CountingHandle {
    fn begin_op(&mut self) {
        self.inner.begin_op();
    }

    fn end_op(&mut self) {
        self.inner.end_op();
    }

    fn protect(&mut self, index: usize, ptr: *mut u8) {
        self.protects.fetch_add(1, Ordering::Relaxed);
        // Raw site: the wrapper forwards what the guard layer handed it.
        #[allow(clippy::disallowed_methods)]
        self.inner.protect(index, ptr);
    }

    fn clear_protections(&mut self) {
        self.inner.clear_protections();
    }

    fn alloc_node(&mut self) -> Era {
        self.inner.alloc_node()
    }

    unsafe fn retire(&mut self, node: RetiredPtr) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.inner.retire(node) }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn core(&self, token: CoreToken) -> &HandleCore {
        self.inner.core(token)
    }

    fn core_mut(&mut self, token: CoreToken) -> &mut HandleCore {
        self.inner.core_mut(token)
    }
}

/// Keys `0..N` in the structure; `contains(k)` visits the `k + 1` nodes
/// `0..=k`, and a key past the end visits all `N`.
const N: u64 = 200;

fn visited(key: u64) -> u64 {
    (key + 1).min(N)
}

/// Asserts that `op` on `key` published one protect per node visited. `+ 1`:
/// the null successor of the last node, when the walk runs off the end.
fn assert_one_per_node(smr: &Counting, op: &str, key: u64) {
    let protects = smr.take();
    assert!(
        (visited(key)..=visited(key) + 1).contains(&protects),
        "{op}({key}): {protects} protects for {} nodes visited",
        visited(key)
    );
}

#[test]
fn a_list_traversal_protects_each_visited_node_once() {
    let smr = Counting::new(SmrConfig::default().with_hp_per_thread(LIST_HP_SLOTS));
    let list = HarrisMichaelList::new(Arc::clone(&smr));
    let mut h = list.register();
    for key in 0..N {
        assert!(list.insert(key, &mut h));
    }
    smr.take();
    for key in [0, 1, N / 2, N - 1, N, N + 7] {
        assert_eq!(list.contains(&key, &mut h), key < N);
        assert_one_per_node(&smr, "contains", key);
    }
    assert_eq!(list.len(&mut h), N as usize);
    assert_eq!(
        smr.take(),
        N + 1,
        "len: every node once, and the final null"
    );
}

#[test]
fn a_hash_map_bucket_walk_protects_each_visited_node_once() {
    let smr = Counting::new(SmrConfig::default().with_hp_per_thread(LIST_HP_SLOTS));
    // One bucket: the walk is the list's.
    let map = LockFreeHashMap::with_buckets(Arc::clone(&smr), 1);
    let mut h = map.register();
    for key in 0..N {
        assert!(map.insert(key, key, &mut h));
    }
    smr.take();
    for key in [0, N / 2, N - 1, N + 7] {
        assert_eq!(map.get(&key, &mut h), (key < N).then_some(key));
        assert_one_per_node(&smr, "get", key);
    }
}

#[test]
fn list_and_hash_map_updates_protect_each_visited_node_once() {
    // Updates run the lookups' traversal: removing key `k` visits `0..=k`,
    // and putting it back visits `0..k` and stops on `k + 1`. A key past the
    // end is absent for the remove and appended by the insert.
    let smr = Counting::new(SmrConfig::default().with_hp_per_thread(LIST_HP_SLOTS));
    let list = HarrisMichaelList::new(Arc::clone(&smr));
    let map = LockFreeHashMap::with_buckets(Arc::clone(&smr), 1);
    let mut h = list.register();
    for key in 0..N {
        assert!(list.insert(key, &mut h));
        assert!(map.insert(key, key, &mut h));
    }
    smr.take();
    for key in [0, N / 2, N - 1, N + 7] {
        assert_eq!(list.remove(&key, &mut h), key < N);
        assert_one_per_node(&smr, "list remove", key);
        assert!(list.insert(key, &mut h));
        assert_one_per_node(&smr, "list insert", key);
        assert_eq!(map.remove(&key, &mut h), key < N);
        assert_one_per_node(&smr, "map remove", key);
        assert!(map.insert(key, key, &mut h));
        assert_one_per_node(&smr, "map insert", key);
        if key >= N {
            assert!(list.remove(&key, &mut h) && map.remove(&key, &mut h));
            smr.take();
        }
    }
}

#[test]
fn a_skip_list_operation_publishes_one_protect_per_node_visited() {
    // The benchmark's `skiplist_mixed` shape: 20 000 keys, half of them
    // present, 25 % inserts / 25 % removes / 50 % lookups. The copying
    // traversal measured 64–68 protects per operation on it, the rotating one
    // 33–34. Tower heights come from a per-thread stream with a fixed seed, so
    // on a thread of its own — a stream at its seed — the run is the same run
    // every time and the count is pinned, with half a protect of air for a
    // change that moves a boundary case. One search per update took it from
    // 33.11 to 28.22, one saved search at a time:
    // - insert links its upper levels from its phase-1 `find`: −3.32;
    // - a height-1 remove unlinks with one CAS, not a snipping `find`: −1.57.
    const KEY_RANGE: u64 = 20_000;
    const OPS: u64 = 20_000;
    const EXPECTED: f64 = 28.22;
    let per_op = std::thread::spawn(|| {
        let smr = Counting::new(SmrConfig::default().with_hp_per_thread(SKIPLIST_HP_SLOTS));
        let set = LockFreeSkipList::new(Arc::clone(&smr));
        let mut h = set.register();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut present = 0;
        while present < KEY_RANGE / 2 {
            present += u64::from(set.insert(next() % KEY_RANGE, &mut h));
        }
        smr.take();
        for _ in 0..OPS {
            let key = next() % KEY_RANGE;
            match next() % 4 {
                0 => drop(set.insert(key, &mut h)),
                1 => drop(set.remove(&key, &mut h)),
                _ => drop(set.contains(&key, &mut h)),
            }
        }
        smr.take() as f64 / OPS as f64
    })
    .join()
    .unwrap();
    assert!(
        (per_op - EXPECTED).abs() <= 0.5,
        "{per_op:.2} protects per skip-list operation (one search per update: ≈ 28, rotation: ≈ 33, copying: ≈ 65)"
    );
}

/// Half of `0..range`, distinct, in a fixed random order: the benchmark's
/// prefills.
fn prefill_keys(range: u64) -> Vec<u64> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut seen = std::collections::BTreeSet::new();
    let mut keys = Vec::new();
    while keys.len() < (range / 2) as usize {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (state >> 33) % range;
        if seen.insert(key) {
            keys.push(key);
        }
    }
    keys
}

/// Protections a batch of `keys` publishes, on the list and on the skip list
/// (on a thread of its own: a height stream at its seed), each holding
/// `present` beforehand. Every key is inserted.
fn batch_protects(keys: &[u64], present: Option<u64>) -> [u64; 2] {
    let n = keys.len();
    let smr = Counting::new(SmrConfig::default().with_hp_per_thread(LIST_HP_SLOTS));
    let list = HarrisMichaelList::new(Arc::clone(&smr));
    let mut h = list.register();
    if let Some(key) = present {
        assert!(list.insert(key, &mut h));
    }
    smr.take();
    assert_eq!(list.insert_batch(keys.iter().copied(), &mut h), n);
    let list_protects = smr.take();
    let keys = keys.to_vec();
    let skip_list_protects = std::thread::spawn(move || {
        let smr = Counting::new(SmrConfig::default().with_hp_per_thread(SKIPLIST_HP_SLOTS));
        let sl = LockFreeSkipList::new(Arc::clone(&smr));
        let mut h = sl.register();
        if let Some(key) = present {
            assert!(sl.insert(key, &mut h));
        }
        smr.take();
        assert_eq!(sl.insert_batch(keys, &mut h), n);
        smr.take()
    })
    .join()
    .unwrap();
    [list_protects, skip_list_protects]
}

#[test]
fn a_batch_into_an_empty_set_publishes_no_protection() {
    // The benchmark's prefills. The batch is built privately and published
    // with one CAS a level; no thread can reach a node before that, and the
    // batch reads none after it.
    for range in [2_000, 20_000] {
        assert_eq!(
            batch_protects(&prefill_keys(range), None),
            [0, 0],
            "{range}"
        );
    }
}

#[test]
fn a_batch_into_a_non_empty_set_publishes_one_search_at_the_head_per_key() {
    // A key above the batch's range is present, so the batch takes the
    // fallback: it links largest key first, and each search stops at the
    // head's first node — one protection a key on the list, and on the skip
    // list one per non-empty level plus one for the tower itself. A per-key
    // insert would walk to its key.
    let keys = prefill_keys(20_000);
    let n = keys.len() as u64;
    let [list, skip_list] = batch_protects(&keys, Some(20_000));
    println!("{n} keys: {list} protects on the list, {skip_list} on the skip list");
    assert_eq!(list, n, "one protection a key");
    assert!(
        skip_list <= n * (MAX_HEIGHT as u64 + 1),
        "{:.2} protections a key",
        skip_list as f64 / n as f64
    );
}
