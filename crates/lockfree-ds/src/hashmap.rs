//! Lock-free hash map (Michael's bucket-array of lock-free lists), generic over the
//! reclamation scheme.
//!
//! Michael's SPAA 2002 paper \[24\] — the source of the linked list the QSense paper
//! evaluates — presents its list-based set precisely as the building block of a
//! high-performance hash table: an array of buckets, each an independent lock-free
//! ordered list. This module implements that hash table as a key → value map so
//! that the applicability claim of §4.2 ("QSense can be used with any data structure
//! for which hazard pointers are applicable") is demonstrated on the structure the
//! original hazard-pointer work actually targeted.
//!
//! Every bucket is the list's own chain ([`crate::list`]), so the map runs the
//! list's code: its traversal, pause points and oracle checkpoints, two
//! protection slots per thread (`K = 2` regardless of the number of buckets), and
//! retirement only through the [`reclaim_core::Unlinked`] capability minted by the
//! unlink CAS. The map adds the bucket array, the hasher and a size counter.

use crate::list::Chain;
use reclaim_core::{Guard, Smr};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of protection slots the hash map needs per thread (`K` in the paper).
pub const HASHMAP_HP_SLOTS: usize = 2;

/// Default number of buckets (Michael's evaluation uses a load factor close to one;
/// the default here keeps per-bucket chains short for the examples and benchmarks).
pub const DEFAULT_HASH_BUCKETS: usize = 1 << 12;

/// A lock-free hash map: a fixed array of buckets, each an independent Harris–Michael
/// ordered list.
pub struct LockFreeHashMap<K, V, S: Smr> {
    buckets: Box<[Chain<K, V>]>,
    hasher: BuildHasherDefault<DefaultHasher>,
    /// Element count maintained on successful insert/remove.
    size: AtomicUsize,
    smr: Arc<S>,
}

// SAFETY: shared concurrent structure; all mutation happens through atomics and the
// SMR protocol. K and V must be Send + Sync because nodes are dropped by whichever
// thread reclaims them and values are read (cloned) by any reader.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Smr> Send for LockFreeHashMap<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S: Smr> Sync for LockFreeHashMap<K, V, S> {}

impl<K, V, S> LockFreeHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    S: Smr,
{
    /// Creates an empty map with the default bucket count.
    pub fn new(smr: Arc<S>) -> Self {
        Self::with_buckets(smr, DEFAULT_HASH_BUCKETS)
    }

    /// Creates an empty map with `buckets` buckets (rounded up to a power of two).
    pub fn with_buckets(smr: Arc<S>, buckets: usize) -> Self {
        let count = buckets.next_power_of_two().max(1);
        Self {
            buckets: (0..count).map(|_| Chain::new()).collect(),
            hasher: BuildHasherDefault::default(),
            size: AtomicUsize::new(0),
            smr,
        }
    }

    /// The reclamation scheme this map was created with.
    pub fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread with the underlying reclamation scheme.
    pub fn register(&self) -> S::Handle {
        self.smr.register()
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of key-value pairs currently in the map (maintained counter).
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bucket(&self, key: &K) -> &Chain<K, V> {
        let index = (self.hasher.hash_one(key) as usize) & (self.buckets.len() - 1);
        &self.buckets[index]
    }

    /// True if `key` has an entry in the map.
    pub fn contains_key(&self, key: &K, handle: &mut S::Handle) -> bool {
        self.bucket(key).get(key, &Guard::new(handle)).is_some()
    }

    /// Inserts `key → value`; returns false (and drops `value`) if the key is
    /// already present. Matching the set semantics of the paper's structures, an
    /// existing entry is *not* replaced.
    pub fn insert(&self, key: K, value: V, handle: &mut S::Handle) -> bool {
        let inserted = self.bucket(&key).insert(key, value, &Guard::new(handle));
        if inserted {
            self.size.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }

    /// Removes `key`'s entry; returns false if it was not present.
    pub fn remove(&self, key: &K, handle: &mut S::Handle) -> bool {
        let removed = self.bucket(key).remove(key, &Guard::new(handle));
        if removed {
            self.size.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }
}

impl<K, V, S> LockFreeHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr,
{
    /// Returns a clone of the value stored under `key`, if any.
    ///
    /// The clone happens while the node is protected, so the read is safe even if a
    /// concurrent `remove` retires the node immediately afterwards.
    pub fn get(&self, key: &K, handle: &mut S::Handle) -> Option<V> {
        self.bucket(key).get(key, &Guard::new(handle)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::Leaky;
    use std::collections::BTreeMap;
    use std::thread;

    fn leaky_map<K, V>() -> LockFreeHashMap<K, V, Leaky>
    where
        K: Ord + Hash + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        LockFreeHashMap::with_buckets(Leaky::with_defaults(), 64)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let map = leaky_map();
        let mut h = map.register();
        assert!(map.is_empty());
        assert!(map.insert(7_u64, "seven", &mut h));
        assert!(
            !map.insert(7, "SEVEN", &mut h),
            "no replace on duplicate insert"
        );
        assert_eq!(map.get(&7, &mut h), Some("seven"));
        assert!(map.contains_key(&7, &mut h));
        assert_eq!(map.get(&8, &mut h), None);
        assert!(map.remove(&7, &mut h));
        assert!(!map.remove(&7, &mut h));
        assert_eq!(map.get(&7, &mut h), None);
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn keys_that_share_a_bucket_coexist() {
        // A single-bucket map forces every key into one chain: the ordered-list
        // logic must still keep them all.
        let map: LockFreeHashMap<u64, u64, Leaky> =
            LockFreeHashMap::with_buckets(Leaky::with_defaults(), 1);
        let mut h = map.register();
        for key in 0..100_u64 {
            assert!(map.insert(key, key * 10, &mut h));
        }
        assert_eq!(map.len(), 100);
        for key in 0..100_u64 {
            assert_eq!(map.get(&key, &mut h), Some(key * 10));
        }
        for key in (0..100_u64).step_by(2) {
            assert!(map.remove(&key, &mut h));
        }
        assert_eq!(map.len(), 50);
        for key in 0..100_u64 {
            assert_eq!(map.contains_key(&key, &mut h), key % 2 == 1);
        }
    }

    #[test]
    fn matches_reference_map_on_mixed_operations() {
        let map = leaky_map();
        let mut h = map.register();
        let mut reference = BTreeMap::new();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..4_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 128;
            match state % 3 {
                0 => {
                    let expect = !reference.contains_key(&key);
                    if expect {
                        reference.insert(key, key + 1);
                    }
                    assert_eq!(map.insert(key, key + 1, &mut h), expect);
                }
                1 => assert_eq!(map.remove(&key, &mut h), reference.remove(&key).is_some()),
                _ => assert_eq!(map.get(&key, &mut h), reference.get(&key).copied()),
            }
        }
        assert_eq!(map.len(), reference.len());
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let map: LockFreeHashMap<u64, u64, Leaky> =
            LockFreeHashMap::with_buckets(Leaky::with_defaults(), 100);
        assert_eq!(map.bucket_count(), 128);
    }

    #[test]
    fn string_keys_and_values_work() {
        let map: LockFreeHashMap<String, String, Leaky> = leaky_map();
        let mut h = map.register();
        assert!(map.insert("user:1".into(), "alice".into(), &mut h));
        assert!(map.insert("user:2".into(), "bob".into(), &mut h));
        assert_eq!(
            map.get(&"user:1".to_string(), &mut h).as_deref(),
            Some("alice")
        );
        assert!(map.remove(&"user:2".to_string(), &mut h));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn concurrent_disjoint_writers_keep_all_their_entries() {
        let map = Arc::new(LockFreeHashMap::<u64, u64, qsense::QSense>::with_buckets(
            qsense::QSense::new(
                reclaim_core::SmrConfig::default()
                    .with_max_threads(8)
                    .with_hp_per_thread(HASHMAP_HP_SLOTS),
            ),
            256,
        ));
        thread::scope(|scope| {
            for t in 0..4_u64 {
                let map = Arc::clone(&map);
                scope.spawn(move || {
                    let mut h = map.register();
                    for i in 0..1_000_u64 {
                        let key = t * 10_000 + i;
                        assert!(map.insert(key, key, &mut h));
                    }
                    // Remove half of what this thread inserted.
                    for i in (0..1_000_u64).step_by(2) {
                        assert!(map.remove(&(t * 10_000 + i), &mut h));
                    }
                });
            }
        });
        let mut h = map.register();
        assert_eq!(map.len(), 4 * 500);
        for t in 0..4_u64 {
            for i in 0..1_000_u64 {
                let key = t * 10_000 + i;
                assert_eq!(map.contains_key(&key, &mut h), i % 2 == 1, "key {key}");
            }
        }
    }

    #[test]
    fn concurrent_contending_writers_agree_on_winners() {
        // All threads fight over the same small key space; the number of successful
        // inserts minus successful removes must equal the final size.
        use std::sync::atomic::{AtomicI64, Ordering as AOrd};
        let map = Arc::new(LockFreeHashMap::<u64, u64, qsense::QSense>::with_buckets(
            qsense::QSense::new(
                reclaim_core::SmrConfig::default()
                    .with_max_threads(8)
                    .with_hp_per_thread(HASHMAP_HP_SLOTS),
            ),
            16,
        ));
        let balance = Arc::new(AtomicI64::new(0));
        thread::scope(|scope| {
            for t in 0..4_u64 {
                let map = Arc::clone(&map);
                let balance = Arc::clone(&balance);
                scope.spawn(move || {
                    let mut h = map.register();
                    let mut state = 0x1234_5678_9ABC_DEF0_u64 ^ (t << 32);
                    for _ in 0..5_000 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let key = (state >> 33) % 32;
                        if state.is_multiple_of(2) {
                            if map.insert(key, key, &mut h) {
                                balance.fetch_add(1, AOrd::SeqCst);
                            }
                        } else if map.remove(&key, &mut h) {
                            balance.fetch_sub(1, AOrd::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(
            map.len() as i64,
            balance.load(std::sync::atomic::Ordering::SeqCst)
        );
    }
}
