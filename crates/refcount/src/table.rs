//! The shared reference-count table.
//!
//! The reference-counting techniques the paper cites ([9, 12, 15, 30]) keep a counter
//! *inside every node*. The data structures in this workspace are deliberately
//! scheme-agnostic (they traffic in type-erased pointers and know nothing about the
//! reclamation scheme's bookkeeping), so the per-node counter is replaced by a fixed
//! table of counters indexed by a hash of the node's address. The substitution is
//! conservative: two nodes whose addresses collide share a counter, which can only
//! *delay* reclamation (a node is freed only when its counter bucket is zero), never
//! make it unsafe. What the substitution preserves — and what matters for the paper's
//! argument that RC is expensive — is the cost profile: every node access performs an
//! atomic read-modify-write on shared memory.

use reclaim_core::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of counter buckets. Collisions only delay reclamation, so the table
/// does not need to be sized to the data structure; it needs to be large enough that
/// the handful of pointers simultaneously protected by the worker threads rarely
/// collide.
pub(crate) const DEFAULT_BUCKETS: usize = 1 << 14;

/// A table of shared reference counters indexed by pointer address.
#[derive(Debug)]
pub(crate) struct CountTable {
    buckets: Box<[CachePadded<AtomicU64>]>,
    mask: usize,
}

impl CountTable {
    /// Creates a table with `buckets` counters (rounded up to a power of two).
    pub fn new(buckets: usize) -> Self {
        let size = buckets.next_power_of_two().max(2);
        Self {
            buckets: (0..size)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            mask: size - 1,
        }
    }

    /// Maps a pointer to its bucket index (Fibonacci hashing on the address).
    #[inline]
    fn index(&self, ptr: *mut u8) -> usize {
        let addr = ptr as usize as u64;
        // Multiplicative hashing spreads the (aligned, clustered) heap addresses
        // across the table; the exact constant is 2^64 / phi.
        let hashed = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hashed >> 32) as usize & self.mask
    }

    /// Increments the counter covering `ptr` and returns the bucket index.
    ///
    /// The `SeqCst` read-modify-write is the point of the whole scheme: it both
    /// announces the reference *and* orders the announcement before the caller's
    /// subsequent validation load, playing the role the explicit fence plays in the
    /// classic hazard-pointer protocol (and costing roughly the same, which is why
    /// the paper's related work dismisses RC for read-mostly workloads).
    #[inline]
    pub(crate) fn acquire(&self, ptr: *mut u8) -> usize {
        let index = self.index(ptr);
        self.buckets[index].fetch_add(1, Ordering::SeqCst);
        index
    }

    /// Decrements the counter covering `ptr`.
    #[inline]
    pub(crate) fn release(&self, ptr: *mut u8) {
        let index = self.index(ptr);
        let previous = self.buckets[index].fetch_sub(1, Ordering::SeqCst);
        debug_assert!(previous > 0, "reference-count underflow");
    }

    /// Current count of the bucket covering `ptr`.
    #[inline]
    pub(crate) fn count(&self, ptr: *mut u8) -> u64 {
        self.buckets[self.index(ptr)].load(Ordering::SeqCst)
    }

    /// True if no thread currently announces a reference that hashes to `ptr`'s
    /// bucket. Collisions make this conservative: a `false` answer may be caused by a
    /// different pointer, which only delays reclamation.
    #[inline]
    pub(crate) fn is_unreferenced(&self, ptr: *mut u8) -> bool {
        self.count(ptr) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn acquire_release_round_trip() {
        let table = CountTable::new(64);
        let ptr = 0x1000 as *mut u8;
        assert!(table.is_unreferenced(ptr));
        table.acquire(ptr);
        assert_eq!(table.count(ptr), 1);
        assert!(!table.is_unreferenced(ptr));
        table.acquire(ptr);
        assert_eq!(table.count(ptr), 2);
        table.release(ptr);
        table.release(ptr);
        assert!(table.is_unreferenced(ptr));
    }

    #[test]
    fn table_size_is_a_power_of_two() {
        assert_eq!(CountTable::new(100).buckets.len(), 128);
        assert_eq!(CountTable::new(128).buckets.len(), 128);
        assert_eq!(CountTable::new(1).buckets.len(), 2);
    }

    #[test]
    fn distinct_pointers_usually_use_distinct_buckets() {
        let table = CountTable::new(DEFAULT_BUCKETS);
        // Heap-like addresses: 64-byte strides.
        let a = 0x7f00_0000_0000 as *mut u8;
        let b = 0x7f00_0000_0040 as *mut u8;
        table.acquire(a);
        // Whether or not they collide, the invariants hold; but with the default
        // table size these two must not collide (regression guard on the hash).
        assert!(table.is_unreferenced(b));
        table.release(a);
    }

    #[test]
    fn concurrent_acquires_and_releases_balance_out() {
        const ADDR: usize = 0xDEAD_B000;
        let table = Arc::new(CountTable::new(256));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    let ptr = ADDR as *mut u8;
                    for _ in 0..1_000 {
                        table.acquire(ptr);
                        table.release(ptr);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(table.is_unreferenced(ADDR as *mut u8));
    }
}
