//! A counting global allocator for memory-footprint experiments.
//!
//! The paper's Figure 5 (bottom row) shows QSBR "running out of memory and
//! eventually failing" when a delayed thread prevents quiescence. Node counts (the
//! `in_limbo` statistic every scheme exposes) already demonstrate the growth; this
//! module makes the same observation in *bytes*, as the operating system would see
//! it, by wrapping the system allocator with live-byte and peak counters.
//!
//! Usage (in a binary — examples, benches or the CLI; libraries must never install a
//! global allocator):
//!
//! ```ignore
//! use workload::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! fn main() {
//!     // ... run the workload ...
//!     println!("live = {} B, peak = {} B", ALLOC.live_bytes(), ALLOC.peak_bytes());
//! }
//! ```
//!
//! The counters are plain relaxed atomics: they are diagnostics, never used for
//! synchronization, and the allocator itself adds two atomic additions per
//! allocation/deallocation — cheap enough to leave enabled in the examples.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A wrapper around the system allocator that tracks live and peak heap usage.
#[derive(Debug)]
pub struct CountingAllocator {
    allocated: AtomicU64,
    freed: AtomicU64,
    peak: AtomicU64,
}

impl CountingAllocator {
    /// Creates a counting allocator (const, so it can be a `#[global_allocator]`).
    pub const fn new() -> Self {
        Self {
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Total bytes ever allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Total bytes ever freed.
    pub(crate) fn freed_bytes(&self) -> u64 {
        self.freed.load(Ordering::Relaxed)
    }

    /// Bytes currently live (allocated minus freed).
    pub fn live_bytes(&self) -> u64 {
        self.allocated_bytes().saturating_sub(self.freed_bytes())
    }

    /// High-water mark of live bytes observed so far.
    ///
    /// The peak is maintained with a compare-exchange loop on every allocation, so
    /// it can lag the true instantaneous maximum by the size of allocations racing
    /// with the update — good enough for the footprint plots this crate needs.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn record_alloc(&self, bytes: u64) {
        // Saturating: a racing thread can allocate *and* free between our
        // `fetch_add` and the `freed` load, making the freed snapshot exceed
        // the allocated one — a wrapping subtraction would poison the peak
        // with a near-2^64 value forever.
        let live = (self.allocated.fetch_add(bytes, Ordering::Relaxed) + bytes)
            .saturating_sub(self.freed.load(Ordering::Relaxed));
        let mut peak = self.peak.load(Ordering::Relaxed);
        while live > peak {
            match self
                .peak
                .compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(observed) => peak = observed,
            }
        }
    }

    fn record_free(&self, bytes: u64) {
        self.freed.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: all methods delegate the actual allocation to the system allocator and
// only add monotonic counter updates around it, so the GlobalAlloc contract (valid
// pointers, correct layouts, no unwinding) is inherited from `System`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.record_free(layout.size() as u64);
        // SAFETY: forwarded verbatim; `ptr`/`layout` validity is the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; `ptr`/`layout` validity is the caller's contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            self.record_free(layout.size() as u64);
            self.record_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is exercised directly (not installed globally) so that the test
    // observes exactly its own traffic.
    #[test]
    fn counters_follow_alloc_and_dealloc() {
        let tracker = CountingAllocator::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: `layout` has non-zero size; the returned pointer is only used while the tracker lives.
        let ptr = unsafe { tracker.alloc(layout) };
        assert!(!ptr.is_null());
        assert_eq!(tracker.allocated_bytes(), 256);
        assert_eq!(tracker.live_bytes(), 256);
        assert_eq!(tracker.peak_bytes(), 256);
        // SAFETY: the pointer came from this tracker's `alloc` with the identical layout and is freed once.
        unsafe { tracker.dealloc(ptr, layout) };
        assert_eq!(tracker.freed_bytes(), 256);
        assert_eq!(tracker.live_bytes(), 0);
        assert_eq!(tracker.peak_bytes(), 256, "peak is a high-water mark");
    }

    #[test]
    fn realloc_moves_the_live_count_to_the_new_size() {
        let tracker = CountingAllocator::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: `layout` has non-zero size; the returned pointer is only used while the tracker lives.
        let ptr = unsafe { tracker.alloc(layout) };
        // SAFETY: `ptr` came from this tracker's `alloc` with `layout`, and the
        // new size is non-zero.
        let grown = unsafe { tracker.realloc(ptr, layout, 512) };
        assert!(!grown.is_null());
        assert_eq!(tracker.live_bytes(), 512);
        assert!(tracker.peak_bytes() >= 512);
        let grown_layout = Layout::from_size_align(512, 8).unwrap();
        // SAFETY: the pointer came from this tracker's `alloc` with the identical layout and is freed once.
        unsafe { tracker.dealloc(grown, grown_layout) };
        assert_eq!(tracker.live_bytes(), 0);
    }

    #[test]
    fn peak_tracks_the_largest_simultaneous_footprint() {
        let tracker = CountingAllocator::new();
        let layout = Layout::from_size_align(128, 8).unwrap();
        // SAFETY: `layout` has non-zero size; the returned pointer is only used while the tracker lives.
        let a = unsafe { tracker.alloc(layout) };
        // SAFETY: `layout` has non-zero size; the returned pointer is only used while the tracker lives.
        let b = unsafe { tracker.alloc(layout) };
        assert_eq!(tracker.peak_bytes(), 256);
        // SAFETY: the pointer came from this tracker's `alloc` with the identical layout and is freed once.
        unsafe { tracker.dealloc(a, layout) };
        // SAFETY: `layout` has non-zero size; the returned pointer is only used while the tracker lives.
        let c = unsafe { tracker.alloc(layout) };
        // Live never exceeded 256, so the peak must still be 256.
        assert_eq!(tracker.peak_bytes(), 256);
        // SAFETY: the pointer came from this tracker's `alloc` with the identical layout and is freed once.
        unsafe { tracker.dealloc(b, layout) };
        // SAFETY: the pointer came from this tracker's `alloc` with the identical layout and is freed once.
        unsafe { tracker.dealloc(c, layout) };
        assert_eq!(tracker.live_bytes(), 0);
    }

    #[test]
    fn stale_allocated_snapshot_cannot_poison_the_peak() {
        // Reproduces the cross-thread interleaving directly: another thread's
        // alloc+free lands entirely between this thread's `allocated` update
        // and its `freed` read, so the freed total exceeds the allocated
        // snapshot. The subtraction must saturate, not wrap the peak to ~2^64.
        let tracker = CountingAllocator::new();
        tracker.record_free(256);
        tracker.record_alloc(64);
        assert!(tracker.peak_bytes() <= 64, "peak must not wrap negative");
    }

    #[test]
    fn concurrent_traffic_balances_out() {
        use std::sync::Arc;
        use std::thread;
        let tracker = Arc::new(CountingAllocator::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let tracker = Arc::clone(&tracker);
                thread::spawn(move || {
                    let layout = Layout::from_size_align(32, 8).unwrap();
                    for _ in 0..1_000 {
                        // SAFETY: `layout` has non-zero size; the returned pointer is only used while the tracker lives.
                        let p = unsafe { tracker.alloc(layout) };
                        assert!(!p.is_null());
                        // SAFETY: the pointer came from this tracker's `alloc` with the identical layout and is freed once.
                        unsafe { tracker.dealloc(p, layout) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(tracker.live_bytes(), 0);
        assert_eq!(tracker.allocated_bytes(), 4 * 1_000 * 32);
    }
}
