//! Retired-node bookkeeping.
//!
//! When a data structure unlinks a node it hands the node to the reclamation scheme
//! via `retire` (the paper's `free_node_later`). The scheme must hold on to the node —
//! together with whatever stamp its free rule consults, such as the barrier ticket
//! the hazard-pointer family's deferred reclamation needs — until it can prove no
//! other thread still uses it. [`RetiredPtr`] is the Rust equivalent of the paper's `timestamped_node`
//! wrapper (Algorithm 3); threads collect these wrappers in
//! [`crate::segbag::SegBag`] segment chains (a limbo list in QSBR terms, a
//! removed-nodes list in HP/Cadence terms).

use crate::clock::Era;
use std::fmt;

/// A type-erased destructor: takes the pointer originally passed to `retire` and
/// releases the node's memory.
pub type DropFn = unsafe fn(*mut u8);

/// A retired node awaiting reclamation: pointer, destructor, the retiring
/// scheme's stamp, allocation size, and — for the interval-based schemes — the
/// era the node was allocated in.
///
/// `stamp` is **scheme-defined**: for the hazard-pointer family (HP, Cadence,
/// QSense) the barrier ticket current at removal —
/// [`BarrierLedger::stamp`](crate::fence::BarrierLedger::stamp), read after the
/// unlink; the node is covered once a barrier with a later ticket has returned
/// (the paper's `time_created`, Algorithm 3, counted in wake-ups instead of
/// nanoseconds) —, the logical retire era for Hazard Eras, and a constant 0 for
/// every scheme whose free rule never reads it (QSBR, EBR, RefCount, Leaky).
/// No scheme reads a clock on retire.
/// `birth_era` is [`NO_BIRTH_ERA`](crate::clock::NO_BIRTH_ERA) unless the
/// allocation site stamped the node through `SmrHandle::alloc_node` — the era
/// schemes treat an unstamped node as born before every announced era, which
/// is conservative (wider lifetime interval, never freed early). `size` is the
/// node's allocation size in bytes, which the typed `retire_box*` / guard
/// entry points always know; a zero stamp ([`SIZE_UNKNOWN`]) counts zero bytes
/// toward limbo budgets — byte budgets are only as complete as the callers'
/// stamping, never *over*-counted.
pub struct RetiredPtr {
    ptr: *mut u8,
    drop_fn: DropFn,
    stamp: u64,
    birth_era: Era,
    size: u32,
    /// Coarse telemetry tick stamped at retire ([`crate::telemetry`]); 0 means
    /// "telemetry disabled at retire time". Fills the alignment padding after
    /// `size`, so the wrapper stays 40 bytes and segment geometry is untouched.
    tick: u32,
}

/// The size stamp of a node whose retire path did not know its size (also the
/// honest stamp for zero-sized types). Budget accounting treats these nodes as
/// zero bytes.
pub const SIZE_UNKNOWN: u32 = 0;

// A RetiredPtr is just a deferred destructor call; the node it points to is already
// unreachable from the data structure, so moving the wrapper between threads is safe
// as long as only one thread ultimately runs the destructor (guaranteed by ownership).
unsafe impl Send for RetiredPtr {}

impl RetiredPtr {
    /// Wraps a retired node with the scheme's `stamp`, its allocation-time
    /// birth era and its allocation size in bytes. `size_bytes` of zero means
    /// "unknown" ([`SIZE_UNKNOWN`]); sizes past `u32::MAX` are clamped to
    /// `u32::MAX` (a single ≥ 4 GiB node is outside this substrate's design
    /// envelope; the clamp keeps the accounting bounded rather than wrapping).
    ///
    /// # Safety
    ///
    /// `ptr` must be a valid, unlinked node that will not be retired again, and
    /// `drop_fn(ptr)` must correctly release it; `birth_era` must be the era
    /// stamped into the node at allocation (or `NO_BIRTH_ERA`, which the era
    /// schemes treat maximally conservatively); `size_bytes` must not exceed
    /// the node's actual allocation size.
    pub unsafe fn new(
        ptr: *mut u8,
        drop_fn: DropFn,
        stamp: u64,
        birth_era: Era,
        size_bytes: usize,
    ) -> Self {
        debug_assert!(!ptr.is_null(), "retiring a null pointer");
        // Every retire path in every scheme funnels through this constructor,
        // so this is the oracle's single retire checkpoint.
        #[cfg(feature = "check-oracle")]
        crate::oracle::on_retire(ptr, size_bytes);
        Self {
            ptr,
            drop_fn,
            stamp,
            birth_era,
            size: u32::try_from(size_bytes).unwrap_or(u32::MAX),
            tick: 0,
        }
    }

    /// Stamps the coarse telemetry tick taken at retire time
    /// ([`crate::telemetry::HandleTelemetry::retire_tick`]); 0 (the default)
    /// marks the node as unstamped and the free-side delay measurement skips it.
    pub(crate) fn set_retire_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// The coarse telemetry tick stamped at retire, or 0 if telemetry was
    /// disabled when the node was retired.
    pub fn retire_tick(&self) -> u32 {
        self.tick
    }

    /// The retired node's address (used to match against hazard pointers).
    pub fn addr(&self) -> *mut u8 {
        self.ptr
    }

    /// The era the node was allocated in (`NO_BIRTH_ERA` if never stamped).
    pub fn birth_era(&self) -> Era {
        self.birth_era
    }

    /// The node's allocation size in bytes, or 0 ([`SIZE_UNKNOWN`]) when the
    /// retire path did not know it. Byte-budget accounting sums this, so
    /// unknown-size nodes weigh nothing — budgets under-count, never
    /// over-count.
    pub fn size_bytes(&self) -> usize {
        self.size as usize
    }

    /// The retiring scheme's stamp (see the type docs for what each scheme
    /// stores here).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Runs the destructor, consuming the wrapper.
    ///
    /// # Safety
    ///
    /// No thread may hold a hazardous reference to the node (this is exactly what the
    /// scheme's scan / grace-period logic establishes before calling this).
    pub unsafe fn reclaim(self) {
        // The single free checkpoint: the oracle flips the node to Freed and —
        // under quarantine — poisons the header and vetoes the destructor so
        // the address can never be reused (see `crate::oracle`).
        #[cfg(feature = "check-oracle")]
        if !crate::oracle::on_free(self.ptr) {
            return;
        }
        (self.drop_fn)(self.ptr);
        // `self` is consumed; forgetting nothing — RetiredPtr has no Drop impl, so the
        // wrapper itself is released trivially.
    }
}

impl fmt::Debug for RetiredPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetiredPtr")
            .field("ptr", &self.ptr)
            .field("stamp", &self.stamp)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NO_BIRTH_ERA;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct DropCounter {
        counter: Arc<AtomicUsize>,
    }

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.counter.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn retire_stamped(
        counter: &Arc<AtomicUsize>,
        stamp: u64,
        birth_era: Era,
        size_bytes: usize,
    ) -> RetiredPtr {
        let boxed = Box::new(DropCounter {
            counter: Arc::clone(counter),
        });
        let raw = Box::into_raw(boxed).cast::<u8>();
        unsafe fn drop_counter(ptr: *mut u8) {
            // SAFETY: reconstructs the box from the pointer this test leaked via Box::into_raw; it is dropped exactly once.
            #[allow(clippy::disallowed_methods)]
            // sanctioned: drop_fn thunk: the retire contract pairs this with Box::into_raw
            unsafe {
                drop(Box::from_raw(ptr.cast::<DropCounter>()))
            };
        }
        // SAFETY: the pointer was just produced by Box::into_raw and matches the drop function's type.
        unsafe { RetiredPtr::new(raw, drop_counter, stamp, birth_era, size_bytes) }
    }

    fn retire_counter(counter: &Arc<AtomicUsize>, stamp: u64) -> RetiredPtr {
        retire_stamped(counter, stamp, NO_BIRTH_ERA, 0)
    }

    #[test]
    fn retired_ptr_reports_address_and_reclaims_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let node = retire_counter(&counter, 0);
        assert!(!node.addr().is_null());
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { node.reclaim() };
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stamp_birth_era_and_size_round_trip() {
        let counter = Arc::new(AtomicUsize::new(0));
        let unstamped = retire_counter(&counter, 5);
        assert_eq!(unstamped.birth_era(), NO_BIRTH_ERA);
        assert_eq!(unstamped.size_bytes(), SIZE_UNKNOWN as usize);
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { unstamped.reclaim() };

        let stamped = retire_stamped(&counter, 9, 42, 256);
        assert_eq!(stamped.stamp(), 9);
        assert_eq!(stamped.birth_era(), 42);
        assert_eq!(stamped.size_bytes(), 256);
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { stamped.reclaim() };
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn retire_tick_defaults_to_unstamped_and_round_trips() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut node = retire_counter(&counter, 3);
        assert_eq!(node.retire_tick(), 0, "fresh wrappers are unstamped");
        node.set_retire_tick(12_345);
        assert_eq!(node.retire_tick(), 12_345);
        // The tick must fit the pre-existing padding: adding it must not have
        // grown the wrapper past its 40-byte footprint (segment geometry).
        assert_eq!(std::mem::size_of::<RetiredPtr>(), 40);
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { node.reclaim() };
    }

    #[test]
    fn oversized_stamp_clamps_instead_of_wrapping() {
        let counter = Arc::new(AtomicUsize::new(0));
        let huge = retire_stamped(&counter, 0, 0, usize::MAX);
        assert_eq!(huge.size_bytes(), u32::MAX as usize);
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { huge.reclaim() };
    }
}
