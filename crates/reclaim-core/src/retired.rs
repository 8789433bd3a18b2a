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
//!
//! A wrapper may carry no destructor: a *plain block* is a node with nothing
//! to drop in a block of a cached class ([`crate::node_cache`]), freed by
//! handing the block back by its recorded size. That is also what lets Leaky
//! keep no record of one at all ([`crate::leaky`]).

use crate::clock::Era;
use crate::node_cache::NodeCache;
use std::fmt;

/// A type-erased destructor: takes the pointer originally passed to
/// [`RetiredPtr::new`] and releases the node, offered the freeing handle's
/// [`NodeCache`] (`None` where no handle frees: parked leftovers at scheme drop).
/// A [`crate::node_cache`] block's destructor decides there whether its block
/// is cached or given back; a `Box`'s ([`crate::drop_fn_for`]) ignores it.
pub type DropFn = unsafe fn(*mut u8, Option<&mut NodeCache>);

/// A retired node awaiting reclamation: pointer, destructor (none for a
/// plain block: module docs), the retiring scheme's stamp, allocation size,
/// and — for the interval-based schemes — the era the node was allocated in.
/// The one value `SmrHandle::retire` takes: whoever knows the node builds it,
/// once.
///
/// `stamp` is **scheme-defined**, written by `HandleCore::retire`: for the
/// hazard-pointer family (HP, Cadence,
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
/// entry points always know; a zero stamp (size unknown) counts zero bytes
/// toward limbo budgets — byte budgets are only as complete as the callers'
/// stamping, never *over*-counted.
pub struct RetiredPtr {
    ptr: *mut u8,
    /// `None` for a plain block, whose `size` is its block's.
    drop_fn: Option<DropFn>,
    stamp: u64,
    birth_era: Era,
    size: u32,
    /// Coarse telemetry tick stamped at retire ([`crate::telemetry`]); 0 means
    /// "telemetry disabled at retire time". Fills the alignment padding after
    /// `size`, so the wrapper stays 40 bytes and segment geometry is untouched.
    tick: u32,
}

// SAFETY: a RetiredPtr is just a deferred destructor call; the node it points
// to is already unreachable from the data structure, so moving the wrapper
// between threads is safe as long as only one thread ultimately runs the
// destructor (guaranteed by ownership).
unsafe impl Send for RetiredPtr {}

impl RetiredPtr {
    /// Wraps a retired node with its allocation-time birth era and its
    /// allocation size in bytes; the scheme's stamp is written at retire.
    /// `size_bytes` feeds the byte books only and should not exceed the
    /// node's allocation: zero means "unknown"; sizes of
    /// 4 GiB and more are clamped to 4 GiB − 1 (a single such node is outside
    /// this substrate's design envelope; the clamp keeps the accounting
    /// bounded rather than wrapping).
    ///
    /// # Safety
    ///
    /// `ptr` must be a valid, unlinked node that will not be retired again, and
    /// `drop_fn(ptr, _)` must correctly release it; `birth_era` must be the era
    /// stamped into the node at allocation (or `NO_BIRTH_ERA`, which the era
    /// schemes treat maximally conservatively).
    pub unsafe fn new(ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize) -> Self {
        // SAFETY: the caller's contract.
        unsafe { Self::with_drop_fn(ptr, Some(drop_fn), birth_era, size_bytes) }
    }

    /// [`new`](Self::new), or with no `drop_fn` a plain block: a node with
    /// nothing to drop at the start of a block of a cached class's size,
    /// `size_bytes`.
    ///
    /// # Safety
    ///
    /// As [`new`](Self::new)'s; a plain block came from `node_cache`.
    pub(crate) unsafe fn with_drop_fn(
        ptr: *mut u8,
        drop_fn: Option<DropFn>,
        birth_era: Era,
        size_bytes: usize,
    ) -> Self {
        debug_assert!(!ptr.is_null(), "retiring a null pointer");
        let size = u32::try_from(size_bytes).unwrap_or(u32::MAX);
        // Every retire path, typed or raw, builds its node through this
        // constructor, so this is the oracle's single retire checkpoint.
        #[cfg(feature = "check-oracle")]
        crate::oracle::on_retire(ptr, size as usize);
        Self {
            ptr,
            drop_fn,
            stamp: 0,
            birth_era,
            size,
            tick: 0,
        }
    }

    /// Writes the retiring scheme's `stamp` and the coarse telemetry `tick`
    /// taken at retire ([`HandleCore::retire_tick`](crate::limbo::HandleCore::retire_tick); 0
    /// marks the node as unstamped and the free-side delay measurement skips it).
    pub(crate) fn set_stamps(&mut self, stamp: u64, tick: u32) {
        (self.stamp, self.tick) = (stamp, tick);
    }

    /// The coarse telemetry tick stamped at retire, or 0 if telemetry was
    /// disabled when the node was retired.
    pub(crate) fn retire_tick(&self) -> u32 {
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

    /// The node's allocation size in bytes, or 0 when the
    /// retire path did not know it. Byte-budget accounting sums this, so
    /// unknown-size nodes weigh nothing — budgets under-count, never
    /// over-count.
    pub(crate) fn size_bytes(&self) -> usize {
        self.size as usize
    }

    /// The retiring scheme's stamp (see the type docs for what each scheme
    /// stores here).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Whether the node is a plain block (module docs).
    pub(crate) fn is_plain_block(&self) -> bool {
        self.drop_fn.is_none()
    }

    /// Runs the destructor, consuming the wrapper, and offers it `cache` (the
    /// free stage's); a plain block goes where a block destructor would put
    /// it.
    ///
    /// # Safety
    ///
    /// No thread may hold a hazardous reference to the node (this is exactly what the
    /// scheme's scan / grace-period logic establishes before calling this).
    #[inline]
    pub(crate) unsafe fn reclaim(self, cache: Option<&mut NodeCache>) {
        // The single free checkpoint: the oracle flips the node to Freed and —
        // under quarantine — poisons the header and vetoes the destructor so
        // the address can never be reused, nor cached (see `crate::oracle`).
        #[cfg(feature = "check-oracle")]
        if !crate::oracle::on_free(self.ptr) {
            return;
        }
        // SAFETY: the caller's contract, and `with_drop_fn`'s.
        unsafe {
            match self.drop_fn {
                Some(drop_fn) => drop_fn(self.ptr, cache),
                None => crate::node_cache::free_plain(self.ptr, self.size as usize, cache),
            }
        }
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
    use crate::smr::drop_fn_for;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct DropCounter(Arc<AtomicUsize>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn retire_counter(counter: &Arc<AtomicUsize>, birth_era: Era, size_bytes: usize) -> RetiredPtr {
        let raw = Box::into_raw(Box::new(DropCounter(Arc::clone(counter))));
        // SAFETY: the pointer was just produced by Box::into_raw and matches the drop function's type.
        unsafe {
            RetiredPtr::new(
                raw.cast(),
                drop_fn_for::<DropCounter>(),
                birth_era,
                size_bytes,
            )
        }
    }

    #[test]
    fn retired_ptr_reports_address_and_reclaims_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let node = retire_counter(&counter, NO_BIRTH_ERA, 0);
        assert!(!node.addr().is_null());
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { node.reclaim(None) };
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stamp_birth_era_and_size_round_trip() {
        let counter = Arc::new(AtomicUsize::new(0));
        let unstamped = retire_counter(&counter, NO_BIRTH_ERA, 0);
        assert_eq!(unstamped.stamp(), 0, "the scheme stamps at retire");
        assert_eq!(unstamped.birth_era(), NO_BIRTH_ERA);
        assert_eq!(unstamped.size_bytes(), 0, "size unknown");
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { unstamped.reclaim(None) };

        let mut stamped = retire_counter(&counter, 42, 256);
        stamped.set_stamps(9, 0);
        assert_eq!(stamped.stamp(), 9);
        assert_eq!(stamped.birth_era(), 42);
        assert_eq!(stamped.size_bytes(), 256);
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { stamped.reclaim(None) };
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn retire_tick_defaults_to_unstamped_and_round_trips() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut node = retire_counter(&counter, NO_BIRTH_ERA, 0);
        assert_eq!(node.retire_tick(), 0, "fresh wrappers are unstamped");
        node.set_stamps(3, 12_345);
        assert_eq!((node.stamp(), node.retire_tick()), (3, 12_345));
        // The tick must fit the pre-existing padding: adding it must not have
        // grown the wrapper past its 40-byte footprint (segment geometry).
        assert_eq!(std::mem::size_of::<RetiredPtr>(), 40);
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { node.reclaim(None) };
    }

    #[test]
    fn oversized_stamp_clamps_instead_of_wrapping() {
        let counter = Arc::new(AtomicUsize::new(0));
        let huge = retire_counter(&counter, 0, usize::MAX);
        assert_eq!(huge.size_bytes(), u32::MAX as usize);
        // SAFETY: the node was retired exactly once above and nothing protects it; reclaim drops it here.
        unsafe { huge.reclaim(None) };
        assert_eq!(
            counter.load(Ordering::SeqCst),
            1,
            "freed once, by its destructor alone"
        );
    }
}
