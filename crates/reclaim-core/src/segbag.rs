//! Segment-chain retired-node bags: the allocation-free steady-state retire path.
//!
//! [`SegBag`] stores retired nodes in fixed-size **segments** linked into a
//! chain, so neither bag growth nor the parked-bag hand-off at handle drop
//! allocates or copies:
//!
//! * **push** writes into the tail segment; when it fills, the next segment is
//!   popped from a per-handle free list ([`SegPool`]) in O(1). The allocator is
//!   touched only when the pool is empty, i.e. only while a thread's *total*
//!   outstanding retired-node count exceeds everything it has seen before.
//!   Because the pool is shared by all of a handle's bags (the three epoch limbo
//!   lists of QSBR/QSense, the four of EBR), a bag can grow far past its own
//!   previous high-water mark without allocating, as long as the handle's
//!   segments cover it.
//! * **a scan's walk** ([`SegBag::transfer_walk`]) moves the nodes it releases
//!   onto a second chain fed by the same pool — the allocator sees them later,
//!   a [`pop`](SegBag::pop) at a time — compacts survivors in place *within
//!   their segment* and unlinks drained segments back to the pool — zero heap
//!   traffic, O(freed) moves (survivors never migrate across segments, with
//!   one bounded exception: at most one *adjacent-segment merge* per pass, see
//!   below).
//! * **adjacent-segment merge**: when a pass leaves two neighbouring segments
//!   whose combined survivors fit one segment, the later segment's survivors
//!   are appended to the earlier one and the drained shell is pooled. At most
//!   one merge happens per pass (≤ [`SEG_CAP`] moves, i.e. O(1) extra work per
//!   scan), which is enough to stop scattered long-lived survivors — the
//!   hazard-pointer residue — from pinning one near-empty segment each: every
//!   scan shrinks such a chain by one segment until the survivors share one.
//! * **splice** moves another bag's entire chain in O(1) pointer surgery. This
//!   is what makes the parked-bag hand-off at handle drop allocation-free: the
//!   scheme keeps one parked chain and dying handles splice their leftovers
//!   into it; surviving handles adopt the parked chain back (another splice) on
//!   their next flush.
//!
//! ## Segment size
//!
//! A [`RetiredPtr`] is 40 bytes (pointer, destructor, stamp, birth era,
//! size stamp). With [`SEG_CAP`] = 12 slots plus the `next`/`len` header a
//! segment is 496 bytes — eight cache lines, comfortably under one 512-byte
//! allocator size class. The size is a balance: large enough that the
//! amortized per-retire overhead (chain link maintenance, pool pop) is a small
//! fraction of a pointer push, small enough that a mostly-empty bag wastes at
//! most a few hundred bytes and that EBR's "touch shared epoch state once per
//! segment" batching still reacts quickly (every 12 retires).
//!
//! ## Byte accounting
//!
//! Every bag maintains a running total of its nodes' stamped allocation sizes
//! ([`SegBag::bytes`]), updated on push, splice and reclaim, so "how much
//! memory does this limbo list pin" is an O(1) read — the primitive the
//! scheme-wide limbo *byte* budgets are built on. Nodes retired through the
//! size-unknown raw path weigh zero (see [`RetiredPtr::size_bytes`]): the
//! total under-counts, never over-counts.
//!
//! ## Safety model
//!
//! A `SegBag` is owned by one thread at a time (all methods take `&mut self`);
//! `splice` transfers whole chains between owners, which is safe because a
//! [`RetiredPtr`] is `Send`. Segments are manually managed `Box` allocations;
//! the only `unsafe` is the slot bookkeeping, where the compaction's
//! within-segment write index never passes its read index — see
//! `transfer_walk`.

use crate::retired::RetiredPtr;
use std::fmt;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::Mutex;

/// Retired nodes per segment (see the module docs for the size rationale).
pub const SEG_CAP: usize = 12;

/// One fixed-size link of a [`SegBag`] chain.
struct Segment {
    next: *mut Segment,
    /// Number of initialized slots. Pushes fill only the tail, but partial
    /// segments can sit mid-chain (after a `splice`, or where `transfer_walk`
    /// took some of a segment's nodes); every traversal honours per-segment
    /// `len`.
    len: usize,
    slots: [MaybeUninit<RetiredPtr>; SEG_CAP],
}

impl Segment {
    fn alloc() -> *mut Segment {
        Box::into_raw(Box::new(Segment {
            next: ptr::null_mut(),
            len: 0,
            slots: [const { MaybeUninit::uninit() }; SEG_CAP],
        }))
    }

    /// # Safety
    ///
    /// `seg` must have come from [`Segment::alloc`] and hold no initialized
    /// slots the caller still cares about (moved out or already dropped).
    unsafe fn dealloc(seg: *mut Segment) {
        // SAFETY: forwarded from the caller's contract; the slots are
        // `MaybeUninit`, so dropping the box never runs `RetiredPtr` work.
        #[allow(clippy::disallowed_methods)]
        // sanctioned: segment deallocation: the pool's only free path
        drop(unsafe { Box::from_raw(seg) });
    }
}

/// A per-handle free list of empty segments.
///
/// Bags draw empty segments from the pool on push and return drained segments
/// on reclaim. The pool is unbounded but can only grow to the owning handle's
/// all-time peak segment count — the classic high-water-mark retention that
/// makes the steady state allocation-free. It is deliberately a separate type
/// (not embedded in [`SegBag`]) so one handle's pool can back several bags.
pub struct SegPool {
    free: *mut Segment,
    free_len: usize,
}

// SAFETY: the pool owns its (empty) segments outright; there is no aliasing —
// moving it to another thread moves plain heap blocks.
unsafe impl Send for SegPool {}

impl SegPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            free: ptr::null_mut(),
            free_len: 0,
        }
    }

    /// Creates a pool pre-warmed with enough segments to hold `nodes` retired
    /// nodes, so a handle that knows its scan threshold never allocates on the
    /// retire path at all — not even the first time its bag fills up.
    pub fn with_node_capacity(nodes: usize) -> Self {
        let mut pool = Self::new();
        for _ in 0..nodes.div_ceil(SEG_CAP) {
            let seg = Segment::alloc();
            // SAFETY: freshly allocated, empty.
            unsafe { pool.put(seg) };
        }
        pool
    }

    /// A pool pre-warmed for a handle that scans every `scan_threshold` retires
    /// (capped: a test-sized huge `R` must not balloon registration), so even
    /// the handle's first bag fill recycles instead of allocating — and one
    /// segment more, for the ready chain a scan starts to fill before the bag
    /// it drains has given its first segment back.
    pub fn for_scan_threshold(scan_threshold: usize) -> Self {
        Self::with_node_capacity(scan_threshold.saturating_add(1).min(2048) + SEG_CAP)
    }

    /// Number of empty segments currently pooled.
    pub fn free_segments(&self) -> usize {
        self.free_len
    }

    /// Pops an empty segment, allocating only when the pool is dry.
    fn get(&mut self) -> *mut Segment {
        if self.free.is_null() {
            return Segment::alloc();
        }
        let seg = self.free;
        // SAFETY: `seg` came from `put`, which keeps the free list well formed.
        self.free = unsafe { (*seg).next };
        self.free_len -= 1;
        // SAFETY: `seg` was just unlinked from the free list and is exclusively owned here.
        unsafe {
            (*seg).next = ptr::null_mut();
        }
        seg
    }

    /// Returns a drained segment to the free list.
    ///
    /// # Safety
    ///
    /// Every slot of `seg` must be uninitialized (moved out or reclaimed).
    unsafe fn put(&mut self, seg: *mut Segment) {
        // SAFETY: the caller guarantees the segment is drained; resetting `len`
        // makes that state canonical before it is reused.
        unsafe {
            (*seg).len = 0;
            (*seg).next = self.free;
        }
        self.free = seg;
        self.free_len += 1;
    }
}

impl Default for SegPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SegPool {
    fn drop(&mut self) {
        let mut seg = self.free;
        while !seg.is_null() {
            // SAFETY: free-list segments are empty and owned by the pool.
            let next = unsafe { (*seg).next };
            unsafe { Segment::dealloc(seg) };
            seg = next;
        }
    }
}

impl fmt::Debug for SegPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegPool")
            .field("free_segments", &self.free_len)
            .finish()
    }
}

/// A thread-local bag of retired nodes stored as a chain of fixed segments.
///
/// The owning thread pushes retired nodes and periodically drains the bag
/// through a scheme-specific predicate (hazard-pointer scan, grace-period
/// check, age check). Other threads never touch a live bag; whole bags change
/// owners only via [`splice`](Self::splice) (parked-bag hand-off).
pub struct SegBag {
    /// Oldest segment (start of the chain); null iff the bag is empty.
    head: *mut Segment,
    /// Newest segment — the push target; null iff the bag is empty.
    tail: *mut Segment,
    len: usize,
    /// Sum of the stamped allocation sizes of every node in the bag, kept in
    /// lock-step with `len` (push adds, splice transfers, reclaim subtracts)
    /// so byte totals are O(1) reads.
    bytes: usize,
}

// SAFETY: the chain is uniquely owned by the bag and `RetiredPtr` is `Send`;
// moving the bag moves ownership of every pending destructor call.
unsafe impl Send for SegBag {}

impl SegBag {
    /// Creates an empty bag.
    pub fn new() -> Self {
        Self {
            head: ptr::null_mut(),
            tail: ptr::null_mut(),
            len: 0,
            bytes: 0,
        }
    }

    /// Number of nodes currently awaiting reclamation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Total stamped allocation bytes awaiting reclamation in this bag. O(1);
    /// nodes whose retire path did not stamp a size count zero.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// True when no nodes await reclamation.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments currently linked into the chain (diagnostics/tests).
    pub fn segments(&self) -> usize {
        let mut count = 0;
        let mut seg = self.head;
        while !seg.is_null() {
            count += 1;
            // SAFETY: chain segments are owned by the bag and well formed.
            seg = unsafe { (*seg).next };
        }
        count
    }

    /// Adds a retired node, drawing a segment from `pool` if the tail is full.
    pub fn push(&mut self, pool: &mut SegPool, node: RetiredPtr) {
        self.bytes += node.size_bytes();
        // SAFETY: `head`/`tail` segments come from `pool.get` and are exclusively owned by this bag.
        unsafe {
            if self.tail.is_null() {
                let seg = pool.get();
                self.head = seg;
                self.tail = seg;
            } else if (*self.tail).len == SEG_CAP {
                let seg = pool.get();
                (*self.tail).next = seg;
                self.tail = seg;
            }
            // SAFETY: the tail now has a free slot at `len`.
            let tail = &mut *self.tail;
            tail.slots[tail.len].write(node);
            tail.len += 1;
        }
        self.len += 1;
    }

    /// Takes one node out of the bag — the newest of the oldest segment — and
    /// returns that segment to `pool` once it is empty. O(1) and no survivor
    /// moves, unlike a one-node [`transfer_walk`](Self::transfer_walk), which
    /// would compact the rest of the segment behind it.
    pub fn pop(&mut self, pool: &mut SegPool) -> Option<RetiredPtr> {
        let seg = self.head;
        if seg.is_null() {
            return None;
        }
        // SAFETY: the bag exclusively owns its chain, and a linked segment is
        // never empty (drained ones are unlinked on the spot, here and in the
        // walk), so slot `len - 1` is initialized; it is read out exactly once.
        let node = unsafe {
            (*seg).len -= 1;
            let node = (*seg).slots[(*seg).len].assume_init_read();
            if (*seg).len == 0 {
                self.head = (*seg).next;
                if self.head.is_null() {
                    self.tail = ptr::null_mut();
                }
                pool.put(seg);
            }
            node
        };
        self.len -= 1;
        self.bytes -= node.size_bytes();
        Some(node)
    }

    /// Moves every node out of `other` into `self` with O(1) pointer surgery —
    /// no copy, no allocation. Used for the parked-bag hand-off at handle drop
    /// (dying handle → scheme) and for parked-chain adoption (scheme →
    /// surviving handle), and when QSense folds its limbo lists together.
    pub fn splice(&mut self, other: &mut SegBag) {
        if other.head.is_null() {
            return;
        }
        if self.head.is_null() {
            self.head = other.head;
            self.tail = other.tail;
        } else {
            // SAFETY: both chains are well formed and uniquely owned.
            unsafe { (*self.tail).next = other.head };
            self.tail = other.tail;
        }
        self.len += other.len;
        self.bytes += other.bytes;
        other.head = ptr::null_mut();
        other.tail = ptr::null_mut();
        other.len = 0;
        other.bytes = 0;
    }

    /// Moves every node for which `can_move` returns true onto `into` — out of
    /// this bag, not yet to the allocator: whoever [`pop`](Self::pop)s it from
    /// there answers for freeing it — and keeps the rest. Both chains draw on
    /// `pool`. Returns the number of nodes moved.
    ///
    /// Survivors are compacted **within their segment only** (a local write
    /// cursor trailing the read index), and segments left empty are unlinked
    /// and returned to `pool` — zero heap allocations either way. Crucially,
    /// survivors never migrate across segments wholesale: an earlier revision
    /// repacked the whole chain densely, which moved *every* survivor whenever
    /// a prefix of the bag was freed — exactly Cadence's steady state, where
    /// each scan frees the oldest few nodes of an age-ordered bag holding tens
    /// of thousands of still-young survivors, turning an O(freed) partition
    /// into an O(bag) copy per scan. The one bounded exception is the
    /// opportunistic **adjacent-segment merge**: at most once per pass, two
    /// neighbouring segments whose combined survivors fit one segment are
    /// folded together (≤ [`SEG_CAP`] moves — O(1)), so scattered long-lived
    /// survivors converge toward one shared segment over successive scans
    /// instead of pinning one near-empty segment each. The residual slack is
    /// still bounded by the survivor count — for real schemes the
    /// hazard-pointer residue (≤ `N·K` nodes) — it just stops being one
    /// *segment* per survivor.
    ///
    /// Survivor order is preserved; no caller relies on it, but the tests do
    /// check it to pin the compaction down.
    ///
    /// Two hooks ride on the same walk:
    ///
    /// * the walk **stops for good** at the first node for which
    ///   `keep_scanning` returns false; later nodes are not examined (and not
    ///   moved) this pass. This is the age-ordered fast path for
    ///   deferred-reclamation scans (Cadence, QSense's fallback): a thread
    ///   pushes in retirement order, so once a node is too young to free (no
    ///   barrier has completed since its retire),
    ///   everything behind it is younger still — the scan touches only the
    ///   reclaimable prefix plus one node, O(freed), instead of walking tens
    ///   of thousands of still-young survivors. A [`splice`](Self::splice) can
    ///   append *older* nodes behind younger ones (parked-chain adoption);
    ///   stopping early merely delays those until the nodes in front of them
    ///   age too, which is always safe.
    /// * `visit_survivor` is called exactly once for every node that *remains*
    ///   in the bag after the pass. The walk already touches every survivor to
    ///   compact it, so the visit is free; callers use it to recompute
    ///   aggregate bounds (e.g. the era chains' min/max birth) that would
    ///   otherwise go stale after a partial reclaim — stale bounds cost O(bag)
    ///   walks on every later scan until the bag fully drains.
    pub fn transfer_walk(
        &mut self,
        pool: &mut SegPool,
        into: &mut SegBag,
        mut keep_scanning: impl FnMut(&RetiredPtr) -> bool,
        mut can_move: impl FnMut(&RetiredPtr) -> bool,
        mut visit_survivor: impl FnMut(&RetiredPtr),
    ) -> usize {
        let mut freed = 0usize;
        let mut freed_bytes = 0usize;
        let mut prev: *mut Segment = ptr::null_mut();
        let mut seg = self.head;
        let mut stopped = false;
        let mut merged = false;
        // SAFETY: the bag exclusively owns its segments; each taken node is moved out of its slot exactly once, and compaction moves each survivor exactly once.
        unsafe {
            while !seg.is_null() && !stopped {
                let next = (*seg).next;
                let len = (*seg).len;
                let mut write = 0usize;
                for read in 0..len {
                    let slot = (*seg).slots.as_mut_ptr().add(read);
                    // SAFETY: `read < len`, so the slot is initialized.
                    let node_ref = (*slot).assume_init_ref();
                    if !stopped && !keep_scanning(node_ref) {
                        stopped = true;
                    }
                    if !stopped && can_move(node_ref) {
                        let node = (*slot).assume_init_read();
                        freed_bytes += node.size_bytes();
                        into.push(pool, node);
                        freed += 1;
                    } else {
                        // Survivor (or unexamined remainder after a stop):
                        // compact within the segment.
                        visit_survivor(node_ref);
                        if write != read {
                            // SAFETY: `write < read`, so the target slot was
                            // already read out of; the move neither drops a
                            // live node nor duplicates one.
                            let node = (*slot).assume_init_read();
                            (*seg)
                                .slots
                                .as_mut_ptr()
                                .add(write)
                                .write(MaybeUninit::new(node));
                        }
                        write += 1;
                    }
                }
                (*seg).len = write;
                if write == 0 {
                    // Drained: unlink and recycle. SAFETY: every slot was
                    // moved out above.
                    if prev.is_null() {
                        self.head = next;
                    } else {
                        (*prev).next = next;
                    }
                    if self.tail == seg {
                        self.tail = prev;
                    }
                    pool.put(seg);
                } else if !merged && !prev.is_null() && (*prev).len + write <= SEG_CAP {
                    // Opportunistic adjacent-segment merge (at most one per
                    // pass, ≤ SEG_CAP moves): append this segment's survivors
                    // to the previous one and recycle the drained shell.
                    // Appending after the predecessor's survivors preserves
                    // global order, since `prev` precedes `seg` in the chain.
                    let plen = (*prev).len;
                    for i in 0..write {
                        // SAFETY: slots `0..write` of `seg` are initialized
                        // (just compacted) and slots `plen..plen + write` of
                        // `prev` are free (`plen + write <= SEG_CAP`); each
                        // node is moved exactly once.
                        let node = (*seg).slots[i].assume_init_read();
                        (*prev)
                            .slots
                            .as_mut_ptr()
                            .add(plen + i)
                            .write(MaybeUninit::new(node));
                    }
                    (*prev).len = plen + write;
                    (*seg).len = 0;
                    (*prev).next = next;
                    if self.tail == seg {
                        self.tail = prev;
                    }
                    // SAFETY: every slot of `seg` was moved out above.
                    pool.put(seg);
                    merged = true;
                } else {
                    prev = seg;
                }
                seg = next;
            }
        }
        self.len -= freed;
        self.bytes -= freed_bytes;
        freed
    }

    /// Unconditionally reclaims every node in the bag, oldest first — a
    /// scheme drop returns the leaky baseline's whole run this way, and in
    /// retirement order the allocator's cold chunks stream. Returns the number
    /// reclaimed.
    ///
    /// # Safety
    ///
    /// Caller must guarantee that no thread can access any node in the bag
    /// (e.g. the scheme is being dropped and all handles are gone).
    pub unsafe fn reclaim_all(&mut self, pool: &mut SegPool) -> usize {
        let nodes = self.len;
        let mut seg = std::mem::replace(&mut self.head, ptr::null_mut());
        (self.tail, self.len, self.bytes) = (ptr::null_mut(), 0, 0);
        while !seg.is_null() {
            // SAFETY: the chain, just detached, is exclusively owned; slots
            // below `len` are initialized and each is read out exactly once,
            // which leaves the segment drained for the pool. The frees are
            // the caller's contract.
            unsafe {
                let next = (*seg).next;
                for slot in &(&(*seg).slots)[..(*seg).len] {
                    slot.assume_init_read().reclaim();
                }
                pool.put(seg);
                seg = next;
            }
        }
        nodes
    }

    /// Iterates over the retired nodes without reclaiming them.
    pub fn iter(&self) -> SegBagIter<'_> {
        SegBagIter {
            seg: self.head,
            idx: 0,
            _bag: std::marker::PhantomData,
        }
    }
}

impl Default for SegBag {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SegBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegBag")
            .field("len", &self.len)
            .field("bytes", &self.bytes)
            .field("segments", &self.segments())
            .finish()
    }
}

impl Drop for SegBag {
    fn drop(&mut self) {
        // Dropping a non-empty bag would leak the nodes. Schemes drain their
        // bags (or splice them into the scheme's parked bag) in their own Drop
        // impls; reaching this point with leftovers indicates a scheme bug in
        // debug builds, and in release we leak the *nodes* rather than risk a
        // double free — but the segment memory itself is always released.
        debug_assert!(
            self.len == 0,
            "SegBag dropped with {} unreclaimed nodes",
            self.len
        );
        let mut seg = self.head;
        while !seg.is_null() {
            // SAFETY: the chain is uniquely owned; any still-initialized
            // RetiredPtr slots carry no Drop impl of their own (the pointed-to
            // nodes leak deliberately, see above).
            let next = unsafe { (*seg).next };
            unsafe { Segment::dealloc(seg) };
            seg = next;
        }
    }
}

/// Scheme-level parking lot for the limbo leftovers of exited threads.
///
/// A dying handle [`park`](Self::park)s whatever its final scan could not free
/// (an O(1) chain splice under the lock, no allocation); the next surviving
/// handle to flush [`adopt`](Self::adopt_into)s the whole chain back into its
/// own bag, where the nodes rejoin normal scanning; anything never adopted is
/// [`drain`](Self::drain_all)ed when the scheme itself drops. Every
/// [`SchemeCore`](crate::limbo::SchemeCore) embeds one of these and is the only
/// way in: scheme crates park and adopt through their
/// [`HandleCore`](crate::limbo::HandleCore), which keeps the byte accounting
/// in step.
pub(crate) struct ParkedChain {
    chain: Mutex<SegBag>,
}

impl ParkedChain {
    /// Creates an empty parking lot.
    pub fn new() -> Self {
        Self {
            chain: Mutex::new(SegBag::new()),
        }
    }

    /// Splices `leftovers` into the parked chain. O(1); skips the lock when
    /// there is nothing to park.
    pub fn park(&self, leftovers: &mut SegBag) {
        if leftovers.is_empty() {
            return;
        }
        self.chain
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .splice(leftovers);
    }

    /// Splices the entire parked chain into `into`. O(1).
    pub fn adopt_into(&self, into: &mut SegBag) {
        let mut parked = self.chain.lock().unwrap_or_else(|e| e.into_inner());
        into.splice(&mut parked);
    }

    /// Stamped bytes currently sitting in the parking lot (takes the lock).
    #[cfg(test)]
    pub fn parked_bytes(&self) -> usize {
        self.chain
            .lock()
            .map(|chain| chain.bytes())
            .unwrap_or_default()
    }

    /// Unconditionally frees every parked node, returning `(nodes, bytes)`
    /// freed. The drained segments are released to the allocator (via a
    /// throwaway pool) — this runs at scheme drop, not on any hot path.
    ///
    /// # Safety
    ///
    /// Caller must guarantee no thread can access any parked node (e.g. the
    /// scheme is being dropped and every handle is gone).
    pub unsafe fn drain_all(&self) -> (usize, usize) {
        let mut parked = self.chain.lock().unwrap_or_else(|e| e.into_inner());
        let mut pool = SegPool::new();
        let bytes = parked.bytes();
        // SAFETY: forwarded from the caller's contract.
        let nodes = unsafe { parked.reclaim_all(&mut pool) };
        (nodes, bytes - parked.bytes())
    }
}

impl Default for ParkedChain {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ParkedChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let len = self
            .chain
            .lock()
            .map(|chain| chain.len())
            .unwrap_or_default();
        f.debug_struct("ParkedChain").field("len", &len).finish()
    }
}

/// Scheme-level cache of exited handles' workspaces — the resource-side twin of
/// [`ParkedChain`]: the chain moves the *work* of a dying handle, this moves
/// its *workspace* (segment pool + the scheme's scan scratch `W`) to the next
/// registrant, so after the first wave of handles registration allocates
/// nothing. LIFO keeps the hottest segments in circulation. The backing
/// storage is allocated up front at the scheme's `max_threads` — more
/// workspaces could never be in use — so parking, which runs on the
/// handle-drop path, never touches the allocator either.
pub(crate) struct WorkspaceCache<W> {
    parked: Mutex<Vec<(SegPool, W)>>,
}

impl<W> WorkspaceCache<W> {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            parked: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Takes the most recently parked workspace, if any.
    pub fn adopt(&self) -> Option<(SegPool, W)> {
        self.parked.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    /// Parks a dying handle's workspace; past the pre-allocated capacity it
    /// would be dead weight and is simply dropped.
    pub fn park(&self, pool: SegPool, scratch: W) {
        let mut parked = self.parked.lock().unwrap_or_else(|e| e.into_inner());
        if parked.len() < parked.capacity() {
            parked.push((pool, scratch));
        }
    }
}

/// Borrowing iterator over a [`SegBag`]'s nodes, segment by segment.
pub struct SegBagIter<'a> {
    seg: *mut Segment,
    idx: usize,
    _bag: std::marker::PhantomData<&'a SegBag>,
}

impl<'a> Iterator for SegBagIter<'a> {
    type Item = &'a RetiredPtr;

    fn next(&mut self) -> Option<&'a RetiredPtr> {
        loop {
            if self.seg.is_null() {
                return None;
            }
            // SAFETY: the borrow on the bag keeps the chain alive and unmodified.
            unsafe {
                if self.idx < (*self.seg).len {
                    let item = (*self.seg).slots[self.idx].assume_init_ref();
                    self.idx += 1;
                    return Some(item);
                }
                self.seg = (*self.seg).next;
                self.idx = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Nanos;
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

    fn retire_counter(counter: &Arc<AtomicUsize>, at: Nanos) -> RetiredPtr {
        retire_counter_sized(counter, at, 0)
    }

    fn retire_counter_sized(counter: &Arc<AtomicUsize>, at: Nanos, size: usize) -> RetiredPtr {
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
        // SAFETY: `raw` was just leaked via Box::into_raw and matches `drop_counter`'s type.
        unsafe { RetiredPtr::new(raw, drop_counter, at, 0, size) }
    }

    /// Frees what `can_reclaim` passes: the walk under test, then the
    /// allocator, as the core's two stages do.
    ///
    /// # Safety
    ///
    /// `can_reclaim` must only pass nodes nothing protects.
    unsafe fn reclaim_if(
        bag: &mut SegBag,
        pool: &mut SegPool,
        can_reclaim: impl FnMut(&RetiredPtr) -> bool,
    ) -> usize {
        let mut freed = SegBag::new();
        let moved = bag.transfer_walk(pool, &mut freed, |_| true, can_reclaim, |_| {});
        // SAFETY: forwarded from the caller's contract.
        unsafe { freed.reclaim_all(pool) };
        moved
    }

    #[test]
    fn segment_fits_eight_cache_lines() {
        assert!(
            std::mem::size_of::<Segment>() <= 512,
            "segment grew past its size class: {} bytes",
            std::mem::size_of::<Segment>()
        );
    }

    #[test]
    fn byte_totals_track_push_splice_and_reclaim() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut a = SegBag::new();
        let mut b = SegBag::new();
        assert_eq!(a.bytes(), 0);
        // Sizes 100, 200, 300, ... make partial frees distinguishable.
        for t in 0..(SEG_CAP as u64 + 3) {
            a.push(
                &mut pool,
                retire_counter_sized(&counter, t, 100 * (t as usize + 1)),
            );
        }
        let n = SEG_CAP + 3;
        let total: usize = (1..=n).map(|i| 100 * i).sum();
        assert_eq!(a.bytes(), total);
        // Unknown-size nodes weigh zero.
        a.push(&mut pool, retire_counter(&counter, 999));
        assert_eq!(a.bytes(), total);
        // Splice transfers the byte total along with the chain.
        b.push(&mut pool, retire_counter_sized(&counter, 1_000, 64));
        a.splice(&mut b);
        assert_eq!(a.bytes(), total + 64);
        assert_eq!(b.bytes(), 0);
        // A partial reclaim subtracts exactly the freed nodes' stamps.
        // SAFETY: the test owns every node in the bag; none is protected.
        let freed = unsafe { reclaim_if(&mut a, &mut pool, |node| node.stamp() < 2) };
        assert_eq!(freed, 2);
        assert_eq!(a.bytes(), total + 64 - 100 - 200);
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        unsafe { a.reclaim_all(&mut pool) };
        assert_eq!(a.bytes(), 0);
    }

    #[test]
    fn parked_chain_reports_and_drains_bytes() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut leftovers = SegBag::new();
        for t in 0..4u64 {
            leftovers.push(&mut pool, retire_counter_sized(&counter, t, 50));
        }
        let parked = ParkedChain::new();
        parked.park(&mut leftovers);
        assert_eq!(parked.parked_bytes(), 200);
        // SAFETY: the test owns the parked nodes; no scan is concurrent.
        let (nodes, bytes) = unsafe { parked.drain_all() };
        assert_eq!((nodes, bytes), (4, 200));
        assert_eq!(parked.parked_bytes(), 0);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn push_links_segments_and_reclaim_recycles_them() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut bag = SegBag::new();
        let n = 3 * SEG_CAP + 5;
        for t in 0..n as u64 {
            bag.push(&mut pool, retire_counter(&counter, t));
        }
        assert_eq!(bag.len(), n);
        assert_eq!(bag.segments(), 4);
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        let freed = unsafe { bag.reclaim_all(&mut pool) };
        assert_eq!(freed, n);
        assert!(bag.is_empty());
        assert_eq!(bag.segments(), 0);
        assert_eq!(pool.free_segments(), 4, "drained segments must be pooled");
        assert_eq!(counter.load(Ordering::SeqCst), n);
    }

    #[test]
    fn reclaim_if_frees_only_matching_nodes_and_preserves_survivors() {
        // Each mask bit selects which of 2*SEG_CAP nodes are reclaimable.
        for round in 0..64u64 {
            let counter = Arc::new(AtomicUsize::new(0));
            let mut pool = SegPool::new();
            let mut bag = SegBag::new();
            let n = 2 * SEG_CAP as u64;
            for t in 0..n {
                bag.push(&mut pool, retire_counter(&counter, t));
            }
            // A different pseudo-random keep/free pattern per round.
            let keep =
                |t: u64| (t.wrapping_mul(2654435761).wrapping_add(round * 97)).is_multiple_of(3);
            let expected_freed = (0..n).filter(|&t| !keep(t)).count();
            // SAFETY: retired nodes are owned by the bag; the predicate only spares still-protected ones.
            let freed = unsafe { reclaim_if(&mut bag, &mut pool, |node| !keep(node.stamp())) };
            assert_eq!(freed, expected_freed, "round {round}");
            assert_eq!(counter.load(Ordering::SeqCst), expected_freed);
            assert_eq!(bag.len(), n as usize - expected_freed);
            let survivors: Vec<u64> = bag.iter().map(RetiredPtr::stamp).collect();
            let expected: Vec<u64> = (0..n).filter(|&t| keep(t)).collect();
            assert_eq!(
                survivors, expected,
                "round {round}: compaction must keep order"
            );
            // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
            unsafe { bag.reclaim_all(&mut pool) };
        }
    }

    #[test]
    fn steady_state_cycles_never_touch_the_allocator_pool_side() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut bag = SegBag::new();
        // Warm up to the high-water mark, then drain.
        for t in 0..(4 * SEG_CAP) as u64 {
            bag.push(&mut pool, retire_counter(&counter, t));
        }
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        unsafe { bag.reclaim_all(&mut pool) };
        let pooled = pool.free_segments();
        assert_eq!(pooled, 4);
        // Refill/drain cycles at or below the high-water mark recycle segments
        // instead of allocating: the pool never grows past its peak.
        for _ in 0..8 {
            for t in 0..(4 * SEG_CAP) as u64 {
                bag.push(&mut pool, retire_counter(&counter, t));
            }
            assert_eq!(pool.free_segments(), 0, "all segments in use");
            // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
            unsafe { bag.reclaim_all(&mut pool) };
            assert_eq!(pool.free_segments(), pooled, "segments fully recycled");
        }
    }

    #[test]
    fn drained_segments_are_unlinked_at_head_middle_and_tail() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut bag = SegBag::new();
        for t in 0..(3 * SEG_CAP) as u64 {
            bag.push(&mut pool, retire_counter(&counter, t));
        }
        // Free the first and last segment's nodes entirely: both drained
        // segments (the head and the tail) must be unlinked and pooled while
        // the middle segment's survivors stay in place, unmoved.
        let keep = |t: u64| (SEG_CAP as u64..2 * SEG_CAP as u64).contains(&t);
        // SAFETY: retired nodes are owned by the bag; the predicate only spares still-protected ones.
        let freed = unsafe { reclaim_if(&mut bag, &mut pool, |n| !keep(n.stamp())) };
        assert_eq!(freed, 2 * SEG_CAP);
        assert_eq!(bag.len(), SEG_CAP);
        assert_eq!(bag.segments(), 1, "drained segments must be unlinked");
        // Both drained segments, and the one the taken nodes' chain had to add
        // before the first of them came back.
        assert_eq!(pool.free_segments(), 3);
        let survivors: Vec<u64> = bag.iter().map(RetiredPtr::stamp).collect();
        assert_eq!(
            survivors,
            (SEG_CAP as u64..2 * SEG_CAP as u64).collect::<Vec<_>>()
        );
        // Pushing after the tail was unlinked continues on the surviving
        // (now full) segment's successor, drawn from the pool.
        bag.push(&mut pool, retire_counter(&counter, 1_000));
        assert_eq!(bag.segments(), 2);
        assert_eq!(pool.free_segments(), 2);
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        unsafe { bag.reclaim_all(&mut pool) };
    }

    #[test]
    fn partial_reclaims_compact_within_segments_with_one_merge_per_pass() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut bag = SegBag::new();
        for t in 0..(3 * SEG_CAP) as u64 {
            bag.push(&mut pool, retire_counter(&counter, t));
        }
        // Free two thirds, scattered: every segment keeps some survivors, so no
        // segment is *drained* — survivors compact within their segment, and
        // exactly one adjacent pair (whose combined survivors fit one segment)
        // is merged this pass. The move cost stays O(freed) + one bounded merge,
        // never O(bag).
        // SAFETY: retired nodes are owned by the bag; the predicate only spares still-protected ones.
        let freed = unsafe { reclaim_if(&mut bag, &mut pool, |n| !n.stamp().is_multiple_of(3)) };
        assert_eq!(freed, 2 * SEG_CAP);
        assert_eq!(bag.len(), SEG_CAP);
        assert_eq!(
            bag.segments(),
            2,
            "exactly one adjacent pair merged this pass"
        );
        // The merged shell is recycled (and the two segments the taken nodes
        // filled: no segment of the bag drained to feed them).
        assert_eq!(pool.free_segments(), 1 + 2);
        let survivors: Vec<u64> = bag.iter().map(RetiredPtr::stamp).collect();
        let expected: Vec<u64> = (0..3 * SEG_CAP as u64)
            .filter(|t| t.is_multiple_of(3))
            .collect();
        assert_eq!(
            survivors, expected,
            "order preserved within and across segments"
        );
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        unsafe { bag.reclaim_all(&mut pool) };
        assert_eq!(pool.free_segments(), 3 + 2);
    }

    #[test]
    fn scattered_survivors_converge_to_one_segment_over_passes() {
        // The fragmentation scenario from the ROADMAP: long-lived survivors
        // scattered one per segment. Each no-op pass performs one adjacent
        // merge, so the chain shrinks by one segment per scan until every
        // survivor shares a single segment — instead of each pinning its own.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut bag = SegBag::new();
        let segments = 4;
        for t in 0..(segments * SEG_CAP) as u64 {
            bag.push(&mut pool, retire_counter(&counter, t));
        }
        // Keep exactly one node per segment.
        let keep = |t: u64| t.is_multiple_of(SEG_CAP as u64);
        // SAFETY: retired nodes are owned by the bag; the predicate only spares still-protected ones.
        let freed = unsafe { reclaim_if(&mut bag, &mut pool, |n| !keep(n.stamp())) };
        assert_eq!(freed, segments * (SEG_CAP - 1));
        // Pass 1 already merged one pair; every further (empty) pass merges one
        // more until a single segment remains.
        assert_eq!(bag.segments(), segments - 1);
        for remaining in (1..segments - 1).rev() {
            // SAFETY: retired nodes are owned by the bag; the predicate only spares still-protected ones.
            let freed = unsafe { reclaim_if(&mut bag, &mut pool, |_| false) };
            assert_eq!(freed, 0);
            assert_eq!(bag.segments(), remaining);
        }
        assert_eq!(bag.len(), segments);
        let survivors: Vec<u64> = bag.iter().map(RetiredPtr::stamp).collect();
        let expected: Vec<u64> = (0..segments as u64).map(|i| i * SEG_CAP as u64).collect();
        assert_eq!(survivors, expected, "merges preserve order");
        // Converged: further passes are no-ops.
        // SAFETY: retired nodes are owned by the bag; the predicate only spares still-protected ones.
        unsafe { reclaim_if(&mut bag, &mut pool, |_| false) };
        assert_eq!(bag.segments(), 1);
        // The bag is still writable after merges relocated the tail.
        bag.push(&mut pool, retire_counter(&counter, 1_000));
        assert_eq!(bag.len(), segments + 1);
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        unsafe { bag.reclaim_all(&mut pool) };
        // The bag's four are back (beside what the taken nodes' chain added).
        assert!(pool.free_segments() >= segments);
    }

    #[test]
    fn transfer_walk_visits_every_survivor_exactly_once() {
        for round in 0..16u64 {
            let counter = Arc::new(AtomicUsize::new(0));
            let mut pool = SegPool::new();
            let mut bag = SegBag::new();
            let n = 3 * SEG_CAP as u64;
            for t in 0..n {
                bag.push(&mut pool, retire_counter(&counter, t));
            }
            let keep =
                |t: u64| !(t.wrapping_mul(2654435761).wrapping_add(round * 31)).is_multiple_of(4);
            let mut visited = Vec::new();
            let mut taken = SegBag::new();
            let freed = bag.transfer_walk(
                &mut pool,
                &mut taken,
                |_| true,
                |node| !keep(node.stamp()),
                |survivor| visited.push(survivor.stamp()),
            );
            let expected: Vec<u64> = (0..n).filter(|&t| keep(t)).collect();
            assert_eq!(
                visited, expected,
                "round {round}: every survivor visited once, in order"
            );
            assert_eq!(freed, n as usize - expected.len());
            assert_eq!(bag.len(), expected.len());
            let remaining: Vec<u64> = bag.iter().map(RetiredPtr::stamp).collect();
            assert_eq!(
                remaining, expected,
                "round {round}: visited set matches the bag after merges"
            );
            assert!(taken.iter().all(|node| !keep(node.stamp())));
            // SAFETY: every node in the bags was handed over by `retire` and none is protected — the test owns them all.
            unsafe {
                bag.reclaim_all(&mut pool);
                taken.reclaim_all(&mut pool);
            }
        }
    }

    #[test]
    fn transfer_walk_stops_at_the_first_blocking_node_and_frees_nothing() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut bag = SegBag::new();
        let n = 2 * SEG_CAP as u64 + 5;
        for t in 0..n {
            bag.push(&mut pool, retire_counter(&counter, t));
        }
        // Age cutoff mid-chain: nodes 0..cutoff are "old enough"; node 7 is
        // protected and must survive even inside the scanned prefix.
        let cutoff = SEG_CAP as u64 + 3;
        let mut taken = SegBag::new();
        let freed = bag.transfer_walk(
            &mut pool,
            &mut taken,
            |node| node.stamp() < cutoff,
            |node| node.stamp() != 7,
            |_| {},
        );
        assert_eq!(
            freed,
            cutoff as usize - 1,
            "prefix minus the protected node"
        );
        assert_eq!(bag.len(), n as usize - freed);
        assert_eq!((taken.len(), counter.load(Ordering::SeqCst)), (freed, 0));
        // SAFETY: the test owns every node taken; none is protected.
        unsafe { taken.reclaim_all(&mut pool) };
        // Everything at or past the cutoff was never examined; node 7 survived.
        let survivors: Vec<u64> = bag.iter().map(RetiredPtr::stamp).collect();
        let expected: Vec<u64> = std::iter::once(7).chain(cutoff..n).collect();
        assert_eq!(survivors, expected);
        assert_eq!(counter.load(Ordering::SeqCst), freed);
        // A later unrestricted pass can still free the rest.
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        let freed = unsafe { bag.reclaim_all(&mut pool) };
        assert_eq!(freed, n as usize - (cutoff as usize - 1));
        assert!(bag.is_empty());
    }

    #[test]
    fn pop_empties_the_oldest_segment_first_and_recycles_it() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut bag = SegBag::new();
        let mut other = SegBag::new();
        assert!(bag.pop(&mut pool).is_none());
        for t in 0..3u64 {
            bag.push(&mut pool, retire_counter_sized(&counter, t, 10));
        }
        for t in 3..(SEG_CAP as u64 + 4) {
            other.push(&mut pool, retire_counter_sized(&counter, t, 10));
        }
        bag.splice(&mut other); // chain: [0 1 2] -> [3 ..= 14] -> [15]
        let total = SEG_CAP + 4;
        let mut order = Vec::new();
        while let Some(node) = bag.pop(&mut pool) {
            order.push(node.stamp());
            assert_eq!(
                (bag.len(), bag.bytes()),
                (total - order.len(), 10 * bag.len())
            );
            // SAFETY: the test owns the node; nothing protects it.
            unsafe { node.reclaim() };
        }
        // Newest first within a segment, oldest segment first.
        let expected: Vec<u64> = (0..3).rev().chain((3..15).rev()).chain([15]).collect();
        assert_eq!(order, expected);
        assert_eq!((bag.segments(), pool.free_segments()), (0, 3));
        assert_eq!(counter.load(Ordering::SeqCst), total);
        // The drained bag is writable again.
        bag.push(&mut pool, retire_counter(&counter, 99));
        assert_eq!((bag.len(), pool.free_segments()), (1, 2));
        // SAFETY: the test owns every node in the bag; none is protected.
        unsafe { bag.reclaim_all(&mut pool) };
    }

    #[test]
    fn splice_is_o1_and_moves_everything() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut a = SegBag::new();
        let mut b = SegBag::new();
        for t in 0..5u64 {
            a.push(&mut pool, retire_counter(&counter, t));
        }
        for t in 5..(SEG_CAP as u64 + 9) {
            b.push(&mut pool, retire_counter(&counter, t));
        }
        let total = a.len() + b.len();
        a.splice(&mut b);
        assert_eq!(a.len(), total);
        assert!(b.is_empty());
        assert_eq!(b.segments(), 0);
        // Splicing leaves a partial segment mid-chain; iteration and reclaim
        // must both handle it.
        let seen: Vec<u64> = a.iter().map(RetiredPtr::stamp).collect();
        assert_eq!(seen.len(), total);
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        let freed = unsafe { a.reclaim_all(&mut pool) };
        assert_eq!(freed, total);
        assert_eq!(counter.load(Ordering::SeqCst), total);
        // Splicing an empty bag into an empty bag is a no-op.
        a.splice(&mut b);
        assert!(a.is_empty());
    }

    #[test]
    fn splice_into_empty_adopts_the_chain() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut a = SegBag::new();
        let mut b = SegBag::new();
        for t in 0..3u64 {
            b.push(&mut pool, retire_counter(&counter, t));
        }
        a.splice(&mut b);
        assert_eq!(a.len(), 3);
        // The adopted chain is writable (push goes to the adopted tail).
        a.push(&mut pool, retire_counter(&counter, 3));
        assert_eq!(a.len(), 4);
        assert_eq!(a.segments(), 1);
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        unsafe { a.reclaim_all(&mut pool) };
    }

    #[test]
    fn pool_prewarm_covers_the_requested_node_count() {
        let pool = SegPool::with_node_capacity(3 * SEG_CAP + 1);
        assert_eq!(pool.free_segments(), 4);
        let empty = SegPool::with_node_capacity(0);
        assert_eq!(empty.free_segments(), 0);
    }

    #[test]
    fn reclaim_after_splice_handles_partial_segments_mid_chain() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut a = SegBag::new();
        for t in 0..2u64 {
            a.push(&mut pool, retire_counter(&counter, t));
        }
        let mut b = SegBag::new();
        for t in 2..(2 + 2 * SEG_CAP as u64) {
            b.push(&mut pool, retire_counter(&counter, t));
        }
        a.splice(&mut b); // chain: [2-node partial] -> [full] -> [full]
        let total = a.len();
        // Keep everything: the pass must traverse the partial segment mid-chain
        // without losing, duplicating, or migrating nodes.
        // SAFETY: the test owns every node in the bag; none is protected.
        let freed = unsafe { reclaim_if(&mut a, &mut pool, |_| false) };
        assert_eq!(freed, 0);
        assert_eq!(a.len(), total);
        let survivors: Vec<u64> = a.iter().map(RetiredPtr::stamp).collect();
        assert_eq!(survivors, (0..total as u64).collect::<Vec<_>>());
        // Nothing was freed, so all 3 segments (partial one included) remain.
        assert_eq!(a.segments(), 3);
        // SAFETY: every node in the bag was handed over by `retire` and none is protected — the test owns them all.
        unsafe { a.reclaim_all(&mut pool) };
        assert_eq!(counter.load(Ordering::SeqCst), total);
    }
}
