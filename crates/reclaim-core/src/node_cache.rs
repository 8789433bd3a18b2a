//! Node blocks: the one allocation path of guard-layer and expert nodes, the
//! per-handle cache behind the free stage, and the per-scheme arena behind
//! both.
//!
//! Where a freed block goes is decided here and nowhere else: a retired
//! block's destructor ([`drop_block`], the one
//! [`Guard::retire_block`](crate::Guard::retire_block) names) drops its node in
//! place and offers the block, with the layout read back from the node
//! ([`Block`]), to the freeing handle's [`NodeCache`] — a free list per 8-byte
//! size class, for that handle's next allocation of the class
//! ([`Guard::alloc_block`](crate::Guard::alloc_block)). A node with nothing to
//! drop in a block of a cached class retires with no destructor, as a plain
//! block ([`RetiredPtr`]), and its free offers the block by its recorded size
//! the same way. Blocks are sized in 8-byte steps and aligned to at least 8,
//! so a cached block is reused only for the identical layout and stays valid
//! to give back; a block aligned past 8 or past the largest class is never
//! cached, and is allocated and freed with its own layout by the global
//! allocator.
//!
//! **The arena.** Every block of a cached class lives in an arena: each
//! scheme's [`SchemeCore`](crate::SchemeCore) owns one, which carves a
//! structure's sentinels too ([`crate::SchemeCore::alloc_block`]).
//! An arena owns [`CHUNK_BYTES`] chunks, each aligned to its size, whose first
//! [`CHUNK_HEADER_BYTES`] name the owning arena; it bump-carves blocks at
//! their class stride (the list's 24 B node packs at 24 B, where glibc spaces
//! it at 32 B) and keeps one shared free list per class. A cache miss takes
//! [`REFILL_BLOCKS`] of its class under one lock: off that list while it holds
//! any, else carved. A cache past `NODE_CACHE_BYTES` (as many blocks at
//! once), a structure's teardown, a never-linked node and a departing
//! handle's cache hand their blocks to the arena their chunk names — never to
//! the allocator. So a structure's nodes, sentinels included, sit in its
//! scheme's chunks and nowhere else, packed and fresh with the scheme: on the
//! Fig. 3 list that decided throughput (`list_read_mostly`, 2-vCPU host, ten
//! alternating 30 s benchmark pairs: +44 … +61 % for every scheme but RC; a
//! process-wide arena built the same way lost QSBR, QSense and RC 2–28 % in an
//! experimental build, because a fresh structure reused blocks earlier ones
//! had scattered).
//!
//! Scheme drop frees every chunk at once, after the parked leftovers have
//! given their blocks back, and with them the plain blocks Leaky kept no
//! record of ([`crate::leaky`]): their bytes are credited to the arena as
//! given back. A structure's `Drop` frees its sentinels while it holds its
//! scheme. If a block is still out then (an [`Owned`](crate::Owned) kept past
//! its scheme), the arena is leaked instead, so no block ever dangles.

use crate::clock::Era;
use crate::retired::{DropFn, RetiredPtr};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::{Mutex, MutexGuard};

/// Bytes one handle's cache holds at most; a freed block past it goes to its
/// arena's shared list. 256 KiB was measured against it
/// (2-vCPU host, alternating 30 s benchmark pairs): it took Cadence's loss
/// from freeing at the scan
/// (`READY_FREES_PER_RETIRE`) back to
/// −0.8 % on `queue_churn` (2 of 4 pairs), but `skiplist_mixed` read
/// −7 … −11 % on every scheme, `none` included (0 of 3 pairs; the cause was
/// not isolated). 64 KiB stays.
pub(crate) const NODE_CACHE_BYTES: usize = 64 << 10;

/// Bytes of one arena chunk, which is aligned to its size: a block's chunk is
/// its address rounded down.
pub const CHUNK_BYTES: usize = 64 << 10;

/// The head of every chunk: the owning arena's address, then the previous
/// chunk's. A cache line, so blocks are never carved into it.
pub const CHUNK_HEADER_BYTES: usize = 64;

/// Blocks a cache miss takes off its arena under one lock: the one it
/// asked for and the rest for its next misses; a cache over
/// `NODE_CACHE_BYTES` gives as many back.
pub const REFILL_BLOCKS: usize = 16;

const ALIGN: usize = 8;
/// Size classes: blocks of 8, 16, …, 256 B are cached.
const CLASSES: usize = 32;

/// A node at the start of a block of this module's.
///
/// # Safety
///
/// [`layout`](Self::layout) returns the layout the node's block was allocated
/// for.
pub unsafe trait Block: Sized {
    /// The layout the node's block was allocated for (by default its type's).
    fn layout(&self) -> Layout {
        Layout::new::<Self>()
    }
}

/// The layout a node of `layout` is allocated, cached and freed with.
#[inline]
pub(crate) fn block_layout(layout: Layout) -> Layout {
    let size = layout.size().max(1).next_multiple_of(ALIGN);
    Layout::from_size_align(size, layout.align().max(ALIGN)).expect("a block layout")
}

/// The size class of a block layout, if it is one a cache keeps.
#[inline]
fn class_of(block: Layout) -> Option<usize> {
    (block.align() == ALIGN && block.size() <= CLASSES * ALIGN).then(|| block.size() / ALIGN - 1)
}

/// The retire record of `node`, a node at the start of its block of this
/// module's: a plain block when `T` has nothing to drop and the block is of a
/// cached class, else one whose destructor is [`drop_block`].
///
/// # Safety
///
/// The [`RetiredPtr::new`] contract for `node`.
#[inline]
pub(crate) unsafe fn retired<T: Block>(node: *mut T, birth_era: Era) -> RetiredPtr {
    // SAFETY: the caller's contract; the layout is read off the live node.
    let block = unsafe { block_layout((*node).layout()) };
    let plain = !std::mem::needs_drop::<T>() && class_of(block).is_some();
    let drop_fn: Option<DropFn> = (!plain).then_some(drop_block::<T>);
    // SAFETY: as above; a plain block is of a cached class, sized as one.
    unsafe { RetiredPtr::with_drop_fn(node.cast(), drop_fn, birth_era, block.size()) }
}

/// A block of `block` (a [`block_layout`] of no cached class) from the global
/// allocator.
fn alloc_global(block: Layout) -> NonNull<u8> {
    // SAFETY: a block layout is never empty.
    NonNull::new(unsafe { alloc(block) }).unwrap_or_else(|| handle_alloc_error(block))
}

/// `block`, handed out for a node of `layout`: registered with the oracle.
#[inline]
fn registered(block: NonNull<u8>, _layout: Layout) -> NonNull<u8> {
    #[cfg(feature = "check-oracle")]
    crate::oracle::register(block.as_ptr(), _layout.size());
    block
}

/// Frees the block of a node destroyed outside the retire pipeline.
///
/// # Safety
///
/// `block` came from this module for `layout`, holds no live node, nothing
/// can reach it, and it is freed once.
pub(crate) unsafe fn free_block(block: *mut u8, layout: Layout) {
    #[cfg(feature = "check-oracle")]
    crate::oracle::deregister(block);
    // SAFETY: the caller's contract.
    unsafe { put(None, block, block_layout(layout)) };
}

/// Drops `node` in place and frees its block: a structure's teardown and a
/// node never published.
///
/// # Safety
///
/// `node` is a live node at the start of its block, nothing can reach it, and
/// it is freed once.
pub unsafe fn free<T: Block>(node: *mut T) {
    #[cfg(feature = "check-oracle")]
    crate::oracle::deregister(node.cast());
    // SAFETY: the caller's contract; no cache is offered.
    unsafe { drop_block::<T>(node.cast(), None) }
}

/// The destructor ([`DropFn`]) every block is retired
/// with: drops the node in place and offers its block to `cache`, which keeps
/// it if its class is one a cache keeps and the cache holds under
/// `NODE_CACHE_BYTES`; otherwise, or without a cache, a class-sized block
/// goes to its arena and any other is freed with its own layout.
///
/// # Safety
///
/// `ptr` is a live `T` at the start of its block, nothing can reach it, it
/// is freed once, and the oracle no longer tracks it.
pub unsafe fn drop_block<T: Block>(ptr: *mut u8, cache: Option<&mut NodeCache>) {
    let node = ptr.cast::<T>();
    // SAFETY: the caller's contract; the layout is read before the drop.
    unsafe {
        let layout = block_layout((*node).layout());
        std::ptr::drop_in_place(node);
        put(cache, ptr, layout);
    }
}

/// Frees a plain block of `size` bytes ([`retired`]) as [`drop_block`] would.
///
/// # Safety
///
/// As [`drop_block`]'s.
#[inline]
pub(crate) unsafe fn free_plain(block: *mut u8, size: usize, cache: Option<&mut NodeCache>) {
    // SAFETY: a plain block is of a cached class, whose layout is `size`
    // bytes aligned to 8; the rest is the caller's contract.
    unsafe { put(cache, block, Layout::from_size_align_unchecked(size, ALIGN)) }
}

/// Takes a block of `layout` (a [`block_layout`]) whose node is gone, as
/// [`drop_block`] says.
///
/// # Safety
///
/// The block came from this module for `layout`, nothing can reach it, and
/// the oracle no longer tracks it.
#[inline]
unsafe fn put(cache: Option<&mut NodeCache>, block: *mut u8, layout: Layout) {
    let Some(class) = class_of(layout) else {
        // SAFETY: the caller's contract: the allocator's, with this layout.
        return unsafe { dealloc(block, layout) };
    };
    match cache {
        Some(cache) if cache.bytes + layout.size() <= NODE_CACHE_BYTES => {
            // SAFETY: the block is ours and at least a word long.
            unsafe { cache.list(block, class) };
        }
        // SAFETY: the caller's contract: a carved block of `class`.
        Some(cache) => unsafe { cache.spill(class, block) },
        // SAFETY: as above.
        None => unsafe { give_back(block, class) },
    }
}

/// The arena whose chunk holds `block`.
///
/// # Safety
///
/// An arena carved the block.
unsafe fn arena_of(block: *mut u8) -> *const Arena {
    let chunk = (block as usize & !(CHUNK_BYTES - 1)) as *const *const Arena;
    // SAFETY: a chunk starts with its arena's address.
    unsafe { *chunk }
}

/// Hands a free block of `class` to the arena its chunk names.
///
/// # Safety
///
/// An arena carved the block for `class`, it is free and nothing can reach
/// it.
unsafe fn give_back(block: *mut u8, class: usize) {
    // SAFETY: the caller's contract, and an arena with a block out is never
    // freed.
    unsafe { (*arena_of(block)).lock().list(block, class) };
}

/// Links free `block` in front of the list at `head`.
///
/// # Safety
///
/// The block is free and ours, and nothing can reach it.
#[inline]
unsafe fn push(head: &mut *mut u8, block: *mut u8) {
    // SAFETY: the caller's contract; a block is at least a word long.
    unsafe { block.cast::<*mut u8>().write(*head) };
    *head = block;
}

/// Unlinks the first block of the list at `head`, if it holds one.
#[inline]
fn pop(head: &mut *mut u8) -> Option<NonNull<u8>> {
    let block = NonNull::new(*head)?;
    // SAFETY: a listed block is free and ours; its first word links the next.
    *head = unsafe { block.cast::<*mut u8>().read() };
    Some(block)
}

/// One handle's cache of freed node blocks (module docs).
pub struct NodeCache {
    /// Each class's list of freed blocks; a free block's first word links the
    /// next.
    heads: [*mut u8; CLASSES],
    /// Each class's last listed block, while its list holds any: where
    /// [`release`](Self::release) splices the list onto the arena's.
    tails: [*mut u8; CLASSES],
    /// Bytes of those blocks: what the cap bounds and the books show.
    bytes: usize,
    /// `bytes` as last booked ([`StatsSnapshot::cached_bytes`](crate::StatsSnapshot::cached_bytes)).
    booked: usize,
    /// Each class's spares: the rest of its last refill, not yet handed out.
    spares: [*mut u8; CLASSES],
    /// Where a miss refills: the scheme's arena, which outlives the cache.
    arena: NonNull<Arena>,
}

// SAFETY: the cache owns its free blocks outright, as a `SegPool` its
// segments, and its arena is `Sync`.
unsafe impl Send for NodeCache {}

impl NodeCache {
    /// An empty cache whose misses refill from `arena`.
    pub(crate) fn new(arena: &SchemeArena) -> Self {
        Self {
            heads: [std::ptr::null_mut(); CLASSES],
            tails: [std::ptr::null_mut(); CLASSES],
            bytes: 0,
            booked: 0,
            spares: [std::ptr::null_mut(); CLASSES],
            arena: arena.0,
        }
    }

    /// Lists a freed block of `class`.
    ///
    /// # Safety
    ///
    /// The block is free, ours, of `class`, and nothing can reach it.
    unsafe fn list(&mut self, block: *mut u8, class: usize) {
        if self.heads[class].is_null() {
            self.tails[class] = block;
        }
        // SAFETY: the caller's contract.
        unsafe { push(&mut self.heads[class], block) };
        self.bytes += (class + 1) * ALIGN;
    }

    /// Unlinks a freed block of `class`, if its list holds one.
    fn pop(&mut self, class: usize) -> Option<NonNull<u8>> {
        let block = pop(&mut self.heads[class])?;
        self.bytes -= (class + 1) * ALIGN;
        Some(block)
    }

    /// A block for a node of `layout`: a freed one of its class, else a
    /// spare, else one off the arena.
    #[inline]
    pub(crate) fn alloc(&mut self, layout: Layout) -> NonNull<u8> {
        let block = block_layout(layout);
        let fresh = match class_of(block) {
            Some(class) => match self.pop(class) {
                Some(cached) => cached,
                None => pop(&mut self.spares[class]).unwrap_or_else(|| self.refill(class)),
            },
            None => alloc_global(block),
        };
        registered(fresh, block)
    }

    /// A miss: a block of `class` off the arena, and up to
    /// [`REFILL_BLOCKS`] − 1 spares, all under one lock — listed ones while
    /// the arena's list holds any, else carved ones.
    #[cold]
    fn refill(&mut self, class: usize) -> NonNull<u8> {
        // SAFETY: the arena outlives the cache.
        let arena = unsafe { &*self.arena.as_ptr() };
        let mut carver = arena.lock();
        let listed = !carver.heads[class].is_null();
        let block = carver.take(arena, class);
        for _ in 1..REFILL_BLOCKS {
            let spare = if listed {
                match carver.pop(class) {
                    Some(spare) => spare,
                    None => break,
                }
            } else {
                carver.take(arena, class)
            };
            // SAFETY: off the arena's list or freshly carved: free and ours.
            unsafe { push(&mut self.spares[class], spare.as_ptr()) };
        }
        block
    }

    /// Gives `first` and up to [`REFILL_BLOCKS`] − 1 of the class's freed
    /// blocks back to the arena, under one lock.
    ///
    /// # Safety
    ///
    /// `first` is a free block of `class` that nothing can reach.
    #[cold]
    unsafe fn spill(&mut self, class: usize, first: *mut u8) {
        // SAFETY: the arena outlives the cache.
        let mut carver = unsafe { &*self.arena.as_ptr() }.lock();
        let (mut next, mut left) = (NonNull::new(first), REFILL_BLOCKS - 1);
        while let Some(block) = next {
            // SAFETY: free, of `class`, and a block of this scheme's: carved
            // by the cache's arena, sentinels included.
            unsafe { carver.list(block.as_ptr(), class) };
            next = if left == 0 { None } else { self.pop(class) };
            left = left.saturating_sub(1);
        }
    }

    /// Whether `block` is of this cache's arena.
    ///
    /// # Safety
    ///
    /// An arena carved the block.
    pub(crate) unsafe fn owns(&self, block: *mut u8) -> bool {
        // SAFETY: the caller's contract.
        std::ptr::eq(unsafe { arena_of(block) }, self.arena.as_ptr())
    }

    /// The bytes held, and how far they moved since the last call.
    pub(crate) fn book(&mut self) -> (usize, i64) {
        let delta = self.bytes as i64 - self.booked as i64;
        self.booked = self.bytes;
        (self.bytes, delta)
    }

    /// Gives every listed block and every spare back to the arena — a cache
    /// dropped without it leaks them, with the arena; returns the bytes its
    /// last booking showed, which leave the books with them. The spares (a
    /// refill's rest, at most [`REFILL_BLOCKS`] − 1 a class) join their
    /// lists, and each list goes onto the arena's in one splice, under one
    /// lock.
    pub(crate) fn release(&mut self) -> usize {
        for class in 0..CLASSES {
            while let Some(spare) = pop(&mut self.spares[class]) {
                // SAFETY: a spare is a free block of its class, ours.
                unsafe { self.list(spare.as_ptr(), class) };
            }
        }
        if self.bytes > 0 {
            // SAFETY: the arena outlives the cache.
            let mut carver = unsafe { &*self.arena.as_ptr() }.lock();
            for class in 0..CLASSES {
                let head = std::mem::replace(&mut self.heads[class], std::ptr::null_mut());
                if !head.is_null() {
                    let tail = self.tails[class].cast::<*mut u8>();
                    // SAFETY: the list runs from `head` to `tail`, every block
                    // of it free, of `class` and of this arena; the tail's
                    // first word links the arena's list behind it.
                    unsafe { tail.write(carver.heads[class]) };
                    carver.heads[class] = head;
                }
            }
            carver.free += std::mem::take(&mut self.bytes);
        }
        std::mem::take(&mut self.booked)
    }
}

/// A node arena (module docs): the chunks the blocks of the cached classes are
/// carved from, and one shared free list per class.
pub(crate) struct Arena {
    carver: Mutex<Carver>,
}

/// An arena's books, behind its lock.
struct Carver {
    /// Each class's shared free list; a free block's first word links the next.
    heads: [*mut u8; CLASSES],
    /// Bytes on those lists.
    free: usize,
    /// Bytes ever carved: each carved block is out or listed.
    carved: usize,
    /// The newest chunk (null before the first); its header links the rest.
    chunk: *mut u8,
    chunks: usize,
    /// Where the next block is carved, and where the newest chunk ends.
    cursor: usize,
    end: usize,
}

// SAFETY: the carver owns its chunks and its listed blocks outright.
unsafe impl Send for Carver {}

/// A chunk's layout: aligned to its size.
const CHUNK: Layout = match Layout::from_size_align(CHUNK_BYTES, CHUNK_BYTES) {
    Ok(layout) => layout,
    Err(_) => panic!("a chunk layout"),
};

impl Arena {
    fn new() -> Self {
        Self {
            carver: Mutex::new(Carver {
                heads: [std::ptr::null_mut(); CLASSES],
                free: 0,
                carved: 0,
                chunk: std::ptr::null_mut(),
                chunks: 0,
                cursor: 0,
                end: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Carver> {
        self.carver.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The bytes of its chunks, and of its shared lists
    /// ([`StatsSnapshot::arena_bytes`](crate::StatsSnapshot::arena_bytes)).
    pub(crate) fn footprint(&self) -> (usize, usize) {
        let carver = self.lock();
        (carver.chunks * CHUNK_BYTES, carver.free)
    }
}

impl Carver {
    /// A block of `class` (of `arena`, whose books these are): off the shared
    /// list, else carved.
    fn take(&mut self, arena: &Arena, class: usize) -> NonNull<u8> {
        if let Some(block) = self.pop(class) {
            return block;
        }
        let size = (class + 1) * ALIGN;
        if self.end - self.cursor < size {
            self.grow(arena);
        }
        let block = self.cursor as *mut u8;
        self.cursor += size;
        self.carved += size;
        // SAFETY: inside a chunk, past its header.
        unsafe { NonNull::new_unchecked(block) }
    }

    /// Unlinks a listed block of `class`, if there is one.
    fn pop(&mut self, class: usize) -> Option<NonNull<u8>> {
        let block = pop(&mut self.heads[class])?;
        self.free -= (class + 1) * ALIGN;
        Some(block)
    }

    /// Lists a free block of `class`.
    ///
    /// # Safety
    ///
    /// This arena carved the block for `class`; it is free and unreachable.
    unsafe fn list(&mut self, block: *mut u8, class: usize) {
        // SAFETY: the caller's contract.
        unsafe { push(&mut self.heads[class], block) };
        self.free += (class + 1) * ALIGN;
    }

    /// Starts a chunk of `arena`'s, named in its header.
    fn grow(&mut self, arena: &Arena) {
        // SAFETY: a chunk layout is not empty.
        let chunk = unsafe { alloc(CHUNK) };
        if chunk.is_null() {
            handle_alloc_error(CHUNK);
        }
        // SAFETY: the header's two words are inside the fresh chunk.
        unsafe {
            chunk.cast::<*const Arena>().write(arena);
            chunk.cast::<*mut u8>().add(1).write(self.chunk);
        }
        self.chunk = chunk;
        self.chunks += 1;
        self.cursor = chunk as usize + CHUNK_HEADER_BYTES;
        self.end = chunk as usize + CHUNK_BYTES;
    }
}

/// A scheme's arena, held by its [`SchemeCore`](crate::SchemeCore) and dropped
/// after everything else there: it frees every chunk if every block came back,
/// and leaks the arena otherwise (module docs).
pub(crate) struct SchemeArena(NonNull<Arena>);

// SAFETY: the arena is `Sync`; the owner only frees it at its own drop.
unsafe impl Send for SchemeArena {}
// SAFETY: a shared `SchemeArena` hands out only `&Arena`, which is `Sync`
// (its books sit behind one `Mutex`), and no `&self` method frees it.
unsafe impl Sync for SchemeArena {}

impl SchemeArena {
    pub(crate) fn new() -> Self {
        Self(NonNull::from(Box::leak(Box::new(Arena::new()))))
    }

    pub(crate) fn get(&self) -> &Arena {
        // SAFETY: freed only by `drop`.
        unsafe { self.0.as_ref() }
    }

    /// A fresh block for a node of `layout` that no handle allocates: carved
    /// or off the shared list for a cached class, else from the global
    /// allocator.
    pub(crate) fn alloc(&self, layout: Layout) -> NonNull<u8> {
        let block = block_layout(layout);
        let fresh = match class_of(block) {
            Some(class) => self.get().lock().take(self.get(), class),
            None => alloc_global(block),
        };
        registered(fresh, block)
    }

    /// Counts `bytes` of blocks as given back that go with their chunks
    /// instead (module docs).
    ///
    /// # Safety
    ///
    /// They are out, nothing reaches them, and no one hands them back.
    pub(crate) unsafe fn credit(&self, bytes: usize) {
        self.get().lock().free += bytes;
    }
}

impl Drop for SchemeArena {
    fn drop(&mut self) {
        let carver = self.get().lock();
        if carver.free != carver.carved {
            // A block is still out, and its chunk must name a live arena.
            return;
        }
        let (mut chunk, mut _carved_to) = (carver.chunk, carver.cursor);
        drop(carver);
        while !chunk.is_null() {
            // A block the oracle never saw freed (a kept plain block) leaves
            // its table with the chunk, so the next owner of the address
            // starts clean.
            #[cfg(feature = "check-oracle")]
            crate::oracle::forget_range(chunk, _carved_to - chunk as usize);
            // SAFETY: every block came back, so nothing reaches a chunk any
            // more; each is freed once, its header read first.
            unsafe {
                let previous = chunk.cast::<*mut u8>().add(1).read();
                dealloc(chunk, CHUNK);
                chunk = previous;
            }
            _carved_to = chunk as usize + CHUNK_BYTES;
        }
        // SAFETY: leaked by `new`, freed once, and no chunk names it now.
        // Sanctioned free path: the arena's own box, leaked by `new`.
        #[allow(clippy::disallowed_methods)]
        drop(unsafe { Box::from_raw(self.0.as_ptr()) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retired::{DropFn, RetiredPtr};
    use crate::NO_BIRTH_ERA;

    /// Hands a fresh block back as the free stage would, after the oracle's
    /// free has forgotten it.
    fn put(cache: &mut NodeCache, block: NonNull<u8>, layout: Layout) {
        #[cfg(feature = "check-oracle")]
        crate::oracle::deregister(block.as_ptr());
        // SAFETY: the block is ours, holds no node, and is handed over once.
        unsafe { super::put(Some(cache), block.as_ptr(), block_layout(layout)) };
    }

    #[test]
    fn a_freed_block_is_reused_for_its_class_only() {
        let arena = SchemeArena::new();
        let mut cache = NodeCache::new(&arena);
        let node = Layout::new::<[u64; 4]>();
        let block = cache.alloc(node);
        assert_eq!(cache.bytes, 0, "a refill's spares are not freed bytes");
        put(&mut cache, block, node);
        assert_eq!(cache.bytes, 32);
        let other = cache.alloc(Layout::new::<[u64; 5]>());
        assert_ne!(other, block, "another class allocates afresh");
        assert_eq!(cache.alloc(node), block, "the same class takes it back");
        assert_eq!(cache.bytes, 0);
        // SAFETY: both blocks are ours and hold no node.
        unsafe {
            free_block(block.as_ptr(), node);
            free_block(other.as_ptr(), Layout::new::<[u64; 5]>());
        }
        // Every block back in the arena, or the arena leaks its chunks.
        cache.release();
    }

    #[test]
    fn the_cap_and_the_largest_class_bound_what_is_kept() {
        let arena = SchemeArena::new();
        let mut cache = NodeCache::new(&arena);
        let node = Layout::new::<[u64; 32]>();
        let blocks: Vec<_> = (0..NODE_CACHE_BYTES / 256 + 3)
            .map(|_| cache.alloc(node))
            .collect();
        for &block in &blocks {
            put(&mut cache, block, node);
        }
        // The first block over the cap took 15 cached ones with it to the
        // arena; the last two were kept.
        let kept = NODE_CACHE_BYTES - (REFILL_BLOCKS - 1) * 256 + 2 * 256;
        assert_eq!(cache.bytes, kept);
        assert_eq!(arena.get().footprint().1, REFILL_BLOCKS * 256);
        let big = Layout::new::<[u64; 33]>();
        let block = cache.alloc(big);
        put(&mut cache, block, big);
        assert_eq!(cache.bytes, kept, "264 B is past the classes");
        assert_eq!(cache.book(), (kept, kept as i64));
        assert_eq!(cache.book(), (kept, 0), "booked once");
        // Every block back in the arena, or the arena leaks its chunks.
        cache.release();
    }

    #[test]
    fn block_layouts_round_up_to_eight_aligned_classes() {
        let odd = Layout::from_size_align(12, 4).unwrap();
        assert_eq!(block_layout(odd), Layout::from_size_align(16, 8).unwrap());
        assert_eq!(block_layout(Layout::new::<()>()).size(), 8);
        let class = |size| class_of(Layout::from_size_align(size, ALIGN).unwrap());
        assert_eq!(class(8), Some(0));
        assert_eq!(class(256), Some(CLASSES - 1));
        assert_eq!(class(264), None);
    }

    struct Small(#[allow(dead_code)] [u64; 4]);
    struct Big(#[allow(dead_code)] [u64; 33]);
    #[repr(align(64))]
    struct Padded(u64);
    // SAFETY: each is allocated with its own layout.
    unsafe impl Block for Small {}
    // SAFETY: as `Small`'s: the tests allocate it as `Layout::new::<Big>()`.
    unsafe impl Block for Big {}
    // SAFETY: as `Small`'s, its 64 B alignment included.
    unsafe impl Block for Padded {}

    /// Retires and frees `node` through `drop_fn`, as the free stage would,
    /// offering `cache`.
    fn retire_and_free<T>(cache: &mut NodeCache, node: *mut T, drop_fn: DropFn) {
        // SAFETY: a live node, never linked, retired and freed once.
        unsafe {
            let retired = RetiredPtr::new(node.cast(), drop_fn, NO_BIRTH_ERA, 0);
            retired.reclaim(Some(cache));
        }
    }

    /// A live `T` in a fresh block off `cache`.
    fn block_of<T: Block>(cache: &mut NodeCache, value: T) -> *mut T {
        let node = cache.alloc(Layout::new::<T>()).cast::<T>().as_ptr();
        // SAFETY: a fresh block of `T`'s layout, or a wider one.
        unsafe { node.write(value) };
        node
    }

    #[test]
    fn one_destructor_caches_a_small_block_and_frees_the_rest_with_their_own_layouts() {
        let arena = SchemeArena::new();
        let mut cache = NodeCache::new(&arena);
        let small = block_of(&mut cache, Small([0; 4]));
        let held = cache.bytes;
        retire_and_free(&mut cache, small, drop_block::<Small>);
        assert_eq!(cache.bytes, held + 32, "a 32 B block lands in the cache");
        let held = cache.bytes;

        let padded = block_of(&mut cache, Padded(7));
        assert_eq!(padded as usize % 64, 0);
        // SAFETY: written just above.
        assert_eq!(unsafe { (*padded).0 }, 7);
        retire_and_free(&mut cache, padded, drop_block::<Padded>);
        let big = block_of(&mut cache, Big([0; 33]));
        retire_and_free(&mut cache, big, drop_block::<Big>);
        assert_eq!(
            cache.bytes, held,
            "64-aligned and 264 B blocks are never cached"
        );

        let boxed = Box::into_raw(Box::new([0u64; 4]));
        retire_and_free(&mut cache, boxed, crate::drop_fn_for::<[u64; 4]>());
        assert_eq!(cache.bytes, held, "a Box's destructor ignores the cache");
        // Every block back in the arena, or the arena leaks its chunks.
        cache.release();
    }
}
