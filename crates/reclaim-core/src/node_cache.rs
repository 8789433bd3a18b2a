//! Node blocks: the one allocation path of guard-layer and expert nodes, and
//! the per-handle cache behind the free stage.
//!
//! Where a freed block goes is decided here and nowhere else: a retired
//! block's destructor ([`drop_block`], the one
//! [`Guard::retire_block`](crate::Guard::retire_block) names) drops its node in
//! place and offers the block, with the layout read back from the node
//! ([`Block`]), to the freeing handle's [`NodeCache`] — a free list per 8-byte
//! size class, for that handle's next allocation of the class
//! ([`Guard::alloc_block`](crate::Guard::alloc_block)). Blocks are sized in
//! 8-byte steps and aligned to at least 8, so a cached block is reused only
//! for the identical layout and stays valid to give back; a block aligned past
//! 8 or past the largest class is never cached, and is freed with its own
//! layout. Past [`NODE_CACHE_BYTES`] the free stage's ≤ 2 nodes a retire go to
//! the allocator, never a burst. The next registrant adopts a dying handle's
//! cache with its workspace; scheme drop frees it.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Bytes one handle's cache holds at most. 256 KiB was measured against it
/// (2-vCPU host, alternating 30 s benchmark pairs): it took Cadence's loss
/// from freeing at the scan
/// ([`READY_FREES_PER_RETIRE`](crate::READY_FREES_PER_RETIRE)) back to
/// −0.8 % on `queue_churn` (2 of 4 pairs), but `skiplist_mixed` read
/// −7 … −11 % on every scheme, `none` included (0 of 3 pairs; the cause was
/// not isolated). 64 KiB stays.
pub const NODE_CACHE_BYTES: usize = 64 << 10;

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

/// A fresh block for a node of `layout` from the global allocator — what a
/// node no handle allocates takes (a structure's sentinels).
#[inline]
pub fn alloc_block(layout: Layout) -> NonNull<u8> {
    let layout = block_layout(layout);
    // SAFETY: a block layout is never empty.
    let block =
        NonNull::new(unsafe { alloc(layout) }).unwrap_or_else(|| handle_alloc_error(layout));
    #[cfg(feature = "check-oracle")]
    crate::oracle::register(block.as_ptr(), layout.size());
    block
}

/// Frees the block of a node destroyed outside the retire pipeline.
///
/// # Safety
///
/// `block` came from this module for `layout`, holds no live node, nothing
/// can reach it, and it is freed once.
pub unsafe fn free_block(block: *mut u8, layout: Layout) {
    #[cfg(feature = "check-oracle")]
    crate::oracle::deregister(block);
    // SAFETY: the caller's contract.
    unsafe { dealloc(block, block_layout(layout)) };
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

/// The destructor ([`DropFn`](crate::retired::DropFn)) every block is retired
/// with: drops the node in place and offers its block to `cache`, which keeps
/// it if its class is one a cache keeps and the cache holds under
/// [`NODE_CACHE_BYTES`]; otherwise, or without a cache, it is freed with its
/// own layout.
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

/// Takes a block of `layout` (a [`block_layout`]) whose node is gone, as
/// [`drop_block`] says.
///
/// # Safety
///
/// The block was allocated for `layout`, nothing can reach it, and the oracle
/// no longer tracks it.
#[inline]
unsafe fn put(cache: Option<&mut NodeCache>, block: *mut u8, layout: Layout) {
    match (cache, class_of(layout)) {
        (Some(cache), Some(class)) if cache.bytes + layout.size() <= NODE_CACHE_BYTES => {
            // SAFETY: the block is ours and at least a word long.
            unsafe { block.cast::<*mut u8>().write(cache.heads[class]) };
            cache.heads[class] = block;
            cache.bytes += layout.size();
        }
        // SAFETY: the caller's contract.
        _ => unsafe { dealloc(block, layout) },
    }
}

/// One handle's cache of freed node blocks (module docs).
pub struct NodeCache {
    /// Each class's free list; a free block's first word links the next.
    heads: [*mut u8; CLASSES],
    bytes: usize,
    /// `bytes` as last booked ([`StatsSnapshot::cached_bytes`](crate::StatsSnapshot::cached_bytes)).
    booked: usize,
}

// SAFETY: the cache owns its free blocks outright, as a `SegPool` its segments.
unsafe impl Send for NodeCache {}

impl NodeCache {
    pub(crate) const fn new() -> Self {
        Self {
            heads: [std::ptr::null_mut(); CLASSES],
            bytes: 0,
            booked: 0,
        }
    }

    /// Unlinks a block of `class`, if its list holds one.
    fn pop(&mut self, class: usize) -> Option<NonNull<u8>> {
        let block = NonNull::new(self.heads[class])?;
        // SAFETY: a listed block is free and ours; its first word links the next.
        self.heads[class] = unsafe { block.cast::<*mut u8>().read() };
        self.bytes -= (class + 1) * ALIGN;
        Some(block)
    }

    /// A block for a node of `layout`: a cached one of its class, else a
    /// fresh one.
    #[inline]
    pub(crate) fn alloc(&mut self, layout: Layout) -> NonNull<u8> {
        let block = block_layout(layout);
        let Some(cached) = class_of(block).and_then(|class| self.pop(class)) else {
            return alloc_block(layout);
        };
        #[cfg(feature = "check-oracle")]
        crate::oracle::register(cached.as_ptr(), block.size());
        cached
    }

    /// The bytes held, and how far they moved since the last call.
    pub(crate) fn book(&mut self) -> (usize, i64) {
        let delta = self.bytes as i64 - self.booked as i64;
        self.booked = self.bytes;
        (self.bytes, delta)
    }
}

impl Drop for NodeCache {
    fn drop(&mut self) {
        for class in 0..CLASSES {
            let layout = Layout::from_size_align((class + 1) * ALIGN, ALIGN).expect("a class");
            while let Some(block) = self.pop(class) {
                // SAFETY: a free block of its class, ours, given back once.
                unsafe { dealloc(block.as_ptr(), layout) };
            }
        }
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
        let mut cache = NodeCache::new();
        let node = Layout::new::<[u64; 4]>();
        let block = cache.alloc(node);
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
    }

    #[test]
    fn the_cap_and_the_largest_class_bound_what_is_kept() {
        let mut cache = NodeCache::new();
        let node = Layout::new::<[u64; 32]>();
        let blocks: Vec<_> = (0..NODE_CACHE_BYTES / 256 + 3)
            .map(|_| cache.alloc(node))
            .collect();
        for &block in &blocks {
            put(&mut cache, block, node);
        }
        assert_eq!(cache.bytes, NODE_CACHE_BYTES, "three went to the allocator");
        let big = Layout::new::<[u64; 33]>();
        let block = cache.alloc(big);
        put(&mut cache, block, big);
        assert_eq!(cache.bytes, NODE_CACHE_BYTES, "264 B is past the classes");
        let full = NODE_CACHE_BYTES as i64;
        assert_eq!(cache.book(), (NODE_CACHE_BYTES, full));
        assert_eq!(cache.book(), (NODE_CACHE_BYTES, 0), "booked once");
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
    unsafe impl Block for Big {}
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
        let mut cache = NodeCache::new();
        let small = block_of(&mut cache, Small([0; 4]));
        retire_and_free(&mut cache, small, drop_block::<Small>);
        assert_eq!(cache.bytes, 32, "a 32 B block lands in the cache");

        let padded = block_of(&mut cache, Padded(7));
        assert_eq!(padded as usize % 64, 0);
        // SAFETY: written just above.
        assert_eq!(unsafe { (*padded).0 }, 7);
        retire_and_free(&mut cache, padded, drop_block::<Padded>);
        let big = block_of(&mut cache, Big([0; 33]));
        retire_and_free(&mut cache, big, drop_block::<Big>);
        assert_eq!(
            cache.bytes, 32,
            "64-aligned and 264 B blocks are never cached"
        );

        let boxed = Box::into_raw(Box::new([0u64; 4]));
        retire_and_free(&mut cache, boxed, crate::drop_fn_for::<[u64; 4]>());
        assert_eq!(cache.bytes, 32, "a Box's destructor ignores the cache");
    }
}
