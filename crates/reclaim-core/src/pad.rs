//! Cache-line padding.
//!
//! Shared per-thread records (hazard-pointer slots, epoch counters, fallback
//! episodes, throughput counters) are written by one thread and read by many.
//! Placing two such records on the same cache line turns every write into
//! cross-core invalidation traffic ("false sharing"), which would distort exactly
//! the overheads the paper measures. [`CachePadded`] aligns and pads its contents to 128 bytes — two 64-byte
//! lines — because modern x86 prefetchers pull cache lines in pairs.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes so that it owns its cache-line pair.
#[derive(Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-aligned cell.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachePadded")
            .field("value", &self.value)
            .finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        Self::new(self.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{align_of, size_of};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn alignment_is_at_least_128() {
        assert!(align_of::<CachePadded<u8>>() >= 128);
        assert!(align_of::<CachePadded<AtomicUsize>>() >= 128);
    }

    #[test]
    fn size_is_a_multiple_of_alignment() {
        assert_eq!(size_of::<CachePadded<u8>>() % 128, 0);
        assert_eq!(size_of::<CachePadded<[u64; 40]>>() % 128, 0);
    }

    #[test]
    fn deref_round_trip() {
        let mut padded = CachePadded::new(41_u64);
        *padded += 1;
        assert_eq!(*padded, 42);
    }

    #[test]
    fn adjacent_elements_do_not_share_lines() {
        let v = [CachePadded::new(0_u8), CachePadded::new(0_u8)];
        let a = &v[0] as *const _ as usize;
        let b = &v[1] as *const _ as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn debug_and_from_impls() {
        let padded: CachePadded<u32> = 7.into();
        assert!(format!("{padded:?}").contains('7'));
        let cloned = padded.clone();
        assert_eq!(*cloned, 7);
    }
}
