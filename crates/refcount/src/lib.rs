//! # refcount — reference-counting reclamation baseline
//!
//! The first class of techniques the paper's related work discusses (§8,
//! "Reference counting" [9, 12, 15, 30]): every access to a node increments a shared
//! counter, every release decrements it, and a removed node may be freed once its
//! counter drops to zero. The technique is easy to reason about but pays an atomic
//! read-modify-write per node visited, which is why the paper (and the literature it
//! cites) considers it uncompetitive for read-mostly traversals — the same cost
//! argument that motivates removing the per-node fence from hazard pointers.
//!
//! This crate implements that baseline behind the workspace's common
//! [`Smr`](reclaim_core::Smr) / [`SmrHandle`](reclaim_core::SmrHandle) interface so
//! that it can be dropped into the same benchmarks as the paper's schemes. Because
//! the interface is type-erased (nodes carry no scheme-specific fields), the
//! per-node counters are kept in a shared address-indexed table rather than inside
//! the nodes; see `table` for why this preserves both the safety argument and the
//! cost profile.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod scheme;
mod table;

pub use scheme::{RefCount, RefCountHandle};

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use reclaim_core::{retire_box, Smr, SmrConfig, SmrHandle};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn concurrent_protect_retire_traffic_never_double_frees_or_leaks() {
        let drops = Arc::new(AtomicUsize::new(0));
        let retired = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(
            SmrConfig::default()
                .with_max_threads(8)
                .with_hp_per_thread(2)
                .with_scan_threshold(16),
        );
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let scheme = Arc::clone(&scheme);
                let drops = Arc::clone(&drops);
                let retired = Arc::clone(&retired);
                thread::spawn(move || {
                    let mut handle = scheme.register();
                    for i in 0..400_u64 {
                        handle.begin_op();
                        let node = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
                        // Briefly protect our own allocation (as a traversal would),
                        // then unprotect and retire it.
                        handle.protect((i % 2) as usize, node.cast());
                        handle.clear_protections();
                        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
                        unsafe { retire_box(&mut handle, node) };
                        retired.fetch_add(1, Ordering::SeqCst);
                        handle.end_op();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(scheme);
        assert_eq!(drops.load(Ordering::SeqCst), retired.load(Ordering::SeqCst));
    }

    #[test]
    fn stats_expose_scan_counts() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(SmrConfig::default().with_scan_threshold(4));
        let mut handle = scheme.register();
        for _ in 0..12 {
            let node = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut handle, node) };
        }
        handle.flush();
        let snap = scheme.stats();
        assert_eq!(snap.retired, 12);
        assert_eq!(snap.freed, 12);
        assert!(snap.scans >= 3);
        assert_eq!(snap.in_limbo(), 0);
    }
}
