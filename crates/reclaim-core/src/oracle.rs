//! Shadow-heap reclamation oracle (`feature = "check-oracle"`, test-only).
//!
//! A use-after-free caused by a reservation-coverage bug is normally *silent*:
//! the freed node's memory is reused, a traversal reads a garbage link, and the
//! failure (if any) surfaces far from the cause. This module shadows every node
//! that flows through the reclamation substrate in an address-keyed state
//! machine and turns each protocol violation into an immediate panic naming the
//! node, its state, and the context (scheme / schedule) the caller registered:
//!
//! ```text
//!           register (a node_cache block's allocation)
//!                │
//!                ▼          on_retire (RetiredPtr::new)
//!             ┌──────┐             ┌─────────┐  on_free  ┌───────┐
//!             │ Live │ ───────────▶│ Retired │──────────▶│ Freed │
//!             └──────┘             └─────────┘ (reclaim) └───────┘
//!                │ deregister           │ again: double-retire ✗   │ again: double-free ✗
//!                ▼                      │                          │ protect/deref: UAF ✗
//!             (removed)                 └ free without retire ✗    │ retire: retire-after-free ✗
//! ```
//!
//! Checkpoints: every validated [`crate::Guard::load_protected`] and every
//! [`crate::Shared`] / [`crate::Unlinked`] dereference calls
//! [`check_protected`]; a `Freed` verdict
//! panics on the spot — at the exact instruction that would have touched freed
//! memory — instead of letting the heap corrupt.
//!
//! **Quarantine.** With real deallocation the allocator — or the freeing
//! handle's node cache — can hand a freed address straight back to the next
//! `Owned::new`, masking a UAF as a fresh registration. [`QuarantineGuard`]
//! (the schedule explorer's) makes `on_free` *skip* the destructor and leak
//! the allocation instead: the header is overwritten with `CANARY` and the
//! address can never be reused, so a later dereference is always caught and
//! the canary check tells "freed and poisoned" from wild pointers. Quarantine
//! defaults **off** so destructor-counting unit tests keep their semantics.
//!
//! Nodes allocated outside the guard layer (raw test Boxes retired through
//! `SmrHandle::retire`) enter the table at retire time with `registered =
//! false` and are dropped from the table at free: the oracle never
//! false-positives on allocator address reuse it cannot see, at the cost of not
//! catching UAFs on nodes it never saw allocated.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Poison pattern written over the first 8 bytes of a node freed while
/// quarantine is active. A dereference checkpoint that finds the shadow entry
/// `Freed` reads the header back: `canary intact` in the panic message means
/// the stale pointer genuinely reached reclaimed memory (as opposed to a
/// corrupted shadow table or a wild pointer).
pub(crate) const CANARY: u64 = 0xDEAD_BEEF_5AFE_CA4E;

const SHARDS: usize = 64;

/// Shadow state of one node address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeState {
    /// Registered at allocation (or assumed live), not yet retired.
    Live,
    /// Retired to a scheme's limbo; memory still valid.
    Retired,
    /// Reclaimed. Any dereference or protect-validation of this address is a
    /// use-after-free.
    Freed,
}

#[derive(Clone, Copy)]
struct Entry {
    state: NodeState,
    /// True if the oracle saw the allocation ([`register`]); false if the node
    /// first appeared at retire (a raw test allocation).
    registered: bool,
    /// True if the node was freed under quarantine (destructor skipped, header
    /// poisoned, memory leaked — address can never be reused).
    quarantined: bool,
    size: usize,
}

struct Shard {
    map: Mutex<HashMap<usize, Entry>>,
}

fn shards() -> &'static Vec<Shard> {
    static SHARDS_CELL: OnceLock<Vec<Shard>> = OnceLock::new();
    SHARDS_CELL.get_or_init(|| {
        (0..SHARDS)
            .map(|_| Shard {
                map: Mutex::new(HashMap::new()),
            })
            .collect()
    })
}

fn shard_for(addr: usize) -> &'static Shard {
    // Low bits are alignment zeros; fold some higher bits in before indexing.
    &shards()[(addr >> 4) & (SHARDS - 1)]
}

fn context_cell() -> &'static Mutex<String> {
    static CONTEXT: OnceLock<Mutex<String>> = OnceLock::new();
    CONTEXT.get_or_init(|| Mutex::new(String::new()))
}

/// Sets the context string embedded in every oracle panic (scheme name, suite,
/// schedule id). The explorer sets this per schedule so a violation names the
/// exact run that produced it.
pub fn set_context(context: impl Into<String>) {
    *context_cell().lock().unwrap_or_else(|e| e.into_inner()) = context.into();
}

/// Clears the panic context.
pub fn clear_context() {
    set_context(String::new());
}

fn context() -> String {
    let ctx = context_cell().lock().unwrap_or_else(|e| e.into_inner());
    if ctx.is_empty() {
        "<none>".to_string()
    } else {
        ctx.clone()
    }
}

thread_local! {
    /// Quarantine is a property of the *freeing thread*: the explorer enables
    /// it on every model thread (and on its driver thread for teardown frees),
    /// while unrelated tests running in the same process keep real destructor
    /// semantics. A scheme helper thread freeing outside quarantine only
    /// weakens detection (the entry is forgotten at real dealloc) — it can
    /// never produce a false verdict.
    static QUARANTINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// While alive, `on_free` calls *on this thread* skip destructors, poison
/// headers with `CANARY` and leak the memory so freed addresses can never be
/// reused (see module docs). Restores the previous mode on drop. `!Send` by
/// construction: quarantine is per-thread state.
pub struct QuarantineGuard {
    was_on: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl QuarantineGuard {
    /// Enables quarantine on the calling thread until the guard drops.
    pub fn enable() -> Self {
        let was_on = QUARANTINE.with(|q| q.replace(true));
        QuarantineGuard {
            was_on,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for QuarantineGuard {
    fn drop(&mut self) {
        let was_on = self.was_on;
        QUARANTINE.with(|q| q.set(was_on));
    }
}

/// Whether quarantine is active on the calling thread.
pub(crate) fn quarantine_active() -> bool {
    QUARANTINE.with(|q| q.get())
}

fn oracle_panic(kind: &str, addr: usize, entry: Option<Entry>, detail: &str) -> ! {
    let state = entry.map(|e| format!("{:?}", e.state));
    let registered = entry.map(|e| e.registered);
    panic!(
        "reclaim-check oracle: {kind} — node {addr:#x} (state: {}, registered-at-alloc: {}) {detail} [context: {}]",
        state.as_deref().unwrap_or("<untracked>"),
        registered.map(|r| r.to_string()).as_deref().unwrap_or("-"),
        context(),
    );
}

/// Records an allocation entering the reclamation protocol (every
/// `node_cache` block, fresh or reused). Panics if the shadow table believes the
/// address is still tracked — that means some free path bypassed the oracle (a
/// missing `deregister`), not an application bug: entries are removed at real
/// dealloc precisely so allocator reuse can never reach this arm, and
/// quarantined memory is leaked and cannot come back from the allocator.
pub fn register(ptr: *const u8, size: usize) {
    let addr = ptr as usize;
    let mut map = shard_for(addr)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = map.get(&addr).copied() {
        drop(map);
        oracle_panic(
            "allocation over a tracked node",
            addr,
            Some(entry),
            "— a free path bypassed the oracle (missing deregister?)",
        );
    }
    map.insert(
        addr,
        Entry {
            state: NodeState::Live,
            registered: true,
            quarantined: false,
            size,
        },
    );
}

/// Removes an address from the shadow table: the node left the reclamation
/// protocol through a synchronous owned free (`Owned::into_inner`/`Drop`,
/// structure teardown, failed-insert rollback) rather than retire→reclaim.
pub(crate) fn deregister(ptr: *const u8) {
    let addr = ptr as usize;
    shard_for(addr)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&addr);
}

/// Removes every address in `start .. start + len`, at 8-byte steps (a node
/// block's alignment), from the shadow table: the memory itself leaves the
/// protocol, a released arena chunk whose blocks were never freed one by one
/// (Leaky's kept plain blocks).
pub(crate) fn forget_range(start: *const u8, len: usize) {
    let start = start as usize;
    for addr in (start..start + len).step_by(8) {
        shard_for(addr)
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&addr);
    }
}

/// Records a retire (called from `RetiredPtr::new`, the choke point: the
/// retiring caller builds the one value `SmrHandle::retire` takes there, once
/// per retire). Panics on double-retire and retire-after-free.
pub(crate) fn on_retire(ptr: *const u8, size: usize) {
    let addr = ptr as usize;
    let mut map = shard_for(addr)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    match map.get(&addr).copied() {
        None => {
            // Raw test allocation the oracle never saw: start tracking at retire.
            map.insert(
                addr,
                Entry {
                    state: NodeState::Retired,
                    registered: false,
                    quarantined: false,
                    size,
                },
            );
        }
        Some(entry) => match entry.state {
            NodeState::Live => {
                map.insert(
                    addr,
                    Entry {
                        state: NodeState::Retired,
                        ..entry
                    },
                );
            }
            NodeState::Retired => {
                drop(map);
                oracle_panic(
                    "double retire",
                    addr,
                    Some(entry),
                    "— the node was handed to a scheme's limbo twice",
                );
            }
            NodeState::Freed => {
                drop(map);
                oracle_panic(
                    "retire after free",
                    addr,
                    Some(entry),
                    "— the node was already reclaimed when it was retired again",
                );
            }
        },
    }
}

/// Records a reclamation (called from `RetiredPtr::reclaim`, the single free
/// choke point). Returns `true` if the caller should run the real destructor;
/// `false` when quarantine is active (the oracle poisoned the header and the
/// allocation is leaked so the address can never be reused). Panics on
/// free-without-retire and double-free.
pub(crate) fn on_free(ptr: *const u8) -> bool {
    let addr = ptr as usize;
    let quarantine = quarantine_active();
    let mut map = shard_for(addr)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let entry = map.get(&addr).copied();
    match entry {
        None => {
            // Every RetiredPtr construction funnels through on_retire, so an
            // untracked free means the table was cleared out from under us or
            // the pointer was never retired.
            drop(map);
            oracle_panic(
                "free of an untracked node",
                addr,
                None,
                "— RetiredPtr::reclaim ran for a pointer the oracle never saw retired",
            );
        }
        Some(entry) => match entry.state {
            NodeState::Live => {
                drop(map);
                oracle_panic(
                    "free without retire",
                    addr,
                    Some(entry),
                    "— a node still Live in the shadow table reached the free path",
                );
            }
            NodeState::Freed => {
                drop(map);
                oracle_panic(
                    "double free",
                    addr,
                    Some(entry),
                    "— the node's destructor would have run twice",
                );
            }
            NodeState::Retired => {
                if quarantine && entry.registered {
                    map.insert(
                        addr,
                        Entry {
                            state: NodeState::Freed,
                            quarantined: true,
                            ..entry
                        },
                    );
                } else {
                    // Real dealloc (or a node the oracle never saw allocated):
                    // the allocator may reuse the address for an allocation the
                    // oracle cannot see, so a retained `Freed` entry would turn
                    // reuse into false "retire after free" verdicts. Forget the
                    // address — precise UAF detection is what quarantine is
                    // for (freed addresses then never return to the allocator).
                    map.remove(&addr);
                }
                drop(map);
                if quarantine {
                    if entry.size >= std::mem::size_of::<u64>() {
                        // SAFETY: the node is being freed (sole ownership has
                        // reached the reclaimer) and quarantine skips both the
                        // destructor and the deallocation, so overwriting the
                        // header of this still-allocated, never-again-touched
                        // block is sound.
                        unsafe {
                            (ptr as *mut u8).cast::<u64>().write_unaligned(CANARY);
                        }
                    }
                    return false;
                }
                true
            }
        },
    }
}

/// Reads back the poisoned header of a quarantined node (diagnostics).
fn canary_status(ptr: *const u8, entry: Entry) -> &'static str {
    if !entry.quarantined {
        return "n/a (real dealloc)";
    }
    if entry.size < std::mem::size_of::<u64>() {
        return "n/a (node smaller than canary)";
    }
    // SAFETY: quarantined memory is leaked, so the allocation is still mapped
    // and reading its first 8 bytes is sound.
    let header = unsafe { ptr.cast::<u64>().read_unaligned() };
    if header == CANARY {
        "intact"
    } else {
        "OVERWRITTEN"
    }
}

/// The checkpoint: validates that `ptr` is not `Freed` in the shadow table.
/// Called (feature-gated) from every validated protect and every `Shared` /
/// `Unlinked` dereference; `context` names the checkpoint for the panic
/// message. Untracked, `Live` and `Retired` addresses pass — `Retired` is
/// legal to dereference for any thread whose protection covers the node.
pub fn check_protected(ptr: *const u8, checkpoint: &str) {
    if ptr.is_null() {
        return;
    }
    let addr = ptr as usize;
    let entry = shard_for(addr)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&addr)
        .copied();
    if let Some(entry) = entry {
        if entry.state == NodeState::Freed {
            let canary = canary_status(ptr, entry);
            oracle_panic(
                "use after free",
                addr,
                Some(entry),
                &format!("reached checkpoint `{checkpoint}` after reclamation (canary: {canary})"),
            );
        }
    }
}

/// Current shadow state of an address, if tracked.
#[cfg(test)]
pub(crate) fn state_of(ptr: *const u8) -> Option<NodeState> {
    let addr = ptr as usize;
    shard_for(addr)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&addr)
        .map(|e| e.state)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Addresses here are synthetic (never dereferenced without quarantine
    // poisoning, which needs a real allocation — covered by the leaked-Box
    // tests). The shadow table is process-global, so each test uses disjoint
    // fake addresses.

    #[test]
    fn lifecycle_live_retired_freed() {
        let addr = 0x1000_0000 as *const u8;
        register(addr, 64);
        assert_eq!(state_of(addr), Some(NodeState::Live));
        check_protected(addr, "test");
        on_retire(addr, 64);
        assert_eq!(state_of(addr), Some(NodeState::Retired));
        check_protected(addr, "test");
        assert!(on_free(addr), "quarantine off: caller runs the destructor");
        assert_eq!(
            state_of(addr),
            None,
            "real dealloc forgets the address so allocator reuse can't false-positive"
        );
    }

    #[test]
    fn double_retire_panics() {
        let addr = 0x1000_1000 as *const u8;
        register(addr, 8);
        on_retire(addr, 8);
        let err =
            std::panic::catch_unwind(|| on_retire(addr, 8)).expect_err("double retire must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("double retire"), "got: {msg}");
        assert!(msg.contains("0x10001000"), "panic names the node: {msg}");
    }

    #[test]
    fn uaf_checkpoint_panics_and_names_context() {
        // Size 0 so quarantine skips the poison write (the address is fake).
        let addr = 0x1000_2000 as *const u8;
        register(addr, 0);
        on_retire(addr, 0);
        {
            let _q = QuarantineGuard::enable();
            assert!(!on_free(addr));
        }
        set_context("scheme=test-scheme schedule=t0,t1");
        let err = std::panic::catch_unwind(|| check_protected(addr, "unit-test deref"))
            .expect_err("deref after free must panic");
        clear_context();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("use after free"), "got: {msg}");
        assert!(msg.contains("scheme=test-scheme"), "got: {msg}");
        assert!(msg.contains("unit-test deref"), "got: {msg}");
    }

    #[test]
    fn quarantine_poisons_header_and_skips_destructor() {
        let boxed: Box<[u64; 4]> = Box::new([1, 2, 3, 4]);
        let ptr = Box::into_raw(boxed).cast::<u8>();
        register(ptr, 32);
        on_retire(ptr, 32);
        let _q = QuarantineGuard::enable();
        assert!(!on_free(ptr), "quarantine: destructor must be skipped");
        // SAFETY: quarantined memory is leaked and still mapped.
        let header = unsafe { ptr.cast::<u64>().read_unaligned() };
        assert_eq!(header, CANARY);
        let err = std::panic::catch_unwind(|| check_protected(ptr, "post-quarantine deref"))
            .expect_err("deref of quarantined node must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("canary: intact"), "got: {msg}");
        // Leak `ptr` deliberately: quarantined memory must never return to the
        // allocator.
    }

    #[test]
    fn unregistered_node_is_forgotten_after_real_free() {
        let addr = 0x1000_3000 as *const u8;
        on_retire(addr, 16); // never registered: enters at Retired
        assert_eq!(state_of(addr), Some(NodeState::Retired));
        assert!(on_free(addr));
        assert_eq!(state_of(addr), None, "no stale entry to false-positive on");
        // The "reused" address can re-enter the protocol freely.
        on_retire(addr, 16);
        assert!(on_free(addr));
    }

    #[test]
    fn address_reuse_after_real_free_is_legal() {
        let addr = 0x1000_4000 as *const u8;
        register(addr, 8);
        on_retire(addr, 8);
        assert!(on_free(addr));
        register(addr, 8); // allocator reuse: legal when quarantine was off
        assert_eq!(state_of(addr), Some(NodeState::Live));
        deregister(addr);
    }

    #[test]
    fn a_forgotten_range_drops_its_entries_and_no_other() {
        let (start, len) = (0x1000_6000_usize, 0x100);
        let (first, last, past) = (start, start + len - 8, start + len);
        let before = start - 8;
        for addr in [before, first, last, past] {
            register(addr as *const u8, 8);
        }
        on_retire(last as *const u8, 8);
        forget_range(start as *const u8, len);
        assert_eq!(state_of(first as *const u8), None);
        assert_eq!(state_of(last as *const u8), None, "retired, then forgotten");
        for addr in [before, past] {
            assert_eq!(state_of(addr as *const u8), Some(NodeState::Live));
            deregister(addr as *const u8);
        }
        register(last as *const u8, 8); // the next owner starts clean
        deregister(last as *const u8);
    }

    #[test]
    fn register_over_live_entry_panics_naming_missing_deregister() {
        let addr = 0x1000_5000 as *const u8;
        register(addr, 8);
        let err =
            std::panic::catch_unwind(|| register(addr, 8)).expect_err("double register must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("missing deregister"), "got: {msg}");
        deregister(addr);
    }
}
