//! # reclaim-core
//!
//! Shared substrate for the QSense family of safe-memory-reclamation (SMR) schemes,
//! reproducing *"Fast and Robust Memory Reclamation for Concurrent Data Structures"*
//! (Balmau, Guerraoui, Herlihy, Zablotchi — SPAA 2016).
//!
//! This crate contains what the individual schemes (`hazard`, `qsbr`, `qsense`,
//! `ebr`, `he`, `refcount`) have in common, and **only what two scheme families
//! share**: code with one customer lives in that customer's crate. The
//! hazard-pointer slots and scan are `hazard`'s (`hazard::{HpSlots, OwnedSlots,
//! hp_scan}`: HP, Cadence and QSense's fallback path, which imports them); the
//! epoch part is `qsbr`'s (`qsbr::{GlobalEpoch, EpochLimbo}`: QSBR,
//! QSense's fast path and EBR); the era clock and its pacer are `he`'s; the
//! counting allocator is `workload`'s. Two things stay here although they
//! look like one family's:
//!
//! * [`fence::FenceStrategy`] — EBR's pin runs it as well as the hazard-pointer
//!   family's `protect`;
//! * [`fence::BarrierLedger`] and the process rooster behind it — today only
//!   the hazard-pointer family stamps and frees by it, but it is a property of
//!   the *process* (one rooster, however many schemes), and ROADMAP direction 6
//!   makes EBR's advance and HE's scan its next customers.
//!
//! The rest:
//!
//! * the [`Smr`] / [`SmrHandle`] traits — the three-function interface the paper
//!   prescribes (`manage_qsense_state`, `assign_HP`, `free_node_later`) plus the
//!   plumbing a real library needs (registration, statistics, forced collection)
//!   and an allocation-side hook ([`SmrHandle::alloc_node`], handed back as
//!   the retired node's `birth_era`) that stamps nodes with the birth era
//!   the interval-based `he` scheme (Hazard Eras / 2GE-IBR) reasons about — a
//!   no-op for every other scheme;
//! * the [`limbo`] retire pipeline every scheme shares — a [`SchemeCore`] per
//!   scheme instance and a [`HandleCore`] per handle (see "What a scheme
//!   implements vs what the core owns" below) — with the [`fence`] module
//!   that says where each member of the hazard-pointer family, and EBR, pays
//!   for the fence between a publication and its validation (the reader, the
//!   scanner, or a rooster and a wait);
//! * a [`registry::Registry`] of per-thread slots with interior-mutable per-thread
//!   state that other threads may scan (hazard pointers, epochs, the fallback
//!   episode a QSense thread last saw),
//!   striped into claim-bitmap **shards** of [`registry::SHARD_SLOTS`] so scans
//!   step over wholly-vacant shards on one bitmap load (scan cost tracks active
//!   shards, not capacity) and registration CASes a round-robin home shard
//!   instead of contending down one array; each slot carries its own
//!   cache-padded statistics stripe ([`stats::StatStripe`]) so hot-path counter
//!   updates never contend;
//! * a [`lease::LeasePool`] that time-shares `N` registered handles among `M`
//!   short-lived tasks (checkout/checkin with wait-or-fail exhaustion policy),
//!   so task-per-connection runtimes never register per task;
//! * [`retired::RetiredPtr`] — the stamped retired-node wrapper (the paper's
//!   `timestamped_node`, Algorithm 3; the stamp is scheme-defined — a barrier
//!   ticket, an era, or nothing — and never a clock reading) — collected in [`segbag::SegBag`]
//!   segment chains recycled through a per-handle `segbag::SegPool`, so the
//!   steady-state retire/scan/reclaim pipeline never touches the allocator;
//! * a [`clock::Clock`] abstraction (real, monotonic nanoseconds) with a manually
//!   driven variant for deterministic tests, and the [`clock::Era`] type of the
//!   era schemes (what [`retired::RetiredPtr`] carries; the clock itself, paced
//!   by [`SmrConfig::limbo_budget`], is `he::EraPacer`);
//! * low-level utilities: [`pad::CachePadded`];
//! * the [`leaky::Leaky`] "scheme" (no reclamation at all), the paper's *None*
//!   baseline;
//! * [`config::SmrConfig`] holding the paper's tunables `Q`, `R`, `C`, `K`,
//!   `T` and `N` (its seventh, `ε`, needs no field: [`config`]).
//!
//! The data structures in `lockfree-ds` are generic over [`Smr`], so any scheme can be
//! plugged into any structure exactly as in the paper's evaluation.
//!
//! ## What a scheme implements vs what the core owns
//!
//! A reclamation scheme is its protection protocol plus a "may I free this?"
//! rule. Everything *around* that — accounting, budgets, telemetry, parking and
//! handle recycling — is the same in all eight schemes and lives once, in
//! [`limbo`]: a [`SchemeCore`] per scheme instance and a [`HandleCore`] per
//! registered handle.
//!
//! How much a handle holds in limbo is one of those things. The core is handed
//! every node that enters a handle's limbo ([`HandleCore::retire`],
//! [`HandleCore::adopt_parked`]) and every node that leaves it (freed, which
//! only the core does, or [`HandleCore::park`]), so it keeps the
//! **ledger** — node and byte totals, [`HandleCore::in_limbo`] /
//! [`HandleCore::limbo_bytes`] — and no scheme sums its bags, passes a total
//! into the core or returns one from a scan. The ledger is what
//! [`SmrHandle::local_in_limbo`] and [`SmrHandle::local_limbo_bytes`] answer
//! from and what gates how often the handle
//! looks at the scheme-wide figure. That figure is not summed from ledgers:
//! it is `retired_bytes − freed_bytes` over the counter stripes every retire
//! and free already writes ([`SchemeCore::limbo_estimate`]) — the one set of
//! books — and it is what the scheme's [`BudgetGovernor`] is handed, what
//! [`Smr::stats`] reports ([`StatsSnapshot::limbo_bytes`]) and what HE's
//! `he::EraPacer` adapts to.
//!
//! | the scheme crate implements | the core owns |
//! |-----------------------------|---------------|
//! | its reservation record in a [`Registry`] (hazard slots — `hazard::HpSlots`, shared by the family and QSense —, epoch — `qsbr::EpochRecord`, shared by QSBR, QSense and EBR, whose pin publishes it —, era interval), how `protect`/`begin_op` publish and clear it, and the fence behind a publication: for the hazard-pointer family and EBR's pin one of [`fence`]'s three, named by a [`FenceStrategy`] (detected, never configured) — the hazard-pointer family's `protect` is `hazard::OwnedSlots::protect`, fence included | the [`SmrConfig`], the counter stripes — one per handle, whose index also picks the handle's histogram stripe and takes the shard tally of its registry walks —, the budget governor and the [`Telemetry`] histograms, and over them [`Smr::config`], [`Smr::name`], [`Smr::stats`] and [`Smr::telemetry`]: the scheme says only where its core is ([`Smr::core`]) |
//! | where each handle's [`HandleCore`] is: [`SmrHandle::core`] / [`SmrHandle::core_mut`], each `&self.core` | everything a handle offers beyond the protocol: the ledger's readers ([`SmrHandle::local_in_limbo`], [`SmrHandle::local_limbo_bytes`]), the node cache [`guard::Guard::alloc_block`] takes from, and the telemetry the guard's op bracket and the retire stamp record (the sampling counter and the tick cache are the core's) — sealed by a [`CoreToken`] only this crate builds, so a data structure reaches a core only through [`guard::Guard`] and can never `park`, `scan` or `adopt_parked` it |
//! | the limbo *shape*: which [`SegBag`] the [`RetiredPtr`] its `retire` is handed goes into (one bag, three epoch buckets, eight era chains) and the scheme-defined `stamp` it carries (the ledger's barrier ticket for HP/Cadence/QSense, retire era for HE, nothing for the rest) — never where a freed node's memory goes, which its destructor decides ([`node_cache`]) | the **free stage**, the **stamp** and the ledger entry: at most `READY_FREES_PER_RETIRE` nodes off the handle's ready chain to their destructors (freed counters, ledger debit and retire→free delay booked there), then retire/byte counters, the scheme's stamp and the telemetry tick written into the [`RetiredPtr`] the retiring caller built, the push through the handle's `SegPool` — [`HandleCore::retire`] |
//! | the snapshot and the **free rule**: the predicate handed to [`Reclaim::free_walk`] / [`Reclaim::free_all`], with its `// SAFETY:` argument. The hazard-pointer family and QSense share both (`hazard::hp_scan`) and hand over only their [`fence::BarrierLedger`] — which names who issues the barrier that makes a snapshot complete (reader, scanner, rooster) and records when one has | the **observed proof**: a [`Reclaim`] that moves what the rule released onto the handle's ready chain and frees nothing (so no scheme hands the allocator a burst), scan timing, the look at the estimate — [`HandleCore::scan`]; the chain drained whole where trickling would be wrong — every scheme's `flush` ends in [`HandleCore::drain_ready`], [`HandleCore::park`] and a budget-forced scan call it themselves; the hazard-pointer family's one free rule is `hazard`'s, in one place for threshold scans, forced scans, `flush` and `Drop`: absent from a snapshot taken after a barrier that started after the node's stamp has returned; under scanner-barrier the scan issues that barrier itself unless a sibling's already covers its newest stamp, and a refusal frees nothing new |
//! | an optional pressure lever run inside the forced scan (QSense's early fallback trip, EBR's `try_advance`, HE's era pacer) | the **ladder**, fed from the ledger: count threshold (every `scan_threshold` retires, for every scheme and protocol) → forced scan on a budget crossing, however few retires since the last → one bounded `yield_now`, every rung counted on the handle's own stripe ([`StatsSnapshot::forced_scans`] and the three after it) — [`HandleCore::after_retire`], or its two rungs [`HandleCore::scan_due`] / [`HandleCore::enforce_budget`] ([`HandleCore::track`] for the two schemes with no lever) |
//! | splicing its bags into one and clearing its record and releasing its registry slot at handle drop | **park / adopt / recycle**, all through one store behind one lock on the [`SchemeCore`]: leftovers and the tally of kept plain blocks in, leftovers back out into a ledger ([`HandleCore::park`], which checks the leftovers against the ledger in debug builds; [`HandleCore::adopt_parked`]) — the byte estimate has nothing to conserve, parked nodes being retired and not freed like any other —, the pool + scan scratch to the next registrant and the node cache's blocks back to the arena (`HandleCore`'s own `Drop`), the store drained at scheme drop; with none parked, the one **workspace rule** for every scheme ([`SchemeCore::attach`]): a pool pre-warmed for `R` and a scratch of the word count the scheme names — its largest snapshot, `N·K` addresses (HP, Cadence, QSense), `2·N` era words (HE), `K` announced addresses (RC), none (QSBR, EBR, Leaky) |
//!
//! The freed-side counters and the parked store are private to this crate:
//! a scheme cannot book a free, park or recycle except through the calls
//! above. A new scheme is a `Registry<Record>`, a limbo shape, a scan pass,
//! [`Smr::try_register`] and [`Smr::core`], and an [`SmrHandle`] impl that
//! writes its protocol — `begin_op`, `end_op`, `protect`,
//! `clear_protections`, `retire`, `flush`, and `alloc_node` for an era
//! scheme — plus `core` and `core_mut` (see `hazard` for the smallest
//! complete one).
//!
//! ## Hot-path cost model
//!
//! The paper's thesis is that reclamation overhead on the *common path* must be near
//! zero. This crate is therefore organized around an explicit cost budget: which
//! work runs per operation, which runs once per `Q` operations, and which runs only
//! per scan. Per-op work must touch only thread-private or single-writer
//! cache-padded state; scans may sweep shared state but must not allocate.
//!
//! | frequency | work | shared-memory cost |
//! |-----------|------|--------------------|
//! | per op (`begin_op`) | a local counter bump (QSBR/QSense batching); a pin store and the fence its [`FenceStrategy`] owes — a compiler fence where the kernel offers an expedited `membarrier`, a `SeqCst` fence elsewhere — plus, only when the epoch moved since the last pin, one bucket hand-back (EBR only: `qsbr::EpochLimbo::catch_up`); one era load and, only when the era moved since the handle last announced, a fresh announcement — two reservation stores and a `SeqCst` fence (HE only: its reservation stays published between operations, and `end_op` does nothing) | none (EBR: one release store on `begin_op` and one on `end_op`, to one owned padded line; HE: two stores to an owned padded line and the fence, once per era) |
//! | per node traversed (`protect` — **once** per node: `lockfree-ds`' traversals rotate a level's two slots hand over hand instead of publishing the cursor and then copying it into a predecessor slot) | hazard-pointer store (HP/Cadence/QSense) and the fence its scheme owes ([`fence`]): a compiler fence for Cadence, QSense and — where the kernel offers an expedited `membarrier` — classic HP (≈ 2 ns), the `SeqCst` fence the paper is about for classic HP everywhere else (≈ 9 ns, counted in [`stats::StatsSnapshot::traversal_fences`]); era re-announcement only when the global era advanced mid-operation (HE) | one bounds check against the handle's own `K` and one release store through the owner's flat view of its record (`hazard::OwnedSlots`), into a 128-byte block no other thread's slots share (`hazard::HpSlots`); HE's amortized cost here is ~zero (eras advance once per `he::EraPacer::current_interval` allocations, not per node) |
//! | per node allocated ([`guard::Guard::alloc_block`], under [`guard::Owned::new`] and the skip list's and BST's allocations) | a block off the handle's [`node_cache::NodeCache`] list of the node's 8-byte size class — a load and two stores to handle-local words — or, on a miss (always, for Leaky: its cache stays empty), a spare of the class's last refill, or a refill: one lock of the scheme's arena, which hands over [`node_cache::REFILL_BLOCKS`] blocks off its shared list of the class or *carves* them at their class stride from its current chunk — a global allocation only once per 64 KiB chunk; then the birth-era stamp ([`smr::SmrHandle::alloc_node`]) written into the node: one era load, plus one shared `fetch_add` every `he::EraPacer::current_interval` allocations (HE only; no-op for every other scheme) — the interval is one relaxed load of a read-mostly padded line, which only scans write and only under a [`SmrConfig::limbo_budget`] | handle-local words; one acquire load of the (mostly read-shared) era line (HE); the arena's lock once per refill, the allocator once per chunk |
//! | per `retire` | write into the tail segment of the thread-local [`segbag::SegBag`], bump the handle's [`stats::StatStripe`], one load of the scheme's [`fence::BarrierLedger`] for the barrier-ticket stamp (HP/Cadence/QSense — a read-mostly line the issuer writes once per barrier; no scheme reads a clock), one acquire load of the fallback flag (QSense) or of the era clock (HE — the retire-era stamp must be fresh, see `he`) | single-writer padded lines only — **no shared `fetch_add`**, no shared epoch load (EBR tags with its pin-time epoch) |
//! | per segment (every [`segbag::SEG_CAP`] recorded retires) | pop a recycled segment from the per-handle `segbag::SegPool`; Leaky's pool never gets one back, so its bag takes a fresh segment from the allocator — only for the nodes it records: a plain block of its own arena it books and leaves unrecorded (`HandleCore::retire_unfreed`), and the arena frees its chunk at scheme drop | none — the allocator is touched only past the handle's all-time peak (Leaky: once per `SEG_CAP` recorded retires) |
//! | per `Q` ops (quiescent state) | epoch adoption (one swap, so an eviction it replaces is counted back) or one walk over the claimed slots, stopping at the first laggard ([`registry::Registry::iter_claimed`]), and the advance's CAS once every claimed thread has adopted the epoch; one eviction-counter load (QSense) | one bitmap load per shard and one record load per claimed slot walked; the adoption's swap on the owner's line, or at most one CAS on the global epoch |
//! | per scan (every `R` retires — HP's scans and EBR's epoch-advance attempts included, under either protocol) | under the scanner-barrier protocol (HP, EBR), first one expedited `membarrier` ([`fence::scanner_barrier`]) — the readers' fence, run for them on every CPU a sibling occupies; 0.2 µs with siblings idle, ≈ 15 µs with one running on the 2-vCPU benchmark host (measurements: [`fence::FenceStrategy::ScannerBarrier`]; counted in [`stats::StatsSnapshot::heavy_barriers`]), skipped when HP's bag is empty, when a sibling's barrier already covers HP's newest stamp ([`fence::BarrierLedger`]), or when a pin EBR can already see blocks the advance; then snapshot all `N·K` hazard pointers as address words into the handle's **reusable** scratch, sized at registration for all of them (HP/Cadence/QSense), or all `N` era reservations, two words each — O(N) era reads, not O(N·K) (HE); two-cursor compaction of the segment chain (a crate-private walk of the [`segbag::SegBag`]) plus at most one O(1) adjacent-segment merge — which *frees nothing*: released nodes move to the handle's ready chain (one [`segbag::SegBag::splice`] for a wholesale drain, a push through the same pool per node walked), so the 500–1 000 nodes a scan, an epoch drain or a rooster tick proves at once never reach the allocator in one burst ([`limbo`]; `flush`, `Drop` and a budget-forced scan drain the chain whole); one look at the scheme-wide estimate for the governor ([`limbo::HandleCore::scan`]: two loads per counter stripe, `max_threads + 1` of them, freed before retired, and no write but a new peak's — the governor reads its peak before it `fetch_max`es); under an adaptive era policy (HE), one more such sum to re-choose the tick interval (`he::EraPacer::adapt` — a fixed policy, a point range, never reads it) | O(N·K) loads (O(N) for HE), zero heap allocations in steady state |
//! | per registry walk, shard dispatch ([`registry::Registry::iter_claimed`]: scans, epoch confirmations, QSense's episode check and evictor) | one acquire bitmap load per shard of [`registry::SHARD_SLOTS`] slots; wholly-vacant shards are stepped over with **zero slot-line touches**, and within an active shard only the claimed slots' records are read; skips and walks are tallied in locals and added once per walk to the scanning handle's own [`stats::StatStripe`] ([`stats::StatsSnapshot::shard_skips`] / [`stats::StatsSnapshot::shard_walks`]; EBR's handle-less epoch advance: the scheme's orphan stripe) — the registry holds no counter, so the flat model's O(capacity) sweep becomes O(claimed slots + total shards) — with 8 handles in a 256-slot registry, 8 of 32 shards are walked and the other 24 cost one load each | one read-mostly padded line per shard, and at most two adds to a line the scanner owns; vacant shards' record lines never enter the scanner's cache |
//! | per lease checkout/checkin ([`lease::LeasePool`]) | one uncontended mutex lock + a `Vec` pop (checkout) or [`smr::SmrHandle::go_idle`] (HE: two stores withdrawing its era reservation; a no-op elsewhere) + push-into-reserved-capacity + one condvar notify (checkin) — O(1) in `M` and `N`, allocation-free after construction; registration/scan costs are **not** re-paid per task, that is the point | one mutex word; contended only when tasks outnumber idle handles |
//! | per `retire` (free stage) | while the handle's ready chain holds anything: pop at most 2 nodes (`limbo`'s `READY_FREES_PER_RETIRE`) off its oldest segment (O(1), no survivor moves — `segbag::SegBag::pop`) and run their destructors, each offered the handle's [`node_cache::NodeCache`] — a block's drops its node in place and pushes the block on the cache's list of its class while the cache holds under 64 KiB; past that it hands the block, with 15 more of the class, to the arena its chunk names under one lock; a block of no cached class it frees; a `Box`'s ignores the cache — bump the freed and freed-bytes stripes and debit the ledger; one length check otherwise. Two, so a backlog drains twice as fast as retires can grow it and every burst fits the allocator's per-thread cache (glibc's holds 7 a size class): on the benchmark's queue the bursts cost EBR 14–17 %; recycling the blocks took the allocator off that queue's steady state | two adds to the handle's own stripe; handle-local words for a cached block, the arena's lock per 16 blocks over the cap, the allocator's thread cache for a `Box` |
//! | per `retire` (byte accounting) | stamp the node's size into the [`retired::RetiredPtr`] (written next to the stamp the wrapper already carries: `size_of::<T>()` for guard-layer nodes, the allocation's real size for a skip-list tower; a 0 size is counted as size-unknown); bump the handle's retired-bytes stripe and its ledger (two thread-local adds — no per-retire sum over the handle's bags); one grain-gated look ([`limbo::HandleCore::enforce_budget`]) — a comparison of the ledger against its value at the handle's last look, escalating to the O(#stripes) sum of `retired_bytes − freed_bytes` only when this handle's limbo moved a full grain (budget/64, clamped to [256 B, 64 KiB]) | single-writer padded lines; a look writes nothing but a new peak — **no per-retire shared write**, and none per grain either |
//! | per budget crossing ([`budget::BudgetGovernor`] escalation) | rung 1: a forced scan on the retiring handle; rung 2: the scheme's own pressure lever — HE's `he::EraPacer` speeding up against a mark of budget/4, QSense's early fallback trip; rung 3: one bounded `yield_now` of retire-side backpressure when the forced scan failed to get back under budget | nothing new — every rung reuses the scan/switch machinery above, and every pull is one add to the pulling handle's own stripe, summed into [`Smr::stats`] |
//! | per op, guard layer ([`guard::Guard`] bracket) | `begin_op` at construction; `clear_protections` + `end_op` at drop — the per-op scheme costs above plus the telemetry rows below, recorded through the handle's core ([`SmrHandle::core_mut`]); the guard itself is a pointer and an (almost always empty) latency-sample slot, never allocated | none beyond the wrapped calls |
//! | per protected load ([`guard::Guard::load_protected`], or [`guard::Guard::protect_shared`] and the caller's re-read) | the `protect` store above plus one acquire re-read of the link word (looping only while the word moves) — the same publish + re-validate pattern the hand-written protocol used, priced identically | identical to raw `protect` + re-read |
//! | per retire ([`guard::Unlinked::retire`] / [`guard::Guard::retire_block`]) | exactly the retire above, handed one [`RetiredPtr`] built here once: birth era read back from the node header (one thread-local load); size the block's (a compile-time constant for an `Unlinked`; a skip-list tower: its 32-byte header plus 8 B a level, one multiply-add) — a size-unknown (0-byte) retire is unreachable from both; the destructor the block one, [`node_cache`]'s, or none for a node with nothing to drop in a block of a cached class (a plain block, freed by its recorded size) | identical to [`smr::SmrHandle::retire`] |
//! | per handle drop | splice leftovers into the scheme's parked store ([`segbag::SegBag::splice`]) and add the kept tally there; give the node cache back to the arena: each class's spares (at most [`node_cache::REFILL_BLOCKS`] − 1) onto its list, then one splice a class, by the list's tail, under one lock of the arena; leave the pool and scratch in the parked store; one last look at the estimate for the governor, which the hand-off itself does not move (leaked bytes stay visible, never stranded: they are retired and not freed) | O(1) pointer surgery under the store's mutex, taken twice at most; the arena's lock once, O(size classes) under it, however many blocks the cache holds — no allocation |
//! | per snapshot (`Smr::stats`) | sum all counter stripes | O(N) loads — diagnostic path, never on the hot path |
//! | per op, telemetry **disabled** (the default) | one load of the `enabled` flag at each record site — op begin ([`guard::Guard`] bracket), retire stamp, scan begin — then a branch away; no clock read, no stamp, no histogram touch | one read-only line shared by all record sites |
//! | per op, telemetry **enabled** ([`config::SmrConfig::with_telemetry`]) | op bracket: a counter bump, plus an `Instant` pair and one relaxed histogram `fetch_add` for the 1-in-128 sampled ops; retire: the handle's *cached* coarse tick stamped into the [`retired::RetiredPtr`] padding — the clock is re-read only every 16 retires (and for free on sampled ops, reusing their `Instant`), so a stale stamp can only over-report a delay, by at most the wall time those retires spanned; free: one relaxed `fetch_add` to the scanning handle's [`telemetry::LogHistogram`] stripe per freed node; scan: one `Instant` pair per pass that frees anything (empty passes read no clock) | relaxed adds to one of 8 cache-padded stripes — no shared read-modify-write on the unsampled path |
//!
//! ## Observability
//!
//! The [`telemetry`] module turns the paper's *distributional* claims into
//! measurements: a per-scheme [`telemetry::Telemetry`] holds three fixed-size
//! striped [`telemetry::LogHistogram`]s — guard-bracket **op latency**
//! (nanoseconds, sampled 1-in-128), **scan duration** (nanoseconds, every
//! pass), and **reclamation delay** (microseconds): a coarse tick stamped
//! into [`retired::RetiredPtr`] at retire and measured when the scan frees
//! the node, i.e. the retire→free distribution "bounded garbage" is about.
//!
//! Design choices, and their error bounds:
//!
//! * **Time sources** — precise [`std::time::Instant`] only on sampled ops and
//!   per-scan events; the per-retire stamp uses a µs-resolution `u32` tick
//!   (wraps ~71.6 min; correct across one wrap) that fits the wrapper's
//!   existing padding, so segment geometry and the retire path's single-writer
//!   discipline are untouched. Each handle caches the tick and re-reads the
//!   clock every 16 retires — even a vDSO clock read
//!   is a third of a QSBR retire, so paying it per retire would distort the
//!   very path being measured. The cache can only *over*-report a delay, by
//!   at most the wall time the handle's last 16
//!   retires spanned.
//! * **Sampling rate** — 1-in-128, fixed,
//!   starting with each handle's first op; percentiles of a uniform 1-in-N
//!   sample converge on the true distribution, and the modular counter costs
//!   one branch per op.
//! * **Histogram error** — 64 log2 buckets: any quantile is reported as its
//!   bucket's upper bound, within 2× of the true value and never an
//!   underestimate.
//! * **Consistency** — records are single relaxed `fetch_add`s (no lost
//!   counts); snapshots are bucket-wise monotone and exact after recorders
//!   quiesce — the histogram analog of the `retired >= freed` guarantee
//!   the counters' freed-first sum gives ([`stats::Counter::Freed`]).
//!
//! Disabled (the default), every record site is **one flag load**;
//! `qsense-bench --figure telemetry-off,telemetry-on` runs the same
//! retire-bound cell both ways.
//!
//! Segment recycling makes the whole retire→scan→reclaim pipeline allocation-free
//! in steady state, *including* bag growth past a single bag's previous high-water
//! mark (the per-handle pool backs all of a handle's bags) and the hand-off
//! at handle drop (an O(1) chain splice; surviving handles re-adopt the
//! parked leftovers on their next flush). Handle registration itself
//! allocates only on the *first* wave: a dying handle parks its pool and
//! scratch buffers on the scheme's [`limbo::SchemeCore`] and the next
//! registrant adopts them, while its [`node_cache::NodeCache`] gives its
//! blocks back to the scheme's arena and the next registrant's empty cache
//! refills from there, so thread-pool churn (register → work → drop,
//! repeatedly) is allocation-free after the pool's first generation of handles.
//! Nodes allocated as blocks ([`guard::Owned`], skip-list towers, BST nodes)
//! come back through the free stage too: a handle that frees as fast as it
//! allocates never leaves its cache, and every other block of a cached class
//! is carved from — and given back to — its scheme's arena, which calls the
//! global allocator once per 64 KiB chunk and frees every chunk at scheme
//! drop ([`node_cache`]).
//!
//! ## Robustness verdicts
//!
//! With [`config::SmrConfig::with_limbo_budget`] set, every scheme runs its
//! limbo *bytes* (stamped at retire, counted retired and freed on the
//! handles' stripes, whose difference is the estimate) against the same
//! [`budget::BudgetGovernor`], and answers
//! for the run in its one snapshot, [`Smr::stats`]: the peak byte estimate,
//! the budget, the wall-clock time spent over it, and a counter per
//! escalation rung actually pulled. The ladder, in order:
//!
//! 1. **forced scan** — a budget crossing on the retire path forces a
//!    reclamation pass on the retiring handle, threshold counters
//!    notwithstanding;
//! 2. **scheme-specific pressure lever** — HE's `he::EraPacer` (under the
//!    adaptive policy) takes a quarter of the budget as its low-water mark and
//!    tightens the era cadence; QSense trips its hybrid fallback switch
//!    *early* (before the node-count threshold `C` would);
//! 3. **bounded backpressure** — when the forced scan could not get back
//!    under budget (everything left is protected or not yet covered by a
//!    completed barrier), the retiring
//!    thread takes one `yield_now`, slowing the producer instead of the
//!    readers.
//!
//! Enforcement engages only *after* the estimate crosses the budget, so an
//! enforcing scheme legitimately peaks slightly above it —
//! [`StatsSnapshot::within_budget`] is the strict check; CI's
//! robustness verdicts instead allow constant headroom (in-flight young
//! bursts + 4× budget) and require `escalations() > 0`. What the ladder can
//! and cannot bound, per scheme family:
//!
//! * **HP / Cadence / QSense / RefCount** — bounded: nothing a stalled or
//!   leaked participant does can keep an unprotected, covered node from a
//!   forced scan (RefCount frees eagerly and rarely needs rung 1 at all);
//! * **HE** — bounded: a stalled reservation pins only the eras up to the
//!   stall, and byte pressure tightens the pacer so later stalls pin less;
//! * **QSBR / EBR** — *not* bounded under their blocking faults (QSBR: any
//!   silent participant; EBR: a participant stalled or leaked mid-operation).
//!   The ladder fires — the verdict records the pulls and the time over
//!   budget — but no lever substitutes for the blocked grace period. The
//!   fault-injection suite asserts these as expected-fail verdicts rather
//!   than skipping them.
//!
//! ## Pointer-level safety contract
//!
//! All schemes traffic in type-erased pointers: a [`RetiredPtr`] is a `*mut u8`
//! plus an `unsafe fn(*mut u8, Option<&mut NodeCache>)` destructor
//! ([`retired::DropFn`]), which the freeing handle offers its node cache — a
//! block's destructor decides there whether the block is cached or given
//! back, a `Box`'s ignores it — or no destructor at all, for a plain block
//! ([`retired`]), whose free offers its block the same way. The contract,
//! identical to the paper's
//! node-state machine (§2.1):
//!
//! 1. a node may be retired only after it has been unlinked from the data structure
//!    (state *removed*), and only once;
//! 2. a thread may dereference a removed node only while one of its protection slots
//!    (hazard pointers) covers it and the protection was validated while the node was
//!    still reachable (Condition 1 of the paper);
//! 3. once the scheme invokes the destructor the node is *free* and must never be
//!    touched again.
//!
//! ## Skip-list linking safety argument
//!
//! Rule 2's "validated while the node was still reachable" silently assumes a
//! fourth rule that every scanning scheme needs from the *data structure*:
//!
//! 4. **a retired node is never re-linked** — otherwise a reader could validate
//!    a fresh protection for it through the stale link *after* a scan already
//!    found it unprotected and freed it.
//!
//! The linked list and the BST get rule 4 for free, because their
//! validate-then-CAS pattern targets the very word it validated: any overlap of
//! a removal changes that word (the list marks the *outgoing* pointer of the
//! deleted node; the BST flags/tags the edge before splicing), so a stale CAS
//! fails on plain pointer+mark/clean-edge equality, and hazard-pointer
//! protection of the expected successor rules out address-reuse ABA (the
//! in-code notes at the `list::insert::pre_link_cas` and
//! `bst::insert::pre_link_cas` pause points carry the per-structure argument,
//! each pinned by a forced-schedule test in `tests/interleaving_harness.rs`).
//!
//! The skip list is the one structure where the pattern is *split*: `insert`'s
//! phase-2 membership validation (`succs[0] == node`, level 0) and its link CAS
//! (`pred.next[level]`, level ≥ 1) touch **different words**. A complete
//! `remove` — mark all levels, sweep, retire — fits between them while leaving
//! the CASed word bit-identical, so pointer equality proves nothing and the
//! stale CAS would re-link a retired node, violating rule 4. The fix is a
//! two-sided protocol over **versioned links** (`lockfree-ds::tagged`
//! `VersionedAtomic`: pointer + mark + a 16-bit per-link version that every
//! successful CAS bumps):
//!
//! * **Validate-on-link** — the link CAS's expected value is the full
//!   `LinkWord` (pointer *and* version) observed by the same traversal that
//!   validated membership, so "the link looks unchanged" and "the link is
//!   unchanged since my validation" coincide;
//! * **Upper-level fencing** — the remover's phase 3 first sweeps the victim
//!   out of every level *walking through equal-key runs* (a marked victim can
//!   transiently hide behind an equal-key node, where a plain `find` — which
//!   stops at the first key ≥ k — would never see it), then bumps the version
//!   of the canonical pred link at every upper level of the victim's tower. Any
//!   insert whose validation predates the sweep now fails its versioned CAS;
//!   any insert validating afterwards observes `succs[0] != node` and stops
//!   linking. Only after every fence bump lands while the victim is observed
//!   absent does the remover retire.
//!
//! **Phase-1 words.** `insert` links each upper level first from the words its
//! phase-1 `find` read *before* the level-0 CAS published the node, searching
//! again (with `succs[0] == node`) only after that level's CAS fails. No
//! removal of the node can begin before that link — a remover must find the
//! node at level 0 — so such a word predates the remover's sweep like any
//! validated one, and the fence poisons it the same way. (A height-1 victim
//! has no upper level: one CAS unlinking it from level 0 ends its removal.)
//!
//! Why each scheme's validation is sound given rule 4:
//!
//! * **HP / Cadence / QSense (fallback)** — a protection is honoured only if
//!   validated through a link the node is still reachable from; rule 4 makes
//!   "retired" imply "never again reachable", so every honoured protection was
//!   published before the retire and is seen by every subsequent scan (HP: the
//!   publication fence, the reader's own or the one the scan's barrier runs
//!   for it; Cadence/QSense: rooster-bounded store visibility, which the
//!   deferred-reclamation age outwaits — the three proofs of [`fence`]).
//! * **HE** — era reservations cover a node only while the reader's `[lower,
//!   upper]` interval overlaps the node's birth–retire interval; a re-linked
//!   retired node could be validated by a reader whose interval starts entirely
//!   *after* the retire era, which no scan would wait for. Rule 4 removes the
//!   case.
//! * **QSBR / EBR / QSense (fast path)** — already safe without rule 4: the
//!   stale re-link is performed by a thread inside an operation, so the grace
//!   period that must elapse before the victim is freed cannot complete while
//!   that thread still holds (and could republish) the reference. The fix turns
//!   their probabilistic non-exposure into the same structural guarantee the
//!   scanning schemes get.
//!
//! Version wrap (2¹⁶) is analyzed in `lockfree-ds::tagged`'s module docs: a
//! dangerous wrap requires one traversal to stall across ≥ 32 768 successful
//! unlink/re-link cycles of one node its own protection keeps alive — and
//! retired nodes, the only dangerous targets, are never re-linked at all. The
//! regression schedule (which re-linked a retired node on the pre-versioned
//! skip list under hp, cadence, he and qsense alike) is found by the explorer
//! and replayed in `tests/interleaving_harness.rs`.
//!
//! ## Verification
//!
//! Two test-only layers check the protocol above *mechanically* instead of by
//! argument (`crates/reclaim-check` drives both; neither exists in a default
//! build):
//!
//! **The shadow-heap oracle** (`feature = "check-oracle"`, the `oracle`
//! module) tracks every node in an address-keyed state machine —
//! `Live → Retired → Freed`:
//!
//! * every [`node_cache`] block's allocation — fresh or a cached block handed
//!   back out, under [`guard::Owned::new`] and the expert structures' nodes —
//!   **registers** it;
//! * [`retired::RetiredPtr::new`] — which the retiring caller runs once per
//!   retire, building the one value [`SmrHandle::retire`] takes
//!   ([`guard::Guard::retire_block`], [`retire_box`], a raw test site) —
//!   marks it **Retired** (double-retire and retire-after-free panic);
//! * `retired::RetiredPtr::reclaim` — the single free choke point — marks
//!   it **Freed**; under the explorer's *quarantine* mode the destructor is
//!   skipped, the first 8 bytes of the node are overwritten with
//!   `oracle::CANARY` (`0xDEAD_BEEF_5AFE_CA4E`) and the allocation is
//!   leaked, so a freed address can never be reused — nor cached — and mask
//!   a UAF;
//! * every validated [`guard::Guard::load_protected`] and every
//!   [`guard::Shared`] / [`guard::Unlinked`] dereference is a **checkpoint**: a `Freed` verdict
//!   panics on the spot, naming the node address, its shadow state, the
//!   canary status and the context (scheme + schedule) the harness installed
//!   via `oracle::set_context` — a reservation-coverage violation becomes a
//!   deterministic verdict at the exact instruction that would have touched
//!   freed memory.
//!
//! Synchronous owned frees ([`guard::Owned::into_inner`]/`Drop`, structure
//! teardown walks, failed-insert rollbacks) **deregister** instead; nodes the
//! oracle never saw allocated (raw test Boxes) are tracked from retire to
//! free only, so allocator address reuse it cannot see never false-positives.
//!
//! **The schedule explorer** (`reclaim-check`) serializes 2–3 model threads
//! through `lockfree-ds::interleave`'s pause points and enumerates every
//! interleaving up to a **preemption bound** (default 2, CHESS-style):
//! within the bound the enumeration is exhaustive over the instrumented
//! points, so "exploration completes clean" means *no schedule with ≤ N
//! preemptions at the pause points violates the oracle* — it says nothing
//! about windows no pause point names, about schedules needing more
//! preemptions, or about weak-memory reorderings (execution is sequentially
//! consistent under the scheduler; the one store-buffer window this crate's
//! protocols hinge on — hazard-pointer publication against the scan's snapshot
//! — is enumerated separately, on an abstract TSO machine, by
//! `reclaim_check::litmus`). Every failure report carries the exact
//! `thread@pause-point` schedule that produced it; to pin one as a
//! regression, paste the trace into `reclaim_check::Explorer::replay`, which
//! re-runs that single schedule deterministically. `tests/interleaving_harness.rs`
//! pins every structure's validate-then-CAS window this way: the explorer
//! finds a schedule crossing it (`Explorer::explore_until`), the test replays
//! it and asserts on the trace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod clock;
pub mod config;
pub mod fence;
pub mod guard;
pub mod leaky;
pub mod lease;
pub mod limbo;
pub mod node_cache;
#[cfg(feature = "check-oracle")]
pub mod oracle;
pub mod pad;
pub mod registry;
pub mod retired;
pub mod segbag;
pub mod smr;
pub mod stats;
pub mod tagged;
pub mod telemetry;

pub use budget::BudgetGovernor;
pub use clock::{Clock, Era, ManualClock, Nanos, NO_BIRTH_ERA};
pub use config::SmrConfig;
pub use fence::{BarrierLedger, FenceStrategy};
pub use guard::{Atomic, Guard, Owned, Shared, Unlinked};
pub use leaky::{Leaky, LeakyHandle};
pub use lease::{HandleLease, LeaseExhausted, LeasePolicy, LeasePool};
pub use limbo::{HandleCore, Reclaim, SchemeCore};
pub use node_cache::NodeCache;
pub use pad::CachePadded;
pub use registry::{Registry, SlotId, SHARD_SLOTS};
pub use retired::RetiredPtr;
pub use segbag::{SegBag, SEG_CAP};
pub use smr::{drop_fn_for, CapacityExhausted, CoreToken, Smr, SmrHandle};
pub use stats::{Counter, StatStripe, StatsSnapshot};
pub use telemetry::{HistSnapshot, LogHistogram, Telemetry, TelemetrySummary};

/// Convenience: retire a typed, heap-allocated (`Box`-originated) pointer through any
/// [`SmrHandle`].
///
/// Being typed, this knows the node's `Layout` and stamps its size
/// (`size_of::<T>()`) into the retired record, feeding the limbo byte
/// accounting; the birth era is left unstamped ([`NO_BIRTH_ERA`]).
///
/// # Safety
///
/// `ptr` must have been created by `Box::into_raw`, must already be unlinked from the
/// data structure, and must not be retired more than once.
pub unsafe fn retire_box<T, H: SmrHandle + ?Sized>(handle: &mut H, ptr: *mut T) {
    let size = std::mem::size_of::<T>();
    handle.retire(RetiredPtr::new(
        ptr.cast(),
        drop_fn_for::<T>(),
        NO_BIRTH_ERA,
        size,
    ));
}

/// Convenience: retire a typed, heap-allocated pointer together with its
/// allocation-time birth era (the stamp [`SmrHandle::alloc_node`] produced when
/// the node was created) and its size (`size_of::<T>()`, for the limbo byte
/// accounting).
///
/// # Safety
///
/// Same contract as [`retire_box`]; `birth_era` must be the node's stamp or
/// [`NO_BIRTH_ERA`].
pub unsafe fn retire_box_with_birth<T, H: SmrHandle + ?Sized>(
    handle: &mut H,
    ptr: *mut T,
    birth_era: Era,
) {
    let size = std::mem::size_of::<T>();
    handle.retire(RetiredPtr::new(
        ptr.cast(),
        drop_fn_for::<T>(),
        birth_era,
        size,
    ));
}
