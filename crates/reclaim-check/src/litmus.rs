//! Store-buffer litmus for the reservation publish/scan races.
//!
//! The [`explorer`](crate::explorer) runs real code under a sequentially
//! consistent scheduler, so it cannot see the one failure classic hazard
//! pointers — and epoch pins — are built around: a publication still sitting
//! in the reader's store buffer when the scanner reads the reservations. This
//! module checks that window on abstract machines instead, all under total
//! store order. This file holds the driver (`Model`, `explore`) and the
//! hazard-pointer machine — one node, a reader and a scanner:
//!
//! ```text
//! reader:   load link → publish hp → [fence] → validate link → use node → clear hp
//! scanner:  unlink → retire → [barrier] → snapshot hp → [barrier] → free if absent
//! ```
//!
//! with one row per way `reclaim_core::fence` pays for the reader's fence.
//! [`check`] runs the four *placements* ([`Protocol`]): the reader's own fence,
//! the scanner's barrier before its snapshot, after it, or nowhere.
//! [`check_ledger`] runs the rule the hazard-pointer family frees by when the
//! barrier need not be the scan's own ([`Ledger`]) — the two counters of
//! `reclaim_core::fence::BarrierLedger`, `started` (bumped before any barrier
//! issued on the scheme's behalf) and `completed` (raised to that ticket after
//! it returns), and the stamp a retirer reads from `started` after its unlink:
//!
//! ```text
//! scanner:  unlink (SeqCst CAS) → stamp = started → retire(stamp) → scan
//! sibling:  { ticket = ++started → barrier → completed = max(completed, ticket) } × 2
//! scan, rooster-issued:  c = completed → snapshot hp → free if c > stamp and absent
//! scan, scanner-issued:  if completed > stamp { skip } else { a barrier of its own,
//!                        through the ledger } → snapshot hp → free if absent
//! ```
//!
//! The *sibling* is whoever else issues barriers for the scheme: the process
//! rooster (Cadence, QSense), or — under scanner-barrier HP — another handle's
//! scan, whose barrier this scan may share instead of paying for its own. It
//! runs two, so that one can straddle the unlink and the next count.
//!
//! [`epoch`] holds EBR's pin/advance row, [`era`] HE's interval reservation
//! kept across operations.
//!
//! The reader has a FIFO store buffer: a store enters it and reaches memory in
//! a later, separately schedulable *flush* step; loads read memory (no thread
//! here loads an address it stores to, so there is no forwarding to model).
//! The scanner's unlink is what the structures issue — a `SeqCst`
//! compare-and-swap, which acts on memory directly, as do the ledger's
//! counters. A reader *fence* cannot execute until the reader's buffer is
//! empty. A *barrier* is `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` as the
//! kernel documents it: a fence on the caller at entry, then, before the call
//! returns, an interrupt that lands between two instructions of the reader —
//! wherever the schedule puts it — and drains the reader's buffer.
//!
//! Both checks enumerate every interleaving of the programs, the flushes and
//! the interrupts (breadth-first over machine states, so the first violation
//! found has the shortest schedule) and convict a protocol if in any of them
//! the reader uses the node after the scanner freed it.
//!
//! What this does not cover: memory models weaker than TSO (a relaxed mode is
//! ROADMAP direction 2's next slice), more than one reader or node, and whether
//! the code issues the instructions the model says it does.

pub mod epoch;
pub mod era;

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;

/// Where the scanner issues its process-wide barrier, if at all. "Snapshot" is
/// the scanner's read of the reservations: HP's hazard-pointer snapshot, EBR's
/// walk over the pin records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScannerBarrier {
    /// No barrier: the scan relies on the readers' own fences.
    None,
    /// Between the scanner's own store or load (HP's retire, EBR's epoch load)
    /// and the snapshot — the scanner-barrier protocol.
    BeforeSnapshot,
    /// After the snapshot, before acting on it — the tempting wrong place.
    AfterSnapshot,
}

/// One way of paying for the fence between a publication and the publisher's
/// next load.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Protocol {
    /// The reader issues a full fence after publishing (the paper's protocol).
    pub reader_fence: bool,
    /// The scanner's barrier.
    pub scanner_barrier: ScannerBarrier,
}

/// One way of keeping and consulting the barrier ledger, behind compiler-fenced
/// readers. [`Ledger::rooster`] and [`Ledger::scanner`] are what `reclaim_core`
/// ships; each flag set is a near miss of the rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Ledger {
    /// Scans issue a barrier of their own unless a sibling's already covers
    /// the node (scanner-barrier HP); otherwise they never issue (Cadence,
    /// QSense) and the sibling is the rooster.
    pub scans_issue: bool,
    /// Near miss (a): the retirer reads its stamp *before* the unlink.
    pub stamp_before_unlink: bool,
    /// Near miss (b): the gate is `completed ≥ stamp` — a barrier that started
    /// before the stamp was read counts.
    pub gate_admits_equal: bool,
    /// Near miss (c): a scan skips its own barrier once a sibling's has
    /// *started* after the stamp, not completed (`scans_issue` only).
    pub shares_on_started: bool,
    /// Near miss (d): `completed` is raised before the barrier is issued.
    pub completes_before_return: bool,
}

impl Ledger {
    /// Rooster-issued: the paper's Cadence, on the ledger.
    pub fn rooster() -> Self {
        Self::default()
    }

    /// Scanner-issued or shared: scanner-barrier HP, on the ledger.
    pub fn scanner() -> Self {
        Self {
            scans_issue: true,
            ..Self::rooster()
        }
    }
}

/// Who issues a barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum By {
    /// The scanner's own scan.
    Scanner,
    /// The rooster, or a sibling handle's scan ([`check_ledger`] only).
    Sibling,
}

use By::{Scanner, Sibling};

/// One schedulable step of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Reader: `n = link.load()`; done if the node is already unlinked.
    LoadLink,
    /// Reader: `hp.store(n)` — into the store buffer.
    Publish,
    /// Reader: full fence; only schedulable once its buffer has drained.
    ReaderFence,
    /// Reader: `link.load() == n`? If not, skip the use.
    Validate,
    /// Reader: dereference `n`. After the free, this is the violation.
    Use,
    /// Reader: `hp.store(null)` — into the store buffer.
    Clear,
    /// The oldest store in the reader's buffer reaches memory.
    Flush,
    /// Scanner: `link.compare_exchange(n, null)`, `SeqCst`.
    Unlink,
    /// Scanner: `stamp = started.load()` (ledger rows).
    LoadStamp,
    /// Scanner: the node enters its limbo bag (thread-private), stamped.
    Retire,
    /// Scanner: read the ledger — `completed` against the stamp (or, near miss
    /// (c), `started`).
    ReadLedger,
    /// `ticket = started.fetch_add(1) + 1` (ledger rows).
    TakeTicket(By),
    /// `membarrier` is entered — a fence on the caller.
    BarrierEnter(By),
    /// Kernel: that barrier's interrupt lands on the reader's CPU and drains
    /// its store buffer.
    Interrupt(By),
    /// `membarrier` returns; only schedulable after its interrupt.
    BarrierReturn(By),
    /// `completed.fetch_max(ticket)` (ledger rows).
    Complete(By),
    /// Scanner: read `hp` from memory.
    Snapshot,
    /// Scanner: free the node if it is covered and the snapshot did not hold it.
    FreeIfAbsent,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let who = |by: &By| match by {
            Scanner => "scanner",
            Sibling => "sibling",
        };
        match self {
            Step::LoadLink => f.write_str("reader: load link -> n"),
            Step::Publish => f.write_str("reader: store hp = n (buffered)"),
            Step::ReaderFence => f.write_str("reader: fence"),
            Step::Validate => f.write_str("reader: validate link"),
            Step::Use => f.write_str("reader: use n"),
            Step::Clear => f.write_str("reader: store hp = null (buffered)"),
            Step::Flush => f.write_str("reader's oldest buffered store reaches memory"),
            Step::Unlink => f.write_str("scanner: unlink n (SeqCst CAS)"),
            Step::LoadStamp => f.write_str("scanner: load started -> stamp"),
            Step::Retire => f.write_str("scanner: retire n"),
            Step::ReadLedger => f.write_str("scanner: read the ledger against the stamp"),
            Step::TakeTicket(by) => write!(f, "{}: started += 1 -> ticket", who(by)),
            Step::BarrierEnter(by) => {
                write!(f, "{}: membarrier enters (fence on caller)", who(by))
            }
            Step::Interrupt(by) => write!(
                f,
                "kernel: the {}'s interrupt drains the reader's store buffer",
                who(by)
            ),
            Step::BarrierReturn(by) => write!(f, "{}: membarrier returns", who(by)),
            Step::Complete(by) => write!(f, "{}: completed = max(completed, ticket)", who(by)),
            Step::Snapshot => f.write_str("scanner: snapshot hp"),
            Step::FreeIfAbsent => {
                f.write_str("scanner: free n if covered and absent from the snapshot")
            }
        }
    }
}

/// The violation every row looks for: the reader dereferenced the node after it
/// was freed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct UseAfterFree;

/// An abstract machine [`explore`] can enumerate: a state, the steps
/// schedulable in it, and the two outcomes a verdict counts.
pub(crate) trait Model: Clone + Eq + Hash {
    /// One schedulable step.
    type Step: Copy;

    /// Every step schedulable in this state; none when the run is finished.
    fn enabled(&self) -> impl Iterator<Item = Self::Step> + '_;

    /// Executes `step`.
    fn execute(&mut self, step: Self::Step) -> Result<(), UseAfterFree>;

    /// The reader dereferenced the node.
    fn used(&self) -> bool;

    /// The node was freed.
    fn freed(&self) -> bool;
}

/// Barriers the sibling issues in one ledger run.
const SIBLING_BARRIERS: u8 = 2;

/// One issuer's barrier. `Option<Step>` program counters: `None` is "finished"
/// (or, for the scanner, "not in a barrier").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct Barrier {
    next: Option<Step>,
    ticket: u64,
    /// Between `BarrierEnter` and the interrupt.
    interrupt_pending: bool,
}

/// The hazard-pointer machine. Only the reader buffers: the scanner's and the
/// sibling's shared stores are `SeqCst` read-modify-writes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Machine {
    protocol: Protocol,
    /// `None` for the placement rows: no counters, and the scan's own barrier
    /// (if any) is all it waits for.
    ledger: Option<Ledger>,
    /// Memory: the link still points at the node; the slot holds the node;
    /// the ledger's counters.
    linked: bool,
    hp_in_memory: bool,
    started: u64,
    completed: u64,
    freed: bool,
    /// The reader's buffered `hp` stores, oldest first (`true` = the node).
    reader_buffer: VecDeque<bool>,
    reader_next: Option<Step>,
    scanner_next: Option<Step>,
    stamp: u64,
    /// The scan may free on its snapshot: always in the placement rows;
    /// rooster-issued, the gate passed; scanner-issued, a barrier was shared
    /// or paid for.
    covered: bool,
    /// What the scanner's snapshot saw.
    snapshot_held_node: bool,
    scan: Barrier,
    sibling: Barrier,
    sibling_barriers_left: u8,
    used: bool,
}

impl Machine {
    fn start(protocol: Protocol, ledger: Option<Ledger>) -> Self {
        let stamp_first = ledger.is_some_and(|ledger| ledger.stamp_before_unlink);
        let mut machine = Self {
            protocol,
            ledger,
            linked: true,
            hp_in_memory: false,
            started: 0,
            completed: 0,
            freed: false,
            reader_buffer: VecDeque::new(),
            reader_next: Some(Step::LoadLink),
            scanner_next: Some(if stamp_first {
                Step::LoadStamp
            } else {
                Step::Unlink
            }),
            stamp: 0,
            covered: ledger.is_none(),
            snapshot_held_node: false,
            scan: Barrier::default(),
            sibling: Barrier::default(),
            sibling_barriers_left: 0,
            used: false,
        };
        if ledger.is_some() {
            machine.sibling_barriers_left = SIBLING_BARRIERS;
            machine.begin_barrier(Sibling);
        }
        machine
    }

    fn barrier(&mut self, by: By) -> &mut Barrier {
        match by {
            Scanner => &mut self.scan,
            Sibling => &mut self.sibling,
        }
    }

    fn begin_barrier(&mut self, by: By) {
        self.barrier(by).next = Some(if self.ledger.is_some() {
            Step::TakeTicket(by)
        } else {
            Step::BarrierEnter(by)
        });
    }

    /// What follows `by`'s barrier: the sibling's next one; the scanner's
    /// snapshot, or its free if the snapshot came first.
    fn barrier_done(&mut self, by: By) {
        self.barrier(by).next = None;
        match by {
            Sibling => {
                self.sibling_barriers_left -= 1;
                if self.sibling_barriers_left > 0 {
                    self.begin_barrier(Sibling);
                }
            }
            Scanner => {
                self.covered = true;
                let snapshot_taken = self.protocol.scanner_barrier == ScannerBarrier::AfterSnapshot;
                self.scanner_next = Some(if snapshot_taken {
                    Step::FreeIfAbsent
                } else {
                    Step::Snapshot
                });
            }
        }
    }

    fn flush_one(&mut self) {
        if let Some(value) = self.reader_buffer.pop_front() {
            self.hp_in_memory = value;
        }
    }
}

impl Model for Machine {
    type Step = Step;

    fn enabled(&self) -> impl Iterator<Item = Step> + '_ {
        let reader = self
            .reader_next
            .filter(|&step| step != Step::ReaderFence || self.reader_buffer.is_empty());
        // While its scan runs a barrier the scanner's thread is in that call.
        let scanner = self.scanner_next.filter(|_| self.scan.next.is_none());
        let in_barrier = |barrier: &Barrier| {
            let returnable = !barrier.interrupt_pending;
            let next = barrier.next;
            next.filter(|step| !matches!(step, Step::BarrierReturn(_)) || returnable)
        };
        let interrupt =
            |barrier: &Barrier, by| barrier.interrupt_pending.then_some(Step::Interrupt(by));
        let flush = (!self.reader_buffer.is_empty()).then_some(Step::Flush);
        [
            reader,
            scanner,
            in_barrier(&self.scan),
            in_barrier(&self.sibling),
            flush,
            interrupt(&self.scan, Scanner),
            interrupt(&self.sibling, Sibling),
        ]
        .into_iter()
        .flatten()
    }

    fn execute(&mut self, step: Step) -> Result<(), UseAfterFree> {
        use ScannerBarrier::{AfterSnapshot, BeforeSnapshot};
        let placement = self.protocol.scanner_barrier;
        let ledger = self.ledger;
        let completes_early = ledger.is_some_and(|ledger| ledger.completes_before_return);
        match step {
            Step::LoadLink => self.reader_next = self.linked.then_some(Step::Publish),
            Step::Publish => {
                self.reader_buffer.push_back(true);
                self.reader_next = Some(if self.protocol.reader_fence {
                    Step::ReaderFence
                } else {
                    Step::Validate
                });
            }
            Step::ReaderFence => self.reader_next = Some(Step::Validate),
            Step::Validate => {
                self.reader_next = Some(if self.linked { Step::Use } else { Step::Clear });
            }
            Step::Use => {
                if self.freed {
                    return Err(UseAfterFree);
                }
                self.used = true;
                self.reader_next = Some(Step::Clear);
            }
            Step::Clear => {
                self.reader_buffer.push_back(false);
                self.reader_next = None;
            }
            Step::Flush => self.flush_one(),
            Step::Unlink => {
                self.linked = false;
                self.scanner_next = Some(match ledger {
                    Some(ledger) if !ledger.stamp_before_unlink => Step::LoadStamp,
                    _ => Step::Retire,
                });
            }
            Step::LoadStamp => {
                self.stamp = self.started;
                self.scanner_next = Some(if self.linked {
                    Step::Unlink
                } else {
                    Step::Retire
                });
            }
            Step::Retire => {
                self.scanner_next = Some(Step::Snapshot);
                if ledger.is_some() {
                    self.scanner_next = Some(Step::ReadLedger);
                } else if placement == BeforeSnapshot {
                    self.begin_barrier(Scanner);
                }
            }
            Step::ReadLedger => {
                let ledger = ledger.expect("only ledger rows read one");
                let counter = if ledger.scans_issue && ledger.shares_on_started {
                    self.started
                } else {
                    self.completed
                };
                let equal = ledger.gate_admits_equal && counter == self.stamp;
                self.covered = counter > self.stamp || equal;
                self.scanner_next = Some(Step::Snapshot);
                if ledger.scans_issue && !self.covered {
                    self.begin_barrier(Scanner);
                }
            }
            Step::TakeTicket(by) => {
                self.started += 1;
                let ticket = self.started;
                let barrier = self.barrier(by);
                barrier.ticket = ticket;
                barrier.next = Some(if completes_early {
                    Step::Complete(by)
                } else {
                    Step::BarrierEnter(by)
                });
            }
            Step::BarrierEnter(by) => {
                let barrier = self.barrier(by);
                barrier.interrupt_pending = true;
                barrier.next = Some(Step::BarrierReturn(by));
            }
            Step::Interrupt(by) => {
                while !self.reader_buffer.is_empty() {
                    self.flush_one();
                }
                self.barrier(by).interrupt_pending = false;
            }
            Step::BarrierReturn(by) => {
                if ledger.is_none() || completes_early {
                    self.barrier_done(by);
                } else {
                    self.barrier(by).next = Some(Step::Complete(by));
                }
            }
            Step::Complete(by) => {
                self.completed = self.completed.max(self.barrier(by).ticket);
                if completes_early {
                    self.barrier(by).next = Some(Step::BarrierEnter(by));
                } else {
                    self.barrier_done(by);
                }
            }
            Step::Snapshot => {
                self.snapshot_held_node = self.hp_in_memory;
                self.scanner_next = Some(Step::FreeIfAbsent);
                if placement == AfterSnapshot {
                    self.begin_barrier(Scanner);
                }
            }
            Step::FreeIfAbsent => {
                self.freed = self.covered && !self.snapshot_held_node;
                self.scanner_next = None;
            }
        }
        Ok(())
    }

    fn used(&self) -> bool {
        self.used
    }

    fn freed(&self) -> bool {
        self.freed
    }
}

/// Enumerates every interleaving of the hazard-pointer reader and scanner
/// under `protocol`'s fence placement.
pub fn check(protocol: Protocol) -> Verdict {
    explore(Machine::start(protocol, None))
}

/// Enumerates every interleaving of a compiler-fenced reader, the scanner and
/// the sibling under `ledger`'s discipline.
pub fn check_ledger(ledger: Ledger) -> Verdict {
    let protocol = Protocol {
        reader_fence: false,
        scanner_barrier: ScannerBarrier::None,
    };
    explore(Machine::start(protocol, Some(ledger)))
}

/// What `explore` found.
#[derive(Clone, Debug)]
pub struct Verdict<S = Step> {
    /// Distinct machine states reached.
    pub states: usize,
    /// The shortest schedule in which the reader uses the node after it was
    /// freed; `None` is a clean verdict.
    pub violation: Option<Vec<S>>,
    /// Finished executions (as distinct final states) in which the reader
    /// used the node, and in which the scanner freed it. A clean verdict in
    /// which either is zero would be a model that cannot fail.
    pub finished_with_use: usize,
    /// See [`finished_with_use`](Self::finished_with_use).
    pub finished_with_free: usize,
}

impl<S: fmt::Display> Verdict<S> {
    /// No interleaving reaches a use after free.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none()
    }

    /// The convicting schedule, one step per line; empty for a clean verdict.
    pub fn schedule(&self) -> String {
        let steps = self.violation.iter().flatten().enumerate();
        steps
            .map(|(i, step)| format!("{:>3}. {step}\n", i + 1))
            .collect()
    }
}

/// Enumerates every schedule of `start`'s machine.
pub(crate) fn explore<M: Model>(start: M) -> Verdict<M::Step> {
    // Breadth-first, with the predecessor and step that first reached each
    // state, so a violation's schedule can be read back and is a shortest one.
    let mut seen: HashSet<M> = HashSet::from([start.clone()]);
    let mut reached: Vec<M> = vec![start];
    let mut reached_by: Vec<Option<(usize, M::Step)>> = vec![None];
    let mut verdict = Verdict {
        states: 0,
        violation: None,
        finished_with_use: 0,
        finished_with_free: 0,
    };
    let mut next = 0;
    while next < reached.len() {
        let machine = reached[next].clone();
        if machine.enabled().next().is_none() {
            verdict.finished_with_use += usize::from(machine.used());
            verdict.finished_with_free += usize::from(machine.freed());
        }
        for step in machine.enabled() {
            let mut successor = machine.clone();
            if successor.execute(step).is_err() {
                let mut schedule = vec![step];
                let mut at = next;
                while let Some((previous, step)) = reached_by[at] {
                    schedule.push(step);
                    at = previous;
                }
                schedule.reverse();
                verdict.states = reached.len();
                verdict.violation = Some(schedule);
                return verdict;
            }
            if seen.insert(successor.clone()) {
                reached.push(successor);
                reached_by.push(Some((next, step)));
            }
        }
        next += 1;
    }
    verdict.states = reached.len();
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fence_waits_for_the_buffer_and_an_interrupt_drains_it() {
        let protocol = Protocol {
            reader_fence: true,
            scanner_barrier: ScannerBarrier::BeforeSnapshot,
        };
        let mut machine = Machine::start(protocol, None);
        machine.execute(Step::LoadLink).unwrap();
        machine.execute(Step::Publish).unwrap();
        assert!(!machine.hp_in_memory, "the store is buffered");
        assert!(
            !machine.enabled().any(|step| step == Step::ReaderFence),
            "the fence cannot pass a non-empty buffer"
        );
        for step in [Step::Unlink, Step::Retire, Step::BarrierEnter(Scanner)] {
            machine.execute(step).unwrap();
        }
        assert!(
            !machine
                .enabled()
                .any(|step| step == Step::BarrierReturn(Scanner)),
            "the barrier cannot return before its interrupt landed"
        );
        machine.execute(Step::Interrupt(Scanner)).unwrap();
        assert!(machine.hp_in_memory && machine.reader_buffer.is_empty());
        let enabled: Vec<Step> = machine.enabled().collect();
        assert_eq!(enabled, [Step::ReaderFence, Step::BarrierReturn(Scanner)]);
    }

    #[test]
    fn the_run_to_completion_schedules_finish_with_a_use_or_a_free() {
        let protocol = Protocol {
            reader_fence: false,
            scanner_barrier: ScannerBarrier::None,
        };
        // Reader first, buffer flushed as it goes: the scanner sees the slot
        // cleared again and frees after the use.
        let mut machine = Machine::start(protocol, None);
        for step in [
            Step::LoadLink,
            Step::Publish,
            Step::Flush,
            Step::Validate,
            Step::Use,
            Step::Clear,
            Step::Flush,
            Step::Unlink,
            Step::Retire,
            Step::Snapshot,
            Step::FreeIfAbsent,
        ] {
            assert!(machine.enabled().any(|enabled| enabled == step), "{step}");
            machine.execute(step).unwrap();
        }
        assert!(machine.enabled().next().is_none() && machine.used && machine.freed);
    }

    fn ledger_machine(ledger: Ledger) -> Machine {
        let protocol = Protocol {
            reader_fence: false,
            scanner_barrier: ScannerBarrier::None,
        };
        Machine::start(protocol, Some(ledger))
    }

    fn run(machine: &mut Machine, steps: &[Step]) {
        for &step in steps {
            assert!(machine.enabled().any(|enabled| enabled == step), "{step}");
            machine.execute(step).unwrap();
        }
    }

    #[test]
    fn a_barrier_that_straddles_the_unlink_does_not_cover_and_the_next_one_does() {
        let mut machine = ledger_machine(Ledger::rooster());
        run(
            &mut machine,
            &[
                Step::TakeTicket(Sibling),
                Step::Unlink,
                Step::LoadStamp,
                Step::Retire,
                Step::BarrierEnter(Sibling),
                Step::Interrupt(Sibling),
                Step::BarrierReturn(Sibling),
                Step::Complete(Sibling),
            ],
        );
        assert_eq!((machine.stamp, machine.completed), (1, 1));
        let mut early = machine.clone();
        run(
            &mut early,
            &[Step::ReadLedger, Step::Snapshot, Step::FreeIfAbsent],
        );
        assert!(
            !early.freed,
            "completed == stamp: started before the unlink"
        );
        run(
            &mut machine,
            &[
                Step::TakeTicket(Sibling),
                Step::BarrierEnter(Sibling),
                Step::Interrupt(Sibling),
                Step::BarrierReturn(Sibling),
                Step::Complete(Sibling),
                Step::ReadLedger,
                Step::Snapshot,
                Step::FreeIfAbsent,
            ],
        );
        assert!(machine.freed && machine.sibling.next.is_none());
    }

    #[test]
    fn an_issuing_scan_pays_for_a_barrier_only_when_no_sibling_covered_it() {
        let writer = [Step::Unlink, Step::LoadStamp, Step::Retire];
        let mut alone = ledger_machine(Ledger::scanner());
        run(&mut alone, &writer);
        run(&mut alone, &[Step::ReadLedger, Step::TakeTicket(Scanner)]);
        assert!(
            !alone.enabled().any(|step| step == Step::Snapshot),
            "the scan is inside its barrier"
        );
        run(
            &mut alone,
            &[
                Step::BarrierEnter(Scanner),
                Step::Interrupt(Scanner),
                Step::BarrierReturn(Scanner),
                Step::Complete(Scanner),
                Step::Snapshot,
                Step::FreeIfAbsent,
            ],
        );
        assert!(alone.freed && alone.completed == 1);

        let mut shared = ledger_machine(Ledger::scanner());
        run(&mut shared, &writer);
        run(
            &mut shared,
            &[
                Step::TakeTicket(Sibling),
                Step::BarrierEnter(Sibling),
                Step::Interrupt(Sibling),
                Step::BarrierReturn(Sibling),
                Step::Complete(Sibling),
                Step::ReadLedger,
                Step::Snapshot,
                Step::FreeIfAbsent,
            ],
        );
        assert!(
            shared.freed && shared.scan.ticket == 0,
            "no ticket of its own"
        );
    }
}
