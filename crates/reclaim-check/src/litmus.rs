//! Store-buffer litmus for the reservation publish/scan races.
//!
//! The [`explorer`](crate::explorer) runs real code under a sequentially
//! consistent scheduler, so it cannot see the one failure classic hazard
//! pointers — and epoch pins — are built around: a publication still sitting
//! in the reader's store buffer when the scanner reads the reservations. This
//! module checks that window on abstract machines instead, one row per
//! protocol `reclaim_core::fence` serves, all under total store order and the
//! same four fence placements ([`Protocol`]). This file holds the driver
//! ([`Model`], [`explore`]) and the hazard-pointer row — two threads, one node:
//!
//! ```text
//! reader:   load link → publish hp → [fence] → validate link → use node → clear hp
//! scanner:  unlink → retire → [barrier] → snapshot hp → [barrier] → free if absent
//! ```
//!
//! [`epoch`] holds EBR's pin/advance row.
//!
//! Each thread has a FIFO store buffer: a store enters its own thread's buffer
//! and reaches memory in a later, separately schedulable *flush* step; loads
//! read memory (no thread here loads an address it stores to, so there is no
//! forwarding to model). The scanner's unlink is what the structures issue — a
//! `SeqCst` compare-and-swap, which acts on memory directly. A reader *fence*
//! cannot execute until the reader's buffer is empty. The scanner *barrier* is
//! `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` as the kernel documents it: a
//! fence on the caller at entry, then, before the call returns, an interrupt
//! that lands between two instructions of the sibling — wherever the schedule
//! puts it — and drains the sibling's buffer.
//!
//! [`check`] enumerates every interleaving of the two programs, the flushes and
//! the interrupt (breadth-first over machine states, so the first violation
//! found has the shortest schedule) and convicts a protocol if in any of them
//! the reader uses the node after the scanner freed it.
//!
//! What this does not cover: memory models weaker than TSO (a relaxed mode is
//! ROADMAP direction 2's next slice), more than one reader or node, and whether
//! the code issues the instructions the model says it does.

pub mod epoch;

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
    /// Scanner: the node enters its limbo bag (thread-private).
    Retire,
    /// Scanner: `membarrier` is entered — a fence on the caller.
    BarrierEnter,
    /// Kernel: the barrier's interrupt lands on the reader's CPU and drains
    /// its store buffer.
    Interrupt,
    /// Scanner: `membarrier` returns; only schedulable after the interrupt.
    BarrierReturn,
    /// Scanner: read `hp` from memory.
    Snapshot,
    /// Scanner: free the node if the snapshot did not hold it.
    FreeIfAbsent,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Step::LoadLink => "reader: load link -> n",
            Step::Publish => "reader: store hp = n (buffered)",
            Step::ReaderFence => "reader: fence",
            Step::Validate => "reader: validate link",
            Step::Use => "reader: use n",
            Step::Clear => "reader: store hp = null (buffered)",
            Step::Flush => "reader's oldest buffered store reaches memory",
            Step::Unlink => "scanner: unlink n (SeqCst CAS)",
            Step::Retire => "scanner: retire n",
            Step::BarrierEnter => "scanner: membarrier enters (fence on caller)",
            Step::Interrupt => "kernel: interrupt drains the reader's store buffer",
            Step::BarrierReturn => "scanner: membarrier returns",
            Step::Snapshot => "scanner: snapshot hp",
            Step::FreeIfAbsent => "scanner: free n if absent from the snapshot",
        })
    }
}

/// The violation every row looks for: the reader dereferenced the node after it
/// was freed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UseAfterFree;

/// An abstract machine [`explore`] can enumerate: a state, the steps
/// schedulable in it, and the two outcomes a verdict counts.
pub trait Model: Clone + Eq + Hash {
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

/// The hazard-pointer machine. `Option<Step>` program counters: `None` is
/// "finished". The scanner buffers nothing — its only shared store is the CAS —
/// so only the reader's buffer is state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Machine {
    protocol: Protocol,
    /// Memory: the link still points at the node; the slot holds the node.
    linked: bool,
    hp_in_memory: bool,
    freed: bool,
    /// The reader's buffered `hp` stores, oldest first (`true` = the node).
    reader_buffer: VecDeque<bool>,
    reader_next: Option<Step>,
    scanner_next: Option<Step>,
    /// Between `BarrierEnter` and the interrupt.
    interrupt_pending: bool,
    /// What the scanner's snapshot saw.
    snapshot_held_node: bool,
    used: bool,
}

impl Machine {
    fn start(protocol: Protocol) -> Self {
        Self {
            protocol,
            linked: true,
            hp_in_memory: false,
            freed: false,
            reader_buffer: VecDeque::new(),
            reader_next: Some(Step::LoadLink),
            scanner_next: Some(Step::Unlink),
            interrupt_pending: false,
            snapshot_held_node: false,
            used: false,
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
        let scanner = self
            .scanner_next
            .filter(|&step| step != Step::BarrierReturn || !self.interrupt_pending);
        let flush = (!self.reader_buffer.is_empty()).then_some(Step::Flush);
        let interrupt = self.interrupt_pending.then_some(Step::Interrupt);
        [reader, scanner, flush, interrupt].into_iter().flatten()
    }

    fn execute(&mut self, step: Step) -> Result<(), UseAfterFree> {
        use ScannerBarrier::{AfterSnapshot, BeforeSnapshot};
        let protocol = self.protocol;
        match step {
            Step::LoadLink => {
                self.reader_next = self.linked.then_some(Step::Publish);
            }
            Step::Publish => {
                self.reader_buffer.push_back(true);
                self.reader_next = Some(if protocol.reader_fence {
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
                self.scanner_next = Some(Step::Retire);
            }
            Step::Retire => {
                self.scanner_next = Some(match protocol.scanner_barrier {
                    BeforeSnapshot => Step::BarrierEnter,
                    ScannerBarrier::None | AfterSnapshot => Step::Snapshot,
                });
            }
            Step::BarrierEnter => {
                self.interrupt_pending = true;
                self.scanner_next = Some(Step::BarrierReturn);
            }
            Step::Interrupt => {
                while !self.reader_buffer.is_empty() {
                    self.flush_one();
                }
                self.interrupt_pending = false;
            }
            Step::BarrierReturn => {
                self.scanner_next = Some(match protocol.scanner_barrier {
                    AfterSnapshot => Step::FreeIfAbsent,
                    ScannerBarrier::None | BeforeSnapshot => Step::Snapshot,
                });
            }
            Step::Snapshot => {
                self.snapshot_held_node = self.hp_in_memory;
                self.scanner_next = Some(match protocol.scanner_barrier {
                    AfterSnapshot => Step::BarrierEnter,
                    ScannerBarrier::None | BeforeSnapshot => Step::FreeIfAbsent,
                });
            }
            Step::FreeIfAbsent => {
                self.freed = !self.snapshot_held_node;
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

/// What [`explore`] found.
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

/// Enumerates every interleaving of `protocol`'s hazard-pointer reader and
/// scanner.
pub fn check(protocol: Protocol) -> Verdict {
    explore(Machine::start(protocol))
}

/// Enumerates every schedule of `start`'s machine.
pub fn explore<M: Model>(start: M) -> Verdict<M::Step> {
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
        let mut machine = Machine::start(protocol);
        machine.execute(Step::LoadLink).unwrap();
        machine.execute(Step::Publish).unwrap();
        assert!(!machine.hp_in_memory, "the store is buffered");
        assert!(
            !machine.enabled().any(|step| step == Step::ReaderFence),
            "the fence cannot pass a non-empty buffer"
        );
        for step in [Step::Unlink, Step::Retire, Step::BarrierEnter] {
            machine.execute(step).unwrap();
        }
        assert!(
            !machine.enabled().any(|step| step == Step::BarrierReturn),
            "the barrier cannot return before its interrupt landed"
        );
        machine.execute(Step::Interrupt).unwrap();
        assert!(machine.hp_in_memory && machine.reader_buffer.is_empty());
        let enabled: Vec<Step> = machine.enabled().collect();
        assert_eq!(enabled, [Step::ReaderFence, Step::BarrierReturn]);
    }

    #[test]
    fn the_run_to_completion_schedules_finish_with_a_use_or_a_free() {
        let protocol = Protocol {
            reader_fence: false,
            scanner_barrier: ScannerBarrier::None,
        };
        // Reader first, buffer flushed as it goes: the scanner sees the slot
        // cleared again and frees after the use.
        let mut machine = Machine::start(protocol);
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
}
