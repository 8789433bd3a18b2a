//! The epoch row: EBR's pin against the epoch advance.
//!
//! An EBR pin is a reservation like a hazard pointer, and its publication
//! races the advancer's walk over the pin records the same way. What the race
//! can break is a bound, not a single free: *while an operation is in flight
//! the global epoch stays within one of the epoch the operation read after
//! publishing its pin* (its tag). The scheme frees a node `gap` advances after
//! its retirer's tag on the strength of that bound, held by retirer and reader
//! both — so the machine has both, and an advancer:
//!
//! ```text
//! reader:    load g → store pin → [fence] → load link → use node → store unpin
//! writer:    load g → store pin → [fence] → load g (tag) → unlink → retire(tag) → store unpin
//! advancer:  loop { load g → [barrier] → walk the pins → [barrier] → CAS g+1 }
//! owner:     free the node once g ≥ tag + gap
//! ```
//!
//! Reader and writer each have a FIFO store buffer (pin and unpin enter it; a
//! separately schedulable *flush* moves the oldest store to memory); all loads
//! read memory. The writer's unlink is a `SeqCst` compare-and-swap, which on
//! TSO cannot execute past a non-empty buffer; a *fence* cannot either. The
//! advancer is a third, unpinned thread — the least constrained caller of
//! `Ebr::try_advance` — whose walk blocks (and retries) on a record visibly
//! pinned at another epoch. Its barrier is `membarrier` as in the
//! hazard-pointer row: a fence on the caller at entry, then one interrupt per
//! sibling, each landing wherever the schedule puts it and draining that
//! sibling's buffer, all before the call returns.
//!
//! [`check`] convicts a protocol if in any interleaving the reader uses the
//! node after it was freed. With `gap = 3` (`ebr`'s `SAFE_EPOCH_GAP`) the two
//! protocols `ebr` runs are clean; no fence anywhere, and the barrier *after*
//! the walk — which lets an advance miss a pin published since the previous
//! advance's barrier, one step more than the bound allows — are convicted. So
//! is `gap = 2` under either clean protocol: the tag is read at pin time and
//! can lag the epoch at unlink time by one.

use super::{explore, Model, Protocol, ScannerBarrier, UseAfterFree, Verdict};
use std::collections::VecDeque;
use std::fmt;

/// The two pinning threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Thread {
    /// Holds a reference to the node across its operation.
    Reader,
    /// Unlinks and retires the node.
    Writer,
}

use Thread::{Reader, Writer};

/// One schedulable step of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// `observed = g.load()` — `begin_op`'s load, before the pin.
    LoadEpoch(Thread),
    /// `pin.store(observed)` — into the store buffer.
    Pin(Thread),
    /// Full fence; only schedulable once the thread's buffer has drained.
    Fence(Thread),
    /// Reader: `n = link.load()`; skips the use if the node is unlinked.
    LoadLink,
    /// Reader: dereference `n`. After the free, this is the violation.
    Use,
    /// Writer: `tag = g.load()` — the load after the pin.
    LoadTag,
    /// Writer: `link.compare_exchange(n, null)`, `SeqCst`: waits for its buffer.
    Unlink,
    /// Writer: the node enters the limbo chain tagged `tag`.
    Retire,
    /// `pin.store(unpinned)` — into the store buffer.
    Unpin(Thread),
    /// The oldest store in the thread's buffer reaches memory.
    Flush(Thread),
    /// Advancer: `global = g.load()`; stops once the model's last epoch is reached.
    AdvancerLoadEpoch,
    /// Advancer: `membarrier` is entered — a fence on the caller.
    BarrierEnter,
    /// Kernel: the barrier's interrupt lands on the thread's CPU and drains its
    /// store buffer.
    Interrupt(Thread),
    /// Advancer: `membarrier` returns; only schedulable after both interrupts.
    BarrierReturn,
    /// Advancer: read both pins from memory; start over if one is pinned at
    /// another epoch than `global`.
    Walk,
    /// Advancer: `g.compare_exchange(global, global + 1)`.
    Advance,
    /// Owner: free the node; schedulable once `g >= tag + gap`.
    Free,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let who = |thread: &Thread| match thread {
            Reader => "reader",
            Writer => "writer",
        };
        match self {
            Step::LoadEpoch(t) => write!(f, "{}: load g -> observed", who(t)),
            Step::Pin(t) => write!(f, "{}: store pin = observed (buffered)", who(t)),
            Step::Fence(t) => write!(f, "{}: fence", who(t)),
            Step::LoadLink => f.write_str("reader: load link -> n"),
            Step::Use => f.write_str("reader: use n"),
            Step::LoadTag => f.write_str("writer: load g -> tag"),
            Step::Unlink => f.write_str("writer: unlink n (SeqCst CAS)"),
            Step::Retire => f.write_str("writer: retire n, tagged tag"),
            Step::Unpin(t) => write!(f, "{}: store pin = unpinned (buffered)", who(t)),
            Step::Flush(t) => write!(f, "{}'s oldest buffered store reaches memory", who(t)),
            Step::AdvancerLoadEpoch => f.write_str("advancer: load g -> global"),
            Step::BarrierEnter => f.write_str("advancer: membarrier enters (fence on caller)"),
            Step::Interrupt(t) => {
                write!(f, "kernel: interrupt drains the {}'s store buffer", who(t))
            }
            Step::BarrierReturn => f.write_str("advancer: membarrier returns"),
            Step::Walk => f.write_str("advancer: walk the pins"),
            Step::Advance => f.write_str("advancer: CAS g = global + 1"),
            Step::Free => f.write_str("owner: free n (g >= tag + gap)"),
        }
    }
}

/// One pinning thread: program counter (`None` is "finished"), the epoch its
/// pin announces, its store buffer of pin values (`None` = unpinned) and its
/// pin as memory has it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Pinner {
    next: Option<Step>,
    observed: u64,
    buffer: VecDeque<Option<u64>>,
    pin_in_memory: Option<u64>,
    interrupt_pending: bool,
}

impl Pinner {
    fn start(thread: Thread) -> Self {
        Self {
            next: Some(Step::LoadEpoch(thread)),
            observed: 0,
            buffer: VecDeque::new(),
            pin_in_memory: None,
            interrupt_pending: false,
        }
    }

    fn flush_one(&mut self) {
        if let Some(pin) = self.buffer.pop_front() {
            self.pin_in_memory = pin;
        }
    }

    /// `PinRecord::permits_advance_from`, of the pin memory holds.
    fn permits_advance_from(&self, global: u64) -> bool {
        self.pin_in_memory.is_none_or(|epoch| epoch == global)
    }
}

/// The machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Machine {
    protocol: Protocol,
    gap: u64,
    /// Memory: the global epoch, and whether the link still points at the node.
    epoch: u64,
    linked: bool,
    reader: Pinner,
    writer: Pinner,
    writer_tag: u64,
    /// The tag the node was retired with, once it was.
    retired_with: Option<u64>,
    freed: bool,
    used: bool,
    advancer_next: Option<Step>,
    advancer_global: u64,
}

impl Machine {
    fn start(protocol: Protocol, gap: u64) -> Self {
        Self {
            protocol,
            gap,
            epoch: 0,
            linked: true,
            reader: Pinner::start(Reader),
            writer: Pinner::start(Writer),
            writer_tag: 0,
            retired_with: None,
            freed: false,
            used: false,
            advancer_next: Some(Step::AdvancerLoadEpoch),
            advancer_global: 0,
        }
    }

    /// The advancer stops here: one epoch past the first at which a node tagged
    /// at the start could be freed, which every verdict's schedule fits in.
    fn last_epoch(&self) -> u64 {
        self.gap + 1
    }

    fn pinner(&mut self, thread: Thread) -> &mut Pinner {
        match thread {
            Reader => &mut self.reader,
            Writer => &mut self.writer,
        }
    }

    /// The step after a thread's pin is published (and fenced, if it is).
    fn after_pin(thread: Thread) -> Step {
        match thread {
            Reader => Step::LoadLink,
            Writer => Step::LoadTag,
        }
    }
}

impl Model for Machine {
    type Step = Step;

    fn enabled(&self) -> impl Iterator<Item = Step> + '_ {
        let pinners = [(Reader, &self.reader), (Writer, &self.writer)];
        let of_pinners = pinners.into_iter().flat_map(|(thread, pinner)| {
            let waits_for_buffer = matches!(pinner.next, Some(Step::Fence(_) | Step::Unlink));
            let own = pinner
                .next
                .filter(|_| !waits_for_buffer || pinner.buffer.is_empty());
            let flush = (!pinner.buffer.is_empty()).then_some(Step::Flush(thread));
            let interrupt = pinner.interrupt_pending.then_some(Step::Interrupt(thread));
            [own, flush, interrupt]
        });
        let in_barrier = self.reader.interrupt_pending || self.writer.interrupt_pending;
        let advancer = self
            .advancer_next
            .filter(|&step| step != Step::BarrierReturn || !in_barrier);
        let matured = self
            .retired_with
            .is_some_and(|tag| self.epoch >= tag + self.gap);
        let free = (matured && !self.freed).then_some(Step::Free);
        of_pinners.chain([advancer, free]).flatten()
    }

    fn execute(&mut self, step: Step) -> Result<(), UseAfterFree> {
        use ScannerBarrier::{AfterSnapshot, BeforeSnapshot};
        let (protocol, epoch) = (self.protocol, self.epoch);
        match step {
            Step::LoadEpoch(t) => {
                let pinner = self.pinner(t);
                pinner.observed = epoch;
                pinner.next = Some(Step::Pin(t));
            }
            Step::Pin(t) => {
                let pinner = self.pinner(t);
                pinner.buffer.push_back(Some(pinner.observed));
                pinner.next = Some(if protocol.reader_fence {
                    Step::Fence(t)
                } else {
                    Self::after_pin(t)
                });
            }
            Step::Fence(t) => self.pinner(t).next = Some(Self::after_pin(t)),
            Step::LoadLink => {
                self.reader.next = Some(if self.linked {
                    Step::Use
                } else {
                    Step::Unpin(Reader)
                });
            }
            Step::Use => {
                if self.freed {
                    return Err(UseAfterFree);
                }
                self.used = true;
                self.reader.next = Some(Step::Unpin(Reader));
            }
            Step::LoadTag => {
                self.writer_tag = epoch;
                self.writer.next = Some(Step::Unlink);
            }
            Step::Unlink => {
                self.linked = false;
                self.writer.next = Some(Step::Retire);
            }
            Step::Retire => {
                self.retired_with = Some(self.writer_tag);
                self.writer.next = Some(Step::Unpin(Writer));
            }
            Step::Unpin(t) => {
                let pinner = self.pinner(t);
                pinner.buffer.push_back(None);
                pinner.next = None;
            }
            Step::Flush(t) => self.pinner(t).flush_one(),
            Step::AdvancerLoadEpoch => {
                self.advancer_global = epoch;
                self.advancer_next =
                    (epoch < self.last_epoch()).then_some(match protocol.scanner_barrier {
                        BeforeSnapshot => Step::BarrierEnter,
                        ScannerBarrier::None | AfterSnapshot => Step::Walk,
                    });
            }
            Step::BarrierEnter => {
                self.reader.interrupt_pending = true;
                self.writer.interrupt_pending = true;
                self.advancer_next = Some(Step::BarrierReturn);
            }
            Step::Interrupt(t) => {
                let pinner = self.pinner(t);
                while !pinner.buffer.is_empty() {
                    pinner.flush_one();
                }
                pinner.interrupt_pending = false;
            }
            Step::BarrierReturn => {
                self.advancer_next = Some(match protocol.scanner_barrier {
                    AfterSnapshot => Step::Advance,
                    ScannerBarrier::None | BeforeSnapshot => Step::Walk,
                });
            }
            Step::Walk => {
                let global = self.advancer_global;
                let all_caught_up = self.reader.permits_advance_from(global)
                    && self.writer.permits_advance_from(global);
                self.advancer_next = Some(match protocol.scanner_barrier {
                    _ if !all_caught_up => Step::AdvancerLoadEpoch,
                    AfterSnapshot => Step::BarrierEnter,
                    ScannerBarrier::None | BeforeSnapshot => Step::Advance,
                });
            }
            Step::Advance => {
                // The only advancer: its compare-and-swap cannot fail.
                self.epoch = self.advancer_global + 1;
                self.advancer_next = Some(Step::AdvancerLoadEpoch);
            }
            Step::Free => self.freed = true,
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

/// Enumerates every interleaving of `protocol`'s reader, writer and advancer,
/// with nodes freed `gap` epochs after their tag.
pub fn check(protocol: Protocol, gap: u64) -> Verdict<Step> {
    explore(Machine::start(protocol, gap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(machine: &mut Machine, steps: &[Step]) {
        for &step in steps {
            assert!(machine.enabled().any(|enabled| enabled == step), "{step}");
            machine.execute(step).unwrap();
        }
    }

    #[test]
    fn a_walk_blocks_on_a_visible_stale_pin_and_an_interrupt_makes_it_visible() {
        let protocol = Protocol {
            reader_fence: false,
            scanner_barrier: ScannerBarrier::BeforeSnapshot,
        };
        let mut machine = Machine::start(protocol, 3);
        // The writer pins at 0; the store stays buffered while the tag is read.
        run(
            &mut machine,
            &[Step::LoadEpoch(Writer), Step::Pin(Writer), Step::LoadTag],
        );
        assert_eq!(machine.writer.pin_in_memory, None);
        assert!(
            !machine.enabled().any(|step| step == Step::Unlink),
            "a SeqCst CAS cannot pass a non-empty buffer"
        );
        // First advance: the barrier drains the pin, which announces epoch 0.
        run(&mut machine, &[Step::AdvancerLoadEpoch, Step::BarrierEnter]);
        assert!(
            !machine.enabled().any(|step| step == Step::BarrierReturn),
            "the barrier cannot return before both interrupts landed"
        );
        run(
            &mut machine,
            &[
                Step::Interrupt(Reader),
                Step::Interrupt(Writer),
                Step::BarrierReturn,
                Step::Walk,
                Step::Advance,
            ],
        );
        assert_eq!((machine.epoch, machine.writer.pin_in_memory), (1, Some(0)));
        // Second attempt: pinned at 0, global 1 — blocked, back to the load.
        run(
            &mut machine,
            &[
                Step::AdvancerLoadEpoch,
                Step::BarrierEnter,
                Step::Interrupt(Reader),
                Step::Interrupt(Writer),
                Step::BarrierReturn,
                Step::Walk,
            ],
        );
        assert_eq!(machine.advancer_next, Some(Step::AdvancerLoadEpoch));
        assert_eq!(machine.epoch, 1);
    }

    #[test]
    fn the_node_is_freed_gap_epochs_after_its_tag_and_not_before() {
        let protocol = Protocol {
            reader_fence: true,
            scanner_barrier: ScannerBarrier::None,
        };
        let mut machine = Machine::start(protocol, 3);
        run(
            &mut machine,
            &[
                Step::LoadEpoch(Writer),
                Step::Pin(Writer),
                Step::Flush(Writer),
                Step::Fence(Writer),
                Step::LoadTag,
                Step::Unlink,
                Step::Retire,
                Step::Unpin(Writer),
                Step::Flush(Writer),
            ],
        );
        for epoch in 1..=3 {
            assert!(!machine.enabled().any(|step| step == Step::Free));
            run(
                &mut machine,
                &[Step::AdvancerLoadEpoch, Step::Walk, Step::Advance],
            );
            assert_eq!(machine.epoch, epoch);
        }
        run(&mut machine, &[Step::Free]);
        // The reader arrives late and finds the node unlinked.
        run(
            &mut machine,
            &[
                Step::LoadEpoch(Reader),
                Step::Pin(Reader),
                Step::Flush(Reader),
                Step::Fence(Reader),
                Step::LoadLink,
                Step::Unpin(Reader),
            ],
        );
        assert!(machine.freed && !machine.used);
    }
}
