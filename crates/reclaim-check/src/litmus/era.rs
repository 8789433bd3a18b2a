//! The era row: HE's interval reservation against the scan that reads it.
//!
//! A Hazard-Eras reader publishes an era interval `[lower, upper]`, not a node
//! address, and it keeps that interval published from one operation to the
//! next: `begin_op` at the era it last announced does nothing (no store, no
//! fence), and only an era that moved is announced afresh, with a fence. `protect` extends `upper`, and fences, when the era moved inside an
//! operation. The scanner frees a node whose lifetime `[birth, retire]`
//! overlaps no reservation it reads. One node, a reader running two
//! operations and a writer that also scans:
//!
//! ```text
//! reader:  { begin_op: load g → e; moved? { store upper = e, lower = e → fence }
//!            load link → n; protect: load g → e'; moved? { store upper = e' → fence }
//!            validate link → use n } × 2            (end_op withdraws nothing)
//! writer:  advance g → insert n (birth = g) → unlink n (SeqCst CAS)
//!          → retire n at a fresh load of g → scan: advance g → load lower
//!          → load upper → free n unless lower <= retire and birth <= upper
//! ```
//!
//! The writer's first advance is the era moving between the reader's two
//! operations (another thread's allocations tick it); the second is the one
//! every HE scan makes. The reader has a FIFO store buffer (its reservation
//! stores enter it; a separately schedulable *flush* moves the oldest to
//! memory) and a fence waits for it to drain; every other access acts on
//! memory. The scanner loads `lower` and `upper` as two steps, as the code
//! does, so a torn read is explored too.
//!
//! [`check`] convicts a [`Rule`] if in any interleaving the reader uses the
//! node after it was freed. The rule `he` runs is clean. Its two near misses
//! are convicted: a `begin_op` that treats a moved era as unchanged (the
//! handle believes it announced an era its record does not reach), and one
//! that re-announces a moved era without the fence.

use super::{explore, Model, UseAfterFree, Verdict};
use std::collections::VecDeque;
use std::fmt;

/// What `begin_op` does when the era moved since the handle last announced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// What `he` runs: a fresh announcement, `[e, e]`, then a fence.
    Shipped,
    /// Near miss: store nothing, as if the era were unchanged; the handle's
    /// mirror records `e` as announced, so `protect` does not re-announce
    /// either.
    SkipReannounce,
    /// Near miss: the fresh announcement without its fence.
    ReannounceWithoutFence,
}

/// `lower` of a withdrawn reservation: above every era.
const INACTIVE_LOWER: u64 = u64::MAX;

/// Operations the reader runs.
const READER_OPS: u8 = 2;

/// One schedulable step of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Reader: `begin_op` — load `g`, then the rule's reservation stores (if any), into
    /// the store buffer.
    BeginOp,
    /// Reader: full fence; only schedulable once its buffer has drained.
    Fence,
    /// Reader: `n = link.load()`; the operation ends if the link is empty.
    LoadLink,
    /// Reader: `protect` — load `g`; if it moved, store `upper` (buffered).
    Protect,
    /// Reader: `link.load() == n`? If not, the operation ends.
    Validate,
    /// Reader: dereference `n`. After the free, this is the violation.
    Use,
    /// The oldest store in the reader's buffer reaches memory.
    Flush,
    /// Writer: `g += 1`, a shared read-modify-write.
    Advance,
    /// Writer: allocate `n` with birth era `g.load()` and link it.
    Insert,
    /// Writer: `link.compare_exchange(n, null)`, `SeqCst`.
    Unlink,
    /// Writer: the node enters its limbo chain with retire era `g.load()`.
    Retire,
    /// Writer's scan: `g += 1` before the snapshot.
    ScanAdvance,
    /// Writer's scan: load the reader's `lower` from memory.
    LoadLower,
    /// Writer's scan: load the reader's `upper` from memory.
    LoadUpper,
    /// Writer's scan: free `n` unless the snapshot's interval covers it.
    FreeIfUncovered,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Step::BeginOp => "reader: begin_op: load g -> e, reservation stores (buffered)",
            Step::Fence => "reader: fence",
            Step::LoadLink => "reader: load link -> n",
            Step::Protect => "reader: protect: load g, store upper if it moved (buffered)",
            Step::Validate => "reader: validate link",
            Step::Use => "reader: use n",
            Step::Flush => "reader's oldest buffered store reaches memory",
            Step::Advance => "writer: g += 1",
            Step::Insert => "writer: insert n, birth = g",
            Step::Unlink => "writer: unlink n (SeqCst CAS)",
            Step::Retire => "writer: retire n at a fresh load of g",
            Step::ScanAdvance => "writer: scan: g += 1",
            Step::LoadLower => "writer: scan: load lower",
            Step::LoadUpper => "writer: scan: load upper",
            Step::FreeIfUncovered => "writer: free n unless lower <= retire and birth <= upper",
        })
    }
}

/// Which half of the reservation a buffered store writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Bound {
    Lower,
    Upper,
}

/// The machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Machine {
    rule: Rule,
    /// Memory: the global era, the link, the reader's record.
    era: u64,
    linked: bool,
    lower: u64,
    upper: u64,
    /// The reader: program counter (`None` is "finished"), the step a fence
    /// leads to, operations left, its buffered record stores (oldest first),
    /// and its handle-local mirror of what it announced.
    reader_next: Option<Step>,
    after_fence: Step,
    ops_left: u8,
    buffer: VecDeque<(Bound, u64)>,
    active: bool,
    announced_upper: u64,
    /// The writer: program counter, the node's birth and retire eras, and
    /// what the snapshot read.
    writer_next: Option<Step>,
    birth: u64,
    retire: u64,
    seen_lower: u64,
    seen_upper: u64,
    freed: bool,
    used: bool,
}

impl Machine {
    fn start(rule: Rule) -> Self {
        Self {
            rule,
            era: 1,
            linked: false,
            lower: INACTIVE_LOWER,
            upper: 0,
            reader_next: Some(Step::BeginOp),
            after_fence: Step::LoadLink,
            ops_left: READER_OPS,
            buffer: VecDeque::new(),
            active: false,
            announced_upper: 0,
            writer_next: Some(Step::Advance),
            birth: 0,
            retire: 0,
            seen_lower: 0,
            seen_upper: 0,
            freed: false,
            used: false,
        }
    }

    /// Stores `[e, e]` and fences, unless the rule drops the fence.
    fn announce(&mut self, era: u64, fenced: bool) {
        self.buffer.push_back((Bound::Upper, era));
        self.buffer.push_back((Bound::Lower, era));
        (self.active, self.announced_upper) = (true, era);
        self.fence_then(fenced, Step::LoadLink);
    }

    /// Keeps the published reservation as it is, with no store and no fence,
    /// and records `e` as announced (at an unchanged era it already is).
    fn keep(&mut self, era: u64) {
        self.announced_upper = era;
        self.reader_next = Some(Step::LoadLink);
    }

    fn fence_then(&mut self, fenced: bool, next: Step) {
        self.after_fence = next;
        self.reader_next = Some(if fenced { Step::Fence } else { next });
    }

    /// `end_op`: nothing is withdrawn; the next operation, if any.
    fn end_op(&mut self) {
        self.ops_left -= 1;
        self.reader_next = (self.ops_left > 0).then_some(Step::BeginOp);
    }

    fn flush_one(&mut self) {
        match self.buffer.pop_front() {
            Some((Bound::Lower, era)) => self.lower = era,
            Some((Bound::Upper, era)) => self.upper = era,
            None => {}
        }
    }
}

impl Model for Machine {
    type Step = Step;

    fn enabled(&self) -> impl Iterator<Item = Step> + '_ {
        let reader = self
            .reader_next
            .filter(|&step| step != Step::Fence || self.buffer.is_empty());
        let flush = (!self.buffer.is_empty()).then_some(Step::Flush);
        [reader, flush, self.writer_next].into_iter().flatten()
    }

    fn execute(&mut self, step: Step) -> Result<(), UseAfterFree> {
        let era = self.era;
        match step {
            Step::BeginOp => {
                let unchanged = self.active && era == self.announced_upper;
                match self.rule {
                    _ if unchanged => self.keep(era),
                    Rule::SkipReannounce if self.active => self.keep(era),
                    Rule::ReannounceWithoutFence if self.active => self.announce(era, false),
                    _ => self.announce(era, true),
                }
            }
            Step::Fence => self.reader_next = Some(self.after_fence),
            Step::LoadLink => {
                if self.linked {
                    self.reader_next = Some(Step::Protect);
                } else {
                    self.end_op();
                }
            }
            Step::Protect => {
                let moved = era != self.announced_upper;
                if moved {
                    self.buffer.push_back((Bound::Upper, era));
                    self.announced_upper = era;
                }
                self.fence_then(moved, Step::Validate);
            }
            Step::Validate => {
                if self.linked {
                    self.reader_next = Some(Step::Use);
                } else {
                    self.end_op();
                }
            }
            Step::Use => {
                if self.freed {
                    return Err(UseAfterFree);
                }
                self.used = true;
                self.end_op();
            }
            Step::Flush => self.flush_one(),
            Step::Advance => {
                self.era += 1;
                self.writer_next = Some(Step::Insert);
            }
            Step::Insert => {
                (self.birth, self.linked) = (era, true);
                self.writer_next = Some(Step::Unlink);
            }
            Step::Unlink => {
                self.linked = false;
                self.writer_next = Some(Step::Retire);
            }
            Step::Retire => {
                self.retire = era;
                self.writer_next = Some(Step::ScanAdvance);
            }
            Step::ScanAdvance => {
                self.era += 1;
                self.writer_next = Some(Step::LoadLower);
            }
            Step::LoadLower => {
                self.seen_lower = self.lower;
                self.writer_next = Some(Step::LoadUpper);
            }
            Step::LoadUpper => {
                self.seen_upper = self.upper;
                self.writer_next = Some(Step::FreeIfUncovered);
            }
            Step::FreeIfUncovered => {
                let covered = self.seen_lower <= self.retire && self.birth <= self.seen_upper;
                self.freed = !covered;
                self.writer_next = None;
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

/// Enumerates every interleaving of the reader's two operations under `rule`
/// and the writer's insert, unlink, retire and scan.
pub fn check(rule: Rule) -> Verdict<Step> {
    explore(Machine::start(rule))
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
    fn protect_extends_a_moved_era_and_the_next_op_runs_under_it_without_a_fence() {
        let mut machine = Machine::start(Rule::Shipped);
        run(&mut machine, &[Step::BeginOp]);
        assert!(
            !machine.enabled().any(|step| step == Step::Fence),
            "the fence waits for the announcement to drain"
        );
        run(&mut machine, &[Step::Flush, Step::Flush, Step::Fence]);
        assert_eq!((machine.lower, machine.upper), (1, 1));
        // The writer inserts at era 2 mid-operation: protect extends and fences.
        run(
            &mut machine,
            &[Step::Advance, Step::Insert, Step::LoadLink, Step::Protect],
        );
        assert_eq!(machine.reader_next, Some(Step::Fence));
        run(
            &mut machine,
            &[Step::Flush, Step::Fence, Step::Validate, Step::Use],
        );
        assert_eq!(
            (machine.lower, machine.upper),
            (1, 2),
            "end_op withdraws nothing"
        );
        // The second op at the unchanged era 2: no store, no fence.
        run(&mut machine, &[Step::BeginOp]);
        assert_eq!(machine.reader_next, Some(Step::LoadLink));
        assert!(machine.buffer.is_empty());
        assert_eq!((machine.lower, machine.upper), (1, 2));
    }

    #[test]
    fn an_idle_reservation_pins_its_era_and_frees_later_births() {
        let writer = [
            Step::Advance,
            Step::Insert,
            Step::Unlink,
            Step::Retire,
            Step::ScanAdvance,
            Step::LoadLower,
            Step::LoadUpper,
            Step::FreeIfUncovered,
        ];
        let announced = [Step::Flush, Step::Flush, Step::Fence];
        // Both ops end before the node exists: the reader idles at [1, 1].
        let mut early = Machine::start(Rule::Shipped);
        run(&mut early, &[Step::BeginOp]);
        run(&mut early, &announced);
        run(&mut early, &[Step::LoadLink, Step::BeginOp, Step::LoadLink]);
        assert!(early.reader_next.is_none() && early.buffer.is_empty());
        run(&mut early, &writer);
        assert!(early.freed, "born at 2, after the idle reservation [1, 1]");

        // The second op uses the node at era 2 and idles at [2, 2]: the
        // retire after it is covered.
        let mut late = Machine::start(Rule::Shipped);
        run(&mut late, &[Step::BeginOp]);
        run(&mut late, &announced);
        run(
            &mut late,
            &[Step::LoadLink, Step::Advance, Step::Insert, Step::BeginOp],
        );
        run(&mut late, &announced);
        run(
            &mut late,
            &[Step::LoadLink, Step::Protect, Step::Validate, Step::Use],
        );
        assert!(late.reader_next.is_none());
        run(&mut late, &writer[2..]);
        assert!(
            late.used && !late.freed,
            "the idle reservation [2, 2] covers it"
        );
    }
}
