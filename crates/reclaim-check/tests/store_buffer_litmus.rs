//! Acceptance for where the schemes pay the fence behind a reservation
//! (`reclaim_core::fence`). Classic HP and EBR: the four verdicts of each row
//! of the store-buffer litmus — the two protocols the schemes run must be
//! clean; the protocol with no fence anywhere, and the one with the scanner's
//! barrier on the wrong side of its read of the reservations, must be
//! convicted. The barrier ledger (Cadence, QSense, shared HP scans): the rule
//! as shipped must be clean rooster-issued and scanner-issued, and each of its
//! four near misses convicted — so a clean verdict is not the model being
//! unable to fail.

use reclaim_check::litmus::{self, epoch, Ledger, Protocol, ScannerBarrier, Step, Verdict};
use reclaim_core::fence::{FenceStrategy, ProcessBarrier};
use std::fmt::Display;

/// `ebr`'s `SAFE_EPOCH_GAP`.
const EBR_GAP: u64 = 3;

/// The two placements the schemes run, by `FenceStrategy`.
const SHIPPED: [(bool, ScannerBarrier); 2] = [
    (true, ScannerBarrier::None),
    (false, ScannerBarrier::BeforeSnapshot),
];

fn verdict_for<S: Display>(
    row: &str,
    reader_fence: bool,
    scanner_barrier: ScannerBarrier,
    check: impl Fn(Protocol) -> Verdict<S>,
) -> Verdict<S> {
    let verdict = check(Protocol {
        reader_fence,
        scanner_barrier,
    });
    println!(
        "{row}: reader fence: {reader_fence}, scanner barrier: {scanner_barrier:?} -> {} ({} states)\n{}",
        if verdict.is_clean() {
            "clean"
        } else {
            "CONVICTED"
        },
        verdict.states,
        verdict.schedule()
    );
    verdict
}

fn assert_clean_with_both_outcomes<S: Display>(verdict: &Verdict<S>) {
    assert!(verdict.is_clean(), "{}", verdict.schedule());
    assert!(
        verdict.finished_with_use > 0 && verdict.finished_with_free > 0,
        "clean because both outcomes were explored, not because neither can happen"
    );
}

#[test]
fn the_four_fence_placements_get_their_verdicts() {
    // Which of the two clean protocols this runner's HP and EBR actually
    // execute — in the log, so a CI runner that silently falls back is visible.
    println!(
        "this kernel: {} -> hp and ebr fence strategy: {}; cadence and qsense: {}",
        ProcessBarrier::detected().name(),
        FenceStrategy::detect().name(),
        FenceStrategy::detect_rooster().name()
    );

    let unfenced = verdict_for("hp", false, ScannerBarrier::None, litmus::check);
    assert_eq!(
        unfenced.violation.as_deref(),
        Some(
            &[
                Step::LoadLink,
                Step::Publish,
                Step::Validate,
                Step::Unlink,
                Step::Retire,
                Step::Snapshot,
                Step::FreeIfAbsent,
                Step::Use,
            ][..]
        ),
        "the shortest schedule: the publication never leaves the store buffer"
    );

    for (reader_fence, scanner_barrier) in SHIPPED {
        let verdict = verdict_for("hp", reader_fence, scanner_barrier, litmus::check);
        assert_clean_with_both_outcomes(&verdict);
    }

    let late = verdict_for("hp", false, ScannerBarrier::AfterSnapshot, litmus::check);
    let schedule = late
        .violation
        .expect("a barrier after the snapshot proves nothing about it");
    let position = |step| schedule.iter().position(|&s| s == step);
    assert!(
        position(Step::Snapshot) < position(Step::Interrupt(litmus::By::Scanner)),
        "the snapshot missed a publication the barrier then drained: {schedule:?}"
    );
    assert_eq!(schedule.last(), Some(&Step::Use));
}

#[test]
fn the_four_fence_placements_of_an_epoch_pin_get_their_verdicts() {
    use epoch::Step::{Advance, Flush, Free, Interrupt, Pin, Use, Walk};
    use epoch::Thread::{Reader, Writer};
    let ebr = |protocol| epoch::check(protocol, EBR_GAP);

    let unfenced = verdict_for("ebr", false, ScannerBarrier::None, ebr);
    let schedule = unfenced.violation.expect("nothing orders pin and walk");
    assert!(
        !schedule.contains(&Flush(Reader)),
        "the shortest schedule: the reader's pin never leaves the store buffer: {schedule:?}"
    );
    let advances = schedule.iter().filter(|&&step| step == Advance).count();
    assert_eq!(advances as u64, EBR_GAP, "{schedule:?}");
    assert_eq!(schedule[schedule.len() - 2..], [Free, Use]);

    for (reader_fence, scanner_barrier) in SHIPPED {
        let verdict = verdict_for("ebr", reader_fence, scanner_barrier, ebr);
        assert_clean_with_both_outcomes(&verdict);
    }

    // The barrier after the walk: each advance's barrier serves the *next*
    // advance's walk, so a pin published since the previous barrier is missed
    // once more than the bound allows — by the writer (its tag then lags the
    // epoch at unlink time by two) and then by the reader.
    let late = verdict_for("ebr", false, ScannerBarrier::AfterSnapshot, ebr);
    let schedule = late
        .violation
        .expect("a barrier after the walk proves nothing about it");
    let buffered_through_a_walk = |thread| {
        let pinned = schedule.iter().position(|&step| step == Pin(thread));
        schedule[pinned.expect("both threads pin")..]
            .iter()
            .take_while(|&&step| step != Flush(thread) && step != Interrupt(thread))
            .any(|&step| step == Walk)
    };
    assert!(
        buffered_through_a_walk(Writer) && buffered_through_a_walk(Reader),
        "each pin was published after one advance's interrupt and missed by the next one's walk: {schedule:?}"
    );
    assert_eq!(schedule[schedule.len() - 2..], [Free, Use]);
}

#[test]
fn a_gap_of_two_is_convicted_under_both_shipped_protocols() {
    // The tag is read at pin time and can lag the epoch at unlink time by one:
    // the textbook two-epoch wait frees under a reader pinned in between.
    for (reader_fence, scanner_barrier) in SHIPPED {
        let verdict = verdict_for("ebr, gap 2", reader_fence, scanner_barrier, |protocol| {
            epoch::check(protocol, EBR_GAP - 1)
        });
        assert!(!verdict.is_clean());
    }
}

#[test]
fn the_ledger_rule_is_clean_as_shipped_and_each_near_miss_is_convicted() {
    use litmus::By::{Scanner, Sibling};
    use Step::{
        BarrierEnter, Complete, FreeIfAbsent, Interrupt, LoadLink, LoadStamp, Publish, ReadLedger,
        Retire, Snapshot, TakeTicket, Unlink, Use, Validate,
    };

    let verdict_for = |row: &str, protocol: Ledger| {
        let verdict = litmus::check_ledger(protocol);
        let outcome = if verdict.is_clean() {
            "clean"
        } else {
            "CONVICTED"
        };
        println!(
            "ledger, {row}: {outcome} ({} states)\n{}",
            verdict.states,
            verdict.schedule()
        );
        verdict
    };
    let convicted = |row: &str, protocol: Ledger| {
        let schedule = verdict_for(row, protocol).violation;
        let schedule = schedule.unwrap_or_else(|| panic!("{row} must be convicted"));
        assert_eq!(schedule[schedule.len() - 2..], [FreeIfAbsent, Use], "{row}");
        assert!(
            !schedule.contains(&Step::Flush),
            "{row}: the shortest schedule never lets the publication out of the buffer"
        );
        schedule
    };
    let at = |schedule: &[Step], step| {
        let position = schedule.iter().position(|&s| s == step);
        position.unwrap_or_else(|| panic!("no {step:?} in {schedule:?}"))
    };

    // What ships: Cadence and QSense behind the rooster; scanner-barrier HP,
    // whose scans pay for a barrier or share a sibling's.
    for (row, shipped) in [
        ("rooster-issued", Ledger::rooster()),
        ("scanner-issued or shared", Ledger::scanner()),
    ] {
        assert_clean_with_both_outcomes(&verdict_for(row, shipped));
    }

    // (a) The stamp read before the unlink: a barrier that started between
    // the two counts, though its interrupt landed before the reader published
    // — and validated against a link not yet unlinked.
    for base in [Ledger::rooster(), Ledger::scanner()] {
        let schedule = convicted(
            "(a) stamp loaded before the unlink",
            Ledger {
                stamp_before_unlink: true,
                ..base
            },
        );
        assert!(at(&schedule, LoadStamp) < at(&schedule, TakeTicket(Sibling)));
        assert!(at(&schedule, TakeTicket(Sibling)) < at(&schedule, Unlink));
        assert!(at(&schedule, Interrupt(Sibling)) < at(&schedule, Publish));
    }

    // (b) `completed >= stamp`: the barrier whose ticket the stamp *is* started
    // before the stamp was read — in the shortest schedule it is the one before
    // the run began (ticket 0), and no barrier runs after the unlink at all.
    for base in [Ledger::rooster(), Ledger::scanner()] {
        let schedule = convicted(
            "(b) the gate admits completed == stamp",
            Ledger {
                gate_admits_equal: true,
                ..base
            },
        );
        let after_the_stamp = &schedule[at(&schedule, LoadStamp)..];
        let barriers = [TakeTicket(Sibling), TakeTicket(Scanner)];
        assert!(!after_the_stamp.iter().any(|step| barriers.contains(step)));
    }

    // (c) Sharing on `started`: the sibling's barrier has a ticket past the
    // stamp but has not interrupted anyone yet.
    let schedule = convicted(
        "(c) a scan shares a barrier that has only started",
        Ledger {
            shares_on_started: true,
            ..Ledger::scanner()
        },
    );
    assert_eq!(
        schedule,
        [
            LoadLink,
            Publish,
            Validate,
            Unlink,
            LoadStamp,
            Retire,
            TakeTicket(Sibling),
            ReadLedger,
            Snapshot,
            FreeIfAbsent,
            Use,
        ],
        "the shortest schedule"
    );
    assert!(!schedule.contains(&TakeTicket(Scanner)), "it never paid");

    // (d) `completed` raised before the barrier returns: same window, seen
    // through the other counter.
    for base in [Ledger::rooster(), Ledger::scanner()] {
        let schedule = convicted(
            "(d) completed raised before the barrier returns",
            Ledger {
                completes_before_return: true,
                ..base
            },
        );
        assert!(at(&schedule, Complete(Sibling)) < at(&schedule, ReadLedger));
        assert!(
            !schedule.contains(&BarrierEnter(Sibling))
                && !schedule.contains(&BarrierEnter(Scanner)),
            "no barrier was ever issued"
        );
    }
}
