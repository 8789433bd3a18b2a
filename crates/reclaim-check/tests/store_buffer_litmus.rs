//! Acceptance for classic HP's fence placement (`reclaim_core::fence`): the
//! four verdicts of the store-buffer litmus. The two protocols `hazard` runs
//! must be clean; the protocol with no fence anywhere, and the one with the
//! scanner's barrier on the wrong side of its snapshot, must be convicted —
//! so a clean verdict is not the model being unable to fail.

use reclaim_check::litmus::{check, Protocol, ScannerBarrier, Step};
use reclaim_core::fence::{FenceStrategy, ProcessBarrier};

fn verdict_for(
    reader_fence: bool,
    scanner_barrier: ScannerBarrier,
) -> reclaim_check::litmus::Verdict {
    let verdict = check(Protocol {
        reader_fence,
        scanner_barrier,
    });
    println!(
        "reader fence: {reader_fence}, scanner barrier: {scanner_barrier:?} -> {} ({} states)\n{}",
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

#[test]
fn the_four_fence_placements_get_their_verdicts() {
    // Which of the two clean protocols this runner's HP actually executes —
    // in the log, so a CI runner that silently falls back is visible.
    println!(
        "this kernel: {} -> hp fence strategy: {}",
        ProcessBarrier::detected().name(),
        FenceStrategy::detect().name()
    );

    let unfenced = verdict_for(false, ScannerBarrier::None);
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

    for (reader_fence, scanner_barrier) in [
        (true, ScannerBarrier::None),
        (false, ScannerBarrier::BeforeSnapshot),
    ] {
        let verdict = verdict_for(reader_fence, scanner_barrier);
        assert!(verdict.is_clean(), "{}", verdict.schedule());
        assert!(
            verdict.finished_with_use > 0 && verdict.finished_with_free > 0,
            "clean because both outcomes were explored, not because neither can happen"
        );
    }

    let late = verdict_for(false, ScannerBarrier::AfterSnapshot);
    let schedule = late
        .violation
        .expect("a barrier after the snapshot proves nothing about it");
    let position = |step| schedule.iter().position(|&s| s == step);
    assert!(
        position(Step::Snapshot) < position(Step::Interrupt),
        "the snapshot missed a publication the barrier then drained: {schedule:?}"
    );
    assert_eq!(schedule.last(), Some(&Step::Use));
}
