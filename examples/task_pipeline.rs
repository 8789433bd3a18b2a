//! A two-stage work pipeline built on the lock-free Michael–Scott queue.
//!
//! Producers enqueue raw "jobs", a middle stage dequeues them, does some work and
//! enqueues results, and a final stage drains the results. Every hand-off retires
//! the queue's dummy node, so the pipeline exercises reclamation on a structure that
//! is *not* an ordered set — demonstrating the paper's claim (§4.2) that QSense
//! applies wherever hazard pointers apply.
//!
//! Run with: `cargo run --release --example task_pipeline`

use qsense_repro::ds::{MichaelScottQueue, QUEUE_HP_SLOTS};
use qsense_repro::smr::{QSense, Smr, SmrConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// A unit of work flowing through the pipeline.
#[derive(Debug)]
struct Job {
    id: u64,
    payload: u64,
}

/// The result produced by the middle stage.
#[derive(Debug)]
struct Outcome {
    id: u64,
    digest: u64,
}

fn main() {
    let producers = 2;
    let jobs_per_producer = 200_000u64;

    // One QSense instance shared by both queues: the scheme is per-application, not
    // per-structure, exactly like a malloc implementation would be.
    let scheme = QSense::new(
        SmrConfig::default()
            .with_hp_per_thread(QUEUE_HP_SLOTS)
            .with_max_threads(producers + 3),
    );
    let inbox: Arc<MichaelScottQueue<Job, QSense>> =
        Arc::new(MichaelScottQueue::new(Arc::clone(&scheme)));
    let outbox: Arc<MichaelScottQueue<Outcome, QSense>> =
        Arc::new(MichaelScottQueue::new(Arc::clone(&scheme)));

    let producing = Arc::new(AtomicBool::new(true));
    let transforming = Arc::new(AtomicBool::new(true));
    let transformed = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    thread::scope(|scope| {
        // Stage 1: producers.
        for p in 0..producers {
            let inbox = Arc::clone(&inbox);
            scope.spawn(move || {
                let mut handle = inbox.register();
                for i in 0..jobs_per_producer {
                    let id = p as u64 * jobs_per_producer + i;
                    inbox.enqueue(
                        Job {
                            id,
                            payload: id.wrapping_mul(0x9E37_79B9),
                        },
                        &mut handle,
                    );
                }
            });
        }

        // Stage 2: transformer (dequeues jobs, enqueues outcomes).
        {
            let inbox = Arc::clone(&inbox);
            let outbox = Arc::clone(&outbox);
            let producing = Arc::clone(&producing);
            let transforming = Arc::clone(&transforming);
            let transformed = Arc::clone(&transformed);
            scope.spawn(move || {
                let mut in_handle = inbox.register();
                let mut out_handle = outbox.register();
                loop {
                    match inbox.dequeue(&mut in_handle) {
                        Some(job) => {
                            let digest = job.payload.rotate_left(13) ^ job.id;
                            outbox.enqueue(Outcome { id: job.id, digest }, &mut out_handle);
                            transformed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if !producing.load(Ordering::Acquire) && inbox.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                transforming.store(false, Ordering::Release);
            });
        }

        // Stage 3: consumer (drains outcomes and folds them into a checksum).
        {
            let outbox = Arc::clone(&outbox);
            let transforming = Arc::clone(&transforming);
            let consumed = Arc::clone(&consumed);
            let checksum = Arc::clone(&checksum);
            scope.spawn(move || {
                let mut handle = outbox.register();
                loop {
                    match outbox.dequeue(&mut handle) {
                        Some(outcome) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            checksum.fetch_xor(
                                outcome.digest ^ outcome.id.rotate_left(32),
                                Ordering::Relaxed,
                            );
                        }
                        None => {
                            if !transforming.load(Ordering::Acquire) && outbox.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
            });
        }

        // Wait for the producers (first `producers` spawned threads are joined by
        // scope exit; we only need to flip the flag once they are done, so spawn a
        // small watcher instead of restructuring the scope).
        let inbox_watch = Arc::clone(&inbox);
        let producing_watch = Arc::clone(&producing);
        let total = producers as u64 * jobs_per_producer;
        let transformed_watch = Arc::clone(&transformed);
        scope.spawn(move || {
            // Producers enqueue a fixed number of jobs; once that many have been
            // enqueued (len + transformed == total), production is over.
            loop {
                let seen = transformed_watch.load(Ordering::Relaxed) + inbox_watch.len() as u64;
                if seen >= total {
                    producing_watch.store(false, Ordering::Release);
                    break;
                }
                thread::yield_now();
            }
        });
    });

    let total = producers as u64 * jobs_per_producer;
    let stats = scheme.stats();
    let secs = started.elapsed().as_secs_f64();
    println!("task_pipeline: {producers} producers -> transformer -> consumer");
    println!("  jobs produced            : {total}");
    println!(
        "  jobs transformed         : {}",
        transformed.load(Ordering::Relaxed)
    );
    println!(
        "  outcomes consumed        : {}",
        consumed.load(Ordering::Relaxed)
    );
    println!(
        "  pipeline throughput      : {:.2} M jobs/s",
        total as f64 / secs / 1e6
    );
    println!(
        "  checksum                 : {:#018x}",
        checksum.load(Ordering::Relaxed)
    );
    println!("  queue nodes retired      : {}", stats.retired);
    println!("  queue nodes freed        : {}", stats.freed);
    println!("  nodes still in limbo     : {}", stats.in_limbo());
    assert_eq!(
        consumed.load(Ordering::Relaxed),
        total,
        "no job may be lost"
    );
    // Every dequeue retires exactly one dummy node: 2 * total dequeues happened.
    assert_eq!(stats.retired, 2 * total, "one retired dummy per dequeue");
}
