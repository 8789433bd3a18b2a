//! # workload — the paper's experimental methodology as a library
//!
//! Reproduces §7.1–7.2 of *Fast and Robust Memory Reclamation for Concurrent Data
//! Structures*: uniformly random operations over a key range, structures pre-filled
//! to half their range, throughput measured either against the number of threads
//! (scalability experiments) or against time under periodic process delays
//! (robustness experiments).
//!
//! * [`spec`] — operation mixes, key ranges and the paper's presets;
//! * [`generator`] — deterministic per-thread operation streams;
//! * [`structures`] — the (structure × scheme) evaluation matrix behind one trait;
//! * [`runner`] — the measurement loop, delay injection and memory-cap abort;
//! * [`faults`] — the seeded fault-injection matrix (stalled reader, silent
//!   thread, leaked handle, random delays) that the CLI and CI run against
//!   byte budgets; its stalled reader with handle churn is also where a
//!   budget's pacing of HE's era shows;
//! * `sampler` — the per-episode limbo sampling the robustness scenarios
//!   share;
//! * [`server_soak`] — the M:N lease scenario (thousands of short sessions
//!   borrowing few registered handles) proving the sharded registry's
//!   scan-dispatch and the lease pool's checkout cost;
//! * [`report`] — text tables matching the figures' series;
//! * [`json`] — the same rows as a JSON report carrying the environment block;
//! * [`alloc_track`] — the counting global allocator the CLI and the
//!   zero-allocation tests install to see the heap in bytes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc_track;
pub mod faults;
pub mod generator;
pub mod json;
pub mod report;
pub mod runner;
mod sampler;
pub mod server_soak;
pub mod spec;
pub mod structures;

pub use alloc_track::CountingAllocator;
pub use faults::{
    default_fault_config, run_fault, run_fault_for, FaultKind, FaultPlan, FaultResult,
    PAYLOAD_BYTES,
};
pub use generator::{OpGenerator, Operation};
pub use runner::{run_experiment, DelaySchedule, Experiment, RunResult, Sample};
pub use server_soak::{run_server_soak_with, ServerSoakResult, ServerSoakSpec};
pub use spec::{OpMix, Structure, WorkloadSpec};
pub use structures::{
    config_for, default_bench_config, make_set, set_over, BenchSet, SchemeKind, SetSession,
};
