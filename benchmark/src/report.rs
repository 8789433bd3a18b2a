//! Folds slice outcomes into the metrics of `BENCHMARK.json`, and into the
//! span log when the run is traced.

use crate::isolate::Isolation;
use crate::slice::{seconds, Interval, Moved, OpCounts, OpKind, SliceOutcome, SAMPLE_EVERY};
use crate::spec::{self, MetricDef, SCHEMES};
use crate::stats::{latency_percentiles, median, ratio, trimmed_mean};
use crate::trace::SpanLog;
use std::collections::HashMap;
use workload::SchemeKind;

/// Op spans listed per worker and slice in the trace file; the rest are
/// folded into the percentiles and into the worker span's self time.
const OP_SPANS_LISTED: usize = 64;

pub struct Metric {
    pub def: MetricDef,
    pub value: f64,
    /// The per-round samples of a metric that is taken over rounds (empty
    /// for the others), printed beside the value.
    pub rounds: Vec<f64>,
}

#[derive(Default)]
struct SchemeTally {
    /// Throughput of measured slices: `[untraced, traced]`.
    mops: [Vec<f64>; 2],
    /// Sampled operation latencies of traced slices.
    op_ns: Vec<u32>,
    /// Counter movement and operations of each measured slice.
    moved: Vec<(Moved, u64)>,
    limbo_peak_kib: Vec<f64>,
    session_open_close_us: Vec<f64>,
}

impl SchemeTally {
    fn total(&self, counter: impl Fn(&Moved) -> u64) -> f64 {
        self.moved
            .iter()
            .map(|(moved, _)| counter(moved))
            .sum::<u64>() as f64
    }

    fn ops(&self) -> f64 {
        self.moved.iter().map(|(_, ops)| ops).sum::<u64>() as f64
    }
}

/// Everything the measured rounds of one run produced.
#[derive(Default)]
pub struct Tally {
    schemes: [SchemeTally; SCHEMES.len()],
    /// Sampled latencies under the leaky scheme, by operation kind: the
    /// structure's own cost.
    baseline_op_ns: [Vec<u32>; 3],
    baseline_counts: OpCounts,
    make_set_ms: Vec<f64>,
    prefill_ms: Vec<f64>,
    teardown_ms: Vec<f64>,
    /// Seconds of each untraced round spent outside timed slices.
    setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

fn scheme_index(scheme: SchemeKind) -> usize {
    SCHEMES
        .iter()
        .position(|&s| s == scheme)
        .expect("every scheme is listed")
}

impl Tally {
    /// Takes one measured slice.
    pub fn take_slice(&mut self, round: usize, slice: &SliceOutcome) {
        let tally = &mut self.schemes[scheme_index(slice.scheme)];
        tally.mops[usize::from(slice.traced)].push(slice.mops);
        tally.moved.push((slice.moved, slice.ops));
        tally
            .limbo_peak_kib
            .push(slice.peak_limbo_bytes as f64 / 1024.0);
        self.make_set_ms.push(seconds(slice.make_set) * 1e3);
        self.prefill_ms.push(seconds(slice.prefill) * 1e3);
        self.teardown_ms
            .push(seconds((slice.timed.1, slice.drop_set.1)) * 1e3);
        for worker in &slice.workers {
            tally
                .session_open_close_us
                .push((seconds(worker.open) + seconds(worker.close)) * 1e6);
            tally.op_ns.extend(worker.samples.iter().map(|s| s.dur_ns));
            if slice.scheme == SchemeKind::None {
                for sample in &worker.samples {
                    self.baseline_op_ns[sample.kind as usize].push(sample.dur_ns);
                }
                self.baseline_counts.add(&worker.counts);
            }
        }
        self.attempted += slice.ops;
        if !slice.failures.is_empty() {
            self.failed += slice.ops;
            for failure in &slice.failures {
                self.failures
                    .push(format!("round {round} {}: {failure}", slice.scheme.name()));
            }
        }
    }

    /// Takes one measured round's wall time and timed time.
    pub fn take_round(&mut self, traced: bool, wall: Interval, timed_s: f64) {
        if !traced {
            self.setup_s.push(seconds(wall) - timed_s);
        }
    }

    /// Throughput is the trimmed mean over the measured untraced rounds,
    /// set-up time their median (README, "Noise", says why they differ).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut rounds: Vec<(f64, &Vec<f64>)> = self
            .schemes
            .iter()
            .map(|tally| (trimmed_mean(&tally.mops[0]), &tally.mops[0]))
            .collect();
        rounds.push((median(&self.setup_s), &self.setup_s));
        spec::end_to_end()
            .into_iter()
            .zip(rounds)
            .map(|((def, _), (value, rounds))| Metric {
                def,
                value,
                rounds: rounds.clone(),
            })
            .collect()
    }

    /// Per-scheme cost model of a traced run: what the unit costs of the
    /// isolation pass explain of the median operation, and what is left.
    pub fn residuals(&mut self, isolation: &Isolation) -> Vec<Residual> {
        let hp = &self.schemes[scheme_index(SchemeKind::Hp)];
        let protects_per_op = ratio(hp.total(|m| m.traversal_fences), hp.ops());
        SCHEMES
            .iter()
            .zip(&mut self.schemes)
            .zip(&isolation.schemes)
            .map(|((scheme, tally), costs)| {
                let retires_per_op = ratio(tally.total(|m| m.retired), tally.ops());
                let retire_ns = (costs.retire_cycle_ns - costs.begin_end_ns).max(0.0);
                let explained_ns = costs.begin_end_ns
                    + protects_per_op * costs.protect_ns
                    + retires_per_op * retire_ns;
                let op_p50_ns = latency_percentiles(&mut tally.op_ns).0;
                Residual {
                    scheme: scheme.name(),
                    op_p50_ns,
                    protects_per_op,
                    retires_per_op,
                    explained_ns,
                    residual_ns: op_p50_ns - explained_ns,
                }
            })
            .collect()
    }

    pub fn per_layer(&mut self, isolation: &Isolation) -> Vec<Metric> {
        let mut values: HashMap<String, f64> = HashMap::new();
        let mut set = |name: String, value: f64| {
            values.insert(name, value);
        };
        set("workload.next_op_ns".into(), isolation.next_op_ns);
        set("workload.make_set_ms".into(), median(&self.make_set_ms));
        set("workload.prefill_ms".into(), median(&self.prefill_ms));
        set("workload.teardown_ms".into(), median(&self.teardown_ms));
        for kind in OpKind::ALL {
            let (p50, _) = latency_percentiles(&mut self.baseline_op_ns[kind as usize]);
            set(format!("lockfree-ds.{}_p50_ns", kind.name()), p50);
        }
        let updates = [OpKind::Insert as usize, OpKind::Remove as usize];
        set(
            "lockfree-ds.update_success_share".into(),
            ratio(
                updates
                    .iter()
                    .map(|&k| self.baseline_counts.succeeded[k])
                    .sum::<u64>() as f64,
                updates
                    .iter()
                    .map(|&k| self.baseline_counts.attempted[k])
                    .sum::<u64>() as f64,
            ),
        );

        let mut overhead_pct = Vec::new();
        for ((scheme, tally), costs) in SCHEMES
            .iter()
            .zip(&mut self.schemes)
            .zip(&isolation.schemes)
        {
            let s = scheme.name();
            let (p50, p99) = latency_percentiles(&mut tally.op_ns);
            set(format!("scheme.op_p50_ns.{s}"), p50);
            // Too few samples for a p99 happens only in runs cut far below
            // `run_seconds`; the median then stands in so the key is present.
            set(format!("scheme.op_p99_ns.{s}"), p99.unwrap_or(p50));
            let (ops, retired) = (tally.ops(), tally.total(|m| m.retired));
            set(
                format!("scheme.retires_per_kop.{s}"),
                ratio(retired * 1e3, ops),
            );
            set(
                format!("scheme.scans_per_kretire.{s}"),
                ratio(tally.total(|m| m.scans) * 1e3, retired),
            );
            let walks = tally.total(|m| m.scan_walks);
            let decisions =
                walks + tally.total(|m| m.scan_skips) + tally.total(|m| m.scan_wholesale);
            set(
                format!("scheme.scan_walk_share.{s}"),
                ratio(walks, decisions),
            );
            set(
                format!("scheme.freed_share.{s}"),
                ratio(tally.total(|m| m.freed), retired),
            );
            set(
                format!("scheme.limbo_peak_kib.{s}"),
                median(&tally.limbo_peak_kib),
            );
            set(
                format!("scheme.session_open_close_us.{s}"),
                median(&tally.session_open_close_us),
            );
            match scheme {
                SchemeKind::Hp => set(
                    format!("scheme.fences_per_op.{s}"),
                    ratio(tally.total(|m| m.traversal_fences), ops),
                ),
                SchemeKind::Qsbr | SchemeKind::QSense => set(
                    format!("scheme.quiescent_per_kop.{s}"),
                    ratio(tally.total(|m| m.quiescent_states) * 1e3, ops),
                ),
                _ => {}
            }
            if *scheme == SchemeKind::QSense {
                let per_slice: Vec<f64> = tally
                    .moved
                    .iter()
                    .map(|(moved, _)| moved.fallback_switches as f64)
                    .collect();
                set(format!("scheme.fallback_switches.{s}"), median(&per_slice));
            }
            set(format!("scheme.begin_end_ns.{s}"), costs.begin_end_ns);
            set(format!("scheme.protect_ns.{s}"), costs.protect_ns);
            set(format!("scheme.retire_cycle_ns.{s}"), costs.retire_cycle_ns);
            let (plain, traced) = (trimmed_mean(&tally.mops[0]), trimmed_mean(&tally.mops[1]));
            overhead_pct.push(ratio((plain - traced) * 100.0, plain));
        }
        set(
            "reclaim-core.guard_bracket_ns".into(),
            isolation.guard_bracket_ns,
        );
        set(
            "reclaim-core.lease_cycle_ns".into(),
            isolation.lease_cycle_ns,
        );
        set("alloc.alloc_free_ns".into(), isolation.alloc_free_ns);
        set("trace.instant_now_ns".into(), isolation.instant_now_ns);
        set("trace.overhead_pct".into(), median(&overhead_pct));

        spec::per_layer()
            .into_iter()
            .map(|def| Metric {
                value: values
                    .remove(&def.name)
                    .unwrap_or_else(|| panic!("metric {} was not computed", def.name)),
                def,
                rounds: Vec::new(),
            })
            .collect()
    }
}

pub struct Residual {
    pub scheme: &'static str,
    pub op_p50_ns: f64,
    pub protects_per_op: f64,
    pub retires_per_op: f64,
    pub explained_ns: f64,
    pub residual_ns: f64,
}

/// Adds one slice's spans under `round_span`: slice → make_set, prefill,
/// worker → (session, run → ops, flush, session_drop), verify, set_drop.
pub fn log_slice(log: &mut SpanLog, round_span: usize, slice: &SliceOutcome) {
    let whole = (slice.make_set.0, slice.drop_set.1);
    let slice_span = log.add(Some(round_span), "slice", whole);
    log.attr(slice_span, "scheme", slice.scheme.name());
    log.attr(slice_span, "traced", slice.traced);
    log.attr(slice_span, "mops", slice.mops);
    log.add(Some(slice_span), "make_set", slice.make_set);
    log.add(Some(slice_span), "prefill", slice.prefill);
    for (index, worker) in slice.workers.iter().enumerate() {
        let worker_span = log.add(Some(slice_span), "worker", (worker.open.0, worker.close.1));
        log.attr(worker_span, "index", index);
        log.attr(worker_span, "stalled", worker.stalled);
        log.add(Some(worker_span), "session", worker.open);
        let run_span = log.add(Some(worker_span), "run", worker.run);
        log.attr(run_span, "ops", worker.counts.total());
        log.attr(run_span, "sampled_ops", worker.samples.len());
        log.attr(run_span, "sample_every", SAMPLE_EVERY);
        let run_start_ns = log.ns(worker.run.0);
        for (listed, sample) in worker.samples.iter().enumerate() {
            if listed < OP_SPANS_LISTED {
                let start_ns = run_start_ns + sample.start_ns;
                let end_ns = start_ns + u64::from(sample.dur_ns);
                log.add_ns(Some(run_span), sample.kind.name(), start_ns, end_ns);
            } else {
                log.spans[run_span].unlisted_child_ns += u64::from(sample.dur_ns);
            }
        }
        log.add(Some(worker_span), "flush", worker.flush);
        log.add(Some(worker_span), "session_drop", worker.close);
    }
    log.add(Some(slice_span), "verify", slice.verify);
    log.add(Some(slice_span), "set_drop", slice.drop_set);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_metric_is_computed_even_from_an_empty_run() {
        let mut tally = Tally::default();
        let layer = tally.per_layer(&Isolation::default());
        assert_eq!(layer.len(), spec::per_layer().len());
        let e2e = tally.end_to_end();
        assert_eq!(e2e.len(), spec::end_to_end().len());
        assert!(layer.iter().chain(&e2e).all(|m| m.value.is_finite()));
    }
}
