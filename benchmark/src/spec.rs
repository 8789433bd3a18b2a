//! What the benchmark runs and what it reports: the scheme list, the four
//! workloads, and the canonical metric lists that `BENCHMARK.json` mirrors
//! (a unit test holds the two together).

use std::time::Duration;
use workload::{OpMix, SchemeKind, Structure, WorkloadSpec};

/// Every scheme, in the fixed order each round runs them. The metric suffix
/// `<s>` is `SchemeKind::name()` (the paper's legend).
pub const SCHEMES: [SchemeKind; 8] = [
    SchemeKind::None,
    SchemeKind::Qsbr,
    SchemeKind::Ebr,
    SchemeKind::He,
    SchemeKind::Hp,
    SchemeKind::Cadence,
    SchemeKind::QSense,
    SchemeKind::RefCount,
];

/// Allowed worsening of every `mops.<s>` median (share of the parent's median).
pub const MOPS_BOUND: f64 = 0.25;
/// Allowed worsening of `setup_s`.
pub const SETUP_BOUND: f64 = 0.25;
/// `run_seconds` of `BENCHMARK.json`; also what `--selfcheck` and `run.sh` use.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// Operations the stalled session completes before it starts sleeping, and
/// how long it sleeps before each later operation.
pub const STALL_AFTER_OPS: u64 = 64;
pub const STALL_SLEEP: Duration = Duration::from_millis(2);
/// Limbo cap the robust schemes must hold on `skiplist_stalled`.
pub const STALLED_LIMBO_CAP_BYTES: u64 = 8 << 20;
pub const BOUNDED_UNDER_STALL: [SchemeKind; 4] = [
    SchemeKind::Hp,
    SchemeKind::Cadence,
    SchemeKind::QSense,
    SchemeKind::He,
];

/// One workload: a structure, an operation mix and a slice length.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub structure: Structure,
    pub key_range: u64,
    pub mix: OpMix,
    pub slice: Duration,
    /// Adds the delayed session of the paper's Fig. 5 (bottom).
    pub stalled: bool,
}

impl Workload {
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::new(self.key_range, self.mix)
    }

    /// Measured rounds that fit `seconds` of timed slices; at least one.
    pub fn rounds(&self, seconds: f64) -> usize {
        let per_round = self.slice.as_secs_f64() * SCHEMES.len() as f64;
        ((seconds / per_round) as usize).max(1)
    }
}

pub fn workloads() -> [Workload; 4] {
    let quarter = Duration::from_millis(250);
    [
        Workload {
            name: "list_read_mostly",
            structure: Structure::List,
            key_range: 2_000,
            mix: OpMix::updates_10(),
            slice: quarter,
            stalled: false,
        },
        Workload {
            name: "queue_churn",
            structure: Structure::Queue,
            key_range: 10_000,
            mix: OpMix::churn(),
            slice: quarter,
            stalled: false,
        },
        Workload {
            name: "skiplist_mixed",
            structure: Structure::SkipList,
            key_range: 20_000,
            mix: OpMix::updates_50(),
            slice: quarter,
            stalled: false,
        },
        Workload {
            name: "skiplist_stalled",
            structure: Structure::SkipList,
            key_range: 20_000,
            mix: OpMix::updates_50(),
            slice: Duration::from_millis(300),
            stalled: true,
        },
    ]
}

pub fn workload_named(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// A metric's name and unit as `BENCHMARK.json` lists them.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
    }
}

/// The end-to-end metrics, in output order, each with its bound.
pub fn end_to_end() -> Vec<(MetricDef, f64)> {
    let mut defs: Vec<_> = SCHEMES
        .iter()
        .map(|s| (def(format!("mops.{}", s.name()), "Mops/s"), MOPS_BOUND))
        .collect();
    defs.push((def("setup_s", "s"), SETUP_BOUND));
    defs
}

/// Per-scheme metrics taken on the workload itself (suffix = scheme name).
const SCHEME_WORKLOAD_METRICS: [(&str, &str); 8] = [
    ("scheme.op_p50_ns", "ns"),
    ("scheme.op_p99_ns", "ns"),
    ("scheme.retires_per_kop", "1/kop"),
    ("scheme.scans_per_kretire", "1/kretire"),
    ("scheme.scan_walk_share", "ratio"),
    ("scheme.freed_share", "ratio"),
    ("scheme.limbo_peak_kib", "KiB"),
    ("scheme.session_open_close_us", "us"),
];

/// Per-scheme metrics of the single-thread isolation pass.
const SCHEME_ISOLATION_METRICS: [&str; 3] = [
    "scheme.begin_end_ns",
    "scheme.protect_ns",
    "scheme.retire_cycle_ns",
];

/// The per-layer metrics of a traced run, in output order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("workload.next_op_ns", "ns"),
        def("workload.make_set_ms", "ms"),
        def("workload.prefill_ms", "ms"),
        def("workload.teardown_ms", "ms"),
        def("lockfree-ds.contains_p50_ns", "ns"),
        def("lockfree-ds.insert_p50_ns", "ns"),
        def("lockfree-ds.remove_p50_ns", "ns"),
        def("lockfree-ds.update_success_share", "ratio"),
    ];
    for (prefix, unit) in SCHEME_WORKLOAD_METRICS {
        defs.extend(
            SCHEMES
                .iter()
                .map(|s| def(format!("{prefix}.{}", s.name()), unit)),
        );
    }
    defs.push(def("scheme.fences_per_op.hp", "1/op"));
    defs.push(def("scheme.quiescent_per_kop.qsbr", "1/kop"));
    defs.push(def("scheme.quiescent_per_kop.qsense", "1/kop"));
    defs.push(def("scheme.fallback_switches.qsense", "count"));
    for prefix in SCHEME_ISOLATION_METRICS {
        defs.extend(
            SCHEMES
                .iter()
                .map(|s| def(format!("{prefix}.{}", s.name()), "ns")),
        );
    }
    defs.extend([
        def("reclaim-core.guard_bracket_ns", "ns"),
        def("reclaim-core.lease_cycle_ns", "ns"),
        def("alloc.alloc_free_ns", "ns"),
        def("trace.instant_now_ns", "ns"),
        def("trace.overhead_pct", "%"),
    ]);
    defs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"`/`"unit"`/`"bound"` triples of one array of BENCHMARK.json.
    /// The file is flat enough that a scan between the section's brackets
    /// replaces a JSON parser.
    fn section(json: &str, key: &str) -> Vec<(String, String, Option<f64>)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, name: &str| -> Option<String> {
            let at = entry.find(&format!("\"{name}\""))?;
            let rest = entry[at..].split_once(':')?.1.trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"').to_string())
        };
        body.split('{')
            .skip(1)
            .map(|entry| {
                (
                    field(entry, "name").expect("name"),
                    field(entry, "unit").unwrap_or_default(),
                    field(entry, "bound").map(|b| b.parse().expect("bound is a number")),
                )
            })
            .collect()
    }

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_emits() {
        let listed = section(BENCHMARK_JSON, "end_to_end");
        let ours: Vec<_> = end_to_end()
            .into_iter()
            .map(|(d, bound)| (d.name, d.unit.to_string(), Some(bound)))
            .collect();
        assert_eq!(listed, ours);

        let listed = section(BENCHMARK_JSON, "per_layer");
        let ours: Vec<_> = per_layer()
            .into_iter()
            .map(|d| (d.name, d.unit.to_string(), None))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_run_length() {
        let listed: Vec<_> = section(BENCHMARK_JSON, "workloads")
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        let ours: Vec<_> = workloads().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed, ours);
        assert!(BENCHMARK_JSON.contains(&format!("\"run_seconds\": {}", DEFAULT_SECONDS as u64)));
    }

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let names_ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let all = end_to_end().into_iter().map(|(d, _)| d).chain(per_layer());
        for d in all {
            assert!(names_ok(&d.name, "_.-", 64), "name {}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(names_ok(d.unit, "_/%.-", 16), "unit {}", d.unit);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
    }

    #[test]
    fn a_run_always_has_a_measured_round() {
        for w in workloads() {
            assert_eq!(w.rounds(0.1), 1);
            assert!(w.rounds(DEFAULT_SECONDS) >= 12, "{}", w.name);
        }
    }
}
