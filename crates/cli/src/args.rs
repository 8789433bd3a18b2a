//! Command-line argument parsing for `qsense-bench`.
//!
//! The parser is hand-rolled (no external dependency) and kept separate from
//! `main.rs` so it can be unit-tested: every flag corresponds either to a paper
//! parameter (`Q`, `R`, `C`, `T`, key range, update percentage) or to an experiment
//! shape (scalability point, delay timeline, scheme comparison).

use std::time::Duration;
use workload::{FaultKind, OpMix, SchemeKind, Structure};

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct CliOptions {
    /// Data structure under test.
    pub structure: Structure,
    /// Schemes under test, in the order they run.
    pub schemes: Vec<SchemeKind>,
    /// Worker threads.
    pub threads: usize,
    /// Measured duration per run.
    pub duration: Duration,
    /// Percentage of update operations (split evenly between inserts and deletes).
    pub update_pct: u8,
    /// Key range; defaults to the structure's default range.
    pub key_range: Option<u64>,
    /// Inject the paper's periodic delay (one thread sleeps half of every cycle).
    pub inject_delay: bool,
    /// Print a throughput/limbo time series instead of a single summary row.
    pub timeline: bool,
    /// Quiescence threshold `Q` override.
    pub quiescence: Option<usize>,
    /// Scan threshold `R` override.
    pub scan: Option<usize>,
    /// Fallback threshold `C` override.
    pub fallback: Option<usize>,
    /// Rooster interval `T` override, in milliseconds.
    pub rooster_ms: Option<u64>,
    /// Eviction timeout override, in milliseconds (enables the extension).
    pub eviction_ms: Option<u64>,
    /// Run the fault-injection matrix instead of the throughput experiment.
    pub fault: Option<Vec<FaultKind>>,
    /// Run the server-soak lease scenario with this many short sessions
    /// instead of the throughput experiment.
    pub server_soak: Option<usize>,
    /// Limbo budget in bytes (enables byte-budget enforcement and verdicts).
    pub limbo_budget: Option<usize>,
    /// Record latency/delay histograms and print the percentile report.
    pub telemetry: bool,
    /// Run these rows of the figure table instead of one cell (`all`, or a
    /// comma-separated list of names).
    pub figure: Option<String>,
    /// Also write every measured row, with the environment block, to this path.
    pub json: Option<String>,
    /// Print the usage text and exit.
    pub help: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            structure: Structure::List,
            schemes: vec![SchemeKind::QSense],
            threads: 4,
            duration: Duration::from_secs(1),
            update_pct: 50,
            key_range: None,
            inject_delay: false,
            timeline: false,
            quiescence: None,
            scan: None,
            fallback: None,
            rooster_ms: None,
            eviction_ms: None,
            fault: None,
            server_soak: None,
            limbo_budget: None,
            telemetry: false,
            figure: None,
            json: None,
            help: false,
        }
    }
}

/// The usage text printed by `--help` and on parse errors.
pub const USAGE: &str = "\
qsense-bench — run one cell, one comparison or one figure of the QSense evaluation matrix

USAGE:
    qsense-bench [OPTIONS]

OPTIONS:
    --structure <list|skiplist|bst|hashmap|queue|stack>
                                              data structure        [default: list]
                                              (queue/stack run 100%-churn FIFO/LIFO
                                              workloads; --updates is forced to 100)
    --scheme <none|qsbr|ebr|he|rc|hp|cadence|qsense>[,...]
                                              schemes to compare, run in the order given
                                              (paper = none,qsbr,qsense,hp,cadence; all = every
                                              scheme); overhead is reported against none for
                                              the schemes listed after it  [default: qsense]
    --threads <N>                             worker threads        [default: 4]
    --duration <SECONDS>                      measured seconds      [default: 1]
    --updates <PCT>                           update percentage     [default: 50]
    --key-range <N>                           key range             [default: per structure]
    --delay                                   delay one thread periodically (Figure 5 bottom)
    --timeline                                print a time series (throughput, in-limbo); with
                                              --delay, none and qsbr abort at 300 000 unreclaimed
                                              nodes (the paper's \"QSBR runs out of memory\")
    --quiescence <Q>                          quiescence threshold override
    --scan <R>                                scan threshold override
    --fallback <C>                            fallback threshold override
    --rooster-ms <T>                          rooster interval override (milliseconds)
    --eviction-ms <MS>                        enable the eviction extension with this timeout
    --fault <stalled-reader|silent-thread|leaked-handle|random-delay|all>
                                              run the fault-injection matrix instead of a
                                              throughput experiment: inject this fault (or
                                              all four) into each selected scheme and print
                                              the limbo trajectory plus the budget verdict
    --server-soak <SESSIONS>                  run the M:N lease scenario instead of a
                                              throughput experiment: SESSIONS short sessions
                                              (spread over --threads workers) each check one
                                              of 8 pooled handles out of a LeasePool, run 64
                                              skip-list operations, and check it back in;
                                              reports throughput, session p50/p99/p99.9, lease
                                              waits, peak limbo and the registry shard
                                              skip/walk counters
    --limbo-budget <BYTES>                    enforce a limbo byte budget (suffixes k/m ok);
                                              schemes escalate when limbo crosses it and the
                                              verdict records peak, time-over and escalations;
                                              he's era then ticks faster (every 64 down to 16
                                              allocations) while more than a quarter of it
                                              sits in limbo
    --telemetry                               record latency/delay histograms and print a
                                              per-scheme percentile report (p50/p90/p99/p99.9
                                              of guard op latency, scan duration and the
                                              retire->free delay) plus scan-dispatch counts
    --figure <NAME[,NAME...]|all>             run rows of the figure table below: each row is
                                              a sweep of plain qsense-bench cells, printed as
                                              it runs; the other arguments given here follow
                                              every cell's own, so they win (--duration 0.05
                                              is a smoke run of any row)
    --json <PATH>                             also write every measured row to PATH, with the
                                              machine it was measured on (nproc, cpu model,
                                              kernel, rustc, git sha, detected fence strategy)
    --help                                    print this text
";

fn parse_structure(value: &str) -> Result<Structure, String> {
    match value {
        "list" | "linked-list" => Ok(Structure::List),
        "skiplist" | "skip-list" => Ok(Structure::SkipList),
        "bst" | "tree" => Ok(Structure::Bst),
        "hashmap" | "hash-map" | "map" => Ok(Structure::HashMap),
        "queue" | "msqueue" | "fifo" => Ok(Structure::Queue),
        "stack" | "treiber" | "lifo" => Ok(Structure::Stack),
        other => Err(format!("unknown structure '{other}'")),
    }
}

/// Parses `--scheme`: a comma-separated list of scheme names, run in the
/// order given. `paper` and `all` stand for the two legends.
fn parse_schemes(value: &str) -> Result<Vec<SchemeKind>, String> {
    let mut schemes = Vec::new();
    for name in value.split(',') {
        let named = match name {
            "none" | "leaky" => vec![SchemeKind::None],
            "qsbr" => vec![SchemeKind::Qsbr],
            "ebr" => vec![SchemeKind::Ebr],
            "he" | "hazard-eras" | "ibr" => vec![SchemeKind::He],
            "rc" | "refcount" => vec![SchemeKind::RefCount],
            "hp" | "hazard" => vec![SchemeKind::Hp],
            "cadence" => vec![SchemeKind::Cadence],
            "qsense" => vec![SchemeKind::QSense],
            "paper" => SchemeKind::all().to_vec(),
            "all" => SchemeKind::extended().to_vec(),
            other => return Err(format!("unknown scheme '{other}'")),
        };
        for kind in named {
            if schemes.contains(&kind) {
                return Err(format!("--scheme lists '{}' twice", kind.name()));
            }
            schemes.push(kind);
        }
    }
    Ok(schemes)
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got '{value}'"))
}

/// Longest `--duration` accepted: anything beyond is a typo, and far beyond
/// (`1e30`, `inf`) `Duration::from_secs_f64` panics.
const MAX_DURATION_SECS: f64 = 1e6;

/// A count, threshold or interval the library has no meaning for at zero (its
/// builders assert; a zero rooster interval would interrupt every CPU back to
/// back): rejected here, so the user gets usage instead of a backtrace.
fn parse_positive<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    let number: T = parse_number(flag, value)?;
    if number == T::from(0) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(number)
}

fn parse_fault(value: &str) -> Result<Vec<FaultKind>, String> {
    if value == "all" {
        return Ok(FaultKind::all().to_vec());
    }
    FaultKind::parse(value)
        .map(|kind| vec![kind])
        .ok_or_else(|| {
            format!(
                "unknown fault '{value}' (expected stalled-reader, silent-thread, \
             leaked-handle, random-delay or all)"
            )
        })
}

/// Parses a byte count with an optional `k`/`m` (KiB/MiB) suffix.
fn parse_bytes(flag: &str, value: &str) -> Result<usize, String> {
    let (digits, scale) = match value.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&value[..value.len() - 1], 1024),
        Some(b'm') | Some(b'M') => (&value[..value.len() - 1], 1024 * 1024),
        _ => (value, 1),
    };
    let count: usize = parse_number(flag, digits)?;
    if count == 0 {
        return Err(format!("{flag} must be positive"));
    }
    count
        .checked_mul(scale)
        .ok_or_else(|| format!("{flag} '{value}' does not fit in a byte count"))
}

impl CliOptions {
    /// Parses the given arguments (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut options = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            let mut value_for = |flag: &str| -> Result<String, String> {
                iter.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("{flag} expects a value"))
            };
            match arg {
                "--structure" => options.structure = parse_structure(&value_for(arg)?)?,
                "--scheme" => options.schemes = parse_schemes(&value_for(arg)?)?,
                "--threads" => options.threads = parse_positive(arg, &value_for(arg)?)?,
                "--duration" => {
                    let secs: f64 = parse_number(arg, &value_for(arg)?)?;
                    // Written so that NaN fails it too.
                    if !(secs > 0.0 && secs <= MAX_DURATION_SECS) {
                        return Err(format!(
                            "--duration must be positive and at most {MAX_DURATION_SECS} seconds"
                        ));
                    }
                    options.duration = Duration::from_secs_f64(secs);
                }
                "--updates" => {
                    let pct: u8 = parse_number(arg, &value_for(arg)?)?;
                    if pct > 100 {
                        return Err("--updates must be between 0 and 100".to_string());
                    }
                    options.update_pct = pct;
                }
                "--key-range" => options.key_range = Some(parse_positive(arg, &value_for(arg)?)?),
                "--delay" => options.inject_delay = true,
                "--timeline" => options.timeline = true,
                "--quiescence" => options.quiescence = Some(parse_positive(arg, &value_for(arg)?)?),
                "--scan" => options.scan = Some(parse_positive(arg, &value_for(arg)?)?),
                "--fallback" => options.fallback = Some(parse_positive(arg, &value_for(arg)?)?),
                "--rooster-ms" => options.rooster_ms = Some(parse_positive(arg, &value_for(arg)?)?),
                "--eviction-ms" => options.eviction_ms = Some(parse_number(arg, &value_for(arg)?)?),
                "--fault" => options.fault = Some(parse_fault(&value_for(arg)?)?),
                "--server-soak" => {
                    let sessions: usize = parse_number(arg, &value_for(arg)?)?;
                    if sessions == 0 {
                        return Err("--server-soak needs at least one session".to_string());
                    }
                    options.server_soak = Some(sessions);
                }
                "--limbo-budget" => {
                    options.limbo_budget = Some(parse_bytes(arg, &value_for(arg)?)?)
                }
                "--help" | "-h" => options.help = true,
                "--telemetry" => options.telemetry = true,
                "--figure" => options.figure = Some(value_for(arg)?),
                "--json" => options.json = Some(value_for(arg)?),
                other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
            }
        }
        Ok(options)
    }

    /// The operation mix implied by `--updates` (inserts and deletes split evenly,
    /// as in the paper). The FIFO/LIFO structures have no membership test, so
    /// they always run the 100%-churn mix regardless of `--updates`.
    pub fn op_mix(&self) -> OpMix {
        if matches!(self.structure, Structure::Queue | Structure::Stack) {
            return OpMix::churn();
        }
        let updates = self.update_pct;
        let inserts = updates / 2;
        let deletes = updates - inserts;
        OpMix::new(100 - updates, inserts, deletes)
    }

    /// The key range to use (explicit override or the structure's default).
    pub fn effective_key_range(&self) -> u64 {
        self.key_range
            .unwrap_or_else(|| self.structure.default_key_range())
    }
}

/// `raw` without the two flags that belong to the front end rather than to a
/// cell (`--figure`, `--json`, each with its value): what a figure appends to
/// every cell it runs, and what a JSON row records as the cell's command line.
pub fn cell_args(raw: &[String]) -> Vec<String> {
    let mut cell = Vec::new();
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        if arg == "--figure" || arg == "--json" {
            args.next();
        } else {
            cell.push(arg.clone());
        }
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(args.iter().copied())
    }

    #[test]
    fn defaults_match_the_documented_values() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.structure, Structure::List);
        assert_eq!(options.schemes, [SchemeKind::QSense]);
        assert_eq!(options.threads, 4);
        assert_eq!(options.update_pct, 50);
        assert!(!options.inject_delay);
        assert!(!options.timeline);
        assert!(!options.help);
        assert_eq!(
            options.effective_key_range(),
            Structure::List.default_key_range()
        );
    }

    #[test]
    fn every_flag_is_recognized() {
        let options = parse(&[
            "--structure",
            "hashmap",
            "--scheme",
            "all",
            "--threads",
            "8",
            "--duration",
            "0.5",
            "--updates",
            "10",
            "--key-range",
            "5000",
            "--delay",
            "--timeline",
            "--quiescence",
            "32",
            "--scan",
            "64",
            "--fallback",
            "1024",
            "--rooster-ms",
            "5",
            "--eviction-ms",
            "100",
        ])
        .unwrap();
        assert_eq!(options.structure, Structure::HashMap);
        assert_eq!(options.schemes, SchemeKind::extended());
        assert_eq!(options.threads, 8);
        assert_eq!(options.duration, Duration::from_millis(500));
        assert_eq!(options.update_pct, 10);
        assert_eq!(options.key_range, Some(5_000));
        assert!(options.inject_delay);
        assert!(options.timeline);
        assert_eq!(options.quiescence, Some(32));
        assert_eq!(options.scan, Some(64));
        assert_eq!(options.fallback, Some(1_024));
        assert_eq!(options.rooster_ms, Some(5));
        assert_eq!(options.eviction_ms, Some(100));
        assert_eq!(options.effective_key_range(), 5_000);
    }

    #[test]
    fn scheme_lists_keep_their_order_and_reject_repeats() {
        let schemes = |value: &str| parse(&["--scheme", value]).map(|options| options.schemes);
        assert_eq!(
            schemes("none,qsense,hp,he").unwrap(),
            [
                SchemeKind::None,
                SchemeKind::QSense,
                SchemeKind::Hp,
                SchemeKind::He
            ]
        );
        assert_eq!(schemes("rc").unwrap(), [SchemeKind::RefCount]);
        assert_eq!(
            schemes("hazard-eras,leaky").unwrap(),
            [SchemeKind::He, SchemeKind::None]
        );
        assert_eq!(schemes("paper").unwrap(), SchemeKind::all());
        assert_eq!(schemes("all").unwrap(), SchemeKind::extended());
        assert_eq!(schemes("paper,he").unwrap().len(), 6);
        assert_eq!(
            schemes("hp,qsbr,hazard").unwrap_err(),
            "--scheme lists 'hp' twice"
        );
        assert_eq!(
            schemes("all,ebr").unwrap_err(),
            "--scheme lists 'ebr' twice"
        );
        assert_eq!(schemes("hp,gc").unwrap_err(), "unknown scheme 'gc'");
        assert_eq!(schemes("hp,").unwrap_err(), "unknown scheme ''");
    }

    #[test]
    fn op_mix_splits_updates_evenly_and_sums_to_100() {
        let options = parse(&["--updates", "25"]).unwrap();
        let mix = options.op_mix();
        assert_eq!(mix.read_pct, 75);
        assert_eq!(mix.insert_pct + mix.delete_pct, 25);
        let all_reads = parse(&["--updates", "0"]).unwrap().op_mix();
        assert_eq!(all_reads.read_pct, 100);
    }

    #[test]
    fn queue_and_stack_structures_parse_and_force_churn() {
        for (alias, structure) in [
            ("queue", Structure::Queue),
            ("msqueue", Structure::Queue),
            ("fifo", Structure::Queue),
            ("stack", Structure::Stack),
            ("treiber", Structure::Stack),
            ("lifo", Structure::Stack),
        ] {
            let options = parse(&["--structure", alias]).unwrap();
            assert_eq!(options.structure, structure, "alias {alias}");
            assert_eq!(options.op_mix(), OpMix::churn(), "alias {alias}");
        }
        // --updates is ignored for the FIFO/LIFO structures...
        let options = parse(&["--structure", "queue", "--updates", "10"]).unwrap();
        assert_eq!(options.op_mix(), OpMix::churn());
        // ...but still honoured for the sets.
        let options = parse(&["--structure", "list", "--updates", "10"]).unwrap();
        assert_eq!(options.op_mix(), OpMix::updates_10());
    }

    #[test]
    fn errors_are_reported_with_context() {
        assert!(parse(&["--structure", "btree"])
            .unwrap_err()
            .contains("unknown structure"));
        assert!(parse(&["--scheme", "gc"])
            .unwrap_err()
            .contains("unknown scheme"));
        assert!(parse(&["--threads"])
            .unwrap_err()
            .contains("expects a value"));
        assert!(parse(&["--threads", "zero"])
            .unwrap_err()
            .contains("expects a number"));
        assert!(parse(&["--threads", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--updates", "150"])
            .unwrap_err()
            .contains("between 0 and 100"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn a_zero_the_library_would_panic_or_spin_on_is_rejected_with_the_flags_name() {
        for flag in [
            "--threads",
            "--quiescence",
            "--scan",
            "--fallback",
            "--rooster-ms",
        ] {
            let error = parse(&[flag, "0"]).unwrap_err();
            assert_eq!(error, format!("{flag} must be at least 1"));
            assert!(parse(&[flag, "1"]).is_ok(), "{flag} 1");
        }
        let options = parse(&["--quiescence", "7", "--scan", "8", "--fallback", "9"]).unwrap();
        assert_eq!(
            (options.quiescence, options.scan, options.fallback),
            (Some(7), Some(8), Some(9))
        );
        assert_eq!(parse(&["--rooster-ms", "3"]).unwrap().rooster_ms, Some(3));
    }

    #[test]
    fn help_flag_is_sticky() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
    }

    #[test]
    fn fault_flag_parses_every_kind_and_the_matrix() {
        assert_eq!(parse(&[]).unwrap().fault, None);
        for kind in FaultKind::all() {
            assert_eq!(
                parse(&["--fault", kind.name()]).unwrap().fault,
                Some(vec![kind])
            );
        }
        assert_eq!(
            parse(&["--fault", "all"]).unwrap().fault,
            Some(FaultKind::all().to_vec())
        );
        assert!(parse(&["--fault", "gremlin"])
            .unwrap_err()
            .contains("unknown fault"));
    }

    #[test]
    fn server_soak_flags_parse_with_defaults_and_overrides() {
        assert_eq!(parse(&[]).unwrap().server_soak, None);
        assert_eq!(
            parse(&["--server-soak", "2000"]).unwrap().server_soak,
            Some(2_000)
        );
        assert!(parse(&["--server-soak", "0"])
            .unwrap_err()
            .contains("at least one session"));
    }

    #[test]
    fn figure_json_and_telemetry_flags_parse() {
        let options = parse(&[]).unwrap();
        assert!(!options.telemetry);
        assert_eq!((options.figure, options.json), (None, None));
        let raw: Vec<String> = [
            "--figure",
            "fig3,fig5-delay-bst",
            "--telemetry",
            "--json",
            "out.json",
        ]
        .map(String::from)
        .to_vec();
        let options = CliOptions::parse(&raw).unwrap();
        assert!(options.telemetry);
        assert_eq!(options.figure.as_deref(), Some("fig3,fig5-delay-bst"));
        assert_eq!(options.json.as_deref(), Some("out.json"));
        assert_eq!(
            cell_args(&raw),
            ["--telemetry"],
            "what every cell of the figure gets"
        );
        assert!(parse(&["--json"]).unwrap_err().contains("expects a value"));
        assert!(parse(&["--telemetry=out.json"])
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn input_the_library_would_panic_or_wrap_on_is_rejected() {
        for (args, complaint) in [
            (["--key-range", "0"], "--key-range must be at least 1"),
            (
                ["--duration", "1e30"],
                "--duration must be positive and at most",
            ),
            (
                ["--duration", "inf"],
                "--duration must be positive and at most",
            ),
            (
                ["--duration", "NaN"],
                "--duration must be positive and at most",
            ),
            (
                ["--duration", "-1"],
                "--duration must be positive and at most",
            ),
            (
                ["--duration", "0"],
                "--duration must be positive and at most",
            ),
            (
                ["--limbo-budget", "18446744073709551615k"],
                "does not fit in a byte count",
            ),
        ] {
            let error = parse(&args).unwrap_err();
            assert!(error.contains(complaint), "{args:?}: {error}");
            assert!(!error.contains('\n'), "{args:?}: one line");
        }
        assert_eq!(parse(&["--key-range", "1"]).unwrap().key_range, Some(1));
        assert_eq!(
            parse(&["--duration", "1e6"]).unwrap().duration,
            Duration::from_secs(1_000_000)
        );
        assert_eq!(
            parse(&["--limbo-budget", "17592186044415m"])
                .unwrap()
                .limbo_budget,
            Some(17_592_186_044_415 << 20)
        );
    }

    #[test]
    fn limbo_budget_accepts_byte_counts_with_suffixes() {
        assert_eq!(parse(&[]).unwrap().limbo_budget, None);
        assert_eq!(
            parse(&["--limbo-budget", "65536"]).unwrap().limbo_budget,
            Some(65_536)
        );
        assert_eq!(
            parse(&["--limbo-budget", "256k"]).unwrap().limbo_budget,
            Some(256 * 1024)
        );
        assert_eq!(
            parse(&["--limbo-budget", "2M"]).unwrap().limbo_budget,
            Some(2 * 1024 * 1024)
        );
        assert!(parse(&["--limbo-budget", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--limbo-budget", "lots"])
            .unwrap_err()
            .contains("expects a number"));
    }
}
