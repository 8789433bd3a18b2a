//! The paper's figures and this reproduction's ablations, as data.
//!
//! A figure is a sweep of plain `qsense-bench` cells: a base argument list plus
//! at most one flag that takes each of a list of values. `--figure <name>`
//! expands a row into its cells and runs them in order; every cell is printed
//! as the command line that reproduces it by hand.

/// One row of the table.
#[derive(Debug)]
pub struct Figure {
    /// Name accepted by `--figure`.
    pub name: &'static str,
    /// What the row reproduces, for `--help`.
    pub about: &'static str,
    /// Arguments every cell of the sweep shares.
    pub base: &'static [&'static str],
    /// The swept flag and the values it takes, one cell each.
    pub sweep: Option<(&'static str, &'static [&'static str])>,
}

const THREADS: Option<(&str, &[&str])> = Some(("--threads", &["1", "2", "4", "8"]));

/// Every figure and ablation, in the order `--figure all` runs them. The
/// scheme lists are the paper's legends plus Hazard Eras, which the matrix
/// tracks wherever the HP family appears.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig3",
        about: "Figure 3: linked list, 2 000 keys, 10% updates; throughput vs threads",
        base: &["--structure", "list", "--updates", "10", "--scheme", "none,qsense,hp,he", "--duration", "0.3"],
        sweep: THREADS,
    },
    Figure {
        name: "fig5-scaling-list",
        about: "Figure 5 top-left: linked list, 50% updates; throughput vs threads",
        base: &["--structure", "list", "--scheme", "none,qsbr,qsense,hp,he", "--duration", "0.3"],
        sweep: THREADS,
    },
    Figure {
        name: "fig5-scaling-skiplist",
        about: "Figure 5 top-middle: skip list, 20 000 keys, 50% updates; throughput vs threads",
        base: &["--structure", "skiplist", "--scheme", "none,qsbr,qsense,hp,he", "--duration", "0.3"],
        sweep: THREADS,
    },
    Figure {
        name: "fig5-scaling-bst",
        about: "Figure 5 top-right: BST, 200 000 keys (paper: 2 000 000), 50% updates; throughput vs threads",
        base: &["--structure", "bst", "--scheme", "none,qsbr,qsense,hp,he", "--duration", "0.3"],
        sweep: THREADS,
    },
    Figure {
        name: "fig5-delay-list",
        about: "Figure 5 bottom-left: linked list, one thread delayed half of every cycle; timeline",
        base: &["--structure", "list", "--scheme", "qsbr,qsense,hp,he", "--threads", "4", "--duration", "8", "--delay", "--timeline"],
        sweep: None,
    },
    Figure {
        name: "fig5-delay-skiplist",
        about: "Figure 5 bottom-middle: skip list under the same delays; timeline",
        base: &["--structure", "skiplist", "--scheme", "qsbr,qsense,hp,he", "--threads", "4", "--duration", "8", "--delay", "--timeline"],
        sweep: None,
    },
    Figure {
        name: "fig5-delay-bst",
        about: "Figure 5 bottom-right: BST under the same delays; timeline",
        base: &["--structure", "bst", "--scheme", "qsbr,qsense,hp,he", "--threads", "4", "--duration", "8", "--delay", "--timeline"],
        sweep: None,
    },
    Figure {
        name: "threshold-q",
        about: "Ablation (s3.1): QSense's quiescence threshold Q; throughput, quiescent states, limbo",
        base: &["--structure", "list", "--scheme", "qsense", "--threads", "4", "--duration", "0.3"],
        sweep: Some(("--quiescence", &["1", "16", "64", "256", "1024"])),
    },
    Figure {
        name: "threshold-c",
        about: "Ablation (s5.2): QSense's fallback threshold C under periodic delays; path switches",
        base: &["--structure", "list", "--scheme", "qsense", "--threads", "4", "--duration", "1.2", "--delay"],
        sweep: Some(("--fallback", &["256", "1024", "8192", "65536"])),
    },
    Figure {
        name: "scan-threshold",
        about: "Ablation (s5.1): scan threshold R for HP, Cadence and QSense; scans vs unreclaimed tail",
        base: &["--structure", "list", "--scheme", "hp,cadence,qsense", "--threads", "4", "--duration", "0.3"],
        sweep: Some(("--scan", &["16", "64", "256", "1024"])),
    },
    Figure {
        name: "rooster-interval",
        about: "Ablation (s5.1): Cadence's rooster interval T in ms; throughput vs unreclaimed tail",
        base: &["--structure", "list", "--scheme", "cadence", "--threads", "4", "--duration", "0.3"],
        sweep: Some(("--rooster-ms", &["1", "5", "20", "50", "100"])),
    },
    Figure {
        name: "era-advance",
        about: "Ablation: Hazard Eras' era-advance policy against a stalled reader; peak limbo, pacer boosts",
        base: &["--scheme", "he", "--fault", "stalled-reader"],
        sweep: Some(("--era-policy", &["static:8", "static:64", "static:512", "adaptive:8,512,16384"])),
    },
    Figure {
        name: "telemetry-off",
        about: "Ablation: the retire-bound queue with the telemetry layer compiled in but off",
        base: &["--structure", "queue", "--scheme", "all", "--threads", "4", "--duration", "0.3"],
        sweep: None,
    },
    Figure {
        name: "telemetry-on",
        about: "Ablation: the same cell with histograms recording (compare Mops/s with telemetry-off)",
        base: &["--structure", "queue", "--scheme", "all", "--threads", "4", "--duration", "0.3", "--telemetry"],
        sweep: None,
    },
    Figure {
        name: "robustness-matrix",
        about: "Every scheme against every injected fault under a 128 KiB limbo budget; peak limbo, verdict",
        base: &["--scheme", "all", "--fault", "all", "--limbo-budget", "128k"],
        sweep: None,
    },
    Figure {
        name: "server-soak",
        about: "2 000 short sessions leasing 8 handles from 16 workers; session percentiles, shard dispatch",
        base: &["--scheme", "hp,cadence,qsense,he", "--server-soak", "2000", "--threads", "16", "--soak-slots", "8", "--soak-ops", "64", "--key-range", "512"],
        sweep: None,
    },
];

/// The rows `selection` names: `all`, or a comma-separated list of names.
pub fn select(selection: &str) -> Result<Vec<&'static Figure>, String> {
    if selection == "all" {
        return Ok(FIGURES.iter().collect());
    }
    selection
        .split(',')
        .map(|name| {
            FIGURES
                .iter()
                .find(|figure| figure.name == name)
                .ok_or_else(|| {
                    let known: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
                    format!(
                        "unknown figure '{name}' (expected all or one of: {})",
                        known.join(", ")
                    )
                })
        })
        .collect()
}

impl Figure {
    /// The argument list of every cell, each followed by `extra` — the caller's
    /// own arguments, which therefore win over the row's. When `extra` sets the
    /// swept flag itself the sweep collapses to that one cell.
    pub fn cells(&self, extra: &[String]) -> Vec<Vec<String>> {
        let cell = |swept: &[&str]| -> Vec<String> {
            self.base
                .iter()
                .chain(swept)
                .map(|arg| arg.to_string())
                .chain(extra.iter().cloned())
                .collect()
        };
        match self.sweep {
            Some((flag, values)) if !extra.iter().any(|arg| arg == flag) => {
                values.iter().map(|value| cell(&[flag, value])).collect()
            }
            _ => vec![cell(&[])],
        }
    }
}

/// The figure list appended to `--help`.
pub fn help() -> String {
    let mut text = String::from("\nFIGURES (--figure <name>[,<name>...] | all):\n");
    for figure in FIGURES {
        text.push_str(&format!("    {:<22} {}\n", figure.name, figure.about));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::CliOptions;

    #[test]
    fn every_row_expands_to_cells_the_parser_accepts() {
        for figure in FIGURES {
            let cells = figure.cells(&[]);
            let expected = figure.sweep.map_or(1, |(_, values)| values.len());
            assert_eq!(cells.len(), expected, "{}", figure.name);
            for cell in &cells {
                let options = CliOptions::parse(cell)
                    .unwrap_or_else(|error| panic!("{}: {cell:?}: {error}", figure.name));
                assert!(
                    options.figure.is_none() && options.json.is_none(),
                    "{}: a cell is a plain run",
                    figure.name
                );
                // A cell's configuration builds: the thresholds and policies
                // it names are ones the library accepts.
                let _ = crate::build_config(&options, workload::default_bench_config(4));
            }
            if let Some((flag, values)) = figure.sweep {
                assert!(
                    crate::args::USAGE.contains(&format!("    {flag} <")),
                    "{flag}"
                );
                assert!(!figure.base.contains(&flag), "{}: swept twice", figure.name);
                assert!(!values.is_empty(), "{}", figure.name);
            }
        }
    }

    #[test]
    fn names_are_distinct_and_selectable() {
        for (i, figure) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|other| other.name != figure.name),
                "duplicate row {}",
                figure.name
            );
            assert_ne!(figure.name, "all");
            assert!(!figure.name.contains(','));
            assert_eq!(select(figure.name).unwrap().len(), 1);
        }
        assert_eq!(select("all").unwrap().len(), FIGURES.len());
        let two = select("fig3,server-soak").unwrap();
        assert_eq!(
            two.iter().map(|figure| figure.name).collect::<Vec<_>>(),
            ["fig3", "server-soak"]
        );
        assert!(select("fig4")
            .unwrap_err()
            .contains("unknown figure 'fig4'"));
    }

    #[test]
    fn the_callers_arguments_follow_the_rows_and_can_pin_the_sweep() {
        let fig3 = select("fig3").unwrap()[0];
        let extra = ["--duration".to_string(), "0.05".to_string()];
        let cells = fig3.cells(&extra);
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells[2][cells[2].len() - 4..],
            ["--threads", "4", "--duration", "0.05"]
        );
        let options = CliOptions::parse(&cells[2]).unwrap();
        assert_eq!(options.threads, 4);
        assert_eq!(
            options.duration.as_secs_f64(),
            0.05,
            "the caller's value wins"
        );
        let pinned = fig3.cells(&["--threads".to_string(), "2".to_string()]);
        assert_eq!(pinned.len(), 1, "the caller set the swept flag");
        assert_eq!(CliOptions::parse(&pinned[0]).unwrap().threads, 2);
    }
}
