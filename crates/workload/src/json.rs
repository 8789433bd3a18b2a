//! JSON emission for the reports `qsense-bench --json` writes.
//!
//! The offline build has no `serde`, and a report is flat (an environment
//! object plus an array of flat result rows), so this module hand-rolls exactly
//! that shape. It is the JSON twin of [`report`](crate::report): every measured
//! row the CLI prints as text can also land here, under one envelope that
//! records the machine the numbers came from — a throughput figure is only
//! comparable with another taken on the same machine, toolchain and kernel.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::process::Command;

/// Renders `value` as a JSON string literal, escaping quotes, backslashes and
/// control characters (a file path or a command line may hold any of them).
fn quote(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builder for one flat JSON object (a result row, or the environment block),
/// preserving field order.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    parts: Vec<String>,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn raw_field(mut self, key: &str, rendered: &str) -> Self {
        self.parts.push(format!("{}: {rendered}", quote(key)));
        self
    }

    /// Adds a string field.
    pub fn str_field(self, key: &str, value: &str) -> Self {
        self.raw_field(key, &quote(value))
    }

    /// Adds an integer field.
    pub fn int_field(self, key: &str, value: u64) -> Self {
        self.raw_field(key, &value.to_string())
    }

    /// Adds a boolean field.
    pub fn bool_field(self, key: &str, value: bool) -> Self {
        self.raw_field(key, if value { "true" } else { "false" })
    }

    /// Adds a fixed-precision numeric field; non-finite values become `null`.
    pub fn num_field(self, key: &str, value: f64, decimals: usize) -> Self {
        if value.is_finite() {
            self.raw_field(key, &format!("{value:.decimals$}"))
        } else {
            self.raw_field(key, "null")
        }
    }

    /// Adds a numeric field that may be absent (`null`).
    pub fn opt_num_field(self, key: &str, value: Option<f64>, decimals: usize) -> Self {
        self.num_field(key, value.unwrap_or(f64::NAN), decimals)
    }

    /// Renders the object on one line (the row style the reports use).
    pub fn render(&self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's standard output, or "unknown" (a checkout that is
/// not a git repository, a machine without the toolchain).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First `key: value` line of a procfs-style file whose key starts with `key`.
fn proc_value(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().and_then(|text| {
        text.lines()
            .find(|line| line.starts_with(key))
            .and_then(|line| line.split_once(':'))
            .map(|(_, value)| value.trim().to_string())
    })
}

/// The environment block of a report — the same fields `benchmark/` prints
/// with its results, plus the fence protocols the HP family and EBR detected on
/// this kernel (their numbers from two machines compare only if both ran the
/// same one).
pub fn capture_env() -> JsonObject {
    let unknown = || "unknown".to_string();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |release| release.trim().to_string());
    JsonObject::new()
        .int_field("nproc", nproc() as u64)
        .str_field(
            "cpu_model",
            &proc_value("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        )
        .str_field("kernel", &kernel)
        .str_field("rustc", &first_line_of("rustc", &["-V"]))
        // The commit, marked `-dirty` when the tree it was built from differs.
        .str_field(
            "git_sha",
            &first_line_of("git", &["describe", "--always", "--dirty", "--abbrev=40"]),
        )
        .str_field(
            "fence_strategy",
            reclaim_core::FenceStrategy::detect().name(),
        )
        .str_field(
            "rooster_fence_strategy",
            reclaim_core::FenceStrategy::detect_rooster().name(),
        )
}

/// Writes one report: the command that produced it, the environment block and
/// the result rows, one per line.
pub fn write_report(
    path: &Path,
    command: &str,
    env: &JsonObject,
    results: &[JsonObject],
) -> io::Result<()> {
    let rows = results
        .iter()
        .map(|row| format!("    {}", row.render()))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"command\": {},\n  \"env\": {},\n  \"results\": [\n{rows}\n  ]\n}}\n",
        quote(command),
        env.render(),
    );
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_renders_in_field_order_with_null_for_non_finite() {
        let row = JsonObject::new()
            .str_field("scheme", "qsbr")
            .int_field("threads", 4)
            .bool_field("oversubscribed", true)
            .num_field("mops_per_sec", 12.345, 2)
            .num_field("bad", f64::NAN, 2)
            .opt_num_field("missing", None, 1);
        assert_eq!(
            row.render(),
            "{\"scheme\": \"qsbr\", \"threads\": 4, \"oversubscribed\": true, \
             \"mops_per_sec\": 12.35, \"bad\": null, \"missing\": null}"
        );
    }

    #[test]
    fn strings_are_escaped_wherever_they_enter() {
        assert_eq!(quote(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(quote("tab\there\n\u{1}"), "\"tab\\there\\n\\u0001\"");
        let row = JsonObject::new().str_field("cell", "--json \"out\".json");
        assert_eq!(row.render(), r#"{"cell": "--json \"out\".json"}"#);
    }

    #[test]
    fn the_environment_block_names_the_machine() {
        let env = capture_env().render();
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "rustc",
            "git_sha",
            "fence_strategy",
        ] {
            assert!(env.contains(&format!("\"{key}\": ")), "{key} in {env}");
        }
        assert!(nproc() >= 1);
    }

    #[test]
    fn a_report_carries_command_env_and_one_line_per_row() {
        let path = std::env::temp_dir().join(format!("workload-json-{}.json", std::process::id()));
        let rows = [
            JsonObject::new().str_field("scheme", "hp"),
            JsonObject::new().str_field("scheme", "he"),
        ];
        let env = JsonObject::new().int_field("nproc", 2);
        write_report(&path, "qsense-bench --json \"x\"", &env, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text,
            "{\n  \"command\": \"qsense-bench --json \\\"x\\\"\",\n  \"env\": {\"nproc\": 2},\n  \
             \"results\": [\n    {\"scheme\": \"hp\"},\n    {\"scheme\": \"he\"}\n  ]\n}\n"
        );
    }
}
