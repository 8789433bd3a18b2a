//! The environment block printed with every result: a number is only
//! comparable with another taken on the same machine, toolchain and settings.

use crate::trace::quote;
use std::fs;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's standard output, or "unknown" (the driver's
/// checkout is not a git repository, for one).
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

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Key/value pairs in print order.
pub struct Env(pub Vec<(&'static str, String)>);

impl Env {
    /// Machine and toolchain; the caller appends the run's own settings.
    pub fn capture() -> Self {
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").map_or_else(
            |_| "unknown".to_string(),
            |release| release.trim().to_string(),
        );
        Env(vec![
            ("nproc", nproc().to_string()),
            ("cpu_model", cpu_model()),
            ("kernel", kernel),
            ("rustc", first_line_of("rustc", &["-V"])),
            ("git_sha", first_line_of("git", &["rev-parse", "HEAD"])),
        ])
    }

    pub fn push(&mut self, key: &'static str, value: impl ToString) {
        self.0.push((key, value.to_string()));
    }

    pub fn print(&self) {
        for (key, value) in &self.0 {
            println!("env.{key} {value}");
        }
    }

    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(key, value)| format!("{}: {}", quote(key), quote(value)))
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}
