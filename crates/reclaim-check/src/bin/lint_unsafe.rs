//! `lint_unsafe`: every `unsafe` *block* in the workspace must carry a
//! `// SAFETY:` comment — on the same line, or in the run of comment /
//! attribute lines immediately above the statement that opens the block.
//!
//! CI runs this binary and fails the build on any naked block:
//!
//! ```text
//! cargo run --release -p reclaim-check --bin lint_unsafe
//! ```
//!
//! The checker is a line scanner, not a parser, tuned to this codebase's
//! formatting (rustfmt-clean, one statement per line). It deliberately skips:
//!
//! * `unsafe fn` / `unsafe impl` / `unsafe trait` / `unsafe extern`
//!   declarations — their obligations live on the *callers* and *bodies*;
//! * occurrences inside `//`-comments, doc comments, and string literals
//!   (detected by stripping those spans before matching);
//! * `vendor/` and `target/` trees.
//!
//! A block is satisfied by a marker on the same physical line, or by a marker
//! in the contiguous run of lines directly above it consisting of comments,
//! attributes, wrapped fragments of the opening statement, and *other unsafe
//! lines* — so one `// SAFETY:` comment may cover a tight cluster of unsafe
//! statements it textually dominates. Blank lines and safe statements break
//! the run: a safety argument must visibly belong to the block it discharges.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// Built by concatenation so this file never flags (or documents) itself.
fn marker() -> String {
    format!("// {}:", "SAFETY")
}

fn main() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rust_files(&root, &mut files);
    files.sort();

    let marker = marker();
    let mut violations = Vec::new();
    for path in &files {
        let Ok(source) = fs::read_to_string(path) else {
            continue;
        };
        scan_file(path, &source, &marker, &mut violations);
    }

    if violations.is_empty() {
        println!(
            "lint_unsafe: {} files scanned, every unsafe block is annotated",
            files.len()
        );
        return ExitCode::SUCCESS;
    }
    let mut report = String::new();
    for v in &violations {
        let _ = writeln!(report, "{v}");
    }
    eprint!("{report}");
    eprintln!(
        "lint_unsafe: {} unsafe block(s) without a `{marker}` comment",
        violations.len()
    );
    ExitCode::FAILURE
}

fn workspace_root() -> PathBuf {
    // This crate lives at <root>/crates/reclaim-check; fall back to cwd when
    // run elsewhere.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" {
                continue;
            }
            collect_rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Strips `//` comments and the contents of ordinary string literals so that
/// `unsafe` inside either never matches. Char literals and raw strings are
/// rare enough here that plain `"` handling suffices.
fn code_portion(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_string = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Does the code portion open an unsafe *block* (as opposed to declaring an
/// unsafe fn/impl/trait/extern)?
fn opens_unsafe_block(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_trim = after.trim_start();
        let is_decl = ["fn ", "fn(", "impl ", "impl<", "trait ", "extern "]
            .iter()
            .any(|kw| after_trim.starts_with(kw));
        if before_ok && !is_decl && after_trim.starts_with('{') {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

/// A line that may sit between a SAFETY comment and the block it annotates:
/// other comment lines and attributes (e.g. `#[allow(...)]`).
fn is_annotation_line(trimmed: &str) -> bool {
    trimmed.starts_with("//") || trimmed.starts_with("#[") || trimmed.starts_with("#![")
}

fn scan_file(path: &Path, source: &str, marker: &str, violations: &mut Vec<String>) {
    let lines: Vec<&str> = source.lines().collect();
    for (idx, line) in lines.iter().enumerate() {
        let code = code_portion(line);
        if !opens_unsafe_block(&code) {
            continue;
        }
        if line.contains(marker) {
            continue;
        }
        // Walk the contiguous run directly above: comments, attributes,
        // rustfmt-wrapped fragments of the opening statement (no `;`/`}`/`{`
        // terminator yet), and other unsafe lines (one comment may dominate a
        // tight cluster of unsafe statements). Blank lines and safe
        // statements end the run.
        let mut found = false;
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let above = lines[i].trim();
            if above.is_empty() {
                break;
            }
            let above_code = code_portion(lines[i]);
            let above_code = above_code.trim();
            let same_statement = !above_code.ends_with(';')
                && !above_code.ends_with('}')
                && !above_code.ends_with('{');
            let unsafe_line = above_code.contains("unsafe");
            if !is_annotation_line(above) && !same_statement && !unsafe_line {
                break;
            }
            if above.contains(marker) {
                found = true;
                break;
            }
        }
        if !found {
            violations.push(format!(
                "{}:{}: unsafe block without a `{marker}` comment",
                path.display(),
                idx + 1
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations_in(source: &str) -> usize {
        let mut v = Vec::new();
        scan_file(Path::new("test.rs"), source, &marker(), &mut v);
        v.len()
    }

    #[test]
    fn annotated_blocks_pass() {
        let m = marker();
        assert_eq!(violations_in(&format!("{m} fine.\nunsafe {{ x() }}\n")), 0);
        assert_eq!(
            violations_in(&format!("let y = unsafe {{ x() }}; {m} inline\n")),
            0
        );
        assert_eq!(
            violations_in(&format!(
                "{m} above the attribute.\n#[allow(dead_code)]\nunsafe {{ x() }}\n"
            )),
            0
        );
        // Marker within a rustfmt-wrapped opening statement.
        assert_eq!(
            violations_in(&format!(
                "{m} wrapped.\nlet v = foo(\n    bar,\n).map(|p| unsafe {{ x(p) }});\n"
            )),
            0
        );
    }

    #[test]
    fn naked_blocks_fail() {
        assert_eq!(violations_in("unsafe { x() }\n"), 1);
        let m = marker();
        // A blank line divorces the comment from the block.
        assert_eq!(
            violations_in(&format!("{m} stale.\n\nunsafe {{ x() }}\n")),
            1
        );
    }

    #[test]
    fn declarations_and_comments_are_skipped() {
        assert_eq!(violations_in("unsafe fn naked() {}\n"), 0);
        assert_eq!(violations_in("unsafe impl Send for T {}\n"), 0);
        assert_eq!(violations_in("unsafe trait Zeroable {}\n"), 0);
        assert_eq!(
            violations_in("// a comment mentioning unsafe { blocks }\n"),
            0
        );
        assert_eq!(violations_in("let s = \"unsafe { not code }\";\n"), 0);
    }
}
