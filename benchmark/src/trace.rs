//! The span log of a run: spans with parent ids, kept in memory and, in a
//! traced run, written as JSON when the run ends. Spans are built from the
//! `Instant`s the benchmark took around its calls into the library.

use crate::slice::Interval;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by child spans that were recorded but are not listed
    /// (the op spans beyond the per-worker cap). They ran back to back on one
    /// thread, so their durations add.
    pub unlisted_child_ns: u64,
    pub attrs: Vec<(&'static str, String)>,
}

/// Spans in the order they were added; a span's id is its index.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn add(&mut self, parent: Option<usize>, name: &'static str, interval: Interval) -> usize {
        let (start_ns, end_ns) = (self.ns(interval.0), self.ns(interval.1));
        self.add_ns(parent, name, start_ns, end_ns)
    }

    pub fn add_ns(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns,
            unlisted_child_ns: 0,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn attr(&mut self, id: usize, key: &'static str, value: impl ToString) {
        self.spans[id].attrs.push((key, value.to_string()));
    }

    /// Self time of every span: its duration minus what its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, children)| {
                self_time_ns((span.start_ns, span.end_ns), children)
                    .saturating_sub(span.unlisted_child_ns)
            })
            .collect()
    }

    /// The log as one JSON object; `header` holds already-rendered members
    /// that precede the span list.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (key, value) in header {
            let _ = writeln!(out, "  {}: {value},", quote(key));
        }
        out.push_str("  \"spans\": [\n");
        let self_times = self.self_times();
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}",
                quote(span.name),
                span.start_ns,
                span.end_ns,
            );
            for (key, value) in &span.attrs {
                let _ = write!(out, ", {}: {}", quote(key), quote(value));
            }
            out.push_str(if id + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A span's duration minus the part of it that `children` cover. Children may
/// overlap each other (workers of one slice run in parallel) and are clipped
/// to the span.
pub fn self_time_ns(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for &(start, end) in children.iter() {
        let start = start.max(reach);
        let end = end.min(span.1);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.1 - span.0) - covered
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_ns((0, 100), &mut []), 100);
        // Sequential children.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 20), (30, 50)]), 70);
        // Parallel children overlap: [10, 60) is covered once.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 50), (20, 60)]), 50);
        // A child nested in another adds nothing; order does not matter.
        assert_eq!(self_time_ns((0, 100), &mut [(40, 45), (10, 50)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time_ns((10, 100), &mut [(0, 20), (90, 120)]), 70);
        assert_eq!(self_time_ns((10, 20), &mut [(0, 30)]), 0);
    }

    #[test]
    fn log_reports_self_time_per_span_and_renders_json() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        let root = log.add_ns(None, "slice", 0, 1_000);
        let run = log.add_ns(Some(root), "run", 100, 900);
        log.add_ns(Some(run), "op", 100, 150);
        log.add_ns(Some(run), "op", 200, 250);
        log.spans[run].unlisted_child_ns = 300;
        log.attr(root, "scheme", "h\"p");
        assert_eq!(log.self_times(), vec![200, 400, 50, 50]);

        let json = log.to_json(&[("workload", quote("w"))]);
        assert!(json.contains("\"workload\": \"w\","));
        assert!(json.contains("\"id\": 1, \"parent\": 0, \"name\": \"run\", \"start_ns\": 100, \"end_ns\": 900, \"self_ns\": 400"));
        assert!(json.contains("\"scheme\": \"h\\\"p\""));
        assert!(json.contains("\"id\": 0, \"parent\": null"));
    }
}
