//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, start and end, the span that caused it, and the id
//! of the operation it belongs to (one train rep, one plan request, one
//! frame). Spans stay in memory and are written out as Chrome trace-event
//! JSON when the run ends, viewable in `chrome://tracing` or Perfetto.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span; returns `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Runs `f` and records its span under the name `name_of` picks from
    /// the result (for example a cache hit or miss).
    pub fn span_named_by<T>(
        &mut self,
        name_of: impl FnOnce(&T) -> &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.spans.len();
        let out = self.span("", |_| f());
        self.spans[index].name = name_of(&out);
        out
    }

    /// Seconds spent in every span named `name`, one entry per span.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Seconds of the latest span named `name`.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.seconds(name).iter().sum()
    }

    /// Writes the log as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {i}, \"op\": {}, \"parent\": {parent}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut spans = Spans::new();
        spans.next_op();
        let v = spans.span("outer", |s| s.span("inner", |_| 7) + s.span("inner", |_| 1));
        assert_eq!(v, 8);
        assert_eq!(spans.seconds("inner").len(), 2);
        assert!(spans.total("outer") >= spans.total("inner"));
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        assert!(spans.spans.iter().all(|s| s.op == 1));
        let hit = spans.span_named_by(|v: &bool| if *v { "hit" } else { "miss" }, || true);
        assert!(hit);
        assert_eq!(spans.seconds("hit").len(), 1);
        assert!(spans.seconds("").is_empty());
    }
}
