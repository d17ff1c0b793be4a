//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, the operation it belongs to, its parent span, a start
//! and an end. Spans are kept in memory during the run and written out when
//! it ends; a layer's self time is its span's duration minus the time its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation; the spans recorded until the next call share
    /// its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
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

    /// Records an already-timed span (for calls timed on another thread).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Total self time in milliseconds per span name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0.0) +=
                span.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        totals
    }

    /// Writes every span as one tab-separated line: op, index, parent,
    /// name, start and end in nanoseconds since the tracer started.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("op\tspan\tparent\tname\tstart_ns\tend_ns\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{}\t{index}\t{parent}\t{}\t{}\t{}",
                span.op, span.name, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Prints the total self time per span name to standard error.
pub fn log_self_times(tracer: &Tracer) {
    for (name, total) in tracer.self_times_ms() {
        eprintln!("  self time {name:<18} {total:>12.3} ms");
    }
}
