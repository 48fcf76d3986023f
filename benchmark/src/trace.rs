//! In-memory spans around the calls into each layer.
//!
//! Spans are recorded from the benchmark's own code, at the public stage
//! functions; spans inside the program are a later change. A stage's self
//! time is its duration minus what its child spans cover.

use crate::util::quote;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `-1` for the root.
    pub parent: i64,
    /// Work-list index of the instance the span belongs to, `-1` for none.
    pub instance: i64,
}

/// Records spans when `on`; otherwise every call is a no-op, so the same
/// replay code runs traced and untraced and their difference is the
/// tracing overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// When the last span ended (see [`Tracer::span_next`]).
    last_end_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        // Reserved up front: growing the buffer mid-replay would charge
        // its copies to whichever span is open.
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 18 } else { 0 }),
            stack: Vec::new(),
            last_end_ns: 0,
        }
    }

    pub fn begin(&mut self, name: &'static str, instance: i64) {
        self.begin_at(name, instance, None);
    }

    fn begin_at(&mut self, name: &'static str, instance: i64, start_ns: Option<u64>) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map_or(-1, |&p| p as i64);
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            instance,
        });
        // Stamp last, so the bookkeeping above is charged to the parent.
        let now = start_ns.unwrap_or_else(|| self.epoch.elapsed().as_nanos() as u64);
        self.spans.last_mut().expect("just pushed").start_ns = now;
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let id = self.stack.pop().expect("end without begin");
        self.spans[id].end_ns = now;
        self.last_end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, instance: i64, f: impl FnOnce() -> T) -> T {
        self.begin(name, instance);
        let out = f();
        self.end();
        out
    }

    /// Runs `f` inside a span that starts where the previous span ended,
    /// saving a clock read: for back-to-back stages of a loop whose
    /// iterations take only microseconds, where the reads themselves would
    /// otherwise be a visible share. The few instructions between the two
    /// stages are charged to this one.
    pub fn span_next<T>(&mut self, name: &'static str, instance: i64, f: impl FnOnce() -> T) -> T {
        self.begin_at(name, instance, Some(self.last_end_ns));
        let out = f();
        self.end();
        out
    }

    /// Duration of the first (root) span.
    pub fn root_ns(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Per stage name: `(self time in ns, calls)`.
    pub fn stage_table(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let row = table.entry(s.name).or_default();
            row.0 += (s.end_ns - s.start_ns).saturating_sub(*children);
            row.1 += 1;
        }
        table
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": {}, \"spans\": [", quote(workload));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"instance\": {}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.parent,
                s.instance
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
