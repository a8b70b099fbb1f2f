//! In-memory span recorder for the traced run, plus the timing wrapper
//! around a population's trajectory generator.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into each layer's public functions; nothing inside the program is
//! instrumented.

use fuzzy_handover::core::HandoverPolicy;
use fuzzy_handover::mobility::Trajectory;
use fuzzy_handover::sim::UeSpec;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Spans kept in memory (name, start, end, parent, request id) and
/// written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span (and any still open inside it).
    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&s| s == id.0) {
            self.open.truncate(pos);
        }
    }

    /// Run `f` inside one span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Wraps a population and times every real `trajectory()` call the
/// fleet engine makes, from whichever worker thread makes it.
pub struct TimedSpec<'a> {
    inner: &'a dyn UeSpec,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl<'a> TimedSpec<'a> {
    pub fn new(inner: &'a dyn UeSpec) -> Self {
        TimedSpec {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// `(calls, total ns)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

impl UeSpec for TimedSpec<'_> {
    fn trajectory(&self, ue_id: u64) -> Trajectory {
        let t0 = Instant::now();
        let t = self.inner.trajectory(ue_id);
        let ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        t
    }

    fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
        self.inner.policy(ue_id)
    }
}
