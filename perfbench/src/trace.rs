//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. A span
//! holds a name, start and end (ns since the tracer was created), its
//! parent and an optional request id. Spans stay in memory and are
//! written out once, at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `server.step` or `engine.run_layer/AlexNet/m_conv1`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span worked for, when it worked for one.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Span recorder; a disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str, req: Option<u64>) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            req,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::enter`] (spans close in LIFO
    /// order).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close in LIFO order");
    }

    /// Renames a recorded span (a step is labelled once it is known
    /// whether it dispatched).
    pub fn rename(&mut self, id: SpanId, name: &str) {
        if let Some(id) = id {
            self.spans[id].name = name.to_string();
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its children cover
    /// (children of one span never overlap, so their durations add).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (ns) of every span, grouped by name.
    pub fn durations_by_name(&self) -> BTreeMap<&str, Vec<u64>> {
        let mut by: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by.entry(s.name.as_str()).or_default().push(s.dur_ns());
        }
        by
    }

    /// Self times (ns) of every span, grouped by name.
    pub fn self_by_name(&self) -> BTreeMap<&str, Vec<u64>> {
        let mut by: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            by.entry(s.name.as_str()).or_default().push(ns);
        }
        by
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            )?;
        }
        out.flush()
    }
}

/// Times `f` under a span named `name`.
pub fn timed<R>(tracer: &mut Tracer, name: &str, req: Option<u64>, f: impl FnOnce() -> R) -> R {
    let id = tracer.enter(name, req);
    let r = f();
    tracer.exit(id);
    r
}
