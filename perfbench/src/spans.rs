//! Spans recorded by the benchmark around each call into a layer.
//!
//! The recorder lives in the benchmark, not in the program: a span brackets
//! one public call from the benchmark's own code.  Spans are kept in memory
//! and written out when the run ends.  All spans of one run are recorded on
//! one thread and nest strictly, so a layer's self time (its spans'
//! durations minus their children's) plus the root span's own self time
//! (the unattributed part) add back up to the root's wall time.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{self, Obj};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `vm.forked_run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The plan, job or application the span worked for.
    pub request: u64,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.  When disabled it records nothing and only runs the
/// wrapped calls, which is how the untraced replay measures the recorder's
/// own overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Set the request id later spans carry.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Self time (duration minus direct children) of every span, in ns.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time per layer, in ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer()).or_insert(0) += own;
    }
    by_layer
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(
            &Obj::new()
                .int("id", i as u64)
                .str("name", s.name)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .raw("parent", parent)
                .int("request", s.request)
                .render(),
        );
        out.push('\n');
    }
    out
}

/// A summary line of per-layer self times.
pub fn layer_summary(spans: &[Span]) -> String {
    let mut obj = Obj::new();
    for (layer, ns) in layer_self_ns(spans) {
        obj = obj.raw(layer, json::number(ns as f64 / 1e6));
    }
    obj.render()
}
