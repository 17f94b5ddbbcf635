//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a layer name, start and end (nanoseconds since the tracer was
//! created) and the span that caused it. A
//! layer's self time is its spans' durations minus the parts their child
//! spans cover. Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_owned(), |p| p.to_string());
        format!(
            "{{\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.id, self.layer, self.start_ns, self.end_ns
        )
    }
}

/// Records spans; shareable across threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; the returned id parents nested spans. Close it with
    /// [`Tracer::close`].
    pub fn open(&self, layer: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span of `layer` under `parent`.
    pub fn span<T>(&self, layer: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned")
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Self time per layer: each span's duration minus its children's.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.layer).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(child_ns[span.id]);
    }
    out
}

/// Share of the root span's wall time covered by the self time of named
/// layers (every layer except the root's own).
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let wall = spans[root].duration_ns();
    if wall == 0 {
        return 0.0;
    }
    let root_layer = spans[root].layer;
    let attributed: u64 = layer_times(spans)
        .iter()
        .filter(|(layer, _)| **layer != root_layer)
        .map(|(_, t)| t.self_ns)
        .sum();
    attributed as f64 / wall as f64
}

/// A human-readable self-time table for stderr.
pub fn table(spans: &[Span]) -> String {
    let mut out =
        String::from("layer                          calls      total_ms       self_ms\n");
    for (layer, t) in layer_times(spans) {
        out.push_str(&format!(
            "{layer:<28} {:>8} {:>13.3} {:>13.3}\n",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ms()
        ));
    }
    out
}
