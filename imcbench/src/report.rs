//! The metric tables and the result object every run prints.

use std::collections::BTreeMap;

use crate::trace::Span;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them (see `imcbench/README.md` for the per-workload meaning).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("sustained_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). A layer the
/// workload does not exercise reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.svd.ms", "ms"),
    ("linalg.svd.calls", "count"),
    ("tensor.weight.ms", "ms"),
    ("tensor.im2col.ms", "ms"),
    ("core.decomposition.ms", "ms"),
    ("array.mapping.ms", "ms"),
    ("core.cache.weights.hits", "count"),
    ("core.cache.weights.misses", "count"),
    ("core.cache.weights.useful_ratio", "ratio"),
    ("core.cache.matrices.hits", "count"),
    ("core.cache.matrices.misses", "count"),
    ("core.cache.matrices.useful_ratio", "ratio"),
    ("core.cache.block_svds.hits", "count"),
    ("core.cache.block_svds.misses", "count"),
    ("core.cache.block_svds.useful_ratio", "ratio"),
    ("core.cache.decompositions.hits", "count"),
    ("core.cache.decompositions.misses", "count"),
    ("core.cache.decompositions.useful_ratio", "ratio"),
    ("core.cache.window_searches.hits", "count"),
    ("core.cache.window_searches.misses", "count"),
    ("core.cache.window_searches.useful_ratio", "ratio"),
    ("core.cache.lowrank_cycles.hits", "count"),
    ("core.cache.lowrank_cycles.misses", "count"),
    ("core.cache.lowrank_cycles.useful_ratio", "ratio"),
    ("core.cache.resident_mb", "MB"),
    ("sim.walk.ms", "ms"),
    ("core.lowrank.ms", "ms"),
    ("pruning.patdnn.ms", "ms"),
    ("pruning.pairs.ms", "ms"),
    ("quant.dorefa.ms", "ms"),
    ("sim.baseline.ms", "ms"),
    ("runtime.parallel_speedup", "ratio"),
    ("sim.record.serialize_ms", "ms"),
    ("sim.record.mb", "MB"),
    ("sim.store.get_ms", "ms"),
    ("sim.store.put_ms", "ms"),
    ("sim.serve.computed_ms_p50", "ms"),
    ("sim.serve.cache_ms_p50", "ms"),
    ("sim.serve.store_ms_p50", "ms"),
    ("sim.serve.computed", "count"),
    ("sim.serve.cache_hits", "count"),
    ("sim.serve.store_hits", "count"),
    ("sim.serve.store_misses", "count"),
    ("sim.serve.coalesced", "count"),
    ("sim.serve.errors", "count"),
    ("sim.frontier.ms", "ms"),
    ("sim.frontier.exhaustive_ms", "ms"),
    ("serve.rung1.lateness_ms_p99", "ms"),
    ("serve.rung1.backlog_growth", "count"),
    ("serve.rung2.lateness_ms_p99", "ms"),
    ("serve.rung2.backlog_growth", "count"),
    ("serve.rung3.lateness_ms_p99", "ms"),
    ("serve.rung3.backlog_growth", "count"),
    ("serve.generator_valid", "bool"),
    ("serve.capacity_rps", "1/s"),
    ("trace.pass_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.post_warm_misses", "count"),
    ("gate.error_rate", "ratio"),
];

/// The outcome of one benchmark run: operation counts, correctness
/// failures, metric values, human-readable notes and the recorded spans.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked operation; a failed check records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts one operation that returned an error.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.check(false, || format!("error: {what}"));
    }

    /// Sets a metric; the name must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the metric tables"));
        self.values.insert(key, value);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The metrics a run prints: every end-to-end metric (all must be set)
    /// or every per-layer metric (unset ones read zero), in table order.
    pub fn selected(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => return Err(format!("end-to-end metric '{name}' was not measured")),
                };
                if !value.is_finite() {
                    return Err(format!("metric '{name}' is not finite: {value}"));
                }
                Ok((name, value, unit))
            })
            .collect()
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let metrics: Vec<String> = self
            .selected(trace)?
            .into_iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }

    /// The recorded spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        self.spans.iter().map(|s| s.to_json() + "\n").collect()
    }
}
