//! Passes over spec documents, shared by the workloads: the untraced pass
//! (what `imc run` does), the traced pass (stage-by-stage cache warm-up,
//! then the walk, then serialization, each in spans), the per-family split
//! of the walk, and the cache-counter metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use imc_sim::spec::builtin_method_from_spec;
use imc_sim::{CacheStats, CompressionMethod, EvalSession, ExperimentSpec, Registry};

use crate::plan::Plan;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Tracer};

/// A batch workload measures at least this many passes, so the tail (the
/// highest percentile with ten samples beyond it) lies above the median.
pub const MIN_PASSES: usize = 21;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one spec document the way `imc run` does — parse, resolve, run on
/// `session` (exhaustive or frontier), serialize — with `workers` threads
/// (`None` = default parallelism).
pub fn run_doc(
    spec_json: &str,
    registry: &Registry,
    session: &EvalSession,
    workers: Option<usize>,
) -> imc_sim::Result<String> {
    let spec = ExperimentSpec::from_json(spec_json)?;
    let mut experiment = spec.into_experiment(registry)?;
    if let Some(workers) = workers {
        experiment = experiment.parallelism_override(workers);
    }
    let run = if spec.frontier {
        experiment.frontier_in(session)?.run
    } else {
        experiment.run_in(session)?
    };
    run.to_jsonl()
}

/// Runs every document on `session`; returns the documents and the wall
/// time in milliseconds.
pub fn untraced_pass(
    specs: &[String],
    registry: &Registry,
    session: &EvalSession,
    workers: Option<usize>,
) -> imc_sim::Result<(Vec<String>, f64)> {
    let t = Instant::now();
    let docs = specs
        .iter()
        .map(|spec| run_doc(spec, registry, session, workers))
        .collect::<imc_sim::Result<Vec<_>>>()?;
    Ok((docs, ms_since(t)))
}

/// One traced serial pass over `specs` on `session`.
pub struct TracedPass {
    pub docs: Vec<String>,
    pub spans: Vec<trace::Span>,
    pub root: usize,
    /// Block SVDs the stage warm-up computed (its `block_svds` misses).
    pub svd_misses: u64,
    /// Misses the walk made in any cache kind after the stage warm-up.
    pub post_warm_misses: u64,
}

impl TracedPass {
    pub fn wall_ms(&self) -> f64 {
        self.spans[self.root].duration_ns() as f64 / 1e6
    }
}

/// The traced pass: parse and resolve every spec, warm the session's cache
/// stage by stage through `DecompCache`'s public methods, then walk every
/// experiment serially, then serialize — each call in its own span under
/// one root span. Building the key plan is the benchmark's own work and
/// happens before the root span opens.
pub fn traced_pass(
    specs: &[String],
    registry: &Registry,
    session: &EvalSession,
) -> imc_sim::Result<TracedPass> {
    let mut plan = Plan::default();
    for spec in specs {
        plan.add_spec(&ExperimentSpec::from_json(spec)?, registry)?;
    }
    let tracer = Tracer::new();
    let root = tracer.open("pass", None);
    let parent = Some(root);
    let mut experiments = Vec::with_capacity(specs.len());
    for json in specs {
        experiments.push(tracer.span("sim.spec", parent, || {
            let spec = ExperimentSpec::from_json(json)?;
            Ok::<_, imc_sim::Error>((spec.frontier, spec.into_experiment(registry)?))
        })?);
    }
    let cold = session.stats().block_svds.misses;
    plan.warm(session.cache(), &tracer, root)?;
    let before = session.stats();
    let svd_misses = before.block_svds.misses - cold;
    let mut runs = Vec::with_capacity(experiments.len());
    for (frontier, experiment) in experiments {
        let experiment = experiment.parallelism_override(1);
        runs.push(tracer.span("sim.walk", parent, || {
            if frontier {
                experiment.frontier_in(session).map(|outcome| outcome.run)
            } else {
                experiment.run_in(session)
            }
        })?);
    }
    let post_warm_misses = session.stats().misses() - before.misses();
    let mut docs = Vec::with_capacity(runs.len());
    for run in &runs {
        docs.push(tracer.span("sim.record.serialize", parent, || run.to_jsonl())?);
    }
    tracer.close(root);
    Ok(TracedPass {
        docs,
        spans: tracer.into_spans(),
        root,
        svd_misses,
        post_warm_misses,
    })
}

/// The per-layer metric a strategy's share of the walk is reported under.
fn family(method: &CompressionMethod) -> &'static str {
    match method {
        CompressionMethod::LowRank(_) => "core.lowrank.ms",
        CompressionMethod::PatternPruning { .. } => "pruning.patdnn.ms",
        CompressionMethod::Pairs { .. } => "pruning.pairs.ms",
        CompressionMethod::Quantized { .. } => "quant.dorefa.ms",
        CompressionMethod::Uncompressed { .. } => "sim.baseline.ms",
    }
}

/// Splits the walk by strategy family: each family's sub-grid of every
/// exhaustive spec runs serially on the (warm) `session`, timed. Records
/// the split and checks each sub-run's record count.
pub fn family_split(
    specs: &[String],
    registry: &Registry,
    session: &EvalSession,
    report: &mut Report,
) -> imc_sim::Result<()> {
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    for json in specs {
        let spec = ExperimentSpec::from_json(json)?;
        if spec.frontier {
            continue;
        }
        let mut families: BTreeMap<&'static str, Vec<_>> = BTreeMap::new();
        for strategy in &spec.strategies {
            let name = family(&builtin_method_from_spec(strategy)?);
            families.entry(name).or_default().push(strategy.clone());
        }
        for (name, strategies) in families {
            let cells = spec.networks.len() * spec.arrays.len() * strategies.len();
            let sub = ExperimentSpec {
                strategies,
                ..spec.clone()
            };
            let experiment = sub.into_experiment(registry)?.parallelism_override(1);
            let t = Instant::now();
            let run = experiment.run_in(session)?;
            *totals.entry(name).or_default() += ms_since(t);
            let got = run.records().len();
            report.check(got == cells, || {
                format!("{name} sub-grid: {got} records, expected {cells}")
            });
        }
    }
    for (name, ms) in totals {
        report.set(name, ms);
    }
    Ok(())
}

/// Per-kind hits and misses of `stats`, the resident estimate, and each
/// kind's useful ratio: distinct keys (`unique`, the misses of a serial
/// cold pass) over the misses of `stats` (1 when nothing missed).
pub fn cache_metrics(report: &mut Report, stats: &CacheStats, unique: &CacheStats) {
    for ((kind, k), (_, u)) in stats.per_kind().iter().zip(unique.per_kind()) {
        report.set(&format!("core.cache.{kind}.hits"), k.hits as f64);
        report.set(&format!("core.cache.{kind}.misses"), k.misses as f64);
        let ratio = if k.misses == 0 {
            1.0
        } else {
            u.misses as f64 / k.misses as f64
        };
        report.set(&format!("core.cache.{kind}.useful_ratio"), ratio);
    }
    report.set("core.cache.resident_mb", stats.resident_bytes as f64 / 1e6);
}

/// Records the traced pass's per-layer self times, coverage, overhead
/// against `untraced_ms`, and the post-warm-up miss assertion.
pub fn traced_metrics(report: &mut Report, pass: &TracedPass, untraced_ms: f64) {
    let times = trace::layer_times(&pass.spans);
    let self_ms = |layer: &str| times.get(layer).map_or(0.0, |t| t.self_ms());
    report.set("linalg.svd.ms", self_ms("linalg.svd"));
    report.set("linalg.svd.calls", pass.svd_misses as f64);
    report.set("tensor.weight.ms", self_ms("tensor.weight"));
    report.set("tensor.im2col.ms", self_ms("tensor.im2col"));
    report.set("core.decomposition.ms", self_ms("core.decomposition"));
    report.set("array.mapping.ms", self_ms("array.mapping"));
    report.set("sim.walk.ms", self_ms("sim.walk"));
    report.set("sim.record.serialize_ms", self_ms("sim.record.serialize"));
    let bytes: usize = pass.docs.iter().map(String::len).sum();
    report.set("sim.record.mb", bytes as f64 / 1e6);
    let wall = pass.wall_ms();
    report.set("trace.pass_ms", wall);
    report.set("trace.untraced_ms", untraced_ms);
    report.set("trace.overhead_ms", wall - untraced_ms);
    report.set("trace.coverage", trace::coverage(&pass.spans, pass.root));
    report.set("trace.post_warm_misses", pass.post_warm_misses as f64);
    let misses = pass.post_warm_misses;
    report.check(misses == 0, || {
        format!("the walk after the stage warm-up made {misses} cache misses (expected 0)")
    });
    eprint!("{}", trace::table(&pass.spans));
    report.spans.extend(pass.spans.iter().cloned());
}

/// The end-to-end metrics of a batch workload from its correct passes'
/// wall times: median and tail pass time, cells per second of a median
/// pass, and passes per second of the whole measurement window.
pub fn pass_metrics(report: &mut Report, samples: &[f64], cells: usize, window_s: f64) {
    let p50 = stats::median(samples);
    let (percentile, tail) = stats::tail(samples);
    report.note(format!(
        "passes={} p50_ms={p50:.3} tail_ms={tail:.3} at p{percentile:.1} window_s={window_s:.3}",
        samples.len()
    ));
    report.set("p50_ms", p50);
    report.set("tail_ms", tail);
    report.set("goodput_per_s", cells as f64 * 1e3 / p50);
    report.set("sustained_per_s", samples.len() as f64 / window_s);
}

/// The error rate of the run so far.
pub fn error_rate(report: &Report) -> f64 {
    report.failed as f64 / report.attempted.max(1) as f64
}
