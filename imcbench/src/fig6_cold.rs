//! `fig6-cold`: the ResNet-20 Fig. 6 grid on 64×64 arrays, run the way
//! `imc run` runs a spec — parse, resolve, run on a fresh cache at default
//! parallelism, serialize with `to_jsonl` — once per pass.
//!
//! Set-up (three times, median reported) builds the spec from the seed and
//! computes the reference bytes with a serial pass. Every measured pass
//! must reproduce them (cold = serial); after the loop, a warm rerun on the
//! last pass's session must too (cold = warm).

use std::time::Instant;

use imc_nn::resnet20;
use imc_sim::experiments::fig6_experiment;
use imc_sim::{CacheStats, EvalSession, Registry};

use crate::check::{self, digest};
use crate::common::{self, ms_since, run_doc};
use crate::report::Report;
use crate::stats;
use crate::Args;

const SETUPS: usize = 3;
const TRACED_PASSES: usize = 3;

struct Setup {
    spec: String,
    reference: String,
    cells: usize,
}

fn setup(seed: u64, registry: &Registry) -> imc_sim::Result<Setup> {
    let experiment = fig6_experiment(&resnet20(), 64, seed);
    let cells = experiment.grid_cells();
    let spec = experiment.to_spec()?.to_json();
    let reference = run_doc(&spec, registry, &EvalSession::new(), Some(1))?;
    Ok(Setup {
        spec,
        reference,
        cells,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let registry = Registry::new();
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        last = Some(setup(args.seed, &registry).map_err(|e| format!("set-up: {e}"))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup {
        spec,
        reference,
        cells,
    } = last.expect("at least one set-up ran");
    report.note(format!(
        "reference fig6-cold seed={} cells={cells} bytes={} digest={}",
        args.seed,
        reference.len(),
        digest(&reference)
    ));
    check::round_trip(&mut report, "fig6-cold reference", &reference, cells);

    if args.trace {
        traced(&spec, &reference, &registry, &mut report).map_err(|e| e.to_string())?;
    } else {
        measure(args, &spec, &reference, cells, &registry, &mut report);
        report.set("setup_s", stats::median(&setup_s));
        report.set("peak_heap_mb", crate::alloc::peak_heap_mb());
    }
    report.set("gate.error_rate", common::error_rate(&report));
    Ok(report)
}

/// Cold passes back to back for `args.seconds` (and at least
/// [`common::MIN_PASSES`]).
fn measure(
    args: &Args,
    spec: &str,
    reference: &str,
    cells: usize,
    registry: &Registry,
    report: &mut Report,
) {
    let mut samples = Vec::new();
    let mut last_session = None;
    crate::alloc::reset_peak();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds || samples.len() < common::MIN_PASSES {
        // One session at a time, so the heap peak is one pass's.
        drop(last_session.take());
        let session = EvalSession::new();
        let t = Instant::now();
        let result = run_doc(spec, registry, &session, None);
        let ms = ms_since(t);
        match result {
            Ok(doc) => {
                let failed = report.failed;
                check::same_bytes(report, "cold pass", &doc, reference);
                if report.failed == failed {
                    samples.push(ms);
                }
            }
            Err(e) => report.error(format!("cold pass: {e}")),
        }
        last_session = Some(session);
        if report.attempted > 1000 {
            break;
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    if let Some(session) = last_session {
        match run_doc(spec, registry, &session, None) {
            Ok(doc) => check::same_bytes(report, "warm rerun", &doc, reference),
            Err(e) => report.error(format!("warm rerun: {e}")),
        }
    }
    common::pass_metrics(report, &samples, cells, window_s);
}

/// The traced variant: untraced serial and default-parallelism cold passes
/// (speed-up, useful ratios, cache counters), then serial traced passes
/// (per-layer self times; the median-wall pass is reported), then the
/// per-family split of the walk on the warm session.
fn traced(
    spec: &str,
    reference: &str,
    registry: &Registry,
    report: &mut Report,
) -> imc_sim::Result<()> {
    let specs = [spec.to_owned()];
    let mut serial_ms = Vec::new();
    let mut default_ms = Vec::new();
    let mut unique = CacheStats::default();
    let mut default_stats = CacheStats::default();
    for _ in 0..TRACED_PASSES {
        for workers in [Some(1), None] {
            let session = EvalSession::new();
            let (docs, ms) = common::untraced_pass(&specs, registry, &session, workers)?;
            check::same_bytes(report, "untraced cold pass", &docs[0], reference);
            match workers {
                Some(_) => {
                    serial_ms.push(ms);
                    unique = session.stats();
                }
                None => {
                    default_ms.push(ms);
                    default_stats = session.stats();
                }
            }
        }
    }
    let serial = stats::median(&serial_ms);
    report.set(
        "runtime.parallel_speedup",
        serial / stats::median(&default_ms),
    );
    common::cache_metrics(report, &default_stats, &unique);

    let mut passes = Vec::new();
    let mut warm_session = None;
    for _ in 0..TRACED_PASSES {
        let session = EvalSession::new();
        let pass = common::traced_pass(&specs, registry, &session)?;
        check::same_bytes(report, "traced cold pass", &pass.docs[0], reference);
        passes.push(pass);
        warm_session = Some(session);
    }
    passes.sort_by(|a, b| a.wall_ms().total_cmp(&b.wall_ms()));
    let median = &passes[passes.len() / 2];
    common::traced_metrics(report, median, serial);
    let session = warm_session.expect("traced passes ran");
    common::family_split(&specs, registry, &session, report)
}
