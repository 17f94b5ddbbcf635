//! `serve-mixed`: an in-process `Server` with a fresh on-disk store and a
//! response cache smaller than the corpus, driven by an open-loop client at
//! a fixed ladder of rates.
//!
//! The corpus is built from the seed. Its catalog holds a grid sweep of
//! each synthetic scenario, the paper's sweeps on ResNet-20 (fig6, table1,
//! fig7, fig8, fig9) and two `"frontier": true` variants; the ladder
//! requests the catalog with Zipf popularity (fixed ranks, seeded draws)
//! mixed with a fixed share of never-seen fig8 seeds. So every rung hits all
//! three tiers: the memory cache, the store (for entries the small cache
//! evicted) and compute with write-through.
//!
//! Arrivals are due at fixed intervals per rung; a dispatcher thread hands
//! each request to one of `nproc` sender threads (one connection each, so
//! at most `nproc` connections) when it is due. Latency runs from the due
//! time, so a stall is charged to every request it delays. The dispatcher's
//! own lateness and each rung's backlog growth are reported; a run whose
//! dispatcher fell behind is flagged invalid and counted as failed.
//!
//! In the traced run a closed-loop capacity phase follows the ladder: the
//! same `nproc` connections post catalog specs back to back, which measures
//! the server's capacity on the host and so how loaded the fixed top rung
//! is.
//!
//! Every response is compared with bytes computed in-process on a separate
//! session (served = computed), and after the run every catalog entry read
//! back from the store must match too (store-read = computed).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imc_nn::resnet20;
use imc_sim::experiments::{
    fig6_experiment, fig7_experiment, fig8_experiment, fig9_experiment, table1_experiment,
};
use imc_sim::spec::builtin_method_spec;
use imc_sim::{
    ArrayAxis, CompressionMethod, EvalSession, ExperimentSpec, Precision, Registry, RunKey,
    RunStore, ServeConfig, Server,
};

use crate::check::{self, digest};
use crate::common::{self, ms_since};
use crate::http;
use crate::report::Report;
use crate::stats;
use crate::Args;

const SETUPS: usize = 3;
/// Offered rates of the ladder, requests per second, lowest first.
const RUNG_RATES: [f64; 3] = [50.0, 100.0, 200.0];
/// Share of `--seconds` each rung runs for; the top rung runs longest so
/// its tail percentile rests on enough windows.
const RUNG_SHARES: [f64; 3] = [0.075, 0.075, 0.85];
/// The traced run's capacity phase runs this share of `--seconds` after
/// the ladder.
const CAPACITY_SHARE: f64 = 0.15;
/// The capacity phase measures its rate per window of this length and
/// reports the median window, so one stall of the host moves one window.
const CAPACITY_WINDOW_S: f64 = 0.5;
/// Catalog draws the capacity phase cycles through.
const CAPACITY_DRAWS: usize = 4096;
/// The tail percentile of a rung's latencies, and the limit on it. The
/// tail is taken per window of at least `TAIL_WINDOW` consecutive requests
/// (so twelve or more lie beyond it; a shorter rung is one window) and the
/// median over windows is reported, so one stall of the host moves one
/// window, not the result.
/// Beyond p95 the top rung's latencies are a few dozen requests that host
/// stalls decide: in a stalled run on a 2-core VM its p99 rose from 8.4 to
/// 12.9 ms while its p95 rose from 7.0 to 7.6 ms.
const TAIL_QUANTILE: f64 = 0.95;
const TAIL_WINDOW: usize = 250;
const LIMIT_MS: f64 = 50.0;
/// A rung whose backlog grows by more than this many requests does not
/// sustain its rate.
const BACKLOG_SLACK: i64 = 4;
/// The dispatcher is behind when its lateness tail exceeds this.
const GENERATOR_SLACK_MS: f64 = 25.0;
/// Share of ladder requests for a never-seen spec (compute tier).
const FRESH_SHARE: f64 = 0.05;
const ZIPF_EXPONENT: f64 = 1.0;
const TIMEOUT: Duration = Duration::from_secs(60);

/// SplitMix64: the corpus and schedule generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled request: the rung it belongs to, when it is due (seconds
/// after the ladder starts) and which corpus spec it posts.
#[derive(Clone, Copy)]
struct Scheduled {
    rung: usize,
    due_s: f64,
    doc: usize,
}

/// The seeded corpus: spec documents (catalog first, then fresh specs), the
/// ladder's schedule over them and the capacity phase's catalog draws.
struct Corpus {
    specs: Vec<String>,
    catalog: usize,
    schedule: Vec<Scheduled>,
    capacity: Vec<usize>,
}

/// The synthetic scenarios whose grids head the catalog.
const SCENARIOS: [&str; 4] = [
    "synthetic:deep-thin",
    "synthetic:wide-shallow",
    "synthetic:depthwise-heavy",
    "synthetic:matmul-projection",
];

/// The grid over `network` for `seed`: five array axes (32, 64, 128,
/// 64×128 with a 6-bit ADC, 128×64 with a 3-bit ADC) × the Fig. 6
/// strategies plus `sdk` and DoReFa 2/4.
fn grid_spec(seed: u64, network: &str) -> imc_sim::Result<ExperimentSpec> {
    let mut strategies = fig6_experiment(&resnet20(), 64, seed).to_spec()?.strategies;
    strategies.push(builtin_method_spec(&CompressionMethod::Uncompressed {
        sdk: true,
    }));
    for bits in [2, 4] {
        strategies.push(builtin_method_spec(&CompressionMethod::Quantized { bits }));
    }
    let axis = |rows, cols, adc_bits| ArrayAxis {
        rows,
        cols,
        weight_bits: ArrayAxis::DEFAULT_BITS,
        adc_bits,
    };
    Ok(ExperimentSpec {
        seed,
        precision: Precision::F64,
        parallelism: None,
        cache: true,
        cells: None,
        frontier: false,
        synthetic_networks: Vec::new(),
        networks: vec![network.to_owned()],
        arrays: vec![
            ArrayAxis::square(32),
            ArrayAxis::square(64),
            ArrayAxis::square(128),
            axis(64, 128, 6),
            axis(128, 64, 3),
        ],
        strategies,
    })
}

/// The catalog in popularity order: the grid of each synthetic scenario
/// (about 750 KB of JSONL each) first, then the paper's sweeps on
/// ResNet-20, then two `"frontier": true` variants.
fn catalog(seed: u64) -> imc_sim::Result<Vec<ExperimentSpec>> {
    let mut specs = Vec::new();
    for scenario in SCENARIOS {
        specs.push(grid_spec(seed, scenario)?);
    }
    let arch = resnet20();
    let fig6 = fig6_experiment(&arch, 64, seed).to_spec()?;
    let table1 = table1_experiment(&arch, seed).to_spec()?;
    specs.extend([
        fig6.clone(),
        table1.clone(),
        fig7_experiment(&arch, seed).to_spec()?,
        fig8_experiment(seed).to_spec()?,
        fig9_experiment(&arch, 64, seed).to_spec()?,
    ]);
    for base in [fig6, table1] {
        specs.push(ExperimentSpec {
            frontier: true,
            ..base
        });
    }
    Ok(specs)
}

fn corpus(seed: u64, seconds: f64) -> imc_sim::Result<Corpus> {
    let mut specs: Vec<String> = catalog(seed)?.iter().map(ExperimentSpec::to_json).collect();
    let catalog = specs.len();
    let mut rng = Rng(seed ^ 0x5EED_C0DE);
    // Popularity: the catalog spec at position r is requested with weight
    // 1/(r+1)^s. The ranking is fixed, so every seed offers the same mix of
    // document sizes and tiers; the seed draws the sequence.
    let weights: Vec<f64> = (0..catalog)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let zipf = |rng: &mut Rng| {
        let mut pick = rng.unit() * total;
        let mut rank = 0;
        while rank + 1 < catalog && pick >= weights[rank] {
            pick -= weights[rank];
            rank += 1;
        }
        rank
    };
    let mut schedule = Vec::new();
    let mut offset = 0.0;
    for (rung, (&rate, &share)) in RUNG_RATES.iter().zip(&RUNG_SHARES).enumerate() {
        let duration = seconds * share;
        let count = (rate * duration).round() as usize;
        for j in 0..count {
            let doc = if rng.unit() < FRESH_SHARE {
                let fresh_seed = rng.next() >> 16;
                specs.push(fig8_experiment(fresh_seed).to_spec()?.to_json());
                specs.len() - 1
            } else {
                zipf(&mut rng)
            };
            schedule.push(Scheduled {
                rung,
                due_s: offset + j as f64 / rate,
                doc,
            });
        }
        offset += duration;
    }
    let capacity = (0..CAPACITY_DRAWS).map(|_| zipf(&mut rng)).collect();
    Ok(Corpus {
        specs,
        catalog,
        schedule,
        capacity,
    })
}

/// A temporary directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("could not create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only when other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One set-up: build the corpus, resolve every distinct spec, open a fresh
/// store, bind the server, wait until it answers a health probe, then prime
/// it — every catalog spec once, in order, closed loop: the cold computes
/// with write-through. Each priming response is checked.
fn setup(
    seed: u64,
    seconds: f64,
    registry: &Registry,
    store_dir: &Path,
    cache_bytes: usize,
    references: &[String],
    report: &mut Report,
) -> Result<(Corpus, Server), String> {
    let corpus = corpus(seed, seconds).map_err(|e| e.to_string())?;
    for spec in &corpus.specs {
        ExperimentSpec::from_json(spec)
            .and_then(|s| s.into_experiment(registry))
            .map_err(|e| format!("corpus spec does not resolve: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(store_dir);
    let server = Server::bind(
        ServeConfig::new()
            .workers(nproc())
            .response_cache_bytes(cache_bytes)
            .store_dir(store_dir),
    )
    .map_err(|e| e.to_string())?;
    let health = http::request(server.local_addr(), "GET", "/v1/health", "", TIMEOUT)?;
    if health.status != 200 {
        return Err(format!("health probe answered {}", health.status));
    }
    for (doc, spec) in corpus.specs[..corpus.catalog].iter().enumerate() {
        match http::request(server.local_addr(), "POST", "/v1/run", spec, TIMEOUT) {
            Ok(r) => check::same_bytes(report, "priming response", &r.body, &references[doc]),
            Err(e) => report.error(format!("priming request: {e}")),
        }
    }
    Ok((corpus, server))
}

/// One completed ladder request.
struct Done {
    rung: usize,
    due_s: f64,
    sent_s: f64,
    latency_ms: f64,
    source: String,
    ok: bool,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let registry = Registry::new();
    let mut report = Report::default();
    let work = WorkDir::create("serve-mixed")?;
    let store_dir = work.0.join("store");

    // References first (untimed): every distinct spec computed in-process,
    // serially on this thread, on a session of its own.
    let reference_corpus = corpus(args.seed, args.seconds).map_err(|e| e.to_string())?;
    let session = EvalSession::new();
    let references: Vec<String> = reference_corpus
        .specs
        .iter()
        .map(|spec| common::run_doc(spec, &registry, &session, Some(1)))
        .collect::<imc_sim::Result<_>>()
        .map_err(|e| format!("reference computation: {e}"))?;
    drop(session);
    let catalog_bytes: usize = references[..reference_corpus.catalog]
        .iter()
        .map(String::len)
        .sum();
    let cache_bytes = catalog_bytes / 2;
    report.note(format!(
        "corpus seed={} catalog={} fresh={} requests={} catalog_bytes={catalog_bytes} \
         response_cache_bytes={cache_bytes} catalog_digest={}",
        args.seed,
        reference_corpus.catalog,
        reference_corpus.specs.len() - reference_corpus.catalog,
        reference_corpus.schedule.len(),
        digest(&references[..reference_corpus.catalog].concat()),
    ));

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(
            args.seed,
            args.seconds,
            &registry,
            &store_dir,
            cache_bytes,
            &references,
            &mut report,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (corpus, server) = last.expect("at least one set-up ran");
    crate::alloc::reset_peak();
    let (mut done, lateness) = ladder(server.local_addr(), &corpus, &references);
    done.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    for d in &done {
        report.check(d.ok, || {
            format!("ladder request due at {:.3}s failed or differed", d.due_s)
        });
    }
    let metrics = server.metrics();
    if args.trace {
        let rps = capacity(
            server.local_addr(),
            &corpus,
            &references,
            args.seconds * CAPACITY_SHARE,
            &mut report,
        );
        report.note(format!(
            "capacity connections={} goodput={rps:.2}/s top_rung_load={:.3}",
            nproc(),
            RUNG_RATES[RUNG_RATES.len() - 1] / rps
        ));
        report.set("serve.capacity_rps", rps);
    }

    // Store-read = computed: every catalog entry read back from disk.
    match RunStore::open(&store_dir) {
        Ok(store) => {
            for (doc, spec) in corpus.specs[..corpus.catalog].iter().enumerate() {
                let key = ExperimentSpec::from_json(spec).map(|s| RunKey::of(&s));
                match key.ok().and_then(|k| store.get(&k)) {
                    Some(bytes) => {
                        check::same_bytes(&mut report, "store read", &bytes, &references[doc])
                    }
                    None => report.error("catalog entry missing from the store"),
                }
            }
        }
        Err(e) => report.error(format!("could not open the store: {e}")),
    }
    drop(server);

    let rungs = rung_summaries(&done, &lateness);
    let generator_valid = rungs
        .iter()
        .all(|r| r.lateness_p99_ms <= GENERATOR_SLACK_MS);
    report.check(generator_valid, || {
        format!("the dispatcher fell behind its schedule by more than {GENERATOR_SLACK_MS} ms: run invalid")
    });
    for r in &rungs {
        report.note(format!(
            "rung{} offered={}/s achieved={:.2}/s requests={} p50_ms={:.3} p{}_ms={:.3} \
             backlog_growth={} lateness_p99_ms={:.3} meets_limit={}",
            r.rung + 1,
            RUNG_RATES[r.rung],
            r.achieved_rps,
            r.requests,
            r.p50_ms,
            TAIL_QUANTILE * 100.0,
            r.tail_ms,
            r.backlog_growth,
            r.lateness_p99_ms,
            r.meets_limit
        ));
    }

    if args.trace {
        for r in &rungs {
            let n = r.rung + 1;
            report.set(&format!("serve.rung{n}.lateness_ms_p99"), r.lateness_p99_ms);
            report.set(
                &format!("serve.rung{n}.backlog_growth"),
                r.backlog_growth as f64,
            );
        }
        report.set(
            "serve.generator_valid",
            f64::from(u8::from(generator_valid)),
        );
        let tier = |source: &str| {
            let samples: Vec<f64> = done
                .iter()
                .filter(|d| d.ok && d.source == source)
                .map(|d| d.latency_ms)
                .collect();
            stats::median(&samples)
        };
        report.set("sim.serve.computed_ms_p50", tier("computed"));
        report.set("sim.serve.cache_ms_p50", tier("cache"));
        report.set("sim.serve.store_ms_p50", tier("store"));
        report.set("sim.serve.computed", metrics.runs_computed as f64);
        report.set("sim.serve.cache_hits", metrics.response_cache_hits as f64);
        report.set("sim.serve.store_hits", metrics.store_hits as f64);
        report.set("sim.serve.store_misses", metrics.store_misses as f64);
        report.set("sim.serve.coalesced", metrics.runs_coalesced as f64);
        report.set("sim.serve.errors", metrics.error_responses as f64);
        let served = metrics
            .sessions
            .iter()
            .find(|(precision, _)| precision == "f64")
            .map(|(_, stats)| *stats)
            .unwrap_or_default();
        let catalog: Vec<String> = corpus.specs[..corpus.catalog].to_vec();
        traced(
            &catalog,
            &references[..corpus.catalog],
            &served,
            &registry,
            &work.0,
            &mut report,
        )
        .map_err(|e| e.to_string())?;
    } else {
        let top = rungs.last().expect("the ladder has rungs");
        report.set("setup_s", stats::median(&setup_s));
        report.set("p50_ms", top.p50_ms);
        report.set("tail_ms", top.tail_ms);
        report.set("goodput_per_s", top.goodput_rps);
        let sustained = rungs
            .iter()
            .rev()
            .find(|r| r.meets_limit)
            .map_or(0.0, |r| r.achieved_rps);
        report.set("sustained_per_s", sustained);
        report.set("peak_heap_mb", crate::alloc::peak_heap_mb());
    }
    report.set("gate.error_rate", common::error_rate(&report));
    Ok(report)
}

/// The host's available parallelism: server workers and client connections.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs the ladder: the calling thread dispatches each request when due;
/// `nproc` sender threads post them. Returns the completed requests and the
/// dispatcher's lateness per request, `(rung, ms)`.
fn ladder(
    addr: SocketAddr,
    corpus: &Corpus,
    references: &[String],
) -> (Vec<Done>, Vec<(usize, f64)>) {
    let (sender, receiver) = mpsc::channel::<Scheduled>();
    let receiver = Arc::new(Mutex::new(receiver));
    let start = Instant::now();
    let mut lateness = Vec::with_capacity(corpus.schedule.len());
    let done = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..nproc())
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let next = receiver.lock().expect("dispatch queue poisoned").recv();
                        let Ok(req) = next else { break };
                        let sent_s = start.elapsed().as_secs_f64();
                        let response =
                            http::request(addr, "POST", "/v1/run", &corpus.specs[req.doc], TIMEOUT);
                        let done_s = start.elapsed().as_secs_f64();
                        let (ok, source) = match response {
                            Ok(r) => (r.status == 200 && r.body == references[req.doc], r.source),
                            Err(_) => (false, String::new()),
                        };
                        out.push(Done {
                            rung: req.rung,
                            due_s: req.due_s,
                            sent_s,
                            latency_ms: (done_s - req.due_s) * 1e3,
                            source,
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        for req in &corpus.schedule {
            let due = Duration::from_secs_f64(req.due_s);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            lateness.push((req.rung, ms_since(start) - req.due_s * 1e3));
            if sender.send(*req).is_err() {
                break;
            }
        }
        drop(sender);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sender thread panicked"))
            .collect::<Vec<_>>()
    });
    (done, lateness)
}

/// The closed-loop capacity phase: `nproc` connections post the corpus's
/// capacity draws back to back for `seconds`. Every response is checked;
/// returns the median, over whole windows of `CAPACITY_WINDOW_S`, of the
/// correct responses within the latency limit per second.
fn capacity(
    addr: SocketAddr,
    corpus: &Corpus,
    references: &[String],
    seconds: f64,
    report: &mut Report,
) -> f64 {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let done: Vec<(f64, bool, bool)> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..nproc())
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let doc = corpus.capacity[i % corpus.capacity.len()];
                        let t = Instant::now();
                        let response =
                            http::request(addr, "POST", "/v1/run", &corpus.specs[doc], TIMEOUT);
                        let ok =
                            response.is_ok_and(|r| r.status == 200 && r.body == references[doc]);
                        out.push((start.elapsed().as_secs_f64(), ok, ms_since(t) <= LIMIT_MS));
                    }
                    out
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("capacity sender panicked"))
            .collect()
    });
    for &(done_s, ok, _) in &done {
        report.check(ok, || {
            format!("capacity request done at {done_s:.3}s failed or differed")
        });
    }
    // A window's rate runs from its first good completion to its last.
    let windows = ((seconds / CAPACITY_WINDOW_S) as usize).max(1);
    let mut good: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(done_s, ok, within) in &done {
        let w = (done_s / CAPACITY_WINDOW_S) as usize;
        if ok && within && w < windows {
            good[w].push(done_s);
        }
    }
    let rates: Vec<f64> = good
        .iter()
        .map(|times| {
            let first = times.iter().copied().fold(f64::INFINITY, f64::min);
            let last = times.iter().copied().fold(0.0, f64::max);
            if times.len() < 2 {
                0.0
            } else {
                (times.len() - 1) as f64 / (last - first)
            }
        })
        .collect();
    stats::median(&rates)
}

struct Rung {
    rung: usize,
    requests: usize,
    achieved_rps: f64,
    goodput_rps: f64,
    p50_ms: f64,
    tail_ms: f64,
    backlog_growth: i64,
    lateness_p99_ms: f64,
    meets_limit: bool,
}

/// Per-rung figures. Rates divide by the rung's measured window, from its
/// first send to its last completion.
fn rung_summaries(done: &[Done], lateness: &[(usize, f64)]) -> Vec<Rung> {
    let mut out = Vec::new();
    for rung in 0..RUNG_RATES.len() {
        let mine: Vec<&Done> = done.iter().filter(|d| d.rung == rung).collect();
        let start = mine.iter().map(|d| d.due_s).fold(f64::INFINITY, f64::min);
        let end = mine.iter().map(|d| d.due_s).fold(0.0, f64::max);
        let first_sent = mine.iter().map(|d| d.sent_s).fold(f64::INFINITY, f64::min);
        let last_done = mine
            .iter()
            .map(|d| d.due_s + d.latency_ms / 1e3)
            .fold(0.0, f64::max);
        let window = (last_done - first_sent).max(1e-9);
        // A failed request misses every latency limit.
        let latencies: Vec<f64> = mine
            .iter()
            .map(|d| if d.ok { d.latency_ms } else { f64::MAX })
            .collect();
        let ok = mine.iter().filter(|d| d.ok).count();
        let within = mine
            .iter()
            .filter(|d| d.ok && d.latency_ms <= LIMIT_MS)
            .count();
        // Backlog: requests due but not yet sent, at the rung's start and end.
        let backlog = |t: f64| {
            let due = done.iter().filter(|d| d.due_s <= t).count() as i64;
            let sent = done.iter().filter(|d| d.sent_s <= t).count() as i64;
            due - sent
        };
        let backlog_growth = backlog(end) - backlog(start);
        let windows = (latencies.len() / TAIL_WINDOW).max(1);
        let per_window: Vec<f64> = (0..windows)
            .map(|w| {
                let chunk =
                    &latencies[w * latencies.len() / windows..(w + 1) * latencies.len() / windows];
                stats::quantile(chunk, TAIL_QUANTILE)
            })
            .collect();
        let tail_ms = stats::median(&per_window);
        let late: Vec<f64> = lateness
            .iter()
            .filter(|(r, _)| *r == rung)
            .map(|(_, ms)| *ms)
            .collect();
        out.push(Rung {
            rung,
            requests: mine.len(),
            achieved_rps: ok as f64 / window,
            goodput_rps: within as f64 / window,
            p50_ms: stats::median(&latencies),
            tail_ms,
            backlog_growth,
            lateness_p99_ms: stats::quantile(&late, 0.99),
            meets_limit: ok == mine.len() && tail_ms <= LIMIT_MS && backlog_growth <= BACKLOG_SLACK,
        });
    }
    out
}

/// The traced variant's per-layer work over the catalog: an untraced serial
/// cold pass (distinct keys, overhead base), a traced cold pass, the family
/// split, frontier vs exhaustive on the warm session, and store get/put per
/// document.
fn traced(
    catalog: &[String],
    references: &[String],
    served: &imc_sim::CacheStats,
    registry: &Registry,
    work: &Path,
    report: &mut Report,
) -> imc_sim::Result<()> {
    let serial = EvalSession::new();
    let (docs, untraced_ms) = common::untraced_pass(catalog, registry, &serial, Some(1))?;
    for (doc, reference) in docs.iter().zip(references) {
        check::same_bytes(report, "untraced catalog pass", doc, reference);
    }
    common::cache_metrics(report, served, &serial.stats());
    drop(serial);

    let session = EvalSession::new();
    let pass = common::traced_pass(catalog, registry, &session)?;
    for (doc, reference) in pass.docs.iter().zip(references) {
        check::same_bytes(report, "traced catalog pass", doc, reference);
    }
    common::traced_metrics(report, &pass, untraced_ms);
    common::family_split(catalog, registry, &session, report)?;

    // Frontier search against the exhaustive run of the same spec, on the
    // warm session: the first frontier spec of the catalog.
    let frontier_spec = catalog.iter().find_map(|s| {
        ExperimentSpec::from_json(s)
            .ok()
            .filter(|spec| spec.frontier)
    });
    if let Some(spec) = frontier_spec {
        let frontier = spec.to_json();
        let exhaustive = ExperimentSpec {
            frontier: false,
            ..spec
        }
        .to_json();
        let mut frontier_ms = Vec::new();
        let mut exhaustive_ms = Vec::new();
        for _ in 0..3 {
            for (json, samples) in [
                (&frontier, &mut frontier_ms),
                (&exhaustive, &mut exhaustive_ms),
            ] {
                let t = Instant::now();
                common::run_doc(json, registry, &session, None)?;
                samples.push(ms_since(t));
            }
        }
        report.set("sim.frontier.ms", stats::median(&frontier_ms));
        report.set("sim.frontier.exhaustive_ms", stats::median(&exhaustive_ms));
    }

    // Store get/put per document, on a store of the benchmark's own.
    let store = RunStore::open(work.join("store-probe"))?;
    let mut put_ms = Vec::new();
    let mut get_ms = Vec::new();
    for (spec, doc) in catalog.iter().zip(references) {
        let key = RunKey::of(&ExperimentSpec::from_json(spec)?);
        let t = Instant::now();
        store.put(&key, doc)?;
        put_ms.push(ms_since(t));
        let t = Instant::now();
        let read = store.get(&key);
        get_ms.push(ms_since(t));
        report.check(
            read.as_deref().map(String::as_str) == Some(doc.as_str()),
            || "store probe read back different bytes".to_owned(),
        );
    }
    report.set("sim.store.put_ms", stats::median(&put_ms));
    report.set("sim.store.get_ms", stats::median(&get_ms));
    Ok(())
}
