//! The long-lived evaluation server: experiment specs over HTTP/1.1.
//!
//! [`spec`](crate::spec) made experiments wire-format requests and
//! [`session`](crate::session) made their evaluation state long-lived; this
//! module is the layer that finally **listens**. A [`Server`] is a
//! hand-rolled HTTP/1.1 service over [`std::net::TcpListener`] — zero
//! external dependencies, the same rule as [`crate::json`] — that accepts
//! POSTed `imc.experiment-spec` documents, executes them on precision-keyed
//! shared [`EvalSession`]s, and sends the resulting
//! `imc.experiment-run` JSON lines back as a chunked response: one chunk
//! per JSON line, written through a 64 KiB buffer, so a response costs a
//! write per 64 KiB rather than three writes per line. The bytes a
//! client receives are **identical to `imc run` of the same spec** —
//! manifest header included — so the server is a drop-in, warm-cache
//! replacement for process-per-sweep execution.
//!
//! # Endpoints
//!
//! | Method & path | Behaviour |
//! |---|---|
//! | `POST /v1/run`      | body: spec JSON → chunked run JSON lines |
//! | `GET /v1/metrics`   | JSON snapshot: requests, coalescing, cache stats, latency percentiles |
//! | `GET /v1/health`    | `{"status":"ok"}` (readiness probe) |
//! | `POST /v1/shutdown` | acknowledge, then shut down gracefully |
//!
//! # Request coalescing
//!
//! The spec [content hash](crate::spec::ExperimentSpec::content_hash) is the
//! natural memoization key: two requests whose specs hash identically (and
//! agree on the byte-relevant execution members — see [`RunKey`]) produce
//! identical bytes, so computing them twice is pure waste. The server keeps
//! a **single-flight map**: the first request of a key computes; requests
//! arriving while that computation is in flight block on its result slot and
//! receive the very same bytes (counted as `coalesced` in the metrics).
//! Completed responses additionally enter a bounded LRU **response cache**,
//! so identical requests arriving *after* the flight has landed are served
//! without recomputation (counted as `response_cache_hits`).
//!
//! With a [`ServeConfig::store_dir`], the response cache grows a second,
//! *persistent* tier: a [`RunStore`](crate::store::RunStore) probed on
//! every memory miss and written through by every completed computation,
//! so a restarted server answers previously-computed specs from disk
//! instead of paying cold compute (counted as `store_hits`, with misses
//! and LRU evictions alongside).
//!
//! Coalescing and caching are observable only in the metrics and in the
//! `x-imc-source` response header (`computed` / `coalesced` / `cache` /
//! `store`); the response bytes are identical on every path.
//!
//! # Metrics and determinism
//!
//! `/v1/metrics` reports request counts, coalescing counters, per-kind
//! session [`CacheStats`] (with the hit-rate accessors), and p50/p90/p99
//! run latencies from a **fixed-bucket histogram**. Latencies live only in
//! this histogram — run records carry no timestamps — so serving a spec
//! through the server never perturbs the determinism of the run bytes. A
//! `latency_ms` percentile is a bucket upper bound in milliseconds; when
//! the quantile falls in the >60 s overflow bucket it is reported as the
//! JSON string `"saturated"` (no boundary exists to report), and `null`
//! means no observations yet.
//!
//! # Shutdown
//!
//! `POST /v1/shutdown` is the graceful path: the acknowledgement is sent,
//! the listener stops accepting, in-flight requests run to completion, and
//! [`Server::wait`] returns. (The zero-dependency rule leaves no portable
//! way to install OS signal handlers, so SIGINT/SIGTERM keep their default
//! process-killing disposition; drivers that want graceful teardown use the
//! endpoint, as the CI smoke job does.)
//!
//! ```no_run
//! use imc_sim::serve::{ServeClient, ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig::new().addr("127.0.0.1:0")).unwrap();
//! let client = ServeClient::new(server.local_addr().to_string());
//! let spec = imc_sim::experiments::fig6_experiment(&imc_nn::resnet20(), 64, 2025)
//!     .to_spec()
//!     .unwrap();
//! let run_bytes = client.post_run(&spec.to_json()).unwrap();
//! assert!(run_bytes.starts_with("{\"format\":\"imc.experiment-run\""));
//! client.shutdown_server().unwrap();
//! server.wait();
//! ```

use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use imc_core::{CacheStats, Precision};

use crate::json::{json_string, JsonValue};
use crate::registry::Registry;
use crate::session::EvalSession;
use crate::spec::{precision_name, ExperimentSpec};
use crate::store::RunStore;
use crate::{Error, Result};

/// Format tag of the `/v1/metrics` document.
pub const METRICS_FORMAT: &str = "imc.serve-metrics";

/// Current version of the metrics document; consumers gate on it like the
/// other wire formats.
pub const METRICS_FORMAT_VERSION: u64 = 1;

fn serve_error(what: impl Into<String>) -> Error {
    Error::Serve { what: what.into() }
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Configures a [`Server`]: bind address, connection workers, session cache
/// budget and response-cache bound.
#[derive(Clone)]
pub struct ServeConfig {
    addr: String,
    workers: usize,
    cache_budget_bytes: Option<usize>,
    response_cache_bytes: usize,
    max_body_bytes: usize,
    store_dir: Option<PathBuf>,
    registry: Arc<Registry>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("cache_budget_bytes", &self.cache_budget_bytes)
            .field("response_cache_bytes", &self.response_cache_bytes)
            .field("max_body_bytes", &self.max_body_bytes)
            .field("store_dir", &self.store_dir)
            .finish_non_exhaustive()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            cache_budget_bytes: None,
            response_cache_bytes: 64 << 20,
            max_body_bytes: 8 << 20,
            store_dir: None,
            registry: Arc::new(Registry::new()),
        }
    }
}

impl ServeConfig {
    /// The default configuration: loopback on an ephemeral port, 4
    /// connection workers, unbounded session caches, a 64 MiB response
    /// cache and an 8 MiB request-body cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bind address (`host:port`; port `0` picks an ephemeral
    /// port, reported by [`Server::local_addr`]).
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets how many connection-handler threads serve requests concurrently
    /// (each run additionally parallelizes over the
    /// [`runtime`](crate::runtime) worker pool; clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bounds every precision-keyed [`EvalSession`]'s decomposition cache to
    /// an estimated resident-byte budget (default: unbounded). Identical
    /// semantics to
    /// [`EvalSessionBuilder::cache_budget_bytes`](crate::session::EvalSessionBuilder::cache_budget_bytes).
    #[must_use]
    pub fn cache_budget_bytes(mut self, budget: usize) -> Self {
        self.cache_budget_bytes = Some(budget);
        self
    }

    /// Bounds the completed-response LRU cache to `budget` bytes of run
    /// JSONL (default 64 MiB; `0` disables response caching — single-flight
    /// coalescing of concurrent identical requests still applies).
    #[must_use]
    pub fn response_cache_bytes(mut self, budget: usize) -> Self {
        self.response_cache_bytes = budget;
        self
    }

    /// Caps the accepted request-body size (default 8 MiB); larger POSTs
    /// are refused with `413 Payload Too Large` before buffering.
    #[must_use]
    pub fn max_body_bytes(mut self, limit: usize) -> Self {
        self.max_body_bytes = limit.max(1);
        self
    }

    /// Backs the response cache with the persistent
    /// [`RunStore`](crate::store::RunStore) at `dir` (created on bind if
    /// absent; default: no persistent tier). Every completed computation is
    /// written through, and a restarted server on the same directory serves
    /// previously-computed specs from disk — byte-identical, sourced
    /// `store`. Multiple servers may share one directory.
    #[must_use]
    pub fn store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Replaces the name-resolution [`Registry`] (default:
    /// [`Registry::new`], the built-in networks and strategies). Services
    /// with external strategies register them here and they become
    /// POSTable by name.
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Arc::new(registry);
        self
    }
}

// ---------------------------------------------------------------------------
// Coalescing keys, single-flight slots and the response cache.
// ---------------------------------------------------------------------------

/// The coalescing/memoization key of one `/v1/run` request: every member
/// that can alter the **response bytes**.
///
/// `spec_hash` ([`ExperimentSpec::content_hash`]) covers seed, precision,
/// networks, arrays and strategies. The manifest embedded in the run header
/// additionally records the covered cell range and the *requested*
/// parallelism, so both are part of the key even though parallelism never
/// changes record values — two specs differing only in `"parallelism"`
/// produce headers that differ byte-wise and must not share a response.
/// `precision` is already inside the hash; it is kept as an explicit member
/// because it also selects the shared session (and guards against hash
/// collisions across widths). `frontier` is likewise outside the content
/// hash (a frontier run is a subset of the same grid, not a different
/// experiment) but changes both the record set and the manifest — a
/// frontier request must never share a response with the exhaustive sweep
/// of the same spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// FNV-1a content hash of the spec identity.
    pub spec_hash: u64,
    /// Decomposition-kernel width (selects the shared session).
    pub precision: Precision,
    /// The spec's cell-range restriction, if any.
    pub cells: Option<(usize, usize)>,
    /// The spec's pinned worker count, if any (recorded in the manifest).
    pub parallelism: Option<usize>,
    /// Whether the spec requests a frontier run (the per-series Pareto
    /// fronts) instead of the exhaustive grid.
    pub frontier: bool,
}

impl RunKey {
    /// The key of a parsed spec.
    pub fn of(spec: &ExperimentSpec) -> Self {
        Self {
            spec_hash: spec.content_hash(),
            precision: spec.precision,
            cells: spec.cells.clone().map(|r| (r.start, r.end)),
            parallelism: spec.parallelism,
            frontier: spec.frontier,
        }
    }
}

/// How a `/v1/run` response was obtained; reported in the `x-imc-source`
/// header and counted in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunSource {
    Computed,
    Coalesced,
    Cache,
    Store,
}

impl RunSource {
    fn tag(self) -> &'static str {
        match self {
            RunSource::Computed => "computed",
            RunSource::Coalesced => "coalesced",
            RunSource::Cache => "cache",
            RunSource::Store => "store",
        }
    }
}

/// The result slot one in-flight computation publishes to its coalesced
/// followers: the shared response bytes, or the error every waiter should
/// surface.
struct Flight {
    slot: Mutex<Option<core::result::Result<Arc<String>, RequestError>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, result: core::result::Result<Arc<String>, RequestError>) {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        *slot = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> core::result::Result<Arc<String>, RequestError> {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.ready.wait(slot).expect("flight slot poisoned");
        }
    }
}

/// A completed response kept for reuse, with the LRU tick of its most
/// recent use.
struct CachedResponse {
    bytes: Arc<String>,
    last_used: u64,
}

/// Bounded LRU over completed run responses, keyed like the single-flight
/// map. A `budget_bytes` of zero disables retention entirely.
struct ResponseCache {
    entries: HashMap<RunKey, CachedResponse>,
    total_bytes: usize,
    budget_bytes: usize,
    tick: u64,
}

impl ResponseCache {
    fn new(budget_bytes: usize) -> Self {
        Self {
            entries: HashMap::new(),
            total_bytes: 0,
            budget_bytes,
            tick: 0,
        }
    }

    fn get(&mut self, key: &RunKey) -> Option<Arc<String>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.bytes)
        })
    }

    fn insert(&mut self, key: RunKey, bytes: Arc<String>) {
        if self.budget_bytes == 0 {
            return;
        }
        self.tick += 1;
        if let Some(previous) = self.entries.insert(
            key,
            CachedResponse {
                bytes: Arc::clone(&bytes),
                last_used: self.tick,
            },
        ) {
            self.total_bytes -= previous.bytes.len();
        }
        self.total_bytes += bytes.len();
        // Evict least-recently-used entries until the budget holds again; a
        // single response larger than the whole budget simply never stays.
        while self.total_bytes > self.budget_bytes {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key)
            else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.total_bytes -= evicted.bytes.len();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

/// Upper bucket boundaries (microseconds) of the fixed run-latency
/// histogram; one implicit overflow bucket follows the last boundary.
const LATENCY_BUCKETS_US: [u64; 17] = [
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
    2_500_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// Lock-free counters every handler thread updates; the `/v1/metrics`
/// endpoint snapshots them.
#[derive(Default)]
struct MetricsInner {
    requests_total: AtomicU64,
    run_requests: AtomicU64,
    metrics_requests: AtomicU64,
    health_requests: AtomicU64,
    shutdown_requests: AtomicU64,
    error_responses: AtomicU64,
    runs_computed: AtomicU64,
    runs_coalesced: AtomicU64,
    response_cache_hits: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    panicked_requests: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
}

impl MetricsInner {
    fn record_run_latency(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the server's observability counters — the
/// in-process twin of the `/v1/metrics` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Requests accepted, across every endpoint (errors included).
    pub requests_total: u64,
    /// `POST /v1/run` requests.
    pub run_requests: u64,
    /// `GET /v1/metrics` requests.
    pub metrics_requests: u64,
    /// `GET /v1/health` requests.
    pub health_requests: u64,
    /// `POST /v1/shutdown` requests.
    pub shutdown_requests: u64,
    /// Responses with a non-2xx status.
    pub error_responses: u64,
    /// Run requests that executed a sweep themselves.
    pub runs_computed: u64,
    /// Run requests that attached to an identical in-flight computation.
    pub runs_coalesced: u64,
    /// Run requests served from the completed-response cache.
    pub response_cache_hits: u64,
    /// Run requests served from the persistent store (the disk tier behind
    /// the memory cache); always zero without a
    /// [`ServeConfig::store_dir`].
    pub store_hits: u64,
    /// Run requests that probed the persistent store and found no entry.
    pub store_misses: u64,
    /// Entries the persistent store evicted to hold its byte budget.
    pub store_evictions: u64,
    /// Requests whose handler panicked. Each one was caught (converted to a
    /// 500 and counted in [`ServeMetrics::error_responses`]) instead of
    /// killing its pool worker, so the pool never shrinks.
    pub panicked_requests: u64,
    /// Counts per latency bucket (the last bucket is the >60 s overflow).
    pub latency_buckets: Vec<u64>,
    /// Per-precision session cache statistics, sorted by precision name.
    pub sessions: Vec<(String, CacheStats)>,
}

impl ServeMetrics {
    /// Total run-latency observations.
    pub fn latency_count(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// The `q`-quantile run latency in milliseconds, from the fixed-bucket
    /// histogram: the upper boundary of the bucket in which the quantile
    /// falls. `None` without observations.
    ///
    /// When the quantile lands in the >60 s overflow bucket the histogram
    /// has no upper boundary to report, so the result is
    /// [`f64::INFINITY`] — an explicit saturation marker. The previous
    /// behaviour (reporting the 60 s boundary) silently understated any
    /// tail that had actually blown past it.
    pub fn latency_quantile_ms(&self, q: f64) -> Option<f64> {
        let count = self.latency_count();
        if count == 0 {
            return None;
        }
        let needed = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.latency_buckets.iter().enumerate() {
            seen += n;
            if seen >= needed {
                return Some(match LATENCY_BUCKETS_US.get(bucket) {
                    Some(&bound_us) => bound_us as f64 / 1_000.0,
                    // The overflow bucket: beyond the last boundary.
                    None => f64::INFINITY,
                });
            }
        }
        None
    }

    /// Serializes the snapshot as the versioned `/v1/metrics` JSON
    /// document.
    pub fn to_json(&self) -> String {
        // `null` = no observations; the string `"saturated"` = the quantile
        // fell in the >60 s overflow bucket, where the histogram cannot
        // bound it (JSON has no encoding for infinity).
        let quantile = |q: f64| match self.latency_quantile_ms(q) {
            Some(ms) if ms.is_finite() => format!("{ms}"),
            Some(_) => "\"saturated\"".to_owned(),
            None => "null".to_owned(),
        };
        let buckets: Vec<String> = self
            .latency_buckets
            .iter()
            .map(ToString::to_string)
            .collect();
        let bounds: Vec<String> = LATENCY_BUCKETS_US
            .iter()
            .map(|us| format!("{}", *us as f64 / 1_000.0))
            .collect();
        let sessions: Vec<String> = self
            .sessions
            .iter()
            .map(|(precision, stats)| {
                let kinds: Vec<String> = stats
                    .per_kind()
                    .iter()
                    .map(|(name, kind)| {
                        format!(
                            "{}:{{\"hits\":{},\"misses\":{},\"coalesced\":{},\"evictions\":{},\"hit_rate\":{}}}",
                            json_string(name),
                            kind.hits,
                            kind.misses,
                            kind.coalesced,
                            kind.evictions,
                            format_rate(kind.hit_rate()),
                        )
                    })
                    .collect();
                format!(
                    "{{\"precision\":{},\"resident_bytes\":{},\"hit_rate\":{},\"kinds\":{{{}}}}}",
                    json_string(precision),
                    stats.resident_bytes,
                    format_rate(stats.hit_rate()),
                    kinds.join(","),
                )
            })
            .collect();
        format!(
            "{{\"format\":{},\"version\":{},\
             \"requests\":{{\"total\":{},\"run\":{},\"metrics\":{},\"health\":{},\"shutdown\":{},\"errors\":{},\"panics\":{}}},\
             \"runs\":{{\"computed\":{},\"coalesced\":{},\"response_cache_hits\":{},\"store_hits\":{},\"store_misses\":{},\"store_evictions\":{}}},\
             \"latency_ms\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"bucket_bounds_ms\":[{}],\"bucket_counts\":[{}]}},\
             \"sessions\":[{}]}}",
            json_string(METRICS_FORMAT),
            METRICS_FORMAT_VERSION,
            self.requests_total,
            self.run_requests,
            self.metrics_requests,
            self.health_requests,
            self.shutdown_requests,
            self.error_responses,
            self.panicked_requests,
            self.runs_computed,
            self.runs_coalesced,
            self.response_cache_hits,
            self.store_hits,
            self.store_misses,
            self.store_evictions,
            self.latency_count(),
            quantile(0.50),
            quantile(0.90),
            quantile(0.99),
            bounds.join(","),
            buckets.join(","),
            sessions.join(","),
        )
    }
}

/// Formats a hit rate with enough digits to be readable and stable.
fn format_rate(rate: f64) -> String {
    format!("{:.4}", rate)
}

// ---------------------------------------------------------------------------
// Shared server state and the server handle.
// ---------------------------------------------------------------------------

/// State shared by every connection-handler thread.
struct ServerState {
    registry: Arc<Registry>,
    cache_budget_bytes: Option<usize>,
    sessions: Mutex<HashMap<Precision, Arc<EvalSession>>>,
    flights: Mutex<HashMap<RunKey, Arc<Flight>>>,
    response_cache: Mutex<ResponseCache>,
    store: Option<Arc<RunStore>>,
    metrics: MetricsInner,
    shutdown: AtomicBool,
    max_body_bytes: usize,
}

impl ServerState {
    /// The shared session of `precision`, created on first use with the
    /// configured cache budget.
    fn session_for(&self, precision: Precision) -> Arc<EvalSession> {
        let mut sessions = self.sessions.lock().expect("session map poisoned");
        Arc::clone(sessions.entry(precision).or_insert_with(|| {
            let mut builder = EvalSession::builder().precision(precision);
            if let Some(budget) = self.cache_budget_bytes {
                builder = builder.cache_budget_bytes(budget);
            }
            Arc::new(builder.build())
        }))
    }

    fn snapshot_metrics(&self) -> ServeMetrics {
        let m = &self.metrics;
        let latency_buckets = m
            .latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let mut sessions: Vec<(String, CacheStats)> = self
            .sessions
            .lock()
            .expect("session map poisoned")
            .iter()
            .map(|(precision, session)| (precision_name(*precision).to_owned(), session.stats()))
            .collect();
        sessions.sort_by(|a, b| a.0.cmp(&b.0));
        ServeMetrics {
            requests_total: m.requests_total.load(Ordering::Relaxed),
            run_requests: m.run_requests.load(Ordering::Relaxed),
            metrics_requests: m.metrics_requests.load(Ordering::Relaxed),
            health_requests: m.health_requests.load(Ordering::Relaxed),
            shutdown_requests: m.shutdown_requests.load(Ordering::Relaxed),
            error_responses: m.error_responses.load(Ordering::Relaxed),
            runs_computed: m.runs_computed.load(Ordering::Relaxed),
            runs_coalesced: m.runs_coalesced.load(Ordering::Relaxed),
            response_cache_hits: m.response_cache_hits.load(Ordering::Relaxed),
            store_hits: m.store_hits.load(Ordering::Relaxed),
            store_misses: m.store_misses.load(Ordering::Relaxed),
            store_evictions: self.store.as_ref().map_or(0, |store| store.evictions()),
            panicked_requests: m.panicked_requests.load(Ordering::Relaxed),
            latency_buckets,
            sessions,
        }
    }
}

/// A running evaluation server: the handle owning the listener, the
/// connection workers and the shared sessions.
///
/// Bind with [`Server::bind`]; stop it by POSTing `/v1/shutdown` (or calling
/// [`Server::shutdown`]) and then [`Server::wait`]. Dropping the handle also
/// shuts down and joins.
pub struct Server {
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl Server {
    /// Binds the listener and starts the accept loop plus the configured
    /// connection workers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] when the address cannot be bound,
    /// [`Error::Io`] when the configured store directory cannot be opened.
    pub fn bind(config: ServeConfig) -> Result<Server> {
        let store = config
            .store_dir
            .as_ref()
            .map(RunStore::open)
            .transpose()?
            .map(Arc::new);
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| serve_error(format!("could not bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| serve_error(format!("could not read bound address: {e}")))?;
        let state = Arc::new(ServerState {
            registry: Arc::clone(&config.registry),
            cache_budget_bytes: config.cache_budget_bytes,
            sessions: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            response_cache: Mutex::new(ResponseCache::new(config.response_cache_bytes)),
            store,
            metrics: MetricsInner::default(),
            shutdown: AtomicBool::new(false),
            max_body_bytes: config.max_body_bytes,
        });

        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        let mut threads = Vec::with_capacity(config.workers + 1);
        for _ in 0..config.workers {
            let receiver = Arc::clone(&receiver);
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || loop {
                let next = receiver.lock().expect("connection queue poisoned").recv();
                match next {
                    Ok(stream) => {
                        // Backstop: `handle_connection` catches handler
                        // panics itself, but nothing that escapes it may
                        // kill this thread — a panicking request must never
                        // permanently shrink the pool.
                        let state = &state;
                        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handle_connection(state, stream)
                        }))
                        .is_err()
                        {
                            state
                                .metrics
                                .panicked_requests
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // The accept loop dropped the sender: shutdown.
                    Err(_) => break,
                }
            }));
        }
        {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || {
                // `sender` moves in here; dropping it on exit closes the
                // worker queue and lets the workers drain and stop.
                for stream in listener.incoming() {
                    if state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if sender.send(stream).is_err() {
                        break;
                    }
                }
            }));
        }
        Ok(Server {
            state,
            local_addr,
            threads,
        })
    }

    /// The bound socket address (resolves the ephemeral port of `:0`
    /// binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server's metrics — the in-process equivalent of
    /// `GET /v1/metrics`.
    pub fn metrics(&self) -> ServeMetrics {
        self.state.snapshot_metrics()
    }

    /// Requests a graceful shutdown: stop accepting, let in-flight requests
    /// finish. Idempotent; [`Server::wait`] (or drop) joins the threads.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.state, self.local_addr);
    }

    /// Blocks until the server has shut down (via `POST /v1/shutdown` or
    /// [`Server::shutdown`]) and every worker has drained.
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown();
            self.join_threads();
        }
    }
}

/// Flags the shutdown and pokes the listener with a throwaway connection so
/// a blocked `accept` observes the flag.
fn trigger_shutdown(state: &ServerState, addr: SocketAddr) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

// ---------------------------------------------------------------------------
// HTTP plumbing (server side).
// ---------------------------------------------------------------------------

/// How long a connection may dribble its request in / ignore its response
/// before the worker gives up on it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Hard cap on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 << 10;

/// A request error carrying the HTTP status it should surface as.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RequestError {
    status: u16,
    message: String,
}

impl RequestError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    }
}

/// One parsed request: method, path and body.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Reads one HTTP/1.1 request off the stream. `Content-Length` bodies only;
/// the cap on head and body sizes makes the server safe to expose to
/// untrusted peers.
///
/// `Ok(None)` means the peer closed the connection before sending a byte:
/// a port probe, a load balancer's TCP check or the shutdown poke, which
/// is no request and gets no answer.
fn read_request(
    stream: &mut TcpStream,
    max_body_bytes: usize,
) -> core::result::Result<Option<Request>, RequestError> {
    let bad = |what: String| RequestError::new(400, what);
    let mut buffer: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_subslice(&buffer, b"\r\n\r\n") {
            break pos;
        }
        if buffer.len() > MAX_HEAD_BYTES {
            return Err(bad("request head exceeds 16 KiB".to_owned()));
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) if buffer.is_empty() => return Ok(None),
            Ok(0) => return Err(bad("connection closed mid-request".to_owned())),
            Ok(n) => n,
            Err(e) => return Err(bad(format!("could not read request: {e}"))),
        };
        buffer.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buffer[..head_end])
        .map_err(|_| bad("request head is not UTF-8".to_owned()))?
        .to_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = (
        parts.next().unwrap_or_default().to_owned(),
        parts.next().unwrap_or_default().to_owned(),
        parts.next().unwrap_or_default(),
    );
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(bad(format!("malformed request line '{request_line}'")));
    }
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| bad(format!("invalid content-length '{value}'")))?;
        } else if name == "transfer-encoding" && value.to_ascii_lowercase().contains("chunked") {
            return Err(bad(
                "chunked request bodies are not supported (send content-length)".to_owned(),
            ));
        }
    }
    if content_length > max_body_bytes {
        return Err(RequestError::new(
            413,
            format!(
                "request body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"
            ),
        ));
    }
    let mut body = buffer[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(bad("request body longer than content-length".to_owned()));
    }
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| bad(format!("could not read request body: {e}")))?;
        if n == 0 {
            return Err(bad("connection closed mid-body".to_owned()));
        }
        body.extend_from_slice(&chunk[..n]);
        if body.len() > content_length {
            return Err(bad("request body longer than content-length".to_owned()));
        }
    }
    Ok(Some(Request { method, path, body }))
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Size of the buffer every response is written through. The sockets run
/// with `TCP_NODELAY`, so each unbuffered write would leave as a segment of
/// its own; through the buffer a ~750 KB run takes about a dozen writes
/// instead of three per JSON line.
const RESPONSE_BUFFER_BYTES: usize = 64 << 10;

/// Writes a complete (content-length) response.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut out = BufWriter::with_capacity(RESPONSE_BUFFER_BYTES, stream);
    write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        status_reason(status),
        body.len(),
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.write_all(b"\r\n")?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// Sends a run back as a chunked response, one chunk per JSON line, written
/// through one 64 KiB buffer ([`RESPONSE_BUFFER_BYTES`]): the framing is
/// per record, the system calls are per buffer.
fn write_chunked_response(
    stream: &mut TcpStream,
    source: RunSource,
    body: &str,
) -> std::io::Result<()> {
    let mut out = BufWriter::with_capacity(RESPONSE_BUFFER_BYTES, stream);
    write!(
        out,
        "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nx-imc-source: {}\r\nconnection: close\r\n\r\n",
        source.tag(),
    )?;
    for line in body.split_inclusive('\n') {
        write!(out, "{:x}\r\n", line.len())?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\r\n")?;
    }
    out.write_all(b"0\r\n\r\n")?;
    out.flush()
}

fn write_error(stream: &mut TcpStream, error: &RequestError) -> std::io::Result<()> {
    let body = format!("{{\"error\":{}}}\n", json_string(&error.message));
    write_response(stream, error.status, "application/json", &[], &body)
}

/// Extracts the human-readable message from a caught panic payload
/// (`panic!` with a literal yields `&str`, with a format string `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------------

fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let request = match read_request(&mut stream, state.max_body_bytes) {
        Ok(Some(request)) => request,
        // Closed before the first byte: nothing to count or answer.
        Ok(None) => return,
        Err(error) => {
            state
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            let _ = write_error(&mut stream, &error);
            return;
        }
    };
    state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    let endpoint = (request.method.as_str(), request.path.as_str());
    // A handler panic (a buggy strategy, a poisoned lock) is converted into
    // a 500 for THIS request; the connection worker lives on.
    let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> core::result::Result<(), RequestError> {
            match endpoint {
                ("POST", "/v1/run") => {
                    state.metrics.run_requests.fetch_add(1, Ordering::Relaxed);
                    handle_run(state, &request.body).and_then(|(bytes, source)| {
                        write_chunked_response(&mut stream, source, &bytes).map_err(|e| {
                            RequestError::new(500, format!("could not write response: {e}"))
                        })
                    })
                }
                ("GET", "/v1/metrics") => {
                    state
                        .metrics
                        .metrics_requests
                        .fetch_add(1, Ordering::Relaxed);
                    let body = format!("{}\n", state.snapshot_metrics().to_json());
                    write_response(&mut stream, 200, "application/json", &[], &body).map_err(|e| {
                        RequestError::new(500, format!("could not write response: {e}"))
                    })
                }
                ("GET", "/v1/health") => {
                    state
                        .metrics
                        .health_requests
                        .fetch_add(1, Ordering::Relaxed);
                    write_response(
                        &mut stream,
                        200,
                        "application/json",
                        &[],
                        "{\"status\":\"ok\"}\n",
                    )
                    .map_err(|e| RequestError::new(500, format!("could not write response: {e}")))
                }
                ("POST", "/v1/shutdown") => {
                    state
                        .metrics
                        .shutdown_requests
                        .fetch_add(1, Ordering::Relaxed);
                    let written = write_response(
                        &mut stream,
                        200,
                        "application/json",
                        &[],
                        "{\"status\":\"shutting down\"}\n",
                    );
                    // Acknowledge first, then stop accepting; the local address is
                    // recoverable from the connection itself.
                    if let Ok(addr) = stream.local_addr() {
                        trigger_shutdown(state, addr);
                    } else {
                        state.shutdown.store(true, Ordering::SeqCst);
                    }
                    written.map_err(|e| {
                        RequestError::new(500, format!("could not write response: {e}"))
                    })
                }
                ("POST" | "GET", "/v1/run" | "/v1/metrics" | "/v1/health" | "/v1/shutdown") => {
                    Err(RequestError::new(
                        405,
                        format!("{} does not accept {}", request.path, request.method),
                    ))
                }
                (_, path) => Err(RequestError::new(404, format!("unknown path '{path}'"))),
            }
        },
    ));
    let outcome = match dispatched {
        Ok(outcome) => outcome,
        Err(payload) => {
            state
                .metrics
                .panicked_requests
                .fetch_add(1, Ordering::Relaxed);
            Err(RequestError::new(
                500,
                format!("internal panic: {}", panic_message(payload.as_ref())),
            ))
        }
    };
    if let Err(error) = outcome {
        state
            .metrics
            .error_responses
            .fetch_add(1, Ordering::Relaxed);
        let _ = write_error(&mut stream, &error);
    }
}

/// The `/v1/run` pipeline: parse → coalesce → execute → cache. Returns the
/// shared response bytes and how they were obtained.
fn handle_run(
    state: &ServerState,
    body: &[u8],
) -> core::result::Result<(Arc<String>, RunSource), RequestError> {
    let started = Instant::now();
    let text = std::str::from_utf8(body)
        .map_err(|_| RequestError::new(400, "request body is not UTF-8"))?;
    let spec =
        ExperimentSpec::from_json(text).map_err(|e| RequestError::new(400, format!("{e}")))?;
    let key = RunKey::of(&spec);

    // Completed earlier? Serve the retained bytes.
    if let Some(bytes) = state
        .response_cache
        .lock()
        .expect("response cache poisoned")
        .get(&key)
    {
        state
            .metrics
            .response_cache_hits
            .fetch_add(1, Ordering::Relaxed);
        state.metrics.record_run_latency(started.elapsed());
        return Ok((bytes, RunSource::Cache));
    }

    // Persisted by an earlier process? Serve the disk tier and promote the
    // bytes into the memory tier. A damaged entry was already quarantined
    // inside `get` and reads as a miss, so this path never errors.
    if let Some(store) = &state.store {
        match store.get(&key) {
            Some(bytes) => {
                state.metrics.store_hits.fetch_add(1, Ordering::Relaxed);
                state
                    .response_cache
                    .lock()
                    .expect("response cache poisoned")
                    .insert(key, Arc::clone(&bytes));
                state.metrics.record_run_latency(started.elapsed());
                return Ok((bytes, RunSource::Store));
            }
            None => {
                state.metrics.store_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // Identical request in flight? Attach to it.
    let (flight, leader) = {
        let mut flights = state.flights.lock().expect("flight map poisoned");
        match flights.get(&key) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Flight::new());
                flights.insert(key, Arc::clone(&flight));
                (flight, true)
            }
        }
    };
    if !leader {
        state.metrics.runs_coalesced.fetch_add(1, Ordering::Relaxed);
        let result = flight.wait();
        state.metrics.record_run_latency(started.elapsed());
        return result.map(|bytes| (bytes, RunSource::Coalesced));
    }

    // Leader: execute the spec on the shared session of its precision. A
    // panic inside the evaluation must still publish to the flight —
    // coalesced waiters would otherwise block on a leader that no longer
    // exists.
    let result =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_spec(state, &spec)))
        {
            Ok(result) => result,
            Err(payload) => {
                state
                    .metrics
                    .panicked_requests
                    .fetch_add(1, Ordering::Relaxed);
                Err(RequestError::new(
                    500,
                    format!(
                        "internal panic while executing the run: {}",
                        panic_message(payload.as_ref())
                    ),
                ))
            }
        };
    {
        // Publish under the flight-map lock so a request that misses the
        // response cache always finds either the flight or the cached
        // response, never a gap between the two.
        let mut flights = state.flights.lock().expect("flight map poisoned");
        if let Ok(bytes) = &result {
            state
                .response_cache
                .lock()
                .expect("response cache poisoned")
                .insert(key, Arc::clone(bytes));
        }
        flight.publish(result.clone());
        flights.remove(&key);
    }
    // Write the completed bytes through to the persistent tier,
    // best-effort: a full or read-only disk must not fail a request whose
    // computation already succeeded.
    if let (Some(store), Ok(bytes)) = (&state.store, &result) {
        let _ = store.put(&key, bytes);
    }
    if result.is_ok() {
        state.metrics.runs_computed.fetch_add(1, Ordering::Relaxed);
    }
    state.metrics.record_run_latency(started.elapsed());
    result.map(|bytes| (bytes, RunSource::Computed))
}

/// Resolves and runs one spec, serializing the run to the exact bytes
/// `imc run` would produce.
fn execute_spec(
    state: &ServerState,
    spec: &ExperimentSpec,
) -> core::result::Result<Arc<String>, RequestError> {
    let classify = |e: &Error| match e {
        // The client's document was unresolvable or inconsistent.
        Error::Spec { .. } | Error::Builder { .. } => 400,
        _ => 500,
    };
    let experiment = spec
        .into_experiment(&state.registry)
        .map_err(|e| RequestError::new(classify(&e), format!("{e}")))?;
    let session = state.session_for(spec.precision);
    let run = if spec.frontier {
        experiment
            .frontier_in(&session)
            .map_err(|e| RequestError::new(classify(&e), format!("{e}")))?
            .run
    } else {
        experiment
            .run_in(&session)
            .map_err(|e| RequestError::new(classify(&e), format!("{e}")))?
    };
    let bytes = run
        .to_jsonl()
        .map_err(|e| RequestError::new(500, format!("{e}")))?;
    Ok(Arc::new(bytes))
}

// ---------------------------------------------------------------------------
// The client.
// ---------------------------------------------------------------------------

/// A minimal blocking HTTP client for the server's endpoints — the test,
/// bench and CLI (`imc call`) helper, dependency-free like the server.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
    timeout: Duration,
    retries: u32,
    retry_backoff: Duration,
}

impl ServeClient {
    /// A client for the server at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            timeout: Duration::from_secs(600),
            retries: 0,
            retry_backoff: Duration::from_millis(100),
        }
    }

    /// Overrides the per-request I/O timeout (default 600 s — sweeps are
    /// slow on cold caches).
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Opt-in retries of *transient* failures — refused/failed connections,
    /// send failures, connections dropped before any response byte — up to
    /// `retries` additional attempts with jittered exponential backoff.
    ///
    /// Default 0: fail fast. Two failure classes are never retried no
    /// matter the budget: anything after response-**body** bytes have
    /// arrived (the request may have executed; replaying it is not the
    /// client's call), and non-2xx responses (the server answered; asking
    /// again changes nothing).
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Base backoff between retry attempts (default 100 ms); attempt `n`
    /// waits `base * 2^(n-1)`, jittered to 50–100 % so synchronized
    /// clients spread out.
    #[must_use]
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// POSTs a spec document to `/v1/run`, returning the run JSON lines —
    /// byte-identical to `imc run` of the same spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] on connection failure or a non-2xx
    /// response (the message carries the server's error body).
    pub fn post_run(&self, spec_json: &str) -> Result<String> {
        self.request("POST", "/v1/run", Some(spec_json))
    }

    /// Fetches the `/v1/metrics` JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] on connection failure or a non-2xx response.
    pub fn metrics(&self) -> Result<String> {
        self.request("GET", "/v1/metrics", None)
    }

    /// Fetches `/v1/health` (readiness probe).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] on connection failure or a non-2xx response.
    pub fn health(&self) -> Result<String> {
        self.request("GET", "/v1/health", None)
    }

    /// Requests a graceful server shutdown (`POST /v1/shutdown`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] on connection failure or a non-2xx response.
    pub fn shutdown_server(&self) -> Result<String> {
        self.request("POST", "/v1/shutdown", None)
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<String> {
        let mut attempt = 0u32;
        loop {
            match self.request_once(method, path, body) {
                Ok(response) => return Ok(response),
                Err((error, retryable)) => {
                    if !retryable || attempt >= self.retries {
                        return Err(error);
                    }
                    attempt += 1;
                    std::thread::sleep(jittered_backoff(self.retry_backoff, attempt));
                }
            }
        }
    }

    /// One request attempt. The error carries whether a retry is safe:
    /// everything up to the arrival of the first response-body byte is
    /// (the request was provably not answered), nothing after it is.
    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> core::result::Result<String, (Error, bool)> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| {
            (
                serve_error(format!("could not connect to {}: {e}", self.addr)),
                true,
            )
        })?;
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        let _ = stream.set_nodelay(true);
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.addr,
            body.len(),
        );
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .and_then(|()| stream.flush())
            .map_err(|e| (serve_error(format!("could not send request: {e}")), true))?;
        let mut raw = Vec::new();
        if let Err(e) = stream.read_to_end(&mut raw) {
            let retryable = !response_body_started(&raw);
            return Err((
                serve_error(format!("could not read response: {e}")),
                retryable,
            ));
        }
        if raw.is_empty() {
            return Err((
                serve_error("connection closed before any response bytes arrived".to_owned()),
                true,
            ));
        }
        let (status, body) = parse_response(&raw).map_err(|e| {
            // A malformed response whose body never started is a dropped
            // connection in disguise; a torn body is not retry-safe.
            let retryable = !response_body_started(&raw);
            (e, retryable)
        })?;
        if !(200..300).contains(&status) {
            // Error bodies are `{"error": "..."}`; surface the message.
            let message = JsonValue::parse(body.trim())
                .ok()
                .and_then(|v| {
                    v.get("error")
                        .and_then(JsonValue::as_str)
                        .map(str::to_owned)
                })
                .unwrap_or_else(|| body.trim().to_owned());
            return Err((
                serve_error(format!("server returned HTTP {status}: {message}")),
                false,
            ));
        }
        Ok(body)
    }
}

/// Whether `raw` already contains response-body bytes (a complete header
/// terminator with anything after it). Once it does, the client must not
/// retry: the server may have executed the request.
fn response_body_started(raw: &[u8]) -> bool {
    match find_subslice(raw, b"\r\n\r\n") {
        Some(position) => raw.len() > position + 4,
        None => false,
    }
}

/// `base * 2^(attempt-1)`, jittered to 50–100 % from wall-clock
/// sub-second entropy — the one spot in the workspace where
/// nondeterminism is the point (spreading synchronized retries), safely
/// outside every reproducible result path.
fn jittered_backoff(base: Duration, attempt: u32) -> Duration {
    let scaled = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(10));
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let factor = 0.5 + 0.5 * f64::from(nanos % 1024) / 1024.0;
    scaled.mul_f64(factor)
}

/// Parses a complete HTTP/1.1 response (status line, headers, then either a
/// content-length or chunked body).
fn parse_response(raw: &[u8]) -> Result<(u16, String)> {
    let head_end = find_subslice(raw, b"\r\n\r\n")
        .ok_or_else(|| serve_error("malformed response: no header terminator".to_owned()))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| serve_error("response head is not UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| serve_error(format!("malformed status line '{status_line}'")))?;
    let mut chunked = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("transfer-encoding")
                && value.trim().to_ascii_lowercase().contains("chunked")
            {
                chunked = true;
            }
        }
    }
    let payload = &raw[head_end + 4..];
    let body = if chunked {
        decode_chunked(payload)?
    } else {
        payload.to_vec()
    };
    String::from_utf8(body)
        .map(|body| (status, body))
        .map_err(|_| serve_error("response body is not UTF-8".to_owned()))
}

/// Decodes a chunked transfer-encoded body, strictly: every chunk's data
/// must be terminated by `\r\n`, and the terminal `0` chunk must be
/// followed by the final CRLF (RFC 9112 §7.1). A decoder that shrugs at
/// either would silently accept truncated or corrupted framing and hand
/// back a body that is missing bytes.
fn decode_chunked(mut payload: &[u8]) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let line_end = find_subslice(payload, b"\r\n")
            .ok_or_else(|| serve_error("malformed chunked body: missing size line".to_owned()))?;
        let size_token = std::str::from_utf8(&payload[..line_end])
            .map_err(|_| serve_error("malformed chunk size".to_owned()))?
            .trim();
        // Chunk extensions (`;`-suffixed) are legal; we never send them.
        let size_token = size_token.split(';').next().unwrap_or_default();
        let size = usize::from_str_radix(size_token, 16)
            .map_err(|_| serve_error(format!("invalid chunk size '{size_token}'")))?;
        payload = &payload[line_end + 2..];
        if size == 0 {
            // The last-chunk line is itself terminated by one final CRLF
            // (trailer fields are not expected from this crate's peers).
            if !payload.starts_with(b"\r\n") {
                return Err(serve_error(
                    "malformed chunked body: missing final CRLF after last chunk".to_owned(),
                ));
            }
            return Ok(body);
        }
        if payload.len() < size + 2 {
            return Err(serve_error("truncated chunked body".to_owned()));
        }
        if &payload[size..size + 2] != b"\r\n" {
            return Err(serve_error(
                "malformed chunked body: chunk data not terminated by CRLF".to_owned(),
            ));
        }
        body.extend_from_slice(&payload[..size]);
        payload = &payload[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;
    use crate::spec::StrategySpec;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            seed: DEFAULT_SEED,
            precision: Precision::F64,
            parallelism: None,
            cache: true,
            cells: None,
            frontier: false,
            synthetic_networks: vec![],
            networks: vec!["resnet20".to_owned()],
            arrays: vec![crate::spec::ArrayAxis::square(32)],
            strategies: vec![StrategySpec::new("im2col")],
        }
    }

    fn start_server() -> (Server, ServeClient) {
        let server = Server::bind(ServeConfig::new().workers(4)).expect("server binds");
        let client = ServeClient::new(server.local_addr().to_string());
        (server, client)
    }

    #[test]
    fn run_endpoint_matches_the_in_process_run_bytes() {
        let (server, client) = start_server();
        let spec = tiny_spec();
        let golden = spec
            .into_experiment(&Registry::new())
            .unwrap()
            .run()
            .unwrap()
            .to_jsonl()
            .unwrap();
        let first = client.post_run(&spec.to_json()).unwrap();
        assert_eq!(first, golden, "server bytes must equal `imc run` bytes");
        // A second identical request is a response-cache hit with the same
        // bytes.
        let second = client.post_run(&spec.to_json()).unwrap();
        assert_eq!(second, golden);
        let metrics = server.metrics();
        assert_eq!(metrics.run_requests, 2);
        assert_eq!(metrics.runs_computed, 1);
        assert_eq!(metrics.response_cache_hits, 1);
        assert_eq!(metrics.runs_coalesced, 0);
        assert!(metrics.latency_count() >= 2);

        // Every cache kind of the session reports its coalesced hits next
        // to hits, misses and evictions.
        let metrics_json = client.metrics().unwrap();
        let parsed = JsonValue::parse(metrics_json.trim()).expect("metrics is valid JSON");
        let sessions = parsed.get("sessions").and_then(JsonValue::as_array);
        let kinds = sessions
            .and_then(|sessions| sessions.first())
            .and_then(|session| session.get("kinds"))
            .and_then(JsonValue::as_object)
            .expect("the run created a session");
        assert_eq!(kinds.len(), 6);
        for (kind, counters) in kinds {
            for field in ["hits", "misses", "coalesced", "evictions"] {
                assert!(
                    counters.get(field).and_then(JsonValue::as_u64).is_some(),
                    "{kind}.{field} missing from {metrics_json}"
                );
            }
        }
        client.shutdown_server().unwrap();
        server.wait();
    }

    #[test]
    fn health_metrics_and_errors_speak_http() {
        let (server, client) = start_server();
        assert_eq!(client.health().unwrap(), "{\"status\":\"ok\"}\n");

        // Malformed spec → 400 with the spec error in the message.
        let err = client.post_run("{definitely not json").unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("HTTP 400"), "{text}");

        // Unknown network → 400 listing registered names.
        let mut spec = tiny_spec();
        spec.networks = vec!["resnet18".to_owned()];
        let err = client.post_run(&spec.to_json()).unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("HTTP 400"), "{text}");
        assert!(text.contains("resnet20"), "{text}");

        // Unknown path → 404; wrong method → 405.
        let raw = ServeClient::new(server.local_addr().to_string());
        let err = raw.request("GET", "/nope", None).unwrap_err();
        assert!(format!("{err}").contains("HTTP 404"), "{err}");
        let err = raw.request("GET", "/v1/run", None).unwrap_err();
        assert!(format!("{err}").contains("HTTP 405"), "{err}");

        let metrics_json = client.metrics().unwrap();
        let parsed = JsonValue::parse(metrics_json.trim()).expect("metrics is valid JSON");
        assert_eq!(
            parsed.get("format").and_then(JsonValue::as_str),
            Some(METRICS_FORMAT)
        );
        let errors = parsed
            .get("requests")
            .and_then(|r| r.get("errors"))
            .and_then(JsonValue::as_u64)
            .unwrap();
        assert!(errors >= 4, "four failing requests were made: {errors}");
        client.shutdown_server().unwrap();
        server.wait();
    }

    #[test]
    fn connections_closed_before_the_first_byte_are_not_errors() {
        // One worker takes connections in accept order, so the bare
        // connections are handled before the malformed request is answered.
        let server = Server::bind(ServeConfig::new().workers(1)).expect("server binds");
        let addr = server.local_addr();
        for _ in 0..3 {
            drop(TcpStream::connect(addr).unwrap());
        }
        let mut malformed = TcpStream::connect(addr).unwrap();
        malformed.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut response = String::new();
        malformed.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        let metrics = server.metrics();
        assert_eq!(
            metrics.error_responses, 1,
            "only the malformed request is an error: {metrics:?}"
        );
        assert_eq!(metrics.requests_total, 0, "{metrics:?}");

        // A head torn mid-way did send bytes: it stays a counted 400.
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(b"GET /v1/hea").unwrap();
        torn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        torn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert_eq!(server.metrics().error_responses, 2);
    }

    #[test]
    fn specs_differing_only_in_manifest_knobs_do_not_share_bytes() {
        let (server, client) = start_server();
        let unpinned = tiny_spec();
        let mut pinned = tiny_spec();
        pinned.parallelism = Some(1);
        let a = client.post_run(&unpinned.to_json()).unwrap();
        let b = client.post_run(&pinned.to_json()).unwrap();
        assert_ne!(a, b, "manifest parallelism differs, so headers differ");
        assert!(b.contains("\"parallelism\":1"), "{b}");
        assert_eq!(server.metrics().runs_computed, 2);

        // Same spec with a cell restriction is a third key.
        let mut sliced = tiny_spec();
        sliced.cells = Some(0..1);
        let c = client.post_run(&sliced.to_json()).unwrap();
        assert!(c.contains("\"cells\":{\"start\":0,\"end\":1}"), "{c}");
        assert_eq!(server.metrics().runs_computed, 3);
        client.shutdown_server().unwrap();
        server.wait();
    }

    /// A strategy that exercises the decomposition cache (im2col alone
    /// never queries it).
    fn lowrank_strategy() -> StrategySpec {
        StrategySpec::new("lowrank")
            .with_usize("groups", 4)
            .with(
                "rank",
                JsonValue::Object(vec![(
                    "divisor".to_owned(),
                    JsonValue::Number("8".to_owned()),
                )]),
            )
            .with_bool("sdk", true)
    }

    #[test]
    fn sessions_are_shared_across_requests_of_one_precision() {
        let (server, client) = start_server();
        let mut spec = tiny_spec();
        spec.strategies = vec![lowrank_strategy()];
        client.post_run(&spec.to_json()).unwrap();
        // A different grid (different hash) over the same network and seed
        // reuses the same session's decompositions.
        let mut wider = tiny_spec();
        wider.strategies = vec![lowrank_strategy()];
        wider.arrays = vec![
            crate::spec::ArrayAxis::square(32),
            crate::spec::ArrayAxis::square(64),
        ];
        client.post_run(&wider.to_json()).unwrap();
        let metrics = server.metrics();
        assert_eq!(metrics.runs_computed, 2);
        let (precision, stats) = &metrics.sessions[0];
        assert_eq!(precision, "f64");
        assert!(
            stats.hits() > 0,
            "second sweep must hit the shared session cache: {stats:?}"
        );
        client.shutdown_server().unwrap();
        server.wait();
    }

    #[test]
    fn graceful_shutdown_stops_accepting() {
        let (server, client) = start_server();
        client.shutdown_server().unwrap();
        server.wait();
        // The listener is gone: connecting now fails (or is refused on
        // read); either way no response arrives.
        assert!(client.health().is_err());
    }

    #[test]
    fn response_cache_evicts_by_lru_budget() {
        let mut cache = ResponseCache::new(10);
        let key = |n: u64| RunKey {
            spec_hash: n,
            precision: Precision::F64,
            cells: None,
            parallelism: None,
            frontier: false,
        };
        let bytes = |s: &str| Arc::new(s.to_owned());
        cache.insert(key(1), bytes("aaaa"));
        cache.insert(key(2), bytes("bbbb"));
        assert!(cache.get(&key(1)).is_some());
        // 4 + 4 + 4 > 10: inserting c evicts the LRU entry (key 2).
        cache.insert(key(3), bytes("cccc"));
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        // An entry larger than the whole budget never stays.
        cache.insert(key(4), bytes("xxxxxxxxxxxxxxxx"));
        assert!(cache.get(&key(4)).is_none());
        // Budget 0 disables retention.
        let mut disabled = ResponseCache::new(0);
        disabled.insert(key(1), bytes("aaaa"));
        assert!(disabled.get(&key(1)).is_none());
    }

    #[test]
    fn latency_quantiles_come_from_bucket_bounds() {
        let mut metrics = ServeMetrics {
            requests_total: 0,
            run_requests: 0,
            metrics_requests: 0,
            health_requests: 0,
            shutdown_requests: 0,
            error_responses: 0,
            panicked_requests: 0,
            runs_computed: 0,
            runs_coalesced: 0,
            response_cache_hits: 0,
            store_hits: 0,
            store_misses: 0,
            store_evictions: 0,
            latency_buckets: vec![0; LATENCY_BUCKETS_US.len() + 1],
            sessions: Vec::new(),
        };
        assert_eq!(metrics.latency_quantile_ms(0.5), None);
        // 90 fast (≤0.25 ms), 9 medium (≤100 ms), 1 overflow (>60 s).
        metrics.latency_buckets[0] = 90;
        metrics.latency_buckets[8] = 9;
        metrics.latency_buckets[LATENCY_BUCKETS_US.len()] = 1;
        assert_eq!(metrics.latency_quantile_ms(0.50), Some(0.25));
        assert_eq!(metrics.latency_quantile_ms(0.90), Some(0.25));
        assert_eq!(metrics.latency_quantile_ms(0.99), Some(100.0));
        // The overflow bucket has no upper boundary: a quantile landing in
        // it surfaces saturation instead of masquerading as "60 s exactly".
        assert_eq!(metrics.latency_quantile_ms(1.0), Some(f64::INFINITY));
        let json = metrics.to_json();
        assert!(json.contains("\"p50\":0.25"), "{json}");
        assert!(json.contains("\"count\":100"), "{json}");
        assert!(JsonValue::parse(&json).is_ok(), "metrics JSON parses");
    }

    #[test]
    fn a_saturated_quantile_is_an_explicit_marker_in_the_document() {
        let mut metrics = ServeMetrics {
            requests_total: 0,
            run_requests: 0,
            metrics_requests: 0,
            health_requests: 0,
            shutdown_requests: 0,
            error_responses: 0,
            panicked_requests: 0,
            runs_computed: 0,
            runs_coalesced: 0,
            response_cache_hits: 0,
            store_hits: 0,
            store_misses: 0,
            store_evictions: 0,
            latency_buckets: vec![0; LATENCY_BUCKETS_US.len() + 1],
            sessions: Vec::new(),
        };
        // Every observation beyond 60 s: all percentiles are saturated.
        metrics.latency_buckets[LATENCY_BUCKETS_US.len()] = 3;
        assert_eq!(metrics.latency_quantile_ms(0.5), Some(f64::INFINITY));
        let json = metrics.to_json();
        assert!(json.contains("\"p50\":\"saturated\""), "{json}");
        assert!(json.contains("\"p99\":\"saturated\""), "{json}");
        assert!(
            JsonValue::parse(&json).is_ok(),
            "the marker keeps the document valid JSON: {json}"
        );
    }

    #[test]
    fn run_key_tracks_byte_relevant_members_only() {
        let spec = tiny_spec();
        let base = RunKey::of(&spec);
        let mut cache_off = tiny_spec();
        cache_off.cache = false;
        assert_eq!(
            RunKey::of(&cache_off),
            base,
            "cache knob never alters bytes"
        );
        let mut pinned = tiny_spec();
        pinned.parallelism = Some(2);
        assert_ne!(RunKey::of(&pinned), base, "manifest records parallelism");
        let mut sliced = tiny_spec();
        sliced.cells = Some(0..1);
        assert_ne!(RunKey::of(&sliced), base);
        let mut reseeded = tiny_spec();
        reseeded.seed = 7;
        assert_ne!(RunKey::of(&reseeded), base, "seed changes the hash");
        let mut frontier = tiny_spec();
        frontier.frontier = true;
        assert_eq!(
            frontier.content_hash(),
            tiny_spec().content_hash(),
            "frontier is a traversal mode, not experiment identity"
        );
        assert_ne!(
            RunKey::of(&frontier),
            base,
            "but a frontier response is a different record set"
        );
    }

    #[test]
    fn a_panicking_request_is_a_500_and_the_pool_keeps_serving() {
        // One worker, so a panic that killed its thread would leave nobody
        // to answer the follow-up requests.
        let mut registry = Registry::new();
        registry.strategy("boom", |_| panic!("strategy exploded"));
        let server =
            Server::bind(ServeConfig::new().registry(registry).workers(1)).expect("server binds");
        let client = ServeClient::new(server.local_addr().to_string());
        let mut spec = tiny_spec();
        spec.strategies = vec![StrategySpec::new("boom")];
        let err = client.post_run(&spec.to_json()).unwrap_err();
        let message = format!("{err}");
        assert!(message.contains("HTTP 500"), "{message}");
        assert!(message.contains("panic"), "{message}");
        assert!(message.contains("strategy exploded"), "{message}");
        // The poisoned request did not shrink the pool: the same (only)
        // worker still serves, and the panic shows up in the metrics.
        assert!(client.health().unwrap().contains("ok"));
        let raw = client.metrics().unwrap();
        assert!(raw.contains("\"panics\":1"), "{raw}");
        let metrics = server.metrics();
        assert_eq!(metrics.panicked_requests, 1);
        assert!(metrics.error_responses >= 1);
    }

    #[test]
    fn client_retries_heal_transient_connection_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flaky = std::thread::spawn(move || {
            // Drop two connections before any response byte, then answer.
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                drop(stream);
            }
            let (mut stream, _) = listener.accept().unwrap();
            let mut scratch = [0u8; 4096];
            let _ = stream.read(&mut scratch);
            let body = "{\"status\":\"ok\"}\n";
            let response = format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(response.as_bytes()).unwrap();
        });
        let client = ServeClient::new(addr.to_string())
            .retries(3)
            .retry_backoff(Duration::from_millis(5));
        let body = client.health().expect("third attempt succeeds");
        assert!(body.contains("ok"), "{body}");
        flaky.join().unwrap();

        // Default (0 retries) fails fast on a dead port — the listener
        // above is gone, nobody answers.
        let fail_fast = ServeClient::new(addr.to_string());
        assert!(fail_fast.health().is_err());
    }

    #[test]
    fn retry_safety_hinges_on_body_bytes() {
        assert!(!response_body_started(b""));
        assert!(!response_body_started(b"HTTP/1.1 200 OK\r\n"));
        // A complete head with no body byte yet: still retry-safe.
        assert!(!response_body_started(b"HTTP/1.1 200 OK\r\n\r\n"));
        // The first body byte ends retry eligibility.
        assert!(response_body_started(b"HTTP/1.1 200 OK\r\n\r\nx"));
        // Non-2xx responses are never retried, independent of the budget.
        let (server, client) = start_server();
        let client = client.retries(5).retry_backoff(Duration::from_millis(1));
        let err = client.post_run("not json").unwrap_err();
        assert!(format!("{err}").contains("HTTP 400"), "{err}");
        let metrics = server.metrics();
        assert_eq!(
            metrics.run_requests, 1,
            "a 400 must be delivered once, not retried into {}",
            metrics.run_requests
        );
    }

    #[test]
    fn chunked_bodies_decode_exactly() {
        let encoded = b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(encoded).unwrap(), b"Wikipedia");
        assert!(decode_chunked(b"zz\r\nxx\r\n").is_err());
        assert!(decode_chunked(b"5\r\nab").is_err());
        // A chunk extension on the size line is legal framing.
        let extended = b"4;name=value\r\nWiki\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(extended).unwrap(), b"Wiki");
    }

    #[test]
    fn chunked_decoding_rejects_corrupted_framing() {
        // Chunk data must end in CRLF exactly where the size line said it
        // would; junk there means the framing (and thus the body) is
        // corrupt, not that the next chunk starts two bytes later.
        let bad_terminator = b"4\r\nWikiXX5\r\npedia\r\n0\r\n\r\n";
        let err = decode_chunked(bad_terminator).unwrap_err();
        assert!(err.to_string().contains("not terminated by CRLF"), "{err}");

        // The terminal `0` chunk must be followed by the final CRLF — its
        // absence means the sender (or the transport) cut the tail off.
        let missing_final = b"4\r\nWiki\r\n0\r\n";
        let err = decode_chunked(missing_final).unwrap_err();
        assert!(err.to_string().contains("missing final CRLF"), "{err}");
    }
}
