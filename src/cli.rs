//! The `imc` command-line driver: experiments as wire-format requests.
//!
//! Every subcommand moves one of the harness's two wire formats around:
//!
//! | Subcommand | Input → output |
//! |---|---|
//! | `imc spec`   | sweep name → canonical `imc.experiment-spec` JSON |
//! | `imc run`    | spec JSON → `imc.experiment-run` JSON lines |
//! | `imc shard`  | spec JSON + `--cells A..B` → one shard's JSON lines |
//! | `imc merge`  | shard JSON-lines files → the merged canonical run |
//! | `imc report` | run JSON lines → the table1/fig6 text reports |
//! | `imc serve`  | spec JSON over HTTP → run JSON lines over HTTP |
//! | `imc call`   | client for a running `imc serve` (run/metrics/health/shutdown) |
//! | `imc sweep`  | spec JSON → run JSON lines in a file, resumable after a crash |
//! | `imc store`  | persistent result store maintenance (ls, verify, gc, rm) |
//!
//! The binary (`src/bin/imc.rs`) is a thin wrapper over
//! [`main_from_args`]; [`run_command`] is the same entry point with
//! library-style error handling, for driving the CLI in-process. Every file
//! argument accepts `-` for stdin, and
//! `--out` writes to a file instead of stdout, so the commands compose both
//! ways: `imc spec fig6 | imc run - | imc report fig6 -`.
//!
//! Name resolution uses the default [`Registry`] (the built-in networks and
//! strategies); services embedding custom strategies drive
//! [`ExperimentSpec`] against their own registry through the library API
//! instead.

use std::io::Read;
use std::time::Duration;

use imc_sim::experiments::{
    fig6_experiment, fig6_panel_from_run, fig7_experiment, fig8_experiment, fig9_experiment,
    table1_experiment, table1_rows_from_run, DEFAULT_SEED,
};
use imc_sim::record::RunWriter;
use imc_sim::report::{fig6_markdown, table1_csv, table1_markdown};
use imc_sim::{
    ExperimentRun, ExperimentSpec, Registry, RunKey, RunStore, ServeClient, ServeConfig, Server,
};

use crate::{Error, Result};

const ROOT_HELP: &str = "\
imc — declarative experiment driver for the IMC low-rank reproduction

USAGE:
    imc <COMMAND> [ARGS]

COMMANDS:
    spec      Emit the canonical spec of a paper sweep (table1, fig6-9),
              or list the registered names (`imc spec list`)
    run       Run an experiment spec, writing run JSON lines
    shard     Run one cell-range shard of an experiment spec
    merge     Merge shard run files into one canonical run
    report    Render a run file as a text report (table1, fig6)
    serve     Run the long-lived evaluation server (spec in, run out)
    call      Talk to a running server (run, metrics, health, shutdown)
    sweep     Run a spec to a file, resuming a killed run where it stopped
    store     Inspect and maintain a persistent result store (ls, verify,
              gc, rm); `--store DIR` on run/serve/call/sweep fills it
    help      Show this help, or `imc help <COMMAND>` for one command

Specs are versioned `imc.experiment-spec` JSON documents; runs are versioned
`imc.experiment-run` JSON lines with bit-exact floats and a reproducibility
manifest in the header. File arguments accept `-` for stdin, and every
producing command takes `--out FILE` instead of stdout, so commands compose:

    imc spec fig6 | imc run - | imc report fig6 -

EXIT CODES (so supervisors can tell what is worth retrying):
    0   success
    1   other failure
    2   spec/usage error — the request is invalid; retrying cannot help
    3   run-record format error — the data is malformed; retrying cannot help
    4   I/O or service failure — transient; safe to retry
    —   death by signal (kill -9, fault injection) reaches the supervisor as
        no exit code at all; `imc sweep --resume` finishes such a run
";

const SPEC_HELP: &str = "\
imc spec — emit the canonical experiment spec of a paper sweep

USAGE:
    imc spec <table1|fig6|fig7|fig8|fig9|list> [OPTIONS]

OPTIONS:
    --network <NAME>   Network (default: resnet20). table1/fig6/fig7/fig9.
    --array <N>        Array size (default: 64). fig6/fig9 only.
    --seed <N>         Experiment seed (default: 2025).
    --out <FILE>       Write the spec to FILE instead of stdout.
    --help             Show this help.

The emitted document is exactly what the library generators run: `imc spec
fig6 | imc run -` is byte-identical to the in-process fig6 sweep. fig8 emits
the quantization sweep of the figure (the full figure additionally uses the
fig6 grids of the same array sizes).

`imc spec list` prints the names a spec document can address — registered
networks, name families (prefixes resolved parameterically, like
`synthetic:deep-thin-d32-w16`), and strategies — one per line with a short
description. It takes only `--out`.
";

const RUN_HELP: &str = "\
imc run — run an experiment spec, writing run JSON lines

USAGE:
    imc run <SPEC|-> [OPTIONS]

OPTIONS:
    --cells <A..B>        Restrict the run to grid cells A..B (the sharding
                          primitive; cell indices stay global, so shard
                          outputs feed `imc merge`).
    --parallelism <N>     Local worker-count override. Results never depend
                          on it and it is not recorded in the manifest, so
                          the output is byte-identical for every N.
    --out <FILE>          Write the run to FILE instead of stdout.
    --store <DIR>         Persistent result store: serve the run from DIR
                          when its key is present (skipping compute), and
                          write a freshly computed run through to DIR. The
                          served bytes are identical to fresh compute.
    --help                Show this help.

Networks and strategies are resolved by name against the built-in registry
(networks: resnet20, wrn16-4; strategies: im2col, sdk, lowrank, patdnn,
pairs, dorefa). Unknown names fail with a spec error listing what is
registered.

With `--out`, records stream to the file as cells finish (header first, one
flushed line per record), so a run killed mid-sweep leaves a complete prefix
of records that `imc sweep --resume` keeps. The bytes are identical to the
buffered stdout form. Setting IMC_FAULT_EXIT_AFTER_CELLS=k makes the process
write k records plus one torn line and abort — the deterministic stand-in
for `kill -9` used by the crash-resume tests.

A spec with \"frontier\": true runs the whole grid and reports only the
cells on each method series' accuracy/cycles Pareto front (the manifest
records \"frontier\": true); each record is identical to its line in the
exhaustive run. Frontier runs reject '--cells' and `imc shard`/`imc sweep`
— the fronts are taken over the whole grid — and are always written
buffered.
";

const SWEEP_HELP: &str = "\
imc sweep — run a spec to a file, resuming a killed run where it stopped

USAGE:
    imc sweep <SPEC|-> --out <FILE> [OPTIONS]

OPTIONS:
    --out <FILE>          Destination of the run (required), written exactly
                          like `imc run --out`.
    --resume              Keep the complete records an earlier, killed sweep
                          of this spec left in FILE and run only the cells
                          after them. A missing FILE starts fresh; a FILE
                          holding another run is refused (exit code 2) and
                          left untouched.
    --store <DIR>         Persistent result store: a stored run of this spec
                          is written to FILE without computing, and a
                          completed sweep is written through to DIR.
    --parallelism <N>     Local worker-count override (never affects the
                          bytes).
    --help                Show this help.

The sweep runs in this process and streams the header, then one flushed line
per record in grid order. So a sweep killed at any moment (kill -9 included)
leaves the header, a complete prefix of records and at most one torn line.
`--resume` checks that FILE's header is, byte for byte, the one this spec
writes, keeps the records, cuts the torn line and appends the rest: crash
plus resume gives the bytes of an uninterrupted `imc run`. Frontier specs
are refused, since their records are known only once the whole grid has run.
";

const SHARD_HELP: &str = "\
imc shard — run one cell-range shard of an experiment spec

USAGE:
    imc shard <SPEC|-> --cells <A..B> [OPTIONS]

OPTIONS:
    --cells <A..B>        The shard's grid-cell range (required).
    --parallelism <N>     Local worker-count override (not recorded).
    --out <FILE>          Write the shard run to FILE instead of stdout.
    --help                Show this help.

Equivalent to `imc run --cells A..B`: records keep their global cell
indices, and `imc merge` reassembles all shards into a run byte-identical
to the unsharded `imc run` of the same spec.
";

const MERGE_HELP: &str = "\
imc merge — merge shard run files into one canonical run

USAGE:
    imc merge <SHARD>... [OPTIONS]

OPTIONS:
    --out <FILE>   Write the merged run to FILE instead of stdout.
    --help         Show this help.

Shards may be listed in any order; records are reassembled by global cell
index. Overlapping shards, and shards whose manifests disagree (different
seed, precision or spec hash), are rejected. Merging every shard of a grid
reproduces the unsharded run byte for byte, manifest included.
";

const REPORT_HELP: &str = "\
imc report — render a run file as a text report

USAGE:
    imc report <table1|fig6> <RUN|-> [OPTIONS]

OPTIONS:
    --csv          Emit CSV instead of Markdown (table1 only).
    --out <FILE>   Write the report to FILE instead of stdout.
    --help         Show this help.

The run must have the matching sweep's shape (generate it with `imc spec
table1` / `imc spec fig6` piped into `imc run`). table1 renders the
group × rank grid with the cycle columns of the paper's Table I; fig6
renders the Pareto panel.
";

const SERVE_HELP: &str = "\
imc serve — run the long-lived evaluation server

USAGE:
    imc serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>        Bind address (default: 127.0.0.1:8077; port 0
                              picks an ephemeral port, printed on startup).
    --threads <N>             Connection-handler threads (default: 4). Each
                              run additionally parallelizes over the worker
                              pool, like `imc run`.
    --cache-budget-mb <N>     Bound each precision's shared decomposition
                              cache to N MiB (default: unbounded).
    --response-cache-mb <N>   Bound the completed-response cache to N MiB
                              (default: 64; 0 disables response reuse —
                              concurrent identical requests still coalesce).
    --store <DIR>             Persistent response tier behind the memory
                              cache: completed runs are written through to
                              DIR and survive restarts — a fresh server on
                              the same DIR serves them from disk
                              (`x-imc-source: store`) instead of
                              recomputing. Safe to share between servers.
    --help                    Show this help.

ENDPOINTS:
    POST /v1/run        Body: an `imc.experiment-spec` document. Response:
                        chunked `imc.experiment-run` JSON lines,
                        byte-identical to `imc run` of the same spec.
    GET  /v1/metrics    Request counts, coalescing counters, per-precision
                        session cache stats, p50/p90/p99 run latency.
    GET  /v1/health     Readiness probe.
    POST /v1/shutdown   Graceful shutdown: stop accepting, finish in-flight
                        requests, then exit 0.

Identical concurrent requests coalesce onto one computation; identical later
requests are served from the bounded response cache, then from the
persistent store when one is configured. All are visible in the metrics
(`store_hits`/`store_misses`/`store_evictions` with `--store`) and in the
`x-imc-source` response header (computed/coalesced/cache/store), never in
the run bytes. The process runs until `POST /v1/shutdown` (`imc call
shutdown`).
";

const CALL_HELP: &str = "\
imc call — talk to a running `imc serve`

USAGE:
    imc call run <SPEC|-> [OPTIONS]
    imc call <metrics|health|shutdown> [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>         Server address (default: 127.0.0.1:8077).
    --retries <N>              Retry transient connect/send failures up to N
                               times with jittered exponential backoff
                               (default: 0). Never retries once response
                               body bytes have arrived, and never retries
                               a non-2xx response.
    --retry-backoff-ms <N>     Base backoff between retries (default: 100).
    --out <FILE>               Write the response to FILE instead of stdout.
    --store <DIR>              Offline fallback for `imc call run`: when the
                               server stays unreachable after the retry
                               budget, serve the request from the local
                               store at DIR if its key is present (the
                               bytes are identical to a server response).
    --help                     Show this help.

`imc call run` POSTs the spec document to /v1/run and writes the returned
run JSON lines — byte-identical to running the spec locally with `imc run`,
but executed on the server's warm shared caches. The other forms fetch
/v1/metrics, /v1/health, or request a graceful shutdown.
";

const STORE_HELP: &str = "\
imc store — inspect and maintain a persistent result store

USAGE:
    imc store ls <DIR> [--out FILE]
    imc store verify <DIR> [--repair]
    imc store gc <DIR> --max-mb <N>
    imc store rm <DIR> <SPEC|->

ACTIONS:
    ls        List every entry (file name, bytes, last-access tick) plus
              totals. Entry file names encode the full run key: spec
              content hash, precision, cell range, parallelism, grid vs
              frontier, record-format version.
    verify    Strictly re-parse every entry and cross-check its embedded
              manifest against the key its file name encodes. Damaged
              entries are reported with real 1-based line numbers; without
              --repair they make the command fail with exit code 3 (record
              format). With --repair each damaged entry is quarantined —
              renamed to <entry>.corrupt, never deleted — and the command
              exits 0.
    gc        Evict least-recently-used entries until at most N MiB remain.
    rm        Remove the entry of one spec's key (reads the spec document).

A store directory is filled by `imc run --store`, `imc serve --store`,
`imc sweep --store` and read by all of them plus `imc call run --store`
(offline fallback). Entries are written atomically (tmp + fsync + rename),
so several processes can share one directory; the store-index.json journal
is advisory and is rebuilt from the entry files when lost. On the normal
run/serve paths a damaged entry is quarantined and recomputed — only
`imc store verify` turns corruption into a failing exit code.
";

fn usage_error(what: impl Into<String>) -> Error {
    Error::Sim(imc_sim::Error::Spec { what: what.into() })
}

fn io_error(what: impl Into<String>) -> Error {
    Error::Sim(imc_sim::Error::Io { what: what.into() })
}

/// Entry point of the `imc` binary: parses `args` (without the program
/// name), executes the subcommand, and maps errors to a classified exit
/// code (see [`Error::exit_code`]: `0` success, `2` spec/usage, `3` record
/// format, `4` transient I/O or service failure, `1` anything else) after
/// printing them to stderr.
pub fn main_from_args(args: impl IntoIterator<Item = String>) -> i32 {
    let args: Vec<String> = args.into_iter().collect();
    match run_command(&args) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("imc: {error}");
            eprintln!("run `imc help` for usage");
            error.exit_code()
        }
    }
}

/// Executes one CLI invocation (`args` excludes the program name), writing
/// any produced document to stdout or the `--out` file. The library-style
/// twin of [`main_from_args`], used to drive the CLI in-process.
///
/// # Errors
///
/// Usage mistakes and name-resolution failures surface as
/// [`imc_sim::Error::Spec`] (wrapped in [`Error::Sim`]); everything else
/// propagates the underlying library error.
pub fn run_command(args: &[String]) -> Result<()> {
    let Some(command) = args.first() else {
        return print_stdout(ROOT_HELP);
    };
    let rest = &args[1..];
    match command.as_str() {
        "spec" => cmd_spec(rest),
        "run" => cmd_run(rest, RunMode::Run),
        "shard" => cmd_run(rest, RunMode::Shard),
        "merge" => cmd_merge(rest),
        "report" => cmd_report(rest),
        "serve" => cmd_serve(rest),
        "call" => cmd_call(rest),
        "sweep" => cmd_run(rest, RunMode::Sweep),
        "store" => cmd_store(rest),
        "help" | "--help" | "-h" => {
            let text = match rest.first().map(String::as_str) {
                None => ROOT_HELP,
                Some("spec") => SPEC_HELP,
                Some("run") => RUN_HELP,
                Some("shard") => SHARD_HELP,
                Some("merge") => MERGE_HELP,
                Some("report") => REPORT_HELP,
                Some("serve") => SERVE_HELP,
                Some("call") => CALL_HELP,
                Some("sweep") => SWEEP_HELP,
                Some("store") => STORE_HELP,
                Some(other) => return Err(usage_error(format!("unknown command '{other}'"))),
            };
            print_stdout(text)
        }
        other => Err(usage_error(format!(
            "unknown command '{other}' (run `imc help`)"
        ))),
    }
}

/// One parsed invocation: positional arguments and recognized `--flag
/// value` / `--flag` options.
struct Parsed {
    positional: Vec<String>,
    network: Option<String>,
    array: Option<usize>,
    seed: Option<u64>,
    cells: Option<std::ops::Range<usize>>,
    parallelism: Option<usize>,
    out: Option<String>,
    addr: Option<String>,
    threads: Option<usize>,
    cache_budget_mb: Option<usize>,
    response_cache_mb: Option<usize>,
    retry_backoff_ms: Option<usize>,
    retries: Option<usize>,
    store: Option<String>,
    max_mb: Option<usize>,
    resume: bool,
    repair: bool,
    csv: bool,
    help: bool,
}

fn parse_args(args: &[String], allowed: &[&str]) -> Result<Parsed> {
    let mut parsed = Parsed {
        positional: Vec::new(),
        network: None,
        array: None,
        seed: None,
        cells: None,
        parallelism: None,
        out: None,
        addr: None,
        threads: None,
        cache_budget_mb: None,
        response_cache_mb: None,
        retry_backoff_ms: None,
        retries: None,
        store: None,
        max_mb: None,
        resume: false,
        repair: false,
        csv: false,
        help: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        if flag == "--help" || flag == "-h" {
            parsed.help = true;
            continue;
        }
        if let Some(name) = flag.strip_prefix("--") {
            if !allowed.contains(&name) {
                return Err(usage_error(format!(
                    "unknown option '--{name}' (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            if name == "csv" {
                parsed.csv = true;
                continue;
            }
            if name == "resume" {
                parsed.resume = true;
                continue;
            }
            if name == "repair" {
                parsed.repair = true;
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| usage_error(format!("option '--{name}' needs a value")))?;
            match name {
                "network" => parsed.network = Some(value.clone()),
                "array" => parsed.array = Some(parse_usize(value, "--array")?),
                "seed" => {
                    parsed.seed = Some(value.parse().map_err(|_| {
                        usage_error(format!("'--seed {value}' is not a non-negative integer"))
                    })?);
                }
                "cells" => parsed.cells = Some(parse_cell_range(value)?),
                "parallelism" => parsed.parallelism = Some(parse_usize(value, "--parallelism")?),
                "out" => parsed.out = Some(value.clone()),
                "addr" => parsed.addr = Some(value.clone()),
                "threads" => parsed.threads = Some(parse_usize(value, "--threads")?),
                "cache-budget-mb" => {
                    parsed.cache_budget_mb = Some(parse_usize(value, "--cache-budget-mb")?)
                }
                "response-cache-mb" => {
                    parsed.response_cache_mb = Some(parse_usize(value, "--response-cache-mb")?)
                }
                "retry-backoff-ms" => {
                    parsed.retry_backoff_ms = Some(parse_usize(value, "--retry-backoff-ms")?)
                }
                "retries" => parsed.retries = Some(parse_usize(value, "--retries")?),
                "store" => parsed.store = Some(value.clone()),
                "max-mb" => parsed.max_mb = Some(parse_usize(value, "--max-mb")?),
                _ => unreachable!("allowed list covers every match arm"),
            }
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

fn parse_usize(value: &str, flag: &str) -> Result<usize> {
    value
        .parse()
        .map_err(|_| usage_error(format!("'{flag} {value}' is not a non-negative integer")))
}

fn parse_cell_range(value: &str) -> Result<std::ops::Range<usize>> {
    let (start, end) = value
        .split_once("..")
        .ok_or_else(|| usage_error(format!("'--cells {value}' is not of the form A..B")))?;
    let range = parse_usize(start, "--cells")?..parse_usize(end, "--cells")?;
    // An inverted or empty range would sail through here only to fail (or
    // silently select nothing) deep in the run — reject it at parse time,
    // where the message can still name what the user typed.
    if range.start >= range.end {
        return Err(usage_error(format!(
            "'--cells {value}' selects no cells (A must be below B)"
        )));
    }
    Ok(range)
}

/// Reads a document argument: a path, or `-` for stdin. A missing file is
/// a usage error (exit code 2: retrying cannot conjure it up); any other
/// read failure is transient I/O (exit code 4).
fn read_input(source: &str) -> Result<String> {
    if source == "-" {
        let mut input = String::new();
        std::io::stdin()
            .read_to_string(&mut input)
            .map_err(|e| io_error(format!("could not read stdin: {e}")))?;
        Ok(input)
    } else {
        std::fs::read_to_string(source).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                usage_error(format!("could not read {source}: {e}"))
            } else {
                io_error(format!("could not read {source}: {e}"))
            }
        })
    }
}

/// Writes `content` to stdout. A closed pipe (`imc run … | head`) is a
/// normal way for a downstream consumer to stop reading — treated as
/// success, not a panic or an error.
fn print_stdout(content: &str) -> Result<()> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(content.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(io_error(format!("could not write stdout: {e}"))),
    }
}

/// Writes a produced document to `--out` or stdout.
fn write_output(out: Option<&str>, content: &str) -> Result<()> {
    match out {
        Some(path) => std::fs::write(path, content)
            .map_err(|e| io_error(format!("could not write {path}: {e}"))),
        None => print_stdout(content),
    }
}

fn cmd_spec(args: &[String]) -> Result<()> {
    let parsed = parse_args(args, &["network", "array", "seed", "out"])?;
    if parsed.help {
        return print_stdout(SPEC_HELP);
    }
    let [sweep] = parsed.positional.as_slice() else {
        return Err(usage_error(
            "expected exactly one sweep name (table1, fig6, fig7, fig8, fig9 or list)",
        ));
    };
    if sweep == "list" {
        if parsed.network.is_some() || parsed.array.is_some() || parsed.seed.is_some() {
            return Err(usage_error(
                "'list' prints the registered names and takes no sweep options",
            ));
        }
        return write_output(parsed.out.as_deref(), &spec_list(&Registry::new()));
    }
    // Which options each sweep actually consumes; accepting (and dropping)
    // an unused `--network`/`--array` would silently emit a different sweep
    // than the one asked for.
    let (uses_network, uses_array) = match sweep.as_str() {
        "fig6" | "fig9" => (true, true),
        "table1" | "fig7" => (true, false),
        "fig8" => (false, false),
        other => {
            return Err(usage_error(format!(
                "unknown sweep '{other}' (known: table1, fig6, fig7, fig8, fig9, list)"
            )))
        }
    };
    if !uses_network && parsed.network.is_some() {
        return Err(usage_error(format!(
            "'{sweep}' is a fixed-network sweep and takes no '--network'"
        )));
    }
    if !uses_array && parsed.array.is_some() {
        return Err(usage_error(format!(
            "'{sweep}' sweeps fixed array sizes and takes no '--array'"
        )));
    }
    let registry = Registry::new();
    let network = parsed.network.as_deref().unwrap_or("resnet20");
    let arch = registry.build_network(network)?;
    let array = parsed.array.unwrap_or(64);
    let seed = parsed.seed.unwrap_or(DEFAULT_SEED);
    let experiment = match sweep.as_str() {
        "table1" => table1_experiment(&arch, seed),
        "fig6" => fig6_experiment(&arch, array, seed),
        "fig7" => fig7_experiment(&arch, seed),
        "fig9" => fig9_experiment(&arch, array, seed),
        _ => fig8_experiment(seed),
    };
    write_output(parsed.out.as_deref(), &experiment.to_spec()?.to_json())
}

/// The `imc spec list` listing: every name a spec document can address,
/// grouped by namespace, one `name  description` line each. The registry
/// iterates sorted maps, so the output is deterministic.
fn spec_list(registry: &Registry) -> String {
    let mut out = String::new();
    let mut section = |title: &str, entries: &mut dyn Iterator<Item = (&str, &str)>| {
        out.push_str(title);
        out.push('\n');
        for (name, description) in entries {
            let line = format!("    {name:<28}{description}");
            out.push_str(line.trim_end());
            out.push('\n');
        }
    };
    section("NETWORKS", &mut registry.network_entries());
    section(
        "\nNAME FAMILIES (prefix-resolved, parameterized)",
        &mut registry.family_entries(),
    );
    section("\nSTRATEGIES", &mut registry.strategy_entries());
    out
}

/// The three commands that run a spec. They share one path and differ in
/// the options they take and in what they refuse.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunMode {
    /// `imc run`: the grid or a `--cells` range, to stdout or `--out`.
    Run,
    /// `imc shard`: one `--cells` range. It stays store-blind: the store
    /// holds the merged run, not per-shard slices.
    Shard,
    /// `imc sweep`: the grid to `--out`, resumable with `--resume`.
    Sweep,
}

fn cmd_run(args: &[String], mode: RunMode) -> Result<()> {
    let (command, allowed, help): (&str, &[&str], &str) = match mode {
        RunMode::Run => (
            "imc run",
            &["cells", "parallelism", "out", "store"],
            RUN_HELP,
        ),
        RunMode::Shard => ("imc shard", &["cells", "parallelism", "out"], SHARD_HELP),
        RunMode::Sweep => (
            "imc sweep",
            &["out", "resume", "store", "parallelism"],
            SWEEP_HELP,
        ),
    };
    let parsed = parse_args(args, allowed)?;
    if parsed.help {
        return print_stdout(help);
    }
    let [source] = parsed.positional.as_slice() else {
        return Err(usage_error("expected exactly one spec file (or '-')"));
    };
    if mode == RunMode::Shard && parsed.cells.is_none() {
        return Err(usage_error("imc shard needs '--cells A..B'"));
    }
    if mode == RunMode::Sweep && parsed.out.is_none() {
        return Err(usage_error(
            "imc sweep needs '--out FILE' (the file it writes and resumes)",
        ));
    }
    let spec = ExperimentSpec::from_json(&read_input(source)?)?;
    // Refused before the store is consulted, so a stored frontier run
    // cannot slip past the refusal as a store hit.
    if spec.frontier {
        let refusal = match mode {
            RunMode::Shard => Some("a frontier spec cannot be sharded"),
            RunMode::Sweep => Some("a frontier spec cannot be swept"),
            RunMode::Run => parsed
                .cells
                .is_some()
                .then_some("'--cells' cannot restrict a frontier spec"),
        };
        if let Some(refusal) = refusal {
            return Err(usage_error(format!(
                "{refusal}: a frontier run filters the whole grid (run it with `imc run`)"
            )));
        }
    }
    // A store is consulted under the key of what will actually run: the
    // spec's identity with the CLI `--cells` restriction folded in
    // (`--parallelism` is a local override, never part of the manifest).
    let store = parsed
        .store
        .as_deref()
        .map(RunStore::open)
        .transpose()
        .map_err(Error::Sim)?;
    let key = {
        let mut key = RunKey::of(&spec);
        if let Some(cells) = &parsed.cells {
            key.cells = Some((cells.start, cells.end));
        }
        key
    };
    if let Some(bytes) = store.as_ref().and_then(|store| store.get(&key)) {
        write_output(parsed.out.as_deref(), &bytes)?;
        if mode == RunMode::Sweep {
            print_stdout(&format!(
                "{command}: store hit — wrote the persisted run ({} bytes) to {}\n",
                bytes.len(),
                parsed.out.as_deref().unwrap_or_default()
            ))?;
        }
        return Ok(());
    }
    let write_through = |run_bytes: &str| {
        if let Some(store) = &store {
            // Best-effort: a full disk must not fail a run that computed.
            if let Err(e) = store.put(&key, run_bytes) {
                eprintln!("{command}: warning: store write-through failed: {e}");
            }
        }
    };
    if spec.frontier {
        let mut experiment = spec.into_experiment(&Registry::new())?;
        if let Some(workers) = parsed.parallelism {
            experiment = experiment.parallelism_override(workers);
        }
        // The fronts are only known once the whole grid has run, so there
        // is no streaming form — the run is written buffered.
        let outcome = experiment.frontier()?;
        let run_bytes = outcome.run.to_jsonl()?;
        write_through(&run_bytes);
        return write_output(parsed.out.as_deref(), &run_bytes);
    }
    let mut experiment = spec.into_experiment(&Registry::new())?;
    if let Some(cells) = parsed.cells {
        experiment = experiment.cells(cells);
    }
    if let Some(workers) = parsed.parallelism {
        experiment = experiment.parallelism_override(workers);
    }
    let Some(path) = parsed.out.as_deref() else {
        let run_bytes = experiment.run()?.to_jsonl()?;
        write_through(&run_bytes);
        return write_output(None, &run_bytes);
    };
    // Stream records to the file as cells finish: a process killed mid-run
    // leaves the header and a complete prefix of records, which `--resume`
    // keeps. The bytes match the buffered form exactly.
    let fault = fault_after_cells()?;
    let declared = experiment.planned_cells();
    let manifest = experiment.planned_manifest();
    let mut writer = match &manifest {
        Some(manifest) if parsed.resume => RunWriter::resume(path, declared, manifest),
        _ => RunWriter::create(path, declared, manifest.as_ref()),
    }
    .map_err(Error::Sim)?;
    // A resumed file runs only the cells after the records it kept, and
    // nothing once it holds them all. (With nothing kept the run always
    // starts, so an invalid cell range still reports its error.)
    let kept = writer.written();
    if let Some(manifest) = manifest.as_ref().filter(|_| kept > 0) {
        experiment = experiment.cells(manifest.cells.start + kept..manifest.cells.end);
    }
    if kept == 0 || kept < declared {
        let mut written = 0usize;
        experiment.run_streaming(&mut |record| {
            if Some(written) == fault {
                writer.write_torn_record(record)?;
                std::process::abort();
            }
            writer.write_record(record)?;
            written += 1;
            Ok(())
        })?;
    }
    writer.finish().map_err(Error::Sim)?;
    if mode == RunMode::Sweep {
        print_stdout(&format!(
            "{command}: {path} holds all {declared} records ({kept} kept from an earlier run)\n"
        ))?;
    }
    // Register the completed run only after the file landed whole: the
    // store must never hold a run a resume could still be completing.
    if store.is_some() {
        match std::fs::read_to_string(path) {
            Ok(run_bytes) => write_through(&run_bytes),
            Err(e) => eprintln!("{command}: warning: could not re-read {path} for the store: {e}"),
        }
    }
    Ok(())
}

/// The deterministic fault-injection hook: after this many complete
/// records, a run streaming to `--out` writes one torn line and aborts —
/// dying by signal exactly like `kill -9` mid-write.
const FAULT_ENV: &str = "IMC_FAULT_EXIT_AFTER_CELLS";

/// Reads [`FAULT_ENV`].
fn fault_after_cells() -> Result<Option<usize>> {
    match std::env::var(FAULT_ENV) {
        Ok(value) => value.parse().map(Some).map_err(|_| {
            usage_error(format!(
                "{FAULT_ENV}={value} is not a non-negative cell count"
            ))
        }),
        Err(_) => Ok(None),
    }
}

fn cmd_merge(args: &[String]) -> Result<()> {
    let parsed = parse_args(args, &["out"])?;
    if parsed.help {
        return print_stdout(MERGE_HELP);
    }
    if parsed.positional.is_empty() {
        return Err(usage_error("expected at least one shard run file"));
    }
    let mut shards = Vec::with_capacity(parsed.positional.len());
    for source in &parsed.positional {
        shards.push(ExperimentRun::from_jsonl(&read_input(source)?)?);
    }
    let merged = ExperimentRun::merge(shards)?;
    write_output(parsed.out.as_deref(), &merged.to_jsonl()?)
}

fn cmd_report(args: &[String]) -> Result<()> {
    let parsed = parse_args(args, &["csv", "out"])?;
    if parsed.help {
        return print_stdout(REPORT_HELP);
    }
    let [kind, source] = parsed.positional.as_slice() else {
        return Err(usage_error(
            "expected a report kind (table1 or fig6) and a run file (or '-')",
        ));
    };
    let run = ExperimentRun::from_jsonl(&read_input(source)?)?;
    let report = match kind.as_str() {
        "table1" => {
            let rows = table1_rows_from_run(&run)?;
            if parsed.csv {
                table1_csv(&rows)
            } else {
                table1_markdown(&rows)
            }
        }
        "fig6" => {
            if parsed.csv {
                return Err(usage_error("'--csv' is only available for table1 reports"));
            }
            fig6_markdown(&fig6_panel_from_run(&run)?)
        }
        other => {
            return Err(usage_error(format!(
                "unknown report kind '{other}' (known: table1, fig6)"
            )))
        }
    };
    write_output(parsed.out.as_deref(), &report)
}

/// The default server/client address; port 8077 keeps out of the way of
/// common dev servers.
const DEFAULT_ADDR: &str = "127.0.0.1:8077";

fn cmd_serve(args: &[String]) -> Result<()> {
    let parsed = parse_args(
        args,
        &[
            "addr",
            "threads",
            "cache-budget-mb",
            "response-cache-mb",
            "store",
        ],
    )?;
    if parsed.help {
        return print_stdout(SERVE_HELP);
    }
    if !parsed.positional.is_empty() {
        return Err(usage_error("imc serve takes no positional arguments"));
    }
    let mut config = ServeConfig::new().addr(parsed.addr.as_deref().unwrap_or(DEFAULT_ADDR));
    if let Some(threads) = parsed.threads {
        config = config.workers(threads);
    }
    if let Some(mb) = parsed.cache_budget_mb {
        config = config.cache_budget_bytes(mb << 20);
    }
    if let Some(mb) = parsed.response_cache_mb {
        config = config.response_cache_bytes(mb << 20);
    }
    if let Some(dir) = &parsed.store {
        config = config.store_dir(dir);
    }
    let server = Server::bind(config).map_err(Error::Sim)?;
    // Flush before blocking so drivers polling stdout see readiness.
    print_stdout(&format!(
        "imc serve: listening on http://{}\n\
         imc serve: POST /v1/run · GET /v1/metrics · GET /v1/health · POST /v1/shutdown\n",
        server.local_addr()
    ))?;
    server.wait();
    print_stdout("imc serve: shut down cleanly\n")
}

fn cmd_call(args: &[String]) -> Result<()> {
    let parsed = parse_args(
        args,
        &["addr", "out", "retries", "retry-backoff-ms", "store"],
    )?;
    if parsed.help {
        return print_stdout(CALL_HELP);
    }
    let mut client = ServeClient::new(parsed.addr.as_deref().unwrap_or(DEFAULT_ADDR));
    if let Some(retries) = parsed.retries {
        client = client.retries(retries as u32);
    }
    if let Some(ms) = parsed.retry_backoff_ms {
        client = client.retry_backoff(Duration::from_millis(ms as u64));
    }
    let response = match parsed.positional.as_slice() {
        [action] if action == "run" => {
            return Err(usage_error("imc call run needs a spec file (or '-')"))
        }
        [action, source] if action == "run" => {
            let spec_json = read_input(source)?;
            match client.post_run(&spec_json) {
                Ok(response) => response,
                Err(server_error) => {
                    // Offline fallback: the request's key may already be in
                    // the local store (its bytes are identical to a server
                    // response), so a dead server need not block a reader.
                    match store_fallback(parsed.store.as_deref(), &spec_json) {
                        Some(bytes) => {
                            eprintln!(
                                "imc call: server unreachable ({server_error}); \
                                 serving the run from the local store"
                            );
                            bytes
                        }
                        None => return Err(Error::Sim(server_error)),
                    }
                }
            }
        }
        [action] => match action.as_str() {
            "metrics" => client.metrics().map_err(Error::Sim)?,
            "health" => client.health().map_err(Error::Sim)?,
            "shutdown" => client.shutdown_server().map_err(Error::Sim)?,
            other => {
                return Err(usage_error(format!(
                    "unknown call '{other}' (known: run, metrics, health, shutdown)"
                )))
            }
        },
        _ => {
            return Err(usage_error(
                "expected `imc call run <SPEC|->` or `imc call <metrics|health|shutdown>`",
            ))
        }
    };
    write_output(parsed.out.as_deref(), &response)
}

/// The `imc call run --store` offline path: the stored bytes of the spec's
/// key, when a store directory was given and holds them. Every failure —
/// unparseable spec, unopenable store, key absent — returns `None` so the
/// *server's* error (the actual problem) is what surfaces.
fn store_fallback(store_dir: Option<&str>, spec_json: &str) -> Option<String> {
    let dir = store_dir?;
    let spec = ExperimentSpec::from_json(spec_json).ok()?;
    let store = RunStore::open(dir).ok()?;
    store
        .get(&RunKey::of(&spec))
        .map(|bytes| bytes.as_str().to_owned())
}

fn cmd_store(args: &[String]) -> Result<()> {
    let parsed = parse_args(args, &["repair", "max-mb", "out"])?;
    if parsed.help {
        return print_stdout(STORE_HELP);
    }
    let Some((action, rest)) = parsed.positional.split_first() else {
        return Err(usage_error(
            "expected an action: `imc store <ls|verify|gc|rm> <DIR> ...`",
        ));
    };
    match action.as_str() {
        "ls" => {
            let [dir] = rest else {
                return Err(usage_error("expected `imc store ls <DIR>`"));
            };
            let store = RunStore::open(dir).map_err(Error::Sim)?;
            let mut listing = String::new();
            let entries = store.entries();
            for entry in &entries {
                listing.push_str(&format!(
                    "{}  {} bytes  last-access {}\n",
                    entry.file, entry.bytes, entry.last_access
                ));
            }
            listing.push_str(&format!(
                "{} entries, {} bytes\n",
                entries.len(),
                store.total_bytes()
            ));
            write_output(parsed.out.as_deref(), &listing)
        }
        "verify" => {
            let [dir] = rest else {
                return Err(usage_error("expected `imc store verify <DIR> [--repair]`"));
            };
            let store = RunStore::open(dir).map_err(Error::Sim)?;
            let report = store.verify(parsed.repair).map_err(Error::Sim)?;
            for issue in &report.issues {
                eprintln!("imc store: damaged entry — {issue}");
            }
            for quarantined in &report.quarantined {
                eprintln!("imc store: quarantined as {quarantined}");
            }
            if !report.issues.is_empty() && !parsed.repair {
                // Corruption found on the *explicit* verification path is a
                // record-format failure (exit code 3): retrying will not
                // heal it — `--repair` will.
                return Err(Error::Sim(imc_sim::Error::Record {
                    what: format!(
                        "{} of {} store entries are damaged (rerun with --repair to quarantine)",
                        report.issues.len(),
                        report.checked
                    ),
                }));
            }
            print_stdout(&format!(
                "imc store: {} entries checked, {} ok, {} damaged, {} quarantined\n",
                report.checked,
                report.ok,
                report.issues.len(),
                report.quarantined.len()
            ))
        }
        "gc" => {
            let [dir] = rest else {
                return Err(usage_error("expected `imc store gc <DIR> --max-mb <N>`"));
            };
            let Some(max_mb) = parsed.max_mb else {
                return Err(usage_error("imc store gc needs '--max-mb <N>'"));
            };
            let store = RunStore::open(dir).map_err(Error::Sim)?;
            let report = store.gc((max_mb as u64) << 20).map_err(Error::Sim)?;
            for evicted in &report.evicted {
                eprintln!("imc store: evicted {evicted}");
            }
            print_stdout(&format!(
                "imc store: {} entries evicted; {} entries ({} bytes) remain within {max_mb} MiB\n",
                report.evicted.len(),
                report.remaining,
                report.remaining_bytes
            ))
        }
        "rm" => {
            let [dir, spec_source] = rest else {
                return Err(usage_error("expected `imc store rm <DIR> <SPEC|->`"));
            };
            let spec = ExperimentSpec::from_json(&read_input(spec_source)?)?;
            let store = RunStore::open(dir).map_err(Error::Sim)?;
            let removed = store.remove(&RunKey::of(&spec)).map_err(Error::Sim)?;
            print_stdout(if removed {
                "imc store: entry removed\n"
            } else {
                "imc store: no entry for that spec's key\n"
            })
        }
        other => Err(usage_error(format!(
            "unknown store action '{other}' (known: ls, verify, gc, rm)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn unknown_commands_and_options_are_usage_errors() {
        let err = run_command(&strings(&["frobnicate"])).unwrap_err();
        assert!(format!("{err}").contains("unknown command"), "{err}");
        let err = run_command(&strings(&["run", "--frobnicate", "x"])).unwrap_err();
        assert!(format!("{err}").contains("unknown option"), "{err}");
        let err = run_command(&strings(&["spec", "fig17"])).unwrap_err();
        assert!(format!("{err}").contains("unknown sweep"), "{err}");
        // Options a sweep does not consume are rejected, not dropped.
        let err = run_command(&strings(&["spec", "fig8", "--network", "wrn16-4"])).unwrap_err();
        assert!(format!("{err}").contains("--network"), "{err}");
        let err = run_command(&strings(&["spec", "table1", "--array", "128"])).unwrap_err();
        assert!(format!("{err}").contains("--array"), "{err}");
        let err = run_command(&strings(&["shard", "spec.json"])).unwrap_err();
        assert!(format!("{err}").contains("--cells"), "{err}");
        let err = run_command(&strings(&["run", "-", "--cells", "3"])).unwrap_err();
        assert!(format!("{err}").contains("A..B"), "{err}");
        let err = run_command(&strings(&["sweep", "spec.json"])).unwrap_err();
        assert!(format!("{err}").contains("--out"), "{err}");
        let err = run_command(&strings(&["sweep"])).unwrap_err();
        assert!(format!("{err}").contains("spec file"), "{err}");
    }

    #[test]
    fn usage_and_io_failures_carry_distinct_exit_codes() {
        // A missing spec file is a usage error: a process supervisor must
        // not retry it.
        let err = run_command(&strings(&[
            "run",
            "/nonexistent/never/spec.json",
            "--out",
            "/tmp/unused.jsonl",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        // An unwritable output path is transient I/O: worth retrying.
        let dir = std::env::temp_dir().join("imc_cli_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("exitcode.spec.json");
        run_command(&strings(&["spec", "fig8", "--out", spec.to_str().unwrap()])).unwrap();
        let err = run_command(&strings(&[
            "run",
            spec.to_str().unwrap(),
            "--out",
            "/nonexistent/never/out.jsonl",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
    }

    #[test]
    fn store_commands_classify_corruption_and_io_failures() {
        let dir = std::env::temp_dir().join(format!("imc_cli_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A garbage file under a valid entry name: only the explicit verify
        // path turns it into a failure, and only without --repair.
        let key = RunKey {
            spec_hash: 0xabc,
            precision: imc_sim::Precision::F64,
            cells: None,
            parallelism: None,
            frontier: false,
        };
        let entry = imc_sim::store::entry_name(&key);
        std::fs::write(dir.join(&entry), "garbage\n").unwrap();
        let err = run_command(&strings(&["store", "verify", dir.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        run_command(&strings(&[
            "store",
            "verify",
            dir.to_str().unwrap(),
            "--repair",
        ]))
        .unwrap();
        assert!(
            dir.join(format!("{entry}.corrupt")).exists(),
            "repair quarantines instead of deleting"
        );
        // Pointing a store command at a regular file is transient I/O.
        let blocking_file = dir.join("blocking");
        std::fs::write(&blocking_file, "x").unwrap();
        let err = run_command(&strings(&[
            "store",
            "gc",
            blocking_file.to_str().unwrap(),
            "--max-mb",
            "1",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_command_writes_a_parseable_canonical_spec() {
        let dir = std::env::temp_dir().join("imc_cli_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig6.spec.json");
        run_command(&strings(&["spec", "fig6", "--out", path.to_str().unwrap()])).unwrap();
        let spec = ExperimentSpec::load_json(&path).unwrap();
        assert_eq!(spec.networks, vec!["ResNet-20".to_owned()]);
        assert_eq!(spec.arrays, vec![imc_sim::ArrayAxis::square(64)]);
        assert_eq!(spec.strategies.len(), 33, "baseline + 16 lowrank + 8 + 8");
        std::fs::remove_file(&path).unwrap();
    }
}
