//! `imcbench` — the end-to-end and per-layer benchmark of the IMC low-rank
//! simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path imcbench/Cargo.toml -- \
//!     --workload fig6-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Two workloads:
//!
//! * `fig6-cold` — the ResNet-20 Fig. 6 grid on 64×64 arrays, on a fresh
//!   session every pass, serialized with `to_jsonl`: what `imc run` pays.
//! * `serve-mixed` — an in-process `Server` under an open-loop client at a
//!   fixed ladder of rates, over a seeded Zipf-popular corpus that hits the
//!   memory cache, the persistent store and compute.
//!
//! With `--trace 0` a run measures the end-to-end metrics with no spans; with
//! `--trace 1` it runs the traced variant instead, reports the per-layer
//! metrics (every name in [`report::PER_LAYER`], zero where the workload does
//! not touch the layer) and writes its spans to stderr as JSON lines. Every
//! operation is checked against bytes computed another way; the last stdout
//! line is the JSON result object.

mod alloc;
mod check;
mod common;
mod fig6_cold;
mod http;
mod plan;
mod provenance;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use std::process::ExitCode;

use report::Report;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: imcbench --workload <fig6-cold|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("option '{flag}' needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["fig6-cold", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("imcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance::collect();
    println!(
        "imcbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("provenance {provenance}");

    let outcome = match args.workload.as_str() {
        "fig6-cold" => fig6_cold::run(&args),
        _ => serve_mixed::run(&args),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("imcbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = finish(&args, &report) {
        eprintln!("imcbench: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints the human-readable lines, writes the spans, and prints the JSON
/// result object as the last stdout line.
fn finish(args: &Args, report: &Report) -> Result<(), String> {
    for note in &report.notes {
        println!("note {note}");
    }
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    eprint!("{}", report.spans_jsonl());
    let json = report.to_json(args.trace)?;
    for (name, value, unit) in report.selected(args.trace)? {
        println!("metric {name} = {value} {unit}");
    }
    println!("{json}");
    Ok(())
}
