//! Golden certification of the built-in `synthetic:` scenario family.
//!
//! Every curated scenario is pinned, year-table style, by one golden row
//! per (scenario, array, strategy) grid cell at [`DEFAULT_SEED`]: the exact
//! `f64` cycles and modelled accuracy the engine produced when the tables
//! were generated. Any change to the generator, the evaluation layers, or
//! the seeding that moves a single cell fails loudly with the cell named.
//!
//! Beyond the tables, the suite certifies the contracts every other
//! experiment source already enjoys:
//!
//! * serial and parallel `f64` runs are byte-identical;
//! * the `Precision::F32` fast path keeps cycles bit-identical and drifts
//!   accuracies by at most [`ACCURACY_BUDGET_PP`] percentage points;
//! * `imc run` on the emitted spec reproduces the in-process run byte for
//!   byte (the spec round-trips through the `synthetic_networks` member);
//! * random `SyntheticNetSpec` documents survive a JSON round trip
//!   losslessly and build deterministically.
//!
//! Regenerate the tables after an *intentional* model change with
//!
//! ```text
//! cargo test --test synth_golden regenerate -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `GOLDEN`.

use std::io::Write;
use std::process::{Command, Stdio};

use imc::sim::synth::{ChannelRamp, Scenario, StageSpec, SyntheticNetSpec, SCENARIOS};
use imc::{
    CompressionConfig, CompressionMethod, Experiment, ExperimentRun, Precision, RankSpec,
    DEFAULT_SEED,
};

/// Maximum admissible drift of any modelled accuracy (in percentage points)
/// when the decomposition kernels run in `f32` instead of `f64` — the same
/// budget the resnet20/wrn16-4 pipelines are certified at in
/// `tests/precision.rs`.
const ACCURACY_BUDGET_PP: f64 = 0.05;

/// The six-strategy certification column set: both dense mappings, a
/// grouped low-rank point, both pruning baselines, and the quantized
/// baseline.
fn methods() -> Vec<CompressionMethod> {
    vec![
        CompressionMethod::Uncompressed { sdk: false },
        CompressionMethod::Uncompressed { sdk: true },
        CompressionMethod::LowRank(
            CompressionConfig::new(RankSpec::Divisor(8), 4, true).expect("valid low-rank config"),
        ),
        CompressionMethod::PatternPruning { entries: 4 },
        CompressionMethod::Pairs { entries: 6 },
        CompressionMethod::Quantized { bits: 2 },
    ]
}

/// The certified sweep of one curated scenario at its defaults: both paper
/// array sizes crossed with the six-strategy column set.
fn scenario_sweep(scenario: &Scenario) -> Experiment {
    Experiment::new()
        .synthetic_network(scenario.default_spec())
        .expect("curated scenario builds at its defaults")
        .arrays([32, 64])
        .seed(DEFAULT_SEED)
        .methods(methods())
}

/// One golden grid cell: scenario, array size, strategy label, exact `f64`
/// cycles, exact `f64` modelled accuracy.
type GoldenRow = (&'static str, usize, &'static str, f64, f64);

macro_rules! golden_rows {
    ($(($scenario:literal, $array:literal, $method:literal) => $cycles:literal @ $accuracy:literal,)*) => {
        &[$(($scenario, $array, $method, $cycles, $accuracy),)*]
    };
}

/// The certified tables at `DEFAULT_SEED`, in grid order (array-major, then
/// strategy) per scenario. Regenerate with the ignored `regenerate` test.
#[rustfmt::skip]
const GOLDEN: &[GoldenRow] = golden_rows![
    ("deep-thin", 32, "im2col baseline") => 27457.0 @ 90.0,
    ("deep-thin", 32, "SDK baseline") => 13345.0 @ 90.0,
    ("deep-thin", 32, "ours (g=4, k=m/8, SDK)") => 11681.0 @ 82.10058284138837,
    ("deep-thin", 32, "PatDNN pattern pruning (4 entries)") => 11201.0 @ 85.92783301751273,
    ("deep-thin", 32, "PAIRS (6 entries)") => 11713.0 @ 89.02450960854112,
    ("deep-thin", 32, "2-bit quantized") => 7185.0 @ 87.8,
    ("deep-thin", 64, "im2col baseline") => 17793.0 @ 90.0,
    ("deep-thin", 64, "SDK baseline") => 5497.0 @ 90.0,
    ("deep-thin", 64, "ours (g=4, k=m/8, SDK)") => 5609.0 @ 82.10058284138837,
    ("deep-thin", 64, "PatDNN pattern pruning (4 entries)") => 9409.0 @ 85.92783301751273,
    ("deep-thin", 64, "PAIRS (6 entries)") => 5281.0 @ 89.02450960854112,
    ("deep-thin", 64, "2-bit quantized") => 3261.0 @ 87.8,
    ("wide-shallow", 32, "im2col baseline") => 78852.0 @ 90.0,
    ("wide-shallow", 32, "SDK baseline") => 78852.0 @ 90.0,
    ("wide-shallow", 32, "ours (g=4, k=m/8, SDK)") => 44036.0 @ 81.82245953358306,
    ("wide-shallow", 32, "PatDNN pattern pruning (4 entries)") => 13316.0 @ 78.73985120521638,
    ("wide-shallow", 32, "PAIRS (6 entries)") => 19460.0 @ 81.33320772224793,
    ("wide-shallow", 32, "2-bit quantized") => 39940.0 @ 87.8,
    ("wide-shallow", 64, "im2col baseline") => 20994.0 @ 90.0,
    ("wide-shallow", 64, "SDK baseline") => 20994.0 @ 90.0,
    ("wide-shallow", 64, "ours (g=4, k=m/8, SDK)") => 13058.0 @ 81.82245953358306,
    ("wide-shallow", 64, "PatDNN pattern pruning (4 entries)") => 4098.0 @ 78.73985120521638,
    ("wide-shallow", 64, "PAIRS (6 entries)") => 6146.0 @ 81.33320772224793,
    ("wide-shallow", 64, "2-bit quantized") => 11010.0 @ 87.8,
    ("depthwise-heavy", 32, "im2col baseline") => 27969.0 @ 90.0,
    ("depthwise-heavy", 32, "SDK baseline") => 3457.0 @ 90.0,
    ("depthwise-heavy", 32, "ours (g=4, k=m/8, SDK)") => 8705.0 @ 89.93336045989967,
    ("depthwise-heavy", 32, "PatDNN pattern pruning (4 entries)") => 27969.0 @ 89.9723435489802,
    ("depthwise-heavy", 32, "PAIRS (6 entries)") => 3365.0 @ 89.99992083313295,
    ("depthwise-heavy", 32, "2-bit quantized") => 2241.0 @ 87.8,
    ("depthwise-heavy", 64, "im2col baseline") => 27969.0 @ 90.0,
    ("depthwise-heavy", 64, "SDK baseline") => 2241.0 @ 90.0,
    ("depthwise-heavy", 64, "ours (g=4, k=m/8, SDK)") => 4865.0 @ 89.93336045989967,
    ("depthwise-heavy", 64, "PatDNN pattern pruning (4 entries)") => 27969.0 @ 89.9723435489802,
    ("depthwise-heavy", 64, "PAIRS (6 entries)") => 2191.0 @ 89.99992083313295,
    ("depthwise-heavy", 64, "2-bit quantized") => 1633.0 @ 87.8,
    ("matmul-projection", 32, "im2col baseline") => 23042.0 @ 90.0,
    ("matmul-projection", 32, "SDK baseline") => 23042.0 @ 90.0,
    ("matmul-projection", 32, "ours (g=4, k=m/8, SDK)") => 23298.0 @ 87.2951154875602,
    ("matmul-projection", 32, "PatDNN pattern pruning (4 entries)") => 15362.0 @ 89.73915546869728,
    ("matmul-projection", 32, "PAIRS (6 entries)") => 18434.0 @ 89.9293251389207,
    ("matmul-projection", 32, "2-bit quantized") => 12034.0 @ 87.8,
    ("matmul-projection", 64, "im2col baseline") => 12545.0 @ 90.0,
    ("matmul-projection", 64, "SDK baseline") => 8449.0 @ 90.0,
    ("matmul-projection", 64, "ours (g=4, k=m/8, SDK)") => 11009.0 @ 87.2951154875602,
    ("matmul-projection", 64, "PatDNN pattern pruning (4 entries)") => 8705.0 @ 89.73915546869728,
    ("matmul-projection", 64, "PAIRS (6 entries)") => 7425.0 @ 89.9293251389207,
    ("matmul-projection", 64, "2-bit quantized") => 4737.0 @ 87.8,
];

#[test]
fn golden_tables_certify_every_scenario_cell() {
    assert_eq!(
        GOLDEN.len(),
        SCENARIOS.len() * 2 * methods().len(),
        "one golden row per (scenario, array, strategy) cell"
    );
    let mut rows = GOLDEN.iter();
    for scenario in &SCENARIOS {
        let run = scenario_sweep(scenario).run().expect("scenario sweep runs");
        assert_eq!(run.records().len(), 2 * methods().len());
        for record in run.records() {
            let &(name, array, method, cycles, accuracy) =
                rows.next().expect("golden table covers the whole grid");
            let cell = format!("{name} / {array} / {method}");
            assert_eq!(scenario.name, name, "{cell}: row order");
            assert_eq!(record.array_size, array, "{cell}: array order");
            assert_eq!(record.eval.method, method, "{cell}: strategy order");
            assert_eq!(
                record.eval.cycles.to_bits(),
                cycles.to_bits(),
                "{cell}: cycles {} != golden {cycles}",
                record.eval.cycles
            );
            assert_eq!(
                record.eval.accuracy.to_bits(),
                accuracy.to_bits(),
                "{cell}: accuracy {} != golden {accuracy}",
                record.eval.accuracy
            );
        }
    }
}

#[test]
fn serial_and_parallel_scenario_runs_are_byte_identical() {
    for scenario in &SCENARIOS {
        let serial = scenario_sweep(scenario)
            .parallelism(1)
            .run()
            .expect("serial run")
            .to_jsonl()
            .expect("serial run serializes");
        let parallel = scenario_sweep(scenario)
            .parallelism(8)
            .run()
            .expect("parallel run")
            .to_jsonl()
            .expect("parallel run serializes");
        // The worker count is recorded in the manifest when pinned, so
        // compare the record payloads: same spec, same bytes per record.
        let strip = |text: &str| {
            text.lines()
                .skip(1)
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&serial),
            strip(&parallel),
            "{}: records must not depend on the worker count",
            scenario.name
        );
    }
}

#[test]
fn f32_scenario_runs_keep_cycles_and_stay_inside_the_accuracy_budget() {
    for scenario in &SCENARIOS {
        let golden = scenario_sweep(scenario).run().expect("f64 run");
        let fast = scenario_sweep(scenario)
            .precision(Precision::F32)
            .run()
            .expect("f32 run");
        for (g, f) in golden.records().iter().zip(fast.records()) {
            assert_eq!(
                g.eval.cycles.to_bits(),
                f.eval.cycles.to_bits(),
                "{}: cycles depend only on geometry, never on precision",
                scenario.name
            );
            assert!(
                (g.eval.accuracy - f.eval.accuracy).abs() <= ACCURACY_BUDGET_PP,
                "{} / {} / {}: f64 {} vs f32 {}",
                scenario.name,
                g.array_size,
                g.eval.method,
                g.eval.accuracy,
                f.eval.accuracy
            );
        }
    }
}

#[test]
fn cli_run_on_a_synthetic_spec_matches_the_in_process_bytes() {
    // The emitted spec carries the scenario as a `synthetic_networks`
    // document plus a non-default array axis; `imc run -` must resolve both
    // and reproduce the library run byte for byte.
    let experiment = || {
        Experiment::new()
            .synthetic_network(SCENARIOS[0].spec(6, 4))
            .expect("deep-thin d6 w4 builds")
            .arrays([32, 64])
            .seed(DEFAULT_SEED)
            .methods(methods())
    };
    let spec = experiment().to_spec().expect("spec serializes").to_json();
    assert!(
        spec.contains("\"synthetic_networks\""),
        "spec carries the generator document: {spec}"
    );
    let golden = experiment()
        .run()
        .expect("library run")
        .to_jsonl()
        .expect("library run serializes");

    let mut child = Command::new(env!("CARGO_BIN_EXE_imc"))
        .args(["run", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("imc binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(spec.as_bytes())
        .expect("stdin writes");
    let output = child.wait_with_output().expect("imc binary exits");
    assert!(
        output.status.success(),
        "imc run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let cli_run = String::from_utf8(output.stdout).expect("utf-8 output");
    assert_eq!(cli_run, golden, "CLI run must match the library bytes");
    // And the run parses back with the synthetic network name in place.
    let parsed = ExperimentRun::from_jsonl(&cli_run).expect("CLI run parses");
    assert!(parsed
        .records()
        .iter()
        .all(|r| r.eval.network == "synthetic:deep-thin-d6-w4"));
}

#[test]
fn serve_returns_the_synthetic_run_bytes() {
    use imc::{ServeClient, ServeConfig, Server};

    // The evaluation server resolves the same registry, so a posted
    // synthetic-scenario spec must come back as the in-process bytes.
    let experiment = || scenario_sweep(&SCENARIOS[2]);
    let spec = experiment().to_spec().expect("spec serializes").to_json();
    let golden = experiment()
        .run()
        .expect("library run")
        .to_jsonl()
        .expect("library run serializes");
    let server = Server::bind(ServeConfig::new().workers(2)).expect("server binds");
    let client = ServeClient::new(server.local_addr().to_string());
    let response = client.post_run(&spec).expect("request succeeds");
    assert_eq!(response, golden, "served bytes must match the library run");
}

/// Deterministic xorshift-style generator for the property test — no
/// external randomness, reproducible failures.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

#[test]
fn random_spec_documents_round_trip_losslessly_and_build_deterministically() {
    let mut rng = Lcg(DEFAULT_SEED);
    for case in 0..100 {
        let stages = (0..rng.range(1, 4))
            .map(|_| {
                let mut stage = StageSpec::new(rng.range(1, 4) as usize, rng.range(1, 40) as usize)
                    .kernel([1, 3, 5][rng.range(0, 2) as usize])
                    .stride(rng.range(1, 2) as usize)
                    .groups(rng.range(1, 8) as usize)
                    .projections(rng.range(0, 3) as usize);
                if rng.range(0, 1) == 1 {
                    stage = stage.ramp(ChannelRamp::Linear);
                }
                stage
            })
            .collect();
        let mut spec = SyntheticNetSpec::new(format!("prop-{case}"), stages);
        spec.input = rng.range(8, 40) as usize;
        spec.stem = rng.range(1, 24) as usize;
        spec.classes = rng.range(2, 100) as usize;

        let json = spec.to_json();
        let reparsed = SyntheticNetSpec::from_json(&json).expect("canonical JSON parses");
        assert_eq!(spec, reparsed, "case {case}: document round trip");
        assert_eq!(json, reparsed.to_json(), "case {case}: canonical bytes");

        match (spec.build(), reparsed.build()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.layers.len(), b.layers.len(), "case {case}");
                for (la, lb) in a.layers.iter().zip(&b.layers) {
                    assert_eq!(la.name, lb.name, "case {case}");
                    assert_eq!(la.conv, lb.conv, "case {case}");
                    assert_eq!(la.linear, lb.linear, "case {case}");
                }
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}"), "case {case}"),
            (a, b) => panic!("case {case}: build determinism broke: {a:?} vs {b:?}"),
        }
    }
}

/// Regeneration helper (ignored): prints the golden rows in source form.
#[test]
#[ignore = "regenerates the golden tables; run with --ignored --nocapture"]
fn regenerate() {
    for scenario in &SCENARIOS {
        let run = scenario_sweep(scenario).run().expect("scenario sweep runs");
        for record in run.records() {
            println!(
                "    (\"{}\", {}, \"{}\") => {:?} @ {:?},",
                scenario.name,
                record.array_size,
                record.eval.method,
                record.eval.cycles,
                record.eval.accuracy
            );
        }
    }
}
