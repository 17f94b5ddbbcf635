//! Golden tests for the `imc` CLI binary: the spec-driven pipeline must
//! reproduce the in-process library sweeps byte for byte, and the CLI
//! shard/merge dataflow must be indistinguishable from an unsharded run.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use imc::sim::experiments::{fig6_experiment, table1, table1_experiment, DEFAULT_SEED};
use imc::{resnet20, ExperimentRun};

fn imc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_imc")
}

/// Runs `imc <args...>` with optional stdin, capturing stdout/stderr.
fn imc(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(imc_bin())
        .args(args)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("imc binary spawns");
    if let Some(input) = stdin {
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("stdin writes");
    }
    child.wait_with_output().expect("imc binary exits")
}

fn stdout_of(args: &[&str], stdin: Option<&str>) -> String {
    let output = imc(args, stdin);
    assert!(
        output.status.success(),
        "imc {:?} failed: {}",
        args,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn spec_piped_into_run_matches_the_in_process_fig6_golden() {
    // `imc spec fig6 | imc run -` — the acceptance pipeline — must be
    // byte-identical to the library sweep, manifest included.
    let spec = stdout_of(&["spec", "fig6"], None);
    let cli_run = stdout_of(&["run", "-"], Some(&spec));
    let golden = fig6_experiment(&resnet20(), 64, DEFAULT_SEED)
        .run()
        .expect("library sweep succeeds")
        .to_jsonl()
        .expect("library run serializes");
    assert_eq!(
        cli_run, golden,
        "CLI fig6 run must match the library golden"
    );

    // The worker count is an execution detail: a serial override produces
    // the identical bytes (the manifest keeps recording the request).
    let serial = stdout_of(&["run", "-", "--parallelism", "1"], Some(&spec));
    assert_eq!(serial, golden, "serial CLI run must match the parallel one");
}

#[test]
fn spec_pinned_parallelism_round_trips_into_the_manifest() {
    // When the *request itself* pins a worker count, both the CLI run and
    // the in-process run record it — and still agree byte for byte.
    let experiment = || fig6_experiment(&resnet20(), 64, DEFAULT_SEED).parallelism(1);
    let spec = experiment().to_spec().expect("built-ins serialize");
    assert!(spec.to_json().contains("\"parallelism\": 1"));
    let cli_run = stdout_of(&["run", "-"], Some(&spec.to_json()));
    let golden = experiment()
        .run()
        .expect("library sweep succeeds")
        .to_jsonl()
        .expect("library run serializes");
    assert_eq!(cli_run, golden);
    let parsed = ExperimentRun::from_jsonl(&cli_run).expect("CLI output parses");
    assert_eq!(
        parsed.manifest().expect("manifest present").parallelism,
        Some(1)
    );
}

#[test]
fn spec_piped_into_run_matches_the_in_process_table1_golden() {
    let spec = stdout_of(&["spec", "table1"], None);
    let cli_run = stdout_of(&["run", "-"], Some(&spec));
    let golden = table1_experiment(&resnet20(), DEFAULT_SEED)
        .run()
        .expect("library sweep succeeds")
        .to_jsonl()
        .expect("library run serializes");
    assert_eq!(
        cli_run, golden,
        "CLI table1 run must match the library golden"
    );
}

#[test]
fn cli_two_shard_merge_is_byte_identical_to_the_unsharded_run() {
    let spec = stdout_of(&["spec", "fig6"], None);
    let unsharded = stdout_of(&["run", "-"], Some(&spec));
    let total = fig6_experiment(&resnet20(), 64, DEFAULT_SEED).grid_cells();

    let dir = std::env::temp_dir().join("imc_cli_merge_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let spec_path = path("fig6.spec.json");
    std::fs::write(&spec_path, &spec).expect("spec file writes");

    let mid = total / 2;
    let (a, b) = (path("shard_a.jsonl"), path("shard_b.jsonl"));
    // `imc shard` and `imc run --cells` are the same operation; use one of
    // each so both spellings stay covered.
    stdout_of(
        &[
            "shard",
            &spec_path,
            "--cells",
            &format!("0..{mid}"),
            "--out",
            &a,
        ],
        None,
    );
    stdout_of(
        &[
            "run",
            &spec_path,
            "--cells",
            &format!("{mid}..{total}"),
            "--out",
            &b,
        ],
        None,
    );
    // Shards listed out of order: merge reassembles canonical order.
    let merged = stdout_of(&["merge", &b, &a], None);
    assert_eq!(
        merged, unsharded,
        "2-shard CLI merge must be byte-identical to the unsharded CLI run"
    );
    for name in [&spec_path, &a, &b] {
        let _ = std::fs::remove_file(name);
    }
}

#[test]
fn reports_render_the_library_figures_from_run_files() {
    use imc::sim::experiments::{fig6, table1_rows_from_run};
    use imc::sim::report::{fig6_markdown, table1_markdown};

    // fig6: the report of a CLI run must equal the markdown of the library
    // panel (the run is byte-identical, so the panel is too).
    let spec = stdout_of(&["spec", "fig6"], None);
    let run = stdout_of(&["run", "-"], Some(&spec));
    let report = stdout_of(&["report", "fig6", "-"], Some(&run));
    let panel = fig6(&resnet20(), 64, DEFAULT_SEED).expect("library panel");
    assert_eq!(report, fig6_markdown(&panel));

    // table1: the report renders the run-derived rows; their cycle columns
    // agree with the specialized library generator exactly (same cycle
    // model), while the accuracy column follows the strategy-engine
    // convention (whole-network weighting) and may differ slightly.
    let spec = stdout_of(&["spec", "table1"], None);
    let run_text = stdout_of(&["run", "-"], Some(&spec));
    let report = stdout_of(&["report", "table1", "-"], Some(&run_text));
    let parsed = ExperimentRun::from_jsonl(&run_text).expect("run parses");
    let rows = table1_rows_from_run(&parsed).expect("table1-shaped run");
    assert_eq!(report, table1_markdown(&rows));
    let reference = table1(&resnet20(), DEFAULT_SEED).expect("library rows");
    assert_eq!(rows.len(), reference.len());
    for (derived, golden) in rows.iter().zip(&reference) {
        assert_eq!((derived.groups, derived.rank), (golden.groups, golden.rank));
        assert_eq!(derived.cycles_32_plain, golden.cycles_32_plain);
        assert_eq!(derived.cycles_64_plain, golden.cycles_64_plain);
        assert_eq!(derived.cycles_32_sdk, golden.cycles_32_sdk);
        assert_eq!(derived.cycles_64_sdk, golden.cycles_64_sdk);
        assert!(
            (derived.accuracy - golden.accuracy).abs() < 0.5,
            "accuracy conventions diverged too far: {} vs {}",
            derived.accuracy,
            golden.accuracy
        );
    }

    // CSV stays column-consistent.
    let csv = stdout_of(&["report", "table1", "-", "--csv"], Some(&run_text));
    let header_cols = csv.lines().next().expect("header").split(',').count();
    assert!(csv
        .lines()
        .skip(1)
        .all(|l| l.split(',').count() == header_cols));
}

#[test]
fn unknown_names_and_malformed_input_fail_with_spec_errors() {
    let spec = stdout_of(&["spec", "fig6"], None);

    let bad_network = spec.replace("ResNet-20", "ResNet-18");
    let output = imc(&["run", "-"], Some(&bad_network));
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("unknown network"), "{stderr}");
    assert!(
        stderr.contains("resnet20"),
        "stderr lists registered: {stderr}"
    );

    let bad_strategy = spec.replace("\"method\":\"patdnn\"", "\"method\":\"patdn\"");
    let output = imc(&["run", "-"], Some(&bad_strategy));
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("unknown strategy"), "{stderr}");

    let output = imc(&["run", "-"], Some("{not json"));
    assert!(!output.status.success());

    let output = imc(&["frobnicate"], None);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown command"));
}

#[test]
fn future_version_documents_fail_with_spec_errors_not_panics() {
    // `imc run` on a spec from a future format version: nonzero exit, a
    // spec-style error naming the version, and no panic — even when the
    // future document carries members this reader has never heard of.
    let spec = stdout_of(&["spec", "fig6"], None);
    let future_spec = spec.replacen("\"version\": 1", "\"version\": 2", 1);
    let output = imc(&["run", "-"], Some(&future_spec));
    assert!(!output.status.success());
    assert_eq!(
        output.status.code(),
        Some(2),
        "spec errors exit 2 (permanent), not a signal"
    );
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("unsupported version 2"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let with_new_member = future_spec.replacen(
        "\"version\": 2,",
        "\"version\": 2,\n  \"frontier\": true,",
        1,
    );
    let output = imc(&["run", "-"], Some(&with_new_member));
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(
        stderr.contains("unsupported version 2"),
        "version must gate before the member check: {stderr}"
    );

    // A version that is present but not an integer is reported as such.
    let bad_version = spec.replacen("\"version\": 1", "\"version\": \"one\"", 1);
    let output = imc(&["run", "-"], Some(&bad_version));
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(
        stderr.contains("member 'version' must be a non-negative integer"),
        "{stderr}"
    );

    // `imc report` on a run file from a future format version: same
    // contract on the record-reading path.
    let run = stdout_of(&["run", "-"], Some(&spec));
    let future_run = run.replacen("\"version\":1", "\"version\":7", 1);
    let output = imc(&["report", "fig6", "-"], Some(&future_run));
    assert!(!output.status.success());
    assert_eq!(
        output.status.code(),
        Some(3),
        "record-format errors exit 3 (permanent)"
    );
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("unsupported version 7"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn inverted_or_empty_cell_ranges_are_rejected_at_parse_time() {
    // `--cells 5..2` and `--cells 3..3` select nothing; letting them
    // through would fail (or silently no-op) only deep inside the run.
    // They must die as usage errors (exit 2) naming the range as typed.
    for range in ["5..2", "3..3"] {
        let output = imc(&["run", "ignored.spec.json", "--cells", range], None);
        assert!(!output.status.success());
        assert_eq!(
            output.status.code(),
            Some(2),
            "usage errors exit 2 (permanent)"
        );
        let stderr = String::from_utf8_lossy(&output.stderr).to_string();
        assert!(stderr.contains(range), "message names the range: {stderr}");
        assert!(stderr.contains("selects no cells"), "{stderr}");
    }
}

#[test]
fn frontier_specs_run_report_and_refuse_the_sharding_paths() {
    use imc::sim::experiments::fig6_panel_from_run;
    use imc::sim::report::fig6_markdown;

    let experiment = || fig6_experiment(&resnet20(), 64, DEFAULT_SEED).frontier_mode(true);
    let spec = experiment()
        .to_spec()
        .expect("built-ins serialize")
        .to_json();
    assert!(spec.contains("\"frontier\": true"), "{spec}");

    // `imc run` honors the field: bytes match the library frontier run.
    let cli_run = stdout_of(&["run", "-"], Some(&spec));
    let golden = experiment()
        .frontier()
        .expect("library frontier succeeds")
        .run;
    assert_eq!(
        cli_run,
        golden.to_jsonl().expect("frontier run serializes"),
        "CLI frontier run must match the library golden"
    );

    // `imc report fig6` consumes the frontier run.
    let report = stdout_of(&["report", "fig6", "-"], Some(&cli_run));
    let panel = fig6_panel_from_run(&golden).expect("frontier panel");
    assert_eq!(report, fig6_markdown(&panel));

    // The sharding paths refuse frontier specs as usage/spec errors.
    let output = imc(&["run", "-", "--cells", "0..2"], Some(&spec));
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("frontier"), "{stderr}");

    let output = imc(&["shard", "-", "--cells", "0..2"], Some(&spec));
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("frontier"), "{stderr}");

    let dir = std::env::temp_dir().join("imc_cli_frontier_sweep_reject");
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir
        .join("out.jsonl")
        .to_str()
        .expect("utf-8 path")
        .to_owned();
    let output = imc(&["sweep", "-", "--out", &out], Some(&spec));
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("frontier"), "{stderr}");

    // A stored frontier run does not get a sweep past the refusal.
    let store = dir.join("store").to_str().expect("utf-8 path").to_owned();
    let output = imc(&["run", "-", "--store", &store], Some(&spec));
    assert!(output.status.success(), "{output:?}");
    assert_eq!(String::from_utf8_lossy(&output.stdout), cli_run);
    let output = imc(
        &["sweep", "-", "--store", &store, "--out", &out],
        Some(&spec),
    );
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("frontier"), "{stderr}");
    assert!(
        !std::path::Path::new(&out).exists(),
        "a refused sweep writes no --out file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spec_list_prints_the_registered_names_golden() {
    // The listing is a stable, documented surface: golden-pinned so any
    // registration or description change is a conscious diff.
    let listing = stdout_of(&["spec", "list"], None);
    let golden = "\
NETWORKS
    ResNet-20                   alias of resnet20
    WRN16-4                     alias of wrn16-4
    resnet20                    ResNet-20 on CIFAR-10, the paper's main benchmark
    synthetic:deep-thin         3 stages of thin 3x3 blocks with linear channel ramps (default d18 w8)
    synthetic:depthwise-heavy   3 stages of depthwise-style grouped 3x3 convs with 1x1 mixes (default d6 w8)
    synthetic:matmul-projection 2 thin 3x3 stages, each closed by a stack of 1x1 matmul layers (default d4 w32)
    synthetic:wide-shallow      2 stages of wide 5x5 blocks, one block per stage (default d2 w64)
    wrn16-4                     WideResNet-16-4 on CIFAR-10, the paper's wide benchmark

NAME FAMILIES (prefix-resolved, parameterized)
    synthetic:                  parameterized synthetic networks, e.g. synthetic:deep-thin-d32-w16

STRATEGIES
    dorefa                      DoReFa quantized dense baseline
    im2col                      dense im2col mapping, the uncompressed baseline
    lowrank                     the paper's rank-decomposed column compression
    pairs                       paired-column structured pruning baseline
    patdnn                      PatDNN-style pattern pruning baseline
    sdk                         shift-and-duplicate-kernel dense mapping
";
    assert_eq!(listing, golden);

    // `list` is a listing, not a sweep: sweep options are rejected.
    let output = imc(&["spec", "list", "--network", "resnet20"], None);
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(2));

    // Near-miss names in a spec come back with a suggestion.
    let spec = stdout_of(&["spec", "fig6"], None);
    let bad = spec.replace("ResNet-20", "resnet21");
    let output = imc(&["run", "-"], Some(&bad));
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(
        stderr.contains("did you mean 'resnet20'?"),
        "suggestion expected: {stderr}"
    );
}

#[test]
fn every_subcommand_has_help_text() {
    for command in ["spec", "run", "shard", "merge", "report", "sweep"] {
        let direct = stdout_of(&[command, "--help"], None);
        assert!(direct.contains("USAGE:"), "{command} --help: {direct}");
        assert!(direct.contains(command), "{command} --help names itself");
        let via_help = stdout_of(&["help", command], None);
        assert_eq!(direct, via_help, "`imc help {command}` matches `--help`");
    }
    let root = stdout_of(&["help"], None);
    assert!(root.contains("COMMANDS:"));
}
