//! Certification of frontier runs: `Experiment::frontier()` must return
//! *exactly* the records of the exhaustive run that sit on each method
//! series' accuracy/cycles Pareto front, per (network, array axis) panel —
//! byte for byte, at both kernel precisions, for every worker count and
//! cache state — and the downstream consumers (`imc report fig6`, merge)
//! must treat frontier runs correctly.

use std::collections::HashMap;

use imc::sim::experiments::{
    fig6_experiment, fig6_panel_from_run, fig8_experiment, table1_experiment, DEFAULT_SEED,
};
use imc::sim::report::fig6_markdown;
use imc::sim::spec::{builtin_method_spec, ArrayAxis};
use imc::{
    resnet20, CompressionMethod, EvalSession, Experiment, ExperimentRun, ExperimentSpec, Precision,
    Registry, RunRecord,
};

/// Brute-force reference: the cells of `run` that survive Pareto filtering
/// within their group. A group is one method series in one panel.
/// `series_starts` holds the first strategy index of each series, then the
/// strategy count; a record's panel is its (network, array axis) position,
/// `cell_index / strategies`. A cell is dominated when some cell of its
/// group reaches at least its accuracy in strictly fewer cycles — or in
/// exactly the same cycles at an earlier grid position (the stable
/// tie-break of `pareto_front`'s sort).
fn reference_front_cells(run: &ExperimentRun, series_starts: &[usize]) -> Vec<usize> {
    let strategies = series_starts[series_starts.len() - 1];
    let group = |r: &RunRecord| {
        let series = series_starts.partition_point(|&start| start <= r.strategy_index);
        (r.cell_index / strategies, series)
    };
    let records = run.records();
    records
        .iter()
        .filter(|r| {
            !records.iter().any(|q| {
                group(q) == group(r)
                    && q.eval.accuracy >= r.eval.accuracy
                    && (q.eval.cycles < r.eval.cycles
                        || (q.eval.cycles == r.eval.cycles && q.cell_index < r.cell_index))
            })
        })
        .map(|r| r.cell_index)
        .collect()
}

/// serve-mixed's grid shape on a small synthetic network: five array axes
/// (32, 64, 128, 64×128 with a 6-bit ADC, 128×64 with a 3-bit ADC) × the
/// Fig. 6 strategies plus `sdk` and DoReFa 2/4. Two axes share 64 rows and
/// two share 128, so panels differ by axis position, not by row count.
fn serve_grid(seed: u64) -> Experiment {
    let mut strategies = fig6_experiment(&resnet20(), 64, seed)
        .to_spec()
        .expect("built-ins serialize")
        .strategies;
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
    ExperimentSpec {
        seed,
        precision: Precision::F64,
        parallelism: None,
        cache: true,
        cells: None,
        frontier: false,
        synthetic_networks: Vec::new(),
        networks: vec!["synthetic:depthwise-heavy-d4-w4".to_owned()],
        arrays: vec![
            ArrayAxis::square(32),
            ArrayAxis::square(64),
            ArrayAxis::square(128),
            axis(64, 128, 6),
            axis(128, 64, 3),
        ],
        strategies,
    }
    .into_experiment(&Registry::new())
    .expect("the grid resolves")
}

/// One certified grid: its builder at a seed, the strategy index each of
/// its method series starts at (then the strategy count), and its size.
struct Case {
    name: &'static str,
    build: fn(u64) -> Experiment,
    series_starts: &'static [usize],
    grid_cells: usize,
}

fn cases() -> Vec<Case> {
    vec![
        // The im2col baseline, the 16-cell low-rank grid, PatDNN entries
        // 1..=8, PAIRS entries 1..=8.
        Case {
            name: "fig6",
            build: |seed| fig6_experiment(&resnet20(), 64, seed),
            series_starts: &[0, 1, 17, 25, 33],
            grid_cells: 33,
        },
        // The low-rank grid with im2col mapping, then with SDK mapping, on
        // two arrays.
        Case {
            name: "table1",
            build: |seed| table1_experiment(&resnet20(), seed),
            series_starts: &[0, 16, 32],
            grid_cells: 64,
        },
        // The fig6 series, then the `sdk` singleton and DoReFa 2/4.
        Case {
            name: "serve grid",
            build: serve_grid,
            series_starts: &[0, 1, 17, 25, 33, 34, 36],
            grid_cells: 180,
        },
        // DoReFa at 1..=4 bits and 8 bits, one series on two arrays: the
        // 8-bit cell costs more cycles than the 4-bit one for no accuracy,
        // so it is off the front only if the bit widths share a series.
        Case {
            name: "fig8 with 8 bits",
            build: |seed| fig8_experiment(seed).method(CompressionMethod::Quantized { bits: 8 }),
            series_starts: &[0, 5],
            grid_cells: 10,
        },
    ]
}

#[test]
fn frontier_is_certified_against_the_exhaustive_front_in_both_precisions() {
    for case in cases() {
        for seed in [DEFAULT_SEED, 1] {
            for precision in [Precision::F64, Precision::F32] {
                let what = format!("{} at seed {seed} in {precision:?}", case.name);
                let grid = || (case.build)(seed).precision(precision);
                // The exhaustive run warms the session; the warm frontier
                // runs below reuse its cache entries.
                let session = EvalSession::builder().precision(precision).build();
                let exhaustive = grid().run_in(&session).expect("exhaustive run");
                let expected = reference_front_cells(&exhaustive, case.series_starts);

                // Cold (a fresh cache) and warm, at 1, 2 and 4 workers: one
                // set of bytes.
                let cold = grid()
                    .frontier_mode(true)
                    .frontier()
                    .expect("cold frontier");
                let bytes = cold.run.to_jsonl().unwrap();
                for workers in [1, 2, 4] {
                    let warm = grid()
                        .frontier_mode(true)
                        .parallelism_override(workers)
                        .frontier_in(&session)
                        .expect("warm frontier");
                    assert_eq!(
                        warm.run.to_jsonl().unwrap(),
                        bytes,
                        "{what}: a warm run at {workers} workers must give the cold run's bytes"
                    );
                }

                // The frontier is exactly the reference front, in canonical
                // order.
                assert_eq!(cold.grid_cells, case.grid_cells, "{what}");
                let got: Vec<usize> = cold.run.records().iter().map(|r| r.cell_index).collect();
                assert_eq!(
                    got, expected,
                    "{what}: frontier must select exactly the per-series Pareto cells"
                );

                // Every frontier record is byte-identical to its exhaustive
                // twin.
                let exhaustive_lines: HashMap<usize, String> = exhaustive
                    .records()
                    .iter()
                    .map(|r| (r.cell_index, r.to_json_line().unwrap()))
                    .collect();
                for record in cold.run.records() {
                    assert_eq!(
                        record.to_json_line().unwrap(),
                        exhaustive_lines[&record.cell_index],
                        "{what}: cell {} must match the exhaustive record exactly",
                        record.cell_index
                    );
                }

                // The manifest records the provenance a consumer needs.
                let manifest = cold.run.manifest().expect("frontier manifest");
                assert!(
                    manifest.frontier,
                    "{what}: manifest must mark the run as a frontier"
                );
                let exhaustive_manifest = exhaustive.manifest().expect("exhaustive manifest");
                assert_eq!(
                    manifest.spec_hash, exhaustive_manifest.spec_hash,
                    "{what}: same experiment identity, different traversal"
                );
                assert_eq!(manifest.cells, 0..case.grid_cells, "{what}");

                // `imc report fig6` parity: the frontier run renders the
                // identical panel (the exhaustive panel is already
                // front-filtered).
                if case.name == "fig6" {
                    let frontier_panel = fig6_panel_from_run(&cold.run).expect("frontier panel");
                    let exhaustive_panel =
                        fig6_panel_from_run(&exhaustive).expect("exhaustive panel");
                    assert_eq!(
                        fig6_markdown(&frontier_panel),
                        fig6_markdown(&exhaustive_panel),
                        "{what}: the fig6 report must not depend on the traversal"
                    );
                }
            }
        }
    }
}

#[test]
fn frontier_and_exhaustive_shards_refuse_to_merge() {
    let fig6 = || fig6_experiment(&resnet20(), 64, DEFAULT_SEED);
    let frontier = fig6()
        .frontier_mode(true)
        .frontier()
        .expect("frontier run")
        .run;
    let shard = fig6().cells(17..20).run().expect("shard");
    let err = ExperimentRun::merge([frontier, shard]).unwrap_err();
    assert!(
        err.to_string().contains("frontier"),
        "mixing must be named for what it is: {err}"
    );
}
