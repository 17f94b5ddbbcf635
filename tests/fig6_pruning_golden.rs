//! Golden certification of the pruning baselines in ResNet-20's Fig. 6 grid.
//!
//! The 16 PatDNN and PAIRS cells of `fig6_experiment(&resnet20(), 64,
//! DEFAULT_SEED)` are pinned as exact `f64` cycles and modelled accuracy,
//! one row per cell in grid order. PAIRS derives both its shared pattern and
//! its relative error from the seeded weights, so any change to the pruning
//! arithmetic that moves a single bit fails here with the cell named.
//!
//! Regenerate the table after an *intentional* model change with
//!
//! ```text
//! cargo test --test fig6_pruning_golden regenerate -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `GOLDEN`.

use imc::sim::experiments::{fig6_experiment, DEFAULT_SEED};
use imc::{resnet20, Experiment, ExperimentRun};

/// The PatDNN and PAIRS series are the last 16 cells of the Fig. 6 grid.
const PRUNING_CELLS: usize = 16;

/// One golden grid cell: strategy label, exact `f64` cycles, exact `f64`
/// modelled accuracy.
type GoldenRow = (&'static str, f64, f64);

macro_rules! golden_rows {
    ($(($method:literal) => $cycles:literal @ $accuracy:literal,)*) => {
        &[$(($method, $cycles, $accuracy),)*]
    };
}

/// The certified cells at `DEFAULT_SEED`, in grid order. Regenerate with the
/// ignored `regenerate` test.
#[rustfmt::skip]
const GOLDEN: &[GoldenRow] = golden_rows![
    ("PatDNN pattern pruning (1 entries)") => 9089.0 @ 78.49021203889816,
    ("PatDNN pattern pruning (2 entries)") => 9409.0 @ 82.08486411751416,
    ("PatDNN pattern pruning (3 entries)") => 11073.0 @ 85.02731680669189,
    ("PatDNN pattern pruning (4 entries)") => 11393.0 @ 87.3566611939307,
    ("PatDNN pattern pruning (5 entries)") => 19457.0 @ 89.11615965048992,
    ("PatDNN pattern pruning (6 entries)") => 19777.0 @ 90.3547093996848,
    ("PatDNN pattern pruning (7 entries)") => 21441.0 @ 91.12940025421007,
    ("PatDNN pattern pruning (8 entries)") => 21761.0 @ 91.51083802113882,
    ("PAIRS (1 entries)") => 3713.0 @ 78.63812267302492,
    ("PAIRS (2 entries)") => 5569.0 @ 82.29004344176023,
    ("PAIRS (3 entries)") => 8193.0 @ 85.23667059849072,
    ("PAIRS (4 entries)") => 9217.0 @ 87.52810249963066,
    ("PAIRS (5 entries)") => 10881.0 @ 89.23497473254706,
    ("PAIRS (6 entries)") => 12609.0 @ 90.42412033858834,
    ("PAIRS (7 entries)") => 13377.0 @ 91.15940901064054,
    ("PAIRS (8 entries)") => 14337.0 @ 91.51839126469437,
];

/// The pruning cells of the ResNet-20 / 64×64 Fig. 6 grid.
fn pruning_cells() -> Experiment {
    let experiment = fig6_experiment(&resnet20(), 64, DEFAULT_SEED);
    let total = experiment.grid_cells();
    experiment.cells(total - PRUNING_CELLS..total)
}

fn run() -> ExperimentRun {
    pruning_cells().run().expect("fig6 pruning cells run")
}

#[test]
fn golden_table_certifies_every_resnet20_fig6_pruning_cell() {
    assert_eq!(GOLDEN.len(), PRUNING_CELLS, "one golden row per cell");
    let run = run();
    assert_eq!(run.records().len(), PRUNING_CELLS);
    for (record, &(method, cycles, accuracy)) in run.records().iter().zip(GOLDEN) {
        assert_eq!(record.eval.method, method, "strategy order");
        assert_eq!(
            record.eval.cycles.to_bits(),
            cycles.to_bits(),
            "{method}: cycles {} != golden {cycles}",
            record.eval.cycles
        );
        assert_eq!(
            record.eval.accuracy.to_bits(),
            accuracy.to_bits(),
            "{method}: accuracy {} != golden {accuracy}",
            record.eval.accuracy
        );
    }
}

/// Regeneration helper (ignored): prints the golden rows in source form.
#[test]
#[ignore = "regenerates the golden table; run with --ignored --nocapture"]
fn regenerate() {
    for record in run().records() {
        println!(
            "    (\"{}\") => {:?} @ {:?},",
            record.eval.method, record.eval.cycles, record.eval.accuracy
        );
    }
}
