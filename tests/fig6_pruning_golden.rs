//! Golden certification of ResNet-20's Fig. 6 grid on 64×64 arrays.
//!
//! The 16 low-rank cells and the 16 PatDNN and PAIRS cells of
//! `fig6_experiment(&resnet20(), 64, DEFAULT_SEED)` are pinned as exact
//! `f64` cycles and modelled accuracy, one row per cell in grid order. The
//! low-rank accuracies come from the per-block SVDs, and PAIRS derives both
//! its shared pattern and its relative error from the seeded weights, so any
//! change to the decomposition or pruning arithmetic that moves a single bit
//! fails here with the cell named.
//!
//! Regenerate the tables after an *intentional* model change with
//!
//! ```text
//! cargo test --test fig6_pruning_golden regenerate -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `LOWRANK_GOLDEN` and `PRUNING_GOLDEN`.

use std::ops::Range;

use imc::sim::experiments::{fig6_experiment, DEFAULT_SEED};
use imc::{resnet20, ExperimentRun};

/// The low-rank series follows the uncompressed baseline in cell 0.
const LOWRANK_CELLS: Range<usize> = 1..17;

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

/// The certified low-rank cells at `DEFAULT_SEED`, in grid order.
/// Regenerate with the ignored `regenerate` test.
#[rustfmt::skip]
const LOWRANK_GOLDEN: &[GoldenRow] = golden_rows![
    ("ours (g=1, k=m/2, SDK)") => 13505.0 @ 90.16647974812068,
    ("ours (g=1, k=m/4, SDK)") => 10961.0 @ 85.88121684490375,
    ("ours (g=1, k=m/8, SDK)") => 9513.0 @ 81.42593089319014,
    ("ours (g=1, k=m/16, SDK)") => 8533.0 @ 78.27352333687506,
    ("ours (g=2, k=m/2, SDK)") => 17409.0 @ 90.67278856154557,
    ("ours (g=2, k=m/4, SDK)") => 13505.0 @ 86.9741120545825,
    ("ours (g=2, k=m/8, SDK)") => 10961.0 @ 82.4763480426158,
    ("ours (g=2, k=m/16, SDK)") => 9513.0 @ 78.99186329400928,
    ("ours (g=4, k=m/2, SDK)") => 29185.0 @ 91.17010052855423,
    ("ours (g=4, k=m/4, SDK)") => 17409.0 @ 88.35298712495667,
    ("ours (g=4, k=m/8, SDK)") => 13505.0 @ 83.96294607061188,
    ("ours (g=4, k=m/16, SDK)") => 10961.0 @ 80.09514906240014,
    ("ours (g=8, k=m/2, SDK)") => 57345.0 @ 91.51422090447241,
    ("ours (g=8, k=m/4, SDK)") => 29185.0 @ 89.88430154835639,
    ("ours (g=8, k=m/8, SDK)") => 17409.0 @ 85.93942284906058,
    ("ours (g=8, k=m/16, SDK)") => 13505.0 @ 81.67974631617656,
];

/// The certified pruning cells at `DEFAULT_SEED`, in grid order. Regenerate
/// with the ignored `regenerate` test.
#[rustfmt::skip]
const PRUNING_GOLDEN: &[GoldenRow] = golden_rows![
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

/// The given cells of the ResNet-20 / 64×64 Fig. 6 grid.
fn run(cells: Range<usize>) -> ExperimentRun {
    fig6_experiment(&resnet20(), 64, DEFAULT_SEED)
        .cells(cells)
        .run()
        .expect("fig6 cells run")
}

fn pruning_cells() -> Range<usize> {
    let total = fig6_experiment(&resnet20(), 64, DEFAULT_SEED).grid_cells();
    total - PRUNING_CELLS..total
}

/// Asserts every record of `run` against its golden row, bit for bit.
fn assert_golden(run: &ExperimentRun, golden: &[GoldenRow]) {
    assert_eq!(run.records().len(), golden.len(), "one golden row per cell");
    for (record, &(method, cycles, accuracy)) in run.records().iter().zip(golden) {
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

#[test]
fn golden_table_certifies_every_resnet20_fig6_lowrank_cell() {
    assert_eq!(LOWRANK_GOLDEN.len(), LOWRANK_CELLS.len());
    assert_golden(&run(LOWRANK_CELLS), LOWRANK_GOLDEN);
}

#[test]
fn golden_table_certifies_every_resnet20_fig6_pruning_cell() {
    assert_eq!(PRUNING_GOLDEN.len(), PRUNING_CELLS);
    assert_golden(&run(pruning_cells()), PRUNING_GOLDEN);
}

/// Regeneration helper (ignored): prints both golden tables in source form.
#[test]
#[ignore = "regenerates the golden tables; run with --ignored --nocapture"]
fn regenerate() {
    for (name, cells) in [
        ("LOWRANK_GOLDEN", LOWRANK_CELLS),
        ("PRUNING_GOLDEN", pruning_cells()),
    ] {
        println!("{name}:");
        for record in run(cells).records() {
            println!(
                "    (\"{}\") => {:?} @ {:?},",
                record.eval.method, record.eval.cycles, record.eval.accuracy
            );
        }
    }
}
