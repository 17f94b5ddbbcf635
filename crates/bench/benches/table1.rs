//! Table I bench: regenerates the ResNet-20 half of Table I once (printed to
//! stdout) and benchmarks the cycle-model sweep that produces its cycle
//! columns.

use imc_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use imc_array::ArrayConfig;
use imc_core::{lowrank_im2col_cycles, search_lowrank_window, CompressionConfig};
use imc_nn::resnet20;
use imc_sim::experiments::{table1, DEFAULT_SEED};
use imc_sim::report::table1_markdown;

fn table1_cycle_sweep(array: &ArrayConfig) -> u64 {
    let arch = resnet20();
    let mut total = 0u64;
    for (_, shape) in arch.compressible_convs() {
        for config in CompressionConfig::table1_grid(true) {
            let (groups, k) = config.resolve(shape).expect("valid config");
            total += search_lowrank_window(shape, k, groups, array)
                .expect("search succeeds")
                .total();
            total += lowrank_im2col_cycles(shape, k, groups, array)
                .expect("valid config")
                .total();
        }
    }
    total
}

fn bench_table1(c: &mut Criterion) {
    // Regenerate the artifact once so `cargo bench` reproduces the table.
    let rows = table1(&resnet20(), DEFAULT_SEED).expect("Table I sweep succeeds");
    println!(
        "\n== Table I (ResNet-20, regenerated) ==\n{}",
        table1_markdown(&rows)
    );

    let array = ArrayConfig::square(64).expect("valid array");
    c.bench_function("table1_cycle_sweep_resnet20_64", |b| {
        b.iter(|| table1_cycle_sweep(black_box(&array)))
    });
}

criterion_group!(table1_bench, bench_table1);
criterion_main!(table1_bench);
