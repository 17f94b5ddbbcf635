//! Fig. 9 bench: regenerates the ResNet-20 half of the proposed-vs-traditional
//! comparison once and benchmarks the two-stage cycle model that separates
//! the two methods.

use imc_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use imc_array::ArrayConfig;
use imc_core::{lowrank_im2col_cycles, search_lowrank_window, CompressionConfig, RankSpec};
use imc_nn::resnet20;
use imc_sim::experiments::{fig9_for, DEFAULT_SEED};
use imc_sim::report::fig9_markdown;

fn proposed_vs_traditional_cycles(array: &ArrayConfig) -> (u64, u64) {
    let arch = resnet20();
    let mut traditional = 0u64;
    let mut proposed = 0u64;
    for (_, shape) in arch.compressible_convs() {
        for rank in RankSpec::paper_divisors() {
            let (g1, k1) = CompressionConfig::traditional(rank)
                .resolve(shape)
                .expect("valid config");
            traditional += lowrank_im2col_cycles(shape, k1, g1, array)
                .expect("valid config")
                .total();
            let proposed_config = CompressionConfig {
                rank,
                groups: 4,
                use_sdk: true,
            };
            let (g4, k4) = proposed_config.resolve(shape).expect("valid config");
            proposed += search_lowrank_window(shape, k4, g4, array)
                .expect("search succeeds")
                .total();
        }
    }
    (traditional, proposed)
}

fn bench_fig9(c: &mut Criterion) {
    let rows = fig9_for(&resnet20(), 64, DEFAULT_SEED).expect("comparison succeeds");
    println!(
        "\n== Fig. 9 (ResNet-20, regenerated) ==\n{}",
        fig9_markdown(&rows)
    );

    let array = ArrayConfig::square(64).expect("valid array");
    c.bench_function("fig9_proposed_vs_traditional_cycles", |b| {
        b.iter(|| proposed_vs_traditional_cycles(black_box(&array)))
    });
}

criterion_group!(fig9_bench, bench_fig9);
criterion_main!(fig9_bench);
