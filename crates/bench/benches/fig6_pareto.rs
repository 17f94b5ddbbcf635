//! Fig. 6 bench: regenerates the ResNet-20 / 64×64 panel once, benchmarks
//! the pruning-baseline cycle sweep it is compared against, and measures the
//! end-to-end panel sweep on one worker against the default of one worker
//! per hardware thread, each on a fresh decomposition cache per iteration.

use imc_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use imc_array::ArrayConfig;
use imc_core::CompressionConfig;
use imc_nn::resnet20;
use imc_pruning::{PairsPruning, PatternPruning};
use imc_sim::experiments::{fig6, DEFAULT_SEED};
use imc_sim::report::fig6_markdown;
use imc_sim::runtime::default_parallelism;
use imc_sim::{CompressionMethod, Experiment, ExperimentRun};
use imc_tensor::Tensor4;

fn pruning_cycle_sweep(array: &ArrayConfig) -> u64 {
    let arch = resnet20();
    let mut total = 0u64;
    for (index, (_, shape)) in arch.compressible_convs().iter().enumerate() {
        let weight = Tensor4::kaiming_for(shape, index as u64).expect("valid weight");
        for entries in 1..=8 {
            total += PatternPruning::new(entries)
                .expect("valid entries")
                .map_layer(shape, *array)
                .cycles();
            total += PairsPruning::new(entries)
                .expect("valid entries")
                .map_layer(shape, &weight, *array)
                .expect("mapping succeeds")
                .cycles();
        }
    }
    total
}

/// The Fig. 6 method grid (baseline + low-rank configs + PatDNN + PAIRS).
/// Kept in one place so the sweep benches and their cell count cannot drift
/// apart if the grid is ever resized.
fn fig6_methods() -> Vec<CompressionMethod> {
    let mut methods = vec![CompressionMethod::Uncompressed { sdk: false }];
    methods.extend(
        CompressionConfig::table1_grid(true)
            .into_iter()
            .map(CompressionMethod::LowRank),
    );
    methods.extend((1..=8).map(|entries| CompressionMethod::PatternPruning { entries }));
    methods.extend((1..=8).map(|entries| CompressionMethod::Pairs { entries }));
    methods
}

/// The full Fig. 6 method grid on one array size on `workers` threads.
fn fig6_sweep(workers: usize) -> ExperimentRun {
    Experiment::new()
        .network(resnet20())
        .array(64)
        .seed(DEFAULT_SEED)
        .methods(fig6_methods())
        .parallelism(workers)
        .run()
        .expect("sweep succeeds")
}

fn bench_fig6(c: &mut Criterion) {
    let panel = fig6(&resnet20(), 64, DEFAULT_SEED).expect("panel evaluation succeeds");
    println!(
        "\n== Fig. 6 (ResNet-20, 64x64, regenerated) ==\n{}",
        fig6_markdown(&panel)
    );

    let array = ArrayConfig::square(64).expect("valid array");
    c.bench_function("fig6_pruning_cycle_sweep_resnet20_64", |b| {
        b.iter(|| pruning_cycle_sweep(black_box(&array)))
    });

    // The serial and the parallel sweep of the same grid; both produce
    // byte-identical records. (The parallel row keeps its historical name.)
    let cells = fig6_methods().len() as u64;
    c.bench_function("fig6_sweep_resnet20_64_serial", |b| {
        b.throughput(cells);
        b.iter(|| fig6_sweep(1))
    });
    c.bench_function("fig6_sweep_resnet20_64_parallel_cached", |b| {
        b.throughput(cells);
        b.iter(|| fig6_sweep(default_parallelism()))
    });
}

criterion_group!(fig6_bench, bench_fig6);
criterion_main!(fig6_bench);
