//! Fig. 7 bench: regenerates the ResNet-20 normalized-energy bars once and
//! benchmarks the energy-model evaluation of the three access schedules.

use imc_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use imc_core::{CompressionConfig, RankSpec};
use imc_energy::EnergyParams;
use imc_nn::resnet20;
use imc_sim::experiments::{fig7, DEFAULT_SEED};
use imc_sim::report::fig7_markdown;
use imc_sim::{CompressionMethod, Experiment};

fn bench_fig7(c: &mut Criterion) {
    let bars = fig7(&resnet20(), DEFAULT_SEED).expect("energy evaluation succeeds");
    println!(
        "\n== Fig. 7 (ResNet-20, regenerated) ==\n{}",
        fig7_markdown(&bars)
    );

    // Pre-build the three evaluations; the timed loop exercises only the
    // energy model itself (the part specific to Fig. 7).
    let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).expect("valid config");
    let evals = Experiment::new()
        .network(resnet20())
        .array(64)
        .seed(DEFAULT_SEED)
        .method(CompressionMethod::Uncompressed { sdk: false })
        .method(CompressionMethod::PatternPruning { entries: 6 })
        .method(CompressionMethod::LowRank(cfg))
        .run()
        .expect("three evaluations")
        .into_evaluations();
    let params = EnergyParams::default();
    c.bench_function("fig7_energy_model_three_methods", |b| {
        b.iter(|| {
            evals
                .iter()
                .map(|e| e.energy(black_box(&params)))
                .sum::<f64>()
        })
    });
}

criterion_group!(fig7_bench, bench_fig7);
criterion_main!(fig7_bench);
