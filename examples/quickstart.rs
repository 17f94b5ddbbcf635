//! Quickstart: compress a single ResNet-20 layer with the proposed method and
//! inspect every quantity the paper reasons about — reconstruction error
//! (Theorem 1), the SDK factorization identity (Theorem 2), computing cycles
//! and the headline network-level comparison.
//!
//! Run with `cargo run --release --example quickstart`.

use imc::array::{sdk_matrix, ParallelWindow};
use imc::core::{DecompCache, GroupLowRank, LayerCompression, LowRankFactors, SdkLowRank};
use imc::tensor::{ConvShape, Tensor4};
use imc::{resnet20, ArrayConfig, CompressionConfig, CompressionMethod, Experiment, RankSpec};

fn main() {
    // A stage-3 ResNet-20 layer: 64 -> 64 channels on an 8x8 feature map.
    let shape = ConvShape::square(64, 64, 3, 1, 1, 8).expect("valid layer shape");
    let weight = Tensor4::kaiming_for(&shape, 42).expect("valid weight tensor");
    let w = weight.to_im2col_matrix();
    let array = ArrayConfig::square(64).expect("valid array");

    println!("== Layer: 64x64 3x3 conv, 8x8 feature map, 64x64 IMC arrays ==\n");

    // Theorem 1: group low-rank error never exceeds the traditional error.
    let k = 8;
    let plain = LowRankFactors::compute(&w, k).expect("rank is valid");
    let grouped = GroupLowRank::compute(&w, 4, k).expect("groups and rank are valid");
    println!(
        "Theorem 1  —  relative reconstruction error at rank {k}:\n  traditional D(W):   {:.4}\n  grouped D_4(W):     {:.4}   (never larger)\n",
        plain.relative_error(&w).expect("shapes match"),
        grouped.relative_error(&w).expect("shapes match"),
    );

    // Theorem 2: D(SDK(W)) = (I_N (x) L) SDK(R), checked numerically.
    let window = ParallelWindow::new(4, 4);
    let sdk_lr = SdkLowRank::from_factors(&plain, &shape, window).expect("valid SDK mapping");
    let direct = sdk_matrix(&plain.reconstruct(), &shape, window).expect("valid SDK mapping");
    let identity_err = sdk_lr
        .composed()
        .sub(&direct)
        .expect("shapes match")
        .frobenius_norm();
    println!(
        "Theorem 2  —  || SDK(L*R) - SDK(R)*(I_N kron L^T) ||_F = {identity_err:.2e}  (numerically zero)\n"
    );

    // Cycle accounting for the compressed layer.
    let config = CompressionConfig::new(RankSpec::Divisor(8), 4, true).expect("valid config");
    let compressed = LayerCompression::compress(&shape, &config, array, 42, &DecompCache::new())
        .expect("compression succeeds");
    println!(
        "Layer cycles on 64x64 arrays:\n  im2col baseline:      {}\n  SDK baseline:         {}\n  ours ({}):  {}   ({:.2}x speed-up vs im2col)\n",
        compressed.baseline_im2col_cycles(),
        compressed.baseline_sdk_cycles(),
        config.label(),
        compressed.cycles(),
        compressed.speedup_vs_im2col(),
    );

    // Whole-network headline comparison on ResNet-20, via the builder facade:
    // one declarative sweep over the three compared methods.
    let run = Experiment::new()
        .network(resnet20())
        .array(64)
        .seed(2025)
        .method(CompressionMethod::Uncompressed { sdk: false })
        .method(CompressionMethod::PatternPruning { entries: 6 })
        .method(CompressionMethod::LowRank(config))
        .run()
        .expect("network sweep succeeds");
    println!("== ResNet-20 on 64x64 arrays (whole network) ==");
    for eval in run.evaluations() {
        println!(
            "  {:<38} {:>9.0} cycles   {:>5.1}% accuracy   {:>8} params",
            eval.method, eval.cycles, eval.accuracy, eval.parameters
        );
    }
    let evals: Vec<_> = run.evaluations().collect();
    let (baseline, pruned, ours) = (evals[0], evals[1], evals[2]);
    println!(
        "\nSpeed-up of ours vs im2col baseline: {:.2}x, vs 6-entry pattern pruning: {:.2}x",
        baseline.cycles / ours.cycles,
        pruned.cycles / ours.cycles,
    );
}
