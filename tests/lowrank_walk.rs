//! The low-rank walk's error definition and its configuration guard.
//!
//! The walk scores every low-rank cell from the per-block singular values
//! alone (Eckart–Young: the truncation error of block `W_i` at rank `k` is
//! `Σ_{j>k} σ_j(W_i)²`). These tests pin that this is the error Table I
//! uses, bit for bit, and that it agrees with the reconstruction of real
//! factor matrices to rounding, on every ResNet-20 layer the walk compresses.

use imc::array::ArrayConfig;
use imc::core::{DecompCache, GroupErrorProfile, LayerCompression};
use imc::tensor::{ConvShape, LayerKind};
use imc::{resnet20, CompressionConfig, CompressionMethod, Experiment, RankSpec, DEFAULT_SEED};

/// Relative gap allowed between the tail formula and the reconstruction of
/// the truncated factors: both are exact in real arithmetic, so they differ
/// by rounding only.
const TAIL_VS_RECONSTRUCTION: f64 = 1e-12;

/// ResNet-20's compressible convolutions with the weight seed the
/// evaluation walk gives each: the layer's position in the network (stem
/// included) mixed into the experiment seed.
fn walk_layers(seed: u64) -> Vec<(ConvShape, u64)> {
    resnet20()
        .layers
        .iter()
        .enumerate()
        .filter(|(_, layer)| layer.kind == LayerKind::Conv && layer.compressible)
        .map(|(index, layer)| {
            let shape = layer.conv.expect("conv layers carry a conv shape");
            (
                shape,
                seed.wrapping_add(index as u64).wrapping_mul(0x9E37_79B9),
            )
        })
        .collect()
}

#[test]
fn walk_errors_are_table1_tails_and_match_the_reconstruction() {
    let array = ArrayConfig::square(64).unwrap();
    let cache = DecompCache::new();
    let layers = walk_layers(DEFAULT_SEED);
    assert_eq!(layers.len(), 18, "ResNet-20 compresses 18 convolutions");
    let mut worst: f64 = 0.0;
    for (shape, seed) in layers {
        let matrix = cache.im2col_matrix(&shape, seed).unwrap();
        for groups in [1, 2, 4, 8] {
            // Table I's profile, computed outside the cache.
            let table1 = GroupErrorProfile::compute(&matrix, groups).unwrap();
            for rank in RankSpec::paper_divisors() {
                let config = CompressionConfig::new(rank, groups, true).unwrap();
                let (g, k) = config.resolve(&shape).unwrap();
                let label = format!("{shape:?} seed {seed:#x} g={g} k={k}");
                let walk = LayerCompression::compress(&shape, &config, array, seed, &cache)
                    .unwrap()
                    .relative_error();
                assert_eq!(
                    walk.to_bits(),
                    table1.relative_error_for_rank(k).to_bits(),
                    "{label}: the walk and Table I must share one error definition"
                );
                let reconstruction = cache.decomposition(&shape, seed, g, k).unwrap();
                let gap = (walk - reconstruction.relative_error).abs();
                assert!(
                    gap <= TAIL_VS_RECONSTRUCTION * reconstruction.relative_error,
                    "{label}: tail {walk} vs reconstruction {}",
                    reconstruction.relative_error
                );
                worst = worst.max(gap / reconstruction.relative_error);
            }
        }
    }
    // The walk built no factors; only the oracle above did.
    let stats = cache.cache_stats();
    assert_eq!(stats.block_svds.misses, 72);
    assert_eq!(stats.decompositions.misses, 288);
    eprintln!("largest relative tail-vs-reconstruction gap: {worst:.3e}");
}

#[test]
fn a_zero_group_count_is_a_classified_error_on_every_path() {
    // The fields are public, so a literal can skip `CompressionConfig::new`.
    let zero = CompressionConfig {
        rank: RankSpec::Divisor(8),
        groups: 0,
        use_sdk: true,
    };
    let is_invalid_config = |err: &imc::sim::Error| {
        matches!(
            err,
            imc::sim::Error::Core(imc::core::Error::InvalidConfig { .. })
        )
    };
    let experiment = |workers: usize| {
        Experiment::new()
            .network(resnet20())
            .array(64)
            .method(CompressionMethod::LowRank(zero))
            .parallelism(workers)
    };
    for workers in [1, 2] {
        let err = experiment(workers).run().unwrap_err();
        assert!(is_invalid_config(&err), "run, workers={workers}: {err:?}");
    }
    let err = experiment(1).frontier().unwrap_err();
    assert!(is_invalid_config(&err), "frontier: {err:?}");

    let (shape, seed) = walk_layers(DEFAULT_SEED)[0];
    let array = ArrayConfig::square(64).unwrap();
    let err =
        LayerCompression::compress(&shape, &zero, array, seed, &DecompCache::new()).unwrap_err();
    assert!(
        matches!(err, imc::core::Error::InvalidConfig { .. }),
        "compress: {err:?}"
    );
}
