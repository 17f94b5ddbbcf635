//! Micro-benchmarks of the computational kernels underneath every
//! experiment: SVD, group decomposition, SDK matrix construction and the
//! parallel-window searches.

use imc_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use imc_array::{sdk_matrix, search_best_window, ArrayConfig, ParallelWindow};
use imc_bench::{stage1_layer, stage3_layer};
use imc_core::{
    search_lowrank_window, CompressionConfig, DecompCache, GroupLowRank, LayerCompression,
    LowRankFactors, RankSpec,
};
use imc_linalg::{uniform_matrix, Svd};

fn bench_kernels(c: &mut Criterion) {
    let (shape1, weight1) = stage1_layer();
    let (shape3, weight3) = stage3_layer();
    let w1 = weight1.to_im2col_matrix();
    let w3 = weight3.to_im2col_matrix();
    let array = ArrayConfig::square(64).expect("valid array");

    c.bench_function("svd_16x144", |b| {
        b.scalar("f64");
        b.iter(|| Svd::compute(black_box(&w1)).expect("SVD converges"))
    });
    c.bench_function("svd_64x576", |b| {
        b.scalar("f64");
        b.iter(|| Svd::compute(black_box(&w3)).expect("SVD converges"))
    });
    c.bench_function("svd_values_64x576", |b| {
        b.scalar("f64");
        b.iter(|| Svd::singular_values_of(black_box(&w3)).expect("SVD converges"))
    });
    c.bench_function("lowrank_factors_64x576_k8", |b| {
        b.scalar("f64");
        b.iter(|| LowRankFactors::compute(black_box(&w3), 8).expect("valid rank"))
    });
    c.bench_function("group_lowrank_64x576_g4_k8", |b| {
        b.scalar("f64");
        b.iter(|| GroupLowRank::compute(black_box(&w3), 4, 8).expect("valid config"))
    });
    c.bench_function("sdk_matrix_16x144_pw4x4", |b| {
        b.iter(|| sdk_matrix(black_box(&w1), &shape1, ParallelWindow::new(4, 4)).expect("valid"))
    });
    c.bench_function("vwsdk_window_search_stage1", |b| {
        b.iter(|| search_best_window(black_box(&shape1), array).expect("search succeeds"))
    });
    c.bench_function("lowrank_window_search_stage3_g4_k8", |b| {
        b.iter(|| search_lowrank_window(black_box(&shape3), 8, 4, &array).expect("search succeeds"))
    });
}

/// The cache-aware dense kernels underneath the decomposition path.
fn bench_dense_kernels(c: &mut Criterion) {
    let a = uniform_matrix(256, 512, -1.0, 1.0, 1);
    let b_mat = uniform_matrix(512, 256, -1.0, 1.0, 2);
    let macs = (a.rows() * a.cols() * b_mat.cols()) as u64;
    c.bench_function("matmul_256x512_512x256", |bench| {
        bench.scalar("f64");
        bench.throughput(macs);
        bench.iter(|| {
            black_box(&a)
                .matmul(black_box(&b_mat))
                .expect("shapes match")
        })
    });

    let tall = uniform_matrix(2304, 256, -1.0, 1.0, 3);
    c.bench_function("transpose_2304x256", |bench| {
        bench.scalar("f64");
        bench.throughput((tall.rows() * tall.cols()) as u64);
        bench.iter(|| black_box(&tall).transpose())
    });

    let (_, weight3) = stage3_layer();
    let w3 = weight3.to_im2col_matrix();
    c.bench_function("hstack_4_blocks_64x144", |bench| {
        let blocks = w3.split_cols(4).expect("valid split");
        bench.iter(|| imc_linalg::Matrix::hstack(black_box(&blocks)).expect("valid stack"))
    });
}

/// The shared decomposition cache against the recompute-per-cell pattern it
/// replaces: a rank sweep over one layer. The cached row is the sweep's own
/// path — one values-only SVD per (layer, group) pair, every rank scored
/// from the block spectra, plus the mapping searches.
fn bench_decomposition_cache(c: &mut Criterion) {
    let (shape3, weight3) = stage3_layer();
    let w3 = weight3.to_im2col_matrix();
    c.bench_function("rank_sweep_64x576_g4_uncached", |b| {
        b.iter(|| {
            for k in [2usize, 4, 8, 16] {
                black_box(GroupLowRank::compute(black_box(&w3), 4, k).expect("valid config"));
            }
        })
    });
    let array = ArrayConfig::square(64).expect("valid array");
    c.bench_function("rank_sweep_64x576_g4_cached", |b| {
        b.iter(|| {
            let cache = DecompCache::new();
            for k in [2usize, 4, 8, 16] {
                let config =
                    CompressionConfig::new(RankSpec::Absolute(k), 4, true).expect("valid config");
                black_box(
                    LayerCompression::compress(&shape3, &config, array, 11, &cache)
                        .expect("valid config"),
                );
            }
        })
    });
}

criterion_group!(
    kernels,
    bench_kernels,
    bench_dense_kernels,
    bench_decomposition_cache
);
criterion_main!(kernels);
