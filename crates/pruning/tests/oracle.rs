//! The single-pass pattern baselines against the formulation they replaced.
//!
//! `PairsPruning` scores its shared pattern and both pattern baselines
//! measure their relative error in one pass over the weights in storage
//! order. The oracles below are the earlier formulation, kept as the
//! reference: a nested-loop score over `(o, i, r, c)`, and the error of a
//! cloned, zeroed tensor through two im2col matrices, their difference and
//! its Frobenius norm. Every single-pass result must carry the oracle's
//! exact bits on every compressible conv shape of ResNet-20 and of the four
//! synthetic scenarios, for 1 through `K_h·K_w + 1` kept entries and
//! several seeds.

use imc_array::ArrayConfig;
use imc_nn::resnet20;
use imc_pruning::{PairsPruning, PatternPruning};
use imc_sim::synth::SCENARIOS;
use imc_tensor::{ConvShape, Tensor4};

const SEEDS: [u64; 3] = [1, 31, 2025];

/// Every distinct compressible conv shape of ResNet-20 and of the curated
/// synthetic scenarios at their defaults.
fn shapes() -> Vec<ConvShape> {
    let mut networks = vec![resnet20()];
    networks.extend(
        SCENARIOS
            .iter()
            .map(|s| s.default_spec().build().expect("curated scenario builds")),
    );
    let mut shapes: Vec<ConvShape> = Vec::new();
    for network in &networks {
        for (_, &shape) in network.compressible_convs() {
            if !shapes.contains(&shape) {
                shapes.push(shape);
            }
        }
    }
    shapes
}

/// Runs `check` on every (shape, seeded weight, entries) case the oracles
/// are compared on.
fn for_each_case(mut check: impl FnMut(&ConvShape, &Tensor4, usize)) {
    for shape in shapes() {
        for seed in SEEDS {
            let weight = Tensor4::kaiming_for(&shape, seed).expect("valid weight");
            for entries in 1..=shape.kernel_h * shape.kernel_w + 1 {
                check(&shape, &weight, entries);
            }
        }
    }
}

/// PAIRS's shared pattern, scored by a nested loop over `(o, i, r, c)`.
fn oracle_pattern(weight: &Tensor4, entries: usize) -> Vec<(usize, usize)> {
    let mut scores = vec![0.0_f64; weight.kernel_h() * weight.kernel_w()];
    for o in 0..weight.out_channels() {
        for i in 0..weight.in_channels() {
            for r in 0..weight.kernel_h() {
                for c in 0..weight.kernel_w() {
                    scores[r * weight.kernel_w() + c] += weight.get(o, i, r, c).abs();
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    order
        .into_iter()
        .take(entries.min(scores.len()))
        .map(|idx| (idx / weight.kernel_w(), idx % weight.kernel_w()))
        .collect()
}

/// A clone of `weight` with every position outside `pattern` zeroed.
fn oracle_pairs_pruned(weight: &Tensor4, pattern: &[(usize, usize)]) -> Tensor4 {
    let mut pruned = weight.clone();
    for o in 0..weight.out_channels() {
        for i in 0..weight.in_channels() {
            for r in 0..weight.kernel_h() {
                for c in 0..weight.kernel_w() {
                    if !pattern.contains(&(r, c)) {
                        pruned.set(o, i, r, c, 0.0);
                    }
                }
            }
        }
    }
    pruned
}

/// A clone of `weight` keeping each kernel slice's `entries` largest
/// magnitudes (a stable descending sort of the slice's positions).
fn oracle_patdnn_pruned(weight: &Tensor4, entries: usize) -> Tensor4 {
    let mut pruned = weight.clone();
    for o in 0..weight.out_channels() {
        for i in 0..weight.in_channels() {
            let mut positions = Vec::new();
            for r in 0..weight.kernel_h() {
                for c in 0..weight.kernel_w() {
                    positions.push((r, c, weight.get(o, i, r, c).abs()));
                }
            }
            positions.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(core::cmp::Ordering::Equal));
            for &(r, c, _) in positions.iter().skip(entries) {
                pruned.set(o, i, r, c, 0.0);
            }
        }
    }
    pruned
}

/// `‖W − P‖ / ‖W‖` through the im2col matrices of both tensors.
fn oracle_error(weight: &Tensor4, pruned: &Tensor4) -> f64 {
    let w = weight.to_im2col_matrix();
    let p = pruned.to_im2col_matrix();
    let diff = w.sub(&p).expect("shapes match by construction");
    let norm = w.frobenius_norm();
    if norm > 0.0 {
        diff.frobenius_norm() / norm
    } else {
        0.0
    }
}

fn bits(tensor: &Tensor4) -> Vec<u64> {
    tensor.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn the_shapes_cover_every_kernel_kind_of_the_sweeps() {
    let shapes = shapes();
    for (kernel, what) in [(3, "3x3"), (5, "5x5"), (1, "1x1")] {
        assert!(
            shapes
                .iter()
                .any(|s| s.kernel_h == kernel && s.kernel_w == kernel),
            "no {what} conv"
        );
    }
    assert!(
        shapes.iter().any(|s| s.in_channels == 1 && s.kernel_h == 3),
        "no depthwise conv (IC = 1)"
    );
}

#[test]
fn pairs_pattern_and_error_match_the_oracle_bit_for_bit() {
    let array = ArrayConfig::square(64).expect("valid array");
    for_each_case(|shape, weight, entries| {
        let case = format!("{shape:?} entries {entries}");
        let pairs = PairsPruning::new(entries).expect("valid entries");
        let pattern = oracle_pattern(weight, entries);
        assert_eq!(pairs.shared_pattern(weight), pattern, "{case}: pattern");
        let pruned = oracle_pairs_pruned(weight, &pattern);
        assert_eq!(bits(&pairs.prune_tensor(weight)), bits(&pruned), "{case}");
        let error = oracle_error(weight, &pruned).to_bits();
        assert_eq!(pairs.relative_error(weight).to_bits(), error, "{case}");
        let mapped = pairs
            .map_layer(shape, weight, array)
            .expect("mapping succeeds");
        assert_eq!(mapped.relative_error.to_bits(), error, "{case}: map_layer");
    });
}

#[test]
fn patdnn_error_matches_the_oracle_bit_for_bit() {
    for_each_case(|shape, weight, entries| {
        let case = format!("{shape:?} entries {entries}");
        let patdnn = PatternPruning::new(entries).expect("valid entries");
        let pruned = oracle_patdnn_pruned(weight, entries);
        assert_eq!(bits(&patdnn.prune_tensor(weight)), bits(&pruned), "{case}");
        assert_eq!(
            patdnn.relative_error(weight).to_bits(),
            oracle_error(weight, &pruned).to_bits(),
            "{case}"
        );
    });
}

#[test]
fn keeping_every_entry_gives_a_positive_zero_error() {
    let array = ArrayConfig::square(64).expect("valid array");
    for shape in shapes() {
        let weight = Tensor4::kaiming_for(&shape, SEEDS[0]).expect("valid weight");
        let all = shape.kernel_h * shape.kernel_w;
        let pairs = PairsPruning::new(all).expect("valid entries");
        let patdnn = PatternPruning::new(all).expect("valid entries");
        let mapped = pairs
            .map_layer(&shape, &weight, array)
            .expect("mapping succeeds");
        for error in [
            pairs.relative_error(&weight),
            mapped.relative_error,
            patdnn.relative_error(&weight),
        ] {
            assert_eq!(error.to_bits(), 0.0_f64.to_bits(), "{shape:?}: {error:?}");
        }
    }
}
