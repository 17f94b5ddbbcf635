//! PatDNN-style per-kernel pattern pruning.
//!
//! Each `IC`-slice of every output-channel kernel keeps its `entries`
//! largest-magnitude positions (a "pattern"); the rest are zeroed. On a
//! crossbar the surviving weights of different columns no longer share rows,
//! so exploiting the sparsity requires per-column input realignment through
//! multiplexers ([`crate::Peripheral::Mux`]); with that hardware in place the
//! effective wordline count per column shrinks to `entries · IC`.

use imc_linalg::Matrix;
use imc_tensor::{ConvShape, Tensor4};

use imc_array::ArrayConfig;

use crate::mask;
use crate::types::{Peripheral, PrunedLayer};
use crate::{Error, Result};

/// Configuration of PatDNN-style pattern pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternPruning {
    /// Number of kernel positions kept per `K_h × K_w` kernel slice
    /// (the paper sweeps 1 through 8 for 3×3 kernels).
    pub entries: usize,
}

impl PatternPruning {
    /// Creates a pattern-pruning configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `entries` is zero.
    pub fn new(entries: usize) -> Result<Self> {
        if entries == 0 {
            return Err(Error::InvalidConfig {
                what: "pattern must keep at least one entry".to_owned(),
            });
        }
        Ok(Self { entries })
    }

    /// The entry counts swept in the paper's Fig. 6 (1 through 8).
    pub fn paper_sweep() -> Vec<Self> {
        (1..=8).map(|entries| Self { entries }).collect()
    }

    /// Applies the pattern to a weight tensor, returning the pruned tensor.
    ///
    /// Positions are chosen per (output-channel, input-channel) kernel slice
    /// by magnitude, which is the per-kernel pattern selection of PatDNN.
    pub fn prune_tensor(&self, weight: &Tensor4) -> Tensor4 {
        mask::prune(weight, &self.kept_mask(weight))
    }

    /// Relative Frobenius error introduced by pruning `weight`, in one pass
    /// over the weights in storage order. For finite weights it equals the
    /// Frobenius norm of the im2col difference between the weights and
    /// [`PatternPruning::prune_tensor`], over the weights' norm, bit for bit.
    pub fn relative_error(&self, weight: &Tensor4) -> f64 {
        mask::relative_error(weight, &self.kept_mask(weight))
    }

    /// The kept mask of every kernel slice, in storage order: the slice's
    /// `entries` largest magnitudes, ties to the lower position (a stable
    /// descending sort).
    fn kept_mask(&self, weight: &Tensor4) -> Vec<bool> {
        let area = weight.kernel_h() * weight.kernel_w();
        let mut kept = vec![false; weight.len()];
        let mut order: Vec<usize> = Vec::with_capacity(area);
        for (slice, mask) in weight
            .as_slice()
            .chunks_exact(area)
            .zip(kept.chunks_exact_mut(area))
        {
            order.clear();
            order.extend(0..area);
            order.sort_by(|&a, &b| {
                slice[b]
                    .abs()
                    .partial_cmp(&slice[a].abs())
                    .unwrap_or(core::cmp::Ordering::Equal)
            });
            for &position in order.iter().take(self.entries) {
                mask[position] = true;
            }
        }
        kept
    }

    /// Shape-level mapping summary of the pruned layer on `array`, assuming
    /// MUX-based realignment so that every column only activates its
    /// `entries · IC` surviving rows.
    pub fn map_layer(&self, shape: &ConvShape, array: ArrayConfig) -> PrunedLayer {
        let kernel_elems = shape.kernel_h * shape.kernel_w;
        let keep = self.entries.min(kernel_elems);
        let rows_used = keep * shape.in_channels;
        PrunedLayer {
            rows_used,
            cols_used: shape.out_channels,
            loads: shape.output_pixels(),
            removed_fraction: 1.0 - keep as f64 / kernel_elems as f64,
            relative_error: (1.0 - keep as f64 / kernel_elems as f64).sqrt(),
            peripheral: Peripheral::Mux,
            array,
        }
    }

    /// Shape-level mapping summary together with the measured (not modelled)
    /// relative error of pruning the given weights.
    pub fn map_layer_with_weights(
        &self,
        shape: &ConvShape,
        weight: &Tensor4,
        array: ArrayConfig,
    ) -> PrunedLayer {
        let mut layer = self.map_layer(shape, array);
        layer.relative_error = self.relative_error(weight);
        layer
    }

    /// Pruned weight matrix in im2col orientation (`m × n`).
    pub fn prune_matrix(&self, weight: &Tensor4) -> Matrix {
        self.prune_tensor(weight).to_im2col_matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> (ConvShape, Tensor4) {
        let shape = ConvShape::square(16, 16, 3, 1, 1, 32).unwrap();
        let weight = Tensor4::kaiming_for(&shape, 9).unwrap();
        (shape, weight)
    }

    #[test]
    fn config_validation_and_sweep() {
        assert!(PatternPruning::new(0).is_err());
        assert!(PatternPruning::new(4).is_ok());
        assert_eq!(PatternPruning::paper_sweep().len(), 8);
    }

    #[test]
    fn pruned_tensor_keeps_exactly_entries_per_kernel_slice() {
        let (_, weight) = layer();
        let pruned = PatternPruning::new(4).unwrap().prune_tensor(&weight);
        for o in 0..weight.out_channels() {
            for i in 0..weight.in_channels() {
                let nonzero = (0..3)
                    .flat_map(|r| (0..3).map(move |c| (r, c)))
                    .filter(|&(r, c)| pruned.get(o, i, r, c) != 0.0)
                    .count();
                assert!(nonzero <= 4);
            }
        }
    }

    #[test]
    fn keeping_all_entries_changes_nothing() {
        let (_, weight) = layer();
        let pruned = PatternPruning::new(9).unwrap().prune_tensor(&weight);
        assert_eq!(pruned, weight);
        assert_eq!(PatternPruning::new(9).unwrap().relative_error(&weight), 0.0);
    }

    #[test]
    fn error_decreases_with_more_entries() {
        let (_, weight) = layer();
        let mut prev = f64::INFINITY;
        for entries in 1..=9 {
            let err = PatternPruning::new(entries)
                .unwrap()
                .relative_error(&weight);
            assert!(err <= prev + 1e-12, "entries {entries}");
            prev = err;
        }
    }

    #[test]
    fn magnitude_pruning_beats_energy_fraction_bound() {
        // Keeping the largest-magnitude entries must remove at most the
        // average energy fraction (1 - e/9).
        let (_, weight) = layer();
        for entries in [2, 4, 6] {
            let measured = PatternPruning::new(entries)
                .unwrap()
                .relative_error(&weight);
            let bound = (1.0 - entries as f64 / 9.0).sqrt();
            assert!(measured <= bound + 1e-9);
        }
    }

    #[test]
    fn mapping_shrinks_rows_and_requires_mux() {
        let (shape, _) = layer();
        let array = ArrayConfig::square(64).unwrap();
        let mapped = PatternPruning::new(3).unwrap().map_layer(&shape, array);
        assert_eq!(mapped.rows_used, 3 * 16);
        assert_eq!(mapped.cols_used, 16);
        assert_eq!(mapped.peripheral, Peripheral::Mux);
        // 48 rows fit into a single 64-row array: 1 x 1 x 1024 cycles.
        assert_eq!(mapped.cycles(), 1024);
    }

    #[test]
    fn pruned_mapping_is_faster_than_dense_im2col() {
        let (shape, _) = layer();
        let array = ArrayConfig::square(64).unwrap();
        let dense = imc_array::im2col_mapping(&shape, array).cycles();
        let pruned = PatternPruning::new(4)
            .unwrap()
            .map_layer(&shape, array)
            .cycles();
        assert!(pruned < dense);
    }

    #[test]
    fn measured_error_is_attached_when_weights_are_given() {
        let (shape, weight) = layer();
        let array = ArrayConfig::square(64).unwrap();
        let p = PatternPruning::new(4).unwrap();
        let mapped = p.map_layer_with_weights(&shape, &weight, array);
        assert!((mapped.relative_error - p.relative_error(&weight)).abs() < 1e-12);
    }
}
