//! PAIRS: pruning-aided row skipping for SDK-mapped layers.
//!
//! PAIRS (Rhe et al., ISLPED 2023) constrains pruning so that the *same*
//! kernel pattern is shared by every output channel (and every duplicated
//! kernel copy). In the SDK mapping a wordline can then be deactivated
//! whenever no shifted copy of the shared pattern touches it, so the cycle
//! benefit is realized with zero-skipping wordline drivers only — no
//! realignment multiplexers.

use imc_array::{ArrayConfig, ParallelWindow, SdkMapping};
use imc_tensor::{ConvShape, Tensor4};

use crate::mask;
use crate::types::{Peripheral, PrunedLayer};
use crate::{Error, Result};

/// Configuration of PAIRS pruning: a single pattern with `entries` kept
/// positions, shared by every kernel of the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairsPruning {
    /// Number of kernel positions kept in the shared pattern.
    pub entries: usize,
}

impl PairsPruning {
    /// Creates a PAIRS configuration.
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

    /// Chooses the shared pattern for a weight tensor: the `entries` kernel
    /// positions with the largest aggregate magnitude across all channels.
    /// Returns the kept positions as `(row, col)` pairs.
    ///
    /// One pass over the weights in storage order: each kernel slice adds
    /// `|w|` to its position's score, so every score sums its terms in
    /// `(out, in)` channel order, bit for bit as a nested loop over
    /// `(o, i, r, c)` does. Ties keep the lower position first.
    pub fn shared_pattern(&self, weight: &Tensor4) -> Vec<(usize, usize)> {
        let mut scores = vec![0.0_f64; weight.kernel_h() * weight.kernel_w()];
        for slice in weight.as_slice().chunks_exact(scores.len()) {
            for (score, &x) in scores.iter_mut().zip(slice) {
                *score += x.abs();
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
            .take(self.entries.min(scores.len()))
            .map(|idx| (idx / weight.kernel_w(), idx % weight.kernel_w()))
            .collect()
    }

    /// Applies the shared pattern to the weight tensor.
    pub fn prune_tensor(&self, weight: &Tensor4) -> Tensor4 {
        mask::prune(weight, &slice_mask(weight, &self.shared_pattern(weight)))
    }

    /// Relative Frobenius error introduced by the shared-pattern pruning.
    ///
    /// One pass over the weights in storage order. For finite weights it
    /// equals the Frobenius norm of the im2col difference between the
    /// weights and [`PairsPruning::prune_tensor`], over the weights' norm,
    /// bit for bit.
    pub fn relative_error(&self, weight: &Tensor4) -> f64 {
        pattern_error(weight, &self.shared_pattern(weight))
    }

    /// Number of SDK wordlines still active per input channel for a given
    /// parallel window: the size of the union of the shared pattern shifted
    /// to every duplicated kernel position.
    pub fn active_rows_per_channel(
        &self,
        shape: &ConvShape,
        window: ParallelWindow,
        pattern: &[(usize, usize)],
    ) -> usize {
        let windows_h = (window.h.saturating_sub(shape.kernel_h)) / shape.stride + 1;
        let windows_w = (window.w.saturating_sub(shape.kernel_w)) / shape.stride + 1;
        let mut active = vec![false; window.h * window.w];
        for sy in 0..windows_h {
            for sx in 0..windows_w {
                for &(ky, kx) in pattern {
                    let py = sy * shape.stride + ky;
                    let px = sx * shape.stride + kx;
                    if py < window.h && px < window.w {
                        active[py * window.w + px] = true;
                    }
                }
            }
        }
        active.iter().filter(|&&a| a).count()
    }

    /// Maps the PAIRS-pruned layer onto arrays: SDK mapping whose all-zero
    /// rows are skipped by wordline deactivation. The parallel window is
    /// chosen by searching for the lowest post-skipping cycle count. The
    /// shared pattern is computed once and serves both the window search
    /// and the relative error.
    ///
    /// # Errors
    ///
    /// Propagates window-construction errors from the SDK layer.
    pub fn map_layer(
        &self,
        shape: &ConvShape,
        weight: &Tensor4,
        array: ArrayConfig,
    ) -> Result<PrunedLayer> {
        let pattern = self.shared_pattern(weight);
        let relative_error = pattern_error(weight, &pattern);
        let kernel_elems = shape.kernel_h * shape.kernel_w;
        let removed_fraction = 1.0 - pattern.len() as f64 / kernel_elems as f64;

        let mut best: Option<PrunedLayer> = None;
        for window in imc_array::vwsdk::candidate_windows(shape) {
            let sdk = SdkMapping::new(shape, window, array)?;
            let rows_used =
                self.active_rows_per_channel(shape, window, &pattern) * shape.in_channels;
            let candidate = PrunedLayer {
                rows_used,
                cols_used: sdk.mapped.cols_used,
                loads: sdk.mapped.loads,
                removed_fraction,
                relative_error,
                peripheral: Peripheral::ZeroSkip,
                array,
            };
            let better = match &best {
                None => true,
                Some(b) => candidate.cycles() < b.cycles(),
            };
            if better {
                best = Some(candidate);
            }
        }
        Ok(best.expect("candidate_windows always returns at least the kernel-sized window"))
    }
}

/// A shared pattern as the kept mask of one `K_h × K_w` kernel slice.
fn slice_mask(weight: &Tensor4, pattern: &[(usize, usize)]) -> Vec<bool> {
    let mut kept = vec![false; weight.kernel_h() * weight.kernel_w()];
    for &(r, c) in pattern {
        kept[r * weight.kernel_w() + c] = true;
    }
    kept
}

/// Relative error of pruning every kernel slice of `weight` to `pattern`.
fn pattern_error(weight: &Tensor4, pattern: &[(usize, usize)]) -> f64 {
    mask::relative_error(weight, &slice_mask(weight, pattern))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> (ConvShape, Tensor4) {
        let shape = ConvShape::square(16, 16, 3, 1, 1, 32).unwrap();
        let weight = Tensor4::kaiming_for(&shape, 31).unwrap();
        (shape, weight)
    }

    #[test]
    fn shared_pattern_has_requested_size() {
        let (_, weight) = layer();
        let p = PairsPruning::new(4).unwrap();
        assert_eq!(p.shared_pattern(&weight).len(), 4);
        let p9 = PairsPruning::new(9).unwrap();
        assert_eq!(p9.shared_pattern(&weight).len(), 9);
        assert!(PairsPruning::new(0).is_err());
    }

    #[test]
    fn shared_pattern_error_is_at_least_per_kernel_pattern_error() {
        // A single shared pattern is more restrictive than per-kernel
        // patterns, so its (pre-fine-tuning) error cannot be smaller.
        let (_, weight) = layer();
        for entries in [2, 4, 6] {
            let shared = PairsPruning::new(entries).unwrap().relative_error(&weight);
            let per_kernel = crate::pattern::PatternPruning::new(entries)
                .unwrap()
                .relative_error(&weight);
            assert!(shared >= per_kernel - 1e-12);
        }
    }

    #[test]
    fn active_rows_shrink_with_fewer_entries() {
        let (shape, weight) = layer();
        let window = ParallelWindow::new(4, 4);
        let full = PairsPruning::new(9).unwrap();
        let sparse = PairsPruning::new(2).unwrap();
        let full_rows = full.active_rows_per_channel(&shape, window, &full.shared_pattern(&weight));
        let sparse_rows =
            sparse.active_rows_per_channel(&shape, window, &sparse.shared_pattern(&weight));
        assert_eq!(full_rows, 16);
        assert!(sparse_rows < full_rows);
        assert!(sparse_rows >= 2);
    }

    #[test]
    fn pairs_mapping_uses_zero_skip_and_beats_dense_sdk() {
        let (shape, weight) = layer();
        let array = ArrayConfig::square(64).unwrap();
        let mapped = PairsPruning::new(4)
            .unwrap()
            .map_layer(&shape, &weight, array)
            .unwrap();
        assert_eq!(mapped.peripheral, Peripheral::ZeroSkip);
        let dense_sdk = imc_array::search_best_window(&shape, array).unwrap().cycles;
        assert!(mapped.cycles() <= dense_sdk);
    }

    #[test]
    fn more_aggressive_pruning_is_at_least_as_fast() {
        let (shape, weight) = layer();
        let array = ArrayConfig::square(64).unwrap();
        let light = PairsPruning::new(8)
            .unwrap()
            .map_layer(&shape, &weight, array)
            .unwrap();
        let heavy = PairsPruning::new(2)
            .unwrap()
            .map_layer(&shape, &weight, array)
            .unwrap();
        assert!(heavy.cycles() <= light.cycles());
        assert!(heavy.relative_error >= light.relative_error);
    }
}
