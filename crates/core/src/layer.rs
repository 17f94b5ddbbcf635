//! Per-layer compression summary: resolved rank, error and cycle accounting.

use imc_array::{im2col_mapping, ArrayConfig};
use imc_tensor::ConvShape;

use crate::cache::DecompCache;
use crate::config::CompressionConfig;
use crate::cycles::CompressedCycles;
use crate::Result;

/// The result of compressing one convolutional layer with a given
/// [`CompressionConfig`] on a given array size.
///
/// This is the unit of work of the experiment harness: it carries the
/// resolved group count and rank, the parameter count and relative error of
/// the grouped decomposition, and the cycle accounting of both the
/// compressed layer and the uncompressed baselines. The error is the
/// Eckart–Young truncation error of the per-block singular values
/// ([`GroupErrorProfile`](crate::GroupErrorProfile)), so no factor matrix is
/// built; [`crate::GroupLowRank`] builds the factors when they are wanted.
#[derive(Debug, Clone)]
pub struct LayerCompression {
    shape: ConvShape,
    config: CompressionConfig,
    array: ArrayConfig,
    groups: usize,
    rank: usize,
    relative_error: f64,
    cycles: CompressedCycles,
    baseline_im2col_cycles: u64,
    baseline_sdk_cycles: u64,
}

impl LayerCompression {
    /// Compresses the seeded layer `(shape, seed)` according to `config` and
    /// accounts its cycles on arrays of configuration `array`.
    ///
    /// The rank is resolved per the paper's convention (`m / divisor`,
    /// clamped to the per-group maximum); the group count is clamped to the
    /// layer's input dimension. The seeded weights, the block spectra (at
    /// the cache's [`Precision`](crate::Precision)) and the mapping
    /// searches come from `cache`, so a sweep computes each of them once per
    /// distinct key instead of once per grid cell. Every cached value is a
    /// pure function of its key, so the result is the same bits under any
    /// cache budget.
    ///
    /// # Errors
    ///
    /// Propagates configuration, decomposition and mapping errors (e.g. a
    /// zero group count, or a rank that exceeds what the layer's group
    /// blocks allow).
    pub fn compress(
        shape: &ConvShape,
        config: &CompressionConfig,
        array: ArrayConfig,
        seed: u64,
        cache: &DecompCache,
    ) -> Result<Self> {
        let (groups, k) = config.resolve(shape)?;
        let profile = cache.block_svds(shape, seed, groups)?;
        let cycles = cache.lowrank_cycles(shape, k, groups, array, config.use_sdk)?;
        let baseline_sdk_cycles = cache.best_window(shape, array)?.cycles;
        profile.check_rank(k)?;
        Ok(Self {
            shape: *shape,
            config: *config,
            array,
            groups: profile.groups(),
            rank: k,
            relative_error: profile.relative_error_for_rank(k),
            cycles,
            baseline_im2col_cycles: im2col_mapping(shape, array).cycles(),
            baseline_sdk_cycles,
        })
    }

    /// The layer geometry.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The compression configuration used.
    pub fn config(&self) -> &CompressionConfig {
        &self.config
    }

    /// The array configuration used for cycle accounting.
    pub fn array(&self) -> &ArrayConfig {
        &self.array
    }

    /// The resolved rank `k`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The resolved group count `g`.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Relative Frobenius error of the rank-`k` grouped decomposition of
    /// this layer's weights (the Eckart–Young tail of the block spectra).
    pub fn relative_error(&self) -> f64 {
        self.relative_error
    }

    /// Cycle breakdown of the compressed layer.
    pub fn cycle_breakdown(&self) -> &CompressedCycles {
        &self.cycles
    }

    /// Total computing cycles of the compressed layer.
    pub fn cycles(&self) -> u64 {
        self.cycles.total()
    }

    /// Cycles of the uncompressed layer under im2col mapping.
    pub fn baseline_im2col_cycles(&self) -> u64 {
        self.baseline_im2col_cycles
    }

    /// Cycles of the uncompressed layer under (VW-)SDK mapping.
    pub fn baseline_sdk_cycles(&self) -> u64 {
        self.baseline_sdk_cycles
    }

    /// Speed-up of the compressed layer over the uncompressed im2col
    /// baseline.
    pub fn speedup_vs_im2col(&self) -> f64 {
        self.baseline_im2col_cycles as f64 / self.cycles().max(1) as f64
    }

    /// Number of parameters stored by the compressed layer:
    /// `Σ_i k·(m + n_i) = k·(g·m + n)` over the group blocks.
    pub fn parameter_count(&self) -> usize {
        self.rank * (self.groups * self.shape.out_channels + self.shape.im2col_rows())
    }

    /// Number of parameters of the dense (uncompressed) layer.
    pub fn dense_parameter_count(&self) -> usize {
        self.shape.weight_count()
    }

    /// Parameter compression ratio (dense / compressed).
    pub fn compression_ratio(&self) -> f64 {
        self.dense_parameter_count() as f64 / self.parameter_count().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RankSpec;

    fn layer() -> ConvShape {
        ConvShape::square(64, 64, 3, 1, 1, 8).unwrap()
    }

    /// Compresses the layer seeded with 77 on a fresh cache.
    fn compress(
        shape: &ConvShape,
        cfg: &CompressionConfig,
        array: ArrayConfig,
    ) -> LayerCompression {
        LayerCompression::compress(shape, cfg, array, 77, &DecompCache::new()).unwrap()
    }

    #[test]
    fn compress_resolves_rank_from_divisor() {
        let shape = layer();
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        let array = ArrayConfig::square(64).unwrap();
        let c = compress(&shape, &cfg, array);
        assert_eq!(c.rank(), 8);
        assert_eq!(c.groups(), 4);
        assert!(c.relative_error() > 0.0 && c.relative_error() < 1.0);
    }

    #[test]
    fn sdk_config_beats_non_sdk_config_on_cycles() {
        let shape = layer();
        let array = ArrayConfig::square(64).unwrap();
        let with_sdk = compress(
            &shape,
            &CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap(),
            array,
        );
        let without_sdk = compress(
            &shape,
            &CompressionConfig::new(RankSpec::Divisor(8), 4, false).unwrap(),
            array,
        );
        assert!(with_sdk.cycles() <= without_sdk.cycles());
    }

    #[test]
    fn grouping_improves_error_at_same_rank() {
        let shape = layer();
        let array = ArrayConfig::square(64).unwrap();
        let g1 = compress(
            &shape,
            &CompressionConfig::new(RankSpec::Divisor(8), 1, true).unwrap(),
            array,
        );
        let g4 = compress(
            &shape,
            &CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap(),
            array,
        );
        assert!(g4.relative_error() <= g1.relative_error() + 1e-12);
    }

    #[test]
    fn compression_reduces_parameters() {
        let shape = layer();
        let array = ArrayConfig::square(64).unwrap();
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        let c = compress(&shape, &cfg, array);
        assert!(c.compression_ratio() > 1.0);
        assert!(c.parameter_count() < c.dense_parameter_count());
    }

    #[test]
    fn proposed_method_beats_im2col_baseline_on_cycles() {
        let shape = layer();
        let array = ArrayConfig::square(64).unwrap();
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        let c = compress(&shape, &cfg, array);
        assert!(c.speedup_vs_im2col() > 1.0);
        assert!(c.cycles() < c.baseline_im2col_cycles());
    }

    #[test]
    fn rank_is_clamped_for_small_group_blocks() {
        // 16 output channels, 27 input columns, 8 groups -> blocks of 3-4
        // columns; a divisor-2 rank request (8) must clamp to the block max.
        let shape = ConvShape::square(3, 16, 3, 1, 1, 32).unwrap();
        let cfg = CompressionConfig::new(RankSpec::Divisor(2), 8, false).unwrap();
        let array = ArrayConfig::square(32).unwrap();
        let c = LayerCompression::compress(&shape, &cfg, array, 5, &DecompCache::new()).unwrap();
        assert!(c.rank() <= 3);
    }
}
