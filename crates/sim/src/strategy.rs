//! The pluggable per-layer compression contract.
//!
//! [`CompressionStrategy`] is the seam through which every compression
//! method — the paper's group low-rank mapping and all four baselines — is
//! evaluated by the network walk behind
//! [`Experiment`](crate::experiment::Experiment). A strategy answers one
//! question: *given one compressible convolution on one array configuration,
//! what does it cost?* The answer is a [`LayerOutcome`]: computing cycles,
//! stored parameters, the relative weight-reconstruction error feeding the
//! accuracy model, and the [`AccessSchedule`]s feeding the energy model.
//!
//! External code can add a new method without touching this crate: implement
//! the trait and hand the strategy to
//! [`Experiment`](crate::experiment::Experiment). A strategy that needs the
//! layer's weights, block spectra or mapping searches reads them from the
//! run's shared [`DecompCache`] through [`ConvContext::cache`].
//!
//! The five built-in strategies ([`Im2col`], [`Sdk`], [`LowRank`],
//! [`PatDnn`], [`Pairs`], [`DoReFa`]) reproduce the paper's comparison and
//! are what [`crate::network::CompressionMethod`] lowers to.

use std::sync::Arc;

use imc_array::{im2col_mapping, tiles_for, ArrayConfig};
use imc_core::{CompressionConfig, DecompCache, LayerCompression};
use imc_energy::{AccessSchedule, PeripheralKind};
use imc_nn::AccuracyModel;
use imc_pruning::{PairsPruning, PatternPruning, Peripheral};
use imc_quant::QuantConfig;
use imc_tensor::{ConvShape, Tensor4};

use crate::Result;

/// Everything a strategy may consult when compressing one convolution layer.
#[derive(Debug, Clone, Copy)]
pub struct ConvContext<'a> {
    /// Geometry of the convolution being compressed.
    pub shape: &'a ConvShape,
    /// The (square) IMC array configuration.
    pub array: ArrayConfig,
    /// Per-layer seed for synthesizing the weight tensor. Derived
    /// deterministically from the experiment seed and the layer index, so a
    /// strategy that draws weights stays reproducible.
    pub seed: u64,
    /// The run's shared decomposition cache: seeded weights, block spectra
    /// and mapping searches, each computed once per key. Its
    /// [`precision`](DecompCache::precision) is the width the SVD-bound
    /// kernels run at; weight synthesis and all reporting stay `f64`. Every
    /// entry is a pure function of its key, so results are the same bits
    /// under any cache budget.
    pub cache: &'a DecompCache,
}

impl ConvContext<'_> {
    /// The deterministic weight tensor of this layer (Kaiming-initialized
    /// from the per-layer seed) — what every weight-dependent strategy
    /// compresses.
    pub fn weight(&self) -> Result<Arc<Tensor4>> {
        Ok(self.cache.weight(self.shape, self.seed)?)
    }
}

/// What one strategy did to one compressible convolution layer.
#[derive(Debug, Clone)]
pub struct LayerOutcome {
    /// Computing cycles of the mapped (compressed) layer.
    pub cycles: f64,
    /// Stored weight parameters after compression.
    pub parameters: usize,
    /// Relative weight-reconstruction error in `[0, 1]`, consumed by the
    /// calibrated accuracy model (`0.0` for lossless mappings).
    pub relative_error: f64,
    /// Access schedules of every mapped region (input to the energy model).
    pub schedules: Vec<AccessSchedule>,
}

/// A compression method evaluated layer-by-layer on an IMC array.
///
/// The trait is object-safe: the experiment harness stores strategies as
/// `Box<dyn CompressionStrategy>` and sweeps them uniformly. Implementations
/// must be deterministic in the per-layer seed (`ConvContext::seed`) for the
/// regenerated tables and figures to be reproducible.
///
/// `Send + Sync` are supertraits because the experiment scheduler shares
/// strategies across worker threads
/// ([`Experiment::parallelism`](crate::experiment::Experiment::parallelism));
/// stateless strategies (like all the built-ins) satisfy them automatically.
pub trait CompressionStrategy: Send + Sync {
    /// Short human-readable label used in reports (for the built-in methods
    /// this matches the paper's legend strings byte-for-byte).
    fn label(&self) -> String;

    /// Compresses and maps one compressible convolution layer.
    ///
    /// # Errors
    ///
    /// Implementations propagate configuration and mapping errors; external
    /// implementations can use [`crate::Error::strategy`] for their own
    /// failure modes.
    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome>;

    /// Network-level accuracy from the per-layer `(relative_error, weight)`
    /// pairs collected over the whole network.
    ///
    /// The default applies the calibrated error → accuracy curve; lossless
    /// baselines return the uncompressed baseline and quantized models use
    /// the bit-width-calibrated table instead.
    fn network_accuracy(&self, model: &AccuracyModel, layer_errors: &[(f64, f64)]) -> f64 {
        model.accuracy_for_layers(layer_errors)
    }
}

/// Builds an access schedule from a logical occupancy. Columns are charged at
/// allocated-tile granularity (every column of an occupied array tile is
/// converted by the ADCs, used or not), which is what makes the energy model
/// sensitive to array size and utilization.
pub fn tile_schedule(
    rows_used: usize,
    cols_used: usize,
    loads: u64,
    array: &ArrayConfig,
    peripheral: PeripheralKind,
) -> AccessSchedule {
    let col_tiles = tiles_for(cols_used, array.logical_cols());
    AccessSchedule {
        active_rows: rows_used,
        active_cols: col_tiles * array.cols,
        cols_per_weight: 1,
        loads,
        peripheral,
    }
}

fn peripheral_kind(p: Peripheral) -> PeripheralKind {
    match p {
        Peripheral::None => PeripheralKind::None,
        Peripheral::ZeroSkip => PeripheralKind::ZeroSkip,
        Peripheral::Mux => PeripheralKind::Mux,
    }
}

/// The dense im2col mapping of one convolution: the baseline cost, also used
/// by the evaluation engine for every non-compressible layer.
pub fn dense_im2col_outcome(shape: &ConvShape, array: ArrayConfig) -> LayerOutcome {
    let mapped = im2col_mapping(shape, array);
    LayerOutcome {
        cycles: mapped.cycles() as f64,
        parameters: shape.weight_count(),
        relative_error: 0.0,
        schedules: vec![tile_schedule(
            mapped.rows_used,
            mapped.cols_used,
            mapped.loads as u64,
            &array,
            PeripheralKind::None,
        )],
    }
}

/// No compression, im2col mapping — the paper's primary baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Im2col;

impl CompressionStrategy for Im2col {
    fn label(&self) -> String {
        "im2col baseline".to_owned()
    }

    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome> {
        Ok(dense_im2col_outcome(ctx.shape, ctx.array))
    }

    fn network_accuracy(&self, model: &AccuracyModel, _layer_errors: &[(f64, f64)]) -> f64 {
        model.baseline
    }
}

/// No compression, best VW-SDK window per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sdk;

impl CompressionStrategy for Sdk {
    fn label(&self) -> String {
        "SDK baseline".to_owned()
    }

    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome> {
        let best = ctx.cache.best_window(ctx.shape, ctx.array)?;
        Ok(LayerOutcome {
            cycles: best.cycles as f64,
            parameters: ctx.shape.weight_count(),
            relative_error: 0.0,
            schedules: vec![tile_schedule(
                best.mapping.mapped.rows_used,
                best.mapping.mapped.cols_used,
                best.mapping.mapped.loads as u64,
                &ctx.array,
                PeripheralKind::None,
            )],
        })
    }

    fn network_accuracy(&self, model: &AccuracyModel, _layer_errors: &[(f64, f64)]) -> f64 {
        model.baseline
    }
}

/// The paper's (group) low-rank compression, optionally SDK-mapped.
#[derive(Debug, Clone, Copy)]
pub struct LowRank {
    config: CompressionConfig,
}

impl LowRank {
    /// Wraps a compression configuration as a strategy.
    pub fn new(config: CompressionConfig) -> Self {
        Self { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> CompressionConfig {
        self.config
    }
}

impl CompressionStrategy for LowRank {
    fn label(&self) -> String {
        format!("ours ({})", self.config.label())
    }

    /// Lowers the layer's compression summary onto the outcome contract
    /// (cycles, parameters, error, and the two factor-stage schedules).
    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome> {
        let shape = ctx.shape;
        let compressed =
            LayerCompression::compress(shape, &self.config, ctx.array, ctx.seed, ctx.cache)?;
        let breakdown = compressed.cycle_breakdown();
        let gk = compressed.groups() * compressed.rank();
        let mut schedules = Vec::with_capacity(2);
        if self.config.use_sdk {
            let window = breakdown.window;
            let n_par = breakdown.parallel_outputs;
            let b = shape.in_channels * window.h * window.w;
            schedules.push(tile_schedule(
                b,
                n_par * gk,
                breakdown.stage1.loads as u64,
                &ctx.array,
                PeripheralKind::None,
            ));
        } else {
            schedules.push(tile_schedule(
                shape.im2col_rows(),
                gk,
                breakdown.stage1.loads as u64,
                &ctx.array,
                PeripheralKind::None,
            ));
        }
        schedules.push(tile_schedule(
            gk,
            shape.out_channels,
            shape.output_pixels() as u64,
            &ctx.array,
            PeripheralKind::None,
        ));
        Ok(LayerOutcome {
            cycles: compressed.cycles() as f64,
            parameters: compressed.parameter_count(),
            relative_error: compressed.relative_error(),
            schedules,
        })
    }
}

/// PatDNN-style per-kernel pattern pruning.
#[derive(Debug, Clone, Copy)]
pub struct PatDnn {
    /// Kernel entries kept per kernel.
    pub entries: usize,
}

impl CompressionStrategy for PatDnn {
    fn label(&self) -> String {
        format!("PatDNN pattern pruning ({} entries)", self.entries)
    }

    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome> {
        // The structural energy-fraction error (not the magnitude-pruned
        // error of the synthetic weights) is used for the accuracy model:
        // fine-tuned pattern pruning recovers magnitude-ordering effects, and
        // the structural bound reproduces the accuracy spread the paper
        // reports for 1-8 kept entries.
        let dense_params = ctx.shape.weight_count();
        let pruning = PatternPruning::new(self.entries)?;
        let mapped = pruning.map_layer(ctx.shape, ctx.array);
        let kept = ((1.0 - mapped.removed_fraction) * dense_params as f64).round() as usize;
        Ok(LayerOutcome {
            cycles: mapped.cycles() as f64,
            parameters: kept,
            relative_error: mapped.relative_error,
            schedules: vec![tile_schedule(
                mapped.rows_used,
                mapped.cols_used,
                mapped.loads as u64,
                &ctx.array,
                peripheral_kind(mapped.peripheral),
            )],
        })
    }
}

/// PAIRS shared-pattern pruning (Rhe et al., ISLPED 2023).
#[derive(Debug, Clone, Copy)]
pub struct Pairs {
    /// Kernel entries kept in the shared pattern.
    pub entries: usize,
}

impl CompressionStrategy for Pairs {
    fn label(&self) -> String {
        format!("PAIRS ({} entries)", self.entries)
    }

    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome> {
        let weight = ctx.weight()?;
        let dense_params = ctx.shape.weight_count();
        let pruning = PairsPruning::new(self.entries)?;
        let mapped = pruning.map_layer(ctx.shape, &weight, ctx.array)?;
        let kept = ((1.0 - mapped.removed_fraction) * dense_params as f64).round() as usize;
        Ok(LayerOutcome {
            cycles: mapped.cycles() as f64,
            parameters: kept,
            relative_error: mapped.relative_error,
            schedules: vec![tile_schedule(
                mapped.rows_used,
                mapped.cols_used,
                mapped.loads as u64,
                &ctx.array,
                peripheral_kind(mapped.peripheral),
            )],
        })
    }
}

/// A DoReFa-quantized (otherwise dense) model.
#[derive(Debug, Clone, Copy)]
pub struct DoReFa {
    /// Weight/activation bit width.
    pub bits: usize,
}

impl CompressionStrategy for DoReFa {
    fn label(&self) -> String {
        format!("{}-bit quantized", self.bits)
    }

    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome> {
        let shape = ctx.shape;
        let quant = QuantConfig::new(self.bits, self.bits)?;
        let cycles = imc_quant::quantized_conv_cycles(shape, &ctx.array, &quant)?;
        let quant_array = ctx.array.with_weight_bits(self.bits)?;
        let best = ctx.cache.best_window(shape, quant_array)?;
        let mut sched = tile_schedule(
            best.mapping.mapped.rows_used,
            best.mapping.mapped.cols_used,
            best.mapping.mapped.loads as u64,
            &quant_array,
            PeripheralKind::None,
        );
        sched.cols_per_weight = quant_array.columns_per_weight();
        Ok(LayerOutcome {
            cycles,
            parameters: shape.weight_count(),
            relative_error: 0.0,
            schedules: vec![sched],
        })
    }

    fn network_accuracy(&self, model: &AccuracyModel, _layer_errors: &[(f64, f64)]) -> f64 {
        model.quantized_accuracy(self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_core::RankSpec;

    fn ctx_fixture<'a>(shape: &'a ConvShape, cache: &'a DecompCache) -> ConvContext<'a> {
        ConvContext {
            shape,
            array: ArrayConfig::square(64).unwrap(),
            seed: 7,
            cache,
        }
    }

    #[test]
    fn builtin_labels_match_the_paper_legend() {
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        assert_eq!(Im2col.label(), "im2col baseline");
        assert_eq!(Sdk.label(), "SDK baseline");
        assert_eq!(LowRank::new(cfg).label(), "ours (g=4, k=m/8, SDK)");
        assert_eq!(
            PatDnn { entries: 4 }.label(),
            "PatDNN pattern pruning (4 entries)"
        );
        assert_eq!(Pairs { entries: 4 }.label(), "PAIRS (4 entries)");
        assert_eq!(DoReFa { bits: 2 }.label(), "2-bit quantized");
    }

    #[test]
    fn lossless_strategies_report_zero_error() {
        let shape = ConvShape::square(16, 16, 3, 1, 1, 16).unwrap();
        let cache = DecompCache::new();
        let ctx = ctx_fixture(&shape, &cache);
        for strategy in [&Im2col as &dyn CompressionStrategy, &Sdk] {
            let outcome = strategy.compress_conv(&ctx).unwrap();
            assert_eq!(outcome.relative_error, 0.0);
            assert_eq!(outcome.parameters, shape.weight_count());
            assert_eq!(outcome.schedules.len(), 1);
        }
    }

    #[test]
    fn lowrank_strategy_produces_two_stage_schedules() {
        let shape = ConvShape::square(32, 32, 3, 1, 1, 16).unwrap();
        let cache = DecompCache::new();
        let ctx = ctx_fixture(&shape, &cache);
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        let outcome = LowRank::new(cfg).compress_conv(&ctx).unwrap();
        assert_eq!(outcome.schedules.len(), 2, "factor stages L and R");
        assert!(outcome.parameters < shape.weight_count());
        assert!(outcome.relative_error > 0.0 && outcome.relative_error < 1.0);
    }

    #[test]
    fn strategies_are_deterministic_in_the_context_seed() {
        let shape = ConvShape::square(16, 16, 3, 1, 1, 16).unwrap();
        let cache = DecompCache::new();
        let ctx = ctx_fixture(&shape, &cache);
        let strategy = Pairs { entries: 4 };
        let a = strategy.compress_conv(&ctx).unwrap();
        let b = strategy.compress_conv(&ctx).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.relative_error, b.relative_error);
    }
}
