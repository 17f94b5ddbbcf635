//! Whole-network evaluation under one compression strategy.
//!
//! The engine walks a network once: it charges linear and non-compressible
//! layers with the dense im2col cost shared by every method, and delegates
//! each compressible convolution to the [`CompressionStrategy`] under
//! evaluation, with the run's shared [`DecompCache`]. The walk is a
//! per-layer step and an in-order fold of the steps' outcomes; the
//! [`Experiment`](crate::experiment::Experiment) scheduler, the one public
//! way to evaluate, runs the steps of many cells as parallel jobs.
//! [`CompressionMethod`] is the closed enum of the paper's five methods,
//! kept as a convenient, copyable description that lowers onto the
//! built-in strategies.

use imc_array::{linear_mapping, ArrayConfig};
use imc_core::{CompressionConfig, DecompCache};
use imc_energy::{AccessSchedule, EnergyParams, PeripheralKind};
use imc_nn::{AccuracyModel, NetworkArch};
use imc_tensor::LayerKind;

use crate::strategy::{
    dense_im2col_outcome, tile_schedule, CompressionStrategy, ConvContext, DoReFa, Im2col,
    LayerOutcome, LowRank, Pairs, PatDnn, Sdk,
};
use crate::Result;

/// The compression method applied to a network.
///
/// This is the declarative description of the paper's five methods; it
/// lowers onto the built-in [`CompressionStrategy`] implementations via
/// [`CompressionMethod::strategy`]. New methods do not extend this enum —
/// they implement [`CompressionStrategy`] directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionMethod {
    /// No compression; convolutions are mapped with im2col (`sdk = false`) or
    /// the best VW-SDK window (`sdk = true`).
    Uncompressed {
        /// Whether SDK mapping is used for the uncompressed weights.
        sdk: bool,
    },
    /// The paper's low-rank compression (possibly grouped and SDK-mapped).
    LowRank(CompressionConfig),
    /// PatDNN-style pattern pruning with the given kept-entry count.
    PatternPruning {
        /// Kernel entries kept per kernel.
        entries: usize,
    },
    /// PAIRS shared-pattern pruning with the given kept-entry count.
    Pairs {
        /// Kernel entries kept in the shared pattern.
        entries: usize,
    },
    /// A DoReFa-quantized (otherwise dense) model.
    Quantized {
        /// Weight/activation bit width.
        bits: usize,
    },
}

impl CompressionMethod {
    /// Lowers the method onto its built-in strategy implementation.
    pub fn strategy(&self) -> Box<dyn CompressionStrategy> {
        match *self {
            CompressionMethod::Uncompressed { sdk: false } => Box::new(Im2col),
            CompressionMethod::Uncompressed { sdk: true } => Box::new(Sdk),
            CompressionMethod::LowRank(cfg) => Box::new(LowRank::new(cfg)),
            CompressionMethod::PatternPruning { entries } => Box::new(PatDnn { entries }),
            CompressionMethod::Pairs { entries } => Box::new(Pairs { entries }),
            CompressionMethod::Quantized { bits } => Box::new(DoReFa { bits }),
        }
    }

    /// Short human-readable label used in reports.
    pub fn label(&self) -> String {
        self.strategy().label()
    }
}

/// The outcome of evaluating one network under one method on one array size.
#[derive(Debug, Clone)]
pub struct NetworkEvaluation {
    /// Network name.
    pub network: String,
    /// Method label.
    pub method: String,
    /// Array rows/columns (square arrays).
    pub array_size: usize,
    /// Total computing cycles per inference (fractional when activation
    /// precision scaling is involved).
    pub cycles: f64,
    /// Modelled classification accuracy in percent.
    pub accuracy: f64,
    /// Stored weight parameters.
    pub parameters: usize,
    /// Access schedules of every mapped region (input to the energy model).
    pub schedules: Vec<AccessSchedule>,
}

impl NetworkEvaluation {
    /// Total inference energy under the given energy parameters.
    pub fn energy(&self, params: &EnergyParams) -> f64 {
        imc_energy::total_energy(&self.schedules, params)
    }
}

/// One layer's share of a network evaluation: what the layer costs, plus
/// its dense weight count (the weight of its error in the accuracy model).
#[derive(Debug)]
pub(crate) struct LayerStep {
    outcome: LayerOutcome,
    dense_params: usize,
}

/// Evaluates layer `index` of `arch`: the per-layer step of the walk.
/// Steps share no state but the cache, whose entries are pure functions of
/// their keys, so the steps of one network (and of many networks) may run
/// on any threads in any order; [`fold_layers`] restores the layer order.
///
/// Linear layers and non-compressible convolutions are charged the dense
/// im2col cost common to every method; compressible convolutions are
/// delegated to the strategy with the layer's derived seed and `cache`.
pub(crate) fn evaluate_layer(
    arch: &NetworkArch,
    index: usize,
    strategy: &dyn CompressionStrategy,
    array: ArrayConfig,
    seed: u64,
    cache: &DecompCache,
) -> Result<LayerStep> {
    let layer = &arch.layers[index];
    match layer.kind {
        LayerKind::Linear => {
            let shape = layer.linear.expect("linear layers carry a linear shape");
            let mapped = linear_mapping(&shape, array);
            Ok(LayerStep {
                outcome: LayerOutcome {
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
                },
                dense_params: shape.weight_count(),
            })
        }
        LayerKind::Conv => {
            let shape = layer.conv.expect("conv layers carry a conv shape");
            let outcome = if layer.compressible {
                strategy.compress_conv(&ConvContext {
                    shape: &shape,
                    array,
                    seed: seed.wrapping_add(index as u64).wrapping_mul(0x9E37_79B9),
                    cache,
                })?
            } else {
                // Non-compressible layers of every method share the dense
                // im2col mapping.
                dense_im2col_outcome(&shape, array)
            };
            Ok(LayerStep {
                outcome,
                dense_params: shape.weight_count(),
            })
        }
    }
}

/// Folds the per-layer steps of `arch` — given in layer order — into the
/// network evaluation: sums cycles and parameters in that order, applies
/// the array's input-precision scale, and asks the strategy for the
/// network accuracy.
pub(crate) fn fold_layers(
    arch: &NetworkArch,
    strategy: &dyn CompressionStrategy,
    array: ArrayConfig,
    layers: impl IntoIterator<Item = LayerStep>,
) -> NetworkEvaluation {
    let mut cycles = 0.0_f64;
    let mut parameters = 0usize;
    let mut schedules = Vec::new();
    let mut layer_errors: Vec<(f64, f64)> = Vec::new();
    for LayerStep {
        outcome,
        dense_params,
    } in layers
    {
        cycles += outcome.cycles;
        parameters += outcome.parameters;
        layer_errors.push((outcome.relative_error, dense_params as f64));
        schedules.extend(outcome.schedules);
    }

    // Non-default ADC/input precision stretches (or shrinks) the bit-serial
    // input schedule of every mapped region uniformly, relative to the 4-bit
    // baseline the per-layer cycle model assumes. Guarded so the default
    // path performs zero extra float operations and stays byte-identical to
    // pre-axis runs. (DoReFa's own activation scaling composes with this
    // multiplicatively: the strategy models the *model's* quantization, the
    // array's `input_bits` models the hardware's converter resolution.)
    if array.input_bits != ArrayConfig::DEFAULT_INPUT_BITS {
        cycles *= imc_quant::activation_cycle_scale(array.input_bits);
    }

    let accuracy = strategy.network_accuracy(&AccuracyModel::for_network(arch), &layer_errors);

    NetworkEvaluation {
        network: arch.name.clone(),
        method: strategy.label(),
        array_size: array.rows,
        cycles,
        accuracy,
        parameters,
        schedules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_core::RankSpec;
    use imc_nn::resnet20;

    fn array64() -> ArrayConfig {
        ArrayConfig::square(64).unwrap()
    }

    /// A serial walk of `arch` under `method` on a fresh cache.
    fn evaluate(
        arch: &NetworkArch,
        method: &CompressionMethod,
        array: ArrayConfig,
        seed: u64,
    ) -> Result<NetworkEvaluation> {
        let strategy = method.strategy();
        let cache = DecompCache::new();
        let layers = (0..arch.layers.len())
            .map(|index| evaluate_layer(arch, index, strategy.as_ref(), array, seed, &cache))
            .collect::<Result<Vec<_>>>()?;
        Ok(fold_layers(arch, strategy.as_ref(), array, layers))
    }

    #[test]
    fn baseline_cycle_count_is_in_the_expected_range() {
        let arch = resnet20();
        let eval = evaluate(
            &arch,
            &CompressionMethod::Uncompressed { sdk: false },
            array64(),
            0,
        )
        .unwrap();
        // Hand computation (DESIGN.md §3) gives ~30k cycles for ResNet-20 on
        // 64x64 arrays under im2col.
        assert!(
            (25_000.0..36_000.0).contains(&eval.cycles),
            "cycles {}",
            eval.cycles
        );
        assert_eq!(eval.accuracy, 91.6);
        assert!((260_000..280_000).contains(&eval.parameters));
    }

    #[test]
    fn sdk_baseline_is_faster_than_im2col_baseline() {
        let arch = resnet20();
        let im2col = evaluate(
            &arch,
            &CompressionMethod::Uncompressed { sdk: false },
            array64(),
            0,
        )
        .unwrap();
        let sdk = evaluate(
            &arch,
            &CompressionMethod::Uncompressed { sdk: true },
            array64(),
            0,
        )
        .unwrap();
        assert!(sdk.cycles < im2col.cycles);
    }

    #[test]
    fn proposed_method_beats_baseline_cycles_with_small_accuracy_loss() {
        let arch = resnet20();
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        let ours = evaluate(&arch, &CompressionMethod::LowRank(cfg), array64(), 0).unwrap();
        let baseline = evaluate(
            &arch,
            &CompressionMethod::Uncompressed { sdk: false },
            array64(),
            0,
        )
        .unwrap();
        assert!(ours.cycles < baseline.cycles);
        assert!(ours.accuracy > 80.0);
        assert!(ours.parameters < baseline.parameters);
    }

    #[test]
    fn pattern_pruning_requires_mux_and_reduces_cycles() {
        let arch = resnet20();
        let pruned = evaluate(
            &arch,
            &CompressionMethod::PatternPruning { entries: 4 },
            array64(),
            0,
        )
        .unwrap();
        let baseline = evaluate(
            &arch,
            &CompressionMethod::Uncompressed { sdk: false },
            array64(),
            0,
        )
        .unwrap();
        assert!(pruned.cycles < baseline.cycles);
        assert!(pruned
            .schedules
            .iter()
            .any(|s| s.peripheral == PeripheralKind::Mux));
    }

    #[test]
    fn quantized_models_scale_cycles_with_bits() {
        let arch = resnet20();
        let q1 = evaluate(
            &arch,
            &CompressionMethod::Quantized { bits: 1 },
            array64(),
            0,
        )
        .unwrap();
        let q4 = evaluate(
            &arch,
            &CompressionMethod::Quantized { bits: 4 },
            array64(),
            0,
        )
        .unwrap();
        assert!(q1.cycles < q4.cycles);
        assert!(q1.accuracy < q4.accuracy);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let arch = resnet20();
        let cfg = CompressionConfig::new(RankSpec::Divisor(4), 2, true).unwrap();
        let a = evaluate(&arch, &CompressionMethod::LowRank(cfg), array64(), 7).unwrap();
        let b = evaluate(&arch, &CompressionMethod::LowRank(cfg), array64(), 7).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn method_labels_match_their_strategies() {
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        for method in [
            CompressionMethod::Uncompressed { sdk: false },
            CompressionMethod::Uncompressed { sdk: true },
            CompressionMethod::LowRank(cfg),
            CompressionMethod::PatternPruning { entries: 3 },
            CompressionMethod::Pairs { entries: 5 },
            CompressionMethod::Quantized { bits: 2 },
        ] {
            assert_eq!(method.label(), method.strategy().label());
        }
    }

    #[test]
    fn energy_ordering_matches_fig7() {
        let arch = resnet20();
        let params = EnergyParams::default();
        let baseline = evaluate(
            &arch,
            &CompressionMethod::Uncompressed { sdk: false },
            array64(),
            0,
        )
        .unwrap();
        let pruned = evaluate(
            &arch,
            &CompressionMethod::PatternPruning { entries: 6 },
            array64(),
            0,
        )
        .unwrap();
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        let ours = evaluate(&arch, &CompressionMethod::LowRank(cfg), array64(), 0).unwrap();
        let e_base = baseline.energy(&params);
        let e_pruned = pruned.energy(&params);
        let e_ours = ours.energy(&params);
        assert!(e_ours < e_base, "ours {e_ours} vs baseline {e_base}");
        assert!(e_ours < e_pruned, "ours {e_ours} vs pruned {e_pruned}");
    }
}
