//! The cache keys an experiment spec will query, and the stage-by-stage
//! warm-up of a fresh `DecompCache` through its public methods.
//!
//! The key enumeration is the benchmark's own copy of the evaluation walk's
//! rules: the per-layer seed, the group clamp and rank resolution of the
//! low-rank strategy, and which cache kinds each built-in strategy consults.
//! The traced runs assert that a walk after [`Plan::warm`] makes zero misses
//! in every pre-warmed kind, which keeps this copy honest.

use std::collections::HashSet;
use std::hash::Hash;

use imc_array::ArrayConfig;
use imc_core::DecompCache;
use imc_sim::spec::builtin_method_from_spec;
use imc_sim::{CompressionMethod, ExperimentSpec, Registry};
use imc_tensor::{ConvShape, LayerKind};

use crate::trace::Tracer;

/// Distinct keys in first-seen order.
struct Keys<K> {
    seen: HashSet<K>,
    order: Vec<K>,
}

impl<K> Default for Keys<K> {
    fn default() -> Self {
        Self {
            seen: HashSet::new(),
            order: Vec::new(),
        }
    }
}

impl<K: Eq + Hash + Copy> Keys<K> {
    fn add(&mut self, key: K) {
        if self.seen.insert(key) {
            self.order.push(key);
        }
    }
}

/// Every cache key a set of specs queries, per cache kind.
#[derive(Default)]
pub struct Plan {
    weights: Keys<(ConvShape, u64)>,
    matrices: Keys<(ConvShape, u64)>,
    block_svds: Keys<(ConvShape, u64, usize)>,
    decompositions: Keys<(ConvShape, u64, usize, usize)>,
    windows: Keys<(ConvShape, ArrayConfig)>,
    cycles: Keys<(ConvShape, usize, usize, ArrayConfig, bool)>,
}

/// The per-layer weight seed of the evaluation walk: layer position in the
/// network (stem and linear layers included) mixed into the experiment seed.
fn layer_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(index as u64).wrapping_mul(0x9E37_79B9)
}

impl Plan {
    /// Adds every key `spec`'s exhaustive grid queries. (A frontier search
    /// evaluates a subset of the same grid.)
    pub fn add_spec(&mut self, spec: &ExperimentSpec, registry: &Registry) -> imc_sim::Result<()> {
        let mut methods = Vec::with_capacity(spec.strategies.len());
        for strategy in &spec.strategies {
            methods.push(builtin_method_from_spec(strategy)?);
        }
        for name in &spec.networks {
            let arch = registry.build_network(name)?;
            for axis in &spec.arrays {
                let array = axis.to_config()?;
                for method in &methods {
                    for (index, layer) in arch.layers.iter().enumerate() {
                        let Some(shape) = layer
                            .conv
                            .filter(|_| layer.kind == LayerKind::Conv && layer.compressible)
                        else {
                            continue;
                        };
                        self.add_cell(&shape, layer_seed(spec.seed, index), array, method)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn add_cell(
        &mut self,
        shape: &ConvShape,
        seed: u64,
        array: ArrayConfig,
        method: &CompressionMethod,
    ) -> imc_sim::Result<()> {
        match *method {
            CompressionMethod::LowRank(config) => {
                let groups = config.groups.min(shape.im2col_rows());
                let per_group_cols = shape.im2col_rows() / groups;
                let max_rank = shape.out_channels.min(per_group_cols).max(1);
                let k = config.rank.resolve(shape.out_channels, max_rank);
                self.weights.add((*shape, seed));
                self.matrices.add((*shape, seed));
                self.block_svds.add((*shape, seed, groups));
                self.decompositions.add((*shape, seed, groups, k));
                self.windows.add((*shape, array));
                self.cycles.add((*shape, k, groups, array, config.use_sdk));
            }
            CompressionMethod::Uncompressed { sdk: true } => self.windows.add((*shape, array)),
            CompressionMethod::Pairs { .. } => self.weights.add((*shape, seed)),
            CompressionMethod::Quantized { bits } => {
                self.windows.add((*shape, array.with_weight_bits(bits)?));
            }
            CompressionMethod::Uncompressed { sdk: false }
            | CompressionMethod::PatternPruning { .. } => {}
        }
        Ok(())
    }

    /// Warms `cache` stage by stage in dependency order — weights, im2col
    /// matrices, block SVDs, decompositions, then the mapping searches — with
    /// one span per call under `parent`. Each stage finds its prerequisites
    /// warm, so a span times only its own layer's work.
    pub fn warm(&self, cache: &DecompCache, tracer: &Tracer, parent: usize) -> imc_sim::Result<()> {
        let p = Some(parent);
        for &(shape, seed) in &self.weights.order {
            tracer.span("tensor.weight", p, || cache.weight(&shape, seed))?;
        }
        for &(shape, seed) in &self.matrices.order {
            tracer.span("tensor.im2col", p, || cache.im2col_matrix(&shape, seed))?;
        }
        for &(shape, seed, groups) in &self.block_svds.order {
            tracer.span("linalg.svd", p, || cache.block_svds(&shape, seed, groups))?;
        }
        for &(shape, seed, groups, k) in &self.decompositions.order {
            tracer.span("core.decomposition", p, || {
                cache.decomposition(&shape, seed, groups, k)
            })?;
        }
        for &(shape, array) in &self.windows.order {
            tracer.span("array.mapping", p, || cache.best_window(&shape, array))?;
        }
        for &(shape, k, groups, array, use_sdk) in &self.cycles.order {
            tracer.span("array.mapping", p, || {
                cache.lowrank_cycles(&shape, k, groups, array, use_sdk)
            })?;
        }
        Ok(())
    }
}
