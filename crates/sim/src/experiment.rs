//! The builder-style experiment facade.
//!
//! [`Experiment`] sweeps a grid of networks × array sizes × compression
//! strategies through the evaluation engine with one declarative call chain:
//!
//! ```
//! use imc_sim::experiment::Experiment;
//! use imc_sim::network::CompressionMethod;
//! use imc_nn::resnet20;
//!
//! let run = Experiment::new()
//!     .network(resnet20())
//!     .arrays([32, 64])
//!     .method(CompressionMethod::Uncompressed { sdk: false })
//!     .method(CompressionMethod::Uncompressed { sdk: true })
//!     .seed(2025)
//!     .run()
//!     .unwrap();
//! assert_eq!(run.records().len(), 4); // 1 network × 2 arrays × 2 methods
//! ```
//!
//! Strategies are either the paper's built-ins (via
//! [`CompressionMethod`]) or any external [`CompressionStrategy`]
//! implementation — the figure and table generators in
//! [`crate::experiments`] are thin sweeps over this builder.
//!
//! The run order is deterministic (networks, then arrays, then strategies,
//! each in insertion order) and every evaluation derives its weights from
//! the single experiment seed, so a run is reproducible bit-for-bit.
//!
//! # Execution model
//!
//! Grid cells are independent (each one is seeded from the experiment seed
//! and shares no mutable state), and so are the layers of one cell: a
//! network evaluation is a per-layer step plus an in-order fold
//! ([`crate::network`]). [`Experiment::run`] therefore flattens the grid
//! into (cell, layer) jobs and runs them on a scoped worker pool
//! ([`crate::runtime`]) — one worker per available hardware thread by
//! default, tunable via [`Experiment::parallelism`] — folding each cell into
//! its record once its last layer is done. Every layer is evaluated through
//! a decomposition cache ([`imc_core::DecompCache`]) that shares the seeded
//! weights, per-block SVDs and window searches across cells; its misses are
//! single-flight, so two workers that reach the same layer of two cells
//! compute its block SVDs once. Neither changes a value: records come back
//! in grid order, bit-identical to a serial run, under any cache budget.
//!
//! The cache is per-run for [`Experiment::run`]; [`Experiment::run_in`]
//! instead borrows the long-lived cache of an
//! [`EvalSession`](crate::session::EvalSession), extending the sharing
//! across runs. [`Experiment::cells`] restricts one run to a cell range of
//! the grid (the sharding primitive), and [`ExperimentRun::merge`]
//! reassembles shard runs — possibly serialized through
//! [`ExperimentRun::to_jsonl`](crate::record) in between — into the
//! canonical grid order, byte-identically to an unsharded run.
//!
//! [`Experiment::frontier`] runs the same sweep and keeps only the records
//! on the accuracy/cycles Pareto front of each method series in each
//! (network, array) panel.

use std::collections::HashMap;
use std::ops::Range;

use imc_array::ArrayConfig;
use imc_core::{DecompCache, Precision};
use imc_energy::EnergyParams;
use imc_nn::NetworkArch;

use crate::experiments::{pareto_front_indices, DEFAULT_SEED};
use crate::network::{
    evaluate_layer, fold_layers, CompressionMethod, LayerStep, NetworkEvaluation,
};
use crate::runtime;
use crate::session::EvalSession;

/// A streaming observer of completed records, fed in grid order by
/// [`Experiment::run_streaming`].
type RecordSink<'a> = &'a mut dyn FnMut(&RunRecord) -> Result<()>;
use crate::spec::{
    builtin_method_from_spec, builtin_method_spec, ArrayAxis, ExperimentSpec, RunManifest,
    StrategySpec, SPEC_FORMAT_VERSION,
};
use crate::strategy::CompressionStrategy;
use crate::synth::SyntheticNetSpec;
use crate::{Error, Result};

/// A declarative sweep over networks × array sizes × compression strategies.
pub struct Experiment {
    networks: Vec<NetworkArch>,
    arrays: Vec<ArrayAxis>,
    strategies: Vec<Box<dyn CompressionStrategy>>,
    seed: u64,
    parallelism: Option<usize>,
    parallelism_override: Option<usize>,
    precision: Precision,
    cell_range: Option<Range<usize>>,
    frontier: bool,
    /// Spec provenance of `networks`, index-aligned: the name each network
    /// is addressable by on the wire (the architecture's display name, or
    /// the registry name a spec resolved it from).
    pub(crate) network_names: Vec<String>,
    /// Spec provenance of `strategies`, index-aligned: `Some` for built-in
    /// methods and registry-built strategies, `None` for opaque
    /// [`CompressionStrategy`] objects (which cannot be serialized).
    pub(crate) strategy_specs: Vec<Option<StrategySpec>>,
    /// Inline synthetic-network generator documents carried by the
    /// experiment's spec (possibly unused by `networks`); kept wholesale so
    /// the spec round-trip is lossless.
    pub(crate) synthetic_networks: Vec<SyntheticNetSpec>,
    /// The `"cache"` member of the spec this experiment was resolved from.
    /// It selects nothing (every run evaluates through a decomposition
    /// cache) and is kept only so the spec round-trip is lossless.
    pub(crate) spec_cache: bool,
}

impl Default for Experiment {
    fn default() -> Self {
        Self::new()
    }
}

impl Experiment {
    /// An empty experiment with the harness default seed
    /// ([`DEFAULT_SEED`]).
    pub fn new() -> Self {
        Self {
            networks: Vec::new(),
            arrays: Vec::new(),
            strategies: Vec::new(),
            seed: DEFAULT_SEED,
            parallelism: None,
            parallelism_override: None,
            precision: Precision::F64,
            cell_range: None,
            frontier: false,
            network_names: Vec::new(),
            strategy_specs: Vec::new(),
            synthetic_networks: Vec::new(),
            spec_cache: true,
        }
    }

    /// Adds one network to the sweep.
    #[must_use]
    pub fn network(mut self, arch: NetworkArch) -> Self {
        self.network_names.push(arch.name.clone());
        self.networks.push(arch);
        self
    }

    /// Adds several networks to the sweep.
    #[must_use]
    pub fn networks(mut self, archs: impl IntoIterator<Item = NetworkArch>) -> Self {
        for arch in archs {
            self = self.network(arch);
        }
        self
    }

    /// Adds one square array size to the sweep (at the default 4-bit
    /// weight/ADC precision — sugar for [`Experiment::array_axis`] with
    /// [`ArrayAxis::square`]).
    #[must_use]
    pub fn array(self, size: usize) -> Self {
        self.array_axis(ArrayAxis::square(size))
    }

    /// Adds several square array sizes to the sweep.
    #[must_use]
    pub fn arrays(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.arrays.extend(sizes.into_iter().map(ArrayAxis::square));
        self
    }

    /// Adds one full array sweep axis — rectangular geometry and/or
    /// non-default weight/ADC precision ([`ArrayAxis`]).
    #[must_use]
    pub fn array_axis(mut self, axis: ArrayAxis) -> Self {
        self.arrays.push(axis);
        self
    }

    /// Adds several array sweep axes.
    #[must_use]
    pub fn array_axes(mut self, axes: impl IntoIterator<Item = ArrayAxis>) -> Self {
        self.arrays.extend(axes);
        self
    }

    /// Adds a synthetic network to the sweep from its generator document
    /// ([`crate::synth`]): the document is built immediately and also kept
    /// as spec provenance, so [`Experiment::to_spec`] emits it under
    /// `"synthetic_networks"` and the round-trip is lossless.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] when the document does not generate a valid
    /// network.
    pub fn synthetic_network(mut self, spec: SyntheticNetSpec) -> Result<Self> {
        let network = spec.build()?;
        self.synthetic_networks.push(spec);
        Ok(self.network(network))
    }

    /// Adds a compression strategy to the sweep. Anything implementing
    /// [`CompressionStrategy`] plugs in here — including types defined
    /// outside this crate.
    #[must_use]
    pub fn strategy(self, strategy: impl CompressionStrategy + 'static) -> Self {
        self.boxed_strategy(Box::new(strategy))
    }

    /// Adds an already-boxed strategy to the sweep.
    ///
    /// The strategy is opaque to the spec layer: an experiment containing
    /// one cannot be serialized by [`Experiment::to_spec`]. To make an
    /// external strategy wire-addressable, register it in a
    /// [`Registry`](crate::registry::Registry) and build the experiment from
    /// an [`ExperimentSpec`] instead.
    #[must_use]
    pub fn boxed_strategy(mut self, strategy: Box<dyn CompressionStrategy>) -> Self {
        self.strategies.push(strategy);
        self.strategy_specs.push(None);
        self
    }

    /// Adds one of the paper's built-in methods to the sweep.
    #[must_use]
    pub fn method(mut self, method: CompressionMethod) -> Self {
        self.strategies.push(method.strategy());
        self.strategy_specs.push(Some(builtin_method_spec(&method)));
        self
    }

    /// Adds several built-in methods to the sweep.
    #[must_use]
    pub fn methods(mut self, methods: impl IntoIterator<Item = CompressionMethod>) -> Self {
        for method in methods {
            self = self.method(method);
        }
        self
    }

    /// Sets the experiment seed (defaults to [`DEFAULT_SEED`]).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many worker threads the sweep uses (clamped to at least 1;
    /// defaults to one per available hardware thread). The workers share
    /// out the (cell, layer) jobs of the grid.
    ///
    /// Grid cells and their layers are seeded independently, so the worker
    /// count changes neither the record order nor any value:
    /// `parallelism(1)` and `parallelism(n)` produce byte-identical runs.
    /// `parallelism(1)` executes inline on the calling thread with no
    /// thread machinery.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Sets the worker count **without** recording it as part of the request:
    /// unlike [`Experiment::parallelism`], this neither appears in
    /// [`Experiment::to_spec`] nor in the run's reproducibility manifest.
    ///
    /// This is the execution-site knob for drivers (e.g. `imc run
    /// --parallelism`) that run someone else's spec on local resources: the
    /// worker count never affects results, so overriding it must not change
    /// a byte of the serialized run. Takes precedence over
    /// [`Experiment::parallelism`] when both are set.
    #[must_use]
    pub fn parallelism_override(mut self, workers: usize) -> Self {
        self.parallelism_override = Some(workers.max(1));
        self
    }

    /// Sets the width the sweep's decomposition kernels run at (default:
    /// [`Precision::F64`], the bit-exact reference).
    ///
    /// [`Precision::F32`] is the opt-in fast path: the SVD-bound kernels of
    /// weight-decomposing strategies (the paper's low-rank method) run in
    /// single precision while weight synthesis, cycle accounting, accuracy
    /// and energy reporting stay `f64`. The differential test suite bounds
    /// how far an `F32` sweep may drift from the `F64` reference.
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Restricts the sweep to one contiguous range of grid cells — the
    /// sharding primitive for multi-process sweeps.
    ///
    /// Cells are numbered `0..grid_cells()` in canonical grid order
    /// (network-major, then array, then strategy, each in insertion order).
    /// Each produced [`RunRecord`] keeps its **global** cell index, so
    /// [`ExperimentRun::merge`] can reassemble shard runs into the canonical
    /// order of the full grid.
    #[must_use]
    pub fn cells(mut self, range: Range<usize>) -> Self {
        self.cell_range = Some(range);
        self
    }

    /// Switches the experiment into frontier mode (default: off). A
    /// frontier-mode experiment is run with [`Experiment::frontier`] (or
    /// [`Experiment::frontier_in`]) instead of [`Experiment::run`], its spec
    /// round-trip carries `"frontier": true`, and its manifest marks the run
    /// as a Pareto-front subset of the grid.
    ///
    /// Frontier mode and [`Experiment::cells`] are mutually exclusive: the
    /// fronts are taken over the full grid.
    #[must_use]
    pub fn frontier_mode(mut self, enabled: bool) -> Self {
        self.frontier = enabled;
        self
    }

    /// Whether the experiment is in frontier mode
    /// ([`Experiment::frontier_mode`]).
    pub fn is_frontier(&self) -> bool {
        self.frontier
    }

    /// Number of cells in the full grid (networks × arrays × strategies), as
    /// currently configured — the exclusive upper bound for
    /// [`Experiment::cells`] ranges.
    pub fn grid_cells(&self) -> usize {
        self.networks.len() * self.arrays.len() * self.strategies.len()
    }

    /// Serializes the experiment as a wire-format [`ExperimentSpec`] — the
    /// lossless inverse of
    /// [`ExperimentSpec::into_experiment`](crate::spec::ExperimentSpec::into_experiment):
    /// resolving the spec against a registry that knows the same names
    /// reproduces this grid exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] when a strategy was added as an opaque
    /// [`CompressionStrategy`] object ([`Experiment::strategy`] /
    /// [`Experiment::boxed_strategy`]): without a registered name there is
    /// nothing to write on the wire. Built-in methods and registry-built
    /// strategies always serialize.
    pub fn to_spec(&self) -> Result<ExperimentSpec> {
        let mut strategies = Vec::with_capacity(self.strategy_specs.len());
        for (index, spec) in self.strategy_specs.iter().enumerate() {
            match spec {
                Some(spec) => strategies.push(spec.clone()),
                None => {
                    return Err(Error::Spec {
                        what: format!(
                            "strategy #{index} ('{}') was added as an opaque \
                             CompressionStrategy object and has no wire name; register it in a \
                             Registry and build the experiment from a spec to serialize it",
                            self.strategies[index].label()
                        ),
                    })
                }
            }
        }
        Ok(ExperimentSpec {
            seed: self.seed,
            precision: self.precision,
            parallelism: self.parallelism,
            cache: self.spec_cache,
            cells: self.cell_range.clone(),
            frontier: self.frontier,
            synthetic_networks: self.synthetic_networks.clone(),
            networks: self.network_names.clone(),
            arrays: self.arrays.clone(),
            strategies,
        })
    }

    /// The `arrays` member of this experiment's manifests: recorded only
    /// when at least one axis leaves the default square geometry, so every
    /// default-axis run keeps its pre-axis header bytes.
    fn manifest_axes(&self) -> Option<Vec<ArrayAxis>> {
        self.arrays
            .iter()
            .any(|axis| !axis.is_square_default())
            .then(|| self.arrays.clone())
    }

    /// Runs the sweep inside a long-lived [`EvalSession`], sharing the
    /// session's decomposition cache with every other run of the session:
    /// repeated sweeps over the same networks, seeds and precision reuse each
    /// other's seeded weights, per-block SVDs and window searches instead of
    /// recomputing them.
    ///
    /// The cache is pure memoization, so a warm-session run is bit-identical
    /// to a cold [`Experiment::run`] of the same sweep, under any session
    /// budget (a zero budget keeps nothing and recomputes every lookup).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Builder`] when the session's [`Precision`] differs
    /// from this experiment's: the cached entries were (or would be) computed
    /// at the session's width, and silently mixing widths would defeat both
    /// the reproducibility of `F64` and the certified budgets of `F32`.
    /// Otherwise, the same contract as [`Experiment::run`].
    pub fn run_in(self, session: &EvalSession) -> Result<ExperimentRun> {
        if session.precision() != self.precision {
            return Err(Error::Builder {
                what: format!(
                    "session was built for {} but the experiment requested {} \
                     (set EvalSession::builder().precision(..) to match)",
                    session.precision(),
                    self.precision
                ),
            });
        }
        self.run_with(session.cache())
    }

    /// Runs the full sweep: every network on every array size under every
    /// strategy, in insertion order. Sugar for [`Experiment::run_in`] with a
    /// throwaway single-run session (a fresh, unbounded decomposition cache).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Builder`] when networks, arrays or strategies are
    /// empty, and propagates evaluation errors otherwise.
    pub fn run(self) -> Result<ExperimentRun> {
        let cache = DecompCache::with_precision(self.precision);
        self.run_with(&cache)
    }

    /// Runs the sweep like [`Experiment::run`], additionally delivering
    /// every completed record to `sink` **in grid order, as soon as it and
    /// every earlier record are available** — while later cells are still
    /// computing. This is what lets `imc run --out` stream records to disk
    /// (via [`crate::record::RunWriter`]): a run killed mid-sweep leaves
    /// every already-delivered record safely written, and
    /// [`RunWriter::resume`](crate::record::RunWriter::resume) keeps them.
    ///
    /// The returned run is identical to what [`Experiment::run`] produces.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`]; additionally, an error returned by `sink`
    /// stops the sweep and is propagated.
    pub fn run_streaming(
        self,
        sink: &mut dyn FnMut(&RunRecord) -> Result<()>,
    ) -> Result<ExperimentRun> {
        let cache = DecompCache::with_precision(self.precision);
        self.run_with_sink(&cache, Some(sink))
    }

    /// The planned reproducibility manifest of this experiment — what
    /// [`Experiment::run`] will embed into the run, available *before*
    /// running so a streaming writer can put it in the header up front.
    /// `None` when the experiment is not spec-serializable, or when its
    /// configuration would not survive validation.
    pub fn planned_manifest(&self) -> Option<RunManifest> {
        let grid = self.grid_cells();
        if self.frontier && self.cell_range.is_some() {
            return None;
        }
        if let Some(range) = &self.cell_range {
            if range.start >= range.end || range.end > grid {
                return None;
            }
        }
        self.to_spec().ok().map(|spec| RunManifest {
            seed: self.seed,
            precision: self.precision,
            parallelism: self.parallelism,
            cells: self.cell_range.clone().unwrap_or(0..grid),
            arrays: self.manifest_axes(),
            frontier: self.frontier,
            spec_version: SPEC_FORMAT_VERSION,
            spec_hash: spec.content_hash(),
        })
    }

    /// The number of cells this experiment will actually evaluate: the
    /// pinned [`Experiment::cells`] range, or the whole grid.
    pub fn planned_cells(&self) -> usize {
        match &self.cell_range {
            Some(range) => range.len(),
            None => self.grid_cells(),
        }
    }

    /// The shared sweep engine behind [`Experiment::run`] (throwaway cache)
    /// and [`Experiment::run_in`] (session-owned cache).
    fn run_with(self, cache: &DecompCache) -> Result<ExperimentRun> {
        self.run_with_sink(cache, None)
    }

    /// The sweep engine proper; `sink`, when given, observes records in
    /// grid order as they complete.
    fn run_with_sink(
        self,
        cache: &DecompCache,
        mut sink: Option<RecordSink<'_>>,
    ) -> Result<ExperimentRun> {
        if self.frontier {
            return Err(Error::Builder {
                what: "experiment is in frontier mode; run it with .frontier() or \
                       .frontier_in(..) instead of .run()"
                    .to_owned(),
            });
        }
        if self.networks.is_empty() {
            return Err(Error::Builder {
                what: "no network added (call .network(..) or .networks(..))".to_owned(),
            });
        }
        if self.arrays.is_empty() {
            return Err(Error::Builder {
                what: "no array size added (call .array(..) or .arrays(..))".to_owned(),
            });
        }
        if self.strategies.is_empty() {
            return Err(Error::Builder {
                what: "no strategy added (call .strategy(..) or .method(..))".to_owned(),
            });
        }
        // Validate the array configurations up front (in insertion order, so
        // the first error matches what the serial loop used to report), then
        // flatten the grid into independent cells for the worker pool. Each
        // cell carries its global grid index so shard runs stay mergeable.
        let mut arrays = Vec::with_capacity(self.arrays.len());
        for axis in &self.arrays {
            arrays.push((axis.rows, axis.to_config()?));
        }
        let mut cells =
            Vec::with_capacity(self.networks.len() * arrays.len() * self.strategies.len());
        for network_index in 0..self.networks.len() {
            for &(size, array) in &arrays {
                for strategy_index in 0..self.strategies.len() {
                    cells.push(GridCell {
                        cell_index: cells.len(),
                        network_index,
                        size,
                        array,
                        strategy_index,
                    });
                }
            }
        }
        let grid_size = cells.len();
        if let Some(range) = &self.cell_range {
            if range.start >= range.end || range.end > cells.len() {
                return Err(Error::Builder {
                    what: format!(
                        "cell range {}..{} is empty or exceeds the {}-cell grid",
                        range.start,
                        range.end,
                        cells.len()
                    ),
                });
            }
            cells = cells[range.clone()].to_vec();
        }

        // The reproducibility manifest: available whenever the experiment is
        // spec-serializable (opaque strategies have no wire identity to
        // record, so their runs carry no manifest).
        let manifest = self.to_spec().ok().map(|spec| RunManifest {
            seed: self.seed,
            precision: self.precision,
            parallelism: self.parallelism,
            cells: self.cell_range.clone().unwrap_or(0..grid_size),
            arrays: self.manifest_axes(),
            frontier: false,
            spec_version: SPEC_FORMAT_VERSION,
            spec_hash: spec.content_hash(),
        });

        let mut records = Vec::with_capacity(cells.len());
        self.evaluate_cells(&cells, cache, |record| {
            if let Some(sink) = sink.as_mut() {
                sink(&record)?;
            }
            records.push(record);
            Ok(())
        })?;
        Ok(ExperimentRun::new(records, manifest))
    }

    /// Evaluates `cells` on the worker pool and hands their records to
    /// `deliver` in the order of `cells` — the one scheduler behind
    /// [`Experiment::run`], [`Experiment::run_streaming`] and
    /// [`Experiment::frontier`].
    ///
    /// The unit of parallel work is one layer of one cell: the cells'
    /// layers are flattened into (cell, layer) jobs, cell-major, and each
    /// cell is folded into its record as soon as its last layer completes.
    /// Workers therefore spread over the layers of a cell instead of walking
    /// whole cells in lockstep, where they would meet on the same block SVD
    /// at the same time.
    ///
    /// A serial run stops at the first failing job. A parallel run lets
    /// in-flight jobs finish and starts no new ones. Either way the error
    /// returned is that of the first failing cell in grid order (at its
    /// first failing layer), and `deliver` has seen exactly the records
    /// before it. An error returned by `deliver` ends the run the same way.
    fn evaluate_cells(
        &self,
        cells: &[GridCell],
        cache: &DecompCache,
        mut deliver: impl FnMut(RunRecord) -> Result<()>,
    ) -> Result<()> {
        let layer_count = |cell: &GridCell| self.networks[cell.network_index].layers.len();
        let jobs: Vec<(usize, usize)> = cells
            .iter()
            .enumerate()
            .flat_map(|(position, cell)| (0..layer_count(cell)).map(move |layer| (position, layer)))
            .collect();
        let job = |index: usize| {
            let (position, layer) = jobs[index];
            let cell = &cells[position];
            evaluate_layer(
                &self.networks[cell.network_index],
                layer,
                self.strategies[cell.strategy_index].as_ref(),
                cell.array,
                self.seed,
                cache,
            )
        };

        // Steps arrive in job order, so the steps collected so far belong
        // to the first cell not yet delivered. `accept` folds and delivers
        // every cell whose layers are all in (a cell without layers is
        // complete from the start).
        let mut steps = Vec::new();
        let mut delivered = 0;
        let mut accept = |step: Option<LayerStep>| -> Result<()> {
            steps.extend(step);
            while let Some(cell) = cells.get(delivered) {
                if steps.len() < layer_count(cell) {
                    break;
                }
                let eval = fold_layers(
                    &self.networks[cell.network_index],
                    self.strategies[cell.strategy_index].as_ref(),
                    cell.array,
                    steps.drain(..),
                );
                deliver(RunRecord {
                    cell_index: cell.cell_index,
                    network_index: cell.network_index,
                    array_size: cell.size,
                    strategy_index: cell.strategy_index,
                    eval,
                })?;
                delivered += 1;
            }
            Ok(())
        };
        let mut outcome = accept(None);
        if outcome.is_ok() {
            let workers = self
                .parallelism_override
                .or(self.parallelism)
                .unwrap_or_else(runtime::default_parallelism);
            runtime::run_indexed_each(workers, jobs.len(), job, |_, step| {
                outcome = step.and_then(|step| accept(Some(step)));
                outcome.is_ok()
            });
        }
        outcome
    }

    /// Runs the sweep and keeps only the records on a Pareto front: for each
    /// (network, array) panel and each method series in it, the cells that
    /// no other cell of the series beats on accuracy in fewer cycles. These
    /// are the points the Fig. 6 comparison plots.
    ///
    /// The series are the fig6 grouping: every low-rank configuration of one
    /// mapping (im2col or SDK) is one series, as are PatDNN, PAIRS and
    /// DoReFa; every other strategy (the baselines, and strategies without a
    /// built-in wire spec) forms a series of its own. Each front is
    /// [`pareto_front`](crate::experiments::pareto_front)'s filter over the
    /// series' records in grid order, so ties in cycles keep the earlier
    /// cell. The kept records are byte-identical to their exhaustive twins,
    /// in grid order, and the result depends on neither the worker count nor
    /// the cache state.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`]; additionally [`Error::Builder`] when the
    /// experiment carries a [`Experiment::cells`] restriction (the fronts
    /// are taken over the full grid).
    pub fn frontier(self) -> Result<FrontierOutcome> {
        self.frontier_with(Experiment::run)
    }

    /// The session variant of [`Experiment::frontier`]: the sweep borrows
    /// the long-lived decomposition cache of an
    /// [`EvalSession`](crate::session::EvalSession), so its evaluations warm
    /// (and reuse) the same entries as every other run of the session.
    ///
    /// # Errors
    ///
    /// As [`Experiment::frontier`], plus [`Error::Builder`] when the
    /// session's precision differs from the experiment's (same contract as
    /// [`Experiment::run_in`]).
    pub fn frontier_in(self, session: &EvalSession) -> Result<FrontierOutcome> {
        self.frontier_with(|experiment| experiment.run_in(session))
    }

    /// The frontier filter behind [`Experiment::frontier`] and
    /// [`Experiment::frontier_in`]: the exhaustive sweep by `run`, then one
    /// Pareto filter per (panel, series).
    fn frontier_with(
        mut self,
        run: impl FnOnce(Experiment) -> Result<ExperimentRun>,
    ) -> Result<FrontierOutcome> {
        if self.cell_range.is_some() {
            return Err(Error::Builder {
                what: "a frontier run filters the full grid and cannot be combined with \
                       .cells(..)"
                    .to_owned(),
            });
        }
        let series: Vec<SeriesKey> = self
            .strategy_specs
            .iter()
            .enumerate()
            .map(|(index, spec)| series_of(spec.as_ref(), index))
            .collect();
        let mut keys: Vec<SeriesKey> = Vec::new();
        for key in &series {
            if !keys.contains(key) {
                keys.push(*key);
            }
        }
        self.frontier = false;
        let run = run(self)?;
        let grid_cells = run.records.len();

        // The full grid is panel-major: each (network, array) panel is
        // `series.len()` consecutive records, one per strategy.
        let mut on_front = vec![false; grid_cells];
        for panel in run.records.chunks(series.len()) {
            for key in &keys {
                let members: Vec<&RunRecord> = panel
                    .iter()
                    .filter(|record| series[record.strategy_index] == *key)
                    .collect();
                let points: Vec<(f64, f64)> = members
                    .iter()
                    .map(|record| (record.eval.cycles, record.eval.accuracy))
                    .collect();
                for index in pareto_front_indices(&points) {
                    on_front[members[index].cell_index] = true;
                }
            }
        }
        let records = run
            .records
            .into_iter()
            .filter(|record| on_front[record.cell_index])
            .collect();
        let manifest = run.manifest.map(|manifest| RunManifest {
            frontier: true,
            ..manifest
        });
        Ok(FrontierOutcome {
            run: ExperimentRun::new(records, manifest),
            grid_cells,
        })
    }
}

/// The result of a frontier run ([`Experiment::frontier`]).
#[derive(Debug)]
pub struct FrontierOutcome {
    /// The front records in canonical grid order, with a manifest marked
    /// `frontier` (when the experiment is spec-serializable).
    pub run: ExperimentRun,
    /// Size of the full grid the fronts were taken from.
    pub grid_cells: usize,
}

/// One cell of the sweep grid: its global grid index and the (network,
/// array, strategy) triple it evaluates.
#[derive(Debug, Clone, Copy)]
struct GridCell {
    cell_index: usize,
    network_index: usize,
    size: usize,
    array: ArrayConfig,
    strategy_index: usize,
}

/// The method series a strategy's records compete in for a front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeriesKey {
    LowRank { sdk: bool },
    PatDnn,
    Pairs,
    DoReFa,
    Single(usize),
}

/// The series of strategy `index`, read from its wire spec. Strategies
/// without a spec, or with one the built-in parser does not recognize, form
/// a series of their own.
fn series_of(spec: Option<&StrategySpec>, index: usize) -> SeriesKey {
    match spec.and_then(|spec| builtin_method_from_spec(spec).ok()) {
        Some(CompressionMethod::LowRank(cfg)) => SeriesKey::LowRank { sdk: cfg.use_sdk },
        Some(CompressionMethod::PatternPruning { .. }) => SeriesKey::PatDnn,
        Some(CompressionMethod::Pairs { .. }) => SeriesKey::Pairs,
        Some(CompressionMethod::Quantized { .. }) => SeriesKey::DoReFa,
        Some(CompressionMethod::Uncompressed { .. }) | None => SeriesKey::Single(index),
    }
}

/// One cell of the sweep grid: a network evaluated under one strategy on one
/// array size.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Global index of this cell in the canonical grid order of the *full*
    /// experiment (network-major, then array, then strategy) — stable across
    /// [`Experiment::cells`] shard runs, so shards can be merged back into
    /// canonical order.
    pub cell_index: usize,
    /// Index of the network in insertion order.
    pub network_index: usize,
    /// Square array size of this evaluation.
    pub array_size: usize,
    /// Index of the strategy in insertion order.
    pub strategy_index: usize,
    /// The full evaluation (cycles, accuracy, parameters, schedules).
    pub eval: NetworkEvaluation,
}

impl RunRecord {
    /// Total inference energy of this evaluation under the given parameters.
    pub fn energy(&self, params: &EnergyParams) -> f64 {
        self.eval.energy(params)
    }
}

/// The completed sweep: records in deterministic grid order (network-major,
/// then array, then strategy).
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    records: Vec<RunRecord>,
    /// Cell coordinates → position in `records`, built once at run
    /// completion so [`ExperimentRun::get`] is O(1) instead of a linear scan.
    index: HashMap<(usize, usize, usize), usize>,
    /// What produced the run, when the experiment was spec-serializable;
    /// embedded in the serialized header.
    manifest: Option<RunManifest>,
}

impl ExperimentRun {
    /// Wraps completed records, indexing them by cell coordinates. When the
    /// same coordinates occur twice (e.g. the same array size added twice),
    /// the first occurrence wins, matching what a linear scan would find.
    pub(crate) fn new(records: Vec<RunRecord>, manifest: Option<RunManifest>) -> Self {
        let mut index = HashMap::with_capacity(records.len());
        for (position, record) in records.iter().enumerate() {
            index
                .entry((
                    record.network_index,
                    record.array_size,
                    record.strategy_index,
                ))
                .or_insert(position);
        }
        Self {
            records,
            index,
            manifest,
        }
    }

    /// The reproducibility manifest of the producing experiment: `Some` for
    /// every run of a spec-serializable experiment (and for merges of such
    /// runs), `None` when the experiment contained an opaque strategy or the
    /// run was read from a pre-manifest record file.
    pub fn manifest(&self) -> Option<&RunManifest> {
        self.manifest.as_ref()
    }

    /// Reassembles shard runs (produced by [`Experiment::cells`], possibly
    /// serialized and read back on another host) into one run in canonical
    /// cell order — the merge half of the shard/merge sweep workflow.
    ///
    /// Shards may arrive in any order and need not cover a contiguous range;
    /// records are sorted by their global [`RunRecord::cell_index`]. Merging
    /// all shards of a grid is byte-identical to running the grid unsharded.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] when two shards carry the same cell index —
    /// overlapping shard ranges are a sharding bug, and silently keeping one
    /// of the duplicates would mask it — or when shards carry manifests of
    /// *different* experiments (mismatched seed, precision or spec hash):
    /// merging unrelated grids is equally a driver bug.
    ///
    /// The merged run keeps a manifest when every shard has one, they agree,
    /// and the union of their cell ranges is one contiguous span (the normal
    /// shard/merge dataflow); merging all shards of a grid therefore
    /// reproduces the unsharded run's manifest — and its serialized bytes —
    /// exactly.
    pub fn merge(shards: impl IntoIterator<Item = ExperimentRun>) -> Result<ExperimentRun> {
        let mut records: Vec<RunRecord> = Vec::new();
        let mut present: Vec<RunManifest> = Vec::new();
        let mut missing = false;
        for shard in shards {
            match shard.manifest {
                Some(manifest) => present.push(manifest),
                None => missing = true,
            }
            records.extend(shard.records);
        }
        // Cross-check every manifest that exists — a manifest-less shard in
        // the mix must not disable mismatch detection for the others — but
        // only keep a merged manifest when *all* shards carried one (a
        // partial manifest could not vouch for the whole run). Checked
        // before the duplicate scan so fundamentally unmergeable shards
        // (different experiments, or frontier mixed with exhaustive) report
        // that, not a coincidental cell overlap.
        let manifest = if present.is_empty() {
            None
        } else {
            let merged = Self::merge_manifests(&present)?;
            if missing {
                None
            } else {
                merged
            }
        };
        records.sort_by_key(|r| r.cell_index);
        for pair in records.windows(2) {
            if pair[0].cell_index == pair[1].cell_index {
                return Err(Error::Record {
                    what: format!(
                        "duplicate cell index {} across shards (overlapping cell ranges?)",
                        pair[0].cell_index
                    ),
                });
            }
        }
        Ok(ExperimentRun::new(records, manifest))
    }

    /// Combines shard manifests: identity fields must agree; the cell ranges
    /// combine into their covering span when they tile it contiguously
    /// (otherwise no honest single range exists and the merge drops the
    /// manifest). The recorded `parallelism` is an execution knob, not
    /// identity — shards that disagree on it still merge, and the merged
    /// manifest then records `None` (no single request pinned one).
    pub(crate) fn merge_manifests(list: &[RunManifest]) -> Result<Option<RunManifest>> {
        let first = &list[0];
        for manifest in &list[1..] {
            if manifest.frontier != first.frontier {
                return Err(Error::Record {
                    what: "cannot mix frontier and exhaustive shards: a frontier run is a \
                           Pareto-front subset of the grid, not a cell-range slice"
                        .to_owned(),
                });
            }
            let same = manifest.seed == first.seed
                && manifest.precision == first.precision
                && manifest.arrays == first.arrays
                && manifest.spec_version == first.spec_version
                && manifest.spec_hash == first.spec_hash;
            if !same {
                return Err(Error::Record {
                    what: "shards carry manifests of different experiments \
                           (mismatched seed, precision, arrays or spec hash)"
                        .to_owned(),
                });
            }
        }
        let parallelism = list
            .iter()
            .all(|m| m.parallelism == first.parallelism)
            .then_some(first.parallelism)
            .flatten();
        let start = list.iter().map(|m| m.cells.start).min().expect("non-empty");
        let end = list.iter().map(|m| m.cells.end).max().expect("non-empty");
        let covered: usize = list.iter().map(|m| m.cells.len()).sum();
        if covered == end - start {
            Ok(Some(RunManifest {
                parallelism,
                cells: start..end,
                ..first.clone()
            }))
        } else {
            Ok(None)
        }
    }

    /// All records in grid order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// The evaluations in grid order.
    pub fn evaluations(&self) -> impl Iterator<Item = &NetworkEvaluation> {
        self.records.iter().map(|r| &r.eval)
    }

    /// Consumes the run, returning the evaluations in grid order.
    pub fn into_evaluations(self) -> Vec<NetworkEvaluation> {
        self.records.into_iter().map(|r| r.eval).collect()
    }

    /// Records of one strategy (by insertion index) across the whole grid.
    pub fn for_strategy(&self, strategy_index: usize) -> impl Iterator<Item = &RunRecord> {
        self.records
            .iter()
            .filter(move |r| r.strategy_index == strategy_index)
    }

    /// Records of one array size across the whole grid.
    pub fn for_array(&self, size: usize) -> impl Iterator<Item = &RunRecord> {
        self.records.iter().filter(move |r| r.array_size == size)
    }

    /// The single evaluation of `(network_index, array_size,
    /// strategy_index)`, if that cell was part of the grid. O(1) via the
    /// index map built at run completion.
    pub fn get(
        &self,
        network_index: usize,
        array_size: usize,
        strategy_index: usize,
    ) -> Option<&NetworkEvaluation> {
        self.index
            .get(&(network_index, array_size, strategy_index))
            .map(|&position| &self.records[position].eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_core::{CompressionConfig, RankSpec};
    use imc_nn::resnet20;

    #[test]
    fn empty_builders_are_rejected() {
        assert!(matches!(
            Experiment::new().run(),
            Err(Error::Builder { .. })
        ));
        assert!(matches!(
            Experiment::new().network(resnet20()).run(),
            Err(Error::Builder { .. })
        ));
        assert!(matches!(
            Experiment::new().network(resnet20()).array(64).run(),
            Err(Error::Builder { .. })
        ));
    }

    #[test]
    fn grid_order_is_network_array_strategy() {
        let run = Experiment::new()
            .network(resnet20())
            .arrays([32, 64])
            .method(CompressionMethod::Uncompressed { sdk: false })
            .method(CompressionMethod::Uncompressed { sdk: true })
            .run()
            .unwrap();
        let key: Vec<(usize, usize, usize)> = run
            .records()
            .iter()
            .map(|r| (r.network_index, r.array_size, r.strategy_index))
            .collect();
        assert_eq!(key, vec![(0, 32, 0), (0, 32, 1), (0, 64, 0), (0, 64, 1)]);
    }

    #[test]
    fn builder_reproduces_direct_evaluation_bit_for_bit() {
        // A network without layers (buildable through the public fields)
        // is a cell with no layer jobs.
        let layerless = NetworkArch {
            layers: Vec::new(),
            ..resnet20()
        };
        let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        let method = CompressionMethod::LowRank(cfg);
        let strategy = method.strategy();
        let array = ArrayConfig::square(64).unwrap();
        for arch in [resnet20(), layerless] {
            // The reference: a serial walk of the layers in order, on a
            // fresh cache, folded once.
            let cache = DecompCache::new();
            let steps = (0..arch.layers.len())
                .map(|layer| {
                    evaluate_layer(&arch, layer, strategy.as_ref(), array, DEFAULT_SEED, &cache)
                })
                .collect::<Result<Vec<_>>>()
                .unwrap();
            let direct = fold_layers(&arch, strategy.as_ref(), array, steps);
            for workers in [1, 2] {
                let run = Experiment::new()
                    .network(arch.clone())
                    .network(arch.clone())
                    .array(64)
                    .method(method)
                    .seed(DEFAULT_SEED)
                    .parallelism(workers)
                    .run()
                    .unwrap();
                assert_eq!(run.records().len(), 2);
                for record in run.records() {
                    let built = &record.eval;
                    assert_eq!(built.cycles, direct.cycles);
                    assert_eq!(built.accuracy, direct.accuracy);
                    assert_eq!(built.parameters, direct.parameters);
                    assert_eq!(built.method, direct.method);
                    assert_eq!(built.schedules, direct.schedules);
                }
            }
        }
    }

    fn small_grid() -> Experiment {
        let mut experiment = Experiment::new()
            .network(resnet20())
            .array(32)
            .method(CompressionMethod::Uncompressed { sdk: false });
        for groups in [1usize, 8] {
            for divisor in [2usize, 4, 8, 16] {
                experiment = experiment.method(CompressionMethod::LowRank(
                    CompressionConfig::new(RankSpec::Divisor(divisor), groups, false).unwrap(),
                ));
            }
        }
        for entries in 1..=3 {
            experiment = experiment.method(CompressionMethod::PatternPruning { entries });
        }
        experiment
    }

    /// Per-series Pareto front of an exhaustive run, computed independently
    /// of the frontier engine via the public `pareto_front` (matching its
    /// stable-sort tie semantics by brute-force domination with grid-order
    /// ties).
    fn reference_front_cells(run: &ExperimentRun, series: &[Vec<usize>]) -> Vec<usize> {
        let mut keep = Vec::new();
        for group in series {
            let members: Vec<&RunRecord> = run
                .records()
                .iter()
                .filter(|r| group.contains(&r.strategy_index))
                .collect();
            // A point survives `pareto_front`'s cycle sort + strictly
            // increasing accuracy filter iff no point sorted before it (less
            // cycles, or equal cycles and earlier grid order) has at least
            // its accuracy.
            for r in &members {
                let blocked = members.iter().any(|q| {
                    q.eval.accuracy >= r.eval.accuracy
                        && (q.eval.cycles < r.eval.cycles
                            || (q.eval.cycles == r.eval.cycles && q.cell_index < r.cell_index))
                });
                if !blocked {
                    keep.push(r.cell_index);
                }
            }
        }
        keep.sort_unstable();
        keep
    }

    #[test]
    fn frontier_reproduces_the_per_series_fronts_byte_for_byte() {
        let exhaustive = small_grid().run().unwrap();
        let outcome = small_grid().frontier_mode(true).frontier().unwrap();

        // The three series of the small grid: the baseline singleton, the
        // low-rank grid (two group counts), and the PatDNN entry sweep.
        let series = vec![vec![0usize], (1..=8).collect(), (9..=11).collect()];
        let expected_cells = reference_front_cells(&exhaustive, &series);
        let got_cells: Vec<usize> = outcome.run.records().iter().map(|r| r.cell_index).collect();
        assert_eq!(got_cells, expected_cells);

        // Byte-identical to filtering the exhaustive run down to the front.
        let filtered: Vec<RunRecord> = exhaustive
            .records()
            .iter()
            .filter(|r| expected_cells.contains(&r.cell_index))
            .cloned()
            .collect();
        let expected_run = ExperimentRun::new(filtered, outcome.run.manifest().cloned());
        assert_eq!(
            outcome.run.to_jsonl().unwrap(),
            expected_run.to_jsonl().unwrap()
        );

        assert_eq!(outcome.grid_cells, 12);

        // The manifest marks the run as a frontier subset of the full grid.
        let manifest = outcome.run.manifest().expect("spec-serializable");
        assert!(manifest.frontier);
        assert_eq!(manifest.cells, 0..12);
        assert_eq!(
            manifest.spec_hash,
            exhaustive.manifest().unwrap().spec_hash,
            "frontier and exhaustive runs of one grid share the spec hash"
        );
    }

    #[test]
    fn frontier_is_identical_for_every_worker_count() {
        // The override knob is the one that must not change a byte (the
        // recorded .parallelism() is part of the manifest by design).
        let serial = small_grid().parallelism_override(1).frontier().unwrap();
        let parallel = small_grid().parallelism_override(4).frontier().unwrap();
        assert_eq!(
            serial.run.to_jsonl().unwrap(),
            parallel.run.to_jsonl().unwrap()
        );
    }

    #[test]
    fn frontier_mode_guards_are_enforced() {
        // run() refuses a frontier-mode experiment.
        let err = small_grid().frontier_mode(true).run().unwrap_err();
        assert!(matches!(err, Error::Builder { .. }), "{err}");
        assert!(err.to_string().contains("frontier"), "{err}");

        // frontier() refuses a cell-range restriction.
        let err = small_grid().cells(0..2).frontier().unwrap_err();
        assert!(matches!(err, Error::Builder { .. }), "{err}");
        assert!(err.to_string().contains("cells"), "{err}");
    }

    #[test]
    fn merge_refuses_to_mix_frontier_and_exhaustive_shards() {
        let exhaustive = small_grid().cells(0..2).run().unwrap();
        let front = small_grid().frontier().unwrap().run;
        let err = ExperimentRun::merge([front, exhaustive]).unwrap_err();
        assert!(matches!(err, Error::Record { .. }), "{err}");
        assert!(err.to_string().contains("frontier"), "{err}");
    }

    #[test]
    fn selection_helpers_slice_the_grid() {
        let run = Experiment::new()
            .network(resnet20())
            .arrays([32, 64])
            .method(CompressionMethod::Uncompressed { sdk: false })
            .method(CompressionMethod::PatternPruning { entries: 4 })
            .run()
            .unwrap();
        assert_eq!(run.for_strategy(1).count(), 2);
        assert_eq!(run.for_array(32).count(), 2);
        assert!(run.get(0, 64, 1).is_some());
        assert!(run.get(0, 128, 0).is_none());
        assert!(run.get(1, 64, 0).is_none());
    }
}
