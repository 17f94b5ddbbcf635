//! Umbrella crate for the "Low-Rank Compression for IMC Arrays" reproduction.
//!
//! This crate is the intended entry point: it re-exports the workspace
//! members, carries the unified [`enum@Error`] type, and surfaces the
//! builder-style [`Experiment`] facade through which every comparison of the
//! paper (and any new compression method) is run:
//!
//! ```
//! use imc::{resnet20, CompressionMethod, Experiment};
//!
//! let run = Experiment::new()
//!     .network(resnet20())
//!     .arrays([32, 64])
//!     .method(CompressionMethod::Uncompressed { sdk: false })
//!     .method(CompressionMethod::Uncompressed { sdk: true })
//!     .seed(2025)
//!     .run()
//!     .unwrap();
//! for record in run.records() {
//!     println!(
//!         "{} on {}x{}: {:.0} cycles",
//!         record.eval.method, record.array_size, record.array_size, record.eval.cycles
//!     );
//! }
//! ```
//!
//! New compression methods implement [`CompressionStrategy`] and plug into
//! the same sweep without touching any workspace crate.
//!
//! Service-style workloads run many sweeps: an [`EvalSession`] owns one
//! bounded decomposition cache shared by every [`Experiment::run_in`] call
//! (warm runs skip the SVD work, bit-identically), and
//! [`Experiment::cells`] / [`ExperimentRun::merge`] plus the versioned
//! JSON-lines form ([`ExperimentRun::to_jsonl`]) shard one grid across
//! processes and reassemble the canonical run byte-identically.
//!
//! Experiments are also *wire-format requests*: an [`ExperimentSpec`] names
//! networks and strategies as data (resolved through a [`Registry`], which
//! external strategies extend), round-trips losslessly via
//! [`Experiment::to_spec`], and stamps every run's serialized header with a
//! reproducibility manifest. The [`cli`] module (the `imc` binary) drives
//! the whole pipeline from the command line:
//! `imc spec fig6 | imc run - | imc report fig6 -`.
//!
//! The actual implementations live in the `crates/` workspace members:
//!
//! * [`imc_linalg`] — dense linear algebra (SVD, QR, Kronecker products).
//! * [`imc_tensor`] — convolution tensors and im2col matrixization.
//! * [`imc_array`] — the IMC crossbar model and weight-mapping strategies.
//! * [`imc_core`] — the paper's contribution: group low-rank decomposition and
//!   SDK-aware low-rank mapping.
//! * [`imc_pruning`] — pattern-pruning and PAIRS baselines.
//! * [`imc_quant`] — DoReFa-style quantization baselines.
//! * [`imc_nn`] — a minimal neural-network substrate (ResNet-20, WRN16-4).
//! * [`imc_energy`] — the NeuroSIM/ConvMapSIM-style energy simulator.
//! * [`imc_sim`] — the experiment harness regenerating every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use imc_array as array;
pub use imc_core as core;
pub use imc_energy as energy;
pub use imc_linalg as linalg;
pub use imc_nn as nn;
pub use imc_pruning as pruning;
pub use imc_quant as quant;
pub use imc_sim as sim;
pub use imc_tensor as tensor;

pub mod cli;
mod error;

pub use error::{Error, Result};

// The experiment facade: the builder, the strategy contract it sweeps, and
// the handful of types almost every experiment touches.
pub use imc_array::ArrayConfig;
pub use imc_core::{CacheStats, CompressionConfig, KindStats, Precision, RankSpec};
pub use imc_energy::EnergyParams;
pub use imc_nn::{resnet20, wrn16_4, NetworkArch};
pub use imc_sim::strategy;
pub use imc_sim::{
    CompressionMethod, CompressionStrategy, ConvContext, EvalSession, EvalSessionBuilder,
    Experiment, ExperimentRun, ExperimentSpec, FrontierOutcome, GcReport, LayerOutcome,
    NetworkEvaluation, Registry, RunKey, RunManifest, RunRecord, RunStore, ServeClient,
    ServeConfig, ServeMetrics, Server, StoreEntry, StrategySpec, VerifyReport, DEFAULT_SEED,
};
