//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table I (accuracy & cycles, group × rank grid, w/ and w/o SDK) | [`experiments::table1`] |
//! | Fig. 6 (accuracy vs cycles Pareto: ours vs PatDNN vs PAIRS)    | [`experiments::fig6`] |
//! | Fig. 7 (normalized energy: im2col vs pattern pruning vs ours)  | [`experiments::fig7`] |
//! | Fig. 8 (ours vs 1–4-bit DoReFa quantization)                   | [`experiments::fig8`] |
//! | Fig. 9 (ours vs traditional low-rank compression)              | [`experiments::fig9`] |
//!
//! The crate is organized in three layers:
//!
//! * [`strategy`] — the pluggable [`CompressionStrategy`] contract: one
//!   compressible convolution in, cycles / parameters / reconstruction error /
//!   energy access schedules out. The paper's five methods are the built-in
//!   implementations; external methods implement the trait and plug in
//!   without touching this crate.
//! * [`network`] — the evaluation engine walking a whole network under one
//!   strategy through a shared decomposition cache, producing a
//!   [`network::NetworkEvaluation`].
//! * [`experiment`] — the builder-style [`Experiment`] facade sweeping
//!   networks × array sizes × strategies; the figure generators in
//!   [`experiments`] are thin sweeps over it.
//!
//! Seven service-scale layers sit on top of the experiment facade:
//!
//! * [`session`] — the long-lived [`EvalSession`]: one bounded, shared
//!   decomposition cache reused across [`Experiment::run_in`] calls, so
//!   repeated sweeps over the same networks/seeds/precision skip the
//!   redundant SVD work. `Experiment::run` is sugar for a throwaway session.
//! * [`record`] — the versioned JSON-lines serialization of
//!   [`ExperimentRun`]s, plus [`Experiment::cells`] (cell-range sharding)
//!   and [`ExperimentRun::merge`]: a grid can be split across processes or
//!   hosts and reassembled byte-identically.
//! * [`spec`] — the versioned [`ExperimentSpec`] request document: any sweep
//!   as wire-format data (networks, arrays and strategies **by name**), a
//!   lossless [`Experiment::to_spec`] round-trip, and the [`RunManifest`]
//!   every spec-serializable run embeds into its serialized header.
//! * [`registry`] — the name → constructor [`Registry`] the spec layer
//!   resolves against; external networks and strategies register under
//!   their own names and become addressable over the wire.
//! * [`synth`] — the declarative synthetic-network generator: whole conv
//!   topologies as wire-format [`SyntheticNetSpec`] documents, plus the
//!   pre-registered `synthetic:*` scenario family, so the scenario space
//!   extends beyond the paper's two fixed models without Rust changes.
//! * [`serve`] — the long-lived evaluation [`Server`]: a zero-dependency
//!   HTTP/1.1 service that executes POSTed spec documents on shared
//!   per-precision sessions, coalesces identical in-flight requests onto
//!   one computation, and reports live cache/latency metrics.
//! * [`store`] — the persistent result store: a content-addressed directory
//!   of completed run documents keyed by [`serve::RunKey`], written
//!   atomically and shared by `imc run`, `imc sweep` and the server's
//!   two-tier cache, so warm latency survives process restarts.
//!
//! (The [`json`] module holds the shared hand-rolled JSON value model both
//! wire formats are built on.)
//!
//! Every function takes explicit seeds and is fully deterministic, so the
//! generated reports are reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod experiments;
pub mod json;
pub mod network;
pub mod record;
pub mod registry;
pub mod report;
pub mod runtime;
pub mod serve;
pub mod session;
pub mod spec;
pub mod store;
pub mod strategy;
pub mod synth;

pub use experiment::{Experiment, ExperimentRun, FrontierOutcome, RunRecord};
pub use experiments::{
    fig6, fig6_experiment, fig6_in, fig6_panel_from_run, fig7, fig7_experiment, fig8,
    fig8_experiment, fig9, fig9_experiment, fig9_for, headline, table1, table1_experiment,
    table1_in, table1_rows_from_run, DEFAULT_SEED,
};
pub use json::JsonValue;
pub use network::{CompressionMethod, NetworkEvaluation};
pub use registry::Registry;
pub use serve::{RunKey, ServeClient, ServeConfig, ServeMetrics, Server};
pub use session::{EvalSession, EvalSessionBuilder};
pub use spec::{
    ArrayAxis, ExperimentSpec, RunManifest, StrategySpec, SPEC_FORMAT, SPEC_FORMAT_VERSION,
};
pub use store::{GcReport, RunStore, StoreEntry, VerifyReport};
pub use strategy::{CompressionStrategy, ConvContext, LayerOutcome};
pub use synth::{ChannelRamp, StageSpec, SyntheticNetSpec};

// The cache-observability types surfaced by `EvalSession::stats`; defined
// next to `DecompCache` in `imc-core`.
pub use imc_core::{CacheStats, KindStats};

// The decomposition-precision knob consumed by `Experiment::precision` and
// `EvalSession::builder().precision(..)`; defined in `imc-linalg`.
pub use imc_core::Precision;

/// Errors produced by the experiment harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An error bubbled up from a lower layer.
    Core(imc_core::Error),
    /// An error bubbled up from the pruning baselines.
    Pruning(imc_pruning::Error),
    /// An error bubbled up from the quantization baselines.
    Quant(imc_quant::Error),
    /// An error bubbled up from the array-mapping layer.
    Array(imc_array::Error),
    /// An error bubbled up from the tensor layer.
    Tensor(imc_tensor::Error),
    /// An error bubbled up from the neural-network layer.
    Nn(imc_nn::Error),
    /// An [`Experiment`] was misconfigured (empty networks, arrays or
    /// strategies).
    Builder {
        /// Description of the missing or inconsistent piece.
        what: String,
    },
    /// An error raised by an external [`CompressionStrategy`]
    /// implementation.
    Strategy {
        /// Description of the strategy failure.
        what: String,
    },
    /// A serialized run record could not be written, read or merged
    /// (malformed JSON lines, unsupported format version, truncated or
    /// overlapping shard files, I/O failures).
    Record {
        /// Description of the record failure.
        what: String,
    },
    /// A declarative experiment request could not be resolved (malformed or
    /// unsupported spec document, unknown network/strategy names, invalid
    /// strategy parameters, a non-serializable experiment, I/O failures on
    /// spec files).
    Spec {
        /// Description of the spec failure.
        what: String,
    },
    /// The evaluation service failed (bind/socket errors, malformed HTTP
    /// traffic, or a non-2xx server response surfaced by [`ServeClient`]).
    Serve {
        /// Description of the service failure.
        what: String,
    },
    /// A filesystem operation failed. Kept distinct from the format errors
    /// ([`Error::Record`] / [`Error::Spec`]) because I/O failures are
    /// typically *transient*: the `imc` CLI maps this variant to its own
    /// exit code so a supervisor can tell a retry might succeed.
    Io {
        /// Description of the I/O failure.
        what: String,
    },
}

impl Error {
    /// Wraps an external strategy's failure description; the conversion
    /// surface for [`CompressionStrategy`] implementations defined outside
    /// this workspace.
    pub fn strategy(what: impl Into<String>) -> Self {
        Error::Strategy { what: what.into() }
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Core(e) => write!(f, "compression error: {e}"),
            Error::Pruning(e) => write!(f, "pruning error: {e}"),
            Error::Quant(e) => write!(f, "quantization error: {e}"),
            Error::Array(e) => write!(f, "array mapping error: {e}"),
            Error::Tensor(e) => write!(f, "tensor error: {e}"),
            Error::Nn(e) => write!(f, "neural network error: {e}"),
            Error::Builder { what } => write!(f, "experiment builder error: {what}"),
            Error::Strategy { what } => write!(f, "compression strategy error: {what}"),
            Error::Record { what } => write!(f, "run record error: {what}"),
            Error::Spec { what } => write!(f, "experiment spec error: {what}"),
            Error::Serve { what } => write!(f, "evaluation service error: {what}"),
            Error::Io { what } => write!(f, "I/O error: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Pruning(e) => Some(e),
            Error::Quant(e) => Some(e),
            Error::Array(e) => Some(e),
            Error::Tensor(e) => Some(e),
            Error::Nn(e) => Some(e),
            Error::Builder { .. }
            | Error::Strategy { .. }
            | Error::Record { .. }
            | Error::Spec { .. }
            | Error::Serve { .. }
            | Error::Io { .. } => None,
        }
    }
}

impl From<imc_core::Error> for Error {
    fn from(e: imc_core::Error) -> Self {
        Error::Core(e)
    }
}

impl From<imc_pruning::Error> for Error {
    fn from(e: imc_pruning::Error) -> Self {
        Error::Pruning(e)
    }
}

impl From<imc_quant::Error> for Error {
    fn from(e: imc_quant::Error) -> Self {
        Error::Quant(e)
    }
}

impl From<imc_array::Error> for Error {
    fn from(e: imc_array::Error) -> Self {
        Error::Array(e)
    }
}

impl From<imc_tensor::Error> for Error {
    fn from(e: imc_tensor::Error) -> Self {
        Error::Tensor(e)
    }
}

impl From<imc_nn::Error> for Error {
    fn from(e: imc_nn::Error) -> Self {
        Error::Nn(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, Error>;
