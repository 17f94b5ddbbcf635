//! Pruning baselines for IMC arrays.
//!
//! The paper compares its low-rank method against the pruning families that
//! the IMC community has tailored to crossbar constraints:
//!
//! * [`pattern::PatternPruning`] — PatDNN-style per-kernel pattern pruning:
//!   each `K×K` kernel keeps a fixed number of entries. Translating the
//!   resulting fine-grained sparsity into cycle savings on a crossbar
//!   requires *multiplexer/demultiplexer* peripherals that realign the input
//!   feature with each column's surviving rows.
//! * [`pairs::PairsPruning`] — PAIRS (Rhe et al., ISLPED 2023): a shared
//!   pattern across all kernels, chosen so that entire rows of the SDK
//!   mapping become all-zero and can be skipped by deactivating wordlines
//!   (zero-skipping hardware, no realignment MUX needed).
//!
//! Every baseline reports the same [`PrunedLayer`] summary (occupancy, loads,
//! removed-weight fraction, required peripheral circuitry) so the experiment
//! harness and the energy model can treat all compression methods uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mask;
pub mod pairs;
pub mod pattern;
pub mod types;

pub use pairs::PairsPruning;
pub use pattern::PatternPruning;
pub use types::{Peripheral, PrunedLayer};

/// Errors produced by the pruning layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The pruning configuration is invalid (e.g. zero entries, or keep
    /// fraction outside `(0, 1]`).
    InvalidConfig {
        /// Description of the offending parameter.
        what: String,
    },
    /// An error bubbled up from the linear-algebra layer.
    Linalg(imc_linalg::Error),
    /// An error bubbled up from the tensor layer.
    Tensor(imc_tensor::Error),
    /// An error bubbled up from the array-mapping layer.
    Array(imc_array::Error),
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::InvalidConfig { what } => write!(f, "invalid pruning configuration: {what}"),
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
            Error::Tensor(e) => write!(f, "tensor error: {e}"),
            Error::Array(e) => write!(f, "array mapping error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            Error::Tensor(e) => Some(e),
            Error::Array(e) => Some(e),
            _ => None,
        }
    }
}

impl From<imc_linalg::Error> for Error {
    fn from(e: imc_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

impl From<imc_tensor::Error> for Error {
    fn from(e: imc_tensor::Error) -> Self {
        Error::Tensor(e)
    }
}

impl From<imc_array::Error> for Error {
    fn from(e: imc_array::Error) -> Self {
        Error::Array(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, Error>;
