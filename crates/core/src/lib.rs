//! Group low-rank decomposition and SDK-aware low-rank mapping for IMC
//! arrays — the core contribution of *"Low-Rank Compression for IMC Arrays"*
//! (Jeon, Rhe, Ko; DATE 2025).
//!
//! The crate provides three layers of functionality:
//!
//! 1. **Decomposition** ([`factors`], [`group`]) — truncated-SVD low-rank
//!    factorization `W ≈ L·R` of an im2col weight matrix, and the paper's
//!    *group* low-rank decomposition `D_g(W) = [D(W_1), …, D(W_g)]` that
//!    partitions the input dimension into `g` groups before factorizing.
//!    Theorem 1 (the grouped reconstruction error never exceeds the
//!    un-grouped one) is verified by the test-suite over random matrices.
//! 2. **SDK-aware mapping** ([`sdk_lowrank`]) — Theorem 2's identity
//!    `D(SDK(W)) = (I_N ⊗ L) · SDK(R)`: the first crossbar stage holds the
//!    SDK mapping of the small factor `R`, the second stage a block-diagonal
//!    replication of `L`. Both the crossbar contents and a functional
//!    convolution path are materialized so the identity can be checked
//!    end-to-end against the uncompressed convolution.
//! 3. **Cost model** ([`cycles`], [`layer`]) — AR/AC computing-cycle and
//!    parameter accounting for a compressed layer under the four mapping
//!    regimes compared in the paper (im2col / SDK × plain / low-rank), plus
//!    per-layer compression summaries used by the experiment harness.
//!
//! # Quickstart
//!
//! ```
//! use imc_array::ArrayConfig;
//! use imc_core::{CompressionConfig, DecompCache, LayerCompression, RankSpec};
//! use imc_tensor::ConvShape;
//!
//! // A ResNet-20 stage-3 layer: 64 -> 64 channels, 8x8 feature map, with
//! // Kaiming weights drawn from seed 42.
//! let shape = ConvShape::square(64, 64, 3, 1, 1, 8).unwrap();
//! let config = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
//! let array = ArrayConfig::square(64).unwrap();
//! let cache = DecompCache::new();
//!
//! let compressed = LayerCompression::compress(&shape, &config, array, 42, &cache).unwrap();
//! assert!(compressed.cycles() < imc_array::im2col_mapping(&shape, array).cycles());
//! assert!(compressed.relative_error() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod cycles;
pub mod factors;
pub mod group;
pub mod layer;
pub mod profile;
pub mod sdk_lowrank;

pub use cache::{CacheStats, CachedDecomposition, DecompCache, KindStats};
pub use config::{CompressionConfig, RankSpec};
pub use cycles::{
    lowrank_im2col_cycles, lowrank_sdk_cycles, search_lowrank_window, CompressedCycles,
};
pub use factors::LowRankFactors;
pub use group::GroupLowRank;
pub use layer::LayerCompression;
pub use profile::GroupErrorProfile;
pub use sdk_lowrank::SdkLowRank;

// The precision knob of the decomposition hot path is defined next to the
// `Scalar` trait in `imc-linalg`; re-exported here because this crate's cache
// and layer APIs are where callers actually choose it.
pub use imc_linalg::Precision;

/// Errors produced by the compression layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The compression configuration is invalid for the layer at hand
    /// (e.g. rank or group count larger than the matrix allows).
    InvalidConfig {
        /// Description of the inconsistency.
        what: String,
    },
    /// The group count does not divide the input channels, which is required
    /// for the value-level SDK construction of grouped factors.
    GroupChannelMismatch {
        /// Number of groups requested.
        groups: usize,
        /// Number of input channels available.
        in_channels: usize,
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
            Error::InvalidConfig { what } => write!(f, "invalid compression configuration: {what}"),
            Error::GroupChannelMismatch {
                groups,
                in_channels,
            } => write!(
                f,
                "group count {groups} does not divide the {in_channels} input channels"
            ),
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
