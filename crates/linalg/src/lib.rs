//! Dense linear-algebra substrate for the IMC low-rank compression reproduction.
//!
//! This crate provides everything the higher layers need to reason about
//! weight matrices of convolutional and linear layers:
//!
//! * [`Matrix`] — a dense, row-major matrix with the usual arithmetic,
//!   slicing and stacking operations, generic over the [`Scalar`] element
//!   type (`f64` by default — the bit-exact reference precision — with `f32`
//!   as the SIMD-friendly fast path certified by `tests/differential.rs`).
//! * [`svd`] — a QR-preconditioned one-sided Jacobi singular value
//!   decomposition together with rank-`k` truncation (Eckart–Young optimal
//!   low-rank approximation).
//! * [`qr`] — Householder QR decomposition, the SVD's preconditioner.
//! * [`kron`] — identity Kronecker products and block-diagonal embeddings,
//!   used by the SDK-aware low-rank mapping (`D(SDK(W)) = (I_N ⊗ L)·SDK(R)`).
//! * [`random`] — deterministic, seeded random matrix generators used to
//!   synthesize network weights in the absence of trained checkpoints.
//!
//! The implementation is self-contained (no BLAS/LAPACK bindings) and uses no
//! `unsafe` code. Matrices in this problem domain are at most a few thousand
//! rows/columns (the largest im2col-matrixized layer of WRN16-4 is
//! `2304 × 256`), so the simple `O(n³)` algorithms used here are fast enough
//! for all experiments and benchmarks.
//!
//! # Example
//!
//! ```
//! use imc_linalg::{Matrix, svd::Svd};
//!
//! let w: Matrix = Matrix::from_rows(&[
//!     vec![4.0, 0.0, 0.0],
//!     vec![0.0, 3.0, 0.0],
//!     vec![0.0, 0.0, 1.0],
//! ]).unwrap();
//! let svd = Svd::compute(&w).unwrap();
//! assert!((svd.singular_values()[0] - 4.0).abs() < 1e-9);
//! let approx = svd.truncate(2).reconstruct();
//! // The rank-2 truncation drops the smallest singular value only.
//! assert!((&w - &approx).unwrap().frobenius_norm() - 1.0 < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kron;
pub mod matrix;
pub mod qr;
pub mod random;
pub mod scalar;
pub mod svd;

pub use kron::{block_diag, identity_kron};
pub use matrix::Matrix;
pub use qr::Qr;
pub use random::{randn_matrix, randn_matrix_in, uniform_matrix, uniform_matrix_in, SeededRng};
pub use scalar::{Precision, Scalar};
pub use svd::{Svd, TruncatedSvd};

/// Errors produced by the linear-algebra layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A constructor was handed data whose length does not match the
    /// requested dimensions.
    DimensionMismatch {
        /// Expected number of elements (`rows * cols`).
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
    /// A matrix with zero rows or zero columns was supplied where a non-empty
    /// matrix is required.
    EmptyMatrix,
    /// An index or sub-range lies outside the matrix bounds.
    OutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound the index must stay below.
        bound: usize,
        /// Which axis (or quantity) the index refers to.
        what: &'static str,
    },
    /// An iterative algorithm (the Jacobi SVD) failed to converge within its
    /// iteration budget.
    NoConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Number of sweeps / iterations performed before giving up.
        iterations: usize,
    },
    /// The requested rank is invalid (zero, or larger than `min(rows, cols)`).
    InvalidRank {
        /// The requested rank.
        requested: usize,
        /// Maximum admissible rank for the matrix at hand.
        max: usize,
    },
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::DimensionMismatch { expected, actual } => write!(
                f,
                "dimension mismatch: expected {expected} elements, got {actual}"
            ),
            Error::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            Error::EmptyMatrix => write!(f, "matrix must have at least one row and one column"),
            Error::OutOfBounds { index, bound, what } => {
                write!(f, "{what} index {index} out of bounds (must be < {bound})")
            }
            Error::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            Error::InvalidRank { requested, max } => {
                write!(f, "invalid rank {requested}: must be in 1..={max}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, Error>;
