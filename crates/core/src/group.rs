//! Group low-rank decomposition `D_g(W)` (the paper's Section IV and
//! Theorem 1).
//!
//! The weight matrix `W ∈ R^{m×n}` is partitioned column-wise (along the
//! input dimension) into `g` contiguous blocks `W = [W_1, …, W_g]`, and each
//! block is independently factorized at rank `k`:
//! `D_g(W) := [D(W_1), D(W_2), …, D(W_g)]` with `D(W_i) = L_i·R_i`.
//!
//! Theorem 1 guarantees `‖W − D_g(W)‖_F ≤ ‖W − D(W)‖_F` for every `g`; the
//! price is the additional `L_i` factors, which the mapping layer places into
//! crossbar rows that the un-grouped mapping would have left idle.

use imc_linalg::{Matrix, Precision, Svd};

use crate::factors::LowRankFactors;
use crate::{Error, Result};

/// The group low-rank decomposition of a weight matrix.
#[derive(Debug, Clone)]
pub struct GroupLowRank {
    groups: Vec<LowRankFactors>,
    /// Column widths of the original blocks `W_i` (they differ by at most one
    /// when `g` does not divide `n`).
    widths: Vec<usize>,
    rows: usize,
}

impl GroupLowRank {
    /// Computes `D_g(weight)` with `groups` groups at rank `k` per group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the group count exceeds the
    /// number of columns or when `k` exceeds any block's maximum rank.
    pub fn compute(weight: &Matrix, groups: usize, k: usize) -> Result<Self> {
        validate_group_count(groups, weight.cols())?;
        let blocks = weight.split_cols(groups)?;
        let mut factors = Vec::with_capacity(groups);
        let mut widths = Vec::with_capacity(groups);
        for block in &blocks {
            let max_rank = block.rows().min(block.cols());
            if k > max_rank {
                return Err(Error::InvalidConfig {
                    what: format!(
                        "rank {k} exceeds the maximum rank {max_rank} of a {}x{} group block",
                        block.rows(),
                        block.cols()
                    ),
                });
            }
            factors.push(LowRankFactors::compute(block, k)?);
            widths.push(block.cols());
        }
        Ok(Self {
            groups: factors,
            widths,
            rows: weight.rows(),
        })
    }

    /// Like [`GroupLowRank::compute`], but running each block's SVD — the
    /// dominant cost — at the requested [`Precision`].
    ///
    /// `Precision::F64` is exactly [`GroupLowRank::compute`] (bit for bit).
    /// `Precision::F32` rounds each block to single precision, decomposes it
    /// there, and widens the factors back to `f64`, so everything downstream
    /// of the SVD (truncation, reconstruction, error reporting) stays in
    /// double precision. The differential test suite bounds the resulting
    /// reconstruction-error deviation per kernel.
    ///
    /// # Errors
    ///
    /// Same contract as [`GroupLowRank::compute`].
    pub fn compute_with_precision(
        weight: &Matrix,
        groups: usize,
        k: usize,
        precision: Precision,
    ) -> Result<Self> {
        match precision {
            Precision::F64 => Self::compute(weight, groups, k),
            Precision::F32 => {
                validate_group_count(groups, weight.cols())?;
                let svds = block_svds(weight, groups, Precision::F32)?;
                Self::from_block_svds(&svds, k)
            }
        }
    }

    /// Builds `D_g(W)` at rank `k` from the already-computed per-block
    /// singular value decompositions of the column blocks of `W` (in block
    /// order).
    ///
    /// Because [`GroupLowRank::compute`] itself factorizes each block through
    /// its full SVD before truncating, constructing from shared SVDs yields a
    /// decomposition that is bit-identical to the direct computation, so
    /// one set of block SVDs serves every rank. (A rank sweep that wants only
    /// the errors needs no factors: see [`crate::GroupErrorProfile`].)
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `svds` is empty or `k` is zero
    /// or exceeds any block's maximum rank.
    pub fn from_block_svds(svds: &[Svd], k: usize) -> Result<Self> {
        let Some(first) = svds.first() else {
            return Err(Error::InvalidConfig {
                what: "at least one block SVD is required".to_owned(),
            });
        };
        let rows = first.u().rows();
        let mut factors = Vec::with_capacity(svds.len());
        let mut widths = Vec::with_capacity(svds.len());
        for svd in svds {
            let block_rows = svd.u().rows();
            let block_cols = svd.v().rows();
            let max_rank = block_rows.min(block_cols);
            if k == 0 || k > max_rank {
                return Err(Error::InvalidConfig {
                    what: format!(
                        "rank {k} exceeds the maximum rank {max_rank} of a {block_rows}x{block_cols} group block"
                    ),
                });
            }
            let truncated = svd.truncate(k);
            factors.push(LowRankFactors::from_parts(
                truncated.left_factor(),
                truncated.right_factor(),
            )?);
            widths.push(block_cols);
        }
        Ok(Self {
            groups: factors,
            widths,
            rows,
        })
    }

    /// Number of groups `g`.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The rank `k` used for every group.
    pub fn rank(&self) -> usize {
        self.groups.first().map(LowRankFactors::rank).unwrap_or(0)
    }

    /// The per-group factorizations.
    pub fn factors(&self) -> &[LowRankFactors] {
        &self.groups
    }

    /// Column widths of the original blocks.
    pub fn block_widths(&self) -> &[usize] {
        &self.widths
    }

    /// Output dimension `m` of the original matrix.
    pub fn output_dim(&self) -> usize {
        self.rows
    }

    /// Input dimension `n` of the original matrix.
    pub fn input_dim(&self) -> usize {
        self.widths.iter().sum()
    }

    /// Reconstructs the approximation `[L_1·R_1, …, L_g·R_g]`.
    pub fn reconstruct(&self) -> Matrix {
        let blocks: Vec<Matrix> = self
            .groups
            .iter()
            .map(LowRankFactors::reconstruct)
            .collect();
        Matrix::hstack(&blocks).expect("group blocks share the row count by construction")
    }

    /// Frobenius reconstruction error `‖W − D_g(W)‖_F`.
    ///
    /// # Errors
    ///
    /// Returns a shape mismatch when `reference` has different dimensions.
    pub fn reconstruction_error(&self, reference: &Matrix) -> Result<f64> {
        Ok(reference.sub(&self.reconstruct())?.frobenius_norm())
    }

    /// Relative Frobenius reconstruction error.
    ///
    /// # Errors
    ///
    /// Returns a shape mismatch when `reference` has different dimensions.
    pub fn relative_error(&self, reference: &Matrix) -> Result<f64> {
        let err = self.reconstruction_error(reference)?;
        let norm = reference.frobenius_norm();
        Ok(if norm > 0.0 { err / norm } else { err })
    }

    /// Total number of stored parameters, `Σ_i k·(m + n_i) = g·k·m + k·n`.
    pub fn parameter_count(&self) -> usize {
        self.groups
            .iter()
            .map(LowRankFactors::parameter_count)
            .sum()
    }

    /// Compression ratio versus the dense matrix.
    pub fn compression_ratio(&self) -> f64 {
        (self.output_dim() * self.input_dim()) as f64 / self.parameter_count() as f64
    }

    /// The stacked second-stage factor `[L_1, L_2, …, L_g] ∈ R^{m × g·k}`.
    ///
    /// On the crossbar this matrix occupies `g·k` wordlines and `m` bitlines;
    /// the extra `(g−1)·k` wordlines relative to the un-grouped decomposition
    /// are the "idle rows" argument of the paper.
    pub fn stacked_left(&self) -> Matrix {
        let blocks: Vec<Matrix> = self.groups.iter().map(|f| f.l().clone()).collect();
        Matrix::hstack(&blocks).expect("left factors share the row count by construction")
    }

    /// The block-diagonal first-stage factor `diag(R_1ᵀ, …, R_gᵀ) ∈
    /// R^{n × g·k}` as it is programmed onto the crossbar (wordlines = input
    /// dimension, bitlines = `g·k` intermediate outputs).
    pub fn stage1_crossbar(&self) -> Matrix {
        let blocks: Vec<Matrix> = self.groups.iter().map(|f| f.r().transpose()).collect();
        imc_linalg::block_diag(&blocks).expect("at least one group exists by construction")
    }

    /// Number of intermediate values `g·k` produced by the first stage.
    pub fn intermediate_dim(&self) -> usize {
        self.group_count() * self.rank()
    }

    /// Applies the grouped factorization to an input patch matrix (`n × p`):
    /// `Σ_i L_i (R_i X_i)` where `X_i` is the row block of `X` matching
    /// `W_i`'s columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `input` has the wrong number of
    /// rows.
    pub fn apply(&self, input: &Matrix) -> Result<Matrix> {
        if input.rows() != self.input_dim() {
            return Err(Error::InvalidConfig {
                what: format!(
                    "input has {} rows but the decomposition expects {}",
                    input.rows(),
                    self.input_dim()
                ),
            });
        }
        let mut out: Option<Matrix> = None;
        let mut row0 = 0;
        for (factors, &width) in self.groups.iter().zip(self.widths.iter()) {
            let xi = input.submatrix(row0, 0, width, input.cols())?;
            let yi = factors.apply(&xi)?;
            out = Some(match out {
                None => yi,
                Some(acc) => acc.add(&yi)?,
            });
            row0 += width;
        }
        Ok(out.expect("at least one group exists by construction"))
    }
}

/// Rejects group counts outside `1..=cols` — the shared guard of every
/// grouped-decomposition entry point (decompositions and error profiles, at
/// either precision).
pub(crate) fn validate_group_count(groups: usize, cols: usize) -> Result<()> {
    if groups == 0 || groups > cols {
        return Err(Error::InvalidConfig {
            what: format!("group count {groups} is out of range for a matrix with {cols} columns"),
        });
    }
    Ok(())
}

/// Per-block SVDs of `weight` split into `groups` column blocks, at the
/// requested precision, for [`GroupLowRank::compute_with_precision`].
/// `Precision::F64` decomposes in place (the bit-exact reference);
/// `Precision::F32` decomposes rounded single-precision blocks and widens
/// the factors back to `f64`.
pub(crate) fn block_svds(weight: &Matrix, groups: usize, precision: Precision) -> Result<Vec<Svd>> {
    let blocks = weight.split_cols(groups)?;
    let mut svds = Vec::with_capacity(blocks.len());
    for block in &blocks {
        svds.push(match precision {
            Precision::F64 => Svd::compute(block)?,
            Precision::F32 => Svd::<f32>::compute(&block.cast())?.cast::<f64>(),
        });
    }
    Ok(svds)
}

/// The singular values of each block of `weight` split into `groups` column
/// blocks, at the requested precision — the hot path of every rank sweep,
/// which needs no factors. Each spectrum is bit for bit the one
/// [`block_svds`] computes: `Precision::F32` runs the values-only kernel on
/// rounded single-precision blocks and widens `σ` back to `f64`.
pub(crate) fn block_spectra(
    weight: &Matrix,
    groups: usize,
    precision: Precision,
) -> Result<Vec<Vec<f64>>> {
    let blocks = weight.split_cols(groups)?;
    let mut spectra = Vec::with_capacity(blocks.len());
    for block in &blocks {
        spectra.push(match precision {
            Precision::F64 => Svd::singular_values_of(block)?,
            Precision::F32 => Svd::<f32>::singular_values_of(&block.cast())?
                .into_iter()
                .map(f64::from)
                .collect(),
        });
    }
    Ok(spectra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_linalg::random::randn_matrix;

    #[test]
    fn single_group_equals_plain_low_rank() {
        let w = randn_matrix(16, 48, 1.0, 1);
        let plain = LowRankFactors::compute(&w, 4).unwrap();
        let grouped = GroupLowRank::compute(&w, 1, 4).unwrap();
        assert_eq!(grouped.group_count(), 1);
        assert!(grouped.reconstruct().approx_eq(&plain.reconstruct(), 1e-9));
        assert_eq!(grouped.parameter_count(), plain.parameter_count());
    }

    #[test]
    fn theorem1_grouped_error_never_exceeds_plain_error() {
        // Theorem 1 of the paper, checked numerically over several seeds,
        // group counts and ranks.
        for seed in 0..6 {
            let w = randn_matrix(16, 96, 1.0, 100 + seed);
            for k in [1, 2, 4, 8] {
                let plain = LowRankFactors::compute(&w, k).unwrap();
                let plain_err = plain.reconstruction_error(&w).unwrap();
                for g in [2, 4, 8] {
                    let grouped = GroupLowRank::compute(&w, g, k).unwrap();
                    let grouped_err = grouped.reconstruction_error(&w).unwrap();
                    assert!(
                        grouped_err <= plain_err + 1e-9,
                        "seed {seed} k {k} g {g}: grouped {grouped_err} > plain {plain_err}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_groups_monotonically_reduce_error() {
        // Not guaranteed by Theorem 1 in general (it only compares against
        // g = 1), but holds for the nested even splits used here because
        // every refinement is a further block-diagonal restriction.
        let w = randn_matrix(32, 128, 1.0, 42);
        let k = 4;
        let errs: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&g| {
                GroupLowRank::compute(&w, g, k)
                    .unwrap()
                    .reconstruction_error(&w)
                    .unwrap()
            })
            .collect();
        for pair in errs.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "errors {errs:?} not decreasing");
        }
    }

    #[test]
    fn parameter_count_formula() {
        let w = randn_matrix(16, 90, 1.0, 3);
        let g = 3;
        let k = 4;
        let grouped = GroupLowRank::compute(&w, g, k).unwrap();
        // g*k*m + k*n = 3*4*16 + 4*90 = 192 + 360.
        assert_eq!(grouped.parameter_count(), 552);
        assert_eq!(grouped.intermediate_dim(), 12);
        assert!(grouped.compression_ratio() > 1.0);
    }

    #[test]
    fn uneven_splits_are_supported() {
        let w = randn_matrix(8, 50, 1.0, 9);
        let grouped = GroupLowRank::compute(&w, 4, 2).unwrap();
        assert_eq!(grouped.block_widths(), &[13, 13, 12, 12]);
        assert_eq!(grouped.input_dim(), 50);
        assert_eq!(grouped.reconstruct().shape(), (8, 50));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let w = randn_matrix(8, 24, 1.0, 5);
        assert!(GroupLowRank::compute(&w, 0, 2).is_err());
        assert!(GroupLowRank::compute(&w, 25, 2).is_err());
        // Rank larger than a block allows: 24/8 = 3 columns per block < 4.
        assert!(GroupLowRank::compute(&w, 8, 4).is_err());
    }

    #[test]
    fn stacked_left_and_stage1_shapes() {
        let w = randn_matrix(16, 64, 1.0, 6);
        let grouped = GroupLowRank::compute(&w, 4, 3).unwrap();
        assert_eq!(grouped.stacked_left().shape(), (16, 12));
        assert_eq!(grouped.stage1_crossbar().shape(), (64, 12));
    }

    #[test]
    fn apply_matches_reconstruct_times_input() {
        let w = randn_matrix(12, 36, 1.0, 7);
        let grouped = GroupLowRank::compute(&w, 3, 2).unwrap();
        let x = randn_matrix(36, 5, 1.0, 8);
        let via_apply = grouped.apply(&x).unwrap();
        let via_reconstruct = grouped.reconstruct().matmul(&x).unwrap();
        assert!(via_apply.approx_eq(&via_reconstruct, 1e-9));
    }

    #[test]
    fn apply_validates_input_rows() {
        let w = randn_matrix(12, 36, 1.0, 7);
        let grouped = GroupLowRank::compute(&w, 3, 2).unwrap();
        let x = randn_matrix(35, 5, 1.0, 8);
        assert!(grouped.apply(&x).is_err());
    }

    #[test]
    fn two_stage_crossbar_path_matches_apply() {
        // stage 1: xᵀ · stage1_crossbar  -> intermediate (g·k)
        // stage 2: intermediate · stacked_leftᵀ -> output (m)
        let w = randn_matrix(10, 30, 1.0, 11);
        let grouped = GroupLowRank::compute(&w, 2, 3).unwrap();
        let x = randn_matrix(30, 1, 1.0, 12);
        let expected = grouped.apply(&x).unwrap();

        let stage1 = grouped.stage1_crossbar(); // 30 x 6
        let stage2 = grouped.stacked_left(); // 10 x 6
        let intermediate = stage1.transpose().matmul(&x).unwrap(); // 6 x 1
        let out = stage2.matmul(&intermediate).unwrap(); // 10 x 1
        assert!(out.approx_eq(&expected, 1e-9));
    }
}
