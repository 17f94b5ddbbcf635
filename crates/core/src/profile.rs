//! Rank-sweep error profiles.
//!
//! By Eckart–Young, truncating each group block `W_i` to rank `k` leaves
//! `‖W − D_g(W)‖²_F = Σ_i Σ_{j>k} σ_j(W_i)²` (the paper's Section IV and
//! Theorem 1). So the error of every rank needs only the per-block singular
//! values: this module computes them once per (layer, group-count) pair,
//! with the values-only SVD, and answers any rank query in O(rank) time. It
//! is the one error definition of the sweeps: the decomposition cache holds
//! these profiles, and both the strategy engine and Table I read them.

use imc_linalg::{Matrix, Precision};

use crate::{Error, Result};

/// Per-block singular spectra of a group-partitioned weight matrix, from
/// which the reconstruction error of any rank can be derived cheaply.
#[derive(Debug, Clone)]
pub struct GroupErrorProfile {
    /// Singular values of each column block, sorted non-increasing.
    block_spectra: Vec<Vec<f64>>,
    /// Squared Frobenius norm of the full matrix.
    total_sq_norm: f64,
    groups: usize,
}

impl GroupErrorProfile {
    /// Computes the profile of `weight` partitioned into `groups` column
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the group count exceeds the
    /// column count, or propagates SVD convergence failures.
    pub fn compute(weight: &Matrix, groups: usize) -> Result<Self> {
        Self::compute_with_precision(weight, groups, Precision::F64)
    }

    /// Like [`GroupErrorProfile::compute`], but running the per-block SVDs
    /// at the requested [`Precision`] (`F64` is bit-identical to
    /// [`GroupErrorProfile::compute`]; `F32` decomposes rounded blocks in
    /// single precision and widens the spectra back to `f64`).
    ///
    /// # Errors
    ///
    /// Same contract as [`GroupErrorProfile::compute`].
    pub fn compute_with_precision(
        weight: &Matrix,
        groups: usize,
        precision: Precision,
    ) -> Result<Self> {
        crate::group::validate_group_count(groups, weight.cols())?;
        let block_spectra = crate::group::block_spectra(weight, groups, precision)?;
        let total_sq_norm = weight.frobenius_norm().powi(2);
        Ok(Self {
            block_spectra,
            total_sq_norm,
            groups,
        })
    }

    /// Number of groups the profile was computed for.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The singular values of each column block, in block order, each
    /// sorted non-increasing.
    pub(crate) fn block_spectra(&self) -> &[Vec<f64>] {
        &self.block_spectra
    }

    /// Largest rank any block supports.
    pub fn max_rank(&self) -> usize {
        self.block_spectra
            .iter()
            .map(|s| s.len())
            .max()
            .unwrap_or(0)
    }

    /// Checks that every block admits rank `k`, as a grouped decomposition
    /// at rank `k` requires.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `k` is zero or exceeds the
    /// rank of the narrowest block.
    pub(crate) fn check_rank(&self, k: usize) -> Result<()> {
        let max_rank = self.block_spectra.iter().map(Vec::len).min().unwrap_or(0);
        if k == 0 || k > max_rank {
            return Err(Error::InvalidConfig {
                what: format!(
                    "rank {k} is out of range for group blocks of maximum rank {max_rank}"
                ),
            });
        }
        Ok(())
    }

    /// Absolute Frobenius reconstruction error of truncating every block to
    /// rank `k` (ranks beyond a block's spectrum contribute zero error for
    /// that block).
    ///
    /// Both sums fold from `+0.0` (`Iterator::sum` starts from `−0.0`), so a
    /// full-rank truncation reports `+0.0`, not `−0.0`.
    pub fn error_for_rank(&self, k: usize) -> f64 {
        let k = k.max(1);
        self.block_spectra
            .iter()
            .map(|spectrum| spectrum.iter().skip(k).fold(0.0, |acc, s| acc + s * s))
            .fold(0.0, |acc, tail| acc + tail)
            .sqrt()
    }

    /// Relative Frobenius reconstruction error at rank `k`.
    pub fn relative_error_for_rank(&self, k: usize) -> f64 {
        if self.total_sq_norm <= 0.0 {
            return 0.0;
        }
        self.error_for_rank(k) / self.total_sq_norm.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupLowRank;
    use imc_linalg::random::randn_matrix;

    #[test]
    fn profile_errors_match_actual_decomposition_errors() {
        let w = randn_matrix(16, 96, 1.0, 3);
        for g in [1, 2, 4] {
            let profile = GroupErrorProfile::compute(&w, g).unwrap();
            for k in [1, 2, 4, 8] {
                let actual = GroupLowRank::compute(&w, g, k)
                    .unwrap()
                    .reconstruction_error(&w)
                    .unwrap();
                let predicted = profile.error_for_rank(k);
                assert!(
                    (actual - predicted).abs() < 1e-8,
                    "g={g} k={k}: {actual} vs {predicted}"
                );
            }
        }
    }

    #[test]
    fn relative_error_is_bounded_by_one_for_gaussian_weights() {
        let w = randn_matrix(12, 60, 1.0, 7);
        let profile = GroupErrorProfile::compute(&w, 4).unwrap();
        for k in 1..=profile.max_rank() {
            let rel = profile.relative_error_for_rank(k);
            assert!((0.0..=1.0 + 1e-12).contains(&rel));
        }
    }

    #[test]
    fn error_is_monotone_in_rank() {
        let w = randn_matrix(20, 80, 1.0, 9);
        let profile = GroupErrorProfile::compute(&w, 2).unwrap();
        let mut prev = f64::INFINITY;
        for k in 1..=profile.max_rank() {
            let err = profile.error_for_rank(k);
            assert!(err <= prev + 1e-12);
            prev = err;
        }
    }

    #[test]
    fn full_rank_errors_are_positive_zero() {
        let w = randn_matrix(16, 48, 1.0, 3);
        let profile = GroupErrorProfile::compute(&w, 4).unwrap();
        assert_eq!(profile.max_rank(), 12);
        for k in [12, 13, 100] {
            assert_eq!(profile.error_for_rank(k).to_bits(), 0, "k={k}");
            assert_eq!(profile.relative_error_for_rank(k).to_bits(), 0, "k={k}");
        }
    }

    #[test]
    fn rank_checks_follow_the_narrowest_block() {
        // 50 columns in 4 groups: blocks of 13, 13, 12 and 12 columns.
        let w = randn_matrix(16, 50, 1.0, 4);
        let profile = GroupErrorProfile::compute(&w, 4).unwrap();
        assert_eq!(profile.max_rank(), 13);
        assert!(profile.check_rank(1).is_ok());
        assert!(profile.check_rank(12).is_ok());
        for k in [0, 13] {
            assert!(
                matches!(profile.check_rank(k), Err(Error::InvalidConfig { .. })),
                "k={k}"
            );
        }
    }

    #[test]
    fn spectra_are_the_full_svds_singular_values() {
        let w = randn_matrix(12, 40, 1.0, 8);
        let profile = GroupErrorProfile::compute(&w, 3).unwrap();
        let blocks = w.split_cols(3).unwrap();
        assert_eq!(profile.block_spectra().len(), 3);
        for (spectrum, block) in profile.block_spectra().iter().zip(&blocks) {
            let svd = imc_linalg::Svd::compute(block).unwrap();
            assert_eq!(spectrum.as_slice(), svd.singular_values());
        }
    }

    #[test]
    fn invalid_group_counts_are_rejected() {
        let w = randn_matrix(4, 8, 1.0, 1);
        assert!(GroupErrorProfile::compute(&w, 0).is_err());
        assert!(GroupErrorProfile::compute(&w, 9).is_err());
    }
}
