//! Singular value decomposition and Eckart–Young low-rank truncation.
//!
//! The decomposition is the QR-preconditioned one-sided Jacobi method of
//! Drmač and Veselić ("New fast and accurate Jacobi SVD algorithm I/II",
//! SIAM J. Matrix Anal. Appl. 29(4), 2008). A tall `m × n` matrix is first
//! factored as `A = Q·R` with Householder reflections (see [`crate::qr`]).
//! The Jacobi sweeps then orthogonalize the columns of the `n × n` matrix
//! `X = Rᵀ` with plane rotations, accumulating the same rotations into `V_x`:
//! `X·V_x = U_x·Σ`. Hence `A = (Q·V_x)·Σ·U_xᵀ`, so the right singular vectors
//! are the normalized rotated columns of `X`, and the left ones are the
//! reflectors applied to `[V_x; 0]`. The rotations walk `n`-long columns
//! instead of `m`-long ones, which is most of the work on the tall blocks the
//! group decomposition produces. A wide matrix is decomposed as its
//! transpose, with `U` and `V` swapped.
//!
//! [`Svd::singular_values_of`] runs the same QR and sweeps without
//! accumulating `V_x` or applying the reflectors: the rotations of `X` never
//! read `V_x`, so its `σ` is bit for bit that of [`Svd::compute`]. Truncation
//! errors need nothing more (Eckart–Young).
//!
//! The `f64` reductions keep a strict serial order, so the reference is
//! deterministic bit for bit. Adding the QR step changed the `f64` bits of
//! `σ`, `U` and `V` once, by rounding only; the plain one-sided Jacobi it
//! replaced is kept as the test oracle in `tests/differential.rs`.

use crate::qr::Householder;
use crate::scalar::Scalar;
use crate::{Error, Matrix, Result};

/// Maximum number of Jacobi sweeps before the algorithm reports
/// [`Error::NoConvergence`].
const MAX_SWEEPS: usize = 60;

/// Mutably borrows columns `p` and `q` (with `p < q`) of a column-major
/// buffer whose columns have length `len`.
#[inline]
fn column_pair<S: Scalar>(data: &mut [S], len: usize, p: usize, q: usize) -> (&mut [S], &mut [S]) {
    debug_assert!(p < q);
    let (head, tail) = data.split_at_mut(q * len);
    (&mut head[p * len..p * len + len], &mut tail[..len])
}

/// A full singular value decomposition `A = U Σ Vᵀ`.
///
/// `U` is `m × r`, `Σ` is represented by the vector of singular values of
/// length `r`, and `V` is `n × r`, where `r = min(m, n)`. Singular values are
/// sorted in non-increasing order.
#[derive(Debug, Clone)]
pub struct Svd<S: Scalar = f64> {
    u: Matrix<S>,
    singular_values: Vec<S>,
    v: Matrix<S>,
}

impl<S: Scalar> Svd<S> {
    /// Computes the SVD of `a` with QR-preconditioned one-sided Jacobi
    /// rotations (Drmač–Veselić; see the [module docs](self)).
    ///
    /// A Householder QR reduces the tall orientation of `a` to its square
    /// triangular factor `R`, the Jacobi sweeps run on `Rᵀ`, and the
    /// reflectors turn the accumulated rotations into the left singular
    /// vectors. The `f64` reductions run in strict serial order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoConvergence`] if the Jacobi sweeps fail to
    /// orthogonalize the columns within the iteration budget (this does not
    /// happen for well-scaled inputs such as neural-network weights).
    pub fn compute(a: &Matrix<S>) -> Result<Self> {
        let (m, n) = a.shape();
        // One-sided Jacobi works on the columns; for wide matrices it is both
        // cheaper and better conditioned to decompose the transpose and swap
        // the roles of U and V afterwards. A row-major matrix is its
        // transpose in column-major order.
        if n > m {
            let (u, singular_values, v) = tall_svd(n, m, a.as_slice().to_vec())?;
            return Ok(Self {
                u: v,
                singular_values,
                v: u,
            });
        }
        let (u, singular_values, v) = tall_svd(m, n, a.to_col_major())?;
        Ok(Self {
            u,
            singular_values,
            v,
        })
    }

    /// The singular values of `a` alone, sorted non-increasing: bit for bit
    /// `Svd::compute(a)?.singular_values()`.
    ///
    /// It runs the same QR and Jacobi sweeps as [`Svd::compute`] but
    /// accumulates no rotations and builds neither `U` nor `V`, which is
    /// what a truncation error needs (Eckart–Young:
    /// `‖A − A_k‖²_F = Σ_{i>k} σ_i²`).
    ///
    /// # Errors
    ///
    /// Same contract as [`Svd::compute`].
    pub fn singular_values_of(a: &Matrix<S>) -> Result<Vec<S>> {
        let (m, n) = a.shape();
        let jacobi = if n > m {
            Jacobi::sweep(n, m, a.as_slice().to_vec(), false)?
        } else {
            Jacobi::sweep(m, n, a.to_col_major(), false)?
        };
        Ok(jacobi.sorted_sigma())
    }

    /// The left singular vectors, `m × r`.
    pub fn u(&self) -> &Matrix<S> {
        &self.u
    }

    /// The right singular vectors, `n × r` (not transposed).
    pub fn v(&self) -> &Matrix<S> {
        &self.v
    }

    /// The singular values in non-increasing order.
    pub fn singular_values(&self) -> &[S] {
        &self.singular_values
    }

    /// Converts the decomposition to another scalar width (rounding through
    /// `f64`), factor by factor. Widening `Svd<f32> -> Svd<f64>` is exact and
    /// is how the fast path hands results back to the `f64` reporting layer.
    pub fn cast<T: Scalar>(&self) -> Svd<T> {
        Svd {
            u: self.u.cast(),
            singular_values: self
                .singular_values
                .iter()
                .map(|&s| T::from_f64(s.to_f64()))
                .collect(),
            v: self.v.cast(),
        }
    }

    /// Numerical rank: the number of singular values above
    /// `tol * max(singular value)`.
    pub fn rank(&self, tol: S) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(S::ZERO);
        self.singular_values
            .iter()
            .filter(|&&s| s > tol * max)
            .count()
    }

    /// Reconstructs the full matrix `U Σ Vᵀ`.
    pub fn reconstruct(&self) -> Matrix<S> {
        let sigma = Matrix::from_diag(&self.singular_values);
        self.u
            .matmul(&sigma)
            .and_then(|us| us.matmul(&self.v.transpose()))
            .expect("SVD factor shapes are consistent by construction")
    }

    /// Truncates the decomposition to the leading `k` singular triplets.
    ///
    /// The truncation is clamped to the available rank, so `k` larger than
    /// `min(m, n)` simply returns the full decomposition. A `k` of zero is
    /// clamped to one (a rank-zero factorization is never useful here).
    pub fn truncate(&self, k: usize) -> TruncatedSvd<S> {
        let r = self.singular_values.len();
        let k = k.clamp(1, r);
        let u_k = self
            .u
            .submatrix(0, 0, self.u.rows(), k)
            .expect("truncation rank validated against factor width");
        let v_k = self
            .v
            .submatrix(0, 0, self.v.rows(), k)
            .expect("truncation rank validated against factor width");
        TruncatedSvd {
            u: u_k,
            singular_values: self.singular_values[..k].to_vec(),
            v: v_k,
        }
    }

    /// The Eckart–Young optimal reconstruction error for a rank-`k`
    /// truncation: `sqrt(Σ_{i>k} σ_i²)`.
    ///
    /// The sum folds from `+0.0` (`Iterator::sum` starts from `−0.0`), so a
    /// full-rank truncation reports `+0.0`, not `−0.0`.
    pub fn truncation_error(&self, k: usize) -> S {
        self.singular_values
            .iter()
            .skip(k)
            .fold(S::ZERO, |acc, &s| acc + s * s)
            .sqrt()
    }
}

/// The QR-preconditioned Jacobi stage of a tall `m × n` SVD (`m ≥ n`), shared
/// by the full decomposition and the values-only one.
struct Jacobi<S: Scalar> {
    qr: Householder<S>,
    /// `column_of[i]` is the column of A at position i (zero columns last).
    column_of: Vec<usize>,
    /// Column-major `n × n` working columns, converged to `U_x·Σ`.
    x: Vec<S>,
    /// The accumulated rotations `V_x`, column-major `n × n`, when asked for.
    v: Option<Vec<S>>,
    /// Column norms of `x`, unsorted.
    sigma: Vec<S>,
    /// Positions of `sigma` in non-increasing order.
    order: Vec<usize>,
}

impl<S: Scalar> Jacobi<S> {
    /// Factors the `m × n` matrix held column-major in `columns` and
    /// orthogonalizes the columns of `X = Rᵀ`, accumulating the rotations
    /// into `V_x` only when `with_rotations` is set. The rotations of `X`
    /// never read `V_x`, so `σ` is the same bits either way.
    fn sweep(m: usize, n: usize, mut columns: Vec<S>, with_rotations: bool) -> Result<Self> {
        // Exactly zero columns are factored last. In place, a zero column
        // would put a zero on R's diagonal beside a nonzero row, and the
        // sweeps would shrink a column of X towards zero until it underflows,
        // never converging. Last, it is a zero column of X, which the sweeps
        // skip as they would skip it in A.
        let (mut column_of, zero_columns): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&j| columns[j * m..(j + 1) * m].iter().any(|&x| x != S::ZERO));
        if !zero_columns.is_empty() {
            column_of.extend(zero_columns);
            columns = column_of
                .iter()
                .flat_map(|&j| columns[j * m..(j + 1) * m].iter().copied())
                .collect();
        }
        let qr = Householder::factor(m, n, columns);
        // Column-major working buffers: every Jacobi inner loop walks two
        // columns, so each column is contiguous (column j at `x[j*n..][..n]`).
        // R's rows are the columns of X = Rᵀ.
        let mut x = qr.r_row_major();
        let mut v = with_rotations.then(|| {
            let mut identity = vec![S::ZERO; n * n];
            for j in 0..n {
                identity[j * n + j] = S::ONE;
            }
            identity
        });

        let mut converged = false;
        let mut sweeps = 0;
        while sweeps < MAX_SWEEPS && !converged {
            converged = true;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Gram entries for columns p and q. The reduction is the
                    // scalar type's own: strict serial order for f64 (the
                    // bit-exact reference), a reassociated multi-lane pass
                    // for f32 (see `Scalar::jacobi_gram`).
                    let (xp_col, xq_col) = column_pair(&mut x, n, p, q);
                    let (alpha, beta, gamma) = S::jacobi_gram(xp_col, xq_col);
                    if gamma.abs() <= S::JACOBI_TOL * (alpha * beta).sqrt() || gamma == S::ZERO {
                        continue;
                    }
                    converged = false;
                    // Jacobi rotation that zeroes the (p, q) Gram entry.
                    let zeta = (beta - alpha) / (S::TWO * gamma);
                    let t = zeta.signum() / (zeta.abs() + (S::ONE + zeta * zeta).sqrt());
                    let c = S::ONE / (S::ONE + t * t).sqrt();
                    let s = c * t;
                    rotate(xp_col, xq_col, c, s);
                    if let Some(v) = v.as_mut() {
                        let (vp_col, vq_col) = column_pair(v, n, p, q);
                        rotate(vp_col, vq_col, c, s);
                    }
                }
            }
            sweeps += 1;
        }
        if !converged {
            return Err(Error::NoConvergence {
                algorithm: "one-sided Jacobi SVD",
                iterations: sweeps,
            });
        }

        // Column norms of the rotated matrix are the singular values.
        let mut sigma = vec![S::ZERO; n];
        for (s, column) in sigma.iter_mut().zip(x.chunks_exact(n)) {
            let mut norm = S::ZERO;
            for &xi in column {
                norm += xi * xi;
            }
            *s = norm.sqrt();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a_idx, &b_idx| {
            sigma[b_idx]
                .partial_cmp(&sigma[a_idx])
                .unwrap_or(core::cmp::Ordering::Equal)
        });
        Ok(Self {
            qr,
            column_of,
            x,
            v,
            sigma,
            order,
        })
    }

    /// The singular values, sorted non-increasing.
    fn sorted_sigma(&self) -> Vec<S> {
        self.order.iter().map(|&j| self.sigma[j]).collect()
    }
}

/// Rotates the column pair `(p, q)` by the plane rotation `(c, s)`.
#[inline]
fn rotate<S: Scalar>(p_col: &mut [S], q_col: &mut [S], c: S, s: S) {
    for (p_i, q_i) in p_col.iter_mut().zip(q_col.iter_mut()) {
        let p = *p_i;
        let q = *q_i;
        *p_i = c * p - s * q;
        *q_i = s * p + c * q;
    }
}

/// The SVD `(U, σ, V)` of the `m × n` matrix (`m ≥ n`) held column-major in
/// `columns`, with `σ` sorted non-increasing.
fn tall_svd<S: Scalar>(
    m: usize,
    n: usize,
    columns: Vec<S>,
) -> Result<(Matrix<S>, Vec<S>, Matrix<S>)> {
    let jacobi = Jacobi::sweep(m, n, columns, true)?;
    let sigma_sorted = jacobi.sorted_sigma();
    let Jacobi {
        qr,
        column_of,
        x,
        v,
        order,
        ..
    } = jacobi;
    let v = v.expect("rotations were accumulated");

    // V = U_x: the normalized rotated columns of X, with the rows of the
    // moved zero columns put back. U = Q·[V_x; 0].
    let mut v_sorted = vec![S::ZERO; n * n];
    let mut u_sorted = vec![S::ZERO; m * n];
    for (new_j, &old_j) in order.iter().enumerate() {
        let s = sigma_sorted[new_j];
        let x_col = &x[old_j * n..(old_j + 1) * n];
        for (&row, &xi) in column_of.iter().zip(x_col) {
            v_sorted[new_j * n + row] = if s > S::EPSILON { xi / s } else { S::ZERO };
        }
        u_sorted[new_j * m..new_j * m + n].copy_from_slice(&v[old_j * n..(old_j + 1) * n]);
    }
    qr.apply_q(&mut u_sorted);
    Ok((
        Matrix::from_col_major(m, n, u_sorted),
        sigma_sorted,
        Matrix::from_col_major(n, n, v_sorted),
    ))
}

/// A rank-`k` truncated SVD, the basic low-rank factorization `W ≈ L·R`.
#[derive(Debug, Clone)]
pub struct TruncatedSvd<S: Scalar = f64> {
    u: Matrix<S>,
    singular_values: Vec<S>,
    v: Matrix<S>,
}

impl<S: Scalar> TruncatedSvd<S> {
    /// Computes the truncated SVD of `a` at rank `k` directly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRank`] if `k` is zero or exceeds `min(m, n)`,
    /// or propagates [`Error::NoConvergence`] from the Jacobi iteration.
    pub fn compute(a: &Matrix<S>, k: usize) -> Result<Self> {
        let max_rank = a.rows().min(a.cols());
        if k == 0 || k > max_rank {
            return Err(Error::InvalidRank {
                requested: k,
                max: max_rank,
            });
        }
        Ok(Svd::compute(a)?.truncate(k))
    }

    /// The retained rank `k`.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// The truncated left singular vectors, `m × k`.
    pub fn u(&self) -> &Matrix<S> {
        &self.u
    }

    /// The truncated right singular vectors, `n × k`.
    pub fn v(&self) -> &Matrix<S> {
        &self.v
    }

    /// The retained singular values.
    pub fn singular_values(&self) -> &[S] {
        &self.singular_values
    }

    /// The left factor `L = U·Σ` of shape `m × k`.
    ///
    /// Following the paper's convention (Section III), the singular values
    /// are absorbed into the left factor.
    pub fn left_factor(&self) -> Matrix<S> {
        let sigma = Matrix::from_diag(&self.singular_values);
        self.u
            .matmul(&sigma)
            .expect("U and Σ shapes are consistent by construction")
    }

    /// The right factor `R = Vᵀ` of shape `k × n`.
    pub fn right_factor(&self) -> Matrix<S> {
        self.v.transpose()
    }

    /// Reconstructs the rank-`k` approximation `L·R`.
    pub fn reconstruct(&self) -> Matrix<S> {
        self.left_factor()
            .matmul(&self.right_factor())
            .expect("factor shapes are consistent by construction")
    }

    /// Frobenius reconstruction error `‖A − L·R‖_F` against a reference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `reference` has a different
    /// shape than the reconstruction.
    pub fn reconstruction_error(&self, reference: &Matrix<S>) -> Result<S> {
        Ok(reference.sub(&self.reconstruct())?.frobenius_norm())
    }

    /// Number of parameters in the factorization, `k·(m + n)`.
    pub fn parameter_count(&self) -> usize {
        self.rank() * (self.u.rows() + self.v.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn_matrix;

    #[test]
    fn svd_of_diagonal_matrix_recovers_diagonal() {
        let a = Matrix::from_diag(&[5.0, 3.0, 1.0]);
        let svd = Svd::compute(&a).unwrap();
        let sv = svd.singular_values();
        assert!((sv[0] - 5.0).abs() < 1e-10);
        assert!((sv[1] - 3.0).abs() < 1e-10);
        assert!((sv[2] - 1.0).abs() < 1e-10);
        assert!(svd.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn svd_reconstructs_random_tall_matrix() {
        let a = randn_matrix(40, 12, 0.5, 7);
        let svd = Svd::compute(&a).unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-8));
    }

    #[test]
    fn svd_reconstructs_random_wide_matrix() {
        let a = randn_matrix(9, 30, 1.0, 3);
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.u().shape(), (9, 9));
        assert_eq!(svd.v().shape(), (30, 9));
        assert!(svd.reconstruct().approx_eq(&a, 1e-8));
    }

    #[test]
    fn singular_values_are_sorted_and_nonnegative() {
        let a = randn_matrix(25, 25, 1.0, 11);
        let svd = Svd::compute(&a).unwrap();
        let sv = svd.singular_values();
        assert!(sv.windows(2).all(|w| w[0] >= w[1]));
        assert!(sv.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn left_and_right_factors_are_orthonormal() {
        let a = randn_matrix(20, 8, 1.0, 21);
        let svd = Svd::compute(&a).unwrap();
        let utu = svd.u().transpose().matmul(svd.u()).unwrap();
        let vtv = svd.v().transpose().matmul(svd.v()).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(8), 1e-8));
        assert!(vtv.approx_eq(&Matrix::identity(8), 1e-8));
    }

    #[test]
    fn truncation_error_matches_eckart_young_tail() {
        let a = randn_matrix(16, 10, 1.0, 5);
        let svd = Svd::compute(&a).unwrap();
        for k in 1..=10 {
            let trunc = svd.truncate(k);
            let err = trunc.reconstruction_error(&a).unwrap();
            let tail = svd.truncation_error(k);
            assert!(
                (err - tail).abs() < 1e-8,
                "k={k}: measured {err} vs tail {tail}"
            );
        }
    }

    #[test]
    fn truncation_error_is_monotone_in_rank() {
        let a = randn_matrix(30, 18, 1.0, 13);
        let svd = Svd::compute(&a).unwrap();
        let errors: Vec<f64> = (1..=18).map(|k| svd.truncation_error(k)).collect();
        assert!(errors.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        assert!(errors[17] < 1e-9);
    }

    #[test]
    fn truncated_svd_is_optimal_among_random_competitors() {
        // Eckart–Young: no rank-k factorization can beat the truncated SVD.
        let a = randn_matrix(12, 12, 1.0, 17);
        let k = 3;
        let best = TruncatedSvd::compute(&a, k).unwrap();
        let best_err = best.reconstruction_error(&a).unwrap();
        for seed in 0..5 {
            let l = randn_matrix(12, k, 1.0, 100 + seed);
            let r = randn_matrix(k, 12, 1.0, 200 + seed);
            let competitor_err = a.sub(&l.matmul(&r).unwrap()).unwrap().frobenius_norm();
            assert!(best_err <= competitor_err + 1e-9);
        }
    }

    #[test]
    fn truncated_svd_validates_rank() {
        let a = randn_matrix(6, 4, 1.0, 1);
        assert!(matches!(
            TruncatedSvd::compute(&a, 0),
            Err(Error::InvalidRank { .. })
        ));
        assert!(matches!(
            TruncatedSvd::compute(&a, 5),
            Err(Error::InvalidRank { .. })
        ));
        assert!(TruncatedSvd::compute(&a, 4).is_ok());
    }

    #[test]
    fn factor_shapes_and_parameter_count() {
        let a = randn_matrix(10, 6, 1.0, 9);
        let t = TruncatedSvd::compute(&a, 2).unwrap();
        assert_eq!(t.left_factor().shape(), (10, 2));
        assert_eq!(t.right_factor().shape(), (2, 6));
        assert_eq!(t.parameter_count(), 2 * (10 + 6));
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn rank_detects_low_rank_matrices() {
        // Build an exactly rank-2 matrix.
        let l = randn_matrix(10, 2, 1.0, 30);
        let r = randn_matrix(2, 8, 1.0, 31);
        let a = l.matmul(&r).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-9), 2);
        let t = svd.truncate(2);
        assert!(t.reconstruct().approx_eq(&a, 1e-8));
    }

    #[test]
    fn truncate_clamps_out_of_range_ranks() {
        let a = randn_matrix(5, 4, 1.0, 2);
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.truncate(0).rank(), 1);
        assert_eq!(svd.truncate(100).rank(), 4);
    }

    #[test]
    fn full_rank_truncation_error_is_positive_zero() {
        let a = randn_matrix(16, 48, 1.0, 3);
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.singular_values().len(), 16);
        for k in [16, 17, 100] {
            assert_eq!(svd.truncation_error(k).to_bits(), 0, "k={k}");
        }
    }

    #[test]
    fn svd_handles_rank_one_and_tiny_matrices() {
        let a = Matrix::from_rows(&[vec![2.0], vec![0.0], vec![0.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.singular_values()[0] - 2.0).abs() < 1e-12);
        assert!(svd.reconstruct().approx_eq(&a, 1e-12));

        let b = Matrix::from_rows(&[vec![-3.5]]).unwrap();
        let svd_b = Svd::compute(&b).unwrap();
        assert!((svd_b.singular_values()[0] - 3.5).abs() < 1e-12);
        assert!(svd_b.reconstruct().approx_eq(&b, 1e-12));
    }
}
