//! Householder QR decomposition.
//!
//! One crate-private compact factorization, `Householder`, stores `R` and
//! the Householder reflectors in a column-major `m × n` buffer, like
//! LAPACK's `geqrf`, and never forms an `m × m` `Q`. It is the SVD's
//! preconditioner (see [`crate::svd`]): the Jacobi sweeps run on the `n × n`
//! `Rᵀ`, and the reflectors turn the accumulated rotations into the left
//! singular vectors. [`Qr::compute`] is built on it too, applying the
//! reflectors to the first `n` identity columns to get its thin `Q`.
//!
//! The `f64` dot products keep the strict serial order of the rest of the
//! reference kernels; the reflector kernel runs several columns' sums side
//! by side, which changes no bit.

use crate::scalar::Scalar;
use crate::{Error, Matrix, Result};

/// A compact Householder QR factorization `A = H₀·H₁·…·H_{n−1}·[R; 0]` of an
/// `m × n` matrix, `m ≥ n`.
///
/// Reflector `k` is `H_k = I − τ_k·w·wᵀ` with `w = [0; 1; v_k]`: zero above
/// row `k`, an implicit one at row `k`, and `v_k` in rows `k+1..m`.
pub(crate) struct Householder<S: Scalar> {
    rows: usize,
    cols: usize,
    /// Column-major `m × n`: `R` on and above the diagonal, `v_k` below the
    /// diagonal of column `k`.
    factors: Vec<S>,
    /// `τ_k` per reflector; zero when column `k` needed no reflection.
    tau: Vec<S>,
}

impl<S: Scalar> Householder<S> {
    /// Factors the `rows × cols` matrix held column-major in `columns`
    /// (`rows ≥ cols`).
    pub(crate) fn factor(rows: usize, cols: usize, columns: Vec<S>) -> Self {
        debug_assert!(rows >= cols && columns.len() == rows * cols);
        let (m, n) = (rows, cols);
        let mut factors = columns;
        let mut tau = vec![S::ZERO; n];
        for k in 0..n {
            let (head, trailing) = factors.split_at_mut((k + 1) * m);
            let column = &mut head[k * m..];
            let mut below = S::ZERO;
            for &x in &column[k + 1..] {
                below += x * x;
            }
            if below == S::ZERO {
                // Already triangular: H_k = I, and R keeps the diagonal's sign.
                continue;
            }
            let alpha = column[k];
            let norm = (alpha * alpha + below).sqrt();
            // Reflect onto −sign(α)·‖x‖ so that α − β never cancels.
            let beta = if alpha >= S::ZERO { -norm } else { norm };
            tau[k] = (beta - alpha) / beta;
            let scale = S::ONE / (alpha - beta);
            for x in &mut column[k + 1..] {
                *x *= scale;
            }
            column[k] = beta;
            reflect(
                &column[k + 1..],
                tau[k],
                k,
                m,
                &mut trailing[..(n - k - 1) * m],
            );
        }
        Self {
            rows,
            cols,
            factors,
            tau,
        }
    }

    /// `R` in row-major order, zeros below the diagonal. Read column-major,
    /// the same buffer is `Rᵀ`.
    pub(crate) fn r_row_major(&self) -> Vec<S> {
        let (m, n) = (self.rows, self.cols);
        let mut r = vec![S::ZERO; n * n];
        for (j, column) in self.factors.chunks_exact(m).enumerate() {
            for (i, &x) in column[..=j].iter().enumerate() {
                r[i * n + j] = x;
            }
        }
        r
    }

    /// Overwrites the column-major `m × c` buffer `columns` with `Q·columns`.
    pub(crate) fn apply_q(&self, columns: &mut [S]) {
        let m = self.rows;
        for k in (0..self.cols).rev() {
            if self.tau[k] != S::ZERO {
                let v = &self.factors[k * m + k + 1..(k + 1) * m];
                reflect(v, self.tau[k], k, m, columns);
            }
        }
    }
}

/// Applies `H = I − τ·w·wᵀ`, `w = [0; 1; v]` with its one at row `k`, to
/// every `len`-long column of the column-major buffer `columns`.
///
/// Each column's dot product `wᵀc` is a strict serial sum from row `k` down.
/// Four columns run side by side: one sum at a time would wait on the
/// floating-point add latency at every element.
fn reflect<S: Scalar>(v: &[S], tau: S, k: usize, len: usize, columns: &mut [S]) {
    let mut groups = columns.chunks_exact_mut(4 * len);
    for group in groups.by_ref() {
        let (c0, rest) = group.split_at_mut(len);
        let (c1, rest) = rest.split_at_mut(len);
        let (c2, c3) = rest.split_at_mut(len);
        let lanes = [&mut c0[k..], &mut c1[k..], &mut c2[k..], &mut c3[k..]];
        let [c0, c1, c2, c3] = &lanes;
        let mut dot = [c0[0], c1[0], c2[0], c3[0]];
        for ((((&vi, &x0), &x1), &x2), &x3) in v
            .iter()
            .zip(&c0[1..])
            .zip(&c1[1..])
            .zip(&c2[1..])
            .zip(&c3[1..])
        {
            dot[0] += vi * x0;
            dot[1] += vi * x1;
            dot[2] += vi * x2;
            dot[3] += vi * x3;
        }
        for (column, d) in lanes.into_iter().zip(dot) {
            update(v, tau * d, column);
        }
    }
    for column in groups.into_remainder().chunks_exact_mut(len) {
        let column = &mut column[k..];
        let mut dot = column[0];
        for (&vi, &x) in v.iter().zip(&column[1..]) {
            dot += vi * x;
        }
        update(v, tau * dot, column);
    }
}

/// `c ← c − f·[1; v]` for one column `c` that starts at the reflector's row.
#[inline]
fn update<S: Scalar>(v: &[S], f: S, column: &mut [S]) {
    column[0] -= f;
    for (&vi, x) in v.iter().zip(&mut column[1..]) {
        *x -= f * vi;
    }
}

/// A thin QR decomposition `A = Q R` with `Q` of shape `m × n` (orthonormal
/// columns) and `R` upper-triangular of shape `n × n`, for `m ≥ n`.
#[derive(Debug, Clone)]
pub struct Qr<S: Scalar = f64> {
    q: Matrix<S>,
    r: Matrix<S>,
}

impl<S: Scalar> Qr<S> {
    /// Computes the thin QR decomposition of `a` (requires `rows ≥ cols`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the matrix has more columns than
    /// rows (use the transpose, or an LQ formulation, for wide systems).
    pub fn compute(a: &Matrix<S>) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(Error::ShapeMismatch {
                left: (m, n),
                right: (n, n),
                op: "thin QR (requires rows >= cols)",
            });
        }
        let qr = Householder::factor(m, n, a.to_col_major());
        // The thin Q is Q applied to the first n identity columns.
        let mut q = vec![S::ZERO; m * n];
        for j in 0..n {
            q[j * m + j] = S::ONE;
        }
        qr.apply_q(&mut q);
        Ok(Self {
            q: Matrix::from_col_major(m, n, q),
            r: Matrix::from_vec(n, n, qr.r_row_major())?,
        })
    }

    /// The orthonormal factor `Q` (`m × n`).
    pub fn q(&self) -> &Matrix<S> {
        &self.q
    }

    /// The upper-triangular factor `R` (`n × n`).
    pub fn r(&self) -> &Matrix<S> {
        &self.r
    }

    /// Reconstructs `Q·R`.
    pub fn reconstruct(&self) -> Matrix<S> {
        self.q
            .matmul(&self.r)
            .expect("QR factor shapes are consistent by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn_matrix;

    #[test]
    fn qr_reconstructs_input() {
        let a = randn_matrix(12, 5, 1.0, 42);
        let qr = Qr::compute(&a).unwrap();
        assert!(qr.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = randn_matrix(15, 6, 2.0, 8);
        let qr = Qr::compute(&a).unwrap();
        let qtq = qr.q().transpose().matmul(qr.q()).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(6), 1e-9));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = randn_matrix(9, 4, 1.0, 3);
        let qr = Qr::compute(&a).unwrap();
        for i in 0..4 {
            for j in 0..i {
                assert!(qr.r().get(i, j).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn qr_rejects_wide_matrices() {
        let a = randn_matrix(3, 5, 1.0, 1);
        assert!(matches!(Qr::compute(&a), Err(Error::ShapeMismatch { .. })));
    }
}
