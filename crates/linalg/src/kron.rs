//! Identity Kronecker products and block-diagonal embeddings.
//!
//! Theorem 2 of the paper expresses the low-rank factorization of an SDK
//! mapping as `D(SDK(W)) = (I_N ⊗ L) · SDK(R)`. The helpers in this module
//! build exactly those structured matrices so that the identity can be
//! verified numerically and so the mapping layer can materialize the
//! second-stage crossbar contents.

use crate::scalar::Scalar;
use crate::{Error, Matrix, Result};

/// Kronecker product of the `n × n` identity with `b`: `I_n ⊗ B`.
///
/// This is the block-diagonal matrix with `n` copies of `B` on the diagonal,
/// exactly the `Ĩ_N ⊗ L` factor of Theorem 2. It is computed directly,
/// without materializing the identity, because it is the common case.
pub fn identity_kron<S: Scalar>(n: usize, b: &Matrix<S>) -> Matrix<S> {
    assert!(n > 0, "identity dimension must be non-zero");
    let (br, bc) = b.shape();
    let mut out = Matrix::<S>::zeros(n * br, n * bc);
    for blk in 0..n {
        for p in 0..br {
            for q in 0..bc {
                out.set(blk * br + p, blk * bc + q, b.get(p, q));
            }
        }
    }
    out
}

/// Builds a block-diagonal matrix from the given (possibly differently
/// shaped) diagonal blocks.
///
/// # Errors
///
/// Returns [`Error::EmptyMatrix`] when no blocks are supplied.
pub fn block_diag<S: Scalar>(blocks: &[Matrix<S>]) -> Result<Matrix<S>> {
    if blocks.is_empty() {
        return Err(Error::EmptyMatrix);
    }
    let rows: usize = blocks.iter().map(Matrix::rows).sum();
    let cols: usize = blocks.iter().map(Matrix::cols).sum();
    let mut out = Matrix::<S>::zeros(rows, cols);
    let mut r0 = 0;
    let mut c0 = 0;
    for b in blocks {
        out.set_block(r0, c0, b)?;
        r0 += b.rows();
        c0 += b.cols();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn_matrix;

    /// The general Kronecker product `A ⊗ B`, blocks `a[i][j] · B`: the
    /// oracle [`identity_kron`] is checked against.
    fn kron(a: &Matrix, b: &Matrix) -> Matrix {
        let (ar, ac) = a.shape();
        let (br, bc) = b.shape();
        let mut out = Matrix::zeros(ar * br, ac * bc);
        for i in 0..ar {
            for j in 0..ac {
                for p in 0..br {
                    for q in 0..bc {
                        out.set(i * br + p, j * bc + q, a.get(i, j) * b.get(p, q));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn kron_with_identity_left_matches_identity_kron() {
        let b = randn_matrix(3, 2, 1.0, 4);
        let via_generic = kron(&Matrix::identity(4), &b);
        let via_fast = identity_kron(4, &b);
        assert!(via_generic.approx_eq(&via_fast, 1e-12));
    }

    #[test]
    fn identity_kron_is_block_diagonal() {
        let b = randn_matrix(2, 3, 1.0, 9);
        let k = identity_kron(3, &b);
        assert_eq!(k.shape(), (6, 9));
        // Off-diagonal blocks are exactly zero.
        assert_eq!(k.get(0, 3), 0.0);
        assert_eq!(k.get(5, 0), 0.0);
        // Diagonal blocks equal B.
        assert_eq!(k.get(4, 7), b.get(0, 1));
    }

    #[test]
    fn block_diag_of_heterogeneous_blocks() {
        let a = Matrix::filled(1, 2, 1.0);
        let b = Matrix::filled(2, 1, 2.0);
        let d = block_diag(&[a, b]).unwrap();
        assert_eq!(d.shape(), (3, 3));
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(1, 2), 2.0);
        assert_eq!(d.get(2, 2), 2.0);
        assert_eq!(d.get(0, 2), 0.0);
        assert_eq!(d.get(2, 0), 0.0);
    }

    #[test]
    fn block_diag_rejects_empty_input() {
        assert!(block_diag::<f64>(&[]).is_err());
    }

    #[test]
    fn block_diag_of_identical_blocks_equals_identity_kron() {
        let b = randn_matrix(3, 3, 1.0, 6);
        let blocks = vec![b.clone(), b.clone(), b.clone()];
        assert!(block_diag(&blocks)
            .unwrap()
            .approx_eq(&identity_kron(3, &b), 1e-12));
    }
}
