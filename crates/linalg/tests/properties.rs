//! Property-based tests for the linear-algebra substrate.
//!
//! The properties are exercised over a deterministic family of seeded random
//! matrices (`proptest` is not part of the offline dependency set); each case
//! count matches what the original property-test configuration explored.

use imc_linalg::{
    block_diag, identity_kron, random::SeededRng, uniform_matrix, Matrix, Svd, TruncatedSvd,
};

const CASES: u64 = 48;

/// A matrix with dimensions in `1..=max_rows × 1..=max_cols` and entries in
/// a moderate range so that the Jacobi SVD stays well conditioned.
fn random_matrix(max_rows: usize, max_cols: usize, seed: u64) -> Matrix {
    let mut rng = SeededRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let r = rng.gen_range(1..=max_rows);
    let c = rng.gen_range(1..=max_cols);
    uniform_matrix(r, c, -10.0, 10.0, seed)
}

#[test]
fn transpose_is_involutive() {
    for seed in 0..CASES {
        let m = random_matrix(12, 12, seed);
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn matmul_is_associative() {
    for seed in 0..CASES {
        let a = uniform_matrix(6, 5, -5.0, 5.0, seed);
        let b = uniform_matrix(5, 4, -5.0, 5.0, seed + 1000);
        let c = uniform_matrix(4, 3, -5.0, 5.0, seed + 2000);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(left.approx_eq(&right, 1e-6), "seed {seed}");
    }
}

#[test]
fn frobenius_norm_is_subadditive() {
    for seed in 0..CASES {
        let a = random_matrix(8, 8, seed);
        let b = a.map(|x| x * 0.5 - 1.0);
        let sum = a.add(&b).unwrap();
        assert!(
            sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9,
            "seed {seed}"
        );
    }
}

#[test]
fn svd_reconstructs_input() {
    for seed in 0..CASES {
        let m = random_matrix(10, 10, seed);
        let svd = Svd::compute(&m).unwrap();
        let norm = m.frobenius_norm().max(1.0);
        assert!(
            svd.reconstruct().sub(&m).unwrap().frobenius_norm() <= 1e-7 * norm,
            "seed {seed}"
        );
    }
}

#[test]
fn svd_truncation_error_is_monotone() {
    for seed in 0..CASES {
        let m = random_matrix(9, 9, seed);
        let svd = Svd::compute(&m).unwrap();
        let r = m.rows().min(m.cols());
        let mut prev = f64::INFINITY;
        for k in 1..=r {
            let err = svd.truncation_error(k);
            assert!(err <= prev + 1e-9, "seed {seed} rank {k}");
            prev = err;
        }
    }
}

#[test]
fn truncated_svd_error_matches_sigma_tail() {
    for seed in 0..CASES {
        let m = random_matrix(8, 8, seed);
        let r = m.rows().min(m.cols());
        let k = (r / 2).max(1);
        let svd = Svd::compute(&m).unwrap();
        let trunc = TruncatedSvd::compute(&m, k).unwrap();
        let measured = trunc.reconstruction_error(&m).unwrap();
        let tail = svd.truncation_error(k);
        assert!(
            (measured - tail).abs() <= 1e-6 * (1.0 + tail),
            "seed {seed}"
        );
    }
}

#[test]
fn split_cols_then_hstack_roundtrips() {
    for seed in 0..CASES {
        let m = random_matrix(6, 12, seed);
        let g = (seed as usize % 4 + 1).min(m.cols());
        let parts = m.split_cols(g).unwrap();
        assert_eq!(Matrix::hstack(&parts).unwrap(), m, "seed {seed}");
    }
}

#[test]
fn identity_kron_matvec_applies_blockwise() {
    for seed in 0..CASES {
        // (I_n ⊗ B) x  ==  concatenation of B x_i over the n slices of x.
        let b = random_matrix(4, 3, seed);
        let n = seed as usize % 3 + 1;
        let big = identity_kron(n, &b);
        let x: Vec<f64> = (0..n * b.cols()).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let full = big.matvec(&x).unwrap();
        for blk in 0..n {
            let xi = &x[blk * b.cols()..(blk + 1) * b.cols()];
            let yi = b.matvec(xi).unwrap();
            for (r, &want) in yi.iter().enumerate() {
                assert!(
                    (full[blk * b.rows() + r] - want).abs() < 1e-9,
                    "seed {seed}"
                );
            }
        }
    }
}

/// Unblocked i-k-j matmul — the exact accumulation order the striped kernel
/// in `Matrix::matmul` must preserve bit for bit.
fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let x = a.get(i, k);
            if x == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + x * b.get(k, j));
            }
        }
    }
    out
}

#[test]
fn tiled_matmul_is_bit_identical_to_naive_reference() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed.wrapping_mul(0xD134_2543_DE82_EF95));
        // Inner dimensions large enough that the k loop spans several cache
        // stripes (striping engages once inner × cols exceeds the stripe
        // working set), plus tiny shapes for the degenerate single-stripe path.
        let (r, inner, c) = if seed % 4 == 0 {
            (
                rng.gen_range(1..=4),
                rng.gen_range(1..=8),
                rng.gen_range(1..=4),
            )
        } else {
            (
                rng.gen_range(1..=8),
                rng.gen_range(300..=700),
                rng.gen_range(100..=300),
            )
        };
        let a = uniform_matrix(r, inner, -5.0, 5.0, seed);
        let b = uniform_matrix(inner, c, -5.0, 5.0, seed + 3000);
        let tiled = a.matmul(&b).unwrap();
        assert_eq!(tiled, matmul_reference(&a, &b), "seed {seed}");
    }
}

#[test]
fn tiled_matmul_matches_dot_product_definition() {
    for seed in 0..CASES {
        let a = random_matrix(10, 40, seed);
        let b = uniform_matrix(a.cols(), 7, -5.0, 5.0, seed + 4000);
        let got = a.matmul(&b).unwrap();
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let want: f64 = (0..a.cols()).map(|k| a.get(i, k) * b.get(k, j)).sum();
                assert!((got.get(i, j) - want).abs() <= 1e-9, "seed {seed}");
            }
        }
    }
}

#[test]
fn blocked_transpose_is_bit_identical_to_naive_reference() {
    for seed in 0..CASES {
        let m = random_matrix(90, 70, seed);
        let mut reference = Matrix::zeros(m.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                reference.set(j, i, m.get(i, j));
            }
        }
        assert_eq!(m.transpose(), reference, "seed {seed}");
    }
}

#[test]
fn block_diag_preserves_frobenius_norm_squared() {
    for seed in 0..CASES {
        let a = random_matrix(4, 4, seed);
        let b = random_matrix(3, 5, seed + 7000);
        let d = block_diag(&[a.clone(), b.clone()]).unwrap();
        let want = (a.frobenius_norm().powi(2) + b.frobenius_norm().powi(2)).sqrt();
        assert!((d.frobenius_norm() - want).abs() < 1e-9, "seed {seed}");
    }
}
