//! Differential certification of the `f32` fast path against the `f64`
//! bit-exact oracle.
//!
//! Every kernel in this crate exists at two widths: `f64` — the reference
//! whose behaviour is pinned byte-for-byte by the experiment goldens — and
//! `f32`, the SIMD-friendly fast path. This harness sweeps seeded matrix
//! shapes and conditioning profiles, runs each kernel at both widths on the
//! *same* underlying random stream (the `*_in` generators round one `f64`
//! SplitMix64/Box–Muller stream into each type, so the `f32` input is exactly
//! the rounded image of the `f64` input), and asserts the `f32` result
//! against the widened oracle under a per-kernel error budget.
//!
//! # Error budgets
//!
//! The budgets are stated as named constants next to their kernels and derive
//! from standard forward-error analysis in units of `f32` machine epsilon
//! (`eps ≈ 1.19e-7`):
//!
//! | kernel | budget | rationale |
//! |---|---|---|
//! | `transpose`, `submatrix`, stacking, `split_*` | **exact** | pure data movement, no arithmetic |
//! | element-wise (`add`, `sub`, `hadamard`, `scale`) | few-ULP absolute | one rounding per element plus rounded inputs |
//! | `matmul`, `matvec` | `~k·eps` scaled by operand norms | length-`k` dot-product accumulation |
//! | `frobenius_norm`, `sum` | `~sqrt(len)·eps` relative | pairwise-free serial accumulation |
//! | Jacobi SVD | `~1e-4` relative to `σ_max` | iterative, stopped at `JACOBI_TOL = 1e-6` |
//! | QR | `~1e-4` (well-conditioned) | Householder backward stability × modest condition numbers |
//!
//! A failure here means the fast path drifted outside its contract — not
//! that the tolerance needs loosening. Keep the budgets tight enough to
//! catch a broken kernel (a wrong sign, a dropped term) by orders of
//! magnitude.
//!
//! The `f64` SVD has an oracle of its own: [`svd_reference`], the plain
//! row-major one-sided Jacobi that the QR-preconditioned kernel replaced.
//! The two agree to rounding, not bit for bit.

use imc_linalg::random::{kaiming_matrix_in, low_rank_matrix_in, randn_matrix_in, SeededRng};
use imc_linalg::{
    block_diag, identity_kron, uniform_matrix, uniform_matrix_in, Matrix, Qr, Scalar, Svd,
    TruncatedSvd,
};

const EPS32: f64 = f32::EPSILON as f64;

/// Shapes swept by every kernel comparison: square, tall, wide, layer-sized
/// (the 64×144 / 64×576 im2col blocks the experiments decompose).
const SHAPES: &[(usize, usize)] = &[
    (6, 6),
    (16, 12),
    (12, 16),
    (40, 12),
    (9, 30),
    (64, 64),
    (64, 144),
];

/// Seeds giving each shape several independent draws.
const SEEDS: &[u64] = &[1, 7, 2025];

/// Generates the same logical matrix at both widths (identical stream,
/// rounded draws).
fn pair(rows: usize, cols: usize, std: f64, seed: u64) -> (Matrix<f64>, Matrix<f32>) {
    (
        randn_matrix_in::<f64>(rows, cols, std, seed),
        randn_matrix_in::<f32>(rows, cols, std, seed),
    )
}

/// Frobenius distance `‖A − B‖_F` of two equally shaped matrices.
fn frobenius_distance<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> imc_linalg::Result<S> {
    Ok(a.sub(b)?.frobenius_norm())
}

/// Relative Frobenius distance between an `f32` result (widened) and its
/// `f64` oracle, normalized by the oracle norm (absolute when the oracle is
/// zero).
fn rel_fro(oracle: &Matrix<f64>, fast: &Matrix<f32>) -> f64 {
    let wide = fast.cast::<f64>();
    let dist = frobenius_distance(oracle, &wide).expect("shapes match by construction");
    let norm = oracle.frobenius_norm();
    if norm > 0.0 {
        dist / norm
    } else {
        dist
    }
}

/// Distance in `f32` ULPs between two values, via the standard ordered-bits
/// mapping (sign-magnitude → two's-complement order).
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn ordered(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        i64::from(if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        })
    }
    (ordered(a) - ordered(b)).unsigned_abs()
}

// ---------------------------------------------------------------------------
// Data movement: exact.
// ---------------------------------------------------------------------------

#[test]
fn data_movement_kernels_are_exact_in_f32() {
    for &(m, n) in SHAPES {
        for &seed in SEEDS {
            let (a64, a32) = pair(m, n, 1.0, seed);
            assert_eq!(a32, a64.cast::<f32>(), "input rounding is elementwise");
            assert_eq!(a32.transpose(), a64.transpose().cast::<f32>());
            assert_eq!(
                a32.transpose().transpose(),
                a32,
                "transpose must round-trip"
            );
            let sub32 = a32.submatrix(1, 1, m - 1, n - 1).unwrap();
            let sub64 = a64.submatrix(1, 1, m - 1, n - 1).unwrap();
            assert_eq!(sub32, sub64.cast::<f32>());
            let parts32 = a32.split_cols(3.min(n)).unwrap();
            assert_eq!(Matrix::hstack(&parts32).unwrap(), a32);
            let parts_rows32 = a32.split_rows(2.min(m)).unwrap();
            assert_eq!(Matrix::vstack(&parts_rows32).unwrap(), a32);
        }
    }
}

// ---------------------------------------------------------------------------
// Element-wise arithmetic: few-ULP budgets.
// ---------------------------------------------------------------------------

/// One `f32` rounding on top of rounded inputs: multiplicative kernels
/// (`hadamard`, `scale`, `kron`) keep a *relative* error of at most three
/// half-ULP roundings, so a few ULPs from the rounded oracle.
const ELEMENTWISE_ULP_BUDGET: u64 = 4;

/// Additive kernels (`add`, `sub`) cancel: the absolute error is bounded by
/// the rounded *operands* (`~eps·(|a|+|b|)`), not by the possibly tiny
/// result, so their budget is magnitude-scaled rather than ULP-counted.
const ADDITIVE_ABS_BUDGET: f64 = 4.0 * EPS32;

#[test]
fn elementwise_kernels_stay_within_ulp_budget() {
    for &(m, n) in SHAPES {
        for &seed in SEEDS {
            let (a64, a32) = pair(m, n, 1.0, seed);
            let (b64, b32) = pair(m, n, 0.5, seed ^ 0xABCD);
            let additive: [(Matrix<f64>, Matrix<f32>, &str); 2] = [
                (a64.add(&b64).unwrap(), a32.add(&b32).unwrap(), "add"),
                (a64.sub(&b64).unwrap(), a32.sub(&b32).unwrap(), "sub"),
            ];
            for (oracle, fast, kernel) in &additive {
                for (((o, f), a), b) in oracle
                    .as_slice()
                    .iter()
                    .zip(fast.as_slice())
                    .zip(a64.as_slice())
                    .zip(b64.as_slice())
                {
                    let tol = ADDITIVE_ABS_BUDGET * (a.abs() + b.abs());
                    assert!(
                        (o - f64::from(*f)).abs() <= tol,
                        "{kernel} {m}x{n} seed {seed}: {o} vs {f} (tol {tol:.3e})"
                    );
                }
            }
            let multiplicative: [(Matrix<f64>, Matrix<f32>, &str); 2] = [
                (
                    a64.hadamard(&b64).unwrap(),
                    a32.hadamard(&b32).unwrap(),
                    "hadamard",
                ),
                (a64.scale(1.75), a32.scale(1.75), "scale"),
            ];
            for (oracle, fast, kernel) in &multiplicative {
                let rounded = oracle.cast::<f32>();
                for (o, f) in rounded.as_slice().iter().zip(fast.as_slice()) {
                    let ulps = ulp_distance(*o, *f);
                    assert!(
                        ulps <= ELEMENTWISE_ULP_BUDGET,
                        "{kernel} {m}x{n} seed {seed}: {o} vs {f} is {ulps} ULPs"
                    );
                }
            }
        }
    }
}

#[test]
fn kron_family_stays_within_ulp_budget() {
    for &seed in SEEDS {
        let (a64, a32) = pair(4, 3, 1.0, seed);
        let (b64, b32) = pair(3, 5, 1.0, seed ^ 0x55);
        // The structured embeddings are pure data movement: exact.
        assert_eq!(identity_kron(3, &b32), identity_kron(3, &b64).cast::<f32>());
        assert_eq!(
            block_diag(&[a32.clone(), b32.clone()]).unwrap(),
            block_diag(&[a64.clone(), b64.clone()]).unwrap().cast()
        );
    }
}

// ---------------------------------------------------------------------------
// Accumulating kernels: norm-scaled budgets.
// ---------------------------------------------------------------------------

/// Forward error of a length-`k` serial dot product: `~k·eps` relative to
/// `Σ|a||b|`, with head-room for the rounded inputs. Applied per output
/// matrix as `‖ΔC‖_F ≤ BUDGET(k) · ‖A‖_F·‖B‖_F`.
fn matmul_budget(k: usize) -> f64 {
    4.0 * (k as f64 + 2.0) * EPS32
}

#[test]
fn matmul_and_matvec_track_the_oracle_within_accumulation_budget() {
    for &(m, n) in SHAPES {
        for &seed in SEEDS {
            let (a64, a32) = pair(m, n, 1.0, seed);
            let (b64, b32) = pair(n, (m / 2).max(1), 1.0, seed ^ 0xF00D);
            let c64 = a64.matmul(&b64).unwrap();
            let c32 = a32.matmul(&b32).unwrap();
            let scale = a64.frobenius_norm() * b64.frobenius_norm();
            let dist = frobenius_distance(&c64, &c32.cast()).unwrap();
            assert!(
                dist <= matmul_budget(n) * scale,
                "matmul {m}x{n} seed {seed}: |ΔC|={dist:.3e} budget={:.3e}",
                matmul_budget(n) * scale
            );

            let v64 = b64.col(0).unwrap();
            let v32: Vec<f32> = v64.iter().map(|&x| x as f32).collect();
            let y64 = a64.matvec(&v64).unwrap();
            let y32 = a32.matvec(&v32).unwrap();
            let vnorm = v64.iter().map(|x| x * x).sum::<f64>().sqrt();
            let ydist = y64
                .iter()
                .zip(y32.iter())
                .map(|(o, f)| (o - f64::from(*f)).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(
                ydist <= matmul_budget(n) * a64.frobenius_norm() * vnorm,
                "matvec {m}x{n} seed {seed}: {ydist:.3e}"
            );
        }
    }
}

/// Serial sum of `len` squares: `~len·eps` in the worst case, far less in
/// practice for i.i.d. terms.
fn reduction_budget(len: usize) -> f64 {
    2.0 * (len as f64).sqrt() * EPS32 + 8.0 * EPS32
}

#[test]
fn norms_and_reductions_track_the_oracle() {
    for &(m, n) in SHAPES {
        for &seed in SEEDS {
            let (a64, a32) = pair(m, n, 1.0, seed);
            let fro64 = a64.frobenius_norm();
            let fro32 = f64::from(a32.frobenius_norm());
            assert!(
                (fro64 - fro32).abs() <= reduction_budget(m * n) * fro64,
                "frobenius {m}x{n} seed {seed}: {fro64} vs {fro32}"
            );
            let max64 = a64.max_abs();
            let max32 = f64::from(a32.max_abs());
            assert!(
                (max64 - max32).abs() <= 2.0 * EPS32 * max64,
                "max_abs {m}x{n} seed {seed}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Jacobi SVD: the hot kernel of the whole pipeline.
// ---------------------------------------------------------------------------

/// Relative budget on singular values (against `σ_max`), reconstruction and
/// factor orthonormality for the `f32` Jacobi SVD: the sweeps stop at
/// `JACOBI_TOL = 1e-6` relative off-diagonal mass, so results sit ~1e-6
/// from the oracle; 1e-4 leaves two orders of magnitude of slack while still
/// failing loudly on any broken rotation.
const SVD_BUDGET: f64 = 1e-4;

#[test]
fn svd_singular_values_match_the_oracle_per_shape_and_seed() {
    for &(m, n) in SHAPES {
        for &seed in SEEDS {
            let (a64, a32) = pair(m, n, 1.0, seed);
            let svd64 = Svd::compute(&a64).unwrap();
            let svd32 = Svd::<f32>::compute(&a32).unwrap();
            let sigma_max = svd64.singular_values()[0];
            for (i, (s64, s32)) in svd64
                .singular_values()
                .iter()
                .zip(svd32.singular_values())
                .enumerate()
            {
                assert!(
                    (s64 - f64::from(*s32)).abs() <= SVD_BUDGET * sigma_max,
                    "σ_{i} {m}x{n} seed {seed}: {s64} vs {s32}"
                );
            }
        }
    }
}

#[test]
fn svd_reconstruction_and_orthonormality_hold_in_f32() {
    for &(m, n) in SHAPES {
        for &seed in SEEDS {
            let (a64, a32) = pair(m, n, 1.0, seed);
            let svd32 = Svd::<f32>::compute(&a32).unwrap();
            assert!(
                rel_fro(&a64, &svd32.reconstruct()) <= SVD_BUDGET,
                "reconstruct {m}x{n} seed {seed}"
            );
            let r = m.min(n);
            let utu = svd32.u().transpose().matmul(svd32.u()).unwrap();
            let vtv = svd32.v().transpose().matmul(svd32.v()).unwrap();
            let id = Matrix::<f32>::identity(r);
            assert!(
                utu.approx_eq(&id, SVD_BUDGET as f32),
                "UᵀU {m}x{n} seed {seed}"
            );
            assert!(
                vtv.approx_eq(&id, SVD_BUDGET as f32),
                "VᵀV {m}x{n} seed {seed}"
            );
        }
    }
}

#[test]
fn truncated_svd_errors_match_the_eckart_young_oracle() {
    for &(m, n) in &[(16usize, 12usize), (40, 12), (64, 144)] {
        for &seed in SEEDS {
            let (a64, a32) = pair(m, n, 1.0, seed);
            let svd64 = Svd::compute(&a64).unwrap();
            let norm = a64.frobenius_norm();
            for k in [1, 2, m.min(n) / 2, m.min(n)] {
                let t32 = TruncatedSvd::<f32>::compute(&a32, k).unwrap();
                let err32 = f64::from(t32.reconstruction_error(&a32).unwrap());
                let err64 = svd64.truncation_error(k);
                assert!(
                    (err32 - err64).abs() <= SVD_BUDGET * norm,
                    "rank {k} {m}x{n} seed {seed}: {err32} vs oracle {err64}"
                );
            }
        }
    }
}

#[test]
fn svd_handles_conditioning_sweep_in_f32() {
    // Spectra with condition numbers from 1e1 to 1e6: built as U·diag(σ)·Vᵀ
    // from seeded rotations so the oracle spectrum is known by construction.
    for &cond_exp in &[1i32, 3, 6] {
        for &seed in SEEDS {
            let n = 12usize;
            let sigma: Vec<f64> = (0..n)
                .map(|i| 10f64.powf(-(cond_exp as f64) * i as f64 / (n - 1) as f64))
                .collect();
            let q1 = Qr::compute(&randn_matrix_in::<f64>(n, n, 1.0, seed))
                .unwrap()
                .q()
                .clone();
            let q2 = Qr::compute(&randn_matrix_in::<f64>(n, n, 1.0, seed ^ 0xBEEF))
                .unwrap()
                .q()
                .clone();
            let a64 = q1
                .matmul(&Matrix::from_diag(&sigma))
                .unwrap()
                .matmul(&q2.transpose())
                .unwrap();
            let a32 = a64.cast::<f32>();
            let svd32 = Svd::<f32>::compute(&a32).unwrap();
            // Leading singular values are resolved to the SVD budget; trailing
            // ones below f32 resolution are only bounded in absolute terms.
            for (i, s) in svd32.singular_values().iter().enumerate() {
                let oracle = sigma[i];
                let tol = SVD_BUDGET * sigma[0];
                assert!(
                    (f64::from(*s) - oracle).abs() <= tol,
                    "cond 1e{cond_exp} seed {seed} σ_{i}: {s} vs {oracle}"
                );
            }
            assert!(
                rel_fro(&a64, &svd32.reconstruct()) <= SVD_BUDGET,
                "cond 1e{cond_exp} seed {seed} reconstruct"
            );
        }
    }
}

#[test]
fn low_rank_structure_is_detected_at_both_widths() {
    for &seed in SEEDS {
        let a64 = low_rank_matrix_in::<f64>(20, 15, 3, seed);
        let a32 = low_rank_matrix_in::<f32>(20, 15, 3, seed);
        let rank64 = Svd::compute(&a64).unwrap().rank(1e-9);
        let rank32 = Svd::<f32>::compute(&a32).unwrap().rank(1e-4_f32);
        assert_eq!(rank64, 3);
        assert_eq!(rank32, 3, "f32 rank detection at seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// The f64 SVD against the plain one-sided Jacobi oracle.
// ---------------------------------------------------------------------------

/// The row-major one-sided Jacobi SVD without preconditioning, verbatim from
/// before the QR step: the `f64` oracle of [`Svd::compute`].
fn svd_reference(a: &Matrix) -> (Matrix, Vec<f64>, Matrix) {
    const MAX_SWEEPS: usize = 60;
    const JACOBI_TOL: f64 = 1e-12;
    let (m, n) = a.shape();
    if n > m {
        let (u, s, v) = svd_reference(&a.transpose());
        return (v, s, u);
    }
    let mut u = a.clone();
    let mut v = Matrix::identity(n);
    let r = n;
    let mut converged = false;
    let mut sweeps = 0;
    while sweeps < MAX_SWEEPS && !converged {
        converged = true;
        for p in 0..r {
            for q in (p + 1)..r {
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for i in 0..m {
                    let up = u.get(i, p);
                    let uq = u.get(i, q);
                    alpha += up * up;
                    beta += uq * uq;
                    gamma += up * uq;
                }
                if gamma.abs() <= JACOBI_TOL * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                converged = false;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u.get(i, p);
                    let uq = u.get(i, q);
                    u.set(i, p, c * up - s * uq);
                    u.set(i, q, s * up + c * uq);
                }
                for i in 0..n {
                    let vp = v.get(i, p);
                    let vq = v.get(i, q);
                    v.set(i, p, c * vp - s * vq);
                    v.set(i, q, s * vp + c * vq);
                }
            }
        }
        sweeps += 1;
    }
    assert!(converged, "reference Jacobi did not converge");
    let mut order: Vec<usize> = (0..r).collect();
    let mut sigma = vec![0.0; r];
    for (j, s) in sigma.iter_mut().enumerate() {
        let mut norm = 0.0;
        for i in 0..m {
            norm += u.get(i, j) * u.get(i, j);
        }
        *s = norm.sqrt();
    }
    order.sort_by(|&a_idx, &b_idx| {
        sigma[b_idx]
            .partial_cmp(&sigma[a_idx])
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    let mut u_sorted = Matrix::zeros(m, r);
    let mut v_sorted = Matrix::zeros(n, r);
    let mut sigma_sorted = vec![0.0; r];
    for (new_j, &old_j) in order.iter().enumerate() {
        let s = sigma[old_j];
        sigma_sorted[new_j] = s;
        for i in 0..m {
            let val = if s > f64::EPSILON {
                u.get(i, old_j) / s
            } else {
                0.0
            };
            u_sorted.set(i, new_j, val);
        }
        for i in 0..n {
            v_sorted.set(i, new_j, v.get(i, old_j));
        }
    }
    (u_sorted, sigma_sorted, v_sorted)
}

/// Singular values agree with the oracle to `1e-13·σ₁`.
const ORACLE_SIGMA_BUDGET: f64 = 1e-13;
/// `‖UΣVᵀ − A‖_F ≤ 1e-12·‖A‖_F`.
const ORACLE_RECONSTRUCTION_BUDGET: f64 = 1e-12;
/// Singular vectors with `σ > ε·σ₁` are orthonormal to `1e-12`.
const ORACLE_ORTHONORMALITY_BUDGET: f64 = 1e-12;

/// The (rows, cols) of the blocks the Fig. 6 grid decomposes, in the tall
/// orientation the Jacobi sweeps run on.
const FIG6_BLOCKS: &[(usize, usize)] = &[
    (576, 64),
    (288, 64),
    (144, 64),
    (72, 64),
    (288, 32),
    (144, 16),
    (18, 16),
];

/// The certified SVD inputs, labelled: random shapes of 1–24 rows and
/// columns, Fig. 6's block shapes in both orientations, columns graded down
/// to `1e-8`, and rank-deficient blocks.
fn oracle_cases() -> Vec<(String, Matrix)> {
    let mut cases = Vec::new();
    for seed in 0..24u64 {
        let mut rng = SeededRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
        let r = rng.gen_range(1..=24);
        let c = rng.gen_range(1..=24);
        cases.push((
            format!("random {r}x{c} seed {seed}"),
            uniform_matrix(r, c, -10.0, 10.0, seed + 9000),
        ));
    }
    for &(m, n) in FIG6_BLOCKS {
        let block = randn_matrix_in::<f64>(m, n, (2.0 / m as f64).sqrt(), 2025);
        cases.push((format!("fig6 {n}x{m}"), block.transpose()));
        cases.push((format!("fig6 {m}x{n}"), block));
    }
    for &(m, n) in &[(40usize, 12usize), (144, 16), (72, 64)] {
        let mut graded = randn_matrix_in::<f64>(m, n, 1.0, 7);
        for j in 0..n {
            let scale = 10f64.powf(-8.0 * j as f64 / (n - 1) as f64);
            for i in 0..m {
                graded.set(i, j, graded.get(i, j) * scale);
            }
        }
        cases.push((format!("graded {m}x{n}"), graded));
    }
    for &(m, n) in &[(144usize, 16usize), (18, 16), (16, 18)] {
        let base = randn_matrix_in::<f64>(m, n, 1.0, 31);
        let mut zero_columns = base.clone();
        let mut repeated_column = base.clone();
        for i in 0..m {
            zero_columns.set(i, 0, 0.0);
            zero_columns.set(i, 3, 0.0);
            repeated_column.set(i, 5, base.get(i, 2));
        }
        let rank_one = randn_matrix_in::<f64>(m, 1, 1.0, 32)
            .matmul(&randn_matrix_in::<f64>(1, n, 1.0, 33))
            .unwrap();
        cases.push((format!("zero columns {m}x{n}"), zero_columns));
        cases.push((format!("repeated column {m}x{n}"), repeated_column));
        cases.push((format!("rank one {m}x{n}"), rank_one));
    }
    cases
}

/// Asserts that the columns of `factor` whose singular value exceeds
/// `cutoff` are orthonormal to within `budget`.
fn assert_orthonormal_where<S: Scalar>(
    factor: &Matrix<S>,
    sigma: &[S],
    cutoff: S,
    budget: f64,
    what: &str,
) {
    let gram = factor.transpose().matmul(factor).unwrap();
    let kept: Vec<usize> = (0..sigma.len()).filter(|&j| sigma[j] > cutoff).collect();
    for &i in &kept {
        for &j in &kept {
            let want = if i == j { 1.0 } else { 0.0 };
            let got = gram.get(i, j).to_f64();
            assert!(
                (got - want).abs() <= budget,
                "{what}: (FᵀF)[{i}][{j}] = {got:.3e}"
            );
        }
    }
}

#[test]
fn qr_preconditioned_svd_matches_the_plain_jacobi_oracle_to_rounding() {
    for (label, a) in oracle_cases() {
        let svd = Svd::compute(&a).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        let (_, sigma_ref, _) = svd_reference(&a);
        let sigma = svd.singular_values();
        let sigma_1 = sigma_ref[0];
        assert_eq!(sigma.len(), sigma_ref.len(), "{label}");
        assert_eq!(svd.u().shape(), (a.rows(), sigma.len()), "{label}");
        assert_eq!(svd.v().shape(), (a.cols(), sigma.len()), "{label}");
        for (i, (s, s_ref)) in sigma.iter().zip(&sigma_ref).enumerate() {
            assert!(
                (s - s_ref).abs() <= ORACLE_SIGMA_BUDGET * sigma_1,
                "{label} σ_{i}: {s} vs oracle {s_ref}"
            );
        }
        let residual = frobenius_distance(&svd.reconstruct(), &a).unwrap();
        assert!(
            residual <= ORACLE_RECONSTRUCTION_BUDGET * a.frobenius_norm(),
            "{label}: ‖UΣVᵀ − A‖ = {residual:.3e}"
        );
        let cutoff = f64::EPSILON * sigma_1;
        let budget = ORACLE_ORTHONORMALITY_BUDGET;
        assert_orthonormal_where(svd.u(), sigma, cutoff, budget, &format!("{label} U"));
        assert_orthonormal_where(svd.v(), sigma, cutoff, budget, &format!("{label} V"));
    }
}

#[test]
fn f32_svd_stays_within_budget_on_the_oracle_cases() {
    for (label, a64) in oracle_cases() {
        let a32 = a64.cast::<f32>();
        let svd64 = Svd::compute(&a64).unwrap();
        let svd32 = Svd::<f32>::compute(&a32).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        let sigma_max = svd64.singular_values()[0];
        for (i, (s64, s32)) in svd64
            .singular_values()
            .iter()
            .zip(svd32.singular_values())
            .enumerate()
        {
            assert!(
                (s64 - f64::from(*s32)).abs() <= SVD_BUDGET * sigma_max,
                "{label} σ_{i}: {s64} vs {s32}"
            );
        }
        assert!(
            rel_fro(&a64, &svd32.reconstruct()) <= SVD_BUDGET,
            "{label}: reconstruct"
        );
        let sigma = svd32.singular_values();
        let cutoff = f32::EPSILON * sigma[0];
        assert_orthonormal_where(svd32.u(), sigma, cutoff, SVD_BUDGET, &format!("{label} U"));
        assert_orthonormal_where(svd32.v(), sigma, cutoff, SVD_BUDGET, &format!("{label} V"));
    }
}

/// Asserts that the values-only kernel returns `Svd::compute`'s `σ` bit for
/// bit on `a`.
fn assert_values_only_sigma_is_exact<S: Scalar>(a: &Matrix<S>, label: &str) {
    let full = Svd::compute(a).unwrap_or_else(|e| panic!("{label}: {e:?}"));
    let values = Svd::singular_values_of(a).unwrap_or_else(|e| panic!("{label}: {e:?}"));
    let bits = |sigma: &[S]| -> Vec<u64> { sigma.iter().map(|s| s.to_f64().to_bits()).collect() };
    assert_eq!(
        bits(&values),
        bits(full.singular_values()),
        "{label}: values-only σ differs from the full decomposition's"
    );
}

#[test]
fn values_only_sigma_is_bit_identical_to_the_full_svd_at_both_widths() {
    for (label, a64) in oracle_cases() {
        assert_values_only_sigma_is_exact(&a64, &format!("{label} f64"));
        assert_values_only_sigma_is_exact(&a64.cast::<f32>(), &format!("{label} f32"));
    }
}

// ---------------------------------------------------------------------------
// QR and solves.
// ---------------------------------------------------------------------------

/// Householder QR is backward stable; on the well-conditioned systems below
/// the forward error stays within `~1e-4` at `f32`.
const QR_BUDGET: f64 = 1e-4;

#[test]
fn qr_factors_track_the_oracle() {
    for &(m, n) in &[(12usize, 5usize), (15, 6), (64, 16)] {
        for &seed in SEEDS {
            let (a64, a32) = pair(m, n, 1.0, seed);
            let qr32 = Qr::<f32>::compute(&a32).unwrap();
            assert!(
                rel_fro(&a64, &qr32.reconstruct()) <= QR_BUDGET,
                "QR reconstruct {m}x{n} seed {seed}"
            );
            let qtq = qr32.q().transpose().matmul(qr32.q()).unwrap();
            assert!(
                qtq.approx_eq(&Matrix::<f32>::identity(n), QR_BUDGET as f32),
                "QᵀQ {m}x{n} seed {seed}"
            );
            // R's strict lower triangle is zero by construction at any width.
            for i in 0..n {
                for j in 0..i {
                    assert_eq!(qr32.r().get(i, j), 0.0);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generator parity.
// ---------------------------------------------------------------------------

#[test]
fn generic_generators_are_roundings_of_the_f64_stream() {
    for &seed in SEEDS {
        let g64 = randn_matrix_in::<f64>(10, 8, 0.7, seed);
        let g32 = randn_matrix_in::<f32>(10, 8, 0.7, seed);
        assert_eq!(g32, g64.cast::<f32>());
        let u64m = uniform_matrix_in::<f64>(10, 8, -0.5, 0.5, seed);
        let u32m = uniform_matrix_in::<f32>(10, 8, -0.5, 0.5, seed);
        assert_eq!(u32m, u64m.cast::<f32>());
        let k64 = kaiming_matrix_in::<f64>(12, 9, 144, seed);
        let k32 = kaiming_matrix_in::<f32>(12, 9, 144, seed);
        assert_eq!(k32, k64.cast::<f32>());
    }
}

#[test]
fn scalar_tolerances_are_width_appropriate() {
    // The per-width tolerances must straddle their machine epsilons: a
    // tolerance below eps can never be met, one above sqrt(eps) stops far
    // too early. Evaluated through a function so the relationship is
    // checked for any future Scalar impl, not folded away as a constant.
    fn straddles<S: Scalar>(upper: f64) -> bool {
        let tol = S::JACOBI_TOL.to_f64();
        let eps = S::EPSILON.to_f64();
        tol > eps && tol < upper
    }
    assert!(straddles::<f32>(1e-3));
    assert!(straddles::<f64>(1e-9));
}
