//! The scalar abstraction underneath every kernel in this crate.
//!
//! [`Scalar`] is the contract a floating-point element type must satisfy for
//! [`Matrix`](crate::Matrix), the Jacobi SVD, QR and the Kronecker helpers
//! to compile for it. Exactly two implementations
//! exist — [`f64`] (the bit-exact reference the experiment goldens are pinned
//! to) and [`f32`] (the half-width fast path) — and the differential test
//! harness (`tests/differential.rs`) certifies every `f32` kernel against the
//! `f64` oracle under per-kernel error budgets.
//!
//! The trait deliberately exposes its convergence *tolerance* as an
//! associated constant ([`Scalar::JACOBI_TOL`]): an iterative kernel
//! converges to a residual that scales with the unit roundoff of its element
//! type, so the threshold must widen with the type. The `f64` constant is
//! byte-for-byte the value the kernel used before the crate went generic,
//! which is what keeps the `Matrix<f64>` path bit-identical to the
//! pre-generic implementation.

use core::fmt::{Debug, Display};
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point element type the linear-algebra kernels are generic over.
///
/// Implemented for `f32` and `f64` only; the arithmetic supertraits mirror
/// what the kernels actually do, and the associated constants pin the
/// per-width convergence tolerance.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Two, used by the Jacobi rotation and Householder reflection formulas.
    const TWO: Self;
    /// Machine epsilon of the type.
    const EPSILON: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// Archimedes' constant at this width (Box–Muller).
    const PI: Self;
    /// Relative off-diagonal tolerance of the one-sided Jacobi SVD.
    const JACOBI_TOL: Self;
    /// Short lowercase type name (`"f32"` / `"f64"`), used to tag benchmark
    /// records and test diagnostics.
    const NAME: &'static str;

    /// Rounds an `f64` into this type (identity for `f64`).
    fn from_f64(x: f64) -> Self;
    /// Widens this value to `f64` (identity for `f64`).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Sign of the value (`±1`, propagating the IEEE sign of zero).
    fn signum(self) -> Self;
    /// Fused multiply-add `self * a + b`.
    ///
    /// No current kernel uses it (the `f64` reference must keep its exact
    /// historical rounding), but SIMD-friendly backends building on this
    /// trait are expected to.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// IEEE maximum (NaN-ignoring, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum (NaN-ignoring, like `f64::min`).
    fn min(self, other: Self) -> Self;

    /// Computes the three Gram sums `(Σ up², Σ uq², Σ up·uq)` of one Jacobi
    /// column pair in a single pass — the inner reduction the one-sided
    /// Jacobi SVD spends most of its time in.
    ///
    /// The default implementation is the strict serial accumulation the
    /// `f64` reference path is pinned to byte-for-byte. A width without a
    /// bit-exactness contract may override it with a reassociated reduction:
    /// `f32` uses eight independent accumulator lanes per sum, which breaks
    /// the loop-carried addition dependency and lets the compiler vectorize
    /// the pass — the bulk of the `f32` SVD speedup. The differential test
    /// suite bounds the reassociation error together with everything else.
    fn jacobi_gram(up: &[Self], uq: &[Self]) -> (Self, Self, Self) {
        let mut alpha = Self::ZERO;
        let mut beta = Self::ZERO;
        let mut gamma = Self::ZERO;
        for (&up_i, &uq_i) in up.iter().zip(uq.iter()) {
            alpha += up_i * up_i;
            beta += uq_i * uq_i;
            gamma += up_i * uq_i;
        }
        (alpha, beta, gamma)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const TWO: Self = 2.0;
    const EPSILON: Self = f64::EPSILON;
    const MIN_POSITIVE: Self = f64::MIN_POSITIVE;
    const PI: Self = core::f64::consts::PI;
    const JACOBI_TOL: Self = 1e-12;
    const NAME: &'static str = "f64";

    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn signum(self) -> Self {
        f64::signum(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const TWO: Self = 2.0;
    const EPSILON: Self = f32::EPSILON;
    const MIN_POSITIVE: Self = f32::MIN_POSITIVE;
    const PI: Self = core::f32::consts::PI;
    // eps_f32 ≈ 1.19e-7: stopping the Jacobi sweeps around 10·eps leaves the
    // off-diagonal mass at rounding level without burning sweeps that cannot
    // improve a single-precision result.
    const JACOBI_TOL: Self = 1e-6;
    const NAME: &'static str = "f32";

    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn signum(self) -> Self {
        f32::signum(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }

    fn jacobi_gram(up: &[Self], uq: &[Self]) -> (Self, Self, Self) {
        // Eight independent lanes per sum: one AVX register's worth of f32,
        // letting the three reductions run at streaming rate instead of one
        // element per fp-add latency. Reassociation changes the rounding —
        // admissible for f32, whose contract is the differential budget, not
        // bit-exactness.
        const LANES: usize = 8;
        let mut alpha = [0.0f32; LANES];
        let mut beta = [0.0f32; LANES];
        let mut gamma = [0.0f32; LANES];
        let mut up_chunks = up.chunks_exact(LANES);
        let mut uq_chunks = uq.chunks_exact(LANES);
        for (up_c, uq_c) in up_chunks.by_ref().zip(uq_chunks.by_ref()) {
            let u: [f32; LANES] = up_c.try_into().expect("chunks_exact yields full chunks");
            let v: [f32; LANES] = uq_c.try_into().expect("chunks_exact yields full chunks");
            if cfg!(target_feature = "fma") {
                // With hardware FMA (x86-64-v3 and newer — what
                // `.cargo/config.toml` targets) each lane is one fused op.
                for lane in 0..LANES {
                    alpha[lane] = u[lane].mul_add(u[lane], alpha[lane]);
                    beta[lane] = v[lane].mul_add(v[lane], beta[lane]);
                    gamma[lane] = u[lane].mul_add(v[lane], gamma[lane]);
                }
            } else {
                // Without the feature, `mul_add` lowers to a libm call that
                // is far slower than separate multiply + add; keep the
                // two-op form so baseline builds stay fast.
                for lane in 0..LANES {
                    alpha[lane] += u[lane] * u[lane];
                    beta[lane] += v[lane] * v[lane];
                    gamma[lane] += u[lane] * v[lane];
                }
            }
        }
        let (mut a, mut b, mut g) = (0.0f32, 0.0f32, 0.0f32);
        for lane in 0..LANES {
            a += alpha[lane];
            b += beta[lane];
            g += gamma[lane];
        }
        for (&u, &v) in up_chunks.remainder().iter().zip(uq_chunks.remainder()) {
            a += u * u;
            b += v * v;
            g += u * v;
        }
        (a, b, g)
    }
}

/// The numeric width an SVD-bound pipeline runs its decomposition kernels in.
///
/// `F64` is the bit-exact reference every golden table and figure is pinned
/// to; `F32` runs the Jacobi SVDs (the dominant cost of the experiment
/// sweeps) in single precision and widens the factors back to `f64` for
/// reporting, trading a documented reconstruction-error budget (see the
/// differential test suite) for throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Double precision everywhere — the reference path.
    #[default]
    F64,
    /// Single-precision decomposition kernels, `f64` reporting.
    F32,
}

impl Precision {
    /// The [`Scalar::NAME`]-style tag of this precision (`"f64"` / `"f32"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

impl Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_constants_match_the_pre_generic_kernels() {
        // These values are part of the bit-exactness contract: the generic
        // kernels instantiated at f64 must behave exactly like the concrete
        // implementation they replaced.
        assert_eq!(<f64 as Scalar>::JACOBI_TOL, 1e-12);
        assert_eq!(<f64 as Scalar>::EPSILON, f64::EPSILON);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(<f64 as Scalar>::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(<f32 as Scalar>::from_f64(1.5).to_f64(), 1.5);
        // Rounding to f32 loses the low mantissa bits, widening is exact.
        let x = 0.1_f64;
        assert_ne!(<f32 as Scalar>::from_f64(x).to_f64(), x);
        assert_eq!(<f32 as Scalar>::from_f64(x), 0.1_f32);
    }

    #[test]
    fn names_tag_the_widths() {
        assert_eq!(<f32 as Scalar>::NAME, "f32");
        assert_eq!(<f64 as Scalar>::NAME, "f64");
        assert_eq!(Precision::F32.name(), "f32");
        assert_eq!(Precision::default(), Precision::F64);
        assert_eq!(format!("{}", Precision::F32), "f32");
    }
}
