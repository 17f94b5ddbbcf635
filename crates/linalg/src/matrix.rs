//! Dense, row-major matrix, generic over the [`Scalar`] element type.
//!
//! [`Matrix`] is the workhorse container of the whole workspace: im2col
//! matrixized convolution weights, low-rank factors, SDK mappings and padding
//! matrices are all represented as `Matrix` values. The element type defaults
//! to `f64` (the bit-exact reference precision every golden table and figure
//! is pinned to), so `Matrix` written without parameters everywhere else in
//! the workspace still means exactly what it did before the crate went
//! generic; `Matrix<f32>` is the SIMD-friendly fast path certified against
//! the `f64` oracle by the differential test suite.

use crate::scalar::Scalar;
use crate::{Error, Result};

/// Square tile edge used by the blocked [`Matrix::transpose`]. A 32×32 tile
/// of `f64` is 8 KiB — two of them (source walk + destination walk) sit
/// comfortably in a 32 KiB L1 cache.
const TRANSPOSE_TILE: usize = 32;

/// Working-set target (in elements) for one right-hand-side stripe of the
/// blocked [`Matrix::matmul`]: 32 Ki elements = 256 KiB, sized for the L2
/// cache so a stripe is streamed once per full pass over the output instead
/// of once per output row.
const MATMUL_STRIPE_ELEMS: usize = 32 * 1024;

/// Minimum `k`-stripe depth of the blocked [`Matrix::matmul`]; below this the
/// stripe bookkeeping costs more than the cache reuse saves.
const MATMUL_MIN_STRIPE: usize = 16;

/// A dense matrix of [`Scalar`] values stored in row-major order.
///
/// The type is deliberately simple: it owns a `Vec<S>` and its shape.
/// All operations that can fail due to shape incompatibilities return
/// [`Result`] instead of panicking, so that higher layers can surface
/// configuration errors (e.g. an invalid rank or group count) gracefully.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<S: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `data.len() != rows * cols`
    /// and [`Error::EmptyMatrix`] if either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(Error::EmptyMatrix);
        }
        if data.len() != rows * cols {
            return Err(Error::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyMatrix`] for an empty row list or empty rows and
    /// [`Error::DimensionMismatch`] if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<S>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(Error::EmptyMatrix);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(Error::DimensionMismatch {
                    expected: cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates an all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; zero-sized matrices are never
    /// meaningful in this workspace and indicate a logic error upstream.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![S::ZERO; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: S) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, S::ONE);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[S]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix holds no elements. Always `false` for a
    /// successfully constructed matrix but provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds (internal invariant; all
    /// public entry points validate shapes up front).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> S {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Checked element access.
    pub fn try_get(&self, row: usize, col: usize) -> Result<S> {
        if row >= self.rows {
            return Err(Error::OutOfBounds {
                index: row,
                bound: self.rows,
                what: "row",
            });
        }
        if col >= self.cols {
            return Err(Error::OutOfBounds {
                index: col,
                bound: self.cols,
                what: "column",
            });
        }
        Ok(self.get(row, col))
    }

    /// Sets a single element.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: S) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Returns a copy of row `row`.
    pub fn row(&self, row: usize) -> Result<Vec<S>> {
        if row >= self.rows {
            return Err(Error::OutOfBounds {
                index: row,
                bound: self.rows,
                what: "row",
            });
        }
        Ok(self.data[row * self.cols..(row + 1) * self.cols].to_vec())
    }

    /// Returns a copy of column `col`.
    pub fn col(&self, col: usize) -> Result<Vec<S>> {
        if col >= self.cols {
            return Err(Error::OutOfBounds {
                index: col,
                bound: self.cols,
                what: "column",
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, col)).collect())
    }

    /// Returns the transpose of the matrix.
    ///
    /// The copy is blocked into [`TRANSPOSE_TILE`]-sized square tiles so that
    /// both the row-major read and the column-major write stay within cache
    /// lines; on tall/wide matrices this avoids one cache miss per element.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(TRANSPOSE_TILE) {
            let i1 = (i0 + TRANSPOSE_TILE).min(self.rows);
            for j0 in (0..self.cols).step_by(TRANSPOSE_TILE) {
                let j1 = (j0 + TRANSPOSE_TILE).min(self.cols);
                for i in i0..i1 {
                    let row = &self.data[i * self.cols + j0..i * self.cols + j1];
                    for (j, &x) in row.iter().enumerate() {
                        out.data[(j0 + j) * self.rows + i] = x;
                    }
                }
            }
        }
        out
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Self) -> Result<Self> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous rows
        // of both the output and the right-hand side. The k loop is split into
        // ascending cache-sized stripes so one stripe of `rhs` rows is reused
        // across every output row instead of re-streaming the whole right-hand
        // side per row; since each output element still accumulates its
        // contributions in ascending-k order, the result is bit-identical to
        // the unstriped loop.
        let stripe = (MATMUL_STRIPE_ELEMS / rhs.cols.max(1))
            .max(MATMUL_MIN_STRIPE)
            .min(self.cols);
        for k0 in (0..self.cols).step_by(stripe) {
            let k1 = (k0 + stripe).min(self.cols);
            for i in 0..self.rows {
                let lhs_row = &self.data[i * self.cols..(i + 1) * self.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (k, &a) in lhs_row.iter().enumerate().take(k1).skip(k0) {
                    if a == S::ZERO {
                        continue;
                    }
                    let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                    for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                        *o += a * b;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector multiplication `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[S]) -> Result<Vec<S>> {
        if v.len() != self.cols {
            return Err(Error::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        // Note: `self.cols` is non-zero by construction, so `chunks` is safe.
        let mut out = vec![S::ZERO; self.rows];
        for (out_i, row) in out.iter_mut().zip(self.data.chunks(self.cols)) {
            *out_i = row.iter().zip(v.iter()).map(|(&a, &b)| a * b).sum();
        }
        Ok(out)
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Self) -> Result<Self> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Self) -> Result<Self> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Self) -> Result<Self> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(&self, rhs: &Self, op: &'static str, f: impl Fn(S, S) -> S) -> Result<Self> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: S) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(S) -> S) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Extracts the sub-matrix covering rows `row0..row0+nrows` and columns
    /// `col0..col0+ncols`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the requested block does not fit and
    /// [`Error::EmptyMatrix`] when `nrows` or `ncols` is zero.
    pub fn submatrix(&self, row0: usize, col0: usize, nrows: usize, ncols: usize) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(Error::EmptyMatrix);
        }
        if row0 + nrows > self.rows {
            return Err(Error::OutOfBounds {
                index: row0 + nrows,
                bound: self.rows + 1,
                what: "row range end",
            });
        }
        if col0 + ncols > self.cols {
            return Err(Error::OutOfBounds {
                index: col0 + ncols,
                bound: self.cols + 1,
                what: "column range end",
            });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            let start = (row0 + i) * self.cols + col0;
            data.extend_from_slice(&self.data[start..start + ncols]);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Splits the matrix column-wise into `groups` contiguous blocks.
    ///
    /// When `cols` is not divisible by `groups`, the leading blocks receive
    /// one extra column each (so the block widths differ by at most one).
    /// This is the partition used by the group low-rank decomposition
    /// `W = [W_1, …, W_g]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRank`] if `groups` is zero or exceeds the
    /// number of columns.
    pub fn split_cols(&self, groups: usize) -> Result<Vec<Self>> {
        if groups == 0 || groups > self.cols {
            return Err(Error::InvalidRank {
                requested: groups,
                max: self.cols,
            });
        }
        let base = self.cols / groups;
        let extra = self.cols % groups;
        let mut out = Vec::with_capacity(groups);
        let mut start = 0;
        for g in 0..groups {
            let width = base + usize::from(g < extra);
            out.push(self.submatrix(0, start, self.rows, width)?);
            start += width;
        }
        Ok(out)
    }

    /// Splits the matrix row-wise into `groups` contiguous blocks, mirroring
    /// [`Matrix::split_cols`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRank`] if `groups` is zero or exceeds the
    /// number of rows.
    pub fn split_rows(&self, groups: usize) -> Result<Vec<Self>> {
        if groups == 0 || groups > self.rows {
            return Err(Error::InvalidRank {
                requested: groups,
                max: self.rows,
            });
        }
        let base = self.rows / groups;
        let extra = self.rows % groups;
        let mut out = Vec::with_capacity(groups);
        let mut start = 0;
        for g in 0..groups {
            let height = base + usize::from(g < extra);
            out.push(self.submatrix(start, 0, height, self.cols)?);
            start += height;
        }
        Ok(out)
    }

    /// Horizontally concatenates matrices (same row count).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyMatrix`] for an empty list and
    /// [`Error::ShapeMismatch`] when row counts differ.
    pub fn hstack(blocks: &[Self]) -> Result<Self> {
        if blocks.is_empty() {
            return Err(Error::EmptyMatrix);
        }
        let rows = blocks[0].rows;
        let mut cols = 0;
        for b in blocks {
            if b.rows != rows {
                return Err(Error::ShapeMismatch {
                    left: blocks[0].shape(),
                    right: b.shape(),
                    op: "hstack",
                });
            }
            cols += b.cols;
        }
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for b in blocks {
                data.extend_from_slice(&b.data[i * b.cols..(i + 1) * b.cols]);
            }
        }
        Ok(Self { rows, cols, data })
    }

    /// Vertically concatenates matrices (same column count).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyMatrix`] for an empty list and
    /// [`Error::ShapeMismatch`] when column counts differ.
    pub fn vstack(blocks: &[Self]) -> Result<Self> {
        if blocks.is_empty() {
            return Err(Error::EmptyMatrix);
        }
        let cols = blocks[0].cols;
        let mut rows = 0;
        for b in blocks {
            if b.cols != cols {
                return Err(Error::ShapeMismatch {
                    left: blocks[0].shape(),
                    right: b.shape(),
                    op: "vstack",
                });
            }
            rows += b.rows;
        }
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            data.extend_from_slice(&b.data);
        }
        Ok(Self { rows, cols, data })
    }

    /// Writes `block` into `self` with its top-left corner at `(row0, col0)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the block does not fit.
    pub fn set_block(&mut self, row0: usize, col0: usize, block: &Self) -> Result<()> {
        if row0 + block.rows > self.rows {
            return Err(Error::OutOfBounds {
                index: row0 + block.rows,
                bound: self.rows + 1,
                what: "row range end",
            });
        }
        if col0 + block.cols > self.cols {
            return Err(Error::OutOfBounds {
                index: col0 + block.cols,
                bound: self.cols + 1,
                what: "column range end",
            });
        }
        for i in 0..block.rows {
            let dst = (row0 + i) * self.cols + col0;
            self.data[dst..dst + block.cols]
                .copy_from_slice(&block.data[i * block.cols..(i + 1) * block.cols]);
        }
        Ok(())
    }

    /// Frobenius norm `‖A‖_F = sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> S {
        self.data.iter().map(|&x| x * x).sum::<S>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> S {
        self.data.iter().copied().sum()
    }

    /// Largest absolute element value.
    pub fn max_abs(&self) -> S {
        self.data.iter().fold(S::ZERO, |m, &x| m.max(x.abs()))
    }

    /// Number of elements whose absolute value exceeds `threshold`.
    pub fn count_nonzero(&self, threshold: S) -> usize {
        self.data.iter().filter(|&&x| x.abs() > threshold).count()
    }

    /// Fraction of elements whose absolute value is at most `threshold`
    /// (the sparsity of the matrix).
    pub fn sparsity(&self, threshold: S) -> f64 {
        1.0 - self.count_nonzero(threshold) as f64 / self.len() as f64
    }

    /// Returns `true` if every corresponding pair of elements differs by at
    /// most `tol` in absolute value.
    pub fn approx_eq(&self, other: &Self, tol: S) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// The elements in column-major order: the buffer of the transpose.
    pub(crate) fn to_col_major(&self) -> Vec<S> {
        self.transpose().data
    }

    /// Builds a `rows × cols` matrix from a column-major buffer.
    pub(crate) fn from_col_major(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major buffer length");
        Self {
            rows: cols,
            cols: rows,
            data,
        }
        .transpose()
    }

    /// Converts the matrix to another scalar width, rounding every element
    /// through `f64` (exact when widening, round-to-nearest when narrowing).
    ///
    /// This is the bridge between the `f64` reference pipeline and the `f32`
    /// fast path: `m.cast::<f32>()` is the single-precision image of `m`,
    /// and `m32.cast::<f64>()` widens results back for reporting.
    pub fn cast<T: Scalar>(&self) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| T::from_f64(x.to_f64())).collect(),
        }
    }

    /// Trace (sum of diagonal elements) of a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] for non-square matrices.
    pub fn trace(&self) -> Result<S> {
        if !self.is_square() {
            return Err(Error::ShapeMismatch {
                left: self.shape(),
                right: self.shape(),
                op: "trace",
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).sum())
    }
}

impl<S: Scalar> core::ops::Add for &Matrix<S> {
    type Output = Result<Matrix<S>>;

    fn add(self, rhs: &Matrix<S>) -> Self::Output {
        Matrix::add(self, rhs)
    }
}

impl<S: Scalar> core::ops::Sub for &Matrix<S> {
    type Output = Result<Matrix<S>>;

    fn sub(self, rhs: &Matrix<S>) -> Self::Output {
        Matrix::sub(self, rhs)
    }
}

impl<S: Scalar> core::ops::Mul for &Matrix<S> {
    type Output = Result<Matrix<S>>;

    fn mul(self, rhs: &Matrix<S>) -> Self::Output {
        self.matmul(rhs)
    }
}

impl<S: Scalar> core::fmt::Display for Matrix<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:>10.4}", self.get(i, j))?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Matrix::<f64>::from_vec(0, 2, vec![]),
            Err(Error::EmptyMatrix)
        ));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }));
    }

    #[test]
    fn shape_accessors() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert!(!m.is_square());
        assert!(Matrix::<f64>::identity(3).is_square());
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = Matrix::<f64>::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = sample();
        let err = a.matmul(&sample()).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { op: "matmul", .. }));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let v = vec![1.0, 0.5, -1.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let m = sample();
        let i3 = Matrix::identity(3);
        let i2 = Matrix::identity(2);
        assert!(m.matmul(&i3).unwrap().approx_eq(&m, 1e-12));
        assert!(i2.matmul(&m).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn elementwise_ops() {
        let m = sample();
        let sum = m.add(&m).unwrap();
        assert_eq!(sum.get(1, 2), 12.0);
        let diff = m.sub(&m).unwrap();
        assert_eq!(diff.frobenius_norm(), 0.0);
        let had = m.hadamard(&m).unwrap();
        assert_eq!(had.get(1, 0), 16.0);
        let scaled = m.scale(2.0);
        assert_eq!(scaled.get(0, 1), 4.0);
        let mapped = m.map(|x| x - 1.0);
        assert_eq!(mapped.get(0, 0), 0.0);
    }

    #[test]
    fn submatrix_and_set_block() {
        let m = sample();
        let s = m.submatrix(0, 1, 2, 2).unwrap();
        assert_eq!(
            s,
            Matrix::from_rows(&[vec![2.0, 3.0], vec![5.0, 6.0]]).unwrap()
        );
        let mut z = Matrix::zeros(3, 3);
        z.set_block(1, 1, &s).unwrap();
        assert_eq!(z.get(2, 2), 6.0);
        assert_eq!(z.get(0, 0), 0.0);
        assert!(z.set_block(2, 2, &s).is_err());
        assert!(m.submatrix(0, 2, 2, 2).is_err());
    }

    #[test]
    fn split_cols_partitions_evenly_and_unevenly() {
        let m = Matrix::from_fn(2, 6, |i, j| (i * 6 + j) as f64);
        let parts = m.split_cols(3).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.shape() == (2, 2)));
        assert_eq!(Matrix::hstack(&parts).unwrap(), m);

        let m = Matrix::from_fn(2, 7, |i, j| (i * 7 + j) as f64);
        let parts = m.split_cols(3).unwrap();
        assert_eq!(parts[0].cols(), 3);
        assert_eq!(parts[1].cols(), 2);
        assert_eq!(parts[2].cols(), 2);
        assert_eq!(Matrix::hstack(&parts).unwrap(), m);
    }

    #[test]
    fn split_rows_is_inverse_of_vstack() {
        let m = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let parts = m.split_rows(2).unwrap();
        assert_eq!(parts[0].rows(), 3);
        assert_eq!(parts[1].rows(), 2);
        assert_eq!(Matrix::vstack(&parts).unwrap(), m);
    }

    #[test]
    fn split_rejects_bad_group_counts() {
        let m = sample();
        assert!(m.split_cols(0).is_err());
        assert!(m.split_cols(4).is_err());
        assert!(m.split_rows(2).is_ok());
        assert!(m.split_rows(3).is_err());
    }

    #[test]
    fn stack_shape_checks() {
        let a = Matrix::<f64>::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(Matrix::hstack(&[a.clone(), b.clone()]).is_err());
        assert!(Matrix::vstack(&[a, b]).is_ok());
        assert!(Matrix::<f64>::hstack(&[]).is_err());
    }

    #[test]
    fn norms_and_stats() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.sum(), 7.0);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.count_nonzero(0.0), 2);
        assert!((m.sparsity(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(m.trace().unwrap(), 7.0);
        assert!(sample().trace().is_err());
    }

    #[test]
    fn operator_overloads_delegate() {
        let m = sample();
        assert_eq!((&m + &m).unwrap(), m.scale(2.0));
        assert_eq!((&m - &m).unwrap(), Matrix::zeros(2, 3));
        let t = m.transpose();
        assert_eq!((&m * &t).unwrap().shape(), (2, 2));
    }

    #[test]
    fn display_is_bounded() {
        let big = Matrix::<f64>::zeros(20, 20);
        let s = format!("{big}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.lines().count() < 15);
    }

    #[test]
    fn row_and_col_extraction() {
        let m = sample();
        assert_eq!(m.row(1).unwrap(), vec![4.0, 5.0, 6.0]);
        assert_eq!(m.col(2).unwrap(), vec![3.0, 6.0]);
        assert!(m.row(2).is_err());
        assert!(m.col(3).is_err());
        assert!(m.try_get(1, 2).is_ok());
        assert!(m.try_get(2, 0).is_err());
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace().unwrap(), 6.0);
        assert_eq!(d.count_nonzero(0.0), 3);
    }
}
