//! Owned, row-major dense matrix.

use crate::{Scalar, ShapeError};

/// An owned, row-major dense matrix.
///
/// Element `(i, j)` lives at `data[i * cols + j]`. Vectors are matrices with
/// one column (`n×1`) or one row (`1×n`); the paper's test expressions mix
/// vectors and matrices freely and this uniform representation keeps the
/// kernel dispatch honest (a framework that "knew" about vectors would
/// already be exploiting structure).
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![T::ZERO; rows * cols] }
    }

    /// A `rows × cols` matrix with every element equal to `v`.
    pub fn filled(rows: usize, cols: usize, v: T) -> Self {
        Self { rows, cols, data: vec![v; rows * cols] }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build a matrix from a generator function `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Checked variant of [`Matrix::from_vec`].
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<T>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Build a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "from_rows: row {i} has length {} != {c}", row.len());
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// A column vector (`n × 1`) from a slice.
    pub fn col_vector(v: &[T]) -> Self {
        Self { rows: v.len(), cols: 1, data: v.to_vec() }
    }

    /// A row vector (`1 × n`) from a slice.
    pub fn row_vector(v: &[T]) -> Self {
        Self { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has zero elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` for `n×1` or `1×n` shapes (including `1×1`).
    #[inline(always)]
    pub fn is_vector(&self) -> bool {
        self.rows == 1 || self.cols == 1
    }

    /// `true` for square shapes.
    #[inline(always)]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the backing row-major storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<T> {
        assert!(j < self.cols, "col index {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Borrowed strided iterator over column `j` — no allocation, unlike
    /// [`Matrix::col`]. The workhorse of the column-slicing hot paths
    /// (`B[:,j]` nodes in the graph executor and evaluators).
    pub fn col_iter(&self, j: usize) -> ColIter<'_, T> {
        assert!(j < self.cols, "col index {j} out of bounds ({} cols)", self.cols);
        let data = if self.rows == 0 { &self.data[..] } else { &self.data[j..] };
        ColIter { data, step: self.cols, remaining: self.rows }
    }

    /// Column `j` as an owned `rows×1` matrix, built in a single pass
    /// (where `Matrix::col_vector(&m.col(j))` would allocate twice).
    pub fn col_matrix(&self, j: usize) -> Matrix<T> {
        Matrix { rows: self.rows, cols: 1, data: self.col_iter(j).collect() }
    }

    /// Element accessor with bounds check in debug builds.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element setter with bounds check in debug builds.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Explicit out-of-place transpose (an O(n²) data movement — the cost the
    /// frameworks avoid by folding transposition into GEMM flags).
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// Copy of the rectangle `[r0, r1) × [c0, c1)`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Self {
        assert!(
            r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols,
            "submatrix [{r0},{r1})x[{c0},{c1}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let mut out = Self::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Write `block` into the rectangle whose top-left corner is `(r0, c0)`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix<T>) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_submatrix: block {}x{} at ({r0},{c0}) exceeds {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for i in 0..block.rows {
            let cols = self.cols;
            self.data[(r0 + i) * cols + c0..(r0 + i) * cols + c0 + block.cols]
                .copy_from_slice(block.row(i));
        }
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vcat(&self, other: &Matrix<T>) -> Self {
        assert_eq!(self.cols, other.cols, "vcat: column counts differ");
        let mut out = Self::zeros(self.rows + other.rows, self.cols);
        out.data[..self.data.len()].copy_from_slice(&self.data);
        out.data[self.data.len()..].copy_from_slice(&other.data);
        out
    }

    /// Horizontal concatenation `[self, other]`.
    pub fn hcat(&self, other: &Matrix<T>) -> Self {
        assert_eq!(self.rows, other.rows, "hcat: row counts differ");
        let mut out = Self::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            let c = self.cols;
            out.row_mut(i)[c..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Split into `parts` equal-width column blocks — the inverse of
    /// repeated [`Matrix::hcat`] over same-shape operands, used to unstack
    /// a multi-RHS product `[C₀ | C₁ | …]` back into per-request results.
    ///
    /// # Panics
    /// When `parts` is zero or does not divide the column count.
    pub fn split_cols(&self, parts: usize) -> Vec<Matrix<T>> {
        assert!(parts > 0, "split_cols: parts must be positive");
        assert_eq!(
            self.cols % parts,
            0,
            "split_cols: {} columns not divisible by {parts}",
            self.cols
        );
        let w = self.cols / parts;
        (0..parts)
            .map(|p| {
                let mut out = Self::zeros(self.rows, w);
                for i in 0..self.rows {
                    out.row_mut(i).copy_from_slice(&self.row(i)[p * w..(p + 1) * w]);
                }
                out
            })
            .collect()
    }

    /// `2×2` block-diagonal assembly `diag(a, b)`; off-diagonal blocks zero.
    ///
    /// This is the constructor used by the blocked-matrix experiment
    /// (Table V, Eq. 11): the caller explicitly materializes the big matrix so
    /// the construction is visible to the framework's computational graph.
    pub fn block_diag(a: &Matrix<T>, b: &Matrix<T>) -> Self {
        let mut out = Self::zeros(a.rows + b.rows, a.cols + b.cols);
        out.set_submatrix(0, 0, a);
        out.set_submatrix(a.rows, a.cols, b);
        out
    }

    /// Elementwise map.
    pub fn map(&self, mut f: impl FnMut(T) -> T) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x.to_f64() * x.to_f64()).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.to_f64().abs()).fold(0.0, f64::max)
    }

    /// `true` when all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Relative Frobenius-norm distance to `other`, `‖a−b‖ / max(1, ‖b‖)`.
    pub fn rel_dist(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "rel_dist: shape mismatch");
        let mut num = 0.0f64;
        for (a, b) in self.data.iter().zip(&other.data) {
            let d = a.to_f64() - b.to_f64();
            num += d * d;
        }
        num.sqrt() / other.fro_norm().max(1.0)
    }

    /// `true` when `self` and `other` have the same shape and the same
    /// element bit patterns — identity of stored values, unlike `==`,
    /// which equates `-0.0` with `0.0` and never equates NaNs.
    pub fn bitwise_eq(&self, other: &Matrix<T>) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| a.to_bits_u64() == b.to_bits_u64())
    }

    /// `true` when `self` and `other` agree within relative tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix<T>, tol: f64) -> bool {
        self.shape() == other.shape() && self.rel_dist(other) <= tol
    }

    /// Sum of the two matrices (O(n²) helper; the timed kernel lives in
    /// `laab-kernels`).
    pub fn add(&self, other: &Matrix<T>) -> Self {
        assert_eq!(self.shape(), other.shape(), "add: shape mismatch");
        let mut out = self.clone();
        for (o, b) in out.data.iter_mut().zip(&other.data) {
            *o += *b;
        }
        out
    }

    /// Difference of the two matrices.
    pub fn sub(&self, other: &Matrix<T>) -> Self {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let mut out = self.clone();
        for (o, b) in out.data.iter_mut().zip(&other.data) {
            *o -= *b;
        }
        out
    }

    /// The matrix scaled by `alpha`.
    pub fn scale(&self, alpha: T) -> Self {
        self.map(|x| x * alpha)
    }

    /// Convert every element to `f64` (test helper).
    pub fn to_f64(&self) -> Matrix<f64> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x.to_f64()).collect(),
        }
    }
}

/// Borrowed strided iterator over one matrix column (see
/// [`Matrix::col_iter`]).
#[derive(Clone)]
pub struct ColIter<'a, T: Scalar> {
    /// Remaining storage, starting at the next column element.
    data: &'a [T],
    /// Row stride (the matrix's column count).
    step: usize,
    remaining: usize,
}

impl<T: Scalar> Iterator for ColIter<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.remaining == 0 {
            return None;
        }
        let v = self.data[0];
        self.remaining -= 1;
        if self.remaining > 0 {
            self.data = &self.data[self.step..];
        }
        Some(v)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T: Scalar> ExactSizeIterator for ColIter<'_, T> {}

/// Elementwise in-place sum `self += other` — the buffer-reuse form of
/// [`Matrix::add`] for uniquely-owned intermediates.
impl<T: Scalar> std::ops::AddAssign<&Matrix<T>> for Matrix<T> {
    fn add_assign(&mut self, other: &Matrix<T>) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (o, b) in self.data.iter_mut().zip(&other.data) {
            *o += *b;
        }
    }
}

/// Elementwise in-place difference `self -= other`.
impl<T: Scalar> std::ops::SubAssign<&Matrix<T>> for Matrix<T> {
    fn sub_assign(&mut self, other: &Matrix<T>) {
        assert_eq!(self.shape(), other.shape(), "sub_assign: shape mismatch");
        for (o, b) in self.data.iter_mut().zip(&other.data) {
            *o -= *b;
        }
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        let c = self.cols;
        &mut self.data[i * c + j]
    }
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            if self.cols > show_c {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_r {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_eq_compares_bits_not_values() {
        let a = Matrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64);
        assert!(a.bitwise_eq(&a.clone()));
        let mut z = a.clone();
        z[(0, 0)] = -0.0;
        assert_eq!(z, a, "float == equates the signed zeros");
        assert!(!z.bitwise_eq(&a));
        let (mut n1, mut n2) = (a.clone(), a.clone());
        n1[(1, 1)] = f64::from_bits(0x7ff8_0000_0000_0001);
        n2[(1, 1)] = f64::from_bits(0x7ff8_0000_0000_0002);
        assert!(n1.bitwise_eq(&n1.clone()), "a NaN payload equals itself bitwise");
        assert!(!n1.bitwise_eq(&n2));
        assert!(!a.bitwise_eq(&Matrix::zeros(1, 4)), "shape participates");
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn col_iter_matches_col() {
        let m = Matrix::<f64>::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        for j in 0..3 {
            let it = m.col_iter(j);
            assert_eq!(it.len(), 5);
            assert_eq!(it.collect::<Vec<_>>(), m.col(j));
            assert_eq!(m.col_matrix(j).as_slice(), &m.col(j)[..]);
            assert_eq!(m.col_matrix(j).shape(), (5, 1));
        }
        // Single-row matrices must not index past the backing storage.
        let row = Matrix::<f64>::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(row.col_iter(2).collect::<Vec<_>>(), vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_iter_rejects_bad_index() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m.col_iter(2);
    }

    #[test]
    fn add_assign_and_sub_assign_match_out_of_place() {
        let a = Matrix::<f64>::from_fn(3, 4, |i, j| (i + j) as f64);
        let b = Matrix::<f64>::from_fn(3, 4, |i, j| (i * j) as f64 + 1.0);
        let mut sum = a.clone();
        sum += &b;
        assert_eq!(sum, a.add(&b));
        let mut diff = a.clone();
        diff -= &b;
        assert_eq!(diff, a.sub(&b));
    }

    #[test]
    fn identity_is_identity() {
        let i = Matrix::<f32>::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::<f64>::from_fn(37, 53, |i, j| (i * 100 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (53, 37));
        assert_eq!(t[(5, 7)], m[(7, 5)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn submatrix_and_set() {
        let m = Matrix::<f64>::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let s = m.submatrix(1, 4, 2, 5);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        let mut z = Matrix::<f64>::zeros(6, 6);
        z.set_submatrix(1, 2, &s);
        assert_eq!(z[(1, 2)], m[(1, 2)]);
        assert_eq!(z[(3, 4)], m[(3, 4)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn concat_shapes_and_content() {
        let a = Matrix::<f32>::filled(2, 3, 1.0);
        let b = Matrix::<f32>::filled(4, 3, 2.0);
        let v = a.vcat(&b);
        assert_eq!(v.shape(), (6, 3));
        assert_eq!(v[(0, 0)], 1.0);
        assert_eq!(v[(5, 2)], 2.0);

        let c = Matrix::<f32>::filled(2, 5, 3.0);
        let h = a.hcat(&c);
        assert_eq!(h.shape(), (2, 8));
        assert_eq!(h[(1, 2)], 1.0);
        assert_eq!(h[(1, 3)], 3.0);
    }

    #[test]
    fn block_diag_layout() {
        let a = Matrix::<f64>::filled(2, 2, 1.0);
        let b = Matrix::<f64>::filled(3, 3, 2.0);
        let d = Matrix::block_diag(&a, &b);
        assert_eq!(d.shape(), (5, 5));
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(4, 4)], 2.0);
        assert_eq!(d[(0, 4)], 0.0);
        assert_eq!(d[(4, 0)], 0.0);
    }

    #[test]
    fn norms_and_comparison() {
        let a = Matrix::<f64>::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        let mut b = a.clone();
        b[(0, 0)] += 1e-13;
        assert!(a.approx_eq(&b, 1e-10));
        assert!(!a.approx_eq(&b, 1e-16));
    }

    #[test]
    fn arithmetic_helpers() {
        let a = Matrix::<f64>::filled(2, 2, 2.0);
        let b = Matrix::<f64>::filled(2, 2, 3.0);
        assert_eq!(a.add(&b)[(0, 0)], 5.0);
        assert_eq!(b.sub(&a)[(1, 1)], 1.0);
        assert_eq!(a.scale(0.5)[(0, 1)], 1.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::<f32>::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn try_from_vec_reports_error() {
        assert!(Matrix::<f32>::try_from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::<f32>::try_from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn vector_constructors() {
        let c = Matrix::<f64>::col_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
        assert!(c.is_vector());
        let r = Matrix::<f64>::row_vector(&[1.0, 2.0]);
        assert_eq!(r.shape(), (1, 2));
        assert!(r.is_vector());
        assert!(!Matrix::<f64>::zeros(2, 2).is_vector());
    }
}
