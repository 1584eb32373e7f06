//! Dense column-major matrix type.
//!
//! Column-major layout is chosen deliberately: the streaming PCA update and
//! the one-sided Jacobi SVD both operate on whole columns (eigenvectors), so
//! keeping columns contiguous makes the hot loops cache-friendly and lets us
//! hand out `&[f64]` column slices without copying.

use crate::vecops;
use crate::{LinalgError, Result};

/// A dense `rows × cols` matrix of `f64`, stored column-major.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl std::fmt::Debug for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for r in 0..show_rows {
            write!(f, "  ")?;
            for c in 0..show_cols {
                write!(f, "{:>11.4e} ", self[(r, c)])?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Mat {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            for r in 0..rows {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Builds a matrix from column-major data. Panics if the length is wrong.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major data length mismatch");
        Mat { rows, cols, data }
    }

    /// Reshapes `self` to `rows × cols`, zero-filled, reusing the existing
    /// allocation whenever its capacity suffices.
    ///
    /// This is the workhorse of the preallocated-workspace path: after the
    /// first call at a given size, subsequent calls perform no heap
    /// allocation.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes `self` to the `n × n` identity, reusing the allocation.
    pub fn reset_identity(&mut self, n: usize) {
        self.reset_zeroed(n, n);
        for i in 0..n {
            self.data[i * n + i] = 1.0;
        }
    }

    /// Makes `self` an exact copy of `other` (shape and contents), reusing
    /// the existing allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, other: &Mat) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow column `c` as a contiguous slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        debug_assert!(c < self.cols);
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutably borrow column `c`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        debug_assert!(c < self.cols);
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutably borrow two distinct columns at once (needed by Jacobi sweeps).
    ///
    /// Panics if `a == b`.
    pub fn two_cols_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "two_cols_mut requires distinct columns");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (left, right) = self.data.split_at_mut(hi * self.rows);
        let lo_col = &mut left[lo * self.rows..(lo + 1) * self.rows];
        let hi_col = &mut right[..self.rows];
        if a < b {
            (lo_col, hi_col)
        } else {
            (hi_col, lo_col)
        }
    }

    /// Copy row `r` into a new vector (rows are strided in this layout).
    pub fn row(&self, r: usize) -> Vec<f64> {
        (0..self.cols).map(|c| self[(r, c)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for c in 0..self.cols {
            for r in 0..self.rows {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                got: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (c, &xc) in x.iter().enumerate() {
            if xc != 0.0 {
                vecops::axpy(xc, self.col(c), &mut y);
            }
        }
        Ok(y)
    }

    /// Transposed matrix–vector product `selfᵀ * x`, i.e. the vector of
    /// column inner products. Cache-friendly in this layout.
    pub fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.rows),
                got: (x.len(), 1),
            });
        }
        Ok((0..self.cols)
            .map(|c| vecops::dot(self.col(c), x))
            .collect())
    }

    /// Matrix product `self * other` using the blocked serial kernel.
    pub fn matmul(&self, other: &Mat) -> Result<Mat> {
        crate::gemm::gemm(self, other)
    }

    /// In-place scalar multiply (dispatched SIMD over the whole buffer).
    pub fn scale_mut(&mut self, s: f64) {
        vecops::scale(&mut self.data, s);
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &Mat) -> Result<Mat> {
        self.check_same_shape(other)?;
        let mut m = self.clone();
        for (a, b) in m.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
        Ok(m)
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        vecops::norm_sq(&self.data).sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Extracts the sub-matrix consisting of columns `[lo, hi)`.
    pub fn columns_range(&self, lo: usize, hi: usize) -> Mat {
        assert!(lo <= hi && hi <= self.cols, "column range out of bounds");
        Mat {
            rows: self.rows,
            cols: hi - lo,
            data: self.data[lo * self.rows..hi * self.rows].to_vec(),
        }
    }

    /// Gram matrix `selfᵀ · self` (`cols × cols`), the thin-SVD workhorse.
    pub fn gram(&self) -> Mat {
        let n = self.cols;
        let mut g = Mat::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let d = vecops::dot(self.col(i), self.col(j));
                g[(i, j)] = d;
                g[(j, i)] = d;
            }
        }
        g
    }

    fn check_same_shape(&self, other: &Mat) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                got: other.shape(),
            });
        }
        Ok(())
    }
}

impl Default for Mat {
    /// An empty `0 × 0` matrix — the natural seed for workspace buffers
    /// that grow on first use.
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[c * self.rows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[c * self.rows + r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mat {
        Mat::from_fn(3, 2, |r, c| (r * 10 + c) as f64)
    }

    #[test]
    fn index_round_trip() {
        let m = sample();
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.shape(), (3, 2));
    }

    #[test]
    fn columns_are_contiguous() {
        let m = sample();
        assert_eq!(m.col(0), &[0.0, 10.0, 20.0]);
        assert_eq!(m.col(1), &[1.0, 11.0, 21.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = sample();
        let y = m.matvec(&[1.0, 2.0]).unwrap();
        assert_eq!(y, vec![2.0, 32.0, 62.0]);
    }

    #[test]
    fn tr_matvec_matches_transpose_matvec() {
        let m = sample();
        let x = [1.0, -1.0, 0.5];
        let a = m.tr_matvec(&x).unwrap();
        let b = m.transpose().matvec(&x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_shape_error() {
        let m = sample();
        assert!(matches!(
            m.matvec(&[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn two_cols_mut_returns_requested_order() {
        let mut m = sample();
        {
            let (a, b) = m.two_cols_mut(1, 0);
            assert_eq!(a, &[1.0, 11.0, 21.0]);
            assert_eq!(b, &[0.0, 10.0, 20.0]);
            a[0] = 99.0;
        }
        assert_eq!(m[(0, 1)], 99.0);
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let m = sample();
        let g = m.gram();
        assert_eq!(g.shape(), (2, 2));
        assert!((g[(0, 1)] - g[(1, 0)]).abs() < 1e-12);
        assert!(g[(0, 0)] >= 0.0 && g[(1, 1)] >= 0.0);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = Mat::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x).unwrap(), x.to_vec());
    }

    #[test]
    fn columns_range_slices() {
        let m = Mat::from_fn(2, 4, |r, c| (r + 10 * c) as f64);
        let s = m.columns_range(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.col(0), m.col(1));
        assert_eq!(s.col(1), m.col(2));
    }

    #[test]
    fn fro_norm_of_identity() {
        assert!((Mat::identity(9).fro_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroed_reuses_allocation() {
        let mut m = Mat::zeros(10, 10);
        m[(3, 3)] = 7.0;
        let cap = m.data.capacity();
        m.reset_zeroed(8, 4);
        assert_eq!(m.shape(), (8, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(
            m.data.capacity(),
            cap,
            "reset within capacity must not realloc"
        );
    }

    #[test]
    fn reset_identity_matches_identity() {
        let mut m = Mat::zeros(6, 6);
        m.reset_identity(4);
        assert_eq!(m, Mat::identity(4));
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = sample();
        let mut dst = Mat::zeros(9, 9);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn default_is_empty() {
        let m = Mat::default();
        assert_eq!(m.shape(), (0, 0));
    }
}
