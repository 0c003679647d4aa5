//! Row-major dense matrices: the `X` and `Y` operands of SpMM/SDDMM.
//!
//! Row-major layout matches the access pattern the paper's kernels
//! assume: a warp reads `K` consecutive elements of one row of `X`, so a
//! row is the unit of data movement the simulator accounts for.

use crate::scalar::Scalar;

/// A dense matrix stored row-major in one contiguous allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// An `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length must be nrows * ncols"
        );
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (the `K` of SpMM/SDDMM).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `i` as a slice of length `ncols`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[i * self.ncols + j]
    }

    /// Mutable element at `(i, j)`.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut T {
        &mut self.data[i * self.ncols + j]
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                *out.get_mut(j, i) = self.get(i, j);
            }
        }
        out
    }

    /// Largest absolute element difference against `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.nrows, other.nrows, "row count mismatch");
        assert_eq!(self.ncols, other.ncols, "column count mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| {
                let x = v.to_f64();
                x * x
            })
            .sum::<f64>()
            .sqrt()
    }

    /// `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::<f32>::zeros(2, 3);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.data().len(), 6);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn row_mut_and_fill() {
        let mut m = DenseMatrix::<f64>::zeros(2, 2);
        m.row_mut(0)[1] = 5.0;
        assert_eq!(m.get(0, 1), 5.0);
        m.fill(1.0);
        assert!(m.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.get(1, 2), m.get(2, 1));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn max_abs_diff_and_norm() {
        let a = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut b = a.clone();
        *b.get_mut(1, 1) += 0.5;
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
        let n = DenseMatrix::from_vec(1, 2, vec![3.0f64, 4.0]);
        assert!((n.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = DenseMatrix::<f32>::zeros(1, 2);
        assert!(m.all_finite());
        *m.get_mut(0, 0) = f32::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    #[should_panic(expected = "nrows * ncols")]
    fn from_vec_checks_len() {
        let _ = DenseMatrix::from_vec(2, 2, vec![0.0f32; 3]);
    }
}
