//! Small dense-matrix kernel.
//!
//! The continuous-time DUT models need a handful of linear-algebra
//! operations on matrices of order ≤ 8 (2nd-order filters plus augmented
//! ZOH blocks). Owning a tiny row-major matrix type keeps the workspace
//! dependency-free and the numerics auditable.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub(crate) fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self[(r, c)] * v[c]).sum())
            .collect()
    }

    /// Scales every element.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// The maximum absolute row sum (∞-norm).
    pub(crate) fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self[(r, c)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Extracts the sub-matrix `[r0..r0+h, c0..c0+w]`.
    ///
    /// # Panics
    ///
    /// Panics when the block exceeds the matrix bounds.
    pub(crate) fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of range"
        );
        let mut out = Matrix::zeros(h, w);
        for r in 0..h {
            for c in 0..w {
                out[(r, c)] = self[(r0 + r, c0 + c)];
            }
        }
        out
    }

    /// Matrix exponential `e^{self}` by scaling-and-squaring with a
    /// 13-term Taylor series on the scaled matrix.
    ///
    /// Accurate to near machine precision for the well-conditioned,
    /// small-norm matrices produced by audio-band filters discretized at
    /// the master-clock rate.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn expm(&self) -> Matrix {
        assert_eq!(self.rows, self.cols, "expm requires a square matrix");
        let n = self.rows;
        let norm = self.norm_inf();
        // Scale so the norm is below 0.5, then square back.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "`log2` of a finite norm is far below u32::MAX and `as` saturates NaN/∞ to safe values"
        )]
        let squarings = if norm > 0.5 {
            (norm / 0.5).log2().ceil() as u32
        } else {
            0
        };
        #[expect(
            clippy::cast_possible_wrap,
            reason = "squarings ≤ ~1074 for any finite f64 norm, far below i32::MAX"
        )]
        let scaled = self.scaled(1.0 / f64::powi(2.0, squarings as i32));
        // Taylor: I + X + X²/2! + ...
        let mut result = Matrix::identity(n);
        let mut term = Matrix::identity(n);
        for k in 1..=13u32 {
            term = &term * &scaled;
            term = term.scaled(1.0 / k as f64);
            result = &result + &term;
        }
        for _ in 0..squarings {
            result = &result * &result;
        }
        result
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.6} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(&i * &a, a);
        assert_eq!(&a * &i, a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let p = &a * &b;
        assert_eq!(p, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn mul_vec_matches_mat_mul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let v = a.mul_vec(&[3.0, 4.0]);
        assert_eq!(v, vec![-1.0, 8.0]);
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Matrix::zeros(3, 3);
        let e = z.expm();
        assert_eq!(e, Matrix::identity(3));
    }

    #[test]
    fn expm_diagonal() {
        let d = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -2.0]]);
        let e = d.expm();
        assert!((e[(0, 0)] - 1.0f64.exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - (-2.0f64).exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-14 && e[(1, 0)].abs() < 1e-14);
    }

    #[test]
    fn expm_rotation_generator() {
        // exp([[0, -θ], [θ, 0]]) is a rotation by θ.
        let theta = 0.7f64;
        let g = Matrix::from_rows(&[&[0.0, -theta], &[theta, 0.0]]);
        let e = g.expm();
        assert!((e[(0, 0)] - theta.cos()).abs() < 1e-12);
        assert!((e[(0, 1)] + theta.sin()).abs() < 1e-12);
        assert!((e[(1, 0)] - theta.sin()).abs() < 1e-12);
        assert!((e[(1, 1)] - theta.cos()).abs() < 1e-12);
    }

    #[test]
    fn expm_large_norm_uses_squaring() {
        // exp of a scalar-ish matrix with norm >> 0.5.
        let a = Matrix::from_rows(&[&[10.0]]);
        let e = a.expm();
        assert!((e[(0, 0)] - 10.0f64.exp()).abs() / 10.0f64.exp() < 1e-12);
    }

    #[test]
    fn expm_additivity_for_commuting() {
        // exp(A)·exp(A) == exp(2A).
        let a = Matrix::from_rows(&[&[0.1, 0.3], &[-0.2, 0.05]]);
        let e1 = a.expm();
        let e2 = a.scaled(2.0).expm();
        let p = &e1 * &e1;
        for r in 0..2 {
            for c in 0..2 {
                assert!((p[(r, c)] - e2[(r, c)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn block_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let b = a.block(0, 1, 2, 2);
        assert_eq!(b, Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]));
    }

    #[test]
    fn norm_inf_max_row_sum() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.25]]);
        assert_eq!(a.norm_inf(), 3.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn expm_rejects_rectangular() {
        let _ = Matrix::zeros(2, 3).expm();
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
