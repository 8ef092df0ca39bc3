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

    /// Matrix–vector product: each entry summed from `+0.0` over
    /// ascending columns, the order and start of
    /// `DiscreteStateSpace`'s group kernel. (`Iterator::sum` starts from
    /// `−0.0`: a row of `−0` products would sum to `−0`, where the
    /// kernel's sum is `+0`.)
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub(crate) fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|r| (0..self.cols).fold(0.0, |acc, c| acc + self[(r, c)] * v[c]))
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
    /// Orders 1 through 8 dispatch to a body on stack arrays
    /// monomorphized on the order (`expm_n`), so a discretization
    /// allocates nothing but its result; order 0 and anything beyond
    /// order 8 run the same operations on heap matrices (`expm_heap`).
    /// Both bodies run every operation in the same order, so each entry
    /// has the same bits whichever body computes it.
    ///
    /// A matrix whose ∞-norm is infinite (an infinite entry, or row sums
    /// past `f64::MAX`), or so large that halving it below 0.5 takes
    /// more squarings than an `f64` exponent spans, has no scaling: its
    /// exponential comes back at once with every entry NaN.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn expm(&self) -> Matrix {
        assert_eq!(self.rows, self.cols, "expm requires a square matrix");
        match self.rows {
            1 => self.expm_n::<1>(),
            2 => self.expm_n::<2>(),
            3 => self.expm_n::<3>(),
            4 => self.expm_n::<4>(),
            5 => self.expm_n::<5>(),
            6 => self.expm_n::<6>(),
            7 => self.expm_n::<7>(),
            8 => self.expm_n::<8>(),
            _ => self.expm_heap(),
        }
    }

    /// The scaling of [`expm`](Self::expm): how many squarings bring the
    /// ∞-norm below 0.5, and the factor `2^−squarings` that scales the
    /// matrix down by as much; `None` when `norm / 0.5` overflows, where
    /// the squarings would saturate at `u32::MAX`.
    fn expm_scaling(&self) -> Option<(u32, f64)> {
        let norm = self.norm_inf();
        if (norm / 0.5).is_infinite() {
            return None;
        }
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
        let scale = 1.0 / f64::powi(2.0, squarings as i32);
        Some((squarings, scale))
    }

    /// The exponential of a matrix with no scaling: every entry NaN.
    fn expm_unscalable(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: vec![f64::NAN; self.data.len()],
        }
    }

    /// [`expm`](Self::expm) on heap matrices: the body for order 0 and
    /// every order past `expm_n`'s table, and the reference `expm_n`
    /// reproduces bit for bit.
    fn expm_heap(&self) -> Matrix {
        let Some((squarings, scale)) = self.expm_scaling() else {
            return self.expm_unscalable();
        };
        let scaled = self.scaled(scale);
        // Taylor: I + X + X²/2! + ...
        let mut result = Matrix::identity(self.rows);
        let mut term = Matrix::identity(self.rows);
        for k in 1..=13u32 {
            term = &term * &scaled;
            term = term.scaled(1.0 / f64::from(k));
            result = &result + &term;
        }
        for _ in 0..squarings {
            result = &result * &result;
        }
        result
    }

    /// [`expm`](Self::expm) of an `N×N` matrix on `[[f64; N]; N]`
    /// arrays, with `expm_heap`'s operations in its order: the scaled
    /// entries `x · 2^−s`; each Taylor term the product with the scaled
    /// matrix (`array_product`, the `Mul` loop), each entry then times
    /// `1/k` and added to the sum's; then the squarings. Nothing is
    /// reassociated, so every entry keeps `expm_heap`'s bits.
    fn expm_n<const N: usize>(&self) -> Matrix {
        let Some((squarings, scale)) = self.expm_scaling() else {
            return self.expm_unscalable();
        };
        let scaled: [[f64; N]; N] =
            std::array::from_fn(|r| std::array::from_fn(|c| self[(r, c)] * scale));
        let identity: [[f64; N]; N] =
            std::array::from_fn(|r| std::array::from_fn(|c| if r == c { 1.0 } else { 0.0 }));
        let mut result = identity;
        let mut term = identity;
        for k in 1..=13u32 {
            let inv = 1.0 / f64::from(k);
            term = array_product(&term, &scaled);
            for (sum_row, term_row) in result.iter_mut().zip(&mut term) {
                for (sum, t) in sum_row.iter_mut().zip(term_row) {
                    *t *= inv;
                    *sum += *t;
                }
            }
        }
        for _ in 0..squarings {
            result = array_product(&result, &result);
        }
        Matrix {
            rows: N,
            cols: N,
            data: result.as_flattened().to_vec(),
        }
    }
}

/// `a · b` for `N×N` arrays, in the `Mul` loop's order: each output row
/// from zeros, over ascending `k`, skipping a zero `a[r][k]`, adding
/// `a[r][k] · b[k][c]` to every entry.
fn array_product<const N: usize>(a: &[[f64; N]; N], b: &[[f64; N]; N]) -> [[f64; N]; N] {
    let mut out = [[0.0; N]; N];
    for (out_row, a_row) in out.iter_mut().zip(a) {
        for (&x, b_row) in a_row.iter().zip(b) {
            if x == 0.0 {
                continue;
            }
            for (o, &y) in out_row.iter_mut().zip(b_row) {
                *o += x * y;
            }
        }
    }
    out
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

    /// Every entry's bits, where `PartialEq` would take `0.0 == -0.0`
    /// and `NaN != NaN`. A NaN counts as NaN whatever its sign and
    /// payload: Rust leaves those unspecified for an operation's NaN
    /// result, and the compiler may commute an addition's operands.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.data
            .iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// SplitMix64 as a uniform draw in `[-1, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    #[test]
    fn array_expm_is_bit_identical_to_the_heap_body() {
        // The paper DUT's augmented matrices (its biquad times the 1 MHz
        // parasitic pole, order 3, so 4×4) from 100 Hz to 200 kHz, each
        // at its own master clock 96·f.
        let biquad = crate::ct::TransferFunction::lowpass_biquad(
            crate::units::Hertz(1000.0),
            std::f64::consts::FRAC_1_SQRT_2,
            1.0,
        );
        let wp = 2.0 * std::f64::consts::PI * 1.0e6;
        let d = biquad.denominator();
        let mut den = vec![0.0; d.len() + 1];
        for (i, &c) in d.iter().enumerate() {
            den[i] += c;
            den[i + 1] += c / wp;
        }
        let paper =
            crate::ct::TransferFunction::new(biquad.numerator().to_vec(), den).to_state_space();
        let mut cases: Vec<Matrix> = (0..=48)
            .map(|i| {
                let f = 100.0 * 2000f64.powf(f64::from(i) / 48.0);
                paper.zoh_augmented(1.0 / (96.0 * f))
            })
            .collect();
        assert_eq!(cases[0].rows(), 4);
        // Every order of the table and the first past it: dense draws at
        // norms from far below 0.5 (no squaring) to 10³, zero rows and
        // entries, −0.0, subnormals, norms near f64::MAX (about 1024
        // squarings), and NaN and ±∞. An ∞ sits in a row with a NaN:
        // the ∞-norm skips a NaN row sum, so the norm stays finite. An ∞
        // norm has no scaling (`expm_of_an_unscalable_norm_is_nan_at_once`).
        let mut state = 29;
        for n in 1..=9usize {
            for scale in [1e-3, 0.3, 3.0, 1e3] {
                let data: Vec<f64> = (0..n * n).map(|_| scale * uniform(&mut state)).collect();
                cases.push(Matrix {
                    rows: n,
                    cols: n,
                    data,
                });
            }
            let mut special = |entry: &dyn Fn(usize, f64) -> f64| {
                let data = (0..n * n).map(|i| entry(i, uniform(&mut state))).collect();
                cases.push(Matrix {
                    rows: n,
                    cols: n,
                    data,
                });
            };
            special(&|_, _| 0.0);
            special(&|i, u| if i < n { 0.0 } else { 2.0 * u });
            special(&|i, u| if i % 2 == 0 { 0.0 } else { u });
            special(&|i, u| if i % 3 == 0 { -0.0 } else { 0.7 * u });
            special(&|_, _| -0.0);
            special(&|i, u| if i % 2 == 0 { u * 1e-310 } else { 0.4 * u });
            special(&|_, u| u * f64::MIN_POSITIVE);
            special(&|_, u| u * 1e300);
            special(&|_, u| u * (f64::MAX / 16.0));
            special(&|i, u| if i == n / 2 { f64::NAN } else { u });
            special(&|i, u| if i % n == 0 { f64::NAN } else { 5.0 * u });
            if n > 1 {
                special(&|i, u| match (i / n, i % n) {
                    (0, 0) => f64::INFINITY,
                    (0, 1) => f64::NAN,
                    (r, c) if r == n - 1 && c == n - 1 => f64::NEG_INFINITY,
                    (r, 0) if r == n - 1 => -f64::NAN,
                    _ => 0.2 * u,
                });
            }
        }
        for m in &cases {
            assert_eq!(bits(&m.expm()), bits(&m.expm_heap()), "{m:?}");
        }
        // The table's orders took the array body; the heap body is what
        // they must equal, not what ran.
        assert!(cases.iter().any(|m| m.rows() == 8) && cases.iter().any(|m| m.rows() == 9));
    }

    #[test]
    fn expm_of_an_unscalable_norm_is_nan_at_once() {
        // One ∞ entry in a 1×1, a 4×4 (the array body) and a 9×9 (the heap
        // body), and a finite 2×2 whose ∞-norm is past f64::MAX / 2: each
        // used to ask for u32::MAX squarings. Each answer must come back
        // within a second, every entry NaN.
        let with = |n: usize, entry: f64| {
            let mut m = Matrix::identity(n);
            m[(n / 2, n - 1)] = entry;
            m
        };
        let cases = [
            with(1, f64::INFINITY),
            with(4, f64::INFINITY),
            with(9, f64::NEG_INFINITY),
            Matrix::from_rows(&[&[f64::MAX, 0.0], &[0.0, 1.0]]),
        ];
        for m in cases {
            let (tx, rx) = std::sync::mpsc::channel();
            let input = m.clone();
            let worker = std::thread::spawn(move || tx.send(input.expm()));
            let got = rx
                .recv_timeout(std::time::Duration::from_secs(1))
                .unwrap_or_else(|e| panic!("{m:?}: no answer within a second ({e})"));
            worker.join().unwrap().unwrap();
            assert!(got.data.iter().all(|x| x.is_nan()), "{m:?}: {got:?}");
            assert_eq!(bits(&got), bits(&m.expm_heap()), "{m:?}");
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
