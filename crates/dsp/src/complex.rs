//! A minimal double-precision complex number.
//!
//! The workspace deliberately owns its complex arithmetic instead of pulling
//! in `num-complex`: the FFT and frequency-response code below need only a
//! handful of operations and keeping them local makes the numerical behaviour
//! of the reproduction fully self-contained.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use dsp::Complex64;
///
/// let j = Complex64::new(0.0, 1.0);
/// assert_eq!(j * j, Complex64::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a complex number from polar coordinates.
    ///
    /// # Example
    ///
    /// ```
    /// use dsp::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12);
    /// assert!((z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Self::new(magnitude * phase.cos(), magnitude * phase.sin())
    }

    /// `e^{jθ}` — a unit phasor at angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, cheaper than [`abs`](Self::abs) when comparing.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// Returns non-finite components when `self` is zero.
    #[inline]
    pub(crate) fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub(crate) fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Self::new(re, 0.0)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "z/w == z·w⁻¹ by definition"
    )]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn constructors_and_identities() {
        assert_eq!(Complex64::ZERO + Complex64::ONE, Complex64::ONE);
        let j = Complex64::new(0.0, 1.0);
        assert_eq!(j * j, Complex64::new(-1.0, 0.0));
        assert_eq!(Complex64::from(3.5), Complex64::new(3.5, 0.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.5, 1.1);
        assert!((z.abs() - 2.5).abs() < EPS);
        assert!((z.arg() - 1.1).abs() < EPS);
    }

    #[test]
    fn cis_is_unit() {
        for i in 0..16 {
            let theta = i as f64 * 0.391;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn multiplication_matches_polar_addition() {
        let a = Complex64::from_polar(2.0, 0.4);
        let b = Complex64::from_polar(3.0, 0.9);
        let p = a * b;
        assert!((p.abs() - 6.0).abs() < 1e-10);
        assert!((p.arg() - 1.3).abs() < 1e-10);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 0.25);
        let q = (a * b) / b;
        assert!((q - a).abs() < EPS);
    }

    #[test]
    fn recip_of_unit() {
        let z = Complex64::cis(0.7);
        assert!((z.recip() - Complex64::cis(-0.7)).abs() < EPS);
    }

    #[test]
    fn sum_of_phasors_cancels() {
        // Sum of the N-th roots of unity is 0.
        let n = 8;
        let s: Complex64 = (0..n)
            .map(|k| Complex64::cis(2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .sum();
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn display_format() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn norm_sqr_consistent_with_abs() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        assert!((z.abs() - 5.0).abs() < EPS);
    }
}
