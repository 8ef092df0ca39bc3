//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! The transform is decimation-in-time with an explicit bit-reversal
//! permutation, operating in place on a `Vec<Complex64>`. Sizes must be
//! powers of two; the spectral harnesses in this workspace always use
//! power-of-two records with coherent sampling, so no Bluestein fallback is
//! needed.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Error returned when a transform length is not a power of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftLenError {
    /// The offending length.
    pub len: usize,
}

impl std::fmt::Display for FftLenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fft length {} is not a power of two", self.len)
    }
}

impl std::error::Error for FftLenError {}

/// Returns `true` if `n` is a nonzero power of two.
#[inline]
pub(crate) fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place forward FFT (no normalization).
///
/// # Errors
///
/// Returns [`FftLenError`] when `data.len()` is not a power of two.
///
/// # Example
///
/// ```
/// use dsp::Complex64;
/// use dsp::fft::fft_in_place;
///
/// let mut x = vec![Complex64::ONE; 4];
/// fft_in_place(&mut x)?;
/// assert!((x[0].re - 4.0).abs() < 1e-12);
/// assert!(x[1].abs() < 1e-12);
/// # Ok::<(), dsp::fft::FftLenError>(())
/// ```
pub fn fft_in_place(data: &mut [Complex64]) -> Result<(), FftLenError> {
    transform(data, -1.0)
}

/// In-place inverse FFT, including the `1/N` normalization.
///
/// # Errors
///
/// Returns [`FftLenError`] when `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex64]) -> Result<(), FftLenError> {
    transform(data, 1.0)?;
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = *v / n;
    }
    Ok(())
}

/// Forward FFT of a real-valued signal.
///
/// Returns the full complex spectrum of length `x.len()`.
///
/// # Errors
///
/// Returns [`FftLenError`] when `x.len()` is not a power of two.
pub fn fft_real(x: &[f64]) -> Result<Vec<Complex64>, FftLenError> {
    let mut buf: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    fft_in_place(&mut buf)?;
    Ok(buf)
}

fn transform(data: &mut [Complex64], sign: f64) -> Result<(), FftLenError> {
    let n = data.len();
    if !is_power_of_two(n) {
        return Err(FftLenError { len: n });
    }
    if n <= 1 {
        return Ok(());
    }
    bit_reverse_permute(data);
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex64::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex64::ONE;
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
    Ok(())
}

fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tone::Tone;

    fn naive_dft(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| x[t] * Complex64::cis(-2.0 * PI * (k * t) as f64 / n as f64))
                    .sum()
            })
            .collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex64::ZERO; 12];
        assert_eq!(fft_in_place(&mut x), Err(FftLenError { len: 12 }));
    }

    #[test]
    fn len_error_displays() {
        let e = FftLenError { len: 3 };
        assert_eq!(e.to_string(), "fft length 3 is not a power of two");
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        fft_in_place(&mut x).unwrap();
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn dc_transforms_to_single_bin() {
        let mut x = vec![Complex64::new(2.0, 0.0); 8];
        fft_in_place(&mut x).unwrap();
        assert!((x[0].re - 16.0).abs() < 1e-12);
        for v in &x[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_dft() {
        let n = 64;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut fast = x.clone();
        fft_in_place(&mut fast).unwrap();
        let slow = naive_dft(&x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-9, "fft mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn round_trip_identity() {
        let n = 256;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let mut y = x.clone();
        fft_in_place(&mut y).unwrap();
        ifft_in_place(&mut y).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn coherent_tone_lands_in_one_bin() {
        let n = 1024;
        let cycles = 37;
        let x = Tone::new(cycles as f64 / n as f64, 1.0, 0.0).samples(n);
        let spec = fft_real(&x).unwrap();
        // Amplitude A maps to |X[k]| = A*N/2 at the tone bin.
        assert!((spec[cycles].abs() - n as f64 / 2.0).abs() < 1e-6);
        // Energy elsewhere is negligible.
        for (k, v) in spec.iter().enumerate().take(n / 2) {
            if k != cycles {
                assert!(v.abs() < 1e-6, "leakage at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 512;
        let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.001).sin()).collect();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let spec = fft_real(&x).unwrap();
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 128;
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i % 7) as f64))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        fft_in_place(&mut fa).unwrap();
        fft_in_place(&mut fb).unwrap();
        fft_in_place(&mut fs).unwrap();
        for i in 0..n {
            assert!((fs[i] - (fa[i] + fb[i])).abs() < 1e-8);
        }
    }
}
