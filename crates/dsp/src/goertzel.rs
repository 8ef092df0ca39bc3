//! Single-bin DFT read-offs.
//!
//! The network analyzer's reference paths often need the complex amplitude
//! at one known frequency (the stimulus is always coherent with the master
//! clock). [`dft_bin`] evaluates that one bin directly, in O(N) for any
//! record length, and every read-off ([`tone_amplitude_phase`]) goes
//! through it. Despite the module's name it is a direct sum, not the
//! Goertzel recursion: the numerically most robust form, and O(N) all
//! the same.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Amplitude and phase of a coherent tone at normalized frequency `f`.
///
/// The phase convention matches `a·sin(2πfn + φ)`: a pure sine returns
/// `φ ≈ 0`.
pub fn tone_amplitude_phase(x: &[f64], f: f64) -> (f64, f64) {
    let c = dft_bin(x, f);
    let n2 = x.len() as f64 / 2.0;
    // For x[n] = a sin(wn + φ): X(f) = (a N / 2) * e^{j(φ - π/2)} (approx, coherent).
    let amp = c.abs() / n2;
    let phase = c.arg() + PI / 2.0;
    (amp, wrap_phase(phase))
}

/// Direct DFT evaluation at one normalized frequency (cycles/sample).
///
/// A real sinusoid `a·sin(2πfn + φ)` of coherent frequency yields a value
/// with magnitude `a·N/2`, the same convention as an FFT bin.
pub fn dft_bin(x: &[f64], f: f64) -> Complex64 {
    let w = -2.0 * PI * f;
    let step = Complex64::cis(w);
    let mut phasor = Complex64::ONE;
    let mut acc = Complex64::ZERO;
    for &sample in x {
        acc += phasor * sample;
        phasor *= step;
    }
    acc
}

/// Wraps a phase into `(-π, π]`.
pub fn wrap_phase(mut p: f64) -> f64 {
    while p > PI {
        p -= 2.0 * PI;
    }
    while p <= -PI {
        p += 2.0 * PI;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tone::Tone;

    #[test]
    fn dft_bin_matches_tone_amplitude() {
        let n = 4096;
        let f = 32.0 / n as f64;
        let x = Tone::new(f, 0.7, 0.3).samples(n);
        let c = dft_bin(&x, f);
        assert!((c.abs() / (n as f64 / 2.0) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn amplitude_phase_recovers_both() {
        let n = 960;
        let f = 10.0 / n as f64;
        for &(a, p) in &[(1.0, 0.0), (0.5, 1.0), (0.25, -2.0), (2.0, 3.0)] {
            let x = Tone::new(f, a, p).samples(n);
            let (ae, pe) = tone_amplitude_phase(&x, f);
            assert!((ae - a).abs() < 1e-9, "amp {ae} vs {a}");
            assert!((wrap_phase(pe - p)).abs() < 1e-9, "phase {pe} vs {p}");
        }
    }

    #[test]
    fn orthogonal_tone_rejected() {
        let n = 1024;
        let x = Tone::new(100.0 / n as f64, 1.0, 0.0).samples(n);
        let c = dft_bin(&x, 37.0 / n as f64);
        assert!(c.abs() / (n as f64 / 2.0) < 1e-9);
    }

    #[test]
    fn dc_signal_measures_zero_at_nonzero_freq() {
        let x = vec![0.5; 512];
        let c = dft_bin(&x, 8.0 / 512.0);
        assert!(c.abs() < 1e-9);
    }

    #[test]
    fn wrap_phase_bounds() {
        assert!((wrap_phase(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_phase(-3.0 * PI) - PI).abs() < 1e-12);
        assert_eq!(wrap_phase(0.5), 0.5);
    }

    #[test]
    fn multitone_bins_are_independent() {
        let n = 960;
        let x1 = Tone::new(4.0 / n as f64, 0.3, 0.0).samples(n);
        let x2 = Tone::new(12.0 / n as f64, 0.1, 1.0).samples(n);
        let sum: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let (a1, _) = tone_amplitude_phase(&sum, 4.0 / n as f64);
        let (a2, _) = tone_amplitude_phase(&sum, 12.0 / n as f64);
        assert!((a1 - 0.3).abs() < 1e-9);
        assert!((a2 - 0.1).abs() < 1e-9);
    }
}
