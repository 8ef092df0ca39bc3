//! Periodogram computation and spectral bookkeeping.
//!
//! [`Spectrum`] is the shared currency between the "oscilloscope" reference
//! path, the generator self-test (Fig. 8b), and the distortion comparison of
//! Fig. 10c: a one-sided amplitude spectrum with helpers for peak and
//! harmonic lookup.

use crate::fft::{fft_real, FftLenError};
use crate::window::Window;

/// A one-sided amplitude spectrum of a real signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    amplitudes: Vec<f64>,
    window: Window,
    record_len: usize,
}

impl Spectrum {
    /// Computes the windowed one-sided amplitude spectrum of `x`.
    ///
    /// Amplitudes are corrected for the window's coherent gain, so a
    /// full-scale coherent tone reads its true peak amplitude.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a power of two — spectral records in this
    /// workspace are always sized by the caller.
    pub fn periodogram(x: &[f64], window: Window) -> Self {
        Self::try_periodogram(x, window).expect("record length must be a power of two")
    }

    /// Fallible form of [`Spectrum::periodogram`].
    ///
    /// # Errors
    ///
    /// Returns [`FftLenError`] when `x.len()` is not a power of two.
    pub(crate) fn try_periodogram(x: &[f64], window: Window) -> Result<Self, FftLenError> {
        let n = x.len();
        let w = window.generate(n);
        let cg = window.coherent_gain(n);
        let xw: Vec<f64> = x.iter().zip(&w).map(|(a, b)| a * b).collect();
        let bins = fft_real(&xw)?;
        let half = n / 2;
        let scale = 2.0 / (n as f64 * cg);
        let mut amplitudes: Vec<f64> = bins[..=half].iter().map(|c| c.abs() * scale).collect();
        if let Some(first) = amplitudes.first_mut() {
            *first /= 2.0; // DC bin is not doubled
        }
        if n.is_multiple_of(2) {
            if let Some(last) = amplitudes.last_mut() {
                *last /= 2.0; // Nyquist bin is not doubled
            }
        }
        Ok(Self {
            amplitudes,
            window,
            record_len: n,
        })
    }

    /// Amplitude at bin `k` (peak volts for a coherent tone).
    pub fn amplitude(&self, k: usize) -> f64 {
        self.amplitudes[k]
    }

    /// Number of bins (`N/2 + 1`).
    pub fn len(&self) -> usize {
        self.amplitudes.len()
    }

    /// True if the spectrum has no bins.
    pub fn is_empty(&self) -> bool {
        self.amplitudes.is_empty()
    }

    /// Length of the time-domain record that produced this spectrum.
    pub(crate) fn record_len(&self) -> usize {
        self.record_len
    }

    /// Tone amplitude at/near bin `k`: the maximum over the window's leakage
    /// neighbourhood. Exact for coherent records (rect window); within the
    /// scalloping loss of the window otherwise (≈0.01 dB for
    /// [`Window::FlatTop`]).
    pub(crate) fn tone_amplitude(&self, k: usize) -> f64 {
        let r = self.window.leakage_bins();
        let lo = k.saturating_sub(r);
        let hi = (k + r).min(self.amplitudes.len() - 1);
        self.amplitudes[lo..=hi]
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
    }

    /// Largest bin amplitude excluding a neighbourhood of `carrier_bin` and
    /// of DC — the "highest spur" used by SFDR.
    pub(crate) fn max_spur(&self, carrier_bin: usize) -> (usize, f64) {
        let guard = self.window.leakage_bins() + 1;
        self.amplitudes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i > guard && i.abs_diff(carrier_bin) > guard)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, a)| (i, *a))
            .unwrap_or((0, 0.0))
    }

    /// Total signal power from Parseval (sum of one-sided bin powers).
    ///
    /// DC and Nyquist carry their full power (they are not doubled in the
    /// one-sided form); interior bins contribute `a²/2`.
    pub fn total_power(&self) -> f64 {
        let nyquist = self.record_len / 2;
        self.amplitudes
            .iter()
            .enumerate()
            .map(|(k, a)| {
                if k == 0 || (self.record_len.is_multiple_of(2) && k == nyquist) {
                    a * a
                } else {
                    a * a / 2.0
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tone::Tone;

    #[test]
    fn coherent_tone_reads_true_amplitude() {
        let n = 4096;
        let x = Tone::new(129.0 / n as f64, 0.6, 0.2).samples(n);
        let s = Spectrum::periodogram(&x, Window::Rect);
        assert!((s.amplitude(129) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn windowed_tone_amplitude_flat_top() {
        let n = 4096;
        // Non-coherent tone: 100.5 cycles.
        let x = Tone::new(100.5 / n as f64, 0.5, 0.0).samples(n);
        let s = Spectrum::periodogram(&x, Window::FlatTop);
        let k = 100;
        assert!(
            (s.tone_amplitude(k) - 0.5).abs() < 0.01,
            "{}",
            s.tone_amplitude(k)
        );
    }

    #[test]
    fn dc_reads_in_bin_zero() {
        let n = 1024;
        let x = vec![0.25; n];
        let s = Spectrum::periodogram(&x, Window::Rect);
        assert!((s.amplitude(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_spur_skips_carrier() {
        let n = 1024;
        let carrier = Tone::new(100.0 / n as f64, 1.0, 0.0).samples(n);
        let spur = Tone::new(300.0 / n as f64, 0.001, 0.0).samples(n);
        let x: Vec<f64> = carrier.iter().zip(&spur).map(|(a, b)| a + b).collect();
        let s = Spectrum::periodogram(&x, Window::Rect);
        let (bin, amp) = s.max_spur(100);
        assert_eq!(bin, 300);
        assert!((amp - 0.001).abs() < 1e-9);
    }

    #[test]
    fn total_power_matches_time_domain() {
        let n = 4096;
        let x = Tone::new(33.0 / n as f64, 1.0, 0.4).samples(n);
        let s = Spectrum::periodogram(&x, Window::Rect);
        let p_time: f64 = x.iter().map(|v| v * v).sum::<f64>() / n as f64;
        assert!((s.total_power() - p_time).abs() < 1e-9);
    }

    #[test]
    fn non_power_of_two_errors() {
        let x = vec![0.0; 1000];
        assert!(Spectrum::try_periodogram(&x, Window::Rect).is_err());
    }
}
