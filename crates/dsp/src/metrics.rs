//! Spectral quality metrics: THD and SFDR.
//!
//! These are the figures the paper reports for the generator (Fig. 8b:
//! SFDR = 70 dB, THD = 67 dB) and the numbers the "oscilloscope" reference
//! path reads off in Fig. 10c. Conventions:
//!
//! * **THD** is reported as a *positive* dB number, as in the paper
//!   ("THD is 67 dB" meaning harmonics are 67 dB below the carrier).
//! * **SFDR** is the carrier-to-highest-spur ratio in dB.
//! * Metrics assume a coherent record (rect window) unless the spectrum was
//!   built with another window, in which case leakage neighbourhoods are
//!   grouped automatically (`Spectrum::tone_amplitude`).

use crate::db::amplitude_to_db;
use crate::spectrum::Spectrum;

/// Full harmonic decomposition of a spectrum around a fundamental bin.
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicAnalysis {
    /// Fundamental bin index.
    pub fundamental_bin: usize,
    /// Fundamental amplitude (volts peak).
    pub fundamental: f64,
    /// Amplitudes of harmonics 2..=n_harmonics (volts peak). Aliased bins are
    /// folded back into the first Nyquist zone.
    pub harmonics: Vec<f64>,
    /// Highest non-harmonic, non-carrier spur (bin, amplitude).
    pub max_spur: (usize, f64),
}

impl HarmonicAnalysis {
    /// Analyzes `spectrum` assuming the fundamental sits at `fundamental_bin`.
    ///
    /// `n_harmonics` counts the fundamental, so `n_harmonics = 5` measures
    /// H2..H5.
    ///
    /// # Panics
    ///
    /// Panics if `fundamental_bin` is 0 or out of range.
    pub fn new(spectrum: &Spectrum, fundamental_bin: usize, n_harmonics: usize) -> Self {
        assert!(
            fundamental_bin > 0 && fundamental_bin < spectrum.len(),
            "fundamental bin {fundamental_bin} out of range"
        );
        let n = spectrum.record_len();
        let fundamental = spectrum.tone_amplitude(fundamental_bin);
        let harmonics: Vec<f64> = (2..=n_harmonics.max(1))
            .map(|h| {
                let bin = alias_bin(h * fundamental_bin, n);
                spectrum.tone_amplitude(bin)
            })
            .collect();
        let max_spur = spectrum.max_spur(fundamental_bin);
        Self {
            fundamental_bin,
            fundamental,
            harmonics,
            max_spur,
        }
    }

    /// Harmonic distortion of harmonic `h` (2-based) in dBc (negative dB).
    pub fn hd_dbc(&self, h: usize) -> f64 {
        assert!(h >= 2, "harmonic index starts at 2");
        amplitude_to_db(self.harmonics[h - 2].max(1e-300) / self.fundamental)
    }

    /// Total harmonic distortion as a positive dB figure (paper convention).
    pub fn thd_db(&self) -> f64 {
        let h_rss: f64 = self.harmonics.iter().map(|a| a * a).sum::<f64>().sqrt();
        -amplitude_to_db(h_rss.max(1e-300) / self.fundamental)
    }

    /// Spurious-free dynamic range in dB (positive).
    pub fn sfdr_db(&self) -> f64 {
        let spur = self
            .harmonics
            .iter()
            .copied()
            .chain(std::iter::once(self.max_spur.1))
            .fold(0.0f64, f64::max);
        -amplitude_to_db(spur.max(1e-300) / self.fundamental)
    }
}

/// Folds a bin index back into the first Nyquist zone `[0, n/2]`.
pub(crate) fn alias_bin(bin: usize, record_len: usize) -> usize {
    let m = bin % record_len;
    if m > record_len / 2 {
        record_len - m
    } else {
        m
    }
}

/// Total harmonic distortion (positive dB) from a spectrum with the
/// fundamental at `fundamental_bin`, using harmonics 2..=10.
pub fn thd(spectrum: &Spectrum, fundamental_bin: usize) -> f64 {
    HarmonicAnalysis::new(spectrum, fundamental_bin, 10).thd_db()
}

/// Spurious-free dynamic range (positive dB).
pub fn sfdr(spectrum: &Spectrum, fundamental_bin: usize) -> f64 {
    let carrier = spectrum.tone_amplitude(fundamental_bin);
    let (_, spur) = spectrum.max_spur(fundamental_bin);
    -amplitude_to_db(spur.max(1e-300) / carrier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tone::Tone;
    use crate::window::Window;

    fn two_tone(n: usize, f1_bin: usize, a1: f64, h: usize, ah: f64) -> Spectrum {
        let x1 = Tone::new(f1_bin as f64 / n as f64, a1, 0.0).samples(n);
        let x2 = Tone::new((h * f1_bin) as f64 / n as f64, ah, 0.5).samples(n);
        let x: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        Spectrum::periodogram(&x, Window::Rect)
    }

    #[test]
    fn hd2_reads_correct_dbc() {
        let s = two_tone(4096, 64, 1.0, 2, 0.01);
        let ha = HarmonicAnalysis::new(&s, 64, 5);
        assert!((ha.hd_dbc(2) + 40.0).abs() < 0.01, "{}", ha.hd_dbc(2));
    }

    #[test]
    fn thd_single_harmonic_equals_hd() {
        let s = two_tone(4096, 64, 1.0, 3, 0.001);
        let ha = HarmonicAnalysis::new(&s, 64, 5);
        assert!((ha.thd_db() - 60.0).abs() < 0.01);
        assert!((ha.hd_dbc(3) + 60.0).abs() < 0.01);
    }

    #[test]
    fn thd_combines_harmonics_rss() {
        let n = 4096;
        let f = 64;
        let x1 = Tone::new(f as f64 / n as f64, 1.0, 0.0).samples(n);
        let x2 = Tone::new(2.0 * f as f64 / n as f64, 0.003, 0.0).samples(n);
        let x3 = Tone::new(3.0 * f as f64 / n as f64, 0.004, 0.0).samples(n);
        let x: Vec<f64> = (0..n).map(|i| x1[i] + x2[i] + x3[i]).collect();
        let s = Spectrum::periodogram(&x, Window::Rect);
        let expect = -amplitude_to_db((0.003f64.powi(2) + 0.004f64.powi(2)).sqrt());
        assert!((thd(&s, f) - expect).abs() < 0.01);
    }

    #[test]
    fn sfdr_finds_worst_spur() {
        // Non-harmonic spur larger than harmonics.
        let n = 4096;
        let x1 = Tone::new(64.0 / n as f64, 1.0, 0.0).samples(n);
        let x2 = Tone::new(777.0 / n as f64, 0.01, 0.0).samples(n);
        let x: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let s = Spectrum::periodogram(&x, Window::Rect);
        assert!((sfdr(&s, 64) - 40.0).abs() < 0.01);
    }

    #[test]
    fn aliased_harmonic_found() {
        // Fundamental at bin 1500 of a 4096 record: H2 at 3000 aliases to 1096.
        assert_eq!(alias_bin(3000, 4096), 1096);
        let s = two_tone(4096, 1500, 1.0, 2, 0.01);
        let ha = HarmonicAnalysis::new(&s, 1500, 3);
        assert!((ha.hd_dbc(2) + 40.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fundamental_zero_rejected() {
        let s = Spectrum::periodogram(&vec![0.0; 64], Window::Rect);
        let _ = HarmonicAnalysis::new(&s, 0, 3);
    }
}
