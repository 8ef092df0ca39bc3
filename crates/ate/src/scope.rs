//! The "digital oscilloscope" reference analyzer (the paper's LeCroy
//! WaveSurfer 422 role in Fig. 10c).
//!
//! Captures a record from any sample source and reads its harmonics off a
//! windowed FFT spectrum, returned as `dsp`'s own [`HarmonicAnalysis`]
//! (fundamental, levels in dBc, THD, SFDR). Unlike the on-chip evaluator
//! it has no error-bound machinery — it is the *commercial instrument*
//! the paper compares against, so it should simply be accurate.

use dsp::metrics::HarmonicAnalysis;
use dsp::spectrum::Spectrum;
use dsp::window::Window;

/// An FFT-based digital oscilloscope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitalOscilloscope {
    record_len: usize,
    window: Window,
}

impl DigitalOscilloscope {
    /// Creates a scope capturing `record_len` samples (must be a power of
    /// two) analyzed with `window`.
    ///
    /// # Panics
    ///
    /// Panics if `record_len` is not a power of two.
    pub fn new(record_len: usize, window: Window) -> Self {
        assert!(
            record_len.is_power_of_two(),
            "scope record length must be a power of two"
        );
        Self { record_len, window }
    }

    /// A 8192-point Blackman–Harris scope — enough dynamic range (−92 dB
    /// sidelobes) for the paper's −56…−70 dBc read-offs.
    pub fn wavesurfer() -> Self {
        Self::new(8192, Window::BlackmanHarris)
    }

    /// Record length.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// Captures a record from `source` and returns its spectrum.
    fn capture(&self, source: &mut dyn FnMut() -> f64) -> Spectrum {
        let data: Vec<f64> = (0..self.record_len).map(|_| source()).collect();
        Spectrum::periodogram(&data, self.window)
    }

    /// Captures a record and reads off the fundamental and harmonics
    /// `2..=n_harmonics`, given the stimulus frequency in cycles/sample:
    /// levels in dBc through [`HarmonicAnalysis::hd_dbc`], THD and SFDR
    /// through its `thd_db` and `sfdr_db`.
    pub fn measure_harmonics(
        &self,
        source: &mut dyn FnMut() -> f64,
        f_norm: f64,
        n_harmonics: usize,
    ) -> HarmonicAnalysis {
        let spec = self.capture(source);
        // Locate the fundamental bin nearest the expected frequency.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "bin index from a normalized frequency; `as` saturates NaN/∞ and the guard clamp below bounds it"
        )]
        let expected = (f_norm * self.record_len as f64).round() as usize;
        let guard = self.window.leakage_bins().max(1);
        let lo = expected.saturating_sub(guard).max(1);
        let hi = (expected + guard).min(spec.len() - 1);
        let fundamental_bin = (lo..=hi)
            .max_by(|&a, &b| spec.amplitude(a).total_cmp(&spec.amplitude(b)))
            .unwrap_or(expected);
        HarmonicAnalysis::new(&spec, fundamental_bin, n_harmonics)
    }
}

impl Default for DigitalOscilloscope {
    fn default() -> Self {
        Self::wavesurfer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::tone::{Multitone, Tone};

    fn mt_source(mt: Multitone) -> impl FnMut() -> f64 {
        let mut n = 0usize;
        move || {
            let v = mt.sample(n);
            n += 1;
            v
        }
    }

    #[test]
    fn reads_clean_tone_amplitude() {
        let scope = DigitalOscilloscope::wavesurfer();
        // Coherent-ish tone: 85 cycles in 8192 samples.
        let mut src = mt_source(Multitone::new(0.0).with_tone(Tone::new(85.0 / 8192.0, 0.5, 0.0)));
        let h = scope.measure_harmonics(&mut src, 85.0 / 8192.0, 3);
        assert!((h.fundamental - 0.5).abs() < 0.01, "{}", h.fundamental);
    }

    #[test]
    fn reads_harmonic_distortion_levels() {
        let f0 = 85.0 / 8192.0;
        let mt = Multitone::new(0.0)
            .with_tone(Tone::new(f0, 0.4, 0.0))
            .with_tone(Tone::new(2.0 * f0, 0.4 * 10f64.powf(-57.0 / 20.0), 0.3))
            .with_tone(Tone::new(3.0 * f0, 0.4 * 10f64.powf(-63.0 / 20.0), 1.0));
        let mut src = mt_source(mt);
        let h = DigitalOscilloscope::wavesurfer().measure_harmonics(&mut src, f0, 4);
        assert!((h.hd_dbc(2) + 57.0).abs() < 0.7, "HD2 {}", h.hd_dbc(2));
        assert!((h.hd_dbc(3) + 63.0).abs() < 0.7, "HD3 {}", h.hd_dbc(3));
    }

    #[test]
    fn non_coherent_tone_still_read_accurately() {
        // The scope sees free-running signals: 85.37 cycles per record.
        let scope = DigitalOscilloscope::wavesurfer();
        let mut src = mt_source(Multitone::new(0.0).with_tone(Tone::new(85.37 / 8192.0, 0.3, 0.7)));
        let h = scope.measure_harmonics(&mut src, 85.37 / 8192.0, 3);
        // Blackman-Harris scalloping ≈ 0.8 dB worst case.
        assert!((h.fundamental - 0.3).abs() < 0.03, "{}", h.fundamental);
    }

    #[test]
    fn thd_and_sfdr_consistent() {
        let f0 = 64.0 / 8192.0;
        let mt = Multitone::new(0.0)
            .with_tone(Tone::new(f0, 1.0, 0.0))
            .with_tone(Tone::new(2.0 * f0, 0.01, 0.0));
        let mut src = mt_source(mt);
        let h = DigitalOscilloscope::wavesurfer().measure_harmonics(&mut src, f0, 5);
        assert!((h.thd_db() - 40.0).abs() < 0.5, "{}", h.thd_db());
        assert!((h.sfdr_db() - 40.0).abs() < 0.5, "{}", h.sfdr_db());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_record_rejected() {
        let _ = DigitalOscilloscope::new(1000, Window::Hann);
    }
}
