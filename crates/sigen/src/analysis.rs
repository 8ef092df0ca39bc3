//! Spectral self-test of the generator (paper Fig. 8b).
//!
//! Because the stimulus is coherent with the master clock by construction,
//! harmonic amplitudes can be measured exactly with single-bin DFTs over an
//! integer number of periods — no windowing needed. [`GeneratorSpectrum`]
//! packages the fundamental, the harmonic set, THD and SFDR the way the
//! paper reports them.

use crate::generator::SinewaveGenerator;
use dsp::db::amplitude_to_db;
use dsp::goertzel::dft_bin;
use mixsig::clock::OVERSAMPLING_RATIO;

/// Harmonic decomposition of the generator output.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorSpectrum {
    /// Fundamental amplitude (volts peak).
    pub fundamental: f64,
    /// Harmonic amplitudes `H2..` (volts peak).
    pub harmonics: Vec<f64>,
    /// RMS noise floor estimate from off-harmonic probe bins (volts).
    pub noise_rms: f64,
}

impl GeneratorSpectrum {
    /// Measures the generator over `periods` stimulus periods after letting
    /// the start-up transient decay, extracting harmonics `2..=n_harmonics`.
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0` or `n_harmonics < 2`.
    pub fn measure(gen: &mut SinewaveGenerator, periods: usize, n_harmonics: usize) -> Self {
        assert!(periods > 0, "need at least one period");
        assert!(n_harmonics >= 2, "need at least the 2nd harmonic");
        gen.settle(40);
        let n = periods * OVERSAMPLING_RATIO as usize;
        let w = gen.waveform_at_feva(n);
        let half_n = n as f64 / 2.0;
        let amp_at = |cycles: f64| dft_bin(&w, cycles / n as f64).abs() / half_n;
        let fundamental = amp_at(periods as f64);
        let harmonics: Vec<f64> = (2..=n_harmonics)
            .map(|k| amp_at((k * periods) as f64))
            .collect();
        // Probe off-harmonic bins for the noise floor (coherent bins between
        // harmonics).
        let probes = [1.5, 2.5, 3.5, 4.5, 5.5];
        let noise_rms = (probes
            .iter()
            .map(|&k| {
                let a = amp_at(k * periods as f64);
                a * a / 2.0
            })
            .sum::<f64>()
            / probes.len() as f64)
            .sqrt();
        Self {
            fundamental,
            harmonics,
            noise_rms,
        }
    }

    /// Harmonic `h` (2-based) relative to the carrier, dBc (negative).
    pub fn hd_dbc(&self, h: usize) -> f64 {
        assert!(h >= 2, "harmonic index starts at 2");
        amplitude_to_db(self.harmonics[h - 2].max(1e-300) / self.fundamental)
    }

    /// Total harmonic distortion as a positive dB figure (paper convention:
    /// "the THD is 67 dB").
    pub fn thd_db(&self) -> f64 {
        let rss: f64 = self.harmonics.iter().map(|a| a * a).sum::<f64>().sqrt();
        -amplitude_to_db(rss.max(1e-300) / self.fundamental)
    }

    /// Spurious-free dynamic range over the measured harmonic set, positive
    /// dB (paper convention: "the SFDR is 70 dB").
    pub fn sfdr_db(&self) -> f64 {
        let worst = self.harmonics.iter().copied().fold(0.0f64, f64::max);
        -amplitude_to_db(worst.max(1e-300) / self.fundamental)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, SinewaveGenerator};
    use mixsig::clock::MasterClock;
    use mixsig::units::Volts;

    #[test]
    fn ideal_generator_has_excellent_purity() {
        let mut gen = SinewaveGenerator::new(GeneratorConfig::ideal(
            MasterClock::from_hz(6.0e6),
            Volts(0.25),
        ));
        let spec = GeneratorSpectrum::measure(&mut gen, 64, 6);
        assert!(spec.thd_db() > 80.0, "THD {}", spec.thd_db());
        assert!(spec.sfdr_db() > 80.0, "SFDR {}", spec.sfdr_db());
        assert!((spec.fundamental - 0.483).abs() < 0.02);
    }

    #[test]
    fn cmos_generator_lands_near_paper_figures() {
        // Paper Fig. 8b: SFDR ≈ 70 dB, THD ≈ 67 dB for a 1 Vpp output.
        // Our behavioral corner should land in the same decade: between
        // 55 and 90 dB depending on the mismatch draw.
        let mut worst_sfdr = f64::INFINITY;
        let mut best_sfdr = 0.0f64;
        for seed in 0..5 {
            let mut gen = SinewaveGenerator::new(GeneratorConfig::cmos_035um(
                MasterClock::from_hz(6.0e6),
                Volts(0.25),
                seed,
            ));
            let spec = GeneratorSpectrum::measure(&mut gen, 64, 8);
            worst_sfdr = worst_sfdr.min(spec.sfdr_db());
            best_sfdr = best_sfdr.max(spec.sfdr_db());
        }
        assert!(worst_sfdr > 55.0, "worst SFDR {worst_sfdr}");
        assert!(best_sfdr < 110.0, "best SFDR {best_sfdr}");
    }

    #[test]
    fn hd_dbc_is_negative_of_component() {
        let mut gen = SinewaveGenerator::new(GeneratorConfig::cmos_035um(
            MasterClock::from_hz(6.0e6),
            Volts(0.25),
            11,
        ));
        let spec = GeneratorSpectrum::measure(&mut gen, 32, 5);
        for h in 2..=5 {
            assert!(spec.hd_dbc(h) < 0.0);
        }
        // SFDR equals the worst single harmonic.
        let worst = (2..=5)
            .map(|h| spec.hd_dbc(h))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((spec.sfdr_db() + worst).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn zero_periods_panics() {
        let mut gen = SinewaveGenerator::new(GeneratorConfig::ideal(
            MasterClock::from_hz(6.0e6),
            Volts(0.1),
        ));
        let _ = GeneratorSpectrum::measure(&mut gen, 0, 3);
    }
}
