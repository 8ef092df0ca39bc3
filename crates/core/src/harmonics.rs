//! Harmonic-distortion reporting (paper Fig. 10c).
//!
//! The distortion mode,
//! [`NetworkAnalyzer::measure_harmonics_with`](crate::NetworkAnalyzer::measure_harmonics_with),
//! returns a [`DistortionReport`] of harmonics `1..=max_harmonic`: at
//! `N = 96` the fundamental and at most H2 to H4.

use crate::analyzer::is_positive;
use sdeval::{Bounded, HarmonicMeasurement};

/// A harmonic-distortion characterization of a DUT output: the fundamental
/// plus harmonic levels, each with its guaranteed enclosure.
#[derive(Debug, Clone, PartialEq)]
pub struct DistortionReport {
    measurements: Vec<HarmonicMeasurement>,
}

impl DistortionReport {
    /// A report of per-harmonic measurements ordered `k = 1..`, the
    /// fundamental first, as the distortion mode measures them once it
    /// has refused a request for no harmonic.
    pub(crate) fn new(measurements: Vec<HarmonicMeasurement>) -> Self {
        Self { measurements }
    }

    /// The underlying measurements.
    pub(crate) fn measurements(&self) -> &[HarmonicMeasurement] {
        &self.measurements
    }

    /// The fundamental amplitude enclosure, volts.
    pub fn fundamental(&self) -> Bounded {
        self.measurements[0].amplitude
    }

    /// The level of harmonic `h` relative to the fundamental, in dBc, with
    /// the enclosure propagated through the interval ratio. `None` for
    /// `h < 2`, a harmonic that was not measured, or a fundamental whose
    /// enclosure reaches zero (no ratio can be bounded against it).
    pub fn hd_dbc(&self, h: u32) -> Option<Bounded> {
        if h < 2 || !is_positive(self.fundamental().lo) {
            return None;
        }
        let m = self.measurements.iter().find(|m| m.k == h)?;
        Some(
            m.amplitude
                .ratio(&self.fundamental())
                .map_monotonic(|r| 20.0 * r.max(1e-15).log10()),
        )
    }

    /// Total harmonic distortion (positive dB, paper convention) using the
    /// estimates.
    pub fn thd_db(&self) -> f64 {
        let a1 = self.fundamental().est;
        let rss: f64 = self.measurements[1..]
            .iter()
            .map(|m| m.amplitude.est * m.amplitude.est)
            .sum::<f64>()
            .sqrt();
        -20.0 * (rss.max(1e-300) / a1).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdeval::SignaturePair;

    fn fake_measurement(k: u32, amp: f64, half_width: f64) -> HarmonicMeasurement {
        HarmonicMeasurement {
            k,
            amplitude: Bounded::new(amp - half_width, amp, amp + half_width),
            phase: Bounded::point(0.0),
            signatures: SignaturePair {
                i1: 0.0,
                i2: 0.0,
                m: 2,
                n: 96,
                k,
            },
            samples_consumed: 0,
        }
    }

    fn report() -> DistortionReport {
        DistortionReport::new(vec![
            fake_measurement(1, 0.2, 1e-4),
            fake_measurement(2, 0.2e-2, 1e-5),
            fake_measurement(3, 0.1e-2, 1e-5),
        ])
    }

    #[test]
    fn hd_levels() {
        let r = report();
        let hd2 = r.hd_dbc(2).unwrap();
        assert!((hd2.est + 40.0).abs() < 0.01, "{hd2}");
        assert!(hd2.lo < hd2.est && hd2.est < hd2.hi);
        let hd3 = r.hd_dbc(3).unwrap();
        assert!((hd3.est + 46.02).abs() < 0.05, "{hd3}");
    }

    #[test]
    fn thd_combines() {
        let r = report();
        let rss = (0.002f64.powi(2) + 0.001f64.powi(2)).sqrt();
        let expect = -20.0 * (rss / 0.2).log10();
        assert!((r.thd_db() - expect).abs() < 0.01);
    }

    #[test]
    fn fundamental_accessor() {
        assert_eq!(report().fundamental().est, 0.2);
    }

    #[test]
    fn missing_harmonic_is_none() {
        let r = report();
        assert_eq!(r.hd_dbc(5), None);
        assert_eq!(r.hd_dbc(1), None);
        assert_eq!(r.hd_dbc(0), None);
    }

    #[test]
    fn fundamental_reaching_zero_has_no_dbc_level() {
        // Regression: an enclosure `[0, x]` used to panic in the interval
        // division.
        let r = DistortionReport::new(vec![
            fake_measurement(1, 1e-4, 1e-4),
            fake_measurement(2, 1e-5, 1e-6),
        ]);
        assert_eq!(r.fundamental().lo, 0.0);
        assert_eq!(r.hd_dbc(2), None);
    }
}
