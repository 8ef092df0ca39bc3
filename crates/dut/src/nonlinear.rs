//! Weak polynomial nonlinearity — the harmonic-distortion mechanism of
//! paper Fig. 10c.
//!
//! The demonstrator board's filter output stage distorts weakly; a
//! memoryless polynomial `y → y + a2·y² + a3·y³` applied after a linear
//! core reproduces the measured HD2/HD3 levels (−56…−66 dBc for a
//! ≈0.2 V-amplitude output). For a tone of output amplitude `A`:
//!
//! ```text
//! HD2 = a2·A/2,    HD3 = a3·A²/4
//! ```

use crate::traits::{Dut, DutSim};
use mixsig::ct::FrequencyResponse;
use mixsig::units::Hertz;

/// A memoryless polynomial `y + a2·y² + a3·y³`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Polynomial {
    /// Quadratic coefficient (1/V).
    pub a2: f64,
    /// Cubic coefficient (1/V²).
    pub a3: f64,
}

impl Polynomial {
    /// Creates a polynomial nonlinearity.
    pub const fn new(a2: f64, a3: f64) -> Self {
        Self { a2, a3 }
    }

    /// Applies the polynomial.
    #[inline]
    pub(crate) fn apply(&self, y: f64) -> f64 {
        y + self.a2 * y * y + self.a3 * y * y * y
    }

    /// Predicted 2nd-harmonic level in dBc for an output amplitude `a`.
    pub fn hd2_dbc(&self, a: f64) -> f64 {
        20.0 * (self.a2.abs() * a / 2.0).max(1e-300).log10()
    }

    /// Predicted 3rd-harmonic level in dBc for an output amplitude `a`.
    pub fn hd3_dbc(&self, a: f64) -> f64 {
        20.0 * (self.a3.abs() * a * a / 4.0).max(1e-300).log10()
    }
}

/// A [`Dut`] wrapping a linear core with an output-stage polynomial
/// nonlinearity.
pub struct NonlinearDut<D: Dut> {
    core: D,
    poly: Polynomial,
}

impl<D: Dut> NonlinearDut<D> {
    /// Wraps `core` with the polynomial `poly`.
    pub fn new(core: D, poly: Polynomial) -> Self {
        Self { core, poly }
    }
}

impl<D: Dut> Dut for NonlinearDut<D> {
    fn ideal_response(&self, f: Hertz) -> FrequencyResponse {
        // The reference response is the linear part; distortion is the
        // deviation under test.
        self.core.ideal_response(f)
    }

    fn instantiate(&self, fs: Hertz) -> Box<dyn DutSim> {
        Box::new(NonlinearDutSim {
            core: self.core.instantiate(fs),
            poly: self.poly,
        })
    }
}

/// Streaming simulator of a [`NonlinearDut`].
struct NonlinearDutSim {
    core: Box<dyn DutSim>,
    poly: Polynomial,
}

impl DutSim for NonlinearDutSim {
    fn step(&mut self, input: f64) -> f64 {
        self.poly.apply(self.core.step(input))
    }

    fn process_block(&mut self, input: &[f64], out: &mut [f64]) {
        self.core.process_block(input, out);
        for y in out.iter_mut() {
            *y = self.poly.apply(*y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearDut;
    use dsp::goertzel::tone_amplitude_phase;
    use dsp::tone::Tone;

    #[test]
    fn polynomial_identity_when_zero() {
        let p = Polynomial::default();
        assert_eq!(p.apply(0.7), 0.7);
    }

    #[test]
    fn hd_levels_match_closed_form() {
        // Distort a pure tone and read the harmonics.
        let poly = Polynomial::new(0.02, 0.05);
        let n = 9600;
        let f = 10.0 / n as f64;
        let a = 0.4;
        let y: Vec<f64> = Tone::new(f, a, 0.0)
            .samples(n)
            .iter()
            .map(|&v| poly.apply(v))
            .collect();
        let (a1, _) = tone_amplitude_phase(&y, f);
        let (a2, _) = tone_amplitude_phase(&y, 2.0 * f);
        let (a3, _) = tone_amplitude_phase(&y, 3.0 * f);
        let hd2 = 20.0 * (a2 / a1).log10();
        let hd3 = 20.0 * (a3 / a1).log10();
        assert!((hd2 - poly.hd2_dbc(a)).abs() < 0.1, "hd2 {hd2}");
        assert!((hd3 - poly.hd3_dbc(a)).abs() < 0.1, "hd3 {hd3}");
    }

    #[test]
    fn wrapped_dut_keeps_linear_response_reference() {
        let lin = LinearDut::lowpass(Hertz(1000.0), std::f64::consts::FRAC_1_SQRT_2, 1.0);
        let expect = lin.ideal_response(Hertz(500.0)).magnitude;
        let nl = NonlinearDut::new(lin, Polynomial::new(0.01, 0.02));
        assert_eq!(nl.ideal_response(Hertz(500.0)).magnitude, expect);
    }

    #[test]
    fn distortion_appears_after_filter() {
        // Harmonics generated at the output are NOT re-filtered: a tone near
        // the cutoff still shows the closed-form HD2.
        let lin = LinearDut::lowpass(Hertz(1000.0), std::f64::consts::FRAC_1_SQRT_2, 1.0);
        let poly = Polynomial::new(0.0134, 0.0);
        let nl = NonlinearDut::new(lin, poly);
        let fs = 153_600.0; // 96 × 1.6 kHz
        let f_norm = 1600.0 / fs;
        let mut sim = nl.instantiate(Hertz(fs));
        let x = Tone::new(f_norm, 0.4, 0.0).samples(96 * 400);
        let mut y = vec![0.0; x.len()];
        sim.process_block(&x, &mut y);
        let steady = &y[96 * 200..];
        let (a1, _) = tone_amplitude_phase(steady, f_norm);
        let (a2, _) = tone_amplitude_phase(steady, 2.0 * f_norm);
        let hd2 = 20.0 * (a2 / a1).log10();
        let expect = poly.hd2_dbc(a1);
        assert!((hd2 - expect).abs() < 0.5, "{hd2} vs {expect}");
    }
}
