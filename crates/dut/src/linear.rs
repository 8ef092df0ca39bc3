//! Linear DUTs built from s-domain transfer functions — a biquad zoo for
//! exercising the analyzer on different response shapes.

use crate::group::LtiSim;
use crate::traits::{Dut, DutSim};
use mixsig::ct::{FrequencyResponse, TransferFunction};
use mixsig::units::Hertz;

/// A linear DUT wrapping a continuous-time transfer function; simulation is
/// an exact ZOH discretization at the requested sampling rate.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearDut {
    tf: TransferFunction,
}

impl LinearDut {
    /// Wraps an arbitrary (proper) transfer function.
    pub(crate) fn new(tf: TransferFunction) -> Self {
        Self { tf }
    }

    /// 2nd-order low-pass (`f0`, `Q`, DC gain).
    pub fn lowpass(f0: Hertz, q: f64, gain: f64) -> Self {
        Self::new(TransferFunction::lowpass_biquad(f0, q, gain))
    }

    /// 2nd-order band-pass (`f0`, `Q`, center gain).
    pub fn bandpass(f0: Hertz, q: f64, gain: f64) -> Self {
        Self::new(TransferFunction::bandpass_biquad(f0, q, gain))
    }

    /// 2nd-order high-pass (`f0`, `Q`, high-frequency gain).
    pub fn highpass(f0: Hertz, q: f64, gain: f64) -> Self {
        Self::new(TransferFunction::highpass_biquad(f0, q, gain))
    }

    /// Notch filter: `H(s) = (s² + ω0²)/(s² + (ω0/Q)s + ω0²)`.
    pub fn notch(f0: Hertz, q: f64) -> Self {
        let w0 = 2.0 * std::f64::consts::PI * f0.value();
        Self::new(TransferFunction::new(
            vec![w0 * w0, 0.0, 1.0],
            vec![w0 * w0, w0 / q, 1.0],
        ))
    }

    /// First-order low-pass `H(s) = G/(1 + s/ω0)`.
    pub fn first_order_lowpass(f0: Hertz, gain: f64) -> Self {
        let w0 = 2.0 * std::f64::consts::PI * f0.value();
        Self::new(TransferFunction::new(vec![gain], vec![1.0, 1.0 / w0]))
    }
}

impl Dut for LinearDut {
    fn ideal_response(&self, f: Hertz) -> FrequencyResponse {
        self.tf.response(f)
    }

    fn instantiate(&self, fs: Hertz) -> Box<dyn DutSim> {
        Box::new(LtiSim::new(&self.tf, fs, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::goertzel::tone_amplitude_phase;
    use dsp::tone::Tone;

    fn measure_gain(dut: &dyn Dut, f_hz: f64, fs_hz: f64) -> f64 {
        let f_norm = f_hz / fs_hz;
        let mut sim = dut.instantiate(Hertz(fs_hz));
        let n = (20.0 / f_norm) as usize;
        let x = Tone::new(f_norm, 1.0, 0.0).samples(2 * n);
        let mut y = vec![0.0; x.len()];
        sim.process_block(&x, &mut y);
        let (a, _) = tone_amplitude_phase(&y[n..], f_norm);
        a
    }

    #[test]
    fn lowpass_gain_matches_analytic() {
        let dut = LinearDut::lowpass(Hertz(1000.0), std::f64::consts::FRAC_1_SQRT_2, 1.0);
        let fs = 96_000.0;
        for f in [100.0, 1000.0, 5000.0] {
            let measured = measure_gain(&dut, f, fs);
            let expect = dut.ideal_response(Hertz(f)).magnitude;
            assert!(
                (measured - expect).abs() < 0.01 * expect.max(0.01),
                "f={f}: {measured} vs {expect}"
            );
        }
    }

    #[test]
    fn bandpass_rejects_out_of_band() {
        let dut = LinearDut::bandpass(Hertz(1000.0), 5.0, 1.0);
        assert!(measure_gain(&dut, 1000.0, 96_000.0) > 0.95);
        assert!(measure_gain(&dut, 100.0, 96_000.0) < 0.1);
    }

    #[test]
    fn notch_kills_center() {
        let dut = LinearDut::notch(Hertz(1000.0), 2.0);
        // A perfect null is infinitely sensitive: ZOH images at fs∓f0
        // aliasing onto f0 plus the discretized zero displacement leave a
        // ≈3% residual at N = 96 — a sampled-data effect, not a defect.
        assert!(measure_gain(&dut, 1000.0, 96_000.0) < 0.05);
        assert!(measure_gain(&dut, 100.0, 96_000.0) > 0.9);
    }

    #[test]
    fn highpass_passes_high() {
        let dut = LinearDut::highpass(Hertz(1000.0), std::f64::consts::FRAC_1_SQRT_2, 1.0);
        assert!(measure_gain(&dut, 10_000.0, 192_000.0) > 0.95);
        assert!(measure_gain(&dut, 100.0, 192_000.0) < 0.02);
    }

    #[test]
    fn first_order_rolloff() {
        let dut = LinearDut::first_order_lowpass(Hertz(1000.0), 1.0);
        let g10k = dut.ideal_response(Hertz(10_000.0)).magnitude;
        assert!((20.0 * g10k.log10() + 20.04).abs() < 0.1);
    }
}
