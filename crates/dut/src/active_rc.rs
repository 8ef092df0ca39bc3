//! The paper's DUT: an active-RC 2nd-order low-pass filter, 1 kHz cut-off.
//!
//! Modelled as a Butterworth biquad (Fig. 10a shows no peaking) with:
//!
//! * component tolerances — discrete R/C parts shift `f0` and `Q`,
//! * a finite-GBW parasitic pole of the board op-amp,
//! * an optional weak output nonlinearity for the Fig. 10c distortion
//!   experiment (defaults chosen to land HD2/HD3 in the paper's
//!   −56…−66 dBc window at the paper's drive level).

use crate::group::LtiSim;
use crate::nonlinear::Polynomial;
use crate::traits::{Dut, DutSim};
use mixsig::ct::{FrequencyResponse, TransferFunction};
use mixsig::noise::NoiseSource;
use mixsig::units::Hertz;

/// The paper's active-RC low-pass DUT.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveRcFilter {
    f0: Hertz,
    q: f64,
    gain: f64,
    parasitic_pole: Option<Hertz>,
    poly: Polynomial,
}

impl ActiveRcFilter {
    /// A nominal active-RC biquad.
    pub fn new(f0: Hertz, q: f64, gain: f64) -> Self {
        Self {
            f0,
            q,
            gain,
            parasitic_pole: None,
            poly: Polynomial::default(),
        }
    }

    /// The DUT of the paper's demonstrator board: 1 kHz Butterworth
    /// low-pass, unity DC gain, 1 MHz board-op-amp parasitic pole, and an
    /// output nonlinearity sized for the Fig. 10c distortion levels
    /// (HD2 ≈ −57 dBc, HD3 ≈ −63 dBc at the ≈0.146 V output amplitude that
    /// results from the paper's 800 mVpp, 1.6 kHz drive —
    /// |H(1.6 kHz)| ≈ 0.364 for the 1 kHz Butterworth).
    pub fn paper_dut() -> Self {
        Self {
            f0: Hertz(1000.0),
            q: std::f64::consts::FRAC_1_SQRT_2,
            gain: 1.0,
            parasitic_pole: Some(Hertz(1.0e6)),
            // HD2 = a2·A/2 = −57 dBc at A = 0.146 V → a2 ≈ 0.0194;
            // HD3 = a3·A²/4 = −63 dBc at A = 0.146 V → a3 ≈ 0.133.
            poly: Polynomial::new(0.0194, 0.133),
        }
    }

    /// Returns a perfectly linear copy (for pure Bode experiments).
    #[must_use]
    pub fn linearized(mut self) -> Self {
        self.poly = Polynomial::default();
        self
    }

    /// "Populates the board" with toleranced parts: `f0` and `Q` are
    /// perturbed by the relative 1-σ `tolerance` (e.g. 0.01 for 1 % parts).
    #[must_use]
    pub fn fabricate(mut self, tolerance: f64, seed: u64) -> Self {
        let mut rng = NoiseSource::new(seed);
        // f0 = 1/(2π√(R1 C1 R2 C2)): four parts, each toleranced.
        let f0_factor: f64 = (0..4)
            .map(|_| 1.0 + rng.gaussian(tolerance))
            .product::<f64>()
            .sqrt()
            .recip();
        let q_factor = 1.0 + rng.gaussian(tolerance);
        self.f0 = Hertz(self.f0.value() * f0_factor);
        self.q *= q_factor;
        self
    }

    /// Cut-off frequency.
    pub fn f0(&self) -> Hertz {
        self.f0
    }

    /// Quality factor.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The output nonlinearity.
    pub fn polynomial(&self) -> Polynomial {
        self.poly
    }

    /// The linear transfer function including the parasitic pole.
    pub fn transfer_function(&self) -> TransferFunction {
        let biquad = TransferFunction::lowpass_biquad(self.f0, self.q, self.gain);
        match self.parasitic_pole {
            None => biquad,
            Some(fp) => {
                // Multiply denominators: (den2(s))·(1 + s/ωp).
                let wp = 2.0 * std::f64::consts::PI * fp.value();
                let d = biquad.denominator().to_vec();
                let mut den = vec![0.0; d.len() + 1];
                for (i, &c) in d.iter().enumerate() {
                    den[i] += c;
                    den[i + 1] += c / wp;
                }
                TransferFunction::new(biquad.numerator().to_vec(), den)
            }
        }
    }
}

impl Dut for ActiveRcFilter {
    fn ideal_response(&self, f: Hertz) -> FrequencyResponse {
        self.transfer_function().response(f)
    }

    fn instantiate(&self, fs: Hertz) -> Box<dyn DutSim> {
        Box::new(LtiSim::new(&self.transfer_function(), fs, Some(self.poly)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dut_is_1khz_butterworth() {
        let dut = ActiveRcFilter::paper_dut();
        assert_eq!(dut.f0(), Hertz(1000.0));
        // -3 dB at 1 kHz (parasitic pole at 1 MHz adds ≈0.00 dB there).
        let db = dut.ideal_magnitude_db(Hertz(1000.0));
        assert!((db + 3.01).abs() < 0.05, "{db}");
        // Unity gain at DC.
        assert!(dut.ideal_magnitude_db(Hertz(1.0)).abs() < 0.01);
    }

    #[test]
    fn rolloff_is_40db_per_decade() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let g1k = dut.ideal_magnitude_db(Hertz(2000.0));
        let g10k = dut.ideal_magnitude_db(Hertz(20_000.0));
        let slope = g10k - g1k;
        assert!((slope + 40.0).abs() < 1.5, "slope {slope}");
    }

    #[test]
    fn phase_heads_past_minus_180_with_parasitic() {
        let dut = ActiveRcFilter::paper_dut();
        // 2nd-order alone would asymptote at -180°; the parasitic pole
        // pushes beyond (paper Fig. 10b shows ≈ -200° at 100 kHz). Past
        // -180° the wrapped atan2 representation jumps to +90..+180.
        let p = dut.ideal_phase_deg(Hertz(100_000.0));
        assert!(p > 90.0, "{p} (wrapped; should represent < -180°)");
        // Just below -180° the response is still unwrapped-negative:
        let p2 = dut.ideal_phase_deg(Hertz(30_000.0));
        assert!(p2 < -150.0, "{p2}");
    }

    #[test]
    fn fabricate_perturbs_but_preserves_shape() {
        let nominal = ActiveRcFilter::paper_dut();
        let fab = nominal.clone().fabricate(0.01, 42);
        let rel = (fab.f0().value() - 1000.0).abs() / 1000.0;
        assert!(rel > 1e-6 && rel < 0.1, "rel {rel}");
        assert!((fab.q() - nominal.q()).abs() / nominal.q() < 0.1);
    }

    #[test]
    fn fabricate_is_deterministic() {
        let a = ActiveRcFilter::paper_dut().fabricate(0.05, 9);
        let b = ActiveRcFilter::paper_dut().fabricate(0.05, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn nonlinearity_levels_are_in_paper_window() {
        // At the filter-output amplitude of the Fig. 10c drive
        // (800 mVpp @ 1.6 kHz → A_out ≈ 0.212 V), HD2 and HD3 must land in
        // the paper's −56…−66 dBc range.
        let dut = ActiveRcFilter::paper_dut();
        let a_out = 0.4 * dut.ideal_response(Hertz(1600.0)).magnitude;
        let hd2 = dut.polynomial().hd2_dbc(a_out);
        let hd3 = dut.polynomial().hd3_dbc(a_out);
        assert!(hd2 < -54.0 && hd2 > -60.0, "HD2 {hd2}");
        assert!(hd3 < -60.0 && hd3 > -68.0, "HD3 {hd3}");
    }

    #[test]
    fn simulation_matches_ideal_response() {
        use dsp::goertzel::tone_amplitude_phase;
        use dsp::tone::Tone;
        let dut = ActiveRcFilter::paper_dut().linearized();
        let fs = 96_000.0;
        let f_norm = 1.0 / 96.0; // 1 kHz at N = 96
        let mut sim = dut.instantiate(Hertz(fs));
        let x = Tone::new(f_norm, 0.4, 0.0).samples(96 * 200);
        let mut y = vec![0.0; x.len()];
        sim.process_block(&x, &mut y);
        let (a, _) = tone_amplitude_phase(&y[96 * 100..], f_norm);
        let expect = 0.4 * dut.ideal_response(Hertz(1000.0)).magnitude;
        assert!((a - expect).abs() < 0.002, "{a} vs {expect}");
    }

    #[test]
    fn transfer_function_without_parasitic_is_second_order() {
        let dut = ActiveRcFilter::new(Hertz(1000.0), 1.0, 2.0);
        assert_eq!(dut.transfer_function().denominator().len(), 3);
        // The paper DUT carries the 1 MHz parasitic pole.
        let with_p = ActiveRcFilter::paper_dut();
        assert_eq!(with_p.transfer_function().denominator().len(), 4);
    }
}
