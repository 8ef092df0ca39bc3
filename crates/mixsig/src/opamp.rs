//! Block-level op-amp model.
//!
//! The paper implements one fully-differential folded-cascode amplifier
//! (Fig. 3) and reuses it in both the generator biquad and the ΣΔ
//! modulators. At behavioral level the amplifier is characterized by the
//! handful of parameters that set every measurable figure in the paper's
//! evaluation:
//!
//! * **finite DC gain** `A0` — produces integrator leak and gain error,
//! * **gain–bandwidth product** — incomplete settling within a clock phase,
//! * **slew rate** — large-step settling limits,
//! * **output swing** — saturation,
//! * **input-referred offset** — the term the evaluator's signature
//!   arithmetic must cancel,
//! * **input-referred noise density** — broadband noise floor.

use crate::units::{Hertz, Seconds, Volts};

/// Behavioral model of a (fully differential) operational amplifier.
///
/// Use [`OpAmpModel::ideal`] for textbook behaviour and
/// [`OpAmpModel::folded_cascode_035um`] for values representative of the
/// paper's 0.35 µm implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAmpModel {
    /// DC open-loop gain (linear, not dB).
    pub dc_gain: f64,
    /// Gain–bandwidth product.
    pub gbw: Hertz,
    /// Slew rate in volts/second.
    pub slew_rate: f64,
    /// Differential output swing limit (± volts).
    pub output_swing: Volts,
    /// Input-referred offset voltage.
    pub offset: Volts,
    /// Input-referred white noise density in V/√Hz.
    pub noise_density: f64,
    /// Output-level-dependent cubic gain compression, 1/V²: the effective
    /// charge-transfer gain shrinks as `1 − cubic·v_out²`. This is the
    /// dominant signal-dependent distortion mechanism of an SC stage and
    /// what limits the generator's SFDR in silicon.
    pub cubic: f64,
}

impl OpAmpModel {
    /// An ideal op-amp: infinite gain, instantaneous settling, no limits.
    pub fn ideal() -> Self {
        Self {
            dc_gain: f64::INFINITY,
            gbw: Hertz(f64::INFINITY),
            slew_rate: f64::INFINITY,
            output_swing: Volts(f64::INFINITY),
            offset: Volts(0.0),
            noise_density: 0.0,
            cubic: 0.0,
        }
    }

    /// Representative folded-cascode amplifier in a 0.35 µm CMOS process,
    /// sized for the paper's audio-range BIST blocks: ~72 dB DC gain,
    /// 30 MHz GBW, 20 V/µs slew, ±2.5 V differential swing (two outputs at
    /// ±1.25 V around the common mode of a 3.3 V supply).
    pub fn folded_cascode_035um() -> Self {
        Self {
            dc_gain: 4000.0, // 72 dB
            gbw: Hertz::from_mhz(30.0),
            slew_rate: 20.0e6,
            output_swing: Volts(2.5),
            offset: Volts(0.0),
            noise_density: 12.0e-9,
            cubic: 6.0e-3,
        }
    }

    /// Returns the model with a different DC gain (linear).
    #[must_use]
    pub fn with_dc_gain(mut self, dc_gain: f64) -> Self {
        self.dc_gain = dc_gain;
        self
    }

    /// Returns the model with a different input-referred offset.
    #[must_use]
    pub fn with_offset(mut self, offset: Volts) -> Self {
        self.offset = offset;
        self
    }

    /// Returns the model with a different GBW.
    #[must_use]
    pub fn with_gbw(mut self, gbw: Hertz) -> Self {
        self.gbw = gbw;
        self
    }

    /// Returns the model with a different cubic compression coefficient.
    #[must_use]
    pub fn with_cubic(mut self, cubic: f64) -> Self {
        self.cubic = cubic;
        self
    }

    /// The charge-transfer gain compression factor at output level `v`.
    pub(crate) fn compression_factor(&self, v: f64) -> f64 {
        1.0 - self.cubic * v * v
    }

    /// Fraction of an ideal charge-transfer step that completes within
    /// `settle_time`, given a closed-loop feedback factor `beta`.
    ///
    /// Single-pole settling: the closed-loop time constant is
    /// `τ = 1/(2π·β·GBW)`; the completed fraction is `1 − e^{−t/τ}`.
    /// Returns 1.0 for the ideal model.
    pub fn settling_fraction(&self, beta: f64, settle_time: Seconds) -> f64 {
        if !self.gbw.value().is_finite() || self.gbw.value() <= 0.0 {
            return 1.0;
        }
        let tau = 1.0 / (2.0 * std::f64::consts::PI * beta * self.gbw.value());
        let frac = 1.0 - (-settle_time.value() / tau).exp();
        frac.clamp(0.0, 1.0)
    }

    /// Output step actually achieved when asked to move by `step` volts in
    /// `settle_time`, accounting for slew-rate limiting followed by linear
    /// settling. Returns the achieved step (same sign as `step`).
    pub fn settled_step(&self, step: Volts, beta: f64, settle_time: Seconds) -> Volts {
        let magnitude = step.value().abs();
        if magnitude == 0.0 {
            return Volts(0.0);
        }
        let sign = step.value().signum();
        if !self.slew_rate.is_finite() {
            return Volts(sign * magnitude * self.settling_fraction(beta, settle_time));
        }
        // Slewing phase: the amp slews while the remaining error exceeds the
        // linear region boundary v_lin = SR·τ.
        let tau = 1.0 / (2.0 * std::f64::consts::PI * beta * self.gbw.value());
        let v_lin = self.slew_rate * tau;
        if magnitude <= v_lin {
            return Volts(sign * magnitude * self.settling_fraction(beta, settle_time));
        }
        let t_slew = (magnitude - v_lin) / self.slew_rate;
        if t_slew >= settle_time.value() {
            // Never leaves slewing: moved SR·t.
            return Volts(sign * self.slew_rate * settle_time.value());
        }
        let t_lin = settle_time.value() - t_slew;
        let remaining = v_lin * (-t_lin / tau).exp();
        Volts(sign * (magnitude - remaining))
    }

    /// Clamps an output voltage to the swing limit. Inlined, so a group
    /// kernel instantiated in another crate keeps its slots' states in
    /// registers across the clamp.
    #[inline]
    pub(crate) fn clamp_output(&self, v: Volts) -> Volts {
        v.clamped(self.output_swing)
    }

    /// Finite-gain closed-loop error factor for a feedback factor `beta`:
    /// the static gain error `1/(1 + 1/(A0·β))`.
    pub(crate) fn static_gain_factor(&self, beta: f64) -> f64 {
        1.0 / (1.0 + 1.0 / (self.dc_gain * beta))
    }
}

impl Default for OpAmpModel {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_has_no_error() {
        let op = OpAmpModel::ideal();
        assert_eq!(op.settling_fraction(0.5, Seconds(1e-9)), 1.0);
        assert!((op.static_gain_factor(0.5) - 1.0).abs() < 1e-9);
        let s = op.settled_step(Volts(1.0), 0.5, Seconds(1e-9));
        assert!((s.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn settling_improves_with_time() {
        let op = OpAmpModel::folded_cascode_035um();
        let fast = op.settling_fraction(0.5, Seconds(10.0e-9));
        let slow = op.settling_fraction(0.5, Seconds(100.0e-9));
        assert!(slow > fast);
        assert!(slow <= 1.0);
    }

    #[test]
    fn half_clock_at_6mhz_settles_well() {
        // f_eva = 6 MHz → half period 83 ns; with β=0.7 and 30 MHz GBW,
        // settling error should be far below 0.1%.
        let op = OpAmpModel::folded_cascode_035um();
        let frac = op.settling_fraction(0.7, Seconds(83.0e-9));
        assert!(frac > 0.9999, "{frac}");
    }

    #[test]
    fn small_step_is_linear_settling() {
        let op = OpAmpModel::folded_cascode_035um();
        let t = Seconds(50.0e-9);
        let s = op.settled_step(Volts(0.01), 0.5, t);
        let expect = 0.01 * op.settling_fraction(0.5, t);
        assert!((s.value() - expect).abs() < 1e-12);
    }

    #[test]
    fn large_step_is_slew_limited() {
        let mut op = OpAmpModel::folded_cascode_035um();
        op.slew_rate = 1.0e6; // deliberately slow: 1 V/µs
        let t = Seconds(100.0e-9);
        // Asked to move 1 V in 100 ns but can slew only 0.1 V.
        let s = op.settled_step(Volts(1.0), 0.5, t);
        assert!((s.value() - 0.1).abs() < 1e-6, "{}", s.value());
    }

    #[test]
    fn negative_steps_are_symmetric() {
        let op = OpAmpModel::folded_cascode_035um();
        let t = Seconds(30.0e-9);
        let up = op.settled_step(Volts(0.5), 0.6, t);
        let down = op.settled_step(Volts(-0.5), 0.6, t);
        assert!((up.value() + down.value()).abs() < 1e-15);
    }

    #[test]
    fn static_gain_factor_matches_formula() {
        let op = OpAmpModel::ideal().with_dc_gain(1000.0);
        let beta = 0.5;
        let expect = 1.0 / (1.0 + 1.0 / (1000.0 * 0.5));
        assert!((op.static_gain_factor(beta) - expect).abs() < 1e-15);
    }

    #[test]
    fn clamp_limits_output() {
        let op = OpAmpModel::folded_cascode_035um();
        assert_eq!(op.clamp_output(Volts(5.0)), Volts(2.5));
        assert_eq!(op.clamp_output(Volts(-5.0)), Volts(-2.5));
        assert_eq!(op.clamp_output(Volts(0.3)), Volts(0.3));
    }

    #[test]
    fn compression_shrinks_gain_with_level() {
        let op = OpAmpModel::folded_cascode_035um();
        assert!(op.compression_factor(0.0) == 1.0);
        assert!(op.compression_factor(1.0) < 1.0);
        assert!((op.compression_factor(1.0) - op.compression_factor(-1.0)).abs() < 1e-15);
        assert_eq!(OpAmpModel::ideal().compression_factor(2.0), 1.0);
    }

    #[test]
    fn builder_methods() {
        let op = OpAmpModel::ideal()
            .with_dc_gain(100.0)
            .with_offset(Volts(0.001))
            .with_gbw(Hertz::from_mhz(5.0));
        assert_eq!(op.dc_gain, 100.0);
        assert_eq!(op.offset, Volts(0.001));
        assert_eq!(op.gbw, Hertz(5.0e6));
    }
}
