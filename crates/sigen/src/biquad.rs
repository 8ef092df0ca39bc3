//! The generator's SC biquad (paper Fig. 2a, Table I).
//!
//! Two switched-capacitor integrators in a loop: integrating capacitors
//! `A` and `B`, coupling `C`, loop feedback `D`, damping `F`. Charge is
//! transferred on both clock phases, so the biquad runs at `2·f_gen` and
//! its resonance `ω0·T = √(C·D/(A·B)) ≈ 2π/32` lands exactly on
//! `f_wave`. See the crate-level topology note.

use dsp::Complex64;
use mixsig::mismatch::{CapacitorLot, MatchingSpec};
use mixsig::noise::NoiseSource;
use mixsig::opamp::OpAmpModel;
use mixsig::sc::{Branch, ScIntegrator, ScStepPlan};
use mixsig::units::Seconds;

/// Hoisted [`ScStepPlan`]s for the biquad's transfer loop: one first-
/// integrator plan per input capacitor (the sequencer revisits the same
/// 16 fabricated staircase weights every period) plus the second
/// integrator's single fixed topology. Built by
/// [`GeneratorBiquad::plan_transfers`], consumed by
/// `GeneratorBiquad::transfer_planned_in`.
#[derive(Debug, Clone)]
pub(crate) struct TransferPlans {
    int1: Vec<ScStepPlan>,
    int2: ScStepPlan,
    /// Every plan is [exact](ScStepPlan::is_exact).
    exact: bool,
}

impl TransferPlans {
    /// Whether every plan is [exact](ScStepPlan::is_exact), so transfers
    /// may take the integrators' exact instantiation.
    pub(crate) fn is_exact(&self) -> bool {
        self.exact
    }
}

/// The normalized capacitor values of paper Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableI {
    /// First integrating capacitor.
    pub a: f64,
    /// Second integrating capacitor.
    pub b: f64,
    /// Coupling capacitor (the unit).
    pub c: f64,
    /// Loop feedback capacitor.
    pub d: f64,
    /// Damping capacitor.
    pub f: f64,
}

/// Paper Table I: A = 5.194, B = 12.749, C = 1, D = 2.574, F = 1.014.
pub const TABLE_I: TableI = TableI {
    a: 5.194,
    b: 12.749,
    c: 1.0,
    d: 2.574,
    f: 1.014,
};

impl TableI {
    /// The loop's resonance advance per transfer: `ω0·T = √(C·D/(A·B))`.
    pub fn omega0_t(&self) -> f64 {
        (self.c * self.d / (self.a * self.b)).sqrt()
    }

    /// The loop's quality factor `Q = √(C·D·A·B)/(F·A)` (damping `F/B`
    /// per transfer against resonance `ω0·T`).
    pub fn quality_factor(&self) -> f64 {
        self.omega0_t() * self.b / self.f
    }

    /// Capacitor values in fabrication order `[A, B, C, D, F]`.
    pub(crate) fn as_array(&self) -> [f64; 5] {
        [self.a, self.b, self.c, self.d, self.f]
    }
}

/// The two-integrator SC loop with Table I capacitors.
#[derive(Debug, Clone)]
pub struct GeneratorBiquad {
    caps: TableI,
    int1: ScIntegrator,
    int2: ScIntegrator,
}

impl GeneratorBiquad {
    /// A biquad with fabricated capacitors, an op-amp model and the noise
    /// of `noise`.
    ///
    /// `settle_time` is the time available per charge transfer;
    /// `unit_cap_farads` sets the `kT/C` noise scale. With ideal matching,
    /// an ideal op-amp and a disabled `noise` it is the ideal loop: exact
    /// Table I capacitors, noiseless integrators and
    /// [exact](TransferPlans::is_exact) transfer plans.
    pub(crate) fn fabricate(
        matching: MatchingSpec,
        opamp: OpAmpModel,
        settle_time: Seconds,
        unit_cap_farads: f64,
        noise: &mut NoiseSource,
    ) -> Self {
        let lot = CapacitorLot::fabricate(&TABLE_I.as_array(), matching, noise);
        let caps = TableI {
            a: lot.value(0),
            b: lot.value(1),
            c: lot.value(2),
            d: lot.value(3),
            f: lot.value(4),
        };
        // Each integrator gets an independent noise stream derived from the
        // shared source so fabrications stay reproducible.
        let seed1 = noise.gaussian(1.0).to_bits();
        let seed2 = noise.gaussian(1.0).to_bits();
        let mk_noise = |seed: u64, enabled: bool| {
            if enabled {
                NoiseSource::new(seed)
            } else {
                NoiseSource::disabled()
            }
        };
        let enabled = noise.is_enabled();
        Self {
            caps,
            int1: ScIntegrator::new(
                caps.a,
                unit_cap_farads,
                opamp,
                settle_time,
                mk_noise(seed1, enabled),
            ),
            int2: ScIntegrator::new(
                caps.b,
                unit_cap_farads,
                opamp,
                settle_time,
                mk_noise(seed2, enabled),
            ),
        }
    }

    /// One charge transfer: samples `vin` through `input_cap` (signed), and
    /// advances the loop. Returns the new output.
    pub(crate) fn transfer(&mut self, input_cap: f64, vin: f64) -> f64 {
        let v2_prev = self.int2.output();
        let v1 = self.int1.step(&[
            Branch::new(input_cap, vin),
            Branch::new(-self.caps.d, v2_prev),
        ]);
        self.int2.step(&[
            Branch::new(self.caps.c, v1),
            Branch::new(-self.caps.f, v2_prev),
        ])
    }

    /// Precomputes transfer plans for a fixed menu of input capacitors
    /// (index `i` of the result serves `transfer_planned_in(plans, i, ·)`).
    ///
    /// The plans cache this biquad's fabricated capacitors and op-amp
    /// constants; rebuild them if the biquad is replaced.
    pub(crate) fn plan_transfers(&self, input_caps: &[f64]) -> TransferPlans {
        let int1: Vec<ScStepPlan> = input_caps
            .iter()
            .map(|&w| self.int1.plan(&[w, -self.caps.d]))
            .collect();
        let int2 = self.int2.plan(&[self.caps.c, -self.caps.f]);
        let exact = int2.is_exact() && int1.iter().all(ScStepPlan::is_exact);
        TransferPlans { int1, int2, exact }
    }

    /// Whether every transfer through `plans` settles completely
    /// ([`ScIntegrator::settles_completely`]) with the input capacitors
    /// sampling `vin`: the first integrator samples `vin` and the
    /// second's output, the second the first's output and its own, and
    /// each output stays within its op-amp's swing.
    pub(crate) fn settles_completely(&self, plans: &TransferPlans, vin: f64) -> bool {
        let (swing1, swing2) = (self.int1.swing(), self.int2.swing());
        plans
            .int1
            .iter()
            .all(|plan| self.int1.settles_completely(plan, &[vin, swing2]))
            && self.int2.settles_completely(&plans.int2, &[swing1, swing2])
    }

    /// One charge transfer through precomputed plans — bit-identical to
    /// [`transfer`](Self::transfer) with the input capacitor that slot
    /// `cap_index` was planned for (same arithmetic, same noise draws) —
    /// through one instantiation of the integrators' planned step (see
    /// [`ScIntegrator::step_planned`]); block loops choose it once per
    /// block from [`TransferPlans::is_exact`].
    ///
    /// # Panics
    ///
    /// Panics if `cap_index` is out of range for `plans`.
    #[inline(always)]
    pub(crate) fn transfer_planned_in<const EXACT: bool>(
        &mut self,
        plans: &TransferPlans,
        cap_index: usize,
        vin: f64,
    ) -> f64 {
        let v2_prev = self.int2.output();
        let v1 = self
            .int1
            .step_planned::<EXACT, 2>(&plans.int1[cap_index], [vin, v2_prev]);
        self.int2
            .step_planned::<EXACT, 2>(&plans.int2, [v1, v2_prev])
    }

    /// The ideal frequency response per unit input capacitor at a
    /// normalized transfer frequency `theta` (radians/transfer):
    ///
    /// ```text
    /// H(z) = (C/AB) / [(1−z⁻¹)² + (F/B)(1−z⁻¹)z⁻¹ + (CD/AB)z⁻¹]
    /// ```
    pub fn frequency_response(theta: f64) -> Complex64 {
        let t = TABLE_I;
        let z_inv = Complex64::cis(-theta);
        let one = Complex64::ONE;
        let u = one - z_inv;
        let den = u * u + z_inv * u * (t.f / t.b) + z_inv * (t.c * t.d / (t.a * t.b));
        Complex64::new(t.c / (t.a * t.b), 0.0) / den
    }

    /// The net amplitude gain of the generator: staircase fundamental `2·Vdc`
    /// times `|H|` at `f_wave` (θ = 2π/32). Numerically ≈ 1.93 — the paper's
    /// measured ×2 (±75 mV references → ≈300 mV output).
    pub fn amplitude_gain() -> f64 {
        2.0 * Self::frequency_response(2.0 * std::f64::consts::PI / 32.0).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// The ideal loop: ideal matching and op-amp, no noise.
    fn ideal() -> GeneratorBiquad {
        GeneratorBiquad::fabricate(
            MatchingSpec::ideal(),
            OpAmpModel::ideal(),
            Seconds(1.0),
            1.0e-12,
            &mut NoiseSource::disabled(),
        )
    }

    #[test]
    fn table_i_values() {
        assert_eq!(TABLE_I.a, 5.194);
        assert_eq!(TABLE_I.b, 12.749);
        assert_eq!(TABLE_I.c, 1.0);
        assert_eq!(TABLE_I.d, 2.574);
        assert_eq!(TABLE_I.f, 1.014);
    }

    #[test]
    fn resonance_lands_on_fwave() {
        // ω0·T ≈ 2π/32 within 1 %: the Table I design intent.
        let w0t = TABLE_I.omega0_t();
        let target = 2.0 * PI / 32.0;
        assert!(
            (w0t / target - 1.0).abs() < 0.01,
            "ω0T = {w0t}, 2π/32 = {target}"
        );
    }

    #[test]
    fn quality_factor_is_moderate() {
        let q = TABLE_I.quality_factor();
        assert!(q > 2.0 && q < 3.0, "Q = {q}");
    }

    #[test]
    fn gain_at_fwave_is_near_unity() {
        let h = GeneratorBiquad::frequency_response(2.0 * PI / 32.0).abs();
        assert!((h - 0.966).abs() < 0.02, "|H(f_wave)| = {h}");
    }

    #[test]
    fn amplitude_gain_matches_paper_factor_two() {
        let g = GeneratorBiquad::amplitude_gain();
        assert!(
            (g - 2.0).abs() < 0.1,
            "gain {g} should be ≈2 (paper Fig. 8a)"
        );
    }

    #[test]
    fn response_rolls_off_at_high_frequency() {
        // The 16-step staircase's first in-band quantization components sit
        // at 15·f_wave (17·f_wave aliases there too at the 32/period rate);
        // the biquad must attenuate them strongly.
        let h_res = GeneratorBiquad::frequency_response(2.0 * PI / 32.0).abs();
        let h_image = GeneratorBiquad::frequency_response(15.0 * 2.0 * PI / 32.0).abs();
        assert!(
            h_image < h_res / 50.0,
            "image rejection too weak: {h_image}"
        );
    }

    #[test]
    fn dc_gain_is_ci_over_d() {
        let h0 = GeneratorBiquad::frequency_response(1e-9).abs();
        assert!((h0 - 1.0 / TABLE_I.d).abs() < 1e-3, "{h0}");
    }

    #[test]
    fn impulse_response_matches_analytic_transfer() {
        // Drive the ideal loop with a sampled complex-frequency probe and
        // compare with the closed form.
        let theta = 2.0 * PI / 32.0;
        let mut bq = ideal();
        let n = 32 * 400;
        let x: Vec<f64> = (0..n).map(|i| (theta * i as f64).sin()).collect();
        let y: Vec<f64> = x.iter().map(|&v| bq.transfer(1.0, v)).collect();
        let steady = &y[n / 2..];
        let amp = {
            let f = theta / (2.0 * PI);
            let c = dsp::goertzel::dft_bin(steady, f);
            c.abs() / (steady.len() as f64 / 2.0)
        };
        let expect = GeneratorBiquad::frequency_response(theta).abs();
        assert!((amp - expect).abs() < 0.01 * expect, "{amp} vs {expect}");
    }

    #[test]
    fn loop_is_stable() {
        // Kick the ideal loop and verify the ring-down decays.
        let mut bq = ideal();
        bq.transfer(1.0, 1.0);
        let mut early_peak = 0.0f64;
        let mut late_peak = 0.0f64;
        for i in 0..3200 {
            let v = bq.transfer(0.0, 0.0).abs();
            if i < 320 {
                early_peak = early_peak.max(v);
            }
            if i >= 2880 {
                late_peak = late_peak.max(v);
            }
        }
        assert!(
            late_peak < early_peak / 100.0,
            "{late_peak} vs {early_peak}"
        );
    }

    #[test]
    fn planned_transfer_is_bit_identical_to_transfer() {
        // Ideal and fabricated-noisy loops, over a weight menu including a
        // zero cap (sequencer steps 0 and 8): the planned path must track
        // the scalar reference bit-for-bit, noise stream included. Only
        // the ideal fabrication is the exact Table I loop with exact plans.
        let mk_noisy = || {
            let mut fab = NoiseSource::new(13);
            GeneratorBiquad::fabricate(
                MatchingSpec::typical_035um(),
                OpAmpModel::folded_cascode_035um(),
                Seconds(40.0e-9),
                1.0e-12,
                &mut fab,
            )
        };
        for (label, mk) in [
            ("ideal", ideal as fn() -> GeneratorBiquad),
            ("fabricated noisy", mk_noisy as fn() -> GeneratorBiquad),
        ] {
            let caps = [0.0, 0.35, -0.35, 1.0];
            let mut by_scalar = mk();
            let mut by_plan = mk();
            let plans = by_plan.plan_transfers(&caps);
            assert_eq!(plans.is_exact(), label == "ideal");
            assert_eq!(by_plan.caps == TABLE_I, label == "ideal");
            assert_eq!(plans.int1.len(), caps.len());
            for k in 0..2000usize {
                let i = k % caps.len();
                let vin = 0.15 * (k as f64 * 0.21).sin();
                let want = by_scalar.transfer(caps[i], vin);
                let got = if plans.is_exact() {
                    by_plan.transfer_planned_in::<true>(&plans, i, vin)
                } else {
                    by_plan.transfer_planned_in::<false>(&plans, i, vin)
                };
                assert_eq!(want, got, "{label}: transfer {k} diverged");
            }
        }
    }
}
