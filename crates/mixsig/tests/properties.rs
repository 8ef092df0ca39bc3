//! Property-based invariants of the mixed-signal substrate.

use mixsig::clock::MasterClock;
use mixsig::ct::TransferFunction;
use mixsig::mismatch::{CapacitorLot, MatchingSpec};
use mixsig::noise::NoiseSource;
use mixsig::opamp::OpAmpModel;
use mixsig::sc::{Branch, ScIntegrator};
use mixsig::units::{Hertz, Seconds, Volts};
use proptest::prelude::*;

proptest! {
    /// The synchronization invariant holds for any master clock: the
    /// stimulus frequency is always f_eva/96.
    #[test]
    fn oversampling_ratio_fixed(hz in 1.0e3f64..1.0e9) {
        let clk = MasterClock::from_hz(hz);
        let ratio = clk.frequency_hz() / clk.stimulus_frequency().value();
        prop_assert!((ratio - 96.0).abs() < 1e-6);
    }

    /// Settling fraction is monotone in time and bounded by [0, 1].
    #[test]
    fn settling_monotone(
        gbw_mhz in 1.0f64..100.0,
        beta in 0.1f64..1.0,
        t1_ns in 1.0f64..500.0,
        dt_ns in 0.0f64..500.0,
    ) {
        let op = OpAmpModel::ideal().with_gbw(Hertz::from_mhz(gbw_mhz));
        let f1 = op.settling_fraction(beta, Seconds(t1_ns * 1e-9));
        let f2 = op.settling_fraction(beta, Seconds((t1_ns + dt_ns) * 1e-9));
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert!(f2 >= f1 - 1e-15);
    }

    /// The achieved step never exceeds the requested step in magnitude and
    /// keeps its sign.
    #[test]
    fn settled_step_contracts(
        step in -2.0f64..2.0,
        beta in 0.2f64..0.9,
        t_ns in 1.0f64..300.0,
    ) {
        let op = OpAmpModel::folded_cascode_035um();
        let s = op.settled_step(Volts(step), beta, Seconds(t_ns * 1e-9)).value();
        prop_assert!(s.abs() <= step.abs() + 1e-12);
        if step != 0.0 {
            prop_assert!(s == 0.0 || s.signum() == step.signum());
        }
    }

    /// Capacitor ratios are immune to the global process factor.
    #[test]
    fn ratios_cancel_global_spread(seed in 0u64..1000, spread in 0.0f64..0.3) {
        let spec = MatchingSpec { unit_sigma: 0.0, global_spread: spread };
        let mut rng = NoiseSource::new(seed);
        let lot = CapacitorLot::fabricate(&[1.0, 2.574, 12.749], spec, &mut rng);
        prop_assert!((lot.ratio(1, 0) - 2.574).abs() < 1e-12);
        prop_assert!((lot.ratio(2, 0) - 12.749).abs() < 1e-12);
    }

    /// An ideal SC integrator is exactly linear: step(a) + step(b), each
    /// from a fresh integrator, equals step with both branches.
    #[test]
    fn sc_integrator_linearity(a in -1.0f64..1.0, b in -1.0f64..1.0) {
        let mut i1 = ScIntegrator::ideal(1.0);
        i1.step(&[Branch::new(0.5, a), Branch::new(0.25, b)]);
        let combined = i1.output();
        let mut i2 = ScIntegrator::ideal(1.0);
        i2.step(&[Branch::new(0.5, a)]);
        let first = i2.output();
        let mut i3 = ScIntegrator::ideal(1.0);
        i3.step(&[Branch::new(0.25, b)]);
        let second = i3.output();
        prop_assert!((combined - (first + second)).abs() < 1e-12);
    }

    /// |H(jω)| of a low-pass biquad is monotone decreasing above the
    /// resonance for Butterworth damping.
    #[test]
    fn lowpass_monotone_rolloff(f0 in 100.0f64..10_000.0, m in 1.5f64..50.0) {
        let tf = TransferFunction::lowpass_biquad(
            Hertz(f0),
            std::f64::consts::FRAC_1_SQRT_2,
            1.0,
        );
        let g1 = tf.response(Hertz(f0 * m)).magnitude;
        let g2 = tf.response(Hertz(f0 * m * 1.5)).magnitude;
        prop_assert!(g2 < g1);
    }

    /// ZOH discretization preserves DC gain for stable low-pass systems.
    #[test]
    fn zoh_preserves_dc_gain(f0 in 50.0f64..2000.0, gain in 0.1f64..10.0) {
        let tf = TransferFunction::lowpass_biquad(Hertz(f0), 0.8, gain);
        let mut dss = tf.to_state_space().discretize_zoh(1.0 / 96_000.0);
        let mut y = 0.0;
        // Step response settles to the DC gain.
        for _ in 0..96_000 {
            y = dss.step(1.0);
        }
        prop_assert!((y - gain).abs() < 1e-3 * gain, "{y} vs {gain}");
    }
}
