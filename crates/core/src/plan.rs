//! Test-time planning: inverting the error-bound formula.
//!
//! The paper's central trade is accuracy for test time: every enclosure
//! width scales as `1/(M·N)`. A production test engineer needs the inverse
//! question answered — *how many periods M (and hence how many seconds at
//! a given stimulus frequency) buys a target accuracy at an expected
//! level?* [`TestPlan`] computes exactly that from paper eq. (4): the
//! amplitude half-band is at most `(π/2)·Vref·4√2/(M·N·|c|·…)` around the
//! estimate, so
//!
//! ```text
//! M ≥ ceil( (π/2)·Vref·4√2 / (N·A·(10^(δ/20) − 1)) )
//! ```
//!
//! for a target of ±δ dB around an expected amplitude `A`.

use crate::error::NetanError;
use mixsig::clock::OVERSAMPLING_RATIO;
use mixsig::units::{Hertz, Seconds};
use sdeval::EPSILON_BOUND;
use std::f64::consts::FRAC_PI_2;

/// A test-time plan for one measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestPlan {
    /// Required evaluation periods (even).
    pub periods: u32,
    /// Master-clock samples consumed (one chop phase).
    pub samples: u64,
    /// Wall-clock test time at the given stimulus frequency (both chop
    /// phases).
    pub test_time: Seconds,
}

/// Simulated wall-clock time of one chopped acquisition of `periods`
/// evaluation periods at stimulus frequency `f_wave` — the forward
/// direction of [`plan_measurement`]'s inversion (`test_time` of a plan
/// with the same `periods` and `f_wave` is exactly this value), and the
/// unit of account for escalation-schedule test-time budgets
/// ([`crate::lot::EscalationSchedule`]).
///
/// Both chop phases are counted; generator/DUT warm-up is not — it is a
/// simulation artifact, not hardware test time.
///
/// # Panics
///
/// Panics if `f_wave` is not strictly positive.
pub fn measurement_time(periods: u32, f_wave: Hertz) -> Seconds {
    assert!(f_wave.value() > 0.0, "stimulus frequency must be positive");
    let n = OVERSAMPLING_RATIO as f64;
    let samples = u64::from(periods) * u64::from(OVERSAMPLING_RATIO);
    // Chopped acquisition doubles the sample count.
    Seconds(2.0 * samples as f64 / (f_wave.value() * n))
}

/// Simulated test time of one chopped acquisition per frequency of
/// `grid`, all at `periods` evaluation periods: the left fold of
/// [`measurement_time`] in grid order, starting from zero.
///
/// The fold order is normative, not incidental: per-device times, stage
/// summaries and escalation budget arithmetic are all built from this
/// exact accumulation, so every consumer agrees with every other to the
/// last bit — which is what lets shard merges reproduce a monolithic
/// run's accounting byte for byte
/// ([`crate::lot::LotReport::merge`]).
///
/// # Panics
///
/// Panics if any grid frequency is not strictly positive.
pub fn grid_time(periods: u32, grid: &[Hertz]) -> Seconds {
    grid.iter()
        .fold(Seconds(0.0), |acc, &f| acc + measurement_time(periods, f))
}

/// Plans the evaluation length for measuring an expected amplitude
/// `expected_volts` to within ±`tolerance_db` dB with guaranteed bounds,
/// at stimulus frequency `f_wave` and DAC reference `vref`.
///
/// Conservative: uses the worst-case ε-corner of paper eq. (4) with the
/// asymptotic demodulation gain `2/π`.
///
/// # Errors
///
/// Returns [`NetanError::PlanOverflow`] when the required period count
/// does not fit the hardware's `u32` counter — a `tolerance_db` tight
/// enough (or an `expected_volts` small enough) to demand it cannot be
/// delivered in one acquisition. The period arithmetic stays in `f64`
/// until the explicit cap check, so no intermediate cast can saturate or
/// wrap.
///
/// # Panics
///
/// Panics if `expected_volts`, `tolerance_db` or `f_wave` are not
/// strictly positive.
pub fn plan_measurement(
    expected_volts: f64,
    tolerance_db: f64,
    f_wave: Hertz,
    vref: f64,
) -> Result<TestPlan, NetanError> {
    assert!(expected_volts > 0.0, "expected amplitude must be positive");
    assert!(tolerance_db > 0.0, "tolerance must be positive");
    assert!(f_wave.value() > 0.0, "stimulus frequency must be positive");
    let n = OVERSAMPLING_RATIO as f64;
    // Worst-case signature displacement: ε on both axes → 4√2 counts.
    let eps_rss = EPSILON_BOUND * std::f64::consts::SQRT_2;
    let growth = 10f64.powf(tolerance_db / 20.0) - 1.0;
    let m_raw = FRAC_PI_2 * vref * eps_rss / (n * expected_volts * growth);
    let m_ceil = m_raw.ceil();
    // Largest even period count a u32 can hold. The old `as u32` cast
    // saturated to the odd u32::MAX here, and the evenness bump then
    // wrapped to 0 (panicking in debug builds).
    const MAX_EVEN_PERIODS: f64 = (u32::MAX - 1) as f64;
    if !m_ceil.is_finite() || m_ceil > MAX_EVEN_PERIODS {
        return Err(NetanError::PlanOverflow {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "saturation is the intent — reporting a demand beyond u64::MAX as u64::MAX"
            )]
            required_periods: if m_ceil.is_finite() {
                m_ceil as u64
            } else {
                u64::MAX
            },
        });
    }
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "m_ceil ≤ MAX_EVEN_PERIODS is checked above, so the cast is exact"
    )]
    let mut m = m_ceil as u32;
    m += m % 2; // validity: M even (≤ u32::MAX − 1 by the cap above)
    let m = m.max(2);
    let samples = u64::from(m) * u64::from(OVERSAMPLING_RATIO);
    let test_time = measurement_time(m, f_wave);
    Ok(TestPlan {
        periods: m,
        samples,
        test_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::tone::Tone;
    use sdeval::{EvaluatorConfig, SinewaveEvaluator};

    #[test]
    fn planned_m_is_even_and_scales() {
        let a = plan_measurement(0.2, 0.1, Hertz(1000.0), 1.0).unwrap();
        let b = plan_measurement(0.02, 0.1, Hertz(1000.0), 1.0).unwrap();
        assert_eq!(a.periods % 2, 0);
        // 10× smaller amplitude → ≈10× more periods.
        let ratio = b.periods as f64 / a.periods as f64;
        assert!((ratio - 10.0).abs() < 1.0, "{ratio}");
    }

    #[test]
    fn measurement_time_inverts_the_plan() {
        // `measurement_time` is the forward direction of the inversion:
        // feeding a plan's own M back in reproduces its test_time bit for
        // bit, and time is linear in M.
        let plan = plan_measurement(0.2, 0.1, Hertz(1000.0), 1.0).unwrap();
        assert_eq!(
            measurement_time(plan.periods, Hertz(1000.0)),
            plan.test_time
        );
        let t1 = measurement_time(50, Hertz(500.0));
        let t2 = measurement_time(100, Hertz(500.0));
        assert!((t2.value() / t1.value() - 2.0).abs() < 1e-12);
        // One chopped 50-period acquisition at 500 Hz: 2·50/500 = 0.2 s.
        assert!((t1.value() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn measurement_time_rejects_bad_frequency() {
        let _ = measurement_time(50, Hertz(0.0));
    }

    #[test]
    fn grid_time_is_the_left_fold_of_measurement_time() {
        let grid = [Hertz(200.0), Hertz(500.0), Hertz(1000.0)];
        let folded = grid
            .iter()
            .fold(Seconds(0.0), |acc, &f| acc + measurement_time(80, f));
        assert_eq!(grid_time(80, &grid), folded);
        assert_eq!(grid_time(80, &[]), Seconds(0.0));
    }

    #[test]
    fn planned_time_scales_inverse_frequency() {
        let slow = plan_measurement(0.2, 0.1, Hertz(100.0), 1.0).unwrap();
        let fast = plan_measurement(0.2, 0.1, Hertz(10_000.0), 1.0).unwrap();
        assert!((slow.test_time.value() / fast.test_time.value() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn plan_delivers_promised_accuracy() {
        // Run the planned measurement and verify the enclosure half-width
        // honours the requested tolerance.
        for &(a, tol) in &[(0.2f64, 0.2f64), (0.05, 0.5), (0.01, 1.0)] {
            let plan = plan_measurement(a, tol, Hertz(1000.0), 1.0).unwrap();
            let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
            let tone = Tone::new(1.0 / 96.0, a, 0.3);
            let mut n = 0usize;
            let mut src = move || {
                let v = tone.sample(n);
                n += 1;
                v
            };
            let meas = ev.measure_harmonic(&mut src, 1, plan.periods).unwrap();
            let up_db = 20.0 * (meas.amplitude.hi / meas.amplitude.est).log10();
            assert!(
                up_db <= tol * 1.05,
                "A={a}, tol={tol}: band +{up_db} dB with M={}",
                plan.periods
            );
            assert!(meas.amplitude.contains(a));
        }
    }

    #[test]
    fn paper_bode_setting_accuracy() {
        // The paper's M = 200 at the ≈0.3 V stimulus: the plan inverts to
        // the same order of magnitude for a ≈0.03 dB target.
        let plan = plan_measurement(0.3, 0.027, Hertz(1000.0), 1.0).unwrap();
        assert!(
            plan.periods >= 100 && plan.periods <= 400,
            "{}",
            plan.periods
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_amplitude_rejected() {
        let _ = plan_measurement(0.0, 0.1, Hertz(1000.0), 1.0);
    }

    #[test]
    fn tight_tolerance_overflow_is_an_error() {
        // Regression: tolerance_db = 1e-9 demands > u32::MAX periods at a
        // 0.1 V expected level. The old u32 arithmetic saturated the cast
        // to the odd u32::MAX and then wrapped (panicking in debug) on the
        // evenness bump; now the cap is explicit and reported.
        use crate::error::NetanError;
        let err = plan_measurement(0.1, 1e-9, Hertz(1000.0), 1.0).unwrap_err();
        match err {
            NetanError::PlanOverflow { required_periods } => {
                assert!(required_periods > u64::from(u32::MAX), "{required_periods}");
            }
            other => panic!("expected PlanOverflow, got {other:?}"),
        }
    }

    #[test]
    fn near_cap_plans_stay_even_and_in_range() {
        // Just inside the cap the plan must come back even without any
        // wrap. 0.107 V at 1e-9 dB lands a little below u32::MAX periods.
        if let Ok(plan) = plan_measurement(0.107, 1e-9, Hertz(1000.0), 1.0) {
            assert_eq!(plan.periods % 2, 0);
            assert!(plan.periods >= 2);
        }
        // Either way the extreme case is deterministic — no panic.
        let _ = plan_measurement(1e-12, 1e-12, Hertz(1000.0), 1.0).unwrap_err();
    }
}
