//! Error type of the network analyzer.

use mixsig::units::Hertz;
use sdeval::EvalError;

/// Errors from network-analyzer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetanError {
    /// The underlying evaluator rejected the measurement setup.
    Eval(EvalError),
    /// A sweep was requested with no frequency points.
    EmptySweep,
    /// A lot run was requested with no device seeds.
    EmptyLot,
    /// The requested stimulus frequency is not positive.
    InvalidFrequency {
        /// The offending frequency in hertz.
        hz_millis: i64,
    },
    /// A fabricated device's nominal response is non-finite at a plan
    /// frequency (e.g. a mismatch draw produced a NaN pole), so it cannot
    /// be simulated.
    DeviceNotSimulable {
        /// Monte-Carlo seed of the offending device.
        seed: u64,
    },
    /// The device's nominal response is not finite at the stimulus
    /// frequency (e.g. an infinite corner frequency), so it cannot be
    /// simulated: the one-device counterpart of
    /// [`DeviceNotSimulable`](Self::DeviceNotSimulable), refused before
    /// the device is discretized.
    NominalResponseNotFinite {
        /// The stimulus frequency in millihertz.
        hz_millis: i64,
    },
    /// A planned evaluation length does not fit the hardware's `M`
    /// counter: the tolerance/level combination demands more periods than
    /// a `u32` can hold. Relax the tolerance or raise the expected level.
    PlanOverflow {
        /// Periods the plan would need (saturating; `u64::MAX` when the
        /// requirement is not even finite).
        required_periods: u64,
    },
    /// A lot plan's sweep grid does not contain one of its mask
    /// frequencies, so the mask point could never be measured and
    /// classification would fail mid-lot.
    /// [`LotPlan::new`](crate::lot::LotPlan::new) always unions the
    /// mask into the grid;
    /// this rejects plans assembled some other way up front, before any
    /// simulation.
    MaskFrequencyMissing {
        /// The unmeasured mask frequency in millihertz.
        hz_millis: i64,
    },
    /// A lot plan's mask holds a point that
    /// [`MaskPoint::new`](crate::spec::MaskPoint::new) would refuse —
    /// inverted or NaN limits, or a frequency that is not positive and
    /// finite. `MaskPoint`'s fields are public, so such a point can reach
    /// a mask; every device would read `Fail` or `Ambiguous` against it.
    /// Rejected before calibration or any simulation.
    InvalidMaskPoint {
        /// The offending point's frequency in millihertz.
        hz_millis: i64,
    },
    /// An escalation schedule's test-time budget cannot even cover the
    /// stage-0 screening pass over the whole lot — no device would get a
    /// verdict at all. Raise the budget, shrink the lot, or cheapen the
    /// first stage.
    ///
    /// Both fields round **up** to the next simulated millisecond, so a
    /// sub-millisecond budget never misreports as `0` and the displayed
    /// pair never inverts the real comparison.
    BudgetExhausted {
        /// Simulated milliseconds the stage-0 screening pass needs
        /// (rounded up).
        needed_ms: u64,
        /// The schedule's budget in simulated milliseconds (rounded up,
        /// the same way as `needed_ms`).
        budget_ms: u64,
    },
    /// The calibration's stimulus amplitude enclosure reaches zero (or is
    /// NaN), so no gain can be bounded against it: the stimulus is too
    /// small for the evaluation length to resolve. Raise `va_diff` or
    /// `M`.
    UnresolvedStimulus,
}

impl std::fmt::Display for NetanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetanError::Eval(e) => write!(f, "evaluator error: {e}"),
            NetanError::EmptySweep => write!(f, "sweep needs at least one frequency point"),
            NetanError::EmptyLot => write!(f, "lot needs at least one device seed"),
            NetanError::DeviceNotSimulable { seed } => {
                write!(
                    f,
                    "device with seed {seed} has a non-finite nominal response and cannot be simulated"
                )
            }
            NetanError::NominalResponseNotFinite { hz_millis } => {
                write!(
                    f,
                    "the device's nominal response at {} Hz is not finite, so it cannot be simulated",
                    *hz_millis as f64 / 1000.0
                )
            }
            NetanError::InvalidFrequency { hz_millis } => {
                write!(
                    f,
                    "stimulus frequency must be positive, got {} Hz",
                    *hz_millis as f64 / 1000.0
                )
            }
            NetanError::PlanOverflow { required_periods } => {
                write!(
                    f,
                    "planned evaluation length overflows the period counter \
                     (≥ {required_periods} periods required); relax the \
                     tolerance or raise the expected level"
                )
            }
            NetanError::MaskFrequencyMissing { hz_millis } => {
                write!(
                    f,
                    "mask frequency {} Hz is not in the sweep grid, so the \
                     mask point would never be measured; build the plan with \
                     LotPlan::new, which unions the mask into the grid",
                    *hz_millis as f64 / 1000.0
                )
            }
            NetanError::InvalidMaskPoint { hz_millis } => {
                write!(
                    f,
                    "mask point at {} Hz is invalid: its frequency must be \
                     positive and finite and its limits ordered, neither NaN",
                    *hz_millis as f64 / 1000.0
                )
            }
            NetanError::BudgetExhausted {
                needed_ms,
                budget_ms,
            } => {
                write!(
                    f,
                    "test-time budget of {} s cannot cover the stage-0 \
                     screening pass ({} s needed); raise the budget or \
                     shrink the lot",
                    *budget_ms as f64 / 1000.0,
                    *needed_ms as f64 / 1000.0
                )
            }
            NetanError::UnresolvedStimulus => f.write_str(
                "stimulus amplitude enclosure reaches zero, so no gain can be bounded; \
                 raise va_diff or M",
            ),
        }
    }
}

impl std::error::Error for NetanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetanError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

/// `f` in whole millihertz, for the frequency fields of [`NetanError`].
pub(crate) fn millihertz(f: Hertz) -> i64 {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "diagnostic-only millihertz render; `as` saturates NaN/∞ instead of panicking"
    )]
    let millis = (f.value() * 1000.0) as i64;
    millis
}

impl From<EvalError> for NetanError {
    fn from(e: EvalError) -> Self {
        NetanError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = NetanError::from(EvalError::OddPeriods { m: 3 });
        assert!(e.to_string().contains("evaluator error"));
        assert!(NetanError::EmptySweep.to_string().contains("at least one"));
        let f = NetanError::InvalidFrequency { hz_millis: -1500 };
        assert!(f.to_string().contains("-1.5"));
        assert!(NetanError::EmptyLot.to_string().contains("device seed"));
        let d = NetanError::DeviceNotSimulable { seed: 17 };
        assert!(d.to_string().contains("17"));
        assert!(d.to_string().contains("non-finite"));
        let p = NetanError::PlanOverflow {
            required_periods: 5_000_000_000,
        };
        assert!(p.to_string().contains("5000000000"));
        assert!(p.to_string().contains("overflows"));
        let b = NetanError::BudgetExhausted {
            needed_ms: 12_500,
            budget_ms: 4_000,
        };
        assert!(b.to_string().contains("12.5 s"));
        assert!(b.to_string().contains("4 s"));
        assert!(b.to_string().contains("budget"));
        let m = NetanError::MaskFrequencyMissing { hz_millis: 750 };
        assert!(m.to_string().contains("0.75"));
        assert!(m.to_string().contains("mask frequency"));
        let r = NetanError::NominalResponseNotFinite { hz_millis: 2500 }.to_string();
        assert!(r.contains("2.5 Hz") && r.contains("not finite"), "{r}");
        let u = NetanError::UnresolvedStimulus.to_string();
        assert!(u.contains("va_diff") && u.contains(" M"), "{u}");
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = NetanError::from(EvalError::HarmonicIndexZero);
        assert!(e.source().is_some());
        assert!(NetanError::EmptySweep.source().is_none());
    }
}
