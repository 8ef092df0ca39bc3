//! The [`Dut`] abstraction.

use crate::group::LtiCore;
use mixsig::ct::FrequencyResponse;
use mixsig::units::Hertz;

/// A device under test: a description that can be instantiated into a
/// streaming simulator at any sampling rate.
///
/// Descriptions are `Send + Sync` so a sweep engine can fan independent
/// measurement points out across threads that share one description; the
/// per-measurement state lives in the [`DutSim`] each thread instantiates.
pub trait Dut: Send + Sync {
    /// The ideal (nominal, linear) frequency response — the reference curve
    /// for Bode comparisons.
    fn ideal_response(&self, f: Hertz) -> FrequencyResponse;

    /// Creates a streaming simulator sampled at `fs`.
    fn instantiate(&self, fs: Hertz) -> Box<dyn DutSim>;

    /// Ideal magnitude in dB at `f`.
    fn ideal_magnitude_db(&self, f: Hertz) -> f64 {
        20.0 * self.ideal_response(f).magnitude.log10()
    }

    /// Ideal phase in degrees at `f`.
    fn ideal_phase_deg(&self, f: Hertz) -> f64 {
        self.ideal_response(f).phase.to_degrees()
    }
}

/// A borrowed device is the device itself, so a factory can lend one
/// device to every seed: an analyzer's single-device sweep runs as a lot
/// of one.
impl<T: Dut + ?Sized> Dut for &T {
    fn ideal_response(&self, f: Hertz) -> FrequencyResponse {
        (**self).ideal_response(f)
    }

    fn instantiate(&self, fs: Hertz) -> Box<dyn DutSim> {
        (**self).instantiate(fs)
    }

    fn ideal_magnitude_db(&self, f: Hertz) -> f64 {
        (**self).ideal_magnitude_db(f)
    }

    fn ideal_phase_deg(&self, f: Hertz) -> f64 {
        (**self).ideal_phase_deg(f)
    }
}

/// A streaming DUT simulator: one output sample per input sample. Each
/// acquisition instantiates its own ([`Dut::instantiate`]), so it starts
/// from zero state, only runs forward and has no reset.
pub trait DutSim {
    /// Processes one input sample.
    fn step(&mut self, input: f64) -> f64;

    /// Processes `input` into `out`, one output sample per input sample.
    ///
    /// The provided default loops [`step`](Self::step); implementations
    /// with state-space cores override it with a tight allocation-free
    /// loop over unboxed state. Either way the result must be
    /// bit-identical to stepping per sample.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != out.len()`.
    fn process_block(&mut self, input: &[f64], out: &mut [f64]) {
        assert_eq!(
            input.len(),
            out.len(),
            "input and output blocks must have equal length"
        );
        for (y, &u) in out.iter_mut().zip(input) {
            *y = self.step(u);
        }
    }

    /// The simulator's linear time-invariant core, which
    /// [`process_group`](crate::process_group) steps in lockstep with
    /// the cores of the other members of a group.
    ///
    /// The provided default is `None`: the simulator runs only through
    /// its own `process_block`. Only this crate's one LTI simulator
    /// returns a core ([`LtiCore`] is built nowhere else), and it runs
    /// its own `process_block` as a group of one.
    fn lti_core(&mut self) -> Option<LtiCore<'_>> {
        None
    }
}

/// The identity device — the calibration bypass path as a [`Dut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bypass;

impl Dut for Bypass {
    fn ideal_response(&self, _f: Hertz) -> FrequencyResponse {
        FrequencyResponse {
            magnitude: 1.0,
            phase: 0.0,
        }
    }

    fn instantiate(&self, _fs: Hertz) -> Box<dyn DutSim> {
        Box::new(BypassSim)
    }
}

/// Streaming simulator of [`Bypass`].
#[derive(Debug, Clone, Copy, Default)]
struct BypassSim;

impl DutSim for BypassSim {
    fn step(&mut self, input: f64) -> f64 {
        input
    }

    fn process_block(&mut self, input: &[f64], out: &mut [f64]) {
        out.copy_from_slice(input);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypass_is_identity() {
        let mut sim = Bypass.instantiate(Hertz(96_000.0));
        for &v in &[0.0, 1.0, -0.5, 3.25] {
            assert_eq!(sim.step(v), v);
        }
        let r = Bypass.ideal_response(Hertz(123.0));
        assert_eq!(r.magnitude, 1.0);
        assert_eq!(r.phase, 0.0);
    }

    #[test]
    fn default_db_helpers() {
        assert_eq!(Bypass.ideal_magnitude_db(Hertz(5.0)), 0.0);
        assert_eq!(Bypass.ideal_phase_deg(Hertz(5.0)), 0.0);
    }
}
