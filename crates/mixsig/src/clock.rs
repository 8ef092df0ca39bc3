//! Clock generation: master clock, integer dividers, two-phase clocking.
//!
//! The paper's system runs entirely off one external master clock at
//! `f_eva`. A 1:6 divider produces the generator clock `f_gen`, and the
//! generator's 16-step sequence puts the stimulus at `f_wave = f_eva/96`.
//! Because the ΣΔ modulators also run at `f_eva`, the oversampling ratio
//! `N = f_eva/f_wave = 96` is fixed *by construction* — the paper's
//! "inherent synchronization" property. [`MasterClock`] encodes exactly
//! that invariant.

use crate::units::{Hertz, Seconds};

/// The paper's generator clock divider (`f_gen = f_eva / 6`).
pub const GENERATOR_DIVIDER: u32 = 6;
/// Steps per stimulus period in the generator (`f_wave = f_gen / 16`).
pub const GENERATOR_STEPS: u32 = 16;
/// The oversampling ratio fixed by construction: `N = 6 × 16 = 96`.
pub const OVERSAMPLING_RATIO: u32 = GENERATOR_DIVIDER * GENERATOR_STEPS;

/// The externally applied master clock at `f_eva`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterClock {
    frequency: Hertz,
}

impl MasterClock {
    /// Creates a master clock from its frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive and finite.
    pub fn new(frequency: Hertz) -> Self {
        assert!(
            frequency.value() > 0.0 && frequency.value().is_finite(),
            "master clock frequency must be positive and finite"
        );
        Self { frequency }
    }

    /// Convenience constructor from a raw hertz value.
    pub fn from_hz(hz: f64) -> Self {
        Self::new(Hertz(hz))
    }

    /// Master clock chosen so the stimulus lands at `f_wave`
    /// (i.e. `f_eva = 96·f_wave`) — the way the paper sweeps frequency.
    pub fn for_stimulus(f_wave: Hertz) -> Self {
        Self::new(Hertz(f_wave.value() * OVERSAMPLING_RATIO as f64))
    }

    /// Clock frequency `f_eva`.
    pub fn frequency(self) -> Hertz {
        self.frequency
    }

    /// Clock frequency as a raw hertz value.
    pub fn frequency_hz(self) -> f64 {
        self.frequency.value()
    }

    /// Sampling period `Ts = 1/f_eva`.
    pub fn period(self) -> Seconds {
        self.frequency.period()
    }

    /// An integer-divided clock (`f_eva / n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn divided(self, n: u32) -> MasterClock {
        assert!(n > 0, "division ratio must be nonzero");
        Self::new(Hertz(self.frequency.value() / n as f64))
    }

    /// The generator clock `f_gen = f_eva/6`.
    pub fn generator_clock(self) -> MasterClock {
        self.divided(GENERATOR_DIVIDER)
    }

    /// The stimulus frequency `f_wave = f_eva/96`.
    pub fn stimulus_frequency(self) -> Hertz {
        Hertz(self.frequency.value() / OVERSAMPLING_RATIO as f64)
    }
}

/// One of the two non-overlapping clock phases of an SC circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockPhase {
    /// Sampling phase φ1.
    Phi1,
    /// Charge-transfer phase φ2.
    Phi2,
}

impl ClockPhase {
    /// The other phase.
    pub fn other(self) -> Self {
        match self {
            ClockPhase::Phi1 => ClockPhase::Phi2,
            ClockPhase::Phi2 => ClockPhase::Phi1,
        }
    }
}

/// A two-phase non-overlapping clock derived from a [`MasterClock`].
///
/// Iterating yields alternating [`ClockPhase`]s starting with φ1; each full
/// clock cycle contains one φ1 and one φ2 interval of `period()/2` each
/// (the non-overlap gap is abstracted away at behavioral level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPhaseClock {
    clock: MasterClock,
    half_cycles: u64,
}

impl TwoPhaseClock {
    /// Creates a two-phase clock from the given source clock.
    pub fn new(clock: MasterClock) -> Self {
        Self {
            clock,
            half_cycles: 0,
        }
    }

    /// The source clock.
    pub fn clock(self) -> MasterClock {
        self.clock
    }

    /// Number of *full* cycles completed so far.
    pub fn cycles(self) -> u64 {
        self.half_cycles / 2
    }

    /// The phase that the next [`tick`](Self::tick) will return.
    pub fn current_phase(self) -> ClockPhase {
        if self.half_cycles.is_multiple_of(2) {
            ClockPhase::Phi1
        } else {
            ClockPhase::Phi2
        }
    }

    /// Advances by one half-cycle, returning the phase that just occurred.
    pub fn tick(&mut self) -> ClockPhase {
        let phase = self.current_phase();
        self.half_cycles += 1;
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversampling_ratio_is_96() {
        assert_eq!(OVERSAMPLING_RATIO, 96);
    }

    #[test]
    fn paper_clock_chain_from_master() {
        let clk = MasterClock::from_hz(6.0e6);
        assert_eq!(clk.generator_clock().frequency_hz(), 1.0e6);
        assert_eq!(clk.stimulus_frequency().value(), 62.5e3);
    }

    #[test]
    fn for_stimulus_inverts_stimulus_frequency() {
        let clk = MasterClock::for_stimulus(Hertz::from_khz(1.0));
        assert_eq!(clk.frequency_hz(), 96.0e3);
        assert_eq!(clk.stimulus_frequency().value(), 1.0e3);
    }

    #[test]
    fn synchronization_invariant_holds_across_sweep() {
        // N stays 96 no matter the master clock — the paper's key property.
        for hz in [9.6e3, 96.0e3, 9.6e5, 1.92e6] {
            let clk = MasterClock::from_hz(hz);
            let n = clk.frequency_hz() / clk.stimulus_frequency().value();
            assert!((n - 96.0).abs() < 1e-9);
        }
    }

    #[test]
    fn two_phase_alternates() {
        let mut tp = TwoPhaseClock::new(MasterClock::from_hz(1.0e6));
        assert_eq!(tp.tick(), ClockPhase::Phi1);
        assert_eq!(tp.tick(), ClockPhase::Phi2);
        assert_eq!(tp.tick(), ClockPhase::Phi1);
        assert_eq!(tp.cycles(), 1);
    }

    #[test]
    fn other_phase() {
        assert_eq!(ClockPhase::Phi1.other(), ClockPhase::Phi2);
        assert_eq!(ClockPhase::Phi2.other(), ClockPhase::Phi1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = MasterClock::from_hz(0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_divider_rejected() {
        let _ = MasterClock::from_hz(1.0e6).divided(0);
    }
}
