//! Clock generation: the master clock and the generator's divider.
//!
//! The paper's system runs entirely off one external master clock at
//! `f_eva`. A 1:6 divider produces the generator clock `f_gen`, and the
//! generator's 16-step sequence puts the stimulus at `f_wave = f_eva/96`.
//! Because the ΣΔ modulators also run at `f_eva`, the oversampling ratio
//! `N = f_eva/f_wave = 96` is fixed *by construction* — the paper's
//! "inherent synchronization" property. [`MasterClock`] encodes exactly
//! that invariant.

use crate::units::Hertz;

/// The paper's generator clock divider (`f_gen = f_eva / 6`).
pub(crate) const GENERATOR_DIVIDER: u32 = 6;
/// Steps per stimulus period in the generator (`f_wave = f_gen / 16`).
pub(crate) const GENERATOR_STEPS: u32 = 16;
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
    pub(crate) fn new(frequency: Hertz) -> Self {
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

    /// An integer-divided clock (`f_eva / n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn divided(self, n: u32) -> MasterClock {
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
        let clk = MasterClock::for_stimulus(Hertz(1000.0));
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
