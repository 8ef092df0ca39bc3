//! The generator's digital control sequencer (paper Fig. 2c).
//!
//! The sequencer advances the capacitor-selection signals `c1..c4` and the
//! polarity signal `Φin` at the generator clock `f_gen`. One full pattern
//! spans 16 generator-clock cycles (`16/f_gen`), which defines
//! `f_wave = f_gen/16`. The biquad transfers charge on *both* clock
//! phases, so from its point of view each staircase step lasts two
//! transfer cycles — [`StepSequencer::tick_half`] exposes exactly that
//! timing.

/// Staircase steps per stimulus period (`f_wave = f_gen/16`).
pub const STEPS_PER_PERIOD: usize = 16;

/// Charge-transfer cycles of the biquad per stimulus period (two clock
/// phases per generator clock: `32` transfers per period).
pub(crate) const TRANSFERS_PER_PERIOD: usize = 2 * STEPS_PER_PERIOD;

/// The digital sequencer generating `c1..c4` and `Φin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepSequencer {
    half_cycles: u64,
}

impl StepSequencer {
    /// A sequencer at the start of the pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current staircase step index `j ∈ 0..16`.
    pub fn step_index(&self) -> usize {
        ((self.half_cycles / 2) % STEPS_PER_PERIOD as u64) as usize
    }

    /// The `Φin` polarity for the current step (`true` = positive).
    pub fn phi_in(&self) -> bool {
        self.step_index() < STEPS_PER_PERIOD / 2
    }

    /// Which capacitor `c1..c4` is selected (`None` at the zero crossings,
    /// steps 0 and 8).
    pub fn selected_capacitor(&self) -> Option<usize> {
        match self.step_index() % 8 {
            0 => None,
            1 | 7 => Some(1),
            2 | 6 => Some(2),
            3 | 5 => Some(3),
            4 => Some(4),
            _ => unreachable!(),
        }
    }

    /// Advances by one charge-transfer cycle (half a generator clock) and
    /// returns the step index that was active during it.
    pub fn tick_half(&mut self) -> usize {
        let j = self.step_index();
        self.half_cycles += 1;
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_transfers_per_step() {
        let mut s = StepSequencer::new();
        assert_eq!(s.tick_half(), 0);
        assert_eq!(s.tick_half(), 0);
        assert_eq!(s.tick_half(), 1);
        assert_eq!(s.tick_half(), 1);
        assert_eq!(s.tick_half(), 2);
    }

    #[test]
    fn pattern_repeats_every_32_transfers() {
        let mut s = StepSequencer::new();
        let first: Vec<usize> = (0..TRANSFERS_PER_PERIOD).map(|_| s.tick_half()).collect();
        let second: Vec<usize> = (0..TRANSFERS_PER_PERIOD).map(|_| s.tick_half()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn phi_in_flips_at_half_period() {
        let mut s = StepSequencer::new();
        for _ in 0..16 {
            assert!(s.phi_in());
            s.tick_half();
        }
        for _ in 0..16 {
            assert!(!s.phi_in());
            s.tick_half();
        }
    }

    #[test]
    fn capacitor_selection_is_one_hot_palindrome() {
        let mut s = StepSequencer::new();
        let mut pattern = Vec::new();
        for _ in 0..STEPS_PER_PERIOD {
            pattern.push(s.selected_capacitor());
            s.tick_half();
            s.tick_half();
        }
        assert_eq!(
            pattern,
            vec![
                None,
                Some(1),
                Some(2),
                Some(3),
                Some(4),
                Some(3),
                Some(2),
                Some(1),
                None,
                Some(1),
                Some(2),
                Some(3),
                Some(4),
                Some(3),
                Some(2),
                Some(1),
            ]
        );
    }
}
