//! Digital control-pattern generation — the Agilent 93000's pattern role.
//!
//! The paper's test set-up (Fig. 7) has the ATE "generate the digital
//! control signals and clock". [`ControlProgram`] renders the full vector
//! set for a measurement — the generator's one-hot capacitor selects
//! `c1..c4` and polarity `Φin` (paper Fig. 2c) and the evaluator's
//! modulation controls `q1k`/`q2k` — as clock-aligned bit vectors, so the
//! digital side of the chip can be exercised (or exported) exactly as an
//! ATE would drive it.

use sdeval::QuadratureSquareWave;
use sigen::StepSequencer;

/// One master-clock cycle's worth of control signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlVector {
    /// Generator capacitor selects `c1..c4` (one-hot or all-zero).
    pub c: [bool; 4],
    /// Generator polarity `Φin`.
    pub phi_in: bool,
    /// Evaluator in-phase modulation control `q1k`.
    pub q1: bool,
    /// Evaluator quadrature modulation control `q2k`.
    pub q2: bool,
}

/// A rendered control program for `samples` master-clock cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlProgram {
    vectors: Vec<ControlVector>,
}

impl ControlProgram {
    /// Renders the control program for harmonic `k` at the paper's
    /// `N = 96` for the given number of master-clock samples.
    ///
    /// # Errors
    ///
    /// Returns the square-wave validity error when `96` is not a multiple
    /// of `8k`.
    pub fn render(k: u32, samples: usize) -> Result<Self, sdeval::squarewave::SquareWaveError> {
        let sq = QuadratureSquareWave::new(k, 96)?;
        let mut seq = StepSequencer::new();
        let mut vectors = Vec::with_capacity(samples);
        for t in 0..samples {
            // The sequencer advances at 2·f_gen = f_eva/3: one transfer per
            // three master-clock cycles.
            if t > 0 && t % 3 == 0 {
                seq.tick_half();
            }
            let mut c = [false; 4];
            if let Some(sel) = seq.selected_capacitor() {
                c[sel - 1] = true;
            }
            let s = t as u64;
            vectors.push(ControlVector {
                c,
                phi_in: seq.phi_in(),
                q1: sq.in_phase(s) > 0,
                q2: sq.quadrature(s) > 0,
            });
        }
        Ok(Self { vectors })
    }

    /// The rendered vectors.
    pub fn vectors(&self) -> &[ControlVector] {
        &self.vectors
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Renders as an ATE-style pattern listing (one line per cycle:
    /// `c4 c3 c2 c1 Φin q1 q2`).
    pub fn to_pattern_text(&self) -> String {
        let mut out = String::with_capacity(self.vectors.len() * 16);
        for (t, v) in self.vectors.iter().enumerate() {
            let bit = |b: bool| if b { '1' } else { '0' };
            out.push_str(&format!(
                "{t:>6}  {}{}{}{}  {}  {}{}\n",
                bit(v.c[3]),
                bit(v.c[2]),
                bit(v.c[1]),
                bit(v.c[0]),
                bit(v.phi_in),
                bit(v.q1),
                bit(v.q2),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_or_zero_selects() {
        let prog = ControlProgram::render(1, 96 * 2).unwrap();
        for v in prog.vectors() {
            let active = v.c.iter().filter(|&&b| b).count();
            assert!(active <= 1, "select lines not one-hot: {:?}", v.c);
        }
    }

    #[test]
    fn pattern_period_is_96() {
        let prog = ControlProgram::render(1, 96 * 3).unwrap();
        let v = prog.vectors();
        for t in 0..96 {
            assert_eq!(v[t], v[t + 96], "cycle {t}");
        }
    }

    #[test]
    fn q_signals_match_square_waves() {
        let sq = QuadratureSquareWave::new(3, 96).unwrap();
        let prog = ControlProgram::render(3, 96).unwrap();
        for (t, v) in prog.vectors().iter().enumerate() {
            assert_eq!(v.q1, sq.in_phase(t as u64) > 0);
            assert_eq!(v.q2, sq.quadrature(t as u64) > 0);
        }
    }

    #[test]
    fn phi_in_halves_the_period() {
        let prog = ControlProgram::render(1, 96).unwrap();
        let positives = prog.vectors().iter().filter(|v| v.phi_in).count();
        assert_eq!(positives, 48);
    }

    #[test]
    fn invalid_harmonic_rejected() {
        assert!(ControlProgram::render(5, 96).is_err());
    }

    #[test]
    fn pattern_text_lines() {
        let prog = ControlProgram::render(1, 10).unwrap();
        let text = prog.to_pattern_text();
        assert_eq!(text.lines().count(), 10);
        assert!(text.lines().next().unwrap().contains('1'));
    }
}
