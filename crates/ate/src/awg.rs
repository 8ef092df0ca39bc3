//! Arbitrary waveform generation — the ATE's stimulus role.
//!
//! Paper Fig. 9 characterizes the evaluator with a multitone composed by
//! the Agilent 93000 ("This signal is generated by the Agilent 93000 and
//! fed directly to the evaluator"): harmonics 1, 2, 3 of the fundamental
//! with amplitudes 0.2 V, 0.02 V, 0.002 V.

use dsp::tone::{Multitone, Tone};
use sdeval::BlockSource;

/// A multitone AWG emitting samples at the master-clock rate.
#[derive(Debug, Clone, PartialEq)]
pub struct MultitoneAwg {
    multitone: Multitone,
    sample: usize,
}

impl MultitoneAwg {
    /// Creates an AWG playing the given multitone.
    pub fn new(multitone: Multitone) -> Self {
        Self {
            multitone,
            sample: 0,
        }
    }

    /// The paper's Fig. 9 stimulus at oversampling ratio `n`
    /// (fundamental at `1/n` cycles/sample):
    /// `A1 = 0.2 V`, `A2 = 0.02 V`, `A3 = 0.002 V`.
    pub fn fig9_stimulus(n: u32) -> Self {
        let f0 = 1.0 / n as f64;
        Self::new(
            Multitone::new(0.0)
                .with_tone(Tone::new(f0, 0.2, 0.0))
                .with_tone(Tone::new(2.0 * f0, 0.02, 0.0))
                .with_tone(Tone::new(3.0 * f0, 0.002, 0.0)),
        )
    }

    /// The multitone description.
    pub fn multitone(&self) -> &Multitone {
        &self.multitone
    }

    /// Fills `out` with the next `out.len()` samples (the batched
    /// equivalent of [`next_sample`](Self::next_sample)).
    pub fn fill_block(&mut self, out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = self.multitone.sample(self.sample);
            self.sample += 1;
        }
    }

    /// Next output sample.
    pub fn next_sample(&mut self) -> f64 {
        let mut s = [0.0];
        self.fill_block(&mut s);
        s[0]
    }

    /// A closure view suitable for the per-sample evaluator API.
    pub fn source(&mut self) -> impl FnMut() -> f64 + '_ {
        move || self.next_sample()
    }
}

impl BlockSource for MultitoneAwg {
    fn fill_block(&mut self, out: &mut [f64]) {
        MultitoneAwg::fill_block(self, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_levels() {
        let awg = MultitoneAwg::fig9_stimulus(96);
        let tones = awg.multitone().tones();
        assert_eq!(tones.len(), 3);
        assert_eq!(tones[0].amplitude, 0.2);
        assert_eq!(tones[1].amplitude, 0.02);
        assert_eq!(tones[2].amplitude, 0.002);
        assert!((tones[0].frequency - 1.0 / 96.0).abs() < 1e-15);
    }

    #[test]
    fn closure_source_matches_direct() {
        let mut a = MultitoneAwg::fig9_stimulus(96);
        let mut b = MultitoneAwg::fig9_stimulus(96);
        let mut src = a.source();
        for _ in 0..10 {
            assert_eq!(src(), b.next_sample());
        }
    }

    #[test]
    fn periodic_over_n() {
        let mut awg = MultitoneAwg::fig9_stimulus(96);
        let first: Vec<f64> = (0..96).map(|_| awg.next_sample()).collect();
        let second: Vec<f64> = (0..96).map(|_| awg.next_sample()).collect();
        for (x, y) in first.iter().zip(&second) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
