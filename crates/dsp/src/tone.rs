//! Sine and multitone synthesis.
//!
//! The evaluator experiments of the paper (Fig. 9) feed a three-tone signal
//! from the ATE; [`Multitone`] reproduces that workload. All frequencies are
//! *normalized* (cycles per sample) so the same code serves any master-clock
//! setting — the paper's inherent-synchronization property means the
//! normalized stimulus frequency is always `1/N = 1/96`.

use std::f64::consts::PI;

/// A single sinusoidal tone `a·sin(2πfn + φ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tone {
    /// Normalized frequency in cycles/sample, `0 ≤ f < 0.5` for real use.
    pub frequency: f64,
    /// Peak amplitude.
    pub amplitude: f64,
    /// Phase offset in radians.
    pub phase: f64,
}

impl Tone {
    /// Creates a tone from normalized frequency, amplitude and phase.
    pub const fn new(frequency: f64, amplitude: f64, phase: f64) -> Self {
        Self {
            frequency,
            amplitude,
            phase,
        }
    }

    /// Sample at index `n`.
    #[inline]
    pub fn sample(&self, n: usize) -> f64 {
        self.amplitude * (2.0 * PI * self.frequency * n as f64 + self.phase).sin()
    }

    /// Generates `n` samples starting at index 0.
    pub fn samples(&self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.sample(i)).collect()
    }
}

/// A sum of tones plus a DC level — the Fig. 9 workload shape.
///
/// # Example
///
/// ```
/// use dsp::tone::{Multitone, Tone};
///
/// // The paper's evaluator characterization signal: harmonics at
/// // 1x, 2x, 3x the fundamental with amplitudes 0.2, 0.02, 0.002 V.
/// let f0 = 1.0 / 96.0;
/// let mt = Multitone::new(0.0)
///     .with_tone(Tone::new(f0, 0.2, 0.0))
///     .with_tone(Tone::new(2.0 * f0, 0.02, 0.0))
///     .with_tone(Tone::new(3.0 * f0, 0.002, 0.0));
/// assert_eq!(mt.tones().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Multitone {
    dc: f64,
    tones: Vec<Tone>,
}

impl Multitone {
    /// Creates a multitone with the given DC level and no tones.
    pub fn new(dc: f64) -> Self {
        Self {
            dc,
            tones: Vec::new(),
        }
    }

    /// Builder-style tone addition.
    #[must_use]
    pub fn with_tone(mut self, tone: Tone) -> Self {
        self.tones.push(tone);
        self
    }

    /// The tone list.
    pub fn tones(&self) -> &[Tone] {
        &self.tones
    }

    /// Sample at index `n`.
    pub fn sample(&self, n: usize) -> f64 {
        self.dc + self.tones.iter().map(|t| t.sample(n)).sum::<f64>()
    }
}

impl FromIterator<Tone> for Multitone {
    fn from_iter<I: IntoIterator<Item = Tone>>(iter: I) -> Self {
        Self {
            dc: 0.0,
            tones: iter.into_iter().collect(),
        }
    }
}

impl Extend<Tone> for Multitone {
    fn extend<I: IntoIterator<Item = Tone>>(&mut self, iter: I) {
        self.tones.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tone_sample_basics() {
        let t = Tone::new(0.25, 1.0, 0.0);
        // sin(0), sin(π/2), sin(π), sin(3π/2)
        let s = t.samples(4);
        assert!(s[0].abs() < 1e-12);
        assert!((s[1] - 1.0).abs() < 1e-12);
        assert!(s[2].abs() < 1e-12);
        assert!((s[3] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn multitone_superposition() {
        let a = Tone::new(0.01, 1.0, 0.0);
        let b = Tone::new(0.02, 0.5, 1.0);
        let mt = Multitone::new(0.1).with_tone(a).with_tone(b);
        for n in [0usize, 3, 17, 100] {
            assert!((mt.sample(n) - (0.1 + a.sample(n) + b.sample(n))).abs() < 1e-12);
        }
    }

    #[test]
    fn from_iterator_collects() {
        let mt: Multitone = (1..4)
            .map(|k| Tone::new(k as f64 / 96.0, 1.0 / k as f64, 0.0))
            .collect();
        assert_eq!(mt.tones().len(), 3);
        assert_eq!(mt.sample(0), 0.0);
    }

    #[test]
    fn extend_appends() {
        let mut mt = Multitone::new(0.0);
        mt.extend([Tone::new(0.01, 1.0, 0.0), Tone::new(0.02, 0.5, 0.0)]);
        assert_eq!(mt.tones().len(), 2);
    }
}
