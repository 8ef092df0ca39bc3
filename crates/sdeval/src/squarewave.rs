//! The quadrature modulation square waves `SQ_kT(t)` and `SQ_kT(t − T/4k)`.
//!
//! Both waves are derived digitally from the master clock: with `N`
//! samples per stimulus period and harmonic index `k`, the in-phase wave
//! has period `N/k` samples and the quadrature wave is the same wave
//! delayed by `N/(4k)` samples. The paper's validity condition — `N/(8k)`
//! integer — guarantees both the delay and the half-period land on sample
//! boundaries.
//!
//! The signature DSP needs the *discrete* fundamental coefficient of the
//! sampled square wave (its magnitude approaches `2/π` for large `N/k`);
//! [`QuadratureSquareWave::fundamental_coefficient`] computes it exactly so
//! amplitude and phase calibration are bit-accurate at any `N`.

use dsp::Complex64;
use std::f64::consts::PI;

/// Error constructing a square-wave pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquareWaveError {
    /// `N` must be a positive multiple of `8k` (paper Section III.B).
    InvalidRatio {
        /// Oversampling ratio requested.
        n: u32,
        /// Harmonic index requested.
        k: u32,
    },
}

impl std::fmt::Display for SquareWaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SquareWaveError::InvalidRatio { n, k } => {
                write!(
                    f,
                    "oversampling ratio {n} is not a multiple of 8k = {}",
                    8 * k
                )
            }
        }
    }
}

impl std::error::Error for SquareWaveError {}

/// The pair of modulation square waves for harmonic `k` at oversampling
/// ratio `N`.
///
/// `k = 0` degenerates to the constant `+1` (DC measurement, paper eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadratureSquareWave {
    k: u32,
    n: u32,
}

impl QuadratureSquareWave {
    /// Creates the square-wave pair.
    ///
    /// # Errors
    ///
    /// Returns [`SquareWaveError::InvalidRatio`] when `k > 0` and `N` is
    /// not a positive multiple of `8k`.
    pub fn new(k: u32, n: u32) -> Result<Self, SquareWaveError> {
        if n == 0 || (k > 0 && !n.is_multiple_of(8 * k)) {
            return Err(SquareWaveError::InvalidRatio { n, k });
        }
        Ok(Self { k, n })
    }

    /// Harmonic index `k`.
    pub fn k(self) -> u32 {
        self.k
    }

    /// Oversampling ratio `N`.
    pub fn n(self) -> u32 {
        self.n
    }

    /// In-phase value (`+1`/`−1`) at master-clock sample `sample`.
    pub fn in_phase(self, sample: u64) -> i8 {
        if self.k == 0 {
            return 1;
        }
        // Position within the stimulus period scaled by k; positive while
        // the wave is in the first half of its own period.
        let pos = (u64::from(self.k) * sample) % u64::from(self.n);
        if 2 * pos < u64::from(self.n) {
            1
        } else {
            -1
        }
    }

    /// Quadrature value at sample `sample`: the in-phase wave delayed by a
    /// quarter of its period (`N/4k` samples).
    pub fn quadrature(self, sample: u64) -> i8 {
        if self.k == 0 {
            return 1;
        }
        // sq(t − T/4k): shift the sample index back by a quarter of the
        // wave period (integer because 8k | N), modulo one wave period.
        let delay = u64::from(self.n / (4 * self.k));
        let period = u64::from(self.n / self.k);
        let shifted = (sample % period + period - delay) % period;
        self.in_phase(shifted)
    }

    /// Both polarities (`true` = `+1`) for samples 0, 1, 2, … from a
    /// wrapping phase counter: the same values as
    /// [`in_phase`](Self::in_phase) and [`quadrature`](Self::quadrature),
    /// for one add and two compares per sample instead of u64 divisions.
    pub(crate) fn phases(self) -> SquareWavePhases {
        let n = u64::from(self.n);
        SquareWavePhases {
            pos: 0,
            step: u64::from(self.k),
            n,
            half: n.div_ceil(2),
            // The quadrature wave's position is the in-phase one minus
            // k·N/(4k) = N/4 (mod N); k = 0 keeps both waves at +1.
            quarter: if self.k == 0 { 0 } else { n / 4 },
        }
    }

    /// Exact fundamental DFT coefficient of the sampled in-phase wave:
    /// `c = (1/N)·Σ_{n=0}^{N−1} sq(n)·e^{−2πikn/N}`.
    ///
    /// `|c| → 2/π` for large `N/k`; `arg c` captures the half-sample phase
    /// of the discrete wave. Returns `1` for `k = 0`.
    pub fn fundamental_coefficient(self) -> Complex64 {
        if self.k == 0 {
            return Complex64::ONE;
        }
        let n = self.n as usize;
        let k = self.k as usize;
        let mut acc = Complex64::ZERO;
        for i in 0..n {
            let s = f64::from(self.in_phase(i as u64));
            acc += Complex64::cis(-2.0 * PI * (k * i) as f64 / n as f64) * s;
        }
        acc / n as f64
    }
}

/// Running `(in-phase, quadrature)` polarities of a
/// [`QuadratureSquareWave`], built by [`QuadratureSquareWave::phases`].
///
/// The state is `pos = k·s mod N` for the current sample `s`. The
/// in-phase wave is `+1` while `2·pos < N`. The quadrature wave is the
/// same test on `pos − N/4 (mod N)`, which is `+1` exactly when
/// `pos − N/4`, wrapped in u64, is below `N/2`.
#[derive(Debug, Clone)]
pub(crate) struct SquareWavePhases {
    pos: u64,
    step: u64,
    n: u64,
    half: u64,
    quarter: u64,
}

impl SquareWavePhases {
    /// Moves the counter `samples` samples ahead, as that many
    /// [`next`](Iterator::next) calls would.
    /// `k < N` and `N` fits a u32 (see [`QuadratureSquareWave::new`]),
    /// so neither the product nor the sum can overflow.
    pub(crate) fn skip_samples(&mut self, samples: usize) {
        let ahead = self.step * (samples as u64 % self.n) % self.n;
        self.pos = (self.pos + ahead) % self.n;
    }
}

impl Iterator for SquareWavePhases {
    type Item = (bool, bool);

    #[inline]
    fn next(&mut self) -> Option<(bool, bool)> {
        let polarities = (
            self.pos < self.half,
            self.pos.wrapping_sub(self.quarter) < self.half,
        );
        // 8k | N, so k < N and one subtraction wraps.
        self.pos += self.step;
        if self.pos >= self.n {
            self.pos -= self.n;
        }
        Some(polarities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_counter_matches_the_modular_definition() {
        for (k, n) in [
            (0u32, 96u32),
            (0, 1),
            (0, 7),
            (1, 96),
            (2, 96),
            (3, 96),
            (4, 96),
            (1, 8),
        ] {
            let sq = QuadratureSquareWave::new(k, n).unwrap();
            for (s, (p, q)) in (0..1000u64).zip(sq.phases()) {
                assert_eq!(p, sq.in_phase(s) > 0, "k={k} n={n} s={s}");
                assert_eq!(q, sq.quadrature(s) > 0, "k={k} n={n} s={s}");
            }
        }
    }

    #[test]
    fn skipping_samples_equals_stepping_through_them() {
        for (k, n) in [(0u32, 96u32), (1, 96), (3, 96), (1, 8)] {
            let sq = QuadratureSquareWave::new(k, n).unwrap();
            for samples in [0usize, 1, 7, 95, 96, 97, 1024, 100_003] {
                let mut skipped = sq.phases();
                skipped.skip_samples(samples);
                let mut stepped = sq.phases();
                stepped.by_ref().take(samples).for_each(drop);
                assert_eq!(
                    skipped.take(200).collect::<Vec<_>>(),
                    stepped.take(200).collect::<Vec<_>>(),
                    "k={k} n={n} samples={samples}"
                );
            }
        }
    }

    #[test]
    fn paper_condition_enforced() {
        // N = 96: k = 1, 2, 3 valid (96/8k integer); k = 4 → 96/32 = 3 ✓;
        // k = 5 → 96/40 not integer.
        assert!(QuadratureSquareWave::new(1, 96).is_ok());
        assert!(QuadratureSquareWave::new(2, 96).is_ok());
        assert!(QuadratureSquareWave::new(3, 96).is_ok());
        assert!(QuadratureSquareWave::new(4, 96).is_ok());
        assert!(QuadratureSquareWave::new(5, 96).is_err());
    }

    #[test]
    fn error_display() {
        let e = QuadratureSquareWave::new(5, 96).unwrap_err();
        assert!(e.to_string().contains("multiple of 8k"));
    }

    #[test]
    fn k0_is_constant_one() {
        let sq = QuadratureSquareWave::new(0, 96).unwrap();
        for s in 0..200u64 {
            assert_eq!(sq.in_phase(s), 1);
            assert_eq!(sq.quadrature(s), 1);
        }
    }

    #[test]
    fn in_phase_is_half_and_half() {
        let sq = QuadratureSquareWave::new(1, 96).unwrap();
        let plus = (0..96u64).filter(|&s| sq.in_phase(s) == 1).count();
        assert_eq!(plus, 48);
        // First half positive.
        assert_eq!(sq.in_phase(0), 1);
        assert_eq!(sq.in_phase(47), 1);
        assert_eq!(sq.in_phase(48), -1);
        assert_eq!(sq.in_phase(95), -1);
    }

    #[test]
    fn period_is_n_over_k() {
        let sq = QuadratureSquareWave::new(3, 96).unwrap();
        for s in 0..96u64 {
            assert_eq!(sq.in_phase(s), sq.in_phase(s + 32));
            assert_eq!(sq.quadrature(s), sq.quadrature(s + 32));
        }
    }

    #[test]
    fn quadrature_is_quarter_period_delay() {
        for k in [1u32, 2, 3] {
            let sq = QuadratureSquareWave::new(k, 96).unwrap();
            let delay = (96 / (4 * k)) as u64;
            for s in 0..192u64 {
                assert_eq!(sq.quadrature(s + delay), sq.in_phase(s), "k={k}, s={s}");
            }
        }
    }

    #[test]
    fn fundamental_coefficient_magnitude_near_2_over_pi() {
        for k in [1u32, 2, 3] {
            let sq = QuadratureSquareWave::new(k, 96).unwrap();
            let c = sq.fundamental_coefficient();
            let two_over_pi = 2.0 / PI;
            assert!(
                (c.abs() - two_over_pi).abs() < 0.01,
                "k={k}: |c| = {}",
                c.abs()
            );
        }
    }

    #[test]
    fn fundamental_coefficient_exact_for_small_period() {
        // k=1, N=8: |c| = (1/2)/sin(π/8)·(2/8)... compare against a direct
        // closed form |c| = (2/N)·/(2·sin(πk/N))·2 = 1/(N·sin(πk/N))·2.
        let sq = QuadratureSquareWave::new(1, 8).unwrap();
        let c = sq.fundamental_coefficient();
        let expect = 2.0 / (8.0 * (PI / 8.0).sin());
        assert!((c.abs() - expect).abs() < 1e-12, "{} vs {expect}", c.abs());
    }

    #[test]
    fn correlation_identity_with_sine() {
        // mean(sq·A·sin(2πkn/N + φ)) == A·|c|·sin(φ − arg c): the identity
        // the signature DSP relies on.
        let k = 2u32;
        let n = 96usize;
        let sq = QuadratureSquareWave::new(k, n as u32).unwrap();
        let c = sq.fundamental_coefficient();
        for &(a, phi) in &[(1.0, 0.0), (0.5, 1.2), (0.25, -2.5)] {
            let mean: f64 = (0..n)
                .map(|i| {
                    let x = a * (2.0 * PI * (k as usize * i) as f64 / n as f64 + phi).sin();
                    sq.in_phase(i as u64) as f64 * x
                })
                .sum::<f64>()
                / n as f64;
            let expect = a * c.abs() * (phi - c.arg()).sin();
            assert!(
                (mean - expect).abs() < 1e-12,
                "a={a}, φ={phi}: {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn zero_n_rejected() {
        assert!(QuadratureSquareWave::new(1, 0).is_err());
    }
}
