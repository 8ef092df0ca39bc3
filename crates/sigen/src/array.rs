//! The time-variant input capacitor array (paper Fig. 2b, eq. 1–2).
//!
//! Four capacitors with nominal weights `CIk = 2·sin(kπ/8)` are connected
//! to the signal path one at a time. Together with the polarity control
//! `Φin` they synthesize the sampled staircase
//!
//! ```text
//! w_j = 2·sin(π·j/8),  j = 0..15
//! ```
//!
//! which is an *exactly sampled* sine — all in-band distortion of the real
//! circuit comes from capacitor mismatch, which [`CapacitorArray::fabricate`]
//! models.

use mixsig::mismatch::{CapacitorLot, MatchingSpec};
use mixsig::noise::NoiseSource;
use std::f64::consts::PI;

/// Number of capacitors in the array (`CI1..CI4`).
pub(crate) const ARRAY_SIZE: usize = 4;

/// Nominal capacitor weights `CIk = 2·sin(kπ/8)` for `k = 1..=4`.
pub(crate) fn nominal_weights() -> [f64; ARRAY_SIZE] {
    [1, 2, 3, 4].map(|k| 2.0 * (k as f64 * PI / 8.0).sin())
}

/// The fabricated input capacitor array.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitorArray {
    lot: CapacitorLot,
}

impl CapacitorArray {
    /// An array with exact nominal weights.
    pub fn nominal() -> Self {
        Self {
            lot: CapacitorLot::nominal(&nominal_weights()),
        }
    }

    /// Fabricates an array with the given matching quality.
    pub fn fabricate(spec: MatchingSpec, noise: &mut NoiseSource) -> Self {
        Self {
            lot: CapacitorLot::fabricate(&nominal_weights(), spec, noise),
        }
    }

    /// The (possibly mismatched) weight of capacitor `CIk`, `k = 1..=4`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than 4.
    pub fn weight(&self, k: usize) -> f64 {
        assert!(
            (1..=ARRAY_SIZE).contains(&k),
            "capacitor index {k} out of 1..=4"
        );
        self.lot.value(k - 1)
    }

    /// The signed staircase weight for step `j` of the 16-step sequence:
    /// capacitor selection plus `Φin` polarity (paper eq. 1).
    ///
    /// Step 0 and 8 connect no capacitor (weight 0).
    pub fn step_weight(&self, j: usize) -> f64 {
        let j = j % 16;
        let sign = if j < 8 { 1.0 } else { -1.0 };
        let k = match j % 8 {
            0 => return 0.0,
            1 | 7 => 1,
            2 | 6 => 2,
            3 | 5 => 3,
            4 => 4,
            _ => unreachable!(),
        };
        sign * self.weight(k)
    }
}

impl Default for CapacitorArray {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_weights_match_equation_2() {
        let w = nominal_weights();
        assert!((w[0] - 0.765_366_864_730_18).abs() < 1e-12);
        assert!((w[1] - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!((w[2] - 1.847_759_065_022_57).abs() < 1e-12);
        assert!((w[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn staircase_is_sampled_sine() {
        // w_j must equal 2·sin(2π·j/16) exactly for nominal caps.
        let arr = CapacitorArray::nominal();
        for j in 0..16 {
            let expect = 2.0 * (2.0 * PI * j as f64 / 16.0).sin();
            assert!(
                (arr.step_weight(j) - expect).abs() < 1e-12,
                "step {j}: {} vs {expect}",
                arr.step_weight(j)
            );
        }
    }

    #[test]
    fn staircase_has_no_low_harmonics() {
        // DFT of the nominal 16-step sequence: harmonics 2..7 are exactly 0;
        // first image at |k|=15/17 (i.e. bin 15 of a 16-point DFT aliases).
        let arr = CapacitorArray::nominal();
        let w: [f64; 16] = std::array::from_fn(|j| arr.step_weight(j));
        for k in 2..=7usize {
            let mut re = 0.0;
            let mut im = 0.0;
            for (j, &v) in w.iter().enumerate() {
                let th = 2.0 * PI * (k * j) as f64 / 16.0;
                re += v * th.cos();
                im -= v * th.sin();
            }
            let mag = (re * re + im * im).sqrt();
            assert!(mag < 1e-12, "harmonic {k}: {mag}");
        }
    }

    #[test]
    fn polarity_antisymmetry() {
        let arr = CapacitorArray::nominal();
        for j in 0..8 {
            assert_eq!(arr.step_weight(j), -arr.step_weight(j + 8));
        }
    }

    #[test]
    fn mismatch_perturbs_weights() {
        let spec = MatchingSpec {
            unit_sigma: 0.01,
            global_spread: 0.0,
        };
        let arr = CapacitorArray::fabricate(spec, &mut NoiseSource::new(3));
        let nom = nominal_weights();
        let mut any_diff = false;
        for k in 1..=4 {
            let rel = (arr.weight(k) - nom[k - 1]).abs() / nom[k - 1];
            assert!(rel < 0.1, "mismatch too large: {rel}");
            if rel > 1e-6 {
                any_diff = true;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn step_weight_wraps_past_16() {
        let arr = CapacitorArray::nominal();
        assert_eq!(arr.step_weight(0), arr.step_weight(16));
        assert_eq!(arr.step_weight(5), arr.step_weight(21));
    }

    #[test]
    #[should_panic(expected = "out of 1..=4")]
    fn weight_index_zero_panics() {
        let _ = CapacitorArray::nominal().weight(0);
    }
}
