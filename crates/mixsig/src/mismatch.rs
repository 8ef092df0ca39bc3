//! Capacitor mismatch and process-variation Monte Carlo.
//!
//! The SC generator's spectral purity (paper Fig. 8b) is limited in practice
//! by how accurately the capacitor array realizes the ideal ratios
//! `CIk = 2·sin(kπ/8)`. Matching in a 0.35 µm process follows Pelgrom's
//! law: the ratio error of a unit capacitor scales as `σ(ΔC/C) = A_C/√C`.
//! [`CapacitorLot`] draws correlated per-instance capacitor values so a
//! whole circuit can be "fabricated" many times for yield analysis.

use crate::noise::NoiseSource;

/// Matching quality of a capacitor array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchingSpec {
    /// Relative 1-σ mismatch of a unit capacitor (e.g. `0.001` = 0.1 %).
    pub unit_sigma: f64,
    /// Relative 3-σ global (all caps together) process spread.
    pub global_spread: f64,
}

impl MatchingSpec {
    /// Typical poly-poly capacitor matching in a 0.35 µm process:
    /// 0.1 % unit mismatch, ±15 % global spread.
    pub fn typical_035um() -> Self {
        Self {
            unit_sigma: 1.0e-3,
            global_spread: 0.15,
        }
    }

    /// Perfect matching (ideal simulation mode).
    pub fn ideal() -> Self {
        Self {
            unit_sigma: 0.0,
            global_spread: 0.0,
        }
    }

    /// Mismatch 1-σ for a capacitor of `ratio` unit sizes: Pelgrom scaling
    /// `σ_unit/√ratio`.
    pub(crate) fn sigma_for_ratio(&self, ratio: f64) -> f64 {
        if ratio <= 0.0 {
            return 0.0;
        }
        self.unit_sigma / ratio.sqrt()
    }
}

/// One "fabricated" set of capacitors: nominal ratios perturbed by a shared
/// global factor and independent local mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitorLot {
    values: Vec<f64>,
}

impl CapacitorLot {
    /// Fabricates the given nominal ratios with the matching spec, drawing
    /// randomness from `noise`.
    pub fn fabricate(nominal: &[f64], spec: MatchingSpec, noise: &mut NoiseSource) -> Self {
        // Global spread is 3-σ; draw a single factor shared by all caps.
        let global_factor = 1.0 + noise.gaussian(spec.global_spread / 3.0);
        let values = nominal
            .iter()
            .map(|&c| {
                let local = noise.gaussian(spec.sigma_for_ratio(c));
                c * global_factor * (1.0 + local)
            })
            .collect();
        Self { values }
    }

    /// Exact nominal values (ideal fabrication).
    pub fn nominal(nominal: &[f64]) -> Self {
        Self {
            values: nominal.to_vec(),
        }
    }

    /// Fabricated value at index `i`.
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Ratio of two fabricated capacitors — the quantity SC circuits
    /// actually depend on (global spread cancels in ratios).
    pub fn ratio(&self, num: usize, den: usize) -> f64 {
        self.values[num] / self.values[den]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_lot_is_exact() {
        let lot = CapacitorLot::nominal(&[1.0, 2.574, 5.194]);
        assert_eq!([0, 1, 2].map(|i| lot.value(i)), [1.0, 2.574, 5.194]);
        assert!((lot.ratio(1, 0) - 2.574).abs() < 1e-15);
    }

    #[test]
    fn ideal_spec_fabricates_exactly() {
        let mut n = NoiseSource::new(5);
        let lot = CapacitorLot::fabricate(&[1.0, 4.0], MatchingSpec::ideal(), &mut n);
        assert_eq!([lot.value(0), lot.value(1)], [1.0, 4.0]);
    }

    #[test]
    fn global_spread_cancels_in_ratio() {
        // With only global spread (no local mismatch), ratios stay exact.
        let spec = MatchingSpec {
            unit_sigma: 0.0,
            global_spread: 0.3,
        };
        let mut n = NoiseSource::new(11);
        let lot = CapacitorLot::fabricate(&[1.0, 2.0, 12.749], spec, &mut n);
        assert!((lot.ratio(1, 0) - 2.0).abs() < 1e-12);
        assert!((lot.ratio(2, 0) - 12.749).abs() < 1e-12);
        // The unit capacitor carries the global factor alone.
        assert!(lot.value(0) != 1.0);
    }

    #[test]
    fn local_mismatch_statistics_follow_pelgrom() {
        let spec = MatchingSpec {
            unit_sigma: 1.0e-3,
            global_spread: 0.0,
        };
        let mut n = NoiseSource::new(13);
        let runs = 20_000;
        let mut err_unit = Vec::with_capacity(runs);
        let mut err_big = Vec::with_capacity(runs);
        for _ in 0..runs {
            let lot = CapacitorLot::fabricate(&[1.0, 16.0], spec, &mut n);
            err_unit.push(lot.value(0) - 1.0);
            err_big.push(lot.value(1) / 16.0 - 1.0);
        }
        let sigma = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
        };
        let s_unit = sigma(&err_unit);
        let s_big = sigma(&err_big);
        assert!((s_unit - 1.0e-3).abs() < 1.0e-4, "unit {s_unit}");
        // 16-unit capacitor: σ should shrink by √16 = 4.
        assert!((s_big - 0.25e-3).abs() < 0.5e-4, "big {s_big}");
    }

    #[test]
    fn sigma_for_zero_ratio_is_zero() {
        assert_eq!(MatchingSpec::typical_035um().sigma_for_ratio(0.0), 0.0);
    }

    #[test]
    fn fabrication_is_seed_deterministic() {
        let spec = MatchingSpec::typical_035um();
        let a = CapacitorLot::fabricate(&[1.0, 2.0], spec, &mut NoiseSource::new(99));
        let b = CapacitorLot::fabricate(&[1.0, 2.0], spec, &mut NoiseSource::new(99));
        assert_eq!(a, b);
    }
}
