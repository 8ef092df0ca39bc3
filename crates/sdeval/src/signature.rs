//! Signature DSP: paper equations (3)–(5) with hard error bounds.
//!
//! The signatures relate to the k-th harmonic (amplitude `Ak`, phase `φk`
//! relative to `SQ_kT(t)`) through the *exact* discrete correlation
//! identity (see [`crate::squarewave`]):
//!
//! ```text
//! I1k = (MN/Vref)·Ak·|c|·sin(φk − ψ) + offset + ε1k
//! I2k = (MN/Vref)·Ak·|c|·cos(φk − ψ) + offset + ε2k
//! ```
//!
//! where `c` is the fundamental DFT coefficient of the sampled in-phase
//! square wave (`|c| → 2/π`, recovering the paper's π/2 factor) and
//! `ε ∈ [−4, 4]` is the telescoped ΣΔ quantization error. Inverting these
//! with interval arithmetic over the ε-rectangle yields guaranteed
//! enclosures for `B`, `Ak` and `φk` — the paper's eq. (3), (4), (5).

use dsp::goertzel::wrap_phase;
use dsp::Complex64;

/// The hard bound on the telescoped ΣΔ quantization error of a signature
/// (paper: `ε1k, ε2k ∈ [−4, 4]`).
pub const EPSILON_BOUND: f64 = 4.0;

/// A measured value with a guaranteed enclosure `[lo, hi]` and the midpoint
/// estimate `est`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounded {
    /// Lower bound.
    pub lo: f64,
    /// Best estimate.
    pub est: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Bounded {
    /// Creates a bounded value.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (NaNs also fail).
    pub fn new(lo: f64, est: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid interval [{lo}, {hi}]");
        Self { lo, est, hi }
    }

    /// A degenerate interval around a single point.
    pub fn point(v: f64) -> Self {
        Self {
            lo: v,
            est: v,
            hi: v,
        }
    }

    /// Width of the enclosure.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the enclosure contains `v`.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interval ratio `self / other`, valid when `other` is strictly
    /// positive — the gain computation of the network analyzer.
    ///
    /// # Panics
    ///
    /// Panics if `other.lo <= 0`.
    pub fn ratio(&self, other: &Bounded) -> Bounded {
        assert!(
            other.lo > 0.0,
            "interval division requires a positive divisor"
        );
        Bounded::new(self.lo / other.hi, self.est / other.est, self.hi / other.lo)
    }

    /// Interval difference `self − other` — the phase-shift computation.
    pub fn minus(&self, other: &Bounded) -> Bounded {
        Bounded::new(self.lo - other.hi, self.est - other.est, self.hi - other.lo)
    }

    /// Maps through a monotonically increasing function.
    pub fn map_monotonic(&self, f: impl Fn(f64) -> f64) -> Bounded {
        Bounded::new(f(self.lo), f(self.est), f(self.hi))
    }
}

impl std::fmt::Display for Bounded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6} ∈ [{:.6}, {:.6}]", self.est, self.lo, self.hi)
    }
}

/// The pair of signatures for one harmonic, with the acquisition geometry
/// needed to interpret them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignaturePair {
    /// In-phase signature `I1k` (fractional after chopping).
    pub i1: f64,
    /// Quadrature signature `I2k`.
    pub i2: f64,
    /// Evaluation periods `M`.
    pub m: u32,
    /// Oversampling ratio `N`.
    pub n: u32,
    /// Harmonic index `k`.
    pub k: u32,
}

impl SignaturePair {
    /// Total number of samples `M·N`.
    fn total_samples(&self) -> f64 {
        self.m as f64 * self.n as f64
    }
}

/// Paper eq. (3): the DC level `B` from a k = 0 signature.
pub fn dc_from_signature(i: f64, m: u32, n: u32, vref: f64) -> Bounded {
    let mn = m as f64 * n as f64;
    let scale = vref / mn;
    Bounded::new(
        (i - EPSILON_BOUND) * scale,
        i * scale,
        (i + EPSILON_BOUND) * scale,
    )
}

/// Paper eq. (4): the amplitude `Ak` enclosure from a signature pair.
///
/// `c` is the fundamental coefficient of the sampled in-phase square wave
/// ([`crate::squarewave::QuadratureSquareWave::fundamental_coefficient`]).
pub fn amplitude_from_signatures(pair: &SignaturePair, vref: f64, c: Complex64) -> Bounded {
    let mn = pair.total_samples();
    let scale = vref / (mn * c.abs());
    let sq_min = |i: f64| {
        let d = (i.abs() - EPSILON_BOUND).max(0.0);
        d * d
    };
    let sq_max = |i: f64| {
        let d = i.abs() + EPSILON_BOUND;
        d * d
    };
    let lo = (sq_min(pair.i1) + sq_min(pair.i2)).sqrt() * scale;
    let hi = (sq_max(pair.i1) + sq_max(pair.i2)).sqrt() * scale;
    let est = (pair.i1 * pair.i1 + pair.i2 * pair.i2).sqrt() * scale;
    Bounded::new(lo, est, hi)
}

/// Paper eq. (5): the phase `φk` enclosure (radians, relative to
/// `SQ_kT(t)`), from the ε-rectangle corners of `atan2(I1, I2) + ψ` with
/// `ψ = arg c`.
///
/// When the rectangle contains the origin the phase is unconstrained and
/// the full `[−π, π]` interval is returned around the raw estimate.
pub fn phase_from_signatures(pair: &SignaturePair, c: Complex64) -> Bounded {
    let psi = c.arg();
    let est = wrap_phase(pair.i1.atan2(pair.i2) + psi);
    let e = EPSILON_BOUND;
    // Does the ε-rectangle contain the origin?
    if pair.i1.abs() <= e && pair.i2.abs() <= e {
        return Bounded::new(est - std::f64::consts::PI, est, est + std::f64::consts::PI);
    }
    let corners = [
        (pair.i1 - e, pair.i2 - e),
        (pair.i1 - e, pair.i2 + e),
        (pair.i1 + e, pair.i2 - e),
        (pair.i1 + e, pair.i2 + e),
    ];
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (a, b) in corners {
        let phi = a.atan2(b) + psi;
        // Unwrap each corner to within π of the estimate so the interval
        // does not artificially straddle the branch cut.
        let mut d = phi - est;
        while d > std::f64::consts::PI {
            d -= 2.0 * std::f64::consts::PI;
        }
        while d < -std::f64::consts::PI {
            d += 2.0 * std::f64::consts::PI;
        }
        lo = lo.min(est + d);
        hi = hi.max(est + d);
    }
    Bounded::new(lo, est, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn bounded_basics() {
        let b = Bounded::new(0.9, 1.0, 1.1);
        assert!(b.contains(1.0));
        assert!(!b.contains(1.2));
        assert!((b.width() - 0.2).abs() < 1e-12);
        assert_eq!(Bounded::point(2.0).width(), 0.0);
    }

    #[test]
    fn ratio_widens_correctly() {
        let num = Bounded::new(0.9, 1.0, 1.1);
        let den = Bounded::new(1.8, 2.0, 2.2);
        let r = num.ratio(&den);
        assert!((r.est - 0.5).abs() < 1e-12);
        assert!((r.lo - 0.9 / 2.2).abs() < 1e-12);
        assert!((r.hi - 1.1 / 1.8).abs() < 1e-12);
    }

    #[test]
    fn minus_widens_correctly() {
        let a = Bounded::new(0.9, 1.0, 1.1);
        let b = Bounded::new(0.2, 0.3, 0.4);
        let d = a.minus(&b);
        assert!((d.lo - 0.5).abs() < 1e-12);
        assert!((d.est - 0.7).abs() < 1e-12);
        assert!((d.hi - 0.9).abs() < 1e-12);
    }

    #[test]
    fn dc_bounds_shrink_with_mn() {
        let small = dc_from_signature(100.0, 2, 96, 1.0);
        let large = dc_from_signature(10_000.0, 200, 96, 1.0);
        assert!(large.width() < small.width());
        // Width is exactly 8·vref/MN.
        assert!((small.width() - 8.0 / (2.0 * 96.0)).abs() < 1e-12);
    }

    #[test]
    fn amplitude_enclosure_contains_truth_synthetic() {
        // Construct signatures for a known Ak, φ with a synthetic ε inside
        // the bound and verify the enclosure contains the truth.
        let c = Complex64::from_polar(2.0 / PI, -0.1);
        let vref = 1.0;
        let (a_true, phi_true) = (0.25, 0.8);
        let (m, n, k) = (100u32, 96u32, 1u32);
        let mn = (m * n) as f64;
        let scale = mn * c.abs() / vref;
        for &(e1, e2) in &[(0.0, 0.0), (3.9, -3.9), (-2.0, 1.0)] {
            let i1 = scale * a_true * (phi_true - c.arg()).sin() + e1;
            let i2 = scale * a_true * (phi_true - c.arg()).cos() + e2;
            let pair = SignaturePair { i1, i2, m, n, k };
            let amp = amplitude_from_signatures(&pair, vref, c);
            assert!(amp.contains(a_true), "ε=({e1},{e2}): {amp}");
            let phase = phase_from_signatures(&pair, c);
            assert!(phase.contains(phi_true), "ε=({e1},{e2}): {phase}");
        }
    }

    #[test]
    fn amplitude_bound_width_scales_inverse_mn() {
        let c = Complex64::from_polar(2.0 / PI, 0.0);
        let mk = |m: u32| {
            let mn = (m * 96) as f64;
            let pair = SignaturePair {
                i1: 0.3 * mn,
                i2: 0.4 * mn,
                m,
                n: 96,
                k: 1,
            };
            amplitude_from_signatures(&pair, 1.0, c).width()
        };
        let w100 = mk(100);
        let w1000 = mk(1000);
        assert!((w100 / w1000 - 10.0).abs() < 0.5, "{w100} vs {w1000}");
    }

    #[test]
    fn small_signature_amplitude_floor_is_zero() {
        let c = Complex64::from_polar(2.0 / PI, 0.0);
        let pair = SignaturePair {
            i1: 1.0,
            i2: -2.0,
            m: 2,
            n: 96,
            k: 1,
        };
        let amp = amplitude_from_signatures(&pair, 1.0, c);
        assert_eq!(amp.lo, 0.0);
        assert!(amp.hi > amp.est);
    }

    #[test]
    fn tiny_signatures_give_unbounded_phase() {
        let c = Complex64::from_polar(2.0 / PI, 0.0);
        let pair = SignaturePair {
            i1: 1.0,
            i2: 1.0,
            m: 2,
            n: 96,
            k: 1,
        };
        let phase = phase_from_signatures(&pair, c);
        assert!((phase.width() - 2.0 * PI).abs() < 1e-12);
    }

    #[test]
    fn phase_interval_narrows_with_signal() {
        let c = Complex64::from_polar(2.0 / PI, 0.0);
        let mk = |scale: f64| {
            let pair = SignaturePair {
                i1: 300.0 * scale,
                i2: 400.0 * scale,
                m: 10,
                n: 96,
                k: 1,
            };
            phase_from_signatures(&pair, c).width()
        };
        assert!(mk(10.0) < mk(1.0));
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn inverted_interval_panics() {
        let _ = Bounded::new(1.0, 0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive divisor")]
    fn ratio_by_zero_crossing_interval_panics() {
        let _ = Bounded::point(1.0).ratio(&Bounded::new(-1.0, 0.0, 1.0));
    }
}
