//! Property-based invariants of the DSP substrate.

use dsp::db::{amplitude_to_db, db_to_amplitude};
use dsp::goertzel::{dft_bin, tone_amplitude_phase, wrap_phase};
use dsp::spectrum::Spectrum;
use dsp::tone::Tone;
use dsp::window::Window;
use proptest::prelude::*;

const WINDOWS: [Window; 5] = [
    Window::Rect,
    Window::Hann,
    Window::Hamming,
    Window::BlackmanHarris,
    Window::FlatTop,
];

proptest! {
    /// dB conversions are inverse bijections over the positive reals.
    #[test]
    fn db_round_trip(a in 1e-9f64..1e9) {
        let db = amplitude_to_db(a);
        prop_assert!((db_to_amplitude(db) - a).abs() / a < 1e-12);
    }

    /// Phase wrapping lands in (−π, π] and preserves the angle mod 2π.
    #[test]
    fn wrap_phase_invariants(p in -100.0f64..100.0) {
        let w = wrap_phase(p);
        prop_assert!(w > -std::f64::consts::PI - 1e-12);
        prop_assert!(w <= std::f64::consts::PI + 1e-12);
        let diff = (p - w) / (2.0 * std::f64::consts::PI);
        prop_assert!((diff - diff.round()).abs() < 1e-9);
    }

    /// Window coefficients are finite, the coherent gain is positive and
    /// bounded by the peak coefficient, and the equivalent noise bandwidth
    /// is at least 1 bin (rect is optimal) for all standard windows.
    #[test]
    fn window_bounds(widx in 0usize..5, n in 16usize..512) {
        let w = WINDOWS[widx];
        let data = w.generate(n);
        let peak = data.iter().cloned().fold(0.0f64, f64::max);
        for &v in &data {
            prop_assert!(v.is_finite());
        }
        let cg = w.coherent_gain(n);
        prop_assert!(cg > 0.0 && cg <= peak + 1e-12, "cg {cg}, peak {peak}");
        prop_assert!(w.enbw(n) >= 0.999, "enbw {}", w.enbw(n));
    }

    /// A coherent tone's amplitude and phase are recovered exactly for any
    /// admissible bin and phase.
    #[test]
    fn coherent_tone_recovery(
        cycles in 1usize..100,
        a in 1e-4f64..10.0,
        phi in -3.1f64..3.1,
    ) {
        let n = 1024;
        let f = cycles as f64 / n as f64;
        let x = Tone::new(f, a, phi).samples(n);
        let (ae, pe) = tone_amplitude_phase(&x, f);
        prop_assert!((ae - a).abs() / a < 1e-9);
        prop_assert!(wrap_phase(pe - phi).abs() < 1e-9);
    }

    /// The one-sided periodogram conserves the energy of arbitrary
    /// rect-windowed records (Parseval).
    #[test]
    fn periodogram_parseval(data in proptest::collection::vec(-10.0f64..10.0, 256)) {
        let s = Spectrum::periodogram(&data, Window::Rect);
        let p_time = data.iter().map(|v| v * v).sum::<f64>() / 256.0;
        prop_assert!((s.total_power() - p_time).abs() <= 1e-9 * p_time.max(1.0));
    }

    /// The DFT bin is linear in the input.
    #[test]
    fn dft_bin_linearity(
        a in proptest::collection::vec(-1.0f64..1.0, 64),
        b in proptest::collection::vec(-1.0f64..1.0, 64),
        k in 0usize..32,
    ) {
        let f = k as f64 / 64.0;
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let lhs = dft_bin(&sum, f);
        let rhs = dft_bin(&a, f) + dft_bin(&b, f);
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }
}
