//! Spectral-analysis windows.
//!
//! Coherent sampling (integer cycles per record) is the normal operating
//! mode of the analyzer, where [`Window::Rect`] is exact. Windows are still
//! needed for the "oscilloscope" reference path (`ate::scope`), which, like
//! the paper's LeCroy WaveSurfer, analyzes records that are not guaranteed
//! coherent.

use std::f64::consts::PI;

/// A spectral window function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Window {
    /// Rectangular (no) window — exact for coherent records.
    #[default]
    Rect,
    /// Hann window.
    Hann,
    /// Hamming window.
    Hamming,
    /// 4-term Blackman–Harris window (−92 dB sidelobes).
    BlackmanHarris,
    /// SFT3F flat-top window — near-zero scalloping loss, for amplitude
    /// accuracy on non-coherent tones.
    FlatTop,
}

impl Window {
    /// Sample `i` of an `n`-point window.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub(crate) fn coefficient(self, i: usize, n: usize) -> f64 {
        assert!(i < n, "window index {i} out of range for length {n}");
        if n == 1 {
            return 1.0;
        }
        let x = 2.0 * PI * i as f64 / n as f64;
        match self {
            Window::Rect => 1.0,
            Window::Hann => 0.5 - 0.5 * x.cos(),
            Window::Hamming => 0.54 - 0.46 * x.cos(),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
            }
            Window::FlatTop => {
                1.0 - 1.93 * x.cos() + 1.29 * (2.0 * x).cos() - 0.388 * (3.0 * x).cos()
                    + 0.028 * (4.0 * x).cos()
            }
        }
    }

    /// Generates the full `n`-point window.
    pub fn generate(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coefficient(i, n)).collect()
    }

    /// Coherent gain — the mean of the window, used to normalize tone
    /// amplitudes read off a windowed spectrum.
    pub fn coherent_gain(self, n: usize) -> f64 {
        self.generate(n).iter().sum::<f64>() / n as f64
    }

    /// Equivalent noise bandwidth in bins, used to normalize noise power.
    pub fn enbw(self, n: usize) -> f64 {
        let w = self.generate(n);
        let sum: f64 = w.iter().sum();
        let sq: f64 = w.iter().map(|v| v * v).sum();
        n as f64 * sq / (sum * sum)
    }

    /// Number of bins on each side of a tone that carry its windowed energy.
    ///
    /// Used by metric code to group "tone leakage" bins with the tone.
    pub fn leakage_bins(self) -> usize {
        match self {
            Window::Rect => 0,
            Window::Hann | Window::Hamming => 2,
            Window::BlackmanHarris => 4,
            Window::FlatTop => 5,
        }
    }
}

impl std::fmt::Display for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Window::Rect => "rect",
            Window::Hann => "hann",
            Window::Hamming => "hamming",
            Window::BlackmanHarris => "blackman-harris",
            Window::FlatTop => "flat-top",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Window; 5] = [
        Window::Rect,
        Window::Hann,
        Window::Hamming,
        Window::BlackmanHarris,
        Window::FlatTop,
    ];

    #[test]
    fn rect_is_all_ones() {
        assert!(Window::Rect.generate(16).iter().all(|&v| v == 1.0));
        assert_eq!(Window::Rect.coherent_gain(64), 1.0);
    }

    #[test]
    fn hann_endpoints_are_zero_and_peak_is_one() {
        let w = Window::Hann.generate(256);
        assert!(w[0].abs() < 1e-12);
        let max = w.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-3);
    }

    #[test]
    fn coherent_gains_match_known_values() {
        assert!((Window::Hann.coherent_gain(4096) - 0.5).abs() < 1e-3);
        assert!((Window::Hamming.coherent_gain(4096) - 0.54).abs() < 1e-3);
    }

    #[test]
    fn enbw_matches_known_values() {
        assert!((Window::Rect.enbw(4096) - 1.0).abs() < 1e-9);
        assert!((Window::Hann.enbw(4096) - 1.5).abs() < 1e-2);
        assert!((Window::BlackmanHarris.enbw(4096) - 2.0).abs() < 0.05);
    }

    #[test]
    fn windows_are_symmetric_enough() {
        // Periodic windows: w[i] == w[n-i] for i >= 1.
        for win in ALL {
            let n = 128;
            let w = win.generate(n);
            for i in 1..n {
                assert!((w[i] - w[n - i]).abs() < 1e-12, "{win} asymmetric at {i}");
            }
        }
    }

    #[test]
    fn single_point_window_is_unity() {
        for win in ALL {
            assert_eq!(win.coefficient(0, 1), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Window::Hann.coefficient(8, 8);
    }

    #[test]
    fn display_names() {
        assert_eq!(Window::FlatTop.to_string(), "flat-top");
        assert_eq!(Window::Rect.to_string(), "rect");
    }
}
