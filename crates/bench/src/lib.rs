//! Shared helpers for the figure/table regeneration harnesses
//! (`src/bin/*`). Timing lives in the repository benchmark
//! (`perfbench/`), not here.
//!
//! Every table and figure of the paper's evaluation section has a binary
//! here that regenerates its rows/series:
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table I (capacitor values) | `table1` |
//! | Fig. 8a (generator waveforms) | `fig8a` |
//! | Fig. 8b (generator spectrum, SFDR/THD) | `fig8b` |
//! | Fig. 9 (evaluator convergence vs MN) | `fig9` |
//! | Fig. 10a (Bode magnitude + error band) | `fig10a` |
//! | Fig. 10b (Bode phase + error band) | `fig10b` |
//! | Fig. 10c (harmonic distortion vs scope) | `fig10c` |
//! | headline dynamic range claim | `dynamic_range` |
//! | ablation: oversampling ratio N | `ablation_n` |
//! | ablation: circuit non-idealities | `ablation_nonideal` |
//! | ablation: modulator order | `ablation_order` |

use dsp::tone::Tone;

/// Mean of a slice.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Minimum and maximum of a slice.
pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// A streaming tone source at normalized frequency `f` (amplitude `a`,
/// start phase `phi`) — the ubiquitous workload of the harnesses.
pub fn tone_source(f: f64, a: f64, phi: f64) -> impl FnMut() -> f64 {
    let tone = Tone::new(f, a, phi);
    let mut n = 0usize;
    move || {
        let v = tone.sample(n);
        n += 1;
        v
    }
}

/// Prints a standard harness header.
pub fn banner(figure: &str, description: &str) {
    println!("================================================================");
    println!("  {figure} — {description}");
    println!("  (reproduction of Barragán/Vázquez/Rueda, DATE 2008)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), 2.5);
        assert_eq!(min_max(&v), (1.0, 4.0));
    }

    #[test]
    fn tone_source_streams() {
        let mut src = tone_source(0.25, 1.0, 0.0);
        assert!(src().abs() < 1e-12);
        assert!((src() - 1.0).abs() < 1e-12);
    }
}
