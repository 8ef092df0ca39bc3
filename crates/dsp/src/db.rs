//! Decibel conversions and the paper's spectral axes.
//!
//! The paper reports three different decibel axes:
//!
//! * **dBc** (Fig. 8b, Fig. 10c) — relative to the carrier amplitude,
//! * **"dBm"** (Fig. 9) — the authors state these are measurements
//!   *"relative to the full scale range of the modulator"*; matching the
//!   printed numbers (A₁ = 0.2 V ↦ ≈ −11 dB) implies a reference of
//!   `1/√2 V` ≈ 0.707 V, which we adopt as [`DBFS_REF_VOLTS`],
//! * plain **dB** gain (Fig. 10a).

/// Reference amplitude of the paper's Fig. 9 "dBm" axis, in volts.
///
/// Chosen so `amplitude_to_dbfs(0.2) ≈ −10.98 dB`, matching the plotted
/// convergence level of the 0.2 V tone.
pub const DBFS_REF_VOLTS: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Converts an amplitude ratio to decibels: `20·log10(a)`.
///
/// # Example
///
/// ```
/// use dsp::amplitude_to_db;
/// assert!((amplitude_to_db(10.0) - 20.0).abs() < 1e-12);
/// ```
#[inline]
pub fn amplitude_to_db(a: f64) -> f64 {
    20.0 * a.log10()
}

/// Converts a power ratio to decibels: `10·log10(p)`.
#[inline]
pub fn power_to_db(p: f64) -> f64 {
    10.0 * p.log10()
}

/// Converts decibels back to an amplitude ratio.
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Amplitude (volts) → the paper's Fig. 9 "dBm" (dB-full-scale) axis.
#[inline]
pub fn amplitude_to_dbfs(volts: f64) -> f64 {
    amplitude_to_db(volts / DBFS_REF_VOLTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trips() {
        for &a in &[1e-6, 0.01, 0.5, 1.0, 3.3, 1e4] {
            assert!((db_to_amplitude(amplitude_to_db(a)) - a).abs() / a < 1e-12);
        }
    }

    #[test]
    fn power_is_twice_amplitude_db() {
        let r = 7.3;
        assert!((amplitude_to_db(r) - power_to_db(r * r)).abs() < 1e-9);
    }

    #[test]
    fn paper_fig9_axis_matches() {
        // Fig. 9: 0.2 V converges near -11 dB; 0.02 V near -31 dB; 0.002 V near -51 dB.
        assert!((amplitude_to_dbfs(0.2) + 10.98).abs() < 0.05);
        assert!((amplitude_to_dbfs(0.02) + 30.98).abs() < 0.05);
        assert!((amplitude_to_dbfs(0.002) + 50.98).abs() < 0.05);
    }
}
