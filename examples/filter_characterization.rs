//! Adaptive vs fixed-grid Bode characterization — the enclosure-driven
//! refinement showcase.
//!
//! Two devices are characterized:
//!
//! 1. the paper's DUT (1 kHz Butterworth low-pass, fabricated from 1 %
//!    parts) measured with the realistic 0.35 µm CMOS analyzer hardware —
//!    the Fig. 10a/b experiment, now with refinement concentrating points
//!    around the −3 dB shoulder;
//! 2. a high-Q (Q ≈ 10) variant of the same active-RC filter, where a
//!    fixed 20-point log grid *visibly undersamples* the resonance peak:
//!    the reconstruction between grid points misses most of the +20 dB
//!    knee, while the adaptive sweep nails it with fewer points.
//!
//! Emits the adaptive high-Q Bode data as CSV on stdout (pipe to a file,
//! then `plot_report --gnuplot <csv>`; the trailing `round` column shows
//! which refinement round placed each point) and the comparison summary
//! on stderr.
//!
//! Run with: `cargo run --release --example filter_characterization > bode.csv`

use dut::ActiveRcFilter;
use mixsig::units::{Hertz, Volts};
use netan::{
    bode_csv, log_spaced, reconstruction_error_db, AnalyzerConfig, LotEngine, NetworkAnalyzer,
    RefinementPolicy,
};

fn main() -> Result<(), netan::NetanError> {
    let engine = LotEngine::auto();

    // ------------------------------------------------------------------
    // 1. The paper DUT under CMOS hardware, refined around its shoulder.
    // ------------------------------------------------------------------
    let device = ActiveRcFilter::paper_dut()
        .linearized()
        .fabricate(0.01, 2024);
    eprintln!(
        "paper DUT as fabricated: f0 = {:.1} Hz, Q = {:.4}",
        device.f0().value(),
        device.q()
    );
    let config = AnalyzerConfig::cmos_035um(7).with_periods(200);
    let mut analyzer = NetworkAnalyzer::new(&device, config);

    let seed = log_spaced(Hertz(100.0), Hertz(20_000.0), 9);
    let policy = RefinementPolicy::new(0.4).with_max_points(25);
    let plot = analyzer.sweep_adaptive_with(&engine, &seed, &policy)?;
    let refined = plot.points().iter().filter(|p| p.round > 0).count();
    eprintln!(
        "adaptive sweep: {} points ({} seed + {} refined), worst point error {:.3} dB",
        plot.len(),
        plot.len() - refined,
        refined,
        plot.worst_gain_error_db().unwrap_or(f64::NAN),
    );
    if let Some(fc) = plot.cutoff_frequency() {
        eprintln!(
            "measured cut-off {:.1} Hz vs fabricated {:.1} Hz",
            fc.value(),
            device.f0().value()
        );
    }

    // ------------------------------------------------------------------
    // 2. The high-Q variant: fixed 20-point grid vs adaptive refinement.
    // ------------------------------------------------------------------
    let high_q = ActiveRcFilter::new(Hertz(1000.0), 10.0, 1.0);
    // The resonance peaks at ≈ +20 dB: drive gently so the peak stays
    // inside the modulator's stable range, and sweep only where the
    // attenuated output stays above the instrument's guaranteed error
    // floor (the deep stopband of a gently driven high-Q DUT is not
    // measurable at this M — the enclosures say so).
    let config = AnalyzerConfig::ideal()
        .with_periods(100)
        .with_va_diff(Volts(0.030));
    let mut analyzer = NetworkAnalyzer::new(&high_q, config);

    let fixed_grid = log_spaced(Hertz(200.0), Hertz(5_000.0), 20);
    let fixed = analyzer.sweep_with(&engine, &fixed_grid)?;
    let seed = log_spaced(Hertz(200.0), Hertz(5_000.0), 8);
    let policy = RefinementPolicy::new(0.25).with_max_points(14);
    let adaptive = analyzer.sweep_adaptive_with(&engine, &seed, &policy)?;

    // Reconstruction error: worst |interpolated − analytic| gain between
    // samples — what undersampling the peak actually costs.
    let probes = 256;
    let e_fixed = reconstruction_error_db(&fixed, &high_q, probes).unwrap_or(f64::NAN);
    let e_adaptive = reconstruction_error_db(&adaptive, &high_q, probes).unwrap_or(f64::NAN);
    eprintln!("\nhigh-Q DUT (Q = 10): fixed grid vs adaptive refinement");
    eprintln!(
        "  fixed    {:>3} points: reconstruction error {:>7.2} dB (the peak slips between points)",
        fixed.len(),
        e_fixed
    );
    eprintln!(
        "  adaptive {:>3} points: reconstruction error {:>7.2} dB",
        adaptive.len(),
        e_adaptive
    );
    let refined: Vec<f64> = adaptive
        .points()
        .iter()
        .filter(|p| p.round > 0)
        .map(|p| p.frequency.value())
        .collect();
    let near_peak = refined
        .iter()
        .filter(|&&f| (f / 1000.0).ln().abs() < std::f64::consts::LN_2)
        .count();
    eprintln!(
        "  {near_peak} of the {} refined points landed within ±1 octave of the knee: {:?}",
        refined.len(),
        refined.iter().map(|f| f.round()).collect::<Vec<_>>()
    );

    // The adaptive high-Q plot is the interesting dataset: emit it.
    print!("{}", bode_csv(&adaptive));
    Ok(())
}
