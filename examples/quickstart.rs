//! Quickstart: characterize the paper's 1 kHz low-pass DUT at a few
//! frequencies and print the Bode rows with their guaranteed error bands.
//!
//! Run with: `cargo run --release --example quickstart`

use dut::ActiveRcFilter;
use mixsig::units::Hertz;
use netan::{bode_table, AnalyzerConfig, LotEngine, NetworkAnalyzer};

fn main() -> Result<(), netan::NetanError> {
    // The DUT of the paper's demonstrator board (linearized: pure Bode).
    let device = ActiveRcFilter::paper_dut().linearized();

    // An ideal-hardware analyzer, M = 200 evaluation periods per point
    // (the paper's Fig. 10a/b setting).
    let mut analyzer = NetworkAnalyzer::new(&device, AnalyzerConfig::ideal());

    // Calibrate once over the bypass path: characterizes the stimulus.
    let cal = analyzer.calibrate()?;
    println!(
        "stimulus: {} V (phase {:.4} rad)\n",
        cal.amplitude, cal.phase.est
    );

    // Sweep a short log grid. The master clock is retuned per point so the
    // oversampling ratio N = 96 never changes.
    let freqs: Vec<Hertz> = netan::log_spaced(Hertz(100.0), Hertz(20_000.0), 9);
    let plot = analyzer.sweep_with(&LotEngine::serial(), &freqs)?;

    println!("{}", bode_table(&plot));
    if let Some(fc) = plot.cutoff_frequency() {
        println!(
            "measured -3 dB cut-off: {:.1} Hz (nominal 1000 Hz)",
            fc.value()
        );
    }
    // Both metrics are None only for an empty plot; this sweep has points.
    println!(
        "worst |gain error| vs analytic: {:.3} dB; enclosure coverage: {:.0} %",
        plot.worst_gain_error_db().unwrap_or(f64::NAN),
        100.0 * plot.gain_coverage().unwrap_or(f64::NAN)
    );
    Ok(())
}
