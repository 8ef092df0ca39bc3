//! Harmonic-distortion measurement (the paper's Fig. 10c experiment):
//! the on-chip analyzer versus a commercial "digital oscilloscope".
//!
//! The DUT is driven at 1.6 kHz with an 800 mVpp stimulus; its output
//! stage distorts weakly. The analyzer measures H2 and H3 with hard error
//! bounds (M = 400 periods, as in the paper); the scope measures the same
//! node with an 8192-point Blackman–Harris FFT. The two must agree.
//!
//! Run with: `cargo run --release --example harmonic_distortion`

use ate::{DemoBoard, DigitalOscilloscope};
use dut::ActiveRcFilter;
use mixsig::clock::MasterClock;
use mixsig::units::{Hertz, Volts};
use netan::{distortion_table, AnalyzerConfig, LotEngine, NetworkAnalyzer};
use sigen::GeneratorConfig;

fn main() -> Result<(), netan::NetanError> {
    let device = ActiveRcFilter::paper_dut(); // includes the weak nonlinearity
    let f_test = Hertz(1600.0);

    // --- Proposed network analyzer -------------------------------------
    let config = AnalyzerConfig::ideal()
        .with_periods(400) // paper: 400 periods for distortion
        .with_va_diff(Volts(0.2)); // 800 mVpp differential stimulus
    let analyzer = NetworkAnalyzer::new(&device, config);
    let report = analyzer.measure_harmonics_with(&LotEngine::serial(), f_test, 3)?;

    println!("— proposed network analyzer (M = 400) —");
    print!("{}", distortion_table(&report));

    // --- Commercial oscilloscope reference ------------------------------
    let clk = MasterClock::for_stimulus(f_test);
    let mut board = DemoBoard::new(GeneratorConfig::ideal(clk, Volts(0.2)), &device);
    board.warm_up(40);
    let scope = DigitalOscilloscope::wavesurfer();
    let mut source = board.source();
    let h = scope.measure_harmonics(&mut source, 1.0 / 96.0, 4);

    println!("\n— LeCroy-class oscilloscope (8192-pt FFT) —");
    println!("fundamental: {:.4} V", h.fundamental);
    println!("H2: {:>7.2} dBc", h.hd_dbc(2));
    println!("H3: {:>7.2} dBc", h.hd_dbc(3));
    println!("THD: {:.2} dB", h.thd_db());

    // Harmonics k = 1..=3 were measured, so H2 and H3 have levels.
    let hd_dbc = |h: u32| {
        report
            .hd_dbc(h)
            .expect("H2 and H3 are measured against a resolved fundamental")
    };
    let d2 = (hd_dbc(2).est - h.hd_dbc(2)).abs();
    let d3 = (hd_dbc(3).est - h.hd_dbc(3)).abs();
    println!("\nagreement: ΔH2 = {d2:.2} dB, ΔH3 = {d3:.2} dB");
    Ok(())
}
