//! Regenerates paper **Fig. 10c**: harmonic-distortion measurement of the
//! DUT output (800 mVpp, 1.6 kHz drive, M = 400) — the proposed network
//! analyzer against a commercial digital oscilloscope. The paper reads
//! harmonic levels in the −56…−66 dBc range and reports "excellent"
//! agreement between the two instruments.

use ate::{DemoBoard, DigitalOscilloscope};
use dut::ActiveRcFilter;
use mixsig::clock::MasterClock;
use mixsig::units::{Hertz, Volts};
use netan::{AnalyzerConfig, LotEngine, NetworkAnalyzer};
use sigen::GeneratorConfig;

fn main() {
    bench::banner(
        "Fig. 10c",
        "harmonic distortion: proposed analyzer vs digital oscilloscope",
    );
    let device = ActiveRcFilter::paper_dut();
    let f_test = Hertz(1600.0);

    // Proposed network analyzer, M = 400 (paper setting).
    let cfg = AnalyzerConfig::cmos_035um(5)
        .with_periods(400)
        .with_va_diff(Volts(0.2));
    let analyzer = NetworkAnalyzer::new(&device, cfg);
    let report = analyzer
        .measure_harmonics_with(&LotEngine::serial(), f_test, 3)
        .expect("distortion measurement failed");

    // Oscilloscope reference on the same node.
    let clk = MasterClock::for_stimulus(f_test);
    let mut board = DemoBoard::new(GeneratorConfig::cmos_035um(clk, Volts(0.2), 5), &device);
    board.warm_up(40);
    let mut source = board.source();
    let scope = DigitalOscilloscope::wavesurfer().measure_harmonics(&mut source, 1.0 / 96.0, 4);

    println!(
        "{:>4} {:>22} {:>26} {:>12}",
        "Hk", "analyzer (dBc)", "analyzer band (dBc)", "scope (dBc)"
    );
    // Harmonics k = 1..=3 were measured, so H2 and H3 have levels.
    let hd_dbc = |h: u32| {
        report
            .hd_dbc(h)
            .expect("H2 and H3 are measured against a resolved fundamental")
    };
    for (h, scope_dbc) in [(2u32, scope.hd_dbc(2)), (3, scope.hd_dbc(3))] {
        let hd = hd_dbc(h);
        println!(
            "{:>4} {:>22.2} [{:>10.2}, {:>10.2}] {:>12.2}",
            h, hd.est, hd.lo, hd.hi, scope_dbc
        );
    }
    println!(
        "\nfundamental: analyzer {:.1} mV, scope {:.1} mV",
        report.fundamental().est * 1e3,
        scope.fundamental * 1e3
    );
    println!(
        "THD: analyzer {:.2} dB, scope {:.2} dB",
        report.thd_db(),
        scope.thd_db()
    );
    let d2 = (hd_dbc(2).est - scope.hd_dbc(2)).abs();
    let d3 = (hd_dbc(3).est - scope.hd_dbc(3)).abs();
    println!("\nagreement: ΔH2 = {d2:.2} dB, ΔH3 = {d3:.2} dB (paper: \"excellent\")");
    println!(
        "shape checks (paper): H2/H3 in the −56…−66 dBc window and the\n\
         two instruments agreeing within the analyzer's error band."
    );
}
