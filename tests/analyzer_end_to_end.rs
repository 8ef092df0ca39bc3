//! End-to-end integration tests: generator → board → DUT → evaluator →
//! analyzer DSP, across DUT shapes and hardware profiles.

use dut::{ActiveRcFilter, Dut, LinearDut};
use mixsig::units::{Hertz, Volts};
use netan::{AnalyzerConfig, GainMask, LotEngine, LotPlan, NetworkAnalyzer, SpecVerdict};

/// The analyzer must track the analytic response of a DUT within a small
/// absolute tolerance across its whole passband-to-stopband range.
fn assert_tracks_dut(device: &dyn Dut, freqs: &[f64], tol_db: f64, tol_deg: f64) {
    let mut analyzer = NetworkAnalyzer::new(device, AnalyzerConfig::ideal());
    for &f in freqs {
        let p = analyzer.measure_point(Hertz(f)).unwrap();
        let gain_err = (p.gain_db.est - p.ideal_gain_db).abs();
        assert!(
            gain_err < tol_db,
            "f={f}: gain {} vs ideal {} (err {gain_err})",
            p.gain_db.est,
            p.ideal_gain_db
        );
        // Compare phases modulo 360°.
        let mut phase_err = (p.phase_deg.est - p.ideal_phase_deg).abs() % 360.0;
        if phase_err > 180.0 {
            phase_err = 360.0 - phase_err;
        }
        assert!(
            phase_err < tol_deg,
            "f={f}: phase {} vs ideal {} (err {phase_err})",
            p.phase_deg.est,
            p.ideal_phase_deg
        );
    }
}

#[test]
fn tracks_paper_lowpass() {
    let device = ActiveRcFilter::paper_dut().linearized();
    assert_tracks_dut(&device, &[200.0, 500.0, 1000.0, 2000.0, 5000.0], 0.35, 3.0);
}

#[test]
fn tracks_bandpass() {
    let device = LinearDut::bandpass(Hertz(2000.0), 2.0, 1.0);
    assert_tracks_dut(&device, &[500.0, 1000.0, 2000.0, 4000.0, 8000.0], 0.4, 3.0);
}

#[test]
fn tracks_highpass() {
    let device = LinearDut::highpass(Hertz(500.0), std::f64::consts::FRAC_1_SQRT_2, 1.0);
    assert_tracks_dut(&device, &[500.0, 1000.0, 4000.0, 10_000.0], 0.4, 3.0);
}

#[test]
fn tracks_first_order() {
    let device = LinearDut::first_order_lowpass(Hertz(1000.0), 2.0);
    assert_tracks_dut(&device, &[100.0, 1000.0, 10_000.0], 0.35, 3.0);
}

#[test]
fn cmos_hardware_still_tracks_the_dut() {
    // With mismatched capacitors, finite-gain op-amps and noise, absolute
    // accuracy degrades but the Bode shape must survive (paper robustness
    // claim). Gain is relative to the calibrated stimulus, so generator
    // gain errors cancel.
    let device = ActiveRcFilter::paper_dut().linearized();
    for seed in [1u64, 2, 3] {
        let mut analyzer = NetworkAnalyzer::new(&device, AnalyzerConfig::cmos_035um(seed));
        for &f in &[200.0, 1000.0, 5000.0] {
            let p = analyzer.measure_point(Hertz(f)).unwrap();
            let err = (p.gain_db.est - p.ideal_gain_db).abs();
            assert!(err < 1.0, "seed {seed}, f={f}: err {err} dB");
        }
    }
}

#[test]
fn spec_mask_screens_good_and_bad_devices() {
    let plan = LotPlan::from_mask(GainMask::paper_lowpass());
    let freqs = plan.mask().frequencies();

    // A nominal device passes.
    let good = ActiveRcFilter::paper_dut().linearized();
    let mut analyzer = NetworkAnalyzer::new(&good, AnalyzerConfig::ideal());
    let verdict = plan.classify_plot(
        analyzer
            .sweep_with(&LotEngine::serial(), &freqs)
            .unwrap()
            .points(),
    );
    assert_eq!(verdict, Ok(SpecVerdict::Pass));

    // A device with the cut-off at 2 kHz violates the 1 kHz mask point.
    let bad = ActiveRcFilter::new(Hertz(2000.0), std::f64::consts::FRAC_1_SQRT_2, 1.0);
    let mut analyzer = NetworkAnalyzer::new(&bad, AnalyzerConfig::ideal());
    let verdict = plan.classify_plot(
        analyzer
            .sweep_with(&LotEngine::serial(), &freqs)
            .unwrap()
            .points(),
    );
    assert_eq!(verdict, Ok(SpecVerdict::Fail));
}

#[test]
fn distortion_mode_agrees_with_scope() {
    use ate::{DemoBoard, DigitalOscilloscope};
    use mixsig::clock::MasterClock;
    use sigen::GeneratorConfig;

    let device = ActiveRcFilter::paper_dut();
    let f_test = Hertz(1600.0);

    // Analyzer path.
    let cfg = AnalyzerConfig::ideal()
        .with_periods(400)
        .with_va_diff(Volts(0.2));
    let analyzer = NetworkAnalyzer::new(&device, cfg);
    let report = analyzer
        .measure_harmonics_with(&LotEngine::serial(), f_test, 3)
        .unwrap();

    // Scope path.
    let clk = MasterClock::for_stimulus(f_test);
    let mut board = DemoBoard::new(GeneratorConfig::ideal(clk, Volts(0.2)), &device);
    board.warm_up(40);
    let mut source = board.source();
    let scope = DigitalOscilloscope::wavesurfer().measure_harmonics(&mut source, 1.0 / 96.0, 4);

    let d2 = (report.hd_dbc(2).unwrap().est - scope.hd_dbc(2)).abs();
    let d3 = (report.hd_dbc(3).unwrap().est - scope.hd_dbc(3)).abs();
    assert!(d2 < 1.5, "H2 disagreement {d2} dB");
    assert!(d3 < 1.5, "H3 disagreement {d3} dB");
}

#[test]
fn calibration_is_reused_across_sweep() {
    let device = ActiveRcFilter::paper_dut().linearized();
    let mut analyzer = NetworkAnalyzer::new(&device, AnalyzerConfig::ideal());
    let cal1 = analyzer.calibrate().unwrap();
    let _ = analyzer.measure_point(Hertz(500.0)).unwrap();
    let _ = analyzer.measure_point(Hertz(5000.0)).unwrap();
    // Calibration unchanged by measurements.
    assert_eq!(analyzer.calibration().unwrap(), cal1);
}

#[test]
fn bode_csv_has_a_row_per_point() {
    let device = ActiveRcFilter::paper_dut().linearized();
    let mut analyzer = NetworkAnalyzer::new(&device, AnalyzerConfig::ideal().with_periods(50));
    let freqs = netan::log_spaced(Hertz(200.0), Hertz(5000.0), 4);
    let plot = analyzer.sweep_with(&LotEngine::serial(), &freqs).unwrap();
    let csv = netan::bode_csv(&plot);
    assert_eq!(csv.lines().count(), 5); // header + 4 rows
}
