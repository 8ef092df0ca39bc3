//! The paper's headline claims, as executable assertions.
//!
//! * frequency range up to 20 kHz with a dynamic range of 70 dB,
//! * inherent synchronization: N = 96 at every master-clock setting,
//! * evaluator accuracy selectable via M (Fig. 9),
//! * amplitude programming through `VA+ − VA−` (Fig. 8a),
//! * generator purity ≈ 70 dB SFDR with CMOS non-idealities (Fig. 8b).

use ate::MultitoneAwg;
use dsp::tone::Tone;
use mixsig::clock::MasterClock;
use mixsig::units::{Hertz, Volts};
use sdeval::{EvaluatorConfig, SinewaveEvaluator};
use sigen::{GeneratorConfig, GeneratorSpectrum, SinewaveGenerator};

fn tone_source(f: f64, a: f64, phi: f64) -> impl FnMut() -> f64 {
    let t = Tone::new(f, a, phi);
    let mut n = 0usize;
    move || {
        let v = t.sample(n);
        n += 1;
        v
    }
}

#[test]
fn dynamic_range_70db_at_20khz() {
    // A tone 70 dB below full scale (1 V reference → 0.316 mV), at the
    // N = 96 normalized frequency the analyzer uses at f_wave = 20 kHz.
    // With enough evaluation periods the evaluator must both detect it and
    // bound it away from zero.
    let a_small = 10f64.powf(-70.0 / 20.0);
    let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
    let mut src = tone_source(1.0 / 96.0, a_small, 0.4);
    let m = ev.measure_harmonic(&mut src, 1, 40_000).unwrap();
    assert!(m.amplitude.contains(a_small), "{}", m.amplitude);
    // Detected: the lower bound is above zero and within 3 dB of truth.
    assert!(m.amplitude.lo > a_small * 0.7, "{}", m.amplitude);
    assert!((20.0 * (m.amplitude.est / a_small).log10()).abs() < 1.0);
}

#[test]
fn oversampling_ratio_constant_over_the_audio_sweep() {
    for f_wave in [100.0, 1000.0, 10_000.0, 20_000.0] {
        let clk = MasterClock::for_stimulus(Hertz(f_wave));
        let n = clk.frequency_hz() / clk.stimulus_frequency().value();
        assert!((n - 96.0).abs() < 1e-9, "N drifted at {f_wave} Hz: {n}");
    }
}

#[test]
fn fig9_error_decreases_with_m_and_harmonics_separated() {
    // The Fig. 9 experiment shape: measure the three-tone ATE stimulus at
    // increasing M; the worst-case error bound must shrink ~1/M and the
    // three estimates must sit 20/40 dB apart.
    let mut widths = Vec::new();
    for m in [20u32, 100, 500] {
        let mut awg = MultitoneAwg::fig9_stimulus(96);
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = awg.source();
        let ms = ev.measure_harmonics(&mut src, &[1, 2, 3], m).unwrap();
        widths.push(ms[0].amplitude.width());
        if m == 500 {
            let db12 = 20.0 * (ms[0].amplitude.est / ms[1].amplitude.est).log10();
            let db13 = 20.0 * (ms[0].amplitude.est / ms[2].amplitude.est).log10();
            assert!((db12 - 20.0).abs() < 0.5, "A1/A2 {db12} dB");
            assert!((db13 - 40.0).abs() < 1.0, "A1/A3 {db13} dB");
        }
    }
    assert!(widths[0] > 4.0 * widths[1]);
    assert!(widths[1] > 4.0 * widths[2]);
}

#[test]
fn fig8a_amplitude_programming() {
    // VA = 150/250/300 mV must produce outputs in ratio 300:500:600 at
    // 62.5 kHz (f_eva = 6 MHz), matching paper Fig. 8a.
    let clk = MasterClock::from_hz(6.0e6);
    assert_eq!(clk.stimulus_frequency().value(), 62_500.0);
    let mut amplitudes = Vec::new();
    for va in [0.150, 0.250, 0.300] {
        let mut generator = SinewaveGenerator::new(GeneratorConfig::ideal(clk, Volts(va)));
        generator.settle(40);
        let w = generator.waveform_at_feva(96 * 16);
        let (a, _) = dsp::goertzel::tone_amplitude_phase(&w, 1.0 / 96.0);
        amplitudes.push(a);
    }
    assert!((amplitudes[0] - 0.30).abs() < 0.02, "{}", amplitudes[0]);
    assert!((amplitudes[1] - 0.50).abs() < 0.03, "{}", amplitudes[1]);
    assert!((amplitudes[2] - 0.60).abs() < 0.04, "{}", amplitudes[2]);
}

#[test]
fn fig8b_generator_purity_with_cmos_nonidealities() {
    // Paper: SFDR = 70 dB, THD = 67 dB. Averaged over mismatch draws our
    // behavioral model must land in the same decade (≥ 55 dB each).
    let clk = MasterClock::from_hz(6.0e6);
    let mut sfdr_sum = 0.0;
    let mut thd_sum = 0.0;
    let seeds = 4u64;
    for seed in 0..seeds {
        let mut generator =
            SinewaveGenerator::new(GeneratorConfig::cmos_035um(clk, Volts(0.25), seed));
        let spec = GeneratorSpectrum::measure(&mut generator, 64, 8);
        sfdr_sum += spec.sfdr_db();
        thd_sum += spec.thd_db();
    }
    let sfdr = sfdr_sum / seeds as f64;
    let thd = thd_sum / seeds as f64;
    assert!(sfdr > 55.0 && sfdr < 95.0, "mean SFDR {sfdr}");
    assert!(thd > 55.0 && thd < 95.0, "mean THD {thd}");
}

#[test]
fn evaluator_repeatability_across_25_runs() {
    // Fig. 9 repeats every measurement 25 times; on the bench each run
    // starts at an arbitrary stimulus phase. The run-to-run scatter is set
    // by the bounded quantization residual, so it must shrink ~1/M, and
    // every run must stay inside its own guaranteed enclosure.
    let truth = 0.2;
    let mut errors_small_m = Vec::new();
    let mut errors_large_m = Vec::new();
    for run in 0..25u64 {
        let phase = run as f64 * 0.251; // arbitrary bench start phase
        for (m, errs) in [(20u32, &mut errors_small_m), (200u32, &mut errors_large_m)] {
            let mut ev = SinewaveEvaluator::new(EvaluatorConfig::cmos_035um(run));
            let mut src = tone_source(1.0 / 96.0, truth, phase);
            let meas = ev.measure_harmonic(&mut src, 1, m).unwrap();
            errs.push((meas.amplitude.est - truth).abs());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // ~10x smaller scatter at 10x the periods (plus a small deterministic
    // finite-gain scale bias common to both).
    assert!(
        mean(&errors_small_m) > 1.5 * mean(&errors_large_m),
        "small-M {} vs large-M {}",
        mean(&errors_small_m),
        mean(&errors_large_m)
    );
    assert!(mean(&errors_large_m) < 2e-3, "{}", mean(&errors_large_m));
}

#[test]
fn audio_range_sweep_all_points_valid() {
    // "suitable for the characterization of analog circuits in the
    // frequency range up to 20 kHz": every point of a 100 Hz – 20 kHz sweep
    // must produce a finite, bounded measurement.
    use dut::ActiveRcFilter;
    use netan::{AnalyzerConfig, LotEngine, NetworkAnalyzer};
    let device = ActiveRcFilter::paper_dut().linearized();
    let mut analyzer = NetworkAnalyzer::new(&device, AnalyzerConfig::ideal().with_periods(50));
    let freqs = netan::log_spaced(Hertz(100.0), Hertz(20_000.0), 7);
    let plot = analyzer.sweep_with(&LotEngine::serial(), &freqs).unwrap();
    for p in plot.points() {
        assert!(p.gain_db.est.is_finite());
        assert!(p.gain.width().is_finite() && p.gain.width() > 0.0);
        assert!(p.phase_deg.est.is_finite());
    }
    let coverage = plot.gain_coverage().expect("non-empty sweep");
    assert!(coverage > 0.9, "{coverage}");
}
