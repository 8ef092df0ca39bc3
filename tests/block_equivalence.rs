//! Block-pipeline equivalence: every block method must be bit-identical
//! to the per-sample reference it batches — the same contract PR 1/2
//! asserted for parallel vs. serial scheduling, now for batched vs.
//! per-sample stepping.

use ate::{DemoBoard, MultitoneAwg, SignalPath};
use dsp::tone::Tone;
use dut::{ActiveRcFilter, Bypass, Dut, LinearDut, NonlinearDut, Polynomial};
use mixsig::clock::MasterClock;
use mixsig::units::{Hertz, Volts};
use sdeval::{EvaluatorConfig, FnSource, SinewaveEvaluator};
use sigen::GeneratorConfig;

/// Drives two fresh simulators of `dut` over the same record — one per
/// sample, one in uneven blocks — and demands exact equality.
fn assert_dut_block_equivalence(label: &str, dut: &dyn Dut) {
    let fs = Hertz(96_000.0);
    let x: Vec<f64> = Tone::new(1.0 / 96.0, 0.4, 0.3).samples(96 * 7 + 29);
    let mut by_sample = dut.instantiate(fs);
    let mut by_block = dut.instantiate(fs);
    let want: Vec<f64> = x.iter().map(|&u| by_sample.step(u)).collect();
    let mut got = vec![0.0; x.len()];
    for (xi, yi) in x.chunks(31).zip(got.chunks_mut(31)) {
        by_block.process_block(xi, yi);
    }
    assert_eq!(want, got, "{label}: block output diverged");
}

#[test]
fn every_dut_sim_block_path_matches_per_sample() {
    assert_dut_block_equivalence("bypass", &Bypass);
    assert_dut_block_equivalence(
        "linear lowpass",
        &LinearDut::lowpass(Hertz(1000.0), std::f64::consts::FRAC_1_SQRT_2, 1.0),
    );
    assert_dut_block_equivalence("linear notch", &LinearDut::notch(Hertz(1000.0), 2.0));
    assert_dut_block_equivalence(
        "first-order",
        &LinearDut::first_order_lowpass(Hertz(500.0), 0.8),
    );
    // Order-3 state space (parasitic pole) + output nonlinearity.
    assert_dut_block_equivalence("active-rc paper DUT", &ActiveRcFilter::paper_dut());
    assert_dut_block_equivalence(
        "nonlinear wrapper",
        &NonlinearDut::new(
            LinearDut::bandpass(Hertz(2000.0), 3.0, 1.0),
            Polynomial::new(0.02, 0.05),
        ),
    );
}

#[test]
fn awg_block_path_matches_per_sample() {
    let mut by_sample = MultitoneAwg::fig9_stimulus(96);
    let mut by_block = MultitoneAwg::fig9_stimulus(96);
    let want: Vec<f64> = (0..96 * 3 + 11).map(|_| by_sample.next_sample()).collect();
    let mut got = vec![0.0; want.len()];
    for chunk in got.chunks_mut(23) {
        by_block.fill_block(chunk);
    }
    assert_eq!(want, got);
    // Both stand at the same sample afterwards.
    assert_eq!(by_sample, by_block);
}

#[test]
fn board_block_path_matches_per_sample_on_both_paths() {
    let clk = MasterClock::for_stimulus(Hertz(1000.0));
    let dut = ActiveRcFilter::paper_dut();
    for path in [SignalPath::Dut, SignalPath::CalibrationBypass] {
        let mk = || {
            let mut b = DemoBoard::new(GeneratorConfig::cmos_035um(clk, Volts(0.15), 3), &dut);
            b.set_path(path);
            b
        };
        let mut by_sample = mk();
        let mut by_block = mk();
        let want: Vec<f64> = (0..96 * 4 + 13).map(|_| by_sample.next_sample()).collect();
        let mut got = vec![0.0; want.len()];
        for chunk in got.chunks_mut(37) {
            by_block.fill_block(chunk);
        }
        assert_eq!(want, got, "path {path:?}");
    }
}

#[test]
fn evaluator_block_acquisition_matches_per_sample_wrapper() {
    // The same physical stream measured through the per-sample FnMut
    // wrapper and through the board's BlockSource implementation.
    let clk = MasterClock::for_stimulus(Hertz(1000.0));
    let dut = ActiveRcFilter::paper_dut();
    for (gen_cfg, eval_cfg) in [
        (
            GeneratorConfig::ideal(clk, Volts(0.15)),
            EvaluatorConfig::ideal(),
        ),
        (
            GeneratorConfig::cmos_035um(clk, Volts(0.15), 21),
            EvaluatorConfig::cmos_035um(21),
        ),
    ] {
        let mut board_a = DemoBoard::new(gen_cfg.clone(), &dut);
        board_a.warm_up(10);
        let mut ev_a = SinewaveEvaluator::new(eval_cfg.clone());
        let mut src = board_a.source();
        let want = ev_a.measure_harmonic(&mut src, 1, 50).unwrap();

        let mut board_b = DemoBoard::new(gen_cfg, &dut);
        board_b.warm_up(10);
        let mut ev_b = SinewaveEvaluator::new(eval_cfg);
        let got = ev_b.measure_harmonic_blocks(&mut board_b, 1, 50).unwrap();
        assert_eq!(want, got);
    }
}

#[test]
fn dc_block_acquisition_matches_per_sample_wrapper() {
    let mut ev_a = SinewaveEvaluator::new(EvaluatorConfig::cmos_035um(4));
    let mut src = || 0.27;
    let want = ev_a.measure_dc(&mut src, 40).unwrap();

    let mut ev_b = SinewaveEvaluator::new(EvaluatorConfig::cmos_035um(4).with_block_samples(7));
    let mut closure = || 0.27;
    let got = ev_b
        .measure_dc_blocks(&mut FnSource(&mut closure), 40)
        .unwrap();
    assert_eq!(want, got);
}
