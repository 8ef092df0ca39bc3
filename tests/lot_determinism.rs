//! Determinism guarantees of the parallel `LotEngine`: a parallel lot run
//! must be **bit-identical** to the serial reference — same plots, same
//! verdicts, same fitted summaries, same error on failure — for both the
//! ideal and the seeded-CMOS analyzer profiles.
//!
//! The asserts use `PartialEq`, i.e. IEEE equality on every `f64` field —
//! no tolerances. Since serial and parallel schedules execute the same
//! deterministic per-device instruction stream, equal values here mean
//! equal bytes (all measured values are finite; only a ±0.0 difference
//! could hide behind IEEE equality, and identical computations cannot
//! produce one).

use dut::ActiveRcFilter;
use mixsig::units::Hertz;
use netan::{AnalyzerConfig, GainMask, LotEngine, LotPlan, NetanError, NetworkAnalyzer};

fn paper_factory(sigma: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync {
    move |seed| {
        ActiveRcFilter::paper_dut()
            .linearized()
            .fabricate(sigma, seed)
    }
}

fn paper_plan() -> LotPlan {
    LotPlan::from_mask(GainMask::paper_lowpass())
}

#[test]
fn parallel_lot_matches_serial_ideal() {
    let plan = paper_plan();
    let config = AnalyzerConfig::ideal().with_periods(60);
    let seeds = 0..8;
    let factory = paper_factory(0.05);

    let serial = LotEngine::serial()
        .run_range(&factory, seeds.clone(), &plan, config)
        .unwrap();
    let parallel = LotEngine::with_threads(8)
        .run_range(&factory, seeds.clone(), &plan, config)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 8);
    // Device order is seed order, regardless of completion order.
    for (d, seed) in serial.devices().iter().zip(seeds.clone()) {
        assert_eq!(d.seed, seed);
    }
}

#[test]
fn lane_layout_does_not_change_the_bits() {
    // A lot larger than one lane, on worker counts that split it into
    // lanes, into grid-point groups, or both: every layout measures each
    // device exactly as the serial engine does, and every device — each
    // slot of every device group, full or not — exactly as its own
    // analyzer does point by point, on ideal hardware (groups on the
    // exact sums) and on noisy hardware (groups through each block's
    // shared draws).
    let plan = paper_plan();
    let seeds = 0..netan::LANE_DEVICES as u64 + 3;
    let factory = paper_factory(0.05);

    for config in [
        AnalyzerConfig::ideal().with_periods(20),
        AnalyzerConfig::cmos_035um(7).with_periods(20),
    ] {
        let reference = LotEngine::serial()
            .run_range(&factory, seeds.clone(), &plan, config)
            .unwrap();
        for threads in [2, 3, 5] {
            let laned = LotEngine::with_threads(threads)
                .run_range(&factory, seeds.clone(), &plan, config)
                .unwrap();
            assert_eq!(reference, laned, "{config:?}, threads = {threads}");
        }
        let cal = LotEngine::shared_calibration(config).unwrap();
        assert_eq!(reference.devices().len(), netan::LANE_DEVICES + 3);
        for d in reference.devices() {
            let device = factory(d.seed);
            let alone = NetworkAnalyzer::new(&device, config);
            for (point, &f) in d.plot.points().iter().zip(plan.grid()) {
                let want = alone.measure_point_calibrated(cal, f).unwrap();
                assert_eq!(
                    point.gain,
                    want.gain,
                    "{config:?}: seed {} at {} Hz",
                    d.seed,
                    f.value()
                );
            }
        }
    }
}

#[test]
fn parallel_lot_matches_serial_with_seeded_cmos_noise() {
    // The CMOS profile exercises every seeded noise/mismatch source of
    // the analyzer's own hardware; determinism must survive the fan-out.
    let plan = paper_plan();
    let config = AnalyzerConfig::cmos_035um(7).with_periods(80);
    let seeds = 0..5;
    let factory = paper_factory(0.03);

    let serial = LotEngine::serial()
        .run_range(&factory, seeds.clone(), &plan, config)
        .unwrap();
    let parallel = LotEngine::with_threads(8)
        .run_range(&factory, seeds.clone(), &plan, config)
        .unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn lowest_index_device_error_wins_under_any_schedule() {
    // Seeds 2 and 5 fabricate into devices with a NaN pole — not
    // simulable. Serial and parallel runs must both report the
    // lowest-index failing device, exactly as an in-order run would.
    let plan = paper_plan();
    let config = AnalyzerConfig::ideal().with_periods(60);
    let seeds = 0..8;
    let factory = |seed: u64| {
        if seed == 2 || seed == 5 {
            ActiveRcFilter::new(Hertz(f64::NAN), 0.7, 1.0)
        } else {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(0.05, seed)
        }
    };
    let expected = NetanError::DeviceNotSimulable { seed: 2 };

    for engine in [LotEngine::serial(), LotEngine::with_threads(8)] {
        assert_eq!(
            engine
                .run_range(factory, seeds.clone(), &plan, config)
                .unwrap_err(),
            expected,
            "{engine:?}"
        );
    }
}

#[test]
fn a_device_that_cannot_be_simulated_fails_its_lot_from_mid_lane() {
    // Seeds 70 and 100 fabricate into devices with a NaN pole, in the
    // middle of the second and third lanes of a lot of more than two
    // lanes. The lot fails with the lowest failing seed, typed — exactly
    // what an in-order run of one device at a time reports — on every
    // lane layout, plain and escalated.
    let plan = paper_plan();
    let config = AnalyzerConfig::ideal().with_periods(10);
    let seeds = 0..2 * netan::LANE_DEVICES as u64 + 2;
    let factory = |seed: u64| {
        if seed == 70 || seed == 100 {
            ActiveRcFilter::new(Hertz(f64::NAN), 0.7, 1.0)
        } else {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(0.05, seed)
        }
    };
    let expected = NetanError::DeviceNotSimulable { seed: 70 };
    let schedule = netan::EscalationSchedule::from_periods(config, &[10, 20]);
    for engine in [
        LotEngine::serial(),
        LotEngine::with_threads(2),
        LotEngine::with_threads(8),
    ] {
        assert_eq!(
            engine
                .run_range(factory, seeds.clone(), &plan, config)
                .unwrap_err(),
            expected,
            "{engine:?}"
        );
        assert_eq!(
            engine
                .run_escalated_range(factory, seeds.clone(), &plan, &schedule)
                .unwrap_err(),
            expected,
            "{engine:?}"
        );
    }
}

#[test]
fn run_range_is_deterministic_and_equals_run_over_the_same_seeds() {
    // Range execution is the sharding primitive: a parallel run must be
    // bit-identical to the serial run over the same seeds, and attach
    // its range.
    let plan = paper_plan();
    let config = AnalyzerConfig::ideal().with_periods(60);
    let factory = paper_factory(0.05);

    let serial = LotEngine::serial()
        .run_range(&factory, 3..9, &plan, config)
        .unwrap();
    let parallel = LotEngine::with_threads(8)
        .run_range(&factory, 3..9, &plan, config)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.shard(), Some(3..9));
}

#[test]
fn amortized_calibration_matches_per_device_calibration() {
    // The lot engine calibrates once (bypass taps the stimulus ahead of
    // the DUT) and shares the result; a standalone analyzer calibrates
    // against its own device. The measured plots must agree bit for bit.
    let plan = paper_plan();
    let config = AnalyzerConfig::ideal().with_periods(60);
    let device = paper_factory(0.05)(3);

    let lot = LotEngine::serial()
        .run_range(|_| device.clone(), 3..4, &plan, config)
        .unwrap();
    let mut standalone = NetworkAnalyzer::new(&device, config);
    let plot = standalone
        .sweep_with(&LotEngine::serial(), plan.grid())
        .unwrap();
    assert_eq!(lot.devices()[0].plot, plot);
}

#[test]
fn parallel_harmonics_match_serial_bit_identically() {
    // Distortion screening rides the same pool: per-k acquisitions are
    // independent, so the parallel variant must reproduce the serial
    // bytes, fundamental first.
    let dut = ActiveRcFilter::paper_dut(); // includes the nonlinearity
    let config = AnalyzerConfig::ideal().with_periods(100);
    let na = NetworkAnalyzer::new(&dut, config);
    let serial = na
        .measure_harmonics_with(&LotEngine::serial(), Hertz(1600.0), 3)
        .unwrap();
    let parallel = na
        .measure_harmonics_with(&LotEngine::with_threads(3), Hertz(1600.0), 3)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(parallel.len(), 3);
    assert_eq!(parallel[0].k, 1);
    // Invalid stimulus frequency is rejected before any acquisition.
    assert!(matches!(
        na.measure_harmonics_with(&LotEngine::auto(), Hertz(0.0), 3),
        Err(NetanError::InvalidFrequency { .. })
    ));
}
