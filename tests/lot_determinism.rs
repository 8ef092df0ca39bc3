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

use dut::{ActiveRcFilter, Dut, DutSim, LtiCore};
use mixsig::ct::FrequencyResponse;
use mixsig::units::Hertz;
use netan::sweep::unwrap_phase_by_continuity;
use netan::{
    log_spaced, AnalyzerConfig, BodePoint, GainMask, LotEngine, LotPlan, NetanError,
    NetworkAnalyzer,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

        // One lane task over many points on the serial engine, measured
        // in lockstep: device groups that cross point boundaries (3
        // devices × 5 points, 1 × 20), a task whose points the
        // 64-simulator cap batches two at a time (24 × 4), and a full lane
        // it batches one at a time (64 × 20). The grid runs to 200 kHz,
        // where the 0.35 µm stimulus visibly depends on its clock, and the
        // odd devices' 300 kHz cut-off passes it. Every (device, point) is
        // the device's own point.
        let wideband = |seed| {
            let nominal = if seed % 2 == 0 {
                ActiveRcFilter::paper_dut().linearized()
            } else {
                ActiveRcFilter::new(Hertz(300_000.0), 0.8, 1.0)
            };
            nominal.fabricate(0.05, seed)
        };
        for (devices, points) in [(3, 5), (1, 20), (24, 4), (netan::LANE_DEVICES, 20)] {
            let grid = log_spaced(Hertz(150.0), Hertz(200_000.0), points);
            let plan = LotPlan::new(&grid, GainMask::new());
            assert_eq!(plan.grid(), &grid[..]);
            let report = LotEngine::serial()
                .run_range(wideband, 0..devices as u64, &plan, config)
                .unwrap();
            assert_eq!(report.devices().len(), devices);
            for d in report.devices() {
                let device = wideband(d.seed);
                let alone = NetworkAnalyzer::new(&device, config);
                let mut want: Vec<BodePoint> = grid
                    .iter()
                    .map(|&f| alone.measure_point_calibrated(cal, f).unwrap())
                    .collect();
                unwrap_phase_by_continuity(&mut want);
                assert_eq!(
                    d.plot.points(),
                    &want[..],
                    "{config:?}: {devices} × {points}, seed {}",
                    d.seed
                );
            }
        }
    }
}

/// The paper DUT, counting its live simulators: each `instantiate` adds
/// one and each dropped simulator takes one away, and `peak` keeps the
/// most alive at once.
struct Counted {
    device: ActiveRcFilter,
    live: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
}

impl Dut for Counted {
    fn ideal_response(&self, f: Hertz) -> FrequencyResponse {
        self.device.ideal_response(f)
    }

    fn instantiate(&self, fs: Hertz) -> Box<dyn DutSim> {
        let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(live, Ordering::SeqCst);
        Box::new(CountedSim {
            sim: self.device.instantiate(fs),
            live: Arc::clone(&self.live),
        })
    }
}

/// A [`Counted`] simulator: the device's own, with its core, so it still
/// steps in lockstep with its group.
struct CountedSim {
    sim: Box<dyn DutSim>,
    live: Arc<AtomicUsize>,
}

impl DutSim for CountedSim {
    fn step(&mut self, input: f64) -> f64 {
        self.sim.step(input)
    }

    fn process_block(&mut self, input: &[f64], out: &mut [f64]) {
        self.sim.process_block(input, out);
    }

    fn lti_core(&mut self) -> Option<LtiCore<'_>> {
        self.sim.lti_core()
    }
}

impl Drop for CountedSim {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn no_acquisition_mounts_more_than_a_lane_of_simulators() {
    // A lane task's points share acquisitions, each (device, point) slot
    // with a simulator of its own, but no acquisition mounts more than
    // `LANE_DEVICES` of them: a full lane over 20 points mounts one
    // point at a time, 24 devices two points at a time, and 3 devices
    // all 20 points at once. Every simulator is dropped after its lot.
    let cap = netan::LANE_DEVICES;
    for config in [
        AnalyzerConfig::ideal().with_periods(2),
        AnalyzerConfig::cmos_035um(7).with_periods(2),
    ] {
        for (devices, points, peak) in [(cap, 20, cap), (24, 4, 48), (3, 20, 60)] {
            let live = Arc::new(AtomicUsize::new(0));
            let most = Arc::new(AtomicUsize::new(0));
            let factory = |seed| Counted {
                device: ActiveRcFilter::paper_dut().fabricate(0.05, seed),
                live: Arc::clone(&live),
                peak: Arc::clone(&most),
            };
            let grid = log_spaced(Hertz(150.0), Hertz(200_000.0), points);
            let plan = LotPlan::new(&grid, GainMask::new());
            let report = LotEngine::serial()
                .run_range(factory, 0..devices as u64, &plan, config)
                .unwrap();
            assert_eq!(report.devices().len(), devices);
            let case = format!("{config:?}: {devices} × {points}");
            assert_eq!(most.load(Ordering::SeqCst), peak, "{case}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "{case}");
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
    // The fundamental comes first, then H2 and H3, and nothing past them.
    assert!(parallel.hd_dbc(2).unwrap().est < -40.0);
    assert!(parallel.hd_dbc(3).unwrap().est < -40.0);
    assert_eq!(parallel.hd_dbc(4), None);
    // Invalid stimulus frequency is rejected before any acquisition.
    assert!(matches!(
        na.measure_harmonics_with(&LotEngine::auto(), Hertz(0.0), 3),
        Err(NetanError::InvalidFrequency { .. })
    ));
}
