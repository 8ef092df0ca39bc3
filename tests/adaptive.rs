//! Integration tests for enclosure-driven adaptive sweep refinement:
//! provenance, determinism and the points-to-equal-accuracy claim.

use dut::ActiveRcFilter;
use mixsig::units::{Hertz, Volts};
use netan::{
    log_spaced, reconstruction_error_db, AnalyzerConfig, LotEngine, NetanError, NetworkAnalyzer,
    RefinementPolicy,
};

fn fast_ideal(periods: u32) -> AnalyzerConfig {
    AnalyzerConfig {
        warmup_periods: 10,
        ..AnalyzerConfig::ideal().with_periods(periods)
    }
}

#[test]
fn refined_grid_is_a_superset_with_provenance() {
    let dut = ActiveRcFilter::paper_dut().linearized();
    let mut na = NetworkAnalyzer::new(&dut, fast_ideal(20));
    let seed = log_spaced(Hertz(200.0), Hertz(10_000.0), 5);
    let policy = RefinementPolicy::new(0.3)
        .with_max_points(12)
        .with_max_rounds(3);
    let plot = na
        .sweep_adaptive_with(&LotEngine::serial(), &seed, &policy)
        .unwrap();

    // Every seed frequency survives, tagged round 0.
    for f in &seed {
        let p = plot
            .points()
            .iter()
            .find(|p| p.frequency.value().to_bits() == f.value().to_bits())
            .unwrap_or_else(|| panic!("seed frequency {f} missing from refined grid"));
        assert_eq!(p.round, 0, "seed point at {f} mis-tagged");
    }
    // Refinement actually happened (the Butterworth shoulder bends more
    // than 0.3 dB on a 5-point seed) and stayed within the caps.
    assert!(plot.len() > seed.len(), "no refinement happened");
    assert!(plot.len() <= policy.max_points);
    let rounds: Vec<u32> = plot.points().iter().map(|p| p.round).collect();
    assert!(rounds.iter().any(|&r| r >= 1));
    assert!(rounds.iter().all(|&r| r <= policy.max_rounds));
    // Ordered ascending, no duplicates.
    for w in plot.points().windows(2) {
        assert!(w[0].frequency.value() < w[1].frequency.value());
    }
}

#[test]
fn parallel_adaptive_is_bit_identical_to_serial() {
    let dut = ActiveRcFilter::paper_dut().linearized();
    let seed = log_spaced(Hertz(200.0), Hertz(10_000.0), 5);
    let policy = RefinementPolicy::new(0.3).with_max_points(12);
    for cfg in [
        fast_ideal(20),
        AnalyzerConfig::cmos_035um(7).with_periods(30),
    ] {
        let mut na = NetworkAnalyzer::new(&dut, cfg);
        let serial = na
            .sweep_adaptive_with(&LotEngine::serial(), &seed, &policy)
            .unwrap();
        let parallel = na
            .sweep_adaptive_with(&LotEngine::with_threads(4), &seed, &policy)
            .unwrap();
        // PartialEq over f64 fields: bitwise, not approximate.
        assert_eq!(serial, parallel, "profile {:?}", cfg.hardware);
    }
}

#[test]
fn adaptive_matches_fixed_grid_accuracy_with_fewer_points() {
    // The acceptance claim: on the high-Q DUT the adaptive sweep reaches
    // the fixed 20-point grid's worst-case reconstruction error with
    // ≥ 30 % fewer measured points.
    let dut = ActiveRcFilter::new(Hertz(1000.0), 10.0, 1.0);
    let cfg = AnalyzerConfig {
        warmup_periods: 10,
        ..AnalyzerConfig::ideal()
            .with_periods(50)
            .with_va_diff(Volts(0.030))
    };
    let mut na = NetworkAnalyzer::new(&dut, cfg);

    let fixed = na
        .sweep_with(
            &LotEngine::serial(),
            &log_spaced(Hertz(200.0), Hertz(5_000.0), 20),
        )
        .unwrap();
    let budget = 20 * 7 / 10; // ≥ 30 % fewer than the fixed grid
    let policy = RefinementPolicy::new(0.25).with_max_points(budget);
    let adaptive = na
        .sweep_adaptive_with(
            &LotEngine::serial(),
            &log_spaced(Hertz(200.0), Hertz(5_000.0), 8),
            &policy,
        )
        .unwrap();

    let e_fixed = reconstruction_error_db(&fixed, &dut, 256).unwrap();
    let e_adaptive = reconstruction_error_db(&adaptive, &dut, 256).unwrap();
    assert!(adaptive.len() <= budget, "{} points", adaptive.len());
    assert!(
        e_adaptive <= e_fixed,
        "adaptive {e_adaptive:.3} dB ({} pts) vs fixed {e_fixed:.3} dB (20 pts)",
        adaptive.len()
    );
    // The fixed grid visibly undersamples the peak; refinement must
    // recover most of it, not just tie.
    assert!(
        e_fixed > 2.0 && e_adaptive < 0.75 * e_fixed,
        "expected a decisive win: adaptive {e_adaptive:.3} dB vs fixed {e_fixed:.3} dB"
    );
}

#[test]
fn adaptive_rejects_bad_seeds_before_simulation() {
    let dut = ActiveRcFilter::paper_dut().linearized();
    let mut na = NetworkAnalyzer::new(&dut, fast_ideal(20));
    let policy = RefinementPolicy::default();
    assert_eq!(
        na.sweep_adaptive_with(&LotEngine::serial(), &[], &policy)
            .unwrap_err(),
        NetanError::EmptySweep
    );
    let err = na
        .sweep_adaptive_with(&LotEngine::serial(), &[Hertz(1000.0), Hertz(-2.0)], &policy)
        .unwrap_err();
    assert_eq!(err, NetanError::InvalidFrequency { hz_millis: -2000 });
    // Rejected before any calibration was spent.
    assert!(na.calibration().is_none());
}

#[test]
fn unsorted_seed_with_duplicates_is_normalized() {
    let dut = ActiveRcFilter::paper_dut().linearized();
    let mut na = NetworkAnalyzer::new(&dut, fast_ideal(20));
    let policy = RefinementPolicy::new(5.0).with_max_rounds(0); // no refinement
    let seed = [Hertz(5000.0), Hertz(500.0), Hertz(5000.0), Hertz(1000.0)];
    let plot = na
        .sweep_adaptive_with(&LotEngine::serial(), &seed, &policy)
        .unwrap();
    let freqs: Vec<f64> = plot.points().iter().map(|p| p.frequency.value()).collect();
    assert_eq!(freqs, vec![500.0, 1000.0, 5000.0]);
}
