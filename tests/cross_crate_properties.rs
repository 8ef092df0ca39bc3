//! Property-based tests across crate boundaries: the guarantees the
//! signature DSP makes must hold for *arbitrary* inputs, not just the
//! hand-picked ones.

use dsp::tone::{Multitone, Tone};
use proptest::prelude::*;
use sdeval::{EvaluatorConfig, SinewaveEvaluator};

fn source_of(mt: Multitone) -> impl FnMut() -> f64 {
    let mut n = 0usize;
    move || {
        let v = mt.sample(n);
        n += 1;
        v
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case runs a full evaluator acquisition
        ..ProptestConfig::default()
    })]

    /// Paper eq. (4): the amplitude enclosure must contain the true
    /// amplitude for any tone within the modulator's stable range and any
    /// even M — the ε ∈ [−4, 4] bound is *hard*, not statistical.
    #[test]
    fn amplitude_enclosure_always_contains_truth(
        a in 1.0e-3..0.75f64,
        phi in -3.1f64..3.1,
        m_half in 1u32..60,
    ) {
        let m = 2 * m_half;
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = source_of(Multitone::new(0.0).with_tone(Tone::new(1.0 / 96.0, a, phi)));
        let meas = ev.measure_harmonic(&mut src, 1, m).unwrap();
        prop_assert!(
            meas.amplitude.contains(a),
            "a={a}, φ={phi}, M={m}: {}", meas.amplitude
        );
    }

    /// Paper eq. (5): same for the phase enclosure, whenever the signal is
    /// large enough for the phase to be constrained at all.
    #[test]
    fn phase_enclosure_contains_truth(
        a in 0.05..0.7f64,
        phi in -3.0f64..3.0,
        m_half in 5u32..50,
    ) {
        let m = 2 * m_half;
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = source_of(Multitone::new(0.0).with_tone(Tone::new(1.0 / 96.0, a, phi)));
        let meas = ev.measure_harmonic(&mut src, 1, m).unwrap();
        // Compare modulo 2π.
        let wrapped = dsp::goertzel::wrap_phase(phi - meas.phase.est);
        let shifted_truth = meas.phase.est + wrapped;
        prop_assert!(
            meas.phase.lo <= shifted_truth && shifted_truth <= meas.phase.hi,
            "a={a}, φ={phi}, M={m}: {} truth {shifted_truth}", meas.phase
        );
    }

    /// Paper eq. (3): DC enclosure contains the true level for any DC in
    /// range.
    #[test]
    fn dc_enclosure_contains_truth(b in -0.7f64..0.7, m_half in 1u32..50) {
        let m = 2 * m_half;
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = || b;
        let meas = ev.measure_dc(&mut src, m).unwrap();
        prop_assert!(meas.level.contains(b), "B={b}, M={m}: {}", meas.level);
    }

    /// A second tone at a *different, non-harmonic* admissible frequency
    /// must not corrupt the k = 1 amplitude beyond its error bound growth
    /// (square-wave demodulation folds only odd multiples of k).
    #[test]
    fn even_harmonic_interferer_rejected(
        a1 in 0.1..0.5f64,
        a2 in 0.0..0.2f64,
        phi2 in -3.0f64..3.0,
    ) {
        let mt = Multitone::new(0.0)
            .with_tone(Tone::new(1.0 / 96.0, a1, 0.7))
            .with_tone(Tone::new(2.0 / 96.0, a2, phi2));
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = source_of(mt);
        let meas = ev.measure_harmonic(&mut src, 1, 100).unwrap();
        prop_assert!(
            (meas.amplitude.est - a1).abs() < 5e-3,
            "a1={a1}, a2={a2}: {}", meas.amplitude
        );
    }
}

mod interval_properties {
    use proptest::prelude::*;
    use sdeval::Bounded;

    proptest! {
        /// Interval ratio is a valid enclosure: for any x ∈ A and y ∈ B,
        /// x/y ∈ A/B.
        #[test]
        fn ratio_encloses_pointwise(
            a_lo in 0.1..10.0f64, a_w in 0.0..5.0f64,
            b_lo in 0.1..10.0f64, b_w in 0.0..5.0f64,
            ta in 0.0..1.0f64, tb in 0.0..1.0f64,
        ) {
            let a = Bounded::new(a_lo, a_lo + a_w / 2.0, a_lo + a_w);
            let b = Bounded::new(b_lo, b_lo + b_w / 2.0, b_lo + b_w);
            let x = a.lo + ta * (a.hi - a.lo);
            let y = b.lo + tb * (b.hi - b.lo);
            let r = a.ratio(&b);
            prop_assert!(r.lo <= x / y && x / y <= r.hi);
        }

        /// Interval difference is a valid enclosure.
        #[test]
        fn minus_encloses_pointwise(
            a_lo in -10.0..10.0f64, a_w in 0.0..5.0f64,
            b_lo in -10.0..10.0f64, b_w in 0.0..5.0f64,
            ta in 0.0..1.0f64, tb in 0.0..1.0f64,
        ) {
            let a = Bounded::new(a_lo, a_lo + a_w / 2.0, a_lo + a_w);
            let b = Bounded::new(b_lo, b_lo + b_w / 2.0, b_lo + b_w);
            let x = a.lo + ta * (a.hi - a.lo);
            let y = b.lo + tb * (b.hi - b.lo);
            let d = a.minus(&b);
            prop_assert!(d.lo <= x - y + 1e-12 && x - y <= d.hi + 1e-12);
        }

        /// Monotonic maps preserve enclosure ordering.
        #[test]
        fn map_monotonic_preserves_order(lo in 0.01..10.0f64, w in 0.0..5.0f64) {
            let b = Bounded::new(lo, lo + w / 2.0, lo + w);
            let m = b.map_monotonic(|x| x.ln());
            prop_assert!(m.lo <= m.est && m.est <= m.hi);
        }
    }
}

mod dsp_properties {
    use dsp::fft::{fft_real, ifft_in_place};
    use dsp::goertzel::dft_bin;
    use proptest::prelude::*;

    proptest! {
        /// FFT round trip is the identity for arbitrary real records.
        #[test]
        fn fft_ifft_identity(data in proptest::collection::vec(-1.0e3..1.0e3f64, 64)) {
            let mut spec = fft_real(&data).unwrap();
            ifft_in_place(&mut spec).unwrap();
            for (orig, rec) in data.iter().zip(&spec) {
                prop_assert!((orig - rec.re).abs() < 1e-6);
                prop_assert!(rec.im.abs() < 1e-6);
            }
        }

        /// Goertzel/DFT-bin equals the FFT bin for arbitrary records.
        #[test]
        fn dft_bin_matches_fft(data in proptest::collection::vec(-10.0..10.0f64, 128), k in 0usize..64) {
            let spec = fft_real(&data).unwrap();
            let g = dft_bin(&data, k as f64 / 128.0);
            prop_assert!((spec[k] - g).abs() < 1e-8);
        }

        /// Parseval holds for arbitrary records.
        #[test]
        fn parseval(data in proptest::collection::vec(-5.0..5.0f64, 256)) {
            let time: f64 = data.iter().map(|v| v * v).sum();
            let spec = fft_real(&data).unwrap();
            let freq: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / 256.0;
            prop_assert!((time - freq).abs() <= 1e-9 * time.max(1.0));
        }
    }
}

mod lot_properties {
    use dut::ActiveRcFilter;
    use netan::{AnalyzerConfig, GainMask, LotEngine, LotPlan, LotReport, SpecVerdict};
    use proptest::prelude::*;

    /// A parallel screening run over `lot` devices fabricated at `sigma`
    /// from `seed_base` (fast settings: minimal mask grid, `M = 50`).
    fn screening(seed_base: u64, sigma: f64, lot: usize) -> LotReport {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let seeds = seed_base..seed_base + lot as u64;
        LotEngine::with_threads(4)
            .run_range(
                move |seed| {
                    ActiveRcFilter::paper_dut()
                        .linearized()
                        .fabricate(sigma, seed)
                },
                seeds,
                &plan,
                AnalyzerConfig::ideal().with_periods(50),
            )
            .expect("lot run failed")
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 5, // each case screens a whole lot
            ..ProptestConfig::default()
        })]

        /// The verdict histogram is a partition: pass + fail + ambiguous
        /// always sums to the lot size, and the yield enclosure is a
        /// valid sub-interval of [0, 1].
        #[test]
        fn yield_counts_sum_to_lot_size(
            seed_base in 0u64..100_000,
            sigma in 0.0..0.08f64,
        ) {
            let report = screening(seed_base, sigma, 5);
            let c = report.counts();
            prop_assert_eq!(c.total(), report.len());
            prop_assert_eq!(c.pass + c.fail + c.ambiguous, 5);
            let (lo, hi) = report.yield_bounds().expect("non-empty lot has a yield");
            prop_assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0,
                "yield bounds [{lo}, {hi}]");
        }

        /// An `Ambiguous` device is exactly one whose measurement cannot
        /// decide the bin: some mask point's gain enclosure must contain
        /// (straddle) a mask limit.
        #[test]
        fn ambiguous_devices_straddle_the_mask(
            seed_base in 0u64..100_000,
            sigma in 0.02..0.10f64,
        ) {
            let report = screening(seed_base, sigma, 4);
            let mask = GainMask::paper_lowpass();
            for d in report.devices() {
                if d.verdict != SpecVerdict::Ambiguous {
                    continue;
                }
                let straddles = mask.points().iter().any(|mp| {
                    let p = d.plot.points().iter()
                        .find(|p| p.frequency == mp.frequency)
                        .expect("mask frequency was measured");
                    p.gain_db.contains(mp.min_db) || p.gain_db.contains(mp.max_db)
                });
                prop_assert!(straddles,
                    "seed {} is Ambiguous but no enclosure straddles a limit", d.seed);
            }
        }

        /// Zero-sigma fabrication is the identity: every device in the
        /// lot is the nominal part, so every characterization — plot,
        /// verdict, fitted summary — must be byte-identical.
        #[test]
        fn zero_sigma_lot_classifies_identically(seed_base in 0u64..100_000) {
            let report = screening(seed_base, 0.0, 4);
            let first = &report.devices()[0];
            for d in report.devices() {
                prop_assert_eq!(&d.verdict, &first.verdict);
                prop_assert!(d.plot == first.plot, "zero-sigma plots diverged");
                prop_assert!(d.fit == first.fit, "zero-sigma fits diverged");
            }
        }
    }
}

mod escalation_properties {
    use dut::ActiveRcFilter;
    use mixsig::units::Seconds;
    use netan::{
        AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan, LotReport, SpecVerdict,
    };
    use proptest::prelude::*;

    /// Fast escalation settings: short warm-up, M = 20 → 40 → 80 over the
    /// minimal mask grid.
    fn stage_base() -> AnalyzerConfig {
        AnalyzerConfig {
            warmup_periods: 10,
            ..AnalyzerConfig::ideal()
        }
    }

    fn schedule(budget_screens: f64, plan: &LotPlan, lot: usize) -> EscalationSchedule {
        let s = EscalationSchedule::from_periods(stage_base(), &[20, 40, 80]);
        // The budget is expressed as a multiple of the full-lot screening
        // cost, so `budget_screens = 1.0` means "stage 0 only".
        let c0 = s.device_stage_time(0, plan.grid()).value();
        let budget = Seconds(budget_screens * lot as f64 * c0);
        s.with_budget(budget)
    }

    fn factory(sigma: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync {
        move |seed| {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(sigma, seed)
        }
    }

    fn escalated(seed_base: u64, sigma: f64, lot: usize, budget_screens: f64) -> LotReport {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let seeds = seed_base..seed_base + lot as u64;
        LotEngine::with_threads(4)
            .run_escalated_range(
                factory(sigma),
                seeds.clone(),
                &plan,
                &schedule(budget_screens, &plan, lot),
            )
            .expect("escalated lot run failed")
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 5, // each case screens (and partially re-tests) a whole lot
            ..ProptestConfig::default()
        })]

        /// A later stage never flips a decided verdict: every device the
        /// stage-0 screen binned `Pass`/`Fail` keeps its bit-identical
        /// stage-0 report, and only stage-0-`Ambiguous` devices escalate.
        #[test]
        fn later_stages_only_resolve_ambiguity(
            seed_base in 0u64..100_000,
            sigma in 0.04..0.12f64,
        ) {
            let lot = 4;
            let plan = LotPlan::from_mask(GainMask::paper_lowpass());
            let seeds = seed_base..seed_base + lot as u64;
            let stage0_only = LotEngine::with_threads(4)
                .run_range(factory(sigma), seeds.clone(), &plan, stage_base().with_periods(20))
                .expect("screening run failed");
            let report = escalated(seed_base, sigma, lot, 10.0);
            for (screened, esc) in stage0_only.devices().iter().zip(report.devices()) {
                if screened.verdict == SpecVerdict::Ambiguous {
                    prop_assert!(
                        esc.stage > 0,
                        "seed {}: ambiguous at stage 0 but never escalated \
                         despite a generous budget", esc.seed
                    );
                } else {
                    // Decided at the screen: the whole report rides along
                    // untouched — verdict, plot, fit, provenance.
                    prop_assert_eq!(screened, esc);
                }
            }
        }

        /// Every executed stage charges each device it tested the
        /// schedule's stage cost, so a device's cumulative test time —
        /// read off the stage list up to its final stage — is exactly
        /// the schedule's stage-cost prefix sum there, monotone in stage
        /// index; and the lot total never exceeds the budget by more
        /// than one re-test charge (the ledger admits a re-test while
        /// `spent < budget`, so the final admitted one may overshoot by
        /// at most its own charge).
        #[test]
        fn test_time_is_monotone_and_within_budget(
            seed_base in 0u64..100_000,
            sigma in 0.04..0.12f64,
            budget_screens in 1.0..6.0f64,
        ) {
            let lot = 4;
            let plan = LotPlan::from_mask(GainMask::paper_lowpass());
            let sched = schedule(budget_screens, &plan, lot);
            let report = escalated(seed_base, sigma, lot, budget_screens);
            // Prefix sums of the per-device stage costs.
            let cum: Vec<f64> = sched
                .stages()
                .iter()
                .enumerate()
                .scan(0.0, |acc, (s, _)| {
                    *acc += sched.device_stage_time(s, plan.grid()).value();
                    Some(*acc)
                })
                .collect();
            // Strictly increasing M makes the prefix sums strictly
            // monotone, so equal-to-prefix implies monotone-in-stage.
            for w in cum.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            let stages = report.stages();
            for s in &stages {
                let cost = sched.device_stage_time(s.stage, plan.grid()).value();
                prop_assert!((s.device_time.value() - cost).abs() < 1e-12,
                    "stage {}: charge {} != schedule cost {}", s.stage, s.device_time.value(), cost);
            }
            let mut total = 0.0;
            for d in report.devices() {
                let time: f64 = stages[..=d.stage].iter().map(|s| s.device_time.value()).sum();
                prop_assert!(
                    (time - cum[d.stage]).abs() < 1e-9,
                    "seed {}: cumulative time {} != prefix sum {} of stage {}",
                    d.seed, time, cum[d.stage], d.stage
                );
                total += time;
            }
            // Device times, stage accounting and the budget all agree.
            prop_assert!((report.spent().value() - total).abs() < 1e-9);
            let budget = report.budget().expect("schedule carries a budget");
            let worst_charge = sched
                .stages()
                .iter()
                .enumerate()
                .map(|(s, _)| sched.device_stage_charge(s, plan.grid()).value())
                .fold(0.0f64, f64::max);
            prop_assert!(report.spent().value() <= budget.value() + worst_charge + 1e-9,
                "spent {} exceeds budget {} by more than one charge ({})",
                report.spent().value(), budget.value(), worst_charge);
        }

        /// Escalated verdicts are exactly what a direct run at the
        /// device's final stage produces: for every device that escalated,
        /// re-running it alone at that stage's configuration reproduces
        /// the verdict — and the plot — bit for bit.
        #[test]
        fn escalated_devices_match_direct_run_at_their_stage(
            seed_base in 0u64..100_000,
            sigma in 0.05..0.12f64,
        ) {
            let lot = 4;
            let plan = LotPlan::from_mask(GainMask::paper_lowpass());
            let sched = schedule(10.0, &plan, lot);
            let report = escalated(seed_base, sigma, lot, 10.0);
            for d in report.devices() {
                if d.stage == 0 {
                    continue;
                }
                let direct = LotEngine::serial()
                    .run_range(factory(sigma), d.seed..d.seed + 1, &plan, sched.stages()[d.stage])
                    .expect("direct run failed");
                let direct = &direct.devices()[0];
                prop_assert_eq!(&d.verdict, &direct.verdict,
                    "seed {}: escalated verdict diverges from a direct run at stage {}",
                    d.seed, d.stage);
                prop_assert!(d.plot == direct.plot,
                    "seed {}: escalated plot diverges from a direct run", d.seed);
                prop_assert!(d.fit == direct.fit);
            }
        }
    }
}

mod block_pipeline_properties {
    use dut::ActiveRcFilter;
    use mixsig::units::Hertz;
    use netan::{AnalyzerConfig, BodePoint, NetworkAnalyzer};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One calibrated Bode point of the paper DUT measured with the given
    /// acquisition block length (fast settings: `M = 20`, short warm-up).
    fn point_with_block(block: usize, cmos: bool) -> BodePoint {
        let dut = ActiveRcFilter::paper_dut();
        let base = if cmos {
            AnalyzerConfig::cmos_035um(17)
        } else {
            AnalyzerConfig::ideal()
        };
        let cfg = AnalyzerConfig {
            warmup_periods: 10,
            ..base.with_periods(20).with_block_samples(block)
        };
        let mut na = NetworkAnalyzer::new(&dut, cfg);
        na.measure_point(Hertz(1000.0)).unwrap()
    }

    /// The default-block-size point for each profile, computed once: the
    /// measurement is deterministic, so every case compares against the
    /// same two reference values.
    fn reference_point(cmos: bool) -> &'static BodePoint {
        static IDEAL: OnceLock<BodePoint> = OnceLock::new();
        static CMOS: OnceLock<BodePoint> = OnceLock::new();
        let cell = if cmos { &CMOS } else { &IDEAL };
        cell.get_or_init(|| point_with_block(sdeval::DEFAULT_BLOCK_SAMPLES, cmos))
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 8, // each case runs two full point acquisitions
            ..ProptestConfig::default()
        })]

        /// The acquisition block length is a throughput knob only: block
        /// sizes 1, 7, 64, 1024 and "whole window" must produce
        /// byte-identical `BodePoint`s, for the ideal and the seeded
        /// `cmos_035um` hardware profiles alike.
        #[test]
        fn block_size_never_changes_a_bode_point(
            block in prop_oneof![
                Just(1usize),
                Just(7usize),
                Just(64usize),
                Just(1024usize),
                Just(usize::MAX),
            ],
            cmos in any::<bool>(),
        ) {
            prop_assert_eq!(&point_with_block(block, cmos), reference_point(cmos));
        }
    }
}

mod phase_unwrap_properties {
    use mixsig::units::Hertz;
    use netan::{sweep::unwrap_phase_by_continuity, BodePoint};
    use proptest::prelude::*;
    use sdeval::Bounded;

    fn plot_from(phases: &[f64], widths: &[f64]) -> Vec<BodePoint> {
        phases
            .iter()
            .zip(widths)
            .enumerate()
            .map(|(i, (&est, &w))| BodePoint {
                frequency: Hertz(100.0 * 2f64.powi(i as i32)),
                gain: Bounded::point(1.0),
                gain_db: Bounded::point(0.0),
                phase_deg: Bounded::new(est - w / 2.0, est, est + w / 2.0),
                ideal_gain_db: 0.0,
                ideal_phase_deg: 0.0,
                round: 0,
            })
            .collect()
    }

    proptest! {
        /// Every shift the continuity pass applies is an exact multiple
        /// of 360°, and it lands consecutive estimates within 180° of
        /// each other.
        #[test]
        fn shifts_are_whole_turns(
            phases in proptest::collection::vec(-1000.0..1000.0f64, 2..10),
        ) {
            let widths = vec![1.0; phases.len()];
            let mut pts = plot_from(&phases, &widths);
            unwrap_phase_by_continuity(&mut pts);
            for (p, &orig) in pts.iter().zip(&phases) {
                let shift = p.phase_deg.est - orig;
                let turns = (shift / 360.0).round();
                prop_assert!(
                    (shift - turns * 360.0).abs() < 1e-9,
                    "shift {shift} is not a whole number of turns"
                );
            }
            for w in pts.windows(2) {
                prop_assert!((w[1].phase_deg.est - w[0].phase_deg.est).abs() <= 180.0);
            }
        }

        /// The enclosure rides along rigidly: its width is preserved and
        /// the estimate keeps its position inside the band.
        #[test]
        fn enclosure_width_is_preserved(
            phases in proptest::collection::vec(-1000.0..1000.0f64, 2..10),
            widths in proptest::collection::vec(0.0..30.0f64, 10),
        ) {
            let widths = &widths[..phases.len().min(widths.len())];
            let phases = &phases[..widths.len()];
            let mut pts = plot_from(phases, widths);
            let before: Vec<f64> = pts.iter().map(|p| p.phase_deg.width()).collect();
            unwrap_phase_by_continuity(&mut pts);
            for (p, w0) in pts.iter().zip(before) {
                prop_assert!(
                    (p.phase_deg.width() - w0).abs() < 1e-9,
                    "width changed: {} vs {w0}", p.phase_deg.width()
                );
                prop_assert!(p.phase_deg.lo <= p.phase_deg.est);
                prop_assert!(p.phase_deg.est <= p.phase_deg.hi);
            }
        }

        /// Unwrapping is idempotent: a second pass over an already
        /// unwrapped sweep is a bitwise no-op.
        #[test]
        fn second_pass_is_identity(
            phases in proptest::collection::vec(-1000.0..1000.0f64, 2..10),
        ) {
            let widths = vec![2.0; phases.len()];
            let mut once = plot_from(&phases, &widths);
            unwrap_phase_by_continuity(&mut once);
            let mut twice = once.clone();
            unwrap_phase_by_continuity(&mut twice);
            prop_assert_eq!(once, twice);
        }
    }
}

mod adaptive_properties {
    use dut::ActiveRcFilter;
    use mixsig::units::Hertz;
    use netan::{
        log_spaced, AnalyzerConfig, BodePlot, LotEngine, NetworkAnalyzer, RefinementPolicy,
    };
    use proptest::prelude::*;

    /// A fast adaptive sweep of the paper DUT (ideal hardware, M = 20).
    fn adaptive_sweep(seed_points: usize, target_db: f64, max_points: usize) -> BodePlot {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let cfg = AnalyzerConfig {
            warmup_periods: 10,
            ..AnalyzerConfig::ideal().with_periods(20)
        };
        let mut na = NetworkAnalyzer::new(&dut, cfg);
        let seed = log_spaced(Hertz(200.0), Hertz(10_000.0), seed_points);
        let policy = RefinementPolicy::new(target_db)
            .with_max_points(max_points)
            .with_max_rounds(3);
        na.sweep_adaptive_with(&LotEngine::serial(), &seed, &policy)
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 5, // each case measures a full adaptive sweep
            ..ProptestConfig::default()
        })]

        /// The refined grid is a superset of the seed grid, stays inside
        /// the point cap, and every measured enclosure still contains the
        /// DUT's analytic response — refinement spends points, it never
        /// spends correctness.
        #[test]
        fn refinement_is_a_superset_and_keeps_enclosures(
            seed_points in 4usize..7,
            target_db in 0.2..0.8f64,
        ) {
            let max_points = 14;
            let plot = adaptive_sweep(seed_points, target_db, max_points);
            let seed = log_spaced(Hertz(200.0), Hertz(10_000.0), seed_points);
            for f in &seed {
                prop_assert!(
                    plot.points().iter().any(
                        |p| p.frequency.value().to_bits() == f.value().to_bits()
                    ),
                    "seed frequency {f} missing from refined grid"
                );
            }
            prop_assert!(plot.len() >= seed_points && plot.len() <= max_points);
            for p in plot.points() {
                prop_assert!(
                    p.gain_db.lo <= p.ideal_gain_db && p.ideal_gain_db <= p.gain_db.hi,
                    "gain enclosure {} excludes analytic {} at {}",
                    p.gain_db, p.ideal_gain_db, p.frequency
                );
            }
            prop_assert_eq!(plot.gain_coverage(), Some(1.0));
        }
    }
}

mod shard_properties {
    use dut::ActiveRcFilter;
    use netan::{
        lot_json, AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan, LotReport,
        ShardDriver,
    };
    use proptest::prelude::*;
    use std::ops::Range;

    fn plan() -> LotPlan {
        LotPlan::from_mask(GainMask::paper_lowpass())
    }

    fn factory(sigma: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync + Copy {
        move |seed| {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(sigma, seed)
        }
    }

    /// Fast per-shard settings: short warm-up keeps each acquisition
    /// cheap enough for property cases that run whole lots repeatedly.
    fn config(cmos: bool) -> AnalyzerConfig {
        let base = if cmos {
            AnalyzerConfig::cmos_035um(11)
        } else {
            AnalyzerConfig::ideal()
        };
        AnalyzerConfig {
            warmup_periods: 10,
            ..base.with_periods(20)
        }
    }

    fn shard(lot: &Range<u64>, cmos: bool, sigma: f64, range: Range<u64>) -> LotReport {
        debug_assert!(lot.start <= range.start && range.end <= lot.end);
        LotEngine::serial()
            .run_range(factory(sigma), range, &plan(), config(cmos))
            .expect("shard run failed")
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 4, // each case measures a whole lot several times over
            ..ProptestConfig::default()
        })]

        /// `LotReport::merge` is associative over adjacent shards:
        /// (A ⊕ B) ⊕ C and A ⊕ (B ⊕ C) are equal — as reports *and* as
        /// serialized `netan.lot.v5` bytes.
        #[test]
        fn merge_is_associative(
            seed_base in 0u64..100_000,
            sigma in 0.0..0.10f64,
            cut1 in 1u64..3,
            cmos in any::<bool>(),
        ) {
            let lot = seed_base..seed_base + 5;
            let cuts = [lot.start, lot.start + cut1, lot.start + 3, lot.end];
            let [a, b, c] = [0, 1, 2].map(|i| shard(&lot, cmos, sigma, cuts[i]..cuts[i + 1]));
            let left = a.clone().merge(b.clone()).merge(c.clone());
            let right = a.merge(b.merge(c));
            prop_assert_eq!(&left, &right);
            prop_assert_eq!(lot_json(&left), lot_json(&right));
        }

        /// `LotReport::empty` is a two-sided identity for merge.
        #[test]
        fn empty_is_a_two_sided_identity(
            seed_base in 0u64..100_000,
            sigma in 0.0..0.10f64,
        ) {
            let lot = seed_base..seed_base + 3;
            let r = shard(&lot, false, sigma, lot.clone());
            let plan = plan();
            prop_assert_eq!(&LotReport::empty(&plan).merge(r.clone()), &r);
            prop_assert_eq!(&r.clone().merge(LotReport::empty(&plan)), &r);
        }

        /// Any adjacent partition of a plain lot merges back to the
        /// monolithic run — byte-identical `netan.lot.v5` JSON — for the
        /// ideal and the seeded-CMOS hardware profiles alike.
        #[test]
        fn shard_partition_merges_to_the_monolithic_plain_run(
            seed_base in 0u64..100_000,
            sigma in 0.0..0.10f64,
            cut1 in 1u64..3,
            cut2 in 3u64..6,
            cmos in any::<bool>(),
        ) {
            let lot = seed_base..seed_base + 6;
            let whole = shard(&lot, cmos, sigma, lot.clone());
            let cuts = [lot.start, lot.start + cut1, lot.start + cut2, lot.end];
            let merged = (0..3)
                .map(|i| shard(&lot, cmos, sigma, cuts[i]..cuts[i + 1]))
                .reduce(LotReport::merge)
                .unwrap();
            prop_assert_eq!(lot_json(&merged), lot_json(&whole));
        }

        /// The same partition property for *escalated* (unbudgeted)
        /// schedules: stage summaries, carry-forward counts and spent
        /// time all survive the merge bit for bit.
        #[test]
        fn shard_partition_merges_to_the_monolithic_escalated_run(
            seed_base in 0u64..100_000,
            sigma in 0.04..0.12f64,
            cut in 1u64..5,
            cmos in any::<bool>(),
        ) {
            let lot = seed_base..seed_base + 5;
            let plan = plan();
            let schedule = EscalationSchedule::from_periods(config(cmos), &[20, 60]);
            let run = |range: Range<u64>| {
                LotEngine::serial()
                    .run_escalated_range(factory(sigma), range, &plan, &schedule)
                    .expect("escalated shard failed")
            };
            let whole = run(lot.clone());
            let merged = run(lot.start..lot.start + cut).merge(run(lot.start + cut..lot.end));
            prop_assert_eq!(lot_json(&merged), lot_json(&whole));
        }

        /// Checkpoint/resume equals the uninterrupted run: a drive halted
        /// after a random number of shards — which has left exactly the
        /// documents of a drive over those shards' seeds — and then
        /// resumed emits the byte-identical final document.
        #[test]
        fn resumed_checkpoint_drive_equals_the_uninterrupted_run(
            seed in 0u64..100_000,
            sigma in 0.0..0.10f64,
            halt_after in 0u64..3,
        ) {
            let dir = std::env::temp_dir()
                .join(format!("netan-ckpt-{}-{seed}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let lot = seed..seed + 6;
            let plan = plan();
            let config = config(false);
            let schedule = EscalationSchedule::new(vec![config]);
            let engine = LotEngine::serial();
            let whole = engine
                .run_range(factory(sigma), lot.clone(), &plan, config)
                .unwrap();
            let drive = |lot: Range<u64>| {
                ShardDriver::new(lot, 2, &plan, &schedule)
                    .unwrap()
                    .with_dir(&dir, &format!("paper DUT, linearized, σ {sigma}"))
                    .drive(&engine, factory(sigma))
                    .unwrap()
            };
            if halt_after > 0 {
                let halted = drive(lot.start..lot.start + 2 * halt_after);
                prop_assert_eq!(halted.len() as u64, 2 * halt_after);
            }
            let resumed = drive(lot);
            std::fs::remove_dir_all(&dir).ok();
            prop_assert_eq!(lot_json(&resumed), lot_json(&whole));
        }
    }
}

mod sequential_stopping_properties {
    use dut::ActiveRcFilter;
    use mixsig::units::Seconds;
    use netan::{
        lot_json, AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan, LotReport,
        ShardDriver,
    };
    use proptest::prelude::*;
    use std::ops::Range;

    fn plan() -> LotPlan {
        LotPlan::from_mask(GainMask::paper_lowpass())
    }

    fn factory(sigma: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync + Copy {
        move |seed| {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(sigma, seed)
        }
    }

    /// Fast three-stage sequential schedule over the given profile.
    fn schedule(cmos: bool) -> EscalationSchedule {
        let base = if cmos {
            AnalyzerConfig::cmos_035um(11)
        } else {
            AnalyzerConfig::ideal()
        };
        let base = AnalyzerConfig {
            warmup_periods: 10,
            ..base
        };
        EscalationSchedule::from_periods(base, &[20, 40, 80]).sequential()
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 4, // each case measures whole lots repeatedly
            ..ProptestConfig::default()
        })]

        /// A sequential run's decided verdicts — and plots — are
        /// bit-equal to a direct plain run at the device's stopping
        /// stage: a sequential re-test is measured from scratch at the
        /// deeper `M`, so charging only the increments changes cost,
        /// never evidence. (The increment is a cost model: a chopped
        /// acquisition at `M_{s−1}` is not a prefix of one at `M_s`.)
        #[test]
        fn sequential_verdicts_match_a_direct_run_at_the_stopping_stage(
            seed_base in 0u64..100_000,
            sigma in 0.05..0.12f64,
            cmos in any::<bool>(),
        ) {
            let plan = plan();
            let sched = schedule(cmos);
            let seeds = seed_base..seed_base + 4;
            let report = LotEngine::with_threads(4)
                .run_escalated_range(factory(sigma), seeds.clone(), &plan, &sched)
                .expect("sequential run failed");
            for d in report.devices() {
                let direct = LotEngine::serial()
                    .run_range(factory(sigma), d.seed..d.seed + 1, &plan, sched.stages()[d.stage])
                    .expect("direct run failed");
                let direct = &direct.devices()[0];
                prop_assert_eq!(&d.verdict, &direct.verdict,
                    "seed {}: sequential verdict diverges at stage {}", d.seed, d.stage);
                prop_assert!(d.plot == direct.plot,
                    "seed {}: sequential plot diverges from a direct run", d.seed);
            }
        }

        /// The report's `spent()` is exactly the seed-order fold of one
        /// schedule charge per device and stage it reached — the ledger
        /// holds no time no device was charged, stage by stage.
        #[test]
        fn spent_is_the_fold_of_observed_device_charges(
            seed_base in 0u64..100_000,
            sigma in 0.04..0.12f64,
            cmos in any::<bool>(),
        ) {
            let plan = plan();
            let sched = schedule(cmos);
            let seeds = seed_base..seed_base + 4;
            let report = LotEngine::serial()
                .run_escalated_range(factory(sigma), seeds.clone(), &plan, &sched)
                .expect("sequential run failed");
            let mut total = Seconds(0.0);
            for (s, summary) in report.stages().iter().enumerate() {
                prop_assert_eq!(summary.device_time, sched.device_stage_charge(s, plan.grid()),
                    "stage {} records another charge than the schedule's", s);
                prop_assert_eq!(summary.config, sched.stages()[s]);
                let fold = report
                    .devices()
                    .iter()
                    .filter(|d| d.stage >= s)
                    .fold(Seconds(0.0), |acc, _| acc + summary.device_time);
                prop_assert_eq!(summary.time, fold,
                    "stage {} time diverges from the charged devices", s);
                total = total + summary.time;
            }
            prop_assert_eq!(report.spent(), total);
            // No device outran the executed stages.
            for d in report.devices() {
                prop_assert!(d.stage < report.stages().len());
            }
        }

        /// Partition ⊕ merge == monolithic for unbudgeted sequential
        /// lots — byte-identical `netan.lot.v5` documents — for the
        /// ideal and the seeded-CMOS hardware profiles alike.
        #[test]
        fn sequential_shards_merge_to_the_monolithic_run(
            seed_base in 0u64..100_000,
            sigma in 0.04..0.12f64,
            cut in 1u64..5,
            cmos in any::<bool>(),
        ) {
            let plan = plan();
            let sched = schedule(cmos);
            let lot = seed_base..seed_base + 5;
            let run = |range: Range<u64>| {
                LotEngine::serial()
                    .run_escalated_range(factory(sigma), range, &plan, &sched)
                    .expect("sequential shard failed")
            };
            let whole = run(lot.clone());
            let merged = run(lot.start..lot.start + cut).merge(run(lot.start + cut..lot.end));
            prop_assert_eq!(lot_json(&merged), lot_json(&whole));
        }

        /// A budgeted sequential checkpoint drive killed after a random
        /// number of shards (a drive over those shards' seeds) and
        /// resumed reproduces the uninterrupted drive's outcome exactly —
        /// the byte-identical final document, or the identical typed
        /// error when an early shard's re-tests leave a later shard's
        /// screening unpayable.
        /// The remaining global budget every shard sees is recomputed
        /// from the persisted shard spends, so both paths replay.
        #[test]
        fn budgeted_sequential_checkpoint_resumes_byte_identically(
            seed in 0u64..100_000,
            sigma in 0.05..0.12f64,
            halt_after in 0u64..3,
        ) {
            let plan = plan();
            let c0 = netan::grid_time(20, plan.grid());
            let c1 = netan::grid_time(40, plan.grid());
            // Screening for 6 devices plus roughly one first re-test
            // increment: tight enough that later shards feel what
            // earlier shards spent.
            let budget = Seconds(6.0 * c0.value() + 1.5 * (c1.value() - c0.value()));
            let sched = schedule(false).with_budget(budget);
            let engine = LotEngine::serial();
            let lot = seed..seed + 6;
            let outcome = |r: Result<LotReport, netan::CheckpointError>| match r {
                Ok(report) => lot_json(&report),
                Err(e) => format!("error: {e}"),
            };

            let dir_a = std::env::temp_dir()
                .join(format!("netan-seq-a-{}-{seed}", std::process::id()));
            let dir_b = std::env::temp_dir()
                .join(format!("netan-seq-b-{}-{seed}", std::process::id()));
            std::fs::remove_dir_all(&dir_a).ok();
            std::fs::remove_dir_all(&dir_b).ok();
            let drive = |dir: &std::path::Path, lot: Range<u64>| {
                ShardDriver::new(lot, 2, &plan, &sched)?
                    .with_dir(dir, &format!("paper DUT, linearized, σ {sigma}"))
                    .drive(&engine, factory(sigma))
            };
            let whole = outcome(drive(&dir_a, lot.clone()));
            // Kill (possibly mid-error), then resume from the persisted
            // ledgers.
            if halt_after > 0 {
                let _ = drive(&dir_b, lot.start..lot.start + 2 * halt_after);
            }
            let resumed = outcome(drive(&dir_b, lot));
            std::fs::remove_dir_all(&dir_a).ok();
            std::fs::remove_dir_all(&dir_b).ok();
            prop_assert_eq!(resumed, whole);
        }
    }

    /// Unbudgeted monolithic sanity anchor for the suite above: on a
    /// lot that escalates, a sequential report stops every device at the
    /// staged twin's stage with the staged verdict, and spends strictly
    /// less.
    #[test]
    fn sequential_never_spends_more_than_staged() {
        let plan = plan();
        let seq = schedule(false);
        let staged = seq.clone().with_stopping(netan::StoppingPolicy::Staged);
        let seeds = 0..6;
        let engine = LotEngine::serial();
        let a = engine
            .run_escalated_range(factory(0.09), seeds.clone(), &plan, &staged)
            .unwrap();
        let b = engine
            .run_escalated_range(factory(0.09), seeds.clone(), &plan, &seq)
            .unwrap();
        let outcomes = |r: &LotReport| {
            r.devices()
                .iter()
                .map(|d| (d.seed, d.verdict, d.stage))
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(&a), outcomes(&b));
        let configs = |r: &LotReport| r.stages().iter().map(|s| s.config).collect::<Vec<_>>();
        assert_eq!(configs(&a), configs(&b));
        // The premise: σ = 9 % at M = 20 leaves devices to re-test, so
        // the increment charge has something to save.
        assert!(a.devices().iter().any(|d| d.stage > 0));
        assert!(b.spent().value() < a.spent().value());
    }
}

mod mixsig_properties {
    use mixsig::Matrix;
    use proptest::prelude::*;

    fn small_matrix() -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-1.0..1.0f64, 9)
            .prop_map(|v| Matrix::from_rows(&[&v[0..3], &v[3..6], &v[6..9]]))
    }

    proptest! {
        /// exp(A)·exp(−A) = I for arbitrary small matrices.
        #[test]
        fn expm_inverse(a in small_matrix()) {
            let e = a.expm();
            let e_inv = a.scaled(-1.0).expm();
            let p = &e * &e_inv;
            for r in 0..3 {
                for c in 0..3 {
                    let expect = if r == c { 1.0 } else { 0.0 };
                    prop_assert!((p[(r, c)] - expect).abs() < 1e-9);
                }
            }
        }

        /// det-free sanity: expm of the zero-scaled matrix is I.
        #[test]
        fn expm_zero_scaling(a in small_matrix()) {
            let z = a.scaled(0.0).expm();
            for r in 0..3 {
                for c in 0..3 {
                    let expect = if r == c { 1.0 } else { 0.0 };
                    prop_assert!((z[(r, c)] - expect).abs() < 1e-14);
                }
            }
        }
    }
}
