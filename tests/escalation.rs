//! Determinism guarantees of escalated lot runs: a parallel
//! `LotEngine::run_escalated_range` must be **bit-identical** to the serial
//! reference — same plots, same verdicts, same stage provenance, same
//! budget accounting, same error on failure — for both the ideal and the
//! seeded-CMOS analyzer profiles, across every stage of the schedule and
//! through the budget-exhausted early-stop path.
//!
//! The asserts use `PartialEq` on whole `LotReport`s, i.e. IEEE equality
//! on every `f64` field — no tolerances. The retest set at each stage is
//! a function of verdicts and budget arithmetic only (never of thread
//! completion order), so serial and parallel schedules execute the same
//! per-device instruction streams.

use dut::ActiveRcFilter;
use mixsig::units::{Hertz, Seconds};
use netan::{
    lot_json, AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan, NetanError,
    SpecVerdict,
};
use std::sync::Mutex;

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
fn parallel_escalated_matches_serial_ideal() {
    // σ = 9 % at a fast M = 30 screen leaves borderline parts ambiguous,
    // so the re-test stages genuinely run.
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 60, 120]);
    let seeds = 0..8;
    let factory = paper_factory(0.09);

    let serial = LotEngine::serial()
        .run_escalated_range(&factory, seeds.clone(), &plan, &schedule)
        .unwrap();
    let parallel = LotEngine::with_threads(8)
        .run_escalated_range(&factory, seeds.clone(), &plan, &schedule)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 8);
    // Device order is seed order, regardless of completion order.
    for (d, seed) in serial.devices().iter().zip(seeds.clone()) {
        assert_eq!(d.seed, seed);
    }
    // The schedule actually escalated someone (σ = 9 % at M = 30 leaves
    // ambiguity by construction) — otherwise this test proves nothing.
    assert!(
        serial.stages().len() > 1,
        "expected at least one re-test stage, got {:?}",
        serial.stages()
    );

    // The same schedule with sequential stopping is just as
    // engine-independent, charges included.
    let sequential = schedule.sequential();
    let serial = LotEngine::serial()
        .run_escalated_range(&factory, seeds.clone(), &plan, &sequential)
        .unwrap();
    let parallel = LotEngine::with_threads(8)
        .run_escalated_range(&factory, seeds.clone(), &plan, &sequential)
        .unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn early_verdicts_agree_with_the_deepest_stage_at_lower_spend() {
    // Escalation against the brute-force reference: every device
    // measured at the deepest stage's M. σ = 9 % leaves borderline
    // parts ambiguous at M = 50, so the schedule escalates.
    //
    // The reference is not ground truth. A deep acquisition carries the
    // same stimulus-image bias as the schedule's own last stage (the
    // generator's staircase images at harmonics 31 and 33 leak through
    // the square-wave demodulation, and the enclosure's ε bound does not
    // cover them), so agreement shows that stages are consistent with
    // each other, not that either verdict is true.
    let plan = paper_plan();
    let stages = [50, 100];
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &stages);
    let seeds = 0..6;
    let factory = paper_factory(0.09);

    let escalated = LotEngine::auto()
        .run_escalated_range(&factory, seeds.clone(), &plan, &schedule)
        .unwrap();
    let deepest = LotEngine::auto()
        .run_range(
            &factory,
            seeds.clone(),
            &plan,
            AnalyzerConfig::ideal().with_periods(100),
        )
        .unwrap();

    let last = stages.len() - 1;
    let decided = |v: SpecVerdict| v != SpecVerdict::Ambiguous;
    for (e, d) in escalated.devices().iter().zip(deepest.devices()) {
        if e.stage == last {
            continue;
        }
        // With no budget, a device stops below the last stage only once
        // it is decided.
        assert!(decided(e.verdict), "seed {} stopped ambiguous", e.seed);
        // A decided early verdict is never contradicted by a decided
        // verdict at the deepest M.
        if decided(d.verdict) {
            assert_eq!(
                e.verdict,
                d.verdict,
                "seed {} binned at M = {} is contradicted at M = 100",
                e.seed,
                escalated.stages()[e.stage].config.periods
            );
        }
    }
    assert!(
        escalated.spent() < deepest.spent(),
        "escalation spent {:?}, not less than the deepest-stage reference's {:?}",
        escalated.spent(),
        deepest.spent()
    );
}

#[test]
fn parallel_escalated_matches_serial_with_seeded_cmos_noise() {
    // The CMOS profile exercises every seeded noise/mismatch source of
    // the analyzer's own hardware; determinism must survive both the
    // device fan-out and the per-stage recalibration.
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::cmos_035um(7), &[40, 80]);
    let seeds = 0..5;
    let factory = paper_factory(0.06);

    let serial = LotEngine::serial()
        .run_escalated_range(&factory, seeds.clone(), &plan, &schedule)
        .unwrap();
    let parallel = LotEngine::with_threads(8)
        .run_escalated_range(&factory, seeds.clone(), &plan, &schedule)
        .unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn budget_exhausted_early_stop_is_deterministic() {
    // A budget that pays for the screening pass plus half a re-test:
    // the ledger admits the lowest-seed ambiguous device (re-tests are
    // admitted while `spent < budget`, so the last one may overshoot by
    // its own charge), denies the rest, flags the exhaustion, and does
    // so identically under any schedule.
    let plan = paper_plan();
    let seeds = 0..6;
    let factory = paper_factory(0.09);
    let free = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 90]);
    let c0 = free.device_stage_time(0, plan.grid()).value();
    let c1 = free.device_stage_time(1, plan.grid()).value();
    let budget = Seconds(6.0 * c0 + 0.5 * c1);
    let schedule = free.clone().with_budget(budget);

    // The serial run records every seed it fabricates.
    let fabricated = Mutex::new(Vec::new());
    let recording = |seed: u64| {
        fabricated.lock().unwrap().push(seed);
        factory(seed)
    };
    let serial = LotEngine::serial()
        .run_escalated_range(recording, seeds.clone(), &plan, &schedule)
        .unwrap();
    let parallel = LotEngine::with_threads(6)
        .run_escalated_range(&factory, seeds.clone(), &plan, &schedule)
        .unwrap();
    assert_eq!(serial, parallel);

    // The premise: more than one device needed a re-test.
    let ambiguous_after_screen = serial.stages()[0].counts.ambiguous;
    assert!(
        ambiguous_after_screen > 1,
        "need >1 ambiguous device to exercise the early stop, got {ambiguous_after_screen}"
    );
    // Exactly one affordable re-test, awarded in seed order.
    assert!(serial.budget_exhausted());
    assert_eq!(serial.stages().len(), 2);
    assert_eq!(serial.stages()[1].tested, 1);
    let escalated: Vec<u64> = serial
        .devices()
        .iter()
        .filter(|d| d.stage == 1)
        .map(|d| d.seed)
        .collect();
    let first_ambiguous = serial
        .devices()
        .iter()
        .find(|d| d.verdict == SpecVerdict::Ambiguous || d.stage == 1)
        .map(|d| d.seed)
        .unwrap();
    assert_eq!(escalated, vec![first_ambiguous]);
    // The admitted re-test overshoots the budget by at most its own
    // charge — never more.
    assert!(serial.spent().value() <= budget.value() + c1 + 1e-12);
    // On the serial engine a stage is one lane and one point group, so a
    // device is fabricated once per stage that measures it: the admitted
    // prefix is known before measuring, and a denied device is never
    // measured again.
    let fabricated = fabricated.into_inner().unwrap();
    for d in serial.devices() {
        let times = fabricated.iter().filter(|&&seed| seed == d.seed).count();
        assert_eq!(times, d.stage + 1, "seed {}", d.seed);
    }

    // The free-running schedule on the same lot re-tests every
    // ambiguous device — the budget is the only thing holding back.
    let unbounded = LotEngine::serial()
        .run_escalated_range(&factory, seeds.clone(), &plan, &free)
        .unwrap();
    assert!(!unbounded.budget_exhausted());
    assert_eq!(unbounded.stages()[1].tested, ambiguous_after_screen);
}

#[test]
fn budget_below_screening_pass_is_rejected_before_simulation() {
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 90])
        .with_budget(Seconds(1e-3));
    let factory = paper_factory(0.0);
    let fabricated = Mutex::new(Vec::new());
    let recording = |seed: u64| {
        fabricated.lock().unwrap().push(seed);
        factory(seed)
    };
    let err = LotEngine::serial()
        .run_escalated_range(recording, 0..3, &plan, &schedule)
        .unwrap_err();
    assert!(
        matches!(err, NetanError::BudgetExhausted { .. }),
        "expected BudgetExhausted, got {err:?}"
    );
    // Rejected before any device was fabricated.
    assert_eq!(fabricated.into_inner().unwrap(), Vec::<u64>::new());
}

#[test]
fn lowest_index_device_error_wins_under_any_schedule() {
    // Seeds 2 and 5 fabricate into devices with a NaN pole — not
    // simulable. Serial and parallel escalated runs must both report the
    // lowest-index failing device, exactly as an in-order run would.
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 60]);
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
                .run_escalated_range(factory, seeds.clone(), &plan, &schedule)
                .unwrap_err(),
            expected,
            "{engine:?}"
        );
    }
}

#[test]
fn escalated_shard_partition_merges_to_the_monolithic_report() {
    // Sharding an unbudgeted escalated lot and merging the parts must
    // reproduce the monolithic run bit for bit — stage summaries,
    // carry-forward counts, spent time, everything. (Budgeted schedules
    // gate on the global lot prefix, so they are exempt by design; see
    // the sharding notes in `netan::lot`.)
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 90]);
    let factory = paper_factory(0.09);
    let engine = LotEngine::serial();

    let whole = engine
        .run_escalated_range(&factory, 0..6, &plan, &schedule)
        .unwrap();
    // The premise: some shard escalates and some does not, so the merge
    // joins stage lists of different lengths.
    assert!(whole.stages().len() > 1);

    let merged = [0..2u64, 2..4, 4..6]
        .into_iter()
        .map(|r| {
            engine
                .run_escalated_range(&factory, r, &plan, &schedule)
                .unwrap()
        })
        .reduce(netan::LotReport::merge)
        .unwrap();
    assert_eq!(merged, whole);
    assert_eq!(netan::lot_json(&merged), netan::lot_json(&whole));
}

#[test]
fn single_stage_schedule_equals_plain_run() {
    // A one-stage schedule is exactly `run_range` with that stage's
    // config — same devices, same provenance, same stage summary, bit
    // for bit — serial and pooled.
    let config = AnalyzerConfig::ideal().with_periods(50);
    let schedule = EscalationSchedule::new(vec![config]);
    let seeds = 0..4;
    let factory = paper_factory(0.05);
    let plan = paper_plan();

    for engine in [LotEngine::serial(), LotEngine::with_threads(3)] {
        let plain = engine
            .run_range(&factory, seeds.clone(), &plan, config)
            .unwrap();
        let escalated = engine
            .run_escalated_range(&factory, seeds.clone(), &plan, &schedule)
            .unwrap();
        // Identical except for the (None, false) budget bookkeeping both
        // carry by default.
        assert_eq!(plain, escalated);
        let range = engine.run_range(&factory, 0..4, &plan, config).unwrap();
        let escalated_range = engine
            .run_escalated_range(&factory, 0..4, &plan, &schedule)
            .unwrap();
        for other in [&escalated, &range, &escalated_range] {
            assert_eq!(lot_json(&plain), lot_json(other));
        }
    }
}
