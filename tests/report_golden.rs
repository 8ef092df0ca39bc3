//! Golden-output tests for the report sinks: the JSON serialization of a
//! small seeded lot — plain and escalated — is compared byte-for-byte
//! against checked-in fixtures, and the CSV layout is pinned. Everything
//! in the pipeline is seeded, so the bytes are reproducible on a given
//! platform; transcendental calls (`sin`, `log10`, …) go through the
//! system libm, so a different platform/libm may drift by an ulp and
//! shift the shortest-round-trip digits. If that — or a deliberate
//! change — moves the bytes, re-bless with
//! `UPDATE_GOLDEN=1 cargo test -p netan --test report_golden`.
//! The structural tests below are platform-independent.
//!
//! Provenance: both fixtures were re-blessed for `netan.lot.v5`, a
//! format-only change. Each stage record carries its whole analyzer
//! configuration in place of its `M`, device records drop `periods`,
//! `test_time_s` and `stage_times_s` (the stage list gives them), and
//! the shard object drops `complete`. Every kept field, every
//! enclosure, verdict and fit, and every `lot_csv` byte is unchanged.

use dut::ActiveRcFilter;
use mixsig::units::{Hertz, Seconds};
use netan::{
    bode_json, log_spaced, lot_csv, lot_json, parse_lot_json, AnalyzerConfig, EscalationSchedule,
    GainMask, LotEngine, LotPlan, LotReport, NetworkAnalyzer, RefinementPolicy,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/lot_small.json"
);

const ESCALATED_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/lot_escalated.json"
);

fn small_seeded_lot() -> LotReport {
    let plan = LotPlan::from_mask(GainMask::paper_lowpass());
    LotEngine::serial()
        .run_range(
            |seed| {
                ActiveRcFilter::paper_dut()
                    .linearized()
                    .fabricate(0.05, seed)
            },
            0..4,
            &plan,
            AnalyzerConfig::ideal().with_periods(50),
        )
        .unwrap()
}

/// A seeded escalated lot whose budget pays for the screen plus some —
/// not all — re-tests, so the fixture pins stage summaries, per-device
/// provenance and an exhausted budget at once.
/// (Half a re-test over the screening cost: the ledger admits exactly
/// one re-test — overshooting by its own charge — and denies the rest.)
fn escalated_seeded_lot() -> LotReport {
    let plan = LotPlan::from_mask(GainMask::paper_lowpass());
    let seeds = 0..6u64;
    let free = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 90]);
    let c0 = free.device_stage_time(0, plan.grid()).value();
    let c1 = free.device_stage_time(1, plan.grid()).value();
    let schedule = free.with_budget(Seconds(6.0 * c0 + 0.5 * c1));
    LotEngine::serial()
        .run_escalated_range(
            |seed| {
                ActiveRcFilter::paper_dut()
                    .linearized()
                    .fabricate(0.09, seed)
            },
            seeds,
            &plan,
            &schedule,
        )
        .unwrap()
}

fn check_golden(json: &str, path: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, format!("{json}\n")).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("fixture {path}: {e} (bless with UPDATE_GOLDEN=1)"));
    assert_eq!(
        json,
        golden.trim_end(),
        "lot_json drifted from {path}; re-bless with UPDATE_GOLDEN=1 if intended"
    );
}

#[test]
fn lot_json_matches_golden_fixture() {
    check_golden(&lot_json(&small_seeded_lot()), FIXTURE);
}

#[test]
fn escalated_lot_json_matches_golden_fixture() {
    check_golden(&lot_json(&escalated_seeded_lot()), ESCALATED_FIXTURE);
}

#[test]
fn lot_json_structure_is_well_formed() {
    let json = lot_json(&small_seeded_lot());
    assert!(json.starts_with("{\"schema\":\"netan.lot.v5\",\"stopping\":\"staged\","));
    assert!(json.ends_with("]}"));
    assert_eq!(json.matches("\"seed\":").count(), 4);
    // v5: the stage records the configuration that measured it; the
    // devices record only what was measured.
    assert!(json.contains(
        "\"config\":{\"periods\":50,\"warmup_periods\":40,\"va_diff_v\":0.15,\"hardware\":\"ideal\"}"
    ));
    for dropped in ["stage_times_s", "test_time_s", "complete"] {
        assert!(!json.contains(dropped), "{dropped}");
    }
    // Seed-slice runs carry their span as shard provenance.
    assert!(json.contains("\"shard\":{\"seed_start\":0,\"seed_end\":4},"));
    // The mask plus 4 devices × 4 points each.
    assert_eq!(json.matches("\"freq_hz\":").count(), 4 + 4 * 4);
    // One stage summary (the plain run) plus a provenance field per device.
    assert_eq!(json.matches("\"stage\":").count(), 1 + 4);
    // Fixed-grid plans know the uniform per-device stage cost.
    assert_eq!(json.matches("\"device_time_s\":").count(), 1);
    assert!(!json.contains("\"device_time_s\":null"));
    assert!(json.contains("\"budget\":{\"limit_s\":null,"));
    assert!(json.contains("\"exhausted\":false"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(!json.contains("NaN") && !json.contains("inf"));
}

#[test]
fn escalated_lot_json_structure_is_well_formed() {
    let report = escalated_seeded_lot();
    // The fixture premise: the budget stopped at least one re-test.
    assert!(report.budget_exhausted());
    assert_eq!(report.stages().len(), 2);
    let json = lot_json(&report);
    assert!(json.starts_with("{\"schema\":\"netan.lot.v5\","));
    assert!(json.contains("\"shard\":{\"seed_start\":0,\"seed_end\":6},"));
    assert_eq!(json.matches("\"seed\":").count(), 6);
    assert!(!json.contains("stage_times_s") && !json.contains("test_time_s"));
    // Two stage summaries plus one provenance field per device.
    assert_eq!(json.matches("\"stage\":").count(), 2 + 6);
    assert_eq!(json.matches("\"device_time_s\":").count(), 2);
    assert!(json.contains("\"exhausted\":true"));
    // `M` appears only in the stage records' configurations.
    assert_eq!(json.matches("\"periods\":").count(), 2);
    assert!(json.contains("{\"stage\":0,\"config\":{\"periods\":30,"));
    assert!(json.contains("{\"stage\":1,\"config\":{\"periods\":90,"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(!json.contains("NaN") && !json.contains("inf"));
}

#[test]
fn lot_csv_rows_and_columns_are_pinned() {
    let report = small_seeded_lot();
    let csv = lot_csv(&report);
    let lines: Vec<&str> = csv.lines().collect();
    // Header + one row per device.
    assert_eq!(lines.len(), 1 + report.len());
    assert_eq!(
        lines[0],
        "seed,verdict,fit_gain,fit_f0_hz,fit_q,cutoff_hz,worst_gain_err_db,stage,periods,test_time_s,stage_times_s,shard"
    );
    for (i, row) in lines[1..].iter().enumerate() {
        assert_eq!(row.split(',').count(), 12, "row {row}");
        assert!(row.starts_with(&format!("{i},")), "row {row}");
        assert!(
            row.ends_with(",0,50,0.8099999999999999,0.8099999999999999,0..4"),
            "row {row}"
        );
    }
    // The escalated lot's `stage, periods, test_time_s, stage_times_s,
    // shard`: seed 0 was re-tested at M = 90, seed 1 decided at the
    // M = 30 screen.
    let csv = lot_csv(&escalated_seeded_lot());
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert!(rows[0].starts_with("0,"), "{}", rows[0]);
    assert!(
        rows[0].ends_with(",1,90,1.944,0.486;1.458,0..6"),
        "{}",
        rows[0]
    );
    assert!(rows[1].starts_with("1,"), "{}", rows[1]);
    assert!(rows[1].ends_with(",0,30,0.486,0.486,0..6"), "{}", rows[1]);
}

#[test]
fn bode_json_round_trips_the_device_plot() {
    let report = small_seeded_lot();
    let json = bode_json(&report.devices()[0].plot);
    assert!(json.starts_with("{\"schema\":\"netan.bode.v2\",\"points\":["));
    assert_eq!(json.matches("\"freq_hz\":").count(), 4);
    // Fixed-grid sweeps carry round-0 provenance on every point.
    assert_eq!(json.matches("\"round\":0").count(), 4);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn parse_lot_json_round_trips_the_golden_fixtures() {
    // The v5 parser re-renders its own documents byte for byte — the
    // property checkpoint/resume leans on, proven here against the
    // blessed fixtures rather than a fresh in-memory report.
    for path in [FIXTURE, ESCALATED_FIXTURE] {
        let golden = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("fixture {path}: {e} (bless with UPDATE_GOLDEN=1)"));
        let report = parse_lot_json(&golden).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(lot_json(&report), golden.trim_end(), "{path}");
    }
}

/// Runs the `plot_report` example on a fixture. The nested cargo
/// invocation reuses the build cache `cargo test` already produced for
/// the example target.
fn run_plot_report(fixture: &str) -> std::process::Output {
    std::process::Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", "plot_report", "--"])
        .arg(fixture)
        .output()
        .expect("failed to spawn cargo run --example plot_report")
}

/// Runs the `plot_report` example on a fixture and returns its stdout.
fn plot_report_output(fixture: &str) -> String {
    let out = run_plot_report(fixture);
    assert!(
        out.status.success(),
        "plot_report rejected {fixture}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("plot_report emitted non-UTF-8")
}

#[test]
fn plot_report_consumes_schema_v5() {
    // The consumer reads what the sink now writes: same per-point rows,
    // with the stopping policy and stage configurations ignored.
    let csv = plot_report_output(ESCALATED_FIXTURE);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + 6 * 4, "unexpected row count:\n{csv}");
    assert!(lines[0].starts_with("seed,verdict,freq_hz,"));
}

#[test]
fn plot_report_rejects_other_lot_schema_versions() {
    // The consumer reads exactly what the sink writes: a lot document
    // under any other schema tag is refused, not read.
    let golden = std::fs::read_to_string(ESCALATED_FIXTURE).unwrap();
    let path = std::env::temp_dir().join(format!("netan-lot-v4-{}.json", std::process::id()));
    std::fs::write(&path, golden.replacen("netan.lot.v5", "netan.lot.v4", 1)).unwrap();
    let out = run_plot_report(path.to_str().unwrap());
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success(), "plot_report read a netan.lot.v4 tag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("netan.lot.v5"), "{stderr}");
}

#[test]
fn plot_report_consumes_bode_documents() {
    // The bode path: an adaptive sweep's `netan.bode.v2` document, one
    // row per point, each carrying its refinement round.
    let dut = ActiveRcFilter::paper_dut().linearized();
    let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal().with_periods(20));
    let policy = RefinementPolicy::new(0.3)
        .with_max_points(12)
        .with_max_rounds(3);
    let plot = na
        .sweep_adaptive_with(
            &LotEngine::serial(),
            &log_spaced(Hertz(200.0), Hertz(10_000.0), 5),
            &policy,
        )
        .unwrap();
    let path = std::env::temp_dir().join(format!("netan-bode-{}.json", std::process::id()));
    std::fs::write(&path, bode_json(&plot)).unwrap();
    let csv = plot_report_output(path.to_str().unwrap());
    std::fs::remove_file(&path).ok();

    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + plot.len(), "unexpected row count:\n{csv}");
    assert!(lines[0].starts_with("freq_hz,") && lines[0].ends_with(",round"));
    let rounds: Vec<String> = plot.points().iter().map(|p| p.round.to_string()).collect();
    let columns: Vec<&str> = lines[1..]
        .iter()
        .map(|row| row.rsplit(',').next().unwrap())
        .collect();
    assert_eq!(columns, rounds);
    assert!(plot.points().iter().any(|p| p.round > 0));
}
