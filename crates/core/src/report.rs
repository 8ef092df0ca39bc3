//! Text, CSV and JSON rendering of analyzer results — and, for lot
//! documents, parsing back ([`parse_lot_json`]).
//!
//! JSON documents are hand-rendered (the workspace builds fully offline,
//! so there is no serde) and self-describing via a `"schema"` field:
//! `netan.bode.v2` for [`bode_json`] and `netan.lot.v5` for
//! [`lot_json`]. Numbers use Rust's shortest round-trip `f64` formatting;
//! non-finite values render as `null`. Together those two facts make
//! serialization lossless for every serialized field: re-rendering a
//! parsed document reproduces it byte for byte, which is what the
//! [`checkpoint`](crate::checkpoint) driver's resume-equality guarantee
//! rests on.
//!
//! A reader accepts exactly the schema its writer emits: a document of
//! any other version is a [`ReportParseError`], both here and in the
//! `plot_report` consumer, and the checkpoint driver measures a shard of
//! any other version again. A schema bump therefore retires every older
//! checkpoint shard with no new code.

use crate::analyzer::{AnalyzerConfig, BodePoint, HardwareProfile};
use crate::harmonics::DistortionReport;
use crate::json::{write_f64 as json_f64, Json};
use crate::lot::{DeviceReport, LotReport, StageSummary, StoppingPolicy, VerdictCounts};
use crate::spec::{GainMask, MaskPoint, SpecVerdict};
use crate::sweep::{BodePlot, LowpassFit};
use mixsig::units::{Hertz, Seconds, Volts};
use sdeval::Bounded;
use std::fmt::Write as _;

pub use crate::json::ReportParseError;

/// Renders a Bode plot as a human-readable table (the rows of paper
/// Fig. 10a/b).
pub fn bode_table(plot: &BodePlot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>18} {:>10} {:>10} {:>20} {:>12}",
        "freq (Hz)",
        "gain (dB)",
        "gain band (dB)",
        "ideal",
        "phase (°)",
        "phase band (°)",
        "ideal (°)"
    );
    for p in plot.points() {
        let _ = writeln!(
            out,
            "{:>12.1} {:>10.3} [{:>7.3}, {:>7.3}] {:>10.3} {:>10.2} [{:>8.2}, {:>8.2}] {:>12.2}",
            p.frequency.value(),
            p.gain_db.est,
            p.gain_db.lo,
            p.gain_db.hi,
            p.ideal_gain_db,
            p.phase_deg.est,
            p.phase_deg.lo,
            p.phase_deg.hi,
            p.ideal_phase_deg,
        );
    }
    out
}

/// Renders a Bode plot as CSV with a header row. The trailing `round`
/// column is the adaptive-refinement provenance (0 for fixed-grid
/// sweeps and seed points).
pub fn bode_csv(plot: &BodePlot) -> String {
    let mut out = String::from(
        "freq_hz,gain_db,gain_db_lo,gain_db_hi,ideal_gain_db,phase_deg,phase_deg_lo,phase_deg_hi,ideal_phase_deg,round\n",
    );
    for p in plot.points() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            p.frequency.value(),
            p.gain_db.est,
            p.gain_db.lo,
            p.gain_db.hi,
            p.ideal_gain_db,
            p.phase_deg.est,
            p.phase_deg.lo,
            p.phase_deg.hi,
            p.ideal_phase_deg,
            p.round,
        );
    }
    out
}

fn verdict_str(v: SpecVerdict) -> &'static str {
    match v {
        SpecVerdict::Pass => "pass",
        SpecVerdict::Fail => "fail",
        SpecVerdict::Ambiguous => "ambiguous",
    }
}

/// A device's final `M` (`None` if the report has no such stage), its
/// cumulative simulated test time, and the stages it ran — every one up
/// to its own — read off the report's stage summaries.
fn device_ledger(stages: &[StageSummary], stage: usize) -> (Option<u32>, Seconds, &[StageSummary]) {
    let ran = &stages[..stages.len().min(stage.saturating_add(1))];
    let time = ran.iter().fold(Seconds(0.0), |acc, s| acc + s.device_time);
    (stages.get(stage).map(|s| s.config.periods), time, ran)
}

/// Renders a lot report as a human-readable screening table: one row per
/// device (with its escalation stage, final `M` and cumulative simulated
/// test time, read off the stage list), the verdict histogram, the yield
/// enclosure, and — when the run carried stage accounting — one summary
/// line per executed stage plus the budget ledger (prefixed by a
/// `stopping: sequential` line when the run used per-device sequential
/// stopping). A report with shard provenance closes with a
/// `shard: seeds [start, end)` footer line.
pub fn lot_table(report: &LotReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>6} {:>6} {:>9} {:>12} {:>8} {:>16}",
        "seed", "verdict", "stage", "M", "t (s)", "fit f0 (Hz)", "fit Q", "worst |dG| (dB)"
    );
    let stages = report.stages();
    for d in report.devices() {
        let (periods, time, _) = device_ledger(&stages, d.stage);
        let (f0, q) = match d.fit {
            Some(fit) => (format!("{:.1}", fit.f0.value()), format!("{:.4}", fit.q)),
            None => (String::from("-"), String::from("-")),
        };
        let worst = match d.plot.worst_gain_error_db() {
            Some(e) => format!("{e:.3}"),
            None => String::from("-"),
        };
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>6} {:>6} {:>9.3} {:>12} {:>8} {:>16}",
            d.seed,
            verdict_str(d.verdict),
            d.stage,
            periods.map_or_else(|| String::from("-"), |m| m.to_string()),
            time.value(),
            f0,
            q,
            worst,
        );
    }
    let c = report.counts();
    let _ = writeln!(
        out,
        "lot: {} devices — {} pass, {} fail, {} ambiguous (re-test with larger M)",
        c.total(),
        c.pass,
        c.fail,
        c.ambiguous
    );
    match report.yield_bounds() {
        Some((ylo, yhi)) => {
            let _ = writeln!(out, "yield: [{:.1}%, {:.1}%]", 100.0 * ylo, 100.0 * yhi);
        }
        None => {
            let _ = writeln!(out, "yield: n/a (empty lot)");
        }
    }
    if report.stopping() == StoppingPolicy::Sequential {
        let _ = writeln!(out, "stopping: sequential (per-device stage increments)");
    }
    for s in &stages {
        let _ = writeln!(
            out,
            "stage {} (M = {}): {} tested in {:.3} s — {} pass, {} fail, {} ambiguous",
            s.stage,
            s.config.periods,
            s.tested,
            s.time.value(),
            s.counts.pass,
            s.counts.fail,
            s.counts.ambiguous,
        );
    }
    if !stages.is_empty() {
        let spent = report.spent().value();
        match report.budget() {
            Some(b) => {
                let _ = writeln!(
                    out,
                    "budget: spent {:.3} s of {:.3} s{}",
                    spent,
                    b.value(),
                    if report.budget_exhausted() {
                        " (exhausted before the schedule)"
                    } else {
                        ""
                    }
                );
            }
            None => {
                let _ = writeln!(out, "budget: spent {spent:.3} s (no limit)");
            }
        }
    }
    if let Some(s) = report.shard() {
        let _ = writeln!(out, "shard: seeds [{}, {})", s.start, s.end);
    }
    out
}

/// Renders a lot report as CSV with a header row: one row per device,
/// twelve columns (`seed, verdict, fit_gain, fit_f0_hz, fit_q,
/// cutoff_hz, worst_gain_err_db, stage, periods, test_time_s,
/// stage_times_s, shard` — `stage`/`periods`/`test_time_s` are the
/// escalation provenance, stage 0 for plain runs; `stage_times_s` is
/// the per-stage charges, `;`-joined, all three read off the stage list;
/// `shard` is the report's seed range, `start..end`, empty when
/// unknown); missing fit/cutoff fields render empty.
pub fn lot_csv(report: &LotReport) -> String {
    let mut out = String::from(
        "seed,verdict,fit_gain,fit_f0_hz,fit_q,cutoff_hz,worst_gain_err_db,stage,periods,test_time_s,stage_times_s,shard\n",
    );
    let shard = report
        .shard()
        .map(|s| format!("{}..{}", s.start, s.end))
        .unwrap_or_default();
    let stages = report.stages();
    for d in report.devices() {
        let (periods, time, ran) = device_ledger(&stages, d.stage);
        let (gain, f0, q) = match d.fit {
            Some(fit) => (
                fit.gain.to_string(),
                fit.f0.value().to_string(),
                fit.q.to_string(),
            ),
            None => (String::new(), String::new(), String::new()),
        };
        let cutoff = d
            .plot
            .cutoff_frequency()
            .map(|f| f.value().to_string())
            .unwrap_or_default();
        // An empty plot renders an empty field, not a fake perfect 0.
        let worst = d
            .plot
            .worst_gain_error_db()
            .map(|e| e.to_string())
            .unwrap_or_default();
        let stage_times = ran
            .iter()
            .map(|s| s.device_time.value().to_string())
            .collect::<Vec<_>>()
            .join(";");
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            d.seed,
            verdict_str(d.verdict),
            gain,
            f0,
            q,
            cutoff,
            worst,
            d.stage,
            periods.map(|m| m.to_string()).unwrap_or_default(),
            time.value(),
            stage_times,
            shard,
        );
    }
    out
}

fn json_bounded(out: &mut String, b: &Bounded) {
    out.push_str("{\"lo\":");
    json_f64(out, b.lo);
    out.push_str(",\"est\":");
    json_f64(out, b.est);
    out.push_str(",\"hi\":");
    json_f64(out, b.hi);
    out.push('}');
}

fn json_bode_point(out: &mut String, p: &BodePoint, with_round: bool) {
    out.push_str("{\"freq_hz\":");
    json_f64(out, p.frequency.value());
    out.push_str(",\"gain_db\":");
    json_bounded(out, &p.gain_db);
    out.push_str(",\"phase_deg\":");
    json_bounded(out, &p.phase_deg);
    out.push_str(",\"ideal_gain_db\":");
    json_f64(out, p.ideal_gain_db);
    out.push_str(",\"ideal_phase_deg\":");
    json_f64(out, p.ideal_phase_deg);
    if with_round {
        let _ = write!(out, ",\"round\":{}", p.round);
    }
    out.push('}');
}

fn json_points(out: &mut String, points: &[BodePoint], with_round: bool) {
    out.push('[');
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_bode_point(out, p, with_round);
    }
    out.push(']');
}

/// Renders a Bode plot as a JSON document (schema `netan.bode.v2`; v2
/// added the per-point `"round"` adaptive-refinement provenance, 0 for
/// fixed-grid sweeps).
pub fn bode_json(plot: &BodePlot) -> String {
    let mut out = String::from("{\"schema\":\"netan.bode.v2\",\"points\":");
    json_points(&mut out, plot.points(), true);
    out.push('}');
    out
}

fn json_counts(out: &mut String, c: &VerdictCounts) {
    let _ = write!(
        out,
        "{{\"pass\":{},\"fail\":{},\"ambiguous\":{}}}",
        c.pass, c.fail, c.ambiguous
    );
}

/// Renders `mask` as the JSON array that both `netan.lot.v5` and
/// `netan.job.v1` carry: `[{"freq_hz":…,"min_db":…,"max_db":…},…]`.
pub fn write_mask_json(out: &mut String, mask: &GainMask) {
    out.push('[');
    for (i, m) in mask.points().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"freq_hz\":");
        json_f64(out, m.frequency.value());
        out.push_str(",\"min_db\":");
        json_f64(out, m.min_db);
        out.push_str(",\"max_db\":");
        json_f64(out, m.max_db);
        out.push('}');
    }
    out.push(']');
}

/// Parses the mask array [`write_mask_json`] renders.
///
/// # Errors
///
/// [`ReportParseError`] on a value that is not an array of mask points,
/// or naming a point [`MaskPoint::new`] would refuse.
pub fn mask_from_json(doc: &Json) -> Result<GainMask, ReportParseError> {
    let mut mask = GainMask::new();
    for (i, m) in doc.as_arr()?.iter().enumerate() {
        let point = MaskPoint {
            frequency: Hertz(m.field("freq_hz")?.as_f64()?),
            min_db: m.field("min_db")?.as_f64()?,
            max_db: m.field("max_db")?.as_f64()?,
        };
        if let Some(defect) = point.defect() {
            return Err(ReportParseError::doc(format!("mask point {i}: {defect}")));
        }
        mask = mask.with_point(point);
    }
    Ok(mask)
}

/// Renders `config` as the object both `netan.lot.v5` stage records and
/// `netan.job.v1` stages carry: `{"periods":…,"warmup_periods":…,
/// "va_diff_v":…,"hardware":"ideal"|{"cmos_035um":{"seed":…}}}`, without
/// `block_samples`, which never moves a byte.
pub fn write_config_json(out: &mut String, config: &AnalyzerConfig) {
    let _ = write!(
        out,
        "{{\"periods\":{},\"warmup_periods\":{},\"va_diff_v\":",
        config.periods, config.warmup_periods
    );
    json_f64(out, config.va_diff.value());
    out.push_str(",\"hardware\":");
    match config.hardware {
        HardwareProfile::Ideal => out.push_str("\"ideal\""),
        HardwareProfile::Cmos035um { seed } => {
            let _ = write!(out, "{{\"cmos_035um\":{{\"seed\":{seed}}}}}");
        }
    }
    out.push('}');
}

/// Parses the object [`write_config_json`] renders, with the default
/// `block_samples`.
///
/// # Errors
///
/// [`ReportParseError`] on a missing/mistyped field or an unknown
/// hardware profile.
pub fn config_from_json(doc: &Json) -> Result<AnalyzerConfig, ReportParseError> {
    let mut config = AnalyzerConfig::ideal();
    config.periods = doc.field("periods")?.as_int("periods")?;
    config.warmup_periods = doc.field("warmup_periods")?.as_int("warmup_periods")?;
    config.va_diff = Volts(doc.field("va_diff_v")?.as_f64()?);
    config.hardware = match doc.field("hardware")? {
        Json::Str(kind) if kind.as_str() == "ideal" => HardwareProfile::Ideal,
        hw @ Json::Obj(_) => HardwareProfile::Cmos035um {
            seed: hw.field("cmos_035um")?.field("seed")?.as_int("seed")?,
        },
        _ => {
            return Err(ReportParseError::doc(
                "hardware must be \"ideal\" or {\"cmos_035um\":{\"seed\":…}}",
            ));
        }
    };
    Ok(config)
}

/// Renders `stopping` as the JSON string that both `netan.lot.v5` and
/// `netan.job.v1` carry: `"staged"` or `"sequential"`.
pub fn write_stopping_json(out: &mut String, stopping: StoppingPolicy) {
    out.push_str(match stopping {
        StoppingPolicy::Staged => "\"staged\"",
        StoppingPolicy::Sequential => "\"sequential\"",
    });
}

/// Parses the stopping-policy string [`write_stopping_json`] renders.
///
/// # Errors
///
/// [`ReportParseError`] on a non-string or an unknown policy name.
pub fn stopping_from_json(doc: &Json) -> Result<StoppingPolicy, ReportParseError> {
    match doc.as_str()? {
        "staged" => Ok(StoppingPolicy::Staged),
        "sequential" => Ok(StoppingPolicy::Sequential),
        other => Err(ReportParseError::doc(format!(
            "unknown stopping policy {other:?}"
        ))),
    }
}

/// Bytes [`lot_json`] reserves up front: a little above what typical
/// reports render to (about 265 bytes per Bode point and 165 per device
/// besides its points), so a lot document is written into one allocation
/// instead of growing by doubling. Capacity that is never written stays
/// untouched, so the slack does not count towards resident memory.
fn lot_json_capacity(report: &LotReport) -> usize {
    const HEADER: usize = 256;
    const PER_MASK_POINT: usize = 96;
    const PER_STAGE: usize = 256;
    const PER_DEVICE: usize = 256;
    const PER_POINT: usize = 288;
    let devices: usize = report
        .devices()
        .iter()
        .map(|d| PER_DEVICE + PER_POINT * d.plot.len())
        .sum();
    HEADER
        + PER_MASK_POINT * report.mask().points().len()
        + PER_STAGE * report.stages().len()
        + devices
}

/// Renders a lot report as a JSON document (schema `netan.lot.v5`): the
/// stopping policy, the shard provenance (`null` when unknown), the
/// mask, the verdict histogram, the yield enclosure (`null` for an
/// empty lot), the escalation budget ledger, the per-stage summaries
/// (each with the [`write_config_json`] configuration that measured it
/// and its per-device charge `device_time_s`), and per-device verdict,
/// final stage, f0/Q fit and full point set.
pub fn lot_json(report: &LotReport) -> String {
    let mut out = String::with_capacity(lot_json_capacity(report));
    out.push_str("{\"schema\":\"netan.lot.v5\",\"stopping\":");
    write_stopping_json(&mut out, report.stopping());
    out.push_str(",\"shard\":");
    match report.shard() {
        Some(s) => {
            let _ = write!(out, "{{\"seed_start\":{},\"seed_end\":{}}}", s.start, s.end);
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"mask\":");
    write_mask_json(&mut out, report.mask());
    out.push_str(",\"counts\":");
    json_counts(&mut out, &report.counts());
    out.push_str(",\"yield\":");
    match report.yield_bounds() {
        Some((ylo, yhi)) => {
            out.push_str("{\"lo\":");
            json_f64(&mut out, ylo);
            out.push_str(",\"hi\":");
            json_f64(&mut out, yhi);
            out.push('}');
        }
        // An empty lot has no yield — not a 0 % one.
        None => out.push_str("null"),
    }
    out.push_str(",\"budget\":{\"limit_s\":");
    match report.budget() {
        Some(b) => json_f64(&mut out, b.value()),
        None => out.push_str("null"),
    }
    out.push_str(",\"spent_s\":");
    json_f64(&mut out, report.spent().value());
    let _ = write!(out, ",\"exhausted\":{}}}", report.budget_exhausted());
    out.push_str(",\"stages\":[");
    for (i, s) in report.stages().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"stage\":{},\"config\":", s.stage);
        write_config_json(&mut out, &s.config);
        let _ = write!(out, ",\"tested\":{},\"time_s\":", s.tested);
        json_f64(&mut out, s.time.value());
        out.push_str(",\"device_time_s\":");
        json_f64(&mut out, s.device_time.value());
        out.push_str(",\"counts\":");
        json_counts(&mut out, &s.counts);
        out.push('}');
    }
    out.push_str("],\"devices\":[");
    for (i, d) in report.devices().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seed\":{},\"verdict\":\"{}\",\"stage\":{},\"fit\":",
            d.seed,
            verdict_str(d.verdict),
            d.stage
        );
        match d.fit {
            Some(fit) => {
                out.push_str("{\"gain\":");
                json_f64(&mut out, fit.gain);
                out.push_str(",\"f0_hz\":");
                json_f64(&mut out, fit.f0.value());
                out.push_str(",\"q\":");
                json_f64(&mut out, fit.q);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"cutoff_hz\":");
        match d.plot.cutoff_frequency() {
            Some(f) => json_f64(&mut out, f.value()),
            None => out.push_str("null"),
        }
        // Lot points carry no per-point round field.
        out.push_str(",\"points\":");
        json_points(&mut out, d.plot.points(), false);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn parse_bounded(j: &Json) -> Result<Bounded, ReportParseError> {
    // Constructed as a literal, not via `Bounded::new`: a `null` bound
    // reads back as NaN, which the ordering assert would reject.
    Ok(Bounded {
        lo: j.field("lo")?.as_f64()?,
        est: j.field("est")?.as_f64()?,
        hi: j.field("hi")?.as_f64()?,
    })
}

fn parse_device(d: &Json) -> Result<DeviceReport, ReportParseError> {
    let verdict = match d.field("verdict")?.as_str()? {
        "pass" => SpecVerdict::Pass,
        "fail" => SpecVerdict::Fail,
        "ambiguous" => SpecVerdict::Ambiguous,
        other => {
            return Err(ReportParseError::doc(format!("unknown verdict {other:?}")));
        }
    };
    let fit = match d.field("fit")? {
        Json::Null => None,
        f => Some(LowpassFit {
            gain: f.field("gain")?.as_f64()?,
            f0: Hertz(f.field("f0_hz")?.as_f64()?),
            q: f.field("q")?.as_f64()?,
        }),
    };
    let mut points = Vec::new();
    for p in d.field("points")?.as_arr()? {
        let gain_db = parse_bounded(p.field("gain_db")?)?;
        // Lot documents serialize the dB enclosure only; the linear
        // gain is rebuilt from it. Derived JSON fields (cutoff, worst
        // error) use the dB side, so re-rendering stays byte-exact; the
        // f0/Q fit — which does use linear gains — is parsed above, not
        // recomputed.
        let db_to_lin = |db: f64| 10f64.powf(db / 20.0);
        points.push(BodePoint {
            frequency: Hertz(p.field("freq_hz")?.as_f64()?),
            gain: Bounded {
                lo: db_to_lin(gain_db.lo),
                est: db_to_lin(gain_db.est),
                hi: db_to_lin(gain_db.hi),
            },
            gain_db,
            phase_deg: parse_bounded(p.field("phase_deg")?)?,
            ideal_gain_db: p.field("ideal_gain_db")?.as_f64()?,
            ideal_phase_deg: p.field("ideal_phase_deg")?.as_f64()?,
            round: 0,
        });
    }
    Ok(DeviceReport {
        seed: d.field("seed")?.as_int("seed")?,
        plot: BodePlot::new(points),
        verdict,
        fit,
        stage: d.field("stage")?.as_int("stage")?,
    })
}

/// Parses a `netan.lot.v5` JSON document — the exact inverse of
/// [`lot_json`] for every serialized field.
///
/// Derived fields are recomputed, not read: the report's `counts`,
/// `yield` and `spent_s`, each device's `cutoff_hz`, and each stage's
/// `stage`, `tested`, `counts` and `time_s`, which
/// [`LotReport::stages`] reads off the devices (a stage contributes only
/// its `config` and `device_time_s`). Combined with shortest-round-trip
/// number formatting, re-rendering a document [`lot_json`] wrote
/// reproduces it **byte for byte**; one whose derived fields were edited
/// re-renders to other bytes. The per-point linear `gain` enclosure is
/// not serialized and is rebuilt from the dB enclosure; the f0/Q `fit`
/// is parsed verbatim, never refitted.
///
/// # Errors
///
/// [`ReportParseError`] on malformed JSON, any schema other than
/// `netan.lot.v5`, or a missing/mistyped field or invalid mask point,
/// with the byte offset where the parser stopped.
pub fn parse_lot_json(text: &str) -> Result<LotReport, ReportParseError> {
    let doc = Json::parse(text)?;
    lot_report_from_json(&doc)
}

/// Interprets an already-parsed [`Json`] document as a lot report.
///
/// This is [`parse_lot_json`] minus the text parsing step; it exists so
/// callers that embed a `netan.lot.v5` document inside a larger frame
/// (e.g. the `netan.job.v1` service protocol) can hand over the nested
/// value without re-rendering it to text first.
///
/// # Errors
///
/// [`ReportParseError`] on any schema other than `netan.lot.v5` or a
/// missing/mistyped field (offset 0: interpretation happens after
/// parsing).
pub fn lot_report_from_json(doc: &Json) -> Result<LotReport, ReportParseError> {
    let schema = doc.field("schema")?.as_str()?;
    if schema != "netan.lot.v5" {
        return Err(ReportParseError::doc(format!(
            "unsupported schema {schema:?} (expected netan.lot.v5)"
        )));
    }

    let mask = mask_from_json(doc.field("mask")?)?;
    let mut devices = Vec::new();
    for d in doc.field("devices")?.as_arr()? {
        devices.push(parse_device(d)?);
    }

    let mut stages = Vec::new();
    for s in doc.field("stages")?.as_arr()? {
        stages.push((
            config_from_json(s.field("config")?)?,
            Seconds(s.field("device_time_s")?.as_f64()?),
        ));
    }
    let budget = doc.field("budget")?;
    let limit = match budget.field("limit_s")? {
        Json::Null => None,
        b => Some(Seconds(b.as_f64()?)),
    };
    let stopping = stopping_from_json(doc.field("stopping")?)?;
    let mut report = LotReport::new(mask, devices)
        .with_stages(stages)
        .with_budget(limit, budget.field("exhausted")?.as_bool()?)
        .with_stopping(stopping);
    if let shard @ Json::Obj(_) = doc.field("shard")? {
        report = report.with_shard(
            shard.field("seed_start")?.as_int("seed")?..shard.field("seed_end")?.as_int("seed")?,
        );
    }
    Ok(report)
}

/// Renders a distortion report (the read-offs of paper Fig. 10c).
pub fn distortion_table(report: &DistortionReport) -> String {
    let mut out = String::new();
    let fund = report.fundamental();
    let _ = writeln!(
        out,
        "fundamental: {:.4} V  [{:.4}, {:.4}]",
        fund.est, fund.lo, fund.hi
    );
    for m in &report.measurements()[1..] {
        // A harmonic index below 2, or a fundamental whose enclosure
        // reaches zero, has no dBc level to render.
        let Some(hd) = report.hd_dbc(m.k) else {
            continue;
        };
        let _ = writeln!(
            out,
            "H{}: {:>7.2} dBc  [{:>7.2}, {:>7.2}]   ({:.3} mV)",
            m.k,
            hd.est,
            hd.lo,
            hd.hi,
            m.amplitude.est * 1e3,
        );
    }
    let _ = writeln!(out, "THD: {:.2} dB", report.thd_db());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::BodePoint;
    use sdeval::{Bounded, HarmonicMeasurement, SignaturePair};

    fn plot() -> BodePlot {
        BodePlot::new(vec![BodePoint {
            frequency: Hertz(1000.0),
            gain: Bounded::new(0.7, 0.707, 0.72),
            gain_db: Bounded::new(-3.1, -3.01, -2.9),
            phase_deg: Bounded::new(-91.0, -90.0, -89.0),
            ideal_gain_db: -3.01,
            ideal_phase_deg: -90.0,
            round: 0,
        }])
    }

    #[test]
    fn table_contains_values() {
        let t = bode_table(&plot());
        assert!(t.contains("1000.0"));
        assert!(t.contains("-3.01"));
        assert!(t.contains("-90.00"));
    }

    #[test]
    fn csv_round_trips_fields() {
        let c = bode_csv(&plot());
        let mut lines = c.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 10);
        assert!(header.ends_with(",round"));
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), 10);
        assert!(row.starts_with("1000"));
        assert!(row.ends_with(",0"));
    }

    /// Stage 0 on ideal hardware at M = 50, stage 1 on seeded CMOS
    /// hardware at M = 200 with another amplitude and warm-up, so the
    /// stage records exercise every field of the configuration codec.
    fn synthetic_lot() -> LotReport {
        use crate::lot::DeviceReport;
        use crate::spec::{GainMask, MaskPoint};
        use crate::sweep::LowpassFit;
        let mask = GainMask::new()
            .with_point(MaskPoint::new(Hertz(100.0), -1.0, 1.0))
            .with_point(MaskPoint::new(Hertz(1000.0), -4.5, -1.5));
        let device =
            |seed: u64, verdict: SpecVerdict, fit: Option<LowpassFit>, stage: usize| DeviceReport {
                seed,
                plot: plot(),
                verdict,
                fit,
                stage,
            };
        let fit = LowpassFit {
            gain: 1.0,
            f0: Hertz(1000.0),
            q: 0.72,
        };
        let deep = AnalyzerConfig {
            warmup_periods: 10,
            ..AnalyzerConfig::cmos_035um(7)
                .with_periods(200)
                .with_va_diff(Volts(0.125))
        };
        LotReport::new(
            mask,
            vec![
                device(0, SpecVerdict::Pass, Some(fit), 0),
                device(1, SpecVerdict::Ambiguous, Some(fit), 1),
                device(2, SpecVerdict::Fail, None, 0),
            ],
        )
        .with_stages(vec![
            (AnalyzerConfig::ideal().with_periods(50), Seconds(0.25)),
            (deep, Seconds(0.25)),
        ])
        .with_budget(Some(Seconds(2.0)), true)
    }

    #[test]
    fn lot_table_lists_devices_stages_and_yield() {
        let t = lot_table(&synthetic_lot());
        assert!(t.contains("verdict"));
        assert!(t.contains("stage"));
        assert!(t.contains("ambiguous"));
        assert!(t.contains("1 pass, 1 fail, 1 ambiguous"));
        assert!(t.contains("yield: [33.3%, 66.7%]"));
        assert!(t.contains("stage 0 (M = 50): 3 tested"));
        assert!(t.contains("stage 1 (M = 200): 1 tested"));
        assert!(t.contains("budget: spent 1.000 s of 2.000 s (exhausted before the schedule)"));
        // One header + three devices + histogram + yield + two stage
        // lines + budget line.
        assert_eq!(t.lines().count(), 9);
    }

    #[test]
    fn lot_table_without_stage_accounting_stays_compact() {
        let report = LotReport::new(crate::spec::GainMask::new(), Vec::new());
        let t = lot_table(&report);
        assert!(t.contains("yield: n/a (empty lot)"));
        assert!(!t.contains("budget:"));
        // Header + histogram + yield only.
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn lot_csv_layout_is_stable() {
        let c = lot_csv(&synthetic_lot());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "seed,verdict,fit_gain,fit_f0_hz,fit_q,cutoff_hz,worst_gain_err_db,stage,periods,test_time_s,stage_times_s,shard"
        );
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), 12, "row {row}");
        }
        // The fit-less device renders empty fit columns and carries its
        // stage-0 provenance in the trailing columns; no shard
        // provenance renders an empty trailing cell.
        assert!(lines[3].starts_with("2,fail,,,"));
        assert!(lines[3].ends_with(",0,50,0.25,0.25,"));
        // The escalated device reports stage 1, its cumulative time and
        // the `;`-joined per-stage charges, all read off the stage list.
        assert!(lines[2].ends_with(",1,200,0.5,0.25;0.25,"));
    }

    #[test]
    fn lot_csv_shard_column_carries_the_seed_range() {
        let report = synthetic_lot().with_shard(0..3);
        let c = lot_csv(&report);
        for row in c.lines().skip(1) {
            assert!(row.ends_with(",0..3"), "row {row}");
        }
    }

    #[test]
    fn lot_table_shard_footer_lines() {
        let plain = lot_table(&synthetic_lot());
        assert!(!plain.contains("shard:"));
        let t = lot_table(&synthetic_lot().with_shard(0..3));
        assert!(t.ends_with("shard: seeds [0, 3)\n"), "{t}");
        // Header + 3 devices + histogram + yield + 2 stages + budget +
        // shard footer.
        assert_eq!(t.lines().count(), 10);
    }

    #[test]
    fn device_provenance_is_read_off_the_stage_list() {
        // A device's `M` and charges come from the stages up to its own;
        // a report that recorded no such stage renders them empty.
        let t = lot_table(&synthetic_lot());
        let row = |seed: &str| {
            t.lines()
                .find(|l| l.trim_start().starts_with(seed))
                .unwrap()
                .split_whitespace()
                .take(5)
                .collect::<Vec<_>>()
        };
        assert_eq!(row("1 "), ["1", "ambiguous", "1", "200", "0.500"]);
        assert_eq!(row("2 "), ["2", "fail", "0", "50", "0.250"]);
        let lot = synthetic_lot();
        let bare = LotReport::new(lot.mask().clone(), lot.devices().to_vec());
        let rows: Vec<String> = lot_csv(&bare).lines().skip(1).map(String::from).collect();
        assert!(rows[1].ends_with(",1,,0,,"), "{}", rows[1]);
        assert!(lot_table(&bare).contains("ambiguous      1      -     0.000"));
    }

    #[test]
    fn bode_json_is_self_describing() {
        let j = bode_json(&plot());
        assert!(j.starts_with("{\"schema\":\"netan.bode.v2\""));
        assert!(j.contains("\"freq_hz\":1000"));
        assert!(j.contains("\"gain_db\":{\"lo\":-3.1,\"est\":-3.01,\"hi\":-2.9}"));
        assert!(j.contains("\"round\":0"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn lot_json_points_carry_no_round_field() {
        // Lot points still omit the per-point adaptive provenance.
        let j = lot_json(&synthetic_lot());
        assert!(j.starts_with("{\"schema\":\"netan.lot.v5\""));
        assert!(!j.contains("\"round\":"));
    }

    #[test]
    fn lot_json_carries_mask_counts_stages_and_devices() {
        let j = lot_json(&synthetic_lot());
        assert!(j.starts_with(
            "{\"schema\":\"netan.lot.v5\",\"stopping\":\"staged\",\"shard\":null,\"mask\":["
        ));
        assert!(j.contains("\"counts\":{\"pass\":1,\"fail\":1,\"ambiguous\":1}"));
        assert!(j.contains("\"verdict\":\"ambiguous\""));
        assert!(j.contains("\"fit\":null"));
        assert!(j.contains("\"min_db\":-4.5"));
        // v2: budget ledger, per-stage summaries, per-device provenance.
        assert!(j.contains("\"budget\":{\"limit_s\":2,\"spent_s\":1,\"exhausted\":true}"));
        // v3: each stage's per-device charge; v5: the configuration
        // that measured it.
        assert!(j.contains(
            "\"stages\":[{\"stage\":0,\"config\":{\"periods\":50,\"warmup_periods\":40,\
             \"va_diff_v\":0.15,\"hardware\":\"ideal\"},\"tested\":3,\"time_s\":0.75,\
             \"device_time_s\":0.25"
        ));
        assert!(j.contains(
            "{\"stage\":1,\"config\":{\"periods\":200,\"warmup_periods\":10,\
             \"va_diff_v\":0.125,\"hardware\":{\"cmos_035um\":{\"seed\":7}}},\"tested\":1,\
             \"time_s\":0.25,\"device_time_s\":0.25"
        ));
        // v5: a device records only what was measured.
        assert!(j.contains("\"seed\":1,\"verdict\":\"ambiguous\",\"stage\":1,\"fit\":{"));
        for dropped in [
            "\"periods\":50,\"test",
            "test_time_s",
            "stage_times_s",
            "complete",
        ] {
            assert!(!j.contains(dropped), "{dropped}");
        }
        assert_eq!(j.matches("\"seed\":").count(), 3 + 1);
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn lot_json_shard_provenance_round_trips() {
        let report = synthetic_lot().with_shard(4..9);
        let j = lot_json(&report);
        assert!(j.contains("\"shard\":{\"seed_start\":4,\"seed_end\":9},"));
        let parsed = parse_lot_json(&j).expect("own output parses");
        assert_eq!(parsed.shard(), report.shard());
        assert_eq!(lot_json(&parsed), j);
    }

    #[test]
    fn lot_json_renders_golden_lots_into_one_allocation() {
        for golden in [
            include_str!("../../../tests/fixtures/lot_small.json"),
            include_str!("../../../tests/fixtures/lot_escalated.json"),
        ] {
            let report = parse_lot_json(golden).expect("golden fixture parses");
            let reserved = lot_json_capacity(&report);
            let j = lot_json(&report);
            assert_eq!(j, golden.trim_end());
            // Fits the reservation, so it was never grown, and the
            // slack stays modest.
            assert!(j.len() <= reserved, "{reserved} vs {}", j.len());
            assert!(reserved < j.len() * 5 / 4, "{reserved} vs {}", j.len());
        }
    }

    #[test]
    fn parse_lot_json_reproduces_the_document_byte_for_byte() {
        let report = synthetic_lot();
        let j = lot_json(&report);
        let parsed = parse_lot_json(&j).expect("own output parses");
        assert_eq!(lot_json(&parsed), j);
        // Everything serialized is reconstructed exactly.
        assert_eq!(parsed.stages(), report.stages());
        assert_eq!(parsed.budget(), report.budget());
        assert_eq!(parsed.budget_exhausted(), report.budget_exhausted());
        assert_eq!(parsed.mask(), report.mask());
        assert_eq!(parsed.len(), report.len());
        for (p, d) in parsed.devices().iter().zip(report.devices()) {
            assert_eq!(p.seed, d.seed);
            assert_eq!(p.verdict, d.verdict);
            assert_eq!(p.fit, d.fit);
            assert_eq!(p.stage, d.stage);
            for (pp, dp) in p.plot.points().iter().zip(d.plot.points()) {
                assert_eq!(pp.gain_db, dp.gain_db);
                assert_eq!(pp.phase_deg, dp.phase_deg);
                assert_eq!(pp.frequency, dp.frequency);
            }
        }
    }

    #[test]
    fn parse_lot_json_accepts_only_the_schema_lot_json_writes() {
        let v5 = lot_json(&synthetic_lot());
        assert!(parse_lot_json(&v5).is_ok());
        for version in ["v1", "v2", "v3", "v4", "v6"] {
            let doc = v5.replacen("netan.lot.v5", &format!("netan.lot.{version}"), 1);
            let err = parse_lot_json(&doc).unwrap_err();
            assert!(err.to_string().contains("netan.lot.v5"), "{version}: {err}");
        }
    }

    #[test]
    fn parse_lot_json_refuses_a_mask_point_the_constructor_refuses() {
        // The decoder builds mask points by struct literal, so it checks
        // them with `MaskPoint::new`'s own predicate.
        let j = lot_json(&synthetic_lot());
        let point = "{\"freq_hz\":100,\"min_db\":-1,\"max_db\":1}";
        assert!(j.contains(point));
        for (bad, why) in [
            (
                "{\"freq_hz\":100,\"min_db\":1,\"max_db\":-1}",
                "limits inverted",
            ),
            (
                "{\"freq_hz\":100,\"min_db\":null,\"max_db\":1}",
                "limits inverted",
            ),
            (
                "{\"freq_hz\":0,\"min_db\":-1,\"max_db\":1}",
                "positive and finite",
            ),
        ] {
            let err = parse_lot_json(&j.replacen(point, bad, 1)).unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains("mask point 0") && message.contains(why),
                "{bad}: {message}"
            );
        }
    }

    #[test]
    fn lot_json_sequential_stopping_round_trips() {
        let report = synthetic_lot().with_stopping(crate::lot::StoppingPolicy::Sequential);
        let j = lot_json(&report);
        assert!(j.starts_with("{\"schema\":\"netan.lot.v5\",\"stopping\":\"sequential\""));
        let parsed = parse_lot_json(&j).expect("own output parses");
        assert_eq!(parsed.stopping(), crate::lot::StoppingPolicy::Sequential);
        assert_eq!(lot_json(&parsed), j);
        // The table names the policy only when it is the non-default.
        assert!(lot_table(&report).contains("stopping: sequential"));
        assert!(!lot_table(&synthetic_lot()).contains("stopping:"));
    }

    #[test]
    fn parse_lot_json_rejects_malformed_documents() {
        let bad = [
            "",
            "{",
            "nope",
            r#"{"schema":"netan.bode.v2"}"#,
            r#"{"schema":"netan.lot.v5"}"#,
            r#"{"schema":"netan.lot.v5","shard":null,"mask":[],"devices":[]} trailing"#,
        ];
        for doc in bad {
            assert!(parse_lot_json(doc).is_err(), "accepted: {doc:?}");
        }
        let err = parse_lot_json(
            r#"{"schema":"netan.lot.v5","mask":[],"devices":[{"seed":0,"verdict":"maybe","fit":null,"points":[]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown verdict"), "{err}");
        let err = parse_lot_json(r#"{"schema":"netan.lot.v9"}"#).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"));
    }

    #[test]
    fn parse_lot_json_null_reads_back_as_nan_and_rerenders_null() {
        // A NaN phase bound rendered as null must survive a full
        // parse → re-render cycle. The synthetic lot's points are all
        // finite, so the null is patched in JSON space.
        let j = lot_json(&synthetic_lot()).replace("\"est\":-90,", "\"est\":null,");
        let parsed = parse_lot_json(&j).expect("null bound parses");
        assert!(parsed.devices()[0].plot.points()[0].phase_deg.est.is_nan());
        assert_eq!(lot_json(&parsed), j);
    }

    #[test]
    fn lot_json_empty_lot_renders_null_yield() {
        let report = LotReport::new(crate::spec::GainMask::new(), Vec::new());
        let j = lot_json(&report);
        assert!(j.contains("\"yield\":null"));
        assert!(j.contains("\"counts\":{\"pass\":0,\"fail\":0,\"ambiguous\":0}"));
        assert!(j.contains("\"budget\":{\"limit_s\":null,\"spent_s\":0,\"exhausted\":false}"));
        assert!(j.contains("\"stages\":[]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn non_finite_values_render_as_null() {
        let mut s = String::new();
        json_f64(&mut s, f64::NAN);
        s.push(',');
        json_f64(&mut s, f64::INFINITY);
        s.push(',');
        json_f64(&mut s, 1.5);
        assert_eq!(s, "null,null,1.5");
    }

    #[test]
    fn distortion_table_lists_harmonics() {
        let mk = |k: u32, a: f64| HarmonicMeasurement {
            k,
            amplitude: Bounded::new(a * 0.99, a, a * 1.01),
            phase: Bounded::point(0.0),
            signatures: SignaturePair {
                i1: 0.0,
                i2: 0.0,
                m: 2,
                n: 96,
                k,
            },
            samples_consumed: 0,
        };
        let r = DistortionReport::new(vec![mk(1, 0.2), mk(2, 0.0002)]);
        let t = distortion_table(&r);
        assert!(t.contains("fundamental"));
        assert!(t.contains("H2"));
        assert!(t.contains("THD"));
    }
}
