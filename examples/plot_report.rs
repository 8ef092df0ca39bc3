//! Regenerates fig10-style gain/phase data from `netan.*` JSON report
//! documents. Reads exactly the schemas the report sinks write:
//! `netan.bode.v2` (`bode_json`, with the per-point adaptive-refinement
//! `round`) and `netan.lot.v5` (`lot_json`); any other schema is
//! refused.
//!
//! ```sh
//! # CSV from a saved report (bode or lot schema is auto-detected):
//! cargo run --release --example plot_report -- report.json > bode.csv
//!
//! # No argument: measure the paper DUT, round-trip it through
//! # `bode_json`, and emit the CSV — a self-contained demo:
//! cargo run --release --example plot_report -- > bode.csv
//!
//! # A gnuplot script for the emitted CSV:
//! cargo run --release --example plot_report -- --gnuplot bode.csv
//! ```
//!
//! The CSV carries one row per measured point — frequency, the gain and
//! phase enclosures (lo/est/hi), and the analytic reference curve — which
//! is exactly what the paper's Fig. 10a/10b overlay. Lot documents emit
//! the same columns with a leading `seed` column, one block per device.

use netan::{
    bode_json, log_spaced, AnalyzerConfig, Json, LotEngine, NetworkAnalyzer, ReportParseError,
};

use std::fmt::Write as _;

// ---------------------------------------------------------------------
// CSV emission, read off the document with `netan::Json`: a missing or
// non-numeric field becomes a NaN cell, not an error.
// ---------------------------------------------------------------------

const POINT_COLUMNS: &str = "freq_hz,gain_db_lo,gain_db_est,gain_db_hi,\
                             phase_deg_lo,phase_deg_est,phase_deg_hi,\
                             ideal_gain_db,ideal_phase_deg,round";

fn num(v: Result<&Json, ReportParseError>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.field(key).and_then(Json::as_arr).unwrap_or_default()
}

fn push_point_row(out: &mut String, prefix: &str, p: &Json) {
    let bound = |enclosure: &str, side: &str| num(p.field(enclosure).and_then(|b| b.field(side)));
    // Lot points carry no refinement provenance: they are round-0
    // (fixed-grid) points.
    let round = p.field("round").and_then(Json::as_f64).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "{prefix}{},{},{},{},{},{},{},{},{},{}",
        num(p.field("freq_hz")),
        bound("gain_db", "lo"),
        bound("gain_db", "est"),
        bound("gain_db", "hi"),
        bound("phase_deg", "lo"),
        bound("phase_deg", "est"),
        bound("phase_deg", "hi"),
        num(p.field("ideal_gain_db")),
        num(p.field("ideal_phase_deg")),
        round,
    );
}

fn bode_csv(doc: &Json) -> String {
    let mut out = format!("{POINT_COLUMNS}\n");
    for p in items(doc, "points") {
        push_point_row(&mut out, "", p);
    }
    out
}

fn lot_csv_points(doc: &Json) -> String {
    let mut out = format!("seed,verdict,{POINT_COLUMNS}\n");
    for d in items(doc, "devices") {
        let seed = num(d.field("seed"));
        let verdict = d.field("verdict").and_then(Json::as_str).unwrap_or("?");
        for p in items(d, "points") {
            push_point_row(&mut out, &format!("{seed},{verdict},"), p);
        }
    }
    out
}

/// A gnuplot script reproducing the paper's Fig. 10a/10b presentation
/// from a CSV produced by this tool: measured enclosures as error bars
/// over the analytic reference curve.
fn gnuplot_script(csv: &str) -> String {
    format!(
        "set datafile separator ','\n\
         set logscale x\n\
         set xlabel 'frequency (Hz)'\n\
         set key left bottom\n\
         set terminal pngcairo size 900,700\n\
         set output 'fig10a_gain.png'\n\
         set ylabel 'gain (dB)'\n\
         plot '{csv}' skip 1 using 1:3:2:4 with yerrorbars title 'measured enclosure', \\\n\
         \x20    '{csv}' skip 1 using 1:8 with lines title 'analytic'\n\
         set output 'fig10b_phase.png'\n\
         set ylabel 'phase (deg)'\n\
         plot '{csv}' skip 1 using 1:6:5:7 with yerrorbars title 'measured enclosure', \\\n\
         \x20    '{csv}' skip 1 using 1:9 with lines title 'analytic'\n"
    )
}

/// Demo document: sweep the paper DUT and serialize it — the round trip
/// proves the consumer reads exactly what the sinks emit.
fn demo_document() -> String {
    let dut = dut::ActiveRcFilter::paper_dut().linearized();
    let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal().with_periods(100));
    let grid = log_spaced(
        mixsig::units::Hertz(100.0),
        mixsig::units::Hertz(20_000.0),
        13,
    );
    let plot = na
        .sweep_with(&LotEngine::auto(), &grid)
        .expect("demo sweep failed");
    bode_json(&plot)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, csv] = args.as_slice() {
        if flag == "--gnuplot" {
            print!("{}", gnuplot_script(csv));
            return;
        }
    }
    let text = match args.first().map(String::as_str) {
        None | Some("-") => demo_document(),
        Some(path) => {
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
    };
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON: {e}"));
    let schema = doc.field("schema").and_then(Json::as_str).unwrap_or("");
    let csv = match schema {
        "netan.bode.v2" => bode_csv(&doc),
        "netan.lot.v5" => lot_csv_points(&doc),
        other => panic!("unsupported schema {other:?} (expected netan.bode.v2 or netan.lot.v5)"),
    };
    print!("{csv}");
    eprintln!(
        "# {} rows from schema {schema}; next: `plot_report --gnuplot <csv>` for the fig10 script",
        csv.lines().count() - 1
    );
}
