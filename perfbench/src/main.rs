//! The repository benchmark: screening workloads driven through the
//! public APIs of `netan`, `netan-serve` and the sample-pipeline crates,
//! with every output checked.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload screen_cmos --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports per-layer metrics. Either way the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`, and the command exits
//! non-zero when any correctness check fails.

mod counts;
mod host;
mod inputs;
mod layers;
mod lot;
mod serve;
mod stats;
mod trace;

use counts::Counts;
use host::Host;
use inputs::Workload;
use layers::LAYER_METRICS;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;
/// Jobs every timed loop completes, however short `--seconds` is.
pub const MIN_JOBS: u64 = 3;

/// The command line.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or("--seconds takes a positive number")?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Latency of each timed job.
    pub job_ms: Vec<f64>,
    /// Devices screened by the timed jobs, and the host seconds they took.
    pub devices: u64,
    pub busy_s: f64,
    /// Deterministic counts of the workload's whole input set.
    pub counts: Counts,
    /// Peak resident memory through set-up and the timed loop, before
    /// the untimed checks allocate their references.
    pub peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Per-layer metrics of the traced run.
    pub layers: Vec<(&'static str, f64)>,
    /// The traced run's span summaries, printed when the run ends.
    pub spans: Vec<String>,
}

impl Outcome {
    /// Records one operation or check that failed.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failures.push(why);
    }

    /// Records one operation or check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    pub fn record_job(&mut self, seconds: f64, devices: u64) {
        self.job_ms.push(seconds * 1e3);
        self.busy_s += seconds;
        self.devices += devices;
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Tracing overhead from the traced and untraced jobs of one run,
    /// each given as (host seconds, devices).
    pub fn set_trace_overhead(&mut self, traced: (f64, u64), untraced: (f64, u64)) {
        let rate = |(s, n): (f64, u64)| n as f64 / s;
        self.layer(
            "bench.trace_overhead_frac",
            1.0 - rate(traced) / rate(untraced),
        );
    }
}

/// The end-to-end metrics, in output order: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("devices_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    // Simulated tester seconds, deterministic per input: not host time.
    ("sim_s_per_device", "sim_s"),
    ("decided_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64)> {
    let c = &out.counts;
    let values = [
        stats::median(&out.setup_s).unwrap_or(0.0),
        out.devices as f64 / out.busy_s,
        stats::percentile(&out.job_ms, 50.0).unwrap_or(0.0),
        stats::percentile(&out.job_ms, 90.0).unwrap_or(0.0),
        c.per_device(c.spent_s),
        1.0 - c.per_device(c.ambiguous as f64),
        out.peak_rss_mb.unwrap_or(0.0),
    ];
    END_TO_END
        .iter()
        .map(|&(name, _)| name)
        .zip(values)
        .collect()
}

fn json_line(out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let run = match Run::parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <screen_cmos|escalate_seq|serve_tcp> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let workers = match run.workload {
        Workload::ServeTcp => inputs::SERVE_WORKERS,
        _ => netan::LotEngine::auto().threads(),
    };
    println!(
        "host revision={} nproc={} workers={} spin_one_s={:.4} spin_two_s={:.4} parallel_capacity={:.2}",
        host.revision,
        host.nproc,
        workers,
        host.spin_one_s,
        host.spin_two_s,
        host.parallel_capacity()
    );

    let mut out = Outcome::default();
    match run.workload {
        Workload::ScreenCmos | Workload::EscalateSeq => lot::run(run.workload, &run, &mut out),
        Workload::ServeTcp => serve::run(&run, &mut out),
    }

    println!("counts {}", out.counts.render());
    let e2e = end_to_end(&out);
    for (&(name, unit), (_, value)) in END_TO_END.iter().zip(&e2e) {
        println!("metric {name} {value} {unit}");
    }
    let c = &out.counts;
    println!(
        "metric ambiguous_frac {} frac",
        c.per_device(c.ambiguous as f64)
    );
    println!(
        "metric failed_frac {} frac",
        out.failures.len() as f64 / out.attempted.max(1) as f64
    );
    let setup_us: Vec<f64> = out.setup_s.iter().map(|s| s * 1e6).collect();
    println!(
        "setup n={} min_us={:.1} median_us={:.1} max_us={:.1}",
        setup_us.len(),
        stats::percentile(&setup_us, 0.1).unwrap_or(0.0),
        stats::median(&setup_us).unwrap_or(0.0),
        stats::percentile(&setup_us, 100.0).unwrap_or(0.0)
    );
    let n = out.job_ms.len();
    println!(
        "jobs n={n} tail_rule={} (highest percentile with >= {} samples beyond it)",
        stats::tail_percentile(n).map_or("none".to_string(), |p| format!("p{p}")),
        stats::MIN_BEYOND
    );

    let metrics: Vec<(&str, f64, &str)> = if run.trace {
        layers::count_layers(&mut out);
        LAYER_METRICS
            .iter()
            .map(|m| {
                let value = out
                    .layers
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map(|&(_, v)| v);
                if value.is_none() {
                    out.failures
                        .push(format!("layer metric {} was not measured", m.name));
                }
                let value = value.unwrap_or(0.0);
                println!(
                    "layer {} {value} {} better={} moves: {}",
                    m.name, m.unit, m.better, m.moves
                );
                (m.name, value, m.unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(&(name, unit), &(_, value))| (name, value, unit))
            .collect()
    };
    for line in &out.spans {
        println!("{line}");
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!("{}", json_line(&out, &metrics));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netan::Json;

    /// The `fields` of every entry of the list `key`, as strings.
    fn entries(doc: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        doc.field(key)
            .and_then(Json::as_arr)
            .expect("list")
            .iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|&f| {
                        m.field(f)
                            .and_then(Json::as_str)
                            .expect("string")
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u)| vec![n.to_string(), u.to_string()])
            .collect();
        assert_eq!(entries(&doc, "end_to_end", &["name", "unit"]), e2e);
        let layers: Vec<_> = LAYER_METRICS
            .iter()
            .map(|m| vec![m.name.to_string(), m.unit.to_string(), m.better.to_string()])
            .collect();
        assert_eq!(
            entries(&doc, "per_layer", &["name", "unit", "better"]),
            layers
        );
        let workloads: Vec<_> = Workload::ALL
            .iter()
            .map(|w| vec![w.name().to_string()])
            .collect();
        assert_eq!(entries(&doc, "workloads", &["name"]), workloads);
    }

    #[test]
    fn the_result_line_is_json_with_the_contract_keys() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        let line = json_line(
            &out,
            &[("setup_s", 0.25, "s"), ("devices_per_s", f64::NAN, "1/s")],
        );
        let doc = Json::parse(&line).expect("result line parses");
        assert!(doc
            .field("correct")
            .and_then(Json::as_bool)
            .expect("correct"));
        assert_eq!(
            doc.field("attempted")
                .and_then(|v| v.as_int::<u64>("n"))
                .ok(),
            Some(1)
        );
        let setup = doc
            .field("metrics")
            .and_then(|m| m.field("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.field("value").and_then(Json::as_f64).ok(), Some(0.25));
    }

    #[test]
    fn the_command_line_takes_the_contract_flags() {
        let args = "--workload serve_tcp --seed 9 --seconds 2.5 --trace 1";
        let run = Run::parse(args.split(' ').map(String::from)).expect("parses");
        assert_eq!(
            (run.workload, run.seed, run.seconds, run.trace),
            (Workload::ServeTcp, 9, 2.5, true)
        );
        assert!(Run::parse("--workload hit".split(' ').map(String::from)).is_err());
        assert!(Run::parse("--seed 1".split(' ').map(String::from)).is_err());
        assert!(Run::parse(
            "--workload serve_tcp --trace 2"
                .split(' ')
                .map(String::from)
        )
        .is_err());
    }
}
