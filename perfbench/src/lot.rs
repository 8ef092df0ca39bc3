//! The lot workloads (`screen_cmos`, `escalate_seq`): a cycle of lots
//! screened again and again with `LotEngine::auto()`, one lot per job of
//! the closed loop.

use crate::counts::{digest, Counts};
use crate::host;
use crate::inputs::{fabricate, inputs, Workload};
use crate::layers::{self, Probe};
use crate::trace::Tracer;
use crate::{stats, Outcome, Run, MIN_JOBS, SETUP_REPS};
use netan::{lot_json, LotEngine, LotReport, NetanError};
use netan_serve::JobRequest;
use std::time::Instant;

/// Screens `job`'s seed range on `engine`: a plain run for a one-stage
/// schedule, an escalated run otherwise.
pub fn screen(engine: &LotEngine, job: &JobRequest) -> Result<LotReport, NetanError> {
    let factory = fabricate(job.dut.tolerance);
    let seeds = job.seed_start..job.seed_end;
    match job.schedule.stages() {
        [config] => engine.run_range(factory, seeds, &job.plan, *config),
        _ => engine.run_escalated_range(factory, seeds, &job.plan, &job.schedule),
    }
}

/// The first repetition of a lot: what every later one must reproduce.
struct First {
    json: String,
    digest: u64,
    counts: Counts,
}

pub fn run(workload: Workload, run: &Run, out: &mut Outcome) {
    // Set-up: inputs, plan, schedule and engine, built several times.
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let jobs = inputs(workload, run.seed);
        let engine = LotEngine::auto();
        out.setup_s.push(start.elapsed().as_secs_f64());
        built = Some((jobs, engine));
    }
    let (jobs, engine) = built.expect("at least one set-up");

    // The timed closed loop: one lot per job, cycling through the lots,
    // for whole cycles only, so every lot weighs the same. Traced runs
    // trace every other job, so the untraced ones give the tracing
    // overhead.
    let mut firsts: Vec<Option<First>> = jobs.iter().map(|_| None).collect();
    let mut first_lot_s = Vec::new();
    let mut tracer = Tracer::new();
    let (mut traced, mut untraced) = ((0.0, 0u64), (0.0, 0u64));
    let cycle = jobs.len() as u64;
    let start = Instant::now();
    let mut k = 0u64;
    while k < MIN_JOBS || !k.is_multiple_of(cycle) || start.elapsed().as_secs_f64() < run.seconds {
        let i = (k % cycle) as usize;
        let trace_job = run.trace && k % 2 == 1;
        k += 1;
        let span = trace_job.then(|| tracer.begin("netan.lot"));
        let t = Instant::now();
        let result = screen(&engine, &jobs[i]);
        let dt = t.elapsed().as_secs_f64();
        if let Some(id) = span {
            tracer.end(id);
        }
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.fail(format!("lot {k} failed: {e}"));
                continue;
            }
        };
        let json = if trace_job {
            tracer.span("netan.lot_json", |_| lot_json(&report))
        } else {
            lot_json(&report)
        };
        let range = jobs[i].seed_start..jobs[i].seed_end;
        let (d, counts) = (digest(&json), Counts::of(&report, &json, &[range]));
        let same = match &firsts[i] {
            Some(f) => f.digest == d && f.counts == counts,
            None => {
                firsts[i] = Some(First {
                    json,
                    digest: d,
                    counts,
                });
                true
            }
        };
        out.check(same, || {
            format!("lot {k} differs from its first repetition")
        });
        out.record_job(dt, report.len() as u64);
        if i == 0 {
            first_lot_s.push(dt);
        }
        let side = if trace_job {
            &mut traced
        } else {
            &mut untraced
        };
        side.0 += dt;
        side.1 += report.len() as u64;
    }

    out.peak_rss_mb = host::peak_rss_mb();

    // Untimed: every lot on the serial engine, byte for byte.
    let mut serial_first = None;
    for (job, first) in jobs.iter().zip(&firsts) {
        let start = Instant::now();
        let serial = screen(&LotEngine::serial(), job);
        let serial_s = start.elapsed().as_secs_f64();
        match (serial, first) {
            (Ok(serial), Some(first)) => {
                out.check(lot_json(&serial) == first.json, || {
                    format!(
                        "seeds {}..{}: LotEngine::auto() report differs from LotEngine::serial()",
                        job.seed_start, job.seed_end
                    )
                });
                out.counts.add(&first.counts);
                serial_first.get_or_insert((serial, serial_s));
            }
            (Err(e), _) => out.fail(format!("serial reference lot failed: {e}")),
            (Ok(_), None) => out.fail("a lot never completed".to_string()),
        }
    }

    if run.trace {
        out.set_trace_overhead(traced, untraced);
        out.spans.extend(tracer.summary("loop"));
        if let Some((reference, serial_s)) = &serial_first {
            layers::probe(
                Probe {
                    job: &jobs[0],
                    reference,
                    serial_s: *serial_s,
                    parallel_s: stats::median(&first_lot_s).unwrap_or(f64::NAN),
                    workers: engine.threads(),
                },
                out,
            );
        }
    }
}
