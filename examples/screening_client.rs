//! A `netan.job.v1` client for the `netan-serve` screening service:
//! submits jobs over TCP, streams their shard progress, and (optionally)
//! proves the service honest by recomputing each lot in-process and
//! comparing the report bytes.
//!
//! Start a server, then drive it:
//!
//! ```sh
//! cargo run --release -p netan-serve --bin netan-serve -- --addr 127.0.0.1:7411 &
//! cargo run --release -p netan-serve --example screening_client -- \
//!     --addr 127.0.0.1:7411 --jobs 2 --devices 8 --shard 2 --verify
//! cargo run --release -p netan-serve --example screening_client -- \
//!     --addr 127.0.0.1:7411 --shutdown
//! ```
//!
//! `--jobs K` opens K concurrent connections, each submitting its own
//! seed range (job *i* screens seeds `[i*devices, (i+1)*devices)`), so
//! the shared shard pool interleaves them. `--verify` recomputes every
//! job after it completes — a monolithic
//! [`netan::LotEngine::run_escalated_range`] for unbudgeted jobs, an
//! in-memory [`netan::ShardDriver::drive`] with the same shard size for
//! budgeted ones (re-test admission follows the sequential shard ledger;
//! see the sharding notes in `netan::lot`) — and asserts
//! the `netan.lot.v5` documents are **byte-identical**. `--shutdown`
//! sends the graceful-shutdown frame instead of a job.

use dut::ActiveRcFilter;
use mixsig::units::Seconds;
use netan::{
    lot_json, AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan, LotReport,
    ShardDriver,
};
use netan_serve::{ClientFrame, DutDescription, JobRequest, ServerFrame};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const TOLERANCE: f64 = 0.05;
const LINEARIZED: bool = true;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut addr = String::from("127.0.0.1:7411");
    let mut devices: u64 = 8;
    let mut shard: u64 = 2;
    let mut jobs: u64 = 1;
    let mut budget: Option<f64> = None;
    let mut verify = false;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--devices" => devices = value("--devices").parse().expect("--devices: integer"),
            "--shard" => shard = value("--shard").parse().expect("--shard: integer"),
            "--jobs" => jobs = value("--jobs").parse().expect("--jobs: integer"),
            "--budget" => budget = Some(value("--budget").parse().expect("--budget: seconds")),
            "--verify" => verify = true,
            "--shutdown" => shutdown = true,
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }

    if shutdown {
        let mut stream = TcpStream::connect(&addr)?;
        stream.write_all(format!("{}\n", ClientFrame::Shutdown.render()).as_bytes())?;
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply)?;
        match ServerFrame::parse(reply.trim())? {
            ServerFrame::Bye => println!("server acknowledged shutdown"),
            other => panic!("expected bye, got {other:?}"),
        }
        return Ok(());
    }

    // One thread per job, each with its own connection — the server's
    // bounded shard pool interleaves them.
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let addr = addr.clone();
            let request = job_request(i * devices, (i + 1) * devices, shard, budget);
            std::thread::spawn(move || run_job(&addr, i, &request))
        })
        .collect();
    let mut failed = false;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.join().expect("client thread panicked") {
            Ok(report) => {
                println!(
                    "job {i}: {} devices screened, {:.1} s simulated test time",
                    report.len(),
                    report.spent().value()
                );
                if verify {
                    let reference =
                        recompute(i as u64 * devices, (i as u64 + 1) * devices, shard, budget);
                    assert_eq!(
                        lot_json(&report),
                        lot_json(&reference),
                        "job {i}: service report differs from the in-process reference"
                    );
                    println!("job {i}: byte-identical to the in-process reference ✓");
                }
            }
            Err(message) => {
                eprintln!("job {i} failed: {message}");
                failed = true;
            }
        }
    }
    if failed {
        return Err("at least one job failed".into());
    }
    Ok(())
}

fn job_request(seed_start: u64, seed_end: u64, shard: u64, budget: Option<f64>) -> JobRequest {
    let mut schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200]);
    if let Some(b) = budget {
        schedule = schedule.with_budget(Seconds(b));
    }
    JobRequest {
        dut: DutDescription {
            tolerance: TOLERANCE,
            linearized: LINEARIZED,
        },
        seed_start,
        seed_end,
        shard_devices: shard,
        plan: LotPlan::from_mask(GainMask::paper_lowpass()),
        schedule,
    }
}

/// Submits one job and streams its frames until the terminal one.
fn run_job(addr: &str, index: u64, request: &JobRequest) -> Result<LotReport, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let frame = ClientFrame::Submit(Box::new(request.clone()));
    writer
        .write_all(format!("{}\n", frame.render()).as_bytes())
        .map_err(|e| e.to_string())?;

    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| e.to_string())?;
        match ServerFrame::parse(line.trim()).map_err(|e| e.to_string())? {
            ServerFrame::Accepted { job, shards } => {
                println!("job {index}: accepted as #{job}, {shards} shards");
            }
            ServerFrame::Progress {
                seed_start,
                seed_end,
                done,
                total,
                devices,
                spent_s,
                resumed,
                ..
            } => {
                println!(
                    "job {index}: shard {seed_start}..{seed_end} {} ({done}/{total}, {devices} devices, {spent_s:.1} s)",
                    if resumed { "resumed" } else { "done" }
                );
            }
            ServerFrame::Retry {
                seed_start,
                seed_end,
                message,
                ..
            } => {
                println!(
                    "job {index}: shard {seed_start}..{seed_end} retried after panic: {message}"
                );
            }
            ServerFrame::Finished { report, .. } => return Ok(*report),
            ServerFrame::Rejected { error } => return Err(format!("rejected: {error:?}")),
            ServerFrame::Error { error, .. } => return Err(format!("failed: {error:?}")),
            ServerFrame::Bye => return Err("server said bye mid-job".to_string()),
        }
    }
    Err("connection closed before a terminal frame".to_string())
}

/// The in-process reference the service must match byte-for-byte.
fn recompute(seed_start: u64, seed_end: u64, shard: u64, budget: Option<f64>) -> LotReport {
    let request = job_request(seed_start, seed_end, shard, budget);
    let factory = |seed: u64| {
        let base = ActiveRcFilter::paper_dut();
        let base = if LINEARIZED { base.linearized() } else { base };
        base.fabricate(TOLERANCE, seed)
    };
    let engine = LotEngine::serial();
    if budget.is_some() {
        // Budgeted sharding threads the remaining budget shard by shard;
        // the reference is a drive, not a monolith.
        ShardDriver::new(
            seed_start..seed_end,
            shard,
            &request.plan,
            &request.schedule,
        )
        .expect("a non-empty lot")
        .drive(&engine, factory)
        .expect("reference drive")
    } else {
        engine
            .run_escalated_range(
                factory,
                seed_start..seed_end,
                &request.plan,
                &request.schedule,
            )
            .expect("reference lot run")
    }
}
