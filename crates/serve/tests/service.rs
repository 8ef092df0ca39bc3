//! Integration tests for the screening service: byte-identity against
//! the in-process engines, fault containment, backpressure, budgets,
//! checkpoint resume, graceful shutdown, and the TCP round trip.

use dut::ActiveRcFilter;
use mixsig::units::{Seconds, Volts};
use netan::{
    lot_json, AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan, LotReport,
    NetanError, ShardDriver,
};
use netan_serve::{
    ClientFrame, DutDescription, FaultPlan, JobEvent, JobRequest, JobServer, ScreenService,
    ServeError, ServerFrame, ServiceConfig, WireError, MAX_CONNECTIONS, MAX_FRAME_BYTES,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::Receiver;
use std::time::Duration;

const TOL: f64 = 0.05;

fn request(seed_start: u64, seed_end: u64, shard: u64) -> JobRequest {
    JobRequest {
        dut: DutDescription {
            tolerance: TOL,
            linearized: true,
        },
        seed_start,
        seed_end,
        shard_devices: shard,
        plan: LotPlan::from_mask(GainMask::paper_lowpass()),
        schedule: EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 100]),
    }
}

fn factory(seed: u64) -> impl dut::Dut {
    ActiveRcFilter::paper_dut()
        .linearized()
        .fabricate(TOL, seed)
}

/// The unbudgeted reference: one monolithic escalated range run.
fn monolithic(request: &JobRequest) -> LotReport {
    LotEngine::serial()
        .run_escalated_range(
            factory,
            request.seed_start..request.seed_end,
            &request.plan,
            &request.schedule,
        )
        .expect("reference run")
}

struct Outcome {
    /// `(seed_start, seed_end, done, resumed)` per progress event, in
    /// delivery order.
    progress: Vec<(u64, u64, u64, bool)>,
    retries: Vec<(u64, u64)>,
    result: Result<LotReport, ServeError>,
}

fn drain(events: &Receiver<JobEvent>) -> Outcome {
    let mut progress = Vec::new();
    let mut retries = Vec::new();
    loop {
        match events.recv().expect("a terminal event before hangup") {
            JobEvent::Progress {
                seed_start,
                seed_end,
                done,
                resumed,
                ..
            } => progress.push((seed_start, seed_end, done, resumed)),
            JobEvent::Retry {
                seed_start,
                seed_end,
                ..
            } => retries.push((seed_start, seed_end)),
            JobEvent::Done(report) => {
                return Outcome {
                    progress,
                    retries,
                    result: Ok(*report),
                }
            }
            JobEvent::Failed(e) => {
                return Outcome {
                    progress,
                    retries,
                    result: Err(e),
                }
            }
        }
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("netan-serve-test-{tag}-{}", std::process::id()))
}

#[test]
fn merged_report_is_byte_identical_to_monolithic() {
    let service = ScreenService::start(ServiceConfig::new().with_workers(3));
    let job = request(0, 8, 2);
    let reference = monolithic(&job);
    let (_, events) = service.submit(job).expect("submit");
    let outcome = drain(&events);

    // Progress arrives in seed order no matter which worker finished
    // first, and the merged report matches the monolith byte for byte.
    assert_eq!(
        outcome.progress,
        vec![
            (0, 2, 1, false),
            (2, 4, 2, false),
            (4, 6, 3, false),
            (6, 8, 4, false)
        ]
    );
    assert!(outcome.retries.is_empty());
    let report = outcome.result.expect("job completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn zero_amplitude_job_fails_typed_without_a_retry() {
    // Regression: at `va_diff` 0 the calibrated stimulus enclosure
    // reaches zero; the worker used to panic on it twice, and the job
    // failed as `shard_panicked` after a retry.
    let service = ScreenService::start(ServiceConfig::new().with_workers(2));
    let job = JobRequest {
        schedule: EscalationSchedule::new(vec![AnalyzerConfig::ideal()
            .with_periods(50)
            .with_va_diff(Volts(0.0))]),
        ..request(0, 2, 2)
    };
    let (_, events) = service.submit(job).expect("submit");
    let outcome = drain(&events);
    assert!(outcome.retries.is_empty(), "{:?}", outcome.retries);
    assert_eq!(
        outcome.result.unwrap_err(),
        ServeError::Lot(NetanError::UnresolvedStimulus)
    );
    service.shutdown();
}

#[test]
fn two_concurrent_jobs_interleave_and_both_match() {
    let service = ScreenService::start(ServiceConfig::new().with_workers(2));
    let job_a = request(0, 6, 2);
    let job_b = request(10, 16, 3);
    let (id_a, events_a) = service.submit(job_a.clone()).expect("submit a");
    let (id_b, events_b) = service.submit(job_b.clone()).expect("submit b");
    assert_ne!(id_a, id_b);

    let outcome_a = drain(&events_a);
    let outcome_b = drain(&events_b);
    let report_a = outcome_a.result.expect("job a completes");
    let report_b = outcome_b.result.expect("job b completes");
    assert_eq!(lot_json(&report_a), lot_json(&monolithic(&job_a)));
    assert_eq!(lot_json(&report_b), lot_json(&monolithic(&job_b)));
    service.shutdown();
}

#[test]
fn killed_worker_is_retried_and_the_report_is_unchanged() {
    let service = ScreenService::start(
        ServiceConfig::new()
            .with_workers(2)
            .with_fault(FaultPlan::new(2, 1)),
    );
    let job = request(0, 8, 2);
    let reference = monolithic(&job);
    let (_, events) = service.submit(job).expect("submit");
    let outcome = drain(&events);

    assert_eq!(outcome.retries, vec![(2, 4)]);
    let report = outcome.result.expect("job survives one panic");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn double_fault_fails_the_job_but_not_its_sibling() {
    let service = ScreenService::start(
        ServiceConfig::new()
            .with_workers(2)
            .with_fault(FaultPlan::new(2, 2)),
    );
    let job_a = request(0, 6, 2);
    let job_b = request(10, 14, 2);
    let (_, events_a) = service.submit(job_a).expect("submit a");
    let (_, events_b) = service.submit(job_b.clone()).expect("submit b");

    let outcome_a = drain(&events_a);
    assert_eq!(outcome_a.retries, vec![(2, 4)]);
    match outcome_a.result {
        Err(ServeError::ShardPanicked {
            seed_start,
            seed_end,
            ref message,
        }) => {
            assert_eq!((seed_start, seed_end), (2, 4));
            assert!(message.contains("injected worker fault"), "{message}");
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }

    let report_b = drain(&events_b).result.expect("sibling unaffected");
    assert_eq!(lot_json(&report_b), lot_json(&monolithic(&job_b)));
    service.shutdown();
}

#[test]
fn oversized_submissions_are_refused_synchronously() {
    let service = ScreenService::start(ServiceConfig::new().with_queue_capacity(2));
    match service.submit(request(0, 8, 2)) {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // A job that fits still goes through on the same service.
    let job = request(0, 4, 2);
    let reference = monolithic(&job);
    let (_, events) = service.submit(job).expect("fitting job");
    let report = drain(&events).result.expect("fitting job completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn a_job_of_2_pow_64_shards_is_refused_before_any_span_exists() {
    // One span per seed up to u64::MAX: materializing the spans first
    // would try to allocate ~2⁶⁴ ranges before the queue check.
    let service = ScreenService::start(ServiceConfig::new().with_queue_capacity(2));
    match service.submit(request(0, u64::MAX, 1)) {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Nothing was queued: a job that needs the whole queue still fits.
    let job = request(0, 4, 2);
    let reference = monolithic(&job);
    let (_, events) = service.submit(job).expect("the queue is empty");
    let report = drain(&events).result.expect("fitting job completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn empty_jobs_are_refused_typed() {
    let service = ScreenService::start(ServiceConfig::new());
    match service.submit(request(5, 5, 2)) {
        Err(ServeError::Lot(netan::NetanError::EmptyLot)) => {}
        other => panic!("expected EmptyLot, got {other:?}"),
    }
    service.shutdown();
}

#[test]
fn budgeted_jobs_match_the_checkpoint_drive_byte_for_byte() {
    // Re-test admission under a budget follows the sequential shard
    // ledger, so the reference is a drive with the same shard size —
    // not a monolith (see the sharding notes in netan).
    let mut job = request(0, 6, 2);
    job.schedule = job.schedule.clone().with_budget(Seconds(400.0));

    let reference = ShardDriver::new(0..6, 2, &job.plan, &job.schedule)
        .expect("a non-empty lot")
        .drive(&LotEngine::serial(), factory)
        .expect("reference drive");

    let service = ScreenService::start(ServiceConfig::new().with_workers(2));
    let (_, events) = service.submit(job).expect("submit");
    let report = drain(&events).result.expect("budgeted job completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn shutdown_refuses_new_jobs_and_fails_drained_ones_typed() {
    let service = ScreenService::start(ServiceConfig::new());
    let (_, events) = service.submit(request(0, 8, 2)).expect("submit");
    service.shutdown();

    // Whatever the worker managed before the drain, the terminal event
    // is typed: Done if everything merged, ShuttingDown otherwise.
    match drain(&events).result {
        Ok(_) | Err(ServeError::ShuttingDown) => {}
        other => panic!("expected Done or ShuttingDown, got {other:?}"),
    }
    match service.submit(request(0, 2, 2)) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn resubmitted_jobs_resume_from_persisted_shards() {
    let dir = temp_dir("resume");
    std::fs::remove_dir_all(&dir).ok();
    let job = request(0, 6, 2);
    let reference = monolithic(&job);

    let first = ScreenService::start(ServiceConfig::new().with_state_dir(&dir));
    let (_, events) = first.submit(job.clone()).expect("submit");
    let fresh = drain(&events);
    assert!(fresh.progress.iter().all(|&(.., resumed)| !resumed));
    let report = fresh.result.expect("first run completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    first.shutdown();

    // A fresh service over the same state directory loads every shard
    // instead of re-measuring, and assembles the same bytes.
    let second = ScreenService::start(ServiceConfig::new().with_state_dir(&dir));
    let (_, events) = second.submit(job).expect("resubmit");
    let resumed = drain(&events);
    assert!(resumed.progress.iter().all(|&(.., resumed)| resumed));
    let report = resumed.result.expect("resumed run completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_round_trip_streams_and_matches_the_monolith() {
    let server = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(2))
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let job = request(0, 4, 2);
    let reference = monolithic(&job);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // An unparseable line is rejected typed and the connection survives.
    writer.write_all(b"not json\n").expect("write garbage");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read rejection");
    match ServerFrame::parse(line.trim()).expect("parse rejection") {
        ServerFrame::Rejected {
            error: WireError::BadFrame { .. },
        } => {}
        other => panic!("expected bad_frame rejection, got {other:?}"),
    }

    // Submit, then read frames to the terminal result.
    let submit = ClientFrame::Submit(Box::new(job)).render();
    writer
        .write_all(format!("{submit}\n").as_bytes())
        .expect("write submit");
    let mut got_accept = false;
    let mut progress = 0u64;
    let report = loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        match ServerFrame::parse(line.trim()).expect("parse frame") {
            ServerFrame::Accepted { shards, .. } => {
                assert_eq!(shards, 2);
                got_accept = true;
            }
            ServerFrame::Progress { done, total, .. } => {
                progress += 1;
                assert_eq!(done, progress);
                assert_eq!(total, 2);
            }
            ServerFrame::Finished { report, .. } => break report,
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert!(got_accept);
    assert_eq!(progress, 2);
    assert_eq!(lot_json(&report), lot_json(&reference));

    // Graceful shutdown over the wire, from a second connection.
    let mut control = TcpStream::connect(addr).expect("connect control");
    control
        .write_all(format!("{}\n", ClientFrame::Shutdown.render()).as_bytes())
        .expect("write shutdown");
    let mut bye = String::new();
    BufReader::new(&control)
        .read_line(&mut bye)
        .expect("read bye");
    assert!(matches!(
        ServerFrame::parse(bye.trim()).expect("parse bye"),
        ServerFrame::Bye
    ));
    server.wait();

    // The listener is down: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly while the socket drains; a
            // write+read must then fail or hit EOF.
            let mut s = TcpStream::connect(addr).expect("raced connect");
            s.write_all(b"\n").ok();
            let mut buf = String::new();
            BufReader::new(&s)
                .read_line(&mut buf)
                .map(|n| n == 0)
                .unwrap_or(true)
        }
    );
}

#[test]
fn every_frame_of_a_small_job_arrives_without_a_delayed_ack() {
    // A job's frames are separate small writes with no client frame
    // between them. Under Nagle's algorithm each waits for the client's
    // delayed ACK of the one before (40 ms on Linux); sent at once, each
    // arrives as soon as the shard it reports is measured, well inside
    // a 20 ms read timeout for a device of four points at M = 2.
    let server = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(1))
        .expect("bind an ephemeral port");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set a read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let job = JobRequest {
        schedule: EscalationSchedule::new(vec![AnalyzerConfig::ideal().with_periods(2)]),
        ..request(0, 1, 1)
    };
    assert_eq!(job.plan.grid().len(), 4);
    let submit = ClientFrame::Submit(Box::new(job)).render();
    for round in 0..10 {
        writer
            .write_all(format!("{submit}\n").as_bytes())
            .expect("write submit");
        let mut frames = 0;
        loop {
            let mut line = String::new();
            if let Err(e) = reader.read_line(&mut line) {
                panic!("job {round}, frame {frames}: {e}");
            }
            frames += 1;
            match ServerFrame::parse(line.trim()).expect("parse frame") {
                ServerFrame::Accepted { .. } | ServerFrame::Progress { .. } => {}
                ServerFrame::Finished { .. } => break,
                other => panic!("job {round}: unexpected frame {other:?}"),
            }
        }
        assert_eq!(frames, 3, "job {round}: accepted, one progress, result");
    }
    server.shutdown();
}

/// Reads one frame and demands a `bad_frame` rejection.
fn expect_bad_frame(reader: &mut impl BufRead, case: &str) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read rejection");
    match ServerFrame::parse(line.trim()).expect("parse rejection") {
        ServerFrame::Rejected {
            error: WireError::BadFrame { message },
        } => message,
        other => panic!("{case}: expected bad_frame rejection, got {other:?}"),
    }
}

#[test]
fn an_oversized_frame_is_rejected_and_only_its_connection_closed() {
    let server = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(1))
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let bystander = TcpStream::connect(addr).expect("connect bystander");
    let mut bystander_writer = bystander.try_clone().expect("clone");
    let mut bystander_reader = BufReader::new(bystander);

    // A line of exactly the limit is a frame: parsed, rejected as
    // garbage, and the connection stays open.
    let at_limit = TcpStream::connect(addr).expect("connect");
    let mut writer = at_limit.try_clone().expect("clone");
    let mut reader = BufReader::new(at_limit);
    let mut line = vec![b'x'; MAX_FRAME_BYTES];
    line.push(b'\n');
    writer.write_all(&line).expect("write a frame at the limit");
    expect_bad_frame(&mut reader, "at the limit");
    writer.write_all(b"still here\n").expect("write again");
    expect_bad_frame(&mut reader, "after the limit frame");

    // One byte more and no newline: the server stops reading at the
    // limit, rejects the frame and closes the connection.
    let hostile = TcpStream::connect(addr).expect("connect");
    // A server that kept buffering would never answer: fail, not hang.
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("set a read timeout");
    let mut writer = hostile.try_clone().expect("clone");
    let mut reader = BufReader::new(hostile);
    writer
        .write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
        .expect("write an oversized frame");
    let message = expect_bad_frame(&mut reader, "oversized");
    assert!(message.contains(&MAX_FRAME_BYTES.to_string()), "{message}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("read to the end"), 0);

    // Every other connection is still served.
    bystander_writer
        .write_all(b"not json\n")
        .expect("bystander writes");
    expect_bad_frame(&mut bystander_reader, "bystander");
    server.shutdown();
}

#[test]
fn a_deeply_nested_frame_is_rejected_and_its_connection_still_screens() {
    let server = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(1))
        .expect("bind an ephemeral port");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // 40 KB, far under the frame limit, but 20,000 levels deep: a parser
    // recursing without a limit overflows the connection thread's stack
    // and aborts the whole daemon.
    let nested = format!("{}{}\n", "[".repeat(20_000), "]".repeat(20_000));
    writer
        .write_all(nested.as_bytes())
        .expect("write nested frame");
    let message = expect_bad_frame(&mut reader, "nested");
    let limit = format!("nesting deeper than {}", netan::json::MAX_DEPTH);
    assert!(message.contains(&limit), "{message}");

    screens_like_the_monolith(&mut writer, &mut reader);
    server.shutdown();
}

#[test]
fn a_one_shard_job_of_2_pow_40_devices_is_rejected_and_its_connection_still_screens() {
    let server = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(1))
        .expect("bind an ephemeral port");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // A 600-byte frame whose single shard holds 2⁴⁰ devices: collecting
    // its seeds alone needs 8 TiB, and the failed allocation aborted the
    // whole daemon. The shard is bounded before anything is allocated.
    let huge = ClientFrame::Submit(Box::new(request(0, 1 << 40, 1 << 40))).render();
    writer
        .write_all(format!("{huge}\n").as_bytes())
        .expect("write the 2^40-device frame");
    let message = expect_bad_frame(&mut reader, "2^40 devices");
    let points = request(0, 1, 1).plan.grid().len();
    assert_eq!(
        message,
        format!(
            "document invalid: a shard of {} devices × {points} grid points exceeds {} Bode points",
            1u64 << 40,
            netan_serve::job::MAX_SHARD_POINTS
        )
    );

    screens_like_the_monolith(&mut writer, &mut reader);
    server.shutdown();
}

/// Connects to `addr` and listens: the rejection if the server refused
/// the connection, or `None` if it serves it — a served connection
/// hears nothing until it sends a frame, while a refusal is sent on
/// accept.
fn connect_and_listen(addr: SocketAddr) -> (BufReader<TcpStream>, Option<WireError>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("set a read timeout");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => match ServerFrame::parse(line.trim()).expect("parse rejection") {
            ServerFrame::Rejected { error } => {
                let mut rest = String::new();
                assert_eq!(reader.read_line(&mut rest).expect("read to the end"), 0);
                (reader, Some(error))
            }
            other => panic!("expected a rejection, got {other:?}"),
        },
        Ok(_) => panic!("closed without a rejection"),
        Err(e) => {
            assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "{e}"
            );
            reader
                .get_ref()
                .set_read_timeout(None)
                .expect("clear the timeout");
            (reader, None)
        }
    }
}

#[test]
fn a_connection_past_the_limit_is_refused_and_a_freed_slot_screens() {
    let server = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(1))
        .expect("bind an ephemeral port");
    let addr = server.addr();
    // Connections are accepted in order, and each takes its slot on
    // accept, so these hold every slot.
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let (_, refused) = connect_and_listen(addr);
    let limit = u64::try_from(MAX_CONNECTIONS).unwrap();
    assert_eq!(refused, Some(WireError::TooManyConnections { limit }));
    assert_eq!(
        ServerFrame::Rejected {
            error: WireError::TooManyConnections { limit }
        }
        .render(),
        format!(
            "{{\"schema\":\"netan.job.v1\",\"type\":\"rejected\",\
             \"error\":{{\"kind\":\"too_many_connections\",\"limit\":{MAX_CONNECTIONS}}}}}"
        )
    );
    // A held connection is served.
    let last = held.last().expect("a held connection");
    let mut writer = last.try_clone().expect("clone");
    writer.write_all(b"not json\n").expect("write garbage");
    expect_bad_frame(&mut BufReader::new(last), "a held connection");

    // Its thread frees a slot when a connection ends; the next
    // connection after that is served like any other.
    drop(held.remove(0));
    let mut reader = (0..500)
        .find_map(|_| match connect_and_listen(addr) {
            (reader, None) => Some(reader),
            (_, Some(error)) => {
                assert_eq!(error, WireError::TooManyConnections { limit });
                std::thread::sleep(Duration::from_millis(10));
                None
            }
        })
        .expect("a slot freed");
    let mut writer = reader.get_ref().try_clone().expect("clone");
    screens_like_the_monolith(&mut writer, &mut reader);
    drop(held);
    server.shutdown();
}

/// Screens a 4-device job over an open connection and demands the
/// monolith's bytes.
fn screens_like_the_monolith(writer: &mut impl Write, reader: &mut impl BufRead) {
    let job = request(0, 4, 2);
    let reference = monolithic(&job);
    let submit = ClientFrame::Submit(Box::new(job)).render();
    writer
        .write_all(format!("{submit}\n").as_bytes())
        .expect("write submit");
    let report = loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        match ServerFrame::parse(line.trim()).expect("parse frame") {
            ServerFrame::Accepted { .. } | ServerFrame::Progress { .. } => {}
            ServerFrame::Finished { report, .. } => break report,
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert_eq!(lot_json(&report), lot_json(&reference));
}
