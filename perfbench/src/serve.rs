//! The `serve_tcp` workload: a closed loop of client connections to an
//! in-process `JobServer`. Each connection submits its next job only
//! after the previous job's `result` frame arrived.

use crate::counts::{digest, Counts};
use crate::host;
use crate::inputs::{inputs, Workload, SERVE_CONNECTIONS, SERVE_WORKERS};
use crate::layers::{self, service_job, Probe};
use crate::lot::screen;
use crate::trace::Tracer;
use crate::{Outcome, Run, SETUP_REPS};
use netan::{lot_json, LotEngine};
use netan_serve::{ClientFrame, JobRequest, JobServer, ScreenService, ServerFrame, ServiceConfig};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// What one TCP job returned.
pub struct Reply {
    pub report: netan::LotReport,
    pub result_bytes: usize,
}

impl Client {
    pub fn connect(server: &JobServer) -> io::Result<Self> {
        let writer = TcpStream::connect(server.addr())?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Submits `job` and reads frames until its `result` arrives.
    pub fn submit(&mut self, job: &JobRequest) -> Result<Reply, String> {
        let mut line = ClientFrame::Submit(Box::new(job.clone())).render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("submit write failed: {e}"))?;
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("frame read failed: {e}")),
            }
            let frame =
                ServerFrame::parse(line.trim()).map_err(|e| format!("frame parse failed: {e}"))?;
            match frame {
                ServerFrame::Finished { report, .. } => {
                    return Ok(Reply {
                        report: *report,
                        result_bytes: line.trim_end().len(),
                    })
                }
                ServerFrame::Rejected { error } | ServerFrame::Error { error, .. } => {
                    return Err(format!("job refused or failed: {error:?}"))
                }
                ServerFrame::Accepted { .. }
                | ServerFrame::Progress { .. }
                | ServerFrame::Retry { .. }
                | ServerFrame::Bye => {}
            }
        }
    }
}

/// A completed job of the timed loop.
struct Done {
    index: u64,
    latency_s: f64,
    traced: bool,
    /// Digest and deterministic counts of the decoded report.
    result: Result<(u64, Counts), String>,
}

/// Every how many jobs of the cycle one is checked against a
/// monolithic run of its seeds (untimed).
const REFERENCE_STRIDE: usize = 8;

fn start_server() -> io::Result<(JobServer, Vec<Client>)> {
    let server = JobServer::start(
        "127.0.0.1:0",
        ServiceConfig::new().with_workers(SERVE_WORKERS),
    )?;
    let clients = (0..SERVE_CONNECTIONS)
        .map(|_| Client::connect(&server))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((server, clients))
}

/// One connection's share of the closed loop: it takes the next job of
/// the cycle and waits for its result, until the deadline has passed and
/// the cycle then under way has been handed out, so the loop covers
/// whole cycles.
fn client_loop(
    client: &mut Client,
    tracer: &mut Tracer,
    jobs: &[JobRequest],
    next: &AtomicU64,
    stop_at: &AtomicU64,
    start: Instant,
    run: &Run,
) -> Vec<Done> {
    let cycle = jobs.len() as u64;
    let deadline = Duration::from_secs_f64(run.seconds);
    let mut done = Vec::new();
    loop {
        if start.elapsed() >= deadline {
            let handed_out = next.load(Ordering::SeqCst);
            stop_at.fetch_min(handed_out.div_ceil(cycle).max(1) * cycle, Ordering::SeqCst);
        }
        let index = next.fetch_add(1, Ordering::SeqCst);
        if index >= stop_at.load(Ordering::SeqCst) {
            break;
        }
        let traced = run.trace && index % 2 == 1;
        let job = &jobs[(index % cycle) as usize];
        let span = traced.then(|| tracer.begin("serve.job"));
        let t = Instant::now();
        let reply = client.submit(job);
        let latency_s = t.elapsed().as_secs_f64();
        if let Some(id) = span {
            tracer.end(id);
        }
        let result = reply.map(|r| {
            let json = if traced {
                tracer.span("netan.lot_json", |_| lot_json(&r.report))
            } else {
                lot_json(&r.report)
            };
            (digest(&json), Counts::of(&r.report, &json, &job.spans()))
        });
        done.push(Done {
            index,
            latency_s,
            traced,
            result,
        });
    }
    done
}

pub fn run(run: &Run, out: &mut Outcome) {
    // Set-up: inputs, server start and client connects, several times.
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let jobs = inputs(Workload::ServeTcp, run.seed);
        let server = start_server();
        out.setup_s.push(start.elapsed().as_secs_f64());
        match server {
            Ok((server, clients)) if rep + 1 == SETUP_REPS => built = Some((jobs, server, clients)),
            Ok((server, clients)) => {
                drop(clients);
                server.shutdown();
            }
            Err(e) => return out.fail(format!("server start failed: {e}")),
        }
    }
    let (jobs, server, mut clients) = built.expect("at least one set-up");

    // The timed closed loop.
    let (next, stop_at) = (AtomicU64::new(0), AtomicU64::new(u64::MAX));
    let start = Instant::now();
    let mut tracers: Vec<Tracer> = clients.iter().map(|_| Tracer::new()).collect();
    let mut done: Vec<Done> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&mut tracers)
            .map(|(client, tracer)| {
                let (jobs, next, stop_at) = (&jobs, &next, &stop_at);
                s.spawn(move || client_loop(client, tracer, jobs, next, stop_at, start, run))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = host::peak_rss_mb();
    drop(clients);
    server.shutdown();

    // Every repetition of a job must decode to its first repetition.
    done.sort_by_key(|d| d.index);
    let cycle = jobs.len();
    let mut firsts: Vec<Option<(u64, Counts)>> = vec![None; cycle];
    let (mut traced, mut untraced) = ((0.0, 0u64), (0.0, 0u64));
    for d in &done {
        let i = (d.index % cycle as u64) as usize;
        let (got, counts) = match &d.result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("job {} failed: {e}", d.index));
                continue;
            }
        };
        let same = match &firsts[i] {
            Some((digest, first)) => got == digest && counts == first,
            None => {
                firsts[i] = Some((*got, counts.clone()));
                true
            }
        };
        out.check(same, || {
            format!("job {} differs from its first repetition", d.index)
        });
        out.job_ms.push(d.latency_s * 1e3);
        out.devices += counts.devices;
        let side = if d.traced { &mut traced } else { &mut untraced };
        side.0 += d.latency_s;
        side.1 += counts.devices;
    }
    out.busy_s = wall_s;
    for (_, counts) in firsts.iter().flatten() {
        out.counts.add(counts);
    }

    // Untimed: sampled jobs against a monolithic run of the same seeds,
    // and the first job through the in-process service too.
    let mut first_reference = None;
    for i in (0..cycle).step_by(REFERENCE_STRIDE) {
        let job = &jobs[i];
        match (screen(&LotEngine::auto(), job), &firsts[i]) {
            (Ok(reference), Some((got, _))) => {
                out.check(digest(&lot_json(&reference)) == *got, || {
                    format!("job {i}: decoded report differs from the monolithic run")
                });
                first_reference.get_or_insert(reference);
            }
            (Err(e), _) => out.fail(format!("reference for job {i} failed: {e}")),
            (Ok(_), None) => out.fail(format!("job {i} never completed")),
        }
    }
    if let Some(reference) = &first_reference {
        let service = ScreenService::start(ServiceConfig::new().with_workers(SERVE_WORKERS));
        match service_job(&service, &jobs[0]) {
            Ok(got) => out.check(lot_json(&got.report) == lot_json(reference), || {
                "in-process service report differs from the monolithic run".to_string()
            }),
            Err(e) => out.fail(format!("in-process service job failed: {e}")),
        }
        service.shutdown();
    }

    if run.trace {
        out.set_trace_overhead(traced, untraced);
        for (i, tracer) in tracers.iter().enumerate() {
            out.spans.extend(tracer.summary(&format!("client{i}")));
        }
        // The probe re-drives the cycle's first job; its monolith is
        // timed on the serial engine and on as many threads as the
        // service has workers.
        let job = &jobs[0];
        let timed = |engine: LotEngine| {
            let start = Instant::now();
            screen(&engine, job).map(|r| (r, start.elapsed().as_secs_f64()))
        };
        match (
            timed(LotEngine::serial()),
            timed(LotEngine::with_threads(SERVE_WORKERS)),
        ) {
            (Ok((serial, serial_s)), Ok((_, parallel_s))) => layers::probe(
                Probe {
                    job,
                    reference: &serial,
                    serial_s,
                    parallel_s,
                    workers: SERVE_WORKERS,
                },
                out,
            ),
            _ => out.fail("probe reference lots failed".to_string()),
        }
    }
}
