//! The traced probe: after the timed loop, a traced run re-drives one
//! job of the workload through each layer's public entry point with a
//! span around every call, checks the replay against the lot's own
//! report bit for bit, and turns the spans into per-layer metrics.

use crate::inputs::fabricate;
use crate::lot::screen;
use crate::serve::Client;
use crate::trace::Tracer;
use crate::{stats, Outcome};
use dut::{Dut, DutSim};
use mixsig::clock::{MasterClock, OVERSAMPLING_RATIO};
use mixsig::NoiseSource;
use netan::sweep::unwrap_phase_by_continuity;
use netan::{
    lot_json, parse_lot_json, AnalyzerConfig, BodePlot, BodePoint, Calibration, HardwareProfile,
    LotEngine, LotReport, NetworkAnalyzer, SpecVerdict,
};
use netan_serve::{
    ClientFrame, JobEvent, JobRequest, JobServer, ScreenService, ServerFrame, ServiceConfig,
};
use sdeval::{BlockSource, EvaluatorConfig, SinewaveEvaluator};
use sigen::{GeneratorConfig, SinewaveGenerator};
use std::hint::black_box;
use std::time::Instant;

/// A per-layer metric and the end-to-end metric it should move, on
/// which workload.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric the traced run reports, in output order.
pub const LAYER_METRICS: [LayerMetric; 24] = [
    metric(
        "mixsig.noise.ns_per_draw",
        "ns",
        "lower",
        "devices_per_s on screen_cmos only; ideal hardware draws no noise",
    ),
    metric(
        "sigen.fill_block.ns_per_sample",
        "ns",
        "lower",
        "devices_per_s on screen_cmos and escalate_seq",
    ),
    metric(
        "dut.process_block.ns_per_sample",
        "ns",
        "lower",
        "devices_per_s on screen_cmos and escalate_seq; a larger share on escalate_seq",
    ),
    metric(
        "sdeval.acquire.ns_per_sample",
        "ns",
        "lower",
        "devices_per_s on screen_cmos and escalate_seq",
    ),
    metric(
        "netan.calibration.ms",
        "ms",
        "lower",
        "job_ms_p50 on serve_tcp (one per shard per stage); barely screen_cmos (one per lot)",
    ),
    metric(
        "netan.calibrations_per_device",
        "count",
        "lower",
        "job_ms_p50 on serve_tcp; barely screen_cmos",
    ),
    metric(
        "netan.point.ms",
        "ms",
        "lower",
        "devices_per_s on every workload",
    ),
    metric(
        "netan.lot.self_ms_per_device",
        "ms",
        "lower",
        "devices_per_s on screen_cmos",
    ),
    metric(
        "netan.pool.efficiency",
        "frac",
        "higher",
        "devices_per_s on screen_cmos; read against the host's parallel capacity",
    ),
    metric(
        "netan.stage0.share",
        "frac",
        "lower",
        "devices_per_s and sim_s_per_device on escalate_seq",
    ),
    metric(
        "netan.stage1.share",
        "frac",
        "lower",
        "devices_per_s and sim_s_per_device on escalate_seq",
    ),
    metric(
        "netan.stage2.share",
        "frac",
        "lower",
        "devices_per_s and sim_s_per_device on escalate_seq",
    ),
    metric(
        "netan.escalation.retests_per_device",
        "count",
        "lower",
        "devices_per_s and sim_s_per_device on escalate_seq",
    ),
    metric(
        "netan.escalation.decided_frac",
        "frac",
        "higher",
        "devices_per_s and sim_s_per_device on escalate_seq",
    ),
    metric(
        "netan.merge.us_per_shard",
        "us",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp; nothing on the lot workloads",
    ),
    metric(
        "netan.lot_json.us_per_device",
        "us",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp; nothing on the lot workloads",
    ),
    metric(
        "netan.parse_lot_json.us_per_device",
        "us",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp; nothing on the lot workloads",
    ),
    metric(
        "serve.submit.us",
        "us",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp",
    ),
    metric(
        "serve.first_progress_ms",
        "ms",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp",
    ),
    metric(
        "serve.service.overhead_ms",
        "ms",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp",
    ),
    metric(
        "serve.frame.bytes_per_device",
        "bytes",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp",
    ),
    metric(
        "serve.frame.us_per_job",
        "us",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp",
    ),
    metric(
        "serve.tcp.overhead_ms",
        "ms",
        "lower",
        "job_ms_p50 and job_ms_p90 on serve_tcp",
    ),
    metric(
        "bench.trace_overhead_frac",
        "frac",
        "lower",
        "nothing: the cost of tracing itself",
    ),
];

/// Stage spans by stage index.
const STAGE_SPANS: [&str; 3] = ["netan.stage0", "netan.stage1", "netan.stage2"];

/// Minimum host time each repeated micro-measurement accumulates.
const MIN_PROBE_S: f64 = 0.2;

/// The job the probe re-drives, with what the timed loop already knows
/// about it.
pub struct Probe<'a> {
    pub job: &'a JobRequest,
    /// The job screened monolithically on the serial engine.
    pub reference: &'a LotReport,
    /// Host seconds of that serial run.
    pub serial_s: f64,
    /// Host seconds of the same job on `workers` device threads.
    pub parallel_s: f64,
    pub workers: usize,
}

/// What the in-process service returned for one job.
pub struct ServiceReply {
    pub report: LotReport,
    pub submit_s: f64,
    pub first_progress_s: f64,
    pub total_s: f64,
}

/// Submits `job` to `service` and waits for its report.
pub fn service_job(service: &ScreenService, job: &JobRequest) -> Result<ServiceReply, String> {
    let request = job.clone();
    let start = Instant::now();
    let (_, events) = service.submit(request).map_err(|e| e.to_string())?;
    let submit_s = start.elapsed().as_secs_f64();
    let mut first_progress_s = None;
    loop {
        match events.recv() {
            Ok(JobEvent::Progress { .. }) => {
                first_progress_s.get_or_insert(start.elapsed().as_secs_f64());
            }
            Ok(JobEvent::Retry { message, .. }) => return Err(format!("shard retried: {message}")),
            Ok(JobEvent::Done(report)) => {
                let total_s = start.elapsed().as_secs_f64();
                return Ok(ServiceReply {
                    report: *report,
                    submit_s,
                    first_progress_s: first_progress_s.unwrap_or(total_s),
                    total_s,
                });
            }
            Ok(JobEvent::Failed(e)) => return Err(e.to_string()),
            Err(_) => return Err("service dropped the job's event stream".to_string()),
        }
    }
}

/// Repeats `f` until it has run at least three times and for
/// [`MIN_PROBE_S`], returning the repetition count.
fn repeat(mut f: impl FnMut()) -> u64 {
    let start = Instant::now();
    let mut reps = 0;
    while reps < 3 || start.elapsed().as_secs_f64() < MIN_PROBE_S {
        f();
        reps += 1;
    }
    reps
}

fn generator_config(config: &AnalyzerConfig, clk: MasterClock) -> GeneratorConfig {
    match config.hardware {
        HardwareProfile::Ideal => GeneratorConfig::ideal(clk, config.va_diff),
        HardwareProfile::Cmos035um { seed } => {
            GeneratorConfig::cmos_035um(clk, config.va_diff, seed)
        }
    }
}

fn evaluator_config(config: &AnalyzerConfig) -> EvaluatorConfig {
    match config.hardware {
        HardwareProfile::Ideal => EvaluatorConfig::ideal(),
        HardwareProfile::Cmos035um { seed } => EvaluatorConfig::cmos_035um(seed),
    }
    .with_block_samples(config.block_samples)
}

/// The benchmark's own sample source: the generator feeding the DUT
/// simulation, one block at a time, with a span around each layer call.
struct TracedBoard<'t> {
    generator: SinewaveGenerator,
    dut: Box<dyn DutSim>,
    stim: Vec<f64>,
    tracer: &'t mut Tracer,
    samples: u64,
}

impl BlockSource for TracedBoard<'_> {
    fn fill_block(&mut self, out: &mut [f64]) {
        let len = out.len();
        if self.stim.len() < len {
            self.stim.resize(len, 0.0);
        }
        let stim = &mut self.stim[..len];
        self.tracer
            .span("sigen.fill_block", |_| self.generator.fill_block(stim));
        self.tracer
            .span("dut.process_block", |_| self.dut.process_block(stim, out));
        self.samples += len as u64;
    }
}

/// Replays one Bode point through generator → DUT → evaluator and
/// returns the gain enclosure `measure_point_calibrated` derives.
fn replay_point(
    tracer: &mut Tracer,
    device: &dyn Dut,
    config: &AnalyzerConfig,
    cal: Calibration,
    point: &BodePoint,
) -> Result<(sdeval::Bounded, u64, u64), String> {
    let gen_config = generator_config(config, MasterClock::for_stimulus(point.frequency));
    let fs = gen_config.master_clock.frequency();
    let mut board = TracedBoard {
        generator: SinewaveGenerator::new(gen_config),
        dut: device.instantiate(fs),
        stim: Vec::new(),
        tracer,
        samples: 0,
    };
    let mut warm = [0.0; OVERSAMPLING_RATIO as usize];
    for _ in 0..config.warmup_periods {
        board.fill_block(&mut warm);
    }
    let mut evaluator = SinewaveEvaluator::new(evaluator_config(config));
    let id = board.tracer.begin("sdeval.acquire");
    let measured = evaluator.measure_harmonic_blocks(&mut board, 1, config.periods);
    board.tracer.end(id);
    let measured = measured.map_err(|e| format!("replayed acquisition failed: {e}"))?;
    Ok((
        measured.amplitude.ratio(&cal.amplitude),
        board.samples,
        measured.samples_consumed,
    ))
}

/// A device as the stage-by-stage replay measured it.
struct Replayed {
    seed: u64,
    /// Stage-0 points before phase unwrapping, as
    /// `measure_point_calibrated` returned them.
    raw: Vec<BodePoint>,
    plot: BodePlot,
    verdict: SpecVerdict,
    stage: usize,
}

/// Re-drives the lot serially, stage by stage: a calibration per stage,
/// then every admitted device's points, classification and fit.
fn replay_lot(
    tracer: &mut Tracer,
    job: &JobRequest,
) -> Result<(Vec<Replayed>, Calibration), String> {
    let factory = fabricate(job.dut.tolerance);
    let stages = job.schedule.stages();
    let mut devices: Vec<Replayed> = (job.seed_start..job.seed_end)
        .map(|seed| Replayed {
            seed,
            raw: Vec::new(),
            plot: BodePlot::new(Vec::new()),
            verdict: SpecVerdict::Ambiguous,
            stage: 0,
        })
        .collect();
    let mut pending: Vec<usize> = (0..devices.len()).collect();
    let mut stage0_cal = None;
    let lot = tracer.begin("netan.lot.replay");
    for (s, config) in stages.iter().enumerate() {
        if pending.is_empty() {
            break;
        }
        let stage = tracer.begin(STAGE_SPANS.get(s).copied().unwrap_or("netan.stage.deeper"));
        let cal = tracer
            .span("netan.calibration", |_| {
                LotEngine::shared_calibration(*config)
            })
            .map_err(|e| format!("stage {s} calibration failed: {e}"))?;
        stage0_cal.get_or_insert(cal);
        for &i in &pending {
            let device = factory(devices[i].seed);
            let analyzer = NetworkAnalyzer::new(&device, *config);
            let mut points = Vec::with_capacity(job.plan.grid().len());
            for &f in job.plan.grid() {
                let point = tracer
                    .span("netan.point", |_| analyzer.measure_point_calibrated(cal, f))
                    .map_err(|e| format!("seed {} point failed: {e}", devices[i].seed))?;
                points.push(point);
            }
            let d = &mut devices[i];
            if s == 0 {
                d.raw = points.clone();
            }
            unwrap_phase_by_continuity(&mut points);
            d.plot = BodePlot::new(points);
            d.verdict = tracer
                .span("netan.classify", |_| {
                    job.plan.classify_plot(d.plot.points())
                })
                .map_err(|e| format!("seed {} classification failed: {e}", d.seed))?;
            black_box(tracer.span("netan.fit", |_| d.plot.fit_lowpass_biquad()));
            d.stage = s;
        }
        pending.retain(|&i| devices[i].verdict == SpecVerdict::Ambiguous);
        tracer.end(stage);
    }
    tracer.end(lot);
    let cal = stage0_cal.ok_or("the schedule has no stage")?;
    Ok((devices, cal))
}

/// Runs the probe and records every per-layer metric it measures.
pub fn probe(p: Probe<'_>, out: &mut Outcome) {
    let mut t = Tracer::new();
    let devices = p.reference.len().max(1) as f64;

    // Noise: Gaussian draws in 4096-draw blocks.
    let mut noise = NoiseSource::new(p.job.seed_start);
    let mut block = vec![0.0; 4096];
    let reps = repeat(|| {
        t.span("mixsig.noise", |_| noise.fill_gaussian(1.0, &mut block));
        black_box(&block);
    });
    out.layer(
        "mixsig.noise.ns_per_draw",
        t.total_ns("mixsig.noise") as f64 / (reps * 4096) as f64,
    );

    // The lot, stage by stage, against the engine's own report.
    let (replayed, cal) = match replay_lot(&mut t, p.job) {
        Ok(r) => r,
        Err(e) => return out.fail(format!("lot replay: {e}")),
    };
    let matches = replayed.len() == p.reference.len()
        && replayed.iter().zip(p.reference.devices()).all(|(r, d)| {
            r.seed == d.seed && r.plot == d.plot && r.verdict == d.verdict && r.stage == d.stage
        });
    out.check(matches, || {
        "stage-by-stage replay differs from the lot's device reports".into()
    });
    let replay_ns = t.total_ns("netan.lot.replay") as f64;
    out.layer("netan.calibration.ms", t.mean_ms("netan.calibration"));
    out.layer("netan.point.ms", t.mean_ms("netan.point"));
    let lot_self_ns =
        replay_ns - t.total_ns("netan.calibration") as f64 - t.total_ns("netan.point") as f64;
    out.layer("netan.lot.self_ms_per_device", lot_self_ns / 1e6 / devices);
    for (s, name) in [
        "netan.stage0.share",
        "netan.stage1.share",
        "netan.stage2.share",
    ]
    .into_iter()
    .enumerate()
    {
        out.layer(name, t.total_ns(STAGE_SPANS[s]) as f64 / replay_ns);
    }
    out.layer(
        "netan.pool.efficiency",
        p.serial_s / (p.workers as f64 * p.parallel_s),
    );

    // The sample pipeline, replayed on the stage-0 configuration until
    // enough samples have passed; every point must reproduce
    // `measure_point_calibrated`'s gain bit for bit.
    let config = p.job.schedule.stages()[0];
    let factory = fabricate(p.job.dut.tolerance);
    let (mut generated, mut acquired) = (0u64, 0u64);
    let start = Instant::now();
    for d in &replayed {
        if start.elapsed().as_secs_f64() >= MIN_PROBE_S {
            break;
        }
        let device = factory(d.seed);
        for point in &d.raw {
            match replay_point(&mut t, &device, &config, cal, point) {
                Ok((gain, g, a)) => {
                    out.check(gain == point.gain, || {
                        format!(
                            "sample replay of seed {} at {} Hz differs",
                            d.seed,
                            point.frequency.value()
                        )
                    });
                    generated += g;
                    acquired += a;
                }
                Err(e) => out.fail(e),
            }
        }
    }
    let per_sample = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    out.layer(
        "sigen.fill_block.ns_per_sample",
        per_sample(t.total_ns("sigen.fill_block"), generated),
    );
    out.layer(
        "dut.process_block.ns_per_sample",
        per_sample(t.total_ns("dut.process_block"), generated),
    );
    out.layer(
        "sdeval.acquire.ns_per_sample",
        per_sample(t.self_total_ns("sdeval.acquire"), acquired),
    );

    // Shards screened one engine call each and merged in seed order, as
    // the service does, against the monolith.
    let spans = p.job.spans();
    let shards: Result<Vec<LotReport>, String> = spans
        .iter()
        .map(|r| {
            let mut sub = p.job.clone();
            (sub.seed_start, sub.seed_end) = (r.start, r.end);
            screen(&LotEngine::serial(), &sub).map_err(|e| e.to_string())
        })
        .collect();
    let reference_json = lot_json(p.reference);
    match shards {
        Ok(shards) => {
            let mut merged = LotReport::empty(&p.job.plan);
            let reps = repeat(|| {
                let mut acc = LotReport::empty(&p.job.plan);
                for shard in shards.clone() {
                    acc = t.span("netan.merge", |_| acc.merge(shard));
                }
                merged = acc;
            });
            out.check(lot_json(&merged) == reference_json, || {
                "shards merged in seed order differ from the monolith".into()
            });
            out.layer(
                "netan.merge.us_per_shard",
                t.total_ns("netan.merge") as f64 / 1e3 / (reps * spans.len() as u64) as f64,
            );
        }
        Err(e) => out.fail(format!("shard run failed: {e}")),
    }

    // Report rendering and parsing.
    let mut parsed_ok = true;
    let reps = repeat(|| {
        let json = t.span("netan.lot_json", |_| lot_json(p.reference));
        let parsed = t.span("netan.parse_lot_json", |_| parse_lot_json(&json));
        parsed_ok &= parsed.is_ok_and(|r| lot_json(&r) == json);
    });
    out.check(parsed_ok, || {
        "lot_json does not survive parse_lot_json".into()
    });
    let per_device_us = |name: &str| t.total_ns(name) as f64 / 1e3 / reps as f64 / devices;
    out.layer(
        "netan.lot_json.us_per_device",
        per_device_us("netan.lot_json"),
    );
    out.layer(
        "netan.parse_lot_json.us_per_device",
        per_device_us("netan.parse_lot_json"),
    );

    // Job framing: the submit frame and the result frame, each rendered
    // and parsed once; a parsed frame must render to the same bytes.
    let (submit, result) = (
        ClientFrame::Submit(Box::new(p.job.clone())),
        ServerFrame::Finished {
            job: 0,
            report: Box::new(p.reference.clone()),
        },
    );
    let mut frames_ok = true;
    let reps = repeat(|| {
        let (a, b, parsed_a, parsed_b) = t.span("serve.frame", |_| {
            let (a, b) = (submit.render(), result.render());
            let (parsed_a, parsed_b) = (ClientFrame::parse(&a), ServerFrame::parse(&b));
            (a, b, parsed_a, parsed_b)
        });
        frames_ok &= parsed_a.is_ok_and(|f| f.render() == a);
        frames_ok &= parsed_b.is_ok_and(|f| f.render() == b);
    });
    out.check(frames_ok, || {
        "job frames do not survive a render/parse round trip".into()
    });
    out.layer(
        "serve.frame.us_per_job",
        t.total_ns("serve.frame") as f64 / 1e3 / reps as f64,
    );

    // The in-process service and the TCP server, the same job each.
    let service = ScreenService::start(ServiceConfig::new().with_workers(p.workers));
    let mut replies = Vec::new();
    repeat(|| match service_job(&service, p.job) {
        Ok(reply) => replies.push(reply),
        Err(e) => out.fail(format!("service probe job failed: {e}")),
    });
    service.shutdown();
    for reply in &replies {
        out.check(lot_json(&reply.report) == reference_json, || {
            "in-process service report differs from the monolith".into()
        });
    }
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    let service_s = med(replies.iter().map(|r| r.total_s).collect());
    out.layer(
        "serve.submit.us",
        med(replies.iter().map(|r| r.submit_s * 1e6).collect()),
    );
    out.layer(
        "serve.first_progress_ms",
        med(replies.iter().map(|r| r.first_progress_s * 1e3).collect()),
    );
    out.layer(
        "serve.service.overhead_ms",
        (service_s - p.parallel_s) * 1e3,
    );

    let tcp = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(p.workers))
        .and_then(|server| Client::connect(&server).map(|client| (server, client)));
    let (server, mut client) = match tcp {
        Ok(running) => running,
        Err(e) => return out.fail(format!("TCP probe server failed: {e}")),
    };
    let (mut times, mut bytes) = (Vec::new(), 0);
    repeat(|| {
        let start = Instant::now();
        match client.submit(p.job) {
            Ok(reply) => {
                times.push(start.elapsed().as_secs_f64());
                bytes = reply.result_bytes;
                out.check(lot_json(&reply.report) == reference_json, || {
                    "TCP-decoded report differs from the monolith".into()
                });
            }
            Err(e) => out.fail(format!("TCP probe job failed: {e}")),
        }
    });
    drop(client);
    server.shutdown();
    out.layer("serve.tcp.overhead_ms", (med(times) - service_s) * 1e3);
    out.layer("serve.frame.bytes_per_device", bytes as f64 / devices);
    out.spans.extend(t.summary("probe"));
}

/// The per-layer values that are deterministic counts.
pub fn count_layers(out: &mut Outcome) {
    let c = &out.counts;
    let decided = match c.retests() {
        0 => 0.0,
        n => c.retests_decided as f64 / n as f64,
    };
    let calibrations = c.per_device(c.calibrations as f64);
    let retests = c.per_device(c.retests() as f64);
    out.layer("netan.calibrations_per_device", calibrations);
    out.layer("netan.escalation.retests_per_device", retests);
    out.layer("netan.escalation.decided_frac", decided);
}
