//! The `netan.job.v1` wire protocol: job descriptions and the
//! line-delimited frames the service and its clients exchange.
//!
//! One frame is one JSON document on one line, built from the same
//! hand-rolled machinery as `netan.lot.v5` ([`netan::json`]): numbers
//! render through the shortest-round-trip formatter, strings through the
//! canonical escaper, and a parsed frame **re-renders byte-identically**
//! — `render(parse(render(x))) == render(x)` for every frame, the
//! property the framing proptest pins down. Malformed, truncated, or
//! garbage frames come back as typed [`ReportParseError`]s, never a
//! panic.
//!
//! # Frames
//!
//! Client → server:
//!
//! ```json
//! {"schema":"netan.job.v1","type":"submit","job":{…}}
//! {"schema":"netan.job.v1","type":"shutdown"}
//! ```
//!
//! Server → client:
//!
//! ```json
//! {"schema":"netan.job.v1","type":"accepted","job":1,"shards":4}
//! {"schema":"netan.job.v1","type":"progress","job":1,"shard":{"seed_start":0,"seed_end":2},"done":1,"total":4,"devices":2,"spent_s":12.5,"resumed":false}
//! {"schema":"netan.job.v1","type":"retry","job":1,"shard":{"seed_start":2,"seed_end":4},"message":"…"}
//! {"schema":"netan.job.v1","type":"result","job":1,"report":{…netan.lot.v5…}}
//! {"schema":"netan.job.v1","type":"rejected","error":{"kind":"queue_full","capacity":8}}
//! {"schema":"netan.job.v1","type":"rejected","error":{"kind":"too_many_connections","limit":64}}
//! {"schema":"netan.job.v1","type":"error","job":1,"error":{"kind":"shard_panicked",…}}
//! {"schema":"netan.job.v1","type":"bye"}
//! ```
//!
//! # What a job serializes
//!
//! A [`JobRequest`] carries the DUT description, the seed range, the
//! shard size, the [`LotPlan`] (its grid and mask), and the
//! [`EscalationSchedule`]; the mask, the stopping policy and each stage
//! use the same codecs as `netan.lot.v5` ([`netan::report`]). The
//! analyzer `block_samples` throughput knob is deliberately **not** part
//! of the schema: results are bit-identical for any value, so the
//! server's default cannot change a report byte.

use crate::error::ServeError;
use mixsig::units::{Hertz, Seconds};
use netan::json::{write_f64, write_str, Json};
use netan::report::{
    config_from_json, lot_json, mask_from_json, stopping_from_json, write_config_json,
    write_mask_json, write_stopping_json,
};
use netan::{
    lot_report_from_json, EscalationSchedule, LotPlan, LotReport, ReportParseError, ShardDriver,
};
use std::fmt::Write as _;
use std::ops::Range;

/// The schema tag every frame carries.
pub const SCHEMA: &str = "netan.job.v1";

/// The most Bode points (devices × grid points) one shard of a submitted
/// job may hold: a shard holds its seeds, devices and points at once, so
/// [`JobRequest::from_json`] refuses a larger one before it exists.
pub const MAX_SHARD_POINTS: u64 = 1 << 20;

/// Which device family a job fabricates — the serializable subset of
/// the workspace's DUT zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct DutDescription {
    /// Relative 1-σ part tolerance handed to `fabricate` (e.g. `0.05`
    /// for 5 % parts).
    pub tolerance: f64,
    /// Whether the polynomial nonlinearity is stripped
    /// (`ActiveRcFilter::linearized`).
    pub linearized: bool,
}

impl DutDescription {
    /// Renders the description (the `"dut"` object of a job) — also the
    /// DUT identity of the job's checkpoint directory.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("{\"family\":\"active_rc_paper\",\"tolerance\":");
        write_f64(&mut out, self.tolerance);
        let _ = write!(out, ",\"linearized\":{}}}", self.linearized);
        out
    }
}

/// One screening job: what to fabricate, which seeds, how to shard,
/// what to measure, and how to escalate.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The device family and fabrication parameters.
    pub dut: DutDescription,
    /// First Monte-Carlo seed of the lot.
    pub seed_start: u64,
    /// One past the last seed of the lot.
    pub seed_end: u64,
    /// Devices per shard (the final shard may be smaller). Treated as
    /// at least 1.
    pub shard_devices: u64,
    /// The lot plan (grid ∪ mask, like [`LotPlan::new`]).
    pub plan: LotPlan,
    /// The escalation schedule, budget and stopping policy included.
    pub schedule: EscalationSchedule,
}

impl JobRequest {
    /// How many shards the job splits into (0 for an empty seed range):
    /// [`ShardDriver::shard_count`].
    pub fn shard_count(&self) -> u64 {
        ShardDriver::shard_count(self.seed_start..self.seed_end, self.shard_devices)
    }

    /// The job's shard spans in seed order.
    pub fn spans(&self) -> Vec<Range<u64>> {
        self.span_iter().collect()
    }

    /// The job's shard spans in seed order, produced lazily
    /// ([`ShardDriver::spans`]): taking the first few spans of a huge
    /// seed range allocates nothing.
    pub fn span_iter(&self) -> impl Iterator<Item = Range<u64>> {
        ShardDriver::spans(self.seed_start..self.seed_end, self.shard_devices)
    }

    /// Renders the job object (the `"job"` payload of a submit frame).
    pub(crate) fn render(&self) -> String {
        let mut out = format!("{{\"dut\":{}", self.dut.render());
        let _ = write!(
            out,
            ",\"lot\":{{\"seed_start\":{},\"seed_end\":{}}},\"shard_devices\":{}",
            self.seed_start, self.seed_end, self.shard_devices
        );
        out.push_str(",\"plan\":{\"grid_hz\":[");
        for (i, f) in self.plan.grid().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_f64(&mut out, f.value());
        }
        out.push_str("],\"mask\":");
        write_mask_json(&mut out, self.plan.mask());
        out.push_str("},\"schedule\":{\"stopping\":");
        write_stopping_json(&mut out, self.schedule.stopping());
        out.push_str(",\"budget_s\":");
        match self.schedule.budget() {
            Some(b) => write_f64(&mut out, b.value()),
            None => out.push_str("null"),
        }
        out.push_str(",\"stages\":[");
        for (i, s) in self.schedule.stages().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_config_json(&mut out, s);
        }
        out.push_str("]}}");
        out
    }

    /// Interprets an already-parsed job object.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] on a missing/mistyped field, an unknown DUT
    /// family or stopping policy, an empty or non-escalating stage
    /// list, a stage at a zero or odd `periods`, a zero shard size, an
    /// empty seed range, an invalid mask point, or a shard of more than
    /// [`MAX_SHARD_POINTS`] points —
    /// every constructor precondition is checked here so untrusted input
    /// can never reach a library assert.
    pub fn from_json(doc: &Json) -> Result<Self, ReportParseError> {
        let dut = doc.field("dut")?;
        let family = dut.field("family")?.as_str()?;
        if family != "active_rc_paper" {
            return Err(ReportParseError::doc(format!(
                "unknown DUT family {family:?} (expected active_rc_paper)"
            )));
        }
        let dut = DutDescription {
            tolerance: dut.field("tolerance")?.as_f64()?,
            linearized: dut.field("linearized")?.as_bool()?,
        };

        let lot = doc.field("lot")?;
        let seed_start: u64 = lot.field("seed_start")?.as_int("seed")?;
        let seed_end: u64 = lot.field("seed_end")?.as_int("seed")?;
        if seed_start >= seed_end {
            return Err(ReportParseError::doc(format!(
                "empty seed range {seed_start}..{seed_end}"
            )));
        }
        let shard_devices: u64 = doc.field("shard_devices")?.as_int("shard size")?;
        if shard_devices == 0 {
            return Err(ReportParseError::doc("shard_devices must be at least 1"));
        }

        let plan_doc = doc.field("plan")?;
        let mut grid = Vec::new();
        for f in plan_doc.field("grid_hz")?.as_arr()? {
            grid.push(Hertz(f.as_f64()?));
        }
        let plan = LotPlan::new(&grid, mask_from_json(plan_doc.field("mask")?)?);
        let devices = shard_devices.min(seed_end - seed_start);
        let points = u64::try_from(plan.grid().len()).unwrap_or(u64::MAX);
        if devices.saturating_mul(points) > MAX_SHARD_POINTS {
            return Err(ReportParseError::doc(format!(
                "a shard of {devices} devices × {points} grid points exceeds \
                 {MAX_SHARD_POINTS} Bode points"
            )));
        }

        let sched_doc = doc.field("schedule")?;
        let stopping = stopping_from_json(sched_doc.field("stopping")?)?;
        let mut stages = Vec::new();
        for s in sched_doc.field("stages")?.as_arr()? {
            stages.push(config_from_json(s)?);
        }
        // `EscalationSchedule::new` asserts this; check it first so a
        // malformed frame is a typed error, not a panic.
        if let Some(defect) = EscalationSchedule::defect(&stages) {
            return Err(ReportParseError::doc(defect));
        }
        // A stage at a zero or odd M could only fail its shards, or pass
        // because nothing escalated to it: refuse it before queuing any.
        for stage in &stages {
            stage
                .check_periods()
                .map_err(|e| ReportParseError::doc(e.to_string()))?;
        }
        let mut schedule = EscalationSchedule::new(stages).with_stopping(stopping);
        if let budget @ Json::Num(_) = sched_doc.field("budget_s")? {
            schedule = schedule.with_budget(Seconds(budget.as_f64()?));
        }

        Ok(Self {
            dut,
            seed_start,
            seed_end,
            shard_devices,
            plan,
            schedule,
        })
    }
}

/// [`netan::fnv64`] of a rendered job — the content-addressed key the
/// service uses to name a job's checkpoint directory, so resubmitting
/// the same job resumes its persisted shards.
pub(crate) fn job_key(rendered: &str) -> u64 {
    netan::fnv64(rendered)
}

/// A frame sent by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Submit a job for screening.
    Submit(Box<JobRequest>),
    /// Ask the service to shut down gracefully.
    Shutdown,
}

impl ClientFrame {
    /// Renders the frame as one line (without the trailing newline).
    pub fn render(&self) -> String {
        match self {
            ClientFrame::Submit(job) => {
                format!(
                    "{{\"schema\":\"{SCHEMA}\",\"type\":\"submit\",\"job\":{}}}",
                    job.render()
                )
            }
            ClientFrame::Shutdown => {
                format!("{{\"schema\":\"{SCHEMA}\",\"type\":\"shutdown\"}}")
            }
        }
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] on malformed JSON, a wrong schema tag, or
    /// an unknown frame type.
    pub fn parse(line: &str) -> Result<Self, ReportParseError> {
        let doc = Json::parse(line)?;
        check_schema(&doc)?;
        match doc.field("type")?.as_str()? {
            "submit" => Ok(ClientFrame::Submit(Box::new(JobRequest::from_json(
                doc.field("job")?,
            )?))),
            "shutdown" => Ok(ClientFrame::Shutdown),
            other => Err(ReportParseError::doc(format!(
                "unknown client frame type {other:?}"
            ))),
        }
    }
}

/// The wire form of a [`ServeError`]: what error frames carry. Lot
/// errors cross as their rendered message (the typed `NetanError` is a
/// server-side value; the client sees its text).
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// See [`ServeError::QueueFull`].
    QueueFull {
        /// The queue's configured shard capacity.
        capacity: u64,
    },
    /// See [`ServeError::ShuttingDown`].
    ShuttingDown,
    /// See [`ServeError::ShardPanicked`].
    ShardPanicked {
        /// First seed of the failing shard.
        seed_start: u64,
        /// One past the last seed of the failing shard.
        seed_end: u64,
        /// The worker's panic payload, rendered to text.
        message: String,
    },
    /// See [`ServeError::Checkpoint`].
    Checkpoint {
        /// The checkpoint failure, rendered to text.
        message: String,
    },
    /// See [`ServeError::Lot`].
    Lot {
        /// The lot engine's error, rendered to text.
        message: String,
    },
    /// The client's frame could not be parsed; nothing was queued.
    /// Wire-only — it has no [`ServeError`] counterpart because it
    /// never originates inside the service itself.
    BadFrame {
        /// The parse failure, rendered to text.
        message: String,
    },
    /// The server already serves its most connections
    /// ([`MAX_CONNECTIONS`](crate::server::MAX_CONNECTIONS)): the
    /// connection is refused and closed. Wire-only, like
    /// [`BadFrame`](Self::BadFrame).
    TooManyConnections {
        /// The server's connection limit.
        limit: u64,
    },
}

impl From<&ServeError> for WireError {
    fn from(e: &ServeError) -> Self {
        match e {
            ServeError::QueueFull { capacity } => WireError::QueueFull {
                capacity: *capacity as u64,
            },
            ServeError::ShuttingDown => WireError::ShuttingDown,
            ServeError::ShardPanicked {
                seed_start,
                seed_end,
                message,
            } => WireError::ShardPanicked {
                seed_start: *seed_start,
                seed_end: *seed_end,
                message: message.clone(),
            },
            ServeError::Checkpoint { message } => WireError::Checkpoint {
                message: message.clone(),
            },
            ServeError::Lot(e) => WireError::Lot {
                message: e.to_string(),
            },
        }
    }
}

impl WireError {
    fn render_into(&self, out: &mut String) {
        match self {
            WireError::QueueFull { capacity } => {
                let _ = write!(out, "{{\"kind\":\"queue_full\",\"capacity\":{capacity}}}");
            }
            WireError::ShuttingDown => out.push_str("{\"kind\":\"shutting_down\"}"),
            WireError::ShardPanicked {
                seed_start,
                seed_end,
                message,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"shard_panicked\",\"seed_start\":{seed_start},\"seed_end\":{seed_end},\"message\":"
                );
                write_str(out, message);
                out.push('}');
            }
            WireError::Checkpoint { message } => {
                out.push_str("{\"kind\":\"checkpoint\",\"message\":");
                write_str(out, message);
                out.push('}');
            }
            WireError::Lot { message } => {
                out.push_str("{\"kind\":\"lot\",\"message\":");
                write_str(out, message);
                out.push('}');
            }
            WireError::BadFrame { message } => {
                out.push_str("{\"kind\":\"bad_frame\",\"message\":");
                write_str(out, message);
                out.push('}');
            }
            WireError::TooManyConnections { limit } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"too_many_connections\",\"limit\":{limit}}}"
                );
            }
        }
    }

    fn from_json(doc: &Json) -> Result<Self, ReportParseError> {
        match doc.field("kind")?.as_str()? {
            "queue_full" => Ok(WireError::QueueFull {
                capacity: doc.field("capacity")?.as_int("capacity")?,
            }),
            "shutting_down" => Ok(WireError::ShuttingDown),
            "shard_panicked" => Ok(WireError::ShardPanicked {
                seed_start: doc.field("seed_start")?.as_int("seed")?,
                seed_end: doc.field("seed_end")?.as_int("seed")?,
                message: doc.field("message")?.as_str()?.to_string(),
            }),
            "checkpoint" => Ok(WireError::Checkpoint {
                message: doc.field("message")?.as_str()?.to_string(),
            }),
            "lot" => Ok(WireError::Lot {
                message: doc.field("message")?.as_str()?.to_string(),
            }),
            "bad_frame" => Ok(WireError::BadFrame {
                message: doc.field("message")?.as_str()?.to_string(),
            }),
            "too_many_connections" => Ok(WireError::TooManyConnections {
                limit: doc.field("limit")?.as_int("limit")?,
            }),
            other => Err(ReportParseError::doc(format!(
                "unknown error kind {other:?}"
            ))),
        }
    }
}

/// A frame sent by the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// The job was queued; `shards` progress events will follow.
    Accepted {
        /// Server-assigned job id, echoed on every later frame.
        job: u64,
        /// Total shard count of the job.
        shards: u64,
    },
    /// One shard finished and merged.
    Progress {
        /// The job this progress belongs to.
        job: u64,
        /// First seed of the finished shard.
        seed_start: u64,
        /// One past the last seed of the finished shard.
        seed_end: u64,
        /// Shards finished so far (including this one).
        done: u64,
        /// Total shard count of the job.
        total: u64,
        /// Devices screened so far across the merged prefix.
        devices: u64,
        /// Simulated seconds spent so far by the merged prefix.
        spent_s: f64,
        /// Whether the shard was loaded from a persisted checkpoint
        /// instead of measured.
        resumed: bool,
    },
    /// A worker panicked on a shard; the shard is being retried.
    Retry {
        /// The job whose shard panicked.
        job: u64,
        /// First seed of the retried shard.
        seed_start: u64,
        /// One past the last seed of the retried shard.
        seed_end: u64,
        /// The panic payload, rendered to text.
        message: String,
    },
    /// The job completed: the merged `netan.lot.v5` report, nested
    /// verbatim (it re-renders byte-identically).
    Finished {
        /// The completed job.
        job: u64,
        /// The merged lot report.
        report: Box<LotReport>,
    },
    /// The submission was refused — nothing was queued.
    Rejected {
        /// Why the submission was refused.
        error: WireError,
    },
    /// The job failed after acceptance.
    Error {
        /// The failed job.
        job: u64,
        /// Why the job failed.
        error: WireError,
    },
    /// Graceful-shutdown acknowledgement; the connection closes next.
    Bye,
}

impl ServerFrame {
    /// Renders the frame as one line (without the trailing newline).
    pub fn render(&self) -> String {
        let mut out = format!("{{\"schema\":\"{SCHEMA}\",\"type\":");
        match self {
            ServerFrame::Accepted { job, shards } => {
                let _ = write!(out, "\"accepted\",\"job\":{job},\"shards\":{shards}}}");
            }
            ServerFrame::Progress {
                job,
                seed_start,
                seed_end,
                done,
                total,
                devices,
                spent_s,
                resumed,
            } => {
                let _ = write!(
                    out,
                    "\"progress\",\"job\":{job},\"shard\":{{\"seed_start\":{seed_start},\"seed_end\":{seed_end}}},\"done\":{done},\"total\":{total},\"devices\":{devices},\"spent_s\":"
                );
                write_f64(&mut out, *spent_s);
                let _ = write!(out, ",\"resumed\":{resumed}}}");
            }
            ServerFrame::Retry {
                job,
                seed_start,
                seed_end,
                message,
            } => {
                let _ = write!(
                    out,
                    "\"retry\",\"job\":{job},\"shard\":{{\"seed_start\":{seed_start},\"seed_end\":{seed_end}}},\"message\":"
                );
                write_str(&mut out, message);
                out.push('}');
            }
            ServerFrame::Finished { job, report } => {
                let _ = write!(
                    out,
                    "\"result\",\"job\":{job},\"report\":{}}}",
                    lot_json(report)
                );
            }
            ServerFrame::Rejected { error } => {
                out.push_str("\"rejected\",\"error\":");
                error.render_into(&mut out);
                out.push('}');
            }
            ServerFrame::Error { job, error } => {
                let _ = write!(out, "\"error\",\"job\":{job},\"error\":");
                error.render_into(&mut out);
                out.push('}');
            }
            ServerFrame::Bye => out.push_str("\"bye\"}"),
        }
        out
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] on malformed JSON, a wrong schema tag, an
    /// unknown frame type, or a malformed nested report.
    pub fn parse(line: &str) -> Result<Self, ReportParseError> {
        let doc = Json::parse(line)?;
        check_schema(&doc)?;
        match doc.field("type")?.as_str()? {
            "accepted" => Ok(ServerFrame::Accepted {
                job: doc.field("job")?.as_int("job id")?,
                shards: doc.field("shards")?.as_int("shard count")?,
            }),
            "progress" => {
                let shard = doc.field("shard")?;
                Ok(ServerFrame::Progress {
                    job: doc.field("job")?.as_int("job id")?,
                    seed_start: shard.field("seed_start")?.as_int("seed")?,
                    seed_end: shard.field("seed_end")?.as_int("seed")?,
                    done: doc.field("done")?.as_int("done count")?,
                    total: doc.field("total")?.as_int("total count")?,
                    devices: doc.field("devices")?.as_int("device count")?,
                    spent_s: doc.field("spent_s")?.as_f64()?,
                    resumed: doc.field("resumed")?.as_bool()?,
                })
            }
            "retry" => {
                let shard = doc.field("shard")?;
                Ok(ServerFrame::Retry {
                    job: doc.field("job")?.as_int("job id")?,
                    seed_start: shard.field("seed_start")?.as_int("seed")?,
                    seed_end: shard.field("seed_end")?.as_int("seed")?,
                    message: doc.field("message")?.as_str()?.to_string(),
                })
            }
            "result" => Ok(ServerFrame::Finished {
                job: doc.field("job")?.as_int("job id")?,
                report: Box::new(lot_report_from_json(doc.field("report")?)?),
            }),
            "rejected" => Ok(ServerFrame::Rejected {
                error: WireError::from_json(doc.field("error")?)?,
            }),
            "error" => Ok(ServerFrame::Error {
                job: doc.field("job")?.as_int("job id")?,
                error: WireError::from_json(doc.field("error")?)?,
            }),
            "bye" => Ok(ServerFrame::Bye),
            other => Err(ReportParseError::doc(format!(
                "unknown server frame type {other:?}"
            ))),
        }
    }
}

fn check_schema(doc: &Json) -> Result<(), ReportParseError> {
    let schema = doc.field("schema")?.as_str()?;
    if schema != SCHEMA {
        return Err(ReportParseError::doc(format!(
            "unsupported schema {schema:?} (expected {SCHEMA})"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netan::{AnalyzerConfig, GainMask};

    fn request() -> JobRequest {
        JobRequest {
            dut: DutDescription {
                tolerance: 0.05,
                linearized: true,
            },
            seed_start: 0,
            seed_end: 8,
            shard_devices: 2,
            plan: LotPlan::from_mask(GainMask::paper_lowpass()),
            schedule: EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200])
                .with_budget(Seconds(250.0)),
        }
    }

    #[test]
    fn submit_round_trips_byte_identically() {
        let frame = ClientFrame::Submit(Box::new(request()));
        let line = frame.render();
        let parsed = ClientFrame::parse(&line).expect("own output parses");
        assert_eq!(parsed, frame);
        assert_eq!(parsed.render(), line);
    }

    #[test]
    fn shard_arithmetic() {
        let r = request();
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.spans(), vec![0..2, 2..4, 4..6, 6..8]);
        let odd = JobRequest {
            seed_end: 7,
            shard_devices: 3,
            ..request()
        };
        assert_eq!(odd.shard_count(), 3);
        assert_eq!(odd.spans(), vec![0..3, 3..6, 6..7]);
        // The lazy spans of a 2⁶⁴-shard job start the same way and end at
        // the top of the seed range without wrapping.
        let huge = JobRequest {
            seed_start: 0,
            seed_end: u64::MAX,
            shard_devices: 1,
            ..request()
        };
        assert_eq!(
            huge.span_iter().take(3).collect::<Vec<_>>(),
            vec![0..1, 1..2, 2..3]
        );
        let top = JobRequest {
            seed_start: u64::MAX - 5,
            shard_devices: 4,
            ..huge
        };
        assert_eq!(
            top.spans(),
            vec![u64::MAX - 5..u64::MAX - 1, u64::MAX - 1..u64::MAX]
        );
    }

    #[test]
    fn malformed_jobs_are_typed_errors() {
        for doc in [
            r#"{"schema":"netan.job.v1","type":"submit","job":{}}"#,
            r#"{"schema":"netan.job.v1","type":"submit"}"#,
            r#"{"schema":"netan.lot.v5","type":"submit"}"#,
            r#"{"schema":"netan.job.v1","type":"warp"}"#,
            "{",
            "",
        ] {
            assert!(ClientFrame::parse(doc).is_err(), "accepted: {doc:?}");
        }
        // Constructor preconditions become parse errors, not asserts.
        let base = ClientFrame::Submit(Box::new(request())).render();
        for (needle, replacement) in [
            ("\"seed_end\":8", "\"seed_end\":0"),
            ("\"shard_devices\":2", "\"shard_devices\":0"),
            ("\"stopping\":\"staged\"", "\"stopping\":\"psychic\""),
            (
                "\"stages\":[{\"periods\":50",
                "\"stages\":[{\"periods\":500",
            ),
            ("\"hardware\":\"ideal\"", "\"hardware\":\"tube\""),
            // The 200 Hz mask point inverted: `MaskPoint::new` refuses it.
            ("\"min_db\":-1,\"max_db\":1", "\"min_db\":1,\"max_db\":-1"),
            // One shard of 2⁴⁰ devices: refused before it is allocated.
            (
                "\"seed_end\":8},\"shard_devices\":2",
                "\"seed_end\":1099511627776},\"shard_devices\":1099511627776",
            ),
        ] {
            let mutated = base.replace(needle, replacement);
            assert_ne!(mutated, base, "mutation must apply: {needle}");
            assert!(ClientFrame::parse(&mutated).is_err(), "accepted: {needle}");
        }
        // The 2⁴⁰-device shard is a document-level rejection: it names
        // the bound, not a byte.
        let huge = base.replace(
            "\"seed_end\":8},\"shard_devices\":2",
            "\"seed_end\":1099511627776},\"shard_devices\":1099511627776",
        );
        let points = request().plan.grid().len();
        assert_eq!(
            ClientFrame::parse(&huge).unwrap_err().to_string(),
            format!(
                "document invalid: a shard of 1099511627776 devices × {points} grid points \
                 exceeds {MAX_SHARD_POINTS} Bode points"
            )
        );
        // A schedule is refused with `EscalationSchedule::defect`'s
        // message: non-escalating stages, and no stage at all.
        let inverted = base.replace(
            "\"stages\":[{\"periods\":50",
            "\"stages\":[{\"periods\":500",
        );
        assert_eq!(
            ClientFrame::parse(&inverted).unwrap_err().to_string(),
            "document invalid: escalation stages must strictly increase M (500 then 200)"
        );
        let stages = base.find("\"stages\":[").unwrap() + "\"stages\":[".len();
        let end = stages + base[stages..].find(']').unwrap();
        let empty = format!("{}{}", &base[..stages], &base[end..]);
        assert_eq!(
            ClientFrame::parse(&empty).unwrap_err().to_string(),
            "document invalid: an escalation schedule needs at least one stage"
        );
    }

    #[test]
    fn odd_periods_are_refused_at_decode() {
        // Regression: a stage at a zero or odd M used to be accepted and
        // queued, its shards able only to fail, or to pass because no
        // device escalated to it. It is refused with the evaluator's
        // message, whichever stage it is, before a shard exists.
        let base = ClientFrame::Submit(Box::new(request())).render();
        for (needle, replacement, m) in [
            ("\"periods\":50", "\"periods\":51", 51),
            ("\"periods\":200", "\"periods\":201", 201),
            ("\"periods\":50", "\"periods\":0", 0),
        ] {
            let odd = base.replacen(needle, replacement, 1);
            assert_ne!(odd, base, "mutation must apply: {needle}");
            assert_eq!(
                ClientFrame::parse(&odd).unwrap_err().to_string(),
                format!(
                    "document invalid: evaluator error: evaluation periods must be positive \
                     and even, got {m}"
                )
            );
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = [
            ServerFrame::Accepted { job: 3, shards: 4 },
            ServerFrame::Progress {
                job: 3,
                seed_start: 0,
                seed_end: 2,
                done: 1,
                total: 4,
                devices: 2,
                spent_s: 12.5,
                resumed: false,
            },
            ServerFrame::Retry {
                job: 3,
                seed_start: 2,
                seed_end: 4,
                message: "injected \"quoted\" fault\n".to_string(),
            },
            ServerFrame::Rejected {
                error: WireError::QueueFull { capacity: 8 },
            },
            ServerFrame::Rejected {
                error: WireError::BadFrame {
                    message: "document invalid: not mine".to_string(),
                },
            },
            ServerFrame::Error {
                job: 3,
                error: WireError::ShardPanicked {
                    seed_start: 2,
                    seed_end: 4,
                    message: "boom".to_string(),
                },
            },
            ServerFrame::Bye,
        ];
        for frame in frames {
            let line = frame.render();
            let parsed = ServerFrame::parse(&line).expect("own output parses");
            assert_eq!(parsed, frame);
            assert_eq!(parsed.render(), line, "{line}");
        }
    }

    #[test]
    fn job_key_is_stable_and_content_addressed() {
        let a = request().render();
        let b = request().render();
        assert_eq!(job_key(&a), job_key(&b));
        let other = JobRequest {
            seed_end: 9,
            ..request()
        }
        .render();
        assert_ne!(job_key(&a), job_key(&other));
        // The FNV-1a reference vector: hash of the empty string is the
        // offset basis.
        assert_eq!(job_key(""), 0xcbf2_9ce4_8422_2325);
    }
}
