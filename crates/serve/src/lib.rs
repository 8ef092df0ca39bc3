//! Screening-as-a-service for the DATE'08 network analyzer.
//!
//! `netan-serve` turns the in-process lot machinery of the `netan`
//! crate into a long-running screening service: clients submit jobs —
//! a DUT description plus a [`netan::LotPlan`] and
//! [`netan::EscalationSchedule`] — over a line-delimited TCP protocol,
//! the service splits each job into device-range shards, feeds them to
//! a bounded worker pool built on [`netan::LotEngine::run_escalated_range`],
//! folds the results back together with [`netan::LotReport::merge`],
//! and streams per-shard progress back to the submitter.
//!
//! The layers, bottom up:
//!
//! - [`error`] — the typed [`ServeError`]: a long-running service never
//!   panics on bad input, a full queue, a dying worker, or shutdown.
//! - [`job`] — the `netan.job.v1` wire schema: [`JobRequest`] plus the
//!   client/server frames, built on the same hand-rolled JSON machinery
//!   and codecs as `netan.lot.v5`, with the same byte-exact parse→render
//!   round-trip guarantee; a submit's shard is bounded
//!   ([`job::MAX_SHARD_POINTS`]) before anything is queued.
//! - [`service`] — [`ScreenService`]: the bounded shard queue, worker
//!   pool, retry-once fault containment and graceful shutdown, with
//!   each job's in-order merging, budget threading and checkpoint
//!   persistence on one [`netan::ShardDriver`].
//! - [`server`] — [`JobServer`]: the TCP front end, one connection per
//!   submitter, at most [`MAX_CONNECTIONS`] at once, events streamed as
//!   they happen.
//!
//! Everything is std-only and deterministic: a job's merged report is
//! byte-identical to the equivalent monolithic
//! `run_escalated_range` call (unbudgeted) or [`netan::ShardDriver::drive`]
//! with the same shard size (budgeted), no matter how many workers raced
//! on its shards.

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod error;
pub mod job;
pub mod server;
pub mod service;

pub use error::ServeError;
pub use job::{ClientFrame, DutDescription, JobRequest, ServerFrame, WireError, SCHEMA};
pub use server::{JobServer, MAX_CONNECTIONS, MAX_FRAME_BYTES};
pub use service::{FaultPlan, JobEvent, ScreenService, ServiceConfig};
