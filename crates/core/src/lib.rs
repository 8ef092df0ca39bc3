//! `netan` — the paper's on-chip network analyzer for analog BIST.
//!
//! Reproduction of *“Practical Implementation of a Network Analyzer for
//! Analog BIST Applications”* (Barragán, Vázquez, Rueda — DATE 2008): an
//! SC sinewave generator ([`sigen`]) stimulates a DUT ([`dut`]); a
//! ΣΔ-based sinewave evaluator ([`sdeval`]) extracts amplitude and phase
//! **with hard error bounds**; everything is clocked from one master clock
//! so the oversampling ratio `N = 96` holds at every sweep point.
//!
//! The network analyzer (this crate) adds what Section III.C describes:
//!
//! * a **calibration** step over the bypass path that characterizes the
//!   test stimulus once (its amplitude and phase are set by `VA+−VA−` and
//!   the digital control, so they do not change across the sweep),
//! * **gain** = ratio of DUT-output and stimulus amplitude enclosures,
//! * **phase shift** = difference of the phase enclosures,
//! * a **frequency sweep** planner (log grid, constant `N`),
//! * **one parallel engine** ([`LotEngine`]) whose lane tasks measure
//!   every Bode point of a sweep or a lot in lockstep acquisitions, each
//!   task calibrating in one extra slot unless a calibration is stored,
//!   across worker threads with bit-identical results: a sweep is a lot
//!   of one device, and a lot of Monte-Carlo devices is the paper's
//!   production-screening scenario at throughput. The lane task is the
//!   one place such an acquisition is assembled and its points formed;
//!   [`NetworkAnalyzer::measure_point_calibrated`] measures one point
//!   alone, the reference each lane's points equal,
//! * **adaptive refinement** ([`NetworkAnalyzer::sweep_adaptive_with`]):
//!   rounds of curvature/enclosure-scored bisection that concentrate
//!   points where the response bends, each round a one-device lot on the
//!   same engine, with the same serial == parallel bit-identity,
//! * **escalation scheduling** ([`EscalationSchedule`],
//!   [`LotEngine::run_escalated_range`]): budgeted multi-pass re-testing that
//!   screens the lot at a cheap `M` and re-tests only still-ambiguous
//!   devices at deeper stages — the paper's accuracy-for-test-time trade
//!   as an operational policy. Every device of a stage is charged the
//!   stage's per-device cost, re-tests are admitted in seed order while
//!   the budget lasts, and [`StoppingPolicy::Sequential`] grows each
//!   device's acquisition only until its own verdict decides, charging
//!   just the period increments,
//! * **sharded lots** ([`LotEngine::run_range`], [`LotReport::merge`]):
//!   every lot run takes a contiguous seed range and is a shard, run
//!   on one shard driver ([`ShardDriver`]) with **checkpoint/resume**
//!   ([`ShardDriver::drive`]): a lot split into seed ranges merges back
//!   byte-identical to the monolithic run, an interrupted drive resumes
//!   from its persisted `netan.lot.v5` shard documents — only those that
//!   re-render byte for byte and whose stage records name the drive's
//!   own analyzer configurations — and a budgeted drive threads the
//!   remaining global budget through successive shards,
//! * a **harmonic distortion** mode (paper Fig. 10c), one acquisition per
//!   harmonic on the engine's worker pool,
//! * **report sinks**: tables, CSV and JSON for Bode plots and lot
//!   screening reports.
//!
//! # Example
//!
//! ```
//! use netan::{AnalyzerConfig, NetworkAnalyzer};
//! use dut::ActiveRcFilter;
//! use mixsig::units::Hertz;
//!
//! let dut = ActiveRcFilter::paper_dut().linearized();
//! let mut analyzer = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal());
//! let point = analyzer.measure_point(Hertz(1000.0))?;
//! // 1 kHz Butterworth: −3 dB at the cut-off.
//! assert!((point.gain_db.est + 3.0).abs() < 0.3);
//! # Ok::<(), netan::NetanError>(())
//! ```

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

pub mod adaptive;
pub mod analyzer;
pub mod checkpoint;
pub mod error;
pub mod harmonics;
pub mod json;
pub mod lot;
pub mod plan;
pub mod pool;
pub mod report;
pub mod spec;
pub mod sweep;

pub use adaptive::{interpolate_gain_db, reconstruction_error_db, RefinementPolicy};
pub use analyzer::{AnalyzerConfig, BodePoint, Calibration, HardwareProfile, NetworkAnalyzer};
pub use checkpoint::{fnv64, CheckpointError, Shard, ShardDriver, ShardTask};
pub use error::NetanError;
pub use harmonics::DistortionReport;
pub use json::Json;
pub use lot::{
    DeviceReport, EscalationSchedule, LotEngine, LotPlan, LotReport, StageSummary, StoppingPolicy,
    VerdictCounts, LANE_DEVICES,
};
pub use plan::{grid_time, measurement_time, plan_measurement, TestPlan};
pub use report::{
    bode_csv, bode_json, bode_table, distortion_table, lot_csv, lot_json, lot_report_from_json,
    lot_table, parse_lot_json, ReportParseError,
};
pub use spec::{GainMask, MaskPoint, SpecVerdict};
pub use sweep::{log_spaced, BodePlot, LowpassFit};

// Re-export the building blocks users need at the API surface.
pub use sdeval::Bounded;

/// The `rust` blocks of the workspace README, compiled and run as this
/// crate's doctests, so the README cannot show an API that is gone.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;
