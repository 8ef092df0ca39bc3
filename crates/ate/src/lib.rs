//! Test-equipment substrate: the roles the paper delegates to bench
//! instruments, re-implemented as simulation components.
//!
//! In the paper's test set-up (Fig. 7) an **Agilent 93000** generates the
//! digital control signals and clock, provides supplies/references, feeds
//! characterization waveforms, and acquires/processes the evaluator
//! bitstreams; a **LeCroy WaveSurfer 422** oscilloscope provides the
//! reference spectrum for the distortion comparison (Fig. 10c). This crate
//! provides:
//!
//! * [`awg`] — an arbitrary waveform generator for multitone stimuli
//!   (the Fig. 9 workload is synthesized by the ATE, not the on-chip
//!   generator),
//! * [`scope`] — an FFT-based "digital oscilloscope" reference analyzer,
//! * [`control`] — the ATE's digital pattern role: clock-aligned vectors
//!   for `c1..c4`, `Φin`, `q1k`, `q2k`,
//! * [`board`] — the demonstrator-board wiring: generator → DUT or
//!   generator → calibration bypass → evaluator (the dashed path of
//!   Fig. 1).
//!
//! # Example
//!
//! ```
//! use ate::awg::MultitoneAwg;
//!
//! // Paper Fig. 9 stimulus: harmonics 1–3 at 0.2 / 0.02 / 0.002 V.
//! let mut awg = MultitoneAwg::fig9_stimulus(96);
//! let mut src = awg.source();
//! let first: Vec<f64> = (0..4).map(|_| src()).collect();
//! assert!(first[1] != 0.0);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod awg;
pub mod board;
pub mod control;
pub mod scope;

pub use awg::MultitoneAwg;
pub use board::{DemoBoard, SignalPath};
pub use control::{ControlProgram, ControlVector};
pub use scope::DigitalOscilloscope;
