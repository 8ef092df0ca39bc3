//! Mixed-signal behavioral simulation substrate for `sc-netan`.
//!
//! The paper's network analyzer is a 0.35 µm CMOS chip; this crate provides
//! the behavioral models that replace the silicon in the reproduction:
//!
//! * [`units`] — newtype wrappers for frequencies, times and voltages,
//! * [`clock`] — the master clock and the paper's 1:6 divider,
//! * [`opamp`] — block-level op-amp non-idealities (finite gain, GBW-limited
//!   settling, slew rate, swing, offset, noise) modelling the
//!   folded-cascode amplifier of paper Fig. 3,
//! * [`sc`] — switched-capacitor integrator charge-transfer engine,
//! * [`noise`] — seeded noise sources incl. `kT/C` sampling noise,
//! * [`mismatch`] — capacitor mismatch / process-variation Monte Carlo,
//! * [`ct`] — continuous-time LTI state-space simulation with exact
//!   zero-order-hold discretization (matrix exponential) and s-domain
//!   transfer-function evaluation, used for the active-RC DUT,
//! * [`matrix`] — the small dense-matrix kernel backing [`ct`].
//!
//! # Example
//!
//! ```
//! use mixsig::clock::MasterClock;
//!
//! // The paper's clocking: f_gen = f_eva/6, f_wave = f_eva/96.
//! let clk = MasterClock::from_hz(6.0e6);
//! assert_eq!(clk.generator_clock().frequency_hz(), 1.0e6);
//! assert_eq!(clk.stimulus_frequency().value(), 62.5e3);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod clock;
pub mod ct;
pub mod matrix;
pub mod mismatch;
pub mod noise;
pub mod opamp;
pub mod sc;
pub mod units;

pub use clock::MasterClock;
pub use ct::{StateSpace, TransferFunction};
pub use matrix::Matrix;
pub use mismatch::CapacitorLot;
pub use noise::NoiseSource;
pub use opamp::OpAmpModel;
pub use sc::ScIntegrator;
pub use units::{Hertz, Seconds, Volts};
