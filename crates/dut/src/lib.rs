//! Device-under-test library.
//!
//! The paper's demonstrator board carries an **active-RC 2nd-order low-pass
//! filter with a 1 kHz cut-off** as the DUT. This crate models that filter
//! (including component tolerances and the weak output nonlinearity that
//! produces the harmonic-distortion levels of paper Fig. 10c) plus a small
//! zoo of other biquads so examples and tests can exercise the analyzer on
//! more shapes.
//!
//! A [`Dut`] describes a device; [`Dut::instantiate`] produces a streaming
//! simulator ([`DutSim`]) at a given sampling rate — the analyzer samples
//! the DUT at the master clock `f_eva`, which changes at every sweep point,
//! so instantiation is per-measurement.
//!
//! # Example
//!
//! ```
//! use dut::{ActiveRcFilter, Dut};
//! use mixsig::units::Hertz;
//!
//! // The paper's DUT: 1 kHz Butterworth low-pass.
//! let dut = ActiveRcFilter::paper_dut();
//! let r = dut.ideal_response(Hertz(1000.0));
//! assert!((20.0 * r.magnitude.log10() + 3.01).abs() < 0.05);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

mod active_rc;
pub mod group;
pub mod linear;
pub mod nonlinear;
mod traits;

pub use active_rc::ActiveRcFilter;
pub use group::{process_group, LtiCore};
pub use linear::LinearDut;
pub use nonlinear::{NonlinearDut, Polynomial};
pub use traits::{Bypass, Dut, DutSim};
