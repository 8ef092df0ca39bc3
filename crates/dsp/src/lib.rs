//! Pure-Rust DSP substrate for the `sc-netan` workspace.
//!
//! This crate owns every piece of signal processing the network analyzer
//! reproduction needs, with no external dependencies:
//!
//! * [`complex`] — a minimal `Complex64` type,
//! * [`fft`] — iterative radix-2 Cooley–Tukey FFT / inverse FFT,
//! * [`goertzel`] — single-bin DFT evaluation,
//! * [`window`] — spectral analysis windows and their gains,
//! * [`spectrum`] — periodograms and peak bookkeeping,
//! * [`metrics`] — THD and SFDR,
//! * [`db`] — decibel conversions and the paper's "dB full-scale" axis,
//! * [`tone`] — sine and multitone synthesis.
//!
//! # Example
//!
//! ```
//! use dsp::tone::Tone;
//! use dsp::spectrum::Spectrum;
//! use dsp::window::Window;
//!
//! // 64 coherent cycles in 4096 samples.
//! let x = Tone::new(64.0 / 4096.0, 1.0, 0.0).samples(4096);
//! let spec = Spectrum::periodogram(&x, Window::Rect);
//! assert!((spec.amplitude(64) - 1.0).abs() < 1e-9);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod complex;
pub mod db;
pub mod fft;
pub mod goertzel;
pub mod metrics;
pub mod spectrum;
pub mod tone;
pub mod window;

pub use complex::Complex64;
pub use db::{amplitude_to_db, db_to_amplitude, power_to_db, DBFS_REF_VOLTS};
pub use metrics::{sfdr, thd, HarmonicAnalysis};
pub use spectrum::Spectrum;
pub use tone::{Multitone, Tone};
pub use window::Window;
