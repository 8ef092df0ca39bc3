//! The paper's switched-capacitor sinewave generator (Section III.A).
//!
//! The generator is a fully-differential 2nd-order SC filter whose input
//! capacitor is replaced by a time-variant array of four capacitors
//! `CI1..CI4` with weights `CIk = 2·sin(kπ/8)` (paper eq. 1–2, Fig. 2b).
//! A simple digital sequencer connects them to the signal path one at a
//! time and flips the polarity with `Φin` (Fig. 2c), so the sampled input
//! charge traces a 16-step quantized sine at `f_wave = f_gen/16`. The
//! biquad — capacitor values in Table I — filters the quantization images.
//!
//! ## Topology note (documented substitution)
//!
//! The paper gives the capacitor values (Table I) but not the full charge
//! routing. Working backwards from the values: with charge transfer on
//! *both* clock phases (the `D`-labelled delay elements of Fig. 2a), the
//! two-integrator loop has
//!
//! ```text
//! ω0·T = √(C·D/(A·B)) = 0.1971 rad ≈ 2π/32,   Q ≈ 2.48
//! ```
//!
//! i.e. the biquad *resonates at the generated frequency* and its gain at
//! `f_wave` is `Q/D ≈ 0.96`, which together with the staircase fundamental
//! `2·(VA+−VA−)` reproduces the paper's measured amplitude scaling
//! (±75 mV references → ≈300 mV output, a net ×2). We therefore implement
//! the canonical two-integrator loop with that assignment:
//! integrating caps `A` (first op-amp) and `B` (second), coupling `C`,
//! loop feedback `D`, damping `F`.
//!
//! # Example
//!
//! ```
//! use sigen::{GeneratorConfig, SinewaveGenerator};
//! use mixsig::clock::MasterClock;
//! use mixsig::units::Volts;
//!
//! // Paper Fig. 8a: f_eva = 6 MHz → 62.5 kHz output, ±150 mV references.
//! let cfg = GeneratorConfig::ideal(MasterClock::from_hz(6.0e6), Volts(0.300));
//! let mut gen = SinewaveGenerator::new(cfg);
//! let wave = gen.waveform_at_feva(96 * 20);
//! let peak = wave[96 * 10..].iter().fold(0.0f64, |m, &v| m.max(v.abs()));
//! assert!((peak - 0.6).abs() < 0.08, "≈600 mV output, got {peak}");
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod analysis;
pub mod array;
pub mod biquad;
pub mod generator;
pub mod sequencer;

pub use analysis::GeneratorSpectrum;
pub use array::CapacitorArray;
pub use biquad::{GeneratorBiquad, TableI, TABLE_I};
pub use generator::{GeneratorConfig, SinewaveGenerator};
pub use sequencer::{StepSequencer, STEPS_PER_PERIOD};
