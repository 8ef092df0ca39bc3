//! The paper's sinewave evaluator (Section III.B): square-wave modulation +
//! matched first-order ΣΔ modulators + signature counters + signature DSP.
//!
//! The signal under evaluation `x(t)` is multiplied by two square waves in
//! quadrature, `SQ_kT(t)` and `SQ_kT(t − T/4k)` (amplitude ±1, period
//! `T/k`); the multiplication is folded into the input switching of the two
//! ΣΔ modulators (paper Fig. 5, control signal `q_k`). The resulting
//! bitstreams are *simply summed* over `M` periods of `x` into signatures
//! `I1k`, `I2k` — and because the modulation is analog, the ΣΔ
//! quantization error telescopes into the bounded terms
//! `ε1k, ε2k ∈ [−4, +4]` of paper eq. (3)–(5), independent of `M`. Basic
//! digital arithmetic then yields the DC level `B`, harmonic amplitudes
//! `Ak` and phases `φk` **with hard error bounds** that shrink as `1/(MN)`.
//!
//! Validity condition (paper Section III.B): `M` even and `N/(8k)` an
//! integer.
//!
//! # Example
//!
//! ```
//! use sdeval::{EvaluatorConfig, SinewaveEvaluator};
//! use dsp::tone::Tone;
//!
//! // A 0.2 V tone at f_eva/96, evaluated over M = 100 periods.
//! let mut evaluator = SinewaveEvaluator::new(EvaluatorConfig::ideal());
//! let tone = Tone::new(1.0 / 96.0, 0.2, 0.4);
//! let mut n = 0usize;
//! let mut src = move || {
//!     let v = tone.sample(n);
//!     n += 1;
//!     v
//! };
//! let m = evaluator.measure_harmonic(&mut src, 1, 100)?;
//! assert!((m.amplitude.est - 0.2).abs() < 0.01);
//! assert!(m.amplitude.lo <= 0.2 && 0.2 <= m.amplitude.hi);
//! # Ok::<(), sdeval::EvalError>(())
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod evaluator;
pub mod modulator;
pub mod modulator2;
pub mod signature;
pub mod squarewave;

pub use evaluator::{
    BlockSource, DcMeasurement, EvalError, EvaluatorConfig, FnSource, HarmonicMeasurement,
    LaneSource, SinewaveEvaluator, DEFAULT_BLOCK_SAMPLES,
};
pub use modulator::{
    device_groups, ComparatorModel, ModulatorPair, ModulatorState, SdmConfig, SigmaDeltaModulator,
    GROUP_DEVICES,
};
pub use modulator2::SecondOrderModulator;
pub use signature::{Bounded, SignaturePair, EPSILON_BOUND};
pub use squarewave::QuadratureSquareWave;
