//! The complete sinewave evaluator: acquisition orchestration + DSP.
//!
//! [`SinewaveEvaluator::measure_harmonic`] drives the two matched ΣΔ
//! modulators with the quadrature square waves for harmonic `k`, integrates
//! the bitstreams over `M` periods, and converts the signatures into
//! amplitude/phase enclosures (paper eq. 4–5).
//!
//! ## Offset cancellation ("basic arithmetic operations")
//!
//! In chopped mode (the default) every measurement is acquired twice with
//! the modulating square waves inverted; the halved signature difference
//! `(I⁺ − I⁻)/2` cancels the modulator offset exactly while preserving the
//! `ε ∈ [−4, 4]` bound. This realizes the paper's statement that the
//! signatures "are processed using basic arithmetic operations in the
//! digital domain to cancel the offset contribution of the modulators".

use crate::modulator::{
    device_groups, ModulatorPair, SdmConfig, SigmaDeltaModulator, GROUP_DEVICES,
};
use crate::signature::{
    amplitude_from_signatures, dc_from_signature, phase_from_signatures, Bounded, SignaturePair,
};
use crate::squarewave::{QuadratureSquareWave, SquareWaveError};
use std::ops::Range;

/// Default acquisition block length, master-clock samples.
///
/// Large enough to amortize the per-block square-wave setup and keep the
/// generator → DUT → modulator loops tight; small enough that the three
/// scratch buffers stay comfortably in cache.
pub const DEFAULT_BLOCK_SAMPLES: usize = 1024;

/// A source of samples at the master-clock rate that can be drained a
/// block at a time — the acquisition-side counterpart of the per-sample
/// `FnMut() -> f64` closures.
///
/// Implementations must produce exactly the stream the equivalent
/// per-sample source would produce: `fill_block` over any partitioning of
/// a window yields the same samples in the same order.
pub trait BlockSource {
    /// Fills `out` with the next `out.len()` samples.
    fn fill_block(&mut self, out: &mut [f64]);
}

/// Adapts a per-sample closure to the [`BlockSource`] API (fills the
/// block one call at a time — the compatibility path, not the fast one).
pub struct FnSource<'a>(pub &'a mut dyn FnMut() -> f64);

impl BlockSource for FnSource<'_> {
    fn fill_block(&mut self, out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = (self.0)();
        }
    }
}

/// A lane: any number of devices driven by one shared stimulus, drained
/// a block at a time — the multi-device counterpart of [`BlockSource`].
///
/// Each block is one [`advance`](Self::advance) of the shared stimulus
/// followed by the devices' responses in device order, one
/// [`group_block`](Self::group_block) per group of consecutive devices.
/// Device `d` must see exactly the samples a source of its own would
/// produce: its response to the same stimulus, block after block. A
/// "device" is whatever responds to the stimulus: a lane of a lot may
/// mount one device at several stimulus frequencies, a slot each.
///
/// Several lanes with stimuli of their own can share one acquisition
/// ([`SinewaveEvaluator::measure_harmonic_lanes`]): each advances its
/// stimulus once per block, and all share the block's noise draws.
pub trait LaneSource {
    /// Number of devices in the lane.
    fn devices(&self) -> usize;

    /// Advances the shared stimulus by `len` samples — the next block.
    fn advance(&mut self, len: usize);

    /// Writes the responses of `devices`, a group of 1, 2, 4 or
    /// [`GROUP_DEVICES`] consecutive devices ([`device_groups`]), to
    /// the block the last
    /// [`advance`](Self::advance) produced into `out`, interleaved per
    /// sample: with `w = devices.len()`, `out[t·w + s]` is device
    /// `devices.start + s`'s sample `t`, and `out.len()` is `w` times
    /// the block's length. A group of one is that device's block alone.
    /// A source may panic on a group of any other width.
    fn group_block(&mut self, devices: Range<usize>, out: &mut [f64]);
}

/// A [`BlockSource`] as a lane of one device: the source fills the
/// device's block directly, so the one-device path copies nothing.
struct OneDevice<'a>(&'a mut dyn BlockSource);

impl LaneSource for OneDevice<'_> {
    fn devices(&self) -> usize {
        1
    }

    fn advance(&mut self, _len: usize) {}

    fn group_block(&mut self, _devices: Range<usize>, out: &mut [f64]) {
        self.0.fill_block(out);
    }
}

/// Errors from an evaluator measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// `M` must be a positive even number of periods (paper Section III.B).
    OddPeriods {
        /// The requested period count.
        m: u32,
    },
    /// `N` must be a positive multiple of `8k`.
    InvalidRatio {
        /// Oversampling ratio.
        n: u32,
        /// Harmonic index.
        k: u32,
    },
    /// Harmonic measurements need `k ≥ 1`; use
    /// [`SinewaveEvaluator::measure_dc`] for `k = 0`.
    HarmonicIndexZero,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::OddPeriods { m } => {
                write!(f, "evaluation periods must be positive and even, got {m}")
            }
            EvalError::InvalidRatio { n, k } => {
                write!(
                    f,
                    "oversampling ratio {n} is not a multiple of 8k = {}",
                    8 * k
                )
            }
            EvalError::HarmonicIndexZero => {
                write!(
                    f,
                    "harmonic index must be at least 1; use measure_dc for DC"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SquareWaveError> for EvalError {
    fn from(e: SquareWaveError) -> Self {
        match e {
            SquareWaveError::InvalidRatio { n, k } => EvalError::InvalidRatio { n, k },
        }
    }
}

/// Configuration of the sinewave evaluator.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatorConfig {
    /// Oversampling ratio `N = f_eva/f_wave` (96 by construction in the
    /// paper's analyzer; exposed for ablation studies).
    pub n: u32,
    /// Configuration shared by the two matched modulators.
    pub sdm: SdmConfig,
    /// Whether offset-cancelling chopped acquisition is used.
    pub chopped: bool,
    /// Acquisition block length in master-clock samples (clamped to at
    /// least 1 and at most the acquisition window). Any value produces
    /// bit-identical measurements; this is a throughput knob only.
    pub block_samples: usize,
}

impl EvaluatorConfig {
    /// Ideal evaluator at the paper's `N = 96`.
    pub fn ideal() -> Self {
        Self {
            n: 96,
            sdm: SdmConfig::ideal(),
            chopped: true,
            block_samples: DEFAULT_BLOCK_SAMPLES,
        }
    }

    /// Evaluator with the paper's 0.35 µm non-idealities.
    pub fn cmos_035um(seed: u64) -> Self {
        Self {
            n: 96,
            sdm: SdmConfig::cmos_035um(seed),
            chopped: true,
            block_samples: DEFAULT_BLOCK_SAMPLES,
        }
    }

    /// Returns the configuration with a different oversampling ratio.
    #[must_use]
    pub fn with_n(mut self, n: u32) -> Self {
        self.n = n;
        self
    }

    /// Returns the configuration with chopping enabled or disabled.
    #[must_use]
    pub fn with_chopped(mut self, chopped: bool) -> Self {
        self.chopped = chopped;
        self
    }

    /// Returns the configuration with a different acquisition block
    /// length (`usize::MAX` means "one block per window").
    #[must_use]
    pub fn with_block_samples(mut self, block_samples: usize) -> Self {
        self.block_samples = block_samples;
        self
    }
}

impl Default for EvaluatorConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Result of a harmonic measurement (paper eq. 4–5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarmonicMeasurement {
    /// Harmonic index `k`.
    pub k: u32,
    /// Amplitude enclosure, volts peak.
    pub amplitude: Bounded,
    /// Phase enclosure relative to `SQ_kT(t)`, radians.
    pub phase: Bounded,
    /// The underlying signatures.
    pub signatures: SignaturePair,
    /// Total master-clock samples consumed (both chop phases included).
    pub samples_consumed: u64,
}

/// Result of a DC measurement (paper eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcMeasurement {
    /// DC level enclosure, volts.
    pub level: Bounded,
    /// The underlying signature.
    pub signature: f64,
    /// Total master-clock samples consumed.
    pub samples_consumed: u64,
}

/// The sinewave evaluator: two matched ΣΔ modulators + counters + DSP.
#[derive(Debug, Clone)]
pub struct SinewaveEvaluator {
    config: EvaluatorConfig,
    modulators: ModulatorPair,
}

impl SinewaveEvaluator {
    /// Builds the evaluator; the two modulators are matched (identical
    /// configuration) but carry independent noise streams.
    pub fn new(config: EvaluatorConfig) -> Self {
        let mut cfg_i = config.sdm.clone();
        let mut cfg_q = config.sdm.clone();
        cfg_i.seed = config.sdm.seed.wrapping_mul(2).wrapping_add(1);
        cfg_q.seed = config.sdm.seed.wrapping_mul(2).wrapping_add(2);
        Self {
            modulators: ModulatorPair::new(
                SigmaDeltaModulator::new(cfg_i),
                SigmaDeltaModulator::new(cfg_q),
            ),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EvaluatorConfig {
        &self.config
    }

    /// Measures harmonic `k ≥ 1` of the signal produced by `source`
    /// (one sample per call at the master-clock rate) over `m` periods
    /// (per chop phase when chopping is enabled).
    ///
    /// # Errors
    ///
    /// * [`EvalError::HarmonicIndexZero`] if `k == 0`,
    /// * [`EvalError::OddPeriods`] if `m` is zero or odd,
    /// * [`EvalError::InvalidRatio`] if `N` is not a multiple of `8k`.
    pub fn measure_harmonic(
        &mut self,
        source: &mut dyn FnMut() -> f64,
        k: u32,
        m: u32,
    ) -> Result<HarmonicMeasurement, EvalError> {
        self.measure_harmonic_blocks(&mut FnSource(source), k, m)
    }

    /// Like [`measure_harmonic`](Self::measure_harmonic), but drains the
    /// signal in blocks of [`EvaluatorConfig::block_samples`] — the hot
    /// path: the source fills a buffer batch-wise and each modulator
    /// consumes it in one tight loop. Bit-identical to the per-sample
    /// wrapper for any block length. It is the one-device case of
    /// [`measure_harmonic_lanes`](Self::measure_harmonic_lanes).
    ///
    /// # Errors
    ///
    /// Same contract as [`measure_harmonic`](Self::measure_harmonic).
    pub fn measure_harmonic_blocks(
        &mut self,
        source: &mut dyn BlockSource,
        k: u32,
        m: u32,
    ) -> Result<HarmonicMeasurement, EvalError> {
        let sq = Self::harmonic_wave(k, m, self.config.n)?;
        let mut signatures = [(0.0, 0.0)];
        let consumed = self.acquire(&mut [&mut OneDevice(source)], sq, m, &mut signatures);
        let [pair] = signatures;
        Ok(self.harmonic(sq, m, pair, consumed))
    }

    /// Measures harmonic `k ≥ 1` of every device of every lane of
    /// `sources` over `m` periods, in one lockstep acquisition: one
    /// measurement per device, lane after lane, in device order within
    /// a lane.
    ///
    /// The devices share the acquisition's noise: each block's
    /// comparator and `kT/C` draws are taken once, before any device of
    /// any lane steps, and every device's modulator states run through
    /// them. Every device starts from the evaluator's current modulator
    /// state, so each measurement is bit-identical to a
    /// [`measure_harmonic_blocks`] of that device alone on a clone of
    /// this evaluator, and each lane's measurements to the measurements
    /// of that lane alone, passed as the only lane, on a clone. The lanes
    /// need not share a stimulus: each advances its own. Afterwards the
    /// evaluator stands where the first device's acquisition alone would
    /// leave it: noise streams and modulator state. Lanes of no devices
    /// in all draw nothing and leave it as it was.
    ///
    /// [`measure_harmonic_blocks`]: Self::measure_harmonic_blocks
    ///
    /// # Errors
    ///
    /// Same contract as [`measure_harmonic`](Self::measure_harmonic).
    pub fn measure_harmonic_lanes(
        &mut self,
        sources: &mut [&mut dyn LaneSource],
        k: u32,
        m: u32,
    ) -> Result<Vec<HarmonicMeasurement>, EvalError> {
        let sq = Self::harmonic_wave(k, m, self.config.n)?;
        let devices = sources.iter().map(|source| source.devices()).sum();
        let mut signatures = vec![(0.0, 0.0); devices];
        let consumed = self.acquire(sources, sq, m, &mut signatures);
        Ok(signatures
            .into_iter()
            .map(|pair| self.harmonic(sq, m, pair, consumed))
            .collect())
    }

    /// Refuses an evaluation length `m` no measurement can run over:
    /// zero, or odd (paper Section III.B). Every measurement makes this
    /// check before it acquires.
    ///
    /// # Errors
    ///
    /// [`EvalError::OddPeriods`] if `m` is zero or odd.
    pub fn check_periods(m: u32) -> Result<(), EvalError> {
        if m == 0 || !m.is_multiple_of(2) {
            return Err(EvalError::OddPeriods { m });
        }
        Ok(())
    }

    /// The square waves of a harmonic measurement, after the validity
    /// checks.
    fn harmonic_wave(k: u32, m: u32, n: u32) -> Result<QuadratureSquareWave, EvalError> {
        if k == 0 {
            return Err(EvalError::HarmonicIndexZero);
        }
        Self::check_periods(m)?;
        Ok(QuadratureSquareWave::new(k, n)?)
    }

    /// Amplitude and phase enclosures from one device's signatures.
    fn harmonic(
        &self,
        sq: QuadratureSquareWave,
        m: u32,
        (i1, i2): (f64, f64),
        consumed: u64,
    ) -> HarmonicMeasurement {
        let pair = SignaturePair {
            i1,
            i2,
            m,
            n: self.config.n,
            k: sq.k(),
        };
        let c = sq.fundamental_coefficient();
        let vref = self.config.sdm.vref.value();
        HarmonicMeasurement {
            k: sq.k(),
            amplitude: amplitude_from_signatures(&pair, vref, c),
            phase: phase_from_signatures(&pair, c),
            signatures: pair,
            samples_consumed: consumed,
        }
    }

    /// Measures the DC level `B` (paper eq. 3) over `m` periods per chop
    /// phase.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::OddPeriods`] if `m` is zero or odd.
    pub fn measure_dc(
        &mut self,
        source: &mut dyn FnMut() -> f64,
        m: u32,
    ) -> Result<DcMeasurement, EvalError> {
        self.measure_dc_blocks(&mut FnSource(source), m)
    }

    /// Like [`measure_dc`](Self::measure_dc), over a [`BlockSource`].
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::OddPeriods`] if `m` is zero or odd.
    pub fn measure_dc_blocks(
        &mut self,
        source: &mut dyn BlockSource,
        m: u32,
    ) -> Result<DcMeasurement, EvalError> {
        Self::check_periods(m)?;
        let sq = QuadratureSquareWave::new(0, self.config.n).expect("k = 0 is always valid");
        let mut signatures = [(0.0, 0.0)];
        let consumed = self.acquire(&mut [&mut OneDevice(source)], sq, m, &mut signatures);
        let [(i1, _)] = signatures;
        let vref = self.config.sdm.vref.value();
        Ok(DcMeasurement {
            level: dc_from_signature(i1, m, self.config.n, vref),
            signature: i1,
            samples_consumed: consumed,
        })
    }

    /// Measures several harmonics back to back from a continuing source
    /// (each window is an integer number of periods, so coherence is
    /// preserved across measurements).
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`measure_harmonic`](Self::measure_harmonic).
    pub fn measure_harmonics(
        &mut self,
        source: &mut dyn FnMut() -> f64,
        harmonics: &[u32],
        m: u32,
    ) -> Result<Vec<HarmonicMeasurement>, EvalError> {
        harmonics
            .iter()
            .map(|&k| self.measure_harmonic(source, k, m))
            .collect()
    }

    /// Runs one (or two, when chopping) acquisition windows over every
    /// device of every lane of `sources`, writing each device's
    /// processed signatures to its slot of `signatures` (one slot per
    /// device, lane after lane); returns the samples consumed per device.
    /// Lanes of no devices in all return before the first window, so
    /// they draw nothing.
    ///
    /// The window is drained in blocks, and every block runs the same
    /// way whatever the hardware. Each source advances its stimulus
    /// once, and the modulator pair draws the block's noise once
    /// ([`ModulatorPair::draw_block`]; an exact pair draws nothing), with
    /// polarities from a running phase counter
    /// ([`QuadratureSquareWave::phases`]). Then, lane after lane, the
    /// devices run in groups of [`GROUP_DEVICES`] in device order (a
    /// lane's tail of fewer runs in power-of-two groups,
    /// [`device_groups`]): the source fills a group's samples
    /// interleaved per sample
    /// ([`LaneSource::group_block`]) and one kernel steps all of the
    /// group's I and Q modulator states per sample
    /// ([`ModulatorPair::step_group`]), so their dependency chains
    /// overlap. The hardware selects only the kernel's instantiation:
    /// an exact pair's groups run the exact one. Devices share no state,
    /// so the order in which their steps interleave never changes a bit
    /// (the signatures are exact integer sums either way).
    fn acquire(
        &mut self,
        sources: &mut [&mut dyn LaneSource],
        sq: QuadratureSquareWave,
        m: u32,
        signatures: &mut [(f64, f64)],
    ) -> u64 {
        let devices = signatures.len();
        let window = u64::from(m) * u64::from(self.config.n);
        let consumed = if self.config.chopped {
            2 * window
        } else {
            window
        };
        if devices == 0 {
            return consumed;
        }
        let block_cap = self.config.block_samples.max(1) as u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the value is ≤ block_samples, which is already a usize, so the cast is exact"
        )]
        let block = block_cap.min(window) as usize;
        let width = sources
            .iter()
            .map(|source| source.devices().min(GROUP_DEVICES))
            .max()
            .unwrap_or(0);
        let mut buf = vec![0.0f64; block * width];
        let pair = &mut self.modulators;
        let mut states = vec![pair.states(); devices];
        let mut run = |invert: bool| {
            let mut phases = sq.phases();
            let mut counts = vec![(0i64, 0i64); devices];
            let mut t = 0u64;
            while t < window {
                let len = block.min(usize::try_from(window - t).unwrap_or(usize::MAX));
                let polarities = phases
                    .clone()
                    .take(len)
                    .map(|(p, q)| (p ^ invert, q ^ invert));
                for source in sources.iter_mut() {
                    source.advance(len);
                }
                pair.draw_block(len, polarities.clone());
                let mut first = 0;
                for source in sources.iter_mut() {
                    for group in device_groups(source.devices()) {
                        let slots = first + group.start..first + group.end;
                        let x = &mut buf[..len * group.len()];
                        source.group_block(group, x);
                        let (states, counts) = (&mut states[slots.clone()], &mut counts[slots]);
                        pair.step_group(states, x, polarities.clone(), counts);
                    }
                    first += source.devices();
                }
                phases.skip_samples(len);
                t += len as u64;
            }
            counts
        };
        if self.config.chopped {
            let a = run(false);
            let b = run(true);
            for (sig, ((a1, a2), (b1, b2))) in signatures.iter_mut().zip(a.into_iter().zip(b)) {
                *sig = ((a1 - b1) as f64 / 2.0, (a2 - b2) as f64 / 2.0);
            }
        } else {
            for (sig, (a1, a2)) in signatures.iter_mut().zip(run(false)) {
                *sig = (a1 as f64, a2 as f64);
            }
        }
        self.modulators.set_states(states[0]);
        consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::tone::{Multitone, Tone};
    use mixsig::opamp::OpAmpModel;
    use mixsig::units::Volts;
    use std::f64::consts::PI;

    fn tone_source(f: f64, a: f64, phi: f64) -> impl FnMut() -> f64 {
        let t = Tone::new(f, a, phi);
        let mut n = 0usize;
        move || {
            let v = t.sample(n);
            n += 1;
            v
        }
    }

    #[test]
    fn amplitude_recovery_ideal() {
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        for &(a, phi) in &[(0.2, 0.0), (0.5, 1.0), (0.02, -0.7)] {
            let mut src = tone_source(1.0 / 96.0, a, phi);
            let m = ev.measure_harmonic(&mut src, 1, 200).unwrap();
            assert!(
                (m.amplitude.est - a).abs() < 2e-3,
                "a={a}: {}",
                m.amplitude.est
            );
            assert!(m.amplitude.contains(a), "a={a}: {}", m.amplitude);
        }
    }

    #[test]
    fn phase_recovery_ideal() {
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        for &phi in &[0.0, 0.5, 1.5, -2.0, 3.0] {
            let mut src = tone_source(1.0 / 96.0, 0.5, phi);
            let m = ev.measure_harmonic(&mut src, 1, 200).unwrap();
            let err = dsp::goertzel::wrap_phase(m.phase.est - phi).abs();
            assert!(err < 0.02, "φ={phi}: est {} err {err}", m.phase.est);
        }
    }

    #[test]
    fn multitone_separation_matches_paper_fig9_levels() {
        // The Fig. 9 workload: 0.2/0.02/0.002 V at harmonics 1/2/3.
        let f0 = 1.0 / 96.0;
        let mt = Multitone::new(0.0)
            .with_tone(Tone::new(f0, 0.2, 0.3))
            .with_tone(Tone::new(2.0 * f0, 0.02, 1.0))
            .with_tone(Tone::new(3.0 * f0, 0.002, -0.5));
        let mut n = 0usize;
        let mut src = move || {
            let v = mt.sample(n);
            n += 1;
            v
        };
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let ms = ev.measure_harmonics(&mut src, &[1, 2, 3], 500).unwrap();
        assert!(
            (ms[0].amplitude.est - 0.2).abs() < 2e-3,
            "{}",
            ms[0].amplitude
        );
        assert!(
            (ms[1].amplitude.est - 0.02).abs() < 1e-3,
            "{}",
            ms[1].amplitude
        );
        assert!(
            (ms[2].amplitude.est - 0.002).abs() < 6e-4,
            "{}",
            ms[2].amplitude
        );
    }

    #[test]
    fn enclosure_always_contains_truth_ideal() {
        // The hard-bound property: for an ideal (noiseless) chain the
        // enclosure must contain the true amplitude at every M.
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        for m in [2u32, 10, 20, 100, 400] {
            let mut src = tone_source(1.0 / 96.0, 0.3, 0.9);
            let meas = ev.measure_harmonic(&mut src, 1, m).unwrap();
            assert!(meas.amplitude.contains(0.3), "M={m}: {}", meas.amplitude);
        }
    }

    #[test]
    fn bound_width_shrinks_as_one_over_mn() {
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = tone_source(1.0 / 96.0, 0.3, 0.0);
        let w20 = ev
            .measure_harmonic(&mut src, 1, 20)
            .unwrap()
            .amplitude
            .width();
        let w200 = ev
            .measure_harmonic(&mut src, 1, 200)
            .unwrap()
            .amplitude
            .width();
        assert!((w20 / w200 - 10.0).abs() < 1.0, "{w20} / {w200}");
    }

    #[test]
    fn second_harmonic_measured_independently() {
        let f0 = 1.0 / 96.0;
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = tone_source(2.0 * f0, 0.1, 0.4);
        let m1 = ev.measure_harmonic(&mut src, 1, 100).unwrap();
        let mut src2 = tone_source(2.0 * f0, 0.1, 0.4);
        let m2 = ev.measure_harmonic(&mut src2, 2, 100).unwrap();
        // k=2 sees the tone; k=1 sees (almost) nothing.
        assert!((m2.amplitude.est - 0.1).abs() < 2e-3);
        assert!(m1.amplitude.est < 0.01, "{}", m1.amplitude.est);
    }

    #[test]
    fn dc_measurement_recovers_level() {
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = || 0.35;
        let d = ev.measure_dc(&mut src, 100).unwrap();
        assert!((d.level.est - 0.35).abs() < 1e-3, "{}", d.level);
        assert!(d.level.contains(0.35));
    }

    #[test]
    fn chopping_cancels_modulator_offset() {
        let mut sdm = SdmConfig::ideal();
        sdm.opamp = OpAmpModel::ideal().with_offset(Volts(0.01));
        let cfg = EvaluatorConfig {
            sdm,
            ..EvaluatorConfig::ideal()
        };
        let mut ev = SinewaveEvaluator::new(cfg.clone());
        let mut src = tone_source(1.0 / 96.0, 0.2, 0.5);
        let m = ev.measure_harmonic(&mut src, 1, 200).unwrap();
        assert!(
            (m.amplitude.est - 0.2).abs() < 2e-3,
            "chopped: {}",
            m.amplitude.est
        );

        // Without chopping, the 20 mV effective offset corrupts the
        // in-phase signature noticeably.
        let mut ev_raw = SinewaveEvaluator::new(cfg.with_chopped(false));
        let mut src2 = tone_source(1.0 / 96.0, 0.2, 0.5);
        let m_raw = ev_raw.measure_harmonic(&mut src2, 1, 200).unwrap();
        let err_raw = (m_raw.amplitude.est - 0.2).abs();
        assert!(err_raw > 5e-3, "raw error unexpectedly small: {err_raw}");
    }

    #[test]
    fn validity_conditions_enforced() {
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src = || 0.0;
        assert_eq!(
            ev.measure_harmonic(&mut src, 0, 10),
            Err(EvalError::HarmonicIndexZero)
        );
        assert_eq!(
            ev.measure_harmonic(&mut src, 1, 3),
            Err(EvalError::OddPeriods { m: 3 })
        );
        assert_eq!(
            ev.measure_harmonic(&mut src, 5, 10),
            Err(EvalError::InvalidRatio { n: 96, k: 5 })
        );
        assert_eq!(
            ev.measure_dc(&mut src, 0),
            Err(EvalError::OddPeriods { m: 0 })
        );
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(EvalError::OddPeriods { m: 3 }.to_string().contains("even"));
        assert!(EvalError::InvalidRatio { n: 96, k: 5 }
            .to_string()
            .contains("multiple of 8k"));
        assert!(EvalError::HarmonicIndexZero
            .to_string()
            .contains("measure_dc"));
    }

    #[test]
    fn phase_measures_relative_to_square_wave() {
        // A sine aligned with SQ (φ=0 at window start) reads ≈ 0 phase; a
        // quarter-period shift reads ≈ π/2.
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::ideal());
        let mut src0 = tone_source(1.0 / 96.0, 0.4, 0.0);
        let p0 = ev.measure_harmonic(&mut src0, 1, 200).unwrap().phase.est;
        let mut src90 = tone_source(1.0 / 96.0, 0.4, PI / 2.0);
        let p90 = ev.measure_harmonic(&mut src90, 1, 200).unwrap().phase.est;
        assert!(p0.abs() < 0.02, "{p0}");
        assert!((p90 - PI / 2.0).abs() < 0.02, "{p90}");
    }

    #[test]
    fn noisy_cmos_evaluator_still_accurate() {
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::cmos_035um(5));
        let mut src = tone_source(1.0 / 96.0, 0.2, 0.3);
        let m = ev.measure_harmonic(&mut src, 1, 400).unwrap();
        assert!((m.amplitude.est - 0.2).abs() < 5e-3, "{}", m.amplitude.est);
    }

    /// A lane of no devices.
    struct NoDevices;

    impl LaneSource for NoDevices {
        fn devices(&self) -> usize {
            0
        }

        fn advance(&mut self, _len: usize) {}

        fn group_block(&mut self, _devices: Range<usize>, _out: &mut [f64]) {
            unreachable!("a lane of no devices has no group");
        }
    }

    #[test]
    fn an_empty_lane_leaves_the_evaluator_as_it_was() {
        // An empty lane draws nothing: afterwards the noisy evaluator
        // measures exactly what a fresh one does, and its modulators end
        // each measurement in the same states — an integrator's value
        // carries every `kT/C` draw it took, so a shifted noise stream
        // shows there even where the signatures do not move.
        let mut ev = SinewaveEvaluator::new(EvaluatorConfig::cmos_035um(5));
        let mut fresh = ev.clone();
        assert!(ev
            .measure_harmonic_lanes(&mut [&mut NoDevices], 1, 50)
            .unwrap()
            .is_empty());
        let mut src = tone_source(1.0 / 96.0, 0.3, 0.8);
        let mut fresh_src = tone_source(1.0 / 96.0, 0.3, 0.8);
        for k in [1, 2, 3, 1] {
            let got = ev.measure_harmonic(&mut src, k, 4).unwrap();
            let want = fresh.measure_harmonic(&mut fresh_src, k, 4).unwrap();
            assert_eq!(got, want, "k = {k}");
            assert_eq!(ev.modulators.states(), fresh.modulators.states(), "k = {k}");
        }
    }

    /// A lane of tones, one per device, each with its own amplitude and
    /// phase, sampled at the running sample index.
    #[derive(Clone)]
    struct ToneLane {
        tones: Vec<Tone>,
        /// The first sample of the current block, and its length.
        start: usize,
        len: usize,
    }

    impl ToneLane {
        fn new(devices: usize, offset: f64) -> Self {
            let tones = (0..devices)
                .map(|d| Tone::new(1.0 / 96.0, 0.1 + 0.03 * d as f64, offset + 0.4 * d as f64))
                .collect();
            Self {
                tones,
                start: 0,
                len: 0,
            }
        }
    }

    impl LaneSource for ToneLane {
        fn devices(&self) -> usize {
            self.tones.len()
        }

        fn advance(&mut self, len: usize) {
            self.start += self.len;
            self.len = len;
        }

        fn group_block(&mut self, devices: Range<usize>, out: &mut [f64]) {
            let tones = &self.tones[devices];
            for (t, row) in out.chunks_exact_mut(tones.len()).enumerate() {
                for (y, tone) in row.iter_mut().zip(tones) {
                    *y = tone.sample(self.start + t);
                }
            }
        }
    }

    #[test]
    fn lanes_in_lockstep_match_each_lane_alone() {
        // Two lanes of different devices, one a tail of three and one
        // past a group, acquired in lockstep through one noise draw per
        // block: each lane reads what it reads alone on a clone of the
        // evaluator, on ideal and on noisy hardware, and the evaluator
        // stands afterwards where the first lane alone leaves it. At the
        // 0.35 µm `kT/C` level other draws seldom move an integer
        // signature, so a third evaluator shrinks the unit capacitor to
        // 0.1 fF: its draws are large enough that a lane stepped through
        // any other draws reads other signatures.
        let mut loud = EvaluatorConfig::cmos_035um(5);
        loud.sdm.unit_cap_farads = 1.0e-16;
        for config in [
            EvaluatorConfig::ideal(),
            EvaluatorConfig::cmos_035um(5),
            loud,
        ] {
            let ev = SinewaveEvaluator::new(config.clone().with_block_samples(100));
            let (a, b) = (ToneLane::new(3, 0.2), ToneLane::new(6, -1.1));
            let mut alone_a = ev.clone();
            let mut want = alone_a
                .measure_harmonic_lanes(&mut [&mut a.clone()], 1, 20)
                .unwrap();
            want.extend(
                ev.clone()
                    .measure_harmonic_lanes(&mut [&mut b.clone()], 1, 20)
                    .unwrap(),
            );
            let mut lockstep = ev.clone();
            let got = lockstep
                .measure_harmonic_lanes(&mut [&mut a.clone(), &mut b.clone()], 1, 20)
                .unwrap();
            assert_eq!(got, want, "{config:?}");
            assert_eq!(
                lockstep.modulators.states(),
                alone_a.modulators.states(),
                "{config:?}"
            );
            // Noise streams included: the next measurement agrees too.
            assert_eq!(
                lockstep.measure_harmonic_lanes(&mut [&mut b.clone()], 1, 4),
                alone_a.measure_harmonic_lanes(&mut [&mut b.clone()], 1, 4),
                "{config:?}"
            );
        }
    }

    #[test]
    fn block_length_never_changes_a_measurement() {
        // Per-sample wrapper == block path at every block length,
        // including one block per window, for ideal and noisy hardware.
        for mk_cfg in [EvaluatorConfig::ideal as fn() -> EvaluatorConfig, || {
            EvaluatorConfig::cmos_035um(9)
        }] {
            let mut reference_ev = SinewaveEvaluator::new(mk_cfg());
            let mut src = tone_source(1.0 / 96.0, 0.3, 0.8);
            let reference = reference_ev.measure_harmonic(&mut src, 1, 50).unwrap();
            for block in [1usize, 7, 64, 1024, usize::MAX] {
                let mut ev = SinewaveEvaluator::new(mk_cfg().with_block_samples(block));
                let tone = Tone::new(1.0 / 96.0, 0.3, 0.8);
                let mut n = 0usize;
                let mut closure = move || {
                    let v = tone.sample(n);
                    n += 1;
                    v
                };
                let mut blocks = FnSource(&mut closure);
                let got = ev.measure_harmonic_blocks(&mut blocks, 1, 50).unwrap();
                assert_eq!(reference, got, "block = {block}");
            }
        }
    }
}
