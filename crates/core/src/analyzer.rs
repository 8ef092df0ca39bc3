//! The network analyzer proper (paper Section III.C).

use crate::error::{millihertz, NetanError};
use crate::harmonics::DistortionReport;
use crate::lot::LotEngine;
use crate::sweep::BodePlot;
use ate::DemoBoard;
use dut::{Bypass, Dut};
use mixsig::clock::MasterClock;
use mixsig::units::{Hertz, Volts};
use sdeval::{
    Bounded, EvalError, EvaluatorConfig, HarmonicMeasurement, LaneSource, QuadratureSquareWave,
    SinewaveEvaluator,
};
use sigen::GeneratorConfig;

/// Hardware realism of the analyzer's own circuitry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardwareProfile {
    /// Ideal blocks: exact capacitors, ideal op-amps, no noise.
    Ideal,
    /// The paper's 0.35 µm CMOS non-idealities, with a fabrication/noise
    /// seed.
    Cmos035um {
        /// Mismatch and noise seed.
        seed: u64,
    },
}

impl HardwareProfile {
    pub(crate) fn generator_config(&self, clk: MasterClock, va: Volts) -> GeneratorConfig {
        match *self {
            HardwareProfile::Ideal => GeneratorConfig::ideal(clk, va),
            HardwareProfile::Cmos035um { seed } => GeneratorConfig::cmos_035um(clk, va, seed),
        }
    }

    fn evaluator_config(&self) -> EvaluatorConfig {
        match *self {
            HardwareProfile::Ideal => EvaluatorConfig::ideal(),
            HardwareProfile::Cmos035um { seed } => EvaluatorConfig::cmos_035um(seed),
        }
    }
}

/// Configuration of a [`NetworkAnalyzer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// Amplitude programming `VA+ − VA−` of the stimulus generator.
    pub va_diff: Volts,
    /// Hardware realism profile.
    pub hardware: HardwareProfile,
    /// Evaluation periods `M` per measurement (paper uses 200 for Bode,
    /// 400 for distortion).
    pub periods: u32,
    /// Stimulus periods to run before each measurement so generator and
    /// DUT transients decay.
    pub warmup_periods: u32,
    /// Acquisition block length in master-clock samples, forwarded to the
    /// evaluator. Any value produces bit-identical points; this is a
    /// throughput knob only.
    pub block_samples: usize,
}

impl AnalyzerConfig {
    /// Ideal analyzer at the paper's Bode settings (`M = 200`).
    pub fn ideal() -> Self {
        Self {
            va_diff: Volts(0.150),
            hardware: HardwareProfile::Ideal,
            periods: 200,
            warmup_periods: 40,
            block_samples: sdeval::DEFAULT_BLOCK_SAMPLES,
        }
    }

    /// Analyzer with the paper's CMOS non-idealities.
    pub fn cmos_035um(seed: u64) -> Self {
        Self {
            hardware: HardwareProfile::Cmos035um { seed },
            ..Self::ideal()
        }
    }

    /// Returns the configuration with a different evaluation length.
    #[must_use]
    pub fn with_periods(mut self, m: u32) -> Self {
        self.periods = m;
        self
    }

    /// Returns the configuration with a different stimulus amplitude code.
    #[must_use]
    pub fn with_va_diff(mut self, va: Volts) -> Self {
        self.va_diff = va;
        self
    }

    /// Refuses an evaluation length no acquisition can measure: `M` must
    /// be positive and even ([`sdeval::EvalError::OddPeriods`]). A cheap
    /// check, made without simulating, so a lot refuses a stage before
    /// fabricating a device for it, and a decoder a frame before queuing
    /// it.
    ///
    /// # Errors
    ///
    /// [`NetanError::Eval`] with [`sdeval::EvalError::OddPeriods`] for a
    /// zero or odd `periods`.
    pub fn check_periods(&self) -> Result<(), NetanError> {
        Ok(SinewaveEvaluator::check_periods(self.periods)?)
    }

    /// Returns the configuration with a different acquisition block
    /// length (`usize::MAX` means "one block per acquisition window").
    #[must_use]
    pub fn with_block_samples(mut self, block_samples: usize) -> Self {
        self.block_samples = block_samples;
        self
    }
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

/// The stimulus frequency calibration measures the bypass at. Any valid
/// frequency works: the normalized measurement does not depend on it.
pub(crate) const CALIBRATION_FREQUENCY: Hertz = Hertz(1000.0);

/// Stimulus characterization from the calibration bypass (paper Fig. 1
/// dashed path): performed once, reused across the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Stimulus amplitude enclosure, volts.
    pub amplitude: Bounded,
    /// Stimulus phase enclosure relative to the modulation square wave,
    /// radians.
    pub phase: Bounded,
}

impl Calibration {
    /// The calibration a bypass measurement reads.
    pub(crate) fn from_bypass(meas: &HarmonicMeasurement) -> Self {
        Self {
            amplitude: meas.amplitude,
            phase: meas.phase,
        }
    }

    /// Refuses a calibration whose amplitude enclosure reaches zero (or
    /// is NaN): no gain can be divided by it.
    pub(crate) fn check_resolved(&self) -> Result<(), NetanError> {
        if is_positive(self.amplitude.lo) {
            Ok(())
        } else {
            Err(NetanError::UnresolvedStimulus)
        }
    }
}

/// One point of a Bode characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodePoint {
    /// Stimulus frequency.
    pub frequency: Hertz,
    /// DUT gain enclosure (linear).
    pub gain: Bounded,
    /// DUT gain enclosure in dB.
    pub gain_db: Bounded,
    /// DUT phase shift enclosure in degrees (wrapped to ±180° unless
    /// unwrapped by a sweep).
    pub phase_deg: Bounded,
    /// The DUT's nominal analytic gain at this frequency, dB.
    pub ideal_gain_db: f64,
    /// The DUT's nominal analytic phase at this frequency, degrees.
    pub ideal_phase_deg: f64,
    /// Refinement provenance: the adaptive-refinement round that placed
    /// this point (0 for seed-grid points and for every fixed-grid sweep).
    pub round: u32,
}

/// The on-chip network analyzer bound to a device under test.
pub struct NetworkAnalyzer<'d> {
    dut: &'d dyn Dut,
    config: AnalyzerConfig,
    calibration: Option<Calibration>,
}

impl<'d> NetworkAnalyzer<'d> {
    /// Creates an analyzer for `dut`.
    pub fn new(dut: &'d dyn Dut, config: AnalyzerConfig) -> Self {
        Self {
            dut,
            config,
            calibration: None,
        }
    }

    /// The stored calibration, if one has been performed.
    pub fn calibration(&self) -> Option<Calibration> {
        self.calibration
    }

    /// Characterizes the stimulus over the bypass path and stores the
    /// result. The stimulus amplitude/phase are set by the DC references
    /// and digital control only, so one calibration serves the whole sweep
    /// (paper Section III.C). Calling this first is optional: a sweep or
    /// [`measure_point`](Self::measure_point) without a stored calibration
    /// reads the same bits off its own first acquisition and stores them.
    ///
    /// The bypass is the identity device [`Bypass`], measured like any
    /// other at 1 kHz: an acquisition of that one slot. A lane task
    /// mounts the same slot next to its points instead and reads the
    /// same bits.
    ///
    /// # Errors
    ///
    /// [`NetanError::Eval`] with `OddPeriods` for a zero or odd `M`,
    /// before any simulation, and evaluator setup errors.
    pub fn calibrate(&mut self) -> Result<Calibration, NetanError> {
        self.config.check_periods()?;
        let stimulus = Self::acquire(&self.config, 1, &[(&Bypass, CALIBRATION_FREQUENCY)])?;
        let cal = Calibration::from_bypass(&Self::only(stimulus)?);
        self.calibration = Some(cal);
        Ok(cal)
    }

    /// Refuses an empty frequency list, then its lowest-index frequency
    /// that is NaN or not positive.
    pub(crate) fn check_frequencies(frequencies: &[Hertz]) -> Result<(), NetanError> {
        if frequencies.is_empty() {
            return Err(NetanError::EmptySweep);
        }
        match frequencies.iter().find(|f| !is_positive(f.value())) {
            Some(&f) => Err(NetanError::InvalidFrequency {
                hz_millis: millihertz(f),
            }),
            None => Ok(()),
        }
    }

    /// Measures the DUT gain and phase shift at `f_wave` (the master clock
    /// is set to `96·f_wave`, keeping `N` constant) as a one-point
    /// [`sweep_with`](Self::sweep_with) on the serial engine.
    ///
    /// # Errors
    ///
    /// Everything [`sweep_with`](Self::sweep_with) returns.
    pub fn measure_point(&mut self, f_wave: Hertz) -> Result<BodePoint, NetanError> {
        Self::only(self.measure_points(&LotEngine::serial(), &[f_wave])?)
    }

    /// Measures one Bode point against an explicit stimulus
    /// characterization, in an acquisition of its own, and stores
    /// nothing. The acquisition is driven block-wise end to end
    /// (generator → DUT → ΣΔ consume
    /// [`AnalyzerConfig::block_samples`]-sized blocks), bit-identical to
    /// the per-sample reference chain. It is the one-slot reference for
    /// the lane tasks that measure every sweep and lot
    /// ([`LotEngine`]), many points and devices per acquisition: each of
    /// their points equals this one.
    ///
    /// # Errors
    ///
    /// Refused before any simulation, in this order:
    /// [`NetanError::InvalidFrequency`] for a non-positive frequency,
    /// [`NetanError::Eval`] with `OddPeriods` for a zero or odd `M`,
    /// [`NetanError::NominalResponseNotFinite`] for a device whose nominal
    /// response at `f_wave` is not finite (as a lot refuses one with
    /// [`NetanError::DeviceNotSimulable`]), and
    /// [`NetanError::UnresolvedStimulus`] when `cal`'s amplitude enclosure
    /// reaches zero. Then evaluator errors.
    pub fn measure_point_calibrated(
        &self,
        cal: Calibration,
        f_wave: Hertz,
    ) -> Result<BodePoint, NetanError> {
        Self::check_frequencies(&[f_wave])?;
        self.config.check_periods()?;
        check_nominal(self.dut, &[f_wave])?;
        cal.check_resolved()?;
        let out = Self::only(Self::acquire(&self.config, 1, &[(self.dut, f_wave)])?)?;
        Ok(Self::bode_point(self.dut, cal, f_wave, &out))
    }

    /// A Bode point from the DUT-path measurement `out`.
    pub(crate) fn bode_point(
        dut: &dyn Dut,
        cal: Calibration,
        f_wave: Hertz,
        out: &HarmonicMeasurement,
    ) -> BodePoint {
        let gain = out.amplitude.ratio(&cal.amplitude);
        let gain_db = gain.map_monotonic(|g| 20.0 * g.max(1e-15).log10());
        let mut phase = out.phase.minus(&cal.phase);
        // Deterministic correction: the continuous-time DUT responds to the
        // zero-order-held stimulus, which lags the sampled stimulus (seen by
        // the calibration path) by half a master-clock sample — a constant
        // 2π/(2·96) at the stimulus frequency. A real instrument calibrates
        // this out the same way.
        let zoh_half_sample = std::f64::consts::PI / 96.0;
        phase = Bounded::new(
            phase.lo + zoh_half_sample,
            phase.est + zoh_half_sample,
            phase.hi + zoh_half_sample,
        );
        // Wrap the phase estimate into (−π, π], carrying the bounds along.
        let wrapped_est = dsp::goertzel::wrap_phase(phase.est);
        let shift = wrapped_est - phase.est;
        let phase_deg = Bounded::new(
            (phase.lo + shift).to_degrees(),
            wrapped_est.to_degrees(),
            (phase.hi + shift).to_degrees(),
        );
        BodePoint {
            frequency: f_wave,
            gain,
            gain_db,
            phase_deg,
            ideal_gain_db: dut.ideal_magnitude_db(f_wave),
            ideal_phase_deg: dut.ideal_phase_deg(f_wave),
            round: 0,
        }
    }

    /// The single result of a request for one slot, point or device.
    /// Each yields exactly one, so this never fails; an empty iterator is
    /// reported as [`NetanError::EmptySweep`] rather than asserted.
    fn only<T>(results: impl IntoIterator<Item = T>) -> Result<T, NetanError> {
        results.into_iter().next().ok_or(NetanError::EmptySweep)
    }

    /// Measures `frequencies` in request order as a lot of this one
    /// device ([`LotEngine::measure_lanes`]), against the stored
    /// calibration or, with none, storing the one its lane tasks read.
    pub(crate) fn measure_points(
        &mut self,
        engine: &LotEngine,
        frequencies: &[Hertz],
    ) -> Result<Vec<BodePoint>, NetanError> {
        Self::check_frequencies(frequencies)?;
        self.config.check_periods()?;
        check_nominal(self.dut, frequencies)?;
        let (cal, devices) = engine.measure_lanes(
            &|_| self.dut,
            &[0],
            frequencies,
            &self.config,
            self.calibration,
        );
        let points = Self::only(devices)??;
        self.calibration = cal.or(self.calibration);
        Ok(points)
    }

    /// Sweeps the analyzer over `frequencies`, then unwraps the phase by
    /// continuity (the paper's Fig. 10b presentation). The sweep is a
    /// one-device lot: `engine` splits the points into at most one
    /// contiguous group per worker, and each group's lane task measures
    /// it in lockstep acquisitions that share the evaluator's noise and
    /// the stimulus. Without a stored calibration each task calibrates in
    /// its first acquisition, bit-identical to
    /// [`calibrate`](Self::calibrate), and the analyzer stores it. Points
    /// come back in the order of `frequencies`, each bit-identical to
    /// [`measure_point_calibrated`](Self::measure_point_calibrated).
    ///
    /// # Errors
    ///
    /// Refused before any simulation, and then nothing is stored:
    /// [`NetanError::EmptySweep`] for an empty list, the lowest-index
    /// [`NetanError::InvalidFrequency`], [`NetanError::Eval`] with
    /// `OddPeriods` for a zero or odd `M`, and the lowest-index
    /// [`NetanError::NominalResponseNotFinite`]. Then
    /// [`NetanError::UnresolvedStimulus`] when the calibrated stimulus
    /// amplitude enclosure reaches zero, and evaluator errors.
    pub fn sweep_with(
        &mut self,
        engine: &LotEngine,
        frequencies: &[Hertz],
    ) -> Result<BodePlot, NetanError> {
        let mut points = self.measure_points(engine, frequencies)?;
        crate::sweep::unwrap_phase_by_continuity(&mut points);
        Ok(BodePlot::new(points))
    }

    /// Adaptively sweeps the analyzer: measures `seed`, then refines per
    /// `policy` — bisecting the intervals whose local gain/phase bend and
    /// endpoint enclosure widths score worst — until the policy is met
    /// (see [`crate::adaptive`]). The seed and each round's candidates
    /// are measured as a [`sweep_with`](Self::sweep_with) is, the seed
    /// round calibrating if none is stored and the later rounds reusing
    /// it; every engine gives the same plot, as refinement decisions
    /// depend only on measured values and candidates are ordered
    /// deterministically before dispatch.
    ///
    /// # Example
    ///
    /// ```
    /// use netan::{AnalyzerConfig, LotEngine, NetworkAnalyzer, RefinementPolicy};
    /// use dut::ActiveRcFilter;
    /// use mixsig::units::Hertz;
    ///
    /// let dut = ActiveRcFilter::paper_dut().linearized();
    /// let cfg = AnalyzerConfig::ideal().with_periods(20);
    /// let mut analyzer = NetworkAnalyzer::new(&dut, cfg);
    /// let seed = netan::log_spaced(Hertz(200.0), Hertz(5_000.0), 4);
    /// let policy = RefinementPolicy::new(0.5).with_max_points(8);
    /// let plot = analyzer.sweep_adaptive_with(&LotEngine::serial(), &seed, &policy)?;
    /// assert!(plot.len() >= 4 && plot.len() <= 8);
    /// # Ok::<(), netan::NetanError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::EmptySweep`] for an empty seed and the
    /// lowest-index [`NetanError::InvalidFrequency`] of the seed as
    /// given, then every error [`sweep_with`](Self::sweep_with) returns,
    /// for the sorted seed and for each round.
    pub fn sweep_adaptive_with(
        &mut self,
        engine: &LotEngine,
        seed: &[Hertz],
        policy: &crate::adaptive::RefinementPolicy,
    ) -> Result<BodePlot, NetanError> {
        Self::check_frequencies(seed)?;
        crate::adaptive::sweep(self, seed, policy, engine)
    }

    /// Measures harmonics `1..=max_harmonic` of the DUT output at `f_wave`
    /// — the distortion mode of paper Fig. 10c — and reports them. Each
    /// harmonic `k` needs `N` to be a multiple of `8k`, so `max_harmonic`
    /// is 1 to 4 at `N = 96`. Each `k` has its own square wave, so no two
    /// share an evaluator: the per-`k` acquisitions fan out across
    /// `engine`'s worker pool, and the report is bit-identical on every
    /// engine; on failure the lowest-`k` error is reported.
    ///
    /// # Errors
    ///
    /// Refused before any allocation or simulation, in this order:
    /// [`NetanError::InvalidFrequency`] for a non-positive frequency;
    /// [`NetanError::Eval`] with `OddPeriods` for a zero or odd `M`, with
    /// `HarmonicIndexZero` for `max_harmonic = 0`, and with `InvalidRatio`
    /// for the lowest `k` the square wave cannot sample (`k = 5` at
    /// `N = 96`); [`NetanError::NominalResponseNotFinite`] for a device
    /// whose nominal response at `f_wave` is not finite. Then evaluator
    /// errors.
    pub fn measure_harmonics_with(
        &self,
        engine: &LotEngine,
        f_wave: Hertz,
        max_harmonic: u32,
    ) -> Result<DistortionReport, NetanError> {
        Self::check_frequencies(&[f_wave])?;
        self.config.check_periods()?;
        if max_harmonic == 0 {
            return Err(EvalError::HarmonicIndexZero.into());
        }
        let n = self.config.hardware.evaluator_config().n;
        for k in 1..=max_harmonic {
            QuadratureSquareWave::new(k, n).map_err(EvalError::from)?;
        }
        check_nominal(self.dut, &[f_wave])?;
        crate::pool::map_indexed(engine.threads(), max_harmonic as usize, |i| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "i < max_harmonic, which is a u32, so the cast is exact"
            )]
            let k = i as u32 + 1;
            Self::only(Self::acquire(&self.config, k, &[(self.dut, f_wave)])?)
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .map(DistortionReport::new)
    }

    /// One lockstep acquisition of harmonic `k`, driven block-wise
    /// (generator → DUT → ΣΔ all consume fixed-size blocks): one
    /// measurement per slot of `slots`, in slot order. A slot is a device
    /// and a stimulus frequency `f`, its simulator instantiated at that
    /// frequency's master clock `96·f`. Calibration passes the identity
    /// device [`Bypass`], whose output is the stimulus bit for bit — what
    /// the board's bypass path (paper Fig. 1, dashed) returns.
    ///
    /// Every slot shares one evaluator, and so each block's noise draws:
    /// its configuration and seeds do not depend on the frequency. The
    /// frequencies' generators differ only in their clocks, and every
    /// clock at which each transfer settles completely
    /// ([`GeneratorConfig::settles_completely`]: any clock on ideal
    /// hardware, the audio band on `cmos_035um`) generates the same
    /// stream. So one board and generator carry every slot at such a
    /// frequency, and the device groups fill across frequencies. Each
    /// other frequency keeps a board of its own. Boards come in order of
    /// first appearance and advance in the same block loop.
    pub(crate) fn acquire(
        config: &AnalyzerConfig,
        k: u32,
        slots: &[(&dyn Dut, Hertz)],
    ) -> Result<Vec<HarmonicMeasurement>, NetanError> {
        let generator = |f: Hertz| {
            let clk = MasterClock::for_stimulus(f);
            config.hardware.generator_config(clk, config.va_diff)
        };
        // Each board's frequency and the indices of the slots it carries;
        // each frequency seen, by its bits, and its board; and the board
        // of the frequencies that settle completely, once there is one.
        let mut boards: Vec<(Hertz, Vec<usize>)> = Vec::new();
        let mut board_of: Vec<(u64, usize)> = Vec::new();
        let mut settled = None;
        for (s, &(_, f)) in slots.iter().enumerate() {
            let bits = f.value().to_bits();
            let board = match board_of.iter().find(|&&(g, _)| g == bits) {
                Some(&(_, board)) => board,
                None => {
                    let settles = generator(f).settles_completely();
                    let board = match settled.filter(|_| settles) {
                        Some(board) => board,
                        None => {
                            boards.push((f, Vec::new()));
                            boards.len() - 1
                        }
                    };
                    if settles {
                        settled = Some(board);
                    }
                    board_of.push((bits, board));
                    board
                }
            };
            boards[board].1.push(s);
        }
        let mut mounted: Vec<DemoBoard> = boards
            .iter()
            .map(|(f, members)| {
                let board_slots: Vec<(&dyn Dut, MasterClock)> = members
                    .iter()
                    .map(|&s| (slots[s].0, MasterClock::for_stimulus(slots[s].1)))
                    .collect();
                let mut board = DemoBoard::with_slots(generator(*f), &board_slots);
                board.warm_up(config.warmup_periods as usize);
                board
            })
            .collect();
        let mut sources: Vec<&mut dyn LaneSource> = mounted
            .iter_mut()
            .map(|board| board as &mut dyn LaneSource)
            .collect();
        let eval_cfg = config
            .hardware
            .evaluator_config()
            .with_block_samples(config.block_samples);
        let mut evaluator = SinewaveEvaluator::new(eval_cfg);
        let measured = evaluator.measure_harmonic_lanes(&mut sources, k, config.periods)?;
        // The evaluator returns board after board; put each back in its
        // slot.
        let mut by_slot: Vec<Option<HarmonicMeasurement>> = slots.iter().map(|_| None).collect();
        for (&s, m) in boards.iter().flat_map(|(_, members)| members).zip(measured) {
            by_slot[s] = Some(m);
        }
        Ok(by_slot.into_iter().flatten().collect())
    }
}

/// Whether `v` is strictly positive; NaN is not.
pub(crate) fn is_positive(v: f64) -> bool {
    v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
}

/// Refuses the lowest-index frequency at which `dut`'s nominal response
/// is not finite, where its discretization would diverge.
pub(crate) fn check_nominal(
    dut: &(impl Dut + ?Sized),
    frequencies: &[Hertz],
) -> Result<(), NetanError> {
    frequencies.iter().try_for_each(|&f| {
        let r = dut.ideal_response(f);
        if r.magnitude.is_finite() && r.phase.is_finite() {
            Ok(())
        } else {
            Err(NetanError::NominalResponseNotFinite {
                hz_millis: millihertz(f),
            })
        }
    })
}

impl std::fmt::Debug for NetworkAnalyzer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkAnalyzer")
            .field("config", &self.config)
            .field("calibrated", &self.calibration.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::log_spaced;
    use dut::ActiveRcFilter;

    fn analyzer_for(dut: &ActiveRcFilter) -> NetworkAnalyzer<'_> {
        NetworkAnalyzer::new(dut, AnalyzerConfig::ideal())
    }

    #[test]
    fn calibration_reads_stimulus_amplitude() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let cal = na.calibrate().unwrap();
        // Ideal generator with VA = 150 mV → ≈ 0.30 V stimulus.
        assert!((cal.amplitude.est - 0.30).abs() < 0.02, "{}", cal.amplitude);
        assert!(na.calibration().is_some());
    }

    #[test]
    fn calibration_unchanged_by_dut_skip() {
        // Calibration measures the identity device `Bypass`, which must
        // report exactly what a full board switched to the bypass path
        // reports — the DUT never touches the bypass output — on ideal
        // and on noisy hardware.
        use ate::{DemoBoard, SignalPath};
        use mixsig::clock::MasterClock;
        use sdeval::SinewaveEvaluator;

        let dut = ActiveRcFilter::paper_dut();
        for cfg in [
            AnalyzerConfig::ideal().with_periods(50),
            AnalyzerConfig::cmos_035um(13).with_periods(50),
        ] {
            let mut na = NetworkAnalyzer::new(&dut, cfg);
            let cal = na.calibrate().unwrap();

            // Reference: full board, bypass path.
            let clk = MasterClock::for_stimulus(Hertz(1000.0));
            let gen_cfg = cfg.hardware.generator_config(clk, cfg.va_diff);
            let mut board = DemoBoard::new(gen_cfg, &dut);
            board.set_path(SignalPath::CalibrationBypass);
            board.warm_up(cfg.warmup_periods as usize);
            let eval_cfg = cfg
                .hardware
                .evaluator_config()
                .with_block_samples(cfg.block_samples);
            let mut evaluator = SinewaveEvaluator::new(eval_cfg);
            let want = evaluator
                .measure_harmonic_blocks(&mut board, 1, cfg.periods)
                .unwrap();
            assert_eq!(cal.amplitude, want.amplitude, "{cfg:?}");
            assert_eq!(cal.phase, want.phase, "{cfg:?}");
        }
    }

    #[test]
    fn a_non_finite_nominal_response_is_refused_before_simulation() {
        // An infinite corner frequency has a NaN nominal response, and its
        // discretization would ask `Matrix::expm` for the exponential of a
        // matrix with an infinite entry: the point, and the distortion
        // mode's harmonics, are refused first, well within a second, with
        // a typed error.
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let dut = ActiveRcFilter::new(Hertz(f64::INFINITY), 0.8, 1.0);
            let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal().with_periods(20));
            let point = na.measure_point(Hertz(1000.0)).map(|_| ());
            let harmonics = na
                .measure_harmonics_with(&LotEngine::serial(), Hertz(1000.0), 2)
                .map(|_| ());
            tx.send([point, harmonics])
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("an answer within a second");
        worker.join().unwrap().unwrap();
        let refused = Err(NetanError::NominalResponseNotFinite {
            hz_millis: 1_000_000,
        });
        assert_eq!(got, [refused, refused]);
    }

    /// A device whose nominal response is NaN above 5 kHz, and which
    /// panics if it is ever simulated.
    struct NanAbove5k;

    impl Dut for NanAbove5k {
        fn ideal_response(&self, f: Hertz) -> mixsig::ct::FrequencyResponse {
            let magnitude = if f.value() > 5000.0 { f64::NAN } else { 1.0 };
            mixsig::ct::FrequencyResponse {
                magnitude,
                phase: 0.0,
            }
        }

        fn instantiate(&self, fs: Hertz) -> Box<dyn dut::DutSim> {
            panic!("simulated at {fs}")
        }
    }

    #[test]
    fn sweeps_refuse_the_lowest_non_finite_point_before_simulation() {
        // Every frequency is checked before any acquisition, so the
        // finite points are never simulated either, no calibration is
        // stored, and an odd M is refused before the nominal response.
        // The one-point entries check in the same order: at an odd M they
        // refuse a point whose nominal response is finite before building
        // a board, and a non-finite one with the odd M.
        let grid = log_spaced(Hertz(200.0), Hertz(50_000.0), 9);
        let first = grid.iter().position(|f| f.value() > 5000.0).unwrap();
        let policy = crate::adaptive::RefinementPolicy::new(0.5);
        let cal = Calibration {
            amplitude: Bounded::new(0.29, 0.3, 0.31),
            phase: Bounded::point(0.0),
        };
        for (m, expected, points) in [
            (
                20,
                NetanError::NominalResponseNotFinite {
                    hz_millis: millihertz(grid[first]),
                },
                &[grid[first]][..],
            ),
            (
                21,
                NetanError::Eval(sdeval::EvalError::OddPeriods { m: 21 }),
                &[grid[0], grid[first]][..],
            ),
        ] {
            let cfg = AnalyzerConfig::ideal().with_periods(m);
            for engine in [LotEngine::serial(), LotEngine::with_threads(3)] {
                let mut na = NetworkAnalyzer::new(&NanAbove5k, cfg);
                let fixed = na.sweep_with(&engine, &grid).map(|_| ());
                let adaptive = na.sweep_adaptive_with(&engine, &grid, &policy).map(|_| ());
                let mut got = vec![fixed, adaptive];
                for &f in points {
                    got.push(na.measure_point(f).map(|_| ()));
                    got.push(na.measure_point_calibrated(cal, f).map(|_| ()));
                    got.push(na.measure_harmonics_with(&engine, f, 2).map(|_| ()));
                }
                let at = format!("M = {m}, {engine:?}");
                for got in got {
                    assert_eq!(got, Err(expected), "{at}");
                }
                assert_eq!(na.calibration(), None, "{at}");
            }
        }
    }

    #[test]
    fn the_distortion_mode_refuses_harmonics_it_cannot_sample_before_simulation() {
        // `NanAbove5k` panics if simulated, so each request is refused
        // before any board. At N = 96 the square wave samples k = 1 to 4:
        // no harmonic is `HarmonicIndexZero`, and any range past 4 is
        // refused at k = 5 without a single acquisition, however long.
        // The checks run in order: frequency, M, harmonics, nominal
        // response.
        let zero = NetanError::Eval(sdeval::EvalError::HarmonicIndexZero);
        let ratio = NetanError::Eval(sdeval::EvalError::InvalidRatio { n: 96, k: 5 });
        let cfg = AnalyzerConfig::ideal().with_periods(20);
        for engine in [LotEngine::serial(), LotEngine::with_threads(3)] {
            let na = NetworkAnalyzer::new(&NanAbove5k, cfg);
            let harmonics = |f: f64, max_harmonic: u32| {
                na.measure_harmonics_with(&engine, Hertz(f), max_harmonic)
                    .map(|_| ())
            };
            assert_eq!(harmonics(1000.0, 0), Err(zero), "{engine:?}");
            assert_eq!(harmonics(1000.0, 5), Err(ratio), "{engine:?}");
            assert_eq!(harmonics(1000.0, u32::MAX), Err(ratio), "{engine:?}");
            assert_eq!(harmonics(6000.0, 0), Err(zero), "{engine:?}");
            assert_eq!(
                harmonics(0.0, 0),
                Err(NetanError::InvalidFrequency { hz_millis: 0 }),
                "{engine:?}"
            );
            let odd = NetworkAnalyzer::new(&NanAbove5k, cfg.with_periods(21));
            assert_eq!(
                odd.measure_harmonics_with(&engine, Hertz(1000.0), 0)
                    .map(|_| ()),
                Err(NetanError::Eval(sdeval::EvalError::OddPeriods { m: 21 })),
                "{engine:?}"
            );
        }
        // k = 4 is the highest harmonic a report can hold.
        let dut = ActiveRcFilter::paper_dut();
        let report = NetworkAnalyzer::new(&dut, cfg)
            .measure_harmonics_with(&LotEngine::serial(), Hertz(1000.0), 4)
            .unwrap();
        let ks: Vec<u32> = report.measurements().iter().map(|m| m.k).collect();
        assert_eq!(ks, [1, 2, 3, 4]);
    }

    #[test]
    fn a_sweep_is_its_points_measured_alone_at_every_split() {
        // A sweep is a lot of one device: its points split across the
        // workers, each task calibrating in its first acquisition unless
        // a calibration is stored. The grid crosses the 0.35 µm
        // shared-stimulus boundary near 28 kHz. At every split, and with
        // or without a stored calibration, the plot is each point measured
        // alone against `calibrate()`, unwrapped, and a lazy sweep stores
        // `calibrate()`'s bits.
        let bits =
            |c: Calibration| [c.amplitude, c.phase].map(|b| [b.lo, b.est, b.hi].map(f64::to_bits));
        let dut = ActiveRcFilter::paper_dut();
        let grid = log_spaced(Hertz(150.0), Hertz(60_000.0), 20);
        for cfg in [
            AnalyzerConfig::ideal().with_periods(20),
            AnalyzerConfig::cmos_035um(7).with_periods(20),
        ] {
            let settles = |f: &&Hertz| {
                let clk = MasterClock::for_stimulus(**f);
                cfg.hardware
                    .generator_config(clk, cfg.va_diff)
                    .settles_completely()
            };
            let shared = grid.iter().filter(settles).count();
            let ideal = cfg.hardware == HardwareProfile::Ideal;
            assert_eq!(shared == grid.len(), ideal, "{cfg:?}");
            let mut alone = NetworkAnalyzer::new(&dut, cfg);
            let cal = alone.calibrate().unwrap();
            let mut want: Vec<BodePoint> = grid
                .iter()
                .map(|&f| alone.measure_point_calibrated(cal, f).unwrap())
                .collect();
            crate::sweep::unwrap_phase_by_continuity(&mut want);
            for workers in [1, 2, 3, 5] {
                for calibrated in [false, true] {
                    let mut na = NetworkAnalyzer::new(&dut, cfg);
                    if calibrated {
                        na.calibrate().unwrap();
                    }
                    let engine = LotEngine::with_threads(workers);
                    let plot = na.sweep_with(&engine, &grid).unwrap();
                    let at = format!("{cfg:?}, {workers} workers, calibrated {calibrated}");
                    assert_eq!(plot.points(), want, "{at}");
                    assert_eq!(na.calibration().map(bits), Some(bits(cal)), "{at}");
                }
            }
        }
    }

    #[test]
    fn passband_point_reads_near_zero_db() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let p = na.measure_point(Hertz(100.0)).unwrap();
        assert!(p.gain_db.est.abs() < 0.2, "{}", p.gain_db);
        assert!(p.phase_deg.est.abs() < 10.0, "{}", p.phase_deg);
    }

    #[test]
    fn cutoff_point_reads_minus_3db_minus_90deg() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let p = na.measure_point(Hertz(1000.0)).unwrap();
        assert!((p.gain_db.est + 3.01).abs() < 0.3, "{}", p.gain_db);
        assert!((p.phase_deg.est + 90.0).abs() < 3.0, "{}", p.phase_deg);
        // The enclosure must contain the analytic value.
        assert!(p.gain_db.lo <= p.ideal_gain_db && p.ideal_gain_db <= p.gain_db.hi);
    }

    #[test]
    fn stopband_point_attenuates_hard() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let p = na.measure_point(Hertz(10_000.0)).unwrap();
        assert!(p.gain_db.est < -38.0, "{}", p.gain_db);
    }

    #[test]
    fn error_band_grows_in_stopband() {
        // Paper: "the relative error increases as the response magnitude
        // decreases".
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let pass = na.measure_point(Hertz(200.0)).unwrap();
        let stop = na.measure_point(Hertz(10_000.0)).unwrap();
        let rel = |p: &BodePoint| p.gain.width() / p.gain.est;
        assert!(rel(&stop) > 5.0 * rel(&pass));
    }

    #[test]
    fn sweep_unwraps_phase() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let freqs: Vec<Hertz> = [200.0, 1000.0, 3000.0, 8000.0, 20_000.0]
            .iter()
            .map(|&f| Hertz(f))
            .collect();
        let plot = na.sweep_with(&LotEngine::serial(), &freqs).unwrap();
        let phases: Vec<f64> = plot.points().iter().map(|p| p.phase_deg.est).collect();
        // Monotonically decreasing toward ≈ −180° and beyond; no +wraps.
        for w in phases.windows(2) {
            assert!(w[1] < w[0] + 5.0, "phase jumped: {phases:?}");
        }
        assert!(*phases.last().unwrap() < -150.0);
    }

    #[test]
    fn invalid_frequency_rejected() {
        let dut = ActiveRcFilter::paper_dut();
        let mut na = analyzer_for(&dut);
        assert!(matches!(
            na.measure_point(Hertz(0.0)),
            Err(NetanError::InvalidFrequency { .. })
        ));
        let cal = na.calibrate().unwrap();
        assert!(matches!(
            na.measure_point_calibrated(cal, Hertz(0.0)),
            Err(NetanError::InvalidFrequency { .. })
        ));
    }

    #[test]
    fn empty_sweep_rejected() {
        let dut = ActiveRcFilter::paper_dut();
        let mut na = analyzer_for(&dut);
        assert_eq!(
            na.sweep_with(&LotEngine::serial(), &[]).unwrap_err(),
            NetanError::EmptySweep
        );
    }

    #[test]
    fn distortion_mode_sees_harmonics() {
        let dut = ActiveRcFilter::paper_dut(); // includes the nonlinearity
        let cfg = AnalyzerConfig::ideal()
            .with_periods(400)
            .with_va_diff(Volts(0.2)); // 800 mVpp stimulus like Fig. 10c
        let na = NetworkAnalyzer::new(&dut, cfg);
        let report = na
            .measure_harmonics_with(&LotEngine::serial(), Hertz(1600.0), 3)
            .unwrap();
        let hs = report.measurements();
        assert_eq!(hs.len(), 3);
        let a1 = hs[0].amplitude.est;
        let hd2 = 20.0 * (hs[1].amplitude.est / a1).log10();
        let hd3 = 20.0 * (hs[2].amplitude.est / a1).log10();
        // Paper Fig. 10c window.
        assert!(hd2 < -50.0 && hd2 > -66.0, "HD2 {hd2}");
        assert!(hd3 < -55.0 && hd3 > -72.0, "HD3 {hd3}");
    }

    #[test]
    fn measure_point_rejects_an_unresolved_stimulus() {
        // Regression: at `va_diff` 0 the calibrated amplitude enclosure
        // reaches zero, and the gain's interval division used to panic.
        let dut = ActiveRcFilter::paper_dut().linearized();
        let cfg = AnalyzerConfig::ideal()
            .with_periods(50)
            .with_va_diff(Volts(0.0));
        let mut na = NetworkAnalyzer::new(&dut, cfg);
        assert_eq!(
            na.measure_point(Hertz(1000.0)).unwrap_err(),
            NetanError::UnresolvedStimulus
        );
        // The same for a hand-built calibration against any stimulus.
        let na = analyzer_for(&dut);
        let zero = Calibration {
            amplitude: Bounded::new(0.0, 0.1, 0.2),
            phase: Bounded::point(0.0),
        };
        // NaN is not positive either.
        let nan = Calibration {
            amplitude: Bounded {
                lo: f64::NAN,
                est: 0.1,
                hi: 0.2,
            },
            ..zero
        };
        for cal in [zero, nan] {
            assert_eq!(
                na.measure_point_calibrated(cal, Hertz(1000.0)).unwrap_err(),
                NetanError::UnresolvedStimulus
            );
        }
    }

    #[test]
    fn debug_shows_calibration_state() {
        let dut = ActiveRcFilter::paper_dut();
        let na = analyzer_for(&dut);
        assert!(format!("{na:?}").contains("calibrated: false"));
    }

    #[test]
    fn parallel_matches_serial_bit_identically() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let grid = log_spaced(Hertz(100.0), Hertz(20_000.0), 9);
        let mut na = analyzer_for(&dut);
        let serial = na.sweep_with(&LotEngine::serial(), &grid).unwrap();
        let parallel = na.sweep_with(&LotEngine::with_threads(4), &grid).unwrap();
        // PartialEq on f64 fields: bit-identical, not approximately equal.
        assert_eq!(serial, parallel);
        assert_eq!(serial.points().len(), grid.len());
    }

    #[test]
    fn parallel_matches_serial_with_seeded_cmos_noise() {
        // The CMOS profile exercises every seeded noise/mismatch source;
        // determinism must survive the thread fan-out.
        let dut = ActiveRcFilter::paper_dut().linearized();
        let grid = log_spaced(Hertz(200.0), Hertz(5_000.0), 5);
        let cfg = AnalyzerConfig::cmos_035um(7).with_periods(100);
        let mut na = NetworkAnalyzer::new(&dut, cfg);
        let serial = na.sweep_with(&LotEngine::serial(), &grid).unwrap();
        let parallel = na.sweep_with(&LotEngine::with_threads(3), &grid).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_workers_than_points_is_fine() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let grid = [Hertz(800.0), Hertz(1200.0)];
        let mut na = analyzer_for(&dut);
        let plot = na.sweep_with(&LotEngine::with_threads(16), &grid).unwrap();
        assert_eq!(plot.len(), 2);
        assert!(plot.points()[0].frequency.value() < plot.points()[1].frequency.value());
    }

    #[test]
    fn lowest_index_error_wins() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        na.calibrate().unwrap();
        let grid = [Hertz(1000.0), Hertz(-3.0), Hertz(2000.0), Hertz(-7.0)];
        let expected = NetanError::InvalidFrequency { hz_millis: -3000 };
        // The sweep: rejected during up-front validation.
        let err = na
            .sweep_with(&LotEngine::with_threads(4), &grid)
            .unwrap_err();
        assert_eq!(err, expected);
    }

    #[test]
    fn invalid_frequency_rejected_before_calibration() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let err = na
            .sweep_with(&LotEngine::auto(), &[Hertz(1000.0), Hertz(0.0)])
            .unwrap_err();
        assert_eq!(err, NetanError::InvalidFrequency { hz_millis: 0 });
        // No simulation work was spent on the bad batch.
        assert!(na.calibration().is_none());
    }

    #[test]
    fn empty_batch_rejected() {
        let dut = ActiveRcFilter::paper_dut();
        let mut na = analyzer_for(&dut);
        assert_eq!(
            na.sweep_with(&LotEngine::auto(), &[]).unwrap_err(),
            NetanError::EmptySweep
        );
    }

    #[test]
    fn batched_api_calibrates_lazily_once() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        assert!(na.calibration().is_none());
        let plot = na
            .sweep_with(&LotEngine::serial(), &[Hertz(1000.0)])
            .unwrap();
        assert_eq!(plot.len(), 1);
        assert!(na.calibration().is_some());
    }
}
