//! The demonstrator board: generator → (DUT | calibration bypass) → out.
//!
//! Implements the signal routing of paper Fig. 1, including the dashed
//! calibration path that feeds the generated stimulus directly to the
//! evaluator — used both to verify the BIST circuitry and to characterize
//! the test input (whose amplitude/phase are set by `VA+−VA−` and the
//! digital control, so calibration "only needs to be performed once").
//!
//! The same invariance lets one board carry a whole **lane** of devices:
//! the generator never sees the DUT, so one generator drives every
//! mounted device with the stimulus each would get from a generator of
//! its own ([`DemoBoard::with_devices`], read through
//! [`LaneSource`]). Calibration is such a lane too: the bypass is the
//! identity device [`dut::Bypass`] mounted on its own board.
//!
//! A mounted simulator need not run at the generator's clock
//! ([`DemoBoard::with_slots`]). Every clock at which each generator
//! transfer settles completely ([`GeneratorConfig::settles_completely`]:
//! any clock on ideal hardware, the audio band on the 0.35 µm profile)
//! generates the same stream, so one board carries the devices of all
//! such stimulus frequencies, each simulator instantiated at its own
//! point's master clock.

use dut::{Dut, DutSim};
use mixsig::clock::MasterClock;
use sdeval::{device_groups, BlockSource, LaneSource, GROUP_DEVICES};
use sigen::{GeneratorConfig, SinewaveGenerator};
use std::ops::Range;

/// Which path the evaluator observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignalPath {
    /// Through the device under test.
    #[default]
    Dut,
    /// The dashed calibration bypass of paper Fig. 1.
    CalibrationBypass,
}

/// The demonstrator board: an on-chip generator wired to one or more
/// DUTs, with a calibration bypass. Each mounted DUT simulator runs at
/// the master clock it was mounted at (the generator's, unless
/// [`with_slots`](Self::with_slots) says otherwise).
///
/// The [`SignalPath`] selects only what [`fill_block`](Self::fill_block)
/// returns; a lane reader ([`LaneSource`]) always reads the devices.
///
/// The mounted devices run in groups of 1, 2, 4 or [`GROUP_DEVICES`]
/// ([`device_groups`]), in device order, whenever the board steps them
/// all (warm-up, every [`fill_block`](Self::fill_block)) and whenever a
/// lane reader asks for a group
/// ([`LaneSource::group_block`], the one way a lane is read, on any
/// hardware; a group of one is one device alone). Each group runs through
/// [`dut::process_group`], which steps the members' LTI cores in
/// lockstep so their serial dependency chains overlap. Each device's
/// samples are bit-identical to its own simulator's either way.
pub struct DemoBoard {
    generator: SinewaveGenerator,
    /// One simulator per mounted device, all fed by the generator.
    dut_sims: Vec<Box<dyn DutSim>>,
    path: SignalPath,
    /// Scratch buffers for block acquisition, grown once and reused:
    /// the current stimulus block, and a group's outputs interleaved per
    /// sample.
    stim: Vec<f64>,
    group: Vec<f64>,
}

impl DemoBoard {
    /// Assembles the board: builds the generator from `gen_config` and
    /// instantiates `device` at the configured master clock.
    pub fn new(gen_config: GeneratorConfig, device: &dyn Dut) -> Self {
        Self::with_devices(gen_config, &[device])
    }

    /// Assembles a lane board: one generator from `gen_config` feeding
    /// every device of `devices`, each instantiated at the configured
    /// master clock. Read through [`LaneSource`], device `d` responds
    /// exactly as it would on a board of its own.
    pub fn with_devices(gen_config: GeneratorConfig, devices: &[&dyn Dut]) -> Self {
        let clock = gen_config.master_clock;
        let slots: Vec<(&dyn Dut, MasterClock)> = devices.iter().map(|&d| (d, clock)).collect();
        Self::with_slots(gen_config, &slots)
    }

    /// Assembles a board of **slots**: one generator from `gen_config`
    /// feeding every slot, each slot a device whose simulator is
    /// instantiated at the slot's own master clock. Read through
    /// [`LaneSource`], slot `s` responds exactly as its device would on
    /// a board of its own built from `gen_config` at the slot's clock,
    /// whenever that board's generator produces the same stream: the
    /// slot's clock is the configured one, or every transfer settles
    /// completely at both clocks
    /// ([`GeneratorConfig::settles_completely`]).
    pub fn with_slots(gen_config: GeneratorConfig, slots: &[(&dyn Dut, MasterClock)]) -> Self {
        Self {
            generator: SinewaveGenerator::new(gen_config),
            dut_sims: slots
                .iter()
                .map(|(d, clock)| d.instantiate(clock.frequency()))
                .collect(),
            path: SignalPath::Dut,
            stim: Vec::new(),
            group: Vec::new(),
        }
    }

    /// The generator on the board.
    pub fn generator(&self) -> &SinewaveGenerator {
        &self.generator
    }

    /// Current signal path.
    pub fn path(&self) -> SignalPath {
        self.path
    }

    /// Selects the signal path that [`fill_block`](Self::fill_block)
    /// observes.
    pub fn set_path(&mut self, path: SignalPath) {
        self.path = path;
    }

    /// Fills `out` with the next `out.len()` master-clock samples of the
    /// selected output — the first mounted device's response on the DUT
    /// path, the stimulus on the bypass — the batched equivalent of
    /// [`next_sample`](Self::next_sample), bit-identical to it. Every
    /// mounted DUT keeps processing the stimulus, whichever output is
    /// observed, exactly like the real board (the bypass taps the
    /// signal, it does not disconnect the DUT). A board with no device
    /// leaves `out` as it is on the DUT path.
    pub fn fill_block(&mut self, out: &mut [f64]) {
        let len = out.len();
        self.generate(len);
        match self.path {
            SignalPath::Dut => self.step_devices(len, Some(out)),
            SignalPath::CalibrationBypass => {
                self.step_devices(len, None);
                out.copy_from_slice(&self.stim[..len]);
            }
        }
    }

    /// One master-clock sample of the selected output (a 1-sample
    /// [`fill_block`](Self::fill_block)).
    pub fn next_sample(&mut self) -> f64 {
        let mut s = [0.0];
        self.fill_block(&mut s);
        s[0]
    }

    /// Runs `periods` stimulus periods to let the generator and every
    /// DUT settle.
    pub fn warm_up(&mut self, periods: usize) {
        let mut sink = [0.0; mixsig::clock::OVERSAMPLING_RATIO as usize];
        for _ in 0..periods {
            self.fill_block(&mut sink);
        }
    }

    /// A closure view suitable for the per-sample evaluator API.
    pub fn source(&mut self) -> impl FnMut() -> f64 + '_ {
        move || self.next_sample()
    }

    /// Generates the next `len` stimulus samples into the scratch
    /// buffer, growing it as needed.
    fn generate(&mut self, len: usize) {
        if self.stim.len() < len {
            self.stim.resize(len, 0.0);
        }
        self.generator.fill_block(&mut self.stim[..len]);
    }

    /// Runs every mounted device over the current stimulus block of
    /// `len` samples, a group at a time, writing the first device's
    /// response to `first` when one is given and dropping the rest.
    /// Only this path fills the group scratch buffer (a lane reader
    /// brings its own), so only it grows the buffer.
    fn step_devices(&mut self, len: usize, mut first: Option<&mut [f64]>) {
        let width = GROUP_DEVICES.min(self.dut_sims.len());
        if self.group.len() < len * width {
            self.group.resize(len * width, 0.0);
        }
        let stim = &self.stim[..len];
        for devices in device_groups(self.dut_sims.len()) {
            let width = devices.len();
            let group = &mut self.group[..len * width];
            fill_group(&mut self.dut_sims[devices], stim, group);
            if let Some(first) = first.take() {
                for (y, row) in first.iter_mut().zip(group.chunks_exact(width)) {
                    *y = row[0];
                }
            }
        }
    }
}

/// Runs `sims`, a group of 1, 2, 4 or [`GROUP_DEVICES`] of them
/// ([`device_groups`]), over `stim` as one group
/// ([`dut::process_group`]), writing their responses to `out`
/// interleaved per sample: `out[t·w + s]` is member `s`'s response to
/// `stim[t]`, with `w = sims.len()`.
///
/// # Panics
///
/// Panics on a group of any other width.
fn fill_group(sims: &mut [Box<dyn DutSim>], stim: &[f64], out: &mut [f64]) {
    match sims.len() {
        1 => dut::process_group::<1>(sims, stim, out.as_chunks_mut().0),
        2 => dut::process_group::<2>(sims, stim, out.as_chunks_mut().0),
        4 => dut::process_group::<4>(sims, stim, out.as_chunks_mut().0),
        GROUP_DEVICES => {
            dut::process_group::<GROUP_DEVICES>(sims, stim, out.as_chunks_mut().0);
        }
        w => panic!("a device group is 1, 2, 4 or {GROUP_DEVICES} wide, not {w}"),
    }
}

impl BlockSource for DemoBoard {
    fn fill_block(&mut self, out: &mut [f64]) {
        DemoBoard::fill_block(self, out);
    }
}

/// The board as a lane: device `d` is the `d`-th mounted device, on
/// either path.
impl LaneSource for DemoBoard {
    fn devices(&self) -> usize {
        self.dut_sims.len()
    }

    fn advance(&mut self, len: usize) {
        self.generate(len);
    }

    /// The group's devices step in lockstep where they can (see
    /// [`DemoBoard`]).
    ///
    /// # Panics
    ///
    /// Panics unless `devices` holds 1, 2, 4 or [`GROUP_DEVICES`]
    /// devices.
    fn group_block(&mut self, devices: Range<usize>, out: &mut [f64]) {
        let stim = &self.stim[..out.len() / devices.len().max(1)];
        fill_group(&mut self.dut_sims[devices], stim, out);
    }
}

impl std::fmt::Debug for DemoBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemoBoard")
            .field("path", &self.path)
            .field("devices", &self.dut_sims.len())
            .field("stimulus_hz", &self.generator.stimulus_frequency().value())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::goertzel::tone_amplitude_phase;
    use dut::{ActiveRcFilter, LinearDut, NonlinearDut, Polynomial};
    use mixsig::clock::MasterClock;
    use mixsig::units::Volts;

    fn board_at(f_wave_hz: f64) -> DemoBoard {
        let clk = MasterClock::for_stimulus(mixsig::units::Hertz(f_wave_hz));
        let cfg = GeneratorConfig::ideal(clk, Volts(0.15));
        DemoBoard::new(cfg, &ActiveRcFilter::paper_dut().linearized())
    }

    #[test]
    fn bypass_returns_stimulus() {
        let mut board = board_at(1000.0);
        board.set_path(SignalPath::CalibrationBypass);
        board.warm_up(30);
        let w: Vec<f64> = (0..96 * 8).map(|_| board.next_sample()).collect();
        let (a, _) = tone_amplitude_phase(&w, 1.0 / 96.0);
        // Ideal generator: ≈ 2·VA = 0.30 V.
        assert!((a - 0.30).abs() < 0.02, "{a}");
    }

    #[test]
    fn dut_path_applies_filter_gain() {
        // At f_wave = f0 = 1 kHz the Butterworth DUT attenuates by 3 dB.
        let mut board = board_at(1000.0);
        board.warm_up(40);
        let w: Vec<f64> = (0..96 * 8).map(|_| board.next_sample()).collect();
        let (a_out, _) = tone_amplitude_phase(&w, 1.0 / 96.0);

        let mut cal = board_at(1000.0);
        cal.set_path(SignalPath::CalibrationBypass);
        cal.warm_up(40);
        let wc: Vec<f64> = (0..96 * 8).map(|_| cal.next_sample()).collect();
        let (a_in, _) = tone_amplitude_phase(&wc, 1.0 / 96.0);

        let gain_db = 20.0 * (a_out / a_in).log10();
        assert!((gain_db + 3.01).abs() < 0.2, "gain {gain_db} dB");
    }

    #[test]
    fn path_switching_mid_stream() {
        let mut board = board_at(2000.0);
        board.warm_up(10);
        assert_eq!(board.path(), SignalPath::Dut);
        board.set_path(SignalPath::CalibrationBypass);
        assert_eq!(board.path(), SignalPath::CalibrationBypass);
        // Still produces samples.
        let _ = board.next_sample();
    }

    #[test]
    fn fill_block_matches_per_sample_stream() {
        let mut by_sample = board_at(1000.0);
        let mut by_block = board_at(1000.0);
        let want: Vec<f64> = (0..96 * 2 + 5).map(|_| by_sample.next_sample()).collect();
        let mut got = vec![0.0; want.len()];
        for chunk in got.chunks_mut(17) {
            by_block.fill_block(chunk);
        }
        assert_eq!(want, got);
    }

    #[test]
    fn bypass_only_board_matches_full_board_bypass_output() {
        // A bypass-only board — one whose only device is the identity
        // `Bypass` — reads on its DUT path, block by block and as a lane,
        // exactly what a full board reads on its bypass path.
        let clk = MasterClock::for_stimulus(mixsig::units::Hertz(1000.0));
        let cfg = GeneratorConfig::cmos_035um(clk, Volts(0.15), 11);
        let mut full = DemoBoard::new(cfg.clone(), &ActiveRcFilter::paper_dut());
        full.set_path(SignalPath::CalibrationBypass);
        let mut bypass_only = DemoBoard::new(cfg.clone(), &dut::Bypass);
        let want: Vec<f64> = (0..96 * 4).map(|_| full.next_sample()).collect();
        let mut got = vec![0.0; want.len()];
        bypass_only.fill_block(&mut got);
        assert_eq!(want, got);
        let mut lane = DemoBoard::new(cfg, &dut::Bypass);
        lane.advance(want.len());
        lane.group_block(0..1, &mut got);
        assert_eq!(want, got);
    }

    /// Device `d` of the mixed lanes: the order-3 paper DUT (with its
    /// output polynomial), a non-LTI `NonlinearDut`, an order-2
    /// `LinearDut` (with none), or an order-2 active-RC biquad (with
    /// one). The first group of eight mixes orders 3 and 2, polynomial
    /// and none, and the non-LTI device; the second steps eight biquads
    /// of one shape fully in lockstep; and the seventeenth device is a
    /// tail of one.
    fn mixed_device(d: usize) -> Box<dyn Dut> {
        let seed = d as u64;
        let f0 = mixsig::units::Hertz(700.0 + 40.0 * d as f64);
        match d {
            0 | 3 => Box::new(ActiveRcFilter::paper_dut().fabricate(0.05, seed)),
            2 => Box::new(NonlinearDut::new(
                LinearDut::lowpass(f0, 0.8, 1.1),
                Polynomial::new(0.02, 0.1),
            )),
            7 | 16 => Box::new(LinearDut::lowpass(f0, 0.6, 0.9)),
            _ => Box::new(ActiveRcFilter::new(f0, 0.9, 1.0)),
        }
    }

    #[test]
    fn lane_devices_see_what_their_own_boards_produce() {
        // Lanes around the group width, each mixing orders 3 and 2 and a
        // device with no LTI core inside one group, and running groups of
        // every width (3 = 2 + 1, 7 = 4 + 2 + 1, 17 = 8 + 8 + 1): through
        // warm-up and both ways of reading a block (group by group, and
        // in groups of one), each device's raw samples are its own
        // board's.
        let clk = MasterClock::for_stimulus(mixsig::units::Hertz(1200.0));
        let cfg = GeneratorConfig::cmos_035um(clk, Volts(0.15), 4);
        for lane_size in [3usize, 4, 7, 9, 17] {
            let devices: Vec<Box<dyn Dut>> = (0..lane_size).map(mixed_device).collect();
            let mounted: Vec<&dyn Dut> = devices.iter().map(|d| d.as_ref()).collect();
            let mut lane = DemoBoard::with_devices(cfg.clone(), &mounted);
            let mut own: Vec<DemoBoard> = devices
                .iter()
                .map(|d| DemoBoard::new(cfg.clone(), d.as_ref()))
                .collect();
            assert_eq!(LaneSource::devices(&lane), lane_size);
            lane.warm_up(3);
            own.iter_mut().for_each(|b| b.warm_up(3));
            for (read, len) in [1usize, 17, 96, 250].into_iter().enumerate() {
                lane.advance(len);
                let want: Vec<Vec<f64>> = own
                    .iter_mut()
                    .map(|board| {
                        let mut want = vec![0.0; len];
                        board.fill_block(&mut want);
                        want
                    })
                    .collect();
                let mut got = vec![vec![0.0; len]; lane_size];
                let groups: Vec<Range<usize>> = if read == 1 {
                    (0..lane_size).map(|d| d..d + 1).collect()
                } else {
                    device_groups(lane_size).collect()
                };
                for devices in groups {
                    let (first, w) = (devices.start, devices.len());
                    let mut rows = vec![0.0; len * w];
                    lane.group_block(devices, &mut rows);
                    for (t, row) in rows.chunks_exact(w).enumerate() {
                        for (s, &y) in row.iter().enumerate() {
                            got[first + s][t] = y;
                        }
                    }
                }
                for (d, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.iter().map(|y| y.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|y| y.to_bits()).collect::<Vec<_>>(),
                        "lane of {lane_size}, device {d}, block of {len}"
                    );
                }
            }
            // The path selects only `fill_block`'s output: on the bypass
            // it is the stimulus, the lane still reads every device, and
            // the DUTs keep pace unobserved.
            lane.set_path(SignalPath::CalibrationBypass);
            assert_eq!(LaneSource::devices(&lane), lane_size);
            let mut stimulus = vec![0.0; 40];
            lane.fill_block(&mut stimulus);
            lane.set_path(SignalPath::Dut);
            lane.advance(33);
            for (d, board) in own.iter_mut().enumerate() {
                board.set_path(SignalPath::CalibrationBypass);
                let mut want = vec![0.0; 40];
                board.fill_block(&mut want);
                assert_eq!(stimulus, want, "lane of {lane_size}, bypass");
                board.set_path(SignalPath::Dut);
                let mut want = vec![0.0; 33];
                board.fill_block(&mut want);
                let mut got = vec![0.0; 33];
                lane.group_block(d..d + 1, &mut got);
                assert_eq!(
                    got, want,
                    "lane of {lane_size}, device {d} after the bypass"
                );
            }
        }
    }

    #[test]
    fn debug_format_mentions_path() {
        let board = board_at(1000.0);
        let s = format!("{board:?}");
        assert!(s.contains("Dut"));
        assert!(s.contains("1000"));
    }
}
