//! The complete sinewave generator: sequencer + capacitor array + biquad.

use crate::array::CapacitorArray;
use crate::biquad::{GeneratorBiquad, TransferPlans};
use crate::sequencer::{StepSequencer, STEPS_PER_PERIOD, TRANSFERS_PER_PERIOD};
use mixsig::clock::{MasterClock, OVERSAMPLING_RATIO};
use mixsig::mismatch::MatchingSpec;
use mixsig::noise::NoiseSource;
use mixsig::opamp::OpAmpModel;
use mixsig::units::{Hertz, Seconds, Volts};

/// Number of master-clock samples for which each biquad output is held
/// (`f_eva / (2·f_gen) = 3`).
pub(crate) const HOLD_SAMPLES: usize = OVERSAMPLING_RATIO as usize / TRANSFERS_PER_PERIOD;

/// Configuration of a [`SinewaveGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// The external master clock at `f_eva`.
    pub master_clock: MasterClock,
    /// Programmed amplitude reference `VA+ − VA−` (paper Fig. 2a DC input).
    pub va_diff: Volts,
    /// Op-amp model shared by both integrators (paper reuses one amplifier).
    pub opamp: OpAmpModel,
    /// Capacitor matching quality.
    pub matching: MatchingSpec,
    /// Physical unit capacitor for `kT/C` noise scaling, farads.
    pub unit_cap_farads: f64,
    /// Seed for mismatch fabrication and noise streams.
    pub seed: u64,
    /// Whether stochastic noise is injected.
    pub noise: bool,
}

impl GeneratorConfig {
    /// Ideal generator: exact capacitors, ideal op-amp, no noise.
    pub fn ideal(master_clock: MasterClock, va_diff: Volts) -> Self {
        Self {
            master_clock,
            va_diff,
            opamp: OpAmpModel::ideal(),
            matching: MatchingSpec::ideal(),
            unit_cap_farads: 1.0e-12,
            seed: 0,
            noise: false,
        }
    }

    /// Generator with non-idealities representative of the paper's 0.35 µm
    /// prototype: folded-cascode op-amp, typical poly-poly matching, 1 pF
    /// unit capacitor, `kT/C` noise on.
    pub fn cmos_035um(master_clock: MasterClock, va_diff: Volts, seed: u64) -> Self {
        Self {
            master_clock,
            va_diff,
            opamp: OpAmpModel::folded_cascode_035um(),
            matching: MatchingSpec::typical_035um(),
            unit_cap_farads: 1.0e-12,
            seed,
            noise: true,
        }
    }

    /// Whether the generated stream ignores the master clock: exact
    /// capacitors, an ideal op-amp and no noise. Such a generator
    /// fabricates the exact Table I loop, whose ideal op-amp settles every
    /// transfer completely in any [`settle_time`](Self::settle_time), the
    /// one thing the clock sets; so one stream serves every stimulus
    /// frequency, bit for bit. It is the plan-free fast path of
    /// [`settles_completely`](Self::settles_completely), which every
    /// acquisition asks at each stimulus frequency.
    pub fn is_clock_invariant(&self) -> bool {
        self.opamp == OpAmpModel::ideal() && self.matching == MatchingSpec::ideal() && !self.noise
    }

    /// Whether every charge transfer of this configuration's generator
    /// settles completely within its slot, to the last bit, so its stream
    /// does not depend on the clock: configurations that differ only in
    /// their master clocks, and of which this holds, generate the same
    /// samples, bit for bit, and one stream serves all their stimulus
    /// frequencies.
    ///
    /// The clock sets only the time a transfer has to settle
    /// ([`settle_time`](Self::settle_time)). Through the generator's
    /// step plans at this clock ([`ScIntegrator::settles_completely`]),
    /// it holds when every plan's linear settling fraction is exactly 1,
    /// no transfer it can be asked for slews through the whole slot, and
    /// the exponential tail stays below a quarter ulp of the op-amp's
    /// linear-region boundary for the largest such transfer: the one the
    /// ±swing clamp, the `va_diff` staircase and Box–Muller's 8.49σ
    /// ceiling on the `kT/C` draws allow. Ideal hardware passes without
    /// building a plan ([`is_clock_invariant`](Self::is_clock_invariant));
    /// on the 0.35 µm profile it holds through the audio band (up to
    /// about 28 kHz at the default references) and fails where the
    /// streams part, as at 50 kHz.
    ///
    /// [`ScIntegrator::settles_completely`]: mixsig::sc::ScIntegrator::settles_completely
    pub fn settles_completely(&self) -> bool {
        self.is_clock_invariant() || SinewaveGenerator::new(self.clone()).settles_completely()
    }

    /// Time available per charge transfer (half a generator-clock phase).
    pub fn settle_time(&self) -> Seconds {
        // The biquad transfers at 2·f_gen = f_eva/3; allow 80 % of the
        // transfer slot for settling (the rest covers non-overlap).
        Seconds(0.8 * 3.0 / self.master_clock.frequency_hz() / 2.0)
    }
}

/// The paper's SC sinewave generator.
///
/// Produces its output as a zero-order-held waveform sampled at the master
/// clock `f_eva` (96 samples per stimulus period), which is exactly how the
/// evaluator sees it.
#[derive(Debug, Clone)]
pub struct SinewaveGenerator {
    config: GeneratorConfig,
    array: CapacitorArray,
    biquad: GeneratorBiquad,
    /// One hoisted transfer plan per sequencer step: the fabricated
    /// staircase weights are fixed after construction, so the biquad's
    /// per-transfer invariants are computed once here instead of on every
    /// charge transfer.
    plans: TransferPlans,
    sequencer: StepSequencer,
    held: f64,
    hold_phase: usize,
}

impl SinewaveGenerator {
    /// Builds the generator from its configuration (fabricating the
    /// capacitors when the config requests mismatch).
    pub fn new(config: GeneratorConfig) -> Self {
        let mut fab_noise = if config.noise || config.matching != MatchingSpec::ideal() {
            NoiseSource::new(config.seed)
        } else {
            NoiseSource::disabled()
        };
        let array = CapacitorArray::fabricate(config.matching, &mut fab_noise);
        let mut circuit_noise = if config.noise {
            NoiseSource::new(config.seed.wrapping_add(0x5EED))
        } else {
            NoiseSource::disabled()
        };
        let biquad = GeneratorBiquad::fabricate(
            config.matching,
            config.opamp,
            config.settle_time(),
            config.unit_cap_farads,
            &mut circuit_noise,
        );
        let weights: Vec<f64> = (0..STEPS_PER_PERIOD)
            .map(|j| array.step_weight(j))
            .collect();
        let plans = biquad.plan_transfers(&weights);
        Self {
            config,
            array,
            biquad,
            plans,
            sequencer: StepSequencer::new(),
            held: 0.0,
            hold_phase: 0,
        }
    }

    /// Whether every transfer this generator can make settles
    /// completely ([`GeneratorConfig::settles_completely`]), from its own
    /// plans.
    pub(crate) fn settles_completely(&self) -> bool {
        self.biquad
            .settles_completely(&self.plans, self.config.va_diff.value())
    }

    /// Generated stimulus frequency `f_wave = f_eva/96`.
    pub fn stimulus_frequency(&self) -> Hertz {
        self.config.master_clock.stimulus_frequency()
    }

    /// Advances one biquad charge transfer (rate `2·f_gen = f_eva/3`)
    /// through the biquad's scalar `transfer`, the reference path —
    /// bit-identical to the planned path [`fill_block`](Self::fill_block)
    /// uses (asserted by the sigen test suite).
    pub fn next_transfer(&mut self) -> f64 {
        let j = self.sequencer.tick_half();
        let w = self.array.step_weight(j);
        self.biquad.transfer(w, self.config.va_diff.value())
    }

    /// Fills `out` with the next `out.len()` output samples at the
    /// master-clock rate `f_eva` (each biquad output held for
    /// `HOLD_SAMPLES` samples), bit-identical however `out` is split
    /// into blocks.
    ///
    /// Transfers run through the biquad's per-step transfer plans,
    /// cached at construction (same arithmetic and noise draws as
    /// [`next_transfer`](Self::next_transfer), with the per-transfer
    /// invariants hoisted). The block runs transfer-major: it finishes
    /// the hold in progress, then does one transfer per
    /// `HOLD_SAMPLES` copies; the biquad's exact instantiation is chosen
    /// once per block from the plans.
    pub fn fill_block(&mut self, out: &mut [f64]) {
        if self.plans.is_exact() {
            self.fill_block_in::<true>(out);
        } else {
            self.fill_block_in::<false>(out);
        }
    }

    fn fill_block_in<const EXACT: bool>(&mut self, out: &mut [f64]) {
        let carry = ((HOLD_SAMPLES - self.hold_phase) % HOLD_SAMPLES).min(out.len());
        let (head, rest) = out.split_at_mut(carry);
        head.fill(self.held);
        self.hold_phase = (self.hold_phase + carry) % HOLD_SAMPLES;
        let va = self.config.va_diff.value();
        for hold in rest.chunks_mut(HOLD_SAMPLES) {
            let j = self.sequencer.tick_half();
            self.held = self.biquad.transfer_planned_in::<EXACT>(&self.plans, j, va);
            hold.fill(self.held);
            self.hold_phase = hold.len() % HOLD_SAMPLES;
        }
    }

    /// Generates `n` samples at `f_eva`.
    pub fn waveform_at_feva(&mut self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.fill_block(&mut out);
        out
    }

    /// Runs the generator until the start-up transient has decayed
    /// (`periods` stimulus periods, ≥ ~10 recommended for Q ≈ 2.5).
    pub fn settle(&mut self, periods: usize) {
        let mut sink = [0.0; OVERSAMPLING_RATIO as usize];
        for _ in 0..periods {
            self.fill_block(&mut sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::goertzel::tone_amplitude_phase;
    use mixsig::clock::MasterClock;

    fn ideal_gen(va: f64) -> SinewaveGenerator {
        SinewaveGenerator::new(GeneratorConfig::ideal(
            MasterClock::from_hz(6.0e6),
            Volts(va),
        ))
    }

    #[test]
    fn output_period_is_96_samples() {
        let mut gen = ideal_gen(0.15);
        gen.settle(30);
        let w = gen.waveform_at_feva(96 * 4);
        // One period later the waveform repeats.
        for i in 0..96 {
            assert!((w[i] - w[i + 96]).abs() < 1e-6, "sample {i}");
        }
    }

    #[test]
    fn amplitude_tracks_va_ratio() {
        // Paper Fig. 8a: VA = 150/250/300 mV → 300/500/600 mV outputs.
        let mut amps = Vec::new();
        for va in [0.150, 0.250, 0.300] {
            let mut gen = ideal_gen(va);
            gen.settle(40);
            let w = gen.waveform_at_feva(96 * 16);
            let (a, _) = tone_amplitude_phase(&w, 1.0 / 96.0);
            amps.push(a);
        }
        assert!((amps[1] / amps[0] - 250.0 / 150.0).abs() < 1e-6);
        assert!((amps[2] / amps[0] - 2.0).abs() < 1e-6);
        // Absolute level ≈ 2·VA (paper's measured scaling).
        assert!((amps[0] - 0.300).abs() < 0.02, "{}", amps[0]);
        assert!((amps[2] - 0.600).abs() < 0.04, "{}", amps[2]);
    }

    #[test]
    fn fundamental_lands_at_feva_over_96() {
        let mut gen = ideal_gen(0.2);
        gen.settle(40);
        let w = gen.waveform_at_feva(96 * 32);
        let (a_fund, _) = tone_amplitude_phase(&w, 1.0 / 96.0);
        // Energy at a coherent but non-harmonic probe (43 cycles in the
        // 32-period record — not a multiple of 32) should be tiny.
        let (a_off, _) = tone_amplitude_phase(&w, 43.0 / (96.0 * 32.0));
        assert!(a_fund > 0.3);
        assert!(a_off < a_fund / 1e3);
    }

    #[test]
    fn ideal_generator_harmonics_are_low() {
        // With exact capacitors the only in-band residue is the biquad's
        // filtered image content; harmonics 2..5 must sit far below the
        // fundamental.
        let mut gen = ideal_gen(0.25);
        gen.settle(60);
        let w = gen.waveform_at_feva(96 * 64);
        let (a1, _) = tone_amplitude_phase(&w, 1.0 / 96.0);
        for k in 2..=5usize {
            let (ak, _) = tone_amplitude_phase(&w, k as f64 / 96.0);
            let dbc = 20.0 * (ak / a1).log10();
            assert!(dbc < -80.0, "H{k} at {dbc} dBc");
        }
    }

    #[test]
    fn stimulus_frequency_follows_master_clock() {
        let gen = SinewaveGenerator::new(GeneratorConfig::ideal(
            MasterClock::from_hz(1.92e6),
            Volts(0.1),
        ));
        assert_eq!(gen.stimulus_frequency().value(), 20_000.0);
    }

    #[test]
    fn fill_block_matches_per_sample_stream() {
        let clk = MasterClock::from_hz(6.0e6);
        for cfg in [
            GeneratorConfig::ideal(clk, Volts(0.2)),
            GeneratorConfig::cmos_035um(clk, Volts(0.2), 5),
        ] {
            let mut by_sample = SinewaveGenerator::new(cfg.clone());
            let mut by_block = SinewaveGenerator::new(cfg);
            let mut next_sample = || {
                let mut s = [0.0];
                by_sample.fill_block(&mut s);
                s[0]
            };
            let want: Vec<f64> = (0..96 * 3 + 17).map(|_| next_sample()).collect();
            let mut got = vec![0.0; want.len()];
            // Uneven chunks land mid-hold, exercising the hold carry.
            for chunk in got.chunks_mut(11) {
                by_block.fill_block(chunk);
            }
            assert_eq!(want, got);
        }
    }

    #[test]
    fn fill_block_matches_unplanned_transfer_loop() {
        // `fill_block` runs on cached TransferPlans; `next_transfer` is
        // the scalar reference. Replicating the hold logic over the
        // reference must reproduce the block output bit-for-bit, for the
        // ideal and the noisy fabricated generator.
        let clk = MasterClock::from_hz(6.0e6);
        for cfg in [
            GeneratorConfig::ideal(clk, Volts(0.2)),
            GeneratorConfig::cmos_035um(clk, Volts(0.2), 11),
        ] {
            let mut by_plan = SinewaveGenerator::new(cfg.clone());
            let mut by_scalar = SinewaveGenerator::new(cfg);
            let n = 96 * 5 + 7;
            let mut got = vec![0.0; n];
            by_plan.fill_block(&mut got);
            let mut want = vec![0.0; n];
            let mut held = 0.0;
            for (i, y) in want.iter_mut().enumerate() {
                if i % HOLD_SAMPLES == 0 {
                    held = by_scalar.next_transfer();
                }
                *y = held;
            }
            assert_eq!(want, got);
        }
    }

    #[test]
    fn ideal_stream_does_not_depend_on_the_clock() {
        // Warm-up plus two M = 50 windows at three stimulus clocks: the
        // ideal generator's samples are the same bits at each. The
        // 0.35 µm generator settles within a slot that its clock sets, so
        // it is not clock-invariant: at the paper's 62.5 kHz top its
        // stream leaves the 1 kHz one.
        let stream = |cfg: GeneratorConfig| {
            let mut gen = SinewaveGenerator::new(cfg);
            let w = gen.waveform_at_feva(96 * (40 + 2 * 50));
            w.iter().map(|y| y.to_bits()).collect::<Vec<_>>()
        };
        let clk = |f_wave: f64| MasterClock::for_stimulus(Hertz(f_wave));
        let ideal = |f_wave: f64| {
            let cfg = GeneratorConfig::ideal(clk(f_wave), Volts(0.15));
            assert!(cfg.is_clock_invariant(), "{f_wave} Hz");
            stream(cfg)
        };
        let want = ideal(1000.0);
        assert_eq!(ideal(100.0), want);
        assert_eq!(ideal(20_000.0), want);
        let cmos = |f_wave: f64| GeneratorConfig::cmos_035um(clk(f_wave), Volts(0.15), 7);
        assert!(!cmos(1000.0).is_clock_invariant());
        assert_ne!(stream(cmos(62_500.0)), stream(cmos(1000.0)));
    }

    #[test]
    fn clocks_that_settle_completely_share_one_stream() {
        // The 0.35 µm generator at several seeds and references, over
        // warm-up plus two M = 50 windows: every clock the predicate
        // accepts gives the stream of every other clock it accepts, bit
        // for bit. It accepts the audio band and refuses 50 kHz and
        // 62.5 kHz, whose streams leave the 1 kHz one.
        let stream = |cfg: GeneratorConfig| {
            let mut gen = SinewaveGenerator::new(cfg);
            let w = gen.waveform_at_feva(96 * (40 + 2 * 50));
            w.iter().map(|y| y.to_bits()).collect::<Vec<_>>()
        };
        let clk = |f_wave: f64| MasterClock::for_stimulus(Hertz(f_wave));
        // Up to about 33 kHz the streams still match the 1 kHz one, so
        // a predicate that accepted too much would show only past that:
        // 34 to 40 kHz hold it to its bound.
        let clocks = [
            100.0, 1000.0, 10_000.0, 20_000.0, 25_000.0, 28_000.0, 30_000.0, 34_000.0, 36_000.0,
            40_000.0, 50_000.0, 62_500.0,
        ];
        for seed in [1, 7, 90210] {
            for va in [0.05, 0.15, 0.3] {
                let cfg = |f_wave: f64| GeneratorConfig::cmos_035um(clk(f_wave), Volts(va), seed);
                let accepted: Vec<f64> = clocks
                    .into_iter()
                    .filter(|&f| cfg(f).settles_completely())
                    .collect();
                let case = format!("seed {seed}, va {va}: accepts {accepted:?}");
                assert_eq!(accepted[..4], [100.0, 1000.0, 10_000.0, 20_000.0], "{case}");
                let want = stream(cfg(accepted[0]));
                for &f in &accepted[1..] {
                    assert!(stream(cfg(f)) == want, "{case}: {f} Hz");
                }
                for f in [50_000.0, 62_500.0] {
                    assert!(!accepted.contains(&f), "{case}");
                    assert!(stream(cfg(f)) != want, "{case}: {f} Hz");
                }
            }
        }
        // Ideal hardware passes at every clock, through its plans too.
        for f in clocks.into_iter().chain([200_000.0]) {
            let cfg = GeneratorConfig::ideal(clk(f), Volts(0.15));
            assert!(cfg.settles_completely(), "{f} Hz");
            assert!(SinewaveGenerator::new(cfg).settles_completely(), "{f} Hz");
        }
    }

    #[test]
    fn mismatched_generator_is_reproducible() {
        let clk = MasterClock::from_hz(6.0e6);
        let mk = || {
            let mut g = SinewaveGenerator::new(GeneratorConfig::cmos_035um(clk, Volts(0.25), 7));
            g.settle(10);
            g.waveform_at_feva(96)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn nonideal_generator_still_produces_sine() {
        let mut gen = SinewaveGenerator::new(GeneratorConfig::cmos_035um(
            MasterClock::from_hz(6.0e6),
            Volts(0.25),
            3,
        ));
        gen.settle(40);
        let w = gen.waveform_at_feva(96 * 32);
        let (a1, _) = tone_amplitude_phase(&w, 1.0 / 96.0);
        assert!((a1 - 0.5).abs() < 0.05, "fundamental {a1}");
    }
}
