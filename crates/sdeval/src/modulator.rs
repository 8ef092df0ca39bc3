//! The first-order ΣΔ modulator with square-wave input modulation
//! (paper Fig. 5).
//!
//! A fully-differential SC integrator (`CI/CF = 0.4` to keep the integrator
//! out of saturation while retaining gain), a clocked latch comparator and a
//! 1-bit capacitive DAC. The input switching interface is controlled by the
//! digital signal `q_k`: depending on its level the sampled input charge is
//! added with positive or negative weight — this *is* the square-wave
//! multiplication, performed inside the modulator at zero extra analog cost.
//!
//! Update per master-clock cycle (decision first, then integration):
//!
//! ```text
//! d[n] = sign(u[n−1] + v_comp)          (latch comparator)
//! u[n] = u[n−1]·α + b·(q·x[n] − d[n]·Vref) + b·offset terms + noise
//! ```
//!
//! with `b = CI/CF = 0.4`, leak `α` from finite op-amp gain. Summing the
//! bitstream telescopes the quantization error into a bounded term — the
//! basis of the paper's eq. (3)–(5); see [`crate::signature`].

use mixsig::noise::NoiseSource;
use mixsig::opamp::OpAmpModel;
use mixsig::sc::{Branch, ScIntegrator, ScStepPlan};
use mixsig::units::{Seconds, Volts};
use std::ops::Range;

/// The paper's integrator capacitor ratio `CI/CF = 0.4`.
pub const CI_OVER_CF: f64 = 0.4;

/// Behavioral model of the clocked latch comparator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorModel {
    /// Input-referred offset, volts.
    pub offset: Volts,
    /// Hysteresis half-width, volts (threshold shifts away from the last
    /// decision).
    pub hysteresis: Volts,
    /// Input-referred rms decision noise, volts.
    pub noise_rms: Volts,
}

impl ComparatorModel {
    /// An ideal comparator.
    pub fn ideal() -> Self {
        Self {
            offset: Volts(0.0),
            hysteresis: Volts(0.0),
            noise_rms: Volts(0.0),
        }
    }

    /// A dynamic-latch comparator typical of a 0.35 µm process: a few mV of
    /// offset, sub-mV hysteresis and decision noise.
    fn dynamic_latch_035um() -> Self {
        Self {
            offset: Volts(3.0e-3),
            hysteresis: Volts(0.3e-3),
            noise_rms: Volts(0.5e-3),
        }
    }
}

impl Default for ComparatorModel {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Configuration of one ΣΔ modulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SdmConfig {
    /// DAC reference voltage (full scale is ±`vref`).
    pub vref: Volts,
    /// Op-amp model of the integrator. Its `offset` field is applied as the
    /// modulator's input-referred offset (fixed polarity — it does *not*
    /// flip with `q_k`, which is what makes offset cancellation by chopping
    /// work).
    pub opamp: OpAmpModel,
    /// Comparator model.
    pub comparator: ComparatorModel,
    /// Physical unit capacitor for `kT/C` noise, farads.
    pub unit_cap_farads: f64,
    /// Time available for integration per clock phase.
    pub settle_time: Seconds,
    /// Noise stream seed.
    pub seed: u64,
    /// Whether stochastic noise is injected.
    pub noise: bool,
}

impl SdmConfig {
    /// An ideal modulator with reference `±1 V`.
    pub fn ideal() -> Self {
        Self {
            vref: Volts(1.0),
            opamp: OpAmpModel::ideal(),
            comparator: ComparatorModel::ideal(),
            unit_cap_farads: 1.0e-12,
            settle_time: Seconds(80.0e-9),
            seed: 0,
            noise: false,
        }
    }

    /// A modulator with the paper's 0.35 µm non-idealities.
    ///
    /// Two deliberate departures from the raw amplifier card, both to avoid
    /// behavioral **dead-zone artifacts** that the silicon measurably does
    /// not have (the paper's Fig. 9 resolves 2 mV tones and the analyzer
    /// reaches 70 dB dynamic range):
    ///
    /// * 100 dB *effective* DC gain (vs. 72 dB raw): at 72 dB the leak
    ///   model locks the first-order loop for inputs below ≈0.75 mV;
    /// * no cubic compression: the deterministic limit cycle turns the
    ///   compression into an effective leak (~1 mV dead zone). In silicon,
    ///   summing-node thermal noise dithers both mechanisms away; at
    ///   behavioral level removing them is the faithful choice (see
    ///   EXPERIMENTS.md, "modulator dead zones").
    pub fn cmos_035um(seed: u64) -> Self {
        Self {
            vref: Volts(1.0),
            opamp: OpAmpModel::folded_cascode_035um()
                .with_dc_gain(1.0e5)
                .with_cubic(0.0),
            comparator: ComparatorModel::dynamic_latch_035um(),
            unit_cap_farads: 1.0e-12,
            settle_time: Seconds(80.0e-9),
            seed,
            noise: true,
        }
    }

    /// Returns the configuration with a different DAC reference.
    #[must_use]
    pub fn with_vref(mut self, vref: Volts) -> Self {
        self.vref = vref;
        self
    }
}

/// A first-order ΣΔ modulator with square-wave input modulation.
#[derive(Debug, Clone)]
pub struct SigmaDeltaModulator {
    config: SdmConfig,
    integrator: ScIntegrator,
    comparator_noise: NoiseSource,
    last_bit: bool,
    input_offset: f64,
    /// Hoisted step plans for the two input polarities (`q` true/false) —
    /// the branch topology is fixed per polarity, only the sampled
    /// voltages change cycle to cycle.
    plan_pos: ScStepPlan,
    plan_neg: ScStepPlan,
}

impl SigmaDeltaModulator {
    /// Builds a modulator from its configuration.
    pub fn new(config: SdmConfig) -> Self {
        // The op-amp offset is modelled explicitly as a fixed-polarity input
        // charge (see module docs); strip it from the integrator so it is
        // not attached to the polarity-switched branches.
        let opamp_for_integrator = config.opamp.with_offset(Volts(0.0));
        let noise = if config.noise {
            NoiseSource::new(config.seed)
        } else {
            NoiseSource::disabled()
        };
        let comparator_noise = if config.noise {
            NoiseSource::new(config.seed.wrapping_add(0xC0_0B))
        } else {
            NoiseSource::disabled()
        };
        // Input-referred offset charges both the input and DAC branches.
        let input_offset = 2.0 * config.opamp.offset.value();
        let integrator = ScIntegrator::new(
            1.0,
            config.unit_cap_farads,
            opamp_for_integrator,
            config.settle_time,
            noise,
        );
        // Branch topology of `step` for each `q` polarity: sampled input,
        // DAC feedback, fixed-polarity offset branch.
        let plan_pos = integrator.plan(&[CI_OVER_CF, -CI_OVER_CF, CI_OVER_CF]);
        let plan_neg = integrator.plan(&[-CI_OVER_CF, -CI_OVER_CF, CI_OVER_CF]);
        Self {
            integrator,
            comparator_noise,
            last_bit: false,
            input_offset,
            plan_pos,
            plan_neg,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SdmConfig {
        &self.config
    }

    /// One master-clock cycle: samples input `x` with polarity `q`
    /// (`true` = positive), returns the output bit (`true` = +1).
    #[inline]
    pub fn step(&mut self, x: f64, q: bool) -> bool {
        // Latch decision on the previous integrator state.
        let cmp = &self.config.comparator;
        let threshold = cmp.offset.value() + self.comparator_noise.gaussian(cmp.noise_rms.value())
            - if self.last_bit { 1.0 } else { -1.0 } * cmp.hysteresis.value();
        let bit = self.integrator.output() >= threshold;
        // Integrate: modulated input, DAC feedback, fixed-polarity offset.
        let q_sign = if q { 1.0 } else { -1.0 };
        let d_sign = if bit { 1.0 } else { -1.0 };
        self.integrator.step(&[
            Branch::new(CI_OVER_CF * q_sign, x),
            Branch::new(-CI_OVER_CF, d_sign * self.config.vref.value()),
            Branch::new(CI_OVER_CF, self.input_offset),
        ]);
        self.last_bit = bit;
        bit
    }

    /// The modulator's state: integrator output and last decision.
    pub fn state(&self) -> ModulatorState {
        ModulatorState {
            integrator: self.integrator.output(),
            last_bit: self.last_bit,
        }
    }

    /// Restores a state taken with [`state`](Self::state).
    fn set_state(&mut self, state: ModulatorState) {
        self.integrator.set_output(state.integrator);
        self.last_bit = state.last_bit;
    }

    /// Whether [`ModulatorPair`]'s group kernel may run this modulator
    /// on its exact instantiation: both polarity plans are
    /// [exact](ScStepPlan::is_exact) and the comparator is ideal (zero
    /// offset, hysteresis and noise), so its threshold is exactly `+0.0`
    /// and a step draws nothing; and the DAC reference is 1 V with no
    /// input offset, so a step's charge is `g0·x + g1·d` with
    /// `g1·d = ±0.4` (see [`ModulatorPair::sums`]). Ideal hardware is
    /// exact; an ideal modulator with another reference or an op-amp
    /// offset is not.
    fn is_exact(&self) -> bool {
        let cmp = &self.config.comparator;
        self.plan_pos.is_exact()
            && self.plan_neg.is_exact()
            && cmp.offset.value() == 0.0
            && cmp.hysteresis.value() == 0.0
            && cmp.noise_rms.value() == 0.0
            && self.config.vref.value() == 1.0
            && self.input_offset == 0.0
    }

    /// Draws the noise of one step with polarity `q`: the comparator
    /// value, then the `kT/C` values of that polarity's own plan — the
    /// draws [`step`](Self::step) makes, from the same streams.
    #[inline]
    fn draw_step(&mut self, q: bool) -> StepNoise {
        let comparator = self
            .comparator_noise
            .gaussian(self.config.comparator.noise_rms.value());
        let plan = if q { &self.plan_pos } else { &self.plan_neg };
        (comparator, self.integrator.draw_ktc(plan))
    }
}

/// One step's pre-drawn noise: the comparator value, then the `kT/C`
/// values of the input, DAC and offset branches.
type StepNoise = (f64, [f64; 3]);

/// The noise of a step that draws nothing, for both modulators.
const NO_NOISE: [StepNoise; 2] = [(0.0, [0.0; 3]); 2];

/// What one device carries from one sample to the next through a
/// modulator: the integrator output and the last decision. The
/// configuration, the hoisted plans and the noise streams belong to the
/// [`SigmaDeltaModulator`], which every device of a lane shares.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModulatorState {
    /// Integrator output, volts.
    pub integrator: f64,
    /// The last comparator decision (`true` = +1).
    pub last_bit: bool,
}

/// A matched I/Q pair of modulators that any number of devices share.
///
/// The modulators' noise never depends on the signal: a step's
/// comparator and `kT/C` draws come from the modulator's own seeded
/// streams in step order, whatever the input. So each block's noise is
/// drawn once, before any device steps, and every device runs its own
/// [`ModulatorState`]s through the block with those same draws, in
/// groups of up to [`GROUP_DEVICES`]. An exact pair (ideal hardware:
/// exact plans, an ideal comparator, a 1 V reference and no offset)
/// draws nothing, and its groups run the kernel's exact instantiation,
/// `u + (g0·x + g1·d)` per step. Any other pair runs the general body
/// with the block's draws, which are zeros when its noise is off (an
/// ideal pair with another reference or an op-amp offset). Each device
/// decides exactly what a fresh pair of its own, stepped with
/// [`SigmaDeltaModulator::step`], would decide.
#[derive(Debug, Clone)]
pub struct ModulatorPair {
    i: SigmaDeltaModulator,
    q: SigmaDeltaModulator,
    /// Both modulators are exact: blocks draw nothing and groups run the
    /// kernel's exact instantiation.
    exact: bool,
    /// The current block's noise, per step: in-phase, then quadrature.
    /// Empty on an exact pair.
    noise: Vec<[StepNoise; 2]>,
}

impl ModulatorPair {
    /// Pairs the in-phase modulator `i` with the quadrature modulator
    /// `q`.
    pub fn new(i: SigmaDeltaModulator, q: SigmaDeltaModulator) -> Self {
        Self {
            exact: i.is_exact() && q.is_exact(),
            i,
            q,
            noise: Vec::new(),
        }
    }

    /// The in-phase and quadrature modulators' states.
    pub fn states(&self) -> [ModulatorState; 2] {
        [self.i.state(), self.q.state()]
    }

    /// Restores both modulators' states.
    pub fn set_states(&mut self, [i, q]: [ModulatorState; 2]) {
        self.i.set_state(i);
        self.q.set_state(q);
    }

    /// Runs one device's `states` (in-phase, quadrature) through a
    /// block: each sample of `x` goes to the in-phase modulator with the
    /// first polarity of the next `polarities` item and to the
    /// quadrature one with the second. Returns both signed counts (`+1`
    /// per high bit, `−1` per low bit) — what the signature counters
    /// integrate.
    ///
    /// It is the block's draw and a group of one, so each modulator's
    /// streams advance exactly as one device's step loop would advance
    /// them.
    pub fn process_block(
        &mut self,
        states: &mut [ModulatorState; 2],
        x: &[f64],
        polarities: impl Iterator<Item = (bool, bool)> + Clone,
    ) -> (i64, i64) {
        self.draw_block(x.len(), polarities.clone());
        let mut counts = [(0, 0)];
        self.step_group(std::slice::from_mut(states), x, polarities, &mut counts);
        let [counts] = counts;
        counts
    }

    /// Draws the noise of a block of `len` steps with `polarities`, in
    /// step order, and keeps it for [`step_group`](Self::step_group):
    /// per step the in-phase modulator's comparator and `kT/C` values,
    /// then the quadrature one's, from each modulator's own streams —
    /// the draws one device's step loop makes. An exact pair draws
    /// nothing.
    pub(crate) fn draw_block(
        &mut self,
        len: usize,
        polarities: impl Iterator<Item = (bool, bool)>,
    ) {
        let Self { i, q, exact, noise } = self;
        if *exact {
            return;
        }
        // Every slot is overwritten below; only a longer block than the
        // last one writes fresh slots.
        noise.resize(len, NO_NOISE);
        for (step, (qi, qq)) in noise.iter_mut().zip(polarities) {
            *step = [i.draw_step(qi), q.draw_step(qq)];
        }
    }

    /// Runs a group of devices through the block the last
    /// [`draw_block`](Self::draw_block) drew: the devices' `states`,
    /// their samples `x` interleaved per sample (`x[t·w + s]` is device
    /// `s`'s sample `t`, `w = states.len()`), one polarity pair per
    /// sample for every device, and each device's signed counts added
    /// to its slot of `counts`.
    ///
    /// A group is 1, 2, 4 or [`GROUP_DEVICES`] devices wide (see
    /// [`device_groups`]) and runs one kernel monomorphized on its width
    /// ([`step_group_n`](Self::step_group_n)).
    ///
    /// # Panics
    ///
    /// Panics on a group of any other width, and if a pair that is not
    /// exact steps more samples than the block drew.
    pub(crate) fn step_group(
        &self,
        states: &mut [[ModulatorState; 2]],
        x: &[f64],
        polarities: impl Iterator<Item = (bool, bool)> + Clone,
        counts: &mut [(i64, i64)],
    ) {
        match states.len() {
            1 => self.step_group_n::<1>(states, x, polarities, counts),
            2 => self.step_group_n::<2>(states, x, polarities, counts),
            4 => self.step_group_n::<4>(states, x, polarities, counts),
            GROUP_DEVICES => self.step_group_n::<GROUP_DEVICES>(states, x, polarities, counts),
            w => panic!("a device group is 1, 2, 4 or {GROUP_DEVICES} wide, not {w}"),
        }
    }

    /// The group kernel for a compile-time width `W`.
    ///
    /// An exact pair first runs the block on the exact instantiation of
    /// [`sums`](Self::sums) alone. A non-finite integrator stays
    /// non-finite under exact steps, so if every integrator ends the
    /// block finite, no step needed the general body and the block is
    /// what each device's own step loop computes. Otherwise, and on
    /// every block of a pair that is not exact, the block runs from its
    /// start through the general body with the block's draws; an exact
    /// pair's are zero.
    fn step_group_n<const W: usize>(
        &self,
        states: &mut [[ModulatorState; 2]],
        x: &[f64],
        polarities: impl Iterator<Item = (bool, bool)> + Clone,
        counts: &mut [(i64, i64)],
    ) {
        let mut start = [[ModulatorState::default(); 2]; W];
        for (slot, state) in start.iter_mut().zip(&*states) {
            *slot = *state;
        }
        let (rows, _) = x.as_chunks::<W>();
        // Both general runs take their draws from a slice, so they share
        // one instantiation, which stays out of line while the exact one
        // inlines here; an out-of-line exact kernel measured slower.
        let (end, acc) = if self.exact {
            let no_noise = std::iter::repeat(&NO_NOISE);
            let run = self.sums::<true, W>(start, rows, polarities.clone(), no_noise);
            let finite = run.0.iter().flatten().all(|end| end.integrator.is_finite());
            if finite {
                run
            } else {
                self.sums::<false, W>(start, rows, polarities, vec![NO_NOISE; rows.len()].iter())
            }
        } else {
            self.sums::<false, W>(start, rows, polarities, self.noise[..rows.len()].iter())
        };
        for (state, slot) in states.iter_mut().zip(&end) {
            *state = *slot;
        }
        for (count, acc) in counts.iter_mut().zip(&acc) {
            count.0 += acc.0;
            count.1 += acc.1;
        }
    }

    /// Runs `W` devices from `start` through `rows`, step `t` of every
    /// device with the `t`-th item of `noise`, struct-of-arrays: per
    /// sample and modulator, the `W` decisions, DAC voltages and charge
    /// transfers ([`ScIntegrator::steps`]) each run as one fixed-width
    /// loop, so the `2·W` dependency chains overlap. Each slot runs its
    /// own device's operations in the order
    /// [`SigmaDeltaModulator::step`] runs them: the decision against the
    /// threshold (offset plus the comparator draw, less the signed
    /// hysteresis), the DAC voltage `d·Vref`, then the charge transfer.
    /// A slot carries its last decision as its sign `d = ±1.0`, the
    /// factor both the hysteresis and the DAC take, and counts its high
    /// decisions, `(highs − lows) = 2·highs − steps`; so the whole step
    /// stays in floating-point lanes.
    ///
    /// `EXACT` runs an exact pair on the exact instantiation, which
    /// reads no draws and drops every operation that cannot change a
    /// finite result. The ideal comparator's threshold `0 + 0 − (±1)·0`
    /// is `+0.0`. Where the exact charge transfer of
    /// [`ScIntegrator::steps`] computes
    /// `u + (((0 + g0·x) + g1·(d·Vref)) + g2·offset)` with the plans'
    /// gains `g = C_i/C_F` (`C_F = 1`: `g0 = ±0.4` by polarity,
    /// `g1 = −0.4`), this one computes `u + (g0·x + g1·d)`: `d·1.0` is
    /// `d`; `g1·d = ±0.4` is never zero, so the leading `+0.0` changes
    /// nothing for any `x`; and the sum is never −0, so adding the ±0
    /// offset term returns it unchanged. That exact transfer equals the
    /// general body wherever it ends finite, and the caller checks the
    /// outputs it ends with.
    fn sums<'a, const EXACT: bool, const W: usize>(
        &self,
        start: [[ModulatorState; 2]; W],
        rows: &[[f64; W]],
        polarities: impl Iterator<Item = (bool, bool)>,
        noise: impl Iterator<Item = &'a [StepNoise; 2]>,
    ) -> GroupRun<W> {
        let mods = [&self.i, &self.q];
        let mut u = [[0.0f64; W]; 2];
        let mut signs = [[0.0f64; W]; 2];
        for (s, slot) in start.iter().enumerate() {
            for (m, state) in slot.iter().enumerate() {
                u[m][s] = state.integrator;
                signs[m][s] = if state.last_bit { 1.0 } else { -1.0 };
            }
        }
        let mut highs = [[0i64; W]; 2];
        let mut steps = 0i64;
        for ((xt, (qi, qq)), step_noise) in rows.iter().zip(polarities).zip(noise) {
            steps += 1;
            for (m, q) in [qi, qq].into_iter().enumerate() {
                if EXACT {
                    let g0 = if q { CI_OVER_CF } else { -CI_OVER_CF };
                    for (((sign, h), us), xs) in signs[m]
                        .iter_mut()
                        .zip(&mut highs[m])
                        .zip(&mut u[m])
                        .zip(xt)
                    {
                        let high = *us >= 0.0;
                        *h += i64::from(high);
                        *sign = if high { 1.0 } else { -1.0 };
                        *us += g0 * xs + -CI_OVER_CF * *sign;
                    }
                    continue;
                }
                let modulator = mods[m];
                let plan = if q {
                    &modulator.plan_pos
                } else {
                    &modulator.plan_neg
                };
                let (comparator, ktc) = step_noise[m];
                let cmp = &modulator.config.comparator;
                let center = cmp.offset.value() + comparator;
                let vref = modulator.config.vref.value();
                let mut dac = [0.0f64; W];
                for (((sign, h), d), &us) in signs[m]
                    .iter_mut()
                    .zip(&mut highs[m])
                    .zip(&mut dac)
                    .zip(&u[m])
                {
                    let high = us >= center - *sign * cmp.hysteresis.value();
                    *h += i64::from(high);
                    *sign = if high { 1.0 } else { -1.0 };
                    *d = *sign * vref;
                }
                u[m] = modulator.integrator.steps::<false, 3, W>(
                    plan,
                    u[m],
                    [*xt, dac, [modulator.input_offset; W]],
                    ktc,
                );
            }
        }
        let mut end = start;
        let mut counts = [(0i64, 0i64); W];
        for (s, (slot, count)) in end.iter_mut().zip(&mut counts).enumerate() {
            for (m, state) in slot.iter_mut().enumerate() {
                state.integrator = u[m][s];
                state.last_bit = signs[m][s] > 0.0;
            }
            *count = (2 * highs[0][s] - steps, 2 * highs[1][s] - steps);
        }
        (end, counts)
    }
}

/// A group's block, run: each device's end states (in-phase,
/// quadrature) and signed counts.
type GroupRun<const W: usize> = ([[ModulatorState; 2]; W], [(i64, i64); W]);

/// Most devices one group steps in lockstep.
///
/// Eight independent devices are sixteen modulator chains and eight DUT
/// recurrences per sample. On noisy hardware each modulator step settles
/// all of its group's slots in fixed-width passes, with the group's
/// `exp` calls back to back ([`ScIntegrator::steps`]), so the wider the
/// group, the more of the settling runs as SIMD lanes around the libm
/// calls; the exact kernel gains from the width too.
///
/// [`ScIntegrator::steps`]: mixsig::sc::ScIntegrator::steps
pub const GROUP_DEVICES: usize = 8;

/// The groups a lane of `devices` devices runs in, in device order: full
/// groups of [`GROUP_DEVICES`], then the tail in power-of-two groups,
/// widest first (a tail of 7 runs as 4, 2 and 1). Every group is 1, 2, 4
/// or [`GROUP_DEVICES`] wide, the widths the group kernels are built for.
/// Devices share no state, so how a lane splits into groups never changes
/// a bit.
pub fn device_groups(devices: usize) -> impl Iterator<Item = Range<usize>> {
    let mut start = 0;
    std::iter::from_fn(move || {
        let left = devices - start;
        let width = match left {
            0 => return None,
            GROUP_DEVICES.. => GROUP_DEVICES,
            _ => 1 << left.ilog2(),
        };
        start += width;
        Some(start - width..start)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_mean(modulator: &mut SigmaDeltaModulator, x: f64, n: usize) -> f64 {
        let sum: i64 = (0..n)
            .map(|_| if modulator.step(x, true) { 1i64 } else { -1 })
            .sum();
        sum as f64 / n as f64
    }

    #[test]
    fn dc_input_duty_cycle() {
        // Mean of the bitstream equals x/Vref for a 1st-order loop.
        for &x in &[0.0, 0.25, -0.5, 0.8, -0.8] {
            let mut m = SigmaDeltaModulator::new(SdmConfig::ideal());
            let mean = run_mean(&mut m, x, 20_000);
            assert!((mean - x).abs() < 2e-3, "x={x}: mean {mean}");
        }
    }

    #[test]
    fn vref_scales_the_code() {
        let mut m = SigmaDeltaModulator::new(SdmConfig::ideal().with_vref(Volts(2.0)));
        let mean = run_mean(&mut m, 0.5, 20_000);
        assert!((mean - 0.25).abs() < 2e-3, "{mean}");
    }

    #[test]
    fn polarity_flip_negates_code() {
        let mut m = SigmaDeltaModulator::new(SdmConfig::ideal());
        let n = 10_000;
        let sum: i64 = (0..n)
            .map(|_| if m.step(0.4, false) { 1i64 } else { -1 })
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean + 0.4).abs() < 2e-3, "{mean}");
    }

    #[test]
    fn quantization_error_telescopes() {
        // |Σd − Σ(x/vref)| must stay bounded (≤ 4) for any window length:
        // the foundation of the paper's eq. (3)–(5).
        let mut m = SigmaDeltaModulator::new(SdmConfig::ideal());
        let mut sum_d = 0.0f64;
        let mut sum_x = 0.0f64;
        for n in 0..100_000usize {
            let x = 0.7 * (2.0 * std::f64::consts::PI * n as f64 / 96.0).sin();
            sum_x += x;
            sum_d += if m.step(x, true) { 1.0 } else { -1.0 };
            let err = (sum_d - sum_x).abs();
            assert!(err <= 4.0, "error {err} exceeded bound at sample {n}");
        }
    }

    #[test]
    fn integrator_stays_bounded() {
        let mut m = SigmaDeltaModulator::new(SdmConfig::ideal());
        for n in 0..50_000usize {
            let x = 0.8 * (2.0 * std::f64::consts::PI * n as f64 / 96.0).sin();
            m.step(x, true);
            assert!(
                m.state().integrator.abs() <= CI_OVER_CF * 1.8 + 1.0,
                "integrator diverged: {}",
                m.state().integrator
            );
        }
    }

    #[test]
    fn offset_shifts_the_code() {
        let cfg = SdmConfig {
            opamp: OpAmpModel::ideal().with_offset(Volts(0.01)),
            ..SdmConfig::ideal()
        };
        let mut m = SigmaDeltaModulator::new(cfg);
        let mean = run_mean(&mut m, 0.0, 40_000);
        // Input offset 2·10 mV appears directly in the code.
        assert!((mean - 0.02).abs() < 2e-3, "{mean}");
    }

    #[test]
    fn offset_does_not_flip_with_q() {
        // Chopping foundation: with q inverted, the signal flips but the
        // offset term does not.
        let cfg = SdmConfig {
            opamp: OpAmpModel::ideal().with_offset(Volts(0.01)),
            ..SdmConfig::ideal()
        };
        let mut m = SigmaDeltaModulator::new(cfg);
        let n = 40_000;
        let sum: i64 = (0..n)
            .map(|_| if m.step(0.3, false) { 1i64 } else { -1 })
            .sum();
        let mean = sum as f64 / n as f64;
        // −0.3 (flipped signal) + 0.02 (unflipped offset).
        assert!((mean + 0.28).abs() < 2e-3, "{mean}");
    }

    #[test]
    fn comparator_hysteresis_degrades_but_does_not_break() {
        let cfg = SdmConfig {
            comparator: ComparatorModel {
                offset: Volts(0.0),
                hysteresis: Volts(0.05),
                noise_rms: Volts(0.0),
            },
            ..SdmConfig::ideal()
        };
        let mut m = SigmaDeltaModulator::new(cfg);
        let mean = run_mean(&mut m, 0.5, 40_000);
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
    }

    #[test]
    fn noisy_modulator_is_reproducible() {
        let mk = || {
            let mut m = SigmaDeltaModulator::new(SdmConfig::cmos_035um(17));
            (0..256)
                .map(|i| m.step((i as f64 * 0.01).sin(), true))
                .collect::<Vec<bool>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn process_block_matches_step_loop() {
        for cfg in [SdmConfig::ideal(), SdmConfig::cmos_035um(23)] {
            let cfg_q = SdmConfig {
                seed: cfg.seed.wrapping_add(1),
                ..cfg.clone()
            };
            let mut step_i = SigmaDeltaModulator::new(cfg.clone());
            let mut step_q = SigmaDeltaModulator::new(cfg_q.clone());
            let mut pair = ModulatorPair::new(
                SigmaDeltaModulator::new(cfg),
                SigmaDeltaModulator::new(cfg_q),
            );
            let x: Vec<f64> = (0..777)
                .map(|i| 0.6 * (2.0 * std::f64::consts::PI * i as f64 / 96.0).sin())
                .collect();
            let q: Vec<(bool, bool)> = (0..777)
                .map(|i| (i % 96 < 48, (i + 24) % 96 < 48))
                .collect();
            let mut want = (0i64, 0i64);
            for (&xi, &(qi, qq)) in x.iter().zip(&q) {
                want.0 += if step_i.step(xi, qi) { 1 } else { -1 };
                want.1 += if step_q.step(xi, qq) { 1 } else { -1 };
            }
            let mut states = pair.states();
            let mut got = (0i64, 0i64);
            for (xc, qc) in x.chunks(100).zip(q.chunks(100)) {
                let (ci, cq) = pair.process_block(&mut states, xc, qc.iter().copied());
                got = (got.0 + ci, got.1 + cq);
            }
            assert_eq!(want, got);
            assert_eq!(states, [step_i.state(), step_q.state()]);
        }
    }

    #[test]
    fn exact_group_hands_off_every_slot_at_every_width() {
        // At one sample, one slot's input turns extreme while the others
        // carry ordinary tones. At ±∞ and NaN that slot's exact sums stop
        // being finite, so its group must run the block again through the
        // general body; at 1e300 and f64::MAX they stay finite. The record
        // is two blocks, so the second starts from the extreme state. An
        // ideal pair with a 2 V reference or an op-amp offset has exact
        // plans but is not exact: it runs the general body throughout.
        let offset = SdmConfig {
            opamp: OpAmpModel::ideal().with_offset(Volts(0.01)),
            ..SdmConfig::ideal()
        };
        let configs = [
            SdmConfig::ideal(),
            SdmConfig::ideal().with_vref(Volts(2.0)),
            offset,
        ];
        let len = 300;
        let polarities: Vec<(bool, bool)> = (0..len)
            .map(|t| (t % 96 < 48, (t + 24) % 96 < 48))
            .collect();
        for (c, cfg_i) in configs.into_iter().enumerate() {
            let cfg_q = SdmConfig {
                seed: 1,
                ..cfg_i.clone()
            };
            for extreme in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, f64::MAX] {
                for w in [1, 2, 4, GROUP_DEVICES] {
                    for hot in 0..w {
                        let input = |s: usize, t: usize| {
                            if s == hot && t == 137 {
                                extreme
                            } else {
                                0.5 * (2.0 * std::f64::consts::PI * (t + 11 * s) as f64 / 96.0)
                                    .sin()
                            }
                        };
                        let x: Vec<f64> = (0..len)
                            .flat_map(|t| (0..w).map(move |s| input(s, t)))
                            .collect();
                        let mut pair = ModulatorPair::new(
                            SigmaDeltaModulator::new(cfg_i.clone()),
                            SigmaDeltaModulator::new(cfg_q.clone()),
                        );
                        assert_eq!(pair.exact, c == 0, "config {c}");
                        let mut states = vec![pair.states(); w];
                        let mut counts = vec![(0, 0); w];
                        for (xb, qb) in x.chunks(200 * w).zip(polarities.chunks(200)) {
                            pair.draw_block(qb.len(), qb.iter().copied());
                            pair.step_group(&mut states, xb, qb.iter().copied(), &mut counts);
                        }
                        for (s, (state, count)) in states.iter().zip(&counts).enumerate() {
                            let mut step_i = SigmaDeltaModulator::new(cfg_i.clone());
                            let mut step_q = SigmaDeltaModulator::new(cfg_q.clone());
                            let mut want = (0i64, 0i64);
                            for (t, &(qi, qq)) in polarities.iter().enumerate() {
                                want.0 += if step_i.step(input(s, t), qi) { 1 } else { -1 };
                                want.1 += if step_q.step(input(s, t), qq) { 1 } else { -1 };
                            }
                            let label =
                                format!("config {c}: {extreme} at slot {hot} of {w}, slot {s}");
                            assert_eq!(*count, want, "{label}");
                            for (got, want) in state.iter().zip([step_i.state(), step_q.state()]) {
                                assert_eq!(
                                    got.integrator.to_bits(),
                                    want.integrator.to_bits(),
                                    "{label}"
                                );
                                assert_eq!(got.last_bit, want.last_bit, "{label}");
                            }
                        }
                    }
                }
            }
        }
        // The exact instantiation against the general body with zero
        // draws: one step at each polarity, from integrators of either
        // sign and both last decisions, of signed zeros, subnormals, ±∞,
        // NaN and a tone sample. Where the exact step ends finite it is
        // the general one bit for bit; where it does not, neither does
        // the general one, and the caller's rerun takes over.
        let pair = ModulatorPair::new(
            SigmaDeltaModulator::new(SdmConfig::ideal()),
            SigmaDeltaModulator::new(SdmConfig::ideal()),
        );
        let tiny = f64::MIN_POSITIVE / 4.0;
        let values = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.3,
        ];
        let rows: [[f64; GROUP_DEVICES]; 1] = [std::array::from_fn(|s| values[s % values.len()])];
        for polarity in [(true, false), (false, true)] {
            for integrator in [0.0, -0.0, tiny, 0.25, -0.3] {
                for last_bit in [false, true] {
                    let start = [[ModulatorState {
                        integrator,
                        last_bit,
                    }; 2]; GROUP_DEVICES];
                    let no_noise = || std::iter::repeat(&NO_NOISE);
                    let once = || std::iter::once(polarity);
                    let exact = pair.sums::<true, GROUP_DEVICES>(start, &rows, once(), no_noise());
                    let general =
                        pair.sums::<false, GROUP_DEVICES>(start, &rows, once(), no_noise());
                    let label = format!("{polarity:?} from {integrator}, {last_bit}");
                    assert_eq!(exact.1, general.1, "{label}");
                    for (s, (exact, general)) in exact.0.iter().zip(&general.0).enumerate() {
                        for (e, g) in exact.iter().zip(general) {
                            let label = format!("{label}: x = {}", rows[0][s]);
                            assert_eq!(e.last_bit, g.last_bit, "{label}");
                            assert_eq!(
                                e.integrator.is_finite(),
                                g.integrator.is_finite(),
                                "{label}"
                            );
                            if e.integrator.is_finite() {
                                assert_eq!(
                                    e.integrator.to_bits(),
                                    g.integrator.to_bits(),
                                    "{label}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn noisy_groups_match_each_devices_own_step_loop() {
        // On 0.35 µm hardware every step draws comparator and `kT/C`
        // noise, and the comparator has an offset and hysteresis. Groups
        // of every width the kernels run, 1, 2, 4 and 8 devices, each on
        // its own tone, run through uneven blocks, one shared draw per
        // block. Every slot must end where a
        // clone of the pair's modulators ends, stepped one sample at a
        // time on that device's samples: both integrator outputs bit for
        // bit, both last bits, and both signed counts.
        let cfg_i = SdmConfig::cmos_035um(31);
        let cfg_q = SdmConfig {
            seed: 32,
            ..cfg_i.clone()
        };
        assert!(cfg_i.comparator.hysteresis.value() > 0.0);
        let blocks = [1, 95, 96, 97, 250, 461];
        let len: usize = blocks.iter().sum();
        let polarities: Vec<(bool, bool)> = (0..len)
            .map(|t| (t % 96 < 48, (t + 24) % 96 < 48))
            .collect();
        let input = |s: usize, t: usize| {
            let phase = 2.0 * std::f64::consts::PI * (t + 7 * s) as f64 / 96.0;
            (0.15 + 0.2 * s as f64) * phase.sin()
        };
        for w in [1, 2, 4, GROUP_DEVICES] {
            let mut pair = ModulatorPair::new(
                SigmaDeltaModulator::new(cfg_i.clone()),
                SigmaDeltaModulator::new(cfg_q.clone()),
            );
            assert!(!pair.exact);
            let own = (pair.i.clone(), pair.q.clone());
            let mut states = vec![pair.states(); w];
            let mut counts = vec![(0, 0); w];
            let mut t0 = 0;
            for block in blocks {
                let qb = &polarities[t0..t0 + block];
                let xb: Vec<f64> = (t0..t0 + block)
                    .flat_map(|t| (0..w).map(move |s| input(s, t)))
                    .collect();
                pair.draw_block(block, qb.iter().copied());
                pair.step_group(&mut states, &xb, qb.iter().copied(), &mut counts);
                t0 += block;
            }
            for (s, (state, count)) in states.iter().zip(&counts).enumerate() {
                let (mut step_i, mut step_q) = own.clone();
                let mut want = (0i64, 0i64);
                for (t, &(qi, qq)) in polarities.iter().enumerate() {
                    want.0 += if step_i.step(input(s, t), qi) { 1 } else { -1 };
                    want.1 += if step_q.step(input(s, t), qq) { 1 } else { -1 };
                }
                let label = format!("slot {s} of {w}");
                assert_eq!(*count, want, "{label}");
                for (got, want) in state.iter().zip([step_i.state(), step_q.state()]) {
                    assert_eq!(
                        got.integrator.to_bits(),
                        want.integrator.to_bits(),
                        "{label}"
                    );
                    assert_eq!(got.last_bit, want.last_bit, "{label}");
                }
            }
        }
    }

    #[test]
    fn lanes_split_into_groups_the_kernels_are_built_for() {
        for devices in 0..=3 * GROUP_DEVICES + 7 {
            let groups: Vec<Range<usize>> = device_groups(devices).collect();
            let mut next = 0;
            for group in &groups {
                assert_eq!(group.start, next, "lane of {devices}: {groups:?}");
                assert!(
                    [1, 2, 4, GROUP_DEVICES].contains(&group.len()),
                    "lane of {devices}: {groups:?}"
                );
                next = group.end;
            }
            assert_eq!(next, devices, "lane of {devices}: {groups:?}");
            let widths: Vec<usize> = groups.iter().map(Range::len).collect();
            assert!(
                widths.windows(2).all(|w| w[0] >= w[1]),
                "lane of {devices}: widest first, {widths:?}"
            );
        }
        let seven: Vec<usize> = device_groups(7).map(|g| g.len()).collect();
        assert_eq!(seven, [4, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "wide, not 3")]
    fn a_group_of_another_width_is_refused() {
        let pair = ModulatorPair::new(
            SigmaDeltaModulator::new(SdmConfig::ideal()),
            SigmaDeltaModulator::new(SdmConfig::ideal()),
        );
        let mut states = [pair.states(); 3];
        let mut counts = [(0, 0); 3];
        let polarities = std::iter::repeat_n((true, true), 2);
        pair.step_group(&mut states, &[0.1; 6], polarities, &mut counts);
    }
}
