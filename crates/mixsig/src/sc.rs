//! Switched-capacitor integrator charge-transfer engine.
//!
//! All SC blocks in the paper (the generator biquad of Fig. 2 and the ΣΔ
//! integrator of Fig. 5) reduce to the same primitive: a parasitic-
//! insensitive integrator with one or more switched input branches. Each
//! clock cycle, branch `i` transfers charge `C_i·v_i` onto the integrating
//! capacitor `C_F`:
//!
//! ```text
//! v_out[n] = α·v_out[n−1] + μ·Σ_i (C_i/C_F)·v_i[n]
//! ```
//!
//! where the leak `α` and gain factor `μ` come from the op-amp's finite DC
//! gain, the per-cycle step is additionally limited by GBW/slew settling,
//! each branch injects `kT/C` sampling noise, and the output saturates at
//! the op-amp swing. With [`OpAmpModel::ideal`] and
//! [`NoiseSource::disabled`] the engine is an exact discrete integrator.
//!
//! [`ScIntegrator::step`] is the reference. Every hot path runs one
//! planned body instead, [`ScIntegrator::steps`]: it steps any number of
//! independent outputs through one hoisted [`ScStepPlan`] and one step's
//! `kT/C` draws, struct-of-arrays, in `step`'s operation order. The
//! generator steps one output at a time through it
//! ([`ScIntegrator::step_planned`]); the ΣΔ evaluator steps the
//! integrators of a whole device group at once.

use crate::noise::{ktc_noise_rms, NoiseSource, NORMAL_CEILING};
use crate::opamp::OpAmpModel;
use crate::units::{Seconds, Volts};

/// Most branches a [`ScStepPlan`] can hold (every SC stage in the paper
/// has ≤ 3 input branches; 4 leaves headroom without heap allocation).
pub const MAX_PLAN_BRANCHES: usize = 4;

/// One switched input branch: a capacitor ratio and the voltage it samples
/// this cycle (sign encodes the switching polarity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Branch {
    /// Capacitor size as a ratio to the unit capacitor.
    pub cap_ratio: f64,
    /// Sampled voltage this cycle, volts (differential).
    pub voltage: f64,
}

impl Branch {
    /// Creates a branch.
    pub const fn new(cap_ratio: f64, voltage: f64) -> Self {
        Self { cap_ratio, voltage }
    }
}

/// A parasitic-insensitive switched-capacitor integrator.
#[derive(Debug, Clone)]
pub struct ScIntegrator {
    /// Integrating (feedback) capacitor, in unit-cap ratios.
    cf: f64,
    /// Physical size of the unit capacitor in farads (for `kT/C`).
    unit_cap_farads: f64,
    opamp: OpAmpModel,
    settle_time: Seconds,
    noise: NoiseSource,
    vout: f64,
}

impl ScIntegrator {
    /// Creates an integrator with integrating capacitor `cf` (unit ratios).
    ///
    /// `settle_time` is the half-clock-phase available for charge transfer.
    ///
    /// # Panics
    ///
    /// Panics if `cf <= 0` or `unit_cap_farads <= 0`.
    pub fn new(
        cf: f64,
        unit_cap_farads: f64,
        opamp: OpAmpModel,
        settle_time: Seconds,
        noise: NoiseSource,
    ) -> Self {
        assert!(cf > 0.0, "integrating capacitor must be positive");
        assert!(unit_cap_farads > 0.0, "unit capacitor must be positive");
        Self {
            cf,
            unit_cap_farads,
            opamp,
            settle_time,
            noise,
            vout: 0.0,
        }
    }

    /// An ideal, noiseless integrator — useful for functional tests.
    pub fn ideal(cf: f64) -> Self {
        Self::new(
            cf,
            1.0e-12,
            OpAmpModel::ideal(),
            Seconds(1.0),
            NoiseSource::disabled(),
        )
    }

    /// Current output voltage.
    pub fn output(&self) -> f64 {
        self.vout
    }

    /// Forces the output/state (e.g. a reset switch).
    pub fn set_output(&mut self, v: f64) {
        self.vout = v;
    }

    /// The op-amp's output swing limit, volts: every output a step
    /// produces lies within `±swing` (∞ when the swing is unlimited).
    pub fn swing(&self) -> f64 {
        self.opamp.output_swing.value().abs()
    }

    /// Whether every step through `plan` that this integrator can be
    /// asked for settles completely: its settled step is the step itself,
    /// to the last bit (a zero step aside, which settles to `+0.0`), so
    /// the step does not depend on the settling time `plan` was built
    /// with. The steps are those from a state within the output swing
    /// ([`swing`](Self::swing)), with branch `i` sampling at most
    /// `max_voltage[i]` in magnitude and each `kT/C` draw within the
    /// noise source's Box–Muller ceiling of 8.49 standard deviations.
    ///
    /// It holds when the plan's linear settling fraction is exactly 1,
    /// and either the op-amp never slews, or the largest such step
    /// settles linearly, or it neither slews through the whole phase nor
    /// leaves an exponential tail of a quarter ulp of `v_lin` (the
    /// linear-region boundary, below every slewing step) or more, which
    /// the step's magnitude then absorbs exactly. The tail only shrinks
    /// with the step, and the largest step is bounded term by term, then
    /// widened by a relative 10⁻⁹, far more than the rounding of the
    /// bound and of libm's `exp` can move it. An unlimited swing, or a
    /// NaN or infinite bound, refuses.
    ///
    /// # Panics
    ///
    /// Panics if `max_voltage` holds fewer voltages than the plan has
    /// branches.
    pub fn settles_completely(&self, plan: &ScStepPlan, max_voltage: &[f64]) -> bool {
        let swing = self.swing();
        let compression = (1.0 - self.opamp.cubic * swing * swing).abs().max(1.0);
        let mut delta = 0.0;
        for (i, &v) in max_voltage[..plan.n].iter().enumerate() {
            delta += plan.vgain[i].abs() * (v.abs() + plan.offset.abs());
            if plan.noisy[i] {
                delta += plan.sigma[i] * NORMAL_CEILING * plan.ngain[i];
            }
        }
        let largest = plan.mu.abs() * compression * delta * (1.0 + 1e-9);
        plan.settles_completely(largest)
    }

    /// Advances one clock cycle with the given input branches; returns the
    /// new output voltage.
    pub fn step(&mut self, branches: &[Branch]) -> f64 {
        let ct: f64 = branches.iter().map(|b| b.cap_ratio.abs()).sum();
        let beta = self.cf / (self.cf + ct);
        let a0 = self.opamp.dc_gain;

        // Finite-gain leak: charge left behind on C_F each transfer.
        let leak = 1.0 - ct / (self.cf * a0);
        // Finite-gain static error on the transferred charge.
        let mu = self.opamp.static_gain_factor(beta);

        // Ideal charge transfer (in output volts), including the op-amp
        // offset sampled by every branch.
        let mut delta = 0.0;
        for b in branches {
            delta += b.cap_ratio / self.cf * (b.voltage + self.opamp.offset.value());
            // kT/C noise of this branch, referred to the output.
            let c_phys = b.cap_ratio.abs() * self.unit_cap_farads;
            if c_phys > 0.0 {
                delta += self.noise.ktc(c_phys) * (b.cap_ratio.abs() / self.cf);
            }
        }

        // GBW / slew-limited settling of the step, with the output-level
        // dependent gain compression (odd-order distortion source).
        let compression = self.opamp.compression_factor(self.vout);
        let achieved = self
            .opamp
            .settled_step(Volts(mu * compression * delta), beta, self.settle_time)
            .value();

        self.vout = self
            .opamp
            .clamp_output(Volts(leak * self.vout + achieved))
            .value();
        self.vout
    }

    /// Precomputes a [`ScStepPlan`] for a fixed branch topology (the cap
    /// ratios, with sign encoding the switching polarity).
    ///
    /// Every SC stage in the paper switches the *same* capacitors every
    /// cycle — only the sampled voltages change — yet
    /// [`step`](Self::step) rederives `ct`, `beta`, the leak, the static
    /// gain factor, each branch's `kT/C` σ and the settling constants on
    /// every call. The plan hoists all of them; [`steps`](Self::steps)
    /// then replicates `step`'s arithmetic operation for operation, so it
    /// is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_PLAN_BRANCHES`] cap ratios are given.
    pub fn plan(&self, cap_ratios: &[f64]) -> ScStepPlan {
        assert!(
            cap_ratios.len() <= MAX_PLAN_BRANCHES,
            "a step plan holds at most {MAX_PLAN_BRANCHES} branches, got {}",
            cap_ratios.len()
        );
        let ct: f64 = cap_ratios.iter().map(|c| c.abs()).sum();
        let beta = self.cf / (self.cf + ct);
        let a0 = self.opamp.dc_gain;
        let mut vgain = [0.0; MAX_PLAN_BRANCHES];
        let mut sigma = [0.0; MAX_PLAN_BRANCHES];
        let mut ngain = [0.0; MAX_PLAN_BRANCHES];
        let mut noisy = [false; MAX_PLAN_BRANCHES];
        for (i, &cap) in cap_ratios.iter().enumerate() {
            vgain[i] = cap / self.cf;
            let c_phys = cap.abs() * self.unit_cap_farads;
            if c_phys > 0.0 {
                noisy[i] = true;
                sigma[i] = ktc_noise_rms(c_phys);
                ngain[i] = cap.abs() / self.cf;
            }
        }
        // Settling constants, hoisted from `OpAmpModel::settled_step` with
        // the same expressions (`tau`/`v_lin` are only read when the slew
        // rate is finite, mirroring the scalar control flow).
        let slew_rate = self.opamp.slew_rate;
        let tau = 1.0 / (2.0 * std::f64::consts::PI * beta * self.opamp.gbw.value());
        let leak = 1.0 - ct / (self.cf * a0);
        let mu = self.opamp.static_gain_factor(beta);
        let offset = self.opamp.offset.value();
        let frac = self.opamp.settling_fraction(beta, self.settle_time);
        // Every per-step factor is an identity: see `steps`.
        let exact = leak == 1.0
            && mu == 1.0
            && frac == 1.0
            && !slew_rate.is_finite()
            && self.opamp.output_swing.value().abs() == f64::INFINITY
            && self.opamp.cubic == 0.0
            && offset == 0.0
            && !self.noise.is_enabled();
        ScStepPlan {
            n: cap_ratios.len(),
            vgain,
            sigma,
            ngain,
            noisy,
            leak,
            mu,
            offset,
            frac,
            slew_finite: slew_rate.is_finite(),
            slew_rate,
            tau,
            v_lin: slew_rate * tau,
            settle_time: self.settle_time.value(),
            exact,
        }
    }

    /// Advances one clock cycle using a precomputed plan of `B` branches;
    /// `voltages[i]` is the voltage sampled by the plan's `i`-th branch
    /// this cycle. Bit-identical to [`step`](Self::step) with the same cap
    /// ratios and voltages, including the noise stream: the same draws
    /// happen in the same order.
    ///
    /// It is one slot of [`steps`](Self::steps), from this integrator's
    /// output, with the step's `kT/C` values drawn first from its own
    /// stream (an exact plan's source is disabled, so they are zeros and
    /// consume nothing). `EXACT = true` runs the exact instantiation when
    /// the plan [`is_exact`](ScStepPlan::is_exact); on a plan that is
    /// not, it runs the general body, so a wrong choice costs speed,
    /// never bytes. A step whose exact result is not finite runs again
    /// through the general body, which reproduces the general path's
    /// infinities and NaNs bit for bit. Block loops choose `EXACT` once
    /// per block.
    ///
    /// # Panics
    ///
    /// Panics if `B` differs from the planned branch count.
    #[inline(always)]
    pub fn step_planned<const EXACT: bool, const B: usize>(
        &mut self,
        plan: &ScStepPlan,
        voltages: [f64; B],
    ) -> f64 {
        assert_eq!(
            B, plan.n,
            "voltage count must match the planned branch count"
        );
        let voltages = voltages.map(|v| [v]);
        // Drawn before the exact check, so both bodies share their gain
        // loads: that keeps the one-slot exact step scalar, where a
        // vectorized pair of branch products lengthens the generator's
        // dependency chain.
        let ktc = self.draw_ktc(plan);
        if EXACT && plan.exact {
            let [next] = self.steps::<true, B, 1>(plan, [self.vout], voltages, ktc);
            if next.is_finite() {
                self.vout = next;
                return next;
            }
        }
        [self.vout] = self.steps::<false, B, 1>(plan, [self.vout], voltages, ktc);
        self.vout
    }

    /// Draws one step's `kT/C` noise for a plan of `B` branches from this
    /// integrator's stream: one value per noisy branch, in branch order —
    /// exactly the draws [`step_planned`](Self::step_planned) makes for
    /// that step. Branches that draw nothing get `0.0`. A step's draws
    /// therefore come from the plan it advances with, whichever polarity
    /// that is.
    #[inline]
    pub fn draw_ktc<const B: usize>(&mut self, plan: &ScStepPlan) -> [f64; B] {
        let mut draws = [0.0; B];
        for ((d, &noisy), &sigma) in draws.iter_mut().zip(&plan.noisy).zip(&plan.sigma) {
            if noisy {
                *d = self.noise.gaussian(sigma);
            }
        }
        draws
    }

    /// The planned charge transfer, struct-of-arrays: `W` independent
    /// outputs `vout` step through a plan of `B` branches, slot `s`
    /// sampling `voltages[i][s]` on branch `i`, and every slot adds the
    /// same `kT/C` draws `ktc` (from [`draw_ktc`](Self::draw_ktc) on the
    /// same plan). Neither this integrator's output nor its noise stream
    /// moves, so one integrator advances any number of states through one
    /// step's draws. Each slot runs [`step`](Self::step)'s operations in
    /// `step`'s order, with nothing reassociated within or across slots.
    ///
    /// On an [exact](ScStepPlan::is_exact) plan the general body's extra
    /// operations are identities, so `EXACT = true` drops them and keeps
    /// the summation order:
    ///
    /// * `+ offset` adds ±0 and the disabled source's draws add `+0.0`.
    ///   Neither can change the sum: it starts at `+0.0`, so no partial
    ///   sum is ever −0, and `p + ±0 = p` for every other `p`.
    /// * `μ·compression`, the leak and the settling fraction multiply by
    ///   exactly 1 while the state is finite, and the settling step only
    ///   maps ±0 to `+0`, which the sum already is.
    /// * The ±∞ clamp returns its argument.
    ///
    /// A non-finite state breaks the second point (`0·∞` turns the
    /// compression into NaN), so the exact instantiation equals the
    /// general body only where its result is finite. Under further exact
    /// steps a non-finite output stays non-finite (`±∞ + Δ` is `±∞` or
    /// NaN, and NaN stays NaN), so a caller may run a whole block exactly,
    /// check only the outputs it ends with, and run the block again
    /// through the general body if one of them is not finite.
    #[inline(always)]
    pub fn steps<const EXACT: bool, const B: usize, const W: usize>(
        &self,
        plan: &ScStepPlan,
        vout: [f64; W],
        voltages: [[f64; W]; B],
        ktc: [f64; B],
    ) -> [f64; W] {
        debug_assert!(
            B == plan.n && (plan.exact || !EXACT),
            "a plan of B branches, exact if EXACT is"
        );
        let mut delta = [0.0; W];
        for (i, (v, &gain)) in voltages.iter().zip(&plan.vgain).enumerate() {
            for (d, &v) in delta.iter_mut().zip(v) {
                *d += gain * if EXACT { v } else { v + plan.offset };
            }
            // kT/C noise of this branch, referred to the output.
            if !EXACT && plan.noisy[i] {
                let noise = ktc[i] * plan.ngain[i];
                for d in &mut delta {
                    *d += noise;
                }
            }
        }
        let mut next = vout;
        if EXACT {
            for (n, d) in next.iter_mut().zip(delta) {
                *n += d;
            }
            return next;
        }
        let mut step = [0.0; W];
        for ((s, &n), d) in step.iter_mut().zip(&vout).zip(delta) {
            let compression = self.opamp.compression_factor(n);
            *s = plan.mu * compression * d;
        }
        let achieved = plan.settle(step);
        for (n, achieved) in next.iter_mut().zip(achieved) {
            *n = self
                .opamp
                .clamp_output(Volts(plan.leak * *n + achieved))
                .value();
        }
        next
    }
}

/// Hoisted per-step invariants of one [`ScIntegrator`] branch topology;
/// built by [`ScIntegrator::plan`], consumed by [`ScIntegrator::steps`].
///
/// A plan is only valid for the integrator (and op-amp/settle-time
/// configuration) that built it — it caches that integrator's constants.
#[derive(Debug, Clone)]
pub struct ScStepPlan {
    n: usize,
    /// Per branch: `cap/cf` (signed voltage gain).
    vgain: [f64; MAX_PLAN_BRANCHES],
    /// Per branch: `kT/C` rms of the physical capacitor (0 for zero caps).
    sigma: [f64; MAX_PLAN_BRANCHES],
    /// Per branch: `|cap|/cf` (noise gain to the output).
    ngain: [f64; MAX_PLAN_BRANCHES],
    /// Per branch: whether the physical capacitance is positive (zero-cap
    /// branches draw no noise — and must not consume a buffered normal).
    noisy: [bool; MAX_PLAN_BRANCHES],
    leak: f64,
    mu: f64,
    offset: f64,
    /// `settling_fraction(beta, settle_time)` of the linear regime.
    frac: f64,
    slew_finite: bool,
    slew_rate: f64,
    /// Closed-loop time constant `1/(2π·β·GBW)` (only read when slewing).
    tau: f64,
    /// Linear-region boundary `SR·τ` (only read when slewing).
    v_lin: f64,
    settle_time: f64,
    /// Whether the identity-free instantiation applies (see
    /// [`ScStepPlan::is_exact`]).
    exact: bool,
}

impl ScStepPlan {
    /// Whether the plan is *exact*: leak = 1, μ = 1, a settling fraction
    /// of 1 with infinite slew, swing ±∞, cubic = 0, offset = 0 and a
    /// disabled noise source — ideal hardware. An exact plan's step is a
    /// plain sum, `v_out + Σ (C_i/C_F)·v_i`, bit-identical to the general
    /// body wherever it is finite; [`ScIntegrator::steps`] takes it with
    /// `EXACT = true`.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Whether every step of magnitude at most `largest` settles to
    /// itself through [`settle`](Self::settle): see
    /// [`ScIntegrator::settles_completely`].
    fn settles_completely(&self, largest: f64) -> bool {
        if self.frac != 1.0 {
            return false;
        }
        if !self.slew_finite || largest <= self.v_lin {
            return true;
        }
        let t_slew = (largest - self.v_lin) / self.slew_rate;
        let t_lin = self.settle_time - t_slew;
        let tail = self.v_lin * (-t_lin / self.tau).exp();
        let quarter_ulp = (self.v_lin.next_up() - self.v_lin) / 4.0;
        t_slew < self.settle_time && tail < quarter_ulp
    }

    /// [`OpAmpModel::settled_step`] of `W` steps over the hoisted
    /// constants, in fixed-width passes: every slot's magnitude, sign and
    /// regime; then, unless every slot settles linearly, every slot's
    /// slewing time and exponential-tail argument; then the `W` `exp`
    /// calls back to back, unless no slot is in the tail regime; and
    /// last each slot's result, picked by select from `settled_step`'s
    /// branches in their order (a zero step, linear settling, a slew
    /// through the whole phase, the exponential tail). Each candidate is
    /// `settled_step`'s floating-point expression, so every slot is
    /// bit-identical to it, NaN and ±∞ steps included; a candidate a slot
    /// does not pick is computed and dropped.
    #[inline(always)]
    fn settle<const W: usize>(&self, step: [f64; W]) -> [f64; W] {
        let magnitude = step.map(f64::abs);
        let sign = step.map(f64::signum);
        let mut settled = [0.0; W];
        let mut all_linear = true;
        for ((out, &m), &s) in settled.iter_mut().zip(&magnitude).zip(&sign) {
            let lin = s * m * self.frac;
            *out = if m == 0.0 { 0.0 } else { lin };
            all_linear &= m <= self.v_lin;
        }
        if !self.slew_finite || all_linear {
            return settled;
        }
        // `remaining` holds each slot's exponent until the `exp` pass
        // turns it into the tail; without that pass no slot picks it.
        let mut t_slew = [0.0; W];
        let mut remaining = [0.0; W];
        let mut no_tail = true;
        for ((t, r), &m) in t_slew.iter_mut().zip(&mut remaining).zip(&magnitude) {
            *t = (m - self.v_lin) / self.slew_rate;
            let t_lin = self.settle_time - *t;
            *r = -t_lin / self.tau;
            no_tail &= (m <= self.v_lin) | (*t >= self.settle_time);
        }
        if !no_tail {
            for r in &mut remaining {
                *r = self.v_lin * r.exp();
            }
        }
        for (s, out) in settled.iter_mut().enumerate() {
            let (m, sign) = (magnitude[s], sign[s]);
            let slewed = sign * self.slew_rate * self.settle_time;
            let tail = sign * (m - remaining[s]);
            let late = if t_slew[s] >= self.settle_time {
                slewed
            } else {
                tail
            };
            *out = if m == 0.0 || m <= self.v_lin {
                *out
            } else {
                late
            };
        }
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Hertz;

    #[test]
    fn ideal_integrator_accumulates_exactly() {
        let mut int = ScIntegrator::ideal(2.0);
        // Two branches: +1 unit cap at 1 V, each step adds 0.5 V.
        for i in 1..=10 {
            let v = int.step(&[Branch::new(1.0, 1.0)]);
            assert!((v - 0.5 * i as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn branch_signs_subtract() {
        let mut int = ScIntegrator::ideal(1.0);
        let v = int.step(&[Branch::new(1.0, 1.0), Branch::new(-1.0, 1.0)]);
        assert!(v.abs() < 1e-12);
    }

    #[test]
    fn finite_gain_leaks() {
        let opamp = OpAmpModel::ideal().with_dc_gain(100.0);
        let mut int = ScIntegrator::new(1.0, 1.0e-12, opamp, Seconds(1.0), NoiseSource::disabled());
        int.set_output(1.0);
        // One step with a unit branch at 0 V: output decays by ct/(cf·A) = 1%.
        let v = int.step(&[Branch::new(1.0, 0.0)]);
        assert!((v - 0.99).abs() < 1e-9, "{v}");
    }

    #[test]
    fn finite_gain_reduces_step() {
        let opamp = OpAmpModel::ideal().with_dc_gain(1000.0);
        let mut int = ScIntegrator::new(1.0, 1.0e-12, opamp, Seconds(1.0), NoiseSource::disabled());
        let v = int.step(&[Branch::new(1.0, 1.0)]);
        let beta = 0.5;
        let mu = 1.0 / (1.0 + 1.0 / (1000.0 * beta));
        assert!((v - mu).abs() < 1e-9);
    }

    #[test]
    fn offset_integrates() {
        let opamp = OpAmpModel::ideal().with_offset(Volts(0.001));
        let mut int = ScIntegrator::new(1.0, 1.0e-12, opamp, Seconds(1.0), NoiseSource::disabled());
        let v = int.step(&[Branch::new(1.0, 0.0)]);
        assert!((v - 0.001).abs() < 1e-12);
    }

    #[test]
    fn swing_clamps_output() {
        let mut opamp = OpAmpModel::ideal();
        opamp.output_swing = Volts(1.0);
        let mut int = ScIntegrator::new(1.0, 1.0e-12, opamp, Seconds(1.0), NoiseSource::disabled());
        for _ in 0..10 {
            int.step(&[Branch::new(1.0, 1.0)]);
        }
        assert_eq!(int.output(), 1.0);
    }

    #[test]
    fn slow_opamp_undershoots() {
        let opamp = OpAmpModel::ideal().with_gbw(Hertz::from_mhz(1.0));
        let mut int = ScIntegrator::new(
            1.0,
            1.0e-12,
            opamp,
            Seconds(50.0e-9), // 50 ns to settle with 1 MHz GBW: clearly incomplete
            NoiseSource::disabled(),
        );
        let v = int.step(&[Branch::new(1.0, 1.0)]);
        assert!(v < 0.25, "{v}");
        assert!(v > 0.05, "{v}");
    }

    #[test]
    fn noise_injects_ktc() {
        let mut int = ScIntegrator::new(
            1.0,
            1.0e-15, // deliberately tiny cap → large kT/C (~2 mV rms)
            OpAmpModel::ideal(),
            Seconds(1.0),
            NoiseSource::new(21),
        );
        let n = 10_000;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            int.set_output(0.0);
            values.push(int.step(&[Branch::new(1.0, 0.0)]));
        }
        let sigma = {
            let m = values.iter().sum::<f64>() / n as f64;
            (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n as f64).sqrt()
        };
        let expect = crate::noise::ktc_noise_rms(1.0e-15);
        assert!((sigma / expect - 1.0).abs() < 0.1, "{sigma} vs {expect}");
    }

    #[test]
    fn reset_and_set_output() {
        let mut int = ScIntegrator::ideal(1.0);
        int.set_output(0.7);
        assert_eq!(int.output(), 0.7);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cf_rejected() {
        let _ = ScIntegrator::ideal(0.0);
    }

    /// Drives `step` and `step_planned` over the same voltage sequence on
    /// clones of `int` and demands bit-identical outputs and noise-stream
    /// alignment afterwards.
    fn assert_plan_matches_step<const B: usize>(label: &str, int: &ScIntegrator, caps: [f64; B]) {
        let mut by_step = int.clone();
        let mut by_plan = int.clone();
        let plan = by_plan.plan(&caps);
        assert_eq!(plan.n, caps.len());
        for k in 0..1000 {
            let voltages: [f64; B] =
                std::array::from_fn(|j| 0.4 * ((k * 7 + j * 3) as f64 * 0.13).sin());
            let branches: Vec<Branch> = caps
                .iter()
                .zip(&voltages)
                .map(|(&c, &v)| Branch::new(c, v))
                .collect();
            let want = by_step.step(&branches);
            let got = by_plan.step_planned::<true, B>(&plan, voltages);
            assert_eq!(want, got, "{label}: step {k} diverged");
        }
    }

    #[test]
    fn planned_step_is_bit_identical_to_step() {
        let caps = [0.4, -0.4, 0.4];
        assert_plan_matches_step("ideal", &ScIntegrator::ideal(1.0), caps);
        let cmos = ScIntegrator::new(
            1.0,
            1.0e-12,
            OpAmpModel::folded_cascode_035um(),
            Seconds(80.0e-9),
            NoiseSource::new(17),
        );
        assert_plan_matches_step("cmos noisy", &cmos, caps);
        let offset = ScIntegrator::new(
            2.0,
            1.0e-12,
            OpAmpModel::folded_cascode_035um().with_offset(Volts(0.003)),
            Seconds(80.0e-9),
            NoiseSource::new(4),
        );
        assert_plan_matches_step("offset", &offset, [1.0, -2.574]);
    }

    #[test]
    fn planned_step_skips_noise_on_zero_cap_branches() {
        // A zero cap draws no kT/C charge in `step`; the planned path must
        // not consume a buffered normal for it either, or the streams
        // de-align (the generator's sequencer steps 0 and 8 hit this).
        let int = ScIntegrator::new(
            5.194,
            1.0e-12,
            OpAmpModel::folded_cascode_035um(),
            Seconds(80.0e-9),
            NoiseSource::new(9),
        );
        assert_plan_matches_step("zero-cap branch", &int, [0.0, -2.574]);
    }

    #[test]
    fn only_ideal_hardware_plans_are_exact() {
        let caps = [0.4, -0.4, 0.4];
        assert!(ScIntegrator::ideal(1.0).plan(&caps).is_exact());
        let plan_of = |opamp: OpAmpModel, noise: NoiseSource| {
            ScIntegrator::new(1.0, 1.0e-12, opamp, Seconds(80.0e-9), noise).plan(&caps)
        };
        assert!(plan_of(OpAmpModel::ideal(), NoiseSource::disabled()).is_exact());
        // Each non-identity on its own disqualifies the plan.
        let ideal = OpAmpModel::ideal();
        let mut slewing = ideal;
        slewing.slew_rate = 20.0e6;
        let mut swing = ideal;
        swing.output_swing = Volts(2.5);
        for (label, opamp) in [
            ("finite gain", ideal.with_dc_gain(4000.0)),
            ("slow settling", ideal.with_gbw(Hertz::from_mhz(1.0))),
            ("finite slew", slewing),
            ("finite swing", swing),
            ("cubic", ideal.with_cubic(6.0e-3)),
            ("offset", ideal.with_offset(Volts(0.001))),
            ("cmos", OpAmpModel::folded_cascode_035um()),
        ] {
            assert!(
                !plan_of(opamp, NoiseSource::disabled()).is_exact(),
                "{label}"
            );
        }
        assert!(!plan_of(ideal, NoiseSource::new(3)).is_exact(), "noise");
    }

    #[test]
    fn exact_instantiation_matches_general_one_on_extreme_values() {
        // From every state, with every pair of inputs: signed zeros,
        // subnormals, huge, overflowing, infinite and NaN values.
        let values = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            0.3,
            -1.0e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let int = ScIntegrator::ideal(1.0);
        let plan = int.plan(&[0.4, -0.4, 0.4]);
        assert!(plan.is_exact());
        for &a in &values {
            for &b in &values {
                let voltages = [a, b, 0.0];
                let want = values.map(|state| {
                    let mut general = int.clone();
                    general.set_output(state);
                    general.step_planned::<false, 3>(&plan, voltages)
                });
                for (&state, want) in values.iter().zip(want) {
                    let mut exact = int.clone();
                    exact.set_output(state);
                    let got = exact.step_planned::<true, 3>(&plan, voltages);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "state {state}, inputs {a}, {b}: {got} vs {want}"
                    );
                }
                // Four states per call on the exact instantiation alone,
                // which equals the general body wherever it is finite.
                for k in 0..values.len() {
                    let slot = |s: usize| (k + s) % values.len();
                    let states = std::array::from_fn(|s| values[slot(s)]);
                    let got =
                        int.steps::<true, 3, 4>(&plan, states, voltages.map(|v| [v; 4]), [0.0; 3]);
                    for (s, got) in got.into_iter().enumerate() {
                        if got.is_finite() {
                            assert_eq!(
                                got.to_bits(),
                                want[slot(s)].to_bits(),
                                "state {}, inputs {a}, {b}, slot {s}",
                                states[s]
                            );
                        }
                    }
                }
            }
        }
    }

    /// Steps `int`'s clones, one per slot, each from its own state with
    /// `step` on the slot's voltages, and demands each slot of `got` equal
    /// its clone's output bit for bit.
    fn assert_slots_match_step<const W: usize>(
        label: &str,
        clones: &mut [ScIntegrator; W],
        caps: &[f64; 3],
        voltages: &[[f64; W]; 3],
        got: &[f64; W],
    ) {
        for (s, clone) in clones.iter_mut().enumerate() {
            let branches: Vec<Branch> = caps
                .iter()
                .zip(voltages)
                .map(|(&c, v)| Branch::new(c, v[s]))
                .collect();
            let want = clone.step(&branches);
            assert_eq!(
                got[s].to_bits(),
                want.to_bits(),
                "{label}: slot {s}: {} vs {want}",
                got[s]
            );
        }
    }

    #[test]
    fn general_body_steps_eight_states_like_eight_integrators() {
        // Every non-ideality of `only_ideal_hardware_plans_are_exact`, eight
        // states at a time through one step's draws. Each reference clone
        // steps its own state with `step`, drawing from its own copy of
        // the stream, and the states start at and swing past ±2.5 V.
        let caps = [0.4, -0.4, 0.4];
        let ideal = OpAmpModel::ideal();
        let mut slewing = ideal;
        slewing.slew_rate = 20.0e6;
        let mut swing = ideal;
        swing.output_swing = Volts(2.5);
        for (label, opamp, noise) in [
            ("finite gain", ideal.with_dc_gain(4000.0), None),
            ("slow settling", ideal.with_gbw(Hertz::from_mhz(1.0)), None),
            ("finite slew", slewing, None),
            ("finite swing", swing, None),
            ("cubic", ideal.with_cubic(6.0e-3), None),
            ("offset", ideal.with_offset(Volts(0.001)), None),
            ("cmos", OpAmpModel::folded_cascode_035um(), Some(3)),
        ] {
            let noise = noise.map_or_else(NoiseSource::disabled, NoiseSource::new);
            let mut int = ScIntegrator::new(1.0, 1.0e-12, opamp, Seconds(80.0e-9), noise);
            let plan = int.plan(&caps);
            let mut states = [2.4, -2.5, 0.3, -1.0e-3, 0.0, 1.7, -0.8, 2.5];
            let mut clones = states.map(|v| {
                let mut clone = int.clone();
                clone.set_output(v);
                clone
            });
            for k in 0..300 {
                let voltages: [[f64; 8]; 3] = std::array::from_fn(|i| {
                    std::array::from_fn(|s| 1.5 * ((k * 7 + i * 3 + s * 5) as f64 * 0.13).sin())
                });
                let ktc = int.draw_ktc(&plan);
                states = int.steps::<false, 3, 8>(&plan, states, voltages, ktc);
                let label = format!("{label}, step {k}");
                assert_slots_match_step(&label, &mut clones, &caps, &voltages, &states);
            }
            assert_eq!(int.output(), 0.0, "{label}: steps moved the output");
        }
        // On the 0.35 µm op-amp (slew-limited, v_lin ≈ 0.23 V, an 80 ns
        // phase) one step holds a slot in each branch of `settled_step`:
        // a zero step, linear settling, the exponential tail (both signs),
        // a slew through the whole phase, a NaN step and both infinite
        // steps. Each slot equals its own integrator's `step`, bit for
        // bit, through the batched passes at widths 8 and 1.
        let int = ScIntegrator::new(
            1.0,
            1.0e-12,
            OpAmpModel::folded_cascode_035um(),
            Seconds(80.0e-9),
            NoiseSource::disabled(),
        );
        let plan = int.plan(&caps);
        // The first branch's voltage sets each slot's step, 0.4·v.
        let regimes = [
            ("zero", 0.0),
            ("linear", 0.2),
            ("tail", 1.0),
            ("negative tail", -1.0),
            ("whole-phase slew", 5.0),
            ("NaN", f64::NAN),
            ("+∞", f64::INFINITY),
            ("−∞", f64::NEG_INFINITY),
        ];
        let magnitude = |v: f64| (0.4 * v).abs();
        let t_slew = |v: f64| (magnitude(v) - plan.v_lin) / plan.slew_rate;
        assert!(plan.slew_finite && magnitude(0.2) <= plan.v_lin);
        assert!(magnitude(1.0) > plan.v_lin && t_slew(1.0) < plan.settle_time);
        assert!(t_slew(5.0) >= plan.settle_time);
        let states = [0.0, 0.3, -1.0, 1.2, 0.0, 0.5, -2.0, 2.4];
        let voltages: [[f64; 8]; 3] = [regimes.map(|(_, v)| v), [0.0; 8], [0.0; 8]];
        let mut clones = states.map(|v| {
            let mut clone = int.clone();
            clone.set_output(v);
            clone
        });
        let got = int.steps::<false, 3, 8>(&plan, states, voltages, [0.0; 3]);
        assert_slots_match_step("eight regimes", &mut clones, &caps, &voltages, &got);
        assert!(got[5].is_nan() && got[4].is_finite() && got[6].is_finite());
        for (s, &(regime, v)) in regimes.iter().enumerate() {
            let mut clone = int.clone();
            clone.set_output(states[s]);
            let voltages = [[v], [0.0], [0.0]];
            let got = int.steps::<false, 3, 1>(&plan, [states[s]], voltages, [0.0; 3]);
            assert_slots_match_step(regime, &mut [clone], &caps, &voltages, &got);
        }
    }

    #[test]
    #[should_panic(expected = "match the planned branch count")]
    fn planned_step_rejects_wrong_voltage_count() {
        let mut int = ScIntegrator::ideal(1.0);
        let plan = int.plan(&[1.0, -1.0]);
        let _ = int.step_planned::<true, 1>(&plan, [0.5]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn plan_rejects_too_many_branches() {
        let int = ScIntegrator::ideal(1.0);
        let _ = int.plan(&[1.0; MAX_PLAN_BRANCHES + 1]);
    }
}
