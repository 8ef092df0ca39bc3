//! Parallel Monte-Carlo lot characterization — the paper's production
//! screening scenario at throughput.
//!
//! The motivating use of an *on-chip* network analyzer is go/no-go
//! screening of fabricated devices without an external ATE. A lot run
//! characterizes many Monte-Carlo devices (`factory(seed)` for each seed)
//! against one sweep plan and one gain mask:
//!
//! * **the analyzer's own work is amortized**: the generator and the ΣΔ
//!   evaluator are set by the DC references and digital control alone,
//!   never by the DUT (paper Section III.C), and so is every draw of
//!   their seeded noise; the evaluator, clocked at `f_eva = 96·f_wave`,
//!   is not set by the point either. So a fixed grid is measured in
//!   **lanes** of up to [`LANE_DEVICES`] devices over a group of points.
//!   Each (device, point) pair is a **slot**, and up to
//!   [`LANE_DEVICES`] slots run in one lockstep acquisition: one
//!   evaluator draws the comparator and `kT/C` noise once per block for
//!   all of them, and one generator serves every slot whose stimulus
//!   stream is the same: every slot whose generator settles completely
//!   at its clock ([`GeneratorConfig::settles_completely`](sigen::GeneratorConfig::settles_completely)), which on
//!   ideal hardware is every slot and on `cmos_035um` every slot in the
//!   audio band. Only the DUT simulations, the modulator states,
//!   classification and fit run per device;
//! * **calibration is one more slot**: the stimulus characterization
//!   depends on the analyzer configuration alone, so each lane task
//!   mounts the identity device [`Bypass`] at 1 kHz as one extra slot of
//!   its first acquisition and forms all its points against the
//!   calibration read off it — on the board shared by every point whose
//!   generator settles completely, or, when that acquisition measures
//!   only points past them (on `cmos_035um`, above about 28 kHz), on a
//!   1 kHz board of its own. It is bit-identical to
//!   [`LotEngine::shared_calibration`], and no stage runs an acquisition
//!   outside its lane tasks;
//! * (lane × point-group) tasks are fanned across a
//!   [`std::thread::scope`] worker pool (the atomic-cursor work stealing
//!   of [`crate::pool`]). The analyzer's own sweeps run the same tasks,
//!   as a lot of one device;
//! * results are **bit-identical** to the serial reference and to
//!   measuring each device alone: every device sees exactly the stimulus
//!   and noise a fresh analyzer of its own would produce, device order
//!   is seed order, and on failure the lowest-index device error is
//!   reported exactly as a serial in-order run would report it.
//!
//! The run produces a [`LotReport`]: per-device [`BodePlot`] +
//! [`SpecVerdict`] + fitted f0/Q summary, plus the lot-level verdict
//! histogram and yield estimate. Render it with
//! [`lot_table`](crate::report::lot_table),
//! [`lot_csv`](crate::report::lot_csv) or
//! [`lot_json`](crate::report::lot_json).
//!
//! # Escalation
//!
//! The paper's central trade — accuracy (enclosure width) for test time
//! (measurement periods `M`) — becomes an operational scheduling policy
//! with an [`EscalationSchedule`]: [`LotEngine::run_escalated_range`] screens
//! the whole lot at a cheap stage-0 configuration, then re-tests only the
//! devices still [`SpecVerdict::Ambiguous`] at each deeper (larger-`M`)
//! stage, each lane task calibrating in its own first acquisition, and
//! fanning re-tests across the same pool. A stage at a zero or odd `M`,
//! which no acquisition can measure, is refused when escalation reaches
//! it, before it fabricates a device. Hard enclosures make the policy
//! sound: a deeper stage can only *narrow* an enclosure around the same
//! truth, so a decided `Pass`/`Fail` is never re-tested and never flips.
//!
//! How a device's acquisition grows across stages is the
//! [`StoppingPolicy`]:
//!
//! * [`StoppingPolicy::Staged`] re-inserts the device per stage — every
//!   re-test is a fresh acquisition charged at the full stage `M`;
//! * [`StoppingPolicy::Sequential`] keeps the device on the tester and
//!   charges only the *increment* `M_s − M_{s−1}` of each re-test. Each
//!   device grows its own `M` only until its verdict decides (SPRT-style
//!   sequential testing). The simulation still measures every re-test
//!   from scratch at the deeper `M`, so verdicts, stopping stages and
//!   plots are identical to `Staged`, and the observed spend is strictly
//!   smaller whenever anything escalates.
//!
//!   The increment charge is a cost model, not a physical acquisition.
//!   A from-scratch `M_s` run equals a continued acquisition only when
//!   the evaluator is unchopped. A chopped acquisition (the default) runs
//!   window A for `M` periods and then an inverted window B for `M`
//!   periods, so the `M_{s−1}` run is not a prefix of the `M_s` run.
//!
//! # Budgets
//!
//! An optional test-time budget — simulated seconds, the currency of
//! [`crate::plan::measurement_time`] — caps the total. Every device of a
//! stage measures the same grid, so each is charged the same stage
//! charge, [`EscalationSchedule::device_stage_charge`]. Re-tests are
//! admitted in seed order while `spent < budget`, each adding its charge
//! to `spent`, so the last admitted device may overshoot the budget by
//! at most one charge. The admitted prefix is known before measuring:
//! only it is measured, and a denied device is never measured again.
//!
//! The stage-0 screening pass is all-or-nothing — without it no device
//! has a verdict — so a budget that cannot cover it is
//! [`NetanError::BudgetExhausted`], rejected before any simulation.
//!
//! # Sharding
//!
//! A lot does not have to be one call. The engine's two entry points,
//! [`LotEngine::run_range`] and [`LotEngine::run_escalated_range`], take
//! a contiguous seed range and characterize it as an independent
//! **shard** (each lane task of a shard calibrates in one extra slot)
//! that records its range; [`LotReport::merge`] joins
//! adjacent shards into the byte-identical report one monolithic run
//! would have produced, with [`LotReport::empty`] as the identity: the
//! merged stage summaries are read off the merged devices and stages.
//! The seed range and each stage's [`AnalyzerConfig`] travel through
//! the `netan.lot.v5` JSON schema, which is what the
//! [`ShardDriver`](crate::ShardDriver) persists per shard and resumes a
//! lot from after an interruption.
//!
//! Budgets under sharding: a budgeted schedule admits re-tests against
//! the lot-global ledger, which a single shard cannot see, so one shard
//! in isolation still budgets per shard. But because each shard's
//! report carries its spend, the shard driver — under both
//! [`ShardDriver::drive`](crate::ShardDriver::drive) and the `netan-serve`
//! service — threads the remaining global budget into each successive
//! shard, giving a sharded lot a global-style budget answer with
//! deterministic kill-and-resume.
//! Byte-identity to a monolithic run holds for unbudgeted schedules
//! (and plain runs); budgeted sharded lots are deterministic but admit
//! re-tests at shard boundaries a monolithic ledger would interleave.

use crate::analyzer::{
    check_nominal, AnalyzerConfig, BodePoint, Calibration, NetworkAnalyzer, CALIBRATION_FREQUENCY,
};
use crate::error::{millihertz, NetanError};
use crate::plan::grid_time;
use crate::pool;
use crate::spec::{GainMask, SpecVerdict};
use crate::sweep::{unwrap_phase_by_continuity, BodePlot, LowpassFit};
use dut::{Bypass, Dut};
use mixsig::units::{Hertz, Seconds};
use std::ops::Range;

/// A lot screening plan: the sweep grid and the gain mask to classify
/// against.
///
/// The effective grid is the union of the requested grid and the mask
/// frequencies, sorted ascending and deduplicated, so every mask point is
/// always measured and the phase-unwrap pass sees an ordered sweep. Every
/// device of a lot measures exactly this grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LotPlan {
    grid: Vec<Hertz>,
    mask: GainMask,
}

impl LotPlan {
    /// Builds a plan from a sweep grid and a mask. Mask frequencies
    /// missing from the grid are added; exact duplicates are merged.
    pub fn new(grid: &[Hertz], mask: GainMask) -> Self {
        let mut freqs: Vec<Hertz> = grid.to_vec();
        freqs.extend(mask.frequencies());
        freqs.sort_by(|a, b| a.value().total_cmp(&b.value()));
        freqs.dedup_by_key(|f| f.value().to_bits());
        Self { grid: freqs, mask }
    }

    /// A plan that measures exactly the mask frequencies — the minimal
    /// go/no-go sweep.
    pub fn from_mask(mask: GainMask) -> Self {
        Self::new(&[], mask)
    }

    /// The effective sweep grid (ascending, deduplicated).
    pub fn grid(&self) -> &[Hertz] {
        &self.grid
    }

    /// The gain mask.
    pub fn mask(&self) -> &GainMask {
        &self.mask
    }

    /// Classifies a measured point set that contains *at least* every
    /// mask frequency, locating each mask point by frequency. The
    /// overall verdict is `Fail` if any mask point fails, else
    /// `Ambiguous` if any is ambiguous, else `Pass`.
    ///
    /// # Errors
    ///
    /// [`NetanError::MaskFrequencyMissing`] for the first mask frequency
    /// missing from `points`. A plot measured over this plan's grid has
    /// them all, since both constructors union the mask into the grid;
    /// a hand-assembled point set gets a typed error rather than a
    /// panic.
    pub fn classify_plot(&self, points: &[BodePoint]) -> Result<SpecVerdict, NetanError> {
        let mut masked = Vec::with_capacity(self.mask.points().len());
        for mp in self.mask.points() {
            let bits = mp.frequency.value().to_bits();
            let found = points
                .iter()
                .find(|p| p.frequency.value().to_bits() == bits);
            masked.push(*found.ok_or(NetanError::MaskFrequencyMissing {
                hz_millis: millihertz(mp.frequency),
            })?);
        }
        Ok(self.mask.classify(&masked))
    }
}

/// How a device's acquisition grows across escalation stages — the
/// per-device stopping rule of an [`EscalationSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoppingPolicy {
    /// Each stage is a fresh insertion: a re-test is charged the full
    /// stage `M`. The default.
    #[default]
    Staged,
    /// Per-device sequential stopping: the device stays on the tester,
    /// so a re-test is charged only the period increment
    /// `M_s − M_{s−1}`. The re-test itself is measured from scratch at
    /// `M_s`, so the plot and verdict at each stage are bit-identical to
    /// `Staged`; only the observed spend differs. The increment is a
    /// cost model: a chopped acquisition at `M_{s−1}` is not a prefix of
    /// one at `M_s` (see the [module docs](self#escalation)).
    Sequential,
}

/// An ordered multi-pass re-test schedule: stage 0 screens the whole
/// lot, each later stage re-tests only the devices still
/// [`SpecVerdict::Ambiguous`], and an optional budget caps the total
/// simulated test time the lot may spend (see the
/// [module docs](self#budgets)).
///
/// Stages must escalate — strictly increasing `periods` — so every
/// re-test buys a narrower enclosure than the pass that left the device
/// ambiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationSchedule {
    stages: Vec<AnalyzerConfig>,
    budget: Option<Seconds>,
    stopping: StoppingPolicy,
}

impl EscalationSchedule {
    /// Builds a schedule from explicit per-stage analyzer configurations.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or the stage `periods` are not
    /// strictly increasing ([`defect`](Self::defect)).
    pub fn new(stages: Vec<AnalyzerConfig>) -> Self {
        let defect = Self::defect(&stages);
        assert!(defect.is_none(), "{}", defect.unwrap_or_default());
        Self {
            stages,
            budget: None,
            stopping: StoppingPolicy::Staged,
        }
    }

    /// Why `stages` cannot make a schedule, or `None` if they can: the
    /// precondition [`new`](Self::new) asserts — at least one stage, and
    /// strictly increasing `periods` — so a decoder of untrusted input
    /// can refuse the stages with the same check and message.
    pub fn defect(stages: &[AnalyzerConfig]) -> Option<String> {
        if stages.is_empty() {
            return Some("an escalation schedule needs at least one stage".into());
        }
        stages
            .windows(2)
            .find(|w| w[0].periods >= w[1].periods)
            .map(|w| {
                format!(
                    "escalation stages must strictly increase M ({} then {})",
                    w[0].periods, w[1].periods
                )
            })
    }

    /// A schedule that varies only the evaluation length: one stage per
    /// entry of `periods`, each `base` with that `M`.
    ///
    /// # Panics
    ///
    /// Panics if `periods` is empty or not strictly increasing.
    pub fn from_periods(base: AnalyzerConfig, periods: &[u32]) -> Self {
        Self::new(periods.iter().map(|&m| base.with_periods(m)).collect())
    }

    /// Returns the schedule with a total test-time budget in simulated
    /// seconds (the unit of [`crate::plan::measurement_time`]).
    #[must_use]
    pub fn with_budget(mut self, budget: Seconds) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Returns the schedule with the given per-device stopping policy
    /// ([`StoppingPolicy::Staged`] is the default).
    #[must_use]
    pub fn with_stopping(mut self, stopping: StoppingPolicy) -> Self {
        self.stopping = stopping;
        self
    }

    /// Shorthand for
    /// [`with_stopping(StoppingPolicy::Sequential)`](Self::with_stopping).
    #[must_use]
    pub fn sequential(self) -> Self {
        self.with_stopping(StoppingPolicy::Sequential)
    }

    /// The per-stage analyzer configurations, stage 0 first.
    pub fn stages(&self) -> &[AnalyzerConfig] {
        &self.stages
    }

    /// The test-time budget, if one is set.
    pub fn budget(&self) -> Option<Seconds> {
        self.budget
    }

    /// The per-device stopping policy.
    pub fn stopping(&self) -> StoppingPolicy {
        self.stopping
    }

    /// Evaluation periods *charged* for one device passing `stage`: the
    /// full stage `M` under [`StoppingPolicy::Staged`] (each stage is a
    /// fresh insertion), the increment over the previous stage under
    /// [`StoppingPolicy::Sequential`] (the device stays inserted).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub(crate) fn charged_periods(&self, stage: usize) -> u32 {
        let m = self.stages[stage].periods;
        match self.stopping {
            StoppingPolicy::Sequential if stage > 0 => m - self.stages[stage - 1].periods,
            _ => m,
        }
    }

    /// Simulated test time one device spends at `stage` over `grid`: the
    /// sum of one chopped acquisition per grid frequency at that stage's
    /// `M` ([`crate::plan::measurement_time`]). Calibration is excluded —
    /// it is amortized across the lot, not spent per device.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range or `grid` contains a
    /// non-positive frequency.
    pub fn device_stage_time(&self, stage: usize, grid: &[Hertz]) -> Seconds {
        grid_time(self.stages[stage].periods, grid)
    }

    /// Simulated test time one device is *charged* at `stage` over
    /// `grid` under this schedule's [`StoppingPolicy`]: equal to
    /// [`device_stage_time`](Self::device_stage_time) for `Staged`
    /// stages, the cost of just the period increment for `Sequential`
    /// re-test stages.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range or `grid` contains a
    /// non-positive frequency.
    pub fn device_stage_charge(&self, stage: usize, grid: &[Hertz]) -> Seconds {
        grid_time(self.charged_periods(stage), grid)
    }
}

/// Accounting for one executed stage of an escalated (or plain) lot run,
/// as [`LotReport::stages`] reads it off the stage list and the devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSummary {
    /// Stage index within the schedule (0 = the screening pass).
    pub stage: usize,
    /// The analyzer configuration that measured this stage, with the
    /// default `block_samples`, which never moves a byte.
    pub config: AnalyzerConfig,
    /// Devices measured at this stage (the whole lot at stage 0, the
    /// still-ambiguous — budget permitting — afterwards): the devices
    /// whose final [`stage`](DeviceReport::stage) is this one or later.
    pub tested: usize,
    /// Lot-wide verdict histogram *after* this stage completed: each
    /// device's final verdict, or ambiguous for a device a later stage
    /// re-tested.
    pub counts: VerdictCounts,
    /// Simulated test time charged at this stage across all tested
    /// devices (the seed-order left fold of their `device_time`s).
    pub time: Seconds,
    /// The per-device charge of this stage,
    /// [`EscalationSchedule::device_stage_charge`]: [`crate::plan::grid_time`]
    /// at the stage's *charged* periods — the full `M` for `Staged`
    /// stages, the increment for `Sequential` re-test stages.
    pub device_time: Seconds,
}

/// One device's characterization within a lot.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// The Monte-Carlo seed the device was fabricated from.
    pub seed: u64,
    /// The measured Bode plot over the plan grid.
    pub plot: BodePlot,
    /// Go/no-go verdict against the plan mask.
    pub verdict: SpecVerdict,
    /// Fitted second-order f0/Q summary (None when the response does not
    /// fit a low-pass biquad).
    pub fit: Option<LowpassFit>,
    /// Escalation stage that produced the verdict and plot above (0 for
    /// the screening pass and for every plain [`LotEngine::run_range`]). The
    /// device ran every stage up to it, at the report's
    /// [`stages`](LotReport::stages) configurations and charges.
    pub stage: usize,
}

/// The lot-level verdict histogram.
///
/// A zero-device report tallies to the all-zero histogram — explicitly
/// well-defined, unlike the yield *ratio*, which has no value on an
/// empty lot (see [`LotReport::yield_bounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictCounts {
    /// Devices entirely inside the mask.
    pub pass: usize,
    /// Devices entirely outside the mask at some point.
    pub fail: usize,
    /// Devices straddling a limit — re-test with a larger `M`.
    pub ambiguous: usize,
}

impl VerdictCounts {
    /// Total devices counted (0 for an empty lot).
    pub fn total(&self) -> usize {
        self.pass + self.fail + self.ambiguous
    }

    /// Tallies the verdicts of a device slice.
    pub(crate) fn tally(devices: &[DeviceReport]) -> Self {
        let mut c = Self::default();
        for d in devices {
            c.count(d.verdict);
        }
        c
    }

    fn count(&mut self, verdict: SpecVerdict) {
        match verdict {
            SpecVerdict::Pass => self.pass += 1,
            SpecVerdict::Fail => self.fail += 1,
            SpecVerdict::Ambiguous => self.ambiguous += 1,
        }
    }
}

/// The result of a lot run: per-device reports in seed order, the mask
/// they were screened against, and — for escalated runs — per-stage
/// summaries and budget accounting.
///
/// The stage list is the lot's only ledger: per executed stage, the
/// [`AnalyzerConfig`] that measured it and its per-device charge. Each
/// device keeps only what was measured, and [`stages`](Self::stages)
/// reads every stage summary off the two.
#[derive(Debug, Clone, PartialEq)]
pub struct LotReport {
    mask: GainMask,
    devices: Vec<DeviceReport>,
    /// `(configuration, per-device charge)` per executed stage.
    stages: Vec<(AnalyzerConfig, Seconds)>,
    budget: Option<Seconds>,
    budget_exhausted: bool,
    stopping: StoppingPolicy,
    shard: Option<Range<u64>>,
}

impl LotReport {
    /// Assembles a report (device order is preserved) with no stage
    /// accounting — the constructor for synthetic reports; engine runs
    /// and the `netan.lot.v5` loader also record their executed stages.
    pub(crate) fn new(mask: GainMask, devices: Vec<DeviceReport>) -> Self {
        Self {
            mask,
            devices,
            stages: Vec::new(),
            budget: None,
            budget_exhausted: false,
            stopping: StoppingPolicy::Staged,
            shard: None,
        }
    }

    /// The identity of [`merge`](Self::merge): no devices, no stages,
    /// no budget, no shard provenance, `plan`'s mask. Merging it on
    /// either side of any report over the same plan returns that report
    /// unchanged.
    pub fn empty(plan: &LotPlan) -> Self {
        Self::new(plan.mask().clone(), Vec::new())
    }

    /// Returns the report with its executed stages recorded: per stage,
    /// its configuration and its per-device charge.
    #[must_use]
    pub(crate) fn with_stages(mut self, stages: Vec<(AnalyzerConfig, Seconds)>) -> Self {
        self.stages = stages;
        self
    }

    /// Returns the report with the schedule's budget (if any) and
    /// whether escalation stopped early because of it.
    #[must_use]
    pub(crate) fn with_budget(mut self, budget: Option<Seconds>, exhausted: bool) -> Self {
        self.budget = budget;
        self.budget_exhausted = exhausted;
        self
    }

    /// Returns the report with the stopping policy that produced it
    /// ([`StoppingPolicy::Staged`] is the constructor default).
    #[must_use]
    pub(crate) fn with_stopping(mut self, stopping: StoppingPolicy) -> Self {
        self.stopping = stopping;
        self
    }

    /// The per-device stopping policy the run used — provenance for the
    /// observed spends in the report.
    pub(crate) fn stopping(&self) -> StoppingPolicy {
        self.stopping
    }

    /// Returns the report with the seed range it covers (used by the
    /// `netan.lot.v5` loader).
    #[must_use]
    pub(crate) fn with_shard(mut self, shard: Range<u64>) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The device-seed range this report covers, when known: every
    /// engine run attaches its range, and merging adjacent shards joins
    /// theirs. `None` for synthetic reports.
    pub fn shard(&self) -> Option<Range<u64>> {
        self.shard.clone()
    }

    /// Per-device reports, in the seed order of the run.
    pub fn devices(&self) -> &[DeviceReport] {
        &self.devices
    }

    /// The mask the lot was screened against.
    pub(crate) fn mask(&self) -> &GainMask {
        &self.mask
    }

    /// Per-stage summaries in execution order (one entry for a plain
    /// [`LotEngine::run_range`], empty for synthetic reports): stage `s`
    /// tested every device whose stage is `s` or later, its time is the
    /// seed-order left fold of their per-device charges, and its
    /// histogram counts each device's final verdict — or ambiguous, for a
    /// device whose final stage is past `s`, since a device is re-tested
    /// only while ambiguous.
    pub fn stages(&self) -> Vec<StageSummary> {
        let mut summaries: Vec<StageSummary> = self
            .stages
            .iter()
            .enumerate()
            .map(|(stage, &(config, device_time))| StageSummary {
                stage,
                config,
                tested: 0,
                counts: VerdictCounts::default(),
                time: Seconds(0.0),
                device_time,
            })
            .collect();
        for d in &self.devices {
            for s in &mut summaries {
                if d.stage >= s.stage {
                    s.tested += 1;
                    s.time = s.time + s.device_time;
                }
                s.counts.count(if d.stage > s.stage {
                    SpecVerdict::Ambiguous
                } else {
                    d.verdict
                });
            }
        }
        summaries
    }

    /// The schedule's test-time budget, if one was set.
    pub fn budget(&self) -> Option<Seconds> {
        self.budget
    }

    /// Whether escalation stopped before the schedule (or the ambiguous
    /// set) was exhausted because the budget could not pay for another
    /// re-test.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// Total simulated test time spent across all executed stages.
    pub fn spent(&self) -> Seconds {
        self.stages()
            .iter()
            .fold(Seconds(0.0), |acc, s| acc + s.time)
    }

    /// Number of devices in the lot.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the lot is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The pass/fail/ambiguous histogram (all-zero for an empty lot).
    pub fn counts(&self) -> VerdictCounts {
        VerdictCounts::tally(&self.devices)
    }

    /// Yield estimate as an interval: the lower bound counts only `Pass`
    /// devices, the upper bound also grants every `Ambiguous` device —
    /// the trichotomous verdicts make the yield itself an enclosure.
    ///
    /// Returns `None` for a zero-device report: an empty lot has no
    /// yield, and the old `(0.0, 0.0)` answer read as "everything fails"
    /// (the same fake-certainty bug `worst_gain_error_db` had on empty
    /// plots).
    pub fn yield_bounds(&self) -> Option<(f64, f64)> {
        let c = self.counts();
        let total = c.total();
        if total == 0 {
            return None;
        }
        Some((
            c.pass as f64 / total as f64,
            (c.pass + c.ambiguous) as f64 / total as f64,
        ))
    }

    /// Whether this report is the [`empty`](Self::empty) identity.
    fn is_merge_identity(&self) -> bool {
        self.devices.is_empty()
            && self.stages.is_empty()
            && self.budget.is_none()
            && !self.budget_exhausted
            && self.stopping == StoppingPolicy::Staged
            && self.shard.is_none()
    }

    /// Merges two seed-disjoint reports over the same mask into the
    /// report one run over the union would have produced — byte
    /// identical through [`lot_json`](crate::report::lot_json) when the
    /// operands are adjacent shards of a monolithic `run_range`/
    /// `run_escalated_range` (unbudgeted: a budget gates re-tests on a
    /// *global* seed-order prefix no shard can see, so budgeted
    /// schedules are budgeted per shard).
    ///
    /// The operation is associative with [`LotReport::empty`] as a
    /// two-sided identity: device lists concatenate in seed order, the
    /// executed-stage lists align by stage index and the longer one wins
    /// (a shard whose escalation stopped early ran fewer stages), budget
    /// ledgers sum, the exhaustion flags OR, and adjacent seed ranges
    /// join (provenance degrades to `None` if either side has none). The
    /// merged stage summaries are read off the merged devices
    /// ([`stages`](Self::stages)), so they are exactly what one run over
    /// the union accumulates.
    ///
    /// # Panics
    ///
    /// Panics if the masks differ, the stopping policies differ, a stage
    /// both sides ran has two different configurations or per-device
    /// charges, the device seed lists are not ascending-disjoint, or both
    /// sides carry seed ranges that are not adjacent (`self` ending
    /// exactly where `other` starts).
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        assert_eq!(self.mask, other.mask, "shards of one lot share the mask");
        if self.is_merge_identity() {
            return other;
        }
        if other.is_merge_identity() {
            return self;
        }
        assert_eq!(
            self.stopping, other.stopping,
            "shards of one lot share the stopping policy"
        );

        if let (Some(last), Some(first)) = (self.devices.last(), other.devices.first()) {
            assert!(
                last.seed < first.seed,
                "device lists must concatenate in ascending seed order \
                 ({} then {})",
                last.seed,
                first.seed
            );
        }
        let shard = match (self.shard, other.shard) {
            (Some(a), Some(b)) => {
                assert_eq!(a.end, b.start, "shard spans must be adjacent to merge");
                Some(a.start..b.end)
            }
            _ => None,
        };

        let (stages, shorter) = if self.stages.len() >= other.stages.len() {
            (self.stages, other.stages)
        } else {
            (other.stages, self.stages)
        };
        for ((config, charge), (other_config, other_charge)) in stages.iter().zip(shorter) {
            assert_eq!(
                *config, other_config,
                "one schedule stage cannot have two configurations"
            );
            assert_eq!(
                charge.value().to_bits(),
                other_charge.value().to_bits(),
                "shards of one lot share the per-device stage cost"
            );
        }

        let mut devices = self.devices;
        devices.extend(other.devices);
        let budget = match (self.budget, other.budget) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        Self {
            mask: self.mask,
            devices,
            stages,
            budget,
            budget_exhausted: self.budget_exhausted || other.budget_exhausted,
            stopping: self.stopping,
            shard,
        }
    }
}

/// The one worker pool for every fan-out. Its (lane × point group) tasks
/// measure a lot's characterizations (see the [module docs](self)) and
/// every analyzer sweep: [`NetworkAnalyzer::sweep_with`], each round of
/// [`NetworkAnalyzer::sweep_adaptive_with`] and
/// [`NetworkAnalyzer::measure_point`] run as a lot of the analyzer's one
/// device. The pool also runs the distortion mode's per-harmonic
/// acquisitions ([`NetworkAnalyzer::measure_harmonics_with`]).
///
/// # Example
///
/// ```
/// use netan::{AnalyzerConfig, GainMask, LotEngine, LotPlan};
/// use dut::ActiveRcFilter;
///
/// let plan = LotPlan::from_mask(GainMask::paper_lowpass());
/// let report = LotEngine::auto().run_range(
///     |seed| ActiveRcFilter::paper_dut().linearized().fabricate(0.02, seed),
///     0..4,
///     &plan,
///     AnalyzerConfig::ideal().with_periods(50),
/// )?;
/// assert_eq!(report.len(), 4);
/// assert_eq!(report.counts().total(), 4);
/// # Ok::<(), netan::NetanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LotEngine {
    threads: usize,
}

impl LotEngine {
    /// An engine that runs every task on the calling thread, in order —
    /// the reference for bit-identity.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// An engine sized to the machine's available parallelism. The pool
    /// is sized once per process (see `pool::auto_threads`): a CPU
    /// quota changed later is not seen.
    pub fn auto() -> Self {
        Self {
            threads: pool::auto_threads(),
        }
    }

    /// An engine with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Characterizes `factory(seed)` for every seed of the contiguous
    /// range `seed_range` against `plan`, fanning the work across the
    /// worker pool — one **shard** of a lot, with the range attached as
    /// its [`shard`](LotReport::shard). A fixed grid is measured in
    /// lanes whose (device, point) slots share each acquisition's
    /// evaluator noise and, where the stream allows, its stimulus; each
    /// lane task calibrates in one extra slot of its first acquisition.
    ///
    /// A plain run is the one-stage schedule of `config` through the
    /// core of [`run_escalated_range`](Self::run_escalated_range).
    /// Merging the shards of any seed-contiguous partition with
    /// [`LotReport::merge`] is byte-identical (through
    /// [`lot_json`](crate::report::lot_json)) to one run over the whole
    /// range.
    ///
    /// # Errors
    ///
    /// * [`NetanError::EmptyLot`] for an empty range,
    /// * [`NetanError::EmptySweep`] for an empty plan grid,
    /// * the lowest-index [`NetanError::InvalidFrequency`] if the grid
    ///   contains a non-positive frequency, and
    ///   [`NetanError::InvalidMaskPoint`] for a mask point that
    ///   [`MaskPoint::new`](crate::spec::MaskPoint::new) would refuse
    ///   (both rejected before any simulation),
    /// * [`NetanError::Eval`] with `OddPeriods` for a zero or odd `M`,
    ///   before any device is fabricated
    ///   ([`AnalyzerConfig::check_periods`]),
    /// * [`NetanError::UnresolvedStimulus`] when the calibrated stimulus
    ///   amplitude enclosure reaches zero,
    /// * [`NetanError::DeviceNotSimulable`] if a device's nominal
    ///   response is non-finite at a plan frequency,
    /// * per-device measurement errors, lowest seed first.
    pub fn run_range<D, F>(
        &self,
        factory: F,
        seed_range: Range<u64>,
        plan: &LotPlan,
        config: AnalyzerConfig,
    ) -> Result<LotReport, NetanError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        self.run_escalated_range(
            factory,
            seed_range,
            plan,
            &EscalationSchedule::new(vec![config]),
        )
    }

    /// Escalation-screens the contiguous seed range `seed_range` as one
    /// **shard** of a lot: screens it at `schedule` stage 0, then
    /// re-tests only the devices still [`SpecVerdict::Ambiguous`] at
    /// each subsequent stage — each lane task calibrating in its first
    /// acquisition, re-tests fanned across the same worker pool — until
    /// no device is
    /// ambiguous, the schedule is exhausted, or the budget admits no
    /// further re-test. Under [`StoppingPolicy::Sequential`] each
    /// re-test is charged only the period increment; verdicts are
    /// identical to `Staged`, the spend is smaller.
    ///
    /// Each device of a stage is charged the stage's per-device charge,
    /// [`EscalationSchedule::device_stage_charge`]. Under a budget the
    /// ambiguous devices are admitted in seed order while
    /// `spent < budget`, so the final admitted re-test may overshoot the
    /// budget by at most one charge. The admitted prefix is computed
    /// before measuring and only it is measured; the report's
    /// [`budget_exhausted`](LotReport::budget_exhausted) flag is set
    /// whenever an ambiguous device was denied.
    ///
    /// Results are bit-identical to a serial in-order run: admission
    /// depends only on verdicts and seed order (never on completion
    /// order), and on failure the lowest-seed error among the admitted
    /// measurements of the failing stage is reported. For unbudgeted
    /// schedules, merging the shards of any seed-contiguous partition
    /// with [`LotReport::merge`] is byte-identical (through
    /// [`lot_json`](crate::report::lot_json)) to one run over the whole
    /// range; a budget applies per shard (see the
    /// [module docs](self#sharding)).
    ///
    /// # Errors
    ///
    /// Everything [`run_range`](Self::run_range) returns, plus
    /// [`NetanError::BudgetExhausted`] when the budget cannot cover the
    /// all-or-nothing stage-0 screening pass — rejected before any
    /// simulation. A later stage at a zero or odd `M` is refused when
    /// escalation reaches it, before it fabricates a re-test.
    pub fn run_escalated_range<D, F>(
        &self,
        factory: F,
        seed_range: Range<u64>,
        plan: &LotPlan,
        schedule: &EscalationSchedule,
    ) -> Result<LotReport, NetanError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        let seeds: Vec<u64> = seed_range.clone().collect();
        Self::validate_lot(&seeds, plan)?;
        let charge = |s: usize| schedule.device_stage_charge(s, plan.grid());

        // The screening pass is all-or-nothing: without it no device has
        // a verdict, so a budget that cannot cover it is an error, not a
        // silently empty report.
        let c0 = charge(0);
        let mut spent = seeds.iter().fold(Seconds(0.0), |acc, _| acc + c0);
        if let Some(budget) = schedule.budget() {
            if spent.value() > budget.value() {
                return Err(Self::budget_error(spent, budget));
            }
        }

        let config0 = schedule.stages()[0];
        let mut stages = vec![(recorded(config0), c0)];
        config0.check_periods()?;
        let results = self.characterize(&factory, &seeds, plan, 0, &config0);
        let mut devices = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut budget_exhausted = false;

        for (s, &config) in schedule.stages().iter().enumerate().skip(1) {
            let ambiguous: Vec<usize> = devices
                .iter()
                .enumerate()
                .filter(|(_, d)| d.verdict == SpecVerdict::Ambiguous)
                .map(|(i, _)| i)
                .collect();
            if ambiguous.is_empty() {
                break;
            }
            // Admit in seed order while `spent < budget`, charging each
            // admitted device the stage charge.
            let c = charge(s);
            let mut admitted = 0;
            while admitted < ambiguous.len()
                && schedule
                    .budget()
                    .is_none_or(|budget| spent.value() < budget.value())
            {
                spent = spent + c;
                admitted += 1;
            }
            budget_exhausted |= admitted < ambiguous.len();
            if admitted == 0 {
                break;
            }
            stages.push((recorded(config), c));
            config.check_periods()?;
            let retests: Vec<u64> = ambiguous[..admitted]
                .iter()
                .map(|&i| devices[i].seed)
                .collect();
            // The lowest-seed-index error among the re-tests wins, as a
            // serial in-order run would report it.
            let results = self.characterize(&factory, &retests, plan, s, &config);
            for (&i, report) in ambiguous.iter().zip(results) {
                devices[i] = report?;
            }
        }

        Ok(LotReport::new(plan.mask().clone(), devices)
            .with_stages(stages)
            .with_budget(schedule.budget(), budget_exhausted)
            .with_stopping(schedule.stopping())
            .with_shard(seed_range))
    }

    /// The typed budget-below-screening error, both sides rounded **up**
    /// to the next simulated millisecond — the same rounding, so a
    /// sub-millisecond budget never reports as `0` and the displayed
    /// pair never inverts the real comparison.
    fn budget_error(needed: Seconds, budget: Seconds) -> NetanError {
        NetanError::BudgetExhausted {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "diagnostic-only millisecond render; `as` saturates NaN/∞ instead of panicking"
            )]
            needed_ms: (needed.value() * 1000.0).ceil() as u64,
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "diagnostic-only millisecond render; `as` saturates NaN/∞ instead of panicking"
            )]
            budget_ms: (budget.value() * 1000.0).ceil() as u64,
        }
    }

    /// Shared up-front validation of a lot request: non-empty seeds,
    /// non-empty grid, every grid frequency valid and every mask point
    /// one that [`MaskPoint::new`](crate::spec::MaskPoint::new) accepts —
    /// all rejected before any simulation.
    fn validate_lot(seeds: &[u64], plan: &LotPlan) -> Result<(), NetanError> {
        if seeds.is_empty() {
            return Err(NetanError::EmptyLot);
        }
        NetworkAnalyzer::check_frequencies(plan.grid())?;
        for mp in plan.mask().points() {
            if mp.defect().is_some() {
                return Err(NetanError::InvalidMaskPoint {
                    hz_millis: millihertz(mp.frequency),
                });
            }
        }
        Ok(())
    }

    /// The stimulus characterization shared by every device in a lot.
    ///
    /// The calibration bypass taps the generated stimulus *ahead* of the
    /// DUT (paper Fig. 1 dashed path), so the measurement is independent
    /// of which device sits on the board: one calibration per analyzer
    /// configuration serves the whole lot, bit-identical to calibrating
    /// per device. A lot does not call this: each lane task reads the
    /// same bits off the identity slot of its first acquisition.
    pub fn shared_calibration(config: AnalyzerConfig) -> Result<Calibration, NetanError> {
        NetworkAnalyzer::new(&Bypass, config).calibrate()
    }

    /// Characterizes every device of `seeds` at schedule stage `stage`,
    /// measured at `config`, whose `M` the caller has checked: one result
    /// per device, in order. Every device is attempted; a failed device
    /// carries its own error, so collecting the results reports the
    /// lowest-index error, as a serial in-order run would.
    fn characterize<D, F>(
        &self,
        factory: &F,
        seeds: &[u64],
        plan: &LotPlan,
        stage: usize,
        config: &AnalyzerConfig,
    ) -> Vec<Result<DeviceReport, NetanError>>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        let (_, lanes) = self.measure_lanes(factory, seeds, plan.grid(), config, None);
        lanes
            .into_iter()
            .zip(seeds)
            .map(|(points, &seed)| {
                let mut points = points?;
                unwrap_phase_by_continuity(&mut points);
                let plot = BodePlot::new(points);
                let verdict = plan.classify_plot(plot.points())?;
                let fit = plot.fit_lowpass_biquad();
                Ok(DeviceReport {
                    seed,
                    plot,
                    verdict,
                    fit,
                    stage,
                })
            })
            .collect()
    }

    /// Measures `grid` on every device of `seeds` at `config`, in
    /// **lanes**: one result per device, in seed order, holding its
    /// points in grid order (phase not yet unwrapped), and the
    /// calibration they were formed against: `cal`, or without one the
    /// calibration each task reads off its first acquisition (`None` if
    /// nothing was measured). A lot passes `None`. An analyzer's sweep
    /// passes its stored calibration, and lends its one device to seed 0.
    /// Each caller has refused an invalid frequency and a zero or odd `M`
    /// before calling.
    ///
    /// The devices and the grid split into lane tasks (see
    /// [`LaneLayout`]) of up to [`LANE_DEVICES`] devices over a
    /// contiguous group of grid points, each measured by
    /// [`lane_task`](Self::lane_task). Each point is bit-identical to the
    /// device's own [`NetworkAnalyzer::measure_point_calibrated`], so the
    /// split changes no byte.
    ///
    /// A device that cannot be simulated is left out of its lane and
    /// fails on its own with [`NetanError::DeviceNotSimulable`]. A
    /// measurement error depends only on the configuration and the
    /// point, so it fails every device of its task at that point; a
    /// device reports its lowest-index point error, as a serial sweep
    /// would.
    pub(crate) fn measure_lanes<D, F>(
        &self,
        factory: &F,
        seeds: &[u64],
        grid: &[Hertz],
        config: &AnalyzerConfig,
        cal: Option<Calibration>,
    ) -> (Option<Calibration>, Vec<Result<Vec<BodePoint>, NetanError>>)
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        let layout = LaneLayout::new(seeds.len(), grid.len(), self.threads);
        // Tasks are lane-major: lane `l`'s point groups are tasks
        // `l·groups .. (l+1)·groups`, in grid order.
        let tasks = pool::map_indexed(self.threads, layout.lanes * layout.groups, |task| {
            let lane = &seeds[split(seeds.len(), layout.lanes, task / layout.groups)];
            let points = &grid[split(grid.len(), layout.groups, task % layout.groups)];
            Self::lane_task(factory, lane, points, grid, config, cal)
        });
        // Every task reads the same calibration bits.
        let used = tasks.iter().find_map(|&(cal, _)| cal);
        // Each device's groups arrive in grid order; its first error wins.
        let mut results: Vec<Result<Vec<BodePoint>, NetanError>> =
            seeds.iter().map(|_| Ok(Vec::new())).collect();
        for (task, (_, parts)) in tasks.into_iter().enumerate() {
            let lane = split(seeds.len(), layout.lanes, task / layout.groups);
            for (device, part) in results[lane].iter_mut().zip(parts) {
                if let Ok(points) = device {
                    match part {
                        Ok(part) if points.is_empty() => *points = part,
                        Ok(mut part) => points.append(&mut part),
                        Err(e) => *device = Err(e),
                    }
                }
            }
        }
        (used, results)
    }

    /// One lane task: fabricates the devices of `lane` and measures the
    /// mounted ones at every frequency of `points` (a group of `grid`) at
    /// `config`, one result per device, in lane order, against `cal`.
    /// Every Bode point of a sweep or a lot is formed here;
    /// [`NetworkAnalyzer::measure_point_calibrated`] is the one-slot
    /// reference each of them equals.
    ///
    /// Every (device, point) pair is a **slot**, and the task measures its
    /// slots in lockstep acquisitions ([`NetworkAnalyzer::acquire`]): one
    /// evaluator, and so one noise draw per block, for all of an
    /// acquisition's slots, and one stimulus for every slot that sees the
    /// same stream. Only the DUT simulations and modulator states run per
    /// slot. An acquisition mounts at most [`LANE_DEVICES`] device
    /// simulators, so the points go in batches of `⌊LANE_DEVICES / lane⌋`.
    ///
    /// While the task holds no calibration, its acquisition also mounts
    /// the identity device [`Bypass`] at 1 kHz as the last slot, and the
    /// task keeps the calibration read off it for every point, so only its
    /// first acquisition mounts one. That calibration is bit-identical to
    /// [`shared_calibration`](Self::shared_calibration): the identity
    /// slot sees the stimulus and noise a calibration of its own would. A
    /// given `cal` is checked once, before the first acquisition. The
    /// calibration used comes back too (`None` if the task measured
    /// nothing without one).
    fn lane_task<D, F>(
        factory: &F,
        lane: &[u64],
        points: &[Hertz],
        grid: &[Hertz],
        config: &AnalyzerConfig,
        mut cal: Option<Calibration>,
    ) -> (Option<Calibration>, Vec<Result<Vec<BodePoint>, NetanError>>)
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        let devices: Vec<Result<D, NetanError>> = lane
            .iter()
            .map(|&seed| Self::fabricate(factory, seed, grid))
            .collect();
        let mounted: Vec<&dyn Dut> = devices
            .iter()
            .filter_map(|d| d.as_ref().ok().map(|d| d as &dyn Dut))
            .collect();
        let mut measured: Vec<Vec<BodePoint>> = mounted
            .iter()
            .map(|_| Vec::with_capacity(points.len()))
            .collect();
        let batch = (LANE_DEVICES / mounted.len().max(1)).max(1);
        let given = cal.as_ref().map_or(Ok(()), Calibration::check_resolved);
        let outcome = given.and_then(|()| {
            points.chunks(batch).try_for_each(|batch| {
                // Slots are point-major: slot `p·mounted.len() + d` is
                // device `d` at point `p`. An identity slot comes last.
                let mut slots: Vec<(&dyn Dut, Hertz)> = batch
                    .iter()
                    .flat_map(|&f| mounted.iter().map(move |&dut| (dut, f)))
                    .collect();
                if cal.is_none() {
                    slots.push((&Bypass, CALIBRATION_FREQUENCY));
                }
                let mut outs = NetworkAnalyzer::acquire(config, 1, &slots)?;
                let batch_cal = match cal {
                    Some(cal) => cal,
                    None => {
                        let bypass = outs.pop().ok_or(NetanError::EmptySweep)?;
                        let read = Calibration::from_bypass(&bypass);
                        read.check_resolved()?;
                        *cal.insert(read)
                    }
                };
                for (s, (&(dut, f), out)) in slots.iter().zip(&outs).enumerate() {
                    let point = NetworkAnalyzer::bode_point(dut, batch_cal, f, out);
                    measured[s % mounted.len()].push(point);
                }
                Ok(())
            })
        });
        // Mounted devices took their points in lane order.
        let mut measured = measured.into_iter();
        let results = devices
            .into_iter()
            .map(|device| {
                device?;
                outcome?;
                Ok(measured.next().unwrap_or_default())
            })
            .collect();
        (cal, results)
    }

    /// Fabricates the device of `seed` and checks that it can be
    /// simulated over `grid` ([`check_nominal`]), so a pathological
    /// mismatch draw is refused cleanly before any simulation.
    fn fabricate<D, F>(factory: &F, seed: u64, grid: &[Hertz]) -> Result<D, NetanError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        let device = factory(seed);
        check_nominal(&device, grid).map_err(|_| NetanError::DeviceNotSimulable { seed })?;
        Ok(device)
    }
}

/// Most devices one lane task measures, and most DUT simulators one
/// acquisition mounts besides the identity device a calibration is read
/// off.
///
/// Sharing is per acquisition, so more slots save more, but with
/// diminishing returns: at 64 the shared work is already a small share
/// of a slot's cost. An acquisition holds one DUT simulator per (device,
/// point) slot, so a task measures its points in batches of
/// `⌊LANE_DEVICES / lane⌋`, and a large stage still splits into enough
/// lanes to keep every worker busy. A task given no calibration mounts
/// the identity device in its first acquisition, one simulator more.
pub const LANE_DEVICES: usize = 64;

/// `config` as a report records it: with the default `block_samples`,
/// which the lot schema leaves out, so a stage equals its parsed form.
fn recorded(config: AnalyzerConfig) -> AnalyzerConfig {
    config.with_block_samples(sdeval::DEFAULT_BLOCK_SAMPLES)
}

/// How a stage's fixed-grid measurement splits into pool tasks: `lanes`
/// contiguous device lanes times `groups` contiguous grid-point groups.
///
/// * Enough lanes of at most [`LANE_DEVICES`] devices to keep every
///   worker busy: each task is one lane over the whole grid, and the
///   lane count rounds up to a multiple of the worker count so the
///   workers finish together.
/// * Too few: the grid splits across the workers first, and the lanes
///   split only if the grid runs out of points. Either split repeats an
///   acquisition's shared work (the block's noise draws, and a stimulus
///   the slots share) in every task.
///
/// The split depends only on the device, point and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneLayout {
    lanes: usize,
    groups: usize,
}

impl LaneLayout {
    fn new(devices: usize, points: usize, workers: usize) -> Self {
        let lanes = devices.div_ceil(LANE_DEVICES);
        if lanes >= workers {
            return Self {
                lanes: lanes.next_multiple_of(workers).min(devices),
                groups: 1,
            };
        }
        let groups = workers.div_ceil(lanes).min(points).max(1);
        Self {
            lanes: workers.div_ceil(groups).clamp(lanes, devices),
            groups,
        }
    }
}

/// Part `part` of `0..len` cut into `parts` contiguous ranges whose
/// lengths differ by at most one.
fn split(len: usize, parts: usize, part: usize) -> Range<usize> {
    len * part / parts..len * (part + 1) / parts
}

impl Default for LotEngine {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::HardwareProfile;
    use dut::ActiveRcFilter;

    fn paper_factory(sigma: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync {
        move |seed| {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(sigma, seed)
        }
    }

    fn quick_config() -> AnalyzerConfig {
        AnalyzerConfig::ideal().with_periods(50)
    }

    #[test]
    fn engine_constructors_resolve() {
        assert_eq!(LotEngine::serial().threads(), 1);
        assert_eq!(LotEngine::with_threads(0).threads(), 1);
        assert_eq!(LotEngine::with_threads(6).threads(), 6);
        assert!(LotEngine::auto().threads() >= 1);
        assert_eq!(LotEngine::default(), LotEngine::auto());
    }

    #[test]
    fn lane_layout_splits_the_grid_before_the_lanes() {
        let layout = |devices, points, workers| {
            let l = LaneLayout::new(devices, points, workers);
            (l.lanes, l.groups)
        };
        // Enough lanes for every worker: whole-grid lanes, rounded up to a
        // multiple of the worker count.
        assert_eq!(layout(1200, 9, 2), (20, 1));
        assert_eq!(layout(130, 9, 2), (4, 1));
        assert_eq!(layout(2, 9, 1), (1, 1));
        assert_eq!(layout(65, 9, 1), (2, 1));
        // Too few: the grid splits first, then the lanes.
        assert_eq!(layout(24, 9, 2), (1, 2));
        assert_eq!(layout(3, 9, 8), (1, 8));
        assert_eq!(layout(100, 9, 8), (2, 4));
        assert_eq!(layout(5, 1, 8), (5, 1));
        assert_eq!(layout(1, 1, 8), (1, 1));
        // Balanced contiguous parts cover the range in order.
        let parts: Vec<Range<usize>> = (0..3).map(|p| split(10, 3, p)).collect();
        assert_eq!(parts, vec![0..3, 3..6, 6..10]);
    }

    #[test]
    fn plan_unions_grid_and_mask() {
        let mask = GainMask::paper_lowpass();
        let plan = LotPlan::new(&[Hertz(300.0), Hertz(1000.0), Hertz(300.0)], mask.clone());
        // 300 Hz deduplicated, 1 kHz merged with the mask's own 1 kHz.
        let values: Vec<f64> = plan.grid().iter().map(|f| f.value()).collect();
        assert_eq!(values, vec![200.0, 300.0, 500.0, 1000.0, 10_000.0]);
        assert_eq!(plan.mask(), &mask);
        let minimal = LotPlan::from_mask(GainMask::paper_lowpass());
        assert_eq!(minimal.grid().len(), 4);
    }

    #[test]
    fn empty_lot_and_empty_plan_rejected() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let engine = LotEngine::serial();
        assert_eq!(
            engine
                .run_range(paper_factory(0.0), 0..0, &plan, quick_config())
                .unwrap_err(),
            NetanError::EmptyLot
        );
        let empty_plan = LotPlan::from_mask(GainMask::new());
        assert_eq!(
            engine
                .run_range(paper_factory(0.0), 1..2, &empty_plan, quick_config())
                .unwrap_err(),
            NetanError::EmptySweep
        );
    }

    #[test]
    fn invalid_grid_frequency_rejected_before_simulation() {
        let plan = LotPlan::new(
            &[Hertz(-5.0)],
            GainMask::new().with_point(crate::spec::MaskPoint::new(Hertz(1000.0), -4.5, -1.5)),
        );
        let err = LotEngine::serial()
            .run_range(paper_factory(0.0), 0..2, &plan, quick_config())
            .unwrap_err();
        assert_eq!(err, NetanError::InvalidFrequency { hz_millis: -5000 });
    }

    #[test]
    fn nominal_lot_passes_and_fits() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let seeds = 0..3u64;
        let report = LotEngine::with_threads(3)
            .run_range(paper_factory(0.01), seeds.clone(), &plan, quick_config())
            .unwrap();
        assert_eq!(report.len(), 3);
        assert_eq!(report.counts().total(), 3);
        let (ylo, yhi) = report.yield_bounds().expect("non-empty lot has a yield");
        assert!(0.0 <= ylo && ylo <= yhi && yhi <= 1.0);
        // A plain run carries exactly one stage summary with the whole
        // lot tested at the configured M.
        assert_eq!(report.stages().len(), 1);
        let s0 = report.stages()[0];
        assert_eq!((s0.stage, s0.config, s0.tested), (0, quick_config(), 3));
        // 4-point minimal mask grid at M = 50: Σ 2·50/f per device.
        let expect: f64 = plan.grid().iter().map(|f| 2.0 * 50.0 / f.value()).sum();
        assert!((s0.device_time.value() - expect).abs() < 1e-12);
        assert_eq!(s0.counts, report.counts());
        assert!((report.spent().value() - s0.time.value()).abs() < 1e-12);
        assert_eq!(report.budget(), None);
        assert!(!report.budget_exhausted());
        for (d, seed) in report.devices().iter().zip(seeds) {
            assert_eq!(d.seed, seed);
            assert_eq!(d.plot.len(), plan.grid().len());
            assert_eq!(d.stage, 0);
            // The fitted summary must track the fabricated device.
            let device = paper_factory(0.01)(seed);
            let fit = d.fit.expect("low-pass fit");
            // M = 50 keeps the test fast at the price of wider stopband
            // estimate error, so this is a tracking check, not a
            // precision check (the analytic-fit tests in `sweep` cover
            // precision).
            let rel_f0 = (fit.f0.value() - device.f0().value()).abs() / device.f0().value();
            assert!(rel_f0 < 0.04, "seed {seed}: fit {fit:?} vs {}", device.f0());
            let rel_q = (fit.q - device.q()).abs() / device.q();
            assert!(rel_q < 0.15, "seed {seed}: fit {fit:?} vs Q {}", device.q());
        }
    }

    #[test]
    fn empty_report_has_no_yield_and_zero_counts() {
        // Regression (mirrors the `worst_gain_error_db` empty-plot fix):
        // a zero-device report must not claim a 0 % yield — it has none.
        let report = LotReport::new(GainMask::new(), Vec::new());
        assert!(report.is_empty());
        assert_eq!(report.yield_bounds(), None);
        let c = report.counts();
        assert_eq!(c.total(), 0);
        assert_eq!((c.pass, c.fail, c.ambiguous), (0, 0, 0));
        assert_eq!(report.spent(), Seconds(0.0));
        assert!(report.stages().is_empty());
    }

    #[test]
    fn schedule_constructors_and_stage_time() {
        let s = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200, 800]);
        assert_eq!(
            s.stages().iter().map(|c| c.periods).collect::<Vec<_>>(),
            vec![50, 200, 800]
        );
        assert_eq!(s.budget(), None);
        let b =
            EscalationSchedule::from_periods(quick_config(), &[50, 100]).with_budget(Seconds(30.0));
        assert_eq!(b.budget(), Some(Seconds(30.0)));
        // Stage time is Σ 2M/f over the grid, linear in M.
        let grid = [Hertz(500.0), Hertz(1000.0)];
        let t0 = b.device_stage_time(0, &grid);
        let t1 = b.device_stage_time(1, &grid);
        assert!((t0.value() - (2.0 * 50.0 / 500.0 + 2.0 * 50.0 / 1000.0)).abs() < 1e-12);
        assert!((t1.value() - 2.0 * t0.value()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_schedule_panics() {
        let _ = EscalationSchedule::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_escalating_schedule_panics() {
        let _ = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[100, 100]);
    }

    #[test]
    fn merge_empty_is_a_two_sided_identity() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let report = LotEngine::serial()
            .run_range(paper_factory(0.05), 0..3, &plan, quick_config())
            .unwrap();
        assert_eq!(LotReport::empty(&plan).merge(report.clone()), report);
        assert_eq!(report.clone().merge(LotReport::empty(&plan)), report);
        assert_eq!(
            LotReport::empty(&plan).merge(LotReport::empty(&plan)),
            LotReport::empty(&plan)
        );
    }

    #[test]
    fn merging_adjacent_shards_equals_the_monolithic_run() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let factory = paper_factory(0.05);
        let engine = LotEngine::serial();
        let whole = engine
            .run_range(&factory, 0..6, &plan, quick_config())
            .unwrap();
        let a = engine
            .run_range(&factory, 0..2, &plan, quick_config())
            .unwrap();
        let b = engine
            .run_range(&factory, 2..4, &plan, quick_config())
            .unwrap();
        let c = engine
            .run_range(&factory, 4..6, &plan, quick_config())
            .unwrap();
        let merged = a.clone().merge(b.clone()).merge(c.clone());
        assert_eq!(merged, whole);
        // Associativity: the other grouping lands on the same bits.
        assert_eq!(a.merge(b.merge(c)), whole);
        assert_eq!(whole.shard(), Some(0..6));
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn merging_non_adjacent_shards_panics() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let factory = paper_factory(0.05);
        let a = LotEngine::serial()
            .run_range(&factory, 0..2, &plan, quick_config())
            .unwrap();
        let c = LotEngine::serial()
            .run_range(&factory, 4..6, &plan, quick_config())
            .unwrap();
        let _ = a.merge(c);
    }

    #[test]
    fn stage_summaries_are_read_off_the_devices() {
        // Each stage charges every device that reached it once; a device
        // re-tested after stage `s` counts as ambiguous there.
        let device = |seed, verdict, stage| DeviceReport {
            seed,
            plot: BodePlot::new(Vec::new()),
            verdict,
            fit: None,
            stage,
        };
        let devices = vec![
            device(0, SpecVerdict::Pass, 1),
            device(1, SpecVerdict::Fail, 0),
            device(2, SpecVerdict::Ambiguous, 2),
        ];
        let at = |m| AnalyzerConfig::ideal().with_periods(m);
        let ran = vec![
            (at(50), Seconds(0.5)),
            (at(200), Seconds(2.0)),
            (at(800), Seconds(8.0)),
        ];
        let report = LotReport::new(GainMask::new(), devices.clone()).with_stages(ran.clone());
        let rows: Vec<_> = report
            .stages()
            .iter()
            .map(|s| {
                let c = s.counts;
                let m = s.config.periods;
                (m, s.tested, [c.pass, c.fail, c.ambiguous], s.time)
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                (50, 3, [0, 1, 2], Seconds(1.5)),
                (200, 2, [1, 1, 1], Seconds(4.0)),
                (800, 1, [1, 1, 1], Seconds(8.0)),
            ]
        );
        assert_eq!(report.stages()[1].device_time, Seconds(2.0));
        assert_eq!(report.spent(), Seconds(13.5));
        // A shard that stopped a stage early merges into the same report.
        let head =
            LotReport::new(GainMask::new(), devices[..2].to_vec()).with_stages(ran[..2].to_vec());
        let tail = LotReport::new(GainMask::new(), devices[2..].to_vec()).with_stages(ran);
        assert_eq!(head.merge(tail), report);
    }

    #[test]
    fn escalation_validates_before_simulating() {
        let schedule = EscalationSchedule::from_periods(quick_config(), &[50, 100]);
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let engine = LotEngine::serial();
        assert_eq!(
            engine
                .run_escalated_range(paper_factory(0.0), 0..0, &plan, &schedule)
                .unwrap_err(),
            NetanError::EmptyLot
        );
        // A budget below the screening pass is rejected up front with
        // the exact shortfall.
        let c0 = schedule.device_stage_time(0, plan.grid()).value();
        let starved = schedule.clone().with_budget(Seconds(c0 * 1.5));
        let err = engine
            .run_escalated_range(paper_factory(0.0), 0..2, &plan, &starved)
            .unwrap_err();
        match err {
            NetanError::BudgetExhausted {
                needed_ms,
                budget_ms,
            } => {
                assert_eq!(needed_ms, (2.0 * c0 * 1000.0).ceil() as u64);
                // Regression: `budget_ms` used to truncate while
                // `needed_ms` ceiled; both now round up the same way.
                assert_eq!(budget_ms, (1.5 * c0 * 1000.0).ceil() as u64);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn budget_error_rounds_both_sides_up() {
        // Regression for the inconsistent rounding at the error site: a
        // 0.9 ms budget used to report as 0 ms, and a budget a hair
        // under the need could display as needed > budget by a full
        // millisecond. Both sides now ceil.
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let schedule = EscalationSchedule::from_periods(quick_config(), &[50, 100])
            .with_budget(Seconds(0.0009));
        let err = LotEngine::serial()
            .run_escalated_range(paper_factory(0.0), 0..2, &plan, &schedule)
            .unwrap_err();
        match err {
            NetanError::BudgetExhausted {
                needed_ms,
                budget_ms,
            } => {
                assert_eq!(budget_ms, 1, "sub-millisecond budget must not report as 0");
                assert!(needed_ms >= budget_ms, "displayed pair must not invert");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // At the boundary — budget exactly the screening cost — the run
        // is admitted, not rejected, so no inverted display can occur.
        let c0 = schedule.device_stage_time(0, plan.grid());
        let exact = (0..2).fold(Seconds(0.0), |acc, _| acc + c0);
        let ok = LotEngine::serial()
            .run_escalated_range(
                paper_factory(0.0),
                0..2,
                &plan,
                &EscalationSchedule::from_periods(quick_config(), &[50, 100]).with_budget(exact),
            )
            .unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn grid_missing_a_mask_frequency_is_a_typed_error() {
        // Regression: a plan whose grid does not cover its mask used to
        // panic mid-lot at classification ("mask frequency measured by
        // construction"). `LotPlan::new` always unions the mask into the
        // grid, so build the broken plan directly, as a deserializer or
        // future constructor might: classification refuses it with a
        // typed error.
        let plan = LotPlan {
            grid: vec![Hertz(200.0), Hertz(500.0)],
            mask: GainMask::paper_lowpass(), // needs 1 kHz and 10 kHz too
        };
        let engine = LotEngine::serial();
        let expected = NetanError::MaskFrequencyMissing {
            hz_millis: 1_000_000,
        };
        assert_eq!(
            engine
                .run_range(paper_factory(0.0), 0..2, &plan, quick_config())
                .unwrap_err(),
            expected
        );
        // The escalated entry point rejects identically.
        assert_eq!(
            engine
                .run_escalated_range(
                    paper_factory(0.0),
                    0..2,
                    &plan,
                    &EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200, 800]),
                )
                .unwrap_err(),
            expected
        );
        // A well-formed plan over the same mask still runs.
        let ok = LotPlan::new(&[Hertz(200.0), Hertz(500.0)], GainMask::paper_lowpass());
        assert!(engine
            .run_range(paper_factory(0.0), 0..1, &ok, quick_config())
            .is_ok());
    }

    #[test]
    fn invalid_mask_point_is_rejected_before_any_device() {
        // `MaskPoint`'s fields are public, so a mask built through
        // `with_point` or `collect` can hold a point `MaskPoint::new`
        // would refuse. Against inverted or NaN limits every device
        // would read Fail or Ambiguous; the lot refuses the plan before
        // fabricating a device.
        let never = |seed: u64| -> ActiveRcFilter { panic!("device {seed} fabricated") };
        let at_1k = |min_db, max_db| crate::spec::MaskPoint {
            frequency: Hertz(1000.0),
            min_db,
            max_db,
        };
        let masks = [
            GainMask::new().with_point(at_1k(-1.5, -4.5)),
            [at_1k(f64::NAN, -1.5)].into_iter().collect(),
            GainMask::paper_lowpass().with_point(at_1k(-4.5, f64::NAN)),
        ];
        let schedule = EscalationSchedule::from_periods(quick_config(), &[50, 100]);
        let expected = NetanError::InvalidMaskPoint {
            hz_millis: 1_000_000,
        };
        for mask in masks {
            let plan = LotPlan::new(&[Hertz(500.0)], mask);
            let engine = LotEngine::serial();
            let plain = engine.run_range(never, 0..2, &plan, quick_config());
            assert_eq!(plain.unwrap_err(), expected);
            let escalated = engine.run_escalated_range(never, 0..2, &plan, &schedule);
            assert_eq!(escalated.unwrap_err(), expected);
        }
    }

    #[test]
    fn every_lane_task_calibrates_like_the_shared_calibration() {
        // Each lane task reads its calibration off the identity slot of
        // its first acquisition, at 1 kHz. It rides the one board of every
        // point whose stimulus settles completely: on ideal hardware every
        // point's, on 0.35 µm hardware the audio band's. A first
        // acquisition of 0.35 µm points that all lie past it (the
        // straddling grid's 50 and 62.5 kHz) gives the slot a board of its
        // own. Either way, at every worker count's split, it is the shared
        // calibration bit for bit, and each device's points are its own
        // points against that calibration. Lanes of 10 devices measure 6
        // points per acquisition, so the 8-point grids take two.
        let bits =
            |c: Calibration| [c.amplitude, c.phase].map(|b| [b.lo, b.est, b.hi].map(f64::to_bits));
        let factory = paper_factory(0.05);
        let seeds: Vec<u64> = (0..10).collect();
        let with_1k = [
            150.0, 300.0, 600.0, 1000.0, 2000.0, 4000.0, 8000.0, 16_000.0,
        ];
        let mut without_1k = with_1k;
        without_1k[3] = 1200.0;
        let straddling = [
            150.0, 600.0, 1200.0, 8000.0, 20_000.0, 40_000.0, 50_000.0, 62_500.0,
        ];
        for hardware in [AnalyzerConfig::ideal(), AnalyzerConfig::cmos_035um(3)] {
            let config = AnalyzerConfig {
                warmup_periods: 5,
                ..hardware.with_periods(8)
            };
            let settles = |f: Hertz| {
                let clk = mixsig::clock::MasterClock::for_stimulus(f);
                let generator = config.hardware.generator_config(clk, config.va_diff);
                generator.settles_completely()
            };
            let shared = LotEngine::shared_calibration(config).unwrap();
            // First acquisitions whose identity slot had a board of its
            // own, and those where it shared one with points.
            let mut first_acquisitions = [0; 2];
            for grid in [with_1k, without_1k, straddling] {
                let grid = grid.map(Hertz);
                let want: Vec<Vec<BodePoint>> = seeds
                    .iter()
                    .map(|&seed| {
                        let device = factory(seed);
                        let alone = NetworkAnalyzer::new(&device, config);
                        grid.iter()
                            .map(|&f| alone.measure_point_calibrated(shared, f).unwrap())
                            .collect()
                    })
                    .collect();
                for workers in [1, 2, 3, 5] {
                    let layout = LaneLayout::new(seeds.len(), grid.len(), workers);
                    for task in 0..layout.lanes * layout.groups {
                        let lane = split(seeds.len(), layout.lanes, task / layout.groups);
                        let points = split(grid.len(), layout.groups, task % layout.groups);
                        let first = &grid[points.start..points.end.min(points.start + 6)];
                        let shares = first.iter().any(|&f| settles(f));
                        first_acquisitions[usize::from(shares)] += 1;
                        let (cal, results) = LotEngine::lane_task(
                            &factory,
                            &seeds[lane.clone()],
                            &grid[points.clone()],
                            &grid,
                            &config,
                            None,
                        );
                        let at = format!("{config:?}, {workers} workers, task {task}");
                        assert_eq!(cal.map(bits), Some(bits(shared)), "{at}");
                        for (got, want) in results.into_iter().zip(&want[lane]) {
                            assert_eq!(got.unwrap(), want[points.clone()], "{at}");
                        }
                    }
                }
            }
            // On ideal hardware every point shares the slot's board; on
            // 0.35 µm hardware both placements ran.
            let placements = if config.hardware == HardwareProfile::Ideal {
                [0, 1]
            } else {
                [1, 1]
            };
            assert_eq!(
                first_acquisitions.map(|n| n.min(1)),
                placements,
                "{first_acquisitions:?}"
            );
            assert!(!settles(Hertz(40_000.0)) || config.hardware == HardwareProfile::Ideal);
        }
    }

    #[test]
    fn lane_points_match_each_devices_own_points() {
        // Lanes over several points, whose device groups cross point
        // boundaries: one board carries every slot whose stimulus settles
        // completely (on ideal hardware every slot), and on noisy
        // hardware each point past that keeps its own board, all under
        // one noise draw per block. Either way each (device, point) slot
        // is the device's own point. The grid runs to 200 kHz, past the
        // paper's 62.5 kHz, so on 0.35 µm hardware it straddles the
        // boundary, near 28 kHz: past it the stimulus leaves its 1 kHz
        // stream by up to about 1 mV, so a point fed another point's
        // stimulus shows in the odd devices, whose 300 kHz cut-off passes
        // it. A lane of 24 devices measures 2 points per acquisition, so
        // its second acquisition reuses the calibration of its first.
        let factory = |seed: u64| {
            let nominal = if seed.is_multiple_of(2) {
                ActiveRcFilter::paper_dut()
            } else {
                ActiveRcFilter::new(Hertz(300_000.0), 0.8, 1.0)
            };
            nominal.fabricate(0.05, seed)
        };
        for cfg in [
            AnalyzerConfig::ideal().with_periods(20),
            AnalyzerConfig::cmos_035um(7).with_periods(20),
        ] {
            let settles = |f: Hertz| {
                let clk = mixsig::clock::MasterClock::for_stimulus(f);
                let generator = cfg.hardware.generator_config(clk, cfg.va_diff);
                generator.settles_completely()
            };
            let cal = NetworkAnalyzer::new(&Bypass, cfg).calibrate().unwrap();
            for (lane_size, points) in [(3, 5), (1, 20), (24, 4)] {
                let lane: Vec<u64> = (0..lane_size).collect();
                let grid = crate::sweep::log_spaced(Hertz(150.0), Hertz(200_000.0), points);
                let shared = grid.iter().filter(|&&f| settles(f)).count();
                let ideal = cfg.hardware == HardwareProfile::Ideal;
                assert!(shared >= 2, "{cfg:?}: {grid:?}");
                assert_eq!(shared == grid.len(), ideal, "{cfg:?}: {grid:?}");
                let want: Vec<Vec<BodePoint>> = lane
                    .iter()
                    .map(|&seed| {
                        let device = factory(seed);
                        let alone = NetworkAnalyzer::new(&device, cfg);
                        grid.iter()
                            .map(|&f| alone.measure_point_calibrated(cal, f).unwrap())
                            .collect()
                    })
                    .collect();
                // Against a given calibration, and against the one read
                // off the task's own identity slot.
                for given in [Some(cal), None] {
                    let (used, results) =
                        LotEngine::lane_task(&factory, &lane, &grid, &grid, &cfg, given);
                    let at = format!("{cfg:?}: {lane_size} × {points}, {given:?}");
                    assert_eq!(used, Some(cal), "{at}");
                    let measured: Vec<Vec<BodePoint>> =
                        results.into_iter().map(Result::unwrap).collect();
                    assert_eq!(measured, want, "{at}");
                }
            }
        }
    }

    #[test]
    fn odd_periods_are_refused_before_any_device() {
        // A stage at a zero or odd M cannot be measured: the lot refuses
        // it with the evaluator's own error before fabricating a device
        // for it, plain or escalated, on any engine.
        let never = |seed: u64| -> ActiveRcFilter { panic!("device {seed} fabricated") };
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        for m in [0, 51] {
            let expected = NetanError::Eval(sdeval::EvalError::OddPeriods { m });
            let config = quick_config().with_periods(m);
            let schedule = EscalationSchedule::new(vec![config]);
            for engine in [LotEngine::serial(), LotEngine::with_threads(3)] {
                let plain = engine.run_range(never, 0..4, &plan, config);
                assert_eq!(plain.unwrap_err(), expected, "{engine:?}");
                let escalated = engine.run_escalated_range(never, 0..4, &plan, &schedule);
                assert_eq!(escalated.unwrap_err(), expected, "{engine:?}");
            }
        }
        // It wins over a lowest seed that cannot be simulated, which is
        // the lot's error at an even M.
        let nan_first = |seed: u64| {
            if seed == 0 {
                ActiveRcFilter::new(Hertz(f64::NAN), 0.7, 1.0)
            } else {
                paper_factory(0.0)(seed)
            }
        };
        let engine = LotEngine::with_threads(2);
        assert_eq!(
            engine
                .run_range(nan_first, 0..3, &plan, quick_config().with_periods(51))
                .unwrap_err(),
            NetanError::Eval(sdeval::EvalError::OddPeriods { m: 51 })
        );
        assert_eq!(
            engine
                .run_range(nan_first, 0..3, &plan, quick_config())
                .unwrap_err(),
            NetanError::DeviceNotSimulable { seed: 0 }
        );
        // A later stage at an odd M is refused when escalation reaches
        // it, before it fabricates a re-test: only stage 0 built devices,
        // one per seed on one serial lane.
        let built = std::sync::atomic::AtomicUsize::new(0);
        let counting = |seed: u64| {
            built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            paper_factory(0.09)(seed)
        };
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 121]);
        let err = LotEngine::serial()
            .run_escalated_range(counting, 0..8, &plan, &schedule)
            .unwrap_err();
        assert_eq!(
            err,
            NetanError::Eval(sdeval::EvalError::OddPeriods { m: 121 })
        );
        assert_eq!(built.into_inner(), 8);
    }

    #[test]
    fn unresolved_stimulus_is_a_typed_error() {
        // Regression: a calibration whose amplitude enclosure reaches zero
        // (no stimulus, or too small a stimulus for M) used to panic in
        // the gain's interval division.
        use mixsig::units::Volts;
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        for config in [
            quick_config().with_va_diff(Volts(0.0)),
            AnalyzerConfig::ideal()
                .with_periods(2)
                .with_va_diff(Volts(0.02)),
        ] {
            for engine in [LotEngine::serial(), LotEngine::with_threads(4)] {
                assert_eq!(
                    engine
                        .run_range(paper_factory(0.0), 0..3, &plan, config)
                        .unwrap_err(),
                    NetanError::UnresolvedStimulus,
                    "{config:?} on {engine:?}"
                );
            }
        }
    }

    #[test]
    fn sequential_stopping_matches_staged_verdicts_and_spends_less() {
        // Sequential stopping measures each re-test from scratch and
        // charges only the increment, so verdicts, stages and plots
        // bit-match the staged run while the charged spend is strictly
        // smaller whenever anything escalates.
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let staged = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120, 480]);
        let sequential = staged.clone().sequential();
        assert_eq!(sequential.stopping(), StoppingPolicy::Sequential);
        let engine = LotEngine::with_threads(3);
        let a = engine
            .run_escalated_range(paper_factory(0.09), 0..8, &plan, &staged)
            .unwrap();
        let b = engine
            .run_escalated_range(paper_factory(0.09), 0..8, &plan, &sequential)
            .unwrap();
        assert_eq!(b.stopping(), StoppingPolicy::Sequential);
        let escalated = a.stages().iter().skip(1).map(|s| s.tested).sum::<usize>();
        assert!(escalated > 0, "σ=9% at M=30 must leave someone ambiguous");
        // A device's cumulative charge: one per stage up to its own.
        let cumulative = |r: &LotReport, stage: usize| {
            r.stages()[..=stage]
                .iter()
                .fold(Seconds(0.0), |acc, s| acc + s.device_time)
        };
        for (da, db) in a.devices().iter().zip(b.devices()) {
            assert_eq!(da.verdict, db.verdict);
            assert_eq!(da.stage, db.stage);
            assert_eq!(da.plot, db.plot);
            let (ta, tb) = (cumulative(&a, da.stage), cumulative(&b, db.stage));
            if da.stage > 0 {
                // Sequential stopping charges only the increments:
                // cumulative spend equals the charge at the final M
                // alone, which is strictly below the staged re-insertion
                // total.
                assert!(tb.value() < ta.value());
            } else {
                assert_eq!(ta.value().to_bits(), tb.value().to_bits());
            }
        }
        // Both runs measured each stage at the same configuration.
        let configs = |r: &LotReport| r.stages().iter().map(|s| s.config).collect::<Vec<_>>();
        assert_eq!(configs(&a), configs(&b));
        assert!(b.spent().value() < a.spent().value());
        // Charged periods across a device's walk telescope to the final
        // stage's M.
        assert_eq!(sequential.charged_periods(0), 30);
        assert_eq!(sequential.charged_periods(1), 90);
        assert_eq!(sequential.charged_periods(2), 360);
        assert_eq!(staged.charged_periods(2), 480);
    }

    #[test]
    fn sequential_budget_admits_in_seed_order_and_overshoots_at_most_once() {
        // Observed-cost admission: re-tests are admitted while
        // `spent < budget`; the final admitted re-test may overshoot by
        // at most its own charge.
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let seeds = 0..8u64;
        let schedule =
            EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120]).sequential();
        let free = LotEngine::serial()
            .run_escalated_range(paper_factory(0.09), seeds.clone(), &plan, &schedule)
            .unwrap();
        let ambiguous0 = free.stages()[0].counts.ambiguous;
        assert!(ambiguous0 >= 2, "need at least two escalating devices");
        let c0 = schedule.device_stage_charge(0, plan.grid());
        let c1 = schedule.device_stage_charge(1, plan.grid());
        let screen = seeds.clone().fold(Seconds(0.0), |acc, _| acc + c0);
        // Budget covers screening plus half of one re-test: exactly one
        // re-test is admitted (spent < budget holds before it), and the
        // ledger overshoots by half a charge.
        let budget = Seconds(screen.value() + 0.5 * c1.value());
        let capped = LotEngine::serial()
            .run_escalated_range(
                paper_factory(0.09),
                seeds.clone(),
                &plan,
                &schedule.clone().with_budget(budget),
            )
            .unwrap();
        assert!(capped.budget_exhausted());
        assert_eq!(capped.stages().len(), 2);
        assert_eq!(capped.stages()[1].tested, 1);
        // The admitted re-test is the lowest-seed ambiguous device.
        let first_ambiguous = free.devices().iter().position(|d| d.stage > 0).unwrap();
        assert_eq!(capped.devices()[first_ambiguous].stage, 1);
        let spent = capped.spent().value();
        assert!(spent > budget.value(), "admitted re-test overshoots");
        assert!(
            spent <= budget.value() + c1.value(),
            "by at most one charge"
        );
        // Parallel admission replay lands on the same bytes.
        let parallel = LotEngine::with_threads(4)
            .run_escalated_range(
                paper_factory(0.09),
                seeds.clone(),
                &plan,
                &schedule.with_budget(budget),
            )
            .unwrap();
        assert_eq!(parallel, capped);
    }

    #[test]
    fn escalation_resolves_ambiguity_within_schedule() {
        // σ = 9 % parts at a fast M = 30 screen: some devices come back
        // ambiguous and must escalate; everything decided at stage 0
        // keeps its stage-0 provenance untouched.
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120]);
        let report = LotEngine::with_threads(3)
            .run_escalated_range(paper_factory(0.09), 0..6, &plan, &schedule)
            .unwrap();
        assert_eq!(report.len(), 6);
        let stage0 = report.stages()[0];
        assert_eq!(stage0.tested, 6);
        // Each stage records the configuration that measured it and its
        // per-device charge.
        let c0 = schedule.device_stage_time(0, plan.grid()).value();
        let c1 = schedule.device_stage_time(1, plan.grid()).value();
        assert_eq!(stage0.config, schedule.stages()[0]);
        assert!((stage0.device_time.value() - c0).abs() < 1e-12);
        for d in report.devices() {
            assert!(d.stage <= 1, "impossible stage {}", d.stage);
        }
        if report.stages().len() == 2 {
            let stage1 = report.stages()[1];
            assert_eq!(stage1.config, schedule.stages()[1]);
            assert!((stage1.device_time.value() - c1).abs() < 1e-12);
            assert_eq!(stage1.tested, stage0.counts.ambiguous);
            assert_eq!(stage1.counts, report.counts());
            // Re-tests only ever shrink the ambiguous bin.
            assert!(stage1.counts.ambiguous <= stage0.counts.ambiguous);
        }
        let expected_spent =
            6.0 * c0 + report.stages().get(1).map_or(0.0, |s| s.tested as f64 * c1);
        assert!((report.spent().value() - expected_spent).abs() < 1e-9);
    }
}
