//! Sharded lot drives: the one shard driver, and checkpoint/resume on
//! top of it.
//!
//! [`ShardDriver`] is the only code that knows the sharding policy: the
//! seed-order spans, the schedule each shard runs under (a budget is
//! **global**: each shard gets `global − Σ observed spend` of the merged
//! prefix, read off [`LotReport::spent`], and the finished lot answers
//! for the global budget), the seed-order merge of shards that finish in
//! any order, and the checkpoint hook that loads a persisted shard or
//! runs and persists it. [`ShardDriver::drive`] runs a lot's shards one
//! after another; the `netan-serve` service runs the same driver's
//! shards on its worker pool.
//!
//! # Resume
//!
//! A restarted drive loads every shard whose `netan.lot.v5` document is
//! present, not stale, and re-renders from its parse byte for byte —
//! so one whose counts, yield, spend or stage tallies contradict its
//! devices is measured again, as is a missing, torn or stale one.
//! [`parse_lot_json`] reads only the schema [`lot_json`] writes, so a
//! shard document of any other schema version is measured again too.
//! A resumed lot therefore produces the **identical** final document an
//! uninterrupted one would have; loaded shards contribute their
//! persisted ledgers exactly like fresh ones, so every shard sees the
//! same remaining budget across kill-and-resume. Shard files are
//! written atomically (temp file + rename), so a crash mid-write leaves
//! at worst an ignorable temp file.
//!
//! A persisted shard is **stale** unless the drive's schedule could have
//! produced it: the same span, mask and stopping policy, every device's
//! points at exactly the plan's grid frequencies, bit for bit, exactly
//! the budget the shard runs under (none when unbudgeted), no more stages
//! than the schedule with its whole configuration at every index
//! (hardware and seed, amplitude, warm-up, `M`; not `block_samples`),
//! and — if it stopped before the last stage — no device left
//! ambiguous, or its budget spent. The DUT factory is opaque to the
//! library, so the caller names it: [`ShardDriver::with_dir`] takes the
//! factory's identity, and every shard file is named by its FNV-64
//! ([`fnv64`]), so a drive never loads a shard persisted for another
//! factory.

use crate::analyzer::BodePoint;
use crate::error::NetanError;
use crate::lot::{EscalationSchedule, LotEngine, LotPlan, LotReport};
use crate::report::{lot_json, parse_lot_json};
use dut::Dut;
use mixsig::units::{Hertz, Seconds};
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Error from a checkpointed lot drive.
///
/// Deliberately not `Copy`/`Eq`: it carries paths and
/// [`io::Error`] sources. Unreadable or unparseable shard files are
/// **not** errors — they are treated as absent and re-measured — so
/// this type only surfaces problems that genuinely stop the drive.
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint directory or a shard document could not be
    /// written.
    Io {
        /// The path being written when the failure occurred.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The lot itself failed (validation or a device error) — same
    /// semantics as the underlying engine run.
    Lot(NetanError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint i/o failed at {}: {source}", path.display())
            }
            CheckpointError::Lot(e) => write!(f, "lot run failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Lot(e) => Some(e),
        }
    }
}

impl From<NetanError> for CheckpointError {
    fn from(e: NetanError) -> Self {
        CheckpointError::Lot(e)
    }
}

/// The sharding policy of one lot (see the [module docs](self)).
/// [`task`](Self::task) hands out shards that run without the driver, so
/// a worker pool can run them while the driver records others.
#[derive(Debug, Clone)]
pub struct ShardDriver {
    lot: Range<u64>,
    shard_devices: u64,
    plan: LotPlan,
    schedule: EscalationSchedule,
    files: Option<ShardFiles>,
    /// The merged seed-order prefix `lot.start..next`.
    merged: LotReport,
    next: u64,
    /// Finished shards past the prefix, by first seed.
    ready: BTreeMap<u64, Shard>,
}

impl ShardDriver {
    /// A driver for `lot` in shards of `shard_devices` seeds (at least
    /// 1), measured against `plan` under `schedule`.
    ///
    /// # Errors
    ///
    /// [`NetanError::EmptyLot`] for an empty `lot`.
    pub fn new(
        lot: Range<u64>,
        shard_devices: u64,
        plan: &LotPlan,
        schedule: &EscalationSchedule,
    ) -> Result<Self, NetanError> {
        if lot.is_empty() {
            return Err(NetanError::EmptyLot);
        }
        Ok(Self {
            next: lot.start,
            lot,
            shard_devices,
            plan: plan.clone(),
            schedule: schedule.clone(),
            files: None,
            merged: LotReport::empty(plan),
            ready: BTreeMap::new(),
        })
    }

    /// Returns the driver resuming from, and persisting to, the shard
    /// documents under `dir` (created on first persist) of the DUT
    /// factory `dut`: a rendering of what the factory builds, e.g.
    /// netan-serve's `DutDescription`. The library cannot observe a
    /// factory, so each shard file is named by the [`fnv64`] of `dut`,
    /// and a drive never loads a shard persisted under another identity.
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>, dut: &str) -> Self {
        self.files = Some(ShardFiles {
            dir: dir.into(),
            dut_key: fnv64(dut),
        });
        self
    }

    /// The seed-order spans of `lot`, `shard_devices` seeds each (at
    /// least 1; the last may be shorter), produced lazily: the first
    /// spans of a huge range allocate nothing, and the last ends at
    /// `lot.end` without wrapping.
    pub fn spans(lot: Range<u64>, shard_devices: u64) -> impl Iterator<Item = Range<u64>> {
        let size = shard_devices.max(1);
        let mut start = lot.start;
        std::iter::from_fn(move || {
            (start < lot.end).then(|| {
                let span = start..lot.end.min(start.saturating_add(size));
                start = span.end;
                span
            })
        })
    }

    /// How many spans [`spans`](Self::spans) yields, without producing
    /// them.
    pub fn shard_count(lot: Range<u64>, shard_devices: u64) -> u64 {
        (lot.end.saturating_sub(lot.start)).div_ceil(shard_devices.max(1))
    }

    /// The first span the merged prefix has not reached, `None` once it
    /// covers the lot.
    pub fn next_span(&self) -> Option<Range<u64>> {
        Self::spans(self.next..self.lot.end, self.shard_devices).next()
    }

    /// The shard covering `span`, under the driver's schedule with its
    /// budget cut to what the merged prefix left over.
    pub fn task(&self, span: Range<u64>) -> ShardTask {
        let schedule = match self.schedule.budget() {
            Some(global) => self.schedule.clone().with_budget(Seconds(
                (global.value() - self.merged.spent().value()).max(0.0),
            )),
            None => self.schedule.clone(),
        };
        ShardTask {
            span,
            schedule,
            plan: self.plan.clone(),
            files: self.files.clone(),
        }
    }

    /// Buffers a finished shard and folds every shard that is now next
    /// in seed order into the merged prefix, calling
    /// `merged(self, span, loaded)` after each fold.
    pub fn record(&mut self, shard: Shard, mut merged: impl FnMut(&Self, Range<u64>, bool)) {
        self.ready.insert(shard.span.start, shard);
        while let Some(shard) = self.ready.remove(&self.next) {
            let prefix = std::mem::replace(&mut self.merged, LotReport::empty(&self.plan));
            self.merged = prefix.merge(shard.report);
            self.next = shard.span.end;
            merged(self, shard.span, shard.loaded);
        }
    }

    /// The merged seed-order prefix.
    pub fn merged(&self) -> &LotReport {
        &self.merged
    }

    /// How many shards the merged prefix holds.
    pub fn merged_shards(&self) -> u64 {
        Self::shard_count(self.lot.start..self.next, self.shard_devices)
    }

    /// The driven lot, answering for the global budget rather than the
    /// per-shard remainders.
    pub fn finish(self) -> LotReport {
        let exhausted = self.merged.budget_exhausted();
        self.merged.with_budget(self.schedule.budget(), exhausted)
    }

    /// Drives the lot one shard after another in seed order, loading
    /// every persisted shard the stale-shard rule accepts and measuring
    /// the rest with `engine.run_escalated_range`, then
    /// [`finish`](Self::finish)es. With [`with_dir`](Self::with_dir) the
    /// drive persists and resumes the shards of its DUT identity;
    /// without it, it runs in memory.
    ///
    /// Resume matches shards by their exact seed span, so a drive must
    /// keep the same `shard_devices` across restarts to reuse its
    /// documents — a mismatched split is re-measured, never mis-merged.
    /// A drive interrupted after `k` shards has left exactly the
    /// documents a drive over the lot's first `k` shards' seeds writes,
    /// under the same budgets: each shard's schedule depends only on the
    /// merged prefix before it. Resume-equality to an uninterrupted drive
    /// holds budgeted or not; byte-identity to a monolithic
    /// `run_escalated_range` holds for unbudgeted schedules, while a budgeted
    /// drive may admit a different re-test prefix than the monolithic
    /// global one (see the [sharding notes](crate::lot#sharding)).
    ///
    /// # Example
    ///
    /// ```
    /// use netan::{AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan, ShardDriver};
    /// use dut::ActiveRcFilter;
    ///
    /// let plan = LotPlan::from_mask(GainMask::paper_lowpass());
    /// let schedule = EscalationSchedule::new(vec![AnalyzerConfig::ideal().with_periods(50)]);
    /// let dir = std::env::temp_dir().join(format!("netan-ckpt-doc-{}", std::process::id()));
    /// let report = ShardDriver::new(0..4, 2, &plan, &schedule)?
    ///     .with_dir(&dir, "paper DUT, linearized, 2 % parts")
    ///     .drive(&LotEngine::serial(), |seed| {
    ///         ActiveRcFilter::paper_dut().linearized().fabricate(0.02, seed)
    ///     })?;
    /// assert_eq!(report.len(), 4);
    /// assert_eq!(report.shard(), Some(0..4));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), netan::CheckpointError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Every `run_escalated_range` error as [`CheckpointError::Lot`] — in
    /// particular [`NetanError::BudgetExhausted`] when the remaining
    /// global budget cannot cover a shard's screening pass — and
    /// [`CheckpointError::Io`] when a measured shard cannot be persisted.
    pub fn drive<D, F>(
        mut self,
        engine: &LotEngine,
        factory: F,
    ) -> Result<LotReport, CheckpointError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        while let Some(span) = self.next_span() {
            let shard = self.task(span).run(|span, schedule| {
                engine
                    .run_escalated_range(&factory, span, &self.plan, schedule)
                    .map_err(CheckpointError::from)
            })?;
            self.record(shard, |_, _, _| {});
        }
        Ok(self.finish())
    }
}

/// One shard of a driven lot: its span and the schedule it runs under.
#[derive(Debug, Clone)]
pub struct ShardTask {
    span: Range<u64>,
    schedule: EscalationSchedule,
    plan: LotPlan,
    files: Option<ShardFiles>,
}

impl ShardTask {
    /// Loads the shard from the checkpoint directory when its document
    /// re-renders byte for byte and is not stale; otherwise measures it
    /// with `run(span, schedule)` and persists it atomically.
    ///
    /// # Errors
    ///
    /// Whatever `run` returns, and [`CheckpointError::Io`] when the
    /// measured shard cannot be persisted.
    pub fn run<E: From<CheckpointError>>(
        self,
        run: impl FnOnce(Range<u64>, &EscalationSchedule) -> Result<LotReport, E>,
    ) -> Result<Shard, E> {
        let path = self.files.as_ref().map(|files| files.path(&self.span));
        let persisted = path
            .as_deref()
            .and_then(|path| std::fs::read_to_string(path).ok())
            .and_then(|text| {
                parse_lot_json(&text)
                    .ok()
                    .filter(|report| lot_json(report) == text.trim_end())
            })
            .filter(|report| self.could_have_produced(report));
        let loaded = persisted.is_some();
        let report = match persisted {
            Some(report) => report,
            None => run(self.span.clone(), &self.schedule)?,
        };
        if let (Some(ShardFiles { dir, .. }), Some(path), false) = (&self.files, &path, loaded) {
            let io_err = |path: &Path| {
                let path = path.to_path_buf();
                move |source| CheckpointError::Io { path, source }
            };
            std::fs::create_dir_all(dir).map_err(io_err(dir))?;
            let tmp = path.with_extension("json.tmp");
            std::fs::write(&tmp, format!("{}\n", lot_json(&report))).map_err(io_err(&tmp))?;
            std::fs::rename(&tmp, path).map_err(io_err(path))?;
        }
        Ok(Shard {
            span: self.span,
            report,
            loaded,
        })
    }

    /// The stale-shard rule: whether this task could have produced the
    /// persisted `report` (see the [module docs](self#resume)).
    fn could_have_produced(&self, report: &LotReport) -> bool {
        let (stages, ran) = (self.schedule.stages(), report.stages());
        let bits = |f: &Hertz| f.value().to_bits();
        let on_grid = |points: &[BodePoint]| {
            let grid = self.plan.grid().iter().map(bits);
            points.iter().map(|p| bits(&p.frequency)).eq(grid)
        };
        report.shard() == Some(self.span.clone())
            && report.mask() == self.plan.mask()
            && report.devices().iter().all(|d| on_grid(d.plot.points()))
            && report.stopping() == self.schedule.stopping()
            && report.budget() == self.schedule.budget()
            && ran.len() <= stages.len()
            && ran
                .iter()
                .zip(stages)
                .all(|(s, c)| s.config == c.with_block_samples(s.config.block_samples))
            && (ran.len() == stages.len()
                || report.counts().ambiguous == 0
                || report.budget_exhausted())
    }
}

/// A finished shard: its report, and whether it was loaded from the
/// checkpoint directory instead of measured.
#[derive(Debug, Clone)]
pub struct Shard {
    span: Range<u64>,
    report: LotReport,
    loaded: bool,
}

/// Where a drive persists its shards: a directory, and the key of the
/// DUT identity that names every shard file in it.
#[derive(Debug, Clone)]
struct ShardFiles {
    dir: PathBuf,
    dut_key: u64,
}

impl ShardFiles {
    /// The document of the shard covering `span`.
    fn path(&self, span: &Range<u64>) -> PathBuf {
        self.dir.join(format!(
            "shard-{:016x}-{:08}-{:08}.json",
            self.dut_key, span.start, span.end
        ))
    }
}

/// FNV-1a 64 of `text`: a content key that is stable across processes
/// and builds (unlike `DefaultHasher`), for naming persisted documents.
pub fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalyzerConfig;
    use crate::spec::GainMask;
    use dut::ActiveRcFilter;
    use mixsig::units::Volts;
    use std::sync::Mutex;

    fn factory(seed: u64) -> ActiveRcFilter {
        ActiveRcFilter::paper_dut()
            .linearized()
            .fabricate(0.05, seed)
    }

    fn plan() -> LotPlan {
        LotPlan::from_mask(GainMask::paper_lowpass())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("netan-ckpt-{tag}-{}", std::process::id()))
    }

    fn factory_at(sigma: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync + Copy {
        move |seed| {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(sigma, seed)
        }
    }

    fn one_stage() -> EscalationSchedule {
        EscalationSchedule::new(vec![AnalyzerConfig::ideal().with_periods(50)])
    }

    /// The DUT identity the tests' drives persist under.
    const DUT: &str = "paper DUT, linearized";

    /// The document of the shard covering `span` under `dir`, for
    /// [`DUT`].
    fn shard_path(dir: &Path, span: &Range<u64>) -> PathBuf {
        ShardFiles {
            dir: dir.to_path_buf(),
            dut_key: fnv64(DUT),
        }
        .path(span)
    }

    /// Drives `lot` in shards of `size` on the serial engine, persisting
    /// under `dir`.
    fn drive<D: Dut>(
        dir: &Path,
        size: u64,
        lot: Range<u64>,
        schedule: &EscalationSchedule,
        factory: impl Fn(u64) -> D + Sync,
    ) -> Result<LotReport, CheckpointError> {
        drive_plan(dir, size, lot, &plan(), schedule, factory)
    }

    /// [`drive`] against `plan`.
    fn drive_plan<D: Dut>(
        dir: &Path,
        size: u64,
        lot: Range<u64>,
        plan: &LotPlan,
        schedule: &EscalationSchedule,
        factory: impl Fn(u64) -> D + Sync,
    ) -> Result<LotReport, CheckpointError> {
        ShardDriver::new(lot, size, plan, schedule)?
            .with_dir(dir, DUT)
            .drive(&LotEngine::serial(), factory)
    }

    /// [`drive`] of [`factory`], with the seeds it fabricated in order.
    fn drive_logged(
        dir: &Path,
        size: u64,
        lot: Range<u64>,
        schedule: &EscalationSchedule,
    ) -> (LotReport, Vec<u64>) {
        let log = Mutex::new(Vec::new());
        let report = drive(dir, size, lot, schedule, |seed| {
            log.lock().unwrap().push(seed);
            factory(seed)
        })
        .unwrap();
        (report, log.into_inner().unwrap())
    }

    #[test]
    fn shard_paths_name_the_span() {
        assert_eq!(
            shard_path(Path::new("/tmp/x"), &(0..16)),
            Path::new(&format!(
                "/tmp/x/shard-{:016x}-00000000-00000016.json",
                fnv64(DUT)
            ))
        );
        // The FNV-1a reference vectors.
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn a_drive_never_loads_the_shards_of_another_dut() {
        // σ 1 % parts persisted, then a drive of σ 20 % parts on the same
        // directory: it measures its own shards, so it reads what the
        // in-memory σ 20 % drive reads — byte for byte — and not the
        // σ 1 % verdicts.
        let dir = temp_dir("identity");
        std::fs::remove_dir_all(&dir).ok();
        let lot = || ShardDriver::new(0..4, 2, &plan(), &one_stage()).unwrap();
        let tight = lot()
            .with_dir(&dir, "paper DUT, linearized, 1 % parts")
            .drive(&LotEngine::serial(), factory_at(0.01))
            .unwrap();
        let resumed = lot()
            .with_dir(&dir, "paper DUT, linearized, 20 % parts")
            .drive(&LotEngine::serial(), factory_at(0.20))
            .unwrap();
        let in_memory = lot().drive(&LotEngine::serial(), factory_at(0.20)).unwrap();
        assert_eq!(lot_json(&resumed), lot_json(&in_memory));
        // The premise: the two factories' lots read differently.
        assert_ne!(tight.counts(), in_memory.counts());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_lot_is_a_lot_error() {
        let err = drive(&temp_dir("empty"), 4, 3..3, &one_stage(), factory).unwrap_err();
        assert!(matches!(err, CheckpointError::Lot(NetanError::EmptyLot)));
        assert!(err.to_string().contains("lot run failed"));
    }

    #[test]
    fn drive_halt_and_resume_reproduce_the_uninterrupted_document() {
        let dir = temp_dir("resume");
        std::fs::remove_dir_all(&dir).ok();
        let plan = plan();
        let config = AnalyzerConfig::ideal().with_periods(50);
        let schedule = one_stage();

        // The uninterrupted reference: same lot, no checkpoint dir.
        let whole = LotEngine::serial()
            .run_range(factory, 0..6, &plan, config)
            .unwrap();

        // A drive halted after two shards has left the documents of a
        // drive over their seeds: 4 of 6 devices measured.
        let prefix = drive(&dir, 2, 0..4, &schedule, factory).unwrap();
        assert_eq!(prefix.len(), 4);

        // Resume: the two persisted shards load, only the third is
        // measured.
        let (resumed, fabricated) = drive_logged(&dir, 2, 0..6, &schedule);
        assert_eq!(lot_json(&resumed), lot_json(&whole));
        assert_eq!(fabricated, [4, 5]);

        // A second resume is a pure replay from disk — same bytes again,
        // and no device fabricated.
        let (replayed, fabricated) = drive_logged(&dir, 2, 0..6, &schedule);
        assert_eq!(lot_json(&replayed), lot_json(&whole));
        assert!(fabricated.is_empty(), "fabricated {fabricated:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_shard_document_is_re_measured() {
        let dir = temp_dir("torn");
        std::fs::remove_dir_all(&dir).ok();
        let schedule = one_stage();
        let whole = drive(&dir, 2, 0..4, &schedule, factory).unwrap();

        // Corrupt the first shard mid-document, as a crash during a
        // non-atomic write would have.
        let victim = shard_path(&dir, &(0..2));
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 2]).unwrap();

        let recovered = drive(&dir, 2, 0..4, &schedule, factory).unwrap();
        assert_eq!(lot_json(&recovered), lot_json(&whole));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_of_another_schema_version_is_measured_again() {
        // Regression: a reader that also accepted `netan.lot.v3` loaded
        // such a shard with empty per-device charges, and the resumed
        // document differed from the uninterrupted one.
        let dir = temp_dir("schema");
        std::fs::remove_dir_all(&dir).ok();
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200]);
        let factory = factory_at(0.09);
        let whole = drive(&dir, 4, 0..8, &schedule, factory).unwrap();
        assert!(whole.stages().len() > 1, "the lot must escalate");

        let victim = shard_path(&dir, &(0..4));
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, text.replacen("netan.lot.v5", "netan.lot.v4", 1)).unwrap();
        let resumed = drive(&dir, 4, 0..8, &schedule, factory).unwrap();
        assert_eq!(lot_json(&resumed), lot_json(&whole));
        let rewritten = std::fs::read_to_string(&victim).unwrap();
        assert!(rewritten.starts_with("{\"schema\":\"netan.lot.v5\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budgeted_drive_threads_the_global_budget_and_resumes_identically() {
        use crate::plan::grid_time;
        let plan = plan();
        let config = AnalyzerConfig::ideal().with_periods(50);
        // Budget: screening for all 6 devices plus roughly one re-test —
        // later shards must see what earlier shards left over.
        let c0 = grid_time(50, plan.grid());
        let c1 = grid_time(200, plan.grid());
        let budget = Seconds(6.0 * c0.value() + 1.5 * c1.value());
        let schedule = EscalationSchedule::from_periods(config, &[50, 200]).with_budget(budget);

        let dir_a = temp_dir("budget-a");
        std::fs::remove_dir_all(&dir_a).ok();
        let whole = drive(&dir_a, 2, 0..6, &schedule, factory).unwrap();
        // The merged lot answers for the global budget, not the sum of
        // the per-shard remainders.
        assert_eq!(whole.budget(), Some(budget));
        assert!(whole.spent().value() <= budget.value() + c1.value());
        // The same drive in memory: byte for byte.
        let in_memory = ShardDriver::new(0..6, 2, &plan, &schedule)
            .unwrap()
            .drive(&LotEngine::serial(), factory)
            .unwrap();
        assert_eq!(lot_json(&in_memory), lot_json(&whole));

        // Kill after one shard, then resume: the remaining budget is
        // recomputed from the persisted shard spends, so the resumed
        // drive reproduces the uninterrupted document exactly.
        let dir_b = temp_dir("budget-b");
        std::fs::remove_dir_all(&dir_b).ok();
        drive(&dir_b, 2, 0..2, &schedule, factory).unwrap();
        let (resumed, fabricated) = drive_logged(&dir_b, 2, 0..6, &schedule);
        assert_eq!(lot_json(&resumed), lot_json(&whole));
        assert!(fabricated.iter().all(|&seed| seed >= 2), "{fabricated:?}");
        // Every persisted shard carries exactly the remainder a replay
        // hands it, so a replay loads them all and fabricates nothing.
        let (replayed, fabricated) = drive_logged(&dir_b, 2, 0..6, &schedule);
        assert_eq!(lot_json(&replayed), lot_json(&whole));
        assert!(fabricated.is_empty(), "fabricated {fabricated:?}");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn shard_whose_counts_contradict_its_devices_is_measured_again() {
        // The reader recomputes the counts and never reads them, so an
        // edited document parses; it no longer re-renders to its own
        // bytes, so it is measured again and rewritten clean.
        let dir = temp_dir("edited");
        std::fs::remove_dir_all(&dir).ok();
        let schedule = one_stage();
        let whole = drive(&dir, 2, 0..4, &schedule, factory).unwrap();
        let victim = shard_path(&dir, &(0..2));
        let clean = std::fs::read_to_string(&victim).unwrap();
        let edited = clean.replacen("\"counts\":{\"pass\":", "\"counts\":{\"pass\":9", 1);
        assert_ne!(edited, clean);
        assert!(parse_lot_json(&edited).is_ok(), "the edit must still parse");
        std::fs::write(&victim, &edited).unwrap();

        let (resumed, fabricated) = drive_logged(&dir, 2, 0..4, &schedule);
        assert_eq!(lot_json(&resumed), lot_json(&whole));
        assert_eq!(fabricated, [0, 1]);
        assert_eq!(std::fs::read_to_string(&victim).unwrap(), clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_written_at_another_block_size_loads() {
        // `block_samples` never moves a byte, so the stage records leave
        // it out and the stale-shard rule sets it aside.
        let dir = temp_dir("block");
        std::fs::remove_dir_all(&dir).ok();
        let config = AnalyzerConfig::ideal().with_periods(50);
        let blocked = EscalationSchedule::new(vec![config.with_block_samples(7)]);
        drive(&dir, 2, 0..4, &blocked, factory).unwrap();

        let schedule = EscalationSchedule::new(vec![config]);
        let (resumed, fabricated) = drive_logged(&dir, 2, 0..4, &schedule);
        let in_memory = ShardDriver::new(0..4, 2, &plan(), &schedule)
            .unwrap()
            .drive(&LotEngine::serial(), factory)
            .unwrap();
        assert_eq!(lot_json(&resumed), lot_json(&in_memory));
        assert!(fabricated.is_empty(), "fabricated {fabricated:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_shards_are_measured_again_never_merged() {
        use crate::plan::grid_time;
        let plan = plan();
        let schedule =
            |periods: &[u32]| EscalationSchedule::from_periods(AnalyzerConfig::ideal(), periods);
        // Drives `lot` in shards of `size` under `before` against the
        // mask-only plan, deletes the shard `gone`, drives the same
        // directory again under `after` against `after_plan`, and demands
        // the bytes of that drive in a fresh directory.
        let case = |tag: &str,
                    sigma: f64,
                    size: u64,
                    before: &EscalationSchedule,
                    gone: Option<Range<u64>>,
                    (after_plan, after): (&LotPlan, &EscalationSchedule)| {
            let (dir, fresh_dir) = (temp_dir(tag), temp_dir(&format!("{tag}-fresh")));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&fresh_dir).ok();
            let factory = factory_at(sigma);
            let lot = 0..8;
            drive(&dir, size, lot.clone(), before, factory).unwrap();
            if let Some(span) = gone {
                std::fs::remove_file(shard_path(&dir, &span)).unwrap();
            }
            let resumed = drive_plan(&dir, size, lot.clone(), after_plan, after, factory).unwrap();
            let fresh = drive_plan(&fresh_dir, size, lot, after_plan, after, factory).unwrap();
            assert_eq!(lot_json(&resumed), lot_json(&fresh), "{tag}");
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&fresh_dir).ok();
            fresh
        };
        // Another M: every shard is stale, also next to a re-measured
        // one (two M at one stage must never meet in a merge).
        case(
            "stale-m",
            0.05,
            2,
            &schedule(&[50]),
            None,
            (&plan, &schedule(&[100])),
        );
        case(
            "stale-m-gap",
            0.05,
            2,
            &schedule(&[50]),
            Some(2..4),
            (&plan, &schedule(&[100])),
        );
        // Another stopping policy, next to a re-measured shard.
        case(
            "stale-stopping",
            0.09,
            4,
            &schedule(&[30, 120]),
            Some(4..8),
            (&plan, &schedule(&[30, 120]).sequential()),
        );
        // A one-stage drive left devices ambiguous: a deeper schedule
        // must re-test them instead of loading the shallow shards.
        let deeper = case(
            "stale-deeper",
            0.09,
            4,
            &schedule(&[30]),
            None,
            (&plan, &schedule(&[30, 120])),
        );
        assert!(deeper.stages().len() == 2 && deeper.stages()[1].tested > 0);
        // Another budget admits another re-test prefix.
        let (c0, c1) = (grid_time(30, plan.grid()), grid_time(120, plan.grid()));
        let budget = |retests: f64| Seconds(8.0 * c0.value() + retests * c1.value());
        let wider = case(
            "stale-budget",
            0.09,
            8,
            &schedule(&[30, 120]).with_budget(budget(1.5)),
            None,
            (&plan, &schedule(&[30, 120]).with_budget(budget(3.5))),
        );
        assert!(wider.stages()[1].tested > 2);
        // Another grid under the same mask: the mask-only plan's shards
        // hold other points, so every one is stale, also next to a
        // re-measured one (two grids must never meet in a merge).
        let grid = LotPlan::new(&[Hertz(2000.0), Hertz(3000.0)], GainMask::paper_lowpass());
        for (tag, gone) in [("stale-grid", None), ("stale-grid-gap", Some(2..4))] {
            let at_50 = schedule(&[50]);
            let fresh = case(tag, 0.05, 2, &at_50, gone, (&grid, &at_50));
            assert!(fresh.devices().iter().all(|d| d.plot.len() == 6), "{tag}");
        }
        // Another hardware profile, amplitude or warm-up at the same M:
        // the stage records say what measured them, so every shard is
        // stale and every seed is fabricated again.
        let base = AnalyzerConfig::ideal().with_periods(50);
        for (tag, other) in [
            (
                "stale-hardware",
                AnalyzerConfig::cmos_035um(7).with_periods(50),
            ),
            ("stale-amplitude", base.with_va_diff(Volts(0.05))),
            (
                "stale-warmup",
                AnalyzerConfig {
                    warmup_periods: 0,
                    ..base
                },
            ),
        ] {
            let (dir, fresh_dir) = (temp_dir(tag), temp_dir(&format!("{tag}-fresh")));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&fresh_dir).ok();
            let (before, after) = (
                EscalationSchedule::new(vec![base]),
                EscalationSchedule::new(vec![other]),
            );
            drive(&dir, 2, 0..4, &before, factory).unwrap();
            let (resumed, fabricated) = drive_logged(&dir, 2, 0..4, &after);
            let fresh = drive(&fresh_dir, 2, 0..4, &after, factory).unwrap();
            assert_eq!(lot_json(&resumed), lot_json(&fresh), "{tag}");
            assert_eq!(fabricated, [0, 1, 2, 3], "{tag}");
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&fresh_dir).ok();
        }
    }

    #[test]
    fn shards_finishing_in_any_order_merge_in_seed_order() {
        let plan = plan();
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120]);
        let engine = LotEngine::serial();
        let factory = factory_at(0.09);
        let monolith = engine
            .run_escalated_range(factory, 0..8, &plan, &schedule)
            .unwrap();
        assert!(monolith.stages().len() > 1, "the lot must escalate");
        let driver = ShardDriver::new(0..8, 2, &plan, &schedule).unwrap();
        let shards: Vec<Shard> = ShardDriver::spans(0..8, 2)
            .map(|span| {
                driver
                    .task(span)
                    .run(|span, schedule| {
                        engine
                            .run_escalated_range(factory, span, &plan, schedule)
                            .map_err(CheckpointError::from)
                    })
                    .unwrap()
            })
            .collect();

        let orders: Vec<[usize; 4]> = (0..256usize)
            .map(|n| [n % 4, n / 4 % 4, n / 16 % 4, n / 64])
            .filter(|order| (0..4).all(|k| order.contains(&k)))
            .collect();
        assert_eq!(orders.len(), 24);
        for order in orders {
            let mut driver = ShardDriver::new(0..8, 2, &plan, &schedule).unwrap();
            let mut merges = Vec::new();
            for k in order {
                assert!(driver.next_span().is_some());
                driver.record(shards[k].clone(), |driver, span, loaded| {
                    assert!(!loaded);
                    merges.push((span, driver.merged_shards()));
                });
            }
            assert_eq!(driver.next_span(), None, "{order:?}");
            assert_eq!(
                merges,
                vec![(0..2, 1), (2..4, 2), (4..6, 3), (6..8, 4)],
                "{order:?}"
            );
            assert_eq!(lot_json(&driver.finish()), lot_json(&monolith), "{order:?}");
        }
    }
}
