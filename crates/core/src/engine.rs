//! The sweep engine: schedules Bode-sweep points across worker threads.
//!
//! Every sweep point is an independent simulation — its own master-clock
//! setting, generator, DUT instance and evaluator — so a frequency sweep
//! is embarrassingly parallel. [`SweepEngine`] fans the points of a batch
//! out across [`std::thread::scope`] workers (plain std, no external
//! thread-pool dependency) while guaranteeing:
//!
//! * **deterministic ordering** — results come back in the order of the
//!   requested frequencies, never in completion order;
//! * **bit-identical results** — each point's simulation is deterministic
//!   (all noise sources are seeded), so a parallel sweep produces exactly
//!   the bytes the serial sweep produces;
//! * **deterministic errors** — on failure the lowest-index error is
//!   reported, as a serial in-order run would report it.
//!
//! Workers pull point indices from a shared atomic counter (work
//! stealing), so an expensive point — a slow-settling DUT, a high-`M`
//! profile — does not stall the points behind it. The sizing rule and the
//! work-stealing loop itself live in [`crate::pool`], shared with the
//! lot-level [`LotEngine`](crate::LotEngine).

use crate::analyzer::{BodePoint, Calibration, NetworkAnalyzer};
use crate::error::NetanError;
use crate::pool;
use mixsig::units::Hertz;

/// Schedules batched Bode-point measurements over a worker pool.
///
/// # Example
///
/// ```
/// use netan::{AnalyzerConfig, NetworkAnalyzer, SweepEngine};
/// use dut::ActiveRcFilter;
/// use mixsig::units::Hertz;
///
/// let dut = ActiveRcFilter::paper_dut().linearized();
/// let mut analyzer = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal());
/// let grid = [Hertz(500.0), Hertz(1000.0), Hertz(2000.0)];
/// let plot = analyzer.sweep_with(&SweepEngine::auto(), &grid)?;
/// assert_eq!(plot.len(), 3);
/// # Ok::<(), netan::NetanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepEngine {
    threads: usize,
}

impl SweepEngine {
    /// An engine that measures every point on the calling thread, in
    /// order — the fallback path, and the reference for bit-identity.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// An engine sized to the machine's available parallelism (1 if that
    /// cannot be determined). The pool is sized once per process (see
    /// [`pool::auto_threads`]): a CPU quota changed later is not seen.
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

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Measures `frequencies` against `cal`, returning points in request
    /// order. A pool never spawns more workers than points; a single
    /// worker degenerates to the serial path without spawning at all.
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::EmptySweep`] for an empty batch; otherwise
    /// every point is attempted and the lowest-index error is returned.
    pub fn measure(
        &self,
        analyzer: &NetworkAnalyzer<'_>,
        cal: Calibration,
        frequencies: &[Hertz],
    ) -> Result<Vec<BodePoint>, NetanError> {
        if frequencies.is_empty() {
            return Err(NetanError::EmptySweep);
        }
        // Every outcome is buffered before one is surfaced, so serial and
        // parallel schedules honour the same attempt-all /
        // lowest-index-error contract.
        pool::map_indexed(self.threads, frequencies.len(), |i| {
            analyzer.measure_point_calibrated(cal, frequencies[i])
        })
        .into_iter()
        .collect()
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalyzerConfig;
    use crate::sweep::log_spaced;
    use dut::ActiveRcFilter;

    #[test]
    fn worker_counts_resolve() {
        assert_eq!(SweepEngine::serial().threads(), 1);
        assert_eq!(SweepEngine::with_threads(0).threads(), 1);
        assert_eq!(SweepEngine::with_threads(6).threads(), 6);
        assert!(SweepEngine::auto().threads() >= 1);
        assert_eq!(SweepEngine::default(), SweepEngine::auto());
    }

    #[test]
    fn parallel_matches_serial_bit_identically() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let grid = log_spaced(Hertz(100.0), Hertz(20_000.0), 9);
        let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal());
        let serial = na.sweep_with(&SweepEngine::serial(), &grid).unwrap();
        let parallel = na.sweep_with(&SweepEngine::with_threads(4), &grid).unwrap();
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
        let serial = na.sweep_with(&SweepEngine::serial(), &grid).unwrap();
        let parallel = na.sweep_with(&SweepEngine::with_threads(3), &grid).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_workers_than_points_is_fine() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let grid = [Hertz(800.0), Hertz(1200.0)];
        let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal());
        let plot = na
            .sweep_with(&SweepEngine::with_threads(16), &grid)
            .unwrap();
        assert_eq!(plot.len(), 2);
        assert!(plot.points()[0].frequency.value() < plot.points()[1].frequency.value());
    }

    #[test]
    fn lowest_index_error_wins() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal());
        let cal = na.calibrate().unwrap();
        let grid = [Hertz(1000.0), Hertz(-3.0), Hertz(2000.0), Hertz(-7.0)];
        let expected = NetanError::InvalidFrequency { hz_millis: -3000 };
        // Batched API: rejected during up-front validation.
        let err = na
            .measure_points(&grid, &SweepEngine::with_threads(4))
            .unwrap_err();
        assert_eq!(err, expected);
        // Engine paths (validation bypassed): serial and parallel both
        // attempt every point and report the lowest-index error.
        for engine in [SweepEngine::serial(), SweepEngine::with_threads(4)] {
            assert_eq!(engine.measure(&na, cal, &grid).unwrap_err(), expected);
        }
    }

    #[test]
    fn invalid_frequency_rejected_before_calibration() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal());
        let err = na
            .measure_points(&[Hertz(1000.0), Hertz(0.0)], &SweepEngine::auto())
            .unwrap_err();
        assert_eq!(err, NetanError::InvalidFrequency { hz_millis: 0 });
        // No simulation work was spent on the bad batch.
        assert!(na.calibration().is_none());
    }

    #[test]
    fn empty_batch_rejected() {
        let dut = ActiveRcFilter::paper_dut();
        let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal());
        assert_eq!(
            na.measure_points(&[], &SweepEngine::auto()).unwrap_err(),
            NetanError::EmptySweep
        );
    }

    #[test]
    fn batched_api_calibrates_lazily_once() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = NetworkAnalyzer::new(&dut, AnalyzerConfig::ideal());
        assert!(na.calibration().is_none());
        let points = na
            .measure_points(&[Hertz(1000.0)], &SweepEngine::serial())
            .unwrap();
        assert_eq!(points.len(), 1);
        assert!(na.calibration().is_some());
    }
}
