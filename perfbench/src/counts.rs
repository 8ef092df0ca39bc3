//! Deterministic work counts read off lot reports. They are pure
//! functions of the inputs, so the benchmark requires them to repeat
//! exactly across repetitions and between traced and untraced passes.

use netan::{LotReport, SpecVerdict};
use std::ops::Range;

/// FNV-1a digest of a rendered report.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub devices: u64,
    /// Sum of the reports' simulated test time (`LotReport::spent`).
    pub spent_s: f64,
    pub ambiguous: u64,
    /// Devices measured at each stage (stage 0 is the whole lot).
    pub tested: Vec<u64>,
    /// Re-tests whose stage ended with a decided verdict.
    pub retests_decided: u64,
    /// Stimulus calibrations the engine performs: one per executed
    /// stage of every engine call (a shard is one call).
    pub calibrations: u64,
    /// Measured points whose gain enclosure excludes the device's own
    /// analytic gain.
    pub enclosure_misses: u64,
    pub points: u64,
    /// Bytes of the rendered reports (`lot_json`), the payload of a
    /// result frame.
    pub report_bytes: u64,
}

impl Counts {
    /// The counts of `report`, produced by one engine call per seed
    /// range of `calls`.
    pub fn of(report: &LotReport, json: &str, calls: &[Range<u64>]) -> Self {
        let devices = report.devices();
        let depth = devices.iter().map(|d| d.stage + 1).max().unwrap_or(0);
        let tested = (0..depth)
            .map(|s| devices.iter().filter(|d| d.stage >= s).count() as u64)
            .collect();
        let calibrations = calls
            .iter()
            .map(|call| {
                let deepest = devices
                    .iter()
                    .filter(|d| call.contains(&d.seed))
                    .map(|d| d.stage)
                    .max();
                deepest.map_or(0, |s| s as u64 + 1)
            })
            .sum();
        let points = devices.iter().flat_map(|d| d.plot.points());
        Self {
            devices: devices.len() as u64,
            spent_s: report.spent().value(),
            ambiguous: report.counts().ambiguous as u64,
            tested,
            retests_decided: devices
                .iter()
                .filter(|d| d.stage > 0 && d.verdict != SpecVerdict::Ambiguous)
                .count() as u64,
            calibrations,
            enclosure_misses: points
                .clone()
                .filter(|p| !p.gain_db.contains(p.ideal_gain_db))
                .count() as u64,
            points: points.count() as u64,
            report_bytes: json.len() as u64,
        }
    }

    /// Accumulates the counts of another, disjoint set of devices.
    pub fn add(&mut self, other: &Counts) {
        self.devices += other.devices;
        self.spent_s += other.spent_s;
        self.ambiguous += other.ambiguous;
        if self.tested.len() < other.tested.len() {
            self.tested.resize(other.tested.len(), 0);
        }
        for (a, b) in self.tested.iter_mut().zip(&other.tested) {
            *a += b;
        }
        self.retests_decided += other.retests_decided;
        self.calibrations += other.calibrations;
        self.enclosure_misses += other.enclosure_misses;
        self.points += other.points;
        self.report_bytes += other.report_bytes;
    }

    /// Re-tests admitted across every stage past the screening pass.
    pub fn retests(&self) -> u64 {
        self.tested.iter().skip(1).sum()
    }

    pub fn per_device(&self, value: f64) -> f64 {
        value / self.devices.max(1) as f64
    }

    /// One line for the log, so two runs can be diffed.
    pub fn render(&self) -> String {
        format!(
            "devices={} spent_s={} ambiguous={} tested_per_stage={:?} retests_decided={} \
             calibrations={} points={} enclosure_misses={} report_bytes={}",
            self.devices,
            self.spent_s,
            self.ambiguous,
            self.tested,
            self.retests_decided,
            self.calibrations,
            self.points,
            self.enclosure_misses,
            self.report_bytes
        )
    }
}
