//! Workload inputs generated from the `--seed` argument. The library
//! only ever sees what this module builds: device seed ranges, a plan,
//! a schedule and analyzer configurations.

use dut::ActiveRcFilter;
use mixsig::units::Hertz;
use netan::{log_spaced, AnalyzerConfig, EscalationSchedule, GainMask, LotPlan};
use netan_serve::{DutDescription, JobRequest};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScreenCmos,
    EscalateSeq,
    ServeTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScreenCmos,
        Workload::EscalateSeq,
        Workload::ServeTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScreenCmos => "screen_cmos",
            Workload::EscalateSeq => "escalate_seq",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Devices in the one `screen_cmos` lot.
pub const SCREEN_DEVICES: u64 = 24;
/// `escalate_seq` cycles through this many lots of `ESCALATE_DEVICES`.
pub const ESCALATE_LOTS: u64 = 1;
pub const ESCALATE_DEVICES: u64 = 1200;
/// `serve_tcp` cycles through this many jobs of `SERVE_JOB_DEVICES`
/// fresh devices, sharded `SERVE_SHARD_DEVICES` at a time.
pub const SERVE_JOBS: u64 = 192;
pub const SERVE_JOB_DEVICES: u64 = 8;
pub const SERVE_SHARD_DEVICES: u64 = 2;
/// Client connections and service workers of `serve_tcp`.
pub const SERVE_CONNECTIONS: usize = 2;
pub const SERVE_WORKERS: usize = 2;

/// SplitMix64: a fixed, well-mixed map from the workload seed to the
/// values inputs are drawn from.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-workload stream of seed-derived values.
struct Draws(u64);

impl Draws {
    fn new(workload: Workload, seed: u64) -> Self {
        let salt = match workload {
            Workload::ScreenCmos => 0x5C4E,
            Workload::EscalateSeq => 0xE5CA,
            Workload::ServeTcp => 0x5E4F,
        };
        Self(splitmix64(seed ^ splitmix64(salt)))
    }

    /// The next value below one billion: device seeds stay small enough
    /// to print and parse exactly.
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % 1_000_000_000
    }
}

/// The paper DUT family every workload fabricates: a linearized
/// active-RC low-pass with relative part tolerance `tolerance`.
pub fn fabricate(tolerance: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync + Copy {
    move |seed| {
        ActiveRcFilter::paper_dut()
            .linearized()
            .fabricate(tolerance, seed)
    }
}

/// `count` jobs over consecutive, disjoint seed ranges of `devices`
/// devices each, starting at `start`.
fn cycle(
    start: u64,
    count: u64,
    devices: u64,
    shard_devices: u64,
    tolerance: f64,
    plan: LotPlan,
    schedule: EscalationSchedule,
) -> Vec<JobRequest> {
    (0..count)
        .map(|k| {
            let first = start + k * devices;
            JobRequest {
                dut: DutDescription {
                    tolerance,
                    linearized: true,
                },
                seed_start: first,
                seed_end: first + devices,
                shard_devices,
                plan: plan.clone(),
                schedule: schedule.clone(),
            }
        })
        .collect()
}

/// The cycle of jobs a workload screens, again and again, in order. A
/// lot workload's job is one lot; its shard size (half the lot) is used
/// only when the traced run pushes the lot through the service.
pub fn inputs(workload: Workload, seed: u64) -> Vec<JobRequest> {
    let mut draws = Draws::new(workload, seed);
    let mask = GainMask::paper_lowpass();
    match workload {
        Workload::ScreenCmos => {
            let start = draws.next();
            let config = AnalyzerConfig::cmos_035um(draws.next()).with_periods(200);
            cycle(
                start,
                1,
                SCREEN_DEVICES,
                SCREEN_DEVICES / 2,
                0.05,
                LotPlan::from_mask(mask),
                EscalationSchedule::new(vec![config]),
            )
        }
        Workload::EscalateSeq => cycle(
            draws.next(),
            ESCALATE_LOTS,
            ESCALATE_DEVICES,
            ESCALATE_DEVICES / 2,
            0.09,
            LotPlan::from_mask(mask),
            EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200, 800]).sequential(),
        ),
        Workload::ServeTcp => {
            let grid = log_spaced(Hertz(100.0), Hertz(20_000.0), 16);
            cycle(
                draws.next(),
                SERVE_JOBS,
                SERVE_JOB_DEVICES,
                SERVE_SHARD_DEVICES,
                0.09,
                LotPlan::new(&grid, mask),
                EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200]),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for w in Workload::ALL {
            assert_eq!(inputs(w, 7), inputs(w, 7));
            assert_ne!(inputs(w, 7), inputs(w, 8));
        }
    }

    #[test]
    fn inputs_have_the_stated_shape() {
        let screen = inputs(Workload::ScreenCmos, 1);
        assert_eq!(screen.len(), 1);
        assert_eq!(screen[0].seed_end - screen[0].seed_start, SCREEN_DEVICES);
        assert_eq!(screen[0].schedule.stages().len(), 1);
        assert_eq!(screen[0].schedule.stages()[0].periods, 200);
        assert_eq!(screen[0].plan.grid().len(), 4);

        let esc = inputs(Workload::EscalateSeq, 1);
        assert_eq!(esc.len() as u64, ESCALATE_LOTS);
        assert_eq!(esc[0].seed_end - esc[0].seed_start, ESCALATE_DEVICES);
        assert_eq!(
            esc[0].schedule.stopping(),
            netan::StoppingPolicy::Sequential
        );
        assert_eq!(esc[0].schedule.budget(), None);

        let jobs = inputs(Workload::ServeTcp, 1);
        assert_eq!(jobs.len() as u64, SERVE_JOBS);
        assert_eq!(
            jobs[0].shard_count(),
            SERVE_JOB_DEVICES / SERVE_SHARD_DEVICES
        );
        for w in Workload::ALL {
            for pair in inputs(w, 3).windows(2) {
                assert_eq!(
                    pair[0].seed_end, pair[1].seed_start,
                    "disjoint, consecutive"
                );
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
