//! Enclosure-driven adaptive sweep refinement.
//!
//! A fixed log grid spends measurement points uniformly in log-frequency,
//! but the information content of a frequency response is anything but
//! uniform: a high-Q biquad packs its whole personality into a
//! fraction-of-an-octave resonance knee, and even the paper's Butterworth
//! DUT bends hard only around the −3 dB shoulder.
//! [`NetworkAnalyzer::sweep_adaptive_with`] reuses what the paper's signature
//! DSP already guarantees — a hard enclosure on every gain/phase
//! estimate — as the refinement signal:
//!
//! 1. measure a coarse **seed grid** (every seed point is kept, so the
//!    refined grid is always a superset of the seed grid);
//! 2. **score** each adjacent interval by the local gain/phase bend (how
//!    far the middle of each neighbouring point triple deviates from the
//!    chord through its neighbours, in dB) and by the gain-enclosure
//!    width of its endpoints;
//! 3. **bisect** the worst intervals at their log-frequency midpoint and
//!    measure the new points as one batch through the [`LotEngine`]
//!    lane tasks the fixed sweep runs, against the seed round's
//!    calibration — candidates are ordered deterministically before
//!    dispatch, so a parallel refinement is bit-identical to the serial
//!    one;
//! 4. repeat rounds until the [`RefinementPolicy`] is met or its caps
//!    (total points, a fixed 1/64-octave minimum spacing, round count)
//!    stop it.
//!
//! The enclosure enters the score twice, with opposite signs:
//!
//! * as a **floor**: a bend smaller than half the endpoint enclosure
//!   width is buried inside the guaranteed error band — more points
//!   cannot resolve it (only a larger `M` can), so the interval is left
//!   alone. This is what keeps refinement out of the deep stopband,
//!   where the band is wide and the response is featureless.
//! * as a **priority**: among intervals whose bend *is* resolvable, the
//!   one whose worst-case band is wider refines first — the
//!   uncertain-volatility heuristic (spend resolution where the
//!   guaranteed band is widest) from the Asian-option pricing literature
//!   this reproduction descends from.
//!
//! Every point measured in round `r ≥ 1` carries `r` in
//! [`BodePoint::round`]; seed points carry 0. The provenance survives
//! into `netan.bode.v2` JSON documents.

use crate::analyzer::{BodePoint, NetworkAnalyzer};
use crate::error::NetanError;
use crate::lot::LotEngine;
use crate::sweep::{unwrap_phase_by_continuity, BodePlot};
use dut::Dut;
use mixsig::units::Hertz;

/// Exchange rate between phase and gain bends: this many degrees of
/// phase deviation score like one dB of gain deviation.
const PHASE_DEG_PER_DB: f64 = 15.0;

/// Minimum spacing between adjacent points, octaves: an interval is only
/// bisected while both halves stay at least this wide.
const MIN_OCTAVE_SPACING: f64 = 1.0 / 64.0;

/// Stopping and spacing rules for an adaptive sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementPolicy {
    /// Target reconstruction band, dB: an interval is refined while its
    /// local bend (the curvature proxy described in the
    /// [module docs](self)) exceeds this *and* exceeds the measurement
    /// floor set by the endpoint gain enclosures.
    pub target_width_db: f64,
    /// Hard cap on the total number of measured points (seed included).
    pub max_points: usize,
    /// Cap on refinement rounds.
    pub max_rounds: u32,
}

impl RefinementPolicy {
    /// A policy targeting the given reconstruction band with the default
    /// caps (64 points, 1/64-octave minimum spacing, 8 rounds).
    pub fn new(target_width_db: f64) -> Self {
        Self {
            target_width_db,
            ..Self::default()
        }
    }

    /// Returns the policy with a different total-point cap.
    #[must_use]
    pub fn with_max_points(mut self, max_points: usize) -> Self {
        self.max_points = max_points;
        self
    }

    /// Returns the policy with a different round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: u32) -> Self {
        self.max_rounds = rounds;
        self
    }
}

impl Default for RefinementPolicy {
    fn default() -> Self {
        Self {
            target_width_db: 0.5,
            max_points: 64,
            max_rounds: 8,
        }
    }
}

/// Measures the validated `seed` (sorted ascending, duplicates merged)
/// through `engine`, then refines until `policy` is met, returning the
/// phase-unwrapped plot. Seed points carry [`BodePoint::round`] 0;
/// points added in round `r` carry `r`.
pub(crate) fn sweep(
    analyzer: &mut NetworkAnalyzer<'_>,
    seed: &[Hertz],
    policy: &RefinementPolicy,
    engine: &LotEngine,
) -> Result<BodePlot, NetanError> {
    let mut grid: Vec<Hertz> = seed.to_vec();
    grid.sort_by(|a, b| a.value().total_cmp(&b.value()));
    grid.dedup_by_key(|f| f.value().to_bits());

    let mut points = analyzer.measure_points(engine, &grid)?;
    let mut round = 0u32;
    while round < policy.max_rounds && points.len() < policy.max_points {
        round += 1;
        let candidates = plan_candidates(&points, policy);
        if candidates.is_empty() {
            break;
        }
        let mut fresh = analyzer.measure_points(engine, &candidates)?;
        for p in &mut fresh {
            p.round = round;
        }
        points.extend(fresh);
        points.sort_by(|a, b| a.frequency.value().total_cmp(&b.frequency.value()));
    }
    unwrap_phase_by_continuity(&mut points);
    Ok(BodePlot::new(points))
}

/// The next round's bisection frequencies, ascending: every refinable
/// interval's log-midpoint, worst score first under the point budget.
fn plan_candidates(points: &[BodePoint], policy: &RefinementPolicy) -> Vec<Hertz> {
    let budget = policy.max_points.saturating_sub(points.len());
    if budget == 0 || points.len() < 2 {
        return Vec::new();
    }
    // Score on a phase-unwrapped scratch copy: wrapped ±180° jumps would
    // read as enormous fake bends. The scratch is derived from the
    // ordered measured values only, so it is engine-independent.
    let mut scratch = points.to_vec();
    unwrap_phase_by_continuity(&mut scratch);

    let mut ranked: Vec<(f64, usize)> = Vec::new();
    for i in 0..scratch.len() - 1 {
        let spacing_oct = (scratch[i + 1].frequency.value() / scratch[i].frequency.value()).log2();
        // Both halves of a bisected interval must stay ≥ the minimum
        // spacing.
        if spacing_oct < 2.0 * MIN_OCTAVE_SPACING {
            continue;
        }
        let bend = interval_bend_db(&scratch, i);
        let (wa, wb) = (scratch[i].gain_db.width(), scratch[i + 1].gain_db.width());
        // Floor: a bend inside the guaranteed band is unresolvable by
        // more points; only a larger M could see it. A NaN bend (dead
        // measurements) never qualifies either.
        let floor = 0.5 * wa.max(wb);
        if bend.partial_cmp(&policy.target_width_db.max(floor)) != Some(std::cmp::Ordering::Greater)
        {
            continue;
        }
        // Priority: resolvable bends tie-break toward the wider
        // worst-case band.
        ranked.push((bend + 0.25 * (wa + wb), i));
    }
    // Worst interval first; equal scores resolve by index, keeping the
    // plan deterministic.
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.truncate(budget);

    let mut candidates: Vec<Hertz> = ranked
        .iter()
        .map(|&(_, i)| {
            let (la, lb) = (
                points[i].frequency.value().ln(),
                points[i + 1].frequency.value().ln(),
            );
            Hertz((0.5 * (la + lb)).exp())
        })
        // A midpoint that collides bitwise with an endpoint (possible only
        // at sub-ulp spacings) would measure a duplicate; drop it.
        .filter(|f| {
            points
                .iter()
                .all(|p| p.frequency.value().to_bits() != f.value().to_bits())
        })
        .collect();
    candidates.sort_by(|a, b| a.value().total_cmp(&b.value()));
    candidates.dedup_by_key(|f| f.value().to_bits());
    candidates
}

/// The bend of interval `i` (between points `i` and `i + 1`), in dB
/// equivalents: the worst deviation of either endpoint from the chord
/// through its own neighbours, combining gain (dB) and phase (degrees,
/// via [`PHASE_DEG_PER_DB`]). For a two-point plot no triple exists, so a
/// quarter of the segment swing stands in — a segment with a large swing
/// may hide curvature anywhere inside it.
fn interval_bend_db(points: &[BodePoint], i: usize) -> f64 {
    let n = points.len();
    let dev = |j: usize| -> f64 {
        let (a, b, c) = (&points[j - 1], &points[j], &points[j + 1]);
        let (la, lb, lc) = (
            a.frequency.value().ln(),
            b.frequency.value().ln(),
            c.frequency.value().ln(),
        );
        let t = (lb - la) / (lc - la);
        let g_chord = a.gain_db.est + t * (c.gain_db.est - a.gain_db.est);
        let p_chord = a.phase_deg.est + t * (c.phase_deg.est - a.phase_deg.est);
        (b.gain_db.est - g_chord).abs() + (b.phase_deg.est - p_chord).abs() / PHASE_DEG_PER_DB
    };
    if n == 2 {
        let dg = (points[1].gain_db.est - points[0].gain_db.est).abs();
        let dp = (points[1].phase_deg.est - points[0].phase_deg.est).abs();
        return 0.25 * (dg + dp / PHASE_DEG_PER_DB);
    }
    let left = if i >= 1 { dev(i) } else { 0.0 };
    let right = if i + 2 < n { dev(i + 1) } else { 0.0 };
    left.max(right)
}

/// Piecewise log-linear interpolation of the measured gain estimates at
/// `f`. `None` outside the measured span or for a plot with fewer than
/// two points.
pub fn interpolate_gain_db(plot: &BodePlot, f: Hertz) -> Option<f64> {
    let points = plot.points();
    let lf = f.value().ln();
    for w in points.windows(2) {
        let (la, lb) = (w[0].frequency.value().ln(), w[1].frequency.value().ln());
        if lf >= la && lf <= lb {
            let t = if lb > la { (lf - la) / (lb - la) } else { 0.0 };
            return Some(w[0].gain_db.est + t * (w[1].gain_db.est - w[0].gain_db.est));
        }
    }
    None
}

/// Worst absolute gain error of the plot's piecewise log-linear
/// reconstruction against `dut`'s analytic response, probed at `probes`
/// log-spaced frequencies across the measured span — the accuracy a grid
/// actually delivers *between* its samples, which is what fixed-grid
/// undersampling ruins. `None` for fewer than two points, fewer than two
/// probes, or a non-finite deviation at any probe (a dead/NaN gain
/// estimate must not read as a small error).
pub fn reconstruction_error_db(plot: &BodePlot, dut: &dyn Dut, probes: usize) -> Option<f64> {
    let points = plot.points();
    if points.len() < 2 || probes < 2 {
        return None;
    }
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return None;
    };
    let (lo, hi) = (first.frequency, last.frequency);
    let mut worst = 0.0f64;
    for k in 0..probes {
        let t = k as f64 / (probes - 1) as f64;
        let f = Hertz((lo.value().ln() + t * (hi.value().ln() - lo.value().ln())).exp());
        let rec = interpolate_gain_db(plot, f)?;
        let dev = (rec - dut.ideal_magnitude_db(f)).abs();
        // max() would silently drop a NaN deviation and under-report.
        if !dev.is_finite() {
            return None;
        }
        worst = worst.max(dev);
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdeval::Bounded;

    fn point(f: f64, gain_db: f64, width_db: f64, phase_deg: f64) -> BodePoint {
        BodePoint {
            frequency: Hertz(f),
            gain: Bounded::point(10f64.powf(gain_db / 20.0)),
            gain_db: Bounded::new(gain_db - width_db / 2.0, gain_db, gain_db + width_db / 2.0),
            phase_deg: Bounded::point(phase_deg),
            ideal_gain_db: gain_db,
            ideal_phase_deg: phase_deg,
            round: 0,
        }
    }

    #[test]
    fn policy_builders_apply() {
        let p = RefinementPolicy::new(0.25)
            .with_max_points(10)
            .with_max_rounds(3);
        assert_eq!(p.target_width_db, 0.25);
        assert_eq!(p.max_points, 10);
        assert_eq!(p.max_rounds, 3);
    }

    #[test]
    fn straight_line_needs_no_refinement() {
        // Gains linear in log-f: zero bend everywhere.
        let points: Vec<BodePoint> = (0..5)
            .map(|i| point(100.0 * 2f64.powi(i), -6.0 * i as f64, 0.01, 0.0))
            .collect();
        let policy = RefinementPolicy::new(0.1);
        assert!(plan_candidates(&points, &policy).is_empty());
    }

    #[test]
    fn bend_is_scored_and_bisected_in_log_f() {
        // A kink at the middle point: both adjacent intervals score.
        let points = vec![
            point(100.0, 0.0, 0.01, 0.0),
            point(400.0, 0.0, 0.01, 0.0),
            point(1600.0, -20.0, 0.01, 0.0),
        ];
        let policy = RefinementPolicy::new(0.5);
        let cands = plan_candidates(&points, &policy);
        assert_eq!(cands.len(), 2);
        // Log-midpoints, ascending.
        assert!((cands[0].value() - 200.0).abs() < 1e-9, "{:?}", cands);
        assert!((cands[1].value() - 800.0).abs() < 1e-9, "{:?}", cands);
    }

    #[test]
    fn wide_enclosures_floor_the_bend() {
        // Same kink, but the enclosures are wider than the bend — the
        // bend is buried inside the guaranteed band and must not refine.
        let points = vec![
            point(100.0, 0.0, 25.0, 0.0),
            point(400.0, 0.0, 25.0, 0.0),
            point(1600.0, -20.0, 25.0, 0.0),
        ];
        let policy = RefinementPolicy::new(0.5);
        assert!(plan_candidates(&points, &policy).is_empty());
    }

    #[test]
    fn budget_takes_the_worst_interval_first() {
        let points = vec![
            point(100.0, 0.0, 0.01, 0.0),
            point(400.0, -1.0, 0.01, 0.0),   // gentle bend
            point(1600.0, -20.0, 0.01, 0.0), // hard bend
            point(6400.0, -60.0, 0.01, 0.0),
        ];
        let policy = RefinementPolicy::new(0.2).with_max_points(5);
        let cands = plan_candidates(&points, &policy);
        assert_eq!(cands.len(), 1);
        // The worst bend sits around the 1600 Hz knee: the chosen interval
        // must touch it.
        let f = cands[0].value();
        assert!((400.0..=6400.0).contains(&f), "{f}");
    }

    #[test]
    fn min_spacing_stops_bisection() {
        let points = vec![
            point(1000.0, 0.0, 0.01, 0.0),
            point(1010.0, -10.0, 0.01, 0.0),
            point(1020.0, 0.0, 0.01, 0.0),
        ];
        // ≈ 0.0144 octaves per interval: below 2 × 1/64 octave.
        let policy = RefinementPolicy::new(0.1);
        assert!(plan_candidates(&points, &policy).is_empty());
    }

    #[test]
    fn phase_bend_alone_triggers_refinement() {
        let points = vec![
            point(100.0, 0.0, 0.01, 0.0),
            point(1000.0, 0.0, 0.01, -90.0),
            point(10_000.0, 0.0, 0.01, -180.0 + 85.0), // kink vs the chord
        ];
        let policy = RefinementPolicy::new(0.5);
        assert!(!plan_candidates(&points, &policy).is_empty());
    }

    #[test]
    fn reconstruction_error_refuses_dead_points() {
        struct FlatDut;
        impl dut::Dut for FlatDut {
            fn ideal_response(&self, _f: Hertz) -> mixsig::ct::FrequencyResponse {
                mixsig::ct::FrequencyResponse {
                    magnitude: 1.0,
                    phase: 0.0,
                }
            }
            fn instantiate(&self, _fs: Hertz) -> Box<dyn dut::DutSim> {
                unimplemented!("analytic-only test DUT")
            }
        }
        let healthy = BodePlot::new(vec![
            point(100.0, 0.0, 0.01, 0.0),
            point(1000.0, 0.0, 0.01, 0.0),
        ]);
        assert!(reconstruction_error_db(&healthy, &FlatDut, 16).unwrap() < 1e-9);
        // A dead (NaN) gain estimate must poison the metric, not shrink it.
        let dead = BodePlot::new(vec![
            point(100.0, 0.0, 0.01, 0.0),
            BodePoint {
                gain_db: Bounded::point(f64::NAN),
                ..point(300.0, 0.0, 0.01, 0.0)
            },
            point(1000.0, 0.0, 0.01, 0.0),
        ]);
        assert_eq!(reconstruction_error_db(&dead, &FlatDut, 16), None);
    }

    #[test]
    fn interpolation_reads_the_chord() {
        let plot = BodePlot::new(vec![
            point(100.0, 0.0, 0.01, 0.0),
            point(10_000.0, -40.0, 0.01, 0.0),
        ]);
        let mid = interpolate_gain_db(&plot, Hertz(1000.0)).unwrap();
        assert!((mid + 20.0).abs() < 1e-9, "{mid}");
        assert!(interpolate_gain_db(&plot, Hertz(50.0)).is_none());
        assert!(interpolate_gain_db(&plot, Hertz(50_000.0)).is_none());
        let empty = BodePlot::new(Vec::new());
        assert!(interpolate_gain_db(&empty, Hertz(1000.0)).is_none());
    }
}
