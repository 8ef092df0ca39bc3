//! Device groups: several simulators run over one shared stimulus.
//!
//! A lane of devices sees one stimulus, and each device's recurrence is
//! a serial dependency chain. [`process_group`] steps the members whose
//! simulators expose an [`LtiCore`] in lockstep
//! ([`DiscreteStateSpace::process_group`]), so the CPU overlaps their
//! chains where one device at a time runs one. This crate's one LTI
//! simulator, `LtiSim`, runs its own [`DutSim::process_block`] as a
//! group of one, so a member's samples are the same bits whichever way
//! it runs.

use crate::nonlinear::Polynomial;
use crate::traits::DutSim;
use mixsig::ct::{DiscreteStateSpace, TransferFunction};
use mixsig::units::Hertz;

/// The streaming simulator of this crate's LTI devices
/// ([`ActiveRcFilter`](crate::ActiveRcFilter) and
/// [`LinearDut`](crate::LinearDut)): the device's transfer function
/// discretized at the sampling rate, then its output polynomial, if it
/// has one.
#[derive(Debug, Clone)]
pub(crate) struct LtiSim {
    dss: DiscreteStateSpace,
    poly: Option<Polynomial>,
}

impl LtiSim {
    /// `tf` discretized by zero-order hold at `fs`, followed by `poly`.
    pub(crate) fn new(tf: &TransferFunction, fs: Hertz, poly: Option<Polynomial>) -> Self {
        Self {
            dss: tf.to_state_space().discretize_zoh(1.0 / fs.value()),
            poly,
        }
    }

    /// The simulator's core: the state-space system, then the
    /// polynomial.
    fn core(&mut self) -> LtiCore<'_> {
        LtiCore {
            dss: &mut self.dss,
            poly: self.poly,
        }
    }
}

impl DutSim for LtiSim {
    fn step(&mut self, input: f64) -> f64 {
        let y = self.dss.step(input);
        self.poly.map_or(y, |poly| poly.apply(y))
    }

    fn process_block(&mut self, input: &[f64], out: &mut [f64]) {
        self.core().process_block(input, out);
    }

    fn lti_core(&mut self) -> Option<LtiCore<'_>> {
        Some(self.core())
    }
}

/// The linear time-invariant core of `LtiSim` ([`DutSim::lti_core`]):
/// its discretized state-space system, with its state, and the
/// memoryless polynomial, if any, applied to each output sample.
///
/// Only this crate builds one, and only for a simulator whose own
/// `process_block` runs that core as a group of one; so stepping the
/// core in a group is the simulator's own block.
#[derive(Debug)]
pub struct LtiCore<'a> {
    dss: &'a mut DiscreteStateSpace,
    poly: Option<Polynomial>,
}

impl LtiCore<'_> {
    /// Runs the core alone over `input` into `out`: a group of one.
    fn process_block(self, input: &[f64], out: &mut [f64]) {
        let (rows, _) = out.as_chunks_mut::<1>();
        step_cores(&mut [Some(self)], input, rows);
    }

    /// What cores stepping in lockstep share: the system's order, and
    /// whether a polynomial follows it.
    fn shape(&self) -> (usize, bool) {
        (self.dss.order(), self.poly.is_some())
    }
}

/// Runs a group of `W` simulators over one shared `input`: `out[t][s]`
/// is member `s`'s response to `input[t]`, bit-identical to that
/// member's own [`DutSim::process_block`].
///
/// The members with an [`LtiCore`] of the group's shape — the order of
/// its first such member's system, and whether a polynomial follows it
/// — step in lockstep; every other member runs its own `process_block`.
///
/// # Panics
///
/// Panics if `sims.len() != W` or `input.len() != out.len()`.
pub fn process_group<const W: usize>(
    sims: &mut [Box<dyn DutSim>],
    input: &[f64],
    out: &mut [[f64; W]],
) {
    assert_eq!(sims.len(), W, "a group of W simulators");
    let mut cores: [Option<LtiCore<'_>>; W] = std::array::from_fn(|_| None);
    for (core, sim) in cores.iter_mut().zip(sims.iter_mut()) {
        *core = sim.lti_core();
    }
    let shape = cores.iter().flatten().map(LtiCore::shape).next();
    for core in &mut cores {
        if core.as_ref().map(LtiCore::shape) != shape {
            *core = None;
        }
    }
    let joined = cores.each_ref().map(Option::is_some);
    step_cores(&mut cores, input, out);
    let mut column = Vec::new();
    for (slot, sim) in sims.iter_mut().enumerate() {
        if !joined[slot] {
            column.resize(input.len(), 0.0);
            sim.process_block(input, &mut column);
            for (row, &y) in out.iter_mut().zip(&column) {
                row[slot] = y;
            }
        }
    }
}

/// An LTI simulator's block for `W` cores of one shape at once: the
/// state-space systems in lockstep, then, if the cores have
/// polynomials, each core's polynomial on every sample of its column. A
/// `None` slot's column is left for the caller to overwrite.
///
/// A block skips the polynomials when every one is the identity
/// (`a2 = a3 = 0`, as a linearized device's is) and every output is
/// finite: `y + 0·y·y + 0·y·y·y` is `y` for every finite `y` that is
/// not −0, and the state-space outputs never are −0, since their sums
/// start at `+0.0`. An infinite output would turn into NaN
/// (`0·∞`), so a block with one applies the polynomials.
///
/// # Panics
///
/// Panics if the cores' shapes differ.
fn step_cores<const W: usize>(
    cores: &mut [Option<LtiCore<'_>>; W],
    input: &[f64],
    out: &mut [[f64; W]],
) {
    let mut shapes = cores.iter().flatten().map(LtiCore::shape);
    let shape = shapes.next();
    assert!(shapes.all(|s| Some(s) == shape), "a group of one shape");
    let polys = cores
        .each_ref()
        .map(|core| core.as_ref().and_then(|core| core.poly).unwrap_or_default());
    let mut systems = cores
        .each_mut()
        .map(|core| core.as_mut().map(|core| &mut *core.dss));
    DiscreteStateSpace::process_group(&mut systems, input, out);
    if let Some((_, true)) = shape {
        let identity = polys.iter().all(|poly| *poly == Polynomial::default());
        if identity && out.iter().flatten().all(|y| y.is_finite()) {
            return;
        }
        // Every core has a polynomial: one fixed-width loop applies them
        // all, a `None` slot's included, since its column is overwritten.
        for row in out {
            for (y, poly) in row.iter_mut().zip(&polys) {
                *y = poly.apply(*y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActiveRcFilter, Dut, LinearDut, NonlinearDut};
    use mixsig::units::Hertz;

    #[test]
    fn members_match_their_own_step_loops() {
        // Over uneven blocks, each member's column is its own per-sample
        // loop, bit for bit. Two order-3 cores, one with the paper's
        // polynomial and one with the identity, step in lockstep, so no
        // block skips the polynomials; an order-3 core with no
        // polynomial, an order-2 core and a simulator with no core run
        // alone.
        let paper = ActiveRcFilter::paper_dut;
        let fs = Hertz(96_000.0);
        let tone: Vec<f64> = (0..400).map(|i| 0.3 * (0.21 * i as f64).sin()).collect();
        check_group(
            [
                Box::new(paper().fabricate(0.05, 1)),
                Box::new(paper().fabricate(0.05, 2).linearized()),
                Box::new(LinearDut::new(
                    paper().fabricate(0.05, 3).transfer_function(),
                )),
                Box::new(ActiveRcFilter::new(Hertz(800.0), 0.9, 1.0)),
                Box::new(NonlinearDut::new(
                    LinearDut::lowpass(Hertz(900.0), 0.8, 1.1),
                    Polynomial::new(0.02, 0.1),
                )),
            ],
            fs,
            &tone,
            "mixed polynomials",
        );
        // Every polynomial of the lockstep cores is the identity, so the
        // group skips them while its outputs are finite; the order-2 core
        // alone skips its own.
        check_group(
            [
                Box::new(paper().fabricate(0.05, 4).linearized()),
                Box::new(paper().linearized()),
                Box::new(paper().fabricate(0.05, 5).linearized()),
                Box::new(ActiveRcFilter::new(Hertz(800.0), 0.9, 1.0)),
            ],
            fs,
            &tone,
            "identity polynomials",
        );
        // A 1e308 V stretch drives the gain-10 core's output past
        // `f64::MAX` with its state still finite: the identity maps ∞ to
        // NaN, so that block applies the polynomials, and the later,
        // finite blocks skip them again.
        let mut overflow = tone.clone();
        overflow[150..250].fill(1e308);
        let hot = ActiveRcFilter::new(Hertz(800.0), 0.9, 10.0);
        let mut own = hot.instantiate(fs);
        let ys: Vec<f64> = overflow.iter().map(|&u| own.step(u)).collect();
        assert!(ys.iter().any(|y| y.is_nan()) && ys.iter().rev().take(50).all(|y| y.is_finite()));
        check_group(
            [
                Box::new(hot),
                Box::new(ActiveRcFilter::new(Hertz(900.0), 0.8, 1.0)),
            ],
            fs,
            &overflow,
            "output overflow",
        );
    }

    /// Runs `devices` as one group over `x` in uneven blocks and checks
    /// each member's column against its own per-sample loop.
    fn check_group<const W: usize>(devices: [Box<dyn Dut>; W], fs: Hertz, x: &[f64], label: &str) {
        let mut sims: Vec<Box<dyn DutSim>> = devices.iter().map(|d| d.instantiate(fs)).collect();
        let mut got = vec![[0.0; W]; x.len()];
        let mut start = 0;
        for len in [1, 37, 96, 266] {
            let end = start + len;
            process_group(&mut sims, &x[start..end], &mut got[start..end]);
            start = end;
        }
        assert_eq!(start, x.len());
        for (s, device) in devices.iter().enumerate() {
            let mut own = device.instantiate(fs);
            let want: Vec<u64> = x.iter().map(|&u| own.step(u).to_bits()).collect();
            let column: Vec<u64> = got.iter().map(|row| row[s].to_bits()).collect();
            assert_eq!(column, want, "{label}: member {s}");
        }
    }
}
