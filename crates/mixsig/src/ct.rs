//! Continuous-time LTI simulation.
//!
//! The paper's DUT — an active-RC 2nd-order low-pass on the demonstrator
//! board — is a continuous-time circuit sampled by the evaluator at
//! `f_eva`. We model it as a state-space system
//!
//! ```text
//! ẋ = A·x + B·u,    y = C·x + D·u
//! ```
//!
//! and discretize it *exactly* under a zero-order-hold input using the
//! augmented matrix exponential
//!
//! ```text
//! exp([A B; 0 0]·T) = [Ad Bd; 0 I]
//! ```
//!
//! so stepping the DUT at the master-clock rate introduces no numerical
//! integration error of its own. [`TransferFunction`] evaluates the ideal
//! `H(jω)` used as the reference curve in the Bode experiments.

use crate::matrix::Matrix;
use crate::units::Hertz;
use dsp_complex::Complex64;

// `mixsig` does not depend on the `dsp` crate (it sits below it in the
// DAG); a tiny local complex type would duplicate `dsp::Complex64`.
// Instead we re-implement the two operations needed for H(jω) on a private
// alias to keep the dependency direction clean.
mod dsp_complex {
    /// Minimal complex arithmetic for transfer-function evaluation.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct Complex64 {
        /// Real part.
        pub re: f64,
        /// Imaginary part.
        pub im: f64,
    }

    impl Complex64 {
        pub(crate) const ZERO: Self = Self { re: 0.0, im: 0.0 };

        pub(crate) const fn new(re: f64, im: f64) -> Self {
            Self { re, im }
        }

        pub(crate) fn abs(self) -> f64 {
            self.re.hypot(self.im)
        }

        pub(crate) fn arg(self) -> f64 {
            self.im.atan2(self.re)
        }

        pub(crate) fn mul(self, o: Self) -> Self {
            Self::new(
                self.re * o.re - self.im * o.im,
                self.re * o.im + self.im * o.re,
            )
        }

        pub(crate) fn add(self, o: Self) -> Self {
            Self::new(self.re + o.re, self.im + o.im)
        }

        pub(crate) fn div(self, o: Self) -> Self {
            let d = o.re * o.re + o.im * o.im;
            Self::new(
                (self.re * o.re + self.im * o.im) / d,
                (self.im * o.re - self.re * o.im) / d,
            )
        }
    }
}

/// Frequency-response sample of a transfer function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyResponse {
    /// Magnitude (linear).
    pub magnitude: f64,
    /// Phase in radians.
    pub phase: f64,
}

/// A rational transfer function in `s`: `H(s) = num(s)/den(s)`,
/// coefficients in ascending powers of `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    num: Vec<f64>,
    den: Vec<f64>,
}

impl TransferFunction {
    /// Creates a transfer function from numerator and denominator
    /// coefficients in **ascending** powers of `s`.
    ///
    /// # Panics
    ///
    /// Panics if the denominator is empty or all-zero.
    pub fn new(num: Vec<f64>, den: Vec<f64>) -> Self {
        assert!(den.iter().any(|&c| c != 0.0), "denominator must be nonzero");
        Self { num, den }
    }

    /// The canonical 2nd-order low-pass `H(s) = G·ω0² / (s² + (ω0/Q)s + ω0²)`.
    pub fn lowpass_biquad(f0: Hertz, q: f64, gain: f64) -> Self {
        let w0 = 2.0 * std::f64::consts::PI * f0.value();
        Self::new(vec![gain * w0 * w0], vec![w0 * w0, w0 / q, 1.0])
    }

    /// The canonical 2nd-order band-pass `H(s) = G·(ω0/Q)s / (s² + (ω0/Q)s + ω0²)`.
    pub fn bandpass_biquad(f0: Hertz, q: f64, gain: f64) -> Self {
        let w0 = 2.0 * std::f64::consts::PI * f0.value();
        Self::new(vec![0.0, gain * w0 / q], vec![w0 * w0, w0 / q, 1.0])
    }

    /// The canonical 2nd-order high-pass `H(s) = G·s² / (s² + (ω0/Q)s + ω0²)`.
    pub fn highpass_biquad(f0: Hertz, q: f64, gain: f64) -> Self {
        let w0 = 2.0 * std::f64::consts::PI * f0.value();
        Self::new(vec![0.0, 0.0, gain], vec![w0 * w0, w0 / q, 1.0])
    }

    /// Numerator coefficients (ascending powers of `s`).
    pub fn numerator(&self) -> &[f64] {
        &self.num
    }

    /// Denominator coefficients (ascending powers of `s`).
    pub fn denominator(&self) -> &[f64] {
        &self.den
    }

    /// Evaluates `H(jω)` at frequency `f`.
    pub fn response(&self, f: Hertz) -> FrequencyResponse {
        let w = 2.0 * std::f64::consts::PI * f.value();
        let jw = Complex64::new(0.0, w);
        let eval = |coeffs: &[f64]| {
            let mut acc = Complex64::ZERO;
            let mut power = Complex64::new(1.0, 0.0);
            for &c in coeffs {
                acc = acc.add(Complex64::new(c * power.re, c * power.im));
                power = power.mul(jw);
            }
            acc
        };
        let h = eval(&self.num).div(eval(&self.den));
        FrequencyResponse {
            magnitude: h.abs(),
            phase: h.arg(),
        }
    }

    /// Controllable-canonical state-space realization.
    ///
    /// # Panics
    ///
    /// Panics if the numerator order exceeds the denominator order
    /// (non-proper system).
    pub fn to_state_space(&self) -> StateSpace {
        let n = self.den.len() - 1;
        assert!(
            self.num.len() <= self.den.len(),
            "transfer function must be proper"
        );
        let a_n = self.den[n];
        // Normalize so the highest denominator coefficient is 1.
        let den: Vec<f64> = self.den.iter().map(|c| c / a_n).collect();
        let mut num: Vec<f64> = self.num.iter().map(|c| c / a_n).collect();
        num.resize(n + 1, 0.0);
        let d_term = num[n];
        // Companion form.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n.saturating_sub(1) {
            a[(i, i + 1)] = 1.0;
        }
        for j in 0..n {
            a[(n - 1, j)] = -den[j];
        }
        let mut b = Matrix::zeros(n, 1);
        if n > 0 {
            b[(n - 1, 0)] = 1.0;
        }
        let mut c = Matrix::zeros(1, n);
        for j in 0..n {
            c[(0, j)] = num[j] - den[j] * d_term;
        }
        StateSpace::new(a, b, c, d_term)
    }
}

/// A single-input single-output continuous-time state-space system: a
/// description, stateless; [`discretize_zoh`](Self::discretize_zoh)
/// builds the stepper that carries state.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    d: f64,
}

impl StateSpace {
    /// Creates a state-space system; `a` must be `n×n`, `b` `n×1`, `c` `1×n`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions.
    pub(crate) fn new(a: Matrix, b: Matrix, c: Matrix, d: f64) -> Self {
        let n = a.rows();
        assert_eq!(a.cols(), n, "A must be square");
        assert_eq!((b.rows(), b.cols()), (n, 1), "B must be n×1");
        assert_eq!((c.rows(), c.cols()), (1, n), "C must be 1×n");
        Self { a, b, c, d }
    }

    /// System order.
    pub(crate) fn order(&self) -> usize {
        self.a.rows()
    }

    /// Produces an exact zero-order-hold discretization at sample time `dt`
    /// seconds, returning a stepper that advances one sample per call.
    pub fn discretize_zoh(&self, dt: f64) -> DiscreteStateSpace {
        let n = self.order();
        let e = self.zoh_augmented(dt).expm();
        let ad = e.block(0, 0, n, n);
        let bd = e.block(0, n, n, 1);
        DiscreteStateSpace {
            ad,
            bd,
            c: self.c.clone(),
            d: self.d,
            state: vec![0.0; n],
        }
    }

    /// The augmented matrix `[[A, B], [0, 0]]·dt` whose exponential
    /// [`discretize_zoh`](Self::discretize_zoh) reads `Ad` and `Bd` from.
    pub(crate) fn zoh_augmented(&self, dt: f64) -> Matrix {
        let n = self.order();
        let mut aug = Matrix::zeros(n + 1, n + 1);
        for r in 0..n {
            for c in 0..n {
                aug[(r, c)] = self.a[(r, c)] * dt;
            }
            aug[(r, n)] = self.b[(r, 0)] * dt;
        }
        aug
    }
}

/// A discrete-time state-space stepper produced by
/// [`StateSpace::discretize_zoh`].
///
/// One system runs per sample ([`step`](Self::step)); a block of
/// samples runs a group of systems of one order in lockstep over a
/// shared input ([`process_group`](Self::process_group)), a group of
/// one included. Both are bit-identical per system.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteStateSpace {
    ad: Matrix,
    bd: Matrix,
    c: Matrix,
    d: f64,
    state: Vec<f64>,
}

impl DiscreteStateSpace {
    /// Advances one sample with held input `u`, returning the output.
    pub fn step(&mut self, u: f64) -> f64 {
        let y = self.c.mul_vec(&self.state).first().copied().unwrap_or(0.0) + self.d * u;
        let ax = self.ad.mul_vec(&self.state);
        for (i, x) in self.state.iter_mut().enumerate() {
            *x = ax[i] + self.bd[(i, 0)] * u;
        }
        y
    }

    /// Processes one shared `input` through a group of up to `W` systems
    /// of one order in lockstep: `out[t][s]` is slot `s`'s output for
    /// `input[t]`, bit-identical to stepping that system alone
    /// ([`step`](Self::step)). A `None` slot's column is
    /// overwritten with no system's output, for the caller to fill.
    ///
    /// Each system is a serial dependency chain, so stepping `W` of
    /// them in one loop lets the CPU overlap `W` chains where a group of
    /// one runs one. Orders 1 through 8 dispatch to a kernel
    /// monomorphized on the order and the width (`process_group_n`), so
    /// every inner loop has a compile-time trip count the autovectorizer
    /// cannot miss; order 0 (pure feedthrough) and anything beyond order
    /// 8 step each system per sample — still correct, just slower. The
    /// kernel skips each output-row term (an entry of `c`, or `d`) that
    /// is an exact zero in every system, which cannot change a bit while
    /// the block stays finite; a block that ends with a non-finite state
    /// runs again with every term.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != out.len()` or the systems' orders
    /// differ.
    pub fn process_group<const W: usize>(
        group: &mut [Option<&mut Self>; W],
        input: &[f64],
        out: &mut [[f64; W]],
    ) {
        assert_eq!(
            input.len(),
            out.len(),
            "input and output blocks must have equal length"
        );
        let mut orders = group.iter().flatten().map(|sys| sys.state.len());
        let order = orders.next().unwrap_or(0);
        assert!(
            orders.all(|n| n == order),
            "a group steps systems of one order"
        );
        match order {
            1 => Self::process_group_n::<1, W>(group, input, out),
            2 => Self::process_group_n::<2, W>(group, input, out),
            3 => Self::process_group_n::<3, W>(group, input, out),
            4 => Self::process_group_n::<4, W>(group, input, out),
            5 => Self::process_group_n::<5, W>(group, input, out),
            6 => Self::process_group_n::<6, W>(group, input, out),
            7 => Self::process_group_n::<7, W>(group, input, out),
            8 => Self::process_group_n::<8, W>(group, input, out),
            _ => {
                for (s, sys) in group.iter_mut().enumerate() {
                    if let Some(sys) = sys {
                        for (y, &u) in out.iter_mut().zip(input) {
                            y[s] = sys.step(u);
                        }
                    }
                }
            }
        }
    }

    /// The group kernel for a compile-time order `N` and width `W`,
    /// struct-of-arrays: `adt[j][i][s] = Ad[i][j]` of slot `s`'s system,
    /// `x[i][s]` its state.
    ///
    /// The state update runs column-major over the transposed `Ad`: the
    /// outer loop walks source states `j`, the inner loops update every
    /// destination state of every slot — fixed-width loops the compiler
    /// turns into SIMD lanes. Slot `s` still runs exactly the operations
    /// of [`step`](Self::step) for its system, in `mul_vec`'s order: the
    /// output `c·x` from `+0.0` left to right, then `+ d·u`; each next
    /// state from `+0.0` over ascending `j`, then `+ Bd·u`. Nothing is
    /// reassociated within a slot or across slots, so each slot stays
    /// bit-identical to its system's own step loop. The coefficients and
    /// states are gathered into stack arrays here and the states written
    /// back at the end; a `None` slot runs on zeros, and every slot's
    /// output is stored, so the store stays one fixed-width loop.
    ///
    /// The output row skips each term, an entry of `c` or `d`, whose
    /// coefficient is an exact zero in every slot (the paper's DUT has
    /// `c = [k, 0, 0]` and `d = 0`). The sum starts at `+0.0`, so no
    /// partial sum is ever −0, and adding the skipped `±0 · v` returns it
    /// unchanged while `v` is finite. The state update skips nothing, so
    /// a non-finite state spreads to every state of its slot at the next
    /// sample and stays there, and a non-finite input does the same
    /// through `Bd·u` (`0·∞` is NaN): a non-finite factor anywhere in
    /// the block leaves a non-finite end state. So if every end state is
    /// finite the skipped terms changed nothing; otherwise the block runs
    /// again from its start with every term.
    fn process_group_n<const N: usize, const W: usize>(
        group: &mut [Option<&mut Self>; W],
        input: &[f64],
        out: &mut [[f64; W]],
    ) {
        let mut adt = [[[0.0f64; W]; N]; N];
        let mut bd = [[0.0f64; W]; N];
        let mut c = [[0.0f64; W]; N];
        let mut d = [0.0f64; W];
        let mut x = [[0.0f64; W]; N];
        for (s, sys) in group.iter().enumerate() {
            let Some(sys) = sys else { continue };
            d[s] = sys.d;
            for (j, row) in adt.iter_mut().enumerate() {
                for (i, a) in row.iter_mut().enumerate() {
                    a[s] = sys.ad[(i, j)];
                }
            }
            for (i, ((b, cv), xv)) in bd.iter_mut().zip(&mut c).zip(&mut x).enumerate() {
                b[s] = sys.bd[(i, 0)];
                cv[s] = sys.c[(0, i)];
                xv[s] = sys.state[i];
            }
        }
        let start = x;
        // The output terms kept: `c[i]` where `kept[i]`, and `d` if
        // `with_d`. A second pass, from the start, keeps them all.
        let mut kept = c.map(|cv| cv.iter().any(|&v| v != 0.0));
        let mut with_d = d.iter().any(|&v| v != 0.0);
        loop {
            for (y, &u) in out.iter_mut().zip(input) {
                let mut acc = [0.0f64; W];
                for ((cv, xv), &term) in c.iter().zip(&x).zip(&kept) {
                    if term {
                        for ((a, cs), xs) in acc.iter_mut().zip(cv).zip(xv) {
                            *a += cs * xs;
                        }
                    }
                }
                if with_d {
                    for ((ys, a), ds) in y.iter_mut().zip(&acc).zip(&d) {
                        *ys = a + ds * u;
                    }
                } else {
                    *y = acc;
                }
                let mut x_next = [[0.0f64; W]; N];
                for (row, xj) in adt.iter().zip(&x) {
                    for (xn, a) in x_next.iter_mut().zip(row) {
                        for ((xs, as_), xjs) in xn.iter_mut().zip(a).zip(xj) {
                            *xs += as_ * xjs;
                        }
                    }
                }
                for (xn, b) in x_next.iter_mut().zip(&bd) {
                    for (xs, bs) in xn.iter_mut().zip(b) {
                        *xs += bs * u;
                    }
                }
                x = x_next;
            }
            let every_term = with_d && !kept.contains(&false);
            if every_term || x.iter().flatten().all(|v| v.is_finite()) {
                break;
            }
            x = start;
            kept = [true; N];
            with_d = true;
        }
        for (s, sys) in group.iter_mut().enumerate() {
            if let Some(sys) = sys {
                for (state, xv) in sys.state.iter_mut().zip(&x) {
                    *state = xv[s];
                }
            }
        }
    }

    /// System order: the length of the state vector.
    pub fn order(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    fn magnitude_db(tf: &TransferFunction, f: Hertz) -> f64 {
        20.0 * tf.response(f).magnitude.log10()
    }

    fn phase_deg(tf: &TransferFunction, f: Hertz) -> f64 {
        tf.response(f).phase.to_degrees()
    }

    /// `sys` over `input` as a group of one: the block form of `step`.
    fn process_block(sys: &mut DiscreteStateSpace, input: &[f64], out: &mut [f64]) {
        let (rows, _) = out.as_chunks_mut::<1>();
        DiscreteStateSpace::process_group(&mut [Some(sys)], input, rows);
    }

    #[test]
    fn lowpass_dc_gain_and_rolloff() {
        let tf =
            TransferFunction::lowpass_biquad(Hertz(1000.0), std::f64::consts::FRAC_1_SQRT_2, 1.0);
        assert!(close(tf.response(Hertz(0.001)).magnitude, 1.0, 1e-6));
        // Butterworth: -3 dB at f0.
        assert!(close(magnitude_db(&tf, Hertz(1000.0)), -3.0103, 0.01));
        // -40 dB/dec beyond: at 10 kHz expect about -40 dB.
        assert!(magnitude_db(&tf, Hertz(10_000.0)) < -39.0);
    }

    #[test]
    fn lowpass_phase_limits() {
        let tf =
            TransferFunction::lowpass_biquad(Hertz(1000.0), std::f64::consts::FRAC_1_SQRT_2, 1.0);
        assert!(phase_deg(&tf, Hertz(1.0)).abs() < 0.2);
        assert!(close(phase_deg(&tf, Hertz(1000.0)), -90.0, 0.1));
        assert!(phase_deg(&tf, Hertz(100_000.0)) < -175.0);
    }

    #[test]
    fn bandpass_peaks_at_f0() {
        let tf = TransferFunction::bandpass_biquad(Hertz(1000.0), 5.0, 1.0);
        let at_f0 = tf.response(Hertz(1000.0)).magnitude;
        assert!(close(at_f0, 1.0, 1e-6));
        assert!(tf.response(Hertz(100.0)).magnitude < 0.3);
        assert!(tf.response(Hertz(10_000.0)).magnitude < 0.3);
    }

    #[test]
    fn highpass_passes_high() {
        let tf =
            TransferFunction::highpass_biquad(Hertz(1000.0), std::f64::consts::FRAC_1_SQRT_2, 2.0);
        assert!(close(tf.response(Hertz(1.0e6)).magnitude, 2.0, 1e-3));
        assert!(tf.response(Hertz(10.0)).magnitude < 0.001);
    }

    #[test]
    fn state_space_matches_transfer_function_sine_response() {
        // Drive the discretized system with a sine and compare the steady
        // state amplitude/phase with H(jω).
        let f0 = Hertz(1000.0);
        let tf = TransferFunction::lowpass_biquad(f0, std::f64::consts::FRAC_1_SQRT_2, 1.0);
        let fs = 96_000.0;
        let f_test = 2_000.0;
        let mut dss = tf.to_state_space().discretize_zoh(1.0 / fs);
        let n = 96 * 200;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f_test * i as f64 / fs).sin())
            .collect();
        let y: Vec<f64> = x.iter().map(|&u| dss.step(u)).collect();
        // Discard the first half (transient), fit the rest.
        let steady = &y[n / 2..];
        let amp = steady.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let expect = tf.response(Hertz(f_test)).magnitude;
        assert!(close(amp, expect, 0.01), "amp {amp} vs {expect}");
    }

    #[test]
    fn zoh_step_response_of_first_order() {
        // H(s) = 1/(1 + s/ω); step response 1 - e^{-ωt}, exact under ZOH.
        let w = 2.0 * std::f64::consts::PI * 100.0;
        let tf = TransferFunction::new(vec![1.0], vec![1.0, 1.0 / w]);
        let dt = 1.0e-4;
        let mut dss = tf.to_state_space().discretize_zoh(dt);
        let mut y = 0.0;
        for _ in 0..50 {
            y = dss.step(1.0);
        }
        // After 49 full steps the output equals 1 - e^{-ω·49·dt}.
        let expect = 1.0 - (-w * 49.0 * dt).exp();
        assert!(close(y, expect, 1e-9), "{y} vs {expect}");
    }

    #[test]
    fn process_block_is_bit_identical_to_step() {
        // Orders 1 (first-order), 2 (biquad) and 3 (biquad + extra pole).
        let w = 2.0 * std::f64::consts::PI * 1000.0;
        let tfs = [
            TransferFunction::new(vec![1.0], vec![1.0, 1.0 / w]),
            TransferFunction::lowpass_biquad(Hertz(1000.0), 0.9, 1.0),
            TransferFunction::new(vec![w * w], vec![w * w, 2.0 * w, 1.5, 1.0 / w]),
        ];
        let x: Vec<f64> = (0..617).map(|i| (0.37 * i as f64).sin()).collect();
        for tf in tfs {
            let ss = tf.to_state_space();
            let mut by_step = ss.discretize_zoh(1.0 / 96_000.0);
            let mut by_block = by_step.clone();
            let want: Vec<f64> = x.iter().map(|&u| by_step.step(u)).collect();
            let mut got = vec![0.0; x.len()];
            // Uneven chunking exercises the state carry between blocks.
            for (xi, yi) in x.chunks(13).zip(got.chunks_mut(13)) {
                process_block(&mut by_block, xi, yi);
            }
            assert_eq!(want, got, "order {}", ss.order());
            assert_eq!(by_step, by_block);
        }
    }

    /// Slot `slot`'s system of order `order`: real poles of its own (and
    /// a feedthrough term in slot 3), discretized at 96 kHz.
    fn group_member(order: usize, slot: usize) -> DiscreteStateSpace {
        let poles = (0..order).map(|k| {
            2.0 * std::f64::consts::PI * 400.0 * (1.0 + 0.7 * k as f64 + 0.13 * slot as f64)
        });
        with_poles(poles, slot)
    }

    /// Slot `slot`'s system of order `order` with its first pole moved to
    /// 40 kHz in the right half-plane: its state grows by e^2.6 a sample
    /// and leaves `f64`'s range within 300 samples.
    fn unstable_member(order: usize, slot: usize) -> DiscreteStateSpace {
        let poles = (0..order).map(|k| {
            if k == 0 {
                -2.0 * std::f64::consts::PI * 40_000.0
            } else {
                2.0 * std::f64::consts::PI * 400.0 * (1.0 + 0.7 * k as f64)
            }
        });
        with_poles(poles, slot)
    }

    /// The system with a real pole at `−w` for each `w` of `poles`: in
    /// slot 3 with a numerator of the denominator's order, so its output
    /// row is dense and `d ≠ 0`; elsewhere with a constant numerator, so
    /// only the row's first entry is nonzero.
    fn with_poles(poles: impl Iterator<Item = f64>, slot: usize) -> DiscreteStateSpace {
        let mut den = vec![1.0];
        for w in poles {
            let mut next = vec![0.0; den.len() + 1];
            for (i, &c) in den.iter().enumerate() {
                next[i] += c;
                next[i + 1] += c / w;
            }
            den = next;
        }
        let num = if slot == 3 {
            den.iter().rev().map(|c| 0.25 * c).collect()
        } else {
            vec![1.0 + 0.1 * slot as f64]
        };
        TransferFunction::new(num, den)
            .to_state_space()
            .discretize_zoh(1.0 / 96_000.0)
    }

    /// Runs `systems` as one group over `x` in uneven blocks, with slot
    /// `skip` left out.
    fn run_group<const W: usize>(
        systems: &mut [DiscreteStateSpace; W],
        skip: Option<usize>,
        x: &[f64],
    ) -> Vec<[f64; W]> {
        let mut out = vec![[0.0; W]; x.len()];
        let mut start = 0;
        for len in [1usize, 13, 96, 7, 250].into_iter().cycle() {
            let end = (start + len).min(x.len());
            let mut group = systems.each_mut().map(Some);
            if let Some(s) = skip {
                group[s] = None;
            }
            DiscreteStateSpace::process_group(&mut group, &x[start..end], &mut out[start..end]);
            start = end;
            if start == x.len() {
                break;
            }
        }
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn step_and_the_group_kernel_agree_on_the_sign_of_zero() {
        // `−1/(1 + s)` from rest: every output-row product is −0 while
        // the input is −0, and both sums start at +0.0, so both read +0.
        let sys = TransferFunction::new(vec![-1.0], vec![1.0, 1.0])
            .to_state_space()
            .discretize_zoh(1.0e-3);
        let input = [-0.0, -0.0, 0.5];
        let mut by_step = sys.clone();
        let want: Vec<f64> = input.iter().map(|&u| by_step.step(u)).collect();
        let mut by_group = sys;
        let mut got = [0.0; 3];
        process_block(&mut by_group, &input, &mut got);
        assert_eq!(bits(&want), bits(&[0.0; 3]));
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn process_group_is_bit_identical_to_each_systems_own_block() {
        // Every order the dispatcher monomorphizes, four different
        // systems per group, so a slot that reads another slot's
        // coefficients or state shows; uneven blocks carry the state.
        // Each system's own reference is its per-sample step loop, which
        // its own `process_block` (a group of one) also matches.
        //
        // Slots 0-2 have one-term output rows, slot 3 a dense one with
        // `d ≠ 0`: a group skips the zero terms only while slot 3 is out
        // of it (left out, or in the tails). The records hold signed
        // zeros and subnormals, and ±∞ or NaN at the last sample of a
        // block; a group with an unstable member overflows mid-block. A
        // block that ends non-finite runs again with every term.
        let tone = |i: usize| (0.37 * i as f64).sin() + 0.2 * (1.3 * i as f64).cos();
        let tiny = f64::MIN_POSITIVE / 4.0;
        let smooth: Vec<f64> = (0..617)
            .map(|i| match i {
                0 | 1 | 200 => -0.0,
                2 | 201 => 0.0,
                3 | 202 => tiny,
                4 | 203 => -5e-324,
                _ => tone(i),
            })
            .collect();
        for order in 1..=8usize {
            let mut cases = vec![(
                "smooth".to_string(),
                std::array::from_fn(|slot| group_member(order, slot)),
                smooth.clone(),
            )];
            for extreme in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut x = smooth.clone();
                x[116] = extreme;
                cases.push((
                    format!("{extreme} at 116"),
                    std::array::from_fn(|slot| group_member(order, slot)),
                    x,
                ));
            }
            cases.push((
                "unstable slot 2".to_string(),
                std::array::from_fn(|slot| {
                    if slot == 2 {
                        unstable_member(order, slot)
                    } else {
                        group_member(order, slot)
                    }
                }),
                smooth.clone(),
            ));
            for (case, systems, x) in cases {
                let label = format!("order {order}, {case}");
                check_group(&systems, &x, &label);
            }
        }
    }

    /// `systems` as a group of 4 over `x`, whole and with slot 1 or 3
    /// left out, then as its tails of 3 and 1, against each system's own
    /// step loop and its own `process_block`, outputs and end states
    /// bit for bit.
    fn check_group(systems: &[DiscreteStateSpace; 4], x: &[f64], label: &str) {
        let mut alone = systems.clone();
        let want: Vec<Vec<f64>> = alone
            .iter_mut()
            .map(|sys| x.iter().map(|&u| sys.step(u)).collect())
            .collect();
        for (sys, want) in systems.iter().zip(&want) {
            let mut by_block = sys.clone();
            let mut y = vec![0.0; x.len()];
            for (xi, yi) in x.chunks(29).zip(y.chunks_mut(29)) {
                process_block(&mut by_block, xi, yi);
            }
            assert_eq!(bits(&y), bits(want), "{label}: process_block");
        }
        for skip in [None, Some(1), Some(3)] {
            let mut grouped = systems.clone();
            let got = run_group(&mut grouped, skip, x);
            for (s, (want, sys)) in want.iter().zip(&grouped).enumerate() {
                let column: Vec<f64> = got.iter().map(|row| row[s]).collect();
                if skip == Some(s) {
                    assert_eq!(bits(&sys.state), bits(&systems[s].state), "{label}");
                    continue;
                }
                assert_eq!(
                    bits(&column),
                    bits(want),
                    "{label}, slot {s}, skip {skip:?}"
                );
                assert_eq!(bits(&sys.state), bits(&alone[s].state), "{label}, slot {s}");
            }
        }
        // Narrower groups (the tails of a lane) run the same kernel.
        let [a, b, c, _] = systems.clone();
        let tail = run_group(&mut [a, b, c], None, x);
        for (t, row) in tail.iter().enumerate() {
            for (s, y) in row.iter().enumerate() {
                assert_eq!(y.to_bits(), want[s][t].to_bits(), "{label}, tail");
            }
        }
        let [a, ..] = systems.clone();
        let one = run_group(&mut [a], None, x);
        assert!(one
            .iter()
            .zip(&want[0])
            .all(|(r, w)| r[0].to_bits() == w.to_bits()));
    }

    #[test]
    #[should_panic(expected = "one order")]
    fn a_group_of_mixed_orders_is_rejected() {
        let mut a = group_member(2, 0);
        let mut b = group_member(3, 1);
        let mut out = [[0.0; 2]; 4];
        DiscreteStateSpace::process_group(&mut [Some(&mut a), Some(&mut b)], &[0.0; 4], &mut out);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_block_lengths_rejected() {
        let tf = TransferFunction::lowpass_biquad(Hertz(1000.0), 1.0, 1.0);
        let mut dss = tf.to_state_space().discretize_zoh(1.0e-5);
        process_block(&mut dss, &[0.0; 4], &mut [0.0; 3]);
    }

    #[test]
    fn proper_rational_to_state_space_with_d_term() {
        // H(s) = (1 + s)/(1 + s) = 1 → pure feedthrough.
        let tf = TransferFunction::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        let mut dss = tf.to_state_space().discretize_zoh(1.0e-3);
        for i in 0..10 {
            let u = i as f64;
            assert!(close(dss.step(u), u, 1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "proper")]
    fn improper_tf_rejected() {
        let tf = TransferFunction::new(vec![0.0, 0.0, 1.0], vec![1.0, 1.0]);
        let _ = tf.to_state_space();
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_rejected() {
        let _ = TransferFunction::new(vec![1.0], vec![0.0, 0.0]);
    }
}
