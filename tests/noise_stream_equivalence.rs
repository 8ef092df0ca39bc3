//! Noise-stream equivalence: the batched Gaussian synthesis pipeline must
//! be bit-identical to an *independently written* scalar reference.
//!
//! The in-crate unit tests compare the buffered path against a scalar
//! loop that shares `mixsig`'s own RNG and uniform-conversion helpers, so
//! a value bug in a shared helper would cancel out. This suite closes
//! that hole: it reimplements the whole chain — SplitMix64 seeding,
//! xoshiro256++, the 53-bit uniform conversion, Box–Muller — from the
//! published algorithm definitions, then property-tests arbitrary
//! interleavings of the public drawing APIs (per-call, batched fill,
//! zero-σ, `kT/C`, white) against it across refill boundaries.
//!
//! It also property-tests the hoisted-plan consumers introduced for the
//! batched hot path: `ScIntegrator::step_planned` vs. `step` (both
//! instantiations, the exact one on ideal hardware over signed zeros,
//! subnormals and ±1e300, and a one-slot `ScIntegrator::steps` on the
//! pre-drawn noise that device groups share), and the interleaved I/Q
//! `ModulatorPair` vs. `step`, on both the ideal and the 0.35 µm CMOS
//! profiles. Finally, the evaluator's
//! acquisition — of one device and of lanes of many — is checked
//! against a from-scratch loop over `SigmaDeltaModulator::step` with
//! polarities from `QuadratureSquareWave::in_phase`/`quadrature` —
//! unlike the block-length test, whose two sides share one `acquire`.

use mixsig::noise::{ktc_noise_rms, NoiseSource, NORMAL_REFILL};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Scratch-built reference: seed → raw draws → uniforms → standard normals.
// ---------------------------------------------------------------------------

/// xoshiro256++ (Blackman & Vigna), state-expanded from the seed with
/// SplitMix64 — written from the reference C listings, independent of
/// `mixsig`'s implementation.
struct ReferenceRng {
    s: [u64; 4],
}

impl ReferenceRng {
    fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut splitmix = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [splitmix(), splitmix(), splitmix(), splitmix()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[ε, 1)` from the top 53 bits — the plain textbook
    /// conversion (`mixsig` computes the same value by a different,
    /// vectorizable route; this test is what pins them together).
    fn next_uniform(&mut self) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / 9_007_199_254_740_992.0;
        u.max(f64::EPSILON)
    }

    /// Standard normal `i` consumes raw draws `2i` and `2i + 1`
    /// (magnitude first, then angle) — plain Box–Muller.
    fn next_normal(&mut self) -> f64 {
        let u1 = self.next_uniform();
        let u2 = self.next_uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[test]
fn buffered_stream_matches_scratch_reference_across_refills() {
    for seed in [0u64, 1, 7, 42, 0xDEAD_BEEF_CAFE_F00D] {
        let mut source = NoiseSource::new(seed);
        let mut reference = ReferenceRng::new(seed);
        // Several refill boundaries plus an uneven tail.
        for i in 0..(3 * NORMAL_REFILL + 17) {
            let got = source.gaussian(1.0);
            let want = reference.next_normal();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "seed {seed}: normal {i} diverged ({got} vs {want})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Interleaving properties over the public drawing APIs.
// ---------------------------------------------------------------------------

/// One public drawing operation; generated by `op_strategy`.
#[derive(Debug, Clone)]
enum Op {
    /// `gaussian(sigma)` with σ > 0 — consumes one normal.
    Gaussian(f64),
    /// `gaussian(0.0)` — must return 0 and consume nothing.
    ZeroSigma,
    /// `fill_gaussian(sigma, len)` with σ > 0 — consumes `len` normals.
    Fill(f64, usize),
    /// `fill_gaussian(0.0, len)` — zeros, consumes nothing.
    FillZero(usize),
    /// `ktc(cap)` — consumes one normal scaled by the kT/C rms.
    Ktc(f64),
    /// `white(density, bandwidth)` — one normal, or nothing at zero
    /// bandwidth (σ becomes exactly 0).
    White(f64, f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.01..3.0f64).prop_map(Op::Gaussian),
        (0.0..1.0f64).prop_map(|_| Op::ZeroSigma),
        ((0.01..3.0f64), 0usize..(2 * NORMAL_REFILL + 40)).prop_map(|(s, n)| Op::Fill(s, n)),
        (0usize..(NORMAL_REFILL + 20)).prop_map(Op::FillZero),
        (1.0e-13..1.0e-11f64).prop_map(Op::Ktc),
        ((1.0e-9..1.0e-7f64), 0.0..1.0e6f64).prop_map(|(d, b)| Op::White(d, b)),
    ]
}

/// Applies `op` to the real source, returning the produced samples.
fn run_op(source: &mut NoiseSource, op: &Op) -> Vec<f64> {
    match *op {
        Op::Gaussian(sigma) => vec![source.gaussian(sigma)],
        Op::ZeroSigma => vec![source.gaussian(0.0)],
        Op::Fill(sigma, len) => {
            let mut buf = vec![0.0; len];
            source.fill_gaussian(sigma, &mut buf);
            buf
        }
        Op::FillZero(len) => {
            let mut buf = vec![0.0; len];
            source.fill_gaussian(0.0, &mut buf);
            buf
        }
        Op::Ktc(cap) => vec![source.ktc(cap)],
        Op::White(density, bandwidth) => vec![source.white(density, bandwidth)],
    }
}

/// Applies `op` to the scratch reference: one `next_normal` per nonzero-σ
/// sample, nothing otherwise.
fn run_op_reference(reference: &mut ReferenceRng, op: &Op) -> Vec<f64> {
    let scaled = |reference: &mut ReferenceRng, sigma: f64| {
        if sigma == 0.0 {
            0.0
        } else {
            sigma * reference.next_normal()
        }
    };
    match *op {
        Op::Gaussian(sigma) => vec![scaled(reference, sigma)],
        Op::ZeroSigma => vec![0.0],
        Op::Fill(sigma, len) => (0..len).map(|_| scaled(reference, sigma)).collect(),
        Op::FillZero(len) => vec![0.0; len],
        Op::Ktc(cap) => vec![scaled(reference, ktc_noise_rms(cap))],
        Op::White(density, bandwidth) => vec![scaled(reference, density * bandwidth.sqrt())],
    }
}

proptest! {
    /// Any interleaving of the public drawing APIs observes the scratch
    /// reference's stream bit for bit — buffering only changes *when* the
    /// RNG advances, never what is drawn, and zero-σ operations never
    /// shift the stream.
    #[test]
    fn interleaved_draws_match_scratch_reference(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let mut source = NoiseSource::new(seed);
        let mut reference = ReferenceRng::new(seed);
        for (k, op) in ops.iter().enumerate() {
            let got = run_op(&mut source, op);
            let want = run_op_reference(&mut reference, op);
            prop_assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(),
                    "op {} ({:?}), sample {}: {} vs {}", k, op, i, g, w
                );
            }
        }
    }

    /// Chunked `fill_gaussian` with arbitrary (uneven, boundary-crossing)
    /// block lengths is bit-identical to per-call draws of the same
    /// count.
    #[test]
    fn fill_matches_per_call_across_uneven_boundaries(
        seed in 0u64..1_000_000,
        sigma in 0.01..5.0f64,
        lens in proptest::collection::vec(0usize..(NORMAL_REFILL + 90), 1..10),
    ) {
        let mut filled = NoiseSource::new(seed);
        let mut per_call = NoiseSource::new(seed);
        for len in lens {
            let mut buf = vec![0.0; len];
            filled.fill_gaussian(sigma, &mut buf);
            for (i, &z) in buf.iter().enumerate() {
                let want = per_call.gaussian(sigma);
                prop_assert_eq!(
                    z.to_bits(), want.to_bits(),
                    "len {}, sample {}: {} vs {}", len, i, z, want
                );
            }
        }
    }

    /// A disabled source is silent under every operation and never
    /// consumes a draw (its stream stays aligned with a fresh one).
    #[test]
    fn disabled_source_stays_silent_and_unconsumed(
        ops in proptest::collection::vec(op_strategy(), 1..16),
    ) {
        let mut disabled = NoiseSource::disabled();
        for op in &ops {
            for (i, z) in run_op(&mut disabled, op).iter().enumerate() {
                prop_assert_eq!(*z, 0.0, "op {:?}, sample {}", op, i);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hoisted-plan consumers: planned/batched paths vs. their scalar originals.
// ---------------------------------------------------------------------------

mod planned_consumers {
    use mixsig::noise::NoiseSource;
    use mixsig::opamp::OpAmpModel;
    use mixsig::sc::{Branch, ScIntegrator};
    use mixsig::units::Seconds;
    use proptest::prelude::*;
    use sdeval::{ModulatorPair, ModulatorState, SdmConfig, SigmaDeltaModulator};

    fn integrator(opamp: OpAmpModel, noise: Option<u64>) -> ScIntegrator {
        ScIntegrator::new(
            2.0,
            1.0e-12,
            opamp,
            Seconds(8.33e-8),
            match noise {
                Some(seed) => NoiseSource::new(seed),
                None => NoiseSource::disabled(),
            },
        )
    }

    /// The voltages where dropping an identity could show — signed zeros,
    /// subnormals and ±1e300 — mixed with ordinary levels. They drive a
    /// run of their own: once a ±1e300 lands in the state, every ordinary
    /// input after it is lost below the state's ulp.
    fn edge_voltage() -> impl Strategy<Value = f64> {
        prop_oneof![
            -0.8..0.8f64,
            Just(0.0),
            Just(-0.0),
            Just(f64::from_bits(1)),
            Just(-f64::from_bits(1)),
            Just(-f64::MIN_POSITIVE / 3.0),
            Just(1e300),
            Just(-1e300),
        ]
    }

    /// One case of `step_planned_matches_step` on a plan of `B` branches:
    /// `voltages` runs on fresh integrators, `B` voltages per cycle.
    fn planned_matches_step<const B: usize>(
        label: &str,
        opamp: OpAmpModel,
        noise: Option<u64>,
        caps: &[f64],
        exact: bool,
        voltages: &[f64],
    ) -> Result<(), String> {
        let caps: [f64; B] = caps
            .try_into()
            .map_err(|_| format!("{label}: not {B} caps"))?;
        let mut scalar = integrator(opamp, noise);
        let mut planned = integrator(opamp, noise);
        let mut forced = integrator(opamp, noise);
        // The pre-drawn path: the step's draws taken from its own plan
        // first, then applied to a state held outside the integrator,
        // whose output never moves.
        let mut drawn = integrator(opamp, noise);
        let mut state = drawn.output();
        let plan = planned.plan(&caps);
        prop_assert_eq!(plan.is_exact(), exact);
        for cycle in voltages.chunks_exact(B) {
            let cycle: [f64; B] = std::array::from_fn(|i| cycle[i]);
            let branches: Vec<Branch> = caps
                .iter()
                .zip(&cycle)
                .map(|(&c, &v)| Branch::new(c, v))
                .collect();
            let want = scalar.step(&branches);
            let got = planned.step_planned::<false, B>(&plan, cycle);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: {} vs {}",
                label,
                got,
                want
            );
            let got = forced.step_planned::<true, B>(&plan, cycle);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} (exact instantiation): {} vs {}",
                label,
                got,
                want
            );
            let ktc = drawn.draw_ktc(&plan);
            [state] = drawn.steps::<false, B, 1>(&plan, [state], cycle.map(|v| [v]), ktc);
            prop_assert_eq!(
                state.to_bits(),
                want.to_bits(),
                "{} (pre-drawn noise): {} vs {}",
                label,
                state,
                want
            );
            prop_assert_eq!(drawn.output().to_bits(), 0.0f64.to_bits());
        }
        Ok(())
    }

    proptest! {
        /// `step_planned` replays `step` bit for bit — same outputs, same
        /// noise draws in the same order — for arbitrary branch
        /// topologies (including zero-cap branches, which must not draw)
        /// and voltage sequences, on ideal and CMOS op-amp models, through
        /// both instantiations. The ideal plan is exact, so this pins the
        /// identity-free instantiation to the scalar reference; asking
        /// for that instantiation on the CMOS plan must fall back, not
        /// diverge. Ordinary voltages and edge values run on fresh
        /// integrators.
        #[test]
        fn step_planned_matches_step(
            seed in 0u64..100_000,
            caps in proptest::collection::vec(
                prop_oneof![
                    (0.0..1.0f64).prop_map(|_| 0.0),
                    0.05..4.0f64,
                    (0.05..4.0f64).prop_map(|c| -c),
                ],
                1..5,
            ),
            voltages in proptest::collection::vec(-0.8..0.8f64, 40),
            edges in proptest::collection::vec(edge_voltage(), 12),
        ) {
            for (label, opamp, noise, exact, voltages) in [
                ("ideal", OpAmpModel::ideal(), None, true, &voltages),
                ("cmos_035um", OpAmpModel::folded_cascode_035um(), Some(seed), false, &voltages),
                ("ideal, edge values", OpAmpModel::ideal(), None, true, &edges),
                ("cmos_035um, edge values", OpAmpModel::folded_cascode_035um(), Some(seed), false, &edges),
            ] {
                // The branch count is a compile-time parameter.
                macro_rules! run {
                    ($b:literal) => {
                        planned_matches_step::<$b>(label, opamp, noise, &caps, exact, voltages)?
                    };
                }
                match caps.len() {
                    1 => run!(1),
                    2 => run!(2),
                    3 => run!(3),
                    _ => run!(4),
                }
            }
        }

        /// A `ModulatorPair` counts exactly what two `step` loops over the
        /// same record decide, on both profiles — drawing each block's
        /// noise before stepping the pair's states through it must not
        /// disturb either modulator's state or noise stream. The
        /// second modulator has its own noise stream and a
        /// quarter-shifted polarity, and the record is split into two
        /// blocks, so state carried across blocks is checked too.
        #[test]
        fn sdm_block_matches_step_loop(
            seed in 0u64..100_000,
            xs in proptest::collection::vec(-0.3..0.3f64, 1..300),
            chop in 2usize..12,
        ) {
            for config in [SdmConfig::ideal(), SdmConfig::cmos_035um(seed)] {
                let qs: Vec<bool> = (0..xs.len()).map(|i| (i / chop) % 2 == 0).collect();
                let mut config_q = config.clone();
                config_q.seed = config.seed.wrapping_add(1);
                let qq: Vec<bool> = (0..xs.len()).map(|i| ((i + chop / 2) / chop) % 2 == 0).collect();
                let mut stepped_i = SigmaDeltaModulator::new(config.clone());
                let mut stepped_q = SigmaDeltaModulator::new(config_q.clone());
                let mut pair = ModulatorPair::new(
                    SigmaDeltaModulator::new(config.clone()),
                    SigmaDeltaModulator::new(config_q),
                );
                let count = |m: &mut SigmaDeltaModulator, qs: &[bool]| -> i64 {
                    xs.iter()
                        .zip(qs)
                        .map(|(&x, &q)| if m.step(x, q) { 1i64 } else { -1 })
                        .sum()
                };
                let want = (count(&mut stepped_i, &qs), count(&mut stepped_q, &qq));
                let split = xs.len() / 3;
                let polarities = || qs.iter().copied().zip(qq.iter().copied());
                let mut states = pair.states();
                let head = pair.process_block(&mut states, &xs[..split], polarities());
                let tail = pair.process_block(&mut states, &xs[split..], polarities().skip(split));
                prop_assert_eq!((head.0 + tail.0, head.1 + tail.1), want);
                let bits = |s: [ModulatorState; 2]| s.map(|s| (s.integrator.to_bits(), s.last_bit));
                prop_assert_eq!(bits(states), bits([stepped_i.state(), stepped_q.state()]));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluator: the interleaved acquisition vs. a from-scratch step loop.
// ---------------------------------------------------------------------------

mod evaluator_reference {
    use sdeval::{
        BlockSource, EvaluatorConfig, LaneSource, QuadratureSquareWave, SigmaDeltaModulator,
        SinewaveEvaluator,
    };
    use std::ops::Range;

    /// A recorded signal drained block by block, in order.
    struct Replay<'a> {
        samples: &'a [f64],
        next: usize,
    }

    impl BlockSource for Replay<'_> {
        fn fill_block(&mut self, out: &mut [f64]) {
            out.copy_from_slice(&self.samples[self.next..self.next + out.len()]);
            self.next += out.len();
        }
    }

    /// The evaluator written from its definition: two matched
    /// modulators (seeds `2s+1`, `2s+2`) stepped one sample at a time,
    /// with the polarity of sample `s` taken from `in_phase(s)` and
    /// `quadrature(s)`, one window per chop phase.
    struct Reference<'a> {
        config: EvaluatorConfig,
        mod_i: SigmaDeltaModulator,
        mod_q: SigmaDeltaModulator,
        samples: &'a [f64],
        next: usize,
    }

    impl<'a> Reference<'a> {
        fn new(config: EvaluatorConfig, samples: &'a [f64]) -> Self {
            let mut cfg_i = config.sdm.clone();
            let mut cfg_q = config.sdm.clone();
            cfg_i.seed = config.sdm.seed.wrapping_mul(2).wrapping_add(1);
            cfg_q.seed = config.sdm.seed.wrapping_mul(2).wrapping_add(2);
            Self {
                mod_i: SigmaDeltaModulator::new(cfg_i),
                mod_q: SigmaDeltaModulator::new(cfg_q),
                config,
                samples,
                next: 0,
            }
        }

        fn window(&mut self, sq: QuadratureSquareWave, m: u32, invert: bool) -> (i64, i64) {
            let (mut i1, mut i2) = (0i64, 0i64);
            for s in 0..u64::from(m) * u64::from(self.config.n) {
                let x = self.samples[self.next];
                self.next += 1;
                i1 += if self.mod_i.step(x, (sq.in_phase(s) > 0) ^ invert) {
                    1
                } else {
                    -1
                };
                i2 += if self.mod_q.step(x, (sq.quadrature(s) > 0) ^ invert) {
                    1
                } else {
                    -1
                };
            }
            (i1, i2)
        }

        /// `(I1, I2)` signatures of one measurement.
        fn signatures(&mut self, k: u32, m: u32) -> (f64, f64) {
            let sq = QuadratureSquareWave::new(k, self.config.n).unwrap();
            if self.config.chopped {
                let (a1, a2) = self.window(sq, m, false);
                let (b1, b2) = self.window(sq, m, true);
                ((a1 - b1) as f64 / 2.0, (a2 - b2) as f64 / 2.0)
            } else {
                let (a1, a2) = self.window(sq, m, false);
                (a1 as f64, a2 as f64)
            }
        }
    }

    /// Two back-to-back measurements on one evaluator (so modulator
    /// state carries across them) match the reference's signatures, for
    /// every harmonic, chop mode, hardware profile and block length.
    #[test]
    fn acquisition_matches_a_from_scratch_step_loop() {
        const M: u32 = 4;
        let samples: Vec<f64> = (0..4 * 2 * M as usize * 96)
            .map(|i| {
                let t = 2.0 * std::f64::consts::PI * i as f64 / 96.0;
                0.05 + 0.3 * (t + 0.4).sin() + 0.04 * (2.0 * t).cos() + 0.01 * (3.0 * t - 1.0).sin()
            })
            .collect();
        for (label, base) in [
            ("ideal", EvaluatorConfig::ideal()),
            ("cmos_035um", EvaluatorConfig::cmos_035um(12)),
        ] {
            for chopped in [true, false] {
                for k in 0..=3u32 {
                    let config = base.clone().with_chopped(chopped);
                    let mut reference = Reference::new(config.clone(), &samples);
                    let want = [reference.signatures(k, M), reference.signatures(k, M)];
                    for block in [1usize, 7, 1024, usize::MAX] {
                        let mut ev =
                            SinewaveEvaluator::new(config.clone().with_block_samples(block));
                        let mut source = Replay {
                            samples: &samples,
                            next: 0,
                        };
                        for (n, want) in want.iter().enumerate() {
                            let case =
                                format!("{label} chopped={chopped} k={k} block={block} #{n}");
                            let expect_samples = u64::from(M) * 96 * if chopped { 2 } else { 1 };
                            if k == 0 {
                                let dc = ev.measure_dc_blocks(&mut source, M).unwrap();
                                assert_eq!(dc.signature.to_bits(), want.0.to_bits(), "{case}");
                                assert_eq!(dc.samples_consumed, expect_samples, "{case}");
                            } else {
                                let h = ev.measure_harmonic_blocks(&mut source, k, M).unwrap();
                                assert_eq!(h.signatures.i1.to_bits(), want.0.to_bits(), "{case}");
                                assert_eq!(h.signatures.i2.to_bits(), want.1.to_bits(), "{case}");
                                assert_eq!(h.samples_consumed, expect_samples, "{case}");
                            }
                        }
                        assert_eq!(source.next, reference.next, "{label} k={k} block={block}");
                    }
                }
            }
        }
    }

    /// Every device's own recorded signal, drained as one lane: each
    /// block, every device gets the next samples of its own record.
    struct LaneReplay<'a> {
        signals: &'a [Vec<f64>],
        /// Start and length of the current block.
        start: usize,
        len: usize,
    }

    impl LaneSource for LaneReplay<'_> {
        fn devices(&self) -> usize {
            self.signals.len()
        }

        fn advance(&mut self, len: usize) {
            self.start += self.len;
            self.len = len;
        }

        fn group_block(&mut self, devices: Range<usize>, out: &mut [f64]) {
            let width = devices.len();
            assert_eq!(
                out.len(),
                width * self.len,
                "a group block is the whole block"
            );
            for (s, device) in devices.enumerate() {
                let record = &self.signals[device][self.start..self.start + self.len];
                for (row, &y) in out.chunks_exact_mut(width).zip(record) {
                    row[s] = y;
                }
            }
        }
    }

    /// Device `d`'s output: its own level, amplitude, phase and
    /// harmonic content. Device 2, the third slot of a lane's first
    /// group, sits at 1e308 V instead: its integrators run past the
    /// largest `f64`, so on ideal hardware its group's exact sums stop
    /// being finite and the block runs again through the general body.
    fn device_signal(d: usize, len: usize) -> Vec<f64> {
        if d == 2 {
            return vec![1e308; len];
        }
        let (level, gain, shift) = (
            0.01 * (d % 7) as f64 - 0.03,
            0.1 + 0.004 * (d % 53) as f64,
            0.37 * d as f64,
        );
        (0..len)
            .map(|i| {
                let t = 2.0 * std::f64::consts::PI * i as f64 / 96.0;
                level
                    + gain * (t + shift).sin()
                    + 0.2 * gain * (2.0 * t - shift).cos()
                    + 0.05 * gain * (3.0 * t + 0.5 * shift).sin()
            })
            .collect()
    }

    /// A lane of devices measures each device exactly as that device's
    /// own fresh modulators, stepped from scratch over its own signal,
    /// do — for lanes around and across the exact path's group width
    /// and the lot engine's lane size, every chop mode, hardware profile
    /// and block length. Afterwards the evaluator's noise streams and
    /// modulator state stand where the first device's acquisition alone
    /// leaves them: its next measurement matches that device's second
    /// reference measurement.
    #[test]
    fn lane_acquisition_matches_each_devices_own_step_loop() {
        const M: u32 = 4;
        let cap = netan::LANE_DEVICES;
        let group = sdeval::GROUP_DEVICES;
        let sizes = [
            1,
            2,
            group - 1,
            group,
            group + 1,
            cap - 1,
            cap,
            cap + 1,
            2 * cap + 1,
        ];
        let window = M as usize * 96;
        let signals: Vec<Vec<f64>> = (0..2 * cap + 1)
            .map(|d| device_signal(d, 4 * window))
            .collect();
        for (label, base) in [
            ("ideal", EvaluatorConfig::ideal()),
            ("cmos_035um", EvaluatorConfig::cmos_035um(12)),
        ] {
            for chopped in [true, false] {
                let consumed = window * if chopped { 2 } else { 1 };
                for k in [1u32, 3] {
                    let config = base.clone().with_chopped(chopped);
                    let want: Vec<(f64, f64)> = signals
                        .iter()
                        .map(|s| Reference::new(config.clone(), s).signatures(k, M))
                        .collect();
                    let first_again = {
                        let mut reference = Reference::new(config.clone(), &signals[0]);
                        reference.signatures(k, M);
                        reference.signatures(k, M)
                    };
                    for size in sizes {
                        for block in [1usize, 7, 1024, usize::MAX] {
                            let case = format!(
                                "{label} chopped={chopped} k={k} lane={size} block={block}"
                            );
                            let mut ev =
                                SinewaveEvaluator::new(config.clone().with_block_samples(block));
                            let mut lane = LaneReplay {
                                signals: &signals[..size],
                                start: 0,
                                len: 0,
                            };
                            let got = ev.measure_harmonic_lanes(&mut [&mut lane], k, M).unwrap();
                            assert_eq!(got.len(), size, "{case}");
                            assert_eq!(lane.start + lane.len, consumed, "{case}");
                            for (d, (h, want)) in got.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    (h.signatures.i1.to_bits(), h.signatures.i2.to_bits()),
                                    (want.0.to_bits(), want.1.to_bits()),
                                    "{case}: device {d}"
                                );
                                assert_eq!(h.samples_consumed, consumed as u64, "{case}");
                            }
                            let mut first = Replay {
                                samples: &signals[0],
                                next: consumed,
                            };
                            let again = ev.measure_harmonic_blocks(&mut first, k, M).unwrap();
                            assert_eq!(
                                (again.signatures.i1.to_bits(), again.signatures.i2.to_bits()),
                                (first_again.0.to_bits(), first_again.1.to_bits()),
                                "{case}: the evaluator after the lane"
                            );
                        }
                    }
                }
            }
        }
    }
}
