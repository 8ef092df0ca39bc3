//! Seeded noise sources for the behavioral models.
//!
//! Every stochastic effect in the reproduction is driven through
//! [`NoiseSource`], a seeded Gaussian generator, so experiments are
//! repeatable (the paper's Fig. 9 repeats each measurement 25 times — our
//! harness does the same with 25 seeds).
//!
//! The dominant sampled-noise mechanism in SC circuits is `kT/C` noise:
//! each sampling event freezes a noise charge with variance `kT/C` on the
//! sampling capacitor.
//!
//! ## Buffering contract
//!
//! Gaussian synthesis is batched internally: the xoshiro256++ → uniform →
//! Box–Muller pipeline refills a buffer of [`NORMAL_REFILL`] standard
//! normals at a time, so the `ln`/`cos`/`sqrt` transcendentals run over a
//! contiguous block instead of call-at-a-time. The buffering is purely a
//! scheduling change — it only alters *when* the underlying RNG advances,
//! never the observable value stream:
//!
//! * **Stream order.** The `i`-th standard normal ever *consumed* from a
//!   source is computed from raw RNG draws `2i` and `2i + 1`, exactly as
//!   the pre-buffering per-call implementation did. Any interleaving of
//!   [`NoiseSource::gaussian`], [`NoiseSource::ktc`],
//!   [`NoiseSource::white`] and [`NoiseSource::fill_gaussian`] observes
//!   the same sequence of normals as an unbatched implementation.
//! * **No-draw alignment.** `gaussian(0.0)` and every call on a
//!   [`NoiseSource::disabled`] source return `0.0` **without consuming a
//!   buffered normal** (the scalar reference would not have advanced the
//!   RNG either), so zero-σ calls never shift the stream.
//! * **Byte-identical.** The buffered path evaluates the
//!   exact same `(-2·ln u₁)·√ · cos(2π·u₂)` expressions through the same
//!   `libm` calls as before, so every golden fixture and shard/checkpoint
//!   byte-identity test is unaffected.

// No external `rand` dependency: the workspace builds fully offline, so the
// uniform source is an in-tree xoshiro256++ generator seeded via SplitMix64.

/// Boltzmann constant in J/K.
pub(crate) const BOLTZMANN: f64 = 1.380_649e-23;
/// Default simulation temperature in kelvin (27 °C).
pub(crate) const ROOM_TEMPERATURE_K: f64 = 300.15;

/// Number of standard normals synthesized per internal refill.
///
/// Small enough that a refill (2 KiB of normals + 4 KiB of raw draws on
/// the stack) stays cache-resident; large enough to amortize the batched
/// transcendental loop.
pub const NORMAL_REFILL: usize = 256;

/// A bound on every standard normal a [`NoiseSource`] draws, in
/// magnitude: Box–Muller's radius `√(−2·ln u₁)` is largest at the
/// smallest uniform the source makes, `f64::EPSILON`, where it is
/// 8.490424…, and the cosine never exceeds 1. So a draw of σ never
/// exceeds `NORMAL_CEILING·σ` in magnitude.
pub(crate) const NORMAL_CEILING: f64 = 8.4905;

/// RMS voltage of `kT/C` sampling noise for a capacitance in farads.
///
/// # Panics
///
/// Panics if `capacitance_farads` is not strictly positive (a zero or
/// negative capacitance has no physical `kT/C` variance and would
/// silently yield `inf`/NaN noise).
///
/// # Example
///
/// ```
/// use mixsig::noise::ktc_noise_rms;
/// // 1 pF ≈ 64 µV rms at room temperature.
/// let v = ktc_noise_rms(1.0e-12);
/// assert!((v - 64.4e-6).abs() < 1.0e-6);
/// ```
pub fn ktc_noise_rms(capacitance_farads: f64) -> f64 {
    assert!(
        capacitance_farads > 0.0,
        "kT/C noise requires a strictly positive capacitance, got {capacitance_farads}"
    );
    (BOLTZMANN * ROOM_TEMPERATURE_K / capacitance_farads).sqrt()
}

/// A seeded xoshiro256++ uniform generator (public-domain algorithm by
/// Blackman & Vigna), state-initialized with SplitMix64.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    state: [u64; 4],
}

impl Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed, as recommended by the authors.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    #[cfg(test)]
    fn next_u64(&mut self) -> u64 {
        let mut out = [0u64];
        self.fill_u64(&mut out);
        out[0]
    }

    /// Fills `out` with the next `out.len()` raw draws — the block
    /// generator behind the refill loop. The state round-trips through
    /// locals so the compiler keeps it in registers across the whole
    /// block.
    fn fill_u64(&mut self, out: &mut [u64]) {
        let [mut s0, mut s1, mut s2, mut s3] = self.state;
        for o in out.iter_mut() {
            *o = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
        }
        self.state = [s0, s1, s2, s3];
    }
}

/// Converts one raw draw into a uniform in `[f64::EPSILON, 1.0)` —
/// strictly positive so `ln()` in Box–Muller is finite.
#[inline(always)]
fn uniform_from_bits(raw: u64) -> f64 {
    // `v = raw >> 11` fits in 53 bits. Splitting it as `hi·2²⁶ + lo` with
    // both halves below 2²⁷ makes every conversion an exact i32→f64 (which
    // vectorizes, unlike u64→f64), and the recombination is exact integer
    // arithmetic in f64 — the result is bit-identical to a direct u64
    // conversion of `v`.
    let v = raw >> 11;
    let hi = (v >> 26) as i32;
    let lo = (v & 0x3FF_FFFF) as i32;
    let u = (f64::from(hi) * 67_108_864.0 + f64::from(lo)) * (1.0 / (1u64 << 53) as f64);
    u.max(f64::EPSILON)
}

/// De-interleaves a raw refill block into the two Box–Muller argument
/// arrays (`u1[i]` ← draw `2i`, `u2[i]` ← draw `2i + 1`), converting each
/// to a uniform. Integer-exact arithmetic throughout, so the values are
/// identical on every target.
#[inline(always)]
fn deinterleave_uniforms(
    raw: &[u64; 2 * NORMAL_REFILL],
    u1: &mut [f64; NORMAL_REFILL],
    u2: &mut [f64; NORMAL_REFILL],
) {
    for ((a, b), uv) in u1.iter_mut().zip(u2.iter_mut()).zip(raw.chunks_exact(2)) {
        *a = uniform_from_bits(uv[0]);
        *b = uniform_from_bits(uv[1]);
    }
}

/// A seeded Gaussian noise source.
#[derive(Clone)]
pub struct NoiseSource {
    rng: Xoshiro256pp,
    enabled: bool,
    /// Next unconsumed slot in `buf`; `NORMAL_REFILL` means empty.
    pos: usize,
    /// Pre-synthesized standard normals (see module docs).
    buf: [f64; NORMAL_REFILL],
}

impl std::fmt::Debug for NoiseSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoiseSource")
            .field("rng", &self.rng)
            .field("enabled", &self.enabled)
            .field("buffered", &(NORMAL_REFILL - self.pos))
            .finish()
    }
}

impl NoiseSource {
    /// Creates a noise source from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from_u64(seed),
            enabled: true,
            pos: NORMAL_REFILL,
            buf: [0.0; NORMAL_REFILL],
        }
    }

    /// A disabled source that always returns zero — the "ideal" mode.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(0)
        }
    }

    /// Whether the source produces nonzero samples.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// One zero-mean Gaussian sample with the given standard deviation.
    ///
    /// Returns `0.0` without consuming a draw when the source is disabled
    /// or `sigma == 0.0` (see the module-level buffering contract).
    #[inline]
    pub fn gaussian(&mut self, sigma: f64) -> f64 {
        if !self.enabled || sigma == 0.0 {
            return 0.0;
        }
        sigma * self.standard_normal()
    }

    /// Fills `out` with independent zero-mean Gaussian samples of standard
    /// deviation `sigma` — bit-identical to calling
    /// [`gaussian`](Self::gaussian) in a loop (including the zero-σ /
    /// disabled case, which writes zeros and consumes nothing).
    pub fn fill_gaussian(&mut self, sigma: f64, out: &mut [f64]) {
        if !self.enabled || sigma == 0.0 {
            out.fill(0.0);
            return;
        }
        let mut filled = 0;
        while filled < out.len() {
            if self.pos == NORMAL_REFILL {
                self.refill();
            }
            let take = (out.len() - filled).min(NORMAL_REFILL - self.pos);
            for (y, &z) in out[filled..filled + take]
                .iter_mut()
                .zip(&self.buf[self.pos..self.pos + take])
            {
                *y = sigma * z;
            }
            self.pos += take;
            filled += take;
        }
    }

    /// One `kT/C` noise voltage sample for a capacitance in farads.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance_farads` is not strictly positive (see
    /// [`ktc_noise_rms`]).
    pub fn ktc(&mut self, capacitance_farads: f64) -> f64 {
        self.gaussian(ktc_noise_rms(capacitance_farads))
    }

    /// One sample of a white noise voltage of the given density (V/√Hz)
    /// observed in a bandwidth of `bandwidth_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_hz` is negative (a negative bandwidth has no
    /// physical meaning and would silently yield NaN noise; zero is
    /// allowed and yields zero noise without consuming a draw).
    pub fn white(&mut self, density_v_rt_hz: f64, bandwidth_hz: f64) -> f64 {
        assert!(
            bandwidth_hz >= 0.0,
            "white noise bandwidth must be non-negative, got {bandwidth_hz}"
        );
        self.gaussian(density_v_rt_hz * bandwidth_hz.sqrt())
    }

    /// Next buffered standard normal, refilling as needed.
    #[inline]
    fn standard_normal(&mut self) -> f64 {
        if self.pos == NORMAL_REFILL {
            self.refill();
        }
        let z = self.buf[self.pos];
        self.pos += 1;
        z
    }

    /// Synthesizes the next [`NORMAL_REFILL`] standard normals in one
    /// batch: one block of raw draws, then the Box–Muller transform over
    /// the contiguous buffer. Normal `i` of the batch uses raw draws
    /// `2i` and `2i + 1` — the per-call draw order exactly.
    #[inline(never)]
    fn refill(&mut self) {
        let mut raw = [0u64; 2 * NORMAL_REFILL];
        self.rng.fill_u64(&mut raw);
        // De-interleave into struct-of-arrays form: normal `i` of the
        // batch uses raw draws `2i` (magnitude) and `2i + 1` (angle) — the
        // per-call draw order exactly.
        let mut u1 = [0.0f64; NORMAL_REFILL];
        let mut u2 = [0.0f64; NORMAL_REFILL];
        deinterleave_uniforms(&raw, &mut u1, &mut u2);
        for ((z, &a), &b) in self.buf.iter_mut().zip(u1.iter()).zip(u2.iter()) {
            // Box–Muller, through the same libm calls as the historical
            // per-call path — byte-identical stream by construction.
            *z = (-2.0 * a.ln()).sqrt() * (2.0 * std::f64::consts::PI * b).cos();
        }
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The historical per-call reference: draw two uniforms, Box–Muller.
    fn scalar_standard_normal(rng: &mut Xoshiro256pp) -> f64 {
        let u1 = uniform_from_bits(rng.next_u64());
        let u2 = uniform_from_bits(rng.next_u64());
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn normal_ceiling_bounds_box_muller() {
        // The largest radius, at the smallest uniform, through the
        // refill's own expression.
        let radius = (-2.0 * uniform_from_bits(0).ln()).sqrt();
        assert_eq!(uniform_from_bits(0), f64::EPSILON);
        assert!(
            radius < NORMAL_CEILING && NORMAL_CEILING - radius < 1e-3,
            "{radius}"
        );
        let mut source = NoiseSource::new(5);
        let mut draws = vec![0.0; 100_000];
        source.fill_gaussian(1.0, &mut draws);
        assert!(draws.iter().all(|z| z.abs() <= NORMAL_CEILING));
    }

    #[test]
    fn disabled_source_is_silent() {
        let mut n = NoiseSource::disabled();
        for _ in 0..100 {
            assert_eq!(n.gaussian(1.0), 0.0);
            assert_eq!(n.ktc(1.0e-12), 0.0);
        }
        assert!(!n.is_enabled());
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = NoiseSource::new(42);
        let mut b = NoiseSource::new(42);
        for _ in 0..32 {
            assert_eq!(a.gaussian(1.0), b.gaussian(1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::new(1);
        let mut b = NoiseSource::new(2);
        let same = (0..16)
            .filter(|_| a.gaussian(1.0) == b.gaussian(1.0))
            .count();
        assert!(same < 2);
    }

    #[test]
    fn buffered_stream_matches_scalar_reference_across_refills() {
        // > 3 refills worth of draws: the batched pipeline must reproduce
        // the per-call Box–Muller sequence bit-for-bit.
        let mut src = NoiseSource::new(1234);
        let mut rng = Xoshiro256pp::seed_from_u64(1234);
        for i in 0..(3 * NORMAL_REFILL + 17) {
            let want = scalar_standard_normal(&mut rng);
            let got = src.gaussian(1.0);
            assert_eq!(want, got, "normal {i} diverged");
        }
    }

    #[test]
    fn fill_gaussian_matches_per_sample_loop() {
        let mut by_call = NoiseSource::new(77);
        let mut by_block = NoiseSource::new(77);
        // Uneven chunks straddling several refill boundaries.
        let total = 2 * NORMAL_REFILL + 101;
        let want: Vec<f64> = (0..total).map(|_| by_call.gaussian(0.25)).collect();
        let mut got = vec![0.0; total];
        for chunk in got.chunks_mut(37) {
            by_block.fill_gaussian(0.25, chunk);
        }
        assert_eq!(want, got);
        // The two sources must stay aligned afterwards, too.
        assert_eq!(by_call.gaussian(1.0), by_block.gaussian(1.0));
    }

    #[test]
    fn zero_sigma_consumes_no_draw() {
        let mut with_zeros = NoiseSource::new(5);
        let mut without = NoiseSource::new(5);
        let a0 = with_zeros.gaussian(1.0);
        assert_eq!(with_zeros.gaussian(0.0), 0.0);
        let mut sink = [0.0; 8];
        with_zeros.fill_gaussian(0.0, &mut sink);
        assert_eq!(sink, [0.0; 8]);
        let a1 = with_zeros.gaussian(1.0);
        assert_eq!(a0, without.gaussian(1.0));
        assert_eq!(a1, without.gaussian(1.0));
    }

    #[test]
    fn gaussian_statistics() {
        let mut n = NoiseSource::new(7);
        let count = 200_000;
        let samples: Vec<f64> = (0..count).map(|_| n.gaussian(2.0)).collect();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.02, "sigma {}", var.sqrt());
    }

    #[test]
    fn ktc_scales_inverse_sqrt_c() {
        let v1 = ktc_noise_rms(1.0e-12);
        let v4 = ktc_noise_rms(4.0e-12);
        assert!((v1 / v4 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive capacitance")]
    fn zero_capacitance_rejected() {
        let _ = ktc_noise_rms(0.0);
    }

    #[test]
    #[should_panic(expected = "positive capacitance")]
    fn negative_capacitance_rejected() {
        let _ = ktc_noise_rms(-1.0e-12);
    }

    #[test]
    #[should_panic(expected = "positive capacitance")]
    fn ktc_draw_rejects_nonpositive_capacitance() {
        let mut n = NoiseSource::new(1);
        let _ = n.ktc(-1.0e-12);
    }

    #[test]
    fn white_noise_scales_with_sqrt_bandwidth() {
        let mut a = NoiseSource::new(3);
        let mut b = NoiseSource::new(3);
        let x = a.white(10e-9, 1.0e6);
        let y = b.white(10e-9, 4.0e6);
        assert!((y / x - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bandwidth_rejected() {
        let mut n = NoiseSource::new(1);
        let _ = n.white(10e-9, -1.0);
    }

    #[test]
    fn zero_bandwidth_is_silent_and_draw_free() {
        let mut a = NoiseSource::new(11);
        let mut b = NoiseSource::new(11);
        assert_eq!(a.white(10e-9, 0.0), 0.0);
        assert_eq!(a.gaussian(1.0), b.gaussian(1.0));
    }

    #[test]
    fn zero_sigma_is_zero() {
        let mut n = NoiseSource::new(9);
        assert_eq!(n.gaussian(0.0), 0.0);
    }

    #[test]
    fn raw_block_generator_matches_single_draws() {
        let mut by_one = Xoshiro256pp::seed_from_u64(99);
        let mut by_block = Xoshiro256pp::seed_from_u64(99);
        let mut block = [0u64; 1000];
        by_block.fill_u64(&mut block);
        for (i, &b) in block.iter().enumerate() {
            assert_eq!(by_one.next_u64(), b, "draw {i}");
        }
        assert_eq!(by_one.state, by_block.state);
    }
}
