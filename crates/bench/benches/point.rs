//! Per-sample vs. block per-point acquisition cost — the wall-clock case
//! for the block pipeline. One Bode point is one full sample loop at
//! `f_eva` (generator → DUT → ΣΔ evaluator); the per-sample reference
//! drives it through the `FnMut() -> f64` closure chain, the block path
//! through `fill_block`/`process_block` with fixed-size buffers. The two
//! measurements are asserted bit-identical before any timing is printed.
//!
//! Also includes a Gaussian-synthesis microbench (per-call vs. batched
//! `fill_gaussian`), with the batched stream asserted bit-identical to
//! the per-call stream before timing.
//!
//! Run with `cargo bench --bench point`; `cargo bench --bench point --
//! --smoke` runs a reduced workload (CI exercises the bit-identity
//! assertion under `--release` with it).

use std::time::{Duration, Instant};

use ate::{DemoBoard, SignalPath};
use dut::{ActiveRcFilter, Dut};
use mixsig::clock::MasterClock;
use mixsig::units::{Hertz, Volts};
use sdeval::{EvaluatorConfig, HarmonicMeasurement, SinewaveEvaluator};
use sigen::GeneratorConfig;

#[derive(Clone, Copy)]
struct Workload {
    label: &'static str,
    cmos_seed: Option<u64>,
    periods: u32,
    warmup: u32,
}

fn gen_config(w: Workload, clk: MasterClock) -> GeneratorConfig {
    match w.cmos_seed {
        None => GeneratorConfig::ideal(clk, Volts(0.15)),
        Some(seed) => GeneratorConfig::cmos_035um(clk, Volts(0.15), seed),
    }
}

fn eval_config(w: Workload) -> EvaluatorConfig {
    match w.cmos_seed {
        None => EvaluatorConfig::ideal(),
        Some(seed) => EvaluatorConfig::cmos_035um(seed),
    }
}

fn board(w: Workload, dut: &dyn Dut, path: SignalPath) -> DemoBoard {
    let clk = MasterClock::for_stimulus(Hertz(1000.0));
    let mut b = match path {
        SignalPath::Dut => DemoBoard::new(gen_config(w, clk), dut),
        SignalPath::CalibrationBypass => DemoBoard::for_bypass(gen_config(w, clk)),
    };
    b.warm_up(w.warmup as usize);
    b
}

/// The pre-refactor reference: every sample crosses the closure chain.
fn measure_per_sample(w: Workload, dut: &dyn Dut) -> HarmonicMeasurement {
    let mut b = board(w, dut, SignalPath::Dut);
    let mut evaluator = SinewaveEvaluator::new(eval_config(w));
    let mut source = b.source();
    evaluator
        .measure_harmonic(&mut source, 1, w.periods)
        .expect("per-sample measurement failed")
}

/// The block pipeline: the board fills fixed-size blocks end to end.
fn measure_block(w: Workload, dut: &dyn Dut) -> HarmonicMeasurement {
    let mut b = board(w, dut, SignalPath::Dut);
    let mut evaluator = SinewaveEvaluator::new(eval_config(w));
    evaluator
        .measure_harmonic_blocks(&mut b, 1, w.periods)
        .expect("block measurement failed")
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (periods, warmup, reps) = if smoke { (50, 10, 3) } else { (200, 40, 10) };

    let dut = ActiveRcFilter::paper_dut();
    let workloads = [
        Workload {
            label: "ideal",
            cmos_seed: None,
            periods,
            warmup,
        },
        Workload {
            label: "cmos_035um",
            cmos_seed: Some(7),
            periods,
            warmup,
        },
    ];

    let mode = if smoke { "smoke" } else { "full" };
    for w in workloads {
        // Bit-identity gate: the block pipeline must reproduce the
        // per-sample reference exactly (amplitude, phase, signatures).
        let reference = measure_per_sample(w, &dut);
        let blocked = measure_block(w, &dut);
        assert_eq!(
            reference, blocked,
            "block pipeline diverged from the per-sample reference ({})",
            w.label
        );

        let per_sample = best_of(reps, || measure_per_sample(w, &dut));
        let block = best_of(reps, || measure_block(w, &dut));
        let speedup = per_sample.as_secs_f64() / block.as_secs_f64().max(1e-12);
        println!(
            "point_{mode}/{label}  per-sample {per_sample:>12?}   (M = {periods})",
            label = w.label
        );
        println!(
            "point_{mode}/{label}  block      {block:>12?}",
            label = w.label
        );
        println!(
            "point_{mode}/{label}  speedup    {speedup:.2}x   (bit-identical: yes)",
            label = w.label
        );

        // Regression gate only. Since the per-sample path became a
        // 1-sample `fill_block` (both paths share the batched internals
        // end to end), the ratio hovers near 1.0 and differs mainly in
        // source-chunking overhead, so "must be faster" would trip on
        // machine noise. A clear slowdown still means the block plumbing
        // broke. Smoke mode only warns: its short runs on a contended CI
        // runner are too noisy to gate on — there the bit-identity
        // assert above is the signal.
        if speedup < 0.9 {
            let diagnosis = format!(
                "block path clearly slower than per-sample on {} (per-sample {per_sample:?}, block {block:?})",
                w.label
            );
            if smoke {
                eprintln!("warning: {diagnosis}");
            } else {
                panic!("{diagnosis}");
            }
        }
    }

    // The calibration side of the same lever: a bypass acquisition now
    // skips the DUT simulation entirely.
    let w = workloads[1];
    let bypass_full = best_of(reps, || {
        let mut b = board(w, &dut, SignalPath::Dut);
        b.set_path(SignalPath::CalibrationBypass);
        let mut evaluator = SinewaveEvaluator::new(eval_config(w));
        evaluator
            .measure_harmonic_blocks(&mut b, 1, w.periods)
            .unwrap()
    });
    let bypass_skip = best_of(reps, || {
        let mut b = board(w, &dut, SignalPath::CalibrationBypass);
        let mut evaluator = SinewaveEvaluator::new(eval_config(w));
        evaluator
            .measure_harmonic_blocks(&mut b, 1, w.periods)
            .unwrap()
    });
    println!(
        "point_{mode}/calibration  with-dut {bypass_full:>12?}   dut-skipped {bypass_skip:>12?}   ({:.2}x)",
        bypass_full.as_secs_f64() / bypass_skip.as_secs_f64().max(1e-12)
    );

    noise_microbench(smoke);
}

/// Gaussian-synthesis microbench: per-call vs. batched `fill_gaussian`.
/// Batched output is asserted bit-identical to the per-call stream
/// before any timing.
fn noise_microbench(smoke: bool) {
    use criterion::{Criterion, Throughput};
    use mixsig::noise::NoiseSource;

    const BLOCK: usize = 4096;
    let blocks = if smoke { 64 } else { 1024 };
    let total = (BLOCK * blocks) as u64;

    // Bit-identity gate: one batched block must reproduce the per-call
    // stream draw for draw.
    let mut per_call = NoiseSource::new(0xA5);
    let mut batched = NoiseSource::new(0xA5);
    let mut buf = vec![0.0; BLOCK];
    batched.fill_gaussian(1.0, &mut buf);
    for (i, &z) in buf.iter().enumerate() {
        let reference = per_call.gaussian(1.0);
        assert_eq!(
            z.to_bits(),
            reference.to_bits(),
            "batched draw {i} diverged from the per-call stream"
        );
    }

    let mut c = Criterion::default();
    let mut group = c.benchmark_group(format!("noise_{}", if smoke { "smoke" } else { "full" }));
    group
        .sample_size(if smoke { 3 } else { 10 })
        .throughput(Throughput::Elements(total));

    let mut src = NoiseSource::new(1);
    group.bench_function("gaussian_per_call", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..total {
                acc += src.gaussian(1.0);
            }
            acc
        })
    });

    let mut src = NoiseSource::new(1);
    let mut buf = vec![0.0; BLOCK];
    group.bench_function("fill_gaussian_batched", |b| {
        b.iter(|| {
            for _ in 0..blocks {
                src.fill_gaussian(1.0, &mut buf);
            }
            buf[BLOCK - 1]
        })
    });

    group.finish();
}
