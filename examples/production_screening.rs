//! Production screening: BIST go/no-go against a gain mask over a
//! Monte Carlo lot of fabricated DUTs, at throughput.
//!
//! This is the paper's motivating scenario — on-chip pass/fail without an
//! expensive ATE — with its accuracy-for-test-time trade-off run as a
//! first-class policy: an [`netan::EscalationSchedule`] screens the whole
//! lot at a cheap `M = 50`, then re-tests only the devices whose error
//! enclosure straddles a mask limit (`Ambiguous`) at `M = 200`, then
//! `M = 800` — each stage narrowing the enclosure 4× — under a total
//! simulated test-time budget. [`netan::LotEngine::run_escalated_range`] fans
//! every pass across a worker pool and amortizes the stimulus calibration
//! to one per stage.
//!
//! The schedule runs with **sequential stopping**: a re-measured device
//! is charged only the additional periods beyond its previous stage.
//! The simulation measures the re-test from scratch, so verdicts are
//! bit-equal to the staged policy at strictly less observed test time.
//! The increment is a cost model: a chopped acquisition is not a prefix
//! of a deeper one. The example prices both and prints the saving.
//!
//! Run with: `cargo run --release --example production_screening`
//!
//! ## Checkpointed mode
//!
//! With `--checkpoint <dir>` the lot is driven by
//! [`netan::ShardDriver::drive`] in 5-device shards, persisting each
//! shard as a `netan.lot.v5` document under `<dir>` and resuming from
//! whatever is already there (one directory per DUT factory: shards
//! record their configurations, not the factory). `--halt-after <k>`
//! simulates a tester power-cut after `k` shards by driving only the
//! lot's first `k` shards, which persists exactly the documents the cut
//! drive would have left; rerun without it to resume:
//!
//! ```sh
//! cargo run --release --example production_screening -- \
//!     --checkpoint target/ckpt --halt-after 2   # interrupted
//! cargo run --release --example production_screening -- \
//!     --checkpoint target/ckpt                  # resumes, completes
//! ```
//!
//! Checkpointed runs **keep the budget**: the drive hands each shard the
//! global budget minus the observed spend of every earlier shard —
//! persisted in the shard documents, so a resumed drive replays the same
//! ledger — and the merged report carries the global figure. The example
//! asserts on completion that the assembled document is byte-identical
//! to an uninterrupted in-memory drive of the same lot. (Re-test
//! admission is a function of the global seed-order ledger, so a
//! budgeted sharded drive is *not* byte-identical to a monolithic
//! `run_escalated_range` — see the sharding notes in `netan::lot`.)

use dut::ActiveRcFilter;
use mixsig::units::Seconds;
use netan::{
    lot_json, lot_table, AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan,
    ShardDriver,
};

const LOT_DEVICES: u64 = 20;
const SHARD_DEVICES: u64 = 5;
/// What the lot's factory builds: its identity in a checkpoint directory.
const FACTORY: &str = "paper DUT, linearized, 9 % parts";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut halt_after: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint" => {
                checkpoint_dir = Some(args.next().expect("--checkpoint needs a directory").into());
            }
            "--halt-after" => {
                halt_after = Some(
                    args.next()
                        .expect("--halt-after needs a shard count")
                        .parse()
                        .expect("--halt-after needs an integer"),
                );
            }
            other => panic!("unknown flag {other:?} (expected --checkpoint / --halt-after)"),
        }
    }

    let plan = LotPlan::from_mask(GainMask::paper_lowpass());
    // 9 % parts: some devices genuinely violate the mask, and some sit
    // close enough to a limit that a fast pass cannot bin them.
    // `FACTORY` names the factory to the checkpoint directory.
    let factory = |seed: u64| {
        ActiveRcFilter::paper_dut()
            .linearized()
            .fabricate(0.09, seed)
    };

    // M = 50 costs a quarter of the paper's Bode setting at 4× the
    // enclosure width; M = 800 costs 4× at a quarter of the width. The
    // budget caps the total simulated test time (the schedule's unit of
    // account, from `netan::measurement_time`).
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200, 800])
        .with_budget(Seconds(120.0))
        .sequential();

    let engine = LotEngine::auto();

    if let Some(dir) = checkpoint_dir {
        return run_checkpointed(&engine, factory, &plan, &schedule, &dir, halt_after);
    }

    println!(
        "screening {} devices across {} workers ({} stages, one calibration each)\n",
        LOT_DEVICES,
        engine.threads(),
        schedule.stages().len(),
    );
    let report = engine.run_escalated_range(factory, 0..LOT_DEVICES, &plan, &schedule)?;
    print!("{}", lot_table(&report));

    // What the escalation bought: the same deep verdicts without paying
    // the deepest stage for every device.
    let deepest = schedule.stages().len() - 1;
    let all_deep = schedule.device_stage_time(deepest, plan.grid()).value() * LOT_DEVICES as f64;
    let spent = report.spent().value();
    println!(
        "\neveryone at M = {} would cost {all_deep:.1} s of test time; escalation spent \
         {spent:.1} s ({:.1}x less)",
        schedule.stages()[deepest].periods,
        all_deep / spent,
    );

    // What sequential stopping bought on top: the staged policy re-runs a
    // re-tested device from scratch at the deeper M, charging the full
    // stage; sequential charges only the increment, with verdicts
    // bit-equal by construction.
    let staged = engine.run_escalated_range(
        factory,
        0..LOT_DEVICES,
        &plan,
        &schedule
            .clone()
            .with_stopping(netan::StoppingPolicy::Staged),
    )?;
    for (s, d) in report.devices().iter().zip(staged.devices()) {
        assert_eq!(
            (s.verdict, s.stage),
            (d.verdict, d.stage),
            "sequential stopping changed seed {}'s outcome",
            s.seed
        );
    }
    println!(
        "staged re-measurement would have spent {:.1} s; sequential stopping spent {spent:.1} s \
         for bit-equal verdicts",
        staged.spent().value(),
    );

    println!("\nmachine-readable sinks: netan::lot_csv / netan::lot_json (schema netan.lot.v5)");
    Ok(())
}

fn run_checkpointed<D, F>(
    engine: &LotEngine,
    factory: F,
    plan: &LotPlan,
    schedule: &EscalationSchedule,
    dir: &std::path::Path,
    halt_after: Option<u64>,
) -> Result<(), Box<dyn std::error::Error>>
where
    D: dut::Dut,
    F: Fn(u64) -> D + Sync + Copy,
{
    // The drive threads the budget itself: shard k runs against the
    // global budget minus the observed spend persisted by shards 0..k,
    // and the merged report carries the global figure. So a drive
    // halted after k shards has left exactly the documents of a drive
    // over those shards' seeds.
    println!(
        "checkpointed screening of {LOT_DEVICES} devices in {SHARD_DEVICES}-device shards \
         under {}\n",
        dir.display()
    );
    let driver = |lot| ShardDriver::new(lot, SHARD_DEVICES, plan, schedule);
    if let Some(k) = halt_after {
        let end = LOT_DEVICES.min(k.saturating_mul(SHARD_DEVICES));
        if end < LOT_DEVICES {
            if end > 0 {
                driver(0..end)?
                    .with_dir(dir, FACTORY)
                    .drive(engine, factory)?;
            }
            println!(
                "halted after {k} shards: {end} of {LOT_DEVICES} devices screened; \
                 rerun without --halt-after to resume"
            );
            return Ok(());
        }
    }
    let report = driver(0..LOT_DEVICES)?
        .with_dir(dir, FACTORY)
        .drive(engine, factory)?;

    print!("{}", lot_table(&report));

    // Resume-equality guarantee: a drive killed and resumed assembles
    // the same bytes as one that was never interrupted — the per-shard
    // budget remainders replay from the persisted ledgers. (A budgeted
    // sharded drive admits re-tests shard by shard, so it is compared
    // against an uninterrupted *drive*, not a monolithic run; see the
    // sharding notes in `netan::lot`.)
    let uninterrupted = driver(0..LOT_DEVICES)?.drive(engine, factory)?;
    assert_eq!(
        lot_json(&report),
        lot_json(&uninterrupted),
        "resumed document must match an uninterrupted drive byte for byte"
    );
    println!("\nresumed document verified byte-identical to an uninterrupted drive");
    Ok(())
}
