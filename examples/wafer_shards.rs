//! Wafer-scale sharding: one lot split into seed ranges, measured on
//! separate OS threads, and merged back into the **byte-identical**
//! monolithic report.
//!
//! The lot engine already fans devices across a worker pool; this
//! example shows the layer above it — [`netan::LotEngine::run_range`]
//! shards as the unit of distribution. Each shard is an independent
//! `run_range` call (its own calibration, its own thread here; on real
//! infrastructure, its own tester or host), and
//! [`netan::LotReport::merge`] folds adjacent shards associatively. The
//! punchline is asserted, not claimed: the merged document's
//! `netan.lot.v5` JSON equals the single-run document byte for byte —
//! for the plain run and for an unbudgeted escalated run under
//! sequential stopping (each shard escalates its own devices; the
//! merged stage summaries are read off the devices' observed
//! charges).
//!
//! Run with: `cargo run --release --example wafer_shards`

use dut::ActiveRcFilter;
use netan::{lot_json, lot_table, AnalyzerConfig, GainMask, LotEngine, LotPlan, LotReport};

const LOT_DEVICES: u64 = 24;
const SHARDS: u64 = 4;

fn main() -> Result<(), netan::NetanError> {
    let plan = LotPlan::from_mask(GainMask::paper_lowpass());
    let config = AnalyzerConfig::ideal().with_periods(50);
    let factory = |seed: u64| {
        ActiveRcFilter::paper_dut()
            .linearized()
            .fabricate(0.07, seed)
    };

    // One monolithic run is the reference the merged shards must hit.
    let engine = LotEngine::auto();
    let monolithic = engine.run_range(factory, 0..LOT_DEVICES, &plan, config)?;

    // The same lot as SHARDS adjacent seed ranges, one OS thread each.
    // Scoped threads borrow plan/config/engine; each shard produces a
    // self-contained report carrying its seed span.
    let per_shard = LOT_DEVICES / SHARDS;
    let shards: Vec<LotReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|i| {
                let (engine, plan) = (&engine, &plan);
                let range = i * per_shard..(i + 1) * per_shard;
                scope.spawn(move || engine.run_range(factory, range, plan, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect::<Result<_, _>>()
    })?;

    println!(
        "measured {LOT_DEVICES} devices as {SHARDS} shards of {per_shard} on separate threads:"
    );
    for shard in &shards {
        let span = shard.shard().expect("run_range always attaches a span");
        println!(
            "  seeds [{:2}, {:2}): {} pass / {} device(s)",
            span.start,
            span.end,
            shard.counts().pass,
            shard.len(),
        );
    }

    // Fold the shards back together — merge is associative, so any
    // adjacent grouping gives the same report.
    let merged = shards
        .into_iter()
        .reduce(LotReport::merge)
        .expect("at least one shard");

    let merged_json = lot_json(&merged);
    assert_eq!(
        merged_json,
        lot_json(&monolithic),
        "merged shards must reproduce the monolithic document byte for byte"
    );
    println!("\nmerged report is byte-identical to the monolithic run:\n");
    print!("{}", lot_table(&merged));

    let head: String = merged_json.chars().take(120).collect();
    println!("\nnetan.lot.v5 head: {head}…");

    // The same partition property holds for escalated screening with
    // sequential stopping, as long as the schedule is unbudgeted (a
    // budget gates re-tests on the global seed-order ledger, which a
    // shard cannot see — budgeted lots shard through
    // `netan::ShardDriver::drive`, which threads the remainder itself).
    let schedule =
        netan::EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200]).sequential();
    let esc_monolithic = engine.run_escalated_range(factory, 0..LOT_DEVICES, &plan, &schedule)?;
    let esc_merged = (0..SHARDS)
        .map(|i| {
            engine.run_escalated_range(
                factory,
                i * per_shard..(i + 1) * per_shard,
                &plan,
                &schedule,
            )
        })
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .reduce(LotReport::merge)
        .expect("at least one shard");
    assert_eq!(
        lot_json(&esc_merged),
        lot_json(&esc_monolithic),
        "merged escalated shards must reproduce the monolithic document byte for byte"
    );
    println!(
        "escalated + sequential stopping shards merge byte-identically too \
         ({} re-test(s), {:.3} s observed spend)",
        esc_merged.stages()[1..]
            .iter()
            .map(|s| s.tested)
            .sum::<usize>(),
        esc_merged.spent().value(),
    );
    Ok(())
}
