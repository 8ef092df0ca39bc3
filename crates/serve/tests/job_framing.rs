//! Property tests for the `netan.job.v1` wire framing: parse→render
//! byte identity over generated frames, and typed (never panicking)
//! rejection of truncated or garbage input.

use mixsig::units::{Hertz, Seconds, Volts};
use netan::{
    AnalyzerConfig, EscalationSchedule, GainMask, HardwareProfile, LotPlan, MaskPoint,
    StoppingPolicy,
};
use netan_serve::{ClientFrame, DutDescription, JobRequest, ServerFrame, WireError};
use proptest::collection;
use proptest::prelude::*;

fn arb_hardware() -> impl Strategy<Value = HardwareProfile> {
    prop_oneof![
        Just(HardwareProfile::Ideal),
        (0u64..1000).prop_map(|seed| HardwareProfile::Cmos035um { seed }),
    ]
}

fn arb_schedule() -> impl Strategy<Value = EscalationSchedule> {
    let stages = collection::vec((1u32..200, 0u32..50, 0.01f64..1.0, arb_hardware()), 1..4)
        .prop_map(|specs| {
            // Cumulative periods keep the escalation strictly increasing,
            // the `EscalationSchedule::new` precondition, and even
            // increments keep every M even, which the decoder checks.
            let mut m = 0u32;
            specs
                .into_iter()
                .map(|(dm, warmup, va, hardware)| {
                    m += 2 * dm;
                    let mut c = AnalyzerConfig::ideal();
                    c.periods = m;
                    c.warmup_periods = warmup;
                    c.va_diff = Volts(va);
                    c.hardware = hardware;
                    c
                })
                .collect::<Vec<_>>()
        });
    let stopping = prop_oneof![
        Just(StoppingPolicy::Staged),
        Just(StoppingPolicy::Sequential)
    ];
    let budget = prop_oneof![Just(None), (1.0f64..1.0e4).prop_map(Some)];
    (stages, stopping, budget).prop_map(|(stages, stopping, budget)| {
        let mut schedule = EscalationSchedule::new(stages).with_stopping(stopping);
        if let Some(b) = budget {
            schedule = schedule.with_budget(Seconds(b));
        }
        schedule
    })
}

fn arb_request() -> impl Strategy<Value = JobRequest> {
    let dut = (0.001f64..0.3, any::<bool>()).prop_map(|(tolerance, linearized)| DutDescription {
        tolerance,
        linearized,
    });
    let lot = (0u64..1000, 1u64..64, 1u64..16);
    let grid = collection::vec(1.0f64..1.0e7, 0..5);
    let mask =
        collection::vec((10.0f64..1.0e6, -60.0f64..0.0, 0.0f64..20.0), 1..4).prop_map(|points| {
            let mut mask = GainMask::new();
            for (freq, lo, spread) in points {
                mask = mask.with_point(MaskPoint {
                    frequency: Hertz(freq),
                    min_db: lo,
                    max_db: lo + spread,
                });
            }
            mask
        });
    ((dut, lot), (grid, mask), arb_schedule()).prop_map(
        |((dut, (start, len, shard)), (grid, mask), schedule)| {
            let grid: Vec<Hertz> = grid.into_iter().map(Hertz).collect();
            JobRequest {
                dut,
                seed_start: start,
                seed_end: start + len,
                shard_devices: shard,
                plan: LotPlan::new(&grid, mask),
                schedule,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn submit_frames_round_trip_byte_identically(request in arb_request()) {
        let frame = ClientFrame::Submit(Box::new(request));
        let line = frame.render();
        let parsed = match ClientFrame::parse(&line) {
            Ok(parsed) => parsed,
            Err(e) => return Err(format!("own render rejected: {e}\n{line}")),
        };
        prop_assert_eq!(&parsed, &frame);
        prop_assert_eq!(parsed.render(), line);
    }

    #[test]
    fn shard_spans_tile_the_lot(request in arb_request()) {
        let spans = request.spans();
        prop_assert_eq!(spans.len() as u64, request.shard_count());
        let mut cursor = request.seed_start;
        for span in &spans {
            prop_assert_eq!(span.start, cursor);
            prop_assert!(span.end - span.start <= request.shard_devices);
            cursor = span.end;
        }
        prop_assert_eq!(cursor, request.seed_end);
    }

    #[test]
    fn truncated_frames_are_typed_errors(request in arb_request()) {
        // Every strict prefix of a frame is malformed: the frame is one
        // JSON object that only closes at its final byte, and the parser
        // demands full consumption.
        let line = ClientFrame::Submit(Box::new(request)).render();
        for cut in 0..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            prop_assert!(
                ClientFrame::parse(&line[..cut]).is_err(),
                "prefix of length {cut} accepted"
            );
        }
    }

    #[test]
    fn garbage_never_panics(bytes in collection::vec(0u8..=255, 0..64)) {
        // Any byte soup must come back as a typed result; when it happens
        // to parse, its canonical re-render must round-trip.
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(frame) = ClientFrame::parse(&text) {
            let canonical = frame.render();
            prop_assert_eq!(
                ClientFrame::parse(&canonical).map(|f| f.render()),
                Ok(canonical)
            );
        }
        if let Ok(frame) = ServerFrame::parse(&text) {
            let canonical = frame.render();
            prop_assert_eq!(
                ServerFrame::parse(&canonical).map(|f| f.render()),
                Ok(canonical)
            );
        }
    }

    #[test]
    fn server_frames_round_trip_byte_identically(
        (job, seeds, counts) in (0u64..100, (0u64..1000, 1u64..100), (1u64..20, 1u64..20)),
        spent in 0.0f64..1.0e5,
        resumed in any::<bool>(),
        message in collection::vec(0u8..=255, 0..24),
    ) {
        let (seed_start, len) = seeds;
        let (done, extra) = counts;
        let message = String::from_utf8_lossy(&message).into_owned();
        let frames = [
            ServerFrame::Accepted { job, shards: done + extra },
            ServerFrame::Progress {
                job,
                seed_start,
                seed_end: seed_start + len,
                done,
                total: done + extra,
                devices: len,
                spent_s: spent,
                resumed,
            },
            ServerFrame::Retry {
                job,
                seed_start,
                seed_end: seed_start + len,
                message: message.clone(),
            },
            ServerFrame::Rejected {
                error: WireError::QueueFull { capacity: extra },
            },
            ServerFrame::Rejected {
                error: WireError::BadFrame { message: message.clone() },
            },
            ServerFrame::Rejected {
                error: WireError::TooManyConnections { limit: done + extra },
            },
            ServerFrame::Error {
                job,
                error: WireError::ShardPanicked {
                    seed_start,
                    seed_end: seed_start + len,
                    message,
                },
            },
            ServerFrame::Bye,
        ];
        for frame in frames {
            let line = frame.render();
            let parsed = match ServerFrame::parse(&line) {
                Ok(parsed) => parsed,
                Err(e) => return Err(format!("own render rejected: {e}\n{line}")),
            };
            prop_assert_eq!(&parsed, &frame);
            prop_assert_eq!(parsed.render(), line, "{}", line);
        }
    }
}
