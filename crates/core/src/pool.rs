//! The shared worker pool: pool sizing and the atomic-cursor
//! work-stealing loop under every fan-out in this crate.
//!
//! A [`LotEngine`](crate::LotEngine) has two fan-outs: its lane tasks,
//! which measure every Bode point of a lot or of a sweep (a lot of one
//! device, each refinement round one more), and the per-`k` harmonic
//! acquisitions of the distortion mode. Both are instances of the same
//! schedule: `len` independent jobs, indexed `0..len`, pulled from a
//! shared atomic cursor by `workers` scoped threads, with results written
//! into indexed slots so the output order matches the input order
//! regardless of completion order.
//!
//! Keeping the loop here (instead of one copy per fan-out) is what makes
//! the determinism argument auditable: there is exactly one scheduling
//! primitive to reason about.
//!
//! # Worker-panic containment
//!
//! A panicking job does not take the pool down with it. Each job runs
//! under `catch_unwind`; the worker that caught it keeps stealing the
//! remaining indices, and the slot mutex is recovered from poisoning via
//! [`PoisonError::into_inner`] (the protected state is only ever a whole
//! slot written in one assignment, so a poisoned lock cannot expose a
//! torn value). Once every job has been attempted, `map_indexed`
//! resumes the unwind on the calling thread with the **lowest-index**
//! panic's payload text — the panic a serial in-order run would hit
//! first.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The machine's available parallelism (1 if it cannot be determined) —
/// the sizing rule behind [`LotEngine::auto`](crate::LotEngine::auto).
///
/// Read once per process and cached: `available_parallelism` re-reads
/// the cgroup CPU quota files on every call, which costs far more than
/// building an engine.
pub(crate) fn auto_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Renders a `catch_unwind` payload to text: a `String` or `&str`
/// payload as itself, anything else as a fixed placeholder.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Runs `job(i)` for every `i in 0..len` across a pool of `workers`
/// scoped threads and returns the results in index order.
///
/// * `workers` is clamped to `1..=len`; a single worker (or a single job)
///   degenerates to a plain in-order loop on the calling thread without
///   spawning at all.
/// * Workers steal indices from a shared atomic cursor, so one expensive
///   job does not stall the jobs behind it.
/// * Results come back in index order — never completion order — so a
///   deterministic `job` makes the parallel map bit-identical to the
///   serial one.
///
/// Every job is attempted; fallible callers collect the `Result`s and
/// surface the lowest-index error, matching what a serial in-order run
/// would report.
///
/// # Panics
///
/// If a job panics, the unwind is resumed on the calling thread with the
/// lowest-index panic's payload text (`&str` and `String` payloads
/// verbatim, anything else `"non-string panic payload"`) after every
/// job has been attempted — i.e. `map_indexed` behaves like the serial
/// loop: the panic propagates, but it never poisons sibling jobs into
/// `"lock poisoned"` aborts.
pub(crate) fn map_indexed<T, F>(workers: usize, len: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, len);
    let attempt = |i: usize| catch_unwind(AssertUnwindSafe(|| job(i))).map_err(panic_message);
    let outcomes: Vec<Result<T, String>> = if workers == 1 {
        (0..len).map(attempt).collect()
    } else {
        // Indexed result slots keep output order independent of
        // completion order; the atomic cursor steals work job-by-job.
        // Locks are recovered from poisoning because each critical
        // section is a single whole-slot assignment — there is no torn
        // state a poisoned lock could expose.
        let slots: Mutex<Vec<Option<Result<T, String>>>> =
            Mutex::new((0..len).map(|_| None).collect());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    let outcome = attempt(i);
                    slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(outcome);
                });
            }
        });
        // The cursor hands every index to some worker, and a worker
        // writes its slot even when the job panics; a missing slot
        // unwinds like a panicking job instead of asserting.
        slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| Err("worker never delivered its result".to_string()))
            })
            .collect()
    };
    outcomes
        .into_iter()
        .collect::<Result<Vec<T>, String>>()
        .unwrap_or_else(|message| std::panic::resume_unwind(Box::new(message)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_threads_is_at_least_one() {
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn auto_threads_is_sized_once_per_process() {
        let first = auto_threads();
        assert!((0..100).all(|_| auto_threads() == first));
        // Calls from other threads see the same cached value.
        let others: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(auto_threads)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(others, vec![first; 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = map_indexed(4, 0, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn serial_and_parallel_preserve_index_order() {
        let serial: Vec<usize> = map_indexed(1, 100, |i| i * i);
        for workers in [2, 4, 16, 200] {
            let parallel: Vec<usize> = map_indexed(workers, 100, |i| i * i);
            assert_eq!(serial, parallel, "workers = {workers}");
        }
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let runs: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        let _: Vec<()> = map_indexed(8, 50, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    /// The panic text `map_indexed` resumes the unwind with.
    fn resumed_panic<T: Send + std::fmt::Debug>(
        workers: usize,
        len: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> String {
        let caught = catch_unwind(AssertUnwindSafe(|| map_indexed(workers, len, job))).unwrap_err();
        *caught
            .downcast::<String>()
            .expect("payload is the panic text")
    }

    #[test]
    fn try_map_surfaces_the_lowest_index_panic() {
        for workers in [1, 2, 8] {
            let message = resumed_panic(workers, 20, |i| {
                if i == 7 || i == 13 {
                    panic!("job {i} failed");
                }
                i
            });
            assert_eq!(message, "job 7 failed", "workers = {workers}");
        }
    }

    #[test]
    fn sibling_jobs_survive_a_panicking_worker() {
        use std::sync::atomic::AtomicU32;
        let runs: Vec<AtomicU32> = (0..30).map(|_| AtomicU32::new(0)).collect();
        let message = resumed_panic(4, 30, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                panic!("first job dies");
            }
            i
        });
        assert_eq!(message, "first job dies");
        // Every sibling still ran exactly once — no poisoning cascade.
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn map_indexed_resumes_the_unwind_with_the_panic_text() {
        let caught = std::panic::catch_unwind(|| {
            let _: Vec<u32> = map_indexed(2, 10, |i| {
                if i == 3 {
                    panic!("boom at {i}");
                }
                0
            });
        })
        .unwrap_err();
        let text = caught
            .downcast::<String>()
            .expect("payload is the panic text");
        assert_eq!(*text, "boom at 3");
    }

    #[test]
    fn non_string_payloads_get_a_placeholder() {
        let message = resumed_panic(1, 1, |_| -> u32 { std::panic::panic_any(42u64) });
        assert_eq!(message, "non-string panic payload");
    }
}
