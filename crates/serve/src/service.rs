//! The screening service proper: a bounded shard queue over
//! [`LotEngine`], each job sharded, merged, budgeted and persisted by
//! one [`ShardDriver`], with retry and graceful shutdown.
//!
//! # Execution model
//!
//! A submitted [`JobRequest`] becomes a [`ShardDriver`] over its seed
//! range. **Unbudgeted** jobs enqueue every shard at submission; a fixed
//! pool of worker threads steals them in any order, and the driver
//! merges them strictly in seed order — so the merged result (and every
//! streamed progress event) is byte-deterministic under any thread
//! schedule, and byte-identical to one monolithic `run_escalated_range`
//! over the whole lot. **Budgeted** jobs dispatch one shard at a time,
//! each under the remaining global budget the driver hands out, so the
//! job is byte-identical to a [`ShardDriver::drive`] with the same shard
//! size.
//!
//! Every shard runs on [`LotEngine::serial`]: the shard workers are the
//! service's only parallelism.
//!
//! # Backpressure
//!
//! The shard queue is bounded: a submission whose shards do not fit is
//! refused with a typed [`ServeError::QueueFull`] before anything is
//! queued — the client resubmits later instead of the server buffering
//! without limit. The check compares [`JobRequest::shard_count`] with the
//! free queue space before a single span is built, and admitted spans
//! come from the lazy [`JobRequest::span_iter`], so a frame asking for
//! 2⁶⁴ shards costs nothing to refuse. (A budgeted job's follow-on
//! shards bypass the check: it only ever has one shard in flight.) A
//! frame whose one shard would hold more than
//! [`MAX_SHARD_POINTS`](crate::job::MAX_SHARD_POINTS) points is a
//! `bad_frame`, so no shard past that bound is ever allocated.
//!
//! # Fault containment
//!
//! Each shard runs under `catch_unwind`. A panicking shard is retried
//! once (the submitter sees a `retry` event); a second panic fails that
//! job with a typed [`ServeError::ShardPanicked`] while every other job
//! continues. Lock poisoning is recovered everywhere via
//! [`PoisonError::into_inner`] — the protected state is only mutated in
//! whole-value assignments, so a poisoned lock cannot expose torn data.
//!
//! # Persistence
//!
//! With a state directory configured, each job's driver persists under
//! `job-<fnv64 of the rendered request>`, so a resubmitted identical job
//! loads its completed shards instead of re-measuring them
//! (`resumed: true` in the progress stream), with the same byte-exact
//! resume-equality a checkpointed drive guarantees.
//!
//! # Shutdown
//!
//! [`ScreenService::shutdown`] refuses new submissions, drops queued
//! (not-yet-started) shards, lets in-flight shards finish, persist and
//! merge, fails every still-incomplete job with a typed
//! [`ServeError::ShuttingDown`], and joins the workers.

use crate::error::ServeError;
use crate::job::{job_key, JobRequest};
use dut::ActiveRcFilter;
use mixsig::units::Seconds;
use netan::pool::panic_message;
use netan::{
    CheckpointError, EscalationSchedule, LotEngine, LotReport, NetanError, Shard, ShardDriver,
    ShardTask,
};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Deterministic fault injection for tests and the CI smoke job: the
/// first `times` executions of the shard starting at `seed_start`
/// panic with `"injected worker fault"` instead of measuring. With
/// `times == 1` the service's single retry recovers the job; with
/// `times >= 2` the job fails with a typed error.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// `seed_start` of the shard to kill.
    pub seed_start: u64,
    /// How many executions of that shard to kill (shared so tests can
    /// watch the countdown).
    pub times: Arc<AtomicU32>,
}

impl FaultPlan {
    /// Kill the shard starting at `seed_start`, `times` times.
    pub fn new(seed_start: u64, times: u32) -> Self {
        Self {
            seed_start,
            times: Arc::new(AtomicU32::new(times)),
        }
    }
}

/// Configuration of a [`ScreenService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing shards (clamped to at least 1).
    pub workers: usize,
    /// Bounded shard-queue capacity; submissions that do not fit are
    /// refused with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Checkpoint root: per-job shard persistence and resume when set.
    pub state_dir: Option<PathBuf>,
    /// Deterministic worker-fault injection (tests and CI smoke only).
    pub fault: Option<FaultPlan>,
}

impl ServiceConfig {
    /// One worker, a 64-shard queue, no persistence.
    pub fn new() -> Self {
        Self {
            workers: 1,
            queue_capacity: 64,
            state_dir: None,
            fault: None,
        }
    }

    /// Returns the config with `workers` worker threads.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns the config with a shard-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Returns the config persisting job checkpoints under `dir`.
    #[must_use]
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Returns the config with fault injection armed.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What a submitter receives over its job's event channel, in order:
/// any number of `Progress`/`Retry`, then exactly one `Done` or
/// `Failed`.
#[derive(Debug)]
pub enum JobEvent {
    /// A shard merged into the job's report prefix. Progress is emitted
    /// in seed order regardless of completion order, so the stream is
    /// deterministic.
    Progress {
        /// First seed of the merged shard.
        seed_start: u64,
        /// One past the last seed of the merged shard.
        seed_end: u64,
        /// Shards merged so far (including this one).
        done: u64,
        /// Total shard count of the job.
        total: u64,
        /// Devices screened across the merged prefix.
        devices: u64,
        /// Observed-cost ledger of the merged prefix.
        spent: Seconds,
        /// Whether the shard was loaded from a checkpoint.
        resumed: bool,
    },
    /// A worker panicked on a shard; it is being retried once.
    Retry {
        /// First seed of the retried shard.
        seed_start: u64,
        /// One past the last seed of the retried shard.
        seed_end: u64,
        /// The panic payload, rendered to text.
        message: String,
    },
    /// The job completed; the merged report.
    Done(Box<LotReport>),
    /// The job failed; sibling jobs are unaffected.
    Failed(ServeError),
}

struct Task {
    job: u64,
    span: Range<u64>,
    attempt: u32,
}

struct JobState {
    request: JobRequest,
    events: Sender<JobEvent>,
    driver: ShardDriver,
    /// Shards of this job currently executing on a worker.
    active: usize,
}

struct State {
    next_job: u64,
    queue: VecDeque<Task>,
    jobs: BTreeMap<u64, JobState>,
    shutting_down: bool,
}

struct Inner {
    state_dir: Option<PathBuf>,
    fault: Option<FaultPlan>,
    queue_capacity: usize,
    state: Mutex<State>,
    work_ready: Condvar,
}

/// The screening service: submit jobs, stream their events, shut down
/// gracefully. See the [module docs](self) for the execution model.
pub struct ScreenService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ScreenService {
    /// Starts the worker pool and returns the running service.
    pub fn start(config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            state_dir: config.state_dir,
            fault: config.fault,
            queue_capacity: config.queue_capacity,
            state: Mutex::new(State {
                next_job: 0,
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Queues a job and returns its id plus the event stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`shutdown`](Self::shutdown),
    /// [`ServeError::QueueFull`] when the job's shards do not fit the
    /// bounded queue, [`ServeError::Lot`] with
    /// [`NetanError::EmptyLot`] for an empty seed range. Nothing is
    /// queued on any error.
    pub fn submit(&self, request: JobRequest) -> Result<(u64, Receiver<JobEvent>), ServeError> {
        let mut driver = ShardDriver::new(
            request.seed_start..request.seed_end,
            request.shard_devices,
            &request.plan,
            &request.schedule,
        )?;
        if let Some(dir) = &self.inner.state_dir {
            let key = job_key(&request.render());
            driver = driver.with_dir(dir.join(format!("job-{key:016x}")), &request.dut.render());
        }
        let budgeted = request.schedule.budget().is_some();

        let mut st = self.inner.lock();
        if st.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        // Priced from the shard count before any span exists, so a
        // frame asking for 2⁶⁴ shards is refused without allocating them.
        let new_tasks = if budgeted {
            Some(1)
        } else {
            usize::try_from(request.shard_count()).ok()
        };
        let free = self.inner.queue_capacity.saturating_sub(st.queue.len());
        let Some(new_tasks) = new_tasks.filter(|&n| n <= free) else {
            return Err(ServeError::QueueFull {
                capacity: self.inner.queue_capacity,
            });
        };
        let job = st.next_job;
        st.next_job += 1;
        st.queue
            .extend(request.span_iter().take(new_tasks).map(|span| Task {
                job,
                span,
                attempt: 0,
            }));
        let (events, receiver) = channel();
        st.jobs.insert(
            job,
            JobState {
                request,
                events,
                driver,
                active: 0,
            },
        );
        self.inner.work_ready.notify_all();
        Ok((job, receiver))
    }

    /// Graceful shutdown: refuse new jobs, drop queued shards, drain
    /// in-flight shards (they finish, persist, and merge), fail every
    /// still-incomplete job with [`ServeError::ShuttingDown`], and join
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.lock();
            if !st.shutting_down {
                st.shutting_down = true;
                st.queue.clear();
                // Jobs with no in-flight shard have nothing left to
                // drain; fail them now. Jobs with in-flight shards are
                // resolved by the worker that finishes them.
                let stalled: Vec<u64> = st
                    .jobs
                    .iter()
                    .filter(|(_, j)| j.active == 0)
                    .map(|(&id, _)| id)
                    .collect();
                for id in stalled {
                    Inner::fail_job(&mut st, id, ServeError::ShuttingDown);
                }
            }
            self.inner.work_ready.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

enum TaskFailure {
    Panicked(String),
    Error(ServeError),
}

impl From<CheckpointError> for TaskFailure {
    fn from(e: CheckpointError) -> Self {
        TaskFailure::Error(ServeError::Checkpoint {
            message: e.to_string(),
        })
    }
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn worker_loop(&self) {
        loop {
            // Pop a task and pin its job in one critical section, so
            // shutdown can tell in-flight shards (active > 0) from
            // queued ones.
            let (task, request, shard) = {
                let mut st = self.lock();
                let task = loop {
                    match st.queue.pop_front() {
                        Some(task) => {
                            if let Some(job) = st.jobs.get_mut(&task.job) {
                                job.active += 1;
                                break task;
                            }
                            // The job failed while this shard was
                            // queued; drop the orphan task.
                        }
                        None => {
                            if st.shutting_down {
                                return;
                            }
                            st = self
                                .work_ready
                                .wait(st)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                };
                let job = &st.jobs[&task.job];
                let shard = job.driver.task(task.span.clone());
                (task, job.request.clone(), shard)
            };

            let outcome = self.execute(&request, shard);

            let mut st = self.lock();
            if let Some(job) = st.jobs.get_mut(&task.job) {
                job.active -= 1;
            }
            match outcome {
                Ok(shard) => self.record_shard(&mut st, &task, shard),
                Err(TaskFailure::Panicked(message)) if task.attempt == 0 => {
                    if let Some(job) = st.jobs.get(&task.job) {
                        let _ = job.events.send(JobEvent::Retry {
                            seed_start: task.span.start,
                            seed_end: task.span.end,
                            message,
                        });
                        st.queue.push_front(Task {
                            job: task.job,
                            span: task.span.clone(),
                            attempt: 1,
                        });
                        self.work_ready.notify_all();
                    }
                }
                Err(TaskFailure::Panicked(message)) => {
                    Self::fail_job(
                        &mut st,
                        task.job,
                        ServeError::ShardPanicked {
                            seed_start: task.span.start,
                            seed_end: task.span.end,
                            message,
                        },
                    );
                }
                Err(TaskFailure::Error(e)) => Self::fail_job(&mut st, task.job, e),
            }
        }
    }

    /// Runs one shard through its driver's load-or-run hook: the engine
    /// run (fault injection and panic containment included) happens only
    /// when no persisted shard can be reused.
    fn execute(&self, request: &JobRequest, shard: ShardTask) -> Result<Shard, TaskFailure> {
        shard.run(|span, schedule| {
            let run = catch_unwind(AssertUnwindSafe(|| {
                if let Some(fault) = &self.fault {
                    let armed = span.start == fault.seed_start
                        && fault
                            .times
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                            .is_ok();
                    if armed {
                        #[expect(
                            clippy::panic,
                            reason = "the FaultPlan's deliberate worker fault; the shard's catch_unwind contains it, and the shard is retried or fails with a typed error"
                        )]
                        std::panic::panic_any("injected worker fault".to_string());
                    }
                }
                run_shard(request, span, schedule)
            }));
            match run {
                Ok(report) => report.map_err(|e| TaskFailure::Error(ServeError::Lot(e))),
                Err(payload) => Err(TaskFailure::Panicked(panic_message(payload))),
            }
        })
    }

    /// Hands a finished shard to the job's driver, emitting progress for
    /// every shard it folds in seed order; then finishes the job,
    /// dispatches a budgeted job's next shard, or fails the job if
    /// shutdown dropped its remaining shards.
    fn record_shard(&self, st: &mut State, task: &Task, shard: Shard) {
        let Some(job) = st.jobs.get_mut(&task.job) else {
            return;
        };
        let total = job.request.shard_count();
        let events = &job.events;
        job.driver.record(shard, |driver, span, loaded| {
            let _ = events.send(JobEvent::Progress {
                seed_start: span.start,
                seed_end: span.end,
                done: driver.merged_shards(),
                total,
                devices: driver.merged().len() as u64,
                spent: driver.merged().spent(),
                resumed: loaded,
            });
        });

        let budgeted = job.request.schedule.budget().is_some();
        match job.driver.next_span() {
            None => {
                if let Some(job) = st.jobs.remove(&task.job) {
                    let _ = job
                        .events
                        .send(JobEvent::Done(Box::new(job.driver.finish())));
                }
            }
            // No further dispatch under shutdown; once the job's last
            // in-flight shard has drained, nothing can complete it.
            Some(_) if st.shutting_down => {
                if job.active == 0 {
                    Self::fail_job(st, task.job, ServeError::ShuttingDown);
                }
            }
            // The budgeted sequence advanced: dispatch the next shard,
            // which runs under what the merged prefix left over.
            Some(span) if budgeted => {
                st.queue.push_back(Task {
                    job: task.job,
                    span,
                    attempt: 0,
                });
                self.work_ready.notify_all();
            }
            Some(_) => {}
        }
    }

    /// Fails `job` with a terminal event, dropping its queued shards.
    /// A no-op for already-resolved jobs.
    fn fail_job(st: &mut State, job: u64, error: ServeError) {
        let Some(state) = st.jobs.remove(&job) else {
            return;
        };
        st.queue.retain(|t| t.job != job);
        let _ = state.events.send(JobEvent::Failed(error));
    }
}

/// One shard on the serial engine, under the schedule its driver handed
/// out.
fn run_shard(
    request: &JobRequest,
    span: Range<u64>,
    schedule: &EscalationSchedule,
) -> Result<LotReport, NetanError> {
    let dut = request.dut.clone();
    let factory = move |seed: u64| {
        let base = ActiveRcFilter::paper_dut();
        let base = if dut.linearized {
            base.linearized()
        } else {
            base
        };
        base.fabricate(dut.tolerance, seed)
    };
    LotEngine::serial().run_escalated_range(factory, span, &request.plan, schedule)
}
