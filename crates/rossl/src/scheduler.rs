//! The Rössl scheduling loop (Fig. 2) as a stepped state machine.
//!
//! The C original:
//!
//! ```c
//! int fds_run(struct fd_scheduler *fds) {
//!   while (1) {
//!     check_sockets_until_empty(fds);            // polling phase
//!     selection_start();
//!     struct job *j = npfp_dequeue(&fds->sched); // selection phase
//!     if (!j) {
//!       idling_start();                          // idling
//!     } else {
//!       dispatch_start(j);
//!       npfp_dispatch(&fds->sched, j);           // execution phase
//!       free(j);
//!     }}}
//! ```
//!
//! Each call to [`Scheduler::advance`] performs exactly one instrumented
//! step: it emits one marker function (returned in [`Step::marker`]) and,
//! when the step needs the environment, returns a [`Request`]. The driver
//! fulfils the request and passes the [`Response`] to the next `advance`
//! call. This factoring keeps all nondeterminism (read outcomes) and all
//! timing (when each marker "happens") outside the scheduler — exactly the
//! separation the paper engineers with Caesium's instrumented semantics.

use std::fmt;
use std::sync::Arc;

use rossl_model::{Criticality, Duration, Job, JobId, Mode, MsgData, Priority, SocketId, TaskId};
use rossl_obs::{SchedDepths, SchedSink, StepCounts};
use rossl_trace::Marker;

use crate::codec::MessageCodec;
use crate::config::ClientConfig;
use crate::error::DriveError;
use crate::mode::ModePolicy;
use crate::mutation::SeededBug;
use crate::queue::NpfpQueue;
use crate::watchdog::{DegradedEvent, WatchdogConfig};

/// What the scheduler needs from its environment to proceed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Request {
    /// Perform a non-blocking `read` on the given socket; answer with
    /// [`Response::ReadResult`].
    Read(SocketId),
    /// Run the callback of the given job to completion; answer with
    /// [`Response::Executed`].
    Execute(Job),
}

/// The environment's answer to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Response {
    /// Result of a read: the received message's bytes, or `None` if no
    /// message was available.
    ReadResult(Option<MsgData>),
    /// The callback ran to completion.
    Executed,
    /// The callback ran to completion and the environment measured how
    /// long it took. Equivalent to [`Response::Executed`] unless a
    /// watchdog is installed, in which case the measurement is checked
    /// against the task's declared WCET.
    ExecutedIn(Duration),
}

/// The result of one [`Scheduler::advance`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The marker function invoked by this step (§2.2); the driver
    /// timestamps it to build the timed trace of §2.3.
    pub marker: Marker,
    /// The environment interaction this step initiated, if any.
    pub request: Option<Request>,
}

/// Where in the scheduling loop the machine currently is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum LoopState {
    /// About to issue `M_ReadS` for socket `next`.
    StartRead { next: usize, round_success: bool },
    /// A read on socket `next` is outstanding.
    AwaitRead { next: usize, round_success: bool },
    /// About to enter the selection phase.
    StartSelection,
    /// `npfp_dequeue` runs next: dispatch a job or idle.
    Decide,
    /// `M_Dispatch` was emitted; `M_Execution` comes next.
    StartExecution(Job),
    /// The callback of the job is running in the environment.
    AwaitExecution(Job),
}

/// The Rössl scheduler.
///
/// See the [crate docs](crate) for a complete driving example.
#[derive(Debug, Clone)]
pub struct Scheduler<C> {
    /// Shared immutable configuration. Behind an [`Arc`] so that cloning
    /// a scheduler — the model checker clones one per explored branch —
    /// costs a reference-count bump instead of a deep task-set copy.
    config: Arc<ClientConfig>,
    codec: C,
    queue: NpfpQueue,
    /// Fig. 6's `σ_trace.idx`: incremented on every successful read so that
    /// every job gets a unique identifier.
    next_job_id: u64,
    state: LoopState,
    jobs_completed: u64,
    watchdog: Option<WatchdogConfig>,
    degraded: bool,
    degradation: Vec<DegradedEvent>,
    /// Mixed-criticality policy (`None` = single-criticality, mode LO
    /// forever — exactly the pre-mixed-criticality machine).
    mode_policy: Option<ModePolicy>,
    /// Current criticality mode. Always [`Mode::Lo`] without a policy.
    mode: Mode,
    /// LO jobs parked while in HI mode, in suspension order. Never
    /// dropped: resumed on return to LO, counted by
    /// [`Scheduler::pending_count`], re-pended by crash recovery.
    suspended: Vec<Job>,
    /// A mode switch armed by the budget checker or the hysteresis
    /// counter, enacted at the next selection decision.
    pending_switch: Option<Mode>,
    /// Consecutive idle decisions while in HI mode (hysteresis input).
    hi_idle_streak: u64,
    /// Total LO → HI switches (feeds the adaptive hysteresis).
    lo_hi_switches: u64,
    /// Where batched loop telemetry goes; [`SchedSink::Noop`] by
    /// default, in which case a flush is one discriminant test.
    sink: SchedSink,
    /// Locally accumulated counts since the last flush — plain
    /// integers, so the per-step cost of instrumentation is ordinary
    /// arithmetic, never an atomic.
    batch: StepCounts,
    /// Mutation-testing hook (`None` in production; see [`SeededBug`]).
    seeded_bug: Option<SeededBug>,
    /// Successful-read counter driving the deterministic triggers of the
    /// read-path seeded bugs.
    bug_trigger: u64,
}

/// How many steps the scheduler accumulates locally before pushing the
/// batch to an enabled telemetry sink (flushes happen at quiescent
/// points — idle decisions and completions — so the bound is
/// approximate). Sized so the amortized atomic cost stays well inside
/// the 5% scheduler-loop overhead budget measured by experiment E19.
const TELEMETRY_FLUSH_EVERY: u64 = 256;

impl<C: MessageCodec> Scheduler<C> {
    /// Creates a scheduler for the given client configuration.
    ///
    /// The machine starts at the top of the polling phase — Def. 3.1 starts
    /// protocol runs in the idling state, whose successor is the first
    /// `M_ReadS`.
    pub fn new(config: ClientConfig, codec: C) -> Scheduler<C> {
        Scheduler::with_shared_config(Arc::new(config), codec)
    }

    /// Creates a scheduler sharing an already-[`Arc`]ed configuration —
    /// the zero-copy constructor exploration engines use when minting
    /// many schedulers over one configuration.
    pub fn with_shared_config(config: Arc<ClientConfig>, codec: C) -> Scheduler<C> {
        Scheduler {
            config,
            codec,
            queue: NpfpQueue::new(),
            next_job_id: 0,
            state: LoopState::StartRead {
                next: 0,
                round_success: false,
            },
            jobs_completed: 0,
            watchdog: None,
            degraded: false,
            degradation: Vec::new(),
            mode_policy: None,
            mode: Mode::Lo,
            suspended: Vec::new(),
            pending_switch: None,
            hi_idle_streak: 0,
            lo_hi_switches: 0,
            sink: SchedSink::Noop,
            batch: StepCounts::default(),
            seeded_bug: None,
            bug_trigger: 0,
        }
    }

    /// Creates a scheduler restarted from journal-recovered state.
    ///
    /// The supervisor rebuilds `pending` (accepted-but-uncompleted jobs,
    /// including a job whose dispatch a crash voided), the job-id
    /// counter and the completion counter from the journal's committed
    /// prefix; the machine re-enters the loop at the top of the polling
    /// phase, exactly like a fresh start — the protocol automaton treats
    /// each post-crash segment as a run from its initial state.
    ///
    /// # Errors
    ///
    /// Returns [`DriveError::UnknownTask`] if a recovered job's task is
    /// not in the configuration (a configuration/journal mismatch).
    pub fn recovered(
        config: ClientConfig,
        codec: C,
        pending: Vec<Job>,
        next_job_id: u64,
        jobs_completed: u64,
    ) -> Result<Scheduler<C>, DriveError> {
        Scheduler::recovered_shared(Arc::new(config), codec, pending, next_job_id, jobs_completed)
    }

    /// [`Scheduler::recovered`] over an already-shared configuration;
    /// avoids the deep task-set copy on the crash-sweep hot path, where a
    /// restart happens at every explored crash point.
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::recovered`].
    pub fn recovered_shared(
        config: Arc<ClientConfig>,
        codec: C,
        pending: Vec<Job>,
        next_job_id: u64,
        jobs_completed: u64,
    ) -> Result<Scheduler<C>, DriveError> {
        let mut sched = Scheduler::with_shared_config(config, codec);
        for job in pending {
            let priority = sched
                .config
                .tasks()
                .task(job.task())
                .ok_or(DriveError::UnknownTask { task: job.task().0 })?
                .priority();
            sched.queue.enqueue(job, priority);
        }
        sched.next_job_id = next_job_id;
        sched.jobs_completed = jobs_completed;
        Ok(sched)
    }

    /// Installs an execution-budget watchdog (§ graceful degradation).
    ///
    /// With a watchdog, [`Response::ExecutedIn`] measurements exceeding the
    /// executing task's WCET switch the scheduler into degraded mode: it
    /// keeps running, but sheds the pending queue down to
    /// [`WatchdogConfig::max_pending`] at every selection phase until the
    /// queue drains, emitting a [`DegradedEvent`] for every reaction.
    pub fn with_watchdog(mut self, config: WatchdogConfig) -> Scheduler<C> {
        self.watchdog = Some(config);
        self
    }

    /// Installs a mixed-criticality [`ModePolicy`] (§ mixed criticality).
    ///
    /// With an AMC-style policy, a HI-criticality task whose callback
    /// overruns its LO-mode budget `C_LO` arms a LO → HI switch, enacted
    /// at the next selection decision as a [`Marker::ModeSwitch`] step.
    /// In HI mode LO jobs are suspended (never silently dropped); the
    /// policy's hysteresis governs the return to LO, which resumes them.
    /// Composes freely with [`Scheduler::with_watchdog`]: overruns that
    /// do not arm a switch still degrade/shed as before.
    pub fn with_mode_policy(mut self, policy: ModePolicy) -> Scheduler<C> {
        self.mode_policy = Some(policy);
        self
    }

    /// Re-enters `mode` after crash recovery, parking recovered LO jobs
    /// in the suspension buffer when `mode` is HI. Pre-crash suspension
    /// events were already reported, so this emits none — the jobs were
    /// never *newly* degraded by the restart.
    pub fn resume_in_mode(mut self, mode: Mode) -> Scheduler<C> {
        self.mode = mode;
        if mode == Mode::Hi {
            self.park_ineligible_pending(false);
        }
        self
    }

    /// The current criticality mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The installed mode policy, if any.
    pub fn mode_policy(&self) -> Option<ModePolicy> {
        self.mode_policy
    }

    /// Number of LO jobs currently suspended for HI mode.
    pub fn suspended_count(&self) -> usize {
        self.suspended.len()
    }

    /// Routes batched loop telemetry to `sink` (see `rossl-obs`).
    ///
    /// The scheduler accumulates plain-integer step counts locally and
    /// flushes them to the sink at idle decisions and completions,
    /// roughly every [`TELEMETRY_FLUSH_EVERY`] steps — so enabling
    /// telemetry adds no atomic operation to the per-step path. Call
    /// [`Scheduler::flush_telemetry`] when a drive loop ends to push
    /// the final partial batch.
    pub fn with_telemetry(mut self, sink: SchedSink) -> Scheduler<C> {
        self.sink = sink;
        self
    }

    /// Installs a deliberately seeded bug for oracle mutation testing
    /// (`fuzz --teeth`). Never used by production constructors; with no
    /// bug installed the scheduler's behaviour is exactly the verified
    /// one. See [`SeededBug`] for the bug-to-oracle matrix.
    pub fn with_seeded_bug(mut self, bug: SeededBug) -> Scheduler<C> {
        self.seeded_bug = Some(bug);
        self
    }

    /// The installed seeded bug, if any (mutation testing only).
    pub fn seeded_bug(&self) -> Option<SeededBug> {
        self.seeded_bug
    }

    /// Pushes any locally accumulated step counts to the telemetry
    /// sink. A no-op when nothing accumulated or the sink is
    /// [`SchedSink::Noop`].
    pub fn flush_telemetry(&mut self) {
        if !self.batch.is_empty() {
            self.sink.flush(
                self.batch,
                SchedDepths {
                    queue: self.queue.len() as u64,
                    suspended: self.suspended.len() as u64,
                    mode: self.mode.to_byte(),
                },
            );
            self.batch = StepCounts::default();
        }
    }

    fn maybe_flush_telemetry(&mut self) {
        if self.sink.enabled() && self.batch.steps >= TELEMETRY_FLUSH_EVERY {
            self.flush_telemetry();
        }
    }

    /// The client configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// `true` while the watchdog has the scheduler in degraded mode.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Drains the degradation events recorded since the last call.
    pub fn take_degradation_events(&mut self) -> Vec<DegradedEvent> {
        std::mem::take(&mut self.degradation)
    }

    /// Number of jobs currently pending (read, not yet dispatched) —
    /// including suspended LO jobs, which remain accepted work.
    pub fn pending_count(&self) -> usize {
        self.queue.len() + self.suspended.len()
    }

    /// Number of jobs whose callbacks have completed.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Feeds a canonical digest of the scheduler's dynamic state into
    /// `hasher`: the pending queue (in read order, independent of heap
    /// layout), the job-id and completion counters, the loop position
    /// (including any job in flight), and the watchdog/degradation state.
    ///
    /// Two schedulers over the same configuration that digest equally are
    /// behaviourally indistinguishable: every future [`Scheduler::advance`]
    /// depends only on this state, the configuration, and the responses
    /// fed in. The *static* configuration and codec are deliberately not
    /// digested — exploration engines fingerprint states within a single
    /// run, where both are fixed. Telemetry state (sink and local batch)
    /// is likewise excluded: it is purely observational and must never
    /// change which states an exploration engine considers equal.
    pub fn state_digest<H: std::hash::Hasher>(&self, hasher: &mut H) {
        use std::hash::Hash;
        self.queue.digest_into(hasher);
        self.next_job_id.hash(hasher);
        self.state.hash(hasher);
        self.jobs_completed.hash(hasher);
        self.watchdog.hash(hasher);
        self.degraded.hash(hasher);
        self.degradation.hash(hasher);
        self.mode_policy.hash(hasher);
        self.mode.hash(hasher);
        self.suspended.hash(hasher);
        self.pending_switch.hash(hasher);
        self.hi_idle_streak.hash(hasher);
        self.lo_hi_switches.hash(hasher);
    }

    /// [`Scheduler::state_digest`] folded through the standard library's
    /// default hasher — the convenience form coverage-guided fuzzing uses
    /// as its state-novelty signal. The mutation-testing hook state is
    /// not digested (like telemetry, it is not part of the modelled
    /// machine).
    pub fn digest64(&self) -> u64 {
        use std::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.state_digest(&mut hasher);
        hasher.finish()
    }

    /// Performs one step of the scheduling loop: emits exactly one marker
    /// and possibly a request for the environment.
    ///
    /// # Errors
    ///
    /// Returns [`DriveError`] on protocol misuse (missing/unexpected
    /// response) or when a received message cannot be attributed to a
    /// registered task.
    pub fn advance(&mut self, response: Option<Response>) -> Result<Step, DriveError> {
        self.batch.steps += 1;
        match std::mem::replace(
            &mut self.state,
            LoopState::StartRead {
                next: 0,
                round_success: false,
            },
        ) {
            LoopState::StartRead {
                next,
                round_success,
            } => {
                self.expect_no_response(&response, "M_ReadS")?;
                self.state = LoopState::AwaitRead {
                    next,
                    round_success,
                };
                Ok(Step {
                    marker: Marker::ReadStart,
                    request: Some(Request::Read(SocketId(next))),
                })
            }
            LoopState::AwaitRead {
                next,
                round_success,
            } => {
                let data = match response {
                    Some(Response::ReadResult(d)) => d,
                    Some(_) => {
                        return Err(DriveError::UnexpectedResponse {
                            expected: "ReadResult",
                        })
                    }
                    None => {
                        return Err(DriveError::MissingResponse {
                            outstanding: "Read",
                        })
                    }
                };
                // Instrumented read semantics (Fig. 6): on success, mint a
                // fresh job id and resolve the task.
                let job = match data {
                    Some(data) => {
                        let task = self.identify(&data)?;
                        let job = Job::new(JobId(self.next_job_id), task, data);
                        self.bug_trigger += 1;
                        if !self.bug_fires(SeededBug::StaleJobId) {
                            self.next_job_id += 1;
                        }
                        let priority = self
                            .config
                            .tasks()
                            .task(task)
                            .ok_or(DriveError::UnknownTask { task: task.0 })?
                            .priority();
                        if !self.bug_fires(SeededBug::LostPendingJob) {
                            self.accept(job.clone(), priority);
                        }
                        Some(job)
                    }
                    None => None,
                };
                let success = job.is_some();
                if success {
                    self.batch.reads_ok += 1;
                } else {
                    self.batch.reads_empty += 1;
                }
                let marker = Marker::ReadEnd {
                    sock: SocketId(next),
                    job,
                };
                let round_success = round_success || success;
                self.state = if next + 1 < self.config.n_sockets() {
                    LoopState::StartRead {
                        next: next + 1,
                        round_success,
                    }
                } else if round_success {
                    // Some socket had data this round: poll another round
                    // (`check_sockets_until_empty`).
                    LoopState::StartRead {
                        next: 0,
                        round_success: false,
                    }
                } else {
                    LoopState::StartSelection
                };
                Ok(Step {
                    marker,
                    request: None,
                })
            }
            LoopState::StartSelection => {
                self.expect_no_response(&response, "M_Selection")?;
                self.state = LoopState::Decide;
                Ok(Step {
                    marker: Marker::Selection,
                    request: None,
                })
            }
            LoopState::Decide => {
                self.expect_no_response(&response, "M_Dispatch/M_Idling/M_ModeSwitch")?;
                if let Some(to) = self.pending_switch.take() {
                    // The armed mode switch takes the place of this
                    // selection decision (Def. 3.1: `M_ModeSwitch` out of
                    // the selected state, back to polling).
                    let from = self.mode;
                    self.enact_switch(to);
                    self.maybe_flush_telemetry();
                    self.state = LoopState::StartRead {
                        next: 0,
                        round_success: false,
                    };
                    return Ok(Step {
                        marker: Marker::ModeSwitch { from, to },
                        request: None,
                    });
                }
                self.shed_if_degraded();
                match self.dequeue_for_dispatch() {
                    Some(job) => {
                        self.batch.dispatches += 1;
                        self.hi_idle_streak = 0;
                        self.state = LoopState::StartExecution(job.clone());
                        Ok(Step {
                            marker: Marker::Dispatch(job),
                            request: None,
                        })
                    }
                    None => {
                        self.batch.idles += 1;
                        self.maybe_flush_telemetry();
                        if self.degraded {
                            // The backlog is gone; the guarantee can hold
                            // again from here on.
                            self.degraded = false;
                            self.degradation.push(DegradedEvent::Recovered);
                        }
                        // Hysteresis: consecutive idle decisions in HI
                        // mode prove the HI backlog is gone; past the
                        // policy threshold, arm the return to LO.
                        if self.mode == Mode::Hi {
                            self.hi_idle_streak += 1;
                            let threshold = self
                                .mode_policy
                                .and_then(|p| p.return_hysteresis(self.lo_hi_switches));
                            if threshold.is_some_and(|t| self.hi_idle_streak >= t) {
                                self.pending_switch = Some(Mode::Lo);
                            }
                        }
                        self.state = LoopState::StartRead {
                            next: 0,
                            round_success: false,
                        };
                        Ok(Step {
                            marker: Marker::Idling,
                            request: None,
                        })
                    }
                }
            }
            LoopState::StartExecution(job) => {
                self.expect_no_response(&response, "M_Execution")?;
                self.state = LoopState::AwaitExecution(job.clone());
                Ok(Step {
                    marker: Marker::Execution(job.clone()),
                    request: Some(Request::Execute(job)),
                })
            }
            LoopState::AwaitExecution(job) => {
                match response {
                    Some(Response::Executed) => {}
                    Some(Response::ExecutedIn(measured)) => {
                        self.check_budget(&job, measured)?;
                    }
                    Some(_) => {
                        return Err(DriveError::UnexpectedResponse {
                            expected: "Executed",
                        })
                    }
                    None => {
                        return Err(DriveError::MissingResponse {
                            outstanding: "Execute",
                        })
                    }
                }
                self.jobs_completed += 1;
                self.batch.completions += 1;
                self.maybe_flush_telemetry();
                self.state = LoopState::StartRead {
                    next: 0,
                    round_success: false,
                };
                Ok(Step {
                    marker: Marker::Completion(job),
                    request: None,
                })
            }
        }
    }

    /// `true` when `bug` is installed and its deterministic trigger fires
    /// for the current successful read (every second one).
    fn bug_fires(&self, bug: SeededBug) -> bool {
        self.seeded_bug == Some(bug) && self.bug_trigger % 2 == 0
    }

    /// The selection-phase dequeue, with the off-by-one mutation hook:
    /// with [`SeededBug::OffByOnePriorityPick`] installed and ≥ 2 jobs
    /// pending, the best job is put back and the runner-up dispatched.
    fn dequeue_for_dispatch(&mut self) -> Option<Job> {
        let first = self.queue.dequeue()?;
        if self.seeded_bug == Some(SeededBug::OffByOnePriorityPick) {
            if let Some(second) = self.queue.dequeue() {
                let priority = self
                    .config
                    .tasks()
                    .task(first.task())
                    .map(|t| t.priority())
                    .unwrap_or(rossl_model::Priority(0));
                self.queue.enqueue(first, priority);
                return Some(second);
            }
        }
        Some(first)
    }

    /// Routes an accepted job to the pending queue or — a LO job read
    /// while in HI mode — straight to the suspension buffer.
    fn accept(&mut self, job: Job, priority: Priority) {
        let crit = self
            .config
            .tasks()
            .task(job.task())
            .map(|t| t.criticality())
            .unwrap_or_default();
        if self.mode == Mode::Hi && crit == Criticality::Lo {
            self.batch.suspensions += 1;
            self.degradation.push(DegradedEvent::JobSuspended {
                job: job.id(),
                task: job.task(),
            });
            self.suspended.push(job);
        } else {
            self.queue.enqueue(job, priority);
        }
    }

    /// Performs an armed mode switch: entering HI parks every pending LO
    /// job; returning to LO resumes every suspended job at its static
    /// priority (JobId tie-breaking restores read order among equals).
    fn enact_switch(&mut self, to: Mode) {
        self.batch.mode_switches += 1;
        self.hi_idle_streak = 0;
        self.mode = to;
        match to {
            Mode::Hi => {
                self.lo_hi_switches += 1;
                self.park_ineligible_pending(true);
            }
            Mode::Lo => {
                for job in std::mem::take(&mut self.suspended) {
                    let priority = self
                        .config
                        .tasks()
                        .task(job.task())
                        .map(|t| t.priority())
                        .unwrap_or(Priority(0));
                    self.batch.resumes += 1;
                    self.degradation.push(DegradedEvent::JobResumed {
                        job: job.id(),
                        task: job.task(),
                    });
                    self.queue.enqueue(job, priority);
                }
            }
        }
    }

    /// Moves every pending LO job into the suspension buffer. `report`
    /// is `false` for crash re-entry, where the suspension events were
    /// already reported before the crash.
    fn park_ineligible_pending(&mut self, report: bool) {
        let mut kept = NpfpQueue::new();
        let mut parked = Vec::new();
        while let Some(job) = self.queue.dequeue() {
            let task = self.config.tasks().task(job.task());
            if task.map(|t| t.criticality()).unwrap_or_default() == Criticality::Lo {
                parked.push(job);
            } else {
                let priority = task.map(|t| t.priority()).unwrap_or(Priority(0));
                kept.enqueue(job, priority);
            }
        }
        self.queue = kept;
        // Dequeue yields priority order; park in read order so the
        // buffer (and hence the state digest) is canonical.
        parked.sort_by_key(|j| j.id());
        for job in parked {
            if report {
                self.batch.suspensions += 1;
                self.degradation.push(DegradedEvent::JobSuspended {
                    job: job.id(),
                    task: job.task(),
                });
            }
            self.suspended.push(job);
        }
    }

    /// Compares a measured execution time against the job's per-mode
    /// budget. Overruns are always recorded; a HI task blowing its
    /// `C_LO` budget in LO mode arms the AMC mode switch, every other
    /// overrun degrades the scheduler (watchdog installed only).
    fn check_budget(&mut self, job: &Job, measured: Duration) -> Result<(), DriveError> {
        if self.watchdog.is_none() && self.mode_policy.is_none() {
            return Ok(());
        }
        let task = self
            .config
            .tasks()
            .task(job.task())
            .ok_or(DriveError::UnknownTask {
                task: job.task().0,
            })?;
        let budget = match self.mode_policy {
            Some(_) => task.wcet_in_mode(self.mode),
            None => task.wcet(),
        };
        if measured <= budget {
            return Ok(());
        }
        self.batch.overruns += 1;
        self.degradation.push(DegradedEvent::WcetOverrun {
            job: job.id(),
            task: job.task(),
            budget,
            measured,
        });
        let arms_switch = self.mode == Mode::Lo
            && task.criticality() == Criticality::Hi
            && self.mode_policy.is_some_and(|p| p.switches_on_overrun());
        if arms_switch {
            // AMC: a HI task's `C_LO` overrun is the anticipated signal
            // for the mode change, not a violated guarantee — unless
            // the seeded "mode change protocol not invoked" bug eats it.
            if self.seeded_bug != Some(SeededBug::SkippedModeSwitch) {
                self.pending_switch = Some(Mode::Hi);
            }
        } else if self.watchdog.is_some() {
            self.degraded = true;
        }
        Ok(())
    }

    /// While degraded, bounds the pending queue by shedding its
    /// lowest-priority jobs before selection.
    fn shed_if_degraded(&mut self) {
        let Some(watchdog) = self.watchdog else {
            return;
        };
        if !self.degraded {
            return;
        }
        for (job, priority) in self.queue.shed_lowest(watchdog.max_pending) {
            self.batch.sheds += 1;
            self.degradation.push(DegradedEvent::JobShed {
                job: job.id(),
                task: job.task(),
                priority,
            });
        }
    }

    fn identify(&self, data: &[u8]) -> Result<TaskId, DriveError> {
        let task = self
            .codec
            .task_of(data)
            .ok_or_else(|| DriveError::UnknownMessageType {
                data: data.to_vec(),
            })?;
        if self.config.tasks().task(task).is_none() {
            return Err(DriveError::UnknownTask { task: task.0 });
        }
        Ok(task)
    }

    fn expect_no_response(
        &mut self,
        response: &Option<Response>,
        at: &'static str,
    ) -> Result<(), DriveError> {
        if response.is_some() {
            return Err(DriveError::UnexpectedResponse { expected: at });
        }
        Ok(())
    }
}

impl<C> fmt::Display for Scheduler<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Rössl: {} pending ({} suspended), {} completed, mode {}",
            self.queue.len() + self.suspended.len(),
            self.suspended.len(),
            self.jobs_completed,
            self.mode
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FirstByteCodec;
    use crate::driver::{Driver, Environment, Script, Served};
    use rossl_model::{Curve, Duration, Instant, Priority, Task, TaskSet};
    use rossl_trace::{check_functional, ProtocolAutomaton};

    fn config(n_sockets: usize) -> ClientConfig {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "low",
                Priority(1),
                Duration(10),
                Curve::sporadic(Duration(100)),
            ),
            Task::new(
                TaskId(1),
                "high",
                Priority(9),
                Duration(10),
                Curve::sporadic(Duration(100)),
            ),
        ])
        .unwrap();
        ClientConfig::new(tasks, n_sockets).unwrap()
    }

    /// Drives an already-configured scheduler with scripted reads until
    /// the script is exhausted, executing every callback immediately.
    /// Returns the trace.
    fn drive_sched(
        sched: &mut Scheduler<FirstByteCodec>,
        reads: Vec<Option<MsgData>>,
    ) -> Vec<Marker> {
        let mut driver = Driver::new(sched.clone(), Instant::ZERO);
        let mut script = Script::new(reads);
        let steps = script.run(&mut driver, usize::MAX).expect("drive ok");
        *sched = driver.into_scheduler();
        steps.into_iter().map(|t| t.marker).collect()
    }

    fn drive(n_sockets: usize, reads: Vec<Option<MsgData>>) -> Vec<Marker> {
        let mut sched = Scheduler::new(config(n_sockets), FirstByteCodec);
        drive_sched(&mut sched, reads)
    }

    /// Scripted reads; every execution reports the next measured time,
    /// 5 ticks once `times` runs out.
    struct Measured {
        script: Script,
        times: Vec<Duration>,
    }

    impl Environment for Measured {
        type Error = DriveError;

        fn read(&mut self, sock: SocketId, now: Instant) -> Served<DriveError> {
            self.script.read(sock, now)
        }

        fn execute(&mut self, _: &Job, _: Duration) -> Response {
            Response::ExecutedIn(self.times.pop().unwrap_or(Duration(5)))
        }
    }

    #[test]
    fn reproduces_fig3_structure() {
        // One socket; j1 (low) then j2 (high) arrive; then empty.
        let trace = drive(
            1,
            vec![
                Some(vec![0]), // j0: task 0 (low)
                Some(vec![1]), // j1: task 1 (high)
                None,          // polling ends
                None,          // after exec j1: poll fails
                None,          // after exec j0: poll fails
            ],
        );
        // High-priority job dispatched first.
        let dispatches: Vec<JobId> = trace
            .iter()
            .filter_map(|m| match m {
                Marker::Dispatch(j) => Some(j.id()),
                _ => None,
            })
            .collect();
        assert_eq!(dispatches, vec![JobId(1), JobId(0)]);
    }

    #[test]
    fn produced_traces_satisfy_protocol_and_functional_correctness() {
        for n in 1..=3usize {
            let script: Vec<Option<MsgData>> = (0..40)
                .map(|i| match i % 5 {
                    0 => Some(vec![(i % 2) as u8]),
                    _ => None,
                })
                .collect();
            let trace = drive(n, script);
            let run = ProtocolAutomaton::new(n).accept(&trace).expect("protocol");
            assert!(!run.actions().is_empty());
            check_functional(&trace, config(n).tasks()).expect("functional");
        }
    }

    #[test]
    fn idles_when_no_jobs() {
        let trace = drive(1, vec![None, None]);
        assert!(trace.contains(&Marker::Idling));
    }

    #[test]
    fn job_ids_are_unique_and_sequential() {
        let trace = drive(1, vec![Some(vec![0]), Some(vec![0]), Some(vec![0]), None]);
        let ids: Vec<JobId> = trace
            .iter()
            .filter_map(|m| match m {
                Marker::ReadEnd { job: Some(j), .. } => Some(j.id()),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![JobId(0), JobId(1), JobId(2)]);
    }

    #[test]
    fn unknown_message_type_errors() {
        let mut sched = Scheduler::new(config(1), FirstByteCodec);
        let _ = sched.advance(None).unwrap();
        let err = sched
            .advance(Some(Response::ReadResult(Some(vec![])))) // empty: no task byte
            .unwrap_err();
        assert!(matches!(err, DriveError::UnknownMessageType { .. }));
    }

    #[test]
    fn unregistered_task_errors() {
        let mut sched = Scheduler::new(config(1), FirstByteCodec);
        let _ = sched.advance(None).unwrap();
        let err = sched
            .advance(Some(Response::ReadResult(Some(vec![42]))))
            .unwrap_err();
        assert_eq!(err, DriveError::UnknownTask { task: 42 });
    }

    #[test]
    fn missing_response_errors() {
        let mut sched = Scheduler::new(config(1), FirstByteCodec);
        let _ = sched.advance(None).unwrap(); // M_ReadS, read outstanding
        let err = sched.advance(None).unwrap_err();
        assert!(matches!(err, DriveError::MissingResponse { .. }));
    }

    #[test]
    fn unexpected_response_errors() {
        let mut sched = Scheduler::new(config(1), FirstByteCodec);
        let err = sched.advance(Some(Response::Executed)).unwrap_err();
        assert!(matches!(err, DriveError::UnexpectedResponse { .. }));
    }

    #[test]
    fn round_robin_covers_all_sockets() {
        let trace = drive(3, vec![None, None, None]);
        let socks: Vec<SocketId> = trace
            .iter()
            .filter_map(|m| match m {
                Marker::ReadEnd { sock, .. } => Some(*sock),
                _ => None,
            })
            .collect();
        assert_eq!(socks, vec![SocketId(0), SocketId(1), SocketId(2)]);
    }

    #[test]
    fn success_triggers_another_polling_round() {
        // Socket 0 succeeds in round 1 -> round 2 must happen before
        // selection.
        let trace = drive(2, vec![Some(vec![0]), None, None, None]);
        let reads = trace
            .iter()
            .filter(|m| matches!(m, Marker::ReadEnd { .. }))
            .count();
        assert_eq!(reads, 4); // 2 rounds × 2 sockets
        assert!(trace.contains(&Marker::Selection));
    }

    #[test]
    fn watchdog_degrades_sheds_and_recovers() {
        use crate::watchdog::{DegradedEvent, WatchdogConfig};
        use rossl_model::Duration;

        let sched = Scheduler::new(config(1), FirstByteCodec).with_watchdog(WatchdogConfig::new(1));
        // Deliver 4 low-priority jobs, then a failing read ends polling;
        // the first callback blows its 10-tick budget, the rest are fine.
        let mut env = Measured {
            script: Script::new([
                Some(vec![0]),
                Some(vec![0]),
                Some(vec![0]),
                Some(vec![0]),
                None, // polling ends; overrunning dispatch follows
                None, // after exec j0: poll fails, shedding happens at Decide
                None, // after exec j1: poll fails, queue is empty -> recovery
            ]),
            times: vec![Duration(35)],
        };
        let mut driver = Driver::new(sched, Instant::ZERO);
        while driver.step(&mut env).expect("drive ok").marker != Marker::Idling {}
        let mut sched = driver.into_scheduler();
        let events = sched.take_degradation_events();
        assert!(matches!(
            events[0],
            DegradedEvent::WcetOverrun {
                job: JobId(0),
                budget: Duration(10),
                measured: Duration(35),
                ..
            }
        ));
        // 3 jobs pended after the overrun; the queue was shed down to 1.
        let shed: Vec<JobId> = events
            .iter()
            .filter_map(|e| match e {
                DegradedEvent::JobShed { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(shed, vec![JobId(3), JobId(2)]);
        assert_eq!(*events.last().unwrap(), DegradedEvent::Recovered);
        assert!(!sched.degraded());
        assert_eq!(sched.jobs_completed(), 2); // 4 read − 2 shed
    }

    #[test]
    fn executed_in_without_watchdog_is_plain_completion() {
        use rossl_model::Duration;
        let mut env = Measured {
            script: Script::new([Some(vec![0]), None]),
            times: vec![Duration(1_000_000)],
        };
        let mut driver = Driver::new(Scheduler::new(config(1), FirstByteCodec), Instant::ZERO);
        for _ in 0..8 {
            driver.step(&mut env).unwrap();
        }
        let mut sched = driver.into_scheduler();
        assert_eq!(sched.jobs_completed(), 1);
        assert!(!sched.degraded());
        assert!(sched.take_degradation_events().is_empty());
    }

    #[test]
    fn telemetry_counts_reconstruct_the_trace() {
        use rossl_obs::{Registry, SchedulerMetrics};

        let registry = Registry::new();
        let bundle = SchedulerMetrics::register(&registry);
        let mut sched = Scheduler::new(config(2), FirstByteCodec)
            .with_telemetry(SchedSink::Metrics(Arc::clone(&bundle)));
        let reads: Vec<Option<MsgData>> = vec![
            Some(vec![0]),
            None,
            Some(vec![1]),
            None,
            None,
            None,
            None,
            None,
        ];
        let trace = drive_sched(&mut sched, reads);
        sched.flush_telemetry();

        let count = |f: fn(&Marker) -> bool| trace.iter().filter(|m| f(m)).count() as u64;
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sched.steps"), Some(trace.len() as u64));
        assert_eq!(
            snap.counter("sched.reads_ok"),
            Some(count(|m| matches!(m, Marker::ReadEnd { job: Some(_), .. })))
        );
        assert_eq!(
            snap.counter("sched.reads_empty"),
            Some(count(|m| matches!(m, Marker::ReadEnd { job: None, .. })))
        );
        assert_eq!(
            snap.counter("sched.dispatches"),
            Some(count(|m| matches!(m, Marker::Dispatch(_))))
        );
        assert_eq!(
            snap.counter("sched.completions"),
            Some(count(|m| matches!(m, Marker::Completion(_))))
        );
        assert_eq!(
            snap.counter("sched.idles"),
            Some(count(|m| matches!(m, Marker::Idling)))
        );
        // The drive ended mid-read; flush_telemetry drained the batch.
        assert!(snap.counter("sched.telemetry_flushes").unwrap_or(0) >= 1);
    }

    #[test]
    fn telemetry_does_not_perturb_the_state_digest() {
        use rossl_obs::Registry;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;

        let digest = |s: &Scheduler<FirstByteCodec>| {
            let mut h = DefaultHasher::new();
            s.state_digest(&mut h);
            h.finish()
        };
        let plain = Scheduler::new(config(1), FirstByteCodec);
        let registry = Registry::new();
        let instrumented = Scheduler::new(config(1), FirstByteCodec).with_telemetry(
            SchedSink::Metrics(rossl_obs::SchedulerMetrics::register(&registry)),
        );
        assert_eq!(digest(&plain), digest(&instrumented));
    }

    #[test]
    fn seeded_off_by_one_pick_violates_priority_order() {
        use crate::mutation::SeededBug;
        let mut sched = Scheduler::new(config(1), FirstByteCodec)
            .with_seeded_bug(SeededBug::OffByOnePriorityPick);
        // Low then high arrive together: the bug dispatches low first.
        let trace = drive_sched(&mut sched, vec![Some(vec![0]), Some(vec![1]), None, None, None]);
        let err = check_functional(&trace, config(1).tasks()).unwrap_err();
        assert!(matches!(
            err,
            rossl_trace::FunctionalError::DispatchNotHighestPriority { .. }
        ));
    }

    #[test]
    fn seeded_lost_pending_job_idles_with_pending_work() {
        use crate::mutation::SeededBug;
        let mut sched =
            Scheduler::new(config(1), FirstByteCodec).with_seeded_bug(SeededBug::LostPendingJob);
        // The second successful read is accepted but silently dropped.
        let trace =
            drive_sched(&mut sched, vec![Some(vec![0]), Some(vec![0]), None, None, None, None]);
        let err = check_functional(&trace, config(1).tasks()).unwrap_err();
        assert!(matches!(
            err,
            rossl_trace::FunctionalError::IdleWithPendingJobs { .. }
        ));
        // The differential signal: the trace says one job is still pending,
        // the scheduler's own queue disagrees.
        assert_eq!(sched.pending_count(), 0);
    }

    #[test]
    fn seeded_stale_job_id_mints_a_duplicate() {
        use crate::mutation::SeededBug;
        let mut sched =
            Scheduler::new(config(1), FirstByteCodec).with_seeded_bug(SeededBug::StaleJobId);
        let trace = drive_sched(
            &mut sched,
            vec![Some(vec![0]), Some(vec![0]), Some(vec![0]), None, None, None, None],
        );
        let err = check_functional(&trace, config(1).tasks()).unwrap_err();
        assert!(matches!(err, rossl_trace::FunctionalError::DuplicateJobId { .. }));
    }

    #[test]
    fn driver_only_bugs_leave_the_scheduler_untouched() {
        use crate::mutation::SeededBug;
        let mut buggy =
            Scheduler::new(config(1), FirstByteCodec).with_seeded_bug(SeededBug::SkippedCommit);
        let mut plain = Scheduler::new(config(1), FirstByteCodec);
        let script = vec![Some(vec![0]), Some(vec![1]), None, None, None];
        assert_eq!(drive_sched(&mut buggy, script.clone()), drive_sched(&mut plain, script));
        assert_eq!(buggy.digest64(), plain.digest64());
    }

    #[test]
    fn completion_counter_advances() {
        let mut driver = Driver::new(Scheduler::new(config(1), FirstByteCodec), Instant::ZERO);
        let mut script = Script::new([Some(vec![1]), None]);
        script.run(&mut driver, 8).unwrap();
        let sched = driver.scheduler();
        assert_eq!(sched.jobs_completed(), 1);
        assert_eq!(sched.pending_count(), 0);
    }
}
