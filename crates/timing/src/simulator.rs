//! The virtual-clock simulator: produces timed traces of real scheduler
//! runs.
//!
//! The simulator plays the role of the paper's physical environment: the
//! [`Environment`] a [`Driver`] serves the scheduler's requests from. It
//! reads the socket substrate and decides (via a [`CostModel`]) how much
//! time every code segment consumes — always within the WCET table, so
//! every produced run satisfies the assumptions of Thm. 5.1 by
//! construction. Reads are linearized at the `M_ReadE` timestamp, exactly
//! where Def. 2.1 samples them.

use std::collections::BTreeMap;
use std::fmt;

use rossl::{
    marker_cost, ClientConfig, DegradedEvent, DriveError, Driver, Environment, MessageCodec,
    Response, Scheduler, Served, Timed, WatchdogConfig,
};
use rossl_model::{
    Duration, Instant, Job, JobId, ModelError, SocketId, TaskId, TaskSet, WcetTable,
};
use rossl_sockets::{ArrivalSequence, DatagramSource, ReadOutcome, SocketError, SocketSet};
use rossl_trace::Marker;

use crate::cost::{CostModel, Segment};
use crate::timed_trace::{TimedTrace, TimedTraceError};

/// Everything known about one job after a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// The job's task.
    pub task: TaskId,
    /// When the job's message arrived on its socket (`a_{i,j}`).
    pub arrived: Instant,
    /// When the job was read (timestamp of its `M_ReadE`).
    pub read_at: Instant,
    /// When the job's callback completed (timestamp of `M_Completion`),
    /// if it completed within the horizon.
    pub completed: Option<Instant>,
}

impl JobRecord {
    /// The measured response time: completion − arrival.
    pub fn response_time(&self) -> Option<Duration> {
        self.completed
            .map(|c| c.saturating_duration_since(self.arrived))
    }

    /// The measured read lag: read − arrival (the quantity release jitter
    /// bounds, §4.3).
    pub fn read_lag(&self) -> Duration {
        self.read_at.saturating_duration_since(self.arrived)
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// The WCET table violates Thm. 5.1's side conditions.
    InvalidWcet(ModelError),
    /// The scheduler rejected the driver protocol (a bug) or a message it
    /// cannot classify (a workload bug).
    Drive(DriveError),
    /// Internal error assembling the timed trace.
    Trace(TimedTraceError),
    /// The socket substrate rejected the workload (e.g. an arrival
    /// referencing a socket outside the set).
    Socket(SocketError),
    /// An internal simulator invariant failed. Replaces what used to be a
    /// panic, so fault campaigns can observe instead of abort.
    Internal(&'static str),
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::InvalidWcet(e) => write!(f, "invalid WCET table: {e}"),
            SimulationError::Drive(e) => write!(f, "scheduler drive error: {e}"),
            SimulationError::Trace(e) => write!(f, "trace assembly error: {e}"),
            SimulationError::Socket(e) => write!(f, "socket substrate error: {e}"),
            SimulationError::Internal(what) => write!(f, "simulator invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SimulationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimulationError::InvalidWcet(e) => Some(e),
            SimulationError::Drive(e) => Some(e),
            SimulationError::Trace(e) => Some(e),
            SimulationError::Socket(e) => Some(e),
            SimulationError::Internal(_) => None,
        }
    }
}

impl From<SocketError> for SimulationError {
    fn from(e: SocketError) -> SimulationError {
        SimulationError::Socket(e)
    }
}

impl From<DriveError> for SimulationError {
    fn from(e: DriveError) -> SimulationError {
        SimulationError::Drive(e)
    }
}

impl From<TimedTraceError> for SimulationError {
    fn from(e: TimedTraceError) -> SimulationError {
        SimulationError::Trace(e)
    }
}

/// The outcome of a simulated run: the timed trace plus per-job
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// The timed trace `(tr, ts)`.
    pub trace: TimedTrace,
    /// Per-job records, keyed by job id.
    pub jobs: BTreeMap<JobId, JobRecord>,
    /// The horizon `t_hrzn` up to which the run extends.
    pub horizon: Instant,
    /// Degradation events the scheduler's watchdog emitted during the run
    /// (empty without a watchdog, and for every nominal run).
    pub degradation: Vec<DegradedEvent>,
}

impl SimulationResult {
    /// Measured response times of all completed jobs.
    pub fn response_times(&self) -> impl Iterator<Item = (JobId, TaskId, Duration)> + '_ {
        self.jobs.iter().filter_map(|(&id, r)| {
            r.response_time().map(|d| (id, r.task, d))
        })
    }

    /// The worst measured response time of `task`, if any of its jobs
    /// completed.
    pub fn max_response_time(&self, task: TaskId) -> Option<Duration> {
        self.response_times()
            .filter(|&(_, t, _)| t == task)
            .map(|(_, _, d)| d)
            .max()
    }

    /// The worst measured read lag (arrival → read) over all jobs.
    pub fn max_read_lag(&self) -> Option<Duration> {
        self.jobs.values().map(JobRecord::read_lag).max()
    }

    /// Number of completed jobs.
    pub fn completed_count(&self) -> usize {
        self.jobs.values().filter(|r| r.completed.is_some()).count()
    }
}

/// Drives a [`Scheduler`] under a virtual clock against simulated sockets.
///
/// # Examples
///
/// ```
/// use rossl::{ClientConfig, FirstByteCodec};
/// use rossl_model::*;
/// use rossl_sockets::{ArrivalEvent, ArrivalSequence};
/// use rossl_timing::{Simulator, WorstCase};
///
/// let tasks = TaskSet::new(vec![Task::new(
///     TaskId(0), "t", Priority(1), Duration(10), Curve::sporadic(Duration(200)),
/// )])?;
/// let config = ClientConfig::new(tasks, 1)?;
/// let arrivals = ArrivalSequence::from_events(vec![ArrivalEvent {
///     time: Instant(5), sock: SocketId(0), task: TaskId(0),
///     msg: Message::new(vec![0]),
/// }]);
/// let sim = Simulator::new(config, FirstByteCodec, WcetTable::example(), WorstCase)?;
/// let result = sim.run(&arrivals, Instant(500))?;
/// assert_eq!(result.completed_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator<C, M> {
    /// The scheduler to drive, with its watchdog, telemetry sink and
    /// seeded bug (if any) installed.
    scheduler: Scheduler<C>,
    wcet: WcetTable,
    cost: M,
    unclamped: bool,
    /// Bound-margin observatory fed at dispatch and completion markers.
    observatory: Option<std::sync::Arc<rossl_obs::BoundObservatory>>,
}

impl<C: MessageCodec + Clone, M: CostModel> Simulator<C, M> {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidWcet`] if `wcet` violates
    /// Thm. 5.1's side conditions.
    pub fn new(
        config: ClientConfig,
        codec: C,
        wcet: WcetTable,
        cost: M,
    ) -> Result<Simulator<C, M>, SimulationError> {
        wcet.validate().map_err(SimulationError::InvalidWcet)?;
        Ok(Simulator {
            scheduler: Scheduler::new(config, codec),
            wcet,
            cost,
            unclamped: false,
            observatory: None,
        })
    }

    /// Disables the defensive clamping of cost-model picks to the WCET
    /// table.
    ///
    /// By default every pick is forced into `[1, max]`, so every produced
    /// run satisfies Thm. 5.1's assumptions by construction. Fault
    /// injection needs the opposite: an out-of-model cost model (e.g. a
    /// WCET overrun) must be allowed to actually overrun. Unclamped mode
    /// keeps the lower bound of 1 tick (the clock must advance) but lets
    /// picks exceed their budgets.
    pub fn unclamped(mut self) -> Simulator<C, M> {
        self.unclamped = true;
        self
    }

    /// Installs an execution-budget watchdog on the driven scheduler and
    /// reports measured execution times to it (see
    /// [`Scheduler::with_watchdog`]).
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Simulator<C, M> {
        self.scheduler = self.scheduler.with_watchdog(watchdog);
        self
    }

    /// Routes the driven scheduler's batched hot-path counters into
    /// `sink` (see [`rossl::Scheduler::with_telemetry`]); any batch
    /// still pending at the horizon is flushed before the result is
    /// assembled.
    pub fn with_telemetry(mut self, sink: rossl_obs::SchedSink) -> Simulator<C, M> {
        self.scheduler = self.scheduler.with_telemetry(sink);
        self
    }

    /// Feeds every dispatch wait (arrival → dispatch) and response time
    /// (arrival → completion) observed during the run into `observatory`,
    /// which compares them live against its per-task bounds. The caller
    /// keeps a clone of the [`Arc`](std::sync::Arc) to read margins and
    /// [`rossl_obs::BoundViolation`] alerts afterwards.
    pub fn with_observatory(
        mut self,
        observatory: std::sync::Arc<rossl_obs::BoundObservatory>,
    ) -> Simulator<C, M> {
        self.observatory = Some(observatory);
        self
    }

    /// Installs a deliberately seeded bug on the driven scheduler (see
    /// [`rossl::Scheduler::with_seeded_bug`]). Mutation testing only:
    /// the fuzzer's teeth mode uses this to prove its oracles detect
    /// known-broken schedulers through the timed pipeline too.
    pub fn with_seeded_bug(mut self, bug: rossl::SeededBug) -> Simulator<C, M> {
        self.scheduler = self.scheduler.with_seeded_bug(bug);
        self
    }

    /// Runs the scheduler against `arrivals` until the virtual clock
    /// passes `horizon`. Markers are emitted only at instants `≤ horizon`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimulationError::Drive`] for workload bugs
    /// (unclassifiable messages).
    pub fn run(
        self,
        arrivals: &ArrivalSequence,
        horizon: Instant,
    ) -> Result<SimulationResult, SimulationError> {
        let sockets = SocketSet::try_with_arrivals(self.scheduler.config().n_sockets(), arrivals)?;
        self.run_with(sockets, horizon)
    }

    /// Like [`Simulator::run`], but against an arbitrary
    /// [`DatagramSource`] — e.g. a fault-injecting decorator around the
    /// honest substrate.
    ///
    /// The source should expose the client configuration's socket count; a
    /// source with fewer sockets surfaces as
    /// [`SocketError::OutOfRange`] on the first read past its range.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`], plus [`SimulationError::Socket`] if the
    /// source rejects a read.
    pub fn run_with<S: DatagramSource>(
        self,
        sockets: S,
        horizon: Instant,
    ) -> Result<SimulationResult, SimulationError> {
        let mut env = SimEnv {
            sockets,
            cost: self.cost,
            wcet: self.wcet,
            tasks: self.scheduler.config().tasks().clone(),
            unclamped: self.unclamped,
            probe_spent: Duration::ZERO,
            staged_arrival: None,
        };
        let mut driver = Driver::new(self.scheduler, Instant::ZERO);

        let mut markers: Vec<Marker> = Vec::new();
        let mut timestamps: Vec<Instant> = Vec::new();
        let mut jobs: BTreeMap<JobId, JobRecord> = BTreeMap::new();

        // Every marker is stamped at the start of its segment.
        while driver.now() <= horizon {
            let Timed { marker, start, .. } = driver.step(&mut env)?;
            match &marker {
                Marker::ReadEnd { job: Some(j), .. } => {
                    let arrived = env.staged_arrival.take().ok_or(SimulationError::Internal(
                        "successful read must have a staged arrival",
                    ))?;
                    jobs.insert(
                        j.id(),
                        JobRecord {
                            task: j.task(),
                            arrived,
                            read_at: start,
                            completed: None,
                        },
                    );
                }
                Marker::Dispatch(j) => {
                    if let (Some(obs), Some(record)) = (&self.observatory, jobs.get(&j.id())) {
                        obs.observe_dispatch_wait(
                            j.task().0,
                            start.saturating_duration_since(record.arrived).ticks(),
                        );
                    }
                }
                Marker::Completion(j) => {
                    if let Some(record) = jobs.get_mut(&j.id()) {
                        record.completed = Some(start);
                        if let Some(obs) = &self.observatory {
                            // The return value is also stored in the
                            // observatory's alert buffer; the simulator
                            // observes and moves on.
                            let _ = obs.observe_completion(
                                j.task().0,
                                j.id().0,
                                start.saturating_duration_since(record.arrived).ticks(),
                            );
                        }
                    }
                }
                _ => {}
            }
            markers.push(marker);
            timestamps.push(start);
        }

        let scheduler = driver.scheduler_mut();
        scheduler.flush_telemetry();

        Ok(SimulationResult {
            trace: TimedTrace::new(markers, timestamps)?,
            jobs,
            horizon,
            degradation: scheduler.take_degradation_events(),
        })
    }
}

/// The simulator's environment: the socket substrate, read at the
/// advanced clock (a read's linearization point is its `M_ReadE`
/// timestamp), and the cost model's picks, bounded by the WCET table.
struct SimEnv<S, M> {
    sockets: S,
    cost: M,
    wcet: WcetTable,
    tasks: TaskSet,
    unclamped: bool,
    /// Duration of the in-flight read's probe, to bound its finish.
    probe_spent: Duration,
    /// The arrival instant of the message just read, staged between the
    /// read and the `M_ReadE` that names the job.
    staged_arrival: Option<Instant>,
}

impl<S: DatagramSource, M: CostModel> Environment for SimEnv<S, M> {
    type Error = SimulationError;

    fn read(&mut self, sock: SocketId, now: Instant) -> Served<SimulationError> {
        let (data, arrived) = match self.sockets.try_read(sock, now)? {
            ReadOutcome::Data { msg, arrived } => (Some(msg.into_data()), Some(arrived)),
            ReadOutcome::WouldBlock => (None, None),
        };
        self.staged_arrival = arrived;
        Ok((data, now))
    }

    /// Reports the measured execution time; without a watchdog this is
    /// equivalent to plain `Executed`.
    fn execute(&mut self, _: &Job, charged: Duration) -> Response {
        Response::ExecutedIn(charged)
    }

    fn charge(&mut self, marker: &Marker) -> Duration {
        let (segment, max) = match marker {
            // The read's WCET must leave ≥ 1 tick for the finish segment
            // for either outcome.
            Marker::ReadStart => (
                Segment::ReadProbe,
                self.wcet.failed_read.min(self.wcet.successful_read).saturating_sub(Duration(1)),
            ),
            Marker::ReadEnd { job, .. } => {
                let success = job.is_some();
                let total = if success {
                    self.wcet.successful_read
                } else {
                    self.wcet.failed_read
                };
                (
                    Segment::ReadFinish { success },
                    total.saturating_sub(self.probe_spent),
                )
            }
            Marker::Selection => (Segment::Selection, self.wcet.selection),
            Marker::Dispatch(_) => (Segment::Dispatch, self.wcet.dispatch),
            Marker::Execution(j) => (
                Segment::Execution(j.task()),
                marker_cost(marker, &self.wcet, &self.tasks),
            ),
            Marker::Completion(_) => (Segment::Completion, self.wcet.completion),
            // A mode switch is a bounded bookkeeping segment with the
            // idle iteration's budget (see `wcet_check::bound_of`).
            Marker::Idling | Marker::ModeSwitch { .. } => (Segment::Idling, self.wcet.idling),
        };
        // Defensively clamp the pick into `[1, max]` so that a buggy
        // model cannot produce WCET-violating or zero-length segments.
        // In [`Simulator::unclamped`] mode only the lower bound is kept:
        // the clock must advance, but picks may exceed their budgets —
        // that is what fault injection is for.
        let pick = self.cost.pick(segment, max).ticks();
        let d = Duration(if self.unclamped {
            pick.max(1)
        } else {
            pick.clamp(1, max.ticks().max(1))
        });
        if matches!(marker, Marker::ReadStart) {
            self.probe_spent = d;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{FixedFraction, UniformCost, WorstCase};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rossl::FirstByteCodec;
    use rossl_model::{Curve, Message, Priority, SocketId, Task, TaskSet};
    use rossl_sockets::ArrivalEvent;
    use rossl_trace::{check_functional, ProtocolAutomaton};

    use crate::consistency::check_consistency;
    use crate::wcet_check::check_wcet_compliance;

    fn two_task_config(n_sockets: usize) -> ClientConfig {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "low",
                Priority(1),
                Duration(20),
                Curve::sporadic(Duration(100)),
            ),
            Task::new(
                TaskId(1),
                "high",
                Priority(9),
                Duration(10),
                Curve::sporadic(Duration(120)),
            ),
        ])
        .unwrap();
        ClientConfig::new(tasks, n_sockets).unwrap()
    }

    fn arrival(t: u64, sock: usize, task: usize) -> ArrivalEvent {
        ArrivalEvent {
            time: Instant(t),
            sock: SocketId(sock),
            task: TaskId(task),
            msg: Message::new(vec![task as u8]),
        }
    }

    #[test]
    fn single_job_completes() {
        let arrivals = ArrivalSequence::from_events(vec![arrival(5, 0, 0)]);
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap();
        let result = sim.run(&arrivals, Instant(1000)).unwrap();
        assert_eq!(result.completed_count(), 1);
        let record = result.jobs.values().next().unwrap();
        assert_eq!(record.arrived, Instant(5));
        assert!(record.read_at > record.arrived);
        assert!(record.completed.unwrap() > record.read_at);
    }

    #[test]
    fn produced_runs_satisfy_all_paper_assumptions() {
        // The central self-check: every simulated run satisfies protocol,
        // functional correctness, WCET compliance and Def. 2.1 consistency.
        for n_sockets in [1usize, 2, 3] {
            for seed in 0..5u64 {
                let config = two_task_config(n_sockets);
                let events: Vec<ArrivalEvent> = (0..20)
                    .map(|k| arrival(7 + 61 * k, (k as usize) % n_sockets, (k % 2) as usize))
                    .collect();
                let arrivals = ArrivalSequence::from_events(events);
                let sim = Simulator::new(
                    config.clone(),
                    FirstByteCodec,
                    WcetTable::example(),
                    UniformCost::new(StdRng::seed_from_u64(seed)),
                )
                .unwrap();
                let result = sim.run(&arrivals, Instant(5_000)).unwrap();

                ProtocolAutomaton::new(n_sockets)
                    .accept(result.trace.markers())
                    .expect("protocol");
                check_functional(result.trace.markers(), config.tasks()).expect("functional");
                check_wcet_compliance(
                    &result.trace,
                    config.tasks(),
                    &WcetTable::example(),
                    n_sockets,
                )
                .expect("wcet");
                check_consistency(&result.trace, &arrivals).expect("consistency");
            }
        }
    }

    #[test]
    fn high_priority_preempts_queue_order() {
        // Both jobs arrive before the scheduler first polls; the
        // high-priority one must complete first.
        let arrivals =
            ArrivalSequence::from_events(vec![arrival(1, 0, 0), arrival(2, 0, 1)]);
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap();
        let result = sim.run(&arrivals, Instant(1000)).unwrap();
        let completions = result.trace.completions();
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].1, TaskId(1), "high priority completes first");
    }

    #[test]
    fn horizon_truncates_trace() {
        let arrivals = ArrivalSequence::new();
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap();
        let result = sim.run(&arrivals, Instant(100)).unwrap();
        assert!(result
            .trace
            .timestamps()
            .iter()
            .all(|&t| t <= Instant(100)));
        assert!(result.trace.len() > 3, "idle loop should produce markers");
    }

    #[test]
    fn faster_costs_mean_earlier_completions() {
        let arrivals = ArrivalSequence::from_events(vec![arrival(1, 0, 0)]);
        let run = |num, den| {
            Simulator::new(
                two_task_config(1),
                FirstByteCodec,
                WcetTable::example(),
                FixedFraction::new(num, den),
            )
            .unwrap()
            .run(&arrivals, Instant(1000))
            .unwrap()
            .jobs
            .values()
            .next()
            .unwrap()
            .response_time()
            .unwrap()
        };
        assert!(run(1, 2) <= run(1, 1));
    }

    #[test]
    fn read_lag_is_recorded() {
        let arrivals = ArrivalSequence::from_events(vec![arrival(50, 0, 0)]);
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap();
        let result = sim.run(&arrivals, Instant(1000)).unwrap();
        let lag = result.max_read_lag().unwrap();
        assert!(lag > Duration::ZERO);
        // With an otherwise idle system the lag is at most one idle cycle
        // plus the read itself.
        assert!(lag < Duration(50), "lag {lag} unexpectedly large");
    }

    #[test]
    fn invalid_wcet_rejected() {
        let mut wcet = WcetTable::example();
        wcet.failed_read = Duration(1);
        assert!(matches!(
            Simulator::new(two_task_config(1), FirstByteCodec, wcet, WorstCase),
            Err(SimulationError::InvalidWcet(_))
        ));
    }

    #[test]
    fn unknown_message_surfaces_as_drive_error() {
        let arrivals = ArrivalSequence::from_events(vec![ArrivalEvent {
            time: Instant(1),
            sock: SocketId(0),
            task: TaskId(0),
            msg: Message::new(vec![]), // no task byte
        }]);
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap();
        assert!(matches!(
            sim.run(&arrivals, Instant(1000)),
            Err(SimulationError::Drive(DriveError::UnknownMessageType { .. }))
        ));
    }

    #[test]
    fn observatory_sees_margins_and_no_false_alerts_in_model() {
        use rossl_obs::{BoundObservatory, Registry};
        use std::sync::Arc;

        let registry = Registry::new();
        let mut obs = BoundObservatory::new();
        // Generous bounds: an in-model run must never alert.
        obs.track(&registry, 0, "low", 10_000);
        obs.track(&registry, 1, "high", 10_000);
        let obs = Arc::new(obs);

        let arrivals =
            ArrivalSequence::from_events(vec![arrival(1, 0, 0), arrival(2, 0, 1)]);
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap()
        .with_observatory(Arc::clone(&obs));
        let result = sim.run(&arrivals, Instant(2000)).unwrap();
        assert_eq!(result.completed_count(), 2);

        assert_eq!(obs.violation_count(), 0);
        assert!(obs.alerts().is_empty());
        let snap = registry.snapshot();
        let low = snap.histogram("obs.response.low").expect("tracked");
        assert_eq!(low.count, 1);
        // The histogram saw exactly the measured response time.
        let measured = result.max_response_time(TaskId(0)).unwrap().ticks();
        assert_eq!(low.max, measured);
        assert_eq!(
            snap.gauge("obs.margin.low"),
            Some(10_000 - measured as i64)
        );
        // Dispatch waits were fed too (both jobs waited to be read).
        assert!(snap.histogram("obs.wait.high").unwrap().count >= 1);
    }

    #[test]
    fn observatory_alert_names_the_offending_job() {
        use rossl_obs::{BoundObservatory, Registry};
        use std::sync::Arc;

        let registry = Registry::new();
        let mut obs = BoundObservatory::new();
        // A 1-tick bound no real completion can meet: every completed job
        // of task 0 must alert, naming itself.
        obs.track(&registry, 0, "low", 1);
        let obs = Arc::new(obs);

        let arrivals = ArrivalSequence::from_events(vec![arrival(5, 0, 0)]);
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap()
        .with_observatory(Arc::clone(&obs));
        let result = sim.run(&arrivals, Instant(1000)).unwrap();

        let (&job_id, record) = result.jobs.iter().next().unwrap();
        let alerts = obs.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].job, job_id.0);
        assert_eq!(alerts[0].task, 0);
        assert_eq!(alerts[0].observed_ticks, record.response_time().unwrap().ticks());
        assert_eq!(alerts[0].bound_ticks, 1);
        assert!(obs.margin(0).unwrap() < 0, "broken bound drives the margin negative");
    }

    #[test]
    fn scheduler_telemetry_flows_through_the_simulator() {
        use rossl_obs::{Registry, SchedSink, SchedulerMetrics};
        use std::sync::Arc;

        let registry = Registry::new();
        let bundle = SchedulerMetrics::register(&registry);
        let arrivals =
            ArrivalSequence::from_events(vec![arrival(1, 0, 0), arrival(2, 0, 1)]);
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap()
        .with_telemetry(SchedSink::Metrics(Arc::clone(&bundle)));
        let result = sim.run(&arrivals, Instant(2000)).unwrap();

        let snap = registry.snapshot();
        // The end-of-run flush accounts for every advance call: steps
        // equal markers emitted (plus any step past the horizon cut).
        assert!(snap.counter("sched.steps").unwrap() >= result.trace.len() as u64);
        assert_eq!(snap.counter("sched.completions"), Some(2));
        assert_eq!(snap.counter("sched.dispatches"), Some(2));
        assert!(snap.counter("sched.telemetry_flushes").unwrap() >= 1);
    }

    #[test]
    fn max_response_time_filters_by_task() {
        let arrivals =
            ArrivalSequence::from_events(vec![arrival(1, 0, 0), arrival(2, 0, 1)]);
        let sim = Simulator::new(
            two_task_config(1),
            FirstByteCodec,
            WcetTable::example(),
            WorstCase,
        )
        .unwrap();
        let result = sim.run(&arrivals, Instant(2000)).unwrap();
        let low = result.max_response_time(TaskId(0)).unwrap();
        let high = result.max_response_time(TaskId(1)).unwrap();
        // The low-priority job waits for the high-priority one.
        assert!(low > high);
    }
}
