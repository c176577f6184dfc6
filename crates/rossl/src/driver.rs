//! The one drive loop: a [`Scheduler`] served by an [`Environment`]
//! under a virtual clock. The timed simulator, the fuzzer, the fleet and
//! the tests differ only in their environment. DESIGN §5.4 gives the
//! protocol: one serve phase, and stopping is not taking the next step.

use std::collections::VecDeque;

use rossl_model::{Duration, Instant, Job, MsgData, SocketId, TaskSet, WcetTable};
use rossl_trace::Marker;

use crate::codec::MessageCodec;
use crate::error::DriveError;
use crate::scheduler::{Request, Response, Scheduler, Step};

/// A served read: the message (or `None`) and the instant the read took
/// effect.
pub type Served<E> = Result<(Option<MsgData>, Instant), E>;

/// The world a [`Driver`] serves the scheduler from. By default every
/// callback completes within budget and every marker costs one tick.
pub trait Environment {
    /// How serving a read can fail; scheduler drive errors convert into
    /// it.
    type Error: From<DriveError>;

    /// Serves a read on `sock` at virtual time `now`. The read takes
    /// effect at `now`, or at a later idle wakeup the clock
    /// fast-forwards to.
    ///
    /// # Errors
    ///
    /// Whatever the environment's transport rejects.
    fn read(&mut self, sock: SocketId, now: Instant) -> Served<Self::Error>;

    /// Answers the execution of `job`, whose segment was just charged
    /// `charged`.
    fn execute(&mut self, _job: &Job, _charged: Duration) -> Response {
        Response::Executed
    }

    /// The duration of the segment `marker` starts.
    fn charge(&mut self, _marker: &Marker) -> Duration {
        Duration(1)
    }
}

/// One driven step: the marker and the instants its segment starts and
/// ends. The simulator stamps a marker with `start`; journals stamp it
/// with `end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timed {
    /// The marker the step emitted.
    pub marker: Marker,
    /// Clock reading when the marker was emitted.
    pub start: Instant,
    /// Clock reading after its segment was charged.
    pub end: Instant,
}

/// A scheduler, its virtual clock, and the request its last `advance`
/// returned.
///
/// # Examples
///
/// ```
/// use rossl::{ClientConfig, Driver, FirstByteCodec, Scheduler, Script};
/// use rossl_model::*;
/// use rossl_trace::Marker;
///
/// let tasks = TaskSet::new(vec![Task::new(
///     TaskId(0), "blink", Priority(1), Duration(10), Curve::sporadic(Duration(100)),
/// )])?;
/// let sched = Scheduler::new(ClientConfig::new(tasks, 1)?, FirstByteCodec);
/// let mut driver = Driver::new(sched, Instant::ZERO);
/// let steps = Script::new([Some(vec![0]), None]).run(&mut driver, 8)?;
/// assert!(matches!(steps[7].marker, Marker::Completion(_)));
/// assert_eq!(driver.now(), Instant(8));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Driver<C> {
    scheduler: Scheduler<C>,
    now: Instant,
    request: Option<Request>,
    /// What the last marker's segment was charged; an `Execute` request
    /// is answered with it.
    charged: Duration,
}

impl<C: MessageCodec> Driver<C> {
    /// Drives `scheduler` from virtual time `now` with no request
    /// outstanding — a fresh start, or a restart after a crash.
    pub fn new(scheduler: Scheduler<C>, now: Instant) -> Driver<C> {
        Driver {
            scheduler,
            now,
            request: None,
            charged: Duration::ZERO,
        }
    }

    /// Serves the outstanding request through `env`, advances the
    /// scheduler by one marker, and charges that marker's segment.
    ///
    /// # Errors
    ///
    /// The environment's read error, or the scheduler's
    /// [`DriveError`] converted into it. Either way the request was
    /// consumed; the driver is not meant to be stepped again.
    pub fn step<E: Environment>(&mut self, env: &mut E) -> Result<Timed, E::Error> {
        let response = match self.request.take() {
            Some(Request::Read(sock)) => {
                let (data, at) = env.read(sock, self.now)?;
                self.now = at;
                Some(Response::ReadResult(data))
            }
            Some(Request::Execute(job)) => Some(env.execute(&job, self.charged)),
            None => None,
        };
        let Step { marker, request } = self.scheduler.advance(response)?;
        let start = self.now;
        self.charged = env.charge(&marker);
        self.now = start.saturating_add(self.charged);
        self.request = request;
        Ok(Timed {
            marker,
            start,
            end: self.now,
        })
    }

    /// The virtual clock.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The request the next [`Driver::step`] serves, if any.
    pub fn request(&self) -> Option<&Request> {
        self.request.as_ref()
    }

    /// The driven scheduler.
    pub fn scheduler(&self) -> &Scheduler<C> {
        &self.scheduler
    }

    /// The driven scheduler, mutably (telemetry flushes, degradation
    /// events).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<C> {
        &mut self.scheduler
    }

    /// Stops driving; any outstanding request is dropped unserved.
    pub fn into_scheduler(self) -> Scheduler<C> {
        self.scheduler
    }
}

/// The cost of the segment `marker` starts, as the fuzz and fleet drives
/// charge it: one tick per read marker, the task's WCET for an
/// execution, and the [`WcetTable`] entry otherwise (a mode switch is
/// bounded like one idle iteration). Every cost is at least one tick.
pub fn marker_cost(marker: &Marker, wcet: &WcetTable, tasks: &TaskSet) -> Duration {
    match marker {
        Marker::ReadStart | Marker::ReadEnd { .. } => Duration(1),
        Marker::Selection => wcet.selection,
        Marker::Dispatch(_) => wcet.dispatch,
        Marker::Execution(j) => Duration(
            tasks
                .task(j.task())
                .map(|t| t.wcet().ticks())
                .unwrap_or(1)
                .max(1),
        ),
        Marker::Completion(_) => wcet.completion,
        Marker::Idling | Marker::ModeSwitch { .. } => wcet.idling,
    }
}

/// The scripted environment of tests and examples: reads pop outcomes
/// off a script (`None` once it is empty).
#[derive(Debug, Clone, Default)]
pub struct Script {
    reads: VecDeque<Option<MsgData>>,
}

impl Script {
    /// A script answering reads with `reads`, in order.
    pub fn new(reads: impl IntoIterator<Item = Option<MsgData>>) -> Script {
        Script {
            reads: reads.into_iter().collect(),
        }
    }

    /// Steps `driver` at most `max_steps` times, stopping early when the
    /// scheduler asks for a read the script no longer holds (that read
    /// stays outstanding).
    ///
    /// # Errors
    ///
    /// The scheduler's [`DriveError`], if it rejects the drive.
    pub fn run<C: MessageCodec>(
        &mut self,
        driver: &mut Driver<C>,
        max_steps: usize,
    ) -> Result<Vec<Timed>, DriveError> {
        let mut steps = Vec::new();
        while steps.len() < max_steps
            && !(self.reads.is_empty() && matches!(driver.request(), Some(Request::Read(_))))
        {
            steps.push(driver.step(self)?);
        }
        Ok(steps)
    }
}

impl Environment for Script {
    type Error = DriveError;

    fn read(&mut self, _: SocketId, now: Instant) -> Served<DriveError> {
        Ok((self.reads.pop_front().flatten(), now))
    }
}
