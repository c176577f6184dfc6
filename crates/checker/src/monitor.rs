//! Online marker-function specifications (§3.1).
//!
//! The paper gives each marker function a separation-logic Hoare triple
//! over two abstract assertions: `current_trace tr` (the trace produced so
//! far, whose shape encodes the scheduler-protocol state) and
//! `currently_pending js` (the set of read-but-not-dispatched jobs). For
//! example:
//!
//! ```text
//! { current_trace tr ∗ last tr = M_Selection ∗ currently_pending ∅ }
//!   idling_start()
//! { current_trace (tr ++ [M_Idling]) }
//! ```
//!
//! [`SpecMonitor`] maintains the same two pieces of abstract state and
//! checks every marker's precondition as it is emitted. Where RefinedC
//! *proves* the triples hold along all executions, the monitor *checks*
//! them along the executions it observes — and the model checker feeds it
//! every execution of a bounded configuration.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use rossl::{DegradedEvent, ModePolicy};
use rossl_model::{Criticality, Job, JobId, Mode, Priority, TaskSet};
use rossl_trace::{Marker, ProtocolAutomaton, ProtocolState, ProtocolViolation};

/// A violated marker-function specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecViolation {
    /// The marker is not enabled in the current protocol state (the
    /// `current_trace` shape precondition).
    Protocol {
        /// Markers observed so far.
        at_index: usize,
        /// The underlying protocol violation.
        violation: ProtocolViolation,
    },
    /// `dispatch_start(j)` called although `j` is not pending, or a
    /// higher-priority job pends.
    DispatchPrecondition {
        /// Markers observed so far.
        at_index: usize,
        /// The dispatched job.
        job: JobId,
        /// A pending job with strictly higher priority, if that is the
        /// defect.
        better: Option<JobId>,
    },
    /// `idling_start()` called with a non-empty pending set.
    IdlingPrecondition {
        /// Markers observed so far.
        at_index: usize,
        /// Number of pending jobs.
        pending: usize,
    },
    /// A read re-used an existing job identifier.
    DuplicateId {
        /// Markers observed so far.
        at_index: usize,
        /// The duplicate id.
        id: JobId,
    },
    /// A marker mentioned a task outside the task set.
    UnknownTask {
        /// Markers observed so far.
        at_index: usize,
    },
    /// The watchdog reported shedding a job that is not pending: the
    /// scheduler and the monitor disagree about `currently_pending`.
    ShedPrecondition {
        /// Markers observed so far.
        at_index: usize,
        /// The allegedly shed job.
        job: JobId,
    },
    /// A mode-switch marker's source mode disagrees with the monitor's
    /// mode — the trace and the abstract state diverged.
    ModeSwitchPrecondition {
        /// Markers observed so far.
        at_index: usize,
        /// The monitor's current mode.
        expected: Mode,
        /// The mode the marker claims to leave.
        found: Mode,
    },
    /// A LO → HI switch happened with no recorded HI-task `C_LO`
    /// overrun to justify it — a degradation without a cause.
    UnjustifiedModeSwitch {
        /// Markers observed so far.
        at_index: usize,
    },
    /// The installed policy mandated a LO → HI switch (a HI-task `C_LO`
    /// overrun was recorded), but the scheduler took an ordinary
    /// dispatch/idle decision instead — the mode-change protocol was not
    /// invoked.
    MissedModeSwitch {
        /// Markers observed so far.
        at_index: usize,
    },
    /// A HI → LO return happened before the policy's idle-hysteresis
    /// threshold was met.
    PrematureModeReturn {
        /// Markers observed so far.
        at_index: usize,
        /// Consecutive HI-mode idle decisions observed.
        idle_streak: u64,
        /// The policy's threshold.
        required: u64,
    },
    /// A suspended (mode-ineligible) job was dispatched.
    DispatchSuspended {
        /// Markers observed so far.
        at_index: usize,
        /// The dispatched job.
        job: JobId,
    },
    /// A suspension/resume event's precondition failed: suspension of a
    /// non-pending or non-LO job or while in LO mode; resume while in HI
    /// mode or of a non-pending job.
    SuspensionPrecondition {
        /// Markers observed so far.
        at_index: usize,
        /// The job in question.
        job: JobId,
        /// `true` for a resume event, `false` for a suspension.
        resume: bool,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::Protocol {
                at_index,
                violation,
            } => write!(f, "marker {at_index}: protocol precondition: {violation}"),
            SpecViolation::DispatchPrecondition {
                at_index,
                job,
                better,
            } => match better {
                Some(b) => write!(
                    f,
                    "marker {at_index}: dispatch_start({job}) while higher-priority {b} pends"
                ),
                None => write!(f, "marker {at_index}: dispatch_start({job}) of non-pending job"),
            },
            SpecViolation::IdlingPrecondition { at_index, pending } => {
                write!(f, "marker {at_index}: idling_start() with {pending} pending job(s)")
            }
            SpecViolation::DuplicateId { at_index, id } => {
                write!(f, "marker {at_index}: duplicate job id {id}")
            }
            SpecViolation::UnknownTask { at_index } => {
                write!(f, "marker {at_index}: unknown task")
            }
            SpecViolation::ShedPrecondition { at_index, job } => {
                write!(f, "marker {at_index}: watchdog shed non-pending job {job}")
            }
            SpecViolation::ModeSwitchPrecondition {
                at_index,
                expected,
                found,
            } => write!(
                f,
                "marker {at_index}: mode switch leaves {found} but the monitor is in {expected}"
            ),
            SpecViolation::UnjustifiedModeSwitch { at_index } => write!(
                f,
                "marker {at_index}: LO→HI switch without a recorded HI-task C_LO overrun"
            ),
            SpecViolation::MissedModeSwitch { at_index } => write!(
                f,
                "marker {at_index}: policy mandated a mode switch but a dispatch/idle decision was taken"
            ),
            SpecViolation::PrematureModeReturn {
                at_index,
                idle_streak,
                required,
            } => write!(
                f,
                "marker {at_index}: HI→LO return after {idle_streak} idle(s), policy requires {required}"
            ),
            SpecViolation::DispatchSuspended { at_index, job } => {
                write!(f, "marker {at_index}: dispatch of suspended job {job}")
            }
            SpecViolation::SuspensionPrecondition {
                at_index,
                job,
                resume,
            } => {
                let what = if *resume { "resume" } else { "suspension" };
                write!(f, "marker {at_index}: invalid {what} of job {job}")
            }
        }
    }
}

impl std::error::Error for SpecViolation {}

/// An online monitor for the marker-function specifications of §3.1.
///
/// # Examples
///
/// ```
/// use rossl_model::*;
/// use rossl_trace::Marker;
/// use rossl_verify::SpecMonitor;
///
/// let tasks = TaskSet::new(vec![Task::new(
///     TaskId(0), "t", Priority(1), Duration(5), Curve::sporadic(Duration(10)),
/// )])?;
/// let mut monitor = SpecMonitor::new(tasks, 1);
/// monitor.observe(&Marker::ReadStart)?;
/// let j = Job::new(JobId(0), TaskId(0), vec![0]);
/// monitor.observe(&Marker::ReadEnd { sock: SocketId(0), job: Some(j) })?;
/// assert_eq!(monitor.pending_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpecMonitor {
    /// Shared, so that cloning the monitor at a branch point copies no
    /// task.
    tasks: Arc<TaskSet>,
    automaton: ProtocolAutomaton,
    state: ProtocolState,
    pending: BTreeMap<JobId, Job>,
    /// Ordered, so that [`SpecMonitor::state_digest`] walks it sorted.
    seen: BTreeSet<JobId>,
    observed: usize,
    degraded: bool,
    shed: Vec<JobId>,
    /// The mode policy the monitored scheduler runs (mode-awareness off
    /// when `None`: switches are then unjustifiable).
    policy: Option<ModePolicy>,
    /// The monitor's mirror of the criticality mode.
    mode: Mode,
    /// A HI-task `C_LO` overrun was recorded in LO mode and no switch
    /// has served it yet.
    hi_overrun_pending: bool,
    /// Consecutive idle decisions observed while in HI mode.
    hi_idle_streak: u64,
    /// LO → HI switches observed (feeds the adaptive hysteresis mirror).
    lo_hi_switches: u64,
}

impl SpecMonitor {
    /// A monitor for a scheduler over `tasks` and `n_sockets` sockets,
    /// starting in the initial protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `n_sockets` is zero.
    pub fn new(tasks: TaskSet, n_sockets: usize) -> SpecMonitor {
        SpecMonitor {
            tasks: Arc::new(tasks),
            automaton: ProtocolAutomaton::new(n_sockets),
            state: ProtocolState::INITIAL,
            pending: BTreeMap::new(),
            seen: BTreeSet::new(),
            observed: 0,
            degraded: false,
            shed: Vec::new(),
            policy: None,
            mode: Mode::Lo,
            hi_overrun_pending: false,
            hi_idle_streak: 0,
            lo_hi_switches: 0,
        }
    }

    /// Mirrors the [`ModePolicy`] installed on the monitored scheduler,
    /// enabling the mixed-criticality obligations: mandated switches
    /// must happen ([`SpecViolation::MissedModeSwitch`]) and HI → LO
    /// returns must respect the hysteresis
    /// ([`SpecViolation::PrematureModeReturn`]).
    pub fn with_policy(mut self, policy: ModePolicy) -> SpecMonitor {
        self.policy = Some(policy);
        self
    }

    /// Starts the monitor in `mode` — for observing a post-crash segment
    /// of a scheduler recovered into that mode.
    pub fn resume_in_mode(mut self, mode: Mode) -> SpecMonitor {
        self.mode = mode;
        self
    }

    /// The monitor's mirror of the criticality mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// `true` while the monitored scheduler has reported degraded mode
    /// (a WCET overrun without a subsequent recovery).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Jobs the watchdog reported shed, in report order.
    pub fn shed_jobs(&self) -> &[JobId] {
        &self.shed
    }

    /// Folds a watchdog [`DegradedEvent`] into the abstract state.
    ///
    /// Shedding removes the job from `currently_pending` — without this
    /// hook a degraded run would trip the idling precondition, because the
    /// monitor would still believe the shed jobs pend. While degraded the
    /// monitor keeps checking every marker spec; degradation relaxes
    /// *which jobs pend*, not how the scheduler may behave.
    ///
    /// # Errors
    ///
    /// [`SpecViolation::ShedPrecondition`] when a reportedly shed job is
    /// not pending (scheduler/monitor state divergence).
    pub fn observe_degradation(&mut self, event: &DegradedEvent) -> Result<(), SpecViolation> {
        match event {
            DegradedEvent::WcetOverrun { task, .. } => {
                let arms_switch = self.mode == Mode::Lo
                    && self.criticality_of(*task) == Criticality::Hi
                    && self.policy.is_some_and(|p| p.switches_on_overrun());
                if arms_switch {
                    // The AMC-anticipated signal: the guarantee is not
                    // void, the mode change is now due.
                    self.hi_overrun_pending = true;
                } else {
                    self.degraded = true;
                }
            }
            DegradedEvent::JobShed { job, .. } => {
                if self.pending.remove(job).is_none() {
                    return Err(SpecViolation::ShedPrecondition {
                        at_index: self.observed,
                        job: *job,
                    });
                }
                self.shed.push(*job);
            }
            DegradedEvent::JobSuspended { job, task } => {
                // Suspension is only justified in HI mode, only for
                // pending LO jobs.
                let justified = self.mode == Mode::Hi
                    && self.pending.contains_key(job)
                    && self.criticality_of(*task) == Criticality::Lo;
                if !justified {
                    return Err(SpecViolation::SuspensionPrecondition {
                        at_index: self.observed,
                        job: *job,
                        resume: false,
                    });
                }
            }
            DegradedEvent::JobResumed { job, .. } => {
                // Resume is only justified at (after) the return to LO,
                // for jobs still pending.
                if self.mode != Mode::Lo || !self.pending.contains_key(job) {
                    return Err(SpecViolation::SuspensionPrecondition {
                        at_index: self.observed,
                        job: *job,
                        resume: true,
                    });
                }
            }
            DegradedEvent::Recovered => {
                self.degraded = false;
            }
        }
        Ok(())
    }

    /// Number of markers observed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Feeds a canonical digest of the abstract state into `hasher`: the
    /// protocol state, the pending map in key order, the seen-id set in
    /// sorted order (length first, as a slice hashes), the observation
    /// count, the degradation flag and the shed list.
    ///
    /// This covers everything a future [`SpecMonitor::observe`] or
    /// [`SpecMonitor::observe_degradation`] verdict can depend on, which
    /// is what makes the model checker's fingerprint pruning sound
    /// (DESIGN §6). The task set and socket count are deliberately
    /// excluded: they are fixed for the lifetime of a checker run.
    pub fn state_digest<H: std::hash::Hasher>(&self, hasher: &mut H) {
        use std::hash::Hash;
        self.state.hash(hasher);
        self.pending.len().hash(hasher);
        for (id, job) in &self.pending {
            id.hash(hasher);
            job.hash(hasher);
        }
        self.seen.len().hash(hasher);
        for id in &self.seen {
            id.hash(hasher);
        }
        self.observed.hash(hasher);
        self.degraded.hash(hasher);
        self.shed.hash(hasher);
        self.policy.hash(hasher);
        self.mode.hash(hasher);
        self.hi_overrun_pending.hash(hasher);
        self.hi_idle_streak.hash(hasher);
        self.lo_hi_switches.hash(hasher);
    }

    /// The current `currently_pending` cardinality.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The current protocol state (the shape of `current_trace`).
    pub fn protocol_state(&self) -> ProtocolState {
        self.state
    }

    fn priority_of(&self, job: &Job) -> Option<Priority> {
        self.tasks.task(job.task()).map(|t| t.priority())
    }

    fn criticality_of(&self, task: rossl_model::TaskId) -> Criticality {
        self.tasks
            .task(task)
            .map(|t| t.criticality())
            .unwrap_or_default()
    }

    /// `true` when the current mode serves `job`'s task — suspended
    /// (ineligible) jobs stay pending but carry no dispatch/idle
    /// obligations.
    fn eligible(&self, job: &Job) -> bool {
        self.mode.serves(self.criticality_of(job.task()))
    }

    /// Checks `marker` against its specification and advances the
    /// abstract state.
    ///
    /// # Errors
    ///
    /// Returns the [`SpecViolation`]; the monitor state is left unchanged
    /// on failure so the caller can report against it.
    pub fn observe(&mut self, marker: &Marker) -> Result<(), SpecViolation> {
        let at_index = self.observed;
        // Protocol-shape precondition (`current_trace tr` with the right
        // last marker).
        let next_state =
            self.automaton
                .step(self.state, marker)
                .map_err(|violation| SpecViolation::Protocol {
                    at_index,
                    violation,
                })?;

        // A mandated mode switch must happen at the first selection
        // decision after the arming overrun — an ordinary dispatch/idle
        // decision there means the mode-change protocol was skipped.
        if self.hi_overrun_pending && matches!(marker, Marker::Dispatch(_) | Marker::Idling) {
            return Err(SpecViolation::MissedModeSwitch { at_index });
        }

        // Marker-specific preconditions over `currently_pending`.
        match marker {
            Marker::ReadEnd { job: Some(j), .. } => {
                if self.seen.contains(&j.id()) {
                    return Err(SpecViolation::DuplicateId {
                        at_index,
                        id: j.id(),
                    });
                }
                if self.priority_of(j).is_none() {
                    return Err(SpecViolation::UnknownTask { at_index });
                }
                self.seen.insert(j.id());
                self.pending.insert(j.id(), j.clone());
            }
            Marker::Dispatch(j) => {
                if !self.pending.contains_key(&j.id()) {
                    return Err(SpecViolation::DispatchPrecondition {
                        at_index,
                        job: j.id(),
                        better: None,
                    });
                }
                if !self.eligible(j) {
                    return Err(SpecViolation::DispatchSuspended {
                        at_index,
                        job: j.id(),
                    });
                }
                let p = self
                    .priority_of(j)
                    .ok_or(SpecViolation::UnknownTask { at_index })?;
                // The priority obligation quantifies over mode-eligible
                // pending jobs only (Def. 3.2 under eligibility).
                for other in self.pending.values() {
                    if !self.eligible(other) {
                        continue;
                    }
                    let po = self
                        .priority_of(other)
                        .ok_or(SpecViolation::UnknownTask { at_index })?;
                    if po > p {
                        return Err(SpecViolation::DispatchPrecondition {
                            at_index,
                            job: j.id(),
                            better: Some(other.id()),
                        });
                    }
                }
                self.pending.remove(&j.id());
                self.hi_idle_streak = 0;
            }
            Marker::Idling => {
                let eligible = self.pending.values().filter(|j| self.eligible(j)).count();
                if eligible > 0 {
                    return Err(SpecViolation::IdlingPrecondition {
                        at_index,
                        pending: eligible,
                    });
                }
                if self.mode == Mode::Hi {
                    self.hi_idle_streak += 1;
                }
            }
            Marker::ModeSwitch { from, to } => {
                if *from != self.mode {
                    return Err(SpecViolation::ModeSwitchPrecondition {
                        at_index,
                        expected: self.mode,
                        found: *from,
                    });
                }
                match to {
                    Mode::Hi => {
                        // Every degradation needs a cause: the switch must
                        // serve a recorded HI-task C_LO overrun.
                        if !self.hi_overrun_pending {
                            return Err(SpecViolation::UnjustifiedModeSwitch { at_index });
                        }
                        self.hi_overrun_pending = false;
                        self.lo_hi_switches += 1;
                    }
                    Mode::Lo => {
                        if let Some(required) = self
                            .policy
                            .and_then(|p| p.return_hysteresis(self.lo_hi_switches))
                        {
                            if self.hi_idle_streak < required {
                                return Err(SpecViolation::PrematureModeReturn {
                                    at_index,
                                    idle_streak: self.hi_idle_streak,
                                    required,
                                });
                            }
                        }
                    }
                }
                self.mode = *to;
                self.hi_idle_streak = 0;
            }
            _ => {}
        }

        self.state = next_state;
        self.observed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Duration, SocketId, Task, TaskId};

    fn tasks() -> TaskSet {
        TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "low",
                Priority(1),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
            Task::new(
                TaskId(1),
                "high",
                Priority(9),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
        ])
        .unwrap()
    }

    fn job(id: u64, task: usize) -> Job {
        Job::new(JobId(id), TaskId(task), vec![task as u8])
    }

    fn feed(monitor: &mut SpecMonitor, markers: &[Marker]) -> Result<(), SpecViolation> {
        for m in markers {
            monitor.observe(m)?;
        }
        Ok(())
    }

    #[test]
    fn accepts_a_clean_cycle() {
        let mut m = SpecMonitor::new(tasks(), 1);
        feed(
            &mut m,
            &[
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: Some(job(0, 1)),
                },
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: None,
                },
                Marker::Selection,
                Marker::Dispatch(job(0, 1)),
                Marker::Execution(job(0, 1)),
                Marker::Completion(job(0, 1)),
            ],
        )
        .unwrap();
        assert_eq!(m.pending_count(), 0);
        assert_eq!(m.observed(), 8);
        assert_eq!(m.protocol_state(), ProtocolState::INITIAL);
    }

    #[test]
    fn idling_with_pending_jobs_violates_spec() {
        let mut m = SpecMonitor::new(tasks(), 1);
        feed(
            &mut m,
            &[
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: Some(job(0, 0)),
                },
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: None,
                },
                Marker::Selection,
            ],
        )
        .unwrap();
        let err = m.observe(&Marker::Idling).unwrap_err();
        assert!(matches!(
            err,
            SpecViolation::IdlingPrecondition { pending: 1, .. }
        ));
    }

    #[test]
    fn low_priority_dispatch_violates_spec() {
        let mut m = SpecMonitor::new(tasks(), 1);
        feed(
            &mut m,
            &[
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: Some(job(0, 0)),
                },
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: Some(job(1, 1)),
                },
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: None,
                },
                Marker::Selection,
            ],
        )
        .unwrap();
        let err = m.observe(&Marker::Dispatch(job(0, 0))).unwrap_err();
        assert!(matches!(
            err,
            SpecViolation::DispatchPrecondition {
                better: Some(JobId(1)),
                ..
            }
        ));
    }

    #[test]
    fn degradation_events_adjust_pending_state() {
        use rossl_model::Priority as P;
        let mut m = SpecMonitor::new(tasks(), 1);
        feed(
            &mut m,
            &[
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: Some(job(0, 0)),
                },
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: None,
                },
                Marker::Selection,
            ],
        )
        .unwrap();
        m.observe_degradation(&DegradedEvent::WcetOverrun {
            job: JobId(0),
            task: TaskId(0),
            budget: Duration(5),
            measured: Duration(9),
        })
        .unwrap();
        assert!(m.degraded());
        m.observe_degradation(&DegradedEvent::JobShed {
            job: JobId(0),
            task: TaskId(0),
            priority: P(1),
        })
        .unwrap();
        assert_eq!(m.shed_jobs(), &[JobId(0)]);
        // The shed job no longer pends, so idling is now within spec.
        m.observe(&Marker::Idling).unwrap();
        m.observe_degradation(&DegradedEvent::Recovered).unwrap();
        assert!(!m.degraded());
        // Shedding a job the monitor never saw is a state divergence.
        let err = m
            .observe_degradation(&DegradedEvent::JobShed {
                job: JobId(77),
                task: TaskId(0),
                priority: P(1),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SpecViolation::ShedPrecondition { job: JobId(77), .. }
        ));
    }

    #[test]
    fn protocol_shape_is_enforced() {
        let mut m = SpecMonitor::new(tasks(), 1);
        let err = m.observe(&Marker::Selection).unwrap_err();
        assert!(matches!(err, SpecViolation::Protocol { at_index: 0, .. }));
        // Monitor state unchanged on failure.
        assert_eq!(m.observed(), 0);
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut m = SpecMonitor::new(tasks(), 1);
        feed(
            &mut m,
            &[
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job: Some(job(0, 0)),
                },
                Marker::ReadStart,
            ],
        )
        .unwrap();
        let err = m
            .observe(&Marker::ReadEnd {
                sock: SocketId(0),
                job: Some(job(0, 1)),
            })
            .unwrap_err();
        assert!(matches!(err, SpecViolation::DuplicateId { id: JobId(0), .. }));
    }
}
