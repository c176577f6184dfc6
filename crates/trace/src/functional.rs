//! Functional correctness of traces (Def. 3.2, `tr_valid`).
//!
//! A trace is functionally correct iff
//!
//! 1. **Selected jobs have the highest priority**: whenever
//!    `tr[i] = M_Dispatch j`, job `j` is pending at `i` and its priority is
//!    higher-than-or-equal to the priority of every other pending job.
//! 2. **Idling only if no jobs are pending**: whenever `tr[i] = M_Idling`,
//!    `pending_jobs(i) = ∅`.
//! 3. **Jobs have unique identifiers**: distinct successful reads yield
//!    distinct job ids.
//!
//! The checker maintains the pending set incrementally (the paper's
//! separation-logic assertion `currently_pending js`); its agreement with
//! the definitional [`pending_jobs`](crate::pending_jobs) recomputation is
//! covered by property tests.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use rossl_model::{Job, JobId, Mode, Priority, TaskId, TaskSet};

use crate::marker::Marker;

/// A violation of Def. 3.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionalError {
    /// A dispatched job was not in the pending set.
    DispatchOfNonPending {
        /// Index of the offending `M_Dispatch`.
        index: usize,
        /// The dispatched job's id.
        job: JobId,
    },
    /// A dispatched job did not have maximal priority among pending jobs.
    DispatchNotHighestPriority {
        /// Index of the offending `M_Dispatch`.
        index: usize,
        /// The dispatched job's id.
        dispatched: JobId,
        /// A pending job with strictly higher priority.
        better: JobId,
    },
    /// The scheduler idled while jobs were pending.
    IdleWithPendingJobs {
        /// Index of the offending `M_Idling`.
        index: usize,
        /// Number of jobs pending at that index.
        pending: usize,
    },
    /// Two successful reads produced the same job id.
    DuplicateJobId {
        /// Index of the second (offending) read.
        index: usize,
        /// The duplicated id.
        id: JobId,
    },
    /// A marker referenced a task id outside the task set.
    UnknownTask {
        /// Index of the offending marker.
        index: usize,
        /// The unknown task.
        task: TaskId,
    },
    /// A LO-criticality job was dispatched while the system was in HI
    /// mode — suspended work must stay suspended until the mode returns.
    DispatchOfSuspended {
        /// Index of the offending `M_Dispatch`.
        index: usize,
        /// The dispatched job's id.
        job: JobId,
    },
    /// An `M_ModeSwitch` marker's `from` mode disagrees with the mode the
    /// trace prefix established.
    InconsistentModeSwitch {
        /// Index of the offending `M_ModeSwitch`.
        index: usize,
        /// The mode the trace was actually in.
        expected: Mode,
        /// The `from` mode the marker claims.
        found: Mode,
    },
}

impl fmt::Display for FunctionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionalError::DispatchOfNonPending { index, job } => {
                write!(f, "index {index}: dispatched job {job} is not pending")
            }
            FunctionalError::DispatchNotHighestPriority {
                index,
                dispatched,
                better,
            } => write!(
                f,
                "index {index}: dispatched {dispatched} while higher-priority {better} pends"
            ),
            FunctionalError::IdleWithPendingJobs { index, pending } => {
                write!(f, "index {index}: idling with {pending} pending job(s)")
            }
            FunctionalError::DuplicateJobId { index, id } => {
                write!(f, "index {index}: job id {id} read twice")
            }
            FunctionalError::UnknownTask { index, task } => {
                write!(f, "index {index}: marker references unknown task {task}")
            }
            FunctionalError::DispatchOfSuspended { index, job } => {
                write!(f, "index {index}: dispatched suspended LO job {job} in HI mode")
            }
            FunctionalError::InconsistentModeSwitch {
                index,
                expected,
                found,
            } => write!(
                f,
                "index {index}: mode switch claims to leave {found} but the trace is in {expected}"
            ),
        }
    }
}

impl std::error::Error for FunctionalError {}

/// Checks Def. 3.2 (`tr_valid tr`) against the priorities in `tasks`.
///
/// Independent of the scheduler protocol: it can be run on arbitrary marker
/// sequences (and is, during fault injection). Run it together with
/// [`ProtocolAutomaton::accept`](crate::ProtocolAutomaton::accept) to
/// establish both halves of Thm. 3.4.
///
/// # Errors
///
/// Returns the first [`FunctionalError`] in trace order.
///
/// # Examples
///
/// ```
/// use rossl_model::*;
/// use rossl_trace::{check_functional, Marker};
///
/// let tasks = TaskSet::new(vec![Task::new(
///     TaskId(0), "t", Priority(1), Duration(5), Curve::sporadic(Duration(10)),
/// )])?;
/// let j = Job::new(JobId(0), TaskId(0), vec![]);
/// let tr = vec![
///     Marker::ReadStart,
///     Marker::ReadEnd { sock: SocketId(0), job: Some(j.clone()) },
///     Marker::Selection,
///     Marker::Dispatch(j),
/// ];
/// assert!(check_functional(&tr, &tasks).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_functional(trace: &[Marker], tasks: &TaskSet) -> Result<(), FunctionalError> {
    let mut check = FunctionalCheck::new(tasks);
    trace
        .iter()
        .enumerate()
        .try_for_each(|(index, marker)| check.push(index, marker))
}

/// Def. 3.2 checked one marker at a time: [`check_functional`] is a loop
/// over [`FunctionalCheck::push`].
///
/// The check maintains the pending set (job id to task id) and the
/// criticality mode of the trace prefix seen so far.
#[derive(Debug, Clone)]
pub struct FunctionalCheck<'t> {
    tasks: &'t TaskSet,
    pending: BTreeMap<JobId, TaskId>,
    seen_ids: HashSet<JobId>,
    mode: Mode,
}

impl<'t> FunctionalCheck<'t> {
    /// A check of an empty trace prefix against the priorities in `tasks`.
    pub fn new(tasks: &'t TaskSet) -> FunctionalCheck<'t> {
        FunctionalCheck {
            tasks,
            pending: BTreeMap::new(),
            seen_ids: HashSet::new(),
            mode: Mode::default(),
        }
    }

    /// Extends the checked prefix by `marker`, the trace's marker at
    /// `index`.
    ///
    /// # Errors
    ///
    /// Returns the [`FunctionalError`] if the extended prefix violates
    /// Def. 3.2 at `index`. A check that returned an error has stopped
    /// tracking the trace; do not push further markers.
    #[inline]
    pub fn push(&mut self, index: usize, marker: &Marker) -> Result<(), FunctionalError> {
        match marker {
            Marker::ReadEnd { job: Some(j), .. } => self.admit(index, j)?,
            Marker::Dispatch(j) => {
                if !self.pending.contains_key(&j.id()) {
                    return Err(FunctionalError::DispatchOfNonPending {
                        index,
                        job: j.id(),
                    });
                }
                if !self.eligible(index, j.task())? {
                    return Err(FunctionalError::DispatchOfSuspended {
                        index,
                        job: j.id(),
                    });
                }
                let p = self.priority_of(index, j.task())?;
                for (&other, &task) in &self.pending {
                    if self.eligible(index, task)? && self.priority_of(index, task)? > p {
                        return Err(FunctionalError::DispatchNotHighestPriority {
                            index,
                            dispatched: j.id(),
                            better: other,
                        });
                    }
                }
                self.pending.remove(&j.id());
            }
            Marker::Idling => {
                let mut eligible = 0usize;
                for &task in self.pending.values() {
                    if self.eligible(index, task)? {
                        eligible += 1;
                    }
                }
                if eligible > 0 {
                    return Err(FunctionalError::IdleWithPendingJobs {
                        index,
                        pending: eligible,
                    });
                }
            }
            Marker::ModeSwitch { from, to } => {
                if *from != self.mode {
                    return Err(FunctionalError::InconsistentModeSwitch {
                        index,
                        expected: self.mode,
                        found: *from,
                    });
                }
                self.mode = *to;
            }
            _ => {}
        }
        Ok(())
    }

    /// The read rule: `job` must carry a fresh id of a known task, and
    /// it becomes pending. [`StitchedCheck`](crate::StitchedCheck) also
    /// admits migrated jobs through it.
    #[inline]
    pub(crate) fn admit(&mut self, index: usize, job: &Job) -> Result<(), FunctionalError> {
        if !self.seen_ids.insert(job.id()) {
            return Err(FunctionalError::DuplicateJobId {
                index,
                id: job.id(),
            });
        }
        self.priority_of(index, job.task())?;
        self.pending.insert(job.id(), job.task());
        Ok(())
    }

    /// Returns a dispatched job to the pending set: a crash seam voids
    /// its dispatch.
    pub(crate) fn void_dispatch(&mut self, job: &Job) {
        self.pending.insert(job.id(), job.task());
    }

    /// The ids of the pending jobs, in id order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = JobId> + '_ {
        self.pending.keys().copied()
    }

    fn priority_of(&self, index: usize, task: TaskId) -> Result<Priority, FunctionalError> {
        self.tasks
            .task(task)
            .map(|t| t.priority())
            .ok_or(FunctionalError::UnknownTask { index, task })
    }

    /// A pending job is *eligible* when the current mode serves its task's
    /// criticality; in HI mode LO-criticality jobs are suspended, so the
    /// dispatch-priority and idle obligations quantify over eligible jobs
    /// only. For all-HI task sets (the pre-mixed-criticality default)
    /// every pending job is eligible and this is exactly Def. 3.2.
    fn eligible(&self, index: usize, task: TaskId) -> Result<bool, FunctionalError> {
        self.tasks
            .task(task)
            .map(|t| self.mode.serves(t.criticality()))
            .ok_or(FunctionalError::UnknownTask { index, task })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Duration, Priority, SocketId, Task};

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

    fn read(j: Job) -> Marker {
        Marker::ReadEnd {
            sock: SocketId(0),
            job: Some(j),
        }
    }

    #[test]
    fn highest_priority_dispatch_accepted() {
        let tr = vec![
            read(job(0, 0)),
            read(job(1, 1)),
            Marker::Selection,
            Marker::Dispatch(job(1, 1)), // high priority first: ok
            Marker::Selection,
            Marker::Dispatch(job(0, 0)),
        ];
        assert!(check_functional(&tr, &tasks()).is_ok());
    }

    #[test]
    fn lower_priority_dispatch_rejected() {
        let tr = vec![
            read(job(0, 0)),
            read(job(1, 1)),
            Marker::Selection,
            Marker::Dispatch(job(0, 0)), // low priority while high pends
        ];
        let err = check_functional(&tr, &tasks()).unwrap_err();
        assert_eq!(
            err,
            FunctionalError::DispatchNotHighestPriority {
                index: 3,
                dispatched: JobId(0),
                better: JobId(1),
            }
        );
    }

    #[test]
    fn equal_priority_dispatch_accepted_either_way() {
        let eq_tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "a",
                Priority(5),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
            Task::new(
                TaskId(1),
                "b",
                Priority(5),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
        ])
        .unwrap();
        for first in [0u64, 1] {
            let tr = vec![
                read(job(0, 0)),
                read(job(1, 1)),
                Marker::Dispatch(job(first, first as usize)),
            ];
            assert!(check_functional(&tr, &eq_tasks).is_ok(), "first = {first}");
        }
    }

    #[test]
    fn dispatch_of_unread_job_rejected() {
        let tr = vec![Marker::Dispatch(job(7, 0))];
        assert_eq!(
            check_functional(&tr, &tasks()).unwrap_err(),
            FunctionalError::DispatchOfNonPending {
                index: 0,
                job: JobId(7)
            }
        );
    }

    #[test]
    fn double_dispatch_rejected() {
        let tr = vec![
            read(job(0, 1)),
            Marker::Dispatch(job(0, 1)),
            Marker::Dispatch(job(0, 1)),
        ];
        assert!(matches!(
            check_functional(&tr, &tasks()).unwrap_err(),
            FunctionalError::DispatchOfNonPending { index: 2, .. }
        ));
    }

    #[test]
    fn idle_with_pending_rejected() {
        let tr = vec![read(job(0, 0)), Marker::Idling];
        assert_eq!(
            check_functional(&tr, &tasks()).unwrap_err(),
            FunctionalError::IdleWithPendingJobs {
                index: 1,
                pending: 1
            }
        );
    }

    #[test]
    fn idle_after_dispatch_accepted() {
        let tr = vec![read(job(0, 0)), Marker::Dispatch(job(0, 0)), Marker::Idling];
        assert!(check_functional(&tr, &tasks()).is_ok());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let tr = vec![read(job(3, 0)), Marker::Dispatch(job(3, 0)), read(job(3, 0))];
        assert_eq!(
            check_functional(&tr, &tasks()).unwrap_err(),
            FunctionalError::DuplicateJobId {
                index: 2,
                id: JobId(3)
            }
        );
    }

    #[test]
    fn unknown_task_rejected() {
        let tr = vec![read(job(0, 42))];
        assert!(matches!(
            check_functional(&tr, &tasks()).unwrap_err(),
            FunctionalError::UnknownTask {
                index: 0,
                task: TaskId(42)
            }
        ));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert!(check_functional(&[], &tasks()).is_ok());
    }

    /// One LO task (priority 9) and one HI task (priority 1): in HI mode
    /// the LO job is suspended, so idling past it and dispatching the
    /// lower-priority HI job are both legal, while dispatching the
    /// suspended LO job is not.
    fn mc_tasks() -> TaskSet {
        use rossl_model::Criticality;
        TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "hi-crit",
                Priority(1),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
            Task::new(
                TaskId(1),
                "lo-crit",
                Priority(9),
                Duration(5),
                Curve::sporadic(Duration(10)),
            )
            .with_criticality(Criticality::Lo),
        ])
        .unwrap()
    }

    fn switch(from: Mode, to: Mode) -> Marker {
        Marker::ModeSwitch { from, to }
    }

    #[test]
    fn hi_mode_suspends_lo_jobs_from_dispatch_obligations() {
        // LO job (high priority) + HI job pending; in HI mode dispatching
        // the HI job is fine even though the LO job outranks it.
        let tr = vec![
            read(job(0, 0)),
            read(job(1, 1)),
            switch(Mode::Lo, Mode::Hi),
            Marker::Dispatch(job(0, 0)),
        ];
        assert!(check_functional(&tr, &mc_tasks()).is_ok());
        // The same dispatch in LO mode is a priority violation.
        let tr = vec![
            read(job(0, 0)),
            read(job(1, 1)),
            Marker::Dispatch(job(0, 0)),
        ];
        assert!(matches!(
            check_functional(&tr, &mc_tasks()).unwrap_err(),
            FunctionalError::DispatchNotHighestPriority { .. }
        ));
    }

    #[test]
    fn suspended_job_cannot_be_dispatched() {
        let tr = vec![
            read(job(0, 1)),
            switch(Mode::Lo, Mode::Hi),
            Marker::Dispatch(job(0, 1)),
        ];
        assert_eq!(
            check_functional(&tr, &mc_tasks()).unwrap_err(),
            FunctionalError::DispatchOfSuspended {
                index: 2,
                job: JobId(0)
            }
        );
    }

    #[test]
    fn idling_past_suspended_jobs_is_legal() {
        let tr = vec![read(job(0, 1)), switch(Mode::Lo, Mode::Hi), Marker::Idling];
        assert!(check_functional(&tr, &mc_tasks()).is_ok());
        // Back in LO mode the job is eligible again: idling is rejected.
        let tr = vec![
            read(job(0, 1)),
            switch(Mode::Lo, Mode::Hi),
            switch(Mode::Hi, Mode::Lo),
            Marker::Idling,
        ];
        assert!(matches!(
            check_functional(&tr, &mc_tasks()).unwrap_err(),
            FunctionalError::IdleWithPendingJobs { index: 3, .. }
        ));
    }

    #[test]
    fn mode_switch_must_leave_the_current_mode() {
        let tr = vec![switch(Mode::Hi, Mode::Lo)];
        assert_eq!(
            check_functional(&tr, &mc_tasks()).unwrap_err(),
            FunctionalError::InconsistentModeSwitch {
                index: 0,
                expected: Mode::Lo,
                found: Mode::Hi,
            }
        );
    }
}
