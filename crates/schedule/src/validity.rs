//! Validity constraints on schedules (§2.4).
//!
//! The paper's validity constraints "(a) enforce bounds on each discrete
//! instance of a processor state (except Idle), … (d) encode a version of
//! the scheduler protocol for schedules, and (e) that all jobs have unique
//! identifiers." [`check_validity`] implements the schedule-level half:
//!
//! * every discrete overhead-state instance respects its derived bound
//!   (`RB`, `PB`, `SB`, `DB`, `CB` — Def. 2.2 is the `PollingOvh` case);
//! * every `Executes` instance respects the task's WCET `C_i`;
//! * per job, every state kind occurs at most once, in the scheduler's
//!   lifecycle order `ReadOvh → PollingOvh → SelectionOvh → DispatchOvh →
//!   Executes → CompletionOvh`.
//!
//! (Constraints (b) and (c) — consistency with the arrival sequence and
//! functional correctness — are established at the trace level by
//! `rossl-timing::check_consistency` and `rossl-trace::check_functional`,
//! and survive the conversion unchanged because the conversion preserves
//! per-job event order.)

use std::collections::BTreeMap;
use std::fmt;

use rossl_model::{Duration, JobId, OverheadBounds, TaskId, TaskSet};

use crate::schedule::{Schedule, Segment};
use crate::state::{ProcessorState, StateKind};

/// A violated validity constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityError {
    /// A discrete processor-state instance exceeded its duration bound.
    InstanceOverrun {
        /// The offending segment.
        segment: Segment,
        /// The applicable bound.
        bound: Duration,
    },
    /// A job re-entered a state kind it had already been through.
    DuplicateState {
        /// The job.
        job: JobId,
        /// The repeated kind.
        kind: StateKind,
    },
    /// A job's states appear out of lifecycle order.
    OutOfOrder {
        /// The job.
        job: JobId,
        /// The kind that appeared too late.
        kind: StateKind,
    },
    /// A job references a task outside the task set.
    UnknownTask {
        /// The unknown task.
        task: TaskId,
    },
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::InstanceOverrun { segment, bound } => write!(
                f,
                "instance {segment} lasts {} ticks, exceeding its bound of {} ticks",
                segment.duration().ticks(),
                bound.ticks()
            ),
            ValidityError::DuplicateState { job, kind } => {
                write!(f, "job {job} re-enters state {kind:?}")
            }
            ValidityError::OutOfOrder { job, kind } => {
                write!(f, "job {job} enters state {kind:?} out of lifecycle order")
            }
            ValidityError::UnknownTask { task } => write!(f, "unknown task {task}"),
        }
    }
}

impl std::error::Error for ValidityError {}

fn lifecycle_rank(kind: StateKind) -> u8 {
    match kind {
        StateKind::ReadOvh => 0,
        StateKind::PollingOvh => 1,
        StateKind::SelectionOvh => 2,
        StateKind::DispatchOvh => 3,
        StateKind::Executes => 4,
        StateKind::CompletionOvh => 5,
        StateKind::Idle => u8::MAX, // not per-job
    }
}

/// Checks the schedule-level validity constraints of §2.4.
///
/// # Errors
///
/// Returns the first [`ValidityError`] in time order.
///
/// # Examples
///
/// ```
/// use rossl_model::*;
/// use rossl_schedule::{check_validity, JobRef, ProcessorState, Schedule, Segment};
///
/// let tasks = TaskSet::new(vec![Task::new(
///     TaskId(0), "t", Priority(1), Duration(10), Curve::sporadic(Duration(50)),
/// )])?;
/// let bounds = OverheadBounds::derive(&WcetTable::example(), 1);
/// let j = JobRef { id: JobId(0), task: TaskId(0) };
/// let schedule = Schedule::from_segments(vec![
///     Segment { start: Instant(0), end: Instant(5), state: ProcessorState::ReadOvh(j) },
///     Segment { start: Instant(5), end: Instant(13), state: ProcessorState::Executes(j) },
/// ]).map_err(|e| e.to_string())?;
/// assert!(check_validity(&schedule, &tasks, &bounds).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_validity(
    schedule: &Schedule,
    tasks: &TaskSet,
    bounds: &OverheadBounds,
) -> Result<(), ValidityError> {
    let mut check = ValidityCheck::new(tasks, bounds);
    schedule
        .segments()
        .iter()
        .try_for_each(|segment| check.push(segment))
}

/// The validity constraints checked one merged segment at a time:
/// [`check_validity`] is a loop over [`ValidityCheck::push`].
#[derive(Debug, Clone)]
pub struct ValidityCheck<'t> {
    tasks: &'t TaskSet,
    bounds: OverheadBounds,
    /// Per job, the lifecycle rank of the last state it was in.
    last_rank: BTreeMap<JobId, u8>,
}

impl<'t> ValidityCheck<'t> {
    /// A check of an empty schedule prefix.
    pub fn new(tasks: &'t TaskSet, bounds: &OverheadBounds) -> ValidityCheck<'t> {
        ValidityCheck {
            tasks,
            bounds: *bounds,
            last_rank: BTreeMap::new(),
        }
    }

    /// Extends the checked prefix by `segment`, the next merged segment
    /// (one discrete instance of its state).
    ///
    /// # Errors
    ///
    /// Returns the [`ValidityError`] if the segment violates a constraint.
    /// A check that returned an error has stopped tracking the schedule;
    /// do not push further segments.
    pub fn push(&mut self, segment: &Segment) -> Result<(), ValidityError> {
        // (a) per-instance duration bounds. Adjacent equal states are merged
        // by construction, so each segment is one discrete instance.
        let bounds = &self.bounds;
        let bound = match segment.state {
            ProcessorState::Idle => None,
            ProcessorState::ReadOvh(_) => Some(bounds.read),
            ProcessorState::PollingOvh(_) => Some(bounds.polling),
            ProcessorState::SelectionOvh(_) => Some(bounds.selection),
            ProcessorState::DispatchOvh(_) => Some(bounds.dispatch),
            ProcessorState::CompletionOvh(_) => Some(bounds.completion),
            ProcessorState::Executes(j) => Some(
                self.tasks
                    .task(j.task)
                    .ok_or(ValidityError::UnknownTask { task: j.task })?
                    .wcet(),
            ),
        };
        if let Some(bound) = bound {
            if segment.duration() > bound {
                return Err(ValidityError::InstanceOverrun {
                    segment: *segment,
                    bound,
                });
            }
        }

        // (d)/(e) per-job lifecycle: each kind at most once, in order.
        if let Some(job) = segment.state.job() {
            let rank = lifecycle_rank(segment.state.kind());
            match self.last_rank.get(&job.id) {
                Some(&prev) if prev == rank => {
                    return Err(ValidityError::DuplicateState {
                        job: job.id,
                        kind: segment.state.kind(),
                    })
                }
                Some(&prev) if prev > rank => {
                    return Err(ValidityError::OutOfOrder {
                        job: job.id,
                        kind: segment.state.kind(),
                    })
                }
                _ => {
                    self.last_rank.insert(job.id, rank);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::JobRef;
    use rossl_model::{Curve, Instant, Priority, Task, WcetTable};

    fn tasks() -> TaskSet {
        TaskSet::new(vec![Task::new(
            TaskId(0),
            "t",
            Priority(1),
            Duration(10),
            Curve::sporadic(Duration(50)),
        )])
        .unwrap()
    }

    fn bounds() -> OverheadBounds {
        OverheadBounds::derive(&WcetTable::example(), 1)
    }

    fn jr(id: u64) -> JobRef {
        JobRef {
            id: JobId(id),
            task: TaskId(0),
        }
    }

    fn seg(a: u64, b: u64, state: ProcessorState) -> Segment {
        Segment {
            start: Instant(a),
            end: Instant(b),
            state,
        }
    }

    #[test]
    fn valid_lifecycle_passes() {
        // Bounds for 1 socket: RB=6, PB=4, SB=3, DB=2, CB=2, C_0=10.
        let s = Schedule::from_segments(vec![
            seg(0, 6, ProcessorState::ReadOvh(jr(0))),
            seg(6, 10, ProcessorState::PollingOvh(jr(0))),
            seg(10, 13, ProcessorState::SelectionOvh(jr(0))),
            seg(13, 15, ProcessorState::DispatchOvh(jr(0))),
            seg(15, 25, ProcessorState::Executes(jr(0))),
            seg(25, 27, ProcessorState::CompletionOvh(jr(0))),
            seg(27, 40, ProcessorState::Idle),
        ])
        .unwrap();
        check_validity(&s, &tasks(), &bounds()).unwrap();
    }

    #[test]
    fn overlong_polling_instance_is_caught() {
        let s = Schedule::from_segments(vec![seg(0, 5, ProcessorState::PollingOvh(jr(0)))])
            .unwrap();
        // PB for 1 socket = (2·1−1)·4 = 4 < 5.
        assert!(matches!(
            check_validity(&s, &tasks(), &bounds()).unwrap_err(),
            ValidityError::InstanceOverrun { bound: Duration(4), .. }
        ));
    }

    #[test]
    fn execution_beyond_task_wcet_is_caught() {
        let s = Schedule::from_segments(vec![seg(0, 11, ProcessorState::Executes(jr(0)))])
            .unwrap();
        assert!(matches!(
            check_validity(&s, &tasks(), &bounds()).unwrap_err(),
            ValidityError::InstanceOverrun { bound: Duration(10), .. }
        ));
    }

    #[test]
    fn idle_is_unbounded() {
        let s =
            Schedule::from_segments(vec![seg(0, 1_000_000, ProcessorState::Idle)]).unwrap();
        check_validity(&s, &tasks(), &bounds()).unwrap();
    }

    #[test]
    fn double_execution_is_caught() {
        let s = Schedule::from_segments(vec![
            seg(0, 5, ProcessorState::Executes(jr(0))),
            seg(5, 6, ProcessorState::Idle),
            seg(6, 10, ProcessorState::Executes(jr(0))),
        ])
        .unwrap();
        assert!(matches!(
            check_validity(&s, &tasks(), &bounds()).unwrap_err(),
            ValidityError::DuplicateState { kind: StateKind::Executes, .. }
        ));
    }

    #[test]
    fn out_of_order_lifecycle_is_caught() {
        let s = Schedule::from_segments(vec![
            seg(0, 5, ProcessorState::Executes(jr(0))),
            seg(5, 8, ProcessorState::SelectionOvh(jr(0))),
        ])
        .unwrap();
        assert!(matches!(
            check_validity(&s, &tasks(), &bounds()).unwrap_err(),
            ValidityError::OutOfOrder { kind: StateKind::SelectionOvh, .. }
        ));
    }

    #[test]
    fn unknown_task_is_caught() {
        let bad = JobRef {
            id: JobId(0),
            task: TaskId(9),
        };
        let s =
            Schedule::from_segments(vec![seg(0, 5, ProcessorState::Executes(bad))]).unwrap();
        assert!(matches!(
            check_validity(&s, &tasks(), &bounds()).unwrap_err(),
            ValidityError::UnknownTask { task: TaskId(9) }
        ));
    }

    #[test]
    fn distinct_jobs_do_not_interfere() {
        let s = Schedule::from_segments(vec![
            seg(0, 5, ProcessorState::Executes(jr(0))),
            seg(5, 10, ProcessorState::Executes(jr(1))),
        ])
        .unwrap();
        check_validity(&s, &tasks(), &bounds()).unwrap();
    }
}
