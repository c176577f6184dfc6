//! WCET compliance of timed traces (§2.3).
//!
//! For each basic action in the trace, the time from its starting marker to
//! the marker starting the next action must not exceed the action's WCET,
//! e.g. (for dispatch):
//!
//! ```text
//! ∀i j. tr[i] = M_Dispatch j ⟹ ts[i+1] − ts[i] ≤ WcetDisp
//! ```
//!
//! `Read` actions span two markers (`M_ReadS`, `M_ReadE`) and are bounded
//! by `WcetFR`/`WcetSR` according to their outcome; `Exec j` is bounded by
//! the WCET `C_i` of `j`'s task.
//!
//! [`check_action_wcet`] bounds one action as the protocol cursor closes
//! it; [`check_wcet_compliance`] is the cursor plus that check, and builds
//! no action list.

use std::fmt;

use rossl_model::{Duration, TaskId, TaskSet, WcetTable};
use rossl_trace::{ActionRef, ActionSpan, ProtocolAutomaton, ProtocolError};

use crate::timed_trace::TimedTrace;

/// A violated WCET assumption (or the inability to interpret the trace).
#[derive(Debug, Clone, PartialEq)]
pub enum WcetViolation {
    /// The trace does not satisfy the scheduler protocol, so basic actions
    /// cannot be delimited.
    Protocol(ProtocolError),
    /// A basic action ran longer than its WCET.
    ActionOverrun {
        /// The offending action span (marker indices).
        span: ActionSpan,
        /// The WCET bound for the action.
        bound: Duration,
        /// The observed duration.
        actual: Duration,
    },
    /// An executed job references a task missing from the task set.
    UnknownTask {
        /// The unknown task id.
        task: TaskId,
    },
}

impl fmt::Display for WcetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcetViolation::Protocol(e) => write!(f, "cannot delimit basic actions: {e}"),
            WcetViolation::ActionOverrun {
                span,
                bound,
                actual,
            } => write!(
                f,
                "action {span} took {} ticks, exceeding its WCET of {} ticks",
                actual.ticks(),
                bound.ticks()
            ),
            WcetViolation::UnknownTask { task } => {
                write!(f, "executed job references unknown task {task}")
            }
        }
    }
}

impl std::error::Error for WcetViolation {}

impl From<ProtocolError> for WcetViolation {
    fn from(e: ProtocolError) -> WcetViolation {
        WcetViolation::Protocol(e)
    }
}

/// Checks that every complete basic action in `trace` respects its WCET.
///
/// Only *complete* actions (whose closing marker is in the trace) are
/// checked; the trailing in-progress action is unconstrained, matching the
/// paper's treatment of the horizon.
///
/// # Errors
///
/// Returns [`WcetViolation::Protocol`] if the trace violates the scheduler
/// protocol anywhere, and otherwise the first [`WcetViolation`] in trace
/// order.
///
/// # Examples
///
/// ```
/// use rossl_model::*;
/// use rossl_timing::{check_wcet_compliance, TimedTrace};
/// use rossl_trace::Marker;
///
/// let tasks = TaskSet::new(vec![Task::new(
///     TaskId(0), "t", Priority(1), Duration(10), Curve::sporadic(Duration(50)),
/// )])?;
/// let wcet = WcetTable::example();
/// // A failed read taking 3 ticks (within WcetFR = 4), then selection.
/// let tt = TimedTrace::new(
///     vec![
///         Marker::ReadStart,
///         Marker::ReadEnd { sock: SocketId(0), job: None },
///         Marker::Selection,
///     ],
///     vec![Instant(0), Instant(2), Instant(3)],
/// )?;
/// assert!(check_wcet_compliance(&tt, &tasks, &wcet, 1).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_wcet_compliance(
    trace: &TimedTrace,
    tasks: &TaskSet,
    wcet: &WcetTable,
    n_sockets: usize,
) -> Result<(), WcetViolation> {
    let mut cursor = ProtocolAutomaton::new(n_sockets).cursor();
    let mut first = Ok(());
    for (index, marker) in trace.markers().iter().enumerate() {
        if let Some((action, start)) = cursor.push(index, marker)? {
            if first.is_ok() {
                first = check_action_wcet(action, start, index, trace, tasks, wcet);
            }
        }
    }
    first
}

/// Checks the WCET assumption of §2.3 for `action`, which occupied the
/// markers `start..end` of `trace` (the marker at `end` starts the next
/// action), against `tasks`' WCETs `C_i` and the overhead WCETs in `wcet`.
///
/// # Errors
///
/// Returns [`WcetViolation::ActionOverrun`] if the action ran longer than
/// its WCET, and [`WcetViolation::UnknownTask`] for the execution of a job
/// whose task is not in the task set.
#[inline]
pub fn check_action_wcet(
    action: ActionRef<'_>,
    start: usize,
    end: usize,
    trace: &TimedTrace,
    tasks: &TaskSet,
    wcet: &WcetTable,
) -> Result<(), WcetViolation> {
    let actual = trace
        .timestamp(end)
        .saturating_duration_since(trace.timestamp(start));
    let bound = match action {
        ActionRef::Read { job: None, .. } => wcet.failed_read,
        ActionRef::Read { job: Some(_), .. } => wcet.successful_read,
        ActionRef::Selection(_) => wcet.selection,
        ActionRef::Dispatch(_) => wcet.dispatch,
        ActionRef::Execution(j) => tasks
            .task(j.task())
            .ok_or(WcetViolation::UnknownTask { task: j.task() })?
            .wcet(),
        ActionRef::Completion(_) => wcet.completion,
        // A mode switch is a bounded bookkeeping step like one idle
        // iteration: re-tagging the queue, no callback work.
        ActionRef::Idling | ActionRef::ModeSwitch { .. } => wcet.idling,
    };
    if actual > bound {
        return Err(WcetViolation::ActionOverrun {
            span: ActionSpan {
                action: action.into(),
                start,
                end: Some(end),
            },
            bound,
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Instant, Job, JobId, Priority, SocketId, Task};
    use rossl_trace::Marker;

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

    fn job() -> Job {
        Job::new(JobId(0), TaskId(0), vec![0])
    }

    /// One full job cycle with controllable timestamps.
    fn cycle_markers() -> Vec<Marker> {
        vec![
            Marker::ReadStart,                                        // 0
            Marker::ReadEnd { sock: SocketId(0), job: Some(job()) },  // 1
            Marker::ReadStart,                                        // 2
            Marker::ReadEnd { sock: SocketId(0), job: None },         // 3
            Marker::Selection,                                        // 4
            Marker::Dispatch(job()),                                  // 5
            Marker::Execution(job()),                                 // 6
            Marker::Completion(job()),                                // 7
            Marker::ReadStart,                                        // 8
        ]
    }

    #[test]
    fn compliant_cycle_passes() {
        // WCETs: FR=4, SR=6, Sel=3, Disp=2, Compl=2, C_0=10.
        let ts = vec![0u64, 3, 6, 8, 10, 12, 14, 24, 26]
            .into_iter()
            .map(Instant)
            .collect();
        let tt = TimedTrace::new(cycle_markers(), ts).unwrap();
        check_wcet_compliance(&tt, &tasks(), &WcetTable::example(), 1).unwrap();
    }

    #[test]
    fn slow_successful_read_is_caught() {
        // Successful read spans markers 0..2; make it take 7 > WcetSR = 6.
        let ts = vec![0u64, 5, 7, 9, 11, 13, 15, 25, 27]
            .into_iter()
            .map(Instant)
            .collect();
        let tt = TimedTrace::new(cycle_markers(), ts).unwrap();
        let err = check_wcet_compliance(&tt, &tasks(), &WcetTable::example(), 1).unwrap_err();
        match err {
            WcetViolation::ActionOverrun { span, bound, actual } => {
                assert_eq!(span.start, 0);
                assert_eq!(bound, Duration(6));
                assert_eq!(actual, Duration(7));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn callback_overrun_is_caught() {
        // Execution spans markers 6..7; make it take 11 > C_0 = 10.
        let ts = vec![0u64, 3, 6, 8, 10, 12, 14, 25, 27]
            .into_iter()
            .map(Instant)
            .collect();
        let tt = TimedTrace::new(cycle_markers(), ts).unwrap();
        let err = check_wcet_compliance(&tt, &tasks(), &WcetTable::example(), 1).unwrap_err();
        assert!(matches!(
            err,
            WcetViolation::ActionOverrun { actual: Duration(11), .. }
        ));
    }

    #[test]
    fn trailing_action_is_unconstrained() {
        // Trace ends right after M_ReadS: nothing to check.
        let tt = TimedTrace::new(vec![Marker::ReadStart], vec![Instant(0)]).unwrap();
        assert!(check_wcet_compliance(&tt, &tasks(), &WcetTable::example(), 1).is_ok());
    }

    #[test]
    fn protocol_violations_are_surfaced() {
        let tt = TimedTrace::new(vec![Marker::Selection], vec![Instant(0)]).unwrap();
        assert!(matches!(
            check_wcet_compliance(&tt, &tasks(), &WcetTable::example(), 1),
            Err(WcetViolation::Protocol(_))
        ));
    }
}
