//! Basic actions (Fig. 4) and their spans within a trace.
//!
//! A basic action is a loop-free segment of the scheduler's execution,
//! delimited by marker functions (§2.2). Converting a marker trace into a
//! sequence of basic actions is part of accepting the trace with the
//! [`ProtocolAutomaton`](crate::ProtocolAutomaton); this module defines the
//! result types: the owned [`BasicAction`] and its borrowed twin
//! [`ActionRef`], which the [`ProtocolCursor`](crate::ProtocolCursor)
//! hands out without cloning any job.

use std::fmt;

use serde::{Deserialize, Serialize};

use rossl_model::{Job, Mode, SocketId};

/// A basic action (Fig. 4):
///
/// ```text
/// basic_actions ≜ Read sock j⊥ | Selection j⊥ | Disp j | Exec j | Compl j | Idling
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BasicAction {
    /// `Read sock j⊥`: one `read` system call on `sock`; `job` is the job
    /// created on success, `None` on failure.
    Read {
        /// The socket read.
        sock: SocketId,
        /// The job read, if the read succeeded.
        job: Option<Job>,
    },
    /// `Selection j⊥`: one run of `npfp_dequeue`, selecting `job` (or
    /// nothing when no job is pending).
    Selection(Option<Job>),
    /// `Disp j`: preparing to run the callback of `job`.
    Dispatch(Job),
    /// `Exec j`: the uninterrupted execution of `job`'s callback.
    Execution(Job),
    /// `Compl j`: cleanup after `job`'s callback returned.
    Completion(Job),
    /// `Idling`: one bounded idle iteration.
    Idling,
    /// `ModeSwitch from to`: one bounded criticality-mode transition,
    /// taken instead of a dispatch/idle at a decision point.
    ModeSwitch {
        /// The mode being left.
        from: Mode,
        /// The mode being entered.
        to: Mode,
    },
}

/// The discriminant of a [`BasicAction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActionKind {
    /// A successful read.
    ReadSuccess,
    /// A failed read.
    ReadFailure,
    /// A successful selection.
    SelectionSuccess,
    /// A failed selection (no pending job).
    SelectionFailure,
    /// Dispatch.
    Dispatch,
    /// Callback execution.
    Execution,
    /// Completion.
    Completion,
    /// Idling.
    Idling,
    /// Criticality-mode switch.
    ModeSwitch,
}

/// A [`BasicAction`] whose job is borrowed from the trace that performed
/// it. `Copy`, so the single pass of the Thm 5.1 verifier can hand one
/// action to several checkers; `BasicAction::from` makes the owned form
/// (for errors and [`ProtocolRun`](crate::ProtocolRun)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionRef<'a> {
    /// `Read sock j⊥`.
    Read {
        /// The socket read.
        sock: SocketId,
        /// The job read, if the read succeeded.
        job: Option<&'a Job>,
    },
    /// `Selection j⊥`.
    Selection(Option<&'a Job>),
    /// `Disp j`.
    Dispatch(&'a Job),
    /// `Exec j`.
    Execution(&'a Job),
    /// `Compl j`.
    Completion(&'a Job),
    /// `Idling`.
    Idling,
    /// `ModeSwitch from to`.
    ModeSwitch {
        /// The mode being left.
        from: Mode,
        /// The mode being entered.
        to: Mode,
    },
}

impl<'a> ActionRef<'a> {
    /// The kind of this action.
    pub(crate) fn kind(self) -> ActionKind {
        match self {
            ActionRef::Read { job: Some(_), .. } => ActionKind::ReadSuccess,
            ActionRef::Read { job: None, .. } => ActionKind::ReadFailure,
            ActionRef::Selection(Some(_)) => ActionKind::SelectionSuccess,
            ActionRef::Selection(None) => ActionKind::SelectionFailure,
            ActionRef::Dispatch(_) => ActionKind::Dispatch,
            ActionRef::Execution(_) => ActionKind::Execution,
            ActionRef::Completion(_) => ActionKind::Completion,
            ActionRef::Idling => ActionKind::Idling,
            ActionRef::ModeSwitch { .. } => ActionKind::ModeSwitch,
        }
    }

    /// The job the action concerns, if any.
    pub(crate) fn job(self) -> Option<&'a Job> {
        match self {
            ActionRef::Read { job, .. } | ActionRef::Selection(job) => job,
            ActionRef::Dispatch(j) | ActionRef::Execution(j) | ActionRef::Completion(j) => Some(j),
            ActionRef::Idling | ActionRef::ModeSwitch { .. } => None,
        }
    }
}

impl From<ActionRef<'_>> for BasicAction {
    fn from(action: ActionRef<'_>) -> BasicAction {
        match action {
            ActionRef::Read { sock, job } => BasicAction::Read {
                sock,
                job: job.cloned(),
            },
            ActionRef::Selection(job) => BasicAction::Selection(job.cloned()),
            ActionRef::Dispatch(j) => BasicAction::Dispatch(j.clone()),
            ActionRef::Execution(j) => BasicAction::Execution(j.clone()),
            ActionRef::Completion(j) => BasicAction::Completion(j.clone()),
            ActionRef::Idling => BasicAction::Idling,
            ActionRef::ModeSwitch { from, to } => BasicAction::ModeSwitch { from, to },
        }
    }
}

impl BasicAction {
    /// The action with its job borrowed.
    fn borrowed(&self) -> ActionRef<'_> {
        match self {
            BasicAction::Read { sock, job } => ActionRef::Read {
                sock: *sock,
                job: job.as_ref(),
            },
            BasicAction::Selection(job) => ActionRef::Selection(job.as_ref()),
            BasicAction::Dispatch(j) => ActionRef::Dispatch(j),
            BasicAction::Execution(j) => ActionRef::Execution(j),
            BasicAction::Completion(j) => ActionRef::Completion(j),
            BasicAction::Idling => ActionRef::Idling,
            BasicAction::ModeSwitch { from, to } => ActionRef::ModeSwitch {
                from: *from,
                to: *to,
            },
        }
    }

    /// The kind of this action.
    pub fn kind(&self) -> ActionKind {
        self.borrowed().kind()
    }

    /// The job the action concerns, if any.
    pub fn job(&self) -> Option<&Job> {
        self.borrowed().job()
    }
}

impl fmt::Display for ActionRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionRef::Read { sock, job: Some(j) } => write!(f, "Read {sock} {j}"),
            ActionRef::Read { sock, job: None } => write!(f, "Read {sock} ⊥"),
            ActionRef::Selection(Some(j)) => write!(f, "Selection {j}"),
            ActionRef::Selection(None) => write!(f, "Selection ⊥"),
            ActionRef::Dispatch(j) => write!(f, "Disp {j}"),
            ActionRef::Execution(j) => write!(f, "Exec {j}"),
            ActionRef::Completion(j) => write!(f, "Compl {j}"),
            ActionRef::Idling => write!(f, "Idling"),
            ActionRef::ModeSwitch { from, to } => write!(f, "ModeSwitch {from} {to}"),
        }
    }
}

impl fmt::Display for BasicAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.borrowed().fmt(f)
    }
}

/// A basic action located within a trace: the marker index at which it
/// starts and the index of the marker that starts the **next** action (if
/// the trace continues that far).
///
/// With a list of timestamps `ts` (one per marker, §2.3), the action
/// occupies the half-open interval `[ts[start], ts[end])`; its WCET
/// assumption (§2.3) constrains exactly that difference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionSpan {
    /// The action performed.
    pub action: BasicAction,
    /// Index of the marker that starts this action.
    pub start: usize,
    /// Index of the marker that starts the next action; `None` if the trace
    /// ends while this action is still in progress.
    pub end: Option<usize>,
}

impl ActionSpan {
    /// `true` if the trace contains the action's full extent.
    pub fn is_complete(&self) -> bool {
        self.end.is_some()
    }
}

impl fmt::Display for ActionSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.end {
            Some(end) => write!(f, "{} @ [{}, {})", self.action, self.start, end),
            None => write!(f, "{} @ [{}, …)", self.action, self.start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{JobId, TaskId};

    fn job() -> Job {
        Job::new(JobId(0), TaskId(1), vec![1])
    }

    #[test]
    fn kinds_cover_success_and_failure() {
        assert_eq!(
            BasicAction::Read {
                sock: SocketId(0),
                job: None
            }
            .kind(),
            ActionKind::ReadFailure
        );
        assert_eq!(
            BasicAction::Selection(Some(job())).kind(),
            ActionKind::SelectionSuccess
        );
        assert_eq!(BasicAction::Idling.kind(), ActionKind::Idling);
    }

    #[test]
    fn span_completeness() {
        let open = ActionSpan {
            action: BasicAction::Idling,
            start: 3,
            end: None,
        };
        assert!(!open.is_complete());
        assert_eq!(open.to_string(), "Idling @ [3, …)");
        let closed = ActionSpan {
            action: BasicAction::Execution(job()),
            start: 5,
            end: Some(6),
        };
        assert!(closed.is_complete());
    }
}
