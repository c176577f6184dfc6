//! Marker functions (Fig. 4).
//!
//! Marker functions are "ghost calls" inserted into the scheduler to
//! delimit basic actions (§2.2). They do not affect the runtime behaviour of
//! the scheduler; the instrumented implementation emits one [`Marker`] per
//! call, and the resulting trace is the object all further reasoning is
//! performed on.

use std::fmt;

use serde::{Deserialize, Serialize};

use rossl_model::{Job, Mode, SocketId};

/// One marker-function invocation (Fig. 4):
///
/// ```text
/// marker ≜ M_ReadS | M_ReadE sock j⊥ | M_Selection | M_Dispatch j
///        | M_Execution j | M_Completion j | M_Idling
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Marker {
    /// `M_ReadS`: a `read` system call is about to be issued.
    ReadStart,
    /// `M_ReadE sock j⊥`: the read on `sock` returned; `job` is the job
    /// created from the received message, or `None` for a failed read.
    /// This is the "pseudo marker function" of §2.2: it is emitted by the
    /// read itself rather than by ghost code.
    ReadEnd {
        /// The socket that was read.
        sock: SocketId,
        /// The job read, or `None` if no message was available.
        job: Option<Job>,
    },
    /// `M_Selection`: the selection phase begins (`selection_start()`).
    Selection,
    /// `M_Dispatch j`: job `j` was selected and is about to be dispatched
    /// (`dispatch_start(j)`).
    Dispatch(Job),
    /// `M_Execution j`: the callback for job `j` starts executing.
    Execution(Job),
    /// `M_Completion j`: the callback for job `j` finished.
    Completion(Job),
    /// `M_Idling`: there was no pending job; the scheduler performs one
    /// bounded idle iteration (`idling_start()`).
    Idling,
    /// `M_ModeSwitch from to`: the scheduler changed its criticality mode
    /// as the outcome of a decision phase (`mode_switch(from, to)`).
    /// Like `M_Idling` it returns the protocol to the start of the
    /// polling phase; unlike every other marker it carries no job.
    ModeSwitch {
        /// The mode being left.
        from: Mode,
        /// The mode being entered.
        to: Mode,
    },
}

// A job is one shared pointer, so a trace stores three words per marker.
const _: () = assert!(std::mem::size_of::<Marker>() <= 24);

/// The discriminant of a [`Marker`], for reporting and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MarkerKind {
    /// `M_ReadS`.
    ReadStart,
    /// `M_ReadE` with a job.
    ReadEndSuccess,
    /// `M_ReadE` without a job.
    ReadEndFailure,
    /// `M_Selection`.
    Selection,
    /// `M_Dispatch`.
    Dispatch,
    /// `M_Execution`.
    Execution,
    /// `M_Completion`.
    Completion,
    /// `M_Idling`.
    Idling,
    /// `M_ModeSwitch`.
    ModeSwitch,
}

impl Marker {
    /// The kind of this marker.
    pub fn kind(&self) -> MarkerKind {
        match self {
            Marker::ReadStart => MarkerKind::ReadStart,
            Marker::ReadEnd { job: Some(_), .. } => MarkerKind::ReadEndSuccess,
            Marker::ReadEnd { job: None, .. } => MarkerKind::ReadEndFailure,
            Marker::Selection => MarkerKind::Selection,
            Marker::Dispatch(_) => MarkerKind::Dispatch,
            Marker::Execution(_) => MarkerKind::Execution,
            Marker::Completion(_) => MarkerKind::Completion,
            Marker::Idling => MarkerKind::Idling,
            Marker::ModeSwitch { .. } => MarkerKind::ModeSwitch,
        }
    }

    /// The job the marker is tagged with, if any.
    pub fn job(&self) -> Option<&Job> {
        match self {
            Marker::ReadEnd { job, .. } => job.as_ref(),
            Marker::Dispatch(j) | Marker::Execution(j) | Marker::Completion(j) => Some(j),
            _ => None,
        }
    }

    /// `true` for the markers that *start a basic action* (§2.2): every
    /// marker except the pseudo marker `M_ReadE`, which merely resolves the
    /// outcome of the `Read` action started by the preceding `M_ReadS`.
    pub fn starts_action(&self) -> bool {
        !matches!(self, Marker::ReadEnd { .. })
    }
}

impl fmt::Display for Marker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Marker::ReadStart => write!(f, "M_ReadS"),
            Marker::ReadEnd { sock, job: Some(j) } => write!(f, "M_ReadE {sock} {j}"),
            Marker::ReadEnd { sock, job: None } => write!(f, "M_ReadE {sock} ⊥"),
            Marker::Selection => write!(f, "M_Selection"),
            Marker::Dispatch(j) => write!(f, "M_Dispatch {j}"),
            Marker::Execution(j) => write!(f, "M_Execution {j}"),
            Marker::Completion(j) => write!(f, "M_Completion {j}"),
            Marker::Idling => write!(f, "M_Idling"),
            Marker::ModeSwitch { from, to } => write!(f, "M_ModeSwitch {from} {to}"),
        }
    }
}

impl fmt::Display for MarkerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MarkerKind::ReadStart => "M_ReadS",
            MarkerKind::ReadEndSuccess => "M_ReadE(j)",
            MarkerKind::ReadEndFailure => "M_ReadE(⊥)",
            MarkerKind::Selection => "M_Selection",
            MarkerKind::Dispatch => "M_Dispatch",
            MarkerKind::Execution => "M_Execution",
            MarkerKind::Completion => "M_Completion",
            MarkerKind::Idling => "M_Idling",
            MarkerKind::ModeSwitch => "M_ModeSwitch",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{JobId, TaskId};

    fn job() -> Job {
        Job::new(JobId(1), TaskId(0), vec![0])
    }

    #[test]
    fn kinds_distinguish_read_outcomes() {
        let ok = Marker::ReadEnd {
            sock: SocketId(0),
            job: Some(job()),
        };
        let fail = Marker::ReadEnd {
            sock: SocketId(0),
            job: None,
        };
        assert_eq!(ok.kind(), MarkerKind::ReadEndSuccess);
        assert_eq!(fail.kind(), MarkerKind::ReadEndFailure);
    }

    #[test]
    fn only_read_end_does_not_start_an_action() {
        assert!(Marker::ReadStart.starts_action());
        assert!(Marker::Selection.starts_action());
        assert!(Marker::Idling.starts_action());
        assert!(Marker::Dispatch(job()).starts_action());
        assert!(!Marker::ReadEnd {
            sock: SocketId(0),
            job: None
        }
        .starts_action());
    }

    #[test]
    fn mode_switch_is_a_jobless_action_start() {
        let m = Marker::ModeSwitch {
            from: Mode::Lo,
            to: Mode::Hi,
        };
        assert_eq!(m.kind(), MarkerKind::ModeSwitch);
        assert!(m.starts_action());
        assert_eq!(m.job(), None);
        assert_eq!(m.to_string(), "M_ModeSwitch lo hi");
    }

    #[test]
    fn job_accessor() {
        assert_eq!(Marker::Dispatch(job()).job(), Some(&job()));
        assert_eq!(Marker::Selection.job(), None);
    }

    #[test]
    fn display_mentions_payload() {
        let m = Marker::ReadEnd {
            sock: SocketId(2),
            job: Some(job()),
        };
        assert_eq!(m.to_string(), "M_ReadE sock2 j1/τ0");
    }
}
