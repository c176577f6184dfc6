//! Marker-function traces and their invariants.
//!
//! This crate reproduces §2.2 and §3.1 of the RefinedProsa paper:
//!
//! * [`Marker`] — the marker functions of Fig. 4 (`M_ReadS`, `M_ReadE`,
//!   `M_Selection`, `M_Dispatch`, `M_Execution`, `M_Completion`,
//!   `M_Idling`). A *trace* is a sequence of markers emitted by the
//!   instrumented scheduler.
//! * [`BasicAction`] — the basic actions of Fig. 4, obtained by running the
//!   trace through the scheduler-protocol automaton.
//! * [`ProtocolAutomaton`] — an executable version of the state-transition
//!   system of Fig. 5, parametric in the number of sockets. A trace
//!   *satisfies the scheduler protocol* (Def. 3.1, `tr_prot`) iff the
//!   automaton accepts it starting from the idling state. Its
//!   [`ProtocolCursor`] runs it one marker at a time and hands out each
//!   closed action as an [`ActionRef`] that borrows its job.
//! * [`check_functional`] — the functional-correctness invariant of
//!   Def. 3.2 (`tr_valid`): dispatched jobs have maximal priority among the
//!   pending jobs, the scheduler idles only when no jobs are pending, and
//!   job identifiers are unique. [`FunctionalCheck`] is the same check one
//!   marker at a time.
//! * [`pending_jobs`] / [`read_jobs`] — the auxiliary set definitions used
//!   by Defs 2.1 and 3.2.
//!
//! In the paper these invariants are established *foundationally* for all
//! traces by RefinedC; here they are executable checkers that the
//! `rossl-verify` crate runs over **all** traces of a bounded configuration
//! (exhaustive model checking) and that the test-suite runs over randomized
//! and fault-injected traces.
//!
//! # Examples
//!
//! ```
//! use rossl_model::{Job, JobId, SocketId, TaskId};
//! use rossl_trace::{Marker, ProtocolAutomaton};
//!
//! let j = Job::new(JobId(0), TaskId(0), vec![0]);
//! let trace = vec![
//!     Marker::ReadStart,
//!     Marker::ReadEnd { sock: SocketId(0), job: Some(j.clone()) },
//!     Marker::ReadStart,
//!     Marker::ReadEnd { sock: SocketId(0), job: None },
//!     Marker::Selection,
//!     Marker::Dispatch(j.clone()),
//!     Marker::Execution(j.clone()),
//!     Marker::Completion(j),
//! ];
//! let run = ProtocolAutomaton::new(1).accept(&trace).expect("protocol holds");
//! assert_eq!(run.actions().len(), 6); // Read, Read, Selection, Disp, Exec, Compl
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod action;
mod functional;
mod marker;
mod protocol;
mod sets;
mod stats;
mod stitched;

pub use action::{ActionKind, ActionRef, ActionSpan, BasicAction};
pub use functional::{check_functional, FunctionalCheck, FunctionalError};
pub use marker::{Marker, MarkerKind};
pub use protocol::{
    ProtocolAutomaton, ProtocolCursor, ProtocolError, ProtocolRun, ProtocolState,
    ProtocolViolation,
};
pub use sets::{pending_jobs, read_jobs};
pub use stats::TraceStats;
pub use stitched::{check_stitched, SeamViolation, StitchedCheck, StitchedError, StitchedReport};

/// A trace of marker functions, ordered by emission.
pub type Trace = Vec<Marker>;
