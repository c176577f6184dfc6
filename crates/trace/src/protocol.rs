//! The scheduler-protocol state-transition system (Fig. 5, Def. 3.1).
//!
//! The paper presents the STS for two sockets; this implementation is
//! parametric in the socket count (footnote 2 notes the real development is
//! too). The automaton's states are the basic actions currently being
//! performed, refined with the book-keeping needed to track the polling
//! phase: which socket is read next and whether the current polling round
//! has seen a successful read — `check_sockets_until_empty` only terminates
//! after one complete round in which **all** reads fail (§2.1).
//!
//! Accepting a trace both checks the protocol (Def. 3.1: `tr_prot tr`) and
//! produces the sequence of [`BasicAction`]s with their spans, which is the
//! input to the timed-trace machinery (`rossl-timing`) and the schedule
//! conversion (`rossl-schedule`).
//!
//! The automaton also runs one marker at a time as a [`ProtocolCursor`]:
//! each accepted marker hands back the basic action it closes, with its
//! job borrowed from the trace. [`ProtocolAutomaton::accept_from`] is a
//! loop over the cursor, so the action-assembly rules exist once.
//! [`ProtocolAutomaton::check`], which keeps only the verdict, is a loop
//! over [`ProtocolAutomaton::step`] alone and assembles no actions.

use std::fmt;

use serde::{Deserialize, Serialize};

use rossl_model::{JobId, SocketId};

use crate::action::{ActionRef, ActionSpan, BasicAction};
use crate::marker::Marker;

/// A state of the scheduler-protocol automaton.
///
/// The automaton starts in `PollReady { next: 0, round_success: false }`:
/// Def. 3.1 starts runs "in the Idling state", whose only outgoing edge is
/// `M_ReadS`, i.e. the beginning of a polling phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolState {
    /// In the polling phase, about to issue `M_ReadS` for socket `next`.
    PollReady {
        /// Index of the socket to be read next.
        next: usize,
        /// Whether the current round has had a successful read so far.
        round_success: bool,
    },
    /// `M_ReadS` seen; awaiting `M_ReadE` for socket `next`.
    PollReading {
        /// Index of the socket being read.
        next: usize,
        /// Whether the current round has had a successful read so far.
        round_success: bool,
    },
    /// A complete polling round failed on all sockets; awaiting
    /// `M_Selection`.
    AwaitSelection,
    /// `M_Selection` seen; awaiting `M_Dispatch j` or `M_Idling`.
    Selected,
    /// `M_Dispatch j` seen; awaiting `M_Execution` of the same job.
    Dispatched(JobId),
    /// `M_Execution j` seen; awaiting `M_Completion` of the same job.
    Executing(JobId),
}

impl ProtocolState {
    /// The initial state (start of the first polling phase).
    pub const INITIAL: ProtocolState = ProtocolState::PollReady {
        next: 0,
        round_success: false,
    };
}

impl fmt::Display for ProtocolState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolState::PollReady {
                next,
                round_success,
            } => write!(f, "PollReady(sock{next}, success={round_success})"),
            ProtocolState::PollReading {
                next,
                round_success,
            } => write!(f, "PollReading(sock{next}, success={round_success})"),
            ProtocolState::AwaitSelection => write!(f, "AwaitSelection"),
            ProtocolState::Selected => write!(f, "Selected"),
            ProtocolState::Dispatched(j) => write!(f, "Dispatched({j})"),
            ProtocolState::Executing(j) => write!(f, "Executing({j})"),
        }
    }
}

/// Why a marker was rejected in a given state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// The marker's kind is not permitted by any outgoing edge.
    UnexpectedMarker {
        /// Human-readable description of the expected markers.
        expected: &'static str,
    },
    /// An `M_ReadE` named a different socket than the round-robin scan
    /// dictates.
    WrongSocket {
        /// The socket that should have been read.
        expected: SocketId,
        /// The socket actually reported.
        found: SocketId,
    },
    /// An `M_Execution`/`M_Completion` named a different job than the one
    /// dispatched/executing.
    JobMismatch {
        /// The job the automaton expected.
        expected: JobId,
        /// The job in the marker.
        found: JobId,
    },
    /// An `M_ReadE` referenced a socket index outside `0..n_sockets`.
    UnknownSocket {
        /// The out-of-range socket.
        found: SocketId,
        /// The number of configured sockets.
        n_sockets: usize,
    },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::UnexpectedMarker { expected } => {
                write!(f, "expected {expected}")
            }
            ProtocolViolation::WrongSocket { expected, found } => {
                write!(f, "expected a read of {expected}, found {found}")
            }
            ProtocolViolation::JobMismatch { expected, found } => {
                write!(f, "expected job {expected}, found {found}")
            }
            ProtocolViolation::UnknownSocket { found, n_sockets } => {
                write!(f, "socket {found} out of range (n_sockets = {n_sockets})")
            }
        }
    }
}

/// A scheduler-protocol violation: `trace[index]` is not accepted from
/// `state`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Index of the offending marker in the trace.
    pub index: usize,
    /// The automaton state before the offending marker.
    pub state: ProtocolState,
    /// The offending marker.
    pub marker: Marker,
    /// The specific violation.
    pub violation: ProtocolViolation,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduler protocol violated at index {}: in state {}, marker {}: {}",
            self.index, self.state, self.marker, self.violation
        )
    }
}

impl std::error::Error for ProtocolError {}

/// The result of accepting a trace: the basic actions with their spans and
/// the final automaton state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolRun {
    actions: Vec<ActionSpan>,
    final_state: ProtocolState,
    unresolved_start: Option<usize>,
}

impl ProtocolRun {
    /// The basic actions, in execution order. The final span may be open
    /// (`end == None`) when the trace stops mid-action.
    pub fn actions(&self) -> &[ActionSpan] {
        &self.actions
    }

    /// The automaton state after the whole trace.
    pub fn final_state(&self) -> ProtocolState {
        self.final_state
    }

    /// The index of a trailing marker that started an action whose identity
    /// is not yet determined (a trailing `M_ReadS` whose `M_ReadE` is
    /// missing, or a trailing `M_Selection` whose outcome marker is
    /// missing).
    pub fn unresolved_start(&self) -> Option<usize> {
        self.unresolved_start
    }

    /// Convenience: the bare basic-action sequence (complete and the
    /// resolved-but-open trailing action).
    pub fn basic_actions(&self) -> Vec<BasicAction> {
        self.actions.iter().map(|s| s.action.clone()).collect()
    }
}

/// The executable STS of Fig. 5, parametric in the number of sockets.
///
/// # Examples
///
/// ```
/// use rossl_trace::{Marker, ProtocolAutomaton, ProtocolState};
/// use rossl_model::SocketId;
///
/// let sts = ProtocolAutomaton::new(2);
/// // An idle loop iteration: both sockets fail, selection fails, idle.
/// let trace = vec![
///     Marker::ReadStart,
///     Marker::ReadEnd { sock: SocketId(0), job: None },
///     Marker::ReadStart,
///     Marker::ReadEnd { sock: SocketId(1), job: None },
///     Marker::Selection,
///     Marker::Idling,
/// ];
/// let run = sts.accept(&trace)?;
/// assert_eq!(run.final_state(), ProtocolState::INITIAL);
/// # Ok::<(), rossl_trace::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolAutomaton {
    n_sockets: usize,
}

impl ProtocolAutomaton {
    /// Creates the automaton for a scheduler with `n_sockets` input sockets.
    ///
    /// # Panics
    ///
    /// Panics if `n_sockets` is zero.
    pub fn new(n_sockets: usize) -> ProtocolAutomaton {
        assert!(n_sockets > 0, "scheduler must have at least one socket");
        ProtocolAutomaton { n_sockets }
    }

    /// The configured socket count.
    pub fn n_sockets(&self) -> usize {
        self.n_sockets
    }

    /// One transition of the STS. Returns the successor state.
    ///
    /// # Errors
    ///
    /// Returns the [`ProtocolViolation`] if `marker` is not accepted in
    /// `state`.
    #[inline]
    pub fn step(
        &self,
        state: ProtocolState,
        marker: &Marker,
    ) -> Result<ProtocolState, ProtocolViolation> {
        use ProtocolState as S;
        match (state, marker) {
            (
                S::PollReady {
                    next,
                    round_success,
                },
                Marker::ReadStart,
            ) => Ok(S::PollReading {
                next,
                round_success,
            }),
            (
                S::PollReading {
                    next,
                    round_success,
                },
                Marker::ReadEnd { sock, job },
            ) => {
                if sock.0 >= self.n_sockets {
                    return Err(ProtocolViolation::UnknownSocket {
                        found: *sock,
                        n_sockets: self.n_sockets,
                    });
                }
                if sock.0 != next {
                    return Err(ProtocolViolation::WrongSocket {
                        expected: SocketId(next),
                        found: *sock,
                    });
                }
                let round_success = round_success || job.is_some();
                if next + 1 < self.n_sockets {
                    Ok(S::PollReady {
                        next: next + 1,
                        round_success,
                    })
                } else if round_success {
                    // Some read in this round succeeded: poll another round.
                    Ok(S::PollReady {
                        next: 0,
                        round_success: false,
                    })
                } else {
                    // One complete round of failures: polling phase over.
                    Ok(S::AwaitSelection)
                }
            }
            (S::AwaitSelection, Marker::Selection) => Ok(S::Selected),
            (S::Selected, Marker::Dispatch(j)) => Ok(S::Dispatched(j.id())),
            (S::Selected, Marker::Idling) => Ok(ProtocolState::INITIAL),
            // A mode switch is a decision outcome like Idling: it closes
            // the selection phase and restarts the polling loop.
            (S::Selected, Marker::ModeSwitch { .. }) => Ok(ProtocolState::INITIAL),
            (S::Dispatched(expected), Marker::Execution(j)) => {
                if j.id() == expected {
                    Ok(S::Executing(expected))
                } else {
                    Err(ProtocolViolation::JobMismatch {
                        expected,
                        found: j.id(),
                    })
                }
            }
            (S::Executing(expected), Marker::Completion(j)) => {
                if j.id() == expected {
                    Ok(ProtocolState::INITIAL)
                } else {
                    Err(ProtocolViolation::JobMismatch {
                        expected,
                        found: j.id(),
                    })
                }
            }
            (state, _) => Err(ProtocolViolation::UnexpectedMarker {
                expected: expected_markers(state),
            }),
        }
    }

    /// Accepts a whole trace from the initial state, producing the basic
    /// actions (Def. 3.1's run).
    ///
    /// # Errors
    ///
    /// Returns the first [`ProtocolError`] if the trace violates the
    /// scheduler protocol.
    pub fn accept(&self, trace: &[Marker]) -> Result<ProtocolRun, ProtocolError> {
        self.accept_from(ProtocolState::INITIAL, trace)
    }

    /// Checks a whole trace against the protocol from the initial state,
    /// without assembling its basic actions: the verdict of
    /// [`ProtocolAutomaton::accept`] for callers that need no
    /// [`ProtocolRun`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ProtocolError`], the one `accept` returns.
    pub fn check(&self, trace: &[Marker]) -> Result<(), ProtocolError> {
        let mut state = ProtocolState::INITIAL;
        for (index, marker) in trace.iter().enumerate() {
            state = self
                .step(state, marker)
                .map_err(|violation| ProtocolError {
                    index,
                    state,
                    marker: marker.clone(),
                    violation,
                })?;
        }
        Ok(())
    }

    /// Accepts a trace starting in an arbitrary state. Used by incremental
    /// monitors; [`ProtocolAutomaton::accept`] is the Def. 3.1 entry point.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProtocolError`] if the trace violates the
    /// scheduler protocol.
    pub fn accept_from(
        &self,
        state: ProtocolState,
        trace: &[Marker],
    ) -> Result<ProtocolRun, ProtocolError> {
        let mut cursor = self.cursor_from(state);
        let mut actions: Vec<ActionSpan> = Vec::with_capacity(trace.len());
        for (index, marker) in trace.iter().enumerate() {
            if let Some((action, start)) = cursor.push(index, marker)? {
                actions.push(ActionSpan {
                    action: action.into(),
                    start,
                    end: Some(index),
                });
            }
        }
        if let Some((action, start)) = cursor.open_action() {
            actions.push(ActionSpan {
                action: action.into(),
                start,
                end: None,
            });
        }
        Ok(ProtocolRun {
            actions,
            final_state: cursor.state(),
            unresolved_start: cursor.unresolved_start(),
        })
    }

    /// A cursor that runs the automaton from the initial state, one marker
    /// at a time.
    pub fn cursor<'a>(&self) -> ProtocolCursor<'a> {
        self.cursor_from(ProtocolState::INITIAL)
    }

    /// A cursor that runs the automaton from `state`.
    pub(crate) fn cursor_from<'a>(&self, state: ProtocolState) -> ProtocolCursor<'a> {
        ProtocolCursor {
            automaton: *self,
            state,
            open: None,
        }
    }
}

/// The automaton run one marker at a time, assembling basic actions as it
/// goes.
///
/// [`ProtocolCursor::push`] takes the markers of a trace in order. Every
/// marker except `M_ReadE` starts a basic action and so closes the one in
/// progress; `push` returns that closed action with the index of the marker
/// that started it, its job borrowed from the trace. Two actions are
/// resolved by a later marker: a `Read`'s outcome by its `M_ReadE`, and a
/// `Selection`'s by the decision that closes it (`Selection j` for
/// `M_Dispatch j`, `Selection ⊥` for `M_Idling` or `M_ModeSwitch`).
///
/// # Examples
///
/// ```
/// use rossl_model::SocketId;
/// use rossl_trace::{ActionRef, Marker, ProtocolAutomaton};
///
/// let trace = vec![
///     Marker::ReadStart,
///     Marker::ReadEnd { sock: SocketId(0), job: None },
///     Marker::Selection,
///     Marker::Idling,
/// ];
/// let mut cursor = ProtocolAutomaton::new(1).cursor();
/// let mut closed = Vec::new();
/// for (index, marker) in trace.iter().enumerate() {
///     if let Some((action, start)) = cursor.push(index, marker)? {
///         closed.push((action, start, index));
///     }
/// }
/// // The failed read closes at M_Selection, the failed selection at
/// // M_Idling; the idling action is still in progress.
/// assert_eq!(
///     closed,
///     vec![
///         (ActionRef::Read { sock: SocketId(0), job: None }, 0, 2),
///         (ActionRef::Selection(None), 2, 3),
///     ]
/// );
/// # Ok::<(), rossl_trace::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolCursor<'a> {
    automaton: ProtocolAutomaton,
    state: ProtocolState,
    /// The action in progress and the index of its first marker; the
    /// action is `None` while its outcome is unresolved (after `M_ReadS`
    /// or `M_Selection`).
    open: Option<(Option<ActionRef<'a>>, usize)>,
}

impl<'a> ProtocolCursor<'a> {
    /// Accepts `marker`, the trace's marker at `index`, and returns the
    /// action it closes with that action's start index.
    ///
    /// # Errors
    ///
    /// Returns the [`ProtocolError`] if the automaton rejects `marker`; the
    /// cursor is then left unchanged.
    #[inline]
    pub fn push(
        &mut self,
        index: usize,
        marker: &'a Marker,
    ) -> Result<Option<(ActionRef<'a>, usize)>, ProtocolError> {
        let state = self.state;
        self.state = self
            .automaton
            .step(state, marker)
            .map_err(|violation| ProtocolError {
                index,
                state,
                marker: marker.clone(),
                violation,
            })?;
        let opened = match marker {
            Marker::ReadEnd { sock, job } => {
                // Resolve the pending read. Resumed mid-read (via
                // `cursor_from(PollReading …)`), the M_ReadS lies before
                // this window, so the visible part of the read starts here.
                let start = self.open.map_or(index, |(_, start)| start);
                let read = ActionRef::Read {
                    sock: *sock,
                    job: job.as_ref(),
                };
                self.open = Some((Some(read), start));
                return Ok(None);
            }
            Marker::ReadStart | Marker::Selection => None,
            Marker::Dispatch(j) => Some(ActionRef::Dispatch(j)),
            Marker::Execution(j) => Some(ActionRef::Execution(j)),
            Marker::Completion(j) => Some(ActionRef::Completion(j)),
            Marker::Idling => Some(ActionRef::Idling),
            Marker::ModeSwitch { from, to } => Some(ActionRef::ModeSwitch {
                from: *from,
                to: *to,
            }),
        };
        let closed = self.open.replace((opened, index)).map(|(action, start)| {
            // `step` forces M_ReadE right after M_ReadS, so an unresolved
            // action closed here is a selection, and `marker` is the
            // decision `step` permits out of `Selected`.
            let action = action.unwrap_or(match marker {
                Marker::Dispatch(j) => ActionRef::Selection(Some(j)),
                // A mode switch preempts the dispatch decision: the
                // selection itself selected nothing.
                _ => ActionRef::Selection(None),
            });
            (action, start)
        });
        Ok(closed)
    }

    /// The automaton state after the markers pushed so far.
    pub(crate) fn state(&self) -> ProtocolState {
        self.state
    }

    /// The action in progress with its start index, once its outcome is
    /// known.
    pub(crate) fn open_action(&self) -> Option<(ActionRef<'a>, usize)> {
        match self.open {
            Some((Some(action), start)) => Some((action, start)),
            _ => None,
        }
    }

    /// The start index of the action in progress while its outcome is
    /// still unresolved (a trailing `M_ReadS` without its `M_ReadE`, or a
    /// trailing `M_Selection` without its decision).
    pub(crate) fn unresolved_start(&self) -> Option<usize> {
        match self.open {
            Some((None, start)) => Some(start),
            _ => None,
        }
    }
}

fn expected_markers(state: ProtocolState) -> &'static str {
    match state {
        ProtocolState::PollReady { .. } => "M_ReadS",
        ProtocolState::PollReading { .. } => "M_ReadE",
        ProtocolState::AwaitSelection => "M_Selection",
        ProtocolState::Selected => "M_Dispatch, M_Idling or M_ModeSwitch",
        ProtocolState::Dispatched(_) => "M_Execution",
        ProtocolState::Executing(_) => "M_Completion",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionKind;
    use rossl_model::{Job, JobId, TaskId};

    fn job(id: u64) -> Job {
        Job::new(JobId(id), TaskId(0), vec![0])
    }

    fn read_ok(sock: usize, id: u64) -> [Marker; 2] {
        [
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(sock),
                job: Some(job(id)),
            },
        ]
    }

    fn read_fail(sock: usize) -> [Marker; 2] {
        [
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(sock),
                job: None,
            },
        ]
    }

    /// The example run of Fig. 3: two jobs on one socket, j2 has higher
    /// priority and executes first.
    fn fig3_trace() -> Vec<Marker> {
        let mut t = Vec::new();
        t.extend(read_ok(0, 1)); // reads j1
        t.extend(read_ok(0, 2)); // reads j2 (arrived while reading j1)
        t.extend(read_fail(0)); // no more jobs
        t.push(Marker::Selection);
        t.push(Marker::Dispatch(job(2)));
        t.push(Marker::Execution(job(2)));
        t.push(Marker::Completion(job(2)));
        t.extend(read_fail(0));
        t.push(Marker::Selection);
        t.push(Marker::Dispatch(job(1)));
        t.push(Marker::Execution(job(1)));
        t.push(Marker::Completion(job(1)));
        t
    }

    #[test]
    fn accepts_fig3_run() {
        let run = ProtocolAutomaton::new(1).accept(&fig3_trace()).unwrap();
        let kinds: Vec<ActionKind> = run.actions().iter().map(|s| s.action.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                ActionKind::ReadSuccess,
                ActionKind::ReadSuccess,
                ActionKind::ReadFailure,
                ActionKind::SelectionSuccess,
                ActionKind::Dispatch,
                ActionKind::Execution,
                ActionKind::Completion,
                ActionKind::ReadFailure,
                ActionKind::SelectionSuccess,
                ActionKind::Dispatch,
                ActionKind::Execution,
                ActionKind::Completion,
            ]
        );
        assert_eq!(run.final_state(), ProtocolState::INITIAL);
        assert!(run.unresolved_start().is_none());
        // The final Completion is open (trace ends mid-action).
        assert!(!run.actions().last().unwrap().is_complete());
    }

    #[test]
    fn polling_continues_while_any_read_succeeds() {
        let sts = ProtocolAutomaton::new(2);
        let mut t = Vec::new();
        // Round 1: sock0 fails, sock1 succeeds -> must poll another round.
        t.extend(read_fail(0));
        t.extend(read_ok(1, 1));
        // Round 2: both fail -> selection.
        t.extend(read_fail(0));
        t.extend(read_fail(1));
        t.push(Marker::Selection);
        t.push(Marker::Dispatch(job(1)));
        let run = sts.accept(&t).unwrap();
        assert_eq!(run.final_state(), ProtocolState::Dispatched(JobId(1)));
    }

    #[test]
    fn selection_before_round_completes_is_rejected() {
        let sts = ProtocolAutomaton::new(2);
        let mut t = Vec::new();
        t.extend(read_fail(0));
        t.push(Marker::Selection); // sock1 not yet read
        let err = sts.accept(&t).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(matches!(
            err.violation,
            ProtocolViolation::UnexpectedMarker { expected: "M_ReadS" }
        ));
    }

    #[test]
    fn selection_after_successful_round_is_rejected() {
        // A round with a success must be followed by another round.
        let sts = ProtocolAutomaton::new(1);
        let mut t = Vec::new();
        t.extend(read_ok(0, 1));
        t.push(Marker::Selection);
        let err = sts.accept(&t).unwrap_err();
        assert_eq!(err.index, 2);
    }

    #[test]
    fn out_of_order_socket_is_rejected() {
        let sts = ProtocolAutomaton::new(2);
        let t = vec![
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(1),
                job: None,
            },
        ];
        let err = sts.accept(&t).unwrap_err();
        assert!(matches!(
            err.violation,
            ProtocolViolation::WrongSocket {
                expected: SocketId(0),
                found: SocketId(1)
            }
        ));
    }

    #[test]
    fn unknown_socket_is_rejected() {
        let sts = ProtocolAutomaton::new(1);
        let t = vec![
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(5),
                job: None,
            },
        ];
        let err = sts.accept(&t).unwrap_err();
        assert!(matches!(
            err.violation,
            ProtocolViolation::UnknownSocket { .. }
        ));
    }

    #[test]
    fn execution_of_wrong_job_is_rejected() {
        let sts = ProtocolAutomaton::new(1);
        let mut t = Vec::new();
        t.extend(read_ok(0, 1));
        t.extend(read_fail(0));
        t.push(Marker::Selection);
        t.push(Marker::Dispatch(job(1)));
        t.push(Marker::Execution(job(9)));
        let err = sts.accept(&t).unwrap_err();
        assert!(matches!(
            err.violation,
            ProtocolViolation::JobMismatch {
                expected: JobId(1),
                found: JobId(9)
            }
        ));
    }

    #[test]
    fn idle_loop_returns_to_initial() {
        let sts = ProtocolAutomaton::new(1);
        let mut t = Vec::new();
        for _ in 0..3 {
            t.extend(read_fail(0));
            t.push(Marker::Selection);
            t.push(Marker::Idling);
        }
        let run = sts.accept(&t).unwrap();
        assert_eq!(run.final_state(), ProtocolState::INITIAL);
        let kinds: Vec<_> = run.actions().iter().map(|s| s.action.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                ActionKind::ReadFailure,
                ActionKind::SelectionFailure,
                ActionKind::Idling,
                ActionKind::ReadFailure,
                ActionKind::SelectionFailure,
                ActionKind::Idling,
                ActionKind::ReadFailure,
                ActionKind::SelectionFailure,
                ActionKind::Idling,
            ]
        );
    }

    #[test]
    fn mode_switch_closes_the_decision_and_restarts_polling() {
        use rossl_model::Mode;
        let sts = ProtocolAutomaton::new(1);
        let mut t = Vec::new();
        t.extend(read_fail(0));
        t.push(Marker::Selection);
        t.push(Marker::ModeSwitch {
            from: Mode::Lo,
            to: Mode::Hi,
        });
        t.extend(read_fail(0));
        let run = sts.accept(&t).unwrap();
        assert_eq!(run.final_state(), ProtocolState::AwaitSelection);
        let kinds: Vec<_> = run.actions().iter().map(|s| s.action.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                ActionKind::ReadFailure,
                ActionKind::SelectionFailure,
                ActionKind::ModeSwitch,
                ActionKind::ReadFailure,
            ]
        );
    }

    #[test]
    fn mode_switch_outside_decision_is_rejected() {
        use rossl_model::Mode;
        let sts = ProtocolAutomaton::new(1);
        let t = vec![Marker::ModeSwitch {
            from: Mode::Lo,
            to: Mode::Hi,
        }];
        assert!(sts.accept(&t).is_err());
    }

    #[test]
    fn dispatch_without_selection_is_rejected() {
        let sts = ProtocolAutomaton::new(1);
        let t = vec![Marker::Dispatch(job(0))];
        assert!(sts.accept(&t).is_err());
    }

    #[test]
    fn trailing_read_start_is_unresolved() {
        let sts = ProtocolAutomaton::new(1);
        let t = vec![Marker::ReadStart];
        let run = sts.accept(&t).unwrap();
        assert_eq!(run.unresolved_start(), Some(0));
        assert!(run.actions().is_empty());
    }

    #[test]
    fn trailing_selection_is_unresolved() {
        let sts = ProtocolAutomaton::new(1);
        let mut t = Vec::new();
        t.extend(read_fail(0));
        t.push(Marker::Selection);
        let run = sts.accept(&t).unwrap();
        assert_eq!(run.unresolved_start(), Some(2));
        // The read action is complete.
        assert_eq!(run.actions().len(), 1);
        assert!(run.actions()[0].is_complete());
    }

    #[test]
    fn spans_tile_the_trace() {
        let run = ProtocolAutomaton::new(1).accept(&fig3_trace()).unwrap();
        let spans = run.actions();
        for w in spans.windows(2) {
            assert_eq!(w[0].end, Some(w[1].start), "spans must tile");
        }
        assert_eq!(spans[0].start, 0);
    }

    #[test]
    fn cursor_closes_each_action_at_the_next_starter() {
        let trace = fig3_trace();
        let run = ProtocolAutomaton::new(1).accept(&trace).unwrap();
        let mut cursor = ProtocolAutomaton::new(1).cursor();
        let mut closed = Vec::new();
        for (index, marker) in trace.iter().enumerate() {
            if let Some((action, start)) = cursor.push(index, marker).unwrap() {
                closed.push(ActionSpan {
                    action: action.into(),
                    start,
                    end: Some(index),
                });
            }
        }
        let complete: Vec<ActionSpan> = run
            .actions()
            .iter()
            .filter(|s| s.is_complete())
            .cloned()
            .collect();
        assert_eq!(closed, complete);
        let (open, start) = cursor.open_action().unwrap();
        assert_eq!(
            (open.kind(), start),
            (ActionKind::Completion, trace.len() - 1)
        );
        assert_eq!(open.job(), Some(&job(1)));
    }

    #[test]
    fn cursor_resumed_mid_read_starts_the_read_at_its_end_marker() {
        let sts = ProtocolAutomaton::new(2);
        let mut cursor = sts.cursor_from(ProtocolState::PollReading {
            next: 1,
            round_success: false,
        });
        let end = Marker::ReadEnd {
            sock: SocketId(1),
            job: Some(job(4)),
        };
        assert_eq!(cursor.push(0, &end).unwrap(), None);
        let (read, start) = cursor.push(1, &Marker::ReadStart).unwrap().unwrap();
        assert_eq!(start, 0);
        assert_eq!(read.kind(), ActionKind::ReadSuccess);
        assert_eq!(cursor.unresolved_start(), Some(1));
        assert!(cursor.open_action().is_none());
    }

    #[test]
    fn rejected_marker_leaves_the_cursor_unchanged() {
        let sts = ProtocolAutomaton::new(1);
        let mut cursor = sts.cursor();
        let start = Marker::ReadStart;
        cursor.push(0, &start).unwrap();
        let err = cursor.push(1, &Marker::Selection).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(
            cursor.state(),
            ProtocolState::PollReading {
                next: 0,
                round_success: false,
            }
        );
        assert_eq!(cursor.unresolved_start(), Some(0));
    }

    #[test]
    fn empty_trace_is_accepted() {
        let run = ProtocolAutomaton::new(3).accept(&[]).unwrap();
        assert!(run.actions().is_empty());
        assert_eq!(run.final_state(), ProtocolState::INITIAL);
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn zero_sockets_panics() {
        let _ = ProtocolAutomaton::new(0);
    }
}
