//! Stitched traces: checking across crash/restart seams.
//!
//! A crash partitions the scheduler's history into *segments*: the
//! committed journal prefix before each crash, and the fresh trace the
//! restarted scheduler emits afterwards. [`check_stitched`] takes these
//! segments in order, as borrowed slices, and extends Defs 3.1 and 3.2
//! to the stitched whole:
//!
//! * **Protocol, per segment** — each segment must independently satisfy
//!   the scheduler protocol from [`ProtocolState::INITIAL`]: a restart
//!   re-enters the loop at the top of the polling phase, and the
//!   pre-crash segment is allowed to end mid-action (the automaton's
//!   open trailing span).
//! * **Functional, globally** — the pending set, job-id uniqueness and
//!   priority obligations carry *across* seams: a job accepted before a
//!   crash is still pending after it, and must still be dispatched in
//!   priority order. The criticality mode carries across seams too — a
//!   recovery resumes in the last *committed* mode switch's target, so
//!   the dispatch and idle obligations quantify over the jobs that mode
//!   serves. This layer *is* the single-trace check: one
//!   [`FunctionalCheck`] runs over all segments in order.
//! * **Seam well-formedness** — the crash seam itself must neither
//!   duplicate nor lose work:
//!   * a job already **completed** before the crash must not be
//!     dispatched or completed again ([`SeamViolation::DuplicateDispatch`],
//!     [`SeamViolation::DuplicateCompletion`]);
//!   * a job **in flight** at the crash (dispatched, not completed) is
//!     returned to the pending set — execution is *at least once*, and
//!     the voided dispatch must be re-issued;
//!   * no **accepted job is lost**: with the per-socket consumed counts
//!     from the environment, the successful reads visible in the
//!     stitched trace must account for every message actually consumed
//!     ([`SeamViolation::LostAcceptedJob`]). This is the rule with
//!     teeth: a scheduler that reads a message but crashes before the
//!     journal commit has consumed input invisibly, and only this
//!     external accounting can tell.
//!
//! [`check_stitched`] is a loop over [`StitchedCheck`], the step that
//! carries the functional check across seams and adds the seam rules;
//! the fleet checker in `rossl-verify` runs the same step per shard.
//!
//! [`check_stitched`] evaluates the functional and seam layers before
//! the per-segment protocol layer, so forged or corrupted recoveries are
//! diagnosed as the seam violation they commit rather than as whatever
//! protocol violation the forgery happens to carry (see the function
//! docs for why the opposite order made
//! [`SeamViolation::DuplicateCompletion`] unreachable).

use std::collections::HashSet;
use std::fmt;

use rossl_model::{Job, JobId, SocketId, TaskSet};

use crate::functional::{FunctionalCheck, FunctionalError};
use crate::marker::Marker;
use crate::protocol::{ProtocolAutomaton, ProtocolError};

/// A violation of the crash-seam well-formedness rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeamViolation {
    /// A job completed before a crash was dispatched again afterwards —
    /// duplicated work the recovery protocol promised to prevent.
    DuplicateDispatch {
        /// Segment containing the offending dispatch.
        segment: usize,
        /// Marker index within that segment.
        index: usize,
        /// The re-dispatched job.
        job: JobId,
    },
    /// A job was completed twice across segments.
    DuplicateCompletion {
        /// Segment containing the second completion.
        segment: usize,
        /// Marker index within that segment.
        index: usize,
        /// The doubly-completed job.
        job: JobId,
    },
    /// The successful reads visible in the stitched trace do not account
    /// for every message consumed from a socket: jobs were accepted and
    /// then lost across a crash (consumed > observed), or appeared from
    /// nowhere (observed > consumed).
    LostAcceptedJob {
        /// The socket whose accounting is off.
        sock: SocketId,
        /// Messages the environment recorded as consumed.
        consumed: usize,
        /// Successful reads of that socket in the stitched trace.
        observed: usize,
    },
}

impl fmt::Display for SeamViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeamViolation::DuplicateDispatch {
                segment,
                index,
                job,
            } => write!(
                f,
                "segment {segment} index {index}: job {job} dispatched again after completing"
            ),
            SeamViolation::DuplicateCompletion {
                segment,
                index,
                job,
            } => write!(f, "segment {segment} index {index}: job {job} completed twice"),
            SeamViolation::LostAcceptedJob {
                sock,
                consumed,
                observed,
            } => write!(
                f,
                "{sock}: {consumed} message(s) consumed but {observed} read(s) visible"
            ),
        }
    }
}

/// Why a stitched trace was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StitchedError {
    /// A segment violates the scheduler protocol on its own.
    Protocol {
        /// Index of the offending segment.
        segment: usize,
        /// The underlying protocol error (indices segment-relative).
        error: ProtocolError,
    },
    /// The stitched whole violates functional correctness (Def. 3.2
    /// carried across seams).
    Functional {
        /// Segment containing the offending marker.
        segment: usize,
        /// The underlying functional error (indices segment-relative).
        error: FunctionalError,
    },
    /// The crash seam duplicated or lost work.
    Seam(SeamViolation),
}

impl fmt::Display for StitchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchedError::Protocol { segment, error } => {
                write!(f, "segment {segment}: {error}")
            }
            StitchedError::Functional { segment, error } => {
                write!(f, "segment {segment}: {error}")
            }
            StitchedError::Seam(v) => write!(f, "crash seam: {v}"),
        }
    }
}

impl std::error::Error for StitchedError {}

/// What a successful stitched check established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchedReport {
    /// Jobs completed across all segments.
    pub jobs_completed: usize,
    /// Jobs still pending when the final segment ends.
    pub jobs_pending_at_end: usize,
    /// Jobs whose dispatch was voided by a crash and re-issued later —
    /// the at-least-once executions.
    pub redispatched: Vec<JobId>,
}

/// Checks a stitched trace: per-segment protocol, cross-segment
/// functional correctness, and crash-seam well-formedness.
///
/// `segments` are the history's segments in crash order: segment `0` is
/// the (journal-recovered) trace up to the first crash, segment `1` the
/// trace of the first restart, and so on. A run with no crashes is one
/// segment. `consumed`, when provided, gives the number of messages the
/// environment recorded as consumed per socket (index = socket id); it
/// enables the lost-accepted-job check, which is impossible from the
/// trace alone.
///
/// # Errors
///
/// Returns the first [`StitchedError`] found, checking the functional
/// and seam layers (which walk all segments in order) *before* the
/// per-segment protocol layer. The ordering matters for diagnosis: the
/// functional pass is defined on arbitrary marker sequences (see
/// [`check_functional`](crate::check_functional)), so a forged or
/// corrupted recovery that, say, completes an already-completed job is
/// reported as the seam violation it is
/// ([`SeamViolation::DuplicateCompletion`]) rather than being shadowed
/// by the incidental protocol violation the same forgery usually
/// carries. (Protocol-valid traces can only re-complete a job through a
/// re-dispatch, which the seam layer already reports as
/// [`SeamViolation::DuplicateDispatch`] — with protocol checked first,
/// `DuplicateCompletion` was unreachable.)
pub fn check_stitched(
    segments: &[&[Marker]],
    tasks: &TaskSet,
    n_sockets: usize,
    consumed: Option<&[usize]>,
) -> Result<StitchedReport, StitchedError> {
    // Layers 1 and 2: one functional pass with seam rules over all
    // segments, then the accepted-job accounting against the environment.
    let mut check = StitchedCheck::new(tasks, n_sockets);
    for (segment, trace) in segments.iter().enumerate() {
        if segment > 0 {
            check.restart();
        }
        for (index, marker) in trace.iter().enumerate() {
            check.push(index, marker)?;
        }
    }
    if let Some(consumed) = consumed {
        check.check_consumed(consumed)?;
    }

    // Layer 3: each segment independently satisfies the protocol from
    // the initial state — a restart re-enters at the top of the loop.
    let sts = ProtocolAutomaton::new(n_sockets);
    for (segment, trace) in segments.iter().enumerate() {
        sts.check(trace)
            .map_err(|error| StitchedError::Protocol { segment, error })?;
    }

    Ok(check.finish())
}

/// Def. 3.2 carried across crash seams, one marker at a time.
///
/// One [`FunctionalCheck`] runs over every segment in order, so the
/// pending set, job-id uniqueness and the criticality mode carry across
/// seams. On top of it the step keeps the seam rules: the completed jobs
/// (checked before the functional step), the job in flight, whose
/// dispatch a restart voids, the re-dispatch list and the successful
/// reads per socket. Error indices count from the start of the current
/// segment.
#[derive(Debug, Clone)]
pub struct StitchedCheck<'t> {
    functional: FunctionalCheck<'t>,
    segment: usize,
    completed: HashSet<JobId>,
    in_flight: Option<Job>,
    voided: HashSet<JobId>,
    redispatched: Vec<JobId>,
    reads_per_sock: Vec<usize>,
}

impl<'t> StitchedCheck<'t> {
    /// A check of segment 0 of an empty history, against the priorities
    /// in `tasks`, counting reads on `n_sockets` sockets.
    pub fn new(tasks: &'t TaskSet, n_sockets: usize) -> StitchedCheck<'t> {
        StitchedCheck {
            functional: FunctionalCheck::new(tasks),
            segment: 0,
            completed: HashSet::new(),
            in_flight: None,
            voided: HashSet::new(),
            redispatched: Vec::new(),
            reads_per_sock: vec![0; n_sockets],
        }
    }

    /// Crosses a crash seam into the next segment. A job dispatched but
    /// not completed returns to the pending set: its dispatch is voided,
    /// and its execution becomes at-least-once. The criticality mode is
    /// *not* reset: a recovery resumes in the target of the last
    /// committed `M_ModeSwitch`.
    pub fn restart(&mut self) {
        self.segment += 1;
        if let Some(j) = self.in_flight.take() {
            self.voided.insert(j.id());
            self.functional.void_dispatch(&j);
        }
    }

    /// Admits a job migrated from another history into the pending set,
    /// at index 0 of the current segment, under the read rule: its id
    /// must be fresh and its task known.
    ///
    /// # Errors
    ///
    /// Returns [`FunctionalError::DuplicateJobId`] or
    /// [`FunctionalError::UnknownTask`] at index 0.
    pub fn admit(&mut self, job: &Job) -> Result<(), StitchedError> {
        self.functional
            .admit(0, job)
            .map_err(|error| StitchedError::Functional {
                segment: self.segment,
                error,
            })
    }

    /// Extends the checked history by `marker`, the current segment's
    /// marker at `index`. On success, returns the job that the marker
    /// made pending (a successful read) or dispatched: its payload is
    /// now the one the history holds for that id.
    ///
    /// # Errors
    ///
    /// Returns the seam or functional violation at `index`. A check that
    /// returned an error has stopped tracking the history; do not push
    /// further markers.
    pub fn push<'m>(
        &mut self,
        index: usize,
        marker: &'m Marker,
    ) -> Result<Option<&'m Job>, StitchedError> {
        let segment = self.segment;
        match marker {
            Marker::Dispatch(j) if self.completed.contains(&j.id()) => {
                return Err(StitchedError::Seam(SeamViolation::DuplicateDispatch {
                    segment,
                    index,
                    job: j.id(),
                }));
            }
            Marker::Completion(j) => {
                if !self.completed.insert(j.id()) {
                    return Err(StitchedError::Seam(SeamViolation::DuplicateCompletion {
                        segment,
                        index,
                        job: j.id(),
                    }));
                }
                self.in_flight = None;
                return Ok(None);
            }
            _ => {}
        }
        self.functional
            .push(index, marker)
            .map_err(|error| StitchedError::Functional { segment, error })?;
        Ok(match marker {
            Marker::ReadEnd { sock, job: Some(j) } => {
                if let Some(reads) = self.reads_per_sock.get_mut(sock.0) {
                    *reads += 1;
                }
                Some(j)
            }
            Marker::Dispatch(j) => {
                if self.voided.contains(&j.id()) {
                    self.redispatched.push(j.id());
                }
                self.in_flight = Some(j.clone());
                Some(j)
            }
            _ => None,
        })
    }

    /// The accepted-job accounting: the successful reads of each socket
    /// must equal the messages the environment recorded as consumed
    /// from it (index = socket id; a missing entry counts as zero).
    ///
    /// # Errors
    ///
    /// Returns [`SeamViolation::LostAcceptedJob`] for the first socket
    /// whose counts differ.
    pub fn check_consumed(&self, consumed: &[usize]) -> Result<(), StitchedError> {
        for (sock, &observed) in self.reads_per_sock.iter().enumerate() {
            let consumed = consumed.get(sock).copied().unwrap_or(0);
            if consumed != observed {
                return Err(StitchedError::Seam(SeamViolation::LostAcceptedJob {
                    sock: SocketId(sock),
                    consumed,
                    observed,
                }));
            }
        }
        Ok(())
    }

    /// The jobs accepted but not completed: the pending ones in id order,
    /// then the one in flight.
    pub fn unfinished(&self) -> impl Iterator<Item = JobId> + '_ {
        self.functional
            .pending()
            .chain(self.in_flight.as_ref().map(Job::id))
    }

    /// What the checked history established.
    pub fn finish(self) -> StitchedReport {
        StitchedReport {
            jobs_completed: self.completed.len(),
            jobs_pending_at_end: self.unfinished().count(),
            redispatched: self.redispatched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Duration, Mode, Priority, Task, TaskId};

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

    fn read_ok(sock: usize, j: Job) -> [Marker; 2] {
        [
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(sock),
                job: Some(j),
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

    /// j0 read and fully executed before the crash; restart idles.
    #[test]
    fn clean_crash_between_iterations_passes() {
        let mut seg0 = Vec::new();
        seg0.extend(read_ok(0, job(0, 0)));
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Dispatch(job(0, 0)));
        seg0.push(Marker::Execution(job(0, 0)));
        seg0.push(Marker::Completion(job(0, 0)));
        let mut seg1 = Vec::new();
        seg1.extend(read_fail(0));
        seg1.push(Marker::Selection);
        seg1.push(Marker::Idling);

        let report = check_stitched(&[&seg0, &seg1], &tasks(), 1, Some(&[1])).unwrap();
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_pending_at_end, 0);
        assert!(report.redispatched.is_empty());
    }

    /// Crash mid-execution: the in-flight job returns to pending and is
    /// re-dispatched after the restart (at-least-once execution).
    #[test]
    fn in_flight_job_is_redispatched_after_crash() {
        let mut seg0 = Vec::new();
        seg0.extend(read_ok(0, job(0, 0)));
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Dispatch(job(0, 0)));
        seg0.push(Marker::Execution(job(0, 0)));
        // crash before M_Completion
        let mut seg1 = Vec::new();
        seg1.extend(read_fail(0));
        seg1.push(Marker::Selection);
        seg1.push(Marker::Dispatch(job(0, 0)));
        seg1.push(Marker::Execution(job(0, 0)));
        seg1.push(Marker::Completion(job(0, 0)));

        let report = check_stitched(&[&seg0, &seg1], &tasks(), 1, Some(&[1])).unwrap();
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.redispatched, vec![JobId(0)]);
    }

    /// Without the seam rule the second dispatch would be
    /// `DispatchOfNonPending`; with it, priority order still binds: the
    /// re-pended low job must wait for a higher-priority arrival.
    #[test]
    fn redispatch_still_respects_priority() {
        let mut seg0 = Vec::new();
        seg0.extend(read_ok(0, job(0, 0))); // low
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Dispatch(job(0, 0)));
        // crash mid-dispatch
        let mut seg1 = Vec::new();
        seg1.extend(read_ok(0, job(1, 1))); // high arrives after restart
        seg1.extend(read_fail(0));
        seg1.push(Marker::Selection);
        seg1.push(Marker::Dispatch(job(0, 0))); // low before high: violation

        let err = check_stitched(&[&seg0, &seg1], &tasks(), 1, None).unwrap_err();
        assert!(matches!(
            err,
            StitchedError::Functional {
                segment: 1,
                error: FunctionalError::DispatchNotHighestPriority { .. },
            }
        ));
    }

    #[test]
    fn duplicate_dispatch_across_seam_is_rejected() {
        let mut seg0 = Vec::new();
        seg0.extend(read_ok(0, job(0, 0)));
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Dispatch(job(0, 0)));
        seg0.push(Marker::Execution(job(0, 0)));
        seg0.push(Marker::Completion(job(0, 0)));
        // A buggy recovery that re-pends an already-completed job.
        let mut seg1 = Vec::new();
        seg1.extend(read_fail(0));
        seg1.push(Marker::Selection);
        seg1.push(Marker::Dispatch(job(0, 0)));

        let err = check_stitched(&[&seg0, &seg1], &tasks(), 1, None).unwrap_err();
        assert_eq!(
            err,
            StitchedError::Seam(SeamViolation::DuplicateDispatch {
                segment: 1,
                index: 3,
                job: JobId(0),
            })
        );
    }

    /// A forged restart segment that replays a completion without any
    /// dispatch. Protocol-invalid, but the *seam* diagnosis is the one
    /// with explanatory power — with the protocol layer checked first
    /// this was misreported as `Protocol { segment: 1 }` and
    /// `DuplicateCompletion` was dead code.
    #[test]
    fn duplicate_completion_across_seam_is_rejected() {
        let mut seg0 = Vec::new();
        seg0.extend(read_ok(0, job(0, 0)));
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Dispatch(job(0, 0)));
        seg0.push(Marker::Execution(job(0, 0)));
        seg0.push(Marker::Completion(job(0, 0)));
        let seg1 = vec![Marker::Completion(job(0, 0))];

        let err = check_stitched(&[&seg0, &seg1], &tasks(), 1, None).unwrap_err();
        assert_eq!(
            err,
            StitchedError::Seam(SeamViolation::DuplicateCompletion {
                segment: 1,
                index: 0,
                job: JobId(0),
            })
        );
    }

    /// A doubled journal record completing the same job twice *within*
    /// one segment is the same seam violation, not a protocol error.
    #[test]
    fn duplicate_completion_within_a_segment_is_rejected() {
        let mut seg0 = Vec::new();
        seg0.extend(read_ok(0, job(0, 0)));
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Dispatch(job(0, 0)));
        seg0.push(Marker::Execution(job(0, 0)));
        seg0.push(Marker::Completion(job(0, 0)));
        seg0.push(Marker::Completion(job(0, 0)));

        let err = check_stitched(&[&seg0], &tasks(), 1, None).unwrap_err();
        assert_eq!(
            err,
            StitchedError::Seam(SeamViolation::DuplicateCompletion {
                segment: 0,
                index: 8,
                job: JobId(0),
            })
        );
    }

    /// The consumed accounting is two-sided: a journal replaying a read
    /// the environment never served (observed > consumed) is also a
    /// lost/duplicated-work seam violation.
    #[test]
    fn phantom_read_is_caught_by_consumed_accounting() {
        let mut seg0 = Vec::new();
        seg0.extend(read_ok(0, job(0, 0)));
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Dispatch(job(0, 0)));
        seg0.push(Marker::Execution(job(0, 0)));
        seg0.push(Marker::Completion(job(0, 0)));

        let err = check_stitched(&[&seg0], &tasks(), 1, Some(&[0])).unwrap_err();
        assert_eq!(
            err,
            StitchedError::Seam(SeamViolation::LostAcceptedJob {
                sock: SocketId(0),
                consumed: 0,
                observed: 1,
            })
        );
    }

    /// A lazy-commit recovery consumed a message whose read never made
    /// it into the journal: only the environment accounting catches it.
    #[test]
    fn lost_accepted_job_is_caught_by_consumed_accounting() {
        let mut seg0 = Vec::new();
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Idling);
        // The read of the consumed message was in the uncommitted tail
        // and vanished; the restart sees an empty world.
        let mut seg1 = Vec::new();
        seg1.extend(read_fail(0));
        seg1.push(Marker::Selection);
        seg1.push(Marker::Idling);

        // The environment consumed one message from sock0.
        let err = check_stitched(&[&seg0, &seg1], &tasks(), 1, Some(&[1])).unwrap_err();
        assert_eq!(
            err,
            StitchedError::Seam(SeamViolation::LostAcceptedJob {
                sock: SocketId(0),
                consumed: 1,
                observed: 0,
            })
        );
    }

    /// Each segment is checked from the initial protocol state: a
    /// restart that resumes mid-phase (here: a bare M_ReadE) violates
    /// the protocol even though the pre-crash segment ended mid-read.
    #[test]
    fn restart_must_reenter_at_loop_top() {
        let seg0 = vec![Marker::ReadStart]; // crash mid-read: fine
        let seg1 = vec![Marker::ReadEnd {
            sock: SocketId(0),
            job: None,
        }];
        let err = check_stitched(&[&seg0, &seg1], &tasks(), 1, None).unwrap_err();
        assert!(matches!(err, StitchedError::Protocol { segment: 1, .. }));
    }

    #[test]
    fn single_segment_behaves_like_plain_checks() {
        let mut tr = Vec::new();
        tr.extend(read_ok(0, job(0, 1)));
        tr.extend(read_fail(0));
        tr.push(Marker::Selection);
        tr.push(Marker::Dispatch(job(0, 1)));
        tr.push(Marker::Execution(job(0, 1)));
        tr.push(Marker::Completion(job(0, 1)));
        let report = check_stitched(&[&tr], &tasks(), 1, Some(&[1])).unwrap();
        assert_eq!(report.jobs_completed, 1);
    }

    /// In HI mode a suspended LO job does not block idling, and the mode
    /// carries across the crash seam: the restart (resumed in HI) may
    /// keep idling over it, and must serve it only after switching back.
    #[test]
    fn mode_carries_across_seam_and_suspends_lo_jobs() {
        use rossl_model::Criticality;
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "lo",
                Priority(9),
                Duration(5),
                Curve::sporadic(Duration(10)),
            )
            .with_criticality(Criticality::Lo),
            Task::new(
                TaskId(1),
                "hi",
                Priority(1),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
        ])
        .unwrap();
        // A mode switch closes the decision and restarts the polling
        // loop, so each one is followed by a fresh poll + selection.
        let mut seg0 = Vec::new();
        seg0.extend(read_ok(0, job(0, 0))); // LO job pends
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::ModeSwitch {
            from: Mode::Lo,
            to: Mode::Hi,
        });
        seg0.extend(read_fail(0));
        seg0.push(Marker::Selection);
        seg0.push(Marker::Idling); // LO job suspended: idling is fine
        let mut seg1 = Vec::new();
        seg1.extend(read_fail(0));
        seg1.push(Marker::Selection);
        seg1.push(Marker::Idling); // still HI after the seam
        seg1.extend(read_fail(0));
        seg1.push(Marker::Selection);
        seg1.push(Marker::ModeSwitch {
            from: Mode::Hi,
            to: Mode::Lo,
        });
        seg1.extend(read_fail(0));
        seg1.push(Marker::Selection);
        seg1.push(Marker::Dispatch(job(0, 0)));
        seg1.push(Marker::Execution(job(0, 0)));
        seg1.push(Marker::Completion(job(0, 0)));
        let report = check_stitched(&[&seg0, &seg1], &tasks, 1, Some(&[1])).unwrap();
        assert_eq!(report.jobs_completed, 1);

        // Dispatching the suspended job while still in HI mode is the
        // dedicated violation, not a priority error.
        let mut bad = Vec::new();
        bad.extend(read_ok(0, job(0, 0)));
        bad.extend(read_fail(0));
        bad.push(Marker::Selection);
        bad.push(Marker::ModeSwitch {
            from: Mode::Lo,
            to: Mode::Hi,
        });
        bad.extend(read_fail(0));
        bad.push(Marker::Selection);
        bad.push(Marker::Dispatch(job(0, 0)));
        let err = check_stitched(&[&bad], &tasks, 1, None).unwrap_err();
        assert!(matches!(
            err,
            StitchedError::Functional {
                segment: 0,
                error: FunctionalError::DispatchOfSuspended { .. },
            }
        ));
    }

    /// A restart segment whose first mode switch claims to leave a mode
    /// the committed prefix never entered is inconsistent.
    #[test]
    fn mode_switch_across_seam_must_leave_the_carried_mode() {
        let seg0 = vec![
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(0),
                job: None,
            },
            Marker::Selection,
            Marker::Idling,
        ];
        let seg1 = vec![Marker::ModeSwitch {
            from: Mode::Hi,
            to: Mode::Lo,
        }];
        let err = check_stitched(&[&seg0, &seg1], &tasks(), 1, None).unwrap_err();
        assert!(matches!(
            err,
            StitchedError::Functional {
                segment: 1,
                error: FunctionalError::InconsistentModeSwitch {
                    expected: Mode::Lo,
                    found: Mode::Hi,
                    ..
                },
            }
        ));
    }

    #[test]
    fn empty_stitched_trace_is_valid() {
        let report = check_stitched(&[&[], &[]], &tasks(), 2, Some(&[0, 0])).unwrap();
        assert_eq!(report.jobs_completed, 0);
    }
}
