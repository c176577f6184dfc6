//! Converting a timed trace into a schedule (§2.4).
//!
//! Most basic actions map 1-to-1 to processor states; the challenge is
//! attributing *failed reads* to jobs, which requires looking ahead in the
//! trace ("technically, we solve this problem by defining the conversion
//! function as a finite look-ahead parser on the timed trace of marker
//! functions"):
//!
//! * failed reads immediately preceding a **successful read of `j`** are
//!   merged with it into `ReadOvh j`;
//! * failed reads after the polling phase's last success are attributed to
//!   the job `j` dispatched next as `PollingOvh j`;
//! * if the phase ends with nothing to dispatch, those failed reads — and
//!   the failed selection and the idling action that follow — map to
//!   `Idle`.
//!
//! The parser works on the basic actions closed by the protocol cursor, so
//! the look-ahead is already resolved: a `Selection` action carries the
//! selected job (or `⊥`), which is exactly the information the failed-read
//! attribution needs. [`Converter`] is the parser one closed action at a
//! time; [`convert`] is the cursor feeding it.
//!
//! The unattributed tail of a truncated trace (e.g. trailing failed reads
//! whose polling phase never concludes before the horizon) is *not*
//! converted: the schedule ends at the last instant whose state is
//! determined. This mirrors the paper's treatment of finite traces.

use std::fmt;

use rossl_model::Instant;
use rossl_timing::TimedTrace;
use rossl_trace::{ActionRef, ProtocolAutomaton, ProtocolError};

use crate::schedule::{Merger, Schedule, Segment};
use crate::state::{JobRef, ProcessorState};

/// Conversion failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ConversionError {
    /// The trace violates the scheduler protocol; basic actions cannot be
    /// delimited.
    Protocol(ProtocolError),
    /// Internal defect assembling the schedule (non-contiguous segments) —
    /// indicates a bug in the converter, surfaced rather than panicking.
    Assembly(String),
}

impl fmt::Display for ConversionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConversionError::Protocol(e) => write!(f, "trace rejected: {e}"),
            ConversionError::Assembly(e) => write!(f, "schedule assembly failed: {e}"),
        }
    }
}

impl std::error::Error for ConversionError {}

impl From<ProtocolError> for ConversionError {
    fn from(e: ProtocolError) -> ConversionError {
        ConversionError::Protocol(e)
    }
}

/// Converts a timed trace into a [`Schedule`] of processor states.
///
/// # Errors
///
/// Returns [`ConversionError::Protocol`] if the trace is not a scheduler
/// trace.
///
/// # Examples
///
/// ```
/// use rossl_model::*;
/// use rossl_schedule::{convert, StateKind};
/// use rossl_timing::TimedTrace;
/// use rossl_trace::Marker;
///
/// let j = Job::new(JobId(0), TaskId(0), vec![0]);
/// let tt = TimedTrace::new(
///     vec![
///         Marker::ReadStart,
///         Marker::ReadEnd { sock: SocketId(0), job: Some(j.clone()) },
///         Marker::ReadStart,
///         Marker::ReadEnd { sock: SocketId(0), job: None },
///         Marker::Selection,
///         Marker::Dispatch(j.clone()),
///         Marker::Execution(j.clone()),
///         Marker::Completion(j.clone()),
///         Marker::ReadStart,
///     ],
///     (0..9).map(|k| Instant(10 * k)).collect(),
/// )?;
/// let schedule = convert(&tt, 1)?;
/// let kinds: Vec<StateKind> =
///     schedule.segments().iter().map(|s| s.state.kind()).collect();
/// assert_eq!(kinds, vec![
///     StateKind::ReadOvh,      // successful read of j
///     StateKind::PollingOvh,   // the all-failed round before dispatching j
///     StateKind::SelectionOvh,
///     StateKind::DispatchOvh,
///     StateKind::Executes,
///     StateKind::CompletionOvh,
/// ]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn convert(trace: &TimedTrace, n_sockets: usize) -> Result<Schedule, ConversionError> {
    let mut cursor = ProtocolAutomaton::new(n_sockets).cursor();
    let mut converter = Converter::default();
    let mut segments: Vec<Segment> = Vec::new();
    let mut assembly = Ok(());
    for (index, marker) in trace.markers().iter().enumerate() {
        let Some((action, start)) = cursor.push(index, marker)? else {
            continue;
        };
        if assembly.is_ok() {
            let (from, to) = (trace.timestamp(start), trace.timestamp(index));
            match converter.push(action, from, to) {
                Ok(done) => segments.extend(done.into_iter().flatten()),
                Err(e) => assembly = Err(e),
            }
        }
    }
    assembly?;
    segments.extend(converter.finish());
    Ok(Schedule::from_merged(segments))
}

/// The conversion of §2.4, fed one closed basic action at a time and
/// emitting the schedule's merged segments as they become final.
/// `Converter::default()` is a converter before the first action.
#[derive(Debug, Clone, Default)]
pub struct Converter {
    /// Start instant of the current run of not-yet-attributed failed
    /// reads.
    fail_run_start: Option<Instant>,
    merger: Merger,
}

impl Converter {
    /// Feeds `action`, which occupied `[start, end)`. Returns the merged
    /// segments this completes, in time order (at most two).
    ///
    /// # Errors
    ///
    /// Returns [`ConversionError::Assembly`] if the segments stop being
    /// contiguous, which a protocol-accepted trace with increasing
    /// timestamps never causes.
    #[inline]
    pub fn push(
        &mut self,
        action: ActionRef<'_>,
        start: Instant,
        end: Instant,
    ) -> Result<[Option<Segment>; 2], ConversionError> {
        // The run of failed reads, when this action attributes it
        // separately, and the start and state of the action's own segment.
        let mut polling = None;
        let own = match action {
            ActionRef::Read { job: None, .. } => {
                self.fail_run_start.get_or_insert(start);
                None
            }
            ActionRef::Read { job: Some(j), .. } => {
                let from = self.fail_run_start.take().unwrap_or(start);
                Some((from, ProcessorState::ReadOvh(JobRef::from(j))))
            }
            ActionRef::Selection(Some(j)) => {
                let jr = JobRef::from(j);
                polling = self.fail_run_start.take().map(|from| Segment {
                    start: from,
                    end: start,
                    state: ProcessorState::PollingOvh(jr),
                });
                Some((start, ProcessorState::SelectionOvh(jr)))
            }
            ActionRef::Selection(None) => {
                let from = self.fail_run_start.take().unwrap_or(start);
                Some((from, ProcessorState::Idle))
            }
            ActionRef::Dispatch(j) => Some((start, ProcessorState::DispatchOvh(JobRef::from(j)))),
            ActionRef::Execution(j) => Some((start, ProcessorState::Executes(JobRef::from(j)))),
            ActionRef::Completion(j) => {
                Some((start, ProcessorState::CompletionOvh(JobRef::from(j))))
            }
            // Mode-switch bookkeeping is not supply for any job: it maps
            // to Idle, exactly like a bounded idle iteration.
            ActionRef::Idling | ActionRef::ModeSwitch { .. } => Some((start, ProcessorState::Idle)),
        };
        let own = own.map(|(from, state)| Segment {
            start: from,
            end,
            state,
        });
        let mut done = [None, None];
        let segments = [polling, own].into_iter().flatten();
        for (seg, slot) in segments.filter(|s| s.end > s.start).zip(&mut done) {
            *slot = self.merger.push(seg).map_err(ConversionError::Assembly)?;
        }
        Ok(done)
    }

    /// Ends the conversion: the last merged segment. The unattributed
    /// failed reads of a polling phase still in progress are not
    /// converted.
    pub fn finish(self) -> Option<Segment> {
        self.merger.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateKind;
    use rossl_model::{Duration, Job, JobId, SocketId, TaskId};
    use rossl_trace::Marker;

    fn job(id: u64) -> Job {
        Job::new(JobId(id), TaskId(0), vec![0])
    }

    fn timed(markers: Vec<Marker>, step: u64) -> TimedTrace {
        let n = markers.len();
        TimedTrace::new(markers, (0..n as u64).map(|k| Instant(step * k)).collect()).unwrap()
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

    #[test]
    fn failed_reads_before_success_become_read_overhead() {
        // Two sockets: sock0 fails, sock1 succeeds — the failure merges
        // into ReadOvh of the read job.
        let mut markers = Vec::new();
        markers.extend(read_fail(0));
        markers.extend(read_ok(1, 7));
        markers.extend(read_fail(0));
        markers.extend(read_fail(1));
        markers.push(Marker::Selection);
        markers.push(Marker::Dispatch(job(7)));
        markers.push(Marker::Execution(job(7)));
        let tt = timed(markers, 2);
        let schedule = convert(&tt, 2).unwrap();
        let segs = schedule.segments();
        assert_eq!(segs[0].state.kind(), StateKind::ReadOvh);
        // ReadOvh spans both the failed and the successful read:
        // markers 0..4 at step 2 = [0, 8).
        assert_eq!(segs[0].start, Instant(0));
        assert_eq!(segs[0].end, Instant(8));
        assert_eq!(segs[1].state.kind(), StateKind::PollingOvh);
        assert_eq!(segs[1].start, Instant(8));
        assert_eq!(segs[1].end, Instant(16)); // up to M_Selection
        assert_eq!(segs[2].state.kind(), StateKind::SelectionOvh);
    }

    #[test]
    fn idle_cycle_maps_entirely_to_idle() {
        let mut markers = Vec::new();
        markers.extend(read_fail(0));
        markers.push(Marker::Selection);
        markers.push(Marker::Idling);
        markers.extend(read_fail(0));
        markers.push(Marker::Selection);
        markers.push(Marker::Idling);
        markers.push(Marker::ReadStart); // closes the 2nd idling action
        let tt = timed(markers, 3);
        let schedule = convert(&tt, 1).unwrap();
        // Everything merges into one Idle segment.
        assert_eq!(schedule.segments().len(), 1);
        assert_eq!(schedule.segments()[0].state, ProcessorState::Idle);
        assert_eq!(schedule.span(), Duration(3 * 8));
    }

    #[test]
    fn trailing_unattributed_fails_are_not_converted() {
        // Trace ends during polling: the failed reads cannot be attributed
        // yet, so the schedule ends before them.
        let mut markers = Vec::new();
        markers.extend(read_ok(0, 1));
        markers.extend(read_fail(0));
        // The trace ends here: the failed read's span is open and the
        // polling phase never concludes, so the failure stays unattributed.
        let tt = timed(markers, 2);
        let schedule = convert(&tt, 1).unwrap();
        assert_eq!(schedule.segments().len(), 1);
        assert_eq!(schedule.segments()[0].state.kind(), StateKind::ReadOvh);
        // Covers only the successful read: markers 0..2 = [0, 4).
        assert_eq!(schedule.end(), Some(Instant(4)));
    }

    #[test]
    fn interleaved_jobs_attribute_to_the_right_owners() {
        let mut markers = Vec::new();
        markers.extend(read_ok(0, 1));
        markers.extend(read_ok(0, 2));
        markers.extend(read_fail(0));
        markers.push(Marker::Selection);
        markers.push(Marker::Dispatch(job(2)));
        markers.push(Marker::Execution(job(2)));
        markers.push(Marker::Completion(job(2)));
        markers.extend(read_fail(0));
        markers.push(Marker::Selection);
        markers.push(Marker::Dispatch(job(1)));
        markers.push(Marker::Execution(job(1)));
        markers.push(Marker::Completion(job(1)));
        markers.push(Marker::ReadStart);
        let tt = timed(markers, 1);
        let schedule = convert(&tt, 1).unwrap();
        let owners: Vec<(StateKind, Option<u64>)> = schedule
            .segments()
            .iter()
            .map(|s| (s.state.kind(), s.state.job().map(|j| j.id.0)))
            .collect();
        assert_eq!(
            owners,
            vec![
                (StateKind::ReadOvh, Some(1)),
                (StateKind::ReadOvh, Some(2)),
                (StateKind::PollingOvh, Some(2)),
                (StateKind::SelectionOvh, Some(2)),
                (StateKind::DispatchOvh, Some(2)),
                (StateKind::Executes, Some(2)),
                (StateKind::CompletionOvh, Some(2)),
                (StateKind::PollingOvh, Some(1)),
                (StateKind::SelectionOvh, Some(1)),
                (StateKind::DispatchOvh, Some(1)),
                (StateKind::Executes, Some(1)),
                (StateKind::CompletionOvh, Some(1)),
            ]
        );
    }

    #[test]
    fn schedule_tiles_converted_range() {
        let mut markers = Vec::new();
        markers.extend(read_ok(0, 1));
        markers.extend(read_fail(0));
        markers.push(Marker::Selection);
        markers.push(Marker::Dispatch(job(1)));
        markers.push(Marker::Execution(job(1)));
        markers.push(Marker::Completion(job(1)));
        markers.push(Marker::ReadStart);
        let tt = timed(markers, 5);
        let schedule = convert(&tt, 1).unwrap();
        let segs = schedule.segments();
        assert_eq!(segs.first().unwrap().start, Instant(0));
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn protocol_violation_is_reported() {
        let tt = timed(vec![Marker::Idling], 1);
        assert!(matches!(
            convert(&tt, 1),
            Err(ConversionError::Protocol(_))
        ));
    }

    #[test]
    fn empty_trace_converts_to_empty_schedule() {
        let tt = TimedTrace::new(vec![], vec![]).unwrap();
        assert!(convert(&tt, 1).unwrap().is_empty());
    }
}
