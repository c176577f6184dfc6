//! Consistency of a timed trace with an arrival sequence (Def. 2.1).
//!
//! A timed trace `(tr, ts)` is consistent with an arrival sequence `arr`
//! iff:
//!
//! 1. **Reads happen after arrivals**: if `tr[i] = M_ReadE sock j`, then
//!    `j`'s message arrived on `sock` at some `t_a < ts[i]`.
//! 2. **Failed reads are honest**: if `tr[i] = M_ReadE sock ⊥`, every job
//!    that arrived on `sock` before `ts[i]` is already in `read_jobs(i)`.
//!
//! Jobs are matched to arrival events positionally: datagram sockets
//! deliver in FIFO arrival order, so the `k`-th successful read on a socket
//! corresponds to the `k`-th arrival event on that socket. The payloads
//! must agree, which the checker also verifies.
//!
//! [`ConsistencyCheck`] is the same check one marker at a time; for each
//! successful read it reports the arrival the read consumed.

use std::fmt;

use rossl_model::{Instant, JobId, SocketId};
use rossl_sockets::{ArrivalEvent, ArrivalSequence};
use rossl_trace::Marker;

use crate::timed_trace::TimedTrace;

/// A violation of Def. 2.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyError {
    /// A successful read has no matching arrival event (more reads than
    /// arrivals on the socket).
    ReadWithoutArrival {
        /// Index of the offending `M_ReadE`.
        index: usize,
        /// The socket.
        sock: SocketId,
    },
    /// A job was read at or before its message arrived.
    ReadBeforeArrival {
        /// Index of the offending `M_ReadE`.
        index: usize,
        /// The job read too early.
        job: JobId,
        /// The message's arrival instant.
        arrived: Instant,
        /// The read's timestamp.
        read_at: Instant,
    },
    /// A read's payload differs from the matched arrival's payload (FIFO
    /// order violated).
    PayloadMismatch {
        /// Index of the offending `M_ReadE`.
        index: usize,
        /// The socket.
        sock: SocketId,
    },
    /// A read failed although an unread message had already arrived.
    DishonestFailedRead {
        /// Index of the offending `M_ReadE ⊥`.
        index: usize,
        /// The socket.
        sock: SocketId,
        /// Arrival instant of the unread message.
        pending_arrival: Instant,
        /// The read's timestamp.
        read_at: Instant,
    },
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyError::ReadWithoutArrival { index, sock } => {
                write!(f, "index {index}: read on {sock} has no matching arrival")
            }
            ConsistencyError::ReadBeforeArrival {
                index,
                job,
                arrived,
                read_at,
            } => write!(
                f,
                "index {index}: job {job} read at {read_at} but its message arrives at {arrived}"
            ),
            ConsistencyError::PayloadMismatch { index, sock } => {
                write!(f, "index {index}: read on {sock} delivered out of FIFO order")
            }
            ConsistencyError::DishonestFailedRead {
                index,
                sock,
                pending_arrival,
                read_at,
            } => write!(
                f,
                "index {index}: read on {sock} failed at {read_at} although a message \
                 arrived at {pending_arrival} and was never read"
            ),
        }
    }
}

impl std::error::Error for ConsistencyError {}

/// Checks Def. 2.1: `trace` is consistent with `arrivals`.
///
/// # Errors
///
/// Returns the first [`ConsistencyError`] in trace order.
///
/// # Examples
///
/// ```
/// use rossl_model::*;
/// use rossl_sockets::{ArrivalEvent, ArrivalSequence};
/// use rossl_timing::{check_consistency, TimedTrace};
/// use rossl_trace::Marker;
///
/// let arrivals = ArrivalSequence::from_events(vec![ArrivalEvent {
///     time: Instant(5), sock: SocketId(0), task: TaskId(0),
///     msg: Message::new(vec![0]),
/// }]);
/// let j = Job::new(JobId(0), TaskId(0), vec![0]);
/// let tt = TimedTrace::new(
///     vec![
///         Marker::ReadStart,
///         Marker::ReadEnd { sock: SocketId(0), job: Some(j) },
///     ],
///     vec![Instant(6), Instant(8)], // read at t8 > arrival t5: consistent
/// )?;
/// assert!(check_consistency(&tt, &arrivals).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_consistency(
    trace: &TimedTrace,
    arrivals: &ArrivalSequence,
) -> Result<(), ConsistencyError> {
    let mut check = ConsistencyCheck::new(arrivals);
    for (index, (marker, ts)) in trace.iter().enumerate() {
        check.push(index, marker, ts)?;
    }
    Ok(())
}

/// Def. 2.1 checked one marker at a time: [`check_consistency`] is a loop
/// over [`ConsistencyCheck::push`].
#[derive(Debug, Clone)]
pub struct ConsistencyCheck<'a> {
    events: &'a [ArrivalEvent],
    /// Per socket, the indices of its arrival events in FIFO order. A
    /// socket without arrivals may be missing: its queue is empty.
    queues: Vec<Vec<usize>>,
    /// Per socket, how many of its arrivals reads have consumed.
    consumed: Vec<usize>,
}

impl<'a> ConsistencyCheck<'a> {
    /// A check of an empty trace prefix against `arrivals`.
    pub fn new(arrivals: &'a ArrivalSequence) -> ConsistencyCheck<'a> {
        let events = arrivals.events();
        let mut queues = vec![Vec::new(); arrivals.min_socket_count()];
        for (idx, e) in events.iter().enumerate() {
            queues[e.sock.0].push(idx);
        }
        let consumed = vec![0; queues.len()];
        ConsistencyCheck {
            events,
            queues,
            consumed,
        }
    }

    /// Extends the checked prefix by `marker`, the trace's marker at
    /// `index`, stamped `ts`. For a successful read, returns the index (in
    /// `arrivals.events()`) of the arrival it consumed.
    ///
    /// # Errors
    ///
    /// Returns the [`ConsistencyError`] if the read at `index` is
    /// inconsistent with the arrivals. A check that returned an error has
    /// stopped tracking the trace; do not push further markers.
    #[inline]
    pub fn push(
        &mut self,
        index: usize,
        marker: &Marker,
        ts: Instant,
    ) -> Result<Option<usize>, ConsistencyError> {
        let Marker::ReadEnd { sock, job } = marker else {
            return Ok(None);
        };
        // The next unconsumed arrival on the socket, if any.
        let next = self
            .queues
            .get(sock.0)
            .and_then(|q| q.get(self.consumed[sock.0]))
            .copied();
        match job {
            Some(j) => {
                let Some(idx) = next else {
                    return Err(ConsistencyError::ReadWithoutArrival {
                        index,
                        sock: *sock,
                    });
                };
                let arrival = &self.events[idx];
                if arrival.msg.data() != j.data() {
                    return Err(ConsistencyError::PayloadMismatch {
                        index,
                        sock: *sock,
                    });
                }
                if arrival.time >= ts {
                    return Err(ConsistencyError::ReadBeforeArrival {
                        index,
                        job: j.id(),
                        arrived: arrival.time,
                        read_at: ts,
                    });
                }
                self.consumed[sock.0] += 1;
                Ok(Some(idx))
            }
            None => {
                // The next unconsumed arrival, if any, must not predate the
                // read.
                match next.map(|idx| self.events[idx].time) {
                    Some(arrived) if arrived < ts => Err(ConsistencyError::DishonestFailedRead {
                        index,
                        sock: *sock,
                        pending_arrival: arrived,
                        read_at: ts,
                    }),
                    _ => Ok(None),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Job, Message, TaskId};
    use rossl_sockets::ArrivalEvent;

    fn arrival(t: u64, sock: usize, payload: u8) -> ArrivalEvent {
        ArrivalEvent {
            time: Instant(t),
            sock: SocketId(sock),
            task: TaskId(0),
            msg: Message::new(vec![payload]),
        }
    }

    fn read_ok(sock: usize, id: u64, payload: u8) -> Marker {
        Marker::ReadEnd {
            sock: SocketId(sock),
            job: Some(Job::new(JobId(id), TaskId(0), vec![payload])),
        }
    }

    fn read_fail(sock: usize) -> Marker {
        Marker::ReadEnd {
            sock: SocketId(sock),
            job: None,
        }
    }

    #[test]
    fn read_before_arrival_is_caught() {
        let arr = ArrivalSequence::from_events(vec![arrival(10, 0, 0)]);
        let tt = TimedTrace::new(vec![read_ok(0, 0, 0)], vec![Instant(10)]).unwrap();
        assert!(matches!(
            check_consistency(&tt, &arr).unwrap_err(),
            ConsistencyError::ReadBeforeArrival { .. }
        ));
        let tt = TimedTrace::new(vec![read_ok(0, 0, 0)], vec![Instant(11)]).unwrap();
        assert!(check_consistency(&tt, &arr).is_ok());
    }

    #[test]
    fn read_without_arrival_is_caught() {
        let arr = ArrivalSequence::new();
        let tt = TimedTrace::new(vec![read_ok(0, 0, 0)], vec![Instant(5)]).unwrap();
        assert!(matches!(
            check_consistency(&tt, &arr).unwrap_err(),
            ConsistencyError::ReadWithoutArrival { .. }
        ));
    }

    #[test]
    fn dishonest_failed_read_is_caught() {
        let arr = ArrivalSequence::from_events(vec![arrival(5, 0, 0)]);
        // Read fails at t=10 although a message arrived at t=5 and is unread.
        let tt = TimedTrace::new(vec![read_fail(0)], vec![Instant(10)]).unwrap();
        assert!(matches!(
            check_consistency(&tt, &arr).unwrap_err(),
            ConsistencyError::DishonestFailedRead { .. }
        ));
        // Failing before the arrival is fine.
        let tt = TimedTrace::new(vec![read_fail(0)], vec![Instant(5)]).unwrap();
        assert!(check_consistency(&tt, &arr).is_ok());
    }

    #[test]
    fn failed_read_after_everything_was_read_is_fine() {
        let arr = ArrivalSequence::from_events(vec![arrival(1, 0, 7)]);
        let tt = TimedTrace::new(
            vec![read_ok(0, 0, 7), read_fail(0)],
            vec![Instant(5), Instant(9)],
        )
        .unwrap();
        assert!(check_consistency(&tt, &arr).is_ok());
    }

    #[test]
    fn fifo_payload_mismatch_is_caught() {
        let arr =
            ArrivalSequence::from_events(vec![arrival(1, 0, 1), arrival(2, 0, 2)]);
        // Second message read first: payload mismatch against FIFO order.
        let tt = TimedTrace::new(vec![read_ok(0, 0, 2)], vec![Instant(5)]).unwrap();
        assert!(matches!(
            check_consistency(&tt, &arr).unwrap_err(),
            ConsistencyError::PayloadMismatch { .. }
        ));
    }

    #[test]
    fn sockets_are_tracked_independently() {
        let arr =
            ArrivalSequence::from_events(vec![arrival(1, 0, 0), arrival(1, 1, 1)]);
        let tt = TimedTrace::new(
            vec![read_ok(1, 0, 1), read_ok(0, 1, 0)],
            vec![Instant(5), Instant(6)],
        )
        .unwrap();
        assert!(check_consistency(&tt, &arr).is_ok());
    }

    #[test]
    fn empty_trace_is_consistent() {
        let arr = ArrivalSequence::from_events(vec![arrival(1, 0, 0)]);
        let tt = TimedTrace::new(vec![], vec![]).unwrap();
        assert!(check_consistency(&tt, &arr).is_ok());
    }
}
