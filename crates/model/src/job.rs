//! Jobs, messages and sockets.
//!
//! Following Fig. 6 of the paper, a [`Job`] is a pair of message data and a
//! unique [`JobId`] assigned by the (instrumented) `read` system call: the
//! identifier is a counter incremented on every successful read, so two
//! messages with identical payloads still yield distinct jobs (Def. 3.2,
//! "jobs have unique identifiers"). The task of a job is resolved at read
//! time via the client's `msg_to_task` mapping (Def. 3.3) and cached in the
//! job so that downstream trace analyses need no access to the client.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::task::TaskId;

/// Message payload, mirroring the paper's `msg_data ≜ list Z` as raw bytes.
pub type MsgData = Vec<u8>;

/// Identifies one of the scheduler's input sockets (Def. 3.3:
/// `input_socks`). Socket ids are dense indices `0..n_sockets`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SocketId(pub usize);

/// The unique identifier of a job, assigned by the instrumented read
/// semantics (Fig. 6: `σ_trace.idx`). Strictly increasing in read order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// A message queued on a socket, waiting to be read by the scheduler.
///
/// # Examples
///
/// ```
/// use rossl_model::Message;
/// let m = Message::new(vec![1, 2, 3]);
/// assert_eq!(m.data(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    data: MsgData,
}

impl Message {
    /// Creates a message with the given payload.
    pub fn new(data: MsgData) -> Message {
        Message { data }
    }

    /// Returns the payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the message, returning its payload.
    pub fn into_data(self) -> MsgData {
        self.data
    }
}

impl From<MsgData> for Message {
    fn from(data: MsgData) -> Message {
        Message::new(data)
    }
}

/// A runtime instance of a task: `Job ≜ (msg_data * job_id)` (Fig. 6), plus
/// the task resolved from the data via the client's `msg_to_task`.
///
/// A job is immutable and shared: the scheduler hands the same job to the
/// queue, to every marker and to the execution request, so cloning one
/// only bumps a reference count. Equality and hashing still go by value.
///
/// # Examples
///
/// ```
/// use rossl_model::{Job, JobId, TaskId};
/// let j = Job::new(JobId(0), TaskId(2), vec![2, 0xff]);
/// assert_eq!(j.id(), JobId(0));
/// assert_eq!(j.task(), TaskId(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Job(Arc<JobRecord>);

/// The fields of a [`Job`], hashed in this order.
#[derive(PartialEq, Eq, Hash)]
struct JobRecord {
    id: JobId,
    task: TaskId,
    data: MsgData,
}

// Markers and scheduler states carry jobs by the million, and the model
// checker moves scheduler states between threads.
const _: () = assert!(std::mem::size_of::<Job>() == std::mem::size_of::<usize>());
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Job>();
};

impl Job {
    /// Creates a job from its unique id, resolved task and message payload.
    pub fn new(id: JobId, task: TaskId, data: MsgData) -> Job {
        Job(Arc::new(JobRecord { id, task, data }))
    }

    /// The unique identifier assigned when the job's message was read.
    pub fn id(&self) -> JobId {
        self.0.id
    }

    /// The task this job is an instance of.
    pub fn task(&self) -> TaskId {
        self.0.task
    }

    /// The message payload that carried the job into the system.
    pub fn data(&self) -> &[u8] {
        &self.0.data
    }
}

/// Prints the fields as a derived `Debug` on the struct would, hiding
/// the shared record: golden tests digest errors that contain jobs.
impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.0.id)
            .field("task", &self.0.task)
            .field("data", &self.0.data)
            .finish()
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sock{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.id(), self.task())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_with_equal_data_but_distinct_ids_differ() {
        let a = Job::new(JobId(0), TaskId(1), vec![9]);
        let b = Job::new(JobId(1), TaskId(1), vec![9]);
        assert_ne!(a, b);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn message_round_trips_payload() {
        let m = Message::from(vec![1, 2]);
        assert_eq!(m.clone().into_data(), vec![1, 2]);
    }

    #[test]
    fn display_formats() {
        let j = Job::new(JobId(3), TaskId(1), vec![]);
        assert_eq!(j.to_string(), "j3/τ1");
        assert_eq!(SocketId(0).to_string(), "sock0");
    }

    #[test]
    fn debug_prints_every_field() {
        let j = Job::new(JobId(3), TaskId(1), vec![1, 2]);
        assert_eq!(
            format!("{j:?}"),
            "Job { id: JobId(3), task: TaskId(1), data: [1, 2] }"
        );
        assert_eq!(
            format!("{j:#?}"),
            "Job {\n    id: JobId(\n        3,\n    ),\n    task: TaskId(\n        1,\n    ),\n    \
             data: [\n        1,\n        2,\n    ],\n}"
        );
    }

    #[test]
    fn equal_jobs_compare_and_hash_by_value() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash_of(value: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            value.hash(&mut h);
            h.finish()
        }
        let a = Job::new(JobId(7), TaskId(2), vec![2, 0xff]);
        let b = Job::new(JobId(7), TaskId(2), vec![2, 0xff]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        // The hasher sees the id, the task and the payload, in that order.
        assert_eq!(
            hash_of(&a),
            hash_of(&(JobId(7), TaskId(2), vec![2u8, 0xff]))
        );
        assert_ne!(a, Job::new(JobId(7), TaskId(2), vec![2]));
    }

    #[test]
    fn job_ids_order_by_read_index() {
        assert!(JobId(1) < JobId(2));
    }
}
