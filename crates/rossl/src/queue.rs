//! The pending-job queue behind `npfp_dequeue` (§2.1).
//!
//! Rössl's selection phase picks, among all pending (read but not yet
//! dispatched) jobs, one with maximal priority. Equal priorities are served
//! in read order (FIFO by [`JobId`], which increases with read order —
//! Fig. 6's `σ_trace.idx`); this matches the behaviour of callback queues
//! in ROS2-like executors and makes selection deterministic, which both
//! Def. 3.2 and the model checker rely on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use rossl_model::{Job, JobId, Priority};

/// The largest queue [`NpfpQueue::digest_into`] sorts without allocating.
const DIGEST_INLINE: usize = 16;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    priority: Priority,
    order: Reverse<JobId>,
    job: Job,
}

impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then smaller JobId (earlier read).
        self.priority
            .cmp(&other.priority)
            .then(self.order.cmp(&other.order))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A max-priority queue of pending jobs with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use rossl::NpfpQueue;
/// use rossl_model::{Job, JobId, Priority, TaskId};
///
/// let mut q = NpfpQueue::new();
/// q.enqueue(Job::new(JobId(0), TaskId(0), vec![]), Priority(1));
/// q.enqueue(Job::new(JobId(1), TaskId(1), vec![]), Priority(9));
/// assert_eq!(q.dequeue().unwrap().id(), JobId(1)); // higher priority first
/// assert_eq!(q.dequeue().unwrap().id(), JobId(0));
/// assert!(q.dequeue().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NpfpQueue {
    heap: BinaryHeap<Entry>,
}

impl NpfpQueue {
    /// Creates an empty queue.
    pub fn new() -> NpfpQueue {
        NpfpQueue::default()
    }

    /// Adds a pending job with its task's priority.
    pub fn enqueue(&mut self, job: Job, priority: Priority) {
        self.heap.push(Entry {
            priority,
            order: Reverse(job.id()),
            job,
        });
    }

    /// Removes and returns a highest-priority pending job (`npfp_dequeue`),
    /// or `None` when nothing pends.
    pub fn dequeue(&mut self) -> Option<Job> {
        self.heap.pop().map(|e| e.job)
    }

    /// The job [`NpfpQueue::dequeue`] would return, without removing it.
    pub fn peek(&self) -> Option<&Job> {
        self.heap.peek().map(|e| &e.job)
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no job is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Iterates over the pending jobs in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.heap.iter().map(|e| &e.job)
    }

    /// Feeds a canonical digest of the pending set into `hasher`:
    /// `(priority, job)` pairs in read order ([`JobId`] ascending).
    ///
    /// Two queues holding the same pending jobs digest identically even
    /// when their internal heap layouts differ (layout depends on the
    /// insertion sequence, which exploration interleavings vary).
    pub fn digest_into<H: std::hash::Hasher>(&self, hasher: &mut H) {
        use std::hash::Hash;
        self.heap.len().hash(hasher);
        let Some(first) = self.heap.peek() else {
            return;
        };
        // Up to `DIGEST_INLINE` entries sort in a stack array: the model
        // checker digests a queue at every branch point it fingerprints.
        let mut inline = [first; DIGEST_INLINE];
        let mut spilled = Vec::new();
        let entries = if self.heap.len() <= DIGEST_INLINE {
            for (slot, e) in inline.iter_mut().zip(&self.heap) {
                *slot = e;
            }
            &mut inline[..self.heap.len()]
        } else {
            spilled.extend(&self.heap);
            &mut spilled[..]
        };
        entries.sort_by_key(|e| e.job.id());
        for e in entries {
            e.priority.hash(hasher);
            e.job.hash(hasher);
        }
    }

    /// Removes pending jobs until at most `keep` remain, shedding
    /// lowest-priority first and, among equals, latest-read first — the
    /// exact reverse of the selection order, so the jobs that survive are
    /// the ones `npfp_dequeue` would have served soonest.
    ///
    /// Returns the shed jobs with their priorities, worst first.
    pub fn shed_lowest(&mut self, keep: usize) -> Vec<(Job, Priority)> {
        if self.heap.len() <= keep {
            return Vec::new();
        }
        // Ascending order puts the worst entry (lowest priority, latest
        // read) first.
        let mut entries = std::mem::take(&mut self.heap).into_sorted_vec();
        let kept = entries.split_off(entries.len() - keep);
        self.heap = kept.into_iter().collect();
        entries.into_iter().map(|e| (e.job, e.priority)).collect()
    }
}

impl fmt::Display for NpfpQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pending job(s)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::TaskId;

    fn job(id: u64) -> Job {
        Job::new(JobId(id), TaskId(0), vec![])
    }

    #[test]
    fn highest_priority_wins() {
        let mut q = NpfpQueue::new();
        q.enqueue(job(0), Priority(3));
        q.enqueue(job(1), Priority(7));
        q.enqueue(job(2), Priority(5));
        assert_eq!(q.dequeue().unwrap().id(), JobId(1));
        assert_eq!(q.dequeue().unwrap().id(), JobId(2));
        assert_eq!(q.dequeue().unwrap().id(), JobId(0));
    }

    #[test]
    fn fifo_among_equal_priorities() {
        let mut q = NpfpQueue::new();
        q.enqueue(job(5), Priority(4));
        q.enqueue(job(2), Priority(4));
        q.enqueue(job(9), Priority(4));
        let order: Vec<JobId> = std::iter::from_fn(|| q.dequeue()).map(|j| j.id()).collect();
        assert_eq!(order, vec![JobId(2), JobId(5), JobId(9)]);
    }

    #[test]
    fn peek_matches_dequeue() {
        let mut q = NpfpQueue::new();
        q.enqueue(job(0), Priority(1));
        q.enqueue(job(1), Priority(2));
        let peeked = q.peek().unwrap().id();
        assert_eq!(q.dequeue().unwrap().id(), peeked);
    }

    #[test]
    fn shed_lowest_keeps_the_selection_front() {
        let mut q = NpfpQueue::new();
        q.enqueue(job(0), Priority(5));
        q.enqueue(job(1), Priority(1));
        q.enqueue(job(2), Priority(1));
        q.enqueue(job(3), Priority(9));
        let shed: Vec<JobId> = q.shed_lowest(2).into_iter().map(|(j, _)| j.id()).collect();
        // Lowest priority first; among the two Priority(1) jobs the later
        // read (JobId 2) goes first.
        assert_eq!(shed, vec![JobId(2), JobId(1)]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue().unwrap().id(), JobId(3));
        assert_eq!(q.dequeue().unwrap().id(), JobId(0));
        assert!(q.shed_lowest(2).is_empty());
    }

    /// Keeps every byte a `Hash` impl feeds it.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl std::hash::Hasher for Bytes {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
        fn finish(&self) -> u64 {
            unreachable!("the test compares the bytes, never a hash")
        }
    }

    /// The digest as it was written before small queues sorted on the
    /// stack: collect every entry into a `Vec`, sort it by job id, feed
    /// the length and then each entry. Kept as the reference.
    fn reference_digest(q: &NpfpQueue) -> Vec<u8> {
        use std::hash::Hash;
        let mut hasher = Bytes::default();
        let mut entries: Vec<&Entry> = q.heap.iter().collect();
        entries.sort_by_key(|e| e.job.id());
        q.heap.len().hash(&mut hasher);
        for e in entries {
            e.priority.hash(&mut hasher);
            e.job.hash(&mut hasher);
        }
        hasher.0
    }

    #[test]
    fn digest_bytes_equal_the_collecting_reference_across_the_inline_bound() {
        let queue = |ids: &mut dyn Iterator<Item = u64>| {
            let mut q = NpfpQueue::new();
            for id in ids {
                let job = Job::new(
                    JobId(id),
                    TaskId(id as usize % 3),
                    vec![id as u8; id as usize % 4],
                );
                q.enqueue(job, Priority((id * 7 % 5) as u32));
            }
            q
        };
        let digest = |q: &NpfpQueue| {
            let mut hasher = Bytes::default();
            q.digest_into(&mut hasher);
            hasher.0
        };
        for n in [0, 1, 15, 16, 17, 64] {
            let ascending = queue(&mut (0..n));
            let descending = queue(&mut (0..n).rev());
            for q in [&ascending, &descending] {
                assert_eq!(q.len(), n as usize);
                assert_eq!(digest(q), reference_digest(q), "{n} jobs");
            }
            assert_eq!(digest(&ascending), digest(&descending), "{n} jobs");
        }
    }

    #[test]
    fn len_and_iter() {
        let mut q = NpfpQueue::new();
        assert!(q.is_empty());
        q.enqueue(job(0), Priority(1));
        q.enqueue(job(1), Priority(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().count(), 2);
    }
}
