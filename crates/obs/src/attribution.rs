//! Bound-term attribution: decomposing an observed response time into
//! the terms of the response-time recurrence (DESIGN §11.3).
//!
//! The observatory's scalar check (`observed <= R_i + J_i`) says *that*
//! a job beat its bound; attribution says *which term of the
//! recurrence* ate the margin. Each completed traced job's response
//! window `[enqueue.start, execute.end]` is partitioned tick-exactly:
//!
//! * **jitter** — the `Enqueue` span (delivery to `ReadEnd` commit),
//!   the observable counterpart of `J_i`;
//! * **blocking** — overlap of the wait window with a *lower*-priority
//!   sibling's `Execute` span (the non-preemptive carry-in `B_i`);
//! * **interference** — overlap with equal-or-higher-priority sibling
//!   `Execute` spans (the recurrence's interference sum);
//! * **suspension** — overlap with mode-switch `Suspension` spans;
//! * **overhead** — the wait-window remainder: selection, dispatch and
//!   polling costs the supply-bound model charges;
//! * **self_exec** — the `Execute` span(s): own WCET plus the
//!   completion action.
//!
//! Because the span boundaries are the journal-commit clock readings
//! the fleet also derives response times from, the six terms sum to
//! the observed response *exactly*, in ticks — asserted per job by
//! experiment E23. Fleet-era terms (router queueing, migration delay)
//! live on the fleet clock and are reported alongside, outside the
//! shard-tick sum.

use std::collections::HashMap;
use std::fmt;

use crate::trace::{ClockDomain, Span, SpanKind, TraceId};

/// One term of the decomposed response time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundTerm {
    /// Release jitter: delivery to `ReadEnd` commit (allowance `J_i`).
    Jitter,
    /// Equal-or-higher-priority interference during the wait window.
    Interference,
    /// Non-preemptive lower-priority blocking during the wait window.
    Blocking,
    /// Mode-switch suspension during the wait window.
    Suspension,
    /// Scheduler overhead remainder of the wait window (selection,
    /// dispatch, polling).
    SchedOverhead,
    /// Own execution plus the completion action.
    SelfExecution,
    /// Router queueing/retry delay on the fleet clock (longest single
    /// routing episode).
    RouterQueue,
    /// Failover migration delay on the fleet clock.
    Migration,
}

impl BoundTerm {
    /// Stable kebab-case name for reports and metric names.
    pub fn name(&self) -> &'static str {
        match self {
            BoundTerm::Jitter => "jitter",
            BoundTerm::Interference => "interference",
            BoundTerm::Blocking => "blocking",
            BoundTerm::Suspension => "suspension",
            BoundTerm::SchedOverhead => "sched-overhead",
            BoundTerm::SelfExecution => "self-execution",
            BoundTerm::RouterQueue => "router-queue",
            BoundTerm::Migration => "migration",
        }
    }
}

impl fmt::Display for BoundTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The decomposed response time of one completed traced job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobAttribution {
    /// The request trace (its id is the fleet sequence number).
    pub trace: TraceId,
    /// Fleet sequence number of the request.
    pub seq: u64,
    /// The task the job ran as.
    pub task: usize,
    /// The shard it completed on.
    pub shard: usize,
    /// Observed response time in shard ticks
    /// (`execute.end - enqueue.start`).
    pub observed: u64,
    /// Release-jitter term.
    pub jitter: u64,
    /// Lower-priority blocking term.
    pub blocking: u64,
    /// Equal-or-higher-priority interference term.
    pub interference: u64,
    /// Mode-switch suspension term.
    pub suspension: u64,
    /// Scheduler-overhead remainder term.
    pub overhead: u64,
    /// Own execution (+ completion) term.
    pub self_exec: u64,
    /// Longest single routing episode, in fleet ticks (outside the
    /// shard-tick sum).
    pub router_queue: u64,
    /// Migration delay, in fleet ticks (0 unless the job was migrated).
    pub migration: u64,
}

impl JobAttribution {
    /// Sum of the shard-clock terms; equals
    /// [`observed`](JobAttribution::observed) for every attributed job — the E23
    /// exactness invariant.
    pub fn attributed_total(&self) -> u64 {
        self.jitter
            + self.blocking
            + self.interference
            + self.suspension
            + self.overhead
            + self.self_exec
    }

    /// The shard-clock terms as `(term, ticks)` pairs, in recurrence
    /// order.
    pub fn terms(&self) -> [(BoundTerm, u64); 6] {
        [
            (BoundTerm::Jitter, self.jitter),
            (BoundTerm::Blocking, self.blocking),
            (BoundTerm::Interference, self.interference),
            (BoundTerm::Suspension, self.suspension),
            (BoundTerm::SchedOverhead, self.overhead),
            (BoundTerm::SelfExecution, self.self_exec),
        ]
    }
}

/// The attribution engine's output over one drained span set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttributionReport {
    /// One entry per completed job whose span chain was intact.
    pub jobs: Vec<JobAttribution>,
    /// Completed executions skipped because their chain was broken by
    /// a restart (truncated phase spans in the completing domain).
    pub skipped: usize,
}

/// Overlap of `[s, e)` with `[os, oe)`.
fn overlap(s: u64, e: u64, os: u64, oe: u64) -> u64 {
    e.min(oe).saturating_sub(s.max(os))
}

/// Decomposes every completed traced job in `spans` into its bound
/// terms. Jobs whose completing-domain chain contains truncated phase
/// spans (a restart interrupted them) are counted in
/// [`AttributionReport::skipped`] rather than mis-attributed.
pub fn attribute(spans: &[Span]) -> AttributionReport {
    // Occupancy index per domain: every execution/suspension window,
    // with the priority it ran at (suspensions rank above everything).
    let mut occupancy: HashMap<ClockDomain, Vec<&Span>> = HashMap::new();
    let mut by_trace: HashMap<TraceId, Vec<&Span>> = HashMap::new();
    for s in spans {
        if matches!(s.kind, SpanKind::Execute | SpanKind::Suspension) {
            occupancy.entry(s.domain).or_default().push(s);
        }
        if s.trace != TraceId::SYSTEM {
            by_trace.entry(s.trace).or_default().push(s);
        }
    }

    let mut report = AttributionReport::default();
    let mut traces: Vec<(&TraceId, &Vec<&Span>)> = by_trace.iter().collect();
    traces.sort_by_key(|(t, _)| **t);
    for (&trace, trace_spans) in traces {
        // The domain where the job completed: the last non-truncated
        // Execute span (closing an Execute requires a Completion).
        let Some(last_exec) = trace_spans
            .iter()
            .filter(|s| s.kind == SpanKind::Execute && !s.truncated)
            .max_by_key(|s| (s.end, s.id))
        else {
            continue; // never completed — nothing to attribute
        };
        let domain = last_exec.domain;
        let in_domain: Vec<&&Span> =
            trace_spans.iter().filter(|s| s.domain == domain).collect();
        let phase = |k: SpanKind| in_domain.iter().filter(move |s| s.kind == k);
        if phase(SpanKind::Enqueue)
            .chain(phase(SpanKind::DispatchWait))
            .chain(phase(SpanKind::Execute))
            .any(|s| s.truncated)
        {
            report.skipped += 1;
            continue;
        }
        let Some(enqueue) = phase(SpanKind::Enqueue).min_by_key(|s| (s.start, s.id)) else {
            report.skipped += 1;
            continue;
        };

        let observed = last_exec.end.saturating_sub(enqueue.start);
        let jitter = enqueue.len();
        let self_exec: u64 = phase(SpanKind::Execute).map(|s| s.len()).sum();
        let own_prio = last_exec.arg("prio").unwrap_or(0);

        let mut blocking = 0;
        let mut interference = 0;
        let mut suspension = 0;
        let mut wait_total = 0;
        let empty = Vec::new();
        let busy = occupancy.get(&domain).unwrap_or(&empty);
        for wait in phase(SpanKind::DispatchWait) {
            wait_total += wait.len();
            for other in busy {
                if other.trace == trace {
                    continue;
                }
                let o = overlap(wait.start, wait.end, other.start, other.end);
                if o == 0 {
                    continue;
                }
                match other.kind {
                    SpanKind::Suspension => suspension += o,
                    _ if other.arg("prio").unwrap_or(0) >= own_prio => interference += o,
                    _ => blocking += o,
                }
            }
        }
        // The scheduler is serial, so the busy windows above are
        // disjoint; whatever part of the wait they do not cover is
        // dispatch-cycle overhead. Any slack outside the wait windows
        // (none when the phase handoffs are exact) lands here too, so
        // the terms always sum to `observed`.
        let overhead = observed
            .saturating_sub(jitter)
            .saturating_sub(self_exec)
            .saturating_sub(wait_total)
            + wait_total.saturating_sub(blocking + interference + suspension);

        let router_queue = trace_spans
            .iter()
            .filter(|s| s.kind == SpanKind::Route && !s.truncated)
            .map(|s| s.len())
            .max()
            .unwrap_or(0);
        let migration = phase(SpanKind::Enqueue)
            .filter_map(|s| s.arg("migration_latency"))
            .max()
            .unwrap_or(0);

        report.jobs.push(JobAttribution {
            trace,
            seq: trace.0,
            task: last_exec.arg("task").unwrap_or(u64::MAX) as usize,
            shard: match domain {
                ClockDomain::Shard(s) => s,
                ClockDomain::Fleet => usize::MAX,
            },
            observed,
            jitter,
            blocking,
            interference,
            suspension,
            overhead,
            self_exec,
            router_queue,
            migration,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, TraceCollector};

    /// Builds the canonical two-job shard history: job 0 (high prio)
    /// executes while job 1 (low prio) waits, so job 1's wait window is
    /// pure interference plus a little overhead.
    fn two_jobs() -> Vec<Span> {
        let c = TraceCollector::new(64);
        let sh = ClockDomain::Shard(0);

        // Job 0: enqueue [10,12], wait [12,14], exec [14,20] prio 9.
        let t0 = TraceId(0);
        let e = c.start(t0, None, SpanKind::Enqueue, sh, 10);
        c.end(e, 12);
        let w = c.start(t0, None, SpanKind::DispatchWait, sh, 12);
        c.end(w, 14);
        let x = c.start(t0, None, SpanKind::Execute, sh, 14);
        c.annotate(x, "task", 0);
        c.annotate(x, "prio", 9);
        c.end(x, 20);

        // Job 1: enqueue [11,13], wait [13,22] (overlaps job 0's exec
        // [14,20] = 6 ticks of interference), exec [22,25] prio 5.
        let t1 = TraceId(1);
        let e = c.start(t1, None, SpanKind::Enqueue, sh, 11);
        c.end(e, 13);
        let w = c.start(t1, None, SpanKind::DispatchWait, sh, 13);
        c.end(w, 22);
        let x = c.start(t1, None, SpanKind::Execute, sh, 22);
        c.annotate(x, "task", 1);
        c.annotate(x, "prio", 5);
        c.end(x, 25);

        c.drain()
    }

    #[test]
    fn terms_sum_exactly_to_observed() {
        let report = attribute(&two_jobs());
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(report.skipped, 0);
        for job in &report.jobs {
            assert_eq!(job.attributed_total(), job.observed, "{job:?}");
        }
    }

    #[test]
    fn interference_and_blocking_split_by_priority() {
        let report = attribute(&two_jobs());
        let j1 = report.jobs.iter().find(|j| j.seq == 1).expect("job 1");
        assert_eq!(j1.observed, 25 - 11);
        assert_eq!(j1.jitter, 2);
        assert_eq!(j1.self_exec, 3);
        assert_eq!(j1.interference, 6, "job 0 (higher prio) ran 6 ticks inside the wait");
        assert_eq!(j1.blocking, 0);
        assert_eq!(j1.overhead, 14 - 2 - 3 - 6);

        // Job 0's wait saw nothing executing.
        let j0 = report.jobs.iter().find(|j| j.seq == 0).expect("job 0");
        assert_eq!(j0.interference + j0.blocking, 0);

        // From job 0's perspective job 1 is *lower* priority: rebuild
        // with job 1 executing first to see blocking.
        let c = TraceCollector::new(64);
        let sh = ClockDomain::Shard(0);
        let t1 = TraceId(1);
        let x = c.start(t1, None, SpanKind::Execute, sh, 0);
        c.annotate(x, "prio", 5);
        c.end(x, 8);
        let t0 = TraceId(0);
        let e = c.start(t0, None, SpanKind::Enqueue, sh, 1);
        c.end(e, 2);
        let w = c.start(t0, None, SpanKind::DispatchWait, sh, 2);
        c.end(w, 9);
        let x = c.start(t0, None, SpanKind::Execute, sh, 9);
        c.annotate(x, "prio", 9);
        c.end(x, 12);
        let report = attribute(&c.drain());
        let j0 = report.jobs.iter().find(|j| j.seq == 0).expect("job 0");
        assert_eq!(j0.blocking, 6, "the in-flight lower-priority job blocks until tick 8");
        assert_eq!(j0.attributed_total(), j0.observed);
    }

    #[test]
    fn migrated_job_attributes_on_the_successor_and_carries_migration() {
        let c = TraceCollector::new(64);
        let t = TraceId(42);
        // Dead shard: enqueue closed, wait truncated at the fence.
        let e = c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(0), 5);
        c.end(e, 8);
        c.start(t, None, SpanKind::DispatchWait, ClockDomain::Shard(0), 8);
        // Successor: instant enqueue (link back), wait, exec.
        let succ = ClockDomain::Shard(1);
        let e2 = c.start(t, None, SpanKind::Enqueue, succ, 30);
        c.annotate(e2, "migration_latency", 7);
        c.link(e2, SpanId(1));
        c.end(e2, 30);
        let w = c.start(t, None, SpanKind::DispatchWait, succ, 30);
        c.end(w, 33);
        let x = c.start(t, None, SpanKind::Execute, succ, 33);
        c.annotate(x, "task", 2);
        c.annotate(x, "prio", 4);
        c.end(x, 37);
        c.finish(|_| 100);

        let report = attribute(&c.drain());
        assert_eq!(report.jobs.len(), 1);
        let job = &report.jobs[0];
        assert_eq!(job.shard, 1, "attributed on the successor");
        assert_eq!(job.observed, 7);
        assert_eq!(job.migration, 7);
        assert_eq!(job.jitter, 0, "a migrated job re-arrives pre-accepted");
        assert_eq!(job.attributed_total(), job.observed);
    }

    #[test]
    fn restart_broken_chains_are_skipped_not_misattributed() {
        let c = TraceCollector::new(64);
        let sh = ClockDomain::Shard(0);
        let t = TraceId(3);
        let e = c.start(t, None, SpanKind::Enqueue, sh, 0);
        c.end(e, 2);
        // Execution interrupted by a restart: truncated exec, then a
        // fresh completed one.
        let x = c.start(t, None, SpanKind::Execute, sh, 4);
        c.finish(|_| 6);
        let x2 = c.start(t, None, SpanKind::Execute, sh, 9);
        c.annotate(x2, "task", 0);
        c.end(x2, 12);
        let report = attribute(&c.drain());
        assert_eq!(report.jobs.len(), 0);
        assert_eq!(report.skipped, 1);
        let _ = x;
    }
}
