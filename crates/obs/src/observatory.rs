//! The bound-margin observatory: live comparison of observed response
//! times against the analytical bounds.
//!
//! The Prosa-side analysis produces, per task, a response-time bound
//! `R_i` (plus arrival jitter `J_i` when the claim is stated against
//! arrival; see Thm 5.1 in the paper). The observatory holds one
//! channel per tracked task: an observed response-time histogram, a
//! high-water mark, a *margin* gauge (`bound − high-water`, which goes
//! negative exactly when the bound has been broken), and a violations
//! counter. Feeding an observation that exceeds the bound returns a
//! typed [`BoundViolation`] naming the job and the gap, and appends it
//! to a bounded alert buffer.
//!
//! Task and job identities are plain integers here — the crate is
//! dependency-free by design, so callers pass `TaskId.0` / `JobId.0`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::attribution::{BoundTerm, JobAttribution};
use crate::hist::Histogram;
use crate::metrics::{Counter, Gauge, HighWater};
use crate::registry::Registry;

/// Capacity of each observatory's alert buffer.
const DEFAULT_ALERT_CAP: usize = 256;

/// The alert buffer both observatories share: the first
/// [`DEFAULT_ALERT_CAP`] alerts in observation order, and a count of
/// those past the cap. Only touched when an alert is raised.
#[derive(Debug)]
struct Alerts<T> {
    stored: Mutex<Vec<T>>,
    dropped: Counter,
}

impl<T> Default for Alerts<T> {
    fn default() -> Alerts<T> {
        Alerts {
            stored: Mutex::default(),
            dropped: Counter::new(),
        }
    }
}

impl<T: Clone> Alerts<T> {
    /// Stores `alert`, or counts it once the buffer is full.
    fn push(&self, alert: T) {
        let mut stored = self.stored.lock().unwrap_or_else(|e| e.into_inner());
        if stored.len() < DEFAULT_ALERT_CAP {
            stored.push(alert);
        } else {
            self.dropped.inc();
        }
    }

    fn stored(&self) -> Vec<T> {
        self.stored
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// An observed response time exceeded the analytical bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundViolation {
    /// The raw job id (`JobId.0`) whose response broke the bound.
    pub job: u64,
    /// The raw task id (`TaskId.0`) the job belongs to.
    pub task: usize,
    /// The observed response time, in ticks.
    pub observed_ticks: u64,
    /// The analytical bound it was compared against, in ticks.
    pub bound_ticks: u64,
}

impl BoundViolation {
    /// How far past the bound the observation landed, in ticks. This
    /// is the (negated) pessimism gap: a violation means the analysis
    /// was *optimistic* by this much for this run.
    pub fn pessimism_gap(&self) -> u64 {
        self.observed_ticks.saturating_sub(self.bound_ticks)
    }
}

impl std::fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} (task {}) responded in {} ticks, {} past its bound of {}",
            self.job,
            self.task,
            self.observed_ticks,
            self.pessimism_gap(),
            self.bound_ticks
        )
    }
}

#[derive(Debug)]
struct TaskChannel {
    bound: u64,
    response: Arc<Histogram>,
    wait: Arc<Histogram>,
    high_water: Arc<HighWater>,
    margin: Arc<Gauge>,
    violations: Arc<Counter>,
}

/// Per-task observed-vs-analytical response-time comparison.
///
/// Construction (`track`) registers the per-task metrics; observation
/// (`observe_completion`, `observe_dispatch_wait`) is lock-free except
/// for the alert buffer, which is only touched when a bound actually
/// breaks.
#[derive(Debug, Default)]
pub struct BoundObservatory {
    channels: HashMap<usize, TaskChannel>,
    alerts: Alerts<BoundViolation>,
}

impl BoundObservatory {
    /// An observatory tracking no tasks yet.
    pub fn new() -> BoundObservatory {
        BoundObservatory::default()
    }

    /// Starts tracking `task` against `bound_ticks`, registering its
    /// metrics under `obs.*.{name}` in `registry`. The margin gauge
    /// starts at the full bound (nothing observed yet).
    pub fn track(&mut self, registry: &Registry, task: usize, name: &str, bound_ticks: u64) {
        let margin = registry.gauge(&format!("obs.margin.{name}"));
        margin.set(saturating_i64(bound_ticks));
        registry
            .gauge(&format!("obs.bound.{name}"))
            .set(saturating_i64(bound_ticks));
        self.channels.insert(
            task,
            TaskChannel {
                bound: bound_ticks,
                response: registry.histogram(&format!("obs.response.{name}")),
                wait: registry.histogram(&format!("obs.wait.{name}")),
                high_water: registry.high_water(&format!("obs.response_high_water.{name}")),
                margin,
                violations: registry.counter(&format!("obs.violations.{name}")),
            },
        );
    }

    /// The bound `task` is tracked against, if it is tracked.
    pub fn bound(&self, task: usize) -> Option<u64> {
        self.channels.get(&task).map(|c| c.bound)
    }

    /// The current margin (`bound − observed high-water`) for `task`;
    /// negative once the bound has been broken.
    pub fn margin(&self, task: usize) -> Option<i64> {
        self.channels.get(&task).map(|c| c.margin.get())
    }

    /// Feeds one completed job's observed response time. Returns the
    /// violation if the observation broke the task's bound; untracked
    /// tasks are ignored.
    pub fn observe_completion(
        &self,
        task: usize,
        job: u64,
        observed_ticks: u64,
    ) -> Option<BoundViolation> {
        let ch = self.channels.get(&task)?;
        ch.response.observe(observed_ticks);
        ch.high_water.observe(observed_ticks);
        ch.margin
            .set(saturating_i64(ch.bound) - saturating_i64(ch.high_water.get()));
        if observed_ticks <= ch.bound {
            return None;
        }
        ch.violations.inc();
        let violation = BoundViolation {
            job,
            task,
            observed_ticks,
            bound_ticks: ch.bound,
        };
        self.alerts.push(violation);
        Some(violation)
    }

    /// Feeds one job's observed dispatch wait (arrival → first
    /// dispatch), which has no bound of its own but contextualizes
    /// response-time spikes.
    pub fn observe_dispatch_wait(&self, task: usize, wait_ticks: u64) {
        if let Some(ch) = self.channels.get(&task) {
            ch.wait.observe(wait_ticks);
        }
    }

    /// All stored violations, in observation order.
    pub fn alerts(&self) -> Vec<BoundViolation> {
        self.alerts.stored()
    }

    /// Total violations recorded across all tracked tasks (including
    /// any whose alerts were dropped by the buffer cap).
    pub fn violation_count(&self) -> u64 {
        self.channels.values().map(|c| c.violations.get()).sum()
    }

    /// How many violations were counted but not stored because the
    /// alert buffer was full.
    pub fn alerts_dropped(&self) -> u64 {
        self.alerts.dropped.get()
    }

    /// The tracked task ids, in no particular order.
    pub fn tracked_tasks(&self) -> Vec<usize> {
        self.channels.keys().copied().collect()
    }
}

/// A decomposed response-time term exceeded its analytical allowance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermOverrun {
    /// The fleet sequence number of the offending job.
    pub seq: u64,
    /// The raw task id (`TaskId.0`) the job ran as.
    pub task: usize,
    /// The shard the job completed on.
    pub shard: usize,
    /// Which term broke its allowance.
    pub term: BoundTerm,
    /// The observed term value, in ticks.
    pub observed_ticks: u64,
    /// The analytical allowance it was compared against, in ticks.
    pub allowance_ticks: u64,
}

impl std::fmt::Display for TermOverrun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} (task {}, shard {}): {} term spent {} ticks against an allowance of {}",
            self.seq, self.task, self.shard, self.term, self.observed_ticks, self.allowance_ticks
        )
    }
}

/// Per-task analytical allowances for the decomposed terms, derived
/// from the response-time recurrence (`prosa::term_allowances` computes
/// them; this crate stays dependency-free, so callers pass plain
/// ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TermAllowance {
    /// Release-jitter allowance `J_i`.
    pub jitter: u64,
    /// Non-preemptive blocking allowance (largest lower-priority
    /// execution window).
    pub blocking: u64,
    /// Own-execution allowance (`C_i` plus the completion action).
    pub self_exec: u64,
    /// Interference-window allowance: the recurrence residual
    /// `R_i + J_i − self_exec`, which bounds interference + overhead +
    /// suspension together (unused jitter/blocking headroom flows into
    /// it, exactly as in the fixed point).
    pub interference: u64,
}

#[derive(Debug)]
struct TermChannel {
    allowance: TermAllowance,
    overruns: Arc<Counter>,
}

/// The attribution-side observatory: compares each [`JobAttribution`]
/// term against its analytical allowance and raises typed
/// [`TermOverrun`] alerts naming job, task and term.
///
/// Fleet-era terms get fleet-wide allowances: a routing episode may
/// take up to the router's deadline, and migration delay has an
/// allowance of zero — the single-shard analysis knows nothing of
/// failover, so *every* migrated job's extra latency is an attributed
/// model exceedance, which is exactly what E23's failover scenario
/// asserts.
#[derive(Debug, Default)]
pub struct TermObservatory {
    channels: HashMap<usize, TermChannel>,
    router_allowance: u64,
    migration_allowance: u64,
    checked: Counter,
    alerts: Alerts<TermOverrun>,
}

impl TermObservatory {
    /// An observatory tracking no tasks yet, with router/migration
    /// allowances of zero.
    pub fn new() -> TermObservatory {
        TermObservatory::default()
    }

    /// Sets the fleet-era allowances: `router` ticks per routing
    /// episode (the router's deadline) and `migration` ticks of
    /// tolerated migration delay (0 = any failover overruns).
    pub fn with_fleet_allowances(mut self, router: u64, migration: u64) -> TermObservatory {
        self.router_allowance = router;
        self.migration_allowance = migration;
        self
    }

    /// Starts tracking `task` against `allowance`, registering its
    /// overrun counter as `obs.term.overruns.{name}` in `registry`.
    pub fn track(&mut self, registry: &Registry, task: usize, name: &str, allowance: TermAllowance) {
        registry
            .gauge(&format!("obs.term.allowance.interference.{name}"))
            .set(saturating_i64(allowance.interference));
        self.channels.insert(
            task,
            TermChannel {
                allowance,
                overruns: registry.counter(&format!("obs.term.overruns.{name}")),
            },
        );
    }

    /// The allowance `task` is tracked against, if any.
    pub fn allowance(&self, task: usize) -> Option<TermAllowance> {
        self.channels.get(&task).map(|c| c.allowance)
    }

    /// Checks one attributed job against its task's allowances.
    /// Returns every term that overran (empty in-model). Per-task
    /// terms of untracked tasks are skipped; the fleet-era terms are
    /// always checked.
    pub fn observe(&self, job: &JobAttribution) -> Vec<TermOverrun> {
        self.checked.inc();
        let mut out = Vec::new();
        let mut check = |term: BoundTerm, observed: u64, allowance: u64, count: Option<&Counter>| {
            if observed > allowance {
                if let Some(c) = count {
                    c.inc();
                }
                let overrun = TermOverrun {
                    seq: job.seq,
                    task: job.task,
                    shard: job.shard,
                    term,
                    observed_ticks: observed,
                    allowance_ticks: allowance,
                };
                self.alerts.push(overrun);
                out.push(overrun);
            }
        };
        if let Some(ch) = self.channels.get(&job.task) {
            let a = ch.allowance;
            let counter = Some(&*ch.overruns);
            check(BoundTerm::Jitter, job.jitter, a.jitter, counter);
            check(BoundTerm::Blocking, job.blocking, a.blocking, counter);
            check(BoundTerm::SelfExecution, job.self_exec, a.self_exec, counter);
            check(
                BoundTerm::Interference,
                job.interference + job.overhead + job.suspension,
                a.interference,
                counter,
            );
        }
        check(BoundTerm::RouterQueue, job.router_queue, self.router_allowance, None);
        check(BoundTerm::Migration, job.migration, self.migration_allowance, None);
        out
    }

    /// All stored overruns, in observation order.
    pub fn alerts(&self) -> Vec<TermOverrun> {
        self.alerts.stored()
    }

    /// Attributed jobs checked so far.
    pub fn checked(&self) -> u64 {
        self.checked.get()
    }

    /// Overruns counted but not stored because the buffer was full.
    pub fn alerts_dropped(&self) -> u64 {
        self.alerts.dropped.get()
    }
}

fn saturating_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observatory(reg: &Registry) -> BoundObservatory {
        let mut obs = BoundObservatory::new();
        obs.track(reg, 0, "control", 100);
        obs.track(reg, 1, "logging", 250);
        obs
    }

    #[test]
    fn within_bound_updates_margin_without_alerts() {
        let reg = Registry::new();
        let obs = observatory(&reg);
        assert_eq!(obs.margin(0), Some(100));
        assert_eq!(obs.observe_completion(0, 7, 60), None);
        assert_eq!(obs.observe_completion(0, 8, 40), None);
        assert_eq!(obs.margin(0), Some(40), "margin follows the high-water mark");
        assert_eq!(obs.violation_count(), 0);
        assert!(obs.alerts().is_empty());
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("obs.response.control").map(|h| h.count), Some(2));
        assert_eq!(snap.high_water("obs.response_high_water.control"), Some(60));
        assert_eq!(snap.gauge("obs.margin.control"), Some(40));
    }

    #[test]
    fn violation_names_job_and_gap_and_goes_negative() {
        let reg = Registry::new();
        let obs = observatory(&reg);
        let v = obs
            .observe_completion(1, 42, 300)
            .expect("300 > bound 250 must alert");
        assert_eq!(v.job, 42);
        assert_eq!(v.task, 1);
        assert_eq!(v.pessimism_gap(), 50);
        assert_eq!(obs.margin(1), Some(-50));
        assert_eq!(obs.violation_count(), 1);
        assert_eq!(obs.alerts(), vec![v]);
        assert!(v.to_string().contains("job 42"));
        assert_eq!(reg.snapshot().counter("obs.violations.logging"), Some(1));
    }

    #[test]
    fn untracked_tasks_are_ignored() {
        let reg = Registry::new();
        let obs = observatory(&reg);
        assert_eq!(obs.observe_completion(99, 1, u64::MAX), None);
        obs.observe_dispatch_wait(99, 5);
        assert_eq!(obs.violation_count(), 0);
        assert_eq!(obs.bound(99), None);
    }

    #[test]
    fn alert_buffer_caps_but_counting_continues() {
        let reg = Registry::new();
        let mut obs = BoundObservatory::new();
        obs.track(&reg, 0, "t", 1);
        let raised = DEFAULT_ALERT_CAP as u64 + 3;
        for job in 0..raised {
            assert!(obs.observe_completion(0, job, 10).is_some());
        }
        let alerts = obs.alerts();
        assert_eq!(alerts.len(), DEFAULT_ALERT_CAP);
        assert_eq!(alerts.last().map(|v| v.job), Some(raised - 4), "first alerts stay");
        assert_eq!(obs.violation_count(), raised);
        assert_eq!(obs.alerts_dropped(), 3);
    }

    #[test]
    fn alerts_from_every_task_share_one_buffer_in_observation_order() {
        let reg = Registry::new();
        let obs = observatory(&reg);
        let raised = [
            obs.observe_completion(1, 10, 260),
            obs.observe_completion(0, 11, 50),
            obs.observe_completion(0, 12, 101),
            obs.observe_completion(1, 13, 251),
        ];
        let expected: Vec<BoundViolation> = raised.iter().flatten().copied().collect();
        assert_eq!(expected.iter().map(|v| v.job).collect::<Vec<_>>(), vec![10, 12, 13]);
        assert_eq!(obs.alerts(), expected);
        assert_eq!(obs.violation_count(), 3);
        assert_eq!(obs.alerts_dropped(), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("obs.violations.control"), Some(1));
        assert_eq!(snap.counter("obs.violations.logging"), Some(2));
    }

    #[test]
    fn concurrent_violations_are_stored_or_counted_exactly_once() {
        let reg = Registry::new();
        let mut obs = BoundObservatory::new();
        obs.track(&reg, 0, "t", 1);
        let (threads, per_thread) = (4u64, 100u64);
        std::thread::scope(|s| {
            for t in 0..threads {
                let obs = &obs;
                s.spawn(move || {
                    for i in 0..per_thread {
                        assert!(obs.observe_completion(0, t * per_thread + i, 2).is_some());
                    }
                });
            }
        });
        let raised = threads * per_thread;
        let mut stored: Vec<u64> = obs.alerts().iter().map(|v| v.job).collect();
        assert_eq!(stored.len(), DEFAULT_ALERT_CAP);
        stored.sort_unstable();
        stored.dedup();
        assert_eq!(stored.len(), DEFAULT_ALERT_CAP, "no alert is stored twice");
        assert_eq!(obs.alerts_dropped(), raised - DEFAULT_ALERT_CAP as u64);
        assert_eq!(obs.violation_count(), raised);
    }

    fn attribution(task: usize, observed: u64) -> JobAttribution {
        JobAttribution {
            trace: crate::trace::TraceId(7),
            seq: 7,
            task,
            shard: 0,
            observed,
            jitter: 2,
            blocking: 1,
            interference: observed.saturating_sub(8),
            suspension: 0,
            overhead: 2,
            self_exec: 3,
            router_queue: 0,
            migration: 0,
        }
    }

    #[test]
    fn in_allowance_attribution_raises_nothing() {
        let reg = Registry::new();
        let mut obs = TermObservatory::new().with_fleet_allowances(200, 0);
        obs.track(
            &reg,
            1,
            "control",
            TermAllowance { jitter: 5, blocking: 4, self_exec: 3, interference: 40 },
        );
        let overruns = obs.observe(&attribution(1, 20));
        assert!(overruns.is_empty(), "{overruns:?}");
        assert_eq!(obs.checked(), 1);
        assert!(obs.alerts().is_empty());
    }

    #[test]
    fn overrun_names_job_task_and_term() {
        let reg = Registry::new();
        let mut obs = TermObservatory::new().with_fleet_allowances(200, 0);
        obs.track(
            &reg,
            1,
            "control",
            TermAllowance { jitter: 5, blocking: 4, self_exec: 2, interference: 500 },
        );
        // self_exec 3 > allowance 2: a WCET overrun attributed to the
        // self-execution term.
        let overruns = obs.observe(&attribution(1, 20));
        assert_eq!(overruns.len(), 1);
        assert_eq!(overruns[0].term, BoundTerm::SelfExecution);
        assert_eq!(overruns[0].seq, 7);
        assert_eq!(overruns[0].task, 1);
        assert!(overruns[0].to_string().contains("self-execution"));
        assert_eq!(obs.alerts(), overruns);
        assert_eq!(reg.snapshot().counter("obs.term.overruns.control"), Some(1));
    }

    #[test]
    fn migration_overruns_its_zero_allowance() {
        let obs = TermObservatory::new().with_fleet_allowances(200, 0);
        let mut a = attribution(9, 20); // untracked task: fleet terms only
        a.migration = 12;
        let overruns = obs.observe(&a);
        assert_eq!(overruns.len(), 1);
        assert_eq!(overruns[0].term, BoundTerm::Migration);
        assert_eq!(overruns[0].observed_ticks, 12);
    }

    #[test]
    fn term_alert_buffer_caps_but_counting_continues() {
        let reg = Registry::new();
        let mut obs = TermObservatory::new();
        obs.track(&reg, 1, "t", TermAllowance::default());
        // Jitter, blocking, self-execution and interference overrun
        // their zero allowances on every job.
        let jobs = DEFAULT_ALERT_CAP / 4 + 1;
        for _ in 0..jobs {
            assert_eq!(obs.observe(&attribution(1, 20)).len(), 4);
        }
        assert_eq!(obs.alerts().len(), DEFAULT_ALERT_CAP);
        assert_eq!(obs.alerts_dropped(), 4);
        assert_eq!(obs.checked(), jobs as u64);
    }

    #[test]
    fn dispatch_wait_feeds_the_wait_histogram() {
        let reg = Registry::new();
        let obs = observatory(&reg);
        obs.observe_dispatch_wait(0, 3);
        obs.observe_dispatch_wait(0, 9);
        let snap = reg.snapshot();
        let wait = snap.histogram("obs.wait.control").expect("tracked");
        assert_eq!(wait.count, 2);
        assert_eq!(wait.max, 9);
    }
}
