//! The scheduler's instrument bundle and its batched hot-path sink.
//!
//! [`SchedulerMetrics`] fixes the `sched.*` metric names (DESIGN §7),
//! so the scheduler reports into a registry without string plumbing at
//! call sites.
//!
//! ## The hot-path contract
//!
//! The scheduler does not touch an atomic per step. It accumulates
//! plain-integer [`StepCounts`] locally and hands the whole batch to
//! [`SchedSink::flush`] at quiescent points (idle decisions, job
//! completions, end of run). With [`SchedSink::Noop`] the flush is one
//! discriminant test — that branch is the entire cost of disabled
//! instrumentation, which E19 measures and DESIGN §7 budgets at < 5%.

use std::sync::Arc;

use crate::metrics::{Counter, Gauge, HighWater};
use crate::registry::Registry;

/// Locally accumulated scheduler-loop counts, flushed in one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// State-machine steps taken (`advance` calls).
    pub steps: u64,
    /// Socket reads that returned a message.
    pub reads_ok: u64,
    /// Socket reads that found every queue empty.
    pub reads_empty: u64,
    /// Jobs dispatched to execution.
    pub dispatches: u64,
    /// Jobs that ran to completion.
    pub completions: u64,
    /// Idle decisions (nothing pending).
    pub idles: u64,
    /// Arrivals shed by overload degradation.
    pub sheds: u64,
    /// Watchdog-detected budget overruns.
    pub overruns: u64,
    /// Criticality-mode switches (either direction).
    pub mode_switches: u64,
    /// LO jobs suspended for HI mode.
    pub suspensions: u64,
    /// Suspended jobs resumed on return to LO mode.
    pub resumes: u64,
}

impl StepCounts {
    /// True when nothing has been accumulated since the last flush.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }
}

/// Scheduler-loop instruments, registered under `sched.*`.
#[derive(Debug)]
pub struct SchedulerMetrics {
    /// Total `advance` steps.
    pub steps: Arc<Counter>,
    /// Reads that delivered a message.
    pub reads_ok: Arc<Counter>,
    /// Reads that found all queues empty.
    pub reads_empty: Arc<Counter>,
    /// Dispatched jobs.
    pub dispatches: Arc<Counter>,
    /// Completed jobs.
    pub completions: Arc<Counter>,
    /// Idle decisions.
    pub idles: Arc<Counter>,
    /// Shed arrivals (overload degradation).
    pub sheds: Arc<Counter>,
    /// Watchdog overruns.
    pub overruns: Arc<Counter>,
    /// Criticality-mode switches.
    pub mode_switches: Arc<Counter>,
    /// LO-job suspensions (HI mode entered or read while HI).
    pub suspensions: Arc<Counter>,
    /// Suspended-job resumes (LO mode re-entered).
    pub resumes: Arc<Counter>,
    /// Criticality mode at the last flush (`0` = LO, `1` = HI).
    pub mode: Arc<Gauge>,
    /// Suspended-buffer depth at the last flush.
    pub suspended_depth: Arc<Gauge>,
    /// Pending-queue depth at the last flush.
    pub queue_depth: Arc<Gauge>,
    /// Deepest pending queue seen at any flush.
    pub queue_high_water: Arc<HighWater>,
    /// Batch flushes performed (telemetry meta-metric).
    pub flushes: Arc<Counter>,
}

impl SchedulerMetrics {
    /// Registers the `sched.*` instruments in `registry`.
    pub fn register(registry: &Registry) -> Arc<SchedulerMetrics> {
        Arc::new(SchedulerMetrics {
            steps: registry.counter("sched.steps"),
            reads_ok: registry.counter("sched.reads_ok"),
            reads_empty: registry.counter("sched.reads_empty"),
            dispatches: registry.counter("sched.dispatches"),
            completions: registry.counter("sched.completions"),
            idles: registry.counter("sched.idles"),
            sheds: registry.counter("sched.sheds"),
            overruns: registry.counter("sched.overruns"),
            mode_switches: registry.counter("sched.mode_switches"),
            suspensions: registry.counter("sched.suspensions"),
            resumes: registry.counter("sched.resumes"),
            mode: registry.gauge("sched.mode"),
            suspended_depth: registry.gauge("sched.suspended_depth"),
            queue_depth: registry.gauge("sched.queue_depth"),
            queue_high_water: registry.high_water("sched.queue_high_water"),
            flushes: registry.counter("sched.telemetry_flushes"),
        })
    }

    /// Applies one accumulated batch plus the current queue/mode state.
    pub fn apply(&self, batch: StepCounts, depths: SchedDepths) {
        let queue_depth = depths.queue;
        self.steps.add(batch.steps);
        self.reads_ok.add(batch.reads_ok);
        self.reads_empty.add(batch.reads_empty);
        self.dispatches.add(batch.dispatches);
        self.completions.add(batch.completions);
        self.idles.add(batch.idles);
        self.sheds.add(batch.sheds);
        self.overruns.add(batch.overruns);
        self.mode_switches.add(batch.mode_switches);
        self.suspensions.add(batch.suspensions);
        self.resumes.add(batch.resumes);
        self.mode.set(i64::from(depths.mode));
        self.suspended_depth
            .set(i64::try_from(depths.suspended).unwrap_or(i64::MAX));
        self.queue_depth
            .set(i64::try_from(queue_depth).unwrap_or(i64::MAX));
        self.queue_high_water.observe(queue_depth);
        self.flushes.inc();
    }
}

/// The scheduler's queue/mode snapshot accompanying each batch flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedDepths {
    /// Pending (mode-eligible) queue depth.
    pub queue: u64,
    /// Suspended-buffer depth (LO jobs parked for HI mode).
    pub suspended: u64,
    /// Criticality mode byte (`0` = LO, `1` = HI).
    pub mode: u8,
}

impl SchedDepths {
    /// A snapshot with only a queue depth — single-criticality flushes.
    pub fn queue_only(queue: u64) -> SchedDepths {
        SchedDepths {
            queue,
            suspended: 0,
            mode: 0,
        }
    }
}

/// Where the scheduler's batched counts go. `Noop` costs one branch.
#[derive(Debug, Clone, Default)]
pub enum SchedSink {
    /// Instrumentation disabled: flushes are discarded.
    #[default]
    Noop,
    /// Instrumentation enabled: flushes land in a [`SchedulerMetrics`]
    /// bundle.
    Metrics(Arc<SchedulerMetrics>),
}

impl SchedSink {
    /// True when flushes reach a live bundle.
    pub fn enabled(&self) -> bool {
        matches!(self, SchedSink::Metrics(_))
    }

    /// Delivers one batch (no-op for [`SchedSink::Noop`]).
    pub fn flush(&self, batch: StepCounts, depths: SchedDepths) {
        if let SchedSink::Metrics(m) = self {
            m.apply(batch, depths);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_discards_and_metrics_sink_applies() {
        let batch = StepCounts {
            steps: 10,
            reads_ok: 2,
            reads_empty: 3,
            dispatches: 2,
            completions: 2,
            idles: 1,
            sheds: 0,
            overruns: 0,
            mode_switches: 1,
            suspensions: 2,
            resumes: 2,
        };
        assert!(!SchedSink::Noop.enabled());
        // Must not panic, goes nowhere.
        SchedSink::Noop.flush(batch, SchedDepths::queue_only(4));

        let reg = Registry::new();
        let bundle = SchedulerMetrics::register(&reg);
        let sink = SchedSink::Metrics(Arc::clone(&bundle));
        assert!(sink.enabled());
        sink.flush(batch, SchedDepths::queue_only(4));
        sink.flush(
            batch,
            SchedDepths {
                queue: 2,
                suspended: 3,
                mode: 1,
            },
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sched.steps"), Some(20));
        assert_eq!(snap.counter("sched.completions"), Some(4));
        assert_eq!(snap.gauge("sched.queue_depth"), Some(2));
        assert_eq!(snap.high_water("sched.queue_high_water"), Some(4));
        assert_eq!(snap.counter("sched.telemetry_flushes"), Some(2));
        assert_eq!(snap.counter("sched.mode_switches"), Some(2));
        assert_eq!(snap.counter("sched.suspensions"), Some(4));
        assert_eq!(snap.counter("sched.resumes"), Some(4));
        assert_eq!(snap.gauge("sched.mode"), Some(1));
        assert_eq!(snap.gauge("sched.suspended_depth"), Some(3));
    }
}
