//! Seeded bugs for oracle mutation testing (`fuzz --teeth`).
//!
//! The fuzzer's oracles only earn trust if they demonstrably *fail* when
//! the implementation is broken. Each [`SeededBug`] variant re-introduces
//! a classic scheduler defect behind a runtime flag
//! ([`Scheduler::with_seeded_bug`](crate::Scheduler::with_seeded_bug));
//! production constructors never set it, so the unmutated scheduler is
//! byte-for-byte the verified one. The teeth harness in `rossl-fuzz`
//! installs one bug at a time and asserts that fuzzing detects it within
//! a budget.
//!
//! The bugs are chosen so that each is caught by a *different* oracle,
//! proving the oracle matrix has no redundant rows:
//!
//! | bug | broken invariant | detecting oracle |
//! |-----|------------------|------------------|
//! | [`OffByOnePriorityPick`](SeededBug::OffByOnePriorityPick) | highest-priority-first (Def. 3.2) | functional: `DispatchNotHighestPriority` |
//! | [`LostPendingJob`](SeededBug::LostPendingJob) | accepted jobs stay pending | functional: `IdleWithPendingJobs` + pending-count differential |
//! | [`StaleJobId`](SeededBug::StaleJobId) | `σ_trace.idx` uniqueness (Fig. 6) | functional: `DuplicateJobId` |
//! | [`SkippedCommit`](SeededBug::SkippedCommit) | journal durability at crash | stitched seam: `LostAcceptedJob` |
//! | [`SkippedModeSwitch`](SeededBug::SkippedModeSwitch) | AMC switch on HI `C_LO` overrun | monitor: missed mode switch |
//! | [`DroppedFailover`](SeededBug::DroppedFailover) | dead shard's jobs migrate to a successor | fleet accounting: lost accepted jobs |
//! | [`OrphanSpan`](SeededBug::OrphanSpan) | every opened span is closed at its phase boundary | trace well-formedness: `trace-wellformed` |

use std::fmt;

/// A deliberately seeded scheduler/journal bug, used only by mutation
/// testing. The module source tabulates which fuzz oracle detects each
/// bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeededBug {
    /// The selection phase dequeues the highest-priority job, puts it
    /// back, and dispatches the runner-up instead — an off-by-one in the
    /// priority pick. Only observable with ≥ 2 jobs pending.
    OffByOnePriorityPick,
    /// Every second successful read reports the job in its `M_ReadE`
    /// marker but never enqueues it: the job is accepted and then lost.
    LostPendingJob,
    /// Every second successful read forgets to increment the job-id
    /// counter (`σ_trace.idx`), so a later job reuses the stale id.
    StaleJobId,
    /// The journaling driver stops writing commit records after the
    /// first successful read, so a crash loses accepted jobs that the
    /// environment already handed over. Interpreted by journaling
    /// drivers (the fuzz executor), not by the scheduler itself.
    SkippedCommit,
    /// The scheduler records a HI task's `C_LO` overrun but never arms
    /// the LO → HI mode switch the installed
    /// [`ModePolicy`](crate::ModePolicy) demands — the classic "mode
    /// change protocol not invoked" defect. Only observable with an
    /// AMC-style policy installed.
    SkippedModeSwitch,
    /// The fleet supervisor fences a dead shard but silently skips the
    /// journal-replay migration to its successor, losing every job that
    /// was pending or in flight on the dead shard. Interpreted by the
    /// fleet layer (`rossl-fleet`), not by the scheduler itself; only
    /// observable with ≥ 2 shards and an injected shard death.
    DroppedFailover,
    /// The shard's tracer never closes a job's enqueue span when the
    /// scheduler reads the job in — the span chain loses its first
    /// causal hop and downstream phases dangle. Interpreted by the
    /// fleet tracing layer (`rossl-fleet`), not by the scheduler
    /// itself; only observable with tracing attached.
    OrphanSpan,
}

impl SeededBug {
    /// All seeded bugs, in teeth-harness order.
    pub const ALL: [SeededBug; 7] = [
        SeededBug::OffByOnePriorityPick,
        SeededBug::LostPendingJob,
        SeededBug::StaleJobId,
        SeededBug::SkippedCommit,
        SeededBug::SkippedModeSwitch,
        SeededBug::DroppedFailover,
        SeededBug::OrphanSpan,
    ];

    /// Stable kebab-case name, used in reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            SeededBug::OffByOnePriorityPick => "off-by-one-priority-pick",
            SeededBug::LostPendingJob => "lost-pending-job",
            SeededBug::StaleJobId => "stale-job-id",
            SeededBug::SkippedCommit => "skipped-commit",
            SeededBug::SkippedModeSwitch => "skipped-mode-switch",
            SeededBug::DroppedFailover => "dropped-failover",
            SeededBug::OrphanSpan => "orphan-span",
        }
    }

    /// Parses a bug from its [`name`](SeededBug::name).
    pub fn from_name(name: &str) -> Option<SeededBug> {
        SeededBug::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// `true` for bugs interpreted by journaling drivers rather than by
    /// the scheduler state machine (the scheduler ignores them).
    pub fn is_driver_bug(&self) -> bool {
        matches!(self, SeededBug::SkippedCommit)
    }

    /// `true` for bugs interpreted by the fleet layer rather than by a
    /// single scheduler (the scheduler and journaling drivers ignore
    /// them). Teeth campaigns force fleet-shaped inputs for these.
    pub fn is_fleet_bug(&self) -> bool {
        matches!(self, SeededBug::DroppedFailover | SeededBug::OrphanSpan)
    }
}

impl fmt::Display for SeededBug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for bug in SeededBug::ALL {
            assert_eq!(SeededBug::from_name(bug.name()), Some(bug));
        }
        assert_eq!(SeededBug::from_name("no-such-bug"), None);
    }
}
