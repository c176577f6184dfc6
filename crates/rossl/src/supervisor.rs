//! Supervised restart: rebuilding a crashed scheduler from its journal.
//!
//! The supervisor owns the crash-recovery protocol (DESIGN §5.3). A
//! deployment journals every marker through
//! [`JournalWriter`](rossl_journal::JournalWriter) *before* acting on
//! it; when the scheduler process dies, the supervisor
//!
//! 1. recovers the journal's committed prefix ([`rossl_journal::recover`]
//!    — torn tails and bit flips surface as typed corruption, never a
//!    panic),
//! 2. replays the committed markers into a [`RecoveredState`]: the
//!    pending set (accepted jobs not yet completed), the job-id counter
//!    and the completion counter, returning a job whose dispatch the
//!    crash voided to the pending set (at-least-once execution),
//! 3. builds a fresh [`Scheduler`] from that state
//!    ([`Scheduler::recovered`]) which re-enters the loop at the top of
//!    the polling phase,
//!
//! under a bounded-restart policy with deterministic exponential
//! backoff. Backoff is *recorded*, not slept: the simulation's notion of
//! time lives in the driver, and determinism (same journal + same
//! policy ⇒ same recovery) is what the replay guarantee rests on.
//!
//! The pre-crash committed trace and the post-crash trace are checked
//! as the segments of one stitched trace with
//! [`check_stitched`](rossl_trace::check_stitched) — per-segment
//! protocol, cross-seam functional correctness, and the seam rule (no
//! duplicated completion, no lost accepted job).

use std::fmt;

use rossl_journal::{recover, Corruption, JournalError, TimedEvent};
use rossl_model::{Duration, Job, JobId, Mode};
use rossl_trace::Marker;

use crate::codec::MessageCodec;
use crate::config::ClientConfig;
use crate::error::DriveError;
use crate::scheduler::Scheduler;

/// How many times, and how eagerly, the supervisor restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Maximum number of restarts before the supervisor gives up.
    pub max_restarts: u32,
    /// Base backoff delay; restart `k` records a backoff of
    /// `backoff_base << k` ticks (saturating).
    pub backoff_base: Duration,
}

impl RestartPolicy {
    /// A policy allowing `max_restarts` restarts with the given base
    /// backoff.
    pub fn new(max_restarts: u32, backoff_base: Duration) -> RestartPolicy {
        RestartPolicy {
            max_restarts,
            backoff_base,
        }
    }

    /// The backoff recorded before restart `attempt` (zero-based):
    /// `backoff_base << attempt`, saturating at the integer-width
    /// boundary. `checked_shl` only rejects shifts >= 64, so a shift
    /// that pushes set bits past the top of the word would silently
    /// truncate — saturate as soon as the shift cannot be represented
    /// exactly. Shared with the fleet router, whose retry backoff must
    /// match the supervisor's restart backoff by construction.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let ticks = self.backoff_base.ticks();
        Duration(match ticks.checked_shl(attempt) {
            Some(v) if attempt <= ticks.leading_zeros() => v,
            _ => u64::MAX,
        })
    }
}

impl Default for RestartPolicy {
    /// Three restarts, starting from a one-tick backoff.
    fn default() -> RestartPolicy {
        RestartPolicy::new(3, Duration(1))
    }
}

/// Scheduler state reconstructed from a journal's committed prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// Accepted jobs not yet completed, in re-enqueue order. A job whose
    /// dispatch the crash voided is at the front: it was selected as
    /// highest-priority, so FIFO-within-priority puts it first again.
    pub pending: Vec<Job>,
    /// The next fresh job id (one past the largest id ever read).
    pub next_job_id: u64,
    /// Jobs completed before the crash.
    pub jobs_completed: u64,
    /// The job whose dispatch was voided by the crash, if any. Its
    /// execution becomes at-least-once: it is in `pending` and will be
    /// dispatched again.
    pub redispatch: Option<JobId>,
    /// The criticality mode in force when the crash hit: the target of
    /// the last committed `M_ModeSwitch`, or LO if none was journaled.
    /// A switch that was armed but not yet enacted left no committed
    /// record, so it is legitimately lost — the overrun that caused it
    /// re-arms the switch if it recurs after the restart.
    pub mode: Mode,
}

impl RecoveredState {
    /// Replays committed journal events into recovered scheduler state.
    pub fn from_events(events: &[TimedEvent]) -> RecoveredState {
        let mut pending: Vec<Job> = Vec::new();
        let mut in_flight: Option<Job> = None;
        let mut next_job_id = 0u64;
        let mut jobs_completed = 0u64;
        let mut mode = Mode::Lo;

        for ev in events {
            match &ev.marker {
                Marker::ReadEnd { job: Some(j), .. } => {
                    next_job_id = next_job_id.max(j.id().0 + 1);
                    pending.push(j.clone());
                }
                Marker::Dispatch(j) => {
                    pending.retain(|p| p.id() != j.id());
                    in_flight = Some(j.clone());
                }
                Marker::Completion(_) => {
                    jobs_completed += 1;
                    in_flight = None;
                }
                Marker::ModeSwitch { to, .. } => {
                    mode = *to;
                }
                _ => {}
            }
        }

        let redispatch = in_flight.as_ref().map(Job::id);
        if let Some(j) = in_flight {
            pending.insert(0, j);
        }
        RecoveredState {
            pending,
            next_job_id,
            jobs_completed,
            redispatch,
            mode,
        }
    }
}

/// Why a supervised restart failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The journal has no salvageable prefix at all.
    Journal(JournalError),
    /// The restart budget is spent. The journal's committed prefix is
    /// still parsed once and carried here, so an escalation handler (the
    /// fleet supervisor migrating the shard to a successor) never
    /// re-parses the journal; `None` only when the journal itself is
    /// unreadable.
    RestartBudgetExhausted {
        /// Restarts already performed.
        attempts: u32,
        /// The policy's limit.
        max_restarts: u32,
        /// The last-good state replayed from the journal's committed
        /// prefix, for cross-boundary migration.
        last_good: Option<Box<RecoveredState>>,
    },
    /// A recovered job does not fit the configuration.
    Rebuild(DriveError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "journal unrecoverable: {e}"),
            RecoveryError::RestartBudgetExhausted {
                attempts,
                max_restarts,
                last_good,
            } => write!(
                f,
                "restart budget exhausted ({attempts} of {max_restarts} restarts used; \
                 last-good state {})",
                if last_good.is_some() {
                    "preserved"
                } else {
                    "unavailable"
                }
            ),
            RecoveryError::Rebuild(e) => write!(f, "recovered state rejected: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<JournalError> for RecoveryError {
    fn from(e: JournalError) -> RecoveryError {
        RecoveryError::Journal(e)
    }
}

/// The restart supervisor: bounded retries with recorded backoff.
#[derive(Debug, Clone)]
pub struct Supervisor {
    policy: RestartPolicy,
    restarts: u32,
    backoff_log: Vec<Duration>,
}

impl Supervisor {
    /// A supervisor enforcing `policy`.
    pub fn new(policy: RestartPolicy) -> Supervisor {
        Supervisor {
            policy,
            restarts: 0,
            backoff_log: Vec::new(),
        }
    }

    /// The enforced policy.
    pub fn policy(&self) -> RestartPolicy {
        self.policy
    }

    /// Restarts performed so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// The backoff recorded before each restart, in restart order.
    pub fn backoff_log(&self) -> &[Duration] {
        &self.backoff_log
    }

    /// Performs one supervised restart from the journal bytes.
    ///
    /// On success, returns the restarted scheduler, the state it was
    /// rebuilt from, and the journal corruption encountered (if any —
    /// a torn tail from the crash itself is the common case and is
    /// *not* an error: the committed prefix survives it).
    ///
    /// # Errors
    ///
    /// Returns a [`RecoveryError`] when the restart budget is spent,
    /// the journal header is unreadable, or a recovered job does not
    /// fit the configuration.
    pub fn restart<C: MessageCodec>(
        &mut self,
        journal: &[u8],
        config: ClientConfig,
        codec: C,
    ) -> Result<(Scheduler<C>, RecoveredState, Option<Corruption>), RecoveryError> {
        self.restart_shared(journal, std::sync::Arc::new(config), codec)
    }

    /// [`Supervisor::restart`] over an already-shared configuration;
    /// avoids re-cloning the task set per restart on exploration hot
    /// paths that recover at every crash point.
    ///
    /// # Errors
    ///
    /// Same as [`Supervisor::restart`].
    pub fn restart_shared<C: MessageCodec>(
        &mut self,
        journal: &[u8],
        config: std::sync::Arc<ClientConfig>,
        codec: C,
    ) -> Result<(Scheduler<C>, RecoveredState, Option<Corruption>), RecoveryError> {
        if self.restarts >= self.policy.max_restarts {
            // Escalation path: the committed prefix is parsed exactly
            // once here and handed to the caller, so a failover handler
            // can migrate the state without touching the journal again.
            let last_good = recover(journal)
                .ok()
                .map(|r| Box::new(RecoveredState::from_events(&r.committed)));
            return Err(RecoveryError::RestartBudgetExhausted {
                attempts: self.restarts,
                max_restarts: self.policy.max_restarts,
                last_good,
            });
        }
        let backoff = self.policy.backoff_for(self.restarts);
        let recovered = recover(journal)?;
        let state = RecoveredState::from_events(&recovered.committed);
        let sched = Scheduler::recovered_shared(
            config,
            codec,
            state.pending.clone(),
            state.next_job_id,
            state.jobs_completed,
        )
        .map_err(RecoveryError::Rebuild)?;
        self.restarts += 1;
        self.backoff_log.push(backoff);
        Ok((sched, state, recovered.corruption))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FirstByteCodec;
    use crate::driver::{Driver, Script};
    use rossl_journal::JournalWriter;
    use rossl_model::{Curve, Instant, Priority, Task, TaskId, TaskSet};
    use rossl_trace::check_stitched;

    fn config() -> ClientConfig {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "low",
                Priority(1),
                Duration(10),
                Curve::sporadic(Duration(100)),
            ),
            Task::new(
                TaskId(1),
                "high",
                Priority(9),
                Duration(10),
                Curve::sporadic(Duration(100)),
            ),
        ])
        .unwrap();
        ClientConfig::new(tasks, 1).unwrap()
    }

    /// Drives for at most `steps` markers, journaling each with a
    /// commit, feeding scripted reads. Returns the emitted markers.
    fn drive_journaled(
        driver: &mut Driver<FirstByteCodec>,
        mut script: Script,
        max_steps: usize,
        journal: &mut JournalWriter,
    ) -> Vec<Marker> {
        let steps = script.run(driver, max_steps).expect("drive ok");
        for step in &steps {
            journal.append(&step.marker, step.end).unwrap();
            journal.commit();
        }
        steps.into_iter().map(|t| t.marker).collect()
    }

    #[test]
    fn crash_mid_execution_recovers_and_stitches() {
        // Script: one low job arrives, polling ends, dispatch, execute —
        // crash right after M_Execution (before M_Completion).
        let script = Script::new([Some(vec![0]), None]);
        let mut journal = JournalWriter::new();
        let mut driver = Driver::new(Scheduler::new(config(), FirstByteCodec), Instant::ZERO);
        // 7 markers: ReadS, ReadE j0, ReadS, ReadE ⊥, Selection,
        // Dispatch j0, Execution j0.
        let seg0 = drive_journaled(&mut driver, script, 7, &mut journal);
        assert!(matches!(seg0.last(), Some(Marker::Execution(_))));
        let clock = driver.now();
        drop(driver); // the crash

        // The crash tears the next write in half.
        let mut bytes = journal.into_bytes();
        bytes.extend_from_slice(&[rossl_journal::KIND_EVENT, 0xAA]);

        let mut sup = Supervisor::new(RestartPolicy::default());
        let (sched, state, corruption) = sup
            .restart(&bytes, config(), FirstByteCodec)
            .expect("recovery");
        // The torn tail is reported but harmless.
        assert!(corruption.is_some());
        assert_eq!(state.redispatch, Some(JobId(0)));
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.next_job_id, 1);
        assert_eq!(state.jobs_completed, 0);
        assert_eq!(sup.restarts(), 1);
        assert_eq!(sup.backoff_log(), &[Duration(1)]);

        // Restarted run: poll fails, re-dispatch j0, complete it.
        let mut journal2 = JournalWriter::new();
        let mut driver = Driver::new(sched, clock);
        let seg1 = drive_journaled(&mut driver, Script::new([None, None]), 8, &mut journal2);
        assert!(seg1.contains(&Marker::Completion(Job::new(
            JobId(0),
            TaskId(0),
            vec![0]
        ))));
        assert_eq!(driver.scheduler().jobs_completed(), 1);

        // The stitched trace passes all three checking layers, with the
        // environment having consumed exactly one message from sock 0.
        let report =
            check_stitched(&[&seg0, &seg1], config().tasks(), 1, Some(&[1])).expect("stitched");
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.redispatched, vec![JobId(0)]);
    }

    #[test]
    fn fresh_job_ids_after_recovery_do_not_collide() {
        let mut events = Vec::new();
        let j = Job::new(JobId(41), TaskId(0), vec![0]);
        events.push(TimedEvent {
            marker: Marker::ReadEnd {
                sock: rossl_model::SocketId(0),
                job: Some(j),
            },
            at: Instant(1),
        });
        let state = RecoveredState::from_events(&events);
        assert_eq!(state.next_job_id, 42);
    }

    #[test]
    fn restart_budget_is_enforced() {
        let journal = JournalWriter::new().into_bytes();
        let mut sup = Supervisor::new(RestartPolicy::new(2, Duration(3)));
        for _ in 0..2 {
            sup.restart(&journal, config(), FirstByteCodec)
                .expect("within budget");
        }
        let err = sup.restart(&journal, config(), FirstByteCodec).unwrap_err();
        match err {
            RecoveryError::RestartBudgetExhausted {
                attempts,
                max_restarts,
                last_good,
            } => {
                assert_eq!((attempts, max_restarts), (2, 2));
                // The (empty) journal still parses into a last-good state.
                assert_eq!(last_good, Some(Box::new(RecoveredState::from_events(&[]))));
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        // Exponential backoff: 3, then 6.
        assert_eq!(sup.backoff_log(), &[Duration(3), Duration(6)]);
    }

    /// The escalation contract behind fleet failover: when the budget is
    /// spent, the error still carries the journal's committed prefix as
    /// a parsed `RecoveredState`, so migration never re-reads the
    /// journal — and an unreadable journal degrades to `None` rather
    /// than masking the budget error.
    #[test]
    fn budget_exhaustion_preserves_last_good_state() {
        let mut journal = JournalWriter::new();
        let j = Job::new(JobId(7), TaskId(0), vec![0]);
        journal.append(
            &Marker::ReadEnd {
                sock: rossl_model::SocketId(0),
                job: Some(j.clone()),
            },
            Instant(1),
        ).unwrap();
        journal.commit();
        let bytes = journal.into_bytes();

        let mut sup = Supervisor::new(RestartPolicy::new(0, Duration(1)));
        let err = sup.restart(&bytes, config(), FirstByteCodec).unwrap_err();
        let RecoveryError::RestartBudgetExhausted { last_good, .. } = err else {
            panic!("expected budget exhaustion");
        };
        let state = *last_good.expect("committed prefix must be preserved");
        assert_eq!(state.pending, vec![j]);
        assert_eq!(state.next_job_id, 8);
        assert_eq!(state.jobs_completed, 0);

        // Unreadable journal: the budget error survives, state does not.
        let err = sup
            .restart(b"not a journal", config(), FirstByteCodec)
            .unwrap_err();
        let RecoveryError::RestartBudgetExhausted { last_good, .. } = err else {
            panic!("expected budget exhaustion");
        };
        assert_eq!(last_good, None);
    }

    /// `RestartPolicy::backoff_for` is the single source of backoff
    /// truth: it matches the log the supervisor records restart by
    /// restart, so the fleet router can reuse it directly.
    #[test]
    fn backoff_for_matches_recorded_log() {
        let journal = JournalWriter::new().into_bytes();
        let policy = RestartPolicy::new(5, Duration(3));
        let mut sup = Supervisor::new(policy);
        for _ in 0..5 {
            sup.restart(&journal, config(), FirstByteCodec)
                .expect("within budget");
        }
        let expected: Vec<Duration> = (0..5).map(|k| policy.backoff_for(k)).collect();
        assert_eq!(sup.backoff_log(), expected.as_slice());
        assert_eq!(policy.backoff_for(200), Duration(u64::MAX));
    }

    /// Backoff saturates at the integer-width boundary instead of
    /// silently truncating: `checked_shl` only rejects shifts >= 64, so
    /// without the leading-zeros guard `3 << 63` would quietly drop the
    /// high bits and *decrease* the recorded backoff.
    #[test]
    fn backoff_saturates_at_integer_width() {
        let journal = JournalWriter::new().into_bytes();
        let mut sup = Supervisor::new(RestartPolicy::new(200, Duration(3)));
        for _ in 0..66 {
            sup.restart(&journal, config(), FirstByteCodec)
                .expect("within budget");
        }
        let log = sup.backoff_log();
        // 3 = 0b11 has 62 leading zeros: shift 62 is the last exact one.
        assert_eq!(log[61], Duration(3u64 << 61));
        assert_eq!(log[62], Duration(3u64 << 62));
        // Shift 63 would lose the top bit of 0b11 — saturate.
        assert_eq!(log[63], Duration(u64::MAX));
        assert_eq!(log[64], Duration(u64::MAX));
        assert_eq!(log[65], Duration(u64::MAX));
        // Monotone: backoff never decreases across restarts.
        assert!(log.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A committed `M_ModeSwitch` is replayed into the recovered state;
    /// the last one wins, and a journal without any defaults to LO.
    #[test]
    fn mode_is_recovered_from_committed_switches() {
        let empty = RecoveredState::from_events(&[]);
        assert_eq!(empty.mode, Mode::Lo);

        let events: Vec<TimedEvent> = [
            Marker::ModeSwitch {
                from: Mode::Lo,
                to: Mode::Hi,
            },
            Marker::ModeSwitch {
                from: Mode::Hi,
                to: Mode::Lo,
            },
            Marker::ModeSwitch {
                from: Mode::Lo,
                to: Mode::Hi,
            },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, marker)| TimedEvent {
            marker,
            at: Instant(i as u64),
        })
        .collect();
        let state = RecoveredState::from_events(&events);
        assert_eq!(state.mode, Mode::Hi);
        assert_eq!(RecoveredState::from_events(&events[..2]).mode, Mode::Lo);
    }

    #[test]
    fn unrecoverable_journal_is_a_typed_error() {
        let mut sup = Supervisor::new(RestartPolicy::default());
        let err = sup
            .restart(b"not a journal", config(), FirstByteCodec)
            .unwrap_err();
        assert_eq!(err, RecoveryError::Journal(JournalError::BadHeader));
    }

    /// A restart that fails on an unreadable journal spends no budget and
    /// logs no backoff, so the next good restart is still the first.
    #[test]
    fn failed_restart_spends_no_budget() {
        let policy = RestartPolicy::new(3, Duration(4));
        let mut sup = Supervisor::new(policy);
        let err = sup.restart(b"garbage", config(), FirstByteCodec).unwrap_err();
        assert!(matches!(err, RecoveryError::Journal(_)), "{err:?}");
        assert_eq!(sup.restarts(), 0);
        assert!(sup.backoff_log().is_empty());

        let journal = JournalWriter::new().into_bytes();
        sup.restart(&journal, config(), FirstByteCodec).expect("recovery");
        assert_eq!(sup.restarts(), 1);
        assert_eq!(sup.backoff_log(), &[policy.backoff_for(0)]);
    }

    /// Only the committed prefix is replayed: a job read before the last
    /// commit is re-pended, one whose read never committed is not.
    #[test]
    fn restart_repends_only_committed_reads() {
        let read = |id: u64| Marker::ReadEnd {
            sock: rossl_model::SocketId(0),
            job: Some(Job::new(JobId(id), TaskId(0), vec![0])),
        };
        let mut journal = JournalWriter::new();
        journal.append(&read(0), Instant(1)).unwrap();
        journal.commit();
        journal.append(&read(1), Instant(2)).unwrap();

        let mut sup = Supervisor::new(RestartPolicy::new(3, Duration(4)));
        let (sched, state, _) = sup
            .restart(&journal.into_bytes(), config(), FirstByteCodec)
            .expect("recovery");
        assert_eq!(state.pending, vec![Job::new(JobId(0), TaskId(0), vec![0])]);
        assert_eq!(state.next_job_id, 1);
        assert_eq!(state.redispatch, None);
        assert_eq!(sched.jobs_completed(), 0);
        assert_eq!(sup.backoff_log(), &[Duration(4)]);
    }

    #[test]
    fn completed_jobs_are_not_repended() {
        let j = Job::new(JobId(0), TaskId(0), vec![0]);
        let events: Vec<TimedEvent> = [
            Marker::ReadEnd {
                sock: rossl_model::SocketId(0),
                job: Some(j.clone()),
            },
            Marker::Dispatch(j.clone()),
            Marker::Execution(j.clone()),
            Marker::Completion(j),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, marker)| TimedEvent {
            marker,
            at: Instant(i as u64),
        })
        .collect();
        let state = RecoveredState::from_events(&events);
        assert!(state.pending.is_empty());
        assert_eq!(state.redispatch, None);
        assert_eq!(state.jobs_completed, 1);
    }
}
