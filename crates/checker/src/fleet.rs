//! Cross-shard stitched checking for fleet failover (DESIGN §10).
//!
//! A fleet run partitions history per shard: each shard carries its own
//! crash-separated segments, and a failover moves a dead shard's
//! uncompleted jobs to a successor under fresh job ids, recorded in a
//! [`MigrationManifest`]. [`check_fleet`] extends the single-shard
//! stitched check ([`rossl_trace::check_stitched`]) across that
//! cross-shard seam:
//!
//! * **Per shard** — every shard's segments must pass the same three
//!   layers as a crashing single scheduler (per-segment protocol,
//!   cross-segment functional correctness, per-socket consumed-message
//!   accounting), through the same [`StitchedCheck`] step, except that
//!   jobs re-pended by a manifest are admitted into the successor's
//!   pending set at the migration seam — without the manifest their
//!   dispatches would be `DispatchOfNonPending`, which is exactly what
//!   makes a forged migration detectable.
//! * **Conservation across the seam** — for each dead shard, the set of
//!   jobs accepted but not completed on its committed history must
//!   *equal* the set migrated away (matched by task and the last payload
//!   the history gave the id): a leftover job with no manifest entry is a
//!   lost job ([`FleetCheckError::LostShardJobs`] — the
//!   `dropped-failover` oracle), and a manifest entry with no matching
//!   leftover is a fabricated one ([`FleetCheckError::PhantomMigration`]).
//!   Every manifest must also land: a successor segment that no history
//!   has would swallow its jobs ([`FleetCheckError::MigrationToNowhere`]).
//! * **Justification** — only dead shards may be migrated from
//!   ([`FleetCheckError::UnjustifiedMigration`]): an unforced failover
//!   is itself a bug, not resilience.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use rossl_model::{Job, JobId, TaskSet};
use rossl_trace::{Marker, ProtocolAutomaton, StitchedCheck, StitchedError};

/// One shard's complete observable history in a fleet run, borrowed
/// from wherever the shard keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHistory<'a> {
    /// The shard's index in the fleet.
    pub shard: usize,
    /// Crash-separated trace segments, oldest first. For a dead shard
    /// the final segment is the journal's committed prefix and may end
    /// mid-action.
    pub segments: Vec<&'a [Marker]>,
    /// Messages the environment recorded as consumed per socket
    /// (index = socket id) on this shard.
    pub consumed: &'a [usize],
    /// `true` when the fleet supervisor declared this shard dead
    /// (restart budget exhausted or heartbeat timeout).
    pub dead: bool,
}

/// One job carried across a shard boundary by failover migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigratedJob {
    /// The job's id on the dead shard.
    pub old: JobId,
    /// The re-pended job on the successor: same task and payload, a
    /// fresh id from the successor's id space.
    pub job: Job,
}

/// The record of one failover migration, written by the fleet
/// supervisor as it replays a dead shard's journal onto a successor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationManifest {
    /// The dead shard migrated from.
    pub from_shard: usize,
    /// The successor migrated to.
    pub to_shard: usize,
    /// Index of the successor segment that begins after the migration
    /// restart: the moved jobs enter the successor's pending set at
    /// that seam.
    pub at_segment: usize,
    /// The jobs that moved.
    pub moved: Vec<MigratedJob>,
}

/// Why a fleet history was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetCheckError {
    /// A single shard's history fails the stitched check on its own
    /// (with migrations already accounted for).
    Shard {
        /// The offending shard.
        shard: usize,
        /// The underlying per-shard error.
        error: StitchedError,
    },
    /// A migration was recorded from a shard never declared dead.
    UnjustifiedMigration {
        /// The (live) shard migrated from.
        from_shard: usize,
        /// The successor migrated to.
        to_shard: usize,
    },
    /// A dead shard's uncompleted accepted jobs were not all migrated —
    /// the failover dropped work (the `dropped-failover` oracle).
    LostShardJobs {
        /// The dead shard.
        shard: usize,
        /// The accepted-but-neither-completed-nor-migrated jobs.
        jobs: Vec<JobId>,
    },
    /// A manifest entry has no matching uncompleted job on the dead
    /// shard (wrong id, task, or payload): migrated state was
    /// fabricated or corrupted in flight.
    PhantomMigration {
        /// The shard migrated from.
        from_shard: usize,
        /// The unmatched dead-shard job id claimed by the manifest.
        job: JobId,
    },
    /// A manifest names a successor segment that no history has: its
    /// jobs would enter no pending set and vanish.
    MigrationToNowhere {
        /// The dead shard migrated from.
        from_shard: usize,
        /// The successor the manifest names.
        to_shard: usize,
        /// The successor segment the manifest names.
        at_segment: usize,
    },
}

impl fmt::Display for FleetCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetCheckError::Shard { shard, error } => write!(f, "shard {shard}: {error}"),
            FleetCheckError::UnjustifiedMigration {
                from_shard,
                to_shard,
            } => write!(
                f,
                "migration from live shard {from_shard} to {to_shard} without a declared death"
            ),
            FleetCheckError::LostShardJobs { shard, jobs } => write!(
                f,
                "dead shard {shard} lost {} accepted job(s) never migrated: {jobs:?}",
                jobs.len()
            ),
            FleetCheckError::PhantomMigration { from_shard, job } => write!(
                f,
                "manifest migrates job {job} that shard {from_shard} never had pending"
            ),
            FleetCheckError::MigrationToNowhere {
                from_shard,
                to_shard,
                at_segment,
            } => write!(
                f,
                "manifest from shard {from_shard} targets segment {at_segment} of shard \
                 {to_shard}, which no history has"
            ),
        }
    }
}

impl std::error::Error for FleetCheckError {}

/// What a successful fleet check established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Shards checked.
    pub shards: usize,
    /// Shards that died during the run.
    pub dead_shards: usize,
    /// Migrations verified against their manifests.
    pub migrations: usize,
    /// Jobs carried across shard boundaries.
    pub migrated_jobs: usize,
    /// Jobs completed across the whole fleet.
    pub jobs_completed: usize,
    /// Jobs still pending (or in flight) when every history ends —
    /// includes a dead shard's leftovers, which conservation has proven
    /// re-pended on a successor.
    pub jobs_pending_at_end: usize,
}

/// Checks a fleet's per-shard histories against its migration
/// manifests (DESIGN §10): per shard, the stitched functional, seam and
/// consumed-message checks, with each manifest's jobs admitted at its
/// migration seam; across shards, conservation of every dead shard's
/// unfinished jobs; and the protocol, per segment.
///
/// Every shard is assumed to run the same `tasks` / `n_sockets`
/// configuration, as the fleet constructor enforces.
///
/// # Errors
///
/// Returns the first [`FleetCheckError`] found. Manifests from live
/// shards are rejected first; then come the per-shard functional/seam
/// layers (so a forged migration is diagnosed as the
/// dispatch-of-nonpending it causes), then cross-shard conservation,
/// which ends by rejecting a manifest whose successor segment no history
/// has ([`FleetCheckError::MigrationToNowhere`]), then per-segment
/// protocol.
pub fn check_fleet(
    shards: &[ShardHistory<'_>],
    manifests: &[MigrationManifest],
    tasks: &TaskSet,
    n_sockets: usize,
) -> Result<FleetReport, FleetCheckError> {
    let dead: HashSet<usize> = shards.iter().filter(|s| s.dead).map(|s| s.shard).collect();
    for m in manifests {
        if !dead.contains(&m.from_shard) {
            return Err(FleetCheckError::UnjustifiedMigration {
                from_shard: m.from_shard,
                to_shard: m.to_shard,
            });
        }
    }

    let mut jobs_completed = 0usize;
    let mut jobs_pending_at_end = 0usize;
    // Per dead shard: the uncompleted accepted jobs its history leaves
    // behind, to be matched against the manifests.
    let mut leftovers: BTreeMap<usize, BTreeMap<JobId, Job>> = BTreeMap::new();

    for shard in shards {
        let (pending, completed) =
            check_one_shard(shard, manifests, tasks, n_sockets).map_err(|error| {
                FleetCheckError::Shard {
                    shard: shard.shard,
                    error,
                }
            })?;
        jobs_completed += completed;
        jobs_pending_at_end += pending.len();
        if shard.dead {
            leftovers.insert(shard.shard, pending);
        }
    }

    // Conservation: each dead shard's leftovers equal what its
    // manifests moved, matched by (old id, task, payload).
    let mut migrated_jobs = 0usize;
    for m in manifests {
        let left = leftovers.entry(m.from_shard).or_default();
        for mj in &m.moved {
            match left.remove(&mj.old) {
                Some(orig)
                    if orig.task() == mj.job.task() && orig.data() == mj.job.data() =>
                {
                    migrated_jobs += 1;
                }
                _ => {
                    return Err(FleetCheckError::PhantomMigration {
                        from_shard: m.from_shard,
                        job: mj.old,
                    })
                }
            }
        }
    }
    for (shard, left) in &leftovers {
        if !left.is_empty() {
            return Err(FleetCheckError::LostShardJobs {
                shard: *shard,
                jobs: left.keys().copied().collect(),
            });
        }
    }
    // Each manifest's jobs must land in a pending set: its successor
    // segment must exist.
    let lands = |m: &MigrationManifest| {
        shards
            .iter()
            .any(|s| s.shard == m.to_shard && m.at_segment < s.segments.len())
    };
    if let Some(m) = manifests.iter().find(|m| !lands(m)) {
        return Err(FleetCheckError::MigrationToNowhere {
            from_shard: m.from_shard,
            to_shard: m.to_shard,
            at_segment: m.at_segment,
        });
    }

    // Protocol: each segment independently, from the initial state.
    let sts = ProtocolAutomaton::new(n_sockets);
    for shard in shards {
        for (segment, trace) in shard.segments.iter().enumerate() {
            sts.check(trace).map_err(|error| FleetCheckError::Shard {
                shard: shard.shard,
                error: StitchedError::Protocol { segment, error },
            })?;
        }
    }

    Ok(FleetReport {
        shards: shards.len(),
        dead_shards: dead.len(),
        migrations: manifests.len(),
        migrated_jobs,
        jobs_completed,
        jobs_pending_at_end,
    })
}

/// The stitched functional, seam and consumed checks for one shard,
/// with manifest jobs admitted at their migration seams. Returns the
/// shard's unfinished jobs, each with the last payload its history gave
/// it, and the completion count.
fn check_one_shard(
    shard: &ShardHistory<'_>,
    manifests: &[MigrationManifest],
    tasks: &TaskSet,
    n_sockets: usize,
) -> Result<(BTreeMap<JobId, Job>, usize), StitchedError> {
    let mut check = StitchedCheck::new(tasks, n_sockets);
    // The last value each job id carried: its read, its manifest entry,
    // or its dispatch (which a seam voids, or which is still in flight).
    let mut jobs: HashMap<JobId, Job> = HashMap::new();
    for (segment, trace) in shard.segments.iter().enumerate() {
        if segment > 0 {
            check.restart();
        }
        // Migration seam: jobs replayed from a dead shard's journal
        // enter this shard's pending set under their fresh ids.
        let arriving = manifests
            .iter()
            .filter(|m| m.to_shard == shard.shard && m.at_segment == segment);
        for mj in arriving.flat_map(|m| &m.moved) {
            check.admit(&mj.job)?;
            jobs.insert(mj.job.id(), mj.job.clone());
        }
        for (index, marker) in trace.iter().enumerate() {
            if let Some(j) = check.push(index, marker)? {
                jobs.insert(j.id(), j.clone());
            }
        }
    }
    check.check_consumed(shard.consumed)?;
    // A dead shard's in-flight job is voided by the migration replay: it
    // counts among the unfinished leftovers to be moved.
    let unfinished = check
        .unfinished()
        .map(|id| (id, jobs[&id].clone()))
        .collect();
    Ok((unfinished, check.finish().jobs_completed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Duration, Priority, SocketId, Task, TaskId};
    use rossl_trace::{FunctionalError, Marker};

    fn tasks() -> TaskSet {
        TaskSet::new(vec![Task::new(
            TaskId(0),
            "only",
            Priority(5),
            Duration(5),
            Curve::sporadic(Duration(10)),
        )])
        .unwrap()
    }

    fn job(id: u64) -> Job {
        Job::new(JobId(id), TaskId(0), vec![0, id as u8])
    }

    fn read_ok(j: Job) -> Vec<Marker> {
        vec![
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(0),
                job: Some(j),
            },
        ]
    }

    fn read_fail() -> Vec<Marker> {
        vec![
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(0),
                job: None,
            },
        ]
    }

    /// One polling round that accepts `j`, then drains it: poll-success,
    /// poll-fail, select, dispatch, execute, complete.
    fn accept_and_complete(j: Job) -> Vec<Marker> {
        let mut t = read_ok(j.clone());
        t.extend(read_fail());
        t.push(Marker::Selection);
        t.push(Marker::Dispatch(j.clone()));
        t.push(Marker::Execution(j.clone()));
        t.push(Marker::Completion(j));
        t
    }

    /// A trace that accepts `j` and dies before dispatching it.
    fn accept_and_die(j: Job) -> Vec<Marker> {
        let mut t = read_ok(j);
        t.extend(read_fail());
        t.push(Marker::Selection);
        t
    }

    /// The history of `shard`, borrowing `segments` and `consumed`.
    fn history<'a>(
        shard: usize,
        segments: &'a [Vec<Marker>],
        consumed: &'a [usize],
        dead: bool,
    ) -> ShardHistory<'a> {
        ShardHistory {
            shard,
            segments: segments.iter().map(Vec::as_slice).collect(),
            consumed,
            dead,
        }
    }

    #[test]
    fn migration_reconciles_dead_shard_leftovers() {
        // Shard 0 accepts job 7 and dies; shard 1 receives it as its
        // own job 100 and completes it.
        let moved = Job::new(JobId(100), TaskId(0), vec![0, 7]);
        let dead = [accept_and_die(job(7))];
        let mut tail = read_fail();
        tail.push(Marker::Selection);
        tail.push(Marker::Dispatch(moved.clone()));
        tail.push(Marker::Execution(moved.clone()));
        tail.push(Marker::Completion(moved.clone()));
        let live = [accept_and_complete(job(0)), tail];
        let shards = [
            history(0, &dead, &[1], true),
            history(1, &live, &[1], false),
        ];
        let manifests = [MigrationManifest {
            from_shard: 0,
            to_shard: 1,
            at_segment: 1,
            moved: vec![MigratedJob {
                old: JobId(7),
                job: moved,
            }],
        }];
        let report = check_fleet(&shards, &manifests, &tasks(), 1).expect("fleet checks");
        assert_eq!(report.shards, 2);
        assert_eq!(report.dead_shards, 1);
        assert_eq!(report.migrations, 1);
        assert_eq!(report.migrated_jobs, 1);
        assert_eq!(report.jobs_completed, 2);
        // The dead shard's leftover is accounted for by the migration.
        assert_eq!(report.jobs_pending_at_end, 1);
    }

    #[test]
    fn dropped_failover_is_lost_shard_jobs() {
        // Shard 0 dies with job 7 pending and nothing is migrated.
        let dead = [accept_and_die(job(7))];
        let live = [accept_and_complete(job(0))];
        let shards = [
            history(0, &dead, &[1], true),
            history(1, &live, &[1], false),
        ];
        let err = check_fleet(&shards, &[], &tasks(), 1).unwrap_err();
        assert_eq!(
            err,
            FleetCheckError::LostShardJobs {
                shard: 0,
                jobs: vec![JobId(7)],
            }
        );
    }

    #[test]
    fn migration_from_live_shard_is_unjustified() {
        let live = [accept_and_complete(job(0))];
        let shards = [history(0, &live, &[1], false)];
        let manifests = [MigrationManifest {
            from_shard: 0,
            to_shard: 1,
            at_segment: 1,
            moved: vec![],
        }];
        let err = check_fleet(&shards, &manifests, &tasks(), 1).unwrap_err();
        assert_eq!(
            err,
            FleetCheckError::UnjustifiedMigration {
                from_shard: 0,
                to_shard: 1,
            }
        );
    }

    #[test]
    fn fabricated_migration_is_phantom() {
        // Shard 0 dies clean (everything completed); the manifest still
        // claims a job moved.
        let dead = [accept_and_complete(job(3))];
        let live = [read_fail()];
        let shards = [
            history(0, &dead, &[1], true),
            history(1, &live, &[0], false),
        ];
        let manifests = [MigrationManifest {
            from_shard: 0,
            to_shard: 1,
            at_segment: 1,
            moved: vec![MigratedJob {
                old: JobId(3),
                job: Job::new(JobId(50), TaskId(0), vec![0, 3]),
            }],
        }];
        let err = check_fleet(&shards, &manifests, &tasks(), 1).unwrap_err();
        assert!(matches!(err, FleetCheckError::PhantomMigration { .. }));
    }

    /// Shard 0 dies with job 7 pending, and a manifest moves it to
    /// segment `at` of shard `to`. Shard 1 runs two segments, the second
    /// one `tail`.
    fn migrate_job_7(
        to: usize,
        at: usize,
        tail: Vec<Marker>,
    ) -> Result<FleetReport, FleetCheckError> {
        let dead = [accept_and_die(job(7))];
        let live = [accept_and_complete(job(0)), tail];
        let shards = [
            history(0, &dead, &[1], true),
            history(1, &live, &[1], false),
        ];
        let manifests = [MigrationManifest {
            from_shard: 0,
            to_shard: to,
            at_segment: at,
            moved: vec![MigratedJob {
                old: JobId(7),
                job: Job::new(JobId(100), TaskId(0), vec![0, 7]),
            }],
        }];
        check_fleet(&shards, &manifests, &tasks(), 1)
    }

    #[test]
    fn migration_into_no_history_is_rejected() {
        let mut idle = read_fail();
        idle.extend([Marker::Selection, Marker::Idling]);
        for (to_shard, at_segment) in [(9, 1), (1, 5)] {
            assert_eq!(
                migrate_job_7(to_shard, at_segment, idle.clone()).unwrap_err(),
                FleetCheckError::MigrationToNowhere {
                    from_shard: 0,
                    to_shard,
                    at_segment,
                }
            );
        }
        // At an existing seam the job is admitted, and still pending when
        // shard 1 idles.
        assert!(matches!(
            migrate_job_7(1, 1, idle).unwrap_err(),
            FleetCheckError::Shard {
                shard: 1,
                error: StitchedError::Functional {
                    segment: 1,
                    error: FunctionalError::IdleWithPendingJobs { index: 3, .. },
                },
            }
        ));
    }

    #[test]
    fn empty_last_segment_still_admits_migrated_jobs() {
        let report = migrate_job_7(1, 1, Vec::new()).expect("fleet checks");
        assert_eq!(report.migrated_jobs, 1);
        // Job 7's leftover on shard 0, and its migrated copy pending on
        // shard 1.
        assert_eq!(report.jobs_pending_at_end, 2);
    }

    #[test]
    fn dispatch_of_unmigrated_job_is_nonpending() {
        // Shard 1 dispatches a job that no manifest delivered: without
        // the manifest layer this is the forged-migration signature.
        let ghost = Job::new(JobId(100), TaskId(0), vec![0, 9]);
        let mut t = read_fail();
        t.push(Marker::Selection);
        t.push(Marker::Dispatch(ghost));
        let live = [t];
        let shards = [history(1, &live, &[0], false)];
        let err = check_fleet(&shards, &[], &tasks(), 1).unwrap_err();
        assert!(matches!(
            err,
            FleetCheckError::Shard {
                shard: 1,
                error: StitchedError::Functional {
                    error: FunctionalError::DispatchOfNonPending { .. },
                    ..
                },
            }
        ));
    }
}
