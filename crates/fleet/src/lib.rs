//! `rossl-fleet` — a fault-tolerant fleet of Rössl scheduler shards
//! (DESIGN §10).
//!
//! The paper's verification story covers one interrupt-free scheduler;
//! this crate asks what survives when that scheduler becomes a *shard*
//! in a replicated deployment that loses machines. Three pieces:
//!
//! * **[`Shard`]** — one verified [`rossl::Scheduler`] with its
//!   journal, socket set and supervisor, stepped on a shard-local
//!   clock that charges the same per-marker costs as the timing
//!   analysis.
//! * **[`Router`]** — consistent-hash placement ([`HashRing`]) with
//!   per-request deadlines, seed-deterministic retry with exponential
//!   backoff and jitter (reusing the supervisor's
//!   [`rossl::RestartPolicy`]), a per-shard [`CircuitBreaker`], and
//!   backpressure that sheds low-criticality traffic first.
//! * **[`Fleet`]** — the fleet supervisor: health checks, crash /
//!   hang / partition discrimination, and **failover by journal-replay
//!   migration**: a dead shard's committed journal is replayed into a
//!   successor exactly as [`rossl::Scheduler::recovered`] would after
//!   a crash, but across the shard boundary, under fresh job ids, with
//!   a [`rossl_verify::MigrationManifest`] left behind for the
//!   cross-shard checker.
//!
//! Verification is two-sided, like everywhere else in this repo: the
//! chaos campaign (experiment E22) drives thousands of seeded
//! kill/pause/partition schedules through [`Fleet::run`] and asserts
//! (a) no accepted payload is ever silently lost, (b) per-shard Prosa
//! bounds hold on every in-model shard even mid-failover, and (c)
//! every failover is justified by an injected fault; and the seeded
//! [`rossl::SeededBug::DroppedFailover`] mutation proves those oracles
//! have teeth.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod breaker;
mod fleet;
mod ring;
mod router;
mod shard;
mod tracing;

pub use breaker::{BreakerState, BreakerTransition, CircuitBreaker};
pub use fleet::{
    payload, seq_of, FailoverCause, FailoverRecord, Fleet, FleetConfig, FleetOutcome, JobResponse,
    Workload,
};
pub use ring::{splitmix64, HashRing, VNODES};
pub use router::{
    Delivery, FailReason, ProcessResult, RetryCause, RouteEvent, Router, RouterPolicy,
    ShardStatus,
};
pub use shard::{Shard, ShardEvent};

#[cfg(test)]
mod tests {
    use super::*;
    use refined_prosa::{RosslSystem, SystemBuilder};
    use rossl_faults::{FaultClass, FaultPlan, FaultSpec};
    use rossl_model::{Curve, Duration, Priority};

    fn system(n_tasks: usize) -> RosslSystem {
        let mut b = SystemBuilder::new();
        for i in 0..n_tasks {
            b = b.task(
                format!("t{i}"),
                Priority(10 + i as u32),
                Duration(2),
                // Shard-local clocks advance at least one tick per
                // fleet tick, so a 400-fleet-tick submission gap safely
                // respects a 300-tick sporadic curve — the smallest
                // period at which the response-time analysis converges
                // for three such tasks.
                Curve::sporadic(Duration(300)),
            );
        }
        b.sockets(n_tasks).build().expect("fleet test system")
    }

    fn workload() -> Workload {
        Workload { jobs_per_key: 4, gap_ticks: 400 }
    }

    #[test]
    fn quiet_fleet_completes_every_submission() {
        let sys = system(3);
        let mut fleet = Fleet::new(&sys, FleetConfig::default()).unwrap();
        let out = fleet.run(workload(), &FaultPlan::empty(3));
        assert_eq!(out.completed, out.submissions, "all 12 submissions complete");
        assert!(out.lost.is_empty());
        assert!(out.failovers.is_empty());
        assert!(out.fleet_check.is_ok(), "{:?}", out.fleet_check);
        assert_eq!(out.bound_violations, 0);
        assert_eq!(out.compliant_shards, 3);
    }

    #[test]
    fn shard_kill_fails_over_without_losing_accepted_work() {
        let sys = system(3);
        let mut fleet = Fleet::new(&sys, FleetConfig::default()).unwrap();
        let plan = FaultPlan::empty(7)
            .with(FaultSpec::always(FaultClass::ShardKill { shard: 1, at_tick: 30 }));
        let out = fleet.run(workload(), &plan);
        assert!(out.lost.is_empty(), "lost: {:?}", out.lost);
        assert_eq!(out.failovers.len(), 1);
        assert_eq!(out.failovers[0].dead, 1);
        assert_eq!(out.failovers[0].cause, FailoverCause::Kill);
        assert!(out.unjustified_failovers.is_empty());
        let report = out.fleet_check.expect("cross-shard check passes");
        assert_eq!(report.dead_shards, 1);
        assert_eq!(report.migrations, usize::from(out.failovers[0].migrated_jobs > 0));
    }

    #[test]
    fn long_pause_is_fenced_as_hang_and_short_pause_is_not() {
        let sys = system(3);
        let cfg = FleetConfig::default();
        let long = FaultPlan::empty(9).with(FaultSpec::always(FaultClass::ShardPause {
            shard: 0,
            at_tick: 25,
            for_ticks: 200,
        }));
        let mut fleet = Fleet::new(&sys, cfg.clone()).unwrap();
        let out = fleet.run(workload(), &long);
        assert_eq!(out.failovers.len(), 1);
        assert_eq!(out.failovers[0].cause, FailoverCause::Hang);
        assert!(out.unjustified_failovers.is_empty());
        assert!(out.lost.is_empty(), "lost: {:?}", out.lost);

        let short = FaultPlan::empty(9).with(FaultSpec::always(FaultClass::ShardPause {
            shard: 0,
            at_tick: 25,
            for_ticks: 3,
        }));
        let mut fleet = Fleet::new(&sys, cfg).unwrap();
        let out = fleet.run(workload(), &short);
        assert!(out.failovers.is_empty(), "short pause must not fail over");
        assert_eq!(out.completed, out.submissions);
    }

    #[test]
    fn partition_never_causes_failover() {
        let sys = system(3);
        let mut fleet = Fleet::new(&sys, FleetConfig::default()).unwrap();
        let plan = FaultPlan::empty(5).with(FaultSpec::always(FaultClass::Partition {
            shard: 2,
            at_tick: 10,
            for_ticks: 60,
        }));
        let out = fleet.run(workload(), &plan);
        assert!(out.failovers.is_empty(), "partitions are routed around, not fenced");
        assert!(out.lost.is_empty());
        assert!(out.fleet_check.is_ok());
    }

    #[test]
    fn dropped_failover_bug_is_caught_by_the_oracles() {
        let sys = system(3);
        // Probe a fault-free run for the first delivery, then kill that
        // shard one tick later so it provably dies with work in flight.
        let mut probe = Fleet::new(&sys, FleetConfig::default()).unwrap();
        probe.run(workload(), &FaultPlan::empty(7));
        let (tick, shard) = probe
            .routing_trace()
            .lines()
            .find_map(|line| {
                let (tick, rest) = line.split_once(" deliver ")?;
                let shard = rest.split_once("shard=s")?.1.split_whitespace().next()?;
                Some((tick.parse::<u64>().ok()?, shard.parse::<usize>().ok()?))
            })
            .expect("a fault-free run delivers at least one payload");
        let plan = FaultPlan::empty(7)
            .with(FaultSpec::always(FaultClass::ShardKill { shard, at_tick: tick + 1 }));

        // With the seeded bug, the stranded work must be detected.
        let mut buggy = Fleet::new(&sys, FleetConfig::default())
            .unwrap()
            .with_seeded_bug(rossl::SeededBug::DroppedFailover);
        let out = buggy.run(workload(), &plan);
        let check_caught =
            matches!(out.fleet_check, Err(rossl_verify::FleetCheckError::LostShardJobs { .. }));
        assert!(
            !out.lost.is_empty() || check_caught,
            "dropped failover must be detected by accounting or the checker"
        );

        // The identical kill schedule without the bug loses nothing.
        let mut fixed = Fleet::new(&sys, FleetConfig::default()).unwrap();
        let out = fixed.run(workload(), &plan);
        assert!(out.lost.is_empty(), "lost: {:?}", out.lost);
        assert!(out.fleet_check.is_ok(), "{:?}", out.fleet_check);
    }

    #[test]
    fn traced_run_is_wellformed_and_attribution_is_tick_exact() {
        use rossl_obs::{attribute, check_trace, TraceCollector};
        use std::sync::Arc;

        let sys = system(3);
        let collector = Arc::new(TraceCollector::new(1 << 15));
        let mut fleet = Fleet::new(&sys, FleetConfig::default())
            .unwrap()
            .with_tracer(Arc::clone(&collector));
        let out = fleet.run(workload(), &FaultPlan::empty(3));
        assert_eq!(out.completed, out.submissions);
        assert_eq!(out.responses.len(), out.completed as usize);

        let spans = collector.drain();
        assert_eq!(collector.displaced(), 0, "capacity generous enough for a quiet run");
        let check = check_trace(&spans, 0);
        assert!(check.defects.is_empty(), "defects: {:?}", check.defects);

        let report = attribute(&spans);
        assert!(report.skipped == 0, "no truncation in a quiet run");
        assert_eq!(report.jobs.len(), out.responses.len());
        for r in &out.responses {
            let job = report
                .jobs
                .iter()
                .find(|j| j.seq == r.seq)
                .unwrap_or_else(|| panic!("no attribution for seq {}", r.seq));
            assert_eq!(job.observed, r.response, "seq {} observed rt", r.seq);
            assert_eq!(
                job.attributed_total(),
                job.observed,
                "seq {} terms must sum exactly: {job:?}",
                r.seq
            );
            assert_eq!(job.task, r.task);
            assert_eq!(job.shard, r.shard);
            assert_eq!(job.migration, 0, "fault-free run migrates nothing");
        }
    }

    #[test]
    fn traced_failover_links_the_migration_seam() {
        use rossl_obs::{attribute, check_trace, SpanKind, TraceCollector};
        use std::sync::Arc;

        let sys = system(3);
        let collector = Arc::new(TraceCollector::new(1 << 15));
        let mut fleet = Fleet::new(&sys, FleetConfig::default())
            .unwrap()
            .with_tracer(Arc::clone(&collector));
        let plan = FaultPlan::empty(7)
            .with(FaultSpec::always(FaultClass::ShardKill { shard: 1, at_tick: 30 }));
        let out = fleet.run(workload(), &plan);
        assert_eq!(out.failovers.len(), 1);
        assert!(out.lost.is_empty());

        let spans = collector.drain();
        let check = check_trace(&spans, collector.displaced());
        assert!(check.defects.is_empty(), "defects: {:?}", check.defects);

        let migrated = out.failovers[0].migrated_jobs;
        let seam: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Enqueue && s.arg("migration_latency").is_some())
            .collect();
        assert_eq!(seam.len(), migrated, "one seam enqueue per migrated job");
        for s in &seam {
            assert!(s.is_empty(), "seam enqueue is zero-length");
            assert!(s.link.is_some(), "seam enqueue links the dead shard's span");
        }
        if migrated > 0 {
            let report = attribute(&spans);
            let with_migration = report.jobs.iter().filter(|j| j.migration > 0).count();
            assert!(with_migration > 0, "migrated jobs carry a migration term");
        }
    }

    #[test]
    fn tracing_changes_no_outcome_and_no_routing_decision() {
        use rossl_obs::TraceCollector;
        use std::sync::Arc;

        let sys = system(3);
        let plan = FaultPlan::empty(7)
            .with(FaultSpec::always(FaultClass::ShardKill { shard: 1, at_tick: 30 }));
        let mut plain = Fleet::new(&sys, FleetConfig::default()).unwrap();
        let plain_out = plain.run(workload(), &plan);
        let collector = Arc::new(TraceCollector::new(1 << 15));
        let mut traced = Fleet::new(&sys, FleetConfig::default())
            .unwrap()
            .with_tracer(Arc::clone(&collector));
        let traced_out = traced.run(workload(), &plan);
        assert!(collector.recorded() > 0);
        assert_eq!(format!("{traced_out:?}"), format!("{plain_out:?}"));
        assert_eq!(traced.routing_trace(), plain.routing_trace());
    }

    #[test]
    fn payload_roundtrip() {
        let p = payload(2, 0xDEAD_BEEF);
        assert_eq!(p[0], 2);
        assert_eq!(seq_of(&p), Some(0xDEAD_BEEF));
        assert_eq!(seq_of(&[1]), None);
    }
}
