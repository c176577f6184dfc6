//! Property-based tests of the scheduler state machine: any read script
//! yields a protocol- and functionally-correct trace, and the internal
//! counters agree with the trace-derived definitions.

use proptest::prelude::*;

use rossl::{ClientConfig, Driver, FirstByteCodec, Scheduler, Script};
use rossl_model::{Curve, Duration, Instant, MsgData, Priority, Task, TaskId, TaskSet};
use rossl_trace::{check_functional, pending_jobs, Marker, ProtocolAutomaton, TraceStats};

fn config(n_tasks: usize, n_sockets: usize) -> ClientConfig {
    let tasks = TaskSet::new(
        (0..n_tasks)
            .map(|i| {
                Task::new(
                    TaskId(i),
                    format!("t{i}"),
                    Priority((i * 3 % 7) as u32), // includes priority ties
                    Duration(5),
                    Curve::sporadic(Duration(50)),
                )
            })
            .collect(),
    )
    .unwrap();
    ClientConfig::new(tasks, n_sockets).unwrap()
}

/// Drives the scheduler with a script of read outcomes; executes callbacks
/// immediately. Returns the trace and the final scheduler.
fn drive(
    config: ClientConfig,
    script: Vec<Option<MsgData>>,
) -> (Vec<Marker>, Scheduler<FirstByteCodec>) {
    let mut driver = Driver::new(Scheduler::new(config, FirstByteCodec), Instant::ZERO);
    let steps = Script::new(script).run(&mut driver, usize::MAX);
    let trace = steps.expect("valid driving").into_iter().map(|t| t.marker);
    (trace.collect(), driver.into_scheduler())
}

fn arb_script(n_tasks: usize) -> impl Strategy<Value = Vec<Option<MsgData>>> {
    proptest::collection::vec(
        proptest::option::of((0..n_tasks).prop_map(|t| vec![t as u8])),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every driving script yields a trace accepted by the STS and
    /// satisfying Def. 3.2 — the bounded ∀-scripts version of Thm. 3.4.
    #[test]
    fn all_scripts_yield_valid_traces(
        n_tasks in 1usize..4,
        n_sockets in 1usize..4,
        script in arb_script(3),
    ) {
        let cfg = config(n_tasks.max(3), n_sockets);
        let (trace, _) = drive(cfg.clone(), script);
        ProtocolAutomaton::new(n_sockets).accept(&trace).expect("protocol");
        check_functional(&trace, cfg.tasks()).expect("functional");
    }

    /// Scheduler-internal counters agree with the trace.
    #[test]
    fn counters_match_trace_statistics(
        n_sockets in 1usize..3,
        script in arb_script(2),
    ) {
        let cfg = config(2, n_sockets);
        let (trace, sched) = drive(cfg, script);
        let stats = TraceStats::compute(&trace);
        prop_assert_eq!(sched.jobs_completed() as usize, stats.jobs_completed);
        prop_assert_eq!(
            sched.pending_count(),
            pending_jobs(&trace, trace.len()).len()
        );
    }

    /// Job ids are exactly 0..k for k successful reads, in read order.
    #[test]
    fn job_ids_are_dense_and_ordered(script in arb_script(2)) {
        let cfg = config(2, 1);
        let (trace, _) = drive(cfg, script);
        let ids: Vec<u64> = trace
            .iter()
            .filter_map(|m| match m {
                Marker::ReadEnd { job: Some(j), .. } => Some(j.id().0),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (0..ids.len() as u64).collect();
        prop_assert_eq!(ids, expected);
    }

    /// The scheduler never dispatches more jobs than it has read, and
    /// completes exactly what it dispatches (executions run to completion
    /// under this driver).
    #[test]
    fn dispatch_accounting(script in arb_script(3)) {
        let cfg = config(3, 2);
        let (trace, _) = drive(cfg, script);
        let stats = TraceStats::compute(&trace);
        prop_assert!(stats.jobs_dispatched <= stats.jobs_read);
        prop_assert!(stats.jobs_completed <= stats.jobs_dispatched);
        prop_assert!(stats.jobs_dispatched - stats.jobs_completed <= 1);
    }
}
