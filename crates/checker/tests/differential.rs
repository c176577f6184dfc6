//! Differential testing of the exploration accelerators (DESIGN §6).
//!
//! The parallel and deduplicated modes of [`ModelChecker`] promise the
//! *bit-identical* result of the sequential exhaustive walk: the same
//! [`CheckOutcome`] totals on success and the same first counterexample
//! (trace and reason) on failure. This property test drives all modes —
//! sequential, 2 and 8 pool threads, deduplication, and both combined —
//! over randomly generated configurations (task priorities, per-socket
//! message queues, depth bounds, optionally a divergent specification
//! that forces a counterexample, and optionally a mode policy whose HI
//! overruns add branch points) and asserts agreement on every case. A second property does the same for [`CrashSweep`] across
//! thread counts.

use proptest::prelude::*;

use rossl::{ClientConfig, ModePolicy};
use rossl_model::{Criticality, Curve, Duration, MsgData, Priority, Task, TaskId, TaskSet};
use rossl_trace::Marker;
use rossl_verify::{CheckOutcome, CrashSweep, CrashSweepOutcome, ModelChecker};

fn tasks(prio0: u32, prio1: u32) -> TaskSet {
    TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "a",
            Priority(prio0),
            Duration(5),
            Curve::sporadic(Duration(10)),
        ),
        Task::new(
            TaskId(1),
            "b",
            Priority(prio1),
            Duration(5),
            Curve::sporadic(Duration(10)),
        ),
    ])
    .unwrap()
}

/// A LO task and a HI task of the given priorities, whose `C_HI`
/// exceeds its `C_LO` by 7 ticks.
fn mixed_tasks(prio0: u32, prio1: u32) -> TaskSet {
    TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "lo",
            Priority(prio0),
            Duration(5),
            Curve::sporadic(Duration(10)),
        )
        .with_criticality(Criticality::Lo),
        Task::new(
            TaskId(1),
            "hi",
            Priority(prio1),
            Duration(5),
            Curve::sporadic(Duration(10)),
        )
        .with_criticality(Criticality::Hi)
        .with_wcet_hi(Duration(12)),
    ])
    .unwrap()
}

/// A run result with the counterexample flattened to comparable parts.
type Verdict = Result<CheckOutcome, (Vec<Marker>, String)>;

fn verdict(mc: &ModelChecker) -> Verdict {
    mc.check().map_err(|f| (f.trace, f.reason))
}

/// One random scenario: priorities, a possibly-divergent spec, message
/// queues for up to two sockets, a depth bound, and optionally a mode
/// policy.
#[derive(Debug, Clone)]
struct Scenario {
    prios: (u32, u32),
    /// `Some` overrides the spec task set with swapped priorities — on
    /// most draws this forces a counterexample, exercising the
    /// first-failure selection rather than the outcome totals.
    diverge: bool,
    sockets: usize,
    msgs: Vec<Vec<MsgData>>,
    depth: usize,
    /// With a policy the tasks are a LO/HI pair with `C_HI` headroom, so
    /// every `Execute` of the HI task in LO mode is an overrun branch
    /// point.
    policy: Option<ModePolicy>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let queue = proptest::collection::vec((0u8..2).prop_map(|b| vec![b]), 0..4);
    let policy = prop_oneof![
        Just(None),
        Just(Some(ModePolicy::Amc {
            hysteresis_idles: 1
        })),
        Just(Some(ModePolicy::Adaptive {
            hysteresis_idles: 1
        })),
    ];
    (
        (1u32..10, 1u32..10),
        proptest::bool::ANY,
        1usize..=2,
        (queue.clone(), queue),
        12usize..=30,
        policy,
    )
        .prop_map(|(prios, diverge, sockets, (q0, q1), depth, policy)| {
            let mut msgs = vec![q0, q1];
            msgs.truncate(sockets);
            Scenario {
                prios,
                diverge,
                sockets,
                msgs,
                depth,
                policy,
            }
        })
}

fn checker_for(s: &Scenario) -> ModelChecker {
    let set = |prio0, prio1| match s.policy {
        Some(_) => mixed_tasks(prio0, prio1),
        None => tasks(prio0, prio1),
    };
    let config = ClientConfig::new(set(s.prios.0, s.prios.1), s.sockets).unwrap();
    let mut mc = ModelChecker::new(config, s.msgs.clone(), s.depth);
    if s.diverge {
        mc = mc.with_spec_tasks(set(s.prios.1, s.prios.0));
    }
    match s.policy {
        Some(policy) => mc.with_mode_policy(policy),
        None => mc,
    }
}

/// One random crash-sweep scenario: message queues for one or two
/// sockets, a depth bound, a recovery budget, and whether an AMC policy
/// branches on the HI task's overruns.
#[derive(Debug, Clone)]
struct SweepScenario {
    sockets: usize,
    msgs: Vec<Vec<MsgData>>,
    depth: usize,
    budget: usize,
    amc: bool,
}

fn arb_sweep_scenario() -> impl Strategy<Value = SweepScenario> {
    let queue = proptest::collection::vec((0u8..2).prop_map(|b| vec![b]), 0..=3);
    (
        1usize..=2,
        (queue.clone(), queue),
        6usize..=16,
        2usize..=6,
        proptest::bool::ANY,
    )
        .prop_map(|(sockets, (q0, q1), depth, budget, amc)| {
            let mut msgs = vec![q0, q1];
            msgs.truncate(sockets);
            SweepScenario {
                sockets,
                msgs,
                depth,
                budget,
                amc,
            }
        })
}

fn sweep_for(s: &SweepScenario) -> CrashSweep {
    let config = ClientConfig::new(mixed_tasks(1, 9), s.sockets).unwrap();
    let sweep = CrashSweep::new(config, s.msgs.clone(), s.depth).with_recovery_budget(s.budget);
    if s.amc {
        sweep.with_mode_policy(ModePolicy::Amc {
            hysteresis_idles: 1,
        })
    } else {
        sweep
    }
}

/// A sweep result with the counterexample flattened to comparable parts.
type SweepVerdict = Result<CrashSweepOutcome, (usize, Vec<Vec<Marker>>, String)>;

fn sweep_verdict(sweep: &CrashSweep) -> SweepVerdict {
    sweep
        .sweep()
        .map_err(|f| (f.crash_at, f.segments, f.reason))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every accelerated mode agrees with the sequential reference on
    /// randomly drawn scenarios — identical outcome totals when the
    /// scenario passes, identical first counterexample when it fails.
    #[test]
    fn accelerated_modes_match_sequential(s in arb_scenario()) {
        let mc = checker_for(&s);
        let baseline = verdict(&mc);
        for (threads, dedup) in [(1, true), (2, false), (8, false), (2, true), (8, true)] {
            let variant = verdict(&mc.clone().with_threads(threads).with_dedup(dedup));
            prop_assert_eq!(
                &variant, &baseline,
                "mode (threads={}, dedup={}) diverged on {:?}", threads, dedup, s
            );
        }
    }

    /// With deduplication the outcome still reports full-tree totals:
    /// explored plus pruned work must reconstruct them exactly.
    #[test]
    fn dedup_work_accounting_reconstructs_totals(s in arb_scenario()) {
        let mc = checker_for(&s).with_dedup(true);
        if let Ok((outcome, stats)) = mc.check_with_stats() {
            prop_assert_eq!(stats.explored_paths + stats.pruned_paths, outcome.paths, "{:?}", s);
            prop_assert_eq!(stats.explored_steps + stats.pruned_steps, outcome.steps, "{:?}", s);
        }
    }

    /// The sweep on a pool reports what the one-thread sweep reports,
    /// whichever worker walks which parked or donated subtree.
    #[test]
    fn crash_sweeps_match_across_thread_counts(s in arb_sweep_scenario()) {
        let sweep = sweep_for(&s);
        let baseline = sweep_verdict(&sweep);
        for threads in [2, 8] {
            let variant = sweep_verdict(&sweep.clone().with_threads(threads));
            prop_assert_eq!(&variant, &baseline, "{} threads diverged on {:?}", threads, s);
        }
    }
}

/// The canonical seeded-bug fixture (scheduler priorities (1, 9), spec
/// expects (9, 1)): all modes must report the exact counterexample the
/// sequential depth-first walk finds first.
#[test]
fn all_modes_report_the_sequential_counterexample_on_the_seeded_bug() {
    let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
    let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1]]], 40).with_spec_tasks(tasks(9, 1));
    let baseline = mc.check().unwrap_err();
    assert!(baseline.reason.contains("higher-priority"));
    for (threads, dedup) in [(1, true), (2, false), (8, false), (2, true), (8, true)] {
        let failure = mc
            .clone()
            .with_threads(threads)
            .with_dedup(dedup)
            .check()
            .unwrap_err();
        assert_eq!(failure.trace, baseline.trace, "threads={threads} dedup={dedup}");
        assert_eq!(failure.reason, baseline.reason, "threads={threads} dedup={dedup}");
    }
}
