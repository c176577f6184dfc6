//! Differential test of `TimingVerifier::verify` against the sequential
//! definition of Thm 5.1's hypotheses.
//!
//! The reference runs the standalone checkers one after another, in the
//! theorem's order, and reports the first failure. `verify` checks every
//! hypothesis in a single pass over the trace, so on a run that breaks
//! several hypotheses at different places it must still report exactly the
//! reference's error. The inputs are the E7 systems' runs, clean and with
//! a seeded scheduler bug that breaks functional correctness, each under
//! seeded combinations of one to three edits: delete a marker, swap two
//! adjacent markers, delay every marker after an index by more than any
//! WCET, and add an arrival (within the curves) that the trace never
//! reads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa::{RosslSystem, VerificationError};
use refined_prosa_bench::setup;
use rossl::{ClientConfig, FirstByteCodec, SeededBug};
use rossl_model::{Duration, Instant, Message, OverheadBounds, SocketId, TaskId};
use rossl_schedule::{check_validity, convert};
use rossl_sockets::{ArrivalEvent, ArrivalSequence};
use rossl_timing::{
    check_consistency, check_wcet_compliance, SimulationResult, Simulator, TimedTrace, UniformCost,
};
use rossl_trace::{check_functional, ProtocolAutomaton};
use rossl_workloads::SplitRng;

const HORIZON: Instant = Instant(12_000);

/// The first hypothesis the standalone checkers reject, in the order of
/// Thm 5.1, or `None` when all hold.
fn sequential(
    system: &RosslSystem,
    arrivals: &ArrivalSequence,
    run: &SimulationResult,
) -> Option<VerificationError> {
    let (tasks, wcet, n) = (system.tasks(), system.wcet(), system.n_sockets());
    let markers = run.trace.markers();
    if let Err((task, violation)) = arrivals.check_respects_curves(tasks) {
        return Some(VerificationError::ArrivalCurve { task, violation });
    }
    if let Some((arrival, e)) = arrivals
        .events()
        .iter()
        .enumerate()
        .find(|(_, e)| tasks.task(e.task).is_none())
    {
        return Some(VerificationError::UnknownArrivalTask {
            arrival,
            task: e.task,
        });
    }
    if let Err(e) = ProtocolAutomaton::new(n).accept(markers) {
        return Some(VerificationError::Protocol(e));
    }
    if let Err(e) = check_functional(markers, tasks) {
        return Some(VerificationError::Functional(e));
    }
    if let Err(e) = check_wcet_compliance(&run.trace, tasks, wcet, n) {
        return Some(VerificationError::Wcet(e));
    }
    if let Err(e) = check_consistency(&run.trace, arrivals) {
        return Some(VerificationError::Consistency(e));
    }
    let schedule = match convert(&run.trace, n) {
        Ok(schedule) => schedule,
        Err(e) => return Some(VerificationError::Conversion(e)),
    };
    check_validity(&schedule, tasks, &OverheadBounds::derive(wcet, n))
        .err()
        .map(VerificationError::Validity)
}

/// The longest WCET of any basic action of `system`.
fn longest_wcet(system: &RosslSystem) -> Duration {
    let w = system.wcet();
    system
        .tasks()
        .iter()
        .map(|t| t.wcet())
        .chain([
            w.failed_read,
            w.successful_read,
            w.selection,
            w.dispatch,
            w.completion,
            w.idling,
        ])
        .max()
        .unwrap_or(Duration::ZERO)
}

/// Applies one seeded edit to the trace (as markers and timestamps) or
/// to the arrivals.
fn edit(
    system: &RosslSystem,
    rng: &mut SplitRng,
    markers: &mut Vec<rossl_trace::Marker>,
    timestamps: &mut Vec<Instant>,
    events: &mut Vec<ArrivalEvent>,
) {
    let len = markers.len();
    if len < 2 {
        return;
    }
    // Deletions and swaps nearly always break the protocol, which masks
    // every later hypothesis, so they are drawn less often.
    match rng.below(6) {
        0 => {
            let i = rng.index(len);
            markers.remove(i);
            timestamps.remove(i);
        }
        1 => {
            let i = rng.index(len - 1);
            markers.swap(i, i + 1);
        }
        2 | 3 => {
            let i = rng.index(len - 1);
            let shift = longest_wcet(system) + Duration(1);
            for t in &mut timestamps[i + 1..] {
                *t = t.saturating_add(shift);
            }
        }
        _ => {
            // An arrival the curves admit, if a few tries find one.
            for _ in 0..16 {
                let task = rng.index(system.tasks().len());
                events.push(ArrivalEvent {
                    time: Instant(rng.below(HORIZON.ticks())),
                    sock: SocketId(rng.index(system.n_sockets())),
                    task: TaskId(task),
                    msg: Message::new(vec![task as u8]),
                });
                let extended = ArrivalSequence::from_events(events.clone());
                if extended.check_respects_curves(system.tasks()).is_ok() {
                    return;
                }
                events.pop();
            }
        }
    }
}

/// A run of `system`, honest or with `bug` seeded into its scheduler.
fn simulate(
    system: &RosslSystem,
    arrivals: &ArrivalSequence,
    seed: u64,
    bug: Option<SeededBug>,
) -> SimulationResult {
    let config = ClientConfig::new(system.tasks().clone(), system.n_sockets())
        .expect("E7 systems configure");
    let cost = UniformCost::new(StdRng::seed_from_u64(seed ^ 0xBEEF));
    let mut sim =
        Simulator::new(config, FirstByteCodec, *system.wcet(), cost).expect("E7 systems simulate");
    if let Some(bug) = bug {
        sim = sim.with_seeded_bug(bug);
    }
    sim.run(arrivals, HORIZON)
        .expect("in-model simulation succeeds")
}

#[test]
fn one_pass_verdicts_match_the_sequential_checkers() {
    let bugs = [SeededBug::LostPendingJob, SeededBug::StaleJobId];
    let mut verdicts: Vec<&'static str> = Vec::new();
    for (name, system) in setup::all_systems() {
        let verifier = system
            .verifier(Duration(400_000))
            .expect("E7 systems analyse");
        for seed in 0..4u64 {
            let arrivals = system.randomized_workload(seed, HORIZON);
            for bug in [None, Some(bugs[seed as usize % bugs.len()])] {
                let run = simulate(&system, &arrivals, seed, bug);
                let mut rng = SplitRng::new(seed ^ 0xD1FF);
                for variant in 0..16 {
                    let mut markers = run.trace.markers().to_vec();
                    let mut timestamps = run.trace.timestamps().to_vec();
                    let mut events = arrivals.events().to_vec();
                    for _ in 0..1 + rng.below(3) {
                        edit(
                            &system,
                            &mut rng,
                            &mut markers,
                            &mut timestamps,
                            &mut events,
                        );
                    }
                    let edited = SimulationResult {
                        trace: TimedTrace::new(markers, timestamps).expect("edits keep order"),
                        jobs: run.jobs.clone(),
                        horizon: run.horizon,
                        degradation: run.degradation.clone(),
                    };
                    let claimed = ArrivalSequence::from_events(events);
                    let expected = sequential(&system, &claimed, &edited);
                    let actual = verifier.verify(&claimed, &edited).err();
                    assert_eq!(
                        format!("{actual:?}"),
                        format!("{expected:?}"),
                        "{name} seed {seed} bug {bug:?} variant {variant}"
                    );
                    verdicts.push(expected.as_ref().map_or("ok", |e| e.checker_name()));
                }
            }
        }
    }
    // The variants must exercise every hypothesis the edits and bugs can
    // break, so that the order between them is actually tested.
    for kind in ["protocol", "functional", "wcet", "consistency"] {
        assert!(verdicts.contains(&kind), "no variant failed {kind}");
    }
}
