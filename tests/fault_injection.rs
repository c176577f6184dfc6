//! Fault injection: every hypothesis checker of the verification pipeline
//! must detect the fault it guards against. A verification layer that
//! accepts corrupted runs would make the zero-violations headline result
//! meaningless, so each class of defect the paper's proofs rule out is
//! injected here and must be caught.

use refined_prosa::faults::{FaultClass, FaultPlan, FaultSpec};
use refined_prosa::rossl::{DegradedEvent, WatchdogConfig};
use refined_prosa::{SystemBuilder, TimingVerifier, VerificationError};
use rossl_model::{Curve, Duration, Instant, Job, JobId, Priority, TaskId};
use rossl_sockets::ArrivalSequence;
use rossl_timing::{SimulationResult, TimedTrace, WorstCase};
use rossl_trace::Marker;

fn system() -> refined_prosa::RosslSystem {
    SystemBuilder::new()
        .task("low", Priority(1), Duration(30), Curve::sporadic(Duration(1_500)))
        .task("high", Priority(9), Duration(10), Curve::sporadic(Duration(900)))
        .sockets(1)
        .build()
        .unwrap()
}

/// A clean verified baseline run to mutate.
fn clean_run(system: &refined_prosa::RosslSystem) -> (ArrivalSequence, SimulationResult) {
    let arrivals = system.random_workload(11, Instant(15_000));
    let run = system
        .simulate(&arrivals, WorstCase, Instant(25_000))
        .unwrap();
    (arrivals, run)
}

fn verifier(system: &refined_prosa::RosslSystem) -> TimingVerifier {
    system.verifier(Duration(300_000)).unwrap()
}

/// Rebuilds a run with a mutated trace, keeping the job bookkeeping.
fn with_trace(run: &SimulationResult, trace: TimedTrace) -> SimulationResult {
    SimulationResult {
        trace,
        jobs: run.jobs.clone(),
        horizon: run.horizon,
        degradation: run.degradation.clone(),
    }
}

#[test]
fn clean_baseline_verifies() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    let completed = run.completed_count();
    let report = verifier(&s).verify(&arrivals, &run).unwrap();
    assert_eq!(report.bound_violations, 0);
    assert!(completed > 0, "baseline must exercise jobs");
}

#[test]
fn protocol_fault_dropped_marker_is_caught() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    // Drop the first M_Selection: the protocol automaton must object.
    let mut markers = run.trace.markers().to_vec();
    let mut timestamps = run.trace.timestamps().to_vec();
    let idx = markers
        .iter()
        .position(|m| matches!(m, Marker::Selection))
        .expect("run has a selection");
    markers.remove(idx);
    timestamps.remove(idx);
    let mutated = with_trace(&run, TimedTrace::new(markers, timestamps).unwrap());
    assert!(matches!(
        verifier(&s).verify(&arrivals, &mutated),
        Err(VerificationError::Protocol(_))
    ));
}

#[test]
fn functional_fault_idle_with_pending_is_caught() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    // Replace the first dispatch decision with idling while jobs pend.
    let mut markers = run.trace.markers().to_vec();
    let mut timestamps = run.trace.timestamps().to_vec();
    let idx = markers
        .iter()
        .position(|m| matches!(m, Marker::Dispatch(_)))
        .expect("run dispatches");
    // Truncate right before the dispatch and idle instead.
    markers.truncate(idx);
    timestamps.truncate(idx);
    markers.push(Marker::Idling);
    let next = *timestamps.last().unwrap() + Duration(1);
    timestamps.push(next);
    let mutated = with_trace(&run, TimedTrace::new(markers, timestamps).unwrap());
    assert!(matches!(
        verifier(&s).verify(&arrivals, &mutated),
        Err(VerificationError::Functional(_))
    ));
}

#[test]
fn wcet_fault_slow_action_is_caught() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    // Stretch one gap far beyond any WCET by shifting the suffix.
    let markers = run.trace.markers().to_vec();
    let mut timestamps = run.trace.timestamps().to_vec();
    let split = timestamps.len() / 2;
    for t in &mut timestamps[split..] {
        *t = t.saturating_add(Duration(10_000));
    }
    let mutated = with_trace(&run, TimedTrace::new(markers, timestamps).unwrap());
    let err = verifier(&s).verify(&arrivals, &mutated).unwrap_err();
    // The delayed suffix may also break consistency, but WCET compliance
    // is the earlier hypothesis.
    assert!(
        matches!(err, VerificationError::Wcet(_)),
        "unexpected error class: {err}"
    );
}

#[test]
fn consistency_fault_phantom_job_is_caught() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    // Corrupt the payload of a successful read: the positional FIFO
    // matching against the arrival sequence must detect the forgery.
    // (Flipping a failed read into a success is caught even earlier, by
    // the protocol automaton — the polling round's success bit changes.)
    let mut markers = run.trace.markers().to_vec();
    let timestamps = run.trace.timestamps().to_vec();
    let (idx, original) = markers
        .iter()
        .enumerate()
        .find_map(|(i, m)| match m {
            Marker::ReadEnd { job: Some(j), .. } => Some((i, j.clone())),
            _ => None,
        })
        .expect("run has successful reads");
    let mut forged_data = original.data().to_vec();
    forged_data.push(0xFF); // same task byte, different payload
    markers[idx] = Marker::ReadEnd {
        sock: rossl_model::SocketId(0),
        job: Some(Job::new(original.id(), original.task(), forged_data)),
    };
    let mutated = with_trace(&run, TimedTrace::new(markers, timestamps).unwrap());
    let err = verifier(&s).verify(&arrivals, &mutated).unwrap_err();
    assert!(
        matches!(err, VerificationError::Consistency(_)),
        "unexpected error class: {err}"
    );
}

#[test]
fn consistency_fault_ignored_arrival_is_caught() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    // Add an early arrival that the (unchanged) trace never reads: the
    // failed reads after it become dishonest.
    let mut events = arrivals.events().to_vec();
    events.push(rossl_sockets::ArrivalEvent {
        time: Instant(1),
        sock: rossl_model::SocketId(0),
        task: TaskId(1),
        msg: rossl_model::Message::new(vec![1]),
    });
    let arrivals = ArrivalSequence::from_events(events);
    let err = verifier(&s).verify(&arrivals, &run).unwrap_err();
    assert!(
        matches!(
            err,
            VerificationError::Consistency(_) | VerificationError::ArrivalCurve { .. }
        ),
        "unexpected error class: {err}"
    );
}

#[test]
fn curve_fault_burst_is_caught() {
    let s = system();
    let (_, run) = clean_run(&s);
    // A burst of the sporadic(900) task: three arrivals 1 tick apart.
    let events = (0..3)
        .map(|k| rossl_sockets::ArrivalEvent {
            time: Instant(10 + k),
            sock: rossl_model::SocketId(0),
            task: TaskId(1),
            msg: rossl_model::Message::new(vec![1]),
        })
        .collect();
    let arrivals = ArrivalSequence::from_events(events);
    assert!(matches!(
        verifier(&s).verify(&arrivals, &run),
        Err(VerificationError::ArrivalCurve { task: TaskId(1), .. })
    ));
}

#[test]
fn duplicate_job_id_is_caught() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    // Truncate just after a completion, then replay a read of the same
    // job id: Def. 3.2's uniqueness must reject it.
    let mut markers = run.trace.markers().to_vec();
    let mut timestamps = run.trace.timestamps().to_vec();
    let job = markers
        .iter()
        .find_map(|m| match m {
            Marker::Completion(j) => Some(j.clone()),
            _ => None,
        })
        .expect("run completes a job");
    let cut = markers
        .iter()
        .position(|m| matches!(m, Marker::Completion(_)))
        .unwrap()
        + 1;
    markers.truncate(cut);
    timestamps.truncate(cut);
    let mut t = *timestamps.last().unwrap();
    t += Duration(2);
    markers.push(Marker::ReadStart);
    timestamps.push(t);
    t += Duration(2);
    markers.push(Marker::ReadEnd {
        sock: rossl_model::SocketId(0),
        job: Some(Job::new(job.id(), job.task(), job.data().to_vec())),
    });
    timestamps.push(t);
    let mutated = with_trace(&run, TimedTrace::new(markers, timestamps).unwrap());
    let err = verifier(&s).verify(&arrivals, &mutated).unwrap_err();
    assert!(
        matches!(err, VerificationError::Functional(_)),
        "unexpected error class: {err}"
    );
}

#[test]
fn wrong_priority_dispatch_is_caught() {
    // Hand-build a trace where a low-priority job is dispatched while a
    // high-priority job pends — the defect class behind the refuted ROS2
    // analyses the paper cites (§1).
    let s = system();
    let low = Job::new(JobId(0), TaskId(0), vec![0]);
    let high = Job::new(JobId(1), TaskId(1), vec![1]);
    let markers = vec![
        Marker::ReadStart,
        Marker::ReadEnd {
            sock: rossl_model::SocketId(0),
            job: Some(low.clone()),
        },
        Marker::ReadStart,
        Marker::ReadEnd {
            sock: rossl_model::SocketId(0),
            job: Some(high.clone()),
        },
        Marker::ReadStart,
        Marker::ReadEnd {
            sock: rossl_model::SocketId(0),
            job: None,
        },
        Marker::Selection,
        Marker::Dispatch(low), // wrong: high pends
    ];
    let timestamps = (0..markers.len() as u64).map(|k| Instant(2 + 3 * k)).collect();
    let trace = TimedTrace::new(markers, timestamps).unwrap();
    let arrivals = ArrivalSequence::from_events(vec![
        rossl_sockets::ArrivalEvent {
            time: Instant(1),
            sock: rossl_model::SocketId(0),
            task: TaskId(0),
            msg: rossl_model::Message::new(vec![0]),
        },
        rossl_sockets::ArrivalEvent {
            time: Instant(2),
            sock: rossl_model::SocketId(0),
            task: TaskId(1),
            msg: rossl_model::Message::new(vec![1]),
        },
    ]);
    let run = SimulationResult {
        trace,
        jobs: Default::default(),
        horizon: Instant(100),
        degradation: Vec::new(),
    };
    assert!(matches!(
        verifier(&s).verify(&arrivals, &run),
        Err(VerificationError::Functional(_))
    ));
}

// ---------------------------------------------------------------------------
// Hypothesis order: when a run breaks several hypotheses, `verify` reports
// the first one in the order of Thm. 5.1 (curves, protocol, functional,
// WCET, consistency, conversion, validity), wherever in the trace each
// violation lies.
// ---------------------------------------------------------------------------

/// Delays every marker after `index` by far more than any WCET: the
/// action spanning `index → index + 1` overruns.
fn delay_after(trace: &TimedTrace, index: usize) -> TimedTrace {
    let mut timestamps = trace.timestamps().to_vec();
    for t in &mut timestamps[index + 1..] {
        *t = t.saturating_add(Duration(10_000));
    }
    TimedTrace::new(trace.markers().to_vec(), timestamps).unwrap()
}

/// The start index of the first WCET overrun `trace` exhibits.
fn overrun_start(s: &refined_prosa::RosslSystem, trace: &TimedTrace) -> usize {
    match rossl_timing::check_wcet_compliance(trace, s.tasks(), s.wcet(), s.n_sockets()) {
        Err(rossl_timing::WcetViolation::ActionOverrun { span, .. }) => span.start,
        other => panic!("expected an overrun, got {other:?}"),
    }
}

/// The clean run with an overrun at marker 10 and, far later, its last
/// decision's `M_Selection` dropped.
fn early_overrun_late_protocol_break(
    s: &refined_prosa::RosslSystem,
    run: &SimulationResult,
) -> (TimedTrace, usize) {
    let delayed = delay_after(&run.trace, 10);
    assert!(overrun_start(s, &delayed) <= 10);
    let mut markers = delayed.markers().to_vec();
    let mut timestamps = delayed.timestamps().to_vec();
    let dropped = markers[..markers.len() - 1]
        .iter()
        .rposition(|m| matches!(m, Marker::Selection))
        .expect("run has a decision");
    assert!(dropped > markers.len() / 2, "the protocol break must be late");
    markers.remove(dropped);
    timestamps.remove(dropped);
    (TimedTrace::new(markers, timestamps).unwrap(), dropped)
}

#[test]
fn protocol_beats_an_earlier_wcet_overrun() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    let (trace, dropped) = early_overrun_late_protocol_break(&s, &run);
    match verifier(&s).verify(&arrivals, &with_trace(&run, trace)) {
        Err(VerificationError::Protocol(e)) => assert_eq!(e.index, dropped),
        other => panic!("expected a protocol violation, got {other:?}"),
    }
}

#[test]
fn standalone_wcet_check_reports_a_later_protocol_break_first() {
    let s = system();
    let (_, run) = clean_run(&s);
    let (trace, dropped) = early_overrun_late_protocol_break(&s, &run);
    match rossl_timing::check_wcet_compliance(&trace, s.tasks(), s.wcet(), s.n_sockets()) {
        Err(rossl_timing::WcetViolation::Protocol(e)) => assert_eq!(e.index, dropped),
        other => panic!("expected a protocol violation, got {other:?}"),
    }
}

#[test]
fn wcet_beats_an_earlier_dishonest_failed_read() {
    let s = system();
    let (arrivals, run) = clean_run(&s);
    // An extra `low` arrival (sporadic(1500)) that the unchanged trace
    // never reads, placed where the curve still holds: the next failed
    // read of socket 0 becomes dishonest.
    let (arrivals, dishonest) = (1..245u64)
        .find_map(|k| {
            let mut events = arrivals.events().to_vec();
            events.push(rossl_sockets::ArrivalEvent {
                time: Instant(100 * k),
                sock: rossl_model::SocketId(0),
                task: TaskId(0),
                msg: rossl_model::Message::new(vec![0]),
            });
            let extended = ArrivalSequence::from_events(events);
            extended.check_respects_curves(s.tasks()).ok()?;
            match rossl_timing::check_consistency(&run.trace, &extended) {
                Err(rossl_timing::ConsistencyError::DishonestFailedRead { index, .. }) => {
                    Some((extended, index))
                }
                _ => None,
            }
        })
        .expect("some idle instant admits an extra arrival");
    let late = run.trace.len() - 20;
    assert!(dishonest < late, "the dishonest read must come first");
    let trace = delay_after(&run.trace, late);
    assert!(overrun_start(&s, &trace) > dishonest);
    let err = verifier(&s)
        .verify(&arrivals, &with_trace(&run, trace))
        .unwrap_err();
    assert!(
        matches!(err, VerificationError::Wcet(_)),
        "unexpected error class: {err}"
    );
}

#[test]
fn functional_beats_an_earlier_wcet_overrun() {
    // The wrong-priority trace of `wrong_priority_dispatch_is_caught`,
    // with its first read stretched past WcetSR.
    let s = system();
    let low = Job::new(JobId(0), TaskId(0), vec![0]);
    let high = Job::new(JobId(1), TaskId(1), vec![1]);
    let markers = vec![
        Marker::ReadStart,
        Marker::ReadEnd {
            sock: rossl_model::SocketId(0),
            job: Some(low.clone()),
        },
        Marker::ReadStart,
        Marker::ReadEnd {
            sock: rossl_model::SocketId(0),
            job: Some(high),
        },
        Marker::ReadStart,
        Marker::ReadEnd {
            sock: rossl_model::SocketId(0),
            job: None,
        },
        Marker::Selection,
        Marker::Dispatch(low.clone()),
        Marker::Execution(low.clone()),
        Marker::Completion(low),
    ];
    let timestamps = (0..markers.len() as u64)
        .map(|k| Instant(2 + 3 * k + if k >= 2 { 50 } else { 0 }))
        .collect();
    let trace = TimedTrace::new(markers, timestamps).unwrap();
    assert_eq!(overrun_start(&s, &trace), 0);
    let arrivals = ArrivalSequence::from_events(vec![
        rossl_sockets::ArrivalEvent {
            time: Instant(1),
            sock: rossl_model::SocketId(0),
            task: TaskId(0),
            msg: rossl_model::Message::new(vec![0]),
        },
        rossl_sockets::ArrivalEvent {
            time: Instant(2),
            sock: rossl_model::SocketId(0),
            task: TaskId(1),
            msg: rossl_model::Message::new(vec![1]),
        },
    ]);
    let run = SimulationResult {
        trace,
        jobs: Default::default(),
        horizon: Instant(200),
        degradation: Vec::new(),
    };
    match verifier(&s).verify(&arrivals, &run) {
        Err(VerificationError::Functional(e)) => assert_eq!(
            e,
            rossl_trace::FunctionalError::DispatchNotHighestPriority {
                index: 7,
                dispatched: JobId(0),
                better: JobId(1),
            }
        ),
        other => panic!("expected a functional violation, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Environment-level fault injection: instead of mutating traces by hand, the
// environment itself misbehaves (via `FaultySocketSet` / `FaultyCostModel`)
// and the honest scheduler runs on top of it. The checkers must still expose
// every out-of-model fault, and in-model perturbations must stay sound.
// ---------------------------------------------------------------------------

/// Runs the system through a fault plan and verifies the claimed sequence.
fn faulty_verdict(
    s: &refined_prosa::RosslSystem,
    plan: &FaultPlan,
) -> (usize, Result<usize, VerificationError>) {
    let arrivals = s.random_workload(11, Instant(15_000));
    let run = s
        .simulate_faulty(&arrivals, WorstCase, plan, None, Instant(25_000))
        .unwrap();
    let claimed = run.claimed(plan, &arrivals);
    let verdict = verifier(s)
        .verify(claimed, &run.result)
        .map(|report| report.bound_violations);
    (run.injections.len(), verdict)
}

#[test]
fn env_dropped_datagrams_are_caught_by_consistency() {
    let s = system();
    let plan = FaultPlan::single(7, FaultClass::Drop, 1000);
    let (injections, verdict) = faulty_verdict(&s, &plan);
    assert!(injections > 0, "the plan must actually drop something");
    assert!(
        matches!(verdict, Err(VerificationError::Consistency(_))),
        "unexpected verdict: {verdict:?}"
    );
}

#[test]
fn env_duplicated_datagrams_are_caught_by_consistency() {
    let s = system();
    let plan = FaultPlan::single(7, FaultClass::Duplicate, 1000);
    let (injections, verdict) = faulty_verdict(&s, &plan);
    assert!(injections > 0);
    assert!(
        matches!(verdict, Err(VerificationError::Consistency(_))),
        "unexpected verdict: {verdict:?}"
    );
}

#[test]
fn env_burst_amplification_is_caught_by_arrival_curve() {
    let s = system();
    let plan = FaultPlan::single(7, FaultClass::Burst { factor: 3 }, 1000);
    let (injections, verdict) = faulty_verdict(&s, &plan);
    assert!(injections > 0);
    assert!(
        matches!(verdict, Err(VerificationError::ArrivalCurve { .. })),
        "unexpected verdict: {verdict:?}"
    );
}

#[test]
fn env_delayed_visibility_is_caught_by_consistency() {
    let s = system();
    let plan = FaultPlan::single(
        7,
        FaultClass::DelayedVisibility {
            delay: Duration(300),
        },
        1000,
    );
    let (injections, verdict) = faulty_verdict(&s, &plan);
    assert!(injections > 0);
    assert!(
        matches!(verdict, Err(VerificationError::Consistency(_))),
        "unexpected verdict: {verdict:?}"
    );
}

#[test]
fn env_wcet_overrun_is_caught_in_unclamped_mode() {
    let s = system();
    let plan = FaultPlan::single(7, FaultClass::WcetOverrun { factor: 5 }, 1000);
    let (injections, verdict) = faulty_verdict(&s, &plan);
    assert!(injections > 0);
    assert!(
        matches!(
            verdict,
            Err(VerificationError::Wcet(_)) | Err(VerificationError::Validity(_))
        ),
        "unexpected verdict: {verdict:?}"
    );
}

#[test]
fn env_in_model_perturbations_verify_with_zero_violations() {
    let s = system();
    for class in [
        FaultClass::UniformDelay {
            shift: Duration(200),
        },
        FaultClass::ExecutionSlack { divisor: 3 },
    ] {
        let plan = FaultPlan::single(7, class, 1000);
        let (injections, verdict) = faulty_verdict(&s, &plan);
        assert!(injections > 0, "{class}: nothing perturbed");
        assert_eq!(
            verdict.as_ref().ok(),
            Some(&0),
            "{class}: in-model perturbation must stay sound, got {verdict:?}"
        );
    }
}

#[test]
fn env_empty_plan_is_equivalent_to_the_honest_environment() {
    let s = system();
    let arrivals = s.random_workload(11, Instant(15_000));
    let honest = s.simulate(&arrivals, WorstCase, Instant(25_000)).unwrap();
    let faulty = s
        .simulate_faulty(
            &arrivals,
            WorstCase,
            &FaultPlan::empty(99),
            None,
            Instant(25_000),
        )
        .unwrap();
    assert!(faulty.injections.is_empty());
    assert_eq!(faulty.delivered, arrivals);
    assert_eq!(faulty.result.trace.markers(), honest.trace.markers());
    assert_eq!(faulty.result.trace.timestamps(), honest.trace.timestamps());
}

#[test]
fn watchdog_sheds_under_combined_overrun_and_burst_without_panicking() {
    let s = system();
    let arrivals = s.random_workload(11, Instant(15_000));
    let plan = FaultPlan::single(7, FaultClass::WcetOverrun { factor: 6 }, 1000)
        .with(FaultSpec::at_rate(FaultClass::Burst { factor: 4 }, 800));
    let run = s
        .simulate_faulty(
            &arrivals,
            WorstCase,
            &plan,
            Some(WatchdogConfig::new(1)),
            Instant(25_000),
        )
        .unwrap();
    let overruns = run
        .result
        .degradation
        .iter()
        .filter(|e| matches!(e, DegradedEvent::WcetOverrun { .. }))
        .count();
    let shed = run
        .result
        .degradation
        .iter()
        .filter(|e| matches!(e, DegradedEvent::JobShed { .. }))
        .count();
    let recovered = run
        .result
        .degradation
        .iter()
        .filter(|e| matches!(e, DegradedEvent::Recovered))
        .count();
    assert!(overruns > 0, "sustained overruns must trip the watchdog");
    assert!(shed > 0, "the overfull queue must be shed, not grown");
    assert!(recovered > 0, "the scheduler must return to nominal mode");
    assert!(
        run.result.completed_count() > 0,
        "degraded mode must still make progress"
    );
}
