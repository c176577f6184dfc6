//! Thm. 5.1 ("timing correctness") as an executable verifier.
//!
//! The theorem: for a Rössl client with valid arrival curves, WCETs and a
//! run whose timed trace respects the WCET assumptions and is consistent
//! with an arrival sequence bounded by the curves, every job of task `τ_i`
//! that arrives at `t_arr` with `t_arr + R_i + J_i < t_hrzn` has a
//! completion marker with timestamp `≤ t_arr + R_i + J_i`.
//!
//! [`TimingVerifier::verify`] checks, in order:
//!
//! 1. the arrival sequence respects the arrival curves (Eq. 2);
//! 2. the trace satisfies the scheduler protocol (Def. 3.1);
//! 3. the trace is functionally correct (Def. 3.2);
//! 4. every basic action respects its WCET (§2.3);
//! 5. the timed trace is consistent with the arrivals (Def. 2.1);
//! 6. the converted schedule satisfies the validity constraints (§2.4);
//! 7. **the conclusion**: every sufficiently-early arrival completes
//!    within `R_i + J_i`.
//!
//! Steps 1–6 are the theorem's *hypotheses*: a failure there means the run
//! is outside the theorem's scope (and is reported as a
//! [`VerificationError`]). Bound violations in step 7 — which the paper
//! proves impossible — are collected in the [`VerificationReport`]; the
//! headline experiment (E7) demonstrates the count stays zero across
//! millions of simulated jobs.
//!
//! Steps 2–7 share one pass over the trace (DESIGN §3.1): the protocol
//! cursor hands each closed basic action, its job borrowed from the trace,
//! to the WCET check and the schedule converter; the converter's merged
//! segments feed the validity check; the functional and consistency checks
//! step over the same markers. Each check keeps its first violation in
//! trace order, and the pass reports the first failed hypothesis in the
//! order above.

use std::collections::BTreeMap;
use std::fmt;

use prosa::{analyse, AnalysisParams, AnalysisResult, RtaError};
use rossl_model::{CurveViolation, Duration, Instant, JobId, OverheadBounds, TaskId};
use rossl_schedule::{ConversionError, Converter, ValidityCheck, ValidityError};
use rossl_sockets::ArrivalSequence;
use rossl_timing::{
    check_action_wcet, ConsistencyCheck, ConsistencyError, SimulationResult, WcetViolation,
};
use rossl_trace::{FunctionalCheck, FunctionalError, Marker, ProtocolAutomaton, ProtocolError};

/// A hypothesis of Thm. 5.1 failed to hold for the run under scrutiny.
#[derive(Debug)]
pub enum VerificationError {
    /// The arrival sequence exceeds a task's arrival curve.
    ArrivalCurve {
        /// The offending task.
        task: TaskId,
        /// The witnessing window.
        violation: CurveViolation,
    },
    /// An arrival is tagged with a task outside the task set, so no curve
    /// bounds it and no response-time bound covers it.
    UnknownArrivalTask {
        /// Index of the arrival in the arrival sequence.
        arrival: usize,
        /// The unknown task.
        task: TaskId,
    },
    /// The trace violates the scheduler protocol (Def. 3.1).
    Protocol(ProtocolError),
    /// The trace violates functional correctness (Def. 3.2).
    Functional(FunctionalError),
    /// A basic action exceeded its WCET (§2.3).
    Wcet(WcetViolation),
    /// The timed trace is inconsistent with the arrivals (Def. 2.1).
    Consistency(ConsistencyError),
    /// The trace could not be converted to a schedule.
    Conversion(ConversionError),
    /// The schedule violates a validity constraint (§2.4).
    Validity(ValidityError),
    /// The analysis itself failed (unschedulable parameters).
    Analysis(RtaError),
}

impl fmt::Display for VerificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationError::ArrivalCurve { task, violation } => {
                write!(f, "arrival curve of {task} violated: {violation}")
            }
            VerificationError::UnknownArrivalTask { arrival, task } => {
                write!(
                    f,
                    "arrival {arrival} is tagged with {task}, which is not in the task set"
                )
            }
            VerificationError::Protocol(e) => write!(f, "{e}"),
            VerificationError::Functional(e) => write!(f, "functional correctness: {e}"),
            VerificationError::Wcet(e) => write!(f, "wcet assumption: {e}"),
            VerificationError::Consistency(e) => write!(f, "arrival consistency: {e}"),
            VerificationError::Conversion(e) => write!(f, "{e}"),
            VerificationError::Validity(e) => write!(f, "schedule validity: {e}"),
            VerificationError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl VerificationError {
    /// The short name of the hypothesis checker that raised the error —
    /// the detector column of the fault-detection matrix (experiment
    /// E16). Stable across releases; fault campaigns key on it.
    pub fn checker_name(&self) -> &'static str {
        match self {
            VerificationError::ArrivalCurve { .. } => "arrival-curve",
            VerificationError::UnknownArrivalTask { .. } => "arrival-task",
            VerificationError::Protocol(_) => "protocol",
            VerificationError::Functional(_) => "functional",
            VerificationError::Wcet(_) => "wcet",
            VerificationError::Consistency(_) => "consistency",
            VerificationError::Conversion(_) => "conversion",
            VerificationError::Validity(_) => "validity",
            VerificationError::Analysis(_) => "analysis",
        }
    }
}

impl std::error::Error for VerificationError {}

/// A job that outlived its analytical bound — the event Thm. 5.1 proves
/// cannot happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundViolation {
    /// The job (if it was ever read; `None` means the arrival was never
    /// read although its deadline passed within the horizon).
    pub job: Option<JobId>,
    /// The job's task.
    pub task: TaskId,
    /// Arrival instant.
    pub arrived: Instant,
    /// The bound `t_arr + R_i + J_i` that was missed.
    pub deadline: Instant,
    /// Completion instant, if the job completed at all.
    pub completed: Option<Instant>,
}

/// Per-task comparison of the analytical bound with the measured worst
/// case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskOutcome {
    /// The task.
    pub task: TaskId,
    /// The analytical bound `R_i + J_i`.
    pub bound: Duration,
    /// The worst measured response time (over completed jobs).
    pub max_observed: Option<Duration>,
    /// Completed jobs of the task.
    pub completed: usize,
}

impl TaskOutcome {
    /// `max_observed / bound`, the experiment's tightness metric
    /// (`None` until a job completes).
    pub fn tightness(&self) -> Option<f64> {
        let observed = self.max_observed?;
        Some(observed.ticks() as f64 / self.bound.ticks().max(1) as f64)
    }
}

/// The outcome of verifying one run against Thm. 5.1.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Arrivals in the run.
    pub jobs_arrived: usize,
    /// Completions observed.
    pub jobs_completed: usize,
    /// Arrivals whose deadline `t_arr + R_i + J_i` lies within the
    /// horizon and therefore *must* have completed in time.
    pub jobs_with_due_deadline: usize,
    /// Violations of the theorem's conclusion (always zero in our
    /// experiments; non-empty would witness an analysis bug).
    pub violations: Vec<BoundViolation>,
    /// Count of [`VerificationReport::violations`].
    pub bound_violations: usize,
    /// Per-task bound vs measurement.
    pub per_task: Vec<TaskOutcome>,
    /// The worst arrival→read lag observed (informational; related to the
    /// release-jitter experiments of Fig. 7).
    pub max_read_lag: Option<Duration>,
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} arrivals, {} completed, {} due, {} bound violations",
            self.jobs_arrived, self.jobs_completed, self.jobs_with_due_deadline, self.bound_violations
        )
    }
}

/// Verifies concrete runs of Rössl against the analytical bounds of the
/// RefinedProsa analysis — the executable Thm. 5.1.
#[derive(Debug, Clone)]
pub struct TimingVerifier {
    params: AnalysisParams,
    bounds: AnalysisResult,
}

impl TimingVerifier {
    /// Runs the analysis for `params` (searching busy windows up to
    /// `analysis_horizon`) and prepares the verifier.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationError::Analysis`] when the task set is
    /// unschedulable at these parameters.
    pub fn new(
        params: AnalysisParams,
        analysis_horizon: Duration,
    ) -> Result<TimingVerifier, VerificationError> {
        let bounds = analyse(&params, analysis_horizon).map_err(VerificationError::Analysis)?;
        Ok(TimingVerifier { params, bounds })
    }

    /// A verifier for externally computed bounds (e.g. the tightened
    /// per-task analysis, `prosa::analyse_tight`) — the hypothesis checks
    /// are identical; only the conclusion's bounds differ.
    pub fn with_bounds(params: AnalysisParams, bounds: AnalysisResult) -> TimingVerifier {
        TimingVerifier { params, bounds }
    }

    /// The per-task analytical bounds.
    pub fn bounds(&self) -> &AnalysisResult {
        &self.bounds
    }

    /// The analysis parameters.
    pub fn params(&self) -> &AnalysisParams {
        &self.params
    }

    /// Checks all hypotheses of Thm. 5.1 on the run and evaluates its
    /// conclusion.
    ///
    /// # Errors
    ///
    /// Returns the first violated *hypothesis* as a
    /// [`VerificationError`]. Violations of the *conclusion* (missed
    /// bounds) are reported in the returned
    /// [`VerificationReport::violations`] instead.
    pub fn verify(
        &self,
        arrivals: &ArrivalSequence,
        run: &SimulationResult,
    ) -> Result<VerificationReport, VerificationError> {
        let tasks = self.params.tasks();
        let n_sockets = self.params.n_sockets();
        let wcet = self.params.wcet();

        // Hypothesis 1: arrivals respect the curves (Eq. 2), and every
        // arrival belongs to a task of the set.
        arrivals
            .check_respects_curves(tasks)
            .map_err(|(task, violation)| VerificationError::ArrivalCurve { task, violation })?;
        if let Some((arrival, e)) = arrivals
            .events()
            .iter()
            .enumerate()
            .find(|(_, e)| tasks.task(e.task).is_none())
        {
            return Err(VerificationError::UnknownArrivalTask {
                arrival,
                task: e.task,
            });
        }

        // Hypotheses 2–6 in one pass. A protocol violation ends the pass;
        // every other check keeps its first violation in trace order, and
        // `failed` holds the earliest hypothesis violated so far, with its
        // rank. A check ranked after it can no longer change the verdict
        // and stops. The conversion is the first half of hypothesis 6, so
        // an assembly error outranks any validity error.
        const FUNCTIONAL: u8 = 3;
        const WCET: u8 = 4;
        const CONSISTENCY: u8 = 5;
        const CONVERSION: u8 = 6;
        const VALIDITY: u8 = 7;
        let bounds = OverheadBounds::derive(wcet, n_sockets);
        let mut protocol = ProtocolAutomaton::new(n_sockets).cursor();
        let mut functional = FunctionalCheck::new(tasks);
        let mut consistency = ConsistencyCheck::new(arrivals);
        let mut converter = Converter::default();
        let mut validity = ValidityCheck::new(tasks, &bounds);
        let mut failed: Option<(u8, VerificationError)> = None;
        let open = |failed: &Option<(u8, VerificationError)>, rank: u8| {
            failed.as_ref().map_or(true, |(r, _)| rank < *r)
        };
        let check_segment = |validity: &mut ValidityCheck<'_>, failed: &mut Option<_>, segment| {
            if open(failed, VALIDITY) {
                if let Err(e) = validity.push(&segment) {
                    *failed = Some((VALIDITY, VerificationError::Validity(e)));
                }
            }
        };

        // The conclusion's bookkeeping: per arrival, the job that read it
        // and that job's completion instant; per job read and not yet
        // completed, its arrival.
        let mut outcomes: Vec<(Option<JobId>, Option<Instant>)> =
            vec![(None, None); arrivals.len()];
        let mut in_flight: BTreeMap<JobId, usize> = BTreeMap::new();

        let trace = &run.trace;
        for (index, (marker, at)) in trace.iter().enumerate() {
            let closed = protocol
                .push(index, marker)
                .map_err(VerificationError::Protocol)?;
            if open(&failed, FUNCTIONAL) {
                if let Err(e) = functional.push(index, marker) {
                    failed = Some((FUNCTIONAL, VerificationError::Functional(e)));
                }
            }
            if let Some((action, start)) = closed {
                if open(&failed, WCET) {
                    if let Err(e) = check_action_wcet(action, start, index, trace, tasks, wcet) {
                        failed = Some((WCET, VerificationError::Wcet(e)));
                    }
                }
                if open(&failed, CONVERSION) {
                    match converter.push(action, trace.timestamp(start), at) {
                        Ok(done) => {
                            for segment in done.into_iter().flatten() {
                                check_segment(&mut validity, &mut failed, segment);
                            }
                        }
                        Err(e) => failed = Some((CONVERSION, VerificationError::Conversion(e))),
                    }
                }
            }
            if open(&failed, CONSISTENCY) {
                match consistency.push(index, marker, at) {
                    // A successful read: its job consumed `arrival`.
                    Ok(Some(arrival)) => {
                        if let Some(j) = marker.job() {
                            outcomes[arrival].0 = Some(j.id());
                            in_flight.insert(j.id(), arrival);
                        }
                    }
                    Ok(None) => {}
                    Err(e) => failed = Some((CONSISTENCY, VerificationError::Consistency(e))),
                }
            }
            if let Marker::Completion(j) = marker {
                if let Some(arrival) = in_flight.remove(&j.id()) {
                    outcomes[arrival].1 = Some(at);
                }
            }
        }
        if let Some(segment) = converter.finish().filter(|_| open(&failed, CONVERSION)) {
            check_segment(&mut validity, &mut failed, segment);
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }

        // Conclusion: every due arrival completes within R_i + J_i.
        let mut violations = Vec::new();
        let mut due = 0usize;
        for (event, &(job, completed)) in arrivals.events().iter().zip(&outcomes) {
            let deadline = event.time.saturating_add(self.bound(event.task));
            if deadline >= run.horizon {
                continue; // outside the theorem's t_hrzn condition
            }
            due += 1;
            let in_time = completed.is_some_and(|c| c <= deadline);
            if !in_time {
                violations.push(BoundViolation {
                    job,
                    task: event.task,
                    arrived: event.time,
                    deadline,
                    completed,
                });
            }
        }

        let per_task = tasks
            .iter()
            .map(|t| TaskOutcome {
                task: t.id(),
                bound: self.bound(t.id()),
                max_observed: run.max_response_time(t.id()),
                completed: run
                    .jobs
                    .values()
                    .filter(|r| r.task == t.id() && r.completed.is_some())
                    .count(),
            })
            .collect();

        Ok(VerificationReport {
            jobs_arrived: arrivals.len(),
            jobs_completed: run.completed_count(),
            jobs_with_due_deadline: due,
            bound_violations: violations.len(),
            violations,
            per_task,
            max_read_lag: run.max_read_lag(),
        })
    }

    /// The analytical bound `R_i + J_i` of a task of the set.
    fn bound(&self, task: TaskId) -> Duration {
        self.bounds
            .bound_for(task)
            .expect("analysis covers all tasks")
            .total_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl::{ClientConfig, FirstByteCodec};
    use rossl_model::{Curve, Priority, Task, TaskSet, WcetTable};
    use rossl_timing::{workload, Simulator, WorstCase};

    fn verifier(n_sockets: usize) -> TimingVerifier {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "low",
                Priority(1),
                Duration(30),
                Curve::sporadic(Duration(1_500)),
            ),
            Task::new(
                TaskId(1),
                "high",
                Priority(9),
                Duration(10),
                Curve::sporadic(Duration(900)),
            ),
        ])
        .unwrap();
        let params = AnalysisParams::new(tasks, WcetTable::example(), n_sockets).unwrap();
        TimingVerifier::new(params, Duration(300_000)).unwrap()
    }

    #[test]
    fn clean_runs_verify_with_zero_violations() {
        for n_sockets in [1usize, 2] {
            let v = verifier(n_sockets);
            let tasks = v.params().tasks().clone();
            let arrivals = workload::saturating(
                &tasks,
                &FirstByteCodec,
                &workload::round_robin_sockets(n_sockets),
                Instant(20_000),
            );
            let config = ClientConfig::new(tasks, n_sockets).unwrap();
            let run = Simulator::new(config, FirstByteCodec, *v.params().wcet(), WorstCase)
                .unwrap()
                .run(&arrivals, Instant(30_000))
                .unwrap();
            let report = v.verify(&arrivals, &run).unwrap();
            assert_eq!(report.bound_violations, 0, "report: {report}");
            assert!(report.jobs_with_due_deadline > 0);
            assert!(report.jobs_completed > 0);
            for t in &report.per_task {
                if let Some(tightness) = t.tightness() {
                    assert!(tightness <= 1.0, "observed exceeds bound: {tightness}");
                }
            }
        }
    }

    #[test]
    fn curve_violating_workloads_are_rejected() {
        use rossl_model::{Message, SocketId};
        use rossl_sockets::ArrivalEvent;
        let v = verifier(1);
        // Two arrivals of the sporadic(900) task 1 tick apart.
        let arrivals = ArrivalSequence::from_events(vec![
            ArrivalEvent {
                time: Instant(10),
                sock: SocketId(0),
                task: TaskId(1),
                msg: Message::new(vec![1]),
            },
            ArrivalEvent {
                time: Instant(11),
                sock: SocketId(0),
                task: TaskId(1),
                msg: Message::new(vec![1]),
            },
        ]);
        let config = ClientConfig::new(v.params().tasks().clone(), 1).unwrap();
        let run = Simulator::new(config, FirstByteCodec, *v.params().wcet(), WorstCase)
            .unwrap()
            .run(&arrivals, Instant(10_000))
            .unwrap();
        assert!(matches!(
            v.verify(&arrivals, &run),
            Err(VerificationError::ArrivalCurve { task: TaskId(1), .. })
        ));
    }

    #[test]
    fn arrivals_of_unknown_tasks_are_rejected() {
        use rossl_model::{Message, SocketId};
        use rossl_sockets::ArrivalEvent;
        // One task; one arrival tagged with a task outside the set. The
        // codec maps its payload to the known task, so the run itself is
        // clean and only hypothesis 1 can object.
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "only",
            Priority(1),
            Duration(20),
            Curve::sporadic(Duration(500)),
        )])
        .unwrap();
        let params = AnalysisParams::new(tasks.clone(), WcetTable::example(), 1).unwrap();
        let v = TimingVerifier::new(params, Duration(100_000)).unwrap();
        let arrivals = ArrivalSequence::from_events(vec![ArrivalEvent {
            time: Instant(10),
            sock: SocketId(0),
            task: TaskId(7),
            msg: Message::new(vec![0]),
        }]);
        let config = ClientConfig::new(tasks, 1).unwrap();
        let run = Simulator::new(config, FirstByteCodec, WcetTable::example(), WorstCase)
            .unwrap()
            .run(&arrivals, Instant(2_000))
            .unwrap();
        let err = v.verify(&arrivals, &run).unwrap_err();
        assert!(
            matches!(
                err,
                VerificationError::UnknownArrivalTask {
                    arrival: 0,
                    task: TaskId(7)
                }
            ),
            "unexpected error: {err}"
        );
        assert_eq!(err.checker_name(), "arrival-task");
    }

    #[test]
    fn unschedulable_parameters_fail_analysis() {
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "hot",
            Priority(1),
            Duration(100),
            Curve::sporadic(Duration(50)),
        )])
        .unwrap();
        let params = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        assert!(matches!(
            TimingVerifier::new(params, Duration(10_000)),
            Err(VerificationError::Analysis(_))
        ));
    }
}
