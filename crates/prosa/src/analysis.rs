//! The end-to-end response-time analysis of a Rössl configuration.
//!
//! [`analyse`] packages the whole §4 pipeline: derive the overhead bounds
//! and the release-jitter bound from the WCET table (Def. 4.3), shift the
//! arrival curves into release curves (§4.3), build the blackout-derived
//! supply bound function (§4.4), solve the NPFP recurrence per task
//! (§4.2), and offset the result by the jitter (Thm. 4.2: if `R_i` bounds
//! response times w.r.t. the release sequence and `J_i` bounds the jitter,
//! then `R_i + J_i` bounds response times w.r.t. the arrival sequence).
//!
//! [`analyse_baseline`] runs the identical solver with an ideal supply and
//! zero jitter — the classical, overhead-oblivious NPFP RTA that the
//! paper's introduction argues is unsound for interrupt-free schedulers.

use std::fmt;

use rossl_model::{Duration, Mode, ModelError, OverheadBounds, Task, TaskId, TaskSet, WcetTable};

use crate::blackout::BlackoutBound;
use crate::curves::{release_curves, ReleaseCurve};
use crate::sbf::{IdealSupply, RosslSupply, SupplyBound};
use crate::solver::{blocking, Recurrence, SolverError};

/// Static inputs of the analysis (§2.5's parameters): the task set with
/// priorities, WCETs and arrival curves; the basic-action WCET table; and
/// the socket count.
#[derive(Debug, Clone)]
pub struct AnalysisParams {
    tasks: TaskSet,
    wcet: WcetTable,
    n_sockets: usize,
}

impl AnalysisParams {
    /// Validates and bundles the analysis inputs.
    ///
    /// # Errors
    ///
    /// Returns [`RtaError::Model`] if the WCET table violates Thm. 5.1's
    /// side conditions or `n_sockets` is zero.
    pub fn new(tasks: TaskSet, wcet: WcetTable, n_sockets: usize) -> Result<AnalysisParams, RtaError> {
        wcet.validate().map_err(RtaError::Model)?;
        if n_sockets == 0 {
            return Err(RtaError::NoSockets);
        }
        Ok(AnalysisParams {
            tasks,
            wcet,
            n_sockets,
        })
    }

    /// The task set.
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The basic-action WCET table.
    pub fn wcet(&self) -> &WcetTable {
        &self.wcet
    }

    /// The socket count.
    pub fn n_sockets(&self) -> usize {
        self.n_sockets
    }
}

/// Analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RtaError {
    /// Invalid model parameters.
    Model(ModelError),
    /// At least one socket is required.
    NoSockets,
    /// The solver failed (unschedulable or horizon too small).
    Solver(SolverError),
    /// A schedulability test got the wrong number of deadlines.
    DeadlineCountMismatch {
        /// Number of tasks.
        tasks: usize,
        /// Number of deadlines supplied.
        deadlines: usize,
    },
}

impl fmt::Display for RtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtaError::Model(e) => write!(f, "invalid parameters: {e}"),
            RtaError::NoSockets => write!(f, "at least one input socket is required"),
            RtaError::Solver(e) => write!(f, "analysis failed: {e}"),
            RtaError::DeadlineCountMismatch { tasks, deadlines } => {
                write!(f, "{tasks} tasks but {deadlines} deadlines")
            }
        }
    }
}

impl std::error::Error for RtaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtaError::Model(e) => Some(e),
            RtaError::Solver(e) => Some(e),
            RtaError::NoSockets | RtaError::DeadlineCountMismatch { .. } => None,
        }
    }
}

impl From<SolverError> for RtaError {
    fn from(e: SolverError) -> RtaError {
        RtaError::Solver(e)
    }
}

/// The per-task outcome of the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskBound {
    /// The task.
    pub task: TaskId,
    /// The release-jitter bound `J_i` (Def. 4.3).
    pub jitter: Duration,
    /// The aRSA bound `R_i`, w.r.t. the release sequence.
    pub response_bound: Duration,
}

impl TaskBound {
    /// The final bound w.r.t. the arrival sequence: `R_i + J_i`
    /// (Thm. 4.2 / Thm. 5.1).
    pub fn total_bound(&self) -> Duration {
        self.response_bound.saturating_add(self.jitter)
    }
}

impl fmt::Display for TaskBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: R = {}, J = {}, R + J = {}",
            self.task,
            self.response_bound.ticks(),
            self.jitter.ticks(),
            self.total_bound().ticks()
        )
    }
}

/// The outcome of analysing a whole task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisResult {
    bounds: Vec<TaskBound>,
}

impl AnalysisResult {
    /// The per-task bounds, in task order.
    pub fn bounds(&self) -> &[TaskBound] {
        &self.bounds
    }

    /// The bound for a specific task.
    pub fn bound_for(&self, task: TaskId) -> Option<&TaskBound> {
        self.bounds.iter().find(|b| b.task == task)
    }

    /// Iterates over the per-task bounds.
    pub fn iter(&self) -> std::slice::Iter<'_, TaskBound> {
        self.bounds.iter()
    }
}

impl<'a> IntoIterator for &'a AnalysisResult {
    type Item = &'a TaskBound;
    type IntoIter = std::slice::Iter<'a, TaskBound>;
    fn into_iter(self) -> Self::IntoIter {
        self.bounds.iter()
    }
}

/// What one analysis call derives from its parameters once and shares
/// between its per-task solves: the task set, the release-jitter bound,
/// the release curves shifted by it and the search horizon. The supply
/// is the caller's: one per call, or one per task in [`analyse_tight`].
pub(crate) struct Setup<'a> {
    pub(crate) tasks: &'a TaskSet,
    pub(crate) jitter: Duration,
    curves: Vec<ReleaseCurve>,
    horizon: Duration,
}

impl<'a> Setup<'a> {
    /// The overhead-aware setup of §4: the jitter bound `J` of Def. 4.3,
    /// the release curves shifted by `J` (§4.3), and the blackout bound
    /// over those curves (§4.4), from which the caller builds its supply.
    pub(crate) fn rossl(
        params: &'a AnalysisParams,
        horizon: Duration,
    ) -> (Setup<'a>, BlackoutBound) {
        let tasks = params.tasks();
        let bounds = OverheadBounds::derive(params.wcet(), params.n_sockets());
        let jitter = bounds.max_release_jitter();
        let curves = release_curves(tasks, jitter);
        let blackout = BlackoutBound::new(tasks, curves.clone(), bounds);
        let setup = Setup {
            tasks,
            jitter,
            curves,
            horizon,
        };
        (setup, blackout)
    }

    /// The recurrence of `mode` against `supply`, with a fresh `β` memo.
    pub(crate) fn recurrence<'s, S: SupplyBound>(
        &'s self,
        supply: &'s S,
        mode: Mode,
    ) -> Recurrence<'s, S> {
        Recurrence::new(self.tasks, &self.curves, supply, self.horizon, mode)
    }

    /// `task`'s single-criticality bound against `supply`: the LO-mode
    /// recurrence with the task's blocking, on a `β` memo of its own.
    pub(crate) fn task_bound(
        &self,
        supply: &impl SupplyBound,
        task: &Task,
    ) -> Result<TaskBound, SolverError> {
        let blocking = blocking(self.tasks, task.id(), Mode::Lo);
        let response_bound = self
            .recurrence(supply, Mode::Lo)
            .response_time(task, blocking)?;
        Ok(TaskBound {
            task: task.id(),
            jitter: self.jitter,
            response_bound,
        })
    }

    /// Every task's bound against `supply`.
    fn analyse(&self, supply: &impl SupplyBound) -> Result<AnalysisResult, RtaError> {
        let bounds = self
            .tasks
            .iter()
            .map(|task| self.task_bound(supply, task))
            .collect::<Result<_, _>>()?;
        Ok(AnalysisResult { bounds })
    }
}

/// The overhead-aware RefinedProsa analysis (§4): per-task `R_i` and
/// `J_i`; `R_i + J_i` bounds every job's response time w.r.t. its arrival
/// (Thm. 5.1). `horizon` caps the busy-window search; pick it comfortably
/// above the expected hyperperiod.
///
/// # Errors
///
/// Returns [`RtaError::Solver`] when a recurrence fails to converge within
/// `horizon` — the task set is unschedulable at these parameters, or the
/// horizon is too small.
pub fn analyse(params: &AnalysisParams, horizon: Duration) -> Result<AnalysisResult, RtaError> {
    let (setup, blackout) = Setup::rossl(params, horizon);
    setup.analyse(&RosslSupply::new(blackout, horizon))
}

/// The tightened per-task analysis: like [`analyse`], but each task is
/// solved against its own supply bound function in which dispatch-cycle
/// overheads count only higher-or-equal-priority releases (plus one
/// blocking carry-in) — see [`BlackoutBound::for_task`] for the soundness
/// argument. Bounds are pointwise `≤` those of [`analyse`]; soundness is
/// exercised end-to-end by experiment E14.
///
/// # Errors
///
/// Same conditions as [`analyse`].
pub fn analyse_tight(params: &AnalysisParams, horizon: Duration) -> Result<AnalysisResult, RtaError> {
    let (setup, blackout) = Setup::rossl(params, horizon);
    let bounds = params
        .tasks()
        .iter()
        .map(|task| {
            let supply = RosslSupply::new(blackout.hep_of(params.tasks(), task.id()), horizon);
            setup.task_bound(&supply, task)
        })
        .collect::<Result<_, _>>()?;
    Ok(AnalysisResult { bounds })
}

/// The overhead-oblivious baseline: the same NPFP solver on an ideal
/// processor with zero jitter. Provided to reproduce the paper's core
/// motivation — bounds from this analysis are **not** sound for Rössl
/// (experiment E8 exhibits violating runs).
///
/// # Errors
///
/// Same conditions as [`analyse`].
pub fn analyse_baseline(
    params: &AnalysisParams,
    horizon: Duration,
) -> Result<AnalysisResult, RtaError> {
    let tasks = params.tasks();
    let setup = Setup {
        tasks,
        jitter: Duration::ZERO,
        curves: release_curves(tasks, Duration::ZERO),
        horizon,
    };
    setup.analyse(&IdealSupply)
}

/// Per-term spending allowances carved out of a task's analytical
/// bound, for runtime bound-term attribution (DESIGN §11).
///
/// The NPFP recurrence bounds a job's response as release jitter plus
/// lower-priority blocking plus higher-or-equal-priority interference
/// plus the job's own execution. [`term_allowances`] splits the proven
/// total `R_i + J_i` along those seams so an observatory can check each
/// observed term against its analytical budget instead of only the sum:
///
/// * `jitter` — the release-jitter bound `J_i` (Def. 4.3);
/// * `blocking` — at most one lower-priority job can be in flight when
///   a job becomes visible (non-preemptive FP), so its execution plus
///   the completion action bound the blocking term;
/// * `self_exec` — the job's own execution `C_i` plus the completion
///   action that retires it;
/// * `interference` — everything the total bound leaves after the
///   deterministic self-execution: hep-interference, scheduler
///   overheads, and any jitter/blocking headroom the run did not use.
///   Checked against the *combined* interference + overhead +
///   suspension observation, this is conservative by construction —
///   a sound in-model run can never overrun it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermAllowances {
    /// The task these allowances budget.
    pub task: TaskId,
    /// Release-jitter allowance `J_i`.
    pub jitter: Duration,
    /// Lower-priority blocking allowance.
    pub blocking: Duration,
    /// Own-execution allowance (`C_i` + completion).
    pub self_exec: Duration,
    /// Residual allowance for interference + overhead + suspension.
    pub interference: Duration,
    /// The proven total `R_i + J_i` the terms are carved from.
    pub total: Duration,
}

/// Splits each task's proven bound in `result` into per-term spending
/// allowances (see [`TermAllowances`]). `params` must be the inputs the
/// result was computed from.
pub fn term_allowances(params: &AnalysisParams, result: &AnalysisResult) -> Vec<TermAllowances> {
    let tasks = params.tasks();
    let completion = params.wcet().completion;
    result
        .iter()
        .map(|bound| {
            let task = tasks
                .task(bound.task)
                .expect("analysis result refers to a task in its own params");
            let blocking_exec = blocking(tasks, bound.task, Mode::Lo);
            let blocking = if blocking_exec == Duration::ZERO {
                Duration::ZERO
            } else {
                blocking_exec.saturating_add(completion)
            };
            let self_exec = task.wcet().saturating_add(completion);
            let total = bound.total_bound();
            TermAllowances {
                task: bound.task,
                jitter: bound.jitter,
                blocking,
                self_exec,
                interference: total.saturating_sub(self_exec),
                total,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Priority, Task};

    fn params(socks: usize) -> AnalysisParams {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "low",
                Priority(1),
                Duration(50),
                Curve::sporadic(Duration(2_000)),
            ),
            Task::new(
                TaskId(1),
                "high",
                Priority(9),
                Duration(20),
                Curve::sporadic(Duration(1_000)),
            ),
        ])
        .unwrap();
        AnalysisParams::new(tasks, WcetTable::example(), socks).unwrap()
    }

    #[test]
    fn overhead_aware_bounds_dominate_baseline() {
        let p = params(2);
        let horizon = Duration(200_000);
        let aware = analyse(&p, horizon).unwrap();
        let naive = analyse_baseline(&p, horizon).unwrap();
        for (a, n) in aware.iter().zip(naive.iter()) {
            assert!(
                a.total_bound() > n.total_bound(),
                "overhead-aware bound must exceed the ideal-processor bound"
            );
            assert_eq!(n.jitter, Duration::ZERO);
        }
    }

    #[test]
    fn bounds_grow_with_socket_count() {
        // More sockets mean more failed-read overhead per polling round.
        let horizon = Duration(400_000);
        let b1 = analyse(&params(1), horizon).unwrap().bounds()[1].total_bound();
        let b4 = analyse(&params(4), horizon).unwrap().bounds()[1].total_bound();
        assert!(b4 > b1, "b1 = {b1}, b4 = {b4}");
    }

    #[test]
    fn total_bound_offsets_by_jitter() {
        let r = analyse(&params(1), Duration(200_000)).unwrap();
        for b in &r {
            assert_eq!(b.total_bound(), b.response_bound + b.jitter);
            assert!(b.jitter > Duration::ZERO);
        }
    }

    #[test]
    fn bound_lookup() {
        let r = analyse(&params(1), Duration(200_000)).unwrap();
        assert!(r.bound_for(TaskId(0)).is_some());
        assert!(r.bound_for(TaskId(7)).is_none());
        assert_eq!(r.bounds().len(), 2);
    }

    #[test]
    fn invalid_params_rejected() {
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "t",
            Priority(1),
            Duration(1),
            Curve::sporadic(Duration(10)),
        )])
        .unwrap();
        let mut wcet = WcetTable::example();
        wcet.selection = Duration(0);
        assert!(matches!(
            AnalysisParams::new(tasks.clone(), wcet, 1),
            Err(RtaError::Model(_))
        ));
        assert!(matches!(
            AnalysisParams::new(tasks, WcetTable::example(), 0),
            Err(RtaError::NoSockets)
        ));
    }

    #[test]
    fn tight_analysis_dominates_standard() {
        let p = params(2);
        let horizon = Duration(400_000);
        let standard = analyse(&p, horizon).unwrap();
        let tight = analyse_tight(&p, horizon).unwrap();
        let mut strictly_better = false;
        for (s, t) in standard.iter().zip(tight.iter()) {
            assert!(t.total_bound() <= s.total_bound(), "{}: tight must dominate", t.task);
            if t.total_bound() < s.total_bound() {
                strictly_better = true;
            }
        }
        assert!(strictly_better, "the hep-only counting must help somewhere");
        // The lowest-priority task sees no improvement (everything is hep
        // for it).
        assert_eq!(
            standard.bounds()[0].total_bound(),
            tight.bounds()[0].total_bound()
        );
    }

    #[test]
    fn term_allowances_partition_the_bound() {
        let p = params(2);
        let result = analyse(&p, Duration(400_000)).unwrap();
        let terms = term_allowances(&p, &result);
        assert_eq!(terms.len(), 2);
        let completion = p.wcet().completion;
        for t in &terms {
            let bound = result.bound_for(t.task).unwrap();
            assert_eq!(t.jitter, bound.jitter);
            assert_eq!(t.total, bound.total_bound());
            // Self-execution + its residual reconstitute the total.
            assert_eq!(t.self_exec.saturating_add(t.interference), t.total);
            let task = p.tasks().task(t.task).unwrap();
            assert_eq!(t.self_exec, task.wcet().saturating_add(completion));
        }
        // The highest-priority task can be blocked by the lower one;
        // the lowest-priority task has nobody below it to block it.
        let low = terms.iter().find(|t| t.task == TaskId(0)).unwrap();
        let high = terms.iter().find(|t| t.task == TaskId(1)).unwrap();
        assert_eq!(low.blocking, Duration::ZERO);
        assert_eq!(high.blocking, Duration(50).saturating_add(completion));
        // Every per-term allowance fits inside the proven total.
        for t in &terms {
            assert!(t.blocking <= t.total);
            assert!(t.jitter <= t.total);
            assert!(t.self_exec <= t.total);
        }
    }

    #[test]
    fn params_keep_their_inputs() {
        let p = params(3);
        assert_eq!(p.tasks().len(), 2);
        assert_eq!(*p.wcet(), WcetTable::example());
        assert_eq!(p.n_sockets(), 3);
    }

    #[test]
    fn every_task_carries_the_configuration_jitter() {
        for socks in 1..4 {
            let jitter = crate::curves::max_release_jitter(&WcetTable::example(), socks);
            let r = analyse(&params(socks), Duration(400_000)).unwrap();
            assert!(r.iter().all(|b| b.jitter == jitter), "{socks} sockets");
        }
    }

    #[test]
    fn baseline_is_the_ideal_solver_without_jitter() {
        let p = params(2);
        let horizon = Duration(200_000);
        let curves = release_curves(p.tasks(), Duration::ZERO);
        let baseline = analyse_baseline(&p, horizon).unwrap();
        for b in &baseline {
            let ideal = crate::solver::npfp_response_time(
                p.tasks(),
                &curves,
                &IdealSupply,
                b.task,
                horizon,
            );
            assert_eq!(Ok(b.response_bound), ideal);
            assert_eq!(b.total_bound(), b.response_bound);
        }
    }

    #[test]
    fn tight_matches_standard_for_a_lone_task() {
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "only",
            Priority(3),
            Duration(40),
            Curve::sporadic(Duration(500)),
        )])
        .unwrap();
        let p = AnalysisParams::new(tasks, WcetTable::example(), 2).unwrap();
        let horizon = Duration(100_000);
        assert_eq!(analyse_tight(&p, horizon), analyse(&p, horizon));
    }

    #[test]
    fn tight_matches_standard_when_priorities_tie() {
        // Every task is hep for every other: nothing to filter out.
        let tasks = TaskSet::new(
            (0..3)
                .map(|i| {
                    Task::new(
                        TaskId(i),
                        format!("t{i}"),
                        Priority(4),
                        Duration(10 + 5 * i as u64),
                        Curve::sporadic(Duration(900)),
                    )
                })
                .collect(),
        )
        .unwrap();
        let p = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        let horizon = Duration(200_000);
        assert_eq!(analyse_tight(&p, horizon), analyse(&p, horizon));
    }

    #[test]
    fn task_bound_display_shows_every_term() {
        let b = TaskBound {
            task: TaskId(1),
            jitter: Duration(3),
            response_bound: Duration(5),
        };
        assert_eq!(b.to_string(), "τ1: R = 5, J = 3, R + J = 8");
    }

    #[test]
    fn rta_errors_describe_themselves() {
        assert_eq!(
            RtaError::NoSockets.to_string(),
            "at least one input socket is required"
        );
        assert_eq!(
            RtaError::DeadlineCountMismatch {
                tasks: 2,
                deadlines: 1
            }
            .to_string(),
            "2 tasks but 1 deadlines"
        );
        let solver = SolverError::UnknownTask { task: TaskId(4) };
        assert_eq!(
            RtaError::Solver(solver.clone()).to_string(),
            format!("analysis failed: {solver}")
        );
        let model = ModelError::EmptyTaskSet;
        assert_eq!(
            RtaError::Model(model.clone()).to_string(),
            format!("invalid parameters: {model}")
        );
    }

    #[test]
    fn rta_errors_chain_to_their_cause() {
        use std::error::Error;
        let solver = SolverError::UnknownTask { task: TaskId(4) };
        let wrapped = RtaError::from(solver.clone());
        assert_eq!(wrapped, RtaError::Solver(solver.clone()));
        assert_eq!(
            wrapped.source().map(ToString::to_string),
            Some(solver.to_string())
        );
        assert!(RtaError::Model(ModelError::EmptyTaskSet).source().is_some());
        assert!(RtaError::NoSockets.source().is_none());
        assert!(RtaError::DeadlineCountMismatch {
            tasks: 1,
            deadlines: 2
        }
        .source()
        .is_none());
    }

    #[test]
    fn a_lone_task_has_no_blocking_allowance() {
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "only",
            Priority(3),
            Duration(40),
            Curve::sporadic(Duration(500)),
        )])
        .unwrap();
        let p = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        let result = analyse(&p, Duration(100_000)).unwrap();
        let terms = term_allowances(&p, &result);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].blocking, Duration::ZERO);
        assert_eq!(terms[0].total, result.bounds()[0].total_bound());
    }

    #[test]
    fn overload_reports_no_convergence() {
        // A task whose period cannot even absorb the per-job overheads.
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "hot",
            Priority(1),
            Duration(50),
            Curve::sporadic(Duration(30)),
        )])
        .unwrap();
        let p = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        assert!(matches!(
            analyse(&p, Duration(50_000)),
            Err(RtaError::Solver(SolverError::NoConvergence { .. }))
        ));
    }
}
