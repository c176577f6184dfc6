//! Schedulability tests and sensitivity analysis on top of the RTA.
//!
//! The response-time bounds of [`analyse`](crate::analyse) become a
//! *schedulability test* once tasks carry deadlines: task `τ_i` is deemed
//! schedulable iff `R_i + J_i ≤ D_i`. This module adds the classic
//! derived analyses used throughout the empirical RTS literature (and in
//! the evaluation shapes of schedulability papers):
//!
//! * [`check_schedulability`] — per-task verdicts against relative
//!   deadlines;
//! * [`breakdown_scale`] — sensitivity analysis: the largest uniform
//!   scaling of all callback WCETs that keeps the system schedulable
//!   (a bisection over the monotone scaling axis), the RTS notion of
//!   "breakdown utilization" transposed to WCET scaling.

use rossl_model::{Duration, Task, TaskId, TaskSet};

use crate::analysis::{AnalysisParams, RtaError, Setup};
use crate::sbf::RosslSupply;

/// The verdict for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskVerdict {
    /// The task.
    pub task: TaskId,
    /// The bound `R_i + J_i`, if the recurrence converged.
    pub bound: Option<Duration>,
    /// The deadline tested against.
    pub deadline: Duration,
}

impl TaskVerdict {
    /// `true` iff the bound exists and meets the deadline.
    pub fn schedulable(&self) -> bool {
        self.bound.is_some_and(|b| b <= self.deadline)
    }

    /// Slack to the deadline (`deadline − bound`), when schedulable.
    pub fn slack(&self) -> Option<Duration> {
        let b = self.bound?;
        (b <= self.deadline).then(|| self.deadline - b)
    }
}

/// The outcome of a schedulability test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedulability {
    verdicts: Vec<TaskVerdict>,
}

impl Schedulability {
    /// Per-task verdicts, in task order.
    pub fn verdicts(&self) -> &[TaskVerdict] {
        &self.verdicts
    }

    /// `true` iff every task meets its deadline.
    pub fn all_schedulable(&self) -> bool {
        self.verdicts.iter().all(TaskVerdict::schedulable)
    }

    /// Number of schedulable tasks.
    pub fn schedulable_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.schedulable()).count()
    }
}

/// The verdict loop both schedulability tests share: checks the deadline
/// count, builds the overhead-aware setup once, and judges each task by
/// `bound`, its `R_i + J_i` on that setup or `None` when one of its
/// recurrences fails, so one failing task leaves the others' verdicts
/// standing.
pub(crate) fn judge(
    params: &AnalysisParams,
    deadlines: &[Duration],
    horizon: Duration,
    bound: impl Fn(&Setup<'_>, &RosslSupply, &Task) -> Option<Duration>,
) -> Result<Schedulability, RtaError> {
    let tasks = params.tasks();
    if deadlines.len() != tasks.len() {
        return Err(RtaError::DeadlineCountMismatch {
            tasks: tasks.len(),
            deadlines: deadlines.len(),
        });
    }
    let (setup, blackout) = Setup::rossl(params, horizon);
    let supply = RosslSupply::new(blackout, horizon);
    let verdicts = tasks
        .iter()
        .zip(deadlines)
        .map(|(task, &deadline)| TaskVerdict {
            task: task.id(),
            bound: bound(&setup, &supply, task),
            deadline,
        })
        .collect();
    Ok(Schedulability { verdicts })
}

/// Tests the system against per-task relative `deadlines` (one per task,
/// in task order). A task whose recurrence does not converge within
/// `horizon` is unschedulable.
///
/// # Errors
///
/// Returns [`RtaError`] only for malformed inputs (deadline count
/// mismatch); non-convergence is a verdict, not an error.
pub fn check_schedulability(
    params: &AnalysisParams,
    deadlines: &[Duration],
    horizon: Duration,
) -> Result<Schedulability, RtaError> {
    judge(params, deadlines, horizon, |setup, supply, task| {
        setup.task_bound(supply, task).ok().map(|b| b.total_bound())
    })
}

/// Returns a copy of `tasks` with every callback budget, `C_LO` and
/// `C_HI` alike, scaled by `num/den` (rounded up, kept ≥ 1 tick). Each
/// task keeps its criticality.
pub fn scale_wcets(tasks: &TaskSet, num: u64, den: u64) -> TaskSet {
    assert!(den > 0, "denominator must be positive");
    let scale = |c: Duration| Duration(c.ticks().saturating_mul(num).div_ceil(den).max(1));
    let scaled = tasks
        .iter()
        .map(|t| {
            Task::new(
                t.id(),
                t.name(),
                t.priority(),
                scale(t.wcet()),
                t.arrival_curve().clone(),
            )
            .with_criticality(t.criticality())
            .with_wcet_hi(scale(t.wcet_hi()))
        })
        .collect();
    TaskSet::new(scaled).expect("scaling preserves validity")
}

/// Sensitivity analysis: the largest scale `s` (in per-mille, searched
/// over `[1, max_permille]`) such that the system with all callback WCETs
/// multiplied by `s/1000` is schedulable against `deadlines`. Returns
/// `None` if even `s = 1` is unschedulable.
///
/// Schedulability is antitone in the scale (larger WCETs only increase
/// bounds), so bisection applies.
///
/// # Errors
///
/// Propagates [`RtaError`] for malformed inputs.
pub fn breakdown_scale(
    params: &AnalysisParams,
    deadlines: &[Duration],
    horizon: Duration,
    max_permille: u64,
) -> Result<Option<u64>, RtaError> {
    let schedulable_at = |permille: u64| -> Result<bool, RtaError> {
        let tasks = scale_wcets(params.tasks(), permille, 1000);
        let p = AnalysisParams::new(tasks, *params.wcet(), params.n_sockets())?;
        Ok(check_schedulability(&p, deadlines, horizon)?.all_schedulable())
    };
    if !schedulable_at(1)? {
        return Ok(None);
    }
    let (mut lo, mut hi) = (1u64, max_permille.max(1));
    if schedulable_at(hi)? {
        return Ok(Some(hi));
    }
    // Invariant: schedulable at lo, not at hi.
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if schedulable_at(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Criticality, Curve, Priority, WcetTable};

    fn params() -> AnalysisParams {
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
        AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap()
    }

    #[test]
    fn generous_deadlines_are_schedulable() {
        let s = check_schedulability(
            &params(),
            &[Duration(2_000), Duration(1_000)],
            Duration(200_000),
        )
        .unwrap();
        assert!(s.all_schedulable());
        assert_eq!(s.schedulable_count(), 2);
        for v in s.verdicts() {
            assert!(v.slack().is_some());
        }
    }

    #[test]
    fn tight_deadlines_fail_individually() {
        let s = check_schedulability(
            &params(),
            &[Duration(2_000), Duration(1)], // high cannot make 1 tick
            Duration(200_000),
        )
        .unwrap();
        assert!(!s.all_schedulable());
        assert_eq!(s.schedulable_count(), 1);
        assert!(s.verdicts()[0].schedulable());
        assert!(!s.verdicts()[1].schedulable());
        assert_eq!(s.verdicts()[1].slack(), None);
    }

    #[test]
    fn overload_yields_verdicts_not_errors() {
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "hot",
            Priority(1),
            Duration(100),
            Curve::sporadic(Duration(50)),
        )])
        .unwrap();
        let p = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        let s = check_schedulability(&p, &[Duration(10_000)], Duration(50_000)).unwrap();
        assert!(!s.all_schedulable());
        assert_eq!(s.verdicts()[0].bound, None);
    }

    #[test]
    fn deadline_count_mismatch_is_rejected() {
        assert!(check_schedulability(&params(), &[Duration(10)], Duration(1_000)).is_err());
    }

    #[test]
    fn scaling_wcets_rounds_up_and_clamps() {
        let scaled = scale_wcets(params().tasks(), 1500, 1000);
        assert_eq!(scaled.task(TaskId(0)).unwrap().wcet(), Duration(75));
        let tiny = scale_wcets(params().tasks(), 1, 1000);
        assert_eq!(tiny.task(TaskId(0)).unwrap().wcet(), Duration(1));
    }

    #[test]
    fn scaling_keeps_criticality_and_scales_wcet_hi() {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "lo",
                Priority(1),
                Duration(50),
                Curve::sporadic(Duration(2_000)),
            )
            .with_criticality(Criticality::Lo),
            Task::new(
                TaskId(1),
                "hi",
                Priority(9),
                Duration(20),
                Curve::sporadic(Duration(1_000)),
            )
            .with_criticality(Criticality::Hi)
            .with_wcet_hi(Duration(45)),
        ])
        .unwrap();
        let scaled = scale_wcets(&tasks, 1500, 1000);
        let lo = scaled.task(TaskId(0)).unwrap();
        assert_eq!(lo.criticality(), Criticality::Lo);
        assert_eq!((lo.wcet(), lo.wcet_hi()), (Duration(75), Duration(75)));
        let hi = scaled.task(TaskId(1)).unwrap();
        assert_eq!(hi.criticality(), Criticality::Hi);
        // 45 · 1.5 = 67.5, rounded up like C_LO.
        assert_eq!((hi.wcet(), hi.wcet_hi()), (Duration(30), Duration(68)));
    }

    #[test]
    fn breakdown_scale_brackets_the_limit() {
        let deadlines = [Duration(2_000), Duration(1_000)];
        let horizon = Duration(200_000);
        let s = breakdown_scale(&params(), &deadlines, horizon, 100_000)
            .unwrap()
            .expect("base system is schedulable");
        assert!(s >= 1_000, "base scale must be feasible, got {s}");
        // One step beyond the breakdown scale must be unschedulable.
        let beyond = scale_wcets(params().tasks(), s + 1, 1000);
        let p = AnalysisParams::new(beyond, *params().wcet(), 1).unwrap();
        let verdict = check_schedulability(&p, &deadlines, horizon).unwrap();
        assert!(!verdict.all_schedulable());
    }

    #[test]
    fn verdict_bounds_are_the_analysis_totals() {
        let p = params();
        let horizon = Duration(200_000);
        let deadlines = [Duration(2_000), Duration(1_000)];
        let result = crate::analysis::analyse(&p, horizon).unwrap();
        let s = check_schedulability(&p, &deadlines, horizon).unwrap();
        for ((v, b), &d) in s.verdicts().iter().zip(result.iter()).zip(&deadlines) {
            assert_eq!(v.task, b.task);
            assert_eq!(v.bound, Some(b.total_bound()));
            assert_eq!(v.deadline, d);
        }
    }

    #[test]
    fn a_deadline_equal_to_the_bound_leaves_zero_slack() {
        let p = params();
        let horizon = Duration(200_000);
        let bound = crate::analysis::analyse(&p, horizon).unwrap().bounds()[1].total_bound();
        let s = check_schedulability(&p, &[Duration(2_000), bound], horizon).unwrap();
        assert_eq!(s.verdicts()[1].slack(), Some(Duration::ZERO));
        let s = check_schedulability(&p, &[Duration(2_000), bound - Duration(1)], horizon).unwrap();
        assert!(!s.verdicts()[1].schedulable());
    }

    #[test]
    fn slack_is_the_deadline_minus_the_bound() {
        let v = TaskVerdict {
            task: TaskId(0),
            bound: Some(Duration(30)),
            deadline: Duration(100),
        };
        assert!(v.schedulable());
        assert_eq!(v.slack(), Some(Duration(70)));
        let unbounded = TaskVerdict { bound: None, ..v };
        assert!(!unbounded.schedulable());
        assert_eq!(unbounded.slack(), None);
    }

    #[test]
    fn a_failing_task_leaves_the_others_verdicts_standing() {
        // The bottom task's period cannot absorb its own work, so its
        // recurrence diverges; the top task sees it only as blocking.
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "hot",
                Priority(1),
                Duration(100),
                Curve::sporadic(Duration(50)),
            ),
            Task::new(
                TaskId(1),
                "top",
                Priority(9),
                Duration(20),
                Curve::sporadic(Duration(1_000)),
            ),
        ])
        .unwrap();
        let p = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        let s = check_schedulability(&p, &[Duration(10_000); 2], Duration(50_000)).unwrap();
        assert_eq!(s.verdicts()[0].bound, None);
        assert!(s.verdicts()[1].schedulable());
        assert_eq!(s.schedulable_count(), 1);
    }

    #[test]
    fn deadline_mismatch_reports_both_counts() {
        assert_eq!(
            check_schedulability(&params(), &[], Duration(1_000)),
            Err(RtaError::DeadlineCountMismatch {
                tasks: 2,
                deadlines: 0
            })
        );
    }

    #[test]
    fn scaling_by_one_is_the_identity() {
        let tasks = params().tasks().clone();
        assert_eq!(scale_wcets(&tasks, 1000, 1000), tasks);
        assert_eq!(scale_wcets(&tasks, 7, 7), tasks);
    }

    #[test]
    fn scaling_keeps_ids_names_priorities_and_curves() {
        let tasks = params().tasks().clone();
        let scaled = scale_wcets(&tasks, 2_500, 1000);
        for (t, s) in tasks.iter().zip(scaled.iter()) {
            assert_eq!(s.id(), t.id());
            assert_eq!(s.name(), t.name());
            assert_eq!(s.priority(), t.priority());
            assert_eq!(s.arrival_curve(), t.arrival_curve());
        }
        assert_eq!(scaled.task(TaskId(1)).unwrap().wcet(), Duration(50));
    }

    #[test]
    fn scaling_down_rounds_up() {
        // 50 · 333/1000 = 16.65 and 20 · 333/1000 = 6.66.
        let scaled = scale_wcets(params().tasks(), 333, 1000);
        assert_eq!(scaled.task(TaskId(0)).unwrap().wcet(), Duration(17));
        assert_eq!(scaled.task(TaskId(1)).unwrap().wcet(), Duration(7));
    }

    #[test]
    fn scaling_by_zero_keeps_one_tick() {
        let scaled = scale_wcets(params().tasks(), 0, 1000);
        for t in scaled.iter() {
            assert_eq!((t.wcet(), t.wcet_hi()), (Duration(1), Duration(1)));
        }
    }

    #[test]
    fn scaling_saturates_instead_of_overflowing() {
        let scaled = scale_wcets(params().tasks(), u64::MAX, 1);
        assert_eq!(scaled.task(TaskId(0)).unwrap().wcet(), Duration(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn scaling_rejects_a_zero_denominator() {
        scale_wcets(params().tasks(), 1, 0);
    }

    #[test]
    fn breakdown_scale_stops_at_its_ceiling() {
        // Generous deadlines hold at 1.5× the WCETs: the search returns
        // its ceiling instead of bisecting.
        let s = breakdown_scale(
            &params(),
            &[Duration(100_000), Duration(100_000)],
            Duration(200_000),
            1_500,
        )
        .unwrap();
        assert_eq!(s, Some(1_500));
    }

    #[test]
    fn breakdown_scale_shrinks_with_the_deadlines() {
        let horizon = Duration(200_000);
        let loose = breakdown_scale(
            &params(),
            &[Duration(2_000), Duration(1_000)],
            horizon,
            100_000,
        )
        .unwrap()
        .unwrap();
        let tight = breakdown_scale(
            &params(),
            &[Duration(2_000), Duration(500)],
            horizon,
            100_000,
        )
        .unwrap()
        .unwrap();
        assert!(tight < loose, "tight = {tight}, loose = {loose}");
    }

    #[test]
    fn breakdown_scale_rejects_a_deadline_mismatch() {
        assert!(matches!(
            breakdown_scale(&params(), &[Duration(10)], Duration(1_000), 2_000),
            Err(RtaError::DeadlineCountMismatch { .. })
        ));
    }

    #[test]
    fn breakdown_none_when_base_unschedulable() {
        let s = breakdown_scale(
            &params(),
            &[Duration(1), Duration(1)],
            Duration(100_000),
            10_000,
        )
        .unwrap();
        assert_eq!(s, None);
    }
}
