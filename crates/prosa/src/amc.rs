//! AMC-rtb: per-mode response-time analysis for mixed criticality
//! (Vestal's model under adaptive mixed criticality, after Baruah,
//! Burns and Davis' AMC-rtb test, transposed to restricted supply).
//!
//! The runtime ([`rossl`]'s mode automaton) starts in LO mode, budgets
//! every callback by its optimistic `C_LO`, and switches to HI mode the
//! moment a HI-criticality callback overruns `C_LO`; LO-criticality
//! work is suspended until hysteresis returns the system to LO. The
//! analysis mirrors that automaton with three bounds per task:
//!
//! * **LO steady state** — every task, all budgets `C_LO`: exactly the
//!   single-criticality analysis of [`analyse`](crate::analyse).
//! * **HI steady state** — HI tasks only (LO work is suspended), all
//!   budgets `C_HI`, blocking from lower-priority *HI* tasks only.
//! * **Mode change** (the AMC-rtb recurrence) — the window of a HI job
//!   that crosses the switch: HI interference at `C_HI`, plus the LO
//!   interference *frozen* at the job's own LO-mode response bound
//!   (no LO job is released into the window after the switch), plus
//!   blocking by whichever job ran when the switch hit — a LO job at
//!   `C_LO` or a lower-priority HI job at `C_HI`.
//!
//! All three are instances of the one NPFP recurrence of
//! [`npfp_response_time`](crate::npfp_response_time): the LO bound in LO
//! mode, the HI-steady and mode-change bounds in HI mode, which
//! suspends LO tasks and budgets HI tasks at `C_HI`. The mode-change
//! bound adds the frozen LO interference to its blocking as a fixed
//! demand term. All three run on the same overhead-derived restricted
//! supply and release-jitter bound as [`analyse`](crate::analyse): the
//! scheduler's basic actions (and hence §4's blackout attribution) are
//! the same in every mode. A task set that never uses criticality
//! (`C_HI = C_LO`, all tasks HI) collapses all three bounds to the
//! single-criticality bound — pinned by
//! `degenerate_task_sets_collapse_to_plain_analysis`.
//!
//! Per-task *deadline* verdicts follow the AMC convention: a HI task
//! must meet its deadline in every mode (the max of the three bounds),
//! a LO task only in LO steady state — its HI-mode latency is
//! unbounded by design, the degradation the runtime makes explicit
//! with `DegradedEvent`s.

use rossl_model::{Criticality, Duration, Mode, Task, TaskId, TaskSet};

use crate::analysis::{AnalysisParams, AnalysisResult, RtaError, Setup};
use crate::sbf::RosslSupply;
use crate::schedulability::{judge, Schedulability};
use crate::solver::{blocking, Recurrence, SolverError};

/// The per-mode bounds of one task, all w.r.t. the release sequence;
/// add [`jitter`](ModeBound::jitter) (or use the `total_*` accessors)
/// for bounds w.r.t. the arrival sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeBound {
    /// The task.
    pub task: TaskId,
    /// Its design-time criticality level.
    pub criticality: Criticality,
    /// The release-jitter bound `J_i` (mode-independent: the overhead
    /// table covers scheduler actions, not callback budgets).
    pub jitter: Duration,
    /// LO-steady-state bound: every task interferes at `C_LO`.
    pub lo: Duration,
    /// HI-steady-state bound: HI tasks only, at `C_HI`. `None` for LO
    /// tasks — they are suspended in HI mode.
    pub hi: Option<Duration>,
    /// Mode-change (AMC-rtb) bound for the job crossing the switch.
    /// `None` for LO tasks. Dominates [`hi`](ModeBound::hi) pointwise.
    pub transition: Option<Duration>,
}

impl ModeBound {
    /// LO-mode bound w.r.t. the arrival sequence: `lo + J_i`.
    pub fn total_lo(&self) -> Duration {
        self.lo.saturating_add(self.jitter)
    }

    /// HI-steady bound w.r.t. the arrival sequence, for HI tasks.
    pub fn total_hi(&self) -> Option<Duration> {
        Some(self.hi?.saturating_add(self.jitter))
    }

    /// Mode-change bound w.r.t. the arrival sequence, for HI tasks.
    pub fn total_transition(&self) -> Option<Duration> {
        Some(self.transition?.saturating_add(self.jitter))
    }

    /// The bound the task's deadline is judged against: the max over
    /// all modes for HI tasks, the LO bound for LO tasks (whose HI-mode
    /// latency is unbounded by design).
    pub fn worst_total(&self) -> Duration {
        let mut worst = self.total_lo();
        if let Some(h) = self.total_hi() {
            worst = worst.max(h);
        }
        if let Some(t) = self.total_transition() {
            worst = worst.max(t);
        }
        worst
    }
}

/// The outcome of the AMC analysis of a whole task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmcResult {
    bounds: Vec<ModeBound>,
}

impl AmcResult {
    /// The per-task mode bounds, in task order.
    pub fn bounds(&self) -> &[ModeBound] {
        &self.bounds
    }

    /// The bounds for a specific task.
    pub fn bound_for(&self, task: TaskId) -> Option<&ModeBound> {
        self.bounds.iter().find(|b| b.task == task)
    }

    /// Iterates over the per-task bounds.
    pub fn iter(&self) -> std::slice::Iter<'_, ModeBound> {
        self.bounds.iter()
    }
}

impl<'a> IntoIterator for &'a AmcResult {
    type Item = &'a ModeBound;
    type IntoIter = std::slice::Iter<'a, ModeBound>;
    fn into_iter(self) -> Self::IntoIter {
        self.bounds.iter()
    }
}

/// The LO- and HI-mode recurrences on one setup, each with its own `β`
/// memo: LO mode for the LO bounds, HI mode for the HI-steady and
/// transition bounds. [`analyse_amc`] shares one pair across its tasks;
/// [`check_amc_schedulability`] builds one per task.
struct Modes<'a> {
    tasks: &'a TaskSet,
    jitter: Duration,
    lo: Recurrence<'a, RosslSupply>,
    hi: Recurrence<'a, RosslSupply>,
}

impl<'a> Modes<'a> {
    fn new(setup: &'a Setup<'a>, supply: &'a RosslSupply) -> Modes<'a> {
        Modes {
            tasks: setup.tasks,
            jitter: setup.jitter,
            lo: setup.recurrence(supply, Mode::Lo),
            hi: setup.recurrence(supply, Mode::Hi),
        }
    }

    /// `task`'s LO, HI-steady and mode-change bounds, solved in that
    /// order: a task set's first failing recurrence names its error.
    fn mode_bound(&self, task: &Task) -> Result<ModeBound, SolverError> {
        let id = task.id();
        let lo_blocking = blocking(self.tasks, id, Mode::Lo);
        let lo = self.lo.response_time(task, lo_blocking)?;

        let (hi, transition) = if Mode::Hi.serves(task.criticality()) {
            // HI steady state: only HI tasks exist; blocking by a
            // lower-priority HI job at its C_HI.
            let hi_blocking = blocking(self.tasks, id, Mode::Hi);
            let hi = self.hi.response_time(task, hi_blocking)?;

            // Mode change: LO releases stop at the switch, so the LO
            // interference is frozen at what fits into the LO-mode
            // response window of this very job; the blocking job may
            // still be a LO one (at C_LO) or a HI one (at C_HI).
            let suspended = self
                .tasks
                .equal_or_higher_priority_than(id)
                .filter(|t| !Mode::Hi.serves(t.criticality()));
            let frozen = self.lo.demand(suspended, lo.saturating_add(Duration(1)));
            let switch_blocking = lo_blocking.max(hi_blocking);
            let transition = self
                .hi
                .response_time(task, switch_blocking.saturating_add(frozen))?;
            // The recurrence's demand dominates the HI-steady one term
            // by term (frozen ≥ 0, switch blocking ≥ HI blocking), so
            // the max is a formality kept for the reader.
            (Some(hi), Some(transition.max(hi)))
        } else {
            (None, None)
        };

        Ok(ModeBound {
            task: id,
            criticality: task.criticality(),
            jitter: self.jitter,
            lo,
            hi,
            transition,
        })
    }
}

/// The AMC-rtb analysis: per-task LO, HI-steady and mode-change bounds
/// (see the module docs for the recurrences). `horizon` caps every
/// busy-window search, as in [`analyse`](crate::analyse).
///
/// # Errors
///
/// Returns [`RtaError::Solver`] when any recurrence fails to converge
/// within `horizon` — the task set is not AMC-schedulable at these
/// parameters (or the horizon is too small). Use
/// [`check_amc_schedulability`] for per-task verdicts instead of a
/// poisoned analysis.
pub fn analyse_amc(params: &AnalysisParams, horizon: Duration) -> Result<AmcResult, RtaError> {
    let tasks = params.tasks();
    let (setup, blackout) = Setup::rossl(params, horizon);
    let supply = RosslSupply::new(blackout, horizon);
    let modes = Modes::new(&setup, &supply);
    let bounds = tasks
        .iter()
        .map(|task| modes.mode_bound(task))
        .collect::<Result<_, _>>()?;
    Ok(AmcResult { bounds })
}

/// The static-FP baseline for the E21 acceptance sweep: no mode
/// switching at all — every task is provisioned at its pessimistic
/// `C_HI` in the single-criticality analysis. Sound but wasteful; AMC
/// admits every set this admits (its LO bounds use the smaller `C_LO`
/// and its HI/transition bounds shed LO interference).
///
/// # Errors
///
/// As [`analyse`](crate::analyse).
pub fn analyse_static_hi(
    params: &AnalysisParams,
    horizon: Duration,
) -> Result<AnalysisResult, RtaError> {
    let inflated: Vec<Task> = params
        .tasks()
        .iter()
        .map(|t| {
            Task::new(
                t.id(),
                t.name(),
                t.priority(),
                t.wcet_hi(),
                t.arrival_curve().clone(),
            )
            .with_criticality(t.criticality())
            .with_wcet_hi(t.wcet_hi())
        })
        .collect();
    let tasks = TaskSet::new(inflated).map_err(RtaError::Model)?;
    let p = AnalysisParams::new(tasks, *params.wcet(), params.n_sockets())?;
    crate::analysis::analyse(&p, horizon)
}

/// Per-task AMC deadline verdicts: a HI task is schedulable iff its
/// worst per-mode bound meets the deadline, a LO task iff its LO-mode
/// bound does. Non-convergence is a verdict (`bound: None`), not an
/// error, so partially schedulable sets still report per task — the
/// shape the acceptance-ratio sweep needs.
///
/// # Errors
///
/// Returns [`RtaError::DeadlineCountMismatch`] for malformed inputs.
pub fn check_amc_schedulability(
    params: &AnalysisParams,
    deadlines: &[Duration],
    horizon: Duration,
) -> Result<Schedulability, RtaError> {
    judge(params, deadlines, horizon, |setup, supply, task| {
        let modes = Modes::new(setup, supply);
        modes.mode_bound(task).ok().map(|b| b.worst_total())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyse;
    use rossl_model::{Curve, Priority, WcetTable};

    fn mc_tasks(specs: &[(u32, u64, u64, Criticality, u64)]) -> TaskSet {
        // (priority, C_LO, sporadic period, criticality, C_HI)
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(p, c, t, crit, ch))| {
                    Task::new(
                        TaskId(i),
                        format!("t{i}"),
                        Priority(p),
                        Duration(c),
                        Curve::sporadic(Duration(t)),
                    )
                    .with_criticality(crit)
                    .with_wcet_hi(Duration(ch))
                })
                .collect(),
        )
        .unwrap()
    }

    fn mixed() -> AnalysisParams {
        use Criticality::{Hi, Lo};
        let tasks = mc_tasks(&[
            (1, 50, 2_000, Lo, 50),
            (5, 30, 1_500, Hi, 80),
            (9, 20, 1_000, Hi, 45),
        ]);
        AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap()
    }

    #[test]
    fn degenerate_task_sets_collapse_to_plain_analysis() {
        // All-HI, C_HI == C_LO: every per-mode bound equals the
        // single-criticality bound — mixed criticality must cost
        // nothing when unused.
        use Criticality::Hi;
        let tasks = mc_tasks(&[(1, 50, 2_000, Hi, 50), (9, 20, 1_000, Hi, 20)]);
        let p = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        let horizon = Duration(200_000);
        let plain = analyse(&p, horizon).unwrap();
        let amc = analyse_amc(&p, horizon).unwrap();
        for (a, b) in amc.iter().zip(plain.iter()) {
            assert_eq!(a.lo, b.response_bound);
            assert_eq!(a.hi, Some(b.response_bound));
            assert_eq!(a.transition, Some(b.response_bound));
            assert_eq!(a.jitter, b.jitter);
            assert_eq!(a.worst_total(), b.total_bound());
        }
    }

    #[test]
    fn lo_bounds_match_plain_analysis_on_mixed_sets() {
        // The LO steady state ignores C_HI entirely.
        let p = mixed();
        let horizon = Duration(400_000);
        let plain = analyse(&p, horizon).unwrap();
        let amc = analyse_amc(&p, horizon).unwrap();
        for (a, b) in amc.iter().zip(plain.iter()) {
            assert_eq!(a.lo, b.response_bound, "{}", a.task);
        }
    }

    #[test]
    fn lo_tasks_have_no_hi_bounds() {
        let amc = analyse_amc(&mixed(), Duration(400_000)).unwrap();
        let lo_task = amc.bound_for(TaskId(0)).unwrap();
        assert_eq!(lo_task.criticality, Criticality::Lo);
        assert_eq!(lo_task.hi, None);
        assert_eq!(lo_task.transition, None);
        assert_eq!(lo_task.worst_total(), lo_task.total_lo());
        for b in amc.iter().filter(|b| b.criticality == Criticality::Hi) {
            assert!(b.hi.is_some() && b.transition.is_some());
            assert!(
                b.transition >= b.hi,
                "{}: the mode-change bound dominates the HI steady state",
                b.task
            );
        }
    }

    #[test]
    fn bounds_are_monotone_in_wcet_hi() {
        use Criticality::{Hi, Lo};
        let horizon = Duration(400_000);
        let base = analyse_amc(
            &AnalysisParams::new(
                mc_tasks(&[(1, 50, 2_000, Lo, 50), (9, 20, 1_000, Hi, 40)]),
                WcetTable::example(),
                1,
            )
            .unwrap(),
            horizon,
        )
        .unwrap();
        let bigger = analyse_amc(
            &AnalysisParams::new(
                mc_tasks(&[(1, 50, 2_000, Lo, 50), (9, 20, 1_000, Hi, 70)]),
                WcetTable::example(),
                1,
            )
            .unwrap(),
            horizon,
        )
        .unwrap();
        let (b0, b1) = (base.bounds()[1], bigger.bounds()[1]);
        assert!(b1.hi >= b0.hi);
        assert!(b1.transition >= b0.transition);
        assert_eq!(b1.lo, b0.lo, "the LO bound never sees C_HI");
    }

    #[test]
    fn static_hi_baseline_dominates_amc() {
        // Provisioning everything at C_HI can only inflate bounds: the
        // AMC analysis admits every set the static baseline admits.
        let p = mixed();
        let horizon = Duration(400_000);
        let amc = analyse_amc(&p, horizon).unwrap();
        let static_hi = analyse_static_hi(&p, horizon).unwrap();
        for (a, s) in amc.iter().zip(static_hi.iter()) {
            assert!(
                a.total_lo() <= s.total_bound(),
                "{}: LO bound must not exceed the static-HI bound",
                a.task
            );
            if let Some(h) = a.total_hi() {
                assert!(
                    h <= s.total_bound(),
                    "{}: HI-steady sheds LO interference the baseline keeps",
                    a.task
                );
            }
        }
    }

    #[test]
    fn amc_verdicts_judge_lo_tasks_in_lo_mode_only() {
        let p = mixed();
        let horizon = Duration(400_000);
        let amc = analyse_amc(&p, horizon).unwrap();
        // Deadline squeezed between the LO task's LO bound and the
        // (larger) worst HI-task bound: the LO task passes because only
        // LO mode counts for it.
        let lo_total = amc.bounds()[0].total_lo();
        let s = check_amc_schedulability(
            &p,
            &[lo_total, Duration(100_000), Duration(100_000)],
            horizon,
        )
        .unwrap();
        assert!(s.all_schedulable());
        // One tick less and it fails.
        let s = check_amc_schedulability(
            &p,
            &[lo_total - Duration(1), Duration(100_000), Duration(100_000)],
            horizon,
        )
        .unwrap();
        assert!(!s.verdicts()[0].schedulable());
        assert_eq!(s.schedulable_count(), 2);
    }

    #[test]
    fn amc_overload_yields_verdicts_not_errors() {
        use Criticality::Hi;
        // The low-priority task's C_HI saturates its period: its own
        // HI/transition recurrences cannot converge, but the
        // higher-priority task (which sees it only as blocking) still
        // gets its verdict.
        let tasks = mc_tasks(&[(1, 10, 1_000, Hi, 990), (9, 10, 1_000, Hi, 10)]);
        let p = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        assert!(matches!(
            analyse_amc(&p, Duration(50_000)),
            Err(RtaError::Solver(_))
        ));
        let s = check_amc_schedulability(
            &p,
            &[Duration(50_000), Duration(50_000)],
            Duration(50_000),
        )
        .unwrap();
        assert!(!s.verdicts()[0].schedulable());
        assert_eq!(s.verdicts()[0].bound, None);
        assert!(s.verdicts()[1].bound.is_some());
    }

    #[test]
    fn deadline_count_mismatch_is_rejected() {
        assert!(matches!(
            check_amc_schedulability(&mixed(), &[Duration(1)], Duration(1_000)),
            Err(RtaError::DeadlineCountMismatch { .. })
        ));
    }

    fn params(specs: &[(u32, u64, u64, Criticality, u64)]) -> AnalysisParams {
        AnalysisParams::new(mc_tasks(specs), WcetTable::example(), 1).unwrap()
    }

    #[test]
    fn totals_add_the_jitter_to_every_mode() {
        let b = ModeBound {
            task: TaskId(4),
            criticality: Criticality::Hi,
            jitter: Duration(7),
            lo: Duration(100),
            hi: Some(Duration(90)),
            transition: Some(Duration(130)),
        };
        assert_eq!(b.total_lo(), Duration(107));
        assert_eq!(b.total_hi(), Some(Duration(97)));
        assert_eq!(b.total_transition(), Some(Duration(137)));
        assert_eq!(b.worst_total(), Duration(137));
        // The LO bound is the worst when the HI modes are cheaper.
        let lo_worst = ModeBound {
            transition: Some(Duration(95)),
            ..b
        };
        assert_eq!(lo_worst.worst_total(), Duration(107));
    }

    #[test]
    fn lo_task_totals_have_no_hi_modes() {
        let b = ModeBound {
            task: TaskId(0),
            criticality: Criticality::Lo,
            jitter: Duration(3),
            lo: Duration(40),
            hi: None,
            transition: None,
        };
        assert_eq!(b.total_hi(), None);
        assert_eq!(b.total_transition(), None);
        assert_eq!(b.worst_total(), Duration(43));
    }

    #[test]
    fn totals_saturate_instead_of_overflowing() {
        let b = ModeBound {
            task: TaskId(0),
            criticality: Criticality::Hi,
            jitter: Duration(10),
            lo: Duration(u64::MAX - 5),
            hi: Some(Duration(u64::MAX)),
            transition: Some(Duration(u64::MAX)),
        };
        assert_eq!(b.total_lo(), Duration(u64::MAX));
        assert_eq!(b.worst_total(), Duration(u64::MAX));
    }

    #[test]
    fn result_lookup_and_iteration_follow_task_order() {
        let amc = analyse_amc(&mixed(), Duration(400_000)).unwrap();
        assert_eq!(amc.bounds().len(), 3);
        for (i, b) in amc.iter().enumerate() {
            assert_eq!(b.task, TaskId(i));
            assert_eq!(amc.bound_for(TaskId(i)), Some(b));
        }
        assert_eq!((&amc).into_iter().count(), 3);
        assert_eq!(amc.bound_for(TaskId(3)), None);
    }

    #[test]
    fn all_lo_sets_have_lo_bounds_only() {
        use Criticality::Lo;
        let p = params(&[(1, 50, 2_000, Lo, 50), (9, 20, 1_000, Lo, 20)]);
        let horizon = Duration(200_000);
        let plain = analyse(&p, horizon).unwrap();
        let amc = analyse_amc(&p, horizon).unwrap();
        for (a, b) in amc.iter().zip(plain.iter()) {
            assert_eq!((a.lo, a.hi, a.transition), (b.response_bound, None, None));
            assert_eq!(a.worst_total(), b.total_bound());
        }
    }

    #[test]
    fn hi_steady_bounds_do_not_see_lo_budgets() {
        use Criticality::{Hi, Lo};
        let horizon = Duration(400_000);
        let base = analyse_amc(&mixed(), horizon).unwrap();
        // Only the bottom LO task's C_LO grows: the supply (built from
        // release curves, not budgets) stays as it was.
        let heavier = analyse_amc(
            &params(&[
                (1, 400, 2_000, Lo, 400),
                (5, 30, 1_500, Hi, 80),
                (9, 20, 1_000, Hi, 45),
            ]),
            horizon,
        )
        .unwrap();
        for (b, h) in base.iter().zip(heavier.iter()).skip(1) {
            assert_eq!(h.hi, b.hi, "{}: LO work is suspended in HI mode", b.task);
            assert!(h.lo > b.lo, "{}: a bigger LO blocker in LO mode", b.task);
            // The switch may hit while the LO job runs: at C_LO = 400
            // it outweighs every HI blocker.
            assert!(h.transition > b.transition, "{}", b.task);
        }
    }

    #[test]
    fn transition_counts_frozen_higher_priority_lo_work() {
        use Criticality::{Hi, Lo};
        let horizon = Duration(400_000);
        let with_lo = |c_lo| {
            analyse_amc(
                &params(&[
                    (9, c_lo, 1_000, Lo, c_lo),
                    (5, 20, 1_000, Hi, 60),
                    (1, 10, 1_000, Hi, 10),
                ]),
                horizon,
            )
            .unwrap()
        };
        let (small, big) = (with_lo(40), with_lo(140));
        let (s, b) = (small.bounds()[1], big.bounds()[1]);
        // HI steady state: the LO task above is gone altogether.
        assert_eq!(s.hi, b.hi);
        // Mode change: its releases before the switch still run.
        assert!(s.transition > s.hi);
        assert!(b.transition > s.transition);
    }

    #[test]
    fn lower_priority_hi_budget_blocks_in_hi_mode() {
        use Criticality::{Hi, Lo};
        let horizon = Duration(400_000);
        let base = analyse_amc(&mixed(), horizon).unwrap();
        // τ1's C_HI grows from 80 to 200: it blocks τ2 in HI mode.
        let bigger = analyse_amc(
            &params(&[
                (1, 50, 2_000, Lo, 50),
                (5, 30, 1_500, Hi, 200),
                (9, 20, 1_000, Hi, 45),
            ]),
            horizon,
        )
        .unwrap();
        let (b, g) = (base.bounds()[2], bigger.bounds()[2]);
        assert!(g.hi > b.hi);
        assert!(g.transition > b.transition);
        assert_eq!(g.lo, b.lo, "LO mode budgets τ1 at C_LO");
    }

    #[test]
    fn the_first_failing_task_names_the_error() {
        use Criticality::Hi;
        let p = params(&[(1, 10, 1_000, Hi, 990), (9, 10, 1_000, Hi, 10)]);
        let horizon = Duration(50_000);
        assert_eq!(
            analyse_amc(&p, horizon),
            Err(RtaError::Solver(SolverError::NoConvergence {
                task: TaskId(0),
                horizon
            }))
        );
    }

    #[test]
    fn a_horizon_too_short_for_any_window_fails() {
        let horizon = Duration(10);
        assert_eq!(
            analyse_amc(&mixed(), horizon),
            Err(RtaError::Solver(SolverError::NoConvergence {
                task: TaskId(0),
                horizon
            }))
        );
    }

    #[test]
    fn amc_verdict_bounds_are_the_worst_totals() {
        let p = mixed();
        let horizon = Duration(400_000);
        let amc = analyse_amc(&p, horizon).unwrap();
        let deadlines = [Duration(2_000), Duration(1_500), Duration(1_000)];
        let s = check_amc_schedulability(&p, &deadlines, horizon).unwrap();
        for (v, b) in s.verdicts().iter().zip(amc.iter()) {
            assert_eq!(v.task, b.task);
            assert_eq!(v.bound, Some(b.worst_total()));
        }
    }

    #[test]
    fn hi_tasks_are_judged_in_every_mode() {
        let p = mixed();
        let horizon = Duration(400_000);
        let top = analyse_amc(&p, horizon).unwrap().bounds()[2];
        assert!(top.worst_total() > top.total_lo());
        // A deadline the LO bound meets but the mode change misses.
        let squeezed = [Duration(100_000), Duration(100_000), top.total_lo()];
        let s = check_amc_schedulability(&p, &squeezed, horizon).unwrap();
        assert!(!s.verdicts()[2].schedulable());
        let exact = [Duration(100_000), Duration(100_000), top.worst_total()];
        let s = check_amc_schedulability(&p, &exact, horizon).unwrap();
        assert_eq!(s.verdicts()[2].slack(), Some(Duration::ZERO));
    }

    #[test]
    fn amc_deadline_mismatch_reports_both_counts() {
        assert_eq!(
            check_amc_schedulability(&mixed(), &[Duration(1); 5], Duration(1_000)),
            Err(RtaError::DeadlineCountMismatch {
                tasks: 3,
                deadlines: 5
            })
        );
    }

    #[test]
    fn static_hi_is_the_plain_analysis_at_wcet_hi() {
        use Criticality::{Hi, Lo};
        let horizon = Duration(400_000);
        let inflated = params(&[
            (1, 50, 2_000, Lo, 50),
            (5, 80, 1_500, Hi, 80),
            (9, 45, 1_000, Hi, 45),
        ]);
        assert_eq!(
            analyse_static_hi(&mixed(), horizon),
            analyse(&inflated, horizon)
        );
    }

    #[test]
    fn static_hi_of_a_single_criticality_set_is_plain() {
        use Criticality::Hi;
        let p = params(&[(1, 50, 2_000, Hi, 50), (9, 20, 1_000, Hi, 20)]);
        let horizon = Duration(200_000);
        assert_eq!(analyse_static_hi(&p, horizon), analyse(&p, horizon));
    }
}
