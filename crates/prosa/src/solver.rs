//! The busy-window / fixed-point solver for non-preemptive fixed-priority
//! scheduling on restricted supply (§4.2).
//!
//! aRSA yields a response-time recurrence per task; its solution bounds the
//! response time of every job of the task **w.r.t. the release sequence**.
//! The recurrence solved here is the standard NPFP busy-window analysis
//! generalized to a [`SupplyBound`] and to a criticality mode: in mode
//! `m`, a task the mode serves demands its budget `C_j(m)` and a task
//! the mode suspends demands nothing. The single-criticality analysis is
//! the LO-mode instance, in which every task is served at `C_LO`; the
//! three AMC-rtb bounds of [`analyse_amc`](crate::analyse_amc) are LO-
//! and HI-mode instances on the same supply. Busy window and start times are the least fixed
//! points of one loop, `x ↦ max(1, SBF⁻¹(need(x)))` from `x = 1`:
//!
//! * **Blocking**: a lower-priority job that started just before the busy
//!   window runs to completion: `B_i = max_{P_j < P_i} C_j`. It enters
//!   every window as a fixed demand term, to which the AMC mode-change
//!   bound adds its frozen LO interference.
//! * **Busy-window length** `L_i`: the least `L > 0` with
//!   `SBF(L) ≥ B_i + Σ_{P_j ≥ P_i} β_j(L)·C_j`.
//! * **Start time** for the job released at offset `A` into the busy
//!   window: the least `s` with
//!   `SBF(s) ≥ B_i + (β_i(A+1) − 1)·C_i + Σ_{j ≠ i, P_j ≥ P_i} β_j(s+1)·C_j + 1`.
//!   Counting higher-or-equal-priority releases up to `s` (not just up to
//!   the start) covers the non-preemptive race in which a job released
//!   while the scheduler is completing/polling/selecting is picked before
//!   ours; the trailing `+ 1` asks for one supply tick beyond the
//!   preceding work — that tick executes our job, so the job starts by
//!   `s − 1`.
//! * **Response**: non-preemptive execution is contiguous and overhead-free
//!   (the schedule's `Executes` state is supply), so the job finishes by
//!   `s − 1 + C_i` and `R_i(A) = s − 1 + C_i − A`; `R_i = max_A R_i(A)`
//!   over the offsets where `β_i` steps, within the busy window. Offsets
//!   with `s ≤ A` correspond to a busy window that quiesced before the
//!   release — those cases are dominated by `A = 0` of the restarted
//!   window and are skipped.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

use rossl_model::{ArrivalCurve, Duration, Mode, Task, TaskId, TaskSet};

use crate::curves::ReleaseCurve;
use crate::sbf::SupplyBound;

/// Solver failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The recurrence did not converge within the horizon: the task set is
    /// unschedulable, or the horizon is too small for the utilization.
    NoConvergence {
        /// The task under analysis.
        task: TaskId,
        /// The horizon that was exhausted.
        horizon: Duration,
    },
    /// The task id is not in the task set.
    UnknownTask {
        /// The offending id.
        task: TaskId,
    },
    /// `curves` does not provide one release curve per task.
    CurveCountMismatch {
        /// Number of tasks.
        tasks: usize,
        /// Number of curves supplied.
        curves: usize,
    },
    /// The fixed-point iteration hit its hard cap without settling *or*
    /// exhausting the horizon — the iterates grew without making the
    /// supply inverse fail. Genuine convergence happens in far fewer
    /// steps (the workload functions step at finitely many points), so
    /// this flags a degenerate input (e.g. a pathological supply or
    /// curve) rather than an unschedulable task set.
    Divergent {
        /// The task under analysis.
        task: TaskId,
        /// The iteration cap that was hit.
        iterations: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NoConvergence { task, horizon } => write!(
                f,
                "response-time recurrence for {task} did not converge within {horizon}"
            ),
            SolverError::UnknownTask { task } => write!(f, "unknown task {task}"),
            SolverError::CurveCountMismatch { tasks, curves } => {
                write!(f, "{tasks} tasks but {curves} release curves")
            }
            SolverError::Divergent { task, iterations } => write!(
                f,
                "fixed-point iteration for {task} diverged ({iterations} iterations without settling)"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// Upper bound on fixed-point iterations; the workload functions step at
/// finitely many points, so genuine convergence happens in far fewer.
const MAX_ITERATIONS: usize = 100_000;

/// How the solver memoizes `β` (curve) evaluations. Curve evaluation is
/// the hot inner operation of the fixed-point loops — every iteration
/// re-evaluates every task's curve at the trial window, and within one
/// solver call the same `(task, Δ)` pairs recur across iterations and
/// across offsets (the busy-window loop and all per-offset start-time
/// loops probe overlapping windows).
enum BetaMemo {
    /// No memoization: the reference path kept for differential testing.
    Off,
    /// A memo scoped to one [`Recurrence`], keyed by task id — the default.
    PerCall(RefCell<HashMap<(TaskId, Duration), u64>>),
}

/// The NPFP recurrence of one criticality mode over a task set (the
/// module docs give its terms). A task the mode serves demands its
/// [`wcet_in_mode`](Task::wcet_in_mode); a task the mode suspends
/// demands nothing. The single-criticality analysis is the LO-mode
/// instance, and AMC-rtb's three bounds are the LO and HI instances on
/// the same supply. Every solve on one recurrence shares its `β` memo.
pub(crate) struct Recurrence<'a, S> {
    tasks: &'a TaskSet,
    curves: &'a [ReleaseCurve],
    supply: &'a S,
    horizon: Duration,
    mode: Mode,
    beta_memo: BetaMemo,
}

impl<'a, S: SupplyBound> Recurrence<'a, S> {
    /// The recurrence of `mode`, with a fresh `β` memo.
    pub(crate) fn new(
        tasks: &'a TaskSet,
        curves: &'a [ReleaseCurve],
        supply: &'a S,
        horizon: Duration,
        mode: Mode,
    ) -> Recurrence<'a, S> {
        Recurrence {
            tasks,
            curves,
            supply,
            horizon,
            mode,
            beta_memo: BetaMemo::PerCall(RefCell::default()),
        }
    }

    fn beta(&self, task: TaskId, delta: Duration) -> u64 {
        match &self.beta_memo {
            BetaMemo::Off => self.curves[task.0].max_arrivals(delta),
            BetaMemo::PerCall(cache) => {
                if let Some(&cached) = cache.borrow().get(&(task, delta)) {
                    return cached;
                }
                let value = self.curves[task.0].max_arrivals(delta);
                cache.borrow_mut().insert((task, delta), value);
                value
            }
        }
    }

    /// Σ over the tasks of `others` that the mode serves of
    /// `β_j(Δ)·C_j(mode)`.
    pub(crate) fn demand<'t>(
        &self,
        others: impl Iterator<Item = &'t Task>,
        delta: Duration,
    ) -> Duration {
        others
            .filter(|t| self.mode.serves(t.criticality()))
            .map(|t| {
                t.wcet_in_mode(self.mode)
                    .saturating_mul(self.beta(t.id(), delta))
            })
            .sum()
    }

    /// The least fixed point of `x ↦ max(1, SBF⁻¹(need(x)))`, iterated
    /// from 1 until the iterate stops growing.
    fn least_fixed_point(
        &self,
        task: TaskId,
        need: impl Fn(Duration) -> Duration,
    ) -> Result<Duration, SolverError> {
        let mut x = Duration(1);
        for _ in 0..MAX_ITERATIONS {
            let next = self
                .supply
                .inverse(need(x), self.horizon)
                .ok_or(SolverError::NoConvergence {
                    task,
                    horizon: self.horizon,
                })?
                .max(Duration(1));
            if next <= x {
                return Ok(x);
            }
            x = next;
        }
        Err(SolverError::Divergent {
            task,
            iterations: MAX_ITERATIONS,
        })
    }

    /// The level-`this` busy-window length: the least `L > 0` with
    /// `SBF(L) ≥ fixed + Σ_{P_j ≥ P_i} β_j(L)·C_j`.
    fn busy_window(&self, this: &Task, fixed: Duration) -> Result<Duration, SolverError> {
        self.least_fixed_point(this.id(), |busy| {
            let hep_incl_self = self
                .tasks
                .iter()
                .filter(|t| t.priority() >= this.priority());
            fixed.saturating_add(self.demand(hep_incl_self, busy))
        })
    }

    /// The response-time bound of `this` w.r.t. the release sequence,
    /// with `fixed` (the blocking, plus any frozen interference) added to
    /// the demand of every window.
    pub(crate) fn response_time(
        &self,
        this: &Task,
        fixed: Duration,
    ) -> Result<Duration, SolverError> {
        let task = this.id();
        let own = this.wcet_in_mode(self.mode);
        let busy = self.busy_window(this, fixed)?;

        // Candidate offsets: where β_i steps, within the busy window.
        let mut steps = self.curves[task.0].increase_points(busy);
        if steps.is_empty() {
            steps.push(Duration(1));
        }

        let mut worst = Duration::ZERO;
        for a in steps.into_iter().map(|p| p - Duration(1)) {
            let prior_own = self.beta(task, a + Duration(1)).saturating_sub(1);
            let start_fixed = fixed
                .saturating_add(own.saturating_mul(prior_own))
                .saturating_add(Duration(1));
            // Least s with SBF(s) ≥ start_fixed + Σ_hep β_j(s+1)·C_j.
            let s = self.least_fixed_point(task, |s| {
                let hep_other = self.tasks.equal_or_higher_priority_than(task);
                start_fixed.saturating_add(self.demand(hep_other, s + Duration(1)))
            })?;
            // Busy window quiesced before this release: dominated by A = 0.
            if s <= a {
                continue;
            }
            worst = worst.max((s - Duration(1)).saturating_add(own).saturating_sub(a));
        }
        Ok(worst)
    }
}

/// Non-preemptive blocking of `task` in `mode`: the largest budget of a
/// lower-priority task the mode serves (`B_i = max_{P_j < P_i} C_j` in
/// LO mode).
pub(crate) fn blocking(tasks: &TaskSet, task: TaskId, mode: Mode) -> Duration {
    tasks
        .lower_priority_than(task)
        .filter(|t| mode.serves(t.criticality()))
        .map(|t| t.wcet_in_mode(mode))
        .max()
        .unwrap_or(Duration::ZERO)
}

/// The LO-mode recurrence of `task` on validated inputs, with its
/// blocking as the fixed demand term.
fn lo_recurrence<'a, S: SupplyBound>(
    tasks: &'a TaskSet,
    curves: &'a [ReleaseCurve],
    supply: &'a S,
    task: TaskId,
    horizon: Duration,
) -> Result<(Recurrence<'a, S>, &'a Task, Duration), SolverError> {
    if curves.len() != tasks.len() {
        return Err(SolverError::CurveCountMismatch {
            tasks: tasks.len(),
            curves: curves.len(),
        });
    }
    let this = tasks.task(task).ok_or(SolverError::UnknownTask { task })?;
    let recurrence = Recurrence::new(tasks, curves, supply, horizon, Mode::Lo);
    Ok((recurrence, this, blocking(tasks, task, Mode::Lo)))
}

/// The level-`task` busy-window length `L_i`: the least `L > 0` with
/// `SBF(L) ≥ B_i + Σ_{P_j ≥ P_i} β_j(L)·C_j`. Any level-`i` busy interval
/// of the (release-sequence) schedule is shorter than `L_i`; the solver
/// searches job offsets within it, and experiment E15 compares it against
/// measured busy spans.
///
/// # Errors
///
/// Same failure modes as [`npfp_response_time`].
pub fn busy_window_length(
    tasks: &TaskSet,
    curves: &[ReleaseCurve],
    supply: &impl SupplyBound,
    task: TaskId,
    horizon: Duration,
) -> Result<Duration, SolverError> {
    let (lo, this, blocking) = lo_recurrence(tasks, curves, supply, task, horizon)?;
    lo.busy_window(this, blocking)
}

/// The aRSA-style response-time bound `R_i` for `task`, **w.r.t. the
/// release sequence**. Add the jitter bound (Thm. 4.2) to obtain the bound
/// w.r.t. the arrival sequence.
///
/// # Errors
///
/// * [`SolverError::NoConvergence`] when the recurrence exceeds `horizon`
///   (unschedulable or horizon too small);
/// * [`SolverError::Divergent`] when the iteration cap is hit without the
///   horizon ever being exhausted (a degenerate supply or curve);
/// * [`SolverError::UnknownTask`] / [`SolverError::CurveCountMismatch`]
///   for malformed inputs.
pub fn npfp_response_time(
    tasks: &TaskSet,
    curves: &[ReleaseCurve],
    supply: &impl SupplyBound,
    task: TaskId,
    horizon: Duration,
) -> Result<Duration, SolverError> {
    let (lo, this, blocking) = lo_recurrence(tasks, curves, supply, task, horizon)?;
    lo.response_time(this, blocking)
}

/// The memoization-free reference path of [`npfp_response_time`]: bit-for
/// bit the same recurrence, re-evaluating every curve instead of caching.
/// Exists so regression tests and benchmarks can difference the memoized
/// solver against it; there is no other reason to call it.
///
/// # Errors
///
/// As [`npfp_response_time`].
pub fn npfp_response_time_uncached(
    tasks: &TaskSet,
    curves: &[ReleaseCurve],
    supply: &impl SupplyBound,
    task: TaskId,
    horizon: Duration,
) -> Result<Duration, SolverError> {
    let (mut lo, this, blocking) = lo_recurrence(tasks, curves, supply, task, horizon)?;
    lo.beta_memo = BetaMemo::Off;
    lo.response_time(this, blocking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::release_curves;
    use crate::sbf::IdealSupply;
    use rossl_model::{Curve, Priority, Task, TaskSet};

    fn ts(specs: &[(u32, u64, u64)]) -> TaskSet {
        // (priority, wcet, sporadic period)
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(p, c, t))| {
                    Task::new(
                        TaskId(i),
                        format!("t{i}"),
                        Priority(p),
                        Duration(c),
                        Curve::sporadic(Duration(t)),
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    fn solve_ideal(tasks: &TaskSet, task: usize) -> Duration {
        let curves = release_curves(tasks, Duration::ZERO);
        npfp_response_time(tasks, &curves, &IdealSupply, TaskId(task), Duration(1_000_000))
            .unwrap()
    }

    #[test]
    fn lone_task_responds_in_its_wcet() {
        let tasks = ts(&[(1, 10, 100)]);
        assert_eq!(solve_ideal(&tasks, 0), Duration(10));
    }

    #[test]
    fn blocking_by_lower_priority() {
        // high (prio 9, C=5) blocked by low (prio 1, C=10): R = 10 + 5.
        let tasks = ts(&[(1, 10, 1000), (9, 5, 500)]);
        assert_eq!(solve_ideal(&tasks, 1), Duration(15));
    }

    #[test]
    fn interference_on_lower_priority() {
        // low: waits for one high job then runs: R = 5 + 10.
        let tasks = ts(&[(1, 10, 1000), (9, 5, 500)]);
        assert_eq!(solve_ideal(&tasks, 0), Duration(15));
    }

    #[test]
    fn backlog_from_own_task() {
        // One task, C = 6, T = 10, U = 0.6: single-job busy window, R = 6.
        assert_eq!(solve_ideal(&ts(&[(1, 6, 10)]), 0), Duration(6));
        // C = 8, T = 10: still converges; job k starts after k·8: busy
        // window 40 = lcm effects; the worst response stays 8 because each
        // job finishes before the next release? No: job 2 released at 10,
        // starts at 8... the busy window iterates: L: SBF(L) ≥ ⌈L/10⌉·8
        // → L = 40. Offsets A ∈ {0, 10, 20, 30}: s(A) = 8·k + 1 for
        // k = A/10 priors... R = max_k (8(k+1) − 10k) = 8 at k = 0.
        assert_eq!(solve_ideal(&ts(&[(1, 8, 10)]), 0), Duration(8));
        // C = 9, T = 10: R = max_k (9(k+1) − 10k) = 9.
        assert_eq!(solve_ideal(&ts(&[(1, 9, 10)]), 0), Duration(9));
    }

    #[test]
    fn self_backlog_with_blocking_shifts_later_jobs() {
        // high: C=4 T=10; low blocking C=9. Job k of high starts after
        // 9 (blocking) + 4k: responses 13−0, 17−10<13 … R = 13.
        let tasks = ts(&[(1, 9, 1_000_000), (9, 4, 10)]);
        assert_eq!(solve_ideal(&tasks, 1), Duration(13));
    }

    #[test]
    fn equal_priorities_interfere_both_ways() {
        let tasks = ts(&[(5, 4, 100), (5, 6, 100)]);
        // Each can be preceded by the other (FIFO tie-break unknown to the
        // analysis): R_0 = 6 + 4 = 10, R_1 = 4 + 6 = 10.
        assert_eq!(solve_ideal(&tasks, 0), Duration(10));
        assert_eq!(solve_ideal(&tasks, 1), Duration(10));
    }

    #[test]
    fn overload_is_reported() {
        let tasks = ts(&[(1, 11, 10)]); // U = 1.1
        let curves = release_curves(&tasks, Duration::ZERO);
        assert!(matches!(
            npfp_response_time(&tasks, &curves, &IdealSupply, TaskId(0), Duration(10_000)),
            Err(SolverError::NoConvergence { .. })
        ));
    }

    #[test]
    fn runaway_supply_is_flagged_as_divergent() {
        // A (deliberately broken) supply whose inverse always answers with
        // a larger window instead of admitting defeat at the horizon. The
        // iterates then grow forever; the cap must convert that into a
        // typed `Divergent`, not an endless loop or a misleading
        // `NoConvergence`.
        struct RunawaySupply;
        impl SupplyBound for RunawaySupply {
            fn sbf(&self, _delta: Duration) -> Duration {
                Duration::ZERO
            }
            fn inverse(&self, supply: Duration, _cap: Duration) -> Option<Duration> {
                Some(supply.saturating_add(Duration(1)))
            }
        }
        // C = T = 1: demand grows linearly with the window, so the
        // iterates creep upward one tick at a time and hit the cap long
        // before the (infinite) horizon or integer saturation.
        let tasks = ts(&[(1, 1, 1)]);
        let curves = release_curves(&tasks, Duration::ZERO);
        assert!(matches!(
            busy_window_length(&tasks, &curves, &RunawaySupply, TaskId(0), Duration(u64::MAX)),
            Err(SolverError::Divergent { task: TaskId(0), .. })
        ));
        assert!(matches!(
            npfp_response_time(&tasks, &curves, &RunawaySupply, TaskId(0), Duration(u64::MAX)),
            Err(SolverError::Divergent { task: TaskId(0), .. })
        ));
    }

    #[test]
    fn jitter_inflates_interference() {
        let tasks = ts(&[(1, 10, 1000), (9, 5, 30)]);
        let no_jitter = {
            let curves = release_curves(&tasks, Duration::ZERO);
            npfp_response_time(&tasks, &curves, &IdealSupply, TaskId(0), Duration(100_000))
                .unwrap()
        };
        let with_jitter = {
            let curves = release_curves(&tasks, Duration(25));
            npfp_response_time(&tasks, &curves, &IdealSupply, TaskId(0), Duration(100_000))
                .unwrap()
        };
        assert!(with_jitter >= no_jitter);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let tasks = ts(&[(1, 5, 100)]);
        let curves = release_curves(&tasks, Duration::ZERO);
        assert!(matches!(
            npfp_response_time(&tasks, &curves, &IdealSupply, TaskId(9), Duration(1_000)),
            Err(SolverError::UnknownTask { .. })
        ));
        assert!(matches!(
            npfp_response_time(&tasks, &[], &IdealSupply, TaskId(0), Duration(1_000)),
            Err(SolverError::CurveCountMismatch { .. })
        ));
    }

    #[test]
    fn memoized_solver_matches_uncached_reference() {
        let sets = [
            ts(&[(1, 10, 100)]),
            ts(&[(1, 10, 1000), (9, 5, 500)]),
            ts(&[(5, 4, 100), (5, 6, 100)]),
            ts(&[(1, 9, 10)]),
            ts(&[(1, 10, 200), (9, 7, 100), (4, 3, 50)]),
        ];
        for tasks in &sets {
            for jitter in [Duration::ZERO, Duration(25)] {
                let curves = release_curves(tasks, jitter);
                for t in 0..tasks.len() {
                    let cached = npfp_response_time(
                        tasks,
                        &curves,
                        &IdealSupply,
                        TaskId(t),
                        Duration(1_000_000),
                    );
                    let uncached = npfp_response_time_uncached(
                        tasks,
                        &curves,
                        &IdealSupply,
                        TaskId(t),
                        Duration(1_000_000),
                    );
                    assert_eq!(cached, uncached, "task {t}, jitter {jitter}");
                }
            }
        }
        // Error verdicts agree too.
        let overload = ts(&[(1, 11, 10)]);
        let curves = release_curves(&overload, Duration::ZERO);
        assert_eq!(
            npfp_response_time(&overload, &curves, &IdealSupply, TaskId(0), Duration(10_000)),
            npfp_response_time_uncached(&overload, &curves, &IdealSupply, TaskId(0), Duration(10_000)),
        );
    }

    #[test]
    fn bounds_are_monotone_in_wcet() {
        let base = solve_ideal(&ts(&[(1, 10, 200), (9, 5, 100)]), 0);
        let bigger = solve_ideal(&ts(&[(1, 10, 200), (9, 7, 100)]), 0);
        assert!(bigger >= base);
    }

    /// Four tasks, all sporadic with period 1,000 (priority, C_LO,
    /// criticality, C_HI): a LO task on top, a HI task below it, a LO
    /// task at the bottom and a HI task just above that.
    fn mixed() -> TaskSet {
        use rossl_model::Criticality::{Hi, Lo};
        let specs = [
            (9, 20, Lo, 20),
            (5, 10, Hi, 30),
            (1, 40, Lo, 40),
            (2, 5, Hi, 15),
        ];
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(p, c, crit, ch))| {
                    Task::new(
                        TaskId(i),
                        format!("t{i}"),
                        Priority(p),
                        Duration(c),
                        Curve::sporadic(Duration(1_000)),
                    )
                    .with_criticality(crit)
                    .with_wcet_hi(Duration(ch))
                })
                .collect(),
        )
        .unwrap()
    }

    fn ideal_recurrence<'a>(
        tasks: &'a TaskSet,
        curves: &'a [ReleaseCurve],
        horizon: u64,
        mode: Mode,
    ) -> Recurrence<'a, IdealSupply> {
        Recurrence::new(tasks, curves, &IdealSupply, Duration(horizon), mode)
    }

    #[test]
    fn lo_blocking_is_the_largest_lower_priority_wcet() {
        let tasks = mixed();
        // τ0 sits above every other task; τ1 above τ2 and τ3.
        assert_eq!(blocking(&tasks, TaskId(0), Mode::Lo), Duration(40));
        assert_eq!(blocking(&tasks, TaskId(1), Mode::Lo), Duration(40));
        assert_eq!(blocking(&tasks, TaskId(3), Mode::Lo), Duration(40));
        // Nothing runs below the lowest-priority task.
        assert_eq!(blocking(&tasks, TaskId(2), Mode::Lo), Duration::ZERO);
    }

    #[test]
    fn hi_blocking_counts_lower_priority_hi_tasks_at_wcet_hi() {
        let tasks = mixed();
        // The suspended LO task τ2 cannot block; τ3 blocks at C_HI = 15.
        assert_eq!(blocking(&tasks, TaskId(1), Mode::Hi), Duration(15));
        assert_eq!(blocking(&tasks, TaskId(0), Mode::Hi), Duration(30));
        assert_eq!(blocking(&tasks, TaskId(3), Mode::Hi), Duration::ZERO);
    }

    #[test]
    fn equal_priority_tasks_do_not_block_each_other() {
        // Equal priorities interfere (both ways) but never block.
        let tasks = ts(&[(5, 4, 100), (5, 60, 100), (1, 7, 100)]);
        assert_eq!(blocking(&tasks, TaskId(0), Mode::Lo), Duration(7));
        assert_eq!(blocking(&tasks, TaskId(1), Mode::Lo), Duration(7));
    }

    #[test]
    fn demand_counts_served_tasks_at_their_mode_budget() {
        let tasks = mixed();
        let curves = release_curves(&tasks, Duration::ZERO);
        let lo = ideal_recurrence(&tasks, &curves, 10_000, Mode::Lo);
        let hi = ideal_recurrence(&tasks, &curves, 10_000, Mode::Hi);
        // One release each within 1 tick: LO serves all four at C_LO,
        // HI serves τ1 and τ3 at C_HI.
        assert_eq!(
            lo.demand(tasks.iter(), Duration(1)),
            Duration(20 + 10 + 40 + 5)
        );
        assert_eq!(hi.demand(tasks.iter(), Duration(1)), Duration(30 + 15));
        // Two releases each within 1,001 ticks.
        assert_eq!(lo.demand(tasks.iter(), Duration(1_001)), Duration(150));
        assert_eq!(hi.demand(tasks.iter(), Duration(1_001)), Duration(90));
        // No release in an empty window.
        assert_eq!(lo.demand(tasks.iter(), Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn lo_mode_recurrence_is_the_plain_solver() {
        let tasks = mixed();
        let curves = release_curves(&tasks, Duration::ZERO);
        let lo = ideal_recurrence(&tasks, &curves, 1_000_000, Mode::Lo);
        for task in tasks.iter() {
            let via_recurrence = lo.response_time(task, blocking(&tasks, task.id(), Mode::Lo));
            assert_eq!(
                via_recurrence,
                Ok(solve_ideal(&tasks, task.id().0)),
                "{}",
                task.id()
            );
        }
        // τ1: blocked by τ2 (40), preceded by τ0 (20), then runs for 10.
        assert_eq!(solve_ideal(&tasks, 1), Duration(70));
    }

    #[test]
    fn hi_mode_sheds_lo_tasks_and_budgets_wcet_hi() {
        let tasks = mixed();
        let curves = release_curves(&tasks, Duration::ZERO);
        let hi = ideal_recurrence(&tasks, &curves, 1_000_000, Mode::Hi);
        let t1 = tasks.task(TaskId(1)).unwrap();
        // τ0 (LO, above) is suspended; τ3 blocks at 15; τ1 runs for 30.
        assert_eq!(
            hi.response_time(t1, blocking(&tasks, TaskId(1), Mode::Hi)),
            Ok(Duration(45))
        );
        let t3 = tasks.task(TaskId(3)).unwrap();
        // τ3 waits for τ1 at C_HI and nothing blocks it in HI mode.
        assert_eq!(hi.response_time(t3, Duration::ZERO), Ok(Duration(45)));
    }

    #[test]
    fn fixed_demand_term_delays_the_response_tick_for_tick() {
        let tasks = mixed();
        let curves = release_curves(&tasks, Duration::ZERO);
        let lo = ideal_recurrence(&tasks, &curves, 1_000_000, Mode::Lo);
        let t1 = tasks.task(TaskId(1)).unwrap();
        let base = lo.response_time(t1, Duration(40)).unwrap();
        assert_eq!(
            lo.response_time(t1, Duration(140)),
            Ok(base + Duration(100))
        );
    }

    #[test]
    fn least_fixed_point_starts_at_one_tick() {
        let tasks = ts(&[(1, 1, 10)]);
        let curves = release_curves(&tasks, Duration::ZERO);
        let r = ideal_recurrence(&tasks, &curves, 100, Mode::Lo);
        // A need of zero is met at once, but the window is raised to 1.
        assert_eq!(
            r.least_fixed_point(TaskId(0), |_| Duration::ZERO),
            Ok(Duration(1))
        );
    }

    #[test]
    fn least_fixed_point_climbs_until_the_iterate_stops_growing() {
        let tasks = ts(&[(1, 1, 10)]);
        let curves = release_curves(&tasks, Duration::ZERO);
        let r = ideal_recurrence(&tasks, &curves, 100, Mode::Lo);
        // 1, 6, 11, …, 46, then 50 twice.
        let capped = r.least_fixed_point(TaskId(0), |x| (x + Duration(5)).min(Duration(50)));
        assert_eq!(capped, Ok(Duration(50)));
        // An iterate whose successor is smaller is already the answer.
        let shrinking = r.least_fixed_point(TaskId(0), |x| {
            if x == Duration(1) {
                Duration(10)
            } else {
                Duration(5)
            }
        });
        assert_eq!(shrinking, Ok(Duration(10)));
    }

    #[test]
    fn least_fixed_point_reports_an_exhausted_horizon() {
        let tasks = ts(&[(1, 1, 10)]);
        let curves = release_curves(&tasks, Duration::ZERO);
        let r = ideal_recurrence(&tasks, &curves, 100, Mode::Lo);
        assert_eq!(
            r.least_fixed_point(TaskId(0), |x| x + Duration(1)),
            Err(SolverError::NoConvergence {
                task: TaskId(0),
                horizon: Duration(100)
            })
        );
    }

    #[test]
    fn busy_window_covers_blocking_and_higher_priority_work() {
        let tasks = mixed();
        let curves = release_curves(&tasks, Duration::ZERO);
        let horizon = Duration(1_000_000);
        let window = |t| busy_window_length(&tasks, &curves, &IdealSupply, TaskId(t), horizon);
        // τ0: blocking 40 + its own 20.
        assert_eq!(window(0), Ok(Duration(60)));
        // τ1: blocking 40 + τ0's 20 + its own 10.
        assert_eq!(window(1), Ok(Duration(70)));
        // τ2, lowest: every task once, no blocking.
        assert_eq!(window(2), Ok(Duration(75)));
    }

    #[test]
    fn busy_window_spans_jobs_released_while_blocked() {
        // high: C = 4, T = 10, blocked by low's 9. Its second job arrives
        // at 10, before the first window closes at 13: L = 9 + 2·4.
        let tasks = ts(&[(1, 9, 1_000_000), (9, 4, 10)]);
        let curves = release_curves(&tasks, Duration::ZERO);
        assert_eq!(
            busy_window_length(&tasks, &curves, &IdealSupply, TaskId(1), Duration(1_000)),
            Ok(Duration(17))
        );
        // A job that finishes before the next release closes its window.
        let alone = ts(&[(1, 8, 10)]);
        let curves = release_curves(&alone, Duration::ZERO);
        assert_eq!(
            busy_window_length(&alone, &curves, &IdealSupply, TaskId(0), Duration(1_000)),
            Ok(Duration(8))
        );
    }

    #[test]
    fn response_never_exceeds_the_busy_window() {
        let sets = [
            ts(&[(1, 10, 100)]),
            ts(&[(1, 8, 10)]),
            ts(&[(1, 9, 1_000_000), (9, 4, 10)]),
            ts(&[(1, 10, 200), (9, 7, 100), (4, 3, 50)]),
            mixed(),
        ];
        for tasks in &sets {
            let curves = release_curves(tasks, Duration::ZERO);
            for t in 0..tasks.len() {
                let id = TaskId(t);
                let horizon = Duration(1_000_000);
                let busy = busy_window_length(tasks, &curves, &IdealSupply, id, horizon).unwrap();
                let response =
                    npfp_response_time(tasks, &curves, &IdealSupply, id, horizon).unwrap();
                assert!(response <= busy, "{id}: R = {response}, L = {busy}");
            }
        }
    }

    #[test]
    fn busy_window_rejects_malformed_inputs_and_overload() {
        let tasks = ts(&[(1, 11, 10)]);
        let curves = release_curves(&tasks, Duration::ZERO);
        let horizon = Duration(10_000);
        assert_eq!(
            busy_window_length(&tasks, &curves, &IdealSupply, TaskId(0), horizon),
            Err(SolverError::NoConvergence {
                task: TaskId(0),
                horizon
            })
        );
        assert_eq!(
            busy_window_length(&tasks, &curves, &IdealSupply, TaskId(3), horizon),
            Err(SolverError::UnknownTask { task: TaskId(3) })
        );
        assert_eq!(
            busy_window_length(&tasks, &[], &IdealSupply, TaskId(0), horizon),
            Err(SolverError::CurveCountMismatch {
                tasks: 1,
                curves: 0
            })
        );
    }

    #[test]
    fn restricted_supply_only_lengthens_responses() {
        use crate::blackout::BlackoutBound;
        use crate::sbf::RosslSupply;
        use rossl_model::WcetTable;
        let tasks = mixed();
        let curves = release_curves(&tasks, Duration::ZERO);
        let horizon = Duration(200_000);
        let blackout = BlackoutBound::new(
            &tasks,
            curves.clone(),
            rossl_model::OverheadBounds::derive(&WcetTable::example(), 1),
        );
        let restricted = RosslSupply::new(blackout, horizon);
        for t in 0..tasks.len() {
            let ideal = npfp_response_time(&tasks, &curves, &IdealSupply, TaskId(t), horizon);
            let real = npfp_response_time(&tasks, &curves, &restricted, TaskId(t), horizon);
            assert!(real.unwrap() > ideal.unwrap(), "τ{t}");
        }
    }

    #[test]
    fn solver_errors_name_what_failed() {
        assert_eq!(
            SolverError::NoConvergence {
                task: TaskId(2),
                horizon: Duration(500)
            }
            .to_string(),
            "response-time recurrence for τ2 did not converge within 500Δ"
        );
        assert_eq!(
            SolverError::UnknownTask { task: TaskId(7) }.to_string(),
            "unknown task τ7"
        );
        assert_eq!(
            SolverError::CurveCountMismatch {
                tasks: 3,
                curves: 1
            }
            .to_string(),
            "3 tasks but 1 release curves"
        );
        assert_eq!(
            SolverError::Divergent {
                task: TaskId(0),
                iterations: MAX_ITERATIONS
            }
            .to_string(),
            "fixed-point iteration for τ0 diverged (100000 iterations without settling)"
        );
    }
}
