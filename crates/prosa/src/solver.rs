//! The busy-window / fixed-point solver for non-preemptive fixed-priority
//! scheduling on restricted supply (§4.2).
//!
//! aRSA yields a response-time recurrence per task; its solution bounds the
//! response time of every job of the task **w.r.t. the release sequence**.
//! The recurrence solved here is the standard NPFP busy-window analysis
//! generalized to a [`SupplyBound`]:
//!
//! * **Blocking**: a lower-priority job that started just before the busy
//!   window runs to completion: `B_i = max_{P_j < P_i} C_j`.
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

use rossl_model::{ArrivalCurve, Duration, Task, TaskId, TaskSet};

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
    /// A memo scoped to one solver call, keyed by task id — the default.
    PerCall(RefCell<HashMap<(TaskId, Duration), u64>>),
}

struct Ctx<'a, S> {
    tasks: &'a TaskSet,
    curves: &'a [ReleaseCurve],
    supply: &'a S,
    horizon: Duration,
    beta_memo: BetaMemo,
}

impl<S: SupplyBound> Ctx<'_, S> {
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

    /// Σ over `others` of `β_j(Δ)·C_j`.
    fn demand<'t>(&self, others: impl Iterator<Item = &'t Task>, delta: Duration) -> Duration {
        others
            .map(|t| t.wcet().saturating_mul(self.beta(t.id(), delta)))
            .sum()
    }
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
    if curves.len() != tasks.len() {
        return Err(SolverError::CurveCountMismatch {
            tasks: tasks.len(),
            curves: curves.len(),
        });
    }
    let this = tasks
        .task(task)
        .ok_or(SolverError::UnknownTask { task })?;
    let ctx = Ctx {
        tasks,
        curves,
        supply,
        horizon,
        beta_memo: BetaMemo::PerCall(RefCell::new(HashMap::new())),
    };
    busy_window_in(&ctx, this)
}

/// [`busy_window_length`] over an already-validated context, so
/// [`npfp_response_time`] can share one `β` memo between the busy-window
/// loop and the per-offset start-time loops.
fn busy_window_in<S: SupplyBound>(ctx: &Ctx<'_, S>, this: &Task) -> Result<Duration, SolverError> {
    let task = this.id();
    let horizon = ctx.horizon;
    let blocking = ctx
        .tasks
        .lower_priority_than(task)
        .map(Task::wcet)
        .max()
        .unwrap_or(Duration::ZERO);
    let no_convergence = SolverError::NoConvergence { task, horizon };

    let mut busy = Duration(1);
    for _ in 0..MAX_ITERATIONS {
        let hep_incl_self = ctx
            .tasks
            .iter()
            .filter(|t| t.priority() >= this.priority());
        let need = blocking.saturating_add(ctx.demand(hep_incl_self, busy));
        let next = ctx
            .supply
            .inverse(need, ctx.horizon)
            .ok_or_else(|| no_convergence.clone())?
            .max(Duration(1));
        if next <= busy {
            return Ok(busy);
        }
        busy = next;
    }
    Err(SolverError::Divergent {
        task,
        iterations: MAX_ITERATIONS,
    })
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
    solve(
        tasks,
        curves,
        supply,
        task,
        horizon,
        BetaMemo::PerCall(RefCell::new(HashMap::new())),
    )
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
    solve(tasks, curves, supply, task, horizon, BetaMemo::Off)
}

fn solve(
    tasks: &TaskSet,
    curves: &[ReleaseCurve],
    supply: &impl SupplyBound,
    task: TaskId,
    horizon: Duration,
    beta_memo: BetaMemo,
) -> Result<Duration, SolverError> {
    if curves.len() != tasks.len() {
        return Err(SolverError::CurveCountMismatch {
            tasks: tasks.len(),
            curves: curves.len(),
        });
    }
    let this = tasks
        .task(task)
        .ok_or(SolverError::UnknownTask { task })?;
    let ctx = Ctx {
        tasks,
        curves,
        supply,
        horizon,
        beta_memo,
    };

    // Non-preemptive blocking by a lower-priority job.
    let blocking = ctx
        .tasks
        .lower_priority_than(task)
        .map(Task::wcet)
        .max()
        .unwrap_or(Duration::ZERO);

    let no_convergence = SolverError::NoConvergence { task, horizon };

    let busy = busy_window_in(&ctx, this)?;

    // Candidate offsets: where β_i steps, within the busy window.
    let mut offsets: Vec<Duration> = ctx.curves[task.0]
        .increase_points(busy)
        .into_iter()
        .map(|p| p - Duration(1))
        .collect();
    if offsets.is_empty() {
        offsets.push(Duration::ZERO);
    }

    let mut worst = Duration::ZERO;
    for a in offsets {
        let prior_own = ctx.beta(task, a + Duration(1)).saturating_sub(1);
        let fixed = blocking
            .saturating_add(this.wcet().saturating_mul(prior_own))
            .saturating_add(Duration(1));

        // Fixed point: least s with SBF(s) ≥ fixed + Σ_hep β_j(s+1)·C_j.
        let mut s = Duration(1);
        let mut converged = false;
        for _ in 0..MAX_ITERATIONS {
            let hep_other = ctx.tasks.equal_or_higher_priority_than(task);
            let need = fixed.saturating_add(ctx.demand(hep_other, s + Duration(1)));
            let next = ctx
                .supply
                .inverse(need, ctx.horizon)
                .ok_or_else(|| no_convergence.clone())?
                .max(Duration(1));
            if next <= s {
                converged = true;
                break;
            }
            s = next;
        }
        if !converged {
            return Err(SolverError::Divergent {
                task,
                iterations: MAX_ITERATIONS,
            });
        }
        // Busy window quiesced before this release: dominated by A = 0.
        if s <= a {
            continue;
        }
        let response = (s - Duration(1))
            .saturating_add(this.wcet())
            .saturating_sub(a);
        worst = worst.max(response);
    }

    Ok(worst)
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
}
