//! The blackout bound (§4.4).
//!
//! aRSA models Rössl's overheads as *blackouts*: time in which the
//! processor supplies no service to jobs. `BlackoutBound(Δ)` upper-bounds
//! the blackout in any window of length `Δ` inside a busy window, by
//! attributing every overhead state to a job (§2.4) and bounding the number
//! of jobs whose overhead can intersect the window:
//!
//! * each such job contributes at most
//!   `K = RB + PB + SB + DB + CB` of overhead over its whole lifecycle;
//! * the jobs are (i) jobs *released* inside the window — at most
//!   `Σ_i β_i(Δ)` by the release curves — plus (ii) at most one job per
//!   task whose lifecycle straddles the window boundary (a job read just
//!   before the window can still dispatch inside it), plus (iii) one
//!   carried-in lower-priority blocking job (non-preemptivity admits at
//!   most one).
//!
//! The paper splits the bound into `TRB` (read overheads) and `NRB`
//! (non-read overheads) and proves it in Rocq against the validity
//! constraints; its exact constants live in the appendix. The constants
//! here follow the busy-window argument above and are validated
//! experimentally: the `sbf-soundness` experiment (E6) checks measured
//! blackout in every window of every simulated schedule against this
//! bound, including under saturating workloads and worst-case costs.

use std::fmt;

use rossl_model::{ArrivalCurve, Duration, OverheadBounds, TaskSet, WcetTable};

use crate::curves::ReleaseCurve;

/// The per-interval blackout bound `BlackoutBound(Δ) = TRB(Δ) + NRB(Δ)`.
///
/// Two counting scopes are supported:
///
/// * the **standard** bound counts every task's releases for both `TRB`
///   and `NRB` — sound in any busy window;
/// * the **per-task (tight)** bound ([`BlackoutBound::for_task`]) keeps
///   all tasks in `TRB` (every arriving message is read, regardless of
///   priority) but counts only *higher-or-equal-priority* releases in
///   `NRB`: within a busy window of the analysed task — defined on the
///   jitter-adjusted release sequence, where priority-policy compliance
///   holds (§4.3) — at most one lower-priority job (the blocking carry-in)
///   dispatches, so only hep jobs contribute polling/selection/dispatch/
///   completion overheads. This mirrors aRSA's per-task instantiation and
///   yields strictly tighter supply bounds for high-priority tasks
///   (experiment E14).
#[derive(Debug, Clone)]
pub struct BlackoutBound {
    /// Curves counted for read overheads (always all tasks).
    curves: Vec<ReleaseCurve>,
    /// Curves counted for dispatch-cycle overheads (all tasks, or hep-only
    /// in per-task mode).
    dispatch_curves: Vec<ReleaseCurve>,
    bounds: OverheadBounds,
}

impl BlackoutBound {
    /// Builds the bound for a task set with the given release `curves`
    /// (one per task, in task order) and derived overhead `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `curves` does not have one entry per task.
    pub fn new(tasks: &TaskSet, curves: Vec<ReleaseCurve>, bounds: OverheadBounds) -> BlackoutBound {
        assert_eq!(
            curves.len(),
            tasks.len(),
            "one release curve per task required"
        );
        BlackoutBound {
            dispatch_curves: curves.clone(),
            curves,
            bounds,
        }
    }

    /// Convenience constructor from the raw analysis parameters.
    pub fn for_config(tasks: &TaskSet, wcet: &WcetTable, n_sockets: usize) -> BlackoutBound {
        let bounds = OverheadBounds::derive(wcet, n_sockets);
        let jitter = bounds.max_release_jitter();
        let curves = crate::curves::release_curves(tasks, jitter);
        BlackoutBound::new(tasks, curves, bounds)
    }

    /// The per-task (tight) bound for analysing `task`: dispatch-cycle
    /// overheads count only tasks with priority ≥ `task`'s (plus one
    /// blocking carry-in and one boundary job per hep task); read
    /// overheads keep every task. See the type-level docs for the
    /// soundness argument.
    pub fn for_task(
        tasks: &TaskSet,
        wcet: &WcetTable,
        n_sockets: usize,
        task: rossl_model::TaskId,
    ) -> BlackoutBound {
        BlackoutBound::for_config(tasks, wcet, n_sockets).hep_of(tasks, task)
    }

    /// This bound with its dispatch curves filtered to the tasks of
    /// priority ≥ `task`'s: [`for_task`](BlackoutBound::for_task) on the
    /// curves already built.
    pub(crate) fn hep_of(&self, tasks: &TaskSet, task: rossl_model::TaskId) -> BlackoutBound {
        let this_priority = tasks.task(task).expect("task is in the set").priority();
        let dispatch_curves = tasks
            .iter()
            .zip(&self.curves)
            .filter(|(t, _)| t.priority() >= this_priority)
            .map(|(_, c)| c.clone())
            .collect();
        BlackoutBound {
            curves: self.curves.clone(),
            dispatch_curves,
            bounds: self.bounds,
        }
    }

    /// `TRB(Δ)`: bound on blackout caused by `ReadOvh` instances.
    pub fn trb(&self, delta: Duration) -> Duration {
        self.bounds
            .read
            .saturating_mul(jobs_in_window(&self.curves, delta))
    }

    /// `NRB(Δ)`: bound on blackout caused by `PollingOvh`, `SelectionOvh`,
    /// `DispatchOvh` and `CompletionOvh` instances.
    pub fn nrb(&self, delta: Duration) -> Duration {
        self.bounds
            .per_dispatch()
            .saturating_mul(jobs_in_window(&self.dispatch_curves, delta))
    }

    /// `BlackoutBound(Δ) = TRB(Δ) + NRB(Δ)`.
    pub fn bound(&self, delta: Duration) -> Duration {
        self.trb(delta).saturating_add(self.nrb(delta))
    }

    /// The window lengths at which the bound increases (the increase
    /// points of the summed release curves), used to evaluate
    /// `SBF` efficiently.
    pub fn increase_points(&self, horizon: Duration) -> Vec<Duration> {
        let mut pts: Vec<Duration> = self
            .curves
            .iter()
            .flat_map(|c| c.increase_points(horizon))
            .collect();
        pts.sort();
        pts.dedup();
        pts
    }

    /// The derived overhead bounds in use.
    pub fn overhead_bounds(&self) -> &OverheadBounds {
        &self.bounds
    }
}

/// Number of jobs counted by `curves` whose overhead may intersect a
/// window of length `delta`: those released in it, plus one boundary job
/// per curve and one blocking carry-in.
fn jobs_in_window(curves: &[ReleaseCurve], delta: Duration) -> u64 {
    let released: u64 = curves
        .iter()
        .map(|c| c.max_arrivals(delta))
        .fold(0, u64::saturating_add);
    released.saturating_add(curves.len() as u64 + 1)
}

impl fmt::Display for BlackoutBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BlackoutBound({} tasks, {} straddlers, {})",
            self.curves.len(),
            self.curves.len() + 1,
            self.bounds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Priority, Task, TaskId};

    fn setup() -> BlackoutBound {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "a",
                Priority(1),
                Duration(10),
                Curve::sporadic(Duration(100)),
            ),
            Task::new(
                TaskId(1),
                "b",
                Priority(2),
                Duration(5),
                Curve::sporadic(Duration(60)),
            ),
        ])
        .unwrap();
        BlackoutBound::for_config(&tasks, &WcetTable::example(), 1)
    }

    #[test]
    fn bound_is_monotone() {
        let bb = setup();
        let mut prev = Duration::ZERO;
        for d in 0..500u64 {
            let v = bb.bound(Duration(d));
            assert!(v >= prev, "not monotone at Δ = {d}");
            prev = v;
        }
    }

    #[test]
    fn bound_splits_into_trb_and_nrb() {
        let bb = setup();
        for d in [0u64, 1, 50, 200] {
            let d = Duration(d);
            assert_eq!(bb.bound(d), bb.trb(d) + bb.nrb(d));
        }
    }

    #[test]
    fn zero_window_still_charges_straddlers() {
        // The bound is pessimistic near zero (carry-in jobs), which is
        // sound; SBF clamps the resulting negative supply at zero.
        let bb = setup();
        let per_job = bb.overhead_bounds().read + bb.overhead_bounds().per_dispatch();
        assert_eq!(bb.bound(Duration::ZERO), per_job.saturating_mul(3)); // 2 tasks + 1
    }

    fn tasks() -> TaskSet {
        // Three priorities, the middle one shared by two tasks.
        TaskSet::new(
            [(1, 100), (5, 60), (5, 250), (9, 40)]
                .iter()
                .enumerate()
                .map(|(i, &(p, t))| {
                    Task::new(
                        TaskId(i),
                        format!("t{i}"),
                        Priority(p),
                        Duration(5),
                        Curve::sporadic(Duration(t)),
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn for_config_is_new_over_jittered_release_curves() {
        let tasks = tasks();
        let wcet = WcetTable::example();
        let bounds = OverheadBounds::derive(&wcet, 2);
        let curves = crate::curves::release_curves(&tasks, bounds.max_release_jitter());
        let by_hand = BlackoutBound::new(&tasks, curves, bounds);
        let derived = BlackoutBound::for_config(&tasks, &wcet, 2);
        for d in 0..600u64 {
            assert_eq!(
                derived.bound(Duration(d)),
                by_hand.bound(Duration(d)),
                "Δ = {d}"
            );
        }
    }

    #[test]
    fn for_task_filters_the_dispatch_curves_of_for_config() {
        let tasks = tasks();
        let wcet = WcetTable::example();
        let standard = BlackoutBound::for_config(&tasks, &wcet, 1);
        for t in 0..tasks.len() {
            let per_task = BlackoutBound::for_task(&tasks, &wcet, 1, TaskId(t));
            let filtered = standard.hep_of(&tasks, TaskId(t));
            for d in 0..600u64 {
                assert_eq!(per_task.bound(Duration(d)), filtered.bound(Duration(d)));
            }
        }
    }

    #[test]
    fn per_task_bound_keeps_every_read_and_fewer_dispatches() {
        let tasks = tasks();
        let wcet = WcetTable::example();
        let standard = BlackoutBound::for_config(&tasks, &wcet, 1);
        let top = BlackoutBound::for_task(&tasks, &wcet, 1, TaskId(3));
        for d in 0..600u64 {
            let d = Duration(d);
            assert_eq!(top.trb(d), standard.trb(d), "every message is read");
            assert!(top.nrb(d) < standard.nrb(d), "Δ = {d}");
        }
    }

    #[test]
    fn the_lowest_priority_task_sees_the_standard_bound() {
        let tasks = tasks();
        let wcet = WcetTable::example();
        let standard = BlackoutBound::for_config(&tasks, &wcet, 1);
        let bottom = BlackoutBound::for_task(&tasks, &wcet, 1, TaskId(0));
        for d in 0..600u64 {
            assert_eq!(bottom.bound(Duration(d)), standard.bound(Duration(d)));
        }
    }

    #[test]
    fn the_top_task_counts_its_own_dispatch_cycles_only() {
        let tasks = tasks();
        let wcet = WcetTable::example();
        let top = BlackoutBound::for_task(&tasks, &wcet, 1, TaskId(3));
        let per_dispatch = top.overhead_bounds().per_dispatch();
        let curve = ReleaseCurve::new(
            Curve::sporadic(Duration(40)),
            top.overhead_bounds().max_release_jitter(),
        );
        for d in [0u64, 1, 39, 40, 41, 500] {
            let d = Duration(d);
            // Its own releases, one boundary job and one blocking carry-in.
            let jobs = curve.max_arrivals(d) + 2;
            assert_eq!(top.nrb(d), per_dispatch.saturating_mul(jobs), "Δ = {d}");
        }
    }

    #[test]
    fn trb_charges_one_read_per_job_in_the_window() {
        let tasks = tasks();
        let bb = BlackoutBound::for_config(&tasks, &WcetTable::example(), 1);
        let jitter = bb.overhead_bounds().max_release_jitter();
        let curves = crate::curves::release_curves(&tasks, jitter);
        for d in [0u64, 1, 60, 250, 999] {
            let d = Duration(d);
            let released: u64 = curves.iter().map(|c| c.max_arrivals(d)).sum();
            let jobs = released + tasks.len() as u64 + 1;
            assert_eq!(bb.trb(d), bb.overhead_bounds().read.saturating_mul(jobs));
        }
    }

    #[test]
    fn display_names_the_tasks_and_straddlers() {
        let bb = setup();
        assert_eq!(
            bb.to_string(),
            format!(
                "BlackoutBound(2 tasks, 3 straddlers, {})",
                bb.overhead_bounds()
            )
        );
    }

    #[test]
    #[should_panic(expected = "one release curve per task required")]
    fn new_rejects_a_curve_count_mismatch() {
        let bounds = OverheadBounds::derive(&WcetTable::example(), 1);
        BlackoutBound::new(&tasks(), Vec::new(), bounds);
    }

    #[test]
    fn increase_points_follow_curves() {
        let bb = setup();
        let pts = bb.increase_points(Duration(400));
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Every reported point is a genuine increase of the bound.
        for &p in &pts {
            assert!(
                bb.bound(p) > bb.bound(p - Duration(1)),
                "no increase at {p}"
            );
        }
    }
}
