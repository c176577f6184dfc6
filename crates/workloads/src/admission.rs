//! Online admission control over the set-memoized analysis.
//!
//! An [`AdmissionController`] owns the currently admitted task set and
//! answers add / remove / update queries ([`Delta`]) with a typed
//! [`Verdict`]. Accepting commits the delta; rejecting leaves the
//! admitted set untouched. The design-time/run-time split:
//!
//! * **Design time** — every query runs the full RefinedProsa analysis
//!   through [`prosa::IncrementalSolver`], which memoizes whole results
//!   by set fingerprint: a repeated set (probe then commit, a revert
//!   after a reject) costs one lookup, and every answer is bit-identical
//!   to a from-scratch [`prosa::analyse`] (experiment E24's differential
//!   check).
//! * **Run time** — accepted bounds are installed into a
//!   [`rossl::AdmissionCache`], the table the scheduler side consults
//!   via `feasible_online` (with the pessimistic `R_i = T_i` fallback
//!   while a verdict is pending).
//!
//! On top sits a **decision memo**: a compact admit/reject bit keyed by
//! a 128-bit content fingerprint of the candidate — priorities, WCETs,
//! curves **and deadlines**, folded straight off the [`TaskRequest`]s
//! without materializing a task set. Admission traffic is highly
//! repetitive (probe–commit, probe–reject–revert), so the warm path is
//! one fingerprint plus one hash lookup — this is what the ≥1M
//! queries/sec budget in `BENCH_admission.json` measures. Both memos
//! hold at most [`prosa::MEMO_CAPACITY`] entries.
//!
//! Malformed input is rejected, never panicked on: a request with a
//! zero WCET or an invalid curve, an invalid WCET table or zero sockets
//! all answer [`Rejection::Analysis`].

use std::collections::HashMap;

use prosa::{
    analyse, curve_fingerprint, memo_insert, AnalysisParams, AnalysisResult, IncrementalSolver,
    RtaError, SolverStats, TaskBound,
};
use rossl::AdmissionCache;
use rossl_model::{Curve, Duration, Priority, Task, TaskId, TaskSet, WcetTable};

use crate::generator::WorkloadSpec;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

fn fold(mut fp: u128, v: u64) -> u128 {
    for byte in v.to_le_bytes() {
        fp ^= u128::from(byte);
        fp = fp.wrapping_mul(FNV_PRIME);
    }
    fp
}

fn fold128(fp: u128, v: u128) -> u128 {
    fold(fold(fp, v as u64), (v >> 64) as u64)
}

/// Folds one request's decision-relevant content (everything but the
/// diagnostic name) into a candidate fingerprint. The deadline is part
/// of the key: two candidates with equal tasks but different deadlines
/// can decide differently.
fn fold_request(fp: u128, r: &TaskRequest) -> u128 {
    let fp = fold(fp, u64::from(r.priority));
    let fp = fold(fp, r.wcet);
    let fp = fold128(fp, curve_fingerprint(&r.curve));
    fold(fp, r.deadline)
}

/// A task proposed for admission: everything needed to analyse it plus
/// its deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRequest {
    /// Human-readable name (diagnostics only; not part of the verdict).
    pub name: String,
    /// Fixed priority (higher wins).
    pub priority: u32,
    /// Worst-case execution time, ticks.
    pub wcet: u64,
    /// Arrival curve.
    pub curve: Curve,
    /// Relative deadline, ticks; the admission test is
    /// `R_i + J_i ≤ D_i`.
    pub deadline: u64,
}

impl TaskRequest {
    /// The admission requests for every task of a generated workload,
    /// with implicit deadlines (`D_i = T_i`, the curve's rate window).
    pub fn from_spec(spec: &WorkloadSpec) -> Vec<TaskRequest> {
        spec.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskRequest {
                name: format!("gen{i}"),
                priority: t.priority,
                wcet: t.wcet,
                curve: spec.curve_of(t),
                deadline: t.period,
            })
            .collect()
    }
}

/// A requested change to the admitted task set.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Admit a new task.
    Add(TaskRequest),
    /// Remove the task at this slot (index into
    /// [`AdmissionController::current`]).
    Remove(usize),
    /// Replace the task at this slot.
    Update(usize, TaskRequest),
}

/// Why a delta was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// A task's bound exceeds its deadline in the candidate set. The id
    /// indexes the candidate set (admitted tasks in slot order, an added
    /// task last).
    DeadlineMiss {
        /// The violating task.
        task: TaskId,
        /// Its bound `R_i + J_i`.
        bound: Duration,
        /// Its deadline `D_i`.
        deadline: Duration,
    },
    /// The analysis failed or could not start: a genuine fixed-point
    /// failure (`NoConvergence`) or solver divergence, never a shortcut;
    /// or malformed input — a request the task model refuses (zero WCET,
    /// invalid curve) as [`RtaError::Model`], or a controller built with
    /// an invalid WCET table or zero sockets.
    Analysis(RtaError),
    /// The delta referenced a slot that does not exist.
    UnknownSlot(usize),
}

/// The outcome of one admission query.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The delta was admitted (and, for [`AdmissionController::query`],
    /// committed). Carries the per-task bounds of the new set, in slot
    /// order — bit-identical to a from-scratch [`prosa::analyse`].
    Accepted {
        /// Bounds of the candidate set (empty when the set became empty).
        bounds: Vec<TaskBound>,
    },
    /// The delta was rejected; the admitted set is unchanged.
    Rejected(Rejection),
}

impl Verdict {
    /// `true` for [`Verdict::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted { .. })
    }
}

/// Query counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Total committing queries.
    pub queries: u64,
    /// Accepted committing queries.
    pub accepted: u64,
    /// Non-committing `admissible` probes.
    pub probes: u64,
    /// Probes answered from the decision memo.
    pub probe_memo_hits: u64,
}

/// The admission controller: admitted set + incremental solver +
/// runtime bound cache + decision memo. See the module docs.
#[derive(Debug)]
pub struct AdmissionController {
    solver: IncrementalSolver,
    admitted: Vec<TaskRequest>,
    wcet: WcetTable,
    n_sockets: usize,
    horizon: Duration,
    runtime: AdmissionCache,
    decisions: HashMap<u128, bool>,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// A controller with an empty admitted set, analysing against this
    /// overhead table, socket count, and busy-window horizon. Nothing is
    /// validated here: with an invalid table or zero sockets, every
    /// non-empty candidate is rejected with [`Rejection::Analysis`].
    pub fn new(wcet: WcetTable, n_sockets: usize, horizon: Duration) -> AdmissionController {
        AdmissionController {
            solver: IncrementalSolver::new(),
            admitted: Vec::new(),
            wcet,
            n_sockets,
            horizon,
            runtime: AdmissionCache::new(),
            decisions: HashMap::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// The currently admitted tasks, in slot order.
    pub fn current(&self) -> &[TaskRequest] {
        &self.admitted
    }

    /// The runtime-side bound cache (the `feasible_online` table).
    pub fn runtime_cache(&self) -> &AdmissionCache {
        &self.runtime
    }

    /// Query counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// The set memo's counters (see [`SolverStats`] for the three
    /// vestigial fields).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// The candidate task list `self.admitted ⊕ delta`, or the offending
    /// slot for out-of-range deltas.
    fn candidate(&self, delta: &Delta) -> Result<Vec<TaskRequest>, usize> {
        let mut tasks = self.admitted.clone();
        match delta {
            Delta::Add(req) => tasks.push(req.clone()),
            Delta::Remove(slot) => {
                if *slot >= tasks.len() {
                    return Err(*slot);
                }
                tasks.remove(*slot);
            }
            Delta::Update(slot, req) => {
                if *slot >= tasks.len() {
                    return Err(*slot);
                }
                tasks[*slot] = req.clone();
            }
        }
        Ok(tasks)
    }

    /// Analyses a candidate list and applies the deadline test. Does not
    /// commit.
    fn decide(&mut self, tasks: &[TaskRequest]) -> Verdict {
        verdict_with(tasks, &self.wcet, self.n_sockets, |params| {
            self.solver.analyse(params, self.horizon)
        })
    }

    /// The committing query: analyse `self ⊕ delta`; on acceptance the
    /// delta is applied and the runtime cache is rebuilt with the new
    /// bounds, on rejection nothing changes. The verdict's bounds (and
    /// its rejection reasons) are bit-identical to running
    /// [`prosa::analyse`] from scratch on the candidate set.
    pub fn query(&mut self, delta: Delta) -> Verdict {
        self.stats.queries += 1;
        let tasks = match self.candidate(&delta) {
            Ok(tasks) => tasks,
            Err(slot) => return Verdict::Rejected(Rejection::UnknownSlot(slot)),
        };
        let verdict = self.decide(&tasks);
        if let Verdict::Accepted { bounds } = &verdict {
            self.stats.accepted += 1;
            self.admitted = tasks;
            // Slots shift on remove, so ids are re-dense: rebuild the
            // runtime table rather than patching it.
            self.runtime.clear();
            for b in bounds {
                self.runtime.install(b.task, b.total_bound());
            }
        }
        verdict
    }

    /// The candidate's decision-memo key for `delta`, computed straight
    /// off the admitted [`TaskRequest`]s (no task-set build, no clones),
    /// or `None` for an out-of-range slot. The WCET table, socket count
    /// and horizon are fixed per controller, so per-candidate content —
    /// length plus every slot's (priority, WCET, curve, deadline) — is a
    /// sound key.
    fn probe_fingerprint(&self, delta: &Delta) -> Option<u128> {
        let n = self.admitted.len();
        let mut fp = FNV_OFFSET;
        match delta {
            Delta::Add(req) => {
                fp = fold(fp, (n + 1) as u64);
                for r in &self.admitted {
                    fp = fold_request(fp, r);
                }
                fp = fold_request(fp, req);
            }
            Delta::Remove(slot) => {
                if *slot >= n {
                    return None;
                }
                fp = fold(fp, (n - 1) as u64);
                for (i, r) in self.admitted.iter().enumerate() {
                    if i != *slot {
                        fp = fold_request(fp, r);
                    }
                }
            }
            Delta::Update(slot, req) => {
                if *slot >= n {
                    return None;
                }
                fp = fold(fp, n as u64);
                for (i, r) in self.admitted.iter().enumerate() {
                    fp = fold_request(fp, if i == *slot { req } else { r });
                }
            }
        }
        Some(fp)
    }

    /// The non-committing probe: would `self ⊕ delta` be admitted?
    /// Decision-memoized by candidate-set fingerprint, so repeated
    /// probes against a warm memo are a fingerprint plus a hash lookup —
    /// the ≥1M queries/sec path of experiment E24.
    pub fn admissible(&mut self, delta: &Delta) -> bool {
        self.stats.probes += 1;
        let Some(fp) = self.probe_fingerprint(delta) else {
            return false;
        };
        if let Some(&decision) = self.decisions.get(&fp) {
            self.stats.probe_memo_hits += 1;
            return decision;
        }
        let tasks = self
            .candidate(delta)
            .expect("probe_fingerprint validated the slot");
        let decision = self.decide(&tasks).is_accepted();
        memo_insert(&mut self.decisions, fp, decision);
        decision
    }

    /// Runs the runtime-side feasibility check on the admitted set
    /// (cached bounds, `R_i = T_i` fallback) — the cheap gate the
    /// scheduler consults between design-time verdicts.
    pub fn feasible_online(&self) -> bool {
        if self.admitted.is_empty() {
            return true;
        }
        let (params, deadlines) = lower(&self.admitted, &self.wcet, self.n_sockets)
            .expect("the admitted set lowered when it was accepted");
        self.runtime.feasible_online(params.tasks(), &deadlines)
    }
}

/// Lowers a candidate list to analysis parameters (dense ids in slot
/// order) plus the positional deadline vector.
///
/// # Errors
///
/// [`RtaError::Model`] when the task model refuses a request (zero
/// WCET, invalid curve) or the WCET table, and [`RtaError::NoSockets`].
fn lower(
    tasks: &[TaskRequest],
    wcet: &WcetTable,
    n_sockets: usize,
) -> Result<(AnalysisParams, Vec<Duration>), RtaError> {
    let set = TaskSet::new(
        tasks
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Task::new(
                    TaskId(i),
                    r.name.clone(),
                    Priority(r.priority),
                    Duration(r.wcet),
                    r.curve.clone(),
                )
            })
            .collect(),
    )
    .map_err(RtaError::Model)?;
    let deadlines = tasks.iter().map(|r| Duration(r.deadline)).collect();
    Ok((AnalysisParams::new(set, *wcet, n_sockets)?, deadlines))
}

/// The verdict on a candidate list, with `analyse` as the analysis: an
/// empty list is accepted, a list that does not lower is rejected with
/// its error, and otherwise the first task, in slot order, whose bound
/// `R_i + J_i` exceeds its deadline sinks the candidate.
fn verdict_with(
    tasks: &[TaskRequest],
    wcet: &WcetTable,
    n_sockets: usize,
    analyse: impl FnOnce(&AnalysisParams) -> Result<AnalysisResult, RtaError>,
) -> Verdict {
    if tasks.is_empty() {
        // An empty system is trivially feasible.
        return Verdict::Accepted { bounds: Vec::new() };
    }
    let result = lower(tasks, wcet, n_sockets)
        .and_then(|(params, deadlines)| Ok((analyse(&params)?, deadlines)));
    match result {
        Err(e) => Verdict::Rejected(Rejection::Analysis(e)),
        Ok((result, deadlines)) => {
            for (bound, &deadline) in result.bounds().iter().zip(&deadlines) {
                if bound.total_bound() > deadline {
                    return Verdict::Rejected(Rejection::DeadlineMiss {
                        task: bound.task,
                        bound: bound.total_bound(),
                        deadline,
                    });
                }
            }
            Verdict::Accepted {
                bounds: result.bounds().to_vec(),
            }
        }
    }
}

/// The from-scratch reference decision for a candidate task list: the
/// exact verdict [`AdmissionController::query`] must produce, computed
/// with [`prosa::analyse`] and no memo anywhere. E24 and the property
/// tests difference the controller against this.
pub fn scratch_verdict(
    tasks: &[TaskRequest],
    wcet: &WcetTable,
    n_sockets: usize,
    horizon: Duration,
) -> Verdict {
    verdict_with(tasks, wcet, n_sockets, |params| analyse(params, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(priority: u32, wcet: u64, period: u64) -> TaskRequest {
        TaskRequest {
            name: format!("p{priority}"),
            priority,
            wcet,
            curve: Curve::sporadic(Duration(period)),
            deadline: period,
        }
    }

    fn controller() -> AdmissionController {
        AdmissionController::new(WcetTable::example(), 1, Duration(200_000))
    }

    #[test]
    fn accepts_commit_and_rejects_roll_back() {
        let mut ac = controller();
        assert!(ac.query(Delta::Add(req(5, 50, 2_000))).is_accepted());
        assert_eq!(ac.current().len(), 1);
        // An impossible deadline is rejected and nothing changes.
        let mut tight = req(4, 100, 4_000);
        tight.deadline = 1;
        let verdict = ac.query(Delta::Add(tight));
        assert!(matches!(
            verdict,
            Verdict::Rejected(Rejection::DeadlineMiss { .. })
        ));
        assert_eq!(ac.current().len(), 1);
        // Removal back to empty is trivially accepted.
        assert!(ac.query(Delta::Remove(0)).is_accepted());
        assert!(ac.current().is_empty());
        assert!(ac.runtime_cache().is_empty());
    }

    #[test]
    fn verdicts_match_the_scratch_reference() {
        let mut ac = controller();
        let deltas = [
            Delta::Add(req(5, 50, 2_000)),
            Delta::Add(req(7, 30, 1_000)),
            Delta::Add(req(2, 400, 900)), // heavy: may miss its deadline
            Delta::Update(0, req(5, 60, 2_000)),
            Delta::Remove(1),
        ];
        for delta in deltas {
            let candidate = ac.candidate(&delta);
            let verdict = ac.query(delta);
            if let Ok(tasks) = candidate {
                let reference =
                    scratch_verdict(&tasks, &WcetTable::example(), 1, Duration(200_000));
                assert_eq!(verdict, reference);
            }
        }
    }

    #[test]
    fn unknown_slots_are_rejected() {
        let mut ac = controller();
        assert_eq!(
            ac.query(Delta::Remove(3)),
            Verdict::Rejected(Rejection::UnknownSlot(3))
        );
        assert!(!ac.admissible(&Delta::Update(0, req(1, 1, 100))));
    }

    #[test]
    fn probes_hit_the_decision_memo() {
        let mut ac = controller();
        let delta = Delta::Add(req(5, 50, 2_000));
        assert!(ac.admissible(&delta));
        for _ in 0..100 {
            assert!(ac.admissible(&delta));
        }
        let stats = ac.stats();
        assert_eq!(stats.probes, 101);
        assert_eq!(stats.probe_memo_hits, 100);
    }

    #[test]
    fn probe_memo_distinguishes_deadlines() {
        // Same task content, different deadlines: the decision memo must
        // key on the deadline too, or the second probe replays a stale
        // verdict.
        let mut ac = controller();
        let mut tight = req(5, 50, 2_000);
        tight.deadline = 1;
        assert!(!ac.admissible(&Delta::Add(tight)));
        assert!(ac.admissible(&Delta::Add(req(5, 50, 2_000))));
        assert_eq!(ac.stats().probe_memo_hits, 0);
    }

    /// Offers `req` to a fresh controller built from `wcet` and
    /// `n_sockets`, checks that the probe, the query and
    /// `scratch_verdict` all reject it, and returns the analysis error.
    fn analysis_rejection(wcet: WcetTable, n_sockets: usize, req: TaskRequest) -> RtaError {
        let horizon = Duration(200_000);
        let mut ac = AdmissionController::new(wcet, n_sockets, horizon);
        let delta = Delta::Add(req.clone());
        assert!(!ac.admissible(&delta));
        let verdict = ac.query(delta);
        assert_eq!(verdict, scratch_verdict(&[req], &wcet, n_sockets, horizon));
        assert!(ac.current().is_empty());
        match verdict {
            Verdict::Rejected(Rejection::Analysis(e)) => e,
            other => panic!("expected an analysis rejection, got {other:?}"),
        }
    }

    #[test]
    fn zero_sockets_reject_instead_of_panicking() {
        let e = analysis_rejection(WcetTable::example(), 0, req(5, 50, 2_000));
        assert_eq!(e, RtaError::NoSockets);
    }

    #[test]
    fn an_invalid_wcet_table_rejects_instead_of_panicking() {
        let mut wcet = WcetTable::example();
        wcet.selection = Duration(0);
        let e = analysis_rejection(wcet, 1, req(5, 50, 2_000));
        assert!(matches!(e, RtaError::Model(_)), "{e:?}");
    }

    #[test]
    fn a_zero_wcet_request_is_rejected_instead_of_panicking() {
        let e = analysis_rejection(WcetTable::example(), 1, req(5, 0, 2_000));
        assert!(matches!(e, RtaError::Model(_)), "{e:?}");
    }

    #[test]
    fn a_zero_inter_arrival_request_is_rejected_instead_of_panicking() {
        let e = analysis_rejection(WcetTable::example(), 1, req(5, 50, 0));
        assert!(matches!(e, RtaError::Model(_)), "{e:?}");
    }

    #[test]
    fn runtime_cache_tracks_admissions() {
        let mut ac = controller();
        ac.query(Delta::Add(req(5, 50, 2_000)));
        ac.query(Delta::Add(req(7, 30, 1_000)));
        assert_eq!(ac.runtime_cache().len(), 2);
        assert!(ac.feasible_online());
        let b0 = ac.runtime_cache().bound(TaskId(0)).unwrap();
        assert!(b0 >= Duration(50));
    }
}
