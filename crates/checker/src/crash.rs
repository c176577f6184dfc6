//! Exhaustive crash-point verification — the crash-recovery analogue of
//! the bounded model checking in [`ModelChecker`](crate::ModelChecker).
//!
//! For every crash point `k` up to the depth bound, [`CrashSweep`] drives
//! the real [`rossl::Scheduler`] through **every** resolution of read
//! nondeterminism (and, with a mode policy, of HI overruns: the model
//! checker's branching rule, with consumed messages counted at the
//! `ReadEnd` that receives each), journaling each marker write-ahead;
//! after the `k`-th marker the scheduler value is dropped (the crash), a
//! torn half-record is appended to the journal (the interrupted write),
//! and the [`rossl::Supervisor`] restarts a fresh scheduler from the
//! journal's committed prefix. The post-crash scheduler is driven on —
//! against the same environment, whose consumed messages stay consumed
//! — and at every leaf the pre-/post-crash segments are stitched and
//! checked with [`check_stitched`]: per-segment protocol, cross-seam
//! functional correctness, and the seam accounting that no accepted job
//! was lost and no completed job re-dispatched.
//!
//! All crash points are swept in a **single** exploration of the
//! pre-crash behaviour tree: at every reachable step the walk forks a
//! crash-and-recover branch (capturing the journal as an `Arc`-shared
//! marker prefix and replaying it at the fork) and continues uncrashed.
//! The naive formulation — one full re-exploration of the prefix tree
//! per crash point — costs a number of pre-crash steps *quadratic* in the
//! depth bound even on a branch-free environment; the fold executes each
//! pre-crash step exactly once, so total work is linear in the tree (plus
//! one recovery subtree per fork, sized by
//! [`CrashSweep::with_recovery_budget`]). Recovery branches are
//! independent work items, so [`CrashSweep::with_threads`] spreads them
//! over a [`rossl_par::Pool`] with results — counterexample included —
//! identical to the sequential sweep.
//!
//! Within the bounds this is a genuine ∀ crash-points × ∀ read-outcomes
//! result: *every* reachable crash recovers to a passing stitched trace.

use std::fmt;
use std::sync::Arc;

use rossl::{
    ClientConfig, FirstByteCodec, ModePolicy, Response, RestartPolicy, Scheduler, Supervisor,
};
use rossl_journal::{JournalWriter, KIND_EVENT};
use rossl_model::{Instant, MsgData};
use rossl_par::{Ctx, Pool, Reduce};
use rossl_trace::{check_stitched, Marker, StitchedTrace};

use crate::shared::{
    count_delivery, materialize_path, materialize_trace, push_path, push_trace, Choices, FailState,
    PathLink, TraceLink,
};

/// Aggregate result of a crash-point sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashSweepOutcome {
    /// Crash points swept (one per reachable pre-crash step).
    pub crash_points: u64,
    /// Supervised restarts performed (one per explored pre-crash path).
    pub recoveries: u64,
    /// Stitched traces checked at leaves.
    pub stitched_checked: u64,
    /// Leaves in which the crash voided a dispatch and the job was
    /// re-dispatched after recovery (at-least-once executions).
    pub redispatched: u64,
    /// Total scheduler steps executed, across both segments. Each
    /// pre-crash step is executed (and counted) once, however many crash
    /// points fork off it.
    pub steps: u64,
}

impl fmt::Display for CrashSweepOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} crash points, {} recoveries, {} stitched traces ({} redispatches), {} steps",
            self.crash_points,
            self.recoveries,
            self.stitched_checked,
            self.redispatched,
            self.steps
        )
    }
}

/// A counterexample: a crash point whose recovery does not stitch into a
/// passing trace.
#[derive(Debug, Clone)]
pub struct CrashSweepFailure {
    /// The marker index after which the crash was injected.
    pub crash_at: usize,
    /// The pre- and post-crash segments at the point of failure.
    pub segments: Vec<Vec<Marker>>,
    /// Human-readable description of the violated invariant.
    pub reason: String,
}

impl fmt::Display for CrashSweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crash after marker {} not recovered: {}",
            self.crash_at, self.reason
        )
    }
}

impl std::error::Error for CrashSweepFailure {}

/// One explored snapshot. Uncrashed nodes walk the shared pre-crash
/// tree; a crash fork (`scheduler: None`) carries the `Arc`-shared
/// pre-crash trace from which its journal is replayed, and after
/// recovery walks its post-crash segment. Doubles as the pool's work
/// item when a branch is donated.
struct Node {
    /// The live scheduler; `None` for a crash fork awaiting recovery.
    scheduler: Option<Scheduler<FirstByteCodec>>,
    pre_trace: TraceLink,
    post_trace: TraceLink,
    /// The marker index after which this branch crashed, if it did.
    crash_at: Option<usize>,
    /// `jobs_completed` of the crashed scheduler, checked against the
    /// recovered state.
    pre_completed: u64,
    /// Messages delivered per socket, counted at the `ReadEnd` that
    /// receives each: the cursor into the pending queues. Survives the
    /// crash: a message consumed from the transport stays consumed.
    consumed: Vec<usize>,
    steps: usize,
    response: Option<Response>,
    path: PathLink,
}

/// The per-worker accumulator: all fields are sums, so merging is
/// interleaving-independent. `crash_points` is filled in after the run.
#[derive(Default)]
struct SweepAcc {
    outcome: CrashSweepOutcome,
}

impl Reduce for SweepAcc {
    fn merge(&mut self, other: SweepAcc) {
        self.outcome.crash_points += other.outcome.crash_points;
        self.outcome.recoveries += other.outcome.recoveries;
        self.outcome.stitched_checked += other.outcome.stitched_checked;
        self.outcome.redispatched += other.outcome.redispatched;
        self.outcome.steps += other.outcome.steps;
    }
}

/// Exhaustively verifies recovery from a crash at every reachable step.
///
/// # Examples
///
/// ```
/// use rossl::ClientConfig;
/// use rossl_model::*;
/// use rossl_verify::CrashSweep;
///
/// let tasks = TaskSet::new(vec![
///     Task::new(TaskId(0), "a", Priority(1), Duration(5), Curve::sporadic(Duration(10))),
///     Task::new(TaskId(1), "b", Priority(2), Duration(5), Curve::sporadic(Duration(10))),
/// ])?;
/// let config = ClientConfig::new(tasks, 1)?;
/// let sweep = CrashSweep::new(config, vec![vec![vec![0], vec![1]]], 12);
/// let outcome = sweep.sweep()?;
/// assert_eq!(outcome.crash_points, 12);
/// assert!(outcome.redispatched > 0); // some crash lands mid-execution
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CrashSweep {
    config: ClientConfig,
    /// Messages that may arrive, per socket, and where the walk branches.
    choices: Choices,
    /// Depth bound: crash points range over `0..max_steps`.
    max_steps: usize,
    /// Post-crash steps granted to each recovery.
    recovery_budget: usize,
    /// Mixed-criticality policy installed on the pre-crash scheduler and
    /// re-installed (with the journal-recovered mode) after every
    /// restart. Enables overrun branching.
    mode_policy: Option<ModePolicy>,
    threads: usize,
}

impl CrashSweep {
    /// A sweep over `config` where `pending[s]` lists the messages that
    /// may arrive on socket `s`, injecting a crash after every marker
    /// index in `0..max_steps`. Each recovery runs a further `max_steps`
    /// post-crash steps by default; see
    /// [`CrashSweep::with_recovery_budget`].
    ///
    /// # Panics
    ///
    /// Panics if `pending` has more entries than the configured socket
    /// count.
    pub fn new(config: ClientConfig, pending: Vec<Vec<MsgData>>, max_steps: usize) -> CrashSweep {
        let choices = Choices::new(&config, pending);
        CrashSweep {
            config,
            choices,
            max_steps,
            recovery_budget: max_steps,
            mode_policy: None,
            threads: 1,
        }
    }

    /// Installs a mixed-criticality [`ModePolicy`] and enables overrun
    /// branching: each `Execute` of a HI task with `C_HI` headroom over
    /// the current mode's budget branches between completing within
    /// budget and overrunning to `C_HI`. Crash points then land before,
    /// *during* (armed but unenacted — legitimately lost, no
    /// `ModeSwitch` was committed) and after every mode switch; each
    /// recovery resumes in the last committed mode, which the
    /// mode-aware stitched checker holds across the seam.
    pub fn with_mode_policy(mut self, policy: ModePolicy) -> CrashSweep {
        self.mode_policy = Some(policy);
        self
    }

    /// Overrides the post-crash step budget per recovery (default:
    /// `max_steps`). With a constant budget the sweep's total step count
    /// grows linearly in the depth bound on a branch-free environment —
    /// the E18 scaling measurement — at the cost of less room for a
    /// voided dispatch to be re-issued before the stitched leaf check.
    pub fn with_recovery_budget(mut self, recovery_budget: usize) -> CrashSweep {
        self.recovery_budget = recovery_budget;
        self
    }

    /// Sweeps on `threads` pool workers (zero is clamped to one). The
    /// result — outcome totals and reported counterexample alike — is
    /// identical to the sequential sweep for every thread count.
    pub fn with_threads(mut self, threads: usize) -> CrashSweep {
        self.threads = threads.max(1);
        self
    }

    /// Runs the full sweep: every crash point, every read resolution.
    ///
    /// # Errors
    ///
    /// Returns the [`CrashSweepFailure`] counterexample with the
    /// lexicographically smallest branch path, independent of thread
    /// count.
    pub fn sweep(&self) -> Result<CrashSweepOutcome, CrashSweepFailure> {
        let config = Arc::new(self.config.clone());
        let mut scheduler = Scheduler::with_shared_config(config.clone(), FirstByteCodec);
        if let Some(policy) = self.mode_policy {
            scheduler = scheduler.with_mode_policy(policy);
        }
        let root = Node {
            scheduler: Some(scheduler),
            pre_trace: None,
            post_trace: None,
            crash_at: None,
            pre_completed: 0,
            consumed: vec![0; self.config.n_sockets()],
            steps: 0,
            response: None,
            path: None,
        };
        let fail = FailState::new();

        let acc = Pool::new(self.threads).run(vec![root], SweepAcc::default, |item, ctx| {
            let path = materialize_path(&item.path);
            if fail.beats(&path) {
                return;
            }
            self.explore(item, path, ctx, &fail, &config);
        });

        match fail.into_best() {
            Some(failure) => Err(failure),
            None => {
                let mut outcome = acc.outcome;
                outcome.crash_points = self.max_steps as u64;
                Ok(outcome)
            }
        }
    }

    /// Walks the subtree rooted at `node`: recovery first for a crash
    /// fork, then the step loop, forking a crash branch after every
    /// uncrashed step and a delivered branch at every readable message.
    /// Branches are donated to idle workers under starvation, recursed
    /// otherwise.
    fn explore(
        &self,
        mut node: Node,
        mut path: Vec<u8>,
        ctx: &mut Ctx<'_, Node, SweepAcc>,
        fail: &FailState<CrashSweepFailure>,
        config: &Arc<ClientConfig>,
    ) {
        let mut scheduler = match node.scheduler.take() {
            Some(scheduler) => scheduler,
            None => match self.recover(&node, config) {
                Ok(scheduler) => {
                    ctx.acc().outcome.recoveries += 1;
                    scheduler
                }
                Err(failure) => {
                    fail.record(path, failure);
                    return;
                }
            },
        };

        loop {
            if fail.beats(&path) {
                return;
            }
            match node.crash_at {
                Some(crash_at) => {
                    if node.steps >= crash_at + 1 + self.recovery_budget {
                        // Post-crash leaf: stitch and check.
                        let segments = self.segments(&node);
                        match self.check_leaf(crash_at, &segments, &node.consumed) {
                            Ok(redispatched) => {
                                let acc = ctx.acc();
                                acc.outcome.stitched_checked += 1;
                                acc.outcome.redispatched += redispatched as u64;
                            }
                            Err(failure) => fail.record(path, failure),
                        }
                        return;
                    }
                }
                None => {
                    // The uncrashed continuation past the last crash
                    // point contributes nothing further.
                    if node.steps >= self.max_steps {
                        return;
                    }
                }
            }

            node.steps += 1;
            ctx.acc().outcome.steps += 1;
            let step = match scheduler.advance(node.response.take()) {
                Ok(step) => step,
                Err(e) => {
                    fail.record(
                        path,
                        CrashSweepFailure {
                            crash_at: node.crash_at.unwrap_or(node.steps - 1),
                            segments: self.segments(&node),
                            reason: format!("scheduler got stuck: {e}"),
                        },
                    );
                    return;
                }
            };

            count_delivery(&mut node.consumed, &step.marker);
            if node.crash_at.is_some() {
                node.post_trace = push_trace(&node.post_trace, step.marker.clone());
            } else {
                node.pre_trace = push_trace(&node.pre_trace, step.marker.clone());
                // Fork the crash branch: the scheduler value dies right
                // here — after the marker was journaled, before the
                // request is served — and the interrupted final write
                // leaves a torn half-record on the journal. Every other
                // crash point reuses this same prefix walk.
                let fork = Node {
                    scheduler: None,
                    pre_trace: node.pre_trace.clone(),
                    post_trace: None,
                    crash_at: Some(node.steps - 1),
                    pre_completed: scheduler.jobs_completed(),
                    consumed: node.consumed.clone(),
                    steps: node.steps,
                    response: None,
                    path: push_path(&node.path, 0),
                };
                node.path = push_path(&node.path, 1);
                let mut fork_path = path.clone();
                fork_path.push(0);
                path.push(1);
                if self.threads > 1 && ctx.starving() {
                    ctx.spawn(fork);
                } else if !fail.beats(&fork_path) {
                    self.explore(fork, fork_path, ctx, fail, config);
                }
            }

            if let Some(request) = step.request {
                let (response, alternative) =
                    self.choices.responses(request, &scheduler, &node.consumed);
                if let Some(alternative) = alternative {
                    // Branch point: the environment acts (digit 1) —
                    // a message arrives, or a HI job overruns to C_HI,
                    // whose AMC mode switch must recover from every
                    // crash point like any other behaviour — or does
                    // nothing (digit 0), walked on inline.
                    let acted = Node {
                        scheduler: Some(scheduler.clone()),
                        pre_trace: node.pre_trace.clone(),
                        post_trace: node.post_trace.clone(),
                        crash_at: node.crash_at,
                        pre_completed: node.pre_completed,
                        consumed: node.consumed.clone(),
                        steps: node.steps,
                        response: Some(alternative),
                        path: push_path(&node.path, 1),
                    };
                    node.path = push_path(&node.path, 0);
                    let mut acted_path = path.clone();
                    acted_path.push(1);
                    path.push(0);
                    if self.threads > 1 && ctx.starving() {
                        ctx.spawn(acted);
                    } else if !fail.beats(&acted_path) {
                        self.explore(acted, acted_path, ctx, fail, config);
                    }
                }
                node.response = Some(response);
            }
        }
    }

    /// Replays the `Arc`-shared pre-crash markers into a fresh journal
    /// (clock = step index, exactly as the live walk journaled them),
    /// appends the torn half-record, and performs the supervised restart.
    fn recover(
        &self,
        node: &Node,
        config: &Arc<ClientConfig>,
    ) -> Result<Scheduler<FirstByteCodec>, CrashSweepFailure> {
        let crash_at = node.crash_at.expect("recovery is only for crash forks");
        let pre = materialize_trace(&node.pre_trace);
        let failure = |reason: String| CrashSweepFailure {
            crash_at,
            segments: vec![pre.clone()],
            reason,
        };
        let mut journal = JournalWriter::new();
        for (i, marker) in pre.iter().enumerate() {
            journal
                .append(marker, Instant(i as u64 + 1))
                .map_err(|e| failure(format!("marker {i} cannot be journaled: {e}")))?;
            journal.commit();
        }
        let mut bytes = journal.into_bytes();
        // The write the crash interrupted: a torn event header.
        bytes.extend_from_slice(&[KIND_EVENT, 0xFF, 0xFF]);

        let mut supervisor = Supervisor::new(RestartPolicy::default());
        let (sched, state, corruption) = supervisor
            .restart_shared(&bytes, config.clone(), FirstByteCodec)
            .map_err(|e| failure(format!("supervised restart failed: {e}")))?;
        if corruption.is_none() {
            return Err(failure("torn tail went undetected by journal recovery".into()));
        }
        if state.jobs_completed != node.pre_completed {
            return Err(failure(format!(
                "recovered completion counter {} disagrees with the crashed scheduler's {}",
                state.jobs_completed, node.pre_completed
            )));
        }
        // Re-install the mode machinery: the supervisor recovers the
        // *state* (the mode of the last committed ModeSwitch); the
        // policy is configuration. A crash mid-switch (armed, not yet
        // enacted) loses the arming legitimately — no ModeSwitch record
        // was committed, so the recovered scheduler re-detects the
        // overrun if the HI backlog re-manifests.
        let sched = match self.mode_policy {
            Some(policy) => sched.with_mode_policy(policy).resume_in_mode(state.mode),
            None => sched,
        };
        Ok(sched)
    }

    /// The materialized pre-/post-crash segments of `node`, in the shape
    /// the stitched checker and failure reports expect.
    fn segments(&self, node: &Node) -> Vec<Vec<Marker>> {
        let mut segments = vec![materialize_trace(&node.pre_trace)];
        if node.crash_at.is_some() {
            segments.push(materialize_trace(&node.post_trace));
        }
        segments
    }

    /// Leaf check: the stitched pre-/post-crash trace passes protocol,
    /// functional and seam checking, with the environment's consumed
    /// counts as the lost-job accounting. Returns the number of
    /// at-least-once re-dispatches observed in this trace.
    fn check_leaf(
        &self,
        crash_at: usize,
        segments: &[Vec<Marker>],
        consumed: &[usize],
    ) -> Result<usize, CrashSweepFailure> {
        let stitched = StitchedTrace::new(segments.to_vec());
        let report = check_stitched(
            &stitched,
            self.config.tasks(),
            self.config.n_sockets(),
            Some(consumed),
        )
        .map_err(|e| CrashSweepFailure {
            crash_at,
            segments: segments.to_vec(),
            reason: format!("stitched trace rejected: {e}"),
        })?;
        Ok(report.redispatched.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Criticality, Curve, Duration, Priority, Task, TaskId, TaskSet};

    fn config(n_sockets: usize) -> ClientConfig {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "low",
                Priority(1),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
            Task::new(
                TaskId(1),
                "high",
                Priority(9),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
        ])
        .unwrap();
        ClientConfig::new(tasks, n_sockets).unwrap()
    }

    #[test]
    fn every_crash_point_recovers_single_socket() {
        let sweep = CrashSweep::new(config(1), vec![vec![vec![0], vec![1]]], 14);
        let outcome = sweep.sweep().unwrap();
        assert_eq!(outcome.crash_points, 14);
        assert!(outcome.recoveries >= 14);
        assert!(outcome.stitched_checked >= outcome.recoveries);
    }

    #[test]
    fn crashes_inside_a_job_are_redispatched_after_recovery() {
        // Some crash points fall between a dispatch and its completion;
        // each such leaf re-runs the voided job once after recovery.
        let sweep = CrashSweep::new(config(1), vec![vec![vec![0], vec![1]]], 14);
        let outcome = sweep.sweep().unwrap();
        assert!(outcome.redispatched > 0, "{outcome}");
        assert!(outcome.redispatched <= outcome.stitched_checked, "{outcome}");
        // Without any job there is nothing to re-dispatch.
        let idle = CrashSweep::new(config(1), vec![], 14).sweep().unwrap();
        assert_eq!(idle.redispatched, 0, "{idle}");
    }

    #[test]
    fn every_crash_point_recovers_two_sockets() {
        let sweep = CrashSweep::new(
            config(2),
            vec![vec![vec![0]], vec![vec![1]]],
            12,
        );
        let outcome = sweep.sweep().unwrap();
        assert_eq!(outcome.crash_points, 12);
        assert!(outcome.stitched_checked > 12);
    }

    #[test]
    fn empty_environment_sweeps_cleanly() {
        let sweep = CrashSweep::new(config(1), vec![], 10);
        let outcome = sweep.sweep().unwrap();
        assert_eq!(outcome.crash_points, 10);
        // One idle path per crash point.
        assert_eq!(outcome.recoveries, 10);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let sweep = CrashSweep::new(config(1), vec![vec![vec![0], vec![1]]], 12);
        let baseline = sweep.sweep().unwrap();
        for threads in [2, 4, 8] {
            let outcome = sweep.clone().with_threads(threads).sweep().unwrap();
            assert_eq!(outcome, baseline, "threads={threads}");
        }
    }

    /// A LO task and a HI task with `headroom` ticks of C_HI over C_LO.
    fn mixed_config(headroom: u64) -> ClientConfig {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "lo",
                Priority(1),
                Duration(5),
                Curve::sporadic(Duration(10)),
            )
            .with_criticality(Criticality::Lo),
            Task::new(
                TaskId(1),
                "hi",
                Priority(9),
                Duration(5),
                Curve::sporadic(Duration(10)),
            )
            .with_criticality(Criticality::Hi)
            .with_wcet_hi(Duration(5 + headroom)),
        ])
        .unwrap();
        ClientConfig::new(tasks, 1).unwrap()
    }

    #[test]
    fn mode_switches_recover_from_every_crash_point() {
        // Crash points land before, during (armed, unenacted) and after
        // LO→HI switches, LO-job suspensions and hysteresis returns;
        // every recovery resumes in the last committed mode and the
        // mode-aware stitched checker holds it across the seam.
        let pending = vec![vec![vec![1], vec![0]]];
        let sweep = CrashSweep::new(mixed_config(7), pending.clone(), 16)
            .with_mode_policy(ModePolicy::Amc { hysteresis_idles: 1 });
        let outcome = sweep.sweep().unwrap();
        assert_eq!(outcome.crash_points, 16);
        // Overrun branching multiplies the recovered behaviours over the
        // policy-free sweep of the same environment.
        let plain = CrashSweep::new(mixed_config(7), pending, 16).sweep().unwrap();
        assert!(
            outcome.recoveries > plain.recoveries,
            "policy: {outcome}, plain: {plain}"
        );
        assert!(outcome.stitched_checked >= outcome.recoveries);
    }

    #[test]
    fn parallel_mode_sweep_matches_sequential() {
        let sweep = CrashSweep::new(mixed_config(7), vec![vec![vec![1], vec![0]]], 14)
            .with_mode_policy(ModePolicy::Adaptive { hysteresis_idles: 1 });
        let baseline = sweep.sweep().unwrap();
        for threads in [2, 4, 8] {
            let outcome = sweep.clone().with_threads(threads).sweep().unwrap();
            assert_eq!(outcome, baseline, "threads={threads}");
        }
    }

    #[test]
    fn constant_recovery_budget_gives_linear_steps() {
        // Branch-free environment: the pre-crash tree is a single chain,
        // so with a constant post-crash budget b the fold executes
        // exactly depth × (1 + b) steps — linear in the depth bound,
        // where the per-crash-point formulation re-executed the prefix
        // and cost Θ(depth²).
        for depth in [5usize, 10, 20] {
            let sweep = CrashSweep::new(config(1), vec![], depth).with_recovery_budget(6);
            let outcome = sweep.sweep().unwrap();
            assert_eq!(outcome.steps, (depth * (1 + 6)) as u64);
            assert_eq!(outcome.recoveries, depth as u64);
            assert_eq!(outcome.crash_points, depth as u64);
        }
    }
}
