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
//! pre-crash behaviour tree: the walk journals each pre-crash marker as
//! it goes, and at every reachable step it forks a crash-and-recover
//! branch (recovering from a copy of that journal) and continues
//! uncrashed.
//! The naive formulation — one full re-exploration of the prefix tree
//! per crash point — costs a number of pre-crash steps *quadratic* in the
//! depth bound even on a branch-free environment; the fold executes each
//! pre-crash step exactly once, so total work is linear in the tree (plus
//! one recovery subtree per fork, sized by
//! [`CrashSweep::with_recovery_budget`]). Each crash fork is walked
//! first and inline; at a branch point the walk goes on inline with the
//! environment doing nothing and parks the acted child, walking the
//! children it parked, deepest first, when its inline walk ends. With
//! [`CrashSweep::with_threads`] a worker that finds the
//! [`rossl_par::Pool`] starving hands it the shallowest parked child, or
//! at a crash fork with nothing parked the fork, with results —
//! counterexample included — identical to the sequential sweep.
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
use rossl_trace::{check_stitched, Marker};

use crate::shared::{count_delivery, Choices, FailState};

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
/// tree, journaling as they go; a crash fork (`scheduler: None`)
/// carries the journal it recovers from, and after recovery walks its
/// post-crash segment. The node's pre-crash markers are the first ones
/// on the worker's pre-crash stack (`crash_at + 1` of them, or all
/// `steps` while uncrashed), its post-crash markers the first ones on
/// the post-crash stack, and its branch path the first `path_len`
/// digits on the path stack.
struct Node {
    /// The live scheduler; `None` for a crash fork awaiting recovery.
    scheduler: Option<Scheduler<FirstByteCodec>>,
    /// The pre-crash markers' write-ahead journal, each marker
    /// committed at `Instant(index + 1)`; `None` once recovered.
    journal: Option<JournalWriter>,
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
    path_len: usize,
}

impl Node {
    /// How many of the node's first `steps` markers lie before and after
    /// its crash.
    fn split(&self, steps: usize) -> (usize, usize) {
        match self.crash_at {
            Some(crash_at) => (crash_at + 1, steps - crash_at - 1),
            None => (steps, 0),
        }
    }
}

/// The pool's work item: a node, with the segments and branch path that
/// lead to it. Only a donated branch (and the root) carries its own.
struct Item {
    node: Node,
    pre: Vec<Marker>,
    post: Vec<Marker>,
    path: Vec<u8>,
}

/// The per-worker accumulator: all outcome fields are sums, so merging
/// is interleaving-independent. `crash_points` is filled in after the
/// run.
#[derive(Default)]
struct SweepAcc {
    outcome: CrashSweepOutcome,
    /// The markers and branch digits of the path being walked: the
    /// uncrashed walk's markers on `pre`, a fork's recovered walk's on
    /// `post`. A node truncates a stack to its own depth before pushing,
    /// so its prefix stays intact below all of its descendants, and a
    /// fork's post-crash walk leaves `pre` as it is. Not merged.
    pre: Vec<Marker>,
    post: Vec<Marker>,
    path: Vec<u8>,
    /// The acted children (digit 1) of the branch points the worker's
    /// inline walks passed, shallowest first, each parked until the
    /// walk that passed it ends. A slot whose child was donated is
    /// `None`. Not merged.
    deferred: Vec<Option<Node>>,
}

impl SweepAcc {
    /// The segments of `node` after its first `steps` markers, as a
    /// failure reports them.
    fn segments(&self, node: &Node, steps: usize) -> Vec<Vec<Marker>> {
        let (pre, post) = node.split(steps);
        let mut segments = vec![self.pre[..pre].to_vec()];
        if node.crash_at.is_some() {
            segments.push(self.post[..post].to_vec());
        }
        segments
    }

    /// Sets the branch digit at `index`, dropping any digits after it.
    fn branch(&mut self, index: usize, digit: u8) {
        self.path.truncate(index);
        self.path.push(digit);
    }

    /// `node`, whose path ends in `digit`, as a work item for another
    /// worker, with copies of its segments and branch path. The path is
    /// the digits before its branch point and then `digit`: the stack
    /// may hold the sibling's digit at that index.
    fn donate(&self, node: Node, digit: u8) -> Item {
        let (pre, post) = node.split(node.steps);
        Item {
            pre: self.pre[..pre].to_vec(),
            post: self.post[..post].to_vec(),
            path: [&self.path[..node.path_len - 1], &[digit]].concat(),
            node,
        }
    }

    /// Takes the shallowest parked child, the largest subtree this worker
    /// has yet to walk, as a work item for another worker. Every node
    /// walked since it was parked extends its prefix, so its segments
    /// are intact on the stacks. The walk that parked it then finds the
    /// slot empty. `None` when nothing is parked.
    fn donate_shallowest(&mut self) -> Option<Item> {
        let node = self.deferred.iter_mut().find_map(Option::take)?;
        Some(self.donate(node, 1))
    }
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
            journal: Some(JournalWriter::new()),
            crash_at: None,
            pre_completed: 0,
            consumed: vec![0; self.config.n_sockets()],
            steps: 0,
            response: None,
            path_len: 0,
        };
        let root = Item {
            node: root,
            pre: Vec::new(),
            post: Vec::new(),
            path: Vec::new(),
        };
        let fail = FailState::new();

        let acc = Pool::new(self.threads).run(vec![root], SweepAcc::default, |item, ctx| {
            let acc = ctx.acc();
            acc.pre.clear();
            acc.pre.extend(item.pre);
            acc.post.clear();
            acc.post.extend(item.post);
            acc.path.clear();
            acc.path.extend(item.path);
            if fail.beats(&acc.path) {
                return;
            }
            self.explore(item.node, ctx, &fail, &config);
            debug_assert!(
                ctx.acc().deferred.is_empty(),
                "every explore call walks or drops what it parked"
            );
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

    /// Walks the subtree rooted at `node`: its inline walk first, then
    /// the acted children that walk parked, deepest first. The branch
    /// path orders the digit-0 continuation before its acted sibling, so
    /// this is the order [`FailState`] ranks failures in: a failure in
    /// the inline walk prunes every child it parked.
    fn explore(
        &self,
        node: Node,
        ctx: &mut Ctx<'_, Item, SweepAcc>,
        fail: &FailState<CrashSweepFailure>,
        config: &Arc<ClientConfig>,
    ) {
        let base = ctx.acc().deferred.len();
        self.walk(node, ctx, fail, config);
        while ctx.acc().deferred.len() > base {
            let acc = ctx.acc();
            // An empty slot's child went to another worker.
            let Some(child) = acc.deferred.pop().flatten() else {
                continue;
            };
            acc.branch(child.path_len - 1, 1);
            if !fail.beats(&acc.path) {
                self.explore(child, ctx, fail, config);
            }
        }
    }

    /// The inline walk from `node`: recovery first for a crash fork, then
    /// the step loop, walking a crash fork after every uncrashed step
    /// and parking the acted child of every branch point. A worker that
    /// finds the pool starving at either donates its shallowest parked
    /// child, or, at a crash fork with nothing parked, the fork.
    fn walk(
        &self,
        mut node: Node,
        ctx: &mut Ctx<'_, Item, SweepAcc>,
        fail: &FailState<CrashSweepFailure>,
        config: &Arc<ClientConfig>,
    ) {
        let mut scheduler = match node.scheduler.take() {
            Some(scheduler) => scheduler,
            None => {
                let acc = ctx.acc();
                match self.recover(&mut node, acc, config) {
                    Ok(scheduler) => {
                        acc.outcome.recoveries += 1;
                        scheduler
                    }
                    Err(failure) => {
                        fail.record(acc.path[..node.path_len].to_vec(), failure);
                        return;
                    }
                }
            }
        };

        loop {
            let acc = ctx.acc();
            if fail.beats(&acc.path[..node.path_len]) {
                return;
            }
            match node.crash_at {
                Some(crash_at) => {
                    if node.steps >= crash_at + 1 + self.recovery_budget {
                        // Post-crash leaf: stitch and check.
                        let (pre, post) = node.split(node.steps);
                        let checked = check_stitched(
                            &[&acc.pre[..pre], &acc.post[..post]],
                            self.config.tasks(),
                            self.config.n_sockets(),
                            Some(&node.consumed),
                        );
                        match checked {
                            Ok(report) => {
                                acc.outcome.stitched_checked += 1;
                                acc.outcome.redispatched += report.redispatched.len() as u64;
                            }
                            Err(e) => fail.record(
                                acc.path[..node.path_len].to_vec(),
                                CrashSweepFailure {
                                    crash_at,
                                    segments: acc.segments(&node, node.steps),
                                    reason: format!("stitched trace rejected: {e}"),
                                },
                            ),
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
            acc.outcome.steps += 1;
            let step = match scheduler.advance(node.response.take()) {
                Ok(step) => step,
                Err(e) => {
                    fail.record(
                        acc.path[..node.path_len].to_vec(),
                        CrashSweepFailure {
                            crash_at: node.crash_at.unwrap_or(node.steps - 1),
                            segments: acc.segments(&node, node.steps - 1),
                            reason: format!("scheduler got stuck: {e}"),
                        },
                    );
                    return;
                }
            };

            count_delivery(&mut node.consumed, &step.marker);
            if let Some(crash_at) = node.crash_at {
                acc.post.truncate(node.steps - crash_at - 2);
                acc.post.push(step.marker);
            } else {
                let i = node.steps - 1;
                acc.pre.truncate(i);
                acc.pre.push(step.marker);
                // Fork the crash branch (digit 0): the scheduler value
                // dies right here — after the marker was journaled,
                // before the request is served — and the interrupted
                // final write leaves a torn half-record on the journal.
                // Every other crash point reuses this same prefix walk.
                acc.branch(node.path_len, 0);
                let journal = node.journal.as_mut().expect("an uncrashed node journals");
                if let Err(e) = journal.append(&acc.pre[i], Instant(i as u64 + 1)) {
                    // The fork would recover from a journal without this
                    // marker; everything else below this node comes later.
                    fail.record(
                        acc.path.clone(),
                        CrashSweepFailure {
                            crash_at: i,
                            segments: vec![acc.pre.clone()],
                            reason: format!("marker {i} cannot be journaled: {e}"),
                        },
                    );
                    return;
                }
                journal.commit();
                let fork = Node {
                    scheduler: None,
                    journal: Some(journal.clone()),
                    crash_at: Some(i),
                    pre_completed: scheduler.jobs_completed(),
                    consumed: node.consumed.clone(),
                    steps: node.steps,
                    response: None,
                    path_len: node.path_len + 1,
                };
                let fork = if self.threads > 1 && ctx.starving() {
                    let acc = ctx.acc();
                    let (item, fork) = match acc.donate_shallowest() {
                        Some(item) => (item, Some(fork)),
                        None => (acc.donate(fork, 0), None),
                    };
                    ctx.spawn(item);
                    fork
                } else {
                    Some(fork)
                };
                if let Some(fork) = fork {
                    if !fail.beats(&ctx.acc().path) {
                        self.explore(fork, ctx, fail, config);
                    }
                }
                ctx.acc().branch(node.path_len, 1);
                node.path_len += 1;
            }

            if let Some(request) = step.request {
                let (response, alternative) =
                    self.choices.responses(request, &scheduler, &node.consumed);
                if let Some(alternative) = alternative {
                    // Branch point: the environment does nothing (digit
                    // 0), walked on inline, or acts (digit 1) — a message
                    // arrives, or a HI job overruns to C_HI, whose AMC
                    // mode switch must recover from every crash point
                    // like any other behaviour — parked until the inline
                    // walk ends.
                    let acted = Node {
                        scheduler: Some(scheduler.clone()),
                        journal: node.journal.clone(),
                        crash_at: node.crash_at,
                        pre_completed: node.pre_completed,
                        consumed: node.consumed.clone(),
                        steps: node.steps,
                        response: Some(alternative),
                        path_len: node.path_len + 1,
                    };
                    ctx.acc().deferred.push(Some(acted));
                    if self.threads > 1 && ctx.starving() {
                        if let Some(item) = ctx.acc().donate_shallowest() {
                            ctx.spawn(item);
                        }
                    }
                    ctx.acc().branch(node.path_len, 0);
                    node.path_len += 1;
                }
                node.response = Some(response);
            }
        }
    }

    /// Recovers a crash fork: appends the torn half-record the
    /// interrupted write left to the fork's journal and performs the
    /// supervised restart. `acc` holds the fork's pre-crash markers.
    fn recover(
        &self,
        node: &mut Node,
        acc: &SweepAcc,
        config: &Arc<ClientConfig>,
    ) -> Result<Scheduler<FirstByteCodec>, CrashSweepFailure> {
        let crash_at = node.crash_at.expect("recovery is only for crash forks");
        let failure = |reason: String| CrashSweepFailure {
            crash_at,
            segments: vec![acc.pre[..=crash_at].to_vec()],
            reason,
        };
        let journal = node
            .journal
            .take()
            .expect("a crash fork carries its journal");
        let mut bytes = journal.into_bytes();
        // The write the crash interrupted: a torn event header.
        bytes.extend_from_slice(&[KIND_EVENT, 0xFF, 0xFF]);
        #[cfg(test)]
        tests::hand_off(&acc.pre[..=crash_at], &bytes);

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    use rossl_model::{
        Criticality, Curve, Duration, Job, JobId, Priority, SocketId, Task, TaskId, TaskSet,
    };

    /// A fork's pre-crash markers and the journal it recovered from.
    type Handed = (Vec<Marker>, Vec<u8>);

    thread_local! {
        /// When a test sets it, every journal a sweep on this thread
        /// hands to recovery.
        static HANDED: RefCell<Option<Vec<Handed>>> = const { RefCell::new(None) };
    }

    /// Records `journal`, the bytes a fork with pre-crash markers `pre`
    /// recovers from, if a test on this thread asked for them.
    pub(super) fn hand_off(pre: &[Marker], journal: &[u8]) {
        HANDED.with_borrow_mut(|handed| {
            if let Some(handed) = handed {
                handed.push((pre.to_vec(), journal.to_vec()));
            }
        });
    }

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

    /// A message too large to journal fails the sweep at the fork right
    /// after the marker that carries it. The smallest failing path
    /// delays both reads to the last crash point, so the one segment is
    /// the whole pre-crash prefix, oversized `ReadEnd` included.
    #[test]
    fn an_unjournalable_message_fails_at_the_fork_after_its_read() {
        let big = vec![1u8; rossl_journal::MAX_RECORD_LEN as usize + 1];
        let read = |job: Option<Job>| {
            [
                Marker::ReadStart,
                Marker::ReadEnd {
                    sock: SocketId(0),
                    job,
                },
            ]
        };
        let mut expected = Vec::new();
        for _ in 0..2 {
            expected.extend(read(None));
            expected.extend([Marker::Selection, Marker::Idling]);
        }
        expected.extend(read(Some(Job::new(JobId(0), TaskId(0), vec![0]))));
        expected.extend(read(Some(Job::new(JobId(1), TaskId(1), big.clone()))));
        for threads in [1, 2, 4, 8] {
            let failure = CrashSweep::new(config(1), vec![vec![vec![0], big.clone()]], 12)
                .with_threads(threads)
                .sweep()
                .unwrap_err();
            assert_eq!(failure.crash_at, 11, "threads={threads}");
            assert!(
                failure.segments == [expected.clone()],
                "threads={threads}: segments of {:?} markers",
                failure.segments.iter().map(Vec::len).collect::<Vec<_>>()
            );
            assert_eq!(
                failure.reason,
                "marker 11 cannot be journaled: record payload of 1048614 bytes \
                 exceeds the 1048576-byte cap",
                "threads={threads}"
            );
        }
    }

    /// `n` distinct markers: reads that find nothing on sockets `0..n`.
    fn markers(n: usize) -> Vec<Marker> {
        (0..n)
            .map(|s| Marker::ReadEnd {
                sock: SocketId(s),
                job: None,
            })
            .collect()
    }

    /// An uncrashed walk parked an acted child at depth 2, then the fork
    /// that crashed after marker 3 parked two at depths 6 and 9, and the
    /// walk is inside the deepest one's digit-0 continuation. With the
    /// shallowest child taken by hand, a starving worker is handed the
    /// middle one, with both of its segments, and the walk that parked
    /// it finds the slot empty.
    #[test]
    fn a_starving_worker_is_handed_the_shallowest_parked_child() {
        let node = |steps, crash_at: Option<usize>, path_len| Node {
            scheduler: Some(Scheduler::new(config(1), FirstByteCodec)),
            journal: crash_at.is_none().then(JournalWriter::new),
            crash_at,
            pre_completed: 0,
            consumed: vec![0],
            steps,
            response: None,
            path_len,
        };
        let mut acc = SweepAcc {
            pre: markers(10),
            post: markers(8),
            path: vec![1, 0, 1, 0, 0, 1, 0],
            deferred: vec![
                Some(node(2, None, 2)),
                Some(node(6, Some(3), 5)),
                Some(node(9, Some(3), 7)),
            ],
            ..SweepAcc::default()
        };
        acc.deferred[0].take();

        let item = acc.donate_shallowest().expect("two children are parked");
        assert_eq!(item.node.steps, 6);
        assert_eq!(
            item.path,
            [1, 0, 1, 0, 1],
            "the prefix up to the branch, then 1"
        );
        assert_eq!(item.pre, markers(4), "the markers up to the crash");
        assert_eq!(
            item.post,
            markers(2),
            "the recovered markers up to the branch"
        );
        assert!(
            acc.deferred[1].is_none(),
            "the parking walk's slot is empty"
        );
        assert_eq!(acc.deferred[2].as_ref().map(|n| n.steps), Some(9));
        assert_eq!((acc.pre.len(), acc.post.len(), acc.path.len()), (10, 8, 7));

        let item = acc.donate_shallowest().expect("one child is parked");
        assert_eq!((item.node.steps, item.path), (9, vec![1, 0, 1, 0, 0, 1, 1]));
        assert!(acc.donate_shallowest().is_none());
    }

    /// The journal of a fork with pre-crash markers `pre`, rebuilt as
    /// the sweep once rebuilt it at every fork: a fresh writer replays
    /// each marker at `Instant(index + 1)` and commits it, then the
    /// interrupted write leaves a torn event header.
    fn rebuilt_journal(pre: &[Marker]) -> Vec<u8> {
        let mut journal = JournalWriter::new();
        for (i, marker) in pre.iter().enumerate() {
            journal
                .append(marker, Instant(i as u64 + 1))
                .expect("the fixtures' markers fit a record");
            journal.commit();
        }
        let mut bytes = journal.into_bytes();
        bytes.extend_from_slice(&[KIND_EVENT, 0xFF, 0xFF]);
        bytes
    }

    #[test]
    fn every_fork_recovers_from_the_journal_a_rebuild_writes() {
        let amc = ModePolicy::Amc {
            hysteresis_idles: 1,
        };
        let fixtures = [
            // E17: one socket, then two.
            CrashSweep::new(config(1), vec![vec![vec![0], vec![1]]], 8),
            CrashSweep::new(config(2), vec![vec![vec![0]], vec![vec![1]]], 8),
            // E18: the branch-free scaling series, and the interleaved
            // opposite-priority queues.
            CrashSweep::new(config(1), vec![], 12).with_recovery_budget(6),
            CrashSweep::new(
                config(2),
                vec![vec![vec![0], vec![1], vec![0]], vec![vec![1], vec![0]]],
                12,
            )
            .with_recovery_budget(6),
            // E21: a HI task with C_HI headroom.
            CrashSweep::new(mixed_config(7), vec![vec![vec![1], vec![0]]], 12),
        ];
        for sweep in fixtures {
            for policy in [None, Some(amc)] {
                let sweep = match policy {
                    Some(policy) => sweep.clone().with_mode_policy(policy),
                    None => sweep.clone(),
                };
                HANDED.set(Some(Vec::new()));
                let outcome = sweep.sweep().unwrap();
                let handed = HANDED.take().expect("the sweep ran on this thread");
                assert_eq!(
                    handed.len() as u64,
                    outcome.recoveries,
                    "{policy:?}: {outcome}"
                );
                for (pre, journal) in &handed {
                    assert!(
                        *journal == rebuilt_journal(pre),
                        "{policy:?}: the journal of the crash after marker {} differs",
                        pre.len() - 1
                    );
                }
            }
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
