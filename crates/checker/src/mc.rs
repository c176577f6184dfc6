//! Bounded exhaustive model checking of the scheduler (the Thm. 3.4
//! analogue).
//!
//! The only nondeterminism in Rössl's untimed behaviour is the outcome of
//! each `read`: the environment may deliver the next message queued on the
//! socket, or deliver nothing (the message has not arrived yet — or never
//! arrives). [`ModelChecker`] drives the *actual* [`rossl::Scheduler`]
//! through **every** resolution of this nondeterminism, up to a step
//! bound, checking on the fly that every emitted marker satisfies its
//! §3.1 specification ([`SpecMonitor`]) and at every leaf that the whole
//! trace passes the Def. 3.1 protocol acceptance and the Def. 3.2
//! functional-correctness checker.
//!
//! With a [`ModePolicy`] installed ([`ModelChecker::with_mode_policy`])
//! a second axis of nondeterminism opens: every `Execute` of a
//! HI-criticality task with `C_HI` headroom over the current mode's
//! budget branches between completing within budget and overrunning to
//! `C_HI` — still inside the Vestal envelope, so the scheduler's AMC
//! reaction (mode switch, LO-job suspension, hysteresis return) is
//! *correct* behaviour the checker must accept, at every placement
//! against every read resolution.
//!
//! Both axes are one branching rule, shared with
//! [`CrashSweep`](crate::CrashSweep), and both walks count a delivered
//! message as consumed in the step whose `ReadEnd` receives it.
//!
//! Because the scheduler is a cloneable value, exploration is a plain
//! tree walk over `(scheduler, environment)` snapshots — no
//! instrumentation, process forking or unsafe trickery involved. Two
//! orthogonal accelerators are layered on top (DESIGN §6), both
//! preserving the sequential result bit for bit:
//!
//! * **Parallelism** ([`ModelChecker::with_threads`]): branch nodes
//!   become stealable work items on a [`rossl_par::Pool`]; outcomes are
//!   folded through a commutative reduction, and the reported
//!   counterexample is the one with the lexicographically smallest
//!   branch path — exactly the failure a sequential depth-first walk
//!   reports first, regardless of interleaving.
//! * **Deduplication** ([`ModelChecker::with_dedup`]): every visited
//!   node is fingerprinted (scheduler state, monitor state, environment
//!   cursors, depth, pending response). When a fingerprint recurs, the
//!   memoized subtree *summary* (paths, steps, maximal trace length) of
//!   its first occurrence is credited instead of re-exploring, so
//!   [`CheckOutcome`] still reports full-tree totals while the machine
//!   only walks each distinct state once per depth.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use rossl::{ClientConfig, FirstByteCodec, ModePolicy, Response, Scheduler};
use rossl_model::MsgData;
use rossl_par::{Ctx, Pool, Reduce};
use rossl_trace::{check_functional, Marker, ProtocolAutomaton};

use crate::monitor::SpecMonitor;
use crate::shared::{
    count_delivery, materialize_path, materialize_trace, push_path, push_trace, Choices, FailState,
    PathLink, TraceLink,
};

/// Aggregate result of an exhaustive exploration.
///
/// The counts describe the *full* behaviour tree: with deduplication on,
/// pruned subtrees are credited from their memoized summaries, so the
/// totals are identical to a non-deduplicated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Number of maximal paths explored.
    pub paths: u64,
    /// Number of scheduler steps executed in total.
    pub steps: u64,
    /// Length of the longest trace explored.
    pub max_trace_len: usize,
}

impl fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} paths, {} steps, longest trace {}",
            self.paths, self.steps, self.max_trace_len
        )
    }
}

/// How much work the machine actually performed for a [`CheckOutcome`],
/// as opposed to what the outcome credits (see
/// [`ModelChecker::check_with_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Maximal paths actually driven through the scheduler.
    pub explored_paths: u64,
    /// Scheduler steps actually executed.
    pub explored_steps: u64,
    /// Fingerprint-memo lookups performed (zero without dedup).
    pub memo_lookups: u64,
    /// Fingerprint-memo hits (subtrees credited without re-exploration).
    pub memo_hits: u64,
    /// Paths credited from memoized summaries instead of execution.
    pub pruned_paths: u64,
    /// Steps credited from memoized summaries instead of execution.
    pub pruned_steps: u64,
    /// Branch nodes donated to starving pool workers (the steal count).
    pub donated_subtrees: u64,
}

impl fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "explored {} paths / {} steps, pruned {} paths / {} steps over {}/{} memo hits, {} donations",
            self.explored_paths,
            self.explored_steps,
            self.pruned_paths,
            self.pruned_steps,
            self.memo_hits,
            self.memo_lookups,
            self.donated_subtrees
        )
    }
}

/// A counterexample: the trace that violated an invariant.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// The offending trace (markers emitted up to and including the
    /// violation).
    pub trace: Vec<Marker>,
    /// Human-readable description of the violated invariant.
    pub reason: String,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated after {} markers: {}", self.trace.len(), self.reason)
    }
}

impl std::error::Error for CheckFailure {}

/// One exploration snapshot: a scheduler about to take its next step.
/// Doubles as the pool's work item when a subtree is donated.
struct ExploreNode {
    scheduler: Scheduler<FirstByteCodec>,
    monitor: SpecMonitor,
    trace: TraceLink,
    /// Messages delivered per socket, counted at the `ReadEnd` that
    /// receives each: the cursor into the pending queues.
    consumed: Vec<usize>,
    steps: usize,
    response: Option<Response>,
    path: PathLink,
}

/// What a fully explored subtree contributes, relative to its root: used
/// both for crediting memo hits and for propagating summaries up to
/// ancestor fingerprints.
#[derive(Debug, Clone, Copy, Default)]
struct SubtreeSummary {
    paths: u64,
    steps: u64,
    /// Longest trace in the subtree, in markers *beyond* the root's.
    max_suffix: usize,
}

const MEMO_SHARDS: usize = 64;

/// Sharded fingerprint → summary map. Sharding by the low fingerprint
/// bits keeps lock contention negligible even when every worker hits the
/// memo on every step.
struct Memo {
    shards: Vec<Mutex<HashMap<u128, SubtreeSummary>>>,
}

impl Memo {
    fn new() -> Memo {
        Memo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, fp: u128) -> &Mutex<HashMap<u128, SubtreeSummary>> {
        &self.shards[(fp as usize) & (MEMO_SHARDS - 1)]
    }

    fn get(&self, fp: u128) -> Option<SubtreeSummary> {
        self.shard(fp).lock().expect("memo shard poisoned").get(&fp).copied()
    }

    fn insert(&self, fp: u128, summary: SubtreeSummary) {
        // First insertion wins; racing workers compute identical
        // summaries for identical fingerprints, so which one lands is
        // immaterial.
        self.shard(fp)
            .lock()
            .expect("memo shard poisoned")
            .entry(fp)
            .or_insert(summary);
    }
}

/// The per-worker accumulator the pool merges: full-tree outcome totals
/// plus machine-work statistics. Addition and max are commutative, so
/// the merged value is interleaving-independent.
#[derive(Default)]
struct ExploreAcc {
    outcome: CheckOutcome,
    stats: ExploreStats,
}

impl Reduce for ExploreAcc {
    fn merge(&mut self, other: ExploreAcc) {
        self.outcome.paths += other.outcome.paths;
        self.outcome.steps += other.outcome.steps;
        self.outcome.max_trace_len = self.outcome.max_trace_len.max(other.outcome.max_trace_len);
        self.stats.explored_paths += other.stats.explored_paths;
        self.stats.explored_steps += other.stats.explored_steps;
        self.stats.memo_lookups += other.stats.memo_lookups;
        self.stats.memo_hits += other.stats.memo_hits;
        self.stats.pruned_paths += other.stats.pruned_paths;
        self.stats.pruned_steps += other.stats.pruned_steps;
        self.stats.donated_subtrees += other.stats.donated_subtrees;
    }
}

/// Exhaustively explores the scheduler's behaviours over a bounded
/// environment.
///
/// # Examples
///
/// ```
/// use rossl::ClientConfig;
/// use rossl_model::*;
/// use rossl_verify::ModelChecker;
///
/// let tasks = TaskSet::new(vec![
///     Task::new(TaskId(0), "a", Priority(1), Duration(5), Curve::sporadic(Duration(10))),
///     Task::new(TaskId(1), "b", Priority(2), Duration(5), Curve::sporadic(Duration(10))),
/// ])?;
/// let config = ClientConfig::new(tasks, 1)?;
/// // Two messages may arrive on socket 0; explore everything for 30 steps.
/// let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1]]], 30);
/// let outcome = mc.check()?;
/// assert!(outcome.paths > 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelChecker {
    config: ClientConfig,
    /// Messages that may arrive, per socket, and where the walk branches.
    choices: Choices,
    max_steps: usize,
    /// Functional-correctness is checked against this task set; defaults
    /// to the scheduler's own. Tests use a divergent set to demonstrate
    /// that the checker detects misprioritizing implementations.
    spec_tasks: rossl_model::TaskSet,
    /// Mixed-criticality policy installed on the explored scheduler (and
    /// mirrored on the online monitor). Enables overrun branching.
    mode_policy: Option<ModePolicy>,
    threads: usize,
    dedup: bool,
    /// Telemetry bundle fed after each run; purely observational, never
    /// consulted during exploration.
    metrics: Option<std::sync::Arc<rossl_obs::VerifierMetrics>>,
}

impl ModelChecker {
    /// A checker for `config` where `pending[s]` lists the messages that
    /// may arrive on socket `s` (in FIFO order), exploring up to
    /// `max_steps` scheduler steps per path. Sequential and exhaustive by
    /// default; see [`ModelChecker::with_threads`] and
    /// [`ModelChecker::with_dedup`].
    ///
    /// # Panics
    ///
    /// Panics if `pending` has more entries than the configured socket
    /// count.
    pub fn new(config: ClientConfig, pending: Vec<Vec<MsgData>>, max_steps: usize) -> ModelChecker {
        let choices = Choices::new(&config, pending);
        let spec_tasks = config.tasks().clone();
        ModelChecker {
            config,
            choices,
            max_steps,
            spec_tasks,
            mode_policy: None,
            threads: 1,
            dedup: false,
            metrics: None,
        }
    }

    /// Installs a mixed-criticality [`ModePolicy`] on the explored
    /// scheduler, mirrored on the online [`SpecMonitor`], and enables
    /// *overrun branching*: each `Execute` of a HI task whose `C_HI`
    /// exceeds the current mode's budget becomes a branch point — the
    /// callback completes within budget (digit 0, explored first) or
    /// reports a measured time of `C_HI` (digit 1). The exploration then
    /// covers every placement of the AMC mode switch, the suspensions it
    /// causes and the hysteresis return, against every read resolution.
    pub fn with_mode_policy(mut self, policy: ModePolicy) -> ModelChecker {
        self.mode_policy = Some(policy);
        self
    }

    /// Overrides the task set the *specification* is checked against,
    /// keeping the scheduler's own configuration. With a divergent set
    /// the checker must find a counterexample — the "does the verifier
    /// have teeth" self-test.
    pub fn with_spec_tasks(mut self, tasks: rossl_model::TaskSet) -> ModelChecker {
        self.spec_tasks = tasks;
        self
    }

    /// Explores on `threads` pool workers (zero is clamped to one). The
    /// result — outcome totals and reported counterexample alike — is
    /// identical to the sequential run for every thread count.
    pub fn with_threads(mut self, threads: usize) -> ModelChecker {
        self.threads = threads.max(1);
        self
    }

    /// Enables (or disables) fingerprint deduplication. Confluent
    /// interleavings that reconverge to the same scheduler, monitor and
    /// environment state at the same depth are explored once and credited
    /// from a memoized summary thereafter; [`CheckOutcome`] still reports
    /// full-tree totals. The trade-off is the (documented, DESIGN §6)
    /// 2⁻¹²⁸-per-pair fingerprint collision risk; run with `dedup(false)`
    /// — the default — for the fully exhaustive walk.
    pub fn with_dedup(mut self, dedup: bool) -> ModelChecker {
        self.dedup = dedup;
        self
    }

    /// Feeds each exploration's work split — explored/pruned totals,
    /// memo hit rate, steal count, frontier depth — into a `verify.*`
    /// telemetry bundle after every successful [`ModelChecker::check`].
    /// Observation only: the exploration itself is bit-identical with or
    /// without the bundle.
    pub fn with_metrics(mut self, metrics: std::sync::Arc<rossl_obs::VerifierMetrics>) -> ModelChecker {
        self.metrics = Some(metrics);
        self
    }

    /// Runs the exhaustive exploration.
    ///
    /// # Errors
    ///
    /// Returns the [`CheckFailure`] counterexample with the
    /// lexicographically smallest branch path — the one a sequential
    /// depth-first exploration reports first — regardless of thread
    /// count and deduplication.
    pub fn check(&self) -> Result<CheckOutcome, CheckFailure> {
        self.check_with_stats().map(|(outcome, _)| outcome)
    }

    /// [`ModelChecker::check`], additionally reporting how much work the
    /// machine actually performed. Without deduplication
    /// `explored == outcome` and the pruned counts are zero; with it,
    /// `explored_steps + pruned_steps == outcome.steps` (and likewise for
    /// paths) — the invariant the E18 benchmark reports against.
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::check`].
    pub fn check_with_stats(&self) -> Result<(CheckOutcome, ExploreStats), CheckFailure> {
        let mut scheduler = Scheduler::new(self.config.clone(), FirstByteCodec);
        let mut monitor = SpecMonitor::new(self.spec_tasks.clone(), self.config.n_sockets());
        if let Some(policy) = self.mode_policy {
            scheduler = scheduler.with_mode_policy(policy);
            monitor = monitor.with_policy(policy);
        }
        let root = ExploreNode {
            scheduler,
            monitor,
            trace: None,
            consumed: vec![0; self.config.n_sockets()],
            steps: 0,
            response: None,
            path: None,
        };
        let fail = FailState::new();
        let memo = if self.dedup { Some(Memo::new()) } else { None };

        let acc = Pool::new(self.threads).run(vec![root], ExploreAcc::default, |item, ctx| {
            let path = materialize_path(&item.path);
            if fail.beats(&path) {
                return;
            }
            self.explore(item, path, ctx, &fail, memo.as_ref());
        });

        match fail.into_best() {
            Some(failure) => Err(failure),
            None => {
                // The work-conservation invariant the stats are defined
                // by: every path (and step) of the full tree is either
                // executed or credited from a memo — never both, never
                // neither. Held by convention since E18; promoted to an
                // assertion so any future accounting drift fails loudly
                // in debug builds.
                debug_assert_eq!(
                    acc.stats.explored_paths + acc.stats.pruned_paths,
                    acc.outcome.paths,
                    "explored + pruned paths must equal outcome paths"
                );
                debug_assert_eq!(
                    acc.stats.explored_steps + acc.stats.pruned_steps,
                    acc.outcome.steps,
                    "explored + pruned steps must equal outcome steps"
                );
                if let Some(m) = &self.metrics {
                    m.record_exploration(
                        acc.stats.explored_paths,
                        acc.stats.explored_steps,
                        acc.stats.pruned_paths,
                        acc.stats.pruned_steps,
                        acc.stats.memo_lookups,
                        acc.stats.memo_hits,
                        acc.outcome.max_trace_len as u64,
                    );
                    m.donations.add(acc.stats.donated_subtrees);
                }
                Ok((acc.outcome, acc.stats))
            }
        }
    }

    /// Depth-first walk of the subtree rooted at `node` (whose branch
    /// path is `path`), folding leaf and memo contributions into the
    /// worker accumulator.
    ///
    /// Returns the subtree's summary when this call explored it
    /// completely — the condition for memoizing the fingerprints
    /// collected along the way. Returns `None` when part of the subtree
    /// was donated to the pool (its contribution arrives through another
    /// worker's accumulator, so no frame on this stack may memoize) or
    /// when the walk aborted on a failure.
    fn explore(
        &self,
        mut node: ExploreNode,
        mut path: Vec<u8>,
        ctx: &mut Ctx<'_, ExploreNode, ExploreAcc>,
        fail: &FailState<CheckFailure>,
        memo: Option<&Memo>,
    ) -> Option<SubtreeSummary> {
        let entry_steps = node.steps;
        let mut paths_below: u64 = 0;
        let mut steps_below: u64 = 0;
        let mut max_len = entry_steps;
        // Fingerprints of this call's linear segment (between branch
        // points every node dominates the rest of the subtree, so they
        // all share the summary modulo depth offsets).
        let mut seg: Vec<(u128, usize)> = Vec::new();
        let mut clean = true;

        loop {
            if fail.beats(&path) {
                return None;
            }
            if let Some(memo) = memo {
                let fp = self.fingerprint(&node);
                ctx.acc().stats.memo_lookups += 1;
                if let Some(hit) = memo.get(fp) {
                    let acc = ctx.acc();
                    acc.outcome.paths += hit.paths;
                    acc.outcome.steps += hit.steps;
                    acc.outcome.max_trace_len = acc.outcome.max_trace_len.max(node.steps + hit.max_suffix);
                    acc.stats.memo_hits += 1;
                    acc.stats.pruned_paths += hit.paths;
                    acc.stats.pruned_steps += hit.steps;
                    paths_below += hit.paths;
                    steps_below += hit.steps;
                    max_len = max_len.max(node.steps + hit.max_suffix);
                    break;
                }
                seg.push((fp, node.steps));
            }
            if node.steps >= self.max_steps {
                let trace = materialize_trace(&node.trace);
                if let Err(failure) = self.check_leaf(&trace) {
                    fail.record(path, failure);
                    return None;
                }
                let acc = ctx.acc();
                acc.outcome.paths += 1;
                acc.outcome.max_trace_len = acc.outcome.max_trace_len.max(node.steps);
                acc.stats.explored_paths += 1;
                paths_below += 1;
                max_len = max_len.max(node.steps);
                break;
            }

            node.steps += 1;
            {
                let acc = ctx.acc();
                acc.outcome.steps += 1;
                acc.stats.explored_steps += 1;
            }
            steps_below += 1;
            let step = match node.scheduler.advance(node.response.take()) {
                Ok(step) => step,
                Err(e) => {
                    fail.record(
                        path,
                        CheckFailure {
                            trace: materialize_trace(&node.trace),
                            reason: format!("scheduler got stuck: {e}"),
                        },
                    );
                    return None;
                }
            };
            count_delivery(&mut node.consumed, &step.marker);
            node.trace = push_trace(&node.trace, step.marker.clone());
            if let Err(v) = node.monitor.observe(&step.marker) {
                fail.record(
                    path,
                    CheckFailure {
                        trace: materialize_trace(&node.trace),
                        reason: v.to_string(),
                    },
                );
                return None;
            }
            // Feed the same step's degradation events — an overrun arming
            // a switch, a suspension, a resume — after the marker, as the
            // live executor does. Draining also keeps the event buffer
            // out of the fingerprint, which would otherwise grow
            // monotonically and defeat deduplication.
            for event in node.scheduler.take_degradation_events() {
                if let Err(v) = node.monitor.observe_degradation(&event) {
                    fail.record(
                        path,
                        CheckFailure {
                            trace: materialize_trace(&node.trace),
                            reason: v.to_string(),
                        },
                    );
                    return None;
                }
            }

            if let Some(request) = step.request {
                let (response, alternative) =
                    self.choices
                        .responses(request, &node.scheduler, &node.consumed);
                node.response = Some(response);
                if let Some(alternative) = alternative {
                    // Branch point: the environment does nothing (digit
                    // 0, explored first) or acts (digit 1).
                    let acted = ExploreNode {
                        scheduler: node.scheduler.clone(),
                        monitor: node.monitor.clone(),
                        trace: node.trace.clone(),
                        consumed: node.consumed.clone(),
                        steps: node.steps,
                        response: Some(alternative),
                        path: push_path(&node.path, 1),
                    };
                    node.path = push_path(&node.path, 0);
                    match self.fork(
                        node, acted, path, ctx, fail, memo,
                        &mut paths_below, &mut steps_below, &mut max_len, &mut clean,
                    ) {
                        Some((n, p)) => {
                            node = n;
                            path = p;
                        }
                        None => break,
                    }
                }
            }
        }

        if !clean {
            return None;
        }
        if let Some(memo) = memo {
            for &(fp, at_steps) in &seg {
                memo.insert(
                    fp,
                    SubtreeSummary {
                        paths: paths_below,
                        steps: steps_below - (at_steps - entry_steps) as u64,
                        max_suffix: max_len.saturating_sub(at_steps),
                    },
                );
            }
        }
        Some(SubtreeSummary {
            paths: paths_below,
            steps: steps_below,
            max_suffix: max_len - entry_steps,
        })
    }

    /// Resolves a branch point with children `zero` (explored first)
    /// and `one`. Under starvation the `one` child is donated to an
    /// idle pool worker and `Some((zero, path))` is returned for the
    /// caller to keep walking inline — its results then flow through
    /// another accumulator, so nothing on the calling frame stack may
    /// memoize. Otherwise both children are recursed depth-first, their
    /// summaries folded into the caller's subtree accounting, and
    /// `None` ends the caller's linear segment.
    #[allow(clippy::too_many_arguments)]
    fn fork(
        &self,
        zero: ExploreNode,
        one: ExploreNode,
        path: Vec<u8>,
        ctx: &mut Ctx<'_, ExploreNode, ExploreAcc>,
        fail: &FailState<CheckFailure>,
        memo: Option<&Memo>,
        paths_below: &mut u64,
        steps_below: &mut u64,
        max_len: &mut usize,
        clean: &mut bool,
    ) -> Option<(ExploreNode, Vec<u8>)> {
        if self.threads > 1 && ctx.starving() {
            ctx.spawn(one);
            ctx.acc().stats.donated_subtrees += 1;
            *clean = false;
            let mut path = path;
            path.push(0);
            return Some((zero, path));
        }
        let branch_depth = zero.steps;
        let mut path0 = path.clone();
        path0.push(0);
        let mut path1 = path;
        path1.push(1);
        let s0 = if fail.beats(&path0) {
            None
        } else {
            self.explore(zero, path0, ctx, fail, memo)
        };
        let s1 = if fail.beats(&path1) {
            None
        } else {
            self.explore(one, path1, ctx, fail, memo)
        };
        match (s0, s1) {
            (Some(a), Some(b)) => {
                *paths_below += a.paths + b.paths;
                *steps_below += a.steps + b.steps;
                *max_len = (*max_len)
                    .max(branch_depth + a.max_suffix)
                    .max(branch_depth + b.max_suffix);
            }
            _ => *clean = false,
        }
        None
    }

    /// The 128-bit state fingerprint deduplication keys on: scheduler
    /// state (canonical pending-queue digest, loop phase, counters,
    /// degradation), monitor abstract state, environment cursors, depth
    /// and the buffered response. Two nodes with equal fingerprints have
    /// (collisions aside) identical behaviour subtrees — see DESIGN §6
    /// for the argument.
    fn fingerprint(&self, node: &ExploreNode) -> u128 {
        let feed = |h: &mut DefaultHasher| {
            node.scheduler.state_digest(h);
            node.monitor.state_digest(h);
            node.consumed.hash(h);
            node.steps.hash(h);
            node.response.hash(h);
        };
        let mut h1 = DefaultHasher::new();
        h1.write_u64(0x9e37_79b9_7f4a_7c15);
        feed(&mut h1);
        let mut h2 = DefaultHasher::new();
        h2.write_u64(0xc2b2_ae3d_27d4_eb4f);
        feed(&mut h2);
        ((h1.finish() as u128) << 64) | h2.finish() as u128
    }

    /// Leaf check: whole-trace acceptance (Def. 3.1) and functional
    /// correctness (Def. 3.2) — redundant with the online monitor by
    /// design (two independently written checkers guard each other).
    fn check_leaf(&self, trace: &[Marker]) -> Result<(), CheckFailure> {
        ProtocolAutomaton::new(self.config.n_sockets())
            .accept(trace)
            .map_err(|e| CheckFailure {
                trace: trace.to_vec(),
                reason: format!("protocol rejected: {e}"),
            })?;
        check_functional(trace, &self.spec_tasks).map_err(|e| CheckFailure {
            trace: trace.to_vec(),
            reason: format!("functional correctness: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Criticality, Curve, Duration, Priority, Task, TaskId, TaskSet};

    fn tasks(prio0: u32, prio1: u32) -> TaskSet {
        TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "a",
                Priority(prio0),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
            Task::new(
                TaskId(1),
                "b",
                Priority(prio1),
                Duration(5),
                Curve::sporadic(Duration(10)),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn exhaustive_exploration_passes_single_socket() {
        let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
        let mc = ModelChecker::new(
            config,
            vec![vec![vec![0], vec![1], vec![0]]], // three messages
            40,
        );
        let outcome = mc.check().unwrap();
        assert!(outcome.paths >= 8, "outcome: {outcome}");
    }

    #[test]
    fn exhaustive_exploration_passes_two_sockets() {
        let config = ClientConfig::new(tasks(3, 3), 2).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1]], vec![vec![1]]], 34);
        let outcome = mc.check().unwrap();
        assert!(outcome.paths > 10);
        assert!(outcome.max_trace_len > 10);
    }

    #[test]
    fn empty_environment_is_a_single_idle_path() {
        let config = ClientConfig::new(tasks(1, 2), 1).unwrap();
        let mc = ModelChecker::new(config, vec![], 20);
        let outcome = mc.check().unwrap();
        assert_eq!(outcome.paths, 1);
    }

    #[test]
    fn checker_detects_misprioritized_specifications() {
        // The scheduler runs with priorities (1, 9); the specification
        // expects (9, 1). Some interleaving reads both messages and
        // dispatches "the wrong one" per the spec — the checker must find
        // it. This demonstrates the verification has teeth.
        let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1]]], 40)
            .with_spec_tasks(tasks(9, 1));
        let failure = mc.check().unwrap_err();
        assert!(
            failure.reason.contains("higher-priority"),
            "unexpected reason: {}",
            failure.reason
        );
        assert!(!failure.trace.is_empty());
    }

    #[test]
    fn step_bound_is_respected() {
        let config = ClientConfig::new(tasks(1, 2), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0]]], 7);
        let outcome = mc.check().unwrap();
        assert!(outcome.max_trace_len <= 7);
    }

    #[test]
    #[should_panic(expected = "more sockets")]
    fn oversized_pending_panics() {
        let config = ClientConfig::new(tasks(1, 2), 1).unwrap();
        let _ = ModelChecker::new(config, vec![vec![], vec![]], 10);
    }

    #[test]
    fn parallel_outcome_matches_sequential() {
        let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1], vec![0]]], 40);
        let baseline = mc.check().unwrap();
        for threads in [2, 4, 8] {
            let outcome = mc.clone().with_threads(threads).check().unwrap();
            assert_eq!(outcome, baseline, "threads={threads}");
        }
    }

    #[test]
    fn dedup_outcome_matches_exhaustive() {
        let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1], vec![0]]], 40);
        let baseline = mc.check().unwrap();
        let (outcome, stats) = mc.clone().with_dedup(true).check_with_stats().unwrap();
        assert_eq!(outcome, baseline);
        assert!(stats.memo_hits > 0, "stats: {stats}");
        assert!(stats.explored_steps < outcome.steps, "stats: {stats}");
        assert_eq!(stats.explored_steps + stats.pruned_steps, outcome.steps);
        assert_eq!(stats.explored_paths + stats.pruned_paths, outcome.paths);
    }

    #[test]
    fn without_dedup_stats_equal_outcome() {
        let config = ClientConfig::new(tasks(1, 2), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0]]], 20);
        let (outcome, stats) = mc.check_with_stats().unwrap();
        assert_eq!(stats.explored_paths, outcome.paths);
        assert_eq!(stats.explored_steps, outcome.steps);
        assert_eq!(stats.memo_lookups, 0);
        assert_eq!(stats.memo_hits, 0);
        assert_eq!(stats.pruned_paths, 0);
    }

    /// The `explored + pruned == outcome` invariant is now a
    /// `debug_assert!` inside `check_with_stats`, so merely running the
    /// checker exercises it; this test additionally pins it across every
    /// thread/dedup combination, where the accounting is hardest.
    #[test]
    fn work_conservation_invariant_holds_for_all_modes() {
        let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1], vec![0]]], 40);
        for (threads, dedup) in [(1, false), (1, true), (4, false), (4, true)] {
            let (outcome, stats) = mc
                .clone()
                .with_threads(threads)
                .with_dedup(dedup)
                .check_with_stats()
                .unwrap();
            assert_eq!(
                stats.explored_paths + stats.pruned_paths,
                outcome.paths,
                "threads={threads} dedup={dedup}: {stats}"
            );
            assert_eq!(
                stats.explored_steps + stats.pruned_steps,
                outcome.steps,
                "threads={threads} dedup={dedup}: {stats}"
            );
            assert!(
                stats.memo_hits <= stats.memo_lookups,
                "threads={threads} dedup={dedup}: {stats}"
            );
        }
    }

    #[test]
    fn metrics_bundle_receives_the_work_split() {
        use rossl_obs::{Registry, VerifierMetrics};

        let registry = Registry::new();
        let bundle = VerifierMetrics::register(&registry);
        let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1], vec![0]]], 40)
            .with_dedup(true)
            .with_metrics(std::sync::Arc::clone(&bundle));
        let (outcome, stats) = mc.check_with_stats().unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("verify.explored_paths"), Some(stats.explored_paths));
        assert_eq!(snap.counter("verify.explored_steps"), Some(stats.explored_steps));
        assert_eq!(snap.counter("verify.pruned_paths"), Some(stats.pruned_paths));
        assert_eq!(snap.counter("verify.pruned_steps"), Some(stats.pruned_steps));
        assert_eq!(snap.counter("verify.memo_lookups"), Some(stats.memo_lookups));
        assert_eq!(snap.counter("verify.memo_hits"), Some(stats.memo_hits));
        assert_eq!(
            snap.high_water("verify.frontier_depth"),
            Some(outcome.max_trace_len as u64)
        );
        // Both totals of the promoted invariant are visible through the
        // registry, and they reassemble the outcome.
        assert_eq!(
            snap.counter("verify.explored_steps").unwrap()
                + snap.counter("verify.pruned_steps").unwrap(),
            outcome.steps
        );
        let permille = snap.gauge("verify.dedup_hit_permille").unwrap();
        assert!((0..=1000).contains(&permille), "permille: {permille}");
    }

    /// A LO task and a HI task with `headroom` ticks of C_HI over C_LO.
    fn mixed_tasks(headroom: u64) -> TaskSet {
        TaskSet::new(vec![
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
        .unwrap()
    }

    #[test]
    fn overrun_branching_explores_mode_switch_placements() {
        let pending = vec![vec![vec![0], vec![1], vec![0]]];
        let plain = ModelChecker::new(
            ClientConfig::new(mixed_tasks(7), 1).unwrap(),
            pending.clone(),
            44,
        )
        .check()
        .unwrap();
        let outcome = ModelChecker::new(
            ClientConfig::new(mixed_tasks(7), 1).unwrap(),
            pending,
            44,
        )
        .with_mode_policy(ModePolicy::Amc { hysteresis_idles: 1 })
        .check()
        .unwrap();
        // Every HI execute in LO mode doubled: switches, suspensions and
        // hysteresis returns are all explored — and all pass the online
        // monitor and the mode-aware leaf checks.
        assert!(
            outcome.paths > plain.paths,
            "policy: {outcome}, plain: {plain}"
        );
    }

    #[test]
    fn no_headroom_means_no_extra_branching() {
        // C_HI == C_LO: an overrun to C_HI is not observable, so the
        // policy must not add branch points.
        let pending = vec![vec![vec![0], vec![1]]];
        let plain = ModelChecker::new(
            ClientConfig::new(mixed_tasks(0), 1).unwrap(),
            pending.clone(),
            40,
        )
        .check()
        .unwrap();
        let outcome = ModelChecker::new(
            ClientConfig::new(mixed_tasks(0), 1).unwrap(),
            pending,
            40,
        )
        .with_mode_policy(ModePolicy::Amc { hysteresis_idles: 1 })
        .check()
        .unwrap();
        assert_eq!(outcome, plain);
    }

    #[test]
    fn mode_exploration_agrees_across_threads_and_dedup() {
        let mc = ModelChecker::new(
            ClientConfig::new(mixed_tasks(7), 1).unwrap(),
            vec![vec![vec![0], vec![1], vec![0]]],
            44,
        )
        .with_mode_policy(ModePolicy::Adaptive { hysteresis_idles: 1 });
        let baseline = mc.check().unwrap();
        for (threads, dedup) in [(1, true), (4, false), (4, true)] {
            let (outcome, stats) = mc
                .clone()
                .with_threads(threads)
                .with_dedup(dedup)
                .check_with_stats()
                .unwrap();
            assert_eq!(outcome, baseline, "threads={threads} dedup={dedup}");
            assert_eq!(
                stats.explored_paths + stats.pruned_paths,
                outcome.paths,
                "threads={threads} dedup={dedup}: {stats}"
            );
        }
    }

    #[test]
    fn divergent_criticality_spec_rejects_the_explored_switch() {
        // The scheduler's HI task is LO-criticality per the spec: the
        // spec monitor records no HI overrun, so the switch the overrun
        // branch provokes is unjustified — the checker must surface it.
        let spec = TaskSet::new(vec![
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
            .with_criticality(Criticality::Lo)
            .with_wcet_hi(Duration(12)),
        ])
        .unwrap();
        let mc = ModelChecker::new(
            ClientConfig::new(mixed_tasks(7), 1).unwrap(),
            vec![vec![vec![1]]],
            40,
        )
        .with_mode_policy(ModePolicy::Amc { hysteresis_idles: 1 })
        .with_spec_tasks(spec);
        let failure = mc.check().unwrap_err();
        assert!(
            failure.reason.contains("without a recorded"),
            "unexpected reason: {}",
            failure.reason
        );
        // The counterexample is stable across the accelerators.
        for (threads, dedup) in [(1, true), (4, true)] {
            let again = mc
                .clone()
                .with_threads(threads)
                .with_dedup(dedup)
                .check()
                .unwrap_err();
            assert_eq!(again.reason, failure.reason);
            assert_eq!(again.trace, failure.trace);
        }
    }

    #[test]
    fn parallel_and_dedup_find_the_sequential_counterexample() {
        let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1]]], 40)
            .with_spec_tasks(tasks(9, 1));
        let baseline = mc.check().unwrap_err();
        for (threads, dedup) in [(1, true), (4, false), (4, true), (8, true)] {
            let failure = mc
                .clone()
                .with_threads(threads)
                .with_dedup(dedup)
                .check()
                .unwrap_err();
            assert_eq!(
                failure.trace, baseline.trace,
                "threads={threads} dedup={dedup}"
            );
            assert_eq!(failure.reason, baseline.reason);
        }
    }
}
