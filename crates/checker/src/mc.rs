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
//! functional-correctness check. Both leaf checks are carried down the
//! walk a marker at a time, so a leaf reads their verdict instead of
//! re-checking its trace.
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
//! * **Parallelism** ([`ModelChecker::with_threads`]): each fork parks
//!   its `one` child on a per-worker stack while it walks its `zero`
//!   subtree, then takes the child back and walks it. A worker that finds
//!   the [`rossl_par::Pool`] starving hands it the shallowest child still
//!   parked, the largest subtree it has yet to walk, as a work item.
//!   Outcomes are folded through a commutative reduction, and the
//!   reported counterexample is the one with the lexicographically
//!   smallest branch path — exactly the failure a sequential depth-first
//!   walk reports first, regardless of interleaving.
//! * **Deduplication** ([`ModelChecker::with_dedup`]): every branch
//!   point is fingerprinted (scheduler state, monitor state, environment
//!   cursors, depth, pending response). When a fingerprint recurs, the
//!   memoized subtree *summary* (paths, steps, maximal trace length) of
//!   its first occurrence is credited instead of re-exploring, so
//!   [`CheckOutcome`] still reports full-tree totals while the machine
//!   only walks each distinct branch point once per depth. States that
//!   meet between branch points merge at the next one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Mutex;

use rossl::{ClientConfig, FirstByteCodec, ModePolicy, Response, Scheduler};
use rossl_model::{MsgData, TaskSet};
use rossl_par::{Ctx, Pool, Reduce};
use rossl_trace::{
    FunctionalCheck, FunctionalError, Marker, ProtocolAutomaton, ProtocolError, ProtocolState,
};

use crate::monitor::SpecMonitor;
use crate::shared::{count_delivery, Choices, FailState};

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
/// Its trace is the first `steps` markers on the worker's trace stack,
/// and its branch path the first `path_len` digits on the path stack.
struct ExploreNode<'t> {
    scheduler: Scheduler<FirstByteCodec>,
    monitor: SpecMonitor,
    /// The leaf checks, over the node's trace.
    leaf: LeafCheck<'t>,
    /// Messages delivered per socket, counted at the `ReadEnd` that
    /// receives each: the cursor into the pending queues.
    consumed: Vec<usize>,
    steps: usize,
    response: Option<Response>,
    path_len: usize,
}

/// The pool's work item: a node, with the trace and branch path that
/// lead to it. Only a donated subtree (and the root) carries its own.
struct Item<'t> {
    node: ExploreNode<'t>,
    trace: Vec<Marker>,
    path: Vec<u8>,
}

/// A 128-bit state fingerprint, as its two 64-bit halves.
type Fingerprint = (u64, u64);

/// The checks a leaf's whole trace must pass, fed one marker at a time
/// as the walk extends the trace: the Def. 3.1 protocol automaton and the
/// Def. 3.2 functional check, redundant with the online monitor by
/// design (two independently written checkers guard each other). Each
/// keeps the first error it meets and takes no marker after it. An error
/// does not stop the walk: only a leaf reports it, for the trace that
/// leaf ends.
#[derive(Clone)]
struct LeafCheck<'t> {
    automaton: ProtocolAutomaton,
    protocol: Result<ProtocolState, ProtocolError>,
    functional: Result<FunctionalCheck<'t>, FunctionalError>,
}

impl<'t> LeafCheck<'t> {
    fn new(n_sockets: usize, spec_tasks: &'t TaskSet) -> LeafCheck<'t> {
        LeafCheck {
            automaton: ProtocolAutomaton::new(n_sockets),
            protocol: Ok(ProtocolState::INITIAL),
            functional: Ok(FunctionalCheck::new(spec_tasks)),
        }
    }

    /// Takes `marker`, the trace's marker at `index`. A rejected marker
    /// is reported as `ProtocolAutomaton::check` reports it.
    fn push(&mut self, index: usize, marker: &Marker) {
        if let Ok(state) = self.protocol {
            self.protocol = self
                .automaton
                .step(state, marker)
                .map_err(|violation| ProtocolError {
                    index,
                    state,
                    marker: marker.clone(),
                    violation,
                });
        }
        if let Ok(check) = &mut self.functional {
            if let Err(e) = check.push(index, marker) {
                self.functional = Err(e);
            }
        }
    }

    /// The verdict on the trace so far: the protocol error first, then
    /// the functional one.
    fn verdict(&self) -> Result<(), String> {
        self.protocol
            .as_ref()
            .map_err(|e| format!("protocol rejected: {e}"))?;
        match &self.functional {
            Ok(_) => Ok(()),
            Err(e) => Err(format!("functional correctness: {e}")),
        }
    }
}

impl ExploreNode<'_> {
    /// The 128-bit state fingerprint deduplication keys on: scheduler
    /// state (canonical pending-queue digest, loop phase, counters,
    /// degradation), monitor abstract state, environment cursors, depth
    /// and the buffered response. Two nodes with equal fingerprints have
    /// (collisions aside) identical behaviour subtrees — see DESIGN §6
    /// for the argument.
    ///
    /// The components are serialized once into `bytes`, integers as
    /// varints, and each seeded `DefaultHasher` reads them in one
    /// `write` (DESIGN §6.3).
    fn fingerprint(&self, bytes: &mut Vec<u8>) -> Fingerprint {
        bytes.clear();
        let mut sink = ByteSink(bytes);
        self.scheduler.state_digest(&mut sink);
        self.monitor.state_digest(&mut sink);
        self.consumed.hash(&mut sink);
        self.steps.hash(&mut sink);
        self.response.hash(&mut sink);
        let half = |seed: u64| {
            let mut h = DefaultHasher::new();
            h.write_u64(seed);
            h.write(bytes);
            h.finish()
        };
        (half(0x9e37_79b9_7f4a_7c15), half(0xc2b2_ae3d_27d4_eb4f))
    }
}

/// A `Hasher` that keeps the bytes it is fed instead of hashing them,
/// each integer as an LEB128 varint and raw slices verbatim. A varint
/// is self-delimiting, so two nodes' streams are equal exactly when the
/// fixed-width streams of the same writes are.
struct ByteSink<'a>(&'a mut Vec<u8>);

impl ByteSink<'_> {
    fn varint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.0.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.0.push(n as u8);
    }
}

impl Hasher for ByteSink<'_> {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn write_u8(&mut self, n: u8) {
        self.varint(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.varint(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.varint(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.varint(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.varint(n as u64);
    }

    fn write_i8(&mut self, n: i8) {
        self.write_i64(n.into());
    }

    fn write_i16(&mut self, n: i16) {
        self.write_i64(n.into());
    }

    fn write_i32(&mut self, n: i32) {
        self.write_i64(n.into());
    }

    fn write_i64(&mut self, n: i64) {
        self.varint(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_i64(n as i64);
    }

    fn finish(&self) -> u64 {
        unreachable!("the fingerprint hashes the sink's bytes, never the sink")
    }
}

/// What a fully explored subtree contributes, relative to its root: used
/// both for crediting memo hits and for propagating summaries up to
/// the branch points above it.
#[derive(Debug, Clone, Copy, Default)]
struct SubtreeSummary {
    paths: u64,
    steps: u64,
    /// Longest trace in the subtree, in markers *beyond* the root's.
    max_suffix: usize,
}

impl SubtreeSummary {
    /// The summary of a subtree whose root lies `offset` steps below a
    /// node on the same linear segment, as seen from that node.
    fn below(self, offset: usize) -> SubtreeSummary {
        SubtreeSummary {
            paths: self.paths,
            steps: self.steps + offset as u64,
            max_suffix: self.max_suffix + offset,
        }
    }
}

const MEMO_SHARDS: usize = 64;

/// Hashes a memo key by its first half: the key is already a uniform
/// hash of the node, so hashing it again would only cost time.
#[derive(Default)]
struct FirstHalf(Option<u64>);

impl Hasher for FirstHalf {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a memo key is written as two u64 halves")
    }

    fn write_u64(&mut self, half: u64) {
        self.0.get_or_insert(half);
    }

    fn finish(&self) -> u64 {
        self.0.expect("a memo key writes its first half")
    }
}

type MemoShard = HashMap<Fingerprint, SubtreeSummary, BuildHasherDefault<FirstHalf>>;

/// Sharded fingerprint → summary map. Sharding by the low bits of the
/// second half keeps lock contention negligible even when every worker
/// hits the memo at every branch point; each shard's table hashes by the
/// first half. Keyed by the two halves rather than one `u128`, whose 16-byte
/// alignment would pad each entry from 40 bytes to 48.
///
/// Shard `i` belongs to pool worker `i % workers`, and only its owner
/// grows its table. The memo is most of a check's memory, and an
/// allocator with per-thread arenas (glibc's) keeps what a thread freed
/// for that thread's later use: if each resize fell to whichever worker
/// happened to insert, the workers' shares would change from one check
/// to the next, and every arena would creep towards the largest share
/// it ever held.
struct Memo {
    shards: Vec<Mutex<MemoShard>>,
    workers: usize,
}

impl Memo {
    fn new(workers: usize) -> Memo {
        Memo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::default()).collect(),
            workers,
        }
    }

    fn index(fp: Fingerprint) -> usize {
        (fp.1 as usize) & (MEMO_SHARDS - 1)
    }

    fn get(&self, fp: Fingerprint) -> Option<SubtreeSummary> {
        self.shards[Memo::index(fp)]
            .lock()
            .expect("memo shard poisoned")
            .get(&fp)
            .copied()
    }

    /// Records `summary` under `fp` on behalf of pool worker `worker`. A
    /// worker that finds a full table it does not own skips the insert:
    /// the memo then misses a later hit, never a result. One worker owns
    /// every shard, so a one-thread walk memoizes every branch point it
    /// walks completely.
    fn insert(&self, fp: Fingerprint, summary: SubtreeSummary, worker: usize) {
        let index = Memo::index(fp);
        let mut shard = self.shards[index].lock().expect("memo shard poisoned");
        if shard.len() == shard.capacity() && index % self.workers != worker {
            return;
        }
        // First insertion wins; racing workers compute identical
        // summaries for identical fingerprints, so which one lands is
        // immaterial.
        shard.entry(fp).or_insert(summary);
    }
}

/// The per-worker accumulator the pool merges: full-tree outcome totals
/// plus machine-work statistics. Addition and max are commutative, so
/// the merged value is interleaving-independent.
#[derive(Default)]
struct ExploreAcc<'t> {
    outcome: CheckOutcome,
    stats: ExploreStats,
    /// The worker's fingerprint buffer, reused for every branch point it
    /// fingerprints. Not merged.
    fp_bytes: Vec<u8>,
    /// The markers and branch digits of the path being walked. A node
    /// truncates each stack to its own depth before pushing, so a
    /// node's prefix stays intact below all of its descendants. Not
    /// merged.
    trace: Vec<Marker>,
    path: Vec<u8>,
    /// The `one` children of the forks on the worker's stack, shallowest
    /// first, each parked while its fork's `zero` subtree is walked. A
    /// slot whose child was donated is `None`. Not merged.
    deferred: Vec<Option<ExploreNode<'t>>>,
}

impl<'t> ExploreAcc<'t> {
    /// Records a counterexample: the node with `path_len` branch digits
    /// failed after its first `trace_len` markers.
    fn record(
        &self,
        fail: &FailState<CheckFailure>,
        path_len: usize,
        trace_len: usize,
        reason: String,
    ) {
        let trace = self.trace[..trace_len].to_vec();
        fail.record(
            self.path[..path_len].to_vec(),
            CheckFailure { trace, reason },
        );
    }

    /// Sets the branch digit at `index`, dropping any digits after it.
    fn branch(&mut self, index: usize, digit: u8) {
        self.path.truncate(index);
        self.path.push(digit);
    }

    /// Takes the shallowest parked child, the largest subtree this worker
    /// has yet to walk, as a work item for another worker: with copies of
    /// its trace and of its path, the digits before its fork and then 1.
    /// The walk is inside that fork's `zero` subtree, so both prefixes
    /// are intact on the stacks. Its fork then finds the slot empty.
    /// `None` when nothing is parked.
    fn donate_shallowest(&mut self) -> Option<Item<'t>> {
        let node = self.deferred.iter_mut().find_map(Option::take)?;
        self.stats.donated_subtrees += 1;
        Some(Item {
            trace: self.trace[..node.steps].to_vec(),
            path: [&self.path[..node.path_len - 1], &[1]].concat(),
            node,
        })
    }
}

impl Reduce for ExploreAcc<'_> {
    fn merge(&mut self, other: Self) {
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

    /// Enables (or disables) fingerprint deduplication. Branch points
    /// that recur with the same scheduler, monitor and environment state
    /// at the same depth are explored once and credited from a memoized
    /// summary thereafter; [`CheckOutcome`] still reports full-tree
    /// totals. Interleavings that meet between branch points merge at
    /// the next one, or not at all when the depth bound comes first. The
    /// trade-off is the (documented, DESIGN §6) 2⁻¹²⁸-per-pair
    /// fingerprint collision risk; run with `dedup(false)` — the default
    /// — for the fully exhaustive walk.
    pub fn with_dedup(mut self, dedup: bool) -> ModelChecker {
        self.dedup = dedup;
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
        let root = self.root();
        let fail = FailState::new();
        let memo = self.dedup.then(|| Memo::new(self.threads));

        let root = Item {
            node: root,
            trace: Vec::new(),
            path: Vec::new(),
        };
        let acc = Pool::new(self.threads).run(vec![root], ExploreAcc::default, |item, ctx| {
            let acc = ctx.acc();
            acc.trace.clear();
            acc.trace.extend(item.trace);
            acc.path.clear();
            acc.path.extend(item.path);
            if fail.beats(&acc.path) {
                return;
            }
            self.explore(item.node, ctx, &fail, memo.as_ref());
            debug_assert!(
                ctx.acc().deferred.is_empty(),
                "every fork takes back the slot it parked"
            );
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
                Ok((acc.outcome, acc.stats))
            }
        }
    }

    /// The walk's root: a fresh scheduler, monitor and leaf checks,
    /// nothing consumed.
    fn root(&self) -> ExploreNode<'_> {
        let mut scheduler = Scheduler::new(self.config.clone(), FirstByteCodec);
        let mut monitor = SpecMonitor::new(self.spec_tasks.clone(), self.config.n_sockets());
        if let Some(policy) = self.mode_policy {
            scheduler = scheduler.with_mode_policy(policy);
            monitor = monitor.with_policy(policy);
        }
        ExploreNode {
            scheduler,
            monitor,
            leaf: LeafCheck::new(self.config.n_sockets(), &self.spec_tasks),
            consumed: vec![0; self.config.n_sockets()],
            steps: 0,
            response: None,
            path_len: 0,
        }
    }

    /// Depth-first walk of the subtree rooted at `node`, whose trace and
    /// branch path are on the worker's stacks, folding leaf and memo
    /// contributions into the worker accumulator. The call walks the
    /// linear segment from `node` to its leaf, failure or branch point,
    /// and a branch point's [`ModelChecker::fork`].
    ///
    /// With a memo, a branch point is looked up under the fingerprint of
    /// its `zero` child, the node that holds the response of the
    /// environment doing nothing. A hit credits the memoized summary; a
    /// miss whose fork returns a summary memoizes it under that key. The
    /// `one` child is the same node with the alternative response, and
    /// the alternative is a function of the scheduler state and the
    /// cursors, so the key determines both subtrees (DESIGN §6.3).
    ///
    /// Returns the subtree's summary when this call explored it
    /// completely. Returns `None` when a part of the subtree was donated
    /// to the pool (its contribution arrives through another worker's
    /// accumulator, so neither this frame nor any frame above it may
    /// memoize) or when the walk aborted on a failure.
    fn explore<'t>(
        &self,
        mut node: ExploreNode<'t>,
        ctx: &mut Ctx<'_, Item<'t>, ExploreAcc<'t>>,
        fail: &FailState<CheckFailure>,
        memo: Option<&Memo>,
    ) -> Option<SubtreeSummary> {
        let entry_steps = node.steps;
        loop {
            if fail.beats(&ctx.acc().path[..node.path_len]) {
                return None;
            }
            if node.steps >= self.max_steps {
                let acc = ctx.acc();
                if let Err(reason) = node.leaf.verdict() {
                    acc.record(fail, node.path_len, node.steps, reason);
                    return None;
                }
                acc.outcome.paths += 1;
                acc.outcome.max_trace_len = acc.outcome.max_trace_len.max(node.steps);
                acc.stats.explored_paths += 1;
                let leaf = SubtreeSummary {
                    paths: 1,
                    ..SubtreeSummary::default()
                };
                return Some(leaf.below(node.steps - entry_steps));
            }

            node.steps += 1;
            {
                let acc = ctx.acc();
                acc.outcome.steps += 1;
                acc.stats.explored_steps += 1;
            }
            let step = match node.scheduler.advance(node.response.take()) {
                Ok(step) => step,
                Err(e) => {
                    let reason = format!("scheduler got stuck: {e}");
                    ctx.acc()
                        .record(fail, node.path_len, node.steps - 1, reason);
                    return None;
                }
            };
            count_delivery(&mut node.consumed, &step.marker);
            let acc = ctx.acc();
            acc.trace.truncate(node.steps - 1);
            acc.trace.push(step.marker);
            let marker = &acc.trace[node.steps - 1];
            node.leaf.push(node.steps - 1, marker);
            if let Err(v) = node.monitor.observe(marker) {
                acc.record(fail, node.path_len, node.steps, v.to_string());
                return None;
            }
            // Feed the same step's degradation events — an overrun arming
            // a switch, a suspension, a resume — after the marker, as the
            // live executor does. Draining also keeps the event buffer
            // out of the fingerprint, which would otherwise grow
            // monotonically and defeat deduplication.
            for event in node.scheduler.take_degradation_events() {
                if let Err(v) = node.monitor.observe_degradation(&event) {
                    acc.record(fail, node.path_len, node.steps, v.to_string());
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
                    let offset = node.steps - entry_steps;
                    let mut key = None;
                    if let Some(memo) = memo {
                        acc.stats.memo_lookups += 1;
                        let fp = node.fingerprint(&mut acc.fp_bytes);
                        if let Some(hit) = memo.get(fp) {
                            acc.outcome.paths += hit.paths;
                            acc.outcome.steps += hit.steps;
                            acc.outcome.max_trace_len =
                                acc.outcome.max_trace_len.max(node.steps + hit.max_suffix);
                            acc.stats.memo_hits += 1;
                            acc.stats.pruned_paths += hit.paths;
                            acc.stats.pruned_steps += hit.steps;
                            return Some(hit.below(offset));
                        }
                        key = Some((memo, fp));
                    }
                    node.path_len += 1;
                    let acted = ExploreNode {
                        scheduler: node.scheduler.clone(),
                        monitor: node.monitor.clone(),
                        leaf: node.leaf.clone(),
                        consumed: node.consumed.clone(),
                        steps: node.steps,
                        response: Some(alternative),
                        path_len: node.path_len,
                    };
                    let summary = self.fork(node, acted, ctx, fail, memo)?;
                    if let Some((memo, fp)) = key {
                        memo.insert(fp, summary, ctx.worker());
                    }
                    return Some(summary.below(offset));
                }
            }
        }
    }

    /// Resolves a branch point with children `zero` (explored first)
    /// and `one`, whose paths end in the digit at index `path_len - 1`.
    /// `one` is parked on the worker's `deferred` stack while the `zero`
    /// subtree is walked, then taken back and walked. A worker that
    /// finds the pool starving here donates its shallowest parked child,
    /// this fork's or an ancestor's.
    ///
    /// Returns the summary of both subtrees, relative to the branch
    /// depth, when this call walked both completely. Returns `None` when
    /// either walk returned `None`, or when `one`'s slot was found
    /// empty: another worker walks that child, so this fork and every
    /// fork above it stay unmemoized, while the forks inside the `zero`
    /// subtree memoize as usual.
    fn fork<'t>(
        &self,
        zero: ExploreNode<'t>,
        one: ExploreNode<'t>,
        ctx: &mut Ctx<'_, Item<'t>, ExploreAcc<'t>>,
        fail: &FailState<CheckFailure>,
        memo: Option<&Memo>,
    ) -> Option<SubtreeSummary> {
        let index = zero.path_len - 1;
        ctx.acc().deferred.push(Some(one));
        if self.threads > 1 && ctx.starving() {
            if let Some(item) = ctx.acc().donate_shallowest() {
                ctx.spawn(item);
            }
        }
        ctx.acc().branch(index, 0);
        let s0 = if fail.beats(&ctx.acc().path) {
            None
        } else {
            self.explore(zero, ctx, fail, memo)
        };
        let acc = ctx.acc();
        let one = acc
            .deferred
            .pop()
            .expect("a fork takes back the slot it parked")?;
        acc.branch(index, 1);
        let s1 = if fail.beats(&acc.path) {
            None
        } else {
            self.explore(one, ctx, fail, memo)
        };
        let (a, b) = (s0?, s1?);
        Some(SubtreeSummary {
            paths: a.paths + b.paths,
            steps: a.steps + b.steps,
            max_suffix: a.max_suffix.max(b.max_suffix),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use rossl_model::{Criticality, Curve, Duration, Job, JobId, Priority, Task, TaskId};

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

    /// Donation is how a starving pool worker is fed; a sequential
    /// exploration has no one to feed, so its steal count stays zero and
    /// its stats repeat exactly.
    #[test]
    fn sequential_exploration_donates_nothing() {
        let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
        let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1], vec![0]]], 40);
        for dedup in [false, true] {
            let mc = mc.clone().with_dedup(dedup);
            let (outcome, stats) = mc.check_with_stats().unwrap();
            assert_eq!(stats.donated_subtrees, 0, "dedup={dedup}: {stats}");
            assert_eq!(mc.check_with_stats().unwrap(), (outcome, stats), "dedup={dedup}");
        }
    }

    /// `n` distinct markers: reads that find nothing on sockets `0..n`.
    fn markers(n: usize) -> Vec<Marker> {
        (0..n)
            .map(|s| Marker::ReadEnd {
                sock: rossl_model::SocketId(s),
                job: None,
            })
            .collect()
    }

    /// Three forks at depths 3, 6 and 9 parked their `one` children, and
    /// the walk is inside the deepest one's `zero` subtree. With the
    /// shallowest child taken by hand, a starving worker is handed the
    /// middle one, with its own prefixes, and its fork finds the slot
    /// empty.
    #[test]
    fn a_starving_worker_is_handed_the_shallowest_parked_child() {
        let mc = ModelChecker::new(ClientConfig::new(tasks(1, 9), 1).unwrap(), vec![], 20);
        let mut acc = ExploreAcc {
            trace: markers(12),
            path: vec![1, 0, 1, 0, 1, 0],
            ..ExploreAcc::default()
        };
        // The forks' digits sit at indices 1, 3 and 5: each is 0 on the
        // path stack, the digit of the `zero` subtree being walked.
        for (steps, path_len) in [(3, 2), (6, 4), (9, 6)] {
            acc.deferred.push(Some(ExploreNode {
                steps,
                path_len,
                ..mc.root()
            }));
        }
        acc.deferred[0].take();

        let item = acc.donate_shallowest().expect("two children are parked");
        assert_eq!(item.node.steps, 6);
        assert_eq!(item.path, [1, 0, 1, 1], "the prefix up to the fork, then 1");
        assert_eq!(item.trace, markers(6));
        assert_eq!(acc.stats.donated_subtrees, 1);
        assert!(acc.deferred[1].is_none(), "the middle fork's slot is empty");
        assert_eq!(acc.deferred[2].as_ref().map(|n| n.steps), Some(9));
        assert_eq!(
            (acc.trace.len(), acc.path.len()),
            (12, 6),
            "the stacks stay"
        );

        let item = acc.donate_shallowest().expect("one child is parked");
        assert_eq!((item.node.steps, item.path), (9, vec![1, 0, 1, 0, 1, 1]));
        assert!(acc.donate_shallowest().is_none());
    }

    /// Shard 1 of a two-worker memo belongs to worker 1. Worker 0 may
    /// fill its table but never grows it; a one-worker memo grows every
    /// shard.
    #[test]
    fn only_the_owning_worker_grows_a_memo_shard() {
        let summary = SubtreeSummary::default();
        let len = |memo: &Memo| memo.shards[1].lock().unwrap().len();
        let capacity = |memo: &Memo| memo.shards[1].lock().unwrap().capacity();
        // Fingerprints whose second half selects shard 1.
        let mut fps = (0..).map(|k| (k, 1 + MEMO_SHARDS as u64 * k));

        let memo = Memo::new(2);
        memo.insert(fps.next().unwrap(), summary, 0);
        assert_eq!((len(&memo), capacity(&memo)), (0, 0), "no table yet");
        memo.insert(fps.next().unwrap(), summary, 1);
        let allocated = capacity(&memo);
        assert!(allocated > 1);
        while len(&memo) < allocated {
            memo.insert(fps.next().unwrap(), summary, 0);
        }
        memo.insert(fps.next().unwrap(), summary, 0);
        assert_eq!((len(&memo), capacity(&memo)), (allocated, allocated));
        memo.insert(fps.next().unwrap(), summary, 1);
        assert_eq!(len(&memo), allocated + 1);
        assert!(capacity(&memo) > allocated, "the owner grew it");

        let memo = Memo::new(1);
        for fp in fps.take(100) {
            memo.insert(fp, summary, 0);
        }
        assert_eq!(len(&memo), 100);
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

    /// Feeds a hasher every integer as the LEB128 bytes of its value (a
    /// signed one as its 64-bit two's complement) and raw slices as they
    /// are: the compact stream, written apart from `ByteSink`.
    struct Leb128(DefaultHasher);

    impl Leb128 {
        fn int(&mut self, n: u64) {
            // Seven bits per byte, low group first; the top bit says
            // that another byte follows.
            let groups = (64 - n.leading_zeros()).div_ceil(7).max(1);
            for g in 0..groups {
                let more = if g + 1 < groups { 0x80 } else { 0 };
                self.0.write(&[(n >> (7 * g)) as u8 & 0x7f | more]);
            }
        }
    }

    impl Hasher for Leb128 {
        fn write(&mut self, bytes: &[u8]) {
            self.0.write(bytes);
        }
        fn write_u8(&mut self, n: u8) {
            self.int(u64::from(n));
        }
        fn write_u16(&mut self, n: u16) {
            self.int(u64::from(n));
        }
        fn write_u32(&mut self, n: u32) {
            self.int(u64::from(n));
        }
        fn write_u64(&mut self, n: u64) {
            self.int(n);
        }
        fn write_usize(&mut self, n: usize) {
            self.int(n as u64);
        }
        fn write_i8(&mut self, n: i8) {
            self.int(i64::from(n) as u64);
        }
        fn write_i16(&mut self, n: i16) {
            self.int(i64::from(n) as u64);
        }
        fn write_i32(&mut self, n: i32) {
            self.int(i64::from(n) as u64);
        }
        fn write_i64(&mut self, n: i64) {
            self.int(n as u64);
        }
        fn write_isize(&mut self, n: isize) {
            self.int(n as i64 as u64);
        }
        fn finish(&self) -> u64 {
            self.0.finish()
        }
    }

    /// Every component of a node, in fingerprint order.
    fn feed(node: &ExploreNode, h: &mut impl Hasher) {
        node.scheduler.state_digest(h);
        node.monitor.state_digest(h);
        node.consumed.hash(h);
        node.steps.hash(h);
        node.response.hash(h);
    }

    /// The fingerprint fed field by field through each of the two seeded
    /// hashers, integers as varints. Kept as the reference that
    /// `fingerprint` must equal bit for bit.
    fn reference_fingerprint(node: &ExploreNode) -> Fingerprint {
        let half = |seed: u64| {
            let mut h = DefaultHasher::new();
            h.write_u64(seed);
            let mut h = Leb128(h);
            feed(node, &mut h);
            h.finish()
        };
        (half(0x9e37_79b9_7f4a_7c15), half(0xc2b2_ae3d_27d4_eb4f))
    }

    /// The fixed-width stream the fingerprint read before it was made
    /// compact: every write kept as `Hasher` encodes it by default, each
    /// integer in its native-endian width.
    struct FixedWidth(Vec<u8>);

    impl Hasher for FixedWidth {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
        fn finish(&self) -> u64 {
            unreachable!("the test compares the bytes, never a hash")
        }
    }

    /// What `walk` calls on each node, with the node's trace and, for a
    /// branch point's `zero` child, its `one` sibling.
    type Visit<'v, 't> = dyn FnMut(&ExploreNode<'t>, &[Marker], Option<&ExploreNode<'t>>) + 'v;

    /// Walks every node below `node` depth-first, both children of every
    /// branch point, and visits each. A branch point's `zero` child is
    /// visited first, then its `one` sibling's subtree is walked. Returns
    /// the number of nodes.
    fn walk<'t>(
        mc: &ModelChecker,
        mut node: ExploreNode<'t>,
        trace: &mut Vec<Marker>,
        visit: &mut Visit<'_, 't>,
    ) -> u64 {
        let mut nodes = 0;
        let mut one = None;
        loop {
            visit(&node, &trace[..node.steps], one.as_ref());
            nodes += 1;
            if let Some(one) = one.take() {
                nodes += walk(mc, one, trace, visit);
            }
            if node.steps >= mc.max_steps {
                return nodes;
            }
            node.steps += 1;
            let step = node
                .scheduler
                .advance(node.response.take())
                .expect("the walk passes");
            count_delivery(&mut node.consumed, &step.marker);
            trace.truncate(node.steps - 1);
            trace.push(step.marker);
            let marker = &trace[node.steps - 1];
            node.leaf.push(node.steps - 1, marker);
            node.monitor.observe(marker).expect("the walk passes");
            for event in node.scheduler.take_degradation_events() {
                node.monitor
                    .observe_degradation(&event)
                    .expect("the walk passes");
            }
            if let Some(request) = step.request {
                let (response, alternative) =
                    mc.choices
                        .responses(request, &node.scheduler, &node.consumed);
                node.response = Some(response);
                one = alternative.map(|alternative| ExploreNode {
                    scheduler: node.scheduler.clone(),
                    monitor: node.monitor.clone(),
                    leaf: node.leaf.clone(),
                    consumed: node.consumed.clone(),
                    steps: node.steps,
                    response: Some(alternative),
                    path_len: 0,
                });
            }
        }
    }

    /// Six exhaustive walks: one to three sockets, with and without a
    /// mode policy.
    fn six_walks() -> Vec<ModelChecker> {
        let amc = ModePolicy::Amc {
            hysteresis_idles: 1,
        };
        let adaptive = ModePolicy::Adaptive {
            hysteresis_idles: 1,
        };
        let walks = [
            (tasks(1, 9), vec![vec![vec![0], vec![1], vec![0]]], 48, None),
            (
                tasks(3, 3),
                vec![vec![vec![0], vec![1]], vec![vec![1]]],
                40,
                None,
            ),
            (
                tasks(1, 9),
                vec![vec![vec![0], vec![1]], vec![vec![1]], vec![vec![0]]],
                36,
                None,
            ),
            (
                mixed_tasks(7),
                vec![vec![vec![0], vec![1], vec![0]]],
                44,
                Some(amc),
            ),
            (
                mixed_tasks(7),
                vec![vec![vec![1], vec![0]], vec![vec![1]]],
                40,
                Some(adaptive),
            ),
            (
                mixed_tasks(7),
                vec![vec![vec![1]], vec![vec![0]], vec![vec![1]]],
                36,
                Some(amc),
            ),
        ];
        walks
            .into_iter()
            .map(|(tasks, pending, depth, policy)| {
                let config = ClientConfig::new(tasks, pending.len()).unwrap();
                let mc = ModelChecker::new(config, pending, depth);
                match policy {
                    Some(policy) => mc.with_mode_policy(policy),
                    None => mc,
                }
            })
            .collect()
    }

    #[test]
    fn fingerprint_equals_the_field_by_field_reference_on_every_node() {
        for mc in six_walks() {
            let label = format!("{} sockets, {:?}", mc.config.n_sockets(), mc.mode_policy);
            let mut bytes = Vec::new();
            let nodes = walk(&mc, mc.root(), &mut Vec::new(), &mut |node, _, _| {
                assert_eq!(
                    node.fingerprint(&mut bytes),
                    reference_fingerprint(node),
                    "{label}: fingerprint differs at depth {}",
                    node.steps
                );
            });
            // One node per step, plus the root and the acted child of
            // every branch point: one per path.
            let outcome = mc.check().unwrap();
            assert_eq!(nodes, outcome.steps + outcome.paths, "{label}");
        }
    }

    /// The compact stream merges exactly the nodes the fixed-width
    /// stream merges: as many distinct compact streams as distinct
    /// fixed-width ones, and as many distinct pairs of the two.
    #[test]
    fn compact_and_fixed_width_bytes_merge_the_same_nodes() {
        for mc in six_walks() {
            let label = format!("{} sockets, {:?}", mc.config.n_sockets(), mc.mode_policy);
            let mut compact_ids = HashMap::new();
            let mut fixed_ids = HashMap::new();
            let mut pairs = HashSet::new();
            let nodes = walk(&mc, mc.root(), &mut Vec::new(), &mut |node, _, _| {
                let mut compact = Vec::new();
                node.fingerprint(&mut compact);
                let mut fixed = FixedWidth(Vec::new());
                feed(node, &mut fixed);
                let next = compact_ids.len();
                let c = *compact_ids.entry(compact).or_insert(next);
                let next = fixed_ids.len();
                let f = *fixed_ids.entry(fixed.0).or_insert(next);
                pairs.insert((c, f));
            });
            assert_eq!(compact_ids.len(), pairs.len(), "{label}");
            assert_eq!(fixed_ids.len(), pairs.len(), "{label}");
            assert!(pairs.len() < nodes as usize, "{label}: no two nodes merge");
        }
    }

    /// The memo keys a branch point by its `zero` child alone. Over six
    /// walks, two branch points have equal `zero` bytes exactly when they
    /// have equal `one` bytes, so keying both children would merge no
    /// more and no fewer branch points; and some branch points merge.
    #[test]
    fn a_branch_points_zero_child_determines_its_one_child() {
        for mc in six_walks() {
            let label = format!("{} sockets, {:?}", mc.config.n_sockets(), mc.mode_policy);
            let mut zero_ids = HashMap::new();
            let mut one_ids = HashMap::new();
            let mut pairs = HashSet::new();
            let mut branch_points = 0;
            walk(&mc, mc.root(), &mut Vec::new(), &mut |zero, _, one| {
                let Some(one) = one else { return };
                branch_points += 1;
                let (mut z, mut o) = (Vec::new(), Vec::new());
                zero.fingerprint(&mut z);
                one.fingerprint(&mut o);
                let next = zero_ids.len();
                let z = *zero_ids.entry(z).or_insert(next);
                let next = one_ids.len();
                let o = *one_ids.entry(o).or_insert(next);
                pairs.insert((z, o));
            });
            assert_eq!(zero_ids.len(), pairs.len(), "{label}");
            assert_eq!(one_ids.len(), pairs.len(), "{label}");
            assert!(
                pairs.len() < branch_points,
                "{label}: no two branch points merge"
            );
        }
    }

    /// The leaf check the walk made before its checks were carried, kept
    /// as the reference: the whole trace through
    /// `ProtocolAutomaton::check`, then `check_functional`.
    fn reference_leaf_check(mc: &ModelChecker, trace: &[Marker]) -> Result<(), String> {
        ProtocolAutomaton::new(mc.config.n_sockets())
            .check(trace)
            .map_err(|e| format!("protocol rejected: {e}"))?;
        rossl_trace::check_functional(trace, &mc.spec_tasks)
            .map_err(|e| format!("functional correctness: {e}"))
    }

    /// A splitmix64 stream for the seeded edits.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// `marker` with its job replaced by `job`.
    fn with_job(marker: &Marker, job: Job) -> Marker {
        match marker {
            Marker::ReadEnd { sock, .. } => Marker::ReadEnd {
                sock: *sock,
                job: Some(job),
            },
            Marker::Dispatch(_) => Marker::Dispatch(job),
            Marker::Execution(_) => Marker::Execution(job),
            Marker::Completion(_) => Marker::Completion(job),
            other => other.clone(),
        }
    }

    /// One seeded edit of a non-empty `trace`: delete a marker, swap two
    /// adjacent markers, duplicate a marker elsewhere, change a job's id,
    /// give a `Dispatch` another task (of the two, or an unknown one), or
    /// cut the trace short. An edit with no marker to act on leaves the
    /// trace as it is.
    fn edit(rng: &mut SplitMix, trace: &mut Vec<Marker>) {
        let n = trace.len();
        let at = |rng: &mut SplitMix, pick: &dyn Fn(&Marker) -> bool| {
            let hits: Vec<usize> = (0..n).filter(|&i| pick(&trace[i])).collect();
            (!hits.is_empty()).then(|| hits[rng.below(hits.len())])
        };
        match rng.below(6) {
            0 => {
                trace.remove(rng.below(n));
            }
            1 => {
                if n > 1 {
                    let i = rng.below(n - 1);
                    trace.swap(i, i + 1);
                }
            }
            2 => {
                let marker = trace[rng.below(n)].clone();
                trace.insert(rng.below(n + 1), marker);
            }
            3 => {
                if let Some(i) = at(rng, &|m| m.job().is_some()) {
                    let job = trace[i].job().expect("picked for its job");
                    let id = JobId(job.id().0 + 1 + rng.below(3) as u64);
                    trace[i] = with_job(&trace[i], Job::new(id, job.task(), job.data().to_vec()));
                }
            }
            4 => {
                if let Some(i) = at(rng, &|m| matches!(m, Marker::Dispatch(_))) {
                    let job = trace[i].job().expect("a dispatch has a job");
                    let task = TaskId((job.task().0 + 1 + rng.below(2)) % 3);
                    trace[i] = with_job(&trace[i], Job::new(job.id(), task, job.data().to_vec()));
                }
            }
            _ => trace.truncate(rng.below(n)),
        }
    }

    /// The checks carried down the walk report what the whole-trace
    /// checks report, reason string included: at every leaf of six
    /// walks, and fed the leaf's trace after one to three seeded edits.
    /// Some edited traces fail both halves, so the order in which a leaf
    /// reports them is exercised.
    #[test]
    fn carried_leaf_checks_match_the_whole_trace_checks() {
        let mut rng = SplitMix(0x1eaf);
        let (mut leaves, mut protocol, mut functional, mut both) = (0, 0, 0, 0);
        for mc in six_walks() {
            let label = format!("{} sockets, {:?}", mc.config.n_sockets(), mc.mode_policy);
            let mut traces = Vec::new();
            walk(&mc, mc.root(), &mut Vec::new(), &mut |node, trace, _| {
                if node.steps == mc.max_steps {
                    assert_eq!(node.leaf.verdict(), Ok(()), "{label}");
                    traces.push(trace.to_vec());
                }
            });
            for mut trace in traces {
                leaves += 1;
                for _ in 0..=rng.below(3) {
                    if !trace.is_empty() {
                        edit(&mut rng, &mut trace);
                    }
                }
                let mut carried = LeafCheck::new(mc.config.n_sockets(), &mc.spec_tasks);
                for (index, marker) in trace.iter().enumerate() {
                    carried.push(index, marker);
                }
                let reference = reference_leaf_check(&mc, &trace);
                assert_eq!(carried.verdict(), reference, "{label}: {trace:?}");
                let p = ProtocolAutomaton::new(mc.config.n_sockets())
                    .check(&trace)
                    .is_err();
                let f = rossl_trace::check_functional(&trace, &mc.spec_tasks).is_err();
                protocol += usize::from(p);
                functional += usize::from(f);
                both += usize::from(p && f);
            }
        }
        assert!(
            protocol > 0 && functional > 0 && both > 0,
            "{leaves} leaves: {protocol} protocol, {functional} functional, {both} both"
        );
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
