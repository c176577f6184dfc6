//! Internals shared by the exploration engines ([`crate::ModelChecker`]
//! and [`crate::CrashSweep`]): the branching rule both walks follow,
//! persistent (`Arc`-linked) trace prefixes and branch paths, and the
//! cross-worker deterministic failure state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rossl::{ClientConfig, FirstByteCodec, Request, Response, Scheduler};
use rossl_model::{Criticality, Duration, Job, MsgData};
use rossl_par::MinKeyed;
use rossl_trace::Marker;

/// The environment both walks explore, and the one rule that says where
/// it branches: at each request, the response when the environment does
/// nothing, and the alternative, if the request is a branch point.
#[derive(Debug, Clone)]
pub(crate) struct Choices {
    /// Messages that may arrive, per socket, in FIFO order.
    pending: Vec<Vec<MsgData>>,
}

impl Choices {
    /// Choices over `pending[s]`, the messages that may arrive on socket
    /// `s`; sockets without an entry receive nothing.
    ///
    /// # Panics
    ///
    /// Panics if `pending` has more entries than the configured socket
    /// count.
    pub(crate) fn new(config: &ClientConfig, mut pending: Vec<Vec<MsgData>>) -> Choices {
        assert!(
            pending.len() <= config.n_sockets(),
            "pending messages reference more sockets than configured"
        );
        pending.resize(config.n_sockets(), Vec::new());
        Choices { pending }
    }

    /// Answers `request`, issued by `scheduler` after `consumed[s]`
    /// messages were delivered on each socket `s` (counted by
    /// [`count_delivery`]). The first response is the environment doing
    /// nothing (digit 0, explored first): the read finds no message, the
    /// callback completes within budget. The second is the alternative
    /// (digit 1) at a branch point: a read whose socket has a message
    /// left receives it, and an execution may overrun to `C_HI` (see
    /// [`overrun_of`]).
    pub(crate) fn responses(
        &self,
        request: Request,
        scheduler: &Scheduler<FirstByteCodec>,
        consumed: &[usize],
    ) -> (Response, Option<Response>) {
        match request {
            Request::Read(sock) => (
                Response::ReadResult(None),
                self.pending[sock.0]
                    .get(consumed[sock.0])
                    .map(|msg| Response::ReadResult(Some(msg.clone()))),
            ),
            Request::Execute(job) => (
                Response::Executed,
                overrun_of(scheduler, &job).map(Response::ExecutedIn),
            ),
        }
    }
}

/// The measured execution time of `job`'s overrun branch, when overrun
/// branching applies: the scheduler runs a mode policy, the task is
/// HI-criticality, and its `C_HI` exceeds the budget of the scheduler's
/// *current* mode. (In HI mode the budget *is* `C_HI`, so an overrun
/// branch there would only duplicate the within-budget child.) The
/// overrun stays inside the Vestal envelope, so the AMC reaction it
/// provokes is correct behaviour, not a failure.
fn overrun_of(scheduler: &Scheduler<FirstByteCodec>, job: &Job) -> Option<Duration> {
    scheduler.mode_policy()?;
    let task = scheduler.config().tasks().task(job.task())?;
    (task.criticality() == Criticality::Hi && task.wcet_hi() > task.wcet_in_mode(scheduler.mode()))
        .then(|| task.wcet_hi())
}

/// Counts a delivered message as consumed in the step whose `ReadEnd`
/// receives it. A crash after that step keeps it consumed: a message
/// taken from the transport stays taken.
pub(crate) fn count_delivery(consumed: &mut [usize], marker: &Marker) {
    if let Marker::ReadEnd { sock, job: Some(_) } = marker {
        consumed[sock.0] += 1;
    }
}

/// Persistent (`Arc`-linked) trace prefix. Branching shares the prefix in
/// O(1) instead of cloning the whole marker vector per node — the eager
/// representation cost O(depth²) clones per explored branch — and the
/// vector is materialized only at leaves and failures, where it is needed
/// anyway.
pub(crate) struct TraceNode {
    marker: Marker,
    parent: TraceLink,
}

pub(crate) type TraceLink = Option<Arc<TraceNode>>;

pub(crate) fn push_trace(link: &TraceLink, marker: Marker) -> TraceLink {
    Some(Arc::new(TraceNode {
        marker,
        parent: link.clone(),
    }))
}

pub(crate) fn materialize_trace(link: &TraceLink) -> Vec<Marker> {
    let mut out = Vec::new();
    let mut cur = link;
    while let Some(node) = cur {
        out.push(node.marker.clone());
        cur = &node.parent;
    }
    out.reverse();
    out
}

/// Persistent branch-decision path. Lexicographic order on materialized
/// paths equals sequential depth-first discovery order when each engine
/// assigns the digit explored first the smaller value.
pub(crate) struct PathNode {
    digit: u8,
    parent: PathLink,
}

pub(crate) type PathLink = Option<Arc<PathNode>>;

pub(crate) fn push_path(link: &PathLink, digit: u8) -> PathLink {
    Some(Arc::new(PathNode {
        digit,
        parent: link.clone(),
    }))
}

pub(crate) fn materialize_path(link: &PathLink) -> Vec<u8> {
    let mut out = Vec::new();
    let mut cur = link;
    while let Some(node) = cur {
        out.push(node.digit);
        cur = &node.parent;
    }
    out.reverse();
    out
}

/// Cross-worker failure state: the failure with the lexicographically
/// smallest branch path wins, and any subtree whose path can no longer
/// beat the incumbent is skipped. Because nothing that could beat the
/// incumbent is ever skipped, the reported counterexample is independent
/// of thread count and exploration order.
pub(crate) struct FailState<V> {
    found: AtomicBool,
    best: Mutex<MinKeyed<Vec<u8>, V>>,
}

impl<V> FailState<V> {
    pub(crate) fn new() -> FailState<V> {
        FailState {
            found: AtomicBool::new(false),
            best: Mutex::new(MinKeyed::default()),
        }
    }

    pub(crate) fn record(&self, path: Vec<u8>, failure: V) {
        self.best.lock().expect("failure state poisoned").offer(path, failure);
        self.found.store(true, Ordering::SeqCst);
    }

    /// `true` when a recorded failure already beats every node at or
    /// below `path` (keys are unique per node, so `<=` is safe: equality
    /// only recurs for the recording node itself).
    pub(crate) fn beats(&self, path: &[u8]) -> bool {
        if !self.found.load(Ordering::Relaxed) {
            return false;
        }
        let best = self.best.lock().expect("failure state poisoned");
        matches!(best.best_key(), Some(k) if k.as_slice() <= path)
    }

    pub(crate) fn into_best(self) -> Option<V> {
        self.best
            .into_inner()
            .expect("failure state poisoned")
            .take()
            .map(|(_, failure)| failure)
    }
}
