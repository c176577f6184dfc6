//! One scheduler shard: a [`Scheduler`] plus its journal, socket set,
//! supervisor, and shard-local clock (DESIGN §10.1).
//!
//! The shard steps its scheduler with a [`Driver`] whose clock is the
//! shard-local clock, charging the same per-marker [`marker_cost`]s as
//! the fuzzer's raw drive (reads 1 tick, selection/dispatch/completion
//! from the [`WcetTable`], execution the task's WCET), so response
//! times measured here are comparable against the Prosa bounds. One
//! fleet tick is one driver step, and a step is atomic under
//! tick-boundary faults (DESIGN §5.4): the request a step returns is
//! served at the start of the next one, so a shard killed between ticks
//! has never consumed a message whose `ReadEnd` it did not commit, and
//! the cross-shard checker's consumed-vs-observed accounting holds by
//! construction.

use std::collections::VecDeque;
use std::sync::Arc;

use rossl::{
    marker_cost, DriveError, Driver, Environment, FirstByteCodec, RecoveredState, RecoveryError,
    RestartPolicy, Scheduler, Served, Supervisor, Timed,
};
use rossl_journal::{Corruption, JournalWriter};
use rossl_model::{Duration, Instant, Job, Message, SocketId, WcetTable};
use rossl_sockets::{ReadOutcome, SocketSet};
use rossl_trace::{Marker, Trace};

use crate::tracing::ShardTracer;

/// What the fleet learns from one shard step.
#[derive(Debug, Clone)]
pub enum ShardEvent {
    /// A delivered payload was read and became a job (`ReadEnd` with a
    /// job committed).
    Accepted {
        /// Fleet-wide payload sequence number.
        seq: u64,
        /// The job it became on this shard.
        job: Job,
        /// Shard-local clock at the commit.
        at: u64,
    },
    /// A job ran to completion (`Completion` committed).
    Completed {
        /// The completed job (its payload carries the sequence number).
        job: Job,
        /// Shard-local clock at the commit.
        at: u64,
    },
    /// The scheduler rejected the drive — treated as a crash.
    Crashed,
}

/// One fleet member.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    /// The scheduler, the shard-local clock, and the request the next
    /// step serves.
    driver: Driver<FirstByteCodec>,
    inbox: Inbox,
    supervisor: Supervisor,
    journal: JournalWriter,
    /// Completions accumulated before the last journal rebase (the
    /// scheduler's own counter restarts from the journal).
    segments: Vec<Trace>,
    current: Trace,
    /// Last fleet tick this shard completed a step (the heartbeat).
    pub(crate) last_step_tick: u64,
    pub(crate) killed: bool,
    pub(crate) fenced: bool,
    pub(crate) paused_until: u64,
    pub(crate) partitioned_until: u64,
    /// Optional span emitter; `None` costs one branch per hook.
    tracer: Option<ShardTracer>,
    /// [`SeededBug::OrphanSpan`](rossl::SeededBug::OrphanSpan): the
    /// tracer skips closing enqueue spans at `ReadEnd`.
    pub(crate) orphan_bug: bool,
}

impl Shard {
    /// A fresh shard running `config` under `policy`.
    #[must_use]
    pub fn new(
        id: usize,
        config: Arc<rossl::ClientConfig>,
        wcet: WcetTable,
        policy: RestartPolicy,
    ) -> Shard {
        let n_sockets = config.n_sockets();
        Shard {
            driver: Driver::new(
                Scheduler::with_shared_config(Arc::clone(&config), FirstByteCodec),
                Instant::ZERO,
            ),
            inbox: Inbox {
                sockets: SocketSet::new(n_sockets),
                unread: vec![VecDeque::new(); n_sockets],
                consumed: vec![0; n_sockets],
                wcet,
                config,
                read_seq: None,
            },
            supervisor: Supervisor::new(policy),
            journal: JournalWriter::new(),
            segments: Vec::new(),
            current: Vec::new(),
            last_step_tick: 0,
            killed: false,
            fenced: false,
            paused_until: 0,
            partitioned_until: 0,
            tracer: None,
            orphan_bug: false,
            id,
        }
    }

    /// Attaches a span emitter (built by
    /// [`Fleet::with_tracer`](crate::Fleet::with_tracer)).
    pub(crate) fn attach_tracer(&mut self, tracer: ShardTracer) {
        self.tracer = Some(tracer);
    }

    /// The attached span emitter, if any.
    pub(crate) fn tracer_mut(&mut self) -> Option<&mut ShardTracer> {
        self.tracer.as_mut()
    }

    /// The attached span emitter, if any (shared view).
    pub(crate) fn tracer_ref(&self) -> Option<&ShardTracer> {
        self.tracer.as_ref()
    }

    /// The shard's index in the fleet.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard-local clock, in ticks.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.driver.now().0
    }

    /// Is this shard currently able to step at fleet tick `now`?
    #[must_use]
    pub fn can_step(&self, now: u64) -> bool {
        !self.killed && !self.fenced && now >= self.paused_until
    }

    /// Can the router deliver a datagram at fleet tick `now`? Paused
    /// shards accept (the machine is up, only the scheduler is
    /// stopped); killed, fenced, and partitioned shards do not.
    #[must_use]
    pub fn reachable(&self, now: u64) -> bool {
        !self.killed && !self.fenced && now >= self.partitioned_until
    }

    /// Accepted-but-uncompleted backlog: delivered-but-unread payloads
    /// plus jobs pending in the scheduler.
    #[must_use]
    pub fn depth(&self) -> usize {
        let unread: usize = self.inbox.unread.iter().map(VecDeque::len).sum();
        let pending = if self.fenced { 0 } else { self.driver.scheduler().pending_count() };
        unread + pending
    }

    /// Nothing left to do: no unread payloads, no pending jobs, and
    /// the scheduler is idling (or the shard is dead).
    #[must_use]
    pub fn quiescent(&self) -> bool {
        if self.killed || self.fenced {
            return true;
        }
        self.inbox.unread.iter().all(VecDeque::is_empty)
            && self.driver.scheduler().pending_count() == 0
            && matches!(self.current.last(), None | Some(Marker::Idling))
    }

    /// Enqueues a routed payload on `sock` at the current shard-local
    /// instant (readable strictly after it, per the socket model).
    pub fn deliver(&mut self, sock: SocketId, seq: u64, data: Vec<u8>) {
        let at = self.driver.now();
        if self.inbox.sockets.enqueue(sock, at, Message::new(data.clone())).is_ok() {
            self.inbox.unread[sock.0].push_back((seq, Message::new(data)));
        }
    }

    /// Runs one driver step at fleet tick `now`: serve the previous
    /// request, advance, journal and commit the marker. Returns what
    /// the fleet learns from it, if anything: a step accepts, completes
    /// or crashes at most once.
    ///
    /// # Panics
    ///
    /// Panics if the marker cannot be journaled: a job payload of about
    /// 1 MiB. The fleet's own payloads are 9 bytes.
    pub fn step(&mut self, now: u64) -> Option<ShardEvent> {
        if !self.can_step(now) {
            return None;
        }
        let Ok(Timed { marker, start, end }) = self.driver.step(&mut self.inbox) else {
            self.killed = true;
            return Some(ShardEvent::Crashed);
        };
        let read_seq = self.inbox.read_seq.take();
        let at = end.0;
        self.journal
            .append(&marker, end)
            .expect("the fleet's payloads are 9 bytes");
        self.journal.commit();
        // One match serves the events and, when attached, the tracer,
        // so a traced step pays nothing extra for the markers the
        // tracer ignores.
        let commit = self.journal.commits_written();
        let prio_of = |task: rossl_model::TaskId| {
            self.inbox.config.tasks().task(task).map_or(0, |t| u64::from(t.priority().0))
        };
        let mut event = None;
        match &marker {
            Marker::ReadEnd { job: Some(j), .. } => {
                if let Some(seq) = read_seq {
                    if let Some(tracer) = self.tracer.as_mut() {
                        tracer.on_accept(
                            seq,
                            j.id().0,
                            j.task().0 as u64,
                            prio_of(j.task()),
                            at,
                            commit,
                            self.orphan_bug,
                        );
                    }
                    event = Some(ShardEvent::Accepted { seq, job: j.clone(), at });
                }
            }
            Marker::Dispatch(j) => {
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer.on_dispatch(j.id().0, j.task().0 as u64, prio_of(j.task()), at, commit);
                }
            }
            Marker::Completion(j) => {
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer.on_complete(j.id().0, at, commit);
                }
                event = Some(ShardEvent::Completed { job: j.clone(), at });
            }
            Marker::ModeSwitch { .. } => {
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer.on_mode_switch(start.0, at);
                }
            }
            _ => {}
        }
        self.current.push(marker);
        self.last_step_tick = now;
        event
    }

    /// The restart RPC: this shard's supervisor recovers a scheduler
    /// from this shard's journal, spending one attempt of its restart
    /// budget. Nothing is installed; the caller decides whether the
    /// restarted process came up.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::restart_shared`]; once the budget is spent,
    /// [`RecoveryError::RestartBudgetExhausted`] carries the last-good
    /// recovered state.
    pub fn restart(
        &mut self,
    ) -> Result<(Scheduler<FirstByteCodec>, RecoveredState, Option<Corruption>), RecoveryError> {
        self.supervisor.restart_shared(
            self.journal.bytes(),
            Arc::clone(&self.inbox.config),
            FirstByteCodec,
        )
    }

    /// The committed journal bytes.
    #[must_use]
    pub fn journal_bytes(&self) -> &[u8] {
        self.journal.bytes()
    }

    /// The shared client configuration.
    #[must_use]
    pub fn config(&self) -> &Arc<rossl::ClientConfig> {
        &self.inbox.config
    }

    /// Closes the current trace segment (a restart seam) and returns
    /// the index the *next* segment will have.
    pub fn close_segment(&mut self) -> usize {
        let seg = std::mem::take(&mut self.current);
        self.segments.push(seg);
        self.segments.len()
    }

    /// Fences the shard out of the fleet permanently: it never steps
    /// again, even if a pause that killed its heartbeat later ends.
    pub fn fence(&mut self) {
        self.fenced = true;
        self.close_segment();
    }

    /// Installs a recovered scheduler after a restart or migration.
    /// The in-flight request (if any) is dropped — crash semantics: an
    /// unserved read never consumed its message, an unserved execute
    /// left its dispatch to be voided and re-pended by journal replay.
    pub fn install(&mut self, sched: Scheduler<FirstByteCodec>) {
        self.driver = Driver::new(sched, self.driver.now());
    }

    /// Replaces the journal wholesale (migration rebase: the successor
    /// re-journals its own committed history plus the replayed
    /// `ReadEnd`s of the migrated jobs).
    pub fn replace_journal(&mut self, journal: JournalWriter) {
        self.journal = journal;
    }

    /// Drains every delivered-but-unread payload, in per-socket FIFO
    /// order: `(sock, seq, message)`. Used at failover to re-route
    /// stranded payloads to the successor.
    pub fn take_unread(&mut self) -> Vec<(SocketId, u64, Message)> {
        let mut out = Vec::new();
        for (sock, q) in self.inbox.unread.iter_mut().enumerate() {
            for (seq, msg) in q.drain(..) {
                out.push((SocketId(sock), seq, msg));
            }
        }
        out
    }

    /// The shard's observable history for the cross-shard checker,
    /// borrowed: closed segments plus the still-open one (a fenced
    /// shard's fence already closed its last segment). The `dead` flag is
    /// the fence.
    #[must_use]
    pub fn history(&self) -> rossl_verify::ShardHistory<'_> {
        let mut segments: Vec<&[Marker]> = self.segments.iter().map(Vec::as_slice).collect();
        if !self.fenced {
            segments.push(&self.current);
        }
        rossl_verify::ShardHistory {
            shard: self.id,
            segments,
            consumed: &self.inbox.consumed,
            dead: self.fenced,
        }
    }
}

/// A shard's side of the transport, served to its driver: the socket
/// set read at the shard-local clock, charged at the analysis's
/// per-marker costs. Fleet jobs run within budget, so executions take
/// the default answer.
#[derive(Debug)]
struct Inbox {
    sockets: SocketSet,
    /// Per-socket FIFO mirror of delivered-but-unread payloads,
    /// carrying the fleet sequence numbers the socket substrate does
    /// not know about. Popped in lockstep with successful reads.
    unread: Vec<VecDeque<(u64, Message)>>,
    consumed: Vec<usize>,
    wcet: WcetTable,
    config: Arc<rossl::ClientConfig>,
    /// Fleet sequence number of the payload the last read handed out.
    read_seq: Option<u64>,
}

impl Environment for Inbox {
    type Error = DriveError;

    fn read(&mut self, sock: SocketId, now: Instant) -> Served<DriveError> {
        let data = match self.sockets.try_read(sock, now) {
            Ok(ReadOutcome::Data { msg, .. }) => {
                self.consumed[sock.0] += 1;
                self.read_seq = self.unread[sock.0].pop_front().map(|(seq, _)| seq);
                Some(msg.into_data())
            }
            _ => None,
        };
        Ok((data, now))
    }

    fn charge(&mut self, marker: &Marker) -> Duration {
        marker_cost(marker, &self.wcet, self.config.tasks())
    }
}
