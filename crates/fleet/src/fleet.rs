//! The fleet supervisor and chaos drive (DESIGN §10.4–§10.6).
//!
//! A [`Fleet`] steps N [`Shard`]s in lockstep on a discrete *fleet
//! tick* clock, routes client submissions through the [`Router`], and
//! health-checks the shards every `check_interval` ticks. Failure
//! handling follows a strict escalation ladder:
//!
//! * **crash (`ShardKill`)** — the supervisor sees the machine refuse
//!   its restart RPC and burns the shard's restart budget one attempt
//!   per health check; when [`RecoveryError::RestartBudgetExhausted`]
//!   escalates, the error *carries the last-good recovered state*, so
//!   failover migrates without re-parsing the dead journal;
//! * **hang (`ShardPause` ≥ heartbeat timeout)** — heartbeat staleness
//!   over `confirm_checks` consecutive sweeps fences the shard and
//!   migrates from its committed journal;
//! * **`Partition`** — router-level unreachability only; the shard
//!   keeps stepping and heartbeating, so a partition must *never*
//!   cause a failover (asserted by the justification oracle).
//!
//! Migration is journal replay across the shard boundary: the dead
//! shard's uncompleted accepted jobs are re-journaled as `ReadEnd`
//! markers in the successor's (rebased) journal under fresh ids from
//! the successor's id space, and the successor scheduler is rebuilt
//! with `Scheduler::recovered` semantics — exactly the single-shard
//! crash-recovery contract, extended across shards. Every migration
//! leaves a [`MigrationManifest`] for [`rossl_verify::check_fleet`].

use std::collections::BTreeMap;
use std::sync::Arc;

use refined_prosa::{RosslSystem, SystemError};
use rossl::{
    ClientConfig, FirstByteCodec, RecoveredState, RecoveryError, RestartPolicy, Scheduler,
    SeededBug,
};
use rossl_faults::{FaultClass, FaultPlan};
use rossl_journal::{recover, JournalWriter};
use rossl_model::{check_respects, Criticality, Duration, Instant, Job, JobId, SocketId, TaskSet};
use rossl_obs::{ClockDomain, SpanKind, TraceCollector, TraceId};
use rossl_trace::Marker;
use rossl_verify::{check_fleet, FleetCheckError, FleetReport, MigratedJob, MigrationManifest};

use crate::router::{Router, RouterPolicy, ShardStatus};
use crate::shard::{Shard, ShardEvent};
use crate::tracing::ShardTracer;

/// Builds the fleet payload for `(task, seq)`: the first byte routes
/// the task (the `FirstByteCodec` contract), the next eight carry the
/// fleet-wide sequence number.
#[must_use]
pub fn payload(task: usize, seq: u64) -> Vec<u8> {
    let mut d = Vec::with_capacity(9);
    d.push(task as u8);
    d.extend_from_slice(&seq.to_le_bytes());
    d
}

/// Recovers the sequence number from a fleet payload.
#[must_use]
pub fn seq_of(data: &[u8]) -> Option<u64> {
    data.get(1..9)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
}

/// Fleet tunables.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of scheduler shards.
    pub n_shards: usize,
    /// Seed for ring layout, retry jitter and workload staggering.
    pub seed: u64,
    /// Heartbeat staleness (fleet ticks) that marks a shard unhealthy.
    pub heartbeat_timeout: u64,
    /// Health-check sweep period, in fleet ticks.
    pub check_interval: u64,
    /// Consecutive unhealthy sweeps before a hang is fenced.
    pub confirm_checks: u32,
    /// Per-shard supervisor restart budget and backoff.
    pub restart_policy: RestartPolicy,
    /// Router retry / breaker / shedding tunables.
    pub router: RouterPolicy,
    /// Horizon for the Prosa analysis whose bounds the fleet checks
    /// every completion against.
    pub analysis_horizon: Duration,
    /// Extra ticks after the last scheduled submission before the
    /// drive gives up draining (outstanding work then counts as lost).
    pub drain_ticks: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            n_shards: 3,
            seed: 1,
            heartbeat_timeout: 8,
            check_interval: 4,
            confirm_checks: 2,
            restart_policy: RestartPolicy::new(2, Duration(2)),
            router: RouterPolicy::default(),
            analysis_horizon: Duration(100_000),
            drain_ticks: 4_000,
        }
    }
}

/// A deterministic open-loop workload: `jobs_per_key` submissions per
/// client key, `gap_ticks` apart, staggered per key by a seed hash so
/// keys do not submit in phase.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Submissions per client key (one key per task).
    pub jobs_per_key: u64,
    /// Fleet ticks between a key's consecutive submissions.
    pub gap_ticks: u64,
}

/// Why a shard was failed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverCause {
    /// Restart-budget exhaustion after a crash (`ShardKill`).
    Kill,
    /// Confirmed heartbeat staleness (`ShardPause` past the timeout).
    Hang,
}

/// One failover, as the fleet supervisor saw it.
#[derive(Debug, Clone)]
pub struct FailoverRecord {
    /// The fenced shard.
    pub dead: usize,
    /// The migration target (`None` when no shard survived).
    pub successor: Option<usize>,
    /// What triggered it.
    pub cause: FailoverCause,
    /// Fleet tick of the first health check that saw the failure.
    pub detect_tick: u64,
    /// Fleet tick the migration committed.
    pub migrated_tick: u64,
    /// Jobs re-pended onto the successor.
    pub migrated_jobs: usize,
    /// Stranded socket payloads re-routed through the router.
    pub resent: usize,
}

/// Terminal / in-flight state of one submitted payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqState {
    /// In the router (initial, or between retries / after a resend).
    Routing,
    /// On a shard's socket, not yet read. Remembers the arrival
    /// instant on that shard's local clock.
    Delivered { shard: usize, arrival: u64 },
    /// Read by a shard's scheduler (a pending or executing job).
    Accepted { shard: usize, arrival: u64 },
    /// Ran to completion.
    Completed,
    /// Shed under backpressure (terminal, with reason).
    Shed,
    /// Terminally failed in the router (deadline / attempts / no
    /// shard alive).
    Failed,
}

impl SeqState {
    fn terminal(self) -> bool {
        matches!(self, SeqState::Completed | SeqState::Shed | SeqState::Failed)
    }
}

/// Per-shard failure-detection state between health checks.
#[derive(Debug, Clone, Copy)]
struct Detect {
    first_tick: u64,
    unhealthy_checks: u32,
}

/// One completed request's ground-truth response, as the fleet
/// measured it from the journal-commit clocks — what experiment E23
/// checks the trace-derived attribution against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobResponse {
    /// Fleet-wide payload sequence number.
    pub seq: u64,
    /// The task it ran as.
    pub task: usize,
    /// The shard it completed on.
    pub shard: usize,
    /// Response time in that shard's ticks (arrival to completion
    /// commit).
    pub response: u64,
}

/// The complete outcome of one chaos run, carrying everything the E22
/// oracles assert on.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Fleet ticks driven.
    pub ticks: u64,
    /// Total client submissions.
    pub submissions: u64,
    /// Payloads delivered to some shard's socket at least once.
    pub delivered: u64,
    /// Payloads that ran to completion.
    pub completed: u64,
    /// Payloads shed under backpressure.
    pub shed: u64,
    /// Payloads that terminally failed in the router.
    pub failed: u64,
    /// Stranded payloads re-routed during failovers.
    pub resent: u64,
    /// Sequence numbers accepted (delivered) but never completed —
    /// must be empty for an honest fleet.
    pub lost: Vec<u64>,
    /// Every failover the supervisor performed.
    pub failovers: Vec<FailoverRecord>,
    /// Failovers with no justifying injected fault — each one is
    /// itself a detected bug.
    pub unjustified_failovers: Vec<FailoverRecord>,
    /// Prosa bound violations observed on in-model shards.
    pub bound_violations: u64,
    /// Shards whose delivered arrival streams respected every task's
    /// curve (the in-model shards the bound oracle covers).
    pub compliant_shards: usize,
    /// Completions observed on those in-model shards.
    pub compliant_completions: u64,
    /// The cross-shard trace/seam/conservation check.
    pub fleet_check: Result<FleetReport, FleetCheckError>,
    /// Fleet tick of every completion, for throughput-over-time plots.
    pub completion_ticks: Vec<u64>,
    /// Per-completion ground-truth response times, in completion order.
    pub responses: Vec<JobResponse>,
}

/// A fleet of scheduler shards with routing, health checking, and
/// journal-replay failover. Build one per run.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    tasks: TaskSet,
    n_sockets: usize,
    shards: Vec<Shard>,
    /// The router's view of the shards, refilled every tick.
    status: Vec<ShardStatus>,
    router: Router,
    /// `[task] →` the analysis's bound `R_i + J_i`, in ticks.
    bounds: Vec<u64>,
    /// `[shard] →` completions whose response exceeded their task's
    /// bound.
    violations: Vec<u64>,
    manifests: Vec<MigrationManifest>,
    failovers: Vec<FailoverRecord>,
    detect: Vec<Option<Detect>>,
    seeded_bug: Option<SeededBug>,
    seq_state: Vec<SeqState>,
    seq_key: Vec<u64>,
    /// `(shard, raw job id) → seq`, maintained across migrations.
    job_index: BTreeMap<(usize, u64), u64>,
    /// `[shard][task] →` arrival instants on that shard's clock
    /// (deliveries and migration re-pends), for curve compliance.
    arrivals: Vec<Vec<Vec<Instant>>>,
    /// Completions attributed to the shard they ran on.
    completions_on: Vec<u64>,
    /// Was this sequence number ever delivered to a shard socket? A
    /// terminal router failure after a delivery is dropped work, not a
    /// typed refusal.
    delivered_once: Vec<bool>,
    completion_ticks: Vec<u64>,
    resent: u64,
    responses: Vec<JobResponse>,
    collector: Option<Arc<TraceCollector>>,
    /// The alive count the last `Heartbeat` instant reported, so the
    /// tracer only records liveness *changes* (steady-state sweeps are
    /// trace noise and measurable hot-path cost).
    traced_alive: Option<u64>,
}

impl Fleet {
    /// Builds a fleet whose shards all run `system`'s task set and
    /// socket count, and whose completions are checked against one
    /// Prosa analysis of the system.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] when the client configuration is
    /// invalid or the analysis cannot bound the task set.
    pub fn new(system: &RosslSystem, config: FleetConfig) -> Result<Fleet, SystemError> {
        let tasks = system.tasks().clone();
        let n_sockets = system.n_sockets();
        let client = Arc::new(
            ClientConfig::new(tasks.clone(), n_sockets).map_err(SystemError::Config)?,
        );
        let analysis = system.analyse(config.analysis_horizon)?;
        let bounds = tasks
            .iter()
            .map(|t| analysis.bound_for(t.id()).map_or(0, |b| b.total_bound().ticks()))
            .collect();
        let router = Router::new(config.n_shards, config.seed, config.router.clone());
        let shards = (0..config.n_shards)
            .map(|id| Shard::new(id, Arc::clone(&client), *system.wcet(), config.restart_policy))
            .collect();
        Ok(Fleet {
            detect: vec![None; config.n_shards],
            arrivals: vec![vec![Vec::new(); tasks.len()]; config.n_shards],
            completions_on: vec![0; config.n_shards],
            violations: vec![0; config.n_shards],
            status: Vec::with_capacity(config.n_shards),
            config,
            tasks,
            n_sockets,
            shards,
            router,
            bounds,
            manifests: Vec::new(),
            failovers: Vec::new(),
            seeded_bug: None,
            seq_state: Vec::new(),
            seq_key: Vec::new(),
            job_index: BTreeMap::new(),
            delivered_once: Vec::new(),
            completion_ticks: Vec::new(),
            resent: 0,
            responses: Vec::new(),
            collector: None,
            traced_alive: None,
        })
    }

    /// Installs a seeded bug for mutation testing. The fleet honors
    /// [`SeededBug::DroppedFailover`] (fence without migration) and
    /// [`SeededBug::OrphanSpan`] (the shard tracer skips closing
    /// enqueue spans); scheduler- and driver-level bugs belong to the
    /// single-shard harnesses and are ignored here.
    #[must_use]
    pub fn with_seeded_bug(mut self, bug: SeededBug) -> Fleet {
        self.seeded_bug = Some(bug);
        if bug == SeededBug::OrphanSpan {
            for shard in &mut self.shards {
                shard.orphan_bug = true;
            }
        }
        self
    }

    /// Attaches causal tracing: the router and every shard emit spans
    /// into `collector`, and [`Fleet::run`] closes whatever is still
    /// open (truncated) when the drive stops. Composable with
    /// [`Fleet::with_seeded_bug`] in either order.
    #[must_use]
    pub fn with_tracer(mut self, collector: Arc<TraceCollector>) -> Fleet {
        self.router.attach_tracer(Arc::clone(&collector));
        for (id, shard) in self.shards.iter_mut().enumerate() {
            shard.attach_tracer(ShardTracer::new(Arc::clone(&collector), id));
        }
        self.collector = Some(collector);
        self
    }

    /// The router's full decision trace rendered one line per event —
    /// the determinism witness.
    #[must_use]
    pub fn routing_trace(&self) -> String {
        self.router.render_trace()
    }

    /// Drives the whole chaos run: workload in, faults applied,
    /// shards stepped, failures detected and failed over, then drains
    /// and runs the cross-shard checker.
    pub fn run(&mut self, workload: Workload, plan: &FaultPlan) -> FleetOutcome {
        let schedule = self.schedule(workload);
        let horizon = schedule.last().map_or(0, |(t, _, _)| *t);
        let max_ticks = horizon + self.config.drain_ticks;
        self.seq_state = vec![SeqState::Routing; schedule.len()];
        self.delivered_once = vec![false; schedule.len()];
        self.seq_key = schedule.iter().map(|(_, key, _)| *key).collect();
        let mut next_sub = 0usize;

        let mut tick = 0u64;
        loop {
            self.apply_faults(plan, tick);
            while next_sub < schedule.len() && schedule[next_sub].0 == tick {
                let (_, key, seq) = schedule[next_sub];
                let task = key as usize % self.tasks.len();
                let crit = self
                    .tasks
                    .task(rossl_model::TaskId(task))
                    .map_or(Criticality::Hi, rossl_model::Task::criticality);
                self.router.submit(tick, seq, key, crit, payload(task, seq));
                next_sub += 1;
            }
            self.route_and_step(tick);
            if self.config.check_interval > 0
                && tick > 0
                && tick % self.config.check_interval == 0
            {
                self.health_check(tick);
            }
            let drained = next_sub >= schedule.len()
                && self.router.idle()
                && self.seq_state.iter().all(|s| s.terminal());
            if (tick >= horizon && drained) || tick >= max_ticks {
                break;
            }
            tick += 1;
        }

        self.outcome(tick, plan)
    }

    /// The deterministic submission schedule: `(tick, key, seq)` in
    /// submission order. One key per task; per-key submissions are
    /// exactly `gap_ticks` apart, staggered by a seed hash.
    fn schedule(&self, workload: Workload) -> Vec<(u64, u64, u64)> {
        let gap = workload.gap_ticks.max(1);
        let mut subs: Vec<(u64, u64)> = Vec::new();
        for key in 0..self.tasks.len() as u64 {
            let stagger = crate::ring::splitmix64(self.config.seed ^ (key << 8)) % gap;
            for j in 0..workload.jobs_per_key {
                subs.push((stagger + j * gap, key));
            }
        }
        subs.sort_unstable();
        subs.into_iter()
            .enumerate()
            .map(|(seq, (tick, key))| (tick, key, seq as u64))
            .collect()
    }

    fn apply_faults(&mut self, plan: &FaultPlan, tick: u64) {
        for spec in plan.fleet_specs() {
            match spec.class {
                FaultClass::ShardKill { shard, at_tick } if at_tick == tick => {
                    if let Some(s) = self.shards.get_mut(shard) {
                        s.killed = true;
                    }
                }
                FaultClass::ShardPause { shard, at_tick, for_ticks } if at_tick == tick => {
                    if let Some(s) = self.shards.get_mut(shard) {
                        s.paused_until = s.paused_until.max(tick + for_ticks);
                    }
                }
                FaultClass::Partition { shard, at_tick, for_ticks } if at_tick == tick => {
                    if let Some(s) = self.shards.get_mut(shard) {
                        s.partitioned_until = s.partitioned_until.max(tick + for_ticks);
                    }
                }
                _ => {}
            }
        }
    }

    fn route_and_step(&mut self, tick: u64) {
        self.status.clear();
        self.status.extend(
            self.shards
                .iter()
                .map(|s| ShardStatus { reachable: s.reachable(tick), depth: s.depth() }),
        );
        let res = self.router.process(tick, &self.status);
        for (seq, _, _) in res.shed {
            self.seq_state[seq as usize] = SeqState::Shed;
        }
        for (seq, _) in res.failed {
            self.seq_state[seq as usize] = SeqState::Failed;
        }
        for d in res.deliveries {
            let sock = SocketId(d.key as usize % self.n_sockets);
            let task = d.key as usize % self.tasks.len();
            let route_parent = self.router.route_parent(d.seq);
            let shard = &mut self.shards[d.shard];
            let arrival = shard.clock();
            shard.deliver(sock, d.seq, d.data);
            if let Some(tracer) = shard.tracer_mut() {
                tracer.on_deliver(d.seq, route_parent, arrival);
            }
            self.arrivals[d.shard][task].push(Instant(arrival));
            self.delivered_once[d.seq as usize] = true;
            self.seq_state[d.seq as usize] =
                SeqState::Delivered { shard: d.shard, arrival };
        }
        for i in 0..self.shards.len() {
            if let Some(ev) = self.shards[i].step(tick) {
                self.absorb(i, &ev);
            }
        }
    }

    fn absorb(&mut self, shard: usize, ev: &ShardEvent) {
        match ev {
            ShardEvent::Accepted { seq, job, .. } => {
                let arrival = match self.seq_state[*seq as usize] {
                    SeqState::Delivered { arrival, .. } | SeqState::Accepted { arrival, .. } => {
                        arrival
                    }
                    _ => 0,
                };
                self.seq_state[*seq as usize] = SeqState::Accepted { shard, arrival };
                self.job_index.insert((shard, job.id().0), *seq);
            }
            ShardEvent::Completed { job, at } => {
                if let Some(seq) = seq_of(job.data()) {
                    if let SeqState::Accepted { arrival, .. } = self.seq_state[seq as usize] {
                        let rt = at.saturating_sub(arrival);
                        if self.bounds.get(job.task().0).is_some_and(|&bound| rt > bound) {
                            self.violations[shard] += 1;
                        }
                        self.responses.push(JobResponse {
                            seq,
                            task: job.task().0,
                            shard,
                            response: rt,
                        });
                    }
                    self.seq_state[seq as usize] = SeqState::Completed;
                    self.completions_on[shard] += 1;
                    self.completion_ticks.push(self.shards[shard].last_step_tick);
                }
            }
            ShardEvent::Crashed => {}
        }
    }

    fn health_check(&mut self, tick: u64) {
        if let Some(collector) = &self.collector {
            let alive =
                self.shards.iter().filter(|s| !s.killed && !s.fenced).count() as u64;
            if self.traced_alive != Some(alive) {
                self.traced_alive = Some(alive);
                collector.instant(
                    TraceId::SYSTEM,
                    None,
                    SpanKind::Heartbeat,
                    ClockDomain::Fleet,
                    tick,
                    &[("alive", alive)],
                );
            }
        }
        for i in 0..self.shards.len() {
            if self.shards[i].fenced {
                continue;
            }
            if self.shards[i].killed {
                let first = match self.detect[i] {
                    Some(d) => d.first_tick,
                    None => {
                        self.detect[i] =
                            Some(Detect { first_tick: tick, unhealthy_checks: 1 });
                        tick
                    }
                };
                // The restart RPC against a dead machine: the attempt
                // burns budget (the supervisor cannot tell the machine
                // will die again) until the typed escalation fires with
                // the last-good state attached.
                match self.shards[i].restart() {
                    Ok(_) => {
                        // The restarted process never comes up — the
                        // kill is permanent. The budget just shrank.
                    }
                    Err(RecoveryError::RestartBudgetExhausted { last_good, .. }) => {
                        let state = last_good
                            .map(|b| *b)
                            .unwrap_or_else(|| RecoveredState::from_events(&[]));
                        self.failover(i, FailoverCause::Kill, state, first, tick);
                    }
                    Err(_) => {
                        let state = RecoveredState::from_events(&[]);
                        self.failover(i, FailoverCause::Kill, state, first, tick);
                    }
                }
                continue;
            }
            let stale = tick.saturating_sub(self.shards[i].last_step_tick)
                > self.config.heartbeat_timeout;
            if stale {
                let d = self.detect[i]
                    .get_or_insert(Detect { first_tick: tick, unhealthy_checks: 0 });
                d.unhealthy_checks += 1;
                if d.unhealthy_checks >= self.config.confirm_checks {
                    let first = d.first_tick;
                    let state = recover(self.shards[i].journal_bytes())
                        .map(|r| RecoveredState::from_events(&r.committed))
                        .unwrap_or_else(|_| RecoveredState::from_events(&[]));
                    self.failover(i, FailoverCause::Hang, state, first, tick);
                }
            } else {
                self.detect[i] = None;
            }
        }
    }

    /// Fence `dead` and migrate its committed state to the ring
    /// successor by journal replay.
    fn failover(
        &mut self,
        dead: usize,
        cause: FailoverCause,
        state: RecoveredState,
        detect_tick: u64,
        tick: u64,
    ) {
        self.shards[dead].fence();
        self.router.mark_dead(dead);
        let successor = self.router.ring().successor(dead);
        let mut record = FailoverRecord {
            dead,
            successor,
            cause,
            detect_tick,
            migrated_tick: tick,
            migrated_jobs: 0,
            resent: 0,
        };
        if self.seeded_bug == Some(SeededBug::DroppedFailover) {
            // The seeded fleet bug: the shard is fenced — split-brain
            // is still prevented — but its journal is never replayed
            // and its stranded payloads never re-routed. The chaos
            // oracles must catch the dropped work.
            self.failovers.push(record);
            return;
        }
        let Some(succ) = successor else {
            self.failovers.push(record);
            return;
        };

        // Rebuild the successor from its own committed journal plus
        // the dead shard's uncompleted jobs under fresh ids, and
        // rebase the successor journal so a *later* crash or failover
        // replays to exactly this combined state. A dead shard with no
        // uncompleted jobs has nothing to migrate: the successor is
        // left untouched and no manifest is written.
        if state.pending.is_empty() {
            self.resend_unread(dead, tick, &mut record);
            self.failovers.push(record);
            return;
        }
        let committed = recover(self.shards[succ].journal_bytes())
            .map(|r| r.committed)
            .unwrap_or_default();
        let succ_state = RecoveredState::from_events(&committed);
        let succ_clock = self.shards[succ].clock();
        let mut journal = JournalWriter::new();
        for ev in &committed {
            journal
                .append(&ev.marker, ev.at)
                .expect("each event was read back from a journal record");
            journal.commit();
        }
        let mut next_id = succ_state.next_job_id;
        let mut moved = Vec::with_capacity(state.pending.len());
        let mut pending = succ_state.pending.clone();
        let latency = tick.saturating_sub(detect_tick);
        for job in &state.pending {
            let fresh = Job::new(JobId(next_id), job.task(), job.data().to_vec());
            next_id += 1;
            journal
                .append(
                    &Marker::ReadEnd {
                        sock: SocketId(job.task().0 % self.n_sockets),
                        job: Some(fresh.clone()),
                    },
                    Instant(succ_clock),
                )
                .expect("the job's ReadEnd was read back from a journal record");
            journal.commit();
            // Migrated re-pends are arrivals into the successor's
            // pending set: account them against the task's curve so
            // the bound oracle knows whether this shard stayed
            // in-model through the failover.
            self.arrivals[succ][job.task().0 % self.tasks.len()].push(Instant(succ_clock));
            if let Some(&seq) = self.job_index.get(&(dead, job.id().0)) {
                self.job_index.insert((succ, fresh.id().0), seq);
                self.seq_state[seq as usize] =
                    SeqState::Accepted { shard: succ, arrival: succ_clock };
                // The migration seam in the trace: a zero-length
                // enqueue on the successor linking back to the span
                // the job was interrupted in on the dead shard.
                let link = self.shards[dead]
                    .tracer_ref()
                    .and_then(|t| t.span_of(job.id().0));
                let prio = self
                    .tasks
                    .task(job.task())
                    .map_or(0, |t| u64::from(t.priority().0));
                if let Some(tracer) = self.shards[succ].tracer_mut() {
                    tracer.on_migrate_in(
                        seq,
                        fresh.id().0,
                        job.task().0 as u64,
                        prio,
                        succ_clock,
                        latency,
                        link,
                    );
                }
            }
            moved.push(MigratedJob { old: job.id(), job: fresh.clone() });
            pending.push(fresh);
        }
        let at_segment = self.shards[succ].close_segment();
        match Scheduler::recovered_shared(
            Arc::clone(self.shards[succ].config()),
            FirstByteCodec,
            pending,
            next_id,
            succ_state.jobs_completed,
        ) {
            Ok(sched) => {
                self.shards[succ].replace_journal(journal);
                self.shards[succ].install(sched);
                record.migrated_jobs = moved.len();
                if let Some(collector) = &self.collector {
                    collector.instant(
                        TraceId::SYSTEM,
                        None,
                        SpanKind::Migrate,
                        ClockDomain::Fleet,
                        tick,
                        &[
                            ("dead", dead as u64),
                            ("succ", succ as u64),
                            ("moved", moved.len() as u64),
                            ("latency", latency),
                        ],
                    );
                }
                self.manifests.push(MigrationManifest {
                    from_shard: dead,
                    to_shard: succ,
                    at_segment,
                    moved,
                });
            }
            Err(_) => {
                // A migrated job's task is unknown to the successor's
                // configuration — impossible in a homogeneous fleet,
                // surfaced as a zero-job failover if it ever happens.
            }
        }

        self.resend_unread(dead, tick, &mut record);
        self.failovers.push(record);
    }

    /// Stranded socket payloads (delivered to `dead`, never read)
    /// re-enter the router with their original sequence numbers.
    fn resend_unread(&mut self, dead: usize, tick: u64, record: &mut FailoverRecord) {
        for (_, seq, msg) in self.shards[dead].take_unread() {
            let key = self.seq_key.get(seq as usize).copied().unwrap_or(0);
            let task = key as usize % self.tasks.len();
            let crit = self
                .tasks
                .task(rossl_model::TaskId(task))
                .map_or(Criticality::Hi, rossl_model::Task::criticality);
            self.router.resend(tick, seq, key, crit, msg.into_data(), dead);
            self.seq_state[seq as usize] = SeqState::Routing;
            record.resent += 1;
            self.resent += 1;
        }
    }

    fn outcome(&mut self, ticks: u64, plan: &FaultPlan) -> FleetOutcome {
        if let Some(collector) = &self.collector {
            // Close whatever is still open as truncated, stamped with
            // each domain's final clock reading.
            let ends: Vec<u64> = self.shards.iter().map(Shard::clock).collect();
            collector.finish(|domain| match domain {
                ClockDomain::Fleet => ticks,
                ClockDomain::Shard(s) => ends.get(*s).copied().unwrap_or(0),
            });
        }
        let mut delivered = 0u64;
        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut failed = 0u64;
        let mut lost = Vec::new();
        for (seq, state) in self.seq_state.iter().enumerate() {
            match state {
                SeqState::Completed => {
                    delivered += 1;
                    completed += 1;
                }
                SeqState::Shed => shed += 1,
                SeqState::Failed => {
                    failed += 1;
                    // A payload that was on a shard socket once and
                    // then terminally failed on re-route was accepted
                    // and dropped — that is loss, not refusal.
                    if self.delivered_once[seq] {
                        lost.push(seq as u64);
                    }
                }
                SeqState::Routing => {
                    if self.delivered_once[seq] {
                        lost.push(seq as u64);
                    }
                }
                SeqState::Delivered { .. } | SeqState::Accepted { .. } => {
                    delivered += 1;
                    lost.push(seq as u64);
                }
            }
        }

        // Claim (c): every failover maps to an injected fault that
        // legitimately explains it. A partition never qualifies.
        let justifies = |r: &FailoverRecord| {
            plan.fleet_specs().any(|spec| match spec.class {
                FaultClass::ShardKill { shard, at_tick } => {
                    r.cause == FailoverCause::Kill && shard == r.dead && at_tick <= r.detect_tick
                }
                FaultClass::ShardPause { shard, at_tick, for_ticks } => {
                    r.cause == FailoverCause::Hang
                        && shard == r.dead
                        && at_tick <= r.detect_tick
                        && for_ticks > self.config.heartbeat_timeout
                }
                _ => false,
            })
        };
        let unjustified_failovers: Vec<FailoverRecord> =
            self.failovers.iter().filter(|r| !justifies(r)).cloned().collect();

        // Claim (b): Prosa bounds on in-model shards. A shard is
        // in-model when every task's arrival stream on it (deliveries
        // plus migration re-pends, on the shard-local clock) respects
        // that task's curve — a pause that froze the clock or a
        // failover burst that compressed gaps takes the shard out of
        // model, and out of the assertion.
        let mut bound_violations = 0u64;
        let mut compliant_shards = 0usize;
        let mut compliant_completions = 0u64;
        for shard in 0..self.shards.len() {
            let compliant = self.tasks.iter().all(|t| {
                check_respects(t.arrival_curve(), &self.arrivals[shard][t.id().0]).is_ok()
            });
            if compliant {
                compliant_shards += 1;
                bound_violations += self.violations[shard];
                compliant_completions += self.completions_on[shard];
            }
        }

        let histories: Vec<_> = self.shards.iter().map(Shard::history).collect();
        let fleet_check = check_fleet(&histories, &self.manifests, &self.tasks, self.n_sockets);

        FleetOutcome {
            ticks,
            submissions: self.seq_state.len() as u64,
            delivered,
            completed,
            shed,
            failed,
            resent: self.resent,
            lost,
            failovers: self.failovers.clone(),
            unjustified_failovers,
            bound_violations,
            compliant_shards,
            compliant_completions,
            fleet_check,
            completion_ticks: self.completion_ticks.clone(),
            responses: self.responses.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouteEvent;
    use refined_prosa::SystemBuilder;
    use rossl_faults::FaultSpec;
    use rossl_model::{Curve, Priority};

    fn system(period: u64) -> RosslSystem {
        let mut b = SystemBuilder::new();
        for i in 0..3u32 {
            b = b.task(
                format!("t{i}"),
                Priority(10 + i),
                Duration(2),
                Curve::sporadic(Duration(period)),
            );
        }
        b.sockets(3).build().expect("fleet test system")
    }

    #[test]
    fn every_shard_observes_against_the_one_analysis() {
        let sys = system(300);
        let config = FleetConfig::default();
        let analysis = sys.analyse(config.analysis_horizon).unwrap();
        let mut fleet = Fleet::new(&sys, config.clone()).unwrap();
        for task in sys.tasks() {
            let bound = analysis.bound_for(task.id()).unwrap().total_bound().ticks();
            assert_eq!(fleet.bounds[task.id().0], bound, "{}", task.name());
        }

        // A completion counts against its own shard exactly when its
        // response exceeds the bound of the task it ran as.
        let bound = fleet.bounds[1];
        fleet.seq_state = vec![SeqState::Accepted { shard: 2, arrival: 10 }; 2];
        let completion = |seq: u64, at: u64| ShardEvent::Completed {
            job: Job::new(JobId(seq), rossl_model::TaskId(1), payload(1, seq)),
            at,
        };
        fleet.absorb(2, &completion(0, 10 + bound));
        assert_eq!(fleet.violations, [0; 3]);
        fleet.absorb(2, &completion(1, 11 + bound));
        assert_eq!(fleet.violations, [0, 0, 1]);
        assert_eq!(fleet.completions_on, [0, 0, 2]);
    }

    /// 64-bit FNV-1a over raw bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// An aimed kill (E22's schedule 0: the shard owning key 0, just
    /// after its first delivery) fails over with work to migrate, so
    /// the successor's journal is rebased: its own committed history
    /// re-journaled, then one `ReadEnd` per migrated job. The digests
    /// pin every shard's journal bytes, the rebased one included.
    #[test]
    fn failover_rebases_the_successor_journal_byte_for_byte() {
        let seed = 0xF1EE7_u64;
        let gap = 400;
        let shard = crate::HashRing::new(3, seed).route(0).unwrap_or(0);
        let splitmix64 = crate::splitmix64;
        let at_tick = splitmix64(seed) % gap + 2 + splitmix64(seed ^ 0xA1) % 6;
        let plan = FaultPlan::empty(seed)
            .with(FaultSpec::always(FaultClass::ShardKill { shard, at_tick }));
        let config = FleetConfig { seed, ..FleetConfig::default() };
        let mut fleet = Fleet::new(&system(300), config).unwrap();
        let out = fleet.run(Workload { jobs_per_key: 4, gap_ticks: gap }, &plan);
        assert!(out.lost.is_empty(), "lost: {:?}", out.lost);
        assert_eq!(fleet.manifests.len(), 1);
        let manifest = &fleet.manifests[0];
        assert_eq!(manifest.from_shard, shard);
        assert!(!manifest.moved.is_empty());
        let successor = manifest.to_shard;

        let rec = recover(fleet.shards[successor].journal_bytes()).unwrap();
        assert!(rec.corruption.is_none() && rec.uncommitted.is_empty());
        let migrated = rec.committed.iter().filter(|ev| {
            matches!(&ev.marker, Marker::ReadEnd { job: Some(j), .. }
                if manifest.moved.iter().any(|m| m.job == *j))
        });
        assert_eq!(migrated.count(), manifest.moved.len());

        let digests: Vec<u64> =
            fleet.shards.iter().map(|s| fnv1a(s.journal_bytes())).collect();
        assert_eq!(
            digests,
            [0x45df_2598_0604_031f, 0x3ec9_79b0_7d25_0ca2, 0x6f13_a3fd_b7a3_fa88],
            "{digests:#018x?}"
        );
    }

    #[test]
    fn unschedulable_system_builds_no_fleet() {
        // Three tasks of cost 2 every 5 ticks ask for 120% of one core.
        let err = Fleet::new(&system(5), FleetConfig::default()).err();
        assert!(matches!(err, Some(SystemError::Analysis(_))), "{err:?}");
    }

    /// The router's trail is the record of every routing decision; the
    /// outcome's counters must be recoverable from it.
    #[test]
    fn route_trail_accounts_for_the_outcome_counts() {
        let sys = system(300);
        let workload = Workload { jobs_per_key: 4, gap_ticks: 400 };
        let plan = FaultPlan::empty(7)
            .with(FaultSpec::always(FaultClass::ShardKill { shard: 1, at_tick: 30 }))
            .with(FaultSpec::always(FaultClass::Partition {
                shard: 2,
                at_tick: 10,
                for_ticks: 60,
            }));
        let mut fleet = Fleet::new(&sys, FleetConfig::default()).unwrap();
        let out = fleet.run(workload, &plan);
        let events = fleet.router.events();
        let count = |f: fn(&RouteEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
        assert_eq!(count(|e| matches!(e, RouteEvent::Submitted { .. })), out.submissions);
        assert_eq!(count(|e| matches!(e, RouteEvent::Resent { .. })), out.resent);
        assert_eq!(count(|e| matches!(e, RouteEvent::Shed { .. })), out.shed);
        assert_eq!(count(|e| matches!(e, RouteEvent::Failed { .. })), out.failed);
        let retries = count(|e| matches!(e, RouteEvent::Retry { .. }));
        assert!(retries > 0, "the partition costs retries");
        let delivered: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| match e {
                RouteEvent::Delivered { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert!(delivered.len() as u64 >= out.delivered, "{} < {}", delivered.len(), out.delivered);
        assert_eq!(out.failovers.len(), 1);
        assert!(out.lost.is_empty(), "lost: {:?}", out.lost);
    }
}
