//! The differential executor: one [`FuzzInput`], every oracle at once.
//!
//! Each input is executed twice over:
//!
//! 1. **Raw journaled drive** — the real [`Scheduler`] stepped by a
//!    [`Driver`] against a per-socket FIFO environment charging the
//!    WCET-table [`marker_cost`]s, journaling every marker write-ahead
//!    with commit-per-record discipline. This is the source of the
//!    state-digest coverage signal and the substrate for the crash
//!    path: at `crash_at` markers the driver stops — it takes no further
//!    step, so every message consumed from the environment has its
//!    `ReadEnd` in the committed prefix (DESIGN §5.4) — a torn
//!    half-record is appended, and the [`Supervisor`] restarts from the
//!    committed prefix. Then the recovered state is cross-checked
//!    against an *independent* replay of the journal, the restarted
//!    scheduler's digest against a recounted rebuild, and the stitched
//!    pre-/post-crash trace against the seam accounting.
//! 2. **Timed simulation** (crash-free inputs only) — the [`Simulator`]
//!    with seeded random costs, honest or through the input's fault
//!    plan, feeding the latency-bucket coverage channels and the
//!    consistency / WCET-compliance / Prosa-bound oracles.
//!
//! In teeth mode the seeded bug is installed on the pre-crash scheduler,
//! the post-crash scheduler (same buggy binary) and the timed simulator;
//! [`SeededBug::SkippedCommit`] is a *driver* bug interpreted here: the
//! journaling loop stops committing at the first successful read it
//! journals, so a crash loses that read while the environment has
//! already consumed the message — exactly what the stitched
//! `LostAcceptedJob` accounting exists to catch.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa::RosslSystem;
use rossl::{
    marker_cost, ClientConfig, DegradedEvent, DriveError, Driver, Environment, FirstByteCodec,
    Response, RestartPolicy, Scheduler, SeededBug, Served, Supervisor, Timed,
};
use rossl_faults::{FaultyCostModel, FaultySocketSet};
use rossl_fleet::{splitmix64, Fleet, FleetConfig, HashRing, Workload};
use rossl_journal::{recover, JournalWriter, KIND_EVENT};
use rossl_model::{Duration, Instant, Job, Message, Mode, SocketId, TaskSet, WcetTable};
use rossl_obs::{check_trace, Registry, SchedSink, SchedulerMetrics, TraceCollector};
use rossl_sockets::{ReadOutcome, SocketSet};
use rossl_timing::{check_consistency, check_wcet_compliance, Simulator, UniformCost};
use rossl_trace::{
    check_functional, check_stitched, pending_jobs, Marker, MarkerKind, ProtocolAutomaton,
};
use rossl_verify::SpecMonitor;

use crate::coverage::{channel, CoverageSample};
use crate::input::{bounds, FuzzInput, ShardFaultKind, ShardFaultSpec};
use crate::rng::SplitRng;

/// Step cap per drive segment — a backstop against pathological inputs,
/// far above what any in-grammar input needs to quiesce.
const MAX_DRIVE_STEPS: usize = 4096;

/// One oracle disagreement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Finding {
    /// The oracle that flagged the run (see the crate-level matrix).
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Everything one execution produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Oracle disagreements, in detection order.
    pub findings: Vec<Finding>,
    /// The coverage sample to merge into the campaign map.
    pub coverage: CoverageSample,
    /// Scheduler steps executed across all segments and drives.
    pub steps: u64,
}

impl RunOutcome {
    /// `true` when no oracle disagreed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn finding(findings: &mut Vec<Finding>, oracle: &'static str, detail: String) {
    findings.push(Finding { oracle, detail });
}

/// The per-socket FIFO environment of the raw drive, backed by the
/// stack's own [`SocketSet`] transport (Def. 2.1 visibility: a message
/// arriving at `t` is first readable at `t + 1`), charging the
/// WCET-table [`marker_cost`]s. Consumed cursors survive a crash: a
/// message popped from the transport stays popped.
struct Env<'a> {
    input: &'a FuzzInput,
    tasks: &'a TaskSet,
    wcet: WcetTable,
    sockets: SocketSet,
    consumed: Vec<usize>,
    /// Set at an idle with arrivals still in flight: the next read on a
    /// non-empty socket is served via [`SocketSet::read_deadline`], and
    /// the clock fast-forwards to its wakeup instant.
    hungry: bool,
}

impl<'a> Env<'a> {
    fn new(input: &'a FuzzInput, system: &'a RosslSystem) -> Env<'a> {
        let mut sockets = SocketSet::new(input.n_sockets);
        for a in &input.arrivals {
            sockets
                .enqueue(SocketId(a.sock), Instant(a.time), Message::new(vec![a.task as u8]))
                .expect("sanitized arrivals target existing sockets");
        }
        Env {
            input,
            tasks: system.tasks(),
            wcet: *system.wcet(),
            sockets,
            consumed: vec![0; input.n_sockets],
            hungry: false,
        }
    }

    /// Called at every `M_Idling`: `true` once the transport is drained
    /// and the scheduler is back in LO mode with nothing suspended
    /// (degraded work is deferred, never abandoned). Otherwise the next
    /// non-empty read waits for its message via the deadline API.
    fn quiesced_at_idle(&mut self, sched: &Scheduler<FirstByteCodec>) -> bool {
        if self.sockets.total_enqueued() == 0
            && sched.suspended_count() == 0
            && sched.mode() == Mode::Lo
        {
            return true;
        }
        self.hungry = true;
        false
    }
}

impl Environment for Env<'_> {
    type Error = DriveError;

    fn read(&mut self, sock: SocketId, now: Instant) -> Served<DriveError> {
        if self.hungry {
            // Idle wakeup: an unbounded deadline always finds the
            // socket's next message (a `Timeout` means the socket is
            // empty — the scheduler polls its next socket).
            return Ok(match self.sockets.read_deadline(sock, now, Instant(u64::MAX)) {
                Ok((ReadOutcome::Data { msg, .. }, at)) => {
                    self.consumed[sock.0] += 1;
                    self.hungry = false;
                    (Some(msg.into_data()), at.max(now))
                }
                Ok((ReadOutcome::WouldBlock, _)) | Err(_) => (None, now),
            });
        }
        Ok(match self.sockets.try_read(sock, now) {
            Ok(ReadOutcome::Data { msg, .. }) => {
                self.consumed[sock.0] += 1;
                (Some(msg.into_data()), now)
            }
            _ => (None, now),
        })
    }

    /// Jobs named by the input's overrun plan report a measured
    /// execution time of `min(C_LO + extra, C_HI)` — always inside the
    /// Vestal model, so the honest scheduler's reaction (arming a mode
    /// switch) is *correct* behaviour, not a finding. Everything else
    /// completes within budget.
    fn execute(&mut self, job: &Job, _: Duration) -> Response {
        let overrun = self.input.overruns.iter().find(|o| o.job == job.id().0);
        match (overrun, self.tasks.task(job.task())) {
            (Some(o), Some(t)) => {
                Response::ExecutedIn((t.wcet() + Duration(o.extra)).min(t.wcet_hi()))
            }
            _ => Response::Executed,
        }
    }

    fn charge(&mut self, marker: &Marker) -> Duration {
        marker_cost(marker, &self.wcet, self.tasks)
    }
}

/// Executes `input` through the raw journaled drive (always) and the
/// timed simulation (crash-free inputs), running the full oracle matrix.
/// `bug` installs a seeded scheduler/driver bug for mutation testing;
/// `None` is the honest stack, on which every finding is a real
/// disagreement.
pub fn execute(input: &FuzzInput, bug: Option<SeededBug>) -> RunOutcome {
    let system = input.system();
    let config = Arc::new(
        ClientConfig::new(system.tasks().clone(), input.n_sockets)
            .expect("sanitized input yields a valid client config"),
    );
    let mut out = RunOutcome::default();
    raw_drive(input, bug, &system, &config, &mut out);
    if input.crash_at.is_none() {
        timed_drive(input, bug, &system, &mut out);
    }
    if input.is_fleet() {
        fleet_drive(input, bug, &mut out);
    }
    out
}

/// The workload submission gap for the fleet drive: one gap per floored
/// period, plus a margin absorbing retry-delay compression (a re-routed
/// datagram can land up to the full retry span — backoff, jitter and
/// all — after its nominal tick), so kill-only chaos schedules stay
/// inside every shard's sporadic curves.
fn fleet_gap(input: &FuzzInput) -> u64 {
    input
        .tasks
        .iter()
        .map(|t| t.period.max(bounds::FLEET_PERIOD_FLOOR))
        .max()
        .unwrap_or(bounds::FLEET_PERIOD_FLOOR)
        + 50
}

/// Drives the input's fleet (E22's chaos campaign, one schedule at a
/// time): N shards, the consistent-hash router, and the input's
/// kill/pause/partition plan, then runs the fleet oracle rows.
fn fleet_drive(input: &FuzzInput, bug: Option<SeededBug>, out: &mut RunOutcome) {
    let system = input.fleet_system();
    let config = FleetConfig {
        n_shards: input.n_shards,
        seed: input.seed,
        ..FleetConfig::default()
    };
    let workload = Workload {
        jobs_per_key: 1 + (input.arrivals.len() as u64 / input.tasks.len() as u64).min(2),
        gap_ticks: fleet_gap(input),
    };
    let Ok(fleet) = Fleet::new(&system, config) else {
        // The floored task set always analyses (see
        // `bounds::FLEET_PERIOD_FLOOR`); a rejection is outside the
        // fleet oracles' contract, not a finding.
        return;
    };
    // Tracing rides along on every fleet drive: the well-formedness
    // checker is an oracle row of its own (and the detection path for
    // `SeededBug::OrphanSpan`). The cap is generous — fuzz fleets are
    // small — so honest runs never displace and the checker runs strict.
    let collector = Arc::new(TraceCollector::new(1 << 16));
    let mut fleet = fleet.with_tracer(Arc::clone(&collector));
    if let Some(b) = bug.filter(SeededBug::is_fleet_bug) {
        fleet = fleet.with_seeded_bug(b);
    }
    let outcome = fleet.run(workload, &input.fleet_fault_plan());
    out.steps += outcome.ticks;

    // Trace well-formedness: every span closed at its phase boundary,
    // parents and links resolve, phases hand off tick-exactly. The
    // structural rows are displacement-aware (check_trace relaxes
    // eviction-explainable defects), so a bounded collector never
    // produces false positives.
    let spans = collector.drain();
    let check = check_trace(&spans, collector.displaced());
    for d in &check.defects {
        finding(&mut out.findings, "trace-wellformed", format!("{d:?}"));
    }

    // Every failover must trace back to an injected shard fault.
    for f in &outcome.unjustified_failovers {
        finding(
            &mut out.findings,
            "fleet-failover",
            format!(
                "shard {} fenced ({:?}) at tick {} with no injected fault to justify it",
                f.dead, f.cause, f.detect_tick
            ),
        );
    }
    // Per-shard Prosa bounds hold on every in-model (surviving,
    // curve-respecting) shard, failovers and all.
    if outcome.bound_violations > 0 {
        finding(
            &mut out.findings,
            "fleet-bound",
            format!(
                "{} response(s) exceeded their shard's Prosa bound",
                outcome.bound_violations
            ),
        );
    }
    // The cross-shard checker: per-shard protocol + seam accounting +
    // conservation of accepted jobs across migrations.
    if let Err(e) = &outcome.fleet_check {
        finding(&mut out.findings, "fleet-check", format!("{e:?}"));
    }
    // Accounting conservation is only guaranteed for kill-only
    // schedules: kills are detected well inside the router's retry
    // span, so every resent datagram reaches a survivor. Pauses fence
    // late and partitions can outlast the whole retry span — both can
    // honestly strand a delivered-once payload.
    let kill_only = !input.shard_faults.is_empty()
        && input
            .shard_faults
            .iter()
            .all(|sf| sf.kind == ShardFaultKind::Kill);
    if (kill_only || input.shard_faults.is_empty()) && !outcome.lost.is_empty() {
        finding(
            &mut out.findings,
            "fleet-lost",
            format!("accepted payload(s) lost under kills only: seqs {:?}", outcome.lost),
        );
    }

    // Coverage: fold the outcome shape into the digest map and feed the
    // failover-latency channel (detect -> migrated).
    out.coverage.digest(splitmix64(
        outcome.completed
            ^ (outcome.resent << 16)
            ^ ((outcome.failovers.len() as u64) << 32)
            ^ ((outcome.shed) << 40),
    ));
    for f in &outcome.failovers {
        out.coverage
            .latency(channel::FAILOVER, f.migrated_tick.saturating_sub(f.detect_tick));
    }
}

/// Reshapes `input` into a fleet input with one aimed kill: the shard
/// owning key 0 dies just after key 0's first submission, so it
/// provably dies with accepted work in flight — the schedule shape
/// [`SeededBug::DroppedFailover`] needs to surface. Used by teeth
/// campaigns (`FuzzConfig::force_fleet`).
pub(crate) fn force_fleet(input: &mut FuzzInput, rng: &mut SplitRng) {
    input.n_shards = 3;
    input.crash_at = None;
    input.shard_faults.clear();
    input.sanitize();
    // Replicate the fleet's own submission stagger for key 0 and the
    // ring's placement of key 0, then kill the owner a few ticks after
    // the first delivery lands (before its job can complete).
    let gap = fleet_gap(input);
    let stagger = splitmix64(input.seed) % gap;
    let hot = HashRing::new(3, input.seed).route(0).unwrap_or(0);
    input.shard_faults.push(ShardFaultSpec {
        kind: ShardFaultKind::Kill,
        shard: hot,
        at_tick: stagger + 2 + rng.range(0, 6),
        for_ticks: 0,
    });
    input.sanitize();
}

fn raw_drive(
    input: &FuzzInput,
    bug: Option<SeededBug>,
    system: &RosslSystem,
    config: &Arc<ClientConfig>,
    out: &mut RunOutcome,
) {
    let tasks = system.tasks();
    let registry = Registry::new();
    let bundle = SchedulerMetrics::register(&registry);
    let policy = input.mode_policy();
    let mut sched = Scheduler::with_shared_config(Arc::clone(config), FirstByteCodec)
        .with_telemetry(SchedSink::Metrics(Arc::clone(&bundle)));
    if let Some(p) = policy {
        sched = sched.with_mode_policy(p);
    }
    if let Some(b) = bug {
        sched = sched.with_seeded_bug(b);
    }

    // The streaming monitor runs *online*, fed each marker and each
    // degradation event as the scheduler produces them — this is the
    // oracle that ties every mode switch to a recorded overrun and
    // every suspension to an eligible LO job.
    let mut monitor = SpecMonitor::new(tasks.clone(), input.n_sockets);
    if let Some(p) = policy {
        monitor = monitor.with_policy(p);
    }
    let mut monitor_dead = false;
    let mut events: Vec<DegradedEvent> = Vec::new();

    let mut env = Env::new(input, system);
    let mut driver = Driver::new(sched, Instant::ZERO);
    let mut journal = JournalWriter::new();
    let mut commits_enabled = true;
    let mut trace: Vec<Marker> = Vec::new();
    let mut crashed = false;
    let mut quiesced = false;

    loop {
        let Timed { marker, end, .. } = match driver.step(&mut env) {
            Ok(step) => step,
            Err(e) => {
                finding(
                    &mut out.findings,
                    "drive",
                    format!("raw drive stuck after {} markers: {e}", trace.len()),
                );
                return;
            }
        };
        out.steps += 1;
        journal
            .append(&marker, end)
            .expect("fuzz payloads are one byte, the task index");
        // The SkippedCommit driver bug: stop committing at the first
        // successful read journaled — the read record itself included.
        if bug == Some(SeededBug::SkippedCommit)
            && matches!(marker, Marker::ReadEnd { job: Some(_), .. })
        {
            commits_enabled = false;
        }
        if commits_enabled {
            journal.commit();
        }
        out.coverage.digest(driver.scheduler().digest64());

        // Feed the online monitor: the marker first (it may change the
        // monitor's mode), then the degradation events the same step
        // produced (a suspension needs its ReadEnd observed, a resume
        // its ModeSwitch). A dead monitor stops eating but the drive
        // continues, so the remaining oracles still run.
        if !monitor_dead {
            if let Err(v) = monitor.observe(&marker) {
                finding(
                    &mut out.findings,
                    "monitor",
                    format!("online monitor rejected marker {}: {v}", trace.len()),
                );
                monitor_dead = true;
            }
        }
        let step_events = driver.scheduler_mut().take_degradation_events();
        for ev in &step_events {
            if !monitor_dead {
                if let Err(v) = monitor.observe_degradation(ev) {
                    finding(
                        &mut out.findings,
                        "monitor",
                        format!("online monitor rejected degradation event {ev:?}: {v}"),
                    );
                    monitor_dead = true;
                }
            }
        }
        events.extend(step_events);
        let idling = marker == Marker::Idling;
        trace.push(marker);

        // The crash lands after the marker is journaled: the driver
        // simply takes no further step, so its request is never served
        // and consumed cursors never outrun the committed prefix.
        if input.crash_at.is_some_and(|k| trace.len() as u64 >= k) {
            crashed = true;
            break;
        }
        if idling && env.quiesced_at_idle(driver.scheduler()) {
            quiesced = true;
            break;
        }
        if trace.len() >= MAX_DRIVE_STEPS {
            break;
        }
    }

    out.coverage.trace(&trace);

    if crashed {
        crash_oracles(bug, config, &mut env, journal, &trace, driver, out);
        return;
    }

    driver.scheduler_mut().flush_telemetry();
    let sched = driver.scheduler();

    if let Err(e) = ProtocolAutomaton::new(input.n_sockets).check(&trace) {
        finding(&mut out.findings, "protocol", format!("{e}"));
    }
    if let Err(e) = check_functional(&trace, tasks) {
        finding(&mut out.findings, "functional", format!("{e}"));
    }
    // Mode-quiescence differential: a clean end of run must be back in
    // LO mode with nothing suspended — HI mode without HI backlog is
    // exactly what the hysteresis exists to leave.
    if quiesced && (sched.mode() != Mode::Lo || monitor.mode() != Mode::Lo) {
        finding(
            &mut out.findings,
            "monitor",
            format!(
                "quiesced in mode {:?} (monitor: {:?}), expected LO",
                sched.mode(),
                monitor.mode()
            ),
        );
    }
    // Ghost-set differential: at quiescence the scheduler's live queue
    // must match the trace's pending-jobs set.
    if quiesced {
        let ghost = pending_jobs(&trace, trace.len());
        if ghost.len() != sched.pending_count() {
            finding(
                &mut out.findings,
                "pending",
                format!(
                    "trace says {} pending job(s) at quiescence, scheduler queue holds {}",
                    ghost.len(),
                    sched.pending_count()
                ),
            );
        }
    }
    // Journal round-trip: committed ++ uncommitted must replay to
    // exactly the trace, with no corruption on a clean shutdown.
    match recover(&journal.into_bytes()) {
        Ok(rec) => {
            if let Some(c) = rec.corruption {
                finding(
                    &mut out.findings,
                    "journal",
                    format!("corruption reported on clean shutdown: {c}"),
                );
            }
            let replayed = rec.committed.iter().chain(&rec.uncommitted);
            if !replayed.map(|e| &e.marker).eq(&trace) {
                finding(
                    &mut out.findings,
                    "journal",
                    format!(
                        "round-trip mismatch: journal replays {} marker(s), trace has {}",
                        rec.committed.len() + rec.uncommitted.len(),
                        trace.len()
                    ),
                );
            }
        }
        Err(e) => finding(&mut out.findings, "journal", format!("unreadable journal: {e}")),
    }
    telemetry_recount(&trace, &events, &registry, &mut out.findings);
}

fn crash_oracles(
    bug: Option<SeededBug>,
    config: &Arc<ClientConfig>,
    env: &mut Env,
    journal: JournalWriter,
    pre_trace: &[Marker],
    crashed: Driver<FirstByteCodec>,
    out: &mut RunOutcome,
) {
    let (input, tasks) = (env.input, env.tasks);
    let now = crashed.now();
    let pre_completed = crashed.scheduler().jobs_completed();
    drop(crashed);

    let mut bytes = journal.into_bytes();
    // The write the crash interrupted: a torn event header.
    bytes.extend_from_slice(&[KIND_EVENT, 0xFF, 0xFF]);

    // Independent offline view of the committed prefix.
    let committed: Vec<Marker> = match recover(&bytes) {
        Ok(rec) => rec.committed.iter().map(|e| e.marker.clone()).collect(),
        Err(e) => {
            finding(
                &mut out.findings,
                "journal",
                format!("crashed journal unreadable: {e}"),
            );
            return;
        }
    };

    let mut supervisor = Supervisor::new(RestartPolicy::default());
    let (sched2, state, corruption) =
        match supervisor.restart_shared(&bytes, Arc::clone(config), FirstByteCodec) {
            Ok(t) => t,
            Err(e) => {
                finding(
                    &mut out.findings,
                    "recovery",
                    format!("supervised restart failed at marker {}: {e}", pre_trace.len()),
                );
                return;
            }
        };
    if corruption.is_none() {
        finding(
            &mut out.findings,
            "journal",
            "torn tail went undetected by journal recovery".to_string(),
        );
    }

    // Recount the recovered state from the committed markers ourselves
    // and hold the supervisor to it.
    let mut pending: Vec<Job> = Vec::new();
    let mut in_flight: Option<Job> = None;
    let mut next_id = 0u64;
    let mut completed = 0u64;
    let mut mode = Mode::Lo;
    for m in &committed {
        match m {
            Marker::ReadEnd { job: Some(j), .. } => {
                next_id = next_id.max(j.id().0 + 1);
                pending.push(j.clone());
            }
            Marker::Dispatch(j) => {
                pending.retain(|p| p.id() != j.id());
                in_flight = Some(j.clone());
            }
            Marker::Completion(_) => {
                completed += 1;
                in_flight = None;
            }
            Marker::ModeSwitch { to, .. } => mode = *to,
            _ => {}
        }
    }
    if let Some(j) = in_flight {
        pending.insert(0, j);
    }

    if state.mode != mode {
        finding(
            &mut out.findings,
            "recovery",
            format!(
                "recovered mode {:?} disagrees with the last committed mode switch ({mode:?})",
                state.mode
            ),
        );
    }
    if state.next_job_id != next_id || state.jobs_completed != completed {
        finding(
            &mut out.findings,
            "recovery",
            format!(
                "recovered counters (next_id={}, completed={}) disagree with journal recount \
                 (next_id={next_id}, completed={completed})",
                state.next_job_id, state.jobs_completed
            ),
        );
    }
    if completed != pre_completed {
        finding(
            &mut out.findings,
            "recovery",
            format!(
                "committed journal records {completed} completion(s); the crashed scheduler \
                 had performed {pre_completed}"
            ),
        );
    }
    let state_ids: Vec<u64> = state.pending.iter().map(|j| j.id().0).collect();
    let mine_ids: Vec<u64> = pending.iter().map(|j| j.id().0).collect();
    if state_ids != mine_ids {
        finding(
            &mut out.findings,
            "recovery",
            format!("recovered pending jobs {state_ids:?} disagree with journal recount {mine_ids:?}"),
        );
    }

    // Re-install the mode machinery on the restarted scheduler: the
    // supervisor recovers the *state* (including the mode); the policy
    // is configuration and comes from the deployment, exactly as the
    // crash sweep does it. A crash mid-switch (armed, unenacted) loses
    // the arming legitimately — no ModeSwitch was committed.
    let policy = input.mode_policy();
    let mut sched2 = sched2;
    if let Some(p) = policy {
        sched2 = sched2.with_mode_policy(p).resume_in_mode(state.mode);
    }
    if let Some(b) = bug {
        sched2 = sched2.with_seeded_bug(b);
    }

    // Digest differential: a scheduler rebuilt from our own recount must
    // be bit-for-bit indistinguishable from the supervisor's — the same
    // policy/mode chain is applied so the comparison is like for like.
    match Scheduler::recovered_shared(
        Arc::clone(config),
        FirstByteCodec,
        pending.clone(),
        next_id,
        completed,
    ) {
        Ok(mine) => {
            let mut mine = mine;
            if let Some(p) = policy {
                mine = mine.with_mode_policy(p).resume_in_mode(mode);
            }
            if let Some(b) = bug {
                mine = mine.with_seeded_bug(b);
            }
            if mine.digest64() != sched2.digest64() {
                finding(
                    &mut out.findings,
                    "digest",
                    "restarted scheduler's state digest disagrees with a rebuild from the \
                     journal recount"
                        .to_string(),
                );
            }
        }
        Err(e) => finding(
            &mut out.findings,
            "recovery",
            format!("journal recount references an unknown task: {e}"),
        ),
    }
    let mut driver = Driver::new(sched2, now);
    let mut seg1: Vec<Marker> = Vec::new();
    loop {
        let marker = match driver.step(env) {
            Ok(step) => step.marker,
            Err(e) => {
                finding(
                    &mut out.findings,
                    "drive",
                    format!("post-crash drive stuck after {} markers: {e}", seg1.len()),
                );
                break;
            }
        };
        out.steps += 1;
        out.coverage.digest(driver.scheduler().digest64());
        let idling = marker == Marker::Idling;
        seg1.push(marker);
        // Suspended work recovered into HI mode must be resumed and run
        // before the post-crash drive may end, too.
        if idling && env.quiesced_at_idle(driver.scheduler()) || seg1.len() >= MAX_DRIVE_STEPS {
            break;
        }
    }
    out.coverage.trace(&seg1);

    // Completion-counter consistency across the crash.
    let seg1_completions = seg1
        .iter()
        .filter(|m| m.kind() == MarkerKind::Completion)
        .count() as u64;
    let sched2 = driver.scheduler();
    if sched2.jobs_completed() != completed + seg1_completions {
        finding(
            &mut out.findings,
            "recovery",
            format!(
                "post-crash completion counter {} != recovered {completed} + {seg1_completions} \
                 observed",
                sched2.jobs_completed()
            ),
        );
    }

    // The stitched verdict: per-segment protocol, cross-seam functional
    // correctness, and the consumed-message accounting.
    let segments = [committed.as_slice(), seg1.as_slice()];
    if let Err(e) = check_stitched(&segments, tasks, input.n_sockets, Some(&env.consumed)) {
        finding(&mut out.findings, "stitched", format!("{e}"));
    }
}

fn timed_drive(
    input: &FuzzInput,
    bug: Option<SeededBug>,
    system: &RosslSystem,
    out: &mut RunOutcome,
) {
    let arrivals = input.arrival_sequence();
    let horizon = Instant(input.horizon);
    let tasks = system.tasks();
    let registry = Registry::new();
    let bundle = SchedulerMetrics::register(&registry);
    let sink = SchedSink::Metrics(Arc::clone(&bundle));
    let cost = UniformCost::new(StdRng::seed_from_u64(input.seed));
    let config = ClientConfig::new(tasks.clone(), input.n_sockets)
        .expect("sanitized input yields a valid client config");

    // Honest inputs take the fault-injection path too: an empty plan is
    // transparent at both layers (`rossl-faults`' replay properties), and
    // unclamped uniform picks never leave `[1, max]`. Mirrors
    // RosslSystem::simulate_faulty_with_telemetry, with the seeded bug
    // threaded through.
    let plan = input.fault_plan();
    let sockets = match FaultySocketSet::with_arrivals(input.n_sockets, &arrivals, &plan) {
        Ok(sockets) => sockets,
        Err(e) => {
            finding(&mut out.findings, "drive", format!("fault plan broke the socket set: {e}"));
            return;
        }
    };
    let cost = FaultyCostModel::new(cost, &plan);
    let sim = match Simulator::new(config, FirstByteCodec, *system.wcet(), cost) {
        Ok(sim) => sim,
        Err(e) => {
            finding(&mut out.findings, "drive", format!("simulator rejected input: {e}"));
            return;
        }
    };
    let mut sim = sim.unclamped().with_telemetry(sink);
    if let Some(b) = bug {
        sim = sim.with_seeded_bug(b);
    }
    let result = match sim.run_with(sockets, horizon) {
        Ok(result) => result,
        Err(e) => {
            finding(&mut out.findings, "drive", format!("timed simulation failed: {e}"));
            return;
        }
    };

    let markers = result.trace.markers();
    if let Err(e) = ProtocolAutomaton::new(input.n_sockets).check(markers) {
        finding(&mut out.findings, "protocol", format!("timed trace: {e}"));
    }
    if let Err(e) = check_functional(markers, tasks) {
        finding(&mut out.findings, "functional", format!("timed trace: {e}"));
    }
    if input.faults.is_empty() {
        // Both checkers assume the honest environment: socket faults
        // legitimately perturb delivery, cost faults legitimately break
        // the WCET table.
        if let Err(e) = check_consistency(&result.trace, &arrivals) {
            finding(&mut out.findings, "consistency", format!("{e}"));
        }
        if let Err(e) = check_wcet_compliance(&result.trace, tasks, system.wcet(), input.n_sockets)
        {
            finding(&mut out.findings, "wcet", format!("{e}"));
        }
    }
    telemetry_recount(markers, &result.degradation, &registry, &mut out.findings);

    // The Prosa bound oracle: sound only for honest, curve-respecting
    // runs of a schedulable system.
    if input.faults.is_empty() && input.respects_curves() {
        let analysis_horizon = Duration(input.horizon.max(100_000).saturating_mul(4));
        if let Ok(analysis) = system.analyse(analysis_horizon) {
            for (job, task, rt) in result.response_times() {
                if let Some(b) = analysis.bound_for(task) {
                    if rt > b.total_bound() {
                        finding(
                            &mut out.findings,
                            "bound",
                            format!(
                                "job {} of task {}: response time {} exceeds Prosa bound {}",
                                job.0,
                                task.0,
                                rt.ticks(),
                                b.total_bound().ticks()
                            ),
                        );
                    }
                }
            }
        }
    }

    out.steps += markers.len() as u64;
    out.coverage.trace(markers);
    for rec in result.jobs.values() {
        if let Some(rt) = rec.response_time() {
            out.coverage.latency(channel::RESPONSE, rt.ticks());
        }
        out.coverage.latency(channel::READ_LAG, rec.read_lag().ticks());
    }
}

/// Compares the flushed `sched.*` counters against an offline recount of
/// the trace — the telemetry subsystem must agree exactly with ground
/// truth (one marker per step, flush-complete at run end).
fn telemetry_recount(
    markers: &[Marker],
    events: &[DegradedEvent],
    registry: &Registry,
    findings: &mut Vec<Finding>,
) {
    let snap = registry.snapshot();
    // One count per `MarkerKind`, taken in one pass.
    let mut kinds = [0u64; 9];
    for m in markers {
        kinds[m.kind() as usize] += 1;
    }
    let count = |k: MarkerKind| kinds[k as usize];
    let event = |f: fn(&DegradedEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    let expected = [
        ("sched.steps", markers.len() as u64),
        ("sched.reads_ok", count(MarkerKind::ReadEndSuccess)),
        ("sched.reads_empty", count(MarkerKind::ReadEndFailure)),
        ("sched.dispatches", count(MarkerKind::Dispatch)),
        ("sched.completions", count(MarkerKind::Completion)),
        ("sched.idles", count(MarkerKind::Idling)),
        ("sched.mode_switches", count(MarkerKind::ModeSwitch)),
        (
            "sched.sheds",
            event(|e| matches!(e, DegradedEvent::JobShed { .. })),
        ),
        (
            "sched.overruns",
            event(|e| matches!(e, DegradedEvent::WcetOverrun { .. })),
        ),
        (
            "sched.suspensions",
            event(|e| matches!(e, DegradedEvent::JobSuspended { .. })),
        ),
        (
            "sched.resumes",
            event(|e| matches!(e, DegradedEvent::JobResumed { .. })),
        ),
    ];
    for (name, want) in expected {
        let got = snap.counter(name).unwrap_or(0);
        if got != want {
            findings.push(Finding {
                oracle: "telemetry",
                detail: format!("{name}: counter {got} != offline recount {want}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitRng;

    #[test]
    fn honest_generated_inputs_are_clean() {
        let mut rng = SplitRng::new(0xC1EA);
        for i in 0..25 {
            let input = FuzzInput::generate(&mut rng);
            let out = execute(&input, None);
            assert!(
                out.clean(),
                "honest input #{i} produced findings: {:?}\ninput:\n{}",
                out.findings,
                input.to_text()
            );
            assert!(out.steps > 0);
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let mut rng = SplitRng::new(7);
        let input = FuzzInput::generate(&mut rng);
        let a = execute(&input, None);
        let b = execute(&input, None);
        assert_eq!(a.findings, b.findings);
        assert_eq!(a.steps, b.steps);
    }

    /// Each seeded bug is detected by fuzzing a handful of inputs — the
    /// in-crate smoke version of `fuzz --teeth`.
    #[test]
    fn seeded_bugs_are_detected() {
        for bug in SeededBug::ALL {
            let mut rng = SplitRng::new(0xB06 ^ bug as u64);
            let mut detected = false;
            for _ in 0..60 {
                let mut input = FuzzInput::generate(&mut rng);
                if bug.is_driver_bug() {
                    // Driver bugs only surface through crash recovery.
                    input.crash_at = Some(rng.range(5, 120));
                    input.sanitize();
                }
                if bug.is_fleet_bug() {
                    // Fleet bugs only surface with >= 2 shards and a
                    // kill that strands accepted work.
                    force_fleet(&mut input, &mut rng);
                }
                if !execute(&input, Some(bug)).clean() {
                    detected = true;
                    break;
                }
            }
            assert!(detected, "seeded bug {bug} escaped 60 fuzz inputs");
        }
    }

    /// The honest fleet is clean under forced (aimed-kill) schedules:
    /// the same schedules the teeth harness uses to surface
    /// `DroppedFailover` must produce zero findings without the bug.
    #[test]
    fn honest_forced_fleet_inputs_are_clean() {
        let mut rng = SplitRng::new(0xF7EE);
        for i in 0..8 {
            let mut input = FuzzInput::generate(&mut rng);
            force_fleet(&mut input, &mut rng);
            let out = execute(&input, None);
            assert!(
                out.clean(),
                "honest forced-fleet input #{i} produced findings: {:?}\ninput:\n{}",
                out.findings,
                input.to_text()
            );
        }
    }
}
