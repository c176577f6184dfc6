//! The client→shard router (DESIGN §10.3).
//!
//! Every submission flows through one deterministic decision pipeline
//! per delivery attempt:
//!
//! 1. **deadline** — a request older than its per-request deadline
//!    fails typed ([`FailReason::DeadlineExceeded`]), mirroring
//!    [`rossl_sockets::SocketSet::read_deadline`]'s typed timeouts;
//! 2. **placement** — the consistent-hash [`HashRing`] picks the first
//!    alive shard for the key;
//! 3. **circuit breaker** — a persistently failing shard fails fast
//!    instead of burning the retry budget;
//! 4. **backpressure** — an overloaded shard sheds low-criticality
//!    traffic first (the router-level face of PR 6's criticality
//!    machinery);
//! 5. **delivery** — an unreachable shard costs a retry, scheduled at
//!    `now + backoff(attempt) + jitter` where the backoff curve is the
//!    *supervisor's* [`RestartPolicy::backoff_for`] and the jitter is a
//!    pure hash of `(seed, seq, attempt)`.
//!
//! Because every input is explicit — the tick clock, the seed, the
//! reachability snapshot — the full [`RouteEvent`] trace is a pure
//! function of `(seed, fault plan)`; `tests/router_properties.rs`
//! asserts byte-identical replays.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rossl::RestartPolicy;
use rossl_model::{Criticality, MsgData};
use rossl_obs::{SpanId, TraceCollector};

use crate::breaker::{BreakerTransition, CircuitBreaker};
use crate::ring::{splitmix64, HashRing};
use crate::tracing::RouterTracer;

/// Tunables for the retry / breaker / shedding pipeline.
#[derive(Debug, Clone)]
pub struct RouterPolicy {
    /// Delivery attempts per request before it fails typed.
    pub max_attempts: u32,
    /// Per-request deadline, in fleet ticks from submission.
    pub deadline_ticks: u64,
    /// The backoff curve between attempts — deliberately the
    /// supervisor's restart policy, so router retries and supervisor
    /// restarts share one notion of exponential backoff.
    pub backoff: RestartPolicy,
    /// Upper bound on the deterministic per-retry jitter, in ticks.
    pub jitter_ticks: u64,
    /// Consecutive failures that open a shard's circuit breaker.
    pub breaker_threshold: u32,
    /// Ticks an open breaker waits before admitting a probe.
    pub breaker_cooldown: u64,
    /// Backlog depth at which low-criticality traffic is shed.
    pub shed_lo_depth: usize,
    /// Backlog depth at which even high-criticality traffic is shed.
    pub shed_hi_depth: usize,
}

impl Default for RouterPolicy {
    fn default() -> RouterPolicy {
        RouterPolicy {
            max_attempts: 5,
            deadline_ticks: 200,
            backoff: RestartPolicy::new(5, rossl_model::Duration(2)),
            jitter_ticks: 3,
            breaker_threshold: 3,
            breaker_cooldown: 16,
            shed_lo_depth: 24,
            shed_hi_depth: 48,
        }
    }
}

/// The router's per-tick view of one shard, provided by the fleet.
#[derive(Debug, Clone, Copy)]
pub struct ShardStatus {
    /// Can a datagram be delivered right now? False for killed,
    /// fenced, or currently partitioned shards (a *paused* shard still
    /// accepts datagrams — its kernel buffers, only the scheduler is
    /// stopped).
    pub reachable: bool,
    /// Accepted-but-uncompleted backlog, for backpressure shedding.
    pub depth: usize,
}

/// A datagram the router wants delivered this tick.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Target shard.
    pub shard: usize,
    /// Fleet-wide payload sequence number.
    pub seq: u64,
    /// The routing key (task id in the fleet workload).
    pub key: u64,
    /// The payload bytes.
    pub data: MsgData,
}

/// Why a delivery attempt was retried rather than delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// The target shard's breaker is open.
    BreakerOpen,
    /// The target shard did not accept the datagram.
    Unreachable,
}

/// Why a request terminally failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The per-request deadline passed (or the next retry would land
    /// past it).
    DeadlineExceeded,
    /// Every allowed attempt was spent.
    AttemptsExhausted,
    /// No shard is alive to route to.
    NoAliveShard,
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailReason::DeadlineExceeded => "deadline-exceeded",
            FailReason::AttemptsExhausted => "attempts-exhausted",
            FailReason::NoAliveShard => "no-alive-shard",
        })
    }
}

/// One routing decision, in decision order. The rendered form (one
/// line per event, see [`Router::render_trace`]) is the determinism
/// witness: same `(seed, fault plan)` ⇒ byte-identical trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteEvent {
    /// A fresh submission entered the pipeline.
    Submitted {
        /// Fleet tick.
        tick: u64,
        /// Payload sequence number.
        seq: u64,
        /// Routing key.
        key: u64,
        /// Submission criticality.
        crit: Criticality,
    },
    /// A payload stranded on a dead shard's socket re-entered the
    /// pipeline during failover.
    Resent {
        /// Fleet tick.
        tick: u64,
        /// Payload sequence number (unchanged from first submission).
        seq: u64,
        /// Routing key.
        key: u64,
        /// The shard it was stranded on.
        from_shard: usize,
    },
    /// Delivered to a shard's socket.
    Delivered {
        /// Fleet tick.
        tick: u64,
        /// Payload sequence number.
        seq: u64,
        /// Target shard.
        shard: usize,
        /// Zero-based attempt index that succeeded.
        attempt: u32,
    },
    /// An attempt failed; a retry is scheduled.
    Retry {
        /// Fleet tick.
        tick: u64,
        /// Payload sequence number.
        seq: u64,
        /// The shard the attempt targeted.
        shard: usize,
        /// Zero-based attempt index that failed.
        attempt: u32,
        /// Why it failed.
        cause: RetryCause,
        /// When the next attempt runs.
        due: u64,
    },
    /// Shed under backpressure (terminal, with reason).
    Shed {
        /// Fleet tick.
        tick: u64,
        /// Payload sequence number.
        seq: u64,
        /// The overloaded shard.
        shard: usize,
        /// The submission's criticality (low criticality sheds first).
        crit: Criticality,
    },
    /// Terminal failure.
    Failed {
        /// Fleet tick.
        tick: u64,
        /// Payload sequence number.
        seq: u64,
        /// Why.
        reason: FailReason,
    },
    /// A circuit-breaker transition on a shard.
    Breaker {
        /// Fleet tick.
        tick: u64,
        /// The shard whose breaker moved.
        shard: usize,
        /// The transition.
        transition: BreakerTransition,
    },
}

impl fmt::Display for RouteEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteEvent::Submitted { tick, seq, key, crit } => {
                write!(f, "{tick} submit seq={seq} key={key} crit={}", crit.name())
            }
            RouteEvent::Resent { tick, seq, key, from_shard } => {
                write!(f, "{tick} resend seq={seq} key={key} from=s{from_shard}")
            }
            RouteEvent::Delivered { tick, seq, shard, attempt } => {
                write!(f, "{tick} deliver seq={seq} shard=s{shard} attempt={attempt}")
            }
            RouteEvent::Retry { tick, seq, shard, attempt, cause, due } => {
                let cause = match cause {
                    RetryCause::BreakerOpen => "breaker-open",
                    RetryCause::Unreachable => "unreachable",
                };
                write!(
                    f,
                    "{tick} retry seq={seq} shard=s{shard} attempt={attempt} cause={cause} due={due}"
                )
            }
            RouteEvent::Shed { tick, seq, shard, crit } => {
                write!(f, "{tick} shed seq={seq} shard=s{shard} crit={}", crit.name())
            }
            RouteEvent::Failed { tick, seq, reason } => {
                write!(f, "{tick} fail seq={seq} reason={reason}")
            }
            RouteEvent::Breaker { tick, shard, transition } => {
                let t = match transition {
                    BreakerTransition::Opened => "open",
                    BreakerTransition::Probing => "half-open",
                    BreakerTransition::Closed => "closed",
                };
                write!(f, "{tick} breaker shard=s{shard} state={t}")
            }
        }
    }
}

/// A request waiting for its (re)delivery attempt.
#[derive(Debug, Clone)]
struct Attempt {
    seq: u64,
    key: u64,
    crit: Criticality,
    data: MsgData,
    submit_tick: u64,
    attempt: u32,
}

/// Terminal outcomes the fleet learns from [`Router::process`].
#[derive(Debug, Default)]
pub struct ProcessResult {
    /// Datagrams to enqueue on shard sockets this tick.
    pub deliveries: Vec<Delivery>,
    /// Requests shed under backpressure: `(seq, shard, criticality)`.
    pub shed: Vec<(u64, usize, Criticality)>,
    /// Requests that terminally failed: `(seq, reason)`.
    pub failed: Vec<(u64, FailReason)>,
}

/// The retrying, circuit-breaking, load-shedding client router.
#[derive(Debug)]
pub struct Router {
    policy: RouterPolicy,
    seed: u64,
    ring: HashRing,
    breakers: Vec<CircuitBreaker>,
    due: BTreeMap<u64, Vec<Attempt>>,
    trace: Vec<RouteEvent>,
    tracer: Option<RouterTracer>,
}

impl Router {
    /// A router over `n_shards` shards. `seed` fixes the ring layout
    /// and all retry jitter.
    #[must_use]
    pub fn new(n_shards: usize, seed: u64, policy: RouterPolicy) -> Router {
        Router {
            breakers: (0..n_shards)
                .map(|_| CircuitBreaker::new(policy.breaker_threshold, policy.breaker_cooldown))
                .collect(),
            ring: HashRing::new(n_shards, seed),
            policy,
            seed,
            due: BTreeMap::new(),
            trace: Vec::new(),
            tracer: None,
        }
    }

    /// Attaches causal tracing: every routing episode becomes a
    /// fleet-domain `Route` span with `Retry`/`Breaker` instants.
    pub(crate) fn attach_tracer(&mut self, collector: Arc<TraceCollector>) {
        self.tracer = Some(RouterTracer::new(collector));
    }

    /// The closed route span a delivery of `seq` came from (the
    /// cross-domain parent of the shard-side enqueue span).
    pub(crate) fn route_parent(&self, seq: u64) -> Option<SpanId> {
        self.tracer.as_ref().and_then(|t| t.route_parent(seq))
    }

    /// The placement ring (shared view; the fleet marks deaths through
    /// [`Router::mark_dead`]).
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Fences `shard` out of the ring: its keys remap to their
    /// clockwise successors.
    pub fn mark_dead(&mut self, shard: usize) {
        self.ring.mark_dead(shard);
    }

    /// Accepts a fresh client submission at `now`.
    pub fn submit(&mut self, now: u64, seq: u64, key: u64, crit: Criticality, data: MsgData) {
        self.trace.push(RouteEvent::Submitted { tick: now, seq, key, crit });
        if let Some(t) = self.tracer.as_mut() {
            t.on_submit(seq, now);
        }
        self.enqueue(now, Attempt { seq, key, crit, data, submit_tick: now, attempt: 0 });
    }

    /// Re-enters a payload stranded on a dead shard's socket. The
    /// request keeps its sequence number but gets a fresh deadline —
    /// the original delivery *did* succeed; this is a new delivery of
    /// the same payload to the successor.
    pub fn resend(
        &mut self,
        now: u64,
        seq: u64,
        key: u64,
        crit: Criticality,
        data: MsgData,
        from_shard: usize,
    ) {
        self.trace.push(RouteEvent::Resent { tick: now, seq, key, from_shard });
        if let Some(t) = self.tracer.as_mut() {
            t.on_resend(seq, now, from_shard as u64);
        }
        self.enqueue(now, Attempt { seq, key, crit, data, submit_tick: now, attempt: 0 });
    }

    /// Runs every attempt due at or before `now` against the current
    /// shard status snapshot.
    pub fn process(&mut self, now: u64, status: &[ShardStatus]) -> ProcessResult {
        let mut out = ProcessResult::default();
        while let Some((&due, _)) = self.due.first_key_value() {
            if due > now {
                break;
            }
            let batch = self.due.remove(&due).unwrap_or_default();
            for attempt in batch {
                self.decide(now, attempt, status, &mut out);
            }
        }
        out
    }

    /// Are there no scheduled attempts left?
    #[must_use]
    pub fn idle(&self) -> bool {
        self.due.is_empty()
    }

    /// The full routing decision trace, in decision order.
    #[must_use]
    pub fn events(&self) -> &[RouteEvent] {
        &self.trace
    }

    /// The trace rendered one line per event — the byte-identity
    /// witness for the determinism property tests.
    #[must_use]
    pub fn render_trace(&self) -> String {
        let mut s = String::new();
        for e in &self.trace {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }

    fn enqueue(&mut self, due: u64, attempt: Attempt) {
        self.due.entry(due).or_default().push(attempt);
    }

    fn decide(&mut self, now: u64, a: Attempt, status: &[ShardStatus], out: &mut ProcessResult) {
        if now > a.submit_tick + self.policy.deadline_ticks {
            self.fail(now, a.seq, FailReason::DeadlineExceeded, out);
            return;
        }
        let Some(shard) = self.ring.route(a.key) else {
            self.fail(now, a.seq, FailReason::NoAliveShard, out);
            return;
        };
        let (admitted, transition) = self.breakers[shard].admit(now);
        if let Some(t) = transition {
            self.trace.push(RouteEvent::Breaker { tick: now, shard, transition: t });
            self.trace_breaker(now, shard, t);
        }
        if !admitted {
            self.retry(now, a, shard, RetryCause::BreakerOpen, out);
            return;
        }
        let st = status.get(shard).copied().unwrap_or(ShardStatus { reachable: false, depth: 0 });
        let shed_depth = match a.crit {
            Criticality::Lo => self.policy.shed_lo_depth,
            Criticality::Hi => self.policy.shed_hi_depth,
        };
        if st.reachable && st.depth >= shed_depth {
            self.trace.push(RouteEvent::Shed { tick: now, seq: a.seq, shard, crit: a.crit });
            if let Some(t) = self.tracer.as_mut() {
                t.on_shed(a.seq, shard as u64, now);
            }
            out.shed.push((a.seq, shard, a.crit));
            return;
        }
        if !st.reachable {
            if let Some(t) = self.breakers[shard].record_failure(now) {
                self.trace.push(RouteEvent::Breaker { tick: now, shard, transition: t });
                self.trace_breaker(now, shard, t);
            }
            self.retry(now, a, shard, RetryCause::Unreachable, out);
            return;
        }
        if let Some(t) = self.breakers[shard].record_success() {
            self.trace.push(RouteEvent::Breaker { tick: now, shard, transition: t });
            self.trace_breaker(now, shard, t);
        }
        self.trace.push(RouteEvent::Delivered {
            tick: now,
            seq: a.seq,
            shard,
            attempt: a.attempt,
        });
        if let Some(t) = self.tracer.as_mut() {
            t.on_delivered(a.seq, shard as u64, u64::from(a.attempt), now);
        }
        out.deliveries.push(Delivery { shard, seq: a.seq, key: a.key, data: a.data });
    }

    fn trace_breaker(&mut self, now: u64, shard: usize, transition: BreakerTransition) {
        if let Some(t) = self.tracer.as_mut() {
            let state = match transition {
                BreakerTransition::Opened => 0,
                BreakerTransition::Probing => 1,
                BreakerTransition::Closed => 2,
            };
            t.on_breaker(shard as u64, state, now);
        }
    }

    fn retry(
        &mut self,
        now: u64,
        a: Attempt,
        shard: usize,
        cause: RetryCause,
        out: &mut ProcessResult,
    ) {
        let next = a.attempt + 1;
        if next >= self.policy.max_attempts {
            self.fail(now, a.seq, FailReason::AttemptsExhausted, out);
            return;
        }
        let backoff = self.policy.backoff.backoff_for(a.attempt).ticks();
        let jitter = splitmix64(self.seed ^ splitmix64(a.seq).rotate_left(17) ^ u64::from(a.attempt))
            % (self.policy.jitter_ticks + 1);
        let due = now.saturating_add(1).saturating_add(backoff).saturating_add(jitter);
        if due > a.submit_tick + self.policy.deadline_ticks {
            self.fail(now, a.seq, FailReason::DeadlineExceeded, out);
            return;
        }
        self.trace.push(RouteEvent::Retry {
            tick: now,
            seq: a.seq,
            shard,
            attempt: a.attempt,
            cause,
            due,
        });
        if let Some(t) = self.tracer.as_mut() {
            t.on_retry(a.seq, shard as u64, u64::from(a.attempt), due, now);
        }
        self.enqueue(due, Attempt { attempt: next, ..a });
    }

    fn fail(&mut self, now: u64, seq: u64, reason: FailReason, out: &mut ProcessResult) {
        self.trace.push(RouteEvent::Failed { tick: now, seq, reason });
        if let Some(t) = self.tracer.as_mut() {
            let code = match reason {
                FailReason::DeadlineExceeded => 0,
                FailReason::AttemptsExhausted => 1,
                FailReason::NoAliveShard => 2,
            };
            t.on_failed(seq, code, now);
        }
        out.failed.push((seq, reason));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(n: usize) -> Vec<ShardStatus> {
        vec![ShardStatus { reachable: true, depth: 0 }; n]
    }

    #[test]
    fn delivers_on_first_attempt_when_healthy() {
        let mut r = Router::new(3, 1, RouterPolicy::default());
        r.submit(0, 7, 42, Criticality::Hi, vec![1, 2]);
        let res = r.process(0, &healthy(3));
        assert_eq!(res.deliveries.len(), 1);
        assert_eq!(res.deliveries[0].seq, 7);
        assert!(r.idle());
    }

    #[test]
    fn unreachable_shard_costs_retries_then_fails_typed() {
        let policy = RouterPolicy { max_attempts: 3, ..RouterPolicy::default() };
        let mut r = Router::new(1, 5, policy);
        r.submit(0, 1, 0, Criticality::Hi, vec![0]);
        let down = vec![ShardStatus { reachable: false, depth: 0 }];
        let mut failed = Vec::new();
        for tick in 0..256 {
            let res = r.process(tick, &down);
            failed.extend(res.failed);
            if r.idle() {
                break;
            }
        }
        assert_eq!(failed, vec![(1, FailReason::AttemptsExhausted)]);
    }

    #[test]
    fn low_criticality_sheds_before_high() {
        let policy =
            RouterPolicy { shed_lo_depth: 4, shed_hi_depth: 8, ..RouterPolicy::default() };
        let mut r = Router::new(1, 5, policy);
        r.submit(0, 1, 0, Criticality::Lo, vec![0]);
        r.submit(0, 2, 0, Criticality::Hi, vec![0]);
        let busy = vec![ShardStatus { reachable: true, depth: 5 }];
        let res = r.process(0, &busy);
        assert_eq!(res.shed, vec![(1, 0, Criticality::Lo)]);
        assert_eq!(res.deliveries.len(), 1);
        assert_eq!(res.deliveries[0].seq, 2);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures() {
        let policy = RouterPolicy {
            breaker_threshold: 2,
            max_attempts: 8,
            deadline_ticks: 500,
            ..RouterPolicy::default()
        };
        let mut r = Router::new(1, 5, policy);
        r.submit(0, 1, 0, Criticality::Hi, vec![0]);
        let down = vec![ShardStatus { reachable: false, depth: 0 }];
        for tick in 0..64 {
            r.process(tick, &down);
        }
        assert!(r
            .events()
            .iter()
            .any(|e| matches!(e, RouteEvent::Breaker { transition: BreakerTransition::Opened, .. })));
        assert!(r
            .events()
            .iter()
            .any(|e| matches!(e, RouteEvent::Retry { cause: RetryCause::BreakerOpen, .. })));
    }
}
