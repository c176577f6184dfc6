//! Causal tracing: spans with parent links on deterministic tick
//! clocks, a bounded collector, a well-formedness checker and a Chrome
//! trace-event exporter (DESIGN §11).
//!
//! A *trace* follows one fleet request end to end: the router's routing
//! decision, retries and breaker transitions on the fleet clock, then
//! the shard-side life of the job it became — enqueue (delivery to
//! `ReadEnd`), dispatch wait, execution — on that shard's local clock,
//! plus journal commits and, across a failover, the successor shard's
//! replayed continuation. Spans therefore live in an explicit
//! [`ClockDomain`]; instants from different domains are never compared.
//!
//! The collector is a bounded ring of closed spans with a displacement
//! counter, so tracing can stay attached to a long campaign without
//! growing without bound, and truncation is visible rather than silent.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Counter;

/// Identifies one causally-related request trace. The fleet derives it
/// deterministically from the request's sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The reserved trace for system activity that belongs to no single
    /// request: breaker transitions, heartbeats, migration summaries.
    pub const SYSTEM: TraceId = TraceId(u64::MAX);
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TraceId::SYSTEM {
            f.write_str("system")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

/// Identifies one span within a collector, unique across traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The clock a span's `start`/`end` ticks are read from. Shard-local
/// clocks advance independently (per-marker costs), so instants are
/// only comparable within one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockDomain {
    /// The fleet supervisor's tick clock (router, health checks).
    Fleet,
    /// Shard `n`'s local marker-cost clock.
    Shard(usize),
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockDomain::Fleet => f.write_str("fleet"),
            ClockDomain::Shard(s) => write!(f, "shard{s}"),
        }
    }
}

/// What a span measures. The request-phase kinds (`Enqueue`,
/// `DispatchWait`, `Execute`) partition a job's observed response time;
/// the attribution engine (`crate::attribution`) relies on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Router: submission to terminal routing outcome (fleet clock).
    Route,
    /// Router: one scheduled retry attempt (instant, child of `Route`).
    Retry,
    /// Router: a circuit-breaker transition (system trace, instant).
    Breaker,
    /// Shard: delivery on a socket until the `ReadEnd` commit — the
    /// observable release jitter.
    Enqueue,
    /// Shard: `ReadEnd` commit until the `Dispatch` commit — the wait
    /// window the recurrence's interference/blocking terms bound.
    DispatchWait,
    /// Shard: `Dispatch` commit until the `Completion` commit — own
    /// execution plus the completion action.
    Execute,
    /// Shard: a mode-switch suspension charged by the scheduler.
    Suspension,
    /// Shard: a journal append of a request-relevant marker (instant).
    JournalAppend,
    /// Shard: the journal commit sealing that append (instant).
    JournalCommit,
    /// Fleet: a health-check heartbeat observation (system trace).
    Heartbeat,
    /// Fleet: one failover's journal-replay migration window.
    Migrate,
}

impl SpanKind {
    /// Stable lower-case name, used by exporters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Route => "route",
            SpanKind::Retry => "retry",
            SpanKind::Breaker => "breaker",
            SpanKind::Enqueue => "enqueue",
            SpanKind::DispatchWait => "dispatch-wait",
            SpanKind::Execute => "execute",
            SpanKind::Suspension => "suspension",
            SpanKind::JournalAppend => "journal-append",
            SpanKind::JournalCommit => "journal-commit",
            SpanKind::Heartbeat => "heartbeat",
            SpanKind::Migrate => "migrate",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded span: a `[start, end]` window on one clock domain,
/// causally placed by its parent link and (optionally) a cross-domain
/// causal link (migration seams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// Collector-unique id.
    pub id: SpanId,
    /// The causally enclosing span, if any (may live in another
    /// domain — e.g. a shard `Enqueue` under a fleet `Route`).
    pub parent: Option<SpanId>,
    /// A causal predecessor in the *same trace* but another domain:
    /// a migrated job's successor span links back to the span it
    /// continues on the dead shard.
    pub link: Option<SpanId>,
    /// What the span measures.
    pub kind: SpanKind,
    /// The clock its instants are read from.
    pub domain: ClockDomain,
    /// Opening instant (domain ticks).
    pub start: u64,
    /// Closing instant (domain ticks); `>= start` once closed.
    pub end: u64,
    /// `true` when the span was still open at run end and was stamped
    /// by [`TraceCollector::finish`] rather than closed by its emitter.
    pub truncated: bool,
    /// Small numeric annotations (task, priority, seq, byte offsets…).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's length in domain ticks (0 for instants).
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// `true` iff the span is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first annotation under `key`, if any.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

#[derive(Debug, Default)]
struct CollectorInner {
    open: Vec<Span>,
    closed: VecDeque<Span>,
}

/// A bounded concurrent span collector: open spans are tracked until
/// closed, closed spans sit in a ring of capacity `cap` (oldest
/// displaced first, counted). Span ids are allocated from a single
/// atomic counter, so a single-threaded drive records deterministically.
#[derive(Debug)]
pub struct TraceCollector {
    inner: Mutex<CollectorInner>,
    next: AtomicU64,
    cap: usize,
    recorded: Counter,
    displaced: Counter,
}

/// Default closed-span ring capacity.
pub const DEFAULT_TRACE_CAP: usize = 16 * 1024;

impl Default for TraceCollector {
    fn default() -> TraceCollector {
        TraceCollector::new(DEFAULT_TRACE_CAP)
    }
}

impl TraceCollector {
    /// A collector keeping at most `cap` closed spans.
    pub fn new(cap: usize) -> TraceCollector {
        TraceCollector {
            inner: Mutex::new(CollectorInner::default()),
            next: AtomicU64::new(0),
            cap: cap.max(1),
            recorded: Counter::new(),
            displaced: Counter::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CollectorInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span at `start` and returns its id.
    pub fn start(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: SpanKind,
        domain: ClockDomain,
        start: u64,
    ) -> SpanId {
        let id = SpanId(self.next.fetch_add(1, Ordering::Relaxed));
        self.lock().open.push(Span {
            trace,
            id,
            parent,
            link: None,
            kind,
            domain,
            start,
            end: start,
            truncated: false,
            args: Vec::new(),
        });
        id
    }

    /// Records an already-closed (possibly zero-length) span.
    pub fn instant(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: SpanKind,
        domain: ClockDomain,
        at: u64,
        args: &[(&'static str, u64)],
    ) -> SpanId {
        let id = self.start(trace, parent, kind, domain, at);
        for &(k, v) in args {
            self.annotate(id, k, v);
        }
        self.end(id, at);
        id
    }

    /// Adds a numeric annotation to an open span (no-op once closed).
    pub fn annotate(&self, id: SpanId, key: &'static str, value: u64) {
        let mut inner = self.lock();
        if let Some(s) = inner.open.iter_mut().find(|s| s.id == id) {
            s.args.push((key, value));
        }
    }

    /// Links an open span to its causal predecessor `target` (same
    /// trace, another clock domain — the migration seam).
    pub fn link(&self, id: SpanId, target: SpanId) {
        let mut inner = self.lock();
        if let Some(s) = inner.open.iter_mut().find(|s| s.id == id) {
            s.link = Some(target);
        }
    }

    fn push_closed(inner: &mut CollectorInner, cap: usize, span: Span, displaced: &Counter) {
        if inner.closed.len() == cap {
            inner.closed.pop_front();
            displaced.inc();
        }
        inner.closed.push_back(span);
    }

    /// Closes span `id` at `end`. Unknown ids are ignored (the span may
    /// have been displaced or double-closed by a crashing emitter).
    pub fn end(&self, id: SpanId, end: u64) {
        let mut inner = self.lock();
        if let Some(pos) = inner.open.iter().position(|s| s.id == id) {
            let mut span = inner.open.swap_remove(pos);
            span.end = span.start.max(end);
            self.recorded.inc();
            TraceCollector::push_closed(&mut inner, self.cap, span, &self.displaced);
        }
    }

    /// Closes every still-open span as *truncated*, stamping its end
    /// from `end_of(domain)` — the final clock reading of the span's
    /// domain. Call once when the run stops.
    pub fn finish(&self, end_of: impl Fn(&ClockDomain) -> u64) {
        let mut inner = self.lock();
        for mut span in std::mem::take(&mut inner.open) {
            span.end = span.start.max(end_of(&span.domain));
            span.truncated = true;
            self.recorded.inc();
            TraceCollector::push_closed(&mut inner, self.cap, span, &self.displaced);
        }
    }

    /// Removes and returns every closed span, oldest first.
    pub fn drain(&self) -> Vec<Span> {
        self.lock().closed.drain(..).collect()
    }

    /// Spans closed so far (including truncated ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Closed spans displaced from the ring so far.
    pub fn displaced(&self) -> u64 {
        self.displaced.get()
    }

    /// Spans currently open.
    pub fn open_count(&self) -> usize {
        self.lock().open.len()
    }
}

// ---------------------------------------------------------------------
// Well-formedness
// ---------------------------------------------------------------------

/// One violation of trace well-formedness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDefect {
    /// A span closed before it opened (`end < start`) — clock ran
    /// backwards or the emitter mixed domains.
    EndBeforeStart {
        /// The offending span.
        span: SpanId,
    },
    /// A span names a parent that is nowhere in its trace.
    MissingParent {
        /// The child span.
        span: SpanId,
        /// The absent parent id.
        parent: SpanId,
    },
    /// A child escapes its same-domain parent's window.
    NestingViolation {
        /// The child span.
        span: SpanId,
        /// Its parent.
        parent: SpanId,
    },
    /// Adjacent request phases disagree on their shared boundary
    /// (e.g. `enqueue.end != dispatch_wait.start`).
    PhaseMismatch {
        /// The trace whose phases disagree.
        trace: TraceId,
        /// The earlier phase.
        earlier: SpanKind,
        /// The later phase.
        later: SpanKind,
    },
    /// A phase span was left open (truncated at run end) even though a
    /// successor phase started — its emitter forgot to close it.
    OrphanPhase {
        /// The trace carrying the orphan.
        trace: TraceId,
        /// The orphaned (truncated) phase.
        kind: SpanKind,
    },
    /// A causal link names a span that is nowhere in the same trace.
    DanglingLink {
        /// The linking span.
        span: SpanId,
        /// The absent link target.
        target: SpanId,
    },
}

impl fmt::Display for TraceDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDefect::EndBeforeStart { span } => write!(f, "{span}: end before start"),
            TraceDefect::MissingParent { span, parent } => {
                write!(f, "{span}: parent {parent} missing from trace")
            }
            TraceDefect::NestingViolation { span, parent } => {
                write!(f, "{span}: escapes parent {parent}'s window")
            }
            TraceDefect::PhaseMismatch { trace, earlier, later } => {
                write!(f, "{trace}: {earlier} does not hand off to {later} at one instant")
            }
            TraceDefect::OrphanPhase { trace, kind } => {
                write!(f, "{trace}: {kind} span left open after its successor phase began")
            }
            TraceDefect::DanglingLink { span, target } => {
                write!(f, "{span}: causal link to missing span {target}")
            }
        }
    }
}

/// The result of checking a drained trace set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Distinct traces seen (including the system trace).
    pub traces: usize,
    /// Spans checked.
    pub spans: usize,
    /// All violations found (empty iff well-formed).
    pub defects: Vec<TraceDefect>,
}

impl TraceCheck {
    /// `true` iff no defect was found.
    pub fn is_ok(&self) -> bool {
        self.defects.is_empty()
    }
}

/// Checks the structural invariants of a drained span set:
///
/// 1. every span is closed with `end >= start`;
/// 2. parent links resolve within the trace, and a child in the *same*
///    clock domain as its parent stays inside the parent's window;
/// 3. request phases hand off exactly: within one `(trace, domain)`,
///    `enqueue.end == first wait.start` and each `execute.start` equals
///    the latest preceding `wait.end` (the attribution engine's
///    exactness rests on this);
/// 4. a truncated `Enqueue`/`DispatchWait` with a live successor phase
///    in the same domain is an orphan — its emitter skipped the close;
/// 5. causal links resolve within the trace.
///
/// Pass the collector's [`displaced`](TraceCollector::displaced) count:
/// once spans have been displaced, missing-parent/link and phase checks
/// are skipped (their counterpart may simply have fallen out of the
/// ring), while per-span and nesting checks still run.
pub fn check_trace(spans: &[Span], displaced: u64) -> TraceCheck {
    let mut defects = Vec::new();
    let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let complete = displaced == 0;

    for s in spans {
        if s.end < s.start {
            defects.push(TraceDefect::EndBeforeStart { span: s.id });
        }
        if let Some(pid) = s.parent {
            match by_id.get(&pid) {
                None if complete => {
                    defects.push(TraceDefect::MissingParent { span: s.id, parent: pid });
                }
                Some(p)
                    if p.domain == s.domain
                        && !p.truncated
                        && !s.truncated
                        && (s.start < p.start || s.end > p.end) =>
                {
                    defects.push(TraceDefect::NestingViolation { span: s.id, parent: pid });
                }
                _ => {}
            }
        }
        if let Some(target) = s.link {
            let ok = by_id.get(&target).is_some_and(|t| t.trace == s.trace);
            if complete && !ok {
                defects.push(TraceDefect::DanglingLink { span: s.id, target });
            }
        }
    }

    // Phase handoff per (trace, domain).
    let mut groups: HashMap<(TraceId, ClockDomain), Vec<&Span>> = HashMap::new();
    for s in spans {
        if matches!(s.kind, SpanKind::Enqueue | SpanKind::DispatchWait | SpanKind::Execute) {
            groups.entry((s.trace, s.domain)).or_default().push(s);
        }
    }
    let traces: std::collections::HashSet<TraceId> = spans.iter().map(|s| s.trace).collect();
    if complete {
        for ((trace, _), mut group) in groups {
            group.sort_by_key(|s| (s.start, s.id));
            let enqueue = group.iter().find(|s| s.kind == SpanKind::Enqueue);
            let waits: Vec<&&Span> =
                group.iter().filter(|s| s.kind == SpanKind::DispatchWait).collect();
            let execs: Vec<&&Span> = group.iter().filter(|s| s.kind == SpanKind::Execute).collect();
            if let (Some(enq), Some(first_wait)) = (enqueue, waits.first()) {
                if enq.truncated {
                    defects.push(TraceDefect::OrphanPhase { trace, kind: SpanKind::Enqueue });
                } else if enq.end != first_wait.start {
                    defects.push(TraceDefect::PhaseMismatch {
                        trace,
                        earlier: SpanKind::Enqueue,
                        later: SpanKind::DispatchWait,
                    });
                }
            }
            for exec in &execs {
                // The wait that handed off to this execution: the last
                // wait opening at or before it.
                let handoff = waits.iter().rev().find(|w| w.start <= exec.start);
                match handoff {
                    Some(w) if w.truncated => {
                        defects
                            .push(TraceDefect::OrphanPhase { trace, kind: SpanKind::DispatchWait });
                    }
                    Some(w) if w.end != exec.start => {
                        defects.push(TraceDefect::PhaseMismatch {
                            trace,
                            earlier: SpanKind::DispatchWait,
                            later: SpanKind::Execute,
                        });
                    }
                    _ => {}
                }
            }
        }
    }

    TraceCheck { traces: traces.len(), spans: spans.len(), defects }
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

fn chrome_pid(domain: &ClockDomain) -> u64 {
    match domain {
        ClockDomain::Fleet => 0,
        ClockDomain::Shard(s) => 1 + *s as u64,
    }
}

/// Renders spans as Chrome trace-event JSON (the `traceEvents` array
/// format Perfetto and `chrome://tracing` load). Each span becomes a
/// complete (`"X"`) event — pid encodes the clock domain, tid the
/// trace — and each causal link becomes a flow (`"s"`/`"f"`) pair
/// across the migration seam.
pub fn render_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&ev);
    };
    let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        let mut args = format!("\"trace\":{},\"span\":{}", s.trace.0, s.id.0);
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":{}", p.0));
        }
        if s.truncated {
            args.push_str(",\"truncated\":1");
        }
        for (k, v) in &s.args {
            args.push_str(&format!(",\"{k}\":{v}"));
        }
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                s.kind.name(),
                s.domain,
                s.start,
                s.len(),
                chrome_pid(&s.domain),
                s.trace.0 & 0x7fff_ffff,
            ),
        );
        if let Some(target) = s.link {
            if let Some(t) = by_id.get(&target) {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"migrate\",\"cat\":\"link\",\"ph\":\"s\",\"id\":{},\
                         \"ts\":{},\"pid\":{},\"tid\":{}}}",
                        s.id.0,
                        t.end,
                        chrome_pid(&t.domain),
                        t.trace.0 & 0x7fff_ffff,
                    ),
                );
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"migrate\",\"cat\":\"link\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                        s.id.0,
                        s.start,
                        chrome_pid(&s.domain),
                        s.trace.0 & 0x7fff_ffff,
                    ),
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// One event parsed back from Chrome trace-event JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// The event name (the span kind for `"X"` events).
    pub name: String,
    /// The phase tag (`"X"`, `"s"`, `"f"`, …).
    pub ph: String,
    /// Timestamp (ticks).
    pub ts: u64,
    /// Duration for complete events.
    pub dur: Option<u64>,
    /// Process id (clock domain).
    pub pid: u64,
    /// Thread id (trace lane).
    pub tid: u64,
}

/// Why parsing a Chrome trace-event file failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChromeParseError {
    /// The document is not syntactically valid JSON.
    Syntax(
        /// Byte offset where parsing failed.
        usize,
    ),
    /// The document parses but lacks a `traceEvents` array.
    NoTraceEvents,
    /// An event is missing a required field or has it at the wrong
    /// type.
    BadEvent(
        /// Index of the offending event.
        usize,
    ),
}

impl fmt::Display for ChromeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChromeParseError::Syntax(at) => write!(f, "invalid JSON at byte {at}"),
            ChromeParseError::NoTraceEvents => f.write_str("no traceEvents array"),
            ChromeParseError::BadEvent(i) => write!(f, "event {i} malformed"),
        }
    }
}

impl std::error::Error for ChromeParseError {}

// A minimal JSON value model — the vendored serde shim is a no-op, so
// the round-trip validation parses by hand.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> JsonParser<'a> {
        JsonParser { bytes: text.as_bytes(), pos: 0 }
    }

    fn err<T>(&self) -> Result<T, ChromeParseError> {
        Err(ChromeParseError::Syntax(self.pos))
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ChromeParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err()
        }
    }

    fn value(&mut self) -> Result<Json, ChromeParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err(),
        }
    }

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, ChromeParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            self.err()
        }
    }

    fn number(&mut self) -> Result<Json, ChromeParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or(ChromeParseError::Syntax(start))
    }

    fn string(&mut self) -> Result<String, ChromeParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err(),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err(),
                            }
                        }
                        _ => return self.err(),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    match self.bytes.get(self.pos..self.pos + len) {
                        Some(chunk) => match std::str::from_utf8(chunk) {
                            Ok(s) => {
                                out.push_str(s);
                                self.pos += len;
                            }
                            Err(_) => return self.err(),
                        },
                        None => return self.err(),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ChromeParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err(),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ChromeParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err(),
            }
        }
    }
}

/// Parses a Chrome trace-event JSON document (as written by
/// [`render_chrome_trace`], but tolerant of any conforming emitter)
/// back into its event list — the serde-free round-trip check CI runs
/// on the exported artifact.
///
/// # Errors
///
/// Returns [`ChromeParseError`] when the document is not valid JSON,
/// lacks a `traceEvents` array, or an event is missing `name`/`ph`/
/// `ts`/`pid`/`tid`.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, ChromeParseError> {
    let mut parser = JsonParser::new(text);
    let doc = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(ChromeParseError::Syntax(parser.pos));
    }
    let events = match &doc {
        // Both container formats are legal: an object with
        // `traceEvents`, or the bare array.
        Json::Arr(items) => items.as_slice(),
        _ => match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items.as_slice(),
            _ => return Err(ChromeParseError::NoTraceEvents),
        },
    };
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let field = |k: &str| ev.get(k).ok_or(ChromeParseError::BadEvent(i));
            Ok(ChromeEvent {
                name: field("name")?.as_str().ok_or(ChromeParseError::BadEvent(i))?.to_string(),
                ph: field("ph")?.as_str().ok_or(ChromeParseError::BadEvent(i))?.to_string(),
                ts: field("ts")?.as_u64().ok_or(ChromeParseError::BadEvent(i))?,
                dur: ev.get("dur").and_then(Json::as_u64),
                pid: field("pid")?.as_u64().ok_or(ChromeParseError::BadEvent(i))?,
                tid: field("tid")?.as_u64().ok_or(ChromeParseError::BadEvent(i))?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> TraceCollector {
        TraceCollector::new(64)
    }

    /// Records a clean three-phase request trace on shard 0, under a
    /// fleet-domain route span.
    fn record_request(c: &TraceCollector, seq: u64) -> TraceId {
        let t = TraceId(seq);
        let route = c.start(t, None, SpanKind::Route, ClockDomain::Fleet, 10);
        let enq = c.start(t, Some(route), SpanKind::Enqueue, ClockDomain::Shard(0), 100);
        c.end(enq, 104);
        let wait = c.start(t, Some(route), SpanKind::DispatchWait, ClockDomain::Shard(0), 104);
        c.end(wait, 110);
        let exec = c.start(t, Some(route), SpanKind::Execute, ClockDomain::Shard(0), 110);
        c.annotate(exec, "task", 1);
        c.end(exec, 115);
        c.end(route, 12);
        t
    }

    #[test]
    fn clean_trace_is_well_formed() {
        let c = collector();
        record_request(&c, 7);
        let spans = c.drain();
        assert_eq!(spans.len(), 4);
        let check = check_trace(&spans, c.displaced());
        assert!(check.is_ok(), "{:?}", check.defects);
        assert_eq!(check.traces, 1);
    }

    #[test]
    fn ring_displaces_and_counts() {
        let c = TraceCollector::new(2);
        for i in 0..4 {
            c.instant(TraceId(i), None, SpanKind::Heartbeat, ClockDomain::Fleet, i, &[]);
        }
        assert_eq!(c.recorded(), 4);
        assert_eq!(c.displaced(), 2);
        assert_eq!(c.drain().len(), 2);
    }

    #[test]
    fn drain_empties_the_ring_but_keeps_the_counters() {
        let c = TraceCollector::new(3);
        for i in 0..5 {
            c.instant(TraceId(i), None, SpanKind::Heartbeat, ClockDomain::Fleet, i, &[]);
        }
        let first: Vec<u64> = c.drain().iter().map(|s| s.id.0).collect();
        assert_eq!(first, vec![2, 3, 4], "the newest spans survive, oldest first");
        assert!(c.drain().is_empty());
        c.instant(TraceId(9), None, SpanKind::Heartbeat, ClockDomain::Fleet, 9, &[]);
        assert_eq!(c.recorded(), 6, "counters are cumulative across drains");
        assert_eq!(c.displaced(), 2);
        assert_eq!(c.drain().len(), 1);
    }

    #[test]
    fn displacement_drops_the_oldest_spans_with_their_args() {
        let c = TraceCollector::new(3);
        let open = c.start(TraceId(0), None, SpanKind::Route, ClockDomain::Fleet, 0);
        c.annotate(open, "outcome", 1);
        for i in 1..5u64 {
            let args: &[(&'static str, u64)] = match i % 3 {
                0 => &[],
                1 => &[("i", i)],
                _ => &[("i", i), ("twice", 2 * i)],
            };
            c.instant(TraceId(i), None, SpanKind::Retry, ClockDomain::Fleet, i, args);
        }
        c.annotate(open, "shard", 2);
        c.end(open, 9);
        let spans = c.drain();
        let got: Vec<(u64, Vec<(&'static str, u64)>)> =
            spans.into_iter().map(|s| (s.id.0, s.args)).collect();
        assert_eq!(
            got,
            vec![
                (3, vec![]),
                (4, vec![("i", 4)]),
                (0, vec![("outcome", 1), ("shard", 2)]),
            ]
        );
        assert_eq!(c.displaced(), 2);
    }

    #[test]
    fn instant_is_one_closed_span_carrying_its_args() {
        let c = collector();
        let open = c.start(TraceId(1), None, SpanKind::Route, ClockDomain::Fleet, 5);
        let id = c.instant(
            TraceId(1),
            Some(open),
            SpanKind::Retry,
            ClockDomain::Fleet,
            7,
            &[("shard", 2), ("attempt", 1), ("shard", 3)],
        );
        assert_eq!(id, SpanId(open.0 + 1), "instants draw ids from the same counter");
        assert_eq!(c.open_count(), 1, "an instant never stays open");
        assert_eq!(c.recorded(), 1);
        let spans = c.drain();
        assert_eq!(
            spans,
            vec![Span {
                trace: TraceId(1),
                id,
                parent: Some(open),
                link: None,
                kind: SpanKind::Retry,
                domain: ClockDomain::Fleet,
                start: 7,
                end: 7,
                truncated: false,
                args: vec![("shard", 2), ("attempt", 1), ("shard", 3)],
            }]
        );
        assert_eq!(spans[0].arg("shard"), Some(2), "the first annotation under a key wins");
    }

    #[test]
    fn annotate_and_link_reach_only_the_named_open_span() {
        let c = collector();
        let a = c.start(TraceId(1), None, SpanKind::Enqueue, ClockDomain::Shard(0), 0);
        let b = c.start(TraceId(2), None, SpanKind::Enqueue, ClockDomain::Shard(0), 1);
        let z = c.start(TraceId(3), None, SpanKind::Enqueue, ClockDomain::Shard(0), 2);
        c.annotate(a, "task", 4);
        c.link(a, SpanId(77));
        c.end(b, 3);
        // A closed or unknown span takes no annotation and no link.
        c.annotate(b, "task", 5);
        c.link(b, SpanId(78));
        c.annotate(SpanId(999), "task", 6);
        c.end(a, 4);
        c.end(z, 5);
        let spans = c.drain();
        let by = |id: SpanId| spans.iter().find(|s| s.id == id).expect("closed span");
        assert_eq!(by(a).args, vec![("task", 4)]);
        assert_eq!(by(a).link, Some(SpanId(77)));
        assert!(by(b).args.is_empty());
        assert_eq!(by(b).link, None);
        assert!(by(z).args.is_empty());
    }

    #[test]
    fn end_closes_the_named_span_once_and_clamps_to_its_start() {
        let c = collector();
        let a = c.start(TraceId(1), None, SpanKind::Execute, ClockDomain::Shard(0), 10);
        let b = c.start(TraceId(1), None, SpanKind::Execute, ClockDomain::Shard(0), 20);
        let z = c.start(TraceId(1), None, SpanKind::Execute, ClockDomain::Shard(0), 30);
        c.end(b, 15); // before its start: clamped to a zero-length span
        c.end(b, 40); // already closed: ignored
        c.end(SpanId(999), 50); // unknown: ignored
        assert_eq!(c.recorded(), 1);
        assert_eq!(c.open_count(), 2);
        c.end(z, 35);
        c.end(a, 12);
        let ends: Vec<(SpanId, u64, u64)> =
            c.drain().iter().map(|s| (s.id, s.start, s.end)).collect();
        assert_eq!(ends, vec![(b, 20, 20), (z, 30, 35), (a, 10, 12)], "ring keeps close order");
    }

    #[test]
    fn finish_closes_the_remaining_spans_in_a_fixed_order() {
        // The exported trace lists spans in ring order, so the order in
        // which `finish` truncates the leftovers must not vary.
        let c = collector();
        let ids: Vec<SpanId> = (0..5)
            .map(|i| c.start(TraceId(i), None, SpanKind::Enqueue, ClockDomain::Shard(0), i))
            .collect();
        c.end(ids[1], 10);
        c.finish(|_| 20);
        assert_eq!(c.open_count(), 0);
        let order: Vec<(u64, bool)> = c.drain().iter().map(|s| (s.id.0, s.truncated)).collect();
        assert_eq!(
            order,
            vec![(1, false), (0, true), (4, true), (2, true), (3, true)],
            "closing a span moves the newest open span into its slot"
        );
    }

    #[test]
    fn finish_truncates_open_spans() {
        let c = collector();
        let t = TraceId(1);
        c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(2), 50);
        c.finish(|d| match d {
            ClockDomain::Shard(2) => 80,
            _ => 0,
        });
        let spans = c.drain();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].truncated);
        assert_eq!(spans[0].end, 80);
        // A truncated enqueue with no successor phase is legitimate.
        assert!(check_trace(&spans, 0).is_ok());
    }

    #[test]
    fn orphan_enqueue_is_flagged() {
        let c = collector();
        let t = TraceId(3);
        // Enqueue never closed, but the wait phase began: the emitter
        // skipped the close — exactly `SeededBug::OrphanSpan`.
        c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(0), 100);
        let wait = c.start(t, None, SpanKind::DispatchWait, ClockDomain::Shard(0), 104);
        c.end(wait, 110);
        c.finish(|_| 200);
        let spans = c.drain();
        let check = check_trace(&spans, 0);
        assert!(check
            .defects
            .iter()
            .any(|d| matches!(d, TraceDefect::OrphanPhase { kind: SpanKind::Enqueue, .. })));
    }

    #[test]
    fn phase_mismatch_is_flagged() {
        let c = collector();
        let t = TraceId(4);
        let enq = c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(0), 100);
        c.end(enq, 103); // should hand off at 104
        let wait = c.start(t, None, SpanKind::DispatchWait, ClockDomain::Shard(0), 104);
        c.end(wait, 110);
        let spans = c.drain();
        let check = check_trace(&spans, 0);
        assert!(check
            .defects
            .iter()
            .any(|d| matches!(d, TraceDefect::PhaseMismatch { .. })));
    }

    #[test]
    fn nesting_and_links_are_checked() {
        let c = collector();
        let t = TraceId(5);
        let parent = c.start(t, None, SpanKind::Route, ClockDomain::Fleet, 10);
        let child = c.start(t, Some(parent), SpanKind::Retry, ClockDomain::Fleet, 8);
        c.end(child, 9);
        c.end(parent, 20);
        let spans = c.drain();
        let check = check_trace(&spans, 0);
        assert!(check
            .defects
            .iter()
            .any(|d| matches!(d, TraceDefect::NestingViolation { .. })));

        // Dangling link.
        let c = collector();
        let s = c.start(TraceId(6), None, SpanKind::Enqueue, ClockDomain::Shard(1), 0);
        c.link(s, SpanId(999));
        c.end(s, 1);
        let spans = c.drain();
        assert!(check_trace(&spans, 0)
            .defects
            .iter()
            .any(|d| matches!(d, TraceDefect::DanglingLink { .. })));
        // …but with displacement the link target may have been evicted.
        assert!(check_trace(&spans, 3).is_ok());
    }

    #[test]
    fn chrome_round_trip() {
        let c = collector();
        record_request(&c, 9);
        // A migration link to exercise flow events.
        let t = TraceId(9);
        let dead = c.start(t, None, SpanKind::DispatchWait, ClockDomain::Shard(0), 120);
        c.end(dead, 130);
        let succ = c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(1), 40);
        c.link(succ, dead);
        c.end(succ, 40);
        let spans = c.drain();
        let json = render_chrome_trace(&spans);
        let events = parse_chrome_trace(&json).expect("round trip");
        // 6 spans -> 6 X events + 1 flow pair.
        assert_eq!(events.len(), spans.len() + 2);
        assert_eq!(events.iter().filter(|e| e.ph == "X").count(), spans.len());
        assert_eq!(events.iter().filter(|e| e.ph == "s").count(), 1);
        assert_eq!(events.iter().filter(|e| e.ph == "f").count(), 1);
        let exec = events.iter().find(|e| e.name == "execute").expect("execute event");
        assert_eq!(exec.dur, Some(5));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"a\":1}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(parse_chrome_trace("[]").map(|v| v.is_empty()).unwrap_or(false));
    }
}
