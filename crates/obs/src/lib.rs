//! `rossl-obs` — runtime telemetry for the RefinedProsa reproduction.
//!
//! The paper proves a per-task response-time bound `R_i` statically
//! (Thm 5.1); this crate is the runtime counterpart that lets a live
//! system be *watched* against those bounds, in the spirit of the
//! measurement-vs-analysis comparisons that the ROS 2 timing-analysis
//! literature uses to validate its models. It is deliberately
//! dependency-free (std only) so any crate in the workspace — the
//! scheduler, the simulator, the fleet — can attach instruments without
//! creating dependency cycles.
//!
//! Four layers (DESIGN §7):
//!
//! - **Metric primitives** ([`Counter`], [`Gauge`], [`HighWater`],
//!   log-linear [`Histogram`]): single atomic words / atomic bucket
//!   arrays. Recording is lock-free and infallible.
//! - **The [`Registry`]**: sharded name → handle map used only at
//!   wiring time; [`Registry::snapshot`] produces a sorted, immutable
//!   [`Snapshot`].
//! - **Semantics on top**: three observers, each with a reader. The
//!   [`BoundObservatory`] compares observed response times against
//!   analytical bounds and raises typed [`BoundViolation`] alerts; the
//!   [`TermObservatory`] does the same per bound term for
//!   [`attribute`]d jobs ([`TermOverrun`]); [`SchedulerMetrics`] fixes
//!   the `sched.*` namespace. The [`TraceCollector`] is the one event
//!   model: causal spans on tick clocks (DESIGN §11).
//! - **Exporters**: [`render_text`], [`render_json`], and the binary
//!   [`encode_snapshot`]/[`decode_snapshot`] codec whose output rides
//!   in the journal's `Telemetry` record kind so metrics survive
//!   crashes alongside markers.
//!
//! The scheduler hot path never touches an atomic per step: it batches
//! plain-integer [`StepCounts`] and flushes through a [`SchedSink`]
//! at quiescent points. With the sink disabled the whole subsystem
//! costs one enum-discriminant branch, which experiment E19 measures.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod attribution;
mod bundles;
mod export;
mod hist;
mod metrics;
mod observatory;
mod registry;
mod trace;

pub use attribution::{attribute, AttributionReport, BoundTerm, JobAttribution};
pub use bundles::{SchedDepths, SchedSink, SchedulerMetrics, StepCounts};
pub use export::{
    decode_snapshot, encode_snapshot, render_json, render_text, SnapshotDecodeError,
    SNAPSHOT_VERSION,
};
pub use hist::{bucket_floor, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{Counter, Gauge, HighWater};
pub use observatory::{
    BoundObservatory, BoundViolation, TermAllowance, TermObservatory, TermOverrun,
};
pub use registry::{MetricSnapshot, MetricValue, Registry, Snapshot};
pub use trace::{
    check_trace, parse_chrome_trace, render_chrome_trace, ChromeEvent, ChromeParseError,
    ClockDomain, Span, SpanId, SpanKind, TraceCheck, TraceCollector, TraceDefect, TraceId,
    DEFAULT_TRACE_CAP,
};
