//! Timed traces and the virtual-clock simulator (§2.3 of the paper).
//!
//! The RefinedC half of RefinedProsa reasons about *untimed* marker traces;
//! time enters the verification afterwards, as a list of timestamps `ts`
//! (one per marker) that is **assumed** to satisfy the WCET bounds of the
//! basic actions and to be consistent with the arrival sequence (Def. 2.1).
//! This crate provides both directions of that story:
//!
//! * **Checking** — given any [`TimedTrace`], [`check_wcet_compliance`]
//!   verifies the WCET assumptions of §2.3 and [`check_consistency`]
//!   verifies Def. 2.1 against an arrival sequence. These checkers give the
//!   paper's *assumptions* executable teeth: any run the simulator (or a
//!   fault-injected variant) produces is audited against exactly the
//!   hypotheses of Thm. 5.1.
//!
//! * **Producing** — [`Simulator`] drives the real [`rossl::Scheduler`]
//!   against the [`rossl_sockets::SocketSet`] substrate under a virtual
//!   clock, with per-segment durations drawn from a pluggable [`CostModel`]
//!   (always within the WCET table — the paper's "all executions where the
//!   actual run times ... stay below their WCETs"). The result is a timed
//!   trace plus per-job arrival/completion bookkeeping from which measured
//!   response times are extracted — the experimental counterpart of the
//!   response-time *bounds* computed by the `prosa` crate.
//!
//! * **Workloads** — [`workload`] generates arrival sequences (periodic,
//!   sporadic-random, bursty) that provably respect the task set's arrival
//!   curves, reproducing the environments the paper quantifies over.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod consistency;
mod cost;
mod simulator;
pub mod textio;
mod timed_trace;
mod wcet_check;
pub mod workload;

pub use consistency::{check_consistency, ConsistencyCheck, ConsistencyError};
pub use cost::{CostModel, FixedFraction, Segment, UniformCost, WorstCase};
pub use simulator::{JobRecord, SimulationError, SimulationResult, Simulator};
pub use timed_trace::{TimedTrace, TimedTraceError};
pub use wcet_check::{check_action_wcet, check_wcet_compliance, WcetViolation};
