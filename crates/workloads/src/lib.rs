//! Synthetic workload generation and incremental admission control.
//!
//! Two halves, one determinism contract:
//!
//! * **Generation** ([`generator`], [`uunifast`](mod@uunifast), [`weibull`]) — draws
//!   task sets the way the RTA evaluation literature does: per-task
//!   utilizations from UUniFast's uniform simplex sampler, log-uniform
//!   periods, Weibull-inflated HI budgets, and periodic / sporadic /
//!   bursty arrival families. Every output passes through the
//!   [`generator::WorkloadSpec::sanitize`] chokepoint (the fuzzer's
//!   architecture), so lowering to a `rossl-model` [`rossl_model::TaskSet`]
//!   is infallible, and everything is a deterministic function of a
//!   [`SplitRng`] seed.
//! * **Admission** ([`admission`]) — an online admission controller
//!   that answers add/remove/update queries against the generated (or
//!   any other) task sets using `prosa`'s incremental solver, with the
//!   design-time/run-time split: full fixed-point analysis on cache
//!   misses, memoized verdicts on the warm path.
//!
//! The fuzzer (`rossl-fuzz`) builds on this crate: it re-exports
//! [`SplitRng`] and seeds its corpus from [`generator`] output.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod admission;
pub mod generator;
pub mod rng;
pub mod uunifast;
pub mod weibull;

pub use admission::{
    scratch_verdict, AdmissionController, AdmissionStats, Delta, Rejection, TaskRequest, Verdict,
};
pub use generator::{arrival_times, generate, ArrivalFamily, GeneratorConfig, TaskGenSpec, WorkloadSpec};
pub use rng::SplitRng;
pub use uunifast::uunifast;
pub use weibull::Weibull;
