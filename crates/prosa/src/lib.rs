//! Response-time analysis for Rössl, after Prosa and aRSA (§4 of the
//! paper).
//!
//! This crate is the analytical half of the RefinedProsa reproduction. The
//! original builds on Prosa's mechanized schedulability theory and the
//! abstract restricted-supply analysis (aRSA); here the same pipeline is an
//! ordinary — but thoroughly tested — Rust library:
//!
//! * [`ReleaseCurve`] — arrival curves shifted by release jitter (§4.3):
//!   `β_i(Δ) = α_i(Δ + J_i)` for `Δ > 0`. Release jitter restores
//!   priority-policy compliance and work conservation for Rössl's
//!   implementation-level lag between arrival and visibility.
//! * [`max_release_jitter`] — Def. 4.3: `J = 1 + max(PB + SB + DB, IB)`.
//! * [`BlackoutBound`] / [`RosslSupply`] — the supply bound function of
//!   §4.4: overheads are modelled as blackout, bounded per interval by
//!   attributing each overhead to a job and bounding the jobs in the
//!   interval; `SBF(Δ) = max_{0 ≤ δ ≤ Δ}(δ − BlackoutBound(δ))` is
//!   monotone by construction.
//! * [`npfp_response_time`] — the busy-window/fixed-point solver for
//!   non-preemptive fixed-priority scheduling on restricted supply,
//!   parametric in the supply model. With [`IdealSupply`] and zero jitter
//!   it degenerates to the classical overhead-oblivious NPFP RTA — the
//!   baseline the experiments compare against. It is the LO-mode
//!   instance of the crate's one recurrence, which is also parametric in
//!   the criticality mode: [`analyse_amc`]'s three per-mode bounds are
//!   its LO- and HI-mode instances on the same supply.
//! * [`analyse`] — the end-to-end analysis of a Rössl configuration:
//!   per-task bounds `R_i` (w.r.t. the release sequence) and `R_i + J_i`
//!   (w.r.t. the arrival sequence, Thm. 4.2).
//!
//! # Examples
//!
//! ```
//! use prosa::{analyse, AnalysisParams};
//! use rossl_model::*;
//!
//! let tasks = TaskSet::new(vec![
//!     Task::new(TaskId(0), "telemetry", Priority(1), Duration(40),
//!               Curve::sporadic(Duration(1_000))),
//!     Task::new(TaskId(1), "safety", Priority(9), Duration(10),
//!               Curve::sporadic(Duration(500))),
//! ])?;
//! let params = AnalysisParams::new(tasks, WcetTable::example(), 1)?;
//! let result = analyse(&params, Duration(100_000))?;
//! let safety = result.bound_for(TaskId(1)).unwrap();
//! // The final bound offsets the aRSA bound by the release jitter.
//! assert_eq!(safety.total_bound(), safety.response_bound + safety.jitter);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod amc;
mod analysis;
mod blackout;
mod curves;
mod incremental;
mod sbf;
mod schedulability;
mod solver;

pub use amc::{
    analyse_amc, analyse_static_hi, check_amc_schedulability, AmcResult, ModeBound,
};
pub use analysis::{
    analyse, analyse_baseline, analyse_tight, term_allowances, AnalysisParams, AnalysisResult,
    RtaError, TaskBound, TermAllowances,
};
pub use blackout::BlackoutBound;
pub use curves::{max_release_jitter, rbf, ReleaseCurve};
pub use incremental::{
    curve_fingerprint, memo_insert, set_fingerprint, IncrementalSolver, SolverStats, MEMO_CAPACITY,
};
pub use sbf::{IdealSupply, RosslSupply, SupplyBound};
pub use schedulability::{breakdown_scale, check_schedulability, scale_wcets, Schedulability, TaskVerdict};
pub use solver::{busy_window_length, npfp_response_time, npfp_response_time_uncached, SolverError};
