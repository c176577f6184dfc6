//! Experiment harness for the RefinedProsa reproduction.
//!
//! Each public `exp_*` function regenerates one artifact of the paper
//! (see `DESIGN.md`'s experiment index): it runs the relevant pipeline and
//! returns a human-readable report. The `paper_experiments` binary prints
//! them; `EXPERIMENTS.md` records representative output next to what the
//! paper claims.
//!
//! The functions are ordinary library code so the smoke tests can assert
//! on their reports and the Criterion benches can reuse the setups.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod admission;
pub mod amc;
pub mod crash;
pub mod experiments;
pub mod faults;
pub mod fleet;
pub mod fuzz;
pub mod jitter;
pub mod obs;
pub mod setup;
pub mod tracing;
pub mod verify_bench;

pub use experiments::{
    exp_baseline, exp_curves, exp_fig3, exp_fig5, exp_loc, exp_sbf, exp_thm34, exp_thm51,
    exp_validity,
};
pub use ablation::{exp_ablation, exp_busy_windows, exp_schedulability, exp_sensitivity, exp_tight};
pub use admission::exp_admission;
pub use amc::exp_amc;
pub use crash::exp_crash_recovery;
pub use faults::exp_faults;
pub use fleet::exp_fleet;
pub use fuzz::exp_fuzz;
pub use jitter::exp_fig7;
pub use obs::exp_obs;
pub use tracing::exp_trace;
pub use verify_bench::exp_verify_bench;

/// Serializes the heavyweight experiment smoke tests: they write
/// `BENCH_*.json` artifacts into the crate directory. (The E19/E23
/// overhead smokes run alone, in `tests/overhead_smoke.rs`.)
#[cfg(test)]
pub(crate) fn smoke_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
