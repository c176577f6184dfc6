//! The wall-clock overhead smoke tests of E19 (telemetry on the
//! scheduler loop) and E23 (tracing on the fleet). They time paired
//! runs against a 5% budget, so they live in a test binary of their
//! own — no other test competes with them for the cores — and run one
//! after the other.

use std::sync::{Mutex, MutexGuard, PoisonError};

use refined_prosa_bench::{exp_obs, exp_trace};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn obs_smoke_passes_and_reports() {
    let _serial = serial();
    let report = exp_obs(true);
    // The test runs from the crate directory; drop the artifacts it
    // writes there (the real ones are produced from the repo root).
    let _ = std::fs::remove_file("BENCH_obs.json");
    let _ = std::fs::remove_file("OBS_snapshot.json");
    assert!(report.contains("0 bound violations"), "report:\n{report}");
    assert!(report.contains("seeded overrun"), "report:\n{report}");
    assert!(report.contains("overhead"), "report:\n{report}");
    assert!(report.contains("obs.margin."), "report:\n{report}");
}

#[test]
fn trace_smoke_passes_and_reports() {
    let _serial = serial();
    let report = exp_trace(true);
    let _ = std::fs::remove_file("BENCH_trace.json");
    let _ = std::fs::remove_file("TRACE_sample.trace.json");
    assert!(report.contains("attribution exact"), "report:\n{report}");
    assert!(report.contains("0 term overruns"), "report:\n{report}");
    assert!(report.contains("seeded allowance cut"), "report:\n{report}");
    assert!(report.contains("aimed kill"), "report:\n{report}");
    assert!(report.contains("overhead"), "report:\n{report}");
    assert!(
        report.contains("wrote BENCH_trace.json"),
        "report:\n{report}"
    );
}
