//! E18: the parallel, deduplicated state-space exploration benchmark
//! (see DESIGN.md §6 and EXPERIMENTS.md row E18).
//!
//! Measures the [`ModelChecker`] accelerators against the sequential
//! exhaustive walk on a fixed two-socket workload across increasing
//! depth bounds: wall time, paths/steps per second, speedup, and the
//! explored-vs-pruned work split with deduplication. Every accelerated
//! run is asserted to report the *identical* [`CheckOutcome`] (and, on
//! the seeded-bug fixture, the identical first counterexample) — the
//! benchmark doubles as an end-to-end determinism check. A second
//! section demonstrates that the folded [`CrashSweep`] explores a number
//! of steps *linear* in the depth bound (the pre-fold implementation was
//! quadratic: it re-walked the whole prefix once per crash point), and a
//! third runs a crash sweep that branches on the pool and asserts that
//! it reports exactly the one-thread sweep.
//!
//! Results are written to `BENCH_verify.json` in the working directory
//! (the `BENCH_*.json` perf-trajectory convention) and summarized in the
//! returned report.

use std::fmt::Write as _;
use std::time::Instant as Wall;

use rossl::ClientConfig;
use rossl_model::{Curve, Duration, MsgData, Priority, Task, TaskId, TaskSet};
use rossl_verify::{CheckOutcome, CrashSweep, ExploreStats, ModelChecker};

fn bench_tasks() -> TaskSet {
    TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "low",
            Priority(1),
            Duration(5),
            Curve::sporadic(Duration(10)),
        ),
        Task::new(
            TaskId(1),
            "high",
            Priority(9),
            Duration(5),
            Curve::sporadic(Duration(10)),
        ),
    ])
    .expect("bench task set is valid")
}

/// The E18 environment: two sockets with interleaved opposite-priority
/// message queues — enough read nondeterminism that the behaviour tree
/// grows exponentially in the depth bound, while idle-cycle and
/// delivery-order confluence gives deduplication real structure to
/// exploit.
fn bench_pending() -> Vec<Vec<MsgData>> {
    vec![vec![vec![0], vec![1], vec![0]], vec![vec![1], vec![0]]]
}

/// The E18 exploration workload.
fn bench_checker(depth: usize) -> ModelChecker {
    let config = ClientConfig::new(bench_tasks(), 2).expect("bench config is valid");
    ModelChecker::new(config, bench_pending(), depth)
}

/// One timed run of one exploration mode.
struct ModeRun {
    mode: &'static str,
    threads: usize,
    dedup: bool,
    outcome: CheckOutcome,
    stats: ExploreStats,
    secs: f64,
}

fn run_mode(mc: &ModelChecker, mode: &'static str, threads: usize, dedup: bool) -> ModeRun {
    let mc = mc.clone().with_threads(threads).with_dedup(dedup);
    let start = Wall::now();
    let (outcome, stats) = mc
        .check_with_stats()
        .expect("the E18 workload satisfies the specification");
    ModeRun {
        mode,
        threads,
        dedup,
        outcome,
        stats,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// E18: sequential vs parallel vs deduplicated exploration across depth
/// bounds, plus the crash-sweep linearity series. `smoke` shrinks the
/// depths for CI; the determinism assertions run either way.
pub fn exp_verify_bench(smoke: bool) -> String {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let depths: &[usize] = if smoke { &[16, 22] } else { &[36, 48, 60] };

    let mut out = String::new();
    let mut rows = String::new();
    let _ = writeln!(out, "pool threads: {threads} (available parallelism)");
    let _ = writeln!(
        out,
        "{:<7} {:<16} {:>9} {:>11} {:>9} {:>12} {:>12} {:>8} {:>8}",
        "depth", "mode", "paths", "steps", "wall s", "steps/s", "pruned", "lookups", "speedup"
    );

    let mut deepest_speedup = 0.0f64;
    for &depth in depths {
        let mc = bench_checker(depth);
        let runs = [
            run_mode(&mc, "sequential", 1, false),
            run_mode(&mc, "parallel", threads, false),
            run_mode(&mc, "dedup", 1, true),
            run_mode(&mc, "parallel+dedup", threads, true),
        ];
        let base_outcome = runs[0].outcome;
        let base_secs = runs[0].secs;
        for r in &runs {
            assert_eq!(
                r.outcome, base_outcome,
                "mode {} diverged from the sequential outcome at depth {depth}",
                r.mode
            );
            assert_eq!(
                r.stats.explored_paths + r.stats.pruned_paths,
                r.outcome.paths,
                "work accounting does not reconstruct path totals ({} @ depth {depth})",
                r.mode
            );
            let speedup = base_secs / r.secs.max(1e-9);
            let _ = writeln!(
                out,
                "{:<7} {:<16} {:>9} {:>11} {:>9.3} {:>12.0} {:>12} {:>8} {:>7.2}x",
                depth,
                r.mode,
                r.outcome.paths,
                r.outcome.steps,
                r.secs,
                r.stats.explored_steps as f64 / r.secs.max(1e-9),
                r.stats.pruned_steps,
                r.stats.memo_lookups,
                speedup
            );
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            let _ = write!(
                rows,
                concat!(
                    "    {{\"depth\": {}, \"mode\": \"{}\", \"threads\": {}, \"dedup\": {}, ",
                    "\"paths\": {}, \"steps\": {}, \"violations\": 0, \"max_trace_len\": {}, ",
                    "\"wall_secs\": {:.6}, \"paths_per_sec\": {:.1}, \"steps_per_sec\": {:.1}, ",
                    "\"speedup_vs_sequential\": {:.3}, \"explored_steps\": {}, ",
                    "\"pruned_steps\": {}, \"pruned_paths\": {}, \"memo_hits\": {}, ",
                    "\"memo_lookups\": {}}}"
                ),
                depth,
                r.mode,
                r.threads,
                r.dedup,
                r.outcome.paths,
                r.outcome.steps,
                r.outcome.max_trace_len,
                r.secs,
                r.outcome.paths as f64 / r.secs.max(1e-9),
                r.outcome.steps as f64 / r.secs.max(1e-9),
                speedup,
                r.stats.explored_steps,
                r.stats.pruned_steps,
                r.stats.pruned_paths,
                r.stats.memo_hits,
                r.stats.memo_lookups,
            );
            if depth == *depths.last().expect("non-empty depths") && r.mode == "parallel+dedup" {
                deepest_speedup = speedup;
            }
        }
    }
    let _ = writeln!(
        out,
        "deepest bound: parallel+dedup ran {deepest_speedup:.2}x faster than sequential, identical outcome"
    );

    // Determinism of the reported counterexample: the seeded-bug fixture
    // (scheduler (1,9), spec (9,1)) must yield the sequential first
    // failure under every accelerated mode.
    let seeded = {
        let config = ClientConfig::new(bench_tasks(), 1).expect("config");
        ModelChecker::new(config, vec![vec![vec![0], vec![1]]], 40).with_spec_tasks({
            TaskSet::new(vec![
                Task::new(TaskId(0), "low", Priority(9), Duration(5), Curve::sporadic(Duration(10))),
                Task::new(TaskId(1), "high", Priority(1), Duration(5), Curve::sporadic(Duration(10))),
            ])
            .expect("swapped spec set is valid")
        })
    };
    let baseline = seeded.check().expect_err("the seeded bug must be found");
    for (t, d) in [(threads, false), (1, true), (threads, true)] {
        let f = seeded
            .clone()
            .with_threads(t)
            .with_dedup(d)
            .check()
            .expect_err("the seeded bug must be found in every mode");
        assert_eq!(f.trace, baseline.trace, "counterexample diverged (threads={t}, dedup={d})");
        assert_eq!(f.reason, baseline.reason);
    }
    let _ = writeln!(
        out,
        "seeded-bug fixture: all modes report the sequential counterexample ({} markers)",
        baseline.trace.len()
    );

    // Crash-sweep linearity: with a constant recovery budget on the
    // branch-free workload, the folded sweep's step count is exactly
    // depth * (1 + budget) — linear, where the per-crash-point rerun of
    // the old implementation was quadratic.
    let budget = 6usize;
    let crash_depths: &[usize] = if smoke { &[6, 12, 24] } else { &[8, 16, 32, 64] };
    let mut crash_rows = String::new();
    let _ = writeln!(out, "crash sweep (recovery budget {budget}, branch-free environment):");
    for &depth in crash_depths {
        let config = ClientConfig::new(bench_tasks(), 1).expect("config");
        let sweep = CrashSweep::new(config, vec![], depth)
            .with_recovery_budget(budget)
            .with_threads(threads);
        let start = Wall::now();
        let outcome = sweep.sweep().expect("branch-free crash sweep passes");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            outcome.steps,
            (depth * (1 + budget)) as u64,
            "folded sweep must be linear in the depth bound"
        );
        let _ = writeln!(
            out,
            "  depth {:>3}: {:>6} steps ({} per crash point), {} recoveries, {:.3}s",
            depth,
            outcome.steps,
            outcome.steps / depth as u64,
            outcome.recoveries,
            secs
        );
        if !crash_rows.is_empty() {
            crash_rows.push_str(",\n");
        }
        let _ = write!(
            crash_rows,
            concat!(
                "    {{\"depth\": {}, \"recovery_budget\": {}, \"steps\": {}, ",
                "\"steps_per_depth\": {}, \"recoveries\": {}, \"wall_secs\": {:.6}}}"
            ),
            depth,
            budget,
            outcome.steps,
            outcome.steps / depth as u64,
            outcome.recoveries,
            secs
        );
    }
    let _ = writeln!(out, "  steps per crash point is constant: the fold is linear in max_steps");

    // A crash sweep that branches: the interleaved queues above, where
    // the walk parks acted children and hands the shallowest to an idle
    // worker. The pool must report exactly the one-thread sweep.
    let branching_depths: &[usize] = if smoke { &[12, 24] } else { &[16, 32] };
    let mut branching_rows = String::new();
    let _ = writeln!(
        out,
        "crash sweep (recovery budget {budget}, two sockets, interleaved queues):"
    );
    for &depth in branching_depths {
        let config = ClientConfig::new(bench_tasks(), 2).expect("config");
        let sweep = CrashSweep::new(config, bench_pending(), depth).with_recovery_budget(budget);
        let start = Wall::now();
        let outcome = sweep.sweep().expect("the interleaved crash sweep passes");
        let sequential_secs = start.elapsed().as_secs_f64();
        let start = Wall::now();
        let pooled = sweep
            .with_threads(threads)
            .sweep()
            .expect("the interleaved crash sweep passes on the pool");
        let pool_secs = start.elapsed().as_secs_f64();
        assert_eq!(
            pooled, outcome,
            "the crash sweep on {threads} threads diverged from one thread at depth {depth}"
        );
        let speedup = sequential_secs / pool_secs.max(1e-9);
        let _ = writeln!(
            out,
            "  depth {:>3}: {:>6} steps, {} recoveries, {} stitched traces, {:.3}s on 1 thread, {:.3}s on {threads} ({:.2}x)",
            depth,
            outcome.steps,
            outcome.recoveries,
            outcome.stitched_checked,
            sequential_secs,
            pool_secs,
            speedup
        );
        if !branching_rows.is_empty() {
            branching_rows.push_str(",\n");
        }
        let _ = write!(
            branching_rows,
            concat!(
                "    {{\"depth\": {}, \"recovery_budget\": {}, \"steps\": {}, ",
                "\"recoveries\": {}, \"stitched_checked\": {}, \"redispatched\": {}, ",
                "\"sequential_secs\": {:.6}, \"pool_secs\": {:.6}, \"speedup\": {:.3}}}"
            ),
            depth,
            budget,
            outcome.steps,
            outcome.recoveries,
            outcome.stitched_checked,
            outcome.redispatched,
            sequential_secs,
            pool_secs,
            speedup
        );
    }
    let _ = writeln!(out, "  every pool outcome equals the one-thread sweep's");

    let json = format!(
        "{{\n  \"experiment\": \"E18\",\n  \"smoke\": {smoke},\n  \"pool_threads\": {threads},\n  \"explore\": [\n{rows}\n  ],\n  \"crash_sweep\": [\n{crash_rows}\n  ],\n  \"crash_sweep_branching\": [\n{branching_rows}\n  ]\n}}\n"
    );
    match std::fs::write("BENCH_verify.json", &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote BENCH_verify.json");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write BENCH_verify.json: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_bench_smoke_passes_and_reports() {
        let _serial = crate::smoke_lock();
        let report = exp_verify_bench(true);
        // The test runs from the crate directory; drop the artifact it
        // writes there (the real one is produced from the repo root).
        let _ = std::fs::remove_file("BENCH_verify.json");
        assert!(report.contains("identical outcome"), "report:\n{report}");
        assert!(report.contains("seeded-bug fixture"), "report:\n{report}");
        assert!(report.contains("linear in max_steps"), "report:\n{report}");
        assert!(
            report.contains("every pool outcome equals the one-thread sweep's"),
            "report:\n{report}"
        );
    }
}
