//! E17: exhaustive crash-point verification — every reachable crash
//! recovers to a passing stitched trace (see DESIGN.md §5.3 and
//! EXPERIMENTS.md row E17).
//!
//! The sweep drives the real scheduler under every read-nondeterminism
//! resolution, injecting a crash after every marker index up to the
//! depth bound. Each crash tears the write-ahead journal mid-record; the
//! supervisor recovers the committed prefix, rebuilds the scheduler, and
//! the stitched pre-/post-crash trace must pass the per-segment protocol
//! automaton, the cross-seam functional checker, and the crash-seam
//! accounting (no duplicated completion, no lost accepted job). A second
//! section shows the journal's corruption taxonomy on a real trace.

use std::fmt::Write as _;

use rossl::ClientConfig;
use rossl_journal::{recover, JournalWriter};
use rossl_model::{Curve, Duration, Instant, Priority, Task, TaskId, TaskSet};
use rossl_trace::Marker;
use rossl_verify::CrashSweep;

fn crash_tasks() -> TaskSet {
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
    .expect("crash-sweep task set is valid")
}

/// E17: the exhaustive crash-point sweep, plus the journal corruption
/// taxonomy demonstrated on a real journaled trace.
pub fn exp_crash_recovery(depth: usize) -> String {
    let mut out = String::new();
    let depth = depth.max(4);

    // Sweep 1: one socket, two messages of opposite priorities.
    let config = ClientConfig::new(crash_tasks(), 1).expect("config");
    let sweep = CrashSweep::new(config, vec![vec![vec![0], vec![1]]], depth);
    let outcome = sweep.sweep().unwrap_or_else(|f| {
        panic!("crash sweep found a counterexample: {f}");
    });
    let _ = writeln!(out, "single socket, depth {depth}: {outcome}");
    assert_eq!(outcome.crash_points as usize, depth);
    assert!(
        outcome.redispatched > 0,
        "some crash point must void a dispatch and re-issue it"
    );

    // Sweep 2: two sockets, one message each.
    let config = ClientConfig::new(crash_tasks(), 2).expect("config");
    let sweep = CrashSweep::new(config, vec![vec![vec![0]], vec![vec![1]]], depth);
    let outcome2 = sweep.sweep().unwrap_or_else(|f| {
        panic!("crash sweep found a counterexample: {f}");
    });
    let _ = writeln!(out, "two sockets,    depth {depth}: {outcome2}");
    let _ = writeln!(
        out,
        "every injected crash recovered; every stitched trace passed protocol, functional and seam checks"
    );

    // Journal corruption taxonomy on a real journal: torn tail, bit
    // flip, truncation — all typed, none panic, prefix salvaged.
    let mut w = JournalWriter::new();
    for (i, m) in [Marker::ReadStart, Marker::Selection, Marker::Idling]
        .iter()
        .enumerate()
    {
        w.append(m, Instant(i as u64 + 1))
            .expect("payload-free markers fit a record");
        w.commit();
    }
    let clean = w.into_bytes();

    let mut torn = clean.clone();
    torn.extend_from_slice(&[rossl_journal::KIND_EVENT, 0x01]);
    let rec = recover(&torn).expect("salvageable");
    let _ = writeln!(
        out,
        "torn tail:   {} committed event(s) salvaged, corruption: {}",
        rec.committed.len(),
        rec.corruption.expect("torn tail detected")
    );

    let mut flipped = clean.clone();
    let mid = clean.len() / 2;
    flipped[mid] ^= 0x10;
    let rec = recover(&flipped).expect("salvageable");
    let _ = writeln!(
        out,
        "bit flip:    {} committed event(s) salvaged, corruption: {}",
        rec.committed.len(),
        rec.corruption.expect("bit flip detected")
    );

    let rec = recover(&clean[..clean.len() - 3]).expect("salvageable");
    let _ = writeln!(
        out,
        "truncation:  {} committed event(s) salvaged, corruption: {}",
        rec.committed.len(),
        rec.corruption.expect("truncation detected")
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_recovery_experiment_passes_at_small_depth() {
        let report = exp_crash_recovery(8);
        assert!(report.contains("every injected crash recovered"), "report:\n{report}");
        assert!(report.contains("torn tail:"), "report:\n{report}");
        assert!(report.contains("bit flip:"), "report:\n{report}");
        assert!(report.contains("truncation:"), "report:\n{report}");
    }
}
