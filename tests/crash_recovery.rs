//! Crash–recovery integration tests (DESIGN.md §5.3, experiment E17).
//!
//! Three layers, end to end across `rossl-journal`, `rossl`
//! (supervisor), `rossl-trace` (stitched checking) and `rossl-verify`
//! (the exhaustive sweep):
//!
//! 1. the exhaustive crash sweep finds **zero** violations at the tested
//!    depths — every reachable crash point recovers to a stitched trace
//!    passing the protocol, functional, and seam checkers;
//! 2. the checker has teeth: a deliberately *lazy-commit* journal that
//!    loses an accepted job across a crash is caught as
//!    `LostAcceptedJob`;
//! 3. journal corruption (truncation at every byte offset, bit flips,
//!    torn tails) is reported as typed errors with a recoverable prefix
//!    and never panics.

use rossl::{ClientConfig, Driver, FirstByteCodec, RestartPolicy, Scheduler, Script, Supervisor};
use rossl_journal::{recover, JournalError, JournalWriter, KIND_EVENT};
use rossl_model::{Curve, Duration, Instant, Priority, Task, TaskId, TaskSet};
use rossl_trace::{check_stitched, Marker, SeamViolation, StitchedError};
use rossl_verify::CrashSweep;

fn two_task_config(sockets: usize) -> ClientConfig {
    let tasks = TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "low",
            Priority(1),
            Duration(10),
            Curve::sporadic(Duration(100)),
        ),
        Task::new(
            TaskId(1),
            "high",
            Priority(9),
            Duration(10),
            Curve::sporadic(Duration(100)),
        ),
    ])
    .unwrap();
    ClientConfig::new(tasks, sockets).unwrap()
}

/// Drives for at most `max_steps` markers against `script`, recording
/// each in the journal. `commit_each` mimics either the write-ahead
/// discipline (true) or a buggy lazy-commit journal (false).
fn drive(
    driver: &mut Driver<FirstByteCodec>,
    mut script: Script,
    max_steps: usize,
    journal: &mut JournalWriter,
    commit_each: bool,
) -> Vec<Marker> {
    let steps = script.run(driver, max_steps).expect("drive ok");
    for step in &steps {
        journal.append(&step.marker, step.end).unwrap();
        if commit_each {
            journal.commit();
        }
    }
    steps.into_iter().map(|t| t.marker).collect()
}

#[test]
fn exhaustive_crash_sweep_single_socket_has_no_violations() {
    let sweep = CrashSweep::new(two_task_config(1), vec![vec![vec![0], vec![1]]], 14);
    let outcome = sweep.sweep().expect("no counterexample");
    assert_eq!(outcome.crash_points, 14);
    assert!(outcome.recoveries > 0);
    assert!(outcome.stitched_checked >= outcome.recoveries);
    assert!(outcome.redispatched > 0, "some crash must void a dispatch");
}

#[test]
fn exhaustive_crash_sweep_two_sockets_has_no_violations() {
    let sweep = CrashSweep::new(
        two_task_config(2),
        vec![vec![vec![0]], vec![vec![1]]],
        12,
    );
    let outcome = sweep.sweep().expect("no counterexample");
    assert_eq!(outcome.crash_points, 12);
    assert!(outcome.stitched_checked > 0);
}

/// Both E17 fixtures sweep clean at every depth under even and odd
/// recovery budgets. An odd budget can end a recovery leaf on the
/// `ReadStart` of a delivered branch; the sweep counts the message as
/// consumed only once the `ReadEnd` that receives it has been emitted.
/// The totals of the even-budget sweeps are pinned by an FNV-1a digest.
#[test]
fn crash_sweep_is_clean_at_every_depth_and_budget() {
    let fixtures = [
        (1, vec![vec![vec![0], vec![1]]]),
        (2, vec![vec![vec![0]], vec![vec![1]]]),
    ];
    let mut pinned = String::new();
    for (sockets, pending) in &fixtures {
        for depth in 2..=18 {
            for budget in [depth, 6, 7] {
                let outcome = CrashSweep::new(two_task_config(*sockets), pending.clone(), depth)
                    .with_recovery_budget(budget)
                    .sweep()
                    .unwrap_or_else(|f| {
                        panic!("{sockets} socket(s), depth {depth}, budget {budget}: {f}")
                    });
                if budget % 2 == 0 {
                    pinned += &format!(
                        "{sockets} {depth} {budget} {} {} {} {}\n",
                        outcome.steps,
                        outcome.recoveries,
                        outcome.stitched_checked,
                        outcome.redispatched
                    );
                }
            }
        }
    }
    let digest = pinned.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(digest, 0x634a_5467_ecc1_e7d0, "even-budget sweep totals changed:\n{pinned}");
}

#[test]
fn lazy_commit_journal_loses_an_accepted_job_and_the_checker_notices() {
    // The scheduler accepts a message (the transport consumed it), but
    // the journal never commits — so the crash erases all record of the
    // acceptance. Recovery restarts from scratch; the job is gone.
    let mut journal = JournalWriter::new();
    let sched = Scheduler::new(two_task_config(1), FirstByteCodec);
    let mut driver = Driver::new(sched, Instant::ZERO);
    // 2 markers: ReadStart, ReadEnd j0 — appended but never committed.
    let _lost = drive(&mut driver, Script::new([Some(vec![0])]), 2, &mut journal, false);
    let clock = driver.now();
    drop(driver); // the crash

    let bytes = journal.into_bytes();
    let mut sup = Supervisor::new(RestartPolicy::default());
    let (sched, state, _corruption) = sup
        .restart(&bytes, two_task_config(1), FirstByteCodec)
        .expect("journal itself is well formed");
    assert!(
        state.pending.is_empty(),
        "the uncommitted acceptance must not be trusted"
    );

    // Post-crash segment: nothing left to read, the scheduler idles.
    let mut journal2 = JournalWriter::new();
    let mut driver = Driver::new(sched, clock);
    let seg1 = drive(&mut driver, Script::new([None]), 4, &mut journal2, true);
    assert!(seg1.contains(&Marker::Idling));

    // Stitched trace as the journal tells it: an empty-but-for-nothing
    // pre-crash segment, then the idle run. The environment consumed one
    // message — the checker must flag the loss.
    let err = check_stitched(
        &[&[], &seg1],
        two_task_config(1).tasks(),
        1,
        Some(&[1]),
    )
    .expect_err("a consumed-but-unjournaled message is a seam violation");
    match err {
        StitchedError::Seam(SeamViolation::LostAcceptedJob {
            consumed, observed, ..
        }) => {
            assert_eq!((consumed, observed), (1, 0));
        }
        other => panic!("expected LostAcceptedJob, got {other}"),
    }
}

#[test]
fn journal_corruption_is_typed_and_never_panics() {
    // Build a real journal from a real run.
    let mut journal = JournalWriter::new();
    let sched = Scheduler::new(two_task_config(1), FirstByteCodec);
    let script = Script::new([Some(vec![1]), None, None]);
    drive(&mut Driver::new(sched, Instant::ZERO), script, 9, &mut journal, true);
    let clean = journal.into_bytes();
    let full = recover(&clean).expect("clean journal recovers");
    assert!(full.corruption.is_none());
    let n = full.committed.len();
    assert!(n >= 8);

    // Truncation at every byte offset: inside the magic it is a hard
    // BadHeader; anywhere else it must yield a valid committed prefix of
    // the original event sequence, without panicking.
    for cut in 0..clean.len() {
        match recover(&clean[..cut]) {
            Err(JournalError::BadHeader) => assert!(cut < 8),
            Ok(rec) => {
                assert!(rec.committed.len() <= n);
                assert_eq!(
                    rec.committed.as_slice(),
                    &full.committed[..rec.committed.len()],
                    "cut at {cut} must yield a prefix"
                );
            }
        }
    }

    // A bit flip anywhere past the magic is detected (some typed
    // corruption) or provably harmless — never a panic, and never a
    // silently different event sequence.
    for (i, bit) in [(9usize, 0x01u8), (clean.len() / 2, 0x80), (clean.len() - 1, 0x40)] {
        let mut bad = clean.clone();
        bad[i] ^= bit;
        if let Ok(rec) = recover(&bad) {
            if rec.corruption.is_none() {
                assert_eq!(rec.committed.as_slice(), full.committed.as_slice());
            }
        }
    }

    // A torn tail mid-record is in-band corruption, prefix intact.
    let mut torn = clean.clone();
    torn.extend_from_slice(&[KIND_EVENT, 0xFF, 0xFF]);
    let rec = recover(&torn).expect("salvageable");
    assert!(rec.corruption.is_some());
    assert_eq!(rec.committed.len(), n);
}
