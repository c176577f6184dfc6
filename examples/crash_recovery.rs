//! Crash recovery end to end: journal a live run, kill the scheduler
//! mid-execution, restart it under the supervisor, and verify the
//! stitched pre-/post-crash trace — then sweep a crash over *every*
//! reachable step and check that recovery always holds (DESIGN.md §5.3).
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use rossl::{ClientConfig, Driver, FirstByteCodec, RestartPolicy, Scheduler, Script, Supervisor};
use rossl_journal::{JournalWriter, KIND_EVENT};
use rossl_model::{Curve, Duration, Instant, Priority, Task, TaskId, TaskSet};
use rossl_trace::{check_stitched, Marker};
use rossl_verify::CrashSweep;

fn config() -> Result<ClientConfig, Box<dyn std::error::Error>> {
    let tasks = TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "telemetry",
            Priority(1),
            Duration(20),
            Curve::sporadic(Duration(500)),
        ),
        Task::new(
            TaskId(1),
            "actuator",
            Priority(9),
            Duration(8),
            Curve::sporadic(Duration(300)),
        ),
    ])?;
    Ok(ClientConfig::new(tasks, 1)?)
}

/// Drives for at most `max_steps` markers against `script`, appending
/// each to the journal with an immediate commit, stamped with the end
/// of its one-tick segment.
fn drive(
    driver: &mut Driver<FirstByteCodec>,
    mut script: Script,
    max_steps: usize,
    journal: &mut JournalWriter,
) -> Result<Vec<Marker>, Box<dyn std::error::Error>> {
    let steps = script.run(driver, max_steps)?;
    for step in &steps {
        journal.append(&step.marker, step.end)?;
        journal.commit();
    }
    Ok(steps.into_iter().map(|t| t.marker).collect())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Act 1: a concrete crash, survived.
    //
    // One telemetry message arrives; the scheduler accepts it, dispatches
    // it, starts executing it — and the process dies before the
    // completion marker. The write that was in flight is torn in half.
    let mut journal = JournalWriter::new();
    let mut driver = Driver::new(Scheduler::new(config()?, FirstByteCodec), Instant::ZERO);
    let script = Script::new([Some(vec![0]), None]);
    let seg0 = drive(&mut driver, script, 7, &mut journal)?;
    println!("pre-crash segment ({} markers):", seg0.len());
    for m in &seg0 {
        println!("  {m}");
    }
    let clock = driver.now();
    drop(driver); // the crash

    let mut bytes = journal.into_bytes();
    bytes.extend_from_slice(&[KIND_EVENT, 0xAA]); // torn mid-record write
    println!("\ncrash: journal is {} bytes with a torn tail", bytes.len());

    // The supervisor recovers the committed prefix, reports the
    // corruption, and rebuilds the scheduler state: the dispatched but
    // uncompleted job is voided and re-pended for redispatch.
    let mut sup = Supervisor::new(RestartPolicy::default());
    let (sched, state, corruption) = sup.restart(&bytes, config()?, FirstByteCodec)?;
    println!(
        "recovered: {} pending job(s), next_job_id={}, corruption: {}",
        state.pending.len(),
        state.next_job_id,
        corruption.map_or_else(|| "none".into(), |c| c.to_string()),
    );
    if let Some(j) = state.redispatch {
        println!("job {j:?} was in flight at the crash — it will be redispatched");
    }

    // Post-crash run: no further messages; the scheduler re-polls,
    // redispatches the voided job and completes it.
    let mut journal2 = JournalWriter::new();
    let mut driver = Driver::new(sched, clock);
    let seg1 = drive(&mut driver, Script::new([None, None]), 8, &mut journal2)?;
    println!("\npost-crash segment ({} markers):", seg1.len());
    for m in &seg1 {
        println!("  {m}");
    }

    // The stitched trace must pass the per-segment protocol automaton,
    // the cross-seam functional checker, and the seam accounting — here
    // against an environment that consumed exactly one message.
    let report = check_stitched(&[&seg0, &seg1], config()?.tasks(), 1, Some(&[1]))?;
    println!(
        "\nstitched check: {} job(s) completed, redispatched across the seam: {:?}",
        report.jobs_completed, report.redispatched
    );

    // --- Act 2: every crash point, exhaustively.
    //
    // The sweep injects a crash after every marker index up to the depth
    // bound, under every read resolution, and re-verifies every stitched
    // trace. Within the bound this is a ∀-crash-points result.
    let depth = 14;
    let sweep = CrashSweep::new(config()?, vec![vec![vec![0], vec![1]]], depth);
    match sweep.sweep() {
        Ok(outcome) => println!("\nexhaustive sweep: {outcome}"),
        Err(failure) => {
            println!("\ncounterexample found: {failure}");
            std::process::exit(1);
        }
    }
    println!("every crash point recovered to a correct stitched trace.");
    Ok(())
}
