//! Record & replay: capture a run's timed trace into the durable binary
//! journal (`rossl-journal`'s checksummed write-ahead format) plus the
//! arrival sequence as text, then re-verify the recording offline — the
//! workflow a real deployment would use to audit traces captured on
//! target hardware against the analytical bounds.
//!
//! The journal replaces the earlier text-only trace file: every record
//! is CRC-framed and sealed by commit records, so a recording that was
//! cut short by a crash or corrupted in transit yields a typed error and
//! the longest trustworthy prefix instead of silently wrong data.
//!
//! ```sh
//! cargo run --example record_replay
//! ```

use refined_prosa::SystemBuilder;
use rossl_journal::{recover, JournalWriter};
use rossl_model::{Curve, Duration, Instant, Priority};
use rossl_timing::textio;
use rossl_timing::{SimulationResult, TimedTrace, WorstCase};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = SystemBuilder::new()
        .task("pump", Priority(3), Duration(30), Curve::sporadic(Duration(1_000)))
        .task("valve", Priority(8), Duration(12), Curve::sporadic(Duration(700)))
        .sockets(1)
        .build()?;

    // --- Record: simulate, journal every marker, serialize arrivals.
    let arrivals = system.random_workload(99, Instant(6_000));
    let run = system.simulate(&arrivals, WorstCase, Instant(8_000))?;
    let mut journal = JournalWriter::new();
    for (m, t) in run.trace.iter() {
        journal.append(m, t)?;
        journal.commit();
    }
    let journal_bytes = journal.into_bytes();
    let arrivals_text = textio::write_arrivals(&arrivals);

    let dir = std::env::temp_dir().join("refined-prosa-recording");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("trace.wal"), &journal_bytes)?;
    std::fs::write(dir.join("arrivals.txt"), &arrivals_text)?;
    println!(
        "recorded {} markers ({} journal bytes) and {} arrivals to {}",
        run.trace.len(),
        journal_bytes.len(),
        arrivals.len(),
        dir.display()
    );

    // --- Replay: recover the journal and verify offline.
    let recovered = recover(&std::fs::read(dir.join("trace.wal"))?)?;
    assert!(recovered.corruption.is_none(), "recording is pristine");
    assert!(recovered.uncommitted.is_empty());
    let replayed_trace = TimedTrace::new(
        recovered.committed.iter().map(|e| e.marker.clone()).collect(),
        recovered.committed.iter().map(|e| e.at).collect(),
    )?;
    let replayed_arrivals =
        textio::parse_arrivals(&std::fs::read_to_string(dir.join("arrivals.txt"))?)?;
    assert_eq!(replayed_trace, run.trace, "round trip must be exact");

    // The verifier needs only the recording plus the static parameters.
    let replayed_run = SimulationResult {
        trace: replayed_trace,
        jobs: run.jobs.clone(), // job bookkeeping is derivable; reused here
        horizon: run.horizon,
        degradation: Vec::new(),
    };
    let verifier = system.verifier(Duration(300_000))?;
    let report = verifier.verify(&replayed_arrivals, &replayed_run)?;
    println!(
        "\noffline verification of the recording: {} jobs due, {} violations",
        report.jobs_with_due_deadline, report.bound_violations
    );
    assert_eq!(report.bound_violations, 0);
    println!("recording verified against the analytical bounds.");

    // --- A damaged recording fails safe instead of lying.
    let cut = journal_bytes.len() - journal_bytes.len() / 3;
    let partial = recover(&journal_bytes[..cut])?;
    println!(
        "\ntruncated recording: {} of {} markers salvaged, corruption: {}",
        partial.committed.len(),
        run.trace.len(),
        partial
            .corruption
            .map_or_else(|| "none".into(), |c| c.to_string()),
    );
    Ok(())
}
