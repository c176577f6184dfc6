//! Golden digests of the journal's wire format.
//!
//! Each digest is 64-bit FNV-1a over the bytes one `JournalWriter`
//! produces for a fixed input:
//!
//! * the E7 runs (every system × 5 seeds, alternating the two workload
//!   generators as E7 does), one event and one commit per marker, as
//!   `Shard::step` journals;
//! * telemetry blobs of every length from 0 to 20 bytes and a few
//!   longer ones, with commits in between;
//! * every marker kind, both `ModeSwitch` directions included, with job
//!   payloads from empty to 64 KiB and extreme ids, sockets and
//!   timestamps.
//!
//! The constants pin the bytes the writer puts on the wire, and with
//! them every journal that `recover` must read. A change that alters
//! them on purpose updates the table and says why. The journal a
//! failover rebases onto its successor shard is pinned beside the
//! fleet's own tests (`crates/fleet/src/fleet.rs`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa_bench::setup;
use rossl_journal::{recover, JournalWriter};
use rossl_model::{Instant, Job, JobId, Mode, SocketId, TaskId};
use rossl_timing::UniformCost;
use rossl_trace::Marker;

/// 64-bit FNV-1a over raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const HORIZON: Instant = Instant(15_000);

/// One E7 run journaled marker by marker, each event sealed by its own
/// commit; the journal must read back in full.
fn e7_journal(name: &str, seed: u64) -> Vec<u8> {
    let system = setup::all_systems()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("an E7 system")
        .1;
    let arrivals = if seed % 2 == 0 {
        system.random_workload(seed, HORIZON)
    } else {
        system.randomized_workload(seed, HORIZON)
    };
    let run = system
        .simulate(
            &arrivals,
            UniformCost::new(StdRng::seed_from_u64(seed ^ 0xBEEF)),
            HORIZON,
        )
        .expect("in-model simulation succeeds");
    let mut w = JournalWriter::new();
    for (marker, at) in run.trace.iter() {
        w.append(marker, at).unwrap();
        w.commit();
    }
    let bytes = w.into_bytes();
    let rec = recover(&bytes).expect("journal header");
    assert!(
        rec.corruption.is_none(),
        "{name}/{seed}: {:?}",
        rec.corruption
    );
    assert_eq!(
        rec.committed.len(),
        run.trace.iter().count(),
        "{name}/{seed}"
    );
    bytes
}

/// Telemetry records of every length around the CRC's 8-byte word,
/// interleaved with events and commits.
fn telemetry_journal() -> Vec<u8> {
    let mut w = JournalWriter::new();
    for len in (0..=20).chain([63, 64, 65, 300, 4_096]) {
        let blob: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
        w.append_telemetry(&blob, Instant(len as u64 * 1_000 + 7))
            .unwrap();
        if len % 3 == 0 {
            w.append(&Marker::Idling, Instant(len as u64)).unwrap();
        }
        if len % 2 == 0 {
            w.commit();
        }
    }
    w.into_bytes()
}

/// Every marker kind, both mode-switch directions, over payloads from
/// empty to 64 KiB.
fn marker_journal() -> Vec<u8> {
    let mut w = JournalWriter::new();
    let mut at = 0u64;
    for (i, len) in [0usize, 1, 7, 8, 9, 255, 300, 65_536]
        .into_iter()
        .enumerate()
    {
        let data: Vec<u8> = (0..len).map(|b| (b ^ (b >> 8) ^ i) as u8).collect();
        let job = Job::new(JobId(u64::MAX - i as u64), TaskId(i), data);
        let markers = [
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(i),
                job: None,
            },
            Marker::ReadEnd {
                sock: SocketId(usize::MAX - i),
                job: Some(job.clone()),
            },
            Marker::Selection,
            Marker::Dispatch(job.clone()),
            Marker::Execution(job.clone()),
            Marker::ModeSwitch {
                from: Mode::Lo,
                to: Mode::Hi,
            },
            Marker::Completion(job),
            Marker::ModeSwitch {
                from: Mode::Hi,
                to: Mode::Lo,
            },
            Marker::Idling,
        ];
        for marker in &markers {
            at += 1 + len as u64;
            w.append(marker, Instant(at)).unwrap();
        }
        w.commit();
    }
    w.append(&Marker::ReadStart, Instant(u64::MAX)).unwrap();
    w.commit();
    w.into_bytes()
}

/// Every digest, labelled, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for (name, _) in setup::all_systems() {
        for seed in 0..5 {
            table.push((format!("e7/{name}/{seed}"), fnv1a(&e7_journal(name, seed))));
        }
    }
    table.push(("telemetry".into(), fnv1a(&telemetry_journal())));
    table.push(("markers".into(), fnv1a(&marker_journal())));
    table
}

const GOLDEN: &[(&str, u64)] = &[
    ("e7/single/0", 0x30884c6b46e175d2),
    ("e7/single/1", 0xcc418391d736b507),
    ("e7/single/2", 0x39343b9e803326f5),
    ("e7/single/3", 0xbcc6e4799034ac4c),
    ("e7/single/4", 0x80eb861d31814585),
    ("e7/canonical/0", 0xdfe014ed85dc4b49),
    ("e7/canonical/1", 0x53026e6c13bc123d),
    ("e7/canonical/2", 0xbcdb585ed1b9806a),
    ("e7/canonical/3", 0xf656e77b08d88500),
    ("e7/canonical/4", 0x2cb8d17192a66a17),
    ("e7/bursty/0", 0xf82781289c445850),
    ("e7/bursty/1", 0x770dccbd47b76219),
    ("e7/bursty/2", 0x9104ac322272a967),
    ("e7/bursty/3", 0xfda1f0f50d24772e),
    ("e7/bursty/4", 0xf68f090d1a68e700),
    ("telemetry", 0xef53abc802123e9a),
    ("markers", 0xe8c5c9633ba7201c),
];

#[test]
fn journal_digests_match_the_golden_table() {
    let actual = digests();
    let rendered: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|(name, d)| ((*name).to_string(), *d))
        .collect();
    assert!(
        actual == expected,
        "journal digests changed; actual table:\n{rendered}"
    );
}

/// The pinned journals read back whole: every event and telemetry
/// record, with no corruption and nothing skipped.
#[test]
fn pinned_journals_recover_whole() {
    let rec = recover(&telemetry_journal()).expect("journal header");
    assert!(rec.corruption.is_none() && rec.skipped.is_empty());
    assert_eq!(rec.telemetry.len(), 26);
    assert_eq!(rec.telemetry[24].payload.len(), 300);

    let rec = recover(&marker_journal()).expect("journal header");
    assert!(rec.corruption.is_none() && rec.skipped.is_empty());
    assert_eq!(rec.committed.len(), 8 * 10 + 1);
    assert!(rec.uncommitted.is_empty());
    assert_eq!(rec.committed[80].at, Instant(u64::MAX));
    assert_eq!(
        rec.committed[8].marker,
        Marker::ModeSwitch {
            from: Mode::Hi,
            to: Mode::Lo,
        }
    );
}
