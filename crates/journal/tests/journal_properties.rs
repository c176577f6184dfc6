//! Property tests of the journal's two defining contracts:
//!
//! 1. **Round trip** — writing a sequence of timed markers and reading
//!    it back is lossless, and re-writing the recovered events is
//!    byte-identical to the original journal.
//! 2. **Prefix recovery** — truncating the journal at *every* byte
//!    offset yields either a hard `BadHeader` (cuts inside the magic)
//!    or a valid prefix of the original events, with damage reported as
//!    a typed corruption — never a panic.
//! 3. **Forward compatibility** — a checksum-valid record with an
//!    unknown kind byte, spliced in at *any* record boundary, is
//!    skipped and reported without disturbing the events, the
//!    commit split, or the telemetry around it.

use proptest::prelude::*;

use rossl_journal::{recover, crc32, JournalError, JournalWriter, MAGIC};
use rossl_model::{Instant, Job, JobId, Mode, SocketId, TaskId};
use rossl_trace::Marker;

/// Payloads are short half the time and up to 300 B otherwise, so
/// frames cross the CRC's 8-byte words at every alignment.
fn arb_job() -> impl Strategy<Value = Job> {
    (
        0u64..1_000,
        0usize..4,
        prop_oneof![
            proptest::collection::vec(0u8..=255, 0..12),
            proptest::collection::vec(0u8..=255, 0..=300),
        ],
    )
        .prop_map(|(id, task, data)| Job::new(JobId(id), TaskId(task), data))
}

fn arb_marker() -> impl Strategy<Value = Marker> {
    prop_oneof![
        Just(Marker::ReadStart),
        (0usize..4).prop_map(|s| Marker::ReadEnd {
            sock: SocketId(s),
            job: None,
        }),
        (0usize..4, arb_job()).prop_map(|(s, j)| Marker::ReadEnd {
            sock: SocketId(s),
            job: Some(j),
        }),
        Just(Marker::Selection),
        arb_job().prop_map(Marker::Dispatch),
        arb_job().prop_map(Marker::Execution),
        arb_job().prop_map(Marker::Completion),
        Just(Marker::Idling),
        Just(Marker::ModeSwitch {
            from: Mode::Lo,
            to: Mode::Hi,
        }),
        Just(Marker::ModeSwitch {
            from: Mode::Hi,
            to: Mode::Lo,
        }),
    ]
}

/// Events interleaved with commit points: `true` at index i means
/// "commit after event i".
fn arb_history() -> impl Strategy<Value = Vec<(Marker, u64, bool)>> {
    proptest::collection::vec((arb_marker(), 0u64..10_000, proptest::bool::ANY), 0..24)
}

fn write_history(history: &[(Marker, u64, bool)]) -> JournalWriter {
    let mut w = JournalWriter::new();
    for (marker, ts, commit_after) in history {
        w.append(marker, Instant(*ts)).unwrap();
        if *commit_after {
            w.commit();
        }
    }
    w
}

/// Like [`write_history`], also returning every record-boundary byte
/// offset (positions where a foreign record can legally be spliced).
fn write_history_with_boundaries(history: &[(Marker, u64, bool)]) -> (Vec<u8>, Vec<usize>) {
    let mut w = JournalWriter::new();
    let mut boundaries = vec![w.bytes().len()];
    for (marker, ts, commit_after) in history {
        w.append(marker, Instant(*ts)).unwrap();
        boundaries.push(w.bytes().len());
        if *commit_after {
            w.commit();
            boundaries.push(w.bytes().len());
        }
    }
    (w.into_bytes(), boundaries)
}

/// A checksum-valid frame whose kind byte no current reader knows.
fn foreign_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![kind];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Kind bytes no current reader understands (1–3 are event, commit,
/// telemetry).
fn arb_unknown_kind() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), 4u8..=255]
}

proptest! {
    #[test]
    fn round_trip_is_lossless_and_byte_identical(history in arb_history()) {
        let w = write_history(&history);
        let bytes = w.into_bytes();

        let rec = recover(&bytes).unwrap();
        prop_assert!(rec.corruption.is_none());

        // Lossless: every appended event comes back, in order.
        let all: Vec<_> = rec.committed.iter().chain(&rec.uncommitted).collect();
        prop_assert_eq!(all.len(), history.len());
        for (got, (marker, ts, _)) in all.iter().zip(&history) {
            prop_assert_eq!(&got.marker, marker);
            prop_assert_eq!(got.at, Instant(*ts));
        }

        // Committed/uncommitted split matches the last commit point.
        let committed_len = history
            .iter()
            .rposition(|(_, _, c)| *c)
            .map_or(0, |i| i + 1);
        prop_assert_eq!(rec.committed.len(), committed_len);

        // Byte identity: re-journaling the recovered events with the
        // same commit points reproduces the original bytes exactly.
        let rewritten = write_history(&history).into_bytes();
        prop_assert_eq!(bytes, rewritten);
    }

    #[test]
    fn truncation_at_every_offset_yields_a_valid_prefix(history in arb_history()) {
        let bytes = write_history(&history).into_bytes();
        let full = recover(&bytes).unwrap();
        let all: Vec<_> = full
            .committed
            .iter()
            .chain(&full.uncommitted)
            .cloned()
            .collect();

        for cut in 0..bytes.len() {
            if cut < MAGIC.len() {
                prop_assert_eq!(
                    recover(&bytes[..cut]),
                    Err(JournalError::BadHeader),
                    "cut at {} inside magic",
                    cut
                );
                continue;
            }
            let rec = recover(&bytes[..cut]).unwrap();
            let got: Vec<_> = rec
                .committed
                .iter()
                .chain(&rec.uncommitted)
                .cloned()
                .collect();
            prop_assert!(got.len() <= all.len());
            prop_assert_eq!(&all[..got.len()], &got[..], "cut at {}", cut);
            // The committed prefix never exceeds what the full journal
            // had committed.
            prop_assert!(rec.committed.len() <= full.committed.len());
        }
    }

    #[test]
    fn single_bit_flips_never_panic_and_are_reported(history in arb_history(), byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = write_history(&history).into_bytes();
        if bytes.len() <= MAGIC.len() {
            return Ok(());
        }
        // Pick a flip position inside the record area.
        let span = bytes.len() - MAGIC.len();
        let byte = MAGIC.len() + ((byte_frac * span as f64) as usize).min(span - 1);
        let mut flipped = bytes.clone();
        flipped[byte] ^= 1 << bit;
        let rec = recover(&flipped).unwrap();
        prop_assert!(
            rec.corruption.is_some(),
            "flip at {}:{} went undetected",
            byte,
            bit
        );
        // The salvaged prefix is still a prefix of the original.
        let full = recover(&bytes).unwrap();
        let all: Vec<_> = full
            .committed
            .iter()
            .chain(&full.uncommitted)
            .cloned()
            .collect();
        let got: Vec<_> = rec
            .committed
            .iter()
            .chain(&rec.uncommitted)
            .cloned()
            .collect();
        prop_assert!(got.len() <= all.len());
        prop_assert_eq!(&all[..got.len()], &got[..]);
    }

    /// Splicing one checksum-valid unknown-kind record at EVERY record
    /// boundary leaves the recovered events, the committed/uncommitted
    /// split, and the corruption status untouched; the alien record is
    /// reported in `skipped` at its exact offset.
    #[test]
    fn unknown_kind_record_at_every_boundary_is_skipped_losslessly(
        history in arb_history(),
        kind in arb_unknown_kind(),
        payload in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        let (bytes, boundaries) = write_history_with_boundaries(&history);
        let clean = recover(&bytes).unwrap();
        prop_assert!(clean.corruption.is_none());
        let frame = foreign_frame(kind, &payload);

        for &at in &boundaries {
            let mut spliced = bytes[..at].to_vec();
            spliced.extend_from_slice(&frame);
            spliced.extend_from_slice(&bytes[at..]);

            let rec = recover(&spliced).unwrap();
            prop_assert!(rec.corruption.is_none(), "splice at {} broke the scan", at);
            prop_assert_eq!(&rec.committed, &clean.committed, "splice at {}", at);
            prop_assert_eq!(&rec.uncommitted, &clean.uncommitted, "splice at {}", at);
            prop_assert_eq!(rec.skipped.len(), 1, "splice at {}", at);
            prop_assert_eq!(rec.skipped[0].offset, at);
            prop_assert_eq!(rec.skipped[0].kind, kind);
            prop_assert_eq!(rec.skipped[0].len, payload.len() as u32);
        }
    }

    /// Telemetry records ride the same commit discipline as events:
    /// blobs round-trip byte-for-byte and split at the last commit.
    #[test]
    fn telemetry_round_trips_under_the_commit_discipline(
        blobs in proptest::collection::vec(
            (proptest::collection::vec(0u8..=255, 0..32), 0u64..10_000, proptest::bool::ANY),
            0..12,
        ),
    ) {
        let mut w = JournalWriter::new();
        for (blob, ts, commit_after) in &blobs {
            w.append_telemetry(blob, Instant(*ts)).unwrap();
            if *commit_after {
                w.commit();
            }
        }
        let rec = recover(&w.into_bytes()).unwrap();
        prop_assert!(rec.corruption.is_none());
        let all: Vec<_> = rec.telemetry.iter().chain(&rec.uncommitted_telemetry).collect();
        prop_assert_eq!(all.len(), blobs.len());
        for (got, (blob, ts, _)) in all.iter().zip(&blobs) {
            prop_assert_eq!(&got.payload, blob);
            prop_assert_eq!(got.at, Instant(*ts));
        }
        let committed_len = blobs.iter().rposition(|(_, _, c)| *c).map_or(0, |i| i + 1);
        prop_assert_eq!(rec.telemetry.len(), committed_len);
    }
}
