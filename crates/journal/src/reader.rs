//! The recovery side of the journal: scan arbitrary bytes, salvage the
//! longest valid prefix, and report exactly where and why scanning
//! stopped.

use std::fmt;

use rossl_model::Instant;
use rossl_trace::Marker;

use crate::codec::{decode_marker, MarkerDecodeError};
use crate::crc::crc32;
use crate::{KIND_COMMIT, KIND_EVENT, KIND_TELEMETRY, MAGIC, MAX_RECORD_LEN};

/// One journaled marker with the instant it was recorded at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// The marker the scheduler emitted.
    pub marker: Marker,
    /// When it was emitted.
    pub at: Instant,
}

/// Why scanning a journal stopped before its physical end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptionKind {
    /// The journal ends mid-record — the classic torn write of a crash
    /// that interrupted an append.
    TornTail {
        /// Bytes the frame header promised.
        expected: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A frame's stored CRC does not match the recomputed one — a bit
    /// flip somewhere in kind, length or payload.
    BadChecksum {
        /// The checksum stored in the frame.
        stored: u32,
        /// The checksum recomputed over the frame bytes.
        computed: u32,
    },
    /// A frame declares a payload larger than [`MAX_RECORD_LEN`];
    /// rejected before any allocation.
    OversizedRecord {
        /// The declared payload length.
        declared: u32,
    },
    /// An event record whose payload does not decode to a marker.
    MalformedEvent(MarkerDecodeError),
    /// A commit record whose payload is the wrong size or whose sealed
    /// count disagrees with the events actually seen.
    MalformedCommit,
    /// A telemetry record too short to carry its timestamp.
    MalformedTelemetry {
        /// The payload length found (a valid record needs ≥ 8 bytes).
        len: usize,
    },
}

/// A typed description of journal corruption: what went wrong and the
/// byte offset of the offending frame. Everything before `offset`
/// remains a valid, salvageable prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Byte offset (from the start of the journal) of the bad frame.
    pub offset: usize,
    /// What was wrong with it.
    pub kind: CorruptionKind,
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: ", self.offset)?;
        match &self.kind {
            CorruptionKind::TornTail {
                expected,
                remaining,
            } => write!(f, "torn tail (frame needs {expected} bytes, {remaining} remain)"),
            CorruptionKind::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CorruptionKind::OversizedRecord { declared } => {
                write!(f, "declared payload length {declared} exceeds the record cap")
            }
            CorruptionKind::MalformedEvent(e) => write!(f, "malformed event: {e}"),
            CorruptionKind::MalformedCommit => write!(f, "malformed commit record"),
            CorruptionKind::MalformedTelemetry { len } => {
                write!(f, "telemetry record payload too short ({len} bytes)")
            }
        }
    }
}

/// A journal with no salvageable prefix at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The bytes do not start with the `RSSLWAL1` magic (or are shorter
    /// than it) — this is not a journal, so there is no prefix to
    /// recover.
    BadHeader,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadHeader => write!(f, "missing or damaged journal magic header"),
        }
    }
}

impl std::error::Error for JournalError {}

/// One journaled telemetry snapshot: an opaque payload (the
/// `rossl-obs` binary snapshot format) with the instant it was taken.
/// The journal does not interpret the blob — `rossl-obs` owns its
/// layout — so telemetry framing stays stable even as the metric set
/// evolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// When the snapshot was taken.
    pub at: Instant,
    /// The encoded snapshot bytes.
    pub payload: Vec<u8>,
}

/// A record the scanner stepped over because its kind byte is not one
/// this build understands (forward compatibility: its checksum was
/// valid, so it was written by a newer writer, not damaged in place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedRecord {
    /// Byte offset of the skipped frame.
    pub offset: usize,
    /// The unrecognized kind byte.
    pub kind: u8,
    /// The frame's declared payload length.
    pub len: u32,
}

/// The result of recovering a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Events sealed by the last valid commit record — the prefix a
    /// supervisor may trust when rebuilding scheduler state.
    pub committed: Vec<TimedEvent>,
    /// Valid event frames after the last commit. They were written but
    /// never sealed; recovery protocols requiring atomicity with
    /// environment effects must discard them.
    pub uncommitted: Vec<TimedEvent>,
    /// Telemetry snapshots sealed by the last valid commit record.
    pub telemetry: Vec<TelemetryRecord>,
    /// Valid telemetry frames after the last commit (written, never
    /// sealed).
    pub uncommitted_telemetry: Vec<TelemetryRecord>,
    /// Checksum-valid records with kind bytes this build does not
    /// understand, skipped in place (the scan continued past them).
    pub skipped: Vec<SkippedRecord>,
    /// Why scanning stopped before the physical end, if it did.
    pub corruption: Option<Corruption>,
}

/// Scans `bytes` and salvages the longest valid prefix.
///
/// Never panics and never allocates more than the frame it is currently
/// validating: every length field is checked against [`MAX_RECORD_LEN`]
/// and the bytes actually remaining before use.
///
/// # Errors
///
/// Only a missing or damaged magic header is an error; all other damage
/// is reported in-band as [`Recovered::corruption`] alongside the
/// salvaged prefix.
pub fn recover(bytes: &[u8]) -> Result<Recovered, JournalError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(JournalError::BadHeader);
    }

    let mut events: Vec<TimedEvent> = Vec::new();
    let mut telemetry: Vec<TelemetryRecord> = Vec::new();
    let mut skipped: Vec<SkippedRecord> = Vec::new();
    let mut committed_len = 0usize;
    let mut committed_telemetry_len = 0usize;
    let mut corruption = None;
    let mut pos = MAGIC.len();

    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        // Frame header: kind (1) + len (4).
        if remaining < 5 {
            corruption = Some(Corruption {
                offset: pos,
                kind: CorruptionKind::TornTail {
                    expected: 5,
                    remaining,
                },
            });
            break;
        }
        let kind = bytes[pos];
        let len = u32::from_le_bytes([
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
        ]);
        if len > MAX_RECORD_LEN {
            corruption = Some(Corruption {
                offset: pos,
                kind: CorruptionKind::OversizedRecord { declared: len },
            });
            break;
        }
        let frame_len = 5 + len as usize + 4;
        if remaining < frame_len {
            corruption = Some(Corruption {
                offset: pos,
                kind: CorruptionKind::TornTail {
                    expected: frame_len,
                    remaining,
                },
            });
            break;
        }
        let body = &bytes[pos..pos + 5 + len as usize];
        let stored = u32::from_le_bytes([
            bytes[pos + 5 + len as usize],
            bytes[pos + 6 + len as usize],
            bytes[pos + 7 + len as usize],
            bytes[pos + 8 + len as usize],
        ]);
        let computed = crc32(body);
        if stored != computed {
            corruption = Some(Corruption {
                offset: pos,
                kind: CorruptionKind::BadChecksum { stored, computed },
            });
            break;
        }
        let payload = &body[5..];
        match kind {
            KIND_EVENT => {
                if payload.len() < 8 {
                    corruption = Some(Corruption {
                        offset: pos,
                        kind: CorruptionKind::MalformedEvent(MarkerDecodeError::Truncated {
                            offset: payload.len(),
                        }),
                    });
                    break;
                }
                let ts = u64::from_le_bytes([
                    payload[0], payload[1], payload[2], payload[3], payload[4], payload[5],
                    payload[6], payload[7],
                ]);
                match decode_marker(&payload[8..]) {
                    Ok(marker) => events.push(TimedEvent {
                        marker,
                        at: Instant(ts),
                    }),
                    Err(e) => {
                        corruption = Some(Corruption {
                            offset: pos,
                            kind: CorruptionKind::MalformedEvent(e),
                        });
                        break;
                    }
                }
            }
            KIND_COMMIT => {
                if payload.len() != 8
                    || u64::from_le_bytes([
                        payload[0], payload[1], payload[2], payload[3], payload[4], payload[5],
                        payload[6], payload[7],
                    ]) != events.len() as u64
                {
                    corruption = Some(Corruption {
                        offset: pos,
                        kind: CorruptionKind::MalformedCommit,
                    });
                    break;
                }
                committed_len = events.len();
                committed_telemetry_len = telemetry.len();
            }
            KIND_TELEMETRY => {
                if payload.len() < 8 {
                    corruption = Some(Corruption {
                        offset: pos,
                        kind: CorruptionKind::MalformedTelemetry {
                            len: payload.len(),
                        },
                    });
                    break;
                }
                let ts = u64::from_le_bytes([
                    payload[0], payload[1], payload[2], payload[3], payload[4], payload[5],
                    payload[6], payload[7],
                ]);
                telemetry.push(TelemetryRecord {
                    at: Instant(ts),
                    payload: payload[8..].to_vec(),
                });
            }
            // Forward compatibility: the checksum already proved this
            // frame was written intact, so an unrecognized kind byte
            // means a newer writer, not damage. Step over it and keep
            // scanning — the frame length is trustworthy for the same
            // reason.
            other => {
                skipped.push(SkippedRecord {
                    offset: pos,
                    kind: other,
                    len,
                });
            }
        }
        pos += frame_len;
    }

    let uncommitted = events.split_off(committed_len);
    let uncommitted_telemetry = telemetry.split_off(committed_telemetry_len);
    Ok(Recovered {
        committed: events,
        uncommitted,
        telemetry,
        uncommitted_telemetry,
        skipped,
        corruption,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JournalWriter;
    use rossl_model::{Job, JobId, SocketId, TaskId};

    fn sample_journal() -> Vec<u8> {
        let j = Job::new(JobId(1), TaskId(0), vec![0, 9]);
        let mut w = JournalWriter::new();
        w.append(&Marker::ReadStart, Instant(1)).unwrap();
        w.append(
            &Marker::ReadEnd {
                sock: SocketId(0),
                job: Some(j.clone()),
            },
            Instant(2),
        ).unwrap();
        w.commit();
        w.append(&Marker::Selection, Instant(3)).unwrap();
        w.append(&Marker::Dispatch(j), Instant(4)).unwrap();
        w.commit();
        w.append(&Marker::ReadStart, Instant(5)).unwrap();
        w.into_bytes()
    }

    #[test]
    fn clean_journal_recovers_fully() {
        let rec = recover(&sample_journal()).unwrap();
        assert_eq!(rec.committed.len(), 4);
        assert_eq!(rec.uncommitted.len(), 1);
        assert_eq!(rec.uncommitted[0].marker, Marker::ReadStart);
        assert_eq!(rec.committed[3].at, Instant(4));
        assert!(rec.corruption.is_none());
    }

    #[test]
    fn empty_journal_is_valid() {
        let rec = recover(MAGIC).unwrap();
        assert!(rec.committed.is_empty());
        assert!(rec.uncommitted.is_empty());
        assert!(rec.corruption.is_none());
    }

    #[test]
    fn bad_header_is_a_hard_error() {
        assert_eq!(recover(b""), Err(JournalError::BadHeader));
        assert_eq!(recover(b"RSSLWAL"), Err(JournalError::BadHeader));
        assert_eq!(recover(b"NOTAWAL1rest"), Err(JournalError::BadHeader));
    }

    #[test]
    fn truncation_at_every_offset_yields_a_valid_prefix() {
        let bytes = sample_journal();
        let full = recover(&bytes).unwrap();
        for cut in MAGIC.len()..bytes.len() {
            let rec = recover(&bytes[..cut]).unwrap();
            // The salvaged events are always a prefix of the full set.
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
            assert!(got.len() <= all.len());
            assert_eq!(&all[..got.len()], &got[..], "cut at {cut}");
            // A cut strictly inside a record surfaces as a torn tail.
            if cut != bytes.len() {
                match rec.corruption {
                    None | Some(Corruption {
                        kind: CorruptionKind::TornTail { .. },
                        ..
                    }) => {}
                    other => panic!("cut at {cut}: unexpected corruption {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_harmless() {
        let bytes = sample_journal();
        for byte in MAGIC.len()..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                // Must not panic; must either report corruption or —
                // never — silently decode to the same events.
                let rec = recover(&flipped).unwrap();
                assert!(
                    rec.corruption.is_some(),
                    "flip at {byte}:{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn flipped_magic_is_bad_header() {
        let mut bytes = sample_journal();
        bytes[0] ^= 0x01;
        assert_eq!(recover(&bytes), Err(JournalError::BadHeader));
    }

    #[test]
    fn oversized_length_field_is_rejected_before_allocation() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(KIND_EVENT);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let rec = recover(&bytes).unwrap();
        assert_eq!(
            rec.corruption,
            Some(Corruption {
                offset: MAGIC.len(),
                kind: CorruptionKind::OversizedRecord { declared: u32::MAX },
            })
        );
    }

    #[test]
    fn unknown_record_kind_with_valid_crc_is_skipped_not_fatal() {
        // An unknown-but-intact record must not end the scan: the
        // event after it is still recovered, and the skip is reported.
        let mut bytes = MAGIC.to_vec();
        let start = bytes.len();
        bytes.push(9); // unknown kind
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"xyz");
        let crc = crc32(&bytes[start..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let mut w = JournalWriter::new();
        w.append(&Marker::ReadStart, Instant(7)).unwrap();
        w.commit();
        bytes.extend_from_slice(&w.into_bytes()[MAGIC.len()..]);

        let rec = recover(&bytes).unwrap();
        assert!(rec.corruption.is_none());
        assert_eq!(
            rec.skipped,
            vec![SkippedRecord {
                offset: start,
                kind: 9,
                len: 3,
            }]
        );
        assert_eq!(rec.committed.len(), 1);
        assert_eq!(rec.committed[0].at, Instant(7));
    }

    #[test]
    fn telemetry_records_ride_alongside_events_and_commit_seals_both() {
        let mut w = JournalWriter::new();
        w.append(&Marker::ReadStart, Instant(1)).unwrap();
        w.append_telemetry(b"snap-one", Instant(2)).unwrap();
        w.commit();
        w.append_telemetry(b"snap-two", Instant(3)).unwrap();
        let rec = recover(&w.into_bytes()).unwrap();
        assert_eq!(rec.committed.len(), 1);
        assert_eq!(
            rec.telemetry,
            vec![TelemetryRecord {
                at: Instant(2),
                payload: b"snap-one".to_vec(),
            }]
        );
        assert_eq!(rec.uncommitted_telemetry.len(), 1);
        assert_eq!(rec.uncommitted_telemetry[0].at, Instant(3));
        assert!(rec.corruption.is_none());
        assert!(rec.skipped.is_empty());
    }

    #[test]
    fn short_telemetry_record_is_malformed() {
        // A telemetry frame too short for its timestamp.
        let mut bytes = MAGIC.to_vec();
        let start = bytes.len();
        bytes.push(super::KIND_TELEMETRY);
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let crc = crc32(&bytes[start..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let rec = recover(&bytes).unwrap();
        assert_eq!(
            rec.corruption,
            Some(Corruption {
                offset: start,
                kind: CorruptionKind::MalformedTelemetry { len: 4 },
            })
        );
    }

    #[test]
    fn commit_count_mismatch_is_malformed() {
        // A commit claiming 5 sealed events when none were written.
        let mut bytes = MAGIC.to_vec();
        let start = bytes.len();
        bytes.push(KIND_COMMIT);
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        let crc = crc32(&bytes[start..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let rec = recover(&bytes).unwrap();
        assert_eq!(
            rec.corruption,
            Some(Corruption {
                offset: start,
                kind: CorruptionKind::MalformedCommit,
            })
        );
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        // A fixed pile of adversarial byte strings, all prefixed with
        // valid magic so they reach the frame scanner.
        let payloads: [&[u8]; 6] = [
            &[0xff; 64],
            &[0x01, 0xff, 0xff, 0xff, 0x7f],
            &[0x02, 0x00, 0x00, 0x00, 0x00],
            &[0x01, 0x08, 0x00, 0x00, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0],
            &[0x00],
            &[],
        ];
        for p in payloads {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(p);
            let _ = recover(&bytes).unwrap();
        }
    }
}
