//! A durable, append-only write-ahead journal for marker traces.
//!
//! The paper's headline theorem (Thm. 5.1) reasons about traces the
//! scheduler actually completes; a crash mid-loop would lose the trace
//! and with it all verification evidence. This crate gives Rössl a
//! crash-recovery substrate: every marker (with its timestamp) is
//! appended to a checksummed binary journal *before* the scheduler takes
//! its next step, and an explicit commit record seals each consistent
//! prefix. After a crash, [`recover`] reads back the longest committed
//! prefix — tolerating torn tails (a crash mid-write) and bit flips
//! (storage corruption) — and the `rossl` supervisor rebuilds the
//! scheduler state from it.
//!
//! # Format
//!
//! ```text
//! journal   ≜ magic record*
//! magic     ≜ "RSSLWAL1"                        (8 bytes)
//! record    ≜ kind:u8 len:u32le payload[len] crc:u32le
//! kind      ≜ 1 (event) | 2 (commit) | 3 (telemetry)
//! event     ≜ ts:u64le marker
//! commit    ≜ count:u64le                        (events sealed so far)
//! telemetry ≜ ts:u64le blob                      (opaque `rossl-obs` snapshot)
//! marker    ≜ tag:u8 fields…                     (see `codec`)
//! ```
//!
//! The CRC-32 (IEEE) covers `kind`, `len` and the payload, so a flip in
//! any of the three is detected. `len` is validated against both
//! [`MAX_RECORD_LEN`] and the bytes actually remaining **before** any
//! allocation happens, so adversarial length fields can neither OOM nor
//! panic the reader. The writer holds itself to the same cap: it
//! refuses a record over [`MAX_RECORD_LEN`] with [`RecordTooLarge`]
//! instead of writing a frame the reader would stop at.
//!
//! # Recovery semantics
//!
//! [`recover`] never panics on any byte string. It returns:
//!
//! * the **committed** events (sealed by the last valid commit record),
//! * the **uncommitted** tail events (valid frames after the last
//!   commit — present but not sealed; recovery protocols that require
//!   atomicity with environment effects must discard them),
//! * the **telemetry** snapshots (committed and uncommitted), carried
//!   as opaque blobs under the same commit discipline,
//! * an optional typed [`Corruption`] describing why scanning stopped
//!   early (torn tail, checksum mismatch, oversized or malformed
//!   record) with the byte offset of the offending frame.
//!
//! A checksum-valid frame with an *unknown kind byte* is **not**
//! corruption: its CRC proves it was written intact, so it must come
//! from a newer writer. The scanner steps over it, records a
//! [`SkippedRecord`], and keeps going — forward compatibility that
//! lets old readers survive journals with record kinds minted after
//! them (exactly how kind 3, telemetry, was introduced).
//!
//! Only a missing or damaged magic header is a hard [`JournalError`] —
//! there is no prefix to salvage in that case.
//!
//! # Examples
//!
//! ```
//! use rossl_journal::{recover, JournalWriter};
//! use rossl_model::Instant;
//! use rossl_trace::Marker;
//!
//! let mut w = JournalWriter::new();
//! w.append(&Marker::ReadStart, Instant(3))?;
//! w.commit();
//! let bytes = w.into_bytes();
//!
//! let rec = recover(&bytes)?;
//! assert_eq!(rec.committed.len(), 1);
//! assert_eq!(rec.committed[0].marker, Marker::ReadStart);
//! assert!(rec.corruption.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod codec;
mod crc;
mod reader;
mod writer;

pub use codec::{decode_marker, encode_marker, MarkerDecodeError};
pub use crc::crc32;
pub use reader::{
    recover, Corruption, CorruptionKind, JournalError, Recovered, SkippedRecord, TelemetryRecord,
    TimedEvent,
};
pub use writer::{JournalWriter, RecordTooLarge};

/// The 8-byte magic prefix of every journal.
pub const MAGIC: &[u8; 8] = b"RSSLWAL1";

/// Record kind: one journaled `(marker, timestamp)` event.
pub const KIND_EVENT: u8 = 1;
/// Record kind: a commit sealing every event written so far.
pub const KIND_COMMIT: u8 = 2;
/// Record kind: an opaque timestamped telemetry snapshot (`rossl-obs`
/// binary format).
pub const KIND_TELEMETRY: u8 = 3;

/// Upper bound on a single record's payload length. Anything larger is
/// reported as [`CorruptionKind::OversizedRecord`] *before* allocation:
/// a flipped or adversarial length field cannot make the reader reserve
/// gigabytes. [`JournalWriter`] refuses such records with
/// [`RecordTooLarge`].
pub const MAX_RECORD_LEN: u32 = 1 << 20;
