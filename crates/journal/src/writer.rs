//! The append side of the journal.

use std::fmt;

use rossl_model::Instant;
use rossl_trace::Marker;

use crate::codec::encode_marker;
use crate::crc;
use crate::{KIND_COMMIT, KIND_EVENT, KIND_TELEMETRY, MAGIC, MAX_RECORD_LEN};

/// A record the writer refused because its payload exceeds
/// [`MAX_RECORD_LEN`]: [`recover`](crate::recover) would stop at such a
/// frame as [`OversizedRecord`](crate::CorruptionKind::OversizedRecord)
/// and lose every record after it. The journal is left as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordTooLarge {
    /// The refused record's payload length, in bytes.
    pub len: usize,
}

impl fmt::Display for RecordTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "record payload of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
            self.len
        )
    }
}

impl std::error::Error for RecordTooLarge {}

/// An in-memory journal being built record by record.
///
/// The writer owns the byte buffer; deployments that persist to real
/// storage flush [`JournalWriter::bytes`] after each append (write-ahead
/// discipline: the marker reaches the journal *before* the scheduler
/// takes the step it describes). Each record is encoded straight into
/// that buffer, and its length is patched in once the payload is
/// written. The writer refuses a record whose payload exceeds
/// [`MAX_RECORD_LEN`], so every journal it writes reads back whole;
/// all other validation lives on the [`recover`](crate::recover) side,
/// which must survive arbitrary bytes anyway.
#[derive(Debug, Clone)]
pub struct JournalWriter {
    buf: Vec<u8>,
    events_written: u64,
    commits_written: u64,
}

impl JournalWriter {
    /// Starts a fresh journal containing only the magic header.
    pub fn new() -> JournalWriter {
        JournalWriter {
            buf: MAGIC.to_vec(),
            events_written: 0,
            commits_written: 0,
        }
    }

    /// Opens a `kind` record and returns its offset; the caller writes
    /// the payload after it. The length field stays zero until
    /// [`JournalWriter::seal`].
    fn begin(&mut self, kind: u8) -> usize {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[kind, 0, 0, 0, 0]);
        start
    }

    /// Closes the record opened at `start`: patches in its length and
    /// appends the CRC over kind, length and payload. A payload over
    /// the cap is cut off again instead.
    fn seal(&mut self, start: usize) -> Result<(), RecordTooLarge> {
        let len = self.buf.len() - start - 5;
        if len > MAX_RECORD_LEN as usize {
            self.buf.truncate(start);
            return Err(RecordTooLarge { len });
        }
        let [l0, l1, l2, l3] = (len as u32).to_le_bytes();
        let header = [self.buf[start], l0, l1, l2, l3];
        self.buf[start + 1..start + 5].copy_from_slice(&header[1..]);
        // The header is hashed from these values, not read back: a word
        // load over bytes that two writes stored a moment ago must wait
        // for both to reach the cache, and reading the header back made
        // a commit slower than a byte-at-a-time CRC.
        let crc = !crc::update(crc::update(!0, &header), &self.buf[start + 5..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        Ok(())
    }

    /// Appends one `(marker, timestamp)` event record.
    ///
    /// # Errors
    ///
    /// [`RecordTooLarge`] when the encoded event exceeds
    /// [`MAX_RECORD_LEN`] (a job payload of about 1 MiB); nothing is
    /// written then.
    pub fn append(&mut self, marker: &Marker, at: Instant) -> Result<(), RecordTooLarge> {
        let start = self.begin(KIND_EVENT);
        self.buf.extend_from_slice(&at.0.to_le_bytes());
        encode_marker(marker, &mut self.buf);
        self.seal(start)?;
        self.events_written += 1;
        Ok(())
    }

    /// Appends one telemetry record: an opaque snapshot blob (the
    /// `rossl-obs` binary format) stamped with the instant it was
    /// taken. Telemetry rides in the same commit discipline as events:
    /// records after the last commit are reported as uncommitted by
    /// recovery.
    ///
    /// # Errors
    ///
    /// [`RecordTooLarge`] when the stamped blob exceeds
    /// [`MAX_RECORD_LEN`]; nothing is written then.
    pub fn append_telemetry(&mut self, snapshot: &[u8], at: Instant) -> Result<(), RecordTooLarge> {
        let start = self.begin(KIND_TELEMETRY);
        self.buf.extend_from_slice(&at.0.to_le_bytes());
        self.buf.extend_from_slice(snapshot);
        self.seal(start)
    }

    /// Appends a commit record sealing every event written so far.
    pub fn commit(&mut self) {
        let start = self.begin(KIND_COMMIT);
        self.buf
            .extend_from_slice(&self.events_written.to_le_bytes());
        self.seal(start).expect("a commit payload is 8 bytes");
        self.commits_written += 1;
    }

    /// Number of event records appended so far (committed or not).
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Number of commit records sealed so far — tracing annotates each
    /// journal-commit span with this sequence number.
    pub fn commits_written(&self) -> u64 {
        self.commits_written
    }

    /// The journal bytes accumulated so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the journal bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for JournalWriter {
    fn default() -> JournalWriter {
        JournalWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover;
    use rossl_model::{Job, JobId, SocketId, TaskId};

    /// A `ReadEnd` whose job carries `data_len` payload bytes.
    fn read_end(data_len: usize) -> Marker {
        Marker::ReadEnd {
            sock: SocketId(0),
            job: Some(Job::new(JobId(1), TaskId(0), vec![7; data_len])),
        }
    }

    /// The largest payload the text codec accepts (1 MiB) used to make
    /// a 1,048,613-byte event that `recover` rejects as oversized,
    /// taking every later commit with it. The writer refuses it and
    /// the journal stays whole.
    #[test]
    fn an_oversized_event_is_refused_and_later_commits_survive() {
        let mut w = JournalWriter::new();
        w.append(&Marker::ReadStart, Instant(1)).unwrap();
        w.commit();
        let before = w.bytes().to_vec();
        assert_eq!(
            w.append(&read_end(1 << 20), Instant(2)),
            Err(RecordTooLarge { len: 1_048_613 })
        );
        assert_eq!(w.bytes(), &before[..], "a refused record leaves no bytes");
        assert_eq!(w.events_written(), 1);
        w.append(&Marker::Selection, Instant(3)).unwrap();
        w.commit();

        let rec = recover(w.bytes()).unwrap();
        assert!(rec.corruption.is_none(), "{:?}", rec.corruption);
        let markers: Vec<_> = rec.committed.iter().map(|e| e.marker.clone()).collect();
        assert_eq!(markers, [Marker::ReadStart, Marker::Selection]);
    }

    /// The cap is inclusive: a payload of exactly `MAX_RECORD_LEN`
    /// bytes is written and read back, one more is refused.
    #[test]
    fn the_record_cap_is_exact() {
        // 8 (timestamp) + 1 (tag) + 8 (socket) + 20 (job header).
        let overhead = 37;
        let fits = MAX_RECORD_LEN as usize - overhead;
        let mut w = JournalWriter::new();
        w.append(&read_end(fits), Instant(1)).unwrap();
        assert_eq!(
            w.append(&read_end(fits + 1), Instant(2)),
            Err(RecordTooLarge {
                len: MAX_RECORD_LEN as usize + 1
            })
        );
        w.commit();
        let rec = recover(w.bytes()).unwrap();
        assert!(rec.corruption.is_none());
        assert_eq!(
            rec.committed,
            [crate::TimedEvent {
                marker: read_end(fits),
                at: Instant(1)
            }]
        );
    }

    #[test]
    fn an_oversized_telemetry_blob_is_refused() {
        let mut w = JournalWriter::new();
        let blob = vec![0u8; MAX_RECORD_LEN as usize - 8];
        w.append_telemetry(&blob, Instant(1)).unwrap();
        let len = w.bytes().len();
        assert_eq!(
            w.append_telemetry(&[0; 1 << 20], Instant(2)),
            Err(RecordTooLarge { len: (1 << 20) + 8 })
        );
        assert_eq!(w.bytes().len(), len);
        w.commit();
        let rec = recover(w.bytes()).unwrap();
        assert!(rec.corruption.is_none());
        assert_eq!(rec.telemetry.len(), 1);
        assert_eq!(rec.telemetry[0].payload, blob);
    }
}
