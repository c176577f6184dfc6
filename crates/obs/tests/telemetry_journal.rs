//! The telemetry ⇄ journal round trip (ISSUE 4 acceptance criterion):
//! a metrics snapshot encoded with this crate's binary codec, appended
//! to the `rossl-journal` WAL as a `KIND_TELEMETRY` record and sealed
//! by a commit, survives a crash — `recover()` hands the blob back
//! byte-for-byte and decoding restores exactly the last committed
//! metrics state, with the uncommitted tail kept apart.
//!
//! The journal treats the blob as opaque; only this crate knows the
//! codec. That separation is what the test exercises end to end.

use rossl_journal::{recover, JournalWriter, KIND_TELEMETRY};
use rossl_model::Instant;
use rossl_obs::{decode_snapshot, encode_snapshot, Registry, Snapshot};
use rossl_trace::Marker;

/// A registry with one instrument of every kind, at state "A".
fn populated_registry() -> Registry {
    let registry = Registry::new();
    registry.counter("sched.steps").add(128);
    registry.gauge("obs.margin.control").set(42);
    registry.high_water("sched.queue_high_water").observe(7);
    let hist = registry.histogram("obs.response.control");
    for v in [3, 30, 300, 3_000] {
        hist.observe(v);
    }
    registry
}

/// Advances the registry to a distinct state "B".
fn mutate(registry: &Registry) {
    registry.counter("sched.steps").add(1_000);
    registry.gauge("obs.margin.control").set(-5);
    registry.histogram("obs.response.control").observe(9_999);
    registry.counter("sched.sheds").inc();
}

fn telemetry_blob(registry: &Registry) -> (Snapshot, Vec<u8>) {
    let snapshot = registry.snapshot();
    let blob = encode_snapshot(&snapshot);
    (snapshot, blob)
}

#[test]
fn crash_recovery_restores_the_last_committed_metrics_state() {
    let registry = populated_registry();
    let (committed_state, blob_a) = telemetry_blob(&registry);

    let mut w = JournalWriter::new();
    w.append(&Marker::ReadStart, Instant(1)).unwrap();
    w.append_telemetry(&blob_a, Instant(10)).unwrap();
    w.commit();

    // More work happens after the commit: the journal sees an event, a
    // fresher snapshot — and then the process dies mid-write.
    mutate(&registry);
    let (uncommitted_state, blob_b) = telemetry_blob(&registry);
    w.append(&Marker::Idling, Instant(15)).unwrap();
    w.append_telemetry(&blob_b, Instant(20)).unwrap();
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&[KIND_TELEMETRY, 0xEE, 0xEE]); // torn write

    let rec = recover(&bytes).expect("header intact");
    assert!(rec.corruption.is_some(), "the torn tail must be reported");

    // The committed prefix holds exactly snapshot A, timestamped.
    assert_eq!(rec.telemetry.len(), 1);
    assert_eq!(rec.telemetry[0].at, Instant(10));
    let restored = decode_snapshot(&rec.telemetry[0].payload).expect("valid blob");
    assert_eq!(restored, committed_state);
    assert_eq!(restored.counter("sched.steps"), Some(128));
    assert_eq!(restored.gauge("obs.margin.control"), Some(42));
    assert_eq!(
        restored.histogram("obs.response.control").map(|h| h.count),
        Some(4)
    );
    // State B never made it into the committed prefix...
    assert_eq!(restored.counter("sched.sheds"), None);

    // ...but the complete-but-unsealed record is salvaged separately.
    assert_eq!(rec.uncommitted_telemetry.len(), 1);
    let tail = decode_snapshot(&rec.uncommitted_telemetry[0].payload).expect("valid blob");
    assert_eq!(tail, uncommitted_state);
    assert_eq!(tail.counter("sched.steps"), Some(1_128));
}

#[test]
fn restored_snapshot_can_repopulate_a_fresh_registry() {
    // The restart path: decode the committed blob and seed a new
    // registry from it, so gauges and high-water marks carry over.
    let registry = populated_registry();
    let (_, blob) = telemetry_blob(&registry);
    let mut w = JournalWriter::new();
    w.append_telemetry(&blob, Instant(5)).unwrap();
    w.commit();
    let rec = recover(&w.into_bytes()).expect("header intact");
    let restored = decode_snapshot(&rec.telemetry[0].payload).expect("valid blob");

    let fresh = Registry::new();
    for metric in &restored.metrics {
        match &metric.value {
            rossl_obs::MetricValue::Counter(v) => fresh.counter(&metric.name).add(*v),
            rossl_obs::MetricValue::Gauge(v) => fresh.gauge(&metric.name).set(*v),
            rossl_obs::MetricValue::HighWater(v) => fresh.high_water(&metric.name).observe(*v),
            rossl_obs::MetricValue::Histogram(h) => {
                // Re-observing bucket floors preserves count and bucket
                // layout (floors are fixed points of the bucketing).
                let hist = fresh.histogram(&metric.name);
                for &(idx, count) in &h.buckets {
                    for _ in 0..count {
                        hist.observe(rossl_obs::bucket_floor(idx as usize));
                    }
                }
            }
        }
    }
    let snap = fresh.snapshot();
    assert_eq!(snap.counter("sched.steps"), Some(128));
    assert_eq!(snap.gauge("obs.margin.control"), Some(42));
    assert_eq!(snap.high_water("sched.queue_high_water"), Some(7));
    let original = restored.histogram("obs.response.control").unwrap();
    let repopulated = snap.histogram("obs.response.control").unwrap();
    assert_eq!(repopulated.count, original.count);
    assert_eq!(repopulated.buckets, original.buckets);
}

#[test]
fn multiple_commits_keep_the_latest_sealed_snapshot_last() {
    // Periodic exports: each commit seals everything before it; the
    // last committed telemetry record is the state to restore.
    let registry = populated_registry();
    let mut w = JournalWriter::new();
    let mut states = Vec::new();
    for round in 0..3u64 {
        mutate(&registry);
        let (state, blob) = telemetry_blob(&registry);
        w.append_telemetry(&blob, Instant(100 + round)).unwrap();
        w.commit();
        states.push(state);
    }
    let rec = recover(&w.into_bytes()).expect("header intact");
    assert!(rec.corruption.is_none());
    assert_eq!(rec.telemetry.len(), 3);
    let last = decode_snapshot(&rec.telemetry[2].payload).expect("valid blob");
    assert_eq!(&last, states.last().unwrap());
    assert_eq!(last.counter("sched.steps"), Some(128 + 3_000));
    assert_eq!(last.counter("sched.sheds"), Some(3));
}
