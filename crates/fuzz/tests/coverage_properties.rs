//! The coverage bitmaps against a set model (DESIGN §8.2).
//!
//! `CoverageSample` and `CoverageMap` keep each channel as a fixed-size
//! bitmap. The reference here keeps the same points in `HashSet`s, the
//! way the channels were first written: slot `d % DIGEST_SLOTS`, the
//! kind-code pair of every window of two markers, and `(channel,
//! bucket_index(ticks))` with the trace length on `TRACE_LEN`. Every
//! merge must report novelty exactly when a set insert would have, and
//! the bitmaps must hold exactly the points the sets hold.

use std::collections::HashSet;

use proptest::prelude::*;

use rossl_fuzz::{channel, CoverageMap, CoverageSample, DIGEST_SLOTS};
use rossl_model::{Job, JobId, Mode, SocketId, TaskId};
use rossl_obs::bucket_index;
use rossl_trace::{Marker, MarkerKind};

/// The reference: one set per channel.
#[derive(Debug, Default)]
struct SetModel {
    digests: HashSet<u64>,
    bigrams: HashSet<(u8, u8)>,
    buckets: HashSet<(u8, usize)>,
}

impl SetModel {
    /// Adds every point of `other`; `true` if any was new.
    fn merge(&mut self, other: &SetModel) -> bool {
        let mut novel = false;
        for d in &other.digests {
            novel |= self.digests.insert(*d);
        }
        for b in &other.bigrams {
            novel |= self.bigrams.insert(*b);
        }
        for b in &other.buckets {
            novel |= self.buckets.insert(*b);
        }
        novel
    }

    fn counts(&self) -> (usize, usize, usize) {
        (self.digests.len(), self.bigrams.len(), self.buckets.len())
    }
}

fn kind_code(kind: MarkerKind) -> u8 {
    match kind {
        MarkerKind::ReadStart => 0,
        MarkerKind::ReadEndSuccess => 1,
        MarkerKind::ReadEndFailure => 2,
        MarkerKind::Selection => 3,
        MarkerKind::Dispatch => 4,
        MarkerKind::Execution => 5,
        MarkerKind::Completion => 6,
        MarkerKind::Idling => 7,
        MarkerKind::ModeSwitch => 8,
    }
}

/// A marker of the `i`-th kind (the protocol does not matter here).
fn marker(i: usize) -> Marker {
    let job = Job::new(JobId(i as u64), TaskId(0), vec![1]);
    match i {
        0 => Marker::ReadStart,
        1 => Marker::ReadEnd {
            sock: SocketId(0),
            job: Some(job),
        },
        2 => Marker::ReadEnd {
            sock: SocketId(1),
            job: None,
        },
        3 => Marker::Selection,
        4 => Marker::Dispatch(job),
        5 => Marker::Execution(job),
        6 => Marker::Completion(job),
        7 => Marker::Idling,
        _ => Marker::ModeSwitch {
            from: Mode::Hi,
            to: Mode::Lo,
        },
    }
}

/// What one execution feeds its sample: digests, trace segments and
/// `(channel, ticks)` latencies.
type Feed = (Vec<u64>, Vec<Vec<usize>>, Vec<(u8, u64)>);

/// Small values collide often, so merges also report stale points;
/// full-range values reach the top slot and the top bucket.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..48, 0u64..=u64::MAX]
}

fn feed() -> impl Strategy<Value = Feed> {
    (
        proptest::collection::vec(value(), 0..24),
        proptest::collection::vec(proptest::collection::vec(0usize..9, 0..10), 0..3),
        proptest::collection::vec((0u8..4, value()), 0..8),
    )
}

/// Feeds one execution to the bitmap sample and to the set model.
fn sample(feed: &Feed) -> (CoverageSample, SetModel) {
    let (digests, traces, latencies) = feed;
    let mut bits = CoverageSample::default();
    let mut sets = SetModel::default();
    for &d in digests {
        bits.digest(d);
        sets.digests.insert(d % DIGEST_SLOTS);
    }
    for kinds in traces {
        let markers: Vec<Marker> = kinds.iter().map(|&i| marker(i)).collect();
        bits.trace(&markers);
        for w in markers.windows(2) {
            sets.bigrams
                .insert((kind_code(w[0].kind()), kind_code(w[1].kind())));
        }
        sets.buckets
            .insert((channel::TRACE_LEN, bucket_index(markers.len() as u64)));
    }
    for &(ch, ticks) in latencies {
        bits.latency(ch, ticks);
        sets.buckets.insert((ch, bucket_index(ticks)));
    }
    (bits, sets)
}

fn sorted<T: Ord + Copy>(set: &HashSet<T>) -> Vec<T> {
    let mut v: Vec<T> = set.iter().copied().collect();
    v.sort();
    v
}

/// A sample's bitmaps hold exactly its model's points, in ascending
/// order.
fn assert_same_points(bits: &CoverageSample, sets: &SetModel) {
    assert_eq!(
        bits.digests.iter().collect::<Vec<_>>(),
        sorted(&sets.digests)
    );
    assert_eq!(
        bits.bigrams.iter().collect::<Vec<_>>(),
        sorted(&sets.bigrams)
    );
    assert_eq!(
        bits.buckets.iter().collect::<Vec<_>>(),
        sorted(&sets.buckets)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each sample holds its model's points, and merging the samples in
    /// a random order, repeats included, agrees with the model at every
    /// step.
    #[test]
    fn bitmaps_agree_with_the_set_model(
        feeds in proptest::collection::vec(feed(), 1..6),
        order in proptest::collection::vec(0usize..64, 1..16),
    ) {
        let samples: Vec<(CoverageSample, SetModel)> = feeds.iter().map(sample).collect();
        for (bits, sets) in &samples {
            assert_same_points(bits, sets);
        }
        let mut map = CoverageMap::new();
        let mut model = SetModel::default();
        for i in order {
            let (bits, sets) = &samples[i % samples.len()];
            prop_assert_eq!(map.merge(bits), model.merge(sets));
            prop_assert_eq!(map.counts(), model.counts());
        }
    }
}
