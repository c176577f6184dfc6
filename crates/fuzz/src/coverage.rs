//! The coverage signal: what makes an input "interesting".
//!
//! Three cheap, complementary feedback channels (DESIGN §8.2), each a
//! fixed-size bitmap:
//!
//! 1. **State-digest novelty** — `Scheduler::digest64` sampled after
//!    every step of the raw drive, folded into a bitmap of
//!    [`DIGEST_SLOTS`] slots (AFL-style). Raw digests are near-unique —
//!    they hash monotone counters — so the *slot* occupancy is the
//!    saturating novelty signal; without the fold every input would be
//!    "interesting" and the corpus would grow without bound.
//! 2. **Marker bigrams** — consecutive [`MarkerKind`] pairs of the
//!    produced trace, the trace-shape analogue of branch-pair coverage:
//!    one bit per ordered pair of kinds.
//! 3. **Histogram-bucket occupancy** — response times and read lags
//!    pushed through `rossl-obs`'s log-linear [`bucket_index`], so an
//!    input that produces a latency regime never seen before counts as
//!    novel even when its trace shape is familiar: one row of
//!    [`BUCKETS`] bits per [`channel`].
//!
//! An input joins the corpus iff merging its [`CoverageSample`] into the
//! global [`CoverageMap`] sets at least one bit that was clear.

use std::fmt;

use rossl_obs::{bucket_index, BUCKETS};
use rossl_trace::{Marker, MarkerKind};

/// Size of the state-digest bitmap. Large enough that distinct dynamic
/// states rarely collide, small enough that the channel saturates and
/// stops admitting corpus entries.
pub const DIGEST_SLOTS: u64 = 8192;

/// Number of [`MarkerKind`] codes; a bigram is one of `KINDS²` pairs.
const KINDS: usize = 9;

/// Number of latency channels: the [`channel`] constants are `0..CHANNELS`.
const CHANNELS: usize = 4;

const DIGEST_WORDS: usize = (DIGEST_SLOTS as usize).div_ceil(64);
const BIGRAM_WORDS: usize = (KINDS * KINDS).div_ceil(64);
const BUCKET_WORDS: usize = (CHANNELS * BUCKETS).div_ceil(64);

/// A fixed-size set of small integers, one bit per member.
#[derive(Clone)]
struct Bits<const WORDS: usize>([u64; WORDS]);

impl<const WORDS: usize> Default for Bits<WORDS> {
    fn default() -> Self {
        Bits([0; WORDS])
    }
}

impl<const WORDS: usize> Bits<WORDS> {
    #[inline]
    fn insert(&mut self, bit: usize) {
        self.0[bit / 64] |= 1 << (bit % 64);
    }

    /// Adds every member of `other`; `true` if any was new.
    fn union(&mut self, other: &Self) -> bool {
        let mut new = 0;
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            new |= theirs & !*mine;
            *mine |= theirs;
        }
        new != 0
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

impl<const WORDS: usize> fmt::Debug for Bits<WORDS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The occupied slots of the state-digest bitmap.
#[derive(Debug, Clone, Default)]
pub struct DigestSlots(Bits<DIGEST_WORDS>);

impl DigestSlots {
    /// The occupied slots, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|slot| slot as u64)
    }
}

/// The marker-kind pairs seen, one bit per ordered pair of kind codes.
#[derive(Debug, Clone, Default)]
pub struct Bigrams(Bits<BIGRAM_WORDS>);

impl Bigrams {
    /// The `(first, second)` kind-code pairs seen, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, u8)> + '_ {
        self.0
            .iter()
            .map(|bit| ((bit / KINDS) as u8, (bit % KINDS) as u8))
    }
}

/// The latency-histogram buckets hit, one row of [`BUCKETS`] bits per
/// [`channel`].
#[derive(Debug, Clone, Default)]
pub struct BucketRows(Bits<BUCKET_WORDS>);

impl BucketRows {
    /// The `(channel, bucket)` pairs hit, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, usize)> + '_ {
        self.0
            .iter()
            .map(|bit| ((bit / BUCKETS) as u8, bit % BUCKETS))
    }
}

/// Coverage gathered from one execution.
#[derive(Debug, Clone, Default)]
pub struct CoverageSample {
    /// Occupied slots of the state-digest bitmap.
    pub digests: DigestSlots,
    /// Consecutive marker-kind pairs of the trace(s).
    pub bigrams: Bigrams,
    /// `(channel, bucket)` occupancy of latency histograms.
    pub buckets: BucketRows,
}

/// Latency channels feeding the bucket-occupancy signal.
pub mod channel {
    /// Response time (arrival → completion).
    pub const RESPONSE: u8 = 0;
    /// Read lag (arrival → read).
    pub const READ_LAG: u8 = 1;
    /// Trace length, bucketed.
    pub const TRACE_LEN: u8 = 2;
    /// Fleet failover latency (fence detected → migration committed).
    pub const FAILOVER: u8 = 3;
}

/// A marker kind's code in the bigram bitmap; every code is below `KINDS`.
fn kind_code(kind: MarkerKind) -> usize {
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

impl CoverageSample {
    /// Records one scheduler state digest (folded into its bitmap slot).
    pub fn digest(&mut self, digest: u64) {
        self.digests.0.insert((digest % DIGEST_SLOTS) as usize);
    }

    /// Records the marker bigrams of a trace segment.
    pub fn trace(&mut self, markers: &[Marker]) {
        let mut codes = markers.iter().map(|m| kind_code(m.kind()));
        if let Some(mut prev) = codes.next() {
            for code in codes {
                self.bigrams.0.insert(prev * KINDS + code);
                prev = code;
            }
        }
        self.latency(channel::TRACE_LEN, markers.len() as u64);
    }

    /// Records a latency observation on `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not one of the [`channel`] constants.
    pub fn latency(&mut self, channel: u8, ticks: u64) {
        let channel = usize::from(channel);
        assert!(channel < CHANNELS, "unknown latency channel {channel}");
        self.buckets
            .0
            .insert(channel * BUCKETS + bucket_index(ticks));
    }
}

/// The campaign-global coverage accumulator.
#[derive(Debug, Clone, Default)]
pub struct CoverageMap {
    digests: DigestSlots,
    bigrams: Bigrams,
    buckets: BucketRows,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Merges `sample`; returns `true` if any channel gained a new
    /// point (the input is interesting and belongs in the corpus).
    pub fn merge(&mut self, sample: &CoverageSample) -> bool {
        // `|`, not `||`: every channel must absorb the sample.
        self.digests.0.union(&sample.digests.0)
            | self.bigrams.0.union(&sample.bigrams.0)
            | self.buckets.0.union(&sample.buckets.0)
    }

    /// `(digests, bigrams, buckets)` sizes, for reporting.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.digests.0.len(),
            self.bigrams.0.len(),
            self.buckets.0.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_reports_novelty_once() {
        let mut map = CoverageMap::new();
        let mut s = CoverageSample::default();
        s.digest(1);
        s.latency(channel::RESPONSE, 100);
        assert!(map.merge(&s));
        assert!(!map.merge(&s), "second merge of same sample is not novel");
        let mut s2 = CoverageSample::default();
        s2.digest(2);
        assert!(map.merge(&s2));
    }

    #[test]
    fn trace_bigrams_distinguish_shapes() {
        use rossl_model::SocketId;
        let mut a = CoverageSample::default();
        a.trace(&[
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(0),
                job: None,
            },
            Marker::Selection,
            Marker::Idling,
        ]);
        let mut map = CoverageMap::new();
        assert!(map.merge(&a));
        let mut b = CoverageSample::default();
        b.trace(&[Marker::Selection, Marker::Selection]);
        assert!(map.merge(&b), "new bigram (Selection,Selection) is novel");
    }

    /// One marker of each kind, in kind-code order.
    fn one_of_each_kind() -> Vec<Marker> {
        use rossl_model::{Job, JobId, Mode, SocketId, TaskId};
        let job = Job::new(JobId(1), TaskId(0), vec![0]);
        let markers = vec![
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(0),
                job: Some(job.clone()),
            },
            Marker::ReadEnd {
                sock: SocketId(0),
                job: None,
            },
            Marker::Selection,
            Marker::Dispatch(job.clone()),
            Marker::Execution(job.clone()),
            Marker::Completion(job),
            Marker::Idling,
            Marker::ModeSwitch {
                from: Mode::Lo,
                to: Mode::Hi,
            },
        ];
        assert!(markers
            .iter()
            .enumerate()
            .all(|(code, m)| kind_code(m.kind()) == code));
        markers
    }

    #[test]
    fn the_edges_of_every_bitmap_round_trip() {
        let mut s = CoverageSample::default();
        for d in [0, DIGEST_SLOTS - 1, DIGEST_SLOTS, u64::MAX] {
            s.digest(d);
        }
        assert_eq!(s.digests.iter().collect::<Vec<_>>(), [0, DIGEST_SLOTS - 1]);

        let kinds = one_of_each_kind();
        for a in &kinds {
            for b in &kinds {
                s.trace(&[a.clone(), b.clone()]);
            }
        }
        let pairs: Vec<(u8, u8)> = (0..KINDS as u8)
            .flat_map(|a| (0..KINDS as u8).map(move |b| (a, b)))
            .collect();
        assert_eq!(s.bigrams.iter().collect::<Vec<_>>(), pairs);

        let mut s = CoverageSample::default();
        for ch in 0..CHANNELS as u8 {
            s.latency(ch, 0);
            s.latency(ch, u64::MAX);
        }
        let rows: Vec<(u8, usize)> = (0..CHANNELS as u8)
            .flat_map(|ch| [(ch, 0), (ch, BUCKETS - 1)])
            .collect();
        assert_eq!(s.buckets.iter().collect::<Vec<_>>(), rows);

        let mut map = CoverageMap::new();
        assert!(map.merge(&s));
        assert_eq!(map.counts(), (0, 0, 2 * CHANNELS));
    }

    #[test]
    #[should_panic(expected = "unknown latency channel")]
    fn an_unknown_channel_panics() {
        CoverageSample::default().latency(CHANNELS as u8, 0);
    }
}
