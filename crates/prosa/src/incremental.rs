//! A whole-result memo over the analysis, for admission control.
//!
//! An admission controller answers a stream of related queries, and many
//! of them repeat a set it has analysed before: a probe and then the
//! commit of the same delta, or a revert after a reject.
//! [`IncrementalSolver`] keeps one memo for those repeats: the whole
//! [`AnalysisResult`] (or the error) of [`crate::analyse`], keyed by
//! [`set_fingerprint`]. A miss calls [`crate::analyse`], so every answer
//! is **bit-identical** to it, errors included. Experiment E24 and the
//! property tests in `tests/incremental_properties.rs` check this.
//!
//! Finer memos do not pay on this path. [`crate::BlackoutBound`] counts
//! every task's release curve, so an add, remove or update changes the
//! supply, and every task's bound depends on the supply. A memo of
//! supplies or of per-task bounds therefore almost never hits after a
//! delta (DESIGN §12.2).
//!
//! Fingerprints are FNV-1a/128 over the structural content (curve shape
//! parameters, ticks, priorities), not addresses, so equal inputs hash
//! equal across task sets and sessions. 128 bits makes accidental
//! collision (which would silently return a wrong bound) negligible.
//!
//! The memo holds at most [`MEMO_CAPACITY`] entries (see
//! [`memo_insert`]), so its memory stays bounded on any query stream.

use std::collections::HashMap;

use rossl_model::{Curve, Duration, WcetTable};

use crate::analysis::{analyse, AnalysisParams, AnalysisResult, RtaError};

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incrementally built FNV-1a/128 content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fp(u128);

impl Fp {
    fn new() -> Fp {
        Fp(FNV_OFFSET)
    }

    fn u64(mut self, v: u64) -> Fp {
        for byte in v.to_le_bytes() {
            self.0 ^= u128::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    fn u128(self, v: u128) -> Fp {
        self.u64(v as u64).u64((v >> 64) as u64)
    }
}

/// Content fingerprint of an arrival curve: shape tag plus parameters.
pub fn curve_fingerprint(curve: &Curve) -> u128 {
    let fp = Fp::new();
    match curve {
        Curve::Sporadic { min_inter_arrival } => fp.u64(1).u64(min_inter_arrival.0),
        Curve::Periodic { period } => fp.u64(2).u64(period.0),
        Curve::LeakyBucket {
            burst,
            rate_num,
            rate_den,
        } => fp.u64(3).u64(*burst).u64(*rate_num).u64(*rate_den),
        Curve::Staircase { points } => points
            .iter()
            .fold(fp.u64(4).u64(points.len() as u64), |acc, &(d, n)| {
                acc.u64(d.0).u64(n)
            }),
    }
    .0
}

fn wcet_table_fingerprint(w: &WcetTable) -> Fp {
    Fp::new()
        .u64(w.failed_read.0)
        .u64(w.successful_read.0)
        .u64(w.selection.0)
        .u64(w.dispatch.0)
        .u64(w.completion.0)
        .u64(w.idling.0)
}

/// Fingerprint of an entire analysis query — task set (ids, priorities,
/// WCETs, curves, in order), WCET table, socket count, and horizon. Two
/// queries with equal fingerprints produce equal [`crate::analyse`]
/// output, so this is a sound memo key for whole results (and for
/// admission verdicts layered on top).
pub fn set_fingerprint(params: &AnalysisParams, horizon: Duration) -> u128 {
    let mut fp = wcet_table_fingerprint(params.wcet())
        .u64(params.n_sockets() as u64)
        .u64(horizon.0)
        .u64(params.tasks().len() as u64);
    for t in params.tasks() {
        fp = fp
            .u64(t.id().0 as u64)
            .u64(u64::from(t.priority().0))
            .u64(t.wcet().0)
            .u128(curve_fingerprint(t.arrival_curve()));
    }
    fp.0
}

/// The most entries a memo holds: [`IncrementalSolver`]'s set memo and
/// the admission controller's decision memo both stop here.
pub const MEMO_CAPACITY: usize = 1 << 16;

/// Inserts `value` under `key`, first clearing `memo` if it already
/// holds [`MEMO_CAPACITY`] entries. Clearing adds no bookkeeping to the
/// hit path, and the repeats a memo serves follow soon after the query
/// they repeat, so a cleared memo refills from them.
pub fn memo_insert<V>(memo: &mut HashMap<u128, V>, key: u128, value: V) {
    if memo.len() >= MEMO_CAPACITY {
        memo.clear();
    }
    memo.insert(key, value);
}

/// Memo counters, cumulative since construction (or the last
/// [`IncrementalSolver::clear`]).
///
/// The last three fields are vestigial: the benchmark builds this struct
/// field by field, so they stay until the next benchmark change removes
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Queries answered from the set memo.
    pub set_hits: u64,
    /// Queries that ran [`crate::analyse`].
    pub set_misses: u64,
    /// Always 0: no bound is memoized per task. Vestigial; the next
    /// benchmark change removes it.
    pub task_hits: u64,
    /// Tasks in the sets that ran [`crate::analyse`]. Vestigial; the next
    /// benchmark change removes it.
    pub task_misses: u64,
    /// Supply bound functions built: one per set that ran
    /// [`crate::analyse`], so always equal to `set_misses`. Vestigial; the
    /// next benchmark change removes it.
    pub supplies_built: u64,
}

/// A memo of whole results in front of [`crate::analyse`].
///
/// Feed it any sequence of analysis queries; results are bit-identical
/// to calling [`crate::analyse`] fresh each time (including errors), and
/// a repeated query is one fingerprint and one lookup. See the module
/// docs for why this is the only memo.
#[derive(Debug, Default)]
pub struct IncrementalSolver {
    memo: HashMap<u128, Result<AnalysisResult, RtaError>>,
    stats: SolverStats,
}

impl IncrementalSolver {
    /// An empty solver: the memo cold.
    pub fn new() -> IncrementalSolver {
        IncrementalSolver::default()
    }

    /// The cumulative memo counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Drops the memo and resets the counters.
    pub fn clear(&mut self) {
        self.memo.clear();
        self.stats = SolverStats::default();
    }

    /// The memoized equivalent of [`crate::analyse`]: same inputs,
    /// bit-identical output (bounds **and** errors).
    ///
    /// # Errors
    ///
    /// Exactly the errors [`crate::analyse`] returns for the same query.
    pub fn analyse(
        &mut self,
        params: &AnalysisParams,
        horizon: Duration,
    ) -> Result<AnalysisResult, RtaError> {
        let fp = set_fingerprint(params, horizon);
        if let Some(cached) = self.memo.get(&fp) {
            self.stats.set_hits += 1;
            return cached.clone();
        }
        self.stats.set_misses += 1;
        self.stats.task_misses += params.tasks().len() as u64;
        self.stats.supplies_built += 1;
        let result = analyse(params, horizon);
        memo_insert(&mut self.memo, fp, result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyse;
    use rossl_model::{Priority, Task, TaskId, TaskSet};

    fn params(specs: &[(u32, u64, u64)]) -> AnalysisParams {
        let tasks = TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(p, c, t))| {
                    Task::new(
                        TaskId(i),
                        format!("t{i}"),
                        Priority(p),
                        Duration(c),
                        Curve::sporadic(Duration(t)),
                    )
                })
                .collect(),
        )
        .unwrap();
        AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap()
    }

    #[test]
    fn matches_scratch_analysis_bit_for_bit() {
        let horizon = Duration(200_000);
        let queries = [
            params(&[(1, 10, 1_000)]),
            params(&[(1, 10, 1_000), (9, 5, 500)]),
            params(&[(1, 10, 1_000), (9, 5, 500), (5, 7, 700)]),
            params(&[(1, 10, 1_000), (9, 5, 500)]), // revert: set-memo hit
            params(&[(1, 12, 1_000), (9, 5, 500)]), // wcet delta
            params(&[(1, 200, 210)]),               // heavy but schedulable alone
            params(&[(1, 10, 1_000), (2, 3, 700), (9, 5, 500)]),
            params(&[(1, 10, 1_000), (2, 2, 700), (9, 5, 500)]),
        ];
        let mut inc = IncrementalSolver::new();
        for q in &queries {
            assert_eq!(inc.analyse(q, horizon), analyse(q, horizon));
        }
        let stats = inc.stats();
        assert_eq!(stats.set_hits, 1, "the revert repeats a set: {stats:?}");
        assert_eq!(stats.set_misses, 7, "{stats:?}");
        assert_eq!(stats.task_misses, 15, "every task of every miss: {stats:?}");
        assert_eq!(stats.supplies_built, stats.set_misses, "{stats:?}");
    }

    #[test]
    fn memo_stays_within_its_capacity() {
        let mut memo = HashMap::new();
        for key in 0..MEMO_CAPACITY as u128 + 100 {
            memo_insert(&mut memo, key, ());
            assert!(memo.len() <= MEMO_CAPACITY, "{} entries", memo.len());
        }
        // The insert after the memo filled cleared it.
        assert_eq!(memo.len(), 100);
        assert!(memo.contains_key(&(MEMO_CAPACITY as u128 + 99)));
    }

    #[test]
    fn unschedulable_sets_report_identical_errors() {
        let horizon = Duration(10_000);
        let q = params(&[(1, 9, 10), (9, 5, 20)]); // U > 1
        let mut inc = IncrementalSolver::new();
        let scratch = analyse(&q, horizon);
        assert!(scratch.is_err());
        assert_eq!(inc.analyse(&q, horizon), scratch);
        // Warm path replays the same error.
        assert_eq!(inc.analyse(&q, horizon), scratch);
        assert_eq!(inc.stats().set_hits, 1);
    }

    #[test]
    fn fingerprints_separate_different_curves() {
        let a = curve_fingerprint(&Curve::sporadic(Duration(100)));
        let b = curve_fingerprint(&Curve::periodic(Duration(100)));
        let c = curve_fingerprint(&Curve::sporadic(Duration(101)));
        assert_ne!(a, b);
        assert_ne!(a, c);
        let lb = curve_fingerprint(&Curve::leaky_bucket(2, 1, 30));
        let st = curve_fingerprint(&Curve::staircase(vec![(Duration(2), 1), (Duration(30), 3)]));
        assert_ne!(lb, st);
    }

    #[test]
    fn set_fingerprint_is_order_and_content_sensitive() {
        let horizon = Duration(1_000);
        let a = set_fingerprint(&params(&[(1, 10, 100), (2, 5, 50)]), horizon);
        let b = set_fingerprint(&params(&[(2, 5, 50), (1, 10, 100)]), horizon);
        let c = set_fingerprint(&params(&[(1, 10, 100), (2, 5, 50)]), Duration(2_000));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            set_fingerprint(&params(&[(1, 10, 100), (2, 5, 50)]), horizon)
        );
    }
}
