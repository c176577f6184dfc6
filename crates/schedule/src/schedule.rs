//! The [`Schedule`] type: a contiguous sequence of processor-state
//! segments, with the window queries the RTA experiments need.

use std::fmt;

use serde::{Deserialize, Serialize};

use rossl_model::{Duration, Instant};

use crate::state::ProcessorState;

/// A maximal half-open interval `[start, end)` in which the processor is
/// in one state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start (inclusive).
    pub start: Instant,
    /// Segment end (exclusive).
    pub end: Instant,
    /// The processor state throughout the segment.
    pub state: ProcessorState,
}

impl Segment {
    /// The segment's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }

    /// The overlap of the segment with the window `[from, to)`.
    pub fn overlap(&self, from: Instant, to: Instant) -> Duration {
        let lo = self.start.max(from);
        let hi = self.end.min(to);
        hi.saturating_duration_since(lo)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}) {}", self.start, self.end, self.state)
    }
}

/// The merge and contiguity rule of [`Schedule::from_segments`], applied
/// one segment at a time: adjacent segments with equal states merge into
/// one discrete instance.
#[derive(Debug, Clone, Default)]
pub(crate) struct Merger {
    current: Option<Segment>,
}

impl Merger {
    /// Appends `seg`. Returns the previous merged segment once `seg`
    /// starts a new one.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect if `seg` is empty-length or
    /// does not start where the previous segment ended.
    pub(crate) fn push(&mut self, seg: Segment) -> Result<Option<Segment>, String> {
        if seg.end <= seg.start {
            return Err(format!("segment {seg} has non-positive length"));
        }
        match &mut self.current {
            Some(prev) if prev.end != seg.start => Err(format!(
                "segments are not contiguous: {} then {}",
                prev, seg
            )),
            Some(prev) if prev.state == seg.state => {
                prev.end = seg.end;
                Ok(None)
            }
            _ => Ok(self.current.replace(seg)),
        }
    }

    /// The last merged segment.
    pub(crate) fn finish(self) -> Option<Segment> {
        self.current
    }
}

/// A schedule of processor states: the paper's
/// `sched : 𝕋 → ProcessorState` over the converted portion of a run,
/// represented as contiguous [`Segment`]s with adjacent equal states
/// merged.
///
/// # Examples
///
/// ```
/// use rossl_model::{Duration, Instant};
/// use rossl_schedule::{ProcessorState, Schedule, Segment};
///
/// let s = Schedule::from_segments(vec![
///     Segment { start: Instant(0), end: Instant(4), state: ProcessorState::Idle },
/// ])?;
/// assert_eq!(s.state_at(Instant(2)), Some(ProcessorState::Idle));
/// assert_eq!(s.supply_in(Instant(0), Instant(4)), Duration(4));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    segments: Vec<Segment>,
}

impl Schedule {
    /// Builds a schedule from segments, merging adjacent segments with
    /// equal states.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect if segments are empty-length,
    /// out of order, or non-contiguous.
    pub fn from_segments(segments: Vec<Segment>) -> Result<Schedule, String> {
        let mut merged: Vec<Segment> = Vec::with_capacity(segments.len());
        let mut merger = Merger::default();
        for seg in segments {
            merged.extend(merger.push(seg)?);
        }
        merged.extend(merger.finish());
        Ok(Schedule { segments: merged })
    }

    /// A schedule of segments already merged by a [`Merger`].
    pub(crate) fn from_merged(segments: Vec<Segment>) -> Schedule {
        Schedule { segments }
    }

    /// The merged segments, in time order. Adjacent segments always have
    /// distinct states, so each segment is one *discrete instance* of its
    /// state (the unit the validity constraints bound, §2.4).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The first covered instant, if the schedule is non-empty.
    pub fn start(&self) -> Option<Instant> {
        self.segments.first().map(|s| s.start)
    }

    /// One past the last covered instant.
    pub fn end(&self) -> Option<Instant> {
        self.segments.last().map(|s| s.end)
    }

    /// Total covered time.
    pub fn span(&self) -> Duration {
        match (self.start(), self.end()) {
            (Some(a), Some(b)) => b.saturating_duration_since(a),
            _ => Duration::ZERO,
        }
    }

    /// `true` if the schedule covers no time.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The processor state at instant `t`, or `None` outside the covered
    /// range.
    pub fn state_at(&self, t: Instant) -> Option<ProcessorState> {
        let idx = self.segments.partition_point(|s| s.end <= t);
        self.segments
            .get(idx)
            .filter(|s| s.start <= t)
            .map(|s| s.state)
    }

    /// Time spent in states satisfying `pred` within `[from, to)`.
    pub fn time_where(
        &self,
        from: Instant,
        to: Instant,
        mut pred: impl FnMut(&ProcessorState) -> bool,
    ) -> Duration {
        self.segments
            .iter()
            .filter(|s| pred(&s.state))
            .map(|s| s.overlap(from, to))
            .sum()
    }

    /// Blackout (overhead) time within `[from, to)` (§4.2).
    pub fn blackout_in(&self, from: Instant, to: Instant) -> Duration {
        self.time_where(from, to, ProcessorState::is_overhead)
    }

    /// Supply (non-overhead) time within `[from, to)`.
    pub fn supply_in(&self, from: Instant, to: Instant) -> Duration {
        self.time_where(from, to, ProcessorState::is_supply)
    }

    /// The minimum supply over **all** windows of length `delta` fully
    /// contained in the covered range — the measured counterpart of
    /// `SBF(Δ)` (§4.4). Returns `None` if the schedule is shorter than
    /// `delta`.
    ///
    /// Supply as a function of the window start is piecewise linear with
    /// breakpoints where either window edge crosses a segment boundary, so
    /// the minimum is attained with an edge on a boundary; only those
    /// starts are evaluated.
    pub fn min_supply_over_windows(&self, delta: Duration) -> Option<Duration> {
        let (lo, hi) = (self.start()?, self.end()?);
        if hi.saturating_duration_since(lo) < delta {
            return None;
        }
        let last_start = hi - delta;
        let mut candidates: Vec<Instant> = vec![lo, last_start];
        for s in &self.segments {
            // Window start on a boundary.
            if s.start >= lo && s.start <= last_start {
                candidates.push(s.start);
            }
            // Window end on a boundary.
            if let Some(begin) = s.start.checked_duration_since(lo) {
                if begin >= delta {
                    let cand = s.start - delta;
                    if cand <= last_start {
                        candidates.push(cand);
                    }
                }
            }
        }
        candidates.sort();
        candidates.dedup();
        candidates
            .into_iter()
            .map(|from| self.supply_in(from, from + delta))
            .min()
    }

    /// The longest contiguous span of non-`Idle` time — the measured
    /// counterpart of the analytical busy-window length `L_i` (any busy
    /// interval of a valid run is a level-⊥ busy window, so it must be
    /// bounded by the lowest-priority task's `L`).
    pub fn max_busy_span(&self) -> Duration {
        let mut best = Duration::ZERO;
        let mut current = Duration::ZERO;
        for seg in &self.segments {
            if seg.state == ProcessorState::Idle {
                current = Duration::ZERO;
            } else {
                current += seg.duration();
                best = best.max(current);
            }
        }
        best
    }

    /// The maximum blackout over all windows of length `delta`, the dual of
    /// [`Schedule::min_supply_over_windows`]. Returns `None` if the
    /// schedule is shorter than `delta`.
    pub fn max_blackout_over_windows(&self, delta: Duration) -> Option<Duration> {
        self.min_supply_over_windows(delta)
            .map(|supply| delta.saturating_sub(supply))
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule: {} segments over {}", self.segments.len(), self.span())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{JobRef, ProcessorState as PS};
    use rossl_model::{JobId, TaskId};

    fn jr(id: u64) -> JobRef {
        JobRef {
            id: JobId(id),
            task: TaskId(0),
        }
    }

    fn seg(a: u64, b: u64, state: PS) -> Segment {
        Segment {
            start: Instant(a),
            end: Instant(b),
            state,
        }
    }

    fn demo() -> Schedule {
        Schedule::from_segments(vec![
            seg(0, 4, PS::Idle),
            seg(4, 10, PS::ReadOvh(jr(0))),
            seg(10, 12, PS::SelectionOvh(jr(0))),
            seg(12, 14, PS::DispatchOvh(jr(0))),
            seg(14, 24, PS::Executes(jr(0))),
            seg(24, 26, PS::CompletionOvh(jr(0))),
            seg(26, 30, PS::Idle),
        ])
        .unwrap()
    }

    #[test]
    fn contiguity_is_enforced() {
        let err = Schedule::from_segments(vec![seg(0, 4, PS::Idle), seg(5, 6, PS::Idle)])
            .unwrap_err();
        assert!(err.contains("not contiguous"));
        let err =
            Schedule::from_segments(vec![seg(4, 4, PS::Idle)]).unwrap_err();
        assert!(err.contains("non-positive"));
    }

    #[test]
    fn adjacent_equal_states_merge() {
        let s = Schedule::from_segments(vec![seg(0, 2, PS::Idle), seg(2, 5, PS::Idle)]).unwrap();
        assert_eq!(s.segments().len(), 1);
        assert_eq!(s.segments()[0].duration(), Duration(5));
    }

    #[test]
    fn state_lookup() {
        let s = demo();
        assert_eq!(s.state_at(Instant(0)), Some(PS::Idle));
        assert_eq!(s.state_at(Instant(4)), Some(PS::ReadOvh(jr(0))));
        assert_eq!(s.state_at(Instant(9)), Some(PS::ReadOvh(jr(0))));
        assert_eq!(s.state_at(Instant(29)), Some(PS::Idle));
        assert_eq!(s.state_at(Instant(30)), None);
    }

    #[test]
    fn blackout_and_supply_partition_windows() {
        let s = demo();
        for (a, b) in [(0, 30), (3, 11), (10, 25), (0, 1)] {
            let (a, b) = (Instant(a), Instant(b));
            let total = b.saturating_duration_since(a);
            assert_eq!(s.blackout_in(a, b) + s.supply_in(a, b), total);
        }
        // Blackout over the whole run: 6 (read) + 2 (sel) + 2 (disp) + 2 (compl).
        assert_eq!(s.blackout_in(Instant(0), Instant(30)), Duration(12));
    }

    #[test]
    fn min_supply_matches_brute_force() {
        let s = demo();
        for delta in [1u64, 3, 5, 10, 17, 30] {
            let fast = s.min_supply_over_windows(Duration(delta)).unwrap();
            let brute = (0..=(30 - delta))
                .map(|from| s.supply_in(Instant(from), Instant(from + delta)))
                .min()
                .unwrap();
            assert_eq!(fast, brute, "Δ = {delta}");
        }
    }

    #[test]
    fn window_longer_than_schedule_is_none() {
        assert_eq!(demo().min_supply_over_windows(Duration(31)), None);
        assert!(Schedule::default().min_supply_over_windows(Duration(1)).is_none());
    }

    #[test]
    fn max_blackout_is_dual() {
        let s = demo();
        let delta = Duration(10);
        assert_eq!(
            s.max_blackout_over_windows(delta).unwrap(),
            delta - s.min_supply_over_windows(delta).unwrap()
        );
    }

    #[test]
    fn max_busy_span_bridges_non_idle_segments() {
        let s = demo();
        // Busy: [4, 26) = 22 ticks (read..completion), idle on both sides.
        assert_eq!(s.max_busy_span(), Duration(22));
        let all_idle = Schedule::from_segments(vec![seg(0, 9, PS::Idle)]).unwrap();
        assert_eq!(all_idle.max_busy_span(), Duration::ZERO);
        assert_eq!(Schedule::default().max_busy_span(), Duration::ZERO);
    }

    #[test]
    fn empty_schedule_queries() {
        let s = Schedule::default();
        assert!(s.is_empty());
        assert_eq!(s.span(), Duration::ZERO);
        assert_eq!(s.state_at(Instant(0)), None);
    }
}
